//! Cluster mode for the SITW serving fleet.
//!
//! A cluster is N independent `sitw-serve` nodes behind one thin
//! `sitw-router` daemon. The router owns exactly the state a single node
//! cannot: *placement* (which node serves which tenant), *admission*
//! (cluster-wide QoS rate limits), and *budget reconciliation* (keeping
//! per-tenant memory budgets meaningful fleet-wide). Everything else —
//! policies, ledgers, histograms — stays on the nodes, so a cluster of
//! one node behaves bit-for-bit like a bare node.
//!
//! The pieces:
//!
//! * [`ClusterRing`] — epoch-versioned tenant→node placement: named
//!   tenants land whole on one node by name hash, the default tenant
//!   spreads by app hash, and migrations pin overrides. Every change
//!   advances the epoch.
//! * [`Router`] — the routing daemon. Speaks both wire protocols on one
//!   port (JSON over HTTP and SITW-BIN frames), splits batched frames
//!   across nodes and reassembles replies in request order, answers
//!   admission rejections itself (HTTP 429 / the `Throttled` verdict
//!   bit), and surfaces a dead node as the typed
//!   [`sitw_serve::wire::BinErrorCode::Unavailable`] error (HTTP 503)
//!   rather than a hung or reset connection — every data-path upstream
//!   exchange is bounded by a configurable deadline. With `--failover
//!   supervised|auto` a health prober raises drop/promote proposals for
//!   nodes failing consecutive probes; confirming one promotes the
//!   slot's warm standby (a `sitw-serve --follow` replica) in place and
//!   bumps the ring epoch, or drops the node when no standby exists.
//! * [`reconcile`] — the epoch-based budget reconciler: polls each
//!   node's per-tenant ledger integrals over SITW-BIN control frames,
//!   aggregates them cluster-wide, and pushes each tenant's budget to
//!   its current ring owner.
//! * [`ClusterSim`] — the offline model: QoS admission composed with
//!   [`sitw_fleet::FleetSim`] over the union registry. Because
//!   migration moves tenant state bit-for-bit, placement is invisible
//!   to verdicts, and one `FleetSim` models the whole cluster.
//! * [`federate`] + [`telem`] — the fleet observability plane: the
//!   router stamps sampled trace ids onto forwarded work and records
//!   its own hop stages, `GET /debug/trace` merges router and node
//!   spans into one end-to-end timeline, and `GET /metrics/fleet`
//!   merges the nodes' raw log2 histograms bucket-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federate;
pub mod metrics;
pub mod reconcile;
pub mod ring;
pub mod router;
pub mod sim;
pub mod telem;

pub use federate::{parse_hist_body, parse_trace_spans, FleetHists, NodeHists, NodeSpan};
pub use metrics::{render_fleet, RouterMetrics};
pub use reconcile::{control_roundtrip, reconcile_shares};
pub use ring::ClusterRing;
pub use router::{FailoverMode, FailoverProposal, Router, RouterConfig, RouterTenant};
pub use sim::{ClusterOutcome, ClusterSim};
pub use telem::{RouterTelem, ROUTER_TRACE_ORIGIN};
