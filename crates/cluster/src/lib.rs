//! Cluster mode for the SITW serving fleet.
//!
//! A cluster is N independent `sitw-serve` nodes behind one thin
//! `sitw-router` daemon. The router owns exactly the state a single node
//! cannot: *placement* (which node serves which tenant). It provisions
//! every configured tenant, with its whole budget, on every node, so the
//! node a tenant lands on already enforces its budget; a ring change
//! moves no budget. It never refuses an invocation itself. Everything else —
//! policies, ledgers, histograms — stays on the nodes, so a cluster of
//! one node behaves bit-for-bit like a bare node.
//!
//! The pieces:
//!
//! * [`ClusterRing`] — epoch-versioned tenant→node placement: named
//!   tenants land whole on one node by name hash and the default tenant
//!   spreads by app hash, over the live nodes. Every membership change
//!   advances the epoch.
//! * [`Router`] — the routing daemon, a node whose partitions are
//!   remote: its clients run on the node's reactor driver and connection
//!   state machine ([`sitw_serve::reactor`]), a few event-loop threads
//!   for every client. It speaks both wire protocols on one port (JSON
//!   over HTTP and SITW-BIN frames), partitions batched frames by ring
//!   owner and reassembles the nodes' replies in request order, and
//!   surfaces a dead node as the typed
//!   [`sitw_serve::wire::BinErrorCode::Unavailable`] error (HTTP 503)
//!   rather than a hung or reset connection — every answer a node owes
//!   is bounded by a configurable deadline. A health prober marks a
//!   node slot `down` after consecutive failed probes; the operator's
//!   one failover verb promotes the slot's warm standby (a `sitw-serve
//!   --follow` replica) in place and bumps the ring epoch, or drops the
//!   node when no standby is left to promote.
//! * [`federate`] + the router's telemetry ([`router`]) — the fleet
//!   observability plane: the
//!   router stamps sampled trace ids onto forwarded work and records
//!   its own hop stages, `GET /debug/trace` merges router and node
//!   spans into one end-to-end timeline, and `GET /metrics/fleet`
//!   merges the nodes' raw log2 histograms bucket-exactly and folds
//!   their per-tenant ledgers (`GET /admin/usage`) by name, both read
//!   at scrape time.
//!
//! The offline model of a cluster is [`sitw_fleet::FleetSim`] over the
//! union registry: placement is fixed by the ring; one `FleetSim` models
//! the cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federate;
mod forward;
pub mod metrics;
pub mod ring;
pub mod router;

pub use federate::{parse_hist_body, parse_trace_spans, FleetHists, NodeHists, NodeSpan};
pub use metrics::{render_fleet, RouterMetrics};
pub use ring::ClusterRing;
pub use router::{Router, RouterConfig, ROUTER_TRACE_ORIGIN};
