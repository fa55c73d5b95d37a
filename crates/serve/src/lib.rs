//! `sitw-serve`: the online keep-alive decision service.
//!
//! The paper's §6 describes the hybrid histogram policy running *inside*
//! the Azure Functions production front end; this crate turns the
//! workspace's policy engine into that shape — a long-running daemon a
//! FaaS control plane would consult on every function execution:
//!
//! * **HTTP/1.1 over an epoll reactor** ([`http`], [`server`],
//!   [`reactor`], `conn`): std-only, persistent connections, request
//!   pipelining. A fixed pool of event-loop threads multiplexes every
//!   connection over `sitw_reactor`'s raw epoll/eventfd bindings —
//!   thousands of mostly idle keep-alive clients cost a slab entry
//!   each, not a thread — with buffer reuse from the socket to the
//!   shard and back (a dispatched batch's buffers return in its reply,
//!   so a steady-state decision allocates nothing on either thread;
//!   `tests/alloc_free_wire.rs` counts it), coalesced response writes,
//!   read-backpressure hysteresis, a slowloris idle timeout, and
//!   connection gauges in `/metrics`.
//! * **Sharded policy state** ([`shard`]): N worker threads each own the
//!   per-application policy state for their hash slice of the app space.
//!   Requests reach shards through mailbox channels; there are **no
//!   shared locks on the decision path**, so a shard's state needs no
//!   synchronization at all. In production mode
//!   ([`sitw_sim::PolicySpec::Production`]) each shard runs a
//!   shard-local [`sitw_core::ProductionManager`] — daily histograms,
//!   two-week retention, recency-weighted aggregation, pre-warms
//!   scheduled 90 s early, hourly backup accounting (§6).
//! * **Endpoints**: `POST /invoke` (app id + timestamp → cold/warm
//!   verdict and the next pre-warm/keep-alive windows), `GET /metrics`
//!   (per-shard counters plus per-stage/per-tenant decision-latency
//!   **histograms** — mergeable log2 buckets from `sitw_telemetry`,
//!   exported as real Prometheus `histogram` series), `GET /healthz`,
//!   the flight-recorder debug endpoints `GET /debug/trace` and
//!   `GET /debug/threads` ([`telem`]), and admin verbs for snapshotting
//!   and graceful shutdown.
//! * **Flight-recorder telemetry** ([`telem`]): every request is traced
//!   through six stages — read → decode → queue → decide → render →
//!   write — into per-thread span rings and per-stage histograms, with
//!   reactor introspection counters (epoll waits, wakeups, events per
//!   wake, write-coalescing bursts, backpressure transitions, mailbox
//!   depths). Recording is lock-light (`try_lock` per site) and
//!   allocation-free in steady state; `telemetry: false` removes every
//!   clock read from the hot path.
//! * **Snapshot/restore** ([`snapshot`]): the complete per-app policy
//!   state (histogram bins, out-of-bounds counts, ARIMA history) round
//!   trips through a text file — the daemon can restart mid-stream and
//!   keep emitting bit-identical decisions, mirroring the hourly
//!   backups of §6.
//! * **Replication & failover** ([`follow`]): a warm standby
//!   (`sitw-serve --follow PRIMARY`) pulls chunked snapshot/delta
//!   rounds over SITW-BIN replication frames — per-app dirty tracking
//!   means steady-state rounds carry only what mutated, and no shard
//!   ever pauses — and promotes into a serving primary (operator
//!   command, router failover, or dead-primary auto policy) whose
//!   decisions are bit-identical to an uninterrupted one.
//! * **Verdict parity**: a shard decides by calling
//!   [`sitw_fleet::TenantState::step`] — the step the offline
//!   `FleetSim` replays — so fleet verdicts are equal by construction.
//!   [`sitw_sim::verdict_trace`] is a second, independent
//!   implementation (it shares only
//!   [`sitw_core::Windows::classify_gap`] with that step), and an
//!   online replay of a trace produces exactly its answers: that is
//!   the check of the step itself, and `tests/parity.rs` asserts it
//!   bit-for-bit.
//! * **SITW-BIN v1** ([`wire`]): a length-prefixed batched binary
//!   protocol on the same port, sniffed per message on its first byte
//!   ([`wire::BIN_MAGIC`] vs an ASCII method letter). A frame of up to
//!   [`wire::MAX_BATCH`] invocations crosses each shard mailbox in one
//!   message and is answered by fixed 9-byte verdict records, so the
//!   per-decision parse/format/syscall/wake cost is amortized over the
//!   whole batch. Malformed frames get typed error frames; whenever the
//!   length-prefixed envelope is intact the connection stays usable.
//!   The batch is the *only* dispatch unit: pipelined JSON requests of
//!   one read burst cross each shard mailbox as one message too.
//! * **Multi-tenant fleet** (`sitw_fleet` wired through [`shard`] /
//!   [`server`]): per-tenant policies and keep-alive memory budgets, a
//!   cluster memory ledger charging each warm container a deterministic
//!   Burr-sampled footprint (§3.4/Figure 8), and budgeted eviction by
//!   earliest keep-alive expiry — would-be-warm starts downgrade to
//!   `evicted` cold verdicts instead of silently over-committing.
//!   Named tenants route whole to one shard, so their ledgers stay
//!   single-writer and their eviction streams are identical for every
//!   shard count. `sitw_sim::fleet_verdict_trace` drives the same
//!   `TenantState::step` offline; `fleet_parity`, `failover` and the
//!   cluster's `migration_parity` pin transport, sharding,
//!   snapshot/restore, replication and migration around it.
//! * **Load generator** ([`loadgen`]): replays `sitw_trace` workloads
//!   open-loop at a configurable speedup (or flat out) over pipelined
//!   connections — speaking JSON or SITW-BIN ([`loadgen::Proto`]),
//!   optionally spread across N tenants with Zipf skew — and reports
//!   sustained throughput and exact latency percentiles.
//!
//! # Quickstart
//!
//! ```
//! use sitw_serve::{Server, ServeConfig};
//! use sitw_sim::PolicySpec;
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     shards: 2,
//!     policy: PolicySpec::fixed_minutes(10),
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let addr = server.addr();
//! // ... drive POST /invoke over TCP, then:
//! server.shutdown().unwrap();
//! # let _ = addr;
//! ```

//!
//! # Stable for `benchmark/`
//!
//! The frozen harness under `benchmark/` is a workspace of its own that
//! compiles against this crate, so these names keep their shape (path,
//! fields, signature) in every PR that is not a `[benchmark]` one —
//! this list, not the forty-odd re-exports below, is the public API:
//!
//! * [`shard::ShardWorker`]`::{new, invoke, invoke_batch, run}` and
//!   [`shard::ShardMsg`]`::{PolicyProbe, Shutdown}`;
//! * struct literals of [`BatchItem`] (`idx`, `tenant`, `app`, `ts`) and
//!   [`Decision`] (`cold`, `prewarm_load`, `evicted`, `kind`,
//!   `windows`), and [`TenantRestore::fresh`];
//! * [`Snapshot`] (`load`, `decode`, `decode_delta`, `encode`,
//!   `encode_delta`, the `apps` and `tenants[..].apps` fields) and
//!   [`apply_delta`];
//! * [`http::ConnBuf`]`::{new, read_request}`, [`http::ReadOutcome`],
//!   [`http::write_response`];
//! * in [`wire`]: `BinInvoke`, `BinReply`, `ServerFrameDecode`,
//!   `parse_invoke`, `render_decision`, `kind_from_str`, `push_u64`,
//!   `encode_request_frame_v2{,_traced}`, `decode_request_frame_into`,
//!   `encode_reply_records`, `decode_server_frame` and the constants
//!   `BIN_MAGIC`, `BIN_VERSION_*`, `BIN_HEADER_LEN`, `FRAME_REPLY`,
//!   `REPLY_RECORD_LEN`, `MAX_BATCH`, `MAX_FRAME_PAYLOAD`.
//!
//! `sitw_fleet` and `sitw_sim` carry the rest of the list in their own
//! crate docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub(crate) mod conn;
pub mod follow;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub(crate) mod pool;
pub mod reactor;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod telem;
pub mod wire;

pub use client::Client;
pub use follow::{FollowConfig, FollowStatus, Follower};
pub use loadgen::{run_loadgen, run_loadgen_cluster, LoadGenConfig, LoadGenReport, Proto};
pub use metrics::{
    ConnStats, MetricsReport, ProtoHists, ProtoStats, ReactorStats, ShardStats, TenantStats,
};
pub use reactor::ReplySink;
pub use server::{ServeConfig, Server, TenantConfig};
pub use shard::{
    shard_of, BatchItem, BatchReply, BatchSpans, Decision, InvokeError, TenantRestore,
};
pub use snapshot::{
    apply_delta, AppRecord, PolicyState, ShardExport, Snapshot, SnapshotError, TenantExport,
    TenantSnapshot,
};
pub use telem::{
    merge_spans, QueueGauge, ReactorTelem, ReactorTelemHandle, ShardTelem, TelemClock, TRACE_RING,
};
