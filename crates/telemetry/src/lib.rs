//! Observability primitives for the serving daemon.
//!
//! The paper's methodology is distributional — the §6 policy is driven by
//! idle-time histograms and the workload characterization (Figs. 3, 5, 8)
//! is all percentile curves — so the daemon that reproduces it should
//! report distributions too, not four point estimates. This crate holds
//! the std-only building blocks the serving stack records into:
//!
//! * [`Clock`] — a nanosecond time source ([`WallClock`] in production,
//!   [`ManualClock`] in tests) so span timestamps are deterministic under
//!   test.
//! * [`Log2Histogram`] — a fixed 64-bucket power-of-two latency
//!   histogram: O(1) record, u64 counts, and *exact* merge across shards
//!   and reactors (merging two histograms is elementwise addition, so
//!   shard-merged bucket counts equal the sum of per-shard recordings by
//!   construction).
//! * [`FlightRecorder`] — a fixed-size ring of timestamped
//!   [`SpanEvent`]s covering the request pipeline stages
//!   (read → decode → queue → decide → render → write on a node,
//!   ingress → route → forward → await → reassemble → egress on the
//!   router), overwritten oldest-first and snapshotted — never drained —
//!   by the `/debug/trace` endpoints.
//! * [`EventRing`] — a bounded ring of policy [`LifecycleEvent`]s (cold
//!   starts, evictions, throttles, migrations, ring-epoch changes)
//!   scraped by `/debug/events`.
//!
//! Each wire format these types travel in has its one writer (and, where
//! another process reads it back, its one parser) beside the type: the
//! `/metrics` table renderer in [`expo`], `/debug/hist` lines
//! ([`write_hist_line`] / [`parse_hist_lines`]), `/debug/trace`
//! timelines ([`write_trace_text`], [`write_trace_json`] /
//! [`parse_trace_json`]) and the `/debug/events` body
//! ([`EventRing::snapshot_json`]). Node, follower and router call these.
//!
//! Everything here is allocation-free after construction (lifecycle
//! events own their names, so the frequent ones are written into the
//! ring's kept buffers: [`EventRing::record`]) and does no syscalls,
//! so recording on the hot path costs a clock read and a few arithmetic
//! ops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod events;
pub mod expo;
mod hist;
mod json;
mod recorder;
mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use events::{EventKind, EventRing, LifecycleEvent};
pub use hist::{parse_hist_lines, write_hist_line, HistKey, Log2Histogram, BUCKETS};
pub use json::json_escape;
pub use recorder::{
    is_trace_span, FlightRecorder, SpanEvent, Stage, ROUTER_STAGES, STAGES, TRACE_MARK,
};
pub use trace::{parse_trace_json, write_trace_json, write_trace_text, TraceSpan};

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard when a panicked holder poisoned it.
/// For state that stays coherent whatever statement its holder died on
/// — the telemetry mutexes guard counters and whole-slot ring writes —
/// and that is read where a second panic costs more than a stale value:
/// scrapes run on reactor threads, which would take every connection
/// they serve down with them.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
