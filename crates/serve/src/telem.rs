//! Serving-stack telemetry plumbing: per-thread flight recorders,
//! stage histograms, and queue gauges.
//!
//! Layout follows the threading model. Each reactor thread owns a
//! [`ReactorTelemHandle`] wrapping an `Arc<Mutex<ReactorTelem>>`; the
//! hot path records through short `try_lock`s (a recording site that
//! loses the race to a scraper simply skips — never blocks, never
//! queues), while scrapers (`/metrics`, `/debug/trace`,
//! `/debug/threads`) take brief blocking locks. The guard is never held
//! across `pump` or `epoll_wait`, which matters twice over: control
//! requests (including the scrape itself) execute inside `pump` on a
//! reactor thread, and a guard held across a blocking wait would stall
//! scrapers for a full tick.
//!
//! Shard workers own their stage histograms outright (scraped via the
//! existing `Scrape` mailbox message, so no locking at all) and share
//! only their [`FlightRecorder`] and mailbox [`QueueGauge`] with the
//! control path.
//!
//! When telemetry is disabled (`--no-telemetry`) the handles keep their
//! structure but every recording site short-circuits before reading the
//! clock — the steady state does no timing work at all.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sitw_telemetry::{
    Clock, EventRing, FlightRecorder, Log2Histogram, ManualClock, TraceSpan, WallClock,
};

use crate::metrics::ProtoHists;

/// Capacity of each per-thread flight-recorder ring.
pub const TRACE_RING: usize = 512;

/// Capacity of the node-wide lifecycle event ring (`/debug/events`).
/// One shared ring: it keeps the most recent events, and a shard that
/// finds it locked drops its event rather than wait.
pub const EVENT_RING: usize = 256;

/// Runtime-selected clock: production wall time or a test-driven manual
/// clock, without making every recording site generic.
#[derive(Debug, Clone)]
pub enum TelemClock {
    /// Nanoseconds since the server's start [`std::time::Instant`].
    Wall(WallClock),
    /// Test clock; reads whatever the test last set.
    Manual(ManualClock),
}

impl TelemClock {
    /// Nanoseconds since this clock's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self {
            TelemClock::Wall(c) => c.now_ns(),
            TelemClock::Manual(c) => c.now_ns(),
        }
    }
}

impl Default for TelemClock {
    fn default() -> Self {
        TelemClock::Wall(WallClock::default())
    }
}

/// Drain-observed depth/high-water gauge for a queue (reactor inbox or
/// shard mailbox).
///
/// Only the queue's *consumer* writes: each time it drains a wave of
/// messages it [`QueueGauge::observe`]s the backlog it found, so `depth`
/// is the most recent wave's backlog and `peak` its high-water mark.
/// Producers never touch the gauge — the dispatch path costs zero
/// shared-cacheline RMWs — and the single writer means plain relaxed
/// stores suffice (the read-then-store peak update cannot race itself).
#[derive(Debug, Default)]
pub struct QueueGauge {
    depth: AtomicU64,
    peak: AtomicU64,
}

impl QueueGauge {
    /// Records the backlog found at one drain wave.
    #[inline]
    pub fn observe(&self, backlog: u64) {
        self.depth.store(backlog, Ordering::Relaxed);
        if backlog > self.peak.load(Ordering::Relaxed) {
            self.peak.store(backlog, Ordering::Relaxed);
        }
    }

    /// Current `(depth, peak)` reading.
    pub fn read(&self) -> (u64, u64) {
        (
            self.depth.load(Ordering::Relaxed),
            self.peak.load(Ordering::Relaxed),
        )
    }
}

/// Everything one reactor thread records, under a single mutex.
#[derive(Debug)]
pub struct ReactorTelem {
    /// Socket-readable → request bytes buffered, per protocol (for a
    /// JSON run: until its first request parsed out).
    pub read: ProtoHists,
    /// Bytes buffered → parsed and dispatched, per protocol (for a JSON
    /// run: the rest of the burst's parsing, up to dispatch).
    pub decode: ProtoHists,
    /// Reply slot completed → response bytes serialized, per protocol.
    pub render: ProtoHists,
    /// Response bytes → flushed to the socket, per protocol.
    pub write: ProtoHists,
    /// Events delivered per productive `epoll_wait` wake.
    pub events_per_wake: Log2Histogram,
    /// Bytes per completed coalesced socket write.
    pub write_bursts: Log2Histogram,
    /// Recent span events recorded on this thread.
    pub recorder: FlightRecorder,
    /// Total `epoll_wait` calls (blocking and non-blocking).
    pub epoll_waits: u64,
    /// Nanoseconds spent inside blocking `epoll_wait` calls.
    pub epoll_wait_ns: u64,
    /// Eventfd waker fires observed.
    pub wakeups: u64,
    /// Backpressure transitions into the read-paused state.
    pub bp_pauses: u64,
    /// Backpressure transitions out of the read-paused state.
    pub bp_resumes: u64,
}

impl Default for ReactorTelem {
    fn default() -> Self {
        Self {
            read: ProtoHists::default(),
            decode: ProtoHists::default(),
            render: ProtoHists::default(),
            write: ProtoHists::default(),
            events_per_wake: Log2Histogram::new(),
            write_bursts: Log2Histogram::new(),
            recorder: FlightRecorder::new(TRACE_RING),
            epoll_waits: 0,
            epoll_wait_ns: 0,
            wakeups: 0,
            bp_pauses: 0,
            bp_resumes: 0,
        }
    }
}

/// Per-reactor-thread recording handle (not `Send`: lives and dies with
/// its reactor loop).
#[derive(Debug)]
pub struct ReactorTelemHandle {
    enabled: bool,
    clock: TelemClock,
    shared: Arc<Mutex<ReactorTelem>>,
    next_span: Cell<u64>,
    reactor_id: u64,
}

impl ReactorTelemHandle {
    /// Creates the handle for reactor `reactor_id`, recording into
    /// `shared` with timestamps from `clock`.
    pub fn new(
        enabled: bool,
        clock: TelemClock,
        shared: Arc<Mutex<ReactorTelem>>,
        reactor_id: usize,
    ) -> Self {
        Self {
            enabled,
            clock,
            shared,
            next_span: Cell::new(0),
            reactor_id: reactor_id as u64,
        }
    }

    /// A disabled handle whose every operation is a no-op (unit tests).
    pub fn disabled() -> Self {
        Self::new(false, TelemClock::default(), Arc::default(), 0)
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current timestamp, or 0 when disabled (recording sites are gated
    /// on [`ReactorTelemHandle::enabled`], so the 0 is never stored).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.clock.now_ns()
        } else {
            0
        }
    }

    /// Allocates a fresh span id: the reactor id in the top 16 bits, a
    /// per-thread counter below — unique across threads with no atomics.
    #[inline]
    pub fn new_span(&self) -> u64 {
        let n = self.next_span.get();
        self.next_span.set(n.wrapping_add(1));
        (self.reactor_id << 48) | (n & 0x0000_ffff_ffff_ffff)
    }

    /// Runs `f` against the shared state if enabled and uncontended.
    ///
    /// Uses `try_lock`: a site that races a scraper drops that one
    /// observation instead of blocking the reactor.
    #[inline]
    pub fn with<F: FnOnce(&mut ReactorTelem)>(&self, f: F) {
        if !self.enabled {
            return;
        }
        if let Ok(mut t) = self.shared.try_lock() {
            f(&mut t);
        }
    }
}

/// Per-shard-worker telemetry: stage histograms owned outright by the
/// worker thread (scraped through the `Scrape` mailbox message), plus
/// the flight recorder and mailbox gauge shared with the control path.
#[derive(Debug)]
pub struct ShardTelem {
    /// Master switch; when off the worker does no timing at all.
    pub enabled: bool,
    /// Shared-epoch clock.
    pub clock: TelemClock,
    /// Recent spans recorded by this worker (`/debug/trace` snapshots
    /// it non-destructively).
    pub recorder: Arc<Mutex<FlightRecorder>>,
    /// Node-wide lifecycle event ring, shared across shards
    /// (`/debug/events` snapshots it). Events are pushed via `try_lock`
    /// with workload timestamps — no clock reads, no blocking.
    pub events: Arc<Mutex<EventRing>>,
    /// Mailbox depth gauge (this worker observes drain waves).
    pub gauge: Arc<QueueGauge>,
    /// Mailbox wait (batch dispatch → dequeue), per protocol.
    pub queue: ProtoHists,
    /// Policy decision latency, per protocol.
    pub decide: ProtoHists,
}

impl Default for ShardTelem {
    fn default() -> Self {
        Self {
            enabled: true,
            clock: TelemClock::default(),
            recorder: Arc::new(Mutex::new(FlightRecorder::new(TRACE_RING))),
            events: Arc::new(Mutex::new(EventRing::new(EVENT_RING))),
            gauge: Arc::default(),
            queue: ProtoHists::default(),
            decide: ProtoHists::default(),
        }
    }
}

impl ShardTelem {
    /// Current timestamp, or 0 when disabled (never stored in that
    /// case — every recording site is gated on `enabled`).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.clock.now_ns()
        } else {
            0
        }
    }
}

/// Merges labelled flight-recorder snapshots into one globally ordered
/// trace, keeping the most recent `last` events.
///
/// Events sort by `(start_ns, span)`, so with a shared epoch (the
/// production [`WallClock`] base or a test [`ManualClock`]) the result
/// reads as one timeline across reactors and shards.
pub fn merge_spans(sources: &[(String, &FlightRecorder)], last: usize) -> Vec<TraceSpan> {
    let mut all: Vec<TraceSpan> = sources
        .iter()
        .flat_map(|(label, rec)| {
            rec.events().map(move |&event| TraceSpan {
                event,
                source: label.clone(),
            })
        })
        .collect();
    all.sort_by_key(|s| (s.event.start_ns, s.event.span, s.event.stage));
    if all.len() > last {
        all.drain(..all.len() - last);
    }
    all
}

/// Shared telemetry state hung off the server context: one slot per
/// reactor thread and per shard worker, created at start and never
/// resized.
#[derive(Debug)]
pub(crate) struct TelemCtx {
    /// Master switch (from `ServeConfig::telemetry`).
    pub enabled: bool,
    /// Shared-epoch clock every thread stamps spans with.
    pub clock: TelemClock,
    /// Per-reactor shared state (locked briefly by scrapers).
    pub reactors: Vec<Arc<Mutex<ReactorTelem>>>,
    /// Per-reactor inbox gauges (each loop observes its drain waves).
    pub reactor_gauges: Vec<Arc<QueueGauge>>,
    /// Per-shard flight recorders (workers push, scrapers snapshot).
    pub shard_recorders: Vec<Arc<Mutex<FlightRecorder>>>,
    /// Per-shard mailbox gauges (each worker observes its drain waves).
    pub shard_gauges: Vec<Arc<QueueGauge>>,
    /// Node-wide lifecycle event ring, shared by every shard worker
    /// (`/debug/events`).
    pub events: Arc<Mutex<EventRing>>,
}

impl Default for TelemCtx {
    fn default() -> Self {
        Self {
            enabled: false,
            clock: TelemClock::default(),
            reactors: Vec::new(),
            reactor_gauges: Vec::new(),
            shard_recorders: Vec::new(),
            shard_gauges: Vec::new(),
            events: Arc::new(Mutex::new(EventRing::new(EVENT_RING))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_telemetry::{SpanEvent, Stage};

    #[test]
    fn queue_gauge_tracks_depth_and_peak() {
        let g = QueueGauge::default();
        g.observe(3);
        assert_eq!(g.read(), (3, 3));
        g.observe(1);
        assert_eq!(g.read(), (1, 3));
        g.observe(7);
        g.observe(2);
        assert_eq!(g.read(), (2, 7));
    }

    #[test]
    fn span_ids_are_unique_per_reactor() {
        let a = ReactorTelemHandle::new(true, TelemClock::default(), Arc::default(), 0);
        let b = ReactorTelemHandle::new(true, TelemClock::default(), Arc::default(), 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.new_span()));
            assert!(seen.insert(b.new_span()));
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let shared: Arc<Mutex<ReactorTelem>> = Arc::default();
        let h = ReactorTelemHandle::new(false, TelemClock::default(), shared.clone(), 0);
        assert_eq!(h.now(), 0);
        h.with(|t| t.wakeups += 1);
        assert_eq!(shared.lock().unwrap().wakeups, 0);
    }

    #[test]
    fn merge_spans_orders_across_sources_and_truncates() {
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        for i in 0..4u64 {
            a.push(SpanEvent {
                span: i,
                stage: Stage::Read,
                start_ns: i * 10,
                end_ns: i * 10 + 1,
            });
            b.push(SpanEvent {
                span: 100 + i,
                stage: Stage::Decide,
                start_ns: i * 10 + 5,
                end_ns: i * 10 + 6,
            });
        }
        let merged = merge_spans(&[("r0".to_owned(), &a), ("s0".to_owned(), &b)], usize::MAX);
        let starts: Vec<u64> = merged.iter().map(|s| s.event.start_ns).collect();
        assert_eq!(starts, vec![0, 5, 10, 15, 20, 25, 30, 35]);
        // Keeping the last 3 drops the oldest events.
        let tail = merge_spans(&[("r0".to_owned(), &a), ("s0".to_owned(), &b)], 3);
        let starts: Vec<u64> = tail.iter().map(|s| s.event.start_ns).collect();
        assert_eq!(starts, vec![25, 30, 35]);
    }
}
