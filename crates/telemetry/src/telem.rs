//! The recording side: the gate every recording site passes through,
//! the handle a reactor thread records with, and the merge of the
//! threads' flight recorders into one timeline.
//!
//! Node reactors, node shards and the router record the same way. A
//! site reads the clock only while recording is on, and reaches state
//! it shares with a scraper only through `try_lock`: a site that races
//! a `/metrics` or `/debug/*` scrape drops that one sample instead of
//! blocking. Scrapers take brief blocking locks, and no recording guard
//! is held across a blocking wait — control requests (the scrape
//! itself among them) run on reactor threads, so a guard held across
//! `epoll_wait` would stall a scraper for a whole tick. [`Gate`] writes
//! these rules once; a handle says only whether it records and which
//! clock it reads.

use std::cell::Cell;
use std::sync::{Arc, Mutex};

use crate::{Clock, EventKind, EventRing, FlightRecorder, LifecycleEvent, TraceSpan, WallClock};

/// Capacity of a process's lifecycle event ring (`/debug/events`), on
/// node and router alike: one shared ring that keeps the most recent
/// events, and a site that finds it locked drops its event rather than
/// wait.
pub const EVENT_RING: usize = 256;

/// A recording handle: a switch and a clock. The provided methods are
/// the only place a recording site reads the clock or reaches state it
/// shares with a scraper.
pub trait Gate {
    /// Whether timings and spans are recorded.
    fn enabled(&self) -> bool;

    /// The shared-epoch clock every stamp is read from.
    fn clock(&self) -> &WallClock;

    /// Whether lifecycle events are recorded: whenever timings are,
    /// unless the handle says otherwise (the router keeps its
    /// control-plane events with span sampling off).
    fn events_enabled(&self) -> bool {
        self.enabled()
    }

    /// Nanoseconds since the clock's epoch, or 0 with recording off:
    /// a disabled hot path never reads the clock, and every site that
    /// stores a stamp is gated too, so the 0 is never kept.
    #[inline]
    fn now(&self) -> u64 {
        if self.enabled() {
            self.clock().now_ns()
        } else {
            0
        }
    }

    /// Runs `f` against `shared` if recording is on and no scraper
    /// holds it; otherwise the observation is dropped.
    #[inline]
    fn try_with<T>(&self, shared: &Mutex<T>, f: impl FnOnce(&mut T)) {
        if !self.enabled() {
            return;
        }
        if let Ok(mut guard) = shared.try_lock() {
            f(&mut guard);
        }
    }

    /// Records one lifecycle event on `ring` if events are recorded
    /// and no scrape holds the ring: the slot is stamped with `ts_ms`
    /// and `kind`, and `fill` writes its tenant, app and detail into the
    /// slot's kept buffers ([`EventRing::record`]), so nothing is
    /// formatted for a dropped event and a wrapped ring records without
    /// allocating.
    // sitw-lint: hot-path
    #[inline]
    fn event(
        &self,
        ring: &Mutex<EventRing>,
        ts_ms: u64,
        kind: EventKind,
        fill: impl FnOnce(&mut LifecycleEvent),
    ) {
        if !self.events_enabled() {
            return;
        }
        if let Some(mut ring) = EventRing::try_lock(ring) {
            fill(ring.record(ts_ms, kind));
        }
    }
}

/// One recording thread's handle on the state `T` it shares with
/// scrapers, with the thread's span-id counter. Not `Sync`: it lives
/// and dies with its thread's loop.
#[derive(Debug)]
pub struct Handle<T> {
    enabled: bool,
    clock: WallClock,
    shared: Arc<Mutex<T>>,
    next_span: Cell<u64>,
    thread_id: u64,
}

impl<T> Handle<T> {
    /// The handle of thread `thread_id`, recording into `shared` with
    /// stamps from `clock`.
    pub fn new(enabled: bool, clock: WallClock, shared: Arc<Mutex<T>>, thread_id: usize) -> Self {
        Self {
            enabled,
            clock,
            shared,
            next_span: Cell::new(0),
            thread_id: thread_id as u64,
        }
    }

    /// A handle whose every operation is a no-op.
    pub fn disabled() -> Self
    where
        T: Default,
    {
        Self::new(false, WallClock::default(), Arc::default(), 0)
    }

    /// Allocates a fresh span id: the thread id in the top 16 bits, a
    /// per-thread counter below — unique across threads with no
    /// atomics, and clear of [`crate::TRACE_MARK`].
    #[inline]
    pub fn new_span(&self) -> u64 {
        let n = self.next_span.get();
        self.next_span.set(n.wrapping_add(1));
        (self.thread_id << 48) | (n & 0x0000_ffff_ffff_ffff)
    }

    /// [`Gate::try_with`] on the thread's shared state.
    #[inline]
    pub fn with(&self, f: impl FnOnce(&mut T)) {
        self.try_with(&self.shared, f);
    }
}

impl<T> Gate for Handle<T> {
    #[inline]
    fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn clock(&self) -> &WallClock {
        &self.clock
    }
}

/// Merges labelled flight-recorder snapshots into one globally ordered
/// trace, keeping the most recent `last` events.
///
/// Events sort by `(start_ns, span, stage)`, so with a shared epoch
/// (the production [`WallClock`] base or a test
/// [`crate::ManualClock`]) the result reads as one timeline across
/// threads.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanEvent, Stage, TRACE_MARK};

    /// A gate whose spans and events switch apart, like the router's.
    struct Split {
        spans: bool,
        clock: WallClock,
    }

    impl Gate for Split {
        fn enabled(&self) -> bool {
            self.spans
        }
        fn clock(&self) -> &WallClock {
            &self.clock
        }
        fn events_enabled(&self) -> bool {
            true
        }
    }

    #[test]
    fn span_ids_are_unique_per_reactor() {
        let a = Handle::<u64>::new(true, WallClock::default(), Arc::default(), 0);
        let b = Handle::<u64>::new(true, WallClock::default(), Arc::default(), 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.new_span()));
            assert!(seen.insert(b.new_span()));
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let shared: Arc<Mutex<u64>> = Arc::default();
        let h = Handle::new(false, WallClock::default(), shared.clone(), 0);
        assert_eq!(h.now(), 0);
        h.with(|t| *t += 1);
        let ring = Mutex::new(EventRing::new(EVENT_RING));
        h.event(&ring, 2, EventKind::ColdStart, |ev| ev.app.push_str("app"));
        assert_eq!(*shared.lock().unwrap(), 0);
        assert!(ring.lock().unwrap().is_empty());
    }

    #[test]
    fn events_record_regardless_of_sampling() {
        let gate = Split {
            spans: false,
            clock: WallClock::default(),
        };
        let ring = Mutex::new(EventRing::new(EVENT_RING));
        gate.event(&ring, 0, EventKind::Eviction, |ev| ev.tenant.push_str("t0"));
        assert_eq!(gate.now(), 0);
        let ring = ring.lock().unwrap();
        let evs: Vec<_> = ring.events().collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::Eviction);
        assert_eq!(evs[0].tenant, "t0");
    }

    #[test]
    fn record_captures_hop_spans_when_enabled() {
        let gate = Split {
            spans: true,
            clock: WallClock::default(),
        };
        let rec = Mutex::new(FlightRecorder::new(8));
        let id = TRACE_MARK | 1;
        gate.try_with(&rec, |r| {
            r.push_spans([id], Stage::Ingress, 10, 20);
            r.push_spans([id], Stage::Forward, 20, 30);
        });
        // A contended recorder drops the sample instead of blocking.
        let held = rec.lock().unwrap();
        gate.try_with(&rec, |r| r.push_spans([id], Stage::Egress, 30, 40));
        let spans: Vec<_> = held.events().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Ingress);
        assert_eq!(spans[1].stage, Stage::Forward);
        assert!(spans.iter().all(|s| s.span == id));
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
