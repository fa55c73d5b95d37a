//! Bounded lifecycle event ring: the "why" channel next to the flight
//! recorder's "where".
//!
//! Latency spans say where time went; lifecycle events say what the
//! policy *did* — an app cold-started, a budget eviction fired, the
//! ring epoch moved.
//! The ring is small, overwrites oldest-first, and is scraped
//! non-destructively by `/debug/events` on both node and router.
//!
//! Control-plane events are rare, but the node's are not: a cold start
//! is a tenth to a quarter of all decisions on the benchmark workloads,
//! and under a biting budget evictions come as often. Events are
//! therefore *written into* the ring ([`EventRing::record`]): the slot
//! about to be overwritten is handed back with its three strings
//! emptied and their buffers kept, so once the ring has wrapped a
//! recorded event allocates nothing. Recording sites reach a shared
//! ring through [`crate::Gate::event`].
//!
//! Timestamps are *domain* time: nodes stamp events with the workload
//! (trace) timestamp of the invocation that caused them — zero extra
//! clock reads on the hot path, and deterministic under replay — while
//! the router stamps wall milliseconds since router start (its events
//! are control-plane, not workload-driven).

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, TryLockError};

use crate::{json_escape, lock_unpoisoned};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An invocation found its app unloaded and paid a cold start.
    ColdStart,
    /// The tenant ledger evicted an app to fit its memory budget.
    Eviction,
    /// The cluster ring epoch advanced (node drop or standby swap).
    RingEpoch,
    /// Health probes declared a node unreachable (router).
    NodeDown,
    /// A failover was executed: a standby replaced a dead node in the
    /// ring (router).
    Failover,
    /// A warm standby was promoted to a serving primary (node).
    Promotion,
    /// A replication full sync was streamed to a follower (primary
    /// side); steady-state delta rounds are too frequent to ring.
    ReplSync,
}

impl EventKind {
    /// Lowercase stable name (used in `/debug/events` output).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ColdStart => "cold-start",
            EventKind::Eviction => "eviction",
            EventKind::RingEpoch => "ring-epoch",
            EventKind::NodeDown => "node-down",
            EventKind::Failover => "failover",
            EventKind::Promotion => "promotion",
            EventKind::ReplSync => "repl-sync",
        }
    }
}

/// One lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Domain timestamp in milliseconds (see the module docs).
    pub ts_ms: u64,
    /// What happened.
    pub kind: EventKind,
    /// Tenant name (empty when not tenant-scoped).
    pub tenant: String,
    /// App name (empty when not app-scoped).
    pub app: String,
    /// Free-form context, e.g. `"footprint_mb=128"` or `"epoch=3"`.
    pub detail: String,
}

/// Fixed-capacity ring of [`LifecycleEvent`]s, overwriting oldest.
///
/// Single-writer per push site (pushes go through a mutex owned by the
/// recording thread's context); scrapers snapshot via
/// [`EventRing::events`] without consuming.
///
/// # Examples
///
/// ```
/// use sitw_telemetry::{EventKind, EventRing, LifecycleEvent};
///
/// let mut ring = EventRing::new(2);
/// for i in 0..3u64 {
///     ring.push(LifecycleEvent {
///         ts_ms: i,
///         kind: EventKind::ColdStart,
///         tenant: String::new(),
///         app: format!("app-{i}"),
///         detail: String::new(),
///     });
/// }
/// let kept: Vec<u64> = ring.events().map(|e| e.ts_ms).collect();
/// assert_eq!(kept, vec![1, 2]); // event 0 was overwritten
/// ```
#[derive(Debug, Clone)]
pub struct EventRing {
    ring: Vec<LifecycleEvent>,
    capacity: usize,
    head: usize,
    full: bool,
    /// Total events ever pushed (including overwritten ones), so a
    /// scraper can tell how much history the ring dropped.
    pushed: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        Self {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            full: false,
            pushed: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        if self.full {
            self.capacity
        } else {
            self.head
        }
    }

    /// Whether no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed (≥ [`EventRing::len`]).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Records one event, overwriting the oldest when full.
    pub fn push(&mut self, ev: LifecycleEvent) {
        *self.next_slot() = ev;
    }

    /// Records one event in place: returns the slot the event occupies
    /// — the oldest event's, once the ring is full — stamped with
    /// `ts_ms` and `kind`, its strings emptied with their buffers kept
    /// for the caller to write into.
    // sitw-lint: hot-path
    pub fn record(&mut self, ts_ms: u64, kind: EventKind) -> &mut LifecycleEvent {
        let slot = self.next_slot();
        slot.ts_ms = ts_ms;
        slot.kind = kind;
        slot.tenant.clear();
        slot.app.clear();
        slot.detail.clear();
        slot
    }

    /// Advances the ring by one event and returns its slot, which still
    /// holds whatever was there (an empty event until the ring wraps).
    // sitw-lint: hot-path
    fn next_slot(&mut self) -> &mut LifecycleEvent {
        if self.ring.len() < self.capacity {
            // Within the capacity reserved by `new`; empty strings own
            // no buffer.
            self.ring.push(LifecycleEvent {
                ts_ms: 0,
                kind: EventKind::ColdStart,
                tenant: String::new(),
                app: String::new(),
                detail: String::new(),
            });
        }
        let at = self.head;
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
            self.full = true;
        }
        self.pushed += 1;
        &mut self.ring[at]
    }

    /// The held events, oldest first (non-destructive).
    pub fn events(&self) -> impl Iterator<Item = &LifecycleEvent> {
        let split = if self.full { self.head } else { 0 };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// The one way a recording thread reaches a shared ring
    /// ([`crate::Gate::event`]): `try_lock`, so an event that races a
    /// `/debug/events` scrape is dropped instead of blocking the
    /// decision path.
    pub(crate) fn try_lock(ring: &Mutex<EventRing>) -> Option<MutexGuard<'_, EventRing>> {
        match ring.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The `/debug/events` body, identical on node, follower and router:
    /// `{"pushed":N,"events":[{"ts_ms":…,"kind":"…","tenant":"…",
    /// "app":"…","detail":"…"},…]}`, oldest first. Snapshots under the
    /// lock and renders outside it.
    pub fn snapshot_json(ring: &Mutex<EventRing>) -> String {
        let snapshot = lock_unpoisoned(ring).clone();
        let mut body = String::with_capacity(64 + snapshot.len() * 96);
        let _ = write!(body, "{{\"pushed\":{},\"events\":[", snapshot.pushed);
        for (i, ev) in snapshot.events().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(
                body,
                "{{\"ts_ms\":{},\"kind\":\"{}\",\"tenant\":\"{}\",\"app\":\"{}\",\
                 \"detail\":\"{}\"}}",
                ev.ts_ms,
                ev.kind.name(),
                json_escape(&ev.tenant),
                json_escape(&ev.app),
                json_escape(&ev.detail),
            );
        }
        body.push_str("]}");
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ms: u64) -> LifecycleEvent {
        LifecycleEvent {
            ts_ms,
            kind: EventKind::Eviction,
            tenant: "t0".into(),
            app: format!("app-{ts_ms}"),
            detail: String::new(),
        }
    }

    #[test]
    fn wraps_oldest_first_and_counts_pushes() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        let ts: Vec<u64> = ring.events().map(|e| e.ts_ms).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn record_reuses_the_overwritten_slot_and_reads_like_push() {
        let mut pushed = EventRing::new(2);
        let mut recorded = EventRing::new(2);
        for i in 0..5u64 {
            let app = format!("app-{i}");
            // Every other event has no detail: a kept buffer must not
            // leak the previous occupant's text.
            let detail = if i % 2 == 0 { "budget 64 MB" } else { "" };
            pushed.push(LifecycleEvent {
                ts_ms: i,
                kind: EventKind::Eviction,
                tenant: "t0".into(),
                app: app.clone(),
                detail: detail.into(),
            });
            let slot = recorded.record(i, EventKind::Eviction);
            assert!(slot.tenant.is_empty() && slot.app.is_empty() && slot.detail.is_empty());
            if i >= 2 {
                assert!(
                    slot.app.capacity() >= app.len(),
                    "buffer kept across the wrap"
                );
            }
            slot.tenant.push_str("t0");
            slot.app.push_str(&app);
            slot.detail.push_str(detail);
        }
        assert_eq!(recorded.pushed(), 5);
        assert!(recorded.events().eq(pushed.events()));
        let (pushed, recorded) = (Mutex::new(pushed), Mutex::new(recorded));
        assert_eq!(
            EventRing::snapshot_json(&recorded),
            EventRing::snapshot_json(&pushed)
        );
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let mut ring = EventRing::new(4);
        ring.push(ev(1));
        ring.push(ev(2));
        let first: Vec<u64> = ring.events().map(|e| e.ts_ms).collect();
        let second: Vec<u64> = ring.events().map(|e| e.ts_ms).collect();
        assert_eq!(first, second);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn kind_names_are_stable() {
        let all = [
            EventKind::ColdStart,
            EventKind::Eviction,
            EventKind::RingEpoch,
            EventKind::NodeDown,
            EventKind::Failover,
            EventKind::Promotion,
            EventKind::ReplSync,
        ];
        let names: Vec<&str> = all.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "cold-start",
                "eviction",
                "ring-epoch",
                "node-down",
                "failover",
                "promotion",
                "repl-sync"
            ]
        );
    }
}
