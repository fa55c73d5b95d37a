//! Bounded lifecycle event ring: the "why" channel next to the flight
//! recorder's "where".
//!
//! Latency spans say where time went; lifecycle events say what the
//! policy *did* — an app cold-started, a budget eviction fired, the
//! router throttled a tenant, a tenant migrated, the ring epoch moved.
//! Events are rare relative to decisions (thousands of invocations per
//! eviction), so the ring is small, overwrites oldest-first, and is
//! scraped non-destructively by `/debug/events` on both node and
//! router.
//!
//! Timestamps are *domain* time: nodes stamp events with the workload
//! (trace) timestamp of the invocation that caused them — zero extra
//! clock reads on the hot path, and deterministic under replay — while
//! the router stamps wall milliseconds since router start (its events
//! are control-plane, not workload-driven).

use std::fmt::Write as _;
use std::sync::{Mutex, TryLockError};

use crate::{json_escape, lock_unpoisoned};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An invocation found its app unloaded and paid a cold start.
    ColdStart,
    /// The tenant ledger evicted an app to fit its memory budget.
    Eviction,
    /// Admission control rejected an invocation (router QoS).
    Throttle,
    /// A tenant moved between nodes (router) or was taken/restored
    /// (node side of the same move).
    Migration,
    /// The cluster ring epoch advanced (node drop or migration).
    RingEpoch,
    /// Health probes declared a node unreachable (router).
    NodeDown,
    /// A failover was executed: a standby replaced a dead node in the
    /// ring (router).
    Failover,
    /// A warm standby promoted itself to a serving primary (node).
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
            EventKind::Throttle => "throttle",
            EventKind::Migration => "migration",
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
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
        }
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
            self.full = true;
        }
        self.pushed += 1;
    }

    /// The held events, oldest first (non-destructive).
    pub fn events(&self) -> impl Iterator<Item = &LifecycleEvent> {
        let split = if self.full { self.head } else { 0 };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// The one way a recording thread pushes into a shared ring:
    /// `try_lock`, so a push that races a `/debug/events` scrape is
    /// dropped instead of blocking the decision path, and the event is
    /// only built (it owns three strings) once the lock is held.
    pub fn try_push(ring: &Mutex<EventRing>, event: impl FnOnce() -> LifecycleEvent) {
        let mut ring = match ring.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        ring.push(event());
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
            EventKind::Throttle,
            EventKind::Migration,
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
                "throttle",
                "migration",
                "ring-epoch",
                "node-down",
                "failover",
                "promotion",
                "repl-sync"
            ]
        );
    }
}
