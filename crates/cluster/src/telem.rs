//! Router-side telemetry: the hop flight recorder, the lifecycle event
//! ring, and fleet trace sampling.
//!
//! The router records the six hop stages (`ingress` → `route` →
//! `forward` → `await` → `reassemble` → `egress`) for *traced* requests
//! only: either the client propagated an `X-Sitw-Trace` id (or the
//! SITW-BIN trace field), or `--trace-sample N` tagged every Nth
//! arriving request with a router-originated id. The id is stamped onto
//! the forwarded work, the node adopts it as the span id for its own
//! six pipeline stages, and `GET /debug/trace` on the router merges
//! both sides into one end-to-end timeline.
//!
//! Recording follows the node's hot-path discipline: `try_lock` only
//! (a contended scrape drops the sample, never blocks the data path),
//! and with sampling off (`trace_sample == 0`) span recording is a
//! constant branch. Lifecycle events are control-plane (migrations,
//! ring epochs, throttles) and always recorded — they are rare by
//! construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sitw_telemetry::{
    Clock, EventKind, EventRing, FlightRecorder, LifecycleEvent, SpanEvent, Stage, WallClock,
    TRACE_MARK,
};

/// Bit 62 distinguishes router-originated trace ids from client
/// (loadgen) ones; both carry [`TRACE_MARK`] in bit 63.
pub const ROUTER_TRACE_ORIGIN: u64 = 1 << 62;

/// Hop span ring capacity: 6 stages × ~680 traced requests.
pub(crate) const ROUTER_RECORDER_CAP: usize = 4096;

/// Lifecycle event ring capacity (mirrors the node's).
pub(crate) const ROUTER_EVENT_RING: usize = 256;

/// Telemetry context of one router process.
#[derive(Debug)]
pub struct RouterTelem {
    /// Hop span recording on (`--trace-sample` was given).
    pub enabled: bool,
    /// Tag every Nth request with a router-originated id.
    sample: u64,
    /// Requests seen by the sampler (also the id counter).
    seq: AtomicU64,
    /// Wall nanoseconds since router start — the hop span timebase.
    clock: WallClock,
    /// The hop span ring; recording sites only ever `try_lock`.
    pub recorder: Mutex<FlightRecorder>,
    /// Lifecycle events: migrations, ring epochs, throttles.
    pub events: Mutex<EventRing>,
}

impl RouterTelem {
    /// Creates the context; `trace_sample == 0` disables hop recording
    /// and self-sampling (lifecycle events stay on).
    pub fn new(trace_sample: usize) -> Self {
        Self {
            enabled: trace_sample > 0,
            sample: trace_sample as u64,
            seq: AtomicU64::new(0),
            clock: WallClock::default(),
            recorder: Mutex::new(FlightRecorder::new(ROUTER_RECORDER_CAP)),
            events: Mutex::new(EventRing::new(ROUTER_EVENT_RING)),
        }
    }

    /// Wall nanoseconds since router start; 0 when recording is off, so
    /// disabled hot paths never pay the clock read.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.clock.now_ns()
        } else {
            0
        }
    }

    /// The trace id of one arriving request: a client-propagated id is
    /// always adopted (and forwarded); otherwise, when sampling is on,
    /// every Nth request gets a fresh router-originated id.
    #[inline]
    pub fn sample(&self, client: Option<u64>) -> Option<u64> {
        if client.is_some() {
            return client;
        }
        if !self.enabled {
            return None;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.sample)
            .then_some(TRACE_MARK | ROUTER_TRACE_ORIGIN | (n & (ROUTER_TRACE_ORIGIN - 1)))
    }

    /// Records one hop span. `try_lock`: a concurrent scrape drops the
    /// sample rather than stalling the connection thread.
    #[inline]
    pub fn record(&self, span: u64, stage: Stage, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        if let Ok(mut rec) = self.recorder.try_lock() {
            rec.push(SpanEvent {
                span,
                stage,
                start_ns,
                end_ns,
            });
        }
    }

    /// Pushes one lifecycle event stamped with wall milliseconds since
    /// router start (router events are control-plane, not
    /// workload-driven, so there is no domain timestamp to reuse).
    pub fn event(&self, kind: EventKind, tenant: &str, app: &str, detail: String) {
        EventRing::try_push(&self.events, || LifecycleEvent {
            ts_ms: self.clock.now_ns() / 1_000_000,
            kind,
            tenant: tenant.to_owned(),
            app: app.to_owned(),
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_telemetry::is_trace_span;

    #[test]
    fn sampling_tags_every_nth_and_adopts_client_ids() {
        let t = RouterTelem::new(3);
        assert!(t.enabled);
        // Client ids pass through untouched and don't consume the
        // sampling sequence.
        assert_eq!(t.sample(Some(0xAB)), Some(0xAB));
        // Requests 0, 3, 6, ... get router-originated ids.
        let ids: Vec<Option<u64>> = (0..6).map(|_| t.sample(None)).collect();
        assert!(ids[0].is_some() && ids[3].is_some());
        assert!(ids[1].is_none() && ids[2].is_none() && ids[4].is_none() && ids[5].is_none());
        let id = ids[0].unwrap();
        assert!(is_trace_span(id));
        assert_ne!(id & ROUTER_TRACE_ORIGIN, 0);
        assert_ne!(ids[0], ids[3], "sampled ids must be distinct");
    }

    #[test]
    fn disabled_sampler_still_propagates_but_never_originates() {
        let t = RouterTelem::new(0);
        assert!(!t.enabled);
        assert_eq!(t.sample(Some(7)), Some(7));
        for _ in 0..10 {
            assert_eq!(t.sample(None), None);
        }
        assert_eq!(t.now_ns(), 0);
        // record() is a no-op when disabled.
        t.record(TRACE_MARK, Stage::Ingress, 1, 2);
        assert!(t.recorder.lock().unwrap().is_empty());
    }

    #[test]
    fn events_record_regardless_of_sampling() {
        let t = RouterTelem::new(0);
        t.event(EventKind::Migration, "t0", "", "from=0 to=1".into());
        let ring = t.events.lock().unwrap();
        let evs: Vec<_> = ring.events().collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::Migration);
        assert_eq!(evs[0].tenant, "t0");
    }

    #[test]
    fn record_captures_hop_spans_when_enabled() {
        let t = RouterTelem::new(1);
        let id = t.sample(None).unwrap();
        t.record(id, Stage::Ingress, 10, 20);
        t.record(id, Stage::Forward, 20, 30);
        let rec = t.recorder.lock().unwrap();
        let spans: Vec<_> = rec.events().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Ingress);
        assert_eq!(spans[1].stage, Stage::Forward);
        assert!(spans.iter().all(|s| s.span == id));
    }
}
