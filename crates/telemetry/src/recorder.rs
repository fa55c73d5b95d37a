//! The flight recorder: a fixed-size ring of span events.
//!
//! Every request is tagged with a span id at parse time and each
//! pipeline stage it crosses pushes one [`SpanEvent`] into the recorder
//! of the thread doing the work. The ring is bounded and overwrites
//! oldest-first, so steady-state recording never allocates; a whole
//! event slot is replaced at once, so a snapshot never contains a torn
//! span. `/debug/trace` takes a *non-destructive* snapshot of the
//! per-thread recorders, merges, and reports the most recent K events —
//! concurrent scrapers see the same spans.

/// Trace ids sampled at the fleet edge carry this top bit so they can
/// never collide with node-local span ids (`reactor_id << 48 | counter`
/// with small reactor counts). A node that receives a propagated trace
/// id uses it *as* the span id for the request's stages, which is what
/// lets the router's `/debug/trace` pick node spans out by id.
pub const TRACE_MARK: u64 = 1 << 63;

/// Whether a span id is a propagated fleet trace id (see [`TRACE_MARK`]).
pub fn is_trace_span(span: u64) -> bool {
    span & TRACE_MARK != 0
}

/// The pipeline stages a request crosses, in order.
///
/// The first six are the node's pipeline; the last six are the router's
/// hop stages ([`ROUTER_STAGES`]), recorded in the router-side flight
/// recorder for sampled (traced) requests only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Socket readable → request bytes buffered.
    Read,
    /// Bytes buffered → request parsed and routed.
    Decode,
    /// Dispatched to a shard mailbox → dequeued by the shard.
    Queue,
    /// The keep-alive policy decision itself.
    Decide,
    /// Reply slot completed → response bytes serialized.
    Render,
    /// Response bytes → written to the socket.
    Write,
    /// Router: request bytes arrived → parsed / admitted.
    Ingress,
    /// Router: tenant/app resolved against the ring → node(s) chosen.
    Route,
    /// Router: subrequest(s) serialized and written upstream.
    Forward,
    /// Router: waiting on upstream node replies.
    Await,
    /// Router: node replies merged into one client response.
    Reassemble,
    /// Router: merged response flushed to the client socket.
    Egress,
}

/// The node pipeline stages, in pipeline order.
pub const STAGES: [Stage; 6] = [
    Stage::Read,
    Stage::Decode,
    Stage::Queue,
    Stage::Decide,
    Stage::Render,
    Stage::Write,
];

/// The router hop stages, in hop order.
pub const ROUTER_STAGES: [Stage; 6] = [
    Stage::Ingress,
    Stage::Route,
    Stage::Forward,
    Stage::Await,
    Stage::Reassemble,
    Stage::Egress,
];

impl Stage {
    /// Lowercase stable name (used as the Prometheus `stage` label and
    /// in `/debug/trace` output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Decode => "decode",
            Stage::Queue => "queue",
            Stage::Decide => "decide",
            Stage::Render => "render",
            Stage::Write => "write",
            Stage::Ingress => "ingress",
            Stage::Route => "route",
            Stage::Forward => "forward",
            Stage::Await => "await",
            Stage::Reassemble => "reassemble",
            Stage::Egress => "egress",
        }
    }

    /// The stage called `name` (the inverse of [`Stage::name`]).
    pub fn from_name(name: &str) -> Option<Stage> {
        STAGES
            .iter()
            .chain(&ROUTER_STAGES)
            .copied()
            .find(|s| s.name() == name)
    }
}

/// One timed stage crossing of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Request span id (assigned once at parse, carried across threads).
    pub span: u64,
    /// Which stage this event times.
    pub stage: Stage,
    /// Stage start, nanoseconds since server start.
    pub start_ns: u64,
    /// Stage end, nanoseconds since server start.
    pub end_ns: u64,
}

/// Fixed-capacity ring buffer of [`SpanEvent`]s, overwriting oldest.
///
/// Single-writer: the thread that owns the pipeline stage pushes; a
/// scraper takes a snapshot via [`FlightRecorder::events`]. Each push
/// replaces a whole slot, so snapshots never observe a torn span.
///
/// # Examples
///
/// ```
/// use sitw_telemetry::{FlightRecorder, SpanEvent, Stage};
///
/// let mut rec = FlightRecorder::new(2);
/// for span in 0..3 {
///     rec.push(SpanEvent { span, stage: Stage::Read, start_ns: span, end_ns: span + 1 });
/// }
/// let events: Vec<u64> = rec.events().map(|e| e.span).collect();
/// assert_eq!(events, vec![1, 2]); // span 0 was overwritten
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<SpanEvent>,
    capacity: usize,
    /// Next slot to write (wraps); also the oldest slot once full.
    head: usize,
    full: bool,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        Self {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            full: false,
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

    /// Maximum number of events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event, overwriting the oldest when full. O(1), never
    /// allocates once the ring has filled.
    #[inline]
    pub fn push(&mut self, ev: SpanEvent) {
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
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SpanEvent> {
        let split = if self.full { self.head } else { 0 };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// Drops all held events (capacity is retained).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.full = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: u64, start_ns: u64) -> SpanEvent {
        SpanEvent {
            span,
            stage: Stage::Decide,
            start_ns,
            end_ns: start_ns + 10,
        }
    }

    #[test]
    fn fills_then_wraps_overwriting_oldest() {
        let mut rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
        for i in 0..4 {
            rec.push(ev(i, i));
        }
        assert_eq!(rec.len(), 4);
        // Two more pushes must evict spans 0 and 1, keeping 2..=5 in
        // insertion order.
        rec.push(ev(4, 4));
        rec.push(ev(5, 5));
        assert_eq!(rec.len(), 4);
        let spans: Vec<u64> = rec.events().map(|e| e.span).collect();
        assert_eq!(spans, vec![2, 3, 4, 5]);
    }

    #[test]
    fn wraparound_never_tears_a_span() {
        // Push events whose fields are all derived from the span id;
        // after heavy wrapping every surviving event must still be
        // internally consistent (no slot mixing two spans).
        let mut rec = FlightRecorder::new(7);
        for i in 0..1000u64 {
            rec.push(SpanEvent {
                span: i,
                stage: STAGES[(i % 6) as usize],
                start_ns: i * 100,
                end_ns: i * 100 + i,
            });
        }
        assert_eq!(rec.len(), 7);
        let spans: Vec<u64> = rec.events().map(|e| e.span).collect();
        assert_eq!(spans, (993..1000).collect::<Vec<_>>());
        for e in rec.events() {
            assert_eq!(e.start_ns, e.span * 100, "torn span {e:?}");
            assert_eq!(e.end_ns, e.span * 100 + e.span, "torn span {e:?}");
            assert_eq!(e.stage, STAGES[(e.span % 6) as usize], "torn span {e:?}");
        }
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.push(ev(i, i));
        }
        rec.clear();
        assert!(rec.is_empty());
        rec.push(ev(9, 9));
        assert_eq!(rec.events().map(|e| e.span).collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["read", "decode", "queue", "decide", "render", "write"]
        );
        let names: Vec<&str> = ROUTER_STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "ingress",
                "route",
                "forward",
                "await",
                "reassemble",
                "egress"
            ]
        );
    }

    #[test]
    fn trace_mark_disjoint_from_node_span_ids() {
        // Node span ids are reactor_id << 48 | counter; the trace mark
        // must be outside any realistic reactor id's reach.
        let node_span = (255u64 << 48) | 0x0000_ffff_ffff_ffff;
        assert!(!is_trace_span(node_span));
        assert!(is_trace_span(TRACE_MARK | 42));
    }
}
