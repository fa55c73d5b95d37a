//! Per-connection state machine, driven by a reactor thread over a
//! non-blocking socket.
//!
//! One [`Conn`] owns everything a connection needs between readiness
//! events: the incremental parse buffer ([`ConnBuf`]), the output buffer
//! with a partial-write cursor, and the **response pipeline** — a single
//! ordered queue of [`Slot`]s, one per inbound message, that unifies
//! what used to be two mechanisms (the JSON reorder map and the SITW-BIN
//! `FramePipeline`). Every message — binary frame, run of JSON
//! decisions, control request, protocol error — occupies one slot in
//! arrival order; shard replies complete their slot out of band;
//! responses are rendered strictly from the head. Response ordering
//! across protocol switches therefore holds *by construction*, with no
//! blocking drains:
//! the old thread-per-connection code had to settle all in-flight frames
//! before an HTTP response could be written, the pipeline just queues
//! the HTTP response behind them.
//!
//! The unit of JSON work is the **read burst**, not the request:
//! consecutive `POST /invoke` requests parsed out of one
//! [`Conn::on_readable`] pass are parked in the reactor's per-shard
//! scratch and dispatched as one `InvokeBatch` per owning shard when the
//! burst ends — the socket drained, backpressure latched, the peer
//! closed, or any other message (control request, parse error, SITW-BIN
//! frame) arrived. The run takes one slot and renders as one HTTP
//! response per request, in arrival order. There is no timer and no
//! size limit: a lone request is a run of one, dispatched before
//! `on_readable` returns. JSON and SITW-BIN therefore share one
//! dispatch/reply mechanism and pay the mailbox hop, reply send and
//! waker check once per batch.
//!
//! The hot paths allocate nothing in steady state, from the socket to
//! the shard and back. The request scratch, the parsed `/invoke` body
//! and the record buffer are reused across messages, names and all;
//! decisions render through a reusable body scratch straight into the
//! output buffer, which persists across requests (shrunk when a burst
//! inflates it). What crosses to a shard makes a round trip through the
//! reactor's [`BatchPool`]: each record's app id is copied into a spare
//! `String` of a spare `Vec<BatchItem>`, the shard hands both back in
//! its [`BatchReply`] beside a result vector it filled instead of
//! allocating, and a frame's or run's result slots and span ids are
//! spares too. A record therefore costs a copy of its name, not an
//! allocation here and a free on the shard thread; past the hop the
//! shard allocates nothing for an app it has seen before.
//! `tests/alloc_free.rs` counts the shard and `tests/alloc_free_wire.rs`
//! the whole live node.
//!
//! Failure handling mirrors the blocking server exactly, restated for an
//! event loop:
//! * recoverable SITW-BIN errors join the pipeline as typed error
//!   frames;
//! * fatal errors (bad version, oversized payload, HTTP 413) queue
//!   their response, then put the connection in **lame-duck**: the
//!   response is flushed, the write side is shut down (response + FIN,
//!   never an RST racing the response), and reads are discarded until
//!   the peer closes, a byte budget runs out, or a deadline passes;
//! * a half-received message that stops making progress for
//!   [`crate::server::ServeConfig::idle_timeout`] is a slowloris and is
//!   disconnected by the reactor's sweep. Fully idle keep-alive
//!   connections are never timed out — mostly idle fleets are the
//!   workload this server exists for.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::RwLockReadGuard;
use std::time::{Duration, Instant};

use sitw_fleet::TenantRegistry;
use sitw_reactor::Interest;
use sitw_telemetry::{SpanEvent, Stage};

use crate::follow::NOT_PROMOTED;
use crate::http::{write_response, ConnBuf, DrainOutcome, ReadEvent, Request};
use crate::pool::{BatchPool, Spares};
use crate::reactor::ReactorIo;
use crate::server::{handle_control, parse_and_route};
use crate::shard::{BatchItem, BatchReply, BatchSpans, Decision, InvokeError, ShardMsg};
use crate::telem::ReactorTelemHandle;
use crate::wire::{self, push_u64, BinErrorCode, BinInvoke, ControlRequest, InvokeRequest};

/// Stop reading a connection whose un-written output backlog exceeds
/// this (a client that pipelines but never reads must not buffer
/// unbounded responses server-side).
const OUT_BACKPRESSURE_BYTES: usize = 256 * 1024;

/// Defer the socket write while responses are still completing and the
/// backlog is below this. Shard replies arrive a few at a time; writing
/// on every reply wake costs a `write(2)` per decision where the
/// blocking server paid one per pipelined burst. Deferral is safe
/// because a non-empty pipeline always receives its remaining replies —
/// the flush is only postponed, never lost — and a drained pipeline
/// (the client is now waiting on us) always flushes immediately.
const WRITE_COALESCE_BYTES: usize = 32 * 1024;

/// Shrink thresholds for the output buffer after a burst.
const OUT_SHRINK_ABOVE: usize = 256 * 1024;
const OUT_SHRINK_TO: usize = 64 * 1024;

/// Lame-duck discard budget: how many request bytes we absorb after a
/// fatal error so the close delivers the error response + FIN instead of
/// an RST (same rationale as the blocking `drain_for_close`).
const LAME_BUDGET: usize = 2 * crate::http::MAX_BODY_BYTES;

/// Lame-duck linger: how long we wait for the peer to take the FIN.
const LAME_LINGER: Duration = Duration::from_secs(1);

/// Decoded records (and their name buffers) a connection keeps between
/// frames; a longer frame's surplus is freed once it is dispatched.
const RECORDS_KEPT: usize = 1024;

/// What the reactor should do with the connection after a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep serving.
    Keep,
    /// Retire the connection (drop closes the socket).
    Close,
}

/// One response slot: an inbound message awaiting (or holding) its
/// response. Completed in place, rendered strictly in arrival order.
enum Slot {
    /// A dispatched run of JSON `/invoke` requests (one read burst's
    /// worth); completed like a frame, rendered as one HTTP response
    /// per request in arrival order.
    Run {
        remaining: usize,
        /// Per-request telemetry span ids (empty when disabled).
        spans: Vec<u64>,
        results: Vec<Option<Result<Decision, InvokeError>>>,
    },
    /// A dispatched SITW-BIN frame; each shard's [`BatchReply`] fills
    /// its records, `remaining` counts shards still owing one.
    Frame {
        version: u8,
        remaining: usize,
        /// Telemetry span id of the frame (0 when disabled).
        span: u64,
        results: Vec<Option<Result<Decision, InvokeError>>>,
    },
    /// A typed SITW-BIN error frame queued behind earlier messages.
    BinError { code: BinErrorCode, detail: String },
    /// A control request (health, metrics, admin), *executed at flush
    /// time* — exactly when every earlier message has answered — so
    /// admin side effects and scrape visibility keep the blocking
    /// server's settle-then-serve semantics.
    Control(Request),
    /// A SITW-BIN control frame (cluster budget reconciliation), also
    /// executed at flush time for the same settle-then-serve reason: a
    /// usage report answers only after every earlier decision charged
    /// its ledger, and a budget push lands between frames, never inside
    /// one.
    Ctrl(ControlRequest),
    /// A fully rendered HTTP response (invoke parse errors, 413s).
    Http(Vec<u8>),
}

impl Slot {
    fn is_complete(&self) -> bool {
        match self {
            Slot::Run { remaining, .. } | Slot::Frame { remaining, .. } => *remaining == 0,
            Slot::BinError { .. } | Slot::Control(_) | Slot::Ctrl(_) | Slot::Http(_) => true,
        }
    }
}

/// The ordered response pipeline (see the module docs).
struct Pipeline {
    /// In-flight slots, oldest first; `slots[i]` has sequence
    /// `front_seq + i` (sequences are dense, so reply slotting is O(1)).
    slots: VecDeque<Slot>,
    front_seq: u64,
    next_seq: u64,
    /// Decisions in flight: one per JSON request, one per record across
    /// frames — the `pipeline_window` backpressure unit.
    inflight: usize,
}

impl Pipeline {
    fn new() -> Pipeline {
        Pipeline {
            slots: VecDeque::new(),
            front_seq: 0,
            next_seq: 0,
            inflight: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends a slot, returning its sequence number.
    fn push(&mut self, slot: Slot) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(slot);
        seq
    }

    /// Slots a reply's results in, leaving its buffers for the pool.
    // sitw-lint: hot-path
    fn absorb_batch(&mut self, reply: &mut BatchReply) {
        let Some(idx) = reply.frame_seq.checked_sub(self.front_seq) else {
            return;
        };
        if let Some(
            Slot::Frame {
                results, remaining, ..
            }
            | Slot::Run {
                results, remaining, ..
            },
        ) = self.slots.get_mut(idx as usize)
        {
            for (i, result) in reply.results.drain(..) {
                // A record index beyond the batch is a malformed reply;
                // indexing would panic the whole reactor thread for one
                // bad message, so drop the record instead. The slot still
                // completes and any hole renders as a typed error.
                if let Some(r) = results.get_mut(i as usize) {
                    *r = Some(result);
                }
            }
            // Saturate: a duplicate reply must not wrap `remaining` and
            // resurrect a settled frame.
            *remaining = remaining.saturating_sub(1);
        }
    }
}

/// State of one read burst ([`Conn::on_readable`] pass), on its stack —
/// above all the JSON run under construction, whose requests sit in the
/// reactor's per-shard scratch until [`Conn::flush_run`] dispatches them.
struct Burst<'a> {
    /// The read-stage mark: everything between here and a message
    /// parsing out is that message's read time; dispatching advances
    /// the mark so back-to-back pipelined messages don't double-count.
    mark: u64,
    /// Registry guard, taken at a run's first request and released at
    /// its dispatch: one lock per burst instead of one per request, and
    /// never held across a frame's partitioning (which takes its own —
    /// re-entrant reads can deadlock behind a queued writer).
    registry: Option<RwLockReadGuard<'a, TenantRegistry>>,
    /// The node is an unpromoted standby: its invokes are refused. Read
    /// once per burst.
    following: bool,
    /// Requests parked on the open run (the next `BatchItem::idx`).
    parked: u32,
    /// Their span ids in arrival order (stays empty with telemetry off).
    spans: Vec<u64>,
    /// When the open run's first request parsed out.
    t_read_end: u64,
}

/// Lame-duck drain state after a fatal error's response went out.
struct Lame {
    deadline: Instant,
    budget: usize,
}

/// One connection owned by a reactor thread.
pub(crate) struct Conn {
    buf: ConnBuf,
    token: u64,
    /// Pending output and the partial-write cursor into it.
    out: Vec<u8>,
    out_pos: usize,
    /// Reusable parse targets (see [`ConnBuf::read_event_into`]), and
    /// the `/invoke` body parsed out of `req`.
    req: Request,
    records: Vec<BinInvoke>,
    invoke: InvokeRequest,
    pipeline: Pipeline,
    /// Interest currently registered with epoll.
    read_armed: bool,
    write_armed: bool,
    /// The peer half-closed cleanly; settle and retire.
    read_eof: bool,
    /// Stop reading new requests (client `Connection: close`, or server
    /// shutdown); settle and retire.
    close_requested: bool,
    /// A fatal response is queued: once it flushes, half-close and go
    /// lame-duck.
    fatal: bool,
    lame: Option<Lame>,
    /// When the buffered partial message stopped making progress — the
    /// slowloris clock. `None` while no partial message is pending.
    partial_since: Option<Instant>,
    /// Read backpressure latch. Set when in-flight decisions or the
    /// output backlog hit their high-water marks, cleared only at the
    /// low-water marks: without the hysteresis, a client that pins its
    /// pipeline window full would toggle epoll read interest (two
    /// `epoll_ctl` syscalls) around *every* decision.
    paused: bool,
    /// A write hit `WouldBlock` with bytes left: EPOLLOUT is wanted and
    /// writes flush on writability instead of waiting for coalescing.
    write_blocked: bool,
    /// Telemetry spans rendered into `out` but not yet flushed:
    /// `(span, is_bin, decisions)`. Their write-stage spans are recorded
    /// when the buffer fully flushes (partial writes keep them pending);
    /// a frame's write cost is amortized over its `decisions` records so
    /// every stage histogram stays invocation-weighted.
    pending_spans: Vec<(u64, bool, u32)>,
    /// Set while the connection sits on the reactor's touched list.
    pub(crate) dirty: bool,
}

impl Conn {
    /// Adopts an accepted stream: non-blocking, no delay, empty state.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            buf: ConnBuf::new(stream),
            token: 0,
            out: Vec::new(),
            out_pos: 0,
            req: Request::default(),
            records: Vec::new(),
            invoke: InvokeRequest::default(),
            pipeline: Pipeline::new(),
            read_armed: true,
            write_armed: false,
            read_eof: false,
            close_requested: false,
            fatal: false,
            lame: None,
            partial_since: None,
            paused: false,
            write_blocked: false,
            pending_spans: Vec::new(),
            dirty: false,
        })
    }

    /// Records the slab token the reactor filed this connection under.
    pub fn set_token(&mut self, token: u64) {
        self.token = token;
    }

    /// The socket descriptor (for epoll registration).
    pub fn raw_fd(&self) -> RawFd {
        self.buf.stream().as_raw_fd()
    }

    /// Interest the reactor registered at `add` time.
    pub fn initial_interest(&self) -> Interest {
        Interest::READ
    }

    /// Absorbs one shard reply to (a slice of) a frame or JSON run and
    /// keeps its buffers in the reactor's pool.
    pub fn on_batch_reply(&mut self, mut reply: BatchReply, pool: &mut BatchPool) {
        self.pipeline.absorb_batch(&mut reply);
        pool.recycle(reply);
    }

    /// Handles one epoll readiness event.
    pub fn on_event(&mut self, readable: bool, hangup: bool, io: &mut ReactorIo<'_>) -> Flow {
        if hangup && !readable {
            // Error/full hang-up with nothing left to deliver.
            return Flow::Close;
        }
        if readable {
            if let Flow::Close = self.on_readable(io) {
                return Flow::Close;
            }
        }
        self.pump(io)
    }

    /// True once nothing is owed in either direction.
    pub fn settled(&self) -> bool {
        self.pipeline.is_empty() && self.out_pos == self.out.len()
    }

    /// Server shutdown: stop taking new requests; the reactor keeps
    /// pumping until the connection settles (or its grace runs out).
    pub fn begin_shutdown(&mut self) {
        self.close_requested = true;
    }

    /// Periodic check: enforce the slowloris idle timeout and the
    /// lame-duck linger.
    pub fn sweep(&mut self, now: Instant, idle_timeout: Duration) -> Flow {
        if let Some(lame) = &self.lame {
            if now >= lame.deadline {
                return Flow::Close;
            }
        }
        if let Some(since) = self.partial_since {
            if now.duration_since(since) >= idle_timeout {
                return Flow::Close;
            }
        }
        Flow::Keep
    }

    /// The readiness the connection wants right now (`paused` is the
    /// backpressure latch maintained by [`Conn::read_paused`]).
    pub fn desired_interest(&self) -> Interest {
        let readable = if self.lame.is_some() {
            true // Keep absorbing until EOF/budget/deadline.
        } else {
            !self.read_eof && !self.close_requested && !self.fatal && !self.paused
        };
        Interest {
            readable,
            // Write readiness only helps a *blocked* write; a deferred
            // (coalescing) write must not arm EPOLLOUT, or the instantly
            // writable socket would defeat the deferral.
            writable: self.write_blocked,
        }
    }

    /// Syncs `desired` against what epoll last heard; returns the new
    /// interest when a `modify` is needed.
    pub fn interest_change(&mut self) -> Option<Interest> {
        let desired = self.desired_interest();
        if desired.readable == self.read_armed && desired.writable == self.write_armed {
            return None;
        }
        self.read_armed = desired.readable;
        self.write_armed = desired.writable;
        Some(desired)
    }

    /// Updates the backpressure latch and reports it. Pauses at the
    /// high-water marks, resumes at half of them. Transitions count on
    /// the owning reactor's telemetry (`/debug/threads`).
    fn read_paused(&mut self, io: &ReactorIo<'_>) -> bool {
        let inflight = self.pipeline.inflight;
        let backlog = self.out.len() - self.out_pos;
        if self.paused {
            if inflight <= io.ctx.cfg.pipeline_window / 2 && backlog < OUT_BACKPRESSURE_BYTES / 2 {
                self.paused = false;
                io.telem.with(|t| t.bp_resumes += 1);
            }
        } else if inflight >= io.ctx.cfg.pipeline_window || backlog >= OUT_BACKPRESSURE_BYTES {
            self.paused = true;
            io.telem.with(|t| t.bp_pauses += 1);
        }
        self.paused
    }

    /// Parses and dispatches everything the socket has for us: one read
    /// burst. Whatever JSON run the burst parked is dispatched on
    /// **every** way out — drained socket, backpressure, EOF, a fatal
    /// error, even `Flow::Close` (those invocations happened; their
    /// replies die on the slab generation check) — so the reactor-wide
    /// scratch is empty again when this returns.
    // sitw-lint: hot-path
    fn on_readable(&mut self, io: &mut ReactorIo<'_>) -> Flow {
        if self.lame.is_some() {
            return self.drain_lame();
        }
        if self.read_eof || self.close_requested || self.fatal {
            return Flow::Keep;
        }
        let mut burst = Burst {
            mark: io.telem.now(),
            registry: None,
            following: io.ctx.following(),
            parked: 0,
            spans: io.pool.spans.take(),
            t_read_end: 0,
        };
        let flow = self.read_burst(io, &mut burst);
        let flow = match self.flush_run(io, &mut burst) {
            Flow::Close => Flow::Close,
            Flow::Keep => flow,
        };
        io.pool.spans.put(burst.spans);
        flow
    }

    /// The burst's parse loop: runs until the socket drains, backpressure
    /// latches, or the connection stops taking requests.
    // sitw-lint: hot-path
    fn read_burst<'a>(&mut self, io: &mut ReactorIo<'a>, burst: &mut Burst<'a>) -> Flow {
        loop {
            if self.read_paused(io) {
                break;
            }
            let event = self.buf.read_event_into(&mut self.req, &mut self.records);
            if !matches!(event, Ok(ReadEvent::Request)) {
                // Only another request can extend the run; anything else
                // ends it *before* queuing its own slot (arrival order).
                if let Flow::Close = self.flush_run(io, burst) {
                    return Flow::Close;
                }
            }
            match event {
                Ok(ReadEvent::Request) => {
                    self.partial_since = None;
                    if let Flow::Close = self.handle_request(io, burst) {
                        return Flow::Close;
                    }
                    if self.close_requested {
                        break;
                    }
                }
                Ok(ReadEvent::Frame { version, trace }) => {
                    self.partial_since = None;
                    if let Flow::Close = self.submit_frame(version, trace, io, &mut burst.mark) {
                        return Flow::Close;
                    }
                }
                Ok(ReadEvent::Ctrl(ctrl)) => {
                    self.partial_since = None;
                    self.pipeline.push(Slot::Ctrl(ctrl));
                }
                Ok(ReadEvent::FrameError {
                    code,
                    detail,
                    recoverable,
                }) => {
                    self.partial_since = None;
                    self.pipeline.push(Slot::BinError { code, detail });
                    if !recoverable {
                        // The stream cannot be resynchronized: answer in
                        // order, then half-close and drain (lame-duck).
                        self.fatal = true;
                        break;
                    }
                }
                Ok(ReadEvent::Eof) => {
                    self.read_eof = true;
                    break;
                }
                Ok(ReadEvent::Timeout) => {
                    // Socket drained. A leftover partial message — or an
                    // unfinished malformed-frame skip, whose bytes the
                    // peer still owes us — starts the slowloris clock;
                    // progress resets it above.
                    if self.buf.buffered() > 0 || self.buf.skipping() {
                        // Wall-clock bookkeeping: the slowloris deadline
                        // is real time, not telemetry time.
                        // sitw-lint: allow(clock-discipline)
                        self.partial_since.get_or_insert_with(Instant::now);
                    } else {
                        self.partial_since = None;
                    }
                    break;
                }
                Ok(ReadEvent::BodyTooLarge { .. }) => {
                    // The body was never read, so the stream cannot be
                    // resynchronized: 413 (in order), then lame-duck.
                    let mut resp = Vec::with_capacity(128);
                    write_response(
                        &mut resp,
                        413,
                        "application/json",
                        b"{\"error\":\"payload too large\"}",
                    );
                    self.pipeline.push(Slot::Http(resp));
                    self.fatal = true;
                    break;
                }
                Err(_) => return Flow::Close, // Malformed request or I/O error.
            }
        }
        Flow::Keep
    }

    /// Queues one parsed HTTP request: an `/invoke` is parked on the
    /// burst's run, anything else — a standby's invoke included, which
    /// `handle_control` refuses — ends the run and takes its own slot.
    // sitw-lint: hot-path
    fn handle_request<'a>(&mut self, io: &mut ReactorIo<'a>, burst: &mut Burst<'a>) -> Flow {
        if self.req.close {
            self.close_requested = true;
        }
        let path = self.req.path.split('?').next().unwrap_or_default();
        if self.req.method == "POST" && path == "/invoke" && !burst.following {
            let ctx = io.ctx;
            if burst.parked == 0 {
                burst.t_read_end = io.telem.now();
            }
            let registry = burst.registry.get_or_insert_with(|| ctx.registry_read());
            match parse_and_route(
                &self.req.body,
                &mut self.invoke,
                registry,
                ctx.shard_txs.len(),
            ) {
                Ok((tenant, shard)) => {
                    if io.telem.enabled() {
                        // A propagated fleet trace id becomes the span id,
                        // so the router can pick this request's stages out
                        // of `/debug/trace` by id.
                        burst.spans.push(match self.req.trace {
                            Some(id) => id,
                            None => io.telem.new_span(),
                        });
                    }
                    io.per_shard[shard].push(BatchItem {
                        idx: burst.parked,
                        tenant,
                        app: io.pool.name(&self.invoke.app),
                        ts: self.invoke.ts,
                    });
                    burst.parked += 1;
                    // Parked requests count against `pipeline_window`
                    // exactly like dispatched ones.
                    self.pipeline.inflight += 1;
                }
                Err(e) => {
                    if let Flow::Close = self.flush_run(io, burst) {
                        return Flow::Close;
                    }
                    let mut body = Vec::with_capacity(64);
                    body.extend_from_slice(b"{\"error\":\"");
                    body.extend_from_slice(wire::json_escape(&e).as_bytes());
                    body.extend_from_slice(b"\"}");
                    let mut resp = Vec::with_capacity(body.len() + 64);
                    write_response(&mut resp, 400, "application/json", &body);
                    self.pipeline.push(Slot::Http(resp));
                }
            }
        } else {
            if let Flow::Close = self.flush_run(io, burst) {
                return Flow::Close;
            }
            // Control requests execute when they reach the pipeline
            // head; queue the request itself (rare path, one clone).
            let queued = self.req.clone(); // sitw-lint: allow(hot-path-alloc)
            self.pipeline.push(Slot::Control(queued));
        }
        Flow::Keep
    }

    /// Ends the burst's JSON run, if one is open: each owning shard gets
    /// its parked requests in **one** mailbox message and a run slot
    /// joins the pipeline. The read and decode stages are clocked once
    /// for the whole run and recorded per request at the run mean
    /// (counts stay exact): read ends where the run's first request
    /// parsed out — the socket read is behind it — and decode ends here.
    // sitw-lint: hot-path
    fn flush_run(&mut self, io: &mut ReactorIo<'_>, burst: &mut Burst<'_>) -> Flow {
        // Released first: a frame's partitioning takes its own guard, and
        // nothing past the run needs this one.
        burst.registry = None;
        let n = std::mem::take(&mut burst.parked) as usize;
        if n == 0 {
            return Flow::Keep;
        }
        let spans = std::mem::replace(&mut burst.spans, io.pool.spans.take());
        let sent_ns = if io.telem.enabled() {
            let sent_ns = io.telem.now();
            let (mark, t_read_end, k) = (burst.mark, burst.t_read_end, n as u64);
            io.telem.with(|t| {
                t.read.json.record_n(t_read_end.saturating_sub(mark) / k, k);
                t.decode
                    .json
                    .record_n(sent_ns.saturating_sub(t_read_end) / k, k);
                for &span in &spans {
                    t.recorder.push(SpanEvent {
                        span,
                        stage: Stage::Read,
                        start_ns: mark,
                        end_ns: t_read_end,
                    });
                    t.recorder.push(SpanEvent {
                        span,
                        stage: Stage::Decode,
                        start_ns: t_read_end,
                        end_ns: sent_ns,
                    });
                }
            });
            burst.mark = sent_ns;
            sent_ns
        } else {
            0
        };
        let sent = self.dispatch(io, sent_ns, |items, spare| {
            // Each shard's spans ride index-aligned beside its items
            // (none when telemetry is off and `spans` is empty).
            let mut shard_spans = spare.take();
            shard_spans.extend(
                items
                    .iter()
                    .filter_map(|item| spans.get(item.idx as usize).copied()),
            );
            BatchSpans::Json(shard_spans)
        });
        let Some(remaining) = sent else {
            return Flow::Close;
        };
        let mut results = io.pool.slots.take();
        results.resize(n, None);
        self.pipeline.push(Slot::Run {
            remaining,
            spans,
            results,
        });
        Flow::Keep
    }

    /// Sends every non-empty per-shard slice as one
    /// [`ShardMsg::InvokeBatch`], addressed to the slot the caller is
    /// about to push (replies cannot overtake that push: this thread
    /// processes them). Each slice leaves with a spare result vector
    /// and is replaced by a spare item vector. Returns how many shards
    /// now owe a reply, or `None` when a shard is gone (shutting down /
    /// panicked).
    // sitw-lint: hot-path
    fn dispatch(
        &self,
        io: &mut ReactorIo<'_>,
        sent_ns: u64,
        spans: impl Fn(&[BatchItem], &mut Spares<u64>) -> BatchSpans,
    ) -> Option<usize> {
        let frame_seq = self.pipeline.next_seq;
        let mut expected = 0usize;
        for shard in 0..io.per_shard.len() {
            if io.per_shard[shard].is_empty() {
                continue;
            }
            let items = std::mem::replace(&mut io.per_shard[shard], io.pool.items.take());
            let msg = ShardMsg::InvokeBatch {
                frame_seq,
                spans: spans(&items, &mut io.pool.spans),
                items,
                sent_ns,
                reply: io.reply_sink(self.token),
                spare: io.pool.results.take(),
            };
            if io.ctx.shard_txs[shard].send(msg).is_err() {
                // The scratch is reactor-wide: clear the not-yet-taken
                // slices so this dead batch's records cannot leak into
                // the next one dispatched on this reactor.
                for slice in io.per_shard.iter_mut() {
                    slice.clear();
                }
                return None;
            }
            expected += 1;
        }
        Some(expected)
    }

    /// Dispatches one SITW-BIN frame to the shards without waiting:
    /// records are partitioned by `(tenant, app)` route, each shard gets
    /// its whole slice in **one** mailbox message, and a frame slot
    /// joins the pipeline to be reassembled in order as the
    /// [`BatchReply`]s come back.
    // sitw-lint: hot-path
    fn submit_frame(
        &mut self,
        version: u8,
        trace: Option<u64>,
        io: &mut ReactorIo<'_>,
        mark: &mut u64,
    ) -> Flow {
        let ctx = io.ctx;
        let n = self.records.len();
        let t_read_end = io.telem.now();
        ctx.frames.fetch_add(1, Ordering::Relaxed);
        if ctx.following() {
            self.pipeline.push(Slot::BinError {
                code: BinErrorCode::Unavailable,
                // Cold refusal path: a standby decides nothing.
                // sitw-lint: allow(hot-path-alloc)
                detail: NOT_PROMOTED.to_owned(),
            });
            return Flow::Keep;
        }
        let shards = ctx.shard_txs.len();
        {
            let registry = ctx.registry_read();
            for (idx, rec) in self.records.iter().enumerate() {
                if registry.get(rec.tenant).is_none() {
                    for slice in io.per_shard.iter_mut() {
                        slice.clear();
                    }
                    self.pipeline.push(Slot::BinError {
                        code: BinErrorCode::Malformed,
                        // Cold error path: the frame is rejected anyway.
                        // sitw-lint: allow(hot-path-alloc)
                        detail: format!("record {idx}: unknown tenant id {}", rec.tenant),
                    });
                    return Flow::Keep;
                }
                let shard = registry.shard_of(rec.tenant, &rec.app, shards);
                io.per_shard[shard].push(BatchItem {
                    idx: idx as u32,
                    tenant: rec.tenant,
                    app: io.pool.name(&rec.app),
                    ts: rec.ts,
                });
            }
        }
        self.records.truncate(RECORDS_KEPT);
        // One span covers the whole frame: read ends where decode
        // (partitioning) starts, and decode ends at dispatch. A
        // propagated fleet trace id becomes the frame's span id.
        let (span, sent_ns) = if io.telem.enabled() {
            let span = match trace {
                Some(id) => id,
                None => io.telem.new_span(),
            };
            let sent_ns = io.telem.now();
            // Frame costs are amortized per record so the bin stage
            // histograms stay invocation-weighted like the json ones.
            let per = |dt: u64| dt / n.max(1) as u64;
            io.telem.with(|t| {
                t.read
                    .bin
                    .record_n(per(t_read_end.saturating_sub(*mark)), n as u64);
                t.decode
                    .bin
                    .record_n(per(sent_ns.saturating_sub(t_read_end)), n as u64);
                t.recorder.push(SpanEvent {
                    span,
                    stage: Stage::Read,
                    start_ns: *mark,
                    end_ns: t_read_end,
                });
                t.recorder.push(SpanEvent {
                    span,
                    stage: Stage::Decode,
                    start_ns: t_read_end,
                    end_ns: sent_ns,
                });
            });
            *mark = sent_ns;
            (span, sent_ns)
        } else {
            (0, 0)
        };
        let Some(remaining) = self.dispatch(io, sent_ns, |_, _| BatchSpans::Frame(span)) else {
            return Flow::Close;
        };
        let mut results = io.pool.slots.take();
        results.resize(n, None);
        self.pipeline.push(Slot::Frame {
            version,
            remaining,
            span,
            results,
        });
        self.pipeline.inflight += n;
        Flow::Keep
    }

    /// Renders every complete slot at the pipeline head, writes, and
    /// decides the connection's fate.
    // sitw-lint: hot-path
    pub fn pump(&mut self, io: &mut ReactorIo<'_>) -> Flow {
        loop {
            let t_render_end = self.flush_ready(io);
            let backlog = self.out.len() - self.out_pos;
            if backlog > 0
                && (self.pipeline.is_empty()
                    || backlog >= WRITE_COALESCE_BYTES
                    || self.write_blocked)
            {
                if let Flow::Close = self.write_out(io.telem, t_render_end) {
                    return Flow::Close;
                }
            }
            if self.fatal && self.lame.is_none() && self.settled() {
                // Fatal response delivered: FIN the write side, absorb
                // the rest so the response survives, then retire.
                let _ = self.buf.stream().shutdown(Shutdown::Write);
                self.lame = Some(Lame {
                    // Wall-clock bookkeeping: the linger deadline.
                    // sitw-lint: allow(clock-discipline)
                    deadline: Instant::now() + LAME_LINGER,
                    budget: LAME_BUDGET,
                });
                return self.drain_lame();
            }
            if (self.read_eof || self.close_requested) && self.lame.is_none() && self.settled() {
                return Flow::Close;
            }
            // Backpressure can pause parsing with complete messages
            // already pulled off the socket into the connection buffer;
            // level-triggered epoll will never re-signal those bytes.
            // Once flushing makes room again, resume parsing here — but
            // only while it makes progress (a half-received message
            // legitimately stays buffered).
            let resumable = self.lame.is_none()
                && !self.read_eof
                && !self.close_requested
                && !self.fatal
                && !self.read_paused(io)
                && self.buf.buffered() > 0;
            if !resumable {
                return Flow::Keep;
            }
            let before = (self.pipeline.next_seq, self.buf.buffered());
            if let Flow::Close = self.on_readable(io) {
                return Flow::Close;
            }
            if (self.pipeline.next_seq, self.buf.buffered()) == before {
                return Flow::Keep;
            }
        }
    }

    /// Returns the last timestamp it read (0 when it read none), so the
    /// caller can seed the write stage without a redundant clock call.
    // sitw-lint: hot-path
    fn flush_ready(&mut self, io: &mut ReactorIo<'_>) -> u64 {
        if !self.pipeline.slots.front().is_some_and(Slot::is_complete) {
            return 0;
        }
        let mut t0 = io.telem.now();
        while self.pipeline.slots.front().is_some_and(Slot::is_complete) {
            let Some(slot) = self.pipeline.slots.pop_front() else {
                break; // front() above proved non-empty; defensive.
            };
            self.pipeline.front_seq += 1;
            match slot {
                Slot::Run {
                    spans, mut results, ..
                } => {
                    let n = results.len() as u64;
                    self.pipeline.inflight -= results.len();
                    for result in results.drain(..) {
                        // A hole (a malformed shard reply was dropped by
                        // `absorb_batch`) renders as a typed rejection.
                        let result = result.unwrap_or(Err(InvokeError::UnknownTenant));
                        render_json(&mut self.out, io.scratch, result);
                    }
                    if io.telem.enabled() {
                        // The run is clocked once; every decision is
                        // recorded at the run mean (counts stay exact).
                        let t1 = io.telem.now();
                        io.telem.with(|t| {
                            t.render.json.record_n(t1.saturating_sub(t0) / n.max(1), n);
                            for &span in &spans {
                                t.recorder.push(SpanEvent {
                                    span,
                                    stage: Stage::Render,
                                    start_ns: t0,
                                    end_ns: t1,
                                });
                            }
                        });
                        self.pending_spans
                            .extend(spans.iter().map(|&span| (span, false, 1)));
                        t0 = t1;
                    }
                    io.pool.slots.put(results);
                    io.pool.spans.put(spans);
                }
                Slot::Frame {
                    version,
                    span,
                    mut results,
                    ..
                } => {
                    self.pipeline.inflight -= results.len();
                    io.results.clear();
                    // A record left unanswered (a malformed shard reply
                    // was dropped by `absorb_batch`) renders as a typed
                    // rejection instead of panicking mid-render.
                    io.results.extend(
                        results
                            .drain(..)
                            .map(|r| r.unwrap_or(Err(InvokeError::UnknownTenant))),
                    );
                    io.pool.slots.put(results);
                    wire::encode_reply_frame(&mut self.out, version, io.results);
                    io.ctx
                        .batched_decisions
                        .fetch_add(io.results.len() as u64, Ordering::Relaxed);
                    if io.telem.enabled() {
                        let t1 = io.telem.now();
                        let n = io.results.len() as u64;
                        io.telem.with(|t| {
                            t.render.bin.record_n(t1.saturating_sub(t0) / n.max(1), n);
                            t.recorder.push(SpanEvent {
                                span,
                                stage: Stage::Render,
                                start_ns: t0,
                                end_ns: t1,
                            });
                        });
                        self.pending_spans.push((span, true, n as u32));
                        t0 = t1;
                    }
                }
                Slot::BinError { code, detail } => {
                    io.ctx.proto_errors.fetch_add(1, Ordering::Relaxed);
                    wire::encode_error_frame(&mut self.out, code, &detail);
                    t0 = io.telem.now();
                }
                Slot::Control(req) => {
                    // Executed only now — once every earlier message on
                    // the connection has fully answered. A scrape can
                    // take a while; refresh the render mark after it so
                    // the next slot isn't charged for the control work.
                    handle_control(&req, io.ctx, &mut self.out);
                    t0 = io.telem.now();
                }
                Slot::Ctrl(ctrl) => {
                    crate::server::handle_ctrl_frame(&ctrl, io.ctx, &mut self.out);
                    t0 = io.telem.now();
                }
                Slot::Http(bytes) => {
                    self.out.extend_from_slice(&bytes);
                    t0 = io.telem.now();
                }
            }
        }
        t0
    }

    /// Writes as much pending output as the socket takes; keeps the
    /// cursor for resumption when the kernel buffer fills. Write-stage
    /// spans settle only on a full flush: a partial write keeps its
    /// spans pending so they are charged the whole (resumed) drain.
    ///
    /// `t_hint` is the caller's last clock reading (the render-stage
    /// end, from [`Conn::flush_ready`]); when nonzero it seeds the
    /// write-stage start so the common pump path reads the clock once
    /// less per flush.
    // sitw-lint: hot-path
    fn write_out(&mut self, telem: &ReactorTelemHandle, t_hint: u64) -> Flow {
        let t0 = if t_hint != 0 { t_hint } else { telem.now() };
        let start_pos = self.out_pos;
        while self.out_pos < self.out.len() {
            let mut stream = self.buf.stream();
            match stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Flow::Close,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.write_blocked = true;
                    return Flow::Keep;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Flow::Close,
            }
        }
        self.write_blocked = false;
        if self.out_pos > 0 {
            if telem.enabled() {
                let t1 = telem.now();
                let dt = t1.saturating_sub(t0);
                let written = (self.out_pos - start_pos) as u64;
                telem.with(|t| {
                    t.write_bursts.record(written);
                    for &(span, is_bin, n) in &self.pending_spans {
                        let n = n as u64;
                        if is_bin {
                            t.write.bin.record_n(dt / n.max(1), n);
                        } else {
                            t.write.json.record(dt);
                        }
                        t.recorder.push(SpanEvent {
                            span,
                            stage: Stage::Write,
                            start_ns: t0,
                            end_ns: t1,
                        });
                    }
                });
                self.pending_spans.clear();
            }
            self.out.clear();
            self.out_pos = 0;
            if self.out.capacity() > OUT_SHRINK_ABOVE {
                self.out.shrink_to(OUT_SHRINK_TO);
            }
        }
        Flow::Keep
    }

    fn drain_lame(&mut self) -> Flow {
        // Callers only enter with lame set; a missing state just means
        // the connection is not lame-duck after all.
        let Some(lame) = self.lame.as_mut() else {
            return Flow::Keep;
        };
        match self.buf.drain_nonblocking(&mut lame.budget) {
            DrainOutcome::Eof | DrainOutcome::Overflow => Flow::Close,
            DrainOutcome::Pending => {
                // Wall-clock bookkeeping: the linger deadline.
                // sitw-lint: allow(clock-discipline)
                if Instant::now() >= lame.deadline {
                    Flow::Close
                } else {
                    Flow::Keep
                }
            }
        }
    }
}

/// Renders one JSON decision (or rejection) as a full HTTP response,
/// through the reactor's reusable body scratch.
// sitw-lint: hot-path
fn render_json(out: &mut Vec<u8>, scratch: &mut Vec<u8>, result: Result<Decision, InvokeError>) {
    match result {
        Ok(decision) => {
            scratch.clear();
            wire::render_decision(scratch, &decision);
            write_response(out, 200, "application/json", scratch);
        }
        Err(InvokeError::OutOfOrder { last_ts }) => {
            scratch.clear();
            scratch.extend_from_slice(b"{\"error\":\"out-of-order\",\"last_ts\":");
            push_u64(scratch, last_ts);
            scratch.push(b'}');
            write_response(out, 409, "application/json", scratch);
        }
        Err(InvokeError::UnknownTenant) => {
            // Unreachable: tenants are resolved before dispatch.
            write_response(
                out,
                400,
                "application/json",
                b"{\"error\":\"unknown tenant\"}",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_pipeline(records: usize, remaining: usize) -> Pipeline {
        let mut p = Pipeline::new();
        p.push(Slot::Frame {
            version: 1,
            remaining,
            span: 0,
            results: vec![None; records],
        });
        p.inflight += records;
        p
    }

    /// Regression (failing before this PR): a `BatchReply` carrying a
    /// record index beyond the frame's record count indexed straight
    /// into `results` and panicked the reactor thread. The malformed
    /// record is now dropped; the in-range one still lands and the
    /// slot still completes.
    #[test]
    fn absorb_batch_drops_out_of_range_record_index() {
        let mut p = frame_pipeline(2, 1);
        p.absorb_batch(&mut BatchReply {
            frame_seq: 0,
            results: vec![
                (1, Err(InvokeError::UnknownTenant)),
                (9, Err(InvokeError::UnknownTenant)), // out of range
            ],
            ..BatchReply::default()
        });
        let Some(Slot::Frame {
            remaining, results, ..
        }) = p.slots.front()
        else {
            panic!("frame slot");
        };
        assert_eq!(*remaining, 0);
        assert!(results[1].is_some(), "in-range record landed");
        assert!(results[0].is_none(), "untouched record stays open");
        assert!(p.slots.front().is_some_and(Slot::is_complete));
    }

    /// Regression (failing before this PR): a duplicate `BatchReply`
    /// for an already-settled frame underflowed `remaining`
    /// (`usize` wrap; a panic under debug assertions). It now
    /// saturates at zero and the frame stays complete.
    #[test]
    fn absorb_batch_tolerates_duplicate_reply() {
        let mut p = frame_pipeline(1, 1);
        let reply = || BatchReply {
            frame_seq: 0,
            results: vec![(0, Err(InvokeError::UnknownTenant))],
            ..BatchReply::default()
        };
        p.absorb_batch(&mut reply());
        p.absorb_batch(&mut reply());
        let Some(Slot::Frame { remaining, .. }) = p.slots.front() else {
            panic!("frame slot");
        };
        assert_eq!(*remaining, 0, "duplicate reply must not wrap remaining");
        assert!(p.slots.front().is_some_and(Slot::is_complete));
    }

    /// Replies addressed below the pipeline window (already-flushed
    /// sequences) are ignored, not mis-slotted.
    #[test]
    fn absorb_batch_ignores_stale_sequence() {
        let mut p = frame_pipeline(1, 1);
        p.front_seq = 5;
        p.absorb_batch(&mut BatchReply {
            frame_seq: 3,
            results: vec![(0, Err(InvokeError::UnknownTenant))],
            ..BatchReply::default()
        });
        let Some(Slot::Frame { remaining, .. }) = p.slots.front() else {
            panic!("frame slot");
        };
        assert_eq!(*remaining, 1, "stale reply must not touch a newer slot");
    }
}
