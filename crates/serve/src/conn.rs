//! Per-connection state machine, driven by a reactor thread over a
//! non-blocking socket.
//!
//! One [`Conn`] owns everything a connection needs between readiness
//! events: the incremental parse buffer ([`ConnBuf`]) and the output
//! buffer with a partial-write cursor. Every inbound message is answered
//! in arrival order, straight into the output buffer, before the next
//! one is read: a SITW-BIN frame is decided under its shards' locks and
//! encoded, a control request (health, metrics, admin) or control frame
//! executes, a protocol error renders its typed reply. Response ordering
//! — HTTP/1.1 pipelining, SITW-BIN frame pipelining, and ordering across
//! protocol switches — therefore holds by construction, and an admin
//! side effect or a scrape sees every earlier message on its connection
//! (settle-then-serve) with no queue of pending responses at all.
//!
//! The unit of JSON work is the **read burst**, not the request:
//! consecutive `POST /invoke` requests parsed out of one
//! [`Conn::on_readable`] pass are parked in the reactor's
//! [`crate::pool::Batch`] and decided together when the burst ends —
//! the socket drained, backpressure latched, the peer closed, or any
//! other message (control request, parse error, SITW-BIN frame)
//! arrived. The run then renders as one HTTP response per request, in
//! arrival order. There is no timer: a lone request is a run of one,
//! decided before `on_readable` returns, and `pipeline_window` bounds
//! how many a run collects. JSON and SITW-BIN therefore share one decide
//! path, and each shard's lock is taken once per run or frame, not once
//! per request.
//!
//! The hot paths allocate nothing in steady state. The request scratch,
//! the parsed `/invoke` body and the record buffer are reused across
//! messages, names and all; a parked request's name is copied into a
//! buffer an earlier run left behind; decisions render through a
//! reusable body scratch straight into the output buffer, which persists
//! across requests (shrunk when a burst inflates it). Past the socket
//! the shard allocates nothing for an app it has seen before.
//! `tests/alloc_free.rs` counts the shard and `tests/alloc_free_wire.rs`
//! the whole live node.
//!
//! Failure handling mirrors the blocking server exactly, restated for an
//! event loop:
//! * recoverable SITW-BIN errors are answered with typed error frames;
//! * fatal errors (bad version, oversized payload, HTTP 413) write
//!   their response, then put the connection in **lame-duck**: the
//!   response is flushed, the write side is shut down (response + FIN,
//!   never an RST racing the response), and reads are discarded until
//!   the peer closes, a byte budget runs out, or a deadline passes;
//! * a half-received message that stops making progress for
//!   [`crate::server::ServeConfig::idle_timeout`] is a slowloris and is
//!   disconnected by the reactor's sweep. Fully idle keep-alive
//!   connections are never timed out — mostly idle fleets are the
//!   workload this server exists for.

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
use crate::reactor::ReactorIo;
use crate::server::{handle_control, handle_ctrl_frame, parse_and_route, write_error};
use crate::shard::{Decision, InvokeError};
use crate::telem::ReactorTelemHandle;
use crate::wire::{self, push_u64, BinErrorCode, BinInvoke, InvokeRequest};

/// Stop reading a connection whose un-written output backlog exceeds
/// this (a client that pipelines but never reads must not buffer
/// unbounded responses server-side).
const OUT_BACKPRESSURE_BYTES: usize = 256 * 1024;

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
/// frames; a longer frame's surplus is freed once it is decided.
const RECORDS_KEPT: usize = 1024;

/// What the reactor should do with the connection after a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep serving.
    Keep,
    /// Retire the connection (drop closes the socket).
    Close,
}

/// State of one read burst ([`Conn::on_readable`] pass), on its stack —
/// above all the JSON run under construction, whose requests sit in the
/// reactor's batch until [`Conn::flush_run`] decides them.
struct Burst<'a> {
    /// The read-stage mark: everything between here and a message
    /// parsing out is that message's read time; deciding advances the
    /// mark so back-to-back pipelined messages don't double-count.
    mark: u64,
    /// Registry guard, taken at a run's first request and released
    /// before it is decided: one lock per burst instead of one per
    /// request, and never held across a shard lock, a frame's
    /// partitioning (which takes its own — re-entrant reads can deadlock
    /// behind a queued writer) or a control request.
    registry: Option<RwLockReadGuard<'a, TenantRegistry>>,
    /// The node is an unpromoted standby: its invokes are refused. Read
    /// once per burst.
    following: bool,
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
    /// Pending output and the partial-write cursor into it.
    out: Vec<u8>,
    out_pos: usize,
    /// Reusable parse targets (see [`ConnBuf::read_event_into`]), and
    /// the `/invoke` body parsed out of `req`.
    req: Request,
    records: Vec<BinInvoke>,
    invoke: InvokeRequest,
    /// Interest currently registered with epoll.
    read_armed: bool,
    write_armed: bool,
    /// The peer half-closed cleanly; settle and retire.
    read_eof: bool,
    /// Stop reading new requests (client `Connection: close`, or server
    /// shutdown); settle and retire.
    close_requested: bool,
    /// A fatal response is written: once it flushes, half-close and go
    /// lame-duck.
    fatal: bool,
    lame: Option<Lame>,
    /// When the buffered partial message stopped making progress — the
    /// slowloris clock. `None` while no partial message is pending.
    partial_since: Option<Instant>,
    /// Read backpressure latch. Set when the open run or the output
    /// backlog hit their high-water marks, cleared only at the low-water
    /// marks: without the hysteresis, a client that pins its window full
    /// would toggle epoll read interest (two `epoll_ctl` syscalls)
    /// around *every* decision.
    paused: bool,
    /// A write hit `WouldBlock` with bytes left: EPOLLOUT is wanted and
    /// the rest flushes on writability.
    write_blocked: bool,
    /// Telemetry spans rendered into `out` but not yet flushed:
    /// `(span, is_bin, decisions)`. Their write-stage spans are recorded
    /// when the buffer fully flushes (partial writes keep them pending);
    /// a frame's write cost is amortized over its `decisions` records so
    /// every stage histogram stays invocation-weighted.
    pending_spans: Vec<(u64, bool, u32)>,
}

impl Conn {
    /// Adopts an accepted stream: non-blocking, no delay, empty state.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            buf: ConnBuf::new(stream),
            out: Vec::new(),
            out_pos: 0,
            req: Request::default(),
            records: Vec::new(),
            invoke: InvokeRequest::default(),
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
        })
    }

    /// The socket descriptor (for epoll registration).
    pub fn raw_fd(&self) -> RawFd {
        self.buf.stream().as_raw_fd()
    }

    /// Interest the reactor registered at `add` time.
    pub fn initial_interest(&self) -> Interest {
        Interest::READ
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

    /// True once nothing is owed: every message read has its response
    /// written, so only unflushed output can remain.
    pub fn settled(&self) -> bool {
        self.out_pos == self.out.len()
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
            // Write readiness only helps a *blocked* write.
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

    /// Updates the backpressure latch and reports it. Pauses when the
    /// open run reaches `pipeline_window` requests or the output backlog
    /// its cap, resumes at half of them. Transitions count on the owning
    /// reactor's telemetry (`/debug/threads`).
    fn read_paused(&mut self, io: &ReactorIo<'_>) -> bool {
        let parked = io.batch.parked();
        let backlog = self.out.len() - self.out_pos;
        if self.paused {
            if parked <= io.ctx.cfg.pipeline_window / 2 && backlog < OUT_BACKPRESSURE_BYTES / 2 {
                self.paused = false;
                io.telem.with(|t| t.bp_resumes += 1);
            }
        } else if parked >= io.ctx.cfg.pipeline_window || backlog >= OUT_BACKPRESSURE_BYTES {
            self.paused = true;
            io.telem.with(|t| t.bp_pauses += 1);
        }
        self.paused
    }

    /// Parses and answers everything the socket has for us: one read
    /// burst. Whatever JSON run the burst parked is decided on **every**
    /// way out — drained socket, backpressure, EOF, a fatal error, even
    /// `Flow::Close` (those invocations happened) — so the reactor-wide
    /// batch is empty again when this returns.
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
            t_read_end: 0,
        };
        let flow = self.read_burst(io, &mut burst);
        self.flush_run(io, &mut burst);
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
                // ends it *before* answering itself (arrival order).
                self.flush_run(io, burst);
            }
            match event {
                Ok(ReadEvent::Request) => {
                    self.partial_since = None;
                    self.handle_request(io, burst);
                    if self.close_requested {
                        break;
                    }
                }
                Ok(ReadEvent::Frame { version, trace }) => {
                    self.partial_since = None;
                    self.submit_frame(version, trace, io, &mut burst.mark);
                }
                Ok(ReadEvent::Ctrl(ctrl)) => {
                    self.partial_since = None;
                    handle_ctrl_frame(&ctrl, io.ctx, &mut self.out);
                }
                Ok(ReadEvent::FrameError {
                    code,
                    detail,
                    recoverable,
                }) => {
                    self.partial_since = None;
                    self.bin_error(io, code, &detail);
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
                    write_error(&mut self.out, 413, "payload too large");
                    self.fatal = true;
                    break;
                }
                Err(_) => return Flow::Close, // Malformed request or I/O error.
            }
        }
        Flow::Keep
    }

    /// Handles one parsed HTTP request: an `/invoke` is parked on the
    /// burst's run, anything else — a standby's invoke included, which
    /// `handle_control` refuses — ends the run and is answered.
    // sitw-lint: hot-path
    fn handle_request<'a>(&mut self, io: &mut ReactorIo<'a>, burst: &mut Burst<'a>) {
        if self.req.close {
            self.close_requested = true;
        }
        let path = self.req.path.split('?').next().unwrap_or_default();
        if self.req.method != "POST" || path != "/invoke" || burst.following {
            self.flush_run(io, burst);
            handle_control(&self.req, io.ctx, &mut self.out);
            return;
        }
        let ctx = io.ctx;
        if io.batch.parked() == 0 {
            burst.t_read_end = io.telem.now();
        }
        let registry = burst.registry.get_or_insert_with(|| ctx.registry_read());
        match parse_and_route(&self.req.body, &mut self.invoke, registry, ctx.shards.len()) {
            Ok((tenant, shard)) => {
                if io.telem.enabled() {
                    // A propagated fleet trace id becomes the span id,
                    // so the router can pick this request's stages out
                    // of `/debug/trace` by id.
                    io.batch.spans.push(match self.req.trace {
                        Some(id) => id,
                        None => io.telem.new_span(),
                    });
                }
                io.batch
                    .park(shard, tenant, &self.invoke.app, self.invoke.ts);
            }
            Err(e) => {
                self.flush_run(io, burst);
                write_error(&mut self.out, 400, &e);
            }
        }
    }

    /// Ends the burst's JSON run, if one is open: decides it (each owning
    /// shard's requests under its lock, in ascending shard order) and
    /// renders one response per request in arrival order. The read and
    /// decode stages are clocked once for the whole run and recorded per
    /// request at the run mean (counts stay exact): read ends where the
    /// run's first request parsed out — the socket read is behind it —
    /// and decode ends here.
    // sitw-lint: hot-path
    fn flush_run(&mut self, io: &mut ReactorIo<'_>, burst: &mut Burst<'_>) {
        // Released first: deciding takes shard locks, and a frame's
        // partitioning or a control request takes its own guard.
        burst.registry = None;
        let n = io.batch.parked() as u64;
        if n == 0 {
            return;
        }
        if io.telem.enabled() {
            let decoded = io.telem.now();
            let (mark, t_read_end) = (burst.mark, burst.t_read_end);
            let spans = &io.batch.spans;
            io.telem.with(|t| {
                t.read.json.record_n(t_read_end.saturating_sub(mark) / n, n);
                t.decode
                    .json
                    .record_n(decoded.saturating_sub(t_read_end) / n, n);
                for &span in spans {
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
                        end_ns: decoded,
                    });
                }
            });
        }
        // A poisoned shard's requests come back `Unavailable` (503).
        io.batch.decide(&io.ctx.shards, None, io.telem);
        let t0 = io.telem.now();
        for result in &io.batch.results {
            render_json(&mut self.out, io.scratch, result);
        }
        if io.telem.enabled() {
            // The run is rendered in one go; every response is recorded
            // at the run mean (counts stay exact).
            let t1 = io.telem.now();
            let spans = &io.batch.spans;
            io.telem.with(|t| {
                t.render.json.record_n(t1.saturating_sub(t0) / n, n);
                for &span in spans {
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
            burst.mark = t1;
        }
        io.batch.close_run();
    }

    /// Answers one SITW-BIN request frame: records are partitioned by
    /// `(tenant, app)` route, each owning shard decides its slice under
    /// its lock, and the reply frame is encoded in record order. A frame
    /// touching a poisoned shard gets an `Unavailable` error frame.
    // sitw-lint: hot-path
    fn submit_frame(
        &mut self,
        version: u8,
        trace: Option<u64>,
        io: &mut ReactorIo<'_>,
        mark: &mut u64,
    ) {
        let ctx = io.ctx;
        let n = self.records.len();
        let t_read_end = io.telem.now();
        ctx.frames.fetch_add(1, Ordering::Relaxed);
        if ctx.following() {
            // Cold refusal path: a standby decides nothing.
            return self.bin_error(io, BinErrorCode::Unavailable, NOT_PROMOTED);
        }
        let shards = ctx.shards.len();
        {
            let registry = ctx.registry_read();
            for (idx, rec) in self.records.iter().enumerate() {
                if registry.get(rec.tenant).is_none() {
                    io.batch.clear();
                    // Cold error path: the frame is rejected anyway.
                    // sitw-lint: allow(hot-path-alloc)
                    let detail = format!("record {idx}: unknown tenant id {}", rec.tenant);
                    return self.bin_error(io, BinErrorCode::Malformed, &detail);
                }
                io.batch
                    .route(registry.shard_of(rec.tenant, &rec.app, shards));
            }
        }
        // One span covers the whole frame: read ends where decode
        // (partitioning) starts, and decode ends where deciding starts. A
        // propagated fleet trace id becomes the frame's span id.
        let span = if io.telem.enabled() {
            let span = match trace {
                Some(id) => id,
                None => io.telem.new_span(),
            };
            let decoded = io.telem.now();
            // Frame costs are amortized per record so the bin stage
            // histograms stay invocation-weighted like the json ones.
            let per = |dt: u64| dt / n.max(1) as u64;
            io.telem.with(|t| {
                t.read
                    .bin
                    .record_n(per(t_read_end.saturating_sub(*mark)), n as u64);
                t.decode
                    .bin
                    .record_n(per(decoded.saturating_sub(t_read_end)), n as u64);
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
                    end_ns: decoded,
                });
            });
            span
        } else {
            0
        };
        let frame = Some((self.records.as_slice(), span));
        if !io.batch.decide(&ctx.shards, frame, io.telem) {
            self.records.truncate(RECORDS_KEPT);
            return self.bin_error(io, BinErrorCode::Unavailable, "shard unavailable");
        }
        let t0 = io.telem.now();
        wire::encode_reply_frame(&mut self.out, version, &io.batch.results);
        ctx.batched_decisions.fetch_add(n as u64, Ordering::Relaxed);
        self.records.truncate(RECORDS_KEPT);
        if io.telem.enabled() {
            let t1 = io.telem.now();
            let n = n as u64;
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
            *mark = t1;
        }
    }

    /// Answers a typed SITW-BIN error frame.
    fn bin_error(&mut self, io: &ReactorIo<'_>, code: BinErrorCode, detail: &str) {
        io.ctx.proto_errors.fetch_add(1, Ordering::Relaxed);
        wire::encode_error_frame(&mut self.out, code, detail);
    }

    /// Writes what is owed and decides the connection's fate.
    // sitw-lint: hot-path
    pub fn pump(&mut self, io: &mut ReactorIo<'_>) -> Flow {
        loop {
            if self.out_pos < self.out.len() {
                if let Flow::Close = self.write_out(io.telem) {
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
            let before = (self.out.len(), self.buf.buffered());
            if let Flow::Close = self.on_readable(io) {
                return Flow::Close;
            }
            if (self.out.len(), self.buf.buffered()) == before {
                return Flow::Keep;
            }
        }
    }

    /// Writes as much pending output as the socket takes; keeps the
    /// cursor for resumption when the kernel buffer fills. Write-stage
    /// spans settle only on a full flush: a partial write keeps its
    /// spans pending so they are charged the whole (resumed) drain.
    // sitw-lint: hot-path
    fn write_out(&mut self, telem: &ReactorTelemHandle) -> Flow {
        let t0 = telem.now();
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
fn render_json(out: &mut Vec<u8>, scratch: &mut Vec<u8>, result: &Result<Decision, InvokeError>) {
    match result {
        Ok(decision) => {
            scratch.clear();
            wire::render_decision(scratch, decision);
            write_response(out, 200, "application/json", scratch);
        }
        Err(InvokeError::OutOfOrder { last_ts }) => {
            scratch.clear();
            scratch.extend_from_slice(b"{\"error\":\"out-of-order\",\"last_ts\":");
            push_u64(scratch, *last_ts);
            scratch.push(b'}');
            write_response(out, 409, "application/json", scratch);
        }
        Err(InvokeError::UnknownTenant) => {
            // Unreachable: tenants are resolved before deciding.
            write_response(
                out,
                400,
                "application/json",
                b"{\"error\":\"unknown tenant\"}",
            );
        }
        Err(InvokeError::Unavailable) => {
            write_response(
                out,
                503,
                "application/json",
                b"{\"error\":\"shard unavailable\"}",
            );
        }
    }
}
