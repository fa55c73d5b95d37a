//! The connection state machine both daemons run their clients on,
//! driven by a reactor thread over a non-blocking socket.
//!
//! A [`Conn`] owns what a connection needs between readiness events: the
//! parse buffer ([`ConnBuf`]) and the output with its write cursor. What
//! a message means is the [`Handler`]'s business: its
//! [`Handler::readable`] takes the burst's messages with [`Conn::next`]
//! and appends their answers to [`Conn::out`] in arrival order. A node
//! answers each message before it reads the next; a router forwards and
//! *owes* the answer ([`Handler::owed`]). A control request read while
//! anything is owed is held ([`Conn::hold`]) and replayed once nothing
//! is, so on both daemons an admin side effect or a scrape sees every
//! earlier message on its connection answered (settle-then-serve).
//!
//! What belongs to the connection lives here once: read backpressure
//! with hysteresis (pause at `window` open answers or a full output
//! backlog, resume at half); lame-duck after a fatal error (bad version,
//! oversized payload, 413) — the answer flushed, the write side shut
//! down so the peer gets a FIN and not an RST, the rest read and dropped
//! until EOF, a byte budget or a deadline; the slowloris clock on a
//! half-received message (a fully idle keep-alive connection is never
//! timed out); and partial writes, resumed on write readiness. Nothing
//! here allocates in steady state.

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use sitw_reactor::Interest;
use sitw_telemetry::Gate;

use crate::http::{ConnBuf, DrainOutcome, ReadEvent, Request};
use crate::reactor::{Handler, ReactorTelemHandle};
use crate::wire::BinInvoke;

/// Stop reading a connection whose un-written output backlog exceeds
/// this (a client that pipelines but never reads must not buffer
/// unbounded responses server-side).
const OUT_BACKPRESSURE_BYTES: usize = 256 * 1024;

/// Shrink thresholds for the output buffer after a burst.
const OUT_SHRINK_ABOVE: usize = 256 * 1024;
const OUT_SHRINK_TO: usize = 64 * 1024;

/// Lame-duck discard budget: how many request bytes we absorb after a
/// fatal error so the close delivers the error response + FIN instead of
/// an RST.
const LAME_BUDGET: usize = 2 * crate::http::MAX_BODY_BYTES;

/// Lame-duck linger: how long we wait for the peer to take the FIN.
const LAME_LINGER: Duration = Duration::from_secs(1);

/// What the reactor should do with the connection after a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving.
    Keep,
    /// Retire the connection (drop closes the socket).
    Close,
}

/// Lame-duck drain state after a fatal error's response went out.
struct Lame {
    deadline: Instant,
    budget: usize,
}

/// One client connection owned by a reactor thread; `S` is what its
/// [`Handler`] keeps per connection.
pub struct Conn<S> {
    buf: ConnBuf,
    /// Answers not yet written, in arrival order. Handlers append here.
    pub out: Vec<u8>,
    out_pos: usize,
    /// The last HTTP request [`Conn::next`] parsed (reused across
    /// requests, so a warm connection parses without allocating).
    pub req: Request,
    /// The last request frame's records (reused likewise).
    pub records: Vec<BinInvoke>,
    /// Spans rendered into `out` but not yet flushed, as `(span, value)`
    /// pairs the handler's [`Handler::flushed`] reads back when the
    /// buffer fully flushes (partial writes keep them pending).
    pub spans: Vec<(u64, u64)>,
    /// The handler's per-connection state.
    pub state: S,
    /// Interest currently registered with epoll.
    read_armed: bool,
    write_armed: bool,
    /// Stop reading — the peer half-closed, the client asked to close,
    /// or the server is shutting down — then settle and retire.
    closing: bool,
    /// A fatal answer is owed or written: once it flushes, half-close
    /// and go lame-duck.
    fatal: bool,
    lame: Option<Lame>,
    /// A read or parse failed: retire without settling.
    broken: bool,
    /// `req` holds a request the handler will answer only once nothing
    /// is owed; reading waits for it.
    held: bool,
    /// The held request is due: [`Conn::next`] hands it out again.
    replay: bool,
    /// When the buffered partial message stopped making progress — the
    /// slowloris clock. `None` while no partial message is pending.
    partial_since: Option<Instant>,
    /// Read backpressure latch. Set when the handler's open answers or
    /// the output backlog hit their high-water marks, cleared only at
    /// the low-water marks: without the hysteresis, a client that pins
    /// its window full would toggle epoll read interest (two
    /// `epoll_ctl` syscalls) around *every* answer.
    paused: bool,
    /// A write hit `WouldBlock` with bytes left: EPOLLOUT is wanted and
    /// the rest flushes on writability.
    write_blocked: bool,
}

impl<S: Default> Conn<S> {
    /// Adopts an accepted stream: non-blocking, no delay, empty state.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            buf: ConnBuf::new(stream),
            out: Vec::new(),
            out_pos: 0,
            req: Request::default(),
            records: Vec::new(),
            spans: Vec::new(),
            state: S::default(),
            read_armed: true,
            write_armed: false,
            closing: false,
            fatal: false,
            lame: None,
            broken: false,
            held: false,
            replay: false,
            partial_since: None,
            paused: false,
            write_blocked: false,
        })
    }
}

impl<S> Conn<S> {
    /// The socket descriptor (for epoll registration).
    pub fn raw_fd(&self) -> RawFd {
        self.buf.stream().as_raw_fd()
    }

    /// Handles one epoll readiness event.
    pub fn on_event<H: Handler<State = S>>(
        &mut self,
        token: u64,
        readable: bool,
        hangup: bool,
        h: &mut H,
    ) -> Flow {
        if hangup && !readable {
            // Error/full hang-up with nothing left to deliver.
            return Flow::Close;
        }
        if readable {
            if let Flow::Close = self.on_readable(token, h) {
                return Flow::Close;
            }
        }
        self.pump(token, h)
    }

    /// Server shutdown: stop taking new requests; the reactor keeps
    /// pumping until the connection settles (or its grace runs out).
    pub fn begin_shutdown(&mut self) {
        self.closing = true;
    }

    /// Holds the request just parsed until nothing is owed on the
    /// connection: the burst ends, and [`Conn::next`] hands the request
    /// out again once the handler owes nothing.
    pub fn hold(&mut self) {
        self.held = true;
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

    /// Syncs the wanted readiness against what epoll last heard; returns
    /// the new interest when a `modify` is needed.
    pub fn interest_change(&mut self) -> Option<Interest> {
        let readable = if self.lame.is_some() {
            true // Keep absorbing until EOF/budget/deadline.
        } else {
            !self.closing && !self.fatal && !self.paused && !self.held
        };
        // Write readiness only helps a *blocked* write.
        let writable = self.write_blocked;
        if readable == self.read_armed && writable == self.write_armed {
            return None;
        }
        self.read_armed = readable;
        self.write_armed = writable;
        Some(Interest { readable, writable })
    }

    /// Updates the backpressure latch and reports it. Pauses when the
    /// handler has `window` answers open or the output backlog reaches
    /// its cap, resumes at half of them. Transitions count on the owning
    /// reactor's telemetry (`/debug/threads`).
    fn read_paused(&mut self, open: usize, window: usize, telem: &ReactorTelemHandle) -> bool {
        let backlog = self.out.len() - self.out_pos;
        if self.paused {
            if open <= window / 2 && backlog < OUT_BACKPRESSURE_BYTES / 2 {
                self.paused = false;
                telem.with(|t| t.bp_resumes += 1);
            }
        } else if open >= window || backlog >= OUT_BACKPRESSURE_BYTES {
            self.paused = true;
            telem.with(|t| t.bp_pauses += 1);
        }
        self.paused
    }

    /// The next message of the read burst — a request in [`Conn::req`],
    /// a frame's records in [`Conn::records`], or a protocol error to
    /// answer (never `Eof` or `Timeout`) — or `None` once the burst is
    /// over: the socket drained, backpressure latched
    /// (`open` answers against `window`), the peer closed, a fatal error,
    /// a held request, or a broken stream. After an unrecoverable frame
    /// error or an oversized body the connection is fatal: lame-duck
    /// once the handler's answer is out.
    // sitw-lint: hot-path
    pub fn next(
        &mut self,
        open: usize,
        window: usize,
        telem: &ReactorTelemHandle,
    ) -> Option<ReadEvent> {
        if self.replay {
            self.replay = false;
            return Some(ReadEvent::Request);
        }
        if self.closing || self.fatal || self.held || self.broken {
            return None;
        }
        if self.read_paused(open, window, telem) {
            return None;
        }
        let event = match self.buf.read_event_into(&mut self.req, &mut self.records) {
            Ok(ReadEvent::Request) => {
                self.closing |= self.req.close;
                ReadEvent::Request
            }
            Ok(e @ ReadEvent::FrameError { recoverable, .. }) => {
                self.fatal = !recoverable;
                e
            }
            Ok(e @ ReadEvent::BodyTooLarge { .. }) => {
                self.fatal = true;
                e
            }
            Ok(ReadEvent::Eof) => {
                self.closing = true;
                return None;
            }
            Ok(ReadEvent::Timeout) => {
                // Socket drained. A leftover partial message — or an
                // unfinished malformed-frame skip, whose bytes the peer
                // still owes us — starts the slowloris clock; progress
                // resets it below.
                if self.buf.buffered() > 0 || self.buf.skipping() {
                    // Wall-clock bookkeeping: the slowloris deadline is
                    // real time, not telemetry time.
                    // sitw-lint: allow(clock-discipline)
                    self.partial_since.get_or_insert_with(Instant::now);
                } else {
                    self.partial_since = None;
                }
                return None;
            }
            Ok(event) => event,
            Err(_) => {
                // Malformed request or I/O error.
                self.broken = true;
                return None;
            }
        };
        self.partial_since = None;
        Some(event)
    }

    /// One read burst through the handler.
    fn on_readable<H: Handler<State = S>>(&mut self, token: u64, h: &mut H) -> Flow {
        if self.lame.is_some() {
            return self.drain_lame();
        }
        h.readable(token, self);
        if self.broken {
            Flow::Close
        } else {
            Flow::Keep
        }
    }

    /// Writes what is ready and decides the fate of connection `token`.
    // sitw-lint: hot-path
    pub fn pump<H: Handler<State = S>>(&mut self, token: u64, h: &mut H) -> Flow {
        loop {
            if self.out_pos < self.out.len() {
                if let Flow::Close = self.write_out(h) {
                    return Flow::Close;
                }
            }
            let owed = H::owed(&self.state);
            if self.held && owed == 0 {
                self.held = false;
                self.replay = true;
            }
            let settled = self.out_pos == self.out.len() && owed == 0 && !self.held && !self.replay;
            if self.fatal && self.lame.is_none() && settled {
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
            if self.closing && self.lame.is_none() && settled {
                return Flow::Close;
            }
            // Backpressure (or a held request) can stop parsing with
            // complete messages already pulled off the socket into the
            // connection buffer; level-triggered epoll will never
            // re-signal those bytes. Once there is room again, resume
            // parsing here — but only while it makes progress (a
            // half-received message legitimately stays buffered).
            let resumable = self.replay
                || (self.lame.is_none()
                    && !self.closing
                    && !self.fatal
                    && !self.held
                    && !self.read_paused(owed, h.window(), h.telem())
                    && self.buf.buffered() > 0);
            if !resumable {
                return Flow::Keep;
            }
            let before = (self.out.len(), self.buf.buffered());
            if let Flow::Close = self.on_readable(token, h) {
                return Flow::Close;
            }
            if (self.out.len(), self.buf.buffered()) == before {
                return Flow::Keep;
            }
        }
    }

    /// Writes as much pending output as the socket takes; keeps the
    /// cursor for resumption when the kernel buffer fills. Spans settle
    /// only on a full flush: a partial write keeps them pending so they
    /// are charged the whole (resumed) drain.
    // sitw-lint: hot-path
    fn write_out<H: Handler<State = S>>(&mut self, h: &H) -> Flow {
        let t0 = h.telem().now();
        let start_pos = self.out_pos;
        while self.out_pos < self.out.len() {
            let mut stream = self.buf.stream();
            match stream.write(self.out.get(self.out_pos..).unwrap_or_default()) {
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
        h.flushed(&self.spans, t0, self.out_pos - start_pos);
        self.spans.clear();
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
