//! Minimal HTTP/1.1 plumbing — persistent connections, pipelining,
//! `Content-Length` bodies, no chunked encoding, no TLS — plus the
//! protocol sniff that lets SITW-BIN frames share the same port.
//!
//! [`ConnBuf`] owns the read side of a connection with an explicit
//! buffer, so a read timeout or `EAGAIN` mid-request loses nothing:
//! partial bytes stay buffered and parsing resumes on the next call.
//! That property is what lets a reactor serve a connection one
//! readiness event at a time, and it is exactly what reassembles
//! SITW-BIN frames split across TCP
//! segment boundaries: [`ConnBuf::read_event_into`] peeks the first
//! unconsumed byte — [`crate::wire::BIN_MAGIC`] means a binary frame,
//! anything else (in practice an ASCII method letter) means HTTP — and
//! keeps filling until one complete message is buffered.
//!
//! The client half of the wire is here too: [`ConnBuf::read_reply`] is
//! the same reader pointed the other way, [`ConnBuf::stream_reply`] its
//! variant for a body too large to buffer (a standby's replication
//! round), [`write_request`] the twin of [`write_response`], and [`call`]
//! the one-shot exchange built from the two. Everything that talks *to*
//! a daemon — router, follower, load generator, tests — reads replies
//! through them.
//!
//! A request header block is read in one pass when it is the one every
//! client in this workspace sends for a decision ([`write_request`]
//! untraced, the load generator, the benchmark harness):
//!
//! ```text
//! POST /invoke HTTP/1.1( CRLF line )*
//! line = printable ASCII (0x20..=0x7E); any name but `connection` and
//!        `x-sitw-trace`; a `content-length` value of 1 to 19 digits
//! ```
//!
//! The early exit never refuses anything: on the first byte it does not
//! accept it hands the whole block to the general parser, which stays
//! because it is the only path for every other supported request — any
//! other request line, HTTP/1.0, a trace id, `connection`, non-ASCII or
//! control bytes, an over-long or malformed length. It is also the
//! reference the early exit is tested against: both give the same
//! [`Request`] fields or the same error on any block.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::wire::{self, BinErrorCode, BinInvoke, BinReply, FrameDecodeInto, ServerFrameDecode};

/// Maximum accepted header block (request or status line + headers),
/// in either direction.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Most bytes one socket read takes.
pub(crate) const READ_WINDOW: usize = 16 * 1024;
/// Maximum accepted body. A `Content-Length` beyond this is answered
/// with `413 Payload Too Large` *before* any body buffering happens, so
/// one request header can never drive a large allocation.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Maximum accepted body of a data-path reply. A peer declaring more is
/// a protocol error *before* any of it is buffered: a confused or
/// hostile upstream cannot make its client buffer without bound.
pub const MAX_REPLY_BODY_BYTES: usize = MAX_BODY_BYTES;
/// The same for control-plane replies read by [`call`]: trace and
/// histogram scrapes outgrow the data-path cap while still sane.
pub const MAX_CONTROL_REPLY_BYTES: usize = 16 * MAX_BODY_BYTES;

/// One parsed request, borrowing nothing (bodies are small).
///
/// On the reactor's hot path a `Request` is a per-connection scratch
/// that [`ConnBuf::read_event_into`] refills in place — the `String`s
/// and the body `Vec` keep their capacity across requests, so a
/// steady-state connection parses without allocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, e.g. `/invoke`.
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// The client asked to close the connection after this exchange.
    pub close: bool,
    /// Propagated trace id from an `X-Sitw-Trace` header (hex,
    /// optionally `0x`-prefixed), when the request carried one.
    pub trace: Option<u64>,
}

/// Outcome of one [`ConnBuf::read_request`] call.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed the connection cleanly (between requests).
    Eof,
    /// The read timed out with no complete request buffered; partial
    /// bytes remain buffered. Callers poll their shutdown flag and retry.
    Timeout,
    /// The request declared a `Content-Length` beyond
    /// [`MAX_BODY_BYTES`]. Nothing was allocated or consumed; the caller
    /// should answer `413 Payload Too Large` and close the connection
    /// (the unread body makes resynchronization impossible).
    BodyTooLarge {
        /// The declared content length.
        declared: u64,
    },
}

/// Outcome of one [`ConnBuf::read_event_into`] call: one inbound message
/// on a sniffed connection — an HTTP request or a SITW-BIN frame — or a
/// stream condition the caller handles. It carries no payload: request
/// fields land in the caller's reusable [`Request`] and frame records in
/// the caller's reusable `Vec<BinInvoke>`, so the per-message parse
/// allocates nothing once those buffers are warm.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete HTTP request was written into the caller's `Request`.
    Request,
    /// A complete SITW-BIN request frame was written into the caller's
    /// record buffer.
    Frame {
        /// The propagated trace id, when the frame carried one.
        trace: Option<u64>,
    },
    /// A SITW-BIN protocol error. When `recoverable`, the offending
    /// frame has been skipped (its envelope was intact) and the
    /// connection stays usable; otherwise the caller must answer the
    /// error frame and close.
    FrameError {
        /// The typed error to send back.
        code: BinErrorCode,
        /// Human-readable detail for the error frame.
        detail: String,
        /// The connection can continue after the error frame.
        recoverable: bool,
    },
    /// The peer closed the connection cleanly (between messages).
    Eof,
    /// No complete message is buffered and the socket has nothing more
    /// right now (read timeout on blocking sockets, `WouldBlock` on
    /// non-blocking ones); partial bytes stay buffered and parsing
    /// resumes on the next call.
    Timeout,
    /// An HTTP request declared a `Content-Length` beyond
    /// [`MAX_BODY_BYTES`] (see [`ReadOutcome::BodyTooLarge`]).
    BodyTooLarge {
        /// The declared content length.
        declared: u64,
    },
}

/// Outcome of one [`ConnBuf::read_reply`] call: one message from a
/// daemon, or a stream condition. The message's exact bytes stay
/// readable through [`ConnBuf::reply_raw`] until the next read, so a
/// relay forwards them verbatim instead of re-encoding.
#[derive(Debug)]
pub enum Reply {
    /// A complete HTTP response, by status code; its body is
    /// [`ConnBuf::reply_body`].
    Http(u16),
    /// A complete SITW-BIN server frame, decoded — never `Incomplete`
    /// (the reader keeps filling) or `Malformed` (an `InvalidData`
    /// error).
    Frame(ServerFrameDecode),
    /// The peer closed the connection cleanly (between replies).
    Eof,
    /// No complete reply is buffered and the socket has nothing more
    /// right now (see [`ReadEvent::Timeout`]); nothing is lost.
    Timeout,
}

impl Reply {
    /// For a blocking caller that is owed a reply: a clean close or an
    /// expired read deadline (whichever error kind the platform raises
    /// for it) is a failure like any other.
    pub fn owed(self) -> io::Result<Reply> {
        let (kind, what) = match self {
            Reply::Eof => (io::ErrorKind::UnexpectedEof, "peer closed the connection"),
            Reply::Timeout => (io::ErrorKind::TimedOut, "read timed out"),
            reply => return Ok(reply),
        };
        Err(io::Error::new(kind, what))
    }

    /// The status of an HTTP response. Anything else is an error
    /// naming what arrived instead.
    pub fn status(self) -> io::Result<u16> {
        match self {
            Reply::Http(status) => Ok(status),
            other => Err(invalid(format!("expected an http response, got {other:?}"))),
        }
    }

    /// The verdicts of a reply frame. Anything else — a typed error
    /// frame included — is an error naming what arrived instead.
    pub fn records(self) -> io::Result<Vec<BinReply>> {
        match self {
            Reply::Frame(ServerFrameDecode::Reply { records, .. }) => Ok(records),
            other => Err(invalid(format!("expected a reply frame, got {other:?}"))),
        }
    }
}

/// Progress of a lame-duck drain (see [`ConnBuf::drain_nonblocking`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// The peer closed; the connection can now be dropped with a clean
    /// FIN exchange.
    Eof,
    /// The socket has no more bytes right now; keep draining on the next
    /// readiness event.
    Pending,
    /// The discard budget is spent; give up on politeness and drop.
    Overflow,
}

/// Buffered reader over a [`TcpStream`] that survives read timeouts.
pub struct ConnBuf {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    /// Unread bytes of a malformed-but-delimited SITW-BIN frame still to
    /// discard before the next message boundary.
    skip_remaining: usize,
    /// Span of the reply the last [`ConnBuf::read_reply`] consumed
    /// (empty unless that call returned a message).
    reply: Range<usize>,
    /// Where that reply's HTTP body starts (`reply.end` for frames).
    reply_body_at: usize,
}

/// How [`ConnBuf::frame_http`] left the next HTTP message: fully
/// buffered (header block with its blank line, then body) but not yet
/// consumed; not all there yet; or declaring a body over the cap, for
/// which nothing was buffered.
enum HttpFrame {
    Ready { head_len: usize, body_len: usize },
    Timeout,
    TooLarge { declared: u64 },
}

impl ConnBuf {
    /// Wraps a stream (whose read timeout the caller configures). The
    /// buffer starts empty and unallocated — an accepted connection that
    /// never sends costs no heap at all.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            start: 0,
            skip_remaining: 0,
            reply: 0..0,
            reply_body_at: 0,
        }
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True while a malformed-but-delimited frame is still being
    /// discarded. The connection is mid-message for timeout purposes —
    /// the buffer may be empty, but the peer owes us skip bytes.
    pub fn skipping(&self) -> bool {
        self.skip_remaining > 0
    }

    /// The underlying stream. The reactor writes responses through it
    /// (`Write` is implemented for `&TcpStream`), so a non-blocking
    /// connection needs no `try_clone`.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads more bytes from the socket into the buffer.
    ///
    /// Returns `Ok(0)` on EOF, `Err` with `WouldBlock`/`TimedOut` on a
    /// read timeout.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            // A burst (one big frame) must not pin its buffer for the
            // rest of a long-lived keep-alive connection: thousands of
            // mostly idle sockets only stay cheap if quiescent buffers
            // return to a small footprint.
            if self.buf.capacity() > 256 * 1024 {
                self.buf.shrink_to(16 * 1024);
            }
        } else if self.start > 4096 && self.start * 2 > self.buf.len() {
            // Compact once the consumed prefix dominates.
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; READ_WINDOW];
        let n = loop {
            match self.stream.read(&mut chunk) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Reads more bytes for a message already under way: `Ok(false)` is
    /// a read timeout (nothing consumed, so parsing resumes exactly
    /// where it stopped), and EOF is an error naming where the stream
    /// ended.
    fn fill_more(&mut self, eof: &'static str) -> io::Result<bool> {
        match self.fill() {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof)),
            Ok(_) => Ok(true),
            Err(e) if is_timeout(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Waits for the first byte of the next message — the protocol
    /// sniff both directions share — or hands back the caller's event
    /// for a clean `eof` or a read `timeout`.
    fn sniff<T>(&mut self, eof: T, timeout: T) -> io::Result<Result<u8, T>> {
        while self.buffered() == 0 {
            match self.fill() {
                Ok(0) => return Ok(Err(eof)),
                Ok(_) => {}
                Err(e) if is_timeout(&e) => return Ok(Err(timeout)),
                Err(e) => return Err(e),
            }
        }
        Ok(Ok(self.buf[self.start]))
    }

    /// The reactor's lame-duck drain after a fatal error's response: the
    /// write side is shut down, and unread request bytes are discarded so
    /// the close cannot turn into an RST that destroys the response.
    /// Discards everything buffered plus whatever the socket can deliver
    /// right now, decrementing `budget`.
    /// The caller keeps the connection registered for reads and calls
    /// this again until EOF (clean close), an exhausted budget, or its
    /// own deadline.
    pub fn drain_nonblocking(&mut self, budget: &mut usize) -> DrainOutcome {
        *budget = budget.saturating_sub(self.buffered() + self.skip_remaining);
        self.buf.clear();
        self.start = 0;
        self.skip_remaining = 0;
        loop {
            if *budget == 0 {
                return DrainOutcome::Overflow;
            }
            let mut chunk = [0u8; READ_WINDOW];
            match self.stream.read(&mut chunk) {
                Ok(0) => return DrainOutcome::Eof,
                Ok(n) => *budget = budget.saturating_sub(n),
                Err(e) if is_timeout(&e) => return DrainOutcome::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The connection is unusable either way; treat as gone.
                Err(_) => return DrainOutcome::Eof,
            }
        }
    }

    /// Parses the next pipelined message — HTTP request or SITW-BIN
    /// frame, sniffed on the first unconsumed byte — reading from the
    /// socket as needed. The message lands in caller-owned buffers:
    /// request fields in `req`, frame records in `records` (both
    /// overwritten and reused across calls, so a warm connection parses
    /// without allocating).
    pub fn read_event_into(
        &mut self,
        req: &mut Request,
        records: &mut Vec<BinInvoke>,
    ) -> io::Result<ReadEvent> {
        // Finish discarding a malformed-but-delimited frame first, so a
        // skip larger than the buffer never has to be buffered whole.
        while self.skip_remaining > 0 {
            let have = self.buffered().min(self.skip_remaining);
            self.start += have;
            self.skip_remaining -= have;
            if self.skip_remaining > 0 {
                // The buffer is drained: wait for more of the dead frame.
                if let Err(condition) = self.sniff(ReadEvent::Eof, ReadEvent::Timeout)? {
                    return Ok(condition);
                }
            }
        }
        match self.sniff(ReadEvent::Eof, ReadEvent::Timeout)? {
            Err(condition) => Ok(condition),
            Ok(wire::BIN_MAGIC) => self.read_frame_into(records),
            Ok(_) => self.read_http_into(req),
        }
    }

    /// Parses the next SITW-BIN frame into `records`. The first
    /// unconsumed byte is already known to be [`wire::BIN_MAGIC`].
    fn read_frame_into(&mut self, records: &mut Vec<BinInvoke>) -> io::Result<ReadEvent> {
        loop {
            match wire::decode_request_frame_into(&self.buf[self.start..], records) {
                FrameDecodeInto::Request { trace, consumed } => {
                    self.start += consumed;
                    return Ok(ReadEvent::Frame { trace });
                }
                FrameDecodeInto::Error { code, detail, skip } => {
                    let recoverable = skip.is_some();
                    if let Some(total) = skip {
                        // Consume what is buffered now; the rest is
                        // discarded lazily on the next read_event_into call.
                        let have = self.buffered().min(total);
                        self.start += have;
                        self.skip_remaining = total - have;
                    }
                    return Ok(ReadEvent::FrameError {
                        code,
                        detail,
                        recoverable,
                    });
                }
                FrameDecodeInto::Incomplete => {
                    if !self.fill_more("eof mid-frame")? {
                        return Ok(ReadEvent::Timeout);
                    }
                }
            }
        }
    }

    /// Parses the next pipelined HTTP request, reading from the socket
    /// as needed. A SITW-BIN frame on the connection is a protocol
    /// error through this entry point — servers use
    /// [`ConnBuf::read_event_into`], which speaks both.
    pub fn read_request(&mut self) -> io::Result<ReadOutcome> {
        let mut req = Request::default();
        match self.read_event_into(&mut req, &mut Vec::new())? {
            ReadEvent::Request => Ok(ReadOutcome::Request(req)),
            ReadEvent::Eof => Ok(ReadOutcome::Eof),
            ReadEvent::Timeout => Ok(ReadOutcome::Timeout),
            ReadEvent::BodyTooLarge { declared } => Ok(ReadOutcome::BodyTooLarge { declared }),
            ReadEvent::Frame { .. } | ReadEvent::FrameError { .. } => {
                Err(invalid("unexpected binary frame on an http-only reader"))
            }
        }
    }

    /// Buffers one complete HTTP message — request or response, the
    /// framing is the same — without consuming it. The declared content
    /// length is checked against `max_body` *before* any of the body is
    /// waited for.
    // sitw-lint: hot-path
    fn frame_http(
        &mut self,
        max_body: usize,
        head: impl FnMut(&[u8]) -> Result<u64, String>,
    ) -> io::Result<HttpFrame> {
        let more = |conn: &mut Self| conn.fill_more("eof mid-header");
        let Some((head_len, declared)) = self.frame_head(head, more)? else {
            return Ok(HttpFrame::Timeout);
        };
        if declared > max_body as u64 {
            return Ok(HttpFrame::TooLarge { declared });
        }
        let body_len = declared as usize;
        // A timeout while the body trickles in surfaces like the
        // mid-header one — otherwise a stalled peer would pin this thread
        // in a loop that never returns to the caller's shutdown poll or
        // deadline.
        while self.buffered() < head_len + body_len {
            if !self.fill_more("eof mid-body")? {
                return Ok(HttpFrame::Timeout);
            }
        }
        Ok(HttpFrame::Ready { head_len, body_len })
    }

    /// Buffers the next message's header block without consuming it:
    /// its length with the blank line, and the content length `head`
    /// parses out of it. The block is capped at [`MAX_HEADER_BYTES`]. The
    /// cap is on where the blank line starts, not on what happens to be
    /// buffered, so a block is refused or accepted the same way however
    /// the peer's bytes were segmented. `more` reads more bytes; `None`
    /// when it found none yet (`Ok(false)`).
    // sitw-lint: hot-path
    fn frame_head(
        &mut self,
        mut head: impl FnMut(&[u8]) -> Result<u64, String>,
        mut more: impl FnMut(&mut Self) -> io::Result<bool>,
    ) -> io::Result<Option<(usize, u64)>> {
        loop {
            let window = &self.buf[self.start..];
            if let Some(header_end) = find_crlfcrlf(window) {
                if header_end > MAX_HEADER_BYTES {
                    return Err(invalid("header too large"));
                }
                let declared = head(&window[..header_end]).map_err(invalid)?;
                return Ok(Some((header_end + 4, declared)));
            }
            // No blank line yet: once none can start within the cap, the
            // block is too large however the rest arrives.
            if self.buffered() >= MAX_HEADER_BYTES + 4 {
                return Err(invalid("header too large"));
            }
            if !more(self)? {
                return Ok(None);
            }
        }
    }

    /// Parses the next HTTP request from the buffer into `req`.
    fn read_http_into(&mut self, req: &mut Request) -> io::Result<ReadEvent> {
        match self.frame_http(MAX_BODY_BYTES, |header| parse_header(header, req))? {
            HttpFrame::Ready { head_len, body_len } => {
                let body_at = self.start + head_len;
                req.body.clear();
                req.body
                    .extend_from_slice(&self.buf[body_at..body_at + body_len]);
                self.start = body_at + body_len;
                Ok(ReadEvent::Request)
            }
            HttpFrame::Timeout => Ok(ReadEvent::Timeout),
            HttpFrame::TooLarge { declared } => Ok(ReadEvent::BodyTooLarge { declared }),
        }
    }

    /// Reads the next reply from a daemon — one HTTP response or one
    /// SITW-BIN server frame, sniffed like [`ConnBuf::read_event_into`]
    /// sniffs requests — on blocking and non-blocking sockets alike: a
    /// partial reply stays buffered across [`Reply::Timeout`].
    ///
    /// Replies are bounded like requests. A header block over 16 KiB, a
    /// declared body over [`MAX_REPLY_BODY_BYTES`], a frame payload over
    /// [`wire::MAX_FRAME_PAYLOAD`] or an unparsable `content-length` is
    /// an `InvalidData` error raised before the excess is buffered.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        self.read_reply_capped(MAX_REPLY_BODY_BYTES)
    }

    // sitw-lint: hot-path
    fn read_reply_capped(&mut self, max_body: usize) -> io::Result<Reply> {
        self.reply = 0..0;
        match self.sniff(Reply::Eof, Reply::Timeout)? {
            Err(condition) => Ok(condition),
            Ok(wire::BIN_MAGIC) => self.read_reply_frame(),
            Ok(_) => self.read_http_reply(max_body),
        }
    }

    /// Frames the next HTTP response (status line, `content-length`
    /// body). The body is not copied: it stays in the buffer behind
    /// [`ConnBuf::reply_body`].
    // sitw-lint: hot-path
    fn read_http_reply(&mut self, max_body: usize) -> io::Result<Reply> {
        let mut status = 0u16;
        match self.frame_http(max_body, |header| parse_status(header, &mut status))? {
            HttpFrame::Ready { head_len, body_len } => {
                self.reply_body_at = self.start + head_len;
                self.reply = self.start..self.reply_body_at + body_len;
                self.start = self.reply.end;
                Ok(Reply::Http(status))
            }
            HttpFrame::Timeout => Ok(Reply::Timeout),
            HttpFrame::TooLarge { .. } => Err(invalid("reply body too large")),
        }
    }

    /// Decodes the next server frame — the one place
    /// [`wire::decode_server_frame`] runs over socket reads. A new
    /// server frame kind is one pattern here.
    // sitw-lint: hot-path
    fn read_reply_frame(&mut self) -> io::Result<Reply> {
        loop {
            let frame = wire::decode_server_frame(&self.buf[self.start..]);
            let consumed = match &frame {
                ServerFrameDecode::Reply { consumed, .. }
                | ServerFrameDecode::Error { consumed, .. } => *consumed,
                ServerFrameDecode::Incomplete => {
                    if !self.fill_more("eof mid-frame")? {
                        return Ok(Reply::Timeout);
                    }
                    continue;
                }
                ServerFrameDecode::Malformed(detail) => return Err(invalid(detail.as_str())),
            };
            self.reply = self.start..self.start + consumed;
            self.reply_body_at = self.reply.end;
            self.start = self.reply.end;
            return Ok(Reply::Frame(frame));
        }
    }

    /// Reads one HTTP response on a blocking socket and hands its body to
    /// `sink` as the reads deliver it, so the body is never buffered
    /// whole: the head is framed under the header cap as
    /// [`ConnBuf::read_reply`] frames it, then each piece of the body is
    /// at most one read (16 KiB). The body is not capped; the caller
    /// bounds it by `deadline`. EOF anywhere in the response is an
    /// `UnexpectedEof` error; a read timeout, or a read that returns past
    /// `deadline`, is `TimedOut`. Returns the status.
    pub fn stream_reply(
        &mut self,
        deadline: Instant,
        mut sink: impl FnMut(&[u8]),
    ) -> io::Result<u16> {
        self.reply = 0..0;
        // sitw-lint: allow(clock-discipline)
        let owed = |conn: &mut Self, eof| Ok(conn.fill_more(eof)? && Instant::now() <= deadline);
        let timed_out = || io::Error::new(io::ErrorKind::TimedOut, "reply timed out");
        let mut status = 0u16;
        let head = |header: &[u8]| parse_status(header, &mut status);
        let framed = self.frame_head(head, |conn| owed(conn, "eof mid-header"))?;
        let (head_len, mut left) = framed.ok_or_else(timed_out)?;
        self.start += head_len;
        while left > 0 {
            if self.buffered() == 0 && !owed(self, "eof mid-body")? {
                return Err(timed_out());
            }
            let piece = left.min(self.buffered() as u64) as usize;
            sink(&self.buf[self.start..self.start + piece]);
            self.start += piece;
            left -= piece as u64;
        }
        Ok(status)
    }

    /// The buffer's capacity, which bounds what a reader ever held.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The exact bytes of the reply the last [`ConnBuf::read_reply`]
    /// returned (status line through body, or frame header through
    /// payload); empty after `Eof`, `Timeout` or an error.
    pub fn reply_raw(&self) -> &[u8] {
        self.buf.get(self.reply.clone()).unwrap_or_default()
    }

    /// The body of the HTTP response the last [`ConnBuf::read_reply`]
    /// returned (empty for frames).
    pub fn reply_body(&self) -> &[u8] {
        self.buf
            .get(self.reply_body_at..self.reply.end)
            .unwrap_or_default()
    }
}

/// A protocol violation: what the peer sent is not the message owed.
pub(crate) fn invalid(what: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Where the first `\r\n\r\n` in `buf` starts. A skip-ahead (Horspool)
/// scan: the byte under the window's last position says how far the
/// window can move — four on anything that is neither `\r` nor `\n`,
/// which is almost every byte of a header.
// sitw-lint: hot-path
fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(&last) = buf.get(i + 3) {
        match last {
            b'\n' if buf.get(i..i + 3) == Some(b"\r\n\r") => return Some(i),
            b'\n' => i += 2,
            b'\r' => i += 1,
            _ => i += 4,
        }
    }
    None
}

/// Parses a header block into `req` (method, path, close flag; the body
/// is the caller's job) and returns the declared content length. Writes
/// into `req`'s existing `String`s so a reused `Request` parses without
/// allocating.
// sitw-lint: hot-path
fn parse_header(header: &[u8], req: &mut Request) -> Result<u64, String> {
    match parse_invoke_header(header, req) {
        Some(content_length) => Ok(content_length),
        None => parse_header_general(header, req),
    }
}

/// The request line of a decision, as every client here writes it.
const INVOKE_LINE: &[u8] = b"POST /invoke HTTP/1.1";

/// The early exit of [`parse_header`] (grammar in the module docs): the
/// declared content length when it accepts the whole block, `None` —
/// with `req` untouched — on the first byte it does not.
// sitw-lint: hot-path
pub(crate) fn parse_invoke_header(header: &[u8], req: &mut Request) -> Option<u64> {
    let mut rest = header.strip_prefix(INVOKE_LINE)?;
    let mut content_length = 0;
    while !rest.is_empty() {
        rest = rest.strip_prefix(b"\r\n")?;
        let end = rest
            .iter()
            .position(|b| !(b' '..=b'~').contains(b))
            .unwrap_or(rest.len());
        let (line, next) = rest.split_at(end);
        rest = next;
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], &line[colon + 1..]);
        if name.eq_ignore_ascii_case(b"content-length") {
            content_length = wire::short_decimal(value.trim_ascii())?;
        } else if name.eq_ignore_ascii_case(b"connection")
            || name.eq_ignore_ascii_case(b"x-sitw-trace")
        {
            return None;
        }
    }
    req.method.clear();
    req.method.push_str("POST");
    req.path.clear();
    req.path.push_str("/invoke");
    req.close = false;
    req.trace = None;
    Some(content_length)
}

/// The general request-header parser: any request line and header set
/// [`parse_header`] supports, and the reference its early exit is held
/// to.
fn parse_header_general(header: &[u8], req: &mut Request) -> Result<u64, String> {
    let text = std::str::from_utf8(header).map_err(|_| "non-utf8 header")?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or("missing method")?;
    let path = parts.next().ok_or("missing path")?;
    let version = parts.next().ok_or("missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version}"));
    }
    req.method.clear();
    req.method.push_str(method);
    req.path.clear();
    req.path.push_str(path);

    let mut content_length = 0u64;
    let mut close = version == "HTTP/1.0";
    let mut trace = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = parse_content_length(value)?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("x-sitw-trace") {
            // An unparsable id is dropped, not an error: tracing is
            // best-effort observability, never a reason to 400.
            let hex = value.strip_prefix("0x").unwrap_or(value);
            trace = u64::from_str_radix(hex, 16).ok();
        }
    }
    req.close = close;
    req.trace = trace;
    Ok(content_length)
}

/// A `content-length` value, identically strict in both directions.
fn parse_content_length(value: &str) -> Result<u64, String> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err("bad content-length".into());
    }
    // A value overflowing u64 is still a (ridiculous) length: saturate
    // so it hits the too-large path, not a parse error.
    Ok(value.parse::<u64>().unwrap_or(u64::MAX))
}

/// Parses a response header block: the status code lands in `status`,
/// the declared content length (0 when absent) is returned.
fn parse_status(header: &[u8], status: &mut u16) -> Result<u64, String> {
    let text = std::str::from_utf8(header).map_err(|_| "non-utf8 header")?;
    let mut lines = text.split("\r\n");
    let code = lines
        .next()
        .and_then(|line| line.strip_prefix("HTTP/1."))
        .and_then(|rest| rest.split_ascii_whitespace().nth(1));
    *status = code.and_then(|c| c.parse().ok()).ok_or("bad status line")?;
    let mut content_length = 0u64;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if name.eq_ignore_ascii_case("content-length") {
            content_length = parse_content_length(value.trim())?;
        }
    }
    Ok(content_length)
}

/// Writes a full request (request line, headers, body) to `out` — the
/// twin of [`write_response`], for any writer: a `Vec` (which cannot
/// fail) or a buffered upstream socket. `trace` adds the `x-sitw-trace`
/// header that carries a propagated trace id to the serving node.
pub fn write_request(
    out: &mut impl Write,
    method: &str,
    path: &str,
    trace: Option<u64>,
    body: &[u8],
) -> io::Result<()> {
    out.write_all(method.as_bytes())?;
    out.write_all(b" ")?;
    out.write_all(path.as_bytes())?;
    out.write_all(b" HTTP/1.1\r\n")?;
    if let Some(id) = trace {
        write!(out, "x-sitw-trace: {id:#018x}\r\n")?;
    }
    write!(out, "content-length: {}\r\n\r\n", body.len())?;
    out.write_all(body)
}

/// One request/response exchange on a fresh connection — the control
/// plane's client (provisioning, scrapes, health probes, standby
/// promotion).
/// Returns `(status, body)`; the body may run to
/// [`MAX_CONTROL_REPLY_BYTES`]. `connect` bounds the TCP connect and
/// the request write, `read` the wait for the response.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    connect: Duration,
    read: Duration,
) -> io::Result<(u16, String)> {
    let stream = TcpStream::connect_timeout(&addr, connect)?;
    stream.set_write_timeout(Some(connect))?;
    stream.set_read_timeout(Some(read))?;
    let mut conn = ConnBuf::new(stream);
    let mut request = Vec::with_capacity(128 + body.len());
    write_request(&mut request, method, path, None, body)?;
    conn.stream().write_all(&request)?;
    let status = conn
        .read_reply_capped(MAX_CONTROL_REPLY_BYTES)?
        .owed()?
        .status()?;
    let body = String::from_utf8_lossy(conn.reply_body()).into_owned();
    Ok((status, body))
}

/// Appends a full response (status line, headers, body) to `out`.
pub fn write_response(out: &mut Vec<u8>, status: u16, content_type: &str, body: &[u8]) {
    write_head(out, status, content_type);
    crate::wire::push_u64(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Appends a 200 response whose body `body` writes straight into `out`
/// behind its head, so a large body is never built apart and copied. The
/// `content-length` is written 20 digits wide, zero-padded (any `usize`
/// fits), and patched once the body is written.
pub(crate) fn write_response_in_place<T>(
    out: &mut Vec<u8>,
    content_type: &str,
    body: impl FnOnce(&mut Vec<u8>) -> T,
) -> T {
    write_head(out, 200, content_type);
    let digits = out.len()..out.len() + 20;
    out.extend_from_slice(b"00000000000000000000\r\n\r\n");
    let body_at = out.len();
    let result = body(out);
    let len = format!("{:020}", out.len() - body_at);
    out[digits].copy_from_slice(len.as_bytes());
    result
}

/// The status line and headers up to the `content-length` value.
fn write_head(out: &mut Vec<u8>, status: u16, content_type: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    };
    out.extend_from_slice(b"HTTP/1.1 ");
    crate::wire::push_u64(out, status as u64);
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\ncontent-type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\ncontent-length: ");
}

/// One row of a daemon's route table: `(method, path, handler tag)`. A
/// daemon declares its HTTP surface once, as a table of these; dispatch
/// ([`lookup`]), its 404s and 405s, and its startup `endpoints:` line
/// ([`endpoints_line`]) all read that table. Paths match exactly.
pub type Route<T> = (&'static str, &'static str, T);

/// Looks `method` and `target` (a path with an optional `?query`) up in
/// `table`: the matching row's handler tag and the query (`""` when
/// absent). A path some row has under another method is refused `405`,
/// any other path `404`. Linear: tables are a few dozen rows and only
/// control requests come here.
pub fn lookup<'a, T>(
    table: &'a [Route<T>],
    method: &str,
    target: &'a str,
) -> Result<(&'a T, &'a str), (u16, &'static str)> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut known = false;
    for (row_method, row_path, to) in table {
        if *row_path == path {
            if *row_method == method {
                return Ok((to, query));
            }
            known = true;
        }
    }
    Err(if known {
        (405, "method not allowed")
    } else {
        (404, "not found")
    })
}

/// The value of the first `key=value` pair named `key` in the query
/// string `lookup` split off, wherever it stands among the others.
pub fn query_arg<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    (query.split('&')).find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
}

/// The `endpoints:` line a daemon prints at startup: every row of its
/// table, `METHOD PATH`, in table order.
pub fn endpoints_line<T>(table: &[Route<T>]) -> String {
    let rows: Vec<String> = table.iter().map(|(m, p, _)| format!("{m} {p}")).collect();
    format!("endpoints: {}", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::samples::Rng;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn lookup_finds_rows_and_tells_405_from_404() {
        const TABLE: &[Route<u8>] = &[
            ("GET", "/items", 0),
            ("POST", "/items", 1),
            ("POST", "/items/sort", 2),
        ];
        assert_eq!(lookup(TABLE, "GET", "/items"), Ok((&0, "")));
        assert_eq!(lookup(TABLE, "POST", "/items?x=1&y"), Ok((&1, "x=1&y")));
        assert_eq!(lookup(TABLE, "POST", "/items/sort?q"), Ok((&2, "q")));
        for (method, path) in [("PUT", "/items"), ("GET", "/items/sort")] {
            assert_eq!(
                lookup(TABLE, method, path),
                Err((405, "method not allowed"))
            );
        }
        for path in ["/item", "/items/", "/items/a/sort", "/items/give", "/", ""] {
            assert_eq!(
                lookup(TABLE, "POST", path),
                Err((404, "not found")),
                "{path}"
            );
        }
        assert_eq!(
            endpoints_line(TABLE),
            "endpoints: GET /items, POST /items, POST /items/sort"
        );
    }

    #[test]
    fn query_arg_reads_a_key_wherever_it_stands() {
        for query in [
            "node=0",
            "x=1&node=0",
            "node=0&x=1",
            "nodes=7&x&node=0&node=1",
        ] {
            assert_eq!(query_arg(query, "node"), Some("0"), "{query}");
        }
        assert_eq!(query_arg("tenant=&to=2", "tenant"), Some(""));
        for query in ["", "node", "nodes=1", "x=node=1", "anode=1"] {
            assert_eq!(query_arg(query, "node"), None, "{query}");
        }
    }

    #[test]
    fn parses_pipelined_requests_and_eof() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);

        client
            .write_all(
                b"POST /invoke HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello\
                  GET /healthz HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let r1 = match conn.read_request().unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(r1.method, "POST");
        assert_eq!(r1.path, "/invoke");
        assert_eq!(r1.body, b"hello");
        assert!(!r1.close);

        let r2 = match conn.read_request().unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!((r2.method.as_str(), r2.path.as_str()), ("GET", "/healthz"));

        drop(client);
        assert!(matches!(conn.read_request().unwrap(), ReadOutcome::Eof));
    }

    #[test]
    fn timeout_preserves_partial_request() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let mut conn = ConnBuf::new(server);

        client.write_all(b"GET /heal").unwrap();
        assert!(matches!(conn.read_request().unwrap(), ReadOutcome::Timeout));
        client.write_all(b"thz HTTP/1.1\r\n\r\n").unwrap();
        let r = match conn.read_request().unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(r.path, "/healthz");
    }

    #[test]
    fn oversized_content_length_rejected_without_allocation() {
        // Regression: a huge Content-Length used to be trusted; now it
        // surfaces as BodyTooLarge before any body buffering.
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        client
            .write_all(b"POST /invoke HTTP/1.1\r\ncontent-length: 109951162777600\r\n\r\n")
            .unwrap();
        match conn.read_request().unwrap() {
            ReadOutcome::BodyTooLarge { declared } => assert_eq!(declared, 109_951_162_777_600),
            other => panic!("{other:?}"),
        }

        // A Content-Length overflowing u64 saturates into the same path.
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        client
            .write_all(b"POST /invoke HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n")
            .unwrap();
        match conn.read_request().unwrap() {
            ReadOutcome::BodyTooLarge { declared } => assert_eq!(declared, u64::MAX),
            other => panic!("{other:?}"),
        }

        // Non-numeric lengths are still malformed requests, not 413s.
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        client
            .write_all(b"POST /invoke HTTP/1.1\r\ncontent-length: -1\r\n\r\n")
            .unwrap();
        assert!(conn.read_request().is_err());

        // The cap itself is inclusive: exactly MAX_BODY_BYTES is served.
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        let mut req = format!("POST /invoke HTTP/1.1\r\ncontent-length: {MAX_BODY_BYTES}\r\n\r\n")
            .into_bytes();
        req.extend_from_slice(&vec![b'x'; MAX_BODY_BYTES]);
        // Write from a thread: a 1 MiB body overflows the socket buffer,
        // so the writer must run concurrently with the reader.
        let writer = std::thread::spawn(move || client.write_all(&req).unwrap());
        loop {
            match conn.read_request().unwrap() {
                ReadOutcome::Request(r) => {
                    assert_eq!(r.body.len(), MAX_BODY_BYTES);
                    break;
                }
                ReadOutcome::Timeout => continue,
                other => panic!("{other:?}"),
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn connection_close_header_detected() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        client
            .write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let r = match conn.read_request().unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert!(r.close);
    }

    #[test]
    fn trace_header_parses_hex_and_resets_between_requests() {
        let mut req = Request::default();
        parse_header(
            b"POST /invoke HTTP/1.1\r\nX-Sitw-Trace: 0x8000000000000bee\r\ncontent-length: 0",
            &mut req,
        )
        .unwrap();
        assert_eq!(req.trace, Some(0x8000_0000_0000_0bee));
        // Bare hex (no 0x) also parses; case-insensitive header name.
        parse_header(b"GET / HTTP/1.1\r\nx-sitw-trace: ff", &mut req).unwrap();
        assert_eq!(req.trace, Some(0xff));
        // A reused Request must not leak the previous trace id.
        parse_header(b"GET / HTTP/1.1", &mut req).unwrap();
        assert_eq!(req.trace, None);
        // Garbage is dropped, never a parse error.
        parse_header(b"GET / HTTP/1.1\r\nX-Sitw-Trace: not-hex", &mut req).unwrap();
        assert_eq!(req.trace, None);
    }

    #[test]
    fn traced_v2_frame_surfaces_trace_id() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        let (mut req, mut records) = (Request::default(), Vec::new());
        let mut frame = Vec::new();
        let records_in = [(1, "app-000001", 7)].into_iter();
        wire::encode_request_frame_v2_from(&mut frame, records_in, Some(0xBEEF));
        client.write_all(&frame).unwrap();
        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::Frame { trace } => {
                assert_eq!(trace, Some(0xBEEF));
                assert_eq!(records.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sniffs_binary_frames_next_to_http_on_one_connection() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        let (mut req, mut records) = (Request::default(), Vec::new());

        // HTTP request, then a SITW-BIN frame, then HTTP again — the
        // sniff is per message, not per connection.
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut frame = Vec::new();
        wire::encode_request_frame_v2(&mut frame, &[(0, "app-000001", 7), (0, "caf\u{e9}", 8)]);
        client.write_all(&frame).unwrap();
        client.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();

        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::Request => assert_eq!(req.path, "/healthz"),
            other => panic!("{other:?}"),
        }
        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::Frame { trace } => {
                assert_eq!(trace, None);
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].app, "app-000001");
                assert_eq!(records[0].tenant, 0);
                assert_eq!(records[1].app, "caf\u{e9}");
            }
            other => panic!("{other:?}"),
        }
        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::Request => assert_eq!(req.path, "/metrics"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_split_at_every_byte_boundary_reassembles() {
        // The frame arrives in two reads split at byte i, for every i:
        // the first read must surface Timeout (partial frame preserved),
        // the second must complete it.
        let mut frame = Vec::new();
        wire::encode_request_frame_v2(&mut frame, &[(0, "app-β-000001", 123_456_789), (0, "x", 0)]);
        let (mut req, mut records) = (Request::default(), Vec::new());
        for i in 1..frame.len() {
            let (mut client, server) = pair();
            server
                .set_read_timeout(Some(Duration::from_millis(10)))
                .unwrap();
            let mut conn = ConnBuf::new(server);
            client.write_all(&frame[..i]).unwrap();
            match conn.read_event_into(&mut req, &mut records).unwrap() {
                ReadEvent::Timeout => {}
                other => panic!("split at {i}: {other:?}"),
            }
            client.write_all(&frame[i..]).unwrap();
            loop {
                match conn.read_event_into(&mut req, &mut records).unwrap() {
                    ReadEvent::Frame { .. } => {
                        assert_eq!(records.len(), 2, "split at {i}");
                        assert_eq!(records[0].app, "app-β-000001");
                        break;
                    }
                    ReadEvent::Timeout => continue,
                    other => panic!("split at {i}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn recoverable_frame_error_skips_and_keeps_reading() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        let (mut req, mut records) = (Request::default(), Vec::new());

        // A malformed frame (empty app) with an intact envelope,
        // followed immediately by a good frame.
        let mut bad_payload = vec![0u8, 0, 0, 0];
        bad_payload.extend_from_slice(&7u64.to_le_bytes());
        bad_payload.push(0xAA);
        let mut bad = Vec::new();
        bad.push(wire::BIN_MAGIC);
        bad.push(wire::BIN_VERSION_2);
        bad.push(wire::FRAME_REQUEST);
        bad.extend_from_slice(&(bad_payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&bad_payload);
        client.write_all(&bad).unwrap();
        let mut good = Vec::new();
        wire::encode_request_frame_v2(&mut good, &[(0, "ok", 1)]);
        client.write_all(&good).unwrap();

        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::FrameError {
                code, recoverable, ..
            } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert!(recoverable);
            }
            other => panic!("{other:?}"),
        }
        loop {
            match conn.read_event_into(&mut req, &mut records).unwrap() {
                ReadEvent::Frame { .. } => {
                    assert_eq!(records[0].app, "ok");
                    break;
                }
                ReadEvent::Timeout => continue,
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn oversized_batch_error_skips_payload_larger_than_buffer() {
        // Header declares count > MAX_BATCH with a large (but capped)
        // payload; the error surfaces from the header alone and the
        // payload is discarded incrementally, then a good frame parses.
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut conn = ConnBuf::new(server);
        let (mut req, mut records) = (Request::default(), Vec::new());

        let payload_len = 256 * 1024;
        let mut bad = Vec::new();
        bad.push(wire::BIN_MAGIC);
        bad.push(wire::BIN_VERSION_2);
        bad.push(wire::FRAME_REQUEST);
        bad.extend_from_slice(&(payload_len as u32).to_le_bytes());
        bad.extend_from_slice(&((wire::MAX_BATCH + 1) as u32).to_le_bytes());
        client.write_all(&bad).unwrap();

        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::FrameError {
                code, recoverable, ..
            } => {
                assert_eq!(code, BinErrorCode::Oversized);
                assert!(recoverable);
            }
            other => panic!("{other:?}"),
        }

        // Stream the dead payload from a thread (it exceeds the socket
        // buffer), then the good frame.
        let mut good = Vec::new();
        wire::encode_request_frame_v2(&mut good, &[(0, "alive", 9)]);
        let writer = std::thread::spawn(move || {
            client.write_all(&vec![0u8; payload_len]).unwrap();
            client.write_all(&good).unwrap();
            client
        });
        loop {
            match conn.read_event_into(&mut req, &mut records).unwrap() {
                ReadEvent::Frame { .. } => {
                    assert_eq!(records[0].app, "alive");
                    assert_eq!(records[0].ts, 9);
                    break;
                }
                ReadEvent::Timeout => continue,
                other => panic!("{other:?}"),
            }
        }
        drop(writer.join().unwrap());
    }

    #[test]
    fn response_formatting() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    // -----------------------------------------------------------------
    // The reply direction, mirroring the request-side tests above.

    #[test]
    fn request_formatting_parses_back_through_the_request_reader() {
        let (mut client, server) = pair();
        let mut conn = ConnBuf::new(server);
        let mut out = Vec::new();
        write_request(
            &mut out,
            "POST",
            "/invoke",
            Some(0x8000_0000_0000_0bee),
            b"{}",
        )
        .unwrap();
        assert_eq!(
            out,
            b"POST /invoke HTTP/1.1\r\nx-sitw-trace: 0x8000000000000bee\r\n\
              content-length: 2\r\n\r\n{}"
        );
        write_request(&mut out, "GET", "/healthz", None, b"").unwrap();
        client.write_all(&out).unwrap();
        let ReadOutcome::Request(r) = conn.read_request().unwrap() else {
            panic!("expected a request");
        };
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/invoke"));
        assert_eq!(
            (r.trace, r.body.as_slice()),
            (Some(0x8000_0000_0000_0bee), &b"{}"[..])
        );
        let ReadOutcome::Request(r) = conn.read_request().unwrap() else {
            panic!("expected a request");
        };
        assert_eq!(
            (r.path.as_str(), r.trace, r.body.len()),
            ("/healthz", None, 0)
        );
    }

    /// One message of every kind a daemon sends, back to back, with the
    /// byte ranges they occupy.
    fn mixed_reply_stream() -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
        let mut s = Vec::new();
        let mut spans = Vec::new();
        let mut push = |s: &mut Vec<u8>, write: &dyn Fn(&mut Vec<u8>)| {
            let start = s.len();
            write(s);
            spans.push(start..s.len());
        };
        push(&mut s, &|s| {
            write_response(s, 200, "application/json", b"{\"verdict\":\"cold\"}")
        });
        push(&mut s, &|s| {
            let records = [
                BinReply::Verdict {
                    cold: true,
                    prewarm_load: false,
                    evicted: true,
                    kind: sitw_core::DecisionKind::Histogram,
                    pre_warm_ms: 540_000,
                    keep_alive_ms: 186_000,
                },
                BinReply::OutOfOrder { last_ts: 77 },
                BinReply::Verdict {
                    cold: false,
                    prewarm_load: true,
                    evicted: false,
                    kind: sitw_core::DecisionKind::Arima,
                    pre_warm_ms: 1,
                    keep_alive_ms: u32::MAX,
                },
            ];
            wire::encode_reply_records(s, wire::BIN_VERSION_2, &records);
        });
        push(&mut s, &|s| {
            write_response(s, 503, "application/json", b"{\"error\":\"node n1 down\"}")
        });
        push(&mut s, &|s| {
            wire::encode_error_frame(s, BinErrorCode::Unavailable, "node n1 down")
        });
        push(&mut s, &|s| write_response(s, 200, "text/plain", b""));
        (s, spans)
    }

    /// Reads `n` replies off a non-blocking connection: each as its
    /// `Debug` rendering, its body and its raw bytes.
    fn read_replies(conn: &mut ConnBuf, n: usize) -> Vec<(String, Vec<u8>, Vec<u8>)> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < n {
            match conn.read_reply().unwrap() {
                Reply::Timeout => {
                    assert!(conn.reply_raw().is_empty() && conn.reply_body().is_empty());
                    assert!(std::time::Instant::now() < deadline, "stalled at {got:?}");
                    std::thread::yield_now();
                }
                reply => got.push((
                    format!("{reply:?}"),
                    conn.reply_body().to_vec(),
                    conn.reply_raw().to_vec(),
                )),
            }
        }
        got
    }

    #[test]
    fn mixed_reply_stream_reads_back_identically_at_every_split() {
        let (stream, spans) = mixed_reply_stream();
        let whole = {
            let (mut server, client) = pair();
            client.set_nonblocking(true).unwrap();
            server.write_all(&stream).unwrap();
            read_replies(&mut ConnBuf::new(client), spans.len())
        };
        // Decoded as what was written, and the raw span of every
        // message is exactly its bytes.
        let kinds: Vec<&str> = whole
            .iter()
            .map(|(debug, _, _)| {
                let kind = debug.strip_prefix("Frame(").unwrap_or(debug);
                kind.split([' ', '(']).next().unwrap()
            })
            .collect();
        assert_eq!(kinds, ["Http", "Reply", "Http", "Error", "Http"]);
        assert!(whole[0].0 == "Http(200)" && whole[2].0 == "Http(503)");
        assert!(whole[1].0.contains("OutOfOrder { last_ts: 77 }") && whole[1].0.contains("Arima"));
        assert!(whole[3].0.contains("Unavailable") && whole[3].0.contains("node n1 down"));
        assert_eq!(whole[0].1, b"{\"verdict\":\"cold\"}");
        assert!(whole[1].1.is_empty() && whole[4].1.is_empty());
        for ((_, _, raw), span) in whole.iter().zip(&spans) {
            assert_eq!(raw, &stream[span.clone()]);
        }
        // WouldBlock at any byte loses nothing and changes nothing.
        for cut in 1..stream.len() {
            let (mut server, client) = pair();
            client.set_nonblocking(true).unwrap();
            let mut conn = ConnBuf::new(client);
            server.write_all(&stream[..cut]).unwrap();
            let before = spans.iter().filter(|s| s.end <= cut).count();
            let mut got = read_replies(&mut conn, before);
            assert!(
                matches!(conn.read_reply().unwrap(), Reply::Timeout),
                "cut {cut}"
            );
            server.write_all(&stream[cut..]).unwrap();
            got.extend(read_replies(&mut conn, spans.len() - before));
            assert_eq!(got, whole, "cut {cut}");
            drop(server);
            while !matches!(conn.read_reply().unwrap(), Reply::Eof) {}
        }
    }

    #[test]
    fn reply_timeout_mid_header_mid_body_and_mid_frame_loses_nothing() {
        let (mut server, client) = pair();
        client
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut conn = ConnBuf::new(client);
        let mut frame = Vec::new();
        wire::encode_reply_records(
            &mut frame,
            wire::BIN_VERSION_2,
            &[BinReply::OutOfOrder { last_ts: 9 }; 4],
        );
        for piece in [
            &b"HTTP/1.1 200 OK\r\ncontent-le"[..],
            b"ngth: 10\r\n\r\n01234",
            b"56789",
            &frame[..wire::BIN_HEADER_LEN + 5],
            &frame[wire::BIN_HEADER_LEN + 5..],
        ] {
            assert!(matches!(conn.read_reply().unwrap(), Reply::Timeout));
            server.write_all(piece).unwrap();
            match conn.read_reply().unwrap() {
                Reply::Timeout => assert!(conn.buffered() > 0, "partial bytes stay buffered"),
                Reply::Http(status) => {
                    assert_eq!((status, conn.reply_body()), (200, &b"0123456789"[..]));
                    assert_eq!(piece, b"56789");
                }
                Reply::Frame(ServerFrameDecode::Reply { records, .. }) => {
                    assert_eq!(records, [BinReply::OutOfOrder { last_ts: 9 }; 4]);
                    assert_eq!(conn.reply_raw(), frame);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(conn.buffered(), 0);
    }

    #[test]
    fn reply_eof_between_replies_is_clean_and_mid_reply_is_an_error() {
        let mut frame = Vec::new();
        wire::encode_error_frame(&mut frame, BinErrorCode::Malformed, "x");
        let mut response = Vec::new();
        write_response(&mut response, 200, "text/plain", b"ok");
        for whole in [&frame, &response] {
            let (mut server, client) = pair();
            let mut conn = ConnBuf::new(client);
            server.write_all(whole).unwrap();
            drop(server);
            assert!(!matches!(
                conn.read_reply().unwrap(),
                Reply::Eof | Reply::Timeout
            ));
            assert!(matches!(conn.read_reply().unwrap(), Reply::Eof));
            // `owed` turns the clean close into the blocking caller's error.
            let owed = conn.read_reply().unwrap().owed().unwrap_err();
            assert_eq!(owed.kind(), io::ErrorKind::UnexpectedEof);
            for cut in [1, whole.len() / 2, whole.len() - 1] {
                let (mut server, client) = pair();
                let mut conn = ConnBuf::new(client);
                server.write_all(&whole[..cut]).unwrap();
                drop(server);
                let err = conn.read_reply().unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {err}");
            }
        }
    }

    #[test]
    fn replies_are_bounded_like_requests() {
        // Regression: no client-side reader capped what a peer could
        // make it buffer, and one of them read a bad length as 0.
        for (head, what) in [
            (
                &b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n"[..],
                "too large",
            ),
            (
                b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999999\r\n\r\n",
                "too large",
            ),
            (
                b"HTTP/1.1 200 OK\r\ncontent-length: banana\r\n\r\n",
                "bad content-length",
            ),
            (
                b"HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n",
                "bad content-length",
            ),
            (b"ICY 200 OK\r\n\r\n", "bad status line"),
            (b"HTTP/1.1 two-hundred\r\n\r\n", "bad status line"),
        ] {
            let (mut server, client) = pair();
            let mut conn = ConnBuf::new(client);
            server.write_all(head).unwrap();
            // The body never comes: the verdict is the header's alone.
            let err = conn.read_reply().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(what), "{err}");
            assert!(conn.buffered() <= head.len());
        }
        // A header flood is cut at the cap, not buffered to the end.
        let (server, client) = pair();
        let mut conn = ConnBuf::new(client);
        let flood = std::thread::spawn(move || {
            let mut server = server;
            let line = [b'x'; 1024];
            while server.write_all(&line).is_ok() {}
        });
        let err = conn.read_reply().unwrap_err();
        assert!(err.to_string().contains("header too large"), "{err}");
        assert!(
            conn.buffered() <= 2 * MAX_HEADER_BYTES,
            "{}",
            conn.buffered()
        );
        drop(conn);
        flood.join().unwrap();
    }

    // -----------------------------------------------------------------
    // The one-pass request read: the skip-ahead scan and the header
    // early exit against the general code they stand in front of.

    /// The scan the skip-ahead one replaced.
    fn find_crlfcrlf_ref(buf: &[u8]) -> Option<usize> {
        buf.windows(4).position(|w| w == b"\r\n\r\n")
    }

    /// A decision's header block as a client here writes it, sometimes
    /// with more header lines around the length.
    fn canonical_header(rng: &mut Rng) -> Vec<u8> {
        let mut lines = vec![format!("content-length: {}", rng.below(100_000))];
        for _ in 0..rng.below(3) {
            let extra = ["host: 127.0.0.1:7201", "user-agent: curl/8.5", "x-note:"];
            let at = rng.below(lines.len() as u64 + 1) as usize;
            lines.insert(at, rng.pick(&extra).into());
        }
        let mut out = INVOKE_LINE.to_vec();
        for line in lines {
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(line.as_bytes());
        }
        out
    }

    /// One to three edits of the kinds the early exit must hand over:
    /// case, every ASCII whitespace byte and `\x0B`, non-ASCII, leading
    /// zeros, 19- and 20-digit lengths, a trace id, `connection`, another
    /// version, deleted and replaced bytes.
    fn mutate_header(rng: &mut Rng, h: &mut Vec<u8>) {
        fn insert(h: &mut Vec<u8>, at: usize, bytes: &[u8]) {
            h.splice(at..at, bytes.iter().copied()).for_each(drop);
        }
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(h.len() as u64 + 1) as usize;
            match rng.below(11) {
                0 => {
                    if let Some(b) = h.get_mut(at) {
                        *b ^= if b.is_ascii_alphabetic() { 0x20 } else { 0 };
                    }
                }
                1 => h.insert(at, rng.pick(b" \t\x0B\x0C\r\n")),
                2 => insert(h, at, "é".as_bytes()),
                3 => h.insert(at, rng.pick(&[0x80, 0xFF, 0x00, 0x7F])),
                4 => h.extend_from_slice(rng.pick(&[
                    &b"\r\ncontent-length: 0007"[..],
                    b"\r\ncontent-length: 1234567890123456789",
                    b"\r\ncontent-length: 12345678901234567890",
                    b"\r\ncontent-length: 18446744073709551616",
                    b"\r\nContent-Length:  99999999999999999999999 ",
                    b"\r\ncontent-length:",
                    b"\r\ncontent-length: 4x",
                ])),
                5 => h.extend_from_slice(rng.pick(&[
                    &b"\r\nx-sitw-trace: 0x8000000000000bee"[..],
                    b"\r\nX-Sitw-Trace: ff",
                    b"\r\nx-sitw-trace: nope",
                    b"\r\nconnection: close",
                    b"\r\nConnection: keep-alive",
                ])),
                6 => {
                    let version = rng.pick(&["HTTP/1.0", "HTTP/2", "HTTP/1.1 extra", "HTTP/1.10"]);
                    h.splice(13..21.min(h.len()), version.bytes())
                        .for_each(drop);
                }
                7 if at < h.len() => {
                    h.remove(at);
                }
                8 if at < h.len() => h[at] = rng.next() as u8,
                _ => insert(h, at, b"\r\n"),
            }
        }
    }

    /// What one parser made of a block: its verdict and the scratch.
    type Parsed = (Result<u64, String>, Request);

    /// Both parsers from the same dirty scratch, as a reused connection's.
    fn both_parsers(header: &[u8]) -> (Parsed, Parsed) {
        let dirty = Request {
            method: "GET".into(),
            path: "/stale".into(),
            body: b"old".to_vec(),
            close: true,
            trace: Some(7),
        };
        let (mut fast, mut general) = (dirty.clone(), dirty);
        let got = parse_header(header, &mut fast);
        let want = parse_header_general(header, &mut general);
        ((got, fast), (want, general))
    }

    proptest::proptest! {
        #[test]
        fn skip_ahead_scan_equals_the_window_scan(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            picks in proptest::collection::vec(0usize..6, 0..96),
        ) {
            // Arbitrary bytes, and text over `\r`, `\n` and two others,
            // where blank lines start at every offset mod 4.
            let dense: Vec<u8> = picks.iter().map(|&i| b"\r\n\r\nab"[i]).collect();
            for buf in [&bytes, &dense] {
                let (got, want) = (find_crlfcrlf(buf), find_crlfcrlf_ref(buf));
                proptest::prop_assert!(got == want, "{got:?} != {want:?} on {buf:?}");
            }
        }

        #[test]
        fn header_early_exit_equals_the_general_parser(
            seed in 0u64..=u64::MAX,
            arbitrary in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            let rng = &mut Rng(seed);
            let canonical = canonical_header(rng);
            let mut mutated = canonical.clone();
            mutate_header(rng, &mut mutated);
            let mut tail = INVOKE_LINE.to_vec();
            tail.extend_from_slice(b"\r\n");
            tail.extend_from_slice(&arbitrary);
            for header in [&canonical, &mutated, &arbitrary, &tail] {
                let (got, want) = both_parsers(header);
                proptest::prop_assert!(
                    got == want,
                    "{got:?} != {want:?} on {:?}",
                    String::from_utf8_lossy(header)
                );
            }
            // The canonical block is the early exit's own.
            let mut req = Request::default();
            proptest::prop_assert!(parse_invoke_header(&canonical, &mut req).is_some());
        }
    }

    #[test]
    fn header_early_exit_hands_over_at_each_documented_edge() {
        // Each block is one the early exit must not answer: the general
        // parser's verdict is different from, or not provable by, a
        // canonical read.
        for header in [
            &b"POST /invoke HTTP/1.1\r\nx-sitw-trace: 0x10\r\ncontent-length: 2"[..],
            b"POST /invoke HTTP/1.1\r\ncontent-length: 2\r\nconnection: close",
            b"POST /invoke HTTP/1.1\r\ncontent-length: 12345678901234567890",
            b"POST /invoke HTTP/1.1\r\ncontent-length: 2\r\nx-name: caf\xc3\xa9",
            b"POST /invoke HTTP/1.1\r\ncontent-length:\x0B2",
            b"POST /invoke HTTP/1.0\r\ncontent-length: 2",
            b"POST /invoke?x=1 HTTP/1.1\r\ncontent-length: 2",
            b"post /invoke HTTP/1.1\r\ncontent-length: 2",
        ] {
            assert_eq!(
                parse_invoke_header(header, &mut Request::default()),
                None,
                "{}",
                String::from_utf8_lossy(header)
            );
            let (got, want) = both_parsers(header);
            assert_eq!(got, want);
        }
        // Within the grammar: names in any case, spaces around values, a
        // 19-digit length with leading zeros, the last length winning.
        for (header, len) in [
            (&b"POST /invoke HTTP/1.1"[..], 0),
            (
                b"POST /invoke HTTP/1.1\r\nContent-Length:   0000000000000000042  ",
                42,
            ),
            (
                b"POST /invoke HTTP/1.1\r\ncontent-length: 1\r\nx: y\r\ncontent-length: 9",
                9,
            ),
            (
                b"POST /invoke HTTP/1.1\r\nno colon here\r\ncontent-length: 3",
                3,
            ),
        ] {
            assert_eq!(
                parse_invoke_header(header, &mut Request::default()),
                Some(len)
            );
            let (got, want) = both_parsers(header);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn call_reads_control_sized_bodies_the_data_path_rejects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body_len = 2 * MAX_REPLY_BODY_BYTES;
        let node = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut conn = ConnBuf::new(stream);
                let ReadOutcome::Request(req) = conn.read_request().unwrap() else {
                    panic!("expected a request");
                };
                assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/big"));
                let mut out = Vec::new();
                write_response(&mut out, 200, "text/plain", &vec![b'z'; body_len]);
                // The data-path reader hangs up at the header.
                let _ = conn.stream().write_all(&out);
            }
        });
        let wait = Duration::from_secs(10);
        let (status, body) = call(addr, "GET", "/big", b"", wait, wait).unwrap();
        assert_eq!((status, body.len()), (200, body_len));

        let mut conn = ConnBuf::new(TcpStream::connect(addr).unwrap());
        conn.stream()
            .write_all(b"GET /big HTTP/1.1\r\n\r\n")
            .unwrap();
        let err = conn.read_reply().unwrap_err();
        assert!(err.to_string().contains("reply body too large"), "{err}");
        drop(conn);
        node.join().unwrap();
    }
}
