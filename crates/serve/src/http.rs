//! Minimal HTTP/1.1 plumbing — persistent connections, pipelining,
//! `Content-Length` bodies, no chunked encoding, no TLS — plus the
//! protocol sniff that lets SITW-BIN frames share the same port.
//!
//! [`ConnBuf`] owns the read side of a connection with an explicit
//! buffer, so a read timeout mid-request loses nothing: partial bytes
//! stay buffered and parsing resumes on the next call. That property is
//! what lets connection threads poll a shutdown flag between reads, and
//! it is exactly what reassembles SITW-BIN frames split across TCP
//! segment boundaries: [`ConnBuf::read_event_into`] peeks the first
//! unconsumed byte — [`crate::wire::BIN_MAGIC`] means a binary frame,
//! anything else (in practice an ASCII method letter) means HTTP — and
//! keeps filling until one complete message is buffered.

use std::io::{self, Read};
use std::net::{Shutdown, TcpStream};

use crate::wire::{self, BinErrorCode, BinInvoke, ControlRequest, FrameDecodeInto};

/// Maximum accepted header block (request line + headers).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted body. A `Content-Length` beyond this is answered
/// with `413 Payload Too Large` *before* any body buffering happens, so
/// one request header can never drive a large allocation.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

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
        /// The frame's protocol version (replies must echo it).
        version: u8,
        /// The propagated trace id, when the frame carried one.
        trace: Option<u64>,
    },
    /// A complete SITW-BIN cluster control frame (never touches the
    /// caller's record buffer).
    Ctrl(ControlRequest),
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
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Non-blocking flavour of [`ConnBuf::drain_for_close`] for the
    /// reactor's lame-duck state: discards everything buffered plus
    /// whatever the socket can deliver right now, decrementing `budget`.
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
            let mut chunk = [0u8; 16 * 1024];
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

    /// The polite close after a fatal error response (e.g. a 413) has
    /// been written: half-closes the write side, then discards unread
    /// request bytes, best effort. Without the discard, closing with
    /// data still queued in the kernel receive buffer sends an RST that
    /// can destroy the response before the peer reads it. Bounded by
    /// `max_bytes`; gives up at EOF, the first timeout, or any error.
    pub fn drain_for_close(&mut self, max_bytes: usize) {
        let _ = self.stream.shutdown(Shutdown::Write);
        let mut discarded = self.buffered();
        self.buf.clear();
        self.start = 0;
        while discarded < max_bytes {
            match self.fill() {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    discarded += n;
                    self.buf.clear();
                }
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
            if self.skip_remaining == 0 {
                break;
            }
            match self.fill() {
                Ok(0) => return Ok(ReadEvent::Eof),
                Ok(_) => {}
                Err(e) if is_timeout(&e) => return Ok(ReadEvent::Timeout),
                Err(e) => return Err(e),
            }
        }
        while self.buffered() == 0 {
            match self.fill() {
                Ok(0) => return Ok(ReadEvent::Eof),
                Ok(_) => {}
                Err(e) if is_timeout(&e) => return Ok(ReadEvent::Timeout),
                Err(e) => return Err(e),
            }
        }
        if self.buf[self.start] == wire::BIN_MAGIC {
            self.read_frame_into(records)
        } else {
            self.read_http_into(req)
        }
    }

    /// Parses the next SITW-BIN frame into `records`. The first
    /// unconsumed byte is already known to be [`wire::BIN_MAGIC`].
    fn read_frame_into(&mut self, records: &mut Vec<BinInvoke>) -> io::Result<ReadEvent> {
        loop {
            match wire::decode_request_frame_into(&self.buf[self.start..], records) {
                FrameDecodeInto::Request {
                    version,
                    trace,
                    consumed,
                } => {
                    self.start += consumed;
                    return Ok(ReadEvent::Frame { version, trace });
                }
                FrameDecodeInto::Control { req, consumed } => {
                    self.start += consumed;
                    return Ok(ReadEvent::Ctrl(req));
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
                FrameDecodeInto::Incomplete => match self.fill() {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "eof mid-frame",
                        ))
                    }
                    Ok(_) => {}
                    Err(e) if is_timeout(&e) => return Ok(ReadEvent::Timeout),
                    Err(e) => return Err(e),
                },
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
            ReadEvent::Frame { .. } | ReadEvent::Ctrl(_) | ReadEvent::FrameError { .. } => {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected binary frame on an http-only reader",
                ))
            }
        }
    }

    /// Parses the next HTTP request from the buffer into `req`.
    fn read_http_into(&mut self, req: &mut Request) -> io::Result<ReadEvent> {
        loop {
            // 1. Find the end of the header block in the buffered bytes.
            let window = &self.buf[self.start..];
            if let Some(header_end) = find_crlfcrlf(window) {
                let content_length = parse_header(&window[..header_end], req)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if content_length > MAX_BODY_BYTES as u64 {
                    return Ok(ReadEvent::BodyTooLarge {
                        declared: content_length,
                    });
                }
                let body_len = content_length as usize;
                let total = header_end + 4 + body_len;
                // 2. Ensure the body is fully buffered. A timeout here
                // surfaces as `Timeout` just like the mid-header path
                // (nothing has been consumed, so parsing resumes
                // exactly where it stopped) — otherwise a stalled
                // client would pin this thread in a loop that never
                // polls the caller's shutdown flag.
                while self.buffered() < total {
                    match self.fill() {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "eof mid-body",
                            ))
                        }
                        Ok(_) => {}
                        Err(e) if is_timeout(&e) => return Ok(ReadEvent::Timeout),
                        Err(e) => return Err(e),
                    }
                }
                let body_start = self.start + header_end + 4;
                req.body.clear();
                req.body
                    .extend_from_slice(&self.buf[body_start..body_start + body_len]);
                self.start += total;
                return Ok(ReadEvent::Request);
            }
            if self.buffered() > MAX_HEADER_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "header too large",
                ));
            }
            // 3. Need more bytes for the header block.
            match self.fill() {
                Ok(0) => {
                    return if self.buffered() == 0 {
                        Ok(ReadEvent::Eof)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "eof mid-header",
                        ))
                    }
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) => return Ok(ReadEvent::Timeout),
                Err(e) => return Err(e),
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a header block into `req` (method, path, close flag; the body
/// is the caller's job) and returns the declared content length. Writes
/// into `req`'s existing `String`s so a reused `Request` parses without
/// allocating.
fn parse_header(header: &[u8], req: &mut Request) -> Result<u64, String> {
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
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err("bad content-length".into());
            }
            // A value overflowing u64 is still a (ridiculous) length:
            // saturate so it hits the too-large path, not a parse error.
            content_length = value.parse::<u64>().unwrap_or(u64::MAX);
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

/// Appends a full response (status line, headers, body) to `out`.
pub fn write_response(out: &mut Vec<u8>, status: u16, content_type: &str, body: &[u8]) {
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
    crate::wire::push_u64(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;
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
        wire::encode_request_frame_v2_traced(&mut frame, &[(1, "app-000001", 7)], 0xBEEF);
        client.write_all(&frame).unwrap();
        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::Frame { version, trace } => {
                assert_eq!(version, wire::BIN_VERSION_2);
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
        wire::encode_request_frame(&mut frame, &[("app-000001", 7), ("caf\u{e9}", 8)]);
        client.write_all(&frame).unwrap();
        client.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();

        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::Request => assert_eq!(req.path, "/healthz"),
            other => panic!("{other:?}"),
        }
        match conn.read_event_into(&mut req, &mut records).unwrap() {
            ReadEvent::Frame { version, trace } => {
                assert_eq!(version, wire::BIN_VERSION);
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
        wire::encode_request_frame(&mut frame, &[("app-β-000001", 123_456_789), ("x", 0)]);
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
        let mut bad_payload = vec![0u8, 0];
        bad_payload.extend_from_slice(&7u64.to_le_bytes());
        let mut bad = Vec::new();
        bad.push(wire::BIN_MAGIC);
        bad.push(wire::BIN_VERSION);
        bad.push(wire::FRAME_REQUEST);
        bad.extend_from_slice(&(bad_payload.len() as u32).to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&bad_payload);
        client.write_all(&bad).unwrap();
        let mut good = Vec::new();
        wire::encode_request_frame(&mut good, &[("ok", 1)]);
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
        bad.push(wire::BIN_VERSION);
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
        wire::encode_request_frame(&mut good, &[("alive", 9)]);
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
}
