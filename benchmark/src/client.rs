//! The load generator: closed-loop and paced open-loop drivers over one
//! connection each, speaking JSON/HTTP or SITW-BIN v2, checking every
//! reply against the oracle's expected verdict as it arrives.
//!
//! One driver runs per connection thread; it owns its socket, buffers
//! and (in a traced run) span recorder, so the hot loop shares nothing.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sitw_serve::wire;

use crate::calib::{self, Ticker};
use crate::inputs::{Expect, Schedule};
use crate::span::Recorder;

/// A reply that takes longer than this is a timeout: the connection is
/// abandoned and everything in flight on it counts as failed, so a hung
/// program under test ends the run instead of hanging it.
#[cfg(not(test))]
pub const IO_DEADLINE: Duration = Duration::from_secs(10);
/// The unit tests hang a connection on purpose and do not wait ten
/// seconds for it.
#[cfg(test)]
pub const IO_DEADLINE: Duration = Duration::from_millis(200);

/// How the events of a schedule go on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// One `POST /invoke` per decision, `window` pipelined.
    Json {
        /// Requests in flight per connection.
        window: usize,
    },
    /// SITW-BIN v2 frames of `batch` records, `in_flight` frames
    /// outstanding per connection.
    Bin {
        /// Records per frame.
        batch: usize,
        /// Frames in flight per connection.
        in_flight: usize,
    },
}

impl Proto {
    /// Decisions per request.
    fn unit(&self) -> usize {
        match self {
            Proto::Json { .. } => 1,
            Proto::Bin { batch, .. } => *batch,
        }
    }

    /// Requests in flight.
    fn window(&self) -> usize {
        match self {
            Proto::Json { window } => *window,
            Proto::Bin { in_flight, .. } => *in_flight,
        }
        .max(1)
    }
}

/// When a closed-loop phase stops sending.
#[derive(Debug, Clone, Copy)]
pub struct StopRule {
    /// Stop once this instant has passed …
    pub until: Instant,
    /// … and at least this many events of the schedule are sent (the
    /// connection's share of the quality prefix).
    pub min_index: usize,
    /// Never send the event at or past this index.
    pub max_index: usize,
}

/// What the connection threads of a phase share with its sampler.
#[derive(Debug, Default)]
pub struct PhaseShared {
    /// Decisions settled so far, all connections together.
    pub progress: AtomicU64,
    /// Nanoseconds the connections have spent on calibration points,
    /// summed over them: time the sampler takes out of its windows.
    pub paused_ns: AtomicU64,
    /// When the phase began, if it takes calibration points.
    pub calibrate_from: Option<Instant>,
}

/// What one driver did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Index of the first event not sent.
    pub next: usize,
    /// Decisions sent.
    pub attempted: u64,
    /// Decisions whose reply matched the oracle.
    pub verified: u64,
    /// Decisions that failed: reply differs from the oracle, error
    /// reply, or lost in flight to a timeout or a broken connection.
    pub failed: u64,
    /// Requests (HTTP requests or frames) sent.
    pub requests: u64,
    /// Bytes written to and read from the socket.
    pub bytes_out: u64,
    /// See `bytes_out`.
    pub bytes_in: u64,
    /// Paced phases: per-request latency from the instant each request
    /// was *due*, ns.
    pub rtt_ns: Vec<u64>,
    /// Paced phases: requests written more than [`LATE_AFTER`] after
    /// they were due.
    pub late: u64,
    /// Closed-loop phases: this connection's reference-work times, ns
    /// ([`crate::calib`]).
    pub reference_ns: Vec<f64>,
    /// The first failure, for the report.
    pub note: Option<String>,
}

/// A paced request counts as late when it leaves this long after its
/// due time (the generator, not the server, was behind).
pub const LATE_AFTER: Duration = Duration::from_millis(1);

/// Wire names of all apps, rendered once so the hot loop formats
/// nothing.
pub struct Names(Vec<String>);

impl Names {
    /// Names of apps `0..apps`.
    pub fn new(apps: usize) -> Names {
        Names((0..apps as u32).map(crate::inputs::app_name).collect())
    }

    /// The wire name of `app`.
    pub fn get(&self, app: u32) -> &str {
        &self.0[app as usize]
    }
}

/// Appends one request for `events[lo..hi]` of the schedule.
pub fn encode_request(
    proto: Proto,
    out: &mut Vec<u8>,
    s: &Schedule,
    names: &Names,
    lo: usize,
    hi: usize,
) {
    match proto {
        Proto::Json { .. } => {
            let e = &s.events[lo];
            let app = names.get(e.app);
            let tenant_len = if e.tenant > 0 {
                // ,"tenant":"tK"
                12 + decimal_len(e.tenant as u64 - 1) + 1
            } else {
                0
            };
            let body_len = 8 + app.len() + 7 + decimal_len(e.ts) + 1 + tenant_len;
            out.extend_from_slice(b"POST /invoke HTTP/1.1\r\ncontent-length: ");
            wire::push_u64(out, body_len as u64);
            out.extend_from_slice(b"\r\n\r\n{\"app\":\"");
            out.extend_from_slice(app.as_bytes());
            out.extend_from_slice(b"\",\"ts\":");
            wire::push_u64(out, e.ts);
            if e.tenant > 0 {
                out.extend_from_slice(b",\"tenant\":\"t");
                wire::push_u64(out, e.tenant as u64 - 1);
                out.push(b'"');
            }
            out.push(b'}');
        }
        Proto::Bin { .. } => {
            // The codec's own client-side encoder, fed borrowed names.
            let records: Vec<(u16, &str, u64)> = s.events[lo..hi]
                .iter()
                .map(|e| (e.tenant, names.get(e.app), e.ts))
                .collect();
            wire::encode_request_frame_v2(out, &records);
        }
    }
}

fn decimal_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        v.ilog10() as usize + 1
    }
}

/// Result of looking for one reply at the head of the read buffer.
enum Parsed {
    /// Not all of it has arrived.
    Incomplete,
    /// One reply of `consumed` bytes, `failed` of its decisions wrong.
    Reply {
        consumed: usize,
        failed: u64,
        note: Option<String>,
    },
}

/// Checks the reply answering `events[lo..hi]` at the head of `buf`.
fn check(proto: Proto, buf: &[u8], s: &Schedule, lo: usize, hi: usize) -> io::Result<Parsed> {
    match proto {
        Proto::Json { .. } => check_json(buf, &s.expect[lo]),
        Proto::Bin { .. } => check_bin(buf, s, lo, hi),
    }
}

fn check_bin(buf: &[u8], s: &Schedule, lo: usize, hi: usize) -> io::Result<Parsed> {
    if buf.len() < wire::BIN_HEADER_LEN {
        return Ok(Parsed::Incomplete);
    }
    if buf[0] != wire::BIN_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "reply does not start a SITW-BIN frame",
        ));
    }
    let payload_len = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]) as usize;
    if payload_len > wire::MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "reply frame over the payload cap",
        ));
    }
    let consumed = wire::BIN_HEADER_LEN + payload_len;
    if buf.len() < consumed {
        return Ok(Parsed::Incomplete);
    }
    let n = hi - lo;
    let want = &s.expect_bin[lo * wire::REPLY_RECORD_LEN..hi * wire::REPLY_RECORD_LEN];
    let payload = &buf[wire::BIN_HEADER_LEN..consumed];
    if buf[2] == wire::FRAME_REPLY && payload == want {
        return Ok(Parsed::Reply {
            consumed,
            failed: 0,
            note: None,
        });
    }
    // Slow path: say what differed. An error frame, a short reply or a
    // reordered one fails every record it should have answered.
    let (failed, note) = if buf[2] != wire::FRAME_REPLY || payload.len() != want.len() {
        let detail = match wire::decode_server_frame(&buf[..consumed]) {
            wire::ServerFrameDecode::Error { code, detail, .. } => {
                format!("error frame {code:?}: {detail}")
            }
            other => format!("unexpected frame {other:?}"),
        };
        (n as u64, detail)
    } else {
        let wrong: Vec<usize> = payload
            .chunks(wire::REPLY_RECORD_LEN)
            .zip(want.chunks(wire::REPLY_RECORD_LEN))
            .enumerate()
            .filter(|(_, (got, want))| got != want)
            .map(|(i, _)| i)
            .collect();
        let first = lo + wrong[0];
        (
            wrong.len() as u64,
            format!(
                "event {first} (app {} ts {}): reply record {:02x?} != oracle {:02x?}",
                s.events[first].app,
                s.events[first].ts,
                &payload
                    [wrong[0] * wire::REPLY_RECORD_LEN..(wrong[0] + 1) * wire::REPLY_RECORD_LEN],
                &want[wrong[0] * wire::REPLY_RECORD_LEN..(wrong[0] + 1) * wire::REPLY_RECORD_LEN],
            ),
        )
    };
    Ok(Parsed::Reply {
        consumed,
        failed,
        note: Some(note),
    })
}

fn check_json(buf: &[u8], want: &Expect) -> io::Result<Parsed> {
    let Some(header_end) = find(buf, b"\r\n\r\n", 0) else {
        return Ok(Parsed::Incomplete);
    };
    let header = &buf[..header_end];
    let bad =
        |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("http reply: {what}"));
    // "HTTP/1.1 200 OK"
    let status: u16 = header
        .get(9..12)
        .and_then(|d| std::str::from_utf8(d).ok())
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let content_length = match find_ci(header, b"content-length:") {
        Some(at) => parse_u64(&header[at..]).ok_or_else(|| bad("content-length"))? as usize,
        None => 0,
    };
    let consumed = header_end + 4 + content_length;
    if buf.len() < consumed {
        return Ok(Parsed::Incomplete);
    }
    let body = &buf[header_end + 4..consumed];
    let got = if status == 200 {
        parse_decision(body)
    } else {
        None
    };
    if got.as_ref() == Some(want) {
        return Ok(Parsed::Reply {
            consumed,
            failed: 0,
            note: None,
        });
    }
    let note = format!(
        "status {status} body {} != oracle {want:?}",
        String::from_utf8_lossy(body)
    );
    Ok(Parsed::Reply {
        consumed,
        failed: 1,
        note: Some(note),
    })
}

/// Parses a `/invoke` response body back into the oracle's form.
pub fn parse_decision(body: &[u8]) -> Option<Expect> {
    let mut at = 0;
    let mut value = |key: &[u8]| -> Option<usize> {
        // Members come in a fixed order; search on from the last one and
        // fall back to the start for a reordered body.
        let hit = find(body, key, at).or_else(|| find(body, key, 0))?;
        at = hit + key.len();
        Some(at)
    };
    let v = value(b"\"verdict\":\"")?;
    let cold = match body.get(v)? {
        b'c' => true,
        b'w' => false,
        _ => return None,
    };
    let k = value(b"\"kind\":\"")?;
    let kind_end = find(body, b"\"", k)?;
    let kind = wire::kind_from_str(std::str::from_utf8(&body[k..kind_end]).ok()?).ok()?;
    let pre_warm_ms = parse_u64(&body[value(b"\"pre_warm_ms\":")?..])?;
    let keep_alive_ms = parse_u64(&body[value(b"\"keep_alive_ms\":")?..])?;
    let prewarm_load = body.get(value(b"\"prewarm_load\":")?)? == &b't';
    let evicted = body.get(value(b"\"evicted\":")?)? == &b't';
    Some(Expect::new(
        cold,
        prewarm_load,
        evicted,
        kind,
        sitw_core::Windows {
            pre_warm_ms,
            keep_alive_ms,
        },
    ))
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Position just past a case-insensitive `needle` (lower-case).
fn find_ci(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
        .map(|p| p + needle.len())
}

/// Leading unsigned decimal, after optional spaces.
fn parse_u64(bytes: &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    let mut digits = 0;
    for &b in bytes.iter().skip_while(|b| **b == b' ') {
        if !b.is_ascii_digit() {
            break;
        }
        v = v.checked_mul(10)?.checked_add((b - b'0') as u64)?;
        digits += 1;
    }
    (digits > 0).then_some(v)
}

/// Socket plus read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_DEADLINE)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_DEADLINE))?;
        stream.set_write_timeout(Some(IO_DEADLINE))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            start: 0,
        })
    }

    /// Reads once into the buffer; returns the bytes read.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 32 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + 32 * 1024, 0);
        let n = match self.stream.read(&mut self.buf[old..]) {
            Ok(n) => n,
            Err(e) => {
                self.buf.truncate(old);
                return Err(e);
            }
        };
        self.buf.truncate(old + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ));
        }
        Ok(n)
    }
}

/// Requests in flight: the event range each answers and when it was
/// sent (closed loop) or due (paced).
type InFlight = VecDeque<(usize, usize, Instant)>;

/// Settles the reply at the head of the buffer against the oldest
/// request in flight. `Ok(false)` = need more bytes.
fn settle_one(
    proto: Proto,
    conn: &mut Conn,
    s: &Schedule,
    in_flight: &mut InFlight,
    out: &mut Outcome,
) -> io::Result<bool> {
    let &(lo, hi, _) = in_flight
        .front()
        .expect("settle_one with nothing in flight");
    match check(proto, &conn.buf[conn.start..], s, lo, hi)? {
        Parsed::Incomplete => Ok(false),
        Parsed::Reply {
            consumed,
            failed,
            note,
        } => {
            conn.start += consumed;
            in_flight.pop_front();
            out.failed += failed;
            out.verified += (hi - lo) as u64 - failed;
            if out.note.is_none() {
                out.note = note;
            }
            Ok(true)
        }
    }
}

/// Drives one connection closed-loop at saturation from event `start`
/// of the schedule until `stop` says so or the schedule drains: the
/// window is refilled to its full depth whenever it has drained to
/// half, so both sides see bursts rather than one syscall per request.
/// Completed decisions are added to `shared.progress` as they settle,
/// and between two cycles the thread takes the phase's calibration
/// points as they come due.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    proto: Proto,
    s: &Schedule,
    names: &Names,
    start: usize,
    stop: StopRule,
    shared: &PhaseShared,
    mut rec: Option<&mut Recorder>,
) -> Outcome {
    let mut out = Outcome {
        next: start,
        ..Outcome::default()
    };
    let mut in_flight: InFlight = VecDeque::new();
    if let Err(e) = closed_loop_inner(
        addr,
        proto,
        s,
        names,
        stop,
        shared,
        &mut rec,
        &mut out,
        &mut in_flight,
    ) {
        // Everything still in flight is lost with the connection.
        let lost: u64 = in_flight.iter().map(|(lo, hi, _)| (hi - lo) as u64).sum();
        out.failed += lost;
        out.note.get_or_insert(format!(
            "connection failed with {lost} decisions in flight: {e}"
        ));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn closed_loop_inner(
    addr: SocketAddr,
    proto: Proto,
    s: &Schedule,
    names: &Names,
    stop: StopRule,
    shared: &PhaseShared,
    rec: &mut Option<&mut Recorder>,
    out: &mut Outcome,
    in_flight: &mut InFlight,
) -> io::Result<()> {
    let mut conn = Conn::open(addr)?;
    let mut ticker = Ticker::new(shared.calibrate_from, calib::EVERY);
    let (unit, window) = (proto.unit(), proto.window());
    let low_water = window / 2;
    let end = stop.max_index.min(s.events.len());
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut stopping = false;
    let mut cycle = 0u64;
    loop {
        cycle += 1;
        let root = rec
            .as_mut()
            .and_then(|r| r.open("client.cycle", cycle, None));
        // Fill the window.
        let t_encode = rec.as_ref().map(|r| r.now_ns());
        let sent_at = Instant::now();
        wbuf.clear();
        while !stopping && in_flight.len() < window && out.next < end {
            let hi = (out.next + unit).min(end);
            encode_request(proto, &mut wbuf, s, names, out.next, hi);
            in_flight.push_back((out.next, hi, sent_at));
            out.attempted += (hi - out.next) as u64;
            out.requests += 1;
            out.next = hi;
        }
        if let (Some(r), Some(t0)) = (rec.as_mut(), t_encode) {
            let now = r.now_ns();
            r.record("client.encode", cycle, root, t0, now);
        }
        if in_flight.is_empty() {
            if let Some(r) = rec.as_mut() {
                r.close(root);
            }
            return Ok(());
        }
        if !wbuf.is_empty() {
            let t0 = rec.as_ref().map(|r| r.now_ns());
            conn.stream.write_all(&wbuf)?;
            out.bytes_out += wbuf.len() as u64;
            if let (Some(r), Some(t0)) = (rec.as_mut(), t0) {
                let now = r.now_ns();
                r.record("client.write", cycle, root, t0, now);
            }
        }
        // Drain to the low-water mark (to empty once stopping).
        let target = if stopping || out.next >= end {
            0
        } else {
            low_water
        };
        let before = out.verified + out.failed;
        let t_await = rec.as_ref().map(|r| r.now_ns());
        while in_flight.len() > target {
            if !settle_one(proto, &mut conn, s, in_flight, out)? {
                out.bytes_in += conn.fill()? as u64;
            }
        }
        if let (Some(r), Some(t0)) = (rec.as_mut(), t_await) {
            let now = r.now_ns();
            r.record("client.await_verify", cycle, root, t0, now);
            r.close(root);
        }
        // One relaxed add per cycle: the phase's sampler reads it.
        shared
            .progress
            .fetch_add(out.verified + out.failed - before, Ordering::Relaxed);
        if ticker.due() {
            let ns = calib::time_once();
            out.reference_ns.push(ns);
            shared.paused_ns.fetch_add(ns as u64, Ordering::Relaxed);
        }
        if Instant::now() >= stop.until && out.next >= stop.min_index {
            stopping = true;
        }
    }
}

/// Drives one connection open-loop at a fixed request rate for
/// `duration`: request `k` is due at `k / rate` and its latency counts
/// from that instant whether or not the generator got to it on time, so
/// a stall shows up in the latencies of everything queued behind it.
#[allow(clippy::too_many_arguments)]
pub fn paced(
    addr: SocketAddr,
    proto: Proto,
    s: &Schedule,
    names: &Names,
    start: usize,
    decisions_per_s: f64,
    duration: Duration,
) -> Outcome {
    let mut out = Outcome {
        next: start,
        ..Outcome::default()
    };
    let mut in_flight: InFlight = VecDeque::new();
    if let Err(e) = paced_inner(
        addr,
        proto,
        s,
        names,
        decisions_per_s,
        duration,
        &mut out,
        &mut in_flight,
    ) {
        let lost: u64 = in_flight.iter().map(|(lo, hi, _)| (hi - lo) as u64).sum();
        out.failed += lost;
        out.note.get_or_insert(format!(
            "connection failed with {lost} decisions in flight: {e}"
        ));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn paced_inner(
    addr: SocketAddr,
    proto: Proto,
    s: &Schedule,
    names: &Names,
    decisions_per_s: f64,
    duration: Duration,
    out: &mut Outcome,
    in_flight: &mut InFlight,
) -> io::Result<()> {
    let mut conn = Conn::open(addr)?;
    let unit = proto.unit();
    let interval = Duration::from_secs_f64(unit as f64 / decisions_per_s.max(1.0));
    let t0 = Instant::now();
    let end_at = t0 + duration;
    let mut due = t0;
    let mut wbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
    loop {
        let now = Instant::now();
        let sending = now < end_at && out.next < s.events.len();
        // Send everything that has come due.
        wbuf.clear();
        while sending && due <= now && out.next < s.events.len() {
            let hi = (out.next + unit).min(s.events.len());
            encode_request(proto, &mut wbuf, s, names, out.next, hi);
            in_flight.push_back((out.next, hi, due));
            out.attempted += (hi - out.next) as u64;
            out.requests += 1;
            out.late += (now.duration_since(due) > LATE_AFTER) as u64;
            out.next = hi;
            due += interval;
        }
        if !wbuf.is_empty() {
            conn.stream.write_all(&wbuf)?;
            out.bytes_out += wbuf.len() as u64;
        }
        // Settle what has arrived, then wait for more until the next
        // request is due (or, once done sending, for the stragglers).
        while let Some(&(_, _, due_at)) = in_flight.front() {
            if !settle_one(proto, &mut conn, s, in_flight, out)? {
                break;
            }
            out.rtt_ns
                .push(Instant::now().duration_since(due_at).as_nanos() as u64);
        }
        if !sending && in_flight.is_empty() {
            return Ok(());
        }
        let wait = if sending {
            due.saturating_duration_since(Instant::now())
        } else {
            IO_DEADLINE
        };
        if wait.is_zero() {
            continue;
        }
        if in_flight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        conn.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))?;
        match conn.fill() {
            Ok(n) => out.bytes_in += n as u64,
            Err(e)
                if sending
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::{DecisionKind, Windows};
    use sitw_serve::Decision;

    #[test]
    fn decision_bodies_round_trip_through_the_client_parser() {
        for (cold, prewarm_load, evicted, kind, pre, keep) in [
            (
                true,
                false,
                false,
                DecisionKind::Histogram,
                540_000,
                186_000,
            ),
            (
                false,
                true,
                false,
                DecisionKind::Arima,
                15_300_000,
                5_400_000,
            ),
            (
                true,
                false,
                true,
                DecisionKind::StandardKeepAlive,
                0,
                14_400_000,
            ),
            (false, false, false, DecisionKind::Static, 0, u64::MAX),
        ] {
            let windows = Windows {
                pre_warm_ms: pre,
                keep_alive_ms: keep,
            };
            let mut body = Vec::new();
            wire::render_decision(
                &mut body,
                &Decision {
                    cold,
                    prewarm_load,
                    evicted,
                    kind,
                    windows,
                },
            );
            assert_eq!(
                parse_decision(&body),
                Some(Expect::new(cold, prewarm_load, evicted, kind, windows)),
                "{}",
                String::from_utf8_lossy(&body)
            );
        }
        assert_eq!(parse_decision(b"{\"error\":\"nope\"}"), None);
    }

    #[test]
    fn json_reply_check_spots_a_wrong_window() {
        let windows = Windows {
            pre_warm_ms: 0,
            keep_alive_ms: 600_000,
        };
        let d = Decision {
            cold: false,
            prewarm_load: false,
            evicted: false,
            kind: DecisionKind::Histogram,
            windows,
        };
        let mut body = Vec::new();
        wire::render_decision(&mut body, &d);
        let mut reply = Vec::new();
        sitw_serve::http::write_response(&mut reply, 200, "application/json", &body);
        let want = Expect::new(false, false, false, DecisionKind::Histogram, windows);
        assert!(matches!(
            check_json(&reply, &want).unwrap(),
            Parsed::Reply { failed: 0, .. }
        ));
        assert!(matches!(
            check_json(&reply[..reply.len() - 1], &want).unwrap(),
            Parsed::Incomplete
        ));
        let other = Expect::new(
            false,
            false,
            false,
            DecisionKind::Histogram,
            Windows {
                pre_warm_ms: 0,
                keep_alive_ms: 600_001,
            },
        );
        assert!(matches!(
            check_json(&reply, &other).unwrap(),
            Parsed::Reply { failed: 1, .. }
        ));
    }

    fn verdict(keep_alive_ms: u64) -> Expect {
        Expect::new(
            false,
            false,
            false,
            DecisionKind::Histogram,
            Windows {
                pre_warm_ms: 0,
                keep_alive_ms,
            },
        )
    }

    #[test]
    fn bin_reply_check_counts_the_records_that_differ() {
        let events = (0..3)
            .map(|i| crate::inputs::Event {
                ts: i,
                app: i as u32,
                tenant: 0,
            })
            .collect();
        let want: Vec<Expect> = (0..3).map(|i| verdict(600_000 + i)).collect();
        let frame = |replies: &[Expect]| {
            let records: Vec<wire::BinReply> = replies.iter().map(Expect::to_bin).collect();
            let mut out = Vec::new();
            wire::encode_reply_records(&mut out, wire::BIN_VERSION_2, &records);
            out
        };
        let s = Schedule {
            events,
            expect_bin: frame(&want)[wire::BIN_HEADER_LEN..].to_vec(),
            expect: want.clone(),
        };
        let good = frame(&want);
        assert!(matches!(
            check_bin(&good, &s, 0, 3).unwrap(),
            Parsed::Reply { failed: 0, .. }
        ));
        assert!(matches!(
            check_bin(&good[..good.len() - 1], &s, 0, 3).unwrap(),
            Parsed::Incomplete
        ));
        let mut got = want.clone();
        got[1] = verdict(1);
        let Parsed::Reply { failed, note, .. } = check_bin(&frame(&got), &s, 0, 3).unwrap() else {
            panic!("a whole frame parses");
        };
        assert_eq!(failed, 1);
        assert!(note.unwrap().starts_with("event 1 "));
        // A short reply fails every record it should have answered.
        assert!(matches!(
            check_bin(&frame(&want[..2]), &s, 0, 3).unwrap(),
            Parsed::Reply { failed: 3, .. }
        ));
    }

    #[test]
    fn a_hung_server_times_out_and_what_was_in_flight_fails() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accepts, reads, never answers.
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let mut sink = [0u8; 4096];
            while peer.read(&mut sink).is_ok_and(|n| n > 0) {}
        });
        let s = Schedule {
            events: (0..6)
                .map(|i| crate::inputs::Event {
                    ts: i,
                    app: i as u32,
                    tenant: 0,
                })
                .collect(),
            expect: vec![verdict(600_000); 6],
            expect_bin: Vec::new(),
        };
        let stop = StopRule {
            until: Instant::now(),
            min_index: 0,
            max_index: 6,
        };
        let began = Instant::now();
        let out = closed_loop(
            addr,
            Proto::Json { window: 4 },
            &s,
            &Names::new(6),
            0,
            stop,
            &PhaseShared::default(),
            None,
        );
        assert!(began.elapsed() < 20 * IO_DEADLINE, "the deadline ended it");
        assert_eq!((out.attempted, out.verified, out.failed), (4, 0, 4));
        assert!(out.note.unwrap().contains("4 decisions in flight"));
        server.join().unwrap();
    }

    #[test]
    fn request_bodies_declare_their_exact_length() {
        let names = Names::new(2000);
        for (tenant, ts) in [(0u16, 0u64), (3, 86_400_000), (12, 999)] {
            let s = Schedule {
                events: vec![crate::inputs::Event {
                    ts,
                    app: 1234,
                    tenant,
                }],
                ..Schedule::default()
            };
            let mut out = Vec::new();
            encode_request(Proto::Json { window: 1 }, &mut out, &s, &names, 0, 1);
            let text = String::from_utf8(out).unwrap();
            let (head, body) = text.split_once("\r\n\r\n").unwrap();
            let declared: usize = head.rsplit_once(": ").unwrap().1.parse().unwrap();
            assert_eq!(declared, body.len(), "{text}");
            let parsed = wire::parse_invoke(body.as_bytes()).unwrap();
            assert_eq!((parsed.app.as_str(), parsed.ts), ("app-001234", ts));
            assert_eq!(
                parsed.tenant,
                (tenant > 0).then(|| format!("t{}", tenant - 1))
            );
        }
    }
}
