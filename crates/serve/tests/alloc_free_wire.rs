//! "From the socket to the shard and back, a steady-state decision
//! allocates nothing" as a count on a live node: this binary installs a
//! process-wide counting allocator, starts an in-process [`Server`] and
//! drives it over loopback TCP with SITW-BIN v2 frames of 128 records
//! and with pipelined runs of JSON `POST /invoke` requests.
//!
//! The count covers every thread of the node — reactors, shard workers,
//! the acceptor — so the binary holds exactly one test: no other test
//! thread may run beside it. The client side allocates nothing while
//! the count runs: every request byte is encoded before it starts, and
//! replies are read into one fixed buffer.
//!
//! What remains is the `std::sync::mpsc` queue's own block, one
//! allocation per 31 messages on each of the two hops a batch takes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use sitw_core::HybridConfig;
use sitw_serve::http::write_request;
use sitw_serve::wire::{self, BIN_HEADER_LEN, FRAME_REPLY, REPLY_RECORD_LEN};
use sitw_serve::{ServeConfig, Server};
use sitw_sim::PolicySpec;

/// Allocations made by any thread of the process (`alloc_zeroed` and
/// `realloc` keep their default bodies, which go through `alloc`).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is therefore this type's; the counter is
// a static atomic and touches no memory the allocator manages.
// sitw-lint: allow(unsafe-confinement)
unsafe impl GlobalAlloc for Counting {
    // sitw-lint: allow(unsafe-confinement)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        System.alloc(layout)
    }

    // sitw-lint: allow(unsafe-confinement)
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const APPS: usize = 256;
const FRAME: usize = 128;
const RUN: usize = 64;

/// Round-robin invocations of `APPS` apps, one second apart: each app
/// beats every 256 s, inside the hybrid histogram's range, so every
/// decision past an app's first is a histogram or standard keep-alive
/// one and nothing asks ARIMA.
struct Stream {
    names: Vec<String>,
    next: u64,
}

impl Stream {
    fn take(&mut self, n: usize) -> Vec<(u16, &str, u64)> {
        let start = self.next;
        self.next += n as u64;
        (start..self.next)
            .map(|k| (0, self.names[k as usize % APPS].as_str(), k * 1_000))
            .collect()
    }
}

/// `n` SITW-BIN v2 request frames of [`FRAME`] records each.
fn bin_frames(stream: &mut Stream, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let mut frame = Vec::new();
            wire::encode_request_frame_v2(&mut frame, &stream.take(FRAME));
            frame
        })
        .collect()
}

/// `n` writes of [`RUN`] pipelined `POST /invoke` requests each.
fn json_runs(stream: &mut Stream, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let mut run = Vec::new();
            for (_, app, ts) in stream.take(RUN) {
                let body = format!("{{\"app\":\"{app}\",\"ts\":{ts}}}");
                write_request(&mut run, "POST", "/invoke", None, body.as_bytes()).unwrap();
            }
            run
        })
        .collect()
}

/// Sends each frame and reads its whole reply frame; returns the
/// allocations the node made meanwhile.
fn drive_bin(conn: &mut TcpStream, frames: &[Vec<u8>]) -> u64 {
    let mut reply = [0u8; BIN_HEADER_LEN + FRAME * REPLY_RECORD_LEN];
    let before = ALLOCS.load(Ordering::Relaxed);
    for frame in frames {
        conn.write_all(frame).unwrap();
        conn.read_exact(&mut reply).unwrap();
        assert_eq!(
            (reply[0], reply[2], &reply[7..11]),
            (
                wire::BIN_MAGIC,
                FRAME_REPLY,
                &(FRAME as u32).to_le_bytes()[..]
            ),
            "a reply frame of {FRAME} verdicts"
        );
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Reads HTTP responses into one fixed buffer.
struct Responses {
    buf: Box<[u8]>,
    start: usize,
    end: usize,
}

impl Responses {
    /// Reads `n` whole responses, asserting each is a `200`.
    fn read(&mut self, conn: &mut TcpStream, mut n: usize) {
        while n > 0 {
            match self.parse_one() {
                Some(len) => {
                    let head = &self.buf[self.start..self.start + 12];
                    assert_eq!(head, b"HTTP/1.1 200", "a decision");
                    self.start += len;
                    n -= 1;
                }
                None => {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                    let got = conn.read(&mut self.buf[self.end..]).unwrap();
                    assert!(got > 0, "the node closed the connection");
                    self.end += got;
                }
            }
        }
    }

    /// The length of the whole response at the buffer's start, if it
    /// has arrived.
    fn parse_one(&self) -> Option<usize> {
        let bytes = &self.buf[self.start..self.end];
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        const FIELD: &[u8] = b"content-length: ";
        let at = bytes[..head_end]
            .windows(FIELD.len())
            .position(|w| w == FIELD)?
            + FIELD.len();
        let body = bytes[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .fold(0usize, |n, b| n * 10 + (b - b'0') as usize);
        (bytes.len() >= head_end + body).then_some(head_end + body)
    }
}

/// Sends each run in one write and reads all its responses; returns the
/// allocations the node made meanwhile.
fn drive_json(conn: &mut TcpStream, responses: &mut Responses, runs: &[Vec<u8>]) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for run in runs {
        conn.write_all(run).unwrap();
        responses.read(conn, RUN);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_decisions_allocate_nothing_on_the_live_node() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        policy: PolicySpec::Hybrid(HybridConfig::default()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = Stream {
        names: (0..APPS).map(|i| format!("app-{i:06}")).collect(),
        next: 0,
    };
    // Warm-up: every app past its idle-time history cap (so histories
    // overwrite in place), and the node's buffers at working size.
    let warm_beats = HybridConfig::default().history_cap + 36;
    let warm_frames = bin_frames(&mut stream, APPS * warm_beats / FRAME);

    let mut bin = TcpStream::connect(server.addr()).unwrap();
    bin.set_nodelay(true).unwrap();
    drive_bin(&mut bin, &warm_frames);
    let frames = bin_frames(&mut stream, 400);
    let bin_allocs = drive_bin(&mut bin, &frames);

    let mut json = TcpStream::connect(server.addr()).unwrap();
    json.set_nodelay(true).unwrap();
    let mut responses = Responses {
        buf: vec![0u8; 1 << 16].into_boxed_slice(),
        start: 0,
        end: 0,
    };
    let warm_runs = json_runs(&mut stream, 100);
    drive_json(&mut json, &mut responses, &warm_runs);
    let runs = json_runs(&mut stream, 400);
    let json_allocs = drive_json(&mut json, &mut responses, &runs);

    let per_frame = bin_allocs as f64 / frames.len() as f64;
    let per_request = json_allocs as f64 / (runs.len() * RUN) as f64;
    println!(
        "live node: {bin_allocs} allocations over {} SITW-BIN frames of {FRAME} \
         ({per_frame:.3} per frame, {:.4} per decision); {json_allocs} over {} JSON \
         requests in runs of {RUN} ({per_request:.4} per request)",
        frames.len(),
        per_frame / FRAME as f64,
        runs.len() * RUN,
    );
    drop((bin, json));
    server.shutdown().unwrap();
    assert!(per_frame <= 1.0, "{per_frame} allocations per frame");
    assert!(per_request <= 0.1, "{per_request} allocations per request");
}
