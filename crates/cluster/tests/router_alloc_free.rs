//! What a routed decision allocates, as a count: this binary installs a
//! process-wide counting allocator, starts two in-process nodes and a
//! `Router` in front of them, and drives the router over loopback TCP
//! with SITW-BIN frames of 16 records split over both nodes, and with
//! pipelined runs of JSON `POST /invoke` requests.
//!
//! The count covers every thread of the process — the router's reactors
//! and the nodes' — so the binary holds exactly one test. The client side
//! allocates nothing while the count runs: every request byte is encoded
//! before it starts, and replies are read into fixed buffers. The nodes
//! allocate nothing per steady-state decision (`sitw-serve`'s
//! `alloc_free_wire.rs`), so what is counted is the router's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sitw_cluster::{ClusterRing, Router, RouterConfig};
use sitw_core::{HybridConfig, PolicySpec};
use sitw_serve::http::write_request;
use sitw_serve::wire::{self, BIN_HEADER_LEN, FRAME_REPLY, REPLY_RECORD_LEN};
use sitw_serve::{ServeConfig, Server};

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

/// Records per frame, half owned by each node.
const FRAME: usize = 16;
/// JSON requests per write.
const RUN: usize = 16;

/// Allocations per steady-state frame and per JSON request, at most.
/// A frame's two are the record vectors the reply reader decodes each
/// node's reply into.
const FRAME_CEILING: f64 = 2.0;
const REQUEST_CEILING: f64 = 0.0;

/// The stream of invocations: [`FRAME`] apps, half owned by each node,
/// taken round-robin one second apart. Timestamps start at 10^9 ms, so
/// every one has ten digits and no request outgrows the buffers the
/// warm-up sized.
struct Stream {
    apps: Vec<String>,
    next: u64,
}

impl Stream {
    fn new() -> Stream {
        let ring = ClusterRing::new(2);
        let mut names = (0..).map(|i| format!("app-{i:06}"));
        let mut on = |node| names.find(|a| ring.node_of_app(a) == Some(node)).unwrap();
        let apps = (0..FRAME).map(|i| on(i % 2)).collect();
        Stream {
            apps,
            next: 1_000_000,
        }
    }

    fn take(&mut self, n: usize) -> Vec<(u16, &str, u64)> {
        let start = self.next;
        self.next += n as u64;
        (start..self.next)
            .map(|k| (0, self.apps[k as usize % FRAME].as_str(), k * 1_000))
            .collect()
    }
}

fn frames(stream: &mut Stream, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let mut frame = Vec::new();
            wire::encode_request_frame_v2(&mut frame, &stream.take(FRAME));
            frame
        })
        .collect()
}

fn runs(stream: &mut Stream, n: usize) -> Vec<Vec<u8>> {
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
/// allocations made meanwhile.
fn drive_frames(conn: &mut TcpStream, frames: &[Vec<u8>]) -> u64 {
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

/// Sends each run in one write and reads its responses into one fixed
/// buffer, each a `200`; returns the allocations made meanwhile.
fn drive_runs(conn: &mut TcpStream, runs: &[Vec<u8>]) -> u64 {
    let mut buf = vec![0u8; 1 << 16];
    let (mut start, mut end) = (0usize, 0usize);
    let before = ALLOCS.load(Ordering::Relaxed);
    for run in runs {
        conn.write_all(run).unwrap();
        let mut owed = RUN;
        while owed > 0 {
            match response_len(&buf[start..end]) {
                Some(len) => {
                    assert_eq!(&buf[start..start + 12], b"HTTP/1.1 200", "a decision");
                    start += len;
                    owed -= 1;
                }
                None => {
                    buf.copy_within(start..end, 0);
                    (start, end) = (0, end - start);
                    let got = conn.read(&mut buf[end..]).unwrap();
                    assert!(got > 0, "the router closed the connection");
                    end += got;
                }
            }
        }
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The length of the whole response at the start of `bytes`, once it has
/// arrived.
fn response_len(bytes: &[u8]) -> Option<usize> {
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

#[test]
fn routed_decisions_allocate_under_their_ceilings() {
    let nodes: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                shards: 2,
                policy: PolicySpec::Hybrid(HybridConfig::default()),
                ..ServeConfig::default()
            })
            .unwrap()
        })
        .collect();
    // The health prober waits an hour: the count is of the data path,
    // not of the control-plane thread.
    let router = Router::start(RouterConfig {
        nodes: nodes.iter().map(|n| n.addr().to_string()).collect(),
        probe_ms: 3_600_000,
        ..RouterConfig::default()
    })
    .unwrap();
    let mut stream = Stream::new();
    let mut bin = TcpStream::connect(router.addr()).unwrap();
    bin.set_nodelay(true).unwrap();
    let mut json = TcpStream::connect(router.addr()).unwrap();
    json.set_nodelay(true).unwrap();

    // Warm-up over both connections: every app past its idle-time
    // history cap, and every buffer on the way at working size. The
    // router connects to the nodes as the warm-up needs them; a few poll
    // ticks later every reactor's slowloris sweep has run over its
    // connections, so the sweeps' token scratch is at working size too.
    let warm = HybridConfig::default().history_cap + 36;
    drive_frames(&mut bin, &frames(&mut stream, warm));
    drive_runs(&mut json, &runs(&mut stream, warm));
    std::thread::sleep(Duration::from_millis(250));
    let counted = frames(&mut stream, 400);
    let frame_allocs = drive_frames(&mut bin, &counted);
    let counted_runs = runs(&mut stream, 400);
    let run_allocs = drive_runs(&mut json, &counted_runs);

    let per_frame = frame_allocs as f64 / counted.len() as f64;
    let per_request = run_allocs as f64 / (counted_runs.len() * RUN) as f64;
    println!(
        "routed: {frame_allocs} allocations over {} SITW-BIN frames of {FRAME} split over \
         two nodes ({per_frame:.3} per frame); {run_allocs} over {} JSON requests in runs \
         of {RUN} ({per_request:.4} per request)",
        counted.len(),
        counted_runs.len() * RUN,
    );
    drop((bin, json));
    router.shutdown();
    for node in nodes {
        node.shutdown().unwrap();
    }
    assert!(
        per_frame <= FRAME_CEILING,
        "{per_frame} allocations per frame"
    );
    assert!(
        per_request <= REQUEST_CEILING,
        "{per_request} allocations per request"
    );
}
