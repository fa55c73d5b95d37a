//! Replies are bounded like requests: a confused or hostile upstream
//! behind a real `Router` cannot make a client thread buffer without
//! bound. The parent's router looped `fill()` on whatever
//! `content-length` a node declared and never capped the header block,
//! so against these fake nodes it buffered until they stopped sending
//! and only then timed out; now the verdict comes from the header.

mod common;

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::start_fake_node;
use sitw_cluster::{Router, RouterConfig};
use sitw_serve::http::Reply;
use sitw_serve::wire::{self, BinErrorCode, ServerFrameDecode};
use sitw_serve::Client;

/// The data-path deadline of these routers. Every assertion below is on
/// an answer that arrives *sooner*: the fake nodes never stop sending,
/// so no read deadline ever comes to the parent's rescue.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(3);

/// As much as a fake node offers before giving up on the router.
const OFFERED: usize = 64 << 20;

/// Writes `head`, then `pad` over and over, counting into `taken` what
/// the router's socket accepted — until `OFFERED` bytes, an error, or a
/// router that stopped reading (the write deadline).
fn pour(mut stream: TcpStream, head: &[u8], pad: &[u8], taken: &AtomicUsize) {
    let stalled = Some(Duration::from_millis(300));
    stream.set_write_timeout(stalled).unwrap();
    let pad = pad.repeat(64 * 1024 / pad.len());
    let mut next = head;
    while taken.load(Ordering::SeqCst) < OFFERED && stream.write_all(next).is_ok() {
        taken.fetch_add(next.len(), Ordering::SeqCst);
        next = &pad;
    }
}

const BOMB: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n";

fn router_over(node: SocketAddr) -> Router {
    Router::start(RouterConfig {
        nodes: vec![node.to_string()],
        reconcile_ms: 0,
        upstream_timeout: UPSTREAM_TIMEOUT,
        ..RouterConfig::default()
    })
    .expect("router starts")
}

fn connect(router: &Router) -> Client {
    let mut client = Client::connect(router.addr()).unwrap();
    // A router that hangs fails the test instead of hanging it.
    let patience = Some(Duration::from_secs(20));
    client.conn().stream().set_read_timeout(patience).unwrap();
    client
}

/// The router answered from the header: before its own read deadline,
/// and without taking the body (what is in flight when it stops
/// reading is bounded by socket buffers, a few MiB at most).
fn assert_cut_short(t0: Instant, taken: &AtomicUsize) {
    let elapsed = t0.elapsed();
    assert!(elapsed < UPSTREAM_TIMEOUT, "took {elapsed:?}");
    std::thread::sleep(Duration::from_millis(500));
    let taken = taken.load(Ordering::SeqCst);
    assert!(taken < OFFERED / 2, "the router took {taken} bytes");
}

#[test]
fn json_forward_with_a_content_length_bomb_gets_the_typed_503() {
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    let node = start_fake_node(|stream, _| pour(stream, BOMB, b"x", &TAKEN));
    let router = router_over(node);
    let t0 = Instant::now();
    let (status, body) = connect(&router).invoke(None, "app-0", 1_000, None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(&node.to_string()), "names the node: {body}");
    assert!(body.contains("reply body too large"), "{body}");
    assert_cut_short(t0, &TAKEN);
    router.shutdown();
}

/// The same bomb in answer to a SITW-BIN frame. (Both of the parent's
/// frame readers checked the magic byte and `MAX_FRAME_PAYLOAD`, so
/// this half already held there; it pins that a frame pending cannot be
/// made to buffer through the shared reader's HTTP arm either.)
#[test]
fn bin_forward_with_a_content_length_bomb_gets_unavailable() {
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    let node = start_fake_node(|stream, _| pour(stream, BOMB, b"x", &TAKEN));
    let router = router_over(node);
    let t0 = Instant::now();
    // v2 relays the node's frame whole, v1 decodes and re-encodes it.
    let encoders: [fn(&mut Vec<u8>); 2] = [
        |f| wire::encode_request_frame_v2(f, &[(0, "app-0", 1_000)]),
        |f| wire::encode_request_frame(f, &[("app-0", 2_000)]),
    ];
    for encode in encoders {
        match connect(&router).batch(encode).unwrap() {
            Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => {
                assert_eq!(code, BinErrorCode::Unavailable, "{detail}");
                assert!(
                    detail.contains(&node.to_string()),
                    "names the node: {detail}"
                );
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }
    assert_cut_short(t0, &TAKEN);
    router.shutdown();
}

#[test]
fn header_flood_is_cut_at_the_cap() {
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    let node = start_fake_node(|stream, _| {
        pour(
            stream,
            b"HTTP/1.1 200 OK\r\n",
            b"x-pad: aaaaaaaa\r\n",
            &TAKEN,
        )
    });
    let router = router_over(node);
    let t0 = Instant::now();
    let (status, body) = connect(&router).invoke(None, "app-0", 1_000, None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(&node.to_string()), "names the node: {body}");
    assert!(body.contains("header too large"), "{body}");
    assert_cut_short(t0, &TAKEN);
    router.shutdown();
}
