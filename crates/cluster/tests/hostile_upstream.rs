//! Replies are bounded like requests: a confused or hostile upstream
//! behind a real `Router` cannot make a client thread buffer without
//! bound. The parent's router looped `fill()` on whatever
//! `content-length` a node declared and never capped the header block,
//! so against these fake nodes it buffered until they stopped sending
//! and only then timed out; now the verdict comes from the header. A
//! reply frame must also carry as many records as its slice asked for,
//! and one relayed whole reaches the client byte for byte.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use common::start_fake_node;
use sitw_cluster::{ClusterRing, Router, RouterConfig};
use sitw_serve::http::Reply;
use sitw_serve::wire::{self, BinErrorCode, BinReply, FrameDecodeInto, ServerFrameDecode};
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

fn router_over(nodes: &[SocketAddr]) -> Router {
    Router::start(RouterConfig {
        nodes: nodes.iter().map(SocketAddr::to_string).collect(),
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

/// Two default-tenant apps, owned by node slots 0 and 1 of a two-node
/// ring: a frame of both is split, a frame of the first is whole.
fn apps_on_each_node() -> [String; 2] {
    let ring = ClusterRing::new(2);
    let on = |node| {
        let owns = |app: &String| ring.node_of_app(app) == Some(node);
        (0..).map(|i| format!("app-{i}")).find(owns).unwrap()
    };
    [on(0), on(1)]
}

/// The frames of one client: one relayed whole from node slot 0, one
/// reassembled from both slots.
fn whole_and_split(apps: &[String; 2]) -> [Vec<(u16, &str, u64)>; 2] {
    let (a, b) = (apps[0].as_str(), apps[1].as_str());
    [vec![(0, a, 1_000)], vec![(0, a, 2_000), (0, b, 2_000)]]
}

/// Sends `frame`, checks the answer is `Unavailable` naming `node`, and
/// returns its detail.
fn assert_unavailable(router: &Router, frame: &[(u16, &str, u64)], node: SocketAddr) -> String {
    match connect(router).batch(|f| wire::encode_request_frame_v2(f, frame)) {
        Ok(Reply::Frame(ServerFrameDecode::Error { code, detail, .. })) => {
            assert_eq!(code, BinErrorCode::Unavailable, "{frame:?}: {detail}");
            assert!(
                detail.contains(&node.to_string()),
                "names the node: {detail}"
            );
            detail
        }
        other => panic!("{frame:?}: expected Unavailable, got {other:?}"),
    }
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
    let router = router_over(&[node]);
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
    let bomb = |stream, _: &[u8]| pour(stream, BOMB, b"x", &TAKEN);
    let nodes = [start_fake_node(bomb), start_fake_node(bomb)];
    let router = router_over(&nodes);
    let t0 = Instant::now();
    // A frame on one node relays its reply whole; a split one reassembles
    // the replies, and its error comes from the lowest slot.
    let apps = apps_on_each_node();
    for frame in whole_and_split(&apps) {
        let detail = assert_unavailable(&router, &frame, nodes[0]);
        assert!(detail.contains("reply body too large"), "{detail}");
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
    let router = router_over(&[node]);
    let t0 = Instant::now();
    let (status, body) = connect(&router).invoke(None, "app-0", 1_000, None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(&node.to_string()), "names the node: {body}");
    assert!(body.contains("header too large"), "{body}");
    assert_cut_short(t0, &TAKEN);
    router.shutdown();
}

/// Answers every request frame on `stream` — the first one's bytes
/// already read — with the reply frame `reply` makes for its record
/// count.
fn answer_frames(mut stream: TcpStream, first: &[u8], reply: fn(usize) -> Vec<u8>) {
    let (mut buf, mut recs, mut chunk) = (first.to_vec(), Vec::new(), [0u8; 4096]);
    loop {
        while let FrameDecodeInto::Request { consumed, .. } =
            wire::decode_request_frame_into(&buf, &mut recs)
        {
            if stream.write_all(&reply(recs.len())).is_err() {
                return;
            }
            buf.drain(..consumed);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// A reply frame of `n` copies of `rec`.
fn replies(n: usize, rec: BinReply) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_reply_records(&mut out, wire::BIN_VERSION_2, &vec![rec; n]);
    out
}

/// Regression: the router relayed a whole frame's reply unchecked and
/// dropped a split frame's extra records, so a node answering one
/// record with two gave the client two verdicts for one invocation.
/// Now a reply frame with more or fewer records than its slice fails
/// the answer, whole or split, with `Unavailable` naming the node.
#[test]
fn a_reply_with_the_wrong_record_count_gets_unavailable() {
    const LATE: BinReply = BinReply::OutOfOrder { last_ts: 0 };
    let long: fn(TcpStream, &[u8]) =
        |stream, first| answer_frames(stream, first, |n| replies(n + 1, LATE));
    let short: fn(TcpStream, &[u8]) =
        |stream, first| answer_frames(stream, first, |n| replies(n.saturating_sub(1), LATE));
    let apps = apps_on_each_node();
    for answer in [long, short] {
        let nodes = [start_fake_node(answer), start_fake_node(answer)];
        let router = router_over(&nodes);
        for frame in whole_and_split(&apps) {
            let detail = assert_unavailable(&router, &frame, nodes[0]);
            assert!(detail.contains(" records for "), "{detail}");
        }
        router.shutdown();
    }
}

/// A frame whole on one node gets that node's reply frame byte for byte;
/// a split frame's records are decoded and encoded again. A node that
/// sets the reserved verdict bit 5, which re-encoding clears, shows which
/// one happened.
#[test]
fn a_frame_on_one_node_gets_the_node_reply_byte_for_byte() {
    const LATE: BinReply = BinReply::OutOfOrder { last_ts: 7 };
    const RESERVED: u8 = 1 << 5;
    let marked: fn(TcpStream, &[u8]) = |stream, first| {
        answer_frames(stream, first, |n| {
            let mut frame = replies(n, LATE);
            for rec in frame[wire::BIN_HEADER_LEN..].chunks_mut(wire::REPLY_RECORD_LEN) {
                rec[0] |= RESERVED;
            }
            frame
        })
    };
    let nodes = [start_fake_node(marked), start_fake_node(marked)];
    let router = router_over(&nodes);
    let apps = apps_on_each_node();
    for (frame, relayed) in whole_and_split(&apps).into_iter().zip([true, false]) {
        let mut client = connect(&router);
        let reply = client.batch(|f| wire::encode_request_frame_v2(f, &frame));
        let records = reply.and_then(Reply::records).unwrap();
        assert_eq!(records, vec![LATE; frame.len()]);
        let raw = client.conn().reply_raw();
        let marked = raw[wire::BIN_HEADER_LEN..]
            .chunks(wire::REPLY_RECORD_LEN)
            .all(|rec| rec[0] & RESERVED != 0);
        assert_eq!(marked, relayed, "{frame:?}: {raw:?}");
    }
    router.shutdown();
}
