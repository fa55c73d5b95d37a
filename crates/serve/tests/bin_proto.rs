//! SITW-BIN v1 protocol conformance: codec round-trip fuzzing (the CI
//! "protocol-conformance" step runs this file by name), partial-I/O
//! reassembly against a live daemon, short-write handling on batched
//! replies, and the typed-error-frame behaviour that keeps connections
//! usable after malformed or oversized frames.

use std::io::{Read, Write};
use std::net::TcpStream;

use proptest::prelude::*;
use sitw_serve::http::{ConnBuf, Reply};
use sitw_serve::wire::{
    self, decode_request_frame_into, decode_server_frame, encode_request_frame, BinErrorCode,
    BinReply, FrameDecodeInto, ServerFrameDecode,
};
use sitw_serve::{Client, ServeConfig, Server};
use sitw_sim::PolicySpec;

// ---------------------------------------------------------------------
// Codec fuzz (pure, no sockets).

/// Char pool mixing ASCII with 2-, 3-, and 4-byte UTF-8 sequences.
const APP_CHARS: [char; 16] = [
    'a', 'z', '0', '9', '-', '_', '.', ' ', 'é', 'ß', 'λ', '中', '功', '能', '🚀', '𝕏',
];

/// Timestamp edge values, indexed by a fuzzed selector.
fn edge_ts(selector: u64, raw: u64) -> u64 {
    match selector % 5 {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX - 1,
        _ => raw,
    }
}

fn build_records(shape: &[(Vec<usize>, u64, u64)]) -> Vec<(String, u64)> {
    shape
        .iter()
        .map(|(chars, sel, raw)| {
            let mut app: String = chars
                .iter()
                .map(|&i| APP_CHARS[i % APP_CHARS.len()])
                .collect();
            if app.is_empty() {
                app.push('a'); // Non-empty by protocol rule.
            }
            (app, edge_ts(*sel, *raw))
        })
        .collect()
}

proptest! {
    /// Any batch of records — arbitrary UTF-8 app names, edge-value
    /// timestamps — round-trips bit-for-bit through the request codec.
    #[test]
    fn request_frame_roundtrips(
        lens in prop::collection::vec(0usize..24, 0..40),
        sels in prop::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let shape: Vec<(Vec<usize>, u64, u64)> = lens
            .iter()
            .zip(&sels)
            .map(|(&n, &sel)| (((sel as usize)..(sel as usize) + n).collect(), sel, sel.wrapping_mul(0x9E37)))
            .collect();
        let records = build_records(&shape);
        let borrowed: Vec<(&str, u64)> = records.iter().map(|(a, t)| (a.as_str(), *t)).collect();
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, &borrowed);
        let mut got = Vec::new();
        match decode_request_frame_into(&frame, &mut got) {
            FrameDecodeInto::Request { consumed, .. } => {
                prop_assert_eq!(consumed, frame.len());
                prop_assert_eq!(got.len(), records.len());
                for (g, (app, ts)) in got.iter().zip(&records) {
                    prop_assert_eq!(&g.app, app);
                    prop_assert_eq!(g.ts, *ts);
                }
            }
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
    }

    /// Every proper prefix of a valid frame is `Incomplete` — the
    /// incremental parser never misfires on a split frame.
    #[test]
    fn truncated_frames_are_incomplete(
        lens in prop::collection::vec(1usize..12, 1..8),
        cut_frac in 0u64..10_000,
    ) {
        let shape: Vec<(Vec<usize>, u64, u64)> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| ((i..i + n).collect(), i as u64, (i as u64) << 20))
            .collect();
        let records = build_records(&shape);
        let borrowed: Vec<(&str, u64)> = records.iter().map(|(a, t)| (a.as_str(), *t)).collect();
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, &borrowed);
        let cut = (cut_frac as usize * frame.len()) / 10_000; // < len.
        prop_assert!(
            matches!(
                decode_request_frame_into(&frame[..cut], &mut Vec::new()),
                FrameDecodeInto::Incomplete
            ),
            "prefix of {} / {} bytes must be Incomplete", cut, frame.len()
        );
    }

    /// Frames with a *valid envelope* (magic, version, kind, consistent
    /// payload_len) but arbitrary payload bytes never panic: they parse
    /// or yield a skippable typed error. Random garbage almost never
    /// forms a valid header, so this targets the record parser directly
    /// (regression: an oversized first record used to drive the next
    /// record's app_len read out of bounds).
    #[test]
    fn arbitrary_payloads_under_valid_headers_never_panic(
        payload in prop::collection::vec(0u64..256, 0..128),
        count in 0u64..64,
    ) {
        let mut frame = vec![wire::BIN_MAGIC, wire::BIN_VERSION, wire::FRAME_REQUEST];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&(count as u32).to_le_bytes());
        frame.extend(payload.iter().map(|&b| b as u8));
        let mut records = Vec::new();
        match decode_request_frame_into(&frame, &mut records) {
            FrameDecodeInto::Request { consumed, .. } => {
                prop_assert_eq!(consumed, frame.len());
                prop_assert_eq!(records.len(), count as usize);
            }
            FrameDecodeInto::Incomplete => prop_assert!(false, "complete frame reported Incomplete"),
            FrameDecodeInto::Error { skip, .. } => {
                // An intact envelope must always be skippable.
                prop_assert_eq!(skip, Some(frame.len()));
            }
            FrameDecodeInto::Control { .. } => {
                prop_assert!(false, "request frame decoded as control")
            }
        }
    }

    /// Garbage after the magic byte never panics the decoder: it ends in
    /// Incomplete (needs more) or a typed Error, and any reported skip
    /// stays within the declared frame.
    #[test]
    fn garbage_frames_error_without_panicking(
        body in prop::collection::vec(0u64..256, 0..64),
    ) {
        let mut frame = vec![wire::BIN_MAGIC];
        frame.extend(body.iter().map(|&b| b as u8));
        let mut records = Vec::new();
        match decode_request_frame_into(&frame, &mut records) {
            FrameDecodeInto::Request { consumed, .. } => {
                // Only reachable when the bytes happen to form a valid
                // frame; sanity-check the invariants.
                prop_assert!(consumed <= frame.len());
                prop_assert!(records.len() <= wire::MAX_BATCH);
            }
            FrameDecodeInto::Incomplete => {}
            FrameDecodeInto::Error { skip, .. } => {
                if let Some(n) = skip {
                    prop_assert!(n >= wire::BIN_HEADER_LEN);
                    prop_assert!(n <= wire::BIN_HEADER_LEN + wire::MAX_FRAME_PAYLOAD);
                }
            }
            FrameDecodeInto::Control { .. } => {
                // Reachable only when the random bytes form a valid
                // control frame; nothing further to assert.
            }
        }
        // The server-frame decoder must be just as panic-free on the
        // same bytes (clients face a hostile network too).
        let _ = decode_server_frame(&frame);
    }

    /// The reply direction faces a hostile network too. Whatever a peer
    /// sends — garbage, a frame header or status line declaring any
    /// length around garbage, a header flood — the reply reader answers
    /// with replies, a clean `Eof` or a typed `io::Error`: never a
    /// panic, and never more buffered than its caps plus one read chunk.
    #[test]
    fn arbitrary_reply_bytes_yield_replies_or_typed_errors(
        shape in 0u64..7,
        declared in prop::collection::vec(0u64..u64::MAX, 1..2),
        noise in prop::collection::vec(0u64..256, 0..192),
    ) {
        let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        let declared = declared[0] >> (declared[0] % 64); // Every magnitude.
        let frame_header = |payload_len: u32| {
            let kind = noise.first().map_or(wire::FRAME_REPLY, |b| b % 12);
            let mut h = vec![wire::BIN_MAGIC, 1 + (payload_len % 2) as u8, kind];
            h.extend_from_slice(&payload_len.to_le_bytes());
            h.extend_from_slice(&((noise.len() / wire::REPLY_RECORD_LEN) as u32).to_le_bytes());
            h
        };
        let status_line = |len: u64| format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\n");
        let mut bytes = match shape {
            0 => Vec::new(),
            1 => vec![wire::BIN_MAGIC],
            2 => frame_header(noise.len() as u32),
            3 => frame_header(declared as u32),
            4 => status_line(noise.len() as u64).into_bytes(),
            5 => status_line(declared).into_bytes(),
            // A header flood: four cap-fuls with no blank line in sight.
            _ => b"HTTP/1.1 200 OK\r\nx-pad: ".repeat(64 * 1024 / 24),
        };
        bytes.extend_from_slice(&noise);

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, _) = listener.accept().unwrap();
        // The flood outgrows a socket buffer; write beside the reader.
        // A reader that gave up mid-flood resets the writer: fine.
        let writer = std::thread::spawn(move || drop(peer.write_all(&bytes)));
        let mut conn = ConnBuf::new(reader);
        let bound = 16 * 1024 + sitw_serve::http::MAX_REPLY_BODY_BYTES + 16 * 1024;
        loop {
            let outcome = conn.read_reply();
            prop_assert!(conn.buffered() <= bound, "{} bytes buffered", conn.buffered());
            match outcome {
                Ok(Reply::Eof) | Err(_) => break,
                Ok(Reply::Timeout) => prop_assert!(false, "no deadline was set"),
                Ok(_) => prop_assert!(!conn.reply_raw().is_empty()),
            }
        }
        if shape == 6 {
            prop_assert!(conn.buffered() <= 2 * 16 * 1024, "flood cut at the header cap");
        }
        drop(conn);
        writer.join().unwrap();
    }
}

// ---------------------------------------------------------------------
// Live-daemon helpers.

fn start_server(shards: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    })
    .expect("server start")
}

/// Reads the next server frame as a reply frame's records.
fn expect_reply(client: &mut Client) -> Vec<BinReply> {
    client.recv().unwrap().records().unwrap()
}

// ---------------------------------------------------------------------
// Partial I/O: frames fragmented at every byte boundary.

#[test]
fn frame_written_one_byte_at_a_time_is_served() {
    let server = start_server(2);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut frame = Vec::new();
    encode_request_frame(
        &mut frame,
        &[("app-α-1", 0), ("app-α-1", 60_000), ("β", 1_000)],
    );
    // One write per byte (Nagle off): the daemon sees the worst
    // possible fragmentation and must reassemble across all of it.
    for &b in &frame {
        client.send(&[b]).unwrap();
    }
    let records = expect_reply(&mut client);
    assert_eq!(records.len(), 3);
    assert!(matches!(records[0], BinReply::Verdict { cold: true, .. }));
    assert!(matches!(records[1], BinReply::Verdict { cold: false, .. }));
    assert!(matches!(records[2], BinReply::Verdict { cold: true, .. }));
    server.shutdown().unwrap();
}

#[test]
fn frames_split_at_every_boundary_across_two_writes() {
    // For every split point of a two-record frame, the tail written
    // after a delay still produces the same reply. One connection per
    // split keeps per-app timestamps independent.
    let server = start_server(2);
    // Zero-padded names keep every split's frame the same length, so
    // `1..frame.len()` covers identical boundaries each round; unique
    // names keep each round's first invocation cold (policy state is
    // app-keyed and server-wide, not per-connection).
    let frame_for = |split: usize| {
        let mut frame = Vec::new();
        let a = format!("sp-{split:03}-a");
        let b = format!("sp-{split:03}-功");
        encode_request_frame(&mut frame, &[(a.as_str(), 5), (b.as_str(), 7)]);
        frame
    };
    let frame_len = frame_for(0).len();
    for split in 1..frame_len {
        let frame = frame_for(split);
        let mut client = Client::connect(server.addr()).unwrap();
        client.send(&frame[..split]).unwrap();
        // Let the server observe the partial frame (its read timeout is
        // 50 ms; any sleep forces at least one fill round).
        std::thread::sleep(std::time::Duration::from_millis(2));
        client.send(&frame[split..]).unwrap();
        let records = expect_reply(&mut client);
        assert_eq!(records.len(), 2, "split at {split}");
        assert!(
            matches!(records[0], BinReply::Verdict { cold: true, .. }),
            "split at {split}: fresh connection, first sight of the app"
        );
    }
    server.shutdown().unwrap();
}

#[test]
fn large_batched_reply_survives_slow_draining_client() {
    // A batch big enough that the reply (9 bytes/record + header)
    // overflows socket buffers if unread; the client drains it in tiny
    // chunks while the server's write_all handles the short writes.
    let server = start_server(4);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let n = 4_000usize;
    let records: Vec<(String, u64)> = (0..n)
        .map(|i| (format!("bulk-{:04}", i % 997), (i as u64) * 10))
        .collect();
    let borrowed: Vec<(&str, u64)> = records.iter().map(|(a, t)| (a.as_str(), *t)).collect();
    let mut frame = Vec::new();
    encode_request_frame(&mut frame, &borrowed);
    stream.write_all(&frame).unwrap();

    let mut buf = Vec::new();
    let expected = wire::BIN_HEADER_LEN + n * wire::REPLY_RECORD_LEN;
    let mut chunk = [0u8; 7]; // Deliberately tiny reads.
    while buf.len() < expected {
        let got = stream.read(&mut chunk).unwrap();
        assert!(got > 0, "server closed mid-reply");
        buf.extend_from_slice(&chunk[..got]);
    }
    match decode_server_frame(&buf) {
        ServerFrameDecode::Reply { records, consumed } => {
            assert_eq!(consumed, expected);
            assert_eq!(records.len(), n);
            assert!(records
                .iter()
                .all(|r| matches!(r, BinReply::Verdict { .. })));
        }
        other => panic!("{other:?}"),
    }
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Typed error frames and connection survival (regression: before
// SITW-BIN existed, any non-HTTP byte tore the connection down with no
// answer at all; malformed frames must now be answered and survived).

#[test]
fn malformed_frame_gets_typed_error_and_connection_stays_usable() {
    let server = start_server(2);
    let mut client = Client::connect(server.addr()).unwrap();

    // Intact envelope, empty app name inside: Malformed, recoverable.
    // (A pad byte keeps the payload at the minimum record size, so the
    // header-level count/payload check passes and the record parser is
    // the one that rejects.)
    let mut payload = vec![0u8, 0];
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.push(0xAA);
    let mut bad = vec![wire::BIN_MAGIC, wire::BIN_VERSION, wire::FRAME_REQUEST];
    bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bad.extend_from_slice(&1u32.to_le_bytes());
    bad.extend_from_slice(&payload);
    client.send(&bad).unwrap();

    match client.recv().unwrap() {
        Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => {
            assert_eq!(code, BinErrorCode::Malformed);
            assert!(detail.contains("empty app"), "{detail}");
        }
        other => panic!("{other:?}"),
    }

    // The same connection still serves: a good frame, then JSON — full
    // protocol mixing after the error.
    let reply = client
        .batch(|f| wire::encode_request_frame(f, &[("recovered", 1)]))
        .unwrap();
    let records = reply.records().unwrap();
    assert!(matches!(records[0], BinReply::Verdict { cold: true, .. }));

    let (status, body) = client.invoke(None, "recovered", 2, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\":\"warm\""), "{body}");

    // The error is counted; only the good frame counts as served.
    let proto = server.metrics().proto;
    assert_eq!(proto.proto_errors, 1);
    assert_eq!(proto.frames, 1);
    assert_eq!(proto.batched_decisions, 1);
    server.shutdown().unwrap();
}

#[test]
fn oversized_batch_gets_typed_error_and_connection_stays_usable() {
    let server = start_server(1);
    let mut client = Client::connect(server.addr()).unwrap();

    // count > MAX_BATCH with a small, intact envelope.
    let mut bad = vec![wire::BIN_MAGIC, wire::BIN_VERSION, wire::FRAME_REQUEST];
    bad.extend_from_slice(&16u32.to_le_bytes());
    bad.extend_from_slice(&((wire::MAX_BATCH + 1) as u32).to_le_bytes());
    bad.extend_from_slice(&[0u8; 16]);
    client.send(&bad).unwrap();

    match client.recv().unwrap() {
        Reply::Frame(ServerFrameDecode::Error { code, .. }) => {
            assert_eq!(code, BinErrorCode::Oversized)
        }
        other => panic!("{other:?}"),
    }
    let reply = client
        .batch(|f| wire::encode_request_frame(f, &[("still-alive", 3)]))
        .unwrap();
    assert_eq!(reply.records().unwrap().len(), 1);
    assert_eq!(server.metrics().proto.proto_errors, 1);
    server.shutdown().unwrap();
}

#[test]
fn unrecoverable_frame_errors_answer_then_close() {
    let server = start_server(1);

    // Bad version: typed error frame, then FIN.
    let mut bad_version = vec![wire::BIN_MAGIC, 99, wire::FRAME_REQUEST];
    bad_version.extend_from_slice(&[0u8; 8]);
    // Payload length beyond the 1 MiB cap: same fate (mirrors HTTP 413).
    let mut huge = vec![wire::BIN_MAGIC, wire::BIN_VERSION, wire::FRAME_REQUEST];
    huge.extend_from_slice(&((wire::MAX_FRAME_PAYLOAD + 1) as u32).to_le_bytes());
    huge.extend_from_slice(&1u32.to_le_bytes());
    for (frame, want) in [
        (bad_version, BinErrorCode::BadVersion),
        (huge, BinErrorCode::Oversized),
    ] {
        let mut client = Client::connect(server.addr()).unwrap();
        client.send(&frame).unwrap();
        match client.recv().unwrap() {
            Reply::Frame(ServerFrameDecode::Error { code, .. }) => assert_eq!(code, want),
            other => panic!("{other:?}"),
        }
        // Nothing after the error frame but the FIN.
        assert!(matches!(client.conn().read_reply().unwrap(), Reply::Eof));
    }

    assert_eq!(server.metrics().proto.proto_errors, 2);
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Server-side frame pipelining: many frames written back-to-back without
// reading a single reply; the server decodes and dispatches them while
// earlier batches are still in flight, and replies MUST come back in
// frame order (the pipelining ordering invariant).

#[test]
fn pipelined_frames_get_replies_in_frame_order() {
    let server = start_server(4);
    let mut client = Client::connect(server.addr()).unwrap();

    // 60 single-record frames (the bin:batch=1 shape that used to pay a
    // synchronous round trip each), all written before any read. Each
    // frame uses its own app with a strictly increasing timestamp, so
    // frame k's verdict is uniquely identifiable: the first invocation
    // of app k is cold, the second (sent in frame k + 30) is warm with
    // app k's keep-alive — distinct per k via fixed policy? One policy
    // for all; identify by cold/warm sequence instead: frames 0..30 are
    // first-sight colds, frames 30..60 revisit the same apps in order
    // and must be warm.
    let n = 30u64;
    let mut batch = Vec::new();
    for k in 0..n {
        encode_request_frame(&mut batch, &[(format!("pipe-{k:02}").as_str(), 0)]);
    }
    for k in 0..n {
        encode_request_frame(&mut batch, &[(format!("pipe-{k:02}").as_str(), 60_000 + k)]);
    }
    client.send(&batch).unwrap();

    for k in 0..n {
        let records = expect_reply(&mut client);
        assert_eq!(records.len(), 1, "frame {k}");
        assert!(
            matches!(records[0], BinReply::Verdict { cold: true, .. }),
            "frame {k} must be the cold first sight of app {k}: {:?}",
            records[0]
        );
    }
    for k in 0..n {
        let records = expect_reply(&mut client);
        assert!(
            matches!(records[0], BinReply::Verdict { cold: false, .. }),
            "frame {} must be the warm revisit of app {k}: {:?}",
            n + k,
            records[0]
        );
    }
    let proto = server.metrics().proto;
    assert_eq!(proto.frames, 2 * n);
    assert_eq!(proto.batched_decisions, 2 * n);
    server.shutdown().unwrap();
}

#[test]
fn pipelined_frames_interleave_with_errors_in_order() {
    // A malformed frame sandwiched between good frames, all written
    // back-to-back: the typed error frame must come back exactly between
    // the two replies (errors join the pipeline queue, they do not jump
    // it).
    let server = start_server(2);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut batch = Vec::new();
    encode_request_frame(&mut batch, &[("inter-a", 1)]);
    // Malformed-but-delimited: empty app with an intact envelope.
    let mut payload = vec![0u8, 0];
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.push(0xAA);
    batch.extend_from_slice(&[wire::BIN_MAGIC, wire::BIN_VERSION, wire::FRAME_REQUEST]);
    batch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    batch.extend_from_slice(&1u32.to_le_bytes());
    batch.extend_from_slice(&payload);
    encode_request_frame(&mut batch, &[("inter-b", 2)]);
    client.send(&batch).unwrap();

    let first = expect_reply(&mut client);
    assert!(matches!(first[0], BinReply::Verdict { cold: true, .. }));
    match client.recv().unwrap() {
        Reply::Frame(ServerFrameDecode::Error { code, .. }) => {
            assert_eq!(code, BinErrorCode::Malformed)
        }
        other => panic!("expected the error frame second, got {other:?}"),
    }
    let third = expect_reply(&mut client);
    assert!(matches!(third[0], BinReply::Verdict { cold: true, .. }));
    server.shutdown().unwrap();
}

#[test]
fn out_of_order_records_are_per_record_errors_not_frame_errors() {
    let server = start_server(1);
    let mut client = Client::connect(server.addr()).unwrap();

    let frame = [("ooo", 600_000), ("ooo", 60_000), ("ooo", 700_000)];
    let records = client
        .batch(|f| wire::encode_request_frame(f, &frame))
        .unwrap()
        .records()
        .unwrap();
    assert!(matches!(records[0], BinReply::Verdict { cold: true, .. }));
    assert_eq!(records[1], BinReply::OutOfOrder { last_ts: 600_000 });
    assert!(matches!(records[2], BinReply::Verdict { cold: false, .. }));
    // Rejections are data, not protocol errors.
    assert_eq!(server.metrics().proto.proto_errors, 0);
    server.shutdown().unwrap();
}
