//! Boundary hardening of the JSON request path (the CI "JSON request
//! fuzz" step runs this file by name): arbitrary bytes and valid
//! pipelined `POST /invoke` streams are fed to [`ConnBuf`] whole and
//! split at an arbitrary point, and every request body is parsed with
//! [`wire::parse_invoke_into`], exactly as a reactor does. Both feeds
//! must yield the same event sequence, every failure must be a typed
//! error (never a panic), and what is buffered must stay under the caps.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use proptest::prelude::*;
use sitw_serve::http::{ConnBuf, ReadEvent, Request, MAX_BODY_BYTES};
use sitw_serve::wire::{self, BinInvoke, InvokeRequest, BIN_HEADER_LEN, MAX_FRAME_PAYLOAD};

/// The request header cap (`http.rs` keeps it private; the reply fuzz
/// in `bin_proto.rs` names it the same way).
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// One socket read.
const READ_CHUNK: usize = 16 * 1024;

/// The most a reader may hold: the larger of one whole HTTP message and
/// one whole SITW-BIN frame, plus the read that overshot it.
const BUFFER_BOUND: usize = READ_CHUNK
    + if MAX_HEADER_BYTES + 4 + MAX_BODY_BYTES > BIN_HEADER_LEN + MAX_FRAME_PAYLOAD {
        MAX_HEADER_BYTES + 4 + MAX_BODY_BYTES
    } else {
        BIN_HEADER_LEN + MAX_FRAME_PAYLOAD
    };

/// Reads events until the stream ends or a reactor would stop reading
/// it, describing each; `Timeout`s depend on segmentation and are left
/// out. `Err` when the reader buffered more than the caps allow.
fn read_events(
    conn: &mut ConnBuf,
    req: &mut Request,
    records: &mut Vec<BinInvoke>,
    events: &mut Vec<String>,
    until_idle: bool,
) -> Result<bool, String> {
    let mut invoke = InvokeRequest::default();
    loop {
        let event = conn.read_event_into(req, records);
        if conn.buffered() > BUFFER_BOUND {
            return Err(format!("{} bytes buffered", conn.buffered()));
        }
        let (text, done) = match event {
            Ok(ReadEvent::Timeout) if until_idle => return Ok(false),
            Ok(ReadEvent::Timeout) => continue,
            Ok(ReadEvent::Request) => {
                let parsed = wire::parse_invoke_into(&req.body, &mut invoke)
                    .map(|()| (invoke.app.clone(), invoke.ts, invoke.tenant.clone()));
                let text = format!(
                    "request {} {} close={} trace={:?} body={:?} invoke={parsed:?}",
                    req.method,
                    req.path,
                    req.close,
                    req.trace,
                    String::from_utf8_lossy(&req.body),
                );
                (text, false)
            }
            Ok(ReadEvent::Frame { trace }) => (format!("frame {trace:?} {records:?}"), false),
            Ok(ReadEvent::FrameError {
                code,
                detail,
                recoverable,
            }) => (format!("frame error {code:?} {detail}"), !recoverable),
            Ok(ReadEvent::BodyTooLarge { declared }) => (format!("413 {declared}"), true),
            Ok(ReadEvent::Eof) => ("eof".to_owned(), true),
            Err(e) => (format!("error {:?}: {e}", e.kind()), true),
        };
        events.push(text);
        if done {
            return Ok(true);
        }
    }
}

/// Writes `bytes[..cut]`, reads until the socket idles, writes the rest
/// and the FIN, and reads to the end: the event sequence a reactor
/// parses out of that segmentation.
fn feed(bytes: &[u8], cut: usize) -> Result<Vec<String>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (reader, _) = listener.accept().unwrap();
    // Short: an idle wait only ends the first segment's reads early,
    // which moves the split point and must not change the events.
    reader
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let mut conn = ConnBuf::new(reader);
    let (mut req, mut records, mut events) = (Request::default(), Vec::new(), Vec::new());
    let (first, rest) = bytes.split_at(cut.min(bytes.len()));
    peer.write_all(first).unwrap();
    if !rest.is_empty() {
        if read_events(&mut conn, &mut req, &mut records, &mut events, true)? {
            return Ok(events);
        }
        // The reader may have stopped already; then nobody reads this.
        let _ = peer.write_all(rest);
    }
    let _ = peer.shutdown(Shutdown::Write);
    read_events(&mut conn, &mut req, &mut records, &mut events, false)?;
    Ok(events)
}

/// Byte-level tokens of the protocols, so arbitrary input reaches past
/// the first parse error often enough to matter.
const TOKENS: [&str; 20] = [
    "POST /invoke HTTP/1.1\r\n",
    "GET /healthz HTTP/1.1\r\n",
    "content-length: ",
    "Content-Length: 99999999999999999999\r\n",
    "connection: close\r\n",
    "x-sitw-trace: 0xBEE\r\n",
    "\r\n",
    "\r\n\r\n",
    "{\"app\":\"",
    "\",\"ts\":",
    ",\"tenant\":\"",
    "}",
    "\\u00e9\\\"",
    "18446744073709551616",
    "7",
    "42",
    "HTTP/1.0",
    "\u{1F680}",
    "\x00",
    "\u{7f}",
];

/// App-name characters: ASCII, multi-byte UTF-8, and what JSON escapes.
const APP_CHARS: [char; 12] = [
    'a', 'z', '0', '-', '_', ' ', 'é', '中', '🚀', '"', '\\', '\u{1}',
];

fn token_bytes(kinds: &[u64], values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for (&kind, &v) in kinds.iter().zip(values) {
        if kind == 1 {
            out.extend_from_slice(TOKENS[v as usize % TOKENS.len()].as_bytes());
        } else {
            out.push(v as u8);
        }
    }
    out
}

/// One `POST /invoke` with an `x-pad` header of `pad` bytes.
fn invoke_bytes(out: &mut Vec<u8>, app: &str, ts: u64, tenant: Option<&str>, pad: usize) {
    let tenant = tenant.map_or(String::new(), |t| {
        format!("\"tenant\":\"{}\",", wire::json_escape(t))
    });
    let body = format!(
        "{{{tenant}\"app\":\"{}\",\"ts\":{ts}}}",
        wire::json_escape(app)
    );
    write!(
        out,
        "POST /invoke HTTP/1.1\r\nx-pad: {}\r\ncontent-length: {}\r\n\r\n{body}",
        "p".repeat(pad),
        body.len()
    )
    .unwrap();
}

proptest! {
    /// Arbitrary bytes — random, protocol tokens, or behind a request
    /// whose header block straddles the cap — parse to the same events
    /// however they are segmented, and only into typed outcomes.
    #[test]
    fn arbitrary_bytes_parse_alike_whole_and_split(
        shape in 0u64..4,
        pad in 16_300usize..16_420,
        kinds in prop::collection::vec(0u64..2, 0..160),
        values in prop::collection::vec(0u64..256, 160..161),
        cut_frac in 0u64..10_000,
    ) {
        let mut bytes = Vec::new();
        match shape {
            1 => invoke_bytes(&mut bytes, "a", 1, None, 0),
            2 => invoke_bytes(&mut bytes, "a", 1, None, pad),
            3 => bytes.push(wire::BIN_MAGIC),
            _ => {}
        }
        bytes.extend(token_bytes(&kinds, &values));
        let cut = match shape {
            // Split around the header cap, where segmentation could tell.
            2 => MAX_HEADER_BYTES - 60 + cut_frac as usize % 160,
            _ => (cut_frac as usize * (bytes.len() + 1)) / 10_000,
        };
        let whole = feed(&bytes, bytes.len());
        let split = feed(&bytes, cut);
        prop_assert!(whole.is_ok(), "{:?}", whole);
        prop_assert!(whole == split, "cut at {} of {}: {:?} vs {:?}", cut, bytes.len(), whole, split);
    }

    /// A valid pipelined stream of `POST /invoke` requests — any app
    /// name, edge timestamps, tenants, header blocks up to near the cap
    /// — parses, whole or split, into exactly the requests sent.
    #[test]
    fn valid_invoke_streams_parse_exactly_whole_and_split(
        lens in prop::collection::vec(1usize..12, 1..12),
        chars in prop::collection::vec(0usize..64, 144..145),
        stamps in prop::collection::vec(0u64..u64::MAX, 12..13),
        shapes in prop::collection::vec(0u64..4, 12..13),
        pads in prop::collection::vec(0usize..16_000, 12..13),
        cut_frac in 0u64..10_000,
    ) {
        let mut bytes = Vec::new();
        let mut sent = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let app: String = chars[i * 12..i * 12 + len]
                .iter()
                .map(|&c| APP_CHARS[c % APP_CHARS.len()])
                .collect();
            let ts = match shapes[i] {
                0 => 0,
                1 => u64::MAX,
                _ => stamps[i],
            };
            let tenant = (shapes[i] == 3).then(|| format!("t-{app}"));
            // Mostly small header blocks, now and then one near the cap.
            let pad = if pads[i] % 7 == 0 { pads[i] } else { pads[i] % 64 };
            invoke_bytes(&mut bytes, &app, ts, tenant.as_deref(), pad);
            sent.push(Ok::<_, String>((app, ts, tenant)));
        }
        let cut = (cut_frac as usize * (bytes.len() + 1)) / 10_000;
        let whole = feed(&bytes, bytes.len()).unwrap();
        prop_assert_eq!(whole.len(), lens.len() + 1);
        prop_assert_eq!(whole.last().map(String::as_str), Some("eof"));
        for (event, sent) in whole.iter().zip(&sent) {
            prop_assert!(event.ends_with(&format!("invoke={sent:?}")), "{} vs {:?}", event, sent);
        }
        prop_assert_eq!(feed(&bytes, cut).unwrap(), whole);
    }
}
