//! The load generator's replay loop, against a fake node and a real one.
//!
//! The fake node records the bytes each replay connection sends and
//! answers every message by its position on the connection: warm, cold
//! and evicted verdicts, out-of-order records, and whole-message errors
//! (a 409, or a typed error frame). It holds its answers until the
//! connection goes quiet, so the most records it held unanswered is the
//! most the replay kept in flight, which must stay within the window.
//! The goldens were captured from the generator's separate JSON and
//! SITW-BIN loops, before they became one: every connection must still
//! send the same bytes, and every report must count the same.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use sitw_core::DecisionKind;
use sitw_fleet::fnv1a;
use sitw_serve::wire::{self, BinErrorCode, BinReply, FrameDecodeInto};
use sitw_serve::{
    http, run_loadgen, LoadGenConfig, LoadGenReport, Proto, ServeConfig, Server, TenantConfig,
};

/// The three protocol shapes: one record per request, one per frame,
/// and frames of 16 under a window of 20 that no frame size divides.
fn configs() -> Vec<LoadGenConfig> {
    ["json", "bin:batch=1", "bin:batch=16"]
        .into_iter()
        .map(|proto| LoadGenConfig {
            apps: 60,
            connections: 3,
            window: 20,
            max_events: 3_000,
            proto: Proto::parse(proto).unwrap(),
            tenants: 3,
            zipf: 1.1,
            trace_sample: 5,
            ..LoadGenConfig::default()
        })
        .collect()
}

/// The fake node's answer to the `k`-th record of a connection:
/// `(cold, evicted)`, or `None` for an out-of-order record.
fn verdict(k: usize) -> Option<(bool, bool)> {
    let cold = k.is_multiple_of(3);
    (k % 11 != 4).then_some((cold, cold && k.is_multiple_of(5)))
}

/// A message the fake node refuses whole.
fn refused(message: usize) -> bool {
    message % 7 == 3
}

/// How a fake node answers the `message`-th JSON request of a
/// connection: the reply's bytes.
type JsonAnswer = fn(usize) -> Vec<u8>;

fn response(status: u16, body: &str) -> Vec<u8> {
    let mut out = Vec::new();
    http::write_response(&mut out, status, "application/json", body.as_bytes());
    out
}

/// The JSON answers of the equivalence runs.
fn json_answer(message: usize) -> Vec<u8> {
    match verdict(message) {
        Some((cold, evicted)) if !refused(message) => {
            let verdict = if cold { "cold" } else { "warm" };
            let body = format!(
                "{{\"verdict\":\"{verdict}\",\"kind\":\"standard\",\"pre_warm_ms\":0,\
                 \"keep_alive_ms\":600000,\"prewarm_load\":false,\"evicted\":{evicted}}}"
            );
            response(200, &body)
        }
        _ => response(409, "{\"error\":\"out of order\"}"),
    }
}

fn frame_answer(message: usize, records: usize) -> Vec<u8> {
    let mut out = Vec::new();
    if refused(message) {
        wire::encode_error_frame(&mut out, BinErrorCode::Unavailable, "node down");
        return out;
    }
    let replies: Vec<BinReply> = (message..message + records)
        .map(|k| match verdict(k) {
            Some((cold, evicted)) => BinReply::Verdict {
                cold,
                prewarm_load: false,
                evicted,
                kind: DecisionKind::StandardKeepAlive,
                pre_warm_ms: 0,
                keep_alive_ms: 600_000,
            },
            None => BinReply::OutOfOrder { last_ts: 1 },
        })
        .collect();
    wire::encode_reply_records(&mut out, wire::BIN_VERSION_2, &replies);
    out
}

/// Tenants `t0..t2` under wire ids 5..=7, so a replay that sends the
/// logical index instead of the registered id is seen.
const LISTING: &str =
    "[{\"id\":5,\"name\":\"t0\"},{\"id\":6,\"name\":\"t1\"},{\"id\":7,\"name\":\"t2\"}]";

/// What the fake node saw of one replay connection: every byte it
/// sent, and the most records it had sent that were not yet answered.
struct Seen {
    bytes: Vec<u8>,
    most_unanswered: usize,
}

/// Starts a fake node that serves `conns` connections, one thread
/// each, and returns what each replay connection sent, in accept order,
/// once all of them have closed (a tenant listing's connection is not
/// reported).
fn fake_node(json: JsonAnswer, conns: usize) -> (SocketAddr, JoinHandle<Vec<Seen>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let node = std::thread::spawn(move || {
        let handlers: Vec<_> = listener
            .incoming()
            .take(conns)
            .map(|stream| std::thread::spawn(move || serve(stream.unwrap(), json)))
            .collect();
        handlers
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect()
    });
    (addr, node)
}

/// Answers every complete message, in order, once the peer has sent
/// nothing for a few milliseconds — a replay waiting on a full window —
/// and returns what the peer sent, or `None` for a tenant-listing
/// connection.
fn serve(mut stream: TcpStream, json: JsonAnswer) -> Option<Seen> {
    let (mut seen, mut at, mut message) = (Vec::new(), 0usize, 0usize);
    let mut records = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut listing = false;
    // Answers held back, and the records they answer.
    let (mut held, mut unanswered, mut most_unanswered) = (Vec::new(), 0usize, 0usize);
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    loop {
        while at < seen.len() {
            let rest = &seen[at..];
            let out;
            if rest[0] == wire::BIN_MAGIC {
                match wire::decode_request_frame_into(rest, &mut records) {
                    FrameDecodeInto::Request { consumed, .. } => at += consumed,
                    FrameDecodeInto::Incomplete => break,
                    other => panic!("not a request frame: {other:?}"),
                }
                out = frame_answer(message, records.len());
                unanswered += records.len();
                message += 1;
            } else {
                let Some(head) = rest.windows(4).position(|w| w == b"\r\n\r\n") else {
                    break;
                };
                let header = std::str::from_utf8(&rest[..head]).unwrap();
                let body_len: usize = header
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .map_or(0, |n| n.parse().unwrap());
                if rest.len() < head + 4 + body_len {
                    break;
                }
                at += head + 4 + body_len;
                if header.starts_with("GET /admin/tenants ") {
                    listing = true;
                    out = response(200, LISTING);
                } else {
                    assert!(header.starts_with("POST /invoke "), "{header}");
                    out = json(message);
                    unanswered += 1;
                    message += 1;
                }
            }
            held.extend_from_slice(&out);
            most_unanswered = most_unanswered.max(unanswered);
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => seen.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Quiet: the peer waits on what it sent. A replay that
                // has failed may have closed its end already.
                let _ = stream.write_all(&held);
                (held, unanswered) = (Vec::new(), 0);
            }
            Ok(_) | Err(_) => {
                let _ = stream.write_all(&held);
                return (!listing).then_some(Seen {
                    bytes: seen,
                    most_unanswered,
                });
            }
        }
    }
}

/// Every count a report carries.
fn counts(r: &LoadGenReport) -> String {
    let tenants: Vec<String> = r
        .per_tenant
        .iter()
        .map(|t| format!("{}/{}/{}/{}", t.ok, t.cold, t.evicted, t.errors))
        .collect();
    format!(
        "sent {} ok {} cold {} warm {} evicted {} errors {} conns {} traces {} | {}",
        r.sent,
        r.ok,
        r.cold,
        r.warm,
        r.evicted,
        r.errors,
        r.max_live_conns,
        r.traces.len(),
        tenants.join(" ")
    )
}

/// Captured from the separate loops: per config, each connection's
/// `len:fnv1a`, and the report's counts against the fake node and
/// against a live one.
const GOLDEN: &str = "\
json bytes 103688:bcf7cb053c8a845d 83446:56c130e5a7e5a1a9 109379:a26a1e0f292bf4c8
json fake sent 3000 ok 2336 cold 776 warm 1560 evicted 155 errors 664 conns 3 traces 601 | 558/193/31/154 1329/432/97/384 449/151/27/126
json node sent 3000 ok 3000 cold 100 warm 2900 evicted 0 errors 0 conns 3 traces 601 | 712/69/0/0 1713/26/0/0 575/5/0/0
bin:batch=1 bytes 36297:bcc73eb35908b4ac 29204:e077e2a050ab4f13 38307:76bedd2c0767f966
bin:batch=1 fake sent 3000 ok 2336 cold 776 warm 1560 evicted 155 errors 664 conns 3 traces 601 | 558/193/31/154 1329/432/97/384 449/151/27/126
bin:batch=1 node sent 3000 ok 3000 cold 100 warm 2900 evicted 0 errors 0 conns 3 traces 601 | 712/69/0/0 1713/26/0/0 575/5/0/0
bin:batch=16 bytes 23916:2bc9572388e1fd89 19239:81c1d687f9b28d79 25236:5ab6ba9014cc379b
bin:batch=16 fake sent 3000 ok 2334 cold 771 warm 1563 evicted 129 errors 666 conns 3 traces 39 | 563/194/32/149 1325/437/79/388 446/140/18/129
bin:batch=16 node sent 3000 ok 3000 cold 100 warm 2900 evicted 0 errors 0 conns 3 traces 39 | 712/69/0/0 1713/26/0/0 575/5/0/0
";

fn golden(label: &str, what: &str) -> &'static str {
    let key = format!("{label} {what} ");
    GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(&key))
        .expect(&key)
}

#[test]
fn each_connection_sends_the_parents_bytes_and_counts_the_same() {
    for cfg in configs() {
        let label = cfg.proto.label();
        // A SITW-BIN replay of named tenants asks for their ids first.
        let listing = usize::from(cfg.proto != Proto::Json);
        let (addr, node) = fake_node(json_answer, cfg.connections + listing);
        let report = run_loadgen(&[addr], &cfg).expect("replay");
        assert_eq!(counts(&report), golden(&label, "fake"), "{label}");
        let seen = node.join().unwrap();
        // Each connection's `len:fnv1a`, in connection order.
        let bytes: Vec<String> = (seen.iter())
            .map(|s| format!("{}:{:016x}", s.bytes.len(), fnv1a(&s.bytes)))
            .collect();
        assert_eq!(bytes.join(" "), golden(&label, "bytes"), "{label}");
        // No connection had more records in flight than the window (every
        // config's batch fits in it), and the node saw windows fill.
        let most: Vec<usize> = seen.iter().map(|s| s.most_unanswered).collect();
        assert!(
            most.iter().all(|&m| m <= cfg.window && m > cfg.window / 2),
            "{label}: at most {most:?} records unanswered, window {}",
            cfg.window
        );
    }
}

#[test]
fn a_live_node_counts_what_it_counted_for_the_parent() {
    for cfg in configs() {
        let label = cfg.proto.label();
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            tenants: ["t0=fixed:10", "t1=hybrid", "t2=fixed:60"]
                .into_iter()
                .map(|t| TenantConfig::parse(t).unwrap())
                .collect(),
            ..ServeConfig::default()
        })
        .expect("server start");
        let report = run_loadgen(&[server.addr()], &cfg).expect("replay");
        assert_eq!(counts(&report), golden(&label, "node"), "{label}");
        server.shutdown().expect("shutdown");
    }
}

#[test]
fn a_reply_that_is_not_one_verdict_per_record_is_refused() {
    let cfg = LoadGenConfig {
        apps: 20,
        connections: 1,
        max_events: 100,
        ..LoadGenConfig::default()
    };
    // A 200 that is no decision, and two verdicts for one request.
    let answers: [JsonAnswer; 2] = [|_| response(200, "{}"), |_| frame_answer(0, 2)];
    for answer in answers {
        let (addr, node) = fake_node(answer, 1);
        let err = run_loadgen(&[addr], &cfg).expect_err("no verdict per record");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        node.join().unwrap();
    }
}
