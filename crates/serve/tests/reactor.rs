//! Reactor-model integration tests: connection-churn leak-freedom, the
//! slowloris idle-timeout regression, mid-frame disconnects while
//! batches are in flight, high fan-in on a small reactor pool, and
//! shutdown liveness with stuck clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sitw_serve::http::{write_request, Reply};
use sitw_serve::wire::{self, encode_request_frame, BinReply};
use sitw_serve::{Client, ServeConfig, Server};
use sitw_sim::PolicySpec;

fn start_server(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("server start")
}

fn base_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    }
}

/// Polls `cond` until it holds or `timeout` passes.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------
// Satellite bugfix regression: a slowloris client that sends half a
// message and stalls used to hold its connection (and, at shutdown, its
// thread) forever — there was no idle/read deadline at all. The reactor
// enforces `idle_timeout` on half-received messages.

#[test]
fn slowloris_half_message_is_disconnected_after_idle_timeout() {
    let server = start_server(ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..base_config()
    });

    // Half an HTTP header, then silence.
    let mut http = TcpStream::connect(server.addr()).unwrap();
    http.write_all(b"POST /inv").unwrap();
    // Half a SITW-BIN frame (magic + version only), then silence.
    let mut bin = TcpStream::connect(server.addr()).unwrap();
    bin.write_all(&[wire::BIN_MAGIC, wire::BIN_VERSION])
        .unwrap();
    // A malformed-but-delimited frame whose declared payload is only
    // partially sent, then silence: the typed error is answered but the
    // connection is mid-*skip* (parse buffer empty, the peer still owes
    // skip bytes) — the idle clock must cover that state too.
    let mut skip = TcpStream::connect(server.addr()).unwrap();
    let mut bad = vec![wire::BIN_MAGIC, wire::BIN_VERSION, wire::FRAME_REQUEST];
    // 1000 declared records cannot fit a 4 KiB payload: malformed,
    // decidable from the header alone, so the payload is a lazy skip.
    bad.extend_from_slice(&4096u32.to_le_bytes()); // payload_len
    bad.extend_from_slice(&1000u32.to_le_bytes()); // count
    bad.extend_from_slice(&[0u8; 64]); // only 64 of the 4096 skip bytes
    skip.write_all(&bad).unwrap();

    // All three must be disconnected (FIN ⇒ read reaches 0, after any
    // queued error frame) well within a few sweep ticks of the 200 ms
    // timeout. Before the reactor, these reads would sit here until the
    // test harness gave up.
    for stream in [&mut http, &mut bin, &mut skip] {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut chunk = [0u8; 256];
        loop {
            let n = stream.read(&mut chunk).expect("expected FIN, got timeout");
            if n == 0 {
                break; // Closed — possibly after a typed error frame.
            }
        }
    }
    assert!(
        wait_until(Duration::from_secs(2), || server.metrics().conns.live == 0),
        "slowloris connections must release their slab entries"
    );

    // A *fully idle* keep-alive connection is never timed out: after
    // sitting well past the idle timeout it still serves.
    let mut idle = Client::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let (status, body) = idle.invoke(None, "patient", 1, None).unwrap();
    assert_eq!(status, 200, "{body}");

    // A slowloris that *resumes* within the timeout is served normally.
    let mut slow = Client::connect(server.addr()).unwrap();
    slow.send(b"GET /heal").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    slow.send(b"thz HTTP/1.1\r\n\r\n").unwrap();
    let (status, body) = slow.response().unwrap();
    assert_eq!(status, 200, "{body}");

    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Connection-churn correctness: sequential connect/request/disconnect
// cycles must leak no reactor slab entries.

#[test]
fn thousand_connection_churn_leaks_nothing() {
    let server = start_server(base_config());
    let cycles = 1_000u64;
    for i in 0..cycles {
        let mut client = Client::connect(server.addr()).unwrap();
        let app = format!("churn-{:03}", i % 500);
        let frame = [(app.as_str(), i * 7)];
        let reply = client.batch(|f| encode_request_frame(f, &frame)).unwrap();
        assert_eq!(reply.records().unwrap().len(), 1);
        // Drop without shutdown: the reactor sees EOF (or RST) and must
        // retire the slab entry either way.
    }
    assert!(
        wait_until(Duration::from_secs(5), || server.metrics().conns.live == 0),
        "live connections must return to 0 after churn; got {}",
        server.metrics().conns.live
    );
    let m = server.metrics();
    assert!(m.conns.accepted >= cycles, "accepted {}", m.conns.accepted);
    assert!(
        m.conns.peak < 50,
        "sequential churn must not accumulate live connections (peak {})",
        m.conns.peak
    );
    assert_eq!(m.invocations(), cycles);
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Mid-frame disconnects: a client that dies while its batch is in
// flight must drop the pending frame without poisoning the shard reply
// path or the slab slot's next occupant.

#[test]
fn mid_frame_disconnect_drops_pending_batch_without_poisoning() {
    let server = start_server(base_config());

    // Scenario A: a full 1000-record frame, connection torn down
    // immediately — replies land after the connection is gone and must
    // be dropped by the slab generation check.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let records: Vec<(String, u64)> = (0..1_000)
            .map(|i| (format!("gone-{:03}", i % 200), 1_000 + i as u64))
            .collect();
        let borrowed: Vec<(&str, u64)> = records.iter().map(|(a, t)| (a.as_str(), *t)).collect();
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, &borrowed);
        stream.write_all(&frame).unwrap();
        drop(stream); // No read: the reply hits a dead connection.
    }

    // Scenario B: half a frame, then disconnect mid-message.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, &[("half", 1), ("frame", 2)]);
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(stream);
    }

    assert!(
        wait_until(Duration::from_secs(5), || server.metrics().conns.live == 0),
        "dead connections must be retired"
    );

    // The server is fully healthy: new connections serve, the same apps
    // keep their (already applied) state, and churned slab slots serve
    // their new occupants correctly.
    for round in 0..20 {
        let mut client = Client::connect(server.addr()).unwrap();
        let frame = [("gone-000", 1_000_000 + round), ("fresh", 5 + round)];
        let records = client
            .batch(|f| wire::encode_request_frame(f, &frame))
            .unwrap()
            .records()
            .unwrap();
        assert_eq!(records.len(), 2, "round {round}");
        assert!(matches!(records[0], BinReply::Verdict { .. }));
    }

    // Scenario A's decisions were applied (the invocation happened even
    // though the reply was undeliverable) — the ledger of record is the
    // shard, not the connection.
    let m = server.metrics();
    assert!(m.invocations() >= 1_000 + 40);
    assert_eq!(m.proto.proto_errors, 0);
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// High fan-in: hundreds of concurrent keep-alive connections on the
// default two reactor threads (the CI smoke drives 256 via
// sitw-loadgen; the ignored stress below goes to 2048).

#[test]
fn two_hundred_fifty_six_concurrent_keepalive_connections() {
    let server = start_server(base_config());
    let n = 256usize;
    let mut conns: Vec<Client> = (0..n)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();

    // All connections send one single-record frame...
    for (i, client) in conns.iter_mut().enumerate() {
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, &[(format!("fan-{i:03}").as_str(), 9)]);
        client.send(&frame).unwrap();
    }
    // ...and all replies come back while every connection stays open.
    for client in conns.iter_mut() {
        let records = client.recv().unwrap().records().unwrap();
        assert!(matches!(records[0], BinReply::Verdict { cold: true, .. }));
    }
    let m = server.metrics();
    assert_eq!(m.conns.live as usize, n);
    assert!(m.conns.peak as usize >= n);
    assert_eq!(m.conns.reactor_threads, 2);
    assert_eq!(m.invocations(), n as u64);

    drop(conns);
    assert!(
        wait_until(Duration::from_secs(5), || server.metrics().conns.live == 0),
        "disconnects must drain the live gauge"
    );
    server.shutdown().unwrap();
}

/// The acceptance-scale stress: 2048 concurrent keep-alive connections
/// served by 4 reactor threads. Ignored in the default run (it wants a
/// raised file-descriptor limit and a few seconds); run with
/// `cargo test -p sitw-serve --test reactor -- --ignored`.
#[test]
#[ignore = "2048-connection stress; needs ~4300 fds and a few seconds"]
fn stress_2048_concurrent_connections_on_4_reactor_threads() {
    let fds = sitw_reactor_nofile(16_384);
    assert!(fds >= 6_000, "could not raise RLIMIT_NOFILE (got {fds})");
    let server = start_server(ServeConfig {
        reactor_threads: 4,
        ..base_config()
    });
    let n = 2_048usize;
    let mut conns: Vec<Client> = (0..n)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    for (i, client) in conns.iter_mut().enumerate() {
        let mut frame = Vec::new();
        encode_request_frame(&mut frame, &[(format!("mass-{i:04}").as_str(), 1)]);
        client.send(&frame).unwrap();
    }
    for client in conns.iter_mut() {
        let records = client.recv().unwrap().records().unwrap();
        assert!(matches!(records[0], BinReply::Verdict { cold: true, .. }));
    }
    let m = server.metrics();
    assert_eq!(m.conns.live as usize, n);
    assert_eq!(m.conns.reactor_threads, 4);
    assert_eq!(m.invocations(), n as u64);

    // Mostly idle from here on: hold everything open a moment, then one
    // more request over a random survivor to prove the pool still
    // serves while loaded with idle sockets.
    std::thread::sleep(Duration::from_millis(300));
    let reply = conns[1_024].batch(|f| wire::encode_request_frame(f, &[("mass-0000", 120_000)]));
    let records = reply.unwrap().records().unwrap();
    assert!(matches!(records[0], BinReply::Verdict { .. }));

    drop(conns);
    assert!(
        wait_until(Duration::from_secs(10), || server.metrics().conns.live == 0),
        "2048 disconnects must drain the live gauge"
    );
    server.shutdown().unwrap();
}

/// Raises RLIMIT_NOFILE via the reactor crate (kept out of the test
/// body so the ignored test reads cleanly).
fn sitw_reactor_nofile(target: u64) -> u64 {
    sitw_reactor::raise_nofile_limit(target).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Shutdown liveness: stuck clients (idle or slowloris) cannot hang a
// graceful shutdown.

#[test]
fn shutdown_completes_under_idle_and_slowloris_connections() {
    let server = start_server(base_config());
    let idle: Vec<TcpStream> = (0..50)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    let mut slow = TcpStream::connect(server.addr()).unwrap();
    slow.write_all(b"POST /invoke HTTP/1.1\r\ncontent-le")
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(2), || {
            server.metrics().conns.live == 51
        }),
        "all test connections registered"
    );

    let started = Instant::now();
    server.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not wait on stuck clients (took {:?})",
        started.elapsed()
    );
    drop(idle);
    drop(slow);
}

// ---------------------------------------------------------------------
// Burst-coalesced JSON serving: consecutive `POST /invoke` requests of
// one read burst ride one `InvokeBatch` per owning shard and one
// pipeline slot. Whatever the segmentation and whatever interrupts the
// run, responses come back strictly in arrival order.

fn invoke_bytes(app: &str, ts: u64) -> Vec<u8> {
    let body = format!("{{\"app\":\"{app}\",\"ts\":{ts}}}");
    let mut bytes = Vec::new();
    write_request(&mut bytes, "POST", "/invoke", None, body.as_bytes()).unwrap();
    bytes
}

/// One server→client message of a mixed HTTP / SITW-BIN stream, with
/// its exact bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    Http { status: u16, raw: Vec<u8> },
    Bin { raw: Vec<u8> },
}

impl Msg {
    fn status(&self) -> Option<u16> {
        match self {
            Msg::Http { status, .. } => Some(*status),
            Msg::Bin { .. } => None,
        }
    }

    fn text(&self) -> String {
        match self {
            Msg::Http { raw, .. } | Msg::Bin { raw } => String::from_utf8_lossy(raw).into_owned(),
        }
    }
}

/// Reads exactly `n` messages off the connection (blocking).
fn read_msgs(client: &mut Client, n: usize) -> Vec<Msg> {
    let wait = Some(Duration::from_secs(10));
    client.conn().stream().set_read_timeout(wait).unwrap();
    let msgs = (0..n)
        .map(|i| {
            let reply = client
                .recv()
                .unwrap_or_else(|e| panic!("after {i} of {n} messages: {e}"));
            let raw = client.conn().reply_raw().to_vec();
            match reply {
                Reply::Http(status) => Msg::Http { status, raw },
                Reply::Frame(_) => Msg::Bin { raw },
                other => panic!("{other:?}"),
            }
        })
        .collect();
    let extra = client.conn().buffered();
    assert_eq!(extra, 0, "bytes beyond the {n} expected messages");
    msgs
}

/// Asserts nothing more arrives on the connection for a little while —
/// not even part of a message.
fn assert_quiet(client: &mut Client) {
    let wait = Some(Duration::from_millis(150));
    client.conn().stream().set_read_timeout(wait).unwrap();
    match client.conn().read_reply() {
        Ok(Reply::Timeout | Reply::Eof) => {}
        other => panic!("unexpected extra message: {other:?}"),
    }
    assert_eq!(client.conn().buffered(), 0, "unexpected extra bytes");
}

/// The mixed burst: 8 invokes, a malformed body, `GET /healthz`, a
/// SITW-BIN v2 frame, 8 more invokes — 19 messages. Every invoke pair is
/// `(app @ ts, app @ 0)`: a 200 followed by a 409 echoing `last_ts = ts`,
/// so each position in the reply stream is distinguishable.
fn mixed_burst(prefix: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    let pair = |bytes: &mut Vec<u8>, i: u64| {
        let app = format!("{prefix}-{i}");
        bytes.extend_from_slice(&invoke_bytes(&app, 1_000 + i));
        bytes.extend_from_slice(&invoke_bytes(&app, 0));
    };
    for i in 0..4 {
        pair(&mut bytes, i);
    }
    bytes.extend_from_slice(b"POST /invoke HTTP/1.1\r\ncontent-length: 5\r\n\r\n{nope");
    bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    let frame_app = format!("{prefix}-frame");
    wire::encode_request_frame_v2(
        &mut bytes,
        &[(0, frame_app.as_str(), 7), (0, frame_app.as_str(), 3)],
    );
    for i in 4..8 {
        pair(&mut bytes, i);
    }
    bytes
}

fn assert_mixed_burst_replies(msgs: &[Msg]) {
    assert_eq!(msgs.len(), 19);
    let pair = |at: usize, i: u64| {
        assert_eq!(msgs[at].status(), Some(200), "{}", msgs[at].text());
        assert!(msgs[at].text().contains("\"verdict\":\"cold\""));
        assert_eq!(msgs[at + 1].status(), Some(409), "{}", msgs[at + 1].text());
        let want = format!("\"last_ts\":{}", 1_000 + i);
        assert!(
            msgs[at + 1].text().contains(&want),
            "{}",
            msgs[at + 1].text()
        );
    };
    for i in 0..4 {
        pair(2 * i as usize, i);
    }
    assert_eq!(msgs[8].status(), Some(400), "the 400 keeps its place");
    assert_eq!(msgs[9].status(), Some(200));
    assert!(msgs[9].text().contains("\"status\":\"ok\""));
    let Msg::Bin { raw } = &msgs[10] else {
        panic!("expected the reply frame, got {}", msgs[10].text());
    };
    match wire::decode_server_frame(raw) {
        wire::ServerFrameDecode::Reply { records, .. } => {
            assert!(matches!(records[0], BinReply::Verdict { cold: true, .. }));
            assert_eq!(records[1], BinReply::OutOfOrder { last_ts: 7 });
        }
        other => panic!("{other:?}"),
    }
    for i in 4..8 {
        pair(11 + 2 * (i as usize - 4), i);
    }
}

#[test]
fn mixed_burst_in_one_write_is_answered_strictly_in_order() {
    let server = start_server(base_config());
    let mut client = Client::connect(server.addr()).unwrap();
    client.send(&mixed_burst("one")).unwrap();
    assert_mixed_burst_replies(&read_msgs(&mut client, 19));
    assert_quiet(&mut client);
    let m = server.metrics();
    assert_eq!(m.invocations(), 8 + 1, "409s and the 400 decide nothing");
    assert_eq!(m.proto.frames, 1, "JSON runs are not frames");
    assert_eq!(m.proto.batched_decisions, 2);
    server.shutdown().unwrap();
}

#[test]
fn mixed_burst_split_at_every_byte_boundary_gives_identical_output() {
    let server = start_server(base_config());
    // Same-length prefixes keep the request bytes — and so the set of
    // boundaries — identical; fresh apps keep the verdicts identical.
    let reference = {
        let mut client = Client::connect(server.addr()).unwrap();
        client.send(&mixed_burst("s0000")).unwrap();
        read_msgs(&mut client, 19)
    };
    assert_mixed_burst_replies(&reference);
    let len = mixed_burst("s0000").len();
    for cut in 1..len {
        let bytes = mixed_burst(&format!("s{cut:04}"));
        assert_eq!(bytes.len(), len);
        let mut client = Client::connect(server.addr()).unwrap();
        client.send(&bytes[..cut]).unwrap();
        // Let the reactor see the first segment as a burst of its own.
        std::thread::sleep(Duration::from_micros(200));
        client.send(&bytes[cut..]).unwrap();
        let got = read_msgs(&mut client, 19);
        for (i, (got, want)) in got.iter().zip(&reference).enumerate() {
            if i == 9 {
                // /healthz carries uptime_ms; everything else is exact.
                assert_eq!(got.status(), Some(200), "cut {cut}");
            } else {
                assert_eq!(got, want, "cut {cut}, message {i}");
            }
        }
    }
    server.shutdown().unwrap();
}

#[test]
fn burst_spanning_every_shard_reorders_nothing() {
    let shards = 4;
    let server = start_server(ServeConfig {
        shards,
        ..base_config()
    });
    let apps: Vec<String> = (0..32).map(|i| format!("span-{i:02}")).collect();
    let hit: std::collections::HashSet<usize> = apps
        .iter()
        .map(|a| sitw_serve::shard_of(a, shards))
        .collect();
    assert_eq!(hit.len(), shards, "the burst must touch every shard");
    // (app @ 5000+i, app @ 0): the 409's last_ts names its position.
    let mut bytes = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        bytes.extend_from_slice(&invoke_bytes(app, 5_000 + i as u64));
        bytes.extend_from_slice(&invoke_bytes(app, 0));
    }
    let mut client = Client::connect(server.addr()).unwrap();
    client.send(&bytes).unwrap();
    let msgs = read_msgs(&mut client, 64);
    for i in 0..32 {
        assert_eq!(msgs[2 * i].status(), Some(200), "request {i}");
        assert_eq!(msgs[2 * i + 1].status(), Some(409), "request {i}");
        let want = format!("\"last_ts\":{}}}", 5_000 + i);
        assert!(
            msgs[2 * i + 1].text().ends_with(&want),
            "position {i}: {}",
            msgs[2 * i + 1].text()
        );
    }
    assert_quiet(&mut client);
    server.shutdown().unwrap();
}

/// Scratch-leak regression: the parked-request scratch is reactor-wide,
/// so a connection that dies mid-burst must leave none of its requests
/// behind for the next connection on that reactor — and the requests it
/// did send were dispatched (the invocations happened).
#[test]
fn dead_burst_leaks_nothing_into_the_next_connection() {
    let server = start_server(ServeConfig {
        reactor_threads: 1,
        ..base_config()
    });
    {
        let mut doomed = TcpStream::connect(server.addr()).unwrap();
        let mut bytes = Vec::new();
        for i in 0..16 {
            bytes.extend_from_slice(&invoke_bytes(&format!("doomed-{i}"), 10 + i));
        }
        bytes.extend_from_slice(b"\x00\x01 this is not HTTP\r\n\r\n");
        doomed.write_all(&bytes).unwrap();
        // The malformed request closes the connection server-side.
        doomed
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = Vec::new();
        let _ = doomed.read_to_end(&mut sink);
    }
    assert!(
        wait_until(Duration::from_secs(5), || server.metrics().conns.live == 0),
        "the dead connection must be retired"
    );
    assert!(
        wait_until(Duration::from_secs(5), || server.metrics().invocations()
            == 16),
        "the 16 parsed invocations were dispatched; got {}",
        server.metrics().invocations()
    );

    let mut next = Client::connect(server.addr()).unwrap();
    let mut bytes = invoke_bytes("survivor", 99);
    bytes.extend_from_slice(b"GET /metrics HTTP/1.1\r\n\r\n");
    next.send(&bytes).unwrap();
    let msgs = read_msgs(&mut next, 2);
    assert_eq!(msgs[0].status(), Some(200));
    assert!(msgs[0].text().contains("\"verdict\":\"cold\""));
    assert_eq!(msgs[1].status(), Some(200));
    let invocations: u64 = msgs[1]
        .text()
        .lines()
        .filter(|l| l.starts_with("sitw_serve_invocations_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(invocations, 17, "16 from the dead burst + the survivor");
    assert_quiet(&mut next);
    server.shutdown().unwrap();
}
