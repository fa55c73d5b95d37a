//! The router on the node's reactor: its clients share a few event-loop
//! threads, so what a thread per client gave for free — a control request
//! seeing its connection's earlier requests answered, and a hung node
//! stalling only its own clients — the reactor has to earn.

mod common;

use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use common::{http, records, start_fake_node, start_node, usage};
use sitw_cluster::{ClusterRing, Router, RouterConfig};
use sitw_serve::http::{write_request, Reply};
use sitw_serve::wire::{self, BinErrorCode, BinReply, ServerFrameDecode};
use sitw_serve::{Client, TenantConfig};

fn router_over(nodes: &[String], tenants: &[&str], upstream_timeout: Duration) -> Router {
    Router::start(RouterConfig {
        nodes: nodes.to_vec(),
        tenants: tenants
            .iter()
            .map(|t| TenantConfig::parse(t).expect("tenant spec"))
            .collect(),
        upstream_timeout,
        ..RouterConfig::default()
    })
    .expect("router starts")
}

/// An invoke and a failover of its tenant's owner in one write. A
/// control request runs only once everything earlier on its connection
/// is answered, so the invoke is decided by the owner it was routed to
/// and the failover (a drop: no standby) answers after it.
#[test]
fn a_control_request_waits_for_the_invokes_before_it() {
    let nodes = [start_node(), start_node()];
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let router = router_over(&addrs, &["t0=fixed:10"], Duration::from_secs(2));
    let owner = ClusterRing::new(2).node_of_tenant("t0").unwrap();

    let mut burst = Vec::new();
    let invoke = br#"{"app":"a","ts":1000,"tenant":"t0"}"#;
    write_request(&mut burst, "POST", "/invoke", None, invoke).unwrap();
    let drop_owner = format!("/admin/ring/failover?node={owner}");
    write_request(&mut burst, "POST", &drop_owner, None, b"").unwrap();
    let mut client = Client::connect(router.addr()).unwrap();
    client.send(&burst).unwrap();
    let (status, body) = client.response().unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\":\"cold\""), "{body}");
    let served = |node: &sitw_serve::Server| {
        let rows = usage(node.addr());
        rows.iter()
            .find(|t| t.name == "t0")
            .map_or(0, |t| t.invocations)
    };
    assert_eq!(served(&nodes[owner]), 1, "decided by its original owner");
    assert_eq!(served(&nodes[1 - owner]), 0);
    let (status, body) = client.response().unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"action\":\"dropped\""), "{body}");
    router.shutdown();
    for node in nodes {
        node.shutdown().unwrap();
    }
}

/// A frame refused whole for an unknown tenant id forwards none of its
/// records: every record is resolved before any is forwarded, so the
/// follow-up frame is the first the node sees.
#[test]
fn a_rejected_frame_forwards_none_of_its_records() {
    let node = start_node();
    let addrs = [node.addr().to_string()];
    let tenants = ["t0=fixed:10"];
    let router = router_over(&addrs, &tenants, Duration::from_secs(2));
    let mut client = Client::connect(router.addr()).unwrap();
    let bad = [
        (1, "a", 1_000),
        (1, "b", 1_000),
        (1, "c", 1_000),
        (9, "d", 1_000),
    ];
    match client
        .batch(|f| wire::encode_request_frame_v2(f, &bad))
        .unwrap()
    {
        Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => {
            assert_eq!(code, BinErrorCode::Malformed);
            assert!(detail.contains("unknown tenant id 9"), "{detail}");
        }
        other => panic!("expected the Malformed frame, got {other:?}"),
    }
    let good = [(1, "a", 1_000), (1, "b", 1_000), (1, "c", 1_000)];
    let replies = records(client.batch(|f| wire::encode_request_frame_v2(f, &good)));
    let admitted = replies
        .iter()
        .filter(|r| matches!(r, BinReply::Verdict { .. }))
        .count();
    assert_eq!(admitted, 3, "{replies:?}");
    let cold = replies
        .iter()
        .all(|r| matches!(r, BinReply::Verdict { cold: true, .. }));
    assert!(cold, "first invocations at the node: {replies:?}");
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(
        metrics.contains("sitw_router_forwarded_subframes_total 1"),
        "{metrics}"
    );
    router.shutdown();
    node.shutdown().unwrap();
}

/// A router fronts a healthy node and one that accepts and never
/// answers. The client the hung node owes gets the typed `Unavailable`
/// within the upstream timeout plus one tick, while four other clients —
/// on whichever reactors hold them — keep getting verdicts, every round
/// trip well under the timeout.
#[test]
fn a_hung_node_stalls_only_the_clients_it_owes() {
    const TIMEOUT: Duration = Duration::from_secs(1);
    // The reactors' poll tick.
    const TICK: Duration = Duration::from_millis(50);
    let healthy = start_node();
    // Holds the router's connection open, reading, until it is dropped.
    let hung = start_fake_node(|mut stream, _| {
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });
    let router = Router::start(RouterConfig {
        nodes: vec![healthy.addr().to_string(), hung.to_string()],
        upstream_timeout: TIMEOUT,
        ..RouterConfig::default()
    })
    .expect("router starts");
    let ring = ClusterRing::new(2);
    let mut apps = (0..).map(|i| format!("app-{i}"));
    let mut on = |node| apps.find(|a| ring.node_of_app(a) == Some(node)).unwrap();
    let stuck = on(1);
    let served: Vec<String> = (0..4).map(|_| on(0)).collect();

    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let workers: Vec<_> = served
            .iter()
            .map(|app| {
                let (router, done) = (&router, &done);
                scope.spawn(move || {
                    let mut client = Client::connect(router.addr()).unwrap();
                    let (mut rounds, mut slowest) = (0u64, Duration::ZERO);
                    while rounds == 0 || !done.load(Ordering::SeqCst) {
                        rounds += 1;
                        let t = Instant::now();
                        let (status, body) =
                            client.invoke(None, app, rounds * 1_000, None).unwrap();
                        slowest = slowest.max(t.elapsed());
                        assert_eq!(status, 200, "{body}");
                    }
                    (rounds, slowest)
                })
            })
            .collect();
        let mut client = Client::connect(router.addr()).unwrap();
        // A router that never answers fails the test instead of hanging it.
        let patience = Some(Duration::from_secs(10));
        client.conn().stream().set_read_timeout(patience).unwrap();
        let t0 = Instant::now();
        let reply =
            client.batch(|f| wire::encode_request_frame_v2(f, &[(0, stuck.as_str(), 1_000)]));
        let waited = t0.elapsed();
        done.store(true, Ordering::SeqCst);
        match reply.unwrap() {
            Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => {
                assert_eq!(code, BinErrorCode::Unavailable, "{detail}");
                assert!(
                    detail.contains(&hung.to_string()),
                    "names the node: {detail}"
                );
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // Scheduling slack on a loaded host comes on top of the tick.
        let bound = TIMEOUT + TICK + Duration::from_millis(150);
        assert!(
            waited >= TIMEOUT && waited < bound,
            "answered after {waited:?}"
        );
        for worker in workers {
            let (rounds, slowest) = worker.join().unwrap();
            assert!(rounds > 10, "{rounds} round trips while the node hung");
            assert!(
                slowest < Duration::from_millis(100),
                "a round trip took {slowest:?}"
            );
        }
    });
    router.shutdown();
    healthy.shutdown().unwrap();
}
