//! Cluster-mode integration tests: both protocols routed through an
//! in-process `Router` over real `sitw-serve` nodes — placement
//! determinism, batched-frame split/reassembly, typed node-down errors
//! with explicit ring-drop recovery, and budgets provisioned on every
//! node over the nodes' admin verbs.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use common::{http, records, start_node, usage};
use sitw_cluster::{ClusterRing, Router, RouterConfig};
use sitw_core::PolicySpec;
use sitw_serve::http::Reply;
use sitw_serve::wire::{self, BinErrorCode, BinReply, ServerFrameDecode};
use sitw_serve::{Client, ServeConfig, Server, TenantConfig};

fn router_over(nodes: &[SocketAddr], tenants: &[&str]) -> Router {
    Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        nodes: nodes.iter().map(|a| a.to_string()).collect(),
        tenants: tenants
            .iter()
            .map(|t| TenantConfig::parse(t).expect("tenant spec"))
            .collect(),
        ..RouterConfig::default()
    })
    .expect("router starts")
}

#[test]
fn routes_both_protocols_and_reassembles_batches() {
    let nodes = [start_node(), start_node(), start_node()];
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
    let router = router_over(&addrs, &["t0=fixed:10", "t1=fixed:10", "t2=fixed:10"]);

    // JSON: cold then warm per tenant — the second hit lands on the same
    // node as the first, or it could not be warm.
    let mut json = Client::connect(router.addr()).unwrap();
    for tenant in [Some("t0"), Some("t1"), Some("t2"), None] {
        let (status, body) = json.invoke(tenant, "app-j", 0, None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"verdict\":\"cold\""), "{body}");
        let (status, body) = json.invoke(tenant, "app-j", 10_000, None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"verdict\":\"warm\""), "{body}");
    }

    // SITW-BIN: one frame mixing every tenant and the default — the router
    // splits it across nodes and reassembles replies in request order.
    let mut bin = Client::connect(router.addr()).unwrap();
    let batch: Vec<(u16, &str, u64)> = vec![
        (1, "app-b", 20_000),
        (2, "app-b", 20_000),
        (0, "app-b", 20_000),
        (3, "app-b", 20_000),
        (1, "app-c", 20_000),
    ];
    let replies = records(bin.batch(|f| wire::encode_request_frame_v2(f, &batch)));
    assert_eq!(replies.len(), batch.len());
    for (i, r) in replies.iter().enumerate() {
        match r {
            BinReply::Verdict { cold, .. } => assert!(*cold, "record {i} must be cold: {r:?}"),
            other => panic!("record {i}: {other:?}"),
        }
    }
    // Same shape again within keep-alive: all warm — per-record routing
    // is deterministic across frames.
    let batch: Vec<(u16, &str, u64)> = batch.iter().map(|&(t, a, ts)| (t, a, ts + 1_000)).collect();
    let replies = records(bin.batch(|f| wire::encode_request_frame_v2(f, &batch)));
    for (i, r) in replies.iter().enumerate() {
        match r {
            BinReply::Verdict { cold, .. } => assert!(!*cold, "record {i} must be warm: {r:?}"),
            other => panic!("record {i}: {other:?}"),
        }
    }

    // Default-tenant records (tenant id 0) work through the router.
    let mut default = Client::connect(router.addr()).unwrap();
    let frame = [(0, "app-v1", 30_000), (0, "app-b", 30_000)];
    let replies = records(default.batch(|f| wire::encode_request_frame_v2(f, &frame)));
    assert_eq!(replies.len(), 2);
    assert!(matches!(replies[1], BinReply::Verdict { cold: false, .. }));

    // Observability surface.
    let (status, body) = http(router.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"role\":\"router\"") && body.contains("\"live\":3"),
        "{body}"
    );
    let (status, ring) = http(router.addr(), "GET", "/admin/ring", "");
    assert_eq!(status, 200);
    assert!(ring.contains("\"epoch\":0"), "{ring}");
    let (status, listing) = http(router.addr(), "GET", "/admin/tenants", "");
    assert_eq!(status, 200);
    assert!(
        listing.contains("\"id\":1,\"name\":\"t0\"") && listing.contains("\"id\":0"),
        "{listing}"
    );
    let (status, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    for family in [
        "sitw_router_requests_total{proto=\"json\"} 8",
        "sitw_router_requests_total{proto=\"bin\"} 3",
        "sitw_router_records_total 12",
        "sitw_router_forwarded_subframes_total",
        "sitw_router_nodes_live 3",
        "sitw_router_ring_epoch 0",
    ] {
        assert!(
            metrics.contains(family),
            "missing `{family}` in:\n{metrics}"
        );
    }

    router.shutdown();
    for n in nodes {
        n.shutdown().unwrap();
    }
}

#[test]
fn dead_node_yields_typed_errors_and_ring_drop_recovers() {
    let nodes = [start_node(), start_node()];
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
    // Find tenant names hashing to each node so the kill is meaningful.
    let ring = ClusterRing::new(2);
    let mut on_node = [None::<String>, None::<String>];
    for i in 0..32 {
        let name = format!("t{i}");
        let owner = ring.node_of_tenant(&name).unwrap();
        if on_node[owner].is_none() {
            on_node[owner] = Some(name);
        }
    }
    let victim = on_node[1].clone().unwrap();
    let survivor_tenant = on_node[0].clone().unwrap();
    let specs: Vec<String> = on_node
        .iter()
        .map(|t| format!("{}=fixed:10", t.clone().unwrap()))
        .collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let router = router_over(&addrs, &spec_refs);
    // Config order is on_node order, so the victim (on_node[1]) has
    // wire id 2.
    let victim_id = 2u16;

    // Kill node 1 — connections to it now fail immediately.
    let [node0, node1] = nodes;
    node1.shutdown().unwrap();

    // JSON to the dead node's tenant: typed 503 naming the node.
    let mut json = Client::connect(router.addr()).unwrap();
    let (status, body) = json.invoke(Some(&victim), "a", 0, None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("node") && body.contains("down"), "{body}");
    // The survivor's tenant still serves.
    let (status, _) = json.invoke(Some(&survivor_tenant), "a", 0, None).unwrap();
    assert_eq!(status, 200);

    // BIN to the dead node's tenant: typed Unavailable error frame.
    let mut bin = Client::connect(router.addr()).unwrap();
    match bin
        .batch(|f| wire::encode_request_frame_v2(f, &[(victim_id, "a", 100)]))
        .unwrap()
    {
        Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => {
            assert_eq!(code, BinErrorCode::Unavailable, "{detail}");
            assert!(detail.contains("down"), "{detail}");
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    // The same connection stays usable for live-node traffic after the
    // typed error (the error is recoverable, not a connection teardown).
    // Default-tenant traffic routes by app hash, so pick an app that
    // lands on the survivor.
    let alive_app = (0..32)
        .map(|i| format!("app-{i}"))
        .find(|a| ring.node_of_app(a) == Some(0))
        .unwrap();
    let frame = [(0, alive_app.as_str(), 100)];
    let replies = records(bin.batch(|f| wire::encode_request_frame_v2(f, &frame)));
    assert_eq!(replies.len(), 1);

    // Operator acknowledges the loss: epoch advances, tenants rehash
    // over the survivors, and the victim tenant serves again (cold — its
    // state died with the node).
    let (status, body) = http(router.addr(), "POST", "/admin/ring/failover?node=1", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"action\":\"dropped\"") && body.contains("\"epoch\":1"),
        "{body}"
    );
    let (status, body) = json.invoke(Some(&victim), "a", 200, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\":\"cold\""), "{body}");

    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(metrics.contains("sitw_router_ring_epoch 1"), "{metrics}");
    assert!(metrics.contains("sitw_router_nodes_live 1"), "{metrics}");
    let err_line = metrics
        .lines()
        .find(|l| l.contains("sitw_router_node_errors_total") && l.contains(&addrs[1].to_string()))
        .expect("per-node error series");
    let count: u64 = err_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 2, "both protocols counted: {err_line}");

    router.shutdown();
    node0.shutdown().unwrap();
}

#[test]
fn provisioning_sets_the_router_budget_on_every_node() {
    // Node 0 already knows the tenant, under a smaller budget; node 1
    // does not know it yet.
    let known = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        tenants: vec![TenantConfig::parse("metered=hybrid,budget=8").unwrap()],
        ..ServeConfig::default()
    })
    .expect("node starts");
    let nodes = [known, start_node()];
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
    assert_eq!(budget_of(addrs[0], "metered"), Some(8));
    let router = router_over(&addrs, &["metered=hybrid,budget=48", "free=hybrid"]);
    for addr in &addrs {
        assert_eq!(budget_of(*addr, "metered"), Some(48), "{addr}");
        assert_eq!(budget_of(*addr, "free"), Some(0), "{addr}");
    }

    let mut json = Client::connect(router.addr()).unwrap();
    for i in 0..5u64 {
        let (status, _) = json
            .invoke(Some("metered"), &format!("app-{i}"), i * 1_000, None)
            .unwrap();
        assert_eq!(status, 200);
    }

    // The nodes' ledgers, folded at scrape time, land on /metrics/fleet.
    let (_, fleet) = http(router.addr(), "GET", "/metrics/fleet", "");
    assert!(fleet.contains("sitw_router_fleet_nodes 2"), "{fleet}");
    assert!(
        fleet.contains("sitw_router_tenant_budget_mb{tenant=\"metered\"} 48"),
        "{fleet}"
    );
    assert!(
        fleet.contains("sitw_router_tenant_invocations_total{tenant=\"metered\"} 5"),
        "{fleet}"
    );

    router.shutdown();
    for n in nodes {
        n.shutdown().unwrap();
    }
}

/// The budget `tenant` carries in `addr`'s `GET /admin/usage`.
fn budget_of(addr: SocketAddr, tenant: &str) -> Option<u64> {
    usage(addr)
        .iter()
        .find(|t| t.name == tenant)
        .map(|t| t.budget_mb)
}

#[test]
fn shutdown_endpoint_stops_the_router() {
    let node = start_node();
    let router = router_over(&[node.addr()], &[]);
    let (status, body) = http(router.addr(), "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("stopping"), "{body}");
    assert!(router.shutdown_requested());
    router.wait();
    node.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Fleet observability plane: trace propagation across the router hop
// and exact metric federation.

/// One parsed line of the router's merged `/debug/trace` text output.
#[derive(Debug)]
struct TraceLine {
    start_ns: u64,
    end_ns: u64,
    span: String,
    stage: String,
    source: String,
}

fn parse_trace_text(body: &str) -> Vec<TraceLine> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_ascii_whitespace().collect();
            assert_eq!(f.len(), 6, "bad trace line: {l}");
            TraceLine {
                start_ns: f[0].parse().expect("start_ns"),
                end_ns: f[1].parse().expect("end_ns"),
                span: f[3].to_owned(),
                stage: f[4].to_owned(),
                source: f[5].to_owned(),
            }
        })
        .collect()
}

#[test]
fn trace_ids_span_router_and_node_timelines() {
    let nodes = [start_node(), start_node()];
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        nodes: addrs.iter().map(|a| a.to_string()).collect(),
        tenants: ["t0=fixed:10", "t1=fixed:10"]
            .iter()
            .map(|t| TenantConfig::parse(t).expect("tenant spec"))
            .collect(),
        trace_sample: 1,
        ..RouterConfig::default()
    })
    .expect("router starts");

    // One client-traced request per protocol, plus one untraced JSON
    // request the router self-samples (trace_sample = 1 tags them all).
    let json_id: u64 = (1 << 63) | 0x1001;
    let bin_id: u64 = (1 << 63) | 0x2002;
    let mut json = Client::connect(router.addr()).unwrap();
    let (status, body) = json
        .invoke(Some("t0"), "app-tr", 1_000, Some(json_id))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json.invoke(Some("t1"), "app-tr", 1_500, None).unwrap().0,
        200
    );
    let mut bin = Client::connect(router.addr()).unwrap();
    let frame = [(1, "app-tb", 2_000), (2, "app-tb", 2_000)];
    let traced =
        |f: &mut Vec<u8>| wire::encode_request_frame_v2_from(f, frame.into_iter(), Some(bin_id));
    let replies = records(bin.batch(traced));
    assert_eq!(replies.len(), 2);

    // The router records a request's `egress` hop *after* writing the
    // reply, so a client that scrapes the instant it holds the reply can
    // get there first: poll until both traces have closed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let (status, text) = loop {
        let (status, text) = http(router.addr(), "GET", "/debug/trace", "");
        let closed = |id: u64| {
            let hex = format!("{id:#018x}");
            text.lines()
                .any(|l| l.contains(&hex) && l.contains(" egress "))
        };
        if (closed(json_id) && closed(bin_id)) || std::time::Instant::now() >= deadline {
            break (status, text);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert_eq!(status, 200);
    let spans = parse_trace_text(&text);
    for id in [json_id, bin_id] {
        let hex = format!("{id:#018x}");
        let of_id: Vec<&TraceLine> = spans.iter().filter(|s| s.span == hex).collect();
        // The router recorded all six hop stages for this trace...
        for hop in [
            "ingress",
            "route",
            "forward",
            "await",
            "reassemble",
            "egress",
        ] {
            assert!(
                of_id.iter().any(|s| s.stage == hop && s.source == "router"),
                "router hop `{hop}` missing for {hex}:\n{text}"
            );
        }
        // ...and the node's pipeline stages arrived under the same id,
        // attributed to a node (`ADDR/reactor-i` or `ADDR/shard-i`).
        assert!(
            of_id
                .iter()
                .any(|s| s.stage == "decide" && s.source.contains("/shard-")),
            "node decide span missing for {hex}:\n{text}"
        );
        // Causal enclosure after rebasing: node spans sit inside the
        // router's forward→await window.
        let fwd_end = of_id
            .iter()
            .filter(|s| s.stage == "forward")
            .map(|s| s.end_ns)
            .max()
            .unwrap();
        let await_end = of_id
            .iter()
            .filter(|s| s.stage == "await")
            .map(|s| s.end_ns)
            .max()
            .unwrap();
        for s in of_id.iter().filter(|s| s.source != "router") {
            assert!(
                s.start_ns >= fwd_end && s.end_ns <= await_end,
                "node span {s:?} escapes the await window [{fwd_end}, {await_end}]"
            );
        }
    }

    // All three requests were traced (two propagated, one self-sampled);
    // a scrape is non-destructive.
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(
        metrics.contains("sitw_router_traced_requests_total 3"),
        "{metrics}"
    );
    let again = http(router.addr(), "GET", "/debug/trace", "");
    assert_eq!(again, (200, text), "trace scrape was destructive");

    router.shutdown();
    for node in nodes {
        node.shutdown().unwrap();
    }
}

#[test]
fn fleet_federation_is_bucket_exact_and_events_record_provenance() {
    let nodes = [start_node(), start_node(), start_node()];
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
    let router = router_over(&addrs, &["t0=fixed:10", "t1=fixed:10", "t2=fixed:10"]);

    let mut json = Client::connect(router.addr()).unwrap();
    for i in 0..9u64 {
        let tenant = ["t0", "t1", "t2"][(i % 3) as usize];
        assert_eq!(
            json.invoke(Some(tenant), "app-f", 1_000 + i, None)
                .unwrap()
                .0,
            200
        );
    }
    let mut bin = Client::connect(router.addr()).unwrap();
    for f in 0..2u64 {
        let batch: Vec<(u16, String, u64)> = (0..6u64)
            .map(|i| ((i % 4) as u16, format!("app-b{i}"), 5_000 + f * 100 + i))
            .collect();
        let borrowed: Vec<(u16, &str, u64)> = batch
            .iter()
            .map(|(t, a, ts)| (*t, a.as_str(), *ts))
            .collect();
        let replies = records(bin.batch(|f| wire::encode_request_frame_v2(f, &borrowed)));
        assert_eq!(replies.len(), 6);
    }

    // The federated scrape merges all three nodes, bucket-exactly: the
    // fleet decide count equals the requests routed, and equals the sum
    // of the node scrapes the router pulled.
    let (status, fleet) = http(router.addr(), "GET", "/metrics/fleet", "");
    assert_eq!(status, 200);
    assert!(fleet.contains("sitw_router_fleet_nodes 3"), "{fleet}");
    assert!(
        fleet.contains(
            "sitw_router_fleet_decision_latency_count{stage=\"decide\",proto=\"json\"} 9"
        ),
        "{fleet}"
    );
    assert!(
        fleet.contains(
            "sitw_router_fleet_decision_latency_count{stage=\"decide\",proto=\"bin\"} 12"
        ),
        "{fleet}"
    );
    let mut node_sum = 0u64;
    for addr in &addrs {
        let (status, hist) = http(*addr, "GET", "/debug/hist", "");
        assert_eq!(status, 200);
        let parsed = sitw_cluster::parse_hist_body(&hist).expect("well-formed node scrape");
        node_sum += parsed
            .stages
            .iter()
            .filter(|(stage, _, _)| stage == "decide")
            .map(|(_, _, h)| h.count())
            .sum::<u64>();
    }
    assert_eq!(node_sum, 21, "node scrapes must cover all requests");
    // Scraping federates live — it must not disturb the nodes.
    assert_eq!(
        http(router.addr(), "GET", "/metrics/fleet", "").1,
        fleet,
        "fleet scrape was destructive"
    );

    // Control-plane provenance: a failover that drops a node leaves a
    // ring-epoch event naming the dropped node in the router's ring.
    let (status, body) = http(router.addr(), "POST", "/admin/ring/failover?node=0", "");
    assert_eq!(status, 200, "{body}");
    let (status, events) = http(router.addr(), "GET", "/debug/events", "");
    assert_eq!(status, 200);
    assert!(
        events.contains("\"kind\":\"ring-epoch\"") && events.contains("epoch=1 drop-node=0 live=2"),
        "{events}"
    );

    router.shutdown();
    for node in nodes {
        node.shutdown().unwrap();
    }
}

// ---------------------------------------------------------------------
// One-node parity: a router over one node answers, byte for byte, what
// the bare node answers — whatever the router's tracing configuration
// — because every ring size runs the same decoded path.

/// The cluster tenant table of the parity tests (wire ids 1 and 2).
const PARITY_TENANTS: [&str; 2] = ["t0=fixed:10", "t1=fixed:10"];

/// A bare node holding [`PARITY_TENANTS`] under the ids a router would
/// provision them with.
fn parity_node() -> sitw_serve::Server {
    let node = start_node();
    for spec in PARITY_TENANTS {
        let (status, body) = http(node.addr(), "POST", "/admin/tenants", spec);
        assert_eq!(status, 200, "{body}");
    }
    node
}

fn post_invoke(out: &mut Vec<u8>, header: &str, body: &str) {
    out.extend_from_slice(
        format!(
            "POST /invoke HTTP/1.1\r\n{header}content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

/// An over-`MAX_BATCH` request frame with an intact envelope: a
/// recoverable `Oversized` error the parser skips past.
fn oversized_batch_frame(out: &mut Vec<u8>) {
    out.extend_from_slice(&[wire::BIN_MAGIC, wire::BIN_VERSION_2, wire::FRAME_REQUEST]);
    out.extend_from_slice(&4u32.to_le_bytes());
    out.extend_from_slice(&((wire::MAX_BATCH + 1) as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
}

/// One pipelined stream mixing everything a client can send on the data
/// path. App names carry `run` at a fixed width, so every run has the
/// same length and shape but touches fresh per-app state.
fn mixed_stream(run: usize) -> Vec<u8> {
    let app = format!("app-{run:05}");
    let other = format!("oth-{run:05}");
    let (app, other) = (app.as_str(), other.as_str());
    let mut s = Vec::new();
    post_invoke(&mut s, "", &format!("{{\"app\":\"{app}\",\"ts\":0}}"));
    post_invoke(
        &mut s,
        "",
        &format!("{{\"tenant\":\"t0\",\"app\":\"{app}\",\"ts\":0}}"),
    );
    post_invoke(&mut s, "", "{\"app\":"); // Unparsable body.
    post_invoke(&mut s, "", "{\"app\":\"\",\"ts\":1}"); // Empty app.
    post_invoke(
        &mut s,
        "",
        &format!("{{\"tenant\":\"ghost\",\"app\":\"{app}\",\"ts\":5}}"),
    );
    post_invoke(
        &mut s,
        "x-sitw-trace: 0x8000000000000abc\r\n",
        &format!("{{\"tenant\":\"t1\",\"app\":\"{app}\",\"ts\":7}}"),
    );
    // SITW-BIN for the default tenant, including an out-of-order record.
    wire::encode_request_frame_v2(&mut s, &[(0, app, 1_000), (0, other, 1_000), (0, app, 500)]);
    wire::encode_request_frame_v2(&mut s, &[]);
    // Every tenant id alone, then all of them in one frame.
    for id in 0..=PARITY_TENANTS.len() as u16 {
        wire::encode_request_frame_v2(&mut s, &[(id, app, 2_000), (id, other, 2_000)]);
    }
    wire::encode_request_frame_v2(&mut s, &[(2, app, 3_000), (0, app, 3_000), (1, app, 3_000)]);
    wire::encode_request_frame_v2_from(
        &mut s,
        [(1, other, 4_000), (1, app, 4_000)].into_iter(),
        Some(0x8000_0000_0000_0def),
    );
    oversized_batch_frame(&mut s);
    // The connection survived all of it.
    post_invoke(&mut s, "", &format!("{{\"app\":\"{app}\",\"ts\":700000}}"));
    s
}

/// Writes `chunks` as separate segments on one connection, half-closes,
/// and returns every byte the peer answered before closing.
fn exchange(addr: SocketAddr, chunks: &[&[u8]]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 {
            // Let the previous segment land as a read of its own.
            std::thread::sleep(Duration::from_millis(1));
        }
        stream.write_all(chunk).expect("write");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read to eof");
    response
}

fn assert_same_bytes(got: &[u8], expected: &[u8], what: &str) {
    assert!(
        got == expected,
        "{what}: response streams differ\n--- bare node ---\n{}\n--- router ---\n{}",
        String::from_utf8_lossy(expected),
        String::from_utf8_lossy(got)
    );
}

#[test]
fn one_node_ring_answers_exactly_what_the_bare_node_answers() {
    let bare = parity_node();
    let stream = mixed_stream(0);
    let expected = exchange(bare.addr(), &[&stream]);
    // The stream exercised what it claims to: seven HTTP answers (four
    // served, three 400s) around the binary frames.
    let text = String::from_utf8_lossy(&expected);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 4, "{text}");
    assert_eq!(
        text.matches("HTTP/1.1 400 Bad Request").count(),
        3,
        "{text}"
    );

    for (what, trace_sample) in [("plain", 0), ("trace_sample=1", 1)] {
        let twin = start_node();
        let router = Router::start(RouterConfig {
            nodes: vec![twin.addr().to_string()],
            tenants: PARITY_TENANTS
                .iter()
                .map(|t| TenantConfig::parse(t).expect("tenant spec"))
                .collect(),
            trace_sample,
            ..RouterConfig::default()
        })
        .expect("router starts");
        assert_same_bytes(&exchange(router.addr(), &[&stream]), &expected, what);
        router.shutdown();
        twin.shutdown().unwrap();
    }
    bare.shutdown().unwrap();
}

#[test]
fn one_node_ring_parity_holds_with_the_stream_split_at_every_byte() {
    let bare = parity_node();
    let twin = start_node();
    let router = router_over(&[twin.addr()], &PARITY_TENANTS);
    let len = mixed_stream(0).len();
    for cut in 1..len {
        // A fresh run per cut: both sides see the same never-seen apps.
        let stream = mixed_stream(cut);
        assert_eq!(stream.len(), len);
        let expected = exchange(bare.addr(), &[&stream]);
        let got = exchange(router.addr(), &[&stream[..cut], &stream[cut..]]);
        assert_same_bytes(&got, &expected, &format!("split at byte {cut}"));
    }
    router.shutdown();
    twin.shutdown().unwrap();
    bare.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Fatal client errors: the router's answer must survive the close. The
// client still has unread bytes in flight, so a plain close would turn
// into an RST that can destroy the response before it is read. Looped:
// the race is lost most of the time without the drain, not every time.

#[test]
fn oversized_body_gets_413_through_the_router_not_a_reset() {
    let node = start_node();
    let router = router_over(&[node.addr()], &[]);
    for attempt in 0..20 {
        let mut client = Client::connect(router.addr()).unwrap();
        client
            .send(b"POST /invoke HTTP/1.1\r\ncontent-length: 1099511627776\r\n\r\n")
            .unwrap();
        client
            .send(&vec![b'x'; 256 * 1024])
            .unwrap_or_else(|e| panic!("attempt {attempt}: body write: {e}"));
        let (status, body) = client
            .response()
            .unwrap_or_else(|e| panic!("attempt {attempt}: {e}"));
        assert_eq!(status, 413, "attempt {attempt}: {body}");
        assert!(
            client
                .conn()
                .reply_raw()
                .starts_with(b"HTTP/1.1 413 Payload Too Large\r\n"),
            "attempt {attempt}: {body}"
        );
        expect_fin(&mut client, attempt);
    }
    router.shutdown();
    node.shutdown().unwrap();
}

#[test]
fn bad_version_frame_gets_its_typed_error_through_the_router_not_a_reset() {
    let node = start_node();
    let router = router_over(&[node.addr()], &[]);
    for attempt in 0..20 {
        let mut client = Client::connect(router.addr()).unwrap();
        let version = [9, 1][attempt % 2];
        let mut frame = vec![wire::BIN_MAGIC, version, wire::FRAME_REQUEST];
        frame.extend_from_slice(&(256u32 * 1024).to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.resize(wire::BIN_HEADER_LEN + 256 * 1024, 0);
        client
            .send(&frame)
            .unwrap_or_else(|e| panic!("attempt {attempt}: frame write: {e}"));
        match client.recv() {
            Ok(Reply::Frame(ServerFrameDecode::Error { code, .. })) => {
                assert_eq!(
                    code,
                    BinErrorCode::BadVersion,
                    "attempt {attempt} v{version}"
                )
            }
            other => panic!("attempt {attempt}: {other:?}"),
        }
        // Nothing but the error frame, then the close.
        expect_fin(&mut client, attempt);
    }
    router.shutdown();
    node.shutdown().unwrap();
}

/// A frame of a retired kind, 4 to 9 — the control and replication
/// frames, here carrying the bytes of a usage poll — gets the generic
/// skippable `Malformed`, and the next request frame and JSON request on
/// the connection are served.
#[test]
fn a_retired_control_frame_is_malformed_and_the_connection_serves_on() {
    let node = start_node();
    let router = router_over(&[node.addr()], &[]);
    let mut client = Client::connect(router.addr()).unwrap();
    for (ts, kind) in (1..).zip(4u8..=9) {
        client
            .send(&[
                wire::BIN_MAGIC,
                wire::BIN_VERSION_2,
                kind,
                1,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                1,
            ])
            .unwrap();
        match client.recv().unwrap() {
            Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(detail, format!("unexpected frame kind {kind}"));
            }
            other => panic!("kind {kind}: {other:?}"),
        }
        let frame = client.batch(|f| wire::encode_request_frame_v2(f, &[(0, "a", 2 * ts)]));
        assert_eq!(frame.unwrap().records().unwrap().len(), 1, "kind {kind}");
        let (status, body) = client.invoke(None, "a", 2 * ts + 1, None).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    router.shutdown();
    node.shutdown().unwrap();
}

/// The connection ends with a FIN: a reset would surface as an error.
fn expect_fin(client: &mut Client, attempt: usize) {
    match client.conn().read_reply() {
        Ok(Reply::Eof) => {}
        other => panic!("attempt {attempt}: expected a clean close, got {other:?}"),
    }
}
