//! Router failover integration tests.
//!
//! * A **hung** upstream (accepts, never answers — the SIGSTOP shape)
//!   must surface as a typed 503 naming the node within the configured
//!   `upstream_timeout`, not stall the client drain forever.
//! * **Failover with a standby**: the health prober marks a dead
//!   primary's slot `down` on `GET /admin/ring`; `POST
//!   /admin/ring/failover` promotes the slot's warm standby (a
//!   `sitw-serve --follow` replica) in place, bumps the ring epoch, and
//!   traffic resumes against the promoted node. The verb needs no probe
//!   failure, and a primary that still answers gets no more traffic,
//!   even on connections opened before. The standby is spent: a second
//!   failover of the slot drops it.
//! * **One failover at a time**: a second request while one waits on its
//!   standby answers 409 at once, and invokes keep answering.
//! * **Failover without a standby**, or with one that cannot be
//!   promoted: the verb drops the dead node, rehashing its tenants over
//!   the survivors, and names the promote error when there was one.

mod common;

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use sitw_cluster::{Router, RouterConfig};
use sitw_core::PolicySpec;
use sitw_serve::{Client, FollowConfig, ServeConfig, Server, TenantConfig};

use common::{http, start_fake_node, start_node};

/// Polls `f` until it returns true or the deadline passes.
fn wait_for(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return;
        }
        thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// Slot `node`'s object in a `GET /admin/ring` body.
fn slot(ring: &str, node: usize) -> &str {
    let start = ring
        .find(&format!("{{\"node\":{node},"))
        .unwrap_or_else(|| panic!("no slot {node}: {ring}"));
    let len = ring[start..].find('}').expect("slot object ends");
    &ring[start..=start + len]
}

/// Slot `node`'s object in the router's ring listing, now.
fn ring_slot(router: &Router, node: usize) -> String {
    let (status, ring) = http(router.addr(), "GET", "/admin/ring", "");
    assert_eq!(status, 200, "{ring}");
    slot(&ring, node).to_owned()
}

/// How many lifecycle events of `kind` the router's ring holds.
fn events_of(router: &Router, kind: &str) -> usize {
    let (_, events) = http(router.addr(), "GET", "/debug/events", "");
    events.matches(&format!("\"kind\":\"{kind}\"")).count()
}

/// A warm standby following `primary`.
fn start_follower(primary: &Server) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        follow: Some(FollowConfig {
            primary_addr: primary.addr().to_string(),
            pull_interval: Duration::from_millis(15),
        }),
        ..ServeConfig::default()
    })
    .expect("follower starts")
}

/// A primary node, a warm standby following it, and a one-slot router
/// over the primary with that standby, probing every `probe_ms`.
fn primary_standby_router(probe_ms: u64) -> (Server, Server, Router) {
    let primary = start_node();
    let follower = start_follower(&primary);
    let router = Router::start(RouterConfig {
        nodes: vec![primary.addr().to_string()],
        tenants: vec![TenantConfig::parse("t0=fixed:10").unwrap()],
        probe_ms,
        standbys: vec![(0, follower.addr().to_string())],
        upstream_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("router starts");
    (primary, follower, router)
}

/// A fake node that answers the router's provisioning request and
/// then *hangs* on everything else: the connection stays open, no bytes
/// ever come back — the wire shape of a SIGSTOPped or dead-disk node,
/// as opposed to a killed one.
fn start_hung_node() -> std::net::SocketAddr {
    // Hold the connection open well past any deadline the test
    // asserts on.
    start_fake_node(|_stream, _request| thread::sleep(Duration::from_secs(30)))
}

#[test]
fn hung_upstream_times_out_with_typed_503() {
    let node = start_hung_node();
    let router = Router::start(RouterConfig {
        nodes: vec![node.to_string()],
        upstream_timeout: Duration::from_millis(250),
        ..RouterConfig::default()
    })
    .expect("router starts");

    let mut client = Client::connect(router.addr()).unwrap();
    let t0 = Instant::now();
    let (status, body) = client.invoke(None, "app-0", 1_000, None).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(&node.to_string()), "names the node: {body}");
    assert!(body.contains("timed out"), "names the failure: {body}");
    // The deadline, not the hang, bounds the answer. Generous upper
    // margin for loaded CI boxes — the regression this guards against
    // is a 30-second stall.
    assert!(
        elapsed < Duration::from_secs(5),
        "bounded by upstream_timeout, took {elapsed:?}"
    );
    router.shutdown();
}

#[test]
fn supervised_failover_promotes_standby_and_resumes_traffic() {
    let (primary, follower, router) = primary_standby_router(30);
    let standby = format!("\"standby\":\"{}\"", follower.addr());

    // Before anything fails, the slot lists its standby and is not down.
    let before = ring_slot(&router, 0);
    assert!(before.contains(&standby), "{before}");
    assert!(before.contains("\"down\":false"), "{before}");

    // Phase 1: traffic lands on the primary and replicates.
    let mut client = Client::connect(router.addr()).unwrap();
    for i in 0..20u64 {
        let (status, body) = client
            .invoke(Some("t0"), "app-a", 1_000 * (i + 1), None)
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    drop(client);

    // The primary dies. The prober needs three consecutive failures to
    // mark the slot down; nothing is dropped or promoted until then.
    let primary_addr = primary.addr().to_string();
    let _ = primary.shutdown();
    wait_for("slot 0 down", Duration::from_secs(10), || {
        ring_slot(&router, 0).contains("\"down\":true")
    });
    let down = ring_slot(&router, 0);
    assert!(
        down.contains(&standby),
        "the down slot names its standby: {down}"
    );
    assert_eq!(events_of(&router, "node-down"), 1);

    // The ring is untouched until the operator fails the node over.
    let (_, ring) = http(router.addr(), "GET", "/admin/ring", "");
    assert!(ring.contains("\"epoch\":0"), "{ring}");
    let (status, failover) = http(router.addr(), "POST", "/admin/ring/failover?node=0", "");
    assert_eq!(status, 200, "{failover}");
    assert!(failover.contains("\"action\":\"promoted\""), "{failover}");
    assert!(failover.contains("\"epoch\":1"), "{failover}");
    assert!(failover.contains("\"error\":null"), "{failover}");

    // The slot now holds the standby's own address — it promoted in
    // place — with its probe record cleared and the standby spent.
    let standby_addr = format!("\"addr\":\"{}\"", follower.addr());
    assert!(failover.contains(&standby_addr), "{failover}");
    let (_, ring) = http(router.addr(), "GET", "/admin/ring", "");
    assert!(ring.contains("\"epoch\":1"), "{ring}");
    assert!(ring.contains(&standby_addr), "{ring}");
    assert!(
        !ring.contains(&primary_addr),
        "dead primary gone from the ring: {ring}"
    );
    let promoted = slot(&ring, 0);
    assert!(promoted.contains("\"down\":false"), "{promoted}");
    assert!(promoted.contains("\"standby\":null"), "{promoted}");

    // Phase 2: traffic resumes against the promoted node — same slot,
    // same tenant, new address.
    let mut client = Client::connect(router.addr()).unwrap();
    for i in 20..30u64 {
        let (status, body) = client
            .invoke(Some("t0"), "app-a", 1_000 * (i + 1), None)
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }

    // Lifecycle and metrics provenance: one node-down for the one
    // crossing of the threshold.
    let (_, events) = http(router.addr(), "GET", "/debug/events", "");
    assert!(events.contains("\"kind\":\"failover\""), "{events}");
    assert!(events.contains("standby promoted"), "{events}");
    assert_eq!(events_of(&router, "node-down"), 1);
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(
        metrics.contains("sitw_router_failover_promotions_total 1"),
        "{metrics}"
    );
    router.shutdown();
    follower.shutdown().unwrap();
}

/// The verb acts on the operator's word alone: with the prober idle, a
/// primary that still answers, and no probe failed, the slot still
/// promotes its standby. The reactors' connections open to the primary
/// move to the standby: clients that have already routed through the
/// primary reach the standby next, and the primary serves nothing more.
#[test]
fn failover_promotes_a_standby_with_no_probe_failure_seen() {
    let (primary, follower, router) = primary_standby_router(3_600_000);
    // Two clients at once land on both reactors, so each opens its own
    // connection to the primary.
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client::connect(router.addr()).unwrap())
        .collect();
    let mut invoke_all = |from: u64| {
        for (c, client) in clients.iter_mut().enumerate() {
            for i in from..from + 10 {
                let app = format!("app-{c}");
                let (status, body) = client
                    .invoke(Some("t0"), &app, 1_000 * (i + 1), None)
                    .unwrap();
                assert_eq!(status, 200, "{body}");
            }
        }
    };
    invoke_all(0);
    assert_eq!(primary.metrics().invocations(), 20);

    let before = ring_slot(&router, 0);
    assert!(before.contains("\"probe_failures\":0"), "{before}");
    let (status, failover) = http(router.addr(), "POST", "/admin/ring/failover?node=0", "");
    assert_eq!(status, 200, "{failover}");
    let want = format!(
        "{{\"node\":0,\"action\":\"promoted\",\"addr\":\"{}\",\"epoch\":1,\"live\":1,\
         \"error\":null}}",
        follower.addr()
    );
    assert_eq!(failover, want);
    let promoted = follower.metrics().invocations();
    invoke_all(10);
    assert_eq!(
        primary.metrics().invocations(),
        20,
        "the replaced primary still served"
    );
    assert_eq!(follower.metrics().invocations(), promoted + 20);
    assert_eq!(events_of(&router, "node-down"), 0);
    router.shutdown();
    let _ = primary.shutdown();
    follower.shutdown().unwrap();
}

/// What a replaced node still owes fails with the typed 503 when its
/// slot fails over, as does a forward to it while it owes; the next one
/// reaches the standby.
#[test]
fn failover_fails_what_the_replaced_node_still_owes() {
    // The slot's node takes the invoke and never answers; its standby
    // follows another node.
    let hung = start_hung_node();
    let source = start_node();
    let follower = start_follower(&source);
    let router = Router::start(RouterConfig {
        nodes: vec![hung.to_string()],
        probe_ms: 3_600_000,
        standbys: vec![(0, follower.addr().to_string())],
        upstream_timeout: Duration::from_secs(20),
        ..RouterConfig::default()
    })
    .expect("router starts");

    let mut client = Client::connect(router.addr()).unwrap();
    let invoke = |ts: u64| {
        let mut req = Vec::new();
        let body = format!("{{\"app\":\"app-a\",\"ts\":{ts}}}");
        sitw_serve::http::write_request(&mut req, "POST", "/invoke", None, body.as_bytes())
            .unwrap();
        req
    };
    client.send(&invoke(1_000)).unwrap();
    let forwarded = || router.metrics().json_requests.load(Ordering::Relaxed) == 1;
    wait_for("the invoke forwarded", Duration::from_secs(10), forwarded);
    let (status, failover) = http(router.addr(), "POST", "/admin/ring/failover?node=0", "");
    assert!(
        failover.contains("\"action\":\"promoted\""),
        "{status} {failover}"
    );

    client.send(&invoke(2_000)).unwrap();
    for _ in 0..2 {
        let status = client.recv().and_then(|r| r.status()).unwrap();
        let body = String::from_utf8_lossy(client.conn().reply_body()).into_owned();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("replaced by a failover"), "{body}");
        // The node that owed the answer, not the standby now in its slot.
        assert!(body.contains(&format!("node {hung} down")), "{body}");
    }
    let (status, body) = client.invoke(None, "app-a", 3_000, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(follower.metrics().invocations(), 1);
    drop(client);
    router.shutdown();
    follower.shutdown().unwrap();
    let _ = source.shutdown();
}

/// Failovers run one at a time, and one stuck on its standby stalls only
/// the reactor running it: a second request answers 409 at once, and an
/// invoke on the other reactor answers.
#[test]
fn a_failover_in_progress_refuses_another_and_invokes_still_answer() {
    let node = start_node();
    // A standby that accepts and never answers: each connection it takes
    // waits in `held`, and closes when `held` is dropped.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let standby = listener.local_addr().unwrap();
    let (hold, held) = mpsc::channel();
    thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let _ = hold.send(stream);
        }
    });
    let router = Router::start(RouterConfig {
        nodes: vec![node.addr().to_string()],
        tenants: vec![TenantConfig::parse("t0=fixed:10").unwrap()],
        probe_ms: 3_600_000,
        standbys: vec![(0, standby.to_string())],
        ..RouterConfig::default()
    })
    .expect("router starts");

    let addr = router.addr();
    let first = thread::spawn(move || http(addr, "POST", "/admin/ring/failover?node=0", ""));
    let promote = (held.recv_timeout(Duration::from_secs(10)))
        .expect("the first failover asks the standby to promote");
    // The first failover's reactor holds its client over its share, so
    // this one lands on the other reactor.
    let mut client = Client::connect(router.addr()).unwrap();
    let patience = Some(Duration::from_secs(3));
    client.conn().stream().set_read_timeout(patience).unwrap();
    let (status, body) = client
        .request("POST", "/admin/ring/failover?node=0", "")
        .unwrap();
    assert_eq!(
        (status, body.as_str()),
        (409, "{\"error\":\"failover in progress\"}")
    );
    let (status, body) = client.invoke(Some("t0"), "app-a", 1_000, None).unwrap();
    assert_eq!(status, 200, "{body}");

    // The standby closes every connection: the first failover's promote
    // fails, and it drops the node.
    drop((promote, held));
    let (status, answer) = first.join().unwrap();
    assert_eq!(status, 200, "{answer}");
    assert!(answer.contains("\"action\":\"dropped\""), "{answer}");
    assert!(
        answer.contains("\"error\":\"standby promote: 4 attempts failed"),
        "{answer}"
    );
    drop(client);
    router.shutdown();
    let _ = node.shutdown();
}

/// A promoted slot's standby is spent: when the promoted node dies
/// too, the prober reports no standby for it and a second failover
/// drops the slot rather than promoting the dead node into its own
/// place.
#[test]
fn a_second_failover_of_a_promoted_slot_drops_it() {
    let (primary, follower, router) = primary_standby_router(30);
    let _ = primary.shutdown();
    let (_, failover) = http(router.addr(), "POST", "/admin/ring/failover?node=0", "");
    assert!(failover.contains("\"action\":\"promoted\""), "{failover}");

    let promoted = follower.addr().to_string();
    follower.shutdown().unwrap();
    wait_for("promoted slot down", Duration::from_secs(10), || {
        ring_slot(&router, 0).contains("\"down\":true")
    });
    let down = ring_slot(&router, 0);
    assert!(down.contains("\"standby\":null"), "{down}");
    let (_, events) = http(router.addr(), "GET", "/debug/events", "");
    assert!(events.contains("(standby: none)"), "{events}");

    let (status, failover) = http(router.addr(), "POST", "/admin/ring/failover?node=0", "");
    assert_eq!(status, 200, "{failover}");
    let want = format!(
        "{{\"node\":0,\"action\":\"dropped\",\"addr\":\"{promoted}\",\"epoch\":2,\"live\":0,\
         \"error\":null}}"
    );
    assert_eq!(failover, want);
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(
        metrics.contains("sitw_router_failover_promotions_total 1"),
        "{metrics}"
    );

    // The slot is out of the ring: a third failover changes nothing.
    let (status, again) = http(router.addr(), "POST", "/admin/ring/failover?node=0", "");
    assert_eq!(status, 200, "{again}");
    assert!(again.contains("\"action\":\"none\""), "{again}");
    assert!(again.contains("\"epoch\":2"), "{again}");
    router.shutdown();
}

/// A standby that cannot be promoted within the retry budget ends in a
/// drop, and the answer names the promote error.
#[test]
fn an_unpromotable_standby_ends_in_a_drop_naming_the_error() {
    let node0 = start_node();
    let node1 = start_node();
    // An address nothing listens on: every promote attempt is refused.
    let refused = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let router = Router::start(RouterConfig {
        nodes: vec![node0.addr().to_string(), node1.addr().to_string()],
        tenants: vec![TenantConfig::parse("t0=fixed:10").unwrap()],
        standbys: vec![(1, refused.to_string())],
        upstream_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let _ = node1.shutdown();

    let (status, failover) = http(router.addr(), "POST", "/admin/ring/failover?node=1", "");
    assert_eq!(status, 200, "{failover}");
    assert!(failover.contains("\"action\":\"dropped\""), "{failover}");
    assert!(failover.contains("\"live\":1"), "{failover}");
    assert!(
        failover.contains("\"error\":\"standby promote: 4 attempts failed"),
        "{failover}"
    );
    let dropped = ring_slot(&router, 1);
    assert!(dropped.contains("\"live\":false"), "{dropped}");
    let (_, events) = http(router.addr(), "GET", "/debug/events", "");
    assert!(events.contains("dropped (standby promote"), "{events}");
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(
        metrics.contains("sitw_router_failover_promotions_total 0"),
        "{metrics}"
    );
    assert!(
        !metrics.contains("sitw_router_failover_retries_total 0"),
        "{metrics}"
    );

    // t0 serves on the survivor, whichever node it hashed to before.
    let mut client = Client::connect(router.addr()).unwrap();
    let (status, body) = client.invoke(Some("t0"), "app-a", 1_000, None).unwrap();
    assert_eq!(status, 200, "{body}");
    router.shutdown();
    let _ = node0.shutdown();
}

#[test]
fn confirmed_failover_without_standby_drops_the_dead_node() {
    let node0 = start_node();
    let node1 = start_node();
    let router = Router::start(RouterConfig {
        nodes: vec![node0.addr().to_string(), node1.addr().to_string()],
        tenants: vec![
            TenantConfig::parse("t0=fixed:10").unwrap(),
            TenantConfig::parse("t1=fixed:10").unwrap(),
        ],
        probe_ms: 30,
        upstream_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("router starts");

    let _ = node1.shutdown();
    // The prober marks the slot down, naming no standby; failing it
    // over drops the dead node.
    wait_for("slot 1 down", Duration::from_secs(10), || {
        ring_slot(&router, 1).contains("\"down\":true")
    });
    let down = ring_slot(&router, 1);
    assert!(down.contains("\"standby\":null"), "{down}");
    let (status, failover) = http(router.addr(), "POST", "/admin/ring/failover?node=1", "");
    assert_eq!(status, 200, "{failover}");
    assert!(failover.contains("\"action\":\"dropped\""), "{failover}");
    let (_, ring) = http(router.addr(), "GET", "/admin/ring", "");
    assert!(
        ring.contains("\"node\":1,") && ring.contains("\"live\":false"),
        "{ring}"
    );

    // Both tenants now land on the survivor, whichever node they hashed
    // to before the drop.
    let mut client = Client::connect(router.addr()).unwrap();
    for tenant in ["t0", "t1"] {
        let (status, body) = client.invoke(Some(tenant), "app-a", 1_000, None).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (_, events) = http(router.addr(), "GET", "/debug/events", "");
    assert!(events.contains("no standby"), "{events}");
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(
        metrics.contains("sitw_router_failover_promotions_total 0"),
        "{metrics}"
    );
    router.shutdown();
    let _ = node0.shutdown();
}
