//! Router failover integration tests (ISSUE 10, layer 3).
//!
//! Three scenarios:
//!
//! * A **hung** upstream (accepts, never answers — the SIGSTOP shape)
//!   must surface as a typed 503 naming the node within the configured
//!   `upstream_timeout`, not stall the client drain forever.
//! * **Supervised failover**: the health prober raises a proposal for a
//!   dead primary; confirming it promotes the slot's warm standby
//!   (a `sitw-serve --follow` replica) in place, bumps the ring epoch,
//!   and traffic resumes against the promoted node.
//! * **Auto failover without a standby**: the prober's proposal is
//!   confirmed automatically and the dead node is dropped, rehashing
//!   its tenants over the survivors.

mod common;

use std::thread;
use std::time::{Duration, Instant};

use sitw_cluster::{FailoverMode, Router, RouterConfig, RouterTenant};
use sitw_core::PolicySpec;
use sitw_serve::{Client, FollowConfig, Follower, ServeConfig};

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
        reconcile_ms: 0,
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
    let primary = start_node();
    let follower = Follower::start(FollowConfig {
        primary_addr: primary.addr().to_string(),
        pull_interval: Duration::from_millis(15),
        serve: ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            ..ServeConfig::default()
        },
        ..FollowConfig::default()
    })
    .expect("follower starts");
    let router = Router::start(RouterConfig {
        nodes: vec![primary.addr().to_string()],
        tenants: vec![RouterTenant::parse("t0=fixed:10").unwrap()],
        reconcile_ms: 0,
        failover: FailoverMode::Supervised,
        probe_ms: 30,
        standbys: vec![(0, follower.addr().to_string())],
        upstream_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("router starts");

    let (status, body) = http(router.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"failover\":\"supervised\""), "{body}");

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
    // raise the proposal; nothing is dropped or promoted until then.
    let primary_addr = primary.addr().to_string();
    let _ = primary.shutdown();
    wait_for("failover proposal", Duration::from_secs(10), || {
        let (status, body) = http(router.addr(), "GET", "/admin/ring/proposals", "");
        status == 200 && body.contains("\"node\":0")
    });
    let (_, proposals) = http(router.addr(), "GET", "/admin/ring/proposals", "");
    assert!(
        proposals.contains(&format!("\"standby\":\"{}\"", follower.addr())),
        "proposal names the standby: {proposals}"
    );

    // Supervised: the ring is untouched until the operator confirms.
    let (_, ring) = http(router.addr(), "GET", "/admin/ring", "");
    assert!(ring.contains("\"epoch\":0"), "{ring}");
    let (status, confirm) = http(
        router.addr(),
        "POST",
        "/admin/ring/proposals/confirm?node=0",
        "",
    );
    assert_eq!(status, 200, "{confirm}");
    assert!(confirm.contains("\"action\":\"promoted\""), "{confirm}");
    assert!(confirm.contains("\"epoch\":1"), "{confirm}");

    // The proposal is consumed and the slot now points at the promoted
    // standby's serve address.
    let (_, proposals) = http(router.addr(), "GET", "/admin/ring/proposals", "");
    assert!(proposals.contains("\"proposals\":[]"), "{proposals}");
    let (_, ring) = http(router.addr(), "GET", "/admin/ring", "");
    assert!(ring.contains("\"epoch\":1"), "{ring}");
    assert!(
        !ring.contains(&primary_addr),
        "dead primary gone from the ring: {ring}"
    );

    // Phase 2: traffic resumes against the promoted node — same slot,
    // same tenant, new address.
    let mut client = Client::connect(router.addr()).unwrap();
    for i in 20..30u64 {
        let (status, body) = client
            .invoke(Some("t0"), "app-a", 1_000 * (i + 1), None)
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }

    // Lifecycle and metrics provenance.
    let (_, events) = http(router.addr(), "GET", "/debug/events", "");
    assert!(events.contains("\"kind\":\"node-down\""), "{events}");
    assert!(events.contains("\"kind\":\"failover\""), "{events}");
    assert!(events.contains("standby promoted"), "{events}");
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(metrics.contains("sitw_router_failover_mode 1"), "{metrics}");
    assert!(
        metrics.contains("sitw_router_failover_promotions_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sitw_router_failover_proposals_total 1"),
        "{metrics}"
    );
    router.shutdown();
}

#[test]
fn auto_failover_without_standby_drops_the_dead_node() {
    let node0 = start_node();
    let node1 = start_node();
    let router = Router::start(RouterConfig {
        nodes: vec![node0.addr().to_string(), node1.addr().to_string()],
        tenants: vec![
            RouterTenant::parse("t0=fixed:10").unwrap(),
            RouterTenant::parse("t1=fixed:10").unwrap(),
        ],
        reconcile_ms: 0,
        failover: FailoverMode::Auto,
        probe_ms: 30,
        upstream_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("router starts");

    let _ = node1.shutdown();
    // Auto mode confirms its own proposals: the dead node is dropped
    // without any operator round-trip.
    wait_for("auto drop", Duration::from_secs(10), || {
        let (_, ring) = http(router.addr(), "GET", "/admin/ring", "");
        ring.contains("\"node\":1,") && ring.contains("\"live\":false")
    });

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
    assert!(metrics.contains("sitw_router_failover_mode 2"), "{metrics}");
    assert!(
        metrics.contains("sitw_router_failover_promotions_total 0"),
        "{metrics}"
    );
    router.shutdown();
    let _ = node0.shutdown();
}
