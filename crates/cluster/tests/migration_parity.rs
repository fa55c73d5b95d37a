//! Satellite 4: migration/rebalance parity. A mixed-protocol
//! multi-tenant trace driven through a cluster is **bit-identical** to
//! [`ClusterSim`] — including a live migration of the budgeted tenant to
//! another node mid-replay. Every verdict (cold/warm, pre-warm load,
//! eviction downgrade, decision branch, both windows) and every QoS
//! throttle matches the offline model, and after the replay the
//! per-tenant ledger integrals summed across the nodes' control-frame
//! reports equal the model's ledgers exactly: migration moves state
//! bit-for-bit, it doesn't reset or double-count it.

mod common;

use std::net::SocketAddr;

use common::{http, records, start_node};
use sitw_cluster::{
    control_roundtrip, ClusterOutcome, ClusterRing, ClusterSim, Router, RouterConfig, RouterTenant,
};
use sitw_core::PolicySpec;
use sitw_fleet::{footprint_mb, TenantId, TenantRegistry};
use sitw_serve::wire::{self, BinReply, ControlReply, ControlRequest, TenantUsage};
use sitw_serve::Client;
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// One observed cluster answer, protocol-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Throttled,
    Served {
        cold: bool,
        prewarm_load: bool,
        evicted: bool,
        kind: &'static str,
        pre_warm_ms: u64,
        keep_alive_ms: u64,
    },
}

fn outcome_of_json(status: u16, body: &str) -> Outcome {
    if status == 429 {
        return Outcome::Throttled;
    }
    assert_eq!(status, 200, "{body}");
    let cold = body.contains("\"verdict\":\"cold\"");
    assert!(cold || body.contains("\"verdict\":\"warm\""), "{body}");
    let field = |name: &str| -> u64 {
        let key = format!("\"{name}\":");
        let rest = &body[body
            .find(&key)
            .unwrap_or_else(|| panic!("{name} in {body}"))
            + key.len()..];
        rest.chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let kind_key = "\"kind\":\"";
    let rest = &body[body.find(kind_key).unwrap() + kind_key.len()..];
    let kind = &rest[..rest.find('"').unwrap()];
    Outcome::Served {
        cold,
        prewarm_load: body.contains("\"prewarm_load\":true"),
        evicted: body.contains("\"evicted\":true"),
        kind: wire::kind_str(wire::kind_from_str(kind).unwrap()),
        pre_warm_ms: field("pre_warm_ms"),
        keep_alive_ms: field("keep_alive_ms"),
    }
}

fn outcome_of_bin(reply: &BinReply) -> Outcome {
    match reply {
        BinReply::Throttled => Outcome::Throttled,
        BinReply::Verdict {
            cold,
            prewarm_load,
            evicted,
            kind,
            pre_warm_ms,
            keep_alive_ms,
        } => Outcome::Served {
            cold: *cold,
            prewarm_load: *prewarm_load,
            evicted: *evicted,
            kind: wire::kind_str(*kind),
            pre_warm_ms: *pre_warm_ms as u64,
            keep_alive_ms: *keep_alive_ms as u64,
        },
        other => panic!("unexpected reply {other:?}"),
    }
}

fn outcome_of_sim(outcome: ClusterOutcome) -> Outcome {
    match outcome {
        ClusterOutcome::Throttled => Outcome::Throttled,
        ClusterOutcome::Served(v) => Outcome::Served {
            cold: v.cold,
            prewarm_load: v.prewarm_load,
            evicted: v.evicted,
            kind: wire::kind_str(v.kind),
            pre_warm_ms: v.windows.pre_warm_ms,
            keep_alive_ms: v.windows.keep_alive_ms,
        },
        ClusterOutcome::Rejected(e) => panic!("offline model rejected an event: {e:?}"),
    }
}

/// `(tenant name or None, wire tenant id, app, ts)`.
type Event = (Option<&'static str>, TenantId, String, u64);

/// Builds the merged trace: four tenant populations (default, an
/// unbudgeted hybrid tenant, the budgeted "metered" tenant that will
/// migrate, and a rate-limited one), time-ordered.
fn workload() -> (Vec<Event>, u64) {
    let tenant_of = |idx: usize| -> (Option<&'static str>, TenantId) {
        match idx % 4 {
            0 => (None, 0),
            1 => (Some("alpha"), 1),
            2 => (Some("metered"), 2),
            _ => (Some("limited"), 3),
        }
    };
    let population = build_population(&PopulationConfig {
        num_apps: 24,
        seed: 808,
    });
    let cfg = TraceConfig {
        horizon_ms: 2 * DAY_MS,
        cap_per_day: 100.0,
        seed: 17,
    };
    let mut merged: Vec<Event> = Vec::new();
    let mut metered_footprints: Vec<u64> = Vec::new();
    for (idx, app) in population.apps.iter().enumerate() {
        let (name, tid) = tenant_of(idx);
        let app_id = app.id.to_string();
        if tid == 2 {
            metered_footprints.push(footprint_mb("metered", &app_id));
        }
        for ts in app_invocations(app, &cfg) {
            merged.push((name, tid, app_id.clone(), ts));
        }
    }
    merged.sort_by(|a, b| (a.3, a.1, &a.2).cmp(&(b.3, b.1, &b.2)));
    assert!(merged.len() >= 800, "workload too small: {}", merged.len());
    metered_footprints.sort_unstable();
    assert!(metered_footprints.len() >= 2, "need several metered apps");
    // Budget fits any single app but never two of the biggest at once,
    // so warm overlap forces evictions.
    let budget = metered_footprints[metered_footprints.len() - 1] + 1;
    (merged, budget)
}

#[test]
fn migration_mid_replay_is_bit_identical_to_cluster_sim() {
    let (merged, metered_budget) = workload();

    // Online cluster: 3 nodes, the trace's tenants on the router.
    let nodes = [start_node(), start_node(), start_node()];
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
    let tenant_specs = [
        "alpha=hybrid".to_owned(),
        format!("metered=hybrid,budget={metered_budget}"),
        "limited=fixed:10,qos=bronze:rate=1:burst=2".to_owned(),
    ];
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        nodes: addrs.iter().map(|a| a.to_string()).collect(),
        tenants: tenant_specs
            .iter()
            .map(|t| RouterTenant::parse(t).expect("tenant spec"))
            .collect(),
        reconcile_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");

    // Offline model: admission composed with one fleet sim over the
    // union registry — no nodes, no placement.
    let mut registry = TenantRegistry::new(PolicySpec::fixed_minutes(10));
    for spec in &tenant_specs {
        let t = RouterTenant::parse(spec).unwrap();
        registry
            .register(&t.name, t.policy.clone(), t.budget_mb)
            .unwrap();
    }
    let qos: Vec<_> = tenant_specs
        .iter()
        .filter_map(|spec| {
            let t = RouterTenant::parse(spec).unwrap();
            t.qos.map(|q| (t.name, q))
        })
        .collect();
    let mut sim = ClusterSim::new(&registry, &qos);

    // Replay in alternating protocol blocks of 23, sequentially (one
    // in-flight decision — arrival order is the parity contract). At the
    // halfway event the budgeted tenant migrates to a node that doesn't
    // own it, mid-trace and mid-protocol-block.
    let metered_owner = ClusterRing::new(3).node_of_tenant("metered").unwrap();
    let migrate_to = (metered_owner + 1) % 3;
    let half = merged.len() / 2;
    let mut json = Client::connect(router.addr()).unwrap();
    let mut bin = Client::connect(router.addr()).unwrap();
    let mut migrated = false;
    let mut use_json = true;
    let mut served = [0u64; 4];
    let mut i = 0;
    while i < merged.len() {
        let block_end = merged.len().min(i + 23);
        for (j, (name, tid, app, ts)) in merged[i..block_end].iter().enumerate() {
            if !migrated && i + j >= half {
                let (status, body) = http(
                    router.addr(),
                    "POST",
                    &format!("/admin/migrate?tenant=metered&to={migrate_to}"),
                    "",
                );
                assert_eq!(status, 200, "{body}");
                assert!(body.contains("\"epoch\":1"), "{body}");
                migrated = true;
            }
            let expected = outcome_of_sim(sim.step(*tid, app, *ts));
            let online = if use_json {
                let (status, body) = json.invoke(*name, app, *ts, None).unwrap();
                outcome_of_json(status, &body)
            } else {
                let frame = [(*tid, app.as_str(), *ts)];
                let replies = records(bin.batch(|f| wire::encode_request_frame_v2(f, &frame)));
                outcome_of_bin(&replies[0])
            };
            assert_eq!(online, expected, "event {} ({name:?}, {app}, {ts})", i + j);
            if matches!(online, Outcome::Served { .. }) {
                served[*tid as usize] += 1;
            }
        }
        i = block_end;
        use_json = !use_json;
    }
    assert!(migrated, "the migration must fire mid-replay");

    // The trace must actually exercise the interesting paths.
    let sim_throttles: u64 = sim.throttled().iter().map(|(_, n)| n).sum();
    assert!(sim_throttles > 0, "the limited tenant must throttle");
    assert!(
        sim.ledger(2).unwrap().stats().evictions > 0,
        "the metered tenant must evict"
    );

    // Conservation: per named tenant, the ledger integrals summed over
    // the nodes' control-frame reports equal the offline model's ledger
    // exactly. (Named tenants live whole on one node; migration carries
    // evictions, idle integral, and the warm set bit-for-bit. The
    // default tenant is excluded: its ledger is sharded by design, and
    // per-shard idle integrals advance on per-shard arrivals.)
    let mut reports: Vec<Vec<TenantUsage>> = Vec::new();
    for addr in &addrs {
        match control_roundtrip(*addr, &ControlRequest::Report).unwrap() {
            ControlReply::Report(tenants) => reports.push(tenants),
            other => panic!("expected a report: {other:?}"),
        }
    }
    for (name, tid) in [("alpha", 1u16), ("metered", 2), ("limited", 3)] {
        let (mut warm_mb, mut evictions, mut idle_mb_ms, mut invocations) =
            (0u64, 0u64, 0u64, 0u64);
        for report in &reports {
            for t in report.iter().filter(|t| t.name == name) {
                warm_mb += t.warm_mb;
                evictions += t.evictions;
                idle_mb_ms += t.idle_mb_ms;
                invocations += t.invocations;
            }
        }
        let offline = sim.ledger(tid).unwrap().stats();
        assert_eq!(warm_mb, offline.warm_mb, "{name}: warm memory conserves");
        assert_eq!(evictions, offline.evictions, "{name}: evictions conserve");
        assert_eq!(
            idle_mb_ms, offline.idle_mb_ms,
            "{name}: idle integral conserves"
        );
        if name != "metered" {
            // The migrated tenant's served-count telemetry resets with
            // the move (it is not ledger state); the others must add up.
            assert_eq!(invocations, served[tid as usize], "{name}: served count");
        }
    }

    // The router's throttle counter matches the model's total, and the
    // reconciler pushes the budget to the *new* owner after migration.
    let (_, metrics) = http(router.addr(), "GET", "/metrics", "");
    assert!(
        metrics.contains(&format!("sitw_router_throttled_total {sim_throttles}")),
        "{metrics}"
    );
    let (nodes_ok, pushes) = router.reconcile_now();
    assert_eq!(nodes_ok, 3);
    assert_eq!(pushes, 1, "one budgeted tenant");
    match control_roundtrip(addrs[migrate_to], &ControlRequest::Report).unwrap() {
        ControlReply::Report(tenants) => {
            let metered = tenants.iter().find(|t| t.name == "metered").unwrap();
            assert_eq!(metered.budget_mb, metered_budget, "budget follows the move");
        }
        other => panic!("expected a report: {other:?}"),
    }

    router.shutdown();
    for n in nodes {
        n.shutdown().unwrap();
    }
}
