//! Routed parity. A mixed-protocol multi-tenant trace driven through a
//! three-node cluster is **bit-identical** to one [`FleetSim`] over the
//! union registry. Every verdict (cold/warm, pre-warm load, eviction
//! downgrade, decision branch, both windows) matches the offline model,
//! and after the replay the per-tenant ledger integrals summed across
//! the nodes' usage reports equal the model's ledgers exactly: placement
//! splits the fleet's state over the nodes without resetting or
//! double-counting any of it.

mod common;

use std::net::SocketAddr;

use common::{records, start_node, usage};
use sitw_cluster::{ClusterRing, Router, RouterConfig};
use sitw_core::PolicySpec;
use sitw_fleet::{footprint_mb, FleetSim, FleetVerdict, TenantId, TenantRegistry};
use sitw_serve::wire::{self, BinReply, TenantUsage};
use sitw_serve::{Client, TenantConfig};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// One observed cluster answer, protocol-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
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

fn outcome_of_sim(v: FleetVerdict) -> Outcome {
    Outcome::Served {
        cold: v.cold,
        prewarm_load: v.prewarm_load,
        evicted: v.evicted,
        kind: wire::kind_str(v.kind),
        pre_warm_ms: v.windows.pre_warm_ms,
        keep_alive_ms: v.windows.keep_alive_ms,
    }
}

/// `(tenant name or None, wire tenant id, app, ts)`.
type Event = (Option<&'static str>, TenantId, String, u64);

/// Builds the merged trace: four tenant populations (default, an
/// unbudgeted hybrid tenant, the budgeted "metered" tenant, and a
/// fixed-keep-alive one), time-ordered.
fn workload() -> (Vec<Event>, u64) {
    let tenant_of = |idx: usize| -> (Option<&'static str>, TenantId) {
        match idx % 4 {
            0 => (None, 0),
            1 => (Some("alpha"), 1),
            2 => (Some("metered"), 2),
            _ => (Some("fixed"), 3),
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
fn routed_replay_is_bit_identical_to_fleet_sim() {
    let (merged, metered_budget) = workload();

    // Online cluster: 3 nodes, the trace's tenants on the router.
    let nodes = [start_node(), start_node(), start_node()];
    let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr()).collect();
    let tenant_specs = [
        "alpha=hybrid".to_owned(),
        format!("metered=hybrid,budget={metered_budget}"),
        "fixed=fixed:10".to_owned(),
    ];
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        nodes: addrs.iter().map(|a| a.to_string()).collect(),
        tenants: tenant_specs
            .iter()
            .map(|t| TenantConfig::parse(t).expect("tenant spec"))
            .collect(),
        ..RouterConfig::default()
    })
    .expect("router starts");

    // Offline model: one fleet sim over the union registry — no
    // nodes, no placement.
    let mut registry = TenantRegistry::new(PolicySpec::fixed_minutes(10));
    for spec in &tenant_specs {
        let t = TenantConfig::parse(spec).unwrap();
        registry
            .register(&t.name, t.policy.clone(), t.budget_mb)
            .unwrap();
    }
    let mut sim = FleetSim::new(&registry);

    // Replay in alternating protocol blocks of 23, sequentially (one
    // in-flight decision — arrival order is the parity contract).
    let mut json = Client::connect(router.addr()).unwrap();
    let mut bin = Client::connect(router.addr()).unwrap();
    let mut use_json = true;
    let mut served = [0u64; 4];
    let mut i = 0;
    while i < merged.len() {
        let block_end = merged.len().min(i + 23);
        for (j, (name, tid, app, ts)) in merged[i..block_end].iter().enumerate() {
            let expected = match sim.step(*tid, app, *ts) {
                Ok(v) => outcome_of_sim(v),
                Err(e) => panic!("offline model rejected an event: {e:?}"),
            };
            let online = if use_json {
                let (status, body) = json.invoke(*name, app, *ts, None).unwrap();
                outcome_of_json(status, &body)
            } else {
                let frame = [(*tid, app.as_str(), *ts)];
                let replies = records(bin.batch(|f| wire::encode_request_frame_v2(f, &frame)));
                outcome_of_bin(&replies[0])
            };
            assert_eq!(online, expected, "event {} ({name:?}, {app}, {ts})", i + j);
            served[*tid as usize] += 1;
        }
        i = block_end;
        use_json = !use_json;
    }

    // The trace must actually exercise the interesting paths.
    assert!(
        sim.ledger(2).unwrap().stats().evictions > 0,
        "the metered tenant must evict"
    );

    // Conservation: per named tenant, the ledger integrals summed over
    // the nodes' usage reports equal the offline model's ledger
    // exactly. (Named tenants live whole on one node. The default
    // tenant is excluded: its ledger is sharded by design, and per-shard
    // idle integrals advance on per-shard arrivals.)
    let reports: Vec<Vec<TenantUsage>> = addrs.iter().map(|&addr| usage(addr)).collect();
    for (name, tid) in [("alpha", 1u16), ("metered", 2), ("fixed", 3)] {
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
        assert_eq!(invocations, served[tid as usize], "{name}: served count");
    }

    // Provisioning set the budget on the tenant's ring owner.
    let owner = ClusterRing::new(3).node_of_tenant("metered").unwrap();
    let tenants = usage(addrs[owner]);
    let metered = tenants.iter().find(|t| t.name == "metered").unwrap();
    assert_eq!(metered.budget_mb, metered_budget, "budget on the owner");

    router.shutdown();
    for n in nodes {
        n.shutdown().unwrap();
    }
}
