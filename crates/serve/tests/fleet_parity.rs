//! The ISSUE-4 acceptance test: a multi-tenant fleet replay — distinct
//! per-tenant policies (fixed / hybrid / production), one tenant over
//! its memory budget — driven through mixed JSON and SITW-BIN
//! blocks, is **bit-identical** to `sitw_sim::fleet_verdict_trace`
//! (cold/warm, pre-warm load, eviction downgrade, decision branch, both
//! windows), across a snapshot/restore that changes the shard count
//! from 2 to 5. Budget evictions land only on the over-budget tenant,
//! and its warm memory never exceeds the budget.

use std::collections::HashMap;
use std::net::SocketAddr;

use sitw_core::Windows;
use sitw_fleet::{footprint_mb, FleetEvent, TenantId, TenantRegistry};
use sitw_serve::http::Reply;
use sitw_serve::wire::{self, BinReply, ServerFrameDecode};
use sitw_serve::{Client, Decision, ServeConfig, Server, TenantConfig};
use sitw_sim::{fleet_verdict_trace, FleetVerdict, PolicySpec};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// Tenant layout of the test fleet. The metered tenant's budget is
/// derived from its apps' deterministic footprints so that it can hold
/// roughly two warm containers — enough traffic guarantees evictions.
struct Fleet {
    default_policy: PolicySpec,
    tenants: Vec<TenantConfig>,
    metered_budget: u64,
}

fn fleet(metered_apps: &[String]) -> Fleet {
    let footprints: Vec<u64> = metered_apps
        .iter()
        .map(|a| footprint_mb("metered", a))
        .collect();
    let mut sorted = footprints.clone();
    sorted.sort_unstable();
    // Room for the two biggest apps at once, never all of them.
    let metered_budget = sorted[sorted.len() - 1] + sorted[sorted.len() - 2];
    Fleet {
        default_policy: PolicySpec::fixed_minutes(10),
        tenants: vec![
            TenantConfig {
                name: "fast".into(),
                policy: PolicySpec::fixed_minutes(20),
                budget_mb: 0,
            },
            TenantConfig {
                name: "metered".into(),
                policy: PolicySpec::parse("hybrid").unwrap(),
                budget_mb: metered_budget,
            },
            TenantConfig {
                name: "prod".into(),
                policy: PolicySpec::parse("production").unwrap(),
                budget_mb: 0,
            },
        ],
        metered_budget,
    }
}

/// One workload entry: JSON tenant name (None = default), wire tenant
/// id, app, timestamp.
type WorkloadEvent = (Option<&'static str>, TenantId, String, u64);

/// Builds the merged multi-tenant workload: per-tenant app populations
/// with multi-day streams (so production-day rotation crosses the
/// restore), merged in time order.
fn workload() -> (Vec<WorkloadEvent>, Vec<String>) {
    let tenant_of = |idx: usize| -> (Option<&'static str>, TenantId) {
        match idx % 4 {
            0 => (None, 0),
            1 => (Some("fast"), 1),
            2 => (Some("metered"), 2),
            _ => (Some("prod"), 3),
        }
    };
    let population = build_population(&PopulationConfig {
        num_apps: 28,
        seed: 4242,
    });
    let cfg = TraceConfig {
        horizon_ms: 2 * DAY_MS,
        cap_per_day: 120.0,
        seed: 99,
    };
    let mut merged: Vec<WorkloadEvent> = Vec::new();
    let mut metered_apps: Vec<String> = Vec::new();
    for (idx, app) in population.apps.iter().enumerate() {
        let (name, tid) = tenant_of(idx);
        let app_id = app.id.to_string();
        if tid == 2 {
            metered_apps.push(app_id.clone());
        }
        for ts in app_invocations(app, &cfg) {
            merged.push((name, tid, app_id.clone(), ts));
        }
    }
    merged.sort_by(|a, b| (a.3, a.1, &a.2).cmp(&(b.3, b.1, &b.2)));
    assert!(
        merged.len() >= 1_000,
        "workload too small: {}",
        merged.len()
    );
    assert!(metered_apps.len() >= 4, "need several metered apps");
    (merged, metered_apps)
}

/// Replays `merged` against `addr` in alternating protocol blocks — 17
/// invocations as sequential JSON requests, then 29 as one SITW-BIN
/// frame — appending observations in event order.
fn replay_mixed(addr: SocketAddr, merged: &[WorkloadEvent], online: &mut Vec<Decision>) {
    let mut json = Client::connect(addr).unwrap();
    let mut bin = Client::connect(addr).unwrap();
    let mut i = 0usize;
    let mut use_json = true;
    while i < merged.len() {
        if use_json {
            for (name, _, app, ts) in merged[i..merged.len().min(i + 17)].iter() {
                let (status, body) = json.invoke(*name, app, *ts, None).unwrap();
                assert_eq!(status, 200, "{body}");
                online.push(wire::parse_decision(&body).unwrap());
            }
            i = merged.len().min(i + 17);
        } else {
            let block = &merged[i..merged.len().min(i + 29)];
            let records: Vec<(u16, &str, u64)> = block
                .iter()
                .map(|(_, tid, app, ts)| (*tid, app.as_str(), *ts))
                .collect();
            let replies = bin
                .batch(|f| wire::encode_request_frame_v2(f, &records))
                .unwrap()
                .records()
                .unwrap();
            assert_eq!(replies.len(), block.len());
            for reply in replies {
                match reply {
                    BinReply::Verdict {
                        cold,
                        prewarm_load,
                        evicted,
                        kind,
                        pre_warm_ms,
                        keep_alive_ms,
                    } => online.push(Decision {
                        cold,
                        prewarm_load,
                        evicted,
                        kind,
                        windows: Windows {
                            pre_warm_ms: pre_warm_ms as u64,
                            keep_alive_ms: keep_alive_ms as u64,
                        },
                    }),
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            i = merged.len().min(i + 29);
        }
        use_json = !use_json;
    }
}

#[test]
fn fleet_replay_matches_fleet_verdict_trace_across_shard_change() {
    let (merged, metered_apps) = workload();
    let fleet = fleet(&metered_apps);
    let half = merged.len() / 2;

    let dir = std::env::temp_dir().join(format!("sitw-fleet-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("state.snapshot");

    let config = |shards: usize, restore: bool| ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        policy: fleet.default_policy.clone(),
        tenants: fleet.tenants.clone(),
        snapshot_path: Some(snap_path.clone()),
        restore_path: restore.then(|| snap_path.clone()),
        ..ServeConfig::default()
    };

    // Phase 1: first half against a 2-shard fleet.
    let server_a = Server::start(config(2, false)).unwrap();
    let mut online: Vec<Decision> = Vec::new();
    replay_mixed(server_a.addr(), &merged[..half], &mut online);
    server_a.shutdown().unwrap();
    let text = std::fs::read_to_string(&snap_path).unwrap();
    assert!(
        text.contains("tenant 2 metered"),
        "registry persisted:\n{text}"
    );
    assert!(text.contains("tledger 2 "), "metered ledger persisted");
    assert!(text.contains("tclock 3 "), "prod backup clock persisted");

    // Phase 2: the rest against a 5-shard fleet restored from the file.
    let server_b = Server::start(config(5, true)).unwrap();
    replay_mixed(server_b.addr(), &merged[half..], &mut online);

    // Offline ground truth: the uninterrupted fleet simulator.
    let mut registry = TenantRegistry::new(fleet.default_policy.clone());
    for t in &fleet.tenants {
        registry
            .register(&t.name, t.policy.clone(), t.budget_mb)
            .unwrap();
    }
    let events: Vec<FleetEvent> = merged
        .iter()
        .map(|(_, tid, app, ts)| FleetEvent {
            tenant: *tid,
            app: app.clone(),
            ts: *ts,
        })
        .collect();
    let offline = fleet_verdict_trace(&events, &registry);

    assert_eq!(online.len(), offline.len());
    let mut evicted_seen = 0u64;
    for (i, (on, off)) in online.iter().zip(&offline).enumerate() {
        let off: &FleetVerdict = off
            .as_ref()
            .unwrap_or_else(|e| panic!("offline rejected event {i} ({:?}): {e:?}", events[i]));
        let ctx = || format!("event {i} = {:?}", events[i]);
        assert_eq!(on.cold, off.cold, "cold mismatch at {}", ctx());
        assert_eq!(on.prewarm_load, off.prewarm_load, "prewarm at {}", ctx());
        assert_eq!(on.evicted, off.evicted, "evicted at {}", ctx());
        assert_eq!(on.kind, off.kind, "kind at {}", ctx());
        assert!(
            off.windows.pre_warm_ms < u32::MAX as u64
                && off.windows.keep_alive_ms < u32::MAX as u64,
            "windows exceed the u32 wire range at {}",
            ctx()
        );
        assert_eq!(on.windows, off.windows, "windows at {}", ctx());
        if off.evicted {
            evicted_seen += 1;
        }
    }
    assert!(
        evicted_seen > 0,
        "the over-budget tenant must see eviction downgrades"
    );

    // Budget-respecting verdicts: evictions only for the metered tenant,
    // counts exactly matching the offline ledgers, warm memory within
    // budget.
    let report = server_b.metrics();
    let tenants = report.tenants();
    assert_eq!(tenants.len(), 4);
    let by_name: HashMap<&str, _> = tenants.iter().map(|t| (t.name.as_str(), t)).collect();
    let mut sim = sitw_sim::FleetSim::new(&registry);
    for e in &events {
        sim.step(e.tenant, &e.app, e.ts).unwrap();
    }
    for (name, tid) in [("default", 0u16), ("fast", 1), ("metered", 2), ("prod", 3)] {
        let online_t = by_name[name];
        let offline_ledger = sim.ledger(tid).unwrap().stats();
        assert_eq!(
            online_t.evictions, offline_ledger.evictions,
            "{name}: eviction count must match the offline ledger"
        );
        if name == "metered" {
            assert!(online_t.evictions > 0, "metered tenant must evict");
            assert!(
                online_t.warm_mb <= fleet.metered_budget,
                "metered warm {} exceeds budget {}",
                online_t.warm_mb,
                fleet.metered_budget
            );
        } else {
            assert_eq!(online_t.evictions, 0, "{name}: unbudgeted, never evicts");
        }
    }

    server_b.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Unknown tenants are rejected cleanly on both protocols: JSON with a
/// 400, SITW-BIN with a typed (recoverable) error frame.
#[test]
fn unknown_tenants_rejected_on_both_protocols() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        tenants: vec![TenantConfig {
            name: "known".into(),
            policy: PolicySpec::fixed_minutes(10),
            budget_mb: 0,
        }],
        ..ServeConfig::default()
    })
    .unwrap();

    let mut json = Client::connect(server.addr()).unwrap();
    let (status, body) = json.invoke(Some("ghost"), "a", 0, None).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown tenant"), "{body}");
    // The connection survives and known tenants serve.
    let (status, body) = json.invoke(Some("known"), "a", 0, None).unwrap();
    assert_eq!(status, 200, "{body}");

    let mut bin = Client::connect(server.addr()).unwrap();
    match bin
        .batch(|f| wire::encode_request_frame_v2(f, &[(42, "a", 0)]))
        .unwrap()
    {
        Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => {
            assert_eq!(code, wire::BinErrorCode::Malformed);
            assert!(detail.contains("unknown tenant id 42"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    // Still usable: a valid frame for the known tenant (id 1).
    let records = bin
        .batch(|f| wire::encode_request_frame_v2(f, &[(1, "b", 5)]))
        .unwrap()
        .records()
        .unwrap();
    assert!(matches!(records[0], BinReply::Verdict { cold: true, .. }));
    assert_eq!(server.metrics().proto.proto_errors, 1);
    server.shutdown().unwrap();
}

/// Runtime tenant registration via the admin endpoint: the new tenant
/// serves immediately, appears in `GET /admin/tenants` and `/metrics`,
/// and survives a snapshot/restore (rebuilt from its canonical spec).
#[test]
fn admin_registered_tenant_serves_and_survives_restore() {
    let dir = std::env::temp_dir().join(format!("sitw-fleet-admin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("state.snapshot");

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 3,
        policy: PolicySpec::fixed_minutes(10),
        snapshot_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Register over HTTP with a budget; duplicate and garbage rejected.
    let spec = "ondemand=fixed:20,budget=256";
    let (status, resp) = client.request("POST", "/admin/tenants", spec).unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"id\":1"), "{resp}");
    let (status, resp) = client.request("POST", "/admin/tenants", spec).unwrap();
    assert_eq!(status, 400, "duplicate must 400: {resp}");

    let (status, body) = client.invoke(Some("ondemand"), "x", 0, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"keep_alive_ms\":1200000"), "{body}");

    let (status, listing) = client.request("GET", "/admin/tenants", "").unwrap();
    assert_eq!(status, 200);
    assert!(listing.contains("\"name\":\"ondemand\""), "{listing}");
    assert!(listing.contains("\"budget_mb\":256"), "{listing}");

    drop(client);
    server.shutdown().unwrap();

    // Restart without configuring the tenant: the snapshot's canonical
    // spec rebuilds it, continuing the decision stream.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        restore_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, body) = client.invoke(Some("ondemand"), "x", 60_000, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"verdict\":\"warm\""),
        "restored state: {body}"
    );
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
