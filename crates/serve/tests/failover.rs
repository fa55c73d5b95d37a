//! The ISSUE-10 acceptance tests: primary → warm-standby failover is
//! invisible in the decision stream.
//!
//! A multi-tenant fleet replay (mixed JSON and SITW-BIN blocks) runs
//! against a 2-shard primary while a follower pulls the replication
//! stream; the primary dies mid-trace, the follower — a 5-shard node
//! refusing decisions until then — promotes in place, and the remaining
//! events replay against its same address.
//! Verdicts, windows, and the per-tenant ledger integrals must be
//! **bit-identical** to `sitw_sim::fleet_verdict_trace` over the
//! uninterrupted stream — no snapshot file is ever written, so every
//! byte of state crosses only the replication wire. A second test
//! drives the dead-primary auto-promotion policy end to end.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sitw_core::Windows;
use sitw_fleet::{footprint_mb, FleetEvent, TenantId, TenantRegistry};
use sitw_serve::wire::{self, BinReply};
use sitw_serve::{Client, Decision, FollowConfig, ServeConfig, Server, TenantConfig};
use sitw_sim::{fleet_verdict_trace, FleetVerdict, PolicySpec};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// Tenant layout of the test fleet (same shape as the fleet-parity
/// tests: a budgeted hybrid tenant squeezed enough to guarantee
/// evictions, so the ledger integrals are non-trivial across failover).
struct Fleet {
    default_policy: PolicySpec,
    tenants: Vec<TenantConfig>,
}

fn fleet(metered_apps: &[String]) -> Fleet {
    let footprints: Vec<u64> = metered_apps
        .iter()
        .map(|a| footprint_mb("metered", a))
        .collect();
    let mut sorted = footprints.clone();
    sorted.sort_unstable();
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
    }
}

/// One workload entry: JSON tenant name (None = default), wire tenant
/// id, app, timestamp.
type WorkloadEvent = (Option<&'static str>, TenantId, String, u64);

/// The merged multi-tenant workload: multi-day streams so production-day
/// rotation crosses the failover.
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
        num_apps: 26,
        seed: 5151,
    });
    let cfg = TraceConfig {
        horizon_ms: 2 * DAY_MS,
        cap_per_day: 120.0,
        seed: 31,
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

/// Replays `merged` in alternating protocol blocks (17 JSON requests,
/// then one 29-record BIN frame), appending observations in order.
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

/// Waits until the follower's replica provably contains every mutation
/// the (now quiescent) primary holds: once a round commits *without*
/// bumping the epoch, that round was a clean commit — the primary had
/// nothing dirty left to stream.
fn wait_caught_up(follower: &Server) {
    let status = || follower.follow_status().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut prev = status();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let s = status();
        if s.epoch > 0 && s.rounds > prev.rounds && s.epoch == prev.epoch {
            return;
        }
        assert!(Instant::now() < deadline, "follower never caught up: {s:?}");
        prev = s;
    }
}

/// Reads one per-tenant counter out of a Prometheus scrape.
fn scraped(text: &str, family: &str, tenant: &str) -> u64 {
    let needle = format!("{family}{{tenant=\"{tenant}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("{needle}missing from scrape"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn fleet_failover_replay_matches_uninterrupted_fleet_trace() {
    let (merged, metered_apps) = workload();
    let fleet = fleet(&metered_apps);
    let half = merged.len() / 2;

    // The primary writes no snapshot file: everything the promoted
    // daemon serves from must have crossed the replication wire.
    let primary = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: fleet.default_policy.clone(),
        tenants: fleet.tenants.clone(),
        ..ServeConfig::default()
    })
    .unwrap();

    // Warm standby, promoting into a *5-shard* fleet — failover parity
    // must hold across a shard-count change, like restore parity does.
    let follower = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 5,
        policy: fleet.default_policy.clone(),
        tenants: fleet.tenants.clone(),
        follow: Some(FollowConfig {
            primary_addr: primary.addr().to_string(),
            pull_interval: Duration::from_millis(15),
        }),
        ..ServeConfig::default()
    })
    .unwrap();

    // Phase 1: first half against the primary, replication running
    // underneath the whole time.
    let mut online: Vec<Decision> = Vec::new();
    replay_mixed(primary.addr(), &merged[..half], &mut online);
    wait_caught_up(&follower);

    // No stop-the-world: every one of the `half` decisions flowed through
    // the decide-stage histograms while replication rounds (including at
    // least one full sync) were being streamed.
    let report = primary.metrics();
    assert!(
        report.repl.rounds >= 2,
        "repl rounds: {}",
        report.repl.rounds
    );
    assert!(report.repl.full_syncs >= 1);
    assert!(report.repl.bytes_streamed > 0);
    let stages = report.stage_hists();
    let (name, decide) = &stages[3];
    assert_eq!(*name, "decide");
    assert_eq!(
        decide.json.count() + decide.bin.count(),
        half as u64,
        "replication must never block or drop decisions"
    );

    // The follower's control surface reports the live replication state.
    let mut ctl = Client::connect(follower.addr()).unwrap();
    let (status, health) = ctl.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"following\""), "{health}");
    assert!(!health.contains("\"epoch\":0,"), "synced: {health}");
    let (status, scrape) = ctl.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        scrape.contains("sitw_serve_repl_full_syncs_total"),
        "repl families on the follower scrape"
    );

    // The primary dies. Its final snapshot is discarded — crash
    // semantics: the replica alone must carry the state forward.
    let _ = primary.shutdown().unwrap();

    // Supervised promotion over the operator endpoint: the standby
    // serves on its own address.
    let (status, body) = ctl.request("POST", "/admin/promote", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let serve_addr = follower.addr();
    assert!(follower.follow_status().unwrap().promoted);
    let (_, health) = ctl.request("GET", "/healthz", "").unwrap();
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // Phase 2: the rest of the trace against the promoted daemon.
    replay_mixed(serve_addr, &merged[half..], &mut online);

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
        assert_eq!(on.windows, off.windows, "windows at {}", ctx());
        if off.evicted {
            evicted_seen += 1;
        }
    }
    assert!(evicted_seen > 0, "the budgeted tenant must see evictions");

    // Ledger integrals: the promoted daemon's per-tenant counters match
    // the uninterrupted offline ledgers exactly — the idle-memory
    // integral (MB·ms) is the paper's §5.3 cost metric, so losing even
    // one charge interval across the failover would show up here.
    let mut sim = sitw_sim::FleetSim::new(&registry);
    for e in &events {
        sim.step(e.tenant, &e.app, e.ts).unwrap();
    }
    let mut serve_client = Client::connect(serve_addr).unwrap();
    let (status, text) = serve_client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    // Invocation counters are observability state, not policy state —
    // they are not replicated (same as restore). The promoted daemon
    // must have served exactly the phase-2 events, no more, no fewer.
    let mut event_counts: HashMap<TenantId, u64> = HashMap::new();
    for e in &events[half..] {
        *event_counts.entry(e.tenant).or_default() += 1;
    }
    for (name, tid) in [("default", 0u16), ("fast", 1), ("metered", 2), ("prod", 3)] {
        let ledger = sim.ledger(tid).unwrap().stats();
        assert_eq!(
            scraped(&text, "sitw_serve_tenant_evictions_total", name),
            ledger.evictions,
            "{name}: evictions across failover"
        );
        // Named tenants route whole to one shard, so their single-writer
        // ledgers must survive the failover bit-for-bit. The default
        // tenant's ledger is sharded (one cursor per shard), so its
        // integral is a per-shard approximation that no shard-count
        // change preserves exactly — restore parity has the same bound.
        if tid != 0 {
            assert_eq!(
                scraped(&text, "sitw_serve_tenant_idle_mb_ms_total", name),
                ledger.idle_mb_ms,
                "{name}: idle-memory integral across failover"
            );
        }
        assert_eq!(
            scraped(&text, "sitw_serve_tenant_invocations_total", name),
            event_counts[&tid],
            "{name}: no decision lost or duplicated"
        );
    }

    // The lifecycle trail: at least one full sync and the promotion.
    let (_, ev) = ctl.request("GET", "/debug/events", "").unwrap();
    assert!(ev.contains("\"kind\":\"repl-sync\""), "{ev}");
    assert!(ev.contains("\"kind\":\"promotion\""), "{ev}");
    assert!(ev.contains("operator request"), "{ev}");

    // Shutting the promoted node down drains it gracefully.
    let final_snap = follower.shutdown().unwrap();
    assert!(
        !final_snap.tenants.is_empty(),
        "promoted node yields its snapshot"
    );
}

#[test]
fn follower_promotes_after_primary_dies_silently() {
    let population = build_population(&PopulationConfig {
        num_apps: 10,
        seed: 808,
    });
    let cfg = TraceConfig {
        horizon_ms: DAY_MS,
        cap_per_day: 150.0,
        seed: 9,
    };
    let mut per_app: HashMap<String, Vec<u64>> = HashMap::new();
    let mut merged: Vec<(String, u64)> = Vec::new();
    for app in &population.apps {
        let events = app_invocations(app, &cfg);
        if events.is_empty() {
            continue;
        }
        let name = app.id.to_string();
        for &ts in &events {
            merged.push((name.clone(), ts));
        }
        per_app.insert(name, events);
    }
    merged.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
    assert!(merged.len() >= 200, "workload too small: {}", merged.len());
    let half = merged.len() / 2;

    let primary = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    })
    .unwrap();
    let follower = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 3,
        policy: PolicySpec::fixed_minutes(10),
        follow: Some(FollowConfig {
            primary_addr: primary.addr().to_string(),
            pull_interval: Duration::from_millis(20),
        }),
        ..ServeConfig::default()
    })
    .unwrap();

    let mut client = Client::connect(primary.addr()).unwrap();
    let mut online: HashMap<String, Vec<Decision>> = HashMap::new();
    for (app, ts) in &merged[..half] {
        let (status, body) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200, "{body}");
        online
            .entry(app.clone())
            .or_default()
            .push(wire::parse_decision(&body).unwrap());
    }
    wait_caught_up(&follower);

    // The primary vanishes without ceremony. Once the standby has seen
    // three failed pulls, it is promoted — as the router's prober would
    // after three failed probes.
    let _ = primary.shutdown().unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.follow_status().unwrap().consecutive_failures < 3 {
        assert!(
            Instant::now() < deadline,
            "pulls never failed: {:?}",
            follower.follow_status()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    follower.promote().unwrap();
    assert!(follower.follow_status().unwrap().promoted);
    let serve_addr = follower.addr();

    let mut client = Client::connect(serve_addr).unwrap();
    for (app, ts) in &merged[half..] {
        let (status, body) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200, "{body}");
        online
            .entry(app.clone())
            .or_default()
            .push(wire::parse_decision(&body).unwrap());
    }

    // Bit-for-bit against the uninterrupted offline policy, per app.
    for (app, events) in &per_app {
        let mut policy = sitw_core::FixedKeepAlive::minutes(10);
        let offline = sitw_sim::verdict_trace(events, &mut policy);
        let observed = &online[app];
        assert_eq!(observed.len(), offline.len(), "{app}");
        for (i, (on, off)) in observed.iter().zip(&offline).enumerate() {
            assert_eq!(on.cold, off.cold, "{app} event {i}");
            assert_eq!(on.windows, off.windows, "{app} event {i}");
        }
    }

    // The lifecycle trail records the promotion.
    let mut ctl = Client::connect(follower.addr()).unwrap();
    let (_, ev) = ctl.request("GET", "/debug/events", "").unwrap();
    assert!(ev.contains("\"kind\":\"promotion\""), "{ev}");
    follower.shutdown().unwrap();
}

/// Control calls to a primary that a standby pulls from every 15 ms are
/// answered promptly: fresh nodes, each registering tenants over fresh
/// connections (as a router provisions them) while its standby attaches
/// and pulls; any call slower than a second fails.
#[test]
fn control_calls_under_a_pull_loop_are_answered_promptly() {
    let limit = Duration::from_secs(1);
    for round in 0..20 {
        let primary = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            ..ServeConfig::default()
        })
        .unwrap();
        let follower = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            follow: Some(FollowConfig {
                primary_addr: primary.addr().to_string(),
                pull_interval: Duration::from_millis(15),
            }),
            ..ServeConfig::default()
        })
        .unwrap();
        for k in 0..5 {
            for (method, path, body) in [
                ("GET", "/admin/tenants", String::new()),
                ("POST", "/admin/tenants", format!("t{k}=fixed:10")),
            ] {
                let at = Instant::now();
                let call = sitw_serve::http::call(
                    primary.addr(),
                    method,
                    path,
                    body.as_bytes(),
                    limit,
                    limit,
                );
                let took = at.elapsed();
                assert!(
                    matches!(call, Ok((200, _))) && took < limit,
                    "round {round}, {method} {path} {body}: {call:?} after {took:?}"
                );
            }
        }
        follower.shutdown().unwrap();
        primary.shutdown().unwrap();
    }
}
