//! End-to-end tests of the serving daemon on a loopback port:
//!
//! * **Online/offline parity**: replaying a synthetic trace through
//!   `POST /invoke` produces verdicts bit-for-bit identical to
//!   `sitw_sim::verdict_trace` / `simulate_app` on the same streams.
//! * **Snapshot/restore continuity**: a server restored mid-stream from
//!   a snapshot continues the exact decision sequence.
//! * **Protocol behaviour**: health, metrics, rejections, admin
//!   shutdown.

use std::collections::HashMap;
use std::net::SocketAddr;

use sitw_core::{
    FixedKeepAlive, HybridConfig, PolicyFactory, ProductionApp, ProductionConfig, ProductionManager,
};
use sitw_serve::http::Reply;
use sitw_serve::wire::{self, BinReply};
use sitw_serve::{Client, ServeConfig, Server};
use sitw_sim::{
    production_verdict_trace, simulate_app, verdict_trace, InvocationVerdict, PolicySpec,
};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// The merged `(app, ts)` request stream and the per-app event lists it
/// was built from.
type Workload = (Vec<(String, u64)>, HashMap<String, Vec<u64>>);

/// The test workload: ~40 apps, one day, enough events to exceed 1 000
/// invocations, merged into one global time-ordered stream.
fn workload() -> Workload {
    workload_with(40, DAY_MS, 400.0)
}

/// A multi-day workload so daily-histogram rotation and retention are
/// actually exercised (production mode is day-aware).
fn multiday_workload() -> Workload {
    workload_with(25, 3 * DAY_MS, 150.0)
}

fn workload_with(num_apps: usize, horizon_ms: u64, cap_per_day: f64) -> Workload {
    let population = build_population(&PopulationConfig {
        num_apps,
        seed: 1213,
    });
    let cfg = TraceConfig {
        horizon_ms,
        cap_per_day,
        seed: 77,
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
    assert!(
        merged.len() >= 1_000,
        "workload too small: {} events",
        merged.len()
    );
    (merged, per_app)
}

fn parse_verdict(body: &str) -> (bool, u64, u64) {
    let d = wire::parse_decision(body).unwrap();
    (d.cold, d.windows.pre_warm_ms, d.windows.keep_alive_ms)
}

#[test]
fn online_verdicts_match_offline_simulator_bit_for_bit() {
    let (merged, per_app) = workload();
    let spec = PolicySpec::Hybrid(HybridConfig::default());
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 3,
        policy: spec,
        ..ServeConfig::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr()).unwrap();

    // Online replay, recording per-app verdict sequences.
    let mut online: HashMap<String, Vec<(bool, u64, u64)>> = HashMap::new();
    for (app, ts) in &merged {
        let (status, body) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200, "{body}");
        online
            .entry(app.clone())
            .or_default()
            .push(parse_verdict(&body));
    }

    // Offline: the same streams through the §5.1 simulator.
    for (app, events) in &per_app {
        let mut policy = HybridConfig::default().new_policy();
        let offline = verdict_trace(events, &mut policy);
        let online_app = &online[app];
        assert_eq!(online_app.len(), offline.len(), "{app}");
        for (i, (on, off)) in online_app.iter().zip(&offline).enumerate() {
            assert_eq!(on.0, off.cold, "{app} invocation {i}: cold mismatch");
            assert_eq!(
                (on.1, on.2),
                (off.windows.pre_warm_ms, off.windows.keep_alive_ms),
                "{app} invocation {i}: window mismatch"
            );
        }
        // And the aggregate matches simulate_app's counters exactly.
        let mut policy = HybridConfig::default().new_policy();
        let folded = simulate_app(events, DAY_MS, &mut policy);
        let online_colds = online_app.iter().filter(|v| v.0).count() as u64;
        assert_eq!(online_colds, folded.cold_starts, "{app}");
    }

    // Metrics agree with what was served.
    let report = server.metrics();
    assert_eq!(report.invocations(), merged.len() as u64);
    assert_eq!(report.apps() as usize, per_app.len());
    let offline_total_colds: u64 = per_app
        .values()
        .map(|events| {
            let mut policy = HybridConfig::default().new_policy();
            simulate_app(events, DAY_MS, &mut policy).cold_starts
        })
        .sum();
    assert_eq!(report.cold(), offline_total_colds);

    server.shutdown().expect("shutdown");
}

#[test]
fn snapshot_restore_continues_decision_stream_exactly() {
    let (merged, per_app) = workload();
    let half = merged.len() / 2;
    let spec = || PolicySpec::Hybrid(HybridConfig::default());

    let dir = std::env::temp_dir().join(format!("sitw-serve-restore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("state.snapshot");

    // Phase 1: first half against server A; snapshot on shutdown.
    let server_a = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: spec(),
        snapshot_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server_a.addr()).unwrap();
    for (app, ts) in &merged[..half] {
        let (status, _) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200);
    }
    drop(client);
    let final_state = server_a.shutdown().unwrap();
    assert!(snap_path.exists());
    assert!(!final_state.apps.is_empty());

    // Phase 2: second half against server B, restored from the file —
    // with a *different* shard count to prove state is app-keyed.
    let server_b = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        policy: spec(),
        restore_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server_b.addr()).unwrap();
    let mut online_tail: HashMap<String, Vec<(bool, u64, u64)>> = HashMap::new();
    for (app, ts) in &merged[half..] {
        let (status, body) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200, "{body}");
        online_tail
            .entry(app.clone())
            .or_default()
            .push(parse_verdict(&body));
    }
    drop(client);
    server_b.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // The tail verdicts must equal the tail of an uninterrupted offline
    // replay: restore is exact, not approximate.
    let tail_counts: HashMap<&String, usize> =
        online_tail.iter().map(|(k, v)| (k, v.len())).collect();
    for (app, events) in &per_app {
        let Some(&tail_n) = tail_counts.get(app) else {
            continue;
        };
        let mut policy = HybridConfig::default().new_policy();
        let offline = verdict_trace(events, &mut policy);
        let offline_tail = &offline[events.len() - tail_n..];
        for (i, (on, off)) in online_tail[app].iter().zip(offline_tail).enumerate() {
            assert_eq!(on.0, off.cold, "{app} tail invocation {i}");
            assert_eq!(
                (on.1, on.2),
                (off.windows.pre_warm_ms, off.windows.keep_alive_ms),
                "{app} tail invocation {i}"
            );
        }
    }
}

/// Extracts the decision-branch name from an `/invoke` response body.
fn parse_kind(body: &str) -> String {
    wire::kind_str(wire::parse_decision(body).unwrap().kind).to_owned()
}

/// The §6 serving mode end to end: a multi-day trace through a
/// production-mode daemon equals the offline [`ProductionManager`]
/// replay bit-for-bit — cold/warm verdict, decision branch, and both
/// windows — including across a snapshot/restore that *changes the
/// shard count* mid-stream. Also checks the §6 bookkeeping surfaced in
/// `/metrics` (hourly backups, pre-warm events scheduled 90 s early).
#[test]
fn production_mode_matches_offline_manager_across_shard_change() {
    let (merged, per_app) = multiday_workload();
    let half = merged.len() / 2;
    let spec = || PolicySpec::Production(ProductionConfig::default());

    let dir = std::env::temp_dir().join(format!("sitw-serve-prod-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("state.snapshot");

    // Phase 1: first half against a 2-shard server.
    let server_a = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: spec(),
        snapshot_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server_a.addr()).unwrap();
    let mut online: HashMap<String, Vec<(bool, u64, u64, String)>> = HashMap::new();
    for (app, ts) in &merged[..half] {
        let (status, body) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200, "{body}");
        let (cold, pw, ka) = parse_verdict(&body);
        online
            .entry(app.clone())
            .or_default()
            .push((cold, pw, ka, parse_kind(&body)));
    }
    drop(client);
    server_a.shutdown().unwrap();
    let text = std::fs::read_to_string(&snap_path).unwrap();
    assert!(text.contains("\nclock "), "backup clock must be persisted");
    assert!(text.contains(" production "), "per-app daily histograms");
    // Byte for byte what the commit before the manager cached its
    // aggregates wrote for this stream: the cache is derived state,
    // never exported, and moves no window.
    assert_eq!(text, include_str!("golden/production_2shard.snapshot"));

    // Phase 2: second half against a 5-shard server restored from the
    // snapshot — app slices land on entirely different managers.
    let server_b = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 5,
        policy: spec(),
        restore_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server_b.addr()).unwrap();
    for (app, ts) in &merged[half..] {
        let (status, body) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200, "{body}");
        let (cold, pw, ka) = parse_verdict(&body);
        online
            .entry(app.clone())
            .or_default()
            .push((cold, pw, ka, parse_kind(&body)));
    }

    // Offline ground truth: the uninterrupted day-aware replay.
    for (app, events) in &per_app {
        let mut manager = ProductionManager::new(ProductionConfig::default());
        let mut state = ProductionApp::new(manager.config());
        let offline = production_verdict_trace(events, &mut manager, &mut state);
        let online_app = &online[app];
        assert_eq!(online_app.len(), offline.len(), "{app}");
        for (i, (on, off)) in online_app.iter().zip(&offline).enumerate() {
            assert_eq!(on.0, off.cold, "{app} invocation {i}: cold mismatch");
            assert_eq!(
                (on.1, on.2),
                (off.windows.pre_warm_ms, off.windows.keep_alive_ms),
                "{app} invocation {i}: window mismatch"
            );
            assert_eq!(
                on.3,
                match off.kind {
                    sitw_core::DecisionKind::Histogram => "histogram",
                    sitw_core::DecisionKind::StandardKeepAlive => "standard",
                    other => panic!("unexpected production branch {other:?}"),
                },
                "{app} invocation {i}: kind mismatch"
            );
        }
    }

    // §6 bookkeeping is visible in /metrics.
    let (status, text) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("sitw_serve_backups_total"), "{text}");
    assert!(
        text.contains("sitw_serve_prewarm_scheduled_total"),
        "{text}"
    );
    let total = |name: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(name) && !l.starts_with('#'))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum()
    };
    assert!(
        total("sitw_serve_backups_total") > 0,
        "a multi-day trace must take hourly backups"
    );
    assert!(
        total("sitw_serve_prewarm_scheduled_total") > 0,
        "learned patterns must schedule pre-warm events"
    );

    // Equal-timestamp regression: re-sending the last accepted (app, ts)
    // is warm (a concurrent arrival), never a 409 or a cold.
    let (last_app, last_ts) = merged.last().unwrap().clone();
    let (status, body) = client.invoke(None, &last_app, last_ts, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\":\"warm\""), "{body}");

    drop(client);
    server_b.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One observed verdict, protocol-agnostic: cold, pre-warm window,
/// keep-alive window, decision branch, and (binary only, the JSON test
/// client does not parse it) the pre-warm-load flag.
type Observed = (bool, u64, u64, String, Option<bool>);

/// The hybrid policy's serialised state, byte for byte: five hand-made
/// apps through a two-shard node — three whose idle-time histories have
/// wrapped their 64-value cap more than once, two that were served by
/// ARIMA, one of them leaving that branch again — and the snapshot the
/// node writes on shutdown.
#[test]
fn hybrid_snapshot_is_byte_identical_to_the_walk_and_shift_build() {
    const MIN: u64 = 60_000;
    // (app, invocations, idle minutes before invocation i).
    type Idle = fn(u64) -> u64;
    let apps: [(&str, u64, Idle); 5] = [
        ("beat", 160, |_| 10),
        ("drift", 200, |i| 3 + i * 7919 % 90),
        ("slow", 90, |i| 300 + i % 3),
        ("swing", 150, |i| if i < 30 { 280 + i % 5 } else { 12 }),
        ("brief", 6, |i| 20 + i),
    ];
    let mut merged: Vec<(u64, &str)> = Vec::new();
    for (app, n, idle) in apps {
        let mut ts = 0;
        for i in 0..n {
            // A few seconds off the minute, so history values differ
            // from bin indices.
            ts += idle(i) * MIN + i * 7_001 % 50_000;
            merged.push((ts, app));
        }
    }
    merged.sort_unstable();

    let dir = std::env::temp_dir().join(format!("sitw-serve-hybrid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("state.snapshot");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::Hybrid(HybridConfig::default()),
        snapshot_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut kinds: HashMap<&str, Vec<String>> = HashMap::new();
    for (ts, app) in &merged {
        let (status, body) = client.invoke(None, app, *ts, None).unwrap();
        assert_eq!(status, 200, "{body}");
        kinds.entry(app).or_default().push(parse_kind(&body));
    }
    drop(client);
    server.shutdown().unwrap();
    let text = std::fs::read_to_string(&snap_path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // The stream did what the golden file is for.
    let served = |app: &str, kind: &str| kinds[app].iter().filter(|k| *k == kind).count();
    assert!(served("slow", "arima") > 64, "ARIMA on a wrapped history");
    assert!(served("swing", "arima") > 0 && kinds["swing"].last().unwrap() == "histogram");
    assert_eq!(served("beat", "histogram"), 160 - 5);
    // Byte for byte what the commit before percentile cursors and the
    // history ring wrote for this stream: both are derived state, never
    // exported, and the history leaves oldest first.
    assert_eq!(text, include_str!("golden/hybrid_2shard.snapshot"));
}

/// Replays `merged` against `addr` in alternating protocol blocks — 17
/// invocations as sequential JSON requests, then 29 as one SITW-BIN
/// frame — appending each app's observed verdicts to `online`.
fn replay_mixed(
    addr: SocketAddr,
    merged: &[(String, u64)],
    online: &mut HashMap<String, Vec<Observed>>,
) {
    let mut json = Client::connect(addr).unwrap();
    let mut bin = Client::connect(addr).unwrap();
    let mut i = 0usize;
    let mut use_json = true;
    while i < merged.len() {
        if use_json {
            for (app, ts) in merged[i..merged.len().min(i + 17)].iter() {
                let (status, body) = json.invoke(None, app, *ts, None).unwrap();
                assert_eq!(status, 200, "{body}");
                let (cold, pw, ka) = parse_verdict(&body);
                online.entry(app.clone()).or_default().push((
                    cold,
                    pw,
                    ka,
                    parse_kind(&body),
                    None,
                ));
            }
            i = merged.len().min(i + 17);
        } else {
            let block = &merged[i..merged.len().min(i + 29)];
            let records: Vec<(&str, u64)> = block.iter().map(|(a, ts)| (a.as_str(), *ts)).collect();
            let replies = bin
                .batch(|f| wire::encode_request_frame(f, &records))
                .unwrap()
                .records()
                .unwrap();
            assert_eq!(replies.len(), block.len());
            for ((app, _), reply) in block.iter().zip(&replies) {
                match reply {
                    BinReply::Verdict {
                        cold,
                        prewarm_load,
                        kind,
                        pre_warm_ms,
                        keep_alive_ms,
                        ..
                    } => online.entry(app.clone()).or_default().push((
                        *cold,
                        *pre_warm_ms as u64,
                        *keep_alive_ms as u64,
                        wire::kind_str(*kind).to_owned(),
                        Some(*prewarm_load),
                    )),
                    other => panic!("{app}: unexpected reply {other:?}"),
                }
            }
            i = merged.len().min(i + 29);
        }
        use_json = !use_json;
    }
}

fn assert_streams_match_offline(
    label: &str,
    online: &HashMap<String, Vec<Observed>>,
    per_app: &HashMap<String, Vec<u64>>,
    offline_fn: impl Fn(&[u64]) -> Vec<InvocationVerdict>,
) {
    for (app, events) in per_app {
        let offline = offline_fn(events);
        let online_app = &online[app];
        assert_eq!(online_app.len(), offline.len(), "{label}/{app}");
        for (i, (on, off)) in online_app.iter().zip(&offline).enumerate() {
            assert_eq!(on.0, off.cold, "{label}/{app} invocation {i}: cold");
            assert!(
                off.windows.pre_warm_ms < u32::MAX as u64
                    && off.windows.keep_alive_ms < u32::MAX as u64,
                "{label}/{app}: windows exceed the u32 wire range"
            );
            assert_eq!(
                (on.1, on.2),
                (off.windows.pre_warm_ms, off.windows.keep_alive_ms),
                "{label}/{app} invocation {i}: windows"
            );
            assert_eq!(
                on.3,
                wire::kind_str(off.kind),
                "{label}/{app} invocation {i}: kind"
            );
            if let Some(prewarm_load) = on.4 {
                assert_eq!(
                    prewarm_load, off.prewarm_load,
                    "{label}/{app} invocation {i}: prewarm_load"
                );
            }
        }
    }
}

/// The ISSUE-3 acceptance test: JSON and SITW-BIN verdict streams are
/// bit-identical to the offline simulator, for the fixed and production
/// policies, across a snapshot/restore that changes the shard count.
/// Both protocols interleave on the same servers (blocks of 17 JSON
/// requests and 29-record binary frames), so the merged stream proves
/// the two paths drive the exact same policy state.
#[test]
fn bin_and_json_streams_match_offline_for_fixed_and_production_across_restore() {
    // Fixed keep-alive over the one-day workload.
    run_mixed_protocol_case(
        "fixed",
        || PolicySpec::fixed_minutes(10),
        workload(),
        |events| {
            let mut policy = FixedKeepAlive::minutes(10);
            verdict_trace(events, &mut policy)
        },
    );
    // Production manager (§6) over the multi-day workload, so daily
    // rotation, retention, and backup clocks cross the restore too.
    run_mixed_protocol_case(
        "production",
        || PolicySpec::Production(ProductionConfig::default()),
        multiday_workload(),
        |events| {
            let mut manager = ProductionManager::new(ProductionConfig::default());
            let mut state = ProductionApp::new(manager.config());
            production_verdict_trace(events, &mut manager, &mut state)
        },
    );
}

fn run_mixed_protocol_case(
    label: &str,
    spec: impl Fn() -> PolicySpec,
    (merged, per_app): Workload,
    offline_fn: impl Fn(&[u64]) -> Vec<InvocationVerdict>,
) {
    let half = merged.len() / 2;
    let dir = std::env::temp_dir().join(format!("sitw-serve-bin-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("state.snapshot");

    // Phase 1: first half against a 2-shard server.
    let server_a = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: spec(),
        snapshot_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut online: HashMap<String, Vec<Observed>> = HashMap::new();
    replay_mixed(server_a.addr(), &merged[..half], &mut online);
    server_a.shutdown().unwrap();

    // Phase 2: the rest against a 5-shard server restored from the
    // snapshot — both protocols must continue the exact streams.
    let server_b = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 5,
        policy: spec(),
        restore_path: Some(snap_path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    replay_mixed(server_b.addr(), &merged[half..], &mut online);

    // The binary path really ran: frames were served on both servers.
    let proto = server_b.metrics().proto;
    assert!(proto.frames > 0, "{label}: no frames served after restore");
    assert!(proto.batched_decisions > 0, "{label}");
    assert_eq!(proto.proto_errors, 0, "{label}");

    server_b.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_streams_match_offline(label, &online, &per_app, offline_fn);
}

/// Regression: one request header declaring a huge `Content-Length`
/// used to tear the connection down silently (and before that, could
/// drive a matching allocation); now it gets `413 Payload Too Large`.
#[test]
fn oversized_body_declaration_gets_413() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .send(b"POST /invoke HTTP/1.1\r\ncontent-length: 1099511627776\r\n\r\n")
        .unwrap();
    // Stream some of the declared body too: the server must drain it
    // before closing, so the 413 arrives as data + FIN, not an RST that
    // would make these reads fail with ECONNRESET.
    client.send(&vec![b'x'; 256 * 1024]).unwrap();
    let (status, body) = client.response().unwrap();
    assert_eq!(status, 413, "{body}");
    assert!(client
        .conn()
        .reply_raw()
        .starts_with(b"HTTP/1.1 413 Payload Too Large\r\n"));
    assert!(body.contains("payload too large"), "{body}");
    // The server closes after.
    assert!(matches!(client.conn().read_reply().unwrap(), Reply::Eof));
    server.shutdown().unwrap();
}

#[test]
fn health_metrics_and_rejections() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (status, body) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""));
    assert!(body.contains("\"shards\":2"));
    assert!(body.contains("fixed-10min"));

    // Malformed body and unknown path.
    let (status, _) = client.request("POST", "/invoke", "not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("DELETE", "/metrics", "").unwrap();
    assert_eq!(status, 405);

    // Out-of-order timestamps are a 409 with the last accepted ts.
    assert_eq!(client.invoke(None, "a", 1_000_000, None).unwrap().0, 200);
    let (status, body) = client.invoke(None, "a", 500_000, None).unwrap();
    assert_eq!(status, 409);
    assert!(body.contains("\"last_ts\":1000000"), "{body}");

    // Metrics text includes per-shard counters and latency quantiles.
    let (status, text) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("sitw_serve_invocations_total{shard=\"0\"}"));
    assert!(text.contains("sitw_serve_out_of_order_total"));
    assert!(text.contains("quantile=\"0.99\""));

    server.shutdown().unwrap();
}

#[test]
fn admin_shutdown_stops_the_server() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.invoke(None, "a", 0, None).unwrap().0, 200);
    let (status, body) = client.request("POST", "/admin/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("stopping"));
    server.wait(); // Returns because the flag is now set.
    let snapshot = server.shutdown().unwrap();
    assert_eq!(snapshot.apps.len(), 1);
    assert_eq!(snapshot.apps[0].app, "a");
}

#[test]
fn pipelined_requests_get_ordered_responses() {
    // Send a burst of pipelined requests on one connection and check
    // responses come back in order (sequence numbers make cold/warm
    // positions deterministic: first "p" invocation cold, rest warm).
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let n = 200u64;
    let mut batch = Vec::new();
    for i in 0..n {
        let body = format!("{{\"app\":\"p\",\"ts\":{}}}", i * 1_000);
        sitw_serve::http::write_request(&mut batch, "POST", "/invoke", None, body.as_bytes())
            .unwrap();
    }
    client.send(&batch).unwrap();
    let responses: Vec<String> = (0..n).map(|_| client.response().unwrap().1).collect();
    assert!(responses[0].contains("\"verdict\":\"cold\""));
    for (i, r) in responses[1..].iter().enumerate() {
        assert!(
            r.contains("\"verdict\":\"warm\""),
            "response {}: {r}",
            i + 1
        );
    }
    server.shutdown().unwrap();
}
