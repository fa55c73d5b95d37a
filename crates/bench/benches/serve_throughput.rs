//! Serving throughput: decisions per second through the full loopback
//! wire path, measured by the closed-loop load generator at full speed.
//!
//! `CASES` is the whole bench: one row per shape, each a fresh daemon
//! (plus an in-process `sitw-router` in front of it, or a warm standby
//! pulling its replication stream) replaying `EVENTS` decisions. The
//! rows cover JSON/HTTP across shard counts, the §6 production manager,
//! SITW-BIN at batch 1/16/128, 256-connection fan-in, 4-tenant fleet
//! mode, and the routed and replicated shapes. Each row is timed for a
//! fixed 200 ms budget (`measure`) and prints its mean dec/s and sample
//! count. With `SITW_BENCH_JSON=path` the means are also written as a
//! JSON array of `{proto, policy, shards, batch, tenants, conns,
//! dec_per_sec}` records in `CASES` order: the committed
//! `BENCH_serve.json` at the repo root is the latest trajectory point.
//!
//! The run then fails unless, in this order:
//! - json (4 shards) and bin batch=1 hold ≥ 0.9× the committed
//!   `BENCH_serve.json`, read before this run refreshes it (skipped,
//!   with a message, when the file or the record is absent);
//! - SITW-BIN at batch ≥ 16 sustains ≥ 1.5× the json rate. A json
//!   read burst and a frame both take each shard's lock once, so the
//!   floor bounds what framing still amortizes: HTTP framing, JSON
//!   parse/render and ~10× the bytes per decision;
//! - 4-tenant json holds ≥ 0.8× single-tenant json (the ledger must not
//!   eat the serving path);
//! - json and bin batch=128 with a warm standby hold ≥ 0.9× the
//!   no-follower rate (replication export never pauses shards);
//! - json and bin batch=128 with telemetry on hold ≥ 0.95× an in-run
//!   `telemetry: false` measurement.
//!
//! Every gate but the 1.5× one re-measures on a shortfall (`gate`):
//! shared-box noise swings absolute rates by tens of percent, so only a
//! shortfall that reproduces counts. The routed rows are trajectory
//! points only; the routed figure of record is the repo benchmark's
//! `routed-fleet` workload (`BENCHMARK.json`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sitw_cluster::{Router, RouterConfig};
use sitw_core::{HybridConfig, ProductionConfig};
use sitw_serve::{
    run_loadgen, FollowConfig, LoadGenConfig, Proto, ServeConfig, Server, TenantConfig,
};
use sitw_sim::PolicySpec;
use sitw_trace::DAY_MS;

/// Decisions replayed per measured call.
const EVENTS: usize = 20_000;

/// Wall-clock budget per case, after its warm-up call.
const BUDGET: Duration = Duration::from_millis(200);

/// Re-measurements a retrying gate makes on a shortfall, at most.
const RETRIES: usize = 4;

/// SITW-BIN at batch ≥ 16 vs json, same shards.
const GATE_RATIO: f64 = 1.5;

/// 4-tenant fleet mode vs single-tenant, same shards and protocol.
const TENANT_GATE_RATIO: f64 = 0.8;

/// Telemetry on vs off, same shape, same run.
const TELEM_GATE_RATIO: f64 = 0.95;

/// In-run json and bin batch=1 vs the committed baseline.
const BASELINE_RATIO: f64 = 0.9;

/// A warm standby pulling the replication stream vs no follower.
const REPL_GATE_RATIO: f64 = 0.9;

/// Connections in the baseline-shaped cases.
const BASE_CONNS: usize = 2;

/// What sits between the load generator and the measured node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// The load generator talks to the node.
    Direct,
    /// An in-process `sitw-router` with the node as its one slot.
    Routed,
    /// The node, with a warm standby pulling its replication stream.
    Replicated,
}

/// One measured shape; its fields but `topology` are its record's key.
struct Case {
    /// The record's `proto`: `json…` cases speak JSON/HTTP, `bin…` ones
    /// SITW-BIN frames of `batch`.
    label: &'static str,
    /// `hybrid` or `production`.
    policy: &'static str,
    shards: usize,
    batch: usize,
    tenants: usize,
    conns: usize,
    topology: Topology,
}

use Topology::{Direct, Replicated, Routed};

#[rustfmt::skip]
const CASES: &[Case] = &[
    Case { label: "json", policy: "hybrid", shards: 1, batch: 1, tenants: 0, conns: 2, topology: Direct },
    Case { label: "json", policy: "hybrid", shards: 2, batch: 1, tenants: 0, conns: 2, topology: Direct },
    Case { label: "json", policy: "hybrid", shards: 4, batch: 1, tenants: 0, conns: 2, topology: Direct },
    Case { label: "json", policy: "production", shards: 4, batch: 1, tenants: 0, conns: 2, topology: Direct },
    Case { label: "bin", policy: "hybrid", shards: 4, batch: 1, tenants: 0, conns: 2, topology: Direct },
    Case { label: "bin", policy: "hybrid", shards: 4, batch: 16, tenants: 0, conns: 2, topology: Direct },
    Case { label: "bin", policy: "hybrid", shards: 4, batch: 128, tenants: 0, conns: 2, topology: Direct },
    Case { label: "json", policy: "hybrid", shards: 4, batch: 1, tenants: 0, conns: 256, topology: Direct },
    Case { label: "bin", policy: "hybrid", shards: 4, batch: 16, tenants: 0, conns: 256, topology: Direct },
    Case { label: "json", policy: "hybrid", shards: 4, batch: 1, tenants: 4, conns: 2, topology: Direct },
    Case { label: "bin", policy: "hybrid", shards: 4, batch: 128, tenants: 4, conns: 2, topology: Direct },
    Case { label: "json-routed", policy: "hybrid", shards: 4, batch: 1, tenants: 0, conns: 2, topology: Routed },
    Case { label: "bin-routed", policy: "hybrid", shards: 4, batch: 128, tenants: 0, conns: 2, topology: Routed },
    Case { label: "json-repl", policy: "hybrid", shards: 4, batch: 1, tenants: 0, conns: 2, topology: Replicated },
    Case { label: "bin-repl", policy: "hybrid", shards: 4, batch: 128, tenants: 0, conns: 2, topology: Replicated },
];

impl Case {
    fn policy(&self) -> PolicySpec {
        if self.policy == "production" {
            PolicySpec::Production(ProductionConfig::default())
        } else {
            PolicySpec::Hybrid(HybridConfig::default())
        }
    }

    fn proto(&self) -> Proto {
        if self.label.starts_with("bin") {
            Proto::Bin { batch: self.batch }
        } else {
            Proto::Json
        }
    }

    /// The record as written up to its rate, so a committed record is
    /// found by its prefix.
    fn key(&self) -> String {
        format!(
            "{{\"proto\": \"{}\", \"policy\": \"{}\", \"shards\": {}, \"batch\": {}, \
             \"tenants\": {}, \"conns\": {}, \"dec_per_sec\": ",
            self.label, self.policy, self.shards, self.batch, self.tenants, self.conns
        )
    }
}

/// The 4-shard hybrid case of `label`, `batch`, `tenants` and `conns`.
fn find(label: &str, batch: usize, tenants: usize, conns: usize) -> usize {
    CASES
        .iter()
        .position(|c| {
            (c.label, c.policy, c.shards, c.batch, c.tenants, c.conns)
                == (label, "hybrid", 4, batch, tenants, conns)
        })
        .expect("gated case is in CASES")
}

/// One replay of `EVENTS` decisions against a fresh daemon (policy
/// state is cumulative and timestamps must stay monotone): its dec/s.
fn run(case: &Case, telemetry: bool) -> f64 {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: case.shards,
        policy: case.policy(),
        tenants: (0..case.tenants)
            .map(|k| TenantConfig {
                name: format!("t{k}"),
                policy: case.policy(),
                budget_mb: 0,
            })
            .collect(),
        telemetry,
        ..ServeConfig::default()
    })
    .expect("server start");
    let follower = (case.topology == Replicated).then(|| {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: case.shards,
            policy: case.policy(),
            follow: Some(FollowConfig {
                primary_addr: server.addr().to_string(),
                pull_interval: Duration::from_millis(25),
            }),
            ..ServeConfig::default()
        })
        .expect("follower start")
    });
    let router = (case.topology == Routed).then(|| {
        Router::start(RouterConfig {
            addr: "127.0.0.1:0".into(),
            nodes: vec![server.addr().to_string()],
            ..RouterConfig::default()
        })
        .expect("router start")
    });
    let target = router.as_ref().map_or(server.addr(), Router::addr);
    let cfg = LoadGenConfig {
        // One connection per active app at most: the high-fan-in cases
        // need comfortably more apps than connections to drive them all.
        apps: 300.max(3 * case.conns),
        seed: 42,
        horizon_ms: DAY_MS,
        cap_per_day: 1_000.0,
        connections: case.conns,
        window: 128,
        max_events: EVENTS,
        proto: case.proto(),
        tenants: case.tenants,
        zipf: if case.tenants > 0 { 1.0 } else { 0.0 },
        trace_sample: 0,
    };
    let report = run_loadgen(&[target], &cfg).expect("loadgen");
    assert_eq!(report.ok, EVENTS as u64, "{}: lost responses", case.label);
    if case.conns > BASE_CONNS {
        assert!(
            report.max_live_conns >= case.conns.min(250) as u64,
            "high-fan-in case must actually drive ~{} connections (drove {})",
            case.conns,
            report.max_live_conns
        );
    }
    if case.tenants > 0 {
        let served: u64 = report.per_tenant.iter().map(|t| t.ok).sum();
        assert_eq!(served, EVENTS as u64, "every decision tenant-attributed");
    }
    if let Some(router) = router {
        router.shutdown();
    }
    if let Some(follower) = follower {
        follower.shutdown().expect("follower shutdown");
    }
    server.shutdown().expect("shutdown");
    report.throughput
}

/// The case's mean dec/s over one warm-up call, then calls until
/// `BUDGET` has passed. The warm-up's rate counts too, as it does in
/// every committed `BENCH_serve.json`.
fn measure(case: &Case) -> f64 {
    let mut samples = vec![run(case, true)];
    let start = Instant::now();
    while samples.len() == 1 || start.elapsed() < BUDGET {
        samples.push(run(case, true));
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "{:<12} {:<10} shards={} batch={:<3} tenants={} conns={:<3} {mean:>9.0} dec/s ({} samples)",
        case.label,
        case.policy,
        case.shards,
        case.batch,
        case.tenants,
        case.conns,
        samples.len()
    );
    mean
}

/// Prints the gate's line and fails the run if `num / den` is under
/// `floor`.
fn check(name: &str, floor: f64, (num, den): (f64, f64)) {
    let ratio = num / den;
    println!("gate: {name} {num:.0} vs {den:.0} dec/s = {ratio:.2}x (floor {floor}x)");
    assert!(
        ratio >= floor,
        "perf gate failed: {name} must hold >= {floor}x ({num:.0} vs {den:.0} dec/s)"
    );
}

/// A retrying gate: while `first`'s ratio is under `floor`, re-measures
/// a `(num, den)` pair with `pair` (both sides back to back) up to
/// `RETRIES` times, then checks the best paired ratio. Never the best of
/// each side: that only raises the bar with every retry.
fn gate(name: &str, floor: f64, first: (f64, f64), mut pair: impl FnMut() -> (f64, f64)) {
    let mut best = first;
    for retry in 1..=RETRIES {
        if best.0 / best.1 >= floor {
            break;
        }
        let (num, den) = pair();
        println!(
            "gate: {name} retry {retry}: {num:.0} vs {den:.0} dec/s = {:.2}x",
            num / den
        );
        if num / den > best.0 / best.1 {
            best = (num, den);
        }
    }
    check(name, floor, best);
}

/// Workspace-root-anchored path (cargo runs benches from the package
/// dir).
fn workspace_path(path: &str) -> PathBuf {
    if Path::new(path).is_absolute() {
        PathBuf::from(path)
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }
}

fn main() {
    // Read the committed baseline before this run refreshes the file.
    let baseline = std::fs::read_to_string(workspace_path("BENCH_serve.json")).unwrap_or_default();
    let means: Vec<f64> = CASES.iter().map(measure).collect();

    if let Ok(path) = std::env::var("SITW_BENCH_JSON") {
        let path = workspace_path(&path);
        let records: Vec<String> = CASES
            .iter()
            .zip(&means)
            .map(|(case, mean)| format!("  {}{mean:.0}}}", case.key()))
            .collect();
        let json = format!("[\n{}\n]\n", records.join(",\n"));
        std::fs::write(&path, json).expect("write SITW_BENCH_JSON");
        println!("wrote {} ({} cases)", path.display(), CASES.len());
    }

    let json_4 = find("json", 1, 0, BASE_CONNS);
    for (label, batch) in [("json", 1), ("bin", 1)] {
        let i = find(label, batch, 0, BASE_CONNS);
        let committed = baseline
            .lines()
            .find_map(|line| line.trim().strip_prefix(CASES[i].key().as_str()))
            .and_then(|rest| rest.trim_end_matches([',', '}']).trim().parse::<f64>().ok());
        let name = format!("{label} batch={batch} vs committed baseline");
        match committed {
            Some(before) => gate(&name, BASELINE_RATIO, (means[i], before), || {
                (run(&CASES[i], true), before)
            }),
            None => println!("gate: no committed baseline for {label} batch={batch}; skipped"),
        }
    }

    let bin_best = CASES
        .iter()
        .zip(&means)
        .filter(|(c, _)| {
            c.label == "bin" && c.batch >= 16 && c.tenants == 0 && c.conns == BASE_CONNS
        })
        .map(|(_, &mean)| mean)
        .fold(0.0, f64::max);
    check(
        "bin(batch>=16) vs json",
        GATE_RATIO,
        (bin_best, means[json_4]),
    );

    let tenants = find("json", 1, 4, BASE_CONNS);
    gate(
        "json 4-tenant vs single-tenant",
        TENANT_GATE_RATIO,
        (means[tenants], means[json_4]),
        || {
            let single = run(&CASES[json_4], true);
            (run(&CASES[tenants], true), single)
        },
    );

    for (label, batch) in [("json", 1), ("bin", 128)] {
        let direct = find(label, batch, 0, BASE_CONNS);
        let repl = find(&format!("{label}-repl"), batch, 0, BASE_CONNS);
        gate(
            &format!("{label}-repl vs direct"),
            REPL_GATE_RATIO,
            (means[repl], means[direct]),
            || {
                let direct = run(&CASES[direct], true);
                (run(&CASES[repl], true), direct)
            },
        );
    }

    for (label, batch) in [("json", 1), ("bin", 128)] {
        let i = find(label, batch, 0, BASE_CONNS);
        let off = run(&CASES[i], false);
        gate(
            &format!("{label} batch={batch} telemetry on vs off"),
            TELEM_GATE_RATIO,
            (means[i], off),
            || (run(&CASES[i], true), run(&CASES[i], false)),
        );
    }
}
