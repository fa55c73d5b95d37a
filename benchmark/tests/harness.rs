//! Harness tests that need more than one module: input determinism,
//! the oracle fast path against the repo's fleet oracle, the
//! `BENCHMARK.json` ↔ harness contract, and a scaled-down smoke run of
//! all four workloads through `benchmark/run` (which builds the release
//! binaries on first use).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use sitw_benchmark::client::{encode_request, Names, Proto};
use sitw_benchmark::inputs::{self, app_name, InputSpec, Inputs};
use sitw_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sitw_fleet::{fleet_verdict_trace, FleetEvent};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn small(tenants: usize) -> InputSpec {
    InputSpec {
        apps: 120,
        cap_per_day: 60.0,
        warm_days: 2,
        timed_days: 3,
        max_timed_events: 20_000,
        quality_events: 5_000,
        tenants,
        zipf: 1.0,
        budget_share: if tenants > 0 { 0.7 } else { 0.0 },
    }
}

/// Every byte the programs under test would receive, in send order.
fn wire_bytes(inputs: &Inputs, apps: usize) -> Vec<u8> {
    let names = Names::new(apps);
    let mut out = Vec::new();
    for s in inputs.warm.iter().chain(&inputs.timed) {
        for lo in (0..s.events.len()).step_by(16) {
            let hi = (lo + 16).min(s.events.len());
            encode_request(
                Proto::Bin {
                    batch: 16,
                    in_flight: 1,
                },
                &mut out,
                s,
                &names,
                lo,
                hi,
            );
        }
        for i in 0..s.events.len().min(200) {
            encode_request(Proto::Json { window: 1 }, &mut out, s, &names, i, i + 1);
        }
    }
    out
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for tenants in [0, 4] {
        let spec = small(tenants);
        let a = inputs::generate(&spec, 11);
        let b = inputs::generate(&spec, 11);
        let c = inputs::generate(&spec, 12);
        assert!(a.timed_len() > 1_000 && a.warm_len() > 1_000);
        assert_eq!(wire_bytes(&a, spec.apps), wire_bytes(&b, spec.apps));
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.quality, b.quality);
        for (x, y) in a.timed.iter().zip(&b.timed) {
            assert_eq!(x.expect_bin, y.expect_bin, "expected replies repeat too");
        }
        assert_ne!(wire_bytes(&a, spec.apps), wire_bytes(&c, spec.apps));
    }
}

#[test]
fn schedules_keep_apps_and_tenants_on_one_ordered_connection() {
    let spec = small(4);
    let inputs = inputs::generate(&spec, 5);
    let mut owner = std::collections::HashMap::new();
    for (conn, (w, t)) in inputs.warm.iter().zip(&inputs.timed).enumerate() {
        let all: Vec<_> = w.events.iter().chain(&t.events).collect();
        assert!(
            all.windows(2).all(|p| p[0].ts <= p[1].ts),
            "connection {conn} is time-ordered"
        );
        for e in all {
            assert_eq!(
                *owner.entry(e.tenant).or_insert(conn),
                conn,
                "tenant {} on two connections",
                e.tenant
            );
        }
        assert_eq!(t.expect.len(), t.events.len());
        assert_eq!(
            t.expect_bin.len(),
            t.events.len() * sitw_serve::wire::REPLY_RECORD_LEN
        );
    }
    let prefix: usize = inputs.quality_per_conn.iter().sum();
    assert_eq!(prefix, inputs.quality.events);
}

/// The harness splits the oracle into per-tenant jobs and replays
/// unbudgeted streams app by app; the answers must be exactly what the
/// repo's own fleet oracle gives for the merged stream.
#[test]
fn expected_replies_equal_the_fleet_oracle() {
    for tenants in [0, 4] {
        let spec = small(tenants);
        let inputs = inputs::generate(&spec, 21);
        if tenants > 0 {
            assert!(
                inputs.tenants[1..].iter().all(|(_, b)| *b > 0),
                "{:?}",
                inputs.tenants
            );
            assert!(
                inputs.branches.evicted > 0,
                "budgets must bite in the test input"
            );
        }
        // Any interleaving of the connections that keeps each one's
        // order is a valid serialisation: tenants and apps never span
        // connections. Take them one after the other.
        for (w, t) in inputs.warm.iter().zip(&inputs.timed) {
            let events: Vec<FleetEvent> = w
                .events
                .iter()
                .chain(&t.events)
                .map(|e| FleetEvent {
                    tenant: e.tenant,
                    app: app_name(e.app),
                    ts: e.ts,
                })
                .collect();
            let oracle = fleet_verdict_trace(&events, &inputs.registry());
            let mine = w.expect.iter().chain(&t.expect);
            for (i, (got, want)) in mine.zip(&oracle).enumerate() {
                let v = want.as_ref().expect("no out-of-order events are generated");
                let want =
                    inputs::Expect::new(v.cold, v.prewarm_load, v.evicted, v.kind, v.windows);
                assert_eq!(*got, want, "event {i} ({tenants} tenants)");
            }
        }
    }
}

#[test]
fn benchmark_json_is_what_the_harness_declares() {
    let on_disk = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `benchmark/run --print-benchmark-json`"
    );
    assert_eq!(WORKLOADS.len(), 4);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS)
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for w in WORKLOADS {
        assert!(spec::workload(w).is_some());
    }
}

/// Runs `benchmark/run` and returns (exit ok, last stdout line).
fn run_script(args: &[&str]) -> (bool, String) {
    let out = Command::new("bash")
        .arg("benchmark/run")
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    if !out.status.success() {
        eprintln!("{}\n{}", stdout, String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), last)
}

#[test]
fn smoke_all_workloads_at_one_hundredth_scale() {
    // Untimed: make sure the release binaries exist.
    let (ok, _) = run_script(&["--print-benchmark-json"]);
    assert!(ok, "benchmark/run builds");
    let t0 = Instant::now();
    for (trace, set) in [("0", END_TO_END), ("1", PER_LAYER)] {
        for w in WORKLOADS {
            let (ok, line) = run_script(&[
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "15",
                "--trace",
                trace,
                "--scale",
                "0.01",
            ]);
            assert!(ok, "{w} --trace {trace} exits 0");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {line}"
            );
            assert!(
                line.contains("\"failed\": 0, \"metrics\": {"),
                "{w}: {line}"
            );
            for m in set {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                    "{w} lacks {}: {line}",
                    m.name
                );
            }
            assert_eq!(
                line.matches("\"value\"").count(),
                set.len(),
                "{w}: only the declared metrics"
            );
            if trace == "0" {
                for m in END_TO_END {
                    assert!(
                        !line.contains(&format!("\"{}\": {{\"value\": 0.0,", m.name)),
                        "{w}: {} is 0",
                        m.name
                    );
                }
            }
        }
        if trace == "0" {
            let plain = t0.elapsed().as_secs_f64();
            assert!(plain < 10.0, "the four plain smoke runs took {plain:.1}s");
        }
    }
    assert!(repo_root()
        .join("benchmark/out/json-direct.trace.jsonl")
        .is_file());
    // No scratch directory survives a run.
    let leftovers: Vec<_> = std::fs::read_dir(repo_root().join("benchmark/out"))
        .expect("out dir exists")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}
