//! The serving subsystem end to end, in process: start the sharded
//! decision daemon, replay a small synthetic workload through it with
//! the closed-loop load generator — over JSON/HTTP *and* over the
//! batched SITW-BIN binary protocol — scrape `/metrics` (including the
//! frame counters), and shut down gracefully.
//!
//! Run with: `cargo run --release --example serve_quickstart`
//!
//! The same flow works across processes with the binaries:
//!
//! ```text
//! cargo run --release --bin sitw-serve    -- --shards 4 --policy hybrid
//! cargo run --release --bin sitw-loadgen  -- --addr 127.0.0.1:7071
//! cargo run --release --bin sitw-loadgen  -- --addr 127.0.0.1:7071 \
//!     --proto bin:batch=64
//! curl -s  http://127.0.0.1:7071/metrics
//! curl -XPOST http://127.0.0.1:7071/admin/shutdown
//! ```

#![forbid(unsafe_code)]

use serverless_in_the_wild::prelude::*;

fn main() {
    // 1. The daemon: four shards, the paper's default policy.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        policy: PolicySpec::Hybrid(HybridConfig::default()),
        ..ServeConfig::default()
    })
    .expect("server start");
    println!("daemon on {} (4 shards, hybrid policy)", server.addr());

    // 2. Replay one synthetic day at maximum speed.
    let report = run_loadgen(
        &[server.addr()],
        &LoadGenConfig {
            apps: 300,
            horizon_ms: DAY_MS,
            cap_per_day: 500.0,
            connections: 2,
            window: 64,
            max_events: 50_000,
            ..LoadGenConfig::default()
        },
    )
    .expect("loadgen");
    println!("{}", report.summary());

    // 3. What the server saw, per shard.
    let metrics = server.metrics();
    for shard in &metrics.shards {
        let decide = shard.decide_ns.merged();
        let p99 = decide.quantile(0.99).map_or(0.0, |ns| ns / 1_000.0);
        println!(
            "shard {}: {} apps, {} invocations, {} cold, decision p99 {:.1} µs",
            shard.shard, shard.apps, shard.invocations, shard.cold, p99
        );
    }
    assert_eq!(metrics.invocations(), report.ok);

    // 4. Graceful shutdown returns the final state.
    let snapshot = server.shutdown().expect("shutdown");
    println!(
        "stopped; final state covers {} apps under policy {}",
        snapshot.apps.len(),
        snapshot.policy_label
    );

    // 5. The same replay over SITW-BIN frames (batch 64) on a fresh
    // daemon: the binary path end to end, with its frame counters.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 4,
        policy: PolicySpec::Hybrid(HybridConfig::default()),
        ..ServeConfig::default()
    })
    .expect("server start");
    let bin_report = run_loadgen(
        &[server.addr()],
        &LoadGenConfig {
            apps: 300,
            horizon_ms: DAY_MS,
            cap_per_day: 500.0,
            connections: 2,
            window: 128,
            max_events: 50_000,
            proto: Proto::Bin { batch: 64 },
            ..LoadGenConfig::default()
        },
    )
    .expect("bin loadgen");
    println!("SITW-BIN: {}", bin_report.summary());
    println!(
        "JSON {:.0}/s vs SITW-BIN(batch=64) {:.0}/s = {:.2}x",
        report.throughput,
        bin_report.throughput,
        bin_report.throughput / report.throughput
    );

    let metrics = server.metrics();
    println!(
        "frames {} | batched decisions {} | protocol errors {}",
        metrics.proto.frames, metrics.proto.batched_decisions, metrics.proto.proto_errors
    );
    assert_eq!(metrics.invocations(), bin_report.ok);
    assert!(metrics.proto.frames > 0, "binary path must serve frames");
    assert_eq!(metrics.proto.batched_decisions, bin_report.ok);
    assert_eq!(metrics.proto.proto_errors, 0);
    // The Prometheus rendering exposes the same counters.
    let text = metrics.render();
    assert!(text.contains("sitw_serve_frames_total"), "{text}");
    assert!(
        text.contains("sitw_serve_batched_decisions_total"),
        "{text}"
    );
    assert!(text.contains("sitw_serve_proto_errors_total"), "{text}");

    // 6. The flight-recorder telemetry riding the same report: exact
    // log2 histograms per pipeline stage (invocation-weighted, so every
    // stage's count equals decisions served) plus reactor introspection.
    for (stage, h) in metrics.stage_hists() {
        if let (Some(mean), Some(p99)) = (h.bin.mean(), h.bin.quantile(0.99)) {
            println!(
                "stage {stage:>6}: {:>6} decisions, mean {:>7.1} µs, p99 ≤ {:>7.1} µs",
                h.bin.count(),
                mean / 1_000.0,
                p99 / 1_000.0
            );
        }
    }
    for (i, r) in metrics.reactors.iter().enumerate() {
        println!(
            "reactor {i}: {} epoll_waits, {} wakeups, mean {:.1} events/wake",
            r.epoll_waits,
            r.wakeups,
            r.events_per_wake.mean().unwrap_or(0.0)
        );
    }
    let (name, decide) = &metrics.stage_hists()[3];
    assert_eq!(*name, "decide");
    assert_eq!(
        decide.bin.count(),
        bin_report.ok,
        "decide stage must count every decision exactly once"
    );

    server.shutdown().expect("shutdown");
    println!("binary-protocol quickstart ok");
}
