//! The benchmark's fixed vocabulary: the workloads, and every metric
//! with its unit and direction. `BENCHMARK.json` at the repo root lists
//! the same names (a test compares the two), and the output of a run
//! carries exactly the end-to-end set (`--trace 0`) or the per-layer set
//! (`--trace 1`).

use crate::client::Proto;
use crate::inputs::InputSpec;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// One metric's name, unit and which way is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change is a regression. Per-layer
    /// metrics have none (0).
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const fn e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e("decisions_per_s", "1/s", "higher", 0.25),
    e("cpu_us_per_decision", "us", "lower", 0.25),
    e("peak_rss_mb", "MB", "lower", 0.15),
    e("setup_s", "s", "lower", 0.25),
    e("cold_start_pct_p75", "%", "lower", 0.25),
    e("wasted_mem_norm_pct", "%", "lower", 0.05),
];

/// Single-layer figures from the traced run. A metric that does not
/// apply to a workload (router figures on a direct workload) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("traced.decisions_per_s", "1/s", "higher"),
    m("trace.gen_ns_per_event", "ns", "lower"),
    m("trace.events_total", "count", "lower"),
    m("wire.json_parse_ns_per_req", "ns", "lower"),
    m("wire.json_render_ns_per_reply", "ns", "lower"),
    m("wire.bin_decode_ns_per_record", "ns", "lower"),
    m("wire.bin_encode_ns_per_record", "ns", "lower"),
    m("wire.req_bytes_per_decision", "B", "lower"),
    m("wire.reply_bytes_per_decision", "B", "lower"),
    m("http.read_request_ns_per_req", "ns", "lower"),
    m("http.write_response_ns_per_reply", "ns", "lower"),
    m("reactor.cpu_us_per_decision", "us", "lower"),
    m("reactor.epoll_waits_per_decision", "count", "lower"),
    m("reactor.wakeups_per_decision", "count", "lower"),
    m("reactor.wake_rtt_ns", "ns", "lower"),
    m("reactor.backpressure_pauses", "count", "lower"),
    m("shard.cpu_us_per_decision", "us", "lower"),
    m("shard.invoke_ns_per_decision", "ns", "lower"),
    m("shard.invoke_batch_ns_per_decision", "ns", "lower"),
    m("shard.mailbox_rtt_ns", "ns", "lower"),
    m("shard.mailbox_peak", "count", "lower"),
    m("core.decide_histogram_ns", "ns", "lower"),
    m("core.decide_standard_ns", "ns", "lower"),
    m("core.decide_arima_ns", "ns", "lower"),
    m("core.branch_histogram_pct", "%", "higher"),
    m("core.branch_standard_pct", "%", "lower"),
    m("core.branch_arima_pct", "%", "lower"),
    m("arima.fit_us", "us", "lower"),
    m("fleet.ledger_charge_ns", "ns", "lower"),
    m("fleet.evictions_total", "count", "lower"),
    m("snapshot.encode_ns_per_app", "ns", "lower"),
    m("snapshot.decode_ns_per_app", "ns", "lower"),
    m("snapshot.bytes_per_app", "B", "lower"),
    m("repl.delta_encode_ns_per_app", "ns", "lower"),
    m("repl.apply_ns_per_app", "ns", "lower"),
    m("repl.bytes_per_decision", "B", "lower"),
    m("repl.rounds_total", "count", "higher"),
    m("repl.lag_ms_max", "ms", "lower"),
    m("follow.cpu_us_per_decision", "us", "lower"),
    m("router.cpu_us_per_decision", "us", "lower"),
    m("router.ring_lookup_ns", "ns", "lower"),
    m("router.subframes_per_frame", "count", "lower"),
    m("router.threads_peak", "count", "lower"),
    m("telemetry.hist_record_ns", "ns", "lower"),
    m("node.stage_read_p50_ns", "ns", "lower"),
    m("node.stage_decode_p50_ns", "ns", "lower"),
    m("node.stage_queue_p50_ns", "ns", "lower"),
    m("node.stage_decide_p50_ns", "ns", "lower"),
    m("node.stage_render_p50_ns", "ns", "lower"),
    m("node.stage_write_p50_ns", "ns", "lower"),
    m("sim.replay_ns_per_event", "ns", "lower"),
    m("sim.verdict_trace_ns_per_event", "ns", "lower"),
    m("client.cpu_us_per_decision", "us", "lower"),
    m("client.rtt_p50_us", "us", "lower"),
    m("client.rtt_p99_us", "us", "lower"),
    m("client.late_pct", "%", "lower"),
    m("paced.cpu_us_per_decision", "us", "lower"),
    m("attrib.residual_pct", "%", "lower"),
];

/// How the programs under test are arranged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `sitw-serve` node, the client talks to it directly.
    Direct,
    /// `sitw-router` in front of two nodes, plus a `--follow` warm
    /// standby pulling node 0's replication stream.
    Routed,
}

/// One server workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerWorkload {
    /// What to generate.
    pub input: InputSpec,
    /// How it goes on the wire in the measured phases.
    pub proto: Proto,
    /// Process arrangement.
    pub topology: Topology,
    /// Offered load of the traced run's open-loop phase, decisions/s:
    /// about an eighth of saturation on the host the benchmark was sized
    /// on.
    pub paced_decisions_per_s: f64,
}

/// The offline workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepWorkload {
    /// Applications in the population.
    pub apps: usize,
    /// Per-app daily event cap.
    pub cap_per_day: f64,
    /// Trace horizon in days (the paper's simulations use one week).
    pub days: u64,
}

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Served by child processes.
    Server(ServerWorkload),
    /// `sitw_sim::run_sweep` in process.
    Sweep(SweepWorkload),
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["json-direct", "bin-batch", "routed-fleet", "sim-sweep"];

/// Why each workload exists, one line each (`BENCHMARK.json`'s `why`).
pub const WHY: [&str; 4] = [
    "one node, one JSON/HTTP request per decision, state in cache: http, JSON codec, reactor syscalls and the mailbox hop dominate",
    "one node, SITW-BIN frames of 128, 12k apps under tenant budgets: codec amortised, core decide, shard batch and fleet ledger dominate",
    "router in front of two nodes plus a warm standby: the only workload that runs cluster routing and replication export",
    "no sockets: sitw_sim::run_sweep of four policies over 4k apps x 7 days, the control every serving-path change must leave unchanged",
];

/// The text of `BENCHMARK.json`, generated from the tables here so the
/// file and the harness cannot drift apart (a test compares them).
pub fn benchmark_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    out.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    for (i, (name, why)) in WORKLOADS.iter().zip(WHY).enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            d.name, d.unit, d.better, d.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            d.name, d.unit, d.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Looks a workload up. Sizes are fixed here (never derived from
/// `--seconds`): event counts are chosen so that today's build cannot
/// drain the timed stream inside the default run length, with room for
/// a faster one.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // Smallest message, state in cache: http, the JSON codec,
        // reactor syscalls and the per-request mailbox hop do the work.
        "json-direct" => Workload::Server(ServerWorkload {
            input: InputSpec {
                apps: 2_000,
                cap_per_day: 300.0,
                warm_days: 7,
                timed_days: 28,
                max_timed_events: 7_000_000,
                quality_events: 2_500_000,
                tenants: 0,
                zipf: 0.0,
                budget_share: 0.0,
            },
            proto: Proto::Json { window: 64 },
            topology: Topology::Direct,
            paced_decisions_per_s: 20_000.0,
        }),
        // Codec and syscalls amortised 128x, working set past the
        // caches, budgets biting: core decide, shard::invoke_batch and
        // the fleet ledger dominate.
        "bin-batch" => Workload::Server(ServerWorkload {
            input: InputSpec {
                apps: 12_000,
                cap_per_day: 40.0,
                warm_days: 4,
                timed_days: 32,
                max_timed_events: 17_000_000,
                quality_events: 3_000_000,
                tenants: 4,
                zipf: 1.0,
                budget_share: 0.7,
            },
            proto: Proto::Bin {
                batch: 128,
                in_flight: 1,
            },
            topology: Topology::Direct,
            paced_decisions_per_s: 80_000.0,
        }),
        // The only workload where the router's route/forward/await/
        // reassemble and the dirty-chunk replication export run.
        "routed-fleet" => Workload::Server(ServerWorkload {
            input: InputSpec {
                apps: 8_000,
                cap_per_day: 60.0,
                warm_days: 7,
                timed_days: 28,
                max_timed_events: 8_000_000,
                quality_events: 2_500_000,
                tenants: 4,
                zipf: 1.0,
                budget_share: 0.7,
            },
            proto: Proto::Bin {
                batch: 16,
                in_flight: 8,
            },
            topology: Topology::Routed,
            paced_decisions_per_s: 30_000.0,
        }),
        // No sockets: the offline use of the same core policy plus
        // trace generation and the sim engine; the control on which
        // every serving-path change must read unchanged.
        "sim-sweep" => Workload::Sweep(SweepWorkload {
            apps: 4_000,
            cap_per_day: 600.0,
            days: 7,
        }),
        _ => return None,
    })
}
