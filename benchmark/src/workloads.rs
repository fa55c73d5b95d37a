//! One benchmark run: set the programs under test up from a warm
//! snapshot, drive them, check every reply, and turn what was observed
//! into the named metrics.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sitw_core::{HybridConfig, PolicySpec, ProductionConfig};
use sitw_trace::{
    build_population, generate_trace, Population, PopulationConfig, TraceConfig, DAY_MS,
};

use crate::calib;
use crate::client::{self, closed_loop, Names, Outcome, PhaseShared, Proto, StopRule};
use crate::inputs::{self, Inputs, CONNECTIONS};
use crate::probes;
use crate::procfs;
use crate::span::{self, Recorder};
use crate::spec::{ServerWorkload, SweepWorkload, Topology, Workload};
use crate::stats::{self, Window};
use crate::sut::{self, Proc, Workdir};

/// Set-ups timed per run, `setup_s` being their median: at least
/// [`MIN_SETUPS`], then more until [`SETUP_BUDGET`] is spent or
/// [`MAX_SETUPS`] are done — a 20 ms cold start is at the mercy of one
/// scheduler hiccup, so the cheap ones are repeated the most.
pub const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 25;
/// See [`MIN_SETUPS`].
pub const SETUP_BUDGET: Duration = Duration::from_millis(1_500);
/// Calibration points taken before each timed set-up.
const SETUP_POINTS: usize = 8;

/// The timed set-ups of a run, and the host's speed around them.
struct Setups {
    began: Instant,
    /// Seconds each set-up took.
    seconds: Vec<f64>,
    /// Reference-work times taken before each set-up, ns.
    reference_ns: Vec<f64>,
}

impl Setups {
    fn new() -> Setups {
        Setups {
            began: Instant::now(),
            seconds: Vec::new(),
            reference_ns: Vec::new(),
        }
    }

    /// Takes calibration points; call before each timed set-up (the
    /// traced run reports no `setup_s` and skips it).
    fn calibrate(&mut self, cfg: &RunConfig) {
        if !cfg.trace {
            self.reference_ns
                .extend((0..SETUP_POINTS).map(|_| calib::time_pair()));
        }
    }

    /// Whether the set-ups timed so far are enough (one, in the traced
    /// run).
    fn enough(&self, cfg: &RunConfig) -> bool {
        let done = self.seconds.len();
        cfg.trace
            || done >= MAX_SETUPS
            || (done >= MIN_SETUPS
                && self.began.elapsed() >= SETUP_BUDGET.mul_f64(time_scale(cfg.scale)))
    }

    /// `setup_s`: the median set-up, as it would read on the reference
    /// host.
    fn setup_s(&self) -> f64 {
        stats::median(&self.seconds) * calib::speed(&self.reference_ns)
    }

    fn note(&self) -> String {
        format!(
            "{} set-ups; as measured: median {:.4}s ({:.4}..{:.4}s); host speed {:.3}",
            self.seconds.len(),
            stats::median(&self.seconds),
            self.seconds.iter().copied().fold(f64::INFINITY, f64::min),
            self.seconds.iter().copied().fold(0.0, f64::max),
            calib::speed(&self.reference_ns)
        )
    }
}

/// Share of `--seconds` the traced run spends in its closed-loop phase
/// and in its paced open-loop phase (the rest of the budget goes to the
/// in-process probes, which are sized by iteration counts).
const TRACED_CLOSED_SHARE: f64 = 0.45;
const TRACED_PACED_SHARE: f64 = 0.30;

/// By how much `--scale` shrinks phases, windows and budgets: as much
/// as it shrinks populations, but never below a fiftieth, so that the
/// smallest smoke run still has windows to take a median over.
pub fn time_scale(scale: f64) -> f64 {
    scale.max(0.02)
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (for output files).
    pub name: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Shrinks populations, event counts and phases (smoke tests).
    pub scale: f64,
    /// `benchmark/out` of the checkout.
    pub out_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (decisions; sweep: policy aggregates).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Named metric values.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes (first failure, sizes, span table).
    pub notes: Vec<String>,
}

/// Runs one workload.
pub fn run(workload: &Workload, cfg: &RunConfig) -> io::Result<RunResult> {
    match workload {
        Workload::Server(w) => run_server(&scaled_server(w, cfg.scale), cfg),
        Workload::Sweep(w) => run_sweep_workload(&scaled_sweep(w, cfg.scale), cfg),
    }
}

fn scaled_server(w: &ServerWorkload, scale: f64) -> ServerWorkload {
    let mut w = *w;
    if scale < 1.0 {
        let shrink = |n: usize, floor: usize| ((n as f64 * scale) as usize).max(floor);
        w.input.apps = shrink(w.input.apps, 60);
        w.input.max_timed_events = shrink(w.input.max_timed_events, 2_000);
        w.input.quality_events = shrink(w.input.quality_events, 500);
        w.paced_decisions_per_s = (w.paced_decisions_per_s * scale).max(2_000.0);
    }
    w
}

fn scaled_sweep(w: &SweepWorkload, scale: f64) -> SweepWorkload {
    let mut w = *w;
    if scale < 1.0 {
        w.apps = ((w.apps as f64 * scale) as usize).max(40);
    }
    w
}

// ---------------------------------------------------------------------
// Server workloads
// ---------------------------------------------------------------------

/// The running programs under test of one server workload.
struct Cluster {
    nodes: Vec<Proc>,
    router: Option<Proc>,
    standby: Option<Proc>,
}

impl Cluster {
    /// Where clients connect.
    fn entry(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.nodes[0].addr, |r| r.addr)
    }

    fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.nodes.iter().chain(&self.router).chain(&self.standby)
    }

    /// CPU seconds used so far by all processes.
    fn cpu_s(&self) -> f64 {
        self.procs()
            .filter_map(|p| procfs::process_cpu_s(p.pid()))
            .sum()
    }

    /// Summed peak resident sets, MB.
    fn peak_rss_mb(&self) -> f64 {
        self.procs()
            .filter_map(|p| procfs::process_peak_rss_mb(p.pid()))
            .sum()
    }

    /// Graceful stop, front to back; anything that lingers is killed.
    fn shutdown(self) {
        let Cluster {
            nodes,
            router,
            standby,
        } = self;
        for p in router.into_iter().chain(standby).chain(nodes) {
            p.shutdown();
        }
    }
}

fn node_snapshot(workdir: &Workdir, k: usize) -> PathBuf {
    workdir.path().join(format!("node{k}.snap"))
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Starts every process of the topology and waits until all are ready:
/// nodes answer `/healthz` without a restore error, the router sees
/// both nodes live, the standby has finished its first full sync.
fn start_cluster(
    w: &ServerWorkload,
    inputs: &Inputs,
    workdir: &Workdir,
    restore: bool,
) -> io::Result<Cluster> {
    let tenant_args = |flag: &str| -> Vec<String> {
        inputs
            .tenants
            .iter()
            .flat_map(|(name, budget)| {
                let spec = if *budget > 0 {
                    format!("{name}=hybrid,budget={budget}")
                } else {
                    format!("{name}=hybrid")
                };
                [flag.to_owned(), spec]
            })
            .collect()
    };
    let node_count = match w.topology {
        Topology::Direct => 1,
        Topology::Routed => 2,
    };
    let mut cluster = Cluster {
        nodes: Vec::new(),
        router: None,
        standby: None,
    };
    for k in 0..node_count {
        let mut args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--reactor-threads",
            "1",
            "--policy",
            "hybrid",
        ]
        .map(String::from)
        .to_vec();
        // Behind a router the router provisions the tenants; a restored
        // node finds them in its snapshot.
        if w.topology == Topology::Direct && !restore {
            args.extend(tenant_args("--tenant"));
        }
        args.push(if restore { "--restore" } else { "--snapshot" }.to_owned());
        args.push(path_arg(&node_snapshot(workdir, k)));
        cluster.nodes.push(Proc::spawn(
            "sitw-serve",
            &format!("node{k}"),
            &args,
            "listening on ",
            workdir,
        )?);
    }
    for node in &cluster.nodes {
        node.wait_ready("/healthz", |b| {
            b.contains("\"status\":\"ok\"") && !b.contains("restore_error")
        })?;
    }
    if w.topology == Topology::Routed {
        let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
        for node in &cluster.nodes {
            args.push("--node".into());
            args.push(node.addr.to_string());
        }
        args.extend(tenant_args("--tenant"));
        let router = Proc::spawn("sitw-router", "router", &args, "listening on ", workdir)?;
        let standby_args: Vec<String> = [
            "--follow",
            &cluster.nodes[0].addr.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--repl-interval-ms",
            "100",
            "--shards",
            "2",
            "--reactor-threads",
            "1",
            "--policy",
            "hybrid",
        ]
        .map(String::from)
        .to_vec();
        let standby = Proc::spawn(
            "sitw-serve",
            "standby",
            &standby_args,
            "control on ",
            workdir,
        )?;
        router.wait_ready("/healthz", |b| {
            sut::json_u64(b, "live") == Some(node_count as u64)
        })?;
        standby.wait_ready("/healthz", |b| {
            sut::json_u64(b, "full_syncs").is_some_and(|n| n >= 1)
        })?;
        cluster.router = Some(router);
        cluster.standby = Some(standby);
    }
    Ok(cluster)
}

/// Samples a running phase into windows of about `period`: operations
/// completed (the drivers' shared counter) and CPU used by the programs
/// under test (`cpu_s` reads their cumulative CPU seconds), until `stop`
/// is set. The time the connection threads spent on calibration points
/// inside a window is taken out of its length.
fn sample_windows(
    shared: &PhaseShared,
    cpu_s: &dyn Fn() -> f64,
    stop: &AtomicBool,
    period: Duration,
) -> Vec<Window> {
    let mut windows = Vec::new();
    let read = || {
        (
            Instant::now(),
            shared.progress.load(Ordering::Relaxed),
            shared.paused_ns.load(Ordering::Relaxed),
            cpu_s(),
        )
    };
    let mut last = read();
    loop {
        // Sleep in slices so the end of the phase is noticed promptly.
        let wake = last.0 + period;
        let mut stopping = false;
        while Instant::now() < wake {
            if stop.load(Ordering::Acquire) {
                stopping = true;
                break;
            }
            std::thread::sleep(
                Duration::from_millis(5).min(wake.saturating_duration_since(Instant::now())),
            );
        }
        let now = read();
        let paused = Duration::from_nanos((now.2 - last.2) / CONNECTIONS as u64);
        windows.push(Window {
            dt: (now.0 - last.0).saturating_sub(paused),
            count: now.1 - last.1,
            cpu_s: (now.3 - last.3).max(0.0),
        });
        last = now;
        if stopping {
            return windows;
        }
    }
}

/// What a sampled closed-loop phase measured.
#[derive(Debug, Default)]
struct Sampled {
    /// The phase cut into windows.
    windows: Vec<Window>,
    /// Every connection's reference-work times, ns.
    reference_ns: Vec<f64>,
}

impl Sampled {
    /// The phase's rate (operations/s) and CPU cost (µs/operation) as
    /// measured — medians over its windows — and the host's speed
    /// during it.
    fn figures(&self) -> (f64, f64, f64) {
        let (rate, cpu_us) = stats::window_medians(&self.windows);
        (rate, cpu_us, calib::speed(&self.reference_ns))
    }
}

/// Drives both connections closed-loop from the given start indices;
/// with `cpu_s`, also samples the phase into windows.
#[allow(clippy::too_many_arguments)]
fn drive_closed(
    addr: SocketAddr,
    proto: Proto,
    schedules: &[inputs::Schedule],
    names: &Names,
    starts: &[usize],
    until: Instant,
    min_index: &[usize],
    cpu_s: Option<&(dyn Fn() -> f64 + Sync)>,
    window: Duration,
    recorders: Option<&mut Vec<Recorder>>,
) -> (Vec<Outcome>, Sampled) {
    let mut recs: Vec<Option<&mut Recorder>> = match recorders {
        Some(r) => r.iter_mut().map(Some).collect(),
        None => (0..schedules.len()).map(|_| None).collect(),
    };
    // Only a sampled phase takes calibration points.
    let shared = PhaseShared {
        calibrate_from: cpu_s.map(|_| Instant::now()),
        ..PhaseShared::default()
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = cpu_s.map(|cpu_s| {
            let (shared, done) = (&shared, &done);
            scope.spawn(move || sample_windows(shared, &cpu_s, done, window))
        });
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .zip(recs.drain(..))
            .map(|((c, s), rec)| {
                let stop = StopRule {
                    until,
                    min_index: min_index[c],
                    max_index: s.events.len(),
                };
                let (start, shared) = (starts[c], &shared);
                scope.spawn(move || closed_loop(addr, proto, s, names, start, stop, shared, rec))
            })
            .collect();
        let outcomes: Vec<Outcome> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("connection threads report failures, they do not panic")
            })
            .collect();
        done.store(true, Ordering::Release);
        let sampled = Sampled {
            windows: sampler
                .map_or_else(Vec::new, |h| h.join().expect("the sampler does not panic")),
            reference_ns: outcomes
                .iter()
                .flat_map(|o| o.reference_ns.iter().copied())
                .collect(),
        };
        (outcomes, sampled)
    })
}

/// Folds driver outcomes into the result's operation counts.
fn tally(result: &mut RunResult, phase: &str, outcomes: &[Outcome]) {
    for (c, o) in outcomes.iter().enumerate() {
        result.attempted += o.attempted;
        result.failed += o.failed;
        if let Some(note) = &o.note {
            result.notes.push(format!("{phase} conn{c}: {note}"));
        }
    }
}

/// Replays the warm-up through fresh processes and leaves one snapshot
/// per node in the workdir.
fn build_warm_snapshots(
    w: &ServerWorkload,
    inputs: &Inputs,
    names: &Names,
    workdir: &Workdir,
    result: &mut RunResult,
) -> io::Result<()> {
    let cluster = start_cluster(w, inputs, workdir, false)?;
    // The warm-up is not measured: it always goes in big frames.
    let proto = Proto::Bin {
        batch: 128,
        in_flight: 4,
    };
    let far = Instant::now() + Duration::from_secs(3_600);
    let (outcomes, _) = drive_closed(
        cluster.entry(),
        proto,
        &inputs.warm,
        names,
        &[0; CONNECTIONS],
        far,
        &[0; CONNECTIONS],
        None,
        stats::WINDOW,
        None,
    );
    tally(result, "warm-up", &outcomes);
    for (k, node) in cluster.nodes.iter().enumerate() {
        let (status, body) = sut::http(node.addr, "POST", "/admin/snapshot", b"")?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "node{k} snapshot failed ({status}): {body}"
            )));
        }
    }
    cluster.shutdown();
    Ok(())
}

/// One cold start: every process up from its warm snapshot and ready,
/// then the first oracle-verified decision. Returns the cluster, the
/// elapsed time and how many events of connection 0 that took.
fn cold_start(
    w: &ServerWorkload,
    inputs: &Inputs,
    names: &Names,
    workdir: &Workdir,
    result: &mut RunResult,
) -> io::Result<(Cluster, f64, usize)> {
    let t0 = Instant::now();
    let cluster = start_cluster(w, inputs, workdir, true)?;
    let s = &inputs.timed[0];
    let first = match w.proto {
        Proto::Json { .. } => 1,
        Proto::Bin { batch, .. } => batch,
    }
    .min(s.events.len());
    let stop = StopRule {
        until: Instant::now(),
        min_index: 0,
        max_index: first,
    };
    let o = closed_loop(
        cluster.entry(),
        w.proto,
        s,
        names,
        0,
        stop,
        &PhaseShared::default(),
        None,
    );
    let elapsed = t0.elapsed().as_secs_f64();
    let ok = o.failed == 0 && o.verified == first as u64;
    tally(result, "setup", std::slice::from_ref(&o));
    if !ok {
        return Err(io::Error::other(format!(
            "first decision after restore not verified: {}",
            o.note.unwrap_or_default()
        )));
    }
    Ok((cluster, elapsed, o.next))
}

fn run_server(w: &ServerWorkload, cfg: &RunConfig) -> io::Result<RunResult> {
    let mut result = RunResult::default();
    let t_inputs = Instant::now();
    let inputs = inputs::generate(&w.input, cfg.seed);
    let names = Names::new(w.input.apps);
    result.notes.push(format!(
        "inputs: {} apps, {} warm-up + {} timed events ({} in the quality prefix over {} apps), generated and replayed through the oracle in {:.2}s",
        w.input.apps,
        inputs.warm_len(),
        inputs.timed_len(),
        inputs.quality.events,
        inputs.quality.apps,
        t_inputs.elapsed().as_secs_f64()
    ));
    result.notes.push(format!(
        "timed stream: tenants {:?}; branches {:?}",
        inputs.tenants, inputs.branches
    ));
    if inputs.timed_len() == 0 {
        return Err(io::Error::other("the generated timed stream is empty"));
    }
    let workdir = Workdir::create(&cfg.out_dir)?;
    let t_warm = Instant::now();
    build_warm_snapshots(w, &inputs, &names, &workdir, &mut result)?;
    result.notes.push(format!(
        "warm snapshot built in {:.2}s",
        t_warm.elapsed().as_secs_f64()
    ));

    // Cold starts from the warm snapshot; the last one goes on to serve
    // the measured phases.
    let mut setups = Setups::new();
    let (cluster, consumed) = loop {
        setups.calibrate(cfg);
        let (cluster, elapsed, consumed) = cold_start(w, &inputs, &names, &workdir, &mut result)?;
        setups.seconds.push(elapsed);
        if setups.enough(cfg) {
            break (cluster, consumed);
        }
        // Dropping the cluster here kills it before the next start.
    };
    if !cfg.trace {
        result.notes.push(setups.note());
    }
    let mut starts = [0usize; CONNECTIONS];
    starts[0] = consumed;

    if cfg.trace {
        traced_phases(
            w,
            cfg,
            &inputs,
            &names,
            cluster,
            starts,
            &workdir,
            &mut result,
        )?;
        return Ok(result);
    }

    // The measured phase.
    let window = stats::WINDOW.mul_f64(time_scale(cfg.scale));
    let phase_start = Instant::now();
    let cpu_s = || cluster.cpu_s();
    let (outcomes, sampled) = drive_closed(
        cluster.entry(),
        w.proto,
        &inputs.timed,
        &names,
        &starts,
        phase_start + Duration::from_secs_f64(cfg.seconds),
        &inputs.quality_per_conn,
        Some(&cpu_s),
        window,
        None,
    );
    let elapsed = phase_start.elapsed().as_secs_f64();
    let peak_rss_mb = cluster.peak_rss_mb();
    cluster.shutdown();
    tally(&mut result, "timed", &outcomes);

    let done: u64 = outcomes.iter().map(|o| o.verified + o.failed).sum();
    let drained = outcomes
        .iter()
        .zip(&inputs.timed)
        .all(|(o, s)| o.next >= s.events.len());
    if drained {
        result.notes.push(format!(
            "the timed stream drained after {elapsed:.1}s: raise max_timed_events for this build"
        ));
    }
    let (rate, cpu_us, speed) = sampled.figures();
    result.notes.push(format!(
        "timed: {done} decisions in {elapsed:.2}s on {CONNECTIONS} connections; as measured, medians of {} windows: {rate:.0} decisions/s at {cpu_us:.3} us SUT cpu each; host speed {speed:.3} over {} calibration points",
        sampled.windows.len(),
        sampled.reference_ns.len()
    ));
    // The quality figures describe the verified prefix; a connection
    // that stopped short of its share leaves them unreported (0), and
    // the failed operations that stopped it fail the run anyway.
    let prefix_done = outcomes
        .iter()
        .zip(&inputs.quality_per_conn)
        .all(|(o, q)| o.next >= *q);
    let m = &mut result.metrics;
    m.insert("decisions_per_s", rate / speed);
    m.insert("cpu_us_per_decision", cpu_us * speed);
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("setup_s", setups.setup_s());
    m.insert(
        "cold_start_pct_p75",
        if prefix_done {
            inputs.quality.cold_start_pct_p75
        } else {
            0.0
        },
    );
    m.insert(
        "wasted_mem_norm_pct",
        if prefix_done {
            inputs.quality.wasted_mem_norm_pct
        } else {
            0.0
        },
    );
    Ok(result)
}

/// Counters scraped from the nodes, summed.
#[derive(Debug, Default, Clone, Copy)]
struct NodeCounters {
    epoll_waits: f64,
    wakeups: f64,
    bp_pauses: f64,
    mailbox_peak: f64,
    evictions: f64,
}

/// Sums `"key":N` over every object of a JSON array body.
fn sum_json_key(body: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    body.match_indices(&pat)
        .filter_map(|(at, _)| {
            let rest = &body[at + pat.len()..];
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse::<f64>().ok()
        })
        .sum()
}

/// Sums every sample of one Prometheus series (all label sets).
fn sum_series(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
        .sum()
}

fn scrape_nodes(cluster: &Cluster) -> NodeCounters {
    let mut c = NodeCounters::default();
    for node in &cluster.nodes {
        if let Ok((200, body)) = sut::http(node.addr, "GET", "/debug/threads", b"") {
            c.epoll_waits += sum_json_key(&body, "epoll_waits");
            c.wakeups += sum_json_key(&body, "wakeups");
            c.bp_pauses += sum_json_key(&body, "bp_pauses");
            c.mailbox_peak = c.mailbox_peak.max(
                body.match_indices("\"mailbox_peak\":")
                    .filter_map(|(at, _)| sut::json_u64(&body[at..], "mailbox_peak"))
                    .max()
                    .unwrap_or(0) as f64,
            );
        }
        if let Ok((200, body)) = sut::http(node.addr, "GET", "/metrics", b"") {
            c.evictions += sum_series(&body, "sitw_serve_tenant_evictions_total");
        }
    }
    c
}

/// CPU seconds per thread group, summed over processes.
fn thread_cpu(procs: &[&Proc]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for p in procs {
        for (name, s) in procfs::thread_cpu_s(p.pid()) {
            *out.entry(name).or_insert(0.0) += s;
        }
    }
    out
}

fn group_delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, prefix: &str) -> f64 {
    let sum = |m: &BTreeMap<String, f64>| -> f64 {
        m.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    };
    (sum(after) - sum(before)).max(0.0)
}

/// The traced run: a span-recorded closed-loop phase, a paced open-loop
/// phase, scrapes of the programs' own counters, then the in-process
/// probes over the workload's inputs.
#[allow(clippy::too_many_arguments)]
fn traced_phases(
    w: &ServerWorkload,
    cfg: &RunConfig,
    inputs: &Inputs,
    names: &Names,
    cluster: Cluster,
    starts: [usize; CONNECTIONS],
    workdir: &Workdir,
    result: &mut RunResult,
) -> io::Result<()> {
    let epoch = Instant::now();
    let mut recorders: Vec<Recorder> = (0..CONNECTIONS)
        .map(|c| Recorder::new(&format!("conn{c}"), epoch))
        .collect();
    let node_procs: Vec<&Proc> = cluster.nodes.iter().collect();

    // Closed loop, spans on.
    let counters0 = scrape_nodes(&cluster);
    // Reactor and shard threads live as long as their node, so their
    // per-thread CPU can be differenced; the router's per-connection
    // threads exit with the connection, so the router and the standby
    // are read per process (which keeps exited threads' time).
    let proc_cpu = |p: &Option<Proc>| {
        p.as_ref()
            .and_then(|p| procfs::process_cpu_s(p.pid()))
            .unwrap_or(0.0)
    };
    let (node_t0, router_cpu0, standby_cpu0) = (
        thread_cpu(&node_procs),
        proc_cpu(&cluster.router),
        proc_cpu(&cluster.standby),
    );
    let (cpu0, self0) = (cluster.cpu_s(), procfs::self_cpu_s());
    // The sampler's CPU read doubles as the router's thread census: its
    // per-connection threads are gone once the phase ends.
    let router_threads = AtomicU64::new(0);
    let sut_cpu = || {
        if let Some(router) = &cluster.router {
            router_threads.fetch_max(procfs::thread_count(router.pid()) as u64, Ordering::Relaxed);
        }
        cluster.cpu_s()
    };
    let (closed, sampled) = drive_closed(
        cluster.entry(),
        w.proto,
        &inputs.timed,
        names,
        &starts,
        Instant::now() + Duration::from_secs_f64(cfg.seconds * TRACED_CLOSED_SHARE),
        &[0; CONNECTIONS],
        Some(&sut_cpu),
        stats::WINDOW.mul_f64(time_scale(cfg.scale)),
        Some(&mut recorders),
    );
    let (cpu, self_cpu) = (cluster.cpu_s() - cpu0, procfs::self_cpu_s() - self0);
    // CPU figures of this phase are scaled to the reference host like
    // the end-to-end ones, so the layers still add up to them; the
    // harness's own CPU is less the reference work its two threads did.
    let (traced_rate, _, speed) = sampled.figures();
    let self_cpu = self_cpu - sampled.reference_ns.iter().sum::<f64>() / 1e9;
    let (node_t1, router_cpu, standby_cpu) = (
        thread_cpu(&node_procs),
        proc_cpu(&cluster.router) - router_cpu0,
        proc_cpu(&cluster.standby) - standby_cpu0,
    );
    let counters1 = scrape_nodes(&cluster);
    tally(result, "traced closed loop", &closed);
    let done = closed
        .iter()
        .map(|o| o.verified + o.failed)
        .sum::<u64>()
        .max(1) as f64;
    let frames = closed.iter().map(|o| o.requests).sum::<u64>().max(1) as f64;
    let us_per_decision = |cpu_s: f64| 1e6 * cpu_s.max(0.0) / done * speed;

    let m = &mut result.metrics;
    m.insert("traced.decisions_per_s", traced_rate / speed);
    m.insert(
        "wire.req_bytes_per_decision",
        closed.iter().map(|o| o.bytes_out).sum::<u64>() as f64 / done,
    );
    m.insert(
        "wire.reply_bytes_per_decision",
        closed.iter().map(|o| o.bytes_in).sum::<u64>() as f64 / done,
    );
    m.insert(
        "reactor.cpu_us_per_decision",
        us_per_decision(group_delta(&node_t1, &node_t0, "sitw-reactor")),
    );
    m.insert(
        "shard.cpu_us_per_decision",
        us_per_decision(group_delta(&node_t1, &node_t0, "sitw-shard")),
    );
    m.insert("router.cpu_us_per_decision", us_per_decision(router_cpu));
    m.insert("follow.cpu_us_per_decision", us_per_decision(standby_cpu));
    m.insert(
        "reactor.epoll_waits_per_decision",
        (counters1.epoll_waits - counters0.epoll_waits) / done,
    );
    m.insert(
        "reactor.wakeups_per_decision",
        (counters1.wakeups - counters0.wakeups) / done,
    );
    m.insert(
        "reactor.backpressure_pauses",
        counters1.bp_pauses - counters0.bp_pauses,
    );
    m.insert("shard.mailbox_peak", counters1.mailbox_peak);
    m.insert(
        "fleet.evictions_total",
        counters1.evictions - counters0.evictions,
    );
    m.insert(
        "router.threads_peak",
        router_threads.load(Ordering::Relaxed) as f64,
    );
    m.insert("client.cpu_us_per_decision", us_per_decision(self_cpu));
    let traced_cpu_us = us_per_decision(cpu);

    // Router and replication counters.
    if let Some(router) = &cluster.router {
        if let Ok((200, body)) = sut::http(router.addr, "GET", "/metrics", b"") {
            m.insert(
                "router.subframes_per_frame",
                sum_series(&body, "sitw_router_forwarded_subframes_total") / frames,
            );
        }
    }
    let mut lag_ms_max = 0f64;
    if let Some(standby) = &cluster.standby {
        if let Ok((200, body)) = sut::http(standby.addr, "GET", "/metrics", b"") {
            m.insert(
                "repl.bytes_per_decision",
                sum_series(&body, "sitw_serve_repl_bytes_total") / done,
            );
            m.insert(
                "repl.rounds_total",
                sum_series(&body, "sitw_serve_repl_rounds_total"),
            );
            lag_ms_max = lag_ms_max.max(sum_series(&body, "sitw_serve_repl_lag_ms"));
        }
    }

    // The nodes' own stage histograms (they cover everything served so
    // far, warm-up excluded: these processes started after it).
    let mut stage_hists: BTreeMap<String, sitw_telemetry::Log2Histogram> = BTreeMap::new();
    for node in &cluster.nodes {
        if let Ok((200, body)) = sut::http(node.addr, "GET", "/debug/hist", b"") {
            if let Some(h) = sitw_cluster::parse_hist_body(&body) {
                for (stage, _proto, hist) in h.stages {
                    stage_hists.entry(stage).or_default().merge(&hist);
                }
            }
        }
    }
    for (stage, key) in [
        ("read", "node.stage_read_p50_ns"),
        ("decode", "node.stage_decode_p50_ns"),
        ("queue", "node.stage_queue_p50_ns"),
        ("decide", "node.stage_decide_p50_ns"),
        ("render", "node.stage_render_p50_ns"),
        ("write", "node.stage_write_p50_ns"),
    ] {
        m.insert(
            key,
            stage_hists
                .get(stage)
                .and_then(|h| h.quantile(0.5))
                .unwrap_or(0.0),
        );
    }

    // Open loop at a fixed offered rate, each request timed from when
    // it was due.
    let paced_starts: Vec<usize> = closed.iter().map(|o| o.next).collect();
    let paced_for = Duration::from_secs_f64(cfg.seconds * TRACED_PACED_SHARE);
    let per_conn_rate = w.paced_decisions_per_s / CONNECTIONS as f64;
    let cpu0 = cluster.cpu_s();
    let entry = cluster.entry();
    let paced: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .timed
            .iter()
            .zip(&paced_starts)
            .map(|(s, &start)| {
                scope.spawn(move || {
                    client::paced(entry, w.proto, s, names, start, per_conn_rate, paced_for)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("connection threads report failures, they do not panic")
            })
            .collect()
    });
    let paced_cpu = cluster.cpu_s() - cpu0;
    tally(result, "paced", &paced);
    let paced_done = paced
        .iter()
        .map(|o| o.verified + o.failed)
        .sum::<u64>()
        .max(1) as f64;
    let paced_requests = paced.iter().map(|o| o.requests).sum::<u64>().max(1) as f64;
    let mut rtt_us: Vec<f64> = paced
        .iter()
        .flat_map(|o| o.rtt_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    rtt_us.sort_by(f64::total_cmp);
    if let Some(standby) = &cluster.standby {
        if let Ok((200, body)) = sut::http(standby.addr, "GET", "/healthz", b"") {
            lag_ms_max = lag_ms_max.max(sut::json_u64(&body, "lag_ms").unwrap_or(0) as f64);
        }
    }
    let m = &mut result.metrics;
    m.insert("client.rtt_p50_us", stats::percentile_sorted(&rtt_us, 50.0));
    m.insert("client.rtt_p99_us", stats::percentile_sorted(&rtt_us, 99.0));
    m.insert(
        "client.late_pct",
        100.0 * paced.iter().map(|o| o.late).sum::<u64>() as f64 / paced_requests,
    );
    m.insert("paced.cpu_us_per_decision", 1e6 * paced_cpu / paced_done);
    m.insert("repl.lag_ms_max", lag_ms_max);
    result.notes.push(format!(
        "paced: {paced_done} decisions offered at {:.0}/s, {} latency samples",
        w.paced_decisions_per_s,
        rtt_us.len()
    ));

    // The probes read the warm snapshot, so they run before the
    // workdir goes; the processes are no longer needed.
    let t_shutdown = Instant::now();
    cluster.shutdown();
    let t_probes = Instant::now();
    let mut probe_rec = Recorder::new("probes", epoch);
    let explained_ns = probes::run_server_probes(
        w,
        cfg.seed,
        inputs,
        names,
        &node_snapshot(workdir, 0),
        &mut probe_rec,
        &mut result.notes,
        &mut result.metrics,
    );
    let m = &mut result.metrics;
    m.insert(
        "attrib.residual_pct",
        100.0 * (1.0 - (explained_ns / 1e3) / traced_cpu_us.max(1e-9)),
    );
    result.notes.push(format!(
        "traced: {done} decisions, SUT cpu {traced_cpu_us:.3} us/decision, probes explain {:.3} us of it",
        explained_ns / 1e3
    ));

    result.notes.push(format!(
        "traced phases: closed+paced+scrapes {:.2}s, shutdown {:.2}s, probes {:.2}s",
        t_shutdown.duration_since(epoch).as_secs_f64(),
        t_probes.duration_since(t_shutdown).as_secs_f64(),
        t_probes.elapsed().as_secs_f64()
    ));
    recorders.push(probe_rec);
    finish_trace(cfg, &recorders, result)
}

/// Writes `<out>/<workload>.trace.jsonl` and notes the span table.
fn finish_trace(cfg: &RunConfig, recorders: &[Recorder], result: &mut RunResult) -> io::Result<()> {
    let path = cfg.out_dir.join(format!("{}.trace.jsonl", cfg.name));
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    span::write_jsonl(&mut file, recorders)?;
    io::Write::flush(&mut file)?;
    let mut table = format!("spans ({}):", path.display());
    for (name, t) in span::totals(recorders) {
        table.push_str(&format!(
            "\n  {name:<28} n={:<8} total={:>10.3}ms self={:>10.3}ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    result.notes.push(table);
    Ok(())
}

// ---------------------------------------------------------------------
// sim-sweep
// ---------------------------------------------------------------------

/// The four policies of the sweep.
pub fn sweep_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::fixed_minutes(10),
        PolicySpec::Hybrid(HybridConfig::default()),
        PolicySpec::Hybrid(HybridConfig::default().without_arima()),
        PolicySpec::Production(ProductionConfig::default()),
    ]
}

/// Applications one sweep call covers: the population is swept in
/// slices so that a call takes a few hundred milliseconds and the timed
/// phase yields a few dozen windows (one per call).
const SWEEP_SLICE: usize = 250;

/// The part of an aggregate that must repeat exactly.
fn fingerprint(a: &sitw_sim::PolicyAggregate) -> (String, u64, u64, u64, u128) {
    (
        a.label.clone(),
        a.apps,
        a.invocations,
        a.cold_starts,
        a.wasted_ms,
    )
}

fn run_sweep_workload(w: &SweepWorkload, cfg: &RunConfig) -> io::Result<RunResult> {
    let mut result = RunResult::default();
    let pop_cfg = PopulationConfig {
        num_apps: w.apps,
        seed: inputs::POPULATION_SEED,
    };
    let trace_cfg = TraceConfig {
        horizon_ms: w.days * DAY_MS,
        cap_per_day: w.cap_per_day,
        seed: cfg.seed ^ 0x10AD,
    };
    // Set-up of an offline study: build the population and materialise
    // its whole trace.
    let mut setups = Setups::new();
    let slice_events: Vec<u64> = loop {
        setups.calibrate(cfg);
        let t0 = Instant::now();
        let population = build_population(&pop_cfg);
        let trace = std::hint::black_box(generate_trace(&population, &trace_cfg));
        setups.seconds.push(t0.elapsed().as_secs_f64());
        if setups.enough(cfg) {
            break trace
                .apps
                .chunks(SWEEP_SLICE)
                .map(|c| c.iter().map(|a| a.invocations.len() as u64).sum())
                .collect();
        }
    };
    let slices: Vec<Population> = build_population(&pop_cfg)
        .apps
        .chunks(SWEEP_SLICE)
        .map(|c| Population { apps: c.to_vec() })
        .collect();
    let specs = sweep_specs();
    let policies = specs.len() as u64;

    // Three checks on every timed (2-thread) sweep call: the first
    // slice must equal its serial sweep; every policy must have seen
    // exactly the invocations the trace generator produced for the
    // slice; and a slice swept again must reproduce its first result.
    let serial = sitw_sim::run_sweep(&slices[0], &trace_cfg, &specs, 1);
    let mut first: Vec<Option<Vec<sitw_sim::PolicyAggregate>>> = vec![None; slices.len()];

    let epoch = Instant::now();
    let mut rec = Recorder::new("sweep", epoch);
    let seconds = if cfg.trace {
        cfg.seconds * TRACED_CLOSED_SHARE
    } else {
        cfg.seconds
    };
    let phase_start = Instant::now();
    let mut windows: Vec<Vec<Window>> = vec![Vec::new(); slices.len()];
    let mut reference_ns: Vec<f64> = Vec::new();
    let mut ticker = calib::Ticker::new(
        Some(phase_start),
        calib::EVERY.mul_f64(time_scale(cfg.scale)),
    );
    let (mut last_at, mut last_cpu) = (phase_start, procfs::self_cpu_s());
    let mut calls = 0u64;
    loop {
        // Calibration points fall between two calls, outside both
        // their windows.
        if ticker.due() {
            reference_ns.push(calib::time_pair());
            (last_at, last_cpu) = (Instant::now(), procfs::self_cpu_s());
        }
        let k = calls as usize % slices.len();
        calls += 1;
        let span = cfg
            .trace
            .then(|| rec.open("sweep.slice", calls, None))
            .flatten();
        let aggs = sitw_sim::run_sweep(&slices[k], &trace_cfg, &specs, 2);
        rec.close(span);
        // One window per call, kept by slice: its events, wall time
        // and harness CPU.
        let (now, cpu) = (Instant::now(), procfs::self_cpu_s());
        windows[k].push(Window {
            dt: now - last_at,
            count: slice_events[k] * policies,
            cpu_s: cpu - last_cpu,
        });
        (last_at, last_cpu) = (now, cpu);
        let at = phase_start.elapsed();
        result.attempted += policies;
        let reference = if k == 0 {
            Some(&serial)
        } else {
            first[k].as_ref()
        };
        for (i, got) in aggs.iter().enumerate() {
            let repeats = reference.is_none_or(|r| fingerprint(&r[i]) == fingerprint(got));
            if !repeats || got.invocations != slice_events[k] {
                result.failed += 1;
                result.notes.push(format!(
                    "call {calls}: {} on slice {k} saw {} of {} invocations{}",
                    got.label,
                    got.invocations,
                    slice_events[k],
                    if repeats {
                        ""
                    } else {
                        " and differs from its reference"
                    }
                ));
            }
        }
        if first[k].is_none() {
            first[k] = Some(aggs);
        }
        // Whole passes only, so the policy figures cover the population.
        if at.as_secs_f64() >= seconds && (calls as usize).is_multiple_of(slices.len()) {
            break;
        }
    }
    let (rate, cpu_us) = stats::cycle_medians(&windows);
    let speed = calib::speed(&reference_ns);
    if !cfg.trace {
        result.notes.push(setups.note());
    }
    result.notes.push(format!(
        "sweep: {calls} calls over {} slices of <= {SWEEP_SLICE} apps ({} apps, {} policies, {} invocations per pass); as measured, over per-slice medians: {rate:.0} decisions/s at {cpu_us:.4} us harness cpu each; host speed {speed:.3} over {} calibration points",
        slices.len(),
        w.apps,
        policies,
        slice_events.iter().sum::<u64>(),
        reference_ns.len()
    ));
    let (rate, cpu_us) = (rate / speed, cpu_us * speed);

    if cfg.trace {
        let m = &mut result.metrics;
        m.insert("traced.decisions_per_s", rate);
        m.insert("client.cpu_us_per_decision", cpu_us);
        m.insert(
            "trace.events_total",
            slice_events.iter().sum::<u64>() as f64,
        );
        probes::run_sweep_probes(&slices[0], &trace_cfg, &mut rec, m);
        // The sweep is one trace generation plus one replay per policy.
        let explained_ns =
            m["trace.gen_ns_per_event"] / policies as f64 + m["sim.replay_ns_per_event"];
        m.insert(
            "attrib.residual_pct",
            100.0 * (1.0 - explained_ns / (1e3 * cpu_us).max(1e-9)),
        );
        finish_trace(cfg, &[rec], &mut result)?;
        return Ok(result);
    }

    // Population-wide aggregates: the slices' first results, merged.
    let mut merged: Vec<sitw_sim::PolicyAggregate> = specs
        .iter()
        .map(|s| sitw_sim::PolicyAggregate::new(s.label()))
        .collect();
    for aggs in first.iter().flatten() {
        for (m, a) in merged.iter_mut().zip(aggs) {
            m.merge(a);
        }
    }
    let (fixed, hybrid) = (&merged[0], &merged[1]);
    let m = &mut result.metrics;
    m.insert("decisions_per_s", rate);
    m.insert("cpu_us_per_decision", cpu_us);
    m.insert(
        "peak_rss_mb",
        procfs::process_peak_rss_mb(std::process::id()).unwrap_or(0.0),
    );
    m.insert("setup_s", setups.setup_s());
    m.insert("cold_start_pct_p75", hybrid.cold_pct_percentile(75.0));
    m.insert("wasted_mem_norm_pct", hybrid.normalized_waste_pct(fixed));
    Ok(result)
}
