//! Open-loop, trace-driven load generator.
//!
//! Replays a synthetic `sitw_trace` workload against a running daemon:
//! every generated invocation becomes one `POST /invoke`, sent at its
//! trace time scaled by a speedup factor (or flat out when
//! [`LoadGenConfig::speedup`] is infinite). The generator is *open
//! loop*: when the server falls behind, requests are not throttled to
//! match — they queue — so sustained throughput and tail latency reflect
//! server capacity, not a closed feedback loop flattering it.
//!
//! Apps are assigned to connections round-robin by first appearance (an
//! app's requests must stay ordered, and the server requires per-app
//! timestamp monotonicity, so an app sticks to one connection — but the
//! dense assignment keeps all `--connections N` sockets busy at high
//! fan-in), and each connection pipelines up to a window of requests.
//! Latencies are recorded per request and reported as exact percentiles;
//! the summary's `max_live_conns=` line reports how many connections the
//! run actually drove (the reactor's high-fan-in smoke asserts it).
//!
//! **Multi-tenant replay** ([`LoadGenConfig::tenants`]): each app is
//! deterministically assigned to one of N tenants — optionally with
//! Zipf-skewed popularity (`--tenants N:zipf=s`, rank r weighing
//! `1/(r+1)^s`) — and every request carries the tenant: JSON bodies gain
//! a `"tenant":"tK"` member, SITW-BIN frames switch to v2 records with
//! the tenant id. Tenant names are `t0..tN-1`, wire ids `1..=N` (the
//! server's registration order). The summary reports per-tenant
//! throughput and verdict mix, including budget-eviction downgrades.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sitw_stats::percentile_sorted;
use sitw_telemetry::{Log2Histogram, TRACE_MARK};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, HOUR_MS};

use crate::http::{self, write_request, ConnBuf, Reply};
use crate::wire::{self, BinReply, ServerFrameDecode};
use sitw_fleet::{fnv1a, mix64};

/// Which wire protocol the generator speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// One `POST /invoke` JSON request per invocation (pipelined).
    Json,
    /// SITW-BIN v1 frames of `batch` invocations each.
    Bin {
        /// Records per frame (clamped to `1..=`[`wire::MAX_BATCH`]).
        batch: usize,
    },
}

impl Proto {
    /// Parses a `--proto` argument: `json`, `bin`, or `bin:batch=N`.
    pub fn parse(s: &str) -> Result<Proto, String> {
        match s {
            "json" => Ok(Proto::Json),
            "bin" => Ok(Proto::Bin { batch: 16 }),
            _ => match s.strip_prefix("bin:batch=") {
                Some(n) => {
                    let batch: usize = n.parse().map_err(|_| format!("bad batch '{n}'"))?;
                    if batch == 0 || batch > wire::MAX_BATCH {
                        return Err(format!("batch must be in 1..={}", wire::MAX_BATCH));
                    }
                    Ok(Proto::Bin { batch })
                }
                None => Err(format!("unknown proto '{s}' (json | bin | bin:batch=N)")),
            },
        }
    }

    /// Human-readable label, e.g. `json` or `bin:batch=16`.
    pub fn label(&self) -> String {
        match self {
            Proto::Json => "json".into(),
            Proto::Bin { batch } => format!("bin:batch={batch}"),
        }
    }
}

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Applications in the synthetic population.
    pub apps: usize,
    /// Population / trace seed.
    pub seed: u64,
    /// Trace horizon in milliseconds.
    pub horizon_ms: u64,
    /// Per-app daily event cap (see [`TraceConfig`]).
    pub cap_per_day: f64,
    /// Trace-time acceleration: 60 ⇒ one trace hour replays in one
    /// minute. `f64::INFINITY` ⇒ replay as fast as the server accepts.
    pub speedup: f64,
    /// Parallel connections.
    pub connections: usize,
    /// In-flight invocations per connection (JSON: pipelined requests;
    /// BIN: records across in-flight frames).
    pub window: usize,
    /// Cap on total invocations sent (0 = no cap).
    pub max_events: usize,
    /// Wire protocol to speak.
    pub proto: Proto,
    /// Replay across this many tenants (`t0..tN-1`, wire ids `1..=N`);
    /// 0 = untenanted (default tenant only).
    pub tenants: usize,
    /// Zipf skew of the per-app tenant assignment (0 = uniform).
    pub zipf: f64,
    /// Tag every Nth request (JSON) or frame (SITW-BIN) with a client
    /// trace id — `X-Sitw-Trace` header / the v2 trace field — so its
    /// spans can be found end to end in `/debug/trace` output. 0 = off.
    /// Sampled ids and their RTTs land in the `--out` JSON report.
    pub trace_sample: usize,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            apps: 500,
            seed: 42,
            horizon_ms: 24 * HOUR_MS,
            cap_per_day: 2_000.0,
            speedup: f64::INFINITY,
            connections: 2,
            window: 64,
            max_events: 0,
            proto: Proto::Json,
            tenants: 0,
            zipf: 0.0,
            trace_sample: 0,
        }
    }
}

/// Results of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadGenReport {
    /// Requests sent.
    pub sent: u64,
    /// 200 responses.
    pub ok: u64,
    /// Cold verdicts among `ok`.
    pub cold: u64,
    /// Warm verdicts among `ok`.
    pub warm: u64,
    /// Non-200 responses.
    pub errors: u64,
    /// Wall-clock duration of the replay.
    pub elapsed: Duration,
    /// `ok / elapsed`, decisions per second.
    pub throughput: f64,
    /// Exact client-observed latency percentiles in microseconds
    /// (p50, p95, p99) and the maximum.
    pub latency_us: LatencySummary,
    /// Client-observed RTT histogram in nanoseconds — the same
    /// mergeable log2-bucket type the server exports, so client and
    /// server distributions compare bucket-for-bucket.
    pub latency_hist: Log2Histogram,
    /// Eviction-downgraded cold verdicts among `ok` (budgeted tenants).
    pub evicted: u64,
    /// Admission-control rejections (HTTP 429 / `VB_THROTTLED` reply
    /// records from a router). Not counted in `ok` or `errors`: the
    /// invocation was refused by QoS, not served and not failed.
    pub throttled: u64,
    /// Per-tenant verdict mix, index k = tenant `tK` (empty when the
    /// replay is untenanted).
    pub per_tenant: Vec<TenantMix>,
    /// Connections actually driven concurrently (non-empty schedules;
    /// `--connections N` with fewer than N active apps drives fewer).
    pub max_live_conns: u64,
    /// `(trace_id, rtt_ns)` of every sampled request
    /// ([`LoadGenConfig::trace_sample`]); empty when sampling is off.
    pub traces: Vec<(u64, u64)>,
}

/// Verdict mix of one tenant in a multi-tenant replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantMix {
    /// 200 / verdict responses.
    pub ok: u64,
    /// Cold verdicts among `ok`.
    pub cold: u64,
    /// Eviction-downgraded colds among `cold`.
    pub evicted: u64,
    /// Admission-control rejections (429 / throttled reply records).
    pub throttled: u64,
    /// Errors (non-200 / out-of-order / error frames).
    pub errors: u64,
}

/// Exact latency percentiles over all requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LoadGenReport {
    /// One-line human-readable summary (plus one line per tenant in a
    /// multi-tenant replay: throughput share and verdict mix).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} decisions in {:.2}s = {:.0}/s | cold {} ({:.1}%) warm {} evicted {} throttled {} \
             errors {} | latency µs p50 {:.0} p95 {:.0} p99 {:.0} max {:.0}",
            self.ok,
            self.elapsed.as_secs_f64(),
            self.throughput,
            self.cold,
            100.0 * self.cold as f64 / (self.ok.max(1)) as f64,
            self.warm,
            self.evicted,
            self.throttled,
            self.errors,
            self.latency_us.p50,
            self.latency_us.p95,
            self.latency_us.p99,
            self.latency_us.max,
        );
        for (k, t) in self.per_tenant.iter().enumerate() {
            let _ = write!(
                out,
                "\n  t{k}: {} decisions = {:.0}/s | cold {} ({:.1}%) evicted {} throttled {} \
                 errors {}",
                t.ok,
                t.ok as f64 / self.elapsed.as_secs_f64().max(1e-9),
                t.cold,
                100.0 * t.cold as f64 / (t.ok.max(1)) as f64,
                t.evicted,
                t.throttled,
                t.errors,
            );
        }
        let _ = write!(out, "\nmax_live_conns={}", self.max_live_conns);
        if !self.latency_hist.is_empty() {
            let h = &self.latency_hist;
            let q = |p: f64| h.quantile(p).unwrap_or(0.0) / 1_000.0;
            let _ = write!(
                out,
                "\nrtt histogram: {} samples, mean {:.0} µs, p50/p95/p99 ≈ {:.0}/{:.0}/{:.0} µs, \
                 max bucket ≤ {:.0} µs",
                h.count(),
                h.mean().unwrap_or(0.0) / 1_000.0,
                q(0.50),
                q(0.95),
                q(0.99),
                h.max_bound().unwrap_or(0) as f64 / 1_000.0,
            );
        }
        out
    }

    /// Machine-readable run summary (the `--out` file of `sitw-loadgen`):
    /// throughput, verdict mix, exact percentiles, and the full log2
    /// latency histogram as `[bucket_upper_ns, count]` pairs.
    pub fn to_json(&self, proto: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"proto\":\"{proto}\",\"sent\":{},\"ok\":{},\"cold\":{},\"warm\":{},\
             \"evicted\":{},\"throttled\":{},\"errors\":{},\"elapsed_s\":{:.6},\
             \"throughput\":{:.2},\
             \"cold_rate\":{:.6},\"latency_us\":{{\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1},\
             \"max\":{:.1}}},\"max_live_conns\":{}",
            self.sent,
            self.ok,
            self.cold,
            self.warm,
            self.evicted,
            self.throttled,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.throughput,
            self.cold as f64 / (self.ok.max(1)) as f64,
            self.latency_us.p50,
            self.latency_us.p95,
            self.latency_us.p99,
            self.latency_us.max,
            self.max_live_conns,
        );
        let h = &self.latency_hist;
        let _ = write!(
            out,
            ",\"latency_hist\":{{\"count\":{},\"sum_ns\":{},\"buckets\":[",
            h.count(),
            h.sum()
        );
        let mut first = true;
        for (i, &c) in h.buckets().iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{},{c}]", Log2Histogram::bucket_upper(i));
        }
        out.push_str("]}");
        let _ = write!(out, ",\"per_tenant\":[");
        for (k, t) in self.per_tenant.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tenant\":\"t{k}\",\"ok\":{},\"cold\":{},\"evicted\":{},\"throttled\":{},\
                 \"errors\":{}}}",
                t.ok, t.cold, t.evicted, t.throttled, t.errors
            );
        }
        out.push(']');
        // Sampled trace ids in the same hex rendering `/debug/trace`
        // uses, so a report entry greps straight into trace output.
        let _ = write!(out, ",\"traces\":[");
        for (i, (id, rtt_ns)) in self.traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"trace\":\"{id:#018x}\",\"rtt_ns\":{rtt_ns}}}");
        }
        out.push_str("]}");
        out
    }
}

/// One scheduled request.
struct Event {
    ts: u64,
    app: u32,
    /// Wire tenant id (0 = default tenant, i.e. untenanted replay).
    tenant: u16,
}

/// Deterministically assigns an app to one of `n` tenants, rank-weighted
/// by Zipf skew `s` (0 = uniform): weight of tenant rank r is
/// `1/(r+1)^s`. Returns the wire id (`1..=n`).
fn tenant_of(app: u32, n: usize, s: f64) -> u16 {
    debug_assert!(n >= 1 && n <= u16::MAX as usize);
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    // Hash the app id (same name the wire carries) to a uniform variate.
    let h = mix64(fnv1a(app_name(app).as_bytes()));
    let mut u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64 * total;
    for (r, w) in weights.iter().enumerate() {
        if u < *w || r + 1 == n {
            return (r + 1) as u16;
        }
        u -= w;
    }
    1
}

/// Builds the merged, time-ordered schedule and partitions it across
/// connections by app.
fn build_schedules(cfg: &LoadGenConfig) -> Vec<Vec<Event>> {
    let population = build_population(&PopulationConfig {
        num_apps: cfg.apps,
        seed: cfg.seed,
    });
    let trace_cfg = TraceConfig {
        horizon_ms: cfg.horizon_ms,
        cap_per_day: cfg.cap_per_day,
        seed: cfg.seed ^ 0x10AD,
    };
    let mut merged: Vec<Event> = Vec::new();
    for app in &population.apps {
        let tenant = if cfg.tenants > 0 {
            tenant_of(app.id.0, cfg.tenants.min(u16::MAX as usize), cfg.zipf)
        } else {
            0
        };
        for ts in app_invocations(app, &trace_cfg) {
            merged.push(Event {
                ts,
                app: app.id.0,
                tenant,
            });
        }
    }
    // Stable global order; ties broken by app id for determinism.
    merged.sort_by_key(|e| (e.ts, e.app));
    if cfg.max_events > 0 {
        merged.truncate(cfg.max_events);
    }

    // Apps are assigned to connections round-robin in order of first
    // appearance (an app's requests must stay on one connection for
    // per-app ordering). The dense assignment replaces the old
    // `app_id % connections` partition, whose cost showed at high fan-in:
    // id-hash gaps left many connections empty and others hot, so
    // `--connections 256` neither opened 256 sockets nor spread load.
    // First-appearance order keeps *active* apps balanced for any N.
    let connections = cfg.connections.max(1);
    let mut schedules: Vec<Vec<Event>> = (0..connections).map(|_| Vec::new()).collect();
    let mut conn_of: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut next = 0usize;
    for event in merged {
        let conn = *conn_of.entry(event.app).or_insert_with(|| {
            let assigned = next;
            next = (next + 1) % connections;
            assigned
        });
        // Per-app ordering is preserved because an app always maps to
        // the same connection and the merged stream is time-ordered.
        schedules[conn].push(event);
    }
    schedules
}

/// Replays the configured workload against `addr` and reports.
pub fn run_loadgen(addr: SocketAddr, cfg: &LoadGenConfig) -> io::Result<LoadGenReport> {
    run_loadgen_cluster(&[addr], cfg)
}

/// Replays the configured workload across `targets` — connections are
/// assigned round-robin, so `--cluster A,B,C` spreads a replay over
/// several nodes (or routers) at once.
///
/// **Fail-fast:** the first connection error flips a shared abort flag;
/// every other connection stops within one pacing tick instead of
/// replaying its whole schedule against a dead peer, and the returned
/// error carries a per-node summary of which targets failed and why.
pub fn run_loadgen_cluster(
    targets: &[SocketAddr],
    cfg: &LoadGenConfig,
) -> io::Result<LoadGenReport> {
    if targets.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no targets"));
    }
    let schedules = build_schedules(cfg);
    let max_live_conns = schedules.iter().filter(|s| !s.is_empty()).count() as u64;
    let node_of = |conn: usize| targets[conn % targets.len()];
    // Open every connection up front: `--connections N` is the
    // high-fan-in drive mode, so all N sockets must be concurrently
    // live before the replay starts (lazy per-thread connects let fast
    // connections finish before slow ones even open, understating the
    // server's true fan-in).
    let mut streams: Vec<Option<TcpStream>> = Vec::with_capacity(schedules.len());
    for (conn, schedule) in schedules.iter().enumerate() {
        streams.push(if schedule.is_empty() {
            None
        } else {
            let node = node_of(conn);
            let annotate = |e: io::Error| io::Error::new(e.kind(), format!("node {node}: {e}"));
            let stream = TcpStream::connect(node).map_err(annotate)?;
            stream.set_nodelay(true).map_err(annotate)?;
            Some(stream)
        });
    }
    // BIN v2 records carry registry-assigned tenant ids, which are only
    // 1..=N when t0..tN-1 were the first tenants registered — resolve
    // the real ids up front so other registration orders route
    // correctly, per target (each node assigns its own ids). (JSON
    // carries names and needs no mapping.)
    let tenant_ids: Vec<Vec<u16>> = if cfg.tenants > 0 && matches!(cfg.proto, Proto::Bin { .. }) {
        targets
            .iter()
            .map(|&t| resolve_tenant_ids(t, cfg.tenants))
            .collect::<io::Result<_>>()?
    } else {
        vec![Vec::new(); targets.len()]
    };
    let tenant_ids = &tenant_ids;
    let start_ts = schedules
        .iter()
        .filter_map(|s| s.first().map(|e| e.ts))
        .min()
        .unwrap_or(0);

    // The load generator is the client side of the wire: its whole
    // output (throughput, RTT percentiles) is wall-clock measurement.
    // sitw-lint: allow(clock-discipline)
    let started = Instant::now();
    let abort = AtomicBool::new(false);
    let abort = &abort;
    let mut results: Vec<ConnResult> = Vec::new();
    // Per-node failure tally: addr → (failed connections, first error).
    let mut failures: std::collections::BTreeMap<String, (u64, String)> =
        std::collections::BTreeMap::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (conn, (schedule, stream)) in schedules.iter().zip(streams).enumerate() {
            let Some(stream) = stream else { continue };
            let node = node_of(conn);
            let node_ids = &tenant_ids[conn % targets.len()];
            handles.push((
                node,
                scope.spawn(move || {
                    let result = match cfg.proto {
                        Proto::Json => drive_connection(
                            stream,
                            conn,
                            schedule,
                            start_ts,
                            cfg.speedup,
                            cfg.window,
                            cfg.tenants,
                            cfg.trace_sample,
                            started,
                            abort,
                        ),
                        Proto::Bin { batch } => drive_connection_bin(
                            stream,
                            conn,
                            schedule,
                            start_ts,
                            cfg.speedup,
                            cfg.window,
                            batch,
                            cfg.tenants,
                            node_ids,
                            cfg.trace_sample,
                            started,
                            abort,
                        ),
                    };
                    if result.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    result
                }),
            ));
        }
        for (node, handle) in handles {
            let failed = |msg: String, failures: &mut std::collections::BTreeMap<_, (u64, _)>| {
                let entry = failures
                    .entry(node.to_string())
                    .or_insert_with(|| (0, msg.clone()));
                entry.0 += 1;
            };
            match handle.join() {
                Ok(Ok(result)) => results.push(result),
                // An abort-interrupted connection is a follower, not a
                // cause: only genuine I/O failures name their node.
                Ok(Err(e)) if e.kind() == io::ErrorKind::Interrupted => {}
                Ok(Err(e)) => failed(e.to_string(), &mut failures),
                Err(_) => failed("loadgen worker panicked".into(), &mut failures),
            }
        }
    });
    if !failures.is_empty() {
        let detail: Vec<String> = failures
            .iter()
            .map(|(node, (n, e))| format!("{node}: {n} connection(s) failed ({e})"))
            .collect();
        return Err(io::Error::other(format!(
            "replay aborted; per-node errors: {}",
            detail.join("; ")
        )));
    }
    let elapsed = started.elapsed();

    let mut sent = 0u64;
    let mut ok = 0u64;
    let mut cold = 0u64;
    let mut evicted = 0u64;
    let mut throttled = 0u64;
    let mut errors = 0u64;
    let mut per_tenant: Vec<TenantMix> = vec![TenantMix::default(); cfg.tenants];
    let mut latencies: Vec<f64> = Vec::new();
    let mut latency_hist = Log2Histogram::new();
    let mut traces: Vec<(u64, u64)> = Vec::new();
    for mut r in results {
        sent += r.sent;
        ok += r.ok;
        cold += r.cold;
        evicted += r.evicted;
        throttled += r.throttled;
        errors += r.errors;
        for (agg, t) in per_tenant.iter_mut().zip(&r.per_tenant) {
            agg.ok += t.ok;
            agg.cold += t.cold;
            agg.evicted += t.evicted;
            agg.throttled += t.throttled;
            agg.errors += t.errors;
        }
        latencies.append(&mut r.latencies_us);
        latency_hist.merge(&r.latency_ns);
        traces.append(&mut r.traces);
    }
    latencies.sort_by(f64::total_cmp);
    let lat = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            percentile_sorted(&latencies, p)
        }
    };
    Ok(LoadGenReport {
        sent,
        ok,
        cold,
        warm: ok - cold,
        errors,
        elapsed,
        throughput: ok as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_us: LatencySummary {
            p50: lat(50.0),
            p95: lat(95.0),
            p99: lat(99.0),
            max: latencies.last().copied().unwrap_or(0.0),
        },
        latency_hist,
        evicted,
        throttled,
        per_tenant,
        max_live_conns,
        traces,
    })
}

struct ConnResult {
    sent: u64,
    ok: u64,
    cold: u64,
    evicted: u64,
    throttled: u64,
    errors: u64,
    /// Index k = tenant `tK` (wire id k + 1); empty when untenanted.
    per_tenant: Vec<TenantMix>,
    latencies_us: Vec<f64>,
    latency_ns: Log2Histogram,
    /// `(trace_id, rtt_ns)` of sampled requests on this connection.
    traces: Vec<(u64, u64)>,
}

impl ConnResult {
    fn new(capacity: usize, tenants: usize) -> ConnResult {
        ConnResult {
            sent: 0,
            ok: 0,
            cold: 0,
            evicted: 0,
            throttled: 0,
            errors: 0,
            per_tenant: vec![TenantMix::default(); tenants],
            latencies_us: Vec::with_capacity(capacity),
            latency_ns: Log2Histogram::new(),
            traces: Vec::new(),
        }
    }

    fn record_verdict(&mut self, tenant: u16, cold: bool, evicted: bool) {
        self.ok += 1;
        if cold {
            self.cold += 1;
        }
        if evicted {
            self.evicted += 1;
        }
        if tenant > 0 {
            if let Some(t) = self.per_tenant.get_mut(tenant as usize - 1) {
                t.ok += 1;
                if cold {
                    t.cold += 1;
                }
                if evicted {
                    t.evicted += 1;
                }
            }
        }
    }

    fn record_throttled(&mut self, tenant: u16) {
        self.throttled += 1;
        if tenant > 0 {
            if let Some(t) = self.per_tenant.get_mut(tenant as usize - 1) {
                t.throttled += 1;
            }
        }
    }

    fn record_error(&mut self, tenant: u16) {
        self.errors += 1;
        if tenant > 0 {
            if let Some(t) = self.per_tenant.get_mut(tenant as usize - 1) {
                t.errors += 1;
            }
        }
    }
}

/// Error used by a connection that stops because *another* connection
/// failed — distinguished from genuine failures in the per-node summary.
fn abort_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        "replay aborted: another connection failed",
    )
}

/// Sends one connection's schedule with pipelining; parses responses in
/// order (HTTP/1.1 guarantees response ordering per connection).
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    mut stream: TcpStream,
    conn: usize,
    schedule: &[Event],
    start_ts: u64,
    speedup: f64,
    window: usize,
    tenants: usize,
    trace_sample: usize,
    started: Instant,
    abort: &AtomicBool,
) -> io::Result<ConnResult> {
    let mut reader = ConnBuf::new(stream.try_clone()?);

    let window = window.max(1);
    let paced = speedup.is_finite() && speedup > 0.0;
    let mut result = ConnResult::new(schedule.len(), tenants);
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut body: Vec<u8> = Vec::with_capacity(64);
    let mut in_flight: std::collections::VecDeque<(Instant, u16, Option<u64>)> =
        std::collections::VecDeque::with_capacity(window);

    let read_one = |reader: &mut ConnBuf,
                    in_flight: &mut std::collections::VecDeque<(Instant, u16, Option<u64>)>,
                    result: &mut ConnResult|
     -> io::Result<()> {
        let status = reader.read_reply()?.owed()?.status()?;
        let (sent_at, tenant, trace) = in_flight.pop_front().expect("response without request");
        let rtt_ns = sent_at.elapsed().as_nanos() as u64;
        result.latencies_us.push(rtt_ns as f64 / 1_000.0);
        result.latency_ns.record(rtt_ns);
        if let Some(id) = trace {
            result.traces.push((id, rtt_ns));
        }
        if status == 200 {
            let body = reader.reply_body();
            result.record_verdict(
                tenant,
                find_subslice(body, b"\"verdict\":\"cold\""),
                find_subslice(body, b"\"evicted\":true"),
            );
        } else if status == 429 {
            result.record_throttled(tenant);
        } else {
            result.record_error(tenant);
        }
        Ok(())
    };

    for event in schedule {
        if abort.load(Ordering::Relaxed) {
            return Err(abort_error());
        }
        if paced {
            let target = Duration::from_secs_f64((event.ts - start_ts) as f64 / 1_000.0 / speedup);
            loop {
                let now = started.elapsed();
                if now >= target {
                    break;
                }
                if abort.load(Ordering::Relaxed) {
                    return Err(abort_error());
                }
                // Flush and settle outstanding responses before
                // sleeping: idle trace gaps are when responses drain, so
                // measured latency is the server's, not the pacing's.
                if !out.is_empty() {
                    stream.write_all(&out)?;
                    out.clear();
                }
                while !in_flight.is_empty() {
                    read_one(&mut reader, &mut in_flight, &mut result)?;
                }
                std::thread::sleep((target - now).min(Duration::from_millis(2)));
            }
        }

        // Every Nth request carries a client trace id the serving node
        // adopts as its span id (conn in the high half, sequence in the
        // low — unique fleet-wide, top bit = the trace mark).
        let trace = if trace_sample > 0 && result.sent.is_multiple_of(trace_sample as u64) {
            Some(TRACE_MARK | ((conn as u64) << 32) | (result.sent & 0xFFFF_FFFF))
        } else {
            None
        };
        body.clear();
        write_invoke_body(&mut body, event);
        write_request(&mut out, "POST", "/invoke", trace, &body)?;
        // sitw-lint: allow(clock-discipline)
        in_flight.push_back((Instant::now(), event.tenant, trace));
        result.sent += 1;

        if in_flight.len() >= window {
            stream.write_all(&out)?;
            out.clear();
            read_one(&mut reader, &mut in_flight, &mut result)?;
        }
    }
    stream.write_all(&out)?;
    out.clear();
    while !in_flight.is_empty() {
        read_one(&mut reader, &mut in_flight, &mut result)?;
    }
    Ok(result)
}

/// Sends one connection's schedule as SITW-BIN frames of `batch`
/// records, keeping up to `window` records in flight across frames.
/// Per-record latency is the latency of the frame that carried it.
#[allow(clippy::too_many_arguments)]
fn drive_connection_bin(
    mut stream: TcpStream,
    conn: usize,
    schedule: &[Event],
    start_ts: u64,
    speedup: f64,
    window: usize,
    batch: usize,
    tenants: usize,
    tenant_ids: &[u16],
    trace_sample: usize,
    started: Instant,
    abort: &AtomicBool,
) -> io::Result<ConnResult> {
    let mut reader = ConnBuf::new(stream.try_clone()?);

    let batch = batch.clamp(1, wire::MAX_BATCH);
    let window = window.max(batch);
    let paced = speedup.is_finite() && speedup > 0.0;
    let tenanted = tenants > 0;
    let mut result = ConnResult::new(schedule.len(), tenants);
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    // The frame under construction (app names owned until encoded).
    let mut building: Vec<(u16, String, u64)> = Vec::with_capacity(batch);
    // In-flight frames: when they were written, their records' tenants
    // (one entry per record, in frame order), and the frame's trace id
    // when it was sampled.
    let mut in_flight: std::collections::VecDeque<(Instant, Vec<u16>, Option<u64>)> =
        std::collections::VecDeque::new();
    let mut in_flight_records = 0usize;
    let mut frames_sent = 0u64;

    #[allow(clippy::too_many_arguments)]
    fn flush_frame(
        building: &mut Vec<(u16, String, u64)>,
        tenanted: bool,
        tenant_ids: &[u16],
        conn: usize,
        trace_sample: usize,
        frames_sent: &mut u64,
        out: &mut Vec<u8>,
        in_flight: &mut std::collections::VecDeque<(Instant, Vec<u16>, Option<u64>)>,
        in_flight_records: &mut usize,
    ) {
        if building.is_empty() {
            return;
        }
        // A frame is the wire unit of work, so sampling tags every Nth
        // *frame*; its trace id spans every record it carries. Traced
        // frames must speak v2 (the trace field is version-gated), so
        // an untenanted sampled frame encodes v2 with the default
        // tenant id rather than v1.
        let trace = if trace_sample > 0 && frames_sent.is_multiple_of(trace_sample as u64) {
            Some(TRACE_MARK | ((conn as u64) << 32) | (*frames_sent & 0xFFFF_FFFF))
        } else {
            None
        };
        *frames_sent += 1;
        let wire_id = |t: u16| {
            if tenanted {
                tenant_ids[t as usize - 1]
            } else {
                0
            }
        };
        match trace {
            Some(id) => {
                let records: Vec<(u16, &str, u64)> = building
                    .iter()
                    .map(|(t, a, ts)| (wire_id(*t), a.as_str(), *ts))
                    .collect();
                wire::encode_request_frame_v2_traced(out, &records, id);
            }
            None if tenanted => {
                // Map the logical tenant index (1-based `tK`) to the
                // wire id the server's registry assigned.
                let records: Vec<(u16, &str, u64)> = building
                    .iter()
                    .map(|(t, a, ts)| (wire_id(*t), a.as_str(), *ts))
                    .collect();
                wire::encode_request_frame_v2(out, &records);
            }
            None => {
                let records: Vec<(&str, u64)> = building
                    .iter()
                    .map(|(_, a, ts)| (a.as_str(), *ts))
                    .collect();
                wire::encode_request_frame(out, &records);
            }
        }
        let tenants_of_frame: Vec<u16> = building.iter().map(|(t, _, _)| *t).collect();
        *in_flight_records += tenants_of_frame.len();
        // sitw-lint: allow(clock-discipline)
        in_flight.push_back((Instant::now(), tenants_of_frame, trace));
        building.clear();
    }

    let read_one_frame =
        |reader: &mut ConnBuf,
         in_flight: &mut std::collections::VecDeque<(Instant, Vec<u16>, Option<u64>)>,
         in_flight_records: &mut usize,
         result: &mut ConnResult|
         -> io::Result<()> {
            let records = match reader.read_reply()?.owed()? {
                Reply::Frame(ServerFrameDecode::Reply { records, .. }) => Some(records),
                // A typed error frame answers the whole request frame.
                Reply::Frame(ServerFrameDecode::Error { .. }) => None,
                // The generator sends only request frames, so anything
                // else means a confused peer.
                _ => return Err(http::invalid("unexpected reply to a request frame")),
            };
            let (sent_at, frame_tenants, trace) =
                in_flight.pop_front().expect("reply without frame");
            let count = frame_tenants.len();
            *in_flight_records -= count;
            let rtt_ns = sent_at.elapsed().as_nanos() as u64;
            let latency_us = rtt_ns as f64 / 1_000.0;
            result.latency_ns.record_n(rtt_ns, count as u64);
            if let Some(id) = trace {
                result.traces.push((id, rtt_ns));
            }
            match records {
                Some(records) => {
                    if records.len() != count {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("reply of {} records for frame of {count}", records.len()),
                        ));
                    }
                    for (r, tenant) in records.into_iter().zip(frame_tenants) {
                        result.latencies_us.push(latency_us);
                        match r {
                            BinReply::Verdict { cold, evicted, .. } => {
                                result.record_verdict(tenant, cold, evicted);
                            }
                            BinReply::Throttled => result.record_throttled(tenant),
                            BinReply::OutOfOrder { .. } => result.record_error(tenant),
                        }
                    }
                }
                None => {
                    for tenant in frame_tenants {
                        result.latencies_us.push(latency_us);
                        result.record_error(tenant);
                    }
                }
            }
            Ok(())
        };

    for event in schedule {
        if abort.load(Ordering::Relaxed) {
            return Err(abort_error());
        }
        if paced {
            let target = Duration::from_secs_f64((event.ts - start_ts) as f64 / 1_000.0 / speedup);
            loop {
                let now = started.elapsed();
                if now >= target {
                    break;
                }
                if abort.load(Ordering::Relaxed) {
                    return Err(abort_error());
                }
                // Idle trace gaps: ship the partial frame and settle all
                // replies, so measured latency is the server's.
                flush_frame(
                    &mut building,
                    tenanted,
                    tenant_ids,
                    conn,
                    trace_sample,
                    &mut frames_sent,
                    &mut out,
                    &mut in_flight,
                    &mut in_flight_records,
                );
                if !out.is_empty() {
                    stream.write_all(&out)?;
                    out.clear();
                }
                while !in_flight.is_empty() {
                    read_one_frame(
                        &mut reader,
                        &mut in_flight,
                        &mut in_flight_records,
                        &mut result,
                    )?;
                }
                std::thread::sleep((target - now).min(Duration::from_millis(2)));
            }
        }

        building.push((event.tenant, app_name(event.app), event.ts));
        result.sent += 1;
        if building.len() >= batch {
            flush_frame(
                &mut building,
                tenanted,
                tenant_ids,
                conn,
                trace_sample,
                &mut frames_sent,
                &mut out,
                &mut in_flight,
                &mut in_flight_records,
            );
        }
        if in_flight_records + building.len() >= window {
            if !out.is_empty() {
                stream.write_all(&out)?;
                out.clear();
            }
            if !in_flight.is_empty() {
                read_one_frame(
                    &mut reader,
                    &mut in_flight,
                    &mut in_flight_records,
                    &mut result,
                )?;
            }
        }
    }
    flush_frame(
        &mut building,
        tenanted,
        tenant_ids,
        conn,
        trace_sample,
        &mut frames_sent,
        &mut out,
        &mut in_flight,
        &mut in_flight_records,
    );
    if !out.is_empty() {
        stream.write_all(&out)?;
        out.clear();
    }
    while !in_flight.is_empty() {
        read_one_frame(
            &mut reader,
            &mut in_flight,
            &mut in_flight_records,
            &mut result,
        )?;
    }
    Ok(result)
}

fn app_name(app: u32) -> String {
    format!("app-{app:06}")
}

/// Resolves the wire ids of tenants `t0..tN-1` against the server's
/// registry (`GET /admin/tenants`): index k → the id of tenant `tK`.
/// Errors when any expected tenant is missing, instead of silently
/// replaying into someone else's namespace.
fn resolve_tenant_ids(addr: SocketAddr, n: usize) -> io::Result<Vec<u16>> {
    // The one control-plane call a replay makes before it starts.
    let wait = Duration::from_secs(5);
    let (_, body) = http::call(addr, "GET", "/admin/tenants", b"", wait, wait)?;
    let listing = wire::parse_tenant_listing(&body);
    let id_of = |k: usize| {
        listing.get(&format!("t{k}")).copied().ok_or_else(|| {
            http::invalid(format!(
                "tenant 't{k}' is not registered on the server \
                 (start it with --tenants {n} or matching --tenant flags)"
            ))
        })
    };
    (0..n).map(id_of).collect()
}

fn tenant_name(tenant: u16) -> String {
    debug_assert!(tenant > 0);
    format!("t{}", tenant - 1)
}

fn write_invoke_body(out: &mut Vec<u8>, event: &Event) {
    out.extend_from_slice(b"{\"app\":\"");
    out.extend_from_slice(app_name(event.app).as_bytes());
    out.extend_from_slice(b"\",\"ts\":");
    crate::wire::push_u64(out, event.ts);
    if event.tenant > 0 {
        out.extend_from_slice(b",\"tenant\":\"");
        out.extend_from_slice(tenant_name(event.tenant).as_bytes());
        out.push(b'"');
    }
    out.push(b'}');
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_partition_by_app_and_stay_ordered() {
        let cfg = LoadGenConfig {
            apps: 40,
            connections: 3,
            max_events: 5_000,
            ..LoadGenConfig::default()
        };
        let schedules = build_schedules(&cfg);
        assert_eq!(schedules.len(), 3);
        let total: usize = schedules.iter().map(|s| s.len()).sum();
        assert!(total > 0 && total <= 5_000);
        // Every app lives on exactly one connection (per-app ordering),
        // every connection stays time-ordered, and the round-robin
        // assignment leaves no connection empty when apps outnumber
        // connections.
        let mut owner: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for (conn, schedule) in schedules.iter().enumerate() {
            assert!(!schedule.is_empty(), "connection {conn} got no apps");
            assert!(schedule.windows(2).all(|w| w[0].ts <= w[1].ts));
            for event in schedule {
                assert_eq!(*owner.entry(event.app).or_insert(conn), conn);
            }
        }
    }

    #[test]
    fn high_connection_counts_spread_apps_densely() {
        // The old `app_id % connections` partition left most of 64
        // connections empty for 40 apps with gappy ids; first-appearance
        // round-robin drives exactly min(apps, connections) sockets and
        // balances them.
        let cfg = LoadGenConfig {
            apps: 40,
            connections: 64,
            max_events: 4_000,
            ..LoadGenConfig::default()
        };
        let schedules = build_schedules(&cfg);
        assert_eq!(schedules.len(), 64);
        let driven = schedules.iter().filter(|s| !s.is_empty()).count();
        let distinct: std::collections::HashSet<u32> =
            schedules.iter().flatten().map(|e| e.app).collect();
        assert_eq!(
            driven,
            distinct.len().min(64),
            "one connection per active app"
        );
        assert!(driven > 16, "spread beyond the modulo partition's reach");

        // With more apps than connections, every connection is driven
        // and no connection hoards: spread stays within a factor of the
        // even share.
        let cfg = LoadGenConfig {
            apps: 300,
            connections: 16,
            max_events: 8_000,
            ..LoadGenConfig::default()
        };
        let schedules = build_schedules(&cfg);
        let sizes: Vec<usize> = schedules.iter().map(|s| s.len()).collect();
        assert!(sizes.iter().all(|&n| n > 0), "{sizes:?}");
        let mean = sizes.iter().sum::<usize>() / sizes.len();
        assert!(
            sizes.iter().all(|&n| n < mean * 4),
            "no hot connection: {sizes:?}"
        );
    }

    #[test]
    fn cluster_replay_fails_fast_with_per_node_summary() {
        // A peer that accepts and immediately drops every connection:
        // the moral equivalent of a node killed mid-replay. Before the
        // fail-fast fix this surfaced as a bare io::Error with no node
        // attribution (and siblings replayed their whole schedules
        // against the dead peer before the error was even reported).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming().take(4) {
                drop(stream);
            }
        });
        let cfg = LoadGenConfig {
            apps: 50,
            connections: 4,
            max_events: 2_000,
            ..LoadGenConfig::default()
        };
        let err = run_loadgen_cluster(&[addr], &cfg).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("per-node errors"), "{msg}");
        assert!(msg.contains(&addr.to_string()), "{msg}");
        accept.join().unwrap();
    }

    #[test]
    fn tenant_assignment_is_deterministic_and_complete() {
        for (n, s) in [(1usize, 0.0), (4, 0.0), (4, 1.2), (7, 2.0)] {
            let mut seen = vec![0u64; n];
            for app in 0..2_000u32 {
                let t = tenant_of(app, n, s);
                assert!((1..=n as u16).contains(&t));
                assert_eq!(t, tenant_of(app, n, s), "deterministic");
                seen[t as usize - 1] += 1;
            }
            assert!(seen.iter().all(|&c| c > 0), "every tenant drawn: {seen:?}");
            if s > 0.0 && n > 1 {
                assert!(seen[0] > seen[n - 1], "zipf skew favours rank 0: {seen:?}");
            }
        }
    }

    #[test]
    fn tenanted_schedules_tag_every_event() {
        let cfg = LoadGenConfig {
            apps: 50,
            connections: 2,
            max_events: 2_000,
            tenants: 3,
            zipf: 1.0,
            ..LoadGenConfig::default()
        };
        for schedule in build_schedules(&cfg) {
            for event in schedule {
                assert!((1..=3).contains(&event.tenant));
            }
        }
    }

    #[test]
    fn proto_parse_forms() {
        assert_eq!(Proto::parse("json").unwrap(), Proto::Json);
        assert_eq!(Proto::parse("bin").unwrap(), Proto::Bin { batch: 16 });
        assert_eq!(
            Proto::parse("bin:batch=128").unwrap(),
            Proto::Bin { batch: 128 }
        );
        assert!(Proto::parse("bin:batch=0").is_err());
        assert!(Proto::parse(&format!("bin:batch={}", wire::MAX_BATCH + 1)).is_err());
        assert!(Proto::parse("grpc").is_err());
        assert_eq!(Proto::Bin { batch: 16 }.label(), "bin:batch=16");
    }

    #[test]
    fn find_subslice_works() {
        assert!(find_subslice(
            b"abc\"verdict\":\"cold\"x",
            b"\"verdict\":\"cold\""
        ));
        assert!(!find_subslice(
            b"\"verdict\":\"warm\"",
            b"\"verdict\":\"cold\""
        ));
    }
}
