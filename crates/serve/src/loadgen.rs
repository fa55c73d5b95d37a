//! Trace-driven load generator: a windowed closed loop at full speed.
//!
//! Replays a synthetic `sitw_trace` workload against running daemons as
//! fast as they answer. Each connection keeps up to
//! [`LoadGenConfig::window`] invocations in flight and sends more only as
//! replies come back, so the replay measures the throughput and latency
//! of a full window, not of an offered load.
//!
//! One loop drives both protocols: a connection's schedule leaves as
//! messages of up to `batch` records — one `POST /invoke` per record for
//! JSON, SITW-BIN request frames of the configured batch — and replies
//! are read in order. Only encoding a message and turning its reply into
//! per-record verdicts depend on the protocol.
//!
//! Apps are assigned to connections round-robin by first appearance (an
//! app's requests must stay ordered, and the server requires per-app
//! timestamp monotonicity, so an app sticks to one connection — but the
//! dense assignment keeps all `--connections N` sockets busy at high
//! fan-in). A record's latency is the round trip of the message that
//! carried it, reported as exact percentiles; the summary's
//! `max_live_conns=` line reports how many connections the run actually
//! drove (the reactor's high-fan-in smoke asserts it).
//!
//! **Multi-tenant replay** ([`LoadGenConfig::tenants`]): each app is
//! deterministically assigned to one of N tenants — optionally with
//! Zipf-skewed popularity (`--tenants N:zipf=s`, rank r weighing
//! `1/(r+1)^s`) — and every request carries the tenant: JSON bodies gain
//! a `"tenant":"tK"` member, SITW-BIN records carry the tenant id instead
//! of the default tenant's 0. Tenant names are `t0..tN-1`, wire ids `1..=N` (the
//! server's registration order). The summary reports per-tenant
//! throughput and verdict mix, including budget-eviction downgrades.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
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
    /// SITW-BIN frames of `batch` invocations each.
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
    /// Parallel connections.
    pub connections: usize,
    /// Invocations in flight per connection, across its unanswered
    /// messages (at least one SITW-BIN batch).
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
    /// Tag every Nth message, request (JSON) or frame (SITW-BIN), with a
    /// client trace id — `X-Sitw-Trace` header / the frame's trace field —
    /// so its spans can be found end to end in `/debug/trace` output. 0 = off.
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
    /// Invocations sent.
    pub sent: u64,
    /// Invocations answered with a verdict.
    pub ok: u64,
    /// Cold verdicts among `ok`.
    pub cold: u64,
    /// Warm verdicts among `ok`.
    pub warm: u64,
    /// Invocations answered with an error (non-200 / out-of-order /
    /// error frames).
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
            "{} decisions in {:.2}s = {:.0}/s | cold {} ({:.1}%) warm {} evicted {} errors {} | \
             latency µs p50 {:.0} p95 {:.0} p99 {:.0} max {:.0}",
            self.ok,
            self.elapsed.as_secs_f64(),
            self.throughput,
            self.cold,
            100.0 * self.cold as f64 / (self.ok.max(1)) as f64,
            self.warm,
            self.evicted,
            self.errors,
            self.latency_us.p50,
            self.latency_us.p95,
            self.latency_us.p99,
            self.latency_us.max,
        );
        for (k, t) in self.per_tenant.iter().enumerate() {
            let _ = write!(
                out,
                "\n  t{k}: {} decisions = {:.0}/s | cold {} ({:.1}%) evicted {} errors {}",
                t.ok,
                t.ok as f64 / self.elapsed.as_secs_f64().max(1e-9),
                t.cold,
                100.0 * t.cold as f64 / (t.ok.max(1)) as f64,
                t.evicted,
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
             \"evicted\":{},\"errors\":{},\"elapsed_s\":{:.6},\
             \"throughput\":{:.2},\
             \"cold_rate\":{:.6},\"latency_us\":{{\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1},\
             \"max\":{:.1}}},\"max_live_conns\":{}",
            self.sent,
            self.ok,
            self.cold,
            self.warm,
            self.evicted,
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
                "{{\"tenant\":\"t{k}\",\"ok\":{},\"cold\":{},\"evicted\":{},\"errors\":{}}}",
                t.ok, t.cold, t.evicted, t.errors
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

/// Replays the configured workload across `targets` and reports.
/// Connections are assigned round-robin, so `--cluster A,B,C` spreads a
/// replay over several nodes (or routers) at once.
///
/// **Fail-fast:** the first connection error flips a shared abort flag;
/// every other connection stops at its next record instead of
/// replaying its whole schedule against a dead peer, and the returned
/// error carries a per-node summary of which targets failed and why
/// (its kind is that of the first failure listed).
pub fn run_loadgen(targets: &[SocketAddr], cfg: &LoadGenConfig) -> io::Result<LoadGenReport> {
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
    // SITW-BIN records carry registry-assigned tenant ids, which are only
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

    // The load generator is the client side of the wire: its whole
    // output (throughput, RTT percentiles) is wall-clock measurement.
    // sitw-lint: allow(clock-discipline)
    let started = Instant::now();
    let abort = AtomicBool::new(false);
    let abort = &abort;
    let mut results: Vec<ConnResult> = Vec::new();
    // Per-node failure tally: addr → (failed connections, first error).
    let mut failures: BTreeMap<String, (u64, io::Error)> = BTreeMap::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (conn, (schedule, stream)) in schedules.iter().zip(streams).enumerate() {
            let Some(stream) = stream else { continue };
            let node_ids = &tenant_ids[conn % targets.len()];
            handles.push((
                node_of(conn),
                scope.spawn(move || {
                    let result = drive_connection(stream, conn, schedule, cfg, node_ids, abort);
                    if result.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    result
                }),
            ));
        }
        for (node, handle) in handles {
            let error = match handle.join() {
                Ok(Ok(result)) => {
                    results.push(result);
                    continue;
                }
                // An abort-interrupted connection is a follower, not a
                // cause: only genuine I/O failures name their node.
                Ok(Err(e)) if e.kind() == io::ErrorKind::Interrupted => continue,
                Ok(Err(e)) => e,
                Err(_) => io::Error::other("loadgen worker panicked"),
            };
            failures.entry(node.to_string()).or_insert((0, error)).0 += 1;
        }
    });
    if let Some((_, (_, first))) = failures.iter().next() {
        let detail: Vec<String> = failures
            .iter()
            .map(|(node, (n, e))| format!("{node}: {n} connection(s) failed ({e})"))
            .collect();
        return Err(io::Error::new(
            first.kind(),
            format!("replay aborted; per-node errors: {}", detail.join("; ")),
        ));
    }
    let elapsed = started.elapsed();

    let mut sent = 0u64;
    let mut all = TenantMix::default();
    let mut per_tenant: Vec<TenantMix> = vec![TenantMix::default(); cfg.tenants];
    let mut latencies: Vec<f64> = Vec::new();
    let mut latency_hist = Log2Histogram::new();
    let mut traces: Vec<(u64, u64)> = Vec::new();
    for mut r in results {
        sent += r.sent;
        all.add(&r.all);
        for (agg, t) in per_tenant.iter_mut().zip(&r.per_tenant) {
            agg.add(t);
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
        ok: all.ok,
        cold: all.cold,
        warm: all.ok - all.cold,
        errors: all.errors,
        elapsed,
        throughput: all.ok as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_us: LatencySummary {
            p50: lat(50.0),
            p95: lat(95.0),
            p99: lat(99.0),
            max: latencies.last().copied().unwrap_or(0.0),
        },
        latency_hist,
        evicted: all.evicted,
        per_tenant,
        max_live_conns,
        traces,
    })
}

struct ConnResult {
    sent: u64,
    all: TenantMix,
    /// Index k = tenant `tK` (wire id k + 1); empty when untenanted.
    per_tenant: Vec<TenantMix>,
    latencies_us: Vec<f64>,
    latency_ns: Log2Histogram,
    /// `(trace_id, rtt_ns)` of sampled messages on this connection.
    traces: Vec<(u64, u64)>,
}

impl ConnResult {
    fn new(capacity: usize, tenants: usize) -> ConnResult {
        ConnResult {
            sent: 0,
            all: TenantMix::default(),
            per_tenant: vec![TenantMix::default(); tenants],
            latencies_us: Vec::with_capacity(capacity),
            latency_ns: Log2Histogram::new(),
            traces: Vec::new(),
        }
    }

    /// Counts one record's answer for the run and for its tenant (`tK`
    /// is K + 1, 0 = untenanted): `(cold, evicted)` of a verdict, or
    /// `None` for an error.
    fn record(&mut self, tenant: u16, verdict: Option<(bool, bool)>) {
        let own = tenant
            .checked_sub(1)
            .and_then(|k| self.per_tenant.get_mut(k as usize));
        for mix in std::iter::once(&mut self.all).chain(own) {
            match verdict {
                Some((cold, evicted)) => {
                    mix.ok += 1;
                    mix.cold += u64::from(cold);
                    mix.evicted += u64::from(evicted);
                }
                None => mix.errors += 1,
            }
        }
    }
}

impl TenantMix {
    fn add(&mut self, other: &TenantMix) {
        self.ok += other.ok;
        self.cold += other.cold;
        self.evicted += other.evicted;
        self.errors += other.errors;
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

/// A message written and not yet answered: when it was written, the
/// schedule range it carries, and its trace id when it was sampled.
type InFlight = (Instant, Range<usize>, Option<u64>);

/// Sends one connection's schedule as messages of up to `batch` records
/// (one per JSON request), keeping up to `window` records in flight, and
/// reads the replies in order (HTTP/1.1 and SITW-BIN both answer a
/// connection in order). The window is checked after every record, so
/// a JSON replay refills a full window one request per `write`.
fn drive_connection(
    mut stream: TcpStream,
    conn: usize,
    schedule: &[Event],
    cfg: &LoadGenConfig,
    tenant_ids: &[u16],
    abort: &AtomicBool,
) -> io::Result<ConnResult> {
    let mut reader = ConnBuf::new(stream.try_clone()?);
    let batch = match cfg.proto {
        Proto::Json => 1,
        Proto::Bin { batch } => batch.clamp(1, wire::MAX_BATCH),
    };
    let window = cfg.window.max(batch);
    let mut result = ConnResult::new(schedule.len(), cfg.tenants);
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut body: Vec<u8> = Vec::with_capacity(64);
    let mut messages = 0u64;
    // Encodes `schedule[range]` as one message behind `out`.
    let mut send = |out: &mut Vec<u8>, in_flight: &mut VecDeque<InFlight>, range: Range<usize>| {
        // Every Nth message carries a client trace id the serving node
        // adopts as its span id (conn in the high half, sequence in the
        // low — unique fleet-wide, top bit = the trace mark); a frame's
        // id spans every record it carries.
        let trace = (cfg.trace_sample > 0 && messages.is_multiple_of(cfg.trace_sample as u64))
            .then_some(TRACE_MARK | ((conn as u64) << 32) | (messages & 0xFFFF_FFFF));
        messages += 1;
        let records = &schedule[range.clone()];
        match cfg.proto {
            Proto::Json => {
                body.clear();
                write_invoke_body(&mut body, &records[0]);
                write_request(out, "POST", "/invoke", trace, &body)?;
            }
            Proto::Bin { .. } => {
                // Tenant `tK` (logical 1-based index) travels as the id
                // the server's registry assigned; untenanted runs speak
                // for the default tenant, id 0.
                let wire_id = |t: u16| t.checked_sub(1).map_or(0, |k| tenant_ids[k as usize]);
                let names: Vec<String> = records.iter().map(|e| app_name(e.app)).collect();
                let records = records.iter().zip(&names);
                let records = records.map(|(e, name)| (wire_id(e.tenant), name.as_str(), e.ts));
                wire::encode_request_frame_v2_from(out, records, trace);
            }
        }
        // sitw-lint: allow(clock-discipline)
        in_flight.push_back((Instant::now(), range, trace));
        io::Result::Ok(())
    };

    // The message under construction is `schedule[first..end]`.
    let mut first = 0;
    for end in 1..=schedule.len() {
        if abort.load(Ordering::Relaxed) {
            return Err(abort_error());
        }
        result.sent += 1;
        if end - first == batch {
            send(&mut out, &mut in_flight, first..end)?;
            first = end;
        }
        // Messages are consecutive ranges answered in order, so the
        // records held are those from the oldest unanswered one on.
        if end - in_flight.front().map_or(first, |m| m.1.start) >= window {
            stream.write_all(&out)?;
            out.clear();
            if let Some(message) = in_flight.pop_front() {
                read_reply(&mut reader, message, schedule, &mut result)?;
            }
        }
    }
    if first < schedule.len() {
        send(&mut out, &mut in_flight, first..schedule.len())?;
    }
    stream.write_all(&out)?;
    while let Some(message) = in_flight.pop_front() {
        read_reply(&mut reader, message, schedule, &mut result)?;
    }
    Ok(result)
}

/// Reads the reply to the oldest message in flight and counts a verdict
/// or an error for every record it carried. A JSON `200` must be a
/// decision and any other status is an error for its one record; a
/// reply frame's records are its verdicts, an out-of-order record an
/// error, and a typed error frame fails every record of the frame. A
/// body that is no decision, or a reply of the wrong number of records,
/// fails the replay with `InvalidData`.
fn read_reply(
    reader: &mut ConnBuf,
    (sent_at, range, trace): InFlight,
    schedule: &[Event],
    result: &mut ConnResult,
) -> io::Result<()> {
    let reply = reader.read_reply()?.owed()?;
    let rtt_ns = sent_at.elapsed().as_nanos() as u64;
    let records = &schedule[range];
    let count = records.len();
    result.latency_ns.record_n(rtt_ns, count as u64);
    let latency_us = rtt_ns as f64 / 1_000.0;
    result
        .latencies_us
        .extend(std::iter::repeat_n(latency_us, count));
    if let Some(id) = trace {
        result.traces.push((id, rtt_ns));
    }
    let miscounted = |got: usize| http::invalid(format!("reply of {got} records for {count}"));
    match reply {
        Reply::Http(status) => {
            let [event] = records else {
                return Err(miscounted(1));
            };
            if status != 200 {
                result.record(event.tenant, None);
                return Ok(());
            }
            let body = std::str::from_utf8(reader.reply_body()).map_err(http::invalid)?;
            let decision = wire::parse_decision(body).map_err(http::invalid)?;
            result.record(event.tenant, Some((decision.cold, decision.evicted)));
        }
        Reply::Frame(ServerFrameDecode::Reply {
            records: verdicts, ..
        }) => {
            if verdicts.len() != count {
                return Err(miscounted(verdicts.len()));
            }
            for (verdict, event) in verdicts.into_iter().zip(records) {
                let verdict = match verdict {
                    BinReply::Verdict { cold, evicted, .. } => Some((cold, evicted)),
                    BinReply::OutOfOrder { .. } => None,
                };
                result.record(event.tenant, verdict);
            }
        }
        Reply::Frame(ServerFrameDecode::Error { .. }) => {
            records.iter().for_each(|e| result.record(e.tenant, None));
        }
        // The generator sends only invocations, so anything else means
        // a confused peer.
        other => return Err(http::invalid(format!("unexpected reply {other:?}"))),
    }
    Ok(())
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
                 (give a node matching --tenant flags, or a router --tenants {n})"
            ))
        })
    };
    (0..n).map(id_of).collect()
}

fn write_invoke_body(out: &mut Vec<u8>, event: &Event) {
    // Writes to a `Vec` cannot fail.
    let _ = write!(
        out,
        "{{\"app\":\"{}\",\"ts\":{}",
        app_name(event.app),
        event.ts
    );
    if event.tenant > 0 {
        let _ = write!(out, ",\"tenant\":\"t{}\"", event.tenant - 1);
    }
    out.push(b'}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_requests_take_both_early_exits() {
        // Bytes exactly as the send loop writes them (`write_request`,
        // untraced): the server reads their header in one pass, and an
        // untenanted body too (a tenant's goes to the general parser). A
        // refactor that silently turns either early exit off fails here.
        for event in [
            Event {
                ts: 0,
                app: 17,
                tenant: 0,
            },
            Event {
                ts: 86_400_000,
                app: 999_999,
                tenant: 3,
            },
        ] {
            let (mut body, mut out) = (Vec::new(), Vec::new());
            write_invoke_body(&mut body, &event);
            write_request(&mut out, "POST", "/invoke", None, &body).unwrap();
            let head = out.len() - body.len() - 4;
            assert_eq!(&out[head..head + 4], b"\r\n\r\n");
            let mut req = http::Request::default();
            let declared = http::parse_invoke_header(&out[..head], &mut req);
            assert_eq!(declared, Some(body.len() as u64));
            let mut invoke = wire::InvokeRequest::default();
            let one_pass = wire::parse_canonical_invoke(&body, &mut invoke);
            assert_eq!(one_pass.is_some(), event.tenant == 0);
            // A traced request is the general parser's.
            out.clear();
            write_request(&mut out, "POST", "/invoke", Some(1), &body).unwrap();
            let head = out.len() - body.len() - 4;
            assert_eq!(http::parse_invoke_header(&out[..head], &mut req), None);
        }
    }

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
        let err = run_loadgen(&[addr], &cfg).unwrap_err();
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
}
