//! Seed → inputs: the synthetic population, the merged invocation
//! stream split into an untimed warm-up part and a timed part, the
//! per-connection schedules, and the offline oracle's expected reply for
//! every event.
//!
//! The program under test receives only what is generated here; the seed
//! itself never crosses the process boundary.

use sitw_core::{DecisionKind, PolicySpec, Windows};
use sitw_fleet::{fnv1a, footprint_mb, mix64, FleetSim, FleetVerdict, TenantRegistry};
use sitw_serve::wire::{self, BinReply};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// Connections the harness drives (the issue's ceiling on this host).
pub const CONNECTIONS: usize = 2;

/// Seed of the application population. The fleet of apps (rates,
/// archetypes, timers) is the same in every run; `--seed` drives the
/// arrival streams. A per-seed population would make the policy-quality
/// metrics measure which apps happened to be drawn, not the policy.
pub const POPULATION_SEED: u64 = 0x5171_7E57;

/// Fixed keep-alive the wasted-memory metric is normalised to (§5: the
/// paper's baseline is the 10-minute fixed policy).
const BASELINE_KEEP_ALIVE_MS: u64 = 10 * 60_000;

/// What to generate for one server workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSpec {
    /// Applications in the population.
    pub apps: usize,
    /// Per-app daily event cap of the trace generator.
    pub cap_per_day: f64,
    /// Trace days replayed untimed to build the warm snapshot.
    pub warm_days: u64,
    /// Trace days generated after the warm-up (the timed stream is cut
    /// from these; the run stops early if it ever drains them).
    pub timed_days: u64,
    /// Upper bound on timed events kept (memory and oracle cost).
    pub max_timed_events: usize,
    /// Leading timed events the policy-quality metrics are computed
    /// over: fixed per workload so the metrics do not depend on how
    /// far a faster or slower build gets in `--seconds`.
    pub quality_events: usize,
    /// Named tenants (`t0..`); 0 = untenanted (default tenant only).
    pub tenants: usize,
    /// Zipf skew of the app → tenant assignment.
    pub zipf: f64,
    /// Each tenant's memory budget as a share of the summed footprint
    /// of its apps (0 = unbudgeted).
    pub budget_share: f64,
}

/// One invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Trace milliseconds.
    pub ts: u64,
    /// Application index (wire name `app-NNNNNN`).
    pub app: u32,
    /// Registry tenant id: 0 = default tenant, k = tenant `t{k-1}`.
    pub tenant: u16,
}

/// The oracle's answer for one event, in the two forms the clients
/// compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// bit 0 cold, bit 1 pre-warm load, bit 2 evicted, bits 3.. kind.
    pub flags: u8,
    /// Pre-warm window, ms, saturated at `u32::MAX` (49 days) exactly
    /// as SITW-BIN reply records saturate it; JSON replies are
    /// saturated the same way before they are compared.
    pub pre_warm_ms: u32,
    /// Keep-alive window, ms, saturated likewise.
    pub keep_alive_ms: u32,
}

impl Expect {
    /// Packs a verdict.
    pub fn new(
        cold: bool,
        prewarm_load: bool,
        evicted: bool,
        kind: DecisionKind,
        w: Windows,
    ) -> Self {
        Expect {
            flags: cold as u8
                | (prewarm_load as u8) << 1
                | (evicted as u8) << 2
                | kind_code(kind) << 3,
            pre_warm_ms: w.pre_warm_ms.min(u32::MAX as u64) as u32,
            keep_alive_ms: w.keep_alive_ms.min(u32::MAX as u64) as u32,
        }
    }

    /// The windows (saturated).
    pub fn windows(&self) -> Windows {
        Windows {
            pre_warm_ms: self.pre_warm_ms as u64,
            keep_alive_ms: self.keep_alive_ms as u64,
        }
    }

    /// The decision branch.
    pub fn kind(&self) -> DecisionKind {
        match self.flags >> 3 {
            0 => DecisionKind::Histogram,
            1 => DecisionKind::StandardKeepAlive,
            2 => DecisionKind::Arima,
            _ => DecisionKind::Static,
        }
    }

    /// The same verdict as a SITW-BIN reply record.
    pub fn to_bin(&self) -> BinReply {
        BinReply::Verdict {
            cold: self.flags & 1 != 0,
            prewarm_load: self.flags & 2 != 0,
            evicted: self.flags & 4 != 0,
            kind: self.kind(),
            pre_warm_ms: self.pre_warm_ms,
            keep_alive_ms: self.keep_alive_ms,
        }
    }
}

fn kind_code(kind: DecisionKind) -> u8 {
    match kind {
        DecisionKind::Histogram => 0,
        DecisionKind::StandardKeepAlive => 1,
        DecisionKind::Arima => 2,
        DecisionKind::Static => 3,
    }
}

/// One connection's share of a phase: events in send order, the
/// expected reply of each, and the expected replies pre-encoded as
/// contiguous 9-byte SITW-BIN v2 records (what BIN clients `memcmp`).
#[derive(Debug, Default, Clone)]
pub struct Schedule {
    /// Events in send order (time-ordered; an app or a named tenant
    /// lives on exactly one connection).
    pub events: Vec<Event>,
    /// `expect[i]` answers `events[i]`.
    pub expect: Vec<Expect>,
    /// `expect` as wire records, `REPLY_RECORD_LEN` bytes each.
    pub expect_bin: Vec<u8>,
}

/// Policy-quality figures over the quality prefix of the timed stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// 75th percentile over apps of per-app cold-start % (Fig. 15 axis).
    pub cold_start_pct_p75: f64,
    /// Wasted memory time as % of fixed 10-minute keep-alive on the
    /// same gaps.
    pub wasted_mem_norm_pct: f64,
    /// Events in the prefix.
    pub events: usize,
    /// Apps seen in the prefix.
    pub apps: usize,
}

/// Decision-branch and eviction counts over the whole timed stream
/// (exact: they come from the oracle every reply is checked against).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounts {
    /// Decisions by the histogram branch.
    pub histogram: u64,
    /// Decisions by the standard keep-alive branch.
    pub standard: u64,
    /// Decisions by the ARIMA branch.
    pub arima: u64,
    /// Budget-eviction downgrades.
    pub evicted: u64,
    /// All decisions counted.
    pub total: u64,
}

/// Everything one server workload run needs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Tenant names, budgets (MB) — `t{k}` is registry id `k + 1`.
    pub tenants: Vec<(String, u64)>,
    /// Warm-up schedules, one per connection.
    pub warm: Vec<Schedule>,
    /// Timed schedules, one per connection.
    pub timed: Vec<Schedule>,
    /// Quality metrics of the timed prefix.
    pub quality: Quality,
    /// For each connection, how many of its timed events fall inside
    /// the quality prefix (a run that verified at least these on every
    /// connection may report `quality`).
    pub quality_per_conn: Vec<usize>,
    /// Branch mix of the timed stream.
    pub branches: BranchCounts,
}

impl Inputs {
    /// Total timed events.
    pub fn timed_len(&self) -> usize {
        self.timed.iter().map(|s| s.events.len()).sum()
    }

    /// Total warm-up events.
    pub fn warm_len(&self) -> usize {
        self.warm.iter().map(|s| s.events.len()).sum()
    }

    /// The offline registry the oracle ran with (default tenant hybrid).
    pub fn registry(&self) -> TenantRegistry {
        registry_of(&self.tenants)
    }
}

/// Wire name of an app.
pub fn app_name(app: u32) -> String {
    format!("app-{app:06}")
}

/// Appends the wire name of an app without allocating.
pub fn push_app_name(out: &mut Vec<u8>, app: u32) {
    out.extend_from_slice(b"app-");
    let mut digits = [b'0'; 6];
    let mut v = app;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    if v > 0 {
        // More than six digits: fall back to the general rendering.
        out.truncate(out.len() - 4);
        out.extend_from_slice(app_name(app).as_bytes());
        return;
    }
    out.extend_from_slice(&digits);
}

fn hybrid() -> PolicySpec {
    PolicySpec::parse("hybrid").expect("hybrid parses")
}

fn registry_of(tenants: &[(String, u64)]) -> TenantRegistry {
    let mut r = TenantRegistry::new(hybrid());
    for (name, budget) in tenants {
        r.register(name, hybrid(), *budget)
            .expect("tenant names are t0..tN");
    }
    r
}

/// Deterministic Zipf-weighted tenant of an app: registry id `1..=n`.
fn tenant_of(app: u32, n: usize, s: f64) -> u16 {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
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

/// The merged, time-ordered stream of the whole horizon. Apps are
/// independent, so the two halves of the population generate on two
/// threads.
fn merged_events(spec: &InputSpec, seed: u64) -> Vec<Event> {
    let population = build_population(&PopulationConfig {
        num_apps: spec.apps,
        seed: POPULATION_SEED,
    });
    let trace_cfg = TraceConfig {
        horizon_ms: (spec.warm_days + spec.timed_days) * DAY_MS,
        cap_per_day: spec.cap_per_day,
        seed: seed ^ 0x10AD,
    };
    let half = population.apps.len() / 2;
    let gen = |apps: &[sitw_trace::AppProfile]| {
        let mut out = Vec::new();
        for app in apps {
            let tenant = if spec.tenants > 0 {
                tenant_of(app.id.0, spec.tenants, spec.zipf)
            } else {
                0
            };
            out.extend(
                app_invocations(app, &trace_cfg)
                    .into_iter()
                    .map(|ts| Event {
                        ts,
                        app: app.id.0,
                        tenant,
                    }),
            );
        }
        out.sort_unstable_by_key(|e| (e.ts, e.app));
        out
    };
    let (a, b) = std::thread::scope(|scope| {
        let right = scope.spawn(|| gen(&population.apps[half..]));
        let left = gen(&population.apps[..half]);
        (left, right.join().expect("trace generation does not panic"))
    });
    // Merge the two sorted halves.
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if (a[i].ts, a[i].app) <= (b[j].ts, b[j].app) {
            merged.push(a[i]);
            i += 1;
        } else {
            merged.push(b[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// Expected verdicts of one oracle job, in the order of its events.
///
/// A job is a set of events closed under app and tenant. Budgeted
/// tenants replay through [`FleetSim`] (ledger, budgets, evictions).
/// Streams without a budget replay app by app through
/// [`sitw_sim::verdict_trace`]: with no budget there are no evictions,
/// so the two oracles agree verdict for verdict (the fleet crate's own
/// tests pin that), and the per-app form skips the ledger those
/// verdicts cannot depend on — an order of magnitude less oracle time
/// per event.
fn expected(events: &[Event], tenants: &[(String, u64)], apps: usize) -> Vec<Expect> {
    let budgeted = events
        .first()
        .is_some_and(|e| e.tenant > 0 && tenants[e.tenant as usize - 1].1 > 0);
    if !budgeted {
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); apps];
        for (i, e) in events.iter().enumerate() {
            positions[e.app as usize].push(i as u32);
        }
        let blank = Expect::new(
            false,
            false,
            false,
            DecisionKind::Static,
            Windows::keep_loaded(0),
        );
        let mut out = vec![blank; events.len()];
        let spec = hybrid();
        let mut ts = Vec::new();
        for pos in positions.iter().filter(|p| !p.is_empty()) {
            ts.clear();
            ts.extend(pos.iter().map(|&i| events[i as usize].ts));
            let mut policy = spec.new_policy();
            for (v, &i) in sitw_sim::verdict_trace(&ts, policy.as_mut())
                .iter()
                .zip(pos)
            {
                out[i as usize] = Expect::new(v.cold, v.prewarm_load, false, v.kind, v.windows);
            }
        }
        return out;
    }
    let mut sim = FleetSim::new(&registry_of(tenants));
    let mut name = Vec::with_capacity(16);
    events
        .iter()
        .map(|e| {
            name.clear();
            push_app_name(&mut name, e.app);
            let app = std::str::from_utf8(&name).expect("ascii app name");
            let v: FleetVerdict = sim
                .step(e.tenant, app, e.ts)
                .expect("generated streams are monotone per app and name known tenants");
            Expect::new(v.cold, v.prewarm_load, v.evicted, v.kind, v.windows)
        })
        .collect()
}

/// Quality and branch accounting of one connection's stream.
struct ConnAccount {
    cold_pcts: Vec<f64>,
    wasted: u128,
    wasted_baseline: u128,
    branches: BranchCounts,
}

fn account(
    events: &[Event],
    expect: &[Expect],
    warm_len: usize,
    quality_len: usize,
    apps: usize,
) -> ConnAccount {
    #[derive(Default, Clone, Copy)]
    struct AppQuality {
        events: u32,
        cold: u32,
    }
    let mut per_app = vec![AppQuality::default(); apps];
    // Timestamp and windows of each app's previous decision.
    let mut prev: Vec<Option<(u64, Windows)>> = vec![None; apps];
    let (mut wasted, mut wasted_baseline) = (0u128, 0u128);
    let mut branches = BranchCounts::default();
    for (i, (e, x)) in events.iter().zip(expect).enumerate() {
        if i >= warm_len {
            branches.total += 1;
            match x.kind() {
                DecisionKind::Histogram => branches.histogram += 1,
                DecisionKind::StandardKeepAlive => branches.standard += 1,
                DecisionKind::Arima => branches.arima += 1,
                DecisionKind::Static => {}
            }
            branches.evicted += (x.flags >> 2 & 1) as u64;
        }
        if i >= warm_len && i < warm_len + quality_len {
            let q = &mut per_app[e.app as usize];
            q.events += 1;
            q.cold += (x.flags & 1) as u32;
            if let Some((last_ts, windows)) = prev[e.app as usize] {
                let idle = e.ts - last_ts;
                // An evicted image stopped holding memory at an unknown
                // point of the gap; charging nothing is the conservative
                // reading and keeps the arithmetic exact.
                if x.flags & 4 == 0 {
                    wasted += windows.classify_gap(idle).wasted_ms as u128;
                }
                wasted_baseline += idle.min(BASELINE_KEEP_ALIVE_MS) as u128;
            }
        }
        prev[e.app as usize] = Some((e.ts, x.windows()));
    }
    ConnAccount {
        cold_pcts: per_app
            .iter()
            .filter(|q| q.events > 0)
            .map(|q| 100.0 * q.cold as f64 / q.events as f64)
            .collect(),
        wasted,
        wasted_baseline,
        branches,
    }
}

impl Schedule {
    fn new(events: Vec<Event>, expect: Vec<Expect>) -> Schedule {
        // The codec's own encoder renders the expected records, so the
        // comparison tracks the wire format by construction; only the
        // frame header is stripped.
        let mut expect_bin = Vec::with_capacity(expect.len() * wire::REPLY_RECORD_LEN);
        let mut framed = Vec::new();
        let mut records = Vec::with_capacity(wire::MAX_BATCH);
        for chunk in expect.chunks(wire::MAX_BATCH) {
            records.clear();
            records.extend(chunk.iter().map(Expect::to_bin));
            framed.clear();
            wire::encode_reply_records(&mut framed, wire::BIN_VERSION_2, &records);
            expect_bin.extend_from_slice(&framed[wire::BIN_HEADER_LEN..]);
        }
        Schedule {
            events,
            expect,
            expect_bin,
        }
    }
}

/// Generates the inputs of one server workload from `seed`.
pub fn generate(spec: &InputSpec, seed: u64) -> Inputs {
    let merged = merged_events(spec, seed);
    let warm_end = spec.warm_days * DAY_MS;
    let split = merged.partition_point(|e| e.ts < warm_end);
    let timed_end = (split + spec.max_timed_events).min(merged.len());
    let quality_end = (split + spec.quality_events).min(timed_end);
    let events = &merged[..timed_end];

    // Tenants, budgets, and the connection each event goes out on. A
    // named tenant's ledger sees its events in one order only if they
    // share a connection, so tenants (not apps) are spread over the
    // connections, heaviest first; untenanted apps go round-robin by
    // first appearance like `sitw-loadgen`.
    let mut tenants: Vec<(String, u64)> = Vec::new();
    let mut tenant_conn = vec![0usize; spec.tenants + 1];
    let mut load = vec![0u64; spec.tenants + 1];
    if spec.tenants > 0 {
        let mut footprint = vec![0u64; spec.tenants + 1];
        let mut seen = vec![false; spec.apps];
        for (i, e) in events.iter().enumerate() {
            load[e.tenant as usize] += 1;
            // Budgets are set against the apps active in the warm-up
            // window, so pressure is already steady when timing starts
            // instead of building up as rarer apps first appear.
            if i < split && !std::mem::replace(&mut seen[e.app as usize], true) {
                let name = format!("t{}", e.tenant - 1);
                footprint[e.tenant as usize] += footprint_mb(&name, &app_name(e.app));
            }
        }
        for (k, mb) in footprint.iter().enumerate().skip(1) {
            // The heaviest-ranked tenant runs unmetered (a first-party
            // tenant); the others get a budget.
            let budget = if k == 1 {
                0
            } else {
                (*mb as f64 * spec.budget_share).round() as u64
            };
            tenants.push((format!("t{}", k - 1), budget));
        }
        let mut order: Vec<usize> = (1..=spec.tenants).collect();
        order.sort_by_key(|&k| (std::cmp::Reverse(load[k]), k));
        let mut conn_load = [0u64; CONNECTIONS];
        for k in order {
            let conn = (0..CONNECTIONS)
                .min_by_key(|&c| (conn_load[c], c))
                .expect("at least one connection");
            conn_load[conn] += load[k];
            tenant_conn[k] = conn;
        }
    }
    let mut app_conn = vec![usize::MAX; spec.apps];
    let mut next_conn = 0usize;
    let mut per_conn: Vec<Vec<Event>> = vec![Vec::new(); CONNECTIONS];
    let mut warm_len = [0usize; CONNECTIONS];
    let mut quality_per_conn = vec![0usize; CONNECTIONS];
    // Oracle jobs: one per named tenant (tenants are independent), or
    // one per connection for untenanted streams (apps are independent).
    let job_count = if spec.tenants > 0 {
        spec.tenants
    } else {
        CONNECTIONS
    };
    let mut jobs: Vec<Vec<Event>> = vec![Vec::new(); job_count];
    for (i, e) in events.iter().enumerate() {
        let conn = if e.tenant > 0 {
            tenant_conn[e.tenant as usize]
        } else {
            let slot = &mut app_conn[e.app as usize];
            if *slot == usize::MAX {
                *slot = next_conn;
                next_conn = (next_conn + 1) % CONNECTIONS;
            }
            *slot
        };
        per_conn[conn].push(*e);
        warm_len[conn] += (i < split) as usize;
        quality_per_conn[conn] += (i >= split && i < quality_end) as usize;
        jobs[if e.tenant > 0 {
            e.tenant as usize - 1
        } else {
            conn
        }]
        .push(*e);
    }
    drop(merged);

    // Two oracle threads; jobs go to the thread with less estimated
    // work, costliest first (a budgeted event costs about ten unmetered
    // ones).
    let cost = |j: usize| {
        let budgeted = spec.tenants > 0 && tenants[j].1 > 0;
        jobs[j].len() as u64 * if budgeted { 10 } else { 1 }
    };
    let mut order: Vec<usize> = (0..job_count).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(cost(j)), j));
    let mut thread_jobs: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut thread_cost = [0u64; 2];
    for j in order {
        let t = if thread_cost[0] <= thread_cost[1] {
            0
        } else {
            1
        };
        thread_cost[t] += cost(j);
        thread_jobs[t].push(j);
    }
    let mut job_expect: Vec<Vec<Expect>> = vec![Vec::new(); job_count];
    let run = |mine: &[usize]| -> Vec<(usize, Vec<Expect>)> {
        mine.iter()
            .map(|&j| (j, expected(&jobs[j], &tenants, spec.apps)))
            .collect()
    };
    std::thread::scope(|scope| {
        let other = scope.spawn(|| run(&thread_jobs[1]));
        let mut done = run(&thread_jobs[0]);
        done.extend(other.join().expect("the oracle does not panic"));
        for (j, x) in done {
            job_expect[j] = x;
        }
    });
    drop(jobs);

    // Back to connection order: a connection's events of one job keep
    // their relative order, so each job is consumed front to back.
    let mut cursor = vec![0usize; job_count];
    let mut cold_pcts = Vec::new();
    let (mut wasted, mut wasted_baseline) = (0u128, 0u128);
    let mut branches = BranchCounts::default();
    let (mut warm, mut timed) = (Vec::new(), Vec::new());
    for (conn, mut conn_events) in per_conn.into_iter().enumerate() {
        let mut expect: Vec<Expect> = conn_events
            .iter()
            .map(|e| {
                let j = if e.tenant > 0 {
                    e.tenant as usize - 1
                } else {
                    conn
                };
                cursor[j] += 1;
                job_expect[j][cursor[j] - 1]
            })
            .collect();
        let a = account(
            &conn_events,
            &expect,
            warm_len[conn],
            quality_per_conn[conn],
            spec.apps,
        );
        cold_pcts.extend(a.cold_pcts);
        wasted += a.wasted;
        wasted_baseline += a.wasted_baseline;
        branches.histogram += a.branches.histogram;
        branches.standard += a.branches.standard;
        branches.arima += a.branches.arima;
        branches.evicted += a.branches.evicted;
        branches.total += a.branches.total;
        let timed_events = conn_events.split_off(warm_len[conn]);
        let timed_expect = expect.split_off(warm_len[conn]);
        warm.push(Schedule::new(conn_events, expect));
        timed.push(Schedule::new(timed_events, timed_expect));
    }
    cold_pcts.sort_by(f64::total_cmp);
    let quality = Quality {
        cold_start_pct_p75: crate::stats::percentile_sorted(&cold_pcts, 75.0),
        wasted_mem_norm_pct: if wasted_baseline == 0 {
            0.0
        } else {
            100.0 * wasted as f64 / wasted_baseline as f64
        },
        events: quality_end - split,
        apps: cold_pcts.len(),
    };

    Inputs {
        tenants,
        warm,
        timed,
        quality,
        quality_per_conn,
        branches,
    }
}
