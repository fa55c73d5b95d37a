//! Shards: each [`ShardWorker`] holds the per-tenant, per-application
//! policy state for one slice of the fleet, and the server keeps each one
//! behind its own mutex.
//!
//! There is no shard thread. The reactor thread that read a SITW-BIN
//! frame or a run of JSON requests partitions it by `(tenant, app)`
//! route, then locks each touched shard in ascending order, one at a
//! time, and decides that shard's slice in arrival order
//! (`ShardWorker::decide`); control paths lock a shard and call its
//! methods the same way. A shard is therefore touched by one thread at a
//! time, and uncontended its lock costs two atomic operations. The fleet
//! extends the per-app isolation argument one level up: default-tenant
//! apps spread over shards by app hash (apps are independent, §5.1), and
//! each *named* tenant lands whole on one shard (tenant-name hash), so
//! its memory ledger — whose eviction decisions couple apps to each
//! other — has one writer at a time and a shard-count-independent event
//! order.
//!
//! A panic while a shard is locked may leave its decision state half
//! updated, so the lock is never recovered: the server refuses work for a
//! poisoned shard with a typed error and keeps serving the others.
//!
//! Every tenant is one [`sitw_fleet::TenantState`] — the decision kernel
//! the offline `FleetSim` steps too: per-app policy state under the
//! tenant's one policy configuration (plus its backup clock in
//! production mode) and a [`sitw_fleet::TenantLedger`] charging each warm container its
//! deterministic Burr footprint. When a charge pushes a budgeted tenant
//! over its limit, victims (earliest keep-alive expiry first) are marked
//! evicted; their next invocation is downgraded to a cold start with
//! the `evicted` flag set — the memory-pressure dimension the paper's
//! §3.4 trade-off implies but a stateless verdict oracle cannot
//! express. The worker adds what only a daemon has: counters, the
//! replication frontier, lifecycle events, `/debug/policy`, export.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use sitw_core::PolicySpec;
use sitw_fleet::{
    footprint_mb, AppState, OutOfOrder, ServedPolicy, TenantId, TenantSpec, TenantState,
};
use sitw_telemetry::{
    EventKind, EventRing, FlightRecorder, Gate, Log2Histogram, Stage, WallClock, EVENT_RING,
};

use crate::metrics::{ProtoHists, ShardStats, TenantStats, TRACE_RING};
use crate::snapshot::{ShardExport, TenantExport};
use crate::wire::BinInvoke;

/// One keep-alive decision, as returned to a client: the kernel's
/// verdict under the name the wire and the harness know it by.
pub use sitw_fleet::FleetVerdict as Decision;
pub use sitw_fleet::TenantRestore;

/// Why an invocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// The timestamp is older than the app's last accepted one. Policy
    /// state is a function of the ordered idle-time stream, so
    /// out-of-order delivery must be surfaced, not silently folded in.
    OutOfOrder {
        /// The app's last accepted timestamp.
        last_ts: u64,
    },
    /// The tenant id is not registered on this shard. Unreachable from
    /// the daemon's connection path (ids are validated against the
    /// registry before deciding); kept as a typed error so the shard
    /// never panics on a protocol-level race.
    UnknownTenant,
    /// The owning shard's lock is poisoned: a panic mid-step may have
    /// left its state half updated, so it decides nothing more. The
    /// daemon answers a JSON request with 503 and a frame with an
    /// `Unavailable` error frame.
    Unavailable,
}

/// One record of a batched invoke: the frame-relative index plus the
/// invocation itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// Position of this record in its frame (replies are reassembled in
    /// frame order across shards).
    pub idx: u32,
    /// Tenant the app belongs to.
    pub tenant: TenantId,
    /// Application id.
    pub app: String,
    /// Invocation timestamp (trace milliseconds).
    pub ts: u64,
}

/// A shard's answers to one [`ShardWorker::invoke_batch`]: `(idx,
/// result)` pairs in submission order, tagged with the batch they
/// answer.
#[derive(Debug, Default)]
pub struct BatchReply {
    /// The sequence number the batch was submitted with.
    pub frame_seq: u64,
    /// One result per submitted item, tagged with its frame index.
    pub results: Vec<(u32, Result<Decision, InvokeError>)>,
}

/// The span ids one slice's queue and decide stages are recorded under,
/// and the protocol whose histograms they land in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Spans<'a> {
    /// A SITW-BIN frame: one span covers every record.
    Frame(u64),
    /// A run of JSON requests: one span per request, indexed like the
    /// run (a request's propagated `x-sitw-trace` id is its span). Empty
    /// when telemetry is off.
    Json(&'a [u64]),
}

/// Per-shard telemetry: stage histograms kept under the shard's lock,
/// plus the flight recorder and event ring shared with the control
/// path. The reactor deciding a slice records into them; a scrape reads
/// the histograms under the shard's lock, and only the recorder and the
/// ring reach beyond it.
#[derive(Debug)]
pub struct ShardTelem {
    /// Master switch; when off the shard does no timing at all.
    pub enabled: bool,
    /// Shared-epoch clock.
    pub clock: WallClock,
    /// Recent spans recorded by this worker (`/debug/trace` snapshots
    /// it non-destructively).
    pub recorder: Arc<Mutex<FlightRecorder>>,
    /// Node-wide lifecycle event ring, shared across shards
    /// (`/debug/events`). Events carry workload timestamps: no clock
    /// reads.
    pub events: Arc<Mutex<EventRing>>,
    /// Shard lock wait (asked for → held), per protocol.
    pub queue: ProtoHists,
    /// Policy decision latency, per protocol.
    pub decide: ProtoHists,
}

impl Default for ShardTelem {
    fn default() -> Self {
        Self {
            enabled: true,
            clock: WallClock::default(),
            recorder: Arc::new(Mutex::new(FlightRecorder::new(TRACE_RING))),
            events: Arc::new(Mutex::new(EventRing::new(EVENT_RING))),
            queue: ProtoHists::default(),
            decide: ProtoHists::default(),
        }
    }
}

impl Gate for ShardTelem {
    #[inline]
    fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn clock(&self) -> &WallClock {
        &self.clock
    }
}

/// Messages [`ShardWorker::run`] accepts: a mailbox over the methods
/// the server calls under the shard's lock, for a worker that owns its
/// thread.
pub enum ShardMsg {
    /// Renders one app's live policy state as JSON — the decision
    /// provenance view behind `GET /debug/policy`. Replies `None` when
    /// the tenant or app has no state on this shard.
    PolicyProbe {
        /// Tenant the app belongs to.
        tenant: TenantId,
        /// Application id.
        app: String,
        /// The rendered JSON body, or `None` if unknown.
        reply: Sender<Option<String>>,
    },
    /// Stop; the worker returns its final state.
    Shutdown,
}

/// One shard's half of a replication round (`ShardWorker::export_dirty`):
/// the state mutated since the requested frontier, plus the frontier to
/// ask from next round.
#[derive(Debug)]
pub struct DirtyShardExport {
    /// The worker's mutation sequence at export time. Feeding it back
    /// as `since` on the next round yields exactly the mutations in
    /// between — a lost round re-sends, never skips.
    pub seq: u64,
    /// The complete tenant list with apps filtered to the dirty set.
    pub export: ShardExport,
}

/// One tenant on this shard: its decision state, plus what only a
/// daemon keeps beside it.
struct TenantShard {
    state: TenantState,
    invocations: u64,
    cold: u64,
    /// Pre-warm events scheduled so far in production mode (each one
    /// `prewarm_slack_ms` before the computed window, per §6).
    prewarm_scheduled: u64,
    /// Decision latency for this tenant's invocations, nanoseconds.
    decide_ns: Log2Histogram,
}

impl TenantShard {
    fn new(state: TenantState) -> TenantShard {
        TenantShard {
            state,
            invocations: 0,
            cold: 0,
            prewarm_scheduled: 0,
            decide_ns: Log2Histogram::new(),
        }
    }
}

/// One shard's state: its tenants, counters and telemetry.
pub struct ShardWorker {
    id: usize,
    tenants: HashMap<TenantId, TenantShard>,
    invocations: u64,
    cold: u64,
    prewarm_loads: u64,
    out_of_order: u64,
    /// Bumped on every state mutation (decision, budget change, tenant
    /// add/take/restore); apps are stamped with it so replication
    /// rounds can export the dirty subset without pausing the shard.
    mutation_seq: u64,
    telem: ShardTelem,
    /// Per-slice `(tenant, records)` counts, reused across slices so
    /// per-tenant histogram attribution stays allocation-free.
    tenant_scratch: Vec<(TenantId, u64)>,
}

impl ShardWorker {
    /// Creates a worker for shard `id` serving `tenants` (the default
    /// tenant plus every named tenant routed to this shard), optionally
    /// restoring their state.
    pub fn new(id: usize, tenants: Vec<TenantRestore>) -> Result<Self, String> {
        // Startup-restored apps stamp dirty sequence 0: a follower
        // attaching to a fresh primary full-syncs anyway, so they need
        // no delta visibility.
        let tenants = tenants
            .into_iter()
            .map(|restore| TenantState::restore(restore, 0).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self::with_tenants(id, tenants))
    }

    /// A worker for shard `id` serving `tenants`, already built (the
    /// daemon's restore, [`crate::restore`]).
    pub(crate) fn with_tenants(id: usize, tenants: Vec<TenantState>) -> Self {
        let mut worker = Self {
            id,
            tenants: HashMap::with_capacity(tenants.len()),
            invocations: 0,
            cold: 0,
            prewarm_loads: 0,
            out_of_order: 0,
            mutation_seq: 0,
            telem: ShardTelem::default(),
            tenant_scratch: Vec::new(),
        };
        worker.install(tenants);
        worker
    }

    fn install(&mut self, tenants: Vec<TenantState>) {
        for state in tenants {
            self.tenants
                .insert(state.spec().id, TenantShard::new(state));
        }
    }

    /// Replaces the worker's telemetry wiring (recorder, gauge, clock,
    /// enable switch) — the server threads its shared handles in here.
    pub fn with_telem(mut self, telem: ShardTelem) -> Self {
        self.telem = telem;
        self
    }

    /// Registers a fresh tenant (admin path). Bumps the mutation
    /// sequence: the tenant list is part of the replicated state, so
    /// the next round must fire even though no app is dirty yet.
    pub fn add_tenant(&mut self, spec: TenantSpec) {
        self.mutation_seq += 1;
        self.tenants
            .entry(spec.id)
            .or_insert_with(|| TenantShard::new(TenantState::new(spec)));
    }

    /// Serves one invocation: [`TenantState::step`] decides — the step
    /// `sitw_sim::fleet_verdict_trace` replays offline — and the shard
    /// adds what only a daemon has: the tenant lookup, its counters, the
    /// replication frontier, and the lifecycle events.
    // sitw-lint: hot-path
    pub fn invoke(
        &mut self,
        tenant: TenantId,
        app: &str,
        ts: u64,
    ) -> Result<Decision, InvokeError> {
        // The dirty stamp of every record this invocation mutates
        // (committed to `mutation_seq` only on the success path — an
        // out-of-order rejection changes no replicated state).
        let seq = self.mutation_seq + 1;
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or(InvokeError::UnknownTenant)?;
        let served = match t.state.step(app, ts, seq) {
            Ok(served) => served,
            Err(OutOfOrder { last_ts }) => {
                self.out_of_order += 1;
                return Err(InvokeError::OutOfOrder { last_ts });
            }
        };
        let decision = served.verdict;
        // Under a biting budget evictions are as common as cold starts,
        // so the event is written into the ring's own buffers —
        // try_lock, never blocking the decision path. Stamped with
        // workload time: the ring stays deterministic and costs no
        // clock read.
        for victim in served.victims {
            self.telem
                .event(&self.telem.events, ts, EventKind::Eviction, |ev| {
                    ev.tenant.push_str(&served.tenant.name);
                    ev.app.push_str(victim);
                    let _ = write!(ev.detail, "budget {} MB", served.tenant.budget_mb);
                });
        }

        t.invocations += 1;
        self.invocations += 1;
        self.mutation_seq = seq;
        // An unload/pre-warm cycle in production mode puts a pre-warm
        // event on the schedule (fired 90 s early, off the critical
        // path).
        if decision.windows.pre_warm_ms > 0 && t.state.production().is_some() {
            t.prewarm_scheduled += 1;
        }
        if decision.cold {
            t.cold += 1;
            self.cold += 1;
            // A tenth to a quarter of decisions: written in place like
            // the eviction event.
            self.telem
                .event(&self.telem.events, ts, EventKind::ColdStart, |ev| {
                    ev.tenant.push_str(&t.state.spec().name);
                    ev.app.push_str(app);
                    if decision.evicted {
                        ev.detail.push_str("eviction downgrade");
                    }
                });
        }
        if decision.prewarm_load {
            self.prewarm_loads += 1;
        }
        Ok(decision)
    }

    /// Classifies a whole batch in order. Decisions are identical to
    /// calling [`ShardWorker::invoke`] per item — batching only changes
    /// transport cost, never outcomes.
    pub fn invoke_batch(&mut self, frame_seq: u64, items: Vec<BatchItem>) -> BatchReply {
        let results = items
            .iter()
            .map(|item| (item.idx, self.invoke(item.tenant, &item.app, item.ts)))
            .collect();
        BatchReply { frame_seq, results }
    }

    /// Decides this shard's slice of a frame or JSON run: the records at
    /// `slice`'s indexes, in that order, each result written at its
    /// record's index. Decisions are identical to calling
    /// [`ShardWorker::invoke`] per record. The caller holds the shard's
    /// lock and asked for it at `wait_ns`, so with telemetry on the queue
    /// stage is the lock wait; the slice is clocked once and each record
    /// recorded at the slice mean, which keeps the stage histograms
    /// invocation-weighted with exact counts and no clock read per
    /// decision. An index out of range is skipped, not a panic.
    // sitw-lint: hot-path
    pub(crate) fn decide(
        &mut self,
        records: &[BinInvoke],
        slice: &[u32],
        results: &mut [Result<Decision, InvokeError>],
        spans: Spans<'_>,
        wait_ns: u64,
    ) {
        let mut decide_all = |worker: &mut Self| {
            for &i in slice {
                let i = i as usize;
                if let (Some(r), Some(slot)) = (records.get(i), results.get_mut(i)) {
                    *slot = worker.invoke(r.tenant, &r.app, r.ts);
                }
            }
        };
        if !self.telem.enabled() {
            // Telemetry off: no clock reads, no histogram touches — the
            // decisions are the whole hot path.
            decide_all(self);
            return;
        }
        // Per-tenant record counts (scratch reused across slices).
        self.tenant_scratch.clear();
        for r in slice.iter().filter_map(|&i| records.get(i as usize)) {
            match self.tenant_scratch.iter_mut().find(|(t, _)| *t == r.tenant) {
                Some((_, c)) => *c += 1,
                None => self.tenant_scratch.push((r.tenant, 1)),
            }
        }
        let n = slice.len() as u64;
        let t0 = self.telem.now();
        decide_all(self);
        let t1 = self.telem.now();
        let mean = t1.saturating_sub(t0).checked_div(n).unwrap_or(0);
        let (queue, decide) = match spans {
            Spans::Frame(_) => (&mut self.telem.queue.bin, &mut self.telem.decide.bin),
            Spans::Json(_) => (&mut self.telem.queue.json, &mut self.telem.decide.json),
        };
        queue.record_n(t0.saturating_sub(wait_ns), n);
        decide.record_n(mean, n);
        for &(tid, c) in &self.tenant_scratch {
            if let Some(t) = self.tenants.get_mut(&tid) {
                t.decide_ns.record_n(mean, c);
            }
        }
        // Losing the race to a /debug/trace scrape drops the spans,
        // never blocks the decision path.
        self.telem.try_with(&self.telem.recorder, |rec| {
            let mut push = |span| {
                rec.push_spans([span], Stage::Queue, wait_ns, t0);
                rec.push_spans([span], Stage::Decide, t0, t1);
            };
            match spans {
                Spans::Frame(span) => push(span),
                Spans::Json(ids) => {
                    for &i in slice {
                        if let Some(&span) = ids.get(i as usize) {
                            push(span);
                        }
                    }
                }
            }
        });
    }

    /// Replaces a tenant's memory budget (0 = unlimited); `false` when
    /// the tenant does not live here. Enforcement is lazy — the new
    /// budget bites on the *next* charge — so applying a
    /// cluster-reconciled share never rewrites verdicts retroactively.
    pub(crate) fn set_budget(&mut self, tenant: TenantId, budget_mb: u64) -> bool {
        let Some(t) = self.tenants.get_mut(&tenant) else {
            return false;
        };
        t.state.set_budget(budget_mb);
        // Specs replicate with the tenant list, so the bump alone makes
        // the next round carry the new budget.
        self.mutation_seq += 1;
        true
    }

    /// Exports a tenant's complete state and removes it from the shard
    /// (the first half of a cross-node migration); `None` when the
    /// tenant does not live here. Traffic arriving after the take gets
    /// typed `UnknownTenant` errors, never a panic.
    pub(crate) fn take_tenant(&mut self, tenant: TenantId) -> Option<TenantExport> {
        let t = self.tenants.remove(&tenant)?;
        // Removal replicates through the (authoritative) tenant list of
        // the next round.
        self.mutation_seq += 1;
        // Migrations carry no workload timestamp: domain time 0, the
        // direction in `detail`.
        self.telem
            .event(&self.telem.events, 0, EventKind::Migration, |ev| {
                ev.tenant.push_str(&t.state.spec().name);
                ev.detail.push_str("take");
            });
        Some(Self::export_tenant(&t))
    }

    /// The stamp state restored into this shard now must carry: past
    /// the replication frontier, so every restored app rides the next
    /// round.
    pub(crate) fn restore_stamp(&self) -> u64 {
        self.mutation_seq + 1
    }

    /// Installs a migrated tenant from its payload (the target half of a
    /// migration), replacing any state for its id. Nothing changes
    /// unless the payload restores.
    pub(crate) fn restore(&mut self, tenant: TenantRestore) -> Result<(), String> {
        let seq = self.restore_stamp();
        let state = TenantState::restore(tenant, seq).map_err(|e| e.to_string())?;
        self.telem
            .event(&self.telem.events, 0, EventKind::Migration, |ev| {
                ev.tenant.push_str(&state.spec().name);
                ev.detail.push_str("restore");
            });
        self.install(vec![state]);
        self.mutation_seq = seq;
        Ok(())
    }

    /// Replaces every tenant with `tenants`, built stamped `seq` (this
    /// shard's [`ShardWorker::restore_stamp`]): a standby's whole
    /// partition of its replica at promotion.
    pub(crate) fn replace_tenants(&mut self, tenants: Vec<TenantState>, seq: u64) {
        self.tenants.clear();
        self.install(tenants);
        self.mutation_seq = seq;
    }

    /// Renders one app's live policy state as JSON (`GET
    /// /debug/policy`); `None` when the tenant or app has no state here.
    pub fn policy_probe(&self, tenant: TenantId, app: &str) -> Option<String> {
        let t = self.tenants.get(&tenant)?;
        let state = t.state.app(app)?;
        Some(render_policy(t.state.spec(), app, state))
    }

    /// Counters and latency histograms.
    pub(crate) fn stats(&self) -> ShardStats {
        let mut tenants: Vec<TenantStats> = self
            .tenants
            .values()
            .map(|t| {
                let ledger = t.state.ledger().stats();
                let spec = t.state.spec();
                TenantStats {
                    id: spec.id,
                    name: spec.name.clone(),
                    budget_mb: spec.budget_mb,
                    warm_mb: ledger.warm_mb,
                    warm_apps: ledger.warm_apps,
                    evictions: ledger.evictions,
                    idle_mb_ms: ledger.idle_mb_ms,
                    invocations: t.invocations,
                    cold: t.cold,
                    decision_ns: t.decide_ns.clone(),
                }
            })
            .collect();
        tenants.sort_by_key(|t| t.id);
        ShardStats {
            shard: self.id,
            apps: self
                .tenants
                .values()
                .map(|t| t.state.num_apps() as u64)
                .sum(),
            invocations: self.invocations,
            cold: self.cold,
            warm: self.invocations - self.cold,
            prewarm_loads: self.prewarm_loads,
            out_of_order: self.out_of_order,
            backups: self
                .tenants
                .values()
                .filter_map(|t| t.state.production())
                .map(|m| m.backups_taken())
                .sum(),
            prewarm_scheduled: self.tenants.values().map(|t| t.prewarm_scheduled).sum(),
            queue_ns: self.telem.queue.clone(),
            decide_ns: self.telem.decide.clone(),
            tenants,
        }
    }

    fn export_tenant(t: &TenantShard) -> TenantExport {
        Self::export_tenant_if(t, |_| true)
    }

    /// Exports one tenant with its app records filtered by `keep` —
    /// the full snapshot keeps everything, a replication round keeps
    /// the dirty subset. Tenant-level state (spec, ledger, production
    /// clock) is always exported whole: it is O(1) per tenant, and
    /// carrying it every round is what lets delta application replace
    /// it wholesale instead of diffing.
    fn export_tenant_if(t: &TenantShard, keep: impl Fn(&AppState) -> bool) -> TenantExport {
        let spec = t.state.spec();
        TenantExport {
            id: spec.id,
            name: spec.name.clone(),
            policy_label: spec.policy.label(),
            spec_str: spec.policy.spec_str(),
            budget_mb: spec.budget_mb,
            prod_clock: t.state.production().map(|m| m.last_backup_ms()),
            ledger: t.state.ledger().export(),
            apps: t.state.export_apps(keep),
        }
    }

    /// The complete per-app state.
    pub(crate) fn export(&self) -> ShardExport {
        self.export_dirty(None).export
    }

    /// One shard's half of a replication round: every tenant, with the
    /// app records mutated after `since` (all of them for `None`, a full
    /// sync), and the frontier they were taken at. Walks the app maps
    /// without mutating anything; under the shard's lock, so the
    /// frontier is exactly the exported state.
    ///
    /// The tenant list is always complete (specs, ledgers, clocks are
    /// cheap and carried wholesale every round); only the per-app
    /// records are filtered, so a delta costs the mutation rate, not the
    /// fleet size. Apps stamped at or before `since` are skipped.
    pub(crate) fn export_dirty(&self, since: Option<u64>) -> DirtyShardExport {
        let mut tenants: Vec<TenantExport> = self
            .tenants
            .values()
            .map(|t| Self::export_tenant_if(t, |s| since.is_none_or(|f| s.stamp > f)))
            .collect();
        tenants.sort_by_key(|t| t.id);
        DirtyShardExport {
            seq: self.mutation_seq,
            export: ShardExport { tenants },
        }
    }

    /// Serves a mailbox on the caller's thread until `Shutdown` (or every
    /// sender is gone), then returns the final per-app state. Each
    /// message calls the method the server calls under the shard's lock.
    pub fn run(self, mailbox: Receiver<ShardMsg>) -> ShardExport {
        while let Ok(msg) = mailbox.recv() {
            match msg {
                ShardMsg::PolicyProbe { tenant, app, reply } => {
                    let _ = reply.send(self.policy_probe(tenant, &app));
                }
                ShardMsg::Shutdown => break,
            }
        }
        self.export()
    }
}

/// Renders one app's live policy state as JSON — the decision
/// provenance view `GET /debug/policy` serves: the current windows,
/// the last verdict with its inputs, and (for hybrid apps) the learned
/// idle-time histogram plus the §4.2 classification the *next* gap
/// would run against, next to the thresholds that gate it.
fn render_policy(spec: &TenantSpec, app: &str, state: &AppState) -> String {
    use crate::wire::json_escape;
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"tenant\":\"{}\",\"app\":\"{}\",\"policy\":\"{}\",\"last_ts\":{},\
         \"evicted\":{},\"footprint_mb\":{},\
         \"windows\":{{\"pre_warm_ms\":{},\"keep_alive_ms\":{}}}",
        json_escape(&spec.name),
        json_escape(app),
        json_escape(&spec.policy.label()),
        state.last_ts,
        state.evicted,
        footprint_mb(&spec.name, app),
        state.windows.pre_warm_ms,
        state.windows.keep_alive_ms,
    );
    if let Some(v) = &state.last_verdict {
        let idle = match v.idle_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_owned(),
        };
        let _ = write!(
            out,
            ",\"last_verdict\":{{\"ts\":{},\"idle_ms\":{idle},\"cold\":{},\
             \"prewarm_load\":{},\"evicted\":{},\"branch\":\"{}\"}}",
            state.last_ts,
            v.cold,
            v.prewarm_load,
            v.evicted,
            crate::wire::kind_str(v.kind),
        );
    }
    if let (ServedPolicy::Hybrid(p), PolicySpec::Hybrid(cfg)) = (&state.policy, &spec.policy) {
        let h = p.histogram();
        let counts = p.decisions();
        let _ = write!(
            out,
            ",\"hybrid\":{{\"classification\":\"{}\",\"samples\":{},\
             \"oob_count\":{},\"oob_fraction\":{:.4},\"bin_count_cv\":{:.4},\
             \"thresholds\":{{\"min_samples\":{},\"oob_threshold\":{},\"cv_threshold\":{}}},\
             \"cutoffs\":{{\"head_percentile\":{},\"tail_percentile\":{}}},\
             \"decisions\":{{\"histogram\":{},\"standard\":{},\"arima\":{}}},\
             \"bin_width_minutes\":{},\"bins\":[",
            p.regime(cfg).label(),
            h.total_count(),
            h.oob_count(),
            h.oob_fraction(),
            h.bin_count_cv(),
            cfg.min_samples,
            cfg.oob_threshold,
            cfg.cv_threshold,
            cfg.head_percentile,
            cfg.tail_percentile,
            counts.histogram,
            counts.standard,
            counts.arima,
            h.bin_width(),
        );
        // Sparse export: `[bin, count]` pairs for the non-zero bins
        // only, so a 240-bin histogram stays a small body.
        let mut first = true;
        for (i, &c) in h.bins().iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{i},{c}]");
        }
        out.push_str("]}");
    }
    out.push('}');
    out
}

/// Maps an app id to its shard: FNV-1a over the id bytes, mod `shards`.
/// Stable across restarts (snapshots record app ids, not shard indexes,
/// so a restore can even change the shard count). Default-tenant
/// routing; named tenants route whole via
/// [`sitw_fleet::TenantRegistry::shard_of`].
pub fn shard_of(app: &str, shards: usize) -> usize {
    (sitw_fleet::fnv1a(app.as_bytes()) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{AppRecord, PolicyState};
    use sitw_core::{Windows, MINUTE_MS};
    use sitw_fleet::{LedgerExport, DEFAULT_TENANT, DEFAULT_TENANT_NAME};

    fn default_spec(spec: PolicySpec) -> TenantSpec {
        TenantSpec {
            id: DEFAULT_TENANT,
            name: DEFAULT_TENANT_NAME.to_owned(),
            policy: spec,
            budget_mb: 0,
        }
    }

    fn worker(spec: PolicySpec) -> ShardWorker {
        ShardWorker::new(0, vec![TenantRestore::fresh(default_spec(spec))]).unwrap()
    }

    impl ShardWorker {
        fn invoke0(&mut self, app: &str, ts: u64) -> Result<Decision, InvokeError> {
            self.invoke(DEFAULT_TENANT, app, ts)
        }
    }

    #[test]
    fn first_invocation_cold_then_warm_within_keep_alive() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        let d0 = w.invoke0("a", 0).unwrap();
        assert!(d0.cold);
        let d1 = w.invoke0("a", 5 * MINUTE_MS).unwrap();
        assert!(!d1.cold);
        let d2 = w.invoke0("a", 30 * MINUTE_MS).unwrap();
        assert!(d2.cold, "25-minute gap exceeds the 10-minute keep-alive");
        assert!(!d2.evicted, "keep-alive lapse is not an eviction");
        assert_eq!(w.stats().invocations, 3);
        assert_eq!(w.stats().cold, 2);
    }

    #[test]
    fn apps_are_isolated() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 0).unwrap();
        let db = w.invoke0("b", MINUTE_MS).unwrap();
        assert!(db.cold, "b's first invocation is cold regardless of a");
        assert_eq!(w.stats().apps, 2);
    }

    #[test]
    fn tenants_are_isolated_namespaces() {
        let mut w = ShardWorker::new(
            0,
            vec![
                TenantRestore::fresh(default_spec(PolicySpec::fixed_minutes(10))),
                TenantRestore::fresh(TenantSpec {
                    id: 1,
                    name: "acme".into(),
                    policy: PolicySpec::fixed_minutes(20),
                    budget_mb: 0,
                }),
            ],
        )
        .unwrap();
        // The same app id under two tenants is two independent apps
        // under two different policies.
        let d0 = w.invoke(0, "a", 0).unwrap();
        let d1 = w.invoke(1, "a", 0).unwrap();
        assert!(d0.cold && d1.cold);
        assert_eq!(d0.windows, Windows::keep_loaded(10 * MINUTE_MS));
        assert_eq!(d1.windows, Windows::keep_loaded(20 * MINUTE_MS));
        // 15-minute gap: cold under 10-minute KA, warm under 20.
        assert!(w.invoke(0, "a", 15 * MINUTE_MS).unwrap().cold);
        assert!(!w.invoke(1, "a", 15 * MINUTE_MS).unwrap().cold);
        assert_eq!(w.invoke(7, "a", 0), Err(InvokeError::UnknownTenant));
        let stats = w.stats();
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[1].name, "acme");
        assert_eq!(stats.tenants[1].invocations, 2);
    }

    #[test]
    fn budget_pressure_evicts_and_downgrades() {
        // A budget that holds exactly one of the two apps' footprints.
        let name = "metered";
        let mb_a = footprint_mb(name, "a");
        let mb_b = footprint_mb(name, "b");
        let mut w = ShardWorker::new(
            0,
            vec![TenantRestore::fresh(TenantSpec {
                id: 1,
                name: name.into(),
                policy: PolicySpec::fixed_minutes(10),
                budget_mb: mb_a.max(mb_b),
            })],
        )
        .unwrap();
        assert!(w.invoke(1, "a", 0).unwrap().cold);
        let db = w.invoke(1, "b", 1_000).unwrap();
        assert!(db.cold && !db.evicted);
        // a was evicted to fit b: its return within the keep-alive
        // window is downgraded to cold and flagged.
        let da = w.invoke(1, "a", 2_000).unwrap();
        assert!(da.cold && da.evicted && !da.prewarm_load);
        let stats = w.stats();
        assert!(stats.tenants[0].evictions >= 1);
        assert!(stats.tenants[0].warm_mb <= mb_a.max(mb_b));
    }

    #[test]
    fn out_of_order_rejected_without_state_change() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 10 * MINUTE_MS).unwrap();
        let err = w.invoke0("a", 5 * MINUTE_MS).unwrap_err();
        assert_eq!(
            err,
            InvokeError::OutOfOrder {
                last_ts: 10 * MINUTE_MS
            }
        );
        // Equal timestamps are fine (concurrent arrivals): warm.
        let d = w.invoke0("a", 10 * MINUTE_MS).unwrap();
        assert!(!d.cold);
        assert_eq!(w.stats().out_of_order, 1);
    }

    #[test]
    fn matches_offline_verdict_trace() {
        use sitw_core::{HybridConfig, PolicyFactory};
        let events: Vec<u64> = (0..200u64)
            .map(|i| i * 7 * MINUTE_MS + (i % 3) * 20_000)
            .collect();

        let spec = PolicySpec::Hybrid(HybridConfig::default());
        let mut w = worker(spec);
        let online: Vec<Decision> = events.iter().map(|&t| w.invoke0("x", t).unwrap()).collect();

        let mut policy = HybridConfig::default().new_policy();
        let offline = sitw_sim::verdict_trace(&events, &mut policy);

        assert_eq!(online.len(), offline.len());
        for (on, off) in online.iter().zip(&offline) {
            assert_eq!(on.cold, off.cold);
            assert_eq!(on.prewarm_load, off.prewarm_load);
            assert_eq!(on.kind, off.kind);
            assert_eq!(on.windows, off.windows);
        }
    }

    #[test]
    fn production_mode_matches_offline_production_trace() {
        use sitw_core::ProductionConfig;
        // Multi-day stream with absolute timestamps (day-aware path).
        let events: Vec<u64> = (0..300u64)
            .map(|i| i * 17 * MINUTE_MS + (i % 5) * 11_000)
            .collect();

        let mut w = worker(PolicySpec::Production(ProductionConfig::default()));
        let online: Vec<Decision> = events.iter().map(|&t| w.invoke0("x", t).unwrap()).collect();

        let cfg = ProductionConfig::default();
        let mut manager = sitw_core::ProductionManager::new(cfg);
        let mut app = sitw_core::ProductionApp::new(&cfg);
        let offline = sitw_sim::production_verdict_trace(&events, &mut manager, &mut app);

        assert_eq!(online.len(), offline.len());
        for (on, off) in online.iter().zip(&offline) {
            assert_eq!(on.cold, off.cold);
            assert_eq!(on.prewarm_load, off.prewarm_load);
            assert_eq!(on.kind, off.kind);
            assert_eq!(on.windows, off.windows);
        }
        // §6 bookkeeping surfaced by the shard: backups along the
        // advancing clock, pre-warm events for unload/pre-warm windows.
        let stats = w.stats();
        assert_eq!(stats.backups, manager.backups_taken());
        let offline_prewarms = offline.iter().filter(|v| v.windows.pre_warm_ms > 0).count() as u64;
        assert_eq!(stats.prewarm_scheduled, offline_prewarms);
        assert!(stats.backups > 0, "multi-day trace must tick backups");
    }

    #[test]
    fn production_equal_timestamp_invocation_is_warm() {
        use sitw_core::ProductionConfig;
        // Regression: ts == last_ts (concurrent arrivals) must be
        // accepted and classified warm, exactly like per-app policies.
        let mut w = worker(PolicySpec::Production(ProductionConfig::default()));
        w.invoke0("a", 5 * MINUTE_MS).unwrap();
        let d = w.invoke0("a", 5 * MINUTE_MS).unwrap();
        assert!(!d.cold, "zero idle gap is warm by definition");
        assert_eq!(w.stats().out_of_order, 0);
        let err = w.invoke0("a", 5 * MINUTE_MS - 1).unwrap_err();
        assert_eq!(
            err,
            InvokeError::OutOfOrder {
                last_ts: 5 * MINUTE_MS
            }
        );
    }

    #[test]
    fn invoke_batch_matches_sequential_invokes_bit_for_bit() {
        let events: Vec<(String, u64)> = (0..120u64)
            .map(|i| (format!("app-{:02}", i % 7), i * 3 * MINUTE_MS))
            .collect();

        // Sequential reference.
        let mut seq = worker(PolicySpec::Hybrid(sitw_core::HybridConfig::default()));
        let expected: Vec<Result<Decision, InvokeError>> = events
            .iter()
            .map(|(app, ts)| seq.invoke0(app, *ts))
            .collect();

        // The same stream in batches of 33 (crossing app boundaries).
        let mut batched = worker(PolicySpec::Hybrid(sitw_core::HybridConfig::default()));
        let mut got: Vec<Result<Decision, InvokeError>> = Vec::new();
        for (frame_seq, chunk) in events.chunks(33).enumerate() {
            let items: Vec<BatchItem> = chunk
                .iter()
                .enumerate()
                .map(|(i, (app, ts))| BatchItem {
                    idx: i as u32,
                    tenant: DEFAULT_TENANT,
                    app: app.clone(),
                    ts: *ts,
                })
                .collect();
            let reply = batched.invoke_batch(frame_seq as u64, items);
            assert_eq!(reply.frame_seq, frame_seq as u64);
            // Replies come back in submission order.
            for (i, (idx, result)) in reply.results.into_iter().enumerate() {
                assert_eq!(idx as usize, i);
                got.push(result);
            }
        }
        assert_eq!(expected, got);
        assert_eq!(seq.stats().invocations, batched.stats().invocations);
        assert_eq!(seq.stats().cold, batched.stats().cold);
    }

    #[test]
    fn invoke_batch_reports_per_record_errors_and_continues() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 10 * MINUTE_MS).unwrap();
        let reply = w.invoke_batch(
            0,
            vec![
                BatchItem {
                    idx: 0,
                    tenant: DEFAULT_TENANT,
                    app: "a".into(),
                    ts: MINUTE_MS, // Out of order.
                },
                BatchItem {
                    idx: 1,
                    tenant: DEFAULT_TENANT,
                    app: "a".into(),
                    ts: 12 * MINUTE_MS, // Still served.
                },
            ],
        );
        assert_eq!(
            reply.results[0].1,
            Err(InvokeError::OutOfOrder {
                last_ts: 10 * MINUTE_MS
            })
        );
        assert!(reply.results[1].1.as_ref().unwrap().cold.eq(&false));
        assert_eq!(w.stats().out_of_order, 1);
    }

    #[test]
    fn dirty_export_tracks_the_mutation_frontier() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 0).unwrap();
        w.invoke0("b", 1_000).unwrap();

        // From frontier 0: both apps are dirty.
        let round1 = w.export_dirty(Some(0));
        let apps: Vec<&str> = round1.export.tenants[0]
            .apps
            .iter()
            .map(|r| r.app.as_str())
            .collect();
        assert_eq!(apps, vec!["a", "b"]);

        // Nothing mutated since: tenant still listed, zero apps.
        let idle = w.export_dirty(Some(round1.seq));
        assert_eq!(idle.seq, round1.seq, "no mutation, no frontier move");
        assert_eq!(idle.export.tenants.len(), 1, "tenant list stays whole");
        assert!(idle.export.tenants[0].apps.is_empty());

        // Only the re-invoked app rides the next round.
        w.invoke0("b", 2_000).unwrap();
        let round2 = w.export_dirty(Some(round1.seq));
        assert!(round2.seq > round1.seq);
        let apps: Vec<&str> = round2.export.tenants[0]
            .apps
            .iter()
            .map(|r| r.app.as_str())
            .collect();
        assert_eq!(apps, vec!["b"]);

        // The full snapshot is unaffected by dirty filtering.
        assert_eq!(w.export().tenants[0].apps.len(), 2);
    }

    #[test]
    fn eviction_victims_are_dirty() {
        let name = "metered";
        let budget = footprint_mb(name, "a").max(footprint_mb(name, "b"));
        let mut w = ShardWorker::new(
            0,
            vec![TenantRestore::fresh(TenantSpec {
                id: 1,
                name: name.into(),
                policy: PolicySpec::fixed_minutes(10),
                budget_mb: budget,
            })],
        )
        .unwrap();
        w.invoke(1, "a", 0).unwrap();
        let frontier = w.export_dirty(Some(0)).seq;
        // b's invocation evicts a: *both* must ride the next round —
        // a follower that misses the eviction flag would serve a's
        // next invocation warm where the primary serves it cold.
        w.invoke(1, "b", 1_000).unwrap();
        let round = w.export_dirty(Some(frontier));
        let dirty = &round.export.tenants[0].apps;
        let a = dirty.iter().find(|r| r.app == "a").expect("victim dirty");
        assert!(a.evicted);
        assert!(dirty.iter().any(|r| r.app == "b"));
    }

    #[test]
    fn control_mutations_advance_the_frontier() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        let f0 = w.export_dirty(Some(0)).seq;
        // A fresh tenant has no dirty apps, but the tenant list is
        // replicated state — the frontier must move so a round fires.
        w.add_tenant(TenantSpec {
            id: 9,
            name: "fresh".into(),
            policy: PolicySpec::fixed_minutes(5),
            budget_mb: 0,
        });
        let round = w.export_dirty(Some(f0));
        assert!(round.seq > f0);
        assert_eq!(round.export.tenants.len(), 2);
        assert!(round.export.tenants.iter().all(|t| t.apps.is_empty()));
    }

    #[test]
    fn restored_tenants_ride_the_next_round() {
        // Simulates a migration-in mid-replication: the restored apps
        // must be stamped past the current frontier.
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 0).unwrap();
        let frontier = w.export_dirty(Some(0)).seq;
        w.restore(TenantRestore {
            spec: TenantSpec {
                id: 3,
                name: "moved".into(),
                policy: PolicySpec::fixed_minutes(10),
                budget_mb: 0,
            },
            apps: vec![AppRecord {
                app: "m".into(),
                last_ts: 7,
                windows: Windows::keep_loaded(600_000),
                evicted: false,
                state: PolicyState::Stateless,
            }],
            ledger: LedgerExport::default(),
            prod_clock: None,
        })
        .unwrap();
        let round = w.export_dirty(Some(frontier));
        let moved = round
            .export
            .tenants
            .iter()
            .find(|t| t.id == 3)
            .expect("restored tenant exported");
        assert_eq!(moved.apps.len(), 1);
        assert_eq!(moved.apps[0].app, "m");
        // The pre-existing clean app does not ride along.
        let default = round.export.tenants.iter().find(|t| t.id == 0).unwrap();
        assert!(default.apps.is_empty());
    }

    #[test]
    fn mismatched_records_are_refused_where_state_enters() {
        use sitw_core::{DecisionKind, HybridApp, HybridConfig};
        let tenant = |policy: &str| TenantSpec {
            id: 1,
            name: "moved".into(),
            policy: PolicySpec::parse(policy).unwrap(),
            budget_mb: 0,
        };
        let production = PolicyState::Production {
            last: DecisionKind::Histogram,
            state: Default::default(),
        };
        let hybrid = PolicyState::Hybrid(HybridApp::new(&HybridConfig::default()).snapshot());
        let mb = footprint_mb("moved", "a");
        let policy_refusal = "does not match policy";
        let charge_refusal = "not a recorded app's footprint";
        // Records under the wrong policy, then ledger charges the
        // records do not hold: an app with no record, and a recorded
        // app at an MB that is not its footprint.
        for (policy, state, warm, refusal) in [
            ("hybrid", production, None, policy_refusal),
            ("production", PolicyState::Stateless, None, policy_refusal),
            ("production", hybrid, None, policy_refusal),
            (
                "fixed:10",
                PolicyState::Stateless,
                Some(("ghost", mb)),
                charge_refusal,
            ),
            (
                "fixed:10",
                PolicyState::Stateless,
                Some(("a", mb + 1)),
                charge_refusal,
            ),
        ] {
            let restore = || TenantRestore {
                apps: vec![AppRecord {
                    app: "a".into(),
                    last_ts: 5,
                    windows: Windows::keep_loaded(600_000),
                    evicted: false,
                    state: state.clone(),
                }],
                ledger: LedgerExport {
                    warm: warm
                        .map(|(app, mb)| (app.into(), 600_005, mb))
                        .into_iter()
                        .collect(),
                    ..LedgerExport::default()
                },
                ..TenantRestore::fresh(tenant(policy))
            };
            // At startup the worker does not come up ...
            let err = ShardWorker::new(0, vec![restore()])
                .map(|_| ())
                .unwrap_err();
            assert!(err.contains(refusal), "{policy}: {err}");
            // ... and a migration into a running one is refused with the
            // tenant it would have replaced left as it was.
            let mut w = worker(PolicySpec::fixed_minutes(10));
            w.add_tenant(tenant(policy));
            w.invoke(1, "kept", 7).unwrap();
            let before = w.export();
            let err = w.restore(restore()).unwrap_err();
            assert!(err.contains(refusal), "{policy}: {err}");
            assert_eq!(w.export(), before, "{policy}");
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for app in ["app-000000", "app-000001", "x", ""] {
                let s = shard_of(app, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(app, shards));
            }
        }
        // Different apps spread over shards (sanity, not uniformity).
        let hits: std::collections::HashSet<usize> = (0..100)
            .map(|i| shard_of(&format!("app-{i:06}"), 4))
            .collect();
        assert!(hits.len() > 1);
    }
}
