//! Shard workers: each worker thread exclusively owns the per-tenant,
//! per-application policy state for its slice of the fleet.
//!
//! The decision path is lock-free by construction — connection threads
//! route `(tenant, app)` to a shard and exchange messages over `mpsc`
//! channels, so a shard's state is touched by exactly one thread. The
//! fleet extends the PR-1 isolation argument one level up: default-tenant
//! apps spread over shards by app hash (apps are independent, §5.1), and
//! each *named* tenant lands whole on one shard (tenant-name hash), so
//! its memory ledger — whose eviction decisions couple apps to each
//! other — has a single writer and a shard-count-independent event
//! order.
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

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::mpsc::{Receiver, Sender};

use sitw_core::PolicySpec;
use sitw_fleet::{
    footprint_mb, AppState, OutOfOrder, ServedPolicy, TenantId, TenantSpec, TenantState,
};
use sitw_telemetry::{EventKind, EventRing, LifecycleEvent, Log2Histogram, SpanEvent, Stage};

use crate::metrics::{ShardStats, TenantStats};
use crate::pool::{IndexedResult, Spares};
use crate::reactor::ReplySink;
use crate::snapshot::{ShardExport, TenantExport};
use crate::telem::ShardTelem;

/// One keep-alive decision, as returned to a client: the kernel's
/// verdict under the name the wire and the harness know it by.
pub use sitw_fleet::FleetVerdict as Decision;
pub use sitw_fleet::TenantRestore;

/// Latency quantiles `/metrics` exports as compatibility gauges,
/// derived from the shard's decision-latency log2 histogram.
pub const LATENCY_QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Mailbox messages a worker pulls non-blockingly behind each blocking
/// `recv` (one telemetry *drain wave*) — bounds the wave's memory.
const DRAIN_WAVE: usize = 128;

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
    /// registry before dispatch); kept as a typed error so the shard
    /// never panics on a protocol-level race.
    UnknownTenant,
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

/// A shard's answers to one [`ShardMsg::InvokeBatch`]: `(idx, result)`
/// pairs in submission order, tagged with the frame they belong to so
/// connections can keep several frames in flight (server-side frame
/// pipelining). The batch's spent buffers ride back with it, so the
/// reactor reuses them instead of allocating the next batch's.
#[derive(Debug, Default)]
pub struct BatchReply {
    /// The connection-local frame sequence this reply answers.
    pub frame_seq: u64,
    /// One result per submitted item, tagged with its frame index.
    pub results: Vec<(u32, Result<Decision, InvokeError>)>,
    /// The decided items, names and all, handed back for reuse.
    pub items: Vec<BatchItem>,
    /// A JSON run's span ids, handed back for reuse (empty otherwise).
    pub spans: Vec<u64>,
}

/// The protocol a batch arrived on and the span ids its stages are
/// recorded under, carried beside [`BatchItem`]s so `invoke_batch` stays
/// a pure decision function.
#[derive(Debug)]
pub enum BatchSpans {
    /// A SITW-BIN frame: one span covers every record.
    Frame(u64),
    /// A run of JSON requests: one span per item, index-aligned with
    /// `items` (a request's propagated `x-sitw-trace` id is its span).
    Json(Vec<u64>),
}

impl BatchSpans {
    /// The span vector to hand back in the reply (empty for a frame).
    fn into_spent(self) -> Vec<u64> {
        match self {
            BatchSpans::Frame(_) => Vec::new(),
            BatchSpans::Json(spans) => spans,
        }
    }
}

/// Messages a shard worker accepts.
pub enum ShardMsg {
    /// One shard's slice of a dispatched batch in one mpsc hop — the
    /// only way an invocation reaches a worker. A SITW-BIN frame sends
    /// every record that hashed here; the JSON path sends the run of
    /// `POST /invoke` requests one read burst parked for this shard. The
    /// mailbox, reply and wake costs are paid once per batch either way.
    InvokeBatch {
        /// Connection-local pipeline sequence of the frame or run
        /// (echoed in the reply so the connection can pipeline them).
        frame_seq: u64,
        /// The shard's slice of the batch, in arrival order.
        items: Vec<BatchItem>,
        /// Which protocol the batch arrived on, with its telemetry span
        /// ids (zeros / empty when telemetry is disabled).
        spans: BatchSpans,
        /// Dispatch timestamp (ns since server start; 0 when disabled).
        /// The shard records dequeue-minus-dispatch as queue wait.
        sent_ns: u64,
        /// Where to send the batched reply (the owning reactor's queue).
        reply: ReplySink,
        /// An emptied result vector from an earlier reply, for the
        /// worker to fill instead of allocating one (may be empty).
        spare: Vec<(u32, Result<Decision, InvokeError>)>,
    },
    /// Registers a tenant on this shard (admin path). Acked so the
    /// registry only exposes the tenant once its shard can serve it.
    AddTenant {
        /// The tenant to create (empty state).
        spec: TenantSpec,
        /// Acked once the tenant exists.
        ack: Sender<()>,
    },
    /// Replaces a tenant's memory budget (0 = unlimited). Enforcement is
    /// lazy — the new budget bites on the *next* charge — so applying a
    /// cluster-reconciled share never rewrites verdicts retroactively.
    /// Acked with `true` iff the tenant lives on this shard.
    SetBudget {
        /// The tenant whose budget to replace.
        tenant: TenantId,
        /// The new budget in MB (0 = unlimited).
        budget_mb: u64,
        /// Acked with whether the tenant was found.
        ack: Sender<bool>,
    },
    /// Exports a tenant's complete state and removes it from the shard
    /// (the first half of a cross-node migration). Replies `None` when
    /// the tenant does not live here. Traffic arriving after the take
    /// gets typed `UnknownTenant` errors, never a panic.
    TakeTenant {
        /// The tenant to export and drop.
        tenant: TenantId,
        /// The exported state, or `None` if unknown.
        reply: Sender<Option<TenantExport>>,
    },
    /// Installs a tenant from a migration payload (the second half of a
    /// cross-node migration), replacing any existing state for that id.
    RestoreTenant {
        /// The tenant's spec, apps, and ledger to install.
        restore: Box<TenantRestore>,
        /// `Ok` once installed; `Err` carries the decode failure.
        ack: Sender<Result<(), String>>,
    },
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
    /// Report counters and latency percentiles.
    Scrape(Sender<ShardStats>),
    /// Export the complete per-app state.
    Snapshot(Sender<ShardExport>),
    /// Export only the state mutated after `since` — one shard's half
    /// of a replication round. The tenant list is always complete
    /// (specs, ledgers, clocks are cheap and carried wholesale every
    /// round); only the per-app records are filtered, so the export
    /// cost scales with the mutation rate, not the fleet size.
    ExportDirty {
        /// The replication frontier: apps stamped at or before this
        /// sequence are skipped (0 exports everything mutated since
        /// the worker started).
        since: u64,
        /// The filtered export plus the new frontier.
        reply: Sender<DirtyShardExport>,
    },
    /// Drain and exit; the worker returns its final state to `join`.
    Shutdown,
}

/// One shard's answer to [`ShardMsg::ExportDirty`]: the state mutated
/// since the requested frontier, plus the frontier to ask from next
/// round.
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

/// The state owned by one shard worker thread.
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
    /// Per-frame `(tenant, records)` counts, reused across batches so
    /// per-tenant histogram attribution stays allocation-free.
    tenant_scratch: Vec<(TenantId, u64)>,
    /// Emptied result vectors the reactors sent back with their
    /// batches; `invoke_batch` fills one instead of allocating.
    spare_results: Spares<IndexedResult>,
}

impl ShardWorker {
    /// Creates a worker for shard `id` serving `tenants` (the default
    /// tenant plus every named tenant routed to this shard), optionally
    /// restoring their state.
    pub fn new(id: usize, tenants: Vec<TenantRestore>) -> Result<Self, String> {
        let mut map = HashMap::with_capacity(tenants.len());
        for restore in tenants {
            // Startup-restored apps stamp dirty sequence 0: a follower
            // attaching to a fresh primary full-syncs anyway, so they
            // need no delta visibility.
            let (tid, shard) = Self::build_tenant(restore, 0)?;
            map.insert(tid, shard);
        }
        Ok(Self {
            id,
            tenants: map,
            invocations: 0,
            cold: 0,
            prewarm_loads: 0,
            out_of_order: 0,
            mutation_seq: 0,
            telem: ShardTelem::default(),
            tenant_scratch: Vec::new(),
            spare_results: Spares::default(),
        })
    }

    /// Replaces the worker's telemetry wiring (recorder, gauge, clock,
    /// enable switch) — the server threads its shared handles in here.
    pub fn with_telem(mut self, telem: ShardTelem) -> Self {
        self.telem = telem;
        self
    }

    /// Builds one tenant's in-memory state from a restore payload — the
    /// shared path behind startup restore and live tenant migration.
    /// Restored apps are stamped `dirty_seq` so a migrated-in tenant is
    /// visible to the next replication round (0 at startup, where the
    /// follower full-syncs regardless). A payload
    /// [`TenantState::restore`] refuses fails the whole restore.
    fn build_tenant(
        restore: TenantRestore,
        dirty_seq: u64,
    ) -> Result<(TenantId, TenantShard), String> {
        let tid = restore.spec.id;
        let state = TenantState::restore(restore, dirty_seq).map_err(|e| e.to_string())?;
        Ok((tid, TenantShard::new(state)))
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
        if self.telem.enabled {
            for victim in served.victims {
                EventRing::try_record(&self.telem.events, ts, EventKind::Eviction, |ev| {
                    ev.tenant.push_str(&served.tenant.name);
                    ev.app.push_str(victim);
                    let _ = write!(ev.detail, "budget {} MB", served.tenant.budget_mb);
                });
            }
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
            // A tenth to a quarter of decisions: enabled-gated, try_lock
            // and written in place like the eviction event.
            if self.telem.enabled {
                EventRing::try_record(&self.telem.events, ts, EventKind::ColdStart, |ev| {
                    ev.tenant.push_str(&t.state.spec().name);
                    ev.app.push_str(app);
                    if decision.evicted {
                        ev.detail.push_str("eviction downgrade");
                    }
                });
            }
        }
        if decision.prewarm_load {
            self.prewarm_loads += 1;
        }
        Ok(decision)
    }

    /// Classifies a whole batch in order. Decisions are identical to
    /// calling [`ShardWorker::invoke`] per item — batching only changes
    /// transport cost, never outcomes. Timing lives in the mailbox loop
    /// (the batch is clocked once and recorded per record at the batch
    /// mean), so this method stays a pure decision function. The items
    /// go back in the reply, and the results fill a spare vector when a
    /// reactor has sent one.
    // sitw-lint: hot-path
    pub fn invoke_batch(&mut self, frame_seq: u64, items: Vec<BatchItem>) -> BatchReply {
        let mut results = self.spare_results.take();
        results.reserve(items.len());
        for item in &items {
            results.push((item.idx, self.invoke(item.tenant, &item.app, item.ts)));
        }
        BatchReply {
            frame_seq,
            results,
            items,
            // Empty, so no allocation; the mailbox loop hands a JSON
            // run's span vector back here.
            spans: Vec::new(), // sitw-lint: allow(hot-path-alloc)
        }
    }

    fn stats(&self) -> ShardStats {
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
            latency_us: {
                // Compatibility quantile gauges, derived from the same
                // buckets the histogram family exports. Empty until the
                // shard has observed a decision — an empty estimator
                // must not export garbage (the NaN-suppression bugfix).
                let decide = self.telem.decide.merged();
                LATENCY_QUANTILES
                    .iter()
                    .filter_map(|&q| decide.quantile(q).map(|ns| (q, ns / 1_000.0)))
                    .collect()
            },
            queue_ns: self.telem.queue.clone(),
            decide_ns: self.telem.decide.clone(),
            mailbox_depth: self.telem.gauge.read().0,
            mailbox_peak: self.telem.gauge.read().1,
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

    fn export(&self) -> ShardExport {
        let mut tenants: Vec<TenantExport> =
            self.tenants.values().map(Self::export_tenant).collect();
        tenants.sort_by_key(|t| t.id);
        ShardExport { tenants }
    }

    /// One shard's half of a replication round: every tenant, with the
    /// app records mutated after `since`. Walks the app maps without
    /// mutating anything — decisions in flight on other shards are
    /// unaffected, and this shard resumes its mailbox immediately
    /// after.
    fn export_dirty(&self, since: u64) -> DirtyShardExport {
        let mut tenants: Vec<TenantExport> = self
            .tenants
            .values()
            .map(|t| Self::export_tenant_if(t, |s| s.stamp > since))
            .collect();
        tenants.sort_by_key(|t| t.id);
        DirtyShardExport {
            seq: self.mutation_seq,
            export: ShardExport { tenants },
        }
    }

    /// Records a tenant migration on the lifecycle event ring (take or
    /// restore). Migrations carry no workload timestamp, so they stamp
    /// domain time 0 and name the direction in `detail`.
    fn push_migration_event(&self, tenant: &str, detail: &str) {
        if !self.telem.enabled {
            return;
        }
        EventRing::try_push(&self.telem.events, || LifecycleEvent {
            ts_ms: 0,
            kind: EventKind::Migration,
            tenant: tenant.to_owned(),
            app: String::new(),
            detail: detail.to_owned(),
        });
    }

    /// The worker loop: drains the mailbox until `Shutdown`, then
    /// returns the final per-app state (for the shutdown snapshot).
    ///
    /// With telemetry on, each blocking `recv` starts a *drain wave*:
    /// the backlog behind it is pulled non-blockingly (bounded by
    /// [`DRAIN_WAVE`]) and observed once on the mailbox gauge — `mpsc`
    /// has no `len()`, so draining is how depth is seen at all. Every
    /// batch is clocked once and recorded per record at the batch mean,
    /// so the stage histograms stay invocation-weighted with exact
    /// counts and no clock read per decision.
    pub fn run(mut self, mailbox: Receiver<ShardMsg>) -> ShardExport {
        let mut pending: VecDeque<ShardMsg> = VecDeque::new();
        loop {
            let msg = match pending.pop_front() {
                Some(msg) => msg,
                None => {
                    let Ok(msg) = mailbox.recv() else { break };
                    if self.telem.enabled {
                        while pending.len() < DRAIN_WAVE {
                            match mailbox.try_recv() {
                                Ok(m) => pending.push_back(m),
                                Err(_) => break,
                            }
                        }
                        self.telem.gauge.observe(1 + pending.len() as u64);
                    }
                    msg
                }
            };
            match msg {
                ShardMsg::InvokeBatch {
                    frame_seq,
                    items,
                    spans,
                    sent_ns,
                    reply,
                    spare,
                } => {
                    self.spare_results.put(spare);
                    if !self.telem.enabled {
                        // Telemetry off: no clock reads, no histogram
                        // touches — the decisions are the whole hot path.
                        let mut batch = self.invoke_batch(frame_seq, items);
                        batch.spans = spans.into_spent();
                        reply.batch(batch);
                        continue;
                    }
                    // Per-tenant record counts, folded before `items`
                    // moves into the decision loop (scratch is reused
                    // across batches — no steady-state allocation).
                    self.tenant_scratch.clear();
                    for item in &items {
                        match self
                            .tenant_scratch
                            .iter_mut()
                            .find(|(tid, _)| *tid == item.tenant)
                        {
                            Some((_, c)) => *c += 1,
                            None => self.tenant_scratch.push((item.tenant, 1)),
                        }
                    }
                    let n = items.len() as u64;
                    let t0 = self.telem.clock.now_ns();
                    let mut batch = self.invoke_batch(frame_seq, items);
                    let t1 = self.telem.clock.now_ns();
                    let mean = t1.saturating_sub(t0).checked_div(n).unwrap_or(0);
                    let (queue, decide, span_ids) = match &spans {
                        BatchSpans::Frame(span) => (
                            &mut self.telem.queue.bin,
                            &mut self.telem.decide.bin,
                            std::slice::from_ref(span),
                        ),
                        BatchSpans::Json(spans) => (
                            &mut self.telem.queue.json,
                            &mut self.telem.decide.json,
                            spans.as_slice(),
                        ),
                    };
                    queue.record_n(t0.saturating_sub(sent_ns), n);
                    decide.record_n(mean, n);
                    let scratch = std::mem::take(&mut self.tenant_scratch);
                    for &(tid, c) in &scratch {
                        if let Some(t) = self.tenants.get_mut(&tid) {
                            t.decide_ns.record_n(mean, c);
                        }
                    }
                    self.tenant_scratch = scratch;
                    // try_lock: losing the race to a /debug/trace scrape
                    // drops the spans, never blocks the decision path.
                    if let Ok(mut rec) = self.telem.recorder.try_lock() {
                        for &span in span_ids {
                            rec.push(SpanEvent {
                                span,
                                stage: Stage::Queue,
                                start_ns: sent_ns,
                                end_ns: t0,
                            });
                            rec.push(SpanEvent {
                                span,
                                stage: Stage::Decide,
                                start_ns: t0,
                                end_ns: t1,
                            });
                        }
                    }
                    // A reply to a connection that died is dropped by
                    // the reactor's slab generation check; the decisions
                    // were still applied, which is correct (the
                    // invocations happened).
                    batch.spans = spans.into_spent();
                    reply.batch(batch);
                }
                ShardMsg::AddTenant { spec, ack } => {
                    self.add_tenant(spec);
                    let _ = ack.send(());
                }
                ShardMsg::SetBudget {
                    tenant,
                    budget_mb,
                    ack,
                } => {
                    let found = match self.tenants.get_mut(&tenant) {
                        Some(t) => {
                            t.state.set_budget(budget_mb);
                            // Specs replicate with the tenant list, so
                            // the bump alone makes the next round carry
                            // the new budget.
                            self.mutation_seq += 1;
                            true
                        }
                        None => false,
                    };
                    let _ = ack.send(found);
                }
                ShardMsg::TakeTenant { tenant, reply } => {
                    let export = self.tenants.remove(&tenant).map(|t| {
                        // Removal replicates through the (authoritative)
                        // tenant list of the next round.
                        self.mutation_seq += 1;
                        self.push_migration_event(&t.state.spec().name, "take");
                        Self::export_tenant(&t)
                    });
                    let _ = reply.send(export);
                }
                ShardMsg::RestoreTenant { restore, ack } => {
                    let name = restore.spec.name.clone();
                    // Stamp past the frontier: every migrated-in app
                    // must ride the next replication round.
                    let seq = self.mutation_seq + 1;
                    let result = Self::build_tenant(*restore, seq).map(|(tid, shard)| {
                        self.tenants.insert(tid, shard);
                        self.mutation_seq = seq;
                        self.push_migration_event(&name, "restore");
                    });
                    let _ = ack.send(result);
                }
                ShardMsg::PolicyProbe { tenant, app, reply } => {
                    let body = self.tenants.get(&tenant).and_then(|t| {
                        t.state
                            .app(&app)
                            .map(|s| render_policy(t.state.spec(), &app, s))
                    });
                    let _ = reply.send(body);
                }
                ShardMsg::Scrape(reply) => {
                    let _ = reply.send(self.stats());
                }
                ShardMsg::Snapshot(reply) => {
                    let _ = reply.send(self.export());
                }
                ShardMsg::ExportDirty { since, reply } => {
                    let _ = reply.send(self.export_dirty(since));
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
    fn latency_gauges_absent_until_observed() {
        // Regression companion to the render-side NaN guard: a shard
        // that has decided nothing exports no quantile pairs at all.
        let mut w = worker(PolicySpec::fixed_minutes(10));
        assert!(w.stats().latency_us.is_empty());
        // Direct invokes are untimed (timing lives in the mailbox
        // loop), so the quantiles stay absent rather than garbage.
        w.invoke0("a", 0).unwrap();
        assert!(w.stats().latency_us.is_empty());
        // Once the decision histogram has a sample, quantiles appear.
        w.telem.decide.json.record(1_500);
        let lat = w.stats().latency_us;
        assert_eq!(lat.len(), LATENCY_QUANTILES.len());
        assert!(lat.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn dirty_export_tracks_the_mutation_frontier() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        w.invoke0("a", 0).unwrap();
        w.invoke0("b", 1_000).unwrap();

        // From frontier 0: both apps are dirty.
        let round1 = w.export_dirty(0);
        let apps: Vec<&str> = round1.export.tenants[0]
            .apps
            .iter()
            .map(|r| r.app.as_str())
            .collect();
        assert_eq!(apps, vec!["a", "b"]);

        // Nothing mutated since: tenant still listed, zero apps.
        let idle = w.export_dirty(round1.seq);
        assert_eq!(idle.seq, round1.seq, "no mutation, no frontier move");
        assert_eq!(idle.export.tenants.len(), 1, "tenant list stays whole");
        assert!(idle.export.tenants[0].apps.is_empty());

        // Only the re-invoked app rides the next round.
        w.invoke0("b", 2_000).unwrap();
        let round2 = w.export_dirty(round1.seq);
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
        let frontier = w.export_dirty(0).seq;
        // b's invocation evicts a: *both* must ride the next round —
        // a follower that misses the eviction flag would serve a's
        // next invocation warm where the primary serves it cold.
        w.invoke(1, "b", 1_000).unwrap();
        let round = w.export_dirty(frontier);
        let dirty = &round.export.tenants[0].apps;
        let a = dirty.iter().find(|r| r.app == "a").expect("victim dirty");
        assert!(a.evicted);
        assert!(dirty.iter().any(|r| r.app == "b"));
    }

    #[test]
    fn control_mutations_advance_the_frontier() {
        let mut w = worker(PolicySpec::fixed_minutes(10));
        let f0 = w.export_dirty(0).seq;
        // A fresh tenant has no dirty apps, but the tenant list is
        // replicated state — the frontier must move so a round fires.
        w.add_tenant(TenantSpec {
            id: 9,
            name: "fresh".into(),
            policy: PolicySpec::fixed_minutes(5),
            budget_mb: 0,
        });
        let round = w.export_dirty(f0);
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
        let frontier = w.export_dirty(0).seq;
        let seq = w.mutation_seq + 1;
        let (tid, shard) = ShardWorker::build_tenant(
            TenantRestore {
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
            },
            seq,
        )
        .unwrap();
        w.tenants.insert(tid, shard);
        w.mutation_seq = seq;
        let round = w.export_dirty(frontier);
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
            let (tx, mailbox) = std::sync::mpsc::channel();
            let (ack, refused) = std::sync::mpsc::channel();
            tx.send(ShardMsg::RestoreTenant {
                restore: Box::new(restore()),
                ack,
            })
            .unwrap();
            tx.send(ShardMsg::Shutdown).unwrap();
            let after = w.run(mailbox);
            let err = refused.recv().unwrap().unwrap_err();
            assert!(err.contains(refusal), "{policy}: {err}");
            assert_eq!(after, before, "{policy}");
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
