//! The daemon: listener, acceptor, the reactor pool, and lifecycle
//! (restore → serve → snapshot → shutdown).
//!
//! Threading model: **one acceptor thread, a small fixed pool of
//! reactor threads** ([`ServeConfig::reactor_threads`], see
//! [`crate::reactor`]), **and N shard worker threads**. The acceptor
//! only accepts: each new socket is made non-blocking and handed
//! round-robin to a reactor, which multiplexes all of its connections
//! over epoll — thousands of mostly idle keep-alive clients cost a slab
//! entry each, not an OS thread and stack. A reactor parses messages
//! incrementally ([`crate::http::ConnBuf::read_event_into`]), routes
//! `(tenant, app)` to a shard — default-tenant apps by app hash, named
//! tenants whole by tenant hash (see
//! [`sitw_fleet::TenantRegistry::shard_of`]) — and dispatches with a
//! [`crate::reactor::ReplySink`] naming the connection's slab token;
//! shards reply out of band into the reactor's eventfd-woken queue.
//!
//! Per connection, every inbound message (JSON request, SITW-BIN frame,
//! control request) occupies one slot in an ordered response pipeline
//! ([`crate::conn`]); responses render strictly from the head, so
//! HTTP/1.1 response ordering — and frame ordering under server-side
//! SITW-BIN pipelining, and ordering across protocol switches — holds by
//! construction while any number of decisions are in flight (bounded by
//! [`ServeConfig::pipeline_window`] per connection).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sitw_core::HybridConfig;
use sitw_fleet::{
    LedgerExport, TenantId, TenantRegistry, TenantSpec, DEFAULT_TENANT, DEFAULT_TENANT_NAME,
};
use sitw_reactor::Waker;
use sitw_sim::PolicySpec;

use sitw_telemetry::{
    lock_unpoisoned, write_trace_json, write_trace_text, EventKind, EventRing, FlightRecorder,
    LifecycleEvent, WallClock,
};

use crate::follow::{promote, pull_loop, Follow, FollowConfig, FollowStatus, NOT_PROMOTED};
use crate::http::{write_response, Request};
use crate::metrics::{ConnStats, MetricsReport, ProtoStats, ReactorStats, ReplStats, ShardStats};
use crate::reactor::{reactor_loop, ReactorMsg, ReactorRef};
use crate::shard::{shard_of, ShardMsg, ShardWorker, TenantRestore};
use crate::snapshot::{
    decode_tenant_section, encode_tenant_section, AppRecord, ShardExport, Snapshot, SnapshotError,
    TenantSnapshot,
};
use crate::telem::{merge_spans, ShardTelem, TelemClock, TelemCtx, EVENT_RING, TRACE_RING};
use crate::wire::{self, push_u64, BinErrorCode, ControlReply, ControlRequest, TenantUsage};

/// One tenant in the server configuration (CLI `--tenant`, a tenants
/// file, or programmatic [`ServeConfig::tenants`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Tenant name.
    pub name: String,
    /// The policy the tenant's apps are served under.
    pub policy: PolicySpec,
    /// Keep-alive memory budget in MB (0 = unlimited).
    pub budget_mb: u64,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS choose.
    pub addr: String,
    /// Number of shard worker threads (≥ 1).
    pub shards: usize,
    /// The policy the default tenant's applications are served under.
    pub policy: PolicySpec,
    /// Named tenants (each with its own policy and budget); registered
    /// in order, ids 1..=N. More can be added at runtime via
    /// `POST /admin/tenants`.
    pub tenants: Vec<TenantConfig>,
    /// When set, a snapshot is written here on graceful shutdown and on
    /// `POST /admin/snapshot`.
    pub snapshot_path: Option<PathBuf>,
    /// When set and the file exists, state is restored from it at start.
    pub restore_path: Option<PathBuf>,
    /// When set, the node starts as a warm standby of this primary (see
    /// [`crate::follow`]): it refuses decisions until promoted, then
    /// serves on the same address from the replicated state, restored
    /// into shards this config describes.
    pub follow: Option<FollowConfig>,
    /// The reactor poll tick: bounds how quickly shutdowns propagate and
    /// how often the slowloris sweep runs. (Historically the per-socket
    /// read timeout, which bounded the same things.)
    pub read_timeout: Duration,
    /// Maximum in-flight decisions per connection (JSON requests, and
    /// records across in-flight SITW-BIN frames).
    pub pipeline_window: usize,
    /// Event-loop threads multiplexing the connections (≥ 1). A handful
    /// serves thousands of mostly idle keep-alive connections; the shard
    /// count, not this, sets decision throughput.
    pub reactor_threads: usize,
    /// How long a *half-received* message may sit without progress
    /// before the connection is closed (slowloris defense, and the bound
    /// on how long a dead client can hold a slab slot mid-message).
    /// Fully idle keep-alive connections are never timed out.
    pub idle_timeout: Duration,
    /// Flight-recorder + per-stage histogram telemetry (on by default).
    /// When off, the hot path does no clock reads at all; `/metrics`
    /// still serves throughput counters, but stage histograms and the
    /// `/debug/*` endpoints come back empty.
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7071".into(),
            shards: 4,
            policy: PolicySpec::Hybrid(HybridConfig::default()),
            tenants: Vec::new(),
            snapshot_path: None,
            restore_path: None,
            follow: None,
            read_timeout: Duration::from_millis(50),
            pipeline_window: 128,
            reactor_threads: 2,
            idle_timeout: Duration::from_secs(10),
            telemetry: true,
        }
    }
}

/// Replication-source bookkeeping: one logical follower pulling the
/// delta stream. Guarded by a plain mutex — rounds are control-plane
/// (one per pull interval), never on the decision path.
#[derive(Debug, Default)]
struct ReplState {
    /// Epoch of the last committed round (0 = no round served yet).
    epoch: u64,
    /// Per-shard dirty frontiers: the `mutation_seq` each shard
    /// reported last round, fed back as `since` on the next. Empty
    /// until the first full sync.
    frontiers: Vec<u64>,
    rounds: u64,
    full_syncs: u64,
    apps_streamed: u64,
    bytes_streamed: u64,
    /// Uptime ms of the last served pull (0 = never pulled).
    last_pull_ms: u64,
}

/// Shared state every reactor thread sees.
pub(crate) struct ServerCtx {
    pub(crate) cfg: ServeConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) shard_txs: Vec<Sender<ShardMsg>>,
    /// The tenant registry. Read-locked briefly per message to resolve
    /// names/ids and routes; write-locked only by the admin registration
    /// and promotion paths. Decision state itself stays lock-free in the
    /// shards.
    pub(crate) registry: RwLock<TenantRegistry>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
    /// A standby's pull state and gate (`None` on a primary).
    pub(crate) follow: Option<Follow>,
    /// SITW-BIN frames served (server-wide; connections are unsharded).
    pub(crate) frames: AtomicU64,
    /// Decisions delivered through batched binary frames.
    pub(crate) batched_decisions: AtomicU64,
    /// Typed SITW-BIN protocol errors answered.
    pub(crate) proto_errors: AtomicU64,
    /// SITW-BIN control frames served (reports + budget pushes).
    pub(crate) ctrl_frames: AtomicU64,
    /// Connections accepted since start.
    pub(crate) conns_accepted: AtomicU64,
    /// Connections currently registered with a reactor (or in flight to
    /// one). Incremented by the acceptor, decremented when a reactor
    /// retires the slab entry — so "live returns to 0" proves the slab
    /// leaked nothing.
    pub(crate) conns_live: AtomicU64,
    /// High-water mark of `conns_live`.
    pub(crate) conns_peak: AtomicU64,
    /// The reactor pool's queues and wakers.
    pub(crate) reactors: Vec<ReactorRef>,
    /// Shared telemetry state: per-reactor flight recorders/histograms,
    /// per-shard recorders, and inbox depth gauges.
    pub(crate) telem: TelemCtx,
    /// Replication-source state (followers pull via `FRAME_REPL_ACK`).
    repl: Mutex<ReplState>,
    /// Why the configured restore was skipped at start (corrupt
    /// snapshot file): the daemon serves from empty state and surfaces
    /// the reason on `/healthz` instead of refusing to start.
    restore_error: Option<String>,
}

impl ServerCtx {
    /// Read access to the tenant registry. A poisoned lock means an
    /// admin writer panicked; reads are still coherent (the registry is
    /// append-only tenant config), so recover the guard instead of
    /// taking every reactor thread down with the writer.
    pub(crate) fn registry_read(&self) -> RwLockReadGuard<'_, TenantRegistry> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// True while this node is an unpromoted standby: the gate the
    /// decision path reads once per read burst or frame.
    pub(crate) fn following(&self) -> bool {
        self.follow.as_ref().is_some_and(Follow::following)
    }

    pub(crate) fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Records a lifecycle event on `/debug/events` (none with telemetry
    /// off).
    pub(crate) fn event(&self, kind: EventKind, detail: String) {
        if self.telem.enabled {
            EventRing::try_push(&self.telem.events, || LifecycleEvent {
                ts_ms: self.uptime_ms(),
                kind,
                tenant: String::new(),
                app: String::new(),
                detail,
            });
        }
    }

    fn scrape(&self) -> MetricsReport {
        let mut shards: Vec<ShardStats> = Vec::with_capacity(self.shard_txs.len());
        for tx in &self.shard_txs {
            let (reply_tx, reply_rx) = mpsc::channel();
            if tx.send(ShardMsg::Scrape(reply_tx)).is_ok() {
                if let Ok(stats) = reply_rx.recv() {
                    shards.push(stats);
                }
            }
        }
        shards.sort_by_key(|s| s.shard);
        let mut reactors: Vec<ReactorStats> = Vec::new();
        if self.telem.enabled {
            for (i, shared) in self.telem.reactors.iter().enumerate() {
                // Brief blocking lock: recording sites only try_lock and
                // never hold the guard across a wait, so this settles fast.
                let t = lock_unpoisoned(shared);
                let (queue_depth, queue_peak) = self.telem.reactor_gauges[i].read();
                reactors.push(ReactorStats {
                    reactor: i,
                    read: t.read.clone(),
                    decode: t.decode.clone(),
                    render: t.render.clone(),
                    write: t.write.clone(),
                    epoll_waits: t.epoll_waits,
                    epoll_wait_ns: t.epoll_wait_ns,
                    wakeups: t.wakeups,
                    events_per_wake: t.events_per_wake.clone(),
                    write_bursts: t.write_bursts.clone(),
                    bp_pauses: t.bp_pauses,
                    bp_resumes: t.bp_resumes,
                    queue_depth,
                    queue_peak,
                });
            }
        }
        MetricsReport {
            shards,
            reactors,
            proto: ProtoStats {
                frames: self.frames.load(Ordering::Relaxed),
                batched_decisions: self.batched_decisions.load(Ordering::Relaxed),
                proto_errors: self.proto_errors.load(Ordering::Relaxed),
                control_frames: self.ctrl_frames.load(Ordering::Relaxed),
            },
            conns: ConnStats {
                live: self.conns_live.load(Ordering::Relaxed),
                accepted: self.conns_accepted.load(Ordering::Relaxed),
                peak: self.conns_peak.load(Ordering::Relaxed),
                reactor_threads: self.reactors.len() as u64,
            },
            // A standby reports the stream it pulls, a primary the one
            // it serves.
            repl: match self.follow.as_ref().filter(|f| f.following()) {
                Some(follow) => follow.status(self.started).repl_stats(),
                None => {
                    let repl = lock_unpoisoned(&self.repl);
                    ReplStats {
                        epoch: repl.epoch,
                        rounds: repl.rounds,
                        full_syncs: repl.full_syncs,
                        apps_streamed: repl.apps_streamed,
                        bytes_streamed: repl.bytes_streamed,
                        lag_ms: if repl.last_pull_ms == 0 {
                            0
                        } else {
                            self.uptime_ms().saturating_sub(repl.last_pull_ms)
                        },
                    }
                }
            },
            uptime_ms: self.uptime_ms(),
        }
    }

    /// Resolves `(tenant name, app)` to the owning shard and asks it to
    /// render the app's live policy state (decision provenance). `None`
    /// when the tenant name or app is unknown.
    fn policy_probe(&self, tenant: &str, app: &str) -> Option<String> {
        let (id, shard) = {
            let registry = self.registry_read();
            let id = registry.resolve(tenant)?;
            (id, registry.shard_of(id, app, self.shard_txs.len()))
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        self.shard_txs[shard]
            .send(ShardMsg::PolicyProbe {
                tenant: id,
                app: app.to_owned(),
                reply: reply_tx,
            })
            .ok()?;
        reply_rx.recv().ok()?
    }

    fn snapshot(&self) -> Snapshot {
        let mut exports: Vec<ShardExport> = Vec::new();
        for tx in &self.shard_txs {
            let (reply_tx, reply_rx) = mpsc::channel();
            if tx.send(ShardMsg::Snapshot(reply_tx)).is_ok() {
                if let Ok(export) = reply_rx.recv() {
                    exports.push(export);
                }
            }
        }
        merge_exports(self.cfg.policy.label(), exports)
    }

    /// Asks one shard for its dirty export since `since`. `None` when
    /// the shard is shutting down.
    fn pull_dirty(&self, shard: usize, since: u64) -> Option<crate::shard::DirtyShardExport> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.shard_txs[shard]
            .send(ShardMsg::ExportDirty {
                since,
                reply: reply_tx,
            })
            .ok()?;
        reply_rx.recv().ok()
    }

    /// Serves one replication round to a pulling follower
    /// ([`wire::FRAME_REPL_ACK`]): a chunked full sync when the
    /// follower's epoch is stale (or 0), a chunked delta of the state
    /// mutated since the last round when it matches, or a lone commit
    /// (no epoch bump) when nothing changed. Each shard streams its
    /// dirty subset from its own mailbox turn — no shard pauses, and
    /// shards keep deciding while others export (the no-stop-the-world
    /// property the stage histograms assert).
    fn repl_round(&self, follower_epoch: u64, out: &mut Vec<u8>) {
        let mut repl = lock_unpoisoned(&self.repl);
        repl.rounds += 1;
        repl.last_pull_ms = self.uptime_ms().max(1);
        let shards = self.shard_txs.len();
        if follower_epoch == 0 || follower_epoch != repl.epoch || repl.frontiers.len() != shards {
            // Full sync. Frontiers are read *before* the snapshot: a
            // mutation landing in between is both in this sync and in
            // the next delta — re-sent, never skipped (records carry
            // absolute state, so re-application is idempotent).
            let mut frontiers = Vec::with_capacity(shards);
            for shard in 0..shards {
                // u64::MAX matches no app: this only reads the frontier.
                let seq = self.pull_dirty(shard, u64::MAX).map_or(0, |d| d.seq);
                frontiers.push(seq);
            }
            let doc = self.snapshot().encode();
            let epoch = repl.epoch + 1;
            wire::encode_repl_round(out, wire::FRAME_REPL_SYNC, epoch, doc.as_bytes());
            repl.epoch = epoch;
            repl.frontiers = frontiers;
            repl.full_syncs += 1;
            repl.bytes_streamed += doc.len() as u64;
            drop(repl);
            self.event(
                EventKind::ReplSync,
                format!("epoch {epoch}, {} bytes", doc.len()),
            );
            return;
        }
        // Delta round: each shard's dirty subset since its frontier.
        let mut frontiers = Vec::with_capacity(shards);
        let mut exports: Vec<ShardExport> = Vec::with_capacity(shards);
        let mut dirty = false;
        for shard in 0..shards {
            let since = repl.frontiers[shard];
            match self.pull_dirty(shard, since) {
                Some(d) => {
                    dirty |= d.seq != since;
                    frontiers.push(d.seq);
                    exports.push(d.export);
                }
                None => {
                    // Shard unavailable (shutting down): hold the
                    // frontier so nothing is skipped if we come back.
                    frontiers.push(since);
                    exports.push(ShardExport {
                        tenants: Vec::new(),
                    });
                }
            }
        }
        if !dirty {
            // Nothing mutated since the last round: commit the epoch
            // the follower already holds, no bump, no document.
            wire::encode_repl_commit(out, repl.epoch);
            return;
        }
        let apps: u64 = exports
            .iter()
            .flat_map(|e| e.tenants.iter())
            .map(|t| t.apps.len() as u64)
            .sum();
        let doc = merge_exports(self.cfg.policy.label(), exports).encode_delta();
        let epoch = repl.epoch + 1;
        wire::encode_repl_round(out, wire::FRAME_REPL_DELTA, epoch, doc.as_bytes());
        repl.epoch = epoch;
        repl.frontiers = frontiers;
        repl.apps_streamed += apps;
        repl.bytes_streamed += doc.len() as u64;
    }

    /// Registers a tenant at runtime: the owning shard learns about it
    /// (and acks) *before* the registry exposes the name, so no request
    /// can race ahead of the shard's state.
    fn register_tenant(
        &self,
        name: &str,
        policy: PolicySpec,
        budget_mb: u64,
    ) -> Result<TenantSpec, String> {
        let mut registry = self.registry.write().expect("registry poisoned");
        let mut staged = registry.clone();
        let id = staged.register(name, policy, budget_mb)?;
        let spec = staged.get(id).expect("just registered").clone();
        let home = staged.shard_of(id, "", self.shard_txs.len());
        let (ack_tx, ack_rx) = mpsc::channel();
        self.shard_txs[home]
            .send(ShardMsg::AddTenant {
                spec: spec.clone(),
                ack: ack_tx,
            })
            .map_err(|_| "shard unavailable (shutting down)".to_owned())?;
        ack_rx
            .recv()
            .map_err(|_| "shard unavailable (shutting down)".to_owned())?;
        *registry = staged;
        Ok(spec)
    }

    /// Scrapes the shards and folds per-tenant usage by **name** — the
    /// cluster-stable key (ids are per-node registration order and
    /// diverge after migrations). Default-tenant slices sum across
    /// shards; named tenants live whole on one shard.
    fn tenant_usage(&self) -> Vec<TenantUsage> {
        let scrapes = self.shard_txs.iter().filter_map(|tx| {
            let (reply_tx, reply_rx) = mpsc::channel();
            tx.send(ShardMsg::Scrape(reply_tx)).ok()?;
            reply_rx.recv().ok()
        });
        let slices = scrapes.flat_map(|stats| stats.tenants);
        TenantUsage::fold(slices.map(|t| TenantUsage {
            name: t.name,
            budget_mb: t.budget_mb,
            warm_mb: t.warm_mb,
            evictions: t.evictions,
            idle_mb_ms: t.idle_mb_ms,
            invocations: t.invocations,
        }))
    }

    /// Applies a budget push: each named tenant's ledger budget is
    /// replaced by its owning shard (lazy enforcement — no retroactive
    /// verdict changes), and the registry copy follows for display
    /// coherence. Unknown names and the default tenant (whose sharded
    /// ledger cannot be budgeted) are skipped, not errors: the router
    /// reconciles against a snapshot of the node's tenant set, which a
    /// concurrent migration may have changed.
    fn set_budgets(&self, pairs: &[(String, u64)]) -> u32 {
        let mut applied = 0u32;
        for (name, budget_mb) in pairs {
            if name == DEFAULT_TENANT_NAME {
                continue;
            }
            let resolved = {
                let registry = self.registry_read();
                registry
                    .resolve(name)
                    .map(|id| (id, registry.shard_of(id, "", self.shard_txs.len())))
            };
            let Some((id, home)) = resolved else { continue };
            let (ack_tx, ack_rx) = mpsc::channel();
            let sent = self.shard_txs[home]
                .send(ShardMsg::SetBudget {
                    tenant: id,
                    budget_mb: *budget_mb,
                    ack: ack_tx,
                })
                .is_ok();
            if sent && ack_rx.recv() == Ok(true) {
                if let Ok(mut registry) = self.registry.write() {
                    registry.set_budget(id, *budget_mb);
                }
                applied += 1;
            }
        }
        applied
    }

    /// Exports a tenant's complete state and removes it from this node
    /// (the source half of a migration). Returns the text payload the
    /// target node's `/admin/tenants/<name>/restore` accepts.
    fn take_tenant(&self, name: &str) -> Result<String, (u16, String)> {
        if name == DEFAULT_TENANT_NAME {
            return Err((400, "the default tenant cannot migrate".to_owned()));
        }
        let resolved = {
            let registry = self.registry_read();
            registry
                .resolve(name)
                .map(|id| (id, registry.shard_of(id, "", self.shard_txs.len())))
        };
        let Some((id, home)) = resolved else {
            return Err((404, format!("unknown tenant '{name}'")));
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        self.shard_txs[home]
            .send(ShardMsg::TakeTenant {
                tenant: id,
                reply: reply_tx,
            })
            .map_err(|_| (503, "shard unavailable (shutting down)".to_owned()))?;
        match reply_rx.recv() {
            Ok(Some(export)) => Ok(encode_tenant_section(&export)),
            Ok(None) => Err((409, format!("tenant '{name}' already taken"))),
            Err(_) => Err((503, "shard unavailable (shutting down)".to_owned())),
        }
    }

    /// Installs a migrated tenant from a take payload (the target half).
    /// An unknown tenant is registered first from the payload's canonical
    /// policy spec; a known one must match policy labels. The restored
    /// state replaces whatever the shard held, bit-for-bit.
    fn restore_tenant(&self, text: &str) -> Result<TenantSpec, (u16, String)> {
        let section = decode_tenant_section(text).map_err(|e| (400, e))?;
        if section.name == DEFAULT_TENANT_NAME {
            return Err((400, "the default tenant cannot migrate".to_owned()));
        }
        let existing = {
            let registry = self.registry_read();
            registry.resolve(&section.name).map(|id| {
                let spec = registry.get(id).expect("resolved id exists").clone();
                (spec, registry.shard_of(id, "", self.shard_txs.len()))
            })
        };
        let (mut spec, home) = match existing {
            Some((spec, home)) => {
                if spec.policy.label() != section.policy_label {
                    return Err((
                        409,
                        format!(
                            "tenant '{}': incoming policy '{}' does not match local '{}'",
                            section.name,
                            section.policy_label,
                            spec.policy.label()
                        ),
                    ));
                }
                (spec, home)
            }
            None => {
                let spec_str = section.spec_str.as_ref().ok_or_else(|| {
                    (
                        400,
                        format!(
                            "tenant '{}' has no canonical policy spec in the payload",
                            section.name
                        ),
                    )
                })?;
                let policy = PolicySpec::parse(spec_str).map_err(|e| (400u16, e.to_string()))?;
                let spec = self
                    .register_tenant(&section.name, policy, section.budget_mb)
                    .map_err(|e| (400u16, e))?;
                let home = {
                    let registry = self.registry_read();
                    registry.shard_of(spec.id, "", self.shard_txs.len())
                };
                (spec, home)
            }
        };
        spec.budget_mb = section.budget_mb;
        if let Ok(mut registry) = self.registry.write() {
            registry.set_budget(spec.id, section.budget_mb);
        }
        let restore = TenantRestore {
            spec: spec.clone(),
            apps: section.apps,
            ledger: section.ledger,
            prod_clock: section.prod_clock,
        };
        let (ack_tx, ack_rx) = mpsc::channel();
        self.shard_txs[home]
            .send(ShardMsg::Restore {
                tenants: vec![restore],
                replace_all: false,
                ack: ack_tx,
            })
            .map_err(|_| (503, "shard unavailable (shutting down)".to_owned()))?;
        match ack_rx.recv() {
            Ok(Ok(())) => Ok(spec),
            Ok(Err(e)) => Err((400, e)),
            Err(_) => Err((503, "shard unavailable (shutting down)".to_owned())),
        }
    }

    /// Unblocks the acceptor's `accept()` after the shutdown flag flips.
    fn wake_acceptor(&self) {
        let _ = TcpStream::connect(self.addr);
    }

    /// Wakes every reactor unconditionally (shutdown must not wait out
    /// a poll tick).
    pub(crate) fn wake_reactors(&self) {
        for reactor in &self.reactors {
            reactor.waker.wake_force();
        }
    }
}

/// A running decision service.
pub struct Server {
    ctx: Arc<ServerCtx>,
    acceptor: Option<JoinHandle<()>>,
    /// A standby's pull loop (see [`crate::follow`]).
    puller: Option<JoinHandle<()>>,
    reactor_handles: Vec<JoinHandle<()>>,
    shard_handles: Vec<JoinHandle<ShardExport>>,
}

/// Merges per-shard exports into one snapshot. Default-tenant state is
/// the union of per-shard slices (apps concatenated, ledger counters
/// summed, clocks as maxima); named tenants live whole on one shard.
fn merge_exports(policy_label: String, exports: Vec<ShardExport>) -> Snapshot {
    let mut apps: Vec<AppRecord> = Vec::new();
    let mut prod_clock: Option<u64> = None;
    let mut default_ledger = LedgerExport::default();
    let mut tenants: Vec<TenantSnapshot> = Vec::new();
    for export in exports {
        for te in export.tenants {
            if te.id == DEFAULT_TENANT {
                apps.extend(te.apps);
                prod_clock = prod_clock.max(te.prod_clock);
                default_ledger.warm.extend(te.ledger.warm);
                default_ledger.evictions += te.ledger.evictions;
                default_ledger.idle_mb_ms = default_ledger
                    .idle_mb_ms
                    .saturating_add(te.ledger.idle_mb_ms);
                default_ledger.cursor_ms = default_ledger.cursor_ms.max(te.ledger.cursor_ms);
            } else {
                tenants.push(TenantSnapshot {
                    id: te.id,
                    name: te.name,
                    policy_label: te.policy_label,
                    spec_str: te.spec_str,
                    budget_mb: te.budget_mb,
                    prod_clock: te.prod_clock,
                    ledger: te.ledger,
                    apps: te.apps,
                });
            }
        }
    }
    apps.sort_by(|a, b| a.app.cmp(&b.app));
    default_ledger.warm.sort();
    tenants.sort_by_key(|t| t.id);
    Snapshot {
        policy_label,
        prod_clock,
        apps,
        default_ledger,
        tenants,
    }
}

/// Builds the tenant registry for a start or a promotion: the snapshot's
/// policy must be the configured one, its tenants come first (ids
/// preserved), configured tenants are verified against or appended to
/// them.
pub(crate) fn build_registry(
    cfg: &ServeConfig,
    snap: Option<&Snapshot>,
) -> Result<TenantRegistry, String> {
    let mut registry = TenantRegistry::new(cfg.policy.clone());
    if let Some(snap) = snap {
        let expected = cfg.policy.label();
        if snap.policy_label != expected {
            return Err(format!(
                "snapshot policy '{}' does not match configured '{expected}'",
                snap.policy_label
            ));
        }
        for t in &snap.tenants {
            // Configured spec wins when present (it carries the actual
            // PolicySpec; the snapshot only proves the label). A tenant
            // the new process was not configured with is rebuilt from
            // its canonical spec string.
            let configured = cfg.tenants.iter().find(|c| c.name == t.name);
            let (policy, budget_mb) = match configured {
                Some(c) => {
                    if c.policy.label() != t.policy_label {
                        return Err(format!(
                            "tenant '{}': snapshot policy '{}' does not match configured '{}'",
                            t.name,
                            t.policy_label,
                            c.policy.label()
                        ));
                    }
                    (c.policy.clone(), c.budget_mb)
                }
                None => {
                    let spec_str = t.spec_str.as_ref().ok_or_else(|| {
                        format!(
                            "tenant '{}' has no canonical spec in the snapshot; \
                             configure it explicitly to restore",
                            t.name
                        )
                    })?;
                    let policy = PolicySpec::parse(spec_str).map_err(|e| e.to_string())?;
                    (policy, t.budget_mb)
                }
            };
            let id = registry.register(&t.name, policy, budget_mb)?;
            if id != t.id {
                return Err(format!(
                    "tenant '{}': snapshot id {} cannot be preserved (got {id})",
                    t.name, t.id
                ));
            }
        }
    }
    for c in &cfg.tenants {
        if registry.resolve(&c.name).is_none() {
            registry.register(&c.name, c.policy.clone(), c.budget_mb)?;
        }
    }
    Ok(registry)
}

/// Partitions restored state across shards: default-tenant apps and
/// warm entries by app hash, named tenants whole to their home shard.
pub(crate) fn partition_restore(
    registry: &TenantRegistry,
    snap: Option<Snapshot>,
    shards: usize,
) -> Vec<Vec<TenantRestore>> {
    let default_spec = registry
        .get(DEFAULT_TENANT)
        .expect("default tenant always exists")
        .clone();
    let mut per_shard: Vec<Vec<TenantRestore>> = (0..shards)
        .map(|_| vec![TenantRestore::fresh(default_spec.clone())])
        .collect();
    let Some(snap) = snap else {
        for spec in registry.tenants() {
            if spec.id != DEFAULT_TENANT {
                let home = registry.shard_of(spec.id, "", shards);
                per_shard[home].push(TenantRestore::fresh(spec.clone()));
            }
        }
        return per_shard;
    };
    for rec in snap.apps {
        let shard = shard_of(&rec.app, shards);
        per_shard[shard][0].apps.push(rec);
    }
    for (app, expiry, mb) in snap.default_ledger.warm {
        let shard = shard_of(&app, shards);
        per_shard[shard][0].ledger.warm.push((app, expiry, mb));
    }
    for shard in per_shard.iter_mut() {
        shard[0].prod_clock = snap.prod_clock;
        shard[0].ledger.cursor_ms = snap.default_ledger.cursor_ms;
    }
    // The merged integral/eviction counters are scalars; seed them on
    // shard 0 so the aggregate `/metrics` view stays continuous.
    per_shard[0][0].ledger.evictions = snap.default_ledger.evictions;
    per_shard[0][0].ledger.idle_mb_ms = snap.default_ledger.idle_mb_ms;

    let mut snap_tenants: std::collections::HashMap<TenantId, TenantSnapshot> =
        snap.tenants.into_iter().map(|t| (t.id, t)).collect();
    for spec in registry.tenants() {
        if spec.id == DEFAULT_TENANT {
            continue;
        }
        let home = registry.shard_of(spec.id, "", shards);
        let restore = match snap_tenants.remove(&spec.id) {
            Some(t) => TenantRestore {
                spec: spec.clone(),
                apps: t.apps,
                ledger: t.ledger,
                prod_clock: t.prod_clock,
            },
            None => TenantRestore::fresh(spec.clone()),
        };
        per_shard[home].push(restore);
    }
    per_shard
}

impl Server {
    /// Binds, restores state if configured, and starts serving.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        if cfg.shards == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "shards == 0"));
        }
        if cfg.reactor_threads == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "reactor_threads == 0",
            ));
        }

        // The telemetry epoch: span timestamps are nanoseconds since
        // this instant, on every thread. The one place the serve crate
        // reads the wall clock directly — to construct that epoch.
        // sitw-lint: allow(clock-discipline)
        let started = Instant::now();
        let telem = TelemCtx {
            enabled: cfg.telemetry,
            clock: TelemClock::Wall(WallClock::new(started)),
            reactors: (0..cfg.reactor_threads).map(|_| Arc::default()).collect(),
            reactor_gauges: (0..cfg.reactor_threads).map(|_| Arc::default()).collect(),
            shard_recorders: (0..cfg.shards)
                .map(|_| Arc::new(std::sync::Mutex::new(FlightRecorder::new(TRACE_RING))))
                .collect(),
            shard_gauges: (0..cfg.shards).map(|_| Arc::default()).collect(),
            events: Arc::new(std::sync::Mutex::new(EventRing::new(EVENT_RING))),
        };

        // Restore before any thread exists. A corrupt file degrades to
        // empty state with the reason on /healthz — losing learned
        // histograms costs cold starts, refusing to start costs
        // availability (the regression this guards).
        let mut snap: Option<Snapshot> = None;
        let mut restore_error: Option<String> = None;
        if let Some(path) = cfg.restore_path.as_ref().filter(|p| p.exists()) {
            match Snapshot::load(path) {
                Ok(loaded) => snap = Some(loaded),
                Err(SnapshotError::Corrupt(e)) => {
                    eprintln!(
                        "sitw-serve: snapshot {} is corrupt, serving from empty state: {e}",
                        path.display()
                    );
                    restore_error = Some(e);
                }
                // The file exists but cannot be read (permissions, I/O): a
                // transient environment problem, so fail loudly instead of
                // silently dropping state.
                Err(SnapshotError::Io(e)) => return Err(e),
            }
        }
        let registry = build_registry(&cfg, snap.as_ref())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let per_shard = partition_restore(&registry, snap, cfg.shards);

        let mut shard_txs = Vec::with_capacity(cfg.shards);
        let mut shard_handles = Vec::with_capacity(cfg.shards);
        for (id, restore) in per_shard.into_iter().enumerate() {
            let worker = ShardWorker::new(id, restore)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                .with_telem(ShardTelem {
                    enabled: telem.enabled,
                    clock: telem.clock.clone(),
                    recorder: Arc::clone(&telem.shard_recorders[id]),
                    gauge: Arc::clone(&telem.shard_gauges[id]),
                    queue: Default::default(),
                    decide: Default::default(),
                    events: Arc::clone(&telem.events),
                });
            let (tx, rx) = mpsc::channel();
            shard_txs.push(tx);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("sitw-shard-{id}"))
                    .spawn(move || worker.run(rx))?,
            );
        }

        // The reactor pool's plumbing exists before the context so the
        // context can carry every reactor's queue and waker.
        let mut reactors: Vec<ReactorRef> = Vec::with_capacity(cfg.reactor_threads);
        let mut reactor_parts = Vec::with_capacity(cfg.reactor_threads);
        for _ in 0..cfg.reactor_threads {
            let (tx, rx) = mpsc::channel::<ReactorMsg>();
            let waker = Arc::new(Waker::new()?);
            reactors.push(ReactorRef {
                tx: tx.clone(),
                waker: Arc::clone(&waker),
            });
            reactor_parts.push((rx, tx, waker));
        }

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(ServerCtx {
            follow: cfg.follow.clone().map(Follow::new),
            cfg,
            addr,
            shard_txs,
            registry: RwLock::new(registry),
            shutdown: AtomicBool::new(false),
            started,
            frames: AtomicU64::new(0),
            batched_decisions: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            ctrl_frames: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_live: AtomicU64::new(0),
            conns_peak: AtomicU64::new(0),
            reactors,
            telem,
            repl: Mutex::new(ReplState::default()),
            restore_error,
        });

        let mut reactor_handles = Vec::with_capacity(reactor_parts.len());
        for (id, (rx, tx, waker)) in reactor_parts.into_iter().enumerate() {
            let reactor_ctx = Arc::clone(&ctx);
            reactor_handles.push(
                std::thread::Builder::new()
                    .name(format!("sitw-reactor-{id}"))
                    .spawn(move || reactor_loop(id, reactor_ctx, rx, tx, waker))?,
            );
        }

        let acceptor_ctx = Arc::clone(&ctx);
        let acceptor = std::thread::Builder::new()
            .name("sitw-acceptor".into())
            .spawn(move || accept_loop(listener, acceptor_ctx))?;
        let puller = ctx
            .follow
            .as_ref()
            .map(|_| {
                let puller_ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name("sitw-follow-puller".into())
                    .spawn(move || pull_loop(&puller_ctx))
            })
            .transpose()?;

        Ok(Server {
            ctx,
            acceptor: Some(acceptor),
            puller,
            reactor_handles,
            shard_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Scrapes all shards (in-process equivalent of `GET /metrics`).
    pub fn metrics(&self) -> MetricsReport {
        self.ctx.scrape()
    }

    /// Captures a snapshot of all shards without stopping the server.
    pub fn snapshot(&self) -> Snapshot {
        self.ctx.snapshot()
    }

    /// Registers a tenant at runtime (in-process equivalent of
    /// `POST /admin/tenants`).
    pub fn register_tenant(
        &self,
        name: &str,
        policy: PolicySpec,
        budget_mb: u64,
    ) -> Result<TenantSpec, String> {
        self.ctx.register_tenant(name, policy, budget_mb)
    }

    /// Exports a tenant's state and removes it from this node
    /// (in-process equivalent of `POST /admin/tenants/<name>/take`).
    /// Returns the migration payload for [`Server::restore_tenant`].
    pub fn take_tenant(&self, name: &str) -> Result<String, String> {
        self.ctx.take_tenant(name).map_err(|(_, e)| e)
    }

    /// Installs a migrated tenant from a take payload (in-process
    /// equivalent of `POST /admin/tenants/<name>/restore`).
    pub fn restore_tenant(&self, payload: &str) -> Result<TenantSpec, String> {
        self.ctx.restore_tenant(payload).map_err(|(_, e)| e)
    }

    /// True once a shutdown has been requested (e.g. via
    /// `POST /admin/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a shutdown is requested.
    pub fn wait(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// The standby's replication status (`None` without
    /// [`ServeConfig::follow`]).
    pub fn follow_status(&self) -> Option<FollowStatus> {
        (self.ctx.follow.as_ref()).map(|f| f.status(self.ctx.started))
    }

    /// Promotes a standby in place (in-process equivalent of
    /// `POST /admin/promote`).
    pub fn promote(&self) -> Result<(), String> {
        promote(&self.ctx, "operator request")
    }

    /// Gracefully stops: settles and closes connections (bounded — a
    /// client that never drains its responses is cut off after a grace
    /// period instead of hanging the daemon), stops shards, and writes
    /// the final snapshot to [`ServeConfig::snapshot_path`] when set.
    /// Returns the final state. An unpromoted standby's state is its
    /// replica, not its idle shards: that is what it returns and writes,
    /// and before its first sync it writes nothing.
    pub fn shutdown(mut self) -> io::Result<Snapshot> {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.ctx.wake_acceptor();
        self.ctx.wake_reactors();
        let threads = [self.acceptor.take(), self.puller.take()];
        for thread in threads.into_iter().flatten() {
            let _ = thread.join();
        }
        // Reactors keep the shards' reply sinks alive until every
        // connection settles; only then may the shards stop.
        for handle in self.reactor_handles.drain(..) {
            let _ = handle.join();
        }
        for tx in &self.ctx.shard_txs {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        let mut exports: Vec<ShardExport> = Vec::new();
        for handle in self.shard_handles.drain(..) {
            match handle.join() {
                Ok(export) => exports.push(export),
                Err(_) => {
                    return Err(io::Error::other("shard panicked"));
                }
            }
        }
        let merged = merge_exports(self.ctx.cfg.policy.label(), exports);
        let (snapshot, write) = match self.ctx.follow.as_ref().filter(|f| f.following()) {
            Some(follow) => follow.take_replica().map_or((merged, false), |r| (r, true)),
            None => (merged, true),
        };
        if let (true, Some(path)) = (write, &self.ctx.cfg.snapshot_path) {
            snapshot.write_to(path)?;
        }
        Ok(snapshot)
    }
}

/// The acceptor: accepts, counts, and hands each connection round-robin
/// to a reactor. No per-connection thread exists anywhere.
fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        ctx.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let live = ctx.conns_live.fetch_add(1, Ordering::Relaxed) + 1;
        ctx.conns_peak.fetch_max(live, Ordering::Relaxed);
        let idx = next % ctx.reactors.len();
        let reactor = &ctx.reactors[idx];
        next = next.wrapping_add(1);
        if reactor.tx.send(ReactorMsg::Conn(stream)).is_err() {
            // Reactor gone (shutting down): the stream just dropped.
            ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
        } else {
            reactor.waker.wake();
        }
    }
}

/// Parses an `/invoke` body into `inv` (reused, so a warm one parses
/// without allocating) and resolves its tenant and shard against
/// `registry` — the caller's guard, taken once per read burst (see
/// [`ServerCtx::registry_read`]), not once per request.
// sitw-lint: hot-path
pub(crate) fn parse_and_route(
    body: &[u8],
    inv: &mut wire::InvokeRequest,
    registry: &TenantRegistry,
    shards: usize,
) -> Result<(TenantId, usize), String> {
    wire::parse_invoke_into(body, inv)?;
    let tenant = match &inv.tenant {
        None => DEFAULT_TENANT,
        Some(name) => registry
            .resolve(name)
            // Cold error path: the request is rejected anyway.
            // sitw-lint: allow(hot-path-alloc)
            .ok_or_else(|| format!("unknown tenant '{name}'"))?,
    };
    let shard = registry.shard_of(tenant, &inv.app, shards);
    Ok((tenant, shard))
}

/// Executes one SITW-BIN control frame (the cluster control plane).
/// Like [`handle_control`], this runs when the frame reaches the head of
/// its connection's response pipeline: a usage report reflects every
/// earlier decision on the connection, and a budget push lands between
/// frames, never inside one.
pub(crate) fn handle_ctrl_frame(req: &ControlRequest, ctx: &ServerCtx, out: &mut Vec<u8>) {
    ctx.ctrl_frames.fetch_add(1, Ordering::Relaxed);
    if ctx.following() {
        // Not a cluster member (nor a replication source) until promoted.
        wire::encode_error_frame(out, BinErrorCode::Unavailable, NOT_PROMOTED);
        return;
    }
    match req {
        ControlRequest::Report => {
            let usage = ctx.tenant_usage();
            wire::encode_control_reply(out, &ControlReply::Report(usage));
        }
        ControlRequest::BudgetSet(pairs) => {
            let applied = ctx.set_budgets(pairs);
            wire::encode_control_reply(out, &ControlReply::BudgetAck { applied });
        }
        ControlRequest::ReplPull { epoch } => {
            ctx.repl_round(*epoch, out);
        }
    }
}

/// A JSON error response: `{"error":"<msg>"}`.
fn write_error(out: &mut Vec<u8>, status: u16, msg: &str) {
    let body = format!("{{\"error\":\"{}\"}}", wire::json_escape(msg));
    write_response(out, status, "application/json", body.as_bytes());
}

/// The answer to a tenant registration or restore: `{"id":N,"name":"…"}`.
fn write_tenant(out: &mut Vec<u8>, spec: &TenantSpec) {
    let mut body = Vec::with_capacity(64);
    body.extend_from_slice(b"{\"id\":");
    push_u64(&mut body, spec.id as u64);
    body.extend_from_slice(b",\"name\":\"");
    body.extend_from_slice(spec.name.as_bytes());
    body.extend_from_slice(b"\"}");
    write_response(out, 200, "application/json", &body);
}

/// Non-invoke endpoints: health, metrics, admin.
/// Runs on a reactor thread when the request reaches the head of its
/// connection's response pipeline (i.e. once every earlier message has
/// answered, preserving the settle-then-serve semantics of the
/// thread-per-connection model).
pub(crate) fn handle_control(req: &Request, ctx: &ServerCtx, out: &mut Vec<u8>) {
    use std::fmt::Write as _;
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    // A standby refuses the data path and every mutating admin verb
    // until it is promoted. An invoke reaches this function only from a
    // read burst that found the gate closed.
    let refused = match (req.method.as_str(), path) {
        ("POST", "/invoke") => true,
        ("POST", p) => {
            ctx.following() && (p == "/admin/snapshot" || p.starts_with("/admin/tenants"))
        }
        _ => false,
    };
    if refused {
        return write_error(out, 503, NOT_PROMOTED);
    }
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let mut body = Vec::with_capacity(96);
            body.extend_from_slice(b"{\"status\":\"");
            let status = if ctx.following() { "following" } else { "ok" };
            body.extend_from_slice(status.as_bytes());
            body.extend_from_slice(b"\",\"policy\":\"");
            body.extend_from_slice(ctx.cfg.policy.label().as_bytes());
            body.extend_from_slice(b"\",\"shards\":");
            push_u64(&mut body, ctx.shard_txs.len() as u64);
            body.extend_from_slice(b",\"tenants\":");
            push_u64(&mut body, ctx.registry_read().len() as u64);
            body.extend_from_slice(b",\"uptime_ms\":");
            push_u64(&mut body, ctx.uptime_ms());
            body.extend_from_slice(b",\"repl_epoch\":");
            push_u64(&mut body, lock_unpoisoned(&ctx.repl).epoch);
            if let Some(e) = &ctx.restore_error {
                body.extend_from_slice(b",\"restore_error\":\"");
                body.extend_from_slice(wire::json_escape(e).as_bytes());
                body.push(b'"');
            }
            if let Some(follow) = &ctx.follow {
                follow.write_health(ctx.started, &mut body);
            }
            body.push(b'}');
            write_response(out, 200, "application/json", &body);
        }
        ("GET", "/metrics") => {
            let report = ctx.scrape();
            write_response(
                out,
                200,
                "text/plain; version=0.0.4",
                report.render().as_bytes(),
            );
        }
        ("GET", "/admin/tenants") => {
            let registry = ctx.registry_read();
            let mut body = Vec::with_capacity(128);
            body.push(b'[');
            for (i, t) in registry.tenants().iter().enumerate() {
                if i > 0 {
                    body.push(b',');
                }
                body.extend_from_slice(b"{\"id\":");
                push_u64(&mut body, t.id as u64);
                body.extend_from_slice(b",\"name\":\"");
                body.extend_from_slice(t.name.as_bytes());
                body.extend_from_slice(b"\",\"policy\":\"");
                body.extend_from_slice(t.policy.label().as_bytes());
                body.extend_from_slice(b"\",\"budget_mb\":");
                push_u64(&mut body, t.budget_mb);
                body.push(b'}');
            }
            body.push(b']');
            write_response(out, 200, "application/json", &body);
        }
        ("POST", "/admin/tenants") => {
            // Body: the CLI argument grammar, `NAME=POLICY[,budget=MB]`.
            let arg = String::from_utf8_lossy(&req.body);
            let result = sitw_fleet::registry::parse_tenant_arg(arg.trim())
                .and_then(|(name, policy, budget)| ctx.register_tenant(&name, policy, budget));
            match result {
                Ok(spec) => write_tenant(out, &spec),
                Err(e) => write_error(out, 400, &e),
            }
        }
        ("POST", "/admin/snapshot") => match &ctx.cfg.snapshot_path {
            Some(path) => {
                let snapshot = ctx.snapshot();
                match snapshot.write_to(path) {
                    Ok(()) => {
                        let mut body = Vec::with_capacity(64);
                        body.extend_from_slice(b"{\"apps\":");
                        push_u64(&mut body, snapshot.apps.len() as u64);
                        body.push(b'}');
                        write_response(out, 200, "application/json", &body);
                    }
                    Err(e) => write_error(out, 500, &e.to_string()),
                }
            }
            None => write_error(out, 400, "no snapshot path configured"),
        },
        ("POST", "/admin/promote") => match promote(ctx, "operator request") {
            Ok(()) => write_response(out, 200, "application/json", b"{\"status\":\"promoted\"}"),
            Err(e) => write_error(out, 409, &e),
        },
        ("GET", "/debug/trace") => {
            let mut last = 64usize;
            let mut json = false;
            for pair in query.split('&') {
                if let Some(v) = pair.strip_prefix("n=") {
                    if let Ok(k) = v.parse::<usize>() {
                        last = k.min(4096);
                    }
                } else if pair == "format=json" {
                    json = true;
                }
            }
            // Blocking locks are safe here: recording sites only ever
            // try_lock, and no guard is held while this control request
            // executes. Holding all guards at once gives a consistent
            // cross-thread snapshot to merge.
            let mut reactor_guards = Vec::new();
            let mut shard_guards = Vec::new();
            if ctx.telem.enabled {
                reactor_guards.extend(ctx.telem.reactors.iter().map(|r| lock_unpoisoned(r)));
                shard_guards.extend(ctx.telem.shard_recorders.iter().map(|r| lock_unpoisoned(r)));
            }
            let mut sources: Vec<(String, &sitw_telemetry::FlightRecorder)> = Vec::new();
            for (i, g) in reactor_guards.iter().enumerate() {
                sources.push((format!("reactor-{i}"), &g.recorder));
            }
            for (i, g) in shard_guards.iter().enumerate() {
                sources.push((format!("shard-{i}"), &**g));
            }
            let spans = merge_spans(&sources, last);
            drop(reactor_guards);
            drop(shard_guards);
            let (content_type, body) = if json {
                ("application/json", write_trace_json(&spans, false))
            } else {
                ("text/plain", write_trace_text(&spans))
            };
            write_response(out, 200, content_type, body.as_bytes());
        }
        ("GET", "/debug/hist") => {
            // Raw per-stage bucket vectors — the federation wire format
            // a cluster router reconstructs and merges exactly (its
            // `/metrics/fleet` bucket counts equal the sum over nodes).
            let report = ctx.scrape();
            write_response(out, 200, "text/plain", report.render_raw().as_bytes());
        }
        ("GET", "/debug/events") => {
            // With telemetry off nothing is ever pushed: an empty ring.
            let body = EventRing::snapshot_json(&ctx.telem.events);
            write_response(out, 200, "application/json", body.as_bytes());
        }
        ("GET", "/debug/policy") => {
            let mut tenant = DEFAULT_TENANT_NAME;
            let mut app = "";
            for pair in query.split('&') {
                if let Some(v) = pair.strip_prefix("tenant=") {
                    tenant = v;
                } else if let Some(v) = pair.strip_prefix("app=") {
                    app = v;
                }
            }
            if app.is_empty() {
                write_error(out, 400, "missing app= query parameter");
            } else {
                match ctx.policy_probe(tenant, app) {
                    Some(body) => write_response(out, 200, "application/json", body.as_bytes()),
                    None => write_error(out, 404, "unknown tenant or app"),
                }
            }
        }
        ("GET", "/debug/threads") => {
            let mut body = String::with_capacity(512);
            body.push_str("{\"reactors\":[");
            if ctx.telem.enabled {
                for (i, shared) in ctx.telem.reactors.iter().enumerate() {
                    let t = lock_unpoisoned(shared);
                    let (queue_depth, queue_peak) = ctx.telem.reactor_gauges[i].read();
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(
                        body,
                        "{{\"id\":{i},\"epoll_waits\":{},\"epoll_wait_ns\":{},\"wakeups\":{},\
                         \"events_per_wake_mean\":{:.2},\"events_per_wake_max\":{},\
                         \"write_burst_mean_bytes\":{:.0},\"bp_pauses\":{},\"bp_resumes\":{},\
                         \"queue_depth\":{queue_depth},\"queue_peak\":{queue_peak}}}",
                        t.epoll_waits,
                        t.epoll_wait_ns,
                        t.wakeups,
                        t.events_per_wake.mean().unwrap_or(0.0),
                        t.events_per_wake.max_bound().unwrap_or(0),
                        t.write_bursts.mean().unwrap_or(0.0),
                        t.bp_pauses,
                        t.bp_resumes,
                    );
                }
            }
            body.push_str("],\"shards\":[");
            if ctx.telem.enabled {
                for (i, gauge) in ctx.telem.shard_gauges.iter().enumerate() {
                    let (depth, peak) = gauge.read();
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(
                        body,
                        "{{\"id\":{i},\"mailbox_depth\":{depth},\"mailbox_peak\":{peak}}}"
                    );
                }
            }
            let _ = write!(
                body,
                "],\"conns\":{}}}",
                ctx.conns_live.load(Ordering::Relaxed)
            );
            write_response(out, 200, "application/json", body.as_bytes());
        }
        (method, p) if p.starts_with("/admin/tenants/") => {
            // Migration endpoints: `POST /admin/tenants/<name>/take`
            // exports-and-removes; `POST /admin/tenants/<name>/restore`
            // installs the take payload on this node.
            let rest = &p["/admin/tenants/".len()..];
            match (method, rest.rsplit_once('/')) {
                ("POST", Some((name, "take"))) => match ctx.take_tenant(name) {
                    Ok(payload) => write_response(out, 200, "text/plain", payload.as_bytes()),
                    Err((status, e)) => write_error(out, status, &e),
                },
                // The payload itself names the tenant; the path segment
                // is advisory (symmetry with /take).
                ("POST", Some((_, "restore"))) => {
                    match ctx.restore_tenant(&String::from_utf8_lossy(&req.body)) {
                        Ok(spec) => write_tenant(out, &spec),
                        Err((status, e)) => write_error(out, status, &e),
                    }
                }
                (_, Some((_, "take" | "restore"))) => write_error(out, 405, "method not allowed"),
                _ => write_error(out, 404, "not found"),
            }
        }
        ("POST", "/admin/shutdown") => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            ctx.wake_acceptor();
            ctx.wake_reactors();
            write_response(out, 200, "application/json", b"{\"status\":\"stopping\"}");
        }
        (
            _,
            "/invoke" | "/healthz" | "/metrics" | "/debug/trace" | "/debug/threads" | "/debug/hist"
            | "/debug/events" | "/debug/policy" | "/admin/tenants" | "/admin/snapshot"
            | "/admin/promote" | "/admin/shutdown",
        ) => write_error(out, 405, "method not allowed"),
        _ => write_error(out, 404, "not found"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression (failing before this PR): the JSON path took the
    /// registry with `.expect("registry poisoned")`, so one panicked
    /// admin writer killed every reactor thread on its next JSON
    /// request. Readers now recover the guard, like the frame path.
    #[test]
    fn poisoned_registry_lock_still_serves_json() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            ..ServeConfig::default()
        })
        .unwrap();
        let ctx = Arc::clone(&server.ctx);
        let writer = std::thread::spawn(move || {
            let _guard = ctx.registry.write().unwrap();
            panic!("admin writer dies holding the registry (expected in this test)");
        });
        assert!(writer.join().is_err());
        assert!(server.ctx.registry.is_poisoned());

        // One burst: the control path reads the registry too.
        let mut client = crate::Client::connect(server.addr()).unwrap();
        let mut burst = Vec::new();
        let invoke = br#"{"app":"survivor","ts":1}"#;
        crate::http::write_request(&mut burst, "POST", "/invoke", None, invoke).unwrap();
        crate::http::write_request(&mut burst, "GET", "/healthz", None, b"").unwrap();
        client.send(&burst).unwrap();
        let (status, verdict) = client.response().unwrap();
        assert_eq!(status, 200, "{verdict}");
        assert!(verdict.contains("\"verdict\":\"cold\""), "{verdict}");
        let (status, health) = client.response().unwrap();
        assert_eq!(status, 200, "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        server.shutdown().unwrap();
    }

    /// Regression: `POST /admin/tenants` accepted any range and any
    /// keep-alive. A `fixed:` overflowing `u64` milliseconds panicked
    /// the reactor thread in a debug build; `hybrid:100000h` registered
    /// a tenant whose every first sight allocated 24 MB of bins. Both
    /// are now a 400 naming the parameter, and the node serves on.
    #[test]
    fn registration_refuses_specs_the_kernel_cannot_serve() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        for spec in ["a=fixed:400000000000000", "b=hybrid:100000h", "c=hybrid:0h"] {
            let (status, body) = client.request("POST", "/admin/tenants", spec).unwrap();
            assert_eq!(status, 400, "{spec}: {body}");
            assert!(body.contains("bad "), "{spec}: {body}");
        }
        let (status, body) = client
            .request("POST", "/admin/tenants", "d=hybrid:24h")
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, listing) = client.request("GET", "/admin/tenants", "").unwrap();
        assert_eq!(status, 200);
        assert!(!listing.contains("\"name\":\"a\""), "{listing}");
        assert!(listing.contains("\"name\":\"d\""), "{listing}");
        server.shutdown().unwrap();
    }

    /// Regression (a debug-build panic before this PR): the node summed
    /// its shards' default-tenant slices with `+=`. Timestamps are
    /// client-supplied and the ledger saturates its idle integral at
    /// `u64::MAX`, so two shards can both report a saturated slice.
    #[test]
    fn saturated_shard_slices_fold_into_one_report_without_overflow() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::NoUnloading,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        // One never-unloaded app per shard, each warm for ~2^64 ms.
        for shard in 0..2 {
            let app = (0..64)
                .map(|i| format!("forever-{i}"))
                .find(|app| shard_of(app, 2) == shard)
                .unwrap();
            for ts in [0, u64::MAX - 1] {
                let (status, body) = client.invoke(None, &app, ts, None).unwrap();
                assert_eq!(status, 200, "{body}");
            }
        }
        let shards = server.metrics().shards;
        assert!(shards
            .iter()
            .all(|s| s.tenants.iter().any(|t| t.idle_mb_ms == u64::MAX)));
        let usage = server.ctx.tenant_usage();
        assert_eq!(usage.len(), 1, "{usage:?}");
        assert_eq!(usage[0].idle_mb_ms, u64::MAX);
        assert_eq!(usage[0].invocations, 4);
        server.shutdown().unwrap();
    }

    /// One `GET` on a fresh connection: `(status, body)`, or `None` when
    /// the reactor died mid-request.
    fn get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
        let wait = Duration::from_secs(5);
        crate::http::call(addr, "GET", path, b"", wait, wait).ok()
    }

    /// Regression: the connection used to take `POST /invoke?x=1` for a
    /// control request because it compared the raw path, so it reached
    /// an `unreachable!` arm here and killed the reactor thread; on a
    /// one-reactor node the next `/healthz` got a reset.
    #[test]
    fn invoke_with_a_query_is_served_and_the_reactor_lives() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            reactor_threads: 1,
            policy: PolicySpec::fixed_minutes(10),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        let (status, body) = client
            .request("POST", "/invoke?x=1", r#"{"app":"q","ts":1}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"verdict\":\"cold\""), "{body}");
        assert_eq!(get(server.addr(), "/healthz").map(|r| r.0), Some(200));
        server.shutdown().unwrap();
    }

    fn telem_server() -> Server {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            reactor_threads: 2,
            policy: PolicySpec::fixed_minutes(10),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    /// `/debug/events` and `/debug/trace` (text and JSON) are
    /// byte-identical to the bodies captured before their writers moved
    /// into `sitw-telemetry`. Control requests record no spans, so the
    /// injected state is all the endpoints see.
    #[test]
    fn golden_debug_events_and_trace() {
        use sitw_telemetry::{SpanEvent, Stage, TRACE_MARK};
        let server = telem_server();
        {
            let mut ring = server.ctx.telem.events.lock().unwrap();
            for (ts_ms, kind, tenant, app, detail) in [
                (7, EventKind::ColdStart, "default", "plain", ""),
                (
                    9,
                    EventKind::Eviction,
                    "ac\"me",
                    "a\\b\"c\u{1}d",
                    "budget 512 MB\n\"q\"",
                ),
                (0, EventKind::Migration, "t1", "", "take"),
            ] {
                ring.push(LifecycleEvent {
                    ts_ms,
                    kind,
                    tenant: tenant.into(),
                    app: app.into(),
                    detail: detail.into(),
                });
            }
        }
        let traced = TRACE_MARK | 0x2a;
        let span = |span, stage, start_ns, end_ns| SpanEvent {
            span,
            stage,
            start_ns,
            end_ns,
        };
        {
            let mut r0 = server.ctx.telem.reactors[0].lock().unwrap();
            r0.recorder.push(span(5, Stage::Read, 100, 180));
            r0.recorder.push(span(5, Stage::Decode, 180, 200));
            r0.recorder.push(span(5, Stage::Write, 900, 850));
            let mut r1 = server.ctx.telem.reactors[1].lock().unwrap();
            r1.recorder.push(span(traced, Stage::Read, 100, 150));
            r1.recorder
                .push(span(traced, Stage::Render, 700, 1_000_000_700));
            let mut s1 = server.ctx.telem.shard_recorders[1].lock().unwrap();
            s1.push(span(5, Stage::Queue, 200, 400));
            s1.push(span(5, Stage::Decide, 400, 450));
            s1.push(span(traced, Stage::Decide, 400, 460));
        }
        let addr = server.addr();
        for (path, golden) in [
            (
                "/debug/events",
                include_str!("../tests/golden/node_debug_events.json"),
            ),
            (
                "/debug/trace",
                include_str!("../tests/golden/node_debug_trace.txt"),
            ),
            (
                "/debug/trace?n=3",
                include_str!("../tests/golden/node_debug_trace_n3.txt"),
            ),
            (
                "/debug/trace?format=json",
                include_str!("../tests/golden/node_debug_trace.json"),
            ),
        ] {
            let (status, body) = get(addr, path).expect(path);
            assert_eq!(status, 200, "{path}");
            assert_eq!(body, golden, "{path}");
        }
        server.shutdown().unwrap();
    }

    /// Regression (all four endpoints failing before this PR): scrapes
    /// took the telemetry mutexes with `.lock().expect("… poisoned")` on
    /// the reactor thread, so one panicked recorder turned every later
    /// scrape into a second panic that killed a reactor and every
    /// connection on it.
    #[test]
    fn poisoned_telemetry_locks_still_serve_scrapes() {
        let mut failed = Vec::new();
        for path in [
            "/metrics",
            "/debug/events",
            "/debug/trace",
            "/debug/threads",
        ] {
            // A fresh server per endpoint, so each is shown on its own.
            let server = telem_server();
            let ctx = Arc::clone(&server.ctx);
            let recorder = std::thread::spawn(move || {
                let _events = ctx.telem.events.lock().unwrap();
                let _reactor = ctx.telem.reactors[0].lock().unwrap();
                let _shard = ctx.telem.shard_recorders[0].lock().unwrap();
                panic!("recorder dies holding telemetry locks (expected in this test)");
            });
            assert!(recorder.join().is_err());
            assert!(server.ctx.telem.events.is_poisoned());
            assert!(server.ctx.telem.reactors[0].is_poisoned());
            if get(server.addr(), path).map(|(status, _)| status) != Some(200) {
                failed.push(path);
            }
            server.shutdown().unwrap();
        }
        assert!(failed.is_empty(), "no 200 from {failed:?}");
    }
}
