//! The daemon: the reactor pool, the shards, and lifecycle (restore →
//! serve → snapshot → shutdown).
//!
//! Threading model: **a small fixed pool of reactor threads**
//! ([`ServeConfig::reactor_threads`], see [`crate::reactor`]); the N
//! shards are state, each a [`ShardWorker`] behind its own mutex, not
//! threads. Every reactor accepts from the shared listener and
//! multiplexes its connections over epoll — thousands of mostly idle
//! keep-alive clients cost a slab entry each, not an OS thread and
//! stack. A reactor parses messages incrementally
//! ([`crate::http::ConnBuf::read_event_into`]), routes `(tenant, app)`
//! to a shard — default-tenant apps by app hash, named tenants whole by
//! tenant hash (see [`sitw_fleet::TenantRegistry::shard_of`]) — and
//! decides each shard's slice itself under that shard's lock
//! (`pool::Node`). Per connection, every message is answered
//! in arrival order before the next is read ([`crate::conn`]), so
//! HTTP/1.1 response ordering, frame ordering under SITW-BIN pipelining,
//! and ordering across protocol switches hold by construction.
//!
//! **Lock order.** The standby's promotion lock (see [`crate::follow`]),
//! then the tenant registry, then the replication state, then **one
//! shard at a time**: a thread holding a shard lock takes no other lock
//! but the `try_lock`s of the telemetry rings, and never waits on I/O or
//! a channel. A reactor releases its registry guard before it decides
//! (`Burst::flush_run` and `Burst::frame` in [`crate::pool`]), and the decide path
//! takes shards in ascending order, each released before the next.

use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sitw_core::HybridConfig;
use sitw_fleet::{
    LedgerExport, TenantId, TenantRegistry, TenantSpec, DEFAULT_TENANT, DEFAULT_TENANT_NAME,
};
use sitw_sim::PolicySpec;

use sitw_telemetry::{
    lock_unpoisoned, merge_spans, write_trace_json, write_trace_text, EventKind, EventRing,
    FlightRecorder, Gate, WallClock, EVENT_RING,
};

use crate::follow::{promote, pull_loop, Follow, FollowConfig, FollowStatus, NOT_PROMOTED};
use crate::http::{write_response, Request};
use crate::metrics::{
    ConnStats, MetricsReport, ProtoStats, ReactorTelem, ReplStats, ShardStats, TRACE_RING,
};
use crate::pool::Node;
use crate::reactor::{self, Pool};
use crate::restore::{self, Restored};
use crate::shard::{DirtyShardExport, ShardTelem, ShardWorker, TenantRestore};
use crate::snapshot::{
    decode_tenant_section, encode_tenant_section, AppRecord, ShardExport, Snapshot, TenantSnapshot,
};
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
    /// Number of shards (≥ 1): the partitions app and tenant routing,
    /// snapshots and replication frontiers are keyed by. A shard is
    /// state behind a lock, not a thread.
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
    /// Most pipelined JSON requests one run collects before it is
    /// decided (reading pauses until it is). A SITW-BIN frame is decided
    /// as it arrives; the output backlog cap bounds the rest.
    pub pipeline_window: usize,
    /// Event-loop threads multiplexing the connections (≥ 1). They do
    /// all the deciding too, so this, not the shard count, sets how many
    /// cores decide at once; a handful serves thousands of mostly idle
    /// keep-alive connections.
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
            pipeline_window: reactor::WINDOW,
            reactor_threads: reactor::REACTORS,
            idle_timeout: reactor::IDLE_TIMEOUT,
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

/// Shared telemetry state hung off the server context: one slot per
/// reactor thread and per shard, created at start and never resized.
/// Recording sites only ever `try_lock` these; scrapers lock them
/// briefly, never across a wait.
#[derive(Debug)]
pub(crate) struct TelemCtx {
    /// Master switch (from `ServeConfig::telemetry`).
    pub enabled: bool,
    /// Shared-epoch clock every thread stamps spans with.
    pub clock: WallClock,
    /// Per-reactor shared state (locked briefly by scrapers).
    pub reactors: Vec<Arc<Mutex<ReactorTelem>>>,
    /// Per-shard flight recorders (deciding reactors push, scrapers
    /// snapshot).
    pub shard_recorders: Vec<Arc<Mutex<FlightRecorder>>>,
    /// Node-wide lifecycle event ring, shared by every shard
    /// (`/debug/events`).
    pub events: Arc<Mutex<EventRing>>,
}

impl Gate for TelemCtx {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn clock(&self) -> &WallClock {
        &self.clock
    }
}

/// Shared state every reactor thread sees.
pub(crate) struct ServerCtx {
    pub(crate) cfg: ServeConfig,
    /// The listener, the reactors' epolls and the connection counts.
    pub(crate) pool: Arc<Pool>,
    /// The shards, in routing order (see the lock order in the module
    /// docs). A poisoned shard is refused, never recovered.
    pub(crate) shards: Vec<Mutex<ShardWorker>>,
    /// The tenant registry. Read-locked briefly per read burst or frame
    /// to resolve names/ids and routes; write-locked only by the admin
    /// registration and promotion paths.
    pub(crate) registry: RwLock<TenantRegistry>,
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
    /// Shared telemetry state: per-reactor flight recorders/histograms
    /// and per-shard recorders.
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

    /// Locks shard `i`. A poisoned shard — a panic while it was locked
    /// may have left its decision state half updated — is refused with
    /// a message, never recovered.
    pub(crate) fn shard(&self, i: usize) -> Result<MutexGuard<'_, ShardWorker>, String> {
        self.shards[i]
            .lock()
            .map_err(|_| format!("shard {i} unavailable (poisoned)"))
    }

    /// A copy of every reactor's telemetry with its live connection
    /// count (none with telemetry off): what `/metrics` and
    /// `/debug/threads` read. Brief blocking locks: recording sites only
    /// `try_lock` and never hold a guard across a wait, so this settles
    /// fast.
    fn reactor_telem(&self) -> Vec<ReactorTelem> {
        if !self.telem.enabled {
            return Vec::new();
        }
        let reactors = self.telem.reactors.iter().enumerate();
        reactors
            .map(|(i, shared)| ReactorTelem {
                conns: self.pool.conns(i),
                ..lock_unpoisoned(shared).clone()
            })
            .collect()
    }

    /// Every shard's counters; a poisoned shard is left out (its
    /// `/debug/threads` entry says so).
    fn scrape(&self) -> MetricsReport {
        let shards: Vec<ShardStats> = (0..self.shards.len())
            .filter_map(|i| self.shard(i).ok().map(|w| w.stats()))
            .collect();
        MetricsReport {
            shards,
            reactors: self.reactor_telem(),
            proto: ProtoStats {
                frames: self.frames.load(Ordering::Relaxed),
                batched_decisions: self.batched_decisions.load(Ordering::Relaxed),
                proto_errors: self.proto_errors.load(Ordering::Relaxed),
                control_frames: self.ctrl_frames.load(Ordering::Relaxed),
            },
            conns: ConnStats {
                live: self.pool.live(),
                accepted: self.pool.accepted.load(Ordering::Relaxed),
                peak: self.pool.peak.load(Ordering::Relaxed),
                reactor_threads: self.pool.reactors() as u64,
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

    /// Resolves `(tenant name, app)` to the owning shard and renders the
    /// app's live policy state (decision provenance): 404 when the
    /// tenant name or app is unknown, 503 when the shard is unavailable.
    fn policy_probe(&self, tenant: &str, app: &str) -> Result<String, (u16, String)> {
        let unknown = || (404, "unknown tenant or app".to_owned());
        let (id, shard) = {
            let registry = self.registry_read();
            let id = registry.resolve(tenant).ok_or_else(unknown)?;
            (id, registry.shard_of(id, app, self.shards.len()))
        };
        let worker = self.shard(shard).map_err(|e| (503, e))?;
        worker.policy_probe(id, app).ok_or_else(unknown)
    }

    /// Every shard's export, each taken under its own lock with the
    /// frontier it was taken at: the records mutated after `since[i]`
    /// for a replication delta, everything for `None`. Fails on the
    /// first unavailable shard rather than return part of the state.
    fn export_shards(&self, since: Option<&[u64]>) -> Result<Vec<DirtyShardExport>, String> {
        (0..self.shards.len())
            .map(|i| Ok(self.shard(i)?.export_dirty(since.map(|f| f[i]))))
            .collect()
    }

    fn snapshot(&self) -> Result<Snapshot, String> {
        let exports = self.export_shards(None)?;
        Ok(merge_exports(
            self.cfg.policy.label(),
            exports.into_iter().map(|d| d.export),
        ))
    }

    /// Serves one replication round to a pulling follower
    /// ([`wire::FRAME_REPL_ACK`]): a chunked full sync when the
    /// follower's epoch is stale (or 0), a chunked delta of the state
    /// mutated since the last round when it matches, or a lone commit
    /// (no epoch bump) when nothing changed. Each shard exports under its
    /// own lock, one at a time — no shard pauses while another exports —
    /// and a round with an unavailable shard is refused with an
    /// `Unavailable` error frame instead of skipping its state.
    fn repl_round(&self, follower_epoch: u64, out: &mut Vec<u8>) {
        let mut repl = lock_unpoisoned(&self.repl);
        repl.rounds += 1;
        repl.last_pull_ms = self.uptime_ms().max(1);
        let full = follower_epoch == 0
            || follower_epoch != repl.epoch
            || repl.frontiers.len() != self.shards.len();
        let since = (!full).then(|| repl.frontiers.clone());
        let exports = match self.export_shards(since.as_deref()) {
            Ok(exports) => exports,
            Err(e) => return wire::encode_error_frame(out, BinErrorCode::Unavailable, &e),
        };
        let dirty = since
            .as_ref()
            .is_none_or(|since| exports.iter().zip(since).any(|(d, &f)| d.seq != f));
        if !dirty {
            // Nothing mutated since the last round: commit the epoch
            // the follower already holds, no bump, no document.
            return wire::encode_repl_commit(out, repl.epoch);
        }
        // Each export's frontier is exactly its state, so the next delta
        // starts where this round ends.
        repl.frontiers = exports.iter().map(|d| d.seq).collect();
        let apps: u64 = exports
            .iter()
            .flat_map(|d| d.export.tenants.iter())
            .map(|t| t.apps.len() as u64)
            .sum();
        let snap = merge_exports(
            self.cfg.policy.label(),
            exports.into_iter().map(|d| d.export),
        );
        // The document is encoded straight into its chunk frames.
        let epoch = repl.epoch + 1;
        let kind = if full {
            wire::FRAME_REPL_SYNC
        } else {
            wire::FRAME_REPL_DELTA
        };
        let mut round = wire::ReplRound::new(out, kind, epoch);
        let encoded = if full {
            snap.encode_into(&mut round)
        } else {
            snap.encode_delta_into(&mut round)
        };
        debug_assert!(encoded.is_ok(), "a replication round's writes never fail");
        let bytes = round.commit();
        repl.epoch = epoch;
        repl.bytes_streamed += bytes;
        if !full {
            repl.apps_streamed += apps;
            return;
        }
        repl.full_syncs += 1;
        drop(repl);
        let (telem, ts_ms) = (&self.telem, self.uptime_ms());
        telem.event(&telem.events, ts_ms, EventKind::ReplSync, |ev| {
            let _ = write!(ev.detail, "epoch {epoch}, {bytes} bytes");
        });
    }

    /// Registers a tenant at runtime: the owning shard learns about it
    /// *before* the registry exposes the name (the registry's write lock
    /// is held across both), so no request can race ahead of the
    /// shard's state.
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
        let home = staged.shard_of(id, "", self.shards.len());
        self.shard(home)?.add_tenant(spec.clone());
        *registry = staged;
        Ok(spec)
    }

    /// Scrapes the shards and folds per-tenant usage by **name** — the
    /// cluster-stable key (ids are per-node registration order and
    /// diverge after migrations). Default-tenant slices sum across
    /// shards; named tenants live whole on one shard.
    fn tenant_usage(&self) -> Result<Vec<TenantUsage>, String> {
        let mut slices = Vec::new();
        for i in 0..self.shards.len() {
            slices.extend(self.shard(i)?.stats().tenants);
        }
        Ok(TenantUsage::fold(slices.into_iter().map(|t| TenantUsage {
            name: t.name,
            budget_mb: t.budget_mb,
            warm_mb: t.warm_mb,
            evictions: t.evictions,
            idle_mb_ms: t.idle_mb_ms,
            invocations: t.invocations,
        })))
    }

    /// Applies a budget push: each named tenant's ledger budget is
    /// replaced by its owning shard (lazy enforcement — no retroactive
    /// verdict changes), and the registry copy follows for display
    /// coherence. Unknown names, the default tenant (whose sharded
    /// ledger cannot be budgeted) and tenants on an unavailable shard are
    /// skipped, not errors: the router reconciles against a snapshot of
    /// the node's tenant set, which a concurrent migration may have
    /// changed.
    fn set_budgets(&self, pairs: &[(String, u64)]) -> u32 {
        let mut applied = 0u32;
        for (name, budget_mb) in pairs {
            if name == DEFAULT_TENANT_NAME {
                continue;
            }
            let Some((id, home)) = self.home_of(name) else {
                continue;
            };
            // The shard guard is a temporary, released before the
            // registry is taken again.
            let found = self
                .shard(home)
                .is_ok_and(|mut w| w.set_budget(id, *budget_mb));
            if found {
                if let Ok(mut registry) = self.registry.write() {
                    registry.set_budget(id, *budget_mb);
                }
                applied += 1;
            }
        }
        applied
    }

    /// A named tenant's id and home shard.
    fn home_of(&self, name: &str) -> Option<(TenantId, usize)> {
        let registry = self.registry_read();
        let id = registry.resolve(name)?;
        Some((id, registry.shard_of(id, "", self.shards.len())))
    }

    /// Exports a tenant's complete state and removes it from this node
    /// (the source half of a migration). Returns the text payload the
    /// target node's `/admin/tenants/<name>/restore` accepts.
    fn take_tenant(&self, name: &str) -> Result<String, (u16, String)> {
        if name == DEFAULT_TENANT_NAME {
            return Err((400, "the default tenant cannot migrate".to_owned()));
        }
        let Some((id, home)) = self.home_of(name) else {
            return Err((404, format!("unknown tenant '{name}'")));
        };
        let export = self.shard(home).map_err(|e| (503, e))?.take_tenant(id);
        match export {
            Some(export) => Ok(encode_tenant_section(export)),
            None => Err((409, format!("tenant '{name}' already taken"))),
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
                (spec, registry.shard_of(id, "", self.shards.len()))
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
                    registry.shard_of(spec.id, "", self.shards.len())
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
        let mut worker = self.shard(home).map_err(|e| (503, e))?;
        worker.restore(restore).map_err(|e| (400, e))?;
        Ok(spec)
    }
}

/// A running decision service.
pub struct Server {
    ctx: Arc<ServerCtx>,
    /// A standby's pull loop (see [`crate::follow`]).
    puller: Option<JoinHandle<()>>,
    reactor_handles: Vec<JoinHandle<()>>,
}

/// Merges per-shard exports into one snapshot. Default-tenant state is
/// the union of per-shard slices (apps concatenated, ledger counters
/// summed, clocks as maxima); named tenants live whole on one shard.
pub(crate) fn merge_exports(
    policy_label: String,
    exports: impl IntoIterator<Item = ShardExport>,
) -> Snapshot {
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
            clock: WallClock::new(started),
            reactors: (0..cfg.reactor_threads).map(|_| Arc::default()).collect(),
            shard_recorders: (0..cfg.shards)
                .map(|_| Arc::new(Mutex::new(FlightRecorder::new(TRACE_RING))))
                .collect(),
            events: Arc::new(Mutex::new(EventRing::new(EVENT_RING))),
        };

        // Restore before the node serves: the shards' tables are built
        // on restore threads that have all ended here. A corrupt file
        // degrades to empty state with the reason on /healthz — losing
        // learned histograms costs cold starts, refusing to start costs
        // availability (the regression this guards).
        let Restored {
            registry,
            shards: tenants,
            restore_error,
        } = restore::from_file(&cfg)?;
        let mut shards = Vec::with_capacity(cfg.shards);
        for (id, tenants) in tenants.into_iter().enumerate() {
            let worker = ShardWorker::with_tenants(id, tenants).with_telem(ShardTelem {
                enabled: telem.enabled,
                clock: telem.clock,
                recorder: Arc::clone(&telem.shard_recorders[id]),
                queue: Default::default(),
                decide: Default::default(),
                events: Arc::clone(&telem.events),
            });
            shards.push(Mutex::new(worker));
        }

        let pool = Pool::bind(
            &cfg.addr,
            cfg.reactor_threads,
            cfg.read_timeout,
            cfg.idle_timeout,
        )?;
        let ctx = Arc::new(ServerCtx {
            follow: cfg.follow.clone().map(Follow::new),
            cfg,
            pool: Arc::clone(&pool),
            shards,
            registry: RwLock::new(registry),
            started,
            frames: AtomicU64::new(0),
            batched_decisions: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            ctrl_frames: AtomicU64::new(0),
            telem,
            repl: Mutex::new(ReplState::default()),
            restore_error,
        });
        let nodes = (0..pool.reactors()).map(|id| Node::new(Arc::clone(&ctx), id));
        let reactor_handles = reactor::spawn(&pool, "sitw-reactor", nodes)?;
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
            puller,
            reactor_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.pool.addr()
    }

    /// Scrapes all shards (in-process equivalent of `GET /metrics`).
    pub fn metrics(&self) -> MetricsReport {
        self.ctx.scrape()
    }

    /// Captures a snapshot of all shards without stopping the server;
    /// an error names an unavailable (poisoned) shard.
    pub fn snapshot(&self) -> Result<Snapshot, String> {
        self.ctx.snapshot()
    }

    /// True once a shutdown has been requested (e.g. via
    /// `POST /admin/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.pool.shutting_down()
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
    /// period instead of hanging the daemon), exports the shards, and
    /// writes the final snapshot to [`ServeConfig::snapshot_path`] when
    /// set. Returns the final state, or an error naming a poisoned shard
    /// (then nothing is written). An unpromoted standby's state is its
    /// replica, not its idle shards: that is what it returns and writes,
    /// and before its first sync it writes nothing.
    pub fn shutdown(mut self) -> io::Result<Snapshot> {
        self.ctx.pool.shutdown();
        if let Some(puller) = self.puller.take() {
            let _ = puller.join();
        }
        // Every connection has settled: no reactor decides any more.
        for handle in self.reactor_handles.drain(..) {
            let _ = handle.join();
        }
        let merged = self.ctx.snapshot().map_err(io::Error::other)?;
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
/// Like [`handle_control`], this runs once every earlier message on its
/// connection is answered: a usage report reflects every earlier
/// decision on the connection, and a budget push lands between frames,
/// never inside one.
pub(crate) fn handle_ctrl_frame(req: &ControlRequest, ctx: &ServerCtx, out: &mut Vec<u8>) {
    ctx.ctrl_frames.fetch_add(1, Ordering::Relaxed);
    if ctx.following() {
        // Not a cluster member (nor a replication source) until promoted.
        wire::encode_error_frame(out, BinErrorCode::Unavailable, NOT_PROMOTED);
        return;
    }
    match req {
        ControlRequest::Report => match ctx.tenant_usage() {
            Ok(usage) => wire::encode_control_reply(out, &ControlReply::Report(usage)),
            Err(e) => wire::encode_error_frame(out, BinErrorCode::Unavailable, &e),
        },
        ControlRequest::BudgetSet(pairs) => {
            let applied = ctx.set_budgets(pairs);
            wire::encode_control_reply(out, &ControlReply::BudgetAck { applied });
        }
        ControlRequest::ReplPull { epoch } => {
            ctx.repl_round(*epoch, out);
        }
    }
}

/// A JSON error response, `{"error":"<msg>"}`: the node's, and the
/// router's for the same failures.
pub fn write_error(out: &mut Vec<u8>, status: u16, msg: &str) {
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

/// Non-invoke endpoints: health, metrics, admin. Runs on a reactor
/// thread once every earlier message on its connection is answered
/// (settle-then-serve, see [`crate::conn`]).
pub(crate) fn handle_control(req: &Request, ctx: &ServerCtx, out: &mut Vec<u8>) {
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
            push_u64(&mut body, ctx.shards.len() as u64);
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
            Some(path) => match ctx.snapshot() {
                Ok(snapshot) => match snapshot.write_to(path) {
                    Ok(()) => {
                        let mut body = Vec::with_capacity(64);
                        body.extend_from_slice(b"{\"apps\":");
                        push_u64(&mut body, snapshot.apps.len() as u64);
                        body.push(b'}');
                        write_response(out, 200, "application/json", &body);
                    }
                    Err(e) => write_error(out, 500, &e.to_string()),
                },
                Err(e) => write_error(out, 503, &e),
            },
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
                    Ok(body) => write_response(out, 200, "application/json", body.as_bytes()),
                    Err((status, e)) => write_error(out, status, &e),
                }
            }
        }
        ("GET", "/debug/threads") => {
            let mut body = String::with_capacity(512);
            body.push_str("{\"reactors\":[");
            for (i, t) in ctx.reactor_telem().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(
                    body,
                    "{{\"id\":{i},\"epoll_waits\":{},\"epoll_wait_ns\":{},\"wakeups\":{},\
                     \"events_per_wake_mean\":{:.2},\"events_per_wake_max\":{},\
                     \"write_burst_mean_bytes\":{:.0},\"bp_pauses\":{},\"bp_resumes\":{},\
                     \"conns\":{}}}",
                    t.epoll_waits,
                    t.epoll_wait_ns,
                    t.wakeups,
                    t.events_per_wake.mean().unwrap_or(0.0),
                    t.events_per_wake.max_bound().unwrap_or(0),
                    t.write_bursts.mean().unwrap_or(0.0),
                    t.bp_pauses,
                    t.bp_resumes,
                    t.conns,
                );
            }
            // A shard is state, not a thread: what it can report here is
            // whether it still serves (a poisoned one does not).
            body.push_str("],\"shards\":[");
            for (i, shard) in ctx.shards.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let available = !shard.is_poisoned();
                let _ = write!(body, "{{\"id\":{i},\"available\":{available}}}");
            }
            let _ = write!(body, "],\"conns\":{}}}", ctx.pool.live());
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
            ctx.pool.shutdown();
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
    use crate::shard::shard_of;
    use std::sync::mpsc;

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
        let usage = server.ctx.tenant_usage().unwrap();
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
        use sitw_telemetry::{LifecycleEvent, SpanEvent, Stage, TRACE_MARK};
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

    /// One verdict as both wire protocols carry it: cold, pre-warm
    /// load, branch, and the two windows.
    type Verdict = (bool, bool, sitw_core::DecisionKind, u64, u64);

    /// Runs `body` on its own thread and fails the test if it has not
    /// returned by `deadline`: a lock-order deadlock fails, not hangs.
    fn within(deadline: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(deadline) {
            Ok(()) => handle.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after {deadline:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().unwrap_err())
            }
        }
    }

    /// Two reactors decide into the same two shards while four
    /// connections interleave JSON runs and SITW-BIN frames and a fifth
    /// scrapes, registers a tenant and snapshots mid-stream. Every
    /// connection's verdicts equal the offline trace of its own apps.
    #[test]
    fn two_reactors_share_the_shards() {
        use sitw_core::PolicyFactory;
        const CONNS: usize = 4;
        const APPS: usize = 6;
        const ROUNDS: u64 = 40;
        // Each app beats every ~7 minutes, with a jitter.
        let ts = |round: u64, k: usize| round * 420_000 + (round % 3) * 20_000 + k as u64;
        let owned: Vec<Vec<String>> = (0..CONNS)
            .map(|c| (0..APPS).map(|k| format!("c{c}-app-{k}")).collect())
            .collect();
        for apps in &owned {
            assert!((0..2).all(|s| apps.iter().any(|a| shard_of(a, 2) == s)));
        }
        let snap = std::env::temp_dir().join(format!("sitw-shared-{}.snap", std::process::id()));
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            reactor_threads: 2,
            snapshot_path: Some(snap.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        let progress = Arc::new(AtomicU64::new(0));
        let clients = owned.clone();
        within(Duration::from_secs(60), move || {
            let got: Vec<Vec<Vec<Verdict>>> = std::thread::scope(|scope| {
                let admin = scope.spawn(|| {
                    while progress.load(Ordering::Relaxed) < CONNS as u64 * ROUNDS / 2 {
                        std::thread::yield_now();
                    }
                    let mut client = crate::Client::connect(addr).unwrap();
                    let mut burst = Vec::new();
                    for (method, path, body) in [
                        ("GET", "/metrics", ""),
                        ("POST", "/admin/tenants", "mid=fixed:10"),
                        ("POST", "/admin/snapshot", ""),
                    ] {
                        crate::http::write_request(&mut burst, method, path, None, body.as_bytes())
                            .unwrap();
                    }
                    client.send(&burst).unwrap();
                    (0..3)
                        .map(|_| client.response().unwrap())
                        .collect::<Vec<_>>()
                });
                let workers: Vec<_> = clients
                    .iter()
                    .map(|apps| {
                        let progress = &progress;
                        scope.spawn(move || {
                            let mut client = crate::Client::connect(addr).unwrap();
                            let mut seen = vec![Vec::new(); APPS];
                            for round in 0..ROUNDS {
                                if round % 2 == 0 {
                                    let mut burst = Vec::new();
                                    for (k, app) in apps.iter().enumerate() {
                                        let body = format!(
                                            "{{\"app\":\"{app}\",\"ts\":{}}}",
                                            ts(round, k)
                                        );
                                        crate::http::write_request(
                                            &mut burst,
                                            "POST",
                                            "/invoke",
                                            None,
                                            body.as_bytes(),
                                        )
                                        .unwrap();
                                    }
                                    client.send(&burst).unwrap();
                                    for verdicts in seen.iter_mut() {
                                        let (status, body) = client.response().unwrap();
                                        assert_eq!(status, 200, "{body}");
                                        let d = wire::parse_decision(&body).unwrap();
                                        verdicts.push((
                                            d.cold,
                                            d.prewarm_load,
                                            d.kind,
                                            d.windows.pre_warm_ms,
                                            d.windows.keep_alive_ms,
                                        ));
                                    }
                                } else {
                                    let records: Vec<(u16, &str, u64)> = (apps.iter().enumerate())
                                        .map(|(k, app)| (0, app.as_str(), ts(round, k)))
                                        .collect();
                                    let reply = client
                                        .batch(|f| wire::encode_request_frame_v2(f, &records))
                                        .unwrap();
                                    for (verdicts, r) in
                                        seen.iter_mut().zip(reply.records().unwrap())
                                    {
                                        let wire::BinReply::Verdict {
                                            cold,
                                            prewarm_load,
                                            kind,
                                            pre_warm_ms,
                                            keep_alive_ms,
                                            ..
                                        } = r
                                        else {
                                            panic!("{r:?}");
                                        };
                                        verdicts.push((
                                            cold,
                                            prewarm_load,
                                            kind,
                                            pre_warm_ms as u64,
                                            keep_alive_ms as u64,
                                        ));
                                    }
                                }
                                progress.fetch_add(1, Ordering::Relaxed);
                            }
                            seen
                        })
                    })
                    .collect();
                let got = workers.into_iter().map(|w| w.join().unwrap()).collect();
                for (status, body) in admin.join().unwrap() {
                    assert_eq!(status, 200, "{body}");
                }
                got
            });
            for (apps, got) in owned.iter().zip(got) {
                for (k, (app, got)) in apps.iter().zip(got).enumerate() {
                    let events: Vec<u64> = (0..ROUNDS).map(|r| ts(r, k)).collect();
                    let mut policy = HybridConfig::default().new_policy();
                    let want: Vec<Verdict> = sitw_sim::verdict_trace(&events, &mut policy)
                        .iter()
                        .map(|v| {
                            let w = v.windows;
                            (
                                v.cold,
                                v.prewarm_load,
                                v.kind,
                                w.pre_warm_ms,
                                w.keep_alive_ms,
                            )
                        })
                        .collect();
                    assert_eq!(got, want, "{app}");
                }
            }
            let m = server.metrics();
            assert_eq!(m.invocations(), (CONNS * APPS) as u64 * ROUNDS);
            assert_eq!(m.conns.reactor_threads, 2);
            server.shutdown().unwrap();
        });
        let _ = std::fs::remove_file(snap);
    }

    /// A panic while a shard is locked leaves its state suspect, so the
    /// shard is refused with a typed error on every path — JSON 503, an
    /// `Unavailable` frame, a 503 from the control paths — while the
    /// other shard serves both protocols and `/healthz` stays 200.
    #[test]
    fn a_poisoned_shard_is_refused_and_the_others_serve() {
        let snap = std::env::temp_dir().join(format!("sitw-poisoned-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&snap);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            snapshot_path: Some(snap.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let ctx = Arc::clone(&server.ctx);
        let poisoner = std::thread::spawn(move || {
            let _shard = ctx.shards[0].lock().unwrap();
            panic!("a step dies holding shard 0 (expected in this test)");
        });
        assert!(poisoner.join().is_err());
        assert!(server.ctx.shards[0].is_poisoned());
        let on = |s| {
            (0..64)
                .map(|i| format!("p-{i}"))
                .find(|a| shard_of(a, 2) == s)
                .unwrap()
        };
        let (lost, kept) = (on(0), on(1));
        let mut client = crate::Client::connect(server.addr()).unwrap();

        // One JSON run across both shards: answered in order, the
        // poisoned shard's request with 503.
        let mut burst = Vec::new();
        for (app, ts) in [(&kept, 1), (&lost, 1), (&kept, 2)] {
            let body = format!("{{\"app\":\"{app}\",\"ts\":{ts}}}");
            crate::http::write_request(&mut burst, "POST", "/invoke", None, body.as_bytes())
                .unwrap();
        }
        client.send(&burst).unwrap();
        let statuses: Vec<u16> = (0..3).map(|_| client.response().unwrap().0).collect();
        assert_eq!(statuses, [200, 503, 200]);

        // SITW-BIN: a frame on the healthy shard is decided, one that
        // touches the poisoned shard is refused whole.
        let records = client
            .batch(|f| wire::encode_request_frame_v2(f, &[(0, kept.as_str(), 3)]))
            .unwrap()
            .records()
            .unwrap();
        assert!(matches!(records[..], [wire::BinReply::Verdict { .. }]));
        let both = [(0, kept.as_str(), 4), (0, lost.as_str(), 4)];
        match client
            .batch(|f| wire::encode_request_frame_v2(f, &both))
            .unwrap()
        {
            crate::http::Reply::Frame(wire::ServerFrameDecode::Error { code, .. }) => {
                assert_eq!(code, BinErrorCode::Unavailable)
            }
            other => panic!("{other:?}"),
        }

        // The control paths report the shard instead of panicking.
        let (status, health) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(status, 200, "{health}");
        let (status, metrics) = client.request("GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert!(metrics.contains("sitw_serve_invocations_total{shard=\"1\"} 3"));
        assert!(!metrics.contains("sitw_serve_invocations_total{shard=\"0\"}"));
        let (_, threads) = client.request("GET", "/debug/threads", "").unwrap();
        assert!(
            threads.contains("{\"id\":0,\"available\":false}"),
            "{threads}"
        );
        let policy = |app: &str| format!("/debug/policy?app={app}");
        assert_eq!(client.request("GET", &policy(&lost), "").unwrap().0, 503);
        assert_eq!(client.request("GET", &policy(&kept), "").unwrap().0, 200);
        let (status, body) = client.request("POST", "/admin/snapshot", "").unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(server.snapshot().is_err());
        // Shutdown refuses to write a snapshot missing a shard.
        drop(client);
        assert!(server.shutdown().is_err());
        assert!(!snap.exists());
    }
}
