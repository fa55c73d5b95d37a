//! The `sitw-router` daemon: one port in front of N `sitw-serve` nodes.
//!
//! The router is deliberately thin. It terminates both wire protocols
//! (JSON over HTTP and SITW-BIN, sniffed per message exactly like a
//! node), consults the [`ClusterRing`] for placement, and forwards. It
//! keeps **no policy state** and refuses no invocation: every verdict is
//! produced by a node, so a one-node cluster answers bit-for-bit what
//! the bare node would.
//!
//! The router is a node whose partitions are remote. Its clients run on
//! the node's reactor driver and connection state machine
//! ([`sitw_serve::reactor`], [`sitw_serve::conn`]), a few reactor
//! threads multiplexing every client connection; only the handler
//! differs (`forward.rs`). Where a node sorts a frame's records by
//! shard and decides each slice, the router sorts them by ring owner and
//! forwards each slice to that node over its reactor's connection to it,
//! then splices the replies back into one client frame in request
//! order. The answer is owed until every slice's reply is in; a control
//! request waits until nothing is owed on its connection, exactly as on
//! a node.
//!
//! Failure is typed, never silent: a dead node surfaces as the
//! [`sitw_serve::wire::BinErrorCode::Unavailable`] error frame (or HTTP
//! 503 with the node address in the body) within the `upstream_timeout`
//! bound — a hung node (SIGSTOP, dead disk) stalls only the clients it
//! owes answers, and only that long.
//! Recovery stays an explicit epoch advance, so the ring remains a
//! deterministic function of operator actions — which is what lets
//! one [`sitw_fleet::FleetSim`] model the cluster offline. A health
//! prober probes every live node's `/healthz` and writes what it finds
//! into the node's slot: `GET /admin/ring` lists each slot's consecutive
//! probe failures, a `down` flag from three of them on, and its unspent
//! warm standby (`--standby IDX=ADDR`, the address of a `sitw-serve
//! --follow` node). An operator takes a node out with one verb, `POST
//! /admin/ring/failover?node=N`: it promotes the slot's standby via its
//! `POST /admin/promote`, provisions it, swaps that address into the
//! slot and bumps the ring epoch; with no standby left to promote it
//! drops the node and its tenants rehash over the survivors. One failover
//! runs at a time; a second answers 409 at once. Every promote step
//! retries with bounded exponential backoff plus deterministic jitter,
//! and the whole lifecycle lands in `/debug/events` and the
//! `sitw_router_failover_*` metric families.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sitw_fleet::fnv1a;
use sitw_serve::http::{call, endpoints_line, lookup, query_arg, write_response, Request, Route};
use sitw_serve::reactor::{self, Pool};
use sitw_serve::server::write_error;
use sitw_serve::wire;
use sitw_serve::TenantConfig;

use sitw_telemetry::{
    is_trace_span, lock_unpoisoned, write_trace_json, write_trace_text, Clock, EventKind,
    EventRing, FlightRecorder, Gate, Stage, WallClock, EVENT_RING, TRACE_MARK,
};

use crate::federate::{parse_hist_body, parse_trace_spans, rebase, FleetHists, NodeSpan};
use crate::forward::Front;
use crate::metrics::{render_fleet, RouterMetrics};
use crate::ring::ClusterRing;

/// How long the router waits for a control-plane TCP connect
/// (provisioning, promotion, scrapes). The data path uses the
/// configurable [`RouterConfig::upstream_timeout`] instead.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long the router waits for a control-plane response.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// Consecutive health-probe failures that mark a slot `down` — one
/// failed probe is a blip, three in a row is a dead or wedged node.
const PROBE_FAILURE_THRESHOLD: u32 = 3;

/// Attempts per promote step (standby promote, promoted-node
/// provisioning) before the failover drops the node instead.
const FAILOVER_ATTEMPTS: u32 = 4;

/// Base backoff between failover attempts; doubles per retry.
const FAILOVER_BACKOFF_MS: u64 = 50;

/// Jitter bound added to each backoff (deterministic, hash-derived —
/// desynchronizes concurrent failovers without RNG state).
const FAILOVER_JITTER_MS: u64 = 25;

/// One ring slot: the node serving it and what the router knows of it.
/// The slot table is written a whole slot at a time under one lock, so
/// a reader never sees one node's address beside another's wire ids.
pub(crate) struct Slot {
    /// Resolved node address.
    addr: SocketAddr,
    /// Display name for errors, metric labels and `/admin/ring`.
    pub(crate) name: String,
    /// Tenant name → node-local wire id (ids diverge across nodes that
    /// registered tenants in different orders).
    pub(crate) ids: HashMap<String, u16>,
    /// The warm standby a failover would promote; `None` once spent on
    /// a promotion of this slot, or when none was configured.
    standby: Option<String>,
    /// Consecutive failed health probes of the current node.
    probe_failures: u32,
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Node addresses; slot order defines ring node indices.
    pub nodes: Vec<String>,
    /// The cluster tenant table, as a node's. Wire id `k+1` is
    /// `tenants[k]`; id 0 is the default tenant, exactly as on a node.
    /// Provisioning registers a tenant, with its policy and budget (0 =
    /// unlimited), on every node that doesn't know it yet, and sets a
    /// non-zero budget on every node that does.
    pub tenants: Vec<TenantConfig>,
    /// Tag every Nth untraced request with a router-originated trace id
    /// and record hop spans for all traced requests; 0 disables hop
    /// recording (client trace ids still propagate to the nodes).
    pub trace_sample: usize,
    /// Health-probe interval in milliseconds.
    pub probe_ms: u64,
    /// Warm-standby addresses by node slot: a failover of slot `i`
    /// promotes the standby registered for `i` (a `sitw-serve --follow`
    /// node) in place and swaps its address into the slot, instead of
    /// dropping the node.
    pub standbys: Vec<(usize, String)>,
    /// Data-path upstream deadline: a connect, and the wait for the
    /// oldest reply a node owes. A hung node surfaces as a typed 503 /
    /// `Unavailable` naming the node within this bound (plus a tick) to
    /// every client it owes, instead of stalling them forever.
    pub upstream_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            nodes: Vec::new(),
            tenants: Vec::new(),
            trace_sample: 0,
            probe_ms: 500,
            standbys: Vec::new(),
            upstream_timeout: Duration::from_millis(2_000),
        }
    }
}

/// Bit 62 distinguishes router-originated trace ids from client
/// (loadgen) ones; both carry [`TRACE_MARK`] in bit 63.
pub const ROUTER_TRACE_ORIGIN: u64 = 1 << 62;

/// Hop span ring capacity: 6 stages × ~680 traced requests.
const ROUTER_RECORDER_CAP: usize = 4096;

/// The router's telemetry: the hop flight recorder, the lifecycle event
/// ring, and fleet trace sampling.
///
/// The router records its six hop stages (`ingress` → `route` →
/// `forward` → `await` → `reassemble` → `egress`) for *traced* requests
/// only: the client propagated an `X-Sitw-Trace` id (or the SITW-BIN
/// trace field), or `--trace-sample N` tagged every Nth arriving
/// request with a router-originated id. The id rides on the forwarded
/// work, the node adopts it as the span id of its own six stages, and
/// `GET /debug/trace` merges both sides into one timeline. With
/// sampling off (`trace_sample == 0`) hop recording is a constant
/// branch, while lifecycle events (ring epochs, failovers) are always
/// recorded: they are rare by construction.
#[derive(Debug)]
pub(crate) struct RouterTelem {
    /// Hop span recording on (`--trace-sample` was given).
    enabled: bool,
    /// Tag every Nth request with a router-originated id.
    sample: u64,
    /// Requests seen by the sampler (also the id counter).
    seq: AtomicU64,
    /// Wall nanoseconds since router start — the hop span timebase.
    clock: WallClock,
    /// The hop span ring.
    pub(crate) recorder: Mutex<FlightRecorder>,
    /// Lifecycle events: ring epochs, failovers.
    pub(crate) events: Mutex<EventRing>,
}

impl RouterTelem {
    fn new(trace_sample: usize) -> Self {
        Self {
            enabled: trace_sample > 0,
            sample: trace_sample as u64,
            seq: AtomicU64::new(0),
            clock: WallClock::default(),
            recorder: Mutex::new(FlightRecorder::new(ROUTER_RECORDER_CAP)),
            events: Mutex::new(EventRing::new(EVENT_RING)),
        }
    }

    /// The trace id of one arriving request: a client-propagated id is
    /// always adopted (and forwarded); otherwise, when sampling is on,
    /// every Nth request gets a fresh router-originated id.
    #[inline]
    pub(crate) fn sample(&self, client: Option<u64>) -> Option<u64> {
        if client.is_some() {
            return client;
        }
        if !self.enabled {
            return None;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.sample)
            .then_some(TRACE_MARK | ROUTER_TRACE_ORIGIN | (n & (ROUTER_TRACE_ORIGIN - 1)))
    }

    /// Wall milliseconds since router start: the stamp of router events,
    /// which are control-plane, so there is no domain timestamp to
    /// reuse.
    pub(crate) fn wall_ms(&self) -> u64 {
        self.clock.now_ns() / 1_000_000
    }
}

impl Gate for RouterTelem {
    #[inline]
    fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn clock(&self) -> &WallClock {
        &self.clock
    }

    fn events_enabled(&self) -> bool {
        true
    }
}

/// Shared state of a running router.
pub(crate) struct RouterCtx {
    pub(crate) cfg: RouterConfig,
    /// The listener, the reactors' epolls and the connection counts.
    pub(crate) pool: Arc<Pool>,
    /// Node slot count — fixed for the router's life (a failover swaps
    /// a slot's address, never adds or removes slots).
    pub(crate) slots: usize,
    /// The node slots, in ring order. A failover swaps one slot whole.
    pub(crate) nodes: RwLock<Vec<Slot>>,
    pub(crate) ring: RwLock<ClusterRing>,
    /// Held for the whole of one failover, so two requests for one slot
    /// cannot both promote or drop it; a request that finds it held is
    /// refused rather than parked on a second reactor.
    failing_over: Mutex<()>,
    pub(crate) metrics: RouterMetrics,
    /// Hop span recorder, lifecycle event ring, and trace sampler.
    pub(crate) telem: RouterTelem,
}

impl RouterCtx {
    fn shutting_down(&self) -> bool {
        self.pool.shutting_down()
    }

    /// The current address of one node slot.
    pub(crate) fn node_addr(&self, node: usize) -> SocketAddr {
        read(&self.nodes)[node].addr
    }

    /// The current display name of one node slot.
    pub(crate) fn node_name(&self, node: usize) -> String {
        read(&self.nodes)[node].name.clone()
    }

    fn sync_ring_gauges(&self, ring: &ClusterRing) {
        self.metrics
            .ring_epoch
            .store(ring.epoch(), Ordering::Relaxed);
        self.metrics
            .nodes_live
            .store(ring.live_count() as u64, Ordering::Relaxed);
    }

    /// One fleet federation pass: scrapes every live node's
    /// `/debug/hist` and `/admin/usage`, merges the raw log2 buckets
    /// exactly and folds the usage rows by tenant name. A node either
    /// of whose scrapes fails or does not parse counts a node error and
    /// is left out of both (`sitw_router_fleet_nodes` reports the
    /// coverage).
    fn fleet_scrape(&self) -> FleetHists {
        let ring = read(&self.ring).clone();
        let mut fleet = FleetHists::default();
        for node in 0..self.slots {
            if !ring.is_live(node) {
                continue;
            }
            let addr = self.node_addr(node);
            let scrape = |path| match control_call(addr, "GET", path, b"") {
                Ok((200, body)) => Some(body),
                _ => None,
            };
            let hists = scrape("/debug/hist").and_then(|body| parse_hist_body(&body));
            // A node whose histograms failed is not asked for its usage.
            let usage = || wire::parse_usage(scrape("/admin/usage")?.as_bytes()).ok();
            match hists.and_then(|hists| Some((hists, usage()?))) {
                Some((hists, usage)) => fleet.absorb(hists, usage),
                None => self.metrics.node_error(node),
            }
        }
        fleet
    }

    /// The merged end-to-end timeline: the router's own hop spans plus
    /// every live node's propagated-trace spans, rebased per
    /// (node, trace) onto the router clock (anchored at the router's
    /// forward-completion instant for that trace, clamped at its
    /// await-completion instant) and ordered by (trace, start).
    /// Non-destructive on both sides — scraping changes nothing.
    fn merged_trace(&self) -> Vec<NodeSpan> {
        let mut spans: Vec<NodeSpan> = Vec::new();
        let mut forward_end: HashMap<u64, u64> = HashMap::new();
        let mut await_end: HashMap<u64, u64> = HashMap::new();
        {
            let rec = lock_unpoisoned(&self.telem.recorder);
            for &event in rec.events() {
                if event.stage == Stage::Forward {
                    forward_end.insert(event.span, event.end_ns);
                }
                if event.stage == Stage::Await {
                    await_end.insert(event.span, event.end_ns);
                }
                spans.push(NodeSpan {
                    event,
                    source: "router".to_owned(),
                });
            }
        }
        let ring = read(&self.ring).clone();
        for node in 0..self.slots {
            if !ring.is_live(node) {
                continue;
            }
            let body = match control_call(
                self.node_addr(node),
                "GET",
                "/debug/trace?format=json&n=4096",
                b"",
            ) {
                Ok((200, body)) => body,
                Ok(_) | Err(_) => {
                    self.metrics.node_error(node);
                    continue;
                }
            };
            let mut by_trace: HashMap<u64, Vec<NodeSpan>> = HashMap::new();
            for s in parse_trace_spans(&body) {
                if is_trace_span(s.event.span) {
                    by_trace.entry(s.event.span).or_default().push(s);
                }
            }
            let name = self.node_name(node);
            for (trace, mut group) in by_trace {
                if let Some(&anchor) = forward_end.get(&trace) {
                    // No await span yet (reply still in flight): no ceiling.
                    let ceiling = await_end.get(&trace).copied().unwrap_or(u64::MAX);
                    rebase(&mut group, anchor, ceiling);
                }
                for mut s in group {
                    s.source = format!("{name}/{}", s.source);
                    spans.push(s);
                }
            }
        }
        spans.sort_by_key(|s| (s.event.span, s.event.start_ns, s.event.end_ns));
        spans
    }

    /// Records one health probe of `node` made at `addr`: a success
    /// clears the slot's failure run, a failure extends it, and the
    /// failure that reaches [`PROBE_FAILURE_THRESHOLD`] raises the
    /// `node-down` event — under the slot's lock, so whoever sees the
    /// slot down finds the event too. A probe of an address the slot no
    /// longer holds (a failover swapped it meanwhile) is dropped. Only a
    /// probe that changes the slot takes the write lock the data path's
    /// readers wait on.
    fn probed(&self, node: usize, addr: SocketAddr, healthy: bool) {
        let unchanged = |slot: &Slot| slot.addr != addr || healthy && slot.probe_failures == 0;
        if unchanged(&read(&self.nodes)[node]) {
            return;
        }
        let mut nodes = write(&self.nodes);
        let slot = &mut nodes[node];
        if unchanged(slot) {
            return;
        }
        if healthy {
            slot.probe_failures = 0;
            return;
        }
        slot.probe_failures = slot.probe_failures.saturating_add(1);
        self.metrics.probe_failures.fetch_add(1, Ordering::Relaxed);
        if slot.probe_failures == PROBE_FAILURE_THRESHOLD {
            let (name, standby) = (&slot.name, slot.standby.as_deref().unwrap_or("none"));
            self.event(
                EventKind::NodeDown,
                format_args!(
                    "node {node} ({name}): {PROBE_FAILURE_THRESHOLD} consecutive \
                     health-probe failures (standby: {standby})"
                ),
            );
        }
    }

    /// Takes `node` out of the ring (`POST /admin/ring/failover`): promotes
    /// the slot's unspent standby in place, or drops the node when it has
    /// none or the promotion fails. A slot already out of the ring is left
    /// as it is. Every outcome answers the same JSON shape, naming the
    /// action and the promote error that forced a drop. `None`: another
    /// failover is in progress, and this one did nothing.
    fn failover(&self, node: usize) -> Option<String> {
        let _one_at_a_time = match self.failing_over.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(guard)) => guard.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        let (name, standby) = {
            let nodes = read(&self.nodes);
            (nodes[node].name.clone(), nodes[node].standby.clone())
        };
        let (action, error) = if !read(&self.ring).is_live(node) {
            ("none", None)
        } else if let Some(standby) = standby {
            match self.promote(node, &standby) {
                Ok(()) => ("promoted", None),
                Err(e) => {
                    self.drop_node(node, &name, &e);
                    ("dropped", Some(e))
                }
            }
        } else {
            self.drop_node(node, &name, "no standby");
            ("dropped", None)
        };
        let addr = wire::json_escape(&self.node_name(node));
        let ring = read(&self.ring);
        Some(format!(
            "{{\"node\":{node},\"action\":\"{action}\",\"addr\":\"{addr}\",\"epoch\":{},\
             \"live\":{},\"error\":{}}}",
            ring.epoch(),
            ring.live_count(),
            json_or_null(error.as_deref()),
        ))
    }

    /// Promotes `standby` into `node`'s slot: its `POST /admin/promote`
    /// (idempotent on the standby, so a retry converges), provisioning,
    /// then the slot swapped whole — the standby spent — under a bumped
    /// ring epoch.
    fn promote(&self, node: usize, standby: &str) -> Result<(), String> {
        let addr = resolve(standby).ok_or_else(|| format!("cannot resolve standby '{standby}'"))?;
        // The standby serves on the address it was configured under.
        self.failover_retry("standby promote", || {
            let (status, body) =
                control_call(addr, "POST", "/admin/promote", b"").map_err(|e| e.to_string())?;
            match status {
                200 => Ok(()),
                _ => Err(format!("promote failed ({status}): {body}")),
            }
        })?;
        // Replication already carried the tenants, so this mostly
        // re-learns the wire-id map — but it also backfills any tenant
        // registered after the last replication round.
        let ids = self.failover_retry("provision promoted node", || {
            provision_node(addr, &self.cfg.tenants)
        })?;
        let slot = Slot {
            addr,
            name: standby.to_owned(),
            ids,
            standby: None,
            probe_failures: 0,
        };
        let old = std::mem::replace(&mut write(&self.nodes)[node], slot).name;
        let (epoch, _) = self.change_ring(|ring| {
            ring.bump_epoch();
        });
        self.metrics
            .failover_promotions
            .fetch_add(1, Ordering::Relaxed);
        self.event(
            EventKind::Failover,
            format_args!("node {node}: {old} -> {standby} (standby promoted), epoch {epoch}"),
        );
        self.event(
            EventKind::RingEpoch,
            format_args!("epoch={epoch} failover-node={node}"),
        );
        Ok(())
    }

    /// Drops `node` (display name `name`) from the ring, its tenants
    /// rehashing over the survivors; `why` goes into the event.
    fn drop_node(&self, node: usize, name: &str, why: &str) {
        let (epoch, live) = self.change_ring(|ring| {
            ring.drop_node(node);
        });
        self.event(
            EventKind::Failover,
            format_args!("node {node} ({name}) dropped ({why}), epoch {epoch}"),
        );
        self.event(
            EventKind::RingEpoch,
            format_args!("epoch={epoch} drop-node={node} live={live}"),
        );
    }

    /// Applies one membership change to the ring and its gauges; returns
    /// the new `(epoch, live nodes)`.
    fn change_ring(&self, change: impl FnOnce(&mut ClusterRing)) -> (u64, usize) {
        let mut ring = write(&self.ring);
        change(&mut ring);
        self.sync_ring_gauges(&ring);
        (ring.epoch(), ring.live_count())
    }

    /// Records one lifecycle event.
    fn event(&self, kind: EventKind, detail: std::fmt::Arguments<'_>) {
        let t = &self.telem;
        t.event(&t.events, t.wall_ms(), kind, |ev| {
            let _ = ev.detail.write_fmt(detail);
        });
    }

    /// Runs one failover control-plane step with bounded exponential
    /// backoff and deterministic (hash-derived) jitter between attempts.
    fn failover_retry<T>(
        &self,
        what: &str,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = String::new();
        for attempt in 0..FAILOVER_ATTEMPTS {
            if attempt > 0 {
                self.metrics
                    .failover_retries
                    .fetch_add(1, Ordering::Relaxed);
                let backoff = FAILOVER_BACKOFF_MS << (attempt - 1);
                let jitter =
                    fnv1a(what.as_bytes()).wrapping_mul(attempt as u64) % FAILOVER_JITTER_MS;
                thread::sleep(Duration::from_millis(backoff + jitter));
            }
            match f() {
                Ok(v) => return Ok(v),
                Err(e) => last = e,
            }
        }
        Err(format!(
            "{what}: {FAILOVER_ATTEMPTS} attempts failed, last error: {last}"
        ))
    }
}

/// A running router daemon.
pub struct Router {
    ctx: Arc<RouterCtx>,
    /// The reactors and the prober.
    threads: Vec<JoinHandle<()>>,
}

impl Router {
    /// Starts the router: resolves and provisions the nodes (registering
    /// any configured tenant a node doesn't know yet, setting the
    /// budgets of those it does, and learning each node's tenant wire
    /// ids), binds the listen socket, and spawns the reactors (as many as
    /// a node runs by default) and the health prober.
    pub fn start(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.nodes.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one node",
            ));
        }
        // Standbys are checked before any node is dialled: a slot named
        // out of range or twice is a typo, not a fleet to provision.
        let count = cfg.nodes.len();
        let mut standbys: Vec<Option<&String>> = vec![None; count];
        for (node, standby) in &cfg.standbys {
            let seat = standbys.get_mut(*node).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("standby '{standby}' names node {node}, but only {count} nodes exist"),
                )
            })?;
            if let Some(first) = seat.replace(standby) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("node {node} has two standbys, '{first}' and '{standby}'"),
                ));
            }
        }
        let mut slots = Vec::with_capacity(count);
        for (name, standby) in cfg.nodes.iter().zip(standbys) {
            let addr = resolve(name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("cannot resolve node '{name}'"),
                )
            })?;
            let ids = provision_node(addr, &cfg.tenants)
                .map_err(|e| io::Error::other(format!("node {name}: {e}")))?;
            slots.push(Slot {
                addr,
                name: name.clone(),
                ids,
                standby: standby.cloned(),
                probe_failures: 0,
            });
        }
        let metrics = RouterMetrics::new(slots.len());
        let telem = RouterTelem::new(cfg.trace_sample);
        let pool = Pool::bind(&cfg.addr, reactor::REACTORS, reactor::IDLE_TIMEOUT)?;
        let ctx = Arc::new(RouterCtx {
            pool: Arc::clone(&pool),
            ring: RwLock::new(ClusterRing::new(slots.len())),
            metrics,
            telem,
            slots: slots.len(),
            nodes: RwLock::new(slots),
            failing_over: Mutex::new(()),
            cfg,
        });

        let fronts = (0..pool.reactors()).map(|id| Front::new(Arc::clone(&ctx), id));
        let mut threads = reactor::spawn(&pool, "router-reactor", fronts)?;
        let prober = Arc::clone(&ctx);
        threads.push(
            thread::Builder::new()
                .name("router-probe".into())
                .spawn(move || probe_loop(prober))?,
        );
        Ok(Router { ctx, threads })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.ctx.pool.addr()
    }

    /// The startup `endpoints:` line: every row of the router's route
    /// table.
    pub fn endpoints() -> String {
        endpoints_line(ROUTES)
    }

    /// The router's metrics (tests and embedding callers).
    pub fn metrics(&self) -> &RouterMetrics {
        &self.ctx.metrics
    }

    /// Whether `POST /admin/shutdown` (or [`Router::shutdown`]) has been
    /// requested.
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutting_down()
    }

    /// Blocks until shutdown is requested, then joins the daemon
    /// threads.
    pub fn wait(mut self) {
        while !self.ctx.shutting_down() {
            thread::sleep(Duration::from_millis(100));
        }
        self.join();
    }

    /// Requests shutdown and joins the daemon threads.
    pub fn shutdown(mut self) {
        self.ctx.pool.shutdown();
        self.join();
    }

    fn join(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Sleeps `interval` in small slices, so shutdown is honored promptly;
/// false once shutdown is requested.
fn pause(ctx: &RouterCtx, interval: Duration) -> bool {
    let mut remaining = interval;
    while !ctx.shutting_down() && remaining > Duration::ZERO {
        let slice = remaining.min(Duration::from_millis(50));
        thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
    !ctx.shutting_down()
}

/// The health prober: probes every live node's `/healthz` on a fixed
/// cadence and writes the outcome into its slot ([`RouterCtx::probed`]).
fn probe_loop(ctx: Arc<RouterCtx>) {
    let interval = Duration::from_millis(ctx.cfg.probe_ms.max(10));
    let timeout = ctx.cfg.upstream_timeout;
    while pause(&ctx, interval) {
        for node in 0..ctx.slots {
            let addr = ctx.node_addr(node);
            // A dropped slot routes nothing, so it is not probed and
            // keeps no failure run. A live one is probed on the data-path
            // deadline, so a hung node fails within the bound clients see.
            let healthy = !read(&ctx.ring).is_live(node)
                || matches!(
                    call(addr, "GET", "/healthz", b"", timeout, timeout),
                    Ok((200, _))
                );
            ctx.probed(node, addr, healthy);
        }
    }
}

/// What answers a row of [`ROUTES`].
#[derive(Clone, Copy)]
pub(crate) enum Verb {
    Invoke,
    Healthz,
    Metrics,
    FleetMetrics,
    Trace,
    Events,
    Ring,
    Failover,
    ListTenants,
    Shutdown,
}

/// The router's HTTP surface, one row per `(method, path)`. `POST
/// /invoke` is forwarded on the data path (`forward`); its row gives it
/// its 405.
#[rustfmt::skip]
pub(crate) const ROUTES: &[Route<Verb>] = &[
    ("POST", "/invoke",              Verb::Invoke),
    ("GET",  "/healthz",             Verb::Healthz),
    ("GET",  "/metrics",             Verb::Metrics),
    ("GET",  "/metrics/fleet",       Verb::FleetMetrics),
    ("GET",  "/debug/trace",         Verb::Trace),
    ("GET",  "/debug/events",        Verb::Events),
    ("GET",  "/admin/ring",          Verb::Ring),
    ("POST", "/admin/ring/failover", Verb::Failover),
    ("GET",  "/admin/tenants",       Verb::ListTenants),
    ("POST", "/admin/shutdown",      Verb::Shutdown),
];

/// Answers one control request — everything but `POST /invoke` — into
/// `out`, on the reactor that read it. Its connection owes nothing by
/// then (settle-then-serve), so a side effect lands after every earlier
/// request on the connection was answered. The endpoints that call
/// nodes block the reactor for their round trips, as a node's admin
/// verbs do.
pub(crate) fn control(ctx: &RouterCtx, req: &Request, out: &mut Vec<u8>) {
    let (&verb, query) = match lookup(ROUTES, &req.method, &req.path) {
        Ok(found) => found,
        Err((status, e)) => return write_error(out, status, e),
    };
    let json = |out: &mut Vec<u8>, status: u16, body: &str| {
        write_response(out, status, "application/json", body.as_bytes())
    };
    let node_arg = || query_arg(query, "node").and_then(|v| v.parse::<usize>().ok());
    match verb {
        // The data path forwards every invoke before control is asked.
        Verb::Invoke => write_error(out, 500, "an invoke reached the control path"),
        Verb::Healthz => {
            let ring = read(&ctx.ring);
            let body = format!(
                "{{\"status\":\"ok\",\"role\":\"router\",\"nodes\":{},\"live\":{},\
                 \"epoch\":{},\"tenants\":{}}}",
                ring.len(),
                ring.live_count(),
                ring.epoch(),
                ctx.cfg.tenants.len() + 1,
            );
            drop(ring);
            json(out, 200, &body);
        }
        Verb::Metrics => {
            let names: Vec<String> = read(&ctx.nodes).iter().map(|s| s.name.clone()).collect();
            let text = ctx.metrics.render(&names);
            write_response(out, 200, "text/plain; version=0.0.4", text.as_bytes());
        }
        Verb::FleetMetrics => {
            // Federation pass: pull every live node's raw log2 buckets
            // and merge exactly.
            let text = render_fleet(&ctx.fleet_scrape());
            write_response(out, 200, "text/plain; version=0.0.4", text.as_bytes());
        }
        Verb::Trace => {
            // The node's text shape with fleet sources, or (with
            // `format=json`) span objects keyed by hex trace id.
            let spans = ctx.merged_trace();
            let (content_type, body) = if query_arg(query, "format") == Some("json") {
                ("application/json", write_trace_json(&spans, true))
            } else {
                ("text/plain", write_trace_text(&spans))
            };
            write_response(out, 200, content_type, body.as_bytes());
        }
        Verb::Events => json(out, 200, &EventRing::snapshot_json(&ctx.telem.events)),
        Verb::Ring => {
            // Ring before slots, the order every reader takes them in.
            let ring = read(&ctx.ring);
            let mut body = format!("{{\"epoch\":{},\"nodes\":[", ring.epoch());
            for (i, slot) in read(&ctx.nodes).iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"node\":{i},\"addr\":\"{}\",\"live\":{},\"probe_failures\":{},\
                     \"down\":{},\"standby\":{}}}",
                    wire::json_escape(&slot.name),
                    ring.is_live(i),
                    slot.probe_failures,
                    slot.probe_failures >= PROBE_FAILURE_THRESHOLD,
                    json_or_null(slot.standby.as_deref()),
                ));
            }
            drop(ring);
            body.push_str("]}");
            json(out, 200, &body);
        }
        Verb::ListTenants => {
            // Same shape as a node's listing (id immediately before
            // name), so `sitw-loadgen` resolves ids against the router
            // transparently.
            let mut body =
                String::from("[{\"id\":0,\"name\":\"default\",\"policy\":\"-\",\"budget_mb\":0}");
            for (i, t) in ctx.cfg.tenants.iter().enumerate() {
                body.push_str(&format!(
                    ",{{\"id\":{},\"name\":\"{}\",\"policy\":\"{}\",\"budget_mb\":{}}}",
                    i + 1,
                    t.name,
                    t.policy.label(),
                    t.budget_mb,
                ));
            }
            body.push(']');
            json(out, 200, &body);
        }
        Verb::Failover => match node_arg() {
            Some(node) if node < ctx.slots => match ctx.failover(node) {
                Some(body) => json(out, 200, &body),
                None => write_error(out, 409, "failover in progress"),
            },
            _ => write_error(out, 400, "expected ?node=INDEX"),
        },
        Verb::Shutdown => {
            json(out, 200, "{\"status\":\"stopping\"}");
            ctx.pool.shutdown();
        }
    }
}

/// Read access that survives a writer's panic: the router state behind
/// these locks changes in steps that cannot panic part-way, so a
/// poisoned lock still guards coherent data — and a reactor serving many
/// clients must not turn one panic into theirs.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write access, likewise (see [`read`]).
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// `s` as a JSON string, or `null`.
fn json_or_null(s: Option<&str>) -> String {
    s.map_or("null".to_owned(), |s| {
        format!("\"{}\"", wire::json_escape(s))
    })
}

/// The first address `spec` resolves to.
fn resolve(spec: &str) -> Option<SocketAddr> {
    spec.to_socket_addrs().ok()?.next()
}

/// One control-plane exchange ([`call`]) under the router's
/// control-plane deadlines: provisioning, scrapes, promotion.
fn control_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, String)> {
    call(addr, method, path, body, CONNECT_TIMEOUT, CONTROL_TIMEOUT)
}

/// The count of a `POST /admin/budgets` answer, `{"applied":N}`.
fn parse_applied(body: &str) -> Option<u32> {
    let digits = body.strip_prefix("{\"applied\":")?.strip_suffix('}')?;
    digits.parse().ok()
}

/// Extracts the first `"id":N` field of a JSON body.
fn parse_id_field(body: &str) -> Option<u16> {
    let pos = body.find("\"id\":")?;
    let digits: String = body[pos + 5..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Ensures every configured tenant exists on `addr` with the router's
/// budget — registering missing ones with their policy and budget, and
/// setting every non-zero budget of the ones it knew in one `POST
/// /admin/budgets` — and returns the node's tenant name → wire id map.
/// A budget of 0 is never pushed: it would lift a node's limit, not
/// set one.
fn provision_node(
    addr: SocketAddr,
    tenants: &[TenantConfig],
) -> Result<HashMap<String, u16>, String> {
    let (status, body) = control_call(addr, "GET", "/admin/tenants", b"")
        .map_err(|e| format!("cannot list tenants: {e}"))?;
    if status != 200 {
        return Err(format!("tenant listing failed ({status}): {body}"));
    }
    let mut ids = wire::parse_tenant_listing(&body);
    let mut budgets = Vec::new();
    for t in tenants {
        if ids.contains_key(&t.name) {
            if t.budget_mb > 0 {
                budgets.push((t.name.clone(), t.budget_mb));
            }
            continue;
        }
        let spec = t
            .policy
            .spec_str()
            .ok_or_else(|| format!("tenant '{}': policy has no canonical spec string", t.name))?;
        let arg = if t.budget_mb > 0 {
            format!("{}={spec},budget={}", t.name, t.budget_mb)
        } else {
            format!("{}={spec}", t.name)
        };
        let (status, resp) = control_call(addr, "POST", "/admin/tenants", arg.as_bytes())
            .map_err(|e| format!("cannot register tenant '{}': {e}", t.name))?;
        if status != 200 {
            return Err(format!(
                "registering tenant '{}' failed ({status}): {resp}",
                t.name
            ));
        }
        let id = parse_id_field(&resp)
            .ok_or_else(|| format!("malformed registration response: {resp}"))?;
        ids.insert(t.name.clone(), id);
    }
    if !budgets.is_empty() {
        let mut body = Vec::new();
        wire::write_budgets(&mut body, &budgets);
        let (status, resp) = control_call(addr, "POST", "/admin/budgets", &body)
            .map_err(|e| format!("cannot set budgets: {e}"))?;
        if status != 200 || parse_applied(&resp) != Some(budgets.len() as u32) {
            return Err(format!(
                "setting {} budgets failed ({status}): {resp}",
                budgets.len()
            ));
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_tags_every_nth_and_adopts_client_ids() {
        let t = RouterTelem::new(3);
        assert!(t.enabled());
        // Client ids pass through untouched and don't consume the
        // sampling sequence.
        assert_eq!(t.sample(Some(0xAB)), Some(0xAB));
        // Requests 0, 3, 6, ... get router-originated ids.
        let ids: Vec<Option<u64>> = (0..6).map(|_| t.sample(None)).collect();
        assert!(ids[0].is_some() && ids[3].is_some());
        assert!(ids[1].is_none() && ids[2].is_none() && ids[4].is_none() && ids[5].is_none());
        let id = ids[0].unwrap();
        assert!(is_trace_span(id));
        assert_ne!(id & ROUTER_TRACE_ORIGIN, 0);
        assert_ne!(ids[0], ids[3], "sampled ids must be distinct");
    }

    #[test]
    fn disabled_sampler_still_propagates_but_never_originates() {
        let t = RouterTelem::new(0);
        assert!(!t.enabled());
        assert_eq!(t.sample(Some(7)), Some(7));
        for _ in 0..10 {
            assert_eq!(t.sample(None), None);
        }
        assert_eq!(t.now(), 0);
        // Hop spans are not recorded, lifecycle events are.
        t.try_with(&t.recorder, |r| {
            r.push_spans([TRACE_MARK], Stage::Ingress, 1, 2)
        });
        assert!(t.recorder.lock().unwrap().is_empty());
        t.event(&t.events, t.wall_ms(), EventKind::RingEpoch, |ev| {
            ev.detail.push_str("epoch=1");
        });
        assert_eq!(t.events.lock().unwrap().len(), 1);
    }

    #[test]
    fn tenant_arg_is_the_node_grammar() {
        let t = TenantConfig::parse("t0=hybrid,budget=64").unwrap();
        assert_eq!((t.name.as_str(), t.budget_mb), ("t0", 64));
        let plain = TenantConfig::parse("acme=fixed:10").unwrap();
        assert_eq!(plain.budget_mb, 0);
        assert!(TenantConfig::parse("nope").is_err());
        // A suffix the grammar lacks is refused, not ignored.
        assert!(TenantConfig::parse("t0=hybrid,qos=gold").is_err());
    }

    #[test]
    fn tenant_listing_parser_handles_node_shape() {
        let body = r#"[{"id":0,"name":"default","policy":"hybrid-4h[5,99]cv2","budget_mb":0},{"id":3,"name":"t1","policy":"fixed-10min","budget_mb":64}]"#;
        let ids = wire::parse_tenant_listing(body);
        assert_eq!(ids.get("default"), Some(&0));
        assert_eq!(ids.get("t1"), Some(&3));
        assert_eq!(ids.len(), 2);
        assert_eq!(parse_id_field(r#"{"id":17,"name":"x"}"#), Some(17));
        assert_eq!(parse_id_field("{}"), None);
    }

    /// A standby for a slot that does not exist, or a second standby for
    /// one that does, is refused before any node is dialled: the node
    /// address here has nothing listening on it.
    #[test]
    fn a_bad_standby_is_refused_before_any_node_is_dialled() {
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        for (standbys, slot) in [
            (vec![(3, "127.0.0.1:1".to_owned())], "node 3"),
            (
                vec![(0, "127.0.0.1:1".to_owned()), (0, "127.0.0.1:2".to_owned())],
                "node 0",
            ),
        ] {
            let err = Router::start(RouterConfig {
                nodes: vec![dead.clone()],
                standbys,
                ..RouterConfig::default()
            })
            .err()
            .expect("a bad standby must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains(slot), "{err}");
        }
    }

    /// A router over one telemetry-off node.
    fn node_and_router() -> (sitw_serve::Server, Router) {
        let node = sitw_serve::Server::start(sitw_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            telemetry: false,
            ..sitw_serve::ServeConfig::default()
        })
        .unwrap();
        let router = Router::start(RouterConfig {
            nodes: vec![node.addr().to_string()],
            ..RouterConfig::default()
        })
        .unwrap();
        (node, router)
    }

    /// The router's `/debug/events` and `/debug/trace` (text and JSON)
    /// are byte-identical to the bodies captured before their writers
    /// moved into `sitw-telemetry`. The node runs with telemetry off, so
    /// the merged timeline is exactly the injected hop spans.
    #[test]
    fn golden_debug_events_and_trace() {
        use sitw_telemetry::{LifecycleEvent, SpanEvent};
        let (node, router) = node_and_router();
        {
            let mut ring = router.ctx.telem.events.lock().unwrap();
            for (ts_ms, kind, tenant, app, detail) in [
                (
                    3,
                    EventKind::Failover,
                    "t\"0",
                    "a\\b\u{2}",
                    "rate=50\tburst",
                ),
                (4, EventKind::RingEpoch, "", "", "epoch=1"),
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
        {
            let id = TRACE_MARK | ROUTER_TRACE_ORIGIN | 7;
            let mut rec = router.ctx.telem.recorder.lock().unwrap();
            for (stage, start_ns, end_ns) in [
                (Stage::Ingress, 10, 30),
                (Stage::Route, 30, 35),
                (Stage::Forward, 35, 90),
                (Stage::Await, 90, 4_000),
                (Stage::Reassemble, 4_000, 4_000),
                (Stage::Egress, 4_100, 4_050),
            ] {
                rec.push(SpanEvent {
                    span: id,
                    stage,
                    start_ns,
                    end_ns,
                });
            }
            rec.push(SpanEvent {
                span: TRACE_MARK | 3,
                stage: Stage::Ingress,
                start_ns: 1,
                end_ns: 2,
            });
        }
        for (path, golden) in [
            (
                "/debug/events",
                include_str!("../tests/golden/router_debug_events.json"),
            ),
            (
                "/debug/trace",
                include_str!("../tests/golden/router_debug_trace.txt"),
            ),
            (
                "/debug/trace?format=json",
                include_str!("../tests/golden/router_debug_trace.json"),
            ),
        ] {
            let (status, body) = control_call(router.addr(), "GET", path, b"").unwrap();
            assert_eq!(status, 200, "{path}");
            assert_eq!(body, golden, "{path}");
        }
        router.shutdown();
        node.shutdown().unwrap();
    }

    /// Regression (both endpoints failing before this PR): the router
    /// `.expect`ed its telemetry locks on client threads, so a recorder
    /// that panicked holding one made every later scrape panic too.
    #[test]
    fn poisoned_telemetry_locks_still_serve_scrapes() {
        let (node, router) = node_and_router();
        let ctx = Arc::clone(&router.ctx);
        let recorder = thread::spawn(move || {
            let _events = ctx.telem.events.lock().unwrap();
            let _spans = ctx.telem.recorder.lock().unwrap();
            panic!("recorder dies holding telemetry locks (expected in this test)");
        });
        assert!(recorder.join().is_err());
        assert!(router.ctx.telem.events.is_poisoned() && router.ctx.telem.recorder.is_poisoned());
        for path in ["/metrics", "/debug/events", "/debug/trace"] {
            let status = control_call(router.addr(), "GET", path, b"").map(|(status, _)| status);
            assert_eq!(status.ok(), Some(200), "{path}");
        }
        router.shutdown();
        node.shutdown().unwrap();
    }

    /// Regression: the `node=` a ring verb reads was found only at the
    /// start of the query, and the rest was parsed with it, so a query
    /// naming another key first, or after it, answered 400.
    #[test]
    fn ring_verbs_read_node_wherever_it_stands_in_the_query() {
        let (node, router) = node_and_router();
        let addr = node.addr();
        for (path, action, epoch) in [
            ("/admin/ring/failover?x=1&node=0", "dropped", 1),
            ("/admin/ring/failover?node=0&x=1", "none", 1),
        ] {
            let (status, body) = control_call(router.addr(), "POST", path, b"").unwrap();
            let want = format!(
                "{{\"node\":0,\"action\":\"{action}\",\"addr\":\"{addr}\",\"epoch\":{epoch},\
                 \"live\":0,\"error\":null}}"
            );
            assert_eq!((status, body), (200, want), "{path}");
        }
        for path in ["/admin/ring/failover?node=1", "/admin/ring/failover?x=0"] {
            let (status, body) = control_call(router.addr(), "POST", path, b"").unwrap();
            assert_eq!(status, 400, "{path}: {body}");
        }
        router.shutdown();
        node.shutdown().unwrap();
    }

    /// Every row answered with a method no row lists for its path is a
    /// 405, and a path no row lists is a 404, both with their JSON error.
    #[test]
    fn every_route_refuses_other_methods_and_unlisted_paths_are_404() {
        let (node, router) = node_and_router();
        let mut client = sitw_serve::Client::connect(router.addr()).unwrap();
        let mut checked = 0;
        for &(_, path, _) in ROUTES {
            for method in ["GET", "POST", "PUT", "DELETE"] {
                if ROUTES.iter().any(|r| (r.0, r.1) == (method, path)) {
                    continue;
                }
                let (status, body) = client.request(method, path, "").unwrap();
                assert_eq!(
                    (status, body.as_str()),
                    (405, "{\"error\":\"method not allowed\"}"),
                    "{method} {path}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 3 * ROUTES.len(), "{checked}");
        for path in [
            "/",
            "/nope",
            "/admin",
            "/admin/ring/x",
            "/debug/hist",
            "/admin/usage",
            "/admin/repl?epoch=0",
            "/admin/migrate",
        ] {
            for method in ["GET", "POST"] {
                let (status, body) = client.request(method, path, "").unwrap();
                assert_eq!(
                    (status, body.as_str()),
                    (404, "{\"error\":\"not found\"}"),
                    "{method} {path}"
                );
            }
        }
        drop(client);
        router.shutdown();
        node.shutdown().unwrap();
    }

    /// The startup line names every row once, in table order, in a form
    /// that looks back up to the row.
    #[test]
    fn endpoints_line_names_every_row() {
        let line = Router::endpoints();
        let listed: Vec<&str> = line
            .strip_prefix("endpoints: ")
            .unwrap()
            .split(", ")
            .collect();
        assert_eq!(listed.len(), 10, "{line}");
        for (entry, row) in listed.iter().zip(ROUTES) {
            let (method, path) = entry.split_once(' ').unwrap();
            assert_eq!((method, path), (row.0, row.1));
            assert!(lookup(ROUTES, method, path).is_ok(), "{entry}");
        }
    }

    /// Each `CONTRIBUTING.md` endpoint row tagged `router` names a route
    /// of the router's table.
    #[test]
    fn contributing_router_endpoints_are_routes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../CONTRIBUTING.md");
        let doc = std::fs::read_to_string(path).unwrap();
        let table = doc.lines().skip_while(|l| !l.starts_with("| endpoint |"));
        let mut checked = 0;
        for line in table.skip(2).take_while(|l| l.starts_with('|')) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if !cells[2].contains("router") {
                continue;
            }
            let endpoint = cells[1].trim_matches('`');
            let (method, path) = endpoint.split_once(' ').unwrap();
            let path = path.split(['[', '?']).next().unwrap();
            assert!(
                lookup(ROUTES, method, path).is_ok(),
                "CONTRIBUTING.md names `{endpoint}`, which the router does not route"
            );
            checked += 1;
        }
        assert!(
            checked >= 3,
            "found {checked} router rows in CONTRIBUTING.md"
        );
    }
}
