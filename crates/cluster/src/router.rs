//! The `sitw-router` daemon: one port in front of N `sitw-serve` nodes.
//!
//! The router is deliberately thin. It terminates both wire protocols
//! (JSON over HTTP and SITW-BIN, sniffed per message exactly like a
//! node), applies cluster-wide QoS admission, consults the
//! [`ClusterRing`] for placement, and forwards. It keeps **no policy
//! state**: every verdict is produced by a node, so a one-node cluster
//! answers bit-for-bit what the bare node would.
//!
//! The router is a node whose partitions are remote. Its clients run on
//! the node's reactor driver and connection state machine
//! ([`sitw_serve::reactor`], [`sitw_serve::conn`]), a few reactor
//! threads multiplexing every client connection; only the handler
//! differs (`forward.rs`). Where a node sorts a frame's records by
//! shard and decides each slice, the router sorts them by ring owner and
//! forwards each slice to that node over its reactor's connection to it,
//! then splices the replies back into one client frame in request
//! order, with locally generated `Throttled` records for the
//! invocations admission rejected. The answer is owed until every
//! slice's reply is in; a control request waits until nothing is owed
//! on its connection, exactly as on a node.
//!
//! Failure is typed, never silent: a dead node surfaces as the
//! [`sitw_serve::wire::BinErrorCode::Unavailable`] error frame (or HTTP
//! 503 with the node address in the body) within the `upstream_timeout`
//! bound — a hung node (SIGSTOP, dead disk) stalls only the clients it
//! owes answers, and only that long.
//! Recovery stays an explicit epoch advance, so the ring remains a
//! deterministic function of operator actions — which is what lets
//! [`crate::sim`] model the cluster offline. An operator acknowledges a
//! loss via `POST /admin/ring/drop`, or, with `--failover
//! supervised|auto`, a health prober raises a drop/promote *proposal*
//! on `GET /admin/ring/proposals` after three consecutive probe
//! failures. Confirming it (`POST /admin/ring/proposals/confirm` — the
//! auto policy is just an operator with zero think time) promotes the
//! slot's configured warm standby (`--standby IDX=ADDR`, the address
//! of a `sitw-serve --follow` node) via its `POST /admin/promote`,
//! provisions it, swaps that address into the dead slot, and bumps the
//! ring epoch; with no standby the node is
//! dropped and its tenants rehash over the survivors. Every failover
//! control-plane step retries with bounded exponential backoff plus
//! deterministic jitter, and the whole lifecycle lands in
//! `/debug/events` and the `sitw_router_failover_*` metric families.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sitw_core::PolicySpec;
use sitw_fleet::{fnv1a, registry::parse_tenant_arg, Admission, QosPolicy};
use sitw_serve::http::{call, write_response, Request};
use sitw_serve::reactor::{self, Pool};
use sitw_serve::server::write_error;
use sitw_serve::wire::{self, ControlReply, ControlRequest, TenantUsage};

use sitw_telemetry::{
    is_trace_span, lock_unpoisoned, write_trace_json, write_trace_text, Clock, EventKind,
    EventRing, FlightRecorder, Gate, Stage, WallClock, EVENT_RING, TRACE_MARK,
};

use crate::federate::{parse_hist_body, parse_trace_spans, rebase, FleetHists, NodeSpan};
use crate::forward::Front;
use crate::metrics::{render_fleet, RouterMetrics};
use crate::reconcile::{control_roundtrip, reconcile_shares};
use crate::ring::ClusterRing;

/// How long the router waits for a control-plane TCP connect
/// (provisioning, migration, scrapes). The data path uses the
/// configurable [`RouterConfig::upstream_timeout`] instead.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long the router waits for a control-plane response.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// Consecutive health-probe failures before the prober raises a
/// drop/promote proposal — one failed probe is a blip, three in a row
/// is a dead or wedged node.
const PROBE_FAILURE_THRESHOLD: u32 = 3;

/// Attempts per failover control-plane step (standby promote,
/// promoted-node provisioning) before the confirmation fails and the
/// proposal stays pending.
const FAILOVER_ATTEMPTS: u32 = 4;

/// Base backoff between failover attempts; doubles per retry.
const FAILOVER_BACKOFF_MS: u64 = 50;

/// Jitter bound added to each backoff (deterministic, hash-derived —
/// desynchronizes concurrent confirmations without RNG state).
const FAILOVER_JITTER_MS: u64 = 25;

/// When and how the router reacts to a node failing health probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailoverMode {
    /// No probing; operators drop dead nodes via `POST
    /// /admin/ring/drop` (the pre-failover behavior).
    #[default]
    Off,
    /// Probe failures raise proposals on `GET /admin/ring/proposals`;
    /// an operator confirms each via
    /// `POST /admin/ring/proposals/confirm?node=N`.
    Supervised,
    /// Proposals are confirmed by the prober itself as soon as they are
    /// raised (and re-tried every probe sweep until they succeed).
    Auto,
}

impl FailoverMode {
    /// Parses the CLI grammar: `off`, `supervised`, or `auto`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(Self::Off),
            "supervised" => Ok(Self::Supervised),
            "auto" => Ok(Self::Auto),
            other => Err(format!(
                "unknown failover mode '{other}' (expected off, supervised, or auto)"
            )),
        }
    }

    /// The mode's stable name (`/healthz`, logs).
    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Supervised => "supervised",
            Self::Auto => "auto",
        }
    }

    /// The `sitw_router_failover_mode` gauge value.
    fn gauge(self) -> u64 {
        match self {
            Self::Off => 0,
            Self::Supervised => 1,
            Self::Auto => 2,
        }
    }
}

/// One pending failover proposal: the prober saw `node` fail
/// `PROBE_FAILURE_THRESHOLD` consecutive health probes; confirmation
/// (operator or auto policy) promotes its standby or drops it.
#[derive(Debug, Clone)]
pub struct FailoverProposal {
    /// Ring slot of the failing node.
    pub node: usize,
    /// The failing node's address when the proposal was raised.
    pub addr: String,
    /// Why the prober raised it.
    pub reason: String,
    /// Address of the slot's configured warm standby, if any.
    pub standby: Option<String>,
}

/// One tenant as the router knows it: the cluster-wide name and budget,
/// the policy nodes serve it under, and the optional QoS admission
/// policy the router itself enforces.
#[derive(Debug, Clone)]
pub struct RouterTenant {
    /// Tenant name — the stable cluster-wide key.
    pub name: String,
    /// Per-app policy, pushed to nodes that don't know the tenant yet.
    pub policy: PolicySpec,
    /// Cluster memory budget in MB (0 = unlimited). The reconciler
    /// pushes it to the tenant's current ring owner.
    pub budget_mb: u64,
    /// QoS class and rate limit; `None` admits everything.
    pub qos: Option<QosPolicy>,
}

impl RouterTenant {
    /// Parses the CLI grammar `NAME=POLICY[,budget=MB][,qos=SPEC]` —
    /// the node grammar plus an optional QoS suffix, e.g.
    /// `t0=hybrid,budget=64,qos=bronze:rate=50`.
    pub fn parse(arg: &str) -> Result<Self, String> {
        let (base, qos) = match arg.split_once(",qos=") {
            Some((base, spec)) => (base, Some(QosPolicy::parse(spec)?)),
            None => (arg, None),
        };
        let (name, policy, budget_mb) = parse_tenant_arg(base)?;
        Ok(Self {
            name,
            policy,
            budget_mb,
            qos,
        })
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Node addresses; slot order defines ring node indices.
    pub nodes: Vec<String>,
    /// The cluster tenant table. Wire id `k+1` is `tenants[k]`; id 0 is
    /// the default tenant, exactly as on a node.
    pub tenants: Vec<RouterTenant>,
    /// Budget reconciliation interval in milliseconds; 0 disables the
    /// background reconciler (`POST /admin/reconcile` still works).
    pub reconcile_ms: u64,
    /// The reactor poll tick: bounds how quickly a shutdown propagates,
    /// how often the slowloris sweep runs, and how late past
    /// `upstream_timeout` a hung node is noticed.
    pub read_timeout: Duration,
    /// Tag every Nth untraced request with a router-originated trace id
    /// and record hop spans for all traced requests; 0 disables hop
    /// recording (client trace ids still propagate to the nodes).
    pub trace_sample: usize,
    /// How the router reacts to a node failing health probes.
    pub failover: FailoverMode,
    /// Health-probe interval in milliseconds (with failover on).
    pub probe_ms: u64,
    /// Warm-standby addresses by node slot: confirming a failover of
    /// slot `i` promotes the standby registered for `i` (a `sitw-serve
    /// --follow` node) in place and swaps its address into the slot,
    /// instead of dropping the node.
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
            reconcile_ms: 1_000,
            read_timeout: Duration::from_millis(50),
            trace_sample: 0,
            failover: FailoverMode::Off,
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
/// branch, while lifecycle events (migrations, ring epochs, throttles)
/// are always recorded: they are rare by construction.
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
    /// Lifecycle events: migrations, ring epochs, throttles.
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
    /// Resolved node addresses, by ring slot. Writable: a confirmed
    /// failover swaps the promoted standby's address into the dead
    /// node's slot.
    nodes: RwLock<Vec<SocketAddr>>,
    /// Display names for errors and metric labels, by ring slot
    /// (updated together with `nodes`).
    node_names: RwLock<Vec<String>>,
    /// Pending failover proposals (supervised/auto modes).
    proposals: Mutex<Vec<FailoverProposal>>,
    pub(crate) ring: RwLock<ClusterRing>,
    /// Cluster-wide QoS admission state, shared by every connection.
    pub(crate) admission: Mutex<Admission>,
    /// Whether any tenant carries a QoS policy. When false the hot
    /// paths skip the admission mutex entirely — `admit` would answer
    /// an unconditional yes for every tenant anyway.
    pub(crate) has_qos: bool,
    /// Per-node tenant name → node-local wire id (ids diverge across
    /// nodes once tenants migrate).
    pub(crate) node_ids: RwLock<Vec<HashMap<String, u16>>>,
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
        read(&self.nodes)[node]
    }

    /// The current display name of one node slot.
    pub(crate) fn node_name(&self, node: usize) -> String {
        read(&self.node_names)[node].clone()
    }

    /// A snapshot of every slot's display name (metric labels).
    fn node_names_snapshot(&self) -> Vec<String> {
        read(&self.node_names).clone()
    }

    /// One budget reconciliation cycle: poll reports, aggregate for
    /// `/metrics`, push budget shares to ring owners. Returns
    /// `(nodes reporting, shares acknowledged)`.
    fn reconcile_once(&self) -> (usize, u32) {
        let ring = read(&self.ring).clone();
        let (mut nodes_reporting, mut usage) = (0, Vec::new());
        for node in 0..self.slots {
            if !ring.is_live(node) {
                continue;
            }
            match control_roundtrip(self.node_addr(node), &ControlRequest::Report) {
                Ok(ControlReply::Report(tenants)) => {
                    nodes_reporting += 1;
                    usage.extend(tenants);
                }
                Ok(ControlReply::BudgetAck { .. }) | Err(_) => self.metrics.node_error(node),
            }
        }
        let budgets: Vec<(String, u64)> = self
            .cfg
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.budget_mb))
            .collect();
        let mut pushes = 0u32;
        for (node, shares) in reconcile_shares(&budgets, &ring) {
            match control_roundtrip(self.node_addr(node), &ControlRequest::BudgetSet(shares)) {
                Ok(ControlReply::BudgetAck { applied }) => pushes += applied,
                Ok(ControlReply::Report(_)) | Err(_) => self.metrics.node_error(node),
            }
        }
        *lock_unpoisoned(&self.metrics.usage) = TenantUsage::fold(usage);
        self.metrics.reconcile_runs.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .budget_pushes
            .fetch_add(pushes as u64, Ordering::Relaxed);
        self.sync_ring_gauges(&ring);
        (nodes_reporting, pushes)
    }

    fn sync_ring_gauges(&self, ring: &ClusterRing) {
        self.metrics
            .ring_epoch
            .store(ring.epoch(), Ordering::Relaxed);
        self.metrics
            .nodes_live
            .store(ring.live_count() as u64, Ordering::Relaxed);
    }

    /// Migrates `tenant` to node `to`: take on the current owner,
    /// restore on the target, flip the ring epoch. Returns
    /// `(from, to, new epoch)` or an HTTP-shaped error.
    fn migrate(&self, tenant: &str, to: usize) -> Result<(usize, usize, u64), (u16, String)> {
        if !self.cfg.tenants.iter().any(|t| t.name == tenant) {
            return Err((404, format!("unknown tenant '{tenant}'")));
        }
        let from = {
            let ring = read(&self.ring);
            if !ring.is_live(to) {
                return Err((400, format!("target node {to} is not live")));
            }
            ring.node_of_tenant(tenant)
                .ok_or_else(|| (503, "no live nodes".to_owned()))?
        };
        if from != to {
            let take_path = format!("/admin/tenants/{tenant}/take");
            let (status, payload) = control_call(self.node_addr(from), "POST", &take_path, b"")
                .map_err(|e| {
                    self.metrics.node_error(from);
                    (503, format!("take from node {}: {e}", self.node_name(from)))
                })?;
            if status != 200 {
                return Err((502, format!("take failed ({status}): {payload}")));
            }
            let restore_path = format!("/admin/tenants/{tenant}/restore");
            let (status, resp) = control_call(
                self.node_addr(to),
                "POST",
                &restore_path,
                payload.as_bytes(),
            )
            .map_err(|e| {
                self.metrics.node_error(to);
                (503, format!("restore on node {}: {e}", self.node_name(to)))
            })?;
            if status != 200 {
                return Err((502, format!("restore failed ({status}): {resp}")));
            }
            let id = parse_id_field(&resp)
                .ok_or_else(|| (502, format!("malformed restore response: {resp}")))?;
            let mut ids = write(&self.node_ids);
            ids[to].insert(tenant.to_owned(), id);
            ids[from].remove(tenant);
        }
        let epoch = {
            let mut ring = write(&self.ring);
            ring.set_override(tenant, to).map_err(|e| (400, e))?;
            let epoch = ring.epoch();
            self.sync_ring_gauges(&ring);
            epoch
        };
        self.metrics.migrations.fetch_add(1, Ordering::Relaxed);
        let t = &self.telem;
        t.event(&t.events, t.wall_ms(), EventKind::Migration, |ev| {
            ev.tenant.push_str(tenant);
            let _ = write!(ev.detail, "from={from} to={to}");
        });
        t.event(&t.events, t.wall_ms(), EventKind::RingEpoch, |ev| {
            let _ = write!(ev.detail, "epoch={epoch}");
        });
        Ok((from, to, epoch))
    }

    /// One fleet federation pass: scrapes every live node's
    /// `/debug/hist` and merges the raw log2 buckets exactly. Scrape or
    /// parse failures count a node error and leave that node out of the
    /// merge (`sitw_router_fleet_nodes` reports the coverage).
    fn fleet_scrape(&self) -> FleetHists {
        let ring = read(&self.ring).clone();
        let mut fleet = FleetHists::default();
        for node in 0..self.slots {
            if !ring.is_live(node) {
                continue;
            }
            match control_call(self.node_addr(node), "GET", "/debug/hist", b"") {
                Ok((200, body)) => match parse_hist_body(&body) {
                    Some(h) => fleet.absorb(h),
                    None => self.metrics.node_error(node),
                },
                Ok(_) | Err(_) => self.metrics.node_error(node),
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

    /// Raises a failover proposal for `node` unless one is already
    /// pending. Returns whether a new proposal was raised.
    fn raise_proposal(&self, node: usize, reason: &str) -> bool {
        let mut proposals = lock_unpoisoned(&self.proposals);
        if proposals.iter().any(|p| p.node == node) {
            return false;
        }
        let addr = self.node_name(node);
        let standby = self
            .cfg
            .standbys
            .iter()
            .find(|(i, _)| *i == node)
            .map(|(_, ctrl)| ctrl.clone());
        let t = &self.telem;
        t.event(&t.events, t.wall_ms(), EventKind::NodeDown, |ev| {
            let _ = write!(
                ev.detail,
                "node {node} ({addr}): {reason}; proposal raised (standby: {})",
                standby.as_deref().unwrap_or("none")
            );
        });
        proposals.push(FailoverProposal {
            node,
            addr,
            reason: reason.to_owned(),
            standby,
        });
        self.metrics
            .failover_proposals
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Confirms the pending proposal for `node`: promotes its warm
    /// standby into the slot (or drops the node when no standby is
    /// configured) and bumps the ring epoch. A failed confirmation
    /// leaves the proposal pending so the operator (or the auto policy's
    /// next sweep) can retry. Returns the response body or an
    /// HTTP-shaped error.
    fn confirm_failover(&self, node: usize) -> Result<String, (u16, String)> {
        let proposal = {
            let proposals = lock_unpoisoned(&self.proposals);
            proposals
                .iter()
                .find(|p| p.node == node)
                .cloned()
                .ok_or_else(|| (404, format!("no pending proposal for node {node}")))?
        };
        let body = match &proposal.standby {
            Some(standby) => {
                let addr = standby
                    .to_socket_addrs()
                    .ok()
                    .and_then(|mut a| a.next())
                    .ok_or_else(|| (502, format!("cannot resolve standby '{standby}'")))?;
                // Promote the standby in place: it serves on the address
                // it was configured under. Idempotent on the standby
                // side, so a retried confirmation converges.
                self.failover_retry("standby promote", || {
                    let (status, body) = control_call(addr, "POST", "/admin/promote", b"")
                        .map_err(|e| e.to_string())?;
                    match status {
                        200 => Ok(()),
                        _ => Err(format!("promote failed ({status}): {body}")),
                    }
                })
                .map_err(|e| (502, e))?;
                // Provision the promoted node: replication already
                // carried the tenants, so this mostly just re-learns
                // the wire-id map — but it also backfills any tenant
                // registered after the last replication round.
                let ids = self
                    .failover_retry("provision promoted node", || {
                        provision_node(addr, &self.cfg.tenants)
                    })
                    .map_err(|e| (502, e))?;
                let old = self.node_name(node);
                {
                    write(&self.nodes)[node] = addr;
                    write(&self.node_names)[node] = standby.clone();
                    write(&self.node_ids)[node] = ids;
                }
                let epoch = {
                    let mut ring = write(&self.ring);
                    let epoch = ring.bump_epoch();
                    self.sync_ring_gauges(&ring);
                    epoch
                };
                self.metrics
                    .failover_promotions
                    .fetch_add(1, Ordering::Relaxed);
                let t = &self.telem;
                t.event(&t.events, t.wall_ms(), EventKind::Failover, |ev| {
                    let _ = write!(
                        ev.detail,
                        "node {node}: {old} -> {standby} (standby promoted), epoch {epoch}"
                    );
                });
                t.event(&t.events, t.wall_ms(), EventKind::RingEpoch, |ev| {
                    let _ = write!(ev.detail, "epoch={epoch} failover-node={node}");
                });
                format!(
                    "{{\"node\":{node},\"action\":\"promoted\",\"addr\":\"{standby}\",\
                     \"epoch\":{epoch}}}"
                )
            }
            None => {
                let (epoch, live) = {
                    let mut ring = write(&self.ring);
                    ring.drop_node(node);
                    self.sync_ring_gauges(&ring);
                    (ring.epoch(), ring.live_count())
                };
                let t = &self.telem;
                t.event(&t.events, t.wall_ms(), EventKind::Failover, |ev| {
                    let _ = write!(
                        ev.detail,
                        "node {node} ({}) dropped, no standby, epoch {epoch}",
                        proposal.addr
                    );
                });
                t.event(&t.events, t.wall_ms(), EventKind::RingEpoch, |ev| {
                    let _ = write!(ev.detail, "epoch={epoch} failover-node={node}");
                });
                format!(
                    "{{\"node\":{node},\"action\":\"dropped\",\"epoch\":{epoch},\"live\":{live}}}"
                )
            }
        };
        // Only a successful confirmation consumes the proposal.
        lock_unpoisoned(&self.proposals).retain(|p| p.node != node);
        Ok(body)
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
    reactors: Vec<JoinHandle<()>>,
    reconciler: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Starts the router: resolves and provisions the nodes (registering
    /// any configured tenant a node doesn't know yet and learning each
    /// node's tenant wire ids), binds the listen socket, and spawns the
    /// reactors (as many as a node runs by default) and the background
    /// reconciler.
    pub fn start(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.nodes.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one node",
            ));
        }
        let mut nodes = Vec::with_capacity(cfg.nodes.len());
        for spec in &cfg.nodes {
            let addr = spec
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cannot resolve node '{spec}'"),
                    )
                })?;
            nodes.push(addr);
        }
        let mut node_ids = Vec::with_capacity(nodes.len());
        for (i, addr) in nodes.iter().enumerate() {
            let ids = provision_node(*addr, &cfg.tenants)
                .map_err(|e| io::Error::other(format!("node {}: {e}", cfg.nodes[i])))?;
            node_ids.push(ids);
        }

        let mut admission = Admission::new();
        for t in &cfg.tenants {
            if let Some(qos) = &t.qos {
                admission.set_policy(&t.name, *qos);
            }
        }
        for (slot, ctrl) in &cfg.standbys {
            if *slot >= nodes.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "standby '{ctrl}' names node {slot}, but only {} nodes exist",
                        nodes.len()
                    ),
                ));
            }
        }
        let node_names = cfg.nodes.clone();
        let metrics = RouterMetrics::new(nodes.len());
        metrics
            .failover_mode
            .store(cfg.failover.gauge(), Ordering::Relaxed);
        let reconcile_ms = cfg.reconcile_ms;
        let has_qos = cfg.tenants.iter().any(|t| t.qos.is_some());
        let telem = RouterTelem::new(cfg.trace_sample);
        let failover = cfg.failover;
        let pool = Pool::bind(
            &cfg.addr,
            reactor::REACTORS,
            cfg.read_timeout,
            reactor::IDLE_TIMEOUT,
        )?;
        let ctx = Arc::new(RouterCtx {
            pool: Arc::clone(&pool),
            ring: RwLock::new(ClusterRing::new(nodes.len())),
            admission: Mutex::new(admission),
            has_qos,
            node_ids: RwLock::new(node_ids),
            metrics,
            telem,
            slots: nodes.len(),
            nodes: RwLock::new(nodes),
            node_names: RwLock::new(node_names),
            proposals: Mutex::new(Vec::new()),
            cfg,
        });

        let fronts = (0..pool.reactors()).map(|id| Front::new(Arc::clone(&ctx), id));
        let reactors = reactor::spawn(&pool, "router-reactor", fronts)?;
        let background = |on: bool, name: &str, run: fn(Arc<RouterCtx>)| {
            let ctx = Arc::clone(&ctx);
            let spawn = || {
                thread::Builder::new()
                    .name(name.into())
                    .spawn(move || run(ctx))
            };
            on.then(spawn).transpose()
        };
        let reconciler = background(reconcile_ms > 0, "router-reconcile", reconcile_loop)?;
        let prober = background(failover != FailoverMode::Off, "router-probe", probe_loop)?;
        Ok(Router {
            ctx,
            reactors,
            reconciler,
            prober,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.ctx.pool.addr()
    }

    /// The router's metrics (tests and embedding callers).
    pub fn metrics(&self) -> &RouterMetrics {
        &self.ctx.metrics
    }

    /// Runs one budget reconciliation cycle synchronously. Returns
    /// `(nodes reporting, shares acknowledged)`.
    pub fn reconcile_now(&self) -> (usize, u32) {
        self.ctx.reconcile_once()
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
        let threads = self.reactors.drain(..);
        for h in threads
            .chain(self.reconciler.take())
            .chain(self.prober.take())
        {
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

fn reconcile_loop(ctx: Arc<RouterCtx>) {
    while pause(&ctx, Duration::from_millis(ctx.cfg.reconcile_ms)) {
        let _ = ctx.reconcile_once();
    }
}

/// The health prober (supervised and auto failover modes): probes every
/// live node's `/healthz` on a fixed cadence, raises a proposal after
/// [`PROBE_FAILURE_THRESHOLD`] consecutive failures, and — in auto
/// mode — confirms pending proposals itself each sweep (a failed
/// confirmation stays pending, so the next sweep is the retry).
fn probe_loop(ctx: Arc<RouterCtx>) {
    let interval = Duration::from_millis(ctx.cfg.probe_ms.max(10));
    let timeout = ctx.cfg.upstream_timeout;
    let mut fails = vec![0u32; ctx.slots];
    while pause(&ctx, interval) {
        let ring = read(&ctx.ring).clone();
        for (node, fail_count) in fails.iter_mut().enumerate() {
            if !ring.is_live(node) {
                *fail_count = 0;
                continue;
            }
            // Probed on the data-path deadline, so a hung node fails a
            // probe within the same bound clients see.
            let addr = ctx.node_addr(node);
            if matches!(
                call(addr, "GET", "/healthz", b"", timeout, timeout),
                Ok((200, _))
            ) {
                *fail_count = 0;
                continue;
            }
            *fail_count += 1;
            ctx.metrics.probe_failures.fetch_add(1, Ordering::Relaxed);
            if *fail_count >= PROBE_FAILURE_THRESHOLD {
                ctx.raise_proposal(
                    node,
                    &format!("{} consecutive health-probe failures", *fail_count),
                );
                *fail_count = 0;
            }
        }
        if ctx.cfg.failover == FailoverMode::Auto {
            let pending: Vec<usize> = {
                let proposals = lock_unpoisoned(&ctx.proposals);
                proposals.iter().map(|p| p.node).collect()
            };
            for node in pending {
                if let Err((_, e)) = ctx.confirm_failover(node) {
                    let t = &ctx.telem;
                    t.event(&t.events, t.wall_ms(), EventKind::NodeDown, |ev| {
                        let _ = write!(
                            ev.detail,
                            "auto failover of node {node} failed (will retry): {e}"
                        );
                    });
                }
            }
        }
    }
}

/// Answers one control request — everything but `POST /invoke` — into
/// `out`, on the reactor that read it. Its connection owes nothing by
/// then (settle-then-serve), so a side effect lands after every earlier
/// request on the connection was answered. The endpoints that call
/// nodes block the reactor for their round trips, as a node's admin
/// verbs do.
pub(crate) fn control(ctx: &RouterCtx, req: &Request, out: &mut Vec<u8>) {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    let json = |out: &mut Vec<u8>, status: u16, body: &str| {
        write_response(out, status, "application/json", body.as_bytes())
    };
    let node_arg = || {
        query
            .strip_prefix("node=")
            .and_then(|v| v.parse::<usize>().ok())
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let ring = read(&ctx.ring);
            let body = format!(
                "{{\"status\":\"ok\",\"role\":\"router\",\"nodes\":{},\"live\":{},\
                 \"epoch\":{},\"tenants\":{},\"failover\":\"{}\"}}",
                ring.len(),
                ring.live_count(),
                ring.epoch(),
                ctx.cfg.tenants.len() + 1,
                ctx.cfg.failover.name(),
            );
            drop(ring);
            json(out, 200, &body);
        }
        ("GET", "/metrics") => {
            let text = ctx.metrics.render(&ctx.node_names_snapshot());
            write_response(out, 200, "text/plain; version=0.0.4", text.as_bytes());
        }
        ("GET", "/metrics/fleet") => {
            // Federation pass: pull every live node's raw log2 buckets
            // and merge exactly.
            let text = render_fleet(&ctx.fleet_scrape());
            write_response(out, 200, "text/plain; version=0.0.4", text.as_bytes());
        }
        ("GET", "/debug/trace") => {
            // The node's text shape with fleet sources, or (with
            // `format=json`) span objects keyed by hex trace id.
            let spans = ctx.merged_trace();
            let (content_type, body) = if query.split('&').any(|p| p == "format=json") {
                ("application/json", write_trace_json(&spans, true))
            } else {
                ("text/plain", write_trace_text(&spans))
            };
            write_response(out, 200, content_type, body.as_bytes());
        }
        ("GET", "/debug/events") => json(out, 200, &EventRing::snapshot_json(&ctx.telem.events)),
        ("GET", "/admin/ring") => {
            let names = ctx.node_names_snapshot();
            let ring = read(&ctx.ring);
            let mut body = format!("{{\"epoch\":{},\"nodes\":[", ring.epoch());
            for (i, name) in names.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"node\":{i},\"addr\":\"{name}\",\"live\":{}}}",
                    ring.is_live(i)
                ));
            }
            body.push_str("],\"overrides\":[");
            for (i, (tenant, node)) in ring.overrides().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!("{{\"tenant\":\"{tenant}\",\"node\":{node}}}"));
            }
            body.push_str("]}");
            drop(ring);
            json(out, 200, &body);
        }
        ("GET", "/admin/tenants") => {
            // Same shape as a node's listing (id immediately before
            // name), so `sitw-loadgen` resolves ids against the router
            // transparently.
            let mut body =
                String::from("[{\"id\":0,\"name\":\"default\",\"policy\":\"-\",\"budget_mb\":0}");
            for (i, t) in ctx.cfg.tenants.iter().enumerate() {
                body.push_str(&format!(
                    ",{{\"id\":{},\"name\":\"{}\",\"policy\":\"{}\",\"budget_mb\":{},\
                     \"qos\":\"{}\"}}",
                    i + 1,
                    t.name,
                    t.policy.label(),
                    t.budget_mb,
                    t.qos
                        .as_ref()
                        .map(|q| q.label())
                        .unwrap_or_else(|| "-".into()),
                ));
            }
            body.push(']');
            json(out, 200, &body);
        }
        ("POST", "/admin/ring/drop") => match node_arg() {
            Some(node) if node < ctx.slots => {
                let (dropped, epoch, live) = {
                    let mut ring = write(&ctx.ring);
                    let dropped = ring.drop_node(node);
                    ctx.sync_ring_gauges(&ring);
                    (dropped, ring.epoch(), ring.live_count())
                };
                if dropped {
                    let t = &ctx.telem;
                    t.event(&t.events, t.wall_ms(), EventKind::RingEpoch, |ev| {
                        let _ = write!(ev.detail, "epoch={epoch} drop-node={node} live={live}");
                    });
                }
                let body = format!("{{\"dropped\":{dropped},\"epoch\":{epoch},\"live\":{live}}}");
                json(out, 200, &body);
            }
            _ => write_error(out, 400, "expected ?node=INDEX"),
        },
        ("GET", "/admin/ring/proposals") => {
            let proposals = lock_unpoisoned(&ctx.proposals);
            let mut body = String::from("{\"proposals\":[");
            for (i, p) in proposals.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"node\":{},\"addr\":\"{}\",\"reason\":\"{}\",\"standby\":{}}}",
                    p.node,
                    wire::json_escape(&p.addr),
                    wire::json_escape(&p.reason),
                    match &p.standby {
                        Some(s) => format!("\"{}\"", wire::json_escape(s)),
                        None => "null".to_owned(),
                    },
                ));
            }
            body.push_str("]}");
            drop(proposals);
            json(out, 200, &body);
        }
        ("POST", "/admin/ring/proposals/confirm") => match node_arg() {
            Some(node) => match ctx.confirm_failover(node) {
                Ok(body) => json(out, 200, &body),
                Err((status, e)) => write_error(out, status, &e),
            },
            None => write_error(out, 400, "expected ?node=INDEX"),
        },
        ("POST", "/admin/migrate") => {
            let mut tenant = None;
            let mut to = None;
            for pair in query.split('&') {
                if let Some(v) = pair.strip_prefix("tenant=") {
                    tenant = Some(v);
                } else if let Some(v) = pair.strip_prefix("to=") {
                    to = v.parse::<usize>().ok();
                }
            }
            match (tenant, to) {
                (Some(tenant), Some(to)) => match ctx.migrate(tenant, to) {
                    Ok((from, to, epoch)) => json(
                        out,
                        200,
                        &format!(
                            "{{\"tenant\":\"{tenant}\",\"from\":{from},\"to\":{to},\
                             \"epoch\":{epoch}}}"
                        ),
                    ),
                    Err((status, e)) => write_error(out, status, &e),
                },
                _ => write_error(out, 400, "expected ?tenant=NAME&to=INDEX"),
            }
        }
        ("POST", "/admin/reconcile") => {
            let (nodes, pushes) = ctx.reconcile_once();
            json(
                out,
                200,
                &format!("{{\"nodes\":{nodes},\"pushes\":{pushes}}}"),
            );
        }
        ("POST", "/admin/shutdown") => {
            json(out, 200, "{\"status\":\"stopping\"}");
            ctx.pool.shutdown();
        }
        (
            _,
            "/invoke"
            | "/healthz"
            | "/metrics"
            | "/metrics/fleet"
            | "/debug/trace"
            | "/debug/events"
            | "/admin/ring"
            | "/admin/ring/drop"
            | "/admin/ring/proposals"
            | "/admin/ring/proposals/confirm"
            | "/admin/migrate"
            | "/admin/reconcile"
            | "/admin/tenants"
            | "/admin/shutdown",
        ) => write_error(out, 405, "method not allowed"),
        _ => write_error(out, 404, "not found"),
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

/// One control-plane exchange ([`call`]) under the router's
/// control-plane deadlines: provisioning, migration, scrapes, promotion.
fn control_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, String)> {
    call(addr, method, path, body, CONNECT_TIMEOUT, CONTROL_TIMEOUT)
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

/// Ensures every configured tenant exists on `addr` (registering missing
/// ones with their policy and budget) and returns the node's tenant
/// name → wire id map.
fn provision_node(
    addr: SocketAddr,
    tenants: &[RouterTenant],
) -> Result<HashMap<String, u16>, String> {
    let (status, body) = control_call(addr, "GET", "/admin/tenants", b"")
        .map_err(|e| format!("cannot list tenants: {e}"))?;
    if status != 200 {
        return Err(format!("tenant listing failed ({status}): {body}"));
    }
    let mut ids = wire::parse_tenant_listing(&body);
    for t in tenants {
        if ids.contains_key(&t.name) {
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
        t.event(&t.events, t.wall_ms(), EventKind::Migration, |ev| {
            ev.tenant.push_str("t0");
            ev.detail.push_str("take");
        });
        assert_eq!(t.events.lock().unwrap().len(), 1);
    }

    #[test]
    fn tenant_arg_grammar_with_qos_suffix() {
        let t = RouterTenant::parse("t0=hybrid,budget=64,qos=bronze:rate=50:burst=100").unwrap();
        assert_eq!(t.name, "t0");
        assert_eq!(t.budget_mb, 64);
        let qos = t.qos.unwrap();
        assert_eq!(qos.label(), "bronze:rate=50:burst=100");
        let plain = RouterTenant::parse("acme=fixed:10").unwrap();
        assert!(plain.qos.is_none());
        assert_eq!(plain.budget_mb, 0);
        assert!(RouterTenant::parse("t0=hybrid,qos=platinum").is_err());
        assert!(RouterTenant::parse("nope").is_err());
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

    #[test]
    fn failover_mode_cli_grammar() {
        assert_eq!(FailoverMode::parse("off").unwrap(), FailoverMode::Off);
        assert_eq!(
            FailoverMode::parse("supervised").unwrap(),
            FailoverMode::Supervised
        );
        assert_eq!(FailoverMode::parse("auto").unwrap(), FailoverMode::Auto);
        assert!(FailoverMode::parse("eventually").is_err());
        assert_eq!(FailoverMode::Supervised.name(), "supervised");
        assert_eq!(FailoverMode::Auto.gauge(), 2);
    }

    /// A router over one telemetry-off node, no background threads.
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
            reconcile_ms: 0,
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
                    EventKind::Throttle,
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
            let _usage = ctx.metrics.usage.lock().unwrap();
            panic!("recorder dies holding telemetry locks (expected in this test)");
        });
        assert!(recorder.join().is_err());
        assert!(router.ctx.telem.events.is_poisoned() && router.ctx.metrics.usage.is_poisoned());
        for path in ["/metrics", "/debug/events", "/debug/trace"] {
            let status = control_call(router.addr(), "GET", path, b"").map(|(status, _)| status);
            assert_eq!(status.ok(), Some(200), "{path}");
        }
        router.shutdown();
        node.shutdown().unwrap();
    }
}
