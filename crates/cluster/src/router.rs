//! The `sitw-router` daemon: one port in front of N `sitw-serve` nodes.
//!
//! The router is deliberately thin. It terminates both wire protocols
//! (JSON over HTTP and SITW-BIN, sniffed per message exactly like a
//! node), applies cluster-wide QoS admission, consults the
//! [`ClusterRing`] for placement, and forwards. It keeps **no policy
//! state**: every verdict is produced by a node, so a one-node cluster
//! answers bit-for-bit what the bare node would.
//!
//! Per client connection the router runs a single thread over a FIFO of
//! pending responses: it parses and forwards every message the client
//! has buffered, then drains the queue — reading node replies and
//! answering the client — before blocking on the socket again. Request
//! pipelining survives the extra hop as whole-burst batching (one
//! upstream flush and one client write per burst rather than a
//! syscall per request), with no cross-thread handoff on the hot path.
//! A batched SITW-BIN frame is split into at most one subframe per
//! owning node; the drain reassembles the per-node reply frames into
//! one client frame in request order, splicing in locally generated
//! `Throttled` records for the invocations admission rejected.
//!
//! Failure is typed, never silent: a dead node surfaces as the
//! [`BinErrorCode::Unavailable`] error frame (or HTTP 503 with the node
//! address in the body) within the `upstream_timeout` bound — a hung
//! node (SIGSTOP, dead disk) cannot stall a client drain forever.
//! Recovery stays an explicit epoch advance, so the ring remains a
//! deterministic function of operator actions — which is what lets
//! [`crate::sim`] model the cluster offline. An operator acknowledges a
//! loss via `POST /admin/ring/drop`, or, with `--failover
//! supervised|auto`, a health prober raises a drop/promote *proposal*
//! on `GET /admin/ring/proposals` after three consecutive probe
//! failures. Confirming it (`POST /admin/ring/proposals/confirm` — the
//! auto policy is just an operator with zero think time) promotes the
//! slot's configured warm standby (`--standby IDX=CONTROL_ADDR`,
//! a `sitw-serve --follow` control address) via its
//! `POST /admin/promote`, provisions the promoted node, swaps it into
//! the dead slot, and bumps the ring epoch; with no standby the node is
//! dropped and its tenants rehash over the survivors. Every failover
//! control-plane step retries with bounded exponential backoff plus
//! deterministic jitter, and the whole lifecycle lands in
//! `/debug/events` and the `sitw_router_failover_*` metric families.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sitw_core::PolicySpec;
use sitw_fleet::{fnv1a, registry::parse_tenant_arg, Admission, QosPolicy};
use sitw_serve::http::{
    call, write_request, write_response, ConnBuf, ReadEvent, Reply, Request, MAX_BODY_BYTES,
};
use sitw_serve::wire::{
    self, encode_error_frame, encode_reply_records, encode_request_frame_v2,
    encode_request_frame_v2_traced, BinErrorCode, BinInvoke, BinReply, ControlReply,
    ControlRequest, ServerFrameDecode, TenantUsage,
};

use sitw_telemetry::{
    is_trace_span, lock_unpoisoned, write_trace_json, write_trace_text, EventKind, EventRing, Stage,
};

use crate::federate::{parse_hist_body, parse_trace_spans, rebase, FleetHists, NodeSpan};
use crate::metrics::{render_fleet, RouterMetrics};
use crate::reconcile::{control_roundtrip, reconcile_shares};
use crate::ring::ClusterRing;
use crate::telem::RouterTelem;

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
/// [`PROBE_FAILURE_THRESHOLD`] consecutive health probes; confirmation
/// (operator or auto policy) promotes its standby or drops it.
#[derive(Debug, Clone)]
pub struct FailoverProposal {
    /// Ring slot of the failing node.
    pub node: usize,
    /// The failing node's address when the proposal was raised.
    pub addr: String,
    /// Why the prober raised it.
    pub reason: String,
    /// Control address of the slot's configured warm standby, if any.
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
    /// Client-side read timeout — the shutdown poll interval of reader
    /// threads.
    pub read_timeout: Duration,
    /// Tag every Nth untraced request with a router-originated trace id
    /// and record hop spans for all traced requests; 0 disables hop
    /// recording (client trace ids still propagate to the nodes).
    pub trace_sample: usize,
    /// How the router reacts to a node failing health probes.
    pub failover: FailoverMode,
    /// Health-probe interval in milliseconds (with failover on).
    pub probe_ms: u64,
    /// Warm-standby control addresses by node slot: confirming a
    /// failover of slot `i` promotes the standby registered for `i`
    /// (a `sitw-serve --follow` control address) instead of dropping
    /// the node.
    pub standbys: Vec<(usize, String)>,
    /// Data-path upstream deadline (connect, read, and write): a hung
    /// node surfaces as a typed 503 / `Unavailable` naming the node
    /// within this bound instead of stalling the client thread forever.
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

/// Shared state of a running router.
struct RouterCtx {
    cfg: RouterConfig,
    /// Node slot count — fixed for the router's life (a failover swaps
    /// a slot's address, never adds or removes slots).
    slots: usize,
    /// Resolved node addresses, by ring slot. Writable: a confirmed
    /// failover swaps the promoted standby's address into the dead
    /// node's slot.
    nodes: RwLock<Vec<SocketAddr>>,
    /// Display names for errors and metric labels, by ring slot
    /// (updated together with `nodes`).
    node_names: RwLock<Vec<String>>,
    /// Pending failover proposals (supervised/auto modes).
    proposals: Mutex<Vec<FailoverProposal>>,
    /// The router's own listen address (used to wake the acceptor).
    addr: SocketAddr,
    ring: RwLock<ClusterRing>,
    /// Cluster-wide QoS admission state, shared by every connection.
    admission: Mutex<Admission>,
    /// Whether any tenant carries a QoS policy. When false the hot
    /// paths skip the admission mutex entirely — `admit` would answer
    /// an unconditional yes for every tenant anyway.
    has_qos: bool,
    /// Per-node tenant name → node-local wire id (ids diverge across
    /// nodes once tenants migrate).
    node_ids: RwLock<Vec<HashMap<String, u16>>>,
    metrics: RouterMetrics,
    /// Hop span recorder, lifecycle event ring, and trace sampler.
    telem: RouterTelem,
    shutdown: AtomicBool,
}

impl RouterCtx {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The current address of one node slot.
    fn node_addr(&self, node: usize) -> SocketAddr {
        self.nodes.read().expect("nodes poisoned")[node]
    }

    /// The current display name of one node slot.
    fn node_name(&self, node: usize) -> String {
        self.node_names.read().expect("node names poisoned")[node].clone()
    }

    /// A snapshot of every slot's display name (metric labels).
    fn node_names_snapshot(&self) -> Vec<String> {
        self.node_names.read().expect("node names poisoned").clone()
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
    }

    /// One budget reconciliation cycle: poll reports, aggregate for
    /// `/metrics`, push budget shares to ring owners. Returns
    /// `(nodes reporting, shares acknowledged)`.
    fn reconcile_once(&self) -> (usize, u32) {
        let ring = self.ring.read().expect("ring poisoned").clone();
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
            let ring = self.ring.read().expect("ring poisoned");
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
            let mut ids = self.node_ids.write().expect("node_ids poisoned");
            ids[to].insert(tenant.to_owned(), id);
            ids[from].remove(tenant);
        }
        let epoch = {
            let mut ring = self.ring.write().expect("ring poisoned");
            ring.set_override(tenant, to).map_err(|e| (400, e))?;
            let epoch = ring.epoch();
            self.sync_ring_gauges(&ring);
            epoch
        };
        self.metrics.migrations.fetch_add(1, Ordering::Relaxed);
        self.telem.event(
            EventKind::Migration,
            tenant,
            "",
            format!("from={from} to={to}"),
        );
        self.telem
            .event(EventKind::RingEpoch, "", "", format!("epoch={epoch}"));
        Ok((from, to, epoch))
    }

    /// One fleet federation pass: scrapes every live node's
    /// `/debug/hist` and merges the raw log2 buckets exactly. Scrape or
    /// parse failures count a node error and leave that node out of the
    /// merge (`sitw_router_fleet_nodes` reports the coverage).
    fn fleet_scrape(&self) -> FleetHists {
        let ring = self.ring.read().expect("ring poisoned").clone();
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
        let ring = self.ring.read().expect("ring poisoned").clone();
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
        let mut proposals = self.proposals.lock().expect("proposals poisoned");
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
        self.telem.event(
            EventKind::NodeDown,
            "",
            "",
            format!(
                "node {node} ({addr}): {reason}; proposal raised (standby: {})",
                standby.as_deref().unwrap_or("none")
            ),
        );
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
            let proposals = self.proposals.lock().expect("proposals poisoned");
            proposals
                .iter()
                .find(|p| p.node == node)
                .cloned()
                .ok_or_else(|| (404, format!("no pending proposal for node {node}")))?
        };
        let body = match &proposal.standby {
            Some(ctrl) => {
                let ctrl_addr = ctrl
                    .to_socket_addrs()
                    .ok()
                    .and_then(|mut a| a.next())
                    .ok_or_else(|| (502, format!("cannot resolve standby '{ctrl}'")))?;
                // Promote the follower. Idempotent on the standby side:
                // an already-promoted follower answers with the same
                // serve address, so a retried confirmation converges.
                let serve = self
                    .failover_retry("standby promote", || {
                        let (status, body) = control_call(ctrl_addr, "POST", "/admin/promote", b"")
                            .map_err(|e| e.to_string())?;
                        if status != 200 {
                            return Err(format!("promote failed ({status}): {body}"));
                        }
                        parse_str_field(&body, "serve_addr")
                            .ok_or_else(|| format!("malformed promote response: {body}"))
                    })
                    .map_err(|e| (502, e))?;
                let serve_addr: SocketAddr = serve
                    .parse()
                    .map_err(|_| (502, format!("standby reported bad serve addr '{serve}'")))?;
                // Provision the promoted node: replication already
                // carried the tenants, so this mostly just re-learns
                // the wire-id map — but it also backfills any tenant
                // registered after the last replication round.
                let ids = self
                    .failover_retry("provision promoted node", || {
                        provision_node(serve_addr, &self.cfg.tenants)
                    })
                    .map_err(|e| (502, e))?;
                let old = self.node_name(node);
                {
                    self.nodes.write().expect("nodes poisoned")[node] = serve_addr;
                    self.node_names.write().expect("node names poisoned")[node] = serve.clone();
                    self.node_ids.write().expect("node_ids poisoned")[node] = ids;
                }
                let epoch = {
                    let mut ring = self.ring.write().expect("ring poisoned");
                    let epoch = ring.bump_epoch();
                    self.sync_ring_gauges(&ring);
                    epoch
                };
                self.metrics
                    .failover_promotions
                    .fetch_add(1, Ordering::Relaxed);
                self.telem.event(
                    EventKind::Failover,
                    "",
                    "",
                    format!("node {node}: {old} -> {serve} (standby promoted), epoch {epoch}"),
                );
                self.telem.event(
                    EventKind::RingEpoch,
                    "",
                    "",
                    format!("epoch={epoch} failover-node={node}"),
                );
                format!(
                    "{{\"node\":{node},\"action\":\"promoted\",\"addr\":\"{serve}\",\
                     \"epoch\":{epoch}}}"
                )
            }
            None => {
                let (epoch, live) = {
                    let mut ring = self.ring.write().expect("ring poisoned");
                    ring.drop_node(node);
                    self.sync_ring_gauges(&ring);
                    (ring.epoch(), ring.live_count())
                };
                self.telem.event(
                    EventKind::Failover,
                    "",
                    "",
                    format!(
                        "node {node} ({}) dropped, no standby, epoch {epoch}",
                        proposal.addr
                    ),
                );
                self.telem.event(
                    EventKind::RingEpoch,
                    "",
                    "",
                    format!("epoch={epoch} failover-node={node}"),
                );
                format!(
                    "{{\"node\":{node},\"action\":\"dropped\",\"epoch\":{epoch},\"live\":{live}}}"
                )
            }
        };
        // Only a successful confirmation consumes the proposal.
        self.proposals
            .lock()
            .expect("proposals poisoned")
            .retain(|p| p.node != node);
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
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    reconciler: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Starts the router: resolves and provisions the nodes (registering
    /// any configured tenant a node doesn't know yet and learning each
    /// node's tenant wire ids), binds the listen socket, and spawns the
    /// acceptor and the background reconciler.
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

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
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
        let ctx = Arc::new(RouterCtx {
            ring: RwLock::new(ClusterRing::new(nodes.len())),
            admission: Mutex::new(admission),
            has_qos,
            node_ids: RwLock::new(node_ids),
            metrics,
            telem,
            shutdown: AtomicBool::new(false),
            slots: nodes.len(),
            nodes: RwLock::new(nodes),
            node_names: RwLock::new(node_names),
            proposals: Mutex::new(Vec::new()),
            addr,
            cfg,
        });

        let accept_ctx = ctx.clone();
        let acceptor = thread::Builder::new()
            .name("router-accept".into())
            .spawn(move || accept_loop(accept_ctx, listener))?;
        let reconciler = if reconcile_ms > 0 {
            let rec_ctx = ctx.clone();
            Some(
                thread::Builder::new()
                    .name("router-reconcile".into())
                    .spawn(move || reconcile_loop(rec_ctx))?,
            )
        } else {
            None
        };
        let prober = if failover != FailoverMode::Off {
            let probe_ctx = ctx.clone();
            Some(
                thread::Builder::new()
                    .name("router-probe".into())
                    .spawn(move || probe_loop(probe_ctx))?,
            )
        } else {
            None
        };
        Ok(Router {
            ctx,
            addr,
            acceptor: Some(acceptor),
            reconciler,
            prober,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
        self.ctx.request_shutdown();
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reconciler.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(ctx: Arc<RouterCtx>, listener: TcpListener) {
    for stream in listener.incoming() {
        if ctx.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_ctx = ctx.clone();
        let _ = thread::Builder::new()
            .name("router-conn".into())
            .spawn(move || client_thread(conn_ctx, stream));
    }
}

fn reconcile_loop(ctx: Arc<RouterCtx>) {
    let interval = Duration::from_millis(ctx.cfg.reconcile_ms);
    'outer: loop {
        // Sleep in small slices so shutdown is honored promptly.
        let mut remaining = interval;
        while remaining > Duration::ZERO {
            if ctx.shutting_down() {
                break 'outer;
            }
            let slice = remaining.min(Duration::from_millis(50));
            thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if ctx.shutting_down() {
            break;
        }
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
    'outer: loop {
        // Sleep in small slices so shutdown is honored promptly.
        let mut remaining = interval;
        while remaining > Duration::ZERO {
            if ctx.shutting_down() {
                break 'outer;
            }
            let slice = remaining.min(Duration::from_millis(50));
            thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if ctx.shutting_down() {
            break;
        }
        let ring = ctx.ring.read().expect("ring poisoned").clone();
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
                let proposals = ctx.proposals.lock().expect("proposals poisoned");
                proposals.iter().map(|p| p.node).collect()
            };
            for node in pending {
                if let Err((_, e)) = ctx.confirm_failover(node) {
                    ctx.telem.event(
                        EventKind::NodeDown,
                        "",
                        "",
                        format!("auto failover of node {node} failed (will retry): {e}"),
                    );
                }
            }
        }
    }
}

/// Where one record of a client frame goes.
enum Slot {
    /// Rejected by admission; the router answers `Throttled` itself.
    Throttled,
    /// Forwarded to this node's subframe.
    Node(usize),
}

/// One queued response, drained in FIFO order.
enum Pending {
    /// A new upstream connection's read half. Always enqueued before any
    /// pending that reads from it.
    Register { node: usize, stream: TcpStream },
    /// A locally produced response (admin, throttle, typed errors).
    Local(Vec<u8>),
    /// `count` consecutive JSON requests were forwarded to `node`;
    /// relay their responses in order. A pipelined same-node run
    /// coalesces into one pending — except traced requests, which get a
    /// dedicated `count == 1` pending so the drain can time their
    /// `await`/`reassemble` hop spans.
    Json {
        node: usize,
        count: u32,
        /// `(trace id, forward-end ns)` when this pending is one traced
        /// request and hop recording is on.
        hop: Option<(u64, u64)>,
    },
    /// One client SITW-BIN v2 frame whose records all mapped to `node`
    /// with nothing throttled locally: the node's reply (or typed
    /// error) frame answers the client verbatim, no reassembly.
    WholeFrame {
        node: usize,
        /// `(trace id, forward-end ns)` when traced (see `Json::hop`).
        hop: Option<(u64, u64)>,
    },
    /// One client BIN frame, split across nodes.
    Frame {
        /// The client frame's protocol version (replies echo it).
        version: u8,
        /// Per-record destination, in request order.
        slots: Vec<Slot>,
        /// Nodes whose subframes were fully written, in send order.
        sent: Vec<usize>,
        /// An upstream write failed; answer `Unavailable` with this
        /// detail after draining the nodes that did receive subframes.
        failed: Option<String>,
        /// `(trace id, forward-end ns)` when traced (see `Json::hop`).
        hop: Option<(u64, u64)>,
    },
}

/// Estimated client-facing bytes for one relayed JSON response, used
/// only to bound the pending queue (below).
const JSON_RESPONSE_ESTIMATE: usize = 256;

/// Drain the pending queue once its estimated response bytes exceed
/// this, even if the client is still streaming requests. Draining
/// blocks on upstream reads, which is deadlock-free only while every
/// undrained reply fits in the node→router socket buffers (~208 KiB
/// each side on Linux): a node never needs the router to accept more
/// requests in order to answer the ones it already read, so as long as
/// its pending replies fit in kernel buffers, our buffered request
/// writes can always make progress too.
const QUEUED_RESPONSE_BYTES_CAP: usize = 128 * 1024;

fn client_thread(ctx: Arc<RouterCtx>, stream: TcpStream) {
    if stream.set_read_timeout(Some(ctx.cfg.read_timeout)).is_err() {
        return;
    }
    // Writes are batched explicitly (flushed when the input drains), so
    // Nagle only adds latency on the already-coalesced segments.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let upstream = (0..ctx.slots).map(|_| None).collect();
    let readers = (0..ctx.slots).map(|_| None).collect();
    let mut conn = ClientConn {
        ctx,
        conn: ConnBuf::new(stream),
        writer: write_half,
        upstream,
        readers,
        pendings: VecDeque::new(),
        queued_bytes: 0,
        out_buf: Vec::new(),
        json_run: None,
        egress: Vec::new(),
    };
    conn.run();
}

/// One client connection: parse, forward, drain — all on one thread.
struct ClientConn {
    ctx: Arc<RouterCtx>,
    conn: ConnBuf,
    /// The client socket's write half.
    writer: TcpStream,
    /// Upstream write halves, connected lazily per node. Buffered so a
    /// pipelined burst of client messages coalesces into few upstream
    /// segments; flushed whenever the client input drains.
    upstream: Vec<Option<io::BufWriter<TcpStream>>>,
    /// Upstream read halves, registered through the pending queue so a
    /// reconnect never overtakes replies owed by the old connection.
    readers: Vec<Option<ConnBuf>>,
    /// Responses owed to the client, in request order.
    pendings: VecDeque<Pending>,
    /// Estimated client-facing bytes of the queued responses; drained
    /// at [`QUEUED_RESPONSE_BYTES_CAP`].
    queued_bytes: usize,
    /// Rendered-but-unwritten client bytes.
    out_buf: Vec<u8>,
    /// A not-yet-enqueued run of forwarded JSON requests, coalesced
    /// while consecutive requests keep hitting the same node. Flushed
    /// before any other pending is enqueued (the FIFO order is the
    /// response order) and before draining.
    json_run: Option<(usize, u32)>,
    /// Traced responses rendered but not yet written to the client:
    /// `(trace id, reassemble-end ns)`. Their `egress` hop spans close
    /// when the next client flush succeeds.
    egress: Vec<(u64, u64)>,
}

impl ClientConn {
    fn run(&mut self) {
        // Parse scratch, refilled in place: a warm connection reads
        // without allocating.
        let mut req = Request::default();
        let mut records: Vec<BinInvoke> = Vec::new();
        // Set when the loop ends on an error that leaves part of the
        // client's message unread.
        let mut unread_input = false;
        loop {
            if self.ctx.shutting_down() {
                break;
            }
            // About to block on the client socket: anything buffered for
            // the nodes must go out first (or their replies — and thus
            // the client's next request — never come), and everything
            // owed to the client must be answered, or a request/reply
            // lockstep client never sends the next burst.
            if self.conn.buffered() == 0 && !self.settle() {
                break;
            }
            let event = match self.conn.read_event_into(&mut req, &mut records) {
                Ok(ev) => ev,
                Err(_) => break,
            };
            match event {
                ReadEvent::Timeout => {
                    // A stalled mid-message client still gets the
                    // responses it is owed, bounded by the read
                    // timeout — it can't hold earlier replies hostage.
                    if !self.settle() {
                        break;
                    }
                    continue;
                }
                ReadEvent::Eof => break,
                ReadEvent::Request => {
                    if !self.handle_request(&req) {
                        break;
                    }
                }
                ReadEvent::Frame { version, trace } => {
                    if !self.handle_frame(&records, version, trace) {
                        break;
                    }
                }
                ReadEvent::Ctrl(_) => {
                    // The control plane flows router → node, never
                    // client → router.
                    if !self.send_error_frame(
                        BinErrorCode::Malformed,
                        "control frames terminate at nodes",
                    ) {
                        break;
                    }
                }
                ReadEvent::FrameError {
                    code,
                    detail,
                    recoverable,
                } => {
                    if !self.send_error_frame(code, &detail) {
                        break;
                    }
                    if !recoverable {
                        unread_input = true;
                        break;
                    }
                }
                ReadEvent::BodyTooLarge { declared } => {
                    let body = format!("{{\"error\":\"body of {declared} bytes too large\"}}");
                    self.send_response(413, "application/json", body.as_bytes());
                    unread_input = true;
                    break;
                }
            }
            if self.queued_bytes >= QUEUED_RESPONSE_BYTES_CAP && !self.settle() {
                break;
            }
        }
        // Requests already forwarded still deserve their responses,
        // even if the client half-closed mid-buffer.
        let answered = self.settle();
        if unread_input && answered {
            // The stream could not be resynchronized, so the rest of the
            // client's message is still in flight. Closing over unread
            // bytes turns the close into an RST that can destroy the
            // error response just written.
            self.conn.drain_for_close(2 * MAX_BODY_BYTES);
        }
    }

    /// Flushes buffered upstream requests, drains every owed response,
    /// and answers the client. Returns false when the client write half
    /// is beyond saving.
    fn settle(&mut self) -> bool {
        self.flush_json_run();
        self.flush_upstream();
        while let Some(pending) = self.pendings.pop_front() {
            handle_pending(
                &self.ctx,
                pending,
                &mut self.readers,
                &mut self.out_buf,
                &mut self.egress,
            );
            if self.out_buf.len() >= 64 * 1024 && !self.flush_client() {
                return false;
            }
        }
        self.queued_bytes = 0;
        self.flush_client()
    }

    fn flush_client(&mut self) -> bool {
        if self.out_buf.is_empty() {
            return true;
        }
        let ok = self.writer.write_all(&self.out_buf).is_ok();
        self.out_buf.clear();
        if ok {
            let t = self.ctx.telem.now_ns();
            for (id, start) in self.egress.drain(..) {
                self.ctx.telem.record(id, Stage::Egress, start, t);
            }
        } else {
            self.egress.clear();
        }
        ok
    }

    fn send_local(&mut self, bytes: Vec<u8>) -> bool {
        self.queued_bytes += bytes.len();
        self.pendings.push_back(Pending::Local(bytes));
        true
    }

    fn send_response(&mut self, status: u16, content_type: &str, body: &[u8]) -> bool {
        self.flush_json_run();
        let mut out = Vec::new();
        write_response(&mut out, status, content_type, body);
        self.send_local(out)
    }

    fn send_error_frame(&mut self, code: BinErrorCode, detail: &str) -> bool {
        self.flush_json_run();
        let mut out = Vec::new();
        encode_error_frame(&mut out, code, detail);
        self.send_local(out)
    }

    /// Records one forwarded JSON request for `node`, extending the
    /// current same-node run or starting a new one. A traced request
    /// (`hop` set) gets its own single-request pending so the drain can
    /// time its hop spans.
    fn queue_json(&mut self, node: usize, hop: Option<(u64, u64)>) -> bool {
        self.queued_bytes += JSON_RESPONSE_ESTIMATE;
        if hop.is_some() {
            self.flush_json_run();
            self.pendings.push_back(Pending::Json {
                node,
                count: 1,
                hop,
            });
            return true;
        }
        match &mut self.json_run {
            Some((n, count)) if *n == node => *count += 1,
            _ => {
                self.flush_json_run();
                self.json_run = Some((node, 1));
            }
        }
        true
    }

    /// Enqueues the coalesced JSON run (if any) behind earlier pendings.
    fn flush_json_run(&mut self) {
        if let Some((node, count)) = self.json_run.take() {
            self.pendings.push_back(Pending::Json {
                node,
                count,
                hop: None,
            });
        }
    }

    /// Flushes every buffered upstream writer. A flush failure drops the
    /// writer and counts a node error; the reply thread turns the dead
    /// connection into a typed `Unavailable` when it tries to read the
    /// response.
    fn flush_upstream(&mut self) {
        for node in 0..self.upstream.len() {
            if let Some(w) = self.upstream[node].as_mut() {
                if w.flush().is_err() {
                    self.ctx.metrics.node_error(node);
                    self.upstream[node] = None;
                }
            }
        }
    }

    /// Connects to `node` if this connection hasn't yet, queueing the
    /// read half behind everything already owed.
    fn ensure_node(&mut self, node: usize) -> io::Result<()> {
        if self.upstream[node].is_some() {
            return Ok(());
        }
        // A pending JSON run may still reference this node's *previous*
        // connection (dropped on a flush failure); it must sit ahead of
        // the `Register` that replaces that reader.
        self.flush_json_run();
        // The whole upstream exchange is deadline-bounded: a killed node
        // surfaces as an immediate reset/EOF, and a *hung* one (SIGSTOP,
        // dead disk) as a timeout — either way a typed error within
        // `upstream_timeout`, never a stalled client drain.
        let timeout = self.ctx.cfg.upstream_timeout;
        let stream = TcpStream::connect_timeout(&self.ctx.node_addr(node), timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_write_timeout(Some(timeout))?;
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(timeout))?;
        self.pendings.push_back(Pending::Register {
            node,
            stream: read_half,
        });
        self.upstream[node] = Some(io::BufWriter::with_capacity(64 * 1024, stream));
        Ok(())
    }

    /// Routes one HTTP request. Returns false to close the connection.
    fn handle_request(&mut self, req: &Request) -> bool {
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (req.path.as_str(), ""),
        };
        let ok = match (req.method.as_str(), path) {
            ("POST", "/invoke") => self.forward_invoke(req),
            ("GET", "/healthz") => {
                let ring = self.ctx.ring.read().expect("ring poisoned");
                let body = format!(
                    "{{\"status\":\"ok\",\"role\":\"router\",\"nodes\":{},\"live\":{},\
                     \"epoch\":{},\"tenants\":{},\"failover\":\"{}\"}}",
                    ring.len(),
                    ring.live_count(),
                    ring.epoch(),
                    self.ctx.cfg.tenants.len() + 1,
                    self.ctx.cfg.failover.name(),
                );
                drop(ring);
                self.send_response(200, "application/json", body.as_bytes())
            }
            ("GET", "/metrics") => {
                let text = self.ctx.metrics.render(&self.ctx.node_names_snapshot());
                self.send_response(200, "text/plain; version=0.0.4", text.as_bytes())
            }
            ("GET", "/metrics/fleet") => {
                // Federation pass: pull every live node's raw log2
                // buckets and merge exactly. This blocks on node
                // round-trips, which is fine on the control path — the
                // data path never calls it.
                let text = render_fleet(&self.ctx.fleet_scrape());
                self.send_response(200, "text/plain; version=0.0.4", text.as_bytes())
            }
            ("GET", "/debug/trace") => {
                // The node's text shape with fleet sources, or (with
                // `format=json`) span objects keyed by hex trace id.
                let spans = self.ctx.merged_trace();
                let (content_type, body) = if query.split('&').any(|p| p == "format=json") {
                    ("application/json", write_trace_json(&spans, true))
                } else {
                    ("text/plain", write_trace_text(&spans))
                };
                self.send_response(200, content_type, body.as_bytes())
            }
            ("GET", "/debug/events") => {
                let body = EventRing::snapshot_json(&self.ctx.telem.events);
                self.send_response(200, "application/json", body.as_bytes())
            }
            ("GET", "/admin/ring") => {
                let names = self.ctx.node_names_snapshot();
                let ring = self.ctx.ring.read().expect("ring poisoned");
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
                self.send_response(200, "application/json", body.as_bytes())
            }
            ("GET", "/admin/tenants") => {
                // Same shape as a node's listing (id immediately before
                // name), so `sitw-loadgen` resolves ids against the
                // router transparently.
                let mut body = String::from(
                    "[{\"id\":0,\"name\":\"default\",\"policy\":\"-\",\"budget_mb\":0}",
                );
                for (i, t) in self.ctx.cfg.tenants.iter().enumerate() {
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
                self.send_response(200, "application/json", body.as_bytes())
            }
            ("POST", "/admin/ring/drop") => {
                match query
                    .strip_prefix("node=")
                    .and_then(|v| v.parse::<usize>().ok())
                {
                    Some(node) if node < self.ctx.slots => {
                        let (dropped, epoch, live) = {
                            let mut ring = self.ctx.ring.write().expect("ring poisoned");
                            let dropped = ring.drop_node(node);
                            self.ctx.sync_ring_gauges(&ring);
                            (dropped, ring.epoch(), ring.live_count())
                        };
                        if dropped {
                            self.ctx.telem.event(
                                EventKind::RingEpoch,
                                "",
                                "",
                                format!("epoch={epoch} drop-node={node} live={live}"),
                            );
                        }
                        let body =
                            format!("{{\"dropped\":{dropped},\"epoch\":{epoch},\"live\":{live}}}");
                        self.send_response(200, "application/json", body.as_bytes())
                    }
                    _ => self.send_response(
                        400,
                        "application/json",
                        b"{\"error\":\"expected ?node=INDEX\"}",
                    ),
                }
            }
            ("GET", "/admin/ring/proposals") => {
                let proposals = self.ctx.proposals.lock().expect("proposals poisoned");
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
                self.send_response(200, "application/json", body.as_bytes())
            }
            ("POST", "/admin/ring/proposals/confirm") => {
                match query
                    .strip_prefix("node=")
                    .and_then(|v| v.parse::<usize>().ok())
                {
                    Some(node) => match self.ctx.confirm_failover(node) {
                        Ok(body) => self.send_response(200, "application/json", body.as_bytes()),
                        Err((status, e)) => {
                            let body = format!("{{\"error\":\"{}\"}}", wire::json_escape(&e));
                            self.send_response(status, "application/json", body.as_bytes())
                        }
                    },
                    None => self.send_response(
                        400,
                        "application/json",
                        b"{\"error\":\"expected ?node=INDEX\"}",
                    ),
                }
            }
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
                    (Some(tenant), Some(to)) => match self.ctx.migrate(tenant, to) {
                        Ok((from, to, epoch)) => {
                            let body = format!(
                                "{{\"tenant\":\"{tenant}\",\"from\":{from},\"to\":{to},\
                                 \"epoch\":{epoch}}}"
                            );
                            self.send_response(200, "application/json", body.as_bytes())
                        }
                        Err((status, e)) => {
                            let body = format!("{{\"error\":\"{}\"}}", wire::json_escape(&e));
                            self.send_response(status, "application/json", body.as_bytes())
                        }
                    },
                    _ => self.send_response(
                        400,
                        "application/json",
                        b"{\"error\":\"expected ?tenant=NAME&to=INDEX\"}",
                    ),
                }
            }
            ("POST", "/admin/reconcile") => {
                let (nodes, pushes) = self.ctx.reconcile_once();
                let body = format!("{{\"nodes\":{nodes},\"pushes\":{pushes}}}");
                self.send_response(200, "application/json", body.as_bytes())
            }
            ("POST", "/admin/shutdown") => {
                let sent =
                    self.send_response(200, "application/json", b"{\"status\":\"stopping\"}");
                self.ctx.request_shutdown();
                sent
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
            ) => self.send_response(
                405,
                "application/json",
                b"{\"error\":\"method not allowed\"}",
            ),
            _ => self.send_response(404, "application/json", b"{\"error\":\"not found\"}"),
        };
        ok && !req.close
    }

    /// Admission + placement + forward for one JSON `/invoke`.
    fn forward_invoke(&mut self, req: &Request) -> bool {
        let t0 = self.ctx.telem.now_ns();
        let trace = self.ctx.telem.sample(req.trace);
        if trace.is_some() {
            self.ctx
                .metrics
                .traced_requests
                .fetch_add(1, Ordering::Relaxed);
        }
        let inv = match wire::parse_invoke(&req.body) {
            Ok(inv) => inv,
            Err(e) => {
                let body = format!("{{\"error\":\"{}\"}}", wire::json_escape(&e));
                return self.send_response(400, "application/json", body.as_bytes());
            }
        };
        self.ctx
            .metrics
            .json_requests
            .fetch_add(1, Ordering::Relaxed);
        if let Some(name) = inv.tenant.as_deref().filter(|_| self.ctx.has_qos) {
            let admitted = self
                .ctx
                .admission
                .lock()
                .expect("admission poisoned")
                .admit(name, inv.ts);
            if !admitted {
                self.ctx.metrics.throttled.fetch_add(1, Ordering::Relaxed);
                self.ctx.telem.event(
                    EventKind::Throttle,
                    name,
                    &inv.app,
                    format!("proto=json ts={}", inv.ts),
                );
                let body = format!("{{\"error\":\"throttled\",\"tenant\":\"{name}\"}}");
                return self.send_response(429, "application/json", body.as_bytes());
            }
        }
        // Ingress covers parse + admission; the ring lookup is `route`.
        let t1 = self.ctx.telem.now_ns();
        let node = {
            let ring = self.ctx.ring.read().expect("ring poisoned");
            match &inv.tenant {
                Some(name) => ring.node_of_tenant(name),
                None => ring.node_of_app(&inv.app),
            }
        };
        let Some(node) = node else {
            return self.send_response(503, "application/json", b"{\"error\":\"no live nodes\"}");
        };
        if let Some(id) = trace {
            let t2 = self.ctx.telem.now_ns();
            self.ctx.telem.record(id, Stage::Ingress, t0, t1);
            self.ctx.telem.record(id, Stage::Route, t1, t2);
        }
        // Tenant names are the cluster-wide key, so the body forwards
        // verbatim — no id rewrite on the JSON path.
        self.forward_invoke_to(node, req, trace)
    }

    /// Writes one `/invoke` forward for `node` into its buffered
    /// upstream writer and queues the response relay. A traced request
    /// carries its id to the node as an `x-sitw-trace` header, and its
    /// `forward` hop span closes here.
    fn forward_invoke_to(&mut self, node: usize, req: &Request, trace: Option<u64>) -> bool {
        let t_f0 = self.ctx.telem.now_ns();
        let forwarded = self.ensure_node(node).and_then(|()| {
            let Some(stream) = self.upstream[node].as_mut() else {
                return Err(io::Error::other("upstream vanished"));
            };
            // Straight into the buffered writer — no intermediate
            // allocation on the per-request path.
            write_request(stream, "POST", "/invoke", trace, &req.body)
        });
        match forwarded {
            Ok(()) => {
                let hop = if self.ctx.telem.enabled {
                    let t_f1 = self.ctx.telem.now_ns();
                    if let Some(id) = trace {
                        self.ctx.telem.record(id, Stage::Forward, t_f0, t_f1);
                    }
                    trace.map(|id| (id, t_f1))
                } else {
                    None
                };
                self.queue_json(node, hop)
            }
            Err(e) => {
                self.ctx.metrics.node_error(node);
                self.upstream[node] = None;
                let body = format!(
                    "{{\"error\":\"node {} down: {}\"}}",
                    self.ctx.node_name(node),
                    wire::json_escape(&e.to_string())
                );
                self.send_response(503, "application/json", body.as_bytes())
            }
        }
    }

    /// Admission + split + forward for one client SITW-BIN frame.
    fn handle_frame(
        &mut self,
        records: &[BinInvoke],
        version: u8,
        client_trace: Option<u64>,
    ) -> bool {
        self.flush_json_run();
        let t0 = self.ctx.telem.now_ns();
        let trace = self.ctx.telem.sample(client_trace);
        if trace.is_some() {
            self.ctx
                .metrics
                .traced_requests
                .fetch_add(1, Ordering::Relaxed);
        }
        self.ctx.metrics.bin_frames.fetch_add(1, Ordering::Relaxed);
        self.ctx
            .metrics
            .bin_records
            .fetch_add(records.len() as u64, Ordering::Relaxed);

        // Ingress ends where the slot loop (admission + placement —
        // the `route` hop) begins.
        let t1 = self.ctx.telem.now_ns();
        let mut slots = Vec::with_capacity(records.len());
        let mut batches: Vec<Vec<(u16, &str, u64)>> =
            (0..self.ctx.slots).map(|_| Vec::new()).collect();
        {
            let ring = self.ctx.ring.read().expect("ring poisoned");
            let node_ids = self.ctx.node_ids.read().expect("node_ids poisoned");
            let mut admission = self
                .ctx
                .has_qos
                .then(|| self.ctx.admission.lock().expect("admission poisoned"));
            for rec in records {
                let (name, node) = if rec.tenant == 0 {
                    match ring.node_of_app(&rec.app) {
                        Some(node) => (None, node),
                        None => {
                            drop((ring, node_ids, admission));
                            return self
                                .send_error_frame(BinErrorCode::Unavailable, "no live nodes");
                        }
                    }
                } else {
                    let Some(rt) = self.ctx.cfg.tenants.get(rec.tenant as usize - 1) else {
                        drop((ring, node_ids, admission));
                        return self.send_error_frame(
                            BinErrorCode::Malformed,
                            &format!("unknown tenant id {}", rec.tenant),
                        );
                    };
                    let admitted = admission.as_mut().is_none_or(|a| a.admit(&rt.name, rec.ts));
                    if !admitted {
                        self.ctx.metrics.throttled.fetch_add(1, Ordering::Relaxed);
                        self.ctx.telem.event(
                            EventKind::Throttle,
                            &rt.name,
                            &rec.app,
                            format!("proto=bin ts={}", rec.ts),
                        );
                        slots.push(Slot::Throttled);
                        continue;
                    }
                    match ring.node_of_tenant(&rt.name) {
                        Some(node) => (Some(rt.name.as_str()), node),
                        None => {
                            drop((ring, node_ids, admission));
                            return self
                                .send_error_frame(BinErrorCode::Unavailable, "no live nodes");
                        }
                    }
                };
                let local_id = match name {
                    None => 0,
                    Some(name) => match node_ids[node].get(name) {
                        Some(&id) => id,
                        None => {
                            drop((ring, node_ids, admission));
                            return self.send_error_frame(
                                BinErrorCode::Unavailable,
                                &format!(
                                    "tenant '{name}' not provisioned on node {}",
                                    self.ctx.node_name(node)
                                ),
                            );
                        }
                    },
                };
                slots.push(Slot::Node(node));
                batches[node].push((local_id, rec.app.as_str(), rec.ts));
            }
        }

        let t2 = self.ctx.telem.now_ns();
        if let Some(id) = trace {
            self.ctx.telem.record(id, Stage::Ingress, t0, t1);
            self.ctx.telem.record(id, Stage::Route, t1, t2);
        }

        // Pre-flight: connect every needed node before sending anything,
        // so a dead node fails the frame without leaving half a batch in
        // flight elsewhere.
        let needed: Vec<usize> = (0..batches.len())
            .filter(|&n| !batches[n].is_empty())
            .collect();
        for &node in &needed {
            if let Err(e) = self.ensure_node(node) {
                self.ctx.metrics.node_error(node);
                return self.send_error_frame(
                    BinErrorCode::Unavailable,
                    &format!("node {} down: {e}", self.ctx.node_name(node)),
                );
            }
        }
        let mut sent = Vec::with_capacity(needed.len());
        let mut failed = None;
        for &node in &needed {
            let mut frame = Vec::new();
            // Traced frames carry the id to each node's subframe, so
            // every node tags its pipeline stages with the same span.
            match trace {
                Some(id) => encode_request_frame_v2_traced(&mut frame, &batches[node], id),
                None => encode_request_frame_v2(&mut frame, &batches[node]),
            }
            let result = match self.upstream[node].as_mut() {
                Some(stream) => stream.write_all(&frame),
                None => Err(io::Error::other("upstream vanished")),
            };
            match result {
                Ok(()) => {
                    self.ctx
                        .metrics
                        .forwarded_subframes
                        .fetch_add(1, Ordering::Relaxed);
                    sent.push(node);
                }
                Err(e) => {
                    self.ctx.metrics.node_error(node);
                    self.upstream[node] = None;
                    failed = Some(format!("node {} down: {e}", self.ctx.node_name(node)));
                    break;
                }
            }
        }
        let hop = if self.ctx.telem.enabled {
            let t3 = self.ctx.telem.now_ns();
            if let Some(id) = trace {
                self.ctx.telem.record(id, Stage::Forward, t2, t3);
            }
            trace.map(|id| (id, t3))
        } else {
            None
        };
        // Fast path: a v2 frame that mapped whole onto one node with
        // nothing throttled needs no reassembly — the node's reply (or
        // typed error) frame IS the client's answer, byte for byte.
        // (v1 clients stay on the slow path: the upstream always speaks
        // v2, so their replies need re-encoding.)
        self.queued_bytes += wire::BIN_HEADER_LEN + wire::REPLY_RECORD_LEN * slots.len();
        if failed.is_none()
            && version == wire::BIN_VERSION_2
            && sent.len() == 1
            && slots.len() == batches[sent[0]].len()
        {
            self.pendings
                .push_back(Pending::WholeFrame { node: sent[0], hop });
            return true;
        }
        self.pendings.push_back(Pending::Frame {
            version,
            slots,
            sent,
            failed,
            hop,
        });
        true
    }
}

/// Reads the reply `node` owes on this client's upstream connection,
/// with its exact bytes — what the verbatim relays forward, no record
/// re-encode, no header rewrite. A clean close or an expired
/// `upstream_timeout` is an error like any other: the router only reads
/// while a reply is owed.
fn upstream_reply(readers: &mut [Option<ConnBuf>], node: usize) -> io::Result<(Reply, &[u8])> {
    let Some(reader) = readers[node].as_mut() else {
        return Err(io::Error::other("no upstream reader"));
    };
    Ok((reader.read_reply()?.owed()?, reader.reply_raw()))
}

/// An [`upstream_reply`] failed, or was not the reply its pending
/// expected: charges the node, drops its reader — whatever else was
/// owed on it is lost with it — and returns the detail of the typed
/// error, naming the node. (`failed` is taken before `readers` so the
/// reply's borrow of them has ended by then.)
fn node_down(
    ctx: &RouterCtx,
    failed: Option<io::Error>,
    readers: &mut [Option<ConnBuf>],
    node: usize,
) -> String {
    let e = failed.unwrap_or_else(|| io::Error::other("unexpected upstream reply"));
    ctx.metrics.node_error(node);
    readers[node] = None;
    format!("node {} down: {e}", ctx.node_name(node))
}

/// Processes one pending response, appending client bytes to `out`.
/// A traced pending (`hop` set) closes its `await` and `reassemble`
/// hop spans here and leaves an entry in `egress` so the next
/// successful client flush can close the `egress` span.
fn handle_pending(
    ctx: &RouterCtx,
    pending: Pending,
    readers: &mut [Option<ConnBuf>],
    out_buf: &mut Vec<u8>,
    egress: &mut Vec<(u64, u64)>,
) {
    match pending {
        Pending::Register { node, stream } => {
            readers[node] = Some(ConnBuf::new(stream));
        }
        Pending::Local(bytes) => {
            out_buf.extend_from_slice(&bytes);
        }
        Pending::Json { node, count, hop } => {
            // One pending covers a coalesced run; each response still
            // answers its own request, so a mid-run failure turns the
            // rest of the run into per-request 503s.
            for _ in 0..count {
                match upstream_reply(readers, node) {
                    Ok((Reply::Http(_), raw)) => out_buf.extend_from_slice(raw),
                    other => {
                        let detail = node_down(ctx, other.err(), readers, node);
                        let body = format!("{{\"error\":\"{}\"}}", wire::json_escape(&detail));
                        write_response(out_buf, 503, "application/json", body.as_bytes());
                    }
                }
            }
            if let Some((id, t_fwd)) = hop {
                // A relayed JSON response involves no re-encoding, so
                // `reassemble` is a zero-width span.
                let t_reply = ctx.telem.now_ns();
                ctx.telem.record(id, Stage::Await, t_fwd, t_reply);
                ctx.telem.record(id, Stage::Reassemble, t_reply, t_reply);
                egress.push((id, t_reply));
            }
        }
        Pending::WholeFrame { node, hop } => {
            use ServerFrameDecode::{Error, Reply as Records};
            match upstream_reply(readers, node) {
                Ok((Reply::Frame(Records { .. } | Error { .. }), raw)) => {
                    out_buf.extend_from_slice(raw)
                }
                other => {
                    let detail = node_down(ctx, other.err(), readers, node);
                    encode_error_frame(out_buf, BinErrorCode::Unavailable, &detail);
                }
            }
            if let Some((id, t_fwd)) = hop {
                let t_reply = ctx.telem.now_ns();
                ctx.telem.record(id, Stage::Await, t_fwd, t_reply);
                ctx.telem.record(id, Stage::Reassemble, t_reply, t_reply);
                egress.push((id, t_reply));
            }
        }
        Pending::Frame {
            version,
            slots,
            sent,
            failed,
            hop,
        } => {
            let mut error: Option<(BinErrorCode, String)> =
                failed.map(|d| (BinErrorCode::Unavailable, d));
            let mut per_node: HashMap<usize, VecDeque<BinReply>> = HashMap::new();
            // Drain one reply frame per node that received a
            // subframe — even after an error, to keep surviving
            // upstream connections in sync for later pendings.
            for node in sent {
                match upstream_reply(readers, node) {
                    Ok((Reply::Frame(ServerFrameDecode::Reply { records, .. }), _)) => {
                        per_node.insert(node, records.into());
                    }
                    Ok((Reply::Frame(ServerFrameDecode::Error { code, detail, .. }), _)) => {
                        // A node's own typed error covers the whole
                        // client frame.
                        if error.is_none() {
                            error = Some((code, detail));
                        }
                    }
                    other => {
                        let detail = node_down(ctx, other.err(), readers, node);
                        error.get_or_insert((BinErrorCode::Unavailable, detail));
                    }
                }
            }
            // Every subframe reply is in: `await` ends, `reassemble`
            // starts.
            let t_reply = if hop.is_some() { ctx.telem.now_ns() } else { 0 };
            if error.is_none() {
                // Reassemble: per-node replies interleave back into
                // request order, with local Throttled records
                // spliced in.
                let mut merged = Vec::with_capacity(slots.len());
                for slot in &slots {
                    match slot {
                        Slot::Throttled => merged.push(BinReply::Throttled),
                        Slot::Node(node) => {
                            match per_node.get_mut(node).and_then(|q| q.pop_front()) {
                                Some(rec) => merged.push(rec),
                                None => {
                                    error = Some((
                                        BinErrorCode::Unavailable,
                                        format!(
                                            "node {} returned a short reply",
                                            ctx.node_name(*node)
                                        ),
                                    ));
                                    break;
                                }
                            }
                        }
                    }
                }
                if error.is_none() {
                    encode_reply_records(out_buf, version, &merged);
                }
            }
            if let Some((code, detail)) = error {
                encode_error_frame(out_buf, code, &detail);
            }
            if let Some((id, t_fwd)) = hop {
                let t_out = ctx.telem.now_ns();
                ctx.telem.record(id, Stage::Await, t_fwd, t_reply);
                ctx.telem.record(id, Stage::Reassemble, t_reply, t_out);
                egress.push((id, t_out));
            }
        }
    }
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

/// Extracts the first `"key":"value"` string field of a JSON body.
fn parse_str_field(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let pos = body.find(&marker)?;
    let after = &body[pos + marker.len()..];
    let end = after.find('"')?;
    Some(after[..end].to_owned())
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

    #[test]
    fn str_field_parser_extracts_promote_response() {
        let body = r#"{"status":"promoted","serve_addr":"127.0.0.1:4071"}"#;
        assert_eq!(
            parse_str_field(body, "serve_addr").as_deref(),
            Some("127.0.0.1:4071")
        );
        assert_eq!(parse_str_field(body, "status").as_deref(), Some("promoted"));
        assert_eq!(parse_str_field(body, "missing"), None);
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
        use crate::telem::ROUTER_TRACE_ORIGIN;
        use sitw_telemetry::{LifecycleEvent, SpanEvent, TRACE_MARK};
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
