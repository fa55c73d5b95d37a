//! Warm-standby follower mode: `sitw-serve --follow PRIMARY`.
//!
//! A follower holds no shards and serves no decisions. It pulls the
//! primary's replication stream — a chunked full sync first, then
//! per-round deltas of whatever mutated ([`crate::wire::FRAME_REPL_SYNC`]
//! / [`crate::wire::FRAME_REPL_DELTA`] / [`crate::wire::FRAME_REPL_COMMIT`])
//! — and accumulates the complete [`Snapshot`] in memory. Promotion
//! (operator `POST /admin/promote`, the router's supervised failover, or
//! the optional dead-primary auto policy) hands that snapshot straight to
//! [`Server::start`] via [`ServeConfig::restore_snapshot`]: the restored
//! primary rides the same partition/restore path the snapshot-parity
//! tests prove bit-identical, so a failed-over daemon emits exactly the
//! verdicts an uninterrupted one would (the paper's §6 hourly-backup
//! story, upgraded from restart recovery to hot standby).
//!
//! The follower's own listener is plain blocking thread-per-connection
//! HTTP — it answers `/healthz` (replication lag), `/metrics` (the
//! `sitw_serve_repl_*` families), `/debug/events`, and the two admin
//! verbs, all control-plane rates where a reactor would be overkill.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sitw_telemetry::{lock_unpoisoned, EventKind, EventRing, LifecycleEvent};

use crate::http::{write_response, ConnBuf, ReadOutcome, Reply, Request, MAX_BODY_BYTES};
use crate::metrics::{ConnStats, MetricsReport, ProtoStats, ReplStats};
use crate::server::{ServeConfig, Server};
use crate::snapshot::{apply_delta, Snapshot};
use crate::wire::{self, ServerFrameDecode};

/// Capacity of the follower's lifecycle event ring.
const FOLLOW_EVENT_RING: usize = 256;

/// Follower configuration.
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// Bind address of the follower's control listener (health, metrics,
    /// events, promote/shutdown); use port 0 to let the OS choose.
    pub addr: String,
    /// The primary's serve address (the replication stream shares the
    /// primary's main port).
    pub primary_addr: String,
    /// Delay between replication pulls.
    pub pull_interval: Duration,
    /// Connect/read/write deadline on each pull, so a hung primary
    /// surfaces as a counted failure instead of a stuck puller.
    pub pull_timeout: Duration,
    /// When set, the follower promotes itself once the primary has been
    /// unreachable for at least this long (and three consecutive pulls
    /// failed). `None` (supervised mode) waits for `/admin/promote`.
    pub auto_promote_after: Option<Duration>,
    /// Template for the server started at promotion. Its `addr` is the
    /// *serve* address (default port 0 — the promote response reports
    /// what was bound); `restore_snapshot` is overwritten with the
    /// accumulated replica state.
    pub serve: ServeConfig,
}

impl Default for FollowConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            primary_addr: "127.0.0.1:7071".into(),
            pull_interval: Duration::from_millis(100),
            pull_timeout: Duration::from_secs(2),
            auto_promote_after: None,
            serve: ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..ServeConfig::default()
            },
        }
    }
}

/// One replication round reassembled from chunk frames, ready to apply.
#[derive(Debug, PartialEq, Eq)]
struct CommittedRound {
    epoch: u64,
    /// `true` when the chunks were a full sync, `false` for a delta.
    /// Meaningless for a lone commit (empty `doc`).
    full_sync: bool,
    doc: Vec<u8>,
}

/// Incremental reassembly of one replication round from its frames.
/// Chunks must arrive in sequence order and agree on kind and epoch —
/// anything else is a protocol error that forces a resync.
#[derive(Debug, Default)]
struct RoundAssembler {
    doc: Vec<u8>,
    next_seq: u32,
    full_sync: Option<bool>,
    epoch: Option<u64>,
}

impl RoundAssembler {
    /// Absorbs the next frame of the stream. Returns the round once its
    /// commit frame arrives.
    fn absorb(&mut self, frame: Reply) -> Result<Option<CommittedRound>, String> {
        match frame {
            Reply::Frame(ServerFrameDecode::ReplChunk {
                full_sync,
                epoch,
                seq,
                data,
                ..
            }) => {
                if seq != self.next_seq {
                    return Err(format!("chunk seq {seq}, expected {}", self.next_seq));
                }
                if self.full_sync.is_some_and(|f| f != full_sync)
                    || self.epoch.is_some_and(|e| e != epoch)
                {
                    return Err("mixed kinds or epochs within one round".into());
                }
                self.full_sync = Some(full_sync);
                self.epoch = Some(epoch);
                self.next_seq += 1;
                self.doc.extend_from_slice(&data);
                Ok(None)
            }
            Reply::Frame(ServerFrameDecode::ReplCommit { epoch, .. }) => {
                if self.epoch.is_some_and(|e| e != epoch) {
                    return Err("commit epoch does not match its chunks".into());
                }
                let round = CommittedRound {
                    epoch,
                    full_sync: self.full_sync.unwrap_or(false),
                    doc: std::mem::take(&mut self.doc),
                };
                *self = Self::default();
                Ok(Some(round))
            }
            other => Err(format!("unexpected frame in replication stream: {other:?}")),
        }
    }
}

/// The accumulated replica.
#[derive(Debug, Default)]
struct ReplicaState {
    snap: Option<Snapshot>,
    epoch: u64,
}

impl ReplicaState {
    /// Applies one committed round. Returns the number of app records
    /// the round carried. Any error leaves `epoch` reset to 0, which
    /// makes the next ack request a full sync.
    fn apply(&mut self, round: CommittedRound) -> Result<u64, String> {
        let result = self.try_apply(round);
        if result.is_err() {
            self.epoch = 0;
        }
        result
    }

    fn try_apply(&mut self, round: CommittedRound) -> Result<u64, String> {
        if round.doc.is_empty() {
            // Lone commit: nothing mutated. The epoch must be the one we
            // already hold, or primary and follower have diverged.
            if round.epoch != self.epoch {
                return Err(format!(
                    "clean commit for epoch {} but replica holds {}",
                    round.epoch, self.epoch
                ));
            }
            return Ok(0);
        }
        let text = std::str::from_utf8(&round.doc).map_err(|_| "round is not UTF-8".to_owned())?;
        if round.full_sync {
            let snap = Snapshot::decode(text)?;
            let apps = count_apps(&snap);
            self.snap = Some(snap);
            self.epoch = round.epoch;
            Ok(apps)
        } else {
            let delta = Snapshot::decode_delta(text)?;
            let base = self
                .snap
                .as_mut()
                .ok_or_else(|| "delta round before any full sync".to_owned())?;
            let apps = count_apps(&delta);
            apply_delta(base, delta);
            self.epoch = round.epoch;
            Ok(apps)
        }
    }
}

fn count_apps(snap: &Snapshot) -> u64 {
    snap.apps.len() as u64
        + snap
            .tenants
            .iter()
            .map(|t| t.apps.len() as u64)
            .sum::<u64>()
}

/// Mutable follower state under one lock (control-plane rates only).
#[derive(Debug, Default)]
struct FollowShared {
    replica: ReplicaState,
    rounds: u64,
    full_syncs: u64,
    apps_applied: u64,
    bytes_received: u64,
    /// When the last round committed (any kind, including clean).
    last_commit: Option<Instant>,
    consecutive_failures: u64,
    /// The promoted server's serve address, once promotion happened.
    promoted: Option<SocketAddr>,
}

struct FollowCtx {
    cfg: FollowConfig,
    addr: SocketAddr,
    started: Instant,
    shutdown: AtomicBool,
    shared: Mutex<FollowShared>,
    /// The server started at promotion. Locked before `shared`
    /// everywhere both are taken, so promotion cannot deadlock.
    server: Mutex<Option<Server>>,
    events: Mutex<EventRing>,
}

impl FollowCtx {
    fn lock_shared(&self) -> std::sync::MutexGuard<'_, FollowShared> {
        lock_unpoisoned(&self.shared)
    }

    fn push_event(&self, kind: EventKind, detail: String) {
        EventRing::try_push(&self.events, || LifecycleEvent {
            ts_ms: self.started.elapsed().as_millis() as u64,
            kind,
            tenant: String::new(),
            app: String::new(),
            detail,
        });
    }

    /// The current replication status, as served on `/healthz`.
    fn status(&self) -> FollowStatus {
        let shared = self.lock_shared();
        FollowStatus {
            epoch: shared.replica.epoch,
            rounds: shared.rounds,
            full_syncs: shared.full_syncs,
            apps_applied: shared.apps_applied,
            bytes_received: shared.bytes_received,
            lag_ms: shared
                .last_commit
                .map_or_else(|| self.started.elapsed(), |t| t.elapsed())
                .as_millis() as u64,
            consecutive_failures: shared.consecutive_failures,
            apps: shared.replica.snap.as_ref().map_or(0, count_apps),
            promoted: shared.promoted,
        }
    }

    /// Promotes the accumulated replica into a serving primary.
    /// Idempotent: a second call returns the already-bound serve
    /// address. `reason` lands in the lifecycle event's detail.
    fn promote(&self, reason: &str) -> Result<SocketAddr, String> {
        let mut server_slot = lock_unpoisoned(&self.server);
        if let Some(addr) = self.lock_shared().promoted {
            return Ok(addr);
        }
        let (snap, epoch) = {
            let shared = self.lock_shared();
            (shared.replica.snap.clone(), shared.replica.epoch)
        };
        let mut cfg = self.cfg.serve.clone();
        if let Some(s) = &snap {
            if s.policy_label != cfg.policy.label() {
                return Err(format!(
                    "replica policy '{}' does not match configured '{}'",
                    s.policy_label,
                    cfg.policy.label()
                ));
            }
        }
        cfg.restore_snapshot = snap;
        let server = Server::start(cfg).map_err(|e| format!("promotion failed: {e}"))?;
        let addr = server.addr();
        *server_slot = Some(server);
        self.lock_shared().promoted = Some(addr);
        self.push_event(
            EventKind::Promotion,
            format!("epoch {epoch}, serving on {addr} ({reason})"),
        );
        Ok(addr)
    }
}

/// Point-in-time follower status (the `/healthz` fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowStatus {
    /// Replication epoch the replica holds (0 = nothing synced yet).
    pub epoch: u64,
    /// Rounds applied (including clean commits).
    pub rounds: u64,
    /// Full syncs applied.
    pub full_syncs: u64,
    /// App records applied across all rounds.
    pub apps_applied: u64,
    /// Document bytes received across all rounds.
    pub bytes_received: u64,
    /// Milliseconds since the last committed round (time since start
    /// when no round ever committed) — the replication lag bound.
    pub lag_ms: u64,
    /// Consecutive failed pulls (0 after any success).
    pub consecutive_failures: u64,
    /// App records currently held in the replica.
    pub apps: u64,
    /// The promoted server's serve address, once promoted.
    pub promoted: Option<SocketAddr>,
}

/// A running warm standby.
pub struct Follower {
    ctx: Arc<FollowCtx>,
    listener: Option<JoinHandle<()>>,
    puller: Option<JoinHandle<()>>,
}

impl Follower {
    /// Binds the control listener and starts pulling from the primary.
    pub fn start(cfg: FollowConfig) -> io::Result<Follower> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // sitw-lint: allow(clock-discipline)
        let started = Instant::now();
        let ctx = Arc::new(FollowCtx {
            cfg,
            addr,
            started,
            shutdown: AtomicBool::new(false),
            shared: Mutex::new(FollowShared::default()),
            server: Mutex::new(None),
            events: Mutex::new(EventRing::new(FOLLOW_EVENT_RING)),
        });
        let listener_ctx = Arc::clone(&ctx);
        let listener = std::thread::Builder::new()
            .name("sitw-follow-listener".into())
            .spawn(move || listen_loop(listener, listener_ctx))?;
        let puller_ctx = Arc::clone(&ctx);
        let puller = std::thread::Builder::new()
            .name("sitw-follow-puller".into())
            .spawn(move || pull_loop(puller_ctx))?;
        Ok(Follower {
            ctx,
            listener: Some(listener),
            puller: Some(puller),
        })
    }

    /// The control listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The current replication status.
    pub fn status(&self) -> FollowStatus {
        self.ctx.status()
    }

    /// Promotes the replica into a serving primary (in-process
    /// equivalent of `POST /admin/promote`); returns the serve address.
    pub fn promote(&self) -> Result<SocketAddr, String> {
        self.ctx.promote("operator request")
    }

    /// True once a shutdown was requested (`POST /admin/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a shutdown is requested.
    pub fn wait(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Stops the follower. When it was promoted, the inner server shuts
    /// down gracefully and its final snapshot is returned; otherwise the
    /// accumulated replica (if any) is.
    pub fn shutdown(mut self) -> io::Result<Option<Snapshot>> {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.ctx.addr);
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.puller.take() {
            let _ = handle.join();
        }
        let server = lock_unpoisoned(&self.ctx.server).take();
        match server {
            Some(server) => server.shutdown().map(Some),
            None => Ok(self.ctx.lock_shared().replica.snap.take()),
        }
    }
}

/// The control listener: blocking thread-per-connection HTTP.
fn listen_loop(listener: TcpListener, ctx: Arc<FollowCtx>) {
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_ctx = Arc::clone(&ctx);
        let _ = std::thread::Builder::new()
            .name("sitw-follow-conn".into())
            .spawn(move || serve_conn(stream, conn_ctx));
    }
}

fn serve_conn(stream: TcpStream, ctx: Arc<FollowCtx>) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut conn = ConnBuf::new(stream);
    let mut out = Vec::new();
    loop {
        match conn.read_request() {
            Ok(ReadOutcome::Request(req)) => {
                out.clear();
                handle_follow_control(&req, &ctx, &mut out);
                if conn.stream().write_all(&out).is_err() {
                    return;
                }
                if req.close {
                    return;
                }
            }
            Ok(ReadOutcome::Timeout) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(ReadOutcome::BodyTooLarge { .. }) => {
                // The body was never read, so the stream cannot be
                // resynchronized: 413, then discard what is still in
                // flight so the close is a FIN, not an RST that destroys
                // the response.
                out.clear();
                write_response(
                    &mut out,
                    413,
                    "application/json",
                    b"{\"error\":\"payload too large\"}",
                );
                if conn.stream().write_all(&out).is_ok() {
                    conn.drain_for_close(2 * MAX_BODY_BYTES);
                }
                return;
            }
            Ok(ReadOutcome::Eof) | Err(_) => return,
        }
    }
}

/// The follower's control endpoints.
fn handle_follow_control(req: &Request, ctx: &FollowCtx, out: &mut Vec<u8>) {
    use std::fmt::Write as _;
    let path = req
        .path
        .split_once('?')
        .map_or(req.path.as_str(), |(p, _)| p);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let s = ctx.status();
            let mut body = String::with_capacity(192);
            let _ = write!(
                body,
                "{{\"status\":\"{}\",\"epoch\":{},\"lag_ms\":{},\"rounds\":{},\
                 \"full_syncs\":{},\"apps\":{},\"failures\":{},\"primary\":\"{}\"",
                if s.promoted.is_some() {
                    "promoted"
                } else {
                    "following"
                },
                s.epoch,
                s.lag_ms,
                s.rounds,
                s.full_syncs,
                s.apps,
                s.consecutive_failures,
                wire::json_escape(&ctx.cfg.primary_addr),
            );
            if let Some(addr) = s.promoted {
                let _ = write!(body, ",\"serve_addr\":\"{addr}\"");
            }
            body.push('}');
            write_response(out, 200, "application/json", body.as_bytes());
        }
        ("GET", "/metrics") => {
            // The standard report shape with no shards or reactors: the
            // repl families render from the same table the primary uses,
            // so scrape configs need no special case.
            let s = ctx.status();
            let report = MetricsReport {
                shards: Vec::new(),
                reactors: Vec::new(),
                proto: ProtoStats {
                    frames: 0,
                    batched_decisions: 0,
                    proto_errors: 0,
                    control_frames: 0,
                },
                conns: ConnStats {
                    live: 0,
                    accepted: 0,
                    peak: 0,
                    reactor_threads: 0,
                },
                repl: ReplStats {
                    epoch: s.epoch,
                    rounds: s.rounds,
                    full_syncs: s.full_syncs,
                    apps_streamed: s.apps_applied,
                    bytes_streamed: s.bytes_received,
                    lag_ms: s.lag_ms,
                },
                uptime_ms: ctx.started.elapsed().as_millis() as u64,
            };
            write_response(
                out,
                200,
                "text/plain; version=0.0.4",
                report.render().as_bytes(),
            );
        }
        ("GET", "/debug/events") => {
            let body = EventRing::snapshot_json(&ctx.events);
            write_response(out, 200, "application/json", body.as_bytes());
        }
        ("POST", "/admin/promote") => match ctx.promote("operator request") {
            Ok(addr) => {
                let body = format!("{{\"status\":\"promoted\",\"serve_addr\":\"{addr}\"}}");
                write_response(out, 200, "application/json", body.as_bytes());
            }
            Err(e) => {
                let body = format!("{{\"error\":\"{}\"}}", wire::json_escape(&e));
                write_response(out, 500, "application/json", body.as_bytes());
            }
        },
        ("POST", "/admin/shutdown") => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(ctx.addr);
            write_response(out, 200, "application/json", b"{\"status\":\"stopping\"}");
        }
        (_, "/healthz" | "/metrics" | "/debug/events" | "/admin/promote" | "/admin/shutdown") => {
            write_response(
                out,
                405,
                "application/json",
                b"{\"error\":\"method not allowed\"}",
            );
        }
        _ => {
            write_response(out, 404, "application/json", b"{\"error\":\"not found\"}");
        }
    }
}

/// The pull loop: one ack → round exchange per interval over a
/// persistent connection, reconnecting (and counting failures) on any
/// error. Stops at shutdown or promotion.
fn pull_loop(ctx: Arc<FollowCtx>) {
    let mut conn: Option<ConnBuf> = None;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) || ctx.lock_shared().promoted.is_some() {
            return;
        }
        match pull_once(&ctx, &mut conn) {
            Ok(()) => {
                ctx.lock_shared().consecutive_failures = 0;
            }
            Err(_) => {
                conn = None;
                let failures = {
                    let mut shared = ctx.lock_shared();
                    shared.consecutive_failures += 1;
                    shared.consecutive_failures
                };
                maybe_auto_promote(&ctx, failures);
            }
        }
        // Sleep in slices so shutdown/promotion is honored promptly.
        let mut remaining = ctx.cfg.pull_interval;
        while !remaining.is_zero() {
            if ctx.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

/// Promotes when the auto policy says the primary is dead: at least
/// three consecutive pulls failed *and* nothing has committed for the
/// configured window.
fn maybe_auto_promote(ctx: &FollowCtx, failures: u64) {
    let Some(window) = ctx.cfg.auto_promote_after else {
        return;
    };
    if failures < 3 {
        return;
    }
    let silent_for = {
        let shared = ctx.lock_shared();
        shared
            .last_commit
            .map_or_else(|| ctx.started.elapsed(), |t| t.elapsed())
    };
    if silent_for < window {
        return;
    }
    ctx.push_event(
        EventKind::NodeDown,
        format!(
            "primary {} unreachable for {}ms ({failures} failed pulls)",
            ctx.cfg.primary_addr,
            silent_for.as_millis()
        ),
    );
    if let Err(e) = ctx.promote("auto policy: primary unreachable") {
        ctx.push_event(EventKind::Failover, format!("auto-promotion failed: {e}"));
    }
}

/// One pull: send the ack, reassemble the round, apply it.
fn pull_once(ctx: &FollowCtx, conn: &mut Option<ConnBuf>) -> Result<(), String> {
    let timeout = ctx.cfg.pull_timeout;
    if conn.is_none() {
        let addr = ctx
            .cfg
            .primary_addr
            .to_socket_addrs()
            .map_err(|e| format!("resolve {}: {e}", ctx.cfg.primary_addr))?
            .next()
            .ok_or_else(|| format!("resolve {}: no address", ctx.cfg.primary_addr))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| format!("socket setup: {e}"))?;
        *conn = Some(ConnBuf::new(stream));
    }
    let conn = conn.as_mut().expect("just connected");

    let epoch = ctx.lock_shared().replica.epoch;
    let mut ack = Vec::with_capacity(wire::BIN_HEADER_LEN + 8);
    wire::encode_repl_ack(&mut ack, epoch);
    conn.stream()
        .write_all(&ack)
        .map_err(|e| format!("send ack: {e}"))?;

    let mut assembler = RoundAssembler::default();
    // sitw-lint: allow(clock-discipline)
    let deadline = Instant::now() + timeout;
    let round = loop {
        // The socket deadline bounds each read; this one bounds a
        // primary that keeps trickling frames without ever committing.
        // sitw-lint: allow(clock-discipline)
        if Instant::now() > deadline {
            return Err("pull timed out mid-round".into());
        }
        let frame = conn.read_reply().and_then(Reply::owed);
        if let Some(round) = assembler.absorb(frame.map_err(|e| format!("read: {e}"))?)? {
            break round;
        }
    };

    let full_sync = round.full_sync && !round.doc.is_empty();
    let bytes = round.doc.len() as u64;
    let (applied, new_epoch) = {
        let mut shared = ctx.lock_shared();
        let applied = shared.replica.apply(round)?;
        shared.rounds += 1;
        shared.full_syncs += u64::from(full_sync);
        shared.apps_applied += applied;
        shared.bytes_received += bytes;
        // sitw-lint: allow(clock-discipline)
        shared.last_commit = Some(Instant::now());
        (applied, shared.replica.epoch)
    };
    if full_sync {
        ctx.push_event(
            EventKind::ReplSync,
            format!("epoch {new_epoch}, {applied} apps, {bytes} bytes"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{AppRecord, PolicyState};
    use sitw_core::Windows;

    fn snap_with(apps: &[(&str, u64)]) -> Snapshot {
        Snapshot {
            policy_label: "fixed-10min".into(),
            prod_clock: None,
            apps: apps
                .iter()
                .map(|(name, ts)| AppRecord {
                    app: (*name).to_owned(),
                    last_ts: *ts,
                    windows: Windows::keep_loaded(600_000),
                    evicted: false,
                    state: PolicyState::Stateless,
                })
                .collect(),
            default_ledger: Default::default(),
            tenants: Vec::new(),
        }
    }

    /// Reads frames off `conn` into `asm` until the round commits
    /// (`Some`) or the socket runs dry (`None`).
    fn pump(conn: &mut ConnBuf, asm: &mut RoundAssembler) -> Option<CommittedRound> {
        loop {
            match conn.read_reply().unwrap() {
                Reply::Timeout => return None,
                frame => {
                    if let Some(round) = asm.absorb(frame).unwrap() {
                        return Some(round);
                    }
                }
            }
        }
    }

    #[test]
    fn assembler_reassembles_chunked_rounds_at_any_split() {
        let doc = vec![0xABu8; wire::REPL_CHUNK_BYTES + 100];
        let mut out = Vec::new();
        wire::encode_repl_round(&mut out, wire::FRAME_REPL_SYNC, 5, &doc);
        // The stream arrives in two arbitrary pieces at every boundary
        // that matters (frame edges and mid-payload); the bytes are
        // reassembled by the shared reply reader, the round by the
        // assembler.
        for cut in [1, wire::BIN_HEADER_LEN, out.len() / 2, out.len() - 1] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut primary = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (follower, _) = listener.accept().unwrap();
            follower
                .set_read_timeout(Some(Duration::from_millis(30)))
                .unwrap();
            let mut conn = ConnBuf::new(follower);
            let mut asm = RoundAssembler::default();
            // The pieces outgrow a socket buffer, so the writer runs
            // beside the reader; the channel holds the tail back until
            // the head has been read dry.
            let (head, tail) = (out[..cut].to_vec(), out[cut..].to_vec());
            let (go, wait) = std::sync::mpsc::channel::<()>();
            let writer = std::thread::spawn(move || {
                primary.write_all(&head).unwrap();
                wait.recv().unwrap();
                primary.write_all(&tail).unwrap();
                primary
            });
            assert!(pump(&mut conn, &mut asm).is_none(), "cut {cut}");
            go.send(()).unwrap();
            let round = loop {
                if let Some(round) = pump(&mut conn, &mut asm) {
                    break round;
                }
            };
            assert_eq!(round.epoch, 5);
            assert!(round.full_sync);
            assert_eq!(round.doc, doc);
            drop(writer.join().unwrap());
        }
    }

    #[test]
    fn assembler_rejects_out_of_order_chunks() {
        let mut out = Vec::new();
        wire::encode_repl_chunk(&mut out, wire::FRAME_REPL_DELTA, 2, 1, true, b"x");
        let chunk = Reply::Frame(wire::decode_server_frame(&out));
        assert!(RoundAssembler::default().absorb(chunk).is_err());
    }

    #[test]
    fn control_listener_answers_oversized_body_with_413() {
        // No primary is listening there; failed pulls are just counted.
        let follower = Follower::start(FollowConfig {
            primary_addr: "127.0.0.1:1".into(),
            ..FollowConfig::default()
        })
        .unwrap();
        let mut client = crate::Client::connect(follower.addr()).unwrap();
        client
            .send(b"POST /admin/promote HTTP/1.1\r\ncontent-length: 1099511627776\r\n\r\n")
            .unwrap();
        // Part of the declared body is in flight when the 413 goes out:
        // the listener must absorb it, or its close resets the response.
        client.send(&vec![b'x'; 256 * 1024]).unwrap();
        let response = client.response().unwrap();
        assert_eq!(response.0, 413, "{response:?}");
        assert!(client
            .conn()
            .reply_raw()
            .starts_with(b"HTTP/1.1 413 Payload Too Large\r\n"));
        // ...and then a FIN, not a reset.
        assert!(matches!(client.conn().read_reply().unwrap(), Reply::Eof));
        follower.shutdown().unwrap();
    }

    #[test]
    fn replica_applies_sync_then_delta_then_clean_commit() {
        let mut replica = ReplicaState::default();
        // Full sync at epoch 1.
        let full = snap_with(&[("a", 10), ("b", 20)]);
        let applied = replica
            .apply(CommittedRound {
                epoch: 1,
                full_sync: true,
                doc: full.encode().into_bytes(),
            })
            .unwrap();
        assert_eq!(applied, 2);
        assert_eq!(replica.epoch, 1);
        // Delta at epoch 2: app b mutated, app c appeared.
        let delta = snap_with(&[("b", 99), ("c", 30)]);
        replica
            .apply(CommittedRound {
                epoch: 2,
                full_sync: false,
                doc: delta.encode_delta().into_bytes(),
            })
            .unwrap();
        assert_eq!(replica.epoch, 2);
        let snap = replica.snap.as_ref().unwrap();
        let got: Vec<(&str, u64)> = snap
            .apps
            .iter()
            .map(|a| (a.app.as_str(), a.last_ts))
            .collect();
        assert_eq!(got, vec![("a", 10), ("b", 99), ("c", 30)]);
        // Clean commit at the held epoch: a no-op.
        replica
            .apply(CommittedRound {
                epoch: 2,
                full_sync: false,
                doc: Vec::new(),
            })
            .unwrap();
        assert_eq!(replica.epoch, 2);
    }

    #[test]
    fn replica_divergence_forces_resync() {
        let mut replica = ReplicaState::default();
        // A delta before any sync is divergence.
        let delta = snap_with(&[("a", 1)]);
        assert!(replica
            .apply(CommittedRound {
                epoch: 3,
                full_sync: false,
                doc: delta.encode_delta().into_bytes(),
            })
            .is_err());
        assert_eq!(replica.epoch, 0, "error resets to full-sync request");
        // So is a clean commit for an epoch we do not hold.
        assert!(replica
            .apply(CommittedRound {
                epoch: 7,
                full_sync: false,
                doc: Vec::new(),
            })
            .is_err());
        assert_eq!(replica.epoch, 0);
    }
}
