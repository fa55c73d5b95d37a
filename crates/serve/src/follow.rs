//! Warm standby: `sitw-serve --follow PRIMARY`.
//!
//! A standby is a node. [`crate::Server::start`] with a
//! [`crate::ServeConfig::follow`] section binds the same listener,
//! reactor pool and shards as a primary and attaches a pull loop to them.
//! The loop pulls the primary's replication stream — a chunked full sync
//! first, then per-round deltas of whatever mutated
//! (`wire::FRAME_REPL_SYNC` / `wire::FRAME_REPL_DELTA` /
//! `wire::FRAME_REPL_COMMIT`) — and accumulates the complete
//! [`Snapshot`] in memory. Each chunk goes through a [`Decoder`] as it
//! arrives, so no round is ever held as text.
//!
//! Until promotion the node's gate is closed. The decision path reads it
//! once per read burst or frame and answers a JSON `/invoke` with 503 and
//! a SITW-BIN frame or replication pull with a
//! [`wire::BinErrorCode::Unavailable`] error frame; the tenant, snapshot,
//! usage and budget admin verbs get 503 too. `/healthz` (replication lag),
//! `/metrics` (whose `sitw_serve_repl_*` families count what was
//! pulled), `/debug/*` and `/admin/shutdown` answer as on any node.
//!
//! Promotion (operator `POST /admin/promote`, or the router's
//! `POST /admin/ring/failover` calling it) restores the
//! replica through the pipeline a restarting node restores its snapshot
//! file through (`crate::restore`), which the snapshot-parity tests
//! prove bit-identical; only once every shard's tenants are built does
//! it replace each shard's whole tenant set, under that shard's lock, and
//! open the gate on the same address. A failed-over daemon
//! therefore emits exactly the verdicts an uninterrupted one would (the
//! paper's §6 hourly-backup story, upgraded from restart recovery to hot
//! standby).

use std::fmt::Write as _;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sitw_telemetry::{lock_unpoisoned, EventKind, Gate};

use crate::http::{ConnBuf, Reply};
use crate::metrics::ReplStats;
use crate::restore;
use crate::server::ServerCtx;
use crate::snapshot::{apply_delta, Decoder, Snapshot};
use crate::wire::{self, ServerFrameDecode};

/// What a standby answers in place of a decision or a mutation.
pub(crate) const NOT_PROMOTED: &str = "standby: not promoted";

/// Connect/read/write deadline on each pull, so a hung primary surfaces
/// as a counted failure instead of a stuck puller.
const PULL_TIMEOUT: Duration = Duration::from_secs(2);

/// The follow section of a [`crate::ServeConfig`].
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// The primary's serve address (the replication stream shares the
    /// primary's main port).
    pub primary_addr: String,
    /// Delay between replication pulls.
    pub pull_interval: Duration,
}

impl Default for FollowConfig {
    fn default() -> Self {
        Self {
            primary_addr: "127.0.0.1:7071".into(),
            pull_interval: Duration::from_millis(100),
        }
    }
}

/// One replication round decoded from its chunk frames, ready to apply.
#[derive(Debug, PartialEq)]
struct CommittedRound {
    epoch: u64,
    /// `true` when the chunks were a full sync, `false` for a delta.
    /// Meaningless for a lone commit.
    full_sync: bool,
    /// Document bytes the chunks carried.
    bytes: u64,
    /// The decoded document, `None` for a lone commit (no chunks).
    doc: Result<Option<Snapshot>, String>,
}

/// Incremental decoding of one replication round from its frames: each
/// chunk goes through a [`Decoder`] for the round's kind as it arrives.
/// Chunks must arrive in sequence order and agree on kind and epoch —
/// anything else is a protocol error that forces a resync. A document
/// that does not decode is the round's `doc` error, applied (and
/// refused) like any other.
#[derive(Debug, Default)]
struct RoundAssembler {
    decoder: Option<Decoder>,
    bytes: u64,
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
                self.bytes += data.len() as u64;
                let decoder = self.decoder.get_or_insert_with(|| {
                    if full_sync {
                        Decoder::snapshot()
                    } else {
                        Decoder::delta()
                    }
                });
                // A decode error stays in the decoder until the commit.
                let _ = decoder.feed(&data);
                Ok(None)
            }
            Reply::Frame(ServerFrameDecode::ReplCommit { epoch, .. }) => {
                if self.epoch.is_some_and(|e| e != epoch) {
                    return Err("commit epoch does not match its chunks".into());
                }
                let round = CommittedRound {
                    epoch,
                    full_sync: self.full_sync.unwrap_or(false),
                    bytes: self.bytes,
                    doc: self.decoder.take().map(Decoder::finish).transpose(),
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
        let Some(doc) = round.doc? else {
            // Lone commit: nothing mutated. The epoch must be the one we
            // already hold, or primary and follower have diverged.
            if round.epoch != self.epoch {
                return Err(format!(
                    "clean commit for epoch {} but replica holds {}",
                    round.epoch, self.epoch
                ));
            }
            return Ok(0);
        };
        let apps = doc.app_count();
        if round.full_sync {
            self.snap = Some(doc);
        } else {
            let base = self
                .snap
                .as_mut()
                .ok_or_else(|| "delta round before any full sync".to_owned())?;
            apply_delta(base, doc);
        }
        self.epoch = round.epoch;
        Ok(apps)
    }
}

/// Pull state under one lock (control-plane rates only).
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
}

/// A standby's follow section at run time, shared by the pull loop and
/// the control path.
pub(crate) struct Follow {
    pub(crate) cfg: FollowConfig,
    /// The gate: set until promotion. Cleared with `Release` after the
    /// shards and the registry hold the replica, read with `Acquire`, so
    /// a reactor that finds it open routes against the restored state.
    following: AtomicBool,
    /// Also serializes promotions: the first lock in the server's lock
    /// order, held while promotion takes the shards and the registry.
    shared: Mutex<FollowShared>,
}

/// Point-in-time standby status (the `/healthz` fields).
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
    /// App records currently held in the replica (0 once promoted).
    pub apps: u64,
    /// The node promoted: its gate is open.
    pub promoted: bool,
}

impl Follow {
    pub(crate) fn new(cfg: FollowConfig) -> Follow {
        Follow {
            cfg,
            following: AtomicBool::new(true),
            shared: Mutex::default(),
        }
    }

    pub(crate) fn following(&self) -> bool {
        self.following.load(Ordering::Acquire)
    }

    fn lock(&self) -> MutexGuard<'_, FollowShared> {
        lock_unpoisoned(&self.shared)
    }

    pub(crate) fn status(&self, started: Instant) -> FollowStatus {
        let shared = self.lock();
        FollowStatus {
            epoch: shared.replica.epoch,
            rounds: shared.rounds,
            full_syncs: shared.full_syncs,
            apps_applied: shared.apps_applied,
            bytes_received: shared.bytes_received,
            lag_ms: shared.last_commit.unwrap_or(started).elapsed().as_millis() as u64,
            consecutive_failures: shared.consecutive_failures,
            apps: shared.replica.snap.as_ref().map_or(0, Snapshot::app_count),
            promoted: !self.following(),
        }
    }

    /// The replica, taken for an unpromoted standby's shutdown.
    pub(crate) fn take_replica(&self) -> Option<Snapshot> {
        self.lock().replica.snap.take()
    }

    /// Appends the standby's `/healthz` fields to a JSON object body.
    pub(crate) fn write_health(&self, started: Instant, body: &mut Vec<u8>) {
        let s = self.status(started);
        let _ = write!(
            body,
            ",\"primary\":\"{}\",\"epoch\":{},\"lag_ms\":{},\"rounds\":{},\"full_syncs\":{},\
             \"apps\":{},\"failures\":{}",
            wire::json_escape(&self.cfg.primary_addr),
            s.epoch,
            s.lag_ms,
            s.rounds,
            s.full_syncs,
            s.apps,
            s.consecutive_failures,
        );
    }
}

impl FollowStatus {
    /// What was pulled, in the shape a primary reports what it serves.
    pub(crate) fn repl_stats(&self) -> ReplStats {
        ReplStats {
            epoch: self.epoch,
            rounds: self.rounds,
            full_syncs: self.full_syncs,
            apps_streamed: self.apps_applied,
            bytes_streamed: self.bytes_received,
            lag_ms: self.lag_ms,
        }
    }
}

/// Promotes a standby in place: restores its replica (when it holds one)
/// into the running shards, each of which ends up holding exactly its
/// partition, swaps in the replica's tenant registry, and then opens the
/// gate. Idempotent: a promoted node answers `Ok` again. `reason` lands
/// in the lifecycle event's detail.
pub(crate) fn promote(ctx: &ServerCtx, reason: &str) -> Result<(), String> {
    let follow = ctx.follow.as_ref().ok_or("not a standby")?;
    let mut shared = follow.lock();
    if !follow.following() {
        return Ok(());
    }
    if let Some(snap) = &shared.replica.snap {
        // Every restored app is stamped past its shard's frontier, so it
        // rides the next replication round.
        let stamps = (0..ctx.shards.len())
            .map(|i| Ok(ctx.shard(i)?.restore_stamp()))
            .collect::<Result<Vec<_>, String>>()?;
        let (registry, tenants) = restore::from_replica(&ctx.cfg, snap.clone(), &stamps)?;
        for (i, tenants) in tenants.into_iter().enumerate() {
            ctx.shard(i)?.replace_tenants(tenants, stamps[i]);
        }
        *ctx.registry.write().unwrap_or_else(PoisonError::into_inner) = registry;
    }
    shared.replica.snap = None;
    follow.following.store(false, Ordering::Release);
    let (epoch, addr) = (shared.replica.epoch, ctx.pool.addr());
    let (telem, ts_ms) = (&ctx.telem, ctx.uptime_ms());
    telem.event(&telem.events, ts_ms, EventKind::Promotion, |ev| {
        let _ = write!(ev.detail, "epoch {epoch}, serving on {addr} ({reason})");
    });
    Ok(())
}

/// The pull loop: one ack → round exchange per interval over a
/// persistent connection, reconnecting (and counting failures) on any
/// error. Stops at shutdown or promotion.
pub(crate) fn pull_loop(ctx: &ServerCtx) {
    let Some(follow) = &ctx.follow else { return };
    let mut conn: Option<ConnBuf> = None;
    while follow.following() && !ctx.pool.shutting_down() {
        if pull_once(ctx, follow, &mut conn).is_ok() {
            follow.lock().consecutive_failures = 0;
        } else {
            conn = None;
            follow.lock().consecutive_failures += 1;
        }
        // Sleep in slices so shutdown is honored promptly.
        let mut remaining = follow.cfg.pull_interval;
        while !remaining.is_zero() && !ctx.pool.shutting_down() {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

/// One pull: send the ack, reassemble the round, apply it.
fn pull_once(ctx: &ServerCtx, follow: &Follow, conn: &mut Option<ConnBuf>) -> Result<(), String> {
    let primary = &follow.cfg.primary_addr;
    if conn.is_none() {
        let addr = primary
            .to_socket_addrs()
            .map_err(|e| format!("resolve {primary}: {e}"))?
            .next()
            .ok_or_else(|| format!("resolve {primary}: no address"))?;
        let stream = TcpStream::connect_timeout(&addr, PULL_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(PULL_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(PULL_TIMEOUT)))
            .map_err(|e| format!("socket setup: {e}"))?;
        *conn = Some(ConnBuf::new(stream));
    }
    let conn = conn.as_mut().ok_or("not connected")?;

    let mut ack = Vec::with_capacity(wire::BIN_HEADER_LEN + 8);
    wire::encode_repl_ack(&mut ack, follow.lock().replica.epoch);
    conn.stream()
        .write_all(&ack)
        .map_err(|e| format!("send ack: {e}"))?;

    let mut assembler = RoundAssembler::default();
    // sitw-lint: allow(clock-discipline)
    let deadline = Instant::now() + PULL_TIMEOUT;
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

    let full_sync = round.full_sync && matches!(round.doc, Ok(Some(_)));
    let bytes = round.bytes;
    let mut shared = follow.lock();
    if !follow.following() {
        return Ok(()); // Promoted meanwhile: the replica is spent.
    }
    let applied = shared.replica.apply(round)?;
    shared.rounds += 1;
    shared.full_syncs += u64::from(full_sync);
    shared.apps_applied += applied;
    shared.bytes_received += bytes;
    // sitw-lint: allow(clock-discipline)
    shared.last_commit = Some(Instant::now());
    let epoch = shared.replica.epoch;
    drop(shared);
    if full_sync {
        let (telem, ts_ms) = (&ctx.telem, ctx.uptime_ms());
        telem.event(&telem.events, ts_ms, EventKind::ReplSync, |ev| {
            let _ = write!(ev.detail, "epoch {epoch}, {applied} apps, {bytes} bytes");
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{AppRecord, PolicyState};
    use crate::wire::BinErrorCode;
    use crate::{Client, ServeConfig, Server, TenantConfig};
    use sitw_core::{PolicySpec, Windows};
    use std::net::TcpListener;
    use std::path::PathBuf;

    /// A standby of `primary` (nobody listens at port 1: every pull
    /// fails and is counted) over 2 shards and one reactor.
    fn standby_cfg(primary: &str, snapshot_path: Option<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            reactor_threads: 1,
            policy: PolicySpec::fixed_minutes(10),
            snapshot_path,
            follow: Some(FollowConfig {
                primary_addr: primary.into(),
                pull_interval: Duration::from_millis(15),
            }),
            ..ServeConfig::default()
        }
    }

    /// Waits until a round commits without bumping the epoch: the
    /// (quiescent) primary had nothing left to stream.
    fn wait_caught_up(standby: &Server) {
        let status = || standby.follow_status().unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut prev = status();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let s = status();
            if s.epoch > 0 && s.rounds > prev.rounds && s.epoch == prev.epoch {
                return;
            }
            assert!(Instant::now() < deadline, "standby never caught up: {s:?}");
            prev = s;
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sitw-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn control_listener_answers_oversized_body_with_413() {
        // The standby's one listener is the node's reactor.
        let standby = Server::start(standby_cfg("127.0.0.1:1", None)).unwrap();
        let mut client = Client::connect(standby.addr()).unwrap();
        client
            .send(b"POST /admin/promote HTTP/1.1\r\ncontent-length: 1099511627776\r\n\r\n")
            .unwrap();
        // Part of the declared body is in flight when the 413 goes out:
        // the node must absorb it, or its close resets the response.
        client.send(&vec![b'x'; 256 * 1024]).unwrap();
        let response = client.response().unwrap();
        assert_eq!(response.0, 413, "{response:?}");
        assert!(client
            .conn()
            .reply_raw()
            .starts_with(b"HTTP/1.1 413 Payload Too Large\r\n"));
        // ...and then a FIN, not a reset.
        assert!(matches!(client.conn().read_reply().unwrap(), Reply::Eof));
        assert!(!standby.follow_status().unwrap().promoted);
        standby.shutdown().unwrap();
    }

    #[test]
    fn standby_refuses_what_it_cannot_serve_until_promoted() {
        let standby = Server::start(ServeConfig {
            tenants: vec![TenantConfig {
                name: "t".into(),
                policy: PolicySpec::fixed_minutes(10),
                budget_mb: 0,
            }],
            ..standby_cfg("127.0.0.1:1", None)
        })
        .unwrap();
        let mut client = Client::connect(standby.addr()).unwrap();
        let (status, body) = client.invoke(None, "a", 1, None).unwrap();
        assert_eq!(
            (status, body.as_str()),
            (503, "{\"error\":\"standby: not promoted\"}")
        );
        let unavailable = |reply: Reply| {
            matches!(
                reply,
                Reply::Frame(ServerFrameDecode::Error {
                    code: BinErrorCode::Unavailable,
                    ..
                })
            )
        };
        let frame = client.batch(|f| wire::encode_request_frame_v2(f, &[(0, "a", 1)]));
        assert!(unavailable(frame.unwrap()), "a request frame");
        let pull = client.batch(|f| wire::encode_repl_ack(f, 0));
        assert!(unavailable(pull.unwrap()), "a replication pull");
        for (path, body) in [
            ("/admin/tenants", "t=fixed:10"),
            ("/admin/snapshot", ""),
            ("/admin/budgets", "t=64\n"),
        ] {
            let (status, text) = client.request("POST", path, body).unwrap();
            assert_eq!(status, 503, "{path}: {text}");
        }
        let (status, text) = client.request("GET", "/admin/usage", "").unwrap();
        assert_eq!(status, 503, "/admin/usage: {text}");
        for path in ["/healthz", "/metrics", "/debug/events", "/admin/tenants"] {
            let (status, text) = client.request("GET", path, "").unwrap();
            assert_eq!(status, 200, "{path}: {text}");
        }
        let (_, health) = client.request("GET", "/healthz", "").unwrap();
        assert!(health.contains("\"status\":\"following\""), "{health}");
        assert!(health.contains("\"full_syncs\":0,"), "{health}");

        // Promotion opens the gate on the same address, and again is a
        // no-op.
        for _ in 0..2 {
            let (status, body) = client.request("POST", "/admin/promote", "").unwrap();
            assert_eq!((status, body.as_str()), (200, "{\"status\":\"promoted\"}"));
        }
        let (status, body) = client.invoke(None, "a", 1, None).unwrap();
        assert_eq!(status, 200, "{body}");
        let (_, health) = client.request("GET", "/healthz", "").unwrap();
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        // The refused budget push applied nothing; the same push now does.
        let budget_of_t = |client: &mut Client| {
            let (status, body) = client.request("GET", "/admin/usage", "").unwrap();
            assert_eq!(status, 200, "{body}");
            let rows = wire::parse_usage(body.as_bytes()).unwrap();
            rows.iter().find(|u| u.name == "t").unwrap().budget_mb
        };
        assert_eq!(budget_of_t(&mut client), 0);
        let (status, body) = client.request("POST", "/admin/budgets", "t=64\n").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"applied\":1}"));
        assert_eq!(budget_of_t(&mut client), 64);
        let (status, _) = client.request("POST", "/admin/shutdown", "").unwrap();
        assert_eq!(status, 200);
        assert!(standby.shutdown_requested());
        assert_eq!(standby.shutdown().unwrap().apps.len(), 1);
    }

    #[test]
    fn unpromoted_standby_shuts_down_to_its_replica() {
        let dir = temp_dir("standby-shutdown");
        let primary = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(primary.addr()).unwrap();
        for (i, app) in ["x", "y", "z"].into_iter().enumerate() {
            assert_eq!(client.invoke(None, app, i as u64, None).unwrap().0, 200);
        }

        // Before its first sync a standby holds nothing worth writing.
        let never = dir.join("never.snap");
        let lone = Server::start(standby_cfg("127.0.0.1:1", Some(never.clone()))).unwrap();
        let (status, _) = Client::connect(lone.addr())
            .unwrap()
            .request("POST", "/admin/shutdown", "")
            .unwrap();
        assert_eq!(status, 200);
        assert!(lone.shutdown().unwrap().apps.is_empty());
        assert!(!never.exists(), "an unsynced standby wrote a snapshot");

        let path = dir.join("standby.snap");
        let standby = Server::start(standby_cfg(&primary.addr().to_string(), Some(path.clone())));
        let standby = standby.unwrap();
        wait_caught_up(&standby);
        let replica = standby.shutdown().unwrap();
        assert_eq!(replica, primary.snapshot().unwrap());
        assert_eq!(Snapshot::load(&path).unwrap(), replica);
        primary.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A promotion the replica cannot restore into — here the standby
    /// serves the replica's tenant under another policy — installs
    /// nothing: the standby keeps following, its shards and its replica
    /// as they were.
    #[test]
    fn a_refused_promotion_installs_nothing_and_keeps_following() {
        let tenant = |minutes| {
            vec![TenantConfig {
                name: "a".into(),
                policy: PolicySpec::fixed_minutes(minutes),
                budget_mb: 0,
            }]
        };
        let primary = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            tenants: tenant(10),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(primary.addr()).unwrap();
        for (i, app) in ["x", "y", "z"].into_iter().enumerate() {
            for name in [None, Some("a")] {
                assert_eq!(client.invoke(name, app, i as u64, None).unwrap().0, 200);
            }
        }
        let standby = Server::start(ServeConfig {
            shards: 3,
            tenants: tenant(20),
            ..standby_cfg(&primary.addr().to_string(), None)
        })
        .unwrap();
        wait_caught_up(&standby);
        let before = standby.snapshot().unwrap();
        let err = standby.promote().unwrap_err();
        assert!(err.contains("does not match configured"), "{err}");
        assert!(!standby.follow_status().unwrap().promoted);
        assert_eq!(standby.snapshot().unwrap(), before);
        assert_eq!(standby.shutdown().unwrap(), primary.snapshot().unwrap());
        primary.shutdown().unwrap();
    }

    #[test]
    fn promotion_leaves_no_ghost_tenant() {
        let tenant = |name: &str, minutes| TenantConfig {
            name: name.into(),
            policy: PolicySpec::fixed_minutes(minutes),
            budget_mb: 0,
        };
        let tenants = vec![tenant("a", 10), tenant("b", 20), tenant("c", 30)];
        let primary = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            tenants: tenants.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(primary.addr()).unwrap();
        for name in [None, Some("a"), Some("b"), Some("c")] {
            for k in 0..5u64 {
                let (status, body) = client.invoke(name, &format!("app-{k}"), k, None).unwrap();
                assert_eq!(status, 200, "{body}");
            }
        }

        // The standby lists the same tenants in another order, so until
        // promotion its ids are not the replica's.
        let cfg = ServeConfig {
            shards: 3,
            tenants: tenants.into_iter().rev().collect(),
            ..standby_cfg(&primary.addr().to_string(), None)
        };
        let standby = Server::start(cfg.clone()).unwrap();
        let before: Vec<(u16, String)> = (standby.snapshot().unwrap().tenants.iter())
            .map(|t| (t.id, t.name.clone()))
            .collect();
        assert_eq!(before[0], (1, "c".to_owned()));
        wait_caught_up(&standby);
        let replica = primary.shutdown().unwrap();
        assert_eq!(replica.tenants[0].name, "a");
        standby.promote().unwrap();

        // Every shard holds exactly its partition of the replica...
        use crate::restore_ref::{build_registry, partition_restore};
        let registry = build_registry(&cfg, Some(&replica)).unwrap();
        let partition = partition_restore(&registry, Some(replica.clone()), 3);
        for (stats, part) in standby.metrics().shards.iter().zip(&partition) {
            let held: Vec<(u16, &str)> = (stats.tenants.iter())
                .map(|t| (t.id, t.name.as_str()))
                .collect();
            let mut want: Vec<(u16, &str)> = (part.iter())
                .map(|r| (r.spec.id, r.spec.name.as_str()))
                .collect();
            want.sort_unstable();
            assert_eq!(held, want, "shard {}", stats.shard);
            let apps: usize = part.iter().map(|r| r.apps.len()).sum();
            assert_eq!(stats.apps, apps as u64, "shard {}", stats.shard);
        }
        // ...so each tenant appears once, under the replica's id.
        let (_, text) = Client::connect(standby.addr())
            .unwrap()
            .request("GET", "/metrics", "")
            .unwrap();
        for t in ["default", "a", "b", "c"] {
            let row = format!("sitw_serve_tenant_invocations_total{{tenant=\"{t}\"}} 0\n");
            assert_eq!(text.matches(&row).count(), 1, "{t}: {text}");
        }
        assert_eq!(standby.snapshot().unwrap(), replica);
        standby.shutdown().unwrap();
    }

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

    /// A round carrying `doc` cut into chunks of `size` bytes, framed
    /// (an empty `doc` is the lone commit).
    fn framed(full_sync: bool, epoch: u64, doc: &[u8], size: usize) -> Vec<u8> {
        let kind = if full_sync {
            wire::FRAME_REPL_SYNC
        } else {
            wire::FRAME_REPL_DELTA
        };
        let pieces: Vec<&[u8]> = doc.chunks(size).collect();
        let mut out = Vec::new();
        for (seq, piece) in pieces.iter().enumerate() {
            let last = seq + 1 == pieces.len();
            wire::encode_repl_chunk(&mut out, kind, epoch, seq as u32, last, piece);
        }
        wire::encode_repl_commit(&mut out, epoch);
        out
    }

    /// What an assembler commits for a framed round.
    fn assemble(mut framed: &[u8]) -> CommittedRound {
        let mut asm = RoundAssembler::default();
        loop {
            let frame = wire::decode_server_frame(framed);
            let consumed = match &frame {
                ServerFrameDecode::ReplChunk { consumed, .. }
                | ServerFrameDecode::ReplCommit { consumed, .. } => *consumed,
                other => panic!("{other:?}"),
            };
            framed = &framed[consumed..];
            if let Some(round) = asm.absorb(Reply::Frame(frame)).unwrap() {
                assert!(framed.is_empty(), "frames after the commit");
                return round;
            }
        }
    }

    /// The round a primary commits for the document `text`.
    fn round(epoch: u64, full_sync: bool, text: &str) -> CommittedRound {
        let doc = text.as_bytes();
        assemble(&framed(full_sync, epoch, doc, wire::REPL_CHUNK_BYTES))
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
        // A full-sync document a little over one chunk.
        let names: Vec<String> = (0..3_000).map(|i| format!("app-{i:05}")).collect();
        let apps: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), 7)).collect();
        let snap = snap_with(&apps);
        let doc = snap.encode().into_bytes();
        assert!(doc.len() > wire::REPL_CHUNK_BYTES + 100);
        let mut out = Vec::new();
        let mut sync = wire::ReplRound::new(&mut out, wire::FRAME_REPL_SYNC, 5);
        snap.encode_into(&mut sync).unwrap();
        sync.commit();
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
            assert_eq!(round.bytes, doc.len() as u64);
            assert_eq!(round.doc, Ok(Some(snap.clone())));
            drop(writer.join().unwrap());
        }
    }

    /// A round decodes the same whatever its chunk size: a full sync and
    /// then a delta, each cut at every size of a sweep, leave the replica
    /// (and report the app counts) the whole documents do.
    #[test]
    fn a_round_decodes_the_same_at_any_split() {
        let full = crate::snapshot::samples::snapshot(11, 24);
        let mut delta = crate::snapshot::samples::snapshot(12, 24);
        // A delta carries the whole tenant list, its apps a dirty subset.
        delta.policy_label = full.policy_label.clone();
        delta.apps.truncate(3);
        let (full_doc, delta_doc) = (full.encode(), delta.encode_delta());
        let mut whole = ReplicaState::default();
        let counts = (
            whole.apply(round(1, true, &full_doc)).unwrap(),
            whole.apply(round(2, false, &delta_doc)).unwrap(),
        );
        let expected = whole.snap.clone().unwrap();
        assert_ne!(expected, full, "the delta changed the replica");
        let longest = full_doc.len().max(delta_doc.len());
        let sizes = (1..=64).chain([97, 1_000, 4_095, 4_096, 65_536, longest]);
        for size in sizes {
            let mut replica = ReplicaState::default();
            let sync = assemble(&framed(true, 1, full_doc.as_bytes(), size));
            let d = assemble(&framed(false, 2, delta_doc.as_bytes(), size));
            assert_eq!(sync.bytes, full_doc.len() as u64, "size {size}");
            let got = (replica.apply(sync).unwrap(), replica.apply(d).unwrap());
            assert_eq!(got, counts, "size {size}");
            assert_eq!(replica.epoch, 2, "size {size}");
            assert_eq!(replica.snap.as_ref(), Some(&expected), "size {size}");
        }
    }

    /// A round whose document does not decode is refused with the
    /// decoder's reason, and the replica asks for a full sync.
    #[test]
    fn a_round_that_does_not_decode_forces_a_resync() {
        let mut replica = ReplicaState::default();
        let full = snap_with(&[("a", 1)]);
        replica.apply(round(1, true, &full.encode())).unwrap();
        let cut = &full.encode_delta()[..20];
        for (epoch, text) in [(2, "garbage"), (1, "garbage"), (2, cut)] {
            replica.epoch = 1;
            let refused = replica.apply(round(epoch, false, text)).unwrap_err();
            let want = Snapshot::decode_delta(text).unwrap_err();
            assert_eq!(refused, want, "epoch {epoch}, {text:?}");
            assert_eq!(replica.epoch, 0);
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
    fn replica_applies_sync_then_delta_then_clean_commit() {
        let mut replica = ReplicaState::default();
        // Full sync at epoch 1.
        let full = snap_with(&[("a", 10), ("b", 20)]);
        let applied = replica.apply(round(1, true, &full.encode())).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(replica.epoch, 1);
        // Delta at epoch 2: app b mutated, app c appeared.
        let delta = snap_with(&[("b", 99), ("c", 30)]);
        replica
            .apply(round(2, false, &delta.encode_delta()))
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
        replica.apply(round(2, false, "")).unwrap();
        assert_eq!(replica.epoch, 2);
    }

    #[test]
    fn replica_divergence_forces_resync() {
        let mut replica = ReplicaState::default();
        // A delta before any sync is divergence.
        let delta = snap_with(&[("a", 1)]);
        assert!(replica
            .apply(round(3, false, &delta.encode_delta()))
            .is_err());
        assert_eq!(replica.epoch, 0, "error resets to full-sync request");
        // So is a clean commit for an epoch we do not hold.
        assert!(replica.apply(round(7, false, "")).is_err());
        assert_eq!(replica.epoch, 0);
    }
}
