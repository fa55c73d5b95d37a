//! Warm standby: `sitw-serve --follow PRIMARY`.
//!
//! A standby is a node. [`crate::Server::start`] with a
//! [`crate::ServeConfig::follow`] section binds the same listener,
//! reactor pool and shards as a primary and attaches a pull loop to them.
//! The loop pulls the primary's replication rounds with
//! `GET /admin/repl?epoch=N` (`N` the epoch it holds) on one keep-alive
//! connection — a full sync first, then per-round deltas of whatever
//! mutated — and accumulates the complete [`Snapshot`] in memory. An
//! answer's body is one envelope line, `sync E`, `delta E` or a lone
//! `commit E`, then the document. The document goes through a
//! [`Decoder`] as the body arrives ([`ConnBuf::stream_reply`]), so no
//! round is ever held as text.
//!
//! Until promotion the node's gate is closed. The decision path reads it
//! once per read burst or frame and answers a JSON `/invoke` with 503 and
//! a SITW-BIN frame with a [`wire::BinErrorCode::Unavailable`] error
//! frame; the tenant, snapshot, usage, budget and replication admin verbs
//! get 503 too. `/healthz` (replication lag), `/metrics` (whose
//! `sitw_serve_repl_*` families count what was pulled), `/debug/*` and
//! `/admin/shutdown` answer as on any node.
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

use crate::http::{write_request, ConnBuf};
use crate::metrics::ReplStats;
use crate::restore;
use crate::server::ServerCtx;
use crate::snapshot::{apply_delta, Decoder, Snapshot};
use crate::wire;

/// What a standby answers in place of a decision or a mutation.
pub(crate) const NOT_PROMOTED: &str = "standby: not promoted";

/// Connect/read/write deadline on each pull, so a hung primary surfaces
/// as a counted failure instead of a stuck puller.
const PULL_TIMEOUT: Duration = Duration::from_secs(2);

/// Most bytes of an answer's first line kept: an envelope line is far
/// shorter, an error answer's body is cut here.
const LINE_CAP: usize = 64;

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

/// One replication round decoded from an `/admin/repl` answer, ready to
/// apply.
#[derive(Debug, PartialEq)]
struct CommittedRound {
    epoch: u64,
    /// `true` for a full sync, `false` for a delta. Meaningless for a
    /// lone commit.
    full_sync: bool,
    /// Document bytes the answer carried after its envelope line.
    bytes: u64,
    /// The decoded document, `None` for a lone commit (no document).
    doc: Result<Option<Snapshot>, String>,
}

/// An envelope line: the epoch, whether it is a full sync, and the
/// document's decoder (`None` for a lone commit).
type Envelope = (u64, bool, Option<Decoder>);

/// The round in an `/admin/repl` answer's body, decoded as the body
/// arrives: the envelope line picks the [`Decoder`], and every byte after
/// it goes through that decoder. A document that does not decode is the
/// round's `doc` error, applied (and refused) like any other; an answer
/// that is not a round at all is an error of the pull.
#[derive(Debug, Default)]
struct RoundReader {
    /// The first line up to its `\n`, at most `LINE_CAP + 1` bytes of it.
    line: Vec<u8>,
    /// Once the first line is complete, what it says.
    envelope: Option<Result<Envelope, String>>,
    /// Bytes after the first line.
    bytes: u64,
}

impl RoundReader {
    /// Takes the next piece of the body.
    fn feed(&mut self, mut piece: &[u8]) {
        if self.envelope.is_none() {
            let end = piece.iter().position(|&b| b == b'\n');
            let line = &piece[..end.unwrap_or(piece.len())];
            let room = (LINE_CAP + 1).saturating_sub(self.line.len());
            self.line.extend_from_slice(&line[..line.len().min(room)]);
            let Some(end) = end else { return };
            piece = &piece[end + 1..];
            self.envelope = Some(envelope(&self.line));
        }
        self.bytes += piece.len() as u64;
        if let Some(Ok((_, _, Some(decoder)))) = &mut self.envelope {
            // A decode error stays in the decoder until the round ends.
            let _ = decoder.feed(piece);
        }
    }

    /// Ends the answer, whose status was `status`.
    fn finish(self, status: u16) -> Result<CommittedRound, String> {
        let line = String::from_utf8_lossy(&self.line);
        if status != 200 {
            return Err(format!("primary answered {status}: {line}"));
        }
        let envelope = self
            .envelope
            .ok_or_else(|| format!("no envelope line: {line:?}"));
        let (epoch, full_sync, decoder) = envelope??;
        if decoder.is_none() && self.bytes > 0 {
            return Err(format!("{} bytes after a commit", self.bytes));
        }
        Ok(CommittedRound {
            epoch,
            full_sync,
            bytes: self.bytes,
            doc: decoder.map(Decoder::finish).transpose(),
        })
    }
}

/// Parses an envelope line: `sync E`, `delta E` or `commit E`.
fn envelope(line: &[u8]) -> Result<Envelope, String> {
    let text = std::str::from_utf8(line).unwrap_or_default();
    let kind_epoch = text.split_once(' ');
    match kind_epoch.map(|(kind, epoch)| (kind, epoch.parse::<u64>())) {
        _ if line.len() > LINE_CAP => Err("envelope line too long".into()),
        Some(("sync", Ok(epoch))) => Ok((epoch, true, Some(Decoder::snapshot()))),
        Some(("delta", Ok(epoch))) => Ok((epoch, false, Some(Decoder::delta()))),
        Some(("commit", Ok(epoch))) => Ok((epoch, false, None)),
        _ => Err(format!("bad envelope line {text:?}")),
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
    /// makes the next pull ask for a full sync.
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

/// The pull loop: one pull → round exchange per interval over a
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

/// One pull: ask for the round after the replica's epoch, read it,
/// apply it.
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

    let path = format!("/admin/repl?epoch={}", follow.lock().replica.epoch);
    let mut pull = Vec::with_capacity(64);
    write_request(&mut pull, "GET", &path, None, b"")
        .and_then(|()| conn.stream().write_all(&pull))
        .map_err(|e| format!("send pull: {e}"))?;
    let mut reader = RoundReader::default();
    // The socket deadline bounds each read; this one bounds a primary
    // that keeps trickling bytes without ever finishing the answer.
    // sitw-lint: allow(clock-discipline)
    let status = conn.stream_reply(Instant::now() + PULL_TIMEOUT, |p| reader.feed(p));
    let round = reader.finish(status.map_err(|e| format!("read: {e}"))?)?;

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
    use crate::http::{write_response, ReadOutcome, Reply, READ_WINDOW};
    use crate::snapshot::samples::Rng;
    use crate::snapshot::{AppRecord, PolicyState};
    use crate::wire::{BinErrorCode, ServerFrameDecode};
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
        let not_promoted = "{\"error\":\"standby: not promoted\"}";
        let (status, body) = client.invoke(None, "a", 1, None).unwrap();
        assert_eq!((status, body.as_str()), (503, not_promoted));
        let frame = client.batch(|f| wire::encode_request_frame_v2(f, &[(0, "a", 1)]));
        assert!(
            matches!(
                frame.unwrap(),
                Reply::Frame(ServerFrameDecode::Error {
                    code: BinErrorCode::Unavailable,
                    ..
                })
            ),
            "a request frame"
        );
        for (path, body) in [
            ("/admin/tenants", "t=fixed:10"),
            ("/admin/snapshot", ""),
            ("/admin/budgets", "t=64\n"),
        ] {
            let (status, text) = client.request("POST", path, body).unwrap();
            assert_eq!(status, 503, "{path}: {text}");
        }
        // Usage and replication rounds export tenant state.
        for path in ["/admin/usage", "/admin/repl?epoch=0"] {
            let (status, text) = client.request("GET", path, "").unwrap();
            assert_eq!((status, text.as_str()), (503, not_promoted), "{path}");
        }
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

    /// The body of the answer a primary writes for a round carrying the
    /// document `text` (an empty `text` is the lone commit).
    fn body(epoch: u64, full_sync: bool, text: &str) -> Vec<u8> {
        let kind = match (text.is_empty(), full_sync) {
            (true, _) => "commit",
            (false, true) => "sync",
            (false, false) => "delta",
        };
        format!("{kind} {epoch}\n{text}").into_bytes()
    }

    /// What the follower's reader commits for an answer `body` that
    /// arrives in pieces of `size` bytes.
    fn read_in_pieces(body: &[u8], size: usize) -> CommittedRound {
        let mut reader = RoundReader::default();
        body.chunks(size).for_each(|piece| reader.feed(piece));
        reader.finish(200).unwrap()
    }

    /// The round a primary commits for the document `text`.
    fn round(epoch: u64, full_sync: bool, text: &str) -> CommittedRound {
        read_in_pieces(&body(epoch, full_sync, text), usize::MAX)
    }

    /// The pull's read of one answer, checking as the body streams that
    /// the reader never holds more than one read of it.
    fn read_checked(conn: &mut ConnBuf) -> Result<CommittedRound, String> {
        let mut reader = RoundReader::default();
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = conn.stream_reply(deadline, |piece| {
            assert!(piece.len() <= READ_WINDOW, "a piece of {}", piece.len());
            reader.feed(piece);
        });
        assert!(conn.capacity() <= 64 * 1024, "capacity {}", conn.capacity());
        reader.finish(status.map_err(|e| format!("read: {e}"))?)
    }

    /// Writes `bytes` to a fresh connection in pieces cut at `cuts`, a
    /// moment apart, then closes it; returns the reading end.
    fn peer_writing(
        bytes: Vec<u8>,
        mut cuts: Vec<usize>,
    ) -> (ConnBuf, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut primary = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (follower, _) = listener.accept().unwrap();
        follower
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        cuts.retain(|&cut| cut < bytes.len());
        cuts.sort_unstable();
        cuts.push(bytes.len());
        // The bytes outgrow a socket buffer, so the writer runs beside the
        // reader. A reader that gave up early resets it: fine.
        let writer = std::thread::spawn(move || {
            let _ = primary.set_nodelay(true);
            let mut at = 0;
            for cut in cuts {
                if primary.write_all(&bytes[at..cut]).is_err() {
                    return;
                }
                at = cut;
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        (ConnBuf::new(follower), writer)
    }

    /// A full sync of over 4 MiB streams through the follower's reader
    /// split at the edges that matter and at random points, into exactly
    /// the snapshot its document decodes to, while the reader's buffer
    /// holds one read of it at a time.
    #[test]
    fn a_streamed_full_sync_decodes_at_any_split() {
        let names: Vec<String> = (0..64_000)
            .map(|i| format!("app-{i:06}-{}", "x".repeat(40)))
            .collect();
        let apps: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), 7)).collect();
        let doc = snap_with(&apps).encode();
        assert!(doc.len() >= 4 << 20, "{} bytes", doc.len());
        let want = Snapshot::decode(&doc).unwrap();
        let mut answer = Vec::new();
        write_response(&mut answer, 200, "text/plain", &body(5, true, &doc));
        let head = answer.len() - doc.len() - "sync 5\n".len();
        let rng = &mut Rng(55);
        for cuts in [
            vec![1, head - 1, head + 3, answer.len() / 2, answer.len() - 1],
            (0..16)
                .map(|_| rng.below(answer.len() as u64) as usize)
                .collect(),
            (0..16)
                .map(|_| rng.below(answer.len() as u64) as usize)
                .collect(),
        ] {
            let (mut conn, writer) = peer_writing(answer.clone(), cuts.clone());
            let round = read_checked(&mut conn).unwrap();
            assert_eq!((round.epoch, round.full_sync), (5, true), "{cuts:?}");
            assert_eq!(round.bytes, doc.len() as u64, "{cuts:?}");
            assert!(round.doc == Ok(Some(want.clone())), "{cuts:?}");
            writer.join().unwrap();
        }
    }

    /// The body of a `?epoch=0` answer after its first line is the node's
    /// snapshot document — a file `--restore` takes — behind a fixed-width
    /// length; the next pull of a quiescent node is a lone commit, and a
    /// pull without a numeric epoch is refused.
    #[test]
    fn an_epoch_0_answer_is_the_snapshot_document() {
        let primary = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: PolicySpec::fixed_minutes(10),
            tenants: vec![TenantConfig {
                name: "t".into(),
                policy: PolicySpec::fixed_minutes(20),
                budget_mb: 0,
            }],
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(primary.addr()).unwrap();
        for (i, app) in ["x", "y", "z"].into_iter().enumerate() {
            for name in [None, Some("t")] {
                assert_eq!(client.invoke(name, app, i as u64, None).unwrap().0, 200);
            }
        }
        let (status, text) = client.request("GET", "/admin/repl?epoch=0", "").unwrap();
        assert_eq!(status, 200, "{text}");
        let (envelope, doc) = text.split_once('\n').unwrap();
        assert_eq!(envelope, "sync 1");
        assert_eq!(doc, primary.snapshot().unwrap().encode());
        let head = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: {:020}\r\n\r\n",
            text.len()
        );
        assert!(client.conn().reply_raw().starts_with(head.as_bytes()));
        let next = client.request("GET", "/admin/repl?epoch=1", "").unwrap();
        assert_eq!(next, (200, "commit 1\n".to_owned()));
        for path in [
            "/admin/repl",
            "/admin/repl?epoch=",
            "/admin/repl?epoch=x",
            "/admin/repl?e=1",
        ] {
            let (status, text) = client.request("GET", path, "").unwrap();
            assert_eq!(status, 400, "{path}: {text}");
        }
        primary.shutdown().unwrap();
    }

    /// A primary that answers a pull with a valid head and then one body
    /// byte every 100 ms never finishes its round: the pull fails by its
    /// deadline, counts one failure and leaves the replica and its epoch
    /// as they were, and the next pull takes the full sync a well-behaved
    /// primary answers.
    #[test]
    fn a_trickling_primary_fails_the_pull_by_its_deadline() {
        let (before, after) = (snap_with(&[("a", 1), ("b", 2)]), snap_with(&[("c", 3)]));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (checked, wait_checked) = std::sync::mpsc::channel::<()>();
        let (first, last) = (before.clone(), after.clone());
        let primary = std::thread::spawn(move || {
            let pull = |conn: &mut ConnBuf| match conn.read_request().unwrap() {
                ReadOutcome::Request(req) => req.path,
                other => panic!("{other:?}"),
            };
            let sync = |conn: &mut ConnBuf, epoch: u64, snap: &Snapshot| {
                let mut out = Vec::new();
                write_response(
                    &mut out,
                    200,
                    "text/plain",
                    &body(epoch, true, &snap.encode()),
                );
                conn.stream().write_all(&out).unwrap();
            };
            let mut conn = ConnBuf::new(listener.accept().unwrap().0);
            let mut paths = vec![pull(&mut conn)];
            sync(&mut conn, 1, &first);
            paths.push(pull(&mut conn));
            (conn.stream())
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100000\r\n\r\ns")
                .unwrap();
            let started = Instant::now();
            // The follower hangs up when its deadline passes.
            while started.elapsed() < Duration::from_secs(20) {
                std::thread::sleep(Duration::from_millis(100));
                if conn.stream().write_all(b"y").is_err() {
                    break;
                }
            }
            let trickled = started.elapsed();
            wait_checked.recv().unwrap();
            let mut conn = ConnBuf::new(listener.accept().unwrap().0);
            paths.push(pull(&mut conn));
            sync(&mut conn, 2, &last);
            (paths, trickled)
        });
        let standby = Server::start(standby_cfg(&addr, None)).unwrap();
        let status = || standby.follow_status().unwrap();
        let wait = |done: &dyn Fn(&FollowStatus) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let s = status();
                if done(&s) {
                    return s;
                }
                assert!(Instant::now() < deadline, "{s:?}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let failed = wait(&|s| s.consecutive_failures > 0);
        checked.send(()).unwrap();
        let held = (
            failed.consecutive_failures,
            failed.epoch,
            failed.full_syncs,
            failed.apps,
        );
        assert_eq!(held, (1, 1, 1, 2), "{failed:?}");
        let synced = wait(&|s| s.full_syncs == 2);
        assert_eq!((synced.epoch, synced.apps), (2, 1), "{synced:?}");
        let (paths, trickled) = primary.join().unwrap();
        assert_eq!(
            paths,
            [
                "/admin/repl?epoch=0",
                "/admin/repl?epoch=1",
                "/admin/repl?epoch=1"
            ]
        );
        assert!(
            trickled > PULL_TIMEOUT / 2 && trickled < PULL_TIMEOUT * 2,
            "{trickled:?}"
        );
        assert_eq!(standby.shutdown().unwrap(), after);
    }

    /// A round decodes the same however its answer is split: a full sync
    /// and then a delta, each fed in pieces of every size of a sweep,
    /// leave the replica (and report the app counts) the whole documents
    /// do.
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
            let sync = read_in_pieces(&body(1, true, &full_doc), size);
            let d = read_in_pieces(&body(2, false, &delta_doc), size);
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

    /// A primary's answer as it writes it for `snap` (the kind by `pick`:
    /// a full sync, a delta, or a lone commit).
    fn answer_for(snap: &Snapshot, pick: u64) -> Vec<u8> {
        let text = match pick % 3 {
            0 => snap.encode(),
            1 => snap.encode_delta(),
            _ => String::new(),
        };
        let mut answer = Vec::new();
        write_response(
            &mut answer,
            200,
            "text/plain",
            &body(9, pick.is_multiple_of(3), &text),
        );
        answer
    }

    proptest::proptest! {
        /// Whatever a primary sends — arbitrary bytes, or an answer with
        /// a byte flipped, dropped or added, cut short, or behind another
        /// status — split at arbitrary points, the follower's read ends in
        /// a committed round or a typed error, never a panic, and holds
        /// one read of the body at a time. An answer left whole commits
        /// its round.
        #[test]
        fn arbitrary_repl_answers_yield_rounds_or_typed_errors(
            seed in 0u64..=u64::MAX,
            noise in proptest::collection::vec(0u8..=255, 0..256),
            shape in 0u64..7,
        ) {
            let rng = &mut Rng(seed);
            let snap = crate::snapshot::samples::snapshot(seed, 6);
            let valid = answer_for(&snap, seed);
            let mut bytes = valid.clone();
            let at = rng.below(bytes.len() as u64) as usize;
            match shape {
                0 => bytes = noise.clone(),
                1 => bytes[at] ^= 1 << rng.below(8),
                2 => {
                    bytes.remove(at);
                }
                3 => bytes.splice(at..at, noise.iter().copied()).for_each(drop),
                4 => bytes.truncate(at),
                5 => bytes.splice(9..12, *rng.pick(&[b"503", b"404", b"20x"])).for_each(drop),
                _ => {}
            }
            let cuts = (0..rng.below(6)).map(|_| rng.below(bytes.len() as u64 + 1) as usize);
            let (mut conn, writer) = peer_writing(bytes.clone(), cuts.collect());
            let got = read_checked(&mut conn);
            if bytes == valid {
                proptest::prop_assert!(matches!(&got, Ok(r) if r.doc.is_ok()), "{got:?}");
            }
            if let Ok(round) = got {
                // Applying it must not panic either.
                let _ = ReplicaState::default().apply(round);
            }
            drop(conn);
            writer.join().unwrap();
        }
    }
}
