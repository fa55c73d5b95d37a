//! The connection reactor: a small fixed pool of event-loop threads
//! multiplexing every client connection over epoll.
//!
//! Each reactor thread owns a generational slab of [`Conn`]s, an
//! [`Epoll`] instance, and one inbound queue fed by two producers: the
//! acceptor (new connections, round-robin across the pool) and the shard
//! workers (decision replies, routed by slab token through a
//! [`ReplySink`]). The queue pairs with an armed eventfd [`Waker`], so a
//! shard finishing a batch while the reactor is busy pays no syscall at
//! all, and exactly one `write(2)` when the reactor is asleep in
//! `epoll_wait`.
//!
//! The loop each thread runs:
//!
//! 1. drain the message queue — adopt new connections, slot shard
//!    replies into their connection's pipeline (stale tokens from
//!    closed connections are dropped by the slab's generation check);
//! 2. pump every touched connection once — render completed responses,
//!    write, update epoll interest (batching the queue drain before the
//!    pump is what keeps it one `write(2)` per readiness cycle instead
//!    of one per reply);
//! 3. sweep for slowloris timeouts on a coarse tick;
//! 4. arm the waker, re-check the queue (closing the sleep race), and
//!    block in `epoll_wait` for socket readiness, the waker, or the
//!    tick;
//! 5. serve socket events through [`Conn::on_event`].
//!
//! On shutdown a reactor stops reading, keeps pumping until every
//! connection settles (bounded by [`SHUTDOWN_GRACE`] — a client that
//! never drains its responses cannot hang the daemon, which the
//! thread-per-connection design could not guarantee), closes everything,
//! and exits.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sitw_reactor::{Epoll, Events, Interest, Slab, Waker};

use crate::conn::{Conn, Flow};
use crate::pool::BatchPool;
use crate::server::ServerCtx;
use crate::shard::{BatchItem, BatchReply, Decision, InvokeError};
use crate::telem::{QueueGauge, ReactorTelemHandle};

/// Token reserved for the reactor's own waker fd.
const WAKER_TOKEN: u64 = u64::MAX;

/// How long a winding-down reactor keeps pumping unsettled connections
/// before force-closing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Events buffer size per poll round.
const EVENTS_PER_WAIT: usize = 1024;

/// Empty rounds a reactor re-polls non-blockingly after a busy round
/// before arming its waker and blocking in `epoll_wait`. One free
/// re-poll catches work that arrived while the previous round was being
/// processed; anything higher turns into a spin that starves the very
/// shard threads the reactor is waiting on (measured: sustained
/// throughput *halves* with an 8-round yield spin on one core).
const SPIN_ROUNDS: u32 = 1;

/// One message into a reactor thread.
pub(crate) enum ReactorMsg {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A shard's reply to its slice of one dispatched batch (a SITW-BIN
    /// frame or a run of JSON requests) — the only reply kind.
    Batch {
        /// Slab token of the owning connection.
        conn: u64,
        /// The reply to slot in.
        reply: BatchReply,
    },
}

/// Sending half of one reactor thread, held by the acceptor and the
/// server context (for shutdown wakes).
pub(crate) struct ReactorRef {
    pub(crate) tx: Sender<ReactorMsg>,
    pub(crate) waker: Arc<Waker>,
}

/// Where a shard worker sends the reply to one dispatched batch: the
/// owning reactor's queue, tagged with the connection's slab
/// token, waking the reactor's event loop if it is asleep. Replies to
/// connections that died in the meantime fail the slab's generation
/// check and are dropped — a disconnect mid-batch can never poison
/// another connection or wedge the shard (sends never block).
pub struct ReplySink {
    tx: Sender<ReactorMsg>,
    waker: Arc<Waker>,
    conn: u64,
}

impl ReplySink {
    /// Delivers a batch reply.
    pub fn batch(&self, reply: BatchReply) {
        let _ = self.tx.send(ReactorMsg::Batch {
            conn: self.conn,
            reply,
        });
        self.waker.wake();
    }
}

/// Per-reactor reusable scratch handed into connection methods — the
/// reactor-wide halves of the zero-allocation hot path.
pub(crate) struct ReactorIo<'a> {
    /// Shared server state (config, shard mailboxes, registry, counters).
    pub ctx: &'a ServerCtx,
    tx: &'a Sender<ReactorMsg>,
    waker: &'a Arc<Waker>,
    /// Response-body scratch (JSON rendering).
    pub scratch: &'a mut Vec<u8>,
    /// Ordered-results scratch for reply-frame encoding.
    pub results: &'a mut Vec<Result<Decision, InvokeError>>,
    /// Per-shard partition buffers for batch dispatch: a frame's
    /// records while it is partitioned, a JSON run's parked requests
    /// while its read burst lasts. Reactor-wide, so every user leaves
    /// them empty.
    pub per_shard: &'a mut Vec<Vec<BatchItem>>,
    /// Spare names and vectors, refilled by every shard reply that
    /// reaches a live connection.
    pub pool: &'a mut BatchPool,
    /// This reactor thread's telemetry handle (spans, stage hists).
    pub telem: &'a ReactorTelemHandle,
}

impl ReactorIo<'_> {
    /// A reply sink addressing connection `conn` on this reactor.
    // sitw-lint: hot-path
    pub fn reply_sink(&self, conn: u64) -> ReplySink {
        ReplySink {
            // Sender::clone is an Arc bump, not a heap allocation.
            tx: self.tx.clone(), // sitw-lint: allow(hot-path-alloc)
            waker: Arc::clone(self.waker),
            conn,
        }
    }
}

/// Runs one reactor thread until shutdown completes.
pub(crate) fn reactor_loop(
    id: usize,
    ctx: Arc<ServerCtx>,
    rx: Receiver<ReactorMsg>,
    tx: Sender<ReactorMsg>,
    waker: Arc<Waker>,
) {
    let telem = ReactorTelemHandle::new(
        ctx.telem.enabled,
        ctx.telem.clock.clone(),
        Arc::clone(&ctx.telem.reactors[id]),
        id,
    );
    let gauge: Option<Arc<QueueGauge>> = ctx
        .telem
        .enabled
        .then(|| Arc::clone(&ctx.telem.reactor_gauges[id]));
    let epoll = Epoll::new().expect("epoll_create1 failed");
    epoll
        .add(waker.raw_fd(), WAKER_TOKEN, Interest::READ)
        .expect("failed to register reactor waker");
    let mut conns: Slab<Conn> = Slab::new();
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    let mut results: Vec<Result<Decision, InvokeError>> = Vec::new();
    let mut per_shard: Vec<Vec<BatchItem>> = vec![Vec::new(); ctx.shard_txs.len()];
    let mut pool = BatchPool::default();
    let mut touched: Vec<u64> = Vec::new();
    let mut sweep_tokens: Vec<u64> = Vec::new();

    // The poll tick bounds shutdown latency and the sweep cadence, like
    // the read timeout bounded them in the thread-per-connection model.
    let tick = ctx.cfg.read_timeout.max(Duration::from_millis(1));
    let tick_ms = tick.as_millis().min(i32::MAX as u128) as i32;
    // Wall-clock deadlines (sweep cadence, shutdown grace) are real
    // time by design, not simulated trace time.
    // sitw-lint: allow(clock-discipline)
    let mut next_sweep = Instant::now() + tick;
    let mut shutdown_deadline: Option<Instant> = None;

    macro_rules! io {
        () => {
            ReactorIo {
                ctx: &ctx,
                tx: &tx,
                waker: &waker,
                scratch: &mut scratch,
                results: &mut results,
                per_shard: &mut per_shard,
                pool: &mut pool,
                telem: &telem,
            }
        };
    }

    let mut idle_spins = 0u32;
    // Empty spin rounds buffer their epoll_wait count locally and flush
    // it on the next eventful (or blocking) wait, so an idle-spinning
    // reactor takes no telemetry lock per round. Totals stay exact.
    let mut pending_waits = 0u64;
    loop {
        let mut worked = false;
        // 1. Drain the cross-thread queue, slotting replies and adopting
        // connections; defer pumping so a burst of replies costs one
        // write per connection, not one per reply. The inbox gauge is
        // drain-observed: count the wave's backlog here, once — the
        // senders (shards, acceptor) never touch the gauge.
        let mut drained = 0u64;
        loop {
            match rx.try_recv() {
                Ok(msg) => {
                    worked = true;
                    drained += 1;
                    handle_msg(msg, &ctx, &epoll, &mut conns, &mut touched, &mut pool);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        if drained > 0 {
            if let Some(g) = &gauge {
                g.observe(drained);
            }
        }

        // 2. Pump touched connections.
        for &token in &touched {
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            conn.dirty = false;
            let flow = conn.pump(&mut io!());
            finish(&ctx, &epoll, &mut conns, token, flow);
        }
        touched.clear();

        // 3. Shutdown wind-down.
        if ctx.shutdown.load(Ordering::SeqCst) {
            // sitw-lint: allow(clock-discipline)
            let now = Instant::now();
            let deadline = *shutdown_deadline.get_or_insert(now + SHUTDOWN_GRACE);
            let force = now >= deadline;
            sweep_tokens.clear();
            sweep_tokens.extend(conns.tokens());
            for &token in &sweep_tokens {
                let Some(conn) = conns.get_mut(token) else {
                    continue;
                };
                conn.begin_shutdown();
                let flow = conn.pump(&mut io!());
                if force {
                    close_conn(&ctx, &epoll, &mut conns, token);
                } else {
                    finish(&ctx, &epoll, &mut conns, token, flow);
                }
            }
            if conns.is_empty() {
                return;
            }
        }

        // 4. Slowloris sweep on the tick.
        // sitw-lint: allow(clock-discipline)
        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + tick;
            sweep_tokens.clear();
            sweep_tokens.extend(conns.tokens());
            for &token in &sweep_tokens {
                let Some(conn) = conns.get_mut(token) else {
                    continue;
                };
                if let Flow::Close = conn.sweep(now, ctx.cfg.idle_timeout) {
                    close_conn(&ctx, &epoll, &mut conns, token);
                }
            }
        }

        // 5. Poll or sleep. While rounds keep finding work, poll the
        // sockets non-blockingly and yield to the shard/acceptor
        // threads between empty rounds ([`SPIN_ROUNDS`]); only after
        // the spin budget is spent, arm the waker — re-checking the
        // queue *after* arming so a producer racing the sleep sees the
        // armed flag and fires the eventfd, never losing the wakeup —
        // and block in `epoll_wait` for the tick.
        let n = if idle_spins < SPIN_ROUNDS {
            let n = epoll.wait(&mut events, 0).unwrap_or_default();
            pending_waits += 1;
            if n > 0 {
                let waits = std::mem::take(&mut pending_waits);
                telem.with(|t| {
                    t.epoll_waits += waits;
                    t.events_per_wake.record(n as u64);
                });
            }
            n
        } else {
            waker.arm();
            match rx.try_recv() {
                Ok(msg) => {
                    waker.disarm();
                    idle_spins = 0;
                    handle_msg(msg, &ctx, &epoll, &mut conns, &mut touched, &mut pool);
                    continue;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    waker.disarm();
                    return;
                }
            }
            // The blocking wait is timed (epoll_wait_seconds_total on
            // /metrics); the telemetry guard is NOT held across it — a
            // scraper must never stall a tick behind a sleeping reactor.
            let t0 = telem.now();
            let n = epoll.wait(&mut events, tick_ms).unwrap_or_default();
            let t1 = telem.now();
            waker.disarm();
            let waits = std::mem::take(&mut pending_waits) + 1;
            telem.with(|t| {
                t.epoll_waits += waits;
                t.epoll_wait_ns += t1.saturating_sub(t0);
                if n > 0 {
                    t.events_per_wake.record(n as u64);
                }
            });
            n
        };

        // 6. Socket readiness.
        if n > 0 {
            worked = true;
            for ev in events.iter() {
                if ev.token == WAKER_TOKEN {
                    waker.drain();
                    telem.with(|t| t.wakeups += 1);
                    continue;
                }
                let Some(conn) = conns.get_mut(ev.token) else {
                    continue;
                };
                let flow = conn.on_event(ev.readable, ev.hangup, &mut io!());
                finish(&ctx, &epoll, &mut conns, ev.token, flow);
            }
        }

        if worked {
            idle_spins = 0;
        } else {
            idle_spins += 1;
            if idle_spins < SPIN_ROUNDS {
                std::thread::yield_now();
            }
        }
    }
}

/// Handles one queue message; marks the owning connection touched.
// sitw-lint: hot-path
fn handle_msg(
    msg: ReactorMsg,
    ctx: &ServerCtx,
    epoll: &Epoll,
    conns: &mut Slab<Conn>,
    touched: &mut Vec<u64>,
    pool: &mut BatchPool,
) {
    match msg {
        ReactorMsg::Conn(stream) => match Conn::new(stream) {
            Ok(conn) => {
                let token = conns.insert(conn);
                match conns.get_mut(token) {
                    Some(conn) => {
                        conn.set_token(token);
                        if epoll
                            .add(conn.raw_fd(), token, conn.initial_interest())
                            .is_err()
                        {
                            conns.remove(token);
                            ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    // insert() just handed out this token, so the slot
                    // exists; if the slab ever disagrees, shed the
                    // connection instead of panicking the reactor.
                    None => {
                        conns.remove(token);
                        ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(_) => {
                ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
            }
        },
        ReactorMsg::Batch { conn, reply } => deliver(conns, touched, pool, conn, reply),
    }
}

/// Slots a shard reply into its connection, keeps the reply's buffers
/// in the pool and marks the connection touched. A stale token
/// (connection died, slot possibly reused) fails the slab's generation
/// check, and its reply is freed, buffers and all.
// sitw-lint: hot-path
fn deliver(
    conns: &mut Slab<Conn>,
    touched: &mut Vec<u64>,
    pool: &mut BatchPool,
    conn: u64,
    reply: BatchReply,
) {
    if let Some(c) = conns.get_mut(conn) {
        c.on_batch_reply(reply, pool);
        if !c.dirty {
            c.dirty = true;
            touched.push(conn);
        }
    }
}

/// Applies a connection's post-activity fate: close, or re-sync epoll
/// interest.
// sitw-lint: hot-path
fn finish(ctx: &ServerCtx, epoll: &Epoll, conns: &mut Slab<Conn>, token: u64, flow: Flow) {
    match flow {
        Flow::Close => close_conn(ctx, epoll, conns, token),
        Flow::Keep => {
            if let Some(conn) = conns.get_mut(token) {
                if let Some(interest) = conn.interest_change() {
                    if epoll.modify(conn.raw_fd(), token, interest).is_err() {
                        close_conn(ctx, epoll, conns, token);
                    }
                }
            }
        }
    }
}

/// Retires a connection: deregisters, frees the slab slot (staling any
/// in-flight reply tokens), closes the socket, and drops the live gauge.
fn close_conn(ctx: &ServerCtx, epoll: &Epoll, conns: &mut Slab<Conn>, token: u64) {
    if let Some(conn) = conns.remove(token) {
        let _ = epoll.delete(conn.raw_fd());
        ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
        // Drop closes the socket.
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    #[test]
    fn a_dead_connections_reply_frees_its_buffers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conns = Slab::new();
        let token = conns.insert(Conn::new(stream).unwrap());
        let reply = || BatchReply {
            results: Vec::with_capacity(1),
            items: vec![BatchItem {
                idx: 0,
                tenant: 0,
                app: "app-000001".into(),
                ts: 0,
            }],
            ..BatchReply::default()
        };
        let (mut touched, mut pool) = (Vec::new(), BatchPool::default());
        deliver(&mut conns, &mut touched, &mut pool, token, reply());
        assert_eq!(touched, [token]);
        assert_eq!(
            (pool.names(), pool.items.len(), pool.results.len()),
            (1, 1, 1),
            "a live connection's reply is kept"
        );
        conns.remove(token);
        deliver(&mut conns, &mut touched, &mut pool, token, reply());
        assert_eq!(touched, [token]);
        assert_eq!(
            (pool.names(), pool.items.len(), pool.results.len()),
            (1, 1, 1),
            "a dead one's is freed"
        );
    }
}
