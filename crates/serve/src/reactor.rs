//! The connection reactor: a small fixed pool of event-loop threads
//! multiplexing every client connection over epoll — and, since the
//! shards are state behind locks rather than threads, doing all of the
//! deciding too.
//!
//! Each reactor thread owns a generational slab of [`Conn`]s, an
//! [`Epoll`] instance, and one inbound queue the acceptor feeds with new
//! connections (round-robin across the pool). The queue pairs with an
//! armed eventfd [`Waker`], so a connection handed over while the
//! reactor is busy costs no syscall at all, and exactly one `write(2)`
//! when the reactor is asleep in `epoll_wait`. Everything a connection
//! asks for is answered on its reactor: a frame or a JSON run is decided
//! under each owning shard's lock ([`crate::pool::Batch::decide`]) and
//! rendered into the connection's output before the readiness handler
//! returns.
//!
//! The loop each thread runs:
//!
//! 1. drain the queue — adopt new connections;
//! 2. on shutdown, stop reading and pump every connection until it
//!    settles;
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
use crate::pool::Batch;
use crate::server::ServerCtx;
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
/// processed; anything higher is a spin that takes the core from the
/// other reactors and from the clients sharing the host (measured, when
/// shards were threads of their own: sustained throughput *halved* with
/// an 8-round yield spin on one core).
const SPIN_ROUNDS: u32 = 1;

/// Sending half of one reactor thread, held by the acceptor and the
/// server context (for shutdown wakes).
pub(crate) struct ReactorRef {
    /// New connections for the reactor to adopt.
    pub(crate) tx: Sender<TcpStream>,
    pub(crate) waker: Arc<Waker>,
}

/// Per-reactor reusable scratch handed into connection methods — the
/// reactor-wide halves of the zero-allocation hot path.
pub(crate) struct ReactorIo<'a> {
    /// Shared server state (config, shards, registry, counters).
    pub ctx: &'a ServerCtx,
    /// Response-body scratch (JSON rendering).
    pub scratch: &'a mut Vec<u8>,
    /// Where a frame or a JSON run is partitioned and decided. Every
    /// user leaves it empty.
    pub batch: &'a mut Batch,
    /// This reactor thread's telemetry handle (spans, stage hists).
    pub telem: &'a ReactorTelemHandle,
}

/// Runs one reactor thread until shutdown completes.
pub(crate) fn reactor_loop(id: usize, ctx: Arc<ServerCtx>, rx: Receiver<TcpStream>) {
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
    let waker = Arc::clone(&ctx.reactors[id].waker);
    let epoll = Epoll::new().expect("epoll_create1 failed");
    epoll
        .add(waker.raw_fd(), WAKER_TOKEN, Interest::READ)
        .expect("failed to register reactor waker");
    let mut conns: Slab<Conn> = Slab::new();
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    let mut batch = Batch::default();
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
                scratch: &mut scratch,
                batch: &mut batch,
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
        // 1. Adopt new connections. The inbox gauge is drain-observed:
        // count the wave's backlog here, once — the acceptor never
        // touches the gauge.
        let mut drained = 0u64;
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    worked = true;
                    drained += 1;
                    adopt(stream, &ctx, &epoll, &mut conns);
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

        // 2. Shutdown wind-down.
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

        // 3. Slowloris sweep on the tick.
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

        // 4. Poll or sleep. While rounds keep finding work, poll the
        // sockets non-blockingly and yield between empty rounds
        // ([`SPIN_ROUNDS`]); only after the spin budget is spent, arm
        // the waker — re-checking the queue *after* arming so an
        // acceptor racing the sleep sees the armed flag and fires the
        // eventfd, never losing the wakeup — and block in `epoll_wait`
        // for the tick.
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
                Ok(stream) => {
                    waker.disarm();
                    idle_spins = 0;
                    adopt(stream, &ctx, &epoll, &mut conns);
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

        // 5. Socket readiness.
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

/// Adopts an accepted connection into the slab and epoll, or sheds it.
fn adopt(stream: TcpStream, ctx: &ServerCtx, epoll: &Epoll, conns: &mut Slab<Conn>) {
    let Ok(conn) = Conn::new(stream) else {
        ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    let (fd, interest) = (conn.raw_fd(), conn.initial_interest());
    let token = conns.insert(conn);
    if epoll.add(fd, token, interest).is_err() {
        conns.remove(token);
        ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
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

/// Retires a connection: deregisters, frees the slab slot, closes the
/// socket, and drops the live gauge.
fn close_conn(ctx: &ServerCtx, epoll: &Epoll, conns: &mut Slab<Conn>, token: u64) {
    if let Some(conn) = conns.remove(token) {
        let _ = epoll.delete(conn.raw_fd());
        ctx.conns_live.fetch_sub(1, Ordering::Relaxed);
        // Drop closes the socket.
    }
}
