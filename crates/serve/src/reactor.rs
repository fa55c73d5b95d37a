//! The reactor: one event-loop driver both daemons run on, generic over
//! a connection [`Handler`].
//!
//! A [`Pool`] owns the listening socket and one epoll instance per
//! reactor thread. Every reactor accepts: the listener is registered in
//! each epoll with `EPOLLEXCLUSIVE`, so a new connection wakes one
//! reactor, which takes it into its own slab of [`Conn`]s. A reactor
//! listens while it holds no more than the mean live connections per
//! reactor — so the least-loaded one always listens — and accepts until
//! it is over that share or the backlog is empty. Whoever changes a count
//! re-registers the listener with exactly the reactors within their
//! share, so no reactor has to be woken to listen again. A reactor that
//! leaves the listener may take a connection's one wakeup with it, so
//! its leaving wakes the reactors that listen to accept; otherwise the
//! wakers serve shutdown.
//!
//! Each loop round: wind down on shutdown (pump every connection until it
//! settles, bounded by `SHUTDOWN_GRACE`, then exit); poll, re-polling
//! once without blocking after a busy round; on the tick, sweep for
//! slowloris timeouts; serve readiness — accept, drive client connections
//! through [`Conn::on_event`], hand any other token to the handler — and
//! pump the connections whose answers became ready off their own socket.
//! A node's handler (`pool::Node`) answers at once; a router's
//! may answer later, when replies arrive on descriptors it registered in
//! the same epoll.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sitw_reactor::{Epoll, Event, Events, Interest, Slab, Waker};
use sitw_telemetry::{lock_unpoisoned, Gate, Handle};

use crate::conn::{Conn, Flow};
use crate::metrics::ReactorTelem;

/// A reactor thread's telemetry handle: its [`ReactorTelem`], which
/// scrapers lock briefly, and its span ids. A router's reactors hold a
/// disabled one.
pub type ReactorTelemHandle = Handle<ReactorTelem>;

/// Reactor threads a daemon runs by default.
pub const REACTORS: usize = 2;

/// How long a half-received message may sit without progress before its
/// connection is closed, by default.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Answers a connection may have open before it stops reading, by
/// default.
pub const WINDOW: usize = 128;

const WAKER_TOKEN: u64 = u64::MAX;
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// How long a winding-down reactor keeps pumping unsettled connections
/// before force-closing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Events buffer size per poll round.
const EVENTS_PER_WAIT: usize = 1024;

/// Empty rounds a reactor re-polls non-blockingly after a busy round
/// before blocking in `epoll_wait`. One catches work that arrived while
/// the previous round was processed; more is a spin that takes the core
/// from the other reactors and the clients sharing the host (measured,
/// when shards were threads: an 8-round yield spin *halved* sustained
/// throughput on one core).
const SPIN_ROUNDS: u32 = 1;

/// One reactor's client connections.
pub type Conns<S> = Slab<Conn<S>>;

/// What a daemon does with its connections' messages: one value per
/// reactor thread.
pub trait Handler {
    /// What the handler keeps per client connection.
    type State: Default;

    /// This reactor's telemetry handle (a disabled one records nothing).
    fn telem(&self) -> &ReactorTelemHandle;

    /// Most answers a connection may have open before it stops reading.
    fn window(&self) -> usize;

    /// Answers a connection in `state` still owes; a node answers as it
    /// reads, so owes none.
    fn owed(_state: &Self::State) -> usize {
        0
    }

    /// One read burst on connection `token`: takes its messages with
    /// [`Conn::next`] and answers (or forwards) each.
    fn readable(&mut self, token: u64, conn: &mut Conn<Self::State>);

    /// A connection's output fully flushed: `spans` were rendered into
    /// it, its last write began at `t0` and the flush wrote `written`
    /// bytes.
    fn flushed(&self, _spans: &[(u64, u64)], _t0: u64, _written: usize) {}

    /// A round begins after the poll, at `now`; `sweep` is set on the
    /// tick. Connections whose answers became ready go into `ready`.
    fn round(&mut self, _: Instant, _sweep: bool, _: &mut Conns<Self::State>, _: &mut Vec<u64>) {}

    /// Readiness on a descriptor the handler registered (or a stale
    /// token, which it ignores).
    fn event(&mut self, _ev: Event, _conns: &mut Conns<Self::State>, _ready: &mut Vec<u64>) {}

    /// A round ends, its events served.
    fn flush(&mut self, _conns: &mut Conns<Self::State>, _ready: &mut Vec<u64>) {}
}

/// The listening socket and the event loops of one daemon.
pub struct Pool {
    listener: TcpListener,
    addr: SocketAddr,
    /// Poll tick: bounds shutdown latency and the sweep cadence.
    tick: Duration,
    idle_timeout: Duration,
    /// One epoll instance per reactor, shared so any reactor can
    /// (de)register the listener with any other.
    epolls: Vec<Epoll>,
    wakers: Vec<Waker>,
    /// Which reactors have the listener registered; the lock also
    /// serializes re-registration.
    listening: Mutex<Vec<bool>>,
    /// Live connections each reactor holds.
    held: Vec<AtomicU64>,
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// High-water mark of [`Pool::live`].
    pub peak: AtomicU64,
    shutdown: AtomicBool,
}

impl Pool {
    /// Binds `addr` (non-blocking) for `reactors` event loops polling on
    /// `tick` and closing half-received messages idle for
    /// `idle_timeout`.
    pub fn bind(
        addr: &str,
        reactors: usize,
        tick: Duration,
        idle_timeout: Duration,
    ) -> io::Result<Arc<Pool>> {
        if reactors == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no reactors"));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (mut epolls, mut wakers) = (Vec::new(), Vec::new());
        for _ in 0..reactors {
            let (epoll, waker) = (Epoll::new()?, Waker::new()?);
            epoll.add(waker.raw_fd(), WAKER_TOKEN, Interest::READ)?;
            epolls.push(epoll);
            wakers.push(waker);
        }
        let pool = Pool {
            addr: listener.local_addr()?,
            listener,
            tick: tick.max(Duration::from_millis(1)),
            idle_timeout,
            epolls,
            wakers,
            listening: Mutex::new(vec![false; reactors]),
            held: (0..reactors).map(|_| AtomicU64::new(0)).collect(),
            accepted: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        };
        pool.rebalance();
        Ok(Arc::new(pool))
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reactor threads.
    pub fn reactors(&self) -> usize {
        self.epolls.len()
    }

    /// Reactor `id`'s epoll instance, for the descriptors its handler
    /// polls beside the client connections.
    pub fn epoll(&self, id: usize) -> &Epoll {
        &self.epolls[id]
    }

    /// Live connections reactor `id` holds.
    pub fn conns(&self, id: usize) -> u64 {
        self.held[id].load(Ordering::Relaxed)
    }

    /// Live connections over every reactor.
    pub fn live(&self) -> u64 {
        self.held.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting and wakes every reactor to wind down.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.rebalance();
        for waker in &self.wakers {
            waker.wake_force();
        }
    }

    /// Reactor `id` holds no more than the mean live connections.
    fn within_share(&self, id: usize) -> bool {
        self.conns(id) * self.reactors() as u64 <= self.live()
    }

    /// Registers the listener with exactly the reactors within their
    /// share (none after shutdown).
    ///
    /// A connection's `EPOLLEXCLUSIVE` wakeup goes to one reactor. When
    /// that reactor leaves the listener before it accepts — deregistered
    /// here, or over its share by the time it looks — nothing wakes the
    /// others, and the connection would wait in the backlog for the next
    /// one to arrive. So whenever a reactor leaves, the reactors that
    /// listen are woken to accept what is pending.
    fn rebalance(&self) {
        let mut listening = lock_unpoisoned(&self.listening);
        let fd = self.listener.as_raw_fd();
        let mut left = false;
        for (id, on) in listening.iter_mut().enumerate() {
            let want = !self.shutting_down() && self.within_share(id);
            let done = match (want, *on) {
                (true, false) => self.epolls[id].add_exclusive(fd, LISTENER_TOKEN),
                (false, true) => {
                    left = true;
                    self.epolls[id].delete(fd)
                }
                _ => continue,
            };
            *on ^= done.is_ok();
        }
        if left {
            for (id, &on) in listening.iter().enumerate() {
                if on {
                    self.wakers[id].wake_force();
                }
            }
        }
    }

    /// Accepts onto reactor `id` until it is over its share or the
    /// backlog is empty.
    fn accept<S: Default>(&self, id: usize, conns: &mut Conns<S>) {
        while !self.shutting_down() && self.within_share(id) {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // Drained (`EAGAIN`), or out of descriptors.
            };
            let Ok(conn) = Conn::new(stream) else {
                continue;
            };
            let fd = conn.raw_fd();
            let token = conns.insert(conn);
            if self.epolls[id].add(fd, token, Interest::READ).is_err() {
                conns.remove(token);
                continue;
            }
            self.held[id].fetch_add(1, Ordering::Relaxed);
            self.accepted.fetch_add(1, Ordering::Relaxed);
            self.peak.fetch_max(self.live(), Ordering::Relaxed);
        }
        self.rebalance();
    }

    /// Applies a connection's fate after activity: re-sync its epoll
    /// interest, or retire it (the drop closes the socket).
    // sitw-lint: hot-path
    fn finish<S>(&self, id: usize, conns: &mut Conns<S>, token: u64, flow: Flow) {
        let epoll = &self.epolls[id];
        if let (Flow::Keep, Some(conn)) = (flow, conns.get_mut(token)) {
            match conn.interest_change() {
                None => return,
                Some(interest) if epoll.modify(conn.raw_fd(), token, interest).is_ok() => return,
                Some(_) => {}
            }
        }
        if let Some(conn) = conns.remove(token) {
            let _ = epoll.delete(conn.raw_fd());
            self.held[id].fetch_sub(1, Ordering::Relaxed);
            self.rebalance();
        }
    }
}

/// Spawns one reactor thread per handler, named `{name}-{id}`, each
/// running until the pool shuts down and its connections settle.
pub fn spawn<H: Handler + Send + 'static>(
    pool: &Arc<Pool>,
    name: &str,
    handlers: impl IntoIterator<Item = H>,
) -> io::Result<Vec<JoinHandle<()>>> {
    (handlers.into_iter().enumerate())
        .map(|(id, mut h)| {
            let pool = Arc::clone(pool);
            std::thread::Builder::new()
                .name(format!("{name}-{id}"))
                .spawn(move || run(&pool, id, &mut h))
        })
        .collect()
}

/// Runs reactor `id` until shutdown completes.
fn run<H: Handler>(pool: &Pool, id: usize, h: &mut H) {
    let (epoll, waker) = (&pool.epolls[id], &pool.wakers[id]);
    let mut conns: Conns<H::State> = Slab::new();
    let mut events = Events::with_capacity(EVENTS_PER_WAIT);
    let (mut tokens, mut ready): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let tick_ms = pool.tick.as_millis().min(i32::MAX as u128) as i32;
    // Wall-clock deadlines (sweep cadence, shutdown grace) are real
    // time by design, not simulated trace time.
    // sitw-lint: allow(clock-discipline)
    let mut next_sweep = Instant::now() + pool.tick;
    let mut shutdown_deadline: Option<Instant> = None;
    // Empty spin rounds buffer their epoll_wait count and flush it on
    // the next eventful or blocking wait: no telemetry lock per spin.
    let (mut idle_spins, mut pending_waits) = (0u32, 0u64);
    loop {
        if pool.shutting_down() {
            // sitw-lint: allow(clock-discipline)
            let now = Instant::now();
            let force = now >= *shutdown_deadline.get_or_insert(now + SHUTDOWN_GRACE);
            tokens.clear();
            tokens.extend(conns.tokens());
            for &token in &tokens {
                let Some(conn) = conns.get_mut(token) else {
                    continue;
                };
                conn.begin_shutdown();
                let flow = conn.pump(token, h);
                pool.finish(
                    id,
                    &mut conns,
                    token,
                    if force { Flow::Close } else { flow },
                );
            }
            if conns.is_empty() {
                return;
            }
        }

        // Poll, or sleep for the tick once the spin budget is spent. The
        // telemetry guard is never held across the wait.
        let telem = h.telem();
        let blocking = idle_spins >= SPIN_ROUNDS;
        let t0 = if blocking { telem.now() } else { 0 };
        let timeout = if blocking { tick_ms } else { 0 };
        let n = epoll.wait(&mut events, timeout).unwrap_or_default();
        pending_waits += 1;
        if n > 0 || blocking {
            let waited = if blocking {
                telem.now().saturating_sub(t0)
            } else {
                0
            };
            let waits = std::mem::take(&mut pending_waits);
            telem.with(|t| {
                t.epoll_waits += waits;
                t.epoll_wait_ns += waited;
                if n > 0 {
                    t.events_per_wake.record(n as u64);
                }
            });
        }

        // The round's clock: the slowloris sweep on the tick.
        // sitw-lint: allow(clock-discipline)
        let now = Instant::now();
        let sweep = now >= next_sweep;
        if sweep {
            next_sweep = now + pool.tick;
            tokens.clear();
            tokens.extend(conns.tokens());
            for &token in &tokens {
                let swept = conns
                    .get_mut(token)
                    .map(|c| c.sweep(now, pool.idle_timeout));
                if swept == Some(Flow::Close) {
                    pool.finish(id, &mut conns, token, Flow::Close);
                }
            }
        }
        h.round(now, sweep, &mut conns, &mut ready);

        for ev in events.iter().take(n) {
            match ev.token {
                WAKER_TOKEN => {
                    waker.drain();
                    h.telem().with(|t| t.wakeups += 1);
                    // A listening reactor is woken to accept.
                    pool.accept(id, &mut conns);
                }
                LISTENER_TOKEN => pool.accept(id, &mut conns),
                token => match conns.get_mut(token) {
                    Some(conn) => {
                        let flow = conn.on_event(token, ev.readable, ev.hangup, h);
                        pool.finish(id, &mut conns, token, flow);
                    }
                    None => h.event(ev, &mut conns, &mut ready),
                },
            }
        }

        // The round ends, and answers that became ready off their own
        // connection's socket go out, until neither leaves the other
        // anything to do.
        loop {
            h.flush(&mut conns, &mut ready);
            if ready.is_empty() {
                break;
            }
            for token in ready.drain(..) {
                if let Some(conn) = conns.get_mut(token) {
                    let flow = conn.pump(token, h);
                    pool.finish(id, &mut conns, token, flow);
                }
            }
        }

        if n > 0 {
            idle_spins = 0;
        } else {
            idle_spins += 1;
            if idle_spins < SPIN_ROUNDS {
                std::thread::yield_now();
            }
        }
    }
}
