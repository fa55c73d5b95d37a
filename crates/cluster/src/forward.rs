//! The router's client side: the node's reactor driver and connection
//! state machine, with the nodes as remote partitions.
//!
//! A [`Front`] is one reactor's handler. It reads a client's messages
//! off the shared [`Conn`] as a node's handler does; where a node
//! decides, it forwards. A frame's records are partitioned by ring owner
//! with the node's counting sort ([`Partition`]), and each owner's slice
//! goes to the reactor's one connection to that node ([`Upstream`]:
//! non-blocking after connect, in the same epoll, written once per loop
//! round).
//!
//! The one mechanism a node lacks is the owed answer. Each client keeps
//! its answers in request order ([`Client`]); each upstream keeps a FIFO
//! of the slices it owes, naming the client and the answer. A reply fills
//! its slice — a JSON response or a single-owner frame verbatim, a split
//! frame's records at their positions — and an answer goes out once its
//! slices are in and everything before it has gone. A frame reply with
//! more or fewer records than its slice fails the answer. Local answers
//! (parse errors, typed error frames) queue behind owed ones.
//!
//! An upstream that fails a read or write, closes, sends a reply nobody
//! is owed, or lets its oldest owed slice pass `upstream_timeout` is
//! retired: every answer it owes gets the typed 503 / `Unavailable`
//! naming the node, and the next forward reconnects. That connect,
//! bounded by `upstream_timeout`, is the one blocking call on the path.
//!
//! A failover may swap a slot's node while its old one still answers. An
//! upstream remembers the address it dialed and the ring epoch it last
//! confirmed it at; a forward under a newer epoch finds the slot's node
//! changed, closes the old connection and dials the new node. Answers the
//! old node still owes fail with the typed error at the end of that
//! round, and until then the slot's forwards do too.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sitw_reactor::{Event, Interest};
use sitw_serve::conn::Conn;
use sitw_serve::http::{write_request, ConnBuf, ReadEvent, Reply};
use sitw_serve::pool::Partition;
use sitw_serve::reactor::{Conns, Handler, WINDOW};
use sitw_serve::server::write_error;
use sitw_serve::wire::{self, BinErrorCode, BinInvoke, BinReply, InvokeRequest, ServerFrameDecode};
use sitw_serve::ReactorTelemHandle;
use sitw_telemetry::{Gate, Stage};

use crate::router::{control, read, RouterCtx, RouterTelem};

/// Upstream tokens count down from here, one per node slot — far above
/// any client connection's slab token.
const UPSTREAM_TOKEN: u64 = u64::MAX - 2;

/// Buffer capacity a released answer may keep for the next one.
const ANSWER_KEPT: usize = 64 * 1024;

/// One answer a client is owed.
#[derive(Debug, Default)]
struct Answer {
    /// Slices whose replies are still to come.
    missing: u32,
    /// What the client gets, once nothing is missing.
    bytes: Vec<u8>,
    /// A frame reassembled from its records, rather than a reply
    /// relayed whole.
    split: bool,
    /// A split frame's records in request order, and their positions,
    /// slice after slice.
    replies: Vec<BinReply>,
    positions: Vec<u32>,
    /// A frame's error from its lowest node slot: it answers the whole
    /// frame.
    error: Option<(usize, BinErrorCode, String)>,
    /// A traced answer: its trace id, and when its current hop began.
    hop: Option<(u64, u64)>,
}

impl Answer {
    fn fail(&mut self, node: usize, code: BinErrorCode, detail: String) {
        if self.error.as_ref().is_none_or(|(first, ..)| node < *first) {
            self.error = Some((node, code, detail));
        }
    }

    /// One slice's reply is in. The last one renders a split or failed
    /// frame and closes a traced answer's `await` and `reassemble` hops
    /// (its `egress` closes when the client's output flushes).
    // sitw-lint: hot-path
    fn arrived(&mut self, telem: &RouterTelem) {
        self.missing = self.missing.saturating_sub(1);
        if self.missing > 0 {
            return;
        }
        let t_reply = telem.now();
        match &self.error {
            Some((_, code, detail)) => wire::encode_error_frame(&mut self.bytes, *code, detail),
            None if self.split => {
                wire::encode_reply_records(&mut self.bytes, wire::BIN_VERSION_2, &self.replies)
            }
            None => {}
        }
        if let Some((id, t_fwd)) = self.hop {
            let t_out = telem.now();
            telem.try_with(&telem.recorder, |r| {
                r.push_spans([id], Stage::Await, t_fwd, t_reply);
                r.push_spans([id], Stage::Reassemble, t_reply, t_out);
            });
            self.hop = Some((id, t_out));
        }
    }
}

/// What the router keeps per client connection: the answers it owes,
/// in request order.
#[derive(Debug, Default)]
pub(crate) struct Client {
    answers: VecDeque<Answer>,
    /// The sequence number of `answers[0]`.
    head: u64,
    /// Released answers, kept for their buffers.
    spare: Vec<Answer>,
}

impl Client {
    /// Queues an answer awaiting `missing` replies; returns its sequence
    /// number and the answer.
    // sitw-lint: hot-path
    fn push(&mut self, missing: u32, split: bool) -> (u64, &mut Answer) {
        let mut answer = self.spare.pop().unwrap_or_default();
        (answer.missing, answer.split, answer.error, answer.hop) = (missing, split, None, None);
        answer.bytes.clear();
        answer.replies.clear();
        answer.positions.clear();
        let at = self.answers.len();
        self.answers.push_back(answer);
        (self.head + at as u64, &mut self.answers[at])
    }

    fn get(&mut self, seq: u64) -> Option<&mut Answer> {
        self.answers.get_mut(seq.checked_sub(self.head)? as usize)
    }
}

/// Where a local answer goes: straight out when nothing is owed, else
/// into a complete answer queued behind what is.
// sitw-lint: hot-path
fn local(conn: &mut Conn<Client>) -> &mut Vec<u8> {
    if conn.state.answers.is_empty() {
        &mut conn.out
    } else {
        &mut conn.state.push(0, false).1.bytes
    }
}

/// Moves the complete answers at the front into the client's output.
// sitw-lint: hot-path
fn release(conn: &mut Conn<Client>) {
    let client = &mut conn.state;
    while client.answers.front().is_some_and(|a| a.missing == 0) {
        let Some(answer) = client.answers.pop_front() else {
            break;
        };
        conn.out.extend_from_slice(&answer.bytes);
        conn.spans.extend(answer.hop);
        client.head += 1;
        let small = answer.bytes.capacity() <= ANSWER_KEPT && answer.replies.capacity() <= 1024;
        if small && client.spare.len() < WINDOW {
            client.spare.push(answer);
        }
    }
}

/// This reactor's connection to one node.
#[derive(Default)]
struct Upstream {
    conn: Option<ConnBuf>,
    /// The node `conn` was dialed to (kept after a close, so the answers
    /// it owed name it), and the ring epoch at which the slot last named
    /// it.
    addr: Option<SocketAddr>,
    epoch: u64,
    /// The slot names another node now, but `conn` still owes replies:
    /// the round's flush retires it.
    replaced: bool,
    /// Requests not yet written, and how much of them is.
    out: Vec<u8>,
    written: usize,
    /// Write readiness is registered: the socket took less than offered.
    blocked: bool,
    /// The replies owed, oldest first.
    owed: VecDeque<Slice>,
}

impl Upstream {
    /// Closes the connection and forgets what was left to write on it.
    fn close(&mut self, ctx: &RouterCtx, reactor: usize) {
        if let Some(buf) = self.conn.take() {
            let _ = ctx.pool.epoll(reactor).delete(buf.stream().as_raw_fd());
        }
        (self.written, self.blocked, self.replaced) = (0, false, false);
        self.out.clear();
    }

    fn owe(&mut self, token: u64, seq: u64, since: Instant, frame: Option<(u32, u32)>) {
        let slice = Slice {
            token,
            seq,
            since,
            frame,
        };
        self.owed.push_back(slice);
    }

    /// Writes what the socket takes; returns whether some is left.
    // sitw-lint: hot-path
    fn write(&mut self) -> io::Result<bool> {
        let Some(buf) = &self.conn else {
            return Ok(false);
        };
        let mut stream = buf.stream();
        while let Some(rest) = self.out.get(self.written..).filter(|r| !r.is_empty()) {
            match stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.written = 0;
        Ok(false)
    }
}

/// One reply an upstream owes: its part of answer `seq` of client
/// `token`.
struct Slice {
    token: u64,
    seq: u64,
    /// When it was forwarded (the reactor's round clock).
    since: Instant,
    /// A frame's slice — where its positions start in the answer, and
    /// how many records it carries — or `None` for an HTTP response.
    frame: Option<(u32, u32)>,
}

/// One reactor's handler (see the module docs).
pub(crate) struct Front {
    ctx: Arc<RouterCtx>,
    id: usize,
    /// The router keeps no reactor telemetry of its own.
    telem: ReactorTelemHandle,
    upstreams: Vec<Upstream>,
    /// A frame's records by owner.
    part: Partition,
    /// A frame's records' owners and the tenants' wire ids there.
    owners: Vec<(usize, u16)>,
    /// The `/invoke` body parsed out of a request, reused.
    invoke: InvokeRequest,
    /// The round's clock.
    now: Instant,
}

impl Front {
    /// The handler of reactor `id`.
    pub(crate) fn new(ctx: Arc<RouterCtx>, id: usize) -> Front {
        Front {
            upstreams: (0..ctx.slots).map(|_| Upstream::default()).collect(),
            ctx,
            id,
            telem: ReactorTelemHandle::disabled(),
            part: Partition::default(),
            owners: Vec::new(),
            invoke: InvokeRequest::default(),
            // Every round sets it before anything is forwarded.
            // sitw-lint: allow(clock-discipline)
            now: Instant::now(),
        }
    }

    /// Placement and forward for one JSON `/invoke`.
    // sitw-lint: hot-path
    fn invoke(&mut self, token: u64, conn: &mut Conn<Client>) {
        let (ctx, inv) = (&*self.ctx, &mut self.invoke);
        let telem = &ctx.telem;
        let t0 = telem.now();
        let trace = telem.sample(conn.req.trace);
        if trace.is_some() {
            ctx.metrics.traced_requests.fetch_add(1, Ordering::Relaxed);
        }
        if let Err(e) = wire::parse_invoke_into(&conn.req.body, inv) {
            return write_error(local(conn), 400, &e);
        }
        ctx.metrics.json_requests.fetch_add(1, Ordering::Relaxed);
        // Ingress covers the parse; the ring lookup is `route`.
        let t1 = telem.now();
        let (node, epoch) = {
            let ring = read(&ctx.ring);
            let node = match &inv.tenant {
                Some(name) => ring.node_of_tenant(name),
                None => ring.node_of_app(&inv.app),
            };
            (node, ring.epoch())
        };
        let Some(node) = node else {
            return write_error(local(conn), 503, "no live nodes");
        };
        let t2 = telem.now();
        if let Some(id) = trace {
            telem.try_with(&telem.recorder, |r| {
                r.push_spans([id], Stage::Ingress, t0, t1);
                r.push_spans([id], Stage::Route, t1, t2);
            });
        }
        let up = match upstream(&mut self.upstreams, ctx, self.id, node, epoch) {
            Ok(up) => up,
            Err(e) => {
                let detail = down(ctx, node, &self.upstreams[node], &e);
                return write_error(local(conn), 503, &detail);
            }
        };
        // Tenant names are the cluster-wide key, so the body forwards
        // verbatim; a trace id rides in the `x-sitw-trace` header.
        let _ = write_request(&mut up.out, "POST", "/invoke", trace, &conn.req.body);
        let (seq, answer) = conn.state.push(1, false);
        answer.hop = forwarded(telem, trace, t2);
        up.owe(token, seq, self.now, None);
    }

    /// Partition by owner and forward for one SITW-BIN frame.
    // sitw-lint: hot-path
    fn frame(&mut self, token: u64, conn: &mut Conn<Client>, trace: Option<u64>) {
        let ctx: &RouterCtx = &self.ctx;
        let telem = &ctx.telem;
        let t0 = telem.now();
        let trace = telem.sample(trace);
        if trace.is_some() {
            ctx.metrics.traced_requests.fetch_add(1, Ordering::Relaxed);
        }
        let n = conn.records.len();
        ctx.metrics.bin_frames.fetch_add(1, Ordering::Relaxed);
        (ctx.metrics.bin_records).fetch_add(n as u64, Ordering::Relaxed);
        // Ingress ends where placement (the `route` hop) begins.
        let t1 = telem.now();
        let epoch = match resolve(ctx, &conn.records, &mut self.owners) {
            Ok(epoch) => epoch,
            Err((code, detail)) => return wire::encode_error_frame(local(conn), code, &detail),
        };
        for &(node, _) in &self.owners {
            self.part.route(node);
        }
        self.part.sort(ctx.slots);
        let t2 = telem.now();
        if let Some(id) = trace {
            telem.try_with(&telem.recorder, |r| {
                r.push_spans([id], Stage::Ingress, t0, t1);
                r.push_spans([id], Stage::Route, t1, t2);
            });
        }
        // Connect every owner before sending anything, so a dead node
        // fails the frame without leaving part of it in flight elsewhere.
        let mut owners = 0;
        for node in (0..ctx.slots).filter(|&node| !self.part.slice(node).is_empty()) {
            owners += 1;
            if let Err(e) = upstream(&mut self.upstreams, ctx, self.id, node, epoch) {
                let detail = down(ctx, node, &self.upstreams[node], &e);
                return wire::encode_error_frame(local(conn), BinErrorCode::Unavailable, &detail);
            }
        }
        // A frame whole on one owner needs no reassembly: the node's
        // reply (or typed error) frame is the client's answer, byte for
        // byte. An empty frame has no owner and completes at once.
        let whole = owners == 1;
        let (seq, answer) = conn.state.push(owners.max(1), !whole);
        if !whole {
            // Placeholders: every position is filled before the frame
            // renders.
            answer
                .replies
                .resize(n, BinReply::OutOfOrder { last_ts: 0 });
        }
        let (records, ids) = (&conn.records, &self.owners);
        for (node, up) in self.upstreams.iter_mut().enumerate() {
            let slice = self.part.slice(node);
            if slice.is_empty() {
                continue;
            }
            let at = answer.positions.len() as u32;
            if !whole {
                answer.positions.extend_from_slice(slice);
            }
            let subframe = slice.iter().map(|&i| {
                let (rec, (_, id)) = (&records[i as usize], ids[i as usize]);
                (id, rec.app.as_str(), rec.ts)
            });
            wire::encode_request_frame_v2_from(&mut up.out, subframe, trace);
            up.owe(token, seq, self.now, Some((at, slice.len() as u32)));
            (ctx.metrics.forwarded_subframes).fetch_add(1, Ordering::Relaxed);
        }
        answer.hop = forwarded(telem, trace, t2);
        if owners == 0 {
            answer.arrived(telem);
            release(conn);
        }
    }

    /// Writes upstream `node`'s pending requests and keeps its write
    /// readiness in step; a failed write retires it.
    // sitw-lint: hot-path
    fn send(&mut self, node: usize, conns: &mut Conns<Client>, ready: &mut Vec<u64>) {
        let (ctx, id, up) = (&self.ctx, self.id, &mut self.upstreams[node]);
        let result = up.write().and_then(|blocked| match &up.conn {
            Some(buf) if blocked != up.blocked => {
                up.blocked = blocked;
                let interest = Interest {
                    readable: true,
                    writable: blocked,
                };
                let (fd, token) = (buf.stream().as_raw_fd(), UPSTREAM_TOKEN - node as u64);
                ctx.pool.epoll(id).modify(fd, token, interest)
            }
            _ => Ok(()),
        });
        if let Err(e) = result {
            self.fail(node, e, conns, ready);
        }
    }

    /// Reads the replies upstream `node` has in, each filling the slice
    /// it owes. A failed read, a close, or a reply nobody is owed
    /// retires the upstream.
    // sitw-lint: hot-path
    fn receive(&mut self, node: usize, conns: &mut Conns<Client>, ready: &mut Vec<u64>) {
        let failure = loop {
            let up = &mut self.upstreams[node];
            let Some(buf) = up.conn.as_mut() else {
                return;
            };
            let reply = match buf.read_reply() {
                Ok(Reply::Timeout) => return,
                Ok(Reply::Eof) => {
                    let closed = "peer closed the connection";
                    break io::Error::new(io::ErrorKind::UnexpectedEof, closed);
                }
                Ok(reply) => reply,
                Err(e) => break e,
            };
            let Some(slice) = up.owed.pop_front() else {
                break unexpected();
            };
            if let Err(e) = deliver(&self.ctx, node, &slice, reply, buf.reply_raw(), conns) {
                break e;
            }
            wake(ready, slice.token);
        };
        self.fail(node, failure, conns, ready);
    }

    /// Retires upstream `node` after `err`: every answer it owes gets the
    /// typed error naming the node it was dialed to, and the next
    /// forward reconnects.
    fn fail(
        &mut self,
        node: usize,
        err: io::Error,
        conns: &mut Conns<Client>,
        ready: &mut Vec<u64>,
    ) {
        let (ctx, up) = (&self.ctx, &mut self.upstreams[node]);
        up.close(ctx, self.id);
        if up.owed.is_empty() {
            return;
        }
        let detail = down(ctx, node, up, &err);
        for slice in up.owed.drain(..) {
            let Some(conn) = conns.get_mut(slice.token) else {
                continue;
            };
            let Some(answer) = conn.state.get(slice.seq) else {
                continue;
            };
            if slice.frame.is_some() {
                answer.fail(node, BinErrorCode::Unavailable, detail.clone());
            } else {
                write_error(&mut answer.bytes, 503, &detail);
            }
            answer.arrived(&ctx.telem);
            release(conn);
            wake(ready, slice.token);
        }
    }
}

impl Handler for Front {
    type State = Client;

    fn telem(&self) -> &ReactorTelemHandle {
        &self.telem
    }

    fn window(&self) -> usize {
        WINDOW
    }

    fn owed(state: &Client) -> usize {
        state.answers.len()
    }

    /// Forwards `/invoke`s and frames; answers the rest locally, a
    /// control request once nothing is owed on its connection.
    // sitw-lint: hot-path
    fn readable(&mut self, token: u64, conn: &mut Conn<Client>) {
        while let Some(event) = conn.next(conn.state.answers.len(), WINDOW, &self.telem) {
            match event {
                ReadEvent::Request => {
                    let path = conn.req.path.split('?').next().unwrap_or_default();
                    if conn.req.method == "POST" && path == "/invoke" {
                        self.invoke(token, conn);
                    } else if conn.state.answers.is_empty() {
                        control(&self.ctx, &conn.req, &mut conn.out);
                    } else {
                        conn.hold();
                    }
                }
                ReadEvent::Frame { trace } => self.frame(token, conn, trace),
                ReadEvent::FrameError { code, detail, .. } => {
                    wire::encode_error_frame(local(conn), code, &detail)
                }
                ReadEvent::BodyTooLarge { .. } => {
                    write_error(local(conn), 413, "payload too large")
                }
                ReadEvent::Eof | ReadEvent::Timeout => {}
            }
        }
    }

    /// Closes the `egress` hop of the traced answers just flushed.
    fn flushed(&self, spans: &[(u64, u64)], _t0: u64, _written: usize) {
        let telem = &self.ctx.telem;
        let t = telem.now();
        telem.try_with(&telem.recorder, |r| {
            for &(id, start) in spans {
                r.push_spans([id], Stage::Egress, start, t);
            }
        });
    }

    /// Keeps the round's clock and, on the tick, retires every upstream
    /// whose oldest owed reply is past `upstream_timeout`.
    fn round(
        &mut self,
        now: Instant,
        sweep: bool,
        conns: &mut Conns<Client>,
        ready: &mut Vec<u64>,
    ) {
        self.now = now;
        if !sweep {
            return;
        }
        let timeout = self.ctx.cfg.upstream_timeout;
        for node in 0..self.upstreams.len() {
            let oldest = self.upstreams[node].owed.front();
            if oldest.is_some_and(|s| now.saturating_duration_since(s.since) >= timeout) {
                let late = io::Error::new(io::ErrorKind::TimedOut, "read timed out");
                self.fail(node, late, conns, ready);
            }
        }
    }

    fn event(&mut self, ev: Event, conns: &mut Conns<Client>, ready: &mut Vec<u64>) {
        let node = UPSTREAM_TOKEN.wrapping_sub(ev.token) as usize;
        if node >= self.upstreams.len() {
            return; // A client connection retired earlier this round.
        }
        if ev.writable {
            self.send(node, conns, ready);
        }
        if ev.readable || ev.hangup {
            self.receive(node, conns, ready);
        }
    }

    /// Retires the upstreams a failover replaced while they owed replies,
    /// and writes what this round forwarded.
    fn flush(&mut self, conns: &mut Conns<Client>, ready: &mut Vec<u64>) {
        for node in 0..self.upstreams.len() {
            let up = &self.upstreams[node];
            if up.replaced {
                self.fail(node, replaced(), conns, ready);
            } else if !up.blocked && !up.out.is_empty() {
                self.send(node, conns, ready);
            }
        }
    }
}

/// This reactor's connection to `node` as the ring at `epoch` places
/// it, connected first if it has none: the one blocking call of the data
/// path, bounded by `upstream_timeout`. A connection to a node the slot
/// no longer names is closed first, or, while it still owes replies,
/// refused until the round's flush retires it.
// sitw-lint: hot-path
fn upstream<'u>(
    ups: &'u mut [Upstream],
    ctx: &RouterCtx,
    id: usize,
    node: usize,
    epoch: u64,
) -> io::Result<&'u mut Upstream> {
    let up = &mut ups[node];
    // A failover swaps the slot before it bumps the epoch, so a newer
    // epoch than the connection's shows any swap.
    if up.conn.is_some() && up.epoch != epoch {
        if up.addr != Some(ctx.node_addr(node)) {
            if !up.owed.is_empty() {
                up.replaced = true;
                return Err(replaced());
            }
            up.close(ctx, id);
        }
        up.epoch = epoch;
    }
    if up.conn.is_none() {
        // Named before the dial, so a failed connect names what it dialed.
        let addr = *up.addr.insert(ctx.node_addr(node));
        let stream = TcpStream::connect_timeout(&addr, ctx.cfg.upstream_timeout)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let token = UPSTREAM_TOKEN - node as u64;
        (ctx.pool.epoll(id)).add(stream.as_raw_fd(), token, Interest::READ)?;
        (up.conn, up.epoch) = (Some(ConnBuf::new(stream)), epoch);
    }
    Ok(up)
}

/// Resolves every record of a frame to its ring owner and the tenant's
/// wire id there, returning the ring epoch it placed them at, or to the
/// typed error that refuses the frame whole.
// sitw-lint: hot-path
fn resolve(
    ctx: &RouterCtx,
    records: &[BinInvoke],
    owners: &mut Vec<(usize, u16)>,
) -> Result<u64, (BinErrorCode, String)> {
    owners.clear();
    let (ring, nodes) = (read(&ctx.ring), read(&ctx.nodes));
    // sitw-lint: allow(hot-path-alloc)
    let no_live = || (BinErrorCode::Unavailable, String::from("no live nodes"));
    for rec in records {
        let Some(t) = (rec.tenant as usize).checked_sub(1) else {
            owners.push((ring.node_of_app(&rec.app).ok_or_else(no_live)?, 0));
            continue;
        };
        let Some(tenant) = ctx.cfg.tenants.get(t) else {
            // sitw-lint: allow(hot-path-alloc)
            let detail = format!("unknown tenant id {}", rec.tenant);
            return Err((BinErrorCode::Malformed, detail));
        };
        let node = ring.node_of_tenant(&tenant.name).ok_or_else(no_live)?;
        let slot = &nodes[node];
        let Some(&id) = slot.ids.get(&tenant.name) else {
            let (name, node) = (&tenant.name, &slot.name);
            // sitw-lint: allow(hot-path-alloc)
            let detail = format!("tenant '{name}' not provisioned on node {node}");
            return Err((BinErrorCode::Unavailable, detail));
        };
        owners.push((node, id));
    }
    Ok(ring.epoch())
}

/// Fills `slice`'s part of its answer with one upstream reply (`raw`, its
/// exact bytes) and releases what became ready. A reply frame whose
/// record count is not the slice's fails the answer with `Unavailable`.
/// An error: the reply is not the kind the slice is owed.
// sitw-lint: hot-path
fn deliver(
    ctx: &RouterCtx,
    node: usize,
    slice: &Slice,
    reply: Reply,
    raw: &[u8],
    conns: &mut Conns<Client>,
) -> io::Result<()> {
    use ServerFrameDecode::{Error, Reply as Records};
    let frame = match reply {
        Reply::Http(_) if slice.frame.is_none() => None,
        Reply::Frame(frame) if slice.frame.is_some() => Some(frame),
        _ => return Err(unexpected()),
    };
    // The client may be gone; its reply was read all the same, which
    // keeps the upstream in step.
    let Some(conn) = conns.get_mut(slice.token) else {
        return Ok(());
    };
    let Some(answer) = conn.state.get(slice.seq) else {
        return Ok(());
    };
    let (at, n) = slice.frame.unwrap_or_default();
    match frame {
        Some(Records { records, .. }) if records.len() != n as usize => {
            let (name, got) = (ctx.node_name(node), records.len());
            // sitw-lint: allow(hot-path-alloc)
            let detail = format!("node {name} returned {got} records for {n}");
            answer.fail(node, BinErrorCode::Unavailable, detail);
        }
        Some(Records { records, .. }) if answer.split => {
            let positions = answer.positions.get(at as usize..(at + n) as usize);
            for (&pos, rec) in positions.unwrap_or_default().iter().zip(records) {
                if let Some(reply) = answer.replies.get_mut(pos as usize) {
                    *reply = rec;
                }
            }
        }
        Some(Error { code, detail, .. }) if answer.split => answer.fail(node, code, detail),
        _ => answer.bytes.extend_from_slice(raw),
    }
    answer.arrived(&ctx.telem);
    release(conn);
    Ok(())
}

/// Closes a traced request's `forward` hop, begun at `t2`, and opens its
/// `await`.
fn forwarded(telem: &RouterTelem, trace: Option<u64>, t2: u64) -> Option<(u64, u64)> {
    let id = trace.filter(|_| telem.enabled())?;
    let t3 = telem.now();
    telem.try_with(&telem.recorder, |r| {
        r.push_spans([id], Stage::Forward, t2, t3)
    });
    Some((id, t3))
}

/// The detail of a failed node's typed error, naming the address `up`
/// dialed (a failover may have put another node in the slot since);
/// counts the failure against the slot.
fn down(ctx: &RouterCtx, node: usize, up: &Upstream, e: &io::Error) -> String {
    ctx.metrics.node_error(node);
    let addr = up.addr.unwrap_or_else(|| ctx.node_addr(node));
    format!("node {addr} down: {e}")
}

/// Marks a client connection for pumping (once per run of replies to
/// it, so the list stays as short as the clients a read served).
fn wake(ready: &mut Vec<u64>, token: u64) {
    if ready.last() != Some(&token) {
        ready.push(token);
    }
}

/// Why a connection to a node a failover replaced fails what it owes.
fn replaced() -> io::Error {
    let detail = "replaced by a failover";
    io::Error::new(io::ErrorKind::ConnectionAborted, detail)
}

fn unexpected() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "unexpected upstream reply")
}
