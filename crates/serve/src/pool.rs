//! The node's connection handler (`Node`) and its decide scratch
//! (`Batch`), where a SITW-BIN frame or a JSON run is partitioned by
//! shard and decided.
//!
//! [`Partition`] is the routing half, shared with the cluster router,
//! whose partitions are nodes: each record's owner is noted in arrival
//! order, and a counting sort groups the record indexes by owner. A
//! frame's records sit in its connection's record buffer; a JSON run's
//! requests are parked in the batch while their read burst lasts, each
//! name copied into a buffer an earlier run left (at most
//! `SPARE_NAMES` kept, none past `NAME_CAP`). Deciding takes each
//! touched shard's lock in ascending order and writes every result at
//! its record's index; nothing allocates in steady state.
//!
//! The unit of JSON work is the **read burst**: consecutive `POST
//! /invoke`s are parked and decided together when the burst ends — the
//! socket drained, backpressure, EOF, or any other message, which the run
//! ends before it is answered. There is no timer: a lone request is a run
//! of one, and `reactor::WINDOW` bounds a run. JSON and SITW-BIN share
//! one decide path, one lock per touched shard per run or frame, and
//! everything else is answered as it is read: a node never owes.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLockReadGuard};

use sitw_fleet::{TenantId, TenantRegistry};
use sitw_telemetry::{Gate, Stage};

use crate::conn::Conn;
use crate::follow::NOT_PROMOTED;
use crate::http::{write_response, ReadEvent};
use crate::reactor::{self, Handler, ReactorTelemHandle};
use crate::server::{handle_control, parse_and_route, write_error, ServerCtx};
use crate::shard::{Decision, InvokeError, ShardWorker, Spans};
use crate::wire::{self, push_u64, BinErrorCode, BinInvoke, InvokeRequest};

/// Largest name capacity (bytes) a parked request keeps for the next
/// run.
pub(crate) const NAME_CAP: usize = 256;

/// Parked requests whose buffers one reactor keeps between runs.
pub(crate) const SPARE_NAMES: usize = 4096;

/// Decoded records (and their name buffers) a connection keeps between
/// frames; a longer frame's surplus is freed once it is decided.
const RECORDS_KEPT: usize = 1024;

/// A [`Conn::spans`] value marking a JSON response; a frame's value is
/// its record count.
const JSON_SPAN: u64 = 1 << 63;

/// Record indexes grouped by owning partition (see the module docs).
/// Every user leaves it empty.
#[derive(Debug, Default)]
pub struct Partition {
    /// The owner of each routed record, by record index.
    routes: Vec<u32>,
    /// After [`Partition::sort`]: the record indexes grouped by owner in
    /// ascending order, arrival order within an owner.
    order: Vec<u32>,
    /// After [`Partition::sort`]: where each owner's group ends.
    ends: Vec<usize>,
}

impl Partition {
    /// Notes the owner of the next record (records are routed in index
    /// order).
    // sitw-lint: hot-path
    pub fn route(&mut self, owner: usize) {
        self.routes.push(owner as u32);
    }

    /// Forgets the routed records.
    pub fn clear(&mut self) {
        self.routes.clear();
    }

    /// Groups the routed record indexes by owner, for `owners` owners
    /// (a counting sort, stable within an owner), and consumes the
    /// routes. A record routed past the last owner is dropped.
    // sitw-lint: hot-path
    pub fn sort(&mut self, owners: usize) {
        // `ends` first counts, then holds each group's start, then
        // (after placing) its end.
        self.ends.clear();
        self.ends.resize(owners, 0);
        for &p in &self.routes {
            if let Some(count) = self.ends.get_mut(p as usize) {
                *count += 1;
            }
        }
        let mut routed = 0;
        for end in &mut self.ends {
            (*end, routed) = (routed, routed + *end);
        }
        self.order.clear();
        self.order.resize(routed, 0);
        for (i, &p) in self.routes.iter().enumerate() {
            if let Some(at) = self.ends.get_mut(p as usize) {
                if let Some(slot) = self.order.get_mut(*at) {
                    *slot = i as u32;
                }
                *at += 1;
            }
        }
        self.routes.clear();
    }

    /// The record indexes `owner` got at the last [`Partition::sort`],
    /// in arrival order.
    pub fn slice(&self, owner: usize) -> &[u32] {
        let begin = match owner.checked_sub(1) {
            Some(prev) => self.ends.get(prev).copied().unwrap_or_default(),
            None => 0,
        };
        let end = self.ends.get(owner).copied().unwrap_or_default();
        self.order.get(begin..end).unwrap_or_default()
    }
}

/// One reactor's decide scratch (see the module docs). Every user
/// leaves it empty.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// The routed records' shards: a frame's are noted straight here.
    pub part: Partition,
    /// The open JSON run's requests in arrival order: the first `parked`
    /// are live, the rest keep their names' buffers for later runs.
    run: Vec<BinInvoke>,
    parked: usize,
    /// Span ids of the run's requests, indexed like `run` (empty with
    /// telemetry off).
    pub spans: Vec<u64>,
    /// The last decided frame's or run's results, by record index.
    pub results: Vec<Result<Decision, InvokeError>>,
}

impl Batch {
    /// Requests parked on the open run.
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Parks one JSON request on the open run, for `shard`.
    // sitw-lint: hot-path
    pub fn park(&mut self, shard: usize, tenant: TenantId, app: &str, ts: u64) {
        let idx = self.parked;
        match self.run.get_mut(idx) {
            Some(r) => {
                r.tenant = tenant;
                r.app.clear();
                r.app.push_str(app);
                r.ts = ts;
            }
            None => self.run.push(BinInvoke {
                tenant,
                // The first run this long grows the scratch, once.
                app: app.to_owned(), // sitw-lint: allow(hot-path-alloc)
                ts,
            }),
        }
        self.part.route(shard);
        self.parked += 1;
    }

    /// Decides every routed record — `frame`'s records under its span,
    /// or else the open run's — shard by shard in ascending order, each
    /// slice under its shard's lock and no other, into
    /// [`Batch::results`]. Returns `false` when a touched shard's lock
    /// is poisoned: a frame then decides nothing, while a run's requests
    /// for that shard are left [`InvokeError::Unavailable`] and the
    /// others decided. A decided run stays parked until
    /// [`Batch::close_run`].
    // sitw-lint: hot-path
    pub fn decide(
        &mut self,
        shards: &[Mutex<ShardWorker>],
        frame: Option<(&[BinInvoke], u64)>,
        telem: &ReactorTelemHandle,
    ) -> bool {
        let (records, spans) = match frame {
            Some((records, span)) => (records, Spans::Frame(span)),
            None => (&self.run[..self.parked], Spans::Json(&self.spans)),
        };
        self.results.clear();
        self.results
            .resize(records.len(), Err(InvokeError::Unavailable));
        self.part.sort(shards.len());
        // A frame is answered whole or refused whole: one that touches a
        // poisoned shard decides nothing.
        let part = &self.part;
        let poisoned = |(s, shard): (usize, &Mutex<ShardWorker>)| {
            !part.slice(s).is_empty() && shard.is_poisoned()
        };
        if frame.is_some() && shards.iter().enumerate().any(poisoned) {
            return false;
        }
        let mut available = true;
        for (s, shard) in shards.iter().enumerate() {
            let slice = self.part.slice(s);
            if slice.is_empty() {
                continue;
            }
            let wait_ns = telem.now();
            match shard.lock() {
                Ok(mut worker) => worker.decide(records, slice, &mut self.results, spans, wait_ns),
                Err(_) => available = false,
            }
        }
        available
    }

    /// Closes the decided run: frees names past [`NAME_CAP`], keeps at
    /// most [`SPARE_NAMES`] buffers, and drops the run's span ids.
    pub fn close_run(&mut self) {
        for r in &mut self.run[..self.parked] {
            if r.app.capacity() > NAME_CAP {
                r.app = String::new();
            }
        }
        self.run.truncate(SPARE_NAMES);
        self.parked = 0;
        self.spans.clear();
    }
}

/// A node's handler: one per reactor thread (see the module docs).
pub(crate) struct Node {
    ctx: Arc<ServerCtx>,
    telem: ReactorTelemHandle,
    /// Response-body scratch (JSON rendering).
    scratch: Vec<u8>,
    /// Where a frame or a JSON run is partitioned and decided.
    batch: Batch,
    /// The `/invoke` body parsed out of a request, reused.
    invoke: InvokeRequest,
}

impl Node {
    /// The handler of reactor `id`.
    pub fn new(ctx: Arc<ServerCtx>, id: usize) -> Node {
        let telem = ReactorTelemHandle::new(
            ctx.telem.enabled,
            ctx.telem.clock,
            Arc::clone(&ctx.telem.reactors[id]),
            id,
        );
        Node {
            ctx,
            telem,
            scratch: Vec::with_capacity(256),
            batch: Batch::default(),
            invoke: InvokeRequest::default(),
        }
    }
}

impl Handler for Node {
    type State = ();

    fn telem(&self) -> &ReactorTelemHandle {
        &self.telem
    }

    fn window(&self) -> usize {
        reactor::WINDOW
    }

    /// Parses and answers everything the socket has: one read burst.
    /// Whatever JSON run the burst parked is decided on **every** way
    /// out — drained socket, backpressure, EOF, a fatal error, even a
    /// broken stream (those invocations happened) — so the reactor-wide
    /// batch is empty again when this returns.
    // sitw-lint: hot-path
    fn readable(&mut self, _token: u64, conn: &mut Conn<()>) {
        let ctx: &ServerCtx = &self.ctx;
        let mut b = Burst {
            ctx,
            telem: &self.telem,
            scratch: &mut self.scratch,
            batch: &mut self.batch,
            invoke: &mut self.invoke,
            mark: self.telem.now(),
            registry: None,
            following: ctx.following(),
            t_read_end: 0,
        };
        while let Some(event) = conn.next(b.batch.parked(), reactor::WINDOW, b.telem) {
            if !matches!(event, ReadEvent::Request) {
                // Only another request can extend the run; anything
                // else ends it *before* answering itself (arrival
                // order).
                b.flush_run(conn);
            }
            match event {
                ReadEvent::Request => b.request(conn),
                ReadEvent::Frame { trace } => b.frame(conn, trace),
                ReadEvent::FrameError { code, detail, .. } => b.bin_error(conn, code, &detail),
                ReadEvent::BodyTooLarge { .. } => {
                    write_error(&mut conn.out, 413, "payload too large")
                }
                ReadEvent::Eof | ReadEvent::Timeout => {}
            }
        }
        b.flush_run(conn);
    }

    /// Settles the write-stage spans of a full flush. One write carries
    /// every answer it holds, so its cost is amortized over all of their
    /// decisions — each JSON answer one, each frame its record count —
    /// and every stage histogram stays invocation-weighted: the write
    /// stage sums to the flush, as the others sum to their own clocks.
    fn flushed(&self, spans: &[(u64, u64)], t0: u64, written: usize) {
        if !self.telem.enabled() {
            return;
        }
        let t1 = self.telem.now();
        let decisions: u64 = spans
            .iter()
            .map(|&(_, n)| if n == JSON_SPAN { 1 } else { n })
            .sum();
        let per = t1.saturating_sub(t0) / decisions.max(1);
        self.telem.with(|t| {
            t.write_bursts.record(written as u64);
            for &(_, n) in spans {
                match n {
                    JSON_SPAN => t.write.json.record(per),
                    n => t.write.bin.record_n(per, n),
                }
            }
            t.recorder
                .push_spans(spans.iter().map(|&(span, _)| span), Stage::Write, t0, t1);
        });
    }
}

/// One read burst's state, on its stack: the reactor's scratch and above
/// all the JSON run under construction, whose requests sit in the batch
/// until [`Burst::flush_run`] decides them.
struct Burst<'a> {
    ctx: &'a ServerCtx,
    telem: &'a ReactorTelemHandle,
    scratch: &'a mut Vec<u8>,
    batch: &'a mut Batch,
    invoke: &'a mut InvokeRequest,
    /// The read-stage mark: everything between here and a message
    /// parsing out is that message's read time; deciding advances the
    /// mark so back-to-back pipelined messages don't double-count.
    mark: u64,
    /// Registry guard, taken at a run's first request and released
    /// before it is decided: one lock per burst instead of one per
    /// request, and never held across a shard lock, a frame's
    /// partitioning (which takes its own — re-entrant reads can deadlock
    /// behind a queued writer) or a control request.
    registry: Option<RwLockReadGuard<'a, TenantRegistry>>,
    /// The node is an unpromoted standby: its invokes are refused. Read
    /// once per burst.
    following: bool,
    /// When the open run's first request parsed out.
    t_read_end: u64,
}

impl Burst<'_> {
    /// Handles one parsed HTTP request: an `/invoke` is parked on the
    /// burst's run, anything else — a standby's invoke included, which
    /// `handle_control` refuses — ends the run and is answered.
    // sitw-lint: hot-path
    fn request(&mut self, conn: &mut Conn<()>) {
        let req = &conn.req;
        let path = req.path.split('?').next().unwrap_or_default();
        if req.method != "POST" || path != "/invoke" || self.following {
            self.flush_run(conn);
            handle_control(&conn.req, self.ctx, &mut conn.out);
            return;
        }
        let ctx = self.ctx;
        if self.batch.parked() == 0 {
            self.t_read_end = self.telem.now();
        }
        let registry = self.registry.get_or_insert_with(|| ctx.registry_read());
        match parse_and_route(&req.body, self.invoke, registry, ctx.shards.len()) {
            Ok((tenant, shard)) => {
                if self.telem.enabled() {
                    // A propagated fleet trace id becomes the span id, so
                    // the router can pick this request's stages out of
                    // `/debug/trace` by id.
                    self.batch.spans.push(match req.trace {
                        Some(id) => id,
                        None => self.telem.new_span(),
                    });
                }
                let inv = &self.invoke;
                self.batch.park(shard, tenant, &inv.app, inv.ts);
            }
            Err(e) => {
                self.flush_run(conn);
                write_error(&mut conn.out, 400, &e);
            }
        }
    }

    /// Ends the burst's JSON run, if one is open: decides it (each owning
    /// shard's requests under its lock, in ascending shard order) and
    /// renders one response per request in arrival order. The read and
    /// decode stages are clocked once for the whole run and recorded per
    /// request at the run mean (counts stay exact): read ends where the
    /// run's first request parsed out — the socket read is behind it —
    /// and decode ends here.
    // sitw-lint: hot-path
    fn flush_run(&mut self, conn: &mut Conn<()>) {
        // Released first: deciding takes shard locks, and a frame's
        // partitioning or a control request takes its own guard.
        self.registry = None;
        let n = self.batch.parked() as u64;
        if n == 0 {
            return;
        }
        let telem = self.telem;
        if telem.enabled() {
            let decoded = telem.now();
            let (mark, t_read_end) = (self.mark, self.t_read_end);
            let spans = &self.batch.spans;
            telem.with(|t| {
                t.read.json.record_n(t_read_end.saturating_sub(mark) / n, n);
                t.decode
                    .json
                    .record_n(decoded.saturating_sub(t_read_end) / n, n);
                t.recorder
                    .push_spans(spans.iter().copied(), Stage::Read, mark, t_read_end);
                t.recorder
                    .push_spans(spans.iter().copied(), Stage::Decode, t_read_end, decoded);
            });
        }
        // A poisoned shard's requests come back `Unavailable` (503).
        self.batch.decide(&self.ctx.shards, None, telem);
        let t0 = telem.now();
        for result in &self.batch.results {
            render_json(&mut conn.out, self.scratch, result);
        }
        if telem.enabled() {
            // The run is rendered in one go; every response is recorded
            // at the run mean (counts stay exact).
            let t1 = telem.now();
            let spans = &self.batch.spans;
            telem.with(|t| {
                t.render.json.record_n(t1.saturating_sub(t0) / n, n);
                t.recorder
                    .push_spans(spans.iter().copied(), Stage::Render, t0, t1);
            });
            conn.spans
                .extend(spans.iter().map(|&span| (span, JSON_SPAN)));
            self.mark = t1;
        }
        self.batch.close_run();
    }

    /// Answers one SITW-BIN request frame: records are partitioned by
    /// `(tenant, app)` route, each owning shard decides its slice under
    /// its lock, and the reply frame is encoded in record order. A frame
    /// touching a poisoned shard gets an `Unavailable` error frame.
    // sitw-lint: hot-path
    fn frame(&mut self, conn: &mut Conn<()>, trace: Option<u64>) {
        let (ctx, telem) = (self.ctx, self.telem);
        let n = conn.records.len();
        let t_read_end = telem.now();
        ctx.frames.fetch_add(1, Ordering::Relaxed);
        if ctx.following() {
            // Cold refusal path: a standby decides nothing.
            return self.bin_error(conn, BinErrorCode::Unavailable, NOT_PROMOTED);
        }
        let shards = ctx.shards.len();
        {
            let registry = ctx.registry_read();
            for (idx, rec) in conn.records.iter().enumerate() {
                if registry.get(rec.tenant).is_none() {
                    self.batch.part.clear();
                    // Cold error path: the frame is rejected anyway.
                    // sitw-lint: allow(hot-path-alloc)
                    let detail = format!("record {idx}: unknown tenant id {}", rec.tenant);
                    return self.bin_error(conn, BinErrorCode::Malformed, &detail);
                }
                (self.batch.part).route(registry.shard_of(rec.tenant, &rec.app, shards));
            }
        }
        // One span covers the whole frame: read ends where decode
        // (partitioning) starts, and decode ends where deciding starts. A
        // propagated fleet trace id becomes the frame's span id.
        let span = if telem.enabled() {
            let span = trace.unwrap_or_else(|| telem.new_span());
            let decoded = telem.now();
            let mark = self.mark;
            // Frame costs are amortized per record so the bin stage
            // histograms stay invocation-weighted like the json ones.
            let per = |dt: u64| dt / n.max(1) as u64;
            telem.with(|t| {
                t.read
                    .bin
                    .record_n(per(t_read_end.saturating_sub(mark)), n as u64);
                t.decode
                    .bin
                    .record_n(per(decoded.saturating_sub(t_read_end)), n as u64);
                t.recorder.push_spans([span], Stage::Read, mark, t_read_end);
                t.recorder
                    .push_spans([span], Stage::Decode, t_read_end, decoded);
            });
            span
        } else {
            0
        };
        let frame = Some((conn.records.as_slice(), span));
        if !self.batch.decide(&ctx.shards, frame, telem) {
            conn.records.truncate(RECORDS_KEPT);
            return self.bin_error(conn, BinErrorCode::Unavailable, "shard unavailable");
        }
        let t0 = telem.now();
        wire::encode_reply_frame(&mut conn.out, &self.batch.results);
        ctx.batched_decisions.fetch_add(n as u64, Ordering::Relaxed);
        conn.records.truncate(RECORDS_KEPT);
        if telem.enabled() {
            let t1 = telem.now();
            let n = n as u64;
            telem.with(|t| {
                t.render.bin.record_n(t1.saturating_sub(t0) / n.max(1), n);
                t.recorder.push_spans([span], Stage::Render, t0, t1);
            });
            conn.spans.push((span, n));
            self.mark = t1;
        }
    }

    /// Answers a typed SITW-BIN error frame.
    fn bin_error(&mut self, conn: &mut Conn<()>, code: BinErrorCode, detail: &str) {
        self.ctx.proto_errors.fetch_add(1, Ordering::Relaxed);
        wire::encode_error_frame(&mut conn.out, code, detail);
    }
}

/// Renders one JSON decision (or rejection) as a full HTTP response,
/// through the reactor's reusable body scratch.
// sitw-lint: hot-path
fn render_json(out: &mut Vec<u8>, scratch: &mut Vec<u8>, result: &Result<Decision, InvokeError>) {
    match result {
        Ok(decision) => {
            scratch.clear();
            wire::render_decision(scratch, decision);
            write_response(out, 200, "application/json", scratch);
        }
        Err(InvokeError::OutOfOrder { last_ts }) => {
            scratch.clear();
            scratch.extend_from_slice(b"{\"error\":\"out-of-order\",\"last_ts\":");
            push_u64(scratch, *last_ts);
            scratch.push(b'}');
            write_response(out, 409, "application/json", scratch);
        }
        Err(InvokeError::UnknownTenant) => {
            // Unreachable: tenants are resolved before deciding.
            write_response(
                out,
                400,
                "application/json",
                b"{\"error\":\"unknown tenant\"}",
            );
        }
        Err(InvokeError::Unavailable) => {
            write_response(
                out,
                503,
                "application/json",
                b"{\"error\":\"shard unavailable\"}",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(batch: &Batch) -> usize {
        batch.run.iter().filter(|r| r.app.capacity() > 0).count()
    }

    /// Decides the open run against two fresh shards with no tenants.
    fn decide_run(batch: &mut Batch) {
        let shards: Vec<_> = (0..2)
            .map(|id| Mutex::new(ShardWorker::new(id, Vec::new()).unwrap()))
            .collect();
        assert!(batch.decide(&shards, None, &ReactorTelemHandle::disabled()));
        batch.close_run();
    }

    #[test]
    fn a_recycled_name_is_reused_with_its_capacity() {
        let mut batch = Batch::default();
        batch.park(0, 0, "app-000001", 1);
        decide_run(&mut batch);
        assert_eq!((batch.parked(), names(&batch)), (0, 1));
        batch.park(0, 0, "app-2", 2);
        let name = &batch.run[0].app;
        assert_eq!(name, "app-2");
        assert!(
            name.capacity() >= "app-000001".len(),
            "the spare's capacity"
        );
        // An unknown tenant is a typed rejection, in the run's order.
        decide_run(&mut batch);
        assert_eq!(batch.results, [Err(InvokeError::UnknownTenant)]);
    }

    #[test]
    fn an_oversized_name_is_not_pooled() {
        let hostile = "x".repeat(64 * 1024);
        let edge = "y".repeat(NAME_CAP);
        let mut batch = Batch::default();
        batch.park(0, 0, &hostile, 1);
        batch.park(0, 0, &edge, 2);
        decide_run(&mut batch);
        assert_eq!(names(&batch), 1, "only the name within the cap is kept");
        assert!(batch.run.iter().all(|r| r.app.capacity() <= NAME_CAP));
    }

    #[test]
    fn the_spare_lists_stay_at_their_caps() {
        let mut batch = Batch::default();
        for i in 0..SPARE_NAMES + 100 {
            batch.park(i % 2, 0, "a", i as u64);
        }
        decide_run(&mut batch);
        assert_eq!(batch.results.len(), SPARE_NAMES + 100);
        assert_eq!(batch.run.len(), SPARE_NAMES);
        assert!(batch.part.routes.is_empty(), "deciding consumes the routes");
        // A refused frame's routes are forgotten too.
        batch.part.route(1);
        batch.part.clear();
        assert!(batch.part.routes.is_empty());
    }

    #[test]
    fn a_partition_groups_indexes_by_owner_in_arrival_order() {
        let mut part = Partition::default();
        for owner in [2, 0, 2, 1, 0, 9] {
            part.route(owner);
        }
        part.sort(3);
        let slices: Vec<&[u32]> = (0..4).map(|o| part.slice(o)).collect();
        assert_eq!(slices, [&[1, 4][..], &[3], &[0, 2], &[]]);
    }
}
