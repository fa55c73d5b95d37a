//! The reactor's decide scratch: where one SITW-BIN frame or JSON run is
//! partitioned by shard and decided.
//!
//! A frame's records already sit in its connection's record buffer, so
//! only their owning shards are noted. A JSON run's requests are parked
//! here while its read burst lasts, each app id copied into the name
//! buffer an earlier run left in its place. Deciding groups the record
//! indexes by shard (a counting sort, stable within a shard), takes each
//! touched shard's lock in ascending order and writes every result at
//! its record's index, so the caller renders them in arrival order. In
//! steady state nothing here allocates: every buffer is as long as the
//! longest frame or run seen, and a request costs a copy of its name.
//!
//! What is kept is bounded, so no peer can park memory here: a name
//! whose capacity is past [`NAME_CAP`] is freed once its run is decided,
//! and at most [`SPARE_NAMES`] parked requests keep their buffers.

use std::sync::Mutex;

use sitw_fleet::TenantId;

use crate::shard::{Decision, InvokeError, ShardWorker, Spans};
use crate::telem::ReactorTelemHandle;
use crate::wire::BinInvoke;

/// Largest name capacity (bytes) a parked request keeps for the next
/// run.
pub(crate) const NAME_CAP: usize = 256;

/// Parked requests whose buffers one reactor keeps between runs.
pub(crate) const SPARE_NAMES: usize = 4096;

/// One reactor's decide scratch (see the module docs). Every user
/// leaves it empty.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// The owning shard of each routed record, by record index.
    routes: Vec<u32>,
    /// While deciding: the routed record indexes grouped by shard in
    /// ascending order, arrival order within a shard.
    order: Vec<u32>,
    /// While deciding: where each shard's group ends in `order`.
    ends: Vec<usize>,
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

    /// Notes the owning shard of the next record of a frame (records
    /// are routed in index order).
    // sitw-lint: hot-path
    pub fn route(&mut self, shard: usize) {
        self.routes.push(shard as u32);
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
        self.route(shard);
        self.parked += 1;
    }

    /// Forgets the routed records of a frame that is refused whole.
    pub fn clear(&mut self) {
        self.routes.clear();
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
        // Counting sort by shard: `ends` first counts, then holds each
        // group's start, then (after placing) its end.
        self.ends.clear();
        self.ends.resize(shards.len(), 0);
        for &s in &self.routes {
            if let Some(count) = self.ends.get_mut(s as usize) {
                *count += 1;
            }
        }
        // A frame is answered whole or refused whole: one that touches a
        // poisoned shard decides nothing.
        let poisoned = |(shard, &n): (&Mutex<ShardWorker>, &usize)| n > 0 && shard.is_poisoned();
        if frame.is_some() && shards.iter().zip(&self.ends).any(poisoned) {
            self.routes.clear();
            return false;
        }
        let mut routed = 0;
        for end in &mut self.ends {
            (*end, routed) = (routed, routed + *end);
        }
        self.order.clear();
        self.order.resize(routed, 0);
        for (i, &s) in self.routes.iter().enumerate() {
            if let Some(at) = self.ends.get_mut(s as usize) {
                if let Some(slot) = self.order.get_mut(*at) {
                    *slot = i as u32;
                }
                *at += 1;
            }
        }
        self.routes.clear();
        let mut available = true;
        let mut begin = 0;
        for (shard, &end) in shards.iter().zip(&self.ends) {
            let slice = self.order.get(begin..end).unwrap_or_default();
            begin = end;
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
        assert!(batch.routes.is_empty(), "deciding consumes the routes");
        // A refused frame's routes are forgotten too.
        batch.route(1);
        batch.clear();
        assert!(batch.routes.is_empty());
    }
}
