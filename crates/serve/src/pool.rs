//! Spare buffers for the socket-to-shard hop.
//!
//! A dispatched batch's buffers make a round trip. The reactor writes
//! each record's app id into a reused `String` of a reused
//! `Vec<BatchItem>`; the shard decides the batch into a reused result
//! vector and hands the spent items back in its [`BatchReply`] beside
//! the results; the reactor keeps all of it as scratch for the next
//! batch, and the emptied result vector rides the next `InvokeBatch`
//! back to a shard. In steady state a record costs a copy of its name,
//! not an allocation on the reactor and a free on the shard. The
//! per-slot result and span vectors of a frame or JSON run are kept the
//! same way.
//!
//! What is kept is bounded, so no peer can park memory here: a name
//! whose capacity is past [`NAME_CAP`] and a vector longer than
//! [`SPARE_LEN`] are dropped rather than kept, and a reactor keeps at
//! most [`SPARE_NAMES`] names and [`SPARE_VECS`] vectors of each kind.

use crate::shard::{BatchItem, BatchReply, Decision, InvokeError};

/// Largest `String` capacity (bytes) a pool keeps; a longer name is
/// freed once its batch is answered.
pub(crate) const NAME_CAP: usize = 256;

/// Spare names one reactor keeps.
pub(crate) const SPARE_NAMES: usize = 4096;

/// Largest vector capacity (elements) a pool keeps.
pub(crate) const SPARE_LEN: usize = 1024;

/// Spare vectors of one kind one pool keeps.
pub(crate) const SPARE_VECS: usize = 64;

/// One shard result: a record's index in its frame or run, and its
/// decision.
pub(crate) type IndexedResult = (u32, Result<Decision, InvokeError>);

/// A bounded stack of emptied vectors.
#[derive(Debug)]
pub(crate) struct Spares<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares { free: Vec::new() }
    }
}

impl<T> Spares<T> {
    /// An empty vector, with capacity when a spare is on hand.
    // sitw-lint: hot-path
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Keeps `v`'s allocation for a later [`Spares::take`], emptied,
    /// unless it has none, is longer than [`SPARE_LEN`] or the stack is
    /// full; then `v` is just freed.
    // sitw-lint: hot-path
    pub fn put(&mut self, mut v: Vec<T>) {
        if v.capacity() == 0 || v.capacity() > SPARE_LEN || self.free.len() >= SPARE_VECS {
            return;
        }
        v.clear();
        self.free.push(v);
    }

    /// Vectors on hand.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.free.len()
    }
}

/// One reactor's spare buffers (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct BatchPool {
    names: Vec<String>,
    /// Item vectors: each replaces a per-shard scratch that leaves in
    /// an `InvokeBatch`.
    pub items: Spares<BatchItem>,
    /// Span-id vectors: a JSON run's, and each shard's slice of it.
    pub spans: Spares<u64>,
    /// Emptied shard result vectors, sent back for the shards to fill.
    pub results: Spares<IndexedResult>,
    /// Per-record result slots of a frame or run awaiting its replies.
    pub slots: Spares<Option<Result<Decision, InvokeError>>>,
}

impl BatchPool {
    /// `app`, copied into a spare `String` when one is on hand.
    // sitw-lint: hot-path
    pub fn name(&mut self, app: &str) -> String {
        let mut name = self.names.pop().unwrap_or_default();
        name.push_str(app);
        name
    }

    /// Keeps the buffers of one answered batch: its names, item vector,
    /// span vector and (emptied) result vector.
    // sitw-lint: hot-path
    pub fn recycle(&mut self, reply: BatchReply) {
        let BatchReply {
            results,
            mut items,
            spans,
            ..
        } = reply;
        for item in items.drain(..) {
            self.put_name(item.app);
        }
        self.items.put(items);
        self.spans.put(spans);
        self.results.put(results);
    }

    // sitw-lint: hot-path
    fn put_name(&mut self, mut name: String) {
        if name.capacity() == 0 || name.capacity() > NAME_CAP || self.names.len() >= SPARE_NAMES {
            return;
        }
        name.clear();
        self.names.push(name);
    }

    /// Names on hand.
    #[cfg(test)]
    pub fn names(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(names: &[&str]) -> BatchReply {
        BatchReply {
            frame_seq: 0,
            results: Vec::with_capacity(names.len()),
            items: names
                .iter()
                .enumerate()
                .map(|(i, app)| BatchItem {
                    idx: i as u32,
                    tenant: 0,
                    app: (*app).into(),
                    ts: 0,
                })
                .collect(),
            spans: Vec::with_capacity(names.len()),
        }
    }

    #[test]
    fn a_recycled_name_is_reused_with_its_capacity() {
        let mut pool = BatchPool::default();
        pool.recycle(reply(&["app-000001"]));
        assert_eq!(pool.names(), 1);
        let name = pool.name("app-2");
        assert_eq!(name, "app-2");
        assert!(
            name.capacity() >= "app-000001".len(),
            "the spare's capacity"
        );
        assert_eq!(pool.names(), 0);
        // The item, span and result vectors came back too.
        assert_eq!(
            (pool.items.len(), pool.spans.len(), pool.results.len()),
            (1, 1, 1)
        );
        assert!(pool.items.take().capacity() >= 1);
    }

    #[test]
    fn an_oversized_name_is_not_pooled() {
        let hostile = "x".repeat(64 * 1024);
        let edge = "y".repeat(NAME_CAP);
        let mut pool = BatchPool::default();
        pool.recycle(reply(&[&hostile, &edge]));
        assert_eq!(pool.names(), 1, "only the name within the cap is kept");
        assert!(pool.name("z").capacity() <= NAME_CAP);
    }

    #[test]
    fn the_spare_lists_stay_at_their_caps() {
        let mut pool = BatchPool::default();
        let names: Vec<String> = (0..SPARE_NAMES + 100).map(|i| format!("a{i}")).collect();
        for chunk in names.chunks(SPARE_LEN) {
            let chunk: Vec<&str> = chunk.iter().map(String::as_str).collect();
            pool.recycle(reply(&chunk));
        }
        assert_eq!(pool.names(), SPARE_NAMES);
        for _ in 0..SPARE_VECS + 10 {
            pool.slots.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.slots.len(), SPARE_VECS);
        // A vector past the length cap, or without an allocation, is
        // not kept.
        let mut spans = Spares::default();
        spans.put(Vec::<u64>::with_capacity(SPARE_LEN + 1));
        spans.put(Vec::new());
        assert_eq!(spans.len(), 0);
    }
}
