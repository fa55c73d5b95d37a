//! The tenant's app table: one record per app, warm-memory accounting
//! and budgeted eviction.
//!
//! A [`TenantLedger`] is one tenant's table of every app it has seen.
//! Each name is interned once, as one `Arc<str>`, into a dense *slot*:
//! the app's one record of its footprint ([`crate::footprint_mb`], in
//! MB), its charge (keep-alive expiry, and whether it is current) and
//! the payload the table is keyed for — the kernel's [`crate::AppState`]
//! in [`crate::TenantState`], `()` in a bare ledger. A decision hashes
//! the name once, to find its slot; expiry, eviction, heap compaction
//! and the victims' eviction marks reach records by slot index. A slot
//! outlives its charge (a lapsed or evicted app is marked not warm), so
//! an app's return re-charges it in place and allocates nothing. From
//! the charges the table maintains
//!
//! * the current warm memory (`warm_mb`, a gauge),
//! * the exact loaded-memory integral in MB·ms — the §5.3 idle-memory
//!   metric, advanced event-by-event with expiries processed at their
//!   true times (the same bookkeeping `platform::report` derives from
//!   invoker integrals),
//! * and the tenant's eviction stream: when a charge pushes the tenant
//!   over its budget, victims go **by earliest keep-alive expiry**
//!   (ties by app id), through the shared [`crate::evict_until`] engine
//!   ported from `platform::cluster::make_room`.
//!
//! Everything is integer-valued and ordered deterministically, so a
//! ledger replayed from the same event stream — online, offline, or
//! across a snapshot/restore with a different shard layout — produces
//! identical charges, identical evictions, and identical integrals.
//!
//! # The expiry queue is keyed lazily
//!
//! A heap node is `(key, name, slot, gen)`. The slot index is how a pop
//! reaches its record without hashing. The name is there because
//! eviction order is `(expiry, app id)`: slots are numbered in
//! first-sight order, which no export records, so a tie broken by slot
//! would not survive a restore. Nodes of one name carry one slot, so
//! the heap orders exactly by `(key, name, gen)`.
//!
//! The heap holds **one live node per warm slot**, and that node's key
//! may be *earlier* than the slot's true expiry:
//!
//! * a re-charge that moves the expiry **later** (the common case — an
//!   app invoked again inside its keep-alive window) touches only the
//!   slot;
//! * a re-charge that moves it **earlier than the queued key** pushes a
//!   fresh node under a new generation, which orphans the old one;
//! * whoever pops the heap — [`TenantLedger::advance`] looking for
//!   lapsed charges, the eviction loop looking for a victim — acts on a
//!   live node only when its key *equals* the slot's expiry; a live node
//!   that is early is pushed back under the true expiry and the pop
//!   repeated.
//!
//! Expiry and eviction order are what they would be with exact keys.
//! Every live key is ≤ its slot's expiry, so when the heap's minimum is
//! a live node whose key *is* its expiry, no warm slot can expire
//! earlier, and none with the same expiry has a smaller app id (its
//! node's key would be ≤ that same tuple and would have popped first).
//! Apps therefore leave in ascending `(true expiry, app id)` order,
//! exactly as from a heap holding one exact node per charge — the
//! reference implementation `ledger_ref` keeps, which a property test
//! drives against this one charge by charge.
//!
//! Orphaned nodes are dropped when popped, and swept when they pile up:
//! whenever the heap holds more than `2 × warm slots + COMPACT_SLACK`
//! nodes it is rebuilt from its live ones (pop order depends only on the
//! node tuples, never on the heap's layout). The heap is therefore
//! bounded by the warm set, not by the charges made inside a keep-alive
//! window, and a sweep's cost is paid for by the pushes that made it
//! necessary.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::convert::Infallible;
use std::sync::Arc;

use crate::evict::evict_until;

/// Orphaned heap nodes tolerated on top of one per warm app before the
/// heap is rebuilt from its live nodes.
const COMPACT_SLACK: usize = 32;

/// An expiry heap node, `(key, name, slot, gen)`, min-first.
type Node = Reverse<(u64, Arc<str>, usize, u64)>;

/// One app's record: its interned name, footprint and charge, plus the
/// payload the table is keyed for.
#[derive(Debug)]
pub(crate) struct Slot<P> {
    /// The app id, shared with the map key and the heap nodes.
    pub(crate) name: Arc<str>,
    /// Footprint in MB: what a charge of this app holds.
    pub(crate) mb: u64,
    /// Absolute time the keep-alive lapses (the image unloads).
    expiry_ms: u64,
    /// Key of this slot's live heap node; never later than `expiry_ms`.
    queued_ms: u64,
    /// Generation of the live heap node (not persisted).
    gen: u64,
    /// Whether the charge is current (counted in `warm_mb`).
    warm: bool,
    /// The kernel's `AppState`, or `()` in a bare ledger.
    pub(crate) app: P,
}

/// A point-in-time summary of one ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerStats {
    /// Warm memory currently charged, MB.
    pub warm_mb: u64,
    /// Warm containers currently charged.
    pub warm_apps: u64,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms (saturating).
    pub idle_mb_ms: u64,
}

/// The persistable state of a ledger (snapshot text format payload).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LedgerExport {
    /// Warm entries as `(app, expiry_ms, mb)`, sorted by app id.
    pub warm: Vec<(String, u64, u64)>,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms.
    pub idle_mb_ms: u64,
    /// The integral cursor (last advance time).
    pub cursor_ms: u64,
}

/// Per-tenant app table and warm-memory ledger with budgeted eviction.
/// `P` is the per-app payload each slot carries beside its charge: the
/// kernel's [`crate::AppState`], or nothing for a bare ledger.
#[derive(Debug)]
pub struct TenantLedger<P = ()> {
    /// Budget in MB; 0 = unlimited (accounting only, never evicts).
    budget_mb: u64,
    warm_mb: u64,
    warm_apps: u64,
    evictions: u64,
    idle_mb_ms: u64,
    cursor_ms: u64,
    /// Name → slot, the one map keyed by app name.
    index: HashMap<Arc<str>, usize>,
    /// Every app ever seen, in first-sight order; `warm` marks the
    /// current charges.
    pub(crate) slots: Vec<Slot<P>>,
    /// Earliest-expiry queue. Three invariants tie it to `slots`:
    ///
    /// 1. every warm slot has exactly one *live* node — the one carrying
    ///    its `gen`; every other node is an orphan;
    /// 2. a live node's key equals the slot's `queued_ms` and is never
    ///    later than its `expiry_ms`;
    /// 3. a popped live node is acted on (expired, evicted) only when
    ///    its key equals `expiry_ms`; an early one is re-keyed to it.
    heap: BinaryHeap<Node>,
    next_gen: u64,
    /// The last charge's victims, in eviction order (buffer reused).
    evicted: Vec<Arc<str>>,
}

impl TenantLedger {
    /// Creates an empty ledger under `budget_mb` (0 = unlimited).
    pub fn new(budget_mb: u64) -> Self {
        Self::empty(budget_mb)
    }

    /// Charges `app` as warm from `now_ms` until `expiry_ms` holding
    /// `mb`, then enforces the budget. Returns the apps evicted to make
    /// room, in eviction order — possibly including `app` itself, when
    /// even evicting everything else cannot fit its footprint. The
    /// slice is the ledger's own buffer, valid until the next charge.
    ///
    /// Two contracts worth stating precisely:
    ///
    /// * **Pre-warm windows are reserved, not free.** For a policy that
    ///   unloads and re-loads (`pre_warm_ms > 0`), the charge spans the
    ///   whole `[now, loaded_until]` interval even though the image is
    ///   unloaded during the pre-warm gap. This is deliberate and
    ///   conservative: the budget reserves the memory a scheduled
    ///   pre-warm will need, so a pre-warm load can never fail for
    ///   capacity; modeling the unloaded gap exactly would need
    ///   future-dated charges and pre-warm cancellation plumbed through
    ///   eviction.
    /// * **Ordering.** The ledger is deterministic in its *arrival
    ///   order*: the same charge sequence always produces the same
    ///   evictions (a `now_ms` behind the cursor saturates to it).
    ///   Bit-for-bit parity with the offline
    ///   [`crate::fleet_verdict_trace`] additionally requires a
    ///   tenant's events to arrive in timestamp order — true for any
    ///   single connection (the parity tests), not guaranteed when one
    ///   tenant's apps are spread across concurrent connections.
    // sitw-lint: hot-path
    pub fn charge(&mut self, app: &str, now_ms: u64, expiry_ms: u64, mb: u64) -> &[Arc<str>] {
        let slot = self
            .slot_of(app)
            .unwrap_or_else(|| self.insert(app, mb, ()));
        self.charge_slot(slot, now_ms, expiry_ms, mb, |()| {})
    }

    /// Rebuilds a ledger from an export. `warm_mb` is recomputed from
    /// the entries (so a caller may partition an export across shards);
    /// future expiry/eviction order is identical to the exporting
    /// ledger's because ordering depends only on `(expiry, app)`.
    pub fn restore(budget_mb: u64, export: LedgerExport) -> Self {
        let mut ledger = Self::new(budget_mb);
        let Ok(()) = ledger.load(export, |l, app, mb| -> Result<usize, Infallible> {
            Ok(l.slot_of(app).unwrap_or_else(|| l.insert(app, mb, ())))
        });
        ledger
    }
}

impl<P> TenantLedger<P> {
    /// An empty table under `budget_mb` (0 = unlimited).
    pub(crate) fn empty(budget_mb: u64) -> Self {
        Self {
            budget_mb,
            warm_mb: 0,
            warm_apps: 0,
            evictions: 0,
            idle_mb_ms: 0,
            cursor_ms: 0,
            index: HashMap::new(),
            slots: Vec::new(),
            heap: BinaryHeap::new(),
            next_gen: 0,
            evicted: Vec::new(),
        }
    }

    /// The configured budget (0 = unlimited).
    pub fn budget_mb(&self) -> u64 {
        self.budget_mb
    }

    /// Replaces the budget (0 = unlimited). Enforcement is lazy: the new
    /// budget bites on the *next* charge, never retroactively — so a
    /// cluster reconciler pushing shares mid-stream changes no verdict
    /// that has already been served, and a replay that applies the same
    /// budget updates at the same stream positions stays bit-identical.
    pub fn set_budget(&mut self, budget_mb: u64) {
        self.budget_mb = budget_mb;
    }

    /// The slot `app` is interned in, if the table has seen it: the
    /// one probe by name a charge makes.
    pub(crate) fn slot_of(&self, app: &str) -> Option<usize> {
        self.index.get(app).copied()
    }

    /// Interns `app` into a fresh slot, not warm, holding `mb` and
    /// `app_state`; returns the slot.
    pub(crate) fn insert(&mut self, app: &str, mb: u64, app_state: P) -> usize {
        // First sight: the one allocation a name ever costs.
        let name: Arc<str> = Arc::from(app);
        let slot = self.slots.len();
        self.index.insert(Arc::clone(&name), slot);
        self.slots.push(Slot {
            name,
            mb,
            expiry_ms: 0,
            queued_ms: 0,
            gen: 0,
            warm: false,
            app: app_state,
        });
        slot
    }

    /// Advances the clock to `now`: processes keep-alive expiries at
    /// their true times (each contributes to the integral up to its
    /// expiry) and extends the integral to `now`.
    ///
    /// An entry expiring exactly at `now` stays warm — mirroring
    /// [`sitw_core::Windows::classify_gap`], where an idle gap equal to
    /// the keep-alive window is still a warm hit.
    // sitw-lint: hot-path
    pub fn advance(&mut self, now_ms: u64) {
        while let Some((slot, _)) = self.release_earliest(Some(now_ms)) {
            let Slot { expiry_ms, mb, .. } = self.slots[slot];
            self.accrue(expiry_ms);
            self.warm_mb -= mb;
        }
        self.accrue(now_ms);
        self.compact_if_bloated();
    }

    /// Extends the integral to `to_ms` at the current warm memory.
    fn accrue(&mut self, to_ms: u64) {
        let dt = to_ms.saturating_sub(self.cursor_ms);
        self.idle_mb_ms = self
            .idle_mb_ms
            .saturating_add(self.warm_mb.saturating_mul(dt));
        self.cursor_ms = self.cursor_ms.max(to_ms);
    }

    /// Ends the charge of the warm slot with the smallest
    /// `(expiry, app id)` — provided, under `before_ms`, that it expires
    /// strictly before then — and returns the slot with its name. The
    /// caller takes the slot's `mb` off `warm_mb` (after the integral,
    /// when it is an expiry). Orphans met on the way are dropped, early
    /// live nodes re-keyed (invariant 3).
    // sitw-lint: hot-path
    fn release_earliest(&mut self, before_ms: Option<u64>) -> Option<(usize, Arc<str>)> {
        loop {
            let Reverse((key, ..)) = self.heap.peek()?;
            // Live keys never exceed their expiries, so a minimum at or
            // past the limit means nothing expires before it.
            if before_ms.is_some_and(|limit| *key >= limit) {
                return None;
            }
            let Reverse((key, name, slot, gen)) = self.heap.pop()?;
            let record = &mut self.slots[slot];
            if !record.warm || record.gen != gen {
                continue; // Orphaned by a fresher node, or by a release.
            }
            if key < record.expiry_ms {
                record.queued_ms = record.expiry_ms;
                self.heap.push(Reverse((record.expiry_ms, name, slot, gen)));
                continue;
            }
            record.warm = false;
            self.warm_apps -= 1;
            return Some((slot, name));
        }
    }

    /// Rebuilds the heap from its live nodes once orphans outnumber
    /// them by more than [`COMPACT_SLACK`].
    fn compact_if_bloated(&mut self) {
        if self.heap.len() > 2 * self.warm_apps as usize + COMPACT_SLACK {
            let slots = &self.slots;
            self.heap.retain(|Reverse((_, _, slot, gen))| {
                let record = &slots[*slot];
                record.warm && record.gen == *gen
            });
        }
    }

    /// Records `slot` as warm until `expiry_ms` holding `mb`, updated in
    /// place; a heap node is pushed only when the slot has no live one
    /// or its key would be too late.
    // sitw-lint: hot-path
    fn admit(&mut self, slot: usize, expiry_ms: u64, mb: u64) {
        let record = &mut self.slots[slot];
        if record.warm {
            // Re-charge: the previous interval's integral is already
            // accounted up to `now`; only the footprint swaps.
            self.warm_mb -= record.mb;
        } else {
            self.warm_apps += 1;
        }
        let push = !record.warm || expiry_ms < record.queued_ms;
        record.warm = true;
        record.expiry_ms = expiry_ms;
        record.mb = mb;
        self.warm_mb += mb;
        if push {
            record.gen = self.next_gen;
            record.queued_ms = expiry_ms;
            self.next_gen += 1;
            let node = Reverse((expiry_ms, Arc::clone(&record.name), slot, record.gen));
            if self.heap.len() == self.heap.capacity() {
                // Straight to the most nodes it holds between sweeps were
                // every slot warm: it never grows on a re-charge, nor on
                // the first sight that grows the slot vector.
                let most = 2 * self.slots.len() + COMPACT_SLACK + 1;
                self.heap
                    .reserve_exact(most.saturating_sub(self.heap.len()));
            }
            self.heap.push(node);
        }
    }

    /// [`TenantLedger::charge`] by slot, holding `mb`: the one eviction
    /// loop, which hands each victim's payload to `mark` as it releases
    /// the victim's charge.
    // sitw-lint: hot-path
    pub(crate) fn charge_slot(
        &mut self,
        slot: usize,
        now_ms: u64,
        expiry_ms: u64,
        mb: u64,
        mut mark: impl FnMut(&mut P),
    ) -> &[Arc<str>] {
        self.advance(now_ms);
        self.admit(slot, expiry_ms.max(now_ms), mb);
        self.evicted.clear();
        if self.budget_mb != 0 {
            // The budgeted-eviction engine shared with the platform's
            // invoker pool: victims by earliest keep-alive expiry.
            evict_until(
                self,
                |l| l.warm_mb <= l.budget_mb,
                |l| l.release_earliest(None),
                |l, (victim, name)| {
                    let record = &mut l.slots[victim];
                    mark(&mut record.app);
                    l.warm_mb -= record.mb;
                    l.evictions += 1;
                    l.evicted.push(name);
                },
            );
        }
        self.compact_if_bloated();
        &self.evicted
    }

    /// Restores an export's counters and warm set, charging each warm
    /// entry to the slot `slot_for(table, app, mb)` names — or failing
    /// with its error, when the table refuses the charge.
    pub(crate) fn load<E>(
        &mut self,
        export: LedgerExport,
        mut slot_for: impl FnMut(&mut Self, &str, u64) -> Result<usize, E>,
    ) -> Result<(), E> {
        self.evictions = export.evictions;
        self.idle_mb_ms = export.idle_mb_ms;
        self.cursor_ms = export.cursor_ms;
        for (app, expiry_ms, mb) in &export.warm {
            let slot = slot_for(self, app, *mb)?;
            self.admit(slot, *expiry_ms, *mb);
        }
        Ok(())
    }

    /// The current summary.
    pub fn stats(&self) -> LedgerStats {
        LedgerStats {
            warm_mb: self.warm_mb,
            warm_apps: self.warm_apps,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
        }
    }

    /// Exports the persistable state (warm set sorted by app id).
    pub fn export(&self) -> LedgerExport {
        let mut warm: Vec<(String, u64, u64)> = self
            .slots
            .iter()
            .filter(|s| s.warm)
            .map(|s| (String::from(&*s.name), s.expiry_ms, s.mb))
            .collect();
        warm.sort();
        LedgerExport {
            warm,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
            cursor_ms: self.cursor_ms,
        }
    }

    /// Nodes in the expiry heap, live and orphaned.
    #[cfg(test)]
    pub(crate) fn heap_nodes(&self) -> usize {
        self.heap.len()
    }

    /// Panics unless the heap invariants (see the `heap` field), the
    /// compaction bound and the name → slot map hold.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let mut live = 0;
        for Reverse((key, name, slot, gen)) in self.heap.iter() {
            let record = &self.slots[*slot];
            assert_eq!(record.name, *name, "a node names its slot's app");
            if record.warm && record.gen == *gen {
                live += 1;
                assert_eq!(*key, record.queued_ms, "live key is the queued key");
                assert!(*key <= record.expiry_ms, "live key later than expiry");
            }
        }
        let warm = self.slots.iter().filter(|s| s.warm).count();
        assert_eq!(live, warm, "one live node per warm app");
        assert_eq!(self.warm_apps, warm as u64);
        assert!(self.heap.len() <= 2 * warm + COMPACT_SLACK);
        assert_eq!(self.index.len(), self.slots.len());
        for (slot, record) in self.slots.iter().enumerate() {
            assert_eq!(self.index[&record.name], slot, "one slot per name");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Victim lists as the ledger returns them.
    fn names(apps: &[&str]) -> Vec<Arc<str>> {
        apps.iter().map(|&a| Arc::from(a)).collect()
    }

    #[test]
    fn unbudgeted_ledger_accounts_without_evicting() {
        let mut l = TenantLedger::new(0);
        assert!(l.charge("a", 0, 1_000, 100).is_empty());
        assert!(l.charge("b", 0, 2_000, 50).is_empty());
        assert_eq!(l.stats().warm_mb, 150);
        assert_eq!(l.stats().warm_apps, 2);
        // Advance past a's expiry: a contributes 150*1000? No — both warm
        // until 1000 (150 MB·ms per ms), then only b (50) until 1500.
        l.advance(1_500);
        let s = l.stats();
        assert_eq!(s.warm_mb, 50);
        assert_eq!(s.warm_apps, 1);
        assert_eq!(s.idle_mb_ms, 150 * 1_000 + 50 * 500);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn expiry_boundary_is_inclusive_like_classify_gap() {
        let mut l = TenantLedger::new(0);
        l.charge("a", 0, 1_000, 10);
        l.advance(1_000);
        assert_eq!(l.stats().warm_apps, 1, "expiry == now stays warm");
        l.advance(1_001);
        assert_eq!(l.stats().warm_apps, 0);
    }

    #[test]
    fn budget_evicts_earliest_expiry_first_ties_by_app() {
        let mut l = TenantLedger::new(100);
        assert!(l.charge("late", 0, 5_000, 40).is_empty());
        assert!(l.charge("early", 0, 1_000, 40).is_empty());
        // 40+40+40 > 100: the earliest expiry ("early") goes first.
        let evicted = l.charge("new", 10, 9_000, 40);
        assert_eq!(evicted, names(&["early"]));
        assert_eq!(l.stats().warm_mb, 80);
        assert_eq!(l.stats().evictions, 1);

        // Tie on expiry: lexicographically smaller app id goes first —
        // the just-charged "a" ties with "b" and evicts itself.
        let mut l = TenantLedger::new(50);
        l.charge("b", 0, 1_000, 30);
        let evicted = l.charge("a", 0, 1_000, 30);
        assert_eq!(evicted, names(&["a"]));
        let evicted = l.charge("c", 0, 2_000, 30);
        assert_eq!(evicted, names(&["b"]));
    }

    #[test]
    fn oversized_app_evicts_itself() {
        let mut l = TenantLedger::new(100);
        l.charge("small", 0, 10_000, 30);
        let evicted = l.charge("huge", 5, 20_000, 500);
        // Everything goes: "small" first (earlier expiry), then "huge"
        // itself — the tenant cannot hold it at all.
        assert_eq!(evicted, names(&["small", "huge"]));
        assert_eq!(l.stats().warm_mb, 0);
        assert_eq!(l.stats().evictions, 2);
    }

    #[test]
    fn recharge_supersedes_stale_heap_entries() {
        let mut l = TenantLedger::new(0);
        l.charge("a", 0, 1_000, 100);
        // Re-invoke before expiry: new expiry, same footprint.
        l.charge("a", 500, 3_000, 100);
        l.advance(1_500);
        // The stale (1_000) heap entry must not expire the live charge.
        assert_eq!(l.stats().warm_apps, 1);
        assert_eq!(l.stats().warm_mb, 100);
        l.advance(3_001);
        assert_eq!(l.stats().warm_apps, 0);
        // Integral: 100 MB × 3000 ms (warm the whole time).
        assert_eq!(l.stats().idle_mb_ms, 100 * 3_000);
    }

    #[test]
    fn heap_is_bounded_by_the_warm_set() {
        // 10⁵ re-charges of three apps, all inside one keep-alive
        // window. Windows alternate long and short, so the expiry moves
        // later (no push) and earlier than the queued key (a fresh node,
        // an orphan) in turn. One node per charge would read 10⁵ here.
        let mut l = TenantLedger::new(0);
        let apps = ["a", "b", "c"];
        for i in 0..100_000u64 {
            let window = if i / 3 % 2 == 0 { 3_600_000 } else { 600_000 };
            l.charge(apps[(i % 3) as usize], i, i + window, 10);
        }
        assert_eq!(l.stats().warm_apps, 3);
        assert!(
            l.heap_nodes() <= 2 * 3 + COMPACT_SLACK,
            "{} heap nodes for 3 warm apps",
            l.heap_nodes()
        );
        l.check_invariants();
    }

    #[test]
    fn export_restore_continues_bit_for_bit() {
        let mut a = TenantLedger::new(120);
        a.charge("x", 0, 1_000, 50);
        a.charge("y", 100, 4_000, 50);
        a.charge("z", 200, 2_000, 50); // Evicts x (earliest expiry).
        let export = a.export();
        let mut b = TenantLedger::restore(120, export.clone());
        assert_eq!(b.export(), export);
        // Drive both forward identically.
        let ea = a.charge("w", 300, 5_000, 60);
        let eb = b.charge("w", 300, 5_000, 60);
        assert_eq!(ea, eb);
        a.advance(10_000);
        b.advance(10_000);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.export(), b.export());
    }

    #[test]
    fn partitioned_restore_recomputes_warm_mb() {
        let mut l = TenantLedger::new(0);
        l.charge("a", 0, 1_000, 10);
        l.charge("b", 0, 2_000, 20);
        let mut export = l.export();
        export.warm.retain(|(app, _, _)| app == "b");
        let part = TenantLedger::restore(0, export);
        assert_eq!(part.stats().warm_mb, 20);
        assert_eq!(part.stats().warm_apps, 1);
    }
}
