//! The exact-key ledger the lazy one replaced, kept as the reference a
//! property test drives [`TenantLedger`] against.
//!
//! [`RefLedger`]'s `advance`, `charge` and eviction loop are the
//! previous implementation verbatim: every charge pushes an owned
//! `(expiry, app, gen)` node, a node is live iff its generation matches
//! the map's, and lapsed apps leave the map. It is slow and its heap
//! grows with charges — which is why it is the definition, not the
//! implementation. `FleetSim` and the daemon share one ledger, so online
//! == offline parity cannot see a ledger change; this can.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::evict::evict_until;
use crate::ledger::{LedgerExport, LedgerStats};

struct RefEntry {
    expiry_ms: u64,
    mb: u64,
    gen: u64,
}

pub(crate) struct RefLedger {
    budget_mb: u64,
    warm_mb: u64,
    evictions: u64,
    idle_mb_ms: u64,
    cursor_ms: u64,
    warm: HashMap<String, RefEntry>,
    heap: BinaryHeap<Reverse<(u64, String, u64)>>,
    next_gen: u64,
}

impl RefLedger {
    pub(crate) fn new(budget_mb: u64) -> Self {
        Self {
            budget_mb,
            warm_mb: 0,
            evictions: 0,
            idle_mb_ms: 0,
            cursor_ms: 0,
            warm: HashMap::new(),
            heap: BinaryHeap::new(),
            next_gen: 0,
        }
    }

    pub(crate) fn set_budget(&mut self, budget_mb: u64) {
        self.budget_mb = budget_mb;
    }

    pub(crate) fn advance(&mut self, now_ms: u64) {
        while let Some(Reverse((expiry, _, _))) = self.heap.peek() {
            if *expiry >= now_ms {
                break;
            }
            let Reverse((expiry, app, gen)) = self.heap.pop().expect("peeked");
            let live = self.warm.get(&app).is_some_and(|e| e.gen == gen);
            if !live {
                continue; // Superseded by a fresher charge.
            }
            let dt = expiry.saturating_sub(self.cursor_ms);
            self.idle_mb_ms = self
                .idle_mb_ms
                .saturating_add(self.warm_mb.saturating_mul(dt));
            self.cursor_ms = self.cursor_ms.max(expiry);
            let entry = self.warm.remove(&app).expect("live entry");
            self.warm_mb -= entry.mb;
        }
        let dt = now_ms.saturating_sub(self.cursor_ms);
        self.idle_mb_ms = self
            .idle_mb_ms
            .saturating_add(self.warm_mb.saturating_mul(dt));
        self.cursor_ms = self.cursor_ms.max(now_ms);
    }

    pub(crate) fn charge(
        &mut self,
        app: &str,
        now_ms: u64,
        expiry_ms: u64,
        mb: u64,
    ) -> Vec<String> {
        self.advance(now_ms);
        if let Some(prev) = self.warm.get(app) {
            self.warm_mb -= prev.mb;
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        self.warm.insert(
            app.to_owned(),
            RefEntry {
                expiry_ms: expiry_ms.max(now_ms),
                mb,
                gen,
            },
        );
        self.warm_mb += mb;
        self.heap
            .push(Reverse((expiry_ms.max(now_ms), app.to_owned(), gen)));

        let mut evicted = Vec::new();
        if self.budget_mb == 0 {
            return evicted;
        }
        evict_until(
            self,
            |l| l.warm_mb <= l.budget_mb,
            |l| loop {
                let Reverse((_, app, gen)) = l.heap.pop()?;
                if l.warm.get(&app).is_some_and(|e| e.gen == gen) {
                    return Some(app);
                }
            },
            |l, victim| {
                let entry = l.warm.remove(&victim).expect("live victim");
                l.warm_mb -= entry.mb;
                l.evictions += 1;
                evicted.push(victim);
            },
        );
        evicted
    }

    pub(crate) fn stats(&self) -> LedgerStats {
        LedgerStats {
            warm_mb: self.warm_mb,
            warm_apps: self.warm.len() as u64,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
        }
    }

    pub(crate) fn export(&self) -> LedgerExport {
        let mut warm: Vec<(String, u64, u64)> = self
            .warm
            .iter()
            .map(|(app, e)| (app.clone(), e.expiry_ms, e.mb))
            .collect();
        warm.sort();
        LedgerExport {
            warm,
            evictions: self.evictions,
            idle_mb_ms: self.idle_mb_ms,
            cursor_ms: self.cursor_ms,
        }
    }
}

mod tests {
    use proptest::prelude::*;

    use super::RefLedger;
    use crate::ledger::TenantLedger;
    use crate::mix64;

    /// Expiries land on this grid so they tie *across* apps.
    const GRID_MS: u64 = 1_000;
    /// Keep-alive windows on the grid: zero, short, and long enough that
    /// a later short one shrinks the expiry below the queued key.
    const WINDOWS_MS: [u64; 7] = [0, 0, 1_000, 2_000, 10_000, 60_000, 600_000];
    /// Budgets in MB: unlimited, biting hard, biting now and then.
    const BUDGETS_MB: [u64; 6] = [0, 0, 40, 150, 600, 2_000];

    proptest! {
        /// After every step of a random stream the lazy ledger returns
        /// the reference's victims and stats, and (periodically) its
        /// export. Streams mix charges over a handful of apps with time
        /// steps of zero, small and huge gaps (a third of the streams
        /// run 512× denser, so orphans outlive the stream unless swept),
        /// a clock that sometimes runs backwards, windows that tie across
        /// apps and shrink below the queued key, an app no budget can
        /// hold, budget changes (0 = unlimited included), bare advances,
        /// and an export → restore of the lazy side mid-stream.
        #[test]
        fn lazy_ledger_equals_the_exact_key_reference(
            apps in 3u64..=25,
            budget in 0usize..BUDGETS_MB.len(),
            pace in 0u64..3,
            words in prop::collection::vec(0u64..u64::MAX, 50..600),
        ) {
            let names: Vec<String> = (0..apps).map(|i| format!("app-{i:02}")).collect();
            let mut new = TenantLedger::new(BUDGETS_MB[budget]);
            let mut old = RefLedger::new(BUDGETS_MB[budget]);
            let mut now = 0u64;
            for (step, &w) in words.iter().enumerate() {
                let field = |salt: u64| mix64(w ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let step_class = field(1) % 16;
                let gap = match step_class {
                    0..=4 => 0,
                    5..=11 => field(2) % 1_500,
                    12..=13 => field(2) % 120_000,
                    _ => field(2) % 5_000_000,
                } / if pace == 0 { 512 } else { 1 };
                now = match step_class {
                    15 => now.saturating_sub(gap % 3_000),
                    _ => now + gap,
                };
                match field(3) % 256 {
                    0..=3 => {
                        let b = BUDGETS_MB[(field(4) % BUDGETS_MB.len() as u64) as usize];
                        new.set_budget(b);
                        old.set_budget(b);
                    }
                    4..=7 => {
                        new.advance(now);
                        old.advance(now);
                    }
                    8 => {
                        let export = new.export();
                        prop_assert_eq!(&export, &old.export());
                        new = TenantLedger::restore(new.budget_mb(), export);
                    }
                    _ => {
                        let i = (field(5) % apps) as usize;
                        let window = WINDOWS_MS[(field(6) % WINDOWS_MS.len() as u64) as usize];
                        let expiry = now / GRID_MS * GRID_MS + window;
                        // Apps keep a footprint, with the odd re-size —
                        // now and then to one no budget here can hold.
                        let mb = match field(7) % 32 {
                            0 => 5_000,
                            1..=2 => field(8) % 120,
                            _ => 10 + (i as u64 * 37) % 90,
                        };
                        let got: Vec<String> = new
                            .charge(&names[i], now, expiry, mb)
                            .iter()
                            .map(|v| v.to_string())
                            .collect();
                        let want = old.charge(&names[i], now, expiry, mb);
                        prop_assert!(got == want, "step {step}: victims {got:?}, want {want:?}");
                    }
                }
                let (got, want) = (new.stats(), old.stats());
                prop_assert!(got == want, "step {step}: stats {got:?}, want {want:?}");
                new.check_invariants();
                if step % 16 == 0 {
                    let (got, want) = (new.export(), old.export());
                    prop_assert!(got == want, "step {step}: export {got:?}, want {want:?}");
                }
            }
            prop_assert_eq!(new.export(), old.export());
        }
    }
}
