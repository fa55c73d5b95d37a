//! The tenant decision kernel: one tenant's apps, policy state and
//! memory ledger behind one [`TenantState::step`].
//!
//! The serving daemon's shard workers and the offline [`crate::FleetSim`]
//! both call this step, so what they answer for an invocation is equal
//! by construction. The composition rule per invocation:
//!
//! 1. classify the idle gap through
//!    [`sitw_core::Windows::classify_gap`] (single source of truth);
//! 2. if the app's image was **evicted during the gap**, downgrade the
//!    verdict to cold (and suppress the phantom pre-warm load);
//! 3. advance the app's policy — its own instance, or the tenant's
//!    [`ProductionManager`] — to get the next windows;
//! 4. charge the ledger: the app is warm until
//!    [`sitw_core::Windows::loaded_until`], holding its deterministic
//!    Burr footprint; any victims the budget forces out are marked
//!    evicted for *their* next invocation.
//!
//! Nothing outside this module composes those four. A change to the
//! step is therefore invisible to online == offline parity; it is held
//! by the differential proptest against the step it replaced
//! (`sim_ref.rs`, test-only) and the parent-captured goldens in
//! `sim.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use sitw_core::{
    AppKey, AppPolicy, DecisionKind, FixedKeepAlive, HybridPolicy, HybridSnapshot, NoUnloading,
    PolicySpec, ProductionAppState, ProductionManager, Windows,
};

use crate::footprint::footprint_mb;
use crate::ledger::{LedgerExport, TenantLedger};
use crate::registry::TenantSpec;

/// The verdict for one invocation — what the daemon answers and what
/// the offline replay predicts, one type so the two compare element by
/// element (`sitw_serve::Decision` is this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetVerdict {
    /// The invocation found no loaded image.
    pub cold: bool,
    /// A pre-warm load occurred in the gap ending here.
    pub prewarm_load: bool,
    /// The image was evicted for memory pressure during the gap: a
    /// would-be warm start was downgraded to cold (always false for
    /// unbudgeted tenants).
    pub evicted: bool,
    /// The policy branch that produced the windows.
    pub kind: DecisionKind,
    /// Windows governing the gap until the app's next invocation.
    pub windows: Windows,
}

/// What one accepted [`TenantState::step`] did. The borrows are the
/// tenant's own: victims stay in the ledger's buffer (a step allocates
/// nothing), and the spec rides along so a caller can name the tenant
/// in what it logs per victim while that buffer is still borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Served<'a> {
    /// The verdict for the invocation.
    pub verdict: FleetVerdict,
    /// The apps the charge evicted, in eviction order — already marked;
    /// possibly the invoked app itself, when its footprint cannot fit
    /// at all.
    pub victims: &'a [Arc<str>],
    /// The tenant's configuration.
    pub tenant: &'a TenantSpec,
}

/// The timestamp is older than the app's last accepted one. Policy
/// state is a function of the ordered idle-time stream, so out-of-order
/// delivery is surfaced, not folded in; the rejected step changed
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The app's last accepted timestamp.
    pub last_ts: u64,
}

/// A concrete per-application policy instance.
///
/// An enum rather than `Box<dyn AppPolicy>` for two reasons: decisions
/// dispatch without a vtable on the hot path, and export can match on
/// the variant instead of downcasting.
// The hybrid variant dominates the size, but hybrid is also the policy
// every realistic deployment serves — boxing it would add a pointer
// chase per decision to shrink the two baseline variants nobody runs.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ServedPolicy {
    /// Fixed keep-alive baseline.
    Fixed(FixedKeepAlive),
    /// Never unload.
    NoUnload(NoUnloading),
    /// The hybrid histogram policy.
    Hybrid(HybridPolicy),
    /// Production-manager mode (§6): the per-app state lives in the
    /// tenant's [`ProductionManager`]; this variant holds the app's key
    /// into it plus the branch that served its last decision.
    Production {
        /// Key of this app inside the tenant's manager.
        key: AppKey,
        /// The branch that produced the most recent decision.
        last: DecisionKind,
    },
}

/// Serializable policy state of one application.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyState {
    /// The policy keeps no per-app state beyond the windows themselves
    /// (fixed keep-alive, no-unloading).
    Stateless,
    /// Full hybrid-policy state.
    Hybrid(HybridSnapshot),
    /// Production-manager state: the app's retained daily histograms.
    Production {
        /// The branch that served the app's most recent decision.
        last: DecisionKind,
        /// The retained daily histograms, oldest first.
        state: ProductionAppState,
    },
}

impl PolicyState {
    /// Rebuilds a per-app policy instance under `spec`.
    ///
    /// # Errors
    ///
    /// Fails when the state variant does not match the spec (e.g. a
    /// hybrid snapshot restored into a fixed-keep-alive server), and for
    /// every production pairing: production state is imported into the
    /// tenant's manager by [`TenantState::restore`], never rebuilt
    /// standalone.
    pub fn into_policy(self, spec: &PolicySpec) -> Result<ServedPolicy, String> {
        match (self, spec) {
            (PolicyState::Stateless, PolicySpec::Fixed(f)) => Ok(ServedPolicy::Fixed(*f)),
            (PolicyState::Stateless, PolicySpec::NoUnloading) => {
                Ok(ServedPolicy::NoUnload(NoUnloading))
            }
            (PolicyState::Hybrid(snap), PolicySpec::Hybrid(cfg)) => Ok(ServedPolicy::Hybrid(
                HybridPolicy::from_snapshot(cfg.clone(), snap)?,
            )),
            (state, spec) => Err(format!(
                "snapshot state {:?} does not match policy '{}'",
                match state {
                    PolicyState::Stateless => "stateless",
                    PolicyState::Hybrid(_) => "hybrid",
                    PolicyState::Production { .. } => "production",
                },
                spec.label()
            )),
        }
    }
}

/// One application's complete serving state, as snapshots, replication
/// rounds and tenant migrations carry it.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRecord {
    /// Application id.
    pub app: String,
    /// Last accepted invocation timestamp.
    pub last_ts: u64,
    /// Windows governing the gap in progress.
    pub windows: Windows,
    /// The image was evicted for memory pressure during the gap in
    /// progress (the next invocation is downgraded to cold).
    pub evicted: bool,
    /// Policy-internal state.
    pub state: PolicyState,
}

/// Everything [`TenantState::restore`] rebuilds one tenant from: its
/// spec plus the app records and ledger slice routed to it.
pub struct TenantRestore {
    /// The tenant's configuration.
    pub spec: TenantSpec,
    /// The tenant's app records.
    pub apps: Vec<AppRecord>,
    /// The tenant's ledger (or this shard's slice of it).
    pub ledger: LedgerExport,
    /// Production backup clock, when the tenant serves production mode.
    pub prod_clock: Option<u64>,
}

impl TenantRestore {
    /// An empty-state restore for `spec`.
    pub fn fresh(spec: TenantSpec) -> TenantRestore {
        TenantRestore {
            spec,
            apps: Vec::new(),
            ledger: LedgerExport::default(),
            prod_clock: None,
        }
    }
}

/// One served verdict with the inputs that produced it, kept per app
/// for decision provenance.
#[derive(Debug, Clone, Copy)]
pub struct LastVerdict {
    /// Invocation timestamp (trace milliseconds).
    pub ts: u64,
    /// The idle time classified (`None` for the app's first sight).
    pub idle_ms: Option<u64>,
    /// The invocation found no loaded image.
    pub cold: bool,
    /// A pre-warm load occurred in the gap.
    pub prewarm_load: bool,
    /// The verdict was an eviction downgrade.
    pub evicted: bool,
    /// The branch that produced the next windows.
    pub kind: DecisionKind,
}

/// Per-application state: the kernel's one record per app. Callers see
/// it read-only, through [`TenantState::app`].
#[derive(Debug)]
pub struct AppState {
    /// The app's policy instance (or its key into the tenant manager).
    pub policy: ServedPolicy,
    /// Windows governing the gap in progress.
    pub windows: Windows,
    /// Last accepted invocation timestamp.
    pub last_ts: u64,
    /// The image was evicted for memory pressure during the gap in
    /// progress; the next invocation is downgraded to cold.
    pub evicted: bool,
    /// The app's deterministic Burr footprint, computed once at first
    /// sight — a pure function of `(tenant, app)`, so the hot path
    /// never re-runs the quantile transform.
    pub footprint_mb: u64,
    /// The most recent verdict served plus its inputs (`None` only for
    /// restored apps that have not been invoked since).
    pub last_verdict: Option<LastVerdict>,
    /// The stamp of the step (or restore) that last changed this record:
    /// its own invocation, or the one whose charge evicted it. The
    /// daemon passes its mutation sequence, so a replication round
    /// exports exactly the records stamped past the follower's
    /// frontier; the simulator passes 0.
    pub stamp: u64,
}

/// One tenant's complete decision state: the app records, the
/// production manager when the tenant's policy is
/// [`PolicySpec::Production`], and the memory ledger.
pub struct TenantState {
    spec: TenantSpec,
    apps: HashMap<String, AppState>,
    /// `Some` iff `spec.policy` is [`PolicySpec::Production`].
    production: Option<ProductionManager>,
    /// Next key to hand to a newly seen production app. Keys are local
    /// and never serialized — records are app-id-keyed, so a restore
    /// (even with a different shard count) just re-assigns them.
    next_key: AppKey,
    ledger: TenantLedger,
}

impl TenantState {
    /// Empty state for `spec`.
    pub fn new(spec: TenantSpec) -> TenantState {
        TenantState {
            production: match &spec.policy {
                PolicySpec::Production(cfg) => Some(ProductionManager::new(*cfg)),
                _ => None,
            },
            ledger: TenantLedger::new(spec.budget_mb),
            apps: HashMap::new(),
            next_key: 0,
            spec,
        }
    }

    /// Rebuilds a tenant from a restore payload — startup restore and
    /// live tenant migration alike — stamping every record `stamp`.
    ///
    /// # Errors
    ///
    /// This is where state enters, so this is where a record that does
    /// not belong under the tenant's policy is refused: production state
    /// into a tenant without a manager, stateless or hybrid state into a
    /// production tenant, hybrid state under a fixed policy, days a
    /// manager will not import. [`TenantState::step`] never meets one.
    pub fn restore(restore: TenantRestore, stamp: u64) -> Result<TenantState, String> {
        let mut tenant = Self::new(restore.spec);
        tenant.ledger = TenantLedger::restore(tenant.spec.budget_mb, restore.ledger);
        if let (Some(manager), Some(at_ms)) = (&mut tenant.production, restore.prod_clock) {
            manager.set_last_backup_ms(at_ms);
        }
        tenant.apps.reserve(restore.apps.len().max(16));
        for rec in restore.apps {
            let policy = match (rec.state, &mut tenant.production) {
                (PolicyState::Production { last, state }, Some(manager)) => {
                    let key = tenant.next_key;
                    tenant.next_key += 1;
                    manager.import_app(key, state)?;
                    ServedPolicy::Production { key, last }
                }
                (state, _) => state.into_policy(&tenant.spec.policy)?,
            };
            let footprint_mb = footprint_mb(&tenant.spec.name, &rec.app);
            tenant.apps.insert(
                rec.app,
                AppState {
                    policy,
                    windows: rec.windows,
                    last_ts: rec.last_ts,
                    evicted: rec.evicted,
                    footprint_mb,
                    last_verdict: None,
                    stamp,
                },
            );
        }
        Ok(tenant)
    }

    /// A policy instance for an app seen for the first time.
    fn fresh_policy(&mut self) -> ServedPolicy {
        match &self.spec.policy {
            PolicySpec::Fixed(f) => ServedPolicy::Fixed(*f),
            PolicySpec::NoUnloading => ServedPolicy::NoUnload(NoUnloading),
            PolicySpec::Hybrid(cfg) => ServedPolicy::Hybrid(HybridPolicy::new(cfg.clone())),
            PolicySpec::Production(_) => {
                let key = self.next_key;
                self.next_key += 1;
                // `last` is overwritten by the decision that follows.
                ServedPolicy::Production {
                    key,
                    last: DecisionKind::StandardKeepAlive,
                }
            }
        }
    }

    /// Classifies one invocation and advances the tenant. `stamp` is
    /// written into every record the step changes — the app's own and
    /// each victim's. A rejected step changes nothing.
    // sitw-lint: hot-path
    pub fn step(&mut self, app: &str, ts: u64, stamp: u64) -> Result<Served<'_>, OutOfOrder> {
        let (verdict, mb) = match self.apps.get_mut(app) {
            None => {
                // First invocation of this app: cold by definition (§5.1).
                let mut policy = self.fresh_policy();
                let (windows, kind) = advance(&mut self.production, &mut policy, ts, None);
                let verdict = FleetVerdict {
                    cold: true,
                    prewarm_load: false,
                    evicted: false,
                    kind,
                    windows,
                };
                let mb = footprint_mb(&self.spec.name, app);
                self.apps.insert(
                    // First sight: the one allocation an app's name costs.
                    app.to_owned(), // sitw-lint: allow(hot-path-alloc)
                    AppState {
                        policy,
                        windows,
                        last_ts: ts,
                        evicted: false,
                        footprint_mb: mb,
                        last_verdict: Some(LastVerdict::of(ts, None, &verdict)),
                        stamp,
                    },
                );
                (verdict, mb)
            }
            Some(state) => {
                if ts < state.last_ts {
                    return Err(OutOfOrder {
                        last_ts: state.last_ts,
                    });
                }
                let idle = ts - state.last_ts;
                let outcome = state.windows.classify_gap(idle);
                // The memory-pressure downgrade: a gap the policy would
                // have served warm is cold when the budget evicted the
                // image mid-gap (and the phantom pre-warm load with it).
                // Cleared before the charge, which may set it again.
                let was_evicted = state.evicted;
                state.evicted = false;
                let (windows, kind) =
                    advance(&mut self.production, &mut state.policy, ts, Some(idle));
                state.windows = windows;
                state.last_ts = ts;
                let verdict = FleetVerdict {
                    cold: outcome.cold || was_evicted,
                    prewarm_load: outcome.prewarm_load && !was_evicted,
                    evicted: was_evicted,
                    kind,
                    windows,
                };
                state.last_verdict = Some(LastVerdict::of(ts, Some(idle), &verdict));
                state.stamp = stamp;
                (verdict, state.footprint_mb)
            }
        };

        // Charge the ledger: the app is warm until its windows lapse,
        // holding its footprint. Budget overflows evict by earliest
        // expiry — possibly the just-charged app itself.
        let expiry = verdict.windows.loaded_until(ts);
        let victims = self.ledger.charge(app, ts, expiry, mb);
        for victim in victims {
            if let Some(v) = self.apps.get_mut(&**victim) {
                v.evicted = true;
                v.stamp = stamp;
            }
        }
        Ok(Served {
            verdict,
            victims,
            tenant: &self.spec,
        })
    }

    /// The tenant's configuration.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Replaces the memory budget (0 = unlimited). Enforcement is lazy —
    /// the new budget bites on the *next* charge — so a reconciled share
    /// never rewrites verdicts retroactively.
    pub fn set_budget(&mut self, budget_mb: u64) {
        self.spec.budget_mb = budget_mb;
        self.ledger.set_budget(budget_mb);
    }

    /// The tenant's memory ledger.
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// The tenant's production manager (`Some` iff it serves
    /// [`PolicySpec::Production`]): backup clock and §6 counters.
    pub fn production(&self) -> Option<&ProductionManager> {
        self.production.as_ref()
    }

    /// Number of apps the tenant has state for.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// One app's record, if the tenant has seen it.
    pub fn app(&self, app: &str) -> Option<&AppState> {
        self.apps.get(app)
    }

    /// Exports the records `keep` selects, sorted by app id — everything
    /// for a snapshot or a migration, the records stamped past a
    /// frontier for a replication round.
    pub fn export_apps(&self, keep: impl Fn(&AppState) -> bool) -> Vec<AppRecord> {
        let mut apps: Vec<AppRecord> = self
            .apps
            .iter()
            .filter(|(_, state)| keep(state))
            .map(|(app, state)| AppRecord {
                app: app.clone(),
                last_ts: state.last_ts,
                windows: state.windows,
                evicted: state.evicted,
                state: match &state.policy {
                    ServedPolicy::Fixed(_) | ServedPolicy::NoUnload(_) => PolicyState::Stateless,
                    ServedPolicy::Hybrid(h) => PolicyState::Hybrid(h.snapshot()),
                    // An app the manager has recorded nothing for yet
                    // (first sight only) exports no days.
                    ServedPolicy::Production { key, last } => PolicyState::Production {
                        last: *last,
                        state: self
                            .production
                            .as_ref()
                            .and_then(|m| m.export_app(*key))
                            .unwrap_or_default(),
                    },
                },
            })
            .collect();
        apps.sort_by(|a, b| a.app.cmp(&b.app));
        apps
    }
}

impl LastVerdict {
    fn of(ts: u64, idle_ms: Option<u64>, v: &FleetVerdict) -> LastVerdict {
        LastVerdict {
            ts,
            idle_ms,
            cold: v.cold,
            prewarm_load: v.prewarm_load,
            evicted: v.evicted,
            kind: v.kind,
        }
    }
}

/// Advances one app's policy: the windows governing its next gap and
/// the branch that produced them. The one place the tenant's manager
/// and the app's policy variant meet.
// sitw-lint: hot-path
fn advance(
    production: &mut Option<ProductionManager>,
    policy: &mut ServedPolicy,
    ts: u64,
    idle: Option<u64>,
) -> (Windows, DecisionKind) {
    match (production, policy) {
        (Some(manager), ServedPolicy::Production { key, last }) => {
            let (windows, kind) = manager.on_invocation(*key, ts, idle);
            *last = kind;
            (windows, kind)
        }
        (_, ServedPolicy::Fixed(p)) => (p.on_invocation(idle), p.last_decision()),
        (_, ServedPolicy::NoUnload(p)) => (p.on_invocation(idle), p.last_decision()),
        (_, ServedPolicy::Hybrid(p)) => (p.on_invocation(idle), p.last_decision()),
        // A manager's key with no manager: `fresh_policy` hands keys out
        // only under one and `restore` refuses the record, so no app is
        // in this state. Nothing to consult keeps nothing warm.
        (None, ServedPolicy::Production { last, .. }) => (Windows::keep_loaded(0), *last),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::MINUTE_MS;

    fn spec(policy: &str, budget_mb: u64) -> TenantSpec {
        TenantSpec {
            id: 1,
            name: "t".into(),
            policy: PolicySpec::parse(policy).unwrap(),
            budget_mb,
        }
    }

    /// Everything a snapshot of the tenant would carry, as text: equal
    /// strings are byte-equal exports.
    fn export(t: &TenantState) -> String {
        format!(
            "{:?} {:?} {:?}",
            t.export_apps(|_| true),
            t.ledger().export(),
            t.production().map(|m| m.last_backup_ms()),
        )
    }

    #[test]
    fn a_rejected_step_changes_nothing() {
        for policy in ["fixed:10", "hybrid", "production"] {
            // A budget two of the three apps fit under: steps evict.
            let budget = footprint_mb("t", "a") + footprint_mb("t", "b");
            let mut live = TenantState::new(spec(policy, budget));
            let mut twin = TenantState::new(spec(policy, budget));
            let mut ts = 0;
            for i in 0..90u64 {
                ts += 7 * MINUTE_MS + i % 3 * 20_000;
                let app = ["a", "b", "c"][(i % 3) as usize];
                let got = live.step(app, ts, i).map(|s| s.verdict);
                assert_eq!(got, twin.step(app, ts, i).map(|s| s.verdict));
            }
            // Only `live` sees the late timestamps — two days late for
            // the production clock to notice, had it been consulted.
            let before = export(&live);
            for app in ["a", "b", "c"] {
                let last_ts = live.app(app).unwrap().last_ts;
                assert_eq!(
                    live.step(app, last_ts - 1, 1_000).map(|s| s.verdict),
                    Err(OutOfOrder { last_ts })
                );
                assert!(live.step(app, 0, 1_000).is_err());
                assert_eq!(export(&live), before, "{policy}: rejection left a trace");
                assert!(live.app(app).unwrap().stamp < 1_000);
            }
            // And the next in-order steps answer as if it never came.
            for i in 0..30u64 {
                ts += 2_900 * MINUTE_MS * (i % 2) + 9 * MINUTE_MS;
                let app = ["c", "a", "b"][(i % 3) as usize];
                let got = live.step(app, ts, 2_000).map(|s| s.verdict);
                assert_eq!(
                    got,
                    twin.step(app, ts, 2_000).map(|s| s.verdict),
                    "{policy}"
                );
            }
            assert_eq!(export(&live), export(&twin));
        }
    }

    #[test]
    fn restore_refuses_records_the_step_could_not_serve() {
        let record = |state: PolicyState| AppRecord {
            app: "a".into(),
            last_ts: 5,
            windows: Windows::keep_loaded(600_000),
            evicted: false,
            state,
        };
        let production = PolicyState::Production {
            last: DecisionKind::Histogram,
            state: ProductionAppState::default(),
        };
        for (policy, state) in [
            ("hybrid", production.clone()),
            ("fixed:10", production.clone()),
            ("production", PolicyState::Stateless),
            ("fixed:10", {
                let mut t = TenantState::new(spec("hybrid", 0));
                t.step("a", 0, 0).unwrap();
                t.export_apps(|_| true).remove(0).state
            }),
        ] {
            let restore = TenantRestore {
                apps: vec![record(state)],
                ..TenantRestore::fresh(spec(policy, 0))
            };
            assert!(TenantState::restore(restore, 0).is_err(), "{policy}");
        }
        // The matching pairings restore, stamped as asked.
        let restore = TenantRestore {
            apps: vec![record(production)],
            ..TenantRestore::fresh(spec("production", 0))
        };
        let t = TenantState::restore(restore, 7).unwrap();
        assert_eq!(t.app("a").unwrap().stamp, 7);
        assert!(t.app("a").unwrap().last_verdict.is_none());
    }
}
