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
//! 3. advance the app's policy state under the tenant's one
//!    configuration (its [`PolicySpec`]) to get the next windows;
//! 4. charge the ledger: the app is warm until
//!    [`sitw_core::Windows::loaded_until`], holding its deterministic
//!    Burr footprint; any victims the budget forces out are marked
//!    evicted for *their* next invocation.
//!
//! An app's [`AppState`] lives in its slot of the tenant's one table
//! ([`TenantLedger`]), beside its footprint and charge. A step makes
//! **one probe by app name**, for that slot (or a first sight), and then
//! works by index: each victim is marked evicted inside the ledger's
//! eviction loop as its charge is released, never looked up again.
//! Configuration lives once per tenant, in the spec; what an app's
//! policy has learned lives once per app, in its slot. A production
//! tenant adds only its backup clock, a [`ProductionManager`].
//!
//! Nothing outside this module composes those four. A change to the
//! step is therefore invisible to online == offline parity; it is held
//! by the differential proptest against the step it replaced
//! (`sim_ref.rs`, test-only) and the parent-captured goldens in
//! `sim.rs`.

use std::fmt;
use std::sync::Arc;

use sitw_core::{
    DecisionKind, HybridApp, HybridSnapshot, PolicySpec, ProductionApp, ProductionAppState,
    ProductionManager, Windows,
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

/// What one application's policy has learned, without configuration:
/// every decision reads that from the tenant's [`PolicySpec`].
///
/// An enum rather than `Box<dyn AppPolicy>` for two reasons: decisions
/// dispatch without a vtable on the hot path, and export can match on
/// the variant instead of downcasting.
#[derive(Debug, Clone)]
pub enum ServedPolicy {
    /// Fixed keep-alive or no-unloading: nothing to learn, the windows
    /// are the spec's.
    Stateless,
    /// The hybrid histogram policy.
    Hybrid(HybridApp),
    /// The production scheme (§6).
    Production {
        /// The branch that produced the most recent decision.
        last: DecisionKind,
        /// The app's retained daily histograms and cached aggregate.
        app: ProductionApp,
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
    /// Rebuilds an app's policy state under `spec`.
    ///
    /// # Errors
    ///
    /// Fails when the state variant does not match the spec (e.g. a
    /// hybrid snapshot restored into a fixed-keep-alive server) or the
    /// spec's configuration refuses it (histogram geometry, day order).
    pub fn into_policy(self, spec: &PolicySpec) -> Result<ServedPolicy, String> {
        match (self, spec) {
            (PolicyState::Stateless, PolicySpec::Fixed(_) | PolicySpec::NoUnloading) => {
                Ok(ServedPolicy::Stateless)
            }
            (PolicyState::Hybrid(snap), PolicySpec::Hybrid(cfg)) => {
                Ok(ServedPolicy::Hybrid(HybridApp::from_snapshot(cfg, snap)?))
            }
            (PolicyState::Production { last, state }, PolicySpec::Production(cfg)) => {
                Ok(ServedPolicy::Production {
                    last,
                    app: ProductionApp::import(cfg, state)?,
                })
            }
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
/// for decision provenance (its timestamp is the app's `last_ts`).
#[derive(Debug, Clone, Copy)]
pub struct LastVerdict {
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

/// The kernel's half of an app's record: what [`TenantState::step`]
/// keeps per app, in the same table slot as the app's footprint and
/// charge. Callers see it read-only, through [`TenantState::app`].
#[derive(Debug)]
pub struct AppState {
    /// What the app's policy has learned.
    pub policy: ServedPolicy,
    /// Windows governing the gap in progress.
    pub windows: Windows,
    /// Last accepted invocation timestamp.
    pub last_ts: u64,
    /// The image was evicted for memory pressure during the gap in
    /// progress; the next invocation is downgraded to cold.
    pub evicted: bool,
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

/// Why [`TenantState::restore`] refused a payload: it does not
/// describe one table of apps the step could serve. Nothing is
/// installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A record does not belong under the tenant's policy, its state
    /// does not fit the policy's configuration, or it names an app
    /// twice.
    Record(String),
    /// A ledger charge no record holds: an app with no record, or an MB
    /// other than the app's footprint.
    Charge {
        /// The charged app.
        app: String,
        /// The charged MB.
        mb: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Record(e) => f.write_str(e),
            RestoreError::Charge { app, mb } => write!(
                f,
                "ledger charges app '{app}' {mb} MB, which is not a recorded app's footprint"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// One tenant's complete decision state: its spec, the app table and,
/// when the tenant's policy is [`PolicySpec::Production`], the backup
/// clock.
pub struct TenantState {
    spec: TenantSpec,
    table: TenantLedger<AppState>,
    /// `Some` iff `spec.policy` is [`PolicySpec::Production`]: the
    /// tenant's backup clock. It holds no app.
    production: Option<ProductionManager>,
}

impl TenantState {
    /// Empty state for `spec`.
    pub fn new(spec: TenantSpec) -> TenantState {
        TenantState {
            production: match &spec.policy {
                PolicySpec::Production(cfg) => Some(ProductionManager::new(*cfg)),
                _ => None,
            },
            table: TenantLedger::empty(spec.budget_mb),
            spec,
        }
    }

    /// Rebuilds a tenant from a restore payload — startup restore and
    /// live tenant migration alike — stamping every record `stamp`.
    ///
    /// # Errors
    ///
    /// This is where state enters, so this is where a payload the step
    /// could not serve is refused: a record that does not belong under
    /// the tenant's policy (production state into a non-production
    /// tenant, stateless or hybrid state into a production tenant,
    /// hybrid state under a fixed policy, bins or days the tenant's
    /// configuration refuses), two records of one app, and a ledger
    /// charge for an app with no record or for an MB that is not the
    /// app's footprint.
    /// [`TenantState::step`] never meets one.
    pub fn restore(restore: TenantRestore, stamp: u64) -> Result<TenantState, RestoreError> {
        let mut tenant = Self::new(restore.spec);
        if let (Some(manager), Some(at_ms)) = (&mut tenant.production, restore.prod_clock) {
            manager.set_last_backup_ms(at_ms);
        }
        for rec in restore.apps {
            if tenant.table.slot_of(&rec.app).is_some() {
                return Err(RestoreError::Record(format!(
                    "app '{}' has two records",
                    rec.app
                )));
            }
            let policy = rec
                .state
                .into_policy(&tenant.spec.policy)
                .map_err(RestoreError::Record)?;
            let mb = footprint_mb(&tenant.spec.name, &rec.app);
            let app = AppState {
                policy,
                windows: rec.windows,
                last_ts: rec.last_ts,
                evicted: rec.evicted,
                last_verdict: None,
                stamp,
            };
            tenant.table.insert(&rec.app, mb, app);
        }
        tenant.table.load(restore.ledger, |table, app, mb| {
            let slot = table
                .slot_of(app)
                .filter(|&slot| table.slots[slot].mb == mb);
            slot.ok_or_else(|| RestoreError::Charge {
                app: app.into(),
                mb,
            })
        })?;
        Ok(tenant)
    }

    /// The policy state of an app seen for the first time. What it
    /// allocates is allocated here, where the slot is created, so that
    /// no decision body does.
    fn fresh_policy(&self) -> ServedPolicy {
        match &self.spec.policy {
            PolicySpec::Fixed(_) | PolicySpec::NoUnloading => ServedPolicy::Stateless,
            PolicySpec::Hybrid(cfg) => ServedPolicy::Hybrid(HybridApp::new(cfg)),
            // `last` is overwritten by the decision that follows.
            PolicySpec::Production(cfg) => ServedPolicy::Production {
                last: DecisionKind::StandardKeepAlive,
                app: ProductionApp::new(cfg),
            },
        }
    }

    /// Classifies one invocation and advances the tenant. `stamp` is
    /// written into every record the step changes — the app's own and
    /// each victim's. A rejected step changes nothing.
    // sitw-lint: hot-path
    pub fn step(&mut self, app: &str, ts: u64, stamp: u64) -> Result<Served<'_>, OutOfOrder> {
        let (slot, idle) = match self.table.slot_of(app) {
            Some(slot) => {
                let last_ts = self.table.slots[slot].app.last_ts;
                if ts < last_ts {
                    return Err(OutOfOrder { last_ts });
                }
                (slot, Some(ts - last_ts))
            }
            // First invocation of this app: no idle time, so cold by
            // definition (§5.1). The placeholder windows are replaced
            // below, as on every step.
            None => {
                let state = AppState {
                    policy: self.fresh_policy(),
                    windows: Windows::keep_loaded(0),
                    last_ts: ts,
                    evicted: false,
                    last_verdict: None,
                    stamp,
                };
                let mb = footprint_mb(&self.spec.name, app);
                (self.table.insert(app, mb, state), None)
            }
        };
        let state = &mut self.table.slots[slot].app;
        let gap = idle.map(|idle| state.windows.classify_gap(idle));
        // The memory-pressure downgrade: a gap the policy would have
        // served warm is cold when the budget evicted the image mid-gap
        // (and the phantom pre-warm load with it). Cleared before the
        // charge, which may set it again.
        let was_evicted = std::mem::take(&mut state.evicted);
        if let Some(clock) = &mut self.production {
            clock.tick_backup(ts);
        }
        let (windows, kind) = advance(&self.spec.policy, &mut state.policy, ts, idle);
        let verdict = FleetVerdict {
            cold: gap.is_none_or(|g| g.cold) || was_evicted,
            prewarm_load: gap.is_some_and(|g| g.prewarm_load) && !was_evicted,
            evicted: was_evicted,
            kind,
            windows,
        };
        state.windows = windows;
        state.last_ts = ts;
        state.last_verdict = Some(LastVerdict {
            idle_ms: idle,
            cold: verdict.cold,
            prewarm_load: verdict.prewarm_load,
            evicted: was_evicted,
            kind,
        });
        state.stamp = stamp;

        // Charge the ledger: the app is warm until its windows lapse,
        // holding its footprint. Budget overflows evict by earliest
        // expiry — possibly the just-charged app itself — and each
        // victim is marked as the eviction loop releases it.
        let expiry = verdict.windows.loaded_until(ts);
        let mb = self.table.slots[slot].mb;
        let victims = self.table.charge_slot(slot, ts, expiry, mb, |victim| {
            victim.evicted = true;
            victim.stamp = stamp;
        });
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
        self.table.set_budget(budget_mb);
    }

    /// The tenant's app table, as its memory ledger.
    pub fn ledger(&self) -> &TenantLedger<AppState> {
        &self.table
    }

    /// The tenant's backup clock (`Some` iff it serves
    /// [`PolicySpec::Production`]) and its §6 counters.
    pub fn production(&self) -> Option<&ProductionManager> {
        self.production.as_ref()
    }

    /// Number of apps the tenant has state for.
    pub fn num_apps(&self) -> usize {
        self.table.slots.len()
    }

    /// One app's record, if the tenant has seen it.
    pub fn app(&self, app: &str) -> Option<&AppState> {
        let slot = self.table.slot_of(app)?;
        Some(&self.table.slots[slot].app)
    }

    /// Exports the records `keep` selects, sorted by app id — everything
    /// for a snapshot or a migration, the records stamped past a
    /// frontier for a replication round.
    pub fn export_apps(&self, keep: impl Fn(&AppState) -> bool) -> Vec<AppRecord> {
        let mut apps: Vec<AppRecord> = self
            .table
            .slots
            .iter()
            .filter(|slot| keep(&slot.app))
            .map(|slot| AppRecord {
                app: String::from(&*slot.name),
                last_ts: slot.app.last_ts,
                windows: slot.app.windows,
                evicted: slot.app.evicted,
                state: match &slot.app.policy {
                    ServedPolicy::Stateless => PolicyState::Stateless,
                    ServedPolicy::Hybrid(h) => PolicyState::Hybrid(h.snapshot()),
                    ServedPolicy::Production { last, app } => PolicyState::Production {
                        last: *last,
                        state: app.export(),
                    },
                },
            })
            .collect();
        apps.sort_by(|a, b| a.app.cmp(&b.app));
        apps
    }
}

/// Advances one app's policy state under the tenant's spec: the
/// windows governing its next gap and the branch that produced them.
// sitw-lint: hot-path
fn advance(
    spec: &PolicySpec,
    policy: &mut ServedPolicy,
    ts: u64,
    idle: Option<u64>,
) -> (Windows, DecisionKind) {
    match (policy, spec) {
        (ServedPolicy::Stateless, PolicySpec::Fixed(f)) => {
            (Windows::keep_loaded(f.keep_alive_ms), DecisionKind::Static)
        }
        (ServedPolicy::Stateless, PolicySpec::NoUnloading) => {
            (Windows::NEVER_UNLOAD, DecisionKind::Static)
        }
        (ServedPolicy::Hybrid(app), PolicySpec::Hybrid(cfg)) => {
            (app.on_invocation(cfg, idle), app.last_decision())
        }
        (ServedPolicy::Production { last, app }, PolicySpec::Production(cfg)) => {
            let (windows, kind) = app.on_invocation(cfg, ts, idle);
            *last = kind;
            (windows, kind)
        }
        // A state its spec did not build: `fresh_policy` and `restore`
        // never make one. Nothing to consult keeps nothing warm.
        _ => (Windows::keep_loaded(0), DecisionKind::Static),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn production_steps_tick_the_tenant_backup_clock() {
        // The clock is the tenant's, not an app's: two apps, one clock.
        let mut t = TenantState::new(spec("production", 0));
        t.step("a", 2 * 3_600_000 + 5, 0).unwrap();
        t.step("b", 5 * 3_600_000 + 5, 1).unwrap();
        let clock = t.production().unwrap();
        assert_eq!(clock.backups_taken(), 5);
        assert_eq!(clock.last_backup_ms(), 5 * 3_600_000);
        assert!(TenantState::new(spec("hybrid", 0)).production().is_none());
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

    /// The tenant's full state as a restore payload.
    fn payload(t: &TenantState) -> TenantRestore {
        TenantRestore {
            spec: t.spec().clone(),
            apps: t.export_apps(|_| true),
            ledger: t.ledger().export(),
            prod_clock: t.production().map(|m| m.last_backup_ms()),
        }
    }

    #[test]
    fn restore_refuses_a_ledger_that_is_not_the_records_charges() {
        // Three apps under a budget that holds two: one is evicted.
        let budget = footprint_mb("t", "a") + footprint_mb("t", "b");
        let mut t = TenantState::new(spec("hybrid", budget));
        for (i, app) in ["a", "b", "c"].into_iter().enumerate() {
            t.step(app, i as u64 * 1_000, 0).unwrap();
        }
        assert!(t.ledger().stats().evictions > 0);
        let edited = |edit: fn(&mut TenantRestore)| {
            let mut restore = payload(&t);
            edit(&mut restore);
            TenantState::restore(restore, 0).map(|_| ()).unwrap_err()
        };
        // A charge for an app with no record: it would count toward
        // `warm_mb` and evict real apps, and its own eviction would mark
        // nothing.
        let phantom = edited(|r| r.ledger.warm.push(("ghost".into(), 9_000, 10)));
        let charge = |app: &str, mb| RestoreError::Charge {
            app: app.into(),
            mb,
        };
        assert_eq!(phantom, charge("ghost", 10));
        // A charge of an MB that is not the app's footprint.
        let resized = edited(|r| r.ledger.warm[0].2 += 1);
        let (app, mb) = (
            payload(&t).ledger.warm[0].0.clone(),
            payload(&t).ledger.warm[0].2,
        );
        assert_eq!(resized, charge(&app, mb + 1));
        // Two records of one app.
        let twice = edited(|r| r.apps.push(r.apps[0].clone()));
        assert_eq!(
            twice,
            RestoreError::Record("app 'a' has two records".into())
        );
        // The payload as exported restores.
        assert!(TenantState::restore(payload(&t), 0).is_ok());
    }

    /// All four [`PolicySpec`] kinds.
    const POLICIES: [&str; 4] = ["fixed:10", "no-unloading", "hybrid", "production"];
    /// Budgets in MB: unlimited, one almost no footprint fits under (the
    /// just-charged app is then its own victim), and three that bite
    /// harder or softer.
    const BUDGETS_MB: [u64; 5] = [0, 20, 150, 400, 1_200];
    /// Per-app rhythms: ones the hybrid histogram learns, one past its
    /// 4 h range (out of bounds, ARIMA), one longer than a day.
    const PERIODS_MS: [u64; 6] = [
        2 * MINUTE_MS,
        5 * MINUTE_MS,
        10 * MINUTE_MS,
        45 * MINUTE_MS,
        300 * MINUTE_MS,
        1_800 * MINUTE_MS,
    ];
    const JUMPS_MS: [u64; 3] = [360 * MINUTE_MS, 1_560 * MINUTE_MS, 4_400 * MINUTE_MS];

    proptest! {
        /// A tenant exported and restored into a fresh [`TenantState`]
        /// at random points continues exactly like one that never was:
        /// after every step the verdict or rejection, the victim list
        /// and the full export (records, ledger, production clock) are
        /// equal. Streams are `kernel_step_equals_the_inline_reference`'s
        /// for one tenant: every policy kind, budgets down to one no
        /// footprint fits, rhythmic apps with exact ties, late
        /// timestamps and jumps of hours to days.
        #[test]
        fn export_restore_continue_equals_uninterrupted(
            policy in 0usize..POLICIES.len(),
            budget in 0usize..BUDGETS_MB.len(),
            apps in 3usize..=8,
            seed in 0u64..u64::MAX,
            words in prop::collection::vec(0u64..u64::MAX, 200..900),
        ) {
            let spec = spec(POLICIES[policy], BUDGETS_MB[budget]);
            let names: Vec<String> = (0..apps).map(|i| format!("app-{i}")).collect();
            let mix = |salt: u64| crate::mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let period = |a: usize| PERIODS_MS[(mix(100 + a as u64) % PERIODS_MS.len() as u64) as usize];
            let mut due: Vec<u64> = (0..apps).map(|a| mix(a as u64) % period(a)).collect();
            let mut last: Vec<Option<u64>> = vec![None; apps];
            let mut live = TenantState::new(spec.clone());
            let mut restored = TenantState::new(spec);
            let mut restores = 0;
            for (step, &w) in words.iter().enumerate() {
                let field = |salt: u64| crate::mix64(w ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                if field(7) % 16 == 0 {
                    restored = TenantState::restore(payload(&restored), step as u64)
                        .map_err(|e| format!("step {step}: {e}"))?;
                    restores += 1;
                }
                let ra = (field(3) % apps as u64) as usize;
                let (a, ts) = match field(1) % 64 {
                    // Late: before the app's last accepted timestamp.
                    1..=3 => (ra, last[ra].map_or(0, |l| l.saturating_sub(1 + field(4) % 100_000))),
                    // An exact tie with the last accepted timestamp.
                    4..=6 => (ra, last[ra].unwrap_or(due[ra])),
                    // Hours to days pass.
                    7 => {
                        let jump = JUMPS_MS[(field(4) % 3) as usize];
                        due.iter_mut().for_each(|d| *d += jump);
                        continue;
                    }
                    // Whichever app is due first, mostly on the beat.
                    _ => {
                        let a = (0..apps).min_by_key(|&a| due[a]).expect("apps");
                        let ts = due[a];
                        let p = period(a);
                        due[a] = ts + if field(5) % 16 == 0 { 0 } else { p + field(6) % (p / 16) };
                        (a, ts)
                    }
                };
                let step_stamp = step as u64;
                let got = restored.step(&names[a], ts, step_stamp).map(|s| (s.verdict, s.victims.to_vec()));
                let want = live.step(&names[a], ts, step_stamp).map(|s| (s.verdict, s.victims.to_vec()));
                prop_assert!(got == want, "step {step}: ({a}, {ts}) gave {got:?}, want {want:?}");
                if want.is_ok() {
                    last[a] = Some(ts);
                    due[a] = due[a].max(ts);
                }
                let full = |t: &TenantState| {
                    let p = payload(t);
                    (p.apps, p.ledger, p.prod_clock)
                };
                prop_assert!(full(&restored) == full(&live), "step {step}: exports differ");
            }
            prop_assert!(restores > 0);
        }
    }
}
