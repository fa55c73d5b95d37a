//! The fleet step the tenant kernel replaced, kept as the reference a
//! property test drives [`FleetSim`] against.
//!
//! [`RefFleetSim::step`] is the previous `FleetSim::step` verbatim:
//! per-app `Box<dyn AppPolicy>` or production state beside the
//! tenant's production manager, classify → eviction downgrade → advance
//! → charge → mark victims, written out in place. The daemon's shard workers and
//! `FleetSim` now call one `TenantState::step`, so online == offline
//! parity cannot see that step drift; this can.

use std::collections::HashMap;

use sitw_core::{AppPolicy, DecisionKind, PolicySpec, ProductionApp, ProductionManager, Windows};

use crate::footprint::footprint_mb;
use crate::ledger::TenantLedger;
use crate::registry::{TenantId, TenantRegistry};
use crate::sim::FleetError;
use crate::tenant::FleetVerdict;

/// Per-app offline state.
struct AppSim {
    /// Per-app policy instance (`None` in production mode, where `prod`
    /// holds the state).
    policy: Option<Box<dyn AppPolicy + Send>>,
    /// The app's production state (production mode only).
    prod: Option<ProductionApp>,
    last_kind: DecisionKind,
    windows: Windows,
    last_ts: u64,
    /// The image was evicted during the gap in progress.
    evicted: bool,
    /// Deterministic Burr footprint, computed once at first sight
    /// (mirrors the daemon's per-app cache).
    footprint_mb: u64,
}

/// Per-tenant offline state.
struct TenantSim {
    name: String,
    policy: PolicySpec,
    ledger: TenantLedger,
    apps: HashMap<String, AppSim>,
    /// `Some` iff `policy` is [`PolicySpec::Production`].
    production: Option<ProductionManager>,
}

/// The offline multi-tenant replay engine.
pub(crate) struct RefFleetSim {
    tenants: HashMap<TenantId, TenantSim>,
}

impl RefFleetSim {
    /// Builds a simulator for every tenant in `registry`.
    pub(crate) fn new(registry: &TenantRegistry) -> Self {
        let tenants = registry
            .tenants()
            .iter()
            .map(|spec| {
                let production = match &spec.policy {
                    PolicySpec::Production(cfg) => Some(ProductionManager::new(*cfg)),
                    _ => None,
                };
                (
                    spec.id,
                    TenantSim {
                        name: spec.name.clone(),
                        policy: spec.policy.clone(),
                        ledger: TenantLedger::new(spec.budget_mb),
                        apps: HashMap::new(),
                        production,
                    },
                )
            })
            .collect();
        Self { tenants }
    }

    /// Replays one invocation.
    pub(crate) fn step(
        &mut self,
        tenant: TenantId,
        app: &str,
        ts: u64,
    ) -> Result<FleetVerdict, FleetError> {
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or(FleetError::UnknownTenant(tenant))?;

        let (verdict, mb) = match t.apps.get_mut(app) {
            None => {
                // First invocation: cold by definition (§5.1).
                let (policy, prod, windows, kind) = match &mut t.production {
                    Some(manager) => {
                        let mut prod = ProductionApp::new(manager.config());
                        manager.tick_backup(ts);
                        let (windows, kind) = prod.on_invocation(manager.config(), ts, None);
                        (None, Some(prod), windows, kind)
                    }
                    None => {
                        let mut policy = t.policy.new_policy();
                        let windows = policy.on_invocation(None);
                        let kind = policy.last_decision();
                        (Some(policy), None, windows, kind)
                    }
                };
                let mb = footprint_mb(&t.name, app);
                t.apps.insert(
                    app.to_owned(),
                    AppSim {
                        policy,
                        prod,
                        last_kind: kind,
                        windows,
                        last_ts: ts,
                        evicted: false,
                        footprint_mb: mb,
                    },
                );
                (
                    FleetVerdict {
                        cold: true,
                        prewarm_load: false,
                        evicted: false,
                        kind,
                        windows,
                    },
                    mb,
                )
            }
            Some(state) => {
                if ts < state.last_ts {
                    return Err(FleetError::OutOfOrder {
                        last_ts: state.last_ts,
                    });
                }
                let idle = ts - state.last_ts;
                let outcome = state.windows.classify_gap(idle);
                let was_evicted = state.evicted;
                state.evicted = false;
                let (windows, kind) = match (&mut t.production, &mut state.policy, &mut state.prod)
                {
                    (Some(manager), _, Some(prod)) => {
                        manager.tick_backup(ts);
                        prod.on_invocation(manager.config(), ts, Some(idle))
                    }
                    (None, Some(policy), _) => {
                        let windows = policy.on_invocation(Some(idle));
                        (windows, policy.last_decision())
                    }
                    _ => unreachable!("an app has a policy or production state"),
                };
                state.windows = windows;
                state.last_kind = kind;
                state.last_ts = ts;
                (
                    FleetVerdict {
                        cold: outcome.cold || was_evicted,
                        prewarm_load: outcome.prewarm_load && !was_evicted,
                        evicted: was_evicted,
                        kind,
                        windows,
                    },
                    state.footprint_mb,
                )
            }
        };

        // Charge the ledger and apply budget pressure. The just-invoked
        // app can itself be the victim when its footprint cannot fit.
        let expiry = verdict.windows.loaded_until(ts);
        for victim in t.ledger.charge(app, ts, expiry, mb) {
            if let Some(v) = t.apps.get_mut(victim) {
                v.evicted = true;
            }
        }
        Ok(verdict)
    }

    /// The ledger of one tenant (stats/assertions).
    pub(crate) fn ledger(&self, tenant: TenantId) -> Option<&TenantLedger> {
        self.tenants.get(&tenant).map(|t| &t.ledger)
    }
}

mod tests {
    use proptest::prelude::*;
    use sitw_core::{PolicySpec, MINUTE_MS};

    use super::RefFleetSim;
    use crate::registry::{TenantId, TenantRegistry};
    use crate::sim::FleetSim;
    use crate::{mix64, LedgerExport, LedgerStats};

    /// All four [`PolicySpec`] kinds.
    const POLICIES: [&str; 4] = ["fixed:10", "no-unloading", "hybrid", "production"];
    /// Budgets in MB: unlimited, one almost no Burr footprint fits under
    /// (the just-charged app is then its own victim), and three that
    /// bite harder or softer.
    const BUDGETS_MB: [u64; 5] = [0, 20, 150, 400, 1_200];
    /// Per-app rhythms: short ones the hybrid histogram learns (so
    /// evictions land in gaps with a pre-warm load), one past its 4 h
    /// range (out of bounds, ARIMA), one longer than a day.
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
        /// After every step of a random merged stream the kernel-backed
        /// [`FleetSim`] returns the reference's verdict or error, and
        /// every tenant's ledger stats and export are equal. Streams
        /// merge 3–5 tenants (policy kind and budget drawn per tenant)
        /// of rhythmic apps in due order, and mix in exact timestamp
        /// ties, out-of-order timestamps, unknown tenant ids and jumps
        /// of hours to days that carry every tenant — the production
        /// ones included — across day boundaries.
        #[test]
        fn kernel_step_equals_the_inline_reference(
            tenants in 3usize..=5,
            apps in 3usize..=8,
            seed in 0u64..u64::MAX,
            words in prop::collection::vec(0u64..u64::MAX, 200..900),
        ) {
            let pick = |salt: u64, n: usize| (mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n as u64) as usize;
            let mut registry =
                TenantRegistry::new(PolicySpec::parse(POLICIES[pick(1, 4)]).unwrap());
            for t in 1..tenants {
                let policy = PolicySpec::parse(POLICIES[pick(2 + t as u64, 4)]).unwrap();
                let budget = BUDGETS_MB[pick(20 + t as u64, BUDGETS_MB.len())];
                registry.register(&format!("t{t}"), policy, budget).unwrap();
            }
            let names: Vec<String> = (0..apps).map(|i| format!("app-{i}")).collect();
            let period = |t: usize, a: usize| PERIODS_MS[pick(100 + (t * 16 + a) as u64, PERIODS_MS.len())];

            let mut new = FleetSim::new(&registry);
            let mut old = RefFleetSim::new(&registry);
            // The generator's own model: when each app is next due, and
            // the last timestamp either side accepted for it.
            let mut due: Vec<Vec<u64>> = (0..tenants)
                .map(|t| (0..apps).map(|a| mix64(seed ^ (t * 16 + a) as u64) % period(t, a)).collect())
                .collect();
            let mut last: Vec<Vec<Option<u64>>> = vec![vec![None; apps]; tenants];

            for (step, &w) in words.iter().enumerate() {
                let field = |salt: u64| mix64(w ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let (rt, ra) = ((field(2) % tenants as u64) as usize, (field(3) % apps as u64) as usize);
                let (t, a, ts) = match field(1) % 64 {
                    // An id no registry here holds.
                    0 => (tenants + (field(4) % 3) as usize, ra, due[rt][ra]),
                    // Out of order: before the app's last accepted
                    // timestamp (a first sight if it has none yet).
                    1..=3 => (rt, ra, last[rt][ra].map_or(0, |l| l.saturating_sub(1 + field(4) % 100_000))),
                    // An exact tie with the last accepted timestamp.
                    4..=6 => (rt, ra, last[rt][ra].unwrap_or(due[rt][ra])),
                    // Hours to days pass for everyone.
                    7 => {
                        let jump = JUMPS_MS[(field(4) % 3) as usize];
                        due.iter_mut().flatten().for_each(|d| *d += jump);
                        continue;
                    }
                    // The merge proper: whichever app is due first.
                    _ => {
                        let (t, a) = (0..tenants)
                            .flat_map(|t| (0..apps).map(move |a| (t, a)))
                            .min_by_key(|&(t, a)| due[t][a])
                            .expect("at least one app");
                        let ts = due[t][a];
                        // Mostly on the beat with a little jitter; now
                        // and then a zero gap.
                        let p = period(t, a);
                        due[t][a] = ts + if field(5) % 16 == 0 { 0 } else { p + field(6) % (p / 16) };
                        (t, a, ts)
                    }
                };
                let got = new.step(t as TenantId, &names[a], ts);
                let want = old.step(t as TenantId, &names[a], ts);
                prop_assert!(got == want, "step {step}: ({t}, {a}, {ts}) gave {got:?}, want {want:?}");
                if got.is_ok() {
                    last[t][a] = Some(ts);
                    due[t][a] = due[t][a].max(ts);
                }
                for tid in 0..tenants as TenantId {
                    fn view<P>(l: &crate::TenantLedger<P>) -> (LedgerStats, LedgerExport) { (l.stats(), l.export()) }
                    let (got, want) = (new.ledger(tid).map(view), old.ledger(tid).map(view));
                    prop_assert!(got == want, "step {step}: tenant {tid} ledger {got:?}, want {want:?}");
                }
            }
        }
    }
}
