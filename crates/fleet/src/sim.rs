//! The offline fleet simulator: the ground truth a fleet-mode daemon is
//! measured against.
//!
//! [`FleetSim`] replays a merged multi-tenant `(tenant, app, ts)` stream
//! through one [`TenantState`] per tenant — the same decision kernel the
//! daemon's shard workers step — producing the exact verdict the daemon
//! serves for each invocation: cold/warm, pre-warm load, decision
//! branch, the next windows, **and** the eviction downgrades memory
//! pressure forces. `sitw_sim` re-exports [`fleet_verdict_trace`] next
//! to its single-policy `verdict_trace`.
//!
//! The composition rule per invocation lives in [`crate::tenant`] and
//! nowhere else, so what the daemon and this simulator answer is equal
//! by construction. What the online == offline suites (`fleet_parity`,
//! `failover`, `routed_parity`) pin around it is everything else:
//! transport, sharding, snapshot/restore, replication and routing.

use std::collections::HashMap;

use crate::ledger::TenantLedger;
use crate::registry::{TenantId, TenantRegistry};
use crate::tenant::{AppState, FleetVerdict, OutOfOrder, TenantState};

/// One invocation of the merged multi-tenant stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEvent {
    /// Tenant the app belongs to.
    pub tenant: TenantId,
    /// Application id (namespaced per tenant).
    pub app: String,
    /// Invocation timestamp (trace milliseconds).
    pub ts: u64,
}

/// Why a fleet invocation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The tenant id is not in the registry.
    UnknownTenant(TenantId),
    /// The timestamp is older than the app's last accepted one.
    OutOfOrder {
        /// The app's last accepted timestamp.
        last_ts: u64,
    },
}

/// The offline multi-tenant replay engine: a driver over one
/// [`TenantState`] per registered tenant.
pub struct FleetSim {
    tenants: HashMap<TenantId, TenantState>,
}

impl FleetSim {
    /// Builds a simulator for every tenant in `registry`.
    pub fn new(registry: &TenantRegistry) -> Self {
        let tenants = registry
            .tenants()
            .iter()
            .map(|spec| (spec.id, TenantState::new(spec.clone())))
            .collect();
        Self { tenants }
    }

    /// Replays one invocation.
    pub fn step(
        &mut self,
        tenant: TenantId,
        app: &str,
        ts: u64,
    ) -> Result<FleetVerdict, FleetError> {
        let t = self
            .tenants
            .get_mut(&tenant)
            .ok_or(FleetError::UnknownTenant(tenant))?;
        // No replication frontier offline: every record is stamped 0.
        match t.step(app, ts, 0) {
            Ok(served) => Ok(served.verdict),
            Err(OutOfOrder { last_ts }) => Err(FleetError::OutOfOrder { last_ts }),
        }
    }

    /// The ledger of one tenant (stats/assertions).
    pub fn ledger(&self, tenant: TenantId) -> Option<&TenantLedger<AppState>> {
        self.tenants.get(&tenant).map(TenantState::ledger)
    }
}

/// Replays a merged multi-tenant event stream and returns one result per
/// event, in stream order — the offline ground truth for the fleet-mode
/// daemon (`sitw_serve`). Timestamps must be monotone non-decreasing per
/// `(tenant, app)`; violations surface as [`FleetError::OutOfOrder`],
/// exactly like the daemon's 409.
pub fn fleet_verdict_trace(
    events: &[FleetEvent],
    registry: &TenantRegistry,
) -> Vec<Result<FleetVerdict, FleetError>> {
    let mut sim = FleetSim::new(registry);
    events
        .iter()
        .map(|e| sim.step(e.tenant, &e.app, e.ts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::footprint_mb;
    use crate::ledger::LedgerStats;
    use sitw_core::{AppPolicy, PolicySpec, Windows, MINUTE_MS};

    fn registry(budget_mb: u64) -> TenantRegistry {
        let mut r = TenantRegistry::new(PolicySpec::fixed_minutes(10));
        r.register("metered", PolicySpec::fixed_minutes(10), budget_mb)
            .unwrap();
        r
    }

    #[test]
    fn unbudgeted_tenant_matches_plain_policy_semantics() {
        let r = registry(0);
        let mut sim = FleetSim::new(&r);
        let v0 = sim.step(0, "a", 0).unwrap();
        assert!(v0.cold && !v0.evicted);
        let v1 = sim.step(0, "a", 5 * MINUTE_MS).unwrap();
        assert!(!v1.cold);
        let v2 = sim.step(0, "a", 30 * MINUTE_MS).unwrap();
        assert!(
            v2.cold && !v2.evicted,
            "keep-alive lapse is not an eviction"
        );
        assert_eq!(sim.ledger(0).unwrap().stats().evictions, 0);
    }

    #[test]
    fn budget_pressure_downgrades_warm_to_cold_with_evicted_flag() {
        // A budget that fits exactly one of the tenant's apps: every
        // invocation of the other app evicts the first.
        let mut r = TenantRegistry::new(PolicySpec::fixed_minutes(10));
        let mb_a = footprint_mb("m", "a");
        let mb_b = footprint_mb("m", "b");
        let budget = mb_a.max(mb_b); // Holds either, never both.
        r.register("m", PolicySpec::fixed_minutes(10), budget)
            .unwrap();
        let tid = r.resolve("m").unwrap();
        let mut sim = FleetSim::new(&r);

        assert!(sim.step(tid, "a", 0).unwrap().cold);
        let vb = sim.step(tid, "b", 1_000).unwrap();
        assert!(vb.cold && !vb.evicted, "b's first invocation: plain cold");
        // a was evicted to fit b: its return inside the keep-alive window
        // is downgraded to cold and flagged.
        let va = sim.step(tid, "a", 2_000).unwrap();
        assert!(va.cold, "would be warm, but the image was evicted");
        assert!(va.evicted);
        assert!(!va.prewarm_load);
        assert!(sim.ledger(tid).unwrap().stats().evictions >= 1);
    }

    #[test]
    fn out_of_order_and_unknown_tenant_surface_as_errors() {
        let r = registry(0);
        let mut sim = FleetSim::new(&r);
        sim.step(0, "a", 10_000).unwrap();
        assert_eq!(
            sim.step(0, "a", 5_000),
            Err(FleetError::OutOfOrder { last_ts: 10_000 })
        );
        assert_eq!(sim.step(9, "a", 0), Err(FleetError::UnknownTenant(9)));
    }

    #[test]
    fn trace_matches_per_policy_verdict_trace_when_unbudgeted() {
        // With no budgets, the fleet trace must equal the single-policy
        // verdict trace app by app.
        let r = registry(0);
        let events: Vec<FleetEvent> = (0..120u64)
            .map(|i| FleetEvent {
                tenant: 0,
                app: format!("app-{}", i % 3),
                ts: i * 4 * MINUTE_MS,
            })
            .collect();
        let fleet = fleet_verdict_trace(&events, &r);

        for app_idx in 0..3u64 {
            let app = format!("app-{app_idx}");
            let stream: Vec<u64> = events
                .iter()
                .filter(|e| e.app == app)
                .map(|e| e.ts)
                .collect();
            let mut policy = PolicySpec::fixed_minutes(10).new_policy();
            let offline = sitw_sim_free_verdicts(&stream, policy.as_mut());
            let fleet_app: Vec<&FleetVerdict> = events
                .iter()
                .zip(&fleet)
                .filter(|(e, _)| e.app == app)
                .map(|(_, v)| v.as_ref().unwrap())
                .collect();
            assert_eq!(fleet_app.len(), offline.len());
            for (f, (cold, windows)) in fleet_app.iter().zip(&offline) {
                assert_eq!(f.cold, *cold);
                assert_eq!(f.windows, *windows);
                assert!(!f.evicted);
            }
        }
    }

    /// A minimal inline reimplementation of `sitw_sim::verdict_trace`
    /// (sim depends on this crate, not the other way around).
    fn sitw_sim_free_verdicts(
        events: &[u64],
        policy: &mut (dyn AppPolicy + Send),
    ) -> Vec<(bool, Windows)> {
        let mut out = Vec::new();
        let mut windows = policy.on_invocation(None);
        out.push((true, windows));
        let mut prev = events[0];
        for &t in &events[1..] {
            let outcome = windows.classify_gap(t - prev);
            windows = policy.on_invocation(Some(t - prev));
            out.push((outcome.cold, windows));
            prev = t;
        }
        out
    }

    /// A seeded four-tenant stream — the default tenant unbudgeted,
    /// three named tenants under budgets that bite — with its
    /// [`TenantRegistry`].
    fn golden_fleet() -> (Vec<FleetEvent>, TenantRegistry) {
        let mut r = TenantRegistry::new(PolicySpec::fixed_minutes(10));
        r.register("g1", PolicySpec::parse("hybrid").unwrap(), 3_000)
            .unwrap();
        r.register("g2", PolicySpec::fixed_minutes(20), 1_500)
            .unwrap();
        r.register("g3", PolicySpec::parse("hybrid").unwrap(), 600)
            .unwrap();
        let mut ts = 0;
        let events = (0..40_000u64)
            .map(|i| {
                let x = crate::mix64(0x5EED ^ i);
                ts += (x >> 24) % 4_000;
                FleetEvent {
                    tenant: (x % 4) as TenantId,
                    app: format!("app-{:02}", (x >> 8) % 60),
                    ts,
                }
            })
            .collect();
        (events, r)
    }

    /// Online == offline parity cannot see a ledger change — daemon and
    /// simulator share the ledger — so this pins the fleet trace to
    /// constants captured from the build *before* the expiry queue went
    /// lazy (exact keys, one heap node per charge): a fingerprint of all
    /// 40 000 verdicts, and every tenant's final ledger summary.
    #[test]
    fn fleet_trace_matches_the_exact_key_ledger_golden() {
        let (events, r) = golden_fleet();
        let mut fingerprint = 0u64;
        for v in fleet_verdict_trace(&events, &r) {
            let v = v.unwrap();
            let flags = v.cold as u64
                | (v.prewarm_load as u64) << 1
                | (v.evicted as u64) << 2
                | (v.kind as u64) << 3;
            for field in [flags, v.windows.pre_warm_ms, v.windows.keep_alive_ms] {
                fingerprint = crate::mix64(fingerprint ^ field).wrapping_add(field);
            }
        }
        assert_eq!(fingerprint, GOLDEN_FINGERPRINT);

        let mut sim = FleetSim::new(&r);
        for e in &events {
            sim.step(e.tenant, &e.app, e.ts).unwrap();
        }
        let stats: Vec<LedgerStats> = (0..4).map(|t| sim.ledger(t).unwrap().stats()).collect();
        assert_eq!(stats, GOLDEN_STATS);
        // The budgets bit: the golden exercises eviction order, not
        // just accounting.
        assert!(stats[1..].iter().all(|s| s.evictions > 1_000));
        assert_eq!(stats[0].evictions, 0);
    }

    const GOLDEN_FINGERPRINT: u64 = 0x086d_b9bf_4b44_7c0a;
    const GOLDEN_STATS: [LedgerStats; 4] = [
        LedgerStats {
            warm_mb: 7_434,
            warm_apps: 44,
            evictions: 0,
            idle_mb_ms: 636_215_880_846,
        },
        LedgerStats {
            warm_mb: 2_953,
            warm_apps: 18,
            evictions: 6_710,
            idle_mb_ms: 232_505_932_177,
        },
        LedgerStats {
            warm_mb: 1_401,
            warm_apps: 8,
            evictions: 8_577,
            idle_mb_ms: 111_955_854_925,
        },
        LedgerStats {
            warm_mb: 595,
            warm_apps: 4,
            evictions: 9_579,
            idle_mb_ms: 43_260_767_869,
        },
    ];

    /// The golden above runs fixed and hybrid tenants through 22 hours
    /// without an error. This one adds what it leaves out: a budgeted
    /// production tenant, a stream crossing three day boundaries, and a
    /// few hundred timestamps sent two hours late (rejected unless they
    /// are the app's first sight). Captured from the build *before*
    /// daemon and simulator shared one `TenantState::step`: every
    /// verdict, the `last_ts` of every rejection, and each tenant's
    /// final ledger summary, in one fingerprint.
    #[test]
    fn fleet_trace_with_production_and_rejections_matches_the_pre_kernel_golden() {
        let mut r = TenantRegistry::new(PolicySpec::fixed_minutes(10));
        r.register("g1", PolicySpec::parse("hybrid").unwrap(), 3_000)
            .unwrap();
        r.register("g2", PolicySpec::parse("production").unwrap(), 1_500)
            .unwrap();
        r.register("g3", PolicySpec::parse("hybrid").unwrap(), 600)
            .unwrap();
        let mut sim = FleetSim::new(&r);
        let fold = |h: u64, field: u64| crate::mix64(h ^ field).wrapping_add(field);
        let (mut fingerprint, mut rejected, mut ts) = (0u64, 0u64, 0u64);
        for i in 0..40_000u64 {
            let x = crate::mix64(0x005E_ED24 ^ i);
            ts += (x >> 24) % 16_000;
            let late = (x >> 44).is_multiple_of(128);
            let sent = if late {
                ts.saturating_sub(120 * MINUTE_MS)
            } else {
                ts
            };
            let app = format!("app-{:02}", (x >> 8) % 60);
            match sim.step((x % 4) as TenantId, &app, sent) {
                Ok(v) => {
                    let flags = v.cold as u64
                        | (v.prewarm_load as u64) << 1
                        | (v.evicted as u64) << 2
                        | (v.kind as u64) << 3;
                    for field in [flags, v.windows.pre_warm_ms, v.windows.keep_alive_ms] {
                        fingerprint = fold(fingerprint, field);
                    }
                }
                Err(FleetError::OutOfOrder { last_ts }) => {
                    rejected += 1;
                    fingerprint = fold(fingerprint, last_ts);
                }
                Err(e) => panic!("{e:?}"),
            }
        }
        let mut evictions = 0;
        for t in 0..4 {
            let s = sim.ledger(t).unwrap().stats();
            evictions += s.evictions;
            for field in [s.warm_mb, s.warm_apps, s.evictions, s.idle_mb_ms] {
                fingerprint = fold(fingerprint, field);
            }
        }
        assert!(ts / (1_440 * MINUTE_MS) >= 3, "three day boundaries");
        assert_eq!(
            (fingerprint, rejected, evictions),
            (GOLDEN_PRODUCTION_FINGERPRINT, 303, 24_683)
        );
    }

    const GOLDEN_PRODUCTION_FINGERPRINT: u64 = 0x3fa3_1388_0a8f_f53e;

    #[test]
    fn production_tenant_day_aware_replay() {
        let mut r = TenantRegistry::new(PolicySpec::fixed_minutes(10));
        r.register("prod", PolicySpec::parse("production").unwrap(), 0)
            .unwrap();
        let tid = r.resolve("prod").unwrap();
        let events: Vec<FleetEvent> = (0..(3 * 48) as u64)
            .map(|i| FleetEvent {
                tenant: tid,
                app: "x".into(),
                ts: i * 30 * MINUTE_MS,
            })
            .collect();
        let verdicts = fleet_verdict_trace(&events, &r);
        let tail_ok = verdicts[verdicts.len() / 2..]
            .iter()
            .all(|v| !v.as_ref().unwrap().cold);
        assert!(tail_ok, "the 30-minute pattern must be learned");
    }
}
