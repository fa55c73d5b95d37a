//! The offline cluster model: QoS admission composed with the fleet
//! simulator — the ground truth an online cluster is measured against.
//!
//! [`ClusterSim`] deliberately has no notion of nodes or placement.
//! Migration moves a tenant's complete state (policy histograms, ledger,
//! per-app windows) bit-for-bit via the snapshot text format, so *which*
//! node serves a tenant is invisible to verdicts: a single
//! [`FleetSim`] over the union registry models any placement, including
//! placements that change mid-replay. What the router adds beyond a
//! fleet node is exactly one thing — cluster-wide QoS admission — so the
//! model is `Admission ∘ FleetSim`, in arrival order:
//!
//! 1. a named tenant's invocation first passes the token bucket
//!    ([`ClusterOutcome::Throttled`] if it fails — no policy or ledger
//!    state advances, matching the router's reject-before-forward);
//! 2. admitted invocations step the fleet simulator, producing the same
//!    [`FleetVerdict`] / [`FleetError`] a node serves.
//!
//! The default tenant (id 0) never passes admission — the router cannot
//! rate-limit traffic it cannot attribute, and the model matches.

use sitw_fleet::{
    Admission, AppState, FleetError, FleetSim, FleetVerdict, QosPolicy, TenantId, TenantLedger,
    TenantRegistry, DEFAULT_TENANT,
};

/// The cluster's answer to one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterOutcome {
    /// Admitted and served: the node's verdict.
    Served(FleetVerdict),
    /// Rejected by QoS admission before reaching any node (HTTP 429 /
    /// the `Throttled` verdict bit). No state advanced.
    Throttled,
    /// Rejected by the serving node itself (unknown tenant, out of
    /// order).
    Rejected(FleetError),
}

/// Offline replay engine for a whole cluster: admission in front of one
/// fleet simulator over the union registry.
pub struct ClusterSim {
    fleet: FleetSim,
    admission: Admission,
    /// Tenant names by id (admission is name-keyed).
    names: Vec<String>,
}

impl ClusterSim {
    /// Builds the model from the cluster's union registry and its QoS
    /// table (`(tenant name, policy)`; tenants absent from `qos` admit
    /// everything).
    pub fn new(registry: &TenantRegistry, qos: &[(String, QosPolicy)]) -> Self {
        let mut admission = Admission::new();
        for (name, policy) in qos {
            admission.set_policy(name, *policy);
        }
        Self {
            fleet: FleetSim::new(registry),
            admission,
            names: registry.tenants().iter().map(|t| t.name.clone()).collect(),
        }
    }

    /// Replays one invocation, in cluster arrival order.
    pub fn step(&mut self, tenant: TenantId, app: &str, ts: u64) -> ClusterOutcome {
        if tenant != DEFAULT_TENANT {
            let Some(name) = self.names.get(tenant as usize) else {
                return ClusterOutcome::Rejected(FleetError::UnknownTenant(tenant));
            };
            if !self.admission.admit(name, ts) {
                return ClusterOutcome::Throttled;
            }
        }
        match self.fleet.step(tenant, app, ts) {
            Ok(v) => ClusterOutcome::Served(v),
            Err(e) => ClusterOutcome::Rejected(e),
        }
    }

    /// The ledger of one tenant (conservation assertions).
    pub fn ledger(&self, tenant: TenantId) -> Option<&TenantLedger<AppState>> {
        self.fleet.ledger(tenant)
    }

    /// Throttle counts per tenant, sorted by name.
    pub fn throttled(&self) -> Vec<(String, u64)> {
        self.admission.throttled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::PolicySpec;
    use sitw_fleet::RateLimit;

    fn registry() -> TenantRegistry {
        let mut r = TenantRegistry::new(PolicySpec::fixed_minutes(10));
        r.register("gold", PolicySpec::fixed_minutes(10), 0)
            .unwrap();
        r.register("bronze", PolicySpec::fixed_minutes(10), 0)
            .unwrap();
        r
    }

    fn limited(per_sec: u32, burst: u32) -> QosPolicy {
        QosPolicy {
            class: Default::default(),
            rate: Some(RateLimit { per_sec, burst }),
        }
    }

    #[test]
    fn throttle_advances_no_state() {
        let r = registry();
        let tid = r.resolve("bronze").unwrap();
        let mut sim = ClusterSim::new(&r, &[("bronze".into(), limited(1, 1))]);
        assert!(matches!(sim.step(tid, "a", 0), ClusterOutcome::Served(_)));
        // Bucket empty: throttled, and the app's timeline is untouched —
        // the next admitted invocation still sees the original gap.
        assert_eq!(sim.step(tid, "a", 100), ClusterOutcome::Throttled);
        match sim.step(tid, "a", 1_000) {
            ClusterOutcome::Served(v) => assert!(!v.cold, "warm within keep-alive"),
            other => panic!("{other:?}"),
        }
        assert_eq!(sim.throttled(), vec![("bronze".into(), 1)]);
    }

    #[test]
    fn unlimited_tenants_and_default_always_admit() {
        let r = registry();
        let gold = r.resolve("gold").unwrap();
        let mut sim = ClusterSim::new(&r, &[("bronze".into(), limited(1, 1))]);
        for i in 0..50u64 {
            assert!(
                matches!(sim.step(gold, "g", i), ClusterOutcome::Served(_)),
                "no qos entry admits everything"
            );
            assert!(matches!(
                sim.step(DEFAULT_TENANT, "d", i),
                ClusterOutcome::Served(_)
            ));
        }
    }

    #[test]
    fn node_rejections_pass_through() {
        let r = registry();
        let tid = r.resolve("gold").unwrap();
        let mut sim = ClusterSim::new(&r, &[]);
        sim.step(tid, "a", 10_000);
        assert_eq!(
            sim.step(tid, "a", 5_000),
            ClusterOutcome::Rejected(FleetError::OutOfOrder { last_ts: 10_000 })
        );
        assert_eq!(
            sim.step(99, "a", 0),
            ClusterOutcome::Rejected(FleetError::UnknownTenant(99))
        );
    }
}
