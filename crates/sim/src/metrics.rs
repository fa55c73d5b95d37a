//! Aggregation of per-application results into the paper's metrics.
//!
//! The evaluation reports (§5.2):
//!
//! * the **distribution of per-app cold-start percentages** (Figures 14,
//!   16–18 plot its CDF; Figure 15 tracks the 75th percentile);
//! * **wasted memory time**, normalized to the fixed 10-minute baseline;
//! * the share of **always-cold applications** (Figure 19), with and
//!   without single-invocation apps;
//! * ARIMA usage counters (0.64% of invocations, 9.3% of apps in the
//!   paper's week).

use sitw_stats::{percentile_sorted, Ecdf};

use crate::engine::AppSimResult;

/// Aggregated results of one policy over a whole population.
#[derive(Debug, Clone)]
pub struct PolicyAggregate {
    /// Policy label (from its factory).
    pub label: String,
    /// Cold-start percentage of every simulated app (with ≥ 1
    /// invocation), in the order the apps were folded in (population
    /// order out of `run_sweep`).
    pub per_app_cold_pct: Vec<f64>,
    /// Applications simulated (with ≥ 1 invocation).
    pub apps: u64,
    /// Total invocations.
    pub invocations: u64,
    /// Total cold starts.
    pub cold_starts: u64,
    /// Total wasted memory time (ms, all apps weighing equally).
    pub wasted_ms: u128,
    /// Memory-weighted waste (MB·ms) — extension beyond the paper's
    /// equal-weight accounting.
    pub wasted_mb_ms: f64,
    /// Apps whose every invocation was cold.
    pub always_cold_apps: u64,
    /// Apps with exactly one invocation (always cold under any policy).
    pub single_invocation_apps: u64,
    /// Apps that used the ARIMA branch at least once.
    pub apps_used_arima: u64,
    /// Invocation decisions served by ARIMA.
    pub arima_decisions: u64,
}

impl PolicyAggregate {
    /// Creates an empty aggregate for a policy label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            per_app_cold_pct: Vec::new(),
            apps: 0,
            invocations: 0,
            cold_starts: 0,
            wasted_ms: 0,
            wasted_mb_ms: 0.0,
            always_cold_apps: 0,
            single_invocation_apps: 0,
            apps_used_arima: 0,
            arima_decisions: 0,
        }
    }

    /// Folds one application's result in; `memory_mb` feeds the
    /// memory-weighted waste extension.
    pub fn add(&mut self, r: &AppSimResult, memory_mb: f64) {
        if r.invocations == 0 {
            return;
        }
        self.per_app_cold_pct.push(r.cold_pct());
        self.apps += 1;
        self.invocations += r.invocations;
        self.cold_starts += r.cold_starts;
        self.wasted_ms += r.wasted_ms as u128;
        self.wasted_mb_ms += r.wasted_ms as f64 * memory_mb;
        if r.always_cold() {
            self.always_cold_apps += 1;
        }
        if r.invocations == 1 {
            self.single_invocation_apps += 1;
        }
        if r.used_arima {
            self.apps_used_arima += 1;
        }
        self.arima_decisions += r.arima_decisions;
    }

    /// Merges another aggregate (for parallel sweeps).
    ///
    /// # Panics
    ///
    /// Panics when labels differ.
    pub fn merge(&mut self, other: &PolicyAggregate) {
        assert_eq!(self.label, other.label, "merging different policies");
        self.per_app_cold_pct
            .extend_from_slice(&other.per_app_cold_pct);
        self.apps += other.apps;
        self.invocations += other.invocations;
        self.cold_starts += other.cold_starts;
        self.wasted_ms += other.wasted_ms;
        self.wasted_mb_ms += other.wasted_mb_ms;
        self.always_cold_apps += other.always_cold_apps;
        self.single_invocation_apps += other.single_invocation_apps;
        self.apps_used_arima += other.apps_used_arima;
        self.arima_decisions += other.arima_decisions;
    }

    /// The `p`-th percentile of per-app cold-start percentages; the
    /// paper's headline statistic is `p = 75` ("3rd quartile app cold
    /// start").
    ///
    /// # Panics
    ///
    /// Panics when no apps were simulated.
    pub fn cold_pct_percentile(&self, p: f64) -> f64 {
        let mut xs = self.per_app_cold_pct.clone();
        xs.sort_by(f64::total_cmp);
        percentile_sorted(&xs, p)
    }

    /// CDF of per-app cold-start percentages (Figures 14, 16–18, 20).
    ///
    /// # Panics
    ///
    /// Panics when no apps were simulated.
    pub fn cold_cdf(&self) -> Ecdf {
        Ecdf::new(self.per_app_cold_pct.clone())
    }

    /// Percentage of apps that were always cold (Figure 19).
    pub fn always_cold_pct(&self) -> f64 {
        if self.apps == 0 {
            0.0
        } else {
            100.0 * self.always_cold_apps as f64 / self.apps as f64
        }
    }

    /// Always-cold percentage excluding apps with a single invocation,
    /// which no predictive policy can help (Figure 19's second reading).
    pub fn always_cold_pct_excluding_single(&self) -> f64 {
        if self.apps == 0 {
            return 0.0;
        }
        let eligible = self.apps - self.single_invocation_apps;
        let cold = self
            .always_cold_apps
            .saturating_sub(self.single_invocation_apps);
        if eligible == 0 {
            0.0
        } else {
            100.0 * cold as f64 / eligible as f64
        }
    }

    /// Wasted memory time as a percentage of a baseline aggregate
    /// (the paper normalizes to fixed-10-minute).
    pub fn normalized_waste_pct(&self, baseline: &PolicyAggregate) -> f64 {
        if baseline.wasted_ms == 0 {
            return f64::INFINITY;
        }
        100.0 * self.wasted_ms as f64 / baseline.wasted_ms as f64
    }

    /// Share of invocations whose policy decision came from ARIMA.
    pub fn arima_invocation_share_pct(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            100.0 * self.arima_decisions as f64 / self.invocations as f64
        }
    }

    /// Share of apps that used ARIMA at least once.
    pub fn arima_app_share_pct(&self) -> f64 {
        if self.apps == 0 {
            0.0
        } else {
            100.0 * self.apps_used_arima as f64 / self.apps as f64
        }
    }
}

/// A point on the cold-start/memory trade-off plot (Figure 15): the 75th-
/// percentile per-app cold-start percentage versus waste normalized to a
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Policy label.
    pub label: String,
    /// 75th percentile of per-app cold-start percentage.
    pub cold_pct_p75: f64,
    /// Wasted memory time, % of the baseline policy.
    pub normalized_waste_pct: f64,
}

/// Builds Figure 15-style Pareto points for a set of aggregates against
/// the named baseline.
///
/// # Panics
///
/// Panics when the baseline label is absent.
pub fn pareto_points(aggregates: &[PolicyAggregate], baseline_label: &str) -> Vec<ParetoPoint> {
    let baseline = aggregates
        .iter()
        .find(|a| a.label == baseline_label)
        .unwrap_or_else(|| panic!("baseline {baseline_label:?} not in aggregates"));
    aggregates
        .iter()
        .map(|a| ParetoPoint {
            label: a.label.clone(),
            cold_pct_p75: a.cold_pct_percentile(75.0),
            normalized_waste_pct: a.normalized_waste_pct(baseline),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(invocations: u64, cold: u64, wasted: u64) -> AppSimResult {
        AppSimResult {
            invocations,
            cold_starts: cold,
            wasted_ms: wasted,
            ..Default::default()
        }
    }

    #[test]
    fn add_and_percentiles() {
        let mut agg = PolicyAggregate::new("test");
        agg.add(&result(10, 5, 100), 100.0);
        agg.add(&result(10, 1, 50), 100.0);
        agg.add(&result(1, 1, 0), 100.0);
        assert_eq!(agg.apps, 3);
        assert_eq!(agg.invocations, 21);
        assert_eq!(agg.cold_starts, 7);
        assert_eq!(agg.wasted_ms, 150);
        assert_eq!(agg.single_invocation_apps, 1);
        assert_eq!(agg.always_cold_apps, 1);
        // Cold percentages: 50, 10, 100 → p50 = 50.
        assert_eq!(agg.cold_pct_percentile(50.0), 50.0);
    }

    #[test]
    fn empty_app_results_ignored() {
        let mut agg = PolicyAggregate::new("x");
        agg.add(&AppSimResult::default(), 128.0);
        assert_eq!(agg.apps, 0);
    }

    #[test]
    fn always_cold_excluding_single() {
        let mut agg = PolicyAggregate::new("x");
        agg.add(&result(1, 1, 0), 1.0); // Single-invocation app.
        agg.add(&result(4, 4, 0), 1.0); // Multi-invocation always-cold.
        agg.add(&result(4, 1, 0), 1.0);
        assert!((agg.always_cold_pct() - 200.0 / 3.0).abs() < 1e-9);
        assert!((agg.always_cold_pct_excluding_single() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a = PolicyAggregate::new("p");
        let mut b = PolicyAggregate::new("p");
        let mut whole = PolicyAggregate::new("p");
        let rs = [result(10, 2, 5), result(3, 3, 9), result(7, 0, 1)];
        a.add(&rs[0], 1.0);
        b.add(&rs[1], 1.0);
        b.add(&rs[2], 1.0);
        for r in &rs {
            whole.add(r, 1.0);
        }
        a.merge(&b);
        assert_eq!(a.apps, whole.apps);
        assert_eq!(a.invocations, whole.invocations);
        assert_eq!(a.wasted_ms, whole.wasted_ms);
        let mut xs = a.per_app_cold_pct.clone();
        let mut ys = whole.per_app_cold_pct.clone();
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        assert_eq!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "different policies")]
    fn merge_rejects_mismatched_labels() {
        let mut a = PolicyAggregate::new("a");
        let b = PolicyAggregate::new("b");
        a.merge(&b);
    }

    #[test]
    fn normalized_waste() {
        let mut base = PolicyAggregate::new("base");
        base.add(&result(2, 1, 200), 1.0);
        let mut other = PolicyAggregate::new("other");
        other.add(&result(2, 1, 260), 1.0);
        assert!((other.normalized_waste_pct(&base) - 130.0).abs() < 1e-9);
        assert!((base.normalized_waste_pct(&base) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_points_reference_baseline() {
        let mut base = PolicyAggregate::new("fixed-10min");
        base.add(&result(4, 2, 100), 1.0);
        let mut h = PolicyAggregate::new("hybrid");
        h.add(&result(4, 1, 80), 1.0);
        let pts = pareto_points(&[base, h], "fixed-10min");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].normalized_waste_pct, 100.0);
        assert!((pts[1].normalized_waste_pct - 80.0).abs() < 1e-9);
        assert!(pts[1].cold_pct_p75 < pts[0].cold_pct_p75);
    }

    #[test]
    fn arima_shares() {
        let mut agg = PolicyAggregate::new("h");
        agg.add(
            &AppSimResult {
                invocations: 50,
                cold_starts: 5,
                arima_decisions: 2,
                used_arima: true,
                ..Default::default()
            },
            1.0,
        );
        agg.add(&result(50, 0, 0), 1.0);
        assert!((agg.arima_invocation_share_pct() - 2.0).abs() < 1e-9);
        assert!((agg.arima_app_share_pct() - 50.0).abs() < 1e-9);
    }
}
