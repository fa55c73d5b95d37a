//! Property-based tests (proptest) over the core data structures and the
//! simulator's conservation laws.

use proptest::prelude::*;
use serverless_in_the_wild::prelude::*;
use serverless_in_the_wild::sim::simulate_app;
use serverless_in_the_wild::stats::{percentile_sorted, RangeHistogram, Welford};

proptest! {
    /// Welford must match the two-pass mean/variance on any input.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1.0e6f64..1.0e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.population_variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// Percentiles are monotone in `p` and bounded by min/max.
    #[test]
    fn percentiles_monotone(
        mut xs in prop::collection::vec(-1.0e6f64..1.0e6, 1..100),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        xs.sort_by(f64::total_cmp);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile_sorted(&xs, lo);
        let b = percentile_sorted(&xs, hi);
        prop_assert!(a <= b);
        prop_assert!(a >= xs[0] && b <= *xs.last().unwrap());
    }

    /// Histogram counts are conserved and percentile bins ordered.
    #[test]
    fn histogram_invariants(values in prop::collection::vec(0u64..500, 0..300)) {
        let mut h = RangeHistogram::new(240, 1);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total_count(), values.len() as u64);
        let in_bounds = values.iter().filter(|&&v| v < 240).count() as u64;
        prop_assert_eq!(h.in_bounds_count(), in_bounds);
        prop_assert_eq!(h.bins().iter().map(|&c| c as u64).sum::<u64>(), in_bounds);
        if in_bounds > 0 {
            let head = h.head_value(5.0).unwrap();
            let tail = h.tail_value(99.0).unwrap();
            prop_assert!(head < tail);
            // Head/tail bracket the in-bounds values: with 1-unit bins
            // the head's lower edge is at least the minimum value and
            // the tail's upper edge at most the maximum + 1.
            let min_in = *values.iter().filter(|&&v| v < 240).min().unwrap();
            let max_in = *values.iter().filter(|&&v| v < 240).max().unwrap();
            prop_assert!(head >= min_in);
            prop_assert!(tail <= max_in + 1);
        } else {
            prop_assert!(h.head_value(5.0).is_none());
        }
    }

    /// The simulator conserves invocations and bounds waste by the
    /// horizon-scaled load for any policy and event sequence.
    #[test]
    fn simulator_conservation(
        gaps in prop::collection::vec(0u64..500, 1..80),
        ka_minutes in 1u64..300,
    ) {
        // Build a sorted event sequence from minute gaps.
        let mut events = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for g in &gaps {
            t += g * 60_000;
            events.push(t);
        }
        let horizon = t + 10 * 60_000;

        let mut fixed = FixedKeepAlive::minutes(ka_minutes).new_policy();
        let r = simulate_app(&events, horizon, &mut fixed);
        prop_assert_eq!(r.invocations, events.len() as u64);
        prop_assert!(r.cold_starts >= 1);
        prop_assert!(r.cold_starts <= r.invocations);
        // Waste under a fixed policy is at most ka per gap plus the tail.
        let bound = (events.len() as u64) * ka_minutes * 60_000;
        prop_assert!(r.wasted_ms <= bound);

        let mut hybrid = HybridConfig::default().new_policy();
        let rh = simulate_app(&events, horizon, &mut hybrid);
        prop_assert_eq!(rh.invocations, events.len() as u64);
        prop_assert!(rh.cold_starts >= 1);
        // The hybrid policy can never hold memory beyond the horizon's
        // total span per "loaded" stretch: waste < total horizon.
        prop_assert!(rh.wasted_ms <= horizon);
    }

    /// The hybrid policy always emits sane windows: keep-alive positive,
    /// pre-warm bounded by the ARIMA/histogram ranges.
    #[test]
    fn hybrid_windows_sane(its in prop::collection::vec(0u64..2_000, 1..120)) {
        let mut policy = HybridConfig::default().new_policy();
        let mut w = policy.on_invocation(None);
        for &it in &its {
            prop_assert!(w.keep_alive_ms > 0);
            w = policy.on_invocation(Some(it * 60_000));
        }
        let d = policy.app().decisions();
        prop_assert_eq!(d.total(), its.len() as u64 + 1);
    }

    /// Longer fixed keep-alive never yields more cold starts on the same
    /// stream (per-app monotonicity backing Figure 14).
    #[test]
    fn fixed_keepalive_monotone(gaps in prop::collection::vec(1u64..400, 1..60)) {
        let mut events = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for g in &gaps {
            t += g * 60_000;
            events.push(t);
        }
        let horizon = t + 60_000;
        let mut prev = u64::MAX;
        for ka in [5u64, 15, 45, 120, 360] {
            let mut p = FixedKeepAlive::minutes(ka).new_policy();
            let r = simulate_app(&events, horizon, &mut p);
            prop_assert!(r.cold_starts <= prev);
            prev = r.cold_starts;
        }
    }

    /// ECDF quantiles are inverse-consistent with evaluation.
    #[test]
    fn ecdf_quantile_consistency(xs in prop::collection::vec(-1.0e3f64..1.0e3, 1..200)) {
        let e = Ecdf::new(xs);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = e.quantile(q);
            // At least a q-fraction of samples is ≤ v (within one step).
            let f = e.eval(v);
            prop_assert!(f + 1.0 / e.len() as f64 + 1e-12 >= q);
        }
    }
}
