//! Sweep driver: evaluates many policies over a population in parallel.
//!
//! Applications are independent under every policy, so the sweep
//! partitions apps across threads; each thread generates an app's
//! invocation stream **once** and replays it against every policy
//! configuration, keeping results comparable and generation costs
//! amortized. Merging is deterministic (chunk order), so sweeps are
//! reproducible bit-for-bit.

use sitw_trace::{app_invocations, Population, TraceConfig};

use crate::engine::simulate_app;
use crate::metrics::PolicyAggregate;

// The spec type moved to `sitw_core::spec` (the fleet subsystem shares
// it); re-exported here so `sitw_sim::PolicySpec` keeps working.
pub use sitw_core::PolicySpec;

/// Runs every policy over every application of the population.
///
/// `threads` ≤ 1 runs serially. Results are independent of the thread
/// count.
pub fn run_sweep(
    population: &Population,
    trace_cfg: &TraceConfig,
    specs: &[PolicySpec],
    threads: usize,
) -> Vec<PolicyAggregate> {
    let threads = threads.max(1);
    if threads == 1 || population.len() < 2 * threads {
        let mut aggs: Vec<PolicyAggregate> = specs
            .iter()
            .map(|s| PolicyAggregate::new(s.label()))
            .collect();
        simulate_chunk(population, 0..population.len(), trace_cfg, specs, &mut aggs);
        return aggs;
    }

    let chunk_size = population.len().div_ceil(threads);
    let mut partials: Vec<Vec<PolicyAggregate>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk_idx in 0..threads {
            let lo = chunk_idx * chunk_size;
            let hi = ((chunk_idx + 1) * chunk_size).min(population.len());
            if lo >= hi {
                continue;
            }
            handles.push(scope.spawn(move || {
                let mut aggs: Vec<PolicyAggregate> = specs
                    .iter()
                    .map(|s| PolicyAggregate::new(s.label()))
                    .collect();
                simulate_chunk(population, lo..hi, trace_cfg, specs, &mut aggs);
                aggs
            }));
        }
        for h in handles {
            partials.push(h.join().expect("sweep worker panicked"));
        }
    });

    // Deterministic merge in chunk order.
    let mut iter = partials.into_iter();
    let mut merged = iter.next().expect("at least one chunk");
    for partial in iter {
        for (m, p) in merged.iter_mut().zip(&partial) {
            m.merge(p);
        }
    }
    merged
}

fn simulate_chunk(
    population: &Population,
    range: std::ops::Range<usize>,
    trace_cfg: &TraceConfig,
    specs: &[PolicySpec],
    aggs: &mut [PolicyAggregate],
) {
    for app in &population.apps[range] {
        let events = app_invocations(app, trace_cfg);
        if events.is_empty() {
            continue;
        }
        for (spec, agg) in specs.iter().zip(aggs.iter_mut()) {
            let mut policy = spec.new_policy();
            let result = simulate_app(&events, trace_cfg.horizon_ms, policy.as_mut());
            agg.add(&result, app.memory_mb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::{HybridConfig, ProductionConfig};
    use sitw_trace::{build_population, PopulationConfig, DAY_MS};

    fn setup() -> (Population, TraceConfig) {
        let pop = build_population(&PopulationConfig {
            num_apps: 150,
            seed: 21,
        });
        let cfg = TraceConfig {
            horizon_ms: DAY_MS,
            cap_per_day: 2000.0,
            seed: 3,
        };
        (pop, cfg)
    }

    fn specs() -> Vec<PolicySpec> {
        vec![
            PolicySpec::fixed_minutes(10),
            PolicySpec::NoUnloading,
            PolicySpec::Hybrid(HybridConfig::default()),
            PolicySpec::Production(ProductionConfig::default()),
        ]
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (pop, cfg) = setup();
        let serial = run_sweep(&pop, &cfg, &specs(), 1);
        let parallel = run_sweep(&pop, &cfg, &specs(), 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.apps, p.apps);
            assert_eq!(s.invocations, p.invocations);
            assert_eq!(s.cold_starts, p.cold_starts);
            assert_eq!(s.wasted_ms, p.wasted_ms);
            let mut a = s.per_app_cold_pct.clone();
            let mut b = p.per_app_cold_pct.clone();
            a.sort_by(f64::total_cmp);
            b.sort_by(f64::total_cmp);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn production_spec_sweeps_like_any_policy() {
        let (pop, cfg) = setup();
        let aggs = run_sweep(&pop, &cfg, &specs(), 2);
        let nounload = &aggs[1];
        let production = &aggs[3];
        assert_eq!(production.label, "production-240m-14d[5,99]exp0.85");
        assert_eq!(production.invocations, nounload.invocations);
        // Bounded keep-alives always waste less than never unloading.
        assert!(production.wasted_ms < nounload.wasted_ms);
        assert!(production.cold_starts >= nounload.cold_starts);
    }

    #[test]
    fn no_unloading_has_fewest_colds_most_waste() {
        let (pop, cfg) = setup();
        let aggs = run_sweep(&pop, &cfg, &specs(), 2);
        let fixed = &aggs[0];
        let nounload = &aggs[1];
        let hybrid = &aggs[2];
        assert!(nounload.cold_starts <= fixed.cold_starts);
        assert!(nounload.cold_starts <= hybrid.cold_starts);
        assert!(nounload.wasted_ms >= fixed.wasted_ms);
        // Every app's colds under no-unloading is exactly 1.
        assert_eq!(nounload.cold_starts, nounload.apps);
    }

    #[test]
    fn hybrid_dominates_fixed_10min() {
        // The headline claim (Figure 15): at similar or lower memory
        // waste, the hybrid policy has far fewer cold starts at the 75th
        // percentile.
        let (pop, cfg) = setup();
        let aggs = run_sweep(&pop, &cfg, &specs(), 2);
        let fixed = &aggs[0];
        let hybrid = &aggs[2];
        let f75 = fixed.cold_pct_percentile(75.0);
        let h75 = hybrid.cold_pct_percentile(75.0);
        assert!(
            h75 < f75,
            "hybrid p75 {h75:.1}% must beat fixed-10min {f75:.1}%"
        );
    }

    #[test]
    fn all_policies_see_same_workload() {
        let (pop, cfg) = setup();
        let aggs = run_sweep(&pop, &cfg, &specs(), 2);
        let invs: Vec<u64> = aggs.iter().map(|a| a.invocations).collect();
        assert!(invs.windows(2).all(|w| w[0] == w[1]), "{invs:?}");
        let apps: Vec<u64> = aggs.iter().map(|a| a.apps).collect();
        assert!(apps.windows(2).all(|w| w[0] == w[1]));
    }
}
