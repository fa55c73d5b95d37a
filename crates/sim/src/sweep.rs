//! Sweep driver: evaluates many policies over a population in parallel.
//!
//! Applications are independent under every policy, and their streams
//! differ in length by orders of magnitude, so no static split balances
//! them: workers claim short runs of apps from a shared cursor until the
//! population is exhausted. A worker generates an app's invocation
//! stream **once** and replays it against every policy configuration,
//! keeping results comparable and generation costs amortized, and hands
//! back one result per app and policy. The calling thread then folds
//! those into the aggregates in population order, whoever simulated
//! them — so every field, the floating-point sums and the order of the
//! per-app vectors included, is bit-for-bit the same for any thread
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};

use sitw_trace::{app_invocations, Population, TraceConfig};

use crate::engine::{simulate_app, AppSimResult};
use crate::metrics::PolicyAggregate;

// The spec type moved to `sitw_core::spec` (the fleet subsystem shares
// it); re-exported here so `sitw_sim::PolicySpec` keeps working.
pub use sitw_core::PolicySpec;

/// Apps a worker claims at a time: small against any population worth
/// threading, so the last claims level out the workers' finish times.
const CLAIM_APPS: usize = 4;

/// Runs every policy over every application of the population.
///
/// `threads` ≤ 1 runs on the calling thread alone. Results are
/// independent of the thread count.
pub fn run_sweep(
    population: &Population,
    trace_cfg: &TraceConfig,
    specs: &[PolicySpec],
    threads: usize,
) -> Vec<PolicyAggregate> {
    let apps = &population.apps;
    // Relaxed: the cursor hands out indices into data that is read-only
    // for the whole sweep and publishes nothing else.
    let cursor = AtomicUsize::new(0);
    let work = || {
        // Per simulated app: its index in the population and its result
        // under each policy, in spec order.
        let mut done = Vec::new();
        loop {
            let lo = cursor.fetch_add(CLAIM_APPS, Ordering::Relaxed);
            if lo >= apps.len() {
                return done;
            }
            let hi = (lo + CLAIM_APPS).min(apps.len());
            for (idx, app) in (lo..hi).zip(&apps[lo..hi]) {
                let events = app_invocations(app, trace_cfg);
                if events.is_empty() {
                    continue;
                }
                let results: Vec<AppSimResult> = specs
                    .iter()
                    .map(|spec| {
                        let mut policy = spec.new_policy();
                        simulate_app(&events, trace_cfg.horizon_ms, policy.as_mut())
                    })
                    .collect();
                done.push((idx, results));
            }
        }
    };

    // The calling thread is one of the workers; no more of them than
    // there are claims to make.
    let helpers = threads.min(apps.len().div_ceil(CLAIM_APPS)).max(1) - 1;
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in handles {
            done.extend(h.join().expect("sweep worker panicked"));
        }
        done
    });

    done.sort_unstable_by_key(|(idx, _)| *idx);
    let mut aggs: Vec<PolicyAggregate> = specs
        .iter()
        .map(|s| PolicyAggregate::new(s.label()))
        .collect();
    for (idx, results) in &done {
        for (agg, result) in aggs.iter_mut().zip(results) {
            agg.add(result, apps[*idx].memory_mb);
        }
    }
    aggs
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

    /// Everything an aggregate holds, floats by their bits.
    fn exact(a: &PolicyAggregate) -> (String, Vec<u64>, [u64; 7], u128, u64) {
        (
            a.label.clone(),
            a.per_app_cold_pct.iter().map(|p| p.to_bits()).collect(),
            [
                a.apps,
                a.invocations,
                a.cold_starts,
                a.always_cold_apps,
                a.single_invocation_apps,
                a.apps_used_arima,
                a.arima_decisions,
            ],
            a.wasted_ms,
            a.wasted_mb_ms.to_bits(),
        )
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (pop, cfg) = setup();
        // Also a population with fewer apps than threads.
        let few = Population {
            apps: pop.apps[..3].to_vec(),
        };
        for pop in [&pop, &few] {
            let serial = run_sweep(pop, &cfg, &specs(), 1);
            assert_eq!(serial.len(), specs().len());
            for threads in [2, 3, 4, 7] {
                let parallel = run_sweep(pop, &cfg, &specs(), threads);
                assert_eq!(serial.len(), parallel.len());
                for (s, p) in serial.iter().zip(&parallel) {
                    assert_eq!(exact(s), exact(p), "{} at {threads} threads", s.label);
                }
            }
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
