//! Sweep driver: evaluates many policies over a population in parallel.
//!
//! Applications are independent under every policy, and their streams
//! differ in length by orders of magnitude, so no static split balances
//! them: workers claim short runs of apps from a shared cursor until the
//! population is exhausted. A worker generates an app's invocation
//! stream **once** and walks it **once** for every policy configuration
//! (the fused walk below), and hands back one result per app and
//! policy. The calling thread then folds those into the aggregates in
//! population order, whoever simulated them — so every field, the
//! floating-point sums and the order of the per-app vectors included, is
//! bit-for-bit the same for any thread count.
//!
//! # One walk, many configurations
//!
//! A `Plan` built once per run sorts the specs:
//!
//! * hybrid specs with one [`HybridConfig::state_key`] — bin count, bin
//!   width, history cap — form a group: they build identical histograms
//!   and histories, so each app's walk keeps one [`HybridGroup`] per
//!   group, which records every idle gap once (one bin increment, one
//!   feed per distinct head or tail percentile's cursor, one history
//!   push);
//! * fixed and no-unloading specs keep their constant windows;
//! * production specs keep their own per-app policy.
//!
//! Per gap, every spec classifies against its own windows and accounts
//! into its own [`AppSimResult`] (the accounting [`simulate_app`] runs),
//! then takes its next windows: a hybrid spec from its group's
//! `decide`, the body [`sitw_core::HybridRow::on_invocation`] runs, on
//! its own two cursors. A spec therefore sees exactly the state, the
//! windows and the branches its own policy would under [`simulate_app`],
//! and its result is that replay's, bit for bit; the `sweep_equivalence`
//! property holds the two to it. [`simulate_app`] stays the entry point
//! for one policy.
//!
//! [`simulate_app`]: crate::simulate_app

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use sitw_core::{
    AppPolicy, HybridConfig, HybridGroup, PolicyFactory, ProductionConfig, ProductionPolicy,
    Windows,
};
use sitw_trace::{app_invocations, Population, TimeMs, TraceConfig};

use crate::engine::{classify, replay, AppSimResult};
use crate::metrics::PolicyAggregate;

// The spec type moved to `sitw_core::spec` (the fleet subsystem shares
// it); re-exported here so `sitw_sim::PolicySpec` keeps working.
pub use sitw_core::PolicySpec;

/// Apps a worker claims at a time: small against any population worth
/// threading, so the last claims level out the workers' finish times.
const CLAIM_APPS: usize = 4;

/// How the specs of one run share an app's walk.
struct Plan {
    /// Per group: a member's configuration (its state key is the
    /// group's) and the distinct percentiles its members read.
    groups: Vec<(HybridConfig, Vec<f64>)>,
    /// Per spec, in spec order.
    specs: Vec<Step>,
}

/// How one spec takes its next windows, for every app.
enum Step {
    /// Fixed keep-alive and no-unloading: the same windows after every
    /// invocation.
    Constant(Windows),
    /// A hybrid configuration deciding on its group's state.
    Hybrid(HybridStep),
    /// A production configuration, with a per-app policy of its own.
    Production(ProductionConfig),
}

/// A hybrid spec's configuration, its group, and the indices of its
/// head and tail cursors there.
struct HybridStep {
    config: HybridConfig,
    group: usize,
    head: usize,
    tail: usize,
}

/// How one spec takes its next windows on one app's walk.
enum Lane<'p> {
    /// The spec's windows never change.
    Constant,
    /// A decision on the app's groups.
    Hybrid(&'p HybridStep),
    /// The app's own production policy, boxed: its days, cached
    /// aggregate and cursors are many times the size of the other lanes.
    Production(Box<ProductionPolicy>),
}

/// The index of the first entry of `list` that `is` accepts; `new()`
/// pushed at the end when none does.
fn find_or_push<T>(list: &mut Vec<T>, is: impl Fn(&T) -> bool, new: impl FnOnce() -> T) -> usize {
    list.iter().position(is).unwrap_or_else(|| {
        list.push(new());
        list.len() - 1
    })
}

impl Plan {
    fn new(specs: &[PolicySpec]) -> Self {
        let mut groups: Vec<(HybridConfig, Vec<f64>)> = Vec::new();
        let specs = specs
            .iter()
            .map(|spec| match spec {
                PolicySpec::Fixed(f) => Step::Constant(f.new_policy().on_invocation(None)),
                PolicySpec::NoUnloading => {
                    Step::Constant(sitw_core::NoUnloading.on_invocation(None))
                }
                PolicySpec::Production(p) => Step::Production(*p),
                PolicySpec::Hybrid(config) => {
                    let key = config.state_key();
                    let group = find_or_push(
                        &mut groups,
                        |(c, _)| c.state_key() == key,
                        || (config.clone(), Vec::new()),
                    );
                    // One cursor per distinct percentile, told apart by
                    // bits (a NaN is one percentile too).
                    let percentiles = &mut groups[group].1;
                    let mut cursor =
                        |p: f64| find_or_push(percentiles, |q| q.to_bits() == p.to_bits(), || p);
                    Step::Hybrid(HybridStep {
                        group,
                        head: cursor(config.head_percentile),
                        tail: cursor(config.tail_percentile),
                        config: config.clone(),
                    })
                }
            })
            .collect();
        Self { groups, specs }
    }

    /// Walks one app's stream once for every spec: its results, in spec
    /// order.
    fn simulate(&self, events: &[TimeMs], horizon_ms: TimeMs) -> Vec<AppSimResult> {
        let mut groups: Vec<HybridGroup> = self
            .groups
            .iter()
            .map(|(config, percentiles)| HybridGroup::new(config, percentiles))
            .collect();
        // Per spec: the windows in force (read only once a gap closes),
        // the result so far, and how it takes its next windows.
        let mut lanes: Vec<(Windows, AppSimResult, Lane)> = self
            .specs
            .iter()
            .map(|step| {
                let (windows, lane) = match step {
                    Step::Constant(w) => (*w, Lane::Constant),
                    Step::Hybrid(h) => (Windows::NEVER_UNLOAD, Lane::Hybrid(h)),
                    Step::Production(p) => (
                        Windows::NEVER_UNLOAD,
                        Lane::Production(Box::new(p.new_policy())),
                    ),
                };
                (windows, AppSimResult::new(events.len()), lane)
            })
            .collect();

        let last = replay(
            events,
            |_| 0,
            |_, idle| {
                if let Some(it) = idle {
                    for group in &mut groups {
                        group.record(it);
                    }
                }
                for (windows, res, lane) in &mut lanes {
                    res.add_gap(classify(windows, idle));
                    let (next, kind) = match lane {
                        Lane::Constant => continue,
                        Lane::Hybrid(h) => groups[h.group].decide(&h.config, h.head, h.tail),
                        Lane::Production(policy) => {
                            (policy.on_invocation(idle), policy.last_decision())
                        }
                    };
                    *windows = next;
                    res.add_decision(kind);
                }
            },
        );
        lanes
            .into_iter()
            .map(|(windows, mut res, _)| {
                if let Some(prev_end) = last {
                    res.add_trailing(windows, prev_end, horizon_ms);
                }
                res
            })
            .collect()
    }
}

/// Runs every policy over every application of the population.
///
/// `threads` ≤ 1 runs on the calling thread alone. Results are
/// independent of the thread count, and each spec's equal the fold of
/// [`crate::simulate_app`] over the population under its own policy.
pub fn run_sweep(
    population: &Population,
    trace_cfg: &TraceConfig,
    specs: &[PolicySpec],
    threads: usize,
) -> Vec<PolicyAggregate> {
    let apps = &population.apps;
    let plan = Plan::new(specs);
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
                done.push((idx, plan.simulate(&events, trace_cfg.horizon_ms)));
            }
        }
    };

    // The calling thread is one of the workers; no more of them than
    // there are claims to make.
    let helpers = threads.min(apps.len().div_ceil(CLAIM_APPS)).max(1) - 1;
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        // A helper's panic surfaces with its own payload, as it would
        // have on the calling thread.
        for h in handles {
            done.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
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
    use sitw_trace::{build_population, Archetype, PopulationConfig, TimerSpec, DAY_MS};

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
        // One shared group of hybrids (the default's, already in
        // `specs()`, is its first member), and a spec twice.
        let hybrid = HybridConfig::default();
        let mut specs = specs();
        specs.extend([
            PolicySpec::Hybrid(hybrid.clone().without_arima()),
            PolicySpec::Hybrid(hybrid.clone().without_pre_warming()),
            PolicySpec::Hybrid(hybrid.clone().with_cv_threshold(5.0)),
            PolicySpec::Hybrid(hybrid.clone().with_cutoffs(1.0, 95.0)),
            PolicySpec::Hybrid(hybrid),
        ]);
        for pop in [&pop, &few] {
            let serial = run_sweep(pop, &cfg, &specs, 1);
            assert_eq!(serial.len(), specs.len());
            assert_eq!(exact(&serial[2]), exact(&serial[8]), "a spec twice");
            for threads in [2, 3, 4, 7] {
                let parallel = run_sweep(pop, &cfg, &specs, threads);
                assert_eq!(serial.len(), parallel.len());
                for (s, p) in serial.iter().zip(&parallel) {
                    assert_eq!(exact(s), exact(p), "{} at {threads} threads", s.label);
                }
            }
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        let (pop, cfg) = setup();
        let mut broken = pop.apps[0].clone();
        broken.archetype = Archetype::Timers(vec![TimerSpec {
            period_ms: 0,
            phase_ms: 0,
        }]);
        // Claims are dynamic, so which worker draws the app is not
        // known; across five places, helpers draw some.
        for at in (0..pop.len()).step_by(30) {
            let mut apps = pop.apps.clone();
            apps[at] = broken.clone();
            let bad = Population { apps };
            for threads in [1, 3] {
                let payload = std::panic::catch_unwind(|| run_sweep(&bad, &cfg, &specs(), threads))
                    .expect_err("a zero period panics");
                assert_eq!(
                    payload.downcast_ref::<&str>().copied(),
                    Some("timer period must be positive"),
                    "app {at}, {threads} threads"
                );
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
