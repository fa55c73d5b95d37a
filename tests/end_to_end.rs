//! End-to-end pipeline tests: determinism, parallel/serial agreement,
//! cross-component consistency, and the characterization targets the
//! generator is calibrated to.

use serverless_in_the_wild::prelude::*;
use serverless_in_the_wild::trace::analysis;
use serverless_in_the_wild::trace::for_each_app;

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let population = build_population(&PopulationConfig {
            num_apps: 150,
            seed: 9,
        });
        let cfg = TraceConfig {
            horizon_ms: DAY_MS,
            cap_per_day: 1_000.0,
            seed: 4,
        };
        let specs = vec![
            PolicySpec::fixed_minutes(10),
            PolicySpec::Hybrid(HybridConfig::default()),
        ];
        run_sweep(&population, &cfg, &specs, 3)
    };
    let a = run();
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cold_starts, y.cold_starts);
        assert_eq!(x.wasted_ms, y.wasted_ms);
        assert_eq!(x.invocations, y.invocations);
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let population = build_population(&PopulationConfig {
        num_apps: 120,
        seed: 10,
    });
    let cfg = TraceConfig {
        horizon_ms: DAY_MS,
        cap_per_day: 1_000.0,
        seed: 5,
    };
    let specs = vec![PolicySpec::Hybrid(HybridConfig::default())];
    let serial = run_sweep(&population, &cfg, &specs, 1);
    let parallel = run_sweep(&population, &cfg, &specs, 8);
    assert_eq!(serial[0].cold_starts, parallel[0].cold_starts);
    assert_eq!(serial[0].wasted_ms, parallel[0].wasted_ms);
    assert_eq!(serial[0].always_cold_apps, parallel[0].always_cold_apps);
}

#[test]
fn characterization_targets_hold() {
    // The calibrated population must stay near the published anchors.
    let population = build_population(&PopulationConfig {
        num_apps: 6_000,
        seed: 31,
    });

    // Figure 1: single-function apps ≈ 54%.
    let singles = population
        .apps
        .iter()
        .filter(|a| a.functions.len() == 1)
        .count() as f64
        / population.len() as f64;
    assert!((0.45..0.65).contains(&singles), "singles {singles}");

    // Figure 2: HTTP carries the most functions.
    let shares = analysis::trigger_shares(&population);
    let http = shares
        .iter()
        .find(|r| r.trigger == TriggerType::Http)
        .unwrap();
    assert!(http.pct_functions > 40.0, "HTTP {}", http.pct_functions);
    // Event: few functions, many invocations.
    let event = shares
        .iter()
        .find(|r| r.trigger == TriggerType::Event)
        .unwrap();
    assert!(
        event.pct_invocations > 3.0 * event.pct_functions,
        "event {}% functions vs {}% invocations",
        event.pct_functions,
        event.pct_invocations
    );

    // Figure 5(b): extreme popularity skew.
    let conc = analysis::popularity_concentration_expected(&population);
    let at20 = conc.iter().find(|(f, _)| *f >= 0.20).unwrap().1;
    assert!(at20 > 0.95, "top-20% share {at20}");

    // Figure 8: memory median in the Burr fit's neighborhood.
    let (_, avg, _) = analysis::memory_ecdfs(&population);
    let median = avg.quantile(0.5);
    assert!((90.0..220.0).contains(&median), "memory median {median}");

    // Figure 7: half the functions run under ~1 s on average.
    let (_, avg_exec, _) = analysis::exec_time_ecdfs(&population);
    assert!(avg_exec.quantile(0.5) < 1.5, "{}", avg_exec.quantile(0.5));
}

#[test]
fn streaming_and_materialized_traces_agree() {
    let population = build_population(&PopulationConfig {
        num_apps: 80,
        seed: 12,
    });
    let cfg = TraceConfig {
        horizon_ms: DAY_MS,
        cap_per_day: 500.0,
        seed: 6,
    };
    let trace = generate_trace(&population, &cfg);
    let mut streamed_total = 0u64;
    for_each_app(&population, &cfg, |_, ev| streamed_total += ev.len() as u64);
    assert_eq!(trace.total_invocations(), streamed_total);
}

#[test]
fn hourly_load_has_diurnal_structure() {
    let population = build_population(&PopulationConfig {
        num_apps: 800,
        seed: 13,
    });
    let cfg = TraceConfig {
        horizon_ms: WEEK_MS,
        cap_per_day: 1_000.0,
        seed: 7,
    };
    let mut sc = analysis::StreamingCharacterization::new(cfg.horizon_ms);
    for_each_app(&population, &cfg, |profile, events| {
        sc.add(profile, &events)
    });
    let hourly = sc.hourly_normalized();
    assert_eq!(hourly.len(), 24 * 7);
    // Figure 4: a substantial flat baseline — the minimum hour stays
    // well above zero.
    let min = hourly.iter().cloned().fold(f64::MAX, f64::min);
    assert!(min > 0.15, "min/peak {min}");
    // And there is genuine diurnal variation.
    assert!(min < 0.85, "no diurnal variation, min {min}");
}

#[test]
fn sweep_aggregates_are_internally_consistent() {
    let population = build_population(&PopulationConfig {
        num_apps: 200,
        seed: 14,
    });
    let cfg = TraceConfig {
        horizon_ms: DAY_MS,
        cap_per_day: 1_000.0,
        seed: 8,
    };
    let specs = vec![
        PolicySpec::fixed_minutes(10),
        PolicySpec::Hybrid(HybridConfig::default()),
    ];
    let aggs = run_sweep(&population, &cfg, &specs, 2);
    for agg in &aggs {
        assert_eq!(agg.per_app_cold_pct.len() as u64, agg.apps);
        assert!(agg.cold_starts <= agg.invocations);
        assert!(agg.always_cold_apps >= agg.single_invocation_apps);
        // Cold percentages within [0, 100].
        assert!(agg
            .per_app_cold_pct
            .iter()
            .all(|&p| (0.0..=100.0).contains(&p)));
        // The CDF ends at 1.
        let cdf = agg.cold_cdf();
        assert_eq!(cdf.eval(100.0), 1.0);
    }
    // Both policies saw the same workload.
    assert_eq!(aggs[0].invocations, aggs[1].invocations);
    assert_eq!(aggs[0].apps, aggs[1].apps);
}
