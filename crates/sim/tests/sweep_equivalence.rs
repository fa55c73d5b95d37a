//! The fused sweep against its definition: `run_sweep` walks each app
//! once for every spec, sharing one histogram, cursor set and history
//! among hybrid specs of one state key; each spec's aggregate must equal
//! the fold of `simulate_app` over the population under that spec's own
//! policy, in every field, floats by their bits, at any thread count.

use proptest::prelude::*;
use sitw_core::{FixedKeepAlive, HybridConfig, ProductionConfig, RecencyWeighting};
use sitw_sim::{run_sweep, simulate_app, PolicyAggregate, PolicySpec};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

/// Everything an aggregate holds, floats by their bits.
type Exact = (String, Vec<u64>, [u64; 7], u128, u64);

fn exact(a: &PolicyAggregate) -> Exact {
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

/// Draws `n` distinct outcomes off `bits`, least significant first.
fn taker(mut bits: u64) -> impl FnMut(u64) -> u64 {
    move |n| {
        let v = bits % n;
        bits /= n;
        v
    }
}

/// A hybrid configuration whose state key collides often: ranges of
/// 60 and 300 minutes at widths 1 and 5 both give 60 bins, so a plan
/// keyed on the bin count alone would group them; caps differ among
/// otherwise equal configurations; cutoffs, CV, thresholds, ARIMA and
/// pre-warming vary within a key.
fn hybrid(bits: u64) -> HybridConfig {
    let mut take = taker(bits);
    let (head, tail) = [
        (5.0, 99.0),
        (0.0, 100.0),
        (5.0, 100.0),
        (1.0, 99.0),
        (1.0, 95.0),
        (5.0, 95.0),
    ][take(6) as usize];
    let mut cfg = HybridConfig::default()
        .with_cutoffs(head, tail)
        .with_cv_threshold([2.0, 0.0, 5.0, 10.0][take(4) as usize]);
    cfg.range_minutes = [240, 60, 300, 120][take(4) as usize];
    cfg.bin_width_minutes = [1, 5][take(2) as usize];
    cfg.history_cap = [64, 6, 1, 0][take(4) as usize];
    cfg.min_samples = [5, 1][take(2) as usize];
    cfg.oob_threshold = [0.5, 0.2][take(2) as usize];
    if take(3) == 0 {
        cfg = cfg.without_arima();
    }
    if take(4) == 0 {
        cfg = cfg.without_pre_warming();
    }
    cfg
}

/// One spec of every kind the sweep serves.
fn spec(bits: u64) -> PolicySpec {
    let mut take = taker(bits);
    match take(8) {
        0 => PolicySpec::fixed_minutes([0, 5, 10, 60][take(4) as usize]),
        1 => PolicySpec::Fixed(FixedKeepAlive {
            keep_alive_ms: take(3_600_000),
        }),
        2 => PolicySpec::NoUnloading,
        3 => {
            let mut cfg = ProductionConfig::default();
            cfg.weighting = match take(3) {
                0 => RecencyWeighting::Uniform,
                1 => RecencyWeighting::Exponential { decay: 0.5 },
                _ => cfg.weighting,
            };
            cfg.retention_days = [14, 1, 2][take(3) as usize];
            PolicySpec::Production(cfg)
        }
        _ => PolicySpec::Hybrid(hybrid(bits >> 3)),
    }
}

/// Each spec's aggregate by definition: its own policy per app,
/// replayed by `simulate_app`, folded in population order.
fn per_spec(
    population: &sitw_trace::Population,
    trace_cfg: &TraceConfig,
    specs: &[PolicySpec],
) -> Vec<PolicyAggregate> {
    let streams: Vec<Vec<u64>> = population
        .apps
        .iter()
        .map(|app| app_invocations(app, trace_cfg))
        .collect();
    specs
        .iter()
        .map(|spec| {
            let mut agg = PolicyAggregate::new(spec.label());
            for (app, events) in population.apps.iter().zip(&streams) {
                let mut policy = spec.new_policy();
                let result = simulate_app(events, trace_cfg.horizon_ms, policy.as_mut());
                agg.add(&result, app.memory_mb);
            }
            agg
        })
        .collect()
}

proptest! {
    /// Random populations and horizons under random spec lists — with
    /// duplicates, several specs per state key and keys that differ
    /// only in width or history cap — swept on 1, 2 and 3 threads.
    #[test]
    fn fused_sweep_equals_per_spec_simulate_app(
        world in 0u64..u64::MAX,
        mix in 0u64..u64::MAX,
        picks in prop::collection::vec(0u64..u64::MAX, 1..9),
    ) {
        let mut take = taker(mix);
        let population = build_population(&PopulationConfig {
            num_apps: 1 + take(16) as usize,
            seed: world >> 32,
        });
        let trace_cfg = TraceConfig {
            horizon_ms: DAY_MS / 2 + take(2 * DAY_MS),
            cap_per_day: [40.0, 300.0, 900.0][take(3) as usize],
            seed: world & 0xFFFF_FFFF,
        };
        let mut specs: Vec<PolicySpec> = picks.iter().map(|&b| spec(b)).collect();
        // The benchmark's pair, one state key apart only in branch, and
        // a repeat of one drawn spec.
        if take(2) == 0 {
            specs.push(PolicySpec::Hybrid(HybridConfig::default()));
            specs.push(PolicySpec::Hybrid(HybridConfig::default().without_arima()));
        }
        specs.push(specs[take(specs.len() as u64) as usize].clone());

        let expected: Vec<Exact> = per_spec(&population, &trace_cfg, &specs)
            .iter()
            .map(exact)
            .collect();
        for threads in [1, 2, 3] {
            let fused = run_sweep(&population, &trace_cfg, &specs, threads);
            prop_assert_eq!(fused.len(), specs.len());
            for (want, got) in expected.iter().zip(&fused) {
                prop_assert!(
                    *want == exact(got),
                    "at {threads} threads: {want:?} != {:?}",
                    exact(got)
                );
            }
        }
    }
}
