//! Workload characterization: computes the data behind the paper's
//! Figures 1–8 from a population or trace.
//!
//! Each function returns plottable series (or table rows) mirroring one
//! figure; the `figures` binary in `sitw-bench` prints and exports them.
//! The figures read off the invocation streams (4, 5a, 6) come from one
//! place, [`StreamingCharacterization`], fed one application at a time.

use std::collections::BTreeMap;

use sitw_stats::{Ecdf, Welford};

use crate::model::{Population, TriggerType};
use crate::time::{TimeMs, HOUR_MS};
use crate::Trace;

/// Figure 1: CDFs over "functions per app" — fraction of apps,
/// of invocations, and of functions belonging to apps with at most `x`
/// functions.
#[derive(Debug, Clone)]
pub struct FunctionsPerApp {
    /// `(x, F(x))` for the fraction of applications.
    pub apps_cdf: Vec<(f64, f64)>,
    /// `(x, F(x))` for the fraction of invocations.
    pub invocations_cdf: Vec<(f64, f64)>,
    /// `(x, F(x))` for the fraction of functions.
    pub functions_cdf: Vec<(f64, f64)>,
}

/// Computes Figure 1 from profiles (invocations weighted by daily rate).
pub fn functions_per_app(pop: &Population) -> FunctionsPerApp {
    // Group apps by function count.
    let mut by_count: BTreeMap<usize, (u64, f64, u64)> = BTreeMap::new();
    for a in &pop.apps {
        let e = by_count.entry(a.functions.len()).or_insert((0, 0.0, 0));
        e.0 += 1;
        e.1 += a.daily_rate;
        e.2 += a.functions.len() as u64;
    }
    let total_apps = pop.len() as f64;
    let total_rate: f64 = pop.apps.iter().map(|a| a.daily_rate).sum();
    let total_funcs = pop.num_functions() as f64;

    let mut apps_cdf = Vec::new();
    let mut invocations_cdf = Vec::new();
    let mut functions_cdf = Vec::new();
    let (mut ca, mut ci, mut cf) = (0.0, 0.0, 0.0);
    for (&count, &(apps, rate, funcs)) in &by_count {
        ca += apps as f64 / total_apps;
        ci += rate / total_rate;
        cf += funcs as f64 / total_funcs;
        apps_cdf.push((count as f64, ca));
        invocations_cdf.push((count as f64, ci));
        functions_cdf.push((count as f64, cf));
    }
    FunctionsPerApp {
        apps_cdf,
        invocations_cdf,
        functions_cdf,
    }
}

/// One row of Figure 2: a trigger's share of functions and invocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerRow {
    /// Trigger class.
    pub trigger: TriggerType,
    /// Percentage of all functions with this trigger.
    pub pct_functions: f64,
    /// Percentage of all invocations produced by this trigger.
    pub pct_invocations: f64,
}

/// Computes Figure 2 (functions and invocations per trigger type).
pub fn trigger_shares(pop: &Population) -> Vec<TriggerRow> {
    let mut funcs: BTreeMap<TriggerType, u64> = BTreeMap::new();
    let mut invs: BTreeMap<TriggerType, f64> = BTreeMap::new();
    let mut total_funcs = 0u64;
    let mut total_inv = 0.0f64;
    for a in &pop.apps {
        for f in &a.functions {
            *funcs.entry(f.trigger).or_default() += 1;
            let rate = f.invocation_share * a.daily_rate;
            *invs.entry(f.trigger).or_default() += rate;
            total_funcs += 1;
            total_inv += rate;
        }
    }
    TriggerType::ALL
        .iter()
        .map(|&t| TriggerRow {
            trigger: t,
            pct_functions: 100.0 * funcs.get(&t).copied().unwrap_or(0) as f64
                / total_funcs.max(1) as f64,
            pct_invocations: 100.0 * invs.get(&t).copied().unwrap_or(0.0) / total_inv.max(1e-12),
        })
        .collect()
}

/// Figure 3(a): percentage of applications with at least one trigger of
/// each type (sums above 100% since apps mix triggers).
pub fn apps_with_trigger(pop: &Population) -> Vec<(TriggerType, f64)> {
    TriggerType::ALL
        .iter()
        .map(|&t| {
            let n = pop
                .apps
                .iter()
                .filter(|a| a.functions.iter().any(|f| f.trigger == t))
                .count();
            (t, 100.0 * n as f64 / pop.len().max(1) as f64)
        })
        .collect()
}

/// Figure 3(b): trigger combinations by application share, descending,
/// with cumulative percentages.
pub fn combo_shares(pop: &Population) -> Vec<(String, f64, f64)> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for a in &pop.apps {
        *counts.entry(a.combo_key()).or_default() += 1;
    }
    let mut rows: Vec<(String, f64)> = counts
        .into_iter()
        .map(|(k, c)| (k, 100.0 * c as f64 / pop.len().max(1) as f64))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut cum = 0.0;
    rows.into_iter()
        .map(|(k, pct)| {
            cum += pct;
            (k, pct, cum)
        })
        .collect()
}

/// Figure 5(b): cumulative fraction of invocations versus the fraction of
/// most popular applications. Returns `(popularity_fraction,
/// invocation_fraction)` points, popularity ascending.
pub fn popularity_concentration(trace: &Trace) -> Vec<(f64, f64)> {
    let mut counts: Vec<u64> = trace
        .apps
        .iter()
        .map(|a| a.invocations.len() as u64)
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a)); // Most popular first.
    let total: u64 = counts.iter().sum();
    let n = counts.len() as f64;
    let mut cum = 0u64;
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            cum += c;
            ((i + 1) as f64 / n, cum as f64 / total.max(1) as f64)
        })
        .collect()
}

/// Figure 5(b) from profiles: the same concentration curve using expected
/// (uncapped) daily rates. The generator caps hot applications' *event
/// streams*; this variant reflects the head of the popularity
/// distribution exactly (the paper: top 18.6% of apps — those invoked at
/// least once per minute — account for 99.6% of invocations).
pub fn popularity_concentration_expected(pop: &Population) -> Vec<(f64, f64)> {
    let mut rates: Vec<f64> = pop.apps.iter().map(|a| a.daily_rate).collect();
    rates.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = rates.iter().sum();
    let n = rates.len() as f64;
    let mut cum = 0.0;
    rates
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            cum += r;
            ((i + 1) as f64 / n, cum / total.max(1e-12))
        })
        .collect()
}

/// Figure 6: per-application IAT coefficient of variation, for the four
/// subsets the paper plots.
#[derive(Debug, Clone)]
pub struct IatCvStats {
    /// CV per app, all applications (with ≥ 3 invocations).
    pub all: Vec<f64>,
    /// Apps whose functions are all timer-triggered.
    pub only_timers: Vec<f64>,
    /// Apps with at least one timer trigger.
    pub at_least_one_timer: Vec<f64>,
    /// Apps without timer triggers.
    pub no_timers: Vec<f64>,
}

/// Figure 7: execution-time distributions (minimum, average, maximum of
/// each function, independently sorted as in the paper).
pub fn exec_time_ecdfs(pop: &Population) -> (Ecdf, Ecdf, Ecdf) {
    let mut mins = Vec::new();
    let mut avgs = Vec::new();
    let mut maxs = Vec::new();
    for a in &pop.apps {
        for f in &a.functions {
            mins.push(f.min_exec_secs);
            avgs.push(f.avg_exec_secs);
            maxs.push(f.max_exec_secs);
        }
    }
    (Ecdf::new(mins), Ecdf::new(avgs), Ecdf::new(maxs))
}

/// Figure 8: allocated-memory distributions per application
/// (1st percentile, average, maximum; independently sorted).
pub fn memory_ecdfs(pop: &Population) -> (Ecdf, Ecdf, Ecdf) {
    let pct1: Vec<f64> = pop.apps.iter().map(|a| a.memory_mb_pct1).collect();
    let avg: Vec<f64> = pop.apps.iter().map(|a| a.memory_mb).collect();
    let max: Vec<f64> = pop.apps.iter().map(|a| a.memory_mb_max).collect();
    (Ecdf::new(pct1), Ecdf::new(avg), Ecdf::new(max))
}

/// Idle-time vs inter-arrival-time similarity check (§3.4): for apps
/// invoked at most once per minute, the IT ≈ IAT because executions are
/// short. Returns the mean relative gap between mean IAT and mean IT
/// using profile execution times.
pub fn it_iat_gap(trace: &Trace) -> f64 {
    let mut gaps = Vec::new();
    for app in &trace.apps {
        if app.invocations.len() < 2 {
            continue;
        }
        let days = (trace.horizon_ms as f64) / crate::time::DAY_MS as f64;
        let rate = app.invocations.len() as f64 / days;
        if rate > 1440.0 {
            continue; // Only the ≤ 1/minute band, as in the paper.
        }
        let mean_iat: f64 = {
            let mut w = Welford::new();
            for pair in app.invocations.windows(2) {
                w.push((pair[1] - pair[0]) as f64 / 1000.0);
            }
            w.mean()
        };
        let mean_exec: f64 = app
            .profile
            .functions
            .iter()
            .map(|f| f.invocation_share * f.avg_exec_secs)
            .sum();
        if mean_iat > 0.0 {
            gaps.push(mean_exec / mean_iat);
        }
    }
    if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    }
}

/// Fraction of hours (`0..1`) whose load is at least `threshold` × peak —
/// used to verify Figure 4's "constant baseline of roughly 50%".
pub fn baseline_fraction(hourly: &[f64], threshold: f64) -> f64 {
    if hourly.is_empty() {
        return 0.0;
    }
    hourly.iter().filter(|&&v| v >= threshold).count() as f64 / hourly.len() as f64
}

/// Streaming accumulator for the trace-dependent characterization figures
/// (4, 5a, 6) — processes one application's events at a time so the full
/// trace never has to be materialized.
///
/// # Examples
///
/// ```
/// use sitw_trace::analysis::StreamingCharacterization;
/// use sitw_trace::{build_population, for_each_app, PopulationConfig, TraceConfig};
///
/// let pop = build_population(&PopulationConfig { num_apps: 30, seed: 1 });
/// let cfg = TraceConfig::default();
/// let mut sc = StreamingCharacterization::new(cfg.horizon_ms);
/// for_each_app(&pop, &cfg, |profile, events| sc.add(profile, &events));
/// assert!(sc.hourly_normalized().len() == 24 * 7);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingCharacterization {
    horizon_ms: TimeMs,
    hourly: Vec<u64>,
    app_rates: Vec<f64>,
    func_rates: Vec<f64>,
    cv: IatCvStats,
}

impl StreamingCharacterization {
    /// Creates an accumulator for traces of the given horizon.
    pub fn new(horizon_ms: TimeMs) -> Self {
        let hours = (horizon_ms / HOUR_MS).max(1) as usize;
        Self {
            horizon_ms,
            hourly: vec![0; hours],
            app_rates: Vec::new(),
            func_rates: Vec::new(),
            cv: IatCvStats {
                all: Vec::new(),
                only_timers: Vec::new(),
                at_least_one_timer: Vec::new(),
                no_timers: Vec::new(),
            },
        }
    }

    /// Folds one application's (sorted) events in.
    pub fn add(&mut self, profile: &crate::model::AppProfile, events: &[TimeMs]) {
        let days = (self.horizon_ms as f64 / crate::time::DAY_MS as f64).max(1e-9);
        for &t in events {
            let h = (t / HOUR_MS) as usize;
            if h < self.hourly.len() {
                self.hourly[h] += 1;
            }
        }
        let rate = (events.len() as f64 / days).max(1.0 / 28.0);
        self.app_rates.push(rate);
        for f in &profile.functions {
            self.func_rates
                .push((rate * f.invocation_share).max(1.0 / 28.0));
        }
        if events.len() >= 3 {
            let mut w = Welford::new();
            for pair in events.windows(2) {
                w.push((pair[1] - pair[0]) as f64);
            }
            let cv = w.cv();
            self.cv.all.push(cv);
            if profile.only_timers() {
                self.cv.only_timers.push(cv);
            }
            if profile.has_timer() {
                self.cv.at_least_one_timer.push(cv);
            } else {
                self.cv.no_timers.push(cv);
            }
        }
    }

    /// Figure 4 series: hourly load normalized to the peak hour.
    pub fn hourly_normalized(&self) -> Vec<f64> {
        let peak = self.hourly.iter().copied().max().unwrap_or(1).max(1) as f64;
        self.hourly.iter().map(|&c| c as f64 / peak).collect()
    }

    /// Figure 5(a) ECDFs `(apps, functions)` of daily invocation rates.
    ///
    /// # Panics
    ///
    /// Panics when no applications were added.
    pub fn daily_rate_ecdfs(&self) -> (Ecdf, Ecdf) {
        (
            Ecdf::new(self.app_rates.clone()),
            Ecdf::new(self.func_rates.clone()),
        )
    }

    /// Figure 6 CV statistics.
    pub fn iat_cv(&self) -> &IatCvStats {
        &self.cv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{for_each_app, generate_trace, TraceConfig};
    use crate::population::{build_population, PopulationConfig};
    use crate::time::DAY_MS;

    fn population() -> Population {
        build_population(&PopulationConfig {
            num_apps: 600,
            seed: 42,
        })
    }

    fn config() -> TraceConfig {
        TraceConfig {
            horizon_ms: 2 * DAY_MS,
            cap_per_day: 3000.0,
            seed: 1,
        }
    }

    fn setup() -> (Population, Trace) {
        let pop = population();
        let trace = generate_trace(&pop, &config());
        (pop, trace)
    }

    /// The streamed figures over the same population and trace as
    /// [`setup`].
    fn streamed() -> StreamingCharacterization {
        let cfg = config();
        let mut sc = StreamingCharacterization::new(cfg.horizon_ms);
        for_each_app(&population(), &cfg, |profile, events| {
            sc.add(profile, &events)
        });
        sc
    }

    #[test]
    fn fig1_cdfs_monotone_and_end_at_one() {
        let (pop, _) = setup();
        let f = functions_per_app(&pop);
        for series in [&f.apps_cdf, &f.invocations_cdf, &f.functions_cdf] {
            assert!(series.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
            assert!((series.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
        // Majority of apps have one function.
        assert!(f.apps_cdf[0].0 == 1.0 && f.apps_cdf[0].1 > 0.4);
    }

    #[test]
    fn fig2_shares_sum_to_100() {
        let (pop, _) = setup();
        let rows = trigger_shares(&pop);
        let fsum: f64 = rows.iter().map(|r| r.pct_functions).sum();
        let isum: f64 = rows.iter().map(|r| r.pct_invocations).sum();
        assert!((fsum - 100.0).abs() < 1e-6);
        assert!((isum - 100.0).abs() < 1e-6);
        // HTTP leads functions.
        let http = rows
            .iter()
            .find(|r| r.trigger == TriggerType::Http)
            .unwrap();
        assert!(http.pct_functions > 30.0);
    }

    #[test]
    fn fig3a_marginals_exceed_combo_shares() {
        let (pop, _) = setup();
        let marg = apps_with_trigger(&pop);
        let total: f64 = marg.iter().map(|(_, p)| p).sum();
        // Apps can have several triggers, so marginals sum to > 100%.
        assert!(total > 100.0, "marginal sum {total}");
    }

    #[test]
    fn fig3b_cumulative_increases_to_100() {
        let (pop, _) = setup();
        let rows = combo_shares(&pop);
        assert!(!rows.is_empty());
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!((rows.last().unwrap().2 - 100.0).abs() < 1e-6);
        // HTTP-only should be the most common combination.
        assert_eq!(rows[0].0, "H");
    }

    #[test]
    fn fig4_load_normalized() {
        let hourly = streamed().hourly_normalized();
        assert_eq!(hourly.len(), 48);
        let peak = hourly.iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 1.0).abs() < 1e-12);
        assert!(hourly.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn fig5a_app_function_rates() {
        let (apps, funcs) = streamed().daily_rate_ecdfs();
        assert!(!apps.is_empty() && funcs.len() >= apps.len());
        // Median app rate far below 1/minute (most apps are infrequent).
        assert!(apps.quantile(0.5) < 1440.0);
    }

    #[test]
    fn fig5b_concentration_skewed() {
        let (pop, trace) = setup();
        // Realized curve (event cap flattens the extreme head, so the
        // bound is looser than the paper's 99.6%).
        let pts = popularity_concentration(&trace);
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
        let at20 = pts
            .iter()
            .find(|(f, _)| *f >= 0.20)
            .map(|(_, inv)| *inv)
            .unwrap();
        assert!(at20 > 0.70, "top-20% realized share {at20}");

        // Expected (uncapped) curve must reproduce the paper's extreme
        // skew: top 20% of apps ≈ 99%+ of invocations.
        let exp = popularity_concentration_expected(&pop);
        let at20 = exp
            .iter()
            .find(|(f, _)| *f >= 0.20)
            .map(|(_, inv)| *inv)
            .unwrap();
        assert!(at20 > 0.95, "top-20% expected share {at20}");
    }

    #[test]
    fn fig6_cv_subsets_partition() {
        let sc = streamed();
        let stats = sc.iat_cv();
        assert_eq!(
            stats.all.len(),
            stats.at_least_one_timer.len() + stats.no_timers.len()
        );
        assert!(stats.only_timers.len() <= stats.at_least_one_timer.len());
        // Timer-only apps include exact CV-0 members.
        let zero = stats.only_timers.iter().filter(|&&c| c < 1e-9).count();
        assert!(
            zero as f64 >= 0.25 * stats.only_timers.len().max(1) as f64,
            "only-timer CV-0 fraction too low: {zero}/{}",
            stats.only_timers.len()
        );
    }

    #[test]
    fn fig7_exec_ordering() {
        let (pop, _) = setup();
        let (min, avg, max) = exec_time_ecdfs(&pop);
        assert!(min.quantile(0.5) <= avg.quantile(0.5));
        assert!(avg.quantile(0.5) <= max.quantile(0.5));
        // §3.4: half the functions average under ~1 s.
        assert!(avg.quantile(0.5) < 2.0);
    }

    #[test]
    fn fig8_memory_ordering() {
        let (pop, _) = setup();
        let (p1, avg, max) = memory_ecdfs(&pop);
        assert!(p1.quantile(0.5) <= avg.quantile(0.5));
        assert!(avg.quantile(0.5) <= max.quantile(0.5));
    }

    #[test]
    fn it_iat_gap_small() {
        let (_, trace) = setup();
        // §3.4: execution times are ≥ 2 orders of magnitude below IATs
        // for most apps; the mean exec/IAT ratio must be small.
        let gap = it_iat_gap(&trace);
        assert!(gap < 0.15, "gap {gap}");
    }

    #[test]
    fn baseline_fraction_bounds() {
        assert_eq!(baseline_fraction(&[], 0.5), 0.0);
        assert_eq!(baseline_fraction(&[1.0, 0.4, 0.6], 0.5), 2.0 / 3.0);
    }
}
