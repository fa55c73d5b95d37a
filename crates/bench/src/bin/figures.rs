//! Regenerates every table and figure of the paper's characterization
//! (Figures 1–8) and evaluation (Figures 14–20), printing the series the
//! paper plots and writing CSV artifacts under `results/`.
//!
//! Usage:
//!
//! ```text
//! figures [--apps N] [--char-apps N] [--seed S] [--threads T]
//!         [--cap EVENTS_PER_DAY] [--out DIR]
//!         <fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|
//!          fig14|fig15|fig16|fig17|fig18|fig19|fig20|
//!          ablation-bins|ablation-minsamples|ablation-oob|all>...
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;

use sitw_bench::{
    cdf_rows, cold_summary_row, labels, print_figure, run_full_grid, write_series, HarnessConfig,
    CUTOFFS, CV_THRESHOLDS, FIXED_MINUTES, HYBRID_RANGE_HOURS,
};
use sitw_core::{AppPolicy, FixedKeepAlive, HybridConfig, PolicyFactory};
use sitw_platform::{run_platform, PlatformConfig};
use sitw_sim::{run_sweep, PolicyAggregate, PolicySpec};
use sitw_stats::distributions::{Burr, ContinuousDist, LogNormal};
use sitw_stats::report::{fnum, TextTable};
use sitw_stats::Ecdf;
use sitw_trace::analysis::{self, StreamingCharacterization};
use sitw_trace::subset::{filter_by_weighted_exec, mid_popularity_subset, paper_mid_band};
use sitw_trace::{for_each_app, generate_trace, Population, TraceConfig, HOUR_MS};

fn main() {
    let (cfg, figs) = parse_args(std::env::args().skip(1));
    if figs.is_empty() {
        eprintln!("no figures requested; try `figures all`");
        std::process::exit(2);
    }

    let needs_char = figs.iter().any(|f| {
        matches!(
            f.as_str(),
            "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "fig8"
        )
    });
    let needs_grid = figs.iter().any(|f| {
        matches!(
            f.as_str(),
            "fig14" | "fig15" | "fig16" | "fig17" | "fig18" | "fig19"
        )
    });

    let char_assets = needs_char.then(|| {
        eprintln!(
            "[figures] building characterization population ({} apps) and 2-week trace…",
            cfg.char_apps
        );
        CharAssets::build(&cfg)
    });
    let grid = if needs_grid {
        eprintln!(
            "[figures] running policy grid over {} apps × 1 week ({} threads)…",
            cfg.sim_apps, cfg.threads
        );
        run_full_grid(&cfg)
    } else {
        HashMap::new()
    };

    for fig in &figs {
        match fig.as_str() {
            "fig1" => fig1(&cfg, char_assets.as_ref().unwrap()),
            "fig2" => fig2(&cfg, char_assets.as_ref().unwrap()),
            "fig3" => fig3(&cfg, char_assets.as_ref().unwrap()),
            "fig4" => fig4(&cfg, char_assets.as_ref().unwrap()),
            "fig5" => fig5(&cfg, char_assets.as_ref().unwrap()),
            "fig6" => fig6(&cfg, char_assets.as_ref().unwrap()),
            "fig7" => fig7(&cfg, char_assets.as_ref().unwrap()),
            "fig8" => fig8(&cfg, char_assets.as_ref().unwrap()),
            "fig12" => fig12(&cfg),
            "fig14" => fig14(&cfg, &grid),
            "fig15" => fig15(&cfg, &grid),
            "fig16" => fig16(&cfg, &grid),
            "fig17" => fig17(&cfg, &grid),
            "fig18" => fig18(&cfg, &grid),
            "fig19" => fig19(&cfg, &grid),
            "fig20" => fig20(&cfg),
            "ablation-bins" => ablation_bins(&cfg),
            "ablation-minsamples" => ablation_minsamples(&cfg),
            "ablation-oob" => ablation_oob(&cfg),
            other => {
                eprintln!("unknown figure id {other:?}");
                std::process::exit(2);
            }
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> (HarnessConfig, Vec<String>) {
    let mut cfg = HarnessConfig::default();
    let mut figs = Vec::new();
    while let Some(arg) = args.next() {
        let mut next = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--apps" => cfg.sim_apps = next("--apps").parse().expect("--apps"),
            "--char-apps" => cfg.char_apps = next("--char-apps").parse().expect("--char-apps"),
            "--seed" => cfg.seed = next("--seed").parse().expect("--seed"),
            "--threads" => cfg.threads = next("--threads").parse().expect("--threads"),
            "--cap" => cfg.sim_cap_per_day = next("--cap").parse().expect("--cap"),
            "--out" => cfg.out_dir = next("--out").into(),
            "all" => {
                figs.extend(
                    [
                        "fig1",
                        "fig2",
                        "fig3",
                        "fig4",
                        "fig5",
                        "fig6",
                        "fig7",
                        "fig8",
                        "fig12",
                        "fig14",
                        "fig15",
                        "fig16",
                        "fig17",
                        "fig18",
                        "fig19",
                        "fig20",
                        "ablation-bins",
                        "ablation-minsamples",
                        "ablation-oob",
                    ]
                    .iter()
                    .map(|s| s.to_string()),
                );
            }
            other => figs.push(other.to_owned()),
        }
    }
    // Each figure once, in the order first asked for (`all fig14`
    // names fig14 twice, not next to each other).
    let mut seen = std::collections::HashSet::new();
    figs.retain(|f| seen.insert(f.clone()));
    (cfg, figs)
}

/// Characterization inputs: a population plus streamed trace statistics.
struct CharAssets {
    population: Population,
    streamed: StreamingCharacterization,
}

impl CharAssets {
    fn build(cfg: &HarnessConfig) -> Self {
        let population = cfg.char_population();
        let tcfg = cfg.char_trace_config();
        let mut streamed = StreamingCharacterization::new(tcfg.horizon_ms);
        for_each_app(&population, &tcfg, |p, ev| streamed.add(p, &ev));
        Self {
            population,
            streamed,
        }
    }
}

// ---------------------------------------------------------------------
// Characterization figures (§3).
// ---------------------------------------------------------------------

fn fig1(cfg: &HarnessConfig, assets: &CharAssets) {
    let f = analysis::functions_per_app(&assets.population);
    let mut t = TextTable::new(vec![
        "functions<=",
        "% apps",
        "% invocations",
        "% functions",
    ]);
    let probe = [1.0, 3.0, 6.0, 10.0, 100.0];
    let lookup = |series: &[(f64, f64)], x: f64| {
        series
            .iter()
            .take_while(|(v, _)| *v <= x)
            .last()
            .map(|(_, f)| 100.0 * f)
            .unwrap_or(0.0)
    };
    for x in probe {
        t.row(vec![
            fnum(x, 0),
            fnum(lookup(&f.apps_cdf, x), 1),
            fnum(lookup(&f.invocations_cdf, x), 1),
            fnum(lookup(&f.functions_cdf, x), 1),
        ]);
    }
    print_figure(
        "Figure 1",
        "functions per app (paper: 54% of apps have 1 function; 50% of \
         invocations from apps with <=3; 50% of functions in apps with <=6)",
        &t,
    );
    let mut rows = Vec::new();
    for (label, series) in [
        ("apps", &f.apps_cdf),
        ("invocations", &f.invocations_cdf),
        ("functions", &f.functions_cdf),
    ] {
        for (x, y) in series {
            rows.push(vec![label.to_owned(), fnum(*x, 0), fnum(*y, 6)]);
        }
    }
    write_series(
        cfg,
        "fig1_functions_per_app",
        &["series", "x", "cdf"],
        &rows,
    )
    .unwrap();
}

fn fig2(cfg: &HarnessConfig, assets: &CharAssets) {
    let rows = analysis::trigger_shares(&assets.population);
    // Paper values (Figure 2) for side-by-side comparison.
    let paper: HashMap<&str, (f64, f64)> = [
        ("HTTP", (55.0, 35.9)),
        ("Queue", (15.2, 33.5)),
        ("Event", (2.2, 24.7)),
        ("Orchestration", (6.9, 2.3)),
        ("Timer", (15.6, 2.0)),
        ("Storage", (2.8, 0.7)),
        ("Others", (2.2, 1.0)),
    ]
    .into_iter()
    .collect();
    let mut t = TextTable::new(vec![
        "Trigger",
        "%Functions",
        "%Invocations",
        "paper %F",
        "paper %I",
    ]);
    let mut csv = Vec::new();
    for r in &rows {
        let (pf, pi) = paper[r.trigger.name()];
        t.row(vec![
            r.trigger.name().to_owned(),
            fnum(r.pct_functions, 1),
            fnum(r.pct_invocations, 1),
            fnum(pf, 1),
            fnum(pi, 1),
        ]);
        csv.push(vec![
            r.trigger.name().to_owned(),
            fnum(r.pct_functions, 3),
            fnum(r.pct_invocations, 3),
        ]);
    }
    print_figure("Figure 2", "functions and invocations per trigger type", &t);
    write_series(
        cfg,
        "fig2_triggers",
        &["trigger", "pct_functions", "pct_invocations"],
        &csv,
    )
    .unwrap();
}

// The paper's "Others: 6.28%" happens to look like TAU to clippy.
#[allow(clippy::approx_constant)]
fn fig3(cfg: &HarnessConfig, assets: &CharAssets) {
    let marginals = analysis::apps_with_trigger(&assets.population);
    let mut t = TextTable::new(vec!["Trigger", "% apps (>=1)", "paper"]);
    let paper: HashMap<&str, f64> = [
        ("HTTP", 64.07),
        ("Timer", 29.15),
        ("Queue", 23.70),
        ("Storage", 6.83),
        ("Event", 5.79),
        ("Orchestration", 3.09),
        ("Others", 6.28),
    ]
    .into_iter()
    .collect();
    for (trigger, pct) in &marginals {
        t.row(vec![
            trigger.name().to_owned(),
            fnum(*pct, 2),
            fnum(paper[trigger.name()], 2),
        ]);
    }
    print_figure("Figure 3(a)", "apps with at least one trigger of type", &t);

    let combos = analysis::combo_shares(&assets.population);
    let mut t = TextTable::new(vec!["Types", "% apps", "cumulative %"]);
    let mut csv = Vec::new();
    for (key, pct, cum) in combos.iter().take(12) {
        t.row(vec![key.clone(), fnum(*pct, 2), fnum(*cum, 2)]);
    }
    for (key, pct, cum) in &combos {
        csv.push(vec![key.clone(), fnum(*pct, 4), fnum(*cum, 4)]);
    }
    print_figure(
        "Figure 3(b)",
        "popular trigger combinations (paper: H 43.27, T 13.36, Q 9.47, …)",
        &t,
    );
    write_series(cfg, "fig3_combos", &["combo", "pct_apps", "cum_pct"], &csv).unwrap();
}

fn fig4(cfg: &HarnessConfig, assets: &CharAssets) {
    let hourly = assets.streamed.hourly_normalized();
    let baseline = analysis::baseline_fraction(&hourly, 0.45);
    let min = hourly.iter().cloned().fold(f64::MAX, f64::min);
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["hours".into(), format!("{}", hourly.len())]);
    t.row(vec!["peak (normalized)".into(), "1.000".into()]);
    t.row(vec!["min / peak".into(), fnum(min, 3)]);
    t.row(vec![
        "fraction of hours >= 0.45×peak".into(),
        fnum(baseline, 3),
    ]);
    print_figure(
        "Figure 4",
        "hourly invocations normalized to peak (paper: diurnal + weekly \
         pattern, ~50% flat baseline)",
        &t,
    );
    let rows: Vec<Vec<String>> = hourly
        .iter()
        .enumerate()
        .map(|(h, v)| vec![format!("{h}"), fnum(*v, 5)])
        .collect();
    write_series(cfg, "fig4_hourly_load", &["hour", "relative_load"], &rows).unwrap();
}

fn fig5(cfg: &HarnessConfig, assets: &CharAssets) {
    let (apps, funcs) = assets.streamed.daily_rate_ecdfs();
    let mut t = TextTable::new(vec!["series", "q", "invocations/day"]);
    for (name, e) in [("apps", &apps), ("functions", &funcs)] {
        for q in [0.25, 0.45, 0.50, 0.81, 0.95, 0.99] {
            t.row(vec![name.into(), fnum(q, 2), fnum(e.quantile(q), 2)]);
        }
    }
    print_figure(
        "Figure 5(a)",
        "daily invocation rates (paper anchors: 45% of apps <= 1/hour \
         (24/day), 81% <= 1/minute (1440/day); 8 orders of magnitude)",
        &t,
    );
    let mut rows = cdf_rows("apps", &apps, 400);
    rows.extend(cdf_rows("functions", &funcs, 400));
    write_series(cfg, "fig5a_daily_rates", &["series", "rate", "cdf"], &rows).unwrap();

    // 5(b): popularity concentration from expected (uncapped) rates.
    let conc = analysis::popularity_concentration_expected(&assets.population);
    let mut t = TextTable::new(vec!["top % of apps", "% of invocations"]);
    for frac in [0.001, 0.01, 0.1, 0.186, 0.5] {
        let share = conc
            .iter()
            .find(|(f, _)| *f >= frac)
            .map(|(_, s)| 100.0 * s)
            .unwrap_or(100.0);
        t.row(vec![fnum(100.0 * frac, 1), fnum(share, 2)]);
    }
    print_figure(
        "Figure 5(b)",
        "invocation concentration (paper: top 18.6% of apps = 99.6% of \
         invocations)",
        &t,
    );
    let rows: Vec<Vec<String>> = conc
        .iter()
        .step_by((conc.len() / 500).max(1))
        .map(|(f, s)| vec![fnum(*f, 5), fnum(*s, 6)])
        .collect();
    write_series(
        cfg,
        "fig5b_concentration",
        &["top_fraction_of_apps", "invocation_share"],
        &rows,
    )
    .unwrap();
}

fn fig6(cfg: &HarnessConfig, assets: &CharAssets) {
    let stats = assets.streamed.iat_cv();
    let mut t = TextTable::new(vec!["subset", "apps", "CV=0 (<0.05)", "CV<=1", "CV>1"]);
    let mut rows = Vec::new();
    for (name, xs) in [
        ("all", &stats.all),
        ("only-timers", &stats.only_timers),
        (">=1 timer", &stats.at_least_one_timer),
        ("no timers", &stats.no_timers),
    ] {
        if xs.is_empty() {
            continue;
        }
        let n = xs.len() as f64;
        let z = xs.iter().filter(|&&c| c < 0.05).count() as f64 / n;
        let le1 = xs.iter().filter(|&&c| c <= 1.0).count() as f64 / n;
        t.row(vec![
            name.into(),
            format!("{}", xs.len()),
            fnum(100.0 * z, 1),
            fnum(100.0 * le1, 1),
            fnum(100.0 * (1.0 - le1), 1),
        ]);
        let e = Ecdf::new(xs.clone());
        rows.extend(cdf_rows(name, &e, 200));
    }
    print_figure(
        "Figure 6",
        "IAT coefficient of variation (paper: ~50% of only-timer apps at \
         CV 0; ~20% of all apps; ~40% of apps above CV 1)",
        &t,
    );
    write_series(cfg, "fig6_iat_cv", &["subset", "cv", "cdf"], &rows).unwrap();
}

fn fig7(cfg: &HarnessConfig, assets: &CharAssets) {
    let (min, avg, max) = analysis::exec_time_ecdfs(&assets.population);
    let fit = LogNormal::execution_time_fit();
    let mut t = TextTable::new(vec![
        "percentile",
        "min (s)",
        "avg (s)",
        "max (s)",
        "fit (s)",
    ]);
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.96, 0.99] {
        t.row(vec![
            fnum(100.0 * q, 0),
            fnum(min.quantile(q), 3),
            fnum(avg.quantile(q), 3),
            fnum(max.quantile(q), 3),
            fnum(fit.quantile(q), 3),
        ]);
    }
    print_figure(
        "Figure 7",
        "execution times (paper: 50% of functions average < 1 s; 96% \
         average < 60 s; log-normal fit mu=-0.38 sigma=2.36)",
        &t,
    );
    let mut rows = cdf_rows("min", &min, 300);
    rows.extend(cdf_rows("avg", &avg, 300));
    rows.extend(cdf_rows("max", &max, 300));
    let grid = sitw_stats::ecdf::log_grid(1e-3, 3600.0, 200);
    rows.extend(
        grid.iter()
            .map(|&x| vec!["lognormal-fit".to_owned(), fnum(x, 4), fnum(fit.cdf(x), 6)]),
    );
    write_series(cfg, "fig7_exec_times", &["series", "seconds", "cdf"], &rows).unwrap();
}

fn fig8(cfg: &HarnessConfig, assets: &CharAssets) {
    let (p1, avg, max) = analysis::memory_ecdfs(&assets.population);
    let fit = Burr::memory_fit();
    let mut t = TextTable::new(vec![
        "percentile",
        "pct1 (MB)",
        "avg (MB)",
        "max (MB)",
        "Burr fit (MB)",
    ]);
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        t.row(vec![
            fnum(100.0 * q, 0),
            fnum(p1.quantile(q), 1),
            fnum(avg.quantile(q), 1),
            fnum(max.quantile(q), 1),
            fnum(fit.quantile(q), 1),
        ]);
    }
    print_figure(
        "Figure 8",
        "allocated memory per app (paper: 50% of apps <= 170 MB; 90% never \
         above 400 MB; Burr fit c=11.652 k=0.221 lambda=107.083)",
        &t,
    );
    let mut rows = cdf_rows("pct1", &p1, 300);
    rows.extend(cdf_rows("avg", &avg, 300));
    rows.extend(cdf_rows("max", &max, 300));
    write_series(cfg, "fig8_memory", &["series", "mb", "cdf"], &rows).unwrap();
}

// ---------------------------------------------------------------------
// Figure 12: nine normalized idle-time distributions over a week.
// ---------------------------------------------------------------------

fn fig12(cfg: &HarnessConfig) {
    use sitw_stats::RangeHistogram;
    use sitw_trace::{app_invocations, Archetype};

    let population = cfg.sim_population();
    let tcfg = cfg.sim_trace_config();

    // Pick nine applications covering the paper's three columns: sharp
    // head+tail (timers/steady), head at zero (sub-minute chatter), and
    // widely spread (no useful cutoffs).
    let mut picks: Vec<(&str, usize)> = Vec::new();
    let take = |label: &'static str,
                pred: &dyn Fn(&sitw_trace::AppProfile) -> bool,
                picks: &mut Vec<(&str, usize)>| {
        for (i, app) in population.apps.iter().enumerate() {
            if picks.iter().any(|&(_, j)| j == i) {
                continue;
            }
            if pred(app) {
                picks.push((label, i));
                return;
            }
        }
    };
    let timer_mid = |a: &sitw_trace::AppProfile| {
        matches!(&a.archetype, Archetype::Timers(t)
            if t.len() == 1 && (5.0..=60.0).contains(&(t[0].period_ms as f64 / 60_000.0)))
    };
    let chatter = |a: &sitw_trace::AppProfile| {
        matches!(a.archetype, Archetype::Bursty { intra_gap_ms, .. } if intra_gap_ms < 30_000.0)
            && a.daily_rate > 200.0
    };
    let spread = |a: &sitw_trace::AppProfile| {
        matches!(a.archetype, Archetype::Poisson) && a.daily_rate > 10.0 && a.daily_rate < 200.0
    };
    for _ in 0..3 {
        take("sharp", &timer_mid, &mut picks);
        take("head-at-zero", &chatter, &mut picks);
        take("spread", &spread, &mut picks);
    }

    let mut t = TextTable::new(vec![
        "panel",
        "kind",
        "app",
        "ITs",
        "OOB %",
        "mode bin (min)",
        "bin-count CV",
    ]);
    let mut rows = Vec::new();
    for (panel, (kind, idx)) in picks.iter().enumerate() {
        let app = &population.apps[*idx];
        let events = app_invocations(app, &tcfg);
        let mut h = RangeHistogram::new(240, 1);
        for w in events.windows(2) {
            h.record((w[1] - w[0]) / 60_000);
        }
        let mode = h
            .bins()
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        t.row(vec![
            format!("{}", panel + 1),
            kind.to_string(),
            app.id.to_string(),
            format!("{}", h.in_bounds_count()),
            fnum(100.0 * h.oob_fraction(), 1),
            format!("{mode}"),
            fnum(h.bin_count_cv(), 2),
        ]);
        // Normalized per-bin frequencies for the CSV artifact.
        let peak = h.bins().iter().copied().max().unwrap_or(1).max(1) as f64;
        for (bin, &c) in h.bins().iter().enumerate() {
            if c > 0 {
                rows.push(vec![
                    format!("{}", panel + 1),
                    format!("{bin}"),
                    fnum(c as f64 / peak, 4),
                ]);
            }
        }
    }
    print_figure(
        "Figure 12",
        "nine normalized IT distributions over a week (paper: left column \
         sharp head+tail; middle column head at bin 0; right column spread \
         — the histogram-unfriendly case)",
        &t,
    );
    write_series(
        cfg,
        "fig12_it_distributions",
        &["panel", "it_minutes", "normalized_frequency"],
        &rows,
    )
    .unwrap();
}

// ---------------------------------------------------------------------
// Evaluation figures (§5.2).
// ---------------------------------------------------------------------

fn fig14(cfg: &HarnessConfig, grid: &HashMap<String, PolicyAggregate>) {
    let mut t = TextTable::new(vec!["policy", "p25", "p50", "p75", "p90", "cold starts"]);
    let mut rows = Vec::new();
    let mut order: Vec<String> = vec![labels::no_unloading()];
    order.extend(FIXED_MINUTES.iter().rev().map(|&m| labels::fixed(m)));
    for label in order {
        let agg = &grid[&label];
        t.row(cold_summary_row(agg));
        rows.extend(cdf_rows(&agg.label, &agg.cold_cdf(), 200));
    }
    print_figure(
        "Figure 14",
        "per-app cold-start % under fixed keep-alive (paper: p75 is 50.3% \
         at 10 min, 25% at 1 h; ~3.5% of apps always cold even with \
         no-unloading)",
        &t,
    );
    write_series(
        cfg,
        "fig14_fixed_keepalive",
        &["policy", "cold_pct", "cdf"],
        &rows,
    )
    .unwrap();
}

fn fig15(cfg: &HarnessConfig, grid: &HashMap<String, PolicyAggregate>) {
    let baseline = &grid[&labels::fixed(10)];
    let mut t = TextTable::new(vec!["policy", "p75 cold %", "normalized waste %"]);
    let mut rows = Vec::new();
    {
        let mut emit = |label: String| {
            let agg = &grid[&label];
            let p75 = agg.cold_pct_percentile(75.0);
            let waste = agg.normalized_waste_pct(baseline);
            t.row(vec![label.clone(), fnum(p75, 2), fnum(waste, 2)]);
            rows.push(vec![label, fnum(p75, 4), fnum(waste, 4)]);
        };
        for minutes in FIXED_MINUTES {
            emit(labels::fixed(minutes));
        }
        for hours in HYBRID_RANGE_HOURS {
            emit(labels::hybrid(hours));
        }
    }
    print_figure(
        "Figure 15",
        "cold-start/memory trade-off (paper: fixed-10min has ~2.5× the \
         cold starts of hybrid-4h at equal memory; fixed-2h needs ~1.5× \
         the memory at equal cold starts)",
        &t,
    );
    write_series(
        cfg,
        "fig15_pareto",
        &["policy", "p75_cold_pct", "normalized_waste_pct"],
        &rows,
    )
    .unwrap();
}

fn fig16(cfg: &HarnessConfig, grid: &HashMap<String, PolicyAggregate>) {
    let baseline = &grid[&labels::fixed(10)];
    let mut t = TextTable::new(vec!["cutoffs", "p75 cold %", "normalized waste %"]);
    let mut rows = Vec::new();
    for (head, tail) in CUTOFFS {
        let label = labels::hybrid_cutoff(head, tail);
        let agg = &grid[&label];
        t.row(vec![
            format!("[{head},{tail}]"),
            fnum(agg.cold_pct_percentile(75.0), 2),
            fnum(agg.normalized_waste_pct(baseline), 2),
        ]);
        rows.extend(cdf_rows(&label, &agg.cold_cdf(), 200));
    }
    print_figure(
        "Figure 16",
        "histogram cutoff sensitivity (paper: [5,99] cuts wasted memory \
         ~15% vs [0,100] with no noticeable cold-start degradation)",
        &t,
    );
    write_series(cfg, "fig16_cutoffs", &["policy", "cold_pct", "cdf"], &rows).unwrap();
}

fn fig17(cfg: &HarnessConfig, grid: &HashMap<String, PolicyAggregate>) {
    let baseline = &grid[&labels::fixed(10)];
    let variants = [
        ("no PW, KA:99th", labels::hybrid_nopw()),
        ("PW:1st, KA:99th", labels::hybrid_cutoff(1.0, 99.0)),
        ("PW:5th, KA:99th", labels::hybrid_cutoff(5.0, 99.0)),
    ];
    let mut t = TextTable::new(vec!["variant", "p75 cold %", "normalized waste %"]);
    let mut rows = Vec::new();
    for (name, label) in variants {
        let agg = &grid[&label];
        t.row(vec![
            name.to_owned(),
            fnum(agg.cold_pct_percentile(75.0), 2),
            fnum(agg.normalized_waste_pct(baseline), 2),
        ]);
        rows.extend(cdf_rows(name, &agg.cold_cdf(), 200));
    }
    print_figure(
        "Figure 17",
        "pre-warming impact (paper: unload+pre-warm cuts wasted memory \
         significantly at a slight cold-start cost)",
        &t,
    );
    write_series(
        cfg,
        "fig17_prewarming",
        &["variant", "cold_pct", "cdf"],
        &rows,
    )
    .unwrap();
}

fn fig18(cfg: &HarnessConfig, grid: &HashMap<String, PolicyAggregate>) {
    let baseline = &grid[&labels::fixed(10)];
    let mut t = TextTable::new(vec!["CV threshold", "p75 cold %", "normalized waste %"]);
    let mut rows = Vec::new();
    for cv in CV_THRESHOLDS {
        let label = labels::hybrid_cv(cv);
        let agg = &grid[&label];
        t.row(vec![
            fnum(cv, 0),
            fnum(agg.cold_pct_percentile(75.0), 2),
            fnum(agg.normalized_waste_pct(baseline), 2),
        ]);
        rows.extend(cdf_rows(&label, &agg.cold_cdf(), 200));
    }
    print_figure(
        "Figure 18",
        "representativeness CV threshold (paper: clear gains up to CV=2, \
         then diminishing cold-start returns at higher memory cost)",
        &t,
    );
    write_series(
        cfg,
        "fig18_cv_threshold",
        &["policy", "cold_pct", "cdf"],
        &rows,
    )
    .unwrap();
}

fn fig19(cfg: &HarnessConfig, grid: &HashMap<String, PolicyAggregate>) {
    let rows_def = [
        ("fixed (4h)", labels::fixed(240)),
        ("hybrid w/o ARIMA", labels::hybrid_noarima()),
        ("hybrid (full)", labels::hybrid(4)),
    ];
    let mut t = TextTable::new(vec![
        "policy",
        "% always-cold",
        "% always-cold (excl. 1-invocation)",
    ]);
    let mut csv = Vec::new();
    for (name, label) in rows_def {
        let agg = &grid[&label];
        t.row(vec![
            name.to_owned(),
            fnum(agg.always_cold_pct(), 2),
            fnum(agg.always_cold_pct_excluding_single(), 2),
        ]);
        csv.push(vec![
            name.to_owned(),
            fnum(agg.always_cold_pct(), 4),
            fnum(agg.always_cold_pct_excluding_single(), 4),
        ]);
    }
    let hybrid = &grid[&labels::hybrid(4)];
    let single_pct = if hybrid.apps == 0 {
        0.0
    } else {
        100.0 * hybrid.single_invocation_apps as f64 / hybrid.apps as f64
    };
    t.row(vec![
        "(single-invocation apps)".to_owned(),
        fnum(single_pct, 2),
        "-".to_owned(),
    ]);
    print_figure(
        "Figure 19",
        "always-cold applications (paper: ARIMA halves the share, 10.5% → \
         5.2%; excluding single-invocation apps, 6.9% → 1.7%; ARIMA served \
         0.64% of invocations across 9.3% of apps)",
        &t,
    );
    let mut t2 = TextTable::new(vec!["metric", "value", "paper"]);
    t2.row(vec![
        "% invocations via ARIMA".into(),
        fnum(hybrid.arima_invocation_share_pct(), 3),
        "0.64".into(),
    ]);
    t2.row(vec![
        "% apps that used ARIMA".into(),
        fnum(hybrid.arima_app_share_pct(), 2),
        "9.3".into(),
    ]);
    print_figure("Figure 19 (cont.)", "ARIMA usage", &t2);
    write_series(
        cfg,
        "fig19_always_cold",
        &["policy", "always_cold_pct", "always_cold_excl_single_pct"],
        &csv,
    )
    .unwrap();
}

// ---------------------------------------------------------------------
// Figure 20: OpenWhisk-model experiment (§5.3).
// ---------------------------------------------------------------------

fn fig20(cfg: &HarnessConfig) {
    eprintln!("[figures] fig20: building 68-app / 8-hour platform replay…");
    let population = cfg.sim_population();
    // Interactive mid-popularity applications: the
    // paper's replay averages ~1,640 invocations/app-day with latency
    // metrics dominated by sub-second handlers.
    let interactive = filter_by_weighted_exec(&population, 2.0);
    let (lo, hi) = paper_mid_band();
    let subset = mid_popularity_subset(&interactive, 68, lo, hi, cfg.seed ^ 0x68);
    let tcfg = TraceConfig {
        horizon_ms: 8 * HOUR_MS,
        cap_per_day: cfg.sim_cap_per_day,
        seed: cfg.seed ^ 0x20,
    };
    let trace = generate_trace(&subset, &tcfg);
    let pcfg = PlatformConfig::default();

    let fixed = run_platform(&trace, &pcfg, || {
        Box::new(FixedKeepAlive::minutes(10).new_policy()) as Box<dyn AppPolicy>
    });
    let hybrid = run_platform(&trace, &pcfg, || {
        Box::new(HybridConfig::default().new_policy()) as Box<dyn AppPolicy>
    });

    let mem_reduction =
        100.0 * (1.0 - hybrid.total_idle_mb_ms() / fixed.total_idle_mb_ms().max(1e-9));
    let avg_cut = 100.0 * (1.0 - hybrid.avg_exec_ms() / fixed.avg_exec_ms().max(1e-9));
    let p99_cut =
        100.0 * (1.0 - hybrid.exec_percentile_ms(99.0) / fixed.exec_percentile_ms(99.0).max(1e-9));

    let mut t = TextTable::new(vec![
        "metric",
        "fixed-10min",
        "hybrid-4h",
        "change",
        "paper",
    ]);
    t.row(vec![
        "apps / invocations".into(),
        format!("{} / {}", subset.len(), fixed.served()),
        format!("{} / {}", subset.len(), hybrid.served()),
        "-".into(),
        "68 / 12383".into(),
    ]);
    t.row(vec![
        "cold starts".into(),
        format!("{}", fixed.cold_count()),
        format!("{}", hybrid.cold_count()),
        change(
            100.0 * (1.0 - hybrid.cold_count() as f64 / fixed.cold_count().max(1) as f64),
            "fewer",
            "more",
        ),
        "significant reduction".into(),
    ]);
    t.row(vec![
        "idle memory (GB·min)".into(),
        fnum(fixed.total_idle_mb_ms() / 1024.0 / 60_000.0, 1),
        fnum(hybrid.total_idle_mb_ms() / 1024.0 / 60_000.0, 1),
        change(mem_reduction, "less", "more"),
        "15.6% less".into(),
    ]);
    t.row(vec![
        "avg exec (ms)".into(),
        fnum(fixed.avg_exec_ms(), 1),
        fnum(hybrid.avg_exec_ms(), 1),
        change(avg_cut, "faster", "slower"),
        "32.5% faster".into(),
    ]);
    t.row(vec![
        "p99 exec (ms)".into(),
        fnum(fixed.exec_percentile_ms(99.0), 1),
        fnum(hybrid.exec_percentile_ms(99.0), 1),
        change(p99_cut, "faster", "slower"),
        "82.4% faster".into(),
    ]);
    print_figure(
        "Figure 20",
        "OpenWhisk-model replay: 68 mid-popularity apps, 8 h, 18 invokers",
        &t,
    );

    let mut rows = cdf_rows("fixed-10min", &fixed.cold_cdf(), 100);
    rows.extend(cdf_rows("hybrid-4h", &hybrid.cold_cdf(), 100));
    write_series(
        cfg,
        "fig20_openwhisk",
        &["policy", "cold_pct", "cdf"],
        &rows,
    )
    .unwrap();
}

/// A relative cut worded by its sign: `pct` > 0 is how much lower the
/// hybrid row is ("15.6% less"), `pct` < 0 how much higher ("30.7%
/// more").
fn change(pct: f64, lower: &str, higher: &str) -> String {
    if pct >= 0.0 {
        format!("{}% {lower}", fnum(pct, 1))
    } else {
        format!("{}% {higher}", fnum(-pct, 1))
    }
}

// ---------------------------------------------------------------------
// Ablations (design choices §4.2 calls out).
// ---------------------------------------------------------------------

fn ablation_sweep(
    cfg: &HarnessConfig,
    name: &str,
    caption: &str,
    variants: Vec<(String, HybridConfig)>,
) {
    let population = cfg.sim_population();
    let tcfg = cfg.sim_trace_config();
    let mut specs = vec![PolicySpec::fixed_minutes(10)];
    specs.extend(variants.iter().map(|(_, c)| PolicySpec::Hybrid(c.clone())));
    let aggs = run_sweep(&population, &tcfg, &specs, cfg.threads);
    let baseline = aggs[0].clone();
    let mut t = TextTable::new(vec!["variant", "p75 cold %", "normalized waste %"]);
    let mut rows = Vec::new();
    for ((vname, _), agg) in variants.iter().zip(aggs.iter().skip(1)) {
        let p75 = agg.cold_pct_percentile(75.0);
        let waste = agg.normalized_waste_pct(&baseline);
        t.row(vec![vname.clone(), fnum(p75, 2), fnum(waste, 2)]);
        rows.push(vec![vname.clone(), fnum(p75, 4), fnum(waste, 4)]);
    }
    print_figure(name, caption, &t);
    write_series(
        cfg,
        &name.replace(' ', "_"),
        &["variant", "p75_cold_pct", "normalized_waste_pct"],
        &rows,
    )
    .unwrap();
}

fn ablation_bins(cfg: &HarnessConfig) {
    let variants = [1usize, 2, 5, 10, 30]
        .into_iter()
        .map(|w| {
            let c = HybridConfig {
                bin_width_minutes: w,
                ..HybridConfig::default()
            };
            (format!("bin-width-{w}min"), c)
        })
        .collect();
    ablation_sweep(
        cfg,
        "ablation-bins",
        "histogram bin width (paper fixes 1-minute bins as the metadata/\
         resolution sweet spot)",
        variants,
    );
}

fn ablation_minsamples(cfg: &HarnessConfig) {
    let variants = [1u64, 2, 5, 10, 25]
        .into_iter()
        .map(|m| {
            let c = HybridConfig {
                min_samples: m,
                ..HybridConfig::default()
            };
            (format!("min-samples-{m}"), c)
        })
        .collect();
    ablation_sweep(
        cfg,
        "ablation-minsamples",
        "minimum idle-times before trusting the histogram",
        variants,
    );
}

fn ablation_oob(cfg: &HarnessConfig) {
    let variants = [0.25f64, 0.5, 0.75, 0.9]
        .into_iter()
        .map(|th| {
            let c = HybridConfig {
                oob_threshold: th,
                ..HybridConfig::default()
            };
            (format!("oob-threshold-{th}"), c)
        })
        .collect();
    ablation_sweep(
        cfg,
        "ablation-oob",
        "out-of-bounds share that reroutes an app to the ARIMA path",
        variants,
    );
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    #[test]
    fn a_figure_named_twice_runs_once() {
        let args = |list: &[&str]| parse_args(list.iter().map(|s| s.to_string())).1;
        let all = args(&["all"]);
        assert_eq!(args(&["all", "fig14"]), all);
        assert_eq!(args(&["fig15", "fig14", "fig15"]), ["fig15", "fig14"]);
    }
}
