//! Shared harness for the figure-regeneration binary and the Criterion
//! benchmarks: canonical workload setups, the full policy grid of the
//! paper's evaluation, and output helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::path::PathBuf;

use sitw_core::HybridConfig;
use sitw_sim::{run_sweep, PolicyAggregate, PolicySpec};
use sitw_stats::report::{fnum, write_csv, TextTable};
use sitw_stats::Ecdf;
use sitw_trace::{build_population, Population, PopulationConfig, TraceConfig, WEEK_MS};

/// Harness-wide settings (CLI-controlled in the `figures` binary).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Applications for the policy-evaluation sweep (Figures 14–19).
    pub sim_apps: usize,
    /// Applications for the characterization figures (Figures 1–8).
    pub char_apps: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-app daily event cap for simulation traces.
    pub sim_cap_per_day: f64,
    /// Per-app daily event cap for the characterization trace.
    pub char_cap_per_day: f64,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Output directory for CSV series.
    pub out_dir: PathBuf,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            sim_apps: 2_000,
            char_apps: 6_000,
            seed: 42,
            sim_cap_per_day: 5_000.0,
            char_cap_per_day: 2_000.0,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            out_dir: PathBuf::from("results"),
        }
    }
}

impl HarnessConfig {
    /// The population used for policy evaluation.
    pub fn sim_population(&self) -> Population {
        build_population(&PopulationConfig {
            num_apps: self.sim_apps,
            seed: self.seed,
        })
    }

    /// The (larger) population used for characterization.
    pub fn char_population(&self) -> Population {
        build_population(&PopulationConfig {
            num_apps: self.char_apps,
            seed: self.seed ^ 0xC11A5,
        })
    }

    /// One-week trace configuration for the policy sweep (§5.1 uses the
    /// first week of the trace).
    pub fn sim_trace_config(&self) -> TraceConfig {
        TraceConfig {
            horizon_ms: WEEK_MS,
            cap_per_day: self.sim_cap_per_day,
            seed: self.seed ^ 0x51E,
        }
    }

    /// Two-week trace configuration for characterization (Figure 4 spans
    /// the full collection window).
    pub fn char_trace_config(&self) -> TraceConfig {
        TraceConfig {
            horizon_ms: 2 * WEEK_MS,
            cap_per_day: self.char_cap_per_day,
            seed: self.seed ^ 0xC4A7,
        }
    }

    /// Output path for a named CSV artifact.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}.csv"))
    }
}

/// The fixed keep-alive lengths of Figure 14 (minutes).
pub const FIXED_MINUTES: [u64; 8] = [5, 10, 20, 30, 45, 60, 90, 120];

/// Hybrid histogram ranges of Figure 15 (hours).
pub const HYBRID_RANGE_HOURS: [usize; 4] = [1, 2, 3, 4];

/// Cutoff pairs of Figure 16.
pub const CUTOFFS: [(f64, f64); 6] = [
    (0.0, 100.0),
    (5.0, 100.0),
    (1.0, 99.0),
    (5.0, 99.0),
    (1.0, 95.0),
    (5.0, 95.0),
];

/// CV thresholds of Figure 18.
pub const CV_THRESHOLDS: [f64; 4] = [0.0, 2.0, 5.0, 10.0];

/// Builds the complete policy grid covering every evaluation figure.
/// A configuration several figures share (the default hybrid is in
/// four of them) is emitted once; distinct configurations have distinct
/// labels, which [`run_full_grid`] keys its map by.
pub fn full_policy_grid() -> Vec<PolicySpec> {
    let mut specs: Vec<PolicySpec> = Vec::new();
    // Equal specs, not equal labels: a label leaves out most of a hybrid
    // configuration (bin width, thresholds, history cap, margins).
    let push = |spec: PolicySpec, specs: &mut Vec<PolicySpec>| {
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    };

    for minutes in FIXED_MINUTES {
        push(PolicySpec::fixed_minutes(minutes), &mut specs);
    }
    push(PolicySpec::fixed_minutes(240), &mut specs); // Figure 19 contrast.
    push(PolicySpec::NoUnloading, &mut specs);

    for hours in HYBRID_RANGE_HOURS {
        push(
            PolicySpec::Hybrid(HybridConfig::with_range_hours(hours)),
            &mut specs,
        );
    }
    for (head, tail) in CUTOFFS {
        push(
            PolicySpec::Hybrid(HybridConfig::default().with_cutoffs(head, tail)),
            &mut specs,
        );
    }
    for cv in CV_THRESHOLDS {
        push(
            PolicySpec::Hybrid(HybridConfig::default().with_cv_threshold(cv)),
            &mut specs,
        );
    }
    push(
        PolicySpec::Hybrid(HybridConfig::default().without_arima()),
        &mut specs,
    );
    push(
        PolicySpec::Hybrid(HybridConfig::default().without_pre_warming()),
        &mut specs,
    );
    specs
}

/// Runs the full grid and indexes aggregates by label.
pub fn run_full_grid(cfg: &HarnessConfig) -> HashMap<String, PolicyAggregate> {
    let population = cfg.sim_population();
    let trace_cfg = cfg.sim_trace_config();
    let specs = full_policy_grid();
    let grid: HashMap<String, PolicyAggregate> =
        run_sweep(&population, &trace_cfg, &specs, cfg.threads)
            .into_iter()
            .map(|a| (a.label.clone(), a))
            .collect();
    assert_eq!(grid.len(), specs.len(), "two grid specs share a label");
    grid
}

/// Label helpers matching [`PolicySpec::label`] output.
pub mod labels {
    /// Fixed keep-alive label.
    pub fn fixed(minutes: u64) -> String {
        format!("fixed-{minutes}min")
    }

    /// Default hybrid label for a range in hours.
    pub fn hybrid(hours: usize) -> String {
        format!("hybrid-{hours}h[5,99]cv2")
    }

    /// Hybrid label with explicit cutoffs (4-hour range).
    pub fn hybrid_cutoff(head: f64, tail: f64) -> String {
        format!("hybrid-4h[{head},{tail}]cv2")
    }

    /// Hybrid label with an explicit CV threshold (4-hour range).
    pub fn hybrid_cv(cv: f64) -> String {
        format!("hybrid-4h[5,99]cv{cv}")
    }

    /// The no-ARIMA hybrid label.
    pub fn hybrid_noarima() -> String {
        "hybrid-4h[5,99]cv2-noarima".to_owned()
    }

    /// The no-pre-warming hybrid label.
    pub fn hybrid_nopw() -> String {
        "hybrid-4h[5,99]cv2-nopw".to_owned()
    }

    /// The no-unloading label.
    pub fn no_unloading() -> String {
        "no-unloading".to_owned()
    }
}

/// Formats a CDF as `(x, F)` CSV rows labelled by series.
pub fn cdf_rows(series: &str, ecdf: &Ecdf, max_points: usize) -> Vec<Vec<String>> {
    ecdf.points_downsampled(max_points)
        .into_iter()
        .map(|(x, f)| vec![series.to_owned(), fnum(x, 4), fnum(f, 6)])
        .collect()
}

/// Writes labelled CDF series to a CSV artifact.
pub fn write_series(
    cfg: &HarnessConfig,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    write_csv(&cfg.csv_path(name), headers, rows)
}

/// Prints a table with a figure banner.
pub fn print_figure(id: &str, caption: &str, table: &TextTable) {
    println!("\n=== {id}: {caption} ===");
    print!("{}", table.render());
}

/// Convenience: percentile summary row of per-app cold percentages.
pub fn cold_summary_row(agg: &PolicyAggregate) -> Vec<String> {
    vec![
        agg.label.clone(),
        fnum(agg.cold_pct_percentile(25.0), 1),
        fnum(agg.cold_pct_percentile(50.0), 1),
        fnum(agg.cold_pct_percentile(75.0), 1),
        fnum(agg.cold_pct_percentile(90.0), 1),
        format!("{}", agg.cold_starts),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_trace::DAY_MS;

    #[test]
    fn grid_labels_are_unique() {
        // Every spec once, and no two of them under one label: the map
        // `run_full_grid` returns would keep only one of them.
        let specs = full_policy_grid();
        for (i, spec) in specs.iter().enumerate() {
            assert!(!specs[..i].contains(spec), "{} twice", spec.label());
        }
        let labels: std::collections::HashSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "two specs share a label");
    }

    #[test]
    fn grid_has_unique_labels_and_covers_figures() {
        let specs = full_policy_grid();
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len(), "duplicate labels");

        for minutes in FIXED_MINUTES {
            assert!(labels.contains(&labels::fixed(minutes)));
        }
        assert!(labels.contains(&labels::no_unloading()));
        for hours in HYBRID_RANGE_HOURS {
            assert!(labels.contains(&labels::hybrid(hours)), "{hours}h");
        }
        for (h, t) in CUTOFFS {
            assert!(
                labels.contains(&labels::hybrid_cutoff(h, t)),
                "cutoff {h},{t}"
            );
        }
        for cv in CV_THRESHOLDS {
            assert!(labels.contains(&labels::hybrid_cv(cv)), "cv {cv}");
        }
        assert!(labels.contains(&labels::hybrid_noarima()));
        assert!(labels.contains(&labels::hybrid_nopw()));
    }

    #[test]
    fn label_helpers_match_policyspec() {
        assert_eq!(PolicySpec::fixed_minutes(10).label(), labels::fixed(10));
        assert_eq!(
            PolicySpec::Hybrid(HybridConfig::with_range_hours(2)).label(),
            labels::hybrid(2)
        );
        assert_eq!(
            PolicySpec::Hybrid(HybridConfig::default().with_cutoffs(1.0, 95.0)).label(),
            labels::hybrid_cutoff(1.0, 95.0)
        );
        assert_eq!(
            PolicySpec::Hybrid(HybridConfig::default().with_cv_threshold(10.0)).label(),
            labels::hybrid_cv(10.0)
        );
        assert_eq!(
            PolicySpec::Hybrid(HybridConfig::default().without_arima()).label(),
            labels::hybrid_noarima()
        );
        assert_eq!(
            PolicySpec::Hybrid(HybridConfig::default().without_pre_warming()).label(),
            labels::hybrid_nopw()
        );
    }

    #[test]
    fn tiny_grid_run_produces_all_aggregates() {
        let cfg = HarnessConfig {
            sim_apps: 40,
            char_apps: 40,
            sim_cap_per_day: 500.0,
            ..HarnessConfig::default()
        };
        // Shrink the horizon for test speed.
        let population = cfg.sim_population();
        let trace_cfg = TraceConfig {
            horizon_ms: DAY_MS,
            cap_per_day: 500.0,
            seed: 1,
        };
        let specs = full_policy_grid();
        let aggs = run_sweep(&population, &trace_cfg, &specs, 2);
        assert_eq!(aggs.len(), specs.len());
        assert!(aggs.iter().all(|a| a.apps > 0));
    }
}
