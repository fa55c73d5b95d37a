//! `benchmark/run --selfcheck`: two back-to-back sets of runs of the
//! same build, compared the way the driver compares two builds. Per
//! end-to-end metric it prints both medians, their disagreement, each
//! set's quartile spread and the bound; it fails when a disagreement or
//! a spread exceeds the bound (`setup_s` is held to the disagreement
//! only, as in the acceptance rule).

use std::io;
use std::process::Command;

use crate::spec::{self, END_TO_END};
use crate::stats;

/// One metric's A/A comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Median of the first set.
    pub median_a: f64,
    /// Median of the second set.
    pub median_b: f64,
    /// By how much the second median is *worse* than the first, as a
    /// share of the first (negative when it is better).
    pub worse_by: f64,
    /// Quartile spread of each set as a share of its median.
    pub spread_a: f64,
    /// See `spread_a`.
    pub spread_b: f64,
}

/// Compares two sets of values of one metric.
pub fn compare(a: &[f64], b: &[f64], better: &str) -> Comparison {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let delta = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    Comparison {
        median_a,
        median_b,
        worse_by: if better == "higher" { -delta } else { delta },
        spread_a: stats::iqr_spread(a),
        spread_b: stats::iqr_spread(b),
    }
}

/// Whether a comparison stays inside `bound`.
pub fn within(c: &Comparison, name: &str, bound: f64) -> bool {
    let spreads_ok = name == "setup_s" || (c.spread_a <= bound && c.spread_b <= bound);
    c.worse_by <= bound && spreads_ok
}

/// One run in a process of its own, as the driver makes them (so
/// `peak_rss_mb` of `sim-sweep` is that run's, not the largest of the
/// runs before it): whether it was correct, and its end-to-end values
/// in [`END_TO_END`] order.
fn run_once(name: &str, seed: u64, seconds: f64, scale: f64) -> io::Result<(bool, Vec<f64>)> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !line.starts_with("{\"correct\": ") {
        return Err(io::Error::other(format!(
            "{name} seed {seed} printed no result: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    let values = END_TO_END
        .iter()
        .map(|def| metric_value(line, def.name).unwrap_or(0.0))
        .collect();
    if !out.status.success() {
        print!("{stdout}");
    }
    Ok((out.status.success(), values))
}

/// The value of one metric in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs the self-check; `Ok(true)` when every metric of every workload
/// agrees with itself and every run was correct.
pub fn run(names: &[&str], runs: usize, seconds: f64, scale: f64) -> io::Result<bool> {
    let mut all_ok = true;
    println!("selfcheck | host {}", crate::procfs::host_fingerprint());
    println!("{runs} + {runs} runs per workload, {seconds} s each, another seed per run");
    for name in names {
        if spec::workload(name).is_none() {
            return Err(io::Error::other(format!("unknown workload '{name}'")));
        }
        let mut sets: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for (set, values) in sets.iter_mut().enumerate() {
            for k in 0..runs {
                let (correct, run) = run_once(name, (set * runs + k + 1) as u64, seconds, scale)?;
                all_ok &= correct;
                for (slot, value) in values.iter_mut().zip(run) {
                    slot.push(value);
                }
            }
        }
        println!("\n{name}");
        println!(
            "  {:<22} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
            "metric", "median A", "median B", "worse by", "spread A", "spread B", "bound"
        );
        for (i, def) in END_TO_END.iter().enumerate() {
            let c = compare(&sets[0][i], &sets[1][i], def.better);
            let ok = within(&c, def.name, def.bound);
            all_ok &= ok;
            println!(
                "  {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}% {}",
                def.name,
                c.median_a,
                c.median_b,
                100.0 * c.worse_by,
                100.0 * c.spread_a,
                100.0 * c.spread_b,
                100.0 * def.bound,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        let a = [100.0, 101.0, 99.0];
        let b = [90.0, 91.0, 89.0];
        assert!((compare(&a, &b, "higher").worse_by - 0.10).abs() < 1e-9);
        assert!((compare(&a, &b, "lower").worse_by + 0.10).abs() < 1e-9);
    }

    #[test]
    fn metric_values_are_read_back_from_a_result_line() {
        let mut r = crate::workloads::RunResult {
            attempted: 3,
            ..Default::default()
        };
        r.metrics.insert("decisions_per_s", 123_456.75);
        r.metrics.insert("setup_s", 0.0193);
        let line = crate::report::json_line(&r, END_TO_END);
        assert_eq!(metric_value(&line, "decisions_per_s"), Some(123_456.75));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.0193));
        assert_eq!(metric_value(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(metric_value(&line, "no_such_metric"), None);
    }

    #[test]
    fn setup_is_held_to_the_medians_only() {
        let noisy = Comparison {
            median_a: 1.0,
            median_b: 1.05,
            worse_by: 0.05,
            spread_a: 0.4,
            spread_b: 0.4,
        };
        assert!(within(&noisy, "setup_s", 0.25));
        assert!(!within(&noisy, "decisions_per_s", 0.25));
        let drifted = Comparison {
            worse_by: 0.3,
            ..noisy
        };
        assert!(!within(&drifted, "setup_s", 0.25));
    }
}
