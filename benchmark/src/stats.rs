//! The arithmetic behind the reported numbers: percentiles, medians,
//! the window-median rate and CPU cost of a phase, and the quartile
//! spread the acceptance rule uses.

use std::time::Duration;

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending
/// slice; 0 for an empty one.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method): what the driver's acceptance rule uses.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |i: usize| {
        // m = n + 1 positions, cut point i of 4.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the acceptance rule bounds.
pub fn iqr_spread(values: &[f64]) -> f64 {
    match quartiles_exclusive(values) {
        Some((q1, _, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / m.abs()
            }
        }
        None => 0.0,
    }
}

/// One sampling window of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Length of the window.
    pub dt: Duration,
    /// Operations completed inside it.
    pub count: u64,
    /// CPU seconds the programs under test used inside it.
    pub cpu_s: f64,
}

/// Target length of a sampling window: long enough that the 10 ms
/// granularity of `/proc/<pid>/stat` CPU times is a percent or two of a
/// window, short enough that a run has a few dozen of them.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Leading windows discarded (connection ramp, cold caches).
pub const DISCARD: usize = 2;
/// Below this many windows a median means little, and the figures are
/// the plain totals.
const MIN_WINDOWS: usize = 8;

/// The reported rate (operations per second) and CPU cost (µs per
/// operation) of a phase: the medians over its windows of `count / dt`
/// and of `cpu_s / count`, after discarding the first [`DISCARD`].
///
/// A stall — this host has them, other tenants share the machine —
/// lands in a few windows and moves the median of a few dozen hardly at
/// all, where total ÷ elapsed would charge the program for all of it.
/// (The mean of the quickest quarter of windows was tried as well; over
/// repeated runs of one build it was sometimes steadier than the median
/// and sometimes worse, so the plainer statistic stayed.) A phase with
/// fewer than eight windows reports plain totals.
pub fn window_medians(windows: &[Window]) -> (f64, f64) {
    let usable: Vec<&Window> = windows
        .iter()
        .skip(if windows.len() >= MIN_WINDOWS + DISCARD {
            DISCARD
        } else {
            0
        })
        .filter(|w| w.count > 0 && !w.dt.is_zero())
        .collect();
    if usable.len() < MIN_WINDOWS {
        let count: u64 = windows.iter().map(|w| w.count).sum();
        let dt: f64 = windows.iter().map(|w| w.dt.as_secs_f64()).sum();
        let cpu: f64 = windows.iter().map(|w| w.cpu_s).sum();
        if count == 0 || dt == 0.0 {
            return (0.0, 0.0);
        }
        return (count as f64 / dt, 1e6 * cpu / count as f64);
    }
    let rates: Vec<f64> = usable
        .iter()
        .map(|w| w.count as f64 / w.dt.as_secs_f64())
        .collect();
    let costs: Vec<f64> = usable
        .iter()
        .map(|w| 1e6 * w.cpu_s / w.count as f64)
        .collect();
    (median(&rates), median(&costs))
}

/// [`window_medians`] for a phase that repeats a fixed cycle of unlike
/// work items (the sweep's population slices): item `k`'s windows are
/// `groups[k]`, all with the same `count`. Each item contributes its
/// median time and its median CPU over its repeats, and the figures are
/// one whole cycle's operations over the summed medians — so a slow
/// item weighs in with its share instead of being one more sample.
pub fn cycle_medians(groups: &[Vec<Window>]) -> (f64, f64) {
    let (mut count, mut dt, mut cpu) = (0u64, 0.0, 0.0);
    for g in groups.iter().filter(|g| !g.is_empty()) {
        count += g[0].count;
        dt += median(&g.iter().map(|w| w.dt.as_secs_f64()).collect::<Vec<_>>());
        cpu += median(&g.iter().map(|w| w.cpu_s).collect::<Vec<_>>());
    }
    if count == 0 || dt == 0.0 {
        return (0.0, 0.0);
    }
    (count as f64 / dt, 1e6 * cpu / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 50.0), 3.0);
        assert_eq!(percentile_sorted(&v, 75.0), 4.0);
        assert_eq!(percentile_sorted(&v, 100.0), 5.0);
        assert!((percentile_sorted(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_even_sample_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles_exclusive(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, _, q3) = quartiles_exclusive(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    }

    fn window(ms: u64, count: u64, cpu_s: f64) -> Window {
        Window {
            dt: Duration::from_millis(ms),
            count,
            cpu_s,
        }
    }

    #[test]
    fn medians_of_a_steady_phase_are_its_rate_and_cost() {
        let windows = vec![window(500, 100_000, 0.6); 30];
        let (rate, cpu_us) = window_medians(&windows);
        assert!((rate - 200_000.0).abs() < 1e-6);
        assert!((cpu_us - 6.0).abs() < 1e-9);
    }

    #[test]
    fn a_stall_moves_a_few_windows_not_the_median() {
        // 30 windows of 100k operations; a neighbour halves four of them.
        let mut windows = vec![window(500, 100_000, 0.6); 30];
        for w in windows.iter_mut().skip(10).take(4) {
            w.count = 50_000;
        }
        let (rate, cpu_us) = window_medians(&windows);
        assert!((rate - 200_000.0).abs() < 1e-6, "{rate}");
        assert!((cpu_us - 6.0).abs() < 1e-9, "{cpu_us}");
        let total_rate = windows.iter().map(|w| w.count).sum::<u64>() as f64 / 15.0;
        assert!(
            total_rate < 190_000.0,
            "total / elapsed absorbs the stall: {total_rate}"
        );
    }

    #[test]
    fn the_ramp_is_discarded_and_short_phases_fall_back_to_totals() {
        let mut windows = vec![window(500, 100_000, 0.5); 10];
        windows[0] = window(500, 1, 0.5);
        windows[1] = window(500, 1, 0.5);
        windows[2] = window(500, 1, 0.5);
        windows[3] = window(500, 1, 0.5);
        // Two of the four slow leading windows are discarded, leaving
        // two slow ones among eight: the median is untouched.
        let (rate, cpu_us) = window_medians(&windows);
        assert!(
            (rate - 200_000.0).abs() < 1e-6 && (cpu_us - 5.0).abs() < 1e-9,
            "{rate} {cpu_us}"
        );
        let short = vec![window(100, 1_000, 0.01), window(300, 5_000, 0.02)];
        let (rate, cpu_us) = window_medians(&short);
        assert!((rate - 15_000.0).abs() < 1e-6, "{rate}");
        assert!((cpu_us - 5.0).abs() < 1e-9, "{cpu_us}");
        assert_eq!(window_medians(&[]), (0.0, 0.0));
    }

    #[test]
    fn a_cycle_counts_every_item_at_its_median_speed() {
        // Two items per cycle: a quick one and a slow one, seven repeats
        // each, three of them disturbed.
        let quick: Vec<Window> = (0..7)
            .map(|i| window(if i % 2 == 0 { 100 } else { 150 }, 1_000, 0.2))
            .collect();
        let slow: Vec<Window> = (0..7)
            .map(|i| window(if i % 2 == 0 { 400 } else { 700 }, 1_000, 0.8))
            .collect();
        let (rate, cpu_us) = cycle_medians(&[quick, slow]);
        assert!((rate - 2_000.0 / 0.5).abs() < 1e-6, "{rate}");
        assert!((cpu_us - 500.0).abs() < 1e-6, "{cpu_us}");
        assert_eq!(cycle_medians(&[]), (0.0, 0.0));
    }
}
