//! Empirical cumulative distribution functions.
//!
//! Every characterization figure in the paper is a CDF across functions or
//! applications; [`Ecdf`] builds them, evaluates them, extracts quantiles,
//! and emits downsampled point series for plotting or CSV export.

use crate::percentile::percentile_sorted;

/// An empirical CDF over a set of `f64` samples.
///
/// Construction sorts the data once; evaluation is a binary search.
///
/// # Examples
///
/// ```
/// use sitw_stats::Ecdf;
///
/// let e = Ecdf::new(vec![1.0, 2.0, 2.0, 10.0]);
/// assert_eq!(e.eval(0.5), 0.0);
/// assert_eq!(e.eval(2.0), 0.75);
/// assert_eq!(e.eval(100.0), 1.0);
/// assert_eq!(e.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF of empty sample set");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "ECDF samples must not contain NaN"
        );
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted samples.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Fraction of samples `≤ x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements <= x because the
        // slice is sorted.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), linearly interpolated.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q * 100.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// `(x, F(x))` for every sample (staircase upper corners).
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// At most `max_points` evenly spaced (in rank) CDF points — enough to
    /// draw the curve without emitting millions of rows.
    pub fn points_downsampled(&self, max_points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        if n <= max_points || max_points < 2 {
            return self.points();
        }
        let mut out = Vec::with_capacity(max_points);
        for k in 0..max_points {
            let i = k * (n - 1) / (max_points - 1);
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
        }
        out
    }
}

/// A logarithmically spaced grid of `n` points covering `[lo, hi]`,
/// handy for the paper's log-x CDF plots (daily invocation rates span
/// 8 orders of magnitude).
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and `n ≥ 2`.
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(n >= 2, "need at least two grid points");
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// A linearly spaced grid of `n` points covering `[lo, hi]`.
///
/// # Panics
///
/// Panics unless `lo < hi` and `n ≥ 2`.
pub fn linear_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(hi > lo, "need lo < hi");
    assert!(n >= 2, "need at least two grid points");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_step_behavior() {
        let e = Ecdf::new(vec![1.0, 3.0, 3.0, 7.0]);
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.9), 0.25);
        assert_eq!(e.eval(3.0), 0.75);
        assert_eq!(e.eval(7.0), 1.0);
    }

    #[test]
    fn quantile_min_max() {
        let e = Ecdf::new(vec![5.0, 1.0, 9.0]);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 9.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 9.0);
        assert_eq!(e.quantile(0.5), 5.0);
    }

    #[test]
    fn points_are_monotone_and_end_at_one() {
        let e = Ecdf::new(vec![2.0, -1.0, 0.5, 2.0, 8.0]);
        let pts = e.points();
        assert_eq!(pts.len(), 5);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let e = Ecdf::new(samples);
        let pts = e.points_downsampled(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts.last().unwrap().0, 999.0);
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn downsample_noop_when_small() {
        let e = Ecdf::new(vec![1.0, 2.0]);
        assert_eq!(e.points_downsampled(10).len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        Ecdf::new(vec![]);
    }

    #[test]
    fn log_grid_spans_and_is_monotone() {
        let g = log_grid(0.01, 1e6, 9);
        assert_eq!(g.len(), 9);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[8] - 1e6).abs() / 1e6 < 1e-9);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        // Even spacing in log10: each step is one decade.
        assert!((g[1] / g[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn linear_grid_spans() {
        let g = linear_grid(0.0, 10.0, 5);
        assert_eq!(g, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
    }
}
