//! An online (single-pass, O(1)-memory) mean and variance.
//!
//! The paper cites Welford's algorithm (its reference \[45\]) for the
//! coefficient of variation of histogram bin counts (§4.2). Here the
//! hybrid policy's gate reads that CV from
//! [`RangeHistogram::bin_count_cv`](crate::RangeHistogram::bin_count_cv)'s
//! O(1) sums instead, and [`Welford`] computes the CV of each
//! application's inter-arrival times for the characterization (Figure 6).

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable single-pass computation of the running mean and the
/// sum of squared deviations (`m2`).
///
/// # Examples
///
/// ```
/// use sitw_stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); 0 when fewer than 1 sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation: population std divided by mean.
    ///
    /// Returns 0 for an empty accumulator and `f64::INFINITY` when the mean
    /// is 0 but the variance is not (all-zero data yields 0). This is the
    /// statistic Figure 6 plots per application.
    pub fn cv(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let std = self.population_std();
        if self.mean.abs() < f64::EPSILON {
            if std < f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            std / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.5, 2.5, 2.5, 3.0, 9.25, -4.0, 0.0, 100.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var) = naive_mean_var(&xs);
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.population_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.cv(), 0.0);
    }

    #[test]
    fn welford_single_sample() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.cv(), 0.0);
    }

    #[test]
    fn cv_periodic_is_zero_poisson_is_one_ish() {
        // Periodic arrivals: identical IATs, CV must be exactly 0.
        let mut w = Welford::new();
        for _ in 0..100 {
            w.push(60.0);
        }
        assert_eq!(w.cv(), 0.0);
    }

    #[test]
    fn cv_zero_mean_nonzero_var_is_infinite() {
        let mut w = Welford::new();
        w.push(-1.0);
        w.push(1.0);
        assert!(w.cv().is_infinite());
    }
}
