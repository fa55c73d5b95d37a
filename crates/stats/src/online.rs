//! Online (single-pass, O(1)-memory) statistical accumulators.
//!
//! The paper cites Welford's algorithm (its reference \[45\]) for tracking the coefficient of
//! variation of histogram bin counts efficiently (§4.2). The same
//! accumulator is used throughout the workload characterization to compute
//! the CV of per-application inter-arrival times (Figure 6).

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable single-pass computation of the running mean and the
/// sum of squared deviations (`m2`). Supports merging two accumulators
/// (Chan et al.'s parallel variant), which the simulator uses when
/// aggregating per-thread results.
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

    /// Sample variance (divides by `n - 1`); 0 when fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0)
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
    /// statistic Figure 6 plots per application and the representativeness
    /// gate of the hybrid policy computes over bin counts.
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

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let total_f = total as f64;
        self.m2 += other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total_f;
        self.mean += delta * other.count as f64 / total_f;
        self.count = total;
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Streaming minimum / maximum / mean / count over `f64` observations.
///
/// Mirrors the shape of the Azure trace's per-window execution-time and
/// memory records (§3.1: "average, minimum, maximum, and count of samples").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMaxMean {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for MinMaxMean {
    fn default() -> Self {
        Self {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl MinMaxMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds `count` observations whose sum/min/max are given (aggregated
    /// window record, as in the trace schema).
    pub fn push_window(&mut self, count: u64, sum: f64, min: f64, max: f64) {
        if count == 0 {
            return;
        }
        self.count += count;
        self.sum += sum;
        if min < self.min {
            self.min = min;
        }
        if max > self.max {
            self.max = max;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MinMaxMean) {
        if other.count == 0 {
            return;
        }
        self.push_window(other.count, other.sum, other.min, other.max);
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
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.cv(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let (a, b) = xs.split_at(3);
        let mut wa = Welford::new();
        let mut wb = Welford::new();
        for &x in a {
            wa.push(x);
        }
        for &x in b {
            wb.push(x);
        }
        wa.merge(&wb);

        let mut seq = Welford::new();
        for &x in &xs {
            seq.push(x);
        }
        assert!((wa.mean() - seq.mean()).abs() < 1e-12);
        assert!((wa.population_variance() - seq.population_variance()).abs() < 1e-12);
        assert_eq!(wa.count(), seq.count());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(2.0);
        let snapshot = w;
        w.merge(&Welford::new());
        assert_eq!(w, snapshot);

        let mut empty = Welford::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
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

    #[test]
    fn minmaxmean_basic() {
        let mut m = MinMaxMean::new();
        assert!(m.min().is_none());
        m.push(3.0);
        m.push(-1.0);
        m.push(10.0);
        assert_eq!(m.min(), Some(-1.0));
        assert_eq!(m.max(), Some(10.0));
        assert_eq!(m.mean(), Some(4.0));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn minmaxmean_window_merge() {
        let mut a = MinMaxMean::new();
        a.push_window(45, 4500.0, 80.0, 130.0);
        let mut b = MinMaxMean::new();
        b.push(60.0);
        a.merge(&b);
        assert_eq!(a.count(), 46);
        assert_eq!(a.min(), Some(60.0));
        assert_eq!(a.max(), Some(130.0));
        assert!((a.mean().unwrap() - 4560.0 / 46.0).abs() < 1e-12);
    }
}
