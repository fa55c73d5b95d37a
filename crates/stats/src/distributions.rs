//! Continuous distributions used by the workload model.
//!
//! The paper publishes two parametric fits the generator must reproduce:
//!
//! * Function execution times: log-normal with log-mean −0.38 and σ 2.36
//!   (Figure 7, time in seconds);
//! * Per-application allocated memory: Burr XII with c = 11.652,
//!   k = 0.221, λ = 107.083 (Figure 8, memory in MB).
//!
//! All distributions implement [`ContinuousDist`] with analytic CDFs and
//! quantile functions, so sampling is inverse-transform from a caller-owned
//! RNG — deterministic given a seed and independent of `rand`'s own
//! distribution machinery.

use rand::Rng;

/// A continuous distribution with analytic pdf/cdf/quantile and
/// inverse-transform sampling.
pub trait ContinuousDist {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Inverse CDF: the value at cumulative probability `q ∈ [0, 1]`.
    fn quantile(&self, q: f64) -> f64;

    /// Draws one sample by inverse transform.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `random::<f64>` is uniform on [0, 1); nudge away from exact 0
        // where some quantile functions are -inf.
        let u = rng.random::<f64>().max(f64::MIN_POSITIVE);
        self.quantile(u)
    }

    /// Draws `n` samples.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max abs error
/// 1.5e-7), sufficient for CDF evaluation and goodness-of-fit checks.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile (Acklam's rational approximation, relative
/// error below 1.15e-9 — more than enough for inverse-transform sampling).
pub fn std_normal_quantile(q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile needs q in [0,1]");
    if q == 0.0 {
        return f64::NEG_INFINITY;
    }
    if q == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if q < P_LOW {
        let r = (-2.0 * q.ln()).sqrt();
        (((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0)
    } else if q <= 1.0 - P_LOW {
        let r = q - 0.5;
        let s = r * r;
        (((((A[0] * s + A[1]) * s + A[2]) * s + A[3]) * s + A[4]) * s + A[5]) * r
            / (((((B[0] * s + B[1]) * s + B[2]) * s + B[3]) * s + B[4]) * s + 1.0)
    } else {
        let r = (-2.0 * (1.0 - q).ln()).sqrt();
        -(((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0)
    }
}

/// Log-normal distribution: `ln X ~ N(mu, sigma²)`.
///
/// The paper's execution-time fit is `LogNormal { mu: -0.38, sigma: 2.36 }`
/// with `X` in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Standard deviation of `ln X` (must be positive).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0` and both parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite() && mu.is_finite());
        Self { mu, sigma }
    }

    /// The paper's MLE fit for average function execution times, in
    /// seconds (Figure 7).
    pub fn execution_time_fit() -> Self {
        Self::new(-0.38, 2.36)
    }

    /// Median of the distribution (`e^mu`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl ContinuousDist for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        std_normal_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * std_normal_quantile(q)).exp()
    }
}

/// Burr XII distribution with scale λ:
/// `F(x) = 1 − (1 + (x/λ)^c)^(−k)`.
///
/// The paper's fit for average allocated memory per application is
/// `Burr { c: 11.652, k: 0.221, lambda: 107.083 }` with `X` in MB
/// (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burr {
    /// First shape parameter (c > 0).
    pub c: f64,
    /// Second shape parameter (k > 0).
    pub k: f64,
    /// Scale parameter (λ > 0).
    pub lambda: f64,
}

impl Burr {
    /// Creates a Burr XII distribution.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are positive and finite.
    pub fn new(c: f64, k: f64, lambda: f64) -> Self {
        assert!(c > 0.0 && k > 0.0 && lambda > 0.0);
        assert!(c.is_finite() && k.is_finite() && lambda.is_finite());
        Self { c, k, lambda }
    }

    /// The paper's fit for average allocated memory per application, in MB
    /// (Figure 8).
    pub fn memory_fit() -> Self {
        Self::new(11.652, 0.221, 107.083)
    }
}

impl ContinuousDist for Burr {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let r = x / self.lambda;
        let rc = r.powf(self.c);
        self.c * self.k / self.lambda * r.powf(self.c - 1.0) * (1.0 + rc).powf(-self.k - 1.0)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        1.0 - (1.0 + (x / self.lambda).powf(self.c)).powf(-self.k)
    }

    fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if q == 0.0 {
            return 0.0;
        }
        if q == 1.0 {
            return f64::INFINITY;
        }
        self.lambda * ((1.0 - q).powf(-1.0 / self.k) - 1.0).powf(1.0 / self.c)
    }
}

/// A distribution specified by its quantile function at a set of anchor
/// points, interpolated **linearly in log10 of the value**.
///
/// This is how the synthetic workload reproduces the paper's published
/// quantile anchors directly — e.g. Figure 5(a): 45% of applications are
/// invoked at most once per hour (24/day) and 81% at most once per minute
/// (1440/day), over a total range of 8 orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLogQuantile {
    anchors: Vec<(f64, f64)>,
}

impl PiecewiseLogQuantile {
    /// Creates the distribution from `(cumulative_fraction, value)` anchor
    /// points.
    ///
    /// # Panics
    ///
    /// Panics unless there are ≥ 2 anchors, fractions start at 0 and end
    /// at 1 and strictly increase, and values are positive and
    /// non-decreasing.
    pub fn new(anchors: Vec<(f64, f64)>) -> Self {
        assert!(anchors.len() >= 2, "need at least two anchors");
        assert_eq!(anchors[0].0, 0.0, "first anchor must be at q=0");
        assert_eq!(anchors.last().unwrap().0, 1.0, "last anchor must be at q=1");
        for w in anchors.windows(2) {
            assert!(w[0].0 < w[1].0, "anchor fractions must strictly increase");
            assert!(w[0].1 <= w[1].1, "anchor values must be non-decreasing");
        }
        assert!(anchors.iter().all(|&(_, v)| v > 0.0 && v.is_finite()));
        Self { anchors }
    }

    /// The anchor points.
    pub fn anchors(&self) -> &[(f64, f64)] {
        &self.anchors
    }
}

impl ContinuousDist for PiecewiseLogQuantile {
    // The distribution is quantile-defined; the density is the numerical
    // derivative of the CDF (central difference, step scaled to x).
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let h = (x * 1e-6).max(1e-12);
        ((self.cdf(x + h) - self.cdf(x - h)) / (2.0 * h)).max(0.0)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.anchors[0].1 {
            return 0.0;
        }
        if x >= self.anchors.last().unwrap().1 {
            return 1.0;
        }
        let lx = x.log10();
        for w in self.anchors.windows(2) {
            let (q0, v0) = w[0];
            let (q1, v1) = w[1];
            if x >= v0 && x <= v1 {
                if v1 == v0 {
                    return q1;
                }
                let t = (lx - v0.log10()) / (v1.log10() - v0.log10());
                return q0 + t * (q1 - q0);
            }
        }
        1.0
    }

    fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        for w in self.anchors.windows(2) {
            let (q0, v0) = w[0];
            let (q1, v1) = w[1];
            if q >= q0 && q <= q1 {
                let t = if q1 == q0 { 0.0 } else { (q - q0) / (q1 - q0) };
                let lv = v0.log10() + t * (v1.log10() - v0.log10());
                return 10f64.powf(lv);
            }
        }
        self.anchors.last().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_quantile_roundtrip<D: ContinuousDist>(d: &D, qs: &[f64], tol: f64) {
        for &q in qs {
            let x = d.quantile(q);
            let back = d.cdf(x);
            assert!(
                (back - q).abs() < tol,
                "cdf(quantile({q})) = {back}, expected {q}"
            );
        }
    }

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 polynomial has ~1e-9 residual at 0.
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn std_normal_quantile_inverts_cdf() {
        for q in [0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999] {
            let x = std_normal_quantile(q);
            assert!((std_normal_cdf(x) - q).abs() < 1e-6, "q={q}");
        }
        assert_eq!(std_normal_quantile(0.5), 0.0);
    }

    #[test]
    fn lognormal_paper_fit_median_below_one_second() {
        // §3.4: "50% of the functions execute for less than 1s on average".
        let d = LogNormal::execution_time_fit();
        assert!(d.median() < 1.0);
        assert!((d.cdf(1.0) - 0.5).abs() < 0.1);
        check_quantile_roundtrip(&d, &[0.01, 0.1, 0.5, 0.9, 0.99], 1e-6);
    }

    #[test]
    fn burr_paper_fit_shape() {
        // Figure 8: 50% of applications allocate at most ~170MB and 90%
        // stay below ~400MB; the Burr fit should be in that ballpark.
        let d = Burr::memory_fit();
        let median = d.quantile(0.5);
        assert!(
            (100.0..250.0).contains(&median),
            "median memory {median} MB"
        );
        let p90 = d.quantile(0.9);
        assert!((150.0..600.0).contains(&p90), "p90 memory {p90} MB");
        check_quantile_roundtrip(&d, &[0.05, 0.25, 0.5, 0.75, 0.95], 1e-9);
    }

    #[test]
    fn piecewise_log_quantile_hits_anchors() {
        // Figure 5(a) anchors for applications (invocations per day).
        let d = PiecewiseLogQuantile::new(vec![
            (0.0, 0.05),
            (0.45, 24.0),
            (0.81, 1440.0),
            (0.96, 1e5),
            (1.0, 5e6),
        ]);
        assert!((d.quantile(0.45) - 24.0).abs() < 1e-9);
        assert!((d.quantile(0.81) - 1440.0).abs() < 1e-9);
        assert!((d.cdf(24.0) - 0.45).abs() < 1e-9);
        assert!((d.cdf(1440.0) - 0.81).abs() < 1e-9);
        // 8 orders of magnitude end to end.
        assert!(d.quantile(1.0) / d.quantile(0.0) >= 1e7);
    }

    #[test]
    fn piecewise_log_quantile_pdf_integrates_cdf() {
        let d = PiecewiseLogQuantile::new(vec![(0.0, 1.0), (0.5, 10.0), (1.0, 1000.0)]);
        // Riemann sum of the numerical pdf over the support ≈ 1.
        let grid = crate::ecdf::log_grid(1.0, 1000.0, 4000);
        let mut integral = 0.0;
        for w in grid.windows(2) {
            integral += d.pdf(0.5 * (w[0] + w[1])) * (w[1] - w[0]);
        }
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
        assert_eq!(d.pdf(0.0), 0.0);
    }

    #[test]
    fn piecewise_log_quantile_monotone() {
        let d = PiecewiseLogQuantile::new(vec![(0.0, 1.0), (0.5, 10.0), (1.0, 1000.0)]);
        let mut prev = 0.0;
        for i in 0..=100 {
            let v = d.quantile(i as f64 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn sampling_respects_seed_determinism() {
        let d = LogNormal::execution_time_fit();
        let a = d.sample_n(&mut StdRng::seed_from_u64(99), 16);
        let b = d.sample_n(&mut StdRng::seed_from_u64(99), 16);
        assert_eq!(a, b);
    }
}
