//! ARIMA(p, d, q) estimation and forecasting.
//!
//! The hybrid policy uses ARIMA to predict the next idle time of
//! applications whose idle times exceed the histogram range (§4.2). The
//! paper used pmdarima's `auto_arima`; this module provides the same
//! functionality from scratch:
//!
//! * estimation by the Hannan–Rissanen two-stage regression (long-AR
//!   residuals, then OLS on lagged values and lagged residuals),
//! * conditional-sum-of-squares residual variance and AIC,
//! * iterative multi-step forecasting with ψ-weight standard errors,
//! * differencing/integration handled transparently.
//!
//! Fits run in a `Workspace`, one per thread, on normal equations
//! summed straight from the differenced series ([`crate::matrix`]); an
//! order search differences once and fits each distinct long-AR order
//! once. Every call loads its series afresh, so one workspace serves
//! every app a thread decides for and no app's state grows by it. Once
//! its buffers have grown to the longest series the thread has fitted,
//! a fit allocates only the [`ArimaFit`] it returns, and
//! [`crate::auto_forecast_one`] nothing.

use std::cell::RefCell;
use std::ops::Range;

use crate::diff::{diff_in_place, integrate};
use crate::matrix::Ols;

/// Model order: the (p, d, q) triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ArimaSpec {
    /// Autoregressive order.
    pub p: usize,
    /// Differencing order.
    pub d: usize,
    /// Moving-average order.
    pub q: usize,
}

impl ArimaSpec {
    /// Creates a spec.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        Self { p, d, q }
    }

    /// Number of estimated coefficients (φ's, θ's and the intercept).
    pub fn num_params(&self) -> usize {
        self.p + self.q + 1
    }
}

impl std::fmt::Display for ArimaSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ARIMA({},{},{})", self.p, self.d, self.q)
    }
}

/// Errors from ARIMA estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArimaError {
    /// The series has too few observations for the requested order.
    TooShort {
        /// Observations required.
        needed: usize,
        /// Observations provided.
        got: usize,
    },
    /// The regression design was singular beyond repair.
    Singular,
    /// The series contains non-finite values.
    NonFinite,
}

impl std::fmt::Display for ArimaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArimaError::TooShort { needed, got } => {
                write!(f, "series too short: need {needed}, got {got}")
            }
            ArimaError::Singular => write!(f, "singular regression design"),
            ArimaError::NonFinite => write!(f, "series contains non-finite values"),
        }
    }
}

impl std::error::Error for ArimaError {}

/// A fitted ARIMA model, retaining what is needed to forecast from the end
/// of the training series.
#[derive(Debug, Clone, Default)]
pub struct ArimaFit {
    pub(crate) spec: ArimaSpec,
    pub(crate) phi: Vec<f64>,
    pub(crate) theta: Vec<f64>,
    pub(crate) intercept: f64,
    pub(crate) sigma2: f64,
    pub(crate) aic: f64,
    /// Trailing values of the differenced series (most recent last).
    pub(crate) w_tail: Vec<f64>,
    /// Trailing residuals (most recent last).
    pub(crate) e_tail: Vec<f64>,
    /// Tails for integrating forecasts back to the original scale.
    pub(crate) int_tails: Vec<f64>,
    pub(crate) n_obs: usize,
}

impl ArimaFit {
    /// The fitted order.
    pub fn spec(&self) -> ArimaSpec {
        self.spec
    }

    /// Autoregressive coefficients (φ₁ … φ_p).
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// Moving-average coefficients (θ₁ … θ_q).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Intercept of the differenced-scale regression.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Residual variance on the differenced scale.
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// Akaike information criterion (lower is better).
    pub fn aic(&self) -> f64 {
        self.aic
    }

    /// Number of original observations used for fitting.
    pub fn n_obs(&self) -> usize {
        self.n_obs
    }

    /// Point forecasts for the next `horizon` steps on the original scale.
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        self.forecast_with_se(horizon)
            .into_iter()
            .map(|(m, _)| m)
            .collect()
    }

    /// Forecasts with standard errors: `(mean, se)` per step.
    ///
    /// Standard errors follow from the ψ-weight expansion of the ARMA part
    /// and are widened through the integration levels, the textbook ARIMA
    /// prediction-variance recursion.
    pub fn forecast_with_se(&self, horizon: usize) -> Vec<(f64, f64)> {
        if horizon == 0 {
            return Vec::new();
        }
        let p = self.spec.p;
        let q = self.spec.q;

        // Iterative mean forecast on the differenced scale.
        let mut w_hist: Vec<f64> = self.w_tail.clone();
        let mut e_hist: Vec<f64> = self.e_tail.clone();
        let mut diffed_forecast = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let v = self.next_mean(&w_hist, &e_hist);
            diffed_forecast.push(v);
            w_hist.push(v);
            e_hist.push(0.0); // Future shocks have zero expectation.
            if w_hist.len() > p + horizon + 1 {
                // Bound history growth; only the last p entries matter.
                let excess = w_hist.len() - (p + horizon + 1);
                w_hist.drain(..excess);
            }
        }

        // ψ weights of the ARMA part: ψ₀ = 1,
        // ψ_k = θ_k + Σ_{i=1..min(k,p)} φ_i ψ_{k−i}.
        let mut psi = vec![0.0; horizon];
        psi[0] = 1.0;
        for k in 1..horizon {
            let mut v = if k <= q { self.theta[k - 1] } else { 0.0 };
            for i in 1..=p.min(k) {
                v += self.phi[i - 1] * psi[k - i];
            }
            psi[k] = v;
        }
        // Integration turns ψ into its cumulative sums, once per level.
        for _ in 0..self.spec.d {
            for k in 1..horizon {
                psi[k] += psi[k - 1];
            }
        }

        let means = integrate(&diffed_forecast, &self.int_tails);
        let mut cum = 0.0;
        means
            .into_iter()
            .zip(psi)
            .map(|(m, ps)| {
                cum += ps * ps;
                (m, (self.sigma2 * cum).sqrt())
            })
            .collect()
    }

    /// The mean recursion's next value on the differenced scale after the
    /// histories `w` and `e`; the intercept alone where it is not finite.
    fn next_mean(&self, w: &[f64], e: &[f64]) -> f64 {
        match arma_mean(self.intercept, &self.phi, &self.theta, w, e) {
            v if v.is_finite() => v,
            _ => self.intercept,
        }
    }

    /// One-step-ahead forecast on the original scale (the policy's "next
    /// idle time" prediction): `forecast(1)[0]`, without allocating.
    // sitw-lint: hot-path
    pub fn forecast_one(&self) -> f64 {
        let v = self.next_mean(&self.w_tail, &self.e_tail);
        self.int_tails.iter().rev().fold(v, |v, &tail| tail + v)
    }
}

/// Fits an ARIMA model of the given order to `series`.
///
/// Estimation is Hannan–Rissanen: when `q > 0`, a long AR regression first
/// produces residual estimates which then join the lagged values in an OLS
/// regression. When `q = 0` this reduces to plain AR-with-intercept OLS;
/// when `p = q = 0`, to the sample mean.
pub fn fit(series: &[f64], spec: ArimaSpec) -> Result<ArimaFit, ArimaError> {
    WORKSPACE.with_borrow_mut(|ws| ws.fit(series, spec).map(|()| ws.kept.clone()))
}

/// `c + Σ φᵢ w[−i] + Σ θⱼ e[−j]`, counting back from the newest value of
/// each history (newest last) as far as it reaches.
fn arma_mean(intercept: f64, phi: &[f64], theta: &[f64], w: &[f64], e: &[f64]) -> f64 {
    let mut v = intercept;
    for (ph, x) in phi.iter().zip(w.iter().rev()) {
        v += ph * x;
    }
    for (th, x) in theta.iter().zip(e.iter().rev()) {
        v += th * x;
    }
    v
}

/// Order of the preliminary long AR regression in Hannan–Rissanen.
fn long_ar_order(n: usize, p: usize, q: usize) -> usize {
    let suggested = ((n as f64).ln().ceil() as usize + p + q).max(p + q + 1);
    suggested.min(n / 3).max(1)
}

thread_local! {
    /// This thread's [`Workspace`].
    pub(crate) static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Everything a fit or an order search writes, reused from call to call
/// on one thread (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// The loaded series, differenced `d` times.
    pub(crate) w: Vec<f64>,
    /// What integrates forecasts of `w` back to the series' scale.
    tails: Vec<f64>,
    /// Long-AR residuals of `w`, `w.len()` for each order in `long_ar`.
    long_resid: Vec<f64>,
    long_ar: Vec<usize>,
    ols: Ols,
    /// Recursive residuals of the candidate last scored.
    resid: Vec<f64>,
    /// The best candidate so far, refilled in place.
    pub(crate) kept: ArimaFit,
}

impl Workspace {
    /// Loads `series` differenced `d` times (a series of `d` values or
    /// fewer leaves `w` empty), forgetting the previous series' long-AR
    /// residuals.
    // sitw-lint: hot-path
    pub(crate) fn load(&mut self, series: &[f64], d: usize) {
        series.clone_into(&mut self.w);
        self.tails.clear();
        for _ in 0..d {
            self.tails.extend(self.w.last());
            diff_in_place(&mut self.w);
        }
        self.long_ar.clear();
        self.long_resid.clear();
    }

    /// [`fit`] into [`Workspace::kept`].
    // sitw-lint: hot-path
    pub(crate) fn fit(&mut self, series: &[f64], spec: ArimaSpec) -> Result<(), ArimaError> {
        if series.iter().any(|v| !v.is_finite()) {
            return Err(ArimaError::NonFinite);
        }
        self.load(series, spec.d);
        let (sigma2, aic) = self.score(series.len(), spec)?;
        self.keep(spec, sigma2, aic, series.len());
        Ok(())
    }

    /// Scores `spec` on the loaded series, which had `len` values before
    /// differencing: the Hannan–Rissanen estimates, then the CSS variance
    /// and AIC of the recursive residuals.
    // sitw-lint: hot-path
    pub(crate) fn score(&mut self, len: usize, spec: ArimaSpec) -> Result<(f64, f64), ArimaError> {
        let ArimaSpec { p, d, q } = spec;
        let needed = d + p + q + 3;
        if len < needed {
            return Err(ArimaError::TooShort { needed, got: len });
        }
        let n = self.w.len();
        // Stage 1 (only for q > 0): long AR to estimate innovations.
        let m = if q > 0 { long_ar_order(n, p, q) } else { 0 };
        // Stage 2: OLS of w_t on [1, w_{t-1..t-p}, e_{t-1..t-q}].
        let start = p.max(q).max(m);
        if n - start < spec.num_params() + 1 {
            let needed = start + spec.num_params() + 1 + d;
            return Err(ArimaError::TooShort { needed, got: len });
        }
        let e = if q > 0 { self.long_ar_resid(m) } else { 0..0 };
        if !self.ols.fit(&self.w, &self.long_resid[e], p, q, start) {
            return Err(ArimaError::Singular);
        }
        let (beta, w) = (&self.ols.beta, &self.w);
        let (phi, theta) = beta[1..].split_at(p);
        // Recompute residuals recursively over the full differenced series
        // so the forecast state is consistent with the final coefficients.
        self.resid.clear();
        for t in 0..n {
            let pred = arma_mean(beta[0], phi, theta, &w[..t], &self.resid);
            self.resid.push(w[t] - pred);
        }

        // CSS variance over the stable region.
        let used = &self.resid[p.max(q)..];
        let n_used = used.len().max(1) as f64;
        let sigma2 = (used.iter().map(|e| e * e).sum::<f64>() / n_used).max(1e-12);
        let k = spec.num_params() as f64;
        Ok((sigma2, n_used * sigma2.ln() + 2.0 * (k + 1.0)))
    }

    /// Where in `long_resid` the residuals of the OLS AR(m) fit of `w`
    /// are, computed once per order per series (zero for the first `m`
    /// values, and everywhere when the regression is singular).
    // sitw-lint: hot-path
    fn long_ar_resid(&mut self, m: usize) -> Range<usize> {
        let n = self.w.len();
        if let Some(slot) = self.long_ar.iter().position(|&order| order == m) {
            return slot * n..(slot + 1) * n;
        }
        let at = self.long_resid.len();
        self.long_ar.push(m);
        self.long_resid.resize(at + n, 0.0);
        if self.ols.fit(&self.w, &[], m, 0, m) {
            let (beta, w) = (&self.ols.beta, &self.w);
            for t in m..n {
                self.long_resid[at + t] = w[t] - arma_mean(beta[0], &beta[1..], &[], &w[..t], &[]);
            }
        }
        at..at + n
    }

    /// Keeps the candidate last scored as the fit of a series of `n_obs`
    /// values.
    // sitw-lint: hot-path
    pub(crate) fn keep(&mut self, spec: ArimaSpec, sigma2: f64, aic: f64, n_obs: usize) {
        let (beta, w, e, kept) = (&self.ols.beta, &self.w, &self.resid, &mut self.kept);
        let (n, p) = (w.len(), spec.p);
        // `clone_into` refills each vector in the buffer it has.
        beta[1..1 + p].clone_into(&mut kept.phi);
        beta[1 + p..].clone_into(&mut kept.theta);
        w[n - p.max(1).min(n)..].clone_into(&mut kept.w_tail);
        e[n - spec.q.max(1).min(n)..].clone_into(&mut kept.e_tail);
        self.tails.clone_into(&mut kept.int_tails);
        (kept.spec, kept.intercept, kept.sigma2, kept.aic) = (spec, beta[0], sigma2, aic);
        kept.n_obs = n_obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gen_ar1(n: usize, phi: f64, c: f64, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        let mut prev = c / (1.0 - phi);
        for _ in 0..n {
            // Box–Muller standard normal.
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = c + phi * prev + noise * z;
            out.push(v);
            prev = v;
        }
        out
    }

    #[test]
    fn ar1_coefficient_recovery() {
        let series = gen_ar1(2000, 0.7, 1.0, 0.5, 42);
        let fit = fit(&series, ArimaSpec::new(1, 0, 0)).unwrap();
        assert!((fit.phi()[0] - 0.7).abs() < 0.05, "phi = {}", fit.phi()[0]);
        // Intercept c such that mean = c / (1 - phi) ≈ 3.33.
        let implied_mean = fit.intercept() / (1.0 - fit.phi()[0]);
        assert!(
            (implied_mean - 1.0 / 0.3).abs() < 0.3,
            "mean {implied_mean}"
        );
    }

    #[test]
    fn mean_only_model() {
        let series = vec![5.0, 5.5, 4.5, 5.0, 5.2, 4.8, 5.0, 5.1];
        let fit = fit(&series, ArimaSpec::new(0, 0, 0)).unwrap();
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!((fit.intercept() - mean).abs() < 1e-9);
        assert!((fit.forecast_one() - mean).abs() < 1e-9);
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let series = vec![300.0; 12];
        let fit = fit(&series, ArimaSpec::new(0, 0, 0)).unwrap();
        assert!((fit.forecast_one() - 300.0).abs() < 1e-9);
        assert!(fit.sigma2() <= 1e-9);
    }

    #[test]
    fn linear_trend_with_d1() {
        // y = 10 + 5t: after one difference the series is constant 5, so
        // an ARIMA(0,1,0) forecast must continue the line.
        let series: Vec<f64> = (0..30).map(|t| 10.0 + 5.0 * t as f64).collect();
        let fit = fit(&series, ArimaSpec::new(0, 1, 0)).unwrap();
        let fc = fit.forecast(3);
        let last = series.last().unwrap();
        assert!((fc[0] - (last + 5.0)).abs() < 1e-6, "fc {fc:?}");
        assert!((fc[2] - (last + 15.0)).abs() < 1e-6);
    }

    #[test]
    fn ma1_recovery_rough() {
        // MA(1): y_t = e_t + 0.6 e_{t-1}.
        let mut rng = StdRng::seed_from_u64(7);
        let mut prev_e = 0.0;
        let mut series = Vec::with_capacity(4000);
        for _ in 0..4000 {
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            let e = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            series.push(e + 0.6 * prev_e);
            prev_e = e;
        }
        let fit = fit(&series, ArimaSpec::new(0, 0, 1)).unwrap();
        assert!(
            (fit.theta()[0] - 0.6).abs() < 0.1,
            "theta = {}",
            fit.theta()[0]
        );
    }

    #[test]
    fn forecast_se_grows_with_horizon() {
        let series = gen_ar1(500, 0.5, 0.0, 1.0, 3);
        let fit = fit(&series, ArimaSpec::new(1, 0, 0)).unwrap();
        let fc = fit.forecast_with_se(5);
        assert_eq!(fc.len(), 5);
        for w in fc.windows(2) {
            assert!(w[1].1 >= w[0].1, "se must be non-decreasing: {fc:?}");
        }
        assert!(fc[0].1 > 0.0);
    }

    #[test]
    fn too_short_series_rejected() {
        let err = fit(&[1.0, 2.0], ArimaSpec::new(1, 0, 0)).unwrap_err();
        assert!(matches!(err, ArimaError::TooShort { .. }));
    }

    #[test]
    fn non_finite_rejected() {
        let err = fit(
            &[1.0, f64::NAN, 2.0, 3.0, 4.0, 5.0],
            ArimaSpec::new(0, 0, 0),
        )
        .unwrap_err();
        assert_eq!(err, ArimaError::NonFinite);
    }

    #[test]
    fn forecast_zero_horizon_is_empty() {
        let series = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let fit = fit(&series, ArimaSpec::new(0, 0, 0)).unwrap();
        assert!(fit.forecast(0).is_empty());
    }

    #[test]
    fn aic_penalizes_overfitting_on_white_noise() {
        let mut rng = StdRng::seed_from_u64(9);
        let series: Vec<f64> = (0..600).map(|_| rng.random::<f64>()).collect();
        let f0 = fit(&series, ArimaSpec::new(0, 0, 0)).unwrap();
        let f3 = fit(&series, ArimaSpec::new(3, 0, 2)).unwrap();
        // White noise: the bigger model cannot beat the mean model by much;
        // with the parameter penalty its AIC should not be dramatically
        // better. Allow slack since AIC estimates differ in sample size.
        assert!(
            f3.aic() > f0.aic() - 10.0,
            "f0 {} f3 {}",
            f0.aic(),
            f3.aic()
        );
    }

    #[test]
    fn display_spec() {
        assert_eq!(ArimaSpec::new(2, 1, 1).to_string(), "ARIMA(2,1,1)");
    }

    #[test]
    fn periodic_idle_times_predicted() {
        // An app invoked every 300 minutes with small jitter: the policy's
        // use case. ARIMA should predict close to 300.
        let mut rng = StdRng::seed_from_u64(21);
        let series: Vec<f64> = (0..40)
            .map(|_| 300.0 + (rng.random::<f64>() - 0.5) * 10.0)
            .collect();
        let fit = fit(&series, ArimaSpec::new(1, 0, 0)).unwrap();
        let pred = fit.forecast_one();
        assert!((pred - 300.0).abs() < 15.0, "pred {pred}");
    }
}
