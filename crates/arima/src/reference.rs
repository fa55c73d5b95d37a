//! The dense-matrix estimation the normal-equation kernel replaced,
//! kept as the reference the property tests drive [`crate::fit`] and
//! [`crate::auto_arima`] against.
//!
//! Everything below is the previous implementation verbatim: each
//! regression builds its design [`Matrix`], transposes it and forms
//! `XᵀX` with `matmul`; every fit re-differences the series and reruns
//! its long-AR regression; `select_d` and the KPSS statistic allocate
//! their intermediate series. It is the definition, not the
//! implementation — the daemon, the simulators and the benchmark all
//! run the kernel, so nothing but these tests can see it drift.

use crate::auto::AutoArimaConfig;
use crate::diff::{difference, integration_tails};
use crate::model::{ArimaError, ArimaFit, ArimaSpec};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    let v = out.get(r, c) + a * other.get(k, c);
                    out.set(r, c, v);
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c) * v[c]).sum())
            .collect()
    }
}

/// Solves the square system `a · x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` when the matrix is (numerically)
/// singular.
///
/// # Panics
///
/// Panics if `a` is not square or `b` has the wrong length.
// The index-based loops mirror the textbook elimination; iterator forms
// obscure the row/column structure.
#[expect(clippy::needless_range_loop)]
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "solve needs a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");
    // Work on an augmented copy.
    let mut m = a.clone();
    let mut x = b.to_vec();

    for col in 0..n {
        // Partial pivot: largest |value| in this column at or below row.
        let mut pivot_row = col;
        let mut pivot_val = m.get(col, col).abs();
        for r in col + 1..n {
            let v = m.get(r, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m.get(col, c);
                m.set(col, c, m.get(pivot_row, c));
                m.set(pivot_row, c, tmp);
            }
            x.swap(col, pivot_row);
        }
        let pivot = m.get(col, col);
        for r in col + 1..n {
            let factor = m.get(r, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m.get(r, c) - factor * m.get(col, c);
                m.set(r, c, v);
            }
            x[r] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in col + 1..n {
            acc -= m.get(col, c) * x[c];
        }
        x[col] = acc / m.get(col, col);
    }
    Some(x)
}

/// Least-squares solution of the overdetermined system `x · beta ≈ y` via
/// the normal equations, with a small ridge retried on singularity.
///
/// Returns `None` only when even the ridge-stabilized system is singular
/// (e.g. an all-zero design matrix).
///
/// # Panics
///
/// Panics if `y.len() != x.rows()`.
pub fn least_squares(x: &Matrix, y: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(y.len(), x.rows(), "rhs length mismatch");
    let xt = x.transpose();
    let xtx = xt.matmul(x);
    let xty = xt.matvec(y);
    if let Some(beta) = solve(&xtx, &xty) {
        return Some(beta);
    }
    // Ridge fallback: X'X + εI with ε scaled to the matrix magnitude.
    let n = xtx.rows();
    let trace: f64 = (0..n).map(|i| xtx.get(i, i)).sum();
    let eps = (trace / n as f64).max(1.0) * 1e-8;
    let mut ridged = xtx;
    for i in 0..n {
        let v = ridged.get(i, i) + eps;
        ridged.set(i, i, v);
    }
    solve(&ridged, &xty)
}

/// Fits an ARIMA model of the given order to `series`.
///
/// Estimation is Hannan–Rissanen: when `q > 0`, a long AR regression first
/// produces residual estimates which then join the lagged values in an OLS
/// regression. When `q = 0` this reduces to plain AR-with-intercept OLS;
/// when `p = q = 0`, to the sample mean.
pub fn fit(series: &[f64], spec: ArimaSpec) -> Result<ArimaFit, ArimaError> {
    if series.iter().any(|v| !v.is_finite()) {
        return Err(ArimaError::NonFinite);
    }
    let min_len = spec.d + spec.p + spec.q + 3;
    if series.len() < min_len {
        return Err(ArimaError::TooShort {
            needed: min_len,
            got: series.len(),
        });
    }

    let w = difference(series, spec.d);
    let n = w.len();
    let (p, q) = (spec.p, spec.q);

    // Stage 1 (only for q > 0): long AR to estimate innovations.
    let prelim_resid: Vec<f64> = if q > 0 {
        let m = long_ar_order(n, p, q);
        ar_residuals(&w, m)
    } else {
        vec![0.0; n]
    };

    // Stage 2: OLS of w_t on [1, w_{t-1..t-p}, e_{t-1..t-q}].
    let start = p.max(q).max(if q > 0 { long_ar_order(n, p, q) } else { 0 });
    let rows = n - start;
    if rows < spec.num_params() + 1 {
        return Err(ArimaError::TooShort {
            needed: start + spec.num_params() + 1 + spec.d,
            got: series.len(),
        });
    }

    let ncols = 1 + p + q;
    let mut x = Matrix::zeros(rows, ncols);
    let mut y = vec![0.0; rows];
    for (r, t) in (start..n).enumerate() {
        x.set(r, 0, 1.0);
        for i in 0..p {
            x.set(r, 1 + i, w[t - 1 - i]);
        }
        for j in 0..q {
            x.set(r, 1 + p + j, prelim_resid[t - 1 - j]);
        }
        y[r] = w[t];
    }
    let beta = least_squares(&x, &y).ok_or(ArimaError::Singular)?;
    let intercept = beta[0];
    let phi = beta[1..1 + p].to_vec();
    let theta = beta[1 + p..].to_vec();

    // Recompute residuals recursively over the full differenced series so
    // the forecast state is consistent with the final coefficients.
    let mut resid = vec![0.0; n];
    for t in 0..n {
        let mut pred = intercept;
        for (i, &ph) in phi.iter().enumerate() {
            if t > i {
                pred += ph * w[t - 1 - i];
            }
        }
        for (j, &th) in theta.iter().enumerate() {
            if t > j {
                pred += th * resid[t - 1 - j];
            }
        }
        resid[t] = w[t] - pred;
    }

    // CSS variance over the stable region.
    let burn = p.max(q);
    let used = &resid[burn..];
    let n_used = used.len().max(1) as f64;
    let sigma2 = (used.iter().map(|e| e * e).sum::<f64>() / n_used).max(1e-12);
    let k = spec.num_params() as f64;
    let aic = n_used * sigma2.ln() + 2.0 * (k + 1.0);

    let w_tail_len = p.max(1).min(w.len());
    let e_tail_len = q.max(1).min(resid.len());
    Ok(ArimaFit {
        spec,
        phi,
        theta,
        intercept,
        sigma2,
        aic,
        w_tail: w[w.len() - w_tail_len..].to_vec(),
        e_tail: resid[resid.len() - e_tail_len..].to_vec(),
        int_tails: integration_tails(series, spec.d),
        n_obs: series.len(),
    })
}

/// Order of the preliminary long AR regression in Hannan–Rissanen.
fn long_ar_order(n: usize, p: usize, q: usize) -> usize {
    let suggested = ((n as f64).ln().ceil() as usize + p + q).max(p + q + 1);
    suggested.min(n / 3).max(1)
}

/// Residuals of an OLS AR(m)-with-intercept fit; the first `m` residuals
/// are zero (no prediction available).
fn ar_residuals(w: &[f64], m: usize) -> Vec<f64> {
    let n = w.len();
    if n <= m + 1 {
        return vec![0.0; n];
    }
    let rows = n - m;
    let mut x = Matrix::zeros(rows, m + 1);
    let mut y = vec![0.0; rows];
    for (r, t) in (m..n).enumerate() {
        x.set(r, 0, 1.0);
        for i in 0..m {
            x.set(r, 1 + i, w[t - 1 - i]);
        }
        y[r] = w[t];
    }
    let Some(beta) = least_squares(&x, &y) else {
        return vec![0.0; n];
    };
    let mut resid = vec![0.0; n];
    for t in m..n {
        let mut pred = beta[0];
        for i in 0..m {
            pred += beta[1 + i] * w[t - 1 - i];
        }
        resid[t] = w[t] - pred;
    }
    resid
}

/// Picks the differencing order with successive KPSS tests, as pmdarima's
/// `auto_arima` does: difference while the level-stationarity null is
/// rejected at 5%, up to `max_d`.
///
/// Short series (where KPSS is unreliable) fall back to the classic
/// variance-minimization heuristic of [`select_d_variance`].
pub fn select_d(series: &[f64], max_d: usize) -> usize {
    if series.len() < 12 {
        return select_d_variance(series, max_d);
    }
    let mut d = 0;
    let mut cur = series.to_vec();
    while d < max_d && cur.len() >= 12 {
        match kpss_statistic(&cur) {
            // 5% critical value for level stationarity.
            Some(stat) if stat > 0.463 => {
                cur = difference(&cur, 1);
                d += 1;
            }
            _ => break,
        }
    }
    d
}

/// KPSS test statistic for level stationarity (Kwiatkowski et al., 1992):
/// `η = n⁻² Σ S_t² / σ̂²_lr` with a Bartlett-window long-run variance.
///
/// Returns `None` for series shorter than 4 points or with zero long-run
/// variance (a constant series is trivially stationary).
pub fn kpss_statistic(series: &[f64]) -> Option<f64> {
    let n = series.len();
    if n < 4 {
        return None;
    }
    let nf = n as f64;
    let mean = series.iter().sum::<f64>() / nf;
    let e: Vec<f64> = series.iter().map(|x| x - mean).collect();

    // Partial sums S_t.
    let mut s = 0.0;
    let mut sum_s2 = 0.0;
    for &v in &e {
        s += v;
        sum_s2 += s * s;
    }

    // Long-run variance with Bartlett weights, Schwert's short lag rule.
    let lags = (4.0 * (nf / 100.0).powf(0.25)).floor() as usize;
    let gamma0: f64 = e.iter().map(|v| v * v).sum::<f64>() / nf;
    let mut lrv = gamma0;
    for l in 1..=lags.min(n - 1) {
        let gamma_l: f64 = (l..n).map(|t| e[t] * e[t - l]).sum::<f64>() / nf;
        lrv += 2.0 * (1.0 - l as f64 / (lags as f64 + 1.0)) * gamma_l;
    }
    if lrv <= 1e-12 {
        return None;
    }
    Some(sum_s2 / (nf * nf * lrv))
}

/// Variance-minimization fallback for choosing `d`: the smallest `d` whose
/// further differencing does not reduce the standard deviation by > 5%.
pub fn select_d_variance(series: &[f64], max_d: usize) -> usize {
    let mut best_d = 0;
    let mut best_std = std_of(series);
    for d in 1..=max_d {
        if series.len() <= d + 2 {
            break;
        }
        let s = std_of(&difference(series, d));
        if s < best_std * 0.95 {
            best_d = d;
            best_std = s;
        }
    }
    best_d
}

fn std_of(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt()
}

/// Fits the AIC-best ARIMA model within the configured order grid.
///
/// Orders whose estimation fails (series too short for the larger lags,
/// singular designs) are skipped; the search fails only when *no* order
/// can be fitted — in particular, `ARIMA(0,0,0)` (the mean model) fits any
/// series of length ≥ 3, so `auto_arima` succeeds on anything the policy
/// will realistically hand it.
pub fn auto_arima(series: &[f64], config: AutoArimaConfig) -> Result<ArimaFit, ArimaError> {
    if series.iter().any(|v| !v.is_finite()) {
        return Err(ArimaError::NonFinite);
    }
    if series.len() < 3 {
        return Err(ArimaError::TooShort {
            needed: 3,
            got: series.len(),
        });
    }

    // Constant series: the mean model is exact; skip the grid.
    if std_of(series) < 1e-12 {
        return fit(series, ArimaSpec::new(0, 0, 0));
    }

    let d = select_d(series, config.max_d);
    let mut best: Option<ArimaFit> = None;
    let mut last_err = ArimaError::TooShort {
        needed: 3,
        got: series.len(),
    };
    for p in 0..=config.max_p {
        for q in 0..=config.max_q {
            match fit(series, ArimaSpec::new(p, d, q)) {
                Ok(candidate) => {
                    let better = match &best {
                        None => true,
                        Some(b) => candidate.aic() < b.aic(),
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
                Err(e) => last_err = e,
            }
        }
    }
    // If nothing fitted with the selected d (very short series), retry the
    // simplest undifferenced mean model before giving up.
    match best {
        Some(b) => Ok(b),
        None => fit(series, ArimaSpec::new(0, 0, 0)).map_err(|_| last_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A splitmix64 step: the generators' only source of randomness.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (mix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One series of 0–80 values, its shape drawn from `bits`.
    fn series(bits: u64) -> Vec<f64> {
        let mut state = bits;
        let len = (mix(&mut state) % 81) as usize;
        let shape = mix(&mut state) % 9;
        let period = 2 + (mix(&mut state) % 4) as usize;
        let base = 240.0 + unit(&mut state) * 300.0;
        let mut level = base;
        (0..len)
            .map(|t| {
                let u = unit(&mut state);
                match shape {
                    // Idle minutes past the 4 h histogram, jittered.
                    0 => base + (u - 0.5) * 40.0,
                    // Minutes as the policy records them: whole
                    // milliseconds over 60 000.
                    1 => ((base * 60_000.0) as u64 + mix(&mut state) % 600_000) as f64 / 60_000.0,
                    // Constant runs: a few levels, each held for a while.
                    2 => base.floor() + ((t / period) % 3) as f64 * 60.0,
                    // A trend, which KPSS differences (d = 1).
                    3 => base + 7.5 * t as f64 + (u - 0.5) * 3.0,
                    // A repeating pattern of small integers: exactly
                    // collinear lags, singular normal equations, the ridge.
                    4 => [1.0, 2.0, 0.0, 5.0, 3.0][t % period],
                    // A random walk.
                    5 => {
                        level += (u - 0.5) * 30.0;
                        level
                    }
                    // A constant series: the mean model, no grid.
                    6 => base,
                    // Finite values whose differences and products
                    // overflow.
                    7 => f64::MAX * (u - 0.5),
                    // A non-finite value now and then: the error path.
                    _ if u < 0.05 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][t % 3],
                    _ => base + u,
                }
            })
            .collect()
    }

    /// `v`'s bits, with every NaN as one: the language leaves a NaN's
    /// sign and payload unspecified (an optimiser may commute the
    /// operands that pick them), and no comparison reads them.
    fn bits_of(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Everything a fit holds and forecasts, as bits.
    fn bits(fit: &Result<ArimaFit, ArimaError>) -> Result<(ArimaSpec, Vec<u64>), ArimaError> {
        let fit = fit.as_ref().map_err(Clone::clone)?;
        let forecast = fit
            .forecast_with_se(3)
            .into_iter()
            .flat_map(|(m, se)| [m, se]);
        let values = [fit.intercept, fit.sigma2, fit.aic, fit.n_obs as f64]
            .into_iter()
            .chain(fit.phi.iter().copied())
            .chain(fit.theta.iter().copied())
            .chain(fit.w_tail.iter().copied())
            .chain(fit.e_tail.iter().copied())
            .chain(fit.int_tails.iter().copied())
            .chain(forecast);
        Ok((fit.spec, values.map(bits_of).collect()))
    }

    proptest! {
        /// `auto_arima`, its forecast-only twin and the order selection
        /// equal the dense-matrix reference to the bit, on sequences of
        /// series of every shape and length run through one thread's
        /// workspace — so each search starts on buffers an earlier,
        /// longer or shorter, series left behind — under the default
        /// grid and under random ones.
        #[test]
        fn auto_arima_equals_the_matrix_reference(
            seeds in prop::collection::vec(0u64..u64::MAX, 1..12),
            grid in 0u64..u64::MAX,
        ) {
            let config = if grid % 3 == 0 {
                AutoArimaConfig {
                    max_p: (grid >> 8) as usize % 5,
                    max_d: (grid >> 16) as usize % 3,
                    max_q: (grid >> 24) as usize % 4,
                }
            } else {
                AutoArimaConfig::default()
            };
            for seed in seeds {
                let s = series(seed);
                let want = auto_arima(&s, config);
                let got = bits(&crate::auto_arima(&s, config));
                prop_assert!(got == bits(&want), "{got:?} != {:?} on {s:?}", bits(&want));
                prop_assert_eq!(
                    crate::auto_forecast_one(&s, config).map(bits_of),
                    want.map(|f| bits_of(f.forecast(1)[0]))
                );
                prop_assert_eq!(
                    crate::auto::kpss_statistic(&s).map(bits_of),
                    kpss_statistic(&s).map(bits_of)
                );
                for max_d in 0..3 {
                    prop_assert_eq!(crate::select_d(&s, max_d), select_d(&s, max_d));
                }
            }
        }

        /// `fit` equals the reference at every (p, d, q) of the default
        /// grid and one level of differencing past it.
        #[test]
        fn fit_equals_the_matrix_reference(
            seeds in prop::collection::vec(0u64..u64::MAX, 1..6),
        ) {
            for seed in seeds {
                let s = series(seed);
                for p in 0..=3 {
                    for d in 0..=2 {
                        for q in 0..=2 {
                            let spec = ArimaSpec::new(p, d, q);
                            let (got, want) = (bits(&crate::fit(&s, spec)), bits(&fit(&s, spec)));
                            prop_assert!(got == want, "{spec}: {got:?} != {want:?} on {s:?}");
                        }
                    }
                }
            }
        }
    }
}
