//! Automatic order selection — the crate's `auto_arima`.
//!
//! The paper (§4.2) "used the auto_arima implementation from the pmdarima
//! package, which automatically searches for the ARIMA parameters (p,d,q)
//! that produce the best fit", refitting after every invocation of the
//! rare applications routed to the time-series path. This module
//! reproduces that behaviour: a differencing heuristic picks `d`, then a
//! grid search over `(p, q)` minimizes AIC. The search runs in the
//! thread's `Workspace`: the series is differenced once, each distinct
//! long-AR order is fitted once, and only the winner becomes an
//! [`ArimaFit`] — or, for the policy, just its forecast.

use crate::diff::diff_in_place;
use crate::model::{ArimaError, ArimaFit, ArimaSpec, Workspace, WORKSPACE};

/// Configuration for [`auto_arima`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoArimaConfig {
    /// Largest AR order to consider.
    pub max_p: usize,
    /// Largest differencing order to consider.
    pub max_d: usize,
    /// Largest MA order to consider.
    pub max_q: usize,
}

impl Default for AutoArimaConfig {
    fn default() -> Self {
        // pmdarima defaults are 5/2/5; idle-time series are short, so a
        // tighter grid keeps refit-per-invocation affordable (§5.3 reports
        // 26.9 ms initial / 5.3 ms subsequent in the paper's setup).
        Self {
            max_p: 3,
            max_d: 1,
            max_q: 2,
        }
    }
}

/// Picks the differencing order with successive KPSS tests, as pmdarima's
/// `auto_arima` does: difference while the level-stationarity null is
/// rejected at 5%, up to `max_d`.
///
/// Short series (where KPSS is unreliable) fall back to the classic
/// heuristic: the smallest `d` whose further differencing does not
/// reduce the standard deviation by > 5%.
pub fn select_d(series: &[f64], max_d: usize) -> usize {
    select_d_in(series, max_d, &mut Vec::new())
}

/// [`select_d`], differencing in `scratch`.
// sitw-lint: hot-path
fn select_d_in(series: &[f64], max_d: usize, scratch: &mut Vec<f64>) -> usize {
    scratch.clear();
    scratch.extend_from_slice(series);
    if series.len() < 12 {
        return select_d_variance(series, max_d, scratch);
    }
    let mut d = 0;
    while d < max_d && scratch.len() >= 12 {
        match kpss_statistic(scratch) {
            // 5% critical value for level stationarity.
            Some(stat) if stat > 0.463 => {
                diff_in_place(scratch);
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
// sitw-lint: hot-path
pub fn kpss_statistic(series: &[f64]) -> Option<f64> {
    let n = series.len();
    if n < 4 {
        return None;
    }
    let nf = n as f64;
    let mean = series.iter().sum::<f64>() / nf;
    let e = |t: usize| series[t] - mean;

    // Partial sums S_t.
    let mut s = 0.0;
    let mut sum_s2 = 0.0;
    for t in 0..n {
        s += e(t);
        sum_s2 += s * s;
    }

    // Long-run variance with Bartlett weights, Schwert's short lag rule.
    let lags = (4.0 * (nf / 100.0).powf(0.25)).floor() as usize;
    let mut lrv = (0..n).map(|t| e(t) * e(t)).sum::<f64>() / nf;
    for l in 1..=lags.min(n - 1) {
        let gamma_l: f64 = (l..n).map(|t| e(t) * e(t - l)).sum::<f64>() / nf;
        lrv += 2.0 * (1.0 - l as f64 / (lags as f64 + 1.0)) * gamma_l;
    }
    if lrv <= 1e-12 {
        return None;
    }
    Some(sum_s2 / (nf * nf * lrv))
}

/// [`select_d`]'s variance-minimization fallback, with `diffed` holding
/// `series` and differenced in place.
// sitw-lint: hot-path
fn select_d_variance(series: &[f64], max_d: usize, diffed: &mut Vec<f64>) -> usize {
    let mut best_d = 0;
    let mut best_std = std_of(series);
    for d in 1..=max_d {
        if series.len() <= d + 2 {
            break;
        }
        diff_in_place(diffed);
        let s = std_of(diffed);
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
    WORKSPACE.with_borrow_mut(|ws| ws.auto(series, config).map(|()| ws.kept.clone()))
}

/// `auto_arima(series, config)?.forecast_one()` to the bit, without
/// building the fit: the hybrid policy's next-idle-time prediction. Once
/// the thread has searched a series this long, it allocates nothing.
pub fn auto_forecast_one(series: &[f64], config: AutoArimaConfig) -> Result<f64, ArimaError> {
    WORKSPACE.with_borrow_mut(|ws| ws.auto(series, config).map(|()| ws.kept.forecast_one()))
}

impl Workspace {
    /// [`auto_arima`] into [`Workspace::kept`].
    // sitw-lint: hot-path
    fn auto(&mut self, series: &[f64], config: AutoArimaConfig) -> Result<(), ArimaError> {
        if series.iter().any(|v| !v.is_finite()) {
            return Err(ArimaError::NonFinite);
        }
        let (needed, got) = (3, series.len());
        if got < needed {
            return Err(ArimaError::TooShort { needed, got });
        }

        // Constant series: the mean model is exact; skip the grid.
        if std_of(series) < 1e-12 {
            return self.fit(series, ArimaSpec::new(0, 0, 0));
        }

        let d = select_d_in(series, config.max_d, &mut self.w);
        self.load(series, d);
        // The last error until an order fits, then Ok.
        let mut found = Err(ArimaError::TooShort { needed, got });
        for p in 0..=config.max_p {
            for q in 0..=config.max_q {
                let spec = ArimaSpec::new(p, d, q);
                match self.score(series.len(), spec) {
                    Ok((sigma2, aic)) if found.is_err() || aic < self.kept.aic => {
                        self.keep(spec, sigma2, aic, series.len());
                        found = Ok(());
                    }
                    Err(e) if found.is_err() => found = Err(e),
                    _ => {}
                }
            }
        }
        // If nothing fitted with the selected d (very short series), retry
        // the simplest undifferenced mean model before giving up.
        found.or_else(|e| self.fit(series, ArimaSpec::new(0, 0, 0)).map_err(|_| e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn auto_on_constant_series() {
        let fit = auto_arima(&[120.0; 10], AutoArimaConfig::default()).unwrap();
        assert_eq!(fit.spec(), ArimaSpec::new(0, 0, 0));
        assert!((fit.forecast_one() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn auto_on_trend_picks_differencing() {
        let series: Vec<f64> = (0..40).map(|t| 3.0 * t as f64).collect();
        let fit = auto_arima(&series, AutoArimaConfig::default()).unwrap();
        assert_eq!(fit.spec().d, 1, "trend needs d=1, got {}", fit.spec());
        let fc = fit.forecast_one();
        assert!((fc - 120.0).abs() < 2.0, "forecast {fc}");
    }

    #[test]
    fn auto_on_ar1_prefers_ar_terms() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut prev = 0.0f64;
        let series: Vec<f64> = (0..1500)
            .map(|_| {
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = 0.8 * prev + z;
                prev = v;
                v
            })
            .collect();
        let fit = auto_arima(&series, AutoArimaConfig::default()).unwrap();
        assert!(fit.spec().p >= 1, "expected AR terms, got {}", fit.spec());
        assert_eq!(fit.spec().d, 0);
    }

    #[test]
    fn auto_short_series_still_fits() {
        // 4 observations: only tiny models are possible, but it must work —
        // the policy calls this for rarely-invoked apps.
        let fit = auto_arima(&[250.0, 310.0, 280.0, 295.0], AutoArimaConfig::default()).unwrap();
        let pred = fit.forecast_one();
        assert!(pred.is_finite());
        assert!((200.0..400.0).contains(&pred), "pred {pred}");
    }

    #[test]
    fn auto_rejects_tiny_and_nan() {
        assert!(matches!(
            auto_arima(&[1.0, 2.0], AutoArimaConfig::default()),
            Err(ArimaError::TooShort { .. })
        ));
        assert!(matches!(
            auto_arima(&[1.0, f64::INFINITY, 3.0], AutoArimaConfig::default()),
            Err(ArimaError::NonFinite)
        ));
    }

    #[test]
    fn select_d_levels() {
        // Stationary noise: d = 0.
        let mut rng = StdRng::seed_from_u64(5);
        let noise: Vec<f64> = (0..200).map(|_| rng.random::<f64>()).collect();
        assert_eq!(select_d(&noise, 2), 0);

        // Linear trend: d = 1 (second difference no better).
        let trend: Vec<f64> = (0..200).map(|t| 2.0 * t as f64).collect();
        assert_eq!(select_d(&trend, 2), 1);
    }

    #[test]
    fn select_d_keeps_stationary_ar_undifferenced() {
        // A persistent but stationary AR(1): variance heuristics would
        // over-difference; KPSS must not.
        let mut rng = StdRng::seed_from_u64(8);
        let mut prev = 0.0f64;
        let series: Vec<f64> = (0..800)
            .map(|_| {
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = 0.8 * prev + z;
                prev = v;
                v
            })
            .collect();
        assert_eq!(select_d(&series, 2), 0);
    }

    #[test]
    fn kpss_detects_random_walk() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut acc = 0.0f64;
        let walk: Vec<f64> = (0..500)
            .map(|_| {
                acc += rng.random::<f64>() - 0.5;
                acc
            })
            .collect();
        let stat = kpss_statistic(&walk).unwrap();
        assert!(stat > 0.463, "random walk should reject: {stat}");
    }

    #[test]
    fn kpss_constant_series_is_none() {
        assert!(kpss_statistic(&[5.0; 50]).is_none());
        assert!(kpss_statistic(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn auto_periodic_idle_times() {
        // The paper's motivating case: an app with ~5 h idle times (300
        // minutes) that a 4 h histogram cannot represent. ARIMA must
        // predict ≈ 300 so pre-warming (0.85×) lands before the invocation.
        let mut rng = StdRng::seed_from_u64(77);
        let its: Vec<f64> = (0..30)
            .map(|_| 300.0 + (rng.random::<f64>() - 0.5) * 20.0)
            .collect();
        let fit = auto_arima(&its, AutoArimaConfig::default()).unwrap();
        let pred = fit.forecast_one();
        assert!((pred - 300.0).abs() < 25.0, "pred {pred}");
    }
}
