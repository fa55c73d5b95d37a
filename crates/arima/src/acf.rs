//! Autocorrelation and partial autocorrelation functions.
//!
//! Re-exports the ACF from `sitw-stats` and adds the PACF via the
//! Durbin–Levinson recursion, which doubles as a Yule–Walker AR solver.

pub use sitw_stats::fit::{acf, autocorrelation};

/// Partial autocorrelation function for lags `1..=max_lag` via
/// Durbin–Levinson. Returns an empty vector when the series is too short
/// or has zero variance.
pub fn pacf(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let rho = acf(xs, max_lag);
    // Under two values or zero variance, the ACF is zero at lag 0 too.
    if rho.len() < 2 || rho[0] == 0.0 {
        return Vec::new();
    }
    durbin_levinson(&rho).0
}

/// Durbin–Levinson recursion on an autocorrelation sequence
/// `rho[0..=max_lag]` (with `rho[0] = 1`).
///
/// Returns `(pacf, last_phi)` where `pacf[k-1]` is the partial
/// autocorrelation at lag `k` and `last_phi` are the Yule–Walker AR
/// coefficients of order `max_lag`.
pub fn durbin_levinson(rho: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let max_lag = rho.len().saturating_sub(1);
    let mut pacf_out = Vec::with_capacity(max_lag);
    let mut phi_prev: Vec<f64> = Vec::new();
    let mut v: f64 = 1.0; // Innovation variance ratio.
    for k in 1..=max_lag {
        let mut num = rho[k];
        for (j, &ph) in phi_prev.iter().enumerate() {
            num -= ph * rho[k - 1 - j];
        }
        let alpha = if v.abs() < 1e-12 { 0.0 } else { num / v };
        let mut phi_new = Vec::with_capacity(k);
        for j in 0..k - 1 {
            phi_new.push(phi_prev[j] - alpha * phi_prev[k - 2 - j]);
        }
        phi_new.push(alpha);
        v *= 1.0 - alpha * alpha;
        pacf_out.push(alpha);
        phi_prev = phi_new;
    }
    (pacf_out, phi_prev)
}

/// Yule–Walker estimate of AR(`order`) coefficients from a series.
///
/// Returns `None` when the series is shorter than `order + 2` or
/// degenerate.
pub fn yule_walker(xs: &[f64], order: usize) -> Option<Vec<f64>> {
    if xs.len() < order + 2 || order == 0 {
        return None;
    }
    let rho = acf(xs, order);
    if rho.iter().skip(1).all(|v| *v == 0.0) {
        // Zero variance or pure noise at all lags; AR coefficients are 0.
        return Some(vec![0.0; order]);
    }
    let (_, phi) = durbin_levinson(&rho);
    Some(phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ar1(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prev = 0.0;
        (0..n)
            .map(|_| {
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = phi * prev + z;
                prev = v;
                v
            })
            .collect()
    }

    #[test]
    fn pacf_of_ar1_cuts_off_after_lag_one() {
        let xs = ar1(5000, 0.6, 1);
        let p = pacf(&xs, 5);
        assert!((p[0] - 0.6).abs() < 0.05, "pacf1 {}", p[0]);
        for (i, &v) in p.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.1, "pacf at lag {} = {v}", i + 1);
        }
    }

    #[test]
    fn pacf_is_empty_on_zero_variance_or_short_series() {
        // Regression: `a || b && c` bound as `a || (b && c)`, so a constant
        // series got a PACF of zeros.
        assert!(pacf(&[4.0; 20], 3).is_empty());
        assert!(pacf(&[4.0], 3).is_empty());
        assert!(pacf(&[], 3).is_empty());
        assert!(pacf(&[1.0, 2.0, 4.0], 0).is_empty());
        assert_eq!(pacf(&[1.0, 3.0, 2.0, 5.0], 2).len(), 2);
    }

    #[test]
    fn yule_walker_recovers_ar1() {
        let xs = ar1(5000, -0.4, 2);
        let phi = yule_walker(&xs, 1).unwrap();
        assert!((phi[0] + 0.4).abs() < 0.05, "phi {}", phi[0]);
    }

    #[test]
    fn yule_walker_handles_short_series() {
        assert!(yule_walker(&[1.0, 2.0], 3).is_none());
        assert!(yule_walker(&[1.0, 2.0, 3.0], 0).is_none());
    }

    #[test]
    fn yule_walker_constant_series() {
        let phi = yule_walker(&[4.0; 20], 2).unwrap();
        assert_eq!(phi, vec![0.0, 0.0]);
    }

    #[test]
    fn durbin_levinson_white_noise() {
        // rho = [1, 0, 0]: all pacf zero.
        let (pacf, phi) = durbin_levinson(&[1.0, 0.0, 0.0]);
        assert_eq!(pacf, vec![0.0, 0.0]);
        assert_eq!(phi, vec![0.0, 0.0]);
    }
}
