//! Differencing and integration for the "I" in ARIMA.

/// First difference: `y[t] - y[t-1]`. Output has `len - 1` elements.
pub fn diff_once(series: &[f64]) -> Vec<f64> {
    series.windows(2).map(|w| w[1] - w[0]).collect()
}

/// `d`-th order differencing. Output has `len - d` elements.
///
/// # Panics
///
/// Panics if `series.len() <= d`.
pub fn difference(series: &[f64], d: usize) -> Vec<f64> {
    assert!(series.len() > d, "series too short to difference {d} times");
    let mut out = series.to_vec();
    for _ in 0..d {
        out = diff_once(&out);
    }
    out
}

/// [`diff_once`] in place: `s[t] = s[t+1] - s[t]`, one value shorter.
pub(crate) fn diff_in_place(s: &mut Vec<f64>) {
    for t in 1..s.len() {
        s[t - 1] = s[t] - s[t - 1];
    }
    s.pop();
}

/// The trailing values needed to undo `d` levels of differencing.
///
/// `tails[k]` is the last value of the series differenced `k` times
/// (`k = 0..d`), exactly what [`integrate`] consumes.
///
/// # Panics
///
/// Panics if `series.len() <= d`.
pub fn integration_tails(series: &[f64], d: usize) -> Vec<f64> {
    assert!(series.len() > d, "series too short to difference {d} times");
    let mut tails = Vec::with_capacity(d);
    let mut cur = series.to_vec();
    for _ in 0..d {
        tails.push(*cur.last().unwrap());
        cur = diff_once(&cur);
    }
    tails
}

/// Integrates forecasts of a `d`-differenced series back to the original
/// scale, given the [`integration_tails`] of the training series.
///
/// # Panics
///
/// Panics if `tails.len()` does not match the number of differencing
/// levels implied by the caller (`d = tails.len()` is assumed).
pub fn integrate(forecasts_diffed: &[f64], tails: &[f64]) -> Vec<f64> {
    let mut out = forecasts_diffed.to_vec();
    // Undo differencing innermost-first: tails is ordered outermost-first.
    for &tail in tails.iter().rev() {
        let mut acc = tail;
        for v in out.iter_mut() {
            acc += *v;
            *v = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_once_basic() {
        assert_eq!(diff_once(&[1.0, 4.0, 9.0, 16.0]), vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn difference_zero_is_identity() {
        let s = [5.0, 6.0, 7.0];
        assert_eq!(difference(&s, 0), s.to_vec());
    }

    #[test]
    fn difference_twice_of_quadratic_is_constant() {
        let s: Vec<f64> = (0..8).map(|i| (i * i) as f64).collect();
        let d2 = difference(&s, 2);
        assert!(d2.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn integrate_inverts_difference_d1() {
        let s = [3.0, 7.0, 2.0, 9.0, 9.5];
        let tails = integration_tails(&s, 1);
        // Pretend the future diffed values are known; integration must
        // reproduce a continuation of the original series.
        let future_diffs = [1.0, -2.0, 0.5];
        let levels = integrate(&future_diffs, &tails);
        assert_eq!(levels, vec![10.5, 8.5, 9.0]);
    }

    #[test]
    fn integrate_inverts_difference_d2() {
        // Quadratic series: second difference constant 2.
        let s: Vec<f64> = (0..10).map(|i| (i * i) as f64).collect();
        let tails = integration_tails(&s, 2);
        let future = integrate(&[2.0, 2.0, 2.0], &tails);
        assert_eq!(future, vec![100.0, 121.0, 144.0]);
    }

    #[test]
    fn integrate_with_no_tails_is_identity() {
        assert_eq!(integrate(&[1.0, 2.0], &[]), vec![1.0, 2.0]);
    }

    #[test]
    fn roundtrip_property_small() {
        let s = [10.0, 12.0, 11.0, 15.0, 14.0, 18.0];
        for d in 0..3 {
            let diffed = difference(&s, d);
            let tails = integration_tails(&s, d);
            // Integrating the last diffed value forward by zero steps is a
            // no-op; integrating the *next* diffed value must extend the
            // series consistently: check by re-differencing.
            let extended = integrate(&[diffed.last().copied().unwrap_or(0.0)], &tails);
            assert_eq!(extended.len(), 1);
            let mut full = s.to_vec();
            full.push(extended[0]);
            let rediffed = difference(&full, d);
            assert!((rediffed.last().unwrap() - diffed.last().unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn difference_rejects_short_series() {
        difference(&[1.0], 1);
    }
}
