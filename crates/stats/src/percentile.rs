//! Percentiles over plain samples: one linear-interpolation rule, shared
//! by [`Ecdf::quantile`](crate::Ecdf::quantile), the simulators' reports
//! and the load generator's latency percentiles.

/// Linear-interpolation percentile over a **sorted** slice.
///
/// Uses the "linear" method (NumPy default): rank `h = p/100 * (n-1)`,
/// interpolating between the two nearest order statistics. `p` is clamped
/// to `[0, 100]`.
///
/// # Panics
///
/// Panics if `xs` is empty.
///
/// # Examples
///
/// ```
/// use sitw_stats::percentile_sorted;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
/// assert_eq!(percentile_sorted(&xs, 50.0), 2.5);
/// assert_eq!(percentile_sorted(&xs, 100.0), 4.0);
/// ```
pub fn percentile_sorted(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if xs.len() == 1 {
        return xs[0];
    }
    let h = p / 100.0 * (xs.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        let frac = h - lo as f64;
        xs[lo] * (1.0 - frac) + xs[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 30.0);
        assert_eq!(percentile_sorted(&xs, 50.0), 20.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile_sorted(&xs, 25.0), 2.5);
        assert_eq!(percentile_sorted(&xs, 75.0), 7.5);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_sorted(&[7.0], 33.0), 7.0);
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile_sorted(&xs, -5.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 150.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
