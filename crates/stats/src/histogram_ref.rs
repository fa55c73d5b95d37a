//! The histogram rebuild [`crate::RangeHistogram::from_parts`] and
//! [`crate::PercentileCursor::seek_pair`] replaced, kept test-only as
//! their reference: the in-bounds total and the squared counts summed in
//! two passes (the squares as an `f64` fold), and each cursor found by
//! its own `f64` walk plus a sum of the bins below it.

/// The in-bounds total and the sum of squared counts, as `from_parts`
/// computed them.
pub(crate) fn sums(bins: &[u32]) -> (u64, f64) {
    let in_bounds = bins.iter().map(|&c| c as u64).sum();
    let sumsq = bins.iter().map(|&c| (c as f64) * (c as f64)).sum();
    (in_bounds, sumsq)
}

/// A cursor's `(fraction, bin, below)` as `seek` found it.
pub(crate) fn seek(bins: &[u32], in_bounds: u64, p: f64) -> (f64, usize, u64) {
    let fraction = if p.is_nan() {
        1.0
    } else {
        p.clamp(0.0, 100.0) / 100.0
    };
    let bin = walk(bins, in_bounds as f64, fraction).unwrap_or(0);
    let below = bins[..bin].iter().map(|&c| c as u64).sum();
    (fraction, bin, below)
}

/// The first non-empty bin at which the `f64` running sum reaches
/// `fraction × total`.
fn walk(bins: &[u32], total: f64, fraction: f64) -> Option<usize> {
    if total <= 0.0 {
        return None;
    }
    let target = fraction * total;
    let mut cum = 0.0;
    let mut last_nonempty = None;
    for (i, &c) in bins.iter().enumerate() {
        let c: f64 = c.into();
        if c > 0.0 {
            cum += c;
            last_nonempty = Some(i);
            if cum >= target {
                return Some(i);
            }
        }
    }
    last_nonempty
}
