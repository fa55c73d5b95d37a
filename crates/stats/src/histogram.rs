//! Range-limited fixed-width histograms.
//!
//! [`RangeHistogram`] is the centerpiece data structure of the paper's
//! hybrid policy (§4.2): a compact array of integer counts over fixed-width
//! bins (1 minute in the paper) up to a configurable range (4 hours ⇒ 240
//! bins ⇒ 960 bytes, §6). Values beyond the range are *out of bounds*
//! (OOB) and only counted, not binned. The structure supports:
//!
//! * O(1) recording,
//! * O(1) coefficient-of-variation of the bin counts (the
//!   representativeness signal of §4.2), via an incrementally maintained
//!   sum of squared counts,
//! * head/tail percentile extraction with the paper's rounding rule
//!   ("round to the next lower value for the head or the next higher value
//!   for the tail"): [`RangeHistogram::percentile_bin`] is the stateless
//!   definition, one walk from bin 0,
//! * O(1) percentile *maintenance*: a [`PercentileCursor`] follows one
//!   percentile of one histogram from record to record and always reads
//!   what the walk would return (see below),
//! * merging and weighted aggregation ([`WeightedBins`]) for the
//!   production-style daily histogram scheme of §6.
//!
//! # Percentile cursors
//!
//! The walk defines the `p`-th percentile bin as the first non-empty bin
//! `i` whose cumulative count `Σ bins[..=i]` reaches
//! `target = p/100 × in_bounds`. A cursor keeps that bin and
//! `below = Σ bins[..bin]`; its invariant is
//! `cursor.bin(&hist) == hist.percentile_bin(p)`. One record moves
//! `target` by at most one count and `below` by at most one, so
//! restoring the invariant is a step to a neighbouring non-empty bin or
//! no step at all — the cost is the number of bins crossed, which on the
//! concentrated distributions the policy acts on is almost always zero
//! and is never more than the one walk it replaces.
//!
//! It is *exact*, not approximate, because the bins are integers: the
//! histogram keeps `in_bounds == Σ bins` (a record into a bin already at
//! `u32::MAX` is refused rather than half-counted), every partial sum
//! is far below 2⁵³, so `below as f64` is the very value the walk
//! accumulates in `f64`, `target` is computed by the walk's own
//! expression, and each comparison the cursor makes is one the walk
//! makes. [`WeightedBins`] cannot have such a cursor: its partial sums
//! are rounded `f64` additions whose value depends on the order they
//! were made in, so a sum maintained incrementally is not bit-equal to
//! the sum a walk forms from bin 0 — which is why the production policy
//! keeps its one-walk [`WeightedBins::head_tail_plus`] instead.

/// Outcome of recording a value into a [`RangeHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded {
    /// The value fell into the bin with the given index.
    InBounds {
        /// Index of the bin that received the value.
        bin: usize,
    },
    /// The value was at or beyond the histogram range.
    OutOfBounds,
    /// The value's bin already holds `u32::MAX`: nothing was recorded,
    /// so the totals stay equal to what the bins hold.
    Saturated,
}

/// A fixed-width histogram over `u64` values with a bounded range.
///
/// Bin `i` covers the half-open interval `[i*w, (i+1)*w)` where `w` is the
/// bin width; values `≥ num_bins * w` are counted as out of bounds.
///
/// # Examples
///
/// ```
/// use sitw_stats::{RangeHistogram, Recorded};
///
/// // The paper's production configuration: 240 one-minute bins.
/// let mut h = RangeHistogram::new(240, 1);
/// assert_eq!(h.record(5), Recorded::InBounds { bin: 5 });
/// assert_eq!(h.record(239), Recorded::InBounds { bin: 239 });
/// assert_eq!(h.record(240), Recorded::OutOfBounds);
/// assert_eq!(h.in_bounds_count(), 2);
/// assert_eq!(h.oob_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RangeHistogram {
    bin_width: u64,
    bins: Vec<u32>,
    /// Sum of the bin counts. Invariant: `in_bounds == Σ bins` —
    /// [`PercentileCursor`] and `from_parts` round trips rely on it.
    in_bounds: u64,
    oob: u64,
    /// Sum of squared bin counts, maintained incrementally so the CV of the
    /// bin counts is O(1) to read.
    sumsq: f64,
}

impl RangeHistogram {
    /// Creates a histogram with `num_bins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `num_bins` or `bin_width` is zero.
    pub fn new(num_bins: usize, bin_width: u64) -> Self {
        assert!(num_bins > 0, "histogram needs at least one bin");
        assert!(bin_width > 0, "bin width must be positive");
        Self {
            bin_width,
            bins: vec![0; num_bins],
            in_bounds: 0,
            oob: 0,
            sumsq: 0.0,
        }
    }

    /// Reconstructs a histogram from raw counts (the inverse of reading
    /// [`RangeHistogram::bins`] and [`RangeHistogram::oob_count`]), used
    /// by snapshot/restore paths. The derived fields (in-bounds total,
    /// sum of squared counts) are recomputed, so a round trip through
    /// `from_parts(h.bin_width(), h.bins().to_vec(), h.oob_count())`
    /// yields a histogram equal to `h`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is empty or `bin_width` is zero.
    pub fn from_parts(bin_width: u64, bins: Vec<u32>, oob: u64) -> Self {
        assert!(!bins.is_empty(), "histogram needs at least one bin");
        assert!(bin_width > 0, "bin width must be positive");
        let in_bounds = bins.iter().map(|&c| c as u64).sum();
        let sumsq = bins.iter().map(|&c| (c as f64) * (c as f64)).sum();
        Self {
            bin_width,
            bins,
            in_bounds,
            oob,
            sumsq,
        }
    }

    /// Bin width in value units.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Exclusive upper bound of representable values
    /// (`num_bins * bin_width`).
    pub fn range(&self) -> u64 {
        self.bins.len() as u64 * self.bin_width
    }

    /// Records a value, returning where it landed. A value whose bin is
    /// full changes nothing.
    pub fn record(&mut self, value: u64) -> Recorded {
        let bin = (value / self.bin_width) as usize;
        if bin < self.bins.len() {
            let c = self.bins[bin];
            if c == u32::MAX {
                return Recorded::Saturated;
            }
            self.bins[bin] = c + 1;
            self.in_bounds += 1;
            self.sumsq += 2.0 * c as f64 + 1.0;
            Recorded::InBounds { bin }
        } else {
            self.oob += 1;
            Recorded::OutOfBounds
        }
    }

    /// The raw bin counts.
    pub fn bins(&self) -> &[u32] {
        &self.bins
    }

    /// Count held by bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bin_count(&self, idx: usize) -> u32 {
        self.bins[idx]
    }

    /// Number of in-bounds recordings.
    pub fn in_bounds_count(&self) -> u64 {
        self.in_bounds
    }

    /// Number of out-of-bounds recordings.
    pub fn oob_count(&self) -> u64 {
        self.oob
    }

    /// Total recordings, in-bounds plus out-of-bounds.
    pub fn total_count(&self) -> u64 {
        self.in_bounds + self.oob
    }

    /// Fraction of recordings that were out of bounds (0 when empty).
    pub fn oob_fraction(&self) -> f64 {
        let total = self.total_count();
        if total == 0 {
            0.0
        } else {
            self.oob as f64 / total as f64
        }
    }

    /// True when nothing has been recorded (in-bounds or out).
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0
    }

    /// Coefficient of variation of the bin counts.
    ///
    /// A histogram concentrated in few bins has a high CV; a flat histogram
    /// has CV 0. The hybrid policy treats the histogram as representative
    /// only when this exceeds a threshold (§4.2, Figure 18). O(1).
    pub fn bin_count_cv(&self) -> f64 {
        if self.in_bounds == 0 {
            return 0.0;
        }
        let n = self.bins.len() as f64;
        let mean = self.in_bounds as f64 / n;
        let var = (self.sumsq / n - mean * mean).max(0.0);
        var.sqrt() / mean
    }

    /// Lower edge of the bin containing the in-bounds `p`-th percentile,
    /// i.e. the percentile "rounded to the next lower value" (used for the
    /// head of the idle-time distribution / the pre-warming window).
    ///
    /// Returns `None` when no in-bounds values exist.
    pub fn head_value(&self, p: f64) -> Option<u64> {
        self.percentile_bin(p).map(|b| self.lower_edge(b))
    }

    /// Upper edge of the bin containing the in-bounds `p`-th percentile,
    /// i.e. the percentile "rounded to the next higher value" (used for the
    /// tail of the idle-time distribution / the keep-alive window).
    ///
    /// Returns `None` when no in-bounds values exist.
    pub fn tail_value(&self, p: f64) -> Option<u64> {
        self.percentile_bin(p).map(|b| self.upper_edge(b))
    }

    /// Where a head cutoff in `bin` rounds down to.
    fn lower_edge(&self, bin: usize) -> u64 {
        bin as u64 * self.bin_width
    }

    /// Where a tail cutoff in `bin` rounds up to.
    fn upper_edge(&self, bin: usize) -> u64 {
        (bin as u64 + 1) * self.bin_width
    }

    /// Index of the bin containing the in-bounds `p`-th percentile.
    pub fn percentile_bin(&self, p: f64) -> Option<usize> {
        percentile_bin_over(&self.bins, self.in_bounds as f64, p)
    }

    /// Clears all counts.
    pub fn reset(&mut self) {
        self.bins.fill(0);
        self.in_bounds = 0;
        self.oob = 0;
        self.sumsq = 0.0;
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if bin widths or bin counts differ.
    pub fn merge(&mut self, other: &RangeHistogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin width mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.saturating_add(*b);
        }
        // Recomputed, not added: a bin that saturated holds less than
        // the two totals together.
        self.in_bounds = self.bins.iter().map(|&c| c as u64).sum();
        self.oob += other.oob;
        self.sumsq = self.bins.iter().map(|&c| (c as f64) * (c as f64)).sum();
    }

    /// Approximate in-memory footprint of the count array, in bytes.
    ///
    /// The paper's production deployment quotes 240 × 4-byte integers =
    /// 960 bytes per application (§6).
    pub fn memory_footprint_bytes(&self) -> usize {
        self.bins.len() * std::mem::size_of::<u32>()
    }
}

/// One percentile of one [`RangeHistogram`], kept current from record to
/// record instead of being walked for on every read (see the module
/// docs for why this is exact).
///
/// Invariant, whenever the cursor has seen every in-bounds record since
/// it was sought: `cursor.bin(&hist) == hist.percentile_bin(p)`. The
/// cursor does not borrow the histogram; the owner of both feeds it.
/// After [`RangeHistogram::reset`] or [`RangeHistogram::merge`], seek
/// again.
///
/// # Examples
///
/// ```
/// use sitw_stats::{PercentileCursor, RangeHistogram, Recorded};
///
/// let mut h = RangeHistogram::new(240, 1);
/// let mut tail = PercentileCursor::seek(&h, 99.0);
/// for v in [10, 10, 10, 200, 10, 500] {
///     if let Recorded::InBounds { bin } = h.record(v) {
///         tail.on_record(&h, bin);
///     }
///     assert_eq!(tail.bin(&h), h.percentile_bin(99.0));
/// }
/// assert_eq!(tail.tail_value(&h), Some(201));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileCursor {
    /// `p.clamp(0, 100) / 100`, the factor the walk applies to the total.
    fraction: f64,
    /// The percentile bin, always a non-empty one; 0 and unread while
    /// the histogram holds nothing in bounds.
    bin: usize,
    /// `Σ bins[..bin]`: what the walk has accumulated when it arrives.
    below: u64,
}

impl PercentileCursor {
    /// A cursor on the `p`-th percentile of `hist`, found with one walk.
    pub fn seek(hist: &RangeHistogram, p: f64) -> Self {
        // Under a NaN target the walk runs to the last non-empty bin,
        // which is where the 100th percentile sits.
        let fraction = if p.is_nan() {
            1.0
        } else {
            percentile_fraction(p)
        };
        let bin = percentile_bin_at(&hist.bins, hist.in_bounds as f64, fraction).unwrap_or(0);
        let below = hist.bins[..bin].iter().map(|&c| c as u64).sum();
        Self {
            fraction,
            bin,
            below,
        }
    }

    /// Restores the invariant after `hist.record` returned
    /// [`Recorded::InBounds`] with bin `recorded`. The other two outcomes
    /// change nothing a percentile depends on and must not be reported.
    // sitw-lint: hot-path
    pub fn on_record(&mut self, hist: &RangeHistogram, recorded: usize) {
        if hist.in_bounds == 1 {
            // The first in-bounds value; nothing lies below it.
            self.bin = recorded;
            return;
        }
        let bins = hist.bins.as_slice();
        let mut bin = self.bin;
        if recorded < bin {
            self.below += 1;
        }
        let target = self.fraction * hist.in_bounds as f64;
        // Too far: the previous non-empty bin (there is one while
        // `below > 0`) already reaches the target, so the walk would
        // have stopped there.
        while self.below > 0 && self.below as f64 >= target {
            let Some(prev) = bins[..bin].iter().rposition(|&c| c > 0) else {
                break;
            };
            self.below -= bins[prev] as u64;
            bin = prev;
        }
        // Not far enough: the walk goes on until the sum reaches the
        // target, which `in_bounds == Σ bins` puts at or before the last
        // bin; the index test keeps that from being taken on trust.
        while bin + 1 < bins.len() && ((self.below + bins[bin] as u64) as f64) < target {
            self.below += bins[bin] as u64;
            bin += 1;
        }
        self.bin = bin;
    }

    /// Index of the percentile bin: [`RangeHistogram::percentile_bin`].
    pub fn bin(&self, hist: &RangeHistogram) -> Option<usize> {
        (hist.in_bounds > 0).then_some(self.bin)
    }

    /// Lower edge of the percentile bin: [`RangeHistogram::head_value`].
    pub fn head_value(&self, hist: &RangeHistogram) -> Option<u64> {
        self.bin(hist).map(|b| hist.lower_edge(b))
    }

    /// Upper edge of the percentile bin: [`RangeHistogram::tail_value`].
    pub fn tail_value(&self, hist: &RangeHistogram) -> Option<u64> {
        self.bin(hist).map(|b| hist.upper_edge(b))
    }
}

/// Float-weighted bins with the same geometry and percentile rules as
/// [`RangeHistogram`], used to aggregate several daily histograms "in a
/// weighted fashion to give more importance to recent records" (§6).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedBins {
    bin_width: u64,
    bins: Vec<f64>,
    in_bounds: f64,
    oob: f64,
}

impl WeightedBins {
    /// Creates empty weighted bins with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `num_bins` or `bin_width` is zero.
    pub fn new(num_bins: usize, bin_width: u64) -> Self {
        assert!(num_bins > 0, "histogram needs at least one bin");
        assert!(bin_width > 0, "bin width must be positive");
        Self {
            bin_width,
            bins: vec![0.0; num_bins],
            in_bounds: 0.0,
            oob: 0.0,
        }
    }

    /// Empties the bins, keeping their buffer for the next aggregation.
    pub fn clear(&mut self) {
        self.bins.fill(0.0);
        self.in_bounds = 0.0;
        self.oob = 0.0;
    }

    fn check_addend(&self, h: &RangeHistogram, weight: f64) {
        assert_eq!(self.bin_width, h.bin_width, "bin width mismatch");
        assert_eq!(self.bins.len(), h.bins.len(), "bin count mismatch");
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "weight must be finite and non-negative"
        );
    }

    /// Adds `weight ×` the counts of `h`.
    ///
    /// # Panics
    ///
    /// Panics if geometries differ or `weight` is negative/non-finite.
    pub fn add_scaled(&mut self, h: &RangeHistogram, weight: f64) {
        self.check_addend(h, weight);
        for (a, &b) in self.bins.iter_mut().zip(h.bins.iter()) {
            *a += weight * b as f64;
        }
        self.in_bounds += weight * h.in_bounds as f64;
        self.oob += weight * h.oob as f64;
    }

    /// `(head_value(head_p), tail_value(tail_p))` as they would read
    /// after `add_scaled(h, weight)`, without performing the addition:
    /// one walk that forms each bin as `self + weight × h` on the fly
    /// and stops at the later of the two percentiles. That is the
    /// expression `add_scaled` stores, summed in the same order, so for
    /// any two percentiles (NaN aside) the pair is bit-identical to
    /// materialising the sum and walking it twice.
    ///
    /// Returns `None` when the sum would hold no in-bounds weight.
    ///
    /// # Panics
    ///
    /// Panics if geometries differ or `weight` is negative/non-finite.
    pub fn head_tail_plus(
        &self,
        h: &RangeHistogram,
        weight: f64,
        head_p: f64,
        tail_p: f64,
    ) -> Option<(u64, u64)> {
        self.check_addend(h, weight);
        let total = self.in_bounds + weight * h.in_bounds as f64;
        if total <= 0.0 {
            return None;
        }
        let head_target = head_p.clamp(0.0, 100.0) / 100.0 * total;
        let tail_target = tail_p.clamp(0.0, 100.0) / 100.0 * total;
        let mut sum = self
            .bins
            .iter()
            .zip(h.bins.iter())
            .map(|(&a, &b)| a + weight * b as f64)
            .enumerate();
        let mut cum = 0.0;
        let mut at = None;
        // Walks on to the first non-empty bin at which the running sum
        // reaches `target`; when round-off leaves the sum a hair short,
        // to the last non-empty bin, as in `percentile_bin_over`.
        let mut reach = |target: f64| {
            if at.is_some() && cum >= target {
                return at;
            }
            for (i, c) in sum.by_ref() {
                if c > 0.0 {
                    cum += c;
                    at = Some(i);
                    if cum >= target {
                        break;
                    }
                }
            }
            at
        };
        // The running sum only grows, so the lower target is met first.
        let swapped = tail_target < head_target;
        let lower = reach(if swapped { tail_target } else { head_target })? as u64;
        let upper = reach(if swapped { head_target } else { tail_target })? as u64;
        let (head, tail) = if swapped {
            (upper, lower)
        } else {
            (lower, upper)
        };
        Some((head * self.bin_width, (tail + 1) * self.bin_width))
    }

    /// Total in-bounds weight.
    pub fn in_bounds_weight(&self) -> f64 {
        self.in_bounds
    }

    /// Total out-of-bounds weight.
    pub fn oob_weight(&self) -> f64 {
        self.oob
    }

    /// Fraction of weight that is out of bounds (0 when empty).
    pub fn oob_fraction(&self) -> f64 {
        let total = self.in_bounds + self.oob;
        if total <= 0.0 {
            0.0
        } else {
            self.oob / total
        }
    }

    /// True when no weight has been added.
    pub fn is_empty(&self) -> bool {
        self.in_bounds + self.oob <= 0.0
    }

    /// Coefficient of variation of the (weighted) bin values.
    pub fn bin_count_cv(&self) -> f64 {
        if self.in_bounds <= 0.0 {
            return 0.0;
        }
        let n = self.bins.len() as f64;
        let mean = self.in_bounds / n;
        let sumsq: f64 = self.bins.iter().map(|&c| c * c).sum();
        let var = (sumsq / n - mean * mean).max(0.0);
        var.sqrt() / mean
    }

    /// Lower bin edge of the weighted `p`-th percentile; see
    /// [`RangeHistogram::head_value`].
    pub fn head_value(&self, p: f64) -> Option<u64> {
        percentile_bin_over(&self.bins, self.in_bounds, p).map(|b| b as u64 * self.bin_width)
    }

    /// Upper bin edge of the weighted `p`-th percentile; see
    /// [`RangeHistogram::tail_value`].
    pub fn tail_value(&self, p: f64) -> Option<u64> {
        percentile_bin_over(&self.bins, self.in_bounds, p).map(|b| (b as u64 + 1) * self.bin_width)
    }
}

/// `p`% as the factor a total is multiplied by.
fn percentile_fraction(p: f64) -> f64 {
    p.clamp(0.0, 100.0) / 100.0
}

/// Shared percentile-bin walk over integer or float counts.
///
/// Finds the first non-empty bin at which the cumulative count reaches
/// `p`% of `total`. Returns `None` when `total` is zero.
fn percentile_bin_over<C: Copy + Into<f64>>(bins: &[C], total: f64, p: f64) -> Option<usize> {
    percentile_bin_at(bins, total, percentile_fraction(p))
}

/// The walk of [`percentile_bin_over`] for a fraction already formed.
fn percentile_bin_at<C: Copy + Into<f64>>(bins: &[C], total: f64, fraction: f64) -> Option<usize> {
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
    // Float round-off can leave `cum` a hair short of `target`; the
    // percentile then belongs to the last non-empty bin.
    last_nonempty
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_and_bounds() {
        let mut h = RangeHistogram::new(10, 60);
        assert_eq!(h.record(0), Recorded::InBounds { bin: 0 });
        assert_eq!(h.record(59), Recorded::InBounds { bin: 0 });
        assert_eq!(h.record(60), Recorded::InBounds { bin: 1 });
        assert_eq!(h.record(599), Recorded::InBounds { bin: 9 });
        assert_eq!(h.record(600), Recorded::OutOfBounds);
        assert_eq!(h.in_bounds_count(), 4);
        assert_eq!(h.oob_count(), 1);
        assert!((h.oob_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn production_footprint_is_960_bytes() {
        let h = RangeHistogram::new(240, 1);
        assert_eq!(h.memory_footprint_bytes(), 960);
        assert_eq!(h.range(), 240);
    }

    #[test]
    fn head_tail_rounding() {
        // All mass in bin 3 (values 3..4 with width 1).
        let mut h = RangeHistogram::new(240, 1);
        for _ in 0..100 {
            h.record(3);
        }
        // Head rounds down to the bin's lower edge, tail up to the upper.
        assert_eq!(h.head_value(5.0), Some(3));
        assert_eq!(h.tail_value(99.0), Some(4));
    }

    #[test]
    fn head_zero_percentile_hits_first_nonempty_bin() {
        let mut h = RangeHistogram::new(16, 1);
        h.record(7);
        h.record(9);
        assert_eq!(h.head_value(0.0), Some(7));
        assert_eq!(h.tail_value(100.0), Some(10));
    }

    #[test]
    fn percentiles_walk_cumulative_mass() {
        let mut h = RangeHistogram::new(100, 1);
        // 90 values in bin 10, 10 values in bin 50.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(50);
        }
        assert_eq!(h.head_value(5.0), Some(10));
        assert_eq!(h.tail_value(90.0), Some(11)); // 90% of mass is in bin 10
        assert_eq!(h.tail_value(99.0), Some(51));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = RangeHistogram::new(8, 1);
        assert_eq!(h.head_value(5.0), None);
        assert_eq!(h.tail_value(99.0), None);
        assert!(h.is_empty());
        assert_eq!(h.bin_count_cv(), 0.0);
    }

    #[test]
    fn oob_only_histogram_has_no_percentiles() {
        let mut h = RangeHistogram::new(8, 1);
        h.record(100);
        assert!(!h.is_empty());
        assert_eq!(h.head_value(50.0), None);
        assert_eq!(h.oob_fraction(), 1.0);
    }

    #[test]
    fn cv_concentrated_vs_flat() {
        let mut concentrated = RangeHistogram::new(10, 1);
        for _ in 0..100 {
            concentrated.record(4);
        }
        // One bin holds everything: CV = sqrt(n-1) = 3.
        assert!((concentrated.bin_count_cv() - 3.0).abs() < 1e-9);

        let mut flat = RangeHistogram::new(10, 1);
        for v in 0..10 {
            flat.record(v);
        }
        assert!(flat.bin_count_cv().abs() < 1e-9);
    }

    #[test]
    fn cv_incremental_matches_recomputed() {
        let mut h = RangeHistogram::new(32, 1);
        let values = [0u64, 5, 5, 5, 9, 31, 31, 2, 2, 2, 2, 17];
        for &v in &values {
            h.record(v);
        }
        let n = h.num_bins() as f64;
        let mean = h.in_bounds_count() as f64 / n;
        let var = h
            .bins()
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        let expect = var.sqrt() / mean;
        assert!((h.bin_count_cv() - expect).abs() < 1e-9);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = RangeHistogram::new(32, 2);
        for v in [0u64, 3, 3, 17, 63, 64, 200] {
            h.record(v);
        }
        let rebuilt = RangeHistogram::from_parts(h.bin_width(), h.bins().to_vec(), h.oob_count());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.bin_count_cv(), h.bin_count_cv());
        assert_eq!(rebuilt.head_value(5.0), h.head_value(5.0));
        assert_eq!(rebuilt.tail_value(99.0), h.tail_value(99.0));
    }

    /// Feeds `cursors` what `h.record(value)` reports, as an owner does.
    fn record_tracked(h: &mut RangeHistogram, cursors: &mut [PercentileCursor], value: u64) {
        if let Recorded::InBounds { bin } = h.record(value) {
            for c in cursors.iter_mut() {
                c.on_record(h, bin);
            }
        }
    }

    #[test]
    fn full_bin_refuses_the_record_and_totals_stay_the_bins() {
        // Only a snapshot can hold a full bin; `from_parts` takes the
        // bins as read.
        let parts = || RangeHistogram::from_parts(2, vec![3, u32::MAX, 0, 2], 1);
        let mut h = parts();
        let ps = [0.0, 5.0, 50.0, 99.0, 100.0];
        let mut cursors = ps.map(|p| PercentileCursor::seek(&h, p));
        for _ in 0..5 {
            assert_eq!(h.record(3), Recorded::Saturated);
        }
        assert_eq!(h, parts(), "a refused record changes nothing");

        for value in [2, 0, 7, 3, 99, 5, 1, 4, 6, 2] {
            record_tracked(&mut h, &mut cursors, value);
            let sum: u64 = h.bins().iter().map(|&c| c as u64).sum();
            assert_eq!(h.in_bounds_count(), sum);
            for (c, p) in cursors.iter().zip(ps) {
                assert_eq!(c.bin(&h), h.percentile_bin(p), "p {p} after {value}");
            }
        }
        assert_eq!(h.bins(), &[5, u32::MAX, 2, 4]);
        assert_eq!(h.oob_count(), 2);
        // What the snapshot of `h` restores decides as `h` does.
        let restored = RangeHistogram::from_parts(2, h.bins().to_vec(), h.oob_count());
        assert_eq!(restored.in_bounds_count(), h.in_bounds_count());
        assert_eq!(restored.oob_fraction(), h.oob_fraction());
        for (c, p) in cursors.iter().zip(ps) {
            assert_eq!(PercentileCursor::seek(&restored, p), *c, "p {p}");
        }

        // Merging saturates per bin; the total follows the bins.
        let mut a = parts();
        a.merge(&parts());
        assert_eq!(a.bins(), &[6, u32::MAX, 0, 4]);
        assert_eq!(a.in_bounds_count(), 10 + u32::MAX as u64);
    }

    #[test]
    fn cursor_reads_any_percentile_as_the_walk_does() {
        // Beyond [0, 100] the walk clamps; under NaN it runs to the
        // last non-empty bin.
        let ps = [-3.0, 0.0, 100.0, 250.0, f64::NAN, f64::INFINITY];
        let mut h = RangeHistogram::new(12, 3);
        let mut cursors = ps.map(|p| PercentileCursor::seek(&h, p));
        for value in [20, 8, 8, 33, 100, 2, 35, 20, 0] {
            record_tracked(&mut h, &mut cursors, value);
            for (c, p) in cursors.iter().zip(ps) {
                assert_eq!(c.bin(&h), h.percentile_bin(p), "p {p} after {value}");
                assert_eq!(c.head_value(&h), h.head_value(p));
                assert_eq!(c.tail_value(&h), h.tail_value(p));
            }
        }
    }

    proptest! {
        /// After every record the cursor is where the walk from bin 0
        /// ends: any geometry, the figure grid's percentiles and random
        /// ones, streams of scattered, clustered, bin-edge, last-bin and
        /// out-of-bounds values, and a `from_parts` round trip with a
        /// fresh `seek` mid-stream.
        #[test]
        fn cursor_equals_walk_after_every_record(
            num_bins in 1usize..=300,
            width in 1u64..=5,
            shape in 0u64..u64::MAX,
            ops in prop::collection::vec(0u64..u64::MAX, 1..400),
        ) {
            const GRID: [f64; 7] = [0.0, 1.0, 5.0, 50.0, 95.0, 99.0, 100.0];
            let mut bits = shape;
            let mut take = |n: u64| {
                let v = bits % n;
                bits /= n;
                v
            };
            let mut pick = || match take(3) {
                0 => take(100_001) as f64 / 1000.0,
                _ => GRID[take(7) as usize],
            };
            let ps = [pick(), pick()];
            let mut h = RangeHistogram::new(num_bins, width);
            let range = h.range();
            let centre = take(range);
            let mut cursors = ps.map(|p| PercentileCursor::seek(&h, p));
            for mut bits in ops {
                let mut take = |n: u64| {
                    let v = bits % n;
                    bits /= n;
                    v
                };
                let value = match take(8) {
                    0 => take(range + 2 * width),
                    1 => range - 1 + take(3),
                    2 => take(num_bins as u64) * width + [0, width - 1][take(2) as usize],
                    3 => range + take(1000),
                    4 => take(width),
                    _ => (centre + take(4 * width)).saturating_sub(2 * width),
                };
                if take(50) == 0 {
                    let rebuilt =
                        RangeHistogram::from_parts(width, h.bins().to_vec(), h.oob_count());
                    prop_assert_eq!(&rebuilt, &h);
                    for (c, p) in cursors.iter_mut().zip(ps) {
                        let sought = PercentileCursor::seek(&rebuilt, p);
                        prop_assert_eq!(&sought, &*c);
                        *c = sought;
                    }
                    h = rebuilt;
                }
                record_tracked(&mut h, &mut cursors, value);
                for (c, p) in cursors.iter().zip(ps) {
                    prop_assert_eq!(c.bin(&h), h.percentile_bin(p));
                    prop_assert_eq!(c.head_value(&h), h.head_value(p));
                    prop_assert_eq!(c.tail_value(&h), h.tail_value(p));
                }
            }
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = RangeHistogram::new(4, 1);
        h.record(1);
        h.record(100);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.bins(), &[0, 0, 0, 0]);
        assert_eq!(h.bin_count_cv(), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_rebuilds_cv() {
        let mut a = RangeHistogram::new(8, 1);
        let mut b = RangeHistogram::new(8, 1);
        a.record(1);
        a.record(20); // OOB
        b.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.bin_count(1), 2);
        assert_eq!(a.bin_count(3), 1);
        assert_eq!(a.in_bounds_count(), 3);
        assert_eq!(a.oob_count(), 1);

        // CV must equal a freshly built histogram with the same content.
        let mut fresh = RangeHistogram::new(8, 1);
        fresh.record(1);
        fresh.record(1);
        fresh.record(3);
        assert!((a.bin_count_cv() - fresh.bin_count_cv()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = RangeHistogram::new(8, 1);
        let b = RangeHistogram::new(8, 2);
        a.merge(&b);
    }

    #[test]
    fn weighted_bins_aggregate_recency() {
        let mut day1 = RangeHistogram::new(16, 1);
        let mut day2 = RangeHistogram::new(16, 1);
        for _ in 0..10 {
            day1.record(2);
        }
        for _ in 0..10 {
            day2.record(8);
        }
        let mut agg = WeightedBins::new(16, 1);
        agg.add_scaled(&day1, 0.25);
        agg.add_scaled(&day2, 1.0);
        // Recent day dominates: the median sits in day2's bin.
        let head = agg.head_value(50.0).unwrap();
        assert_eq!(head, 8);
        assert!((agg.in_bounds_weight() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_bins_empty() {
        let agg = WeightedBins::new(4, 1);
        assert!(agg.is_empty());
        assert_eq!(agg.head_value(50.0), None);
        assert_eq!(agg.oob_fraction(), 0.0);
    }

    #[test]
    fn head_tail_plus_equals_adding_then_walking() {
        // Three "days" of splitmix-scattered counts under weights whose
        // products are not exactly representable; every half percentile
        // must land in the same bin either way, cumulative round-off
        // included.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        };
        let mut day = |n: usize| {
            let mut h = RangeHistogram::new(64, 1);
            for _ in 0..n {
                h.record(next() % 80); // A fifth lands out of bounds.
            }
            h
        };
        let (old, mid, new) = (day(300), day(40), day(7));
        let mut older = WeightedBins::new(64, 1);
        older.add_scaled(&old, 0.85f64.powi(2));
        older.add_scaled(&mid, 0.85);
        for weight in [1.0, 0.85, 0.0] {
            let mut sum = older.clone();
            sum.add_scaled(&new, weight);
            for half in 0..=200 {
                let (hp, tp) = (half as f64 / 2.0, 100.0 - half as f64 / 2.0);
                assert_eq!(
                    older.head_tail_plus(&new, weight, hp, tp),
                    Some((sum.head_value(hp).unwrap(), sum.tail_value(tp).unwrap())),
                    "weight {weight}, head {hp}, tail {tp}"
                );
            }
        }
        // Nothing in bounds on either side: no percentiles.
        let empty = WeightedBins::new(64, 1);
        let mut oob_only = RangeHistogram::new(64, 1);
        oob_only.record(1000);
        assert_eq!(empty.head_tail_plus(&oob_only, 1.0, 5.0, 99.0), None);
        assert_eq!(empty.head_tail_plus(&new, 0.0, 5.0, 99.0), None);
    }

    #[test]
    fn clear_keeps_geometry_and_forgets_weight() {
        let mut h = RangeHistogram::new(16, 1);
        h.record(3);
        h.record(99);
        let mut agg = WeightedBins::new(16, 1);
        agg.add_scaled(&h, 0.5);
        agg.clear();
        assert_eq!(agg, WeightedBins::new(16, 1));
        agg.add_scaled(&h, 1.0);
        assert_eq!(agg.head_value(50.0), Some(3));
    }

    #[test]
    fn weighted_bins_match_unweighted_when_weight_one() {
        let mut h = RangeHistogram::new(32, 1);
        for v in [1u64, 1, 5, 9, 9, 9, 30] {
            h.record(v);
        }
        let mut agg = WeightedBins::new(32, 1);
        agg.add_scaled(&h, 1.0);
        for p in [0.0, 5.0, 50.0, 99.0, 100.0] {
            assert_eq!(agg.head_value(p), h.head_value(p), "head at {p}");
            assert_eq!(agg.tail_value(p), h.tail_value(p), "tail at {p}");
        }
        assert!((agg.bin_count_cv() - h.bin_count_cv()).abs() < 1e-12);
    }
}
