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
//!   production-style daily histogram scheme of §6, and O(1) percentile
//!   reads off a weighted sum through certified [`WeightedCursor`]s
//!   (see below).
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
//! makes.
//!
//! # Certified cursors over weighted sums
//!
//! The production policy's aggregate (§6) is a [`WeightedSum`]: the
//! [`WeightedBins`] of every day but the newest plus `w ×` the newest
//! day's histogram. Its partial sums are rounded `f64` additions whose
//! value depends on the order they were made in, so a sum kept
//! incrementally is not bit-equal to the one a walk forms from bin 0,
//! and a cursor cannot repeat the walk's comparisons. A
//! [`WeightedCursor`] does not try to. It keeps an estimate of the real
//! prefix sum up to its bin and answers only when a rigorous round-off
//! bound *certifies* that the walk stops at that bin; otherwise its
//! owner seeks again with the walk. Either way the answer is the walk's,
//! bit for bit, and on the concentrated distributions the policy acts on
//! the certificate almost always holds (see [`WeightedCursor`]).

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
        let (in_bounds, sumsq) = sums(&bins);
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
        (self.in_bounds, self.sumsq) = sums(&self.bins);
        self.oob += other.oob;
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
/// After [`RangeHistogram::merge`], seek again.
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
        let [cursor, _] = Self::seek_pair(hist, [p, p]);
        cursor
    }

    /// Cursors on two percentiles of `hist` — a policy's head and tail —
    /// found in one walk from bin 0 that places the lower target first
    /// and stops at the bin of the higher.
    ///
    /// The walk sums the bins as integers. While the in-bounds total is
    /// at most 2⁵³ every running sum `cum` converts to `f64` exactly, so
    /// `cum as f64 >= target` — the comparison
    /// [`RangeHistogram::percentile_bin`]'s `f64` walk makes — is
    /// `cum >= ⌈target⌉`; and the first bin whose running sum reaches
    /// `max(⌈target⌉, 1)` is the first *non-empty* one reaching `target`,
    /// the bin the walk returns. So each bin costs one add and one
    /// compare that fails until the end. Past 2⁵³ (only a histogram of
    /// millions of full bins gets there) each cursor takes the `f64`
    /// walk itself.
    pub fn seek_pair(hist: &RangeHistogram, ps: [f64; 2]) -> [Self; 2] {
        // Under a NaN target the walk runs to the last non-empty bin,
        // which is where the 100th percentile sits.
        let mut cursors = ps.map(|p| Self {
            fraction: if p.is_nan() {
                1.0
            } else {
                percentile_fraction(p)
            },
            bin: 0,
            below: 0,
        });
        let total = hist.in_bounds;
        if total == 0 {
            return cursors;
        }
        if total > 1 << 53 {
            for c in &mut cursors {
                c.bin = percentile_bin_at(&hist.bins, total as f64, c.fraction).unwrap_or(0);
                c.below = hist.bins[..c.bin].iter().map(|&n| u64::from(n)).sum();
            }
            return cursors;
        }
        let order = if cursors[1].fraction < cursors[0].fraction {
            [1, 0]
        } else {
            [0, 1]
        };
        // A target is at most the total (a fraction of at most 1 times
        // it, rounded), which the last non-empty bin reaches, so the
        // walk places both cursors.
        let needs = order.map(|k| ((cursors[k].fraction * total as f64).ceil() as u64).max(1));
        let mut placed = 0;
        let mut cum = 0u64;
        for (bin, &n) in hist.bins.iter().enumerate() {
            cum += u64::from(n);
            while placed < 2 && cum >= needs[placed] {
                let c = &mut cursors[order[placed]];
                (c.bin, c.below) = (bin, cum - u64::from(n));
                placed += 1;
            }
            if placed == 2 {
                break;
            }
        }
        debug_assert_eq!(placed, 2, "a percentile target beyond the total");
        cursors
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

    #[inline]
    fn check_addend(&self, h: &RangeHistogram, weight: f64) {
        assert!(self.bin_width == h.bin_width, "bin width mismatch");
        assert!(self.bins.len() == h.bins.len(), "bin count mismatch");
        // Two comparisons, on the path of every production decision: NaN
        // and the infinities fall outside the range.
        assert!(
            (0.0..=f64::MAX).contains(&weight),
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

    /// Total in-bounds weight.
    pub fn in_bounds_weight(&self) -> f64 {
        self.in_bounds
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

/// `older + weight × newest`: weighted bins plus one more histogram
/// under its weight, read without being formed. Bin `i` is
/// `older[i] + weight × newest[i]` and the in-bounds total is
/// `older.in_bounds_weight() + weight × newest.in_bounds_count()`, the
/// expressions [`WeightedBins::add_scaled`] stores, so every percentile
/// of the sum is the one `older` reads after `add_scaled(newest,
/// weight)`, bit for bit. The production policy (§6) decides on such a
/// sum: every retained day but the newest, plus the newest.
#[derive(Debug, Clone, Copy)]
pub struct WeightedSum<'a> {
    older: &'a WeightedBins,
    newest: &'a RangeHistogram,
    weight: f64,
}

impl<'a> WeightedSum<'a> {
    /// The sum `older + weight × newest`.
    ///
    /// # Panics
    ///
    /// Panics if geometries differ or `weight` is negative/non-finite.
    #[inline]
    pub fn new(older: &'a WeightedBins, newest: &'a RangeHistogram, weight: f64) -> Self {
        older.check_addend(newest, weight);
        Self {
            older,
            newest,
            weight,
        }
    }

    /// The in-bounds total, as `add_scaled` would leave it.
    #[inline]
    pub fn total(&self) -> f64 {
        self.older.in_bounds + self.weight * self.newest.in_bounds as f64
    }

    /// Bin `i` of the sum were the newest histogram to hold `count`
    /// there.
    #[inline]
    fn term(&self, i: usize, count: u32) -> f64 {
        self.older.bins[i] + self.weight * f64::from(count)
    }
}

/// [`WeightedCursor`]'s `updates` while it holds nothing it can vouch
/// for; counting up into it unseats the cursor too.
const UNSEATED: u32 = u32::MAX;

/// One percentile of a [`WeightedSum`], carried from record to record
/// and read without the walk whenever a round-off bound *certifies*
/// that the walk would stop at the cursor's bin.
///
/// Write `c_i = older[i] + w × newest[i]` for the walk's terms (rounded
/// `f64` values, as the walk forms them), `P_k = Σ_{i≤k} c_i` for their
/// prefix sums taken exactly, `Σ` for `P` over all `n` bins, `S_k` for
/// the walk's rounded running sum after bin `k`, and `T = p/100 × total`
/// for its target. The walk answers the first bin with `c_k > 0` and
/// `S_k ≥ T`, or the last non-empty bin when round-off leaves every sum
/// short.
///
/// The cursor keeps its percentile as the factor `p/100`, a bin `t`, an
/// estimate `Q` of `P_t`, and the number `m` of updates since it was
/// seated. The walk seats it with
/// `Q = S_t`, `m = 0` ([`WeightedCursor::seek_pair`]); a record into bin
/// `r ≤ t` adds `c_r(new) − c_r(old)` to `Q` and counts one update; a
/// record above `t` leaves `P_t` and `Q` alone. A read recomputes
/// `total` and `T` by the walk's own expressions and answers `t` when
///
/// ```text
/// c_t > 0,   Q − B ≥ T,   (Q − c_t) + B < T,   B = (n + 2m + 8) · ε · 2 · total
/// ```
///
/// with `ε = f64::EPSILON`, twice the unit round-off `u`, and `total` a
/// normal number.
///
/// **Why the bound holds.** Recursive summation of non-negative terms
/// errs by at most `γ_{k−1} · P_k`, `γ_j = j·u / (1 − j·u)` (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, §4.2), so
/// `|S_k − P_k| ≤ γ_n Σ ≈ (n/2) ε Σ` at every bin, and the seated `Q`
/// errs by as much. An update rounds twice, the difference and the sum,
/// on values no larger than `Σ` (terms only grow between seatings, so
/// today's `Σ` bounds every earlier one): at most `ε Σ` per update.
/// Hence `|S_k − P_k| + |Q − P_t| ≤ (n + m) ε Σ`, up to factors
/// `1 + O(nε)`. `Σ` and `total` are the same weighted integer counts
/// added in different orders — `add_scaled` adds each histogram to the
/// bins and to the total alike — so over `d` folded histograms they
/// agree to a relative `(2d + 4) u`, and `Σ ≤ 2 · total` with room to
/// spare; that the total is normal keeps underflowing products out of
/// it. The rest of `B` — the `2m`, the `8` and the factor 2 — covers the
/// few roundings in forming `B` and the two checks many times over.
/// So `Q − B ≥ T` gives `S_t ≥ T`, and `(Q − c_t) + B < T` gives
/// `S_k < T` at every non-empty `k < t`, exactly: `f64` addition of
/// non-negative terms is monotone, so the walk's partial sums before `t`
/// are at most the one at the last non-empty bin before it, which is
/// within the bound of `P_t − c_t`. With `c_t > 0` the walk stops at `t`.
///
/// A failed check proves nothing, and the owner seeks again, which also
/// resets `m` and keeps `Q`'s drift bounded. Anything that changes
/// `older` or `w` — in the production policy a day roll, an expired day
/// or an import — invalidates `Q`: unseat the cursor or seek again.
///
/// # Examples
///
/// ```
/// use sitw_stats::histogram::{WeightedBins, WeightedCursor, WeightedSum};
/// use sitw_stats::{RangeHistogram, Recorded};
///
/// let mut yesterday = RangeHistogram::new(240, 1);
/// for v in [10, 10, 11, 200] {
///     yesterday.record(v);
/// }
/// let mut older = WeightedBins::new(240, 1);
/// older.add_scaled(&yesterday, 0.85);
/// let mut today = RangeHistogram::new(240, 1);
/// let ps = [5.0, 99.0];
/// let mut cursors = [WeightedCursor::default(); 2];
/// for v in [10, 10, 12, 10, 11, 10] {
///     if let Recorded::InBounds { bin } = today.record(v) {
///         let sum = WeightedSum::new(&older, &today, 1.0);
///         cursors.iter_mut().for_each(|c| c.on_record(&sum, bin));
///     }
///     let sum = WeightedSum::new(&older, &today, 1.0);
///     let certified = cursors.map(|c| c.certified_bin(&sum));
///     let bins = match certified {
///         [Some(head), Some(tail)] => [head, tail],
///         _ => {
///             let (bins, seated) = WeightedCursor::seek_pair(&sum, ps).unwrap();
///             cursors = seated;
///             bins
///         }
///     };
///     // What the walk over the formed sum reads.
///     let mut formed = older.clone();
///     formed.add_scaled(&today, 1.0);
///     assert_eq!(bins[0] as u64, formed.head_value(ps[0]).unwrap());
///     assert_eq!(bins[1] as u64 + 1, formed.tail_value(ps[1]).unwrap());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedCursor {
    /// `Q`, the estimate of the prefix sum up to and including `bin`.
    sum: f64,
    /// `p.clamp(0, 100) / 100`, the factor the walk applies to the total
    /// (NaN for a NaN percentile, as in the walk).
    fraction: f64,
    /// `t`, the bin the walk stopped at when it seated the cursor.
    bin: u32,
    /// `m`, the updates since the cursor was seated, or [`UNSEATED`].
    updates: u32,
}

impl Default for WeightedCursor {
    /// A cursor that vouches for nothing until
    /// [`WeightedCursor::seek_pair`] seats it.
    fn default() -> Self {
        Self {
            sum: 0.0,
            fraction: f64::NAN,
            bin: 0,
            updates: UNSEATED,
        }
    }
}

impl WeightedCursor {
    /// The bins of the `ps[0]`-th and `ps[1]`-th percentiles of `sum` —
    /// a policy's head and tail — and a cursor seated on each, from one
    /// walk that stops at the later of the two; `None` when no bin holds
    /// weight.
    ///
    /// The walk is the definition: it forms each bin by the expression
    /// `add_scaled` stores and stops at the first non-empty bin whose
    /// running sum reaches the target, or falls back to the last
    /// non-empty bin when round-off leaves the sum a hair short (as a
    /// NaN target always does), as [`WeightedBins::head_value`]'s walk
    /// over the formed sum does.
    pub fn seek_pair(sum: &WeightedSum, ps: [f64; 2]) -> Option<([usize; 2], [Self; 2])> {
        Self::seek(sum, ps.map(percentile_fraction))
    }

    /// [`WeightedCursor::seek_pair`] for percentiles already made factors.
    fn seek(sum: &WeightedSum, fractions: [f64; 2]) -> Option<([usize; 2], [Self; 2])> {
        let total = sum.total();
        if total <= 0.0 {
            return None;
        }
        let targets = fractions.map(|f| f * total);
        // The running sum only grows, so the lower target is met first;
        // a NaN one never is, so it goes last.
        let order = if targets[1] < targets[0] || targets[0].is_nan() {
            [1, 0]
        } else {
            [0, 1]
        };
        let mut seated = [(0usize, 0.0f64); 2];
        let mut placed = 0;
        let (mut cum, mut last) = (0.0, None);
        for (i, (&a, &b)) in sum.older.bins.iter().zip(&sum.newest.bins).enumerate() {
            let c = a + sum.weight * f64::from(b);
            if c > 0.0 {
                cum += c;
                last = Some(i);
                while placed < 2 && cum >= targets[order[placed]] {
                    seated[order[placed]] = (i, cum);
                    placed += 1;
                }
                if placed == 2 {
                    break;
                }
            }
        }
        // A target not met falls to the last non-empty bin; the loop ran
        // to the end, so `cum` is the running sum there.
        let last = last?;
        for &k in &order[placed..] {
            seated[k] = (last, cum);
        }
        let cursors = [0, 1].map(|k| {
            let (bin, sum) = seated[k];
            match u32::try_from(bin) {
                Ok(bin) => Self {
                    sum,
                    fraction: fractions[k],
                    bin,
                    updates: 0,
                },
                Err(_) => Self::default(),
            }
        });
        Some((seated.map(|(bin, _)| bin), cursors))
    }

    /// Moves the estimate after the newest histogram of `sum` recorded
    /// into bin `recorded` (a [`Recorded::InBounds`]; the other outcomes
    /// change no bin and must not be reported). `sum` is the one the
    /// cursor was seated on, with that record.
    #[inline]
    // sitw-lint: hot-path
    pub fn on_record(&mut self, sum: &WeightedSum, recorded: usize) {
        if self.updates == UNSEATED || recorded > self.bin as usize {
            return;
        }
        let count = sum.newest.bins[recorded];
        self.sum += sum.term(recorded, count) - sum.term(recorded, count.saturating_sub(1));
        self.updates += 1;
    }

    /// The bin the walk over `sum` returns for the cursor's percentile,
    /// when the certificate proves it; `None` when the cursor cannot
    /// vouch for any bin, and the owner seeks again.
    #[inline]
    // sitw-lint: hot-path
    pub fn certified_bin(&self, sum: &WeightedSum) -> Option<usize> {
        if self.updates == UNSEATED {
            return None;
        }
        let t = self.bin as usize;
        let total = sum.total();
        let target = self.fraction * total;
        let c_t = sum.term(t, sum.newest.bins[t]);
        let terms = sum.older.bins.len() as f64 + 2.0 * f64::from(self.updates) + 8.0;
        let bound = terms * f64::EPSILON * 2.0 * total;
        let certified = total.is_normal()
            && c_t > 0.0
            && self.sum - bound >= target
            && (self.sum - c_t) + bound < target;
        if certified {
            debug_assert_eq!(
                Some(t),
                Self::seek(sum, [self.fraction; 2]).map(|([bin, _], _)| bin),
                "a certified bin the walk denies"
            );
        }
        certified.then_some(t)
    }

    /// The cursor with its percentile changed to `p` and all else kept.
    /// The certificate checks the bin against whatever target it is
    /// given, so an aimed cursor still answers only what the walk would.
    #[cfg(test)]
    fn aimed(self, p: f64) -> Self {
        Self {
            fraction: percentile_fraction(p),
            ..self
        }
    }
}

/// `p`% as the factor a total is multiplied by.
#[inline]
fn percentile_fraction(p: f64) -> f64 {
    p.clamp(0.0, 100.0) / 100.0
}

/// `Σ bins` and `Σ bins²` in one pass. The squares are summed as
/// integers: while that sum is at most 2⁵³, every running sum of the
/// `f64` fold `Σ (c as f64)²` is an exact integer too, so the integer
/// sum converted once is the fold's result bit for bit. A sum that
/// could pass 2⁵³ is folded in `f64` as it always was, rounding and all.
fn sums(bins: &[u32]) -> (u64, f64) {
    let (mut total, mut squares, mut any) = (0u64, 0u64, 0u32);
    for &c in bins {
        total += u64::from(c);
        squares = squares.wrapping_add(u64::from(c) * u64::from(c));
        any |= c;
    }
    // Every square below 2⁵² and at most 2¹¹ of them: the sum did not
    // wrap, so it can be compared with 2⁵³.
    if any < 1 << 26 && bins.len() <= 1 << 11 && squares <= 1 << 53 {
        (total, squares as f64)
    } else {
        let folded = bins.iter().map(|&c| f64::from(c) * f64::from(c)).sum();
        (total, folded)
    }
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

    /// Bins for the rebuild property: empty, one non-empty bin, small
    /// counts, runs at `u32::MAX`, and squares whose sum lands on either
    /// side of 2⁵³ (a few counts near 2²⁶, where the integer sum stops
    /// being exact for the `f64` fold).
    fn rebuild_bins(num_bins: usize, shape: u64, seeds: &[u64]) -> Vec<u32> {
        let mut bins = vec![0u32; num_bins];
        let at = |k: u64| (k % num_bins as u64) as usize;
        match shape % 6 {
            0 => {}
            1 => bins[at(seeds[0])] = (shape >> 8) as u32 % 1000 + 1,
            2 => {
                for &s in seeds {
                    bins[at(s)] = (s >> 20) as u32 % 12;
                }
            }
            3 => {
                for &s in seeds.iter().take(1 + (shape >> 3) as usize % 4) {
                    bins[at(s)] = u32::MAX;
                }
                bins[at(shape)] = (shape >> 10) as u32;
            }
            4 => {
                // k counts just under 2^26: the squares' sum passes 2^53
                // at k = 3 and 2^54 at k = 5, where the f64 fold rounds
                // more than once.
                for &s in seeds.iter().take(1 + (shape >> 3) as usize % 6) {
                    bins[at(s)] = (1u32 << 26) - 1 - (s >> 40) as u32 % 4096;
                }
            }
            _ => {
                for &s in seeds {
                    bins[at(s)] = bins[at(s)].saturating_add((s >> 8) as u32);
                }
            }
        }
        bins
    }

    proptest! {
        /// `from_parts` and `seek_pair` — one summing pass, then one
        /// walk for both cursors — equal the two-pass rebuild and two
        /// walks they replaced (`histogram_ref`): the in-bounds total,
        /// the bits of the squared-count sum, and each cursor's fraction,
        /// bin and count below, for percentiles in and out of range and
        /// NaN, in either order.
        #[test]
        fn one_pass_rebuild_equals_the_parent(
            size in 0u64..u64::MAX,
            shape in 0u64..u64::MAX,
            seeds in prop::collection::vec(0u64..u64::MAX, 1..40),
            picks in prop::collection::vec(0usize..12, 2..3),
            free in 0.0f64..100.0,
        ) {
            const PS: [f64; 11] =
                [0.0, 100.0, f64::NAN, -5.0, 150.0, 5.0, 99.0, 50.0, f64::INFINITY, -0.0, 1e-9];
            let ps = [0, 1].map(|k| PS.get(picks[k]).copied().unwrap_or(free));
            // Up to three bins, the policy's few hundred, or past the
            // 2^11 bins the exact square sum is taken for.
            let num_bins = match size % 3 {
                0 => 1 + (size / 3 % 3) as usize,
                1 => 1 + (size / 3 % 300) as usize,
                _ => 2000 + (size / 3 % 101) as usize,
            };
            let bins = rebuild_bins(num_bins, shape, &seeds);
            let (in_bounds, sumsq) = crate::histogram_ref::sums(&bins);
            let h = RangeHistogram::from_parts(1, bins.clone(), 7);
            prop_assert_eq!(h.in_bounds, in_bounds);
            prop_assert_eq!(h.sumsq.to_bits(), sumsq.to_bits());
            let cursors = PercentileCursor::seek_pair(&h, ps);
            for (c, p) in cursors.iter().zip(ps) {
                let (fraction, bin, below) = crate::histogram_ref::seek(&bins, in_bounds, p);
                prop_assert_eq!((c.fraction.to_bits(), c.bin, c.below), (fraction.to_bits(), bin, below));
                prop_assert_eq!(&PercentileCursor::seek(&h, p), c);
            }
        }
    }

    /// Squares that wrap a `u64` sum past 2⁶⁴ to a small value are not
    /// taken for an exact sum: one square too large, or too many bins.
    #[test]
    fn a_square_sum_that_wraps_is_folded() {
        // u32::MAX² + 92 682² = 2⁶⁴ + 18 532, and 4 097 · (2²⁶ − 1)²
        // wraps to under 2⁵².
        for bins in [vec![u32::MAX, 92_682, 0], vec![(1 << 26) - 1; 4097]] {
            let (_, sumsq) = crate::histogram_ref::sums(&bins);
            let h = RangeHistogram::from_parts(1, bins, 0);
            assert_eq!(h.sumsq.to_bits(), sumsq.to_bits());
        }
    }

    /// Past 2⁵³ in bounds each cursor takes the `f64` walk, whose sums
    /// round: a small last bin is one the rounded walk never reaches.
    #[test]
    fn cursors_past_two_to_the_53_take_the_f64_walk() {
        let mut bins = vec![u32::MAX; (1 << 21) + 2];
        bins.push(2);
        let (in_bounds, sumsq) = crate::histogram_ref::sums(&bins);
        assert!(in_bounds > 1 << 53);
        let h = RangeHistogram::from_parts(1, bins.clone(), 0);
        assert_eq!(
            (h.in_bounds, h.sumsq.to_bits()),
            (in_bounds, sumsq.to_bits())
        );
        let ps = [0.0, 5.0, 50.0, 99.0, 100.0, f64::NAN];
        for pair in ps.windows(2) {
            let cursors = PercentileCursor::seek_pair(&h, [pair[1], pair[0]]);
            for (c, p) in cursors.iter().zip([pair[1], pair[0]]) {
                let (fraction, bin, below) = crate::histogram_ref::seek(&bins, in_bounds, p);
                assert_eq!(
                    (c.fraction.to_bits(), c.bin, c.below),
                    (fraction.to_bits(), bin, below)
                );
            }
        }
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
        assert_eq!(a.bins()[1], 2);
        assert_eq!(a.bins()[3], 1);
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
    fn seek_pair_equals_adding_then_walking() {
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
            let lazy = WeightedSum::new(&older, &new, weight);
            for half in 0..=200 {
                let (hp, tp) = (half as f64 / 2.0, 100.0 - half as f64 / 2.0);
                let (bins, _) = WeightedCursor::seek_pair(&lazy, [hp, tp]).unwrap();
                assert_eq!(
                    (bins[0] as u64, bins[1] as u64 + 1),
                    (sum.head_value(hp).unwrap(), sum.tail_value(tp).unwrap()),
                    "weight {weight}, head {hp}, tail {tp}"
                );
            }
        }
        // Nothing in bounds on either side: no percentiles.
        let empty = WeightedBins::new(64, 1);
        let mut oob_only = RangeHistogram::new(64, 1);
        oob_only.record(1000);
        for (h, weight) in [(&oob_only, 1.0), (&new, 0.0)] {
            let lazy = WeightedSum::new(&empty, h, weight);
            assert_eq!(WeightedCursor::seek_pair(&lazy, [5.0, 99.0]), None);
        }
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

    /// The walk over the formed sum `older + weight × newest`, the
    /// definition a seek and a certified cursor must both equal.
    fn formed_bin(
        older: &WeightedBins,
        newest: &RangeHistogram,
        weight: f64,
        p: f64,
    ) -> Option<usize> {
        let mut formed = older.clone();
        formed.add_scaled(newest, weight);
        percentile_bin_over(&formed.bins, formed.in_bounds, p)
    }

    /// A head and tail read as their owner reads them: certified, or
    /// sought again. Also says whether it walked.
    fn read_pair(
        cursors: &mut [WeightedCursor; 2],
        sum: &WeightedSum,
        ps: [f64; 2],
    ) -> (Option<[usize; 2]>, bool) {
        match [0, 1].map(|k| cursors[k].aimed(ps[k]).certified_bin(sum)) {
            [Some(head), Some(tail)] => (Some([head, tail]), false),
            _ => match WeightedCursor::seek_pair(sum, ps) {
                Some((bins, seated)) => {
                    *cursors = seated;
                    (Some(bins), true)
                }
                None => (None, true),
            },
        }
    }

    /// A percentile whose target lands within an ulp or two of the
    /// running sum the walk holds at the `pick`-th non-empty bin of the
    /// formed sum, so that round-off alone decides where the walk stops.
    fn near_tie(older: &WeightedBins, newest: &RangeHistogram, weight: f64, pick: u64) -> f64 {
        let mut formed = older.clone();
        formed.add_scaled(newest, weight);
        let mut cum = 0.0;
        let sums: Vec<f64> = formed
            .bins
            .iter()
            .filter(|&&c| c > 0.0)
            .map(|&c| {
                cum += c;
                cum
            })
            .collect();
        if sums.is_empty() {
            return 50.0;
        }
        let p = sums[(pick % sums.len() as u64) as usize] / formed.in_bounds * 100.0;
        let bits = p.to_bits();
        f64::from_bits(match (pick / 64) % 3 {
            0 => bits,
            1 => bits + 1,
            _ => bits.saturating_sub(1),
        })
    }

    proptest! {
        /// After every record a cursor pair reads what the walk over the
        /// formed sum reads. Uniform weights (integer sums, so the running
        /// sum meets the target exactly) and 0.85^k weights; percentiles
        /// 0, 50, 99, 100, NaN and near ties re-aimed at every read, the
        /// head above the tail as often as below; records on, below and
        /// above a cursor's bin, into an empty bin below it and out of
        /// bounds; and a day roll now and then that folds the newest day
        /// into `older` and unseats the cursors.
        #[test]
        fn weighted_cursor_equals_the_walk(
            num_bins in 1usize..=48,
            shape in 0u64..u64::MAX,
            days in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 0..40), 0..4),
            ops in prop::collection::vec(0u64..u64::MAX, 1..300),
        ) {
            const FIXED: [f64; 5] = [0.0, 50.0, 99.0, 100.0, f64::NAN];
            let mut bits = shape;
            let mut take = |n: u64| {
                let v = bits % n;
                bits /= n;
                v
            };
            let uniform = take(2) == 0;
            let weight_of = |age: usize| if uniform { 1.0 } else { 0.85f64.powi(age as i32) };
            let n = num_bins as u64;
            let mut older = WeightedBins::new(num_bins, 1);
            for (k, values) in days.iter().enumerate() {
                let mut h = RangeHistogram::new(num_bins, 1);
                for v in values {
                    h.record(v % (n + 2));
                }
                older.add_scaled(&h, weight_of(days.len() - k));
            }
            let mut weight = weight_of(take(2) as usize);
            // A fixed percentile, or (kinds 5 and 6) a near tie.
            let kinds = [take(7), take(7)];
            let mut newest = RangeHistogram::new(num_bins, 1);
            let mut cursors = [WeightedCursor::default(); 2];
            let mut at = [0usize; 2];
            for mut bits in ops {
                let mut take = |n: u64| {
                    let v = bits % n;
                    bits /= n;
                    v
                };
                if take(40) == 0 {
                    older.add_scaled(&newest, weight);
                    newest = RangeHistogram::new(num_bins, 1);
                    weight = weight_of(take(2) as usize);
                    cursors = [WeightedCursor::default(); 2];
                }
                let t = at[take(2) as usize] as u64;
                let value = match take(6) {
                    0 => t,
                    1 => take(t + 1),
                    2 => {
                        let empty: Vec<u64> = (0..t)
                            .filter(|&i| older.bins[i as usize] == 0.0 && newest.bins[i as usize] == 0)
                            .collect();
                        if empty.is_empty() {
                            t
                        } else {
                            empty[take(empty.len() as u64) as usize]
                        }
                    }
                    3 => t + 1 + take(n - t),
                    4 => n + take(3),
                    _ => take(n),
                };
                if let Recorded::InBounds { bin } = newest.record(value) {
                    let sum = WeightedSum::new(&older, &newest, weight);
                    for c in &mut cursors {
                        c.on_record(&sum, bin);
                    }
                }
                let ps = kinds.map(|k| match k {
                    0..=4 => FIXED[k as usize],
                    _ => near_tie(&older, &newest, weight, take(1 << 12)),
                });
                let sum = WeightedSum::new(&older, &newest, weight);
                let (got, _) = read_pair(&mut cursors, &sum, ps);
                let want = ps.map(|p| formed_bin(&older, &newest, weight, p));
                prop_assert_eq!(got.map_or([None; 2], |b| b.map(Some)), want);
                if let Some(bins) = got {
                    at = bins;
                }
            }
        }
    }

    #[test]
    fn a_concentrated_stream_is_certified_almost_always() {
        // Two weeks of a 10-minute rhythm with a little jitter: after the
        // first read of each day, reads need no walk.
        let (mut reads, mut walks) = (0, 0);
        let mut older = WeightedBins::new(240, 1);
        let mut x = 7u64;
        for day in 0..14 {
            let mut newest = RangeHistogram::new(240, 1);
            let mut cursors = [WeightedCursor::default(); 2];
            for _ in 0..144 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if let Recorded::InBounds { bin } = newest.record(9 + (x >> 62)) {
                    let sum = WeightedSum::new(&older, &newest, 1.0);
                    cursors.iter_mut().for_each(|c| c.on_record(&sum, bin));
                }
                let sum = WeightedSum::new(&older, &newest, 1.0);
                let (bins, walked) = read_pair(&mut cursors, &sum, [5.0, 99.0]);
                assert_eq!(bins.map(|b| b[1]), formed_bin(&older, &newest, 1.0, 99.0));
                reads += 1;
                walks += walked as u32;
            }
            older.add_scaled(&newest, 0.85f64.powi(day));
        }
        assert!(walks * 100 <= reads, "{walks} walks in {reads} reads");
    }
}
