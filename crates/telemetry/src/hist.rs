//! Mergeable fixed-bucket log2 histograms.
//!
//! A latency distribution is captured into 64 power-of-two buckets:
//! bucket 0 holds the value 0 and bucket `i` (1 ≤ i ≤ 62) holds values in
//! `[2^(i-1), 2^i - 1]`; the last bucket absorbs everything from `2^62`
//! up. Recording is a `leading_zeros` and two adds — no floating point,
//! no allocation — and merging two histograms is elementwise `u64`
//! addition, so counts merged across shards and reactors are *exactly*
//! the counts that would have been recorded into a single histogram.
//! That exactness is what lets `/metrics` export true Prometheus
//! `histogram` series whose shard-merged buckets equal the sum of
//! per-shard recordings.

/// Number of buckets in a [`Log2Histogram`].
pub const BUCKETS: usize = 64;

/// A fixed-size power-of-two histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use sitw_telemetry::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// h.record(3);
/// h.record(900);
/// let mut other = Log2Histogram::new();
/// other.record(5);
/// h.merge(&other);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 908);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Reconstructs a histogram from exported raw parts (`count` is
    /// derived: every recorded sample lands in exactly one bucket, so
    /// the count *is* the bucket total). This is the federation
    /// constructor: a scraper that received a node's raw buckets and
    /// sum rebuilds the histogram here and merges it exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use sitw_telemetry::Log2Histogram;
    ///
    /// let mut h = Log2Histogram::new();
    /// h.record(3);
    /// h.record(900);
    /// let rebuilt = Log2Histogram::from_raw(*h.buckets(), h.sum());
    /// assert_eq!(rebuilt, h);
    /// ```
    pub fn from_raw(buckets: [u64; BUCKETS], sum: u64) -> Self {
        let count = buckets.iter().sum();
        Self {
            buckets,
            count,
            sum,
        }
    }

    /// Index of the bucket that holds `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    ///
    /// # Panics
    ///
    /// Panics when `i >= BUCKETS`.
    #[inline]
    pub fn bucket_upper(i: usize) -> u64 {
        assert!(i < BUCKETS);
        if i == BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Inclusive lower bound of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= BUCKETS`.
    #[inline]
    pub fn bucket_lower(i: usize) -> u64 {
        assert!(i < BUCKETS);
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample in O(1).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Records `n` samples of value `v` in O(1) (batch recording: a
    /// frame of `n` decisions timed once records the per-record mean
    /// `n` times).
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Adds every bucket of `other` into `self` (exact merge).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Mean sample value; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Upper bound of the highest non-empty bucket; `None` when empty.
    ///
    /// An upper bound on the maximum recorded sample (the histogram does
    /// not retain exact maxima).
    pub fn max_bound(&self) -> Option<u64> {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(Self::bucket_upper)
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) by walking the
    /// cumulative counts and interpolating linearly within the bucket
    /// that contains the target rank. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().clamp(1.0, self.count as f64);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= rank {
                let lo = Self::bucket_lower(i) as f64;
                let hi = Self::bucket_upper(i) as f64;
                let frac = (rank - cum as f64) / c as f64;
                return Some(lo + frac * (hi - lo));
            }
            cum = next;
        }
        Some(Self::bucket_upper(BUCKETS - 1) as f64)
    }
}

/// What one `/debug/hist` line describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKey<'a> {
    /// `stage <name> <proto> …`: one pipeline stage and wire protocol.
    Stage(&'a str, &'a str),
    /// `tenant <name> …`: one tenant's decision latency.
    Tenant(&'a str),
}

/// Appends one `/debug/hist` line — the federation wire format:
///
/// ```text
/// stage <name> <proto> <sum_ns> <b0> <b1> ... <b63>
/// tenant <name> <sum_ns> <b0> <b1> ... <b63>
/// ```
///
/// Raw buckets (not the `le`-bounded Prometheus projection), so
/// [`parse_hist_lines`] rebuilds each histogram losslessly and a
/// scraping router can merge exactly.
pub fn write_hist_line(out: &mut String, key: HistKey<'_>, h: &Log2Histogram) {
    use std::fmt::Write as _;
    let _ = match key {
        HistKey::Stage(stage, proto) => write!(out, "stage {stage} {proto}"),
        HistKey::Tenant(name) => write!(out, "tenant {name}"),
    };
    let _ = write!(out, " {}", h.sum());
    for b in h.buckets() {
        let _ = write!(out, " {b}");
    }
    out.push('\n');
}

/// Parses a `/debug/hist` body written by [`write_hist_line`], in line
/// order. `None` on any malformed line — a partial merge would silently
/// undercount — including a bucket count other than [`BUCKETS`].
pub fn parse_hist_lines(body: &str) -> Option<Vec<(HistKey<'_>, Log2Histogram)>> {
    let mut lines = Vec::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let mut toks = line.split_ascii_whitespace();
        let key = match toks.next()? {
            "stage" => HistKey::Stage(toks.next()?, toks.next()?),
            "tenant" => HistKey::Tenant(toks.next()?),
            _ => return None,
        };
        let sum: u64 = toks.next()?.parse().ok()?;
        let mut buckets = [0u64; BUCKETS];
        for b in buckets.iter_mut() {
            *b = toks.next()?.parse().ok()?;
        }
        if toks.next().is_some() {
            return None;
        }
        lines.push((key, Log2Histogram::from_raw(buckets, sum)));
    }
    Some(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hist_lines_round_trip_exactly_and_reject_malformed_bodies() {
        let mut a = Log2Histogram::new();
        a.record_n(1_500, 3);
        a.record(u64::MAX);
        let b = Log2Histogram::new();
        let mut body = String::new();
        write_hist_line(&mut body, HistKey::Stage("decide", "json"), &a);
        write_hist_line(&mut body, HistKey::Tenant("acme"), &b);
        let parsed = parse_hist_lines(&body).unwrap();
        assert_eq!(
            parsed,
            vec![
                (HistKey::Stage("decide", "json"), a),
                (HistKey::Tenant("acme"), b)
            ]
        );
        assert_eq!(parse_hist_lines("").unwrap(), vec![]);
        let line = body.lines().next().unwrap();
        assert!(parse_hist_lines("bogus 1 2 3\n").is_none());
        assert!(parse_hist_lines("stage decide json 100 1 2 3\n").is_none());
        assert!(parse_hist_lines(&format!("{line} 99\n")).is_none());
        assert!(parse_hist_lines(&line.replace(" 3 ", " x ")).is_none());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS {
            assert_eq!(Log2Histogram::bucket_of(Log2Histogram::bucket_lower(i)), i);
            assert_eq!(Log2Histogram::bucket_of(Log2Histogram::bucket_upper(i)), i);
        }
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max_bound(), None);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // log2 buckets bound each estimate within a factor of two.
        assert!((250.0..=1023.0).contains(&p50), "p50 {p50}");
        assert!((512.0..=1023.0).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
        assert_eq!(h.max_bound(), Some(1023));
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut a = Log2Histogram::new();
        a.record_n(37, 5);
        let mut b = Log2Histogram::new();
        for _ in 0..5 {
            b.record(37);
        }
        assert_eq!(a, b);
        a.record_n(9, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_extremes() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(7);
        let p0 = h.quantile(0.0).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        assert_eq!(p0, 0.0);
        assert!((4.0..=7.0).contains(&p100), "p100 {p100}");
    }

    proptest! {
        /// Merging two histograms is exactly recording the concatenated
        /// stream: bucket-exact, sum-exact, count-exact.
        #[test]
        fn merge_equals_concat(
            xs in prop::collection::vec(0u64..u64::MAX, 0..200),
            ys in prop::collection::vec(0u64..u64::MAX, 0..200),
        ) {
            let mut a = Log2Histogram::new();
            for &x in &xs {
                a.record(x);
            }
            let mut b = Log2Histogram::new();
            for &y in &ys {
                b.record(y);
            }
            a.merge(&b);

            let mut both = Log2Histogram::new();
            for &v in xs.iter().chain(ys.iter()) {
                both.record(v);
            }
            prop_assert_eq!(a.buckets(), both.buckets());
            prop_assert_eq!(a.count(), both.count());
            prop_assert_eq!(a.sum(), both.sum());
        }

        #[test]
        fn recorded_value_lands_in_its_bucket(v in 0u64..u64::MAX) {
            let mut h = Log2Histogram::new();
            h.record(v);
            let i = Log2Histogram::bucket_of(v);
            prop_assert!(Log2Histogram::bucket_lower(i) <= v);
            prop_assert!(v <= Log2Histogram::bucket_upper(i));
            prop_assert_eq!(h.buckets()[i], 1);
            prop_assert_eq!(h.count(), 1);
        }
    }
}
