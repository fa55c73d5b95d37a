//! The hybrid histogram policy — the paper's main contribution (§4.2).
//!
//! Per application, the policy tracks idle times (ITs) in a compact
//! range-limited histogram with 1-minute bins and chooses, after every
//! execution, a *(pre-warming window, keep-alive window)* pair:
//!
//! 1. **Too many out-of-bounds ITs** → the histogram cannot represent the
//!    app; forecast the next IT with ARIMA and wrap it in a ±15% margin.
//! 2. **Histogram not representative** (too few ITs, or bin-count CV
//!    below threshold — the ITs are spread widely) → *standard
//!    keep-alive*: stay loaded for the whole histogram range.
//! 3. **Otherwise** → pre-warm at the 5th-percentile IT (rounded down to
//!    its bin edge, −10% margin) and keep alive until the 99th-percentile
//!    IT (rounded up, +10% margin). A head that rounds to zero disables
//!    unloading (Figure 12, middle column).
//!
//! # Cost of a decision
//!
//! Constant in the number of bins (§4.2, §6). Recording is one bin
//! increment; the head and tail cutoffs are each read off a
//! [`PercentileCursor`] that the policy feeds after every in-bounds
//! record, so no decision walks the histogram; the OOB share and the
//! bin-count CV are running totals ([`sitw_stats::BinTotals`]). The
//! idle-time history the ARIMA branch fits is a ring
//! ([`IdleHistory`]): once `history_cap` values are held a new one takes
//! the oldest one's place, and only the ARIMA branch — which needs the
//! values as one slice, oldest first — reads them out. A value is the
//! idle time in minutes, [`idle_minutes`] of its milliseconds, so an
//! owner may keep the milliseconds and rebuild the value bit for bit.
//! That branch asks `sitw_arima` for the one-step forecast alone; the
//! order search runs in the thread's fit workspace, not in the app's
//! state, and allocates nothing once the thread has searched a full
//! history.
//!
//! # One decision body, three owners
//!
//! An app's state is split by size. Its [`HybridRow`] — the totals, the
//! two cursors and the counters, 72 bytes — is fixed;
//! its bins (`range / width` counts) and its history (up to
//! `history_cap` values) are stored by the owner and passed in through
//! [`BinCountsMut`] and an [`IdleHistory`]. [`HybridRow::on_invocation`]
//! records an idle time and decides through two private functions,
//! `record` and `decide`, generic over both and monomorphised for each
//! owner:
//!
//! * a tenant table (`sitw_fleet`) keeps the row in the app's table row,
//!   the app's nonzero bins (or, past 64 of them, all its bins) and its
//!   history of integer milliseconds in per-table size classes, and
//!   reads an app through a [`HybridApp`] view;
//! * a [`HybridPolicy`] keeps a dense `[u32]` of bins and a ring of
//!   minutes in buffers of its own, for per-app replays;
//! * a [`HybridGroup`] calls `record` and `decide` for a replay that runs
//!   several configurations over one stream: the configurations that
//!   share [`HybridConfig::state_key`] (bin count, bin width, history
//!   cap) build identical histograms and histories, so the group records
//!   each idle time once, feeds one cursor per distinct percentile, and
//!   lets each configuration decide on its own head and tail cursor. The
//!   decision counters and the last branch belong to whoever calls
//!   `decide`.
//!
//! # What a snapshot holds
//!
//! The inputs of a decision, in an order that does not depend on the
//! layout: bins, OOB count, history oldest first, decision counters and
//! the last branch. The cursors and the ring position are derived state,
//! like the histogram's running sum of squares: `snapshot()` leaves them
//! out, [`HybridRow::restore`] seeks the cursors, the history starts at
//! its oldest value, and a restored policy decides bit-identically.

use std::collections::VecDeque;

use sitw_arima::{auto_forecast_one, AutoArimaConfig};
use sitw_stats::{BinCounts, BinCountsMut, BinTotals, BinsRef, PercentileCursor, Recorded};

use crate::policy::{AppPolicy, DecisionKind, DurationMs, PolicyFactory, Windows, MINUTE_MS};

/// Configuration of the hybrid histogram policy. Implements
/// [`PolicyFactory`]; each application receives a fresh [`HybridPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Histogram range in minutes (default 240 = 4 hours). §6 quotes 240
    /// one-minute buckets = 960 bytes per app: what an app's bins take
    /// when every bin is held, as a [`HybridPolicy`] holds them and a
    /// tenant table's dense class does. Most apps fill few bins, and a
    /// table holds those as 8-byte entries of their nonzero bins alone.
    pub range_minutes: usize,
    /// Histogram bin width in minutes (default 1, the paper's choice —
    /// "1-minute bins strike a good balance between metadata size and
    /// resolution"; widening it is an ablation knob).
    pub bin_width_minutes: usize,
    /// Head cutoff percentile of the IT distribution for the pre-warming
    /// window (default 5, Figure 16).
    pub head_percentile: f64,
    /// Tail cutoff percentile for the keep-alive window (default 99).
    pub tail_percentile: f64,
    /// Safety margin subtracted from the head (default 0.10).
    pub head_margin: f64,
    /// Safety margin added to the tail (default 0.10).
    pub tail_margin: f64,
    /// Minimum bin-count CV for the histogram to count as representative
    /// (default 2.0, Figure 18).
    pub cv_threshold: f64,
    /// Minimum recorded ITs before trusting the histogram (the "not
    /// enough ITs" condition of §4.2).
    pub min_samples: u64,
    /// Fraction of out-of-bounds ITs beyond which the ARIMA path is used
    /// (default 0.5 — "the histogram does not capture most ITs").
    pub oob_threshold: f64,
    /// Enables the ARIMA path (Figure 19 compares with/without).
    pub use_arima: bool,
    /// Enables unload + pre-warm from the histogram head; when false the
    /// policy only adapts the keep-alive ("Hybrid No PW" in Figure 17).
    pub pre_warming: bool,
    /// Margin applied around the ARIMA IT forecast (default 0.15: the
    /// paper's 5 h forecast ⇒ pre-warm 4.25 h, keep-alive 1.5 h).
    pub arima_margin: f64,
    /// Minimum IT observations before fitting ARIMA.
    pub arima_min_history: usize,
    /// Cap on the retained IT history for ARIMA fitting. With 0 no
    /// history is kept and the ARIMA path always falls back to standard
    /// keep-alive.
    pub history_cap: usize,
    /// ARIMA order-search configuration.
    pub arima: AutoArimaConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            range_minutes: 240,
            bin_width_minutes: 1,
            head_percentile: 5.0,
            tail_percentile: 99.0,
            head_margin: 0.10,
            tail_margin: 0.10,
            cv_threshold: 2.0,
            min_samples: 5,
            oob_threshold: 0.5,
            use_arima: true,
            pre_warming: true,
            arima_margin: 0.15,
            arima_min_history: 4,
            history_cap: 64,
            arima: AutoArimaConfig::default(),
        }
    }
}

impl HybridConfig {
    /// The paper's default configuration with a custom histogram range
    /// in hours (Figure 15 sweeps 1–4 h).
    pub fn with_range_hours(hours: usize) -> Self {
        Self {
            range_minutes: hours * 60,
            ..Self::default()
        }
    }

    /// Same configuration with the ARIMA path disabled ("Hybrid without
    /// ARIMA" in Figure 19).
    pub fn without_arima(mut self) -> Self {
        self.use_arima = false;
        self
    }

    /// Same configuration with different head/tail cutoff percentiles
    /// (Figure 16 sweeps \[0,100\], \[5,100\], \[1,99\], \[5,99\],
    /// \[1,95\], \[5,95\]).
    pub fn with_cutoffs(mut self, head: f64, tail: f64) -> Self {
        self.head_percentile = head;
        self.tail_percentile = tail;
        self
    }

    /// Same configuration with a different CV threshold (Figure 18
    /// sweeps 0, 2, 5, 10).
    pub fn with_cv_threshold(mut self, cv: f64) -> Self {
        self.cv_threshold = cv;
        self
    }

    /// Disables pre-warming: the app is never unloaded eagerly and the
    /// keep-alive runs to the tail cutoff ("Hybrid No PW" in Figure 17).
    pub fn without_pre_warming(mut self) -> Self {
        self.pre_warming = false;
        self
    }

    /// Everything of the configuration that shapes what an app's idle
    /// times build — bin count, bin width (minutes) and history cap.
    /// Configurations with one key record identically and differ only in
    /// how they decide; a [`HybridGroup`] serves them all.
    pub fn state_key(&self) -> (usize, usize, usize) {
        let width = self.bin_width() as usize;
        ((self.range_minutes / width).max(1), width, self.history_cap)
    }

    /// The histogram's bin width in minutes, as a value divisor.
    #[inline]
    pub fn bin_width(&self) -> u64 {
        self.bin_width_minutes.max(1) as u64
    }

    /// The head and tail percentiles as the factors the cursors apply
    /// ([`PercentileCursor::fraction`]).
    #[inline]
    pub fn fractions(&self) -> [f64; 2] {
        [self.head_percentile, self.tail_percentile].map(PercentileCursor::fraction)
    }
}

impl PolicyFactory for HybridConfig {
    type Policy = HybridPolicy;

    fn new_policy(&self) -> HybridPolicy {
        let (bins, _, _) = self.state_key();
        HybridPolicy {
            config: self.clone(),
            row: HybridRow::default(),
            last_decision: DecisionKind::StandardKeepAlive,
            bins: vec![0; bins].into_boxed_slice(),
            history: VecDeque::new(),
        }
    }

    fn label(&self) -> String {
        let arima = if self.use_arima { "" } else { "-noarima" };
        let pw = if self.pre_warming { "" } else { "-nopw" };
        format!(
            "hybrid-{}h[{},{}]cv{}{arima}{pw}",
            self.range_minutes / 60,
            self.head_percentile,
            self.tail_percentile,
            self.cv_threshold,
        )
    }
}

/// Counters of which branch served each decision (used to reproduce the
/// paper's "0.64% of invocations were handled by ARIMA; 9.3% of
/// applications used ARIMA at least once").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Decisions made from the histogram head/tail.
    pub histogram: u64,
    /// Conservative standard keep-alive decisions.
    pub standard: u64,
    /// Decisions from an ARIMA forecast.
    pub arima: u64,
}

impl DecisionCounts {
    /// Total decisions.
    pub fn total(&self) -> u64 {
        self.histogram + self.standard + self.arima
    }

    /// Counts one decision of the hybrid policy's branch `kind`.
    #[inline]
    fn count(&mut self, kind: DecisionKind) {
        match kind {
            DecisionKind::Histogram => self.histogram += 1,
            DecisionKind::Arima => self.arima += 1,
            _ => self.standard += 1,
        }
    }
}

/// Which §4.2 branch the histogram, as it stands, routes a decision to
/// — [`HybridApp::regime`], checked in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Fewer idle times than `min_samples`: standard keep-alive.
    Learning,
    /// Too many out-of-bounds idle times, ARIMA enabled: a forecast
    /// (standard keep-alive when it is unusable).
    OutOfBoundsArima,
    /// Too many out-of-bounds idle times, ARIMA disabled: standard
    /// keep-alive.
    OutOfBoundsStandard,
    /// Bin-count CV below threshold: standard keep-alive.
    NotRepresentative,
    /// The head and tail cutoffs of the histogram.
    Representative,
}

impl Regime {
    /// The regime's name, as `/debug/policy` prints it.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Learning => "learning",
            Regime::OutOfBoundsArima => "out-of-bounds-arima",
            Regime::OutOfBoundsStandard => "out-of-bounds-standard",
            Regime::NotRepresentative => "not-representative",
            Regime::Representative => "representative",
        }
    }
}

/// An idle time of `it` ms as a history value: minutes, `it / 60 000`
/// in `f64`. An owner that keeps `it` rebuilds the value bit for bit.
#[inline]
pub fn idle_minutes(it: DurationMs) -> f64 {
    it as f64 / MINUTE_MS as f64
}

/// The code a history of integer milliseconds keeps for a value that is
/// not [`idle_minutes`] of any `u32` below it: a gap of 49.7 days or
/// more, or a value a snapshot brought. Its owner keeps such a value
/// apart, exactly, and reads it back in its place.
pub const ESCAPED: u32 = u32::MAX;

/// The code of history value `minutes`: the milliseconds below
/// [`ESCAPED`] whose [`idle_minutes`] are its very bits, or [`ESCAPED`].
pub fn history_code(minutes: f64) -> u32 {
    // The nearest whole millisecond, for the check below to confirm:
    // the cast truncates (and saturates NaN and negatives to 0, values
    // past the codes to `u32::MAX`), where `round` is a library call.
    let code = (minutes * MINUTE_MS as f64 + 0.5) as u32;
    if code < ESCAPED && idle_minutes(u64::from(code)).to_bits() == minutes.to_bits() {
        code
    } else {
        ESCAPED
    }
}

/// Where an app's idle-time history is stored: the values the ARIMA
/// branch fits, oldest first, at most a configuration's `history_cap` of
/// them. A [`HybridPolicy`] keeps them in a `VecDeque` of minutes; a
/// tenant table keeps the milliseconds in a ring inside one of its size
/// classes.
pub trait IdleHistory {
    /// Number of values held.
    fn len(&self) -> usize;

    /// True when no value is held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds the idle time `it` (ms) as the newest value,
    /// [`idle_minutes`] of it. When `cap` values are held the oldest
    /// makes room; under a cap of 0 nothing is kept.
    fn push(&mut self, it: DurationMs, cap: usize);

    /// The values, oldest first, as one slice (only the ARIMA branch
    /// asks).
    fn values(&mut self) -> &[f64];
}

impl IdleHistory for VecDeque<f64> {
    fn len(&self) -> usize {
        VecDeque::len(self)
    }

    #[inline]
    fn push(&mut self, it: DurationMs, cap: usize) {
        // Full: the oldest value makes room. Under a cap of 0 there is
        // none, and nothing is kept.
        if self.len() >= cap && self.pop_front().is_none() {
            return;
        }
        self.push_back(idle_minutes(it));
    }

    fn values(&mut self) -> &[f64] {
        VecDeque::make_contiguous(self)
    }
}

/// An app's history as a [`HybridApp`] reads it, oldest first.
#[derive(Debug, Clone, Copy)]
pub enum HistoryView<'a> {
    /// The values, as the two runs of a ring of minutes.
    Minutes([&'a [f64]; 2]),
    /// The idle times in ms, as the two runs of a ring of codes
    /// ([`history_code`]), and the values the [`ESCAPED`] ones stand
    /// for, in order, as the two runs of theirs.
    Millis {
        /// The codes, oldest first.
        codes: [&'a [u32]; 2],
        /// The escaped values, oldest first.
        escaped: [&'a [f64]; 2],
    },
}

impl<'a> HistoryView<'a> {
    /// The values, oldest first.
    pub fn values(self) -> impl Iterator<Item = f64> + 'a {
        let (minutes, codes, escaped) = match self {
            HistoryView::Minutes(runs) => (runs, [&[][..]; 2], [&[][..]; 2]),
            HistoryView::Millis { codes, escaped } => ([&[][..]; 2], codes, escaped),
        };
        let mut escaped = escaped.into_iter().flatten();
        let decoded = codes.into_iter().flatten().map(move |&code| match code {
            ESCAPED => *escaped.next().expect("a value per escaped code"),
            ms => idle_minutes(u64::from(ms)),
        });
        minutes.into_iter().flatten().copied().chain(decoded)
    }
}

/// The fixed-size part of what the hybrid policy has learned about one
/// application: the histogram's running totals, the head and tail
/// cursors and the decision counters — 72 bytes. The bins and the
/// idle-time history are stored by the owner (one row of a tenant
/// table's columns, or a [`HybridPolicy`]'s own buffers) and passed in,
/// and so is the last branch, which the owner keeps in a byte it has
/// room for; the configuration — percentiles, bin width, history cap —
/// is the caller's too. The default is the row of an app not seen yet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HybridRow {
    totals: BinTotals,
    /// The head- and tail-percentile bins, fed every in-bounds record.
    cursors: [PercentileCursor; 2],
    counts: DecisionCounts,
}

impl HybridRow {
    /// The row of a snapshot's app under `config`, around its `bins` —
    /// the snapshot's, already checked by [`HybridSnapshot::check`], in
    /// whichever form their owner keeps — beside its out-of-bounds count
    /// and decision counters: the totals rebuilt and the cursors sought
    /// in one walk.
    pub fn restore<B: BinCounts + ?Sized>(
        config: &HybridConfig,
        bins: &B,
        oob_count: u64,
        counts: DecisionCounts,
    ) -> Self {
        let totals = BinTotals::of(bins, oob_count);
        Self {
            cursors: PercentileCursor::seek_pair(
                bins,
                totals.in_bounds_count(),
                config.fractions(),
            ),
            totals,
            counts,
        }
    }

    /// The policy's decision path: records the idle time that just ended
    /// (`None` at first sight) into `bins` and `history` — this app's,
    /// of `config`'s geometry — and returns the windows for the gap that
    /// starts, under `config`, with the branch that produced them.
    // sitw-lint: hot-path
    #[inline]
    pub fn on_invocation<B: BinCountsMut + ?Sized, H: IdleHistory + ?Sized>(
        &mut self,
        config: &HybridConfig,
        bins: &mut B,
        history: &mut H,
        idle: Option<DurationMs>,
    ) -> (Windows, DecisionKind) {
        let width = config.bin_width();
        if let Some(it) = idle {
            record(
                &mut self.totals,
                bins,
                width,
                &mut self.cursors,
                &config.fractions(),
                history,
                config.history_cap,
                it,
            );
        }
        let [head, tail] = &self.cursors;
        let num_bins = bins.num_bins();
        let shape = Shape::of(&self.totals, num_bins);
        let geometry = (num_bins, width);
        let decided = decide(config, shape, &self.totals, geometry, head, tail, history);
        self.counts.count(decided.1);
        decided
    }

    /// Decision counters so far.
    pub fn decisions(&self) -> DecisionCounts {
        self.counts
    }
}

/// A read-only view of one application's hybrid state: its
/// [`HybridRow`] and last branch beside its bins and its history,
/// wherever they are stored. Whatever decides or reads a threshold takes
/// the [`HybridConfig`] it runs under (a tenant's, or a
/// [`HybridPolicy`]'s).
#[derive(Debug, Clone, Copy)]
pub struct HybridApp<'a> {
    row: &'a HybridRow,
    last_decision: DecisionKind,
    bins: BinsRef<'a>,
    history: HistoryView<'a>,
}

impl<'a> HybridApp<'a> {
    /// The view of `row`, whose last branch was `last_decision`, with its
    /// `bins` and its `history`.
    pub fn new(
        row: &'a HybridRow,
        last_decision: DecisionKind,
        bins: BinsRef<'a>,
        history: HistoryView<'a>,
    ) -> Self {
        Self {
            row,
            last_decision,
            bins,
            history,
        }
    }

    /// The histogram's running totals.
    pub fn totals(&self) -> &'a BinTotals {
        &self.row.totals
    }

    /// The bins, in the form their owner keeps them: read them through
    /// [`BinCounts`] (the geometry's bin count, the non-empty bins) or
    /// [`BinsRef::to_dense`].
    pub fn bins(&self) -> BinsRef<'a> {
        self.bins
    }

    /// Decision counters so far.
    pub fn decisions(&self) -> DecisionCounts {
        self.row.counts
    }

    /// Which branch served the most recent decision.
    pub fn last_decision(&self) -> DecisionKind {
        self.last_decision
    }

    /// The branch the next decision takes on the histogram as it
    /// stands: not enough idle times, too many out of bounds, bin
    /// counts too even, or representative — the one statement of §4.2's
    /// order, which `on_invocation` branches on.
    #[inline]
    pub fn regime(&self, cfg: &HybridConfig) -> Regime {
        Shape::of(&self.row.totals, self.bins.num_bins()).regime(cfg)
    }

    /// Captures the app's complete mutable state.
    pub fn snapshot(&self) -> HybridSnapshot {
        HybridSnapshot {
            bins: self.bins.to_dense(),
            oob_count: self.row.totals.oob_count(),
            history: self.history.values().collect(),
            counts: self.row.counts,
            last_decision: self.last_decision,
        }
    }
}

/// What [`Regime`] reads off a histogram, whatever the thresholds: a
/// [`HybridGroup`] computes it once per record for all its members.
// Cached per group rather than read off the histogram per member: on
// `figures fig14 … fig19` (eleven members in the 4 h group) that took
// the wall time from 2.33 s to 2.05 s, medians of eight alternating
// runs on a 2-vCPU host.
#[derive(Debug, Clone, Copy)]
struct Shape {
    total: u64,
    oob_fraction: f64,
    cv: f64,
}

impl Shape {
    #[inline]
    fn of(totals: &BinTotals, num_bins: usize) -> Self {
        Self {
            total: totals.total_count(),
            oob_fraction: totals.oob_fraction(),
            cv: totals.bin_count_cv(num_bins),
        }
    }

    /// The branch the next decision under `cfg` takes; see
    /// [`HybridApp::regime`].
    #[inline]
    fn regime(self, cfg: &HybridConfig) -> Regime {
        if self.total < cfg.min_samples {
            Regime::Learning
        } else if self.oob_fraction > cfg.oob_threshold {
            if cfg.use_arima {
                Regime::OutOfBoundsArima
            } else {
                Regime::OutOfBoundsStandard
            }
        } else if self.cv < cfg.cv_threshold {
            Regime::NotRepresentative
        } else {
            Regime::Representative
        }
    }
}

/// Records one idle time (Figure 10, first box): one bin increment in
/// `bins` (of `width`), every cursor fed at its fraction, and the time
/// pushed as the newest of a history capped at `cap` values.
// sitw-lint: hot-path
#[inline]
#[allow(clippy::too_many_arguments)]
fn record<B: BinCountsMut + ?Sized, H: IdleHistory + ?Sized>(
    totals: &mut BinTotals,
    bins: &mut B,
    width: u64,
    cursors: &mut [PercentileCursor],
    fractions: &[f64],
    history: &mut H,
    cap: usize,
    it: DurationMs,
) {
    if let Recorded::InBounds { bin } = totals.record(bins, width, it / MINUTE_MS) {
        let in_bounds = totals.in_bounds_count();
        for (cursor, &fraction) in cursors.iter_mut().zip(fractions) {
            cursor.on_record(bins, in_bounds, fraction, bin);
        }
    }
    history.push(it, cap);
}

/// The policy's one decision body: the windows for the gap that starts
/// under `cfg`, read off the histogram (its `totals`, their `shape` and
/// its `(bin count, bin width)`), its `head` and `tail` cursors and the
/// history, with the branch that produced them.
// sitw-lint: hot-path
#[inline]
fn decide<H: IdleHistory + ?Sized>(
    cfg: &HybridConfig,
    shape: Shape,
    totals: &BinTotals,
    (num_bins, width): (usize, u64),
    head: &PercentileCursor,
    tail: &PercentileCursor,
    history: &mut H,
) -> (Windows, DecisionKind) {
    let decided = match shape.regime(cfg) {
        // Too many OOB ITs → time-series forecast (or the conservative
        // fallback when it is unusable).
        Regime::OutOfBoundsArima => arima_windows(cfg, history).map(|w| (w, DecisionKind::Arima)),
        Regime::Representative => {
            let in_bounds = totals.in_bounds_count();
            histogram_windows(cfg, in_bounds, width, head, tail)
                .map(|w| (w, DecisionKind::Histogram))
        }
        // Not enough data, ARIMA disabled, or bin counts too even (CV,
        // Figure 18): be conservative.
        Regime::Learning | Regime::OutOfBoundsStandard | Regime::NotRepresentative => None,
    };
    // The conservative fallback: no unloading, keep-alive spanning the
    // whole histogram range.
    decided.unwrap_or((
        Windows::keep_loaded(num_bins as u64 * width * MINUTE_MS),
        DecisionKind::StandardKeepAlive,
    ))
}

/// The ARIMA branch: a forecast wrapped in the margin; `None` when it is
/// unusable.
fn arima_windows<H: IdleHistory + ?Sized>(cfg: &HybridConfig, history: &mut H) -> Option<Windows> {
    if history.len() < cfg.arima_min_history {
        return None;
    }
    // The fit reads the series oldest first in one slice.
    let series = history.values();
    let pred_minutes = auto_forecast_one(series, cfg.arima).ok()?;
    if !pred_minutes.is_finite() || pred_minutes < 1.0 {
        return None;
    }
    let margin = cfg.arima_margin;
    let pre_warm = pred_minutes * (1.0 - margin);
    let keep_alive = 2.0 * margin * pred_minutes;
    Some(Windows::pre_warmed(
        (pre_warm * MINUTE_MS as f64) as DurationMs,
        (keep_alive * MINUTE_MS as f64).max(MINUTE_MS as f64) as DurationMs,
    ))
}

/// The histogram branch: head/tail cutoffs with margins and the paper's
/// rounding rule, on bins of `width` holding `in_bounds` values.
fn histogram_windows(
    cfg: &HybridConfig,
    in_bounds: u64,
    width: u64,
    head: &PercentileCursor,
    tail: &PercentileCursor,
) -> Option<Windows> {
    let head_min = head.head_value(in_bounds, width)?;
    let tail_min = tail.tail_value(in_bounds, width)?;
    let head_ms = (head_min as f64 * (1.0 - cfg.head_margin)) * MINUTE_MS as f64;
    let tail_ms = (tail_min as f64 * (1.0 + cfg.tail_margin)) * MINUTE_MS as f64;
    Some(if head_min == 0 || !cfg.pre_warming {
        // Head rounded down to zero (Figure 12, middle column) or
        // pre-warming disabled: do not unload.
        Windows::keep_loaded(tail_ms as DurationMs)
    } else {
        let pw = head_ms as DurationMs;
        let ka = (tail_ms - head_ms).max(MINUTE_MS as f64) as DurationMs;
        Windows::pre_warmed(pw, ka)
    })
}

/// One app's learned state shared by every hybrid configuration with
/// one [`HybridConfig::state_key`], for a replay that runs several
/// configurations over one stream: each idle time is recorded once —
/// one bin increment, one feed per distinct percentile's cursor, one
/// history push — and each configuration decides through the body
/// [`HybridRow::on_invocation`] runs, reading its own two cursors. The
/// counters and the last branch are the caller's.
///
/// A configuration deciding here sees exactly the histogram, cursors
/// and history its own [`HybridPolicy`] would hold, so its windows and
/// branches are that policy's, bit for bit.
#[derive(Debug, Clone)]
pub struct HybridGroup {
    totals: BinTotals,
    bins: Box<[u32]>,
    width: u64,
    /// The histogram's shape, as of the last record.
    shape: Shape,
    /// One cursor per percentile [`HybridGroup::new`] was given...
    cursors: Vec<PercentileCursor>,
    /// ...and that percentile as [`PercentileCursor::fraction`] makes it.
    fractions: Vec<f64>,
    history: VecDeque<f64>,
    history_cap: usize,
}

impl HybridGroup {
    /// The state of an app not seen yet under `config`'s
    /// [`HybridConfig::state_key`], with one cursor per entry of
    /// `percentiles`: [`HybridGroup::decide`] names them by index.
    pub fn new(config: &HybridConfig, percentiles: &[f64]) -> Self {
        let (bins, width, history_cap) = config.state_key();
        let totals = BinTotals::default();
        Self {
            cursors: vec![PercentileCursor::default(); percentiles.len()],
            fractions: percentiles
                .iter()
                .map(|&p| PercentileCursor::fraction(p))
                .collect(),
            shape: Shape::of(&totals, bins),
            totals,
            bins: vec![0; bins].into_boxed_slice(),
            width: width as u64,
            history: VecDeque::new(),
            history_cap,
        }
    }

    /// Records the idle time that just ended, once for every member.
    // sitw-lint: hot-path
    #[inline]
    pub fn record(&mut self, idle_ms: DurationMs) {
        record(
            &mut self.totals,
            &mut self.bins[..],
            self.width,
            &mut self.cursors,
            &self.fractions,
            &mut self.history,
            self.history_cap,
            idle_ms,
        );
        self.shape = Shape::of(&self.totals, self.bins.len());
    }

    /// One member's decision under `cfg` — which must have this group's
    /// [`HybridConfig::state_key`] — on the cursors at indices `head` and
    /// `tail`, which must hold its head and tail percentiles: the
    /// windows for the gap that starts, and the branch.
    ///
    /// # Panics
    ///
    /// Panics if `head` or `tail` is not a cursor index.
    #[inline]
    pub fn decide(
        &mut self,
        cfg: &HybridConfig,
        head: usize,
        tail: usize,
    ) -> (Windows, DecisionKind) {
        debug_assert_eq!(
            cfg.state_key(),
            (self.bins.len(), self.width as usize, self.history_cap),
            "one group, one key"
        );
        decide(
            cfg,
            self.shape,
            &self.totals,
            (self.bins.len(), self.width),
            &self.cursors[head],
            &self.cursors[tail],
            &mut self.history,
        )
    }
}

/// Complete serializable state of one hybrid app, excluding the
/// configuration (which the restoring side must already hold — a
/// snapshot is only meaningful under the policy that produced it).
///
/// Restoring ([`HybridPolicy::from_snapshot`], or a tenant table's
/// restore through [`HybridRow::restore`]) is exact: the restored state
/// emits bit-identical decisions to one that observed the original
/// idle-time stream, because every decision input — histogram bins,
/// out-of-bounds count, the capped ARIMA history — is captured.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSnapshot {
    /// Raw histogram bin counts.
    pub bins: Vec<u32>,
    /// Out-of-bounds recordings.
    pub oob_count: u64,
    /// Retained idle times in minutes (most recent last), for ARIMA.
    pub history: Vec<f64>,
    /// Decision counters so far.
    pub counts: DecisionCounts,
    /// The branch that served the most recent decision.
    pub last_decision: DecisionKind,
}

impl HybridSnapshot {
    /// Checks that the snapshot fits `config`: its bin count, and a
    /// history no longer than the cap.
    ///
    /// # Errors
    ///
    /// Says which of the two does not fit.
    pub fn check(&self, config: &HybridConfig) -> Result<(), String> {
        let (expected_bins, _, cap) = config.state_key();
        if self.bins.len() != expected_bins {
            return Err(format!(
                "snapshot has {} bins but config expects {expected_bins}",
                self.bins.len()
            ));
        }
        if self.history.len() > cap {
            return Err(format!(
                "snapshot history ({}) exceeds config cap ({cap})",
                self.history.len(),
            ));
        }
        Ok(())
    }
}

/// The hybrid policy as an [`AppPolicy`]: one app's [`HybridRow`], bins
/// and history in buffers of its own, beside the configuration it runs
/// under, for the per-app replays (`sitw_sim`, the platform model) that
/// hold no tenant. It decides through the same [`HybridRow::on_invocation`]
/// a tenant table runs over its columns.
#[derive(Debug, Clone)]
pub struct HybridPolicy {
    config: HybridConfig,
    row: HybridRow,
    last_decision: DecisionKind,
    bins: Box<[u32]>,
    /// Recent ITs in minutes (for the ARIMA path), oldest first: a ring
    /// of at most `history_cap` values.
    history: VecDeque<f64>,
}

impl HybridPolicy {
    /// The app's state: decision counters, histogram, snapshot.
    pub fn app(&self) -> HybridApp<'_> {
        let (older, newer) = self.history.as_slices();
        HybridApp::new(
            &self.row,
            self.last_decision,
            BinsRef::Dense(&self.bins),
            HistoryView::Minutes([older, newer]),
        )
    }

    /// Rebuilds a policy from a snapshot taken under the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot's histogram geometry or history length
    /// does not fit `config` ([`HybridSnapshot::check`]).
    pub fn from_snapshot(config: &HybridConfig, snap: HybridSnapshot) -> Result<Self, String> {
        snap.check(config)?;
        let row = HybridRow::restore(config, &snap.bins[..], snap.oob_count, snap.counts);
        // The snapshot decoder allocates the list at its length, and a
        // full ring doubles: restored at 40 values it would grow to 80
        // slots under a cap of 64. It starts where a fresh ring holding
        // as many stands — a power of two, at least 4 — never past the
        // cap.
        let mut history = VecDeque::from(snap.history);
        if !history.is_empty() {
            let fresh = history.len().next_power_of_two().max(4);
            history.reserve_exact(fresh.min(config.history_cap) - history.len());
        }
        Ok(Self {
            config: config.clone(),
            row,
            last_decision: snap.last_decision,
            bins: snap.bins.into_boxed_slice(),
            history,
        })
    }
}

impl AppPolicy for HybridPolicy {
    fn on_invocation(&mut self, idle_time_ms: Option<DurationMs>) -> Windows {
        let (windows, kind) = self.row.on_invocation(
            &self.config,
            &mut self.bins[..],
            &mut self.history,
            idle_time_ms,
        );
        self.last_decision = kind;
        windows
    }

    fn last_decision(&self) -> DecisionKind {
        self.last_decision
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid_ref::RefHybrid;
    use proptest::prelude::*;

    const MIN: DurationMs = MINUTE_MS;

    fn default_policy() -> HybridPolicy {
        HybridConfig::default().new_policy()
    }

    #[test]
    fn first_invocations_use_standard_keep_alive() {
        let mut p = default_policy();
        let w = p.on_invocation(None);
        assert_eq!(w, Windows::keep_loaded(240 * MIN));
        assert_eq!(p.last_decision(), DecisionKind::StandardKeepAlive);
        // Still learning below min_samples.
        for _ in 0..3 {
            let w = p.on_invocation(Some(10 * MIN));
            assert_eq!(w, Windows::keep_loaded(240 * MIN));
        }
    }

    #[test]
    fn concentrated_pattern_switches_to_histogram() {
        let mut p = default_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..20 {
            last = p.on_invocation(Some(10 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // All ITs in bin 10: head = 10 (floor), tail = 11 (ceil).
        // pre-warm = 10 × 0.9 = 9 min; keep-alive = 11×1.1 − 9 = 3.1 min.
        assert_eq!(last.pre_warm_ms, 9 * MIN);
        assert_eq!(last.keep_alive_ms, (3.1 * MIN as f64) as u64);
        // The true IT (10 min) falls inside the loaded window.
        assert!(last.is_warm_at(10 * MIN));
    }

    #[test]
    fn head_bin_zero_disables_unloading() {
        let mut p = default_policy();
        p.on_invocation(None);
        // ITs under one minute land in bin 0.
        let mut last = Windows::keep_loaded(0);
        for _ in 0..20 {
            last = p.on_invocation(Some(30_000));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        assert_eq!(last.pre_warm_ms, 0);
        // Tail = bin 0 upper edge = 1 minute, ×1.1.
        assert_eq!(last.keep_alive_ms, (1.1 * MIN as f64) as u64);
    }

    #[test]
    fn spread_pattern_falls_back_to_standard() {
        // ITs spread uniformly over many bins: CV of bin counts < 2.
        let mut p = default_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for i in 0..240u64 {
            last = p.on_invocation(Some(((i * 7919) % 239 + 1) * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::StandardKeepAlive);
        assert_eq!(last, Windows::keep_loaded(240 * MIN));
        // Early decisions may use the sparse histogram (few samples in
        // distinct bins have a high CV); once the spread accumulates the
        // CV drops below threshold and the bulk must be conservative.
        assert!(
            p.app().decisions().standard > 150,
            "standard decisions: {:?}",
            p.app().decisions()
        );
    }

    #[test]
    fn oob_heavy_app_uses_arima() {
        let mut p = default_policy();
        p.on_invocation(None);
        // Idle times ~300 minutes — past the 240-minute range.
        let mut last = Windows::keep_loaded(0);
        for i in 0..12u64 {
            last = p.on_invocation(Some((300 + (i % 3)) * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Arima);
        assert!(p.app().decisions().arima > 0);
        // Forecast ≈ 300 min ⇒ pre-warm ≈ 255 min, keep-alive ≈ 90 min.
        let pw_min = last.pre_warm_ms as f64 / MIN as f64;
        let ka_min = last.keep_alive_ms as f64 / MIN as f64;
        assert!((230.0..280.0).contains(&pw_min), "pre-warm {pw_min}");
        assert!((60.0..120.0).contains(&ka_min), "keep-alive {ka_min}");
        // The true IT is warm under these windows.
        assert!(last.is_warm_at(300 * MIN));
    }

    #[test]
    fn oob_heavy_without_arima_stays_conservative() {
        let mut p = HybridConfig::default().without_arima().new_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..12 {
            last = p.on_invocation(Some(300 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::StandardKeepAlive);
        assert_eq!(last, Windows::keep_loaded(240 * MIN));
        assert_eq!(p.app().decisions().arima, 0);
        // 300-minute idle times are cold under a 240-minute keep-alive.
        assert!(!last.is_warm_at(300 * MIN));
    }

    #[test]
    fn paper_example_five_hour_forecast_margins() {
        // §4.2: "if the predicted IT is 5 hours, we set the pre-warming
        // window to 4.25 hours and the keep-alive window to 1.5 hours".
        let mut p = default_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..16 {
            last = p.on_invocation(Some(300 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Arima);
        assert_eq!(last.pre_warm_ms, 255 * MIN); // 4.25 h.
        assert_eq!(last.keep_alive_ms, 90 * MIN); // 1.5 h.
    }

    #[test]
    fn regime_change_reverts_to_standard_then_relearn() {
        let mut p = default_policy();
        p.on_invocation(None);
        for _ in 0..30 {
            p.on_invocation(Some(10 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // Shift to a new regime: the histogram spreads, CV drops slowly;
        // eventually mass concentrates at 60 and the histogram is used
        // with the new head/tail.
        let mut last = Windows::keep_loaded(0);
        for _ in 0..200 {
            last = p.on_invocation(Some(60 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // Tail now covers the 60-minute idle time.
        assert!(last.is_warm_at(60 * MIN));
    }

    #[test]
    fn cutoff_configuration_changes_windows() {
        // Two IT modes: 10 min (95%) and 100 min (5%).
        let run = |cfg: HybridConfig| {
            let mut p = cfg.new_policy();
            p.on_invocation(None);
            let mut last = Windows::keep_loaded(0);
            for i in 0..100u64 {
                let it = if i % 20 == 19 { 100 } else { 10 };
                last = p.on_invocation(Some(it * MIN));
            }
            last
        };
        let wide = run(HybridConfig::default().with_cutoffs(0.0, 100.0));
        let narrow = run(HybridConfig::default().with_cutoffs(5.0, 95.0));
        // Narrow cutoffs exclude the 100-minute outliers: the loaded
        // interval is much shorter (less wasted memory, Figure 16).
        assert!(narrow.keep_alive_ms < wide.keep_alive_ms);
    }

    #[test]
    fn cv_zero_always_trusts_histogram() {
        let mut p = HybridConfig::default().with_cv_threshold(0.0).new_policy();
        p.on_invocation(None);
        // Even a widely spread histogram is "representative" at CV 0.
        let mut last = Windows::keep_loaded(0);
        for i in 0..240u64 {
            last = p.on_invocation(Some(((i * 7919) % 239 + 1) * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        assert!(last.pre_warm_ms > 0);
    }

    #[test]
    fn no_pre_warming_variant_keeps_loaded() {
        let mut p = HybridConfig::default().without_pre_warming().new_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..30 {
            last = p.on_invocation(Some(10 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // No pre-warming: stays loaded until the tail (11 min × 1.1).
        assert_eq!(last.pre_warm_ms, 0);
        assert_eq!(last.keep_alive_ms, (12.1 * MIN as f64) as u64);
    }

    #[test]
    fn decision_counts_add_up() {
        let mut p = default_policy();
        p.on_invocation(None);
        for i in 0..50u64 {
            p.on_invocation(Some((i % 12) * MIN));
        }
        let c = p.app().decisions();
        assert_eq!(c.total(), 51);
    }

    #[test]
    fn label_encodes_configuration() {
        assert_eq!(HybridConfig::default().label(), "hybrid-4h[5,99]cv2");
        assert_eq!(
            HybridConfig::with_range_hours(2).without_arima().label(),
            "hybrid-2h[5,99]cv2-noarima"
        );
    }

    #[test]
    fn snapshot_restore_is_exact_mid_stream() {
        // Feed a mixed stream, snapshot mid-way, and check the restored
        // policy's subsequent decisions are bit-identical to the
        // uninterrupted original — including the ARIMA branch, whose
        // inputs (the capped history) are part of the snapshot.
        let its: Vec<DurationMs> = (0..60)
            .map(|i| match i % 5 {
                0 => 10 * MIN,
                1 => 11 * MIN,
                2 => 300 * MIN,
                3 => 10 * MIN,
                _ => 295 * MIN,
            })
            .collect();

        let mut original = default_policy();
        original.on_invocation(None);
        for &it in &its[..30] {
            original.on_invocation(Some(it));
        }

        let cfg = HybridConfig::default();
        let snap = original.app().snapshot();
        let mut restored = HybridPolicy::from_snapshot(&cfg, snap.clone()).unwrap();
        assert_eq!(restored.app().snapshot(), snap);
        assert_eq!(restored.last_decision(), original.last_decision());
        assert_eq!(restored.app().decisions(), original.app().decisions());

        for &it in &its[30..] {
            let a = original.on_invocation(Some(it));
            let b = restored.on_invocation(Some(it));
            assert_eq!(a, b, "diverged at idle time {it}");
            assert_eq!(original.last_decision(), restored.last_decision());
        }
    }

    #[test]
    fn snapshot_restore_rejects_wrong_geometry() {
        let mut p = default_policy();
        p.on_invocation(None);
        let snap = p.app().snapshot();
        let err = HybridPolicy::from_snapshot(&HybridConfig::with_range_hours(1), snap);
        assert!(err.is_err());
    }

    #[test]
    fn history_capped() {
        let cfg = HybridConfig {
            history_cap: 8,
            ..HybridConfig::default()
        };
        let mut p = cfg.new_policy();
        p.on_invocation(None);
        for i in 0..50u64 {
            p.on_invocation(Some((300 + i) * MIN));
        }
        assert!(p.history.len() <= 8);
        // The last eight, oldest first, wherever the ring stands.
        let kept: Vec<f64> = (342..350).map(f64::from).collect();
        assert_eq!(p.app().snapshot().history, kept);
    }

    #[test]
    fn a_restored_history_grows_no_further_than_a_fresh_one() {
        // Regression: a ring restored at 40 values (allocated exactly)
        // doubled to 80 slots on its next push, past the cap of 64.
        let cfg = HybridConfig::default();
        let mut snap = cfg.new_policy().app().snapshot();
        snap.history = (0..40).map(f64::from).collect();
        let mut app = HybridPolicy::from_snapshot(&cfg, snap).unwrap();
        for i in 0..30u64 {
            app.on_invocation(Some((300 + i) * MIN));
        }
        assert_eq!(app.history.len(), 64);
        assert!(app.history.capacity() <= 64, "{}", app.history.capacity());
    }

    #[test]
    fn zero_history_cap_keeps_nothing_and_stays_conservative() {
        // Regression: the first idle time used to `remove(0)` from an
        // empty vector.
        let cfg = HybridConfig {
            history_cap: 0,
            arima_min_history: 0,
            ..HybridConfig::default()
        };
        let mut p = cfg.new_policy();
        p.on_invocation(None);
        for _ in 0..12 {
            let w = p.on_invocation(Some(300 * MIN));
            assert_eq!(w, Windows::keep_loaded(240 * MIN));
        }
        assert!(p.app().snapshot().history.is_empty());
        assert_eq!(p.app().decisions().arima, 0);
        assert_eq!(p.app().totals().oob_count(), 12);
    }

    #[test]
    fn full_bin_in_a_snapshot_restores_to_the_same_decisions() {
        // Regression: a record into a bin at `u32::MAX` used to bump
        // the in-bounds total without the bin, so the policy that wrote
        // a snapshot and the one restored from it parted ways.
        let mut bins = vec![0; 240];
        bins[10] = u32::MAX;
        bins[200] = u32::MAX / 99 - 1_000;
        let snap = HybridSnapshot {
            bins,
            oob_count: 0,
            history: vec![10.0; 64],
            counts: DecisionCounts::default(),
            last_decision: DecisionKind::Histogram,
        };
        let cfg = HybridConfig::default();
        let mut writer = HybridPolicy::from_snapshot(&cfg, snap).unwrap();
        // The 99th percentile sits in the full bin, a thousand counts
        // from leaving it; a total that grew without its bin crosses.
        for i in 0..20_000u64 {
            let w = writer.on_invocation(Some(10 * MIN + i % 7));
            assert_eq!(w.pre_warm_ms, 9 * MIN, "at {i}");
            assert_eq!(w.keep_alive_ms, (3.1 * MIN as f64) as u64, "at {i}");
        }
        let mut restored = HybridPolicy::from_snapshot(&cfg, writer.app().snapshot()).unwrap();
        for it in [10 * MIN, 200 * MIN, 10 * MIN, 30 * MIN] {
            assert_eq!(
                writer.on_invocation(Some(it)),
                restored.on_invocation(Some(it))
            );
        }
        assert_eq!(writer.app().snapshot(), restored.app().snapshot());
    }

    /// One configuration off the figure grid (Figures 15–19) plus the
    /// bin-width ablation and a history cap small enough to wrap often.
    fn grid_config(mut bits: u64) -> HybridConfig {
        let mut take = |n: u64| {
            let v = bits % n;
            bits /= n;
            v as usize
        };
        let (head, tail) = [
            (0.0, 100.0),
            (5.0, 100.0),
            (1.0, 99.0),
            (5.0, 99.0),
            (1.0, 95.0),
            (5.0, 95.0),
        ][take(6)];
        let mut cfg = HybridConfig::with_range_hours(1 + take(4))
            .with_cutoffs(head, tail)
            .with_cv_threshold([0.0, 2.0, 5.0, 10.0][take(4)]);
        cfg.bin_width_minutes = [1, 5][take(2)];
        cfg.history_cap = [1, 6, 16, 64][take(4)];
        if take(4) == 0 {
            cfg = cfg.without_arima();
        }
        if take(4) == 0 {
            cfg = cfg.without_pre_warming();
        }
        cfg
    }

    /// One idle time of a stream that moves through regimes forty steps
    /// long — mostly out of bounds, clustered, spread over the range —
    /// so the out-of-bounds share crosses its threshold both ways.
    fn regime_idle_time(cfg: &HybridConfig, step: usize, offset: usize, mut bits: u64) -> u64 {
        let mut take = |n: u64| {
            let v = bits % n;
            bits /= n;
            v
        };
        let range = cfg.range_minutes as u64;
        let minutes = match ((step / 40 + offset) % 3, take(8)) {
            (0, 1..) => range + take(120),
            (1, 1..) => range / 5 + take(3),
            _ => take(range),
        };
        minutes * MIN + take(MIN)
    }

    /// The property above on the benchmark's own input: every invocation
    /// of the `sim-sweep` population (4 000 apps × 7 days, seed 1) under
    /// both hybrids the sweep runs.
    #[test]
    #[ignore = "2 × 6.4 M decisions against the O(bins) reference; run with --release"]
    fn every_sweep_invocation_equals_the_reference() {
        use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig};
        let population = build_population(&PopulationConfig {
            num_apps: 4_000,
            seed: 0x5171_7E57,
        });
        let trace_cfg = TraceConfig {
            horizon_ms: 7 * sitw_trace::DAY_MS,
            cap_per_day: 600.0,
            seed: 1 ^ 0x10AD,
        };
        for cfg in [
            HybridConfig::default(),
            HybridConfig::default().without_arima(),
        ] {
            let (mut invocations, mut cold) = (0u64, 0u64);
            let mut counts = DecisionCounts::default();
            for app in &population.apps {
                let mut policy = cfg.new_policy();
                let mut reference = RefHybrid::new(cfg.clone());
                let mut prev: Option<(u64, Windows)> = None;
                for t in app_invocations(app, &trace_cfg) {
                    let idle = prev.map(|(at, _)| t - at);
                    cold += prev.map_or(1, |(at, w)| w.classify_gap(t - at).cold as u64);
                    let w = policy.on_invocation(idle);
                    assert_eq!(w, reference.on_invocation(idle), "app {}", app.id);
                    assert_eq!(policy.last_decision(), reference.last_decision());
                    prev = Some((t, w));
                    invocations += 1;
                }
                assert_eq!(
                    policy.app().snapshot(),
                    reference.snapshot(),
                    "app {}",
                    app.id
                );
                let d = policy.app().decisions();
                counts.histogram += d.histogram;
                counts.standard += d.standard;
                counts.arima += d.arima;
            }
            println!(
                "{}: {invocations} invocations, {cold} cold, {counts:?}",
                cfg.label()
            );
            assert_eq!(invocations, 6_409_810);
            assert_eq!(counts.total(), invocations);
        }
    }

    proptest! {
        /// The policy equals the walk-and-shift reference at every step:
        /// windows, branch, counters and the whole snapshot — over
        /// streams that wrap the history ring several times and enter
        /// and leave the ARIMA branch, across the figure grid's
        /// configurations, with the policy rebuilt from its own snapshot
        /// mid-stream.
        #[test]
        fn policy_equals_the_walk_and_shift_reference(
            shape in 0u64..u64::MAX,
            ops in prop::collection::vec(0u64..u64::MAX, 1..400),
        ) {
            let cfg = grid_config(shape);
            let offset = (shape >> 40) as usize;
            let mut policy = cfg.new_policy();
            let mut reference = RefHybrid::new(cfg.clone());
            prop_assert_eq!(policy.on_invocation(None), reference.on_invocation(None));
            for (step, bits) in ops.into_iter().enumerate() {
                if bits >> 20 & 63 == 0 {
                    let restored = HybridPolicy::from_snapshot(&cfg, policy.app().snapshot());
                    prop_assert!(restored.is_ok());
                    policy = restored.unwrap();
                }
                let it = regime_idle_time(&cfg, step, offset, bits);
                prop_assert_eq!(
                    policy.on_invocation(Some(it)),
                    reference.on_invocation(Some(it))
                );
                prop_assert_eq!(policy.last_decision(), reference.last_decision());
                prop_assert_eq!(policy.app().decisions(), reference.decisions());
                prop_assert_eq!(policy.app().snapshot(), reference.snapshot());
            }
        }
    }
}
