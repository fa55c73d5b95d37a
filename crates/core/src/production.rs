//! Production-style histogram management (§6).
//!
//! The Azure Functions implementation differs from the simulation policy
//! in bookkeeping, not in substance:
//!
//! * one histogram of 240 one-minute integer buckets (960 bytes) per
//!   application, kept in memory;
//! * a **new histogram per day**, retained for two weeks, so pattern
//!   changes can be tracked; the daily histograms can be aggregated "in a
//!   weighted fashion to give more importance to recent records";
//! * hourly backups to a database (modelled here as a backup counter and
//!   serialized-size accounting);
//! * pre-warm events scheduled at the computed interval **minus 90
//!   seconds**, off the critical path.
//!
//! An app's state is one [`ProductionApp`] — its retained days and
//! cached aggregate — held in its row of a column beside the tenant's
//! app table (or in a [`ProductionPolicy`] for per-app replays);
//! [`ProductionManager`] is only the tenant's configuration and backup
//! clock, with no map of apps. Decisions are [`crate::HybridConfig`]'s
//! `(pre-warm, keep-alive)` pairs, computed from the weighted aggregate.
//!
//! # Decision cost
//!
//! [`ProductionApp::aggregate`] is the definition: fold every
//! retained day, oldest first, into fresh [`WeightedBins`] under its
//! recency weight, and walk it from bin 0 to each percentile. A
//! decision runs neither. Each app caches the weighted sum of every
//! retained day **except the newest** as of the current day index
//! (`older`), and the decision's aggregate is the [`WeightedSum`]
//! `older[i] + w_newest × newest[i]`: the very expression the
//! definition's last `add_scaled` stores, over the same partial sums in
//! the same order (days are kept oldest first, so the newest day is the
//! last addend; both paths weight a day through
//! `ProductionConfig::day_weight`). Three events rebuild `older` — the
//! day index of the decision differs from the one it was built for, a
//! day is pushed or expired, the app is imported — so the days × bins
//! fold runs at most once per app per day.
//!
//! Head and tail are read off two [`WeightedCursor`]s, one per
//! percentile, with no walk. Each keeps its bin `t`, an estimate `Q` of
//! the exact prefix sum up to `t`, and the count `m` of updates since
//! it was seated; a record into bin `r ≤ t` of the newest day adds the
//! change of term `r` to `Q`. A decision recomputes the total and the
//! target `T` by the walk's own expressions and takes `t` when the
//! certificate holds:
//!
//! ```text
//! c_t > 0,   Q − B ≥ T,   (Q − c_t) + B < T,   B = (n + 2m + 8) · ε · 2 · total
//! ```
//!
//! for `n` bins and `ε = f64::EPSILON`. `B` bounds, rigorously, how far
//! the walk's rounded running sums stray from the exact prefix sums (the
//! standard `γ_n` bound for summing non-negative terms, `≈ (n/2) ε` of
//! the sum) plus how far `Q` has drifted (as much again from its seat,
//! `ε` of the sum per update), with a factor of two to spare and the sum
//! bounded by twice the total; the derivation is on [`WeightedCursor`].
//! Since the walk's partial sums only grow, the certificate places the
//! walk's answer at `t` exactly, so the windows are bit-identical to the
//! definition's, not merely close; debug builds assert it on every
//! certified decision. When either cursor cannot certify, one walk
//! re-seats both; a rebuild of `older` unseats them, so the first
//! decision of each day walks. The windows of the seated bins are kept
//! beside the cursors, so a certified decision returns them as they are.
//!
//! On the `sim-sweep` population (4 000 apps × 7 days, seeds 1 and 3)
//! 98.6 % of decisions are certified and 1.3 % walk: a quarter of those
//! the first decision after a rebuild, the rest a percentile that moved
//! to another bin or sits too near a tie to certify. A decision
//! allocates nothing. The cache and the cursors are derived state: never
//! exported, rebuilt by an imported app on its first decision. The cache
//! costs 240 `f64` = 1.9 KB per app, beside up to 14 × 960 B of daily
//! histograms; the cursors and their windows live in the app's slot.

use sitw_stats::histogram::{WeightedBins, WeightedCursor, WeightedSum};
use sitw_stats::{RangeHistogram, Recorded};

use crate::policy::{AppPolicy, DecisionKind, DurationMs, PolicyFactory, Windows, MINUTE_MS};

/// One day of trace time; an instant's day index is `now_ms / DAY_MS`.
const DAY_MS: DurationMs = 24 * 60 * MINUTE_MS;

/// [`ProductionApp`]'s `older_as_of` when the cache must be rebuilt
/// whatever the day: no day index reaches it (`u64::MAX / DAY_MS` is far
/// below), and a plain `u64` keeps the app inside its slot's bytes.
const STALE: u64 = u64::MAX;

/// Weighting applied across a window of daily histograms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecencyWeighting {
    /// Every retained day weighs the same.
    Uniform,
    /// Day `d` days in the past weighs `decay^d` (0 < decay ≤ 1).
    Exponential {
        /// Per-day decay factor.
        decay: f64,
    },
}

impl RecencyWeighting {
    fn weight(&self, age_days: u64) -> f64 {
        match self {
            RecencyWeighting::Uniform => 1.0,
            RecencyWeighting::Exponential { decay } => decay.powi(age_days as i32),
        }
    }
}

/// Configuration of the production manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductionConfig {
    /// Histogram range in minutes (240 in production).
    pub range_minutes: usize,
    /// Days of daily histograms retained (14 in production).
    pub retention_days: u64,
    /// Daily-histogram weighting for aggregation.
    pub weighting: RecencyWeighting,
    /// Head cutoff percentile (as in the hybrid policy).
    pub head_percentile: f64,
    /// Tail cutoff percentile.
    pub tail_percentile: f64,
    /// Margin subtracted from the head / added to the tail.
    pub margin: f64,
    /// Pre-warm events fire this much *earlier* than the computed window
    /// (90 s in production).
    pub prewarm_slack_ms: DurationMs,
    /// Backups are taken at this interval (hourly in production).
    pub backup_interval_ms: DurationMs,
}

impl Default for ProductionConfig {
    fn default() -> Self {
        Self {
            range_minutes: 240,
            retention_days: 14,
            weighting: RecencyWeighting::Exponential { decay: 0.85 },
            head_percentile: 5.0,
            tail_percentile: 99.0,
            margin: 0.10,
            prewarm_slack_ms: 90_000,
            backup_interval_ms: 3_600_000,
        }
    }
}

impl ProductionConfig {
    /// Weight of the histogram recorded on `day` in an aggregate taken
    /// on day `today`, `None` once it has aged out of the retention
    /// window. The one place a day is weighted: the from-scratch
    /// aggregate and the cached decision both come through here.
    fn day_weight(&self, today: u64, day: u64) -> Option<f64> {
        let age = today.saturating_sub(day);
        (age < self.retention_days).then(|| self.weighting.weight(age))
    }

    /// Replaces `into` with the weighted sum of `days` (oldest first) as
    /// of day `today`.
    fn fold_days(&self, days: &[(u64, RangeHistogram)], today: u64, into: &mut WeightedBins) {
        into.clear();
        for (day, hist) in days {
            // Expiry normally happens when a record arrives, but an app
            // that has been idle past the retention window still holds
            // its stale days — they must not leak into decisions.
            if let Some(weight) = self.day_weight(today, *day) {
                into.add_scaled(hist, weight);
            }
        }
    }

    /// The windows for a head and tail cutoff in minutes (the hybrid
    /// policy's rule: margins applied, bin-0 heads never unload).
    fn windows_from(&self, head: u64, tail: u64) -> Windows {
        let head_ms = (head as f64 * (1.0 - self.margin) * MINUTE_MS as f64) as DurationMs;
        let tail_ms = (tail as f64 * (1.0 + self.margin) * MINUTE_MS as f64) as DurationMs;
        if head == 0 {
            Windows::keep_loaded(tail_ms)
        } else {
            Windows::pre_warmed(head_ms, tail_ms.saturating_sub(head_ms).max(MINUTE_MS))
        }
    }

    /// The decision served while no usable aggregate exists: stay loaded
    /// for the whole histogram range.
    fn standard_keep_alive(&self) -> (Windows, DecisionKind) {
        (
            Windows::keep_loaded(self.range_minutes as DurationMs * MINUTE_MS),
            DecisionKind::StandardKeepAlive,
        )
    }
}

/// One application's retained daily histograms, the cached aggregate
/// of every day but the newest and the head/tail cursors over the
/// decision's sum (see the module docs), without configuration: every
/// method takes the [`ProductionConfig`].
#[derive(Debug, Clone)]
pub struct ProductionApp {
    /// `(day_index, histogram)`. Invariant: day indices strictly
    /// increasing, so the newest day is last — what `import` checks,
    /// what `record_idle_time` preserves, and what lets the cache leave
    /// exactly one day out.
    days: Vec<(u64, RangeHistogram)>,
    /// Weighted sum of `days[..len - 1]` as of day `older_as_of`.
    older: WeightedBins,
    /// Day index `older` was folded for, or [`STALE`].
    older_as_of: u64,
    /// The newest day's weight as of `older_as_of`: 0 once that day has
    /// expired, when every older day has too and the sum holds nothing.
    newest_weight: f64,
    /// Head and tail cursors over `older + newest_weight × newest`,
    /// unseated whenever `older` is rebuilt.
    cursors: [WeightedCursor; 2],
    /// The windows of the bins the cursors were seated on: what a
    /// decision they both certify returns.
    windows: Windows,
    /// Rebuilds of `older` so far: the cost the cache exists to bound.
    #[cfg(test)]
    rebuilds: u64,
    /// Exact walks (cursor seeks) so far: the cost the cursors bound.
    #[cfg(test)]
    walks: u64,
}

impl ProductionApp {
    /// The state of an app with nothing recorded yet. Its cache buffer
    /// is allocated here, where the app is created, so that no decision
    /// allocates it.
    pub fn new(config: &ProductionConfig) -> Self {
        Self {
            days: Vec::new(),
            older: WeightedBins::new(config.range_minutes, 1),
            older_as_of: STALE,
            newest_weight: 0.0,
            cursors: [WeightedCursor::default(); 2],
            windows: Windows::NEVER_UNLOAD,
            #[cfg(test)]
            rebuilds: 0,
            #[cfg(test)]
            walks: 0,
        }
    }

    /// Records an idle time observed at absolute time `now_ms` into the
    /// current day's histogram, moves the decision's cursors, and
    /// expires days that left the retention window. An observation
    /// stamped on an earlier day than the newest retained one (clock
    /// skew) goes into the newest day.
    pub fn record_idle_time(
        &mut self,
        config: &ProductionConfig,
        now_ms: DurationMs,
        idle_ms: DurationMs,
    ) {
        let day = now_ms / DAY_MS;
        let newest = match self.days.last_mut() {
            // A clock that steps back across midnight must not reorder
            // history: the newest day takes the observation.
            Some((newest, hist)) if *newest >= day => {
                // The cursors follow the sum they were seated on until
                // the next rebuild, which unseats them.
                match hist.record(idle_ms / MINUTE_MS) {
                    Recorded::InBounds { bin } if self.older_as_of != STALE => {
                        let sum = WeightedSum::new(&self.older, hist, self.newest_weight);
                        for cursor in &mut self.cursors {
                            cursor.on_record(&sum, bin);
                        }
                    }
                    _ => {}
                }
                *newest
            }
            _ => {
                let mut hist = RangeHistogram::new(config.range_minutes, 1);
                hist.record(idle_ms / MINUTE_MS);
                self.days.push((day, hist));
                self.older_as_of = STALE;
                day
            }
        };
        let cutoff = newest.saturating_sub(config.retention_days.saturating_sub(1));
        if self
            .days
            .first()
            .is_some_and(|(oldest, _)| *oldest < cutoff)
        {
            self.days.retain(|(d, _)| *d >= cutoff);
            self.older_as_of = STALE;
        }
    }

    /// The weighted aggregate histogram as of the day of `now_ms`,
    /// folded from scratch: the definition the cached decision is
    /// tested against. `None` when no retained day carries weight.
    pub fn aggregate(&self, config: &ProductionConfig, now_ms: DurationMs) -> Option<WeightedBins> {
        let mut agg = WeightedBins::new(config.range_minutes, 1);
        config.fold_days(&self.days, now_ms / DAY_MS, &mut agg);
        (!agg.is_empty()).then_some(agg)
    }

    /// The `(pre-warm, keep-alive)` windows from the weighted aggregate;
    /// `None` when no data exists yet (callers then use their
    /// conservative default).
    pub fn windows(&self, config: &ProductionConfig, now_ms: DurationMs) -> Option<Windows> {
        let agg = self.aggregate(config, now_ms)?;
        let head = agg.head_value(config.head_percentile)?;
        let tail = agg.tail_value(config.tail_percentile)?;
        Some(config.windows_from(head, tail))
    }

    /// When to pre-warm an app that became idle at `idle_from_ms`: the
    /// computed pre-warm interval minus the production slack (90 s),
    /// clamped to not precede idleness. `None` when the app is not
    /// unloaded at all.
    pub fn schedule_prewarm(
        &self,
        config: &ProductionConfig,
        idle_from_ms: DurationMs,
    ) -> Option<DurationMs> {
        let w = self.windows(config, idle_from_ms)?;
        (w.pre_warm_ms > 0).then(|| {
            idle_from_ms
                .saturating_add(w.pre_warm_ms)
                .saturating_sub(config.prewarm_slack_ms)
                .max(idle_from_ms)
        })
    }

    /// Bytes needed to persist the retained histograms (the §6 figure:
    /// 960 bytes per histogram).
    pub fn persisted_bytes(&self) -> usize {
        self.days
            .iter()
            .map(|(_, h)| h.memory_footprint_bytes())
            .sum()
    }

    /// The windows [`ProductionApp::windows`] computes from scratch,
    /// read off the cursors over the cached aggregate instead, with one
    /// walk when they cannot certify their bins.
    // sitw-lint: hot-path
    fn cached_windows(&mut self, config: &ProductionConfig, now_ms: DurationMs) -> Option<Windows> {
        let today = now_ms / DAY_MS;
        let ((newest_day, newest), older_days) = self.days.split_last()?;
        if self.older_as_of != today {
            config.fold_days(older_days, today, &mut self.older);
            self.older_as_of = today;
            self.newest_weight = config.day_weight(today, *newest_day).unwrap_or(0.0);
            self.cursors = [WeightedCursor::default(); 2];
            #[cfg(test)]
            {
                self.rebuilds += 1;
            }
        }
        let sum = WeightedSum::new(&self.older, newest, self.newest_weight);
        let head = self.cursors[0].certified_bin(&sum);
        let tail = self.cursors[1].certified_bin(&sum);
        if head.is_some() && tail.is_some() {
            return Some(self.windows);
        }
        let ps = [config.head_percentile, config.tail_percentile];
        #[cfg(test)]
        {
            self.walks += 1;
        }
        // With the newest day expired, so is every other: the sum holds
        // no weight and the seek finds no bin.
        let ([head, tail], cursors) = WeightedCursor::seek_pair(&sum, ps)?;
        self.cursors = cursors;
        // One-minute bins: the head rounds down to its bin's lower edge,
        // the tail up to its upper edge.
        self.windows = config.windows_from(head as u64, tail as u64 + 1);
        Some(self.windows)
    }

    /// The day-aware decision: observes one invocation at absolute time
    /// `now_ms` and returns the windows governing the gap until the
    /// app's next invocation, plus which branch produced them.
    ///
    /// `idle_ms` is the idle time that just *ended* (`None` for the
    /// app's first observed invocation, which records nothing). The
    /// weighted aggregate over the retained daily histograms drives the
    /// decision ([`DecisionKind::Histogram`]); with no usable aggregate
    /// the conservative standard keep-alive spans the histogram range
    /// ([`DecisionKind::StandardKeepAlive`]).
    ///
    /// This is the single decision function both the offline replay
    /// (`sitw_sim`) and the serving daemon (`sitw-serve`) call, which is
    /// what makes their verdict streams bit-for-bit comparable. It
    /// allocates only when a day opens, and returns the windows of
    /// [`ProductionApp::windows`] bit for bit (see the module docs).
    // sitw-lint: hot-path
    pub fn on_invocation(
        &mut self,
        config: &ProductionConfig,
        now_ms: DurationMs,
        idle_ms: Option<DurationMs>,
    ) -> (Windows, DecisionKind) {
        if let Some(idle) = idle_ms {
            self.record_idle_time(config, now_ms, idle);
        }
        match self.cached_windows(config, now_ms) {
            Some(w) => (w, DecisionKind::Histogram),
            None => config.standard_keep_alive(),
        }
    }

    /// The retained daily histograms in exportable form (the unit a §6
    /// backup persists).
    pub fn export(&self) -> ProductionAppState {
        ProductionAppState {
            days: self
                .days
                .iter()
                .map(|(day, hist)| DayHistogram {
                    day: *day,
                    bins: hist.bins().to_vec(),
                    oob: hist.oob_count(),
                })
                .collect(),
        }
    }

    /// The inverse of [`ProductionApp::export`]: an exported-then-
    /// imported app produces bit-identical decisions.
    ///
    /// # Errors
    ///
    /// Fails when a day's bin count does not match the configured range
    /// or the days are not strictly ordered oldest-first.
    pub fn import(config: &ProductionConfig, state: ProductionAppState) -> Result<Self, String> {
        let mut days = Vec::with_capacity(state.days.len());
        let mut prev_day = None;
        for d in state.days {
            if d.bins.len() != config.range_minutes {
                return Err(format!(
                    "day {} has {} bins but config expects {}",
                    d.day,
                    d.bins.len(),
                    config.range_minutes
                ));
            }
            if prev_day.is_some_and(|p| d.day <= p) {
                return Err(format!("day {} out of order", d.day));
            }
            prev_day = Some(d.day);
            days.push((d.day, RangeHistogram::from_parts(1, d.bins, d.oob)));
        }
        Ok(Self {
            days,
            ..Self::new(config)
        })
    }
}

/// The production scheme's tenant-wide half: its configuration and the
/// hourly backup clock (§6). Each app's state is its own
/// [`ProductionApp`], held by whoever holds the app.
#[derive(Debug)]
pub struct ProductionManager {
    config: ProductionConfig,
    backups_taken: u64,
    last_backup_ms: DurationMs,
}

impl ProductionManager {
    /// A manager with no backups taken.
    pub fn new(config: ProductionConfig) -> Self {
        Self {
            config,
            backups_taken: 0,
            last_backup_ms: 0,
        }
    }

    /// Advances the backup clock; returns how many (hourly) backups were
    /// taken. Each backup serializes every app's current day histogram.
    ///
    /// O(1) in the elapsed time: `now_ms` reaches this method from
    /// client-supplied invocation timestamps on the serving hot path, so
    /// a far-future value must not translate into a long loop.
    pub fn tick_backup(&mut self, now_ms: DurationMs) -> u64 {
        let interval = self.config.backup_interval_ms;
        if interval == 0 {
            return 0;
        }
        let taken = now_ms.saturating_sub(self.last_backup_ms) / interval;
        self.last_backup_ms += taken * interval;
        self.backups_taken += taken;
        taken
    }

    /// Total backups taken so far.
    pub fn backups_taken(&self) -> u64 {
        self.backups_taken
    }

    /// The manager's configuration.
    pub fn config(&self) -> &ProductionConfig {
        &self.config
    }

    /// Timestamp up to which backups have been accounted (see
    /// [`ProductionManager::tick_backup`]).
    pub fn last_backup_ms(&self) -> DurationMs {
        self.last_backup_ms
    }

    /// Seeds the backup clock, e.g. when restoring a manager mid-stream
    /// from a snapshot: without it the first `tick_backup` after restore
    /// would "take" one backup per hour of downtime.
    pub fn set_last_backup_ms(&mut self, at_ms: DurationMs) {
        self.last_backup_ms = at_ms;
    }
}

/// One retained daily histogram of an app, in exportable form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DayHistogram {
    /// Day index (`now_ms / DAY_MS` at recording time).
    pub day: u64,
    /// Raw bin counts (one per minute of the configured range).
    pub bins: Vec<u32>,
    /// Idle times at or beyond the histogram range.
    pub oob: u64,
}

/// Complete exportable state of a [`ProductionApp`]: the retained daily
/// histograms, oldest first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProductionAppState {
    /// `(day, histogram)` exports, oldest first.
    pub days: Vec<DayHistogram>,
}

/// The production scheme as an [`AppPolicy`]: one app's
/// [`ProductionApp`] beside its configuration, for replaying one app's
/// idle-time stream the way simulation sweeps replay every policy.
///
/// Absolute time — which the daily rotation needs and `AppPolicy` does
/// not carry — is reconstructed by accumulating idle times from 0, so a
/// sweep sees the same *relative* day boundaries for every app. Replays
/// that must match the serving daemon bit-for-bit use
/// [`ProductionApp::on_invocation`] with real timestamps instead
/// (`sitw_sim::production_verdict_trace`).
#[derive(Debug)]
pub struct ProductionPolicy {
    config: ProductionConfig,
    app: ProductionApp,
    now_ms: DurationMs,
    last_decision: DecisionKind,
}

impl AppPolicy for ProductionPolicy {
    fn on_invocation(&mut self, idle_time_ms: Option<DurationMs>) -> Windows {
        self.now_ms = self.now_ms.saturating_add(idle_time_ms.unwrap_or(0));
        let (windows, kind) = self
            .app
            .on_invocation(&self.config, self.now_ms, idle_time_ms);
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

impl PolicyFactory for ProductionConfig {
    type Policy = ProductionPolicy;

    fn new_policy(&self) -> ProductionPolicy {
        ProductionPolicy {
            config: *self,
            app: ProductionApp::new(self),
            now_ms: 0,
            last_decision: DecisionKind::StandardKeepAlive,
        }
    }

    fn label(&self) -> String {
        let weight = match self.weighting {
            RecencyWeighting::Uniform => "uni".to_owned(),
            RecencyWeighting::Exponential { decay } => format!("exp{decay}"),
        };
        format!(
            "production-{}m-{}d[{},{}]{weight}",
            self.range_minutes, self.retention_days, self.head_percentile, self.tail_percentile,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DAY: DurationMs = 24 * 60 * MINUTE_MS;

    /// The default configuration and an app with nothing recorded.
    fn fresh() -> (ProductionConfig, ProductionApp) {
        let cfg = ProductionConfig::default();
        (cfg, ProductionApp::new(&cfg))
    }

    #[test]
    fn records_rotate_daily_and_expire() {
        let (cfg, mut a) = fresh();
        for day in 0..20u64 {
            a.record_idle_time(&cfg, day * DAY, 10 * MINUTE_MS);
        }
        // Only the last 14 days are retained.
        assert_eq!(a.days.len(), 14);
        assert_eq!(a.days.first().unwrap().0, 6);
        assert_eq!(a.days.last().unwrap().0, 19);
    }

    #[test]
    fn aggregate_weights_recent_days_higher() {
        let cfg = ProductionConfig {
            weighting: RecencyWeighting::Exponential { decay: 0.5 },
            ..ProductionConfig::default()
        };
        let mut a = ProductionApp::new(&cfg);
        // Day 0: idle times of 100 minutes. Day 1: 20 minutes.
        for _ in 0..10 {
            a.record_idle_time(&cfg, 0, 100 * MINUTE_MS);
            a.record_idle_time(&cfg, DAY, 20 * MINUTE_MS);
        }
        let agg = a.aggregate(&cfg, DAY).unwrap();
        // As of day 1, day-1 weighs 1.0 and day-0 weighs 0.5: the median
        // sits in the recent mode.
        assert_eq!(agg.head_value(50.0), Some(20));
    }

    #[test]
    fn windows_match_hybrid_semantics() {
        let (cfg, mut a) = fresh();
        for _ in 0..50 {
            a.record_idle_time(&cfg, 0, 10 * MINUTE_MS);
        }
        let w = a.windows(&cfg, 0).unwrap();
        assert_eq!(w.pre_warm_ms, 9 * MINUTE_MS);
        assert!(w.is_warm_at(10 * MINUTE_MS));
    }

    #[test]
    fn windows_none_without_data() {
        let (cfg, a) = fresh();
        assert!(a.windows(&cfg, 0).is_none());
        assert!(a.schedule_prewarm(&cfg, 0).is_none());
    }

    #[test]
    fn prewarm_fires_90_seconds_early() {
        let (cfg, mut a) = fresh();
        for _ in 0..50 {
            a.record_idle_time(&cfg, 0, 60 * MINUTE_MS);
        }
        let idle_from = 1_000_000;
        let at = a.schedule_prewarm(&cfg, idle_from).unwrap();
        let w = a.windows(&cfg, idle_from).unwrap();
        assert_eq!(at, idle_from + w.pre_warm_ms - 90_000, "slack must be 90 s");
    }

    #[test]
    fn prewarm_not_scheduled_when_kept_loaded() {
        let (cfg, mut a) = fresh();
        // Sub-minute idle times → head bin 0 → never unloaded.
        for _ in 0..50 {
            a.record_idle_time(&cfg, 0, 30_000);
        }
        assert!(a.schedule_prewarm(&cfg, 0).is_none());
    }

    #[test]
    fn hourly_backups_accumulate() {
        let mut m = ProductionManager::new(ProductionConfig::default());
        assert_eq!(m.tick_backup(3_599_999), 0);
        assert_eq!(m.tick_backup(3_600_000), 1);
        assert_eq!(m.tick_backup(4 * 3_600_000), 3);
        assert_eq!(m.backups_taken(), 4);
        // The clock lands on interval boundaries, not on `now_ms`.
        assert_eq!(m.last_backup_ms(), 4 * 3_600_000);
        assert_eq!(m.tick_backup(5 * 3_600_000 - 1), 0);
    }

    #[test]
    fn far_future_timestamp_ticks_backups_in_constant_time() {
        // Regression: `ts` is client-controlled on the serving path; a
        // u64::MAX timestamp must not loop once per elapsed hour.
        let mut m = ProductionManager::new(ProductionConfig::default());
        let taken = m.tick_backup(DurationMs::MAX);
        assert_eq!(taken, DurationMs::MAX / 3_600_000);
        assert_eq!(m.backups_taken(), taken);
        let (cfg, mut a) = fresh();
        let (_, kind) = a.on_invocation(&cfg, DurationMs::MAX, Some(10 * MINUTE_MS));
        assert_eq!(kind, DecisionKind::Histogram);
    }

    #[test]
    fn persisted_size_is_960_bytes_per_day() {
        let (cfg, mut a) = fresh();
        assert_eq!(a.persisted_bytes(), 0);
        a.record_idle_time(&cfg, 0, MINUTE_MS);
        a.record_idle_time(&cfg, DAY, MINUTE_MS);
        assert_eq!(a.persisted_bytes(), 2 * 960);
    }

    #[test]
    fn aggregate_drops_expired_days_of_idle_apps() {
        // Regression: expiry used to run only inside `record_idle_time`,
        // so an app idle past the retention window kept serving windows
        // from data older than two weeks.
        let (cfg, mut a) = fresh();
        for _ in 0..50 {
            a.record_idle_time(&cfg, 0, 10 * MINUTE_MS);
        }
        // Within retention the data is used...
        assert!(a.aggregate(&cfg, 13 * DAY).is_some());
        assert!(a.windows(&cfg, 13 * DAY).is_some());
        // ...but 14+ days later (no records in between) it has expired.
        assert!(
            a.aggregate(&cfg, 14 * DAY).is_none(),
            "day-0 data is 14 days old"
        );
        assert!(a.windows(&cfg, 20 * DAY).is_none());
        assert!(a.schedule_prewarm(&cfg, 20 * DAY).is_none());
        // A conservative default is served instead of a stale histogram.
        let (w, kind) = a.on_invocation(&cfg, 20 * DAY, None);
        assert_eq!(kind, DecisionKind::StandardKeepAlive);
        assert_eq!(w, Windows::keep_loaded(240 * MINUTE_MS));
    }

    #[test]
    fn on_invocation_matches_windows_and_falls_back() {
        let (cfg, mut a) = fresh();
        // First invocation: nothing recorded, conservative default.
        let (w, kind) = a.on_invocation(&cfg, 0, None);
        assert_eq!(kind, DecisionKind::StandardKeepAlive);
        assert_eq!(w, Windows::keep_loaded(240 * MINUTE_MS));
        // A concentrated pattern flips to the (weighted) histogram.
        let mut last = (w, kind);
        for i in 1..=30u64 {
            last = a.on_invocation(&cfg, i * 10 * MINUTE_MS, Some(10 * MINUTE_MS));
        }
        assert_eq!(last.1, DecisionKind::Histogram);
        assert_eq!(Some(last.0), a.windows(&cfg, 300 * MINUTE_MS));
    }

    #[test]
    fn export_import_round_trips_decisions() {
        let (cfg, mut a) = fresh();
        for day in 0..3u64 {
            for k in 0..20u64 {
                a.record_idle_time(&cfg, day * DAY + k * MINUTE_MS, (10 + day) * MINUTE_MS);
            }
        }
        a.record_idle_time(&cfg, 3 * DAY, 400 * MINUTE_MS); // An OOB idle.
        let state = a.export();
        assert_eq!(state.days.len(), 4);
        assert_eq!(state.days.last().unwrap().oob, 1);

        let b = ProductionApp::import(&cfg, state).unwrap();
        for now in [3 * DAY, 3 * DAY + 5 * MINUTE_MS, 10 * DAY] {
            assert_eq!(a.windows(&cfg, now), b.windows(&cfg, now), "at {now}");
        }
        assert_eq!(a.persisted_bytes(), b.persisted_bytes());
        assert_eq!(
            ProductionApp::new(&cfg).export(),
            ProductionAppState::default()
        );
    }

    #[test]
    fn import_rejects_bad_geometry_and_order() {
        let cfg = ProductionConfig::default();
        let bad_bins = ProductionAppState {
            days: vec![DayHistogram {
                day: 0,
                bins: vec![0; 10],
                oob: 0,
            }],
        };
        assert!(ProductionApp::import(&cfg, bad_bins).is_err());
        let out_of_order = ProductionAppState {
            days: vec![
                DayHistogram {
                    day: 5,
                    bins: vec![0; 240],
                    oob: 0,
                },
                DayHistogram {
                    day: 4,
                    bins: vec![0; 240],
                    oob: 1,
                },
            ],
        };
        assert!(ProductionApp::import(&cfg, out_of_order).is_err());
    }

    /// What `on_invocation` must return, from the from-scratch
    /// definition.
    fn from_scratch(
        cfg: &ProductionConfig,
        app: &ProductionApp,
        now: DurationMs,
    ) -> (Windows, DecisionKind) {
        match app.windows(cfg, now) {
            Some(w) => (w, DecisionKind::Histogram),
            None => cfg.standard_keep_alive(),
        }
    }

    #[test]
    fn clock_skew_records_into_the_newest_day() {
        // Regression: an observation stamped a day earlier used to be
        // pushed *after* the newer day, producing state `import`
        // rejects as out of order.
        let (cfg, mut a) = fresh();
        for k in 0..20u64 {
            a.record_idle_time(&cfg, 3 * DAY + k * MINUTE_MS, 10 * MINUTE_MS);
        }
        a.record_idle_time(&cfg, 2 * DAY, 40 * MINUTE_MS);
        let state = a.export();
        assert_eq!(
            state.days.iter().map(|d| d.day).collect::<Vec<_>>(),
            [3],
            "the skewed observation joins day 3"
        );
        let mut b = ProductionApp::import(&cfg, state).unwrap();
        for (now, idle) in [
            (2 * DAY + MINUTE_MS, Some(15 * MINUTE_MS)),
            (3 * DAY + 30 * MINUTE_MS, Some(10 * MINUTE_MS)),
            (4 * DAY, None),
            (4 * DAY + 5 * MINUTE_MS, Some(12 * MINUTE_MS)),
        ] {
            let got = a.on_invocation(&cfg, now, idle);
            assert_eq!(got, b.on_invocation(&cfg, now, idle), "at {now}");
            assert_eq!(got, from_scratch(&cfg, &a, now), "at {now}");
        }
        assert_eq!(a.export(), b.export());
    }

    #[test]
    fn expiry_without_a_new_day_rebuilds_the_cache() {
        // Only an import can hold days further apart than the retention
        // window; the next record expires the old one without pushing a
        // day, and under a skewed clock that old day is in the cache.
        let day_of = |day, minute: usize| {
            let mut bins = vec![0; 240];
            bins[minute] = 50;
            DayHistogram { day, bins, oob: 0 }
        };
        let cfg = ProductionConfig::default();
        let state = ProductionAppState {
            days: vec![day_of(0, 200), day_of(20, 10)],
        };
        let mut a = ProductionApp::import(&cfg, state).unwrap();
        let before = a.on_invocation(&cfg, 5 * DAY, None);
        assert_eq!(before, from_scratch(&cfg, &a, 5 * DAY));
        let after = a.on_invocation(&cfg, 5 * DAY, Some(10 * MINUTE_MS));
        assert_eq!(a.days.len(), 1, "day 0 left the window of day 20");
        assert_eq!(after, from_scratch(&cfg, &a, 5 * DAY));
        assert_ne!(before, after, "the expired day carried the tail");
    }

    proptest! {
        /// The cached decision equals the from-scratch definition at
        /// every step of a random stream — same-day bursts, multi-day
        /// gaps, gaps past retention, backward clock steps, out-of-bounds
        /// idles, `idle = None` on an app that already has days, three
        /// apps on different days in one manager — and a manager that
        /// imports an app mid-stream continues equal.
        #[test]
        fn cached_decisions_equal_from_scratch(
            ops in prop::collection::vec(0u64..u64::MAX, 1..160),
            shape in 0usize..6,
        ) {
            let cfg = ProductionConfig {
                retention_days: [1, 2, 14][shape % 3],
                weighting: if shape < 3 {
                    RecencyWeighting::Uniform
                } else {
                    RecencyWeighting::Exponential { decay: 0.85 }
                },
                ..ProductionConfig::default()
            };
            let mut m = [(); 3].map(|()| ProductionApp::new(&cfg));
            let mut twin: [Option<ProductionApp>; 3] = Default::default();
            let mut clocks = [0, 3 * DAY + 7 * MINUTE_MS, 40 * DAY];
            for mut bits in ops {
                let mut take = |n: u64| {
                    let v = bits % n;
                    bits /= n;
                    v
                };
                let app = take(3) as usize;
                let clock = &mut clocks[app];
                *clock = match take(8) {
                    0 => *clock,
                    1..=4 => *clock + take(45) * MINUTE_MS + take(60_000),
                    5 => *clock + (1 + take(3)) * DAY,
                    6 => *clock + (cfg.retention_days + take(3)) * DAY,
                    _ => clock.saturating_sub(take(2 * 24 * 60) * MINUTE_MS),
                };
                let now = *clock;
                let idle = match take(6) {
                    0 => None,
                    1 => Some((240 + take(100)) * MINUTE_MS),
                    _ => Some(take(240) * MINUTE_MS + take(60_000)),
                };
                if take(12) == 0 {
                    let imported = ProductionApp::import(&cfg, m[app].export());
                    prop_assert!(imported.is_ok());
                    twin[app] = imported.ok();
                }
                let got = m[app].on_invocation(&cfg, now, idle);
                prop_assert_eq!(got, from_scratch(&cfg, &m[app], now));
                if let Some(twin) = &mut twin[app] {
                    prop_assert_eq!(got, twin.on_invocation(&cfg, now, idle));
                }
            }
        }
    }

    #[test]
    fn aggregate_is_rebuilt_once_per_app_per_day_not_per_invocation() {
        // The cost guard, as a count rather than a timer: over a 7-day
        // stream of four interleaved apps the days × bins fold may run
        // once per app per day index seen, plus once per import, and the
        // exact head/tail walk on at most 5 % of decisions.
        let cfg = ProductionConfig::default();
        let mut apps = [(); 4].map(|()| ProductionApp::new(&cfg));
        let mut stream: Vec<(DurationMs, usize, DurationMs)> = Vec::new();
        for app in 0..4 {
            let idle = (2 + 3 * app as u64) * MINUTE_MS;
            let mut t = app as u64 * 3_600_000;
            while t < 7 * DAY {
                t += idle;
                stream.push((t, app, idle));
            }
        }
        stream.sort_unstable();
        let mut seen = std::collections::HashSet::new();
        let mut imports = 0;
        for (i, &(now, app, idle)) in stream.iter().enumerate() {
            if i == stream.len() / 2 {
                apps[app] = ProductionApp::import(&cfg, apps[app].export()).unwrap();
                imports += 1;
            }
            apps[app].on_invocation(&cfg, now, Some(idle));
            seen.insert((app, now / DAY));
        }
        let rebuilds: u64 = apps.iter().map(|a| a.rebuilds).sum();
        assert!(stream.len() > 100 * seen.len(), "many decisions per day");
        assert!(rebuilds > 0, "the counter is live");
        assert!(
            rebuilds <= seen.len() as u64 + imports,
            "{rebuilds} rebuilds over {} (app, day) pairs and {imports} import",
            seen.len()
        );
        // And the walk itself: each rebuild unseats the cursors, so the
        // next decision seeks; the rest are certified.
        let walks: u64 = apps.iter().map(|a| a.walks).sum();
        assert!(walks >= rebuilds, "the counter is live");
        assert!(
            walks * 20 <= stream.len() as u64,
            "{walks} exact walks over {} decisions",
            stream.len()
        );
    }

    #[test]
    fn backup_clock_can_be_seeded() {
        let mut m = ProductionManager::new(ProductionConfig::default());
        m.set_last_backup_ms(10 * 3_600_000);
        assert_eq!(m.last_backup_ms(), 10 * 3_600_000);
        // No catch-up backups for the seeded-away interval.
        assert_eq!(m.tick_backup(10 * 3_600_000 + 1), 0);
        assert_eq!(m.tick_backup(11 * 3_600_000), 1);
    }

    #[test]
    fn production_policy_adapter_replays_relative_time() {
        let mut p = ProductionConfig::default().new_policy();
        let w = p.on_invocation(None);
        assert_eq!(p.last_decision(), DecisionKind::StandardKeepAlive);
        assert_eq!(w, Windows::keep_loaded(240 * MINUTE_MS));
        let mut last = w;
        for _ in 0..30 {
            last = p.on_invocation(Some(10 * MINUTE_MS));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        assert!(last.is_warm_at(10 * MINUTE_MS));
        // The adapter's clock accumulated 300 minutes of idle time.
        assert_eq!(p.now_ms, 300 * MINUTE_MS);
    }

    #[test]
    fn production_label_encodes_configuration() {
        assert_eq!(
            ProductionConfig::default().label(),
            "production-240m-14d[5,99]exp0.85"
        );
        let uni = ProductionConfig {
            weighting: RecencyWeighting::Uniform,
            retention_days: 7,
            ..ProductionConfig::default()
        };
        assert_eq!(uni.label(), "production-240m-7d[5,99]uni");
    }

    #[test]
    fn uniform_weighting_counts_all_days_equally() {
        let cfg = ProductionConfig {
            weighting: RecencyWeighting::Uniform,
            ..ProductionConfig::default()
        };
        let mut a = ProductionApp::new(&cfg);
        for _ in 0..10 {
            a.record_idle_time(&cfg, 0, 100 * MINUTE_MS);
        }
        for _ in 0..11 {
            a.record_idle_time(&cfg, DAY, 20 * MINUTE_MS);
        }
        let agg = a.aggregate(&cfg, DAY).unwrap();
        // 11 vs 10 observations: the 20-minute mode wins the median by
        // count, not by recency weighting.
        assert_eq!(agg.head_value(50.0), Some(20));
        assert!((agg.in_bounds_weight() - 21.0).abs() < 1e-9);
    }
}
