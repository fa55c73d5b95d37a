//! The walk-and-shift hybrid policy the cursor-and-ring one replaced,
//! kept as the reference the property tests drive [`HybridPolicy`]
//! against.
//!
//! [`RefHybrid::on_invocation`] and the three window functions are the
//! previous implementation verbatim: both cutoffs are walked for from
//! bin 0 on every decision ([`RangeHistogram::head_value`] /
//! [`RangeHistogram::tail_value`], the stateless definition) and the
//! idle-time history is a vector shifted by `remove(0)` at the cap. It
//! is O(bins) per decision — which is why it is the definition, not the
//! implementation. Simulator, fleet and daemon all run the one
//! `HybridPolicy`, so online == offline parity cannot see it drift; this
//! can.
//!
//! [`HybridPolicy`]: crate::HybridPolicy

use sitw_arima::auto_arima;
use sitw_stats::RangeHistogram;

use crate::hybrid::{DecisionCounts, HybridConfig, HybridSnapshot};
use crate::policy::{DecisionKind, DurationMs, Windows, MINUTE_MS};

#[derive(Debug, Clone)]
pub(crate) struct RefHybrid {
    config: HybridConfig,
    hist: RangeHistogram,
    history: Vec<f64>,
    counts: DecisionCounts,
    last_decision: DecisionKind,
}

impl RefHybrid {
    pub(crate) fn new(config: HybridConfig) -> Self {
        let width = config.bin_width_minutes.max(1);
        let bins = (config.range_minutes / width).max(1);
        let hist = RangeHistogram::new(bins, width as u64);
        Self {
            config,
            hist,
            history: Vec::new(),
            counts: DecisionCounts::default(),
            last_decision: DecisionKind::StandardKeepAlive,
        }
    }

    pub(crate) fn decisions(&self) -> DecisionCounts {
        self.counts
    }

    pub(crate) fn last_decision(&self) -> DecisionKind {
        self.last_decision
    }

    pub(crate) fn snapshot(&self) -> HybridSnapshot {
        HybridSnapshot {
            bins: self.hist.bins().to_vec(),
            oob_count: self.hist.oob_count(),
            history: self.history.clone(),
            counts: self.counts,
            last_decision: self.last_decision,
        }
    }

    fn range_ms(&self) -> DurationMs {
        self.hist.range() * MINUTE_MS
    }

    fn standard_keep_alive(&mut self) -> Windows {
        self.counts.standard += 1;
        self.last_decision = DecisionKind::StandardKeepAlive;
        Windows::keep_loaded(self.range_ms())
    }

    fn arima_windows(&mut self) -> Option<Windows> {
        if self.history.len() < self.config.arima_min_history {
            return None;
        }
        let fit = auto_arima(&self.history, self.config.arima).ok()?;
        let pred_minutes = fit.forecast_one();
        if !pred_minutes.is_finite() || pred_minutes < 1.0 {
            return None;
        }
        let margin = self.config.arima_margin;
        let pre_warm = pred_minutes * (1.0 - margin);
        let keep_alive = 2.0 * margin * pred_minutes;
        Some(Windows::pre_warmed(
            (pre_warm * MINUTE_MS as f64) as DurationMs,
            (keep_alive * MINUTE_MS as f64).max(MINUTE_MS as f64) as DurationMs,
        ))
    }

    fn histogram_windows(&mut self) -> Option<Windows> {
        let head_min = self.hist.head_value(self.config.head_percentile)?;
        let tail_min = self.hist.tail_value(self.config.tail_percentile)?;
        let head_ms = (head_min as f64 * (1.0 - self.config.head_margin)) * MINUTE_MS as f64;
        let tail_ms = (tail_min as f64 * (1.0 + self.config.tail_margin)) * MINUTE_MS as f64;
        let windows = if head_min == 0 || !self.config.pre_warming {
            Windows::keep_loaded(tail_ms as DurationMs)
        } else {
            let pw = head_ms as DurationMs;
            let ka = (tail_ms - head_ms).max(MINUTE_MS as f64) as DurationMs;
            Windows::pre_warmed(pw, ka)
        };
        self.counts.histogram += 1;
        self.last_decision = DecisionKind::Histogram;
        Some(windows)
    }

    pub(crate) fn on_invocation(&mut self, idle_time_ms: Option<DurationMs>) -> Windows {
        if let Some(it) = idle_time_ms {
            self.hist.record(it / MINUTE_MS);
            let minutes = it as f64 / MINUTE_MS as f64;
            if self.history.len() == self.config.history_cap {
                self.history.remove(0);
            }
            self.history.push(minutes);
        }

        if self.hist.total_count() < self.config.min_samples {
            return self.standard_keep_alive();
        }

        if self.hist.oob_fraction() > self.config.oob_threshold {
            if self.config.use_arima {
                if let Some(w) = self.arima_windows() {
                    self.counts.arima += 1;
                    self.last_decision = DecisionKind::Arima;
                    return w;
                }
            }
            return self.standard_keep_alive();
        }

        if self.hist.bin_count_cv() < self.config.cv_threshold {
            return self.standard_keep_alive();
        }

        match self.histogram_windows() {
            Some(w) => w,
            None => self.standard_keep_alive(),
        }
    }
}
