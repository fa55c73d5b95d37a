//! Arrival-process archetypes and invocation stream generation.
//!
//! §3.3 of the paper finds that real inter-arrival-time (IAT)
//! distributions are "more complex than the simply periodic or memoryless
//! ones": timer apps are often but not always strictly periodic, only a
//! small fraction of apps look Poisson (CV ≈ 1), ~20% of all apps have
//! CV ≈ 0 (including ~10% of no-timer apps — e.g. periodic IoT callers),
//! and ~40% have CV > 1. The generator reproduces this mixture with five
//! archetypes, each a well-defined stochastic process.

use std::cmp::Ordering;
use std::sync::OnceLock;

use rand::Rng;

use crate::time::{TimeMs, DAY_MS, HOUR_MS};

/// A single cron-style timer: fires at `phase + k * period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerSpec {
    /// Firing period in milliseconds.
    pub period_ms: TimeMs,
    /// Offset of the first firing in milliseconds.
    pub phase_ms: TimeMs,
}

/// The arrival process driving an application's invocations.
#[derive(Debug, Clone, PartialEq)]
pub enum Archetype {
    /// One or more strict timers (CV 0 for a single timer; multiple
    /// periods/phases raise the CV, §3.3).
    Timers(Vec<TimerSpec>),
    /// Homogeneous Poisson arrivals (memoryless, CV 1).
    Poisson,
    /// Poisson arrivals modulated by the diurnal/weekly load shape of
    /// Figure 4 (thinning construction).
    Diurnal {
        /// Hour of day (0–24) at which this app's load peaks.
        peak_hour: f64,
    },
    /// Bursty session traffic: bursts arrive as a Poisson process, each
    /// burst carrying a geometric number of closely spaced invocations.
    /// IAT CV is well above 1 (the ~40% of apps beyond CV 1 in
    /// Figure 6), and the short intra-burst gaps are what lets even
    /// rarely invoked applications see warm starts under small
    /// keep-alives (Figure 14).
    Bursty {
        /// Mean invocations per burst (≥ 1).
        mean_burst_size: f64,
        /// Mean gap between invocations inside a burst, milliseconds.
        intra_gap_ms: f64,
        /// Hour of day the sessions cluster around; burst arrivals are
        /// diurnally thinned (sharper than the aggregate Figure 4 shape)
        /// so night-time idle gaps stretch to many hours.
        peak_hour: f64,
    },
    /// Quasi-periodic arrivals with a long period — e.g. sensors/IoT
    /// devices reporting every few hours. These exceed the histogram
    /// range and exercise the policy's ARIMA path.
    RarePeriodic {
        /// Period in milliseconds (typically above the histogram range).
        period_ms: TimeMs,
        /// Standard deviation of the Gaussian jitter, milliseconds.
        jitter_ms: f64,
    },
    /// Timers plus a Poisson overlay carrying the residual rate (apps
    /// with timer *and* other triggers, 15.8% of apps per §3.2).
    Mixed {
        /// The timer components.
        timers: Vec<TimerSpec>,
        /// Daily rate of the non-timer overlay traffic.
        overlay_daily_rate: f64,
    },
}

impl Archetype {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Archetype::Timers(_) => "timers",
            Archetype::Poisson => "poisson",
            Archetype::Diurnal { .. } => "diurnal",
            Archetype::Bursty { .. } => "bursty",
            Archetype::RarePeriodic { .. } => "rare-periodic",
            Archetype::Mixed { .. } => "mixed",
        }
    }
}

/// The platform-wide load-shape multiplier at time `t` (Figure 4):
/// a flat baseline plus a smooth diurnal bump, damped on weekends.
///
/// Day 0 is a Monday; days 5 and 6 of each week are the weekend. The
/// returned multiplier averages roughly 1 over a week, so modulating a
/// Poisson process with it approximately preserves the app's mean rate.
pub fn load_shape(t: TimeMs, peak_hour: f64) -> f64 {
    let (weekend, hour) = clock(t);
    shape(bump(hour - peak_hour), weekend)
}

/// [`load_shape`] from the bump's value and the day.
#[inline]
fn shape(bump: f64, weekend: bool) -> f64 {
    let baseline = crate::calibration::DIURNAL_BASELINE;
    (baseline + (1.0 - baseline) * bump * amplitude(weekend)) / shape_mean()
}

/// Whether `t` falls on a weekend day, and its hour of day.
#[inline]
fn clock(t: TimeMs) -> (bool, f64) {
    let day = (t / DAY_MS) % 7;
    let hour = (t % DAY_MS) as f64 / HOUR_MS as f64;
    (day >= 5, hour)
}

/// The smooth bump at `d = hour − peak_hour`: 1 at the peak, 0 twelve
/// hours away, period 24 h.
#[inline]
fn bump(d: f64) -> f64 {
    let angle = d / 24.0 * std::f64::consts::TAU;
    0.5 * (1.0 + angle.cos())
}

/// The weekly amplitude of the bump on a weekend or a weekday.
#[inline]
fn amplitude(weekend: bool) -> f64 {
    if weekend {
        crate::calibration::WEEKEND_FACTOR
    } else {
        1.0
    }
}

/// The normalizing mean: the bump averages 0.5 over a day, weekday
/// amplitude averages (5 + 2*wf)/7 over a week.
fn shape_mean() -> f64 {
    let baseline = crate::calibration::DIURNAL_BASELINE;
    let wf_mean = (5.0 + 2.0 * crate::calibration::WEEKEND_FACTOR) / 7.0;
    baseline + (1.0 - baseline) * 0.5 * wf_mean
}

/// Generates the sorted invocation timestamps of an application over
/// `[0, horizon_ms)`.
///
/// `daily_rate` is the app's target average invocations per day; rates
/// above `cap_per_day` are clamped (hot applications behave identically
/// for cold-start purposes once they are invoked every few seconds, and
/// the clamp bounds memory).
///
/// Each arm yields its stream in order: the Poisson-based ones by
/// construction, timers and a `Mixed` overlay by merging sorted
/// sequences, rare-periodic arrivals (whose jitter may reorder them) by
/// one sort. A non-finite clamped rate (`daily_rate` and `cap_per_day`
/// both infinite, say) draws nothing: the Poisson-based arms return an
/// empty stream and a `Mixed` app keeps its timers alone.
pub fn generate_events<R: Rng + ?Sized>(
    archetype: &Archetype,
    daily_rate: f64,
    horizon_ms: TimeMs,
    cap_per_day: f64,
    rng: &mut R,
) -> Vec<TimeMs> {
    let rate = daily_rate.min(cap_per_day).max(0.0);
    let events = match archetype {
        Archetype::Timers(timers) => timer_events(timers, horizon_ms),
        Archetype::Poisson => poisson_events(rate, horizon_ms, rng),
        Archetype::Diurnal { peak_hour } => diurnal_events(rate, *peak_hour, horizon_ms, rng),
        Archetype::Bursty {
            mean_burst_size,
            intra_gap_ms,
            peak_hour,
        } => bursty_events(
            rate,
            *mean_burst_size,
            *intra_gap_ms,
            *peak_hour,
            horizon_ms,
            rng,
        ),
        Archetype::RarePeriodic {
            period_ms,
            jitter_ms,
        } => {
            let mut ev = rare_periodic_events(*period_ms, *jitter_ms, horizon_ms, rng);
            ev.sort_unstable();
            ev
        }
        Archetype::Mixed {
            timers,
            overlay_daily_rate,
        } => {
            let overlay = poisson_events(overlay_daily_rate.min(cap_per_day), horizon_ms, rng);
            merge_sorted(&timer_events(timers, horizon_ms), &overlay)
        }
    };
    debug_assert!(events.is_sorted());
    events
}

/// Strict timer firings, merged across all timers in time order (equal
/// timestamps of two timers are indistinguishable, so ties may go
/// either way).
fn timer_events(timers: &[TimerSpec], horizon_ms: TimeMs) -> Vec<TimeMs> {
    let mut next: Vec<TimeMs> = Vec::with_capacity(timers.len());
    let mut count = 0;
    for t in timers {
        assert!(t.period_ms > 0, "timer period must be positive");
        next.push(t.phase_ms);
        if t.phase_ms < horizon_ms {
            count += ((horizon_ms - t.phase_ms - 1) / t.period_ms + 1) as usize;
        }
    }
    let mut out = Vec::with_capacity(count);
    while let Some((i, &at)) = next.iter().enumerate().min_by_key(|&(_, &at)| at) {
        if at >= horizon_ms {
            break;
        }
        out.push(at);
        next[i] = at + timers[i].period_ms;
    }
    out
}

/// The sorted union (with multiplicity) of two sorted sequences.
fn merge_sorted(a: &[TimeMs], b: &[TimeMs]) -> Vec<TimeMs> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// An empty stream with room for `daily_rate` events a day over
/// `horizon` ms, plus 5 % and 16: the Poisson-based arms average that
/// rate (the load shapes are normalized to a mean of 1), so this holds
/// the whole stream almost always, without doubling's slack. The count
/// saturates: a rate too large to hold asks for `usize::MAX` and fails
/// as a capacity overflow, never as a wrapped small reservation.
fn presized(daily_rate: f64, horizon: f64) -> Vec<TimeMs> {
    Vec::with_capacity(((1.05 * daily_rate * horizon / DAY_MS as f64) as usize).saturating_add(16))
}

/// Homogeneous Poisson process via exponential IATs.
pub(crate) fn poisson_events<R: Rng + ?Sized>(
    daily_rate: f64,
    horizon_ms: TimeMs,
    rng: &mut R,
) -> Vec<TimeMs> {
    // A non-finite rate (an infinite one under an infinite cap, or a NaN
    // `Mixed` overlay) has no gaps: `t` would never leave 0.
    if daily_rate <= 0.0 || !daily_rate.is_finite() {
        return Vec::new();
    }
    let rate_per_ms = daily_rate / DAY_MS as f64;
    let horizon = horizon_ms as f64;
    let mut out = presized(daily_rate, horizon);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        t += -u.ln() / rate_per_ms;
        if t >= horizon {
            break;
        }
        out.push(t as TimeMs);
    }
    out
}

/// Buckets per hour of `hour − peak_hour` in the squeeze table.
const SQUEEZE_PER_HOUR: f64 = 4.0;
/// `hour − peak_hour` at the table's first bucket edge. With `hour` in
/// `[0, 24)`, every `peak_hour` in `[0, 24]` lands inside the table.
const SQUEEZE_FROM: f64 = -24.25;
/// Table length: quarter hours over `[-24.25, 24.25)`.
const SQUEEZE_BUCKETS: usize = 194;
/// How far each table bound is widened; see [`Thinning`].
const SQUEEZE_MARGIN: f64 = 1e-9;

/// Per bucket of `hour − peak_hour`, on a weekday (`[0]`) and a weekend
/// day (`[1]`): bounds `[lo, hi]` of `baseline + (1 − baseline) · bump ·
/// amplitude`, the load shape times its normalizing mean, widened by
/// [`SQUEEZE_MARGIN`].
type SqueezeTable = [[[f64; 2]; 2]; SQUEEZE_BUCKETS];

fn squeeze_table() -> &'static SqueezeTable {
    static TABLE: OnceLock<SqueezeTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let baseline = crate::calibration::DIURNAL_BASELINE;
        let mut table = [[[0.0; 2]; 2]; SQUEEZE_BUCKETS];
        for (i, row) in table.iter_mut().enumerate() {
            let a = SQUEEZE_FROM + i as f64 / SQUEEZE_PER_HOUR;
            let b = a + 1.0 / SQUEEZE_PER_HOUR;
            // The bump is monotone between its extrema (d ≡ 0 mod 24 for
            // the maxima, d ≡ 12 mod 24 for the minima), all on bucket
            // edges, so its bounds over [a, b] are the edge values and
            // any extremum the bucket holds.
            let holds = |e: f64| a <= e && e <= b;
            let (ba, bb) = (bump(a), bump(b));
            let lo = if holds(-12.0) || holds(12.0) {
                0.0
            } else {
                ba.min(bb)
            };
            let hi = if holds(-24.0) || holds(0.0) || holds(24.0) {
                1.0
            } else {
                ba.max(bb)
            };
            for (weekend, bounds) in row.iter_mut().enumerate() {
                let amp = amplitude(weekend == 1);
                *bounds = [
                    baseline + (1.0 - baseline) * lo * amp - SQUEEZE_MARGIN,
                    baseline + (1.0 - baseline) * hi * amp + SQUEEZE_MARGIN,
                ];
            }
        }
        table
    })
}

#[cfg(test)]
thread_local! {
    /// Thinning decisions taken on this thread: `[all, exact]`.
    static DECISIONS: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// One app's thinning test: a candidate at `t` with uniform draw `v`
/// survives when `v` falls below the load shape's ratio to its maximum
/// (diurnal), or the squared shape's ratio to its maximum (bursty).
///
/// **The squeeze.** Most candidates are decided without the shape: over
/// a quarter-hour bucket of `d = hour − peak_hour`, on a weekday or a
/// weekend day, the table bounds `g = baseline + (1 − baseline) · bump ·
/// amplitude` by `[lo, hi]`, and the ratio is `g` (diurnal) or `g² ·
/// scale` with `scale = 1 / (mean² · max_sq)` (bursty; ≥ 1 up to
/// rounding, as `max_sq` is a grid maximum of the squared shape). A
/// draw below the lower bound accepts, one at or above the upper bound
/// rejects, and only the band between them (1.0 % of diurnal and
/// 1.4 % of bursty candidates over the sweep population) or a `d`
/// outside the table (`peak_hour` outside `[0, 24]`, infinite or NaN)
/// evaluates the exact comparison. Every draw is taken either way, so
/// a stream is the same as with the exact test alone; every fast answer
/// is `debug_assert`ed against it.
///
/// **The margin.** A bound must hold for the *computed* ratio `R̂`, not
/// the real one. Let `u = 2⁻⁵³`. (1) The index: `ms · (4 / HOUR_MS) +
/// x_midnight`, for `ms` into the day, takes five roundings on values
/// below 300 (in the table), so it is within `700 u < 8e-14` of the
/// real `4 · (ms / HOUR_MS − peak_hour − FROM)`, while the `d` the exact
/// path computes is within `50 u` of `ms / HOUR_MS − peak_hour`. That
/// `d` lies within `3e-14` h of the bucket `[a, b]` its index names;
/// the bump's slope is at most `π/24 < 0.14` per hour, so over that
/// slack it moves by less than `5e-15`.
/// (2) The table: `bump` at an edge rounds `d/24 · TAU` twice on an
/// angle `|θ| ≤ 6.35` (with `TAU` itself within `u` of 2π), an error
/// below `6.35 · 3u < 2.2e-15`; `cos` is within 1 ulp (`2.3e-16`) and
/// `0.5 · (1 + c)` adds `2u`, so each edge bump is within `3e-15` of
/// the real one, and `g`'s three further roundings keep each bound
/// within `4e-15`. (3) The stream: `R̂` is the same bump (within
/// `3e-15`) through at most eight further roundings on values below
/// 2.2, which for the diurnal `shape / max_shape` and the bursty
/// `shape² / max_sq` (≤ 1.001) leaves `R̂` within `2e-14` of the real
/// ratio at the computed `d`; `scale` and the squares of the bounds
/// add three roundings more. All together the bounds can miss `R̂` by
/// less than `3e-14`. [`SQUEEZE_MARGIN`] widens `g`'s bounds by `1e-9`,
/// which widens the bursty bounds by at least `2 · ½ · scale · 1e-9 −
/// 1e-18 ≥ 0.99e-9` since `g ≥ ½`: more than 30 000 times the error.
struct Thinning {
    peak_hour: f64,
    /// Bursty: the shape enters squared and the ratio is `g² · scale`.
    squared: bool,
    /// The exact test's divisor: `max_shape`, or `max_sq` if squared.
    max: f64,
    scale: f64,
    table: &'static SqueezeTable,
    /// The table index at midnight, `−(peak_hour + SQUEEZE_FROM) · 4`;
    /// a candidate `ms` into its day sits at `ms · 4 / HOUR_MS` past it.
    x_midnight: f64,
    /// The day of the last candidate, `[start, end)`, and whether it is
    /// a weekend day: candidates come in time order, so `t / DAY_MS` is
    /// taken once a day, not per candidate.
    day: (TimeMs, TimeMs, bool),
}

impl Thinning {
    fn new(peak_hour: f64, squared: bool, max: f64, scale: f64) -> Self {
        Thinning {
            peak_hour,
            squared,
            max,
            scale,
            table: squeeze_table(),
            x_midnight: -(peak_hour + SQUEEZE_FROM) * SQUEEZE_PER_HOUR,
            day: (0, 0, false),
        }
    }

    /// Diurnal thinning: `v < load_shape / max_shape`, where `max_shape`
    /// is the weekday peak.
    fn diurnal(peak_hour: f64) -> Self {
        // baseline + (1-baseline)*1*1, normalized.
        Thinning::new(peak_hour, false, 1.0 / shape_mean(), 1.0)
    }

    /// Bursty thinning: `!(v >= load_shape² / max_sq)`.
    fn bursty(peak_hour: f64, max_sq: f64) -> Self {
        let mean = shape_mean();
        Thinning::new(peak_hour, true, max_sq, 1.0 / (mean * mean * max_sq))
    }

    /// The decision for a candidate at `t` with draw `v`.
    #[inline]
    fn accepts(&mut self, t: TimeMs, v: f64) -> bool {
        #[cfg(test)]
        DECISIONS.with(|c| c.set([c.get()[0] + 1, c.get()[1]]));
        if t < self.day.0 || t >= self.day.1 {
            let start = t - t % DAY_MS;
            self.day = (start, start + DAY_MS, clock(t).0);
        }
        let (start, _, weekend) = self.day;
        // Out of range, infinite or NaN fails the test: the exact path.
        let x = (t - start) as f64 * (SQUEEZE_PER_HOUR / HOUR_MS as f64) + self.x_midnight;
        if x >= 0.0 && x < SQUEEZE_BUCKETS as f64 {
            let [lo, hi] = self.table[x as usize][weekend as usize];
            let (lo, hi) = if self.squared {
                (lo * lo * self.scale, hi * hi * self.scale)
            } else {
                (lo, hi)
            };
            // One well-predicted branch: outside the band the answer is
            // `below`, whichever way it goes.
            let (below, above) = (v < lo, v >= hi);
            if below | above {
                debug_assert_eq!(below, self.exact(t, v), "squeeze at t={t} v={v}");
                return below;
            }
        }
        #[cfg(test)]
        DECISIONS.with(|c| c.set([c.get()[0], c.get()[1] + 1]));
        self.exact(t, v)
    }

    /// The comparison the squeeze stands in for, as the plain thinning
    /// loops wrote it.
    #[inline]
    fn exact(&self, t: TimeMs, v: f64) -> bool {
        let shape = load_shape(t, self.peak_hour);
        if self.squared {
            // Rejects when `v >= ratio`, so a NaN ratio accepts.
            v.partial_cmp(&(shape * shape / self.max))
                .is_none_or(Ordering::is_lt)
        } else {
            v < shape / self.max
        }
    }
}

/// Inhomogeneous Poisson process matching the Figure 4 load shape, by
/// thinning a homogeneous process at the peak rate.
fn diurnal_events<R: Rng + ?Sized>(
    daily_rate: f64,
    peak_hour: f64,
    horizon_ms: TimeMs,
    rng: &mut R,
) -> Vec<TimeMs> {
    // As in `poisson_events`: a non-finite rate never leaves `t = 0`.
    if daily_rate <= 0.0 || !daily_rate.is_finite() {
        return Vec::new();
    }
    // Max of load_shape over a week occurs at the weekday peak.
    let mut thinning = Thinning::diurnal(peak_hour);
    let lambda_max = daily_rate / DAY_MS as f64 * thinning.max;
    let horizon = horizon_ms as f64;
    let mut out = presized(daily_rate, horizon);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        t += -u.ln() / lambda_max;
        if t >= horizon {
            break;
        }
        if thinning.accepts(t as TimeMs, rng.random::<f64>()) {
            out.push(t as TimeMs);
        }
    }
    out
}

/// Burst-cluster ("session") arrivals: diurnally thinned Poisson bursts,
/// geometric burst sizes, exponential intra-burst gaps. The burst rate
/// is chosen so the long-run event rate matches `daily_rate`. Burst
/// starts follow the **square** of the load shape — sessions concentrate
/// in the app's daytime, so overnight idle gaps stretch to many hours.
fn bursty_events<R: Rng + ?Sized>(
    daily_rate: f64,
    mean_burst_size: f64,
    intra_gap_ms: f64,
    peak_hour: f64,
    horizon_ms: TimeMs,
    rng: &mut R,
) -> Vec<TimeMs> {
    if daily_rate <= 0.0 {
        return Vec::new();
    }
    let burst_size = mean_burst_size.max(1.0);
    let sizes = Geometric::new(burst_size);
    let intra_gap = intra_gap_ms.max(1.0);
    let burst_rate_per_ms = daily_rate / burst_size / DAY_MS as f64;
    let (mean_sq, max_sq) = shape_sq_stats(peak_hour);
    let mut thinning = Thinning::bursty(peak_hour, max_sq);
    let lambda_max = burst_rate_per_ms * max_sq / mean_sq;
    if !lambda_max.is_finite() {
        // A NaN or infinite `peak_hour`: no load shape, no stream (and
        // a NaN rate would never reach the horizon).
        return Vec::new();
    }
    let horizon = horizon_ms as f64;
    let mut out = presized(daily_rate, horizon);
    let mut t = 0.0f64;
    loop {
        // Candidate burst start at the peak rate; thin by shape².
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        t += -u.ln() / lambda_max;
        if t >= horizon {
            break;
        }
        if !thinning.accepts(t as TimeMs, rng.random::<f64>()) {
            continue;
        }
        // Geometric burst size with the requested mean.
        let n = sizes.sample(rng);
        let mut bt = t;
        out.push(bt as TimeMs);
        for _ in 1..n {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            bt += -u.ln() * intra_gap;
            if bt >= horizon {
                break;
            }
            out.push(bt as TimeMs);
        }
        t = t.max(bt); // Next inter-burst gap starts at the burst's end.
    }
    out
}

/// Weekly mean and max of the squared load shape (coarse 15-minute grid;
/// exact enough for thinning normalization).
///
/// Stated deviation: the max is taken on the grid, not over the week.
/// For a `peak_hour` off the grid the true weekday peak falls between
/// two grid points (at most 7.5 minutes from one), so near it
/// `shape² / max_sq` exceeds 1, by up to about 0.027 %, and bursty
/// thinning accepts every candidate there. Correcting it would move
/// every bursty stream, so it stands; the squeeze's bounds hold for
/// ratios above 1.
fn shape_sq_stats(peak_hour: f64) -> (f64, f64) {
    const QUARTER_MS: TimeMs = 15 * 60 * 1000;
    const PER_DAY: usize = (DAY_MS / QUARTER_MS) as usize;
    // The grid repeats daily: one bump per quarter hour of the day.
    let bumps: [f64; PER_DAY] =
        std::array::from_fn(|q| bump(clock(q as TimeMs * QUARTER_MS).1 - peak_hour));
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let steps = 7 * PER_DAY;
    for i in 0..steps {
        let t = i as TimeMs * QUARTER_MS;
        let s = shape(bumps[i % PER_DAY], clock(t).0);
        let sq = s * s;
        sum += sq;
        if sq > max {
            max = sq;
        }
    }
    (sum / steps as f64, max)
}

/// Geometric sampler (support ≥ 1) with a given mean; `ln(1 − 1/mean)`
/// is taken once, not per sample.
struct Geometric {
    /// `None` when the mean is at most 1: every sample is 1, drawing
    /// nothing.
    ln_q: Option<f64>,
}

impl Geometric {
    fn new(mean: f64) -> Self {
        let ln_q = if mean <= 1.0 {
            None
        } else {
            Some((1.0 - 1.0 / mean).ln())
        };
        Geometric { ln_q }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let Some(ln_q) = self.ln_q else {
            return 1;
        };
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        (u.ln() / ln_q).ceil().max(1.0) as u64
    }
}

/// Long-period quasi-periodic arrivals with Gaussian jitter.
pub(crate) fn rare_periodic_events<R: Rng + ?Sized>(
    period_ms: TimeMs,
    jitter_ms: f64,
    horizon_ms: TimeMs,
    rng: &mut R,
) -> Vec<TimeMs> {
    assert!(period_ms > 0, "period must be positive");
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Box–Muller standard normal jitter.
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        t += period_ms as f64 + z * jitter_ms;
        // A NaN or infinite jitter (or one so large the walk overflows)
        // leaves `t` non-finite for good: the stream ends there.
        if t >= horizon_ms as f64 || !t.is_finite() {
            break;
        }
        if t >= 0.0 {
            out.push(t as TimeMs);
        }
    }
    out
}

/// Inter-arrival times (ms, as f64) of a sorted event sequence.
pub fn iats(events: &[TimeMs]) -> Vec<f64> {
    events.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype_ref;
    use crate::time::{MINUTE_MS, WEEK_MS};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sitw_stats::Welford;

    fn cv_of(events: &[TimeMs]) -> f64 {
        let mut w = Welford::new();
        for iat in iats(events) {
            w.push(iat);
        }
        w.cv()
    }

    /// The archetype a property case draws, by kind `0..6`. Peaks range
    /// over `[-30, 54)`, in and out of the squeeze table. Timer sets
    /// hold one to three timers; the first and third are identical, so
    /// their firings tie.
    fn drawn_archetype(kind: u64, peak_hour: f64, size: f64, period_ms: TimeMs) -> Archetype {
        let timers = [
            TimerSpec {
                period_ms,
                phase_ms: period_ms / 3,
            },
            TimerSpec {
                period_ms: period_ms * 2 + 1,
                phase_ms: 0,
            },
            TimerSpec {
                period_ms,
                phase_ms: period_ms / 3,
            },
        ];
        match kind {
            0 => Archetype::Timers(timers[..1 + (period_ms % 3) as usize].to_vec()),
            1 => Archetype::Poisson,
            2 => Archetype::Diurnal { peak_hour },
            3 => Archetype::Bursty {
                mean_burst_size: size,
                intra_gap_ms: 50.0 * size * size,
                peak_hour,
            },
            4 => Archetype::RarePeriodic {
                period_ms,
                jitter_ms: 0.8 * period_ms as f64 * size / 8.0,
            },
            _ => Archetype::Mixed {
                timers: timers[..1 + (period_ms % 3) as usize].to_vec(),
                overlay_daily_rate: 3.0 * size,
            },
        }
    }

    proptest! {
        /// Every archetype's stream equals the plain generator's
        /// (`archetype_ref`): the squeezed diurnal and bursty thinning,
        /// the merged timers and overlay, the hoisted geometric log. Rates
        /// span 0.1 to 3 000 a day, horizons 1 to 15 days, peaks in and
        /// out of `[0, 24]`, burst means below and above 1.
        #[test]
        fn squeeze_streams_equal_the_reference(
            kind in 0u64..6,
            rate_exp in 0.0f64..1.0,
            peak_hour in -30.0f64..54.0,
            on_grid in 0u64..4,
            size in 0.5f64..12.0,
            period_min in 1u64..2_000,
            days in 1u64..16,
            seed in 0u64..u64::MAX,
        ) {
            // A quarter of the peaks sit on the squeeze's bucket edges.
            let peak_hour = if on_grid == 0 { (peak_hour * 4.0).round() / 4.0 } else { peak_hour };
            let arch = drawn_archetype(kind, peak_hour, size, period_min * MINUTE_MS);
            let rate = 10f64.powf(-1.0 + 4.5 * rate_exp);
            let horizon = days * DAY_MS - seed % HOUR_MS;
            let cap = if seed % 5 == 0 { 1e9 } else { 600.0 };
            let got = generate_events(&arch, rate, horizon, cap, &mut StdRng::seed_from_u64(seed));
            let want = archetype_ref::generate_events(&arch, rate, horizon, cap, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(got, want);
        }
    }

    /// The squeeze's answer equals the exact comparison with `v` within 4
    /// ulps of the ratio, at bucket edges (and 1 ms either side),
    /// midnight, the start of day 5, the wrap after day 7, and for
    /// peaks on and off the table, infinite and NaN — which must take
    /// the exact path, not a bucket.
    #[test]
    fn squeeze_decision_equals_the_exact_test_at_the_edges() {
        let peaks = [
            0.0,
            24.0,
            8.125,
            13.3,
            -30.0,
            1e12,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut checked = 0u64;
        for peak in peaks {
            let mut diurnal = Thinning::diurnal(peak);
            let (_, max_sq) = shape_sq_stats(peak);
            let mut bursty = Thinning::bursty(peak, max_sq);
            let mut times = Vec::new();
            for day in [0, 4, 5, 6, 7, 11, 12, 14] {
                let midnight = day * DAY_MS;
                times.extend([midnight.saturating_sub(1), midnight, midnight + 1]);
                for k in 0..=SQUEEZE_BUCKETS {
                    let hour = peak + SQUEEZE_FROM + k as f64 / SQUEEZE_PER_HOUR;
                    if (0.0..24.0).contains(&hour) {
                        let at = midnight + (hour * HOUR_MS as f64).round() as TimeMs;
                        times.extend([at.saturating_sub(1), at, at + 1]);
                    }
                }
            }
            for &t in &times {
                let d_ratio = load_shape(t, peak) / diurnal.max;
                let b_shape = load_shape(t, peak);
                let b_ratio = b_shape * b_shape / max_sq;
                for ratio in [d_ratio, b_ratio] {
                    let mut vs = vec![0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON];
                    if ratio.is_finite() && ratio > 0.0 {
                        for k in 0..=4u64 {
                            vs.push(f64::from_bits(ratio.to_bits() - k));
                            vs.push(f64::from_bits(ratio.to_bits() + k));
                        }
                    }
                    for v in vs {
                        assert_eq!(
                            diurnal.accepts(t, v),
                            archetype_ref::diurnal_accepts(t, v, peak, diurnal.max),
                            "diurnal peak {peak} t {t} v {v}"
                        );
                        assert_eq!(
                            bursty.accepts(t, v),
                            archetype_ref::bursty_accepts(t, v, peak, max_sq),
                            "bursty peak {peak} t {t} v {v}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 50_000, "{checked} decisions checked");
    }

    /// The memoized grid statistics equal the per-point ones bit for bit,
    /// for peaks across and beyond the day, on and off the grid.
    #[test]
    fn squeeze_grid_stats_equal_the_reference() {
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e12, -1e12];
        let grid = (0..4_000).map(|k| -30.0 + k as f64 * 0.021);
        for peak in grid.chain(odd) {
            let (mean, max) = shape_sq_stats(peak);
            let (ref_mean, ref_max) = archetype_ref::shape_sq_stats(peak);
            assert_eq!(mean.to_bits(), ref_mean.to_bits(), "mean at peak {peak}");
            assert_eq!(max.to_bits(), ref_max.to_bits(), "max at peak {peak}");
        }
    }

    /// Count the work: over diurnal and bursty streams with peaks across
    /// the population's range, at most 2 % of thinning candidates reach
    /// the exact comparison.
    #[test]
    fn the_squeeze_decides_almost_every_candidate() {
        DECISIONS.with(|c| c.set([0; 2]));
        for (i, peak_hour) in [8.0, 10.5, 13.3, 17.9, 20.0].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(60 + i as u64);
            generate_events(
                &Archetype::Diurnal { peak_hour },
                600.0,
                WEEK_MS,
                1e9,
                &mut rng,
            );
            let bursty = Archetype::Bursty {
                mean_burst_size: 3.0,
                intra_gap_ms: 20_000.0,
                peak_hour,
            };
            generate_events(&bursty, 600.0, WEEK_MS, 1e9, &mut rng);
        }
        let [all, exact] = DECISIONS.with(|c| c.get());
        assert!(all > 10_000, "{all} candidates");
        let share = exact as f64 / all as f64;
        assert!(
            share < 0.02,
            "{exact} of {all} candidates took the exact path"
        );
    }

    #[test]
    fn single_timer_is_strictly_periodic() {
        let arch = Archetype::Timers(vec![TimerSpec {
            period_ms: 5 * MINUTE_MS,
            phase_ms: 30_000,
        }]);
        let mut rng = StdRng::seed_from_u64(1);
        let ev = generate_events(&arch, 288.0, DAY_MS, 1e9, &mut rng);
        assert_eq!(ev.len(), 288); // 24h / 5min.
        assert_eq!(ev[0], 30_000);
        assert!(cv_of(&ev) < 1e-9, "timer CV must be 0");
    }

    #[test]
    fn multiple_timers_raise_cv_above_zero() {
        let arch = Archetype::Timers(vec![
            TimerSpec {
                period_ms: 5 * MINUTE_MS,
                phase_ms: 0,
            },
            TimerSpec {
                period_ms: 7 * MINUTE_MS,
                phase_ms: 2 * MINUTE_MS,
            },
        ]);
        let mut rng = StdRng::seed_from_u64(2);
        let ev = generate_events(&arch, 0.0, DAY_MS, 1e9, &mut rng);
        let cv = cv_of(&ev);
        assert!(cv > 0.1, "multi-timer CV {cv}");
    }

    #[test]
    fn poisson_rate_and_cv() {
        let mut rng = StdRng::seed_from_u64(3);
        let ev = generate_events(&Archetype::Poisson, 1000.0, WEEK_MS, 1e9, &mut rng);
        let per_day = ev.len() as f64 / 7.0;
        assert!((per_day - 1000.0).abs() < 60.0, "rate {per_day}");
        let cv = cv_of(&ev);
        assert!((cv - 1.0).abs() < 0.1, "poisson CV {cv}");
    }

    #[test]
    fn bursty_clusters_have_high_cv_and_short_gaps() {
        let mut rng = StdRng::seed_from_u64(4);
        let arch = Archetype::Bursty {
            mean_burst_size: 8.0,
            intra_gap_ms: 10_000.0,
            peak_hour: 13.0,
        };
        let ev = generate_events(&arch, 2000.0, WEEK_MS, 1e9, &mut rng);
        let cv = cv_of(&ev);
        assert!(cv > 1.5, "bursty CV {cv}");
        // Mean rate approximately honored (burst overlap inflates a bit).
        let per_day = ev.len() as f64 / 7.0;
        assert!(
            (1500.0..3000.0).contains(&per_day),
            "rate {per_day} events/day"
        );
        // Most gaps are intra-burst (short): the warm-start fuel of
        // Figure 14.
        let short = iats(&ev).iter().filter(|&&g| g < 60_000.0).count();
        assert!(
            short as f64 > 0.5 * (ev.len() - 1) as f64,
            "short gaps {short}/{}",
            ev.len()
        );
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = StdRng::seed_from_u64(40);
        let n = 20_000;
        let sizes = Geometric::new(6.0);
        let mean: f64 = (0..n).map(|_| sizes.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 6.0).abs() < 0.2, "geometric mean {mean}");
        assert_eq!(Geometric::new(0.5).sample(&mut rng), 1);
    }

    #[test]
    fn rare_periodic_cv_near_zero_and_long_gaps() {
        let mut rng = StdRng::seed_from_u64(5);
        let arch = Archetype::RarePeriodic {
            period_ms: 6 * HOUR_MS,
            jitter_ms: 2.0 * MINUTE_MS as f64,
        };
        let ev = generate_events(&arch, 4.0, WEEK_MS, 1e9, &mut rng);
        assert!((26..=29).contains(&ev.len()), "events {}", ev.len());
        assert!(cv_of(&ev) < 0.05);
        // Every gap exceeds a 4-hour histogram range.
        for gap in iats(&ev) {
            assert!(gap > 4.0 * HOUR_MS as f64);
        }
    }

    #[test]
    fn diurnal_preserves_mean_rate_and_shapes_load() {
        let mut rng = StdRng::seed_from_u64(6);
        let arch = Archetype::Diurnal { peak_hour: 14.0 };
        let ev = generate_events(&arch, 5000.0, WEEK_MS, 1e9, &mut rng);
        let per_day = ev.len() as f64 / 7.0;
        assert!(
            (per_day - 5000.0).abs() < 400.0,
            "diurnal rate {per_day}/day"
        );
        // Peak-hour traffic must exceed trough-hour traffic.
        let mut by_hour = [0usize; 24];
        for &e in &ev {
            by_hour[((e % DAY_MS) / HOUR_MS) as usize] += 1;
        }
        let peak = by_hour[14];
        let trough = by_hour[2];
        assert!(
            peak as f64 > 1.3 * trough as f64,
            "peak {peak} trough {trough}"
        );
    }

    #[test]
    fn mixed_merges_timer_and_overlay() {
        let mut rng = StdRng::seed_from_u64(7);
        let arch = Archetype::Mixed {
            timers: vec![TimerSpec {
                period_ms: HOUR_MS,
                phase_ms: 0,
            }],
            overlay_daily_rate: 24.0,
        };
        let ev = generate_events(&arch, 48.0, DAY_MS, 1e9, &mut rng);
        // 24 timer firings + ~24 Poisson arrivals.
        assert!((34..70).contains(&ev.len()), "events {}", ev.len());
        assert!(ev.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        // Timer firings at exact hours must be present.
        assert!(ev.contains(&0));
        assert!(ev.contains(&HOUR_MS));
    }

    #[test]
    fn rate_cap_clamps_hot_apps() {
        let mut rng = StdRng::seed_from_u64(8);
        let ev = generate_events(&Archetype::Poisson, 1.0e6, DAY_MS, 10_000.0, &mut rng);
        let per_day = ev.len() as f64;
        assert!(per_day < 11_000.0, "capped rate {per_day}");
        assert!(per_day > 9_000.0);
    }

    #[test]
    fn zero_rate_produces_no_events() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(generate_events(&Archetype::Poisson, 0.0, WEEK_MS, 1e9, &mut rng).is_empty());
    }

    #[test]
    fn load_shape_weekly_mean_is_one() {
        // Numerical average over a week of minutes.
        let mut acc = 0.0;
        let n = 7 * 24 * 60;
        for m in 0..n {
            acc += load_shape(m as TimeMs * MINUTE_MS, 13.0);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn load_shape_weekend_damped() {
        // Tuesday 13:00 vs Saturday 13:00 (day 0 = Monday).
        let tue = load_shape(DAY_MS + 13 * HOUR_MS, 13.0);
        let sat = load_shape(5 * DAY_MS + 13 * HOUR_MS, 13.0);
        assert!(tue > sat, "tue {tue} sat {sat}");
    }

    #[test]
    fn determinism_per_seed() {
        let arch = Archetype::Bursty {
            mean_burst_size: 4.0,
            intra_gap_ms: 20_000.0,
            peak_hour: 11.0,
        };
        let a = generate_events(&arch, 100.0, DAY_MS, 1e9, &mut StdRng::seed_from_u64(42));
        let b = generate_events(&arch, 100.0, DAY_MS, 1e9, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    /// Draws a stream on its own thread, failing after a deadline: the
    /// loops the non-finite guards stand in front of never returned.
    fn drawn_within_deadline(arch: Archetype, rate: f64, cap: f64) -> Vec<TimeMs> {
        let (tx, rx) = std::sync::mpsc::channel();
        let label = format!("{arch:?} at rate {rate}, cap {cap}");
        let drawn = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(7);
            let _ = tx.send(generate_events(&arch, rate, WEEK_MS, cap, &mut rng));
        });
        let events = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{label}: no stream within 10 s"));
        drawn.join().expect("the drawing thread returned");
        events
    }

    /// A NaN or infinite bursty peak or rare-periodic jitter yields an
    /// empty stream, as a NaN diurnal peak does; so does an infinite rate
    /// under an infinite cap, and a `Mixed` app keeps only its timers.
    /// Unguarded, the bursty loop (non-finite peak) and the Poisson loop
    /// (infinite rate) grew their streams until allocation failed, and
    /// the diurnal loop (infinite rate) spun at `t = 0`.
    #[test]
    fn non_finite_peaks_and_jitters_give_empty_streams() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let arms = [
                Archetype::Diurnal { peak_hour: x },
                Archetype::Bursty {
                    mean_burst_size: 4.0,
                    intra_gap_ms: 20_000.0,
                    peak_hour: x,
                },
                Archetype::RarePeriodic {
                    period_ms: HOUR_MS,
                    jitter_ms: x,
                },
            ];
            for arch in arms {
                let label = format!("{arch:?}");
                let events = drawn_within_deadline(arch, 10.0, 600.0);
                assert!(events.is_empty(), "{label}: {} events", events.len());
            }
        }
        let timers = vec![TimerSpec {
            period_ms: HOUR_MS,
            phase_ms: 0,
        }];
        let only_timers = timer_events(&timers, WEEK_MS);
        let inf = f64::INFINITY;
        let arms = [
            (Archetype::Poisson, inf, Vec::new()),
            (Archetype::Diurnal { peak_hour: 13.0 }, inf, Vec::new()),
            (
                Archetype::Bursty {
                    mean_burst_size: 4.0,
                    intra_gap_ms: 20_000.0,
                    peak_hour: 13.0,
                },
                inf,
                Vec::new(),
            ),
            (
                Archetype::Mixed {
                    timers: timers.clone(),
                    overlay_daily_rate: inf,
                },
                inf,
                only_timers.clone(),
            ),
            // `NaN.min(NaN)` is the overlay's rate.
            (
                Archetype::Mixed {
                    timers,
                    overlay_daily_rate: f64::NAN,
                },
                f64::NAN,
                only_timers,
            ),
        ];
        for (arch, cap, want) in arms {
            let label = format!("{arch:?} under cap {cap}");
            let events = drawn_within_deadline(arch, inf, cap);
            assert_eq!(events, want, "{label}");
        }
    }

    /// A rate too large to hold asks for `usize::MAX` events, which
    /// `Vec` refuses; the unsaturated sum wrapped to 15 (or overflowed).
    #[test]
    fn presized_saturates() {
        let payload = std::panic::catch_unwind(|| presized(1e300, WEEK_MS as f64))
            .expect_err("a rate too large to hold is refused");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "capacity overflow");
    }
}
