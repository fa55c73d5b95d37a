//! The invocation-stream generator the squeeze-bounded thinning
//! replaced, kept as the reference the differential tests drive
//! [`generate_events`](crate::archetype::generate_events) against.
//!
//! Everything here is the previous implementation verbatim: one
//! [`load_shape`] call per thinning candidate (a `cos`, two integer
//! divisions and an `f64` division), the timer firings pushed and
//! sorted, a `Mixed` stream sorted again after its overlay is appended
//! and every stream sorted once more at the end, and `geometric`'s
//! `ln(1 − p)` taken per burst. The Poisson and rare-periodic arms are
//! unchanged and call the crate's own functions. [`diurnal_accepts`]
//! and [`bursty_accepts`] are the two thinning decisions as the loops
//! below write them.

use rand::Rng;

use crate::archetype::{poisson_events, rare_periodic_events, Archetype, TimerSpec};
use crate::time::{TimeMs, DAY_MS, HOUR_MS};

/// The diurnal loop's decision for a candidate at `t`: `v < shape / max_shape`.
pub(crate) fn diurnal_accepts(t: TimeMs, v: f64, peak_hour: f64, max_shape: f64) -> bool {
    let shape = load_shape(t, peak_hour);
    v < shape / max_shape
}

/// The bursty loop's decision: a candidate survives unless
/// `v >= shape² / max_sq` (so a NaN ratio accepts).
pub(crate) fn bursty_accepts(t: TimeMs, v: f64, peak_hour: f64, max_sq: f64) -> bool {
    let shape = load_shape(t, peak_hour);
    let rejected = v >= shape * shape / max_sq;
    !rejected
}

/// The platform-wide load-shape multiplier at time `t` (Figure 4):
/// a flat baseline plus a smooth diurnal bump, damped on weekends.
///
/// Day 0 is a Monday; days 5 and 6 of each week are the weekend. The
/// returned multiplier averages roughly 1 over a week, so modulating a
/// Poisson process with it approximately preserves the app's mean rate.
pub(crate) fn load_shape(t: TimeMs, peak_hour: f64) -> f64 {
    let day = (t / DAY_MS) % 7;
    let weekend = day >= 5;
    let hour = (t % DAY_MS) as f64 / HOUR_MS as f64;
    // Smooth bump peaking at `peak_hour`, period 24 h.
    let angle = (hour - peak_hour) / 24.0 * std::f64::consts::TAU;
    let bump = 0.5 * (1.0 + angle.cos());
    let weekday_amp = if weekend {
        crate::calibration::WEEKEND_FACTOR
    } else {
        1.0
    };
    let baseline = crate::calibration::DIURNAL_BASELINE;
    // Normalize: the bump averages 0.5 over a day, weekday amplitude
    // averages (5 + 2*wf)/7 over a week.
    let wf_mean = (5.0 + 2.0 * crate::calibration::WEEKEND_FACTOR) / 7.0;
    let mean = baseline + (1.0 - baseline) * 0.5 * wf_mean;
    (baseline + (1.0 - baseline) * bump * weekday_amp) / mean
}

/// Generates the sorted invocation timestamps of an application over
/// `[0, horizon_ms)`.
///
/// `daily_rate` is the app's target average invocations per day; rates
/// above `cap_per_day` are clamped (hot applications behave identically
/// for cold-start purposes once they are invoked every few seconds, and
/// the clamp bounds memory).
pub(crate) fn generate_events<R: Rng + ?Sized>(
    archetype: &Archetype,
    daily_rate: f64,
    horizon_ms: TimeMs,
    cap_per_day: f64,
    rng: &mut R,
) -> Vec<TimeMs> {
    let rate = daily_rate.min(cap_per_day).max(0.0);
    let mut events = match archetype {
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
        } => rare_periodic_events(*period_ms, *jitter_ms, horizon_ms, rng),
        Archetype::Mixed {
            timers,
            overlay_daily_rate,
        } => {
            let mut ev = timer_events(timers, horizon_ms);
            let overlay = poisson_events(overlay_daily_rate.min(cap_per_day), horizon_ms, rng);
            ev.extend(overlay);
            ev.sort_unstable();
            ev
        }
    };
    events.sort_unstable();
    events
}

/// Strict timer firings, merged across all timers.
fn timer_events(timers: &[TimerSpec], horizon_ms: TimeMs) -> Vec<TimeMs> {
    let mut out = Vec::new();
    for t in timers {
        assert!(t.period_ms > 0, "timer period must be positive");
        let mut at = t.phase_ms;
        while at < horizon_ms {
            out.push(at);
            at += t.period_ms;
        }
    }
    out.sort_unstable();
    out
}

/// Inhomogeneous Poisson process matching the Figure 4 load shape, by
/// thinning a homogeneous process at the peak rate.
fn diurnal_events<R: Rng + ?Sized>(
    daily_rate: f64,
    peak_hour: f64,
    horizon_ms: TimeMs,
    rng: &mut R,
) -> Vec<TimeMs> {
    if daily_rate <= 0.0 {
        return Vec::new();
    }
    // Max of load_shape over a week occurs at the weekday peak.
    let baseline = crate::calibration::DIURNAL_BASELINE;
    let wf_mean = (5.0 + 2.0 * crate::calibration::WEEKEND_FACTOR) / 7.0;
    let mean = baseline + (1.0 - baseline) * 0.5 * wf_mean;
    let max_shape = 1.0 / mean; // baseline + (1-baseline)*1*1, normalized.
    let lambda_max = daily_rate / DAY_MS as f64 * max_shape;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let horizon = horizon_ms as f64;
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        t += -u.ln() / lambda_max;
        if t >= horizon {
            break;
        }
        let shape = load_shape(t as TimeMs, peak_hour);
        if rng.random::<f64>() < shape / max_shape {
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
    let intra_gap = intra_gap_ms.max(1.0);
    let burst_rate_per_ms = daily_rate / burst_size / DAY_MS as f64;
    let (mean_sq, max_sq) = shape_sq_stats(peak_hour);
    let lambda_max = burst_rate_per_ms * max_sq / mean_sq;
    let horizon = horizon_ms as f64;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Candidate burst start at the peak rate; thin by shape².
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        t += -u.ln() / lambda_max;
        if t >= horizon {
            break;
        }
        let shape = load_shape(t as TimeMs, peak_hour);
        if rng.random::<f64>() >= shape * shape / max_sq {
            continue;
        }
        // Geometric burst size with the requested mean.
        let n = geometric(rng, burst_size);
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
pub(crate) fn shape_sq_stats(peak_hour: f64) -> (f64, f64) {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let steps = 7 * 24 * 4;
    for i in 0..steps {
        let t = i as u64 * 15 * 60 * 1000;
        let s = load_shape(t, peak_hour);
        let sq = s * s;
        sum += sq;
        if sq > max {
            max = sq;
        }
    }
    (sum / steps as f64, max)
}

/// Geometric sample (support ≥ 1) with the given mean.
fn geometric<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
}
