//! Time units for traces and simulation.
//!
//! Everything downstream (policies, simulator, platform) uses integer
//! milliseconds, which keeps event ordering exact and matches the paper's
//! resolutions: 1-minute invocation bins, minute-granularity histograms,
//! and sub-second cold-start latencies.

/// A point in time or a duration, in milliseconds.
pub type TimeMs = u64;

/// One second in milliseconds.
pub const SECOND_MS: TimeMs = 1_000;

/// One minute in milliseconds.
pub const MINUTE_MS: TimeMs = 60 * SECOND_MS;

/// One hour in milliseconds.
pub const HOUR_MS: TimeMs = 60 * MINUTE_MS;

/// One day in milliseconds.
pub const DAY_MS: TimeMs = 24 * HOUR_MS;

/// One week in milliseconds.
pub const WEEK_MS: TimeMs = 7 * DAY_MS;

/// The day index (0-based) containing the given time.
pub fn day_of(ms: TimeMs) -> u64 {
    ms / DAY_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_consistent() {
        assert_eq!(MINUTE_MS, 60_000);
        assert_eq!(HOUR_MS, 3_600_000);
        assert_eq!(DAY_MS, 86_400_000);
        assert_eq!(WEEK_MS, 7 * 86_400_000);
    }

    #[test]
    fn indices() {
        assert_eq!(day_of(DAY_MS + 1), 1);
    }
}
