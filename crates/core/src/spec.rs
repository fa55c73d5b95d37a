//! Heterogeneous policy configuration: one value naming any of the
//! crate's keep-alive policies, with a parse/format round trip.
//!
//! [`PolicySpec`] started life in the simulation sweep driver, but the
//! fleet subsystem needs it too — per-tenant policies are specs, tenant
//! config files and the serving daemon's CLI parse the same strings, and
//! snapshots persist them — so it lives here, next to the policy types
//! it names. `sitw_sim` re-exports it, keeping the old path working.

use std::fmt;
use std::str::FromStr;

use crate::fixed::{FixedKeepAlive, NoUnloading};
use crate::hybrid::HybridConfig;
use crate::policy::{AppPolicy, PolicyFactory, MINUTE_MS};
use crate::production::{ProductionConfig, RecencyWeighting};

/// The longest histogram range a parsed spec may ask for: one day, 1 440
/// bins, which every app allocates at first sight (5.6 KB).
pub const MAX_RANGE_MINUTES: usize = 24 * 60;

/// Why [`PolicySpec::parse`] refused a string. Specs arrive from outside
/// (`POST /admin/tenants`, tenant migration, the CLI and tenant files),
/// so a string the decision kernel could not serve stops here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Not a policy the grammar names.
    Unknown(String),
    /// Not a number the policy can serve: what the parameter sets, with
    /// the values it can take, and the text given.
    BadParameter(&'static str, String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Unknown(s) => write!(f, "unknown policy '{s}'"),
            SpecError::BadParameter(what, value) => write!(f, "bad {what}: '{value}'"),
        }
    }
}

impl std::error::Error for SpecError {}

/// `text` as a number `ok` accepts, or the error naming `what`.
fn number<T: FromStr>(what: &'static str, text: &str, ok: fn(&T) -> bool) -> Result<T, SpecError> {
    text.parse()
        .ok()
        .filter(ok)
        .ok_or_else(|| SpecError::BadParameter(what, text.into()))
}

/// A heterogeneous policy configuration for sweeps, tenants, and the
/// serving daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Fixed keep-alive baseline.
    Fixed(FixedKeepAlive),
    /// Never unload (upper bound).
    NoUnloading,
    /// The hybrid histogram policy.
    Hybrid(HybridConfig),
    /// The production-manager scheme (§6): daily histograms with
    /// retention and recency-weighted aggregation.
    Production(ProductionConfig),
}

impl PolicySpec {
    /// Convenience constructor: fixed keep-alive in minutes.
    pub fn fixed_minutes(minutes: u64) -> Self {
        PolicySpec::Fixed(FixedKeepAlive::minutes(minutes))
    }

    /// The label used in aggregates and reports.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Fixed(f) => f.label(),
            PolicySpec::NoUnloading => NoUnloading.label(),
            PolicySpec::Hybrid(h) => h.label(),
            PolicySpec::Production(p) => p.label(),
        }
    }

    /// Creates the per-app policy instance.
    ///
    /// For [`PolicySpec::Production`] this is the single-app
    /// [`crate::ProductionPolicy`] adapter (trace-relative day
    /// boundaries); daemon-parity replays use
    /// `sitw_sim::production_verdict_trace` with absolute timestamps.
    pub fn new_policy(&self) -> Box<dyn AppPolicy + Send> {
        match self {
            PolicySpec::Fixed(f) => Box::new(f.new_policy()),
            PolicySpec::NoUnloading => Box::new(NoUnloading),
            PolicySpec::Hybrid(h) => Box::new(h.new_policy()),
            PolicySpec::Production(p) => Box::new(p.new_policy()),
        }
    }

    /// Parses the CLI/config-file grammar shared by the daemon, tenant
    /// configs, and snapshots:
    ///
    /// * `hybrid` (paper defaults), `hybrid:<hours>h` (histogram range);
    /// * `fixed:<minutes>` / `fixed:<minutes>min` (fixed keep-alive);
    /// * `no-unloading`;
    /// * `production` and its variants `production:<days>d` (retention),
    ///   `production:<decay>` (per-day exponential decay, e.g.
    ///   `production:0.5`), `production:uniform` (no recency weighting).
    ///
    /// # Errors
    ///
    /// Anything else, and numbers the kernel cannot serve (see
    /// [`SpecError`] and [`MAX_RANGE_MINUTES`]).
    pub fn parse(s: &str) -> Result<PolicySpec, SpecError> {
        if s == "production" {
            return Ok(PolicySpec::Production(ProductionConfig::default()));
        }
        if let Some(rest) = s.strip_prefix("production:") {
            let mut cfg = ProductionConfig::default();
            if rest == "uniform" {
                cfg.weighting = RecencyWeighting::Uniform;
            } else if let Some(days) = rest.strip_suffix('d') {
                // Zero retention would expire even the current day: the
                // aggregate stays empty and the policy never learns.
                let what = "retention (at least 1 day)";
                cfg.retention_days = number(what, days, |&d| d > 0)?;
            } else {
                let decay = number("decay (0, 1]", rest, |&d: &f64| d > 0.0 && d <= 1.0)?;
                cfg.weighting = RecencyWeighting::Exponential { decay };
            }
            return Ok(PolicySpec::Production(cfg));
        }
        if s == "hybrid" {
            return Ok(PolicySpec::Hybrid(HybridConfig::default()));
        }
        if let Some(rest) = s.strip_prefix("hybrid:") {
            // Bounded before `with_range_hours` multiplies it, as the
            // fixed keep-alive below is before `fixed_minutes` does.
            let what = "hybrid range (1h to 24h)";
            let hours = number(what, rest.trim_end_matches('h'), |h| {
                (1..=MAX_RANGE_MINUTES / 60).contains(h)
            })?;
            return Ok(PolicySpec::Hybrid(HybridConfig::with_range_hours(hours)));
        }
        if let Some(rest) = s.strip_prefix("fixed:") {
            let what = "fixed keep-alive (minutes up to u64::MAX ms)";
            let fits = |m: &u64| m.checked_mul(MINUTE_MS).is_some();
            let minutes = number(what, rest.trim_end_matches("min"), fits)?;
            return Ok(PolicySpec::fixed_minutes(minutes));
        }
        if s == "no-unloading" {
            return Ok(PolicySpec::NoUnloading);
        }
        Err(SpecError::Unknown(s.into()))
    }

    /// The canonical [`PolicySpec::parse`] string for this spec, when one
    /// exists. Specs built programmatically with knobs the grammar does
    /// not cover (custom cutoffs, decays plus retention, …) return
    /// `None`; persisting those requires the caller to re-supply the
    /// configuration (exactly like the daemon's own `--policy` restore
    /// contract).
    pub fn spec_str(&self) -> Option<String> {
        match self {
            PolicySpec::Fixed(f) if f.keep_alive_ms % MINUTE_MS == 0 => {
                Some(format!("fixed:{}", f.keep_alive_ms / MINUTE_MS))
            }
            PolicySpec::Fixed(_) => None,
            PolicySpec::NoUnloading => Some("no-unloading".into()),
            PolicySpec::Hybrid(h) => {
                let canonical = if h.range_minutes % 60 == 0 {
                    HybridConfig::with_range_hours(h.range_minutes / 60)
                } else {
                    return None;
                };
                if *h == canonical {
                    Some(if h.range_minutes == 240 {
                        "hybrid".into()
                    } else {
                        format!("hybrid:{}h", h.range_minutes / 60)
                    })
                } else {
                    None
                }
            }
            PolicySpec::Production(p) => {
                let default = ProductionConfig::default();
                let base = ProductionConfig {
                    retention_days: p.retention_days,
                    weighting: p.weighting,
                    ..default
                };
                if *p != base {
                    return None;
                }
                match (p.retention_days, p.weighting) {
                    (d, w) if d == default.retention_days && w == default.weighting => {
                        Some("production".into())
                    }
                    (d, w) if w == default.weighting => Some(format!("production:{d}d")),
                    (d, RecencyWeighting::Uniform) if d == default.retention_days => {
                        Some("production:uniform".into())
                    }
                    (d, RecencyWeighting::Exponential { decay }) if d == default.retention_days => {
                        Some(format!("production:{decay}"))
                    }
                    _ => None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_production_variants() {
        assert_eq!(
            PolicySpec::parse("production").unwrap().label(),
            "production-240m-14d[5,99]exp0.85"
        );
        assert_eq!(
            PolicySpec::parse("production:7d").unwrap().label(),
            "production-240m-7d[5,99]exp0.85"
        );
        assert_eq!(
            PolicySpec::parse("production:0.5").unwrap().label(),
            "production-240m-14d[5,99]exp0.5"
        );
        assert_eq!(
            PolicySpec::parse("production:uniform").unwrap().label(),
            "production-240m-14d[5,99]uni"
        );
        assert!(PolicySpec::parse("production:nope").is_err());
        assert!(PolicySpec::parse("production:1.5").is_err());
        assert!(PolicySpec::parse("production:0").is_err());
        assert!(
            PolicySpec::parse("production:0d").is_err(),
            "zero retention would never learn"
        );
    }

    #[test]
    fn parse_base_forms() {
        assert_eq!(
            PolicySpec::parse("hybrid").unwrap().label(),
            "hybrid-4h[5,99]cv2"
        );
        assert_eq!(
            PolicySpec::parse("hybrid:2h").unwrap().label(),
            "hybrid-2h[5,99]cv2"
        );
        assert_eq!(
            PolicySpec::parse("fixed:10").unwrap().label(),
            "fixed-10min"
        );
        assert_eq!(
            PolicySpec::parse("fixed:10min").unwrap().label(),
            "fixed-10min"
        );
        assert_eq!(
            PolicySpec::parse("no-unloading").unwrap().label(),
            "no-unloading"
        );
        assert!(PolicySpec::parse("bogus").is_err());
    }

    #[test]
    fn spec_str_round_trips_parseable_specs() {
        for s in [
            "hybrid",
            "hybrid:2h",
            "fixed:10",
            "no-unloading",
            "production",
            "production:7d",
            "production:0.5",
            "production:uniform",
        ] {
            let spec = PolicySpec::parse(s).unwrap();
            let canon = spec.spec_str().unwrap();
            assert_eq!(PolicySpec::parse(&canon).unwrap(), spec, "{s} -> {canon}");
        }
        // `fixed:10min` normalizes to `fixed:10`.
        assert_eq!(
            PolicySpec::parse("fixed:10min")
                .unwrap()
                .spec_str()
                .unwrap(),
            "fixed:10"
        );
    }

    #[test]
    fn parse_refuses_what_the_kernel_cannot_serve() {
        let out_of_range =
            |s: &str| matches!(PolicySpec::parse(s), Err(SpecError::BadParameter(..)));
        // `minutes * MINUTE_MS` used to overflow: a panic in a debug
        // build, a wrapped keep-alive in a release one.
        assert!(out_of_range("fixed:400000000000000"));
        assert!(out_of_range(&format!("fixed:{}", u64::MAX)));
        // `hours * 60` likewise.
        assert!(out_of_range(&format!("hybrid:{}h", usize::MAX)));
        // A one-bin histogram, and a range whose bins every first sight
        // would allocate (24 MB at 100 000 h).
        assert!(out_of_range("hybrid:0h"));
        assert!(out_of_range("hybrid:25h"));
        assert!(out_of_range("hybrid:100000h"));
        assert_eq!(
            PolicySpec::parse("hybrid:24h").unwrap(),
            PolicySpec::Hybrid(HybridConfig::with_range_hours(24))
        );
        let max_fixed = u64::MAX / MINUTE_MS;
        assert_eq!(
            PolicySpec::parse(&format!("fixed:{max_fixed}")).unwrap(),
            PolicySpec::fixed_minutes(max_fixed)
        );
        assert_eq!(
            PolicySpec::parse("hybrid:xh"),
            Err(SpecError::BadParameter(
                "hybrid range (1h to 24h)",
                "x".into()
            ))
        );
        assert_eq!(
            PolicySpec::parse("bogus").unwrap_err().to_string(),
            "unknown policy 'bogus'"
        );
    }

    #[test]
    fn spec_str_refuses_unparseable_configs() {
        let custom = PolicySpec::Hybrid(HybridConfig::default().with_cv_threshold(5.0));
        assert_eq!(custom.spec_str(), None);
        let odd_fixed = PolicySpec::Fixed(FixedKeepAlive {
            keep_alive_ms: 90_500,
        });
        assert_eq!(odd_fixed.spec_str(), None);
    }

    #[test]
    fn new_policy_dispatches() {
        let mut p = PolicySpec::fixed_minutes(10).new_policy();
        assert_eq!(
            p.on_invocation(None),
            crate::Windows::keep_loaded(10 * MINUTE_MS)
        );
    }
}
