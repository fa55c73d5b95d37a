//! Keep-alive policies for FaaS cold-start management — the primary
//! contribution of *Serverless in the Wild* (Shahrad et al., USENIX ATC
//! 2020).
//!
//! The crate provides:
//!
//! * the policy abstraction ([`policy`]): per-application state machines
//!   emitting a *(pre-warming window, keep-alive window)* pair after each
//!   function execution;
//! * the state-of-practice baselines ([`fixed`]): fixed keep-alive (10
//!   minutes on AWS/OpenWhisk, 20 on Azure at the time) and the
//!   no-unloading upper bound;
//! * the **hybrid histogram policy** ([`hybrid`]): a 1-minute-bin,
//!   range-limited idle-time histogram with head/tail percentile cutoffs
//!   and margins, a CV-based representativeness gate with a conservative
//!   fallback, and an ARIMA path for applications whose idle times
//!   exceed the histogram range;
//! * the production-style scheme ([`production`]): daily histograms
//!   with two-week retention, recency-weighted aggregation, hourly
//!   backups, and pre-warm scheduling 90 s early, as deployed in Azure
//!   Functions (§6); a learning policy's per-app state ([`HybridRow`],
//!   [`ProductionApp`]) holds no configuration.
//!
//! # Examples
//!
//! ```
//! use sitw_core::{AppPolicy, HybridConfig, PolicyFactory};
//!
//! let mut policy = HybridConfig::default().new_policy();
//! policy.on_invocation(None); // First invocation: cold by definition.
//!
//! // An app invoked every 10 minutes: the histogram concentrates and the
//! // policy pre-warms just before the next invocation.
//! let mut windows = policy.on_invocation(Some(10 * 60_000));
//! for _ in 0..20 {
//!     windows = policy.on_invocation(Some(10 * 60_000));
//! }
//! assert!(windows.pre_warm_ms > 0);
//! assert!(windows.is_warm_at(10 * 60_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod hybrid;
#[cfg(test)]
mod hybrid_ref;
pub mod policy;
pub mod production;
pub mod spec;

pub use fixed::{FixedKeepAlive, NoUnloading};
pub use hybrid::{
    history_code, idle_minutes, DecisionCounts, HistoryView, HybridApp, HybridConfig, HybridGroup,
    HybridPolicy, HybridRow, HybridSnapshot, IdleHistory, Regime, ESCAPED,
};
pub use policy::{
    AppPolicy, DecisionKind, DurationMs, GapOutcome, PolicyFactory, Windows, MINUTE_MS,
};
pub use production::{
    DayHistogram, ProductionApp, ProductionAppState, ProductionConfig, ProductionManager,
    ProductionPolicy, RecencyWeighting,
};
pub use spec::{PolicySpec, SpecError};
