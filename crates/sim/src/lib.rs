//! Cold-start simulator for keep-alive policies (§5.1 methodology).
//!
//! * [`engine`] replays one application's invocation timestamps against a
//!   policy, classifying cold/warm starts and accounting wasted memory
//!   time exactly as the paper's simulator does (zero execution times,
//!   first invocation cold, equal memory per app) — one replay loop
//!   behind [`simulate_app`] (the entry point for one policy),
//!   [`simulate_app_with_exec`], [`verdict_trace`],
//!   [`production_verdict_trace`] and the sweep, kept apart from the
//!   fleet's decision kernel so the daemon can be checked against it;
//! * [`metrics`] aggregates per-app results into the evaluation's
//!   statistics (cold-start CDFs, 75th percentile, normalized waste,
//!   always-cold share, ARIMA usage);
//! * [`sweep`] evaluates many policy configurations over a population in
//!   parallel, generating each app's stream once and walking it once for
//!   every configuration: hybrid configurations with one bin count, bin
//!   width and history cap share one histogram, one cursor per distinct
//!   percentile and one history, and each configuration still decides
//!   and accounts on its own, so every aggregate is bit-identical to
//!   folding [`simulate_app`] under that configuration's own policy.
//!
//! # Examples
//!
//! ```
//! use sitw_core::{FixedKeepAlive, PolicyFactory};
//! use sitw_sim::simulate_app;
//!
//! // An app invoked every 30 minutes for 5 hours.
//! let events: Vec<u64> = (0..10).map(|i| i * 30 * 60_000).collect();
//! let mut policy = FixedKeepAlive::minutes(10).new_policy();
//! let result = simulate_app(&events, 10 * 30 * 60_000, &mut policy);
//! // 30-minute gaps always exceed a 10-minute keep-alive: all cold.
//! assert_eq!(result.cold_starts, 10);
//! ```

//!
//! Stable for `benchmark/` (see `sitw_serve`'s crate docs):
//! [`verdict_trace`], [`simulate_app`], [`run_sweep`],
//! [`PolicyAggregate`] (`new`, and the fields the sweep check
//! fingerprints: `label`, `apps`, `invocations`, `cold_starts`,
//! `wasted_ms`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod sweep;

pub use engine::{
    production_verdict_trace, simulate_app, simulate_app_with_exec, verdict_trace, AppSimResult,
    InvocationVerdict,
};
pub use metrics::{pareto_points, ParetoPoint, PolicyAggregate};
pub use sweep::{run_sweep, PolicySpec};

// The multi-tenant ground truth lives in `sitw_fleet` (shared with the
// serving daemon); re-exported here next to the single-policy traces so
// parity tests find every offline oracle in one place.
pub use sitw_fleet::{fleet_verdict_trace, FleetError, FleetEvent, FleetSim, FleetVerdict};
