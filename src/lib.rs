//! Serverless in the Wild — a Rust reproduction.
//!
//! This crate re-exports the workspace's components behind one façade so
//! examples and downstream users need a single dependency:
//!
//! * [`stats`] — statistics substrate (Welford CVs, percentiles,
//!   range-limited histograms, ECDFs, the paper's log-normal/Burr fits);
//! * [`arima`] — from-scratch ARIMA with automatic order selection;
//! * [`trace`] — workload model, synthetic Azure-Functions-like trace
//!   generation, AzurePublicDataset schema I/O, characterization
//!   analysis;
//! * [`core`] — the keep-alive policies: fixed, no-unloading, the
//!   **hybrid histogram policy**, and the §6 production-style manager;
//! * [`fleet`] — the multi-tenant fleet subsystem: tenant registry,
//!   Burr-sampled memory footprints, the cluster memory ledger, and
//!   budgeted eviction;
//! * [`sim`] — the §5.1 cold-start simulator and policy sweep driver;
//! * [`platform`] — the OpenWhisk-model discrete-event platform for the
//!   §5.3 experiments;
//! * [`serve`] — the online decision service: a sharded HTTP/1.1 daemon
//!   serving the policy engine the way §6 deploys it, plus a
//!   trace-driven load generator.
//!
//! # Quickstart
//!
//! ```
//! use serverless_in_the_wild::prelude::*;
//!
//! // 1. Build a small workload; default config generates one week.
//! let pop = build_population(&PopulationConfig { num_apps: 50, seed: 7 });
//! let cfg = TraceConfig::default();
//!
//! // 2. Compare the provider default against the paper's policy.
//! let specs = vec![
//!     PolicySpec::fixed_minutes(10),
//!     PolicySpec::Hybrid(HybridConfig::default()),
//! ];
//! let results = run_sweep(&pop, &cfg, &specs, 2);
//!
//! // 3. The hybrid policy cuts cold starts.
//! assert!(results[1].cold_starts <= results[0].cold_starts);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sitw_arima as arima;
pub use sitw_core as core;
pub use sitw_fleet as fleet;
pub use sitw_platform as platform;
pub use sitw_serve as serve;
pub use sitw_sim as sim;
pub use sitw_stats as stats;
pub use sitw_trace as trace;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use sitw_core::{
        AppPolicy, DecisionKind, FixedKeepAlive, HybridApp, HybridConfig, HybridPolicy,
        NoUnloading, PolicyFactory, ProductionApp, ProductionConfig, ProductionManager,
        ProductionPolicy, RecencyWeighting, Windows,
    };
    pub use sitw_fleet::{
        fleet_verdict_trace, footprint_mb, FleetEvent, FleetSim, FleetVerdict, TenantLedger,
        TenantRegistry, TenantSpec,
    };
    pub use sitw_platform::{run_platform, PlatformConfig, PlatformReport};
    pub use sitw_serve::{run_loadgen, LoadGenConfig, LoadGenReport, Proto, ServeConfig, Server};
    pub use sitw_sim::{
        pareto_points, production_verdict_trace, run_sweep, simulate_app, simulate_app_with_exec,
        verdict_trace, AppSimResult, InvocationVerdict, PolicyAggregate, PolicySpec,
    };
    pub use sitw_stats::{Ecdf, RangeHistogram, Welford};
    pub use sitw_trace::{
        build_population, generate_trace, AppProfile, Population, PopulationConfig, TimeMs, Trace,
        TraceConfig, TriggerType, DAY_MS, HOUR_MS, MINUTE_MS, WEEK_MS,
    };
}
