//! FaaS workload model and trace substrate for the Serverless-in-the-Wild
//! reproduction.
//!
//! The paper characterizes the full production workload of Azure
//! Functions and releases a sanitized trace; neither the production
//! telemetry nor scale is available here, so this crate substitutes a
//! synthetic population calibrated to the paper's published
//! distributions for the dataset, and reads the released trace's schema
//! for whoever has it:
//!
//! * a **synthetic population generator** ([`population`]) calibrated to
//!   every published distribution — functions per app (Figure 1), trigger
//!   mixes (Figures 2–3), daily-rate quantile anchors spanning 8 orders
//!   of magnitude (Figure 5), IAT-CV mixture (Figure 6), log-normal
//!   execution times (Figure 7), Burr memory (Figure 8);
//! * **arrival archetypes** ([`archetype`]) generating per-app invocation
//!   streams (timers, Poisson, diurnal, bursty, rare-periodic);
//! * a **trace generator** ([`generator`]) with per-app deterministic
//!   seeding, streaming or materialized, on every core;
//! * **AzurePublicDataset schema I/O** ([`schema`]) so the real released
//!   trace can be dropped in place of the synthetic one;
//! * **characterization analysis** ([`analysis`]) computing the data
//!   behind Figures 1–8 from any population/trace;
//! * **subset selection** ([`subset`]) reproducing the paper's §5.3
//!   "68 mid-range-popularity applications, 8 hours" experiment input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod archetype;
#[cfg(test)]
mod archetype_ref;
pub mod calibration;
pub mod generator;
pub mod model;
pub mod population;
pub mod schema;
pub mod subset;
pub mod time;

pub use archetype::{Archetype, TimerSpec};
pub use generator::{app_invocations, for_each_app, generate_trace, AppTrace, Trace, TraceConfig};
pub use model::{AppId, AppProfile, FunctionProfile, Population, TriggerType};
pub use population::{build_population, PopulationConfig};
pub use time::{TimeMs, DAY_MS, HOUR_MS, MINUTE_MS, SECOND_MS, WEEK_MS};
