//! Discrete-event model of an OpenWhisk-style FaaS platform.
//!
//! The paper's §5.3 experiments run 68 mid-popularity applications for 8
//! hours on a 19-VM OpenWhisk deployment (1 controller + 18 invokers)
//! with FaaSProfiler replaying the trace. That testbed is unavailable
//! here, so this crate substitutes a deterministic discrete-event
//! simulation of the same architecture for it:
//!
//! * [`config`] — cluster sizing and the published component latencies
//!   (container init O(100 ms), runtime bootstrap O(10 ms)+);
//! * [`cluster`] — invokers with memory-capped container pools,
//!   LRU eviction, per-activation keep-alive (the §4.3
//!   `ActivationMessage` extension);
//! * [`platform`] — the controller/load-balancer event loop with policy
//!   integration and pre-warm publication;
//! * [`report`] — per-invocation records and the §5.3 metrics (cold-start
//!   CDF, execution-time percentiles, idle-memory integrals).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod platform;
pub mod report;

pub use cluster::{Container, ContainerState, Invoker, InvokerStats};
pub use config::PlatformConfig;
pub use platform::run_platform;
pub use report::{InvocationRecord, PlatformReport};
