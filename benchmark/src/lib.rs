//! The repo benchmark harness. See `benchmark/README.md`.
#![forbid(unsafe_code)]

pub mod calib;
pub mod client;
pub mod inputs;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod selfcheck;
pub mod span;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod workloads;
