//! Statistics substrate for the Serverless-in-the-Wild reproduction.
//!
//! The paper (Shahrad et al., USENIX ATC 2020) leans on a small set of
//! statistical machinery that this crate provides from scratch:
//!
//! * **Online moments** ([`online::Welford`]) — the paper tracks the
//!   coefficient of variation (CV) of histogram bin counts "using Welford's
//!   online algorithm" (§4.2) and characterizes IAT variability through CVs
//!   (§3.3, Figure 6).
//! * **Weighted percentiles** ([`percentile::WeightedSamples`]) — §3.1
//!   reconstructs execution-time and memory distributions from
//!   `(average, count)` samples by weighting each average by its count.
//! * **Range-limited histograms** ([`histogram::RangeHistogram`]) — the
//!   centerpiece data structure of the hybrid policy: 1-minute bins over a
//!   bounded range with out-of-bounds tracking (§4.2, §6).
//! * **Empirical CDFs** ([`ecdf::Ecdf`]) — every characterization figure is
//!   a CDF.
//! * **Distributions** ([`distributions`]) — the published fits: log-normal
//!   execution times (Figure 7), Burr XII memory (Figure 8), plus the
//!   samplers the synthetic trace generator needs.
//! * **Goodness-of-fit and series helpers** ([`fit`]).
//! * **Report formatting** ([`report`]) — aligned text tables and CSV
//!   emission shared by the figure-regeneration harness.
//!
//! Everything is deterministic given a caller-provided RNG; no global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod ecdf;
pub mod fit;
pub mod histogram;
#[cfg(test)]
mod histogram_ref;
pub mod online;
pub mod percentile;
pub mod report;

pub use distributions::{Burr, ContinuousDist, Exponential, LogNormal, Normal, Pareto, Uniform};
pub use ecdf::Ecdf;
pub use histogram::{PercentileCursor, RangeHistogram, Recorded, WeightedCursor, WeightedSum};
pub use online::{MinMaxMean, Welford};
pub use percentile::{percentile_sorted, WeightedSamples};
