//! Statistics substrate for the Serverless-in-the-Wild reproduction.
//!
//! The paper (Shahrad et al., USENIX ATC 2020) leans on a small set of
//! statistical machinery that this crate provides from scratch:
//!
//! * **Online moments** ([`online::Welford`]) — the coefficient of
//!   variation (CV) of each application's inter-arrival times, which the
//!   characterization plots (§3.3, Figure 6). The hybrid policy's CV gate
//!   over histogram bin counts (§4.2) reads O(1) sums kept by the
//!   histogram itself ([`RangeHistogram::bin_count_cv`]).
//! * **Percentiles** ([`percentile_sorted`]) — one linear-interpolation
//!   rule for every quantile the simulators and the load generator report.
//! * **Range-limited histograms** ([`histogram::RangeHistogram`]) — the
//!   centerpiece data structure of the hybrid policy: 1-minute bins over a
//!   bounded range with out-of-bounds tracking (§4.2, §6).
//! * **Empirical CDFs** ([`ecdf::Ecdf`]) — every characterization figure is
//!   a CDF.
//! * **Distributions** ([`distributions`]) — the published fits the
//!   synthetic trace generator samples from: log-normal execution times
//!   (Figure 7), Burr XII memory (Figure 8), and quantile curves through
//!   the paper's published anchors.
//! * **Report formatting** ([`report`]) — aligned text tables and CSV
//!   emission shared by the figure-regeneration harness.
//!
//! Everything is deterministic given a caller-provided RNG; no global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod ecdf;
pub mod histogram;
#[cfg(test)]
mod histogram_ref;
pub mod online;
pub mod percentile;
pub mod report;

pub use distributions::{Burr, ContinuousDist, LogNormal};
pub use ecdf::Ecdf;
pub use histogram::{PercentileCursor, RangeHistogram, Recorded, WeightedCursor, WeightedSum};
pub use online::Welford;
pub use percentile::percentile_sorted;
