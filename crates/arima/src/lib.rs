//! From-scratch ARIMA time-series modelling.
//!
//! The hybrid histogram policy of *Serverless in the Wild* (§4.2) falls
//! back to time-series forecasting for applications whose idle times are
//! mostly out of the histogram's bounds. The paper used pmdarima's
//! `auto_arima`; this crate provides the equivalent pipeline natively:
//!
//! * [`matrix`] — least squares on normal equations accumulated
//!   straight from the series, solved in place by Gaussian elimination;
//! * [`diff`] — differencing and integration;
//! * [`model`] — ARIMA(p,d,q) fitting via Hannan–Rissanen and iterative
//!   forecasting with ψ-weight standard errors;
//! * [`auto`] — AIC-driven automatic order selection ([`auto_arima`],
//!   and [`auto_forecast_one`] for the forecast alone).
//!
//! Fits run in one workspace per thread, not per app: no call reads what
//! an earlier one left, so per-app state stays the policy's own.
//!
//! # Examples
//!
//! ```
//! use sitw_arima::{auto_arima, AutoArimaConfig};
//!
//! // Idle times (minutes) of an app invoked roughly every 5 hours.
//! let idle_times = vec![300.0, 295.0, 310.0, 305.0, 298.0, 303.0, 299.0];
//! let fit = auto_arima(&idle_times, AutoArimaConfig::default()).unwrap();
//! let next = fit.forecast_one();
//! assert!((next - 300.0).abs() < 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auto;
pub mod diff;
pub mod matrix;
pub mod model;
#[cfg(test)]
mod reference;

pub use auto::{auto_arima, auto_forecast_one, select_d, AutoArimaConfig};
pub use model::{fit, ArimaError, ArimaFit, ArimaSpec};
