//! Prometheus text exposition from one declarative table per process.
//!
//! A `/metrics` endpoint is a `const` slice of [`Family`] rows, in
//! exposition order. Each row carries the family's name, kind and help
//! *and* the function that samples it from the scrape report, so a
//! family cannot be rendered without being declared or declared without
//! being rendered; [`render`] is the only loop. Adding a series is
//! adding a row.

use std::fmt::{self, Write as _};

use crate::Log2Histogram;

/// Prometheus metric type of a [`Family`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic; the name ends in `_total`.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// `_bucket`/`_sum`/`_count` series written by [`Samples::hist`].
    Histogram,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One series family of a `/metrics` table over scrape report `R`.
pub struct Family<R> {
    /// Family name (`sitw_serve_*` / `sitw_router_*`, snake_case).
    pub name: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// `# HELP` text.
    pub help: &'static str,
    /// Writes the family's sample lines from the report.
    pub sample: fn(&R, &mut Samples<'_>),
}

/// The sample-line writer handed to a [`Family::sample`] function; it
/// owns the family name, so rows never spell it twice.
pub struct Samples<'o> {
    name: &'static str,
    out: &'o mut String,
}

impl Samples<'_> {
    /// `name value`
    pub fn scalar(&mut self, value: impl fmt::Display) {
        let _ = writeln!(self.out, "{} {value}", self.name);
    }

    /// `name{labels} value`
    pub fn labeled(&mut self, labels: fmt::Arguments<'_>, value: impl fmt::Display) {
        let _ = writeln!(self.out, "{}{{{labels}}} {value}", self.name);
    }

    /// One `histogram` series (`_bucket`/`_sum`/`_count`) for a
    /// nanosecond [`Log2Histogram`], bounds converted to seconds. Node
    /// and fleet histograms share this layout byte for byte.
    pub fn hist(&mut self, labels: fmt::Arguments<'_>, h: &Log2Histogram) {
        let (name, out) = (self.name, &mut *self.out);
        let buckets = h.buckets();
        let mut cum: u64 = buckets[..LE_LO].iter().sum();
        for (i, &count) in buckets.iter().enumerate().take(LE_HI + 1).skip(LE_LO) {
            cum += count;
            let le = Log2Histogram::bucket_upper(i) as f64 / 1e9;
            let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum() as f64 / 1e9);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
}

/// Log2 buckets exported as `le` bounds, as bucket indices into the
/// nanosecond histogram: 255 ns (index 8) up to ~68.7 s (index 36).
/// Samples below the first bound are cumulative in it; samples above
/// the last land only in `+Inf`.
const LE_LO: usize = 8;
const LE_HI: usize = 36;

/// Renders `table` over `report`: each family's `# HELP`/`# TYPE`
/// preamble, then whatever its row samples.
pub fn render<R>(table: &[Family<R>], report: &R) -> String {
    let mut out = String::with_capacity(4096);
    for family in table {
        let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.name());
        let mut samples = Samples {
            name: family.name,
            out: &mut out,
        };
        (family.sample)(report, &mut samples);
    }
    out
}
