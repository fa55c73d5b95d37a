//! Output: every metric by name with its unit for people, and the one
//! JSON line the driver reads.

use std::fmt::Write as _;

use crate::spec::MetricDef;
use crate::workloads::RunResult;

/// Value of a metric in a result; a per-layer metric that does not
/// apply to the workload, and anything non-finite, reads 0.
pub fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .get(name)
        .copied()
        .filter(|v| v.is_finite())
        .unwrap_or(0.0)
}

/// A run is correct when nothing it attempted failed and it attempted
/// something.
pub fn correct(result: &RunResult) -> bool {
    result.failed == 0 && result.attempted > 0
}

/// The human-readable block.
pub fn human(workload: &str, result: &RunResult, set: &[MetricDef]) -> String {
    let mut out = format!(
        "workload {workload} | host {}\n",
        crate::procfs::host_fingerprint()
    );
    for note in &result.notes {
        let _ = writeln!(out, "# {note}");
    }
    for def in set {
        let _ = writeln!(
            out,
            "{:<36} {:>18.6} {}",
            def.name,
            value(result, def.name),
            def.unit
        );
    }
    let _ = writeln!(
        out,
        "operations: {} attempted, {} failed ({:.6} %)",
        result.attempted,
        result.failed,
        100.0 * result.failed as f64 / result.attempted.max(1) as f64
    );
    out
}

/// The last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn json_line(result: &RunResult, set: &[MetricDef]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct(result),
        result.attempted.max(1),
        result.failed
    );
    for (i, def) in set.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` keeps every digit an f64 has and always a decimal point.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            def.name,
            value(result, def.name),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn json_line_carries_every_metric_of_the_set_and_nothing_else() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.metrics.insert("decisions_per_s", 123456.789012345);
        r.metrics.insert("setup_s", f64::NAN);
        r.metrics.insert("not.in.the.set", 1.0);
        let line = json_line(&r, END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(
            line.contains("\"decisions_per_s\": {\"value\": 123456.789012345, \"unit\": \"1/s\"}")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(!line.contains("not.in.the.set"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn any_failed_operation_makes_the_run_incorrect() {
        let r = RunResult {
            attempted: 10,
            failed: 1,
            ..RunResult::default()
        };
        assert!(!correct(&r));
        assert!(json_line(&r, END_TO_END).starts_with("{\"correct\": false"));
        assert!(
            !correct(&RunResult::default()),
            "nothing attempted is not a pass"
        );
    }
}
