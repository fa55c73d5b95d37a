//! The `/debug/trace` timeline: span events labelled with the thread
//! that recorded them, and the text and JSON bodies they travel in.
//!
//! A node serves its own recorders' spans; the router serves its hop
//! spans merged with the nodes' (pulled as JSON and parsed back here),
//! so both sides of that hop share this one writer/parser pair.

use std::fmt::Write as _;

use crate::{json_escape, SpanEvent, Stage};

/// One row of a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The timed stage crossing.
    pub event: SpanEvent,
    /// Recording thread: `reactor-0`, `shard-1`, `router`, or
    /// `<node>/<thread>` in the router's merged view.
    pub source: String,
}

/// The plain-text timeline: a header, then one
/// `start_ns end_ns dur_ns span stage source` line per span (span ids
/// as 18-character hex, which is what trace greps match on).
pub fn write_trace_text(spans: &[TraceSpan]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 72);
    out.push_str("# start_ns end_ns dur_ns span stage source\n");
    for TraceSpan { event: ev, source } in spans {
        let _ = writeln!(
            out,
            "{} {} {} {:#018x} {} {source}",
            ev.start_ns,
            ev.end_ns,
            ev.end_ns.saturating_sub(ev.start_ns),
            ev.span,
            ev.stage.name(),
        );
    }
    out
}

/// The `format=json` timeline: an array of span objects. A node keys
/// the id as a decimal `"span"` (what [`parse_trace_json`] reads back);
/// the router's `fleet` view keys it as a hex `"trace"` string, like
/// the text form.
pub fn write_trace_json(spans: &[TraceSpan], fleet: bool) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push('[');
    for (i, TraceSpan { event: ev, source }) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = if fleet {
            write!(out, "{{\"trace\":\"{:#018x}\"", ev.span)
        } else {
            write!(out, "{{\"span\":{}", ev.span)
        };
        let _ = write!(
            out,
            ",\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"source\":\"{}\"}}",
            ev.stage.name(),
            ev.start_ns,
            ev.end_ns,
            json_escape(source),
        );
    }
    out.push(']');
    out
}

/// Parses a node's `format=json` timeline. Tolerant of unknown fields;
/// entries missing a required field (or naming an unknown stage) are
/// skipped.
pub fn parse_trace_json(body: &str) -> Vec<TraceSpan> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(pos) = rest.find("{\"span\":") {
        rest = &rest[pos..];
        let Some(end) = rest.find('}') else { break };
        if let Some(span) = parse_span_obj(&rest[..end]) {
            out.push(span);
        }
        rest = &rest[end + 1..];
    }
    out
}

fn parse_span_obj(obj: &str) -> Option<TraceSpan> {
    let num = |key: &str| -> Option<u64> {
        let digits = &obj[obj.find(key)? + key.len()..];
        let end = digits
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(digits.len());
        digits[..end].parse().ok()
    };
    let text = |key: &str| -> Option<&str> {
        let value = &obj[obj.find(key)? + key.len()..];
        Some(&value[..value.find('"')?])
    };
    Some(TraceSpan {
        event: SpanEvent {
            span: num("\"span\":")?,
            stage: Stage::from_name(text("\"stage\":\"")?)?,
            start_ns: num("\"start_ns\":")?,
            end_ns: num("\"end_ns\":")?,
        },
        source: text("\"source\":\"")?.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TRACE_MARK;

    fn row(span: u64, stage: Stage, start_ns: u64, end_ns: u64, source: &str) -> TraceSpan {
        TraceSpan {
            event: SpanEvent {
                span,
                stage,
                start_ns,
                end_ns,
            },
            source: source.to_owned(),
        }
    }

    /// The router's merged view, captured from the pre-refactor
    /// `render_merged_trace`: hex ids under `"trace"`, escaped sources,
    /// a backwards span clamped to zero duration.
    #[test]
    fn fleet_view_matches_the_captured_bodies() {
        let spans = [
            row(TRACE_MARK | 9, Stage::Forward, 5, 9, "router"),
            row(
                TRACE_MARK | 9,
                Stage::Decide,
                9,
                7,
                "127.0.0.1:7101/shard-0",
            ),
            row(12, Stage::Read, 1, 2, "we\"ird\\node/reactor-1"),
        ];
        assert_eq!(
            write_trace_text(&spans),
            "# start_ns end_ns dur_ns span stage source\n\
             5 9 4 0x8000000000000009 forward router\n\
             9 7 0 0x8000000000000009 decide 127.0.0.1:7101/shard-0\n\
             1 2 1 0x000000000000000c read we\"ird\\node/reactor-1\n"
        );
        assert_eq!(
            write_trace_json(&spans, true),
            r#"[{"trace":"0x8000000000000009","stage":"forward","start_ns":5,"end_ns":9,"source":"router"},{"trace":"0x8000000000000009","stage":"decide","start_ns":9,"end_ns":7,"source":"127.0.0.1:7101/shard-0"},{"trace":"0x000000000000000c","stage":"read","start_ns":1,"end_ns":2,"source":"we\"ird\\node/reactor-1"}]"#
        );
    }

    #[test]
    fn node_json_round_trips_through_the_parser() {
        let spans = vec![
            row(TRACE_MARK | 1, Stage::Decide, 100, 150, "shard-0"),
            row(12, Stage::Read, 1, 2, "reactor-1"),
            row(u64::MAX, Stage::Egress, 0, u64::MAX, "router"),
        ];
        assert_eq!(parse_trace_json(&write_trace_json(&spans, false)), spans);
    }

    #[test]
    fn parser_skips_entries_it_cannot_read() {
        let body = r#"[{"span":12,"stage":"read","start_ns":1,"end_ns":2,"source":"reactor-1","extra":1},{"bogus":true},{"span":13,"stage":"warp","start_ns":1,"end_ns":2,"source":"x"},{"span":14,"stage":"read","start_ns":1,"source":"x"}]"#;
        assert_eq!(
            parse_trace_json(body),
            vec![row(12, Stage::Read, 1, 2, "reactor-1")]
        );
    }
}
