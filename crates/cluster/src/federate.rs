//! Fleet federation: parsing node debug scrapes and merging them
//! exactly.
//!
//! The router's fleet plane is pull-based: `GET /metrics/fleet` scrapes
//! every live node's `/debug/hist` (raw log2 bucket vectors — the
//! lossless federation wire format) and merges them with
//! [`Log2Histogram::merge`], so every federated bucket count equals the
//! sum of the node counts *exactly* — no estimator drift, no rank
//! error. `GET /debug/trace` on the router likewise pulls each node's
//! `/debug/trace?format=json`, keeps the propagated-trace spans, and
//! rebases them onto the router's clock so one causally ordered
//! timeline spans the whole fleet.
//!
//! Nodes and router are separate processes with separate monotonic
//! epochs, so node span timestamps are *not* comparable to router ones.
//! [`rebase`] anchors each (node, trace) group at the router's
//! forward-completion instant for that trace — the node cannot have
//! started before the router finished writing the request — and clamps
//! it at the router's await-completion instant — the node cannot have
//! finished after the router held its reply — so its rebased spans land
//! inside the router's `await` window by construction.

use std::collections::BTreeMap;

use sitw_telemetry::{parse_hist_lines, HistKey, Log2Histogram};

/// One node's `/debug/hist` scrape, reconstructed losslessly.
#[derive(Debug)]
pub struct NodeHists {
    /// `(stage, proto)` → histogram, in scrape order.
    pub stages: Vec<(String, String, Log2Histogram)>,
    /// Tenant name → decision-latency histogram.
    pub tenants: Vec<(String, Log2Histogram)>,
}

/// Parses one `/debug/hist` body ([`sitw_telemetry::parse_hist_lines`])
/// into its stage and tenant series. `None` on any malformed line (a
/// partial merge would silently undercount).
pub fn parse_hist_body(body: &str) -> Option<NodeHists> {
    let mut stages = Vec::new();
    let mut tenants = Vec::new();
    for (key, h) in parse_hist_lines(body)? {
        match key {
            HistKey::Stage(stage, proto) => stages.push((stage.to_owned(), proto.to_owned(), h)),
            HistKey::Tenant(name) => tenants.push((name.to_owned(), h)),
        }
    }
    Some(NodeHists { stages, tenants })
}

/// The fleet-wide merge of every live node's histograms.
#[derive(Debug, Default)]
pub struct FleetHists {
    /// `(stage, proto)` → merged histogram (BTreeMap for stable render
    /// order).
    pub stages: BTreeMap<(String, String), Log2Histogram>,
    /// Tenant name → merged decision-latency histogram.
    pub tenants: BTreeMap<String, Log2Histogram>,
    /// Nodes merged in.
    pub nodes: usize,
}

impl FleetHists {
    /// Folds one node's scrape into the fleet totals. Bucket-exact:
    /// every merged count is the sum of the node counts.
    pub fn absorb(&mut self, node: NodeHists) {
        for (stage, proto, h) in node.stages {
            self.stages.entry((stage, proto)).or_default().merge(&h);
        }
        for (name, h) in node.tenants {
            self.tenants.entry(name).or_default().merge(&h);
        }
        self.nodes += 1;
    }
}

/// One row of a node's (or the merged) `/debug/trace` timeline, and
/// the parser for a node's `/debug/trace?format=json` body.
pub use sitw_telemetry::{parse_trace_json as parse_trace_spans, TraceSpan as NodeSpan};

/// Rebases one (node, trace) span group onto the router's clock: the
/// group's earliest stage start is anchored at `anchor_ns` (the
/// router's forward-completion instant for that trace), preserving all
/// intra-node stage offsets up to `ceiling_ns` (the router's
/// await-completion instant). An overshoot past the ceiling is not
/// node work: it is the gap between the node's `write(2)` returning and
/// its clock read, which stretches whenever the reply wakes the router
/// thread onto the node thread's core — so it is clamped away.
pub fn rebase(spans: &mut [NodeSpan], anchor_ns: u64, ceiling_ns: u64) {
    let Some(min) = spans.iter().map(|s| s.event.start_ns).min() else {
        return;
    };
    for s in spans.iter_mut().map(|s| &mut s.event) {
        s.end_ns = (anchor_ns + (s.end_ns - min)).min(ceiling_ns);
        s.start_ns = (anchor_ns + (s.start_ns - min)).min(s.end_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_telemetry::{SpanEvent, Stage, BUCKETS};

    fn hist_line(prefix: &str, sum: u64, spikes: &[(usize, u64)]) -> String {
        let mut buckets = [0u64; BUCKETS];
        for &(i, c) in spikes {
            buckets[i] = c;
        }
        let mut line = format!("{prefix} {sum}");
        for b in buckets {
            line.push_str(&format!(" {b}"));
        }
        line
    }

    #[test]
    fn hist_body_roundtrips_and_merges_exactly() {
        let a = format!(
            "{}\n{}\n",
            hist_line("stage decide json", 1000, &[(10, 3), (12, 1)]),
            hist_line("tenant t0", 500, &[(9, 2)]),
        );
        let b = format!(
            "{}\n{}\n",
            hist_line("stage decide json", 2000, &[(10, 5)]),
            hist_line("tenant t0", 700, &[(9, 4), (11, 1)]),
        );
        let mut fleet = FleetHists::default();
        fleet.absorb(parse_hist_body(&a).unwrap());
        fleet.absorb(parse_hist_body(&b).unwrap());
        assert_eq!(fleet.nodes, 2);
        let decide = &fleet.stages[&("decide".to_owned(), "json".to_owned())];
        // Bucket-exact: counts are the sums of the node counts.
        assert_eq!(decide.count(), 9);
        assert_eq!(decide.sum(), 3000);
        assert_eq!(decide.buckets()[10], 8);
        assert_eq!(decide.buckets()[12], 1);
        let t0 = &fleet.tenants["t0"];
        assert_eq!(t0.count(), 7);
        assert_eq!(t0.buckets()[9], 6);
    }

    #[test]
    fn malformed_hist_lines_reject_the_whole_body() {
        assert!(parse_hist_body("bogus 1 2 3\n").is_none());
        // Too few bucket tokens.
        assert!(parse_hist_body("stage decide json 100 1 2 3\n").is_none());
        // Trailing junk after the last bucket.
        let long = hist_line("stage decide json", 1, &[]) + " 99";
        assert!(parse_hist_body(&long).is_none());
        // Empty body parses to an empty (but valid) scrape.
        let empty = parse_hist_body("").unwrap();
        assert!(empty.stages.is_empty() && empty.tenants.is_empty());
    }

    #[test]
    fn trace_span_parser_reads_node_json() {
        let body = r#"[{"span":9223372036854775809,"stage":"decide","start_ns":100,"end_ns":150,"source":"shard-0"},{"span":12,"stage":"read","start_ns":1,"end_ns":2,"source":"reactor-1"},{"bogus":true}]"#;
        let spans = parse_trace_spans(body);
        assert_eq!(spans.len(), 2);
        let decide = SpanEvent {
            span: (1u64 << 63) | 1,
            stage: Stage::Decide,
            start_ns: 100,
            end_ns: 150,
        };
        assert_eq!(spans[0].event, decide);
        assert_eq!(spans[0].source, "shard-0");
        assert_eq!(spans[1].source, "reactor-1");
    }

    #[test]
    fn rebase_anchors_group_min_and_preserves_offsets() {
        let span = |stage, start_ns, end_ns, source: &str| NodeSpan {
            event: SpanEvent {
                span: 1,
                stage,
                start_ns,
                end_ns,
            },
            source: source.into(),
        };
        let mut spans = vec![
            span(Stage::Read, 5_000, 5_100, "reactor-0"),
            span(Stage::Decide, 5_200, 5_400, "shard-0"),
        ];
        let window = |s: &NodeSpan| (s.event.start_ns, s.event.end_ns);
        rebase(&mut spans, 90_000, u64::MAX);
        assert_eq!(window(&spans[0]), (90_000, 90_100));
        assert_eq!(window(&spans[1]), (90_200, 90_400));
        // Regression (a flaky cluster test before this PR): a node whose
        // last clock read lands after the router already held the reply
        // overshoots the await window; the ceiling clamps it back.
        rebase(&mut spans, 10_000, 10_300);
        assert_eq!(window(&spans[0]), (10_000, 10_100));
        assert_eq!(window(&spans[1]), (10_200, 10_300));
    }
}
