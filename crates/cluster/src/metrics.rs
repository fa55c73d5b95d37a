//! Router metrics: counters for the routing hot path and gauges for
//! ring state at `/metrics`, and the federated fleet histograms and
//! cluster-wide per-tenant usage, read from the nodes at scrape time,
//! at `/metrics/fleet` — both in Prometheus text format. `/metrics`
//! reads only the router's own atomics, so it calls no node.
//!
//! All names are `sitw_router_*` — disjoint from the nodes'
//! `sitw_serve_*` namespace, so one scrape config can collect both
//! without relabeling. Each endpoint is one declarative table
//! ([`RouterScrape::FAMILIES`], [`FLEET_FAMILIES`]) rendered by
//! [`sitw_telemetry::expo::render`]: a family's name, kind, help and
//! sampling function live in its one row.

use std::sync::atomic::{AtomicU64, Ordering};

use sitw_serve::wire::TenantUsage;
use sitw_telemetry::expo::{self, Family, Kind, Samples};

use crate::federate::FleetHists;

/// Counters and gauges of one router process. All atomics are updated
/// with relaxed ordering: each metric is an independent statistic, not a
/// synchronization edge.
#[derive(Debug)]
pub struct RouterMetrics {
    /// JSON `/invoke` requests accepted.
    pub json_requests: AtomicU64,
    /// SITW-BIN request frames accepted.
    pub bin_frames: AtomicU64,
    /// SITW-BIN request records accepted (frames are batches).
    pub bin_records: AtomicU64,
    /// Per-node subframes forwarded upstream.
    pub forwarded_subframes: AtomicU64,
    /// Requests carrying a trace id (propagated or self-sampled).
    pub traced_requests: AtomicU64,
    /// Upstream failures per node slot (connect, write, or read).
    pub node_errors: Vec<AtomicU64>,
    /// The ring epoch as of the last change.
    pub ring_epoch: AtomicU64,
    /// Live node count.
    pub nodes_live: AtomicU64,
    /// Health probes that failed.
    pub probe_failures: AtomicU64,
    /// Standby promotions completed.
    pub failover_promotions: AtomicU64,
    /// Failover control-plane retries (promote/provision re-attempts).
    pub failover_retries: AtomicU64,
}

impl RouterMetrics {
    /// Zeroed metrics for a cluster of `nodes` node slots.
    pub fn new(nodes: usize) -> Self {
        Self {
            json_requests: AtomicU64::new(0),
            bin_frames: AtomicU64::new(0),
            bin_records: AtomicU64::new(0),
            forwarded_subframes: AtomicU64::new(0),
            traced_requests: AtomicU64::new(0),
            node_errors: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            ring_epoch: AtomicU64::new(0),
            nodes_live: AtomicU64::new(nodes as u64),
            probe_failures: AtomicU64::new(0),
            failover_promotions: AtomicU64::new(0),
            failover_retries: AtomicU64::new(0),
        }
    }

    /// Bumps one per-node error counter (out-of-range slots are ignored).
    pub fn node_error(&self, node: usize) {
        if let Some(c) = self.node_errors.get(node) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Renders the Prometheus exposition text: one pass over
    /// [`RouterScrape::FAMILIES`]. `node_addrs` label the per-node
    /// series (index order matches the ring's node slots).
    pub fn render(&self, node_addrs: &[String]) -> String {
        let scrape = RouterScrape {
            metrics: self,
            node_addrs,
        };
        expo::render(RouterScrape::FAMILIES, &scrape)
    }
}

/// What the router's `/metrics` rows sample: the live atomics and the
/// node labels.
pub struct RouterScrape<'a> {
    metrics: &'a RouterMetrics,
    node_addrs: &'a [String],
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn per_tenant(fleet: &FleetHists, s: &mut Samples<'_>, get: fn(&TenantUsage) -> u64) {
    for t in &fleet.usage {
        s.labeled(format_args!("tenant=\"{}\"", t.name), get(t));
    }
}

impl<'a> RouterScrape<'a> {
    /// Every series family of the router's `/metrics`, in exposition
    /// order.
    pub const FAMILIES: &'a [Family<RouterScrape<'a>>] = &[
        Family {
            name: "sitw_router_requests_total",
            kind: Kind::Counter,
            help: "Requests accepted by protocol.",
            sample: |v, s| {
                s.labeled(
                    format_args!("proto=\"json\""),
                    load(&v.metrics.json_requests),
                );
                s.labeled(format_args!("proto=\"bin\""), load(&v.metrics.bin_frames));
            },
        },
        Family {
            name: "sitw_router_records_total",
            kind: Kind::Counter,
            help: "SITW-BIN request records accepted.",
            sample: |v, s| s.scalar(load(&v.metrics.bin_records)),
        },
        Family {
            name: "sitw_router_forwarded_subframes_total",
            kind: Kind::Counter,
            help: "Per-node subframes forwarded upstream.",
            sample: |v, s| s.scalar(load(&v.metrics.forwarded_subframes)),
        },
        Family {
            name: "sitw_router_traced_requests_total",
            kind: Kind::Counter,
            help: "Requests carrying a trace id (propagated or self-sampled).",
            sample: |v, s| s.scalar(load(&v.metrics.traced_requests)),
        },
        Family {
            name: "sitw_router_node_errors_total",
            kind: Kind::Counter,
            help: "Upstream failures per node.",
            sample: |v, s| {
                for (i, errors) in v.metrics.node_errors.iter().enumerate() {
                    let addr = v.node_addrs.get(i).map_or("?", String::as_str);
                    s.labeled(format_args!("node=\"{addr}\""), load(errors));
                }
            },
        },
        Family {
            name: "sitw_router_ring_epoch",
            kind: Kind::Gauge,
            help: "Ring epoch (bumps on membership or placement change).",
            sample: |v, s| s.scalar(load(&v.metrics.ring_epoch)),
        },
        Family {
            name: "sitw_router_nodes_live",
            kind: Kind::Gauge,
            help: "Live node count.",
            sample: |v, s| s.scalar(load(&v.metrics.nodes_live)),
        },
        Family {
            name: "sitw_router_failover_probe_failures_total",
            kind: Kind::Counter,
            help: "Health probes that failed (connect, HTTP error, or timeout).",
            sample: |v, s| s.scalar(load(&v.metrics.probe_failures)),
        },
        Family {
            name: "sitw_router_failover_promotions_total",
            kind: Kind::Counter,
            help: "Standby promotions completed (failovers of a slot with a standby).",
            sample: |v, s| s.scalar(load(&v.metrics.failover_promotions)),
        },
        Family {
            name: "sitw_router_failover_retries_total",
            kind: Kind::Counter,
            help: "Failover control-plane retries (promote or provision re-attempts).",
            sample: |v, s| s.scalar(load(&v.metrics.failover_retries)),
        },
    ];
}

/// The `/metrics/fleet` table over one federation pass: the merged
/// per-stage/per-proto and per-tenant histograms, laid out
/// byte-identically to a node's `sitw_serve_decision_latency` (same
/// bucket bounds, same label shape), the node count that merge covered,
/// and the nodes' per-tenant ledgers folded by name. Exactness
/// invariant: every `_count`/`_bucket` value equals the sum of the
/// corresponding node values.
pub const FLEET_FAMILIES: &[Family<FleetHists>] = &[
    Family {
        name: "sitw_router_fleet_nodes",
        kind: Kind::Gauge,
        help: "Live nodes merged into the federated histograms.",
        sample: |fleet, s| s.scalar(fleet.nodes),
    },
    Family {
        name: "sitw_router_fleet_decision_latency",
        kind: Kind::Histogram,
        help: "Fleet-wide request latency by node pipeline stage in seconds \
               (exact merge of the nodes' log2 buckets).",
        sample: |fleet, s| {
            for ((stage, proto), h) in &fleet.stages {
                s.hist(format_args!("stage=\"{stage}\",proto=\"{proto}\""), h);
            }
            for (tenant, h) in &fleet.tenants {
                s.hist(format_args!("stage=\"decide\",tenant=\"{tenant}\""), h);
            }
        },
    },
    Family {
        name: "sitw_router_tenant_budget_mb",
        kind: Kind::Gauge,
        help: "Cluster budget per tenant, MB (the largest any node enforces).",
        sample: |fleet, s| per_tenant(fleet, s, |t| t.budget_mb),
    },
    Family {
        name: "sitw_router_tenant_warm_mb",
        kind: Kind::Gauge,
        help: "Warm memory per tenant, MB, summed over the nodes.",
        sample: |fleet, s| per_tenant(fleet, s, |t| t.warm_mb),
    },
    Family {
        name: "sitw_router_tenant_evictions_total",
        kind: Kind::Counter,
        help: "Budget evictions per tenant, summed over the nodes.",
        sample: |fleet, s| per_tenant(fleet, s, |t| t.evictions),
    },
    Family {
        name: "sitw_router_tenant_invocations_total",
        kind: Kind::Counter,
        help: "Invocations served per tenant, summed over the nodes.",
        sample: |fleet, s| per_tenant(fleet, s, |t| t.invocations),
    },
];

/// Renders the `/metrics/fleet` exposition.
pub fn render_fleet(fleet: &FleetHists) -> String {
    expo::render(FLEET_FAMILIES, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federate::parse_hist_body;
    use sitw_telemetry::BUCKETS;

    #[test]
    fn render_includes_all_families_and_labels() {
        let m = RouterMetrics::new(2);
        m.json_requests.fetch_add(3, Ordering::Relaxed);
        m.node_error(1);
        m.node_error(7); // Out of range: ignored, not a panic.
        let text = m.render(&["127.0.0.1:7101".into(), "127.0.0.1:7102".into()]);
        assert!(text.contains("sitw_router_requests_total{proto=\"json\"} 3"));
        assert!(text.contains("sitw_router_node_errors_total{node=\"127.0.0.1:7102\"} 1"));
        assert!(text.contains("sitw_router_nodes_live 2"));
        // The failover families render before any failover, so
        // dashboards can alert on their absence, not just their value.
        m.failover_promotions.fetch_add(1, Ordering::Relaxed);
        let text = m.render(&["127.0.0.1:7101".into(), "127.0.0.1:7102".into()]);
        assert!(text.contains("sitw_router_failover_promotions_total 1"));
        assert!(text.contains("# TYPE sitw_router_failover_promotions_total counter"));
        assert!(text.contains("# TYPE sitw_router_failover_probe_failures_total counter"));
    }

    /// Router `/metrics` is byte-identical to the exposition captured
    /// before the table refactor (family order, labels, an unlabelled
    /// node slot rendering as `?`).
    #[test]
    fn golden_router_metrics() {
        let m = RouterMetrics::new(3);
        for (counter, v) in [
            (&m.json_requests, 3),
            (&m.bin_frames, 5),
            (&m.bin_records, 640),
            (&m.forwarded_subframes, 9),
            (&m.traced_requests, 4),
            (&m.ring_epoch, 6),
            (&m.probe_failures, 7),
            (&m.failover_promotions, 1),
            (&m.failover_retries, 3),
        ] {
            counter.store(v, Ordering::Relaxed);
        }
        m.nodes_live.store(2, Ordering::Relaxed);
        m.node_error(1);
        m.node_error(2);
        let text = m.render(&["127.0.0.1:7101".into(), "n1".into()]);
        assert_eq!(text, include_str!("../tests/golden/router_metrics.txt"));
    }

    fn usage(name: &str, k: u64) -> TenantUsage {
        TenantUsage {
            name: name.into(),
            budget_mb: 64 * k,
            warm_mb: 10 * k,
            evictions: 2 * k,
            idle_mb_ms: 5 * k,
            invocations: 9 * k,
        }
    }

    /// `/metrics/fleet` over two scrapes of the node's golden
    /// `/debug/hist` body, one of them reporting usage for `t0` and
    /// `acme`, is byte-identical to the captured exposition.
    #[test]
    fn golden_fleet_metrics() {
        let node = include_str!("../../serve/tests/golden/node_debug_hist.txt");
        let mut fleet = FleetHists::default();
        let rows = vec![usage("t0", 1), usage("acme", 10)];
        fleet.absorb(parse_hist_body(node).unwrap(), rows);
        fleet.absorb(parse_hist_body(node).unwrap(), Vec::new());
        let text = render_fleet(&fleet);
        assert_eq!(text, include_str!("../tests/golden/fleet_metrics.txt"));
    }

    #[test]
    fn fleet_render_is_bucket_exact_over_nodes() {
        let mut line = String::from("stage decide bin 300");
        let mut buckets = vec![0u64; BUCKETS];
        buckets[11] = 7;
        for b in &buckets {
            line.push_str(&format!(" {b}"));
        }
        line.push('\n');
        let mut fleet = FleetHists::default();
        for _ in 0..3 {
            fleet.absorb(parse_hist_body(&line).unwrap(), vec![usage("t0", 1)]);
        }
        let text = render_fleet(&fleet);
        assert!(text.contains("sitw_router_fleet_nodes 3"));
        // 3 nodes x 7 samples, exactly.
        assert!(text.contains(
            "sitw_router_fleet_decision_latency_count{stage=\"decide\",proto=\"bin\"} 21"
        ));
        // Usage folds by name: the budget is the largest, the rest sums.
        assert!(text.contains("sitw_router_tenant_budget_mb{tenant=\"t0\"} 64"));
        assert!(text.contains("sitw_router_tenant_invocations_total{tenant=\"t0\"} 27"));
        // Cumulative tallies are typed counter, snapshots gauge.
        assert!(text.contains("# TYPE sitw_router_tenant_invocations_total counter"));
        assert!(text.contains("# TYPE sitw_router_tenant_warm_mb gauge"));
    }
}
