//! Server metrics: per-shard counters, per-tenant fleet gauges,
//! per-stage latency histograms, and reactor introspection, rendered in
//! the Prometheus text exposition format.
//!
//! Latency is captured in [`Log2Histogram`]s on the recording threads
//! and merged exactly at scrape time, so the exported
//! `sitw_serve_decision_latency` histogram's bucket counts equal the
//! sum of the per-shard (and per-reactor) recordings — no estimator
//! drift.

use sitw_telemetry::expo::{self, Family, Kind, Samples};
use sitw_telemetry::{write_hist_line, FlightRecorder, HistKey, Log2Histogram};

/// Capacity of each per-thread flight-recorder ring.
pub const TRACE_RING: usize = 512;

/// A latency histogram split by wire protocol (JSON/HTTP vs SITW-BIN).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtoHists {
    /// Samples from JSON/HTTP requests, nanoseconds (one per request;
    /// a burst's run is clocked once and recorded at the run mean).
    pub json: Log2Histogram,
    /// Samples from SITW-BIN frames, nanoseconds.
    pub bin: Log2Histogram,
}

impl ProtoHists {
    /// Adds every bucket of `other` into `self` (exact merge).
    pub fn merge(&mut self, other: &Self) {
        self.json.merge(&other.json);
        self.bin.merge(&other.bin);
    }

    /// Both protocols merged into one histogram.
    pub fn merged(&self) -> Log2Histogram {
        let mut h = self.json.clone();
        h.merge(&self.bin);
        h
    }
}

/// Everything one reactor (event-loop) thread records, under one
/// mutex its [`crate::reactor::ReactorTelemHandle`] only ever
/// `try_lock`s. A scrape copies it out whole: `/metrics` and
/// `/debug/threads` read the copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorTelem {
    /// Socket-readable → request bytes buffered, per protocol (for a
    /// JSON run: until its first request parsed out).
    pub read: ProtoHists,
    /// Bytes buffered → parsed and routed, per protocol (for a JSON run:
    /// the rest of the burst's parsing, up to deciding).
    pub decode: ProtoHists,
    /// Decided → response bytes serialized, per protocol.
    pub render: ProtoHists,
    /// Response bytes → flushed to the socket, per protocol.
    pub write: ProtoHists,
    /// Events delivered per productive `epoll_wait` wake.
    pub events_per_wake: Log2Histogram,
    /// Bytes per completed coalesced socket write.
    pub write_bursts: Log2Histogram,
    /// Total `epoll_wait` calls (blocking and non-blocking).
    pub epoll_waits: u64,
    /// Nanoseconds spent inside blocking `epoll_wait` calls.
    pub epoll_wait_ns: u64,
    /// Eventfd waker fires observed.
    pub wakeups: u64,
    /// Backpressure transitions into the read-paused state.
    pub bp_pauses: u64,
    /// Backpressure transitions out of the read-paused state.
    pub bp_resumes: u64,
    /// Live connections this reactor holds: the pool's count, which a
    /// scrape fills in (the reactor does not record it).
    pub conns: u64,
    /// Recent span events recorded on this thread.
    pub recorder: FlightRecorder,
}

impl Default for ReactorTelem {
    fn default() -> Self {
        Self {
            read: ProtoHists::default(),
            decode: ProtoHists::default(),
            render: ProtoHists::default(),
            write: ProtoHists::default(),
            events_per_wake: Log2Histogram::new(),
            write_bursts: Log2Histogram::new(),
            epoll_waits: 0,
            epoll_wait_ns: 0,
            wakeups: 0,
            bp_pauses: 0,
            bp_resumes: 0,
            conns: 0,
            recorder: FlightRecorder::new(TRACE_RING),
        }
    }
}

/// One tenant's counters as seen by one shard (the default tenant's
/// numbers are per-shard slices; named tenants live whole on one shard).
/// `/metrics` aggregates these by tenant name — the lock-free per-shard
/// sub-ledgers summed into cluster-level accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Registry id.
    pub id: u16,
    /// Tenant name (metrics label).
    pub name: String,
    /// Configured keep-alive memory budget (0 = unlimited).
    pub budget_mb: u64,
    /// Warm memory currently charged, MB.
    pub warm_mb: u64,
    /// Warm containers currently charged.
    pub warm_apps: u64,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms (the §5.3 idle-memory metric).
    pub idle_mb_ms: u64,
    /// Accepted invocations.
    pub invocations: u64,
    /// Cold verdicts (including eviction downgrades).
    pub cold: u64,
    /// Decision latency for this tenant's invocations, nanoseconds.
    pub decision_ns: Log2Histogram,
}

/// Counters and latency histograms reported by one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Applications with live state.
    pub apps: u64,
    /// Accepted invocations.
    pub invocations: u64,
    /// Cold verdicts.
    pub cold: u64,
    /// Warm verdicts.
    pub warm: u64,
    /// Pre-warm loads inferred during gaps.
    pub prewarm_loads: u64,
    /// Rejected out-of-order invocations.
    pub out_of_order: u64,
    /// Hourly histogram backups taken (production mode only; 0 for
    /// per-app policies).
    pub backups: u64,
    /// Pre-warm events scheduled 90 s early (production mode only).
    pub prewarm_scheduled: u64,
    /// Wait for this shard's lock (a reactor asking for it → holding
    /// it), nanoseconds.
    pub queue_ns: ProtoHists,
    /// Policy decision latency on this shard, nanoseconds.
    pub decide_ns: ProtoHists,
    /// Per-tenant fleet counters on this shard, ordered by tenant id.
    pub tenants: Vec<TenantStats>,
}

/// Server-wide wire-protocol counters (connections are not sharded, so
/// these live next to the per-shard stats, unlabelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtoStats {
    /// Complete SITW-BIN request frames served.
    pub frames: u64,
    /// Decisions delivered through batched binary frames.
    pub batched_decisions: u64,
    /// Typed SITW-BIN protocol errors answered (malformed frames,
    /// oversized batches, bad versions).
    pub proto_errors: u64,
}

/// Connection-level gauges (server-wide; maintained by the reactors
/// that accept and retire the connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnStats {
    /// Connections currently open (reactor slab entries). Returns to 0
    /// when every client disconnects — the leak-freedom invariant the
    /// churn tests assert.
    pub live: u64,
    /// Connections accepted since start.
    pub accepted: u64,
    /// High-water mark of `live`.
    pub peak: u64,
    /// Reactor threads serving the connections.
    pub reactor_threads: u64,
}

/// Replication-source counters (server-wide: the delta stream is one
/// logical follower, not sharded). All zero until a follower pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplStats {
    /// Epoch of the last committed round (0 = no round served yet).
    pub epoch: u64,
    /// Pulls answered, including empty lone-commit rounds.
    pub rounds: u64,
    /// Pulls answered with a full sync instead of a delta (first
    /// attach, or a follower presenting a stale epoch).
    pub full_syncs: u64,
    /// App records streamed across all rounds.
    pub apps_streamed: u64,
    /// Replication document bytes streamed.
    pub bytes_streamed: u64,
    /// Milliseconds since the last pull (0 until the first pull).
    pub lag_ms: u64,
}

/// A full `/metrics` scrape: one entry per shard, plus uptime.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Per-shard statistics, ordered by shard index.
    pub shards: Vec<ShardStats>,
    /// Per-reactor telemetry, indexed by reactor (empty when telemetry
    /// is disabled).
    pub reactors: Vec<ReactorTelem>,
    /// Server-wide SITW-BIN protocol counters.
    pub proto: ProtoStats,
    /// Server-wide connection gauges.
    pub conns: ConnStats,
    /// Server-wide replication-source counters.
    pub repl: ReplStats,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

impl MetricsReport {
    /// Total accepted invocations across shards.
    pub fn invocations(&self) -> u64 {
        self.shards.iter().map(|s| s.invocations).sum()
    }

    /// Total cold verdicts across shards.
    pub fn cold(&self) -> u64 {
        self.shards.iter().map(|s| s.cold).sum()
    }

    /// Total apps with live state across shards.
    pub fn apps(&self) -> u64 {
        self.shards.iter().map(|s| s.apps).sum()
    }

    /// Per-tenant counters aggregated across shards, ordered by id:
    /// the cluster memory ledger as `/metrics` exposes it. The default
    /// tenant sums its per-shard sub-ledgers; named tenants are whole.
    pub fn tenants(&self) -> Vec<TenantStats> {
        let mut merged: Vec<TenantStats> = Vec::new();
        for shard in &self.shards {
            for t in &shard.tenants {
                match merged.iter_mut().find(|m| m.id == t.id) {
                    Some(m) => {
                        m.warm_mb += t.warm_mb;
                        m.warm_apps += t.warm_apps;
                        m.evictions += t.evictions;
                        m.idle_mb_ms = m.idle_mb_ms.saturating_add(t.idle_mb_ms);
                        m.invocations += t.invocations;
                        m.cold += t.cold;
                        m.decision_ns.merge(&t.decision_ns);
                    }
                    None => merged.push(t.clone()),
                }
            }
        }
        merged.sort_by_key(|t| t.id);
        merged
    }

    /// Per-stage latency histograms merged exactly across every
    /// recording thread: read/decode/render/write summed over reactors,
    /// queue/decide summed over shards. In pipeline order.
    ///
    /// This is the data `sitw_serve_decision_latency` exports; the
    /// telemetry integration test asserts its bucket counts equal the
    /// sum of the per-shard recordings.
    pub fn stage_hists(&self) -> [(&'static str, ProtoHists); 6] {
        let mut read = ProtoHists::default();
        let mut decode = ProtoHists::default();
        let mut render = ProtoHists::default();
        let mut write = ProtoHists::default();
        for r in &self.reactors {
            read.merge(&r.read);
            decode.merge(&r.decode);
            render.merge(&r.render);
            write.merge(&r.write);
        }
        let mut queue = ProtoHists::default();
        let mut decide = ProtoHists::default();
        for s in &self.shards {
            queue.merge(&s.queue_ns);
            decide.merge(&s.decide_ns);
        }
        [
            ("read", read),
            ("decode", decode),
            ("queue", queue),
            ("decide", decide),
            ("render", render),
            ("write", write),
        ]
    }

    /// Renders the Prometheus text format: one pass over
    /// [`NodeScrape::FAMILIES`].
    pub fn render(&self) -> String {
        let scrape = NodeScrape {
            report: self,
            tenants: self.tenants(),
        };
        expo::render(NodeScrape::FAMILIES, &scrape)
    }

    /// Renders the stage histograms as raw bucket vectors — the
    /// federation body `GET /debug/hist` serves, one
    /// [`write_hist_line`] per stage × protocol and per tenant.
    pub fn render_raw(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (stage, hists) in self.stage_hists() {
            for (proto, h) in [("json", &hists.json), ("bin", &hists.bin)] {
                write_hist_line(&mut out, HistKey::Stage(stage, proto), h);
            }
        }
        for t in &self.tenants() {
            write_hist_line(&mut out, HistKey::Tenant(&t.name), &t.decision_ns);
        }
        out
    }
}

/// What the `/metrics` rows sample: the report plus its per-tenant
/// merge, computed once per scrape.
pub struct NodeScrape<'a> {
    report: &'a MetricsReport,
    tenants: Vec<TenantStats>,
}

fn per_shard(v: &NodeScrape<'_>, s: &mut Samples<'_>, get: fn(&ShardStats) -> u64) {
    for x in &v.report.shards {
        s.labeled(format_args!("shard=\"{}\"", x.shard), get(x));
    }
}

fn per_tenant(v: &NodeScrape<'_>, s: &mut Samples<'_>, get: fn(&TenantStats) -> u64) {
    for t in &v.tenants {
        s.labeled(format_args!("tenant=\"{}\"", t.name), get(t));
    }
}

/// Reactor rows render with no samples when telemetry is off.
fn per_reactor(v: &NodeScrape<'_>, s: &mut Samples<'_>, get: fn(&ReactorTelem) -> u64) {
    for (i, r) in v.report.reactors.iter().enumerate() {
        s.labeled(format_args!("reactor=\"{i}\""), get(r));
    }
}

impl<'a> NodeScrape<'a> {
    /// Every series family a node (or follower) exports, in exposition
    /// order: the single place a `sitw_serve_*` name is written.
    pub const FAMILIES: &'a [Family<NodeScrape<'a>>] = &[
        Family {
            name: "sitw_serve_apps",
            kind: Kind::Gauge,
            help: "Applications with live policy state",
            sample: |v, s| per_shard(v, s, |x| x.apps),
        },
        Family {
            name: "sitw_serve_invocations_total",
            kind: Kind::Counter,
            help: "Accepted invocations",
            sample: |v, s| per_shard(v, s, |x| x.invocations),
        },
        Family {
            name: "sitw_serve_cold_total",
            kind: Kind::Counter,
            help: "Cold verdicts",
            sample: |v, s| per_shard(v, s, |x| x.cold),
        },
        Family {
            name: "sitw_serve_warm_total",
            kind: Kind::Counter,
            help: "Warm verdicts",
            sample: |v, s| per_shard(v, s, |x| x.warm),
        },
        Family {
            name: "sitw_serve_prewarm_loads_total",
            kind: Kind::Counter,
            help: "Pre-warm loads inferred during gaps",
            sample: |v, s| per_shard(v, s, |x| x.prewarm_loads),
        },
        Family {
            name: "sitw_serve_out_of_order_total",
            kind: Kind::Counter,
            help: "Rejected out-of-order invocations",
            sample: |v, s| per_shard(v, s, |x| x.out_of_order),
        },
        Family {
            name: "sitw_serve_backups_total",
            kind: Kind::Counter,
            help: "Hourly histogram backups taken (production mode)",
            sample: |v, s| per_shard(v, s, |x| x.backups),
        },
        Family {
            name: "sitw_serve_prewarm_scheduled_total",
            kind: Kind::Counter,
            help: "Pre-warm events scheduled 90s early (production mode)",
            sample: |v, s| per_shard(v, s, |x| x.prewarm_scheduled),
        },
        // True Prometheus `histogram` series with log2 bounds in seconds,
        // merged exactly across recording threads: one per stage and
        // protocol, plus per-tenant decide series.
        Family {
            name: "sitw_serve_decision_latency",
            kind: Kind::Histogram,
            help: "Request latency by pipeline stage in seconds (log2 buckets)",
            sample: |v, s| {
                for (stage, hists) in v.report.stage_hists() {
                    for (proto, h) in [("json", &hists.json), ("bin", &hists.bin)] {
                        s.hist(format_args!("stage=\"{stage}\",proto=\"{proto}\""), h);
                    }
                }
                for t in &v.tenants {
                    let labels = format_args!("stage=\"decide\",tenant=\"{}\"", t.name);
                    s.hist(labels, &t.decision_ns);
                }
            },
        },
        Family {
            name: "sitw_serve_tenant_budget_mb",
            kind: Kind::Gauge,
            help: "Configured keep-alive memory budget (0 = unlimited)",
            sample: |v, s| per_tenant(v, s, |t| t.budget_mb),
        },
        Family {
            name: "sitw_serve_tenant_warm_mb",
            kind: Kind::Gauge,
            help: "Warm memory currently charged to the tenant",
            sample: |v, s| per_tenant(v, s, |t| t.warm_mb),
        },
        Family {
            name: "sitw_serve_tenant_warm_apps",
            kind: Kind::Gauge,
            help: "Warm containers currently charged to the tenant",
            sample: |v, s| per_tenant(v, s, |t| t.warm_apps),
        },
        Family {
            name: "sitw_serve_tenant_evictions_total",
            kind: Kind::Counter,
            help: "Budget evictions",
            sample: |v, s| per_tenant(v, s, |t| t.evictions),
        },
        Family {
            name: "sitw_serve_tenant_idle_mb_ms_total",
            kind: Kind::Counter,
            help: "Loaded-memory integral in MB*ms (the par.5.3 idle-memory metric)",
            sample: |v, s| per_tenant(v, s, |t| t.idle_mb_ms),
        },
        Family {
            name: "sitw_serve_tenant_invocations_total",
            kind: Kind::Counter,
            help: "Accepted invocations per tenant",
            sample: |v, s| per_tenant(v, s, |t| t.invocations),
        },
        Family {
            name: "sitw_serve_tenant_cold_total",
            kind: Kind::Counter,
            help: "Cold verdicts per tenant (incl. eviction downgrades)",
            sample: |v, s| per_tenant(v, s, |t| t.cold),
        },
        Family {
            name: "sitw_serve_frames_total",
            kind: Kind::Counter,
            help: "Complete SITW-BIN request frames served",
            sample: |v, s| s.scalar(v.report.proto.frames),
        },
        Family {
            name: "sitw_serve_batched_decisions_total",
            kind: Kind::Counter,
            help: "Decisions delivered through batched binary frames",
            sample: |v, s| s.scalar(v.report.proto.batched_decisions),
        },
        Family {
            name: "sitw_serve_proto_errors_total",
            kind: Kind::Counter,
            help: "Typed SITW-BIN protocol errors answered",
            sample: |v, s| s.scalar(v.report.proto.proto_errors),
        },
        Family {
            name: "sitw_serve_connections_live",
            kind: Kind::Gauge,
            help: "Connections currently open",
            sample: |v, s| s.scalar(v.report.conns.live),
        },
        Family {
            name: "sitw_serve_connections_accepted_total",
            kind: Kind::Counter,
            help: "Connections accepted since start",
            sample: |v, s| s.scalar(v.report.conns.accepted),
        },
        Family {
            name: "sitw_serve_connections_peak",
            kind: Kind::Gauge,
            help: "High-water mark of live connections",
            sample: |v, s| s.scalar(v.report.conns.peak),
        },
        Family {
            name: "sitw_serve_reactor_threads",
            kind: Kind::Gauge,
            help: "Reactor (event-loop) threads serving the connections",
            sample: |v, s| s.scalar(v.report.conns.reactor_threads),
        },
        Family {
            name: "sitw_serve_repl_epoch",
            kind: Kind::Gauge,
            help: "Replication epoch of the last committed round (0 = no round served)",
            sample: |v, s| s.scalar(v.report.repl.epoch),
        },
        Family {
            name: "sitw_serve_repl_rounds_total",
            kind: Kind::Counter,
            help: "Replication pulls answered (including empty lone-commit rounds)",
            sample: |v, s| s.scalar(v.report.repl.rounds),
        },
        Family {
            name: "sitw_serve_repl_full_syncs_total",
            kind: Kind::Counter,
            help: "Pulls answered with a full state sync instead of a delta",
            sample: |v, s| s.scalar(v.report.repl.full_syncs),
        },
        Family {
            name: "sitw_serve_repl_apps_total",
            kind: Kind::Counter,
            help: "App records streamed to followers across all rounds",
            sample: |v, s| s.scalar(v.report.repl.apps_streamed),
        },
        Family {
            name: "sitw_serve_repl_bytes_total",
            kind: Kind::Counter,
            help: "Replication document bytes streamed to followers",
            sample: |v, s| s.scalar(v.report.repl.bytes_streamed),
        },
        Family {
            name: "sitw_serve_repl_lag_ms",
            kind: Kind::Gauge,
            help: "Milliseconds since the last follower pull (0 until first pull)",
            sample: |v, s| s.scalar(v.report.repl.lag_ms),
        },
        Family {
            name: "sitw_serve_reactor_epoll_waits_total",
            kind: Kind::Counter,
            help: "epoll_wait calls (blocking and non-blocking)",
            sample: |v, s| per_reactor(v, s, |r| r.epoll_waits),
        },
        Family {
            name: "sitw_serve_reactor_wakeups_total",
            kind: Kind::Counter,
            help: "Eventfd waker fires observed",
            sample: |v, s| per_reactor(v, s, |r| r.wakeups),
        },
        Family {
            name: "sitw_serve_reactor_backpressure_pauses_total",
            kind: Kind::Counter,
            help: "Transitions into the read-paused backpressure state",
            sample: |v, s| per_reactor(v, s, |r| r.bp_pauses),
        },
        Family {
            name: "sitw_serve_reactor_backpressure_resumes_total",
            kind: Kind::Counter,
            help: "Transitions out of the read-paused backpressure state",
            sample: |v, s| per_reactor(v, s, |r| r.bp_resumes),
        },
        Family {
            name: "sitw_serve_reactor_conns",
            kind: Kind::Gauge,
            help: "Live connections this reactor holds",
            sample: |v, s| per_reactor(v, s, |r| r.conns),
        },
        Family {
            name: "sitw_serve_reactor_epoll_wait_seconds_total",
            kind: Kind::Counter,
            help: "Time spent blocked in epoll_wait",
            sample: |v, s| {
                for (i, r) in v.report.reactors.iter().enumerate() {
                    let secs = r.epoll_wait_ns as f64 / 1e9;
                    s.labeled(format_args!("reactor=\"{i}\""), format_args!("{secs:.6}"));
                }
            },
        },
        Family {
            name: "sitw_serve_uptime_ms",
            kind: Kind::Gauge,
            help: "Time since server start",
            sample: |v, s| s.scalar(v.report.uptime_ms),
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(shard: usize) -> ShardStats {
        let mut decide_ns = ProtoHists::default();
        decide_ns.json.record(1_500);
        decide_ns.bin.record(9_000);
        let mut queue_ns = ProtoHists::default();
        queue_ns.json.record(700);
        let mut tenant_decide = Log2Histogram::new();
        tenant_decide.record(1_500);
        ShardStats {
            shard,
            apps: 3,
            invocations: 100,
            cold: 20,
            warm: 80,
            prewarm_loads: 5,
            out_of_order: 1,
            backups: 7,
            prewarm_scheduled: 11,
            queue_ns,
            decide_ns,
            tenants: vec![
                TenantStats {
                    id: 0,
                    name: "default".into(),
                    budget_mb: 0,
                    warm_mb: 100,
                    warm_apps: 2,
                    evictions: 0,
                    idle_mb_ms: 1_000,
                    invocations: 90,
                    cold: 15,
                    decision_ns: tenant_decide,
                },
                TenantStats {
                    id: 1,
                    name: "acme".into(),
                    budget_mb: 512,
                    warm_mb: 300,
                    warm_apps: 1,
                    evictions: 4,
                    idle_mb_ms: 2_000,
                    invocations: 10,
                    cold: 5,
                    decision_ns: Log2Histogram::new(),
                },
            ],
        }
    }

    #[test]
    fn totals_sum_over_shards() {
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 42,
        };
        assert_eq!(r.invocations(), 200);
        assert_eq!(r.cold(), 40);
        assert_eq!(r.apps(), 6);
    }

    #[test]
    fn tenant_aggregation_sums_sub_ledgers() {
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 42,
        };
        let tenants = r.tenants();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].name, "default");
        assert_eq!(tenants[0].warm_mb, 200, "per-shard sub-ledgers sum");
        assert_eq!(tenants[0].idle_mb_ms, 2_000);
        assert_eq!(tenants[1].evictions, 8);
        assert_eq!(tenants[1].budget_mb, 512, "config gauge, not summed");
    }

    #[test]
    fn renders_prometheus_text() {
        let mut reactor = ReactorTelem {
            epoll_waits: 500,
            epoll_wait_ns: 2_000_000_000,
            wakeups: 40,
            bp_pauses: 2,
            bp_resumes: 2,
            conns: 9,
            ..ReactorTelem::default()
        };
        reactor.read.json.record(300);
        reactor.write.bin.record(12_000);
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![reactor],
            proto: ProtoStats {
                frames: 13,
                batched_decisions: 1664,
                proto_errors: 2,
            },
            conns: ConnStats {
                live: 3,
                accepted: 1200,
                peak: 257,
                reactor_threads: 2,
            },
            repl: ReplStats::default(),
            uptime_ms: 42,
        };
        let text = r.render();
        assert!(text.contains("# TYPE sitw_serve_invocations_total counter"));
        assert!(text.contains("sitw_serve_invocations_total{shard=\"1\"} 100"));
        assert!(text.contains("sitw_serve_backups_total{shard=\"0\"} 7"));
        assert!(text.contains("sitw_serve_prewarm_scheduled_total{shard=\"1\"} 11"));
        assert!(text.contains("# TYPE sitw_serve_frames_total counter"));
        assert!(text.contains("sitw_serve_frames_total 13"));
        assert!(text.contains("sitw_serve_batched_decisions_total 1664"));
        assert!(text.contains("sitw_serve_proto_errors_total 2"));
        assert!(text.contains("# TYPE sitw_serve_connections_live gauge"));
        assert!(text.contains("sitw_serve_connections_live 3"));
        assert!(text.contains("# TYPE sitw_serve_connections_accepted_total counter"));
        assert!(text.contains("sitw_serve_connections_accepted_total 1200"));
        assert!(text.contains("sitw_serve_connections_peak 257"));
        assert!(text.contains("sitw_serve_reactor_threads 2"));
        assert!(text.contains("sitw_serve_uptime_ms 42"));
        assert!(text.contains("sitw_serve_tenant_warm_mb{tenant=\"default\"} 200"));
        assert!(text.contains("sitw_serve_tenant_warm_mb{tenant=\"acme\"} 600"));
        assert!(text.contains("sitw_serve_tenant_evictions_total{tenant=\"acme\"} 8"));
        assert!(text.contains("sitw_serve_tenant_budget_mb{tenant=\"acme\"} 512"));
        assert!(text.contains("sitw_serve_tenant_idle_mb_ms_total{tenant=\"default\"} 2000"));
        // The true histogram family: per stage and protocol, plus
        // per-tenant decide series.
        assert!(text.contains("# TYPE sitw_serve_decision_latency histogram"));
        assert!(text.contains(
            "sitw_serve_decision_latency_bucket{stage=\"decide\",proto=\"json\",le=\"+Inf\"} 2"
        ));
        assert!(
            text.contains("sitw_serve_decision_latency_count{stage=\"decide\",proto=\"bin\"} 2")
        );
        assert!(text
            .contains("sitw_serve_decision_latency_count{stage=\"decide\",tenant=\"default\"} 2"));
        assert!(text.contains("sitw_serve_decision_latency_count{stage=\"read\",proto=\"json\"} 1"));
        assert!(text.contains("sitw_serve_decision_latency_count{stage=\"write\",proto=\"bin\"} 1"));
        // Reactor introspection.
        assert!(text.contains("sitw_serve_reactor_epoll_waits_total{reactor=\"0\"} 500"));
        assert!(
            text.contains("sitw_serve_reactor_epoll_wait_seconds_total{reactor=\"0\"} 2.000000")
        );
        assert!(text.contains("sitw_serve_reactor_wakeups_total{reactor=\"0\"} 40"));
        assert!(text.contains("sitw_serve_reactor_backpressure_pauses_total{reactor=\"0\"} 2"));
        assert!(text.contains("sitw_serve_reactor_conns{reactor=\"0\"} 9"));
    }

    /// The fixed scrape the golden files were captured from: two
    /// shards, two tenants (both present on both shards, so the merge is
    /// exercised) and two reactors.
    fn golden_report() -> MetricsReport {
        let mut s1 = stats(1);
        s1.apps = 4;
        s1.decide_ns.bin.record(70_000_000_000);
        s1.tenants[1].decision_ns.record(40);
        let mut r0 = ReactorTelem {
            epoll_waits: 500,
            epoll_wait_ns: 2_000_000_123,
            wakeups: 40,
            bp_pauses: 2,
            bp_resumes: 1,
            conns: 2,
            ..ReactorTelem::default()
        };
        r0.read.json.record(300);
        r0.decode.json.record(0);
        r0.write.bin.record(12_000);
        let mut r1 = ReactorTelem {
            epoll_waits: 7,
            epoll_wait_ns: 1_500,
            conns: 1,
            ..ReactorTelem::default()
        };
        r1.read.json.record(900);
        r1.render.bin.record_n(2_000, 3);
        MetricsReport {
            shards: vec![stats(0), s1],
            reactors: vec![r0, r1],
            proto: ProtoStats {
                frames: 13,
                batched_decisions: 1664,
                proto_errors: 2,
            },
            conns: ConnStats {
                live: 3,
                accepted: 1200,
                peak: 257,
                reactor_threads: 2,
            },
            repl: ReplStats {
                epoch: 4,
                rounds: 9,
                full_syncs: 1,
                apps_streamed: 77,
                bytes_streamed: 123_456,
                lag_ms: 25,
            },
            uptime_ms: 42,
        }
    }

    /// `/metrics` is byte-identical to the exposition captured before
    /// the table refactor: family order, label layout, float formatting.
    #[test]
    fn golden_node_metrics() {
        let text = golden_report().render();
        assert_eq!(text, include_str!("../tests/golden/node_metrics.txt"));
    }

    /// `/debug/hist` is byte-identical to the captured federation body.
    #[test]
    fn golden_debug_hist() {
        assert_eq!(
            golden_report().render_raw(),
            include_str!("../tests/golden/node_debug_hist.txt")
        );
    }

    /// Shard-merged bucket counts are exactly the sum of per-shard
    /// recordings (the exactness the log2 histograms exist for).
    #[test]
    fn stage_hists_merge_exactly_across_shards() {
        let mut a = stats(0);
        let mut b = stats(1);
        a.decide_ns.json.record(77);
        b.decide_ns.json.record(1_000_000);
        b.decide_ns.bin.record(3);
        let mut expect = a.decide_ns.clone();
        expect.merge(&b.decide_ns);
        let r = MetricsReport {
            shards: vec![a, b],
            reactors: vec![],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 0,
        };
        let stages = r.stage_hists();
        let (name, decide) = &stages[3];
        assert_eq!(*name, "decide");
        assert_eq!(decide, &expect);
    }

    /// Every exported sample belongs to a family announced with
    /// `# HELP` and `# TYPE` lines (the exposition-audit satellite).
    #[test]
    fn every_series_has_help_and_type() {
        let r = MetricsReport {
            shards: vec![stats(0), stats(1)],
            reactors: vec![ReactorTelem::default()],
            proto: ProtoStats::default(),
            conns: ConnStats::default(),
            repl: ReplStats::default(),
            uptime_ms: 1,
        };
        let text = r.render();
        let mut typed = std::collections::HashSet::new();
        let mut helped = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split(' ').next().unwrap().to_owned());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_owned());
            } else if !line.is_empty() {
                let name = line.split(['{', ' ']).next().unwrap();
                // Histogram samples use the family name plus a
                // _bucket/_sum/_count suffix.
                let family = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|f| typed.contains(*f))
                    .unwrap_or(name);
                assert!(typed.contains(family), "sample without # TYPE: {line}");
                assert!(helped.contains(family), "sample without # HELP: {line}");
            }
        }
    }
}
