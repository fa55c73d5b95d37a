//! Flight-recorder telemetry acceptance tests: per-stage histogram
//! export on `/metrics` (real Prometheus `histogram` series), exact
//! shard-merge of bucket counts, the `/debug/trace` and `/debug/threads`
//! endpoints over HTTP, deterministic span ordering across
//! reactor→shard→reply hops under a [`ManualClock`], and the
//! `telemetry: false` off-switch.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sitw_serve::http::write_request;
use sitw_serve::wire::{self, BinReply};
use sitw_serve::{merge_spans, Client, ServeConfig, Server};
use sitw_sim::PolicySpec;
use sitw_telemetry::{Clock, FlightRecorder, ManualClock, SpanEvent, Stage, STAGES};

fn base_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        policy: PolicySpec::fixed_minutes(10),
        ..ServeConfig::default()
    }
}

/// Appends one `POST /invoke` request, optionally carrying
/// `x-sitw-trace`, to a burst.
fn invoke_request(burst: &mut Vec<u8>, app: &str, ts: u64, trace: Option<u64>) {
    let body = format!("{{\"app\":\"{app}\",\"ts\":{ts}}}");
    write_request(burst, "POST", "/invoke", trace, body.as_bytes()).unwrap();
}

/// Sends one SITW-BIN request frame and reads the whole reply frame.
fn bin_roundtrip(addr: SocketAddr, records: &[(&str, u64)]) -> Vec<BinReply> {
    let mut client = Client::connect(addr).unwrap();
    client
        .batch(|f| wire::encode_request_frame(f, records))
        .unwrap()
        .records()
        .unwrap()
}

// ---------------------------------------------------------------------
// The acceptance criterion: `sitw_serve_decision_latency` is exported
// as a true histogram per stage and tenant, and the shard-merged bucket
// counts are exactly the sum of the per-shard recordings.

#[test]
fn stage_histograms_cover_every_request_and_merge_exactly() {
    let server = Server::start(base_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    const JSON_N: u64 = 20;
    for i in 0..JSON_N {
        assert_eq!(
            client
                .invoke(None, &format!("app-{}", i % 5), 1_000 + i, None)
                .unwrap()
                .0,
            200
        );
    }
    let bin_records: Vec<(String, u64)> = (0..30u64)
        .map(|i| (format!("bin-{}", i % 7), 5_000 + i))
        .collect();
    let borrowed: Vec<(&str, u64)> = bin_records.iter().map(|(a, t)| (a.as_str(), *t)).collect();
    let replies = bin_roundtrip(server.addr(), &borrowed);
    assert_eq!(replies.len(), 30);
    let bin_n = replies.len() as u64;

    // The reactor records a reply's write stage *after* `write(2)`
    // returns, so a client that scrapes the instant it holds the reply
    // can get there first: poll until the write counts have settled.
    let deadline = Instant::now() + Duration::from_secs(5);
    let report = loop {
        let report = server.metrics();
        let (_, write) = &report.stage_hists()[5];
        if (write.json.count() >= JSON_N && write.bin.count() >= bin_n)
            || Instant::now() >= deadline
        {
            break report;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let stages = report.stage_hists();
    let names: Vec<&str> = stages.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        ["read", "decode", "queue", "decide", "render", "write"]
    );
    // Every stage observed every decision, on the right protocol.
    for (name, h) in &stages {
        assert_eq!(
            h.json.count(),
            JSON_N,
            "stage {name} undercounted json decisions"
        );
        assert_eq!(
            h.bin.count(),
            bin_n,
            "stage {name} undercounted bin decisions"
        );
    }
    // Exact merge: the aggregate decide histogram IS the element-wise
    // sum of the per-shard recordings — no estimator, no sampling.
    let mut manual = sitw_serve::ProtoHists::default();
    for s in &report.shards {
        manual.merge(&s.decide_ns);
    }
    assert_eq!(stages[3].1, manual);
    // Both shards actually recorded (routing spread the apps).
    assert!(report
        .shards
        .iter()
        .all(|s| !s.decide_ns.merged().is_empty()));

    // The exposition carries real histogram series for every stage and
    // the default tenant, with consistent _bucket/_sum/_count triples.
    let (status, text) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    for stage in ["read", "decode", "queue", "decide", "render", "write"] {
        for proto in ["json", "bin"] {
            let series = format!("sitw_serve_decision_latency_bucket{{stage=\"{stage}\",proto=\"{proto}\",le=\"+Inf\"}}");
            assert!(text.contains(&series), "missing {series} in:\n{text}");
            let count =
                format!("sitw_serve_decision_latency_count{{stage=\"{stage}\",proto=\"{proto}\"}}");
            assert!(text.contains(&count), "missing {count}");
        }
    }
    assert!(
        text.contains("sitw_serve_decision_latency_count{stage=\"decide\",tenant=\"default\"} 50")
    );
    assert!(text.contains("# TYPE sitw_serve_decision_latency histogram"));

    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// The /debug endpoints over HTTP.

#[test]
fn debug_trace_and_threads_over_http() {
    let server = Server::start(base_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..10u64 {
        assert_eq!(
            client
                .invoke(None, &format!("t-{i}"), 2_000 + i, None)
                .unwrap()
                .0,
            200
        );
    }
    let replies = bin_roundtrip(server.addr(), &[("b-0", 9_000), ("b-1", 9_001)]);
    assert_eq!(replies.len(), 2);

    // Text trace: every pipeline stage shows up in the merged spans.
    let (status, trace) = client.request("GET", "/debug/trace?n=256", "").unwrap();
    assert_eq!(status, 200);
    assert!(trace.starts_with("# start_ns end_ns dur_ns span stage source"));
    for stage in ["read", "decode", "queue", "decide", "render", "write"] {
        assert!(
            trace.lines().any(|l| l.split(' ').nth(4) == Some(stage)),
            "stage {stage} missing from trace:\n{trace}"
        );
    }
    assert!(trace.contains("reactor-") && trace.contains("shard-"));

    // JSON trace honors n=K.
    let (status, json) = client
        .request("GET", "/debug/trace?n=3&format=json", "")
        .unwrap();
    assert_eq!(status, 200);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"span\":").count(), 3);

    // Thread introspection: sane queue gauges and reactor counters.
    let (status, threads) = client.request("GET", "/debug/threads", "").unwrap();
    assert_eq!(status, 200);
    assert!(threads.contains("\"reactors\":[{\"id\":0,"));
    assert!(threads.contains("\"epoll_waits\":"));
    assert!(threads.contains("\"shards\":[{\"id\":0,\"mailbox_depth\":"));
    // The gauges are drain-observed: depth is the backlog of the most
    // recent wave, peak its high-water mark — real dispatches must have
    // driven at least one shard's peak above zero.
    assert!(
        threads.matches("\"mailbox_peak\":0}").count() < 2,
        "no shard ever saw a queued message: {threads}"
    );
    // Method guard: the debug paths are known, so wrong verbs are 405.
    assert_eq!(client.request("POST", "/debug/trace", "").unwrap().0, 405);
    assert_eq!(client.request("POST", "/debug/threads", "").unwrap().0, 405);

    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Satellite: deterministic-clock span ordering across the
// reactor→shard→reply hops, using the same recorder + merge machinery
// the server runs.

#[test]
fn manual_clock_spans_order_deterministically_across_hops() {
    let clock = ManualClock::new(100);
    let mut reactor = FlightRecorder::new(32);
    let mut shard = FlightRecorder::new(32);
    let span = (3u64 << 48) | 7;

    // Reactor thread: read then decode, each taking 10 ns.
    let tick = |advance: u64| {
        let t0 = clock.now_ns();
        clock.advance(advance);
        (t0, clock.now_ns())
    };
    let (r0, r1) = tick(10);
    reactor.push(SpanEvent {
        span,
        stage: Stage::Read,
        start_ns: r0,
        end_ns: r1,
    });
    let (d0, d1) = tick(10);
    reactor.push(SpanEvent {
        span,
        stage: Stage::Decode,
        start_ns: d0,
        end_ns: d1,
    });
    // Hop to the shard: mailbox wait then the decision itself.
    let (q0, q1) = tick(25);
    shard.push(SpanEvent {
        span,
        stage: Stage::Queue,
        start_ns: q0,
        end_ns: q1,
    });
    let (x0, x1) = tick(5);
    shard.push(SpanEvent {
        span,
        stage: Stage::Decide,
        start_ns: x0,
        end_ns: x1,
    });
    // Hop back to the reactor: render, then the coalesced write.
    let (n0, n1) = tick(10);
    reactor.push(SpanEvent {
        span,
        stage: Stage::Render,
        start_ns: n0,
        end_ns: n1,
    });
    let (w0, w1) = tick(40);
    reactor.push(SpanEvent {
        span,
        stage: Stage::Write,
        start_ns: w0,
        end_ns: w1,
    });

    let merged = merge_spans(
        &[
            ("reactor-0".to_owned(), &reactor),
            ("shard-1".to_owned(), &shard),
        ],
        16,
    );
    // Exactly the six pipeline stages, in pipeline order, despite
    // interleaving two recorders — merge sorts on start_ns.
    let got: Vec<Stage> = merged.iter().map(|s| s.event.stage).collect();
    assert_eq!(got, STAGES.to_vec());
    let sources: Vec<&str> = merged.iter().map(|s| s.source.as_str()).collect();
    assert_eq!(
        sources,
        [
            "reactor-0",
            "reactor-0",
            "shard-1",
            "shard-1",
            "reactor-0",
            "reactor-0"
        ]
    );
    // Stages tile the timeline contiguously: each starts where the
    // previous ended (the recording convention the server follows).
    assert_eq!(merged[0].event.start_ns, 100);
    for pair in merged.windows(2) {
        assert_eq!(pair[0].event.end_ns, pair[1].event.start_ns);
    }
    assert_eq!(merged[5].event.end_ns, 200);
    // All hops agree on the span id.
    assert!(merged.iter().all(|s| s.event.span == span));
}

// ---------------------------------------------------------------------
// Fleet-plane provenance surfaces: propagated trace ids tag the node's
// pipeline spans, `/debug/events` records lifecycle provenance,
// `/debug/policy` explains the live verdict, and `/debug/hist` exposes
// the raw federation format. Scraping any of them is non-destructive.

#[test]
fn debug_scrapes_are_non_destructive_and_carry_provenance() {
    let server = Server::start(base_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let trace = (1u64 << 63) | 0xBEE;
    let (status, traced_verdict) = client
        .invoke(None, "traced-app", 1_000, Some(trace))
        .unwrap();
    assert_eq!(status, 200, "{traced_verdict}");
    for i in 0..4u64 {
        assert_eq!(
            client
                .invoke(None, &format!("app-{i}"), 2_000 + i, None)
                .unwrap()
                .0,
            200
        );
    }

    // The propagated id IS the span id of the node's pipeline stages.
    let (status, trace_text) = client.request("GET", "/debug/trace?n=256", "").unwrap();
    assert_eq!(status, 200);
    let hex = format!("{trace:#018x}");
    assert!(
        trace_text.contains(&hex),
        "propagated id {hex} missing from trace:\n{trace_text}"
    );

    // Regression: a scrape observes the ring, it must not drain it.
    // Back-to-back scrapes with no traffic in between are identical.
    let again = client.request("GET", "/debug/trace?n=256", "").unwrap();
    assert_eq!(again, (200, trace_text), "trace scrape was destructive");
    let hist = client.request("GET", "/debug/hist", "").unwrap();
    assert_eq!(hist.0, 200);
    assert_eq!(
        client.request("GET", "/debug/hist", "").unwrap(),
        hist,
        "hist scrape was destructive"
    );
    // The federation wire format: `stage <name> <proto> <sum> <b0>..`.
    assert!(hist.1.lines().any(|l| l.starts_with("stage decide json ")));
    assert!(hist.1.lines().any(|l| l.starts_with("tenant default ")));

    // Lifecycle provenance: five first-sight invocations = cold starts.
    let (status, events) = client.request("GET", "/debug/events", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        events.contains("\"kind\":\"cold-start\"") && events.contains("\"app\":\"traced-app\""),
        "missing cold-start provenance: {events}"
    );
    assert_eq!(
        client.request("GET", "/debug/events", "").unwrap().1,
        events,
        "events scrape was destructive"
    );

    // Decision provenance: the live verdict for one (tenant, app).
    let (status, policy) = client
        .request("GET", "/debug/policy?app=traced-app", "")
        .unwrap();
    assert_eq!(status, 200);
    assert!(policy.contains("\"tenant\":\"default\""));
    assert!(policy.contains("\"app\":\"traced-app\""));
    assert!(policy.contains("\"last_verdict\":{") && policy.contains("\"cold\":true"));
    assert_eq!(branch_of(&policy), kind_of(&traced_verdict), "{policy}");
    assert_eq!(client.request("GET", "/debug/policy", "").unwrap().0, 400);
    assert_eq!(
        client
            .request("GET", "/debug/policy?app=nope", "")
            .unwrap()
            .0,
        404
    );

    // Regression: `/debug/policy` named branches through a table of its
    // own, so the hybrid policy's learning-phase branch read
    // "standard-keep-alive" here and "standard" on `/invoke`. One name
    // per branch: a hybrid tenant's first verdict, both views.
    let (status, body) = client
        .request("POST", "/admin/tenants", "h=hybrid")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, verdict) = client.invoke(Some("h"), "learner", 5_000, None).unwrap();
    assert_eq!(status, 200, "{verdict}");
    assert_eq!(kind_of(&verdict), "standard");
    let (status, policy) = client
        .request("GET", "/debug/policy?app=learner&tenant=h", "")
        .unwrap();
    assert_eq!(status, 200, "{policy}");
    assert_eq!(branch_of(&policy), "standard", "{policy}");

    server.shutdown().unwrap();
}

/// The decision branch an `/invoke` response names.
fn kind_of(verdict: &str) -> &'static str {
    wire::kind_str(wire::parse_decision(verdict).unwrap().kind)
}

/// The `last_verdict.branch` a `/debug/policy` body names.
fn branch_of(policy: &str) -> &str {
    let key = "\"branch\":\"";
    let rest = &policy[policy.find(key).expect("branch in /debug/policy") + key.len()..];
    &rest[..rest.find('"').unwrap()]
}

// ---------------------------------------------------------------------
// The off switch: serving still works, debug surfaces come back empty.

#[test]
fn no_telemetry_serves_but_exports_nothing() {
    let server = Server::start(ServeConfig {
        telemetry: false,
        ..base_config()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for i in 0..5u64 {
        assert_eq!(
            client
                .invoke(None, "quiet", 1_000 + i * 100_000, None)
                .unwrap()
                .0,
            200
        );
    }
    let (status, text) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    // Bucket series render as honest zeros (no garbage, no quantiles).
    assert!(text.contains("sitw_serve_decision_latency_count{stage=\"decide\",proto=\"json\"} 0"));
    assert!(!text.contains("sitw_serve_decision_latency_us{"));
    assert!(text.contains("sitw_serve_invocations_total"));
    let (status, trace) = client.request("GET", "/debug/trace", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(trace.lines().count(), 1, "only the header line: {trace}");
    let (status, threads) = client.request("GET", "/debug/threads", "").unwrap();
    assert_eq!(status, 200);
    assert!(threads.contains("\"reactors\":[]"));
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Burst-coalesced JSON: a pipelined burst rides one `InvokeBatch` per
// shard, yet telemetry stays invocation-weighted and exact — every
// stage counts every request, nothing is booked as a frame, and a
// traced request keeps all six stages under its own id.

#[test]
fn pipelined_json_burst_counts_every_stage_exactly_and_no_frames() {
    let server = Server::start(base_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    const N: u64 = 96;
    let mut burst = Vec::new();
    for i in 0..N {
        invoke_request(&mut burst, &format!("burst-{}", i % 11), 1_000 + i, None);
    }
    client.send(&burst).unwrap();
    for i in 0..N {
        assert_eq!(client.response().unwrap().0, 200, "request {i}");
    }
    let (status, text) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    for stage in ["read", "decode", "queue", "decide", "render", "write"] {
        let count =
            format!("sitw_serve_decision_latency_count{{stage=\"{stage}\",proto=\"json\"}} {N}\n");
        assert!(
            text.contains(&count),
            "missing `{}` in:\n{text}",
            count.trim()
        );
        let bin =
            format!("sitw_serve_decision_latency_count{{stage=\"{stage}\",proto=\"bin\"}} 0\n");
        assert!(text.contains(&bin), "missing `{}`", bin.trim());
    }
    assert!(text.contains("sitw_serve_frames_total 0\n"), "{text}");
    assert!(text.contains("sitw_serve_batched_decisions_total 0\n"));
    server.shutdown().unwrap();
}

#[test]
fn traced_request_inside_a_burst_keeps_six_spans_under_its_id() {
    let server = Server::start(base_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let trace = (1u64 << 63) | 0xB0057;
    let mut burst = Vec::new();
    for i in 0..32u64 {
        let trace = (i == 17).then_some(trace);
        invoke_request(&mut burst, &format!("mix-{i}"), 3_000 + i, trace);
    }
    client.send(&burst).unwrap();
    for i in 0..32 {
        assert_eq!(client.response().unwrap().0, 200, "request {i}");
    }
    let (status, text) = client.request("GET", "/debug/trace?n=512", "").unwrap();
    assert_eq!(status, 200);
    let hex = format!("{trace:#018x}");
    // Line format: `start_ns end_ns dur_ns span stage source`.
    let mut stages: Vec<&str> = text
        .lines()
        .filter(|l| l.split(' ').nth(3) == Some(hex.as_str()))
        .filter_map(|l| l.split(' ').nth(4))
        .collect();
    stages.sort_unstable();
    assert_eq!(
        stages,
        ["decide", "decode", "queue", "read", "render", "write"],
        "the traced request's own spans:\n{text}"
    );
    server.shutdown().unwrap();
}
