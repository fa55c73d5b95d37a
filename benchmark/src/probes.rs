//! In-process per-layer probes: each times calls into one public
//! function of a repo crate over the workload's own inputs, from the
//! outside, and is recorded as one span. Sizes are iteration counts
//! (tens of milliseconds each), not durations.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sitw_core::{DecisionKind, PolicySpec};
use sitw_fleet::{footprint_mb, TenantLedger};
use sitw_serve::http::{self, ConnBuf, ReadOutcome};
use sitw_serve::shard::{ShardMsg, ShardWorker};
use sitw_serve::wire::{self, BinInvoke, BinReply};
use sitw_serve::{BatchItem, Decision, Snapshot, TenantRestore};
use sitw_telemetry::Log2Histogram;
use sitw_trace::{
    app_invocations, build_population, Population, PopulationConfig, TraceConfig, DAY_MS,
};

use crate::calib;
use crate::client::{encode_request, Names, Proto};
use crate::inputs::{Event, Expect, Inputs, Schedule};
use crate::span::Recorder;
use crate::spec::{ServerWorkload, Topology, PER_LAYER};

/// Events a replay-style probe consumes at most.
const PROBE_EVENTS: usize = 200_000;
/// Apps whose whole streams the policy probes replay.
const PROBE_APPS: usize = 120;
/// Requests or records a codec-style probe cycles over.
const CODEC_SAMPLE: usize = 4_096;

type Metrics = BTreeMap<&'static str, f64>;

/// Times `f` as one span and returns nanoseconds per `units`.
fn per_unit(rec: &mut Recorder, name: &'static str, units: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    rec.time(name, 0, None, f);
    t0.elapsed().as_nanos() as f64 / units.max(1) as f64
}

fn hybrid() -> PolicySpec {
    PolicySpec::parse("hybrid").expect("hybrid parses")
}

/// The first `limit` events of a schedule pair (warm-up then timed) of
/// connection 0, with their expected verdicts.
fn sample<'a>(inputs: &'a Inputs, limit: usize) -> impl Iterator<Item = (&'a Event, &'a Expect)> {
    let chain = |s: &'a Schedule| s.events.iter().zip(&s.expect);
    chain(&inputs.warm[0])
        .chain(chain(&inputs.timed[0]))
        .take(limit)
}

/// Whole arrival streams (warm-up and timed) of one app in every
/// `apps / PROBE_APPS`: whole, because the ARIMA branch only serves
/// apps with a history; every n-th by id, because the apps seen first
/// in a stream are the busiest, which the histogram branch serves alone.
fn by_app(inputs: &Inputs, apps: usize) -> Vec<Vec<u64>> {
    let stride = (apps / PROBE_APPS).max(1) as u32;
    let mut streams: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for s in inputs.warm.iter().chain(&inputs.timed) {
        for e in s.events.iter().filter(|e| e.app % stride == 0) {
            streams.entry(e.app).or_default().push(e.ts);
        }
    }
    streams.into_values().collect()
}

/// Probes that need only a population and a trace config; shared by the
/// server workloads and the sweep.
fn probe_trace_gen(
    population: &Population,
    cfg: &TraceConfig,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let apps = &population.apps[..population.apps.len().min(400)];
    let mut events = 0u64;
    let t0 = Instant::now();
    rec.time("probe.trace.gen", 0, None, || {
        for app in apps {
            events += black_box(app_invocations(app, cfg)).len() as u64;
        }
    });
    m.insert(
        "trace.gen_ns_per_event",
        t0.elapsed().as_nanos() as f64 / events.max(1) as f64,
    );
}

fn probe_sim(streams: &[Vec<u64>], horizon_ms: u64, rec: &mut Recorder, m: &mut Metrics) {
    let spec = hybrid();
    let events: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let ns = per_unit(rec, "probe.sim.replay", events, || {
        for s in streams {
            let mut policy = spec.new_policy();
            black_box(sitw_sim::simulate_app(s, horizon_ms, policy.as_mut()));
        }
    });
    m.insert("sim.replay_ns_per_event", ns);
    let ns = per_unit(rec, "probe.sim.verdict_trace", events, || {
        for s in streams {
            let mut policy = spec.new_policy();
            black_box(sitw_sim::verdict_trace(s, policy.as_mut()));
        }
    });
    m.insert("sim.verdict_trace_ns_per_event", ns);
}

/// Mean cost of `on_invocation` of the hybrid policy by the branch that
/// served it. A per-call clock pair would cost as much as the cheapest
/// branch, so each stream is replayed twice: once untimed to learn the
/// branch of every call (the policy is deterministic), once timed in
/// maximal runs of calls with the same branch. Each run is bracketed by
/// three clock reads — two back to back, then the calls, then the third
/// — and the back-to-back gap, the cost of reading the clock right
/// there, is taken off the run's time.
fn probe_core(streams: &[Vec<u64>], rec: &mut Recorder, m: &mut Metrics) {
    let spec = hybrid();
    let branch = |kind: DecisionKind| match kind {
        DecisionKind::Histogram => Some(0),
        DecisionKind::StandardKeepAlive => Some(1),
        DecisionKind::Arima => Some(2),
        DecisionKind::Static => None,
    };
    let idle = |s: &[u64], i: usize| (i > 0).then(|| s[i] - s[i - 1]);
    let (mut net_ns, mut calls) = ([0f64; 3], [0u64; 3]);
    rec.time("probe.core.decide", 0, None, || {
        for s in streams {
            let mut policy = spec.new_policy();
            let kinds: Vec<Option<usize>> = (0..s.len())
                .map(|i| {
                    policy.on_invocation(idle(s, i));
                    branch(policy.last_decision())
                })
                .collect();
            let mut policy = spec.new_policy();
            let mut i = 0;
            while i < s.len() {
                let run = kinds[i..].iter().take_while(|k| **k == kinds[i]).count();
                let t0 = Instant::now();
                let t1 = Instant::now();
                for k in i..i + run {
                    black_box(policy.on_invocation(idle(s, k)));
                }
                let t2 = Instant::now();
                if let Some(b) = kinds[i] {
                    net_ns[b] += (t2 - t1).as_nanos() as f64 - (t1 - t0).as_nanos() as f64;
                    calls[b] += run as u64;
                }
                i += run;
            }
        }
    });
    let mean = |b: usize| {
        if calls[b] == 0 {
            0.0
        } else {
            (net_ns[b] / calls[b] as f64).max(0.0)
        }
    };
    m.insert("core.decide_histogram_ns", mean(0));
    m.insert("core.decide_standard_ns", mean(1));
    m.insert("core.decide_arima_ns", mean(2));
}

/// `auto_arima` over idle-time series (minutes) of the sparsest apps —
/// the ones the policy hands to ARIMA.
fn probe_arima(streams: &[Vec<u64>], rec: &mut Recorder, m: &mut Metrics) {
    let mut series: Vec<Vec<f64>> = streams
        .iter()
        .filter(|s| s.len() >= 9)
        .map(|s| {
            s.windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 60_000.0)
                .collect::<Vec<f64>>()
        })
        .filter(|its| crate::stats::median(its) > 240.0)
        .map(|mut its| {
            its.truncate(64);
            its
        })
        .take(40)
        .collect();
    if series.is_empty() {
        // No such app in this sample: a five-hour rhythm with jitter.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        series.push(
            (0..32)
                .map(|_| {
                    x = sitw_fleet::mix64(x);
                    300.0 + (x % 60) as f64
                })
                .collect(),
        );
    }
    let fits = series.len() as u64 * 5;
    let ns = per_unit(rec, "probe.arima.fit", fits, || {
        for _ in 0..5 {
            for s in &series {
                let _ = black_box(sitw_arima::auto_arima(
                    s,
                    sitw_arima::AutoArimaConfig::default(),
                ));
            }
        }
    });
    m.insert("arima.fit_us", ns / 1e3);
}

fn probe_hist(rec: &mut Recorder, m: &mut Metrics) {
    let mut h = Log2Histogram::new();
    let n = 2_000_000u64;
    let ns = per_unit(rec, "probe.telemetry.hist_record", n, || {
        let mut v = 1u64;
        for _ in 0..n {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(black_box(v >> 40));
        }
    });
    black_box(&h);
    m.insert("telemetry.hist_record_ns", ns);
}

/// The host's speed while the probes ran: the reference work
/// ([`crate::calib`]) is timed on this thread before each probe, and
/// afterwards every timing the probes produced is scaled by it like the
/// end-to-end figures — the host's slow spells reach a single thread
/// too.
#[derive(Default)]
struct ProbeSpeed {
    reference_ns: Vec<f64>,
}

impl ProbeSpeed {
    /// Takes a calibration point; call before each probe.
    fn point(&mut self) {
        self.reference_ns.push(calib::time_once());
    }

    /// Adds the probes' figures to `m`, those in ns or µs scaled to the
    /// reference host.
    fn merge_into(self, m: &mut Metrics, probed: Metrics) {
        let speed = calib::speed(&self.reference_ns);
        for (name, value) in probed {
            let timing = PER_LAYER
                .iter()
                .any(|d| d.name == name && matches!(d.unit, "ns" | "us"));
            m.insert(name, if timing { value * speed } else { value });
        }
    }
}

/// The sweep's probes: generation, replay, decide, ARIMA, histogram.
pub fn run_sweep_probes(
    population: &Population,
    cfg: &TraceConfig,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let (mut speed, mut probed) = (ProbeSpeed::default(), Metrics::new());
    speed.point();
    probe_trace_gen(population, cfg, rec, &mut probed);
    let streams: Vec<Vec<u64>> = population
        .apps
        .iter()
        .take(400)
        .map(|a| app_invocations(a, cfg))
        .filter(|s| !s.is_empty())
        .collect();
    speed.point();
    probe_sim(&streams, cfg.horizon_ms, rec, &mut probed);
    speed.point();
    probe_core(&streams, rec, &mut probed);
    speed.point();
    probe_arima(&streams, rec, &mut probed);
    speed.point();
    probe_hist(rec, &mut probed);
    speed.merge_into(m, probed);
}

fn json_body(e: &Event, names: &Names) -> Vec<u8> {
    let mut req = Vec::new();
    let s = Schedule {
        events: vec![*e],
        ..Schedule::default()
    };
    encode_request(Proto::Json { window: 1 }, &mut req, &s, names, 0, 1);
    let at = req
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("request has a header end");
    req.split_off(at + 4)
}

fn probe_wire(inputs: &Inputs, names: &Names, batch: usize, rec: &mut Recorder, m: &mut Metrics) {
    let picked: Vec<(Event, Expect)> = sample(inputs, CODEC_SAMPLE)
        .map(|(e, x)| (*e, *x))
        .collect();
    let rounds = 40u64;
    let units = rounds * picked.len() as u64;

    let bodies: Vec<Vec<u8>> = picked.iter().map(|(e, _)| json_body(e, names)).collect();
    let ns = per_unit(rec, "probe.wire.json_parse", units, || {
        for _ in 0..rounds {
            for b in &bodies {
                let _ = black_box(wire::parse_invoke(b));
            }
        }
    });
    m.insert("wire.json_parse_ns_per_req", ns);

    let decisions: Vec<Decision> = picked
        .iter()
        .map(|(_, x)| Decision {
            cold: x.flags & 1 != 0,
            prewarm_load: x.flags & 2 != 0,
            evicted: x.flags & 4 != 0,
            kind: x.kind(),
            windows: x.windows(),
        })
        .collect();
    let mut out = Vec::with_capacity(256);
    let ns = per_unit(rec, "probe.wire.json_render", units, || {
        for _ in 0..rounds {
            for d in &decisions {
                out.clear();
                wire::render_decision(&mut out, d);
                black_box(&out);
            }
        }
    });
    m.insert("wire.json_render_ns_per_reply", ns);

    let mut bodies_out = Vec::with_capacity(512);
    let body = &bodies[0];
    let ns = per_unit(rec, "probe.http.write_response", units, || {
        for _ in 0..units {
            bodies_out.clear();
            http::write_response(&mut bodies_out, 200, "application/json", black_box(body));
            black_box(&bodies_out);
        }
    });
    m.insert("http.write_response_ns_per_reply", ns);

    // Request frames of the workload's own batch size.
    let frames: Vec<Vec<u8>> = picked
        .chunks(batch)
        .map(|chunk| {
            let records: Vec<(u16, String, u64)> = chunk
                .iter()
                .map(|(e, _)| (e.tenant, crate::inputs::app_name(e.app), e.ts))
                .collect();
            let borrowed: Vec<(u16, &str, u64)> = records
                .iter()
                .map(|(t, a, ts)| (*t, a.as_str(), *ts))
                .collect();
            let mut frame = Vec::new();
            wire::encode_request_frame_v2(&mut frame, &borrowed);
            frame
        })
        .collect();
    let mut records: Vec<BinInvoke> = Vec::new();
    let ns = per_unit(rec, "probe.wire.bin_decode", units, || {
        for _ in 0..rounds {
            for f in &frames {
                black_box(wire::decode_request_frame_into(f, &mut records));
            }
        }
    });
    m.insert("wire.bin_decode_ns_per_record", ns);

    let replies: Vec<BinReply> = picked.iter().map(|(_, x)| x.to_bin()).collect();
    let mut out = Vec::with_capacity(16 * 1024);
    let ns = per_unit(rec, "probe.wire.bin_encode", units, || {
        for _ in 0..rounds {
            for chunk in replies.chunks(batch) {
                out.clear();
                wire::encode_reply_records(&mut out, wire::BIN_VERSION_2, chunk);
                black_box(&out);
            }
        }
    });
    m.insert("wire.bin_encode_ns_per_record", ns);
}

/// `ConnBuf::read_request` over a loopback pair pre-filled with
/// pipelined requests, so the figure is parsing plus one `read(2)` per
/// burst — not a client's pacing.
fn probe_http_read(
    inputs: &Inputs,
    names: &Names,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    server.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut conn = ConnBuf::new(server);
    let burst_len = 128usize;
    let mut burst = Vec::new();
    for (e, _) in sample(inputs, burst_len) {
        let s = Schedule {
            events: vec![*e],
            ..Schedule::default()
        };
        encode_request(Proto::Json { window: 1 }, &mut burst, &s, names, 0, 1);
    }
    let rounds = 300u64;
    let mut spent = Duration::ZERO;
    let mut parsed = 0u64;
    rec.time(
        "probe.http.read_request",
        0,
        None,
        || -> std::io::Result<()> {
            for _ in 0..rounds {
                client.write_all(&burst)?;
                let t0 = Instant::now();
                for _ in 0..burst_len {
                    match conn.read_request()? {
                        ReadOutcome::Request(r) => {
                            black_box(r);
                            parsed += 1;
                        }
                        other => {
                            return Err(std::io::Error::other(format!("unexpected {other:?}")))
                        }
                    }
                }
                spent += t0.elapsed();
            }
            Ok(())
        },
    )?;
    m.insert(
        "http.read_request_ns_per_req",
        spent.as_nanos() as f64 / parsed.max(1) as f64,
    );
    Ok(())
}

/// `Waker::wake` on one thread → `Epoll::wait` returning on another.
fn probe_wake(rec: &mut Recorder, m: &mut Metrics) -> std::io::Result<()> {
    use sitw_reactor::{Epoll, Events, Interest, Waker};
    let epoll = Epoll::new()?;
    let waker = Waker::new()?;
    epoll.add(waker.raw_fd(), 1, Interest::READ)?;
    let epoch = Instant::now();
    let woke_at = AtomicU64::new(0);
    let asleep = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let rounds = 3_000u64;
    let mut total_ns = 0u64;
    rec.time("probe.reactor.wake_rtt", 0, None, || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut events = Events::with_capacity(4);
                while !stop.load(Ordering::Acquire) {
                    waker.arm();
                    asleep.store(true, Ordering::Release);
                    if epoll.wait(&mut events, 200).unwrap_or(0) > 0 {
                        let now = epoch.elapsed().as_nanos() as u64;
                        waker.disarm();
                        waker.drain();
                        woke_at.store(now, Ordering::Release);
                    }
                }
            });
            for _ in 0..rounds {
                // Let the loop thread get into (or close to) its wait.
                while !asleep.swap(false, Ordering::AcqRel) {
                    std::hint::spin_loop();
                }
                std::thread::sleep(Duration::from_micros(50));
                woke_at.store(0, Ordering::Release);
                let t0 = epoch.elapsed().as_nanos() as u64;
                waker.wake();
                let mut at;
                loop {
                    at = woke_at.load(Ordering::Acquire);
                    if at != 0 {
                        break;
                    }
                    std::hint::spin_loop();
                }
                total_ns += at.saturating_sub(t0);
            }
            stop.store(true, Ordering::Release);
            waker.wake_force();
        });
    });
    m.insert("reactor.wake_rtt_ns", total_ns as f64 / rounds as f64);
    Ok(())
}

fn shard_tenants(inputs: &Inputs) -> Vec<TenantRestore> {
    inputs
        .registry()
        .tenants()
        .iter()
        .cloned()
        .map(TenantRestore::fresh)
        .collect()
}

fn probe_shard(inputs: &Inputs, names: &Names, batch: usize, rec: &mut Recorder, m: &mut Metrics) {
    let events: Vec<Event> = sample(inputs, PROBE_EVENTS).map(|(e, _)| *e).collect();
    let n = events.len() as u64;

    let mut worker = ShardWorker::new(0, shard_tenants(inputs)).expect("fresh tenants restore");
    let ns = per_unit(rec, "probe.shard.invoke", n, || {
        for e in &events {
            let _ = black_box(worker.invoke(e.tenant, names.get(e.app), e.ts));
        }
    });
    m.insert("shard.invoke_ns_per_decision", ns);

    // The daemon hands `invoke_batch` owned records (its frame decoder
    // allocated the names), so building them is not part of the probe.
    let mut worker = ShardWorker::new(0, shard_tenants(inputs)).expect("fresh tenants restore");
    let mut batches: Vec<Vec<BatchItem>> = events
        .chunks(batch)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(idx, e)| BatchItem {
                    idx: idx as u32,
                    tenant: e.tenant,
                    app: names.get(e.app).to_owned(),
                    ts: e.ts,
                })
                .collect()
        })
        .collect();
    let ns = per_unit(rec, "probe.shard.invoke_batch", n, || {
        for (seq, items) in batches.drain(..).enumerate() {
            black_box(worker.invoke_batch(seq as u64, items));
        }
    });
    m.insert("shard.invoke_batch_ns_per_decision", ns);

    // One message through the mailbox of a running worker and back.
    let worker = ShardWorker::new(0, shard_tenants(inputs)).expect("fresh tenants restore");
    let (tx, rx) = mpsc::channel();
    let rounds = 20_000u64;
    let ns = std::thread::scope(|scope| {
        let handle = scope.spawn(move || worker.run(rx));
        let ns = per_unit(rec, "probe.shard.mailbox_rtt", rounds, || {
            let (reply_tx, reply_rx) = mpsc::channel();
            for _ in 0..rounds {
                let msg = ShardMsg::PolicyProbe {
                    tenant: 0,
                    app: String::new(),
                    reply: reply_tx.clone(),
                };
                if tx.send(msg).is_err() {
                    break;
                }
                let _ = black_box(reply_rx.recv());
            }
        });
        let _ = tx.send(ShardMsg::Shutdown);
        let _ = handle.join();
        ns
    });
    m.insert("shard.mailbox_rtt_ns", ns);
}

fn probe_ledger(inputs: &Inputs, names: &Names, rec: &mut Recorder, m: &mut Metrics) {
    // One tenant's stream (a ledger is per tenant); untenanted inputs
    // use the default tenant's unlimited ledger like the daemon does.
    let tenant = if inputs.tenants.is_empty() { 0 } else { 1 };
    let (tenant_name, budget) = if tenant == 0 {
        ("default".to_owned(), 0)
    } else {
        inputs.tenants[0].clone()
    };
    let charges: Vec<(&str, u64, u64, u64)> = sample(inputs, usize::MAX)
        .filter(|(e, _)| e.tenant == tenant)
        .take(PROBE_EVENTS)
        .map(|(e, x)| {
            let app = names.get(e.app);
            (
                app,
                e.ts,
                x.windows().loaded_until(e.ts),
                footprint_mb(&tenant_name, app),
            )
        })
        .collect();
    let mut ledger = TenantLedger::new(budget);
    let ns = per_unit(
        rec,
        "probe.fleet.ledger_charge",
        charges.len() as u64,
        || {
            for &(app, now, expiry, mb) in &charges {
                black_box(ledger.charge(app, now, expiry, mb));
            }
        },
    );
    m.insert("fleet.ledger_charge_ns", ns);
}

fn probe_snapshot(path: &Path, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let snapshot = Snapshot::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let apps = (snapshot.apps.len() + snapshot.tenants.iter().map(|t| t.apps.len()).sum::<usize>())
        .max(1) as u64;
    let mut text = String::new();
    let ns = per_unit(rec, "probe.snapshot.encode", apps, || {
        text = snapshot.encode()
    });
    m.insert("snapshot.encode_ns_per_app", ns);
    m.insert("snapshot.bytes_per_app", text.len() as f64 / apps as f64);
    let mut decoded = None;
    let ns = per_unit(rec, "probe.snapshot.decode", apps, || {
        decoded = Some(Snapshot::decode(&text))
    });
    m.insert("snapshot.decode_ns_per_app", ns);
    let mut base = decoded.expect("decode ran")?;

    // A replication round carrying every app: the delta document's
    // encode on the primary, decode + apply on the standby.
    let mut delta_text = String::new();
    let ns = per_unit(rec, "probe.repl.delta_encode", apps, || {
        delta_text = snapshot.encode_delta()
    });
    m.insert("repl.delta_encode_ns_per_app", ns);
    let mut failed = None;
    let ns = per_unit(
        rec,
        "probe.repl.apply",
        apps,
        || match Snapshot::decode_delta(&delta_text) {
            Ok(delta) => sitw_serve::apply_delta(&mut base, delta),
            Err(e) => failed = Some(e),
        },
    );
    m.insert("repl.apply_ns_per_app", ns);
    match failed {
        Some(e) => Err(e),
        None if base == snapshot => Ok(()),
        None => Err("applying a full delta changed the snapshot".into()),
    }
}

fn probe_ring(inputs: &Inputs, rec: &mut Recorder, m: &mut Metrics) {
    let ring = sitw_cluster::ClusterRing::new(2);
    let names: Vec<&str> = inputs.tenants.iter().map(|(n, _)| n.as_str()).collect();
    if names.is_empty() {
        return;
    }
    let rounds = 200_000u64;
    let ns = per_unit(rec, "probe.router.ring_lookup", rounds, || {
        for i in 0..rounds as usize {
            black_box(ring.node_of_tenant(names[i % names.len()]));
        }
    });
    m.insert("router.ring_lookup_ns", ns);
}

/// Runs every probe that applies to a server workload; returns the
/// nanoseconds per decision the probes explain of the workload's
/// request path (codec in, decide, codec out — plus HTTP framing for
/// JSON, and the router's own decode/encode pass when routed).
#[allow(clippy::too_many_arguments)]
pub fn run_server_probes(
    w: &ServerWorkload,
    seed: u64,
    inputs: &Inputs,
    names: &Names,
    snapshot: &Path,
    rec: &mut Recorder,
    notes: &mut Vec<String>,
    m: &mut Metrics,
) -> f64 {
    let batch = match w.proto {
        Proto::Bin { batch, .. } => batch,
        Proto::Json { .. } => 128,
    };
    let population = build_population(&PopulationConfig {
        num_apps: w.input.apps.min(400),
        seed: crate::inputs::POPULATION_SEED,
    });
    let trace_cfg = TraceConfig {
        horizon_ms: (w.input.warm_days + w.input.timed_days) * DAY_MS,
        cap_per_day: w.input.cap_per_day,
        seed: seed ^ 0x10AD,
    };
    let (mut speed, mut probed) = (ProbeSpeed::default(), Metrics::new());
    speed.point();
    probe_trace_gen(&population, &trace_cfg, rec, &mut probed);
    m.insert(
        "trace.events_total",
        (inputs.warm_len() + inputs.timed_len()) as f64,
    );
    let total = inputs.branches.total.max(1) as f64;
    m.insert(
        "core.branch_histogram_pct",
        100.0 * inputs.branches.histogram as f64 / total,
    );
    m.insert(
        "core.branch_standard_pct",
        100.0 * inputs.branches.standard as f64 / total,
    );
    m.insert(
        "core.branch_arima_pct",
        100.0 * inputs.branches.arima as f64 / total,
    );

    let streams = by_app(inputs, w.input.apps);
    speed.point();
    probe_sim(&streams, trace_cfg.horizon_ms, rec, &mut probed);
    speed.point();
    probe_core(&streams, rec, &mut probed);
    speed.point();
    probe_arima(&streams, rec, &mut probed);
    speed.point();
    probe_hist(rec, &mut probed);
    speed.point();
    probe_wire(inputs, names, batch, rec, &mut probed);
    speed.point();
    if let Err(e) = probe_http_read(inputs, names, rec, &mut probed) {
        notes.push(format!("http.read_request probe failed: {e}"));
    }
    speed.point();
    if let Err(e) = probe_wake(rec, &mut probed) {
        notes.push(format!("reactor.wake_rtt probe failed: {e}"));
    }
    speed.point();
    probe_shard(inputs, names, batch, rec, &mut probed);
    speed.point();
    probe_ledger(inputs, names, rec, &mut probed);
    speed.point();
    if let Err(e) = probe_snapshot(snapshot, rec, &mut probed) {
        notes.push(format!("snapshot probes failed: {e}"));
    }
    if w.topology == Topology::Routed {
        speed.point();
        probe_ring(inputs, rec, &mut probed);
    }
    speed.merge_into(m, probed);

    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    match (w.proto, w.topology) {
        (Proto::Json { .. }, _) => {
            get("http.read_request_ns_per_req")
                + get("wire.json_parse_ns_per_req")
                + get("shard.invoke_ns_per_decision")
                + get("wire.json_render_ns_per_reply")
                + get("http.write_response_ns_per_reply")
        }
        (Proto::Bin { .. }, Topology::Direct) => {
            get("wire.bin_decode_ns_per_record")
                + get("shard.invoke_batch_ns_per_decision")
                + get("wire.bin_encode_ns_per_record")
        }
        (Proto::Bin { batch, .. }, Topology::Routed) => {
            2.0 * (get("wire.bin_decode_ns_per_record") + get("wire.bin_encode_ns_per_record"))
                + get("shard.invoke_batch_ns_per_decision")
                + get("router.ring_lookup_ns") / batch as f64
        }
    }
}
