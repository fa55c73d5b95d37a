//! The OpenWhisk-model discrete-event simulation.
//!
//! Mirrors the paper's Figure 13 data path: invocations enter through the
//! REST front end, the **Controller**'s load balancer picks an invoker
//! (home-invoker hashing with co-prime probing, as in OpenWhisk's
//! sharding balancer) and forwards the activation over a Kafka-like bus;
//! the **Invoker** runs it in a per-app Docker-like container. The §4.3
//! modifications are faithfully modelled:
//!
//! * the controller owns the per-app policy state and updates it on every
//!   invocation;
//! * the keep-alive parameter travels *with the activation message* and
//!   drives the invoker's ContainerProxy expiry;
//! * the controller publishes pre-warm messages that load a container
//!   shortly before the predicted next invocation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sitw_core::{AppPolicy, Windows};
use sitw_trace::{TimeMs, Trace};

use crate::cluster::{ContainerState, Invoker};
use crate::config::{lognormal_around, ms, PlatformConfig};
use crate::report::{InvocationRecord, PlatformReport};

/// Maximum placement retries before an activation is dropped.
const MAX_RETRIES: u32 = 20;

/// Backoff between placement retries (ms).
const RETRY_BACKOFF_MS: TimeMs = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Client request arrives at the REST front end.
    Arrival { app: u32 },
    /// Activation reaches an invoker (placement happens now).
    Deliver {
        app: u32,
        arrival: TimeMs,
        windows: Windows,
        exec_ms: u64,
        retries: u32,
    },
    /// A running activation completes.
    ExecDone {
        app: u32,
        invoker: usize,
        container: u64,
        arrival: TimeMs,
        windows: Windows,
        cold: bool,
        exec_ms: u64,
        start_delay_ms: u64,
    },
    /// A pre-warmed container finished initializing.
    PrewarmReady {
        invoker: usize,
        container: u64,
        keep_alive_ms: u64,
    },
    /// Lazy keep-alive expiry sweep on an invoker.
    Expire { invoker: usize },
    /// Controller-published pre-warm for an application.
    Prewarm {
        app: u32,
        generation: u64,
        keep_alive_ms: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: TimeMs,
    seq: u64,
    ev: Ev,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct AppState {
    memory_mb: f64,
    /// Cumulative (share, avg_exec_ms) table for function sampling.
    func_table: Vec<(f64, f64)>,
    policy: Box<dyn AppPolicy>,
    last_exec_end: Option<TimeMs>,
    /// Invalidates stale pre-warm events.
    prewarm_gen: u64,
}

/// Runs the trace through the platform with one policy instance per app.
///
/// `make_policy` is called once per application (the §4.3 Load Balancer
/// keeps per-app metadata).
pub fn run_platform<F>(trace: &Trace, cfg: &PlatformConfig, mut make_policy: F) -> PlatformReport
where
    F: FnMut() -> Box<dyn AppPolicy>,
{
    // Two RNG streams: execution times are drawn only at arrivals (whose
    // order is policy-independent), so different policies replay
    // *identical* workloads; init/bootstrap latencies draw from the
    // second stream.
    let mut rng_exec = StdRng::seed_from_u64(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1A7E);
    let mut invokers: Vec<Invoker> = (0..cfg.num_invokers)
        .map(|i| Invoker::new(i, cfg.invoker_memory_mb))
        .collect();
    let stride = coprime_stride(cfg.num_invokers);

    // Per-app state, indexed densely by position in the trace.
    let mut apps: Vec<AppState> = trace
        .apps
        .iter()
        .map(|a| {
            let mut cum = 0.0;
            let func_table = a
                .profile
                .functions
                .iter()
                .map(|f| {
                    cum += f.invocation_share;
                    (cum, f.avg_exec_secs * 1000.0)
                })
                .collect();
            AppState {
                memory_mb: a.profile.memory_mb.min(cfg.invoker_memory_mb),
                func_table,
                policy: make_policy(),
                last_exec_end: None,
                prewarm_gen: 0,
            }
        })
        .collect();

    let mut heap: BinaryHeap<Reverse<Scheduled>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<Scheduled>>, seq: &mut u64, at, ev| {
        *seq += 1;
        heap.push(Reverse(Scheduled { at, seq: *seq, ev }));
    };

    for (idx, app) in trace.apps.iter().enumerate() {
        for &t in &app.invocations {
            push(&mut heap, &mut seq, t, Ev::Arrival { app: idx as u32 });
        }
    }

    let mut records: Vec<InvocationRecord> = Vec::new();
    let mut prewarm_starts = 0u64;
    let mut dropped = 0u64;
    let mut container_ids = 0u64;

    while let Some(Reverse(Scheduled { at: now, ev, .. })) = heap.pop() {
        match ev {
            Ev::Arrival { app } => {
                let state = &mut apps[app as usize];
                state.prewarm_gen += 1; // Cancel any pending pre-warm.
                let it = state.last_exec_end.map(|e| now.saturating_sub(e));
                let windows = state.policy.on_invocation(it);
                let exec_ms = sample_exec_ms(&mut rng_exec, state, cfg);
                let deliver_at = now + ms(cfg.controller_latency_ms) + ms(cfg.bus_latency_ms);
                push(
                    &mut heap,
                    &mut seq,
                    deliver_at,
                    Ev::Deliver {
                        app,
                        arrival: now,
                        windows,
                        exec_ms,
                        retries: 0,
                    },
                );
            }

            Ev::Deliver {
                app,
                arrival,
                windows,
                exec_ms,
                retries,
            } => {
                let mem = apps[app as usize].memory_mb;
                match place(&mut invokers, app, mem, now, stride) {
                    Placement::Warm { invoker, container } => {
                        let inv = &mut invokers[invoker];
                        inv.advance_integrals(now);
                        let done = now + exec_ms;
                        let c = inv.container_mut(container).expect("warm container");
                        c.state = ContainerState::Busy { until: done };
                        c.last_used = now;
                        push(
                            &mut heap,
                            &mut seq,
                            done,
                            Ev::ExecDone {
                                app,
                                invoker,
                                container,
                                arrival,
                                windows,
                                cold: false,
                                exec_ms,
                                start_delay_ms: now - arrival,
                            },
                        );
                    }
                    Placement::Cold { invoker } => {
                        let init = ms(lognormal_around(
                            &mut rng,
                            cfg.container_init_ms,
                            cfg.latency_sigma,
                        ));
                        let bootstrap = ms(lognormal_around(
                            &mut rng,
                            cfg.runtime_bootstrap_ms,
                            cfg.latency_sigma,
                        ));
                        // FaaSProfiler observes the OpenWhisk activation
                        // duration, which includes initTime on cold
                        // starts: count init + bootstrap in measured
                        // execution time.
                        let exec_total = init + bootstrap + exec_ms;
                        let start = now + init;
                        let done = now + exec_total;
                        container_ids += 1;
                        let inv = &mut invokers[invoker];
                        inv.start_container(container_ids, app, mem, now, start);
                        let c = inv.container_mut(container_ids).expect("new container");
                        c.state = ContainerState::Busy { until: done };
                        push(
                            &mut heap,
                            &mut seq,
                            done,
                            Ev::ExecDone {
                                app,
                                invoker,
                                container: container_ids,
                                arrival,
                                windows,
                                cold: true,
                                exec_ms: exec_total,
                                start_delay_ms: now - arrival,
                            },
                        );
                    }
                    Placement::NoCapacity => {
                        if retries >= MAX_RETRIES {
                            dropped += 1;
                            records.push(InvocationRecord {
                                app,
                                arrival,
                                cold: false,
                                start_delay_ms: 0,
                                exec_ms: 0,
                                dropped: true,
                            });
                        } else {
                            push(
                                &mut heap,
                                &mut seq,
                                now + RETRY_BACKOFF_MS,
                                Ev::Deliver {
                                    app,
                                    arrival,
                                    windows,
                                    exec_ms,
                                    retries: retries + 1,
                                },
                            );
                        }
                    }
                }
            }

            Ev::ExecDone {
                app,
                invoker,
                container,
                arrival,
                windows,
                cold,
                exec_ms,
                start_delay_ms,
            } => {
                records.push(InvocationRecord {
                    app,
                    arrival,
                    cold,
                    start_delay_ms,
                    exec_ms,
                    dropped: false,
                });
                let state = &mut apps[app as usize];
                state.last_exec_end = Some(now);
                let inv = &mut invokers[invoker];
                inv.advance_integrals(now);
                if windows.pre_warm_ms > 0 {
                    // Unload now; the controller schedules a pre-warm.
                    inv.remove_container(container, now);
                    state.prewarm_gen += 1;
                    push(
                        &mut heap,
                        &mut seq,
                        now + windows.pre_warm_ms,
                        Ev::Prewarm {
                            app,
                            generation: state.prewarm_gen,
                            keep_alive_ms: windows.keep_alive_ms,
                        },
                    );
                } else if let Some(c) = inv.container_mut(container) {
                    let expires_at = now.saturating_add(windows.keep_alive_ms);
                    c.state = ContainerState::Idle { expires_at };
                    c.last_used = now;
                    c.idle_since = now;
                    if expires_at != TimeMs::MAX {
                        push(&mut heap, &mut seq, expires_at + 1, Ev::Expire { invoker });
                    }
                }
            }

            Ev::Prewarm {
                app,
                generation,
                keep_alive_ms,
            } => {
                let state = &apps[app as usize];
                if state.prewarm_gen != generation {
                    continue; // Superseded by a newer invocation.
                }
                if invokers.iter().any(|i| i.has_container(app)) {
                    continue; // Already loaded somewhere.
                }
                let mem = state.memory_mb;
                if let Some(invoker) = place_for_start(&mut invokers, app, mem, now, stride) {
                    let init = ms(lognormal_around(
                        &mut rng,
                        cfg.container_init_ms,
                        cfg.latency_sigma,
                    ));
                    container_ids += 1;
                    invokers[invoker].start_container(container_ids, app, mem, now, now + init);
                    prewarm_starts += 1;
                    push(
                        &mut heap,
                        &mut seq,
                        now + init,
                        Ev::PrewarmReady {
                            invoker,
                            container: container_ids,
                            keep_alive_ms,
                        },
                    );
                }
            }

            Ev::PrewarmReady {
                invoker,
                container,
                keep_alive_ms,
            } => {
                let inv = &mut invokers[invoker];
                inv.advance_integrals(now);
                if let Some(c) = inv.container_mut(container) {
                    if matches!(c.state, ContainerState::Starting { .. }) {
                        let expires_at = now.saturating_add(keep_alive_ms);
                        c.state = ContainerState::Idle { expires_at };
                        c.idle_since = now;
                        if expires_at != TimeMs::MAX {
                            push(&mut heap, &mut seq, expires_at + 1, Ev::Expire { invoker });
                        }
                    }
                }
            }

            Ev::Expire { invoker } => invokers[invoker].expire_due(now),
        }
    }

    // Close the books at the trace horizon (events past it, e.g. long
    // final executions, have already advanced their invoker further;
    // advance_integrals is monotone so this is a no-op there).
    for inv in &mut invokers {
        inv.advance_integrals(trace.horizon_ms);
    }

    PlatformReport {
        records,
        invoker_stats: invokers.iter().map(|i| i.stats).collect(),
        prewarm_starts,
        dropped,
        horizon_ms: trace.horizon_ms,
    }
}

enum Placement {
    Warm { invoker: usize, container: u64 },
    Cold { invoker: usize },
    NoCapacity,
}

/// OpenWhisk-style placement: home invoker by app hash, co-prime probing;
/// prefer a warm container, then free capacity, then evictable space.
fn place(invokers: &mut [Invoker], app: u32, mem: f64, now: TimeMs, stride: usize) -> Placement {
    let n = invokers.len();
    let home = splitmix(app as u64) as usize % n;

    // Pass 1: a ready idle container anywhere on the probe sequence.
    for i in 0..n {
        let v = (home + i * stride) % n;
        invokers[v].expire_due(now);
        if let Some(c) = invokers[v].find_idle(app, now) {
            let id = c.id;
            return Placement::Warm {
                invoker: v,
                container: id,
            };
        }
    }
    // Pass 2: free or evictable capacity.
    match place_for_start(invokers, app, mem, now, stride) {
        Some(v) => Placement::Cold { invoker: v },
        None => Placement::NoCapacity,
    }
}

/// Finds an invoker that can host a new container of `mem` MB (free
/// memory first, then LRU eviction of idle containers).
fn place_for_start(
    invokers: &mut [Invoker],
    app: u32,
    mem: f64,
    now: TimeMs,
    stride: usize,
) -> Option<usize> {
    let n = invokers.len();
    let home = splitmix(app as u64) as usize % n;
    for i in 0..n {
        let v = (home + i * stride) % n;
        if invokers[v].free_mb() >= mem {
            return Some(v);
        }
    }
    for i in 0..n {
        let v = (home + i * stride) % n;
        if invokers[v].make_room(mem, now) {
            return Some(v);
        }
    }
    None
}

fn sample_exec_ms(rng: &mut StdRng, state: &AppState, cfg: &PlatformConfig) -> u64 {
    let u: f64 = rng.random();
    let avg_ms = state
        .func_table
        .iter()
        .find(|(cum, _)| u <= *cum)
        .map(|(_, avg)| *avg)
        .unwrap_or_else(|| state.func_table.last().map(|(_, a)| *a).unwrap_or(100.0));
    ms(lognormal_around(rng, avg_ms.max(1.0), cfg.latency_sigma))
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Smallest stride ≥ 3 co-prime with `n` (1 for tiny clusters).
fn coprime_stride(n: usize) -> usize {
    if n <= 2 {
        return 1;
    }
    (3..n).find(|s| gcd(*s, n) == 1).unwrap_or(1)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::{FixedKeepAlive, HybridConfig, PolicyFactory};
    use sitw_trace::{AppId, AppProfile, AppTrace, Archetype, FunctionProfile, TriggerType};
    use sitw_trace::{MINUTE_MS, SECOND_MS};

    fn one_app_trace(invocations: Vec<TimeMs>, horizon: TimeMs) -> Trace {
        let profile = AppProfile {
            id: AppId(0),
            functions: vec![FunctionProfile {
                trigger: TriggerType::Http,
                invocation_share: 1.0,
                avg_exec_secs: 0.2,
                min_exec_secs: 0.1,
                max_exec_secs: 1.0,
            }],
            daily_rate: 100.0,
            archetype: Archetype::Poisson,
            memory_mb: 256.0,
            memory_mb_pct1: 200.0,
            memory_mb_max: 300.0,
        };
        Trace {
            horizon_ms: horizon,
            apps: vec![AppTrace {
                profile,
                invocations,
            }],
        }
    }

    #[test]
    fn gcd_and_stride() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(coprime_stride(18), 5);
        assert_eq!(coprime_stride(2), 1);
        assert_eq!(coprime_stride(7), 3);
    }

    #[test]
    fn single_invocation_is_cold_with_init_delay() {
        let trace = one_app_trace(vec![0], 10 * MINUTE_MS);
        let cfg = PlatformConfig::default();
        let report = run_platform(&trace, &cfg, || {
            Box::new(FixedKeepAlive::minutes(10).new_policy())
        });
        assert_eq!(report.served(), 1);
        assert_eq!(report.cold_count(), 1);
        let r = &report.records[0];
        // Start delay covers controller + bus only (init is measured
        // inside the activation duration, as OpenWhisk reports it).
        assert!(r.start_delay_ms >= 2, "delay {}", r.start_delay_ms);
        // Measured exec includes container init + runtime bootstrap.
        assert!(r.exec_ms > 500, "exec {}", r.exec_ms);
    }

    #[test]
    fn rapid_invocations_hit_warm_containers() {
        // 1-second gaps, 10-minute keep-alive: everything after the first
        // is warm.
        let events: Vec<TimeMs> = (0..50).map(|i| i * SECOND_MS * 30).collect();
        let trace = one_app_trace(events, 30 * MINUTE_MS);
        let cfg = PlatformConfig::default();
        let report = run_platform(&trace, &cfg, || {
            Box::new(FixedKeepAlive::minutes(10).new_policy())
        });
        assert_eq!(report.served(), 50);
        assert_eq!(report.cold_count(), 1, "only the first is cold");
        // Warm execs exclude bootstrap: median well below cold exec.
        let warm_exec = report.exec_percentile_ms(50.0);
        assert!(warm_exec < 500.0, "median exec {warm_exec}");
    }

    #[test]
    fn keep_alive_expiry_causes_colds() {
        // 20-minute gaps with a 10-minute keep-alive: every invocation
        // cold.
        let events: Vec<TimeMs> = (0..5).map(|i| i * 20 * MINUTE_MS).collect();
        let trace = one_app_trace(events, 100 * MINUTE_MS);
        let report = run_platform(&trace, &PlatformConfig::default(), || {
            Box::new(FixedKeepAlive::minutes(10).new_policy())
        });
        assert_eq!(report.cold_count(), 5);
        let (starts, _, expirations) = report.lifecycle_totals();
        assert_eq!(starts, 5);
        assert!(expirations >= 4, "expired {expirations}");
    }

    #[test]
    fn hybrid_prewarms_periodic_app() {
        // 30-minute period: hybrid learns it and pre-warms.
        let events: Vec<TimeMs> = (0..40).map(|i| i * 30 * MINUTE_MS).collect();
        let trace = one_app_trace(events, 40 * 30 * MINUTE_MS);
        let report = run_platform(&trace, &PlatformConfig::default(), || {
            Box::new(HybridConfig::default().new_policy())
        });
        assert!(
            report.cold_count() <= 10,
            "hybrid colds {}",
            report.cold_count()
        );
        assert!(
            report.prewarm_starts > 10,
            "prewarms {}",
            report.prewarm_starts
        );

        // Fixed 10-minute: everything cold.
        let fixed = run_platform(&trace, &PlatformConfig::default(), || {
            Box::new(FixedKeepAlive::minutes(10).new_policy())
        });
        assert_eq!(fixed.cold_count(), 40);
        // And hybrid holds less idle memory than fixed-4h would; compare
        // against the conservative standard keep-alive range instead.
        let fixed4h = run_platform(&trace, &PlatformConfig::default(), || {
            Box::new(FixedKeepAlive::minutes(240).new_policy())
        });
        assert!(report.total_idle_mb_ms() < fixed4h.total_idle_mb_ms());
        assert!(fixed4h.cold_count() == 1);
    }

    #[test]
    fn memory_capacity_forces_eviction_or_queueing() {
        // 40 apps × 256 MB on one tiny invoker (1 GB): pressure.
        let mut apps = Vec::new();
        for i in 0..40u32 {
            let mut t = one_app_trace(vec![i as TimeMs * 100, 3 * MINUTE_MS], 10 * MINUTE_MS);
            t.apps[0].profile.id = AppId(i);
            apps.push(t.apps.remove(0));
        }
        let trace = Trace {
            horizon_ms: 10 * MINUTE_MS,
            apps,
        };
        let cfg = PlatformConfig {
            num_invokers: 1,
            invoker_memory_mb: 1024.0,
            ..PlatformConfig::default()
        };
        let report = run_platform(&trace, &cfg, || {
            Box::new(FixedKeepAlive::minutes(10).new_policy())
        });
        let (_, evictions, _) = report.lifecycle_totals();
        // With 4 container slots and 40 apps, evictions (or retries/drops)
        // must occur, and the simulation must terminate.
        assert!(evictions > 0 || report.dropped > 0);
        assert_eq!(report.served() + report.dropped, 80);
    }

    #[test]
    fn deterministic_given_seed() {
        let events: Vec<TimeMs> = (0..30).map(|i| i * 7 * MINUTE_MS).collect();
        let trace = one_app_trace(events, 300 * MINUTE_MS);
        let cfg = PlatformConfig::default();
        let a = run_platform(&trace, &cfg, || {
            Box::new(HybridConfig::default().new_policy())
        });
        let b = run_platform(&trace, &cfg, || {
            Box::new(HybridConfig::default().new_policy())
        });
        assert_eq!(a.records, b.records);
        assert_eq!(a.prewarm_starts, b.prewarm_starts);
    }
}
