//! Trace generation: turning profiles into invocation timestamp streams.
//!
//! Applications are independent, so each app's stream is generated from
//! its own deterministic RNG (derived from the global seed and the app
//! id via SplitMix64): a stream is bit-identical whichever thread draws
//! it, and in whatever order.
//!
//! [`generate_trace`] and [`for_each_app`] therefore draw on every core.
//! Both go through one materializer, which deals the apps in runs of
//! `RUN_APPS` round-robin to scoped workers, the calling thread being
//! the first. The split is fixed, a pure function of the app count and
//! the worker count, unlike the shared claim cursor of `sitw_sim`'s
//! sweep. A dynamic split is hardly faster here (within 3 % on two
//! cores) and costs memory: an app's stream can land in a different
//! thread's malloc arena from one call to the next, and over 25
//! consecutive materializations of the 4 000-app, 7-day benchmark
//! population dynamic claims raised the process's peak RSS by 2.2 to
//! 8.1 MB, where the fixed split stays within 0.3 MB of one thread.

use std::panic::resume_unwind;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::archetype::generate_events;
use crate::model::{AppProfile, Population};
use crate::time::{TimeMs, WEEK_MS};

/// Apps in one run of the fixed split: run `r` holds apps
/// `r · RUN_APPS ..` and goes to worker `r mod workers`. Short against
/// any population worth a thread, so hot apps even out across workers.
const RUN_APPS: usize = 4;

/// Apps [`for_each_app`] materializes at a time: the memory it holds.
const BATCH_APPS: usize = 256;

/// Configuration for trace generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Trace horizon in milliseconds (the paper's simulations use the
    /// first week of the two-week trace).
    pub horizon_ms: TimeMs,
    /// Per-application daily event cap; hot apps are clamped here (their
    /// cold-start and idle behaviour is insensitive to the exact rate
    /// once invocations arrive every few seconds).
    pub cap_per_day: f64,
    /// Global seed combined with each app id.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            horizon_ms: WEEK_MS,
            cap_per_day: 20_000.0,
            seed: 0x5EED,
        }
    }
}

/// One application's materialized invocation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AppTrace {
    /// The application profile.
    pub profile: AppProfile,
    /// Sorted invocation timestamps in `[0, horizon)`.
    pub invocations: Vec<TimeMs>,
}

/// A fully materialized trace, generated on every core by
/// [`generate_trace`]. For large populations prefer [`for_each_app`],
/// which holds a bounded batch of applications at a time.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Horizon used during generation.
    pub horizon_ms: TimeMs,
    /// Per-application streams, in population order.
    pub apps: Vec<AppTrace>,
}

impl Trace {
    /// Total invocations across all applications.
    pub fn total_invocations(&self) -> u64 {
        self.apps.iter().map(|a| a.invocations.len() as u64).sum()
    }
}

/// SplitMix64: decorrelates per-app seeds derived from `(seed, app_id)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic RNG seed for one application's stream.
pub fn app_seed(global_seed: u64, app_index: u32) -> u64 {
    splitmix64(global_seed ^ ((app_index as u64) << 1 | 1))
}

/// Generates one application's invocation stream.
pub fn app_invocations(profile: &AppProfile, cfg: &TraceConfig) -> Vec<TimeMs> {
    let mut rng = StdRng::seed_from_u64(app_seed(cfg.seed, profile.id.0));
    generate_events(
        &profile.archetype,
        profile.daily_rate,
        cfg.horizon_ms,
        cfg.cap_per_day,
        &mut rng,
    )
}

/// Streams `(profile, invocations)` pairs in population order without
/// holding the whole trace in memory: batches of `BATCH_APPS` apps are
/// generated on every core, then handed to `f` one by one on the calling
/// thread.
pub fn for_each_app<F>(population: &Population, cfg: &TraceConfig, mut f: F)
where
    F: FnMut(&AppProfile, Vec<TimeMs>),
{
    let workers = available_workers();
    for batch in population.apps.chunks(BATCH_APPS) {
        for (profile, stream) in batch.iter().zip(materialize(batch, cfg, workers)) {
            f(profile, stream);
        }
    }
}

/// Materializes the full trace (small/medium populations), generating
/// the streams on every core with the fixed split the module describes.
/// Every stream equals [`app_invocations`] of its profile.
pub fn generate_trace(population: &Population, cfg: &TraceConfig) -> Trace {
    let streams = materialize(&population.apps, cfg, available_workers());
    let apps = population
        .apps
        .iter()
        .zip(streams)
        .map(|(profile, invocations)| AppTrace {
            profile: profile.clone(),
            invocations,
        })
        .collect();
    Trace {
        horizon_ms: cfg.horizon_ms,
        apps,
    }
}

fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fixed split of `slots` over `workers`: worker `w` gets every run
/// `r` of `RUN_APPS` slots with `r mod workers = w`, each with the index
/// of its first slot.
fn deal<T>(slots: &mut [T], workers: usize) -> Vec<Vec<(usize, &mut [T])>> {
    let mut hands: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
    for (r, run) in slots.chunks_mut(RUN_APPS).enumerate() {
        hands[r % workers].push((r * RUN_APPS, run));
    }
    hands
}

/// Every profile's [`app_invocations`], in order, drawn by up to
/// `workers` threads (no more than there are runs; the calling thread is
/// the first). A worker's panic is re-raised here with its own payload.
fn materialize(profiles: &[AppProfile], cfg: &TraceConfig, workers: usize) -> Vec<Vec<TimeMs>> {
    let mut streams = vec![Vec::new(); profiles.len()];
    let workers = workers.min(profiles.len().div_ceil(RUN_APPS)).max(1);
    let draw = |hand: Vec<(usize, &mut [Vec<TimeMs>])>| {
        for (lo, run) in hand {
            for (slot, profile) in run.iter_mut().zip(&profiles[lo..]) {
                *slot = app_invocations(profile, cfg);
            }
        }
    };
    let mut hands = deal(&mut streams, workers).into_iter();
    let mine = hands.next().expect("at least one worker");
    std::thread::scope(|scope| {
        let helpers: Vec<_> = hands.map(|hand| scope.spawn(|| draw(hand))).collect();
        draw(mine);
        for h in helpers {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    });
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::{Archetype, TimerSpec};
    use crate::population::{build_population, PopulationConfig};
    use crate::time::DAY_MS;

    fn small_cfg() -> (Population, TraceConfig) {
        let pop = build_population(&PopulationConfig {
            num_apps: 60,
            seed: 7,
        });
        let cfg = TraceConfig {
            horizon_ms: DAY_MS,
            cap_per_day: 5000.0,
            seed: 99,
        };
        (pop, cfg)
    }

    #[test]
    fn generation_is_deterministic_and_order_independent() {
        let (pop, cfg) = small_cfg();
        let full = generate_trace(&pop, &cfg);
        // Generating a single app in isolation must give the same stream.
        let single = app_invocations(&pop.apps[17], &cfg);
        assert_eq!(full.apps[17].invocations, single);
    }

    #[test]
    fn streams_sorted_and_within_horizon() {
        let (pop, cfg) = small_cfg();
        let trace = generate_trace(&pop, &cfg);
        for app in &trace.apps {
            assert!(app.invocations.windows(2).all(|w| w[0] <= w[1]));
            if let Some(&last) = app.invocations.last() {
                assert!(last < cfg.horizon_ms);
            }
        }
    }

    #[test]
    fn for_each_app_matches_materialized() {
        let (pop, cfg) = small_cfg();
        let trace = generate_trace(&pop, &cfg);
        let mut i = 0;
        for_each_app(&pop, &cfg, |profile, inv| {
            assert_eq!(profile.id, trace.apps[i].profile.id);
            assert_eq!(inv, trace.apps[i].invocations);
            i += 1;
        });
        assert_eq!(i, pop.len());
    }

    #[test]
    fn different_seeds_differ() {
        let (pop, cfg) = small_cfg();
        let cfg2 = TraceConfig { seed: 100, ..cfg };
        let a = generate_trace(&pop, &cfg);
        let b = generate_trace(&pop, &cfg2);
        // Timer-only apps are deterministic; at least one non-timer app
        // must differ between seeds.
        let differs = a
            .apps
            .iter()
            .zip(&b.apps)
            .any(|(x, y)| x.invocations != y.invocations);
        assert!(differs);
    }

    /// `materialize` over `pop` at 1, 2, 3 and 7 workers equals the
    /// per-app fold of `app_invocations`.
    fn assert_materializes_per_app(pop: &Population, cfg: &TraceConfig) {
        let folded: Vec<_> = pop.apps.iter().map(|p| app_invocations(p, cfg)).collect();
        for workers in [1, 2, 3, 7] {
            let streams = materialize(&pop.apps, cfg, workers);
            assert_eq!(streams.len(), folded.len(), "{workers} workers");
            for (i, (got, want)) in streams.iter().zip(&folded).enumerate() {
                assert_eq!(got, want, "app {i} at {workers} workers");
            }
        }
        let trace = generate_trace(pop, cfg);
        assert_eq!(trace.horizon_ms, cfg.horizon_ms);
        assert_eq!(trace.apps.len(), pop.len());
        for ((app, profile), want) in trace.apps.iter().zip(&pop.apps).zip(&folded) {
            assert_eq!(&app.profile, profile);
            assert_eq!(&app.invocations, want);
        }
    }

    #[test]
    fn materialize_equals_the_per_app_fold() {
        let (pop, cfg) = small_cfg();
        assert_materializes_per_app(&pop, &cfg);
        // Fewer apps than workers, fewer runs than workers, and none.
        for n in [3, 9, 0] {
            let few = Population {
                apps: pop.apps[..n].to_vec(),
            };
            assert_materializes_per_app(&few, &cfg);
        }
    }

    #[test]
    fn the_split_is_fixed() {
        for len in [0, 1, 5, 60, 257] {
            for workers in 1..=7 {
                let split = || {
                    let mut slots: Vec<usize> = (0..len).collect();
                    // Per app, in app order: its worker and its slot.
                    let mut owner = vec![None; len];
                    for (w, hand) in deal(&mut slots, workers).into_iter().enumerate() {
                        for (lo, run) in hand {
                            for (k, &app) in run.iter().enumerate() {
                                assert_eq!(app, lo + k);
                                assert_eq!(owner[app].replace(w), None, "app {app} twice");
                            }
                        }
                    }
                    owner
                };
                let first = split();
                for (app, w) in first.iter().enumerate() {
                    assert_eq!(
                        *w,
                        Some(app / RUN_APPS % workers),
                        "{len} apps, {workers} workers"
                    );
                }
                assert_eq!(split(), first);
            }
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        let (pop, cfg) = small_cfg();
        let mut broken = pop.apps[0].clone();
        broken.archetype = Archetype::Timers(vec![TimerSpec {
            period_ms: 0,
            phase_ms: 0,
        }]);
        // At 3 workers, app 0 is the calling thread's, 5 the second
        // worker's and 59 the third's.
        for at in [0, 5, 59] {
            let mut apps = pop.apps.clone();
            apps[at] = broken.clone();
            let bad = Population { apps };
            let outcomes = [
                std::panic::catch_unwind(|| drop(materialize(&bad.apps, &cfg, 3))),
                std::panic::catch_unwind(|| drop(generate_trace(&bad, &cfg))),
            ];
            for outcome in outcomes {
                let payload = outcome.expect_err("a zero period panics");
                assert_eq!(
                    payload.downcast_ref::<&str>().copied(),
                    Some("timer period must be positive"),
                    "app {at}"
                );
            }
        }
    }

    #[test]
    fn app_seed_decorrelates_neighbors() {
        let s1 = app_seed(1, 1);
        let s2 = app_seed(1, 2);
        // Hamming distance between neighbouring seeds should be large.
        let diff = (s1 ^ s2).count_ones();
        assert!(diff > 16, "seeds too similar: {s1:x} vs {s2:x}");
    }

    #[test]
    fn total_invocations_sane() {
        let (pop, cfg) = small_cfg();
        let trace = generate_trace(&pop, &cfg);
        let total = trace.total_invocations();
        assert!(total > 0);
        // Bounded by cap × apps.
        assert!(total < 60 * 5001);
    }
}
