//! Per-application cold-start simulation (§5.1 methodology).
//!
//! "The simulator generates an array of invocation times for each unique
//! application. It then infers whether each invocation would be a cold
//! start. By default, the first invocation is always assumed to be a
//! cold start. The simulator keeps track of when each application image
//! is loaded and aggregates the wasted memory time … We conservatively
//! simulate function execution times equal to 0."
//!
//! With zero execution time, the idle time (IT) between executions equals
//! the inter-arrival time, and a policy's windows map onto each gap:
//!
//! * `pre_warm = 0`: the image stays loaded; an invocation within the
//!   keep-alive window is warm (waste = the idle gap), a later one is
//!   cold (waste = the whole keep-alive window);
//! * `pre_warm > 0`: the image unloads at execution end and re-loads at
//!   `pre_warm`; an invocation before that is cold with **zero** waste
//!   (the load never happened — the pending pre-warm is cancelled), one
//!   inside `[pre_warm, pre_warm+keep_alive]` is warm (waste = arrival −
//!   load), one after is cold (waste = the keep-alive window).
//!
//! One loop, `replay`, walks a stream and hands each idle gap to its
//! caller, which keeps the windows in force; the accounting of a closed
//! gap, a decision's branch and the trailing window up to the horizon
//! are [`AppSimResult`]'s own. [`simulate_app`] folds one policy through
//! them; the sweep (`crate::sweep`) folds every configuration of a run
//! through the same loop and the same accounting in one walk.

use sitw_core::{AppPolicy, DecisionKind, GapOutcome, Windows};
use sitw_trace::TimeMs;

/// Outcome of simulating one application against one policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppSimResult {
    /// Total invocations replayed.
    pub invocations: u64,
    /// Invocations that found no loaded image.
    pub cold_starts: u64,
    /// Loaded-but-idle image time in milliseconds (the paper's "wasted
    /// memory time", with all apps weighing equally).
    pub wasted_ms: u64,
    /// Image loads (initial cold load + pre-warm loads + cold re-loads).
    pub loads: u64,
    /// Loads triggered by pre-warming (subset of `loads`).
    pub prewarm_loads: u64,
    /// Policy decisions served by the ARIMA branch.
    pub arima_decisions: u64,
    /// Whether any decision used ARIMA.
    pub used_arima: bool,
}

impl AppSimResult {
    /// Percentage of invocations that were cold (0 when none replayed).
    pub fn cold_pct(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            100.0 * self.cold_starts as f64 / self.invocations as f64
        }
    }

    /// True when every invocation was cold (the Figure 19 metric).
    pub fn always_cold(&self) -> bool {
        self.invocations > 0 && self.cold_starts == self.invocations
    }
}

/// The gap the first invocation closes: cold by definition (§5.1), and
/// nothing was loaded to waste.
const FIRST_SIGHT: GapOutcome = GapOutcome {
    cold: true,
    wasted_ms: 0,
    prewarm_load: false,
};

/// The gap an invocation closes under the `windows` in force: `idle` is
/// `None` at first sight, when `windows` is never read.
#[inline]
pub(crate) fn classify(windows: &Windows, idle: Option<TimeMs>) -> GapOutcome {
    idle.map_or(FIRST_SIGHT, |it| windows.classify_gap(it))
}

/// The one replay loop. Hands each served invocation to
/// `serve(ts, idle)`, which classifies the gap it closes against its
/// windows ([`classify`]) and advances its policies; the first
/// invocation's `idle` is `None`. `exec_ms(i)` is how long invocation
/// `i` busies the image; an arrival inside a running execution is served
/// by a concurrent container — it extends the busy period and never
/// reaches `serve`. Returns when the last execution ended (`None` for an
/// empty stream).
///
/// Generic over its closures, so each caller gets its own fold with
/// nothing boxed or collected; the windows live with the caller, so one
/// walk serves one policy ([`fold_app`], [`trace`]) or a sweep's every
/// configuration at once (`crate::sweep`). Deliberately not the fleet's
/// `TenantState::step` — they share `classify_gap` and nothing else,
/// which keeps daemon-vs-`verdict_trace` parity a check of two
/// implementations.
#[inline]
pub(crate) fn replay(
    events: &[TimeMs],
    exec_ms: impl Fn(usize) -> TimeMs,
    mut serve: impl FnMut(TimeMs, Option<TimeMs>),
) -> Option<TimeMs> {
    let (&first, rest) = events.split_first()?;
    debug_assert!(events.windows(2).all(|w| w[0] <= w[1]), "events sorted");

    serve(first, None);
    let mut prev_end = first.saturating_add(exec_ms(0));

    for (i, &t) in rest.iter().enumerate() {
        let busy_until = t.saturating_add(exec_ms(i + 1));
        if t < prev_end {
            // Concurrent with the running execution: warm, no idle gap;
            // the busy period simply extends.
            prev_end = prev_end.max(busy_until);
            continue;
        }
        serve(t, Some(t - prev_end));
        prev_end = busy_until;
    }
    Some(prev_end)
}

impl AppSimResult {
    /// A result for a stream of `invocations` with nothing accounted
    /// yet: concurrent arrivals are invocations too, though no gap ends
    /// at them.
    pub(crate) fn new(invocations: usize) -> Self {
        Self {
            invocations: invocations as u64,
            ..Self::default()
        }
    }

    /// Accounts one closed gap.
    #[inline]
    pub(crate) fn add_gap(&mut self, gap: GapOutcome) {
        if gap.prewarm_load {
            self.prewarm_loads += 1;
            self.loads += 1;
        }
        if gap.cold {
            self.cold_starts += 1;
            self.loads += 1;
        }
        self.wasted_ms = self.wasted_ms.saturating_add(gap.wasted_ms);
    }

    /// Accounts the branch of one decision.
    #[inline]
    pub(crate) fn add_decision(&mut self, kind: DecisionKind) {
        if kind == DecisionKind::Arima {
            self.arima_decisions += 1;
            self.used_arima = true;
        }
    }

    /// Accounts the trailing window after the last execution ended at
    /// `prev_end`, under the `windows` left in force, clipped to the
    /// horizon.
    pub(crate) fn add_trailing(&mut self, windows: Windows, prev_end: TimeMs, horizon_ms: TimeMs) {
        let remaining = horizon_ms.saturating_sub(prev_end);
        if windows.pre_warm_ms == 0 {
            self.wasted_ms = self
                .wasted_ms
                .saturating_add(remaining.min(windows.keep_alive_ms));
        } else if remaining > windows.pre_warm_ms {
            self.prewarm_loads += 1;
            self.loads += 1;
            self.wasted_ms = self
                .wasted_ms
                .saturating_add((remaining - windows.pre_warm_ms).min(windows.keep_alive_ms));
        }
    }
}

/// Replays one application's invocation timestamps against a policy,
/// with the paper's conservative zero execution times
/// ([`simulate_app_with_exec`] with nothing to execute).
///
/// `horizon_ms` bounds the trailing keep-alive accounting: memory held
/// after the last invocation is wasted only up to the horizon.
pub fn simulate_app<P: AppPolicy + ?Sized>(
    events: &[TimeMs],
    horizon_ms: TimeMs,
    policy: &mut P,
) -> AppSimResult {
    fold_app(events, |_| 0, horizon_ms, policy)
}

/// Replays an application with **measured execution times**: each
/// invocation `i` busies the image for `exec_ms[i]`, so the idle time
/// fed to the policy is the gap between the previous execution's *end*
/// and the next arrival. An arrival while the previous execution is
/// still running is served warm by a concurrent container and does not
/// reset the idle clock (the <1% concurrency cold starts the paper
/// deliberately ignores, §2).
///
/// The zero-execution-time mode of [`simulate_app`] is the paper's
/// conservative default; this variant quantifies how much of the
/// "wasted" time is actually billable execution.
///
/// # Panics
///
/// Panics if `exec_ms.len() != events.len()`.
pub fn simulate_app_with_exec<P: AppPolicy + ?Sized>(
    events: &[TimeMs],
    exec_ms: &[TimeMs],
    horizon_ms: TimeMs,
    policy: &mut P,
) -> AppSimResult {
    assert_eq!(events.len(), exec_ms.len(), "one exec time per event");
    fold_app(events, |i| exec_ms[i], horizon_ms, policy)
}

/// Folds one replay into an [`AppSimResult`], then accounts the
/// trailing window after the last execution, clipped to the horizon.
// Inlined into its caller like the `simulate_app` body it replaced:
// left out of line, `sim-sweep` read 2–7 % fewer decisions/s in eleven
// of thirteen parent/change pairs; inlined, four pairs were flat.
#[inline]
fn fold_app<P: AppPolicy + ?Sized>(
    events: &[TimeMs],
    exec_ms: impl Fn(usize) -> TimeMs,
    horizon_ms: TimeMs,
    policy: &mut P,
) -> AppSimResult {
    let mut res = AppSimResult::new(events.len());
    // Read only once a gap closes, by then the policy's.
    let mut windows = Windows::NEVER_UNLOAD;
    let last = replay(events, exec_ms, |_, idle| {
        res.add_gap(classify(&windows, idle));
        windows = policy.on_invocation(idle);
        res.add_decision(policy.last_decision());
    });
    if let Some(prev_end) = last {
        res.add_trailing(windows, prev_end, horizon_ms);
    }
    res
}

/// Per-invocation outcome of an offline replay — exactly the record the
/// online serving daemon (`sitw_serve`) emits for a `POST /invoke`, so
/// online and offline runs can be compared element by element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationVerdict {
    /// Invocation timestamp.
    pub ts: TimeMs,
    /// The invocation found no loaded image.
    pub cold: bool,
    /// A pre-warm load happened in the gap that ended here.
    pub prewarm_load: bool,
    /// Which policy branch produced the windows governing the *next* gap.
    pub kind: DecisionKind,
    /// The windows the policy emitted after this invocation.
    pub windows: Windows,
}

/// Collects one zero-execution replay as a verdict stream; `decide`
/// observes one invocation and returns the next windows with the branch
/// that produced them.
fn trace(
    events: &[TimeMs],
    mut decide: impl FnMut(TimeMs, Option<TimeMs>) -> (Windows, DecisionKind),
) -> Vec<InvocationVerdict> {
    let mut out = Vec::with_capacity(events.len());
    let mut windows = Windows::NEVER_UNLOAD;
    replay(
        events,
        |_| 0,
        |ts, idle| {
            let gap = classify(&windows, idle);
            let kind;
            (windows, kind) = decide(ts, idle);
            out.push(InvocationVerdict {
                ts,
                cold: gap.cold,
                prewarm_load: gap.prewarm_load,
                kind,
                windows,
            });
        },
    );
    out
}

/// Replays one application's timestamps and returns the per-invocation
/// verdict stream.
///
/// Classification is [`simulate_app`]'s (one loop serves both); this
/// variant records each invocation instead of folding counters, and
/// skips the trailing horizon accounting (which has no per-invocation
/// analogue).
pub fn verdict_trace<P: AppPolicy + ?Sized>(
    events: &[TimeMs],
    policy: &mut P,
) -> Vec<InvocationVerdict> {
    trace(events, |_, idle| {
        let windows = policy.on_invocation(idle);
        (windows, policy.last_decision())
    })
}

/// Replays one application's timestamps through its
/// [`sitw_core::ProductionApp`] state, ticking the tenant's backup
/// clock in `manager`, and returns the per-invocation verdict stream —
/// the offline ground truth for a daemon serving in production mode.
///
/// Unlike [`verdict_trace`], which drives a per-app [`AppPolicy`] on
/// idle times alone, the production scheme is day-aware: `events` are
/// absolute trace timestamps and day boundaries fall exactly where the
/// daemon's do, so an online replay of the same `(app, ts)` stream is
/// bit-for-bit identical.
pub fn production_verdict_trace(
    events: &[TimeMs],
    manager: &mut sitw_core::ProductionManager,
    app: &mut sitw_core::ProductionApp,
) -> Vec<InvocationVerdict> {
    trace(events, |ts, idle| {
        manager.tick_backup(ts);
        app.on_invocation(manager.config(), ts, idle)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::{FixedKeepAlive, HybridConfig, NoUnloading, PolicyFactory, MINUTE_MS};

    const MIN: TimeMs = MINUTE_MS;

    #[test]
    fn empty_stream_is_all_zero() {
        let mut p = FixedKeepAlive::minutes(10);
        let r = simulate_app(&[], 100 * MIN, &mut p);
        assert_eq!(r, AppSimResult::default());
    }

    #[test]
    fn single_invocation_always_cold() {
        let mut p = FixedKeepAlive::minutes(10);
        let r = simulate_app(&[5 * MIN], 100 * MIN, &mut p);
        assert_eq!(r.invocations, 1);
        assert_eq!(r.cold_starts, 1);
        assert!(r.always_cold());
        // Trailing keep-alive: 10 minutes held after the only execution.
        assert_eq!(r.wasted_ms, 10 * MIN);
    }

    #[test]
    fn fixed_policy_warm_within_keep_alive() {
        let mut p = FixedKeepAlive::minutes(10);
        // Gaps: 5 min (warm), 10 min (warm, boundary), 11 min (cold).
        let events = [0, 5 * MIN, 15 * MIN, 26 * MIN];
        let r = simulate_app(&events, 26 * MIN, &mut p);
        assert_eq!(r.invocations, 4);
        assert_eq!(r.cold_starts, 2); // First + the 11-minute gap.
                                      // Waste: 5 + 10 (warm gaps) + 10 (expired keep-alive) + 0 tail
                                      // (horizon == last event).
        assert_eq!(r.wasted_ms, (5 + 10 + 10) * MIN);
    }

    #[test]
    fn no_unloading_only_first_cold() {
        let mut p = NoUnloading;
        let events = [0, 500 * MIN, 5_000 * MIN];
        let r = simulate_app(&events, 6_000 * MIN, &mut p);
        assert_eq!(r.cold_starts, 1);
        // Waste = entire idle time + tail to horizon.
        assert_eq!(r.wasted_ms, (500 + 4_500 + 1_000) * MIN);
    }

    #[test]
    fn prewarm_windows_warm_hit() {
        // Hand-built policy: constant pre-warm 8 min, keep-alive 4 min.
        struct Fixed2;
        impl AppPolicy for Fixed2 {
            fn on_invocation(&mut self, _: Option<u64>) -> sitw_core::Windows {
                sitw_core::Windows::pre_warmed(8 * MIN, 4 * MIN)
            }
            fn last_decision(&self) -> DecisionKind {
                DecisionKind::Static
            }
            fn name(&self) -> String {
                "fixed2".into()
            }
        }
        let mut p = Fixed2;
        // Gaps: 10 min (in [8,12] → warm, waste 2), 5 min (< 8 → cold,
        // waste 0), 20 min (> 12 → cold, waste 4).
        let events = [0, 10 * MIN, 15 * MIN, 35 * MIN];
        let r = simulate_app(&events, 35 * MIN, &mut p);
        assert_eq!(r.cold_starts, 1 + 2);
        assert_eq!(r.wasted_ms, (2 + 4) * MIN); // 2 + 0 + 4 minutes.
                                                // Pre-warm loads: the 10-min gap and the 20-min gap loaded.
        assert_eq!(r.prewarm_loads, 2);
        assert_eq!(r.loads, 1 + 2 + 2); // initial + 2 colds + 2 prewarms.
    }

    #[test]
    fn zero_gap_is_warm() {
        let mut p = FixedKeepAlive::minutes(0);
        let events = [10 * MIN, 10 * MIN, 10 * MIN];
        let r = simulate_app(&events, 20 * MIN, &mut p);
        // ka = 0: same-timestamp invocations stay warm, nothing else.
        assert_eq!(r.cold_starts, 1);
        assert_eq!(r.wasted_ms, 0);
    }

    #[test]
    fn trailing_prewarm_load_counted() {
        struct P;
        impl AppPolicy for P {
            fn on_invocation(&mut self, _: Option<u64>) -> sitw_core::Windows {
                sitw_core::Windows::pre_warmed(10 * MIN, 5 * MIN)
            }
            fn last_decision(&self) -> DecisionKind {
                DecisionKind::Static
            }
            fn name(&self) -> String {
                "p".into()
            }
        }
        // Horizon ends mid-keep-alive: 12 − 10 = 2 minutes wasted.
        let r = simulate_app(&[0], 12 * MIN, &mut P);
        assert_eq!(r.wasted_ms, 2 * MIN);
        assert_eq!(r.prewarm_loads, 1);

        // Horizon before the pre-warm: no load, no waste.
        let r = simulate_app(&[0], 9 * MIN, &mut P);
        assert_eq!(r.wasted_ms, 0);
        assert_eq!(r.prewarm_loads, 0);
    }

    #[test]
    fn conservation_cold_plus_warm_equals_invocations() {
        let mut p = HybridConfig::default().new_policy();
        let events: Vec<TimeMs> = (0..200).map(|i| i * 7 * MIN).collect();
        let r = simulate_app(&events, 1_500 * MIN, &mut p);
        assert_eq!(r.invocations, 200);
        assert!(r.cold_starts <= r.invocations);
    }

    #[test]
    fn hybrid_beats_fixed_on_periodic_app() {
        // App invoked every 30 minutes: fixed-10min is always cold,
        // hybrid learns the pattern and pre-warms.
        let events: Vec<TimeMs> = (0..100).map(|i| i * 30 * MIN).collect();
        let horizon = 100 * 30 * MIN;

        let mut fixed = FixedKeepAlive::minutes(10);
        let rf = simulate_app(&events, horizon, &mut fixed);
        assert_eq!(rf.cold_starts, 100, "fixed-10min misses every gap");

        let mut hybrid = HybridConfig::default().new_policy();
        let rh = simulate_app(&events, horizon, &mut hybrid);
        assert!(
            rh.cold_starts <= 10,
            "hybrid should learn the 30-minute period: {} colds",
            rh.cold_starts
        );
        // And the hybrid should also waste less memory than a no-unload.
        let mut nu = NoUnloading;
        let rn = simulate_app(&events, horizon, &mut nu);
        assert!(rh.wasted_ms < rn.wasted_ms);
    }

    #[test]
    fn rare_periodic_app_served_by_arima() {
        // 300-minute period exceeds the 240-minute histogram range.
        let events: Vec<TimeMs> = (0..30).map(|i| i * 300 * MIN).collect();
        let horizon = 30 * 300 * MIN;

        let mut hybrid = HybridConfig::default().new_policy();
        let rh = simulate_app(&events, horizon, &mut hybrid);
        assert!(rh.used_arima);
        assert!(
            rh.cold_starts < 15,
            "ARIMA should pre-warm most 300-minute gaps: {} colds",
            rh.cold_starts
        );

        let mut noarima = HybridConfig::default().without_arima().new_policy();
        let rn = simulate_app(&events, horizon, &mut noarima);
        assert!(!rn.used_arima);
        assert!(
            rn.cold_starts > rh.cold_starts,
            "without ARIMA: {} vs with: {}",
            rn.cold_starts,
            rh.cold_starts
        );
    }

    #[test]
    fn cold_pct_and_always_cold() {
        let r = AppSimResult {
            invocations: 4,
            cold_starts: 1,
            ..Default::default()
        };
        assert_eq!(r.cold_pct(), 25.0);
        assert!(!r.always_cold());
        let all = AppSimResult {
            invocations: 3,
            cold_starts: 3,
            ..Default::default()
        };
        assert!(all.always_cold());
        assert_eq!(AppSimResult::default().cold_pct(), 0.0);
    }

    #[test]
    fn with_exec_reduces_to_zero_exec_when_exec_is_zero() {
        let events: Vec<TimeMs> = (0..50).map(|i| i * 13 * MIN).collect();
        let zeros = vec![0; events.len()];
        let horizon = 700 * MIN;

        let mut a = HybridConfig::default().new_policy();
        let ra = simulate_app(&events, horizon, &mut a);
        let mut b = HybridConfig::default().new_policy();
        let rb = simulate_app_with_exec(&events, &zeros, horizon, &mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn with_exec_shortens_idle_times() {
        // 10-minute arrival gaps, 4-minute executions: idle time is 6
        // minutes, so a fixed 5-minute keep-alive misses (cold) while it
        // would catch a 6-minute one.
        let events: Vec<TimeMs> = (0..20).map(|i| i * 10 * MIN).collect();
        let execs = vec![4 * MIN; events.len()];
        let horizon = 220 * MIN;

        let mut p5 = FixedKeepAlive::minutes(5);
        let r5 = simulate_app_with_exec(&events, &execs, horizon, &mut p5);
        assert_eq!(r5.cold_starts, 20, "6-minute idles exceed 5-minute KA");

        let mut p6 = FixedKeepAlive::minutes(6);
        let r6 = simulate_app_with_exec(&events, &execs, horizon, &mut p6);
        assert_eq!(r6.cold_starts, 1, "6-minute idles fit a 6-minute KA");
        // Waste counts only the idle portion, not the busy 4 minutes.
        assert_eq!(r6.wasted_ms, 19 * 6 * MIN + 6 * MIN);
    }

    #[test]
    fn concurrent_arrivals_are_warm_and_extend_busy() {
        // Second arrival lands inside the first execution: warm, no
        // policy update; third arrival measures idle from the extended
        // busy end.
        let events = [0, 2 * MIN, 20 * MIN];
        let execs = [5 * MIN, 5 * MIN, MIN];
        let mut p = FixedKeepAlive::minutes(10);
        let r = simulate_app_with_exec(&events, &execs, 30 * MIN, &mut p);
        assert_eq!(r.invocations, 3);
        // Busy until max(0+5, 2+5) = 7 min; idle gap to t=20 is 13 min >
        // 10-minute KA: cold.
        assert_eq!(r.cold_starts, 2);
    }

    #[test]
    #[should_panic(expected = "one exec time per event")]
    fn with_exec_rejects_length_mismatch() {
        let mut p = FixedKeepAlive::minutes(10);
        let _ = simulate_app_with_exec(&[0, 1], &[0], 10, &mut p);
    }

    /// The three replays agree on one stream: `simulate_app` is
    /// `simulate_app_with_exec` at zero execution time, and its folded
    /// counters are the sums over `verdict_trace`'s per-invocation
    /// records.
    fn replays_agree(events: &[TimeMs], horizon: TimeMs, cfg: &HybridConfig) {
        let folded = simulate_app(events, horizon, &mut cfg.new_policy());
        let zeros = vec![0; events.len()];
        assert_eq!(
            folded,
            simulate_app_with_exec(events, &zeros, horizon, &mut cfg.new_policy())
        );

        let verdicts = verdict_trace(events, &mut cfg.new_policy());
        assert_eq!(verdicts.len() as u64, folded.invocations);
        assert_eq!(
            verdicts.iter().filter(|v| v.cold).count() as u64,
            folded.cold_starts
        );
        // Trailing-horizon pre-warm loads have no per-invocation record,
        // so the verdict sum can be at most one short.
        let prewarms = verdicts.iter().filter(|v| v.prewarm_load).count() as u64;
        assert!(folded.prewarm_loads - prewarms <= 1);
        assert_eq!(folded.loads, folded.cold_starts + folded.prewarm_loads);
        let arima = verdicts
            .iter()
            .filter(|v| v.kind == DecisionKind::Arima)
            .count() as u64;
        assert_eq!(arima, folded.arima_decisions);
        assert_eq!(folded.used_arima, arima > 0);
        if let Some(first) = verdicts.first() {
            assert!(first.cold, "first invocation is cold by definition");
        }
    }

    proptest::proptest! {
        /// Irregular gaps exercising the warm, cold, pre-warm and
        /// out-of-bounds branches of the hybrid policy: the fixed
        /// quadratic-residue stream this test started as (shape 0),
        /// rhythmic streams with jitter and repeated timestamps, streams
        /// mostly past the 4 h histogram range (ARIMA), and the empty and
        /// one-event streams, under horizons short of, at and past the
        /// last event.
        #[test]
        fn verdict_trace_matches_simulate_app_counters(
            shape in 0u64..4,
            gaps in proptest::prop::collection::vec(0u64..u64::MAX, 0..400),
            horizon_pick in 0u64..3,
            arima in 0u64..2,
        ) {
            let events: Vec<TimeMs> = match shape {
                0 => (0..300)
                    .map(|i| (i * i % 811) as TimeMs * MIN)
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect(),
                _ => {
                    let period = [7 * MIN, 30 * MIN, 290 * MIN][shape as usize - 1];
                    let mut t = 0;
                    gaps.iter()
                        .map(|g| {
                            t += match g % 8 {
                                0 => 0,
                                1 => g % (600 * MIN),
                                _ => period + (g >> 8) % (period / 8),
                            };
                            t
                        })
                        .collect()
                }
            };
            let last = events.last().copied().unwrap_or(0);
            let horizon = [last / 2, last, last + 500 * MIN][horizon_pick as usize];
            let cfg = match arima {
                0 => HybridConfig::default().without_arima(),
                _ => HybridConfig::default(),
            };
            replays_agree(&events, horizon, &cfg);
        }
    }

    use sitw_trace::{PopulationConfig, TraceConfig};

    /// FNV-1a over every field of every verdict, in population order.
    fn verdict_fingerprint(cfg: &HybridConfig) -> (u64, u64, u64) {
        population_fingerprint(
            cfg,
            &PopulationConfig {
                num_apps: 300,
                seed: 2323,
            },
            &TraceConfig {
                horizon_ms: 5 * sitw_trace::DAY_MS,
                cap_per_day: 400.0,
                seed: 23,
            },
        )
    }

    /// [`verdict_fingerprint`] over any population: (FNV, verdicts,
    /// ARIMA verdicts).
    fn population_fingerprint(
        cfg: &HybridConfig,
        population: &PopulationConfig,
        trace_cfg: &TraceConfig,
    ) -> (u64, u64, u64) {
        use sitw_trace::{app_invocations, build_population};
        let population = build_population(population);
        let (mut fnv, mut verdicts, mut arima) = (0xCBF2_9CE4_8422_2325u64, 0u64, 0u64);
        for app in &population.apps {
            let mut policy = cfg.new_policy();
            for v in verdict_trace(&app_invocations(app, trace_cfg), &mut policy) {
                let flags = (v.cold as u64) << 8 | (v.prewarm_load as u64) << 4 | v.kind as u64;
                for field in [v.ts, flags, v.windows.pre_warm_ms, v.windows.keep_alive_ms] {
                    for byte in field.to_le_bytes() {
                        fnv = (fnv ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
                verdicts += 1;
                arima += (v.kind == DecisionKind::Arima) as u64;
            }
        }
        (fnv, verdicts, arima)
    }

    #[test]
    fn hybrid_verdicts_equal_the_walk_and_shift_build() {
        // Captured from the commit before the hybrid policy read its
        // cutoffs off percentile cursors and kept its history as a ring:
        // simulator, fleet and daemon share the one policy, so parity
        // between them cannot see it change. These can.
        assert_eq!(
            verdict_fingerprint(&HybridConfig::default()),
            (GOLDEN_HYBRID, GOLDEN_VERDICTS, GOLDEN_ARIMA)
        );
        assert_eq!(
            verdict_fingerprint(&HybridConfig::default().without_arima()),
            (GOLDEN_NOARIMA, GOLDEN_VERDICTS, 0)
        );
    }

    const GOLDEN_HYBRID: u64 = 0x9830_6338_b4c7_5802;
    const GOLDEN_NOARIMA: u64 = 0xab4d_cda3_6df6_00ad;
    const GOLDEN_VERDICTS: u64 = 250_335;
    const GOLDEN_ARIMA: u64 = 205;

    /// The same fingerprint over the benchmark's `sim-sweep` input (4 000
    /// apps × 7 days, seed 1) under hybrid-4h, where ARIMA serves a few
    /// thousand decisions instead of a few hundred.
    #[test]
    #[ignore = "6.4 M decisions; run with --release"]
    fn every_sweep_verdict_equals_the_matrix_arima_build() {
        // Captured from the commit before the ARIMA fit accumulated its
        // normal equations straight from the idle-time history.
        let fingerprint = population_fingerprint(
            &HybridConfig::default(),
            &PopulationConfig {
                num_apps: 4_000,
                seed: 0x5171_7E57,
            },
            &TraceConfig {
                horizon_ms: 7 * sitw_trace::DAY_MS,
                cap_per_day: 600.0,
                seed: 1 ^ 0x10AD,
            },
        );
        assert_eq!(fingerprint, (0xea7d_92ca_df87_1e06, 6_409_810, 5_664));
    }

    #[test]
    fn verdict_trace_empty_stream() {
        let mut p = FixedKeepAlive::minutes(10);
        assert!(verdict_trace(&[], &mut p).is_empty());
        let cfg = sitw_core::ProductionConfig::default();
        let mut m = sitw_core::ProductionManager::new(cfg);
        let mut app = sitw_core::ProductionApp::new(&cfg);
        assert!(production_verdict_trace(&[], &mut m, &mut app).is_empty());
    }

    #[test]
    fn production_verdict_trace_uses_absolute_days() {
        use sitw_core::{DayHistogram, ProductionApp, ProductionConfig, ProductionManager};
        const DAY: TimeMs = 24 * 60 * MINUTE_MS;
        // Three days of a 30-minute pattern spanning day boundaries.
        let events: Vec<TimeMs> = (0..(3 * 48)).map(|i| i * 30 * MIN).collect();
        let cfg = ProductionConfig::default();
        let mut m = ProductionManager::new(cfg);
        let mut app = ProductionApp::new(&cfg);
        let verdicts = production_verdict_trace(&events, &mut m, &mut app);

        assert!(verdicts[0].cold, "first invocation cold by definition");
        assert_eq!(verdicts.len(), events.len());
        // Day boundaries fall at the absolute timestamps: one daily
        // histogram per trace day was retained.
        let state = app.export();
        assert_eq!(
            state.days.iter().map(|d| d.day).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(state.days.iter().all(|d: &DayHistogram| d.oob == 0));
        // The learned pattern keeps the steady 30-minute gaps warm.
        let tail = &verdicts[verdicts.len() / 2..];
        assert!(tail.iter().all(|v| !v.cold), "pattern learned by mid-trace");
        // Backups ticked along the 3-day clock.
        assert_eq!(m.backups_taken(), (3 * DAY - 30 * MIN) / 3_600_000);
    }

    #[test]
    fn longer_fixed_keep_alive_never_more_colds() {
        // Monotonicity: for the same stream, a longer fixed keep-alive
        // can only reduce cold starts.
        let events: Vec<TimeMs> = (0..300)
            .map(|i| (i * i % 997) as TimeMs * MIN)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let horizon = 1_000 * MIN;
        let mut prev_colds = u64::MAX;
        for ka in [5, 10, 20, 60, 120] {
            let mut p = FixedKeepAlive::minutes(ka);
            let r = simulate_app(&events, horizon, &mut p);
            assert!(
                r.cold_starts <= prev_colds,
                "ka={ka} increased colds: {} > {prev_colds}",
                r.cold_starts
            );
            prev_colds = r.cold_starts;
        }
    }
}
