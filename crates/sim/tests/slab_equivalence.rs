//! The tenant table — one row per app, a hybrid app's bins and history
//! in the table's columns — against two references: the per-app replay
//! (`sitw_sim::verdict_trace` over an owned `HybridPolicy`, the path the
//! simulators run) for every unbudgeted tenant, and fingerprints of the
//! same runs captured from the table it replaced, where every app's
//! state was its own heap blocks (`slab_runs_equal_the_parents`).
//!
//! A run merges two or three tenants — hybrid with history caps 0, 8 and
//! 64 and bin widths 1 and 5, now and then production or fixed, under
//! budgets from none to ones that evict on most charges — of 5 to 40
//! apps each, so tables cross their 16-row segment boundaries. Apps beat
//! on rhythms the histogram learns, past its range (ARIMA) and past a
//! day, with exact ties, late timestamps and jumps of days. Every tenant
//! is exported and restored at random points; the restored table must
//! answer and export as one that never was.
//!
//! A second property drives one hybrid tenant whose apps spread their
//! idle times over up to 120 bins — through every size class of the
//! table's sparse bins and into the dense form — with gaps of 2³² ms
//! and more, and apps restored from snapshots whose histories hold
//! values no whole millisecond gives (`sparse_classes_and_escapes_equal_per_app_replay`).

use proptest::prelude::*;
use sitw_core::{
    AppPolicy, DecisionCounts, DecisionKind, HybridConfig, HybridPolicy, HybridSnapshot,
    PolicyFactory, PolicySpec, Windows, MINUTE_MS,
};
use sitw_fleet::{
    fnv1a, mix64, AppRecord, PolicyState, ServedPolicy, TenantRestore, TenantSpec, TenantState,
};
use sitw_sim::verdict_trace;

/// Per-app rhythms: ones the hybrid histogram learns, one past its 4 h
/// range (out of bounds, ARIMA), one longer than a day.
const PERIODS_MS: [u64; 6] = [
    2 * MINUTE_MS,
    7 * MINUTE_MS,
    10 * MINUTE_MS,
    45 * MINUTE_MS,
    300 * MINUTE_MS,
    1_800 * MINUTE_MS,
];
/// Budgets in MB: unlimited, and three that bite harder or softer.
const BUDGETS_MB: [u64; 4] = [0, 150, 600, 2_000];

/// Tenant `t`'s spec, drawn from `pick`.
fn tenant_spec(t: u16, pick: &dyn Fn(u64, u64) -> u64) -> TenantSpec {
    let hybrid = |cap: usize, width: usize| {
        PolicySpec::Hybrid(HybridConfig {
            history_cap: cap,
            bin_width_minutes: width,
            ..HybridConfig::default()
        })
    };
    let policy = match pick(10 + u64::from(t), 8) {
        0 => hybrid(0, 1),
        1 => hybrid(8, 1),
        2 => hybrid(8, 5),
        3 => hybrid(64, 5),
        4 => PolicySpec::parse("production").unwrap(),
        5 => PolicySpec::parse("fixed:10").unwrap(),
        _ => hybrid(64, 1),
    };
    TenantSpec {
        id: t,
        name: format!("t{t}"),
        policy,
        budget_mb: BUDGETS_MB[pick(20 + u64::from(t), 4) as usize],
    }
}

/// The tenant's full state as a restore payload.
fn payload(t: &TenantState) -> TenantRestore {
    TenantRestore {
        spec: t.spec().clone(),
        apps: t.export_apps(|_| true),
        ledger: t.ledger().export(),
        prod_clock: t.production().map(|m| m.last_backup_ms()),
    }
}

/// Everything a tenant exports, as text.
fn export(t: &TenantState) -> String {
    let p = payload(t);
    format!("{:?} {:?} {:?}", p.apps, p.ledger, p.prod_clock)
}

/// Runs one merged stream drawn from `seed` and `words`, checking the
/// restored tables against their never-restored twins and the
/// unbudgeted hybrid tenants against the per-app replay, and returns a
/// fingerprint of every verdict, victim list and export of the twins.
fn run(seed: u64, words: &[u64]) -> u64 {
    let pick = |salt: u64, n: u64| mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n;
    let tenants = 2 + pick(1, 2) as usize;
    let specs: Vec<TenantSpec> = (0..tenants as u16).map(|t| tenant_spec(t, &pick)).collect();
    let apps: Vec<usize> = (0..tenants)
        .map(|t| 5 + pick(30 + t as u64, 36) as usize)
        .collect();
    let names: Vec<String> = (0..40).map(|a| format!("app-{a:02}")).collect();
    let period = |t: usize, a: usize| PERIODS_MS[pick(100 + (t * 64 + a) as u64, 6) as usize];
    let mut due: Vec<Vec<u64>> = (0..tenants)
        .map(|t| {
            (0..apps[t])
                .map(|a| pick(200 + (t * 64 + a) as u64, period(t, a)))
                .collect()
        })
        .collect();
    let mut accepted: Vec<Vec<Vec<u64>>> =
        (0..tenants).map(|t| vec![Vec::new(); apps[t]]).collect();
    let mut verdicts: Vec<Vec<Vec<String>>> =
        (0..tenants).map(|t| vec![Vec::new(); apps[t]]).collect();
    let mut live: Vec<TenantState> = specs.iter().cloned().map(TenantState::new).collect();
    let mut twin: Vec<TenantState> = specs.iter().cloned().map(TenantState::new).collect();
    let mut log = Vec::new();

    for (step, &w) in words.iter().enumerate() {
        let field = |salt: u64| mix64(w ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rt = (field(2) % tenants as u64) as usize;
        if field(7) % 24 == 0 {
            // Exported and restored mid-stream.
            let before = export(&live[rt]);
            live[rt] = TenantState::restore(payload(&live[rt]), step as u64)
                .unwrap_or_else(|e| panic!("step {step}: tenant {rt}: {e}"));
            assert_eq!(
                export(&live[rt]),
                before,
                "step {step}: a restore changed tenant {rt}"
            );
            log.push(export(&twin[rt]));
            continue;
        }
        let ra = (field(3) % apps[rt] as u64) as usize;
        let (t, a, ts) = match field(1) % 64 {
            // Late: before the app's last accepted timestamp.
            1..=2 => {
                let last = accepted[rt][ra].last().copied();
                (
                    rt,
                    ra,
                    last.map_or(0, |l| l.saturating_sub(1 + field(4) % 100_000)),
                )
            }
            // An exact tie with the last accepted timestamp.
            3..=5 => (
                rt,
                ra,
                accepted[rt][ra].last().copied().unwrap_or(due[rt][ra]),
            ),
            // Days pass for everyone.
            6 => {
                let jump = [360, 1_560, 4_400][(field(4) % 3) as usize] * MINUTE_MS;
                due.iter_mut().flatten().for_each(|d| *d += jump);
                continue;
            }
            // Whichever app is due first, mostly on the beat.
            _ => {
                let (t, a) = (0..tenants)
                    .flat_map(|t| (0..apps[t]).map(move |a| (t, a)))
                    .min_by_key(|&(t, a)| due[t][a])
                    .expect("apps");
                let ts = due[t][a];
                let p = period(t, a);
                due[t][a] = ts
                    + if field(5) % 16 == 0 {
                        0
                    } else {
                        p + field(6) % (p / 8)
                    };
                (t, a, ts)
            }
        };
        let got = live[t].step(&names[a], ts, step as u64).map(|s| {
            (
                s.verdict,
                s.victims.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            )
        });
        let want = twin[t].step(&names[a], ts, step as u64).map(|s| {
            (
                s.verdict,
                s.victims.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            )
        });
        assert_eq!(got, want, "step {step}: tenant {t} app {a} at {ts}");
        log.push(format!("{want:?}"));
        if let Ok((verdict, _)) = want {
            accepted[t][a].push(ts);
            verdicts[t][a].push(format!(
                "{} {} {:?} {:?}",
                verdict.cold, verdict.prewarm_load, verdict.kind, verdict.windows
            ));
        }
    }

    for t in 0..tenants {
        assert_eq!(export(&live[t]), export(&twin[t]), "tenant {t} at the end");
        log.push(export(&twin[t]));
        // An unbudgeted hybrid tenant is its apps' replays side by side.
        if specs[t].budget_mb != 0 || !matches!(specs[t].policy, PolicySpec::Hybrid(_)) {
            continue;
        }
        for a in 0..apps[t] {
            let mut policy = specs[t].policy.new_policy();
            let replay: Vec<String> = verdict_trace(&accepted[t][a], policy.as_mut())
                .iter()
                .map(|v| format!("{} {} {:?} {:?}", v.cold, v.prewarm_load, v.kind, v.windows))
                .collect();
            assert_eq!(verdicts[t][a], replay, "tenant {t} app {a}");
        }
    }
    fnv1a(log.join("\n").as_bytes())
}

proptest! {
    /// Random merged streams through the table, restored at random
    /// points: the restored table answers and exports as its twin, and
    /// each unbudgeted hybrid tenant's verdicts are its apps' replays.
    #[test]
    fn slab_equals_per_app_replay_and_its_twin(
        seed in 0u64..u64::MAX,
        words in prop::collection::vec(0u64..u64::MAX, 300..1_200),
    ) {
        run(seed, &words);
    }
}

/// Fingerprints of twelve fixed runs, captured from the table whose
/// apps held their state in heap blocks of their own (`496ee3f`).
const PARENT_FINGERPRINTS: [u64; 12] = [
    0x70e0_ce19_ce7f_ccec,
    0x31ec_5846_b8dd_8fa3,
    0x28da_aa02_cd02_d645,
    0xb34f_400b_2552_d3fe,
    0xdd87_6569_3573_ae32,
    0x3965_245c_2ba2_3a93,
    0x461c_fe5d_3bf1_0a15,
    0x7643_43c6_882f_67c3,
    0x27af_35f2_5a29_1acc,
    0xa229_751d_6430_23a3,
    0xe9ba_85aa_35c1_b33e,
    0x163f_4c5e_6ea9_d2a5,
];

#[test]
fn slab_runs_equal_the_parents() {
    let fingerprints: Vec<u64> = (0..12u64)
        .map(|seed| {
            let words: Vec<u64> = (0..900).map(|i| mix64(seed << 32 | i)).collect();
            run(mix64(seed), &words)
        })
        .collect();
    let text: Vec<String> = fingerprints.iter().map(|f| format!("{f:#018x}")).collect();
    assert_eq!(fingerprints, PARENT_FINGERPRINTS, "[{}]", text.join(", "));
}

/// Hybrid configurations whose tables keep every sparse class (4 h of
/// one-minute bins), fewer of them (1 h, and 4 h of five-minute bins),
/// and short and full histories.
fn spread_config(pick: u64) -> HybridConfig {
    let (range, width, cap) =
        [(240, 1, 64), (240, 1, 8), (60, 1, 64), (240, 5, 16)][pick as usize % 4];
    HybridConfig {
        range_minutes: range,
        bin_width_minutes: width,
        history_cap: cap,
        ..HybridConfig::default()
    }
}

/// History values a snapshot may carry that are no whole number of
/// milliseconds below `u32::MAX` (0.123 is one: 7 380 ms to the bit).
const ODD_VALUES: [f64; 7] = [
    0.123,
    0.123_456_7,
    1e300,
    -f64::MAX,
    -0.0,
    71_582.788_25,
    3.5e-310,
];

/// A snapshot for `cfg`: bins spread over `spread` bins (some full), an
/// out-of-bounds count and a history of whole milliseconds and
/// `ODD_VALUES`.
fn odd_snapshot(cfg: &HybridConfig, spread: u64, draw: &dyn Fn(u64, u64) -> u64) -> HybridSnapshot {
    let (num_bins, _, cap) = cfg.state_key();
    let mut bins = vec![0u32; num_bins];
    for k in 0..spread {
        let bin = (draw(300 + k, num_bins as u64)) as usize;
        bins[bin] = match draw(400 + k, 8) {
            0 => u32::MAX,
            c => c as u32,
        };
    }
    let len = draw(500, cap as u64 + 1) as usize;
    let history = (0..len as u64)
        .map(|k| match draw(600 + k, 3) {
            0 => ODD_VALUES[draw(700 + k, ODD_VALUES.len() as u64) as usize],
            _ => sitw_core::idle_minutes(draw(800 + k, 400 * MINUTE_MS)),
        })
        .collect();
    HybridSnapshot {
        bins,
        oob_count: draw(900, 40),
        history,
        counts: DecisionCounts::default(),
        last_decision: DecisionKind::StandardKeepAlive,
    }
}

/// What an app's snapshot holds, with its history as bits: equal keys
/// are byte-identical exports, NaN and negative zero included.
fn snapshot_key(s: &HybridSnapshot) -> (Vec<u32>, u64, Vec<u64>, DecisionCounts, DecisionKind) {
    let history = s.history.iter().map(|v| v.to_bits()).collect();
    (
        s.bins.clone(),
        s.oob_count,
        history,
        s.counts,
        s.last_decision,
    )
}

/// One hybrid tenant of 3 to 10 apps against each app's own
/// `HybridPolicy`: apps spread their idle times over 1 to 120 bins, so
/// their bins cross every sparse class and the dense promotion; gaps of
/// 2³² ms and more (and exactly `u32::MAX` ms) now and then; some apps
/// restored from a snapshot holding full bins and `ODD_VALUES` in their
/// history; the tenant exported and restored at random points. After
/// every step the windows, the branch and the app's exported state equal
/// the per-app replay's, bit for bit.
fn spread_run(seed: u64, words: &[u64]) {
    let draw = |salt: u64, n: u64| mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n;
    let cfg = spread_config(draw(1, 4));
    let spec = TenantSpec {
        id: 1,
        name: "t1".into(),
        policy: PolicySpec::Hybrid(cfg.clone()),
        budget_mb: 0,
    };
    let apps = 3 + draw(2, 8) as usize;
    let names: Vec<String> = (0..apps).map(|a| format!("app-{a:02}")).collect();
    const SPREADS: [u64; 8] = [1, 3, 5, 9, 17, 33, 65, 120];
    let spread: Vec<u64> = (0..apps)
        .map(|a| SPREADS[draw(10 + a as u64, 8) as usize])
        .collect();
    let mut policies: Vec<Option<HybridPolicy>> = vec![None; apps];
    let mut ts = vec![0u64; apps];
    let mut records = Vec::new();
    for a in 0..apps {
        if draw(20 + a as u64, 3) == 0 {
            let per_app = |salt: u64, n: u64| draw(salt ^ (a as u64) << 40, n);
            let snap = odd_snapshot(&cfg, spread[a], &per_app);
            ts[a] = 1_000 + a as u64;
            records.push(AppRecord {
                app: names[a].clone(),
                last_ts: ts[a],
                windows: Windows::keep_loaded(0),
                evicted: false,
                state: PolicyState::Hybrid(snap.clone()),
            });
            policies[a] = Some(HybridPolicy::from_snapshot(&cfg, snap).expect("fits its config"));
        }
    }
    let mut tenant = TenantState::restore(
        TenantRestore {
            apps: records,
            ..TenantRestore::fresh(spec)
        },
        0,
    )
    .expect("a payload of fitting records");
    let mut beats = vec![0u64; apps];
    for (step, &w) in words.iter().enumerate() {
        let field = |salt: u64| mix64(w ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if field(7) % 32 == 0 {
            let before = payload(&tenant);
            tenant = TenantState::restore(payload(&tenant), step as u64)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            for (b, a) in before.apps.iter().zip(&payload(&tenant).apps) {
                let (PolicyState::Hybrid(bs), PolicyState::Hybrid(as_)) = (&b.state, &a.state)
                else {
                    panic!("a hybrid tenant's record");
                };
                assert_eq!(
                    snapshot_key(bs),
                    snapshot_key(as_),
                    "step {step}: a restore changed {}",
                    b.app
                );
            }
            continue;
        }
        let a = (field(3) % apps as u64) as usize;
        let idle = match field(1) % 32 {
            0 | 1 => (1 << 32) + field(4) % (1 << 36),
            2 => u64::from(u32::MAX),
            3 => 300 * MINUTE_MS + field(4) % MINUTE_MS,
            _ => {
                beats[a] += 1;
                let bins = cfg.range_minutes as u64;
                let minute = beats[a] % spread[a] * (bins / spread[a].min(bins)) % bins;
                minute * MINUTE_MS + field(4) % MINUTE_MS
            }
        };
        let (got, want) = match &mut policies[a] {
            // First sight: the policy's first decision, at the app's
            // first timestamp.
            None => {
                let mut policy = cfg.new_policy();
                let want = (policy.on_invocation(None), policy.last_decision());
                policies[a] = Some(policy);
                let v = tenant
                    .step(&names[a], ts[a], step as u64)
                    .expect("in order")
                    .verdict;
                ((v.windows, v.kind), want)
            }
            Some(policy) => {
                ts[a] += idle;
                let want = (policy.on_invocation(Some(idle)), policy.last_decision());
                let v = tenant
                    .step(&names[a], ts[a], step as u64)
                    .expect("in order")
                    .verdict;
                ((v.windows, v.kind), want)
            }
        };
        assert_eq!(got, want, "step {step}: app {a} after {idle} ms");
        let Some(view) = tenant.app(&names[a]) else {
            panic!("app {a} has a row");
        };
        let ServedPolicy::Hybrid(h) = view.policy else {
            panic!("a hybrid app");
        };
        let replay = policies[a].as_ref().expect("made above").app().snapshot();
        assert_eq!(
            snapshot_key(&h.snapshot()),
            snapshot_key(&replay),
            "step {step}: app {a}"
        );
    }
}

proptest! {
    /// See `spread_run`.
    #[test]
    fn sparse_classes_and_escapes_equal_per_app_replay(
        seed in 0u64..u64::MAX,
        words in prop::collection::vec(0u64..u64::MAX, 200..900),
    ) {
        spread_run(seed, &words);
    }
}
