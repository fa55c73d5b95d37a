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

use proptest::prelude::*;
use sitw_core::{HybridConfig, PolicySpec, MINUTE_MS};
use sitw_fleet::{fnv1a, mix64, TenantRestore, TenantSpec, TenantState};
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
