//! Policy playground: feed hand-crafted idle-time sequences to one
//! hybrid-policy instance and watch its decisions evolve — the
//! per-application view of §4.2 and Figure 10.
//!
//! Run with: `cargo run --release --example policy_playground`

#![forbid(unsafe_code)]

use serverless_in_the_wild::prelude::*;

fn show(policy: &mut HybridPolicy, name: &str, idle_times_min: &[u64]) {
    println!("\n--- {name} ---");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>18}",
        "step", "IT (min)", "pre-warm", "keep-alive", "decision"
    );
    let mut w = policy.on_invocation(None);
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>18?}",
        0,
        "-",
        fmt_min(w.pre_warm_ms),
        fmt_min(w.keep_alive_ms),
        policy.last_decision()
    );
    for (i, &it) in idle_times_min.iter().enumerate() {
        w = policy.on_invocation(Some(it * MINUTE_MS));
        // Print a sparse log: early steps and every 10th.
        if i < 3 || (i + 1) % 10 == 0 || i + 1 == idle_times_min.len() {
            println!(
                "{:>6} {:>10} {:>12} {:>12} {:>18?}",
                i + 1,
                it,
                fmt_min(w.pre_warm_ms),
                fmt_min(w.keep_alive_ms),
                policy.last_decision()
            );
        }
    }
    let d = policy.app().decisions();
    println!(
        "decisions: histogram {} | standard keep-alive {} | ARIMA {}",
        d.histogram, d.standard, d.arima
    );
}

fn fmt_min(ms: u64) -> String {
    if ms == u64::MAX {
        "inf".to_owned()
    } else {
        format!("{:.1}m", ms as f64 / MINUTE_MS as f64)
    }
}

fn main() {
    // 1. A sharply periodic app (cron-like, 10-minute period): the
    //    histogram concentrates and the policy unloads + pre-warms.
    let mut p = HybridConfig::default().new_policy();
    show(&mut p, "periodic every 10 minutes", &[10; 30]);

    // 2. Sub-minute chatter: idle times land in bin 0, so the policy
    //    keeps the app loaded with a tight keep-alive.
    let mut p = HybridConfig::default().new_policy();
    show(&mut p, "sub-minute chatter", &[0; 20]);

    // 3. Widely spread idle times: the bin-count CV stays low, so the
    //    policy stays conservative (standard keep-alive = histogram
    //    range).
    let mut p = HybridConfig::default().new_policy();
    let spread: Vec<u64> = (0..60).map(|i| (i * 37) % 239 + 1).collect();
    show(&mut p, "widely spread idle times", &spread);

    // 4. A rare IoT-style reporter with ~5 h idle times: out of the
    //    histogram's bounds, served by the ARIMA forecast with the
    //    paper's ±15% margin (5 h → pre-warm 4.25 h, keep-alive 1.5 h).
    let mut p = HybridConfig::default().new_policy();
    show(
        &mut p,
        "rare periodic (~300 min)",
        &[300, 302, 299, 301, 300, 298, 300, 301, 299, 300],
    );

    // 5. Regime change: 10-minute pattern shifts to 60 minutes; the
    //    histogram spreads (conservative) and then re-concentrates.
    let mut p = HybridConfig::default().new_policy();
    let mut regime: Vec<u64> = vec![10; 25];
    regime.extend(std::iter::repeat_n(60, 120));
    show(&mut p, "regime change 10 min → 60 min", &regime);
}
