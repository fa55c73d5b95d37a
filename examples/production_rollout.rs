//! Production-style histogram management (§6): daily histograms with
//! two-week retention, recency-weighted aggregation, hourly backups, and
//! pre-warm events scheduled 90 seconds early.
//!
//! Run with: `cargo run --release --example production_rollout`

#![forbid(unsafe_code)]

use serverless_in_the_wild::prelude::*;

const DAY: u64 = 24 * 60 * MINUTE_MS;

fn main() {
    // The tenant's half (configuration, backup clock) and the app's
    // (its daily histograms).
    let cfg = ProductionConfig::default();
    let mut manager = ProductionManager::new(cfg);
    let mut app = ProductionApp::new(&cfg);

    // An application whose pattern shifts after ten days: 30-minute idle
    // times become 90-minute idle times. Recency weighting lets the
    // aggregate follow the change faster than a flat histogram would.
    println!("day | recommended pre-warm / keep-alive (from weighted aggregate)");
    for day in 0..16u64 {
        let idle_min = if day < 10 { 30 } else { 90 };
        for k in 0..20u64 {
            let now = day * DAY + k * 60 * MINUTE_MS;
            app.record_idle_time(&cfg, now, idle_min * MINUTE_MS);
            manager.tick_backup(now);
        }
        let now = day * DAY + 23 * 60 * MINUTE_MS;
        if let Some(w) = app.windows(&cfg, now) {
            println!(
                "{day:>3} | pre-warm {:>5.1} min, keep-alive {:>5.1} min (true IT: {idle_min} min)",
                w.pre_warm_ms as f64 / MINUTE_MS as f64,
                w.keep_alive_ms as f64 / MINUTE_MS as f64,
            );
        }
    }

    // Pre-warm scheduling: the event fires 90 s before the window.
    let idle_from = 16 * DAY;
    if let Some(at_ms) = app.schedule_prewarm(&cfg, idle_from) {
        let w = app.windows(&cfg, idle_from).unwrap();
        println!(
            "\nidle at t={idle_from}ms → pre-warm window {:.1} min → event at t={} \
             (90 s early)",
            w.pre_warm_ms as f64 / MINUTE_MS as f64,
            at_ms
        );
    }

    println!(
        "\nbookkeeping: {} hourly backups taken; {} bytes persisted for this app \
         ({} retained daily histograms × 960 B, as in §6)",
        manager.backups_taken(),
        app.persisted_bytes(),
        app.persisted_bytes() / 960,
    );
}
