//! The production policy's cursors against its definition on the
//! benchmark's own input: every decision the `sim-sweep` population
//! (4 000 apps × 7 days, seeds 1 and 3) asks of the production spec,
//! read off certified head/tail cursors or their seek, must equal
//! `ProductionApp::windows`, the from-scratch fold and walk.

use sitw_core::{
    AppPolicy, DecisionKind, PolicyFactory, ProductionApp, ProductionConfig, Windows, MINUTE_MS,
};
use sitw_trace::{app_invocations, build_population, PopulationConfig, TraceConfig, DAY_MS};

#[test]
#[ignore = "2 × 6.4 M decisions against the O(days × bins) definition; run with --release"]
fn every_production_decision_equals_the_definition() {
    let population = build_population(&PopulationConfig {
        num_apps: 4_000,
        seed: 0x5171_7E57,
    });
    let cfg = ProductionConfig::default();
    for seed in [1u64, 3] {
        let trace_cfg = TraceConfig {
            horizon_ms: 7 * DAY_MS,
            cap_per_day: 600.0,
            seed: seed ^ 0x10AD,
        };
        let (mut decisions, mut histogram) = (0u64, 0u64);
        for app in &population.apps {
            // The sweep's lane: the policy on idle times alone, its clock
            // the sum of them. The app beside it runs on the same clock.
            let mut policy = cfg.new_policy();
            let mut state = ProductionApp::new(&cfg);
            let (mut prev, mut now) = (None, 0);
            for t in app_invocations(app, &trace_cfg) {
                let idle = prev.map(|at| t - at);
                now += idle.unwrap_or(0);
                let got = state.on_invocation(&cfg, now, idle);
                let want = match state.windows(&cfg, now) {
                    Some(w) => (w, DecisionKind::Histogram),
                    None => (
                        Windows::keep_loaded(cfg.range_minutes as u64 * MINUTE_MS),
                        DecisionKind::StandardKeepAlive,
                    ),
                };
                assert_eq!(got, want, "seed {seed}, app {}, t {t}", app.id);
                assert_eq!(policy.on_invocation(idle), got.0, "app {}", app.id);
                assert_eq!(policy.last_decision(), got.1);
                histogram += (got.1 == DecisionKind::Histogram) as u64;
                decisions += 1;
                prev = Some(t);
            }
        }
        println!("seed {seed}: {decisions} decisions, {histogram} from the histogram");
        assert!(histogram * 2 > decisions, "the cursors were exercised");
    }
}
