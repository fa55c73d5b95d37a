//! Parent-captured golden of the generated invocation streams.
//!
//! Every stream the generator produces is fingerprinted per archetype:
//! its event count and an FNV-1a hash over each app's stream length and
//! timestamps (little-endian `u64`s, apps in population order). The
//! fixture `golden/streams.txt` was captured from the plain thinning
//! loops (one `load_shape` per candidate, the streams sorted after
//! generation); the squeeze-bounded thinning and the merged timer
//! sequences must reproduce it bit for bit. The streams are read from
//! `generate_trace`, so the golden holds its multi-threaded materializer
//! (the generator's unit tests hold that to the per-app
//! `app_invocations`). On a mismatch the assertion prints the lines this
//! build computes.

use sitw_trace::{build_population, generate_trace, PopulationConfig, TraceConfig, DAY_MS};

/// The population seed of the sweep benchmark's input builder.
const POPULATION_SEED: u64 = 0x5171_7E57;
const LABELS: [&str; 6] = [
    "timers",
    "poisson",
    "diurnal",
    "bursty",
    "rare-periodic",
    "mixed",
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One line per archetype: `case trace_seed archetype apps events fnv`.
fn fingerprint(case: &str, num_apps: usize, trace_seed: u64) -> String {
    let population = build_population(&PopulationConfig {
        num_apps,
        seed: POPULATION_SEED,
    });
    let cfg = TraceConfig {
        horizon_ms: 7 * DAY_MS,
        cap_per_day: 600.0,
        seed: trace_seed,
    };
    let mut apps = [0u64; LABELS.len()];
    let mut events = [0u64; LABELS.len()];
    let mut hashes: Vec<Fnv> = LABELS.iter().map(|_| Fnv::new()).collect();
    for app in &generate_trace(&population, &cfg).apps {
        let k = LABELS
            .iter()
            .position(|&l| l == app.profile.archetype.label())
            .expect("known archetype");
        let stream = &app.invocations;
        apps[k] += 1;
        events[k] += stream.len() as u64;
        hashes[k].word(stream.len() as u64);
        for &t in stream {
            hashes[k].word(t);
        }
    }
    let mut out = String::new();
    for (k, label) in LABELS.iter().enumerate() {
        out.push_str(&format!(
            "{case} {trace_seed} {label} {} {} {:016x}\n",
            apps[k], events[k], hashes[k].0
        ));
    }
    out
}

fn expected(case: &str) -> String {
    include_str!("golden/streams.txt")
        .lines()
        .filter(|l| l.split(' ').next() == Some(case))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn streams_of_a_thousand_apps_match_the_golden() {
    let got: String = [1, 3]
        .iter()
        .map(|&s| fingerprint("apps1000", 1_000, s))
        .collect();
    assert_eq!(got, expected("apps1000"), "computed:\n{got}");
}

/// The whole `sim-sweep` population: 4 000 apps, 7 days, cap 600, trace
/// seeds `s ^ 0x10AD` for benchmark seeds 1 and 3 (6.41 M events per
/// seed). Run with `--release -- --ignored`.
#[test]
#[ignore]
fn streams_of_the_sweep_population_match_the_golden() {
    let got: String = [1u64, 3]
        .iter()
        .map(|&s| fingerprint("sweep", 4_000, s ^ 0x10AD))
        .collect();
    assert_eq!(got, expected("sweep"), "computed:\n{got}");
}
