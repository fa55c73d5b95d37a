//! `sitw-benchmark`: the command behind `benchmark/run`.
//!
//! ```text
//! sitw-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale F]
//! sitw-benchmark --selfcheck [--runs K] [--seconds S] [--workload NAME]
//! sitw-benchmark --print-benchmark-json
//! ```
//!
//! A run prints every metric by name with its unit and, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero when any
//! operation failed or the run could not be made.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use sitw_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sitw_benchmark::workloads::{self, RunConfig};
use sitw_benchmark::{report, selfcheck, sut};

const USAGE: &str = "usage: benchmark/run --workload json-direct|bin-batch|routed-fleet|sim-sweep \
--seed N --seconds S --trace 0|1 [--scale F]\n       benchmark/run --selfcheck [--runs K] [--seconds S] [--workload NAME]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    selfcheck: bool,
    runs: usize,
    print_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        selfcheck: false,
        runs: 5,
        print_json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let bad = |name: &str, v: &str| format!("bad value '{v}' for {name}");
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                a.seed = v.parse().map_err(|_| bad("--seed", &v))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("--seconds", &v))?;
            }
            "--trace" => {
                let v = value("--trace")?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace", &v)),
                };
            }
            "--scale" => {
                let v = value("--scale")?;
                a.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| bad("--scale", &v))?;
            }
            "--runs" => {
                let v = value("--runs")?;
                a.runs = v
                    .parse()
                    .ok()
                    .filter(|n: &usize| *n >= 2)
                    .ok_or_else(|| bad("--runs", &v))?;
            }
            "--selfcheck" => a.selfcheck = true,
            "--print-benchmark-json" => a.print_json = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = sut::require_release_build() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    // `benchmark/run` starts this from the checkout root.
    let out_dir = PathBuf::from("benchmark/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    if args.selfcheck {
        let names: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        };
        return match selfcheck::run(&names, args.runs, args.seconds, args.scale) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("selfcheck failed: {e}");
                ExitCode::from(2)
            }
        };
    }

    let Some(name) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(workload) = spec::workload(&name) else {
        eprintln!("unknown workload '{name}' (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        name: name.clone(),
        seed: args.seed,
        seconds: args.seconds * workloads::time_scale(args.scale),
        trace: args.trace,
        scale: args.scale,
        out_dir,
    };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    match workloads::run(&workload, &cfg) {
        Ok(result) => {
            print!("{}", report::human(&name, &result, set));
            println!("{}", report::json_line(&result, set));
            if report::correct(&result) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            // No result line: the run could not be made.
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
