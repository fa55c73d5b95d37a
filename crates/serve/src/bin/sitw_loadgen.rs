//! The `sitw-loadgen` trace replayer.
//!
//! ```text
//! sitw-loadgen --addr 127.0.0.1:7071 | --cluster HOST:PORT[,HOST:PORT...]
//!              [--apps 500] [--seed 42]
//!              [--horizon-hours 24] [--cap-per-day 2000]
//!              [--connections 2] [--window 64] [--max-events 0]
//!              [--proto json|bin|bin:batch=N] [--tenants N[:zipf=S]]
//!              [--trace-sample N] [--out FILE]
//! ```
//!
//! Generates the synthetic Azure-Functions-like workload of
//! `sitw_trace` and replays it at full speed against a running daemon,
//! each connection a closed loop of `--window` invocations in flight,
//! then prints sustained throughput and exact latency percentiles.
//! `--proto bin` speaks SITW-BIN frames (default batch 16) instead of
//! JSON-over-HTTP. `--tenants N[:zipf=S]` spreads the replayed apps
//! across N tenants `t0..tN-1` (optionally Zipf-skewed by rank) — the
//! server must have registered them (`sitw-serve --tenant` flags, or
//! `sitw-router --tenants N`) — and the summary adds one per-tenant
//! throughput/verdict-mix line. `--out FILE` additionally writes a
//! machine-readable JSON run summary (throughput, cold rate, exact
//! percentiles, and the full log2 RTT histogram — the same bucket
//! boundaries the server's `/metrics` histograms use).
//! `--trace-sample N` tags every Nth request (JSON) or frame
//! (SITW-BIN) with a client trace id; the sampled ids and their
//! per-trace RTTs land in the `--out` report's `traces` array so a
//! run can be cross-referenced against server and router
//! `/debug/trace` timelines.

#![forbid(unsafe_code)]

use std::net::ToSocketAddrs;
use std::process::exit;

use sitw_serve::{run_loadgen, LoadGenConfig, Proto};
use sitw_trace::HOUR_MS;

fn usage() -> ! {
    eprintln!(
        "usage: sitw-loadgen --addr HOST:PORT | --cluster HOST:PORT[,HOST:PORT...] \
         [--apps N] [--seed N] [--horizon-hours H] [--cap-per-day N] \
         [--connections N] [--window N] [--max-events N] \
         [--proto json|bin|bin:batch=N] [--tenants N[:zipf=S]] \
         [--trace-sample N] [--out FILE]"
    );
    exit(2)
}

fn main() {
    let mut cfg = LoadGenConfig::default();
    let mut addr_arg: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr_arg = Some(value("--addr")),
            "--cluster" => addr_arg = Some(value("--cluster")),
            "--apps" => cfg.apps = value("--apps").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--horizon-hours" => {
                let hours: u64 = value("--horizon-hours").parse().unwrap_or_else(|_| usage());
                cfg.horizon_ms = hours * HOUR_MS;
            }
            "--cap-per-day" => {
                cfg.cap_per_day = value("--cap-per-day").parse().unwrap_or_else(|_| usage());
            }
            "--connections" => {
                cfg.connections = value("--connections").parse().unwrap_or_else(|_| usage());
            }
            "--window" => cfg.window = value("--window").parse().unwrap_or_else(|_| usage()),
            "--max-events" => {
                cfg.max_events = value("--max-events").parse().unwrap_or_else(|_| usage());
            }
            "--tenants" => {
                let spec = value("--tenants");
                let (n, zipf) = match spec.split_once(":zipf=") {
                    Some((n, s)) => (
                        n.parse().unwrap_or_else(|_| usage()),
                        s.parse().unwrap_or_else(|_| usage()),
                    ),
                    None => (spec.parse().unwrap_or_else(|_| usage()), 0.0),
                };
                if n == 0 || n > u16::MAX as usize || zipf < 0.0 {
                    eprintln!("--tenants needs 1..=65535 tenants and zipf >= 0");
                    usage();
                }
                cfg.tenants = n;
                cfg.zipf = zipf;
            }
            "--proto" => match Proto::parse(&value("--proto")) {
                Ok(p) => cfg.proto = p,
                Err(e) => {
                    eprintln!("{e}");
                    usage();
                }
            },
            "--trace-sample" => {
                cfg.trace_sample = value("--trace-sample").parse().unwrap_or_else(|_| usage());
            }
            "--out" => out_path = Some(value("--out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    let Some(addr_str) = addr_arg else { usage() };
    // `--cluster A,B,C` spreads connections round-robin over several
    // targets; `--addr` is the single-target special case.
    let mut addrs = Vec::new();
    for part in addr_str.split(',') {
        match part.to_socket_addrs().map(|mut a| a.next()) {
            Ok(Some(addr)) => addrs.push(addr),
            _ => {
                eprintln!("cannot resolve '{part}'");
                exit(1);
            }
        }
    }

    println!(
        "replaying {} apps over {}h (cap {}/day) at max speed via {} connection(s), window {}, \
         proto {}{}",
        cfg.apps,
        cfg.horizon_ms / HOUR_MS,
        cfg.cap_per_day,
        cfg.connections,
        cfg.window,
        cfg.proto.label(),
        if cfg.tenants > 0 {
            format!(", {} tenant(s) zipf={}", cfg.tenants, cfg.zipf)
        } else {
            String::new()
        }
    );
    match run_loadgen(&addrs, &cfg) {
        Ok(report) => {
            println!("{}", report.summary());
            if let Some(path) = out_path {
                let json = report.to_json(&cfg.proto.label());
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write '{path}': {e}");
                    exit(1);
                }
                println!("run summary written to {path}");
            }
        }
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            exit(1);
        }
    }
}
