//! The `sitw-serve` daemon.
//!
//! ```text
//! sitw-serve [--addr 127.0.0.1:7071] [--shards 4] [--policy hybrid]
//!            [--reactor-threads 2] [--idle-timeout-ms 10000]
//!            [--tenant NAME=POLICY[,budget=MB]]... [--tenants N]
//!            [--tenants-file PATH]
//!            [--snapshot PATH] [--restore PATH] [--no-telemetry]
//!            [--follow PRIMARY_ADDR] [--serve-addr HOST:PORT]
//!            [--repl-interval-ms 100] [--auto-promote-ms N]
//! ```
//!
//! `--no-telemetry` disables the flight recorder and per-stage latency
//! histograms (`/metrics` keeps its throughput counters; the
//! `/debug/*` endpoints come back empty). The default-on overhead is a
//! few clock reads per request; disable only to measure it.
//!
//! `--reactor-threads` sizes the epoll event-loop pool that multiplexes
//! every client connection (a handful of threads serves thousands of
//! mostly idle keep-alive connections; `--shards` sets decision
//! throughput). `--idle-timeout-ms` bounds how long a *half-received*
//! message may stall before the connection is dropped (slowloris
//! defense); fully idle keep-alive connections are never timed out.
//!
//! Policies: `hybrid` (paper defaults), `hybrid:<hours>h` (histogram
//! range), `fixed:<minutes>` (fixed keep-alive), `no-unloading`, and
//! `production` — the §6 production-manager scheme (daily histograms,
//! two-week retention, recency-weighted aggregation, pre-warms 90 s
//! early, hourly backup accounting). Variants: `production:<days>d`
//! (retention), `production:<decay>` (per-day exponential decay, e.g.
//! `production:0.5`), `production:uniform` (no recency weighting).
//!
//! Fleet mode: `--tenant acme=hybrid,budget=4096` registers a tenant
//! with its own policy and keep-alive memory budget (MB; omit for
//! unlimited); repeatable. `--tenants N` is shorthand for N tenants
//! `t0..tN-1` under the global policy (matching `sitw-loadgen
//! --tenants N`). `--tenants-file` reads `tenant <name> <policy>
//! [budget <MB>]` lines. More tenants can be added at runtime via
//! `POST /admin/tenants`.
//!
//! Follower mode: `--follow PRIMARY_ADDR` starts a warm standby instead
//! of a serving daemon — no shards, no decisions; it pulls the primary's
//! replication stream every `--repl-interval-ms` and answers `/healthz`
//! (with replication lag), `/metrics`, `/debug/events`,
//! `POST /admin/promote`, and `POST /admin/shutdown` on `--addr`.
//! Promotion starts a full server on `--serve-addr` (default port 0;
//! the promote response reports the bound address) restored from the
//! replicated state. `--auto-promote-ms N` additionally promotes
//! without an operator once the primary has been unreachable for N ms.
//! The policy/tenant flags describe the *primary's* configuration so
//! the promoted server restores into matching shards.
//!
//! The daemon runs until `POST /admin/shutdown`; with `--snapshot` it
//! writes its final state there on the way out (and on every
//! `POST /admin/snapshot`).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::exit;

use sitw_fleet::registry::{parse_tenant_arg, parse_tenants_file};
use sitw_serve::{FollowConfig, Follower, ServeConfig, Server, TenantConfig};
use sitw_sim::PolicySpec;

/// The CLI policy grammar is [`PolicySpec::parse`] — one grammar for
/// `--policy`, `--tenant`, tenants files, admin bodies, and snapshots.
fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    PolicySpec::parse(s).map_err(|e| e.to_string())
}

fn usage() -> ! {
    eprintln!(
        "usage: sitw-serve [--addr HOST:PORT] [--shards N] \
         [--reactor-threads N] [--idle-timeout-ms N] \
         [--policy hybrid|hybrid:<h>h|fixed:<min>|no-unloading|\
         production[:<days>d|:<decay>|:uniform]] \
         [--tenant NAME=POLICY[,budget=MB]]... [--tenants N] \
         [--tenants-file PATH] [--snapshot PATH] [--restore PATH] \
         [--no-telemetry] [--follow PRIMARY_ADDR] [--serve-addr HOST:PORT] \
         [--repl-interval-ms N] [--auto-promote-ms N]"
    );
    exit(2)
}

fn main() {
    let mut cfg = ServeConfig::default();
    // `--tenants N` expands after parsing so it picks up `--policy`
    // regardless of flag order.
    let mut tenants_shorthand = 0usize;
    let mut follow_primary: Option<String> = None;
    let mut serve_addr = "127.0.0.1:0".to_owned();
    let mut repl_interval = std::time::Duration::from_millis(100);
    let mut auto_promote: Option<std::time::Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--shards" => {
                cfg.shards = value("--shards").parse().unwrap_or_else(|_| usage());
            }
            "--reactor-threads" => {
                cfg.reactor_threads = value("--reactor-threads")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value("--idle-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                cfg.idle_timeout = std::time::Duration::from_millis(ms);
            }
            "--policy" => {
                let spec = value("--policy");
                match parse_policy(&spec) {
                    Ok(p) => cfg.policy = p,
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                    }
                }
            }
            "--tenant" => {
                let arg = value("--tenant");
                match parse_tenant_arg(&arg) {
                    Ok((name, policy, budget_mb)) => cfg.tenants.push(TenantConfig {
                        name,
                        policy,
                        budget_mb,
                    }),
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                    }
                }
            }
            "--tenants" => {
                tenants_shorthand = value("--tenants").parse().unwrap_or_else(|_| usage());
            }
            "--tenants-file" => {
                let path = value("--tenants-file");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read '{path}': {e}");
                    exit(1);
                });
                match parse_tenants_file(&text) {
                    Ok(entries) => {
                        for (name, policy, budget_mb) in entries {
                            cfg.tenants.push(TenantConfig {
                                name,
                                policy,
                                budget_mb,
                            });
                        }
                    }
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        exit(1);
                    }
                }
            }
            "--snapshot" => cfg.snapshot_path = Some(PathBuf::from(value("--snapshot"))),
            "--restore" => cfg.restore_path = Some(PathBuf::from(value("--restore"))),
            "--no-telemetry" => cfg.telemetry = false,
            "--follow" => follow_primary = Some(value("--follow")),
            "--serve-addr" => serve_addr = value("--serve-addr"),
            "--repl-interval-ms" => {
                let ms: u64 = value("--repl-interval-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                repl_interval = std::time::Duration::from_millis(ms);
            }
            "--auto-promote-ms" => {
                let ms: u64 = value("--auto-promote-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                auto_promote = Some(std::time::Duration::from_millis(ms));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }

    for k in 0..tenants_shorthand {
        cfg.tenants.push(TenantConfig {
            name: format!("t{k}"),
            policy: cfg.policy.clone(),
            budget_mb: 0,
        });
    }

    if let Some(primary) = follow_primary {
        run_follower(cfg, primary, serve_addr, repl_interval, auto_promote);
        return;
    }

    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start: {e}");
            exit(1);
        }
    };
    println!(
        "sitw-serve listening on {} | policy {} | {} shards | {} reactor thread(s) | {} tenant(s){}",
        server.addr(),
        cfg.policy.label(),
        cfg.shards,
        cfg.reactor_threads,
        cfg.tenants.len() + 1,
        cfg.snapshot_path
            .as_ref()
            .map(|p| format!(" | snapshot {}", p.display()))
            .unwrap_or_default()
    );
    for t in &cfg.tenants {
        println!(
            "  tenant {} | policy {} | budget {}",
            t.name,
            t.policy.label(),
            if t.budget_mb == 0 {
                "unlimited".to_owned()
            } else {
                format!("{} MB", t.budget_mb)
            }
        );
    }
    println!(
        "endpoints: POST /invoke, GET /metrics, GET /healthz, \
         GET /debug/trace, GET /debug/threads, \
         GET|POST /admin/tenants, POST /admin/snapshot, POST /admin/shutdown"
    );

    server.wait();
    match server.shutdown() {
        Ok(snapshot) => {
            println!("stopped; {} apps in final state", snapshot.apps.len());
        }
        Err(e) => {
            eprintln!("shutdown error: {e}");
            exit(1);
        }
    }
}

/// Warm-standby mode: the parsed `ServeConfig` describes the primary's
/// shape (policy, shards, tenants) and doubles as the promotion
/// template; only its bind address moves to `--serve-addr`.
fn run_follower(
    cfg: ServeConfig,
    primary: String,
    serve_addr: String,
    pull_interval: std::time::Duration,
    auto_promote_after: Option<std::time::Duration>,
) {
    let follow_cfg = FollowConfig {
        addr: cfg.addr.clone(),
        primary_addr: primary,
        pull_interval,
        auto_promote_after,
        serve: ServeConfig {
            addr: serve_addr,
            ..cfg
        },
        ..FollowConfig::default()
    };
    let follower = match Follower::start(follow_cfg.clone()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("failed to start follower: {e}");
            exit(1);
        }
    };
    println!(
        "sitw-serve following {} | control on {} | pull every {}ms{}",
        follow_cfg.primary_addr,
        follower.addr(),
        follow_cfg.pull_interval.as_millis(),
        follow_cfg
            .auto_promote_after
            .map(|d| format!(" | auto-promote after {}ms", d.as_millis()))
            .unwrap_or_default()
    );
    println!(
        "endpoints: GET /healthz, GET /metrics, GET /debug/events, \
         POST /admin/promote, POST /admin/shutdown"
    );
    follower.wait();
    match follower.shutdown() {
        Ok(snapshot) => {
            println!(
                "stopped; {} apps in replica",
                snapshot.map_or(0, |s| s.apps.len())
            );
        }
        Err(e) => {
            eprintln!("shutdown error: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_policy_production_variants() {
        assert_eq!(
            parse_policy("production").unwrap().label(),
            "production-240m-14d[5,99]exp0.85"
        );
        assert_eq!(
            parse_policy("production:7d").unwrap().label(),
            "production-240m-7d[5,99]exp0.85"
        );
        assert_eq!(
            parse_policy("production:0.5").unwrap().label(),
            "production-240m-14d[5,99]exp0.5"
        );
        assert_eq!(
            parse_policy("production:uniform").unwrap().label(),
            "production-240m-14d[5,99]uni"
        );
        assert!(parse_policy("production:nope").is_err());
        assert!(parse_policy("production:1.5").is_err());
        assert!(parse_policy("production:0").is_err());
        assert!(
            parse_policy("production:0d").is_err(),
            "zero retention would never learn"
        );
    }

    #[test]
    fn parse_policy_existing_forms_unchanged() {
        assert_eq!(
            parse_policy("hybrid").unwrap().label(),
            "hybrid-4h[5,99]cv2"
        );
        assert_eq!(parse_policy("fixed:10").unwrap().label(), "fixed-10min");
        assert_eq!(
            parse_policy("no-unloading").unwrap().label(),
            "no-unloading"
        );
        assert!(parse_policy("bogus").is_err());
    }
}
