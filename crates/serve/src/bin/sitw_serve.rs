//! The `sitw-serve` daemon.
//!
//! ```text
//! sitw-serve [--addr 127.0.0.1:7071] [--shards 4] [--policy hybrid]
//!            [--reactor-threads 2] [--idle-timeout-ms 10000]
//!            [--tenant NAME=POLICY[,budget=MB]]...
//!            [--snapshot PATH] [--restore PATH] [--no-telemetry]
//!            [--follow PRIMARY_ADDR] [--repl-interval-ms 100]
//! ```
//!
//! `--no-telemetry` disables the flight recorder and per-stage latency
//! histograms (`/metrics` keeps its throughput counters; the
//! `/debug/*` endpoints come back empty). The default-on overhead is a
//! few clock reads per request; disable only to measure it.
//!
//! `--reactor-threads` sizes the epoll event-loop pool that multiplexes
//! every client connection and decides its requests (a handful of
//! threads serves thousands of mostly idle keep-alive connections, and
//! sets how many cores decide at once); `--shards` sets the partitions
//! of policy state, each behind its own lock. `--idle-timeout-ms` bounds how long a *half-received*
//! message may stall before the connection is dropped (slowloris
//! defense); fully idle keep-alive connections are never timed out.
//!
//! Policies: `hybrid` (paper defaults), `hybrid:<hours>h` (histogram
//! range), `fixed:<minutes>` (fixed keep-alive), `no-unloading`, and
//! `production` — the §6 production-manager scheme (daily histograms,
//! two-week retention, recency-weighted aggregation, pre-warms 90 s
//! early, hourly backup accounting). Variants: `production:<days>d`
//! (retention, 1 to 366 days), `production:<decay>` (per-day exponential decay, e.g.
//! `production:0.5`), `production:uniform` (no recency weighting).
//!
//! Fleet mode: `--tenant acme=hybrid,budget=4096` registers a tenant
//! with its own policy and keep-alive memory budget (MB; omit for
//! unlimited); repeatable. More tenants can be added at runtime via
//! `POST /admin/tenants`, whose body is the `--tenant` grammar; behind
//! `sitw-router --tenants N` the router registers `t0..tN-1` itself.
//!
//! Standby mode: `--follow PRIMARY_ADDR` starts the same node as a warm
//! standby. It pulls the primary's replication stream every
//! `--repl-interval-ms` and refuses decisions and mutating admin verbs
//! (503, or a SITW-BIN `Unavailable` error frame) until
//! `POST /admin/promote`, which restores the replicated state into its
//! shards and opens `--addr` to traffic. `/healthz` (with replication
//! lag), `/metrics`, `/debug/*` and `POST /admin/shutdown` answer
//! throughout; the startup line says `control on ADDR`. The router's
//! `POST /admin/ring/failover` calls the same promote verb. The
//! policy/tenant flags describe the
//! *primary's* configuration so the replica restores into matching
//! shards. An unpromoted standby's `--snapshot` is its replica.
//!
//! The daemon runs until `POST /admin/shutdown`; with `--snapshot` it
//! writes its final state there on the way out (and on every
//! `POST /admin/snapshot`). Its startup `endpoints:` line lists every
//! verb it answers, printed from the route table in `server.rs`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::exit;

use sitw_serve::{FollowConfig, ServeConfig, Server, TenantConfig};
use sitw_sim::PolicySpec;

/// The CLI policy grammar is [`PolicySpec::parse`] — one grammar for
/// `--policy`, `--tenant`, admin bodies, and snapshots.
fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    PolicySpec::parse(s).map_err(|e| e.to_string())
}

fn usage() -> ! {
    eprintln!(
        "usage: sitw-serve [--addr HOST:PORT] [--shards N] \
         [--reactor-threads N] [--idle-timeout-ms N] \
         [--policy hybrid|hybrid:<h>h|fixed:<min>|no-unloading|\
         production[:<days>d|:<decay>|:uniform]] \
         [--tenant NAME=POLICY[,budget=MB]]... \
         [--snapshot PATH] [--restore PATH] \
         [--no-telemetry] [--follow PRIMARY_ADDR] \
         [--repl-interval-ms N]"
    );
    exit(2)
}

fn main() {
    let mut cfg = ServeConfig::default();
    let mut follow = FollowConfig::default();
    let mut following = false;
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
                match TenantConfig::parse(&arg) {
                    Ok(tenant) => cfg.tenants.push(tenant),
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                    }
                }
            }
            "--snapshot" => cfg.snapshot_path = Some(PathBuf::from(value("--snapshot"))),
            "--restore" => cfg.restore_path = Some(PathBuf::from(value("--restore"))),
            "--no-telemetry" => cfg.telemetry = false,
            "--follow" => {
                follow.primary_addr = value("--follow");
                following = true;
            }
            "--repl-interval-ms" => {
                let ms: u64 = value("--repl-interval-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                follow.pull_interval = std::time::Duration::from_millis(ms);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }

    cfg.follow = following.then_some(follow);

    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start: {e}");
            exit(1);
        }
    };
    // A standby's line says `control on`: scripts wait for that marker.
    let role = match &cfg.follow {
        Some(f) => format!(
            "following {} | pull every {}ms | control on",
            f.primary_addr,
            f.pull_interval.as_millis(),
        ),
        None => "listening on".to_owned(),
    };
    println!(
        "sitw-serve {role} {} | policy {} | {} shards | {} reactor thread(s) | {} tenant(s){}",
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
    println!("{}", Server::endpoints());

    server.wait();
    match server.shutdown() {
        Ok(snapshot) => {
            println!("stopped; {} apps in final state", snapshot.app_count());
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
