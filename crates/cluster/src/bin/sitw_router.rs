//! `sitw-router` — the cluster-mode routing daemon.
//!
//! One port in front of N `sitw-serve` nodes: tenant-keyed consistent
//! routing, with every tenant and its budget provisioned on every node.
//! See the crate docs of `sitw-cluster` for the design.
//! The startup `endpoints:` line lists every verb it answers, printed
//! from the route table in `router.rs`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use sitw_cluster::{Router, RouterConfig};
use sitw_core::PolicySpec;
use sitw_serve::TenantConfig;

const USAGE: &str = "\
sitw-router — route tenants across a cluster of sitw-serve nodes

USAGE:
    sitw-router --addr HOST:PORT --node HOST:PORT [--node HOST:PORT ...]
                [--tenants N]
                [--tenant NAME=POLICY[,budget=MB]]
                [--trace-sample N]
                [--probe-ms MS] [--standby IDX=ADDR]
                [--upstream-timeout-ms MS]

OPTIONS:
    --addr HOST:PORT     Listen address (default 127.0.0.1:7180)
    --node HOST:PORT     A sitw-serve node; repeat once per node.
                         Argument order defines ring node indices.
    --tenants N          Shorthand: register tenants t0..t{N-1} with the
                         hybrid policy and no budget.
    --tenant SPEC        One tenant, in the node's grammar:
                         NAME=POLICY[,budget=MB], e.g. acme=hybrid,budget=64.
                         Repeatable; combines with --tenants. At startup
                         and on every promotion the router registers it
                         on each node that lacks it and sets a non-zero
                         budget on each node that has it, so the node
                         the tenant lands on enforces the whole budget.
    --trace-sample N     Tag every Nth untraced request with a
                         router-originated trace id and record hop
                         spans for all traced requests (default 0 =
                         hop recording off; client trace ids still
                         propagate to the nodes).
    --probe-ms MS        Health-probe interval (default 500). Three
                         failed probes in a row mark a node down on
                         GET /admin/ring.
    --standby IDX=ADDR   Warm standby for ring slot IDX: the address of
                         a `sitw-serve --follow` node. A failover of
                         that slot (POST /admin/ring/failover?node=IDX)
                         promotes the standby in place and puts ADDR in
                         the slot; with no standby it drops the node.
                         Repeatable, one per slot.
    --upstream-timeout-ms MS
                         Data-path upstream deadline (a connect, and
                         the wait for a node's oldest owed reply;
                         default 2000). A hung node surfaces as a
                         typed 503 / Unavailable naming the node within
                         this bound, to the clients it owes only.
";

fn parse_args() -> Result<RouterConfig, String> {
    let mut cfg = RouterConfig {
        addr: "127.0.0.1:7180".into(),
        ..RouterConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--node" => cfg.nodes.push(value("--node")?),
            "--tenants" => {
                let n: usize = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
                for i in 0..n {
                    cfg.tenants.push(TenantConfig {
                        name: format!("t{i}"),
                        policy: PolicySpec::parse("hybrid").expect("hybrid parses"),
                        budget_mb: 0,
                    });
                }
            }
            "--tenant" => {
                cfg.tenants.push(TenantConfig::parse(&value("--tenant")?)?);
            }
            "--trace-sample" => {
                cfg.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|e| format!("--trace-sample: {e}"))?;
            }
            "--probe-ms" => {
                cfg.probe_ms = value("--probe-ms")?
                    .parse()
                    .map_err(|e| format!("--probe-ms: {e}"))?;
            }
            "--standby" => {
                let spec = value("--standby")?;
                let (idx, ctrl) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--standby: expected IDX=ADDR, got '{spec}'"))?;
                let idx: usize = idx.parse().map_err(|e| format!("--standby: {e}"))?;
                cfg.standbys.push((idx, ctrl.to_owned()));
            }
            "--upstream-timeout-ms" => {
                let ms: u64 = value("--upstream-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--upstream-timeout-ms: {e}"))?;
                cfg.upstream_timeout = Duration::from_millis(ms.max(1));
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cfg.nodes.is_empty() {
        return Err("at least one --node is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("sitw-router: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let nodes = cfg.nodes.clone();
    let tenants = cfg.tenants.len();
    let router = match Router::start(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sitw-router: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sitw-router listening on {} ({} nodes: {}; {} named tenants)",
        router.addr(),
        nodes.len(),
        nodes.join(", "),
        tenants,
    );
    println!("{}", Router::endpoints());
    router.wait();
    ExitCode::SUCCESS
}
