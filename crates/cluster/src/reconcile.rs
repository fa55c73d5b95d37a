//! Epoch-based budget reconciliation.
//!
//! Each node enforces per-tenant memory budgets locally; the reconciler
//! keeps those local budgets meaningful cluster-wide. Every cycle it
//!
//! 1. polls each live node's per-tenant ledger integrals
//!    ([`ControlRequest::Report`] over a SITW-BIN control frame),
//! 2. aggregates the reports name-keyed into one cluster view
//!    ([`sitw_serve::wire::TenantUsage::fold`], on `/metrics`), and
//! 3. pushes each budgeted tenant's **full** budget to its current ring
//!    owner ([`reconcile_shares`], a pure function of the ring epoch).
//!
//! Budget follows ownership: named tenants land whole on one node, so
//! the owner gets the whole budget and nobody else needs a share — a
//! node that loses a tenant loses its state with the take, and a node
//! that never owns it skips unknown names in a `BudgetSet` (uncounted in
//! the ack). Shares are recomputed from the ring on every cycle, so a
//! migration or node drop is reconciled one cycle after its epoch
//! advance, without any per-change bookkeeping.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sitw_serve::http::{ConnBuf, Reply};
use sitw_serve::wire::{encode_control_frame, ControlReply, ControlRequest, ServerFrameDecode};

use crate::ring::ClusterRing;

/// Computes the per-node budget shares for one cycle: each budgeted
/// tenant's full budget goes to its current ring owner. Unbudgeted
/// tenants (0 = unlimited) are never pushed — a zero share would
/// *lift* a limit, not enforce one. Pure in `(budgets, ring)`, so the
/// shares are a function of the ring epoch.
pub fn reconcile_shares(
    budgets: &[(String, u64)],
    ring: &ClusterRing,
) -> Vec<(usize, Vec<(String, u64)>)> {
    let mut per_node: BTreeMap<usize, Vec<(String, u64)>> = BTreeMap::new();
    for (name, budget_mb) in budgets {
        if *budget_mb == 0 {
            continue;
        }
        if let Some(owner) = ring.node_of_tenant(name) {
            per_node
                .entry(owner)
                .or_default()
                .push((name.clone(), *budget_mb));
        }
    }
    per_node.into_iter().collect()
}

/// One control-plane round trip: connects to `addr`, sends `req` as a
/// SITW-BIN control frame, and reads the node's control reply. Used by
/// the reconciler and by parity tests that read ledger integrals off
/// live nodes.
pub fn control_roundtrip(addr: SocketAddr, req: &ControlRequest) -> io::Result<ControlReply> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut conn = ConnBuf::new(stream);
    let mut frame = Vec::new();
    encode_control_frame(&mut frame, req);
    conn.stream().write_all(&frame)?;
    match conn.read_reply()?.owed()? {
        Reply::Frame(ServerFrameDecode::Control { reply, .. }) => Ok(reply),
        Reply::Frame(ServerFrameDecode::Error { code, detail, .. }) => Err(io::Error::other(
            format!("control error {code:?}: {detail}"),
        )),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply to a control request: {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_serve::wire::TenantUsage;

    fn usage(name: &str, budget: u64, warm: u64, ev: u64, idle: u64, inv: u64) -> TenantUsage {
        TenantUsage {
            name: name.into(),
            budget_mb: budget,
            warm_mb: warm,
            evictions: ev,
            idle_mb_ms: idle,
            invocations: inv,
        }
    }

    #[test]
    fn shares_follow_the_ring_owner() {
        let ring = ClusterRing::new(3);
        let budgets = vec![
            ("t0".to_owned(), 64),
            ("t1".to_owned(), 0), // Unlimited: never pushed.
            ("t2".to_owned(), 128),
        ];
        let shares = reconcile_shares(&budgets, &ring);
        let pushed: Vec<(&str, u64, usize)> = shares
            .iter()
            .flat_map(|(node, s)| s.iter().map(move |(n, b)| (n.as_str(), *b, *node)))
            .collect();
        assert_eq!(pushed.len(), 2, "only budgeted tenants are pushed");
        for (name, budget, node) in pushed {
            assert_eq!(Some(node), ring.node_of_tenant(name));
            assert_eq!(budget, if name == "t0" { 64 } else { 128 });
        }
    }

    #[test]
    fn shares_move_with_epoch_changes() {
        let mut ring = ClusterRing::new(2);
        let budgets = vec![("acme".to_owned(), 64)];
        let before = reconcile_shares(&budgets, &ring);
        let owner = before[0].0;
        ring.set_override("acme", 1 - owner).unwrap();
        let after = reconcile_shares(&budgets, &ring);
        assert_eq!(after[0].0, 1 - owner, "share follows the migration");
        ring.drop_node(1 - owner);
        let rehomed = reconcile_shares(&budgets, &ring);
        assert_eq!(rehomed[0].0, owner, "share follows the rehash");
    }

    #[test]
    fn aggregation_maxes_budgets_and_sums_the_rest() {
        // Node 0 reports two tenants, node 1 its default-tenant slice.
        let reports = [
            vec![
                usage("default", 0, 5, 0, 100, 7),
                usage("t0", 64, 10, 1, 50, 3),
            ],
            vec![usage("default", 0, 2, 0, 30, 4)],
        ];
        let agg = TenantUsage::fold(reports.into_iter().flatten());
        assert_eq!(agg.len(), 2);
        let default = agg.iter().find(|t| t.name == "default").unwrap();
        assert_eq!(
            (default.warm_mb, default.idle_mb_ms, default.invocations),
            (7, 130, 11)
        );
        let t0 = agg.iter().find(|t| t.name == "t0").unwrap();
        assert_eq!((t0.budget_mb, t0.evictions), (64, 1));
    }
}
