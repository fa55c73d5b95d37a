//! The cluster ring: epoch-versioned tenant → node placement.
//!
//! One level up from `sitw_fleet`'s tenant → shard routing, and built on
//! the same invariant: **named tenants land whole on one node**, by hash
//! of the tenant name over the live node set, so each tenant's budget
//! ledger keeps a single writer cluster-wide. The default tenant (id 0)
//! spreads by app hash, exactly as it spreads over shards inside a node.
//!
//! The ring is versioned by an **epoch** that advances on every
//! membership change (a node dropped, a standby swapped into a slot).
//! Routing decisions are a pure function of `(epoch state, key)`, so the
//! epoch is the cluster-wide cache-invalidation token: a reactor's
//! connection to a node is rechecked against its slot when the epoch
//! moves, and tests assert recovery by watching it advance.

use sitw_fleet::fnv1a;

/// Epoch-versioned node membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRing {
    epoch: u64,
    /// Liveness per node index. Indices are stable for the life of the
    /// router (dead nodes keep their slot so metrics and admin output
    /// stay addressable); only the live subset receives traffic.
    live: Vec<bool>,
}

impl ClusterRing {
    /// A ring of `nodes` live nodes (indices `0..nodes`).
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a ring needs at least one node");
        Self {
            epoch: 0,
            live: vec![true; nodes],
        }
    }

    /// The current epoch (starts at 0, bumps on every change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total node slots, live or not.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Always false (constructed non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Live node count.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|l| **l).count()
    }

    /// Whether a node slot is live.
    pub fn is_live(&self, node: usize) -> bool {
        self.live.get(node).copied().unwrap_or(false)
    }

    /// Hash placement over the live node list, ascending: the node at
    /// `hash` modulo the live count, found without allocating. `None`
    /// when no node is live.
    fn live_node(&self, hash: u64) -> Option<usize> {
        let k = hash.checked_rem(self.live_count() as u64)? as usize;
        (0..self.live.len()).filter(|&i| self.live[i]).nth(k)
    }

    /// Routes a named tenant: the hash of its name over the live node
    /// list. Returns `None` when no node is live (the caller surfaces a
    /// typed unavailable error).
    pub fn node_of_tenant(&self, tenant: &str) -> Option<usize> {
        self.live_node(fnv1a(tenant.as_bytes()))
    }

    /// Routes a default-tenant invocation by app id — mirroring how the
    /// default tenant spreads over shards inside a node.
    pub fn node_of_app(&self, app: &str) -> Option<usize> {
        self.live_node(fnv1a(app.as_bytes()))
    }

    /// Marks a node dead and advances the epoch; its tenants rehash over
    /// the survivors. Returns false (no epoch change) when the node was
    /// already dead or out of range.
    pub fn drop_node(&mut self, node: usize) -> bool {
        if !self.is_live(node) {
            return false;
        }
        self.live[node] = false;
        self.epoch += 1;
        true
    }

    /// Advances the epoch without a membership change — the slot's
    /// *address* changed (a promoted standby took the node over), so
    /// every epoch-stamped cache must refresh even though placement is
    /// untouched. Returns the new epoch.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_route_whole_and_deterministically() {
        let ring = ClusterRing::new(3);
        for name in ["t0", "t1", "acme", "batch"] {
            let n = ring.node_of_tenant(name).unwrap();
            assert!(n < 3);
            assert_eq!(ring.node_of_tenant(name), Some(n), "deterministic");
            assert_eq!(n, (fnv1a(name.as_bytes()) % 3) as usize);
        }
    }

    #[test]
    fn drop_rehashes_and_advances_epoch() {
        let mut ring = ClusterRing::new(3);
        assert_eq!(ring.epoch(), 0);
        // Find a tenant that hashes to node 1, then kill node 1.
        let tenant = (0..100)
            .map(|i| format!("t{i}"))
            .find(|t| ring.node_of_tenant(t) == Some(1))
            .unwrap();
        assert!(ring.drop_node(1));
        assert_eq!(ring.epoch(), 1);
        assert!(!ring.drop_node(1), "double drop is a no-op");
        assert_eq!(ring.live_count(), 2);
        let rehashed = ring.node_of_tenant(&tenant).unwrap();
        assert_ne!(rehashed, 1, "dead node receives nothing");
        // Placement over the survivors is the hash over the live list.
        assert_eq!(rehashed, [0, 2][(fnv1a(tenant.as_bytes()) % 2) as usize]);
    }

    #[test]
    fn bump_epoch_invalidates_without_membership_change() {
        let mut ring = ClusterRing::new(2);
        let before: Vec<_> = (0..8)
            .map(|i| ring.node_of_tenant(&format!("t{i}")))
            .collect();
        assert_eq!(ring.bump_epoch(), 1);
        assert_eq!(ring.epoch(), 1);
        assert_eq!(ring.live_count(), 2, "membership untouched");
        let after: Vec<_> = (0..8)
            .map(|i| ring.node_of_tenant(&format!("t{i}")))
            .collect();
        assert_eq!(before, after, "placement untouched");
    }
}
