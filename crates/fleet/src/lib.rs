//! `sitw-fleet`: the multi-tenant fleet subsystem.
//!
//! The paper's hybrid policy exists to cut cold starts *under a
//! cluster-wide memory budget* — §3.4/Figure 8 characterize per-app
//! memory with a Burr distribution precisely because keep-alive is a
//! memory-for-latency trade. This crate turns that trade into an
//! explicit, enforceable dimension of the serving stack:
//!
//! * [`registry`] — tenants: each gets its own [`sitw_core::PolicySpec`],
//!   a keep-alive memory budget in MB, and an isolated `tenant/app`
//!   namespace; parsed from CLI args and config files with one grammar.
//! * [`footprint`] — deterministic per-`(tenant, app)` memory footprints
//!   sampled by inverse transform from the paper's Burr XII fit
//!   (Figure 8), so online serving, offline replay, and restores all
//!   charge identical memory without storing anything.
//! * [`ledger`] — the tenant's one app table, which is also its memory
//!   ledger: one slot per app holding its interned name, footprint,
//!   keep-alive charge and the kernel's per-app state; an exact
//!   loaded-memory integral (the §5.3 idle-memory metric); and budgeted
//!   eviction by earliest keep-alive expiry. Ledgers are integer-valued
//!   (MB and MB·ms), so accounting is bit-exact across snapshot/restore.
//! * [`evict`] — the small budgeted-eviction engine shared with
//!   `sitw_platform`'s invoker `make_room` (evict in a caller-chosen
//!   order until the budget fits).
//! * [`qos`] — per-tenant QoS classes and deterministic admission rate
//!   limits: token buckets that run on *trace time* (the invocation
//!   timestamps), never the wall clock, so a router admitting online
//!   and `ClusterSim` replaying offline throttle the identical set.
//! * [`tenant`] — the decision kernel: one tenant's app records, policy
//!   state and ledger behind one [`TenantState::step`] (classify the
//!   gap, downgrade an evicted image, advance the policy, charge the
//!   ledger, mark the victims). The daemon's shard workers and the
//!   offline simulator both call it; nothing else composes those steps.
//! * [`sim`] — [`sim::FleetSim`], the offline ground truth: a driver
//!   over one [`TenantState`] per tenant that replays a merged
//!   multi-tenant event stream into the exact verdicts a fleet-mode
//!   daemon serves (re-exported as `sitw_sim::fleet_verdict_trace`).
//!
//! Determinism is the design center: eviction order (earliest expiry,
//! ties by app id), footprints, and ledger arithmetic are all pure
//! functions of the tenant's *arrival-ordered* event stream, so a
//! daemon restored from a snapshot — even with a different shard count
//! — continues bit-for-bit, and the offline simulator predicts every
//! eviction the daemon makes whenever a tenant's stream reaches it in
//! timestamp order (any single connection; clients spreading one
//! tenant's apps over concurrent connections choose their own
//! interleaving). That is why budgeted tenants are routed whole to one
//! shard (by tenant name hash): their ledger is then single-writer and
//! lock-free, the same isolation argument the sweep driver makes for
//! apps. (Routing hashes the tenant *name*, so placement survives
//! restarts and registry rebuilds.)

//!
//! Stable for `benchmark/` (see `sitw_serve`'s crate docs):
//! [`FleetSim`]`::{new, step}`, the fields of [`FleetVerdict`],
//! [`fleet_verdict_trace`] / [`FleetEvent`], the bare ledger
//! [`TenantLedger`]`::{new, charge}` (payload `()`; `stats`, `export`
//! and `restore` keep their shape too), [`TenantRegistry`],
//! [`footprint_mb`], [`fnv1a`], [`mix64`]. A ledger's per-app record is
//! crate-private: no entry type is exported.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evict;
pub mod footprint;
pub mod ledger;
#[cfg(test)]
mod ledger_ref;
pub mod qos;
pub mod registry;
pub mod sim;
#[cfg(test)]
mod sim_ref;
pub mod tenant;

pub use evict::evict_until;
pub use footprint::footprint_mb;
pub use ledger::{LedgerExport, LedgerStats, TenantLedger};
pub use qos::{Admission, QosClass, QosPolicy, RateLimit, TokenBucket};
pub use registry::{TenantId, TenantRegistry, TenantSpec, DEFAULT_TENANT, DEFAULT_TENANT_NAME};
pub use sim::{fleet_verdict_trace, FleetError, FleetEvent, FleetSim};
pub use tenant::{
    AppRecord, AppState, FleetVerdict, LastVerdict, OutOfOrder, PolicyState, RestoreError, Served,
    ServedPolicy, TenantRestore, TenantState,
};

/// FNV-1a over a byte string — the workspace's stable, dependency-free
/// hash. The serving daemon's app→shard routing and the fleet's
/// tenant→shard routing and footprint sampling all build on it, so the
/// mapping survives restarts and crate boundaries alike.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer: full-avalanche mix of a 64-bit value. FNV-1a's
/// high bits avalanche poorly on short strings (the multiply only
/// carries upward), which is fine for `% shards` routing but biases any
/// use of the hash as a uniform variate — footprint sampling and Zipf
/// tenant assignment mix through this first.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64-bit of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
    }
}
