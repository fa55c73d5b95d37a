//! The restore sequence the pipeline in `restore` replaced, kept
//! test-only as its reference: the whole document decoded first
//! (`Snapshot::load`), then the registry built from it
//! (`build_registry`), then the records partitioned into each shard's
//! tenants (`partition_restore`) for `ShardWorker::new`.
//! `restore::tests` holds a node restored through the pipeline to this
//! sequence on valid and corrupt documents alike.

use sitw_fleet::{TenantId, TenantRegistry, DEFAULT_TENANT};
use sitw_sim::PolicySpec;

use crate::server::ServeConfig;
use crate::shard::{shard_of, TenantRestore};
use crate::snapshot::{Snapshot, TenantSnapshot};

/// Builds the tenant registry for a start or a promotion: the snapshot's
/// policy must be the configured one, its tenants come first (ids
/// preserved), configured tenants are verified against or appended to
/// them.
pub(crate) fn build_registry(
    cfg: &ServeConfig,
    snap: Option<&Snapshot>,
) -> Result<TenantRegistry, String> {
    let mut registry = TenantRegistry::new(cfg.policy.clone());
    if let Some(snap) = snap {
        let expected = cfg.policy.label();
        if snap.policy_label != expected {
            return Err(format!(
                "snapshot policy '{}' does not match configured '{expected}'",
                snap.policy_label
            ));
        }
        for t in &snap.tenants {
            // Configured spec wins when present (it carries the actual
            // PolicySpec; the snapshot only proves the label). A tenant
            // the new process was not configured with is rebuilt from
            // its canonical spec string.
            let configured = cfg.tenants.iter().find(|c| c.name == t.name);
            let (policy, budget_mb) = match configured {
                Some(c) => {
                    if c.policy.label() != t.policy_label {
                        return Err(format!(
                            "tenant '{}': snapshot policy '{}' does not match configured '{}'",
                            t.name,
                            t.policy_label,
                            c.policy.label()
                        ));
                    }
                    (c.policy.clone(), c.budget_mb)
                }
                None => {
                    let spec_str = t.spec_str.as_ref().ok_or_else(|| {
                        format!(
                            "tenant '{}' has no canonical spec in the snapshot; \
                             configure it explicitly to restore",
                            t.name
                        )
                    })?;
                    let policy = PolicySpec::parse(spec_str).map_err(|e| e.to_string())?;
                    (policy, t.budget_mb)
                }
            };
            let id = registry.register(&t.name, policy, budget_mb)?;
            if id != t.id {
                return Err(format!(
                    "tenant '{}': snapshot id {} cannot be preserved (got {id})",
                    t.name, t.id
                ));
            }
        }
    }
    for c in &cfg.tenants {
        if registry.resolve(&c.name).is_none() {
            registry.register(&c.name, c.policy.clone(), c.budget_mb)?;
        }
    }
    Ok(registry)
}

/// Partitions restored state across shards: default-tenant apps and
/// warm entries by app hash, named tenants whole to their home shard.
pub(crate) fn partition_restore(
    registry: &TenantRegistry,
    snap: Option<Snapshot>,
    shards: usize,
) -> Vec<Vec<TenantRestore>> {
    let default_spec = registry
        .get(DEFAULT_TENANT)
        .expect("default tenant always exists")
        .clone();
    let mut per_shard: Vec<Vec<TenantRestore>> = (0..shards)
        .map(|_| vec![TenantRestore::fresh(default_spec.clone())])
        .collect();
    let Some(snap) = snap else {
        for spec in registry.tenants() {
            if spec.id != DEFAULT_TENANT {
                let home = registry.shard_of(spec.id, "", shards);
                per_shard[home].push(TenantRestore::fresh(spec.clone()));
            }
        }
        return per_shard;
    };
    for rec in snap.apps {
        let shard = shard_of(&rec.app, shards);
        per_shard[shard][0].apps.push(rec);
    }
    for (app, expiry, mb) in snap.default_ledger.warm {
        let shard = shard_of(&app, shards);
        per_shard[shard][0].ledger.warm.push((app, expiry, mb));
    }
    for shard in per_shard.iter_mut() {
        shard[0].prod_clock = snap.prod_clock;
        shard[0].ledger.cursor_ms = snap.default_ledger.cursor_ms;
    }
    // The merged integral/eviction counters are scalars; seed them on
    // shard 0 so the aggregate `/metrics` view stays continuous.
    per_shard[0][0].ledger.evictions = snap.default_ledger.evictions;
    per_shard[0][0].ledger.idle_mb_ms = snap.default_ledger.idle_mb_ms;

    let mut snap_tenants: std::collections::HashMap<TenantId, TenantSnapshot> =
        snap.tenants.into_iter().map(|t| (t.id, t)).collect();
    for spec in registry.tenants() {
        if spec.id == DEFAULT_TENANT {
            continue;
        }
        let home = registry.shard_of(spec.id, "", shards);
        let restore = match snap_tenants.remove(&spec.id) {
            Some(t) => TenantRestore {
                spec: spec.clone(),
                apps: t.apps,
                ledger: t.ledger,
                prod_clock: t.prod_clock,
            },
            None => TenantRestore::fresh(spec.clone()),
        };
        per_shard[home].push(restore);
    }
    per_shard
}
