//! The tenant registry: per-tenant policies, budgets, and shard routing.
//!
//! Tenants are the fleet's unit of isolation. Each has a stable numeric
//! id (`u16`, carried on the SITW-BIN v2 wire), a name (carried in JSON
//! and metrics labels), its own [`PolicySpec`], and a keep-alive memory
//! budget in MB (0 = unlimited). Tenant 0 is the implicit **default
//! tenant**: requests without a tenant land there, its apps spread over
//! all shards exactly as before the fleet existed, and it is always
//! unbudgeted — a budget needs a single-writer ledger, which is what
//! routing a named tenant whole to one shard provides.

use sitw_core::PolicySpec;

use crate::fnv1a;

/// Tenant identifier; `0` is the default tenant.
pub type TenantId = u16;

/// The implicit default tenant's id.
pub const DEFAULT_TENANT: TenantId = 0;
/// The implicit default tenant's name.
pub const DEFAULT_TENANT_NAME: &str = "default";

/// One tenant's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Registry-assigned id (position in registration order).
    pub id: TenantId,
    /// Tenant name (validated: `[A-Za-z0-9._-]{1,64}`).
    pub name: String,
    /// The policy every app of this tenant is served under.
    pub policy: PolicySpec,
    /// Keep-alive memory budget in MB; 0 = unlimited.
    pub budget_mb: u64,
}

/// The fleet's tenant table. Ids are assigned in registration order and
/// never reused; the default tenant is always id 0.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRegistry {
    tenants: Vec<TenantSpec>,
}

/// Validates a tenant name: 1–64 chars of `[A-Za-z0-9._-]`. The
/// restriction keeps names safe in metrics labels, snapshot lines, CLI
/// arguments, and JSON without any escaping.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err(format!("tenant name must be 1-64 chars: '{name}'"));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
    {
        return Err(format!(
            "tenant name may contain only [A-Za-z0-9._-]: '{name}'"
        ));
    }
    Ok(())
}

impl TenantRegistry {
    /// Creates a registry holding only the default tenant under
    /// `default_policy` (unbudgeted).
    pub fn new(default_policy: PolicySpec) -> Self {
        Self {
            tenants: vec![TenantSpec {
                id: DEFAULT_TENANT,
                name: DEFAULT_TENANT_NAME.to_owned(),
                policy: default_policy,
                budget_mb: 0,
            }],
        }
    }

    /// Registers a tenant; returns its id.
    ///
    /// # Errors
    ///
    /// Fails on an invalid or duplicate name, or when the `u16` id space
    /// is exhausted.
    pub fn register(
        &mut self,
        name: &str,
        policy: PolicySpec,
        budget_mb: u64,
    ) -> Result<TenantId, String> {
        validate_tenant_name(name)?;
        if name == DEFAULT_TENANT_NAME || self.resolve(name).is_some() {
            return Err(format!("tenant '{name}' already exists"));
        }
        if self.tenants.len() > TenantId::MAX as usize {
            return Err("tenant id space exhausted".into());
        }
        let id = self.tenants.len() as TenantId;
        self.tenants.push(TenantSpec {
            id,
            name: name.to_owned(),
            policy,
            budget_mb,
        });
        Ok(id)
    }

    /// Looks a tenant up by id.
    pub fn get(&self, id: TenantId) -> Option<&TenantSpec> {
        self.tenants.get(id as usize)
    }

    /// Replaces a tenant's budget (0 = unlimited); returns whether the
    /// id exists. The registry copy is display/config truth — the live
    /// ledger's budget is updated by its owning shard (see the serving
    /// daemon's `SetBudget` message), keeping one writer per ledger.
    pub fn set_budget(&mut self, id: TenantId, budget_mb: u64) -> bool {
        match self.tenants.get_mut(id as usize) {
            Some(t) => {
                t.budget_mb = budget_mb;
                true
            }
            None => false,
        }
    }

    /// Looks a tenant id up by name.
    pub fn resolve(&self, name: &str) -> Option<TenantId> {
        self.tenants.iter().find(|t| t.name == name).map(|t| t.id)
    }

    /// All tenants, in id order (the default tenant first).
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Number of registered tenants, including the default.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Always false (the default tenant exists from construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps an invocation to its shard.
    ///
    /// * Default tenant: hash of the app id — exactly the pre-fleet
    ///   routing, so old snapshots and untenanted clients see identical
    ///   placement and per-shard metrics.
    /// * Named tenants: hash of the tenant name — the whole tenant lands
    ///   on one shard, making its budget ledger single-writer (lock-free)
    ///   and its eviction stream independent of the shard count, which is
    ///   what lets a restore change `--shards` without changing a single
    ///   verdict.
    pub fn shard_of(&self, tenant: TenantId, app: &str, shards: usize) -> usize {
        debug_assert!(shards > 0);
        if tenant == DEFAULT_TENANT {
            (fnv1a(app.as_bytes()) % shards as u64) as usize
        } else {
            let name = self
                .get(tenant)
                .map(|t| t.name.as_str())
                .unwrap_or(DEFAULT_TENANT_NAME);
            (fnv1a(name.as_bytes()) % shards as u64) as usize
        }
    }
}

/// Parses one `--tenant` CLI argument: `NAME=POLICY[,budget=MB]`, e.g.
/// `acme=hybrid,budget=4096` or `batch=fixed:10`.
pub fn parse_tenant_arg(arg: &str) -> Result<(String, PolicySpec, u64), String> {
    let (name, rest) = arg
        .split_once('=')
        .ok_or_else(|| format!("expected NAME=POLICY[,budget=MB], got '{arg}'"))?;
    validate_tenant_name(name)?;
    let (policy_str, budget_mb) = match rest.split_once(",budget=") {
        Some((p, b)) => (
            p,
            b.parse::<u64>().map_err(|_| format!("bad budget '{b}'"))?,
        ),
        None => (rest, 0),
    };
    let policy = PolicySpec::parse(policy_str).map_err(|e| e.to_string())?;
    Ok((name.to_owned(), policy, budget_mb))
}

/// Parses a tenants config file: one `tenant <name> <policy> [budget
/// <MB>]` per line; blank lines and `#` comments ignored.
pub fn parse_tenants_file(text: &str) -> Result<Vec<(String, PolicySpec, u64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_ascii_whitespace();
        let err = |msg: &str| format!("line {}: {msg}: '{line}'", lineno + 1);
        if tok.next() != Some("tenant") {
            return Err(err("expected 'tenant <name> <policy> [budget <MB>]'"));
        }
        let name = tok.next().ok_or_else(|| err("missing tenant name"))?;
        validate_tenant_name(name).map_err(|e| err(&e))?;
        let policy_str = tok.next().ok_or_else(|| err("missing policy"))?;
        let policy = PolicySpec::parse(policy_str).map_err(|e| err(&e.to_string()))?;
        let budget_mb = match tok.next() {
            None => 0,
            Some("budget") => {
                let mb = tok.next().ok_or_else(|| err("missing budget value"))?;
                mb.parse::<u64>().map_err(|_| err("bad budget"))?
            }
            Some(other) => return Err(err(&format!("unexpected token '{other}'"))),
        };
        if tok.next().is_some() {
            return Err(err("trailing tokens"));
        }
        out.push((name.to_owned(), policy, budget_mb));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TenantRegistry {
        let mut r = TenantRegistry::new(PolicySpec::fixed_minutes(10));
        r.register("acme", PolicySpec::parse("hybrid").unwrap(), 4096)
            .unwrap();
        r.register("batch", PolicySpec::parse("fixed:20").unwrap(), 0)
            .unwrap();
        r
    }

    #[test]
    fn ids_are_registration_order_and_default_is_zero() {
        let r = registry();
        assert_eq!(r.len(), 3);
        assert_eq!(r.resolve("default"), Some(0));
        assert_eq!(r.resolve("acme"), Some(1));
        assert_eq!(r.resolve("batch"), Some(2));
        assert_eq!(r.get(1).unwrap().budget_mb, 4096);
        assert_eq!(r.resolve("nope"), None);
        assert!(!r.is_empty());
    }

    #[test]
    fn names_validate_and_deduplicate() {
        let mut r = registry();
        assert!(r.register("acme", PolicySpec::NoUnloading, 0).is_err());
        assert!(r.register("default", PolicySpec::NoUnloading, 0).is_err());
        assert!(r.register("", PolicySpec::NoUnloading, 0).is_err());
        assert!(r.register("has space", PolicySpec::NoUnloading, 0).is_err());
        assert!(r.register("a/b", PolicySpec::NoUnloading, 0).is_err());
        assert!(r
            .register("ok-name_2.x", PolicySpec::NoUnloading, 0)
            .is_ok());
    }

    #[test]
    fn default_routes_by_app_tenants_route_whole() {
        let r = registry();
        for shards in [1usize, 2, 5] {
            // Default tenant: identical to the pre-fleet app hash.
            for app in ["app-000001", "x", "café"] {
                let s = r.shard_of(DEFAULT_TENANT, app, shards);
                assert_eq!(s, (fnv1a(app.as_bytes()) % shards as u64) as usize);
            }
            // A named tenant's apps all land on the same shard.
            let home = r.shard_of(1, "a", shards);
            for app in ["b", "c", "zzz"] {
                assert_eq!(r.shard_of(1, app, shards), home);
            }
        }
    }

    #[test]
    fn parse_tenant_arg_forms() {
        let (name, policy, mb) = parse_tenant_arg("acme=hybrid,budget=4096").unwrap();
        assert_eq!(name, "acme");
        assert_eq!(policy, PolicySpec::parse("hybrid").unwrap());
        assert_eq!(mb, 4096);
        let (_, policy, mb) = parse_tenant_arg("b=fixed:10").unwrap();
        assert_eq!(policy, PolicySpec::fixed_minutes(10));
        assert_eq!(mb, 0);
        // `production:0.5` contains no comma, so the split is unambiguous.
        let (_, policy, _) = parse_tenant_arg("p=production:0.5,budget=1").unwrap();
        assert_eq!(policy.label(), "production-240m-14d[5,99]exp0.5");
        assert!(parse_tenant_arg("noequals").is_err());
        assert!(parse_tenant_arg("n=bogus").is_err());
        assert!(parse_tenant_arg("n=hybrid,budget=x").is_err());
    }

    #[test]
    fn parse_tenants_file_lines() {
        let text = "\
# fleet config
tenant acme hybrid budget 4096

tenant batch fixed:10
";
        let parsed = parse_tenants_file(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "acme");
        assert_eq!(parsed[0].2, 4096);
        assert_eq!(parsed[1].2, 0);
        assert!(parse_tenants_file("tenant x hybrid budget").is_err());
        assert!(parse_tenants_file("nottenant x hybrid").is_err());
        assert!(parse_tenants_file("tenant x hybrid budget 1 extra").is_err());
    }
}
