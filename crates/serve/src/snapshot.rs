//! State snapshot/restore: the daemon's analogue of the paper's hourly
//! histogram backups (§6), extended with the fleet's tenant state.
//!
//! A snapshot captures, per application, everything its policy decision
//! depends on — last accepted timestamp, current windows, the
//! memory-pressure eviction flag, and for the hybrid policy the full
//! [`sitw_core::HybridSnapshot`] (histogram bins, out-of-bounds count,
//! capped ARIMA history, decision counters). Fleet mode adds, per
//! tenant: the registry entry (name, policy, budget), the production
//! backup clock, and the memory ledger (warm set with expiries and
//! footprints, eviction count, loaded-memory integral). A server
//! restored from a snapshot therefore continues the decision stream —
//! including every budget eviction — **bit-for-bit** where the
//! snapshotting server left off, even when the shard count changes; the
//! integration tests assert exactly that.
//!
//! The format is a line-oriented text file (floating-point values as
//! IEEE-754 bit patterns in hex so round trips are exact), versioned by
//! its header line. Pre-fleet files (no tenant lines) decode as a
//! default-tenant-only snapshot, unchanged.
//!
//! One deliberate imprecision: the default tenant's ledger is sharded by
//! app hash, so its *integral* is merged (summed, cursor = max) at
//! snapshot time and re-seeded on shard 0 at restore. Decisions are
//! unaffected (the default tenant is unbudgeted and never evicts) — only
//! the fleet-wide idle-MB·ms metric can undercount across a restart that
//! also changes the shard count. Budgeted tenants live whole on one
//! shard, so their ledgers restore exactly.

use std::io::{self, Write};
use std::path::Path;

use sitw_core::{DayHistogram, DecisionCounts, HybridSnapshot, ProductionAppState, Windows};
use sitw_fleet::{LedgerExport, TenantId};

use crate::wire::{kind_from_str, kind_str};

/// The per-app record and its policy state are the decision kernel's
/// (`sitw_fleet::TenantState` restores from them and exports them);
/// this module gives them their text form.
pub use sitw_fleet::{AppRecord, PolicyState};

/// Magic first line of a snapshot file.
const HEADER: &str = "sitw-serve-snapshot v1";

/// Magic first line of a replication delta document: the same line
/// grammar as a snapshot, but apps are a *dirty subset* — the receiver
/// upserts them into its accumulated state instead of replacing it.
const DELTA_HEADER: &str = "sitw-serve-delta v1";

/// Why a snapshot failed to load — typed so the daemon can distinguish
/// "the file is unreadable" from "the file is corrupt" and degrade to
/// serving from empty state instead of dying mid-parse.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The file was read but is truncated or corrupt; the message names
    /// the first offending line or field.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot unreadable: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One shard's complete exported state: one entry per tenant living on
/// the shard (the default tenant always, named tenants when routed
/// here).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardExport {
    /// Per-tenant state, sorted by tenant id.
    pub tenants: Vec<TenantExport>,
}

/// One tenant's state on one shard (also the merged per-tenant snapshot
/// unit — named tenants live whole on one shard).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantExport {
    /// Registry id.
    pub id: TenantId,
    /// Tenant name.
    pub name: String,
    /// The tenant policy's label (restore refuses a mismatch).
    pub policy_label: String,
    /// The canonical parseable policy string, when one exists — lets a
    /// restore reconstruct tenants the new process was not configured
    /// with (e.g. admin-registered ones).
    pub spec_str: Option<String>,
    /// Keep-alive memory budget (0 = unlimited).
    pub budget_mb: u64,
    /// `Some(last_backup_ms)` when the tenant serves production mode.
    pub prod_clock: Option<u64>,
    /// The tenant's memory ledger slice.
    pub ledger: LedgerExport,
    /// Per-app records, sorted by app id.
    pub apps: Vec<AppRecord>,
}

/// A named tenant's complete snapshot state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Registry id (contiguous from 1, in registration order).
    pub id: TenantId,
    /// Tenant name.
    pub name: String,
    /// The tenant policy's label.
    pub policy_label: String,
    /// The canonical parseable policy string, when one exists.
    pub spec_str: Option<String>,
    /// Keep-alive memory budget (0 = unlimited).
    pub budget_mb: u64,
    /// Production backup clock.
    pub prod_clock: Option<u64>,
    /// The tenant's memory ledger.
    pub ledger: LedgerExport,
    /// Per-app records, sorted by app id.
    pub apps: Vec<AppRecord>,
}

/// A complete server snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Label of the default tenant's policy ([`sitw_core::PolicySpec::label`]);
    /// restore refuses a mismatch.
    pub policy_label: String,
    /// Default tenant's production backup clock (`last_backup_ms`, the
    /// maximum over shards); restoring seeds every shard's manager with
    /// it so the hourly cadence continues instead of "catching up".
    pub prod_clock: Option<u64>,
    /// Default-tenant applications, sorted by id.
    pub apps: Vec<AppRecord>,
    /// Default tenant's merged memory ledger (metrics continuity).
    pub default_ledger: LedgerExport,
    /// Named tenants, sorted by id.
    pub tenants: Vec<TenantSnapshot>,
}

/// Percent-encodes the characters that would break the line format.
fn encode_app(app: &str) -> String {
    let mut out = String::with_capacity(app.len());
    for c in app.chars() {
        match c {
            ' ' => out.push_str("%20"),
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

fn decode_app(enc: &str) -> Result<String, String> {
    let mut out = String::with_capacity(enc.len());
    let mut chars = enc.chars();
    while let Some(c) = chars.next() {
        if c == '%' {
            // Escapes are always two ASCII hex digits (see encode_app).
            let hi = chars.next().ok_or("truncated escape")?;
            let lo = chars.next().ok_or("truncated escape")?;
            let hex: String = [hi, lo].iter().collect();
            let v = u8::from_str_radix(&hex, 16).map_err(|_| format!("bad escape %{hex}"))?;
            out.push(v as char);
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Writes one app record's line payload (everything after the leading
/// keyword and optional tenant id).
fn encode_app_record(out: &mut String, rec: &AppRecord) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{} {} {} {}",
        encode_app(&rec.app),
        rec.last_ts,
        rec.windows.pre_warm_ms,
        rec.windows.keep_alive_ms
    );
    if rec.evicted {
        out.push_str(" evicted");
    }
    match &rec.state {
        PolicyState::Stateless => {}
        PolicyState::Production { last, state } => {
            let _ = write!(
                out,
                " production {} days {}",
                kind_str(*last),
                state.days.len()
            );
            for d in &state.days {
                let _ = write!(out, " {}:{}:", d.day, d.oob);
                for (i, b) in d.bins.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{b}");
                }
            }
        }
        PolicyState::Hybrid(h) => {
            let _ = write!(
                out,
                " hybrid {} {} {} {} {}",
                h.oob_count,
                h.counts.histogram,
                h.counts.standard,
                h.counts.arima,
                kind_str(h.last_decision)
            );
            let _ = write!(out, " bins ");
            if h.bins.is_empty() {
                out.push('-');
            } else {
                for (i, b) in h.bins.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{b}");
                }
            }
            let _ = write!(out, " hist ");
            if h.history.is_empty() {
                out.push('-');
            } else {
                for (i, v) in h.history.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{:016x}", v.to_bits());
                }
            }
        }
    }
}

/// Parses one app record from its tokens (everything after the leading
/// keyword and optional tenant id).
fn decode_app_record<'a>(mut tok: impl Iterator<Item = &'a str>) -> Result<AppRecord, String> {
    let app = decode_app(tok.next().ok_or("missing app id")?)?;
    let last_ts = parse_field::<u64>(tok.next(), "last_ts")?;
    let pre_warm_ms = parse_field::<u64>(tok.next(), "pre_warm_ms")?;
    let keep_alive_ms = parse_field::<u64>(tok.next(), "keep_alive_ms")?;
    let mut next = tok.next();
    let evicted = next == Some("evicted");
    if evicted {
        next = tok.next();
    }
    let state = match next {
        None => PolicyState::Stateless,
        Some("production") => {
            let last = kind_from_str(tok.next().ok_or("missing kind")?)?;
            if tok.next() != Some("days") {
                return Err("expected 'days'".into());
            }
            let num_days: usize = parse_field(tok.next(), "day count")?;
            let mut days = Vec::with_capacity(num_days);
            for _ in 0..num_days {
                let group = tok.next().ok_or("missing day group")?;
                let mut parts = group.splitn(3, ':');
                let day = parse_field::<u64>(parts.next(), "day index")?;
                let oob = parse_field::<u64>(parts.next(), "day oob")?;
                let bins = parts
                    .next()
                    .ok_or("missing day bins")?
                    .split(',')
                    .map(|s| s.parse::<u32>().map_err(|_| format!("bad bin '{s}'")))
                    .collect::<Result<_, _>>()?;
                days.push(DayHistogram { day, bins, oob });
            }
            PolicyState::Production {
                last,
                state: ProductionAppState { days },
            }
        }
        Some("hybrid") => {
            let oob_count = parse_field::<u64>(tok.next(), "oob")?;
            let counts = DecisionCounts {
                histogram: parse_field::<u64>(tok.next(), "hist count")?,
                standard: parse_field::<u64>(tok.next(), "std count")?,
                arima: parse_field::<u64>(tok.next(), "arima count")?,
            };
            let last_decision = kind_from_str(tok.next().ok_or("missing kind")?)?;
            if tok.next() != Some("bins") {
                return Err("expected 'bins'".into());
            }
            let bins_tok = tok.next().ok_or("missing bins")?;
            let bins = if bins_tok == "-" {
                Vec::new()
            } else {
                bins_tok
                    .split(',')
                    .map(|s| s.parse::<u32>().map_err(|_| format!("bad bin '{s}'")))
                    .collect::<Result<_, _>>()?
            };
            if tok.next() != Some("hist") {
                return Err("expected 'hist'".into());
            }
            let hist_tok = tok.next().ok_or("missing history")?;
            let history = if hist_tok == "-" {
                Vec::new()
            } else {
                hist_tok
                    .split(',')
                    .map(|s| {
                        u64::from_str_radix(s, 16)
                            .map(f64::from_bits)
                            .map_err(|_| format!("bad history value '{s}'"))
                    })
                    .collect::<Result<_, _>>()?
            };
            PolicyState::Hybrid(HybridSnapshot {
                bins,
                oob_count,
                history,
                counts,
                last_decision,
            })
        }
        Some(other) => return Err(format!("unknown state kind '{other}'")),
    };
    Ok(AppRecord {
        app,
        last_ts,
        windows: Windows {
            pre_warm_ms,
            keep_alive_ms,
        },
        evicted,
        state,
    })
}

/// Whether a ledger export carries any information worth a line.
fn ledger_is_empty(l: &LedgerExport) -> bool {
    l.warm.is_empty() && l.evictions == 0 && l.idle_mb_ms == 0 && l.cursor_ms == 0
}

impl Snapshot {
    /// Serializes to the text format.
    pub fn encode(&self) -> String {
        self.encode_with_header(HEADER)
    }

    /// Serializes as a replication delta document: identical line
    /// grammar, delta header. The caller is responsible for `self`
    /// carrying only dirty apps (tenant lines, ledgers, and clocks are
    /// always carried whole — they are absolute values the receiver
    /// replaces wholesale).
    pub fn encode_delta(&self) -> String {
        self.encode_with_header(DELTA_HEADER)
    }

    fn encode_with_header(&self, header: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.apps.len() * 128);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "policy {}", self.policy_label);
        if let Some(clock) = self.prod_clock {
            let _ = writeln!(out, "clock {clock}");
        }
        if !ledger_is_empty(&self.default_ledger) {
            let l = &self.default_ledger;
            let _ = writeln!(
                out,
                "dledger {} {} {}",
                l.evictions, l.idle_mb_ms, l.cursor_ms
            );
            for (app, expiry, mb) in &l.warm {
                let _ = writeln!(out, "dwarm {} {expiry} {mb}", encode_app(app));
            }
        }
        for t in &self.tenants {
            let _ = write!(
                out,
                "tenant {} {} {} {} {}",
                t.id,
                t.name,
                t.budget_mb,
                t.apps.len(),
                t.policy_label
            );
            if let Some(spec) = &t.spec_str {
                let _ = write!(out, " spec {spec}");
            }
            out.push('\n');
            if let Some(clock) = t.prod_clock {
                let _ = writeln!(out, "tclock {} {clock}", t.id);
            }
            if !ledger_is_empty(&t.ledger) {
                let _ = writeln!(
                    out,
                    "tledger {} {} {} {}",
                    t.id, t.ledger.evictions, t.ledger.idle_mb_ms, t.ledger.cursor_ms
                );
                for (app, expiry, mb) in &t.ledger.warm {
                    let _ = writeln!(out, "twarm {} {} {expiry} {mb}", t.id, encode_app(app));
                }
            }
        }
        let _ = writeln!(out, "apps {}", self.apps.len());
        for rec in &self.apps {
            out.push_str("app ");
            encode_app_record(&mut out, rec);
            out.push('\n');
        }
        for t in &self.tenants {
            for rec in &t.apps {
                let _ = write!(out, "tapp {} ", t.id);
                encode_app_record(&mut out, rec);
                out.push('\n');
            }
        }
        // The explicit trailer is what makes *tail* truncation
        // detectable: the line grammar alone cannot tell a complete
        // document from one whose final record lines were cut off.
        out.push_str("end\n");
        out
    }

    /// Parses the text format.
    pub fn decode(text: &str) -> Result<Snapshot, String> {
        Self::decode_with_header(text, HEADER)
    }

    /// Parses a replication delta document (see [`Snapshot::encode_delta`]).
    pub fn decode_delta(text: &str) -> Result<Snapshot, String> {
        Self::decode_with_header(text, DELTA_HEADER)
    }

    fn decode_with_header(text: &str, want: &str) -> Result<Snapshot, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty snapshot")?;
        if header != want {
            return Err(format!("bad header '{header}'"));
        }
        let policy_line = lines.next().ok_or("missing policy line")?;
        let policy_label = policy_line
            .strip_prefix("policy ")
            .ok_or("missing policy line")?
            .to_owned();

        let mut prod_clock = None;
        let mut saw_end = false;
        let mut apps: Vec<AppRecord> = Vec::new();
        let mut declared: Option<usize> = None;
        let mut default_ledger = LedgerExport::default();
        let mut tenants: Vec<TenantSnapshot> = Vec::new();
        let mut tenant_declared: Vec<(TenantId, usize)> = Vec::new();

        fn tenant_mut(
            tenants: &mut [TenantSnapshot],
            id: TenantId,
        ) -> Result<&mut TenantSnapshot, String> {
            tenants
                .iter_mut()
                .find(|t| t.id == id)
                .ok_or_else(|| format!("unknown tenant id {id}"))
        }

        for line in lines {
            if line.is_empty() {
                continue;
            }
            if saw_end {
                return Err(format!("content after end marker: '{line}'"));
            }
            let mut tok = line.split(' ');
            match tok.next() {
                Some("end") => {
                    saw_end = true;
                }
                Some("clock") => {
                    prod_clock = Some(parse_field::<u64>(tok.next(), "clock")?);
                }
                Some("dledger") => {
                    default_ledger.evictions = parse_field(tok.next(), "evictions")?;
                    default_ledger.idle_mb_ms = parse_field(tok.next(), "idle_mb_ms")?;
                    default_ledger.cursor_ms = parse_field(tok.next(), "cursor_ms")?;
                }
                Some("dwarm") => {
                    let app = decode_app(tok.next().ok_or("missing warm app")?)?;
                    let expiry = parse_field::<u64>(tok.next(), "warm expiry")?;
                    let mb = parse_field::<u64>(tok.next(), "warm mb")?;
                    default_ledger.warm.push((app, expiry, mb));
                }
                Some("tenant") => {
                    let id = parse_field::<TenantId>(tok.next(), "tenant id")?;
                    let name = tok.next().ok_or("missing tenant name")?.to_owned();
                    let budget_mb = parse_field::<u64>(tok.next(), "tenant budget")?;
                    let napps = parse_field::<usize>(tok.next(), "tenant app count")?;
                    let policy_label = tok.next().ok_or("missing tenant policy")?.to_owned();
                    let spec_str = match tok.next() {
                        None => None,
                        Some("spec") => Some(tok.next().ok_or("missing spec")?.to_owned()),
                        Some(other) => return Err(format!("unexpected token '{other}'")),
                    };
                    if tenant_declared.iter().any(|(i, _)| *i == id) {
                        return Err(format!("duplicate tenant id {id}"));
                    }
                    tenant_declared.push((id, napps));
                    tenants.push(TenantSnapshot {
                        id,
                        name,
                        policy_label,
                        spec_str,
                        budget_mb,
                        prod_clock: None,
                        ledger: LedgerExport::default(),
                        apps: Vec::with_capacity(napps),
                    });
                }
                Some("tclock") => {
                    let id = parse_field::<TenantId>(tok.next(), "tenant id")?;
                    let clock = parse_field::<u64>(tok.next(), "tclock")?;
                    tenant_mut(&mut tenants, id)?.prod_clock = Some(clock);
                }
                Some("tledger") => {
                    let id = parse_field::<TenantId>(tok.next(), "tenant id")?;
                    let t = tenant_mut(&mut tenants, id)?;
                    t.ledger.evictions = parse_field(tok.next(), "evictions")?;
                    t.ledger.idle_mb_ms = parse_field(tok.next(), "idle_mb_ms")?;
                    t.ledger.cursor_ms = parse_field(tok.next(), "cursor_ms")?;
                }
                Some("twarm") => {
                    let id = parse_field::<TenantId>(tok.next(), "tenant id")?;
                    let app = decode_app(tok.next().ok_or("missing warm app")?)?;
                    let expiry = parse_field::<u64>(tok.next(), "warm expiry")?;
                    let mb = parse_field::<u64>(tok.next(), "warm mb")?;
                    tenant_mut(&mut tenants, id)?
                        .ledger
                        .warm
                        .push((app, expiry, mb));
                }
                Some("apps") => {
                    declared = Some(parse_field::<usize>(tok.next(), "app count")?);
                }
                Some("app") => {
                    apps.push(decode_app_record(tok)?);
                }
                Some("tapp") => {
                    let id = parse_field::<TenantId>(tok.next(), "tenant id")?;
                    let rec = decode_app_record(tok)?;
                    tenant_mut(&mut tenants, id)?.apps.push(rec);
                }
                _ => return Err(format!("unexpected line '{line}'")),
            }
        }
        if !saw_end {
            return Err("missing end marker (truncated document?)".into());
        }
        let declared = declared.ok_or("missing apps line")?;
        if apps.len() != declared {
            return Err(format!(
                "app count mismatch: declared {declared}, found {}",
                apps.len()
            ));
        }
        for (id, napps) in tenant_declared {
            let t = tenants
                .iter()
                .find(|t| t.id == id)
                .expect("declared tenants were pushed");
            if t.apps.len() != napps {
                return Err(format!(
                    "tenant {id} app count mismatch: declared {napps}, found {}",
                    t.apps.len()
                ));
            }
        }
        Ok(Snapshot {
            policy_label,
            prod_clock,
            apps,
            default_ledger,
            tenants,
        })
    }

    /// Writes the snapshot to a file (atomically via a sibling temp file).
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.encode().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads a snapshot file.
    pub fn read_from(path: &Path) -> io::Result<Snapshot> {
        match Snapshot::load(path) {
            Ok(snap) => Ok(snap),
            Err(SnapshotError::Io(e)) => Err(e),
            Err(SnapshotError::Corrupt(e)) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Reads a snapshot file with a typed error, so callers can tell a
    /// missing/unreadable file from a truncated or corrupt one (the
    /// daemon degrades to empty state on the latter instead of dying).
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        // Non-UTF-8 content is a corrupt *file*, not an I/O failure:
        // the read succeeded, the contents are garbage.
        let text = String::from_utf8(bytes)
            .map_err(|_| SnapshotError::Corrupt("snapshot is not UTF-8 text".into()))?;
        Snapshot::decode(&text).map_err(SnapshotError::Corrupt)
    }
}

/// Applies a replication delta onto an accumulated base snapshot: app
/// records upsert by `(tenant, app)`, everything else — tenant list,
/// ledgers, clocks, budgets, the policy label — is replaced wholesale
/// (deltas carry those as absolute values every round). Tenants absent
/// from the delta are removed (they migrated away or were taken).
///
/// Apps are never removed individually: shards only ever flag evictions
/// (the flag rides the app record) and remove state per whole tenant,
/// so upsert-plus-tenant-replacement reproduces the primary's state
/// exactly. The failover parity tests assert this bit-for-bit.
pub fn apply_delta(base: &mut Snapshot, delta: Snapshot) {
    fn upsert_apps(base: &mut Vec<AppRecord>, fresh: Vec<AppRecord>) {
        for rec in fresh {
            match base.binary_search_by(|b| b.app.cmp(&rec.app)) {
                Ok(i) => base[i] = rec,
                Err(i) => base.insert(i, rec),
            }
        }
    }
    base.policy_label = delta.policy_label;
    base.prod_clock = delta.prod_clock;
    base.default_ledger = delta.default_ledger;
    upsert_apps(&mut base.apps, delta.apps);
    let mut tenants: Vec<TenantSnapshot> = Vec::with_capacity(delta.tenants.len());
    for mut t in delta.tenants {
        let apps = std::mem::take(&mut t.apps);
        if let Some(old) = base.tenants.iter_mut().find(|b| b.id == t.id) {
            t.apps = std::mem::take(&mut old.apps);
        }
        upsert_apps(&mut t.apps, apps);
        tenants.push(t);
    }
    tenants.sort_by_key(|t| t.id);
    base.tenants = tenants;
}

/// Serializes one tenant's exported state as a standalone migration
/// payload — the snapshot text format carrying exactly one tenant
/// section and no default-tenant state. The placeholder policy label
/// `-` marks the file as a section, not a full snapshot.
pub fn encode_tenant_section(t: &TenantExport) -> String {
    let snap = Snapshot {
        policy_label: "-".into(),
        prod_clock: None,
        apps: Vec::new(),
        default_ledger: LedgerExport::default(),
        tenants: vec![TenantSnapshot {
            id: t.id,
            name: t.name.clone(),
            policy_label: t.policy_label.clone(),
            spec_str: t.spec_str.clone(),
            budget_mb: t.budget_mb,
            prod_clock: t.prod_clock,
            ledger: t.ledger.clone(),
            apps: t.apps.clone(),
        }],
    };
    snap.encode()
}

/// Parses a migration payload produced by [`encode_tenant_section`].
///
/// # Errors
///
/// Fails on malformed text or when the payload does not carry exactly
/// one tenant section.
pub fn decode_tenant_section(text: &str) -> Result<TenantSnapshot, String> {
    let snap = Snapshot::decode(text)?;
    if snap.tenants.len() != 1 {
        return Err(format!(
            "migration payload must carry exactly one tenant, found {}",
            snap.tenants.len()
        ));
    }
    if !snap.apps.is_empty() {
        return Err("migration payload must not carry default-tenant apps".into());
    }
    Ok(snap.tenants.into_iter().next().expect("length checked"))
}

fn parse_field<T: std::str::FromStr>(tok: Option<&str>, name: &str) -> Result<T, String> {
    tok.ok_or_else(|| format!("missing {name}"))?
        .parse::<T>()
        .map_err(|_| format!("bad {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::{AppPolicy, DecisionKind, HybridConfig, PolicyFactory, PolicySpec, MINUTE_MS};
    use sitw_fleet::ServedPolicy;

    fn hybrid_record() -> AppRecord {
        let mut p = HybridConfig::default().new_policy();
        p.on_invocation(None);
        for i in 0..30u64 {
            p.on_invocation(Some((10 + i % 3) * MINUTE_MS));
        }
        let windows = p.on_invocation(Some(11 * MINUTE_MS));
        AppRecord {
            app: "app-000001".into(),
            last_ts: 123_456_789,
            windows,
            evicted: false,
            state: PolicyState::Hybrid(p.app().snapshot()),
        }
    }

    fn empty_default(policy_label: &str, apps: Vec<AppRecord>) -> Snapshot {
        Snapshot {
            policy_label: policy_label.into(),
            prod_clock: None,
            apps,
            default_ledger: LedgerExport::default(),
            tenants: Vec::new(),
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let snap = empty_default(
            "hybrid-4h[5,99]cv2",
            vec![
                AppRecord {
                    app: "plain".into(),
                    last_ts: 7,
                    windows: Windows::keep_loaded(600_000),
                    evicted: false,
                    state: PolicyState::Stateless,
                },
                hybrid_record(),
                AppRecord {
                    app: "odd name %20\nwith\rbad chars".into(),
                    last_ts: 0,
                    windows: Windows::pre_warmed(1, 2),
                    evicted: true,
                    state: PolicyState::Stateless,
                },
            ],
        );
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn tenant_sections_round_trip_exactly() {
        let snap = Snapshot {
            policy_label: "fixed-10min".into(),
            prod_clock: None,
            apps: vec![AppRecord {
                app: "d".into(),
                last_ts: 3,
                windows: Windows::keep_loaded(600_000),
                evicted: false,
                state: PolicyState::Stateless,
            }],
            default_ledger: LedgerExport {
                warm: vec![("d".into(), 600_003, 171)],
                evictions: 0,
                idle_mb_ms: 513,
                cursor_ms: 3,
            },
            tenants: vec![
                TenantSnapshot {
                    id: 1,
                    name: "acme".into(),
                    policy_label: "hybrid-4h[5,99]cv2".into(),
                    spec_str: Some("hybrid".into()),
                    budget_mb: 4096,
                    prod_clock: None,
                    ledger: LedgerExport {
                        warm: vec![("a".into(), 1_000, 100), ("b".into(), 2_000, 50)],
                        evictions: 7,
                        idle_mb_ms: 12_345,
                        cursor_ms: 900,
                    },
                    apps: vec![AppRecord {
                        app: "a".into(),
                        last_ts: 900,
                        windows: Windows::keep_loaded(100),
                        evicted: true,
                        state: PolicyState::Hybrid(HybridSnapshot {
                            bins: vec![0; 240],
                            oob_count: 1,
                            history: vec![0.5],
                            counts: DecisionCounts::default(),
                            last_decision: DecisionKind::StandardKeepAlive,
                        }),
                    }],
                },
                TenantSnapshot {
                    id: 2,
                    name: "batch".into(),
                    policy_label: "production-240m-14d[5,99]exp0.85".into(),
                    spec_str: Some("production".into()),
                    budget_mb: 0,
                    prod_clock: Some(7_200_000),
                    ledger: LedgerExport::default(),
                    apps: vec![AppRecord {
                        app: "p".into(),
                        last_ts: 100,
                        windows: Windows::pre_warmed(60_000, 120_000),
                        evicted: false,
                        state: PolicyState::Production {
                            last: DecisionKind::Histogram,
                            state: ProductionAppState {
                                days: vec![DayHistogram {
                                    day: 1,
                                    bins: vec![0; 240],
                                    oob: 3,
                                }],
                            },
                        },
                    }],
                },
            ],
        };
        let text = snap.encode();
        assert!(text.contains("tenant 1 acme 4096 1 hybrid-4h[5,99]cv2 spec hybrid"));
        assert!(text.contains("tledger 1 7 12345 900"));
        assert!(text.contains("twarm 1 a 1000 100"));
        assert!(text.contains("tclock 2 7200000"));
        assert!(text.contains("tapp 1 a 900 0 100 evicted hybrid"));
        let decoded = Snapshot::decode(&text).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn tenant_section_round_trips_for_migration() {
        let export = TenantExport {
            id: 3,
            name: "mover".into(),
            policy_label: "fixed-10min".into(),
            spec_str: Some("fixed:10".into()),
            budget_mb: 256,
            prod_clock: None,
            ledger: LedgerExport {
                warm: vec![("a".into(), 1_000, 100)],
                evictions: 2,
                idle_mb_ms: 999,
                cursor_ms: 500,
            },
            apps: vec![AppRecord {
                app: "a".into(),
                last_ts: 500,
                windows: Windows::keep_loaded(600_000),
                evicted: false,
                state: PolicyState::Stateless,
            }],
        };
        let text = encode_tenant_section(&export);
        let section = decode_tenant_section(&text).unwrap();
        assert_eq!(section.name, export.name);
        assert_eq!(section.budget_mb, export.budget_mb);
        assert_eq!(section.ledger, export.ledger);
        assert_eq!(section.apps, export.apps);
        // A full snapshot (zero or two tenants) is not a migration payload.
        assert!(decode_tenant_section(&format!("{HEADER}\npolicy x\napps 0\n")).is_err());
    }

    #[test]
    fn pre_fleet_files_decode_with_empty_tenant_state() {
        let text = format!("{HEADER}\npolicy fixed-10min\napps 1\napp a 5 0 600000\nend\n");
        let snap = Snapshot::decode(&text).unwrap();
        assert!(snap.tenants.is_empty());
        assert_eq!(snap.default_ledger, LedgerExport::default());
        assert_eq!(snap.apps.len(), 1);
        assert!(!snap.apps[0].evicted);
    }

    #[test]
    fn history_floats_round_trip_bit_exactly() {
        let values = [0.1f64, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, 300.0];
        let snap = empty_default(
            "hybrid-4h[5,99]cv2",
            vec![AppRecord {
                app: "a".into(),
                last_ts: 1,
                windows: Windows::keep_loaded(1),
                evicted: false,
                state: PolicyState::Hybrid(HybridSnapshot {
                    bins: vec![0; 240],
                    oob_count: 3,
                    history: values.to_vec(),
                    counts: DecisionCounts::default(),
                    last_decision: sitw_core::DecisionKind::Arima,
                }),
            }],
        );
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        match &decoded.apps[0].state {
            PolicyState::Hybrid(h) => {
                for (a, b) in h.history.iter().zip(&values) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn production_state_and_clock_round_trip() {
        let mut bins = vec![0u32; 240];
        bins[30] = 12;
        bins[31] = 3;
        let mut snap = empty_default(
            "production-240m-14d[5,99]exp0.85",
            vec![AppRecord {
                app: "app-000009".into(),
                last_ts: 999_000,
                windows: Windows::pre_warmed(27 * 60_000, 9 * 60_000),
                evicted: false,
                state: PolicyState::Production {
                    last: DecisionKind::Histogram,
                    state: ProductionAppState {
                        days: vec![
                            DayHistogram {
                                day: 3,
                                bins: bins.clone(),
                                oob: 2,
                            },
                            DayHistogram {
                                day: 5,
                                bins,
                                oob: 0,
                            },
                        ],
                    },
                },
            }],
        );
        snap.prod_clock = Some(7 * 3_600_000);
        let text = snap.encode();
        assert!(text.contains("clock 25200000"), "{text}");
        assert!(text.contains(" production histogram days 2 "), "{text}");
        let decoded = Snapshot::decode(&text).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn production_state_restores_only_into_production_shards() {
        // A production app's days are rebuilt under a production spec
        // only; any other spec refuses them loudly.
        let state = PolicyState::Production {
            last: DecisionKind::StandardKeepAlive,
            state: ProductionAppState::default(),
        };
        assert!(state
            .clone()
            .into_policy(&PolicySpec::fixed_minutes(10))
            .is_err());
        assert!(state
            .into_policy(&PolicySpec::Production(
                sitw_core::ProductionConfig::default()
            ))
            .is_ok());
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Snapshot::decode("").is_err());
        assert!(Snapshot::decode("wrong header\npolicy x\napps 0\n").is_err());
        assert!(Snapshot::decode(&format!("{HEADER}\npolicy x\napps 2\n")).is_err());
        assert!(
            Snapshot::decode(&format!("{HEADER}\npolicy x\napps 1\napp a notanum 0 0\n")).is_err()
        );
        // A tapp line naming an undeclared tenant id.
        assert!(
            Snapshot::decode(&format!("{HEADER}\npolicy x\napps 0\ntapp 3 a 1 0 0\n")).is_err()
        );
        // Declared tenant app count mismatch.
        assert!(Snapshot::decode(&format!(
            "{HEADER}\npolicy x\ntenant 1 t 0 2 fixed-10min\napps 0\ntapp 1 a 1 0 0\n"
        ))
        .is_err());
    }

    #[test]
    fn file_round_trip() {
        let snap = empty_default(
            "fixed-10min",
            vec![AppRecord {
                app: "a".into(),
                last_ts: 5,
                windows: Windows::keep_loaded(600_000),
                evicted: false,
                state: PolicyState::Stateless,
            }],
        );
        let dir = std::env::temp_dir().join("sitw-serve-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        snap.write_to(&path).unwrap();
        assert_eq!(Snapshot::read_from(&path).unwrap(), snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_restores_into_matching_spec_only() {
        let rec = hybrid_record();
        let spec = PolicySpec::Hybrid(HybridConfig::default());
        let restored = rec.state.clone().into_policy(&spec).unwrap();
        match restored {
            ServedPolicy::Hybrid(h) => match &rec.state {
                PolicyState::Hybrid(s) => assert_eq!(&h.snapshot(), s),
                _ => unreachable!(),
            },
            other => panic!("wrong variant {other:?}"),
        }
        assert!(rec
            .state
            .into_policy(&PolicySpec::fixed_minutes(10))
            .is_err());
    }

    #[test]
    fn delta_header_and_snapshot_header_are_disjoint() {
        let snap = empty_default("fixed-10min", vec![]);
        let full = snap.encode();
        let delta = snap.encode_delta();
        assert!(Snapshot::decode(&full).is_ok());
        assert!(Snapshot::decode(&delta).is_err(), "delta is not a snapshot");
        assert!(Snapshot::decode_delta(&delta).is_ok());
        assert!(Snapshot::decode_delta(&full).is_err());
    }

    #[test]
    fn apply_delta_upserts_apps_and_replaces_tenants() {
        let app = |id: &str, ts: u64| AppRecord {
            app: id.into(),
            last_ts: ts,
            windows: Windows::keep_loaded(600_000),
            evicted: false,
            state: PolicyState::Stateless,
        };
        let tenant = |id: TenantId, name: &str, apps: Vec<AppRecord>| TenantSnapshot {
            id,
            name: name.into(),
            policy_label: "fixed-10min".into(),
            spec_str: Some("fixed:10".into()),
            budget_mb: 0,
            prod_clock: None,
            ledger: LedgerExport::default(),
            apps,
        };
        let mut base = Snapshot {
            policy_label: "fixed-10min".into(),
            prod_clock: None,
            apps: vec![app("a", 1), app("c", 1)],
            default_ledger: LedgerExport::default(),
            tenants: vec![
                tenant(1, "keep", vec![app("x", 1)]),
                tenant(2, "gone", vec![app("y", 1)]),
            ],
        };
        // Delta: app "c" advanced, new app "b", tenant 1 carried whole
        // with a dirty app, tenant 2 absent (migrated away), tenant 3
        // new, and ledger counters replaced wholesale.
        let delta = Snapshot {
            policy_label: "fixed-10min".into(),
            prod_clock: Some(7),
            apps: vec![app("b", 5), app("c", 9)],
            default_ledger: LedgerExport {
                warm: vec![("c".into(), 600_009, 100)],
                evictions: 0,
                idle_mb_ms: 42,
                cursor_ms: 9,
            },
            tenants: vec![
                tenant(1, "keep", vec![app("z", 3)]),
                tenant(3, "new", vec![app("w", 2)]),
            ],
        };
        // The delta round-trips through its wire document.
        let delta = Snapshot::decode_delta(&delta.encode_delta()).unwrap();
        apply_delta(&mut base, delta);
        let ids: Vec<&str> = base.apps.iter().map(|a| a.app.as_str()).collect();
        assert_eq!(ids, vec!["a", "b", "c"]);
        assert_eq!(base.apps[2].last_ts, 9, "dirty app replaced");
        assert_eq!(base.apps[0].last_ts, 1, "clean app untouched");
        assert_eq!(base.default_ledger.idle_mb_ms, 42);
        assert_eq!(base.prod_clock, Some(7));
        let names: Vec<&str> = base.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["keep", "new"], "absent tenant removed");
        let keep = &base.tenants[0];
        let kept: Vec<&str> = keep.apps.iter().map(|a| a.app.as_str()).collect();
        assert_eq!(kept, vec!["x", "z"], "tenant apps upsert, not replace");
    }

    /// Regression (this PR's bugfix satellite): restoring a truncated
    /// or corrupt snapshot file must fail with a typed error — and the
    /// daemon must keep serving from empty state — never panic
    /// mid-parse.
    #[test]
    fn corrupt_files_load_as_typed_errors() {
        let dir = std::env::temp_dir().join("sitw-serve-corrupt-snap-test");
        std::fs::create_dir_all(&dir).unwrap();

        // A valid snapshot truncated mid-document (the crash-mid-write
        // shape `write_to`'s atomic rename prevents, but an operator
        // copying files can still produce).
        let snap = empty_default("hybrid-4h[5,99]cv2", vec![hybrid_record()]);
        let text = snap.encode();
        for cut in [text.len() / 3, text.len() - 2] {
            let path = dir.join("truncated.snap");
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            match Snapshot::load(&path) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("cut {cut}: expected Corrupt, got {other:?}"),
            }
        }

        // Binary garbage.
        let path = dir.join("garbage.snap");
        std::fs::write(&path, [0u8, 159, 146, 150, 0x5B, 0xFF]).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(SnapshotError::Corrupt(_))
        ));

        // A missing file is Io, not Corrupt.
        assert!(matches!(
            Snapshot::load(&dir.join("nonexistent.snap")),
            Err(SnapshotError::Io(_))
        ));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
