//! The snapshot text codec as it was before documents streamed: one
//! `String` in, one `String` out. Kept test-only as the reference the
//! streaming [`crate::snapshot::Decoder`] and the sink encoder are
//! checked against (`snapshot::tests`), verbatim but for the two entry
//! points becoming free functions.

use sitw_core::{DayHistogram, DecisionCounts, HybridSnapshot, ProductionAppState, Windows};
use sitw_fleet::{LedgerExport, TenantId};

use crate::snapshot::{AppRecord, PolicyState, Snapshot, TenantSnapshot};
use crate::wire::{kind_from_str, kind_str};

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

pub(crate) fn encode_ref(snap: &Snapshot, header: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + snap.apps.len() * 128);
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "policy {}", snap.policy_label);
    if let Some(clock) = snap.prod_clock {
        let _ = writeln!(out, "clock {clock}");
    }
    if !ledger_is_empty(&snap.default_ledger) {
        let l = &snap.default_ledger;
        let _ = writeln!(
            out,
            "dledger {} {} {}",
            l.evictions, l.idle_mb_ms, l.cursor_ms
        );
        for (app, expiry, mb) in &l.warm {
            let _ = writeln!(out, "dwarm {} {expiry} {mb}", encode_app(app));
        }
    }
    for t in &snap.tenants {
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
    let _ = writeln!(out, "apps {}", snap.apps.len());
    for rec in &snap.apps {
        out.push_str("app ");
        encode_app_record(&mut out, rec);
        out.push('\n');
    }
    for t in &snap.tenants {
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

pub(crate) fn decode_ref(text: &str, want: &str) -> Result<Snapshot, String> {
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

fn parse_field<T: std::str::FromStr>(tok: Option<&str>, name: &str) -> Result<T, String> {
    tok.ok_or_else(|| format!("missing {name}"))?
        .parse::<T>()
        .map_err(|_| format!("bad {name}"))
}
