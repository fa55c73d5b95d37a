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
//! Documents are read and written in bounded memory, byte for byte the
//! format they always were. Every reader — [`Snapshot::load`], a
//! standby's replication rounds, [`Snapshot::decode`], a node restoring
//! its snapshot file — pushes bytes through one [`Decoder`], which holds
//! at most one partial line of at most [`MAX_LINE_BYTES`] and hands each
//! app record to its [`Records`]: [`Collect`] keeps them in the decoded
//! [`Snapshot`], and a restoring node sends them to the threads that
//! build its shards (`crate::restore`), so no `Snapshot` of the file is
//! ever built. Every writer —
//! [`Snapshot::write_to`], a primary's replication round,
//! [`Snapshot::encode`] — runs one encoder over an [`io::Write`] sink a
//! line at a time. So restoring a node, writing its snapshot and serving
//! a full sync never hold the document beside the state it describes.
//!
//! A record's two comma lists — histogram bins and ARIMA history — are
//! nearly all of a document and nearly all of a decode. Each is parsed
//! in one scan into a vector allocated once at its length, with fast
//! paths for exactly what the encoder writes: a bin that is one decimal
//! digit, a history value that is 16 hex digits, each followed by a `,`
//! or the token's end, both checked and converted a word at a time. An
//! item a fast path does not take whole — a `+`, a longer or shorter
//! run, a non-digit anywhere in the window, a comma inside it — goes to
//! the parser every other number field uses. So the fast paths never
//! widen what the decoder accepts or change an error it returns; the
//! whole-string codec kept test-only in `snapshot_ref` is the reference
//! for both. An app name without a `%` is copied once; only escaped
//! names are decoded character by character. The encoder writes the
//! same two shapes without its general number loop.
//!
//! One deliberate imprecision: the default tenant's ledger is sharded by
//! app hash, so its *integral* is merged (summed, cursor = max) at
//! snapshot time and re-seeded on shard 0 at restore. Decisions are
//! unaffected (the default tenant is unbudgeted and never evicts) — only
//! the fleet-wide idle-MB·ms metric can undercount across a restart that
//! also changes the shard count. Budgeted tenants live whole on one
//! shard, so their ledgers restore exactly.

use std::ffi::OsStr;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sitw_core::spec::MAX_RETENTION_DAYS;
use sitw_core::{DayHistogram, DecisionCounts, HybridSnapshot, ProductionAppState, Windows};
use sitw_fleet::{LedgerExport, TenantId};

use crate::wire::{kind_from_str, kind_str, push_u64};

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

/// The longest line a [`Decoder`] takes, counting every byte before its
/// `\n`; a longer one is corrupt. It holds the longest app record a
/// node can write: an app name as long as a whole `/invoke` body with
/// every byte escaped to three, plus the largest policy state a parsed
/// spec allows — a production app keeping [`MAX_RETENTION_DAYS`] days of
/// 240 ten-digit bins, about 960 KiB (a 24 h hybrid histogram with its
/// history is under 20 KiB).
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// How many records an `apps` or `tenant` line's count reserves room for
/// before they arrive: a lying count costs at most this much.
pub(crate) const MAX_RESERVED_APPS: usize = 1 << 16;

/// The read size of [`Snapshot::load`] and the write buffer of
/// [`Snapshot::write_to`].
const IO_BYTES: usize = 64 * 1024;

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

/// Appends `app` with the characters that would break the line format
/// percent-encoded.
fn push_app(out: &mut Vec<u8>, app: &str) {
    for b in app.bytes() {
        match b {
            b' ' => out.extend_from_slice(b"%20"),
            b'%' => out.extend_from_slice(b"%25"),
            b'\n' => out.extend_from_slice(b"%0A"),
            b'\r' => out.extend_from_slice(b"%0D"),
            b => out.push(b),
        }
    }
}

pub(crate) fn decode_app(enc: &str) -> Result<String, String> {
    // What the encoder writes for an ordinary name: nothing escaped, so
    // one exact copy.
    if !enc.as_bytes().contains(&b'%') {
        return Ok(enc.to_owned());
    }
    let mut out = String::with_capacity(enc.len());
    let mut chars = enc.chars();
    while let Some(c) = chars.next() {
        if c == '%' {
            // Escapes are always two ASCII hex digits (see push_app).
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

/// Appends `values` as a comma-separated list, each written by `push`.
fn push_list<T: Copy>(out: &mut Vec<u8>, values: &[T], push: impl Fn(&mut Vec<u8>, T)) {
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push(out, v);
    }
}

/// Appends a bin; most are one digit, written without the general loop.
fn push_bin(out: &mut Vec<u8>, v: u32) {
    match u8::try_from(v) {
        Ok(d @ 0..=9) => out.push(b'0' + d),
        _ => push_u64(out, u64::from(v)),
    }
}

/// Appends a float's IEEE-754 bit pattern as 16 lowercase hex digits.
fn push_bits(out: &mut Vec<u8>, v: f64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = v.to_bits();
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&digits);
}

/// Appends one app record's line payload (everything after the leading
/// keyword and optional tenant id).
fn push_app_record(out: &mut Vec<u8>, rec: &AppRecord) {
    push_app(out, &rec.app);
    for v in [
        rec.last_ts,
        rec.windows.pre_warm_ms,
        rec.windows.keep_alive_ms,
    ] {
        out.push(b' ');
        push_u64(out, v);
    }
    if rec.evicted {
        out.extend_from_slice(b" evicted");
    }
    match &rec.state {
        PolicyState::Stateless => {}
        PolicyState::Production { last, state } => {
            out.extend_from_slice(b" production ");
            out.extend_from_slice(kind_str(*last).as_bytes());
            out.extend_from_slice(b" days ");
            push_u64(out, state.days.len() as u64);
            for d in &state.days {
                out.push(b' ');
                push_u64(out, d.day);
                out.push(b':');
                push_u64(out, d.oob);
                out.push(b':');
                push_list(out, &d.bins, push_bin);
            }
        }
        PolicyState::Hybrid(h) => {
            out.extend_from_slice(b" hybrid");
            let c = &h.counts;
            for v in [h.oob_count, c.histogram, c.standard, c.arima] {
                out.push(b' ');
                push_u64(out, v);
            }
            out.push(b' ');
            out.extend_from_slice(kind_str(h.last_decision).as_bytes());
            out.extend_from_slice(b" bins ");
            if h.bins.is_empty() {
                out.push(b'-');
            }
            push_list(out, &h.bins, push_bin);
            out.extend_from_slice(b" hist ");
            if h.history.is_empty() {
                out.push(b'-');
            }
            push_list(out, &h.history, push_bits);
        }
    }
}

/// Each byte's value as a hexadecimal digit (so also as a decimal one
/// below 10), or `0xFF` for a byte that is no digit in either base.
const DIGITS: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// How many base-`radix` digits always fit a `u64`, so that wrapping
/// arithmetic over that many is exact.
const fn safe_digits(radix: u32) -> usize {
    match radix {
        10 => 19,
        16 => 16,
        _ => panic!("numbers are decimal or hexadecimal"),
    }
}

/// `digits` read in base `RADIX` with wrapping arithmetic (exact up to
/// [`safe_digits`] of them), or `None` when one is not a digit.
#[inline(always)]
fn wrapping_digits<const RADIX: u32>(digits: &[u8]) -> Option<u64> {
    let (mut v, mut bad) = (0u64, false);
    for &c in digits {
        let d = DIGITS[c as usize];
        bad |= u32::from(d) >= RADIX;
        v = v.wrapping_mul(u64::from(RADIX)).wrapping_add(u64::from(d));
    }
    (!bad).then_some(v)
}

/// An unsigned number in base `RADIX` as `u64::from_str_radix` (and so
/// `str::parse`) reads one: an optional `+`, then at least one digit,
/// and no overflow. Only a number longer than [`safe_digits`] pays for
/// checked arithmetic.
fn number<const RADIX: u32>(b: &[u8]) -> Option<u64> {
    let digits = b.strip_prefix(b"+").unwrap_or(b);
    match digits.len() {
        0 => None,
        n if n <= safe_digits(RADIX) => wrapping_digits::<RADIX>(digits),
        _ => digits.iter().try_fold(0u64, |v, &c| {
            let d = DIGITS[c as usize];
            if u32::from(d) >= RADIX {
                return None;
            }
            v.checked_mul(u64::from(RADIX))?.checked_add(u64::from(d))
        }),
    }
}

/// The next token as a `T`: `missing {name}` when there is none, `bad
/// {name}` when it does not parse.
fn field<'a, T: TryFrom<u64>>(
    tok: &mut impl Iterator<Item = &'a str>,
    name: &str,
) -> Result<T, String> {
    let t = tok.next().ok_or_else(|| format!("missing {name}"))?;
    number::<10>(t.as_bytes())
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| format!("bad {name}"))
}

/// How wide the encoder writes a list item in the common case: nearly
/// every bin is one digit, every history value 16.
const fn fast_width(radix: u32) -> usize {
    match radix {
        10 => 1,
        16 => 16,
        _ => panic!("lists are decimal or hexadecimal"),
    }
}

/// `b` in every byte of a word.
const fn bytes(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// How many `,` are in `token`, eight bytes at a time.
fn count_commas(token: &[u8]) -> usize {
    let mut words = token.chunks_exact(8);
    let mut commas = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ bytes(b',');
        // A byte's high bit survives exactly when the byte is zero: its
        // low seven bits plus 0x7F stay below 0x100, so no carry crosses
        // into the next byte.
        let low = bytes(0x7F);
        commas += (!(((x & low) + low) | x | low)).count_ones() as usize;
    }
    commas + words.remainder().iter().filter(|&&c| c == b',').count()
}

/// The high bit of each byte of `x` that lies in `lo..=hi`, for a word
/// whose bytes are all below 0x80: then no byte's sum carries into the
/// next, and `x + 0x80 - lo` sets a byte's high bit exactly when it is
/// at least `lo`, `x + 0x7F - hi` exactly when it is above `hi`.
#[inline(always)]
fn within(x: u64, lo: u8, hi: u8) -> u64 {
    let at_least = x.wrapping_add(bytes(0x80 - lo));
    let above = x.wrapping_add(bytes(0x7F - hi));
    at_least & !above & bytes(0x80)
}

/// Eight hex digits of either case as their value, the first the most
/// significant, or `None` unless every byte is one — a word at a time.
#[inline(always)]
fn hex8(word: [u8; 8]) -> Option<u64> {
    let x = u64::from_le_bytes(word);
    let digit = within(x, b'0', b'9');
    // Setting 0x20 folds `A`–`F` onto `a`–`f` and no other byte onto them.
    let letter = within(x | bytes(0x20), b'a', b'f');
    if x & bytes(0x80) != 0 || digit | letter != bytes(0x80) {
        return None;
    }
    // A digit's value is its low four bits; a letter's those plus 9.
    let nibbles = (x & bytes(0x0F)) + (letter >> 7) * 9;
    // Join neighbours into bytes, bytes into 16-bit halves, halves into
    // the value.
    let pairs = ((nibbles << 4) + (nibbles >> 8)) & 0x00FF_00FF_00FF_00FF;
    let quads = ((pairs << 8) + (pairs >> 16)) & 0x0000_FFFF_0000_FFFF;
    Some(((quads << 16) | (quads >> 32)) & 0xFFFF_FFFF)
}

/// The item at the head of `rest` when it is exactly [`fast_width`]
/// digits followed by a `,` or the token's end — what the encoder
/// writes. `None` sends the item to [`number`], which accepts and
/// refuses what it always did.
#[inline(always)]
fn fast_item<const RADIX: u32>(rest: &[u8]) -> Option<u64> {
    let width = fast_width(RADIX);
    let digits = rest.get(..width)?;
    if rest.get(width).is_some_and(|&c| c != b',') {
        return None;
    }
    if RADIX == 16 {
        let (hi, lo) = (digits.first_chunk()?, digits.last_chunk()?);
        return Some(hex8(*hi)? << 32 | hex8(*lo)?);
    }
    wrapping_digits::<RADIX>(digits)
}

/// Four one-digit items at the head of `rest`, each followed by its
/// comma — [`fast_item`]'s decimal case, a word at a time.
#[inline(always)]
fn four_digits(rest: &[u8]) -> Option<[u64; 4]> {
    const EVEN: u64 = 0x00FF_00FF_00FF_00FF;
    let x = u64::from_le_bytes(*rest.first_chunk()?);
    if x & bytes(0x80) != 0
        || x & !EVEN != bytes(b',') & !EVEN
        || within(x & EVEN, b'0', b'9') != bytes(0x80) & EVEN
    {
        return None;
    }
    let d = x & bytes(0x0F);
    Some([d & 0xF, (d >> 16) & 0xF, (d >> 32) & 0xF, (d >> 48) & 0xF])
}

/// A comma-separated list of [`number`]s (never empty: `""` is one
/// empty item) narrowed by `narrow`, in a vector of exactly its length.
/// An item that does not parse is named in a `bad {what} '{item}'`
/// error. An item the encoder would write takes [`fast_item`] (a run of
/// one-digit bins [`four_digits`], four at a time), any other
/// [`number`], so the grammar is `number`'s either way.
fn list<T, const RADIX: u32>(
    tok: &str,
    what: &str,
    narrow: impl Fn(u64) -> Option<T>,
) -> Result<Vec<T>, String> {
    let b = tok.as_bytes();
    let mut out = Vec::with_capacity(1 + count_commas(b));
    let mut start = 0;
    loop {
        if RADIX == 10 {
            // A value `narrow` refuses is left to the item-by-item path,
            // which names it.
            while let Some([Some(w), Some(x), Some(y), Some(z)]) =
                four_digits(&b[start..]).map(|four| four.map(&narrow))
            {
                out.extend([w, x, y, z]);
                start += 8;
            }
        }
        let (value, end) = match fast_item::<RADIX>(&b[start..]) {
            Some(v) => (Some(v), start + fast_width(RADIX)),
            None => {
                let end =
                    (b[start..].iter().position(|&c| c == b',')).map_or(b.len(), |i| start + i);
                (number::<RADIX>(&b[start..end]), end)
            }
        };
        match value.and_then(&narrow) {
            Some(v) => out.push(v),
            None => return Err(format!("bad {what} '{}'", &tok[start..end])),
        }
        if end == b.len() {
            return Ok(out);
        }
        start = end + 1;
    }
}

fn bin(v: u64) -> Option<u32> {
    u32::try_from(v).ok()
}

/// Parses one app record from its tokens (everything after the leading
/// keyword and optional tenant id).
fn decode_app_record<'a>(mut tok: impl Iterator<Item = &'a str>) -> Result<AppRecord, String> {
    let app = decode_app(tok.next().ok_or("missing app id")?)?;
    let last_ts = field(&mut tok, "last_ts")?;
    let pre_warm_ms = field(&mut tok, "pre_warm_ms")?;
    let keep_alive_ms = field(&mut tok, "keep_alive_ms")?;
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
            let num_days: usize = field(&mut tok, "day count")?;
            let mut days = Vec::with_capacity(num_days.min(MAX_RETENTION_DAYS as usize));
            for _ in 0..num_days {
                let group = tok.next().ok_or("missing day group")?;
                let mut parts = group.splitn(3, ':');
                let day = field(&mut parts, "day index")?;
                let oob = field(&mut parts, "day oob")?;
                let bins = list::<_, 10>(parts.next().ok_or("missing day bins")?, "bin", bin)?;
                days.push(DayHistogram { day, bins, oob });
            }
            PolicyState::Production {
                last,
                state: ProductionAppState { days },
            }
        }
        Some("hybrid") => {
            let oob_count = field(&mut tok, "oob")?;
            let counts = DecisionCounts {
                histogram: field(&mut tok, "hist count")?,
                standard: field(&mut tok, "std count")?,
                arima: field(&mut tok, "arima count")?,
            };
            let last_decision = kind_from_str(tok.next().ok_or("missing kind")?)?;
            if tok.next() != Some("bins") {
                return Err("expected 'bins'".into());
            }
            let bins = match tok.next().ok_or("missing bins")? {
                "-" => Vec::new(),
                t => list::<_, 10>(t, "bin", bin)?,
            };
            if tok.next() != Some("hist") {
                return Err("expected 'hist'".into());
            }
            let history = match tok.next().ok_or("missing history")? {
                "-" => Vec::new(),
                t => list::<_, 16>(t, "history value", |v| Some(f64::from_bits(v)))?,
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

/// The index of the first `\n` in `bytes`, eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ NEWLINES;
        // The lowest byte that is zero sets its high bit here; a higher
        // one may be a false positive, but the lowest is exact.
        let zero = x.wrapping_sub(ONES) & !x & HIGH;
        if zero != 0 {
            return Some(i * 8 + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = bytes.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| tail + i)
}

/// Whether a ledger export carries any information worth a line.
fn ledger_is_empty(l: &LedgerExport) -> bool {
    l.warm.is_empty() && l.evictions == 0 && l.idle_mb_ms == 0 && l.cursor_ms == 0
}

/// Reserves room for the records an `apps` or `tenant` line declares,
/// trusting the count only as far as [`MAX_RESERVED_APPS`] before the
/// records arrive.
fn reserve_declared(apps: &mut Vec<AppRecord>, declared: usize) {
    let want = declared.min(MAX_RESERVED_APPS);
    apps.reserve_exact(want.saturating_sub(apps.len()));
}

fn tenant_mut(tenants: &mut [TenantSnapshot], id: TenantId) -> Result<&mut TenantSnapshot, String> {
    tenants
        .iter_mut()
        .find(|t| t.id == id)
        .ok_or_else(|| format!("unknown tenant id {id}"))
}

/// Where a [`Decoder`] puts a document's app records — the `app` and
/// `tapp` lines that are nearly all of it — while it keeps the rest (the
/// policy, tenants, ledgers and clocks) in its [`Snapshot`] itself.
/// [`Collect`] pushes each record onto that snapshot; the daemon's
/// restore hands each to the thread building the shard that owns it.
pub trait Records {
    /// A `tenant` line was taken: it is the last of `snap.tenants`, and
    /// declares `apps` records.
    fn tenant(&mut self, _snap: &mut Snapshot, _apps: usize) {}

    /// The `apps` line declared `apps` default-tenant records.
    fn apps(&mut self, _snap: &mut Snapshot, _apps: usize) {}

    /// One record, parsed, of the tenant at `tenant` in `snap.tenants`
    /// (`None`: the default tenant).
    fn parsed(&mut self, snap: &mut Snapshot, tenant: Option<usize>, rec: AppRecord);

    /// One record line, number `no`, from its app name on, before it
    /// is parsed or checked to be UTF-8 (everything before the name is
    /// ASCII the decoder has read). By default it is parsed here.
    ///
    /// # Errors
    ///
    /// What [`Snapshot::decode`] says of the line, when it is corrupt.
    fn text(
        &mut self,
        snap: &mut Snapshot,
        no: usize,
        tenant: Option<usize>,
        rest: &[u8],
    ) -> Result<(), String> {
        let rec = parse_record(no, rest)?;
        self.parsed(snap, tenant, rec);
        Ok(())
    }
}

/// The [`Records`] that keeps every record in the decoded [`Snapshot`].
#[derive(Debug, Default)]
pub struct Collect;

impl Records for Collect {
    fn tenant(&mut self, snap: &mut Snapshot, apps: usize) {
        if let Some(t) = snap.tenants.last_mut() {
            reserve_declared(&mut t.apps, apps);
        }
    }

    fn apps(&mut self, snap: &mut Snapshot, apps: usize) {
        reserve_declared(&mut snap.apps, apps);
    }

    fn parsed(&mut self, snap: &mut Snapshot, tenant: Option<usize>, rec: AppRecord) {
        match tenant {
            None => snap.apps.push(rec),
            Some(i) => snap.tenants[i].apps.push(rec),
        }
    }
}

/// Parses record line `no` from its app name on ([`Records::text`]).
///
/// # Errors
///
/// The line is not UTF-8, or its record is corrupt.
pub(crate) fn parse_record(no: usize, rest: &[u8]) -> Result<AppRecord, String> {
    let rest = std::str::from_utf8(rest).map_err(|_| not_utf8(no))?;
    decode_app_record(rest.split(' '))
}

fn not_utf8(no: usize) -> String {
    format!("line {no} is not UTF-8 text")
}

/// The push decoder of one snapshot or delta document: bytes go in
/// through [`Decoder::feed`] in pieces of any size, split anywhere, and
/// [`Decoder::finish`] returns the document. It holds at most one
/// partial line, never longer than [`MAX_LINE_BYTES`], and what its
/// [`Records`] keeps: with [`Collect`], the records decoded so far.
///
/// Lines split as `str::lines` splits them: at `\n`, a `\r` before it
/// dropped, a last line without `\n` still a line. Each complete line
/// must be UTF-8 on its own. Once an error is returned every later call
/// returns it again.
///
/// The decoder runs every check that spans lines — header, order,
/// tenant ids, declared counts, the end marker — and reads of a record
/// line only what says whose it is; [`Records::text`] parses the rest.
/// A record line that fails before its record would be parsed (an
/// unknown tenant, a bad tenant id, content after the end marker) is
/// decoded whole, so it fails with the message it always did.
#[derive(Debug)]
pub struct Decoder<R = Collect> {
    /// The first line the document must carry.
    header: &'static str,
    /// The line begun by the last feed, its `\n` not seen yet.
    partial: Vec<u8>,
    /// Complete lines taken so far.
    lines: usize,
    error: Option<String>,
    snap: Snapshot,
    saw_end: bool,
    /// The `apps` line's count.
    declared: Option<usize>,
    /// Default-tenant records taken so far.
    found: usize,
    /// Each `tenant` line's id, app count and records taken so far, in
    /// document order (the order of `snap.tenants`).
    tenant_declared: Vec<(TenantId, usize, usize)>,
    records: R,
}

impl Decoder {
    /// A decoder for a snapshot document ([`Snapshot::encode`]).
    pub fn snapshot() -> Decoder {
        Decoder::with_records(Collect)
    }

    /// A decoder for a replication delta ([`Snapshot::encode_delta`]).
    pub fn delta() -> Decoder {
        Decoder::new(DELTA_HEADER, Collect)
    }

    /// Ends the document and returns it.
    ///
    /// # Errors
    ///
    /// An error [`Decoder::feed`] returned, a corrupt last line, or a
    /// document that is cut short or whose counts do not match its
    /// records.
    pub fn finish(self) -> Result<Snapshot, String> {
        self.finish_parts().map(|(snap, Collect)| snap)
    }
}

impl<R: Records> Decoder<R> {
    /// A decoder for a snapshot document that hands its records to
    /// `records`.
    pub(crate) fn with_records(records: R) -> Decoder<R> {
        Decoder::new(HEADER, records)
    }

    fn new(header: &'static str, records: R) -> Decoder<R> {
        Decoder {
            header,
            partial: Vec::new(),
            lines: 0,
            error: None,
            snap: Snapshot {
                policy_label: String::new(),
                prod_clock: None,
                apps: Vec::new(),
                default_ledger: LedgerExport::default(),
                tenants: Vec::new(),
            },
            saw_end: false,
            declared: None,
            found: 0,
            tenant_declared: Vec::new(),
            records,
        }
    }

    /// Takes the next bytes of the document.
    ///
    /// # Errors
    ///
    /// The first line that is corrupt, too long or not UTF-8.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let result = self.feed_lines(bytes);
        if let Err(e) = &result {
            self.error = Some(e.clone());
        }
        result
    }

    /// Ends the document: [`Decoder::finish`]'s checks, returning the
    /// document beside the records.
    ///
    /// # Errors
    ///
    /// As [`Decoder::finish`].
    pub(crate) fn finish_parts(mut self) -> Result<(Snapshot, R), String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.partial.is_empty() {
            let last = std::mem::take(&mut self.partial);
            self.line(&last, false)?;
        }
        match self.lines {
            0 => return Err("empty snapshot".into()),
            1 => return Err("missing policy line".into()),
            _ => {}
        }
        if !self.saw_end {
            return Err("missing end marker (truncated document?)".into());
        }
        let declared = self.declared.ok_or("missing apps line")?;
        if self.found != declared {
            return Err(format!(
                "app count mismatch: declared {declared}, found {}",
                self.found
            ));
        }
        for &(id, napps, found) in &self.tenant_declared {
            if found != napps {
                return Err(format!(
                    "tenant {id} app count mismatch: declared {napps}, found {found}"
                ));
            }
        }
        Ok((self.snap, self.records))
    }

    fn feed_lines(&mut self, mut bytes: &[u8]) -> Result<(), String> {
        while let Some(nl) = find_newline(bytes) {
            let (head, rest) = (&bytes[..nl], &bytes[nl + 1..]);
            bytes = rest;
            if self.partial.is_empty() {
                self.line(head, true)?;
            } else {
                self.carry(head)?;
                let mut line = std::mem::take(&mut self.partial);
                let result = self.line(&line, true);
                line.clear();
                self.partial = line;
                result?;
            }
        }
        self.carry(bytes)
    }

    /// Appends to the partial line, refusing to hold more than the cap.
    fn carry(&mut self, bytes: &[u8]) -> Result<(), String> {
        if self.partial.len() + bytes.len() > MAX_LINE_BYTES {
            return Err(self.too_long());
        }
        self.partial.extend_from_slice(bytes);
        Ok(())
    }

    fn too_long(&self) -> String {
        format!(
            "line {} is longer than {MAX_LINE_BYTES} bytes",
            self.lines + 1
        )
    }

    /// Takes one complete line, its `\n` (when `terminated`) already cut.
    fn line(&mut self, raw: &[u8], terminated: bool) -> Result<(), String> {
        if raw.len() > MAX_LINE_BYTES {
            return Err(self.too_long());
        }
        let raw = match raw {
            [head @ .., b'\r'] if terminated => head,
            raw => raw,
        };
        if let Some((tenant, rest)) = self.route(raw) {
            self.lines += 1;
            match tenant {
                None => self.found += 1,
                Some(i) => self.tenant_declared[i].2 += 1,
            }
            return self.records.text(&mut self.snap, self.lines, tenant, rest);
        }
        let line = std::str::from_utf8(raw).map_err(|_| not_utf8(self.lines + 1))?;
        self.lines += 1;
        match self.lines {
            1 if line != self.header => Err(format!("bad header '{line}'")),
            1 => Ok(()),
            2 => {
                let label = line.strip_prefix("policy ").ok_or("missing policy line")?;
                self.snap.policy_label = label.to_owned();
                Ok(())
            }
            _ => self.body_line(line),
        }
    }

    /// Whose record a body line is, and where its record starts: `None`
    /// for any other line, and for a record line that fails before its
    /// record would be parsed.
    fn route<'a>(&self, raw: &'a [u8]) -> Option<(Option<usize>, &'a [u8])> {
        if self.lines < 2 || self.saw_end {
            return None;
        }
        match raw {
            [b'a', b'p', b'p', b' ', rest @ ..] => Some((None, rest)),
            [b't', b'a', b'p', b'p', b' ', rest @ ..] => {
                let space = rest.iter().position(|&b| b == b' ')?;
                let id = number::<10>(&rest[..space]).and_then(|v| TenantId::try_from(v).ok())?;
                let i = self.snap.tenants.iter().position(|t| t.id == id)?;
                Some((Some(i), &rest[space + 1..]))
            }
            _ => None,
        }
    }

    fn body_line(&mut self, line: &str) -> Result<(), String> {
        if line.is_empty() {
            return Ok(());
        }
        if self.saw_end {
            return Err(format!("content after end marker: '{line}'"));
        }
        let snap = &mut self.snap;
        let mut tok = line.split(' ');
        match tok.next() {
            Some("end") => {
                self.saw_end = true;
            }
            Some("clock") => {
                snap.prod_clock = Some(field(&mut tok, "clock")?);
            }
            Some("dledger") => {
                let l = &mut snap.default_ledger;
                l.evictions = field(&mut tok, "evictions")?;
                l.idle_mb_ms = field(&mut tok, "idle_mb_ms")?;
                l.cursor_ms = field(&mut tok, "cursor_ms")?;
            }
            Some("dwarm") => {
                let app = decode_app(tok.next().ok_or("missing warm app")?)?;
                let expiry = field(&mut tok, "warm expiry")?;
                let mb = field(&mut tok, "warm mb")?;
                snap.default_ledger.warm.push((app, expiry, mb));
            }
            Some("tenant") => {
                let id = field(&mut tok, "tenant id")?;
                let name = tok.next().ok_or("missing tenant name")?.to_owned();
                let budget_mb = field(&mut tok, "tenant budget")?;
                let napps = field(&mut tok, "tenant app count")?;
                let policy_label = tok.next().ok_or("missing tenant policy")?.to_owned();
                let spec_str = match tok.next() {
                    None => None,
                    Some("spec") => Some(tok.next().ok_or("missing spec")?.to_owned()),
                    Some(other) => return Err(format!("unexpected token '{other}'")),
                };
                if self.tenant_declared.iter().any(|(i, ..)| *i == id) {
                    return Err(format!("duplicate tenant id {id}"));
                }
                self.tenant_declared.push((id, napps, 0));
                snap.tenants.push(TenantSnapshot {
                    id,
                    name,
                    policy_label,
                    spec_str,
                    budget_mb,
                    prod_clock: None,
                    ledger: LedgerExport::default(),
                    apps: Vec::new(),
                });
                self.records.tenant(snap, napps);
            }
            Some("tclock") => {
                let id = field(&mut tok, "tenant id")?;
                let clock = field(&mut tok, "tclock")?;
                tenant_mut(&mut snap.tenants, id)?.prod_clock = Some(clock);
            }
            Some("tledger") => {
                let id = field(&mut tok, "tenant id")?;
                let l = &mut tenant_mut(&mut snap.tenants, id)?.ledger;
                l.evictions = field(&mut tok, "evictions")?;
                l.idle_mb_ms = field(&mut tok, "idle_mb_ms")?;
                l.cursor_ms = field(&mut tok, "cursor_ms")?;
            }
            Some("twarm") => {
                let id = field(&mut tok, "tenant id")?;
                let app = decode_app(tok.next().ok_or("missing warm app")?)?;
                let expiry = field(&mut tok, "warm expiry")?;
                let mb = field(&mut tok, "warm mb")?;
                let t = tenant_mut(&mut snap.tenants, id)?;
                t.ledger.warm.push((app, expiry, mb));
            }
            Some("apps") => {
                let declared = field(&mut tok, "app count")?;
                self.records.apps(snap, declared);
                self.declared = Some(declared);
            }
            // The record lines `route` turned away.
            Some("app") => {
                let rec = decode_app_record(tok)?;
                self.found += 1;
                self.records.parsed(snap, None, rec);
            }
            Some("tapp") => {
                let id = field(&mut tok, "tenant id")?;
                let rec = decode_app_record(tok)?;
                let i = snap.tenants.iter().position(|t| t.id == id);
                let i = i.ok_or_else(|| format!("unknown tenant id {id}"))?;
                self.tenant_declared[i].2 += 1;
                self.records.parsed(snap, Some(i), rec);
            }
            _ => return Err(format!("unexpected line '{line}'")),
        }
        Ok(())
    }
}

/// A temp file beside `path` that no other path's write, and no other
/// write in this process, shares: the full file name, the process id and
/// a per-process sequence number.
fn temp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut name = path
        .file_name()
        .map(OsStr::to_os_string)
        .unwrap_or_default();
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{}.{seq}.tmp", std::process::id()));
    path.with_file_name(name)
}

impl Snapshot {
    /// Apps held, every tenant's: the default tenant's plus each named
    /// tenant's.
    pub fn app_count(&self) -> u64 {
        let named: usize = self.tenants.iter().map(|t| t.apps.len()).sum();
        (self.apps.len() + named) as u64
    }

    /// Serializes to the text format.
    pub fn encode(&self) -> String {
        self.encode_text(HEADER)
    }

    /// Serializes as a replication delta document: identical line
    /// grammar, delta header. The caller is responsible for `self`
    /// carrying only dirty apps (tenant lines, ledgers, and clocks are
    /// always carried whole — they are absolute values the receiver
    /// replaces wholesale).
    pub fn encode_delta(&self) -> String {
        self.encode_text(DELTA_HEADER)
    }

    fn encode_text(&self, header: &str) -> String {
        let mut out = Vec::with_capacity(64 + self.apps.len() * 128);
        let written = self.encode_with_header(header, &mut out);
        written.expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    /// Writes [`Snapshot::encode`]'s document to `out`, one line at a
    /// time.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn encode_into(&self, out: impl Write) -> io::Result<()> {
        self.encode_with_header(HEADER, out)
    }

    /// Writes [`Snapshot::encode_delta`]'s document to `out`, one line at
    /// a time.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn encode_delta_into(&self, out: impl Write) -> io::Result<()> {
        self.encode_with_header(DELTA_HEADER, out)
    }

    fn encode_with_header(&self, header: &str, mut out: impl Write) -> io::Result<()> {
        // Each line is built here and handed over whole, so the sink
        // sees one write per line and nothing longer than the longest.
        let mut line = Vec::with_capacity(4096);
        let mut put = |line: &mut Vec<u8>| {
            line.push(b'\n');
            let result = out.write_all(line);
            line.clear();
            result
        };
        let _ = write!(line, "{header}");
        put(&mut line)?;
        let _ = write!(line, "policy {}", self.policy_label);
        put(&mut line)?;
        if let Some(clock) = self.prod_clock {
            let _ = write!(line, "clock {clock}");
            put(&mut line)?;
        }
        if !ledger_is_empty(&self.default_ledger) {
            let l = &self.default_ledger;
            let _ = write!(
                line,
                "dledger {} {} {}",
                l.evictions, l.idle_mb_ms, l.cursor_ms
            );
            put(&mut line)?;
            for (app, expiry, mb) in &l.warm {
                line.extend_from_slice(b"dwarm ");
                push_app(&mut line, app);
                let _ = write!(line, " {expiry} {mb}");
                put(&mut line)?;
            }
        }
        for t in &self.tenants {
            let _ = write!(
                line,
                "tenant {} {} {} {} {}",
                t.id,
                t.name,
                t.budget_mb,
                t.apps.len(),
                t.policy_label
            );
            if let Some(spec) = &t.spec_str {
                let _ = write!(line, " spec {spec}");
            }
            put(&mut line)?;
            if let Some(clock) = t.prod_clock {
                let _ = write!(line, "tclock {} {clock}", t.id);
                put(&mut line)?;
            }
            if !ledger_is_empty(&t.ledger) {
                let l = &t.ledger;
                let _ = write!(
                    line,
                    "tledger {} {} {} {}",
                    t.id, l.evictions, l.idle_mb_ms, l.cursor_ms
                );
                put(&mut line)?;
                for (app, expiry, mb) in &l.warm {
                    let _ = write!(line, "twarm {} ", t.id);
                    push_app(&mut line, app);
                    let _ = write!(line, " {expiry} {mb}");
                    put(&mut line)?;
                }
            }
        }
        let _ = write!(line, "apps {}", self.apps.len());
        put(&mut line)?;
        for rec in &self.apps {
            line.extend_from_slice(b"app ");
            push_app_record(&mut line, rec);
            put(&mut line)?;
        }
        for t in &self.tenants {
            for rec in &t.apps {
                let _ = write!(line, "tapp {} ", t.id);
                push_app_record(&mut line, rec);
                put(&mut line)?;
            }
        }
        // The explicit trailer is what makes *tail* truncation
        // detectable: the line grammar alone cannot tell a complete
        // document from one whose final record lines were cut off.
        line.extend_from_slice(b"end");
        put(&mut line)
    }

    /// Parses the text format.
    pub fn decode(text: &str) -> Result<Snapshot, String> {
        let mut decoder = Decoder::snapshot();
        decoder.feed(text.as_bytes())?;
        decoder.finish()
    }

    /// Parses a replication delta document (see [`Snapshot::encode_delta`]).
    pub fn decode_delta(text: &str) -> Result<Snapshot, String> {
        let mut decoder = Decoder::delta();
        decoder.feed(text.as_bytes())?;
        decoder.finish()
    }

    /// Writes the snapshot to a file, atomically: streamed into a temp
    /// file beside it that no other write shares, synced, renamed over
    /// `path`, and the directory synced so the rename lasts.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let tmp = temp_path(path);
        let written = File::create(&tmp).and_then(|f| {
            let mut out = BufWriter::with_capacity(IO_BYTES, f);
            self.encode_into(&mut out)?;
            out.into_inner()
                .map_err(io::IntoInnerError::into_error)?
                .sync_all()?;
            std::fs::rename(&tmp, path)?;
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
        });
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Reads a snapshot file with a typed error, so callers can tell a
    /// missing/unreadable file from a truncated or corrupt one (the
    /// daemon degrades to empty state on the latter instead of dying).
    /// The file streams through the [`Decoder`] in `IO_BYTES` reads.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        Decoder::snapshot().read(path).map(|(snap, Collect)| snap)
    }
}

impl<R: Records> Decoder<R> {
    /// Streams the file at `path` through the decoder in 64 KiB reads
    /// and finishes it ([`Decoder::finish_parts`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read,
    /// [`SnapshotError::Corrupt`] when the decoder refuses it.
    pub(crate) fn read(mut self, path: &Path) -> Result<(Snapshot, R), SnapshotError> {
        let mut file = File::open(path).map_err(SnapshotError::Io)?;
        let mut buf = vec![0u8; IO_BYTES];
        loop {
            // Non-UTF-8 content is a corrupt *file*, not an I/O failure:
            // the read succeeded, the contents are garbage.
            match file.read(&mut buf) {
                Ok(0) => return self.finish_parts().map_err(SnapshotError::Corrupt),
                Ok(n) => self.feed(&buf[..n]).map_err(SnapshotError::Corrupt)?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(SnapshotError::Io(e)),
            }
        }
    }
}

/// Applies a replication delta onto an accumulated base snapshot: app
/// records upsert by `(tenant, app)`, everything else — tenant list,
/// ledgers, clocks, budgets, the policy label — is replaced wholesale
/// (deltas carry those as absolute values every round). Tenants absent
/// from the delta are removed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sitw_core::{AppPolicy, DecisionKind, HybridConfig, PolicyFactory, PolicySpec, MINUTE_MS};

    /// `state` restored as the one app of a tenant under `policy`, and
    /// exported back; `None` when the tenant refuses it.
    fn restored_under(state: PolicyState, policy: PolicySpec) -> Option<PolicyState> {
        let restore = sitw_fleet::TenantRestore {
            apps: vec![AppRecord {
                app: "a".into(),
                last_ts: 0,
                windows: Windows::keep_loaded(0),
                evicted: false,
                state,
            }],
            ..sitw_fleet::TenantRestore::fresh(sitw_fleet::TenantSpec {
                id: 0,
                name: "t".into(),
                policy,
                budget_mb: 0,
            })
        };
        let tenant = sitw_fleet::TenantState::restore(restore, 0).ok()?;
        Some(tenant.export_apps(|_| true).remove(0).state)
    }

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
    fn tenant_lines_round_trip_exactly() {
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
        assert!(restored_under(state.clone(), PolicySpec::fixed_minutes(10)).is_none());
        let production = PolicySpec::Production(sitw_core::ProductionConfig::default());
        assert_eq!(restored_under(state.clone(), production), Some(state));
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
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_restores_into_matching_spec_only() {
        let rec = hybrid_record();
        let spec = PolicySpec::Hybrid(HybridConfig::default());
        let restored = restored_under(rec.state.clone(), spec).unwrap();
        assert!(matches!(restored, PolicyState::Hybrid(_)));
        assert_eq!(restored, rec.state);
        assert!(restored_under(rec.state, PolicySpec::fixed_minutes(10)).is_none());
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
        // with a dirty app, tenant 2 absent (gone on the primary), tenant 3
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

/// Seeded snapshots for the codec's tests: every record shape, tenant
/// shape and escape the grammar has.
#[cfg(test)]
pub(crate) mod samples {
    use super::*;
    use sitw_core::DecisionKind;

    /// A small deterministic generator (SplitMix64).
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            sitw_fleet::mix64(self.0)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }

        pub(crate) fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }

        /// A number of any width, from one digit to `u64::MAX`.
        fn wide(&mut self) -> u64 {
            self.next() >> self.below(64)
        }
    }

    const KINDS: [DecisionKind; 4] = [
        DecisionKind::Histogram,
        DecisionKind::StandardKeepAlive,
        DecisionKind::Arima,
        DecisionKind::Static,
    ];

    /// App names, escapes and multi-byte characters included.
    fn app_name(rng: &mut Rng, i: usize) -> String {
        let odd = [
            "", " ", "%", "%20", "a b", "\n", "\r", "x\r\ny", "é", "日本", "🦀", "+1", "-",
        ];
        match rng.below(4) {
            0 => format!("{}{i}{}", rng.pick(&odd), rng.pick(&odd)),
            _ => format!("app-{i:06}"),
        }
    }

    fn record(rng: &mut Rng, app: String) -> AppRecord {
        let state = match rng.below(3) {
            0 => PolicyState::Stateless,
            1 => PolicyState::Production {
                last: rng.pick(&KINDS),
                state: ProductionAppState {
                    days: (0..rng.below(4))
                        .map(|d| DayHistogram {
                            day: d * 2 + rng.below(2),
                            bins: (0..1 + rng.below(240)).map(|_| rng.wide() as u32).collect(),
                            oob: rng.wide(),
                        })
                        .collect(),
                },
            },
            _ => PolicyState::Hybrid(HybridSnapshot {
                bins: (0..[0, 1, 240][rng.below(3) as usize])
                    .map(|_| {
                        if rng.below(4) == 0 {
                            rng.wide() as u32
                        } else {
                            0
                        }
                    })
                    .collect(),
                oob_count: rng.wide(),
                // Finite values only, so records compare equal to
                // themselves.
                history: (0..rng.below(65))
                    .map(|_| f64::from_bits(rng.next() & !(1 << 62)))
                    .collect(),
                counts: DecisionCounts {
                    histogram: rng.wide(),
                    standard: rng.wide(),
                    arima: rng.wide(),
                },
                last_decision: rng.pick(&KINDS),
            }),
        };
        AppRecord {
            app,
            last_ts: rng.wide(),
            windows: Windows {
                pre_warm_ms: rng.wide(),
                keep_alive_ms: rng.wide(),
            },
            evicted: rng.below(5) == 0,
            state,
        }
    }

    fn ledger(rng: &mut Rng, apps: &[AppRecord]) -> LedgerExport {
        if rng.below(3) == 0 {
            return LedgerExport::default();
        }
        let mut warm = Vec::new();
        for a in apps {
            if rng.below(3) == 0 {
                warm.push((a.app.clone(), rng.wide(), rng.below(4096)));
            }
        }
        LedgerExport {
            warm,
            evictions: rng.wide(),
            idle_mb_ms: rng.wide(),
            cursor_ms: rng.wide(),
        }
    }

    /// A snapshot of up to `max_apps` apps per tenant and up to four
    /// named tenants.
    pub(crate) fn snapshot(seed: u64, max_apps: u64) -> Snapshot {
        let rng = &mut Rng(seed);
        let mut next_app = 0usize;
        let mut apps = |rng: &mut Rng| -> Vec<AppRecord> {
            let n = rng.below(max_apps + 1) as usize;
            next_app += n;
            (next_app - n..next_app)
                .map(|i| {
                    let name = app_name(rng, i);
                    record(rng, name)
                })
                .collect()
        };
        let default_apps = apps(rng);
        let default_ledger = ledger(rng, &default_apps);
        let labels = [
            "hybrid-4h[5,99]cv2",
            "production-240m-14d[5,99]exp0.85",
            "fixed-10min",
        ];
        let tenants = (1..=rng.below(5) as TenantId)
            .map(|id| {
                let apps = apps(rng);
                TenantSnapshot {
                    id: id * 3,
                    name: format!("t{id}"),
                    policy_label: rng.pick(&labels).into(),
                    spec_str: (rng.below(2) == 0).then(|| "hybrid".into()),
                    budget_mb: rng.wide(),
                    prod_clock: (rng.below(2) == 0).then(|| rng.wide()),
                    ledger: ledger(rng, &apps),
                    apps,
                }
            })
            .collect();
        Snapshot {
            policy_label: rng.pick(&labels).into(),
            prod_clock: (rng.below(2) == 0).then(|| rng.wide()),
            apps: default_apps,
            default_ledger,
            tenants,
        }
    }
}

/// The streaming codec against the whole-string one it replaced
/// (`crate::snapshot_ref`, the parent's code kept test-only).
#[cfg(test)]
mod streaming {
    use super::samples::{self, Rng};
    use super::*;
    use crate::snapshot_ref::{decode_ref, encode_ref};
    use proptest::prelude::*;
    use sitw_core::{DecisionKind, ProductionConfig};

    /// `bytes` through a decoder in pieces cut at `cuts`.
    fn decode_split(
        mut decoder: Decoder,
        bytes: &[u8],
        cuts: &[usize],
    ) -> Result<Snapshot, String> {
        let mut at = 0;
        for &cut in cuts {
            let cut = cut.clamp(at, bytes.len());
            decoder.feed(&bytes[at..cut])?;
            at = cut;
        }
        decoder.feed(&bytes[at..])?;
        decoder.finish()
    }

    /// Cut points that land mid-`\r\n` and mid-character as often as
    /// anywhere else.
    fn cuts(rng: &mut Rng, text: &[u8]) -> Vec<usize> {
        let mut cuts: Vec<usize> = (0..rng.below(6))
            .map(|_| {
                let at = rng.below(text.len() as u64 + 1) as usize;
                // Slide to the next `\r` or to inside the next multi-byte
                // character half the time.
                let special = text[at..]
                    .iter()
                    .position(|&b| b == b'\r' || b >= 0x80)
                    .map(|i| at + i + 1);
                match special {
                    Some(s) if rng.below(2) == 0 => s,
                    _ => at,
                }
            })
            .collect();
        cuts.sort_unstable();
        cuts
    }

    /// Arbitrary UTF-8 text over the grammar's own words: a header most
    /// of the time, then fragments in any order.
    fn text(rng: &mut Rng) -> String {
        const WORDS: [&str; 58] = [
            "sitw-serve-snapshot v1",
            "sitw-serve-delta v1",
            "policy ",
            "policy",
            "apps ",
            "app ",
            "tapp ",
            "tenant ",
            "tclock ",
            "tledger ",
            "twarm ",
            "dledger ",
            "dwarm ",
            "clock ",
            "end",
            "hybrid ",
            "production ",
            "days ",
            " bins ",
            " hist ",
            "evicted ",
            "spec ",
            "histogram ",
            "standard ",
            "arima ",
            "static",
            "bogus ",
            "-",
            ",",
            ":",
            " ",
            "  ",
            "\n",
            "\n",
            "\n",
            "\r\n",
            "\r",
            "0",
            "1",
            "2",
            "7",
            "42",
            "+3",
            "+",
            "00",
            "18446744073709551616",
            "%20",
            "%",
            "%zz",
            "%+F",
            "é",
            "日本",
            "ff",
            "3fe0000000000000",
            "a",
            "t",
            "fixed-10min",
            "x",
        ];
        let mut out = String::new();
        match rng.below(4) {
            0 => {}
            1 => out.push_str("sitw-serve-delta v1\npolicy p\n"),
            _ => out.push_str("sitw-serve-snapshot v1\npolicy p\n"),
        }
        for _ in 0..rng.below(40) {
            out.push_str(rng.pick(&WORDS));
        }
        out
    }

    /// Tokens a field may be corrupted to: what some field accepts and
    /// what each refuses. No count here is large enough to make the
    /// reference reserve for it (it trusts counts, and would abort).
    const TOKENS: [&str; 44] = [
        "0",
        "1",
        "2",
        "3",
        "6",
        "9",
        "+5",
        "+",
        "",
        "-",
        "x",
        "t1",
        "%20",
        "%zz",
        "%4",
        "é",
        "spec",
        "hybrid",
        "production",
        "evicted",
        "days",
        "bins",
        "hist",
        "histogram",
        "standard",
        "arima",
        "static",
        "nope",
        "0,1,2",
        "1,,2",
        "7,",
        "+1,2",
        "0,4294967296",
        "ffffffffffffffff",
        "18446744073709551616",
        "3fe0000000000000",
        "3fe0000000000000,+ff",
        "ffffffffffffffff0",
        "0000000000000000f",
        "1:2:0,0",
        "1:2",
        "1",
        "1:x:0",
        "5:0:3,4:5",
    ];

    /// The tokens of one well-formed body line.
    fn line_tokens(rng: &mut Rng) -> Vec<String> {
        // Numbers as `str::parse` takes them, a `+` and leading zeros
        // included.
        let n = |rng: &mut Rng| {
            let v = rng.below(3) * rng.below(1000);
            match rng.below(6) {
                0 => format!("+{v}"),
                1 => format!("00{v}"),
                _ => format!("{v}"),
            }
        };
        let id = |rng: &mut Rng| format!("{}", 1 + rng.below(3));
        let list = |rng: &mut Rng, hex: bool| {
            let items: Vec<String> = (0..1 + rng.below(4))
                .map(|_| match hex {
                    true => format!("{:016x}", rng.next() & !(1 << 62)),
                    false => format!("{}", rng.below(20)),
                })
                .collect();
            items.join(",")
        };
        let mut t: Vec<String> = Vec::new();
        let keyword = rng.pick(&[
            "clock", "dledger", "dwarm", "tenant", "tclock", "tledger", "twarm", "apps", "app",
            "app", "tapp", "tapp", "end",
        ]);
        t.push(keyword.into());
        match keyword {
            "clock" | "apps" => t.push(n(rng)),
            "dledger" => (0..3).for_each(|_| t.push(n(rng))),
            "dwarm" => t.extend(["a%20b".into(), n(rng), n(rng)]),
            "tenant" => {
                t.extend([
                    id(rng),
                    "t".into(),
                    n(rng),
                    format!("{}", rng.below(2)),
                    "p".into(),
                ]);
                if rng.below(2) == 0 {
                    t.extend(["spec".into(), "hybrid".into()]);
                }
            }
            "tclock" => t.extend([id(rng), n(rng)]),
            "tledger" => t.extend([id(rng), n(rng), n(rng), n(rng)]),
            "twarm" => t.extend([id(rng), "a".into(), n(rng), n(rng)]),
            "app" | "tapp" => {
                if keyword == "tapp" {
                    t.push(id(rng));
                }
                t.extend([format!("a{}", rng.below(5)), n(rng), n(rng), n(rng)]);
                if rng.below(3) == 0 {
                    t.push("evicted".into());
                }
                match rng.below(3) {
                    0 => {}
                    1 => {
                        let days = rng.below(3);
                        t.extend(["production".into(), "static".into(), "days".into()]);
                        t.push(format!("{days}"));
                        for d in 0..days {
                            t.push(format!("{d}:{}:{}", n(rng), list(rng, false)));
                        }
                    }
                    _ => {
                        t.push("hybrid".into());
                        (0..4).for_each(|_| t.push(n(rng)));
                        t.extend(["arima".into(), "bins".into(), list(rng, false)]);
                        t.extend(["hist".into(), list(rng, true)]);
                    }
                }
            }
            _ => {}
        }
        t
    }

    /// Lines of the grammar's shape, about a third of them with one token
    /// corrupted, dropped or cut short: a header and policy line most of
    /// the time, then body lines.
    fn lines(rng: &mut Rng) -> String {
        let mut out = String::new();
        if rng.below(5) > 0 {
            out.push_str(if rng.below(2) == 0 {
                HEADER
            } else {
                DELTA_HEADER
            });
            out.push_str("\npolicy p\n");
        }
        // Mostly declared tenants, so tenant lines get past their ids.
        for id in 1..=rng.below(4) {
            out.push_str(&format!("tenant {id} t 0 {} p\n", rng.below(2)));
        }
        if rng.below(2) == 0 {
            out.push_str(&format!("apps {}\n", rng.below(2)));
        }
        for _ in 0..rng.below(12) + 1 {
            let mut t = line_tokens(rng);
            if rng.below(3) == 0 {
                let at = rng.below(t.len() as u64) as usize;
                match rng.below(3) {
                    0 => t[at] = rng.pick(&TOKENS).into(),
                    1 => drop(t.remove(at)),
                    _ => t.truncate(at.max(1)),
                }
            }
            out.push_str(&t.join(" "));
            out.push_str(rng.pick(&["\n", "\n", "\n", "\r\n", " \n", ""]));
        }
        if rng.below(2) == 0 {
            out.push_str("\nend\n");
        }
        out
    }

    /// A valid document after a few random edits at character
    /// boundaries.
    fn mutated(rng: &mut Rng, doc: &str) -> String {
        let mut chars: Vec<char> = doc.chars().collect();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(chars.len() as u64 + 1) as usize;
            match rng.below(4) {
                0 => chars.truncate(at),
                1 => {
                    let end = (at + 1 + rng.below(8) as usize).min(chars.len());
                    chars.drain(at.min(end)..end);
                }
                2 => {
                    let word =
                        rng.pick(&["\n", " ", ",", "0", "x", "-", "%", "\r\n", "é", "end\n"]);
                    chars.splice(at..at, word.chars());
                }
                _ => {
                    if at < chars.len() {
                        chars[at] = rng.pick(&['0', '9', 'a', ' ', '\n', ':', ',', '+']);
                    }
                }
            }
        }
        chars.into_iter().collect()
    }

    /// The reference's result, or `None` when `text` declares a tenant
    /// app count or a day count so large that the reference, which
    /// reserves whatever a count says, would abort.
    fn reference(text: &str, header: &str) -> Option<Result<Snapshot, String>> {
        let huge = |t: &str| t.parse::<usize>().is_ok_and(|n| n > 1 << 20);
        let aborts = text.lines().any(|line| {
            let t: Vec<&str> = line.split(' ').collect();
            (t[0] == "tenant" && t.get(4).is_some_and(|n| huge(n)))
                || t.windows(2).any(|w| w[0] == "days" && huge(w[1]))
        });
        (!aborts).then(|| decode_ref(text, header))
    }

    fn check_text(text: &str, rng: &mut Rng) -> Result<(), String> {
        let cuts = cuts(rng, text.as_bytes());
        for (header, decode, decoder) in [
            (
                HEADER,
                Snapshot::decode as fn(&str) -> _,
                Decoder::snapshot as fn() -> _,
            ),
            (DELTA_HEADER, Snapshot::decode_delta, Decoder::delta),
        ] {
            let got = decode(text);
            prop_assert_eq!(decode_split(decoder(), text.as_bytes(), &cuts), got.clone());
            if let Some(want) = reference(text, header) {
                prop_assert_eq!(got, want);
            }
        }
        Ok(())
    }

    /// One bin or history list token built around the fast paths'
    /// edges: items of 0, 1, 2, 15, 16, 17 and 20 or more digits, `+`
    /// prefixes, upper-case hex, short items that put a comma inside a
    /// 16-byte window, a digit followed by something other than a comma,
    /// a byte just outside a digit range inside a window, `u32` and `u64`
    /// overflow, and empty items. `valid` keeps every
    /// item inside what both list grammars take (for a record that must
    /// decode whole), except that a decimal item may still overflow a
    /// bin's `u32`.
    fn list_token(rng: &mut Rng, hex: bool, valid: bool) -> String {
        let alphabet: &[u8] = if hex {
            b"0123456789abcdefABCDEF"
        } else {
            b"0123456789"
        };
        let run = |rng: &mut Rng, n: usize| -> String {
            (0..n).map(|_| rng.pick(alphabet) as char).collect()
        };
        let width = |rng: &mut Rng| rng.pick(&[0, 1, 1, 2, 15, 16, 16, 17, 19, 20, 21, 24, 40]);
        let item = |rng: &mut Rng| -> String {
            let modes = if valid { 4 } else { 8 };
            match rng.below(modes) {
                // What the encoder writes.
                0 | 1 => match hex {
                    true => format!("{:016x}", rng.next()),
                    false => format!("{}", rng.below(10)),
                },
                2 => {
                    let n = width(rng).max(1);
                    let digits = run(rng, n);
                    match rng.below(3) {
                        0 => format!("+{digits}"),
                        _ => digits,
                    }
                }
                3 => rng
                    .pick(&[
                        "0",
                        "9",
                        "4294967295",
                        "4294967296",
                        "9999999999999999999",
                        "18446744073709551615",
                        "00000000000000000000000000001",
                        "+0000000000000000",
                        "0000000000000000f",
                        "ffffffffffffffff",
                        "FFFFFFFFFFFFFFFF",
                    ])
                    .into(),
                // A run of any width, the empty item included, or one
                // digit whose item goes on past it.
                4 => {
                    let n = width(rng);
                    run(rng, n)
                }
                5 => format!(
                    "{}{}",
                    run(rng, 1),
                    rng.pick(&["x", "+", "-", ":", "é", "g", "G", "0"])
                ),
                // What the encoder writes with one byte just outside a
                // digit range, or not ASCII.
                6 => {
                    let mut item: Vec<char> = match hex {
                        true => format!("{:016x}", rng.next()).chars().collect(),
                        false => vec!['0'],
                    };
                    let at = rng.below(item.len() as u64) as usize;
                    item[at] = rng.pick(&['/', ':', '@', 'G', '`', 'g', '\u{10}', '\u{19}', 'é']);
                    item.into_iter().collect()
                }
                _ => rng
                    .pick(&[
                        "",
                        "+",
                        "++1",
                        "-1",
                        "18446744073709551616",
                        "99999999999999999999",
                        "10000000000000000",
                        "ffffffffffffffff0",
                        "fffffffffffffff,",
                        "1,23456789abcdef",
                        "0x10",
                    ])
                    .into(),
            }
        };
        let items: Vec<String> = (0..1 + rng.below(12)).map(|_| item(rng)).collect();
        items.join(",")
    }

    /// `r` with every float as its bit pattern, so a NaN in a decoded
    /// history compares equal to itself.
    fn as_bits(r: Result<Snapshot, String>) -> Result<String, String> {
        r.map(|snap| snap.encode())
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sitw-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    proptest! {
        /// On any text, decoding equals the reference, error message
        /// included, whole or fed in pieces.
        #[test]
        fn decode_equals_the_reference_on_any_text(seed in 0u64..u64::MAX) {
            let rng = &mut Rng(seed);
            let snap = samples::snapshot(rng.next(), 4);
            let doc = if rng.below(2) == 0 { snap.encode() } else { snap.encode_delta() };
            let mut texts = vec![text(rng), mutated(rng, &doc)];
            texts.extend((0..4).map(|_| lines(rng)));
            for text in texts {
                check_text(&text, rng)?;
            }
        }

        /// Every valid document, in either line ending, fed in pieces cut
        /// anywhere (mid-`\r\n` and mid-character included), decodes to
        /// the snapshot it encodes, as the reference does.
        #[test]
        fn decode_equals_the_reference_on_valid_documents(seed in 0u64..u64::MAX) {
            let rng = &mut Rng(seed);
            let snap = samples::snapshot(rng.next(), 12);
            let (mut full, mut delta) = (snap.encode(), snap.encode_delta());
            if rng.below(2) == 0 {
                full = full.replace('\n', "\r\n");
                delta = delta.replace('\n', "\r\n");
            }
            check_text(&full, rng)?;
            check_text(&delta, rng)?;
            let at = cuts(rng, full.as_bytes());
            prop_assert_eq!(decode_split(Decoder::snapshot(), full.as_bytes(), &at), Ok(snap.clone()));
            let at = cuts(rng, delta.as_bytes());
            prop_assert_eq!(decode_split(Decoder::delta(), delta.as_bytes(), &at), Ok(snap));
        }

        /// The encoder writes the reference's bytes.
        #[test]
        fn encode_equals_the_reference(seed in 0u64..u64::MAX) {
            let snap = samples::snapshot(seed, 12);
            prop_assert_eq!(snap.encode(), encode_ref(&snap, HEADER));
            prop_assert_eq!(snap.encode_delta(), encode_ref(&snap, DELTA_HEADER));
            let mut written = Vec::new();
            snap.encode_into(&mut written).unwrap();
            prop_assert_eq!(written, encode_ref(&snap, HEADER).into_bytes());
        }

        /// `load` returns what the reference's whole-file read returns
        /// on every `Ok`, and fails the same way (`Io` or `Corrupt`)
        /// otherwise, non-UTF-8 files included.
        #[test]
        fn load_equals_the_reference(seed in 0u64..u64::MAX) {
            let rng = &mut Rng(seed);
            let dir = temp_dir("load-ref");
            let path = dir.join(format!("{seed:016x}.snap"));
            let snap = samples::snapshot(rng.next(), 8);
            let mut bytes = match rng.below(4) {
                0 => snap.encode().into_bytes(),
                1 => mutated(rng, &snap.encode()).into_bytes(),
                2 => lines(rng).into_bytes(),
                _ => text(rng).into_bytes(),
            };
            if rng.below(4) == 0 {
                let bad: &[u8] = rng.pick(&[&[0xFF][..], &[0xC3], &[0xE6, 0x97], &[0xED, 0xA0, 0x80]]);
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.splice(at..at, bad.iter().copied());
            }
            std::fs::write(&path, &bytes).unwrap();
            let got = Snapshot::load(&path);
            let want = match String::from_utf8(bytes) {
                Ok(text) => reference(&text, HEADER).map(|r| r.map_err(|_| "corrupt")),
                Err(_) => Some(Err("corrupt")),
            };
            std::fs::remove_file(&path).unwrap();
            match (got, want) {
                (_, None) => {}
                (Ok(got), Some(Ok(want))) => prop_assert_eq!(got, want),
                (Err(SnapshotError::Corrupt(_)), Some(Err(_))) => {}
                (got, want) => return Err(format!("load {got:?}, reference {want:?}")),
            }
            let missing = Snapshot::load(&dir.join("missing.snap"));
            prop_assert!(matches!(missing, Err(SnapshotError::Io(_))));
        }
    }

    proptest! {
        /// Bin and history lists at the edges of the fast paths decode as
        /// the reference decodes them, error message included, whole or
        /// fed in pieces: whatever a fast path does not take exactly, the
        /// general loop reads as it always did.
        #[test]
        fn list_fast_paths_equal_the_reference(seed in 0u64..u64::MAX) {
            let rng = &mut Rng(seed);
            for _ in 0..8 {
                let valid = rng.below(2) == 0;
                // Mostly each list in its own base; sometimes the other's.
                let bins_hex = rng.below(6) == 0;
                let hist_hex = rng.below(6) != 0;
                let bins = list_token(rng, bins_hex, valid);
                let hist = list_token(rng, hist_hex, valid);
                let day = list_token(rng, false, valid);
                let text = format!(
                    "{HEADER}\npolicy p\napps 2\n\
                     app a 1 2 3 hybrid 4 5 6 7 arima bins {bins} hist {hist}\n\
                     app b 1 2 3 production static days 1 0:1:{day}\nend\n"
                );
                let got = Snapshot::decode(&text);
                let at = cuts(rng, text.as_bytes());
                let split = decode_split(Decoder::snapshot(), text.as_bytes(), &at);
                let want = decode_ref(&text, HEADER);
                let got = (as_bits(got), &text);
                prop_assert_eq!(&got, &(as_bits(split), &text));
                prop_assert_eq!(&got, &(as_bits(want), &text));
            }
        }
    }

    /// Every line of the grammar with any one token removed, replaced
    /// or cut short decodes as the reference decodes it — the same error
    /// first, for tenants declared and not.
    #[test]
    fn every_one_token_edit_equals_the_reference() {
        let valid = [
            "clock 5",
            "dledger 1 2 3",
            "dwarm a%20b 4 5",
            "tenant 2 t 0 0 p spec hybrid",
            "tclock 1 9",
            "tclock 3 9",
            "tledger 1 1 2 3",
            "tledger 3 1 2 3",
            "twarm 1 a 4 5",
            "twarm 3 a 4 5",
            "apps 0",
            "app a 1 2 3 evicted",
            "app a 1 2 3 production static days 2 0:1:2,3 1:0:4",
            "tapp 1 a 1 2 3 hybrid 4 5 6 7 arima bins 1,2 hist 3fe0000000000000,-",
            "tapp 3 a 1 2 3 hybrid 4 5 6 7 arima bins - hist -",
            "end",
        ];
        let prefix = format!("{HEADER}\npolicy p\ntenant 1 t 0 0 p\n");
        for line in valid {
            let tokens: Vec<&str> = line.split(' ').collect();
            let mut edits = Vec::new();
            for at in 0..tokens.len() {
                edits.push([&tokens[..at], &tokens[at + 1..]].concat());
                edits.push(tokens[..at].to_vec());
                for t in TOKENS {
                    let mut edit = tokens.clone();
                    edit[at] = t;
                    edits.push(edit);
                }
            }
            for edit in edits {
                let text = format!("{prefix}{}\napps 0\nend\n", edit.join(" "));
                let want = reference(&text, HEADER).expect("no large count");
                assert_eq!(Snapshot::decode(&text), want, "{text}");
            }
        }
    }

    #[test]
    fn golden_snapshots_re_encode_byte_identical() {
        for text in [
            include_str!("../tests/golden/hybrid_2shard.snapshot"),
            include_str!("../tests/golden/production_2shard.snapshot"),
        ] {
            let snap = Snapshot::decode(text).unwrap();
            assert_eq!(Ok(&snap), decode_ref(text, HEADER).as_ref());
            assert_eq!(snap.encode(), text);
            assert_eq!(encode_ref(&snap, HEADER), text);
        }
    }

    #[test]
    fn lines_split_as_str_lines_splits_them() {
        // A `\r` is dropped only before a `\n`: a last line keeps it.
        for text in [
            "sitw-serve-snapshot v1\r\npolicy p\r\napps 0\r\nend\r\n",
            "sitw-serve-snapshot v1\npolicy p\napps 0\nend",
            "sitw-serve-snapshot v1\npolicy p\napps 0\nend\r",
            "sitw-serve-snapshot v1\npolicy p\napps 0\nend\n\n\r\n",
            "sitw-serve-snapshot v1\r",
            "\n",
            "",
        ] {
            assert_eq!(Snapshot::decode(text), decode_ref(text, HEADER), "{text:?}");
        }
    }

    /// The longest record a node can write: an app name one whole
    /// `/invoke` body long, all of it escaped, in a production app
    /// keeping the most days a parsed spec allows, every number at its
    /// widest — and the longest hybrid record beside it.
    #[test]
    fn the_largest_legal_line_decodes() {
        let days = MAX_RETENTION_DAYS;
        let bins = ProductionConfig::default().range_minutes;
        let production = AppRecord {
            app: " ".repeat(crate::http::MAX_BODY_BYTES),
            last_ts: u64::MAX,
            windows: Windows::pre_warmed(u64::MAX, u64::MAX),
            evicted: true,
            state: PolicyState::Production {
                last: DecisionKind::Histogram,
                state: ProductionAppState {
                    days: (0..days)
                        .map(|d| DayHistogram {
                            day: u64::MAX - days + d,
                            bins: vec![u32::MAX; bins],
                            oob: u64::MAX,
                        })
                        .collect(),
                },
            },
        };
        let hybrid = AppRecord {
            state: PolicyState::Hybrid(HybridSnapshot {
                bins: vec![u32::MAX; sitw_core::spec::MAX_RANGE_MINUTES],
                oob_count: u64::MAX,
                history: vec![-f64::MAX; sitw_core::HybridConfig::default().history_cap],
                counts: DecisionCounts {
                    histogram: u64::MAX,
                    standard: u64::MAX,
                    arima: u64::MAX,
                },
                last_decision: DecisionKind::StandardKeepAlive,
            }),
            ..production.clone()
        };
        let snap = Snapshot {
            policy_label: "production-240m-366d[5,99]exp0.85".into(),
            prod_clock: None,
            apps: Vec::new(),
            default_ledger: LedgerExport::default(),
            tenants: vec![TenantSnapshot {
                id: TenantId::MAX,
                name: "t".repeat(64),
                policy_label: "production-240m-366d[5,99]exp0.85".into(),
                spec_str: Some("production:366d".into()),
                budget_mb: u64::MAX,
                prod_clock: Some(u64::MAX),
                ledger: LedgerExport::default(),
                apps: vec![production, hybrid],
            }],
        };
        let text = snap.encode();
        let longest = text.lines().map(str::len).max().unwrap();
        assert!(
            longest > 4 * crate::http::MAX_BODY_BYTES - (1 << 20),
            "{longest}"
        );
        assert!(longest <= MAX_LINE_BYTES, "{longest} > {MAX_LINE_BYTES}");
        let cuts = [1, IO_BYTES, text.len() / 2, text.len() - 1];
        assert_eq!(
            decode_split(Decoder::snapshot(), text.as_bytes(), &cuts),
            Ok(snap.clone())
        );
        let dir = temp_dir("largest-line");
        snap.write_to(&dir.join("largest.snap")).unwrap();
        assert_eq!(Snapshot::load(&dir.join("largest.snap")).unwrap(), snap);

        // One byte past the cap is corrupt, whether it arrives whole or
        // in pieces, and a load says so.
        let over = format!("{HEADER}\npolicy {}\n", "p".repeat(MAX_LINE_BYTES + 1 - 7));
        let refused = Err(format!("line 2 is longer than {MAX_LINE_BYTES} bytes"));
        assert_eq!(Snapshot::decode(&over), refused);
        assert_eq!(
            decode_split(Decoder::snapshot(), over.as_bytes(), &[30, 5000]),
            refused
        );
        // Fed in reads with no `\n` in sight, the line is refused as
        // soon as it would outgrow the cap, not when it ends.
        let mut decoder = Decoder::snapshot();
        decoder
            .feed(format!("{HEADER}\npolicy ").as_bytes())
            .unwrap();
        let read = vec![b'p'; IO_BYTES];
        let reads = 0..MAX_LINE_BYTES / IO_BYTES + 2;
        let taken = reads.take_while(|_| decoder.feed(&read).is_ok()).count();
        assert_eq!(taken, MAX_LINE_BYTES / IO_BYTES - 1);
        assert_eq!(decoder.finish(), refused);
        let at_cap = format!(
            "{HEADER}\npolicy {}\napps 0\nend\n",
            "p".repeat(MAX_LINE_BYTES - 7)
        );
        assert!(Snapshot::decode(&at_cap).is_ok());
        let path = dir.join("over.snap");
        std::fs::write(&path, &over).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A count nothing backs reserves a bounded amount up front, and the
    /// document is refused, never aborted.
    #[test]
    fn lying_counts_are_refused_not_reserved() {
        for text in [
            format!(
                "{HEADER}\npolicy p\ntenant 1 t 0 {} x\napps 0\nend\n",
                u64::MAX
            ),
            format!("{HEADER}\npolicy p\napps {}\nend\n", usize::MAX),
            format!(
                "{HEADER}\npolicy p\napps 1\napp a 1 2 3 production static days {} 0:0:1\nend\n",
                u64::MAX
            ),
        ] {
            assert!(Snapshot::decode(&text).is_err(), "{text}");
        }
        assert_eq!(
            Snapshot::decode(&format!("{HEADER}\npolicy p\napps 1\napp a 1 2 3 hybrid 0 0 0 0 static bins 4294967296 hist -\nend\n")),
            Err("bad bin '4294967296'".into())
        );
    }

    #[test]
    fn temp_files_are_named_after_the_whole_file_name() {
        for target in [
            "dir/s.snap",
            "dir/s.tmp",
            "dir/node.a",
            "dir/node.b",
            "noext",
            "a.b.c",
        ] {
            let target = Path::new(target);
            let tmp = temp_path(target);
            assert_ne!(tmp, target);
            assert_eq!(tmp.parent(), target.parent());
            let name = tmp.file_name().unwrap().to_str().unwrap();
            let target_name = target.file_name().unwrap().to_str().unwrap();
            assert!(
                name.starts_with(&format!("{target_name}.{}.", std::process::id())),
                "{name}"
            );
        }
        assert_ne!(
            temp_path(Path::new("node.a")),
            temp_path(Path::new("node.b"))
        );
        assert_ne!(
            temp_path(Path::new("s")),
            temp_path(Path::new("s")),
            "two writes, two files"
        );
    }

    /// `write_to` used to write through `path.with_extension("tmp")`,
    /// truncating a sibling `s.tmp` and renaming it away.
    #[test]
    fn write_to_leaves_sibling_files_alone() {
        let dir = temp_dir("write-to-sibling");
        let sibling = dir.join("s.tmp");
        std::fs::write(&sibling, b"someone else's bytes").unwrap();
        let snap = samples::snapshot(7, 20);
        snap.write_to(&dir.join("s.snap")).unwrap();
        assert_eq!(std::fs::read(&sibling).unwrap(), b"someone else's bytes");
        assert_eq!(Snapshot::load(&dir.join("s.snap")).unwrap(), snap);
        // A target that is itself a `.tmp` file is still written whole.
        snap.write_to(&sibling).unwrap();
        assert_eq!(Snapshot::load(&sibling).unwrap(), snap);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["s.snap", "s.tmp"], "no temp file is left behind");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
