//! Wire formats of the decision service.
//!
//! Two protocols share one port, distinguished by the first byte of
//! each message:
//!
//! * **JSON over HTTP/1.1** — a fixed-schema dialect, parsed and
//!   emitted by hand (the workspace is dependency-free). Requests are
//!   small and their schema is closed, so the parser is a single
//!   left-to-right scan that extracts the two fields it knows
//!   (`"app"`: string, `"ts"`: non-negative integer milliseconds) and
//!   tolerates any other well-formed members. It is not a general JSON
//!   parser and does not try to be one.
//!
//!   The body every client in this workspace sends is read by an early
//!   exit in one pass:
//!
//!   ```text
//!   {"app":"NAME","ts":DIGITS}
//!   NAME   = 1+ bytes of printable ASCII (0x20..=0x7E) but `"` and `\`
//!   DIGITS = 1 to 19 ASCII digits (no u64 overflow possible)
//!   ```
//!
//!   Byte for byte, with no whitespace and nothing after the `}`.
//!   Anything else — whitespace, escapes, non-ASCII, a tenant, members
//!   in another order or of another name, a longer number, an empty
//!   name, trailing bytes — goes to the general scan, never to an error
//!   of its own. The scan stays because it is the only path for those
//!   supported bodies, and it is the reference the early exit is tested
//!   against: both give the same [`InvokeRequest`] or the same error on
//!   any body.
//! * **SITW-BIN** — a length-prefixed batched binary protocol (the
//!   second half of this module, whose layout comment is its spec). A
//!   frame carries up to [`MAX_BATCH`] invocations and is answered by
//!   one reply frame of fixed 9-byte verdict records, amortizing parse,
//!   syscall, and shard-lock costs across the whole batch.

use sitw_core::DecisionKind;

use crate::shard::{Decision, InvokeError};

/// A parsed `POST /invoke` body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvokeRequest {
    /// Application identifier (the unit of keep-alive, §2).
    pub app: String,
    /// Invocation timestamp in trace milliseconds. Must be monotone
    /// non-decreasing per application.
    pub ts: u64,
    /// Tenant name (`None` = the default tenant). JSON carries the name;
    /// the binary protocol carries the registry-assigned `u16` id.
    pub tenant: Option<String>,
}

/// Parses an `/invoke` body: `{"app":"app-000123","ts":86400000}`, with
/// an optional `"tenant":"acme"` member naming the fleet tenant.
pub fn parse_invoke(body: &[u8]) -> Result<InvokeRequest, String> {
    let mut req = InvokeRequest::default();
    parse_invoke_into(body, &mut req).map(|()| req)
}

/// [`parse_invoke`] into a reused request: keys are compared as byte
/// slices and the `app` and `tenant` values are unescaped into `req`'s
/// own `String`s, so a warm `req` parses without allocating. After an
/// error `req` holds whatever was parsed so far.
// sitw-lint: hot-path
pub fn parse_invoke_into(body: &[u8], req: &mut InvokeRequest) -> Result<(), String> {
    match parse_canonical_invoke(body, req) {
        Some(()) => Ok(()),
        None => parse_invoke_general(body, req),
    }
}

/// The early exit of [`parse_invoke_into`] (grammar in the module
/// docs): `None` — with `req` untouched — on the first byte it does not
/// accept.
// sitw-lint: hot-path
pub(crate) fn parse_canonical_invoke(body: &[u8], req: &mut InvokeRequest) -> Option<()> {
    let rest = body.strip_prefix(b"{\"app\":\"")?;
    // The name runs to the first byte that is not printable ASCII or is
    // a quote or a backslash; only a quote may end it.
    let end = rest
        .iter()
        .position(|&c| !matches!(c, b' '..=b'~') || c == b'"' || c == b'\\')?;
    let (app, rest) = rest.split_at(end);
    let ts = short_decimal(rest.strip_prefix(b"\",\"ts\":")?.strip_suffix(b"}")?)?;
    let app = std::str::from_utf8(app)
        .ok()
        .filter(|app| !app.is_empty())?;
    req.app.clear();
    req.app.push_str(app);
    req.ts = ts;
    req.tenant = None;
    Some(())
}

/// The value of 1 to 19 ASCII digits, too few to overflow a `u64`;
/// `None` for anything else.
// sitw-lint: hot-path
pub(crate) fn short_decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 19 {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &b| {
        b.is_ascii_digit().then(|| v * 10 + u64::from(b - b'0'))
    })
}

/// The general body parser: any body [`parse_invoke_into`] supports,
/// and the reference its early exit is held to.
fn parse_invoke_general(body: &[u8], req: &mut InvokeRequest) -> Result<(), String> {
    let mut has_app = false;
    let mut ts: Option<u64> = None;
    // Put back only when this body names a tenant: the buffer is reused
    // for as long as consecutive requests name one.
    let mut tenant = req.tenant.take().unwrap_or_default();
    let mut has_tenant = false;

    let mut i = skip_ws(body, 0);
    if i >= body.len() || body[i] != b'{' {
        return Err("expected object".into());
    }
    i = skip_ws(body, i + 1);
    if i < body.len() && body[i] == b'}' {
        // Empty object: fall through to the missing-field errors.
    } else {
        loop {
            i = skip_ws(body, i);
            let mut key = Key::default();
            let next = scan_string(body, i, &mut key)?;
            i = skip_ws(body, next);
            if i >= body.len() || body[i] != b':' {
                return Err("expected ':'".into());
            }
            i = skip_ws(body, i + 1);
            if key.is(b"app") {
                req.app.clear();
                i = scan_string(body, i, &mut req.app)?;
                has_app = true;
            } else if key.is(b"ts") {
                let (v, next) = parse_u64(body, i)?;
                ts = Some(v);
                i = next;
            } else if key.is(b"tenant") {
                tenant.clear();
                i = scan_string(body, i, &mut tenant)?;
                has_tenant = true;
            } else {
                i = skip_value(body, i)?;
            }
            i = skip_ws(body, i);
            match body.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => break,
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }

    if !has_app {
        return Err("missing \"app\"".into());
    }
    if req.app.is_empty() {
        return Err("empty \"app\"".into());
    }
    if has_tenant && tenant.is_empty() {
        return Err("empty \"tenant\"".into());
    }
    req.ts = ts.ok_or("missing \"ts\"")?;
    req.tenant = has_tenant.then_some(tenant);
    Ok(())
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i] == b' ' || b[i] == b'\t' || b[i] == b'\r' || b[i] == b'\n') {
        i += 1;
    }
    i
}

/// Where [`scan_string`] puts a JSON string's unescaped text.
trait Unescaped {
    fn put(&mut self, s: &str);
}

impl Unescaped for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// The text of a skipped value goes nowhere.
struct Discard;

impl Unescaped for Discard {
    fn put(&mut self, _: &str) {}
}

/// A member key, held as far as the longest key the parser knows; a
/// longer one matches none of them.
#[derive(Default)]
struct Key {
    buf: [u8; 8],
    len: usize,
}

impl Key {
    fn is(&self, name: &[u8]) -> bool {
        self.buf.get(..self.len) == Some(name)
    }
}

impl Unescaped for Key {
    fn put(&mut self, s: &str) {
        let end = self.len.saturating_add(s.len());
        if let Some(dst) = self.buf.get_mut(self.len..end) {
            dst.copy_from_slice(s.as_bytes());
        }
        self.len = end;
    }
}

/// Reads the four hex digits of a `\uXXXX` escape starting at `i`.
fn parse_hex4(b: &[u8], i: usize) -> Result<(u32, usize), String> {
    if i + 4 > b.len() {
        return Err("truncated \\u escape".into());
    }
    let mut v = 0u32;
    for &c in &b[i..i + 4] {
        let d = (c as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit '{}' in \\u escape", c as char))?;
        v = v * 16 + d;
    }
    Ok((v, i + 4))
}

/// Decodes the `\uXXXX` escape (or surrogate pair) whose digits start at
/// `i`, returning the character and the index past it.
fn unicode_escape(b: &[u8], i: usize) -> Result<(char, usize), String> {
    let (unit, mut i) = parse_hex4(b, i)?;
    let cp = match unit {
        // High surrogate: a \uDC00..\uDFFF low surrogate must follow
        // (RFC 8259 §7).
        0xD800..=0xDBFF => {
            if b.get(i) != Some(&b'\\') || b.get(i + 1) != Some(&b'u') {
                return Err("unpaired high surrogate".into());
            }
            let (lo, next) = parse_hex4(b, i + 2)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(format!("invalid low surrogate \\u{lo:04x}"));
            }
            i = next;
            0x10000 + ((unit - 0xD800) << 10) + (lo - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(format!("unpaired low surrogate \\u{unit:04x}")),
        bmp => bmp,
    };
    let ch = char::from_u32(cp).ok_or_else(|| format!("invalid codepoint U+{cp:04X}"))?;
    Ok((ch, i))
}

/// Scans the JSON string that opens at `b[i]` into `out`, unescaped,
/// and returns the index just past its closing quote. The raw runs
/// between escapes are checked as UTF-8 one by one: an escape decodes
/// to whole characters, so the string is UTF-8 exactly when every run
/// is, and the error waits for the closing quote as a check of the
/// whole string would.
// sitw-lint: hot-path
fn scan_string(b: &[u8], mut i: usize, out: &mut impl Unescaped) -> Result<usize, String> {
    if b.get(i) != Some(&b'"') {
        return Err("expected string".into());
    }
    i += 1;
    let mut utf8 = true;
    loop {
        let run = i;
        while i < b.len() && b[i] != b'"' && b[i] != b'\\' {
            i += 1;
        }
        match std::str::from_utf8(&b[run..i]) {
            Ok(text) => out.put(text),
            Err(_) => utf8 = false,
        }
        match b.get(i) {
            Some(b'"') if utf8 => return Ok(i + 1),
            Some(b'"') => return Err("invalid utf-8 in string".into()),
            Some(_) => {
                // A backslash.
                let Some(&c) = b.get(i + 1) else { break };
                let ch = match c {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'u' => {
                        let (ch, next) = unicode_escape(b, i + 2)?;
                        out.put(ch.encode_utf8(&mut [0u8; 4]));
                        i = next;
                        continue;
                    }
                    // sitw-lint: allow(hot-path-alloc)
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                };
                out.put(ch.encode_utf8(&mut [0u8; 4]));
                i += 2;
            }
            None => break,
        }
    }
    Err("unterminated string".into())
}

/// Skips any well-formed JSON value (scalar, object, or array)
/// starting at `i`, returning the index just past it.
fn skip_value(b: &[u8], mut i: usize) -> Result<usize, String> {
    match b.get(i) {
        Some(b'"') => scan_string(b, i, &mut Discard),
        Some(b'{') | Some(b'[') => {
            // Track nesting depth; strings inside may contain
            // brackets, so skip them wholesale.
            let mut depth = 0usize;
            while i < b.len() {
                match b[i] {
                    b'"' => i = scan_string(b, i, &mut Discard)?,
                    b'{' | b'[' => {
                        depth += 1;
                        i += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        i += 1;
                        if depth == 0 {
                            return Ok(i);
                        }
                    }
                    _ => i += 1,
                }
            }
            Err("unterminated container".into())
        }
        Some(_) => {
            // Number / true / false / null: runs to a delimiter.
            while i < b.len() && !matches!(b[i], b',' | b'}' | b']') {
                i += 1;
            }
            Ok(i)
        }
        None => Err("expected value".into()),
    }
}

fn parse_u64(b: &[u8], mut i: usize) -> Result<(u64, usize), String> {
    let start = i;
    let mut v: u64 = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add((b[i] - b'0') as u64))
            .ok_or("integer overflow")?;
        i += 1;
    }
    if i == start {
        return Err("expected integer".into());
    }
    Ok((v, i))
}

/// Short stable name of a decision branch, used in responses and
/// snapshots.
pub fn kind_str(kind: DecisionKind) -> &'static str {
    match kind {
        DecisionKind::Histogram => "histogram",
        DecisionKind::StandardKeepAlive => "standard",
        DecisionKind::Arima => "arima",
        DecisionKind::Static => "static",
    }
}

/// Inverse of [`kind_str`].
pub fn kind_from_str(s: &str) -> Result<DecisionKind, String> {
    match s {
        "histogram" => Ok(DecisionKind::Histogram),
        "standard" => Ok(DecisionKind::StandardKeepAlive),
        "arima" => Ok(DecisionKind::Arima),
        "static" => Ok(DecisionKind::Static),
        other => Err(format!("unknown decision kind '{other}'")),
    }
}

/// Renders the `/invoke` response body for a decision.
// sitw-lint: hot-path
pub fn render_decision(out: &mut Vec<u8>, d: &Decision) {
    out.extend_from_slice(b"{\"verdict\":\"");
    out.extend_from_slice(if d.cold { b"cold" } else { b"warm" });
    out.extend_from_slice(b"\",\"kind\":\"");
    out.extend_from_slice(kind_str(d.kind).as_bytes());
    out.extend_from_slice(b"\",\"pre_warm_ms\":");
    push_u64(out, d.windows.pre_warm_ms);
    out.extend_from_slice(b",\"keep_alive_ms\":");
    push_u64(out, d.windows.keep_alive_ms);
    out.extend_from_slice(b",\"prewarm_load\":");
    out.extend_from_slice(if d.prewarm_load { b"true" } else { b"false" });
    out.extend_from_slice(b",\"evicted\":");
    out.extend_from_slice(if d.evicted { b"true" } else { b"false" });
    out.push(b'}');
}

/// Parses an `/invoke` response body back into the [`Decision`] it
/// renders — the inverse of [`render_decision`] on its fixed schema,
/// for clients that check verdicts rather than count them.
pub fn parse_decision(body: &str) -> Result<Decision, String> {
    // The value after `key`, up to the next delimiter.
    let field = |key: &str| match body.split_once(key) {
        Some((_, rest)) => Ok(rest.split([',', '}', '"']).next().unwrap_or(rest)),
        None => Err(format!("no {key} in {body}")),
    };
    let bad = |key: &str| format!("bad {key} in {body}");
    let number = |key| field(key)?.parse::<u64>().map_err(|_| bad(key));
    let flag = |key| field(key)?.parse::<bool>().map_err(|_| bad(key));
    Ok(Decision {
        cold: match field("\"verdict\":\"")? {
            "cold" => true,
            "warm" => false,
            _ => return Err(bad("verdict")),
        },
        kind: kind_from_str(field("\"kind\":\"")?)?,
        windows: sitw_core::Windows {
            pre_warm_ms: number("\"pre_warm_ms\":")?,
            keep_alive_ms: number("\"keep_alive_ms\":")?,
        },
        prewarm_load: flag("\"prewarm_load\":")?,
        evicted: flag("\"evicted\":")?,
    })
}

/// Parses a `GET /admin/tenants` listing (a node's, or a router's in
/// the same shape) into tenant name → wire id.
pub fn parse_tenant_listing(body: &str) -> std::collections::HashMap<String, u16> {
    let mut ids = std::collections::HashMap::new();
    let mut rest = body;
    while let Some(pos) = rest.find("\"id\":") {
        rest = &rest[pos + 5..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let Ok(id) = digits.parse::<u16>() else { break };
        let Some(name_pos) = rest.find("\"name\":\"") else {
            break;
        };
        let after = &rest[name_pos + 8..];
        let Some(end) = after.find('"') else { break };
        ids.insert(after[..end].to_owned(), id);
        rest = &after[end..];
    }
    ids
}

/// One tenant's ledger integrals: a row of a node's `GET /admin/usage`
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    /// Tenant name (the cluster-wide key).
    pub name: String,
    /// The budget currently enforced on this node, MB (0 = unlimited).
    pub budget_mb: u64,
    /// Warm memory currently charged, MB.
    pub warm_mb: u64,
    /// Budget evictions so far.
    pub evictions: u64,
    /// Loaded-memory integral, MB·ms.
    pub idle_mb_ms: u64,
    /// Invocations served.
    pub invocations: u64,
}

impl TenantUsage {
    /// Folds usage slices by tenant **name** — the cluster-stable key —
    /// into one name-ordered entry per tenant: shard slices into a
    /// node's report, node reports into the cluster view. Budgets take
    /// the max (one enforcing owner per named tenant; the default
    /// tenant's is replicated, not split); the rest sums, saturating —
    /// the ledger saturates `idle_mb_ms` at `u64::MAX` and timestamps
    /// are client-supplied, so two slices can both already be there.
    pub fn fold(slices: impl IntoIterator<Item = TenantUsage>) -> Vec<TenantUsage> {
        let mut by_name = std::collections::BTreeMap::<String, TenantUsage>::new();
        for t in slices {
            let Some(sum) = by_name.get_mut(&t.name) else {
                by_name.insert(t.name.clone(), t);
                continue;
            };
            sum.budget_mb = sum.budget_mb.max(t.budget_mb);
            sum.warm_mb = sum.warm_mb.saturating_add(t.warm_mb);
            sum.evictions = sum.evictions.saturating_add(t.evictions);
            sum.idle_mb_ms = sum.idle_mb_ms.saturating_add(t.idle_mb_ms);
            sum.invocations = sum.invocations.saturating_add(t.invocations);
        }
        by_name.into_values().collect()
    }
}

/// The members after `"name"` in a usage row, in order.
const USAGE_KEYS: [&str; 5] = [
    ",\"budget_mb\":",
    ",\"warm_mb\":",
    ",\"evictions\":",
    ",\"idle_mb_ms\":",
    ",\"invocations\":",
];

/// Writes a `GET /admin/usage` body:
/// `[{"name":…,"budget_mb":…,"warm_mb":…,"evictions":…,"idle_mb_ms":…,"invocations":…}]`,
/// one object per row, no whitespace. Tenant names are
/// `[A-Za-z0-9._-]`, so none needs escaping.
pub(crate) fn write_usage(out: &mut Vec<u8>, rows: &[TenantUsage]) {
    out.push(b'[');
    for (i, t) in rows.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"name\":\"");
        out.extend_from_slice(t.name.as_bytes());
        out.push(b'"');
        let values = [
            t.budget_mb,
            t.warm_mb,
            t.evictions,
            t.idle_mb_ms,
            t.invocations,
        ];
        for (key, v) in USAGE_KEYS.iter().zip(values) {
            out.extend_from_slice(key.as_bytes());
            push_u64(out, v);
        }
        out.push(b'}');
    }
    out.push(b']');
}

/// Parses exactly what the node's `write_usage` writes (a number may
/// carry leading zeros); anything else is a [`BodyError`].
pub fn parse_usage(body: &[u8]) -> Result<Vec<TenantUsage>, BodyError> {
    let mut c = Cursor { body, at: 0 };
    let mut rows = Vec::new();
    c.expect("[")?;
    while !c.eat("]") {
        c.expect(if rows.is_empty() {
            "{\"name\":\""
        } else {
            ",{\"name\":\""
        })?;
        let name = c.name(b'"')?;
        let mut v = [0u64; 5];
        for (key, v) in USAGE_KEYS.iter().zip(&mut v) {
            c.expect(key)?;
            *v = c.number()?;
        }
        c.expect("}")?;
        let [budget_mb, warm_mb, evictions, idle_mb_ms, invocations] = v;
        rows.push(TenantUsage {
            name,
            budget_mb,
            warm_mb,
            evictions,
            idle_mb_ms,
            invocations,
        });
    }
    c.end()?;
    Ok(rows)
}

/// Writes a `POST /admin/budgets` body: one `NAME=MB` line per share.
pub fn write_budgets(out: &mut Vec<u8>, shares: &[(String, u64)]) {
    for (name, budget_mb) in shares {
        out.extend_from_slice(name.as_bytes());
        out.push(b'=');
        push_u64(out, *budget_mb);
        out.push(b'\n');
    }
}

/// Parses what [`write_budgets`] writes, the last newline optional;
/// anything else is a [`BodyError`].
pub(crate) fn parse_budgets(body: &[u8]) -> Result<Vec<(String, u64)>, BodyError> {
    let mut c = Cursor { body, at: 0 };
    let mut shares = Vec::new();
    while c.at < body.len() {
        let name = c.name(b'=')?;
        shares.push((name, c.number()?));
        if !c.eat("\n") {
            c.end()?;
        }
    }
    Ok(shares)
}

/// Why [`parse_usage`] or the node's `parse_budgets` refused a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyError {
    /// The byte offset where the parser stopped.
    pub at: usize,
    /// What it expected there.
    pub expected: &'static str,
}

impl std::fmt::Display for BodyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.at)
    }
}

/// A left-to-right reader over a control-plane body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn error(&self, expected: &'static str) -> BodyError {
        BodyError {
            at: self.at,
            expected,
        }
    }

    /// Consumes `lit` when the body continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.body[self.at..].starts_with(lit.as_bytes());
        self.at += if hit { lit.len() } else { 0 };
        hit
    }

    fn expect(&mut self, lit: &'static str) -> Result<(), BodyError> {
        self.eat(lit).then_some(()).ok_or(self.error(lit))
    }

    fn end(&self) -> Result<(), BodyError> {
        let end = self.at == self.body.len();
        end.then_some(()).ok_or(self.error("the end of the body"))
    }

    /// A valid tenant name, and the `end` byte after it.
    fn name(&mut self, end: u8) -> Result<String, BodyError> {
        let rest = &self.body[self.at..];
        let name = (rest.iter().position(|&b| b == end))
            .and_then(|len| std::str::from_utf8(&rest[..len]).ok())
            .filter(|name| sitw_fleet::registry::validate_tenant_name(name).is_ok())
            .ok_or(self.error("a tenant name"))?;
        self.at += name.len() + 1;
        Ok(name.to_owned())
    }

    fn number(&mut self) -> Result<u64, BodyError> {
        let (v, next) = parse_u64(self.body, self.at).map_err(|_| self.error("a decimal u64"))?;
        self.at = next;
        Ok(v)
    }
}

/// JSON string escaping lives beside the debug bodies that need it;
/// this is its serving-crate path (`wire::json_escape`).
pub use sitw_telemetry::json_escape;

/// Appends the decimal representation of `v` without allocating.
// sitw-lint: hot-path
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

// ---------------------------------------------------------------------
// SITW-BIN: the length-prefixed batched binary protocol.
//
// It shares the daemon's port with HTTP/1.1, sniffed per message on the
// first byte; one connection may interleave both. Every frame carries
// version 2; any other version byte gets a `BadVersion` error frame and
// a close. Frame layout (all integers little-endian):
//
// ```text
// offset  size  field
//      0     1  magic        0x5B (one past ASCII 'Z': never a method)
//      1     1  version      2
//      2     1  kind         1 = request, 2 = reply, 3 = error
//                            (4–9 are retired: any other kind is a
//                            skippable `Malformed`)
//      3     4  payload_len  u32, bytes after the 11-byte header
//      7     4  count        u32, records in the payload
//     11     …  payload
// ```
//
// Request payload: `count` records of
// `{u16 tenant_id, u16 app_len, app bytes (UTF-8, non-empty), u64 ts}`.
// Tenant ids are the node's registry order (`GET /admin/tenants`); 0 is
// the default tenant. With [`FRAME_FLAG_TRACE`] set in the kind byte,
// an 8-byte trace id precedes the records.
// Frames carry decisions only. Everything else between daemons is HTTP:
// the router's usage reports and budget pushes (`GET /admin/usage`,
// `POST /admin/budgets`, whose bodies are `write_usage` and
// `write_budgets`) and a standby's replication pulls
// (`GET /admin/repl?epoch=N`).
// Reply payload: `count` fixed 9-byte records in request order — one
// verdict byte (bit 0 = cold, bit 1 = pre-warm load, bits 2–3 =
// decision branch, bit 4 = evicted, bit 7 = out-of-order rejection;
// bits 5 and 6 are reserved: never written, ignored when read), then
// either two u32 windows (pre-warm, keep-alive; saturated at u32::MAX
// meaning "never") or, when the out-of-order bit is set, the u64
// `last_ts` of the rejection. *Evicted* means the warm classification
// was downgraded to cold because the tenant's memory budget evicted the
// image during the gap.
// Error payload: `{u8 code, u16 detail_len, detail bytes}` (count = 0),
// codes as in [`BinErrorCode`].
//
// Caps mirror the HTTP side: payloads ≤ 1 MiB, batches ≤ 8192 records.
// The `payload_len` prefix keeps a connection usable after a malformed
// frame: while the envelope is intact, the server skips exactly the bad
// frame and answers a typed error frame in its place. Only errors that
// destroy the framing (wrong version, a payload length beyond the cap)
// close the connection, mirroring the HTTP 413 path.

/// First byte of every SITW-BIN frame. `0x5B` is one past ASCII `Z`, so
/// it can never start an HTTP method token — that single byte is the
/// whole protocol sniff.
pub const BIN_MAGIC: u8 = 0x5B;
/// The protocol version every frame carries.
pub const BIN_VERSION_2: u8 = 2;
/// Bytes in a frame header (magic, version, kind, payload_len, count).
pub const BIN_HEADER_LEN: usize = 11;
/// Frame kind: a batched invoke request (client → server).
pub const FRAME_REQUEST: u8 = 1;
/// Frame kind: a batched verdict reply (server → client).
pub const FRAME_REPLY: u8 = 2;
/// Frame kind: a typed protocol error (server → client).
pub(crate) const FRAME_ERROR: u8 = 3;
/// Kind-byte flag: the payload of this [`FRAME_REQUEST`] starts with an
/// 8-byte little-endian trace id before the records. A traceless frame
/// is byte-identical to one encoded before this flag existed.
pub(crate) const FRAME_FLAG_TRACE: u8 = 0x80;
/// Bytes of the optional trace-id payload prefix (see
/// [`FRAME_FLAG_TRACE`]).
pub(crate) const TRACE_FIELD_LEN: usize = 8;

/// Maximum frame payload, mirroring [`crate::http::MAX_BODY_BYTES`].
pub const MAX_FRAME_PAYLOAD: usize = crate::http::MAX_BODY_BYTES;
/// Maximum records per frame.
pub const MAX_BATCH: usize = 8192;
/// Bytes per reply record (verdict byte + 8 bytes of payload).
pub const REPLY_RECORD_LEN: usize = 9;
/// Smallest possible request record: tenant id, non-empty app of 1
/// byte, u64 ts.
const MIN_REQUEST_RECORD_LEN: usize = 2 + 2 + 1 + 8;

// Verdict-byte bits.
const VB_COLD: u8 = 1 << 0;
const VB_PREWARM_LOAD: u8 = 1 << 1;
const VB_KIND_SHIFT: u8 = 2; // Bits 2–3: DecisionKind.
const VB_EVICTED: u8 = 1 << 4;
const VB_OUT_OF_ORDER: u8 = 1 << 7;

/// Typed SITW-BIN protocol errors, carried in `FRAME_ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinErrorCode {
    /// The frame declared a version this server does not speak.
    BadVersion = 1,
    /// The frame exceeded [`MAX_BATCH`] records or
    /// [`MAX_FRAME_PAYLOAD`] bytes.
    Oversized = 2,
    /// The frame envelope or a record inside it was malformed.
    Malformed = 3,
    /// The node that owns the addressed tenant is down (emitted by
    /// `sitw-router` when an upstream connection fails; a single node
    /// never emits it for itself).
    Unavailable = 4,
}

impl BinErrorCode {
    /// The on-wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BinErrorCode::as_u8`].
    pub fn from_u8(v: u8) -> Option<BinErrorCode> {
        match v {
            1 => Some(BinErrorCode::BadVersion),
            2 => Some(BinErrorCode::Oversized),
            3 => Some(BinErrorCode::Malformed),
            4 => Some(BinErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// One batched binary invocation: the record of a SITW-BIN request
/// frame, carrying the registry-assigned tenant id on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinInvoke {
    /// Tenant id (0 = default tenant).
    pub tenant: u16,
    /// Application id.
    pub app: String,
    /// Invocation timestamp (trace milliseconds).
    pub ts: u64,
}

fn u32_at(buf: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]])
}

fn u64_at(buf: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[i..i + 8]);
    u64::from_le_bytes(b)
}

// sitw-lint: hot-path
fn frame_header(out: &mut Vec<u8>, kind: u8, payload_len: usize, count: usize) {
    out.push(BIN_MAGIC);
    out.push(BIN_VERSION_2);
    out.push(kind);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
}

/// Encodes one request frame of `(tenant, app, ts)` records, untraced.
///
/// # Panics
///
/// Panics if an app name exceeds `u16::MAX` bytes or the batch exceeds
/// [`MAX_BATCH`] — callers own the batching and must stay in bounds.
pub fn encode_request_frame_v2(out: &mut Vec<u8>, records: &[(u16, &str, u64)]) {
    encode_request_frame_v2_from(out, records.iter().copied(), None);
}

/// Encodes one request frame from borrowed records — a router's
/// subframe of its client's records — carrying `trace` when given: the
/// kind byte gains `FRAME_FLAG_TRACE` and the payload starts with the
/// 8-byte little-endian id before the records.
///
/// # Panics
///
/// Panics if an app name exceeds `u16::MAX` bytes or the batch exceeds
/// [`MAX_BATCH`].
pub fn encode_request_frame_v2_from<'a>(
    out: &mut Vec<u8>,
    records: impl ExactSizeIterator<Item = (u16, &'a str, u64)> + Clone,
    trace: Option<u64>,
) {
    assert!(records.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    let prefix = if trace.is_some() { TRACE_FIELD_LEN } else { 0 };
    let payload_len: usize = prefix
        + records
            .clone()
            .map(|(_, app, _)| 2 + 2 + app.len() + 8)
            .sum::<usize>();
    out.reserve(BIN_HEADER_LEN + payload_len);
    let kind = if trace.is_some() {
        FRAME_REQUEST | FRAME_FLAG_TRACE
    } else {
        FRAME_REQUEST
    };
    frame_header(out, kind, payload_len, records.len());
    if let Some(id) = trace {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for (tenant, app, ts) in records {
        assert!(app.len() <= u16::MAX as usize, "app name too long");
        out.extend_from_slice(&tenant.to_le_bytes());
        out.extend_from_slice(&(app.len() as u16).to_le_bytes());
        out.extend_from_slice(app.as_bytes());
        out.extend_from_slice(&ts.to_le_bytes());
    }
}

/// Outcome of [`decode_request_frame_into`], decoding one request frame
/// from a byte buffer that starts at a frame boundary. Records land in a
/// caller-owned, reusable buffer instead of a fresh allocation per frame
/// (the per-connection hot path).
#[derive(Debug)]
pub enum FrameDecodeInto {
    /// A complete, well-formed request frame; the records were written
    /// to the caller's buffer in wire order. `consumed` bytes cover the
    /// header and payload.
    Request {
        /// The propagated trace id, when the frame carried one.
        trace: Option<u64>,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// The buffer holds only part of a frame; read more and retry.
    Incomplete,
    /// A protocol error. `skip` is the full frame length when the
    /// envelope was intact enough to resynchronize past it; `None` means
    /// the connection cannot be resynchronized and must close after the
    /// error frame is sent.
    Error {
        /// The typed error.
        code: BinErrorCode,
        /// Human-readable detail for the error frame.
        detail: String,
        /// Bytes to discard (header + payload) to reach the next frame.
        skip: Option<usize>,
    },
}

/// Decodes one request frame into `records`, a buffer reused across
/// frames. A well-formed request frame's records replace its contents,
/// each name rewritten into the `String` already in its place, so a
/// warm buffer decodes without allocating (a name whose buffer grew past
/// `pool::NAME_CAP` gets a fresh one). A malformed frame leaves
/// `records` empty; an incomplete frame leaves it as it was.
/// `buf` must start at a frame boundary (its first byte was sniffed as
/// [`BIN_MAGIC`]).
pub fn decode_request_frame_into(buf: &[u8], records: &mut Vec<BinInvoke>) -> FrameDecodeInto {
    let decoded = decode_frame(buf, records);
    if let FrameDecodeInto::Error { .. } = decoded {
        records.clear();
    }
    decoded
}

fn decode_frame(buf: &[u8], records: &mut Vec<BinInvoke>) -> FrameDecodeInto {
    if buf.len() < BIN_HEADER_LEN {
        return FrameDecodeInto::Incomplete;
    }
    if buf[0] != BIN_MAGIC {
        // Unreachable behind the sniff, but the codec stands alone.
        return FrameDecodeInto::Error {
            code: BinErrorCode::Malformed,
            detail: "bad magic".into(),
            skip: None,
        };
    }
    let version = buf[1];
    if version != BIN_VERSION_2 {
        return FrameDecodeInto::Error {
            code: BinErrorCode::BadVersion,
            detail: format!("unsupported version {version}"),
            skip: None,
        };
    }
    let kind = buf[2];
    let payload_len = u32_at(buf, 3) as usize;
    let count = u32_at(buf, 7) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return FrameDecodeInto::Error {
            code: BinErrorCode::Oversized,
            detail: format!("payload {payload_len} exceeds {MAX_FRAME_PAYLOAD}"),
            skip: None,
        };
    }
    let total = BIN_HEADER_LEN + payload_len;
    // From here on the envelope is trusted: every error is skippable.
    let malformed = |detail: String| FrameDecodeInto::Error {
        code: BinErrorCode::Malformed,
        detail,
        skip: Some(total),
    };
    let traced = kind == FRAME_REQUEST | FRAME_FLAG_TRACE;
    if !traced && kind != FRAME_REQUEST {
        return malformed(format!("unexpected frame kind {kind}"));
    }
    if count > MAX_BATCH {
        return FrameDecodeInto::Error {
            code: BinErrorCode::Oversized,
            detail: format!("batch of {count} exceeds {MAX_BATCH}"),
            skip: Some(total),
        };
    }
    let trace_len = if traced { TRACE_FIELD_LEN } else { 0 };
    if count * MIN_REQUEST_RECORD_LEN + trace_len > payload_len {
        // Decidable from the header alone — fail before buffering the
        // (possibly large) payload.
        return malformed(format!("count {count} cannot fit payload {payload_len}"));
    }
    if buf.len() < total {
        return FrameDecodeInto::Incomplete;
    }
    let payload = &buf[BIN_HEADER_LEN..total];
    let trace = traced.then(|| u64_at(payload, 0));
    if let Err(detail) = decode_records(&payload[trace_len..], count, records) {
        return malformed(detail);
    }
    FrameDecodeInto::Request {
        trace,
        consumed: total,
    }
}

/// Decodes the `count` records of a complete request payload into
/// `records` (see [`decode_request_frame_into`]).
// sitw-lint: hot-path
fn decode_records(
    payload: &[u8],
    count: usize,
    records: &mut Vec<BinInvoke>,
) -> Result<(), String> {
    records.reserve(count.saturating_sub(records.len()));
    let mut i = 0usize;
    for r in 0..count {
        // The aggregate count*MIN check of the header cannot guarantee
        // this: one oversized record can consume other records' minimum
        // budget, leaving fewer than the fixed prefix here.
        if i + 4 > payload.len() {
            // sitw-lint: allow(hot-path-alloc)
            return Err(format!("record {r} truncated"));
        }
        let tenant = u16::from_le_bytes([payload[i], payload[i + 1]]);
        let app_len = u16::from_le_bytes([payload[i + 2], payload[i + 3]]) as usize;
        i += 4;
        if app_len == 0 {
            // sitw-lint: allow(hot-path-alloc)
            return Err(format!("record {r}: empty app"));
        }
        if i + app_len + 8 > payload.len() {
            // sitw-lint: allow(hot-path-alloc)
            return Err(format!("record {r} overruns payload"));
        }
        let Ok(app) = std::str::from_utf8(&payload[i..i + app_len]) else {
            // sitw-lint: allow(hot-path-alloc)
            return Err(format!("record {r}: app is not utf-8"));
        };
        i += app_len;
        let ts = u64_at(payload, i);
        i += 8;
        match records.get_mut(r) {
            Some(rec) => {
                if rec.app.capacity() > crate::pool::NAME_CAP {
                    rec.app = String::new();
                }
                rec.app.clear();
                rec.app.push_str(app);
                rec.tenant = tenant;
                rec.ts = ts;
            }
            None => {
                // The buffer's first frame this long: it grows once.
                let app = app.to_owned(); // sitw-lint: allow(hot-path-alloc)
                records.push(BinInvoke { tenant, app, ts });
            }
        }
    }
    records.truncate(count);
    if i != payload.len() {
        // sitw-lint: allow(hot-path-alloc)
        return Err(format!(
            "{} trailing bytes after records",
            payload.len() - i
        ));
    }
    Ok(())
}

fn kind_to_bits(kind: DecisionKind) -> u8 {
    match kind {
        DecisionKind::Histogram => 0,
        DecisionKind::StandardKeepAlive => 1,
        DecisionKind::Arima => 2,
        DecisionKind::Static => 3,
    }
}

fn kind_from_bits(bits: u8) -> DecisionKind {
    match bits & 0b11 {
        0 => DecisionKind::Histogram,
        1 => DecisionKind::StandardKeepAlive,
        2 => DecisionKind::Arima,
        _ => DecisionKind::Static,
    }
}

/// Saturating millisecond window for the wire: `u32::MAX` means "at
/// least 49 days", which every policy treats as never.
fn sat_u32(ms: u64) -> u32 {
    ms.min(u32::MAX as u64) as u32
}

/// Encodes one reply frame, one 9-byte record per decision, in request
/// order (the node's path).
// sitw-lint: hot-path
pub(crate) fn encode_reply_frame(out: &mut Vec<u8>, results: &[Result<Decision, InvokeError>]) {
    encode_replies(out, results.iter().map(reply_of));
}

/// Re-encodes decoded reply records into one reply frame — the router's
/// reassembly path: a client frame split across nodes comes back as
/// per-node reply frames whose records are interleaved (in request
/// order) into the single frame the client expects.
/// Byte-for-byte inverse of the reply decoder. `version` must be
/// [`BIN_VERSION_2`], the only one there is.
// sitw-lint: hot-path
pub fn encode_reply_records(out: &mut Vec<u8>, version: u8, records: &[BinReply]) {
    debug_assert_eq!(version, BIN_VERSION_2);
    encode_replies(out, records.iter().copied());
}

// sitw-lint: hot-path
fn encode_replies(out: &mut Vec<u8>, records: impl ExactSizeIterator<Item = BinReply>) {
    let payload_len = records.len() * REPLY_RECORD_LEN;
    out.reserve(BIN_HEADER_LEN + payload_len);
    frame_header(out, FRAME_REPLY, payload_len, records.len());
    for rec in records {
        push_reply(out, rec);
    }
}

/// Appends one 9-byte reply record.
// sitw-lint: hot-path
fn push_reply(out: &mut Vec<u8>, rec: BinReply) {
    let mut record = [0u8; REPLY_RECORD_LEN];
    match rec {
        BinReply::Verdict {
            cold,
            prewarm_load,
            evicted,
            kind,
            pre_warm_ms,
            keep_alive_ms,
        } => {
            record[0] = (kind_to_bits(kind) << VB_KIND_SHIFT)
                | (u8::from(cold) * VB_COLD)
                | (u8::from(prewarm_load) * VB_PREWARM_LOAD)
                | (u8::from(evicted) * VB_EVICTED);
            record[1..5].copy_from_slice(&pre_warm_ms.to_le_bytes());
            record[5..].copy_from_slice(&keep_alive_ms.to_le_bytes());
        }
        BinReply::OutOfOrder { last_ts } => {
            record[0] = VB_OUT_OF_ORDER;
            record[1..].copy_from_slice(&last_ts.to_le_bytes());
        }
    }
    out.extend_from_slice(&record);
}

/// What the wire says of a node's result: windows saturate at
/// `u32::MAX` ("never").
// sitw-lint: hot-path
fn reply_of(result: &Result<Decision, InvokeError>) -> BinReply {
    match *result {
        Ok(d) => BinReply::Verdict {
            cold: d.cold,
            prewarm_load: d.prewarm_load,
            evicted: d.evicted,
            kind: d.kind,
            pre_warm_ms: sat_u32(d.windows.pre_warm_ms),
            keep_alive_ms: sat_u32(d.windows.keep_alive_ms),
        },
        Err(InvokeError::OutOfOrder { last_ts }) => BinReply::OutOfOrder { last_ts },
        // Unreachable in the daemon, where an unknown tenant id or an
        // unavailable shard refuses the whole frame with a typed error
        // frame. Encoded defensively: out of order, sentinel `last_ts`.
        Err(InvokeError::UnknownTenant | InvokeError::Unavailable) => {
            BinReply::OutOfOrder { last_ts: u64::MAX }
        }
    }
}

/// Encodes one typed error frame (detail truncated to 256 bytes).
pub fn encode_error_frame(out: &mut Vec<u8>, code: BinErrorCode, detail: &str) {
    let mut end = detail.len().min(256);
    while !detail.is_char_boundary(end) {
        end -= 1;
    }
    let detail = &detail.as_bytes()[..end];
    frame_header(out, FRAME_ERROR, 1 + 2 + detail.len(), 0);
    out.push(code.as_u8());
    out.extend_from_slice(&(detail.len() as u16).to_le_bytes());
    out.extend_from_slice(detail);
}

/// One decoded reply record, as seen by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinReply {
    /// A served decision.
    Verdict {
        /// The invocation found no loaded image.
        cold: bool,
        /// A pre-warm load occurred in the gap ending at this invocation.
        prewarm_load: bool,
        /// The image was evicted for memory pressure during the gap.
        evicted: bool,
        /// The policy branch that produced the windows.
        kind: DecisionKind,
        /// Pre-warm window in ms (saturated at `u32::MAX`).
        pre_warm_ms: u32,
        /// Keep-alive window in ms (saturated at `u32::MAX`).
        keep_alive_ms: u32,
    },
    /// The invocation was rejected as out of order.
    OutOfOrder {
        /// The app's last accepted timestamp.
        last_ts: u64,
    },
}

/// Outcome of decoding one server→client frame.
#[derive(Debug)]
pub enum ServerFrameDecode {
    /// A complete reply frame.
    Reply {
        /// Verdicts in request order.
        records: Vec<BinReply>,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// A complete typed error frame.
    Error {
        /// The typed error.
        code: BinErrorCode,
        /// Server-provided detail.
        detail: String,
        /// Total frame length in bytes.
        consumed: usize,
    },
    /// The buffer holds only part of a frame; read more and retry.
    Incomplete,
    /// The server sent something this codec cannot parse; the client
    /// must close.
    Malformed(String),
}

/// Decodes one server→client frame (reply or error). `buf` must start
/// at a frame boundary.
pub fn decode_server_frame(buf: &[u8]) -> ServerFrameDecode {
    if buf.len() < BIN_HEADER_LEN {
        return ServerFrameDecode::Incomplete;
    }
    if buf[0] != BIN_MAGIC || buf[1] != BIN_VERSION_2 {
        return ServerFrameDecode::Malformed(format!(
            "bad frame start {:02x} {:02x}",
            buf[0], buf[1]
        ));
    }
    let kind = buf[2];
    let payload_len = u32_at(buf, 3) as usize;
    let count = u32_at(buf, 7) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return ServerFrameDecode::Malformed(format!("oversized reply payload {payload_len}"));
    }
    let total = BIN_HEADER_LEN + payload_len;
    if buf.len() < total {
        return ServerFrameDecode::Incomplete;
    }
    let payload = &buf[BIN_HEADER_LEN..total];
    match kind {
        FRAME_REPLY => {
            if payload_len != count * REPLY_RECORD_LEN {
                return ServerFrameDecode::Malformed(format!(
                    "reply payload {payload_len} does not match count {count}"
                ));
            }
            let mut records = Vec::with_capacity(count);
            for r in 0..count {
                let i = r * REPLY_RECORD_LEN;
                let vb = payload[i];
                if vb & VB_OUT_OF_ORDER != 0 {
                    records.push(BinReply::OutOfOrder {
                        last_ts: u64_at(payload, i + 1),
                    });
                } else {
                    records.push(BinReply::Verdict {
                        cold: vb & VB_COLD != 0,
                        prewarm_load: vb & VB_PREWARM_LOAD != 0,
                        evicted: vb & VB_EVICTED != 0,
                        kind: kind_from_bits(vb >> VB_KIND_SHIFT),
                        pre_warm_ms: u32_at(payload, i + 1),
                        keep_alive_ms: u32_at(payload, i + 5),
                    });
                }
            }
            ServerFrameDecode::Reply {
                records,
                consumed: total,
            }
        }
        FRAME_ERROR => {
            if payload.len() < 3 {
                return ServerFrameDecode::Malformed("truncated error frame".into());
            }
            let Some(code) = BinErrorCode::from_u8(payload[0]) else {
                return ServerFrameDecode::Malformed(format!("unknown error code {}", payload[0]));
            };
            let detail_len = u16::from_le_bytes([payload[1], payload[2]]) as usize;
            if 3 + detail_len != payload.len() {
                return ServerFrameDecode::Malformed("error detail length mismatch".into());
            }
            let detail = String::from_utf8_lossy(&payload[3..]).into_owned();
            ServerFrameDecode::Error {
                code,
                detail,
                consumed: total,
            }
        }
        other => ServerFrameDecode::Malformed(format!("unexpected server frame kind {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::samples::Rng;
    use sitw_core::Windows;

    #[test]
    fn parse_roundtrip_and_field_order() {
        let r = parse_invoke(br#"{"app":"app-000017","ts":86400000}"#).unwrap();
        assert_eq!(r.app, "app-000017");
        assert_eq!(r.ts, 86_400_000);
        // Reversed field order and extra members are fine.
        let r = parse_invoke(br#"{ "ts": 5 , "app" : "x" , "extra": "y" }"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("x", 5));
    }

    #[test]
    fn parse_preserves_utf8_app_ids() {
        let r = parse_invoke("{\"app\":\"café-功能\",\"ts\":1}".as_bytes()).unwrap();
        assert_eq!(r.app, "café-功能");
    }

    #[test]
    fn parse_decodes_unicode_escapes() {
        // Regression: any valid JSON containing \uXXXX used to be
        // rejected with "unsupported escape \u".
        let r = parse_invoke(br#"{"app":"caf\u00e9-\u529f\u80fd","ts":1}"#).unwrap();
        assert_eq!(r.app, "caf\u{e9}-\u{529f}\u{80fd}");
        // Surrogate pair: \ud83d\ude80 decodes to U+1F680.
        let r = parse_invoke(br#"{"app":"\ud83d\ude80","ts":2}"#).unwrap();
        assert_eq!(r.app, "\u{1F680}");
        // Escapes in skipped members must parse too.
        let r = parse_invoke(br#"{"meta":"A\u0042\b\f","app":"a","ts":3}"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("a", 3));
        // Case-insensitive hex digits; literal text continues after.
        let r = parse_invoke(br#"{"app":"a\u004Bx","ts":4}"#).unwrap();
        assert_eq!(r.app, "aKx");
    }

    #[test]
    fn parse_rejects_invalid_unicode_escapes() {
        for body in [
            br#"{"app":"\u12","ts":1}"#.as_slice(),    // Truncated.
            br#"{"app":"\uzzzz","ts":1}"#.as_slice(),  // Not hex.
            br#"{"app":"\ud83d","ts":1}"#.as_slice(),  // Lone high surrogate.
            br#"{"app":"\ud83dx","ts":1}"#.as_slice(), // High + no escape.
            br#"{"app":"\ud83dA","ts":1}"#.as_slice(), // High + non-low.
            br#"{"app":"\ude80","ts":1}"#.as_slice(),  // Lone low surrogate.
        ] {
            assert!(
                parse_invoke(body).is_err(),
                "{}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn parse_skips_nested_unknown_members() {
        let r = parse_invoke(br#"{"meta":{"x":{"y":[1,2]},"s":"a}b"},"app":"a","ts":1}"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("a", 1));
        let r = parse_invoke(br#"{"app":"a","tags":[1,[2,3],"],"],"ts":7,"flag":true}"#).unwrap();
        assert_eq!((r.app.as_str(), r.ts), ("a", 7));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_invoke(b"").is_err());
        assert!(parse_invoke(b"[]").is_err());
        assert!(parse_invoke(br#"{"app":"x"}"#).is_err());
        assert!(parse_invoke(br#"{"ts":1}"#).is_err());
        assert!(parse_invoke(br#"{"app":"","ts":1}"#).is_err());
        assert!(parse_invoke(br#"{"app":"x","ts":-3}"#).is_err());
        assert!(parse_invoke(br#"{"app":"x","ts":99999999999999999999999}"#).is_err());
    }

    #[test]
    fn decision_renders_compact_json() {
        let mut out = Vec::new();
        render_decision(
            &mut out,
            &Decision {
                cold: true,
                prewarm_load: false,
                evicted: false,
                kind: sitw_core::DecisionKind::StandardKeepAlive,
                windows: Windows::keep_loaded(14_400_000),
            },
        );
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"verdict\":\"cold\",\"kind\":\"standard\",\"pre_warm_ms\":0,\
             \"keep_alive_ms\":14400000,\"prewarm_load\":false,\"evicted\":false}"
        );
    }

    #[test]
    fn decision_parses_back_from_its_rendering() {
        use sitw_core::DecisionKind::*;
        for (i, kind) in [Histogram, StandardKeepAlive, Arima, Static]
            .into_iter()
            .enumerate()
        {
            let d = Decision {
                cold: i % 2 == 0,
                prewarm_load: i == 1,
                evicted: i == 2,
                kind,
                windows: Windows {
                    pre_warm_ms: i as u64 * 540_000,
                    keep_alive_ms: u64::MAX - i as u64,
                },
            };
            let mut out = Vec::new();
            render_decision(&mut out, &d);
            assert_eq!(parse_decision(std::str::from_utf8(&out).unwrap()), Ok(d));
        }
        for body in [
            "",
            "{\"error\":\"no live nodes\"}",
            "{\"verdict\":\"tepid\",\"kind\":\"static\"}",
            "{\"verdict\":\"cold\",\"kind\":\"static\",\"pre_warm_ms\":x}",
        ] {
            assert!(parse_decision(body).is_err(), "{body}");
        }
    }

    #[test]
    fn tenant_usage_fold_saturates_instead_of_overflowing() {
        // Regression: the node summed shard slices with `+=`. The ledger
        // saturates the idle integral at u64::MAX (timestamps are
        // client-supplied), so two default-tenant slices can both sit
        // there — a debug-build panic on a reactor thread, a wrapped
        // integral in release.
        let slice = |name: &str, budget_mb| TenantUsage {
            name: name.into(),
            budget_mb,
            warm_mb: u64::MAX,
            evictions: 3,
            idle_mb_ms: u64::MAX,
            invocations: 7,
        };
        let folded = TenantUsage::fold([slice("default", 0), slice("t0", 64), slice("default", 9)]);
        assert_eq!(folded.len(), 2, "{folded:?}");
        let default = &folded[0];
        assert_eq!(default.name, "default");
        assert_eq!(default.budget_mb, 9, "budgets take the max");
        assert_eq!((default.idle_mb_ms, default.warm_mb), (u64::MAX, u64::MAX));
        assert_eq!((default.evictions, default.invocations), (6, 14));
        assert_eq!(folded[1], slice("t0", 64));
    }

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

    #[test]
    fn parse_reads_optional_tenant() {
        let r = parse_invoke(br#"{"app":"a","ts":1}"#).unwrap();
        assert_eq!(r.tenant, None);
        let r = parse_invoke(br#"{"tenant":"acme","app":"a","ts":2}"#).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("acme"));
        assert!(parse_invoke(br#"{"tenant":"","app":"a","ts":1}"#).is_err());
    }

    #[test]
    fn kind_str_roundtrip() {
        use sitw_core::DecisionKind::*;
        for k in [Histogram, StandardKeepAlive, Arima, Static] {
            assert_eq!(kind_from_str(kind_str(k)).unwrap(), k);
        }
        assert!(kind_from_str("nope").is_err());
    }

    #[test]
    fn json_escape_neutralizes_hostile_strings() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\\x"), "a\\\\x");
        assert_eq!(json_escape("q\"q"), "q\\\"q");
        assert_eq!(json_escape("n\nl"), "n\\nl");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("café"), "café");
    }

    #[test]
    fn push_u64_formats() {
        let mut out = Vec::new();
        push_u64(&mut out, 0);
        out.push(b' ');
        push_u64(&mut out, u64::MAX);
        assert_eq!(out, b"0 18446744073709551615");
    }

    // ---- SITW-BIN ----

    #[test]
    fn bin_magic_never_starts_an_http_method() {
        // The whole sniff: 0x5B is one past 'Z', outside A–Z.
        assert!(!BIN_MAGIC.is_ascii_uppercase());
        assert_eq!(BIN_MAGIC, b'Z' + 1);
    }

    #[test]
    fn request_frame_roundtrip() {
        let mut recs = Vec::new();
        let records = [
            (0, "app-000001", 0u64),
            (0, "café-功能", u64::MAX),
            (0, "x", 42),
        ];
        let mut out = Vec::new();
        encode_request_frame_v2(&mut out, &records);
        assert_eq!(out[0], BIN_MAGIC);
        match decode_request_frame_into(&out, &mut recs) {
            FrameDecodeInto::Request { trace, consumed } => {
                assert_eq!(consumed, out.len());
                assert_eq!(trace, None);
                assert_eq!(recs.len(), 3);
                assert_eq!(
                    recs[0],
                    BinInvoke {
                        tenant: 0,
                        app: "app-000001".into(),
                        ts: 0
                    }
                );
                assert_eq!(recs[1].app, "café-功能");
                assert_eq!(recs[1].ts, u64::MAX);
                assert_eq!((recs[2].app.as_str(), recs[2].ts), ("x", 42));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn v2_request_frame_roundtrips_tenant_ids() {
        let mut recs = Vec::new();
        let records = [
            (0u16, "app-000001", 7u64),
            (513, "café", 9),
            (u16::MAX, "x", 0),
        ];
        let mut out = Vec::new();
        encode_request_frame_v2(&mut out, &records);
        assert_eq!(out[1], BIN_VERSION_2);
        match decode_request_frame_into(&out, &mut recs) {
            FrameDecodeInto::Request { trace, consumed } => {
                assert_eq!(trace, None, "an untraced frame stays untraced");
                assert_eq!(consumed, out.len());
                for ((tenant, app, ts), got) in records.iter().zip(&recs) {
                    assert_eq!(got.tenant, *tenant);
                    assert_eq!(got.app, *app);
                    assert_eq!(got.ts, *ts);
                }
            }
            other => panic!("{other:?}"),
        }
        // A count that cannot fit the 13-byte minimum records is caught
        // from the header alone.
        let mut f = Vec::new();
        frame_header(&mut f, FRAME_REQUEST, 20, 2);
        match decode_request_frame_into(&f, &mut recs) {
            FrameDecodeInto::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(skip, Some(BIN_HEADER_LEN + 20));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traced_v2_frame_roundtrips_and_gates_on_version() {
        let mut recs = Vec::new();
        let records = [(1u16, "app-000001", 7u64), (2, "x", 9)];
        let trace_id = sitw_telemetry::TRACE_MARK | 0xBEEF;
        let mut out = Vec::new();
        encode_request_frame_v2_from(&mut out, records.into_iter(), Some(trace_id));
        assert_eq!(out[2], FRAME_REQUEST | FRAME_FLAG_TRACE);
        match decode_request_frame_into(&out, &mut recs) {
            FrameDecodeInto::Request { trace, consumed } => {
                assert_eq!(trace, Some(trace_id));
                assert_eq!(consumed, out.len());
                assert_eq!(recs.len(), 2);
                assert_eq!(
                    (recs[0].tenant, recs[0].app.as_str(), recs[0].ts),
                    (1, "app-000001", 7)
                );
            }
            other => panic!("{other:?}"),
        }
        // A traceless encode of the same records is byte-identical to
        // the pre-flag wire format: strip the flag and the trace prefix
        // and the frames match except for the payload length.
        let mut plain = Vec::new();
        encode_request_frame_v2(&mut plain, &records);
        assert_eq!(
            &out[BIN_HEADER_LEN + TRACE_FIELD_LEN..],
            &plain[BIN_HEADER_LEN..]
        );
        // Every proper prefix is Incomplete.
        for i in 0..out.len() {
            assert!(matches!(
                decode_request_frame_into(&out[..i], &mut recs),
                FrameDecodeInto::Incomplete
            ));
        }
        // Any version but 2 — the retired tenant-less 1 included — is
        // refused and cannot be skipped.
        for version in [0, 1, 3, 99] {
            let mut other = out.clone();
            other[1] = version;
            match decode_request_frame_into(&other, &mut recs) {
                FrameDecodeInto::Error { code, skip, .. } => {
                    assert_eq!(code, BinErrorCode::BadVersion, "version {version}");
                    assert_eq!(skip, None, "version {version}");
                }
                other => panic!("version {version}: {other:?}"),
            }
            assert!(matches!(
                decode_server_frame(&other),
                ServerFrameDecode::Malformed(_)
            ));
        }
        // A traced header whose payload cannot even hold the trace id
        // is caught from the header alone.
        let mut f = Vec::new();
        frame_header(&mut f, FRAME_REQUEST | FRAME_FLAG_TRACE, 4, 0);
        match decode_request_frame_into(&f, &mut recs) {
            FrameDecodeInto::Error { code, .. } => assert_eq!(code, BinErrorCode::Malformed),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_request_frame_roundtrips() {
        let mut recs = Vec::new();
        let mut out = Vec::new();
        encode_request_frame_v2(&mut out, &[]);
        assert_eq!(out.len(), BIN_HEADER_LEN);
        match decode_request_frame_into(&out, &mut recs) {
            FrameDecodeInto::Request { consumed, .. } => {
                assert!(recs.is_empty());
                assert_eq!(consumed, BIN_HEADER_LEN);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_proper_prefix_is_incomplete() {
        let mut recs = Vec::new();
        let mut frame = Vec::new();
        encode_request_frame_v2(&mut frame, &[(0, "app-000001", 123), (9, "β-app", 456)]);
        for i in 0..frame.len() {
            assert!(
                matches!(
                    decode_request_frame_into(&frame[..i], &mut recs),
                    FrameDecodeInto::Incomplete
                ),
                "prefix of {i} bytes must be Incomplete"
            );
        }
        // Trailing extra bytes are a second frame, not part of this one.
        let mut extended = frame.clone();
        extended.extend_from_slice(&[BIN_MAGIC, 0xFF, 0xFF]);
        match decode_request_frame_into(&extended, &mut recs) {
            FrameDecodeInto::Request { consumed, .. } => assert_eq!(consumed, frame.len()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_decode_rejects_bad_frames() {
        let mut recs = Vec::new();
        // Bad version: unrecoverable.
        let mut f = Vec::new();
        encode_request_frame_v2(&mut f, &[(0, "a", 1)]);
        f[1] = 9;
        match decode_request_frame_into(&f, &mut recs) {
            FrameDecodeInto::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::BadVersion);
                assert!(skip.is_none());
            }
            other => panic!("{other:?}"),
        }

        // Oversized payload: unrecoverable.
        let mut f = Vec::new();
        frame_header(&mut f, FRAME_REQUEST, MAX_FRAME_PAYLOAD + 1, 1);
        match decode_request_frame_into(&f, &mut recs) {
            FrameDecodeInto::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Oversized);
                assert!(skip.is_none());
            }
            other => panic!("{other:?}"),
        }

        // Oversized batch with an intact envelope: skippable.
        let mut f = Vec::new();
        frame_header(&mut f, FRAME_REQUEST, 4, MAX_BATCH + 1);
        f.extend_from_slice(&[0u8; 4]);
        match decode_request_frame_into(&f, &mut recs) {
            FrameDecodeInto::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Oversized);
                assert_eq!(skip, Some(BIN_HEADER_LEN + 4));
            }
            other => panic!("{other:?}"),
        }

        // Count that cannot fit the payload: caught from the header.
        let mut f = Vec::new();
        frame_header(&mut f, FRAME_REQUEST, 12, 1000);
        match decode_request_frame_into(&f, &mut recs) {
            FrameDecodeInto::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(skip, Some(BIN_HEADER_LEN + 12));
            }
            other => panic!("{other:?}"),
        }

        // Regression: count=2 passes the aggregate minimum-size check
        // (payload_len = 26 = 2 × 13), but record 0 declares app_len=14
        // and consumes all 26 bytes — record 1's prefix read used to
        // index past the payload and panic the connection thread.
        let mut payload = vec![0u8, 0, 14, 0];
        payload.extend_from_slice(b"aaaaaaaaaaaaaa");
        payload.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(payload.len(), 26);
        let mut f = Vec::new();
        frame_header(&mut f, FRAME_REQUEST, payload.len(), 2);
        f.extend_from_slice(&payload);
        match decode_request_frame_into(&f, &mut recs) {
            FrameDecodeInto::Error { code, skip, .. } => {
                assert_eq!(code, BinErrorCode::Malformed);
                assert_eq!(skip, Some(f.len()));
            }
            other => panic!("{other:?}"),
        }

        // Record-level malformations: empty app, overrun, bad UTF-8,
        // trailing bytes — all skippable.
        let cases: Vec<Vec<u8>> = vec![
            {
                // app_len = 0 (a pad byte reaches the record minimum).
                let mut p = vec![0u8, 0, 0, 0];
                p.extend_from_slice(&7u64.to_le_bytes());
                p.push(0xAA);
                p
            },
            {
                // app_len overruns the payload.
                let mut p = vec![0u8, 0, 200, 0, b'a'];
                p.extend_from_slice(&7u64.to_le_bytes());
                p
            },
            {
                // Invalid UTF-8 app bytes.
                let mut p = vec![0u8, 0, 2, 0, 0xFF, 0xFE];
                p.extend_from_slice(&7u64.to_le_bytes());
                p
            },
            {
                // Trailing garbage after the declared record.
                let mut p = vec![0u8, 0, 1, 0, b'a'];
                p.extend_from_slice(&7u64.to_le_bytes());
                p.extend_from_slice(b"junk");
                p
            },
        ];
        for payload in cases {
            let mut f = Vec::new();
            frame_header(&mut f, FRAME_REQUEST, payload.len(), 1);
            f.extend_from_slice(&payload);
            match decode_request_frame_into(&f, &mut recs) {
                FrameDecodeInto::Error { code, skip, .. } => {
                    assert_eq!(code, BinErrorCode::Malformed, "{payload:?}");
                    assert_eq!(skip, Some(f.len()), "{payload:?}");
                }
                other => panic!("{payload:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn reply_frame_roundtrip_including_errors_and_saturation() {
        let results: Vec<Result<Decision, InvokeError>> = vec![
            Ok(Decision {
                cold: true,
                prewarm_load: false,
                evicted: false,
                kind: DecisionKind::Histogram,
                windows: Windows::pre_warmed(120_000, 600_000),
            }),
            Err(InvokeError::OutOfOrder {
                last_ts: u64::MAX - 5,
            }),
            Ok(Decision {
                cold: false,
                prewarm_load: true,
                evicted: true,
                kind: DecisionKind::Static,
                // Saturates: the wire says u32::MAX, i.e. "never".
                windows: Windows::keep_loaded(u64::MAX),
            }),
        ];
        let mut out = Vec::new();
        encode_reply_frame(&mut out, &results);
        assert_eq!(out.len(), BIN_HEADER_LEN + 3 * REPLY_RECORD_LEN);
        match decode_server_frame(&out) {
            ServerFrameDecode::Reply { records, consumed } => {
                assert_eq!(consumed, out.len());
                assert_eq!(
                    records[0],
                    BinReply::Verdict {
                        cold: true,
                        prewarm_load: false,
                        evicted: false,
                        kind: DecisionKind::Histogram,
                        pre_warm_ms: 120_000,
                        keep_alive_ms: 600_000,
                    }
                );
                assert_eq!(
                    records[1],
                    BinReply::OutOfOrder {
                        last_ts: u64::MAX - 5
                    }
                );
                assert_eq!(
                    records[2],
                    BinReply::Verdict {
                        cold: false,
                        prewarm_load: true,
                        evicted: true,
                        kind: DecisionKind::Static,
                        pre_warm_ms: 0,
                        keep_alive_ms: u32::MAX,
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        // Every proper prefix of the reply is Incomplete, too.
        for i in 0..out.len() {
            assert!(matches!(
                decode_server_frame(&out[..i]),
                ServerFrameDecode::Incomplete
            ));
        }
    }

    #[test]
    fn error_frame_roundtrip_and_truncation() {
        let mut out = Vec::new();
        encode_error_frame(&mut out, BinErrorCode::Oversized, "too big");
        assert_eq!(out[1], BIN_VERSION_2);
        match decode_server_frame(&out) {
            ServerFrameDecode::Error {
                code,
                detail,
                consumed,
            } => {
                assert_eq!(code, BinErrorCode::Oversized);
                assert_eq!(detail, "too big");
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        // Long details truncate on a char boundary.
        let long = "é".repeat(300);
        let mut out = Vec::new();
        encode_error_frame(&mut out, BinErrorCode::Malformed, &long);
        match decode_server_frame(&out) {
            ServerFrameDecode::Error { detail, .. } => {
                assert!(detail.len() <= 256);
                assert!(detail.chars().all(|c| c == 'é'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_decision_kinds_roundtrip_through_verdict_bits() {
        use sitw_core::DecisionKind::*;
        for k in [Histogram, StandardKeepAlive, Arima, Static] {
            assert_eq!(kind_from_bits(kind_to_bits(k)), k);
        }
    }

    /// One frame of every kind the encoders write, by the name it has in
    /// `tests/golden/sitw_bin.hex`.
    fn golden_frames() -> Vec<(&'static str, Vec<u8>)> {
        use sitw_core::DecisionKind::*;
        let kinds = [Histogram, StandardKeepAlive, Arima, Static];
        let mut results = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let i = i as u64;
            let windows = Windows::pre_warmed(i * 60_000 + 1, 600_000 + i);
            for (cold, prewarm_load, evicted) in [
                (true, false, false),
                (false, true, false),
                (false, false, true),
                (true, true, true),
                (false, false, false),
            ] {
                results.push(Ok(Decision {
                    cold,
                    prewarm_load,
                    evicted,
                    kind,
                    windows,
                }));
            }
        }
        results.push(Ok(Decision {
            cold: true,
            prewarm_load: false,
            evicted: false,
            kind: Static,
            windows: Windows {
                pre_warm_ms: u64::MAX,
                keep_alive_ms: 1 << 40,
            },
        }));
        results.extend([
            Err(InvokeError::OutOfOrder {
                last_ts: u64::MAX - 5,
            }),
            Err(InvokeError::UnknownTenant),
            Err(InvokeError::Unavailable),
        ]);
        let mut replies = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let i = i as u32;
            replies.push(BinReply::Verdict {
                cold: true,
                prewarm_load: true,
                evicted: true,
                kind,
                pre_warm_ms: i,
                keep_alive_ms: u32::MAX - i,
            });
            replies.push(BinReply::Verdict {
                cold: false,
                prewarm_load: false,
                evicted: false,
                kind,
                pre_warm_ms: 0,
                keep_alive_ms: 600_000,
            });
        }
        replies.push(BinReply::OutOfOrder { last_ts: 55 });
        let trace = sitw_telemetry::TRACE_MARK | 0xBEEF;
        let request = [
            (1, "app-000001", 7),
            (513, "café", 9),
            (u16::MAX, "x", u64::MAX),
        ];
        let traced = [(2, "app-000002", 60_000), (0, "y", 1)];
        let long = "é".repeat(200);
        let frame = |encode: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            encode(&mut out);
            out
        };
        use BinErrorCode::*;
        vec![
            ("request", frame(&|o| encode_request_frame_v2(o, &request))),
            (
                "request_traced",
                frame(&|o| encode_request_frame_v2_from(o, traced.into_iter(), Some(trace))),
            ),
            (
                "request_tenant0",
                frame(&|o| encode_request_frame_v2(o, &[(0, "app-0", 0)])),
            ),
            ("request_empty", frame(&|o| encode_request_frame_v2(o, &[]))),
            ("reply_node", frame(&|o| encode_reply_frame(o, &results))),
            (
                "reply_router",
                frame(&|o| encode_reply_records(o, BIN_VERSION_2, &replies)),
            ),
            (
                "reply_empty",
                frame(&|o| encode_reply_records(o, BIN_VERSION_2, &[])),
            ),
            (
                "error_bad_version",
                frame(&|o| encode_error_frame(o, BadVersion, "unsupported version 1")),
            ),
            (
                "error_oversized",
                frame(&|o| encode_error_frame(o, Oversized, "batch of 8193 exceeds 8192")),
            ),
            (
                "error_malformed",
                frame(&|o| encode_error_frame(o, Malformed, "record 0: empty app")),
            ),
            (
                "error_unavailable",
                frame(&|o| encode_error_frame(o, Unavailable, "node n1 down")),
            ),
            (
                "error_truncated",
                frame(&|o| encode_error_frame(o, Malformed, &long)),
            ),
        ]
    }

    /// Decodes one whole frame and encodes what the decoder read.
    fn reencode(frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        if frame[2] & !FRAME_FLAG_TRACE == FRAME_REQUEST {
            let mut recs = Vec::new();
            match decode_request_frame_into(frame, &mut recs) {
                FrameDecodeInto::Request { trace, consumed } if consumed == frame.len() => {
                    let recs = recs.iter().map(|r| (r.tenant, r.app.as_str(), r.ts));
                    encode_request_frame_v2_from(&mut out, recs, trace);
                }
                other => panic!("{other:?}"),
            }
            return out;
        }
        match decode_server_frame(frame) {
            ServerFrameDecode::Reply { records, consumed } if consumed == frame.len() => {
                encode_reply_records(&mut out, BIN_VERSION_2, &records)
            }
            ServerFrameDecode::Error {
                code,
                detail,
                consumed,
            } if consumed == frame.len() => encode_error_frame(&mut out, code, &detail),
            other => panic!("{other:?}"),
        }
        out
    }

    /// The bytes do not move: every frame kind encodes to the golden
    /// captured before the tenant-less version 1 was retired (there,
    /// error frames alone carried version byte 1), and decodes to what
    /// re-encodes to it.
    #[test]
    fn every_frame_kind_matches_the_golden() {
        let golden: Vec<(&str, Vec<u8>)> = include_str!("../tests/golden/sitw_bin.hex")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (name, hex) = line.split_once(' ').expect("`name hex`");
                let byte = |i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex");
                (name, (0..hex.len()).step_by(2).map(byte).collect())
            })
            .collect();
        let frames = golden_frames();
        let names =
            |v: &[(&str, Vec<u8>)]| v.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&golden), names(&frames));
        for ((name, want), (_, got)) in golden.iter().zip(&frames) {
            assert_eq!(got, want, "{name} encodes to the golden");
            assert_eq!(&reencode(want), want, "{name} decodes to the golden");
        }
    }

    // ---- Control-plane bodies (`/admin/usage`, `/admin/budgets`) ----

    #[test]
    fn control_report_reply_roundtrips() {
        let tenants = [
            TenantUsage {
                name: "default".into(),
                budget_mb: 0,
                warm_mb: 123,
                evictions: 0,
                idle_mb_ms: u64::MAX,
                invocations: 10_000,
            },
            TenantUsage {
                name: "acme".into(),
                budget_mb: 4096,
                warm_mb: 4095,
                evictions: 17,
                idle_mb_ms: 5,
                invocations: 1,
            },
        ];
        let mut body = Vec::new();
        write_usage(&mut body, &tenants[1..]);
        assert_eq!(
            std::str::from_utf8(&body).unwrap(),
            "[{\"name\":\"acme\",\"budget_mb\":4096,\"warm_mb\":4095,\"evictions\":17,\
             \"idle_mb_ms\":5,\"invocations\":1}]"
        );
        for rows in [&tenants[..0], &tenants[..]] {
            body.clear();
            write_usage(&mut body, rows);
            assert_eq!(parse_usage(&body).unwrap(), rows);
            for cut in 0..body.len() {
                assert!(parse_usage(&body[..cut]).is_err(), "prefix {cut}");
            }
        }
    }

    #[test]
    fn control_budget_set_roundtrips() {
        let shares = vec![
            ("acme".to_owned(), 4096u64),
            ("c.a-f_e".to_owned(), 0),
            ("t7".to_owned(), u64::MAX),
        ];
        let mut body = Vec::new();
        write_budgets(&mut body, &shares);
        assert_eq!(body, b"acme=4096\nc.a-f_e=0\nt7=18446744073709551615\n");
        assert_eq!(parse_budgets(&body).unwrap(), shares);
        // The last newline is optional; an empty body is no shares.
        assert_eq!(parse_budgets(&body[..body.len() - 1]).unwrap(), shares);
        assert_eq!(parse_budgets(b"").unwrap(), vec![]);
    }

    #[test]
    fn control_decode_rejects_malformed_payloads() {
        let error = |at, expected| Err(BodyError { at, expected });
        for (body, want) in [
            (&b"acme"[..], error(0, "a tenant name")),
            (b"=5\n", error(0, "a tenant name")),
            (b"caf\xc3\xa9=5\n", error(0, "a tenant name")),
            (b"acme=\n", error(5, "a decimal u64")),
            (b"acme=-1\n", error(5, "a decimal u64")),
            (b"acme=18446744073709551616\n", error(5, "a decimal u64")),
            (b"acme=5 \n", error(6, "the end of the body")),
            (b"acme=5\n\n", error(7, "a tenant name")),
        ] {
            let got = parse_budgets(body).map(|_| ());
            assert_eq!(got, want, "{}", String::from_utf8_lossy(body));
        }
        let row = "{\"name\":\"t\",\"budget_mb\":1,\"warm_mb\":2,\"evictions\":3,\
                   \"idle_mb_ms\":4,\"invocations\":5}";
        for (body, want) in [
            (String::new(), error(0, "[")),
            (format!("[{row}"), error(row.len() + 1, ",{\"name\":\"")),
            (
                format!("[{row}] "),
                error(row.len() + 2, "the end of the body"),
            ),
            (format!("[{row},]"), error(row.len() + 1, ",{\"name\":\"")),
            (
                format!("[{}]", row.replace("\"t\"", "\"\"")),
                error(10, "a tenant name"),
            ),
            (
                format!("[{}]", row.replace("2,", "2 ,")),
                error(38, ",\"evictions\":"),
            ),
            (
                format!("[{}]", row.replace(":1", ":x")),
                error(25, "a decimal u64"),
            ),
        ] {
            assert_eq!(parse_usage(body.as_bytes()).map(|_| ()), want, "{body}");
        }
    }

    /// Names over `[A-Za-z0-9._-]`, 1 to 64 bytes.
    const NAME_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-";

    fn name_of(picks: &[usize]) -> String {
        let name: String = picks
            .iter()
            .map(|&i| NAME_CHARS[i % NAME_CHARS.len()] as char)
            .collect();
        if name.is_empty() {
            "t".into()
        } else {
            name
        }
    }

    /// A count: 0, `u64::MAX` or `raw`, by `pick`.
    fn count_of(pick: u64, raw: u64) -> u64 {
        match pick % 3 {
            0 => 0,
            1 => u64::MAX,
            _ => raw,
        }
    }

    /// Text of the shape a body parser reads: its delimiters, digits,
    /// name bytes and anything else.
    fn body_text(picks: &[usize], raw: &[u8]) -> Vec<u8> {
        const PARTS: [&[u8]; 12] = [
            b"[",
            b"]",
            b"{\"name\":\"",
            b"\"",
            b",",
            b"}",
            b"=",
            b"\n",
            b"0",
            b"18446744073709551615",
            b"t",
            b",\"warm_mb\":",
        ];
        let mut text: Vec<u8> = picks
            .iter()
            .flat_map(|&i| PARTS[i % PARTS.len()])
            .copied()
            .collect();
        text.extend_from_slice(raw);
        text
    }

    proptest::proptest! {
        #[test]
        fn usage_body_roundtrips(
            names in proptest::collection::vec(proptest::collection::vec(0usize..65, 0..65), 0..6),
            counts in proptest::collection::vec(0u64..=u64::MAX, 30..31),
        ) {
            let rows: Vec<TenantUsage> = names
                .iter()
                .zip(counts.chunks(5))
                .map(|(picks, c)| TenantUsage {
                    name: name_of(picks),
                    budget_mb: count_of(c[0], c[1]),
                    warm_mb: count_of(c[1], c[2]),
                    evictions: count_of(c[2], c[3]),
                    idle_mb_ms: count_of(c[3], c[4]),
                    invocations: count_of(c[4], c[0]),
                })
                .collect();
            let mut body = Vec::new();
            write_usage(&mut body, &rows);
            proptest::prop_assert_eq!(parse_usage(&body), Ok(rows));
        }

        #[test]
        fn usage_body_parses_or_refuses_any_text(
            picks in proptest::collection::vec(0usize..12, 0..48),
            raw in proptest::collection::vec(0u8..=255, 0..16),
        ) {
            for body in [body_text(&picks, &raw), raw.clone()] {
                match parse_usage(&body) {
                    Ok(parsed) => {
                        let mut again = Vec::new();
                        write_usage(&mut again, &parsed);
                        proptest::prop_assert_eq!(parse_usage(&again), Ok(parsed));
                    }
                    Err(e) => proptest::prop_assert!(e.at <= body.len(), "{e}"),
                }
            }
        }

        #[test]
        fn budget_body_roundtrips(
            names in proptest::collection::vec(proptest::collection::vec(0usize..65, 0..65), 0..6),
            counts in proptest::collection::vec(0u64..=u64::MAX, 12..13),
        ) {
            let shares: Vec<(String, u64)> = names
                .iter()
                .zip(counts.chunks(2))
                .map(|(picks, c)| (name_of(picks), count_of(c[0], c[1])))
                .collect();
            let mut body = Vec::new();
            write_budgets(&mut body, &shares);
            proptest::prop_assert_eq!(parse_budgets(&body), Ok(shares));
        }

        #[test]
        fn budget_body_parses_or_refuses_any_text(
            picks in proptest::collection::vec(0usize..12, 0..48),
            raw in proptest::collection::vec(0u8..=255, 0..16),
        ) {
            for body in [body_text(&picks, &raw), raw.clone()] {
                match parse_budgets(&body) {
                    Ok(parsed) => {
                        let mut again = Vec::new();
                        write_budgets(&mut again, &parsed);
                        proptest::prop_assert_eq!(parse_budgets(&again), Ok(parsed));
                    }
                    Err(e) => proptest::prop_assert!(e.at <= body.len(), "{e}"),
                }
            }
        }
    }

    #[test]
    fn reassembled_records_roundtrip_through_reencoder() {
        // The router's reassembly path: re-encode a mix of decoded
        // verdicts and an out-of-order rejection, then decode it as a
        // client would.
        let records = vec![
            BinReply::Verdict {
                cold: true,
                prewarm_load: false,
                evicted: true,
                kind: DecisionKind::Histogram,
                pre_warm_ms: 7,
                keep_alive_ms: 9,
            },
            BinReply::OutOfOrder { last_ts: 55 },
        ];
        let mut out = Vec::new();
        encode_reply_records(&mut out, BIN_VERSION_2, &records);
        match decode_server_frame(&out) {
            ServerFrameDecode::Reply {
                records: got,
                consumed,
            } => {
                assert_eq!(got, records);
                assert_eq!(consumed, out.len());
            }
            other => panic!("{other:?}"),
        }
        // Byte-for-byte inverse of the daemon's own encoder: a frame
        // decoded and re-encoded is the identical frame.
        let mut results_frame = Vec::new();
        encode_reply_frame(
            &mut results_frame,
            &[
                Ok(Decision {
                    cold: false,
                    prewarm_load: true,
                    evicted: false,
                    kind: DecisionKind::Arima,
                    windows: sitw_core::Windows::pre_warmed(1, 2),
                }),
                Err(InvokeError::OutOfOrder { last_ts: 3 }),
            ],
        );
        let ServerFrameDecode::Reply { records, .. } = decode_server_frame(&results_frame) else {
            panic!("reply expected");
        };
        let mut reencoded = Vec::new();
        encode_reply_records(&mut reencoded, BIN_VERSION_2, &records);
        assert_eq!(reencoded, results_frame);
    }

    #[test]
    fn reserved_verdict_bits_are_ignored_when_read() {
        let verdict = BinReply::Verdict {
            cold: true,
            prewarm_load: false,
            evicted: true,
            kind: DecisionKind::StandardKeepAlive,
            pre_warm_ms: 7,
            keep_alive_ms: 9,
        };
        let mut frame = Vec::new();
        encode_reply_records(&mut frame, BIN_VERSION_2, &[verdict]);
        // Bits 5 and 6 are reserved: a record carrying them decodes as
        // the verdict its other bits give, and re-encoding clears them.
        for reserved in [1 << 5, 1 << 6, 0b0110_0000] {
            let mut marked = frame.clone();
            marked[BIN_HEADER_LEN] |= reserved;
            let ServerFrameDecode::Reply { records, .. } = decode_server_frame(&marked) else {
                panic!("reply expected");
            };
            assert_eq!(records, [verdict]);
            let mut again = Vec::new();
            encode_reply_records(&mut again, BIN_VERSION_2, &records);
            assert_eq!(again, frame);
        }
    }

    #[test]
    fn unavailable_error_code_roundtrips() {
        let mut out = Vec::new();
        encode_error_frame(&mut out, BinErrorCode::Unavailable, "node n1 down");
        match decode_server_frame(&out) {
            ServerFrameDecode::Error { code, detail, .. } => {
                assert_eq!(code, BinErrorCode::Unavailable);
                assert_eq!(detail, "node n1 down");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(BinErrorCode::from_u8(4), Some(BinErrorCode::Unavailable));
    }

    #[test]
    fn parse_invoke_into_reuses_the_request_strings() {
        let mut req = InvokeRequest::default();
        parse_invoke_into(br#"{"tenant":"acme","app":"app-000001","ts":1}"#, &mut req).unwrap();
        let (app, tenant) = (req.app.as_ptr(), req.tenant.as_ref().unwrap().as_ptr());
        // Keys compare as bytes, escaped or not; an unknown long key is
        // skipped, strings inside it included.
        let body = br#"{"\u0061pp":"app-2","a-long-unknown-key":"x","tenant":"b","ts":2}"#;
        parse_invoke_into(body, &mut req).unwrap();
        assert_eq!(
            (req.app.as_str(), req.tenant.as_deref(), req.ts),
            ("app-2", Some("b"), 2)
        );
        assert_eq!(req.app.as_ptr(), app, "the app id is rewritten in place");
        assert_eq!(req.tenant.as_ref().unwrap().as_ptr(), tenant);
        // A request without a tenant clears it.
        parse_invoke_into(br#"{"app":"c","ts":3}"#, &mut req).unwrap();
        assert_eq!(req, parse_invoke(br#"{"app":"c","ts":3}"#).unwrap());
        assert_eq!(req.tenant, None);
        // Errors are the ones a whole-string check reports, in its order.
        for (body, err) in [
            (
                &b"{\"app\":\"\xff\\q\",\"ts\":1}"[..],
                "unsupported escape \\q",
            ),
            (b"{\"app\":\"\xff\",\"ts\":1}", "invalid utf-8 in string"),
            (b"{\"app\":\"\xff", "unterminated string"),
        ] {
            assert_eq!(parse_invoke(body).unwrap_err(), err);
        }
    }

    // -----------------------------------------------------------------
    // The body early exit against the general scan it stands in front of.

    /// A body as the load generator and the benchmark write it: app ids
    /// of their shape or any printable ASCII, `ts` of any width up to
    /// 19 digits.
    fn canonical_body(rng: &mut Rng) -> Vec<u8> {
        let app: String = match rng.below(3) {
            0 => format!("app-{:06}", rng.below(1_000_000)),
            _ => (0..=rng.below(12))
                .map(|_| rng.pick(b" !#$%&'()*+,-./09:;<=>?@AZ[]^_`az{|}~") as char)
                .collect(),
        };
        let ts = (rng.next() >> rng.below(64)) % 10u64.pow(19);
        format!("{{\"app\":\"{app}\",\"ts\":{ts}}}").into_bytes()
    }

    /// `ts` values at the edges of the early exit's number: leading
    /// zeros, 19 digits, 20 that fit a `u64` and 20 that do not, and
    /// what is no number at all.
    const EDGE_TS: [&str; 8] = [
        "0007",
        "1234567890123456789",
        "12345678901234567890",
        "18446744073709551616",
        "99999999999999999999999",
        "-1",
        "1.5",
        "",
    ];

    /// `b` with the digits after its first `"ts":` replaced by `ts`.
    fn set_ts(b: &mut Vec<u8>, ts: &str) {
        if let Some(at) = b.windows(5).position(|w| w == br#""ts":"#) {
            let digits = b[at + 5..].iter().take_while(|c| c.is_ascii_digit());
            let end = at + 5 + digits.count();
            b.splice(at + 5..end, ts.bytes()).for_each(drop);
        }
    }

    /// One to three edits of the kinds the early exit must hand over:
    /// case, every whitespace byte and `\x0B`, non-ASCII, escapes,
    /// leading zeros, 19- and 20-digit numbers, a tenant, reordered and
    /// extra members, empty names, trailing, deleted and replaced bytes.
    fn mutate_body(rng: &mut Rng, b: &mut Vec<u8>) {
        fn insert(b: &mut Vec<u8>, at: usize, bytes: &[u8]) {
            b.splice(at..at, bytes.iter().copied()).for_each(drop);
        }
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(b.len() as u64 + 1) as usize;
            match rng.below(11) {
                0 => {
                    if let Some(c) = b.get_mut(at) {
                        c.make_ascii_uppercase();
                    }
                }
                1 => b.insert(at, rng.pick(b" \t\x0B\x0C\r\n")),
                2 => insert(b, at, "é".as_bytes()),
                3 => insert(
                    b,
                    at,
                    rng.pick(&[&br"\u0041"[..], br"\n", br"\\", br#"\""#, b"\xff"]),
                ),
                4 => set_ts(b, rng.pick(&EDGE_TS)),
                5 => {
                    *b = rng
                        .pick(&[
                            &br#"{"ts":1,"app":"app-000001"}"#[..],
                            br#"{"app":"","ts":1}"#,
                            br#"{"app":"a","ts":1,"tenant":""}"#,
                            br#"{"app":"a","ts":1,"tenant":"t0"}"#,
                            br#"{"tenant":"t","app":"a","ts":1}"#,
                        ])
                        .to_vec()
                }
                6 => insert(b, b.len().saturating_sub(1), br#","extra":[1,{"a":"}"}]"#),
                7 => b.extend_from_slice(rng.pick(&[&b" "[..], b"}", b"garbage", b"\n"])),
                8 if at < b.len() => {
                    b.remove(at);
                }
                9 if at < b.len() => b[at] = rng.next() as u8,
                _ => b.truncate(at),
            }
        }
    }

    /// What one parser made of a block: its verdict and the scratch.
    type Parsed = (Result<(), String>, InvokeRequest);

    /// Both parsers from the same dirty scratch, as a reused reactor's.
    fn both_parsers(body: &[u8]) -> (Parsed, Parsed) {
        let dirty = InvokeRequest {
            app: "stale-app".into(),
            ts: 77,
            tenant: Some("stale-tenant".into()),
        };
        let (mut fast, mut general) = (dirty.clone(), dirty);
        let got = parse_invoke_into(body, &mut fast);
        let want = parse_invoke_general(body, &mut general);
        ((got, fast), (want, general))
    }

    proptest::proptest! {
        #[test]
        fn body_early_exit_equals_the_general_parser(
            seed in 0u64..=u64::MAX,
            arbitrary in proptest::collection::vec(0u8..=255, 0..48),
        ) {
            let rng = &mut Rng(seed);
            let canonical = canonical_body(rng);
            let mut mutated = canonical.clone();
            mutate_body(rng, &mut mutated);
            let mut edge = canonical.clone();
            set_ts(&mut edge, rng.pick(&EDGE_TS));
            let mut tail = br#"{"app":"#.to_vec();
            tail.extend_from_slice(&arbitrary);
            for body in [&canonical, &mutated, &edge, &arbitrary, &tail] {
                let (got, want) = both_parsers(body);
                proptest::prop_assert!(
                    got == want,
                    "{got:?} != {want:?} on {:?}",
                    String::from_utf8_lossy(body)
                );
            }
            // The canonical body is the early exit's own.
            let mut req = InvokeRequest::default();
            proptest::prop_assert!(parse_canonical_invoke(&canonical, &mut req).is_some());
        }
    }

    #[test]
    fn body_early_exit_hands_over_at_each_documented_edge() {
        for body in [
            &br#"{"app":"a\u0062","ts":1}"#[..],
            br#"{"app":"a\"b","ts":1}"#,
            "{\"app\":\"caf\u{e9}\",\"ts\":1}".as_bytes(),
            br#"{"app":"a","ts":12345678901234567890}"#,
            br#"{"ts":1,"app":"a"}"#,
            br#"{ "app":"a","ts":1}"#,
            br#"{"app":"a","ts":1} "#,
            br#"{"app":"","ts":1}"#,
            br#"{"app":"a","ts":1,"tenant":""}"#,
            br#"{"app":"a","ts":}"#,
            b"{\"app\":\"a\tb\",\"ts\":1}",
        ] {
            let mut req = InvokeRequest::default();
            assert_eq!(
                parse_canonical_invoke(body, &mut req),
                None,
                "{}",
                String::from_utf8_lossy(body)
            );
            assert_eq!(req, InvokeRequest::default(), "untouched on a hand-over");
            let (got, want) = both_parsers(body);
            assert_eq!(got, want);
        }
        // Within the grammar: leading zeros, 19 digits, any printable
        // name; a tenant left by an earlier request is cleared.
        let mut req = InvokeRequest {
            tenant: Some("stale".into()),
            ..InvokeRequest::default()
        };
        let body = br#"{"app":"a b}{:,","ts":0009999999999999999999}"#;
        assert_eq!(parse_canonical_invoke(body, &mut req), None, "22 digits");
        let body = br#"{"app":"a b}{:,","ts":0999999999999999999}"#;
        assert_eq!(parse_canonical_invoke(body, &mut req), Some(()));
        assert_eq!(
            (req.app.as_str(), req.ts, req.tenant.as_deref()),
            ("a b}{:,", 999_999_999_999_999_999, None)
        );
        assert_eq!(both_parsers(body).0, both_parsers(body).1);
    }

    #[test]
    fn a_reused_record_buffer_keeps_its_names() {
        let mut recs = Vec::new();
        let mut f = Vec::new();
        encode_request_frame_v2(&mut f, &[(1, "app-000001", 5), (2, "app-000002", 6)]);
        assert!(matches!(
            decode_request_frame_into(&f, &mut recs),
            FrameDecodeInto::Request { .. }
        ));
        let names: Vec<*const u8> = recs.iter().map(|r| r.app.as_ptr()).collect();
        // A shorter frame rewrites the first name in place.
        f.clear();
        encode_request_frame_v2(&mut f, &[(3, "app-3", 7)]);
        assert!(matches!(
            decode_request_frame_into(&f, &mut recs),
            FrameDecodeInto::Request { .. }
        ));
        assert_eq!(
            recs,
            [BinInvoke {
                tenant: 3,
                app: "app-3".into(),
                ts: 7
            }]
        );
        assert_eq!(recs[0].app.as_ptr(), names[0]);
        // An incomplete frame leaves the buffer as it was; a name grown
        // past the pool's cap is not kept once a later frame rewrites it.
        let long = "x".repeat(crate::pool::NAME_CAP + 1);
        f.clear();
        encode_request_frame_v2(&mut f, &[(0, &long, 8)]);
        assert!(matches!(
            decode_request_frame_into(&f[..f.len() - 1], &mut recs),
            FrameDecodeInto::Incomplete
        ));
        assert_eq!(recs[0].app, "app-3");
        decode_request_frame_into(&f, &mut recs);
        assert_eq!(recs[0].app, long);
        f.clear();
        encode_request_frame_v2(&mut f, &[(0, "a", 9)]);
        decode_request_frame_into(&f, &mut recs);
        assert!(recs[0].app.capacity() <= crate::pool::NAME_CAP);
        // A malformed frame leaves it empty.
        f[BIN_HEADER_LEN + 2] = 0;
        f[BIN_HEADER_LEN + 3] = 0;
        assert!(matches!(
            decode_request_frame_into(&f, &mut recs),
            FrameDecodeInto::Error { .. }
        ));
        assert!(recs.is_empty());
    }
}
