//! The workspace invariant rules `sitw-lint` enforces, over the token
//! stream of [`crate::lexer`].
//!
//! | rule id             | invariant                                                     |
//! |---------------------|---------------------------------------------------------------|
//! | `unsafe-confinement`| `unsafe` only in `crates/reactor`; every other crate root has `#![forbid(unsafe_code)]` |
//! | `hot-path-alloc`    | no `format!`/`vec!`/`.to_string()`/`.to_owned()`/`.to_vec()`/`.collect()`/`String::from`/`Vec::new`/`Box::new`/`.clone()` in `// sitw-lint: hot-path` functions |
//! | `panic-freedom`     | no `.unwrap()`/`.expect(`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in hot-path functions |
//! | `clock-discipline`  | `Instant::now`/`SystemTime::now` only in `crates/telemetry`, test code, or allowlisted lines |
//! | `directive`         | every `// sitw-lint:` comment parses                          |
//!
//! Suppression: `// sitw-lint: allow(rule-a, rule-b)` silences those
//! rules on the line below it (or, as a trailing comment, on its own
//! line). Hot regions are opted
//! in with `// sitw-lint: hot-path` immediately before a `fn`; the
//! region is that function's body, braces matched by the lexer's token
//! stream.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::ops::RangeInclusive;
use std::path::Path;

use crate::lexer::{lex, Token, TokenKind};

/// Every rule id, in report order.
pub const RULES: [&str; 5] = [
    "unsafe-confinement",
    "hot-path-alloc",
    "panic-freedom",
    "clock-discipline",
    "directive",
];

/// One finding, addressable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A `// sitw-lint:` comment, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    /// `allow(rule, …)`
    Allow(Vec<String>),
    /// `hot-path`
    HotPath,
    /// Anything else (reported by the `directive` rule).
    Unknown(String),
}

fn parse_directive(comment: &str) -> Option<Directive> {
    let rest = comment.trim().strip_prefix("sitw-lint:")?.trim();
    if rest == "hot-path" {
        return Some(Directive::HotPath);
    }
    if let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
    {
        let rules: Vec<String> = inner
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if !rules.is_empty() && rules.iter().all(|r| RULES.contains(&r.as_str())) {
            return Some(Directive::Allow(rules));
        }
    }
    Some(Directive::Unknown(rest.to_string()))
}

/// One lexed source file with its directive side tables.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens ("code view").
    code: Vec<usize>,
    /// Line → rules allowed on that line and the next.
    allows: HashMap<u32, HashSet<String>>,
    /// Hot-path function bodies, as inclusive code-view ranges.
    hot: Vec<RangeInclusive<usize>>,
    /// `#[cfg(test)] mod` bodies, as inclusive code-view ranges.
    tests: Vec<RangeInclusive<usize>>,
    /// Malformed `sitw-lint:` directives: `(line, text)`.
    bad_directives: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lexes and indexes one file.
    pub fn parse(rel: String, src: &str) -> SourceFile {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokenKind::Comment)
            .map(|(i, _)| i)
            .collect();
        let mut f = SourceFile {
            rel,
            tokens,
            code,
            allows: HashMap::new(),
            hot: Vec::new(),
            tests: Vec::new(),
            bad_directives: Vec::new(),
        };
        f.index_directives();
        f.index_test_regions();
        f
    }

    fn tok(&self, p: usize) -> Option<&Token> {
        self.code.get(p).map(|&i| &self.tokens[i])
    }

    fn is_ident(&self, p: usize, s: &str) -> bool {
        self.tok(p).is_some_and(|t| t.is_ident(s))
    }

    fn is_punct(&self, p: usize, c: char) -> bool {
        self.tok(p).is_some_and(|t| t.is_punct(c))
    }

    /// Is `rule` suppressed at `line`? (`index_directives` resolves
    /// each allow comment to the line it covers.)
    fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allows.get(&line).is_some_and(|set| set.contains(rule))
    }

    /// Finds the body (code-view range) of the next `fn` after token
    /// index `after`: the first `{`…matching-`}` following the `fn`
    /// keyword. Rust bodies are brace-balanced in token space, so no
    /// grammar is needed.
    fn fn_body_after(&self, after: usize) -> Option<RangeInclusive<usize>> {
        let start = self.code.partition_point(|&ti| ti <= after);
        let fn_pos = (start..self.code.len()).find(|&p| self.is_ident(p, "fn"))?;
        let open = (fn_pos..self.code.len()).find(|&p| self.is_punct(p, '{'))?;
        let close = self.match_brace(open)?;
        Some(open..=close)
    }

    /// The matching `}` for the `{` at code position `open`.
    fn match_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for p in open..self.code.len() {
            if self.is_punct(p, '{') {
                depth += 1;
            } else if self.is_punct(p, '}') {
                depth -= 1;
                if depth == 0 {
                    return Some(p);
                }
            }
        }
        None
    }

    fn index_directives(&mut self) {
        let comments: Vec<(usize, u32, String)> = self
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Comment)
            .map(|(i, t)| (i, t.line, t.text.clone()))
            .collect();
        for (idx, line, text) in comments {
            match parse_directive(&text) {
                None => {}
                Some(Directive::Allow(rules)) => {
                    // A trailing allow covers its own line; a
                    // standalone allow covers the line below it.
                    let trailing = idx > 0 && self.tokens[idx - 1].line == line;
                    let covers = if trailing { line } else { line + 1 };
                    self.allows.entry(covers).or_default().extend(rules);
                }
                Some(Directive::HotPath) => {
                    if let Some(range) = self.fn_body_after(idx) {
                        self.hot.push(range);
                    } else {
                        self.bad_directives
                            .push((line, "hot-path with no following fn body".to_string()));
                    }
                }
                Some(Directive::Unknown(text)) => {
                    self.bad_directives.push((line, text));
                }
            }
        }
    }

    fn index_test_regions(&mut self) {
        let mut p = 0;
        while p + 6 < self.code.len() {
            // #[cfg(test)] — attribute tokens are uniform, match flat.
            if self.is_punct(p, '#')
                && self.is_punct(p + 1, '[')
                && self.is_ident(p + 2, "cfg")
                && self.is_punct(p + 3, '(')
                && self.is_ident(p + 4, "test")
                && self.is_punct(p + 5, ')')
                && self.is_punct(p + 6, ']')
            {
                if let Some(open) = (p + 7..self.code.len()).find(|&q| self.is_punct(q, '{')) {
                    if let Some(close) = self.match_brace(open) {
                        self.tests.push(open..=close);
                        p = open + 1; // nested cfg(test) folds into the outer region
                        continue;
                    }
                }
            }
            p += 1;
        }
    }

    fn in_any(&self, p: usize, regions: &[RangeInclusive<usize>]) -> bool {
        regions.iter().any(|r| r.contains(&p))
    }
}

/// The lint scope of one path (derived from its workspace-relative
/// location).
struct Scope {
    /// Under `crates/reactor/` — the one place `unsafe` may live.
    reactor: bool,
    /// Under `crates/telemetry/` — the one place wall clocks may live.
    telemetry: bool,
    /// A crate root: `src/lib.rs`, `src/main.rs`, `src/bin/*.rs`, or an
    /// `examples/*.rs` target.
    crate_root: bool,
    /// Measurement code, whose job is reading wall clocks: under a
    /// `tests/` or `benches/` directory, or in the `benchmark/` harness.
    /// Exempt from `clock-discipline` only — `unsafe-confinement` still
    /// applies.
    test_code: bool,
}

fn scope_of(rel: &str) -> Scope {
    let parts: Vec<&str> = rel.split('/').collect();
    let reactor = rel.starts_with("crates/reactor/");
    let telemetry = rel.starts_with("crates/telemetry/");
    let crate_root = rel.ends_with("src/lib.rs")
        || rel.ends_with("src/main.rs")
        || parts
            .windows(2)
            .any(|w| w == ["src", "bin"] || w[0] == "examples")
            && rel.ends_with(".rs");
    let test_code =
        rel.starts_with("benchmark/") || parts.iter().any(|p| *p == "tests" || *p == "benches");
    Scope {
        reactor,
        telemetry,
        crate_root,
        test_code,
    }
}

/// A loaded workspace: every `.rs` file under the root, lexed and
/// indexed (skipping `target/`, `.git/`, and `fixtures/` trees).
pub struct Workspace {
    /// The files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root` and parses every Rust source it finds.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths: Vec<std::path::PathBuf> = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if entry.file_type()?.is_dir() {
                    if name == "target" || name == ".git" || name == "fixtures" {
                        continue;
                    }
                    stack.push(path);
                } else if name.ends_with(".rs") {
                    paths.push(path);
                }
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = fs::read_to_string(&path)?;
            files.push(SourceFile::parse(rel, &src));
        }
        Ok(Workspace { files })
    }

    /// A workspace from in-memory sources (fixture self-tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel.to_string(), src))
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace { files }
    }

    /// Runs every rule; diagnostics sorted by `(file, line, rule)`.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut diags: Vec<Diagnostic> = Vec::new();
        for file in &self.files {
            let scope = scope_of(&file.rel);
            rule_directives(file, &mut diags);
            rule_unsafe_confinement(file, &scope, &mut diags);
            rule_hot_path(file, &mut diags);
            rule_clock_discipline(file, &scope, &mut diags);
        }
        diags.sort();
        diags.dedup();
        diags
    }
}

fn emit(
    diags: &mut Vec<Diagnostic>,
    file: &SourceFile,
    line: u32,
    rule: &'static str,
    msg: String,
) {
    if !file.allowed(line, rule) {
        diags.push(Diagnostic {
            file: file.rel.clone(),
            line,
            rule,
            message: msg,
        });
    }
}

fn rule_directives(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for (line, text) in &file.bad_directives {
        emit(
            diags,
            file,
            *line,
            "directive",
            format!("unrecognized or malformed sitw-lint directive: `{text}`"),
        );
    }
}

fn rule_unsafe_confinement(file: &SourceFile, scope: &Scope, diags: &mut Vec<Diagnostic>) {
    if scope.reactor {
        return;
    }
    for p in 0..file.code.len() {
        if file.is_ident(p, "unsafe") {
            let line = file.tok(p).map_or(0, |t| t.line);
            emit(
                diags,
                file,
                line,
                "unsafe-confinement",
                "`unsafe` outside crates/reactor (the workspace's only unsafe crate)".to_string(),
            );
        }
    }
    if scope.crate_root {
        let has_forbid = (0..file.code.len()).any(|p| {
            file.is_punct(p, '#')
                && file.is_punct(p + 1, '!')
                && file.is_punct(p + 2, '[')
                && file.is_ident(p + 3, "forbid")
                && file.is_punct(p + 4, '(')
                && file.is_ident(p + 5, "unsafe_code")
                && file.is_punct(p + 6, ')')
                && file.is_punct(p + 7, ']')
        });
        if !has_forbid {
            emit(
                diags,
                file,
                1,
                "unsafe-confinement",
                "crate root missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }
}

/// Allocation and panic sites inside `// sitw-lint: hot-path` bodies.
fn rule_hot_path(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for range in &file.hot {
        for p in range.clone() {
            let line = file.tok(p).map_or(0, |t| t.line);
            // hot-path-alloc --------------------------------------------------
            let alloc: Option<&str> = if file.is_ident(p, "format") && file.is_punct(p + 1, '!') {
                Some("`format!` allocates a fresh String")
            } else if file.is_ident(p, "vec") && file.is_punct(p + 1, '!') {
                Some("`vec!` allocates a fresh Vec")
            } else if file.is_punct(p, '.') && file.is_ident(p + 1, "collect") {
                Some("`.collect()` builds a fresh collection (extend a reused one)")
            } else if file.is_punct(p, '.')
                && file.is_ident(p + 1, "to_string")
                && file.is_punct(p + 2, '(')
            {
                Some("`.to_string()` allocates a fresh String")
            } else if file.is_punct(p, '.')
                && file.is_ident(p + 1, "to_owned")
                && file.is_punct(p + 2, '(')
            {
                Some("`.to_owned()` allocates an owned copy")
            } else if file.is_punct(p, '.')
                && file.is_ident(p + 1, "to_vec")
                && file.is_punct(p + 2, '(')
            {
                Some("`.to_vec()` allocates a fresh Vec")
            } else if file.is_ident(p, "String")
                && file.is_punct(p + 1, ':')
                && file.is_punct(p + 2, ':')
                && file.is_ident(p + 3, "from")
            {
                Some("`String::from` allocates a fresh String")
            } else if file.is_ident(p, "Vec")
                && file.is_punct(p + 1, ':')
                && file.is_punct(p + 2, ':')
                && file.is_ident(p + 3, "new")
            {
                Some("`Vec::new` creates a fresh Vec (reuse a scratch buffer)")
            } else if file.is_ident(p, "Box")
                && file.is_punct(p + 1, ':')
                && file.is_punct(p + 2, ':')
                && file.is_ident(p + 3, "new")
            {
                Some("`Box::new` heap-allocates")
            } else if file.is_punct(p, '.')
                && file.is_ident(p + 1, "clone")
                && file.is_punct(p + 2, '(')
            {
                Some("`.clone()` in the steady state")
            } else {
                None
            };
            if let Some(msg) = alloc {
                emit(
                    diags,
                    file,
                    line,
                    "hot-path-alloc",
                    format!("{msg} inside a hot-path function"),
                );
            }
            // panic-freedom ---------------------------------------------------
            let panic: Option<&str> = if file.is_punct(p, '.')
                && file.is_ident(p + 1, "unwrap")
                && file.is_punct(p + 2, '(')
            {
                Some("`.unwrap()`")
            } else if file.is_punct(p, '.')
                && file.is_ident(p + 1, "expect")
                && file.is_punct(p + 2, '(')
            {
                Some("`.expect(…)`")
            } else if file.is_punct(p + 1, '!')
                && ["panic", "unreachable", "todo", "unimplemented"]
                    .iter()
                    .any(|m| file.is_ident(p, m))
            {
                Some("a panicking macro")
            } else {
                None
            };
            if let Some(what) = panic {
                emit(
                    diags,
                    file,
                    line,
                    "panic-freedom",
                    format!("{what} can panic inside a hot-path function; handle the None/Err arm"),
                );
            }
        }
    }
}

fn rule_clock_discipline(file: &SourceFile, scope: &Scope, diags: &mut Vec<Diagnostic>) {
    if scope.telemetry || scope.test_code {
        return;
    }
    for p in 0..file.code.len() {
        if file.in_any(p, &file.tests) {
            continue;
        }
        for clock in ["Instant", "SystemTime"] {
            if file.is_ident(p, clock)
                && file.is_punct(p + 1, ':')
                && file.is_punct(p + 2, ':')
                && file.is_ident(p + 3, "now")
            {
                let line = file.tok(p).map_or(0, |t| t.line);
                emit(
                    diags,
                    file,
                    line,
                    "clock-discipline",
                    format!(
                        "`{clock}::now` outside crates/telemetry — route time through a \
                         telemetry Clock (or allow this bookkeeping site explicitly)"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags_of(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        Workspace::from_sources(sources).lint()
    }

    #[test]
    fn unsafe_flagged_outside_reactor_only() {
        let src = "#![forbid(unsafe_code)]\nfn f() { let p = x as *const u8; }\n";
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let d = diags_of(&[
            ("crates/core/src/lib.rs", src),
            ("crates/core/src/bad.rs", bad),
            ("crates/reactor/src/sys.rs", bad),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/core/src/bad.rs");
        assert_eq!(d[0].rule, "unsafe-confinement");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn crate_roots_need_forbid() {
        let d = diags_of(&[("crates/core/src/lib.rs", "pub fn f() {}\n")]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("forbid(unsafe_code)"));
        let ok = diags_of(&[(
            "crates/core/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n",
        )]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_ignored() {
        let src = "#![forbid(unsafe_code)]\n// unsafe in prose\nconst S: &str = \"unsafe\";\n";
        assert!(diags_of(&[("crates/core/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn hot_path_alloc_and_panic_rules_fire_only_in_hot_fns() {
        let src = r#"
// sitw-lint: hot-path
fn hot(&mut self) {
    let s = value.to_string();
    self.out.push(s.clone());
    let x = map.get(&k).unwrap();
    let slots = vec![None; n];
    let ids: Vec<u64> = items.iter().map(|i| i.id).collect();
    let named = items.iter().collect::<Vec<_>>();
}

fn cold() {
    let s = format!("fine here {}", 1);
    let v = Vec::new();
    let y = opt.unwrap();
    let w = vec![0; 4];
    let z: Vec<_> = it.collect();
}
"#;
        let d = diags_of(&[("crates/serve/src/conn.rs", src)]);
        let rules: Vec<(&str, u32)> = d.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(
            rules,
            [
                ("hot-path-alloc", 4),
                ("hot-path-alloc", 5),
                ("panic-freedom", 6),
                ("hot-path-alloc", 7),
                ("hot-path-alloc", 8),
                ("hot-path-alloc", 9),
            ],
            "{d:?}"
        );
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = r#"
// sitw-lint: hot-path
fn hot() {
    // sitw-lint: allow(hot-path-alloc)
    let s = other.to_string();
    let t = other.to_string(); // sitw-lint: allow(hot-path-alloc)
    let u = other.to_string();
}
"#;
        let d = diags_of(&[("crates/serve/src/x.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 7);
    }

    #[test]
    fn clock_discipline_exempts_telemetry_tests_and_allows() {
        let clock = "fn f() { let t = Instant::now(); }\n";
        let allowed =
            "fn f() {\n    // sitw-lint: allow(clock-discipline)\n    let t = Instant::now();\n}\n";
        let in_test_mod = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
        let d = diags_of(&[
            ("crates/serve/src/loadgen.rs", clock),
            ("crates/serve/src/ok.rs", allowed),
            ("crates/serve/src/unit.rs", in_test_mod),
            ("crates/serve/tests/reactor.rs", clock),
            ("benchmark/src/client.rs", clock),
            ("crates/telemetry/src/clock.rs", clock),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/serve/src/loadgen.rs");
        assert_eq!(d[0].rule, "clock-discipline");
    }

    #[test]
    fn unknown_directive_is_reported() {
        let d = diags_of(&[(
            "crates/core/src/x.rs",
            "// sitw-lint: allow(no-such-rule)\n",
        )]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "directive");
    }
}
