//! Series-name drift: the `/metrics` tables are the only declaration of
//! a `sitw_serve_*` / `sitw_router_*` family, so every mention of one
//! anywhere else — docs, CI greps, test assertions — must resolve to a
//! table row. (Successor of sitw-lint's `metrics-registry` rule, which
//! never read the docs or the CI workflow.) Path drift, likewise: every
//! backticked repo path or `*.md` name in the README, CONTRIBUTING and
//! the crates' module docs must exist. And CHANGES.md stays one short
//! paragraph per PR: run logs live in `docs/runs/`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sitw_cluster::metrics::{RouterScrape, FLEET_FAMILIES};
use sitw_serve::metrics::NodeScrape;
use sitw_telemetry::expo::{Family, Kind};

const PREFIXES: [&str; 2] = ["sitw_serve_", "sitw_router_"];

/// `(name, kind, help)` of every row of the node, router and fleet
/// tables.
fn declared() -> Vec<(&'static str, Kind, &'static str)> {
    fn rows<R>(
        table: &[Family<R>],
    ) -> impl Iterator<Item = (&'static str, Kind, &'static str)> + '_ {
        table.iter().map(|f| (f.name, f.kind, f.help))
    }
    rows(NodeScrape::FAMILIES)
        .chain(rows(RouterScrape::FAMILIES))
        .chain(rows(FLEET_FAMILIES))
        .collect()
}

/// Every series-name token in `text`: each maximal `[a-z0-9_]` run that
/// starts at a namespace prefix and goes beyond it. A token that ends in
/// `_` is a grep-style prefix (`sitw_serve_tenant_`,
/// `sitw_serve_reactor_queue_{depth,peak}`), not a full name.
fn series_tokens(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for prefix in PREFIXES {
        for (start, _) in text.match_indices(prefix) {
            let len = text[start..]
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(text.len() - start);
            if len > prefix.len() {
                out.push(&text[start..start + len]);
            }
        }
    }
    out
}

/// Whether `token` names a declared family, one of a histogram family's
/// `_bucket`/`_sum`/`_count` series, or (ending in `_`) a prefix that at
/// least one declared family starts with.
fn resolves(token: &str, declared: &[(&str, Kind, &str)]) -> bool {
    if token.ends_with('_') {
        return declared.iter().any(|(name, ..)| name.starts_with(token));
    }
    declared.iter().any(|&(name, kind, _)| {
        token == name
            || kind == Kind::Histogram
                && ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| token.strip_suffix(suffix) == Some(name))
    })
}

/// Every `.rs` file under `dir`, skipping build output and the lint
/// fixtures (seeded violations, not workspace code).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_series_is_declared_once_and_every_mention_resolves() {
    let declared = declared();

    // (a) The tables themselves.
    let mut seen = BTreeSet::new();
    for &(name, kind, help) in &declared {
        assert!(seen.insert(name), "`{name}` is declared twice");
        assert!(
            PREFIXES.iter().any(|p| name.starts_with(p)),
            "`{name}` lacks the sitw_serve_/sitw_router_ namespace prefix"
        );
        let snake = name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        assert!(
            snake && !name.ends_with('_') && !name.contains("__"),
            "`{name}` is not snake_case"
        );
        assert_eq!(
            name.ends_with("_total"),
            kind == Kind::Counter,
            "`{name}`: `_total` if and only if counter"
        );
        assert!(!help.trim().is_empty(), "`{name}` has no help text");
    }

    // (b) Every mention outside the tables.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = ["README.md", "CONTRIBUTING.md", ".github/workflows/ci.yml"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    for dir in ["crates", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut files);
    }
    // This file's own tests quote made-up names on purpose.
    files.retain(|f| !f.ends_with("crates/cluster/tests/series_names.rs"));
    assert!(files.len() > 100, "scan found only {} files", files.len());
    let mut stale = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        for (n, line) in text.lines().enumerate() {
            for token in series_tokens(line) {
                if !resolves(token, &declared) {
                    let rel = file.strip_prefix(&root).unwrap_or(file);
                    stale.push(format!("{}:{}: {token}", rel.display(), n + 1));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "series names no table declares:\n{}",
        stale.join("\n")
    );
}

/// Every backticked token in `line` that names a repo path — its first
/// segment is a top-level entry of the repo (`crates/…`, `docs/…`) — or
/// is a bare `*.md` name, with any `:line` suffix dropped. Routes
/// (`/invoke`), globs and `<placeholders>` are not paths.
fn path_tokens<'a>(line: &'a str, top: &BTreeSet<String>) -> Vec<&'a str> {
    line.split('`')
        .skip(1)
        .step_by(2)
        .map(|t| t.split(':').next().unwrap_or(t))
        .filter(|t| {
            !t.starts_with('/') && !t.contains(|c: char| c.is_whitespace() || "*<".contains(c))
        })
        .filter(|t| match t.split_once('/') {
            Some((first, _)) => top.contains(first),
            None => t.ends_with(".md"),
        })
        .collect()
}

/// `a/{b,c}/d` → `a/b/d`, `a/c/d`.
fn expand_braces(path: &str) -> Vec<String> {
    let Some((head, rest)) = path.split_once('{') else {
        return vec![path.to_owned()];
    };
    let (alts, tail) = rest.split_once('}').unwrap_or((rest, ""));
    alts.split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}

#[test]
fn every_backticked_repo_path_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let top: BTreeSet<String> = std::fs::read_dir(&root)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let crates = root.join("crates");
    let mut files = vec![root.join("README.md"), root.join("CONTRIBUTING.md")];
    rust_sources(&crates, &mut files);
    let mut missing = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        // A crate's docs may also name paths relative to the crate.
        let crate_dir = file
            .strip_prefix(&crates)
            .ok()
            .and_then(|rel| rel.components().next())
            .map(|c| crates.join(c));
        let rust = file.extension().is_some_and(|e| e == "rs");
        for (n, line) in text.lines().enumerate() {
            if rust && !line.trim_start().starts_with("//!") {
                continue;
            }
            for token in path_tokens(line, &top) {
                let exists = |p: &String| {
                    root.join(p).exists() || crate_dir.as_ref().is_some_and(|c| c.join(p).exists())
                };
                if !expand_braces(token).iter().all(exists) {
                    let rel = file.strip_prefix(&root).unwrap_or(file);
                    missing.push(format!("{}:{}: {token}", rel.display(), n + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "doc paths that do not exist:\n{}",
        missing.join("\n")
    );
}

/// The longest line (one PR's entry) CHANGES.md may hold.
const MAX_CHANGES_LINE: usize = 4_000;

#[test]
fn every_changes_entry_is_one_short_paragraph() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("CHANGES.md")).unwrap();
    let long: Vec<String> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| line.chars().count() > MAX_CHANGES_LINE)
        .map(|(n, line)| format!("CHANGES.md:{}: {} characters", n + 1, line.chars().count()))
        .collect();
    assert!(
        long.is_empty(),
        "entries over {MAX_CHANGES_LINE} characters (move the run detail to docs/runs/):\n{}",
        long.join("\n")
    );
}

#[test]
fn path_tokens_are_repo_paths_and_md_names_only() {
    let top: BTreeSet<String> = ["crates", "docs"].map(String::from).into();
    assert_eq!(
        path_tokens(
            "`crates/a.rs:12`, `docs/x/` and `NOTES.md`; not `/invoke`, `a/b`, \
             `crates/*/src`, `docs/<n>.md` or `sitw_serve::wire`",
            &top
        ),
        ["crates/a.rs", "docs/x/", "NOTES.md"]
    );
    assert_eq!(
        expand_braces("crates/{serve,cluster}/tests/{a,b}.rs"),
        [
            "crates/serve/tests/a.rs",
            "crates/serve/tests/b.rs",
            "crates/cluster/tests/a.rs",
            "crates/cluster/tests/b.rs"
        ]
    );
}

#[test]
fn grep_prefix_literals_resolve_as_prefixes() {
    assert_eq!(
        series_tokens("grep sitw_serve_tenant_ and sitw_serve_apps! or sitw_router_x{a,b}"),
        ["sitw_serve_tenant_", "sitw_serve_apps", "sitw_router_x"]
    );
    // The bare namespace and the crate paths are not series.
    assert!(series_tokens("prefix sitw_serve_ only, sitw_serve::wire").is_empty());
    let declared = [("sitw_serve_tenant_warm_mb", Kind::Gauge, "h")];
    assert!(resolves("sitw_serve_tenant_", &declared));
    assert!(!resolves("sitw_serve_shard_", &declared));
    assert!(!resolves("sitw_serve_tenant", &declared));
}

#[test]
fn histogram_suffixes_resolve_to_their_family() {
    let declared = [
        ("sitw_serve_latency", Kind::Histogram, "h"),
        ("sitw_serve_apps", Kind::Gauge, "h"),
    ];
    for series in [
        "sitw_serve_latency",
        "sitw_serve_latency_bucket",
        "sitw_serve_latency_sum",
        "sitw_serve_latency_count",
    ] {
        assert!(resolves(series, &declared), "{series}");
    }
    assert!(!resolves("sitw_serve_apps_count", &declared));
    assert!(!resolves("sitw_serve_latency_max", &declared));
}
