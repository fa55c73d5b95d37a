//! Fixture self-tests: each seeded-violation fixture under
//! `tests/fixtures/<rule>/` must produce exactly its expected
//! diagnostics, and the clean fixture exactly none. These pin the
//! diagnostic format (`file:line: error[rule]: message`) — CI greps it.

use std::path::PathBuf;

use sitw_analysis::rules::Workspace;

fn fixture(name: &str) -> Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    Workspace::load(&root).expect("fixture tree readable")
}

fn rendered(ws: &Workspace) -> Vec<String> {
    ws.lint().iter().map(|d| d.to_string()).collect()
}

#[test]
fn unsafe_confinement_fixture_reports_both_findings() {
    assert_eq!(
        rendered(&fixture("unsafe_confinement")),
        [
            "src/lib.rs:1: error[unsafe-confinement]: crate root missing \
             `#![forbid(unsafe_code)]`",
            "src/lib.rs:5: error[unsafe-confinement]: `unsafe` outside crates/reactor \
             (the workspace's only unsafe crate)",
        ]
    );
}

#[test]
fn hot_path_alloc_fixture_reports_the_allocation() {
    assert_eq!(
        rendered(&fixture("hot_path_alloc")),
        [
            "src/lib.rs:7: error[hot-path-alloc]: `.to_string()` allocates a fresh String \
          inside a hot-path function",
            "src/lib.rs:12: error[hot-path-alloc]: `.to_owned()` allocates an owned copy \
          inside a hot-path function",
            "src/lib.rs:13: error[hot-path-alloc]: `.to_vec()` allocates a fresh Vec \
          inside a hot-path function",
            "src/lib.rs:18: error[hot-path-alloc]: `.collect()` builds a fresh collection \
          (extend a reused one) inside a hot-path function",
            "src/lib.rs:18: error[hot-path-alloc]: `vec!` allocates a fresh Vec inside a \
          hot-path function",
        ]
    );
}

#[test]
fn panic_freedom_fixture_reports_the_unwrap() {
    assert_eq!(
        rendered(&fixture("panic_freedom")),
        [
            "src/lib.rs:7: error[panic-freedom]: `.unwrap()` can panic inside a hot-path \
          function; handle the None/Err arm"
        ]
    );
}

#[test]
fn clock_discipline_fixture_reports_the_instant() {
    assert_eq!(
        rendered(&fixture("clock_discipline")),
        [
            "src/lib.rs:8: error[clock-discipline]: `Instant::now` outside crates/telemetry \
          — route time through a telemetry Clock (or allow this bookkeeping site \
          explicitly)"
        ]
    );
}

/// The `benchmark/` harness is measurement code: scoped like `benches/`
/// for `clock-discipline` (its `Instant::now` on line 9 is silent) while
/// `unsafe-confinement` still applies to it.
#[test]
fn benchmark_scope_fixture_exempts_clocks_but_not_unsafe() {
    assert_eq!(
        rendered(&fixture("benchmark_scope")),
        [
            "benchmark/src/lib.rs:13: error[unsafe-confinement]: `unsafe` outside \
             crates/reactor (the workspace's only unsafe crate)"
        ]
    );
}

#[test]
fn clean_fixture_is_clean() {
    let diags = fixture("clean").lint();
    assert!(
        diags.is_empty(),
        "golden fixture must lint clean: {diags:#?}"
    );
}

#[test]
fn the_workspace_itself_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace readable");
    let diags = ws.lint();
    assert!(
        diags.is_empty(),
        "the workspace must satisfy its own invariants:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
