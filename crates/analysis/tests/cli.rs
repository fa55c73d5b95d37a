//! End-to-end tests of the `sitw-lint` binary: exit codes and output
//! are the CI contract (0 = clean, 1 = findings, 2 = usage error).

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sitw-lint"))
        .args(args)
        .output()
        .expect("sitw-lint binary runs")
}

fn fixture_root(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

#[test]
fn clean_fixture_exits_zero() {
    let out = run(&["--root", &fixture_root("clean"), "--no-model-check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("0 findings"), "stdout: {stdout}");
}

#[test]
fn every_seeded_fixture_exits_nonzero_with_its_diagnostic() {
    for (name, needle) in [
        ("unsafe_confinement", "error[unsafe-confinement]"),
        ("hot_path_alloc", "error[hot-path-alloc]"),
        ("panic_freedom", "error[panic-freedom]"),
        ("clock_discipline", "error[clock-discipline]"),
    ] {
        let out = run(&["--root", &fixture_root(name), "--no-model-check"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{name}: stdout: {stdout}");
        assert!(stdout.contains(needle), "{name}: stdout: {stdout}");
    }
}

#[test]
fn default_root_is_the_workspace_and_it_passes_with_models() {
    let out = run(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.contains("model-check: waker arm/recheck protocol verified"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("model-check: slab generational-token routing verified"),
        "stdout: {stdout}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_root_directory_is_an_io_error() {
    let out = run(&["--root", "/nonexistent/sitw-lint-test", "--no-model-check"]);
    assert_eq!(out.status.code(), Some(2));
}
