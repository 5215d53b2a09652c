//! Numeric CLI flags are validated up front: a value that does not
//! parse is a usage error (exit status 2, error plus usage text on
//! stderr), never a silent fallback to the default. The checks run
//! before any database is built, so each case returns immediately.

use std::process::Command;

/// Runs the `shamfinder` binary with `args`; returns the exit code and
/// stderr.
fn shamfinder(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_shamfinder"))
        .args(args)
        .output()
        .expect("shamfinder binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let (code, stderr) = shamfinder(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2; stderr:\n{stderr}");
    assert!(
        stderr.contains(&format!("error: {flag} expects a number")),
        "{args:?} must name the bad flag; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?} must print usage; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("building SimChar"),
        "{args:?} must fail before building SimChar; stderr:\n{stderr}"
    );
}

#[test]
fn serve_feed_rejects_a_non_numeric_batch() {
    assert_usage_error(&["serve-feed", "--batch", "abc"], "--batch");
    assert_usage_error(&["serve-feed", "--events", "-5"], "--events");
}

#[test]
fn scan_zone_rejects_a_non_numeric_window() {
    assert_usage_error(&["scan-zone", "no-such.zone", "--window", "8k"], "--window");
}

#[test]
fn gen_zone_rejects_a_non_numeric_size() {
    assert_usage_error(&["gen-zone", "unused.zone", "--mb", "ten"], "--mb");
}
