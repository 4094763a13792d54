//! Command-line behavior of the `run_one` binary: `--help` and usage
//! errors exit cleanly with the usage text instead of panicking.

use std::process::{Command, Output};

fn run_one(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_one"))
        .args(args)
        .output()
        .expect("run_one starts")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

/// Exit status 2, nothing on stdout, and on stderr exactly one `error:`
/// line naming `needle`, followed by the usage.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run_one(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    let err = text(&out.stderr);
    let mut lines = err.lines();
    let first = lines.next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains(needle),
        "{args:?}: first stderr line {first:?} does not name {needle:?}"
    );
    assert!(
        lines
            .next()
            .unwrap_or_default()
            .starts_with("usage: run_one"),
        "{args:?}: no usage after the error line"
    );
    assert_eq!(err.matches("error:").count(), 1, "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = run_one(&[flag]);
        assert_eq!(out.status.code(), Some(0));
        let usage = text(&out.stdout);
        assert!(usage.starts_with("usage: run_one"), "{usage}");
        for documented in ["--nodes", "--scheme", "--mac", "--scale", "--max-events"] {
            assert!(usage.contains(documented), "usage omits {documented}");
        }
        assert!(out.stderr.is_empty());
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus"], "--bogus");
}

#[test]
fn missing_value_is_a_usage_error() {
    assert_usage_error(&["--nodes"], "--nodes needs a value");
    assert_usage_error(&["--seed", "7", "--svg"], "--svg needs a value");
}

#[test]
fn unparsable_value_is_a_usage_error() {
    assert_usage_error(&["--nodes", "many"], "--nodes");
    assert_usage_error(&["--duration", "-5"], "--duration");
    assert_usage_error(&["--scheme", "fastest"], "--scheme");
    assert_usage_error(&["--mac", "tdma"], "--mac");
    assert_usage_error(&["--scale", "0"], "--scale");
}

#[test]
fn a_valid_command_line_still_runs() {
    let out = run_one(&["--nodes", "60", "--duration", "5", "--seed", "3"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).starts_with("field: 60 nodes"));
}
