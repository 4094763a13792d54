//! Command-line behavior of the bench binaries: `--help` and usage errors
//! exit cleanly with the usage text instead of panicking, for `run_one` and
//! for the figure binaries' shared harness (exercised through `fig5`).

use std::process::{Command, Output};

/// A bench binary: the name its usage line gives, and its path.
type Bin = (&'static str, &'static str);

const RUN_ONE: Bin = ("run_one", env!("CARGO_BIN_EXE_run_one"));
const FIG5: Bin = ("fig5", env!("CARGO_BIN_EXE_fig5"));

fn run((name, path): Bin, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name} starts: {e}"))
}

fn run_one(args: &[&str]) -> Output {
    run(RUN_ONE, args)
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

/// Exit status 2, nothing on stdout, and on stderr exactly one `error:`
/// line naming `needle`, followed by `bin`'s usage.
fn assert_usage_error(bin: Bin, args: &[&str], needle: &str) {
    let out = run(bin, args);
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
            .starts_with(&format!("usage: {}", bin.0)),
        "{args:?}: no usage after the error line"
    );
    assert_eq!(err.matches("error:").count(), 1, "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    let cases = [
        (
            RUN_ONE,
            ["--nodes", "--scheme", "--mac", "--scale", "--max-events"],
        ),
        (
            FIG5,
            ["--quick", "--fields", "--jobs", "--trace", "--scale"],
        ),
    ];
    for (bin, documented) in cases {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag]);
            assert_eq!(out.status.code(), Some(0));
            let usage = text(&out.stdout);
            assert!(usage.starts_with(&format!("usage: {}", bin.0)), "{usage}");
            for documented in documented {
                assert!(usage.contains(documented), "usage omits {documented}");
            }
            assert!(out.stderr.is_empty());
        }
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(RUN_ONE, &["--bogus"], "--bogus");
    assert_usage_error(FIG5, &["--bogus"], "--bogus");
}

#[test]
fn missing_value_is_a_usage_error() {
    assert_usage_error(RUN_ONE, &["--nodes"], "--nodes needs a value");
    assert_usage_error(RUN_ONE, &["--seed", "7", "--svg"], "--svg needs a value");
    assert_usage_error(FIG5, &["--fields"], "--fields needs a value");
}

#[test]
fn unparsable_value_is_a_usage_error() {
    assert_usage_error(RUN_ONE, &["--nodes", "many"], "--nodes");
    assert_usage_error(RUN_ONE, &["--duration", "-5"], "--duration");
    assert_usage_error(RUN_ONE, &["--scheme", "fastest"], "--scheme");
    assert_usage_error(RUN_ONE, &["--mac", "tdma"], "--mac");
    assert_usage_error(RUN_ONE, &["--scale", "0"], "--scale");
    assert_usage_error(FIG5, &["--scale", "0"], "--scale must be positive");
}

#[test]
fn a_valid_command_line_still_runs() {
    let out = run_one(&["--nodes", "60", "--duration", "5", "--seed", "3"]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).starts_with("field: 60 nodes"));
}

#[test]
fn run_one_writes_every_artifact() {
    let dir = std::env::temp_dir().join(format!("wsn_cli_run_one_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (svg, metrics) = (dir.join("field.svg"), dir.join("metrics.jsonl"));
    let out = run_one(&[
        "--nodes",
        "40",
        "--duration",
        "20",
        "--failures",
        "--svg",
        svg.to_str().expect("UTF-8 temp path"),
        "--metrics",
        metrics.to_str().expect("UTF-8 temp path"),
        "--prometheus",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("messages sent:"), "{stdout}");
    assert!(stdout.contains("prometheus exposition:"), "{stdout}");
    let svg = std::fs::read_to_string(&svg).expect("the SVG was written");
    assert!(svg.starts_with("<svg"), "{}", &svg[..svg.len().min(80)]);
    let stream = std::fs::read_to_string(&metrics).expect("the metrics stream was written");
    let header = stream.lines().next().unwrap_or_default();
    assert!(header.starts_with("{\"ev\":\"mreg\""), "{header}");
    let _ = std::fs::remove_dir_all(&dir);
}
