//! Command-line behavior of the bench binaries: `--help` and usage errors
//! exit cleanly with the usage text instead of panicking, for `run_one`,
//! the figure binaries' shared harness (exercised through `fig5`), the
//! trace and metrics readers, and `krishnamachari`; `run_one` rejects
//! impossible requests before it runs; the fixed-field harnesses reject the
//! flags they would ignore but run every field asked for, and `ablations`
//! prints the same stdout at any worker count; a watchdog trip
//! in any sweep is an error line, not a panic, and leaves a metrics stream
//! the reader accepts; so is a per-job trace or metrics file that cannot be
//! created; `all_figures` keeps one trace and one metrics file per job of
//! every figure, and checks them all before any job runs; a closed stdout
//! ends a binary quietly with status 0; and the two audits pass a real
//! run's artifacts and fail on a tampered copy.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

/// A bench binary: the name its usage line gives, and its path.
type Bin = (&'static str, &'static str);

const RUN_ONE: Bin = ("run_one", env!("CARGO_BIN_EXE_run_one"));
const FIG5: Bin = ("fig5", env!("CARGO_BIN_EXE_fig5"));
const FIG8: Bin = ("fig8", env!("CARGO_BIN_EXE_fig8"));
const ALL_FIGURES: Bin = ("all_figures", env!("CARGO_BIN_EXE_all_figures"));
const TRACE_REPORT: Bin = ("trace_report", env!("CARGO_BIN_EXE_trace_report"));
const TRACE_AUDIT: Bin = ("trace_audit", env!("CARGO_BIN_EXE_trace_audit"));
const METRICS_REPORT: Bin = ("metrics_report", env!("CARGO_BIN_EXE_metrics_report"));
const KRISHNAMACHARI: Bin = ("krishnamachari", env!("CARGO_BIN_EXE_krishnamachari"));
const ABLATIONS: Bin = ("ablations", env!("CARGO_BIN_EXE_ablations"));
const BASELINES: Bin = ("baselines", env!("CARGO_BIN_EXE_baselines"));
const MAC_OVERHEAD: Bin = ("mac_overhead", env!("CARGO_BIN_EXE_mac_overhead"));

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
    let cases: [(Bin, &[&str]); 6] = [
        (
            RUN_ONE,
            &["--nodes", "--scheme", "--mac", "--scale", "--max-events"],
        ),
        (
            FIG5,
            &["--quick", "--fields", "--jobs", "--trace", "--scale"],
        ),
        (TRACE_REPORT, &["PATH", "--top", "--buckets", "--profile"]),
        (TRACE_AUDIT, &["PATH"]),
        (METRICS_REPORT, &["PATH", "--audit"]),
        (KRISHNAMACHARI, &["--jobs"]),
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
    for bin in [
        RUN_ONE,
        FIG5,
        TRACE_REPORT,
        TRACE_AUDIT,
        METRICS_REPORT,
        KRISHNAMACHARI,
    ] {
        assert_usage_error(bin, &["--bogus"], "--bogus");
    }
}

#[test]
fn missing_value_is_a_usage_error() {
    assert_usage_error(RUN_ONE, &["--nodes"], "--nodes needs a value");
    assert_usage_error(RUN_ONE, &["--seed", "7", "--svg"], "--svg needs a value");
    assert_usage_error(FIG5, &["--fields"], "--fields needs a value");
    assert_usage_error(TRACE_REPORT, &["t/", "--top"], "--top needs a value");
    assert_usage_error(METRICS_REPORT, &["m/", "--audit"], "--audit needs a value");
    assert_usage_error(KRISHNAMACHARI, &["--jobs"], "--jobs needs a value");
}

#[test]
fn a_missing_or_empty_path_is_a_usage_error() {
    assert_usage_error(TRACE_REPORT, &["--top", "3"], "missing the trace path");
    assert_usage_error(TRACE_AUDIT, &[], "missing the trace path");
    assert_usage_error(METRICS_REPORT, &[], "missing the metrics path");
    assert_usage_error(TRACE_AUDIT, &["a/", "b/"], "at most one trace path");
    let nowhere = "/nonexistent/wsn-cli-test";
    assert_usage_error(TRACE_REPORT, &[nowhere], "no .jsonl files");
    assert_usage_error(TRACE_AUDIT, &[nowhere], "no .jsonl files");
    assert_usage_error(METRICS_REPORT, &[nowhere], "no .metrics.jsonl files");
}

#[test]
fn unparsable_value_is_a_usage_error() {
    assert_usage_error(RUN_ONE, &["--nodes", "many"], "--nodes");
    assert_usage_error(RUN_ONE, &["--duration", "-5"], "--duration");
    assert_usage_error(RUN_ONE, &["--scheme", "fastest"], "--scheme");
    assert_usage_error(RUN_ONE, &["--mac", "tdma"], "--mac");
    assert_usage_error(RUN_ONE, &["--scale", "0"], "--scale");
    assert_usage_error(FIG5, &["--scale", "0"], "--scale must be positive");
    // A scale that leaves a sweep point fewer nodes than its roles is
    // rejected before any run, not in a runner worker.
    let tiny = [
        "--quick",
        "--scale",
        "0.0001",
        "--fields",
        "1",
        "--duration",
        "5",
        "--no-csv",
    ];
    for bin in [FIG5, FIG8] {
        assert_usage_error(bin, &tiny, "5 sources + 1 sinks exceed 1 nodes");
    }
    assert_usage_error(TRACE_REPORT, &["t/", "--top", "x"], "--top");
    assert_usage_error(
        TRACE_REPORT,
        &["t/", "--buckets", "0"],
        "--buckets must be positive",
    );
    assert_usage_error(KRISHNAMACHARI, &["--jobs", "x"], "--jobs");
}

#[test]
fn run_one_rejects_impossible_requests_before_running() {
    assert_usage_error(
        RUN_ONE,
        &["--nodes", "3"],
        "5 sources + 1 sinks exceed 3 nodes",
    );
    assert_usage_error(
        RUN_ONE,
        &["--nodes", "200", "--scale", "0.001"],
        "exceed 1 nodes (--nodes x --scale)",
    );
    let short = ["--nodes", "40", "--duration", "5"];
    for (flag, path) in [
        ("--metrics", "/nonexistent/m.jsonl"),
        ("--svg", "/nonexistent/f.svg"),
    ] {
        let args = [&short[..], &[flag, path]].concat();
        assert_usage_error(RUN_ONE, &args, &format!("cannot create {path}"));
    }
}

#[test]
fn flags_a_fixed_field_harness_would_ignore_are_usage_errors() {
    // Each of these simulates a fixed 250-node field, so a --scale would
    // change nothing; mac_overhead used to print a "250 nodes" table for it.
    let tiny = ["--quick", "--fields", "1", "--scale", "0.0001"];
    for bin in [ABLATIONS, BASELINES, MAC_OVERHEAD] {
        assert_usage_error(bin, &tiny, "--scale is not supported by this binary");
    }
    // baselines runs its networks by hand, outside the job runner.
    let dir = std::env::temp_dir().join(format!("wsn_cli_baselines_{}", std::process::id()));
    let path = dir.to_str().expect("UTF-8 temp path");
    let ignored: [&[&str]; 4] = [
        &["--max-events", "1000"],
        &["--progress"],
        &["--metrics", path],
        &["--profile"],
    ];
    for args in ignored {
        let needle = format!("{} is not supported by this binary", args[0]);
        assert_usage_error(BASELINES, &[&["--quick"], args].concat(), &needle);
    }
    assert!(!dir.exists(), "a rejected --metrics created its directory");
    let out = run(BASELINES, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = text(&out.stdout);
    assert!(usage.contains("--trace DIR"), "{usage}");
    for flag in [
        "--scale",
        "--max-events",
        "--progress",
        "--metrics",
        "--profile",
    ] {
        assert!(!usage.contains(flag), "usage lists {flag}: {usage}");
    }
}

/// The number of rows of each `# `-titled table in `stdout`: the lines
/// after its title and column header, up to the next blank line.
fn table_rows(stdout: &str) -> Vec<usize> {
    stdout
        .split("\n\n")
        .map(|block| block.trim_start_matches('\n'))
        .filter(|block| {
            block.starts_with("# ") && block.lines().nth(1).is_some_and(|l| !l.starts_with('#'))
        })
        .map(|table| table.lines().count() - 2)
        .collect()
}

#[test]
fn fixed_field_harnesses_run_every_requested_field() {
    let args = ["--quick", "--fields", "7", "--duration", "1"];
    // baselines: one row per field in each of its two tables.
    let out = run(BASELINES, &args);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert_eq!(
        table_rows(text(&out.stdout)),
        [7, 7],
        "{}",
        text(&out.stdout)
    );
    // ablations: a row per knob value, each a mean over 7 fields; the
    // header and the per-job progress lines name the fields that ran.
    let out = run(ABLATIONS, &[&args[..], &["--progress"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.starts_with("# Ablations at 250 nodes, 7 fields/point"),
        "{stdout}"
    );
    let fields: BTreeSet<&str> = text(&out.stderr)
        .lines()
        .filter_map(|line| line.split("\"field\":").nth(1)?.split(',').next())
        .collect();
    assert_eq!(
        fields,
        ["0", "1", "2", "3", "4", "5", "6"].into(),
        "fields that ran"
    );
}

#[test]
fn ablations_prints_the_same_at_any_worker_count() {
    let stdout_at = |jobs: &str| {
        let args = [
            "--quick",
            "--fields",
            "1",
            "--duration",
            "1",
            "--jobs",
            jobs,
        ];
        let out = run(ABLATIONS, &args);
        assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
        out.stdout
    };
    assert_eq!(text(&stdout_at("1")), text(&stdout_at("2")));
}

/// Runs `bin` with the read end of its stdout pipe closed before it starts.
fn run_into_closed_stdout((name, path): Bin, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(path)
        .args(args)
        .stdout(writer)
        .output()
        .unwrap_or_else(|e| panic!("{name} starts: {e}"))
}

#[test]
fn a_closed_stdout_ends_the_binary_quietly() {
    let cases: [(Bin, &[&str]); 2] = [
        (FIG5, &["--quick", "--fields", "1", "--duration", "5"]),
        (TRACE_REPORT, &["--help"]),
    ];
    for (bin, args) in cases {
        let out = run_into_closed_stdout(bin, args);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{} {args:?}: {err}", bin.0);
        assert!(
            !err.contains("panicked"),
            "{} {args:?} panicked: {err}",
            bin.0
        );
    }
}

#[test]
fn a_tripped_sweep_is_an_error_line_not_a_panic() {
    let args = [
        "--quick",
        "--fields",
        "1",
        "--duration",
        "20",
        "--max-events",
        "1000",
    ];
    for bin in [FIG5, ABLATIONS, MAC_OVERHEAD] {
        let out = run(bin, &args);
        assert_eq!(out.status.code(), Some(2), "{} trips its watchdog", bin.0);
        let err = text(&out.stderr);
        assert!(err.starts_with("error: job (point "), "{}: {err}", bin.0);
        assert!(
            err.contains("event budget 1000 exhausted"),
            "{}: {err}",
            bin.0
        );
        assert_eq!(err.lines().count(), 1, "{}: {err}", bin.0);
    }
}

#[test]
fn an_artifact_that_cannot_be_created_is_an_error_line_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("wsn_cli_artifact_{}", std::process::id()));
    // (binary, flags, the file that a directory blocks in the last output
    // directory). The blocked job is the first of one sweep and the last
    // of another, and in one its trace could be created but its metrics
    // file cannot.
    let cases = [
        (FIG5, "--trace", "point50_field0_greedy.jsonl"),
        (FIG5, "--metrics", "point50_field0_greedy.metrics.jsonl"),
        (
            FIG5,
            "--jobs 2 --trace",
            "point250_field0_opportunistic.jsonl",
        ),
        (
            FIG5,
            "--trace --metrics",
            "point50_field0_greedy.metrics.jsonl",
        ),
        (BASELINES, "--trace", "point0_field0_greedy.jsonl"),
    ];
    for (i, (bin, flags, file)) in cases.into_iter().enumerate() {
        let mut args = vec!["--quick", "--fields", "1", "--duration", "5"];
        let mut out_dirs = Vec::new();
        for flag in flags.split(' ') {
            match flag.strip_prefix("--") {
                Some(name @ ("trace" | "metrics")) => {
                    out_dirs.push((flag, dir.join(i.to_string()).join(name)));
                }
                _ => args.push(flag),
            }
        }
        for (flag, out_dir) in &out_dirs {
            std::fs::create_dir_all(out_dir).expect("temp dir");
            args.extend([*flag, out_dir.to_str().expect("UTF-8 temp path")]);
        }
        // A directory where the job's file belongs: creating it fails.
        let blocked = out_dirs.last().expect("an output flag").1.join(file);
        std::fs::create_dir(&blocked).expect("temp dir");
        let out = run(bin, &args);
        assert_eq!(out.status.code(), Some(2), "{} {args:?}", bin.0);
        assert!(out.stdout.is_empty(), "{} {args:?} wrote to stdout", bin.0);
        let err = text(&out.stderr);
        let scheme = if file.contains("greedy") {
            "greedy"
        } else {
            "opportunistic"
        };
        let cause = format!("field 0, {scheme}): cannot create {}: ", blocked.display());
        assert!(
            err.starts_with("error: job (point ") && err.contains(&cause),
            "{} {args:?}: {err}",
            bin.0
        );
        assert_eq!(err.lines().count(), 1, "{} {args:?}: {err}", bin.0);
        // No job ran: the output directories hold the blocking directory
        // and nothing else.
        for (_, out_dir) in &out_dirs {
            let names: Vec<_> = std::fs::read_dir(out_dir)
                .expect("the output directory is still there")
                .map(|e| e.expect("a directory entry").path())
                .collect();
            let expected = Vec::from_iter(blocked.starts_with(out_dir).then(|| blocked.clone()));
            assert_eq!(names, expected, "{} {args:?}", bin.0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, at any depth, sorted.
fn files_under(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files.sort();
    files
}

#[test]
fn all_figures_keeps_one_artifact_per_job() {
    let dir = std::env::temp_dir().join(format!("wsn_cli_all_figures_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (traces, metrics) = (dir.join("t"), dir.join("m"));
    let (t, m) = (traces.to_str(), metrics.to_str());
    let (t, m) = (t.expect("UTF-8 temp path"), m.expect("UTF-8 temp path"));
    let args = [
        "--quick",
        "--fields",
        "1",
        "--duration",
        "1",
        "--jobs",
        "1",
        "--progress",
        "--trace",
        t,
        "--metrics",
        m,
    ];

    // A directory where the last figure's first trace belongs: the run
    // fails before any job simulates, and leaves both directories as it
    // found them.
    let blocked = traces.join("fig10").join("point2_field0_greedy.jsonl");
    std::fs::create_dir_all(&blocked).expect("temp dir");
    std::fs::create_dir_all(&metrics).expect("temp dir");
    let out = run(ALL_FIGURES, &args);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
    assert!(out.stdout.is_empty(), "all_figures wrote to stdout");
    let err = text(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.contains(&format!("cannot create {}: ", blocked.display())),
        "{err}"
    );
    let entries = |d: &Path| -> Vec<_> {
        std::fs::read_dir(d)
            .expect("the directory is still there")
            .map(|e| e.expect("a directory entry").path())
            .collect()
    };
    assert_eq!(entries(&traces), [traces.join("fig10")]);
    assert_eq!(
        entries(&traces.join("fig10")),
        std::slice::from_ref(&blocked)
    );
    assert!(entries(&metrics).is_empty());

    // Unblocked: one progress line per job, each naming its own files.
    std::fs::remove_dir_all(&traces).expect("temp dir");
    let out = run(ALL_FIGURES, &args);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let jobs: Vec<&str> = text(&out.stderr).lines().collect();
    assert_eq!(
        jobs.len(),
        30,
        "2 or 3 points x 2 schemes for each of 6 figures"
    );
    let path_of = |line: &str, key: &str| {
        let start = line
            .find(&format!("\"{key}\":\""))
            .expect("an artifact path")
            + key.len()
            + 4;
        let len = line[start..].find('"').expect("a closing quote");
        std::path::PathBuf::from(&line[start..start + len])
    };
    for (key, root) in [("trace", &traces), ("metrics", &metrics)] {
        let named: BTreeSet<_> = jobs.iter().map(|line| path_of(line, key)).collect();
        assert_eq!(named.len(), jobs.len(), "{key}: two jobs share a file");
        assert_eq!(files_under(root), Vec::from_iter(named), "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("messages sent:"), "{stdout}");
    let svg = std::fs::read_to_string(&svg).expect("the SVG was written");
    assert!(svg.starts_with("<svg"), "{}", &svg[..svg.len().min(80)]);
    let stream = std::fs::read_to_string(&metrics).expect("the metrics stream was written");
    let header = stream.lines().next().unwrap_or_default();
    assert!(header.starts_with("{\"ev\":\"mreg\""), "{header}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tripped_run_leaves_a_readable_metrics_stream() {
    let metrics =
        std::env::temp_dir().join(format!("wsn_cli_tripped_{}.jsonl", std::process::id()));
    let path = metrics.to_str().expect("UTF-8 temp path");
    let out = run_one(&[
        "--nodes",
        "60",
        "--duration",
        "60",
        "--max-events",
        "10000",
        "--metrics",
        path,
    ]);
    assert_eq!(out.status.code(), Some(2), "the watchdog trips");
    let err = text(&out.stderr);
    assert!(
        err.starts_with("error: event budget 10000 exhausted"),
        "{err}"
    );
    let report = run(METRICS_REPORT, &[path]);
    assert_eq!(report.status.code(), Some(0), "{}", text(&report.stderr));
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn audits_pass_a_real_run_and_fail_on_a_tampered_copy() {
    let dir = std::env::temp_dir().join(format!("wsn_cli_audit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arg = |p: &Path| p.to_str().expect("UTF-8 temp path").to_string();
    let (traces, metrics, tampered) = (dir.join("t"), dir.join("m"), dir.join("tampered"));
    let (t, m) = (arg(&traces), arg(&metrics));
    let mut fig8: Vec<&str> = "--quick --fields 1 --duration 10 --no-csv --jobs 1"
        .split(' ')
        .collect();
    fig8.extend(["--trace", &t, "--metrics", &m]);
    let out = run(FIG8, &fig8);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let name = "point1_field0_greedy";
    let trace = traces.join(format!("{name}.jsonl"));
    let stream = arg(&metrics.join(format!("{name}.metrics.jsonl")));
    let status = |bin: Bin, args: &[&str]| run(bin, args).status.code();
    assert_eq!(status(TRACE_AUDIT, &[&arg(&trace)]), Some(0));
    assert_eq!(status(METRICS_REPORT, &[&stream, "--audit", &t]), Some(0));

    // Tampered copies of the trace, under the same file name.
    let original = std::fs::read_to_string(&trace).expect("the trace was written");
    let rx = original
        .lines()
        .find(|l| l.starts_with("{\"ev\":\"rx\""))
        .expect("a 10 s run receives frames");
    std::fs::create_dir_all(&tampered).expect("temp dir");
    let copy = tampered.join(format!("{name}.jsonl"));
    let write_copy = |text: String| std::fs::write(&copy, text).expect("write the tampered copy");
    // One reception claims a sender that never transmitted it.
    let from = rx.find("\"from\":").expect("rx names its sender") + "\"from\":".len();
    let end = from + rx[from..].find(',').expect("more fields follow");
    write_copy(original.replacen(rx, &format!("{}999999{}", &rx[..from], &rx[end..]), 1));
    assert_eq!(status(TRACE_AUDIT, &[&arg(&copy)]), Some(1));
    // One reception missing from the trace but counted by the registry.
    write_copy(original.replacen(&format!("{rx}\n"), "", 1));
    assert_eq!(
        status(METRICS_REPORT, &[&stream, "--audit", &arg(&tampered)]),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
