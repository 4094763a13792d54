//! # wsn-bench — the figure-regeneration harness
//!
//! One binary per evaluation figure (`fig5` … `fig10`) plus `krishnamachari`
//! (the abstract GIT-vs-SPT contrast from the paper's introduction) and
//! `all_figures`. Each binary accepts:
//!
//! * `--quick` — a reduced sweep for smoke-testing (2 fields, 60 s runs);
//! * `--fields N` — override the fields-per-point count;
//! * `--duration SECS` — override the simulated duration;
//! * `--seed SEED` — override the master seed (default 2002);
//! * `--jobs N` — worker threads for the run-execution layer (default: the
//!   `WSN_JOBS` environment variable, else one per CPU; results are
//!   bit-identical at any worker count);
//! * `--max-events N` — per-run watchdog budget (max dispatched simulator
//!   events); a run that exceeds it aborts the sweep with an error naming
//!   the offending `(point, field, scheme)`;
//! * `--progress` — per-job NDJSON progress lines on stderr (point, field,
//!   scheme, simulator events, simulated seconds, wall ms, events/sec);
//! * `--trace DIR` — write one JSONL telemetry trace per job into `DIR`
//!   (created if absent), named `point<x>_field<i>_<scheme>.jsonl`; reduce
//!   a trace directory with the `trace_report` binary, check its
//!   conservation invariants with `trace_audit`. Same seed ⇒
//!   byte-identical trace files;
//! * `--metrics DIR` — attach the in-sim metrics registry to every run and
//!   write one `point<x>_field<i>_<scheme>.metrics.jsonl` snapshot stream
//!   per job into `DIR` (created if absent); reduce a metrics directory
//!   with the `metrics_report` binary. Same seed ⇒ byte-identical metrics
//!   files, and enabling metrics never changes trace bytes or figure
//!   numbers. A job whose trace or metrics file cannot be created fails
//!   before it runs, with an error naming its `(point, field, scheme)` and
//!   the path;
//! * `--profile` — attach the wall-clock dispatch profiler to every run:
//!   per-job totals ride the `--progress` stream and, combined with
//!   `--trace`, land in each trace as `profile` records (render with
//!   `trace_report --profile`). Profile numbers are wall-clock and thus
//!   nondeterministic; metrics stay bit-identical;
//! * `--scale FACTOR` — density-preserving scale-up: every sweep point runs
//!   `FACTOR`× the nodes in a `√FACTOR`× wider square, so the paper's
//!   density axis is unchanged while the field grows (`fig5 --scale 100`
//!   puts ≈5,000 nodes at the 50-node point's density). `1` (the default)
//!   is exactly the paper's geometry. A factor that leaves some sweep
//!   point fewer nodes than its sources plus sinks is a usage error,
//!   reported before any run;
//! * `--help` — print the usage and exit 0.
//!
//! A malformed command line (an unknown flag, a missing or unparsable
//! value) prints one `error:` line and the usage on stderr and exits with
//! status 2. So does a flag the binary would not honour: `ablations` and
//! `mac_overhead` simulate a fixed 250-node field and reject `--scale`, and
//! `baselines`, which runs its networks by hand, also rejects
//! `--max-events`, `--progress`, `--metrics` and `--profile` (see
//! [`HarnessOptions::from_env_except`]).
//!
//! Output is the three metric panels of the figure as aligned text tables
//! (mean ± standard deviation over fields) followed by CSV blocks, suitable
//! for `tee`-ing into `bench_output.txt` and diffing against
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::{Path, PathBuf};

use wsn_core::{run_figure_with, Figure, FigureParams, JobError, MetricsSpec, Runner, TraceSpec};
use wsn_sim::SimDuration;

/// Writes `args` to stdout: the one path by which every bench binary prints
/// its tables, reports and usage (directly or through [`outln!`]).
///
/// A closed stdout (the reader of a pipe went away, as in `fig5 | head`)
/// ends the process with status 0, where `print!` would panic. Any other
/// write error prints one `error:` line on stderr and exits with status 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Prints a line to stdout through [`write_stdout`], like `println!`.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(::std::format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// The figure-regeneration parameters.
    pub params: FigureParams,
    /// Also print CSV blocks after the text tables.
    pub csv: bool,
    /// The run-execution layer configuration (workers, watchdog, progress).
    pub runner: Runner,
}

/// The figure harness's usage text below its `usage:` line.
const OPTIONS: &str = "
  --quick            a reduced sweep for smoke tests (2 fields, 60 s runs)
  --fields N         fields per sweep point
  --duration SECS    simulated seconds per run
  --seed N           master seed (default 2002)
  --no-csv           print the text tables only
  --jobs N           worker threads (default WSN_JOBS, else one per CPU)
  --max-events N     abort with status 2 past N simulator events in a run
  --progress         per-job NDJSON progress lines on stderr
  --trace DIR        write one JSONL trace per run into DIR
  --metrics DIR      write one metrics snapshot stream per run into DIR
  --profile          attach the wall-clock dispatch profiler
  --scale F          nodes x F in a field sqrt(F) times wider (default 1)
  --help             print this help
";

impl HarnessOptions {
    /// Parses options from an argument list (without the program name) for
    /// a binary that does not honour the flags in `unsupported`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on an unknown flag, a flag in
    /// `unsupported` (before its value is read or acted on, so a rejected
    /// `--metrics DIR` creates no directory), a missing or unparsable
    /// value, a non-positive `--scale`, or a `--trace` or `--metrics`
    /// directory that cannot be created.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        unsupported: &[&str],
    ) -> Result<Self, String> {
        let mut seed = 2002u64;
        let mut quick = false;
        let mut fields: Option<usize> = None;
        let mut duration: Option<u64> = None;
        let mut csv = true;
        let mut scale = 1.0f64;
        let mut runner = Runner::from_env();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if unsupported.contains(&flag.as_str()) {
                return Err(format!("{flag} is not supported by this binary"));
            }
            let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => quick = true,
                "--no-csv" => csv = false,
                "--progress" => runner.progress = true,
                "--fields" => fields = Some(parse_value(&flag, &val()?)?),
                "--duration" => duration = Some(parse_value(&flag, &val()?)?),
                "--seed" => seed = parse_value(&flag, &val()?)?,
                "--jobs" => runner.workers = parse_value(&flag, &val()?)?,
                "--max-events" => runner.max_events = Some(parse_value(&flag, &val()?)?),
                "--trace" => {
                    let dir = val()?;
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("cannot create trace directory {dir:?}: {e}"))?;
                    runner.trace = Some(TraceSpec::new(dir));
                }
                "--metrics" => {
                    let dir = val()?;
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("cannot create metrics directory {dir:?}: {e}"))?;
                    runner.metrics = Some(MetricsSpec::new(dir));
                }
                "--profile" => runner.profile = true,
                "--scale" => scale = parse_scale(&val()?)?,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let mut params = if quick {
            FigureParams::quick(seed)
        } else {
            FigureParams::paper(seed)
        };
        if let Some(f) = fields {
            params.fields_per_point = f;
        }
        if let Some(d) = duration {
            params.duration = SimDuration::from_secs(d);
        }
        params.scale = scale;
        Ok(HarnessOptions {
            params,
            csv,
            runner,
        })
    }

    /// Parses the process arguments. `--help` (or `-h`) prints the usage
    /// and exits 0; a malformed command line prints one `error:` line and
    /// the usage on stderr and exits with status 2.
    pub fn from_env() -> Self {
        Self::from_env_except(&[])
    }

    /// Like [`from_env`](Self::from_env), for a binary that does not honour
    /// the flags in `unsupported`: its usage omits them, and any of them on
    /// the command line is a usage error (status 2) before any run.
    pub fn from_env_except(unsupported: &[&str]) -> Self {
        let usage = harness_usage(unsupported);
        Self::parse(args_or_help(&usage), unsupported)
            .unwrap_or_else(|msg| exit_usage_error(&msg, &usage))
    }
}

/// The harness usage text, under the running binary's name, without the
/// lines of the `unsupported` flags.
fn harness_usage(unsupported: &[&str]) -> String {
    let program = std::env::args()
        .next()
        .as_deref()
        .map(Path::new)
        .and_then(|p| p.file_name())
        .map_or_else(
            || "wsn-bench".to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
    let options: String = OPTIONS
        .lines()
        .filter(|line| {
            let flag = line.split_whitespace().next().unwrap_or_default();
            !unsupported.contains(&flag)
        })
        .map(|line| format!("{line}\n"))
        .collect();
    format!("usage: {program} [options]\n{options}")
}

/// The process arguments after the program name. `--help` (or `-h`)
/// anywhere on the command line prints `usage` and exits 0.
pub fn args_or_help(usage: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        write_stdout(format_args!("{usage}"));
        std::process::exit(0);
    }
    args
}

/// Parses `flag`'s value.
///
/// # Errors
///
/// Returns a message naming `flag` and the value if it does not parse.
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("{flag}: cannot parse {value:?}: {e}"))
}

/// Parses a `--scale` factor.
///
/// # Errors
///
/// Returns a message unless `value` is a finite number above zero.
pub fn parse_scale(value: &str) -> Result<f64, String> {
    let scale: f64 = parse_value("--scale", value)?;
    if scale.is_finite() && scale > 0.0 {
        Ok(scale)
    } else {
        Err(format!("--scale must be positive, got {scale}"))
    }
}

/// Prints `error: {msg}` and then `usage` on stderr, and exits with
/// status 2 — how every bench binary rejects a malformed command line.
pub fn exit_usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}");
    eprint!("{usage}");
    std::process::exit(2);
}

/// The run artifacts at `path`: the files directly under it whose names
/// end in `suffix` (`.jsonl`, `.metrics.jsonl`), sorted by name for a
/// deterministic report order — or `path` itself if it is a file.
///
/// # Errors
///
/// Returns a one-line message when `path` holds no such file.
pub fn artifact_files(path: &Path, suffix: &str) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = if path.is_file() {
        vec![path.to_path_buf()]
    } else {
        std::fs::read_dir(path)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(suffix))
            })
            .collect()
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("no {suffix} files at {}", path.display()));
    }
    Ok(files)
}

/// Reads one artifact, or prints `error: cannot read …` and exits with
/// status 2.
pub fn read_artifact(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(2)
    })
}

/// Runs each of `figures` in turn on the options' runner and prints its
/// panels (and CSV, if enabled).
///
/// Before any run, exits with a usage error (status 2) if `--scale` leaves
/// a sweep point of some figure with fewer nodes than its sources plus
/// sinks. Exits the process with status 2 if a run trips the watchdog
/// budget (`--max-events`) or cannot create its trace or metrics file; the
/// error names the offending `(point, field, scheme)`.
pub fn run_and_print(figures: &[Figure], opts: &HarnessOptions) {
    for &figure in figures {
        if let Err(msg) = opts.params.check_roles(figure) {
            let msg = format!("--scale {}: {msg}", opts.params.scale);
            exit_usage_error(&msg, &harness_usage(&[]));
        }
    }
    for &figure in figures {
        run_and_print_one(figure, opts);
    }
}

/// Unwraps a sweep's result. A run that tripped the watchdog budget
/// (`--max-events`), or whose trace or metrics file could not be created,
/// prints one `error: job (point …)` line naming its `(point, field,
/// scheme)` on stderr and exits with status 2.
pub fn sweep_or_exit<T>(result: Result<T, JobError>) -> T {
    result.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2)
    })
}

/// Runs `figure` and prints its panels, its CSV and the wall-time line.
fn run_and_print_one(figure: Figure, opts: &HarnessOptions) {
    let start = std::time::Instant::now();
    let data = sweep_or_exit(run_figure_with(figure, &opts.params, &opts.runner));
    outln!("{}", data.render_text());
    if opts.csv {
        outln!("## CSV: energy\n{}", data.energy.render_csv());
        outln!("## CSV: delay\n{}", data.delay.render_csv());
        outln!("## CSV: delivery\n{}", data.delivery.render_csv());
    }
    outln!(
        "# regenerated in {:.1}s wall time ({} fields/point, {} runs/point, {} workers)\n",
        start.elapsed().as_secs_f64(),
        opts.params.fields_per_point,
        opts.params.fields_per_point * 2,
        opts.runner.effective_workers(),
    );
    if let Some(kb) = wsn_core::peak_rss_kb() {
        outln!("# peak RSS: {:.1} MiB\n", kb as f64 / 1024.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn parse(v: &[&str]) -> HarnessOptions {
        HarnessOptions::parse(s(v), &[]).expect("a valid command line")
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = parse(&[]);
        assert_eq!(o.params.fields_per_point, 10);
        assert_eq!(o.params.node_counts.len(), 7);
        assert!(o.csv);
        assert_eq!(o.runner.max_events, None);
    }

    #[test]
    fn quick_flag_shrinks_sweep() {
        let o = parse(&["--quick"]);
        assert_eq!(o.params.fields_per_point, 2);
    }

    #[test]
    fn overrides_apply() {
        let o = parse(&[
            "--quick",
            "--fields",
            "4",
            "--duration",
            "80",
            "--seed",
            "7",
            "--no-csv",
        ]);
        assert_eq!(o.params.fields_per_point, 4);
        assert_eq!(o.params.duration, SimDuration::from_secs(80));
        assert_eq!(o.params.seed, 7);
        assert!(!o.csv);
    }

    #[test]
    fn runner_flags_apply() {
        let o = parse(&["--jobs", "3", "--max-events", "5000", "--progress"]);
        assert_eq!(o.runner.workers, 3);
        assert_eq!(o.runner.effective_workers(), 3);
        assert_eq!(o.runner.max_events, Some(5000));
        assert!(o.runner.progress);
        assert!(!o.runner.profile);
    }

    #[test]
    fn profile_flag_arms_the_profiler() {
        let o = parse(&["--profile"]);
        assert!(o.runner.profile);
    }

    #[test]
    fn scale_flag_applies_and_defaults_to_identity() {
        assert_eq!(parse(&[]).params.scale, 1.0);
        let o = parse(&["--quick", "--scale", "100"]);
        assert_eq!(o.params.scale, 100.0);
    }

    #[test]
    fn non_positive_scale_is_an_error() {
        let err =
            HarnessOptions::parse(s(&["--scale", "0"]), &[]).expect_err("--scale 0 is rejected");
        assert!(err.contains("--scale must be positive"), "{err}");
    }

    #[test]
    fn trace_flag_creates_the_directory_and_wires_the_runner() {
        let dir = std::env::temp_dir().join("wsn_bench_trace_flag_test");
        let o = parse(&["--trace", dir.to_str().expect("utf-8 temp path")]);
        let spec = o.runner.trace.expect("--trace sets a trace spec");
        assert_eq!(spec.dir, dir);
        assert!(dir.is_dir());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn metrics_flag_creates_the_directory_and_wires_the_runner() {
        let dir = std::env::temp_dir().join("wsn_bench_metrics_flag_test");
        let o = parse(&["--metrics", dir.to_str().expect("utf-8 temp path")]);
        let spec = o.runner.metrics.expect("--metrics sets a metrics spec");
        assert_eq!(spec.dir, dir);
        assert!(dir.is_dir());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn unknown_argument_is_an_error() {
        let err = HarnessOptions::parse(s(&["--bogus"]), &[]).expect_err("--bogus is rejected");
        assert!(err.contains("unknown argument"), "{err}");
    }
}
