//! Reduce a directory of run traces (written by `--trace DIR` on any figure
//! binary) into figure-style summaries: per-node energy histogram, the top-N
//! hottest nodes, and totals, per trace file and aggregated.
//!
//! ```sh
//! cargo run --release -p wsn-bench --bin fig8 -- --quick --trace traces/
//! cargo run --release -p wsn-bench --bin trace_report -- traces/ --top 10
//! ```
//!
//! Also accepts a single `.jsonl` file in place of a directory. With
//! `--profile`, traces from profiled runs (`--profile` on the figure binary)
//! additionally get a per-event-type dispatch-cost table.
//!
//! `--help` prints the usage and exits 0. A malformed command line prints
//! one `error:` line and the usage on stderr and exits with status 2, as
//! does a path that holds no trace files.

use std::path::PathBuf;

use wsn_bench::{
    args_or_help, artifact_files, exit_usage_error, outln, parse_value, read_artifact, write_stdout,
};
use wsn_trace::TraceSummary;

const USAGE: &str = "\
usage: trace_report PATH [options]

  PATH               a trace directory, or one .jsonl trace
  --top N            hottest nodes to list (default 5)
  --buckets N        bins of the per-node energy histogram (default 10)
  --profile          add the dispatch-profile table of profiled runs
  --help             print this help
";

struct Args {
    path: PathBuf,
    top: usize,
    buckets: usize,
    profile: bool,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut path: Option<PathBuf> = None;
    let mut top = 5usize;
    let mut buckets = 10usize;
    let mut profile = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--top" => top = parse_value(&flag, &val()?)?,
            "--buckets" => buckets = parse_value(&flag, &val()?)?,
            "--profile" => profile = true,
            other if other.starts_with("--") => return Err(format!("unknown argument {other:?}")),
            other if path.is_some() => {
                return Err(format!("at most one trace path, got a second: {other:?}"))
            }
            other => path = Some(PathBuf::from(other)),
        }
    }
    if buckets == 0 {
        return Err("--buckets must be positive".into());
    }
    Ok(Args {
        path: path.ok_or("missing the trace path")?,
        top,
        buckets,
        profile,
    })
}

fn main() {
    let args = parse_args(args_or_help(USAGE)).unwrap_or_else(|e| exit_usage_error(&e, USAGE));
    let files =
        artifact_files(&args.path, ".jsonl").unwrap_or_else(|e| exit_usage_error(&e, USAGE));
    let mut grand_energy = 0.0;
    let mut grand_records = 0u64;
    for file in &files {
        let summary = TraceSummary::from_text(&read_artifact(file));
        outln!("=== {} ===", file.display());
        write_stdout(format_args!("{}", summary.render(args.top, args.buckets)));
        if args.profile {
            let section = summary.render_profile();
            if section.is_empty() {
                outln!("# no profile records (re-run with --profile on the figure binary)");
            } else {
                write_stdout(format_args!("{section}"));
            }
        }
        outln!();
        grand_energy += summary.total_energy_j();
        grand_records += summary.records;
    }
    outln!(
        "# {} trace file(s), {} records, {:.9} J total debited energy",
        files.len(),
        grand_records,
        grand_energy
    );
}
