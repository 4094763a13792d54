//! Replay run traces and check their conservation invariants: every line
//! decodes, every `rx` pairs with a `tx`, energy debits reconcile with the
//! `run_end` total, and the lineage stream (`event_gen`/`deliver`)
//! recomputes *exactly* the delivery ratio and average delay the run
//! reported in its `metrics` line.
//!
//! ```sh
//! cargo run --release -p wsn-bench --bin fig8 -- --quick --trace traces/
//! cargo run --release -p wsn-bench --bin trace_audit -- traces/
//! ```
//!
//! Also accepts a single `.jsonl` file in place of a directory. Exit status:
//! `0` when every trace passes, `1` when any audit finds violations, `2` on
//! usage or I/O errors (a malformed command line, or a path with no trace
//! files, prints one `error:` line and the usage). `--help` prints the
//! usage and exits 0.

use std::path::PathBuf;

use wsn_bench::{
    args_or_help, artifact_files, exit_usage_error, outln, read_artifact, write_stdout,
};
use wsn_trace::audit_text;

const USAGE: &str = "\
usage: trace_audit PATH

  PATH               a trace directory, or one .jsonl trace
  --help             print this help
";

fn parse_args(argv: Vec<String>) -> Result<PathBuf, String> {
    let mut path: Option<PathBuf> = None;
    for arg in argv {
        match arg.as_str() {
            other if other.starts_with("--") => return Err(format!("unknown argument {other:?}")),
            other if path.is_some() => {
                return Err(format!("at most one trace path, got a second: {other:?}"))
            }
            other => path = Some(PathBuf::from(other)),
        }
    }
    path.ok_or_else(|| "missing the trace path".into())
}

fn main() {
    let path = parse_args(args_or_help(USAGE)).unwrap_or_else(|e| exit_usage_error(&e, USAGE));
    let files = artifact_files(&path, ".jsonl").unwrap_or_else(|e| exit_usage_error(&e, USAGE));
    let mut total_violations = 0usize;
    for file in &files {
        let report = audit_text(&read_artifact(file));
        outln!("=== {} ===", file.display());
        write_stdout(format_args!("{}", report.render()));
        outln!();
        total_violations += report.violations.len();
    }
    outln!(
        "# {} trace file(s) audited, {} violation(s)",
        files.len(),
        total_violations
    );
    if total_violations > 0 {
        std::process::exit(1);
    }
}
