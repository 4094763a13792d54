//! Reduce a metrics directory (`--metrics DIR` on any figure binary or
//! `run_one`) into per-layer tables, and optionally cross-check every
//! registry total against the matching telemetry trace.
//!
//! ```sh
//! cargo run --release -p wsn-bench --bin fig8 -- --quick --metrics m/ --trace t/
//! cargo run --release -p wsn-bench --bin metrics_report -- m/ --audit t/
//! ```
//!
//! Without `--audit`, prints one report per `*.metrics.jsonl` file: metric
//! families grouped by layer prefix (`phy.`, `mac.`, `engine.`,
//! `diffusion.`) in registration order, counters and gauges as totals,
//! histograms as count/sum/mean plus a sparkline over the log2 buckets.
//!
//! With `--audit TRACE_DIR`, each `NAME.metrics.jsonl` is paired with
//! `TRACE_DIR/NAME.jsonl`, the trace is reduced to a
//! [`wsn_trace::TraceSummary`], and [`wsn_core::registry_mismatches`]
//! reconciles the stream's final totals against it with **zero
//! tolerance**: frames by kind, receptions, collisions, drops and item
//! drops by reason, reinforcements, tree edges, aggregation fan-in
//! count/sum, and per-state energy in per-debit-quantized nanojoules.
//!
//! Also accepts a single `.metrics.jsonl` file in place of a directory.
//! Exit status: `0` clean, `1` when any audit finds violations, `2` on
//! usage or I/O errors (a malformed command line, or a path with no
//! metrics files, prints one `error:` line and the usage). `--help` prints
//! the usage and exits 0.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use wsn_bench::{args_or_help, artifact_files, exit_usage_error, outln, read_artifact};
use wsn_core::registry_mismatches;
use wsn_metrics::{MetricType, MetricsLine, HIST_BUCKETS};
use wsn_trace::TraceSummary;

const USAGE: &str = "\
usage: metrics_report PATH [--audit TRACE_DIR]

  PATH               a metrics directory, or one .metrics.jsonl stream
  --audit TRACE_DIR  reconcile each NAME.metrics.jsonl with TRACE_DIR/NAME.jsonl
  --help             print this help
";

struct Args {
    path: PathBuf,
    audit: Option<PathBuf>,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut path: Option<PathBuf> = None;
    let mut audit: Option<PathBuf> = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--audit" => {
                let dir = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                audit = Some(PathBuf::from(dir));
            }
            other if other.starts_with("--") => return Err(format!("unknown argument {other:?}")),
            other if path.is_some() => {
                return Err(format!("at most one metrics path, got a second: {other:?}"))
            }
            other => path = Some(PathBuf::from(other)),
        }
    }
    Ok(Args {
        path: path.ok_or("missing the metrics path")?,
        audit,
    })
}

/// One metrics stream, decoded: names in registration order plus the final
/// absolute totals from the `mtotal` line.
struct Stream {
    /// `(full name, type, per-type index)` in registration order.
    metrics: Vec<(String, MetricType, u32)>,
    /// Number of `mdelta` snapshot lines seen.
    snapshots: usize,
    counters: HashMap<u32, u64>,
    gauges: HashMap<u32, u64>,
    /// `hist index -> bucket -> count`.
    hist_buckets: HashMap<u32, [u64; HIST_BUCKETS]>,
    /// `hist index -> (count, sum)`.
    hist_stats: HashMap<u32, (u64, u64)>,
}

impl Stream {
    fn parse(text: &str, file: &Path) -> Result<Stream, String> {
        let mut metrics = Vec::new();
        let mut type_counts = [0u32; 3];
        let mut snapshots = 0usize;
        let mut totals = None;
        for (lineno, line) in text.lines().enumerate() {
            let parsed = MetricsLine::parse(line)
                .map_err(|e| format!("{}:{}: {e}", file.display(), lineno + 1))?;
            match parsed {
                MetricsLine::Header { metrics: names, .. } => {
                    for (name, kind) in names {
                        let slot = &mut type_counts[kind as usize];
                        metrics.push((name, kind, *slot));
                        *slot += 1;
                    }
                }
                MetricsLine::Delta { .. } => snapshots += 1,
                MetricsLine::Total {
                    counters,
                    gauges,
                    hist,
                    hist_stats,
                    ..
                } => totals = Some((counters, gauges, hist, hist_stats)),
            }
        }
        let Some((counters, gauges, hist, hist_stats)) = totals else {
            return Err(format!(
                "{}: no mtotal line (truncated run?)",
                file.display()
            ));
        };
        let mut hist_buckets: HashMap<u32, [u64; HIST_BUCKETS]> = HashMap::new();
        for (i, b, n) in hist {
            hist_buckets.entry(i).or_insert([0; HIST_BUCKETS])[b as usize] = n;
        }
        Ok(Stream {
            metrics,
            snapshots,
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            hist_buckets,
            hist_stats: hist_stats
                .into_iter()
                .map(|(i, count, sum)| (i, (count, sum)))
                .collect(),
        })
    }

    /// The final total of the named counter, if registered.
    fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, k, _)| n == name && *k == MetricType::Counter)
            .map(|(_, _, i)| self.counters.get(i).copied().unwrap_or(0))
    }

    /// The final `(count, sum)` of the named histogram, if registered.
    fn hist(&self, name: &str) -> Option<(u64, u64)> {
        self.metrics
            .iter()
            .find(|(n, k, _)| n == name && *k == MetricType::Histogram)
            .map(|(_, _, i)| self.hist_stats.get(i).copied().unwrap_or((0, 0)))
    }
}

/// Renders a histogram's non-empty bucket range as a sparkline, one glyph
/// per log2 bucket scaled to the fullest bucket.
fn sparkline(buckets: &[u64; HIST_BUCKETS]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let last = match buckets.iter().rposition(|&n| n > 0) {
        Some(i) => i,
        None => return "(empty)".to_string(),
    };
    let max = *buckets.iter().max().expect("fixed-size array");
    buckets[..=last]
        .iter()
        .map(|&n| {
            if n == 0 {
                '·'
            } else {
                // Non-empty buckets always get at least the lowest bar.
                GLYPHS[((n * 8 - 1) / max).min(7) as usize]
            }
        })
        .collect()
}

/// Prints one stream's per-layer tables.
fn report(stream: &Stream) {
    outln!("  ({} snapshot deltas)", stream.snapshots);
    let mut layer: &str = "";
    for (name, kind, i) in &stream.metrics {
        let this_layer = name.split('.').next().unwrap_or(name);
        if this_layer != layer {
            layer = this_layer;
            outln!("  [{layer}]");
        }
        match kind {
            MetricType::Counter => {
                let v = stream.counters.get(i).copied().unwrap_or(0);
                outln!("    {name:<42} {v:>12}");
            }
            MetricType::Gauge => {
                let v = stream.gauges.get(i).copied().unwrap_or(0);
                outln!("    {name:<42} {v:>12}  (final level)");
            }
            MetricType::Histogram => {
                let (count, sum) = stream.hist_stats.get(i).copied().unwrap_or((0, 0));
                let mean = if count > 0 {
                    format!("{:.2}", sum as f64 / count as f64)
                } else {
                    "-".to_string()
                };
                let empty = [0u64; HIST_BUCKETS];
                let buckets = stream.hist_buckets.get(i).unwrap_or(&empty);
                outln!(
                    "    {name:<42} {count:>12}  sum {sum}  mean {mean}  {}",
                    sparkline(buckets)
                );
            }
        }
    }
}

/// `NAME.metrics.jsonl` → `TRACE_DIR/NAME.jsonl`.
fn trace_path_for(metrics_file: &Path, trace_dir: &Path) -> PathBuf {
    let name = metrics_file
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("");
    let stem = name.strip_suffix(".metrics.jsonl").unwrap_or(name);
    trace_dir.join(format!("{stem}.jsonl"))
}

fn main() {
    let args = parse_args(args_or_help(USAGE)).unwrap_or_else(|e| exit_usage_error(&e, USAGE));
    let files = artifact_files(&args.path, ".metrics.jsonl")
        .unwrap_or_else(|e| exit_usage_error(&e, USAGE));
    let mut total_violations = 0usize;
    for file in &files {
        let text = read_artifact(file);
        let stream = match Stream::parse(&text, file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        outln!("=== {} ===", file.display());
        report(&stream);
        if let Some(trace_dir) = &args.audit {
            let trace_file = trace_path_for(file, trace_dir);
            let mismatches = registry_mismatches(
                &TraceSummary::from_text(&read_artifact(&trace_file)),
                |name| stream.counter(name),
                |name| stream.hist(name),
            );
            for m in &mismatches {
                outln!("  VIOLATION: {m}");
            }
            outln!(
                "  audit vs {}: {} violation(s)",
                trace_file.display(),
                mismatches.len()
            );
            total_violations += mismatches.len();
        }
        outln!();
    }
    outln!(
        "# {} metrics file(s) reported, {} violation(s)",
        files.len(),
        total_violations
    );
    if total_violations > 0 {
        std::process::exit(1);
    }
}
