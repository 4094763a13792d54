#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc links, the tier-1 test suite, smoke
# sweeps through the run-execution, trace and metrics layers, and the
# benchmark's own tests and output check. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: cargo doc --no-deps --workspace with -D warnings"
# Broken or private intra-doc links (say, to a deleted method) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> smoke sweep: 2 points x 2 fields through the job runner"
# fig8 --quick sweeps exactly two points (1 and 3 sinks); --fields 2 makes
# it a 2-point/2-field sweep. --progress exercises the per-job reporting.
cargo run --release -p wsn-bench --bin fig8 -- \
    --quick --fields 2 --duration 30 --no-csv --progress

echo "==> trace smoke: traced sweep is byte-stable and reduces cleanly"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -p wsn-bench --bin fig8 -- \
    --quick --fields 2 --duration 30 --no-csv --trace "$tracedir/a" >/dev/null
cargo run --release -p wsn-bench --bin fig8 -- \
    --quick --fields 2 --duration 30 --no-csv --trace "$tracedir/b" >/dev/null
ls "$tracedir/a"/*.jsonl >/dev/null  # at least one trace file written
diff -r "$tracedir/a" "$tracedir/b"  # same seed => byte-identical traces
report="$(cargo run --release -p wsn-bench --bin trace_report -- "$tracedir/a")"
echo "$report" | grep -q "per-node energy histogram"
echo "$report" | grep -q "hottest nodes"

echo "==> audit smoke: every trace passes its conservation audit"
# trace_audit exits 1 on any violation: tx/rx pairing, energy
# reconciliation, and lineage-recomputed metrics must all hold exactly.
audit="$(cargo run --release -p wsn-bench --bin trace_audit -- "$tracedir/a")"
echo "$audit" | tail -1
echo "$audit" | grep -q ", 0 violation(s)"

echo "==> metrics smoke: snapshot stream reduces and audits clean vs trace"
# One sweep with both artifacts attached: metrics_report must render
# non-empty per-layer tables, and --audit must reconcile every registry
# total against the paired trace with zero tolerance (exit 1 otherwise).
metricsdir="$(mktemp -d)"
trap 'rm -rf "$tracedir" "$metricsdir"' EXIT
cargo run --release -p wsn-bench --bin fig8 -- \
    --quick --fields 2 --duration 30 --no-csv \
    --metrics "$metricsdir" --trace "$tracedir/m" >/dev/null
ls "$metricsdir"/*.metrics.jsonl >/dev/null  # at least one stream written
mreport="$(cargo run --release -p wsn-bench --bin metrics_report -- \
    "$metricsdir" --audit "$tracedir/m")"
echo "$mreport" | tail -1
echo "$mreport" | grep -q "phy.frames_tx{kind=data}"   # non-empty tables
echo "$mreport" | grep -q "diffusion.agg_fanin"
echo "$mreport" | tail -1 | grep -q ", 0 violation(s)" # audit-clean

echo "==> scale smoke: 10k-node field + capped sim (run_one --scale 50)"
# Density-preserving scale-up: 200 nodes x50 in a 1414 m square. Builds
# the field through the spatial grid and runs a short watchdog-capped sim
# so the 10k-node path cannot rot.
scale_out="$(cargo run --release -p wsn-bench --bin run_one -- \
    --nodes 200 --scale 50 --duration 5 --max-events 5000000)"
echo "$scale_out" | head -1
echo "$scale_out" | grep -q "field: 10000 nodes"

echo "==> benchmark suite: perfbench's own tests"
# perfbench is a workspace of its own, so tier-1 never builds its tests.
cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "==> benchmark output check: every workload reproduces its committed digests"
# perfbench prints one JSON result line per workload; each must read
# "correct": true (digests match perfbench/digests.txt, no run failed).
bench_out="$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 1 --trace 0)"
results="$(echo "$bench_out" | grep '^{"correct": ' || true)"
echo "$results" | cut -c1-60
if [ -z "$results" ] || echo "$results" | grep -qv '^{"correct": true,'; then
    echo "benchmark output check failed" >&2
    exit 1
fi

echo "==> all checks passed"
