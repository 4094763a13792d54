#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc links, the tier-1 test suite, the
# paper figures and the other committed bench outputs against their
# fixtures, smoke sweeps through the run-execution, trace and metrics
# layers, and the benchmark's own tests and output check. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> DESIGN cites: every DESIGN.md section cited outside history names a heading"
# Code, scripts and docs cite DESIGN.md by section ("DESIGN §14.3",
# "`DESIGN.md` §17.2", lists such as "§15.2 and §14.4", ranges such as
# "§9–10", a cite broken across comment lines). Each number must name a
# "## N." or "### N.M" heading. CHANGES.md and ROADMAP.md are history, and
# perfbench/ changes only with the benchmark, so neither is checked.
git ls-files --cached --others --exclude-standard -- \
    crates src tests examples scripts README.md EXPERIMENTS.md .claude |
    perl -e '
        open my $design, "<", "DESIGN.md" or die "DESIGN.md: $!\n";
        my %heading;
        while (<$design>) {
            $heading{$1} = 1 if /^## (\d+)\./ || /^### (\d+\.\d+) /;
        }
        my $sep = qr{(?:[ \t]*\n[ \t]*(?://[!/]?|\#)?[ \t]*|[ \t]+)};
        my $num = qr{\d+(?:\.\d+)?};
        my ($cites, $bad) = (0, 0);
        while (my $file = <STDIN>) {
            chomp $file;
            open my $fh, "<", $file or die "$file: $!\n";
            my $text = do { local $/; <$fh> };
            while ($text =~ /DESIGN(?:\.md)?`?$sep?(§$num(?:(?:$sep?(?:,|and|or)$sep?§|–)$num)*)/g) {
                my ($cite, $at) = ($1, $-[0]);
                my $line = 1 + (substr($text, 0, $at) =~ tr/\n//);
                for my $n ($cite =~ /($num)/g) {
                    $cites++;
                    next if $heading{$n};
                    print STDERR "$file:$line: DESIGN §$n names no heading of DESIGN.md\n";
                    $bad++;
                }
            }
        }
        print "$cites DESIGN section cite(s), $bad dangling\n";
        exit($bad ? 1 : 0);
    '

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

echo "==> figure fixture: all_figures reproduces bench_output_figures.txt"
# Every paper figure at the paper's scale, compared with the committed output
# less its wall-time lines, peak-RSS lines and blank lines. About 70-90 s on
# two workers; the output is the same at any worker count.
strip_timing() { grep -v -e '^# regenerated in' -e '^# peak RSS:' -e '^$'; }
figures="$(cargo run --release -q -p wsn-bench --bin all_figures -- --jobs 2 | strip_timing)"
if ! diff <(strip_timing <bench_output_figures.txt) <(echo "$figures"); then
    echo "paper figures differ from bench_output_figures.txt" >&2
    exit 1
fi

echo "==> output fixtures: krishnamachari, baselines, ablations, mac_overhead"
# The abstract tree contrast, the flooding and omniscient brackets, the MAC
# comparison and the swept protocol timings, each compared byte for byte
# with its committed output. About 20 s on two workers.
fixture() {
    local file="$1"
    shift
    if ! diff "$file" <(cargo run --release -q -p wsn-bench --bin "$@"); then
        echo "$1 output differs from $file" >&2
        exit 1
    fi
}
fixture bench_output_krishnamachari.txt krishnamachari
fixture bench_output_baselines.txt baselines -- --fields 5 --jobs 2
fixture bench_output_ablations.txt ablations -- --fields 4
fixture bench_output_mac_overhead.txt mac_overhead -- --fields 6 --jobs 2

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

echo "==> audit smoke under every MAC: mac_overhead traces audit clean"
# fig8 runs CSMA only; mac_overhead traces one field under CSMA, RTS/CTS
# and the ideal MAC (six traces, about 120 MB), and each must pass the
# same audit.
cargo run --release -q -p wsn-bench --bin mac_overhead -- \
    --quick --fields 1 --duration 10 --trace "$tracedir/mac" >/dev/null
mac_audit="$(cargo run --release -q -p wsn-bench --bin trace_audit -- "$tracedir/mac")"
echo "$mac_audit" | tail -1
echo "$mac_audit" | grep -q ", 0 violation(s)"

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

echo "==> watchdog smoke: a tripped run leaves a stream metrics_report reads"
# The event budget runs out at about 37 s of a 60 s run: run_one must exit 2
# with the budget error, and the stream it leaves (header, each delta once,
# final totals) must still reduce with exit 0.
tripped="$(mktemp)"
trap 'rm -rf "$tracedir" "$metricsdir" "$tripped"' EXIT
trip_status=0
trip_err="$(cargo run --release -q -p wsn-bench --bin run_one -- \
    --nodes 60 --duration 60 --max-events 10000 --metrics "$tripped" 2>&1 >/dev/null)" ||
    trip_status=$?
echo "$trip_err" | tail -1
if [ "$trip_status" -ne 2 ] || ! echo "$trip_err" | grep -q "^error: event budget"; then
    echo "tripped run_one exited $trip_status, want 2 with the budget error" >&2
    exit 1
fi
cargo run --release -q -p wsn-bench --bin metrics_report -- "$tripped" | tail -1

echo "==> scale smoke: 10k-node field + capped sim (run_one --scale 50)"
# Density-preserving scale-up: 200 nodes x50 in a 1414 m square. Builds
# the field through the spatial grid and runs a short watchdog-capped sim
# so the 10k-node path cannot rot.
scale_out="$(cargo run --release -p wsn-bench --bin run_one -- \
    --nodes 200 --scale 50 --duration 5 --max-events 5000000)"
echo "$scale_out" | head -1
echo "$scale_out" | grep -q "field: 10000 nodes"

echo "==> memory smoke: peak RSS flat from 200 s to 2,000 s (run_one --scale 10)"
# 2,000 nodes at the 200-node density. Per-node protocol state is bounded by
# origins, degree and the cache horizon, not by simulated time, so ten times
# the simulated time may cost at most 10% more peak RSS. A stale arrival
# would mean a dedup window answered differently from an unbounded set, and
# a wide offer row that an exploratory row outgrew its 2-byte slots.
peak_rss_mib() {
    local out
    out="$(cargo run --release -p wsn-bench --bin run_one -- \
        --nodes 200 --scale 10 --duration "$1")"
    echo "$out" | grep -q "^stale arrivals: 0 " || {
        echo "stale arrivals at $1 s" >&2
        return 1
    }
    echo "$out" | grep -q "^wide offer rows: 0 " || {
        echo "wide offer rows at $1 s" >&2
        return 1
    }
    echo "$out" | sed -n 's/^peak RSS: \([0-9.]*\) MiB$/\1/p'
}
rss_short="$(peak_rss_mib 200)"
rss_long="$(peak_rss_mib 2000)"
echo "peak RSS ${rss_short} MiB at 200 s, ${rss_long} MiB at 2,000 s"
if ! awk -v a="$rss_short" -v b="$rss_long" 'BEGIN { exit !(a > 0 && b <= 1.1 * a) }'; then
    echo "peak RSS grew more than 10% with simulated time" >&2
    exit 1
fi

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
