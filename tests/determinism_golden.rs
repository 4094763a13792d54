//! Golden determinism contract for the event kernel.
//!
//! The slab event queue (PR 5) must be a drop-in replacement for the
//! original `BinaryHeap + HashSet` queue: same `(time, seq)` tie-break,
//! same dispatch order, same trace bytes. This test pins a fig5-style
//! `--quick` sweep (two densities, both schemes, 30 s, traced) against a
//! fixture captured on the pre-slab kernel: the full `RunRecord` debug
//! string plus the length and FNV-1a hash of the trace JSONL bytes. Any
//! change to dispatch order, metrics arithmetic, or trace encoding shows
//! up as a fixture mismatch.
//!
//! To re-bless after an *intentional* artifact change:
//! `WSN_BLESS=1 cargo test --test determinism_golden -- --nocapture`
//! and copy the printed block into `tests/fixtures/determinism_golden.txt`.

use std::cell::RefCell;
use std::rc::Rc;

use wsn::core::Experiment;
use wsn::diffusion::Scheme;
use wsn::net::TraceOptions;
use wsn::scenario::ScenarioSpec;
use wsn::sim::SimDuration;
use wsn::trace::{JsonlSink, SharedSink};

const FIXTURE: &str = include_str!("fixtures/determinism_golden.txt");

/// FNV-1a 64-bit over the raw trace bytes. Not cryptographic — it only has
/// to make an accidental dispatch-order or encoding change visible.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One golden line: `nodes/scheme lines=N bytes=N fnv=HEX record={...}`.
fn golden_line(nodes: usize, scheme: Scheme) -> String {
    let mut spec = ScenarioSpec::paper(nodes, 42);
    spec.duration = SimDuration::from_secs(30);
    let exp = Experiment::new(spec, scheme);
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let handle: SharedSink = sink.clone();
    let (outcome, _) = exp
        .run_on_observed(
            &exp.scenario.instantiate(),
            u64::MAX,
            Some((handle, TraceOptions::default())),
            None,
            None,
        )
        .expect("u64::MAX budget cannot trip");
    let bytes = Rc::try_unwrap(sink)
        .expect("the engine must release its sink handle at run end")
        .into_inner()
        .into_inner()
        .expect("Vec writer cannot fail");
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    format!(
        "{nodes}/{scheme} events={} lines={lines} bytes={} fnv={:016x} record={:?}",
        outcome.accounting.events_processed,
        bytes.len(),
        fnv1a(&bytes),
        outcome.record,
    )
}

#[test]
fn quick_sweep_matches_pre_slab_golden_artifacts() {
    let mut got = String::new();
    for nodes in [50usize, 150] {
        for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
            got.push_str(&golden_line(nodes, scheme));
            got.push('\n');
        }
    }
    if std::env::var_os("WSN_BLESS").is_some() {
        println!("--- paste into tests/fixtures/determinism_golden.txt ---");
        print!("{got}");
        println!("--- end ---");
        return;
    }
    assert_eq!(
        got.trim_end(),
        FIXTURE.trim_end(),
        "traced quick sweep diverged from the golden fixture \
         (dispatch order, metrics, or trace encoding changed)"
    );
}
