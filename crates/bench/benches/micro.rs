//! Micro-benchmarks for the reproduction's hot paths (std-only harness).
//!
//! These are engineering benchmarks (how fast is the simulator), not the
//! paper's experiments — those are the `fig5`..`fig10` binaries. The
//! harness is a plain `main` (`harness = false`): each benchmark is timed
//! with `Instant` over a fixed warmup + measurement loop and reported as
//! median / mean ns per iteration. Iteration counts scale with
//! `WSN_BENCH_SCALE` (default 1); `WSN_BENCH_ONLY=<substring>` runs only
//! the benchmarks whose name contains the substring (`WSN_BENCH_ONLY=10k`
//! times just the 10k-scale path). End-to-end timing lives in `perfbench/`.

use std::hint::black_box;
use std::time::Instant;

use wsn_core::Experiment;
use wsn_diffusion::Scheme;
use wsn_net::{Ctx, NetConfig, Network, Packet, Position, Protocol, Topology};
use wsn_scenario::{generate_field, ScenarioSpec};
use wsn_setcover::{exact_cover, greedy_cover, CoverInstance};
use wsn_sim::{EventQueue, SimDuration, SimRng, SimTime};
use wsn_trees::{compare_trees, random_geometric, random_sources};

/// Times `iters` runs of `f` (after `warmup` unmeasured runs) and prints a
/// one-line report.
fn bench<R>(name: &str, warmup: u64, iters: u64, mut f: impl FnMut() -> R) {
    if let Ok(filter) = std::env::var("WSN_BENCH_ONLY") {
        if !name.contains(&filter) {
            return;
        }
    }
    let scale: u64 = std::env::var("WSN_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let iters = (iters * scale).max(1);
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples: Vec<f64> = Vec::with_capacity(iters as usize);
    let total = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e9);
    }
    let total = total.elapsed().as_secs_f64();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = samples[samples.len() / 2];
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "{name:<28} {iters:>6} iters  median {median:>12.0} ns  mean {mean:>12.0} ns  total {total:>6.2} s"
    );
}

/// A reproducible random cover instance with `sets` subsets over `elems`
/// elements.
fn random_instance(sets: usize, elems: u32, seed: u64) -> CoverInstance {
    let mut rng = SimRng::from_seed_stream(seed, 0);
    let mut inst = CoverInstance::new();
    // Guarantee coverage with one big set, then add random ones.
    inst.add_subset((0..elems).collect(), elems as f64);
    for _ in 1..sets {
        let k = 1 + rng.index(6.min(elems as usize));
        let items: Vec<u32> = (0..k).map(|_| rng.below(u64::from(elems)) as u32).collect();
        inst.add_subset(items, 0.5 + rng.f64() * 9.5);
    }
    inst
}

fn bench_setcover() {
    for &(sets, elems) in &[(8usize, 12u32), (32, 24), (128, 48)] {
        let inst = random_instance(sets, elems, 42);
        bench(&format!("setcover/greedy_{sets}x{elems}"), 10, 200, || {
            greedy_cover(black_box(&inst))
        });
    }
    let small = random_instance(10, 14, 7);
    bench("setcover/exact_10x14", 3, 50, || {
        exact_cover(black_box(&small))
    });
}

fn bench_event_queue() {
    bench("event_queue/push_pop_10k", 3, 50, || {
        let mut q = EventQueue::new();
        let mut rng = SimRng::from_seed_stream(1, 0);
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, _, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
    // Half the pushes get cancelled before ever firing — the ACK-timeout
    // pattern (armed on every unicast, cancelled by the ACK).
    bench("event_queue/cancel_half_10k", 3, 50, || {
        let mut q = EventQueue::new();
        let mut rng = SimRng::from_seed_stream(2, 0);
        let mut ids = Vec::with_capacity(10_000);
        for i in 0..10_000u64 {
            ids.push(q.push(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), i));
        }
        for id in ids.iter().skip(1).step_by(2) {
            q.cancel(*id);
        }
        let mut sum = 0u64;
        while let Some((_, _, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
    // Fixed-population churn — the dispatch loop's actual steady state
    // (slot reuse, no growth). One iteration = 10k rounds of
    // cancel + pop + 2 pushes + pop at population 64.
    bench("event_queue/churn_steady_64", 3, 20, || {
        let mut q = EventQueue::new();
        let mut ids = Vec::with_capacity(64);
        for i in 0..64u64 {
            ids.push(q.push(SimTime::from_nanos(i), i));
        }
        let mut t = 64u64;
        let mut sum = 0u64;
        for round in 0..10_000u64 {
            let slot = (round % 64) as usize;
            q.cancel(ids[slot]);
            if let Some((_, _, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            ids[slot] = q.push(SimTime::from_nanos(t), t);
            t += 1;
            q.push(SimTime::from_nanos(t), t);
            t += 1;
            q.pop();
        }
        sum
    });
}

/// A protocol that broadcasts on every timer tick — saturates the PHY
/// broadcast loops (carrier sense, reception bookkeeping, meter updates)
/// under CSMA contention.
struct Storm;

impl Protocol for Storm {
    type Msg = ();
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
        let phase = ctx.jitter(SimDuration::from_millis(200));
        ctx.set_timer(SimDuration::from_millis(100) + phase, ());
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, (), ()>, _p: &Packet<()>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, (), ()>, _t: ()) {
        ctx.broadcast(36, ());
        ctx.set_timer(SimDuration::from_millis(100), ());
    }
}

fn bench_phy_broadcast() {
    // A 6×6 grid, 30 m pitch, 40 m range: 4-neighbor interiors, real
    // contention, no partitions. One iteration = 10 simulated seconds of
    // every node broadcasting at 10 Hz.
    let cols = 6usize;
    bench("phy/broadcast_grid36_10s", 1, 10, || {
        let mut positions = Vec::new();
        for row in 0..cols {
            for col in 0..cols {
                positions.push(Position::new(col as f64 * 30.0, row as f64 * 30.0));
            }
        }
        let topo = Topology::new(positions, 40.0);
        let mut net = Network::new(topo, NetConfig::default(), 13, |_| Storm);
        net.run_until(SimTime::from_secs(10));
        net.events_processed()
    });
}

fn bench_trees() {
    for &n in &[100usize, 350] {
        let mut rng = SimRng::from_seed_stream(9, n as u64);
        let (g, _) = random_geometric(n, 200.0, 40.0, &mut rng);
        let sources = random_sources(n, 5, 0, &mut rng);
        bench(&format!("trees/git_vs_spt_{n}"), 3, 50, || {
            compare_trees(black_box(&g), 0, black_box(&sources))
        });
    }
}

fn bench_field_generation() {
    let mut seed = 0u64;
    bench("scenario/generate_field_350", 2, 30, || {
        seed += 1;
        let mut rng = SimRng::from_seed_stream(seed, 0);
        generate_field(350, 200.0, 40.0, &mut rng)
    });
}

fn bench_scale_10k() {
    // The tentpole target: 10,000 nodes at the paper's 200-node density
    // (200 m × √50 ≈ 1414 m square, 40 m range). The spatial grid must
    // build this topology in well under 100 ms; all-pairs took seconds.
    let side = 200.0 * 50f64.sqrt();
    let mut rng = SimRng::from_seed_stream(2002, 0);
    let positions: Vec<Position> = (0..10_000)
        .map(|_| Position::new(rng.f64() * side, rng.f64() * side))
        .collect();
    bench("topology/build_10k", 2, 20, || {
        Topology::new(black_box(positions.clone()), 40.0)
    });
    // A short full-stack run at 10k nodes: field generation through the
    // grid, then two simulated seconds of diffusion (interest flooding —
    // the densest phase) over the SoA engine state.
    let spec = ScenarioSpec {
        node_count: 10_000,
        field_side_m: side,
        duration: SimDuration::from_secs(2),
        ..ScenarioSpec::default()
    };
    let inst = spec.instantiate();
    let exp = Experiment::new(spec, Scheme::Greedy);
    bench("scale/sim_10k_2s", 1, 3, || exp.run_on(&inst));
}

fn bench_full_run() {
    for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
        let mut spec = ScenarioSpec::paper(100, 5);
        spec.duration = SimDuration::from_secs(30);
        let inst = spec.instantiate();
        let exp = Experiment::new(spec.clone(), scheme);
        bench(&format!("full_run/100_nodes_30s_{scheme}"), 1, 5, || {
            exp.run_on(&inst)
        });
    }
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    bench_setcover();
    bench_event_queue();
    bench_phy_broadcast();
    bench_trees();
    bench_field_generation();
    bench_scale_10k();
    bench_full_run();
}
