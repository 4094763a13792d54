//! Protocol state stays bounded over simulated time.
//!
//! Every per-node diffusion table that could grow with time is bounded by
//! something else: the dedup windows by the number of origins (sinks and
//! sources), the exploratory cache by its expiry horizon, and each cached
//! entry's offers by the node's degree. So after 2,000 simulated seconds no
//! node holds more of any of them than the largest any node held after 200.
//! The sizes are table sizes read through [`DiffusionNode::state_sizes`],
//! not RSS: they are deterministic, and cheap enough to check in an
//! unoptimized build.
//!
//! Each table also holds exactly what it contains: the heap bytes it holds,
//! counted from capacities, equal what its live entries need, counted from
//! lengths. That holds under rolling failures too, where nodes lose every
//! table and refill it, and the largest any node holds does not grow.
//!
//! And every exploratory offer row keeps its 2-byte slots: no node
//! converts one to the wide form at any sample.

use wsn::diffusion::{DiffusionConfig, DiffusionNode, Role, Scheme, StateSizes};
use wsn::net::{NetConfig, Network};
use wsn::scenario::{FailureConfig, ScenarioInstance, ScenarioSpec};
use wsn::sim::{SimDuration, SimTime};

/// The largest of each table over all nodes: the per-node memory bound.
fn largest(net: &Network<DiffusionNode>) -> StateSizes {
    net.protocols()
        .map(|(_, p)| p.state_sizes())
        .fold(StateSizes::default(), |m, s| StateSizes {
            dedup_windows: m.dedup_windows.max(s.dedup_windows),
            cached_entries: m.cached_entries.max(s.cached_entries),
            offer_slots: m.offer_slots.max(s.offer_slots),
            held_bytes: m.held_bytes.max(s.held_bytes),
            live_bytes: m.live_bytes.max(s.live_bytes),
            wide_offer_rows: m.wide_offer_rows.max(s.wide_offer_rows),
        })
}

/// A greedy diffusion network over `instance`'s field and roles, with its
/// failure schedule queued.
fn network(instance: &ScenarioInstance, seed: u64) -> Network<DiffusionNode> {
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(
        instance.field.topology.clone(),
        NetConfig::default(),
        seed,
        |id| {
            let (is_source, is_sink) = instance.role_of(id);
            DiffusionNode::new(cfg.clone(), id, Role { is_source, is_sink })
        },
    );
    for e in &instance.failure_events {
        if e.down {
            net.schedule_down(e.at, e.node);
        } else {
            net.schedule_up(e.at, e.node);
        }
    }
    net
}

/// Every node's tables hold exactly the bytes their live entries need.
fn assert_exact_size(net: &Network<DiffusionNode>, at: &str) {
    for (id, p) in net.protocols() {
        let s = p.state_sizes();
        assert_eq!(
            s.held_bytes, s.live_bytes,
            "{id} at {at}: tables hold more than their entries need: {s:?}"
        );
    }
}

/// No node has converted an exploratory offer row to the wide form.
fn assert_narrow_rows(sizes: &StateSizes, at: &str) {
    assert_eq!(
        sizes.wide_offer_rows, 0,
        "wide offer rows by {at}: {sizes:?}"
    );
}

#[test]
fn protocol_tables_stop_growing_with_simulated_time() {
    // 200 s and 2,000 s sit at the same phase of the 50 s exploratory
    // cycle, so the cache holds the same rounds at both instants.
    let spec = ScenarioSpec::paper(40, 2002);
    let instance = spec.instantiate();
    let mut net = network(&instance, spec.seed);
    net.run_until(SimTime::from_secs(200));
    let early = largest(&net);
    assert_narrow_rows(&early, "200 s");
    let sink = instance.sinks[0];
    let delivered_early = net.protocol(sink).sink.distinct;
    net.run_until(SimTime::from_secs(2000));
    let late = largest(&net);
    assert_narrow_rows(&late, "2,000 s");

    // The run kept working: the sink went on receiving events, and the
    // tables were in use at both instants.
    let delivered_late = net.protocol(sink).sink.distinct;
    assert!(
        delivered_late > 5 * delivered_early,
        "delivery stalled: {delivered_early} events by 200 s, {delivered_late} by 2,000 s"
    );
    assert!(
        early.cached_entries > 0 && early.offer_slots > 0,
        "{early:?}"
    );

    // Which node holds the most moves as trees re-form, so the bound is
    // on the largest table any node holds.
    assert!(
        late.dedup_windows <= early.dedup_windows,
        "dedup windows grew: {early:?} at 200 s, {late:?} at 2,000 s"
    );
    assert!(
        late.cached_entries <= early.cached_entries,
        "cached exploratory entries grew: {early:?} at 200 s, {late:?} at 2,000 s"
    );
    assert!(
        late.offer_slots <= early.offer_slots,
        "offer slots grew: {early:?} at 200 s, {late:?} at 2,000 s"
    );
    // One window per origin: the sinks' interests and the sources' items.
    let origins = instance.sinks.len() + instance.sources.len();
    for (id, p) in net.protocols() {
        let windows = p.state_sizes().dedup_windows;
        assert!(
            windows <= origins,
            "{id}: {windows} windows for {origins} origins"
        );
    }

    // Bounded without changing an answer: no arrival was older than its
    // dedup window.
    let stale: u64 = net.protocols().map(|(_, p)| p.stale_arrivals()).sum();
    assert_eq!(stale, 0, "stale arrivals behind a dedup window");
}

#[test]
fn tables_hold_what_they_contain_under_rolling_failures() {
    // The same field with a fifth of its relays down at any instant, a new
    // batch every 30 s until 2,000 s: failed nodes clear every table, and
    // recovered ones refill them.
    let spec = ScenarioSpec {
        failures: Some(FailureConfig::default()),
        duration: SimDuration::from_secs(2000),
        ..ScenarioSpec::paper(40, 2002)
    };
    let instance = spec.instantiate();
    assert!(instance.failure_events.len() > 100, "failures scheduled");
    let mut net = network(&instance, spec.seed);
    // Which nodes the current batch took down decides how much the largest
    // node holds (its held bytes swing by 4x over this run), so the bound
    // is the largest any node held at any 50-s step of the first 1,000 s,
    // 200 s among them.
    let mut early = StateSizes::default();
    for t in (50..=1000).step_by(50) {
        net.run_until(SimTime::from_secs(t));
        assert_exact_size(&net, &format!("{t} s"));
        let sizes = largest(&net);
        assert_narrow_rows(&sizes, &format!("{t} s"));
        early.held_bytes = early.held_bytes.max(sizes.held_bytes);
    }
    net.run_until(SimTime::from_secs(2000));
    assert_exact_size(&net, "2,000 s");
    let late = largest(&net);
    assert_narrow_rows(&late, "2,000 s");

    assert!(early.held_bytes > 0 && late.cached_entries > 0, "{late:?}");
    assert!(
        late.held_bytes <= early.held_bytes,
        "the largest node's tables grew: {} B up to 1,000 s, {late:?} at 2,000 s",
        early.held_bytes
    );
    let stale: u64 = net.protocols().map(|(_, p)| p.stale_arrivals()).sum();
    assert_eq!(stale, 0, "stale arrivals behind a dedup window");
}
