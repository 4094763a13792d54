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

use wsn::diffusion::{DiffusionConfig, DiffusionNode, Role, Scheme, StateSizes};
use wsn::net::{NetConfig, Network};
use wsn::scenario::ScenarioSpec;
use wsn::sim::SimTime;

/// The largest of each table over all nodes: the per-node memory bound.
fn largest(net: &Network<DiffusionNode>) -> StateSizes {
    net.protocols()
        .map(|(_, p)| p.state_sizes())
        .fold(StateSizes::default(), |m, s| StateSizes {
            dedup_windows: m.dedup_windows.max(s.dedup_windows),
            cached_entries: m.cached_entries.max(s.cached_entries),
            offer_slots: m.offer_slots.max(s.offer_slots),
        })
}

#[test]
fn protocol_tables_stop_growing_with_simulated_time() {
    // 200 s and 2,000 s sit at the same phase of the 50 s exploratory
    // cycle, so the cache holds the same rounds at both instants.
    let spec = ScenarioSpec::paper(40, 2002);
    let instance = spec.instantiate();
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(
        instance.field.topology.clone(),
        NetConfig::default(),
        spec.seed,
        |id| {
            let (is_source, is_sink) = instance.role_of(id);
            DiffusionNode::new(cfg.clone(), id, Role { is_source, is_sink })
        },
    );
    net.run_until(SimTime::from_secs(200));
    let early = largest(&net);
    let sink = instance.sinks[0];
    let delivered_early = net.protocol(sink).sink.distinct;
    net.run_until(SimTime::from_secs(2000));
    let late = largest(&net);

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
