//! The evaluation brackets: flooding above, the oracle tree below, the two
//! diffusion instantiations in between.

use wsn::core::Experiment;
use wsn::diffusion::{FloodingNode, Role, Scheme};
use wsn::net::{tx_duration, EnergyModel, NetConfig, Network};
use wsn::scenario::ScenarioSpec;
use wsn::sim::SimDuration;
use wsn::trees::{greedy_incremental_tree, Graph};

#[test]
fn energy_brackets_hold() {
    let mut spec = ScenarioSpec::paper(150, 77);
    spec.duration = SimDuration::from_secs(120);
    let instance = spec.instantiate();

    // Flooding.
    let mut flood = Network::new(
        instance.field.topology.clone(),
        NetConfig::default(),
        spec.seed,
        |id| {
            let (is_source, is_sink) = instance.role_of(id);
            FloodingNode::new(id, Role { is_source, is_sink })
        },
    );
    flood.run_until(instance.end);
    let flood_distinct: u64 = flood
        .protocols()
        .filter(|(_, p)| p.role().is_sink)
        .map(|(_, p)| p.sink.distinct)
        .sum();
    assert!(flood_distinct > 0);
    // The flood's dedup windows answered as unbounded sets would have.
    let flood_stale: u64 = flood.protocols().map(|(_, p)| p.stale_arrivals()).sum();
    assert_eq!(
        flood_stale, 0,
        "stale arrivals behind a flooding dedup window"
    );
    let flood_energy = flood.total_activity_energy() / 150.0 / flood_distinct as f64;

    // Diffusion schemes.
    let greedy = Experiment::new(spec.clone(), Scheme::Greedy)
        .run_on(&instance)
        .record
        .metrics();
    let opportunistic = Experiment::new(spec.clone(), Scheme::Opportunistic)
        .run_on(&instance)
        .record
        .metrics();

    // The oracle: one transmission per GIT edge per round.
    let g = Graph::from_topology(&instance.field.topology);
    let git = greedy_incremental_tree(
        &g,
        instance.sinks[0].index(),
        &instance
            .sources
            .iter()
            .map(|s| s.index())
            .collect::<Vec<_>>(),
    );
    let power = EnergyModel::PAPER;
    let frame_s = tx_duration(64).as_secs_f64();
    let per_frame = frame_s * (power.tx_w + instance.field.topology.average_degree() * power.rx_w);
    let oracle = git.cost * per_frame / 150.0 / 5.0;

    assert!(
        oracle < greedy.avg_activity_energy,
        "oracle {oracle} not below greedy {}",
        greedy.avg_activity_energy
    );
    assert!(
        greedy.avg_activity_energy < opportunistic.avg_activity_energy,
        "greedy {} not below opportunistic {}",
        greedy.avg_activity_energy,
        opportunistic.avg_activity_energy
    );
    assert!(
        opportunistic.avg_activity_energy < flood_energy,
        "opportunistic {} not below flooding {flood_energy}",
        opportunistic.avg_activity_energy
    );
    // Flooding out-delivers (or matches) everything.
    let flood_generated: u64 = flood
        .protocols()
        .filter(|(_, p)| p.role().is_source)
        .map(|(_, p)| p.events_generated)
        .sum();
    let flood_delivery = flood_distinct as f64 / flood_generated as f64;
    assert!(flood_delivery > 0.9);
    assert!(flood_delivery + 0.05 >= greedy.delivery_ratio);
}
