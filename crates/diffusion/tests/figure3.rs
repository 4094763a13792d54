//! The paper's Figure 3 mechanism, end to end: greedy aggregation connects a
//! second source to the *closest point of the existing tree* via incremental
//! cost messages, not via its own shortest path to the sink.
//!
//! Topology (35 m spacing, 40 m range — only orthogonal links exist):
//!
//! ```text
//!   s1(0) — a(1) — b(2) — sink(3)
//!    |       |      |       |
//!   s2(4) — r1(5) — r2(6) — r3(7)
//! ```
//!
//! s2's two routes to the sink both cost 4 transmissions (via s1's tree or
//! via the bottom row). The greedy incremental tree attaches s2 at s1
//! (1 extra edge, total tree cost 4); a shortest-path route along the bottom
//! row would cost 4 fresh edges (total 7).

use wsn_diffusion::{DiffusionConfig, DiffusionNode, MsgKind, Role, Scheme};
use wsn_net::{NetConfig, Network, NodeId, Position, Topology};
use wsn_sim::SimTime;

fn grid() -> Topology {
    Topology::new(
        vec![
            Position::new(0.0, 0.0),     // 0 s1
            Position::new(35.0, 0.0),    // 1 a
            Position::new(70.0, 0.0),    // 2 b
            Position::new(105.0, 0.0),   // 3 sink
            Position::new(0.0, -35.0),   // 4 s2
            Position::new(35.0, -35.0),  // 5 r1
            Position::new(70.0, -35.0),  // 6 r2
            Position::new(105.0, -35.0), // 7 r3
        ],
        40.0,
    )
}

fn run(scheme: Scheme, seed: u64) -> Network<DiffusionNode> {
    let cfg = DiffusionConfig::for_scheme(scheme);
    let mut net = Network::new(grid(), NetConfig::default(), seed, |id| {
        let role = match id.index() {
            0 | 4 => Role::SOURCE,
            3 => Role::SINK,
            _ => Role::RELAY,
        };
        DiffusionNode::new(cfg.clone(), id, role)
    });
    net.run_until(SimTime::from_secs(120));
    net
}

/// The set of nodes holding a live data gradient (the tree's interior).
fn tree_nodes(net: &Network<DiffusionNode>) -> Vec<u32> {
    let now = net.now();
    net.protocols()
        .filter(|(_, p)| p.gradients().on_tree(now))
        .map(|(id, _)| id.0)
        .collect()
}

#[test]
fn topology_is_the_intended_grid() {
    let topo = grid();
    // Orthogonal links only: s2 (4) hears s1 (0) and r1 (5), nothing else.
    assert_eq!(topo.neighbors(NodeId(4)), &[NodeId(0), NodeId(5)]);
    // Both of s2's routes to the sink are 4 hops.
    assert_eq!(topo.hop_distance(NodeId(4), NodeId(3)), Some(4));
}

#[test]
fn greedy_attaches_the_second_source_at_the_tree() {
    // The core Figure 3 assertion. Check across several seeds: greedy must
    // consistently put s2's data through s1 (the closest tree point), not
    // through the bottom row.
    for seed in [1u64, 2, 3, 4, 5] {
        let net = run(Scheme::Greedy, seed);
        let now = net.now();
        let sink = net.protocol(NodeId(3));
        assert_eq!(
            sink.sink.per_source.len(),
            2,
            "seed {seed}: a source was lost"
        );
        assert!(
            net.protocol(NodeId(4)).gradients().has_data(
                net.topology().neighbors(NodeId(4)),
                NodeId(0),
                now
            ),
            "seed {seed}: s2 does not feed s1 — not a greedy incremental tree"
        );
        // The bottom row stays off the tree.
        let tree = tree_nodes(&net);
        for relay in [5u32, 6, 7] {
            assert!(
                !tree.contains(&relay),
                "seed {seed}: bottom relay n{relay} is on the greedy tree {tree:?}"
            );
        }
    }
}

#[test]
fn incremental_cost_messages_originate_at_on_tree_sources() {
    let net = run(Scheme::Greedy, 9);
    // s1 is the on-tree source that hears s2's exploratory events: it must
    // have generated incremental cost messages. Once s2 joins the tree it is
    // an on-tree source too and symmetrically answers s1's rounds — both
    // sources advertise, the sink and off-tree relays never originate.
    let s1 = net.protocol(NodeId(0));
    assert!(
        s1.counters.sent(MsgKind::IncrementalCost) > 0,
        "the on-tree source never advertised the tree"
    );
    // The bottom row may forward a few during round 0 — the paper's own
    // transient ("the algorithm initially constructs a lowest-energy-path
    // tree ... pruned off using the negative reinforcement mechanism") —
    // but the steady-state advertisement volume lives on the tree: the
    // on-tree sources out-advertise any bottom relay.
    let bottom_max = [5u32, 6, 7]
        .into_iter()
        .map(|r| {
            net.protocol(NodeId(r))
                .counters
                .sent(MsgKind::IncrementalCost)
        })
        .max()
        .unwrap_or(0);
    let s2 = net
        .protocol(NodeId(4))
        .counters
        .sent(MsgKind::IncrementalCost);
    assert!(
        s1.counters.sent(MsgKind::IncrementalCost) + s2 >= bottom_max,
        "tree sources advertise less than a pruned relay"
    );
}

#[test]
fn greedy_tree_is_no_larger_than_opportunistic_on_this_grid() {
    let mut greedy_sizes = Vec::new();
    let mut opp_sizes = Vec::new();
    for seed in [11u64, 12, 13] {
        greedy_sizes.push(tree_nodes(&run(Scheme::Greedy, seed)).len());
        opp_sizes.push(tree_nodes(&run(Scheme::Opportunistic, seed)).len());
    }
    let g: usize = greedy_sizes.iter().sum();
    let o: usize = opp_sizes.iter().sum();
    assert!(
        g <= o,
        "greedy trees ({greedy_sizes:?}) larger than opportunistic ({opp_sizes:?})"
    );
    // And the greedy tree is exactly the GIT: s1, a, b on-tree plus s2
    // (4 data-forwarding nodes).
    assert!(
        greedy_sizes.iter().all(|&s| s == 4),
        "greedy tree sizes {greedy_sizes:?} != 4"
    );
}

#[test]
fn both_schemes_deliver_both_sources_here() {
    for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
        let net = run(scheme, 21);
        let sink = net.protocol(NodeId(3));
        // 115 s of generation at 2/s per source, minus warm-up losses.
        assert!(
            sink.sink.distinct > 380,
            "{scheme}: only {} of ~460 events arrived",
            sink.sink.distinct
        );
    }
}

#[test]
fn synchronized_sources_converge_to_the_git_after_round_one() {
    // §4.1: "In that scenario, the algorithm initially constructs a
    // lowest-energy-path tree (i.e., each source is connected to the sink
    // using the lowest-energy path), but this problem is not persistent. At
    // the subsequent round of exploratory events, the greedy incremental
    // tree will be constructed and the lowest-energy-path tree will be
    // pruned off using the negative reinforcement mechanism."
    //
    // Both sources start at exactly t = 5 s (sources are time-synchronized
    // by construction). Measure the data-transmission rate in a window
    // inside round 1 (tree = per-source lowest-energy paths, ~7 edges on
    // this grid) and a window after round 2 (tree = GIT, 4 edges).
    let count_data = |net: &Network<DiffusionNode>| -> u64 {
        net.protocols()
            .map(|(_, p)| p.counters.sent(MsgKind::Data))
            .sum()
    };
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(grid(), NetConfig::default(), 41, |id| {
        let role = match id.index() {
            0 | 4 => Role::SOURCE,
            3 => Role::SINK,
            _ => Role::RELAY,
        };
        DiffusionNode::new(cfg.clone(), id, role)
    });
    net.run_until(SimTime::from_secs(10)); // settle round 1's tree
    let at_10 = count_data(&net);
    net.run_until(SimTime::from_secs(50)); // end of round 1 regime
    let at_50 = count_data(&net);
    net.run_until(SimTime::from_secs(65)); // settle round 2's tree
    let at_65 = count_data(&net);
    net.run_until(SimTime::from_secs(105));
    let at_105 = count_data(&net);

    let round1_rate = (at_50 - at_10) as f64 / 40.0;
    let round2_rate = (at_105 - at_65) as f64 / 40.0;
    // The GIT (4 edges, 2 ev/s, aggregation merging both sources at s1)
    // must beat the round-1 lowest-energy-path tree. Require a clear drop.
    assert!(
        round2_rate < round1_rate * 0.9,
        "no pruning: round-1 rate {round1_rate:.1} tx/s, round-2 rate {round2_rate:.1} tx/s"
    );
    // And the sink keeps receiving throughout.
    assert!(net.protocol(NodeId(3)).sink.distinct > 330);
}
