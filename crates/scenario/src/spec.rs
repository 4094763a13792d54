//! The reproducible scenario specification.
//!
//! A [`ScenarioSpec`] plus a seed fully determines a run's topology,
//! roles, and failure schedule. Paired scheme comparisons (greedy vs.
//! opportunistic) instantiate the *same* spec so both schemes see identical
//! fields and workloads.

use std::collections::HashSet;

use wsn_net::{MacKind, NodeId};
use wsn_sim::{SimDuration, SimRng, SimTime};

use crate::failures::{rolling_failures, FailureConfig, FailureEvent};
use crate::field::{generate_field_with, Connectivity, Field};
use crate::placement::{place_sinks, place_sources, SourcePlacement};

/// RNG stream labels.
const STREAM_FIELD: u64 = 0xF1E1D;
const STREAM_PLACE: u64 = 0x71ACE;
const STREAM_FAIL: u64 = 0xFA11;

/// Everything needed to instantiate one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Number of nodes (paper: 50–350 in steps of 50).
    pub node_count: usize,
    /// Field side, meters (paper: 200).
    pub field_side_m: f64,
    /// Radio range, meters (paper: 40).
    pub range_m: f64,
    /// What connectivity an accepted placement must have. The paper's
    /// full-connectivity rule by default; scaled extrapolation runs
    /// (`--scale`) switch to a giant-component requirement because full
    /// connectivity of a constant-density random field vanishes as n
    /// grows (see `crate::Connectivity`).
    pub connectivity: Connectivity,
    /// Number of sources (paper default: 5).
    pub num_sources: usize,
    /// Number of sinks (paper default: 1).
    pub num_sinks: usize,
    /// Source placement scheme. Sinks are always placed the paper's way
    /// (see [`place_sinks`](crate::place_sinks)).
    pub source_placement: SourcePlacement,
    /// Node-failure model, if any.
    pub failures: Option<FailureConfig>,
    /// Which MAC the run uses (default: plain CSMA/CA+ACK). Pure
    /// configuration — it rides into the run's `NetConfig` and never touches
    /// the scenario RNG streams, so changing it leaves topology, roles, and
    /// failures untouched.
    pub mac: MacKind,
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Master seed: everything derives from it.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            node_count: 200,
            field_side_m: 200.0,
            range_m: 40.0,
            connectivity: Connectivity::Full,
            num_sources: 5,
            num_sinks: 1,
            source_placement: SourcePlacement::Corner,
            failures: None,
            mac: MacKind::default(),
            duration: SimDuration::from_secs(200),
            seed: 0,
        }
    }
}

/// A fully instantiated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioInstance {
    /// The generated field.
    pub field: Field,
    /// Source nodes.
    pub sources: Vec<NodeId>,
    /// Sink nodes.
    pub sinks: Vec<NodeId>,
    /// The failure schedule (empty without a failure model).
    pub failure_events: Vec<FailureEvent>,
    /// End of the run.
    pub end: SimTime,
}

impl ScenarioSpec {
    /// A spec with the paper's defaults for the given field size and seed.
    pub fn paper(node_count: usize, seed: u64) -> Self {
        ScenarioSpec {
            node_count,
            seed,
            ..ScenarioSpec::default()
        }
    }

    /// Instantiates the scenario: generates the field, places roles, and
    /// builds the failure schedule. Deterministic in the spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec asks for more sources + sinks than nodes.
    pub fn instantiate(&self) -> ScenarioInstance {
        assert!(
            self.num_sources + self.num_sinks <= self.node_count,
            "{} sources + {} sinks exceed {} nodes",
            self.num_sources,
            self.num_sinks,
            self.node_count
        );
        let mut field_rng = SimRng::from_seed_stream(self.seed, STREAM_FIELD);
        let field = generate_field_with(
            self.node_count,
            self.field_side_m,
            self.range_m,
            self.connectivity,
            &mut field_rng,
        );
        let mut place_rng = SimRng::from_seed_stream(self.seed, STREAM_PLACE);
        let sinks = place_sinks(&field, self.num_sinks, &mut place_rng);
        let sources = place_sources(
            &field,
            self.source_placement,
            self.num_sources,
            &sinks,
            &mut place_rng,
        );
        let end = SimTime::ZERO + self.duration;
        let failure_events = match &self.failures {
            None => Vec::new(),
            Some(cfg) => {
                let protected: HashSet<NodeId> =
                    sources.iter().chain(sinks.iter()).copied().collect();
                let mut fail_rng = SimRng::from_seed_stream(self.seed, STREAM_FAIL);
                rolling_failures(self.node_count, cfg, end, &protected, &mut fail_rng)
            }
        };
        ScenarioInstance {
            field,
            sources,
            sinks,
            failure_events,
            end,
        }
    }
}

impl ScenarioInstance {
    /// The role of `node` in this scenario.
    pub fn role_of(&self, node: NodeId) -> (bool, bool) {
        (self.sources.contains(&node), self.sinks.contains(&node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiation_is_deterministic() {
        let spec = ScenarioSpec::paper(100, 7);
        let a = spec.instantiate();
        let b = spec.instantiate();
        assert_eq!(a.field.positions, b.field.positions);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.sinks, b.sinks);
        assert_eq!(a.failure_events, b.failure_events);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioSpec::paper(100, 1).instantiate();
        let b = ScenarioSpec::paper(100, 2).instantiate();
        assert_ne!(a.field.positions, b.field.positions);
    }

    #[test]
    fn paper_defaults_are_respected() {
        let inst = ScenarioSpec::paper(150, 3).instantiate();
        assert_eq!(inst.sources.len(), 5);
        assert_eq!(inst.sinks.len(), 1);
        assert!(inst.failure_events.is_empty());
        assert_eq!(inst.end, SimTime::from_secs(200));
        // Sources and sink are disjoint.
        assert!(!inst.sources.contains(&inst.sinks[0]));
    }

    #[test]
    fn failure_schedule_protects_roles() {
        let spec = ScenarioSpec {
            failures: Some(FailureConfig::default()),
            ..ScenarioSpec::paper(100, 4)
        };
        let inst = spec.instantiate();
        assert!(!inst.failure_events.is_empty());
        for e in &inst.failure_events {
            assert!(!inst.sources.contains(&e.node), "source failed");
            assert!(!inst.sinks.contains(&e.node), "sink failed");
        }
    }

    #[test]
    fn role_of_reports_roles() {
        let inst = ScenarioSpec::paper(60, 5).instantiate();
        let src = inst.sources[0];
        let sink = inst.sinks[0];
        assert_eq!(inst.role_of(src), (true, false));
        assert_eq!(inst.role_of(sink), (false, true));
        let other = (0..60)
            .map(NodeId::from_index)
            .find(|n| !inst.sources.contains(n) && !inst.sinks.contains(n))
            .unwrap();
        assert_eq!(inst.role_of(other), (false, false));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversubscribed_spec_panics() {
        let spec = ScenarioSpec {
            node_count: 5,
            num_sources: 5,
            num_sinks: 1,
            ..ScenarioSpec::default()
        };
        spec.instantiate();
    }
}
