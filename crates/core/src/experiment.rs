//! Running one experiment: a scenario, a scheme, a seed → a [`RunOutcome`].

use wsn_diffusion::{DiffusionConfig, DiffusionMetricIds, DiffusionNode, MsgKind, Role, Scheme};
use wsn_metrics::{MetricsRegistry, RunRecord};
use wsn_net::{
    EventBudgetExceeded, MetricsOptions, NetConfig, NetMetricIds, Network, NodeId, TraceOptions,
};
use wsn_scenario::{ScenarioInstance, ScenarioSpec};
use wsn_sim::{RunAccounting, SharedProfile};
use wsn_trace::{SharedSink, TraceRecord};

/// A fully specified experiment run.
///
/// # Examples
///
/// ```
/// use wsn_core::Experiment;
/// use wsn_diffusion::Scheme;
/// use wsn_scenario::ScenarioSpec;
/// use wsn_sim::SimDuration;
///
/// let mut spec = ScenarioSpec::paper(60, 1);
/// spec.duration = SimDuration::from_secs(30); // short demo run
/// let outcome = Experiment::new(spec, Scheme::Greedy).run();
/// assert!(outcome.record.distinct_events > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The scenario (field, roles, failures, duration, seed).
    pub scenario: ScenarioSpec,
    /// Protocol parameters (scheme, aggregation function, timers).
    pub diffusion: DiffusionConfig,
    /// Physical/MAC parameters.
    pub net: NetConfig,
}

/// Metrics attachment for one run: engine-side options plus an optional
/// JSONL sink receiving the snapshot stream (`mreg` header, periodic
/// `mdelta` lines, final `mtotal`).
///
/// The run registers every layer's metric block (PHY/MAC/engine via
/// [`NetMetricIds`], protocol via [`DiffusionMetricIds`]) on one registry
/// before engine construction, so recording anywhere in the hot path is an
/// array index plus an integer add.
pub struct MetricsSetup {
    /// Snapshot cadence and flight-recorder ring size.
    pub opts: MetricsOptions,
    /// Snapshot-stream sink; `None` keeps the run's metrics purely
    /// in-memory (the final registry still comes back from the run).
    pub out: Option<Box<dyn std::io::Write>>,
}

impl MetricsSetup {
    /// Default options, no sink — totals-in-memory only.
    pub fn in_memory() -> Self {
        MetricsSetup {
            opts: MetricsOptions::default(),
            out: None,
        }
    }
}

impl std::fmt::Debug for MetricsSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSetup")
            .field("opts", &self.opts)
            .field("out", &self.out.is_some())
            .finish()
    }
}

/// The result of one run: the one harvest every report reads (the figure
/// metrics, `run_one`'s printout, the tree renderings), taken at the end of
/// the run before the observability layers close.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Raw counters for the metrics pipeline.
    pub record: RunRecord,
    /// Per-sink distinct-event counts (diagnostics).
    pub per_sink_distinct: Vec<(NodeId, u64)>,
    /// The hottest node's communication energy and its id — the traffic
    /// concentration the paper's §3 warns aggregated paths can create
    /// ("aggregated data paths introduce traffic concentration ... which
    /// adversely impacts network lifetime").
    pub hotspot: (NodeId, f64),
    /// Diffusion messages sent over all nodes, by kind, in [`MsgKind::ALL`]
    /// order (index with [`MsgKind::index`]).
    pub sent: [u64; 6],
    /// MAC retransmissions over all nodes.
    pub retries: u64,
    /// Unicasts the MAC gave up on at its retry limit.
    pub failed_unicasts: u64,
    /// The one-way delay of every distinct event, seconds: each sink's
    /// delays in arrival order, sinks in node order.
    pub delays_s: Vec<f64>,
    /// The live data gradients at the end of the run as `(node, next hop)`
    /// pairs, nodes in ascending order — the aggregation tree that formed.
    pub tree_edges: Vec<(NodeId, NodeId)>,
    /// The nodes down at the end of the run, in ascending order.
    pub down: Vec<NodeId>,
    /// Simulator run accounting (events dispatched, final clock, backlog).
    pub accounting: RunAccounting,
    /// Disconnected placements rejected while generating the run's field
    /// (see [`wsn_scenario::Field::retries`]).
    pub field_retries: u32,
}

impl Experiment {
    /// An experiment over `scenario` with `scheme` and all other parameters
    /// at the paper's defaults.
    pub fn new(scenario: ScenarioSpec, scheme: Scheme) -> Self {
        let net = NetConfig {
            mac: scenario.mac,
            ..NetConfig::default()
        };
        Experiment {
            scenario,
            diffusion: DiffusionConfig::for_scheme(scheme),
            net,
        }
    }

    /// Runs the experiment to completion and harvests the outcome.
    ///
    /// Deterministic: the outcome is a pure function of the experiment's
    /// fields.
    pub fn run(&self) -> RunOutcome {
        self.run_on(&self.scenario.instantiate())
    }

    /// Runs on an already instantiated scenario (lets paired comparisons
    /// share one instantiation), unbudgeted and unobserved.
    pub fn run_on(&self, instance: &ScenarioInstance) -> RunOutcome {
        self.run_on_observed(instance, u64::MAX, None, None, None)
            .expect("u64::MAX event budget cannot be exhausted")
            .0
    }

    /// The one full-control entry point: an instantiated scenario, a
    /// watchdog budget of at most `max_events` dispatched simulator events,
    /// an optional trace sink, an optional dispatch profiler and an
    /// optional in-sim metrics attachment. Returns the outcome, plus the
    /// final registry when metrics were requested.
    ///
    /// The trace is closed out *after* the outcome is harvested, so a
    /// traced run produces bit-identical metrics to an untraced one (closing
    /// the energy meters folds partially elapsed intervals into their
    /// per-state buckets, which can perturb the floating-point summation
    /// order by an ulp). A traced run additionally self-describes: the
    /// harvested counters land in the trace as a `metrics` record, which is
    /// what lets [`wsn_trace::audit`] check a trace against the metrics the
    /// run reported without any side channel.
    ///
    /// Profiling attaches a wall-clock dispatch profiler to the engine; the
    /// measured numbers are *not* deterministic, so they are only written to
    /// the trace (as `profile` records) when profiling was explicitly
    /// requested — a traced-but-unprofiled run stays byte-identical across
    /// repeats.
    ///
    /// When both a trace and metrics are active, the trace's snapshot
    /// cadence drives the shared snapshot event, so enabling metrics adds no
    /// simulator events to a traced run (the trace stays byte-identical).
    /// Metrics are closed out *after* the outcome is harvested — the meter
    /// close-out is idempotent alongside [`Network::finish_trace`], so
    /// registry energy totals cover exactly the same debit stream the trace
    /// records.
    ///
    /// # Errors
    ///
    /// Returns [`EventBudgetExceeded`] if the simulation would need more
    /// than `max_events` events to reach the scenario's end time; the run
    /// execution layer ([`crate::Runner`]) turns this into a reported job
    /// error instead of a hung sweep. The trace sink is flushed
    /// (best-effort) and the metrics sink still receives its flight-ring
    /// dump and final `mtotal` line on that path, so a watchdog trip leaves
    /// usable post-mortem artifacts.
    pub fn run_on_observed(
        &self,
        instance: &ScenarioInstance,
        max_events: u64,
        trace: Option<(SharedSink, TraceOptions)>,
        profile: Option<SharedProfile>,
        metrics: Option<MetricsSetup>,
    ) -> Result<(RunOutcome, Option<MetricsRegistry>), EventBudgetExceeded> {
        // All metric ids are registered before the engine exists: the
        // registry's slot count is fixed from here on, which is what makes
        // recording allocation-free.
        let mut registered = None;
        let mut diff_ids = None;
        if metrics.is_some() {
            let mut reg = MetricsRegistry::new();
            let net_ids = NetMetricIds::register(&mut reg, self.net.mac);
            diff_ids = Some(DiffusionMetricIds::register(&mut reg));
            registered = Some((reg, net_ids));
        }
        let diffusion = self.diffusion.clone();
        let mut net = Network::new(
            instance.field.topology.clone(),
            self.net.clone(),
            self.scenario.seed,
            |id| {
                let (is_source, is_sink) = instance.role_of(id);
                let node = DiffusionNode::new(diffusion.clone(), id, Role { is_source, is_sink });
                match diff_ids {
                    Some(ids) => node.with_metrics(ids),
                    None => node,
                }
            },
        );
        for e in &instance.failure_events {
            if e.down {
                net.schedule_down(e.at, e.node);
            } else {
                net.schedule_up(e.at, e.node);
            }
        }
        let sink_handle = trace.as_ref().map(|(sink, _)| sink.clone());
        if let Some((sink, opts)) = trace {
            net.set_trace(sink, opts);
        }
        if let Some(p) = profile.clone() {
            net.set_profile(p);
        }
        // Metrics install after the trace so that an armed trace cadence
        // owns the shared snapshot event from its very first firing.
        if let Some(setup) = metrics {
            let (reg, net_ids) = registered.take().expect("metrics implies a registry");
            net.install_metrics(reg, net_ids, setup.opts, setup.out);
        }
        let run_result = net.run_until_capped(instance.end, max_events);
        if let Err(cause) = run_result {
            // Flush the partial artifacts so a watchdog trip is diagnosable
            // (the engine already dumped the flight ring before erroring).
            let _ = net.finish_metrics();
            let _ = net.finish_trace();
            return Err(cause);
        }

        let now = net.now();
        let mut distinct_events = 0;
        let mut delay_sum_s = 0.0;
        let mut events_generated = 0;
        let mut per_sink_distinct = Vec::new();
        let mut sent = [0; 6];
        let mut delays_s = Vec::new();
        let mut tree_edges = Vec::new();
        for (id, proto) in net.protocols() {
            if proto.role().is_sink {
                distinct_events += proto.sink.distinct;
                delay_sum_s += proto.sink.delay_sum_s;
                per_sink_distinct.push((id, proto.sink.distinct));
                delays_s.extend_from_slice(&proto.sink.delays_s);
            }
            if proto.role().is_source {
                events_generated += proto.events_generated;
            }
            for kind in MsgKind::ALL {
                sent[kind.index()] += proto.counters.sent(kind);
            }
            let next_hops = proto.gradients().data_neighbors(now);
            tree_edges.extend(next_hops.into_iter().map(|hop| (id, hop)));
        }
        let nodes = (0..instance.field.positions.len()).map(NodeId::from_index);
        let hotspot = nodes
            .clone()
            .map(|id| (id, net.activity_energy(id)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energies"))
            .unwrap_or((NodeId(0), 0.0));
        let stats = net.stats();
        let record = RunRecord {
            node_count: instance.field.positions.len(),
            sink_count: instance.sinks.len(),
            duration_s: instance.end.as_secs_f64(),
            total_energy_j: net.total_energy(),
            activity_energy_j: net.total_activity_energy(),
            distinct_events,
            delay_sum_s,
            events_generated,
            tx_frames: stats.total_tx_frames(),
            tx_bytes: stats.total_tx_bytes(),
            collisions: stats.collisions,
        };
        let outcome = RunOutcome {
            record,
            per_sink_distinct,
            hotspot,
            sent,
            retries: stats.total_retries(),
            failed_unicasts: stats.total_failed(),
            delays_s,
            tree_edges,
            down: nodes.filter(|&id| !net.is_up(id)).collect(),
            accounting: net.accounting(),
            field_retries: instance.field.retries,
        };
        if let Some(sink) = &sink_handle {
            // The trace carries the metrics the run reported — the audit
            // anchor. Harvested values, so the energy here reconciles with
            // the debit stream only to within an ulp (the `run_end` total,
            // taken after meter close-out, is the exact one).
            sink.borrow_mut().record(&TraceRecord::RunMetrics {
                t_ns: net.now().as_nanos(),
                generated: outcome.record.events_generated,
                distinct: outcome.record.distinct_events,
                delay_sum_s: outcome.record.delay_sum_s,
                sinks: outcome.record.sink_count as u32,
                total_energy_j: outcome.record.total_energy_j,
            });
            // Profile rows enter the trace only on explicit profiling (they
            // are wall-clock and would break byte-identical repeats).
            if let Some(p) = &profile {
                for (label, e) in p.borrow().entries() {
                    sink.borrow_mut().record(&TraceRecord::Profile {
                        label: label.to_string(),
                        count: e.count,
                        total_ns: e.total_ns,
                        max_ns: e.max_ns,
                    });
                }
            }
        }
        // Close the observability layers only after harvesting (see the
        // method docs); the flush error is deliberately swallowed — the
        // record stream already tolerates mid-run write failures, and
        // metrics must not depend on trace I/O.
        let metrics_reg = net.finish_metrics();
        let _ = net.finish_trace();
        Ok((outcome, metrics_reg))
    }
}
