//! Run a single experiment with explicit parameters and print everything —
//! the metrics, the physical-layer counters, the message breakdown, and
//! optionally an SVG of the field with the aggregation tree that formed.
//!
//! ```sh
//! cargo run --release -p wsn-bench --bin run_one -- \
//!     --nodes 250 --scheme greedy --duration 200 --seed 7 --svg field.svg
//! ```
//!
//! `--max-events N` arms the watchdog: the run aborts (exit status 2) if it
//! would dispatch more than `N` simulator events before the deadline.
//! `--mac {csma,rtscts,ideal}` picks the MAC layer (default: plain
//! CSMA/CA+ACK). `--scale FACTOR` multiplies `--nodes` by `FACTOR` and the
//! 200 m field side by `√FACTOR`, preserving node density while growing the
//! field (`--nodes 200 --scale 50` is a 10,000-node run at the paper's
//! 200-node density). `--metrics PATH` attaches the in-sim metrics registry
//! and writes its snapshot stream (JSONL) to `PATH`; `--prometheus` prints
//! the final registry in Prometheus exposition format on stdout (both may
//! be combined).
//!
//! `--help` prints the usage and exits 0. A malformed command line (an
//! unknown flag, a missing or unparsable value) prints one `error:` line
//! and the usage to stderr and exits with status 2.

use wsn_diffusion::{DiffusionConfig, DiffusionNode, MsgKind, Role, Scheme};
use wsn_metrics::RunRecord;
use wsn_net::{MacKind, NetConfig, Network};
use wsn_scenario::{
    render_svg, Connectivity, FailureConfig, RenderOverlay, ScenarioSpec, SourcePlacement,
};
use wsn_sim::SimDuration;

struct Args {
    nodes: usize,
    scheme: Scheme,
    duration_s: u64,
    seed: u64,
    sources: usize,
    sinks: usize,
    failures: bool,
    random_sources: bool,
    mac: MacKind,
    svg: Option<String>,
    max_events: Option<u64>,
    scale: f64,
    metrics: Option<String>,
    prometheus: bool,
}

const USAGE: &str = "\
usage: run_one [options]

  --nodes N          node count (default 200)
  --scheme S         greedy | opportunistic (default greedy)
  --duration SECS    simulated seconds (default 200)
  --seed N           scenario seed (default 2002)
  --sources N        source count (default 5)
  --sinks N          sink count (default 1)
  --failures         schedule rolling node failures
  --random-sources   place sources uniformly, not in the paper's corner
  --mac M            csma | rtscts | ideal (default csma)
  --scale F          nodes x F in a field sqrt(F) times wider (default 1)
  --max-events N     abort with status 2 past N simulator events
  --svg PATH         write the field and its aggregation tree as SVG
  --metrics PATH     write the metrics snapshot stream (JSONL)
  --prometheus       print the final metrics registry (Prometheus format)
  --help             print this help
";

/// What the command line asks for.
enum Command {
    Help,
    Run(Args),
}

/// Parses `flag`'s value.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("{flag}: cannot parse {value:?}: {e}"))
}

/// Parses the command line (without the program name).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = Args {
        nodes: 200,
        scheme: Scheme::Greedy,
        duration_s: 200,
        seed: 2002,
        sources: 5,
        sinks: 1,
        failures: false,
        random_sources: false,
        mac: MacKind::default(),
        svg: None,
        max_events: None,
        scale: 1.0,
        metrics: None,
        prometheus: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--nodes" => args.nodes = parse_value(&flag, &val()?)?,
            "--scheme" => {
                args.scheme = match val()?.as_str() {
                    "greedy" => Scheme::Greedy,
                    "opportunistic" => Scheme::Opportunistic,
                    other => {
                        return Err(format!(
                            "--scheme: unknown scheme {other:?} (greedy|opportunistic)"
                        ))
                    }
                }
            }
            "--duration" => args.duration_s = parse_value(&flag, &val()?)?,
            "--seed" => args.seed = parse_value(&flag, &val()?)?,
            "--sources" => args.sources = parse_value(&flag, &val()?)?,
            "--sinks" => args.sinks = parse_value(&flag, &val()?)?,
            "--failures" => args.failures = true,
            "--random-sources" => args.random_sources = true,
            "--mac" => args.mac = parse_value(&flag, &val()?)?,
            "--svg" => args.svg = Some(val()?),
            "--max-events" => args.max_events = Some(parse_value(&flag, &val()?)?),
            "--metrics" => args.metrics = Some(val()?),
            "--prometheus" => args.prometheus = true,
            "--scale" => {
                args.scale = parse_value(&flag, &val()?)?;
                if !(args.scale.is_finite() && args.scale > 0.0) {
                    return Err(format!("--scale must be positive, got {}", args.scale));
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(args))
}

fn main() {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            print!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let defaults = ScenarioSpec::default();
    let mut field_side_m = defaults.field_side_m;
    let mut connectivity = defaults.connectivity;
    if args.scale != 1.0 {
        // Density-preserving scale-up, mirroring the figure harness's
        // `--scale`: more nodes in a proportionally wider square. At scale,
        // full connectivity of a constant-density random field is no longer
        // drawable, so accept a 90% giant component (roles stay inside it).
        args.nodes = ((args.nodes as f64) * args.scale).round().max(1.0) as usize;
        field_side_m *= args.scale.sqrt();
        connectivity = Connectivity::GiantComponent { min_fraction: 0.9 };
    }
    let spec = ScenarioSpec {
        node_count: args.nodes,
        field_side_m,
        connectivity,
        num_sources: args.sources,
        num_sinks: args.sinks,
        source_placement: if args.random_sources {
            SourcePlacement::Uniform
        } else {
            SourcePlacement::PAPER_CORNER
        },
        failures: args.failures.then(FailureConfig::default),
        mac: args.mac,
        duration: SimDuration::from_secs(args.duration_s),
        seed: args.seed,
        ..defaults
    };
    let instance = spec.instantiate();
    println!(
        "field: {} nodes in {:.0} m square, degree {:.1}, {} placements rejected, \
         sources {:?}, sinks {:?}, scheme {}",
        args.nodes,
        spec.field_side_m,
        instance.field.topology.average_degree(),
        instance.field.retries,
        instance.sources,
        instance.sinks,
        args.scheme
    );

    // Metric ids register before the engine exists (fixed-slot registry).
    let want_metrics = args.metrics.is_some() || args.prometheus;
    let mut registered = None;
    let mut diff_ids = None;
    if want_metrics {
        let mut reg = wsn_metrics::MetricsRegistry::new();
        let net_ids = wsn_net::NetMetricIds::register(&mut reg, spec.mac);
        diff_ids = Some(wsn_diffusion::DiffusionMetricIds::register(&mut reg));
        registered = Some((reg, net_ids));
    }
    let cfg = DiffusionConfig::for_scheme(args.scheme);
    let mut net = Network::new(
        instance.field.topology.clone(),
        NetConfig {
            mac: spec.mac,
            ..NetConfig::default()
        },
        spec.seed,
        |id| {
            let (is_source, is_sink) = instance.role_of(id);
            let node = DiffusionNode::new(cfg.clone(), id, Role { is_source, is_sink });
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
    if let Some((reg, net_ids)) = registered {
        let out: Option<Box<dyn std::io::Write>> = args.metrics.as_ref().map(|path| {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("cannot create metrics file {path}: {e}"));
            Box::new(std::io::BufWriter::new(file)) as Box<dyn std::io::Write>
        });
        net.install_metrics(reg, net_ids, wsn_net::MetricsOptions::default(), out);
    }
    let wall = std::time::Instant::now();
    if let Err(err) = net.run_until_capped(instance.end, args.max_events.unwrap_or(u64::MAX)) {
        eprintln!("error: {err}");
        std::process::exit(2);
    }
    let wall = wall.elapsed();

    // Harvest.
    let mut distinct = 0u64;
    let mut delay_sum = 0.0;
    let mut generated = 0u64;
    for (_, p) in net.protocols() {
        if p.role().is_sink {
            distinct += p.sink.distinct;
            delay_sum += p.sink.delay_sum_s;
        }
        if p.role().is_source {
            generated += p.events_generated;
        }
    }
    let stats = net.stats();
    let record = RunRecord {
        node_count: args.nodes,
        sink_count: instance.sinks.len(),
        duration_s: instance.end.as_secs_f64(),
        total_energy_j: net.total_energy(),
        activity_energy_j: net.total_activity_energy(),
        distinct_events: distinct,
        delay_sum_s: delay_sum,
        events_generated: generated,
        tx_frames: stats.total_tx_frames(),
        tx_bytes: stats.total_tx_bytes(),
        collisions: stats.collisions,
    };
    let m = record.metrics();
    println!("\nmetrics:");
    println!(
        "  avg dissipated energy (total): {:.6} J/node/event",
        m.avg_dissipated_energy
    );
    println!(
        "  avg dissipated energy (tx+rx): {:.6} J/node/event",
        m.avg_activity_energy
    );
    println!("  avg delay:                     {:.3} s", m.avg_delay_s);
    println!("  distinct-event delivery ratio: {:.3}", m.delivery_ratio);
    let mut all_delays = wsn_diffusion::SinkStats::default();
    for (_, p) in net.protocols() {
        if p.role().is_sink {
            all_delays.delays_s.extend_from_slice(&p.sink.delays_s);
        }
    }
    if !all_delays.delays_s.is_empty() {
        println!(
            "  delay percentiles:             p50 {:.3} s / p95 {:.3} s / p99 {:.3} s",
            all_delays.delay_percentile_s(50.0),
            all_delays.delay_percentile_s(95.0),
            all_delays.delay_percentile_s(99.0)
        );
    }
    println!("\nphysical layer:");
    println!(
        "  frames {} ({} bytes), collisions {}, retries {}, failed unicasts {}",
        record.tx_frames,
        record.tx_bytes,
        record.collisions,
        stats.total_retries(),
        stats.total_failed()
    );
    println!(
        "  energy {:.1} J total / {:.1} J communication",
        record.total_energy_j, record.activity_energy_j
    );
    let hotspot = (0..args.nodes)
        .map(wsn_net::NodeId::from_index)
        .map(|id| (id, net.activity_energy(id)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty field");
    println!(
        "  hotspot: {} at {:.2} J ({:.1}% of network communication energy)",
        hotspot.0,
        hotspot.1,
        100.0 * hotspot.1 / record.activity_energy_j.max(1e-12)
    );
    println!("\nmessages sent:");
    for kind in MsgKind::ALL {
        let n: u64 = net.protocols().map(|(_, p)| p.counters.sent(kind)).sum();
        println!("  {kind:?}: {n}");
    }
    let accounting = net.accounting();
    println!(
        "\nsimulated {:.0} s ({} events) in {:.2} s wall time",
        record.duration_s,
        accounting.events_processed,
        wall.as_secs_f64()
    );
    if let Some(kb) = wsn_core::peak_rss_kb() {
        println!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }

    if want_metrics {
        let reg = net.finish_metrics().expect("metrics were installed");
        if let Some(path) = &args.metrics {
            println!("wrote {path}");
        }
        if args.prometheus {
            println!("\nprometheus exposition:");
            print!("{}", reg.render_prometheus());
        }
    }

    if let Some(path) = args.svg {
        let now = net.now();
        let tree_edges: Vec<_> = net
            .protocols()
            .flat_map(|(id, p)| {
                p.gradients()
                    .data_neighbors(now)
                    .into_iter()
                    .map(move |n| (id, n))
            })
            .collect();
        let overlay = RenderOverlay {
            sources: instance.sources.clone(),
            sinks: instance.sinks.clone(),
            tree_edges,
            down: (0..args.nodes)
                .map(wsn_net::NodeId::from_index)
                .filter(|&n| !net.is_up(n))
                .collect(),
        };
        let svg = render_svg(&instance.field, &overlay);
        std::fs::write(&path, svg).expect("write SVG");
        println!("wrote {path}");
    }
}
