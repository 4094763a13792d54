//! Reconciling a run's metrics registry with its trace.

use wsn_trace::{DropReason, TraceSummary, ENERGY_STATES, FRAME_KINDS};

/// The histogram counting buffered aggregates per aggregation merge.
const AGG_FANIN: &str = "diffusion.agg_fanin";

/// Compares every registry total that has a trace counterpart against the
/// trace's reduction, with **zero tolerance**: frames by kind, receptions,
/// collisions, frame and item drops by reason, per-state energy in
/// nanojoules, reinforcements, tree edges, and the aggregation fan-in
/// histogram's count and sum.
///
/// Both sides are exact because the registry is incremented beside each
/// trace-emission site of a run with both attached
/// ([`Experiment::run_on_observed`](crate::Experiment::run_on_observed)),
/// and energy is quantized per debit with [`wsn_trace::joules_to_nj`] on
/// both sides.
///
/// `counter` looks a counter up by its full name and `hist` a histogram's
/// `(count, sum)`, so the check runs against a live
/// [`wsn_metrics::MetricsRegistry`] or a decoded snapshot stream alike.
/// Returns one message per mismatch or unregistered metric, in a fixed
/// order; empty when every total reconciles.
pub fn registry_mismatches(
    trace: &TraceSummary,
    counter: impl Fn(&str) -> Option<u64>,
    hist: impl Fn(&str) -> Option<(u64, u64)>,
) -> Vec<String> {
    let mut expected: Vec<(String, u64)> = FRAME_KINDS
        .iter()
        .zip(trace.tx_by_kind)
        .map(|(kind, n)| (format!("phy.frames_tx{{kind={kind}}}"), n))
        .collect();
    expected.push(("phy.frames_rx".into(), trace.node_total(|t| t.rx)));
    expected.push(("phy.collisions".into(), trace.node_total(|t| t.collisions)));
    for reason in DropReason::ALL {
        let name = reason.name();
        let frames = trace.drop_reasons.get(name).copied().unwrap_or(0);
        let items = trace.item_drop_reasons.get(name).copied().unwrap_or(0);
        expected.push((format!("phy.drops{{reason={name}}}"), frames));
        expected.push((format!("diffusion.item_drops{{reason={name}}}"), items));
    }
    for (state, nj) in ENERGY_STATES.iter().zip(trace.energy_nj) {
        expected.push((format!("phy.energy_nj{{state={state}}}"), nj));
    }
    expected.push(("diffusion.reinforcements".into(), trace.reinforcements));
    expected.push(("diffusion.tree_edges_added".into(), trace.tree_edges));

    let mut out: Vec<String> = expected
        .into_iter()
        .filter_map(|(name, want)| match counter(&name) {
            None => Some(format!("metric {name} is not registered")),
            Some(got) if got != want => Some(format!("{name}: registry {got} != trace {want}")),
            Some(_) => None,
        })
        .collect();
    let want = (trace.merges, trace.merge_inputs);
    match hist(AGG_FANIN) {
        None => out.push(format!("metric {AGG_FANIN} is not registered")),
        Some((count, sum)) if (count, sum) != want => out.push(format!(
            "{AGG_FANIN}: registry count {count} sum {sum} != trace count {} sum {}",
            want.0, want.1
        )),
        Some(_) => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_diffusion::DiffusionMetricIds;
    use wsn_metrics::MetricsRegistry;
    use wsn_net::{MacKind, NetMetricIds};

    #[test]
    fn names_all_24_counters_and_the_fanin_histogram() {
        // Spelled out from the wire labels, independently of the code under
        // test, in report order.
        let mut names: Vec<String> = ["data", "ack", "rts", "cts"]
            .map(|k| format!("phy.frames_tx{{kind={k}}}"))
            .into();
        names.extend(["phy.frames_rx", "phy.collisions"].map(String::from));
        for r in [
            "collision",
            "retry_limit",
            "node_down",
            "no_route",
            "cache_suppressed",
            "budget",
        ] {
            names.push(format!("phy.drops{{reason={r}}}"));
            names.push(format!("diffusion.item_drops{{reason={r}}}"));
        }
        names.extend(["off", "idle", "rx", "tx"].map(|s| format!("phy.energy_nj{{state={s}}}")));
        names.extend(["diffusion.reinforcements", "diffusion.tree_edges_added"].map(String::from));
        assert_eq!(names.len(), 24);
        names.push(AGG_FANIN.into());

        let unregistered = registry_mismatches(&TraceSummary::new(), |_| None, |_| None);
        let expected: Vec<String> = names
            .iter()
            .map(|n| format!("metric {n} is not registered"))
            .collect();
        assert_eq!(unregistered, expected);
        let off_by_one = registry_mismatches(&TraceSummary::new(), |_| Some(1), |_| Some((1, 1)));
        assert_eq!(off_by_one.len(), names.len(), "{off_by_one:#?}");
        for (msg, name) in off_by_one.iter().zip(&names) {
            assert!(msg.starts_with(&format!("{name}: registry")), "{msg}");
        }
    }

    #[test]
    fn a_fresh_registry_reconciles_with_an_empty_trace() {
        let mut reg = MetricsRegistry::new();
        NetMetricIds::register(&mut reg, MacKind::default());
        DiffusionMetricIds::register(&mut reg);
        let mismatches = registry_mismatches(
            &TraceSummary::new(),
            |n| reg.counter_by_name(n),
            |n| reg.hist_by_name(n).map(|h| (h.count(), h.sum())),
        );
        assert_eq!(mismatches, Vec::<String>::new());
    }
}
