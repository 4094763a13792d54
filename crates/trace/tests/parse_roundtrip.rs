//! Property tests for the NDJSON wire format: every [`TraceRecord`] kind
//! decodes back from its own line, `from_json(&r.to_json()) == Ok(r)`, with
//! every field intact (floats bit-exact, thanks to Rust's
//! shortest-round-trip `Display`), optional fields omitted rather than
//! written as `null`, lineage sets surviving the quoted-value scan, and
//! malformed lines rejected as foreign without panics.

use proptest::prelude::*;
use wsn_trace::{
    join_lineage, split_lineage, DecodeError, DropReason, LineageId, TraceRecord, ENERGY_STATES,
    FRAME_KINDS, REINFORCE_KINDS,
};

/// A random lineage-id set already joined into its wire string.
fn lineage_set() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<u32>(), any::<u32>()), 1..8)
        .prop_map(|ids| join_lineage(ids.into_iter().map(|(src, seq)| LineageId::new(src, seq))))
}

/// Encodes `rec` and decodes the line back.
fn decoded(rec: &TraceRecord) -> Result<TraceRecord, DecodeError> {
    TraceRecord::from_json(&rec.to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_start_roundtrips(seed in any::<u64>(), nodes in any::<u32>()) {
        let rec = TraceRecord::RunStart { seed, nodes };
        prop_assert!(rec.to_json().contains("\"v\":"), "run_start carries the schema version");
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn mac_enqueue_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        bytes in any::<u32>(),
        dst in prop::option::of(any::<u32>()),
        lineage in prop::option::of(lineage_set()),
    ) {
        let rec = TraceRecord::MacEnqueue { t_ns, node, bytes, dst, lineage };
        prop_assert!(!rec.to_json().contains("null"), "optional fields are omitted, never null");
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn packet_tx_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        tx in any::<u64>(),
        kind_ix in 0usize..FRAME_KINDS.len(),
        bytes in any::<u32>(),
        dst in prop::option::of(any::<u32>()),
        lineage in prop::option::of(lineage_set()),
    ) {
        let kind = FRAME_KINDS[kind_ix];
        let rec = TraceRecord::PacketTx { t_ns, node, tx, kind, bytes, dst, lineage };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn packet_rx_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        from in any::<u32>(),
        tx in any::<u64>(),
        bytes in any::<u32>(),
    ) {
        let rec = TraceRecord::PacketRx { t_ns, node, from, tx, bytes };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn packet_drop_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        reason_ix in 0usize..DropReason::ALL.len(),
        tx in prop::option::of(any::<u64>()),
    ) {
        let reason = DropReason::ALL[reason_ix];
        let rec = TraceRecord::PacketDrop { t_ns, node, reason, tx };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn collision_roundtrips(t_ns in any::<u64>(), node in any::<u32>()) {
        let rec = TraceRecord::Collision { t_ns, node };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn energy_debit_roundtrips_floats_bit_exact(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        state_ix in 0usize..ENERGY_STATES.len(),
        joules in 0.0f64..1e9,
    ) {
        let state = ENERGY_STATES[state_ix];
        // Rust's shortest-round-trip Display guarantees parse-back equality
        // to the last bit — the property the trace auditor's exact energy
        // reconciliation rests on.
        let rec = TraceRecord::EnergyDebit { t_ns, node, state, joules };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn gradient_reinforce_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        from in any::<u32>(),
        kind_ix in 0usize..REINFORCE_KINDS.len(),
    ) {
        let kind = REINFORCE_KINDS[kind_ix];
        let rec = TraceRecord::GradientReinforce { t_ns, node, from, kind };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn tree_edge_roundtrips(t_ns in any::<u64>(), node in any::<u32>(), parent in any::<u32>()) {
        let rec = TraceRecord::TreeEdge { t_ns, node, parent };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn agg_merge_roundtrips_lineage_sets(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        inputs in any::<u32>(),
        cost in 0.0f64..1e6,
        ids in prop::collection::vec((any::<u32>(), any::<u32>()), 1..8),
    ) {
        let lineage: Vec<LineageId> =
            ids.into_iter().map(|(src, seq)| LineageId::new(src, seq)).collect();
        let rec = TraceRecord::AggMerge {
            t_ns,
            node,
            inputs,
            items: lineage.len() as u32,
            cost,
            lineage: join_lineage(lineage.iter().copied()),
        };
        let back = decoded(&rec);
        prop_assert_eq!(&back, &Ok(rec));
        // The comma-joined set survives the quoted-value scan and splits
        // back into exactly the ids that were joined, in order.
        let Ok(TraceRecord::AggMerge { lineage: wire, .. }) = back else {
            unreachable!("asserted above");
        };
        prop_assert_eq!(split_lineage(&wire), lineage);
    }

    #[test]
    fn event_gen_roundtrips(t_ns in any::<u64>(), node in any::<u32>(), seq in any::<u32>()) {
        let rec = TraceRecord::EventGen { t_ns, node, seq };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn event_deliver_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        src in any::<u32>(),
        seq in any::<u32>(),
        gen_ns in any::<u64>(),
    ) {
        let rec = TraceRecord::EventDeliver { t_ns, node, src, seq, gen_ns };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn item_drop_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        src in any::<u32>(),
        seq in any::<u32>(),
        reason_ix in 0usize..DropReason::ALL.len(),
    ) {
        let reason = DropReason::ALL[reason_ix];
        let rec = TraceRecord::ItemDrop { t_ns, node, src, seq, reason };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn run_metrics_roundtrips(
        t_ns in any::<u64>(),
        generated in any::<u64>(),
        distinct in any::<u64>(),
        delay_sum_s in 0.0f64..1e6,
        sinks in any::<u32>(),
        total_energy_j in 0.0f64..1e9,
    ) {
        let rec = TraceRecord::RunMetrics {
            t_ns, generated, distinct, delay_sum_s, sinks, total_energy_j,
        };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn profile_roundtrips(
        label_ix in 0usize..4,
        count in any::<u64>(),
        total_ns in any::<u64>(),
        max_ns in any::<u64>(),
    ) {
        // Labels are event-type names: plain identifiers, no escapes needed.
        let label = ["dispatch", "mac_timer", "proto_timer", "snapshot"][label_ix].to_string();
        let rec = TraceRecord::Profile { label, count, total_ns, max_ns };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn snapshot_roundtrips(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        energy_j in 0.0f64..1e9,
        queue in any::<u32>(),
        cache in any::<u32>(),
    ) {
        let rec = TraceRecord::Snapshot { t_ns, node, energy_j, queue, cache };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn run_end_roundtrips(
        t_ns in any::<u64>(),
        events in any::<u64>(),
        total_energy_j in 0.0f64..1e9,
    ) {
        let rec = TraceRecord::RunEnd { t_ns, events, total_energy_j };
        prop_assert_eq!(decoded(&rec), Ok(rec));
    }

    #[test]
    fn non_object_garbage_is_rejected(bytes in prop::collection::vec(0u32..95, 0..60)) {
        // Anything that does not open with '{' can never decode; the
        // decoder must call it a foreign line, never panic. The leading 'x'
        // pins the first (trimmed) character away from '{'.
        let garbage: String = std::iter::once('x')
            .chain(bytes.into_iter().map(|b| (b' ' + b as u8) as char))
            .collect();
        prop_assert_eq!(TraceRecord::from_json(&garbage), Err(DecodeError::NotARecord));
    }

    #[test]
    fn truncated_records_are_rejected(
        t_ns in any::<u64>(),
        node in any::<u32>(),
        cut in any::<u64>(),
    ) {
        // Flat records contain exactly one '}', at the very end — so any
        // proper prefix is malformed and must decode as a foreign line
        // without panics.
        let line = TraceRecord::Snapshot { t_ns, node, energy_j: 0.5, queue: 1, cache: 2 }
            .to_json();
        let cut = (cut as usize) % line.len();
        prop_assert_eq!(
            TraceRecord::from_json(&line[..cut]),
            Err(DecodeError::NotARecord),
            "prefix of len {}",
            cut
        );
    }
}
