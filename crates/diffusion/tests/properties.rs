//! Property-based tests of the diffusion building blocks.

use proptest::prelude::*;
use wsn_diffusion::{
    AggregationBuffer, AggregationFn, EventItem, ExplCache, GradientTable, IncomingAgg, MsgId,
    Scheme, TruncationLog, WindowEntry,
};
use wsn_net::NodeId;
use wsn_sim::{SimDuration, SimTime};

fn item(src: u32, round: u32) -> EventItem {
    EventItem {
        source: NodeId(src),
        round,
        generated: SimTime::ZERO,
    }
}

/// An offer script for the exploratory cache: (neighbor, cost, incremental?).
fn offers() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    prop::collection::vec((0u32..8, 1u32..30, any::<bool>()), 1..20)
}

/// Offers as ((neighbor, incremental?), cost, arrival ns). Narrow cost and
/// time ranges force ties, so every tie-break rule gets exercised.
fn keyed_offers() -> impl Strategy<Value = Vec<((u32, bool), u32, u64)>> {
    prop::collection::vec(((0u32..12, any::<bool>()), 1u32..5, 1u64..6), 1..24)
}

/// A Fisher–Yates shuffle of `v` driven by a splitmix64 stream from `seed`.
fn shuffled<T: Clone>(v: &[T], seed: u64) -> Vec<T> {
    let mut out = v.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
}

/// Records `offers` for `id` after a fixed first exploratory copy from
/// `first` (which fixes `first_from`).
fn cache_with(id: MsgId, first: (u32, u32), offers: &[((u32, bool), u32, u64)]) -> ExplCache {
    let mut cache = ExplCache::new();
    let it = item(id.source.0, id.round);
    cache.record_exploratory(id, it, NodeId(first.0), first.1, SimTime::ZERO);
    for &((n, incremental), cost, t) in offers {
        let now = SimTime::from_nanos(t);
        if incremental {
            cache.record_incremental(id, it, NodeId(n), cost, now);
        } else {
            cache.record_exploratory(id, it, NodeId(n), cost, now);
        }
    }
    cache
}

/// Applies gradient refreshes `(neighbor, data?, until ns)`. Both kinds only
/// ever extend validity, so any order yields the same live state.
fn apply_gradients(table: &mut GradientTable, ops: &[(u32, bool, u64)]) {
    for &(n, data, until) in ops {
        let until = SimTime::from_nanos(until);
        if data {
            table.reinforce(NodeId(n), until);
        } else {
            table.refresh_exploratory(NodeId(n), until);
        }
    }
}

proptest! {
    /// The greedy upstream choice equals the brute-force minimum under the
    /// paper's tie rules (cost, then exploratory-over-incremental, then
    /// earliest arrival).
    #[test]
    fn greedy_choice_matches_brute_force(script in offers()) {
        let id = MsgId { source: NodeId(99), round: 0 };
        let mut cache = ExplCache::new();
        // Brute force over *effective* offers: per (neighbor, kind) the best
        // cost with its earliest achieving time.
        let mut best: Option<(u32, u8, u64, u32)> = None; // cost, kind, time, neighbor
        let mut effective: std::collections::HashMap<(u32, bool), (u32, u64)> = Default::default();
        for (t, &(n, cost, incremental)) in script.iter().enumerate() {
            let now = SimTime::from_nanos((t as u64 + 1) * 1000);
            if incremental {
                cache.record_incremental(id, item(99, 0), NodeId(n), cost, now);
            } else {
                cache.record_exploratory(id, item(99, 0), NodeId(n), cost, now);
            }
            let e = effective.entry((n, incremental)).or_insert((cost, now.as_nanos()));
            if cost < e.0 {
                *e = (cost, now.as_nanos());
            }
        }
        for (&(n, incremental), &(cost, time)) in &effective {
            let cand = (cost, u8::from(incremental), time, n);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let expected = best.map(|(_, _, _, n)| NodeId(n));
        let chosen = cache.choose_upstream(id, Scheme::Greedy).map(|(n, _)| n);
        prop_assert_eq!(chosen, expected);
    }

    /// The opportunistic choice is always the neighbor that delivered the
    /// first *exploratory* copy.
    #[test]
    fn opportunistic_choice_is_first_exploratory(script in offers()) {
        let id = MsgId { source: NodeId(99), round: 0 };
        let mut cache = ExplCache::new();
        let mut first_expl: Option<u32> = None;
        for (t, &(n, cost, incremental)) in script.iter().enumerate() {
            let now = SimTime::from_nanos((t as u64 + 1) * 1000);
            if incremental {
                cache.record_incremental(id, item(99, 0), NodeId(n), cost, now);
            } else {
                cache.record_exploratory(id, item(99, 0), NodeId(n), cost, now);
                if first_expl.is_none() {
                    first_expl = Some(n);
                }
            }
        }
        let chosen = cache.choose_upstream(id, Scheme::Opportunistic).map(|(n, _)| n);
        // The cache's first_from is the neighbor of the first *recorded*
        // message; opportunistic only answers when an exploratory was seen.
        match first_expl {
            Some(n) if script.first().map(|&(_, _, inc)| !inc).unwrap_or(false) => {
                prop_assert_eq!(chosen, Some(NodeId(n)));
            }
            _ => {} // first message was incremental: entry exists but answer may be None
        }
    }

    /// The upstream choice does not depend on the order offers arrive in
    /// (beyond the first copy) nor on the cache's hash-table layout: the
    /// same offers recorded in a shuffled order give identical answers.
    #[test]
    fn upstream_choice_ignores_offer_order(
        first in (0u32..12, 1u32..5),
        script in keyed_offers(),
        excluded in prop::collection::vec(0u32..12, 0..4),
        seed in any::<u64>(),
    ) {
        // One offer per (neighbor, kind): repeats would make the kept
        // arrival time depend on order for real, not through the table.
        let mut keys = std::collections::BTreeSet::new();
        let script: Vec<_> = script.into_iter().filter(|(k, _, _)| keys.insert(*k)).collect();
        let id = MsgId { source: NodeId(99), round: 3 };
        let a = cache_with(id, first, &script);
        let b = cache_with(id, first, &shuffled(&script, seed));
        let excluded: Vec<NodeId> = excluded.into_iter().map(NodeId).collect();
        let first_only = [NodeId(first.0)];
        for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
            prop_assert_eq!(a.choose_upstream(id, scheme), b.choose_upstream(id, scheme));
            for ex in [&excluded[..], &first_only[..]] {
                prop_assert_eq!(
                    a.choose_upstream_excluding(id, scheme, ex),
                    b.choose_upstream_excluding(id, scheme, ex)
                );
            }
        }
        prop_assert_eq!(a.own_energy(id), b.own_energy(id));
    }

    /// Gradient queries do not depend on the order refreshes arrive in nor
    /// on the table's layout: decoy neighbors grow one table and are swept
    /// away again, leaving the same live state in a larger, reshuffled table.
    #[test]
    fn gradient_queries_ignore_table_order(
        ops in prop::collection::vec((0u32..16, any::<bool>(), 1u64..60), 1..32),
        decoys in 0u32..48,
        seed in any::<u64>(),
    ) {
        let mut a = GradientTable::new();
        apply_gradients(&mut a, &ops);
        let mut b = GradientTable::new();
        for d in 0..decoys {
            b.refresh_exploratory(NodeId(1000 + d), SimTime::ZERO);
        }
        apply_gradients(&mut b, &shuffled(&ops, seed));
        b.sweep(SimTime::from_nanos(1)); // drops exactly the decoys
        for now in (1..=61).step_by(3).map(SimTime::from_nanos) {
            prop_assert_eq!(a.data_neighbors(now), b.data_neighbors(now));
            prop_assert_eq!(a.all_neighbors(now), b.all_neighbors(now));
            prop_assert_eq!(a.on_tree(now), b.on_tree(now));
            prop_assert_eq!(a.any_live(now), b.any_live(now));
            prop_assert_eq!(a.any_live(now), !a.all_neighbors(now).is_empty());
        }
    }

    /// The aggregation buffer's outgoing cost is bounded: at least 1 (its
    /// own transmission) and at most the sum of all incoming costs plus 1.
    #[test]
    fn aggregate_cost_is_bounded(
        aggs in prop::collection::vec(
            (prop::collection::btree_set((0u32..4, 0u32..6), 1..5), 0.0f64..20.0),
            1..8,
        )
    ) {
        let mut buf = AggregationBuffer::new();
        let mut seen: std::collections::HashSet<(NodeId, u32)> = Default::default();
        let mut total_cost = 0.0;
        for (i, (items, cost)) in aggs.iter().enumerate() {
            let items: Vec<EventItem> = items.iter().map(|&(s, r)| item(s, r)).collect();
            let new_items: Vec<EventItem> = items
                .iter()
                .filter(|it| seen.insert(it.key()))
                .copied()
                .collect();
            buf.offer(
                IncomingAgg {
                    from: Some(NodeId(i as u32 + 100)),
                    items,
                    cost: *cost,
                    arrived: SimTime::ZERO,
                },
                &new_items,
            );
            total_cost += cost;
        }
        if let Some(out) = buf.flush() {
            prop_assert!(out.cost >= 1.0);
            prop_assert!(out.cost <= total_cost + 1.0 + 1e-9);
            prop_assert!(!out.items.is_empty());
            // Items are distinct and sorted by key.
            let keys: Vec<_> = out.items.iter().map(EventItem::key).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(keys, sorted);
        }
        // After a flush nothing remains.
        prop_assert!(buf.flush().is_none());
    }

    /// Truncation never cuts the sole sender, never cuts a non-sender, and
    /// under the greedy rule the surviving senders still cover every source
    /// in the window.
    #[test]
    fn truncation_is_safe(
        entries in prop::collection::vec(
            (0u32..5, prop::collection::btree_set((0u32..4, 0u32..4), 1..4), 0.5f64..10.0, any::<bool>()),
            1..12,
        ),
        scheme in prop::sample::select(vec![Scheme::Greedy, Scheme::Opportunistic]),
    ) {
        let mut log = TruncationLog::new(SimDuration::from_secs(2));
        for (i, (from, items, cost, had_new)) in entries.iter().enumerate() {
            log.record(WindowEntry {
                from: NodeId(*from),
                items: items.iter().map(|&(s, r)| item(s, r)).collect(),
                cost: *cost,
                arrived: SimTime::from_nanos(i as u64),
                had_new: *had_new,
            });
        }
        let senders = log.senders();
        let truncated = log.decide(scheme, SimTime::from_nanos(entries.len() as u64));
        for t in &truncated {
            prop_assert!(senders.contains(t), "truncated a non-sender");
        }
        if senders.len() == 1 {
            prop_assert!(truncated.is_empty());
        }
        if scheme == Scheme::Greedy {
            // The greedy rule always keeps the selected cover's senders.
            prop_assert!(truncated.len() < senders.len().max(1), "greedy truncated everyone");
        }
        if scheme == Scheme::Greedy && !truncated.is_empty() {
            // Survivors still cover all sources present in the window.
            let all_sources: std::collections::BTreeSet<u32> = entries
                .iter()
                .flat_map(|(_, items, _, _)| items.iter().map(|&(s, _)| s))
                .collect();
            let surviving_sources: std::collections::BTreeSet<u32> = entries
                .iter()
                .filter(|(from, _, _, _)| !truncated.contains(&NodeId(*from)))
                .flat_map(|(_, items, _, _)| items.iter().map(|&(s, _)| s))
                .collect();
            prop_assert_eq!(all_sources, surviving_sources, "coverage lost by truncation");
        }
    }

    /// Gradient table: reinforce ⇒ on-tree; degrade ⇒ not; expiry respected;
    /// refresh never shortens validity.
    #[test]
    fn gradient_lifecycle(ops in prop::collection::vec((0u32..4, 0u8..3, 1u64..100), 1..40)) {
        let mut table = GradientTable::new();
        let mut model: std::collections::HashMap<u32, u64> = Default::default(); // data_until
        for (i, &(n, op, horizon)) in ops.iter().enumerate() {
            let now = i as u64;
            let until = now + horizon;
            match op {
                0 => {
                    table.reinforce(NodeId(n), SimTime::from_nanos(until));
                    let e = model.entry(n).or_insert(0);
                    *e = (*e).max(until);
                }
                1 => {
                    table.degrade(NodeId(n));
                    model.remove(&n);
                }
                _ => {
                    table.refresh_exploratory(NodeId(n), SimTime::from_nanos(until));
                }
            }
            let t = SimTime::from_nanos(now);
            for (&m, &du) in &model {
                prop_assert_eq!(table.has_data(NodeId(m), t), du >= now);
            }
            prop_assert_eq!(
                table.on_tree(t),
                model.values().any(|&du| du >= now)
            );
        }
    }

    /// Aggregate sizing: perfect is constant; linear is affine and matches
    /// the paper's coefficients.
    #[test]
    fn aggregation_fn_sizes(d in 1usize..50) {
        prop_assert_eq!(AggregationFn::Perfect.aggregate_bytes(d, 64), 64);
        let lin = AggregationFn::LINEAR_PAPER.aggregate_bytes(d, 64);
        prop_assert_eq!(lin, 28 * d as u32 + 36);
    }
}
