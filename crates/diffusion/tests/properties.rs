//! Property-based tests of the diffusion building blocks.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use proptest::prelude::*;
use wsn_diffusion::{
    AggregationBuffer, AggregationFn, DedupWindows, EventItem, ExplCache, GradientTable,
    IncomingAgg, MsgId, Scheme, TruncationLog, UpstreamKind, WindowEntry, DEDUP_WINDOW,
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

/// `offers` stably sorted by arrival: the order the engine records them
/// in, since its clock never runs backwards. Offers at one instant keep
/// their order.
fn by_arrival<K: Clone, C: Clone>(offers: &[(K, C, u64)]) -> Vec<(K, C, u64)> {
    let mut sorted = offers.to_vec();
    sorted.sort_by_key(|&(_, _, t)| t);
    sorted
}

/// The node the exploratory-cache tests run on, and its neighbors: every
/// other id below `n`, ascending. Offer slot `k` is `neighbors[k]`'s; the
/// own slot is the node's.
fn node_and_neighbors(me: u32, n: u32) -> (NodeId, Vec<NodeId>) {
    (
        NodeId(me),
        (0..n).filter(|&m| m != me).map(NodeId).collect(),
    )
}

/// The offer slot of node `n` in `cache`, whose node is `me`.
fn offer_slot(cache: &ExplCache, neighbors: &[NodeId], me: NodeId, n: u32) -> usize {
    if NodeId(n) == me {
        cache.own_slot()
    } else {
        neighbors.binary_search(&NodeId(n)).expect("a neighbor")
    }
}

/// Records `offers` for `id` at node 99 over neighbors 0..12 after a fixed
/// first exploratory copy from `first` (which fixes the first sender).
fn cache_with(id: MsgId, first: (u32, u32), offers: &[((u32, bool), u32, u64)]) -> ExplCache {
    let (me, neighbors) = node_and_neighbors(99, 12);
    let mut cache = ExplCache::new(me, neighbors.len());
    let it = item(id.source.0, id.round);
    let slot = |cache: &ExplCache, n| offer_slot(cache, &neighbors, me, n);
    cache.record_exploratory(id, it, slot(&cache, first.0), first.1, SimTime::ZERO);
    for &((n, incremental), cost, t) in offers {
        let now = SimTime::from_nanos(t);
        let k = slot(&cache, n);
        if incremental {
            cache.record_incremental(id, it, k, cost, now);
        } else {
            cache.record_exploratory(id, it, k, cost, now);
        }
    }
    cache
}

/// The upstream choice by brute force over the *effective* offers — per
/// (node, incremental?) the lowest cost with the arrival that first
/// reached it — under the paper's total order: cost, then exploratory
/// before incremental, then earliest arrival, then lowest node id.
fn brute_force_upstream(
    first: u32,
    effective: &BTreeMap<(u32, bool), (u32, u64)>,
    scheme: Scheme,
    excluded: &[NodeId],
) -> Option<(NodeId, UpstreamKind)> {
    let allowed = |n: u32| !excluded.contains(&NodeId(n));
    let kind = |incremental| {
        if incremental {
            UpstreamKind::Incremental
        } else {
            UpstreamKind::Exploratory
        }
    };
    match scheme {
        Scheme::Greedy => effective
            .iter()
            .filter(|(&(n, _), _)| allowed(n))
            .map(|(&(n, inc), &(cost, t))| (cost, u8::from(inc), t, n))
            .min()
            .map(|(_, inc, _, n)| (NodeId(n), kind(inc == 1))),
        Scheme::Opportunistic => {
            let heard_exploratory = effective.keys().any(|&(_, inc)| !inc);
            if !heard_exploratory {
                None
            } else if allowed(first) {
                Some((NodeId(first), UpstreamKind::Exploratory))
            } else {
                effective
                    .iter()
                    .filter(|(&(n, inc), _)| !inc && allowed(n))
                    .map(|(&(n, _), &(_, t))| (t, n))
                    .min()
                    .map(|(_, n)| (NodeId(n), UpstreamKind::Exploratory))
            }
        }
    }
}

/// The exploratory cache as it was before arrivals became ranks: per (node,
/// incremental?) the lowest cost with the exact arrival that first reached
/// it, and the sender of the first message. The reference for
/// `rank_rows_answer_like_exact_instants`.
#[derive(Default)]
struct ExactOffers {
    first: Option<u32>,
    effective: BTreeMap<(u32, bool), (u32, u64)>,
    /// The distinct instants of the exploratory offers kept so far.
    instants: BTreeSet<u64>,
    /// Whether an exploratory offer of 255 or more was kept.
    costly: bool,
}

impl ExactOffers {
    fn record(&mut self, n: u32, incremental: bool, cost: u32, t: u64) {
        self.first.get_or_insert(n);
        let best = self
            .effective
            .entry((n, incremental))
            .or_insert((u32::MAX, t));
        if cost < best.0 {
            *best = (cost, t);
            if !incremental {
                self.instants.insert(t);
                self.costly |= cost >= 255;
            }
        }
    }

    fn own_energy(&self) -> Option<u32> {
        let explored = self.effective.iter().filter(|(&(_, inc), _)| !inc);
        explored.map(|(_, &(cost, _))| cost).min()
    }

    /// Whether the cache's row must have left its 2-byte slots.
    fn wide(&self) -> bool {
        self.costly || self.instants.len() > 255
    }
}

/// A time-ordered offer script: the node count, then steps of (node, cost,
/// incremental?, ns since the previous step). One script in four runs on
/// 300 nodes, long and with few ties, so that a row ranks more than 255
/// instants; the others on 12 nodes with many ties. Half the scripts keep
/// costs below 255, the other half straddle it.
fn ranked_script() -> impl Strategy<Value = (u32, Vec<(u32, u32, bool, u64)>)> {
    (0u32..4, any::<bool>()).prop_flat_map(|(shape, costly)| {
        let (n, len, ties) = if shape == 0 {
            (300u32, 700..900, 1)
        } else {
            (12, 1..40, 3)
        };
        let top: u32 = if costly { 258 } else { 254 };
        let step = (0u64..8).prop_map(move |s| s.saturating_sub(ties - 1));
        let offer = (0..n, 248..=top, (0u8..8).prop_map(|k| k == 0), step);
        prop::collection::vec(offer, len).prop_map(move |steps| (n, steps))
    })
}

/// A dedup stream: (origin, step forward, lag behind the step). Steps are
/// mostly 0–2, so repeats are common, and now and then jump past the whole
/// window.
fn dedup_stream() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    let step = (0u32..60).prop_map(|s| if s < 57 { s % 3 } else { DEDUP_WINDOW + s });
    prop::collection::vec((0u32..4, step, 0u32..DEDUP_WINDOW), 1..200)
}

/// Applies gradient refreshes `(neighbor, data?, until ns)`. Both kinds only
/// ever extend validity, so any order yields the same live state.
fn apply_gradients(table: &mut GradientTable, neighbors: &[NodeId], ops: &[(u32, bool, u64)]) {
    for &(n, data, until) in ops {
        let until = SimTime::from_nanos(until);
        let slot = table.slot(neighbors, NodeId(n)).expect("a neighbor");
        if data {
            table.reinforce(slot, until);
        } else {
            table.refresh_exploratory(slot, until);
        }
    }
}

/// The gradient table as it was before data gradients went sparse: both
/// expiries of every neighbor slot in one dense 16-byte entry, `NONE` for
/// no gradient. The reference for `gradient_table_answers_like_the_dense_one`.
mod dense {
    use wsn_net::NodeId;
    use wsn_sim::SimTime;

    const NONE: SimTime = SimTime::MAX;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Entry {
        expl_until: SimTime,
        data_until: SimTime,
    }

    impl Entry {
        const EMPTY: Entry = Entry {
            expl_until: NONE,
            data_until: NONE,
        };

        fn expl_live(&self, now: SimTime) -> bool {
            self.expl_until != NONE && self.expl_until >= now
        }

        fn data_live(&self, now: SimTime) -> bool {
            self.data_until != NONE && self.data_until >= now
        }

        fn live(&self, now: SimTime) -> bool {
            self.expl_live(now) || self.data_live(now)
        }
    }

    fn extend(until: &mut SimTime, to: SimTime) {
        if *until == NONE || *until < to {
            *until = to;
        }
    }

    pub struct Gradients(Vec<Entry>);

    impl Gradients {
        pub fn new(degree: usize) -> Self {
            Gradients(vec![Entry::EMPTY; degree])
        }

        pub fn refresh_exploratory(&mut self, slot: usize, until: SimTime) {
            extend(&mut self.0[slot].expl_until, until);
        }

        pub fn reinforce(&mut self, slot: usize, until: SimTime) {
            extend(&mut self.0[slot].data_until, until);
        }

        pub fn degrade(&mut self, slot: usize) -> bool {
            std::mem::replace(&mut self.0[slot].data_until, NONE) != NONE
        }

        pub fn has_any(&self, slot: usize, now: SimTime) -> bool {
            self.0[slot].live(now)
        }

        pub fn has_exploratory(&self, slot: usize, now: SimTime) -> bool {
            self.0[slot].expl_live(now)
        }

        pub fn has_data(&self, slot: usize, now: SimTime) -> bool {
            self.0[slot].data_live(now)
        }

        pub fn data_neighbors(&self, neighbors: &[NodeId], now: SimTime) -> Vec<NodeId> {
            let live = self.0.iter().map(|e| e.data_live(now));
            neighbors
                .iter()
                .zip(live)
                .filter(|(_, l)| *l)
                .map(|(&n, _)| n)
                .collect()
        }

        pub fn all_neighbors(&self, neighbors: &[NodeId], now: SimTime) -> Vec<NodeId> {
            let live = self.0.iter().map(|e| e.live(now));
            neighbors
                .iter()
                .zip(live)
                .filter(|(_, l)| *l)
                .map(|(&n, _)| n)
                .collect()
        }

        pub fn any_live(&self, now: SimTime) -> bool {
            self.0.iter().any(|e| e.live(now))
        }

        pub fn on_tree(&self, now: SimTime) -> bool {
            self.0.iter().any(|e| e.data_live(now))
        }

        pub fn sweep(&mut self, now: SimTime) {
            for e in self.0.iter_mut() {
                if e.expl_until < now {
                    e.expl_until = NONE;
                }
                if e.data_until < now {
                    e.data_until = NONE;
                }
            }
        }

        pub fn clear(&mut self) {
            self.0.fill(Entry::EMPTY);
        }

        pub fn len(&self) -> usize {
            self.0.iter().filter(|e| **e != Entry::EMPTY).count()
        }
    }
}

/// A gradient-table script: (operation, neighbor slot, time in ns), where
/// a time of 63 stands for `SimTime::MAX`, the tables' own sentinel.
/// Operations 0–2 refresh an exploratory gradient, 3–5 reinforce, 6
/// degrades, 7 sweeps at the time and 8 clears the table.
fn gradient_script() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    prop::collection::vec((0u8..9, 0usize..5, 0u64..64), 1..60)
}

proptest! {
    /// The greedy upstream choice equals the brute-force minimum under the
    /// paper's tie rules (cost, then exploratory-over-incremental, then
    /// earliest arrival).
    #[test]
    fn greedy_choice_matches_brute_force(script in offers()) {
        let id = MsgId { source: NodeId(99), round: 0 };
        let (me, neighbors) = node_and_neighbors(50, 8);
        let mut cache = ExplCache::new(me, neighbors.len());
        // Brute force over *effective* offers: per (neighbor, kind) the best
        // cost with its earliest achieving time.
        let mut best: Option<(u32, u8, u64, u32)> = None; // cost, kind, time, neighbor
        let mut effective: std::collections::HashMap<(u32, bool), (u32, u64)> = Default::default();
        for (t, &(n, cost, incremental)) in script.iter().enumerate() {
            let now = SimTime::from_nanos((t as u64 + 1) * 1000);
            let slot = offer_slot(&cache, &neighbors, me, n);
            if incremental {
                cache.record_incremental(id, item(99, 0), slot, cost, now);
            } else {
                cache.record_exploratory(id, item(99, 0), slot, cost, now);
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
        let chosen = cache.choose_upstream(&neighbors, id, Scheme::Greedy).map(|(n, _)| n);
        prop_assert_eq!(chosen, expected);
    }

    /// The opportunistic choice is always the neighbor that delivered the
    /// first *exploratory* copy.
    #[test]
    fn opportunistic_choice_is_first_exploratory(script in offers()) {
        let id = MsgId { source: NodeId(99), round: 0 };
        let (me, neighbors) = node_and_neighbors(50, 8);
        let mut cache = ExplCache::new(me, neighbors.len());
        let mut first_expl: Option<u32> = None;
        for (t, &(n, cost, incremental)) in script.iter().enumerate() {
            let now = SimTime::from_nanos((t as u64 + 1) * 1000);
            let slot = offer_slot(&cache, &neighbors, me, n);
            if incremental {
                cache.record_incremental(id, item(99, 0), slot, cost, now);
            } else {
                cache.record_exploratory(id, item(99, 0), slot, cost, now);
                if first_expl.is_none() {
                    first_expl = Some(n);
                }
            }
        }
        let chosen = cache.choose_upstream(&neighbors, id, Scheme::Opportunistic).map(|(n, _)| n);
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
    /// (beyond the first copy) nor on the cache's storage layout: the same
    /// offers recorded in a shuffled order give identical answers. Offers
    /// are recorded in time order, the only order the engine produces, so
    /// the shuffle reorders only offers that arrive at one instant.
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
        let a = cache_with(id, first, &by_arrival(&script));
        let b = cache_with(id, first, &by_arrival(&shuffled(&script, seed)));
        let (_, nb) = node_and_neighbors(99, 12);
        let excluded: Vec<NodeId> = excluded.into_iter().map(NodeId).collect();
        let first_only = [NodeId(first.0)];
        for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
            prop_assert_eq!(a.choose_upstream(&nb, id, scheme), b.choose_upstream(&nb, id, scheme));
            for ex in [&excluded[..], &first_only[..]] {
                prop_assert_eq!(
                    a.choose_upstream_excluding(&nb, id, scheme, ex),
                    b.choose_upstream_excluding(&nb, id, scheme, ex)
                );
            }
        }
        prop_assert_eq!(a.own_energy(id), b.own_energy(id));
    }

    /// Both upstream choices equal the brute-force minimum over (cost,
    /// kind, arrival, node id) — with the node's own offer competing under
    /// its own id, wherever that id falls among its neighbors' — under no
    /// exclusions, random ones, and the node itself excluded. Offers are
    /// recorded in time order.
    #[test]
    fn upstream_choice_is_the_total_order_minimum(
        me in 0u32..12,
        script in keyed_offers(),
        excluded in prop::collection::vec(0u32..12, 0..4),
    ) {
        let script = by_arrival(&script);
        let id = MsgId { source: NodeId(99), round: 1 };
        let (node, neighbors) = node_and_neighbors(me, 12);
        let mut cache = ExplCache::new(node, neighbors.len());
        let mut effective: BTreeMap<(u32, bool), (u32, u64)> = BTreeMap::new();
        for &((n, incremental), cost, t) in &script {
            let now = SimTime::from_nanos(t);
            let slot = offer_slot(&cache, &neighbors, node, n);
            if incremental {
                cache.record_incremental(id, item(99, 1), slot, cost, now);
            } else {
                cache.record_exploratory(id, item(99, 1), slot, cost, now);
            }
            let e = effective.entry((n, incremental)).or_insert((cost, t));
            if cost < e.0 {
                *e = (cost, t);
            }
        }
        let first = script[0].0 .0;
        let excluded: Vec<NodeId> = excluded.into_iter().map(NodeId).collect();
        for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
            prop_assert_eq!(
                cache.choose_upstream(&neighbors, id, scheme),
                brute_force_upstream(first, &effective, scheme, &[])
            );
            for ex in [&excluded[..], &[node][..]] {
                prop_assert_eq!(
                    cache.choose_upstream_excluding(&neighbors, id, scheme, ex),
                    brute_force_upstream(first, &effective, scheme, ex)
                );
            }
        }
    }

    /// Gradient queries do not depend on the order refreshes arrive in nor
    /// on the table's layout: decoy neighbors widen one table and their
    /// gradients are swept away again, leaving the same live state in a
    /// larger table filled in a shuffled order.
    #[test]
    fn gradient_queries_ignore_table_order(
        ops in prop::collection::vec((0u32..16, any::<bool>(), 1u64..60), 1..32),
        decoys in 0u32..48,
        seed in any::<u64>(),
    ) {
        let neighbors: Vec<NodeId> = (0..16).map(NodeId).collect();
        let mut a = GradientTable::new(neighbors.len());
        apply_gradients(&mut a, &neighbors, &ops);
        let wide: Vec<NodeId> = (0..16).chain(1000..1000 + decoys).map(NodeId).collect();
        let mut b = GradientTable::new(wide.len());
        for d in 0..decoys {
            let slot = b.slot(&wide, NodeId(1000 + d)).expect("a decoy neighbor");
            b.refresh_exploratory(slot, SimTime::ZERO);
        }
        apply_gradients(&mut b, &wide, &shuffled(&ops, seed));
        b.sweep(SimTime::from_nanos(1)); // drops exactly the decoys
        for now in (1..=61).step_by(3).map(SimTime::from_nanos) {
            prop_assert_eq!(a.data_neighbors(&neighbors, now), b.data_neighbors(&wide, now));
            prop_assert_eq!(a.all_neighbors(&neighbors, now), b.all_neighbors(&wide, now));
            prop_assert_eq!(a.on_tree(now), b.on_tree(now));
            prop_assert_eq!(a.any_live(now), b.any_live(now));
            prop_assert_eq!(a.any_live(now), !a.all_neighbors(&neighbors, now).is_empty());
        }
    }

    /// The gradient table, with its data gradients in a sparse list, answers
    /// every query exactly as the dense table it replaced: `degrade`'s
    /// return value for an expired but unswept gradient and `len` before a
    /// sweep included.
    #[test]
    fn gradient_table_answers_like_the_dense_one(script in gradient_script()) {
        let neighbors = [NodeId(1), NodeId(2), NodeId(3), NodeId(5), NodeId(9)];
        let mut table = GradientTable::new(neighbors.len());
        let mut dense = dense::Gradients::new(neighbors.len());
        let time = |t: u64| if t == 63 { SimTime::MAX } else { SimTime::from_nanos(t) };
        for &(op, slot, t) in &script {
            let at = time(t);
            match op {
                0..=2 => {
                    table.refresh_exploratory(slot, at);
                    dense.refresh_exploratory(slot, at);
                }
                3..=5 => {
                    table.reinforce(slot, at);
                    dense.reinforce(slot, at);
                }
                6 => prop_assert_eq!(table.degrade(slot), dense.degrade(slot)),
                7 => {
                    table.sweep(at);
                    dense.sweep(at);
                }
                _ => {
                    table.clear();
                    dense.clear();
                }
            }
            prop_assert_eq!(table.len(), dense.len());
            prop_assert_eq!(table.is_empty(), dense.len() == 0);
            for now in (0..64).step_by(3).map(time) {
                for (k, &n) in neighbors.iter().enumerate() {
                    prop_assert_eq!(table.has_any(&neighbors, n, now), dense.has_any(k, now));
                    prop_assert_eq!(
                        table.has_exploratory(&neighbors, n, now),
                        dense.has_exploratory(k, now)
                    );
                    prop_assert_eq!(table.has_data(&neighbors, n, now), dense.has_data(k, now));
                }
                prop_assert_eq!(
                    table.data_neighbors(&neighbors, now),
                    dense.data_neighbors(&neighbors, now)
                );
                prop_assert_eq!(
                    table.all_neighbors(&neighbors, now),
                    dense.all_neighbors(&neighbors, now)
                );
                prop_assert_eq!(table.any_live(now), dense.any_live(now));
                prop_assert_eq!(table.on_tree(now), dense.on_tree(now));
            }
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
        let neighbors: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut table = GradientTable::new(neighbors.len());
        let mut model: std::collections::HashMap<u32, u64> = Default::default(); // data_until
        for (i, &(n, op, horizon)) in ops.iter().enumerate() {
            let now = i as u64;
            let until = now + horizon;
            let slot = table.slot(&neighbors, NodeId(n)).expect("a neighbor");
            match op {
                0 => {
                    table.reinforce(slot, SimTime::from_nanos(until));
                    let e = model.entry(n).or_insert(0);
                    *e = (*e).max(until);
                }
                1 => {
                    table.degrade(slot);
                    model.remove(&n);
                }
                _ => {
                    table.refresh_exploratory(slot, SimTime::from_nanos(until));
                }
            }
            let t = SimTime::from_nanos(now);
            for (&m, &du) in &model {
                prop_assert_eq!(table.has_data(&neighbors, NodeId(m), t), du >= now);
            }
            prop_assert_eq!(
                table.on_tree(t),
                model.values().any(|&du| du >= now)
            );
        }
    }

    /// A dedup window answers like an unbounded set while every arrival
    /// stays inside the window of its origin's highest number; an arrival
    /// behind it answers "seen" and counts as stale.
    #[test]
    fn dedup_windows_answer_like_a_set_inside_their_width(stream in dedup_stream()) {
        let mut windows = DedupWindows::default();
        let mut set: HashSet<(NodeId, u32)> = HashSet::new();
        // Each origin's highest number so far; numbers start at 1,000 so
        // a lag never underflows.
        let mut top: BTreeMap<u32, u32> = BTreeMap::new();
        for &(origin, step, lag) in &stream {
            // Up to `step` past the highest number so far, then back by a
            // lag that stays inside the window below that highest number.
            let seq = match top.get(&origin) {
                Some(&t) => t + step - lag.min(step + DEDUP_WINDOW - 1),
                None => 1_000,
            };
            let key = (NodeId(origin), seq);
            prop_assert_eq!(windows.insert(key), set.insert(key), "{:?}", key);
            let t = top.entry(origin).or_insert(seq);
            *t = (*t).max(seq);
        }
        prop_assert_eq!(windows.stale(), 0);
        prop_assert_eq!(windows.len(), top.len());
        // Behind the window: "seen", whether it was or not, and counted.
        for (k, (&origin, &t)) in top.iter().enumerate() {
            prop_assert!(!windows.insert((NodeId(origin), t - DEDUP_WINDOW)));
            prop_assert_eq!(windows.stale(), k as u64 + 1);
        }
    }

    /// Aggregate sizing: perfect is constant; linear is affine and matches
    /// the paper's coefficients.
    #[test]
    fn aggregation_fn_sizes(d in 1usize..50) {
        prop_assert_eq!(AggregationFn::Perfect.aggregate_bytes(d), 64);
        let lin = AggregationFn::Linear.aggregate_bytes(d);
        prop_assert_eq!(lin, 28 * d as u32 + 36);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A row that keeps each arrival as its rank among the row's distinct
    /// instants answers like one that keeps the instants: after every
    /// record of a time-ordered script, both upstream choices with no
    /// exclusions, random ones, the node itself excluded, and the exact
    /// answers' winners excluded, and `own_energy`, equal the reference's.
    /// The row converts to the wide form exactly when an offer of 255 or
    /// more or a 256th distinct instant is kept.
    #[test]
    fn rank_rows_answer_like_exact_instants(
        (n, script) in ranked_script(),
        me in any::<u64>(),
        picks in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let (me, neighbors) = node_and_neighbors((me % u64::from(n)) as u32, n);
        let mut cache = ExplCache::new(me, neighbors.len());
        let mut exact = ExactOffers::default();
        let id = MsgId { source: NodeId(n), round: 2 };
        let random: Vec<NodeId> = picks
            .iter()
            .map(|&p| NodeId(script[(p % script.len() as u64) as usize].0))
            .collect();
        let mut now = 1_000;
        for &(node, cost, incremental, step) in &script {
            now += step;
            let at = SimTime::from_nanos(now);
            let slot = offer_slot(&cache, &neighbors, me, node);
            if incremental {
                cache.record_incremental(id, item(n, 2), slot, cost, at);
            } else {
                cache.record_exploratory(id, item(n, 2), slot, cost, at);
            }
            exact.record(node, incremental, cost, now);
            let first = exact.first.expect("recorded");
            for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
                let expected = brute_force_upstream(first, &exact.effective, scheme, &[]);
                prop_assert_eq!(cache.choose_upstream(&neighbors, id, scheme), expected);
                let winners: Vec<NodeId> =
                    expected.map(|(w, _)| w).into_iter().chain([NodeId(first)]).collect();
                for ex in [&random[..], &[me][..], &winners[..]] {
                    prop_assert_eq!(
                        cache.choose_upstream_excluding(&neighbors, id, scheme, ex),
                        brute_force_upstream(first, &exact.effective, scheme, ex)
                    );
                }
            }
            prop_assert_eq!(cache.own_energy(id), exact.own_energy());
            prop_assert_eq!(cache.wide_rows(), u64::from(exact.wide()));
        }
    }
}
