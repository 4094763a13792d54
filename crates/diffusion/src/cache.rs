//! The exploratory-event cache and the upstream-choice rule.
//!
//! Every node remembers, per exploratory message id, which neighbors offered
//! a path and at what cost:
//!
//! * an **exploratory offer** `E` — neighbor `n` delivered the exploratory
//!   event at energy cost `E` (transmissions from the source to *this* node
//!   via `n`);
//! * an **incremental offer** `C` — neighbor `n` delivered an incremental
//!   cost message advertising that the event's source can reach the existing
//!   aggregation tree at cost `C`.
//!
//! Positive reinforcement walks these offers backwards from the sink:
//! the *opportunistic* scheme reinforces the neighbor that delivered the
//! first copy (empirically lowest delay); the *greedy* scheme reinforces the
//! lowest-cost offer, preferring exploratory offers on cost ties and earlier
//! arrivals on remaining ties (paper §4.1).
//!
//! Exploratory offers are dense over the node's neighbor list: slot `k`
//! holds `neighbors[k]`'s best exploratory offer, the position a delivery
//! reports as [`Ctx::sender_index`](wsn_net::Ctx::sender_index), and one
//! extra last slot holds the node's own offer (a source's cost-0 copy of its
//! own event). Each slot is 12 bytes, a cost and an arrival time, and
//! recording one is one indexed store. Incremental offers come only from
//! the few neighbors on the aggregation tree, so each entry keeps them
//! sparse: a short list of each offering slot's best one, allocated on the
//! entry's first incremental message together with the incremental-cost
//! dedup, which therefore expires with the entry. The upstream choice
//! compares `NodeId`s, never slots or list positions, so storage order
//! cannot reach it.

use std::collections::hash_map::Entry;

use wsn_net::NodeId;
use wsn_sim::SimTime;

use crate::config::Scheme;
use crate::hash::FastMap;
use crate::msg::{EventItem, MsgId};

/// The "no such cost" sentinel: an exploratory slot no offer reached yet,
/// or an `own_energy` for an event this node never saw itself. Real costs
/// count transmissions and never reach it.
const NONE: u32 = u32::MAX;

/// Which kind of offer won the upstream choice. Ordered by the paper's
/// cost-tie rule: exploratory before incremental.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UpstreamKind {
    /// Reinforce along the exploratory event's reverse path (builds a new
    /// path segment toward the source).
    Exploratory,
    /// Reinforce along the existing tree (extends the tree at a junction).
    Incremental,
}

/// One slot's best exploratory offer in 12 bytes: packed to 4-byte
/// alignment, so it is only ever read and written by value. A cost of
/// [`NONE`] marks an offer not yet made (its arrival time is then
/// meaningless).
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct ExplOffer {
    /// Best exploratory cost from this slot.
    cost: u32,
    /// Arrival of that offer.
    at: SimTime,
}

impl ExplOffer {
    const EMPTY: ExplOffer = ExplOffer {
        cost: NONE,
        at: SimTime::ZERO,
    };

    /// The (cost, arrival) of the offer, if one was made.
    fn get(self) -> Option<(u32, SimTime)> {
        let ExplOffer { cost, at } = self;
        (cost != NONE).then_some((cost, at))
    }
}

/// One slot's best incremental offer.
#[derive(Debug, Clone, Copy)]
struct IncrOffer {
    /// The offering slot.
    slot: u32,
    /// Best incremental cost from this slot.
    cost: u32,
    /// Arrival of that offer.
    at: SimTime,
}

/// An entry's incremental-cost state, allocated on its first incremental
/// message.
#[derive(Debug, Clone, Default)]
struct Incremental {
    /// Each offering slot's best offer, one per slot.
    offers: Vec<IncrOffer>,
    /// Origins whose incremental cost message for this id was already
    /// forwarded.
    forwarded: Vec<NodeId>,
}

/// Cached state for one exploratory event.
#[derive(Debug, Clone)]
pub struct ExplEntry {
    /// The event item the exploratory message carried.
    pub item: EventItem,
    /// Offer slot of the sender of the first copy (the opportunistic
    /// choice).
    first_from: u32,
    /// Minimum energy cost at which this node received the event — the `E`
    /// looked up when forwarding incremental cost messages. `u32::MAX`
    /// when only incremental offers arrived.
    pub own_energy: u32,
    /// One exploratory offer per neighbor slot, then the node's own.
    offers: Box<[ExplOffer]>,
    /// Incremental offers and dedup, `None` until the first incremental
    /// message for this id.
    incremental: Option<Box<Incremental>>,
    /// Whether a reinforcement was already propagated for this id (one
    /// upstream reinforcement per id per node).
    pub reinforce_sent: bool,
    /// Whether the sink's `T_p` reinforcement timer has been armed.
    pub timer_armed: bool,
}

impl ExplEntry {
    /// A fresh entry with `slots` empty exploratory offers for the first
    /// message heard about an event, from offer slot `from`; the caller
    /// records its offer.
    fn new(item: EventItem, from: usize, slots: usize) -> Self {
        ExplEntry {
            item,
            first_from: from as u32,
            own_energy: NONE,
            offers: vec![ExplOffer::EMPTY; slots].into_boxed_slice(),
            incremental: None,
            reinforce_sent: false,
            timer_armed: false,
        }
    }
}

/// The per-node exploratory cache: one [`ExplEntry`] per exploratory id
/// heard, until [`expire_before`](Self::expire_before) drops it. An entry
/// holds a 12-byte exploratory offer per offer slot (degree + 1) and, once
/// incremental cost messages arrive, a short list of incremental offers
/// and the origins already forwarded.
///
/// # Examples
///
/// ```
/// use wsn_diffusion::{EventItem, ExplCache, MsgId, Scheme, UpstreamKind};
/// use wsn_net::NodeId;
/// use wsn_sim::SimTime;
///
/// // Node 5 with neighbors 2 and 7: offer slots 0 and 1, own slot 2.
/// let mut cache = ExplCache::new(NodeId(5), &[NodeId(2), NodeId(7)]);
/// let id = MsgId { source: NodeId(0), round: 0 };
/// let item = EventItem { source: NodeId(0), round: 0, generated: SimTime::ZERO };
/// assert!(cache.record_exploratory(id, item, 1, 4, SimTime::from_secs(1)));
/// assert!(!cache.record_exploratory(id, item, 0, 3, SimTime::from_secs(2)));
/// assert_eq!(
///     cache.choose_upstream(id, Scheme::Greedy),
///     Some((NodeId(2), UpstreamKind::Exploratory))
/// );
/// assert_eq!(
///     cache.choose_upstream(id, Scheme::Opportunistic),
///     Some((NodeId(7), UpstreamKind::Exploratory))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ExplCache {
    /// This node, the owner of the last offer slot.
    me: NodeId,
    /// The node's neighbors, ascending: offer slot `k` belongs to
    /// `neighbors[k]`.
    neighbors: Box<[NodeId]>,
    entries: FastMap<MsgId, ExplEntry>,
}

impl ExplCache {
    /// An empty cache for node `me` over its `neighbors`, in ascending id
    /// order (as [`Ctx::neighbors`](wsn_net::Ctx::neighbors) lists them).
    pub fn new(me: NodeId, neighbors: &[NodeId]) -> Self {
        debug_assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "neighbor list not ascending"
        );
        ExplCache {
            me,
            neighbors: neighbors.into(),
            entries: FastMap::default(),
        }
    }

    /// The offer slot of the node's own offer: one past the last neighbor.
    pub fn own_slot(&self) -> usize {
        self.neighbors.len()
    }

    /// The node an offer slot belongs to.
    fn node_at(&self, slot: usize) -> NodeId {
        self.neighbors.get(slot).copied().unwrap_or(self.me)
    }

    /// The entry for `id`, created for a first message from offer slot
    /// `from` if absent; `true` when it was created.
    fn entry_or_new(&mut self, id: MsgId, item: EventItem, from: usize) -> (&mut ExplEntry, bool) {
        let slots = self.neighbors.len() + 1;
        match self.entries.entry(id) {
            Entry::Occupied(o) => (o.into_mut(), false),
            Entry::Vacant(v) => (v.insert(ExplEntry::new(item, from, slots)), true),
        }
    }

    /// Records a received exploratory event from offer slot `from` (a
    /// neighbor's slot, or [`own_slot`](Self::own_slot) for the node's own
    /// event). Returns `true` when this is the first copy of `id` (the
    /// caller then re-floods it).
    ///
    /// # Panics
    ///
    /// Panics if `from` is past the own slot.
    pub fn record_exploratory(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: usize,
        energy: u32,
        now: SimTime,
    ) -> bool {
        let (entry, first) = self.entry_or_new(id, item, from);
        entry.own_energy = entry.own_energy.min(energy);
        let offer = &mut entry.offers[from];
        let best = offer.cost;
        if energy < best {
            *offer = ExplOffer {
                cost: energy,
                at: now,
            };
        }
        first
    }

    /// Records a received incremental cost offer from offer slot `from`.
    ///
    /// Unknown ids are accepted: a node can hear an incremental cost message
    /// for an exploratory event it never saw (it is on the tree but off the
    /// flood path — rare, but the reinforcement walk must still work there).
    ///
    /// # Panics
    ///
    /// Panics if `from` is past the own slot.
    pub fn record_incremental(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: usize,
        cost: u32,
        now: SimTime,
    ) {
        assert!(
            from <= self.own_slot(),
            "offer slot {from} past the own slot"
        );
        let (entry, _) = self.entry_or_new(id, item, from);
        let offers = &mut entry.incremental.get_or_insert_default().offers;
        let slot = from as u32;
        match offers.iter_mut().find(|o| o.slot == slot) {
            Some(o) if cost < o.cost => {
                o.cost = cost;
                o.at = now;
            }
            Some(_) => {}
            None => offers.push(IncrOffer {
                slot,
                cost,
                at: now,
            }),
        }
    }

    /// Dedup check for incremental cost messages: returns `true` the first
    /// time `(id, origin)` is seen (the caller then forwards it).
    ///
    /// The pairs seen are kept in `id`'s entry and expire with it, so an id
    /// with no entry (never recorded, or expired) answers `true` and
    /// remembers nothing. The protocol records an offer for `id` before it
    /// asks.
    pub fn first_incremental(&mut self, id: MsgId, origin: NodeId) -> bool {
        let Some(entry) = self.entries.get_mut(&id) else {
            return true;
        };
        let forwarded = &mut entry.incremental.get_or_insert_default().forwarded;
        if forwarded.contains(&origin) {
            return false;
        }
        forwarded.push(origin);
        true
    }

    /// The cached entry for `id`.
    pub fn entry(&self, id: MsgId) -> Option<&ExplEntry> {
        self.entries.get(&id)
    }

    /// Mutable access to the cached entry for `id`.
    pub fn entry_mut(&mut self, id: MsgId) -> Option<&mut ExplEntry> {
        self.entries.get_mut(&id)
    }

    /// This node's own energy cost `E` for `id`, if it saw the exploratory
    /// event itself (used when forwarding incremental cost messages:
    /// `C' = min(C, E)`).
    pub fn own_energy(&self, id: MsgId) -> Option<u32> {
        self.entries
            .get(&id)
            .map(|e| e.own_energy)
            .filter(|&e| e != NONE)
    }

    /// The upstream neighbor to reinforce for `id` under `scheme`.
    ///
    /// Opportunistic: the neighbor that delivered the first copy of the
    /// exploratory event (`None` if we only heard incremental offers).
    ///
    /// Greedy: the offer with the lowest cost; cost ties prefer exploratory
    /// offers over incremental ones; remaining ties go to the earliest
    /// arrival, then the lowest node id (full determinism). The node's own
    /// offer competes like any other, under its own id.
    pub fn choose_upstream(&self, id: MsgId, scheme: Scheme) -> Option<(NodeId, UpstreamKind)> {
        self.choose_upstream_excluding(id, scheme, &[])
    }

    /// Like [`choose_upstream`](Self::choose_upstream), but skips the
    /// `excluded` neighbors — used by local repair to route around next
    /// hops the MAC has reported dead.
    ///
    /// The opportunistic scheme has no cost table to fall back on; when its
    /// first sender is excluded it picks the earliest non-excluded
    /// exploratory offer instead.
    pub fn choose_upstream_excluding(
        &self,
        id: MsgId,
        scheme: Scheme,
        excluded: &[NodeId],
    ) -> Option<(NodeId, UpstreamKind)> {
        let entry = self.entries.get(&id)?;
        // Every exploratory offer made, as (slot, cost, arrival).
        let explored = entry
            .offers
            .iter()
            .enumerate()
            .filter_map(|(k, o)| o.get().map(|(c, t)| (k, c, t)));
        match scheme {
            Scheme::Opportunistic => {
                let first = self.node_at(entry.first_from as usize);
                if entry.own_energy == NONE {
                    None // never actually saw the exploratory event
                } else if !excluded.contains(&first) {
                    Some((first, UpstreamKind::Exploratory))
                } else {
                    explored
                        .map(|(k, _, t)| (t, self.node_at(k)))
                        .filter(|(_, n)| !excluded.contains(n))
                        .min()
                        .map(|(_, n)| (n, UpstreamKind::Exploratory))
                }
            }
            Scheme::Greedy => {
                // The minimum over (cost, kind, arrival, node id).
                let incremental = entry.incremental.iter().flat_map(|i| &i.offers).map(|o| {
                    let n = self.node_at(o.slot as usize);
                    (o.cost, UpstreamKind::Incremental, o.at, n)
                });
                explored
                    .map(|(k, c, t)| (c, UpstreamKind::Exploratory, t, self.node_at(k)))
                    .chain(incremental)
                    .filter(|(_, _, _, n)| !excluded.contains(n))
                    .min()
                    .map(|(_, kind, _, n)| (n, kind))
            }
        }
    }

    /// Number of cached exploratory entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The offers the cached entries hold: every entry's exploratory slots
    /// (degree + 1 each) plus its incremental offers.
    pub fn offer_slots(&self) -> usize {
        self.entries
            .values()
            .map(|e| e.offers.len() + e.incremental.as_ref().map_or(0, |i| i.offers.len()))
            .sum()
    }

    /// Drops entries for events generated before `horizon`, and with them
    /// their incremental-cost dedup (bounds memory on long runs; two
    /// exploratory intervals of history are plenty).
    pub fn expire_before(&mut self, horizon: SimTime) {
        self.entries.retain(|_, e| e.item.generated >= horizon);
    }

    /// Removes all state (node failure).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(src: u32, round: u32) -> MsgId {
        MsgId {
            source: NodeId(src),
            round,
        }
    }

    fn item(src: u32, round: u32) -> EventItem {
        EventItem {
            source: NodeId(src),
            round,
            generated: SimTime::ZERO,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// Node 50's neighbors; offer slot `k` belongs to `NEIGHBORS[k]`.
    const NEIGHBORS: [NodeId; 6] = [
        NodeId(1),
        NodeId(2),
        NodeId(3),
        NodeId(4),
        NodeId(7),
        NodeId(9),
    ];

    fn cache() -> ExplCache {
        ExplCache::new(NodeId(50), &NEIGHBORS)
    }

    fn slot(n: u32) -> usize {
        NEIGHBORS
            .iter()
            .position(|&m| m == NodeId(n))
            .expect("a neighbor")
    }

    #[test]
    fn first_copy_is_detected() {
        let mut c = cache();
        assert!(c.record_exploratory(id(0, 0), item(0, 0), slot(1), 3, t(10)));
        assert!(!c.record_exploratory(id(0, 0), item(0, 0), slot(2), 2, t(20)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn own_energy_is_minimum_over_copies() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(1), 5, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), slot(2), 3, t(20));
        c.record_exploratory(id(0, 0), item(0, 0), slot(3), 7, t(30));
        assert_eq!(c.own_energy(id(0, 0)), Some(3));
    }

    #[test]
    fn own_energy_absent_without_exploratory() {
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 4, t(10));
        assert_eq!(c.own_energy(id(0, 0)), None);
    }

    #[test]
    fn opportunistic_choice_is_first_sender() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(4), 9, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), slot(2), 1, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Opportunistic),
            Some((NodeId(4), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn greedy_choice_is_lowest_cost() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(4), 9, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), slot(2), 3, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(2), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn greedy_prefers_incremental_when_cheaper() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(4), 9, t(10));
        c.record_incremental(id(0, 0), item(0, 0), slot(7), 2, t(30));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(7), UpstreamKind::Incremental))
        );
    }

    #[test]
    fn cost_tie_prefers_exploratory() {
        // Paper: "If the energy cost of an exploratory event and the
        // incremental cost message are equivalent, the sink reinforces the
        // neighboring node that sent the exploratory event."
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), slot(7), 5, t(5));
        c.record_exploratory(id(0, 0), item(0, 0), slot(4), 5, t(10));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(4), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn remaining_tie_prefers_lowest_delay() {
        // "Other ties are decided in favor of the lowest delay."
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(9), 5, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), slot(3), 5, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(9), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn offer_keeps_best_cost_per_neighbor() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(1), 5, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), slot(1), 3, t(20));
        c.record_exploratory(id(0, 0), item(0, 0), slot(1), 8, t(30));
        c.record_exploratory(id(0, 0), item(0, 0), slot(2), 4, t(40));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn incremental_cost_only_decreases_per_neighbor() {
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 4, t(10));
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 9, t(20));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Incremental))
        );
        // Cost 4 retained: a competitor at 5 loses.
        c.record_exploratory(id(0, 0), item(0, 0), slot(2), 5, t(30));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Incremental))
        );
    }

    #[test]
    fn choose_on_unknown_id_is_none() {
        let c = cache();
        assert_eq!(c.choose_upstream(id(9, 9), Scheme::Greedy), None);
        assert_eq!(c.choose_upstream(id(9, 9), Scheme::Opportunistic), None);
    }

    #[test]
    fn opportunistic_without_exploratory_is_none() {
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 4, t(10));
        assert_eq!(c.choose_upstream(id(0, 0), Scheme::Opportunistic), None);
    }

    #[test]
    fn incremental_dedup_by_origin() {
        // The dedup lives in the id's entry, which an offer creates.
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 4, t(10));
        c.record_exploratory(id(0, 1), item(0, 1), slot(2), 3, t(20));
        assert!(c.first_incremental(id(0, 0), NodeId(5)));
        assert!(!c.first_incremental(id(0, 0), NodeId(5)));
        assert!(c.first_incremental(id(0, 0), NodeId(6)));
        assert!(c.first_incremental(id(0, 1), NodeId(5)));
        // Without an entry there is nothing to remember the pair in.
        assert!(c.first_incremental(id(9, 9), NodeId(5)));
        assert!(c.first_incremental(id(9, 9), NodeId(5)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn own_offer_sits_in_the_last_slot_under_the_nodes_id() {
        let mut c = cache();
        assert_eq!(c.own_slot(), NEIGHBORS.len());
        // A source's own event: cost 0 from itself beats every neighbor.
        c.record_exploratory(id(50, 0), item(50, 0), c.own_slot(), 0, t(0));
        c.record_exploratory(id(50, 0), item(50, 0), slot(2), 1, t(5));
        assert_eq!(c.own_energy(id(50, 0)), Some(0));
        assert_eq!(
            c.choose_upstream(id(50, 0), Scheme::Greedy),
            Some((NodeId(50), UpstreamKind::Exploratory))
        );
        assert_eq!(
            c.choose_upstream(id(50, 0), Scheme::Opportunistic),
            Some((NodeId(50), UpstreamKind::Exploratory))
        );
        assert_eq!(
            c.choose_upstream_excluding(id(50, 0), Scheme::Greedy, &[NodeId(50)]),
            Some((NodeId(2), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn cost_ties_fall_to_node_id_not_slot() {
        // Equal cost, kind and arrival: the lower node id wins. Node 5's
        // own offer sits in the last slot but competes under its id, below
        // neighbor 9's.
        let mut c = ExplCache::new(NodeId(5), &NEIGHBORS);
        c.record_exploratory(id(0, 0), item(0, 0), slot(9), 4, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), c.own_slot(), 4, t(10));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(5), UpstreamKind::Exploratory))
        );
        c.record_exploratory(id(0, 0), item(0, 0), slot(3), 4, t(10));
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(3), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn expl_offer_is_12_bytes() {
        assert_eq!(std::mem::size_of::<ExplOffer>(), 12);
    }

    #[test]
    fn incremental_offers_are_sparse_and_counted() {
        let mut c = cache();
        let slots = NEIGHBORS.len() + 1;
        c.record_exploratory(id(0, 0), item(0, 0), slot(1), 5, t(10));
        assert_eq!(c.offer_slots(), slots);
        c.record_incremental(id(0, 0), item(0, 0), slot(7), 6, t(20));
        c.record_incremental(id(0, 0), item(0, 0), slot(7), 2, t(30));
        c.record_incremental(id(0, 0), item(0, 0), slot(9), 3, t(40));
        // One incremental offer per offering slot, each slot's best.
        assert_eq!(c.offer_slots(), slots + 2);
        assert_eq!(
            c.choose_upstream(id(0, 0), Scheme::Greedy),
            Some((NodeId(7), UpstreamKind::Incremental))
        );
        assert_eq!(
            c.choose_upstream_excluding(id(0, 0), Scheme::Greedy, &[NodeId(7)]),
            Some((NodeId(9), UpstreamKind::Incremental))
        );
    }

    #[test]
    fn expire_drops_old_entries() {
        let mut c = cache();
        let old = EventItem {
            source: NodeId(0),
            round: 0,
            generated: t(0),
        };
        let new = EventItem {
            source: NodeId(0),
            round: 100,
            generated: t(100_000),
        };
        c.record_exploratory(id(0, 0), old, slot(1), 1, t(10));
        c.record_exploratory(id(0, 100), new, slot(1), 1, t(100_010));
        c.first_incremental(id(0, 0), NodeId(5));
        c.expire_before(t(50_000));
        assert_eq!(c.len(), 1);
        assert!(c.entry(id(0, 100)).is_some());
        // The dedup entry for the expired id is gone too.
        assert!(c.first_incremental(id(0, 0), NodeId(5)));
    }
}
