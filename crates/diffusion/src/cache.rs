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
//! own event). The cache keeps no copy of the neighbor list: the upstream
//! choice takes the topology's list
//! ([`Ctx::neighbors`](wsn_net::Ctx::neighbors)) to map slots to
//! `NodeId`s. Each slot is 8 bytes, a cost and the arrival as a
//! nanosecond offset from the entry's creation instant, and recording one
//! is one indexed store. An entry that receives an offer before its
//! creation instant, or 2³² ns (4.29 s) or more after it, converts its row
//! once to 12-byte slots holding absolute arrivals, so every arrival the
//! upstream choice compares is exact. Incremental offers come only from
//! the few neighbors on the aggregation tree, so each entry keeps them
//! sparse: a short list of each offering slot's best one, allocated on the
//! entry's first incremental message together with the incremental-cost
//! dedup, which therefore expires with the entry. The upstream choice
//! compares `NodeId`s, never slots or list positions, so storage order
//! cannot reach it. See `DESIGN.md` §20 and §21.

use std::collections::hash_map::Entry;

use wsn_net::NodeId;
use wsn_sim::SimTime;

use crate::config::Scheme;
use crate::hash::FastMap;
use crate::msg::{EventItem, MsgId};

/// The "no such cost" sentinel: an exploratory slot no offer reached yet.
/// Real costs count transmissions and never reach it.
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

/// One slot's best exploratory offer in 8 bytes: its arrival is a
/// nanosecond offset from the row's base, the entry's creation instant. A
/// cost of [`NONE`] marks an offer not yet made (its offset is then
/// meaningless).
#[derive(Debug, Clone, Copy)]
struct NarrowOffer {
    /// Best exploratory cost from this slot.
    cost: u32,
    /// Arrival of that offer, nanoseconds after the base.
    after: u32,
}

/// One slot's best exploratory offer in its exact 12-byte form: packed to
/// 4-byte alignment, so it is only ever read and written by value. A cost
/// of [`NONE`] marks an offer not yet made (its arrival time is then
/// meaningless).
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct ExplOffer {
    /// Best exploratory cost from this slot.
    cost: u32,
    /// Arrival of that offer.
    at: SimTime,
}

/// An entry's exploratory offers, one per offer slot.
#[derive(Debug, Clone)]
enum OfferRow {
    /// Arrivals as offsets from `base`, the entry's creation instant: the
    /// row of every entry whose offers all arrive within 2³² ns after it.
    Narrow {
        base: SimTime,
        offers: Box<[NarrowOffer]>,
    },
    /// Absolute arrivals: the row of an entry that received an offer before
    /// its creation instant, or 2³² ns or more after it.
    Wide(Box<[ExplOffer]>),
}

impl OfferRow {
    /// `slots` offers not yet made, in a narrow row based at `base`.
    fn new(slots: usize, base: SimTime) -> Self {
        let empty = NarrowOffer {
            cost: NONE,
            after: 0,
        };
        OfferRow::Narrow {
            base,
            offers: vec![empty; slots].into_boxed_slice(),
        }
    }

    /// The number of offer slots.
    fn len(&self) -> usize {
        match self {
            OfferRow::Narrow { offers, .. } => offers.len(),
            OfferRow::Wide(offers) => offers.len(),
        }
    }

    /// The cost of slot `k`'s offer, [`NONE`] if none was made.
    fn cost(&self, k: usize) -> u32 {
        match self {
            OfferRow::Narrow { offers, .. } => offers[k].cost,
            OfferRow::Wide(offers) => offers[k].cost,
        }
    }

    /// The (cost, arrival) of slot `k`'s offer, if one was made.
    fn get(&self, k: usize) -> Option<(u32, SimTime)> {
        let (cost, at) = match self {
            OfferRow::Narrow { base, offers } => {
                let o = offers[k];
                (o.cost, widen(*base, o.after))
            }
            OfferRow::Wide(offers) => {
                let ExplOffer { cost, at } = offers[k];
                (cost, at)
            }
        };
        (cost != NONE).then_some((cost, at))
    }

    /// Every offer made, as (slot, cost, arrival), in slot order.
    fn offers(&self) -> impl Iterator<Item = (usize, u32, SimTime)> + '_ {
        (0..self.len()).filter_map(|k| self.get(k).map(|(c, t)| (k, c, t)))
    }

    /// Makes `(cost, at)` slot `k`'s offer. A narrow row that cannot hold
    /// `at` as an offset from its base first converts, once, to a wide one.
    fn set(&mut self, k: usize, cost: u32, at: SimTime) {
        if let OfferRow::Narrow { base, offers } = self {
            if let Some(after) = narrow(*base, at) {
                offers[k] = NarrowOffer { cost, after };
                return;
            }
            let base = *base;
            let wide = offers.iter().map(|o| ExplOffer {
                cost: o.cost,
                at: widen(base, o.after),
            });
            *self = OfferRow::Wide(wide.collect());
        }
        if let OfferRow::Wide(offers) = self {
            offers[k] = ExplOffer { cost, at };
        }
    }
}

/// `at` as a nanosecond offset from `base`, if it is in `[base, base +
/// 2³²)`.
fn narrow(base: SimTime, at: SimTime) -> Option<u32> {
    let after = at.as_nanos().checked_sub(base.as_nanos())?;
    u32::try_from(after).ok()
}

/// The instant `after` nanoseconds past `base`.
fn widen(base: SimTime, after: u32) -> SimTime {
    SimTime::from_nanos(base.as_nanos() + u64::from(after))
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
    /// One exploratory offer per neighbor slot, then the node's own.
    offers: OfferRow,
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
    /// A fresh entry created at `now` with `slots` empty exploratory offers
    /// for the first message heard about an event, from offer slot `from`;
    /// the caller records its offer.
    fn new(item: EventItem, from: usize, slots: usize, now: SimTime) -> Self {
        ExplEntry {
            item,
            first_from: from as u32,
            offers: OfferRow::new(slots, now),
            incremental: None,
            reinforce_sent: false,
            timer_armed: false,
        }
    }

    /// The minimum energy cost at which this node received the event: the
    /// `E` looked up when forwarding incremental cost messages. Each slot
    /// keeps the lowest cost it offered, so this is the lowest over the
    /// row; `None` when only incremental offers arrived.
    fn own_energy(&self) -> Option<u32> {
        self.offers.offers().map(|(_, c, _)| c).min()
    }
}

/// The per-node exploratory cache: one [`ExplEntry`] per exploratory id
/// heard, until [`expire_before`](Self::expire_before) drops it. An entry
/// holds an 8-byte exploratory offer per offer slot (degree + 1) and, once
/// incremental cost messages arrive, a short list of incremental offers
/// and the origins already forwarded.
///
/// Methods that take `neighbors` map offer slots to [`NodeId`]s through
/// it: the node's neighbor list in ascending id order, as
/// [`Ctx::neighbors`](wsn_net::Ctx::neighbors) gives it, one id per
/// neighbor slot.
///
/// # Examples
///
/// ```
/// use wsn_diffusion::{EventItem, ExplCache, MsgId, Scheme, UpstreamKind};
/// use wsn_net::NodeId;
/// use wsn_sim::SimTime;
///
/// // Node 5 with neighbors 2 and 7: offer slots 0 and 1, own slot 2.
/// let neighbors = [NodeId(2), NodeId(7)];
/// let mut cache = ExplCache::new(NodeId(5), neighbors.len());
/// let id = MsgId { source: NodeId(0), round: 0 };
/// let item = EventItem { source: NodeId(0), round: 0, generated: SimTime::ZERO };
/// assert!(cache.record_exploratory(id, item, 1, 4, SimTime::from_secs(1)));
/// assert!(!cache.record_exploratory(id, item, 0, 3, SimTime::from_secs(2)));
/// assert_eq!(
///     cache.choose_upstream(&neighbors, id, Scheme::Greedy),
///     Some((NodeId(2), UpstreamKind::Exploratory))
/// );
/// assert_eq!(
///     cache.choose_upstream(&neighbors, id, Scheme::Opportunistic),
///     Some((NodeId(7), UpstreamKind::Exploratory))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ExplCache {
    /// This node, the owner of the last offer slot.
    me: NodeId,
    /// The node's neighbor count: slots `0..degree` belong to its
    /// neighbors, slot `degree` to the node itself.
    degree: u32,
    entries: FastMap<MsgId, ExplEntry>,
}

impl ExplCache {
    /// An empty cache for node `me`, which has `degree` neighbors.
    pub fn new(me: NodeId, degree: usize) -> Self {
        ExplCache {
            me,
            degree: u32::try_from(degree).expect("degree fits u32"),
            entries: FastMap::default(),
        }
    }

    /// The offer slot of the node's own offer: one past the last neighbor.
    pub fn own_slot(&self) -> usize {
        self.degree as usize
    }

    /// The node an offer slot belongs to.
    fn node_at(&self, neighbors: &[NodeId], slot: usize) -> NodeId {
        neighbors.get(slot).copied().unwrap_or(self.me)
    }

    /// The entry for `id`, created at `now` for a first message from offer
    /// slot `from` if absent; `true` when it was created.
    fn entry_or_new(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: usize,
        now: SimTime,
    ) -> (&mut ExplEntry, bool) {
        let slots = self.own_slot() + 1;
        match self.entries.entry(id) {
            Entry::Occupied(o) => (o.into_mut(), false),
            Entry::Vacant(v) => (v.insert(ExplEntry::new(item, from, slots, now)), true),
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
        let (entry, first) = self.entry_or_new(id, item, from, now);
        if energy < entry.offers.cost(from) {
            entry.offers.set(from, energy, now);
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
        let (entry, _) = self.entry_or_new(id, item, from, now);
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
        self.entries.get(&id)?.own_energy()
    }

    /// The upstream neighbor to reinforce for `id` under `scheme`, with
    /// offer slots mapped to nodes through `neighbors`.
    ///
    /// Opportunistic: the neighbor that delivered the first copy of the
    /// exploratory event (`None` if we only heard incremental offers).
    ///
    /// Greedy: the offer with the lowest cost; cost ties prefer exploratory
    /// offers over incremental ones; remaining ties go to the earliest
    /// arrival, then the lowest node id (full determinism). The node's own
    /// offer competes like any other, under its own id.
    pub fn choose_upstream(
        &self,
        neighbors: &[NodeId],
        id: MsgId,
        scheme: Scheme,
    ) -> Option<(NodeId, UpstreamKind)> {
        self.choose_upstream_excluding(neighbors, id, scheme, &[])
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
        neighbors: &[NodeId],
        id: MsgId,
        scheme: Scheme,
        excluded: &[NodeId],
    ) -> Option<(NodeId, UpstreamKind)> {
        debug_assert_eq!(neighbors.len(), self.own_slot(), "not this node's list");
        let entry = self.entries.get(&id)?;
        let node_at = |slot: usize| self.node_at(neighbors, slot);
        // Every exploratory offer made, as (slot, cost, arrival).
        let mut explored = entry.offers.offers().peekable();
        match scheme {
            Scheme::Opportunistic => {
                let first = node_at(entry.first_from as usize);
                if explored.peek().is_none() {
                    None // never actually saw the exploratory event
                } else if !excluded.contains(&first) {
                    Some((first, UpstreamKind::Exploratory))
                } else {
                    explored
                        .map(|(k, _, t)| (t, node_at(k)))
                        .filter(|(_, n)| !excluded.contains(n))
                        .min()
                        .map(|(_, n)| (n, UpstreamKind::Exploratory))
                }
            }
            Scheme::Greedy => {
                // The minimum over (cost, kind, arrival, node id).
                let incremental = entry.incremental.iter().flat_map(|i| &i.offers).map(|o| {
                    let n = node_at(o.slot as usize);
                    (o.cost, UpstreamKind::Incremental, o.at, n)
                });
                explored
                    .map(|(k, c, t)| (c, UpstreamKind::Exploratory, t, node_at(k)))
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
        ExplCache::new(NodeId(50), NEIGHBORS.len())
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
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Opportunistic),
            Some((NodeId(4), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn greedy_choice_is_lowest_cost() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(4), 9, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), slot(2), 3, t(20));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
            Some((NodeId(2), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn greedy_prefers_incremental_when_cheaper() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(4), 9, t(10));
        c.record_incremental(id(0, 0), item(0, 0), slot(7), 2, t(30));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
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
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
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
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
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
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn incremental_cost_only_decreases_per_neighbor() {
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 4, t(10));
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 9, t(20));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Incremental))
        );
        // Cost 4 retained: a competitor at 5 loses.
        c.record_exploratory(id(0, 0), item(0, 0), slot(2), 5, t(30));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
            Some((NodeId(1), UpstreamKind::Incremental))
        );
    }

    #[test]
    fn choose_on_unknown_id_is_none() {
        let c = cache();
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(9, 9), Scheme::Greedy),
            None
        );
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(9, 9), Scheme::Opportunistic),
            None
        );
    }

    #[test]
    fn opportunistic_without_exploratory_is_none() {
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), slot(1), 4, t(10));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Opportunistic),
            None
        );
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
            c.choose_upstream(&NEIGHBORS, id(50, 0), Scheme::Greedy),
            Some((NodeId(50), UpstreamKind::Exploratory))
        );
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(50, 0), Scheme::Opportunistic),
            Some((NodeId(50), UpstreamKind::Exploratory))
        );
        assert_eq!(
            c.choose_upstream_excluding(&NEIGHBORS, id(50, 0), Scheme::Greedy, &[NodeId(50)]),
            Some((NodeId(2), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn cost_ties_fall_to_node_id_not_slot() {
        // Equal cost, kind and arrival: the lower node id wins. Node 5's
        // own offer sits in the last slot but competes under its id, below
        // neighbor 9's.
        let mut c = ExplCache::new(NodeId(5), NEIGHBORS.len());
        c.record_exploratory(id(0, 0), item(0, 0), slot(9), 4, t(10));
        c.record_exploratory(id(0, 0), item(0, 0), c.own_slot(), 4, t(10));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
            Some((NodeId(5), UpstreamKind::Exploratory))
        );
        c.record_exploratory(id(0, 0), item(0, 0), slot(3), 4, t(10));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
            Some((NodeId(3), UpstreamKind::Exploratory))
        );
    }

    #[test]
    fn narrow_offer_is_8_bytes() {
        assert_eq!(std::mem::size_of::<NarrowOffer>(), 8);
    }

    /// The wide row's slot.
    #[test]
    fn expl_offer_is_12_bytes() {
        assert_eq!(std::mem::size_of::<ExplOffer>(), 12);
    }

    /// With its 8-byte key, an entry fills one 64-byte bucket of the map.
    /// The row takes 24 bytes in either form, its base instant included,
    /// and the lowest cost the node saw is read off the row, not stored.
    #[test]
    fn expl_entry_is_56_bytes() {
        assert_eq!(std::mem::size_of::<ExplEntry>(), 56);
        assert_eq!(std::mem::size_of::<OfferRow>(), 24);
    }

    /// Offers recorded before an entry's creation instant, or 2³² ns or
    /// more after it, turn its row wide, and every upstream choice stays
    /// exact: it is the answer worked out by hand from the arrivals, and
    /// the choice over the same offers recorded in time order. Equal costs
    /// make the arrivals decide, 1 ns apart, so a clamped, wrapped or
    /// coarsened arrival changes an answer.
    #[test]
    fn offers_beyond_a_narrow_rows_reach_stay_exact() {
        const SPAN: i64 = 1 << 32;
        let created = t(10_000);
        // Offers as (neighbor, cost, arrival in ns after the entry's
        // creation instant), in recording order: the first creates the
        // entry. `early` records three offers before it; `late` records
        // narrow offers up to 2³² − 1 ns, then offers 2³² ns and more after.
        let early = [(1, 5, 0), (7, 5, -1), (9, 5, -2), (3, 6, -3)];
        let late = [
            (1, 7, 0),
            (2, 3, 5),
            (9, 3, SPAN),
            (4, 3, SPAN + 1),
            (3, 3, SPAN - 1),
        ];
        let record = |c: &mut ExplCache, round: u32, offers: &[(u32, u32, i64)]| {
            for &(n, cost, dt) in offers {
                let ns = created.as_nanos().checked_add_signed(dt).expect("in range");
                let now = SimTime::from_nanos(ns);
                c.record_exploratory(id(0, round), item(0, round), slot(n), cost, now);
            }
        };
        let in_time_order = |offers: &[(u32, u32, i64)]| {
            let mut sorted = offers.to_vec();
            sorted.sort_by_key(|&(_, _, dt)| dt);
            sorted
        };
        let (mut recorded, mut by_time) = (cache(), cache());
        record(&mut recorded, 0, &early);
        record(&mut recorded, 1, &late);
        record(&mut by_time, 0, &in_time_order(&early));
        record(&mut by_time, 1, &in_time_order(&late));
        let wide = |c: &ExplCache, round| {
            let entry = c.entry(id(0, round)).expect("recorded");
            matches!(entry.offers, OfferRow::Wide(_))
        };
        assert!(wide(&recorded, 0) && wide(&recorded, 1));
        assert!(!wide(&by_time, 0), "in time order, `early` stays narrow");

        // (round, scheme, excluded, expected choice).
        let (g, o) = (Scheme::Greedy, Scheme::Opportunistic);
        let cases: [(u32, Scheme, &[u32], u32); 16] = [
            (0, g, &[], 9),
            (0, g, &[9], 7),
            (0, g, &[9, 7], 1),
            (0, g, &[9, 7, 1], 3),
            (0, o, &[], 1),
            (0, o, &[1], 3),
            (0, o, &[1, 3], 9),
            (1, g, &[], 2),
            (1, g, &[2], 3),
            (1, g, &[2, 3], 9),
            (1, g, &[2, 3, 9], 4),
            (1, g, &[2, 3, 9, 4], 1),
            (1, o, &[], 1),
            (1, o, &[1], 2),
            (1, o, &[1, 2], 3),
            (1, o, &[1, 2, 3], 9),
        ];
        for (round, scheme, excluded, expected) in cases {
            let excluded: Vec<NodeId> = excluded.iter().map(|&n| NodeId(n)).collect();
            let choose = |c: &ExplCache| {
                c.choose_upstream_excluding(&NEIGHBORS, id(0, round), scheme, &excluded)
                    .map(|(n, _)| n)
            };
            let case = (round, scheme, &excluded);
            assert_eq!(choose(&recorded), Some(NodeId(expected)), "{case:?}");
            if excluded.is_empty() {
                assert_eq!(
                    recorded.choose_upstream(&NEIGHBORS, id(0, round), scheme),
                    recorded.choose_upstream_excluding(&NEIGHBORS, id(0, round), scheme, &[])
                );
            }
            // The opportunistic choice is the first copy's sender unless it
            // is excluded; the two orders record different first copies of
            // `early` (neighbors 1 and 3).
            let first_copies = [NodeId(1), NodeId(if round == 0 { 3 } else { 1 })];
            let order_free = first_copies.iter().all(|n| excluded.contains(n));
            if scheme == Scheme::Greedy || order_free || round == 1 {
                assert_eq!(choose(&by_time), choose(&recorded), "{case:?}");
            }
        }
        assert_eq!(
            by_time.choose_upstream(&NEIGHBORS, id(0, 0), o),
            Some((NodeId(3), UpstreamKind::Exploratory))
        );
        assert_eq!(recorded.own_energy(id(0, 0)), Some(5));
        assert_eq!(recorded.own_energy(id(0, 1)), Some(3));
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
            c.choose_upstream(&NEIGHBORS, id(0, 0), Scheme::Greedy),
            Some((NodeId(7), UpstreamKind::Incremental))
        );
        assert_eq!(
            c.choose_upstream_excluding(&NEIGHBORS, id(0, 0), Scheme::Greedy, &[NodeId(7)]),
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
