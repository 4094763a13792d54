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
//! `NodeId`s. Each slot is 2 bytes, an 8-bit cost and the arrival's *rank*:
//! its position among the distinct instants recorded in the row. Offers are
//! recorded in time order (the engine's clock guarantees it, and recording
//! panics on a reversal), so ranks order arrivals exactly as their instants
//! do, and equal ranks mean equal instants. Arrivals are only ever compared
//! inside one row, so every upstream choice is the one exact instants give.
//! A cost of 255 or more, or a 256th distinct instant, converts the row
//! once to 8-byte slots holding 32-bit costs and ranks, boxed in its entry.
//! Incremental offers
//! come only from the few neighbors on the aggregation tree, so each entry
//! keeps them sparse, with exact arrivals: a short list of each offering
//! slot's best one, allocated on the entry's first incremental message
//! together with the incremental-cost dedup, which therefore expires with
//! the entry.
//!
//! The entries are one exact-size list, their ids a second one beside it,
//! so a lookup scans a few contiguous 8-byte ids, newest first, and their
//! narrow rows a third, one row after another: no row is an allocation of
//! its own. The
//! node expires an entry two exploratory intervals after its event, so it
//! holds at most three rounds per source. The upstream choice
//! compares `NodeId`s, never slots or list positions, so storage order
//! cannot reach it. See `DESIGN.md` §17.2.

use wsn_net::NodeId;
use wsn_sim::SimTime;

use crate::config::Scheme;
use crate::exact::{self, HeapBytes};
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

/// The narrow row's "no such cost" sentinel. Costs from 0 to
/// `NARROW_NONE - 1` fit a narrow row; a larger one converts it.
const NARROW_NONE: u8 = u8::MAX;

/// One slot's best exploratory offer in 2 bytes. A cost of
/// [`NARROW_NONE`] marks an offer not yet made (its rank is then
/// meaningless).
#[derive(Debug, Clone, Copy)]
struct NarrowOffer {
    /// Best exploratory cost from this slot.
    cost: u8,
    /// The rank of that offer's arrival in its row.
    rank: u8,
}

/// One slot's best exploratory offer in its wide 8-byte form. A cost of
/// [`NONE`] marks an offer not yet made (its rank is then meaningless).
#[derive(Debug, Clone, Copy)]
struct WideOffer {
    /// Best exploratory cost from this slot.
    cost: u32,
    /// The rank of that offer's arrival in its row.
    rank: u32,
}

/// A narrow slot no offer reached yet.
const EMPTY: NarrowOffer = NarrowOffer {
    cost: NARROW_NONE,
    rank: 0,
};

/// An entry's exploratory offers, one per offer slot: its narrow row in
/// the cache's list, or the wide row it converted to. An offer's rank is
/// the number of distinct instants recorded in the row before its own.
#[derive(Debug, Clone, Copy)]
enum Row<'a> {
    Narrow(&'a [NarrowOffer]),
    Wide(&'a [WideOffer]),
}

impl<'a> Row<'a> {
    /// The (cost, arrival rank) of slot `k`'s offer, if one was made.
    fn get(self, k: usize) -> Option<(u32, u32)> {
        let WideOffer { cost, rank } = match self {
            Row::Narrow(offers) => widen(offers[k]),
            Row::Wide(offers) => offers[k],
        };
        (cost != NONE).then_some((cost, rank))
    }

    /// Every offer made, as (slot, cost, arrival rank), in slot order.
    fn offers(self) -> impl Iterator<Item = (usize, u32, u32)> + 'a {
        let len = match self {
            Row::Narrow(offers) => offers.len(),
            Row::Wide(offers) => offers.len(),
        };
        (0..len).filter_map(move |k| self.get(k).map(|(c, r)| (k, c, r)))
    }
}

/// `cost` as a narrow row's 8-bit cost, if it is below [`NARROW_NONE`].
fn narrow_cost(cost: u32) -> Option<u8> {
    u8::try_from(cost).ok().filter(|&c| c != NARROW_NONE)
}

/// `rank` as a narrow row's 8-bit rank, if it is below `u8::MAX`: costs
/// and ranks share the narrow range 0–254.
fn narrow_rank(rank: u32) -> Option<u8> {
    u8::try_from(rank).ok().filter(|&r| r != u8::MAX)
}

/// A narrow row's cost as a 32-bit one, [`NARROW_NONE`] as [`NONE`].
fn widen_cost(cost: u8) -> u32 {
    if cost == NARROW_NONE {
        NONE
    } else {
        u32::from(cost)
    }
}

/// A narrow offer in the wide form.
fn widen(o: NarrowOffer) -> WideOffer {
    WideOffer {
        cost: widen_cost(o.cost),
        rank: u32::from(o.rank),
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
/// message. Both lists are exact-size.
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
    /// When the event was generated, as the message that created the entry
    /// carried it: the instant expiry reads. An entry that an incremental
    /// message created holds that message's arrival instead.
    pub generated: SimTime,
    /// The instant of the latest exploratory offer recorded, or the
    /// entry's creation instant while it has none. No offer may be
    /// recorded before it.
    latest: SimTime,
    /// Offer slot of the sender of the first copy (the opportunistic
    /// choice).
    first_from: u32,
    /// The distinct instants of the exploratory offers recorded, 0 while
    /// there are none: the next later instant's rank.
    ranks: u32,
    /// The entry's exploratory offers in the wide form, `None` while they
    /// fit its narrow row in the cache's list.
    wide: Option<Box<[WideOffer]>>,
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
    /// A fresh entry created at `now`, without offers, for the first
    /// message heard about an event, from offer slot `from`; the caller
    /// records its offer.
    fn new(item: EventItem, from: usize, now: SimTime) -> Self {
        ExplEntry {
            generated: item.generated,
            latest: now,
            first_from: from as u32,
            ranks: 0,
            wide: None,
            incremental: None,
            reinforce_sent: false,
            timer_armed: false,
        }
    }

    /// Panics unless an offer may be recorded at `at`: no earlier than the
    /// latest exploratory offer, or the entry's creation.
    fn check_order(&self, at: SimTime) {
        assert!(
            at >= self.latest,
            "offer at {} ns recorded after one at {} ns",
            at.as_nanos(),
            self.latest.as_nanos()
        );
    }

    /// The rank of an exploratory offer kept at `at`, no earlier than the
    /// latest one: the latest one's rank at the same instant, the next rank
    /// at a later one. `at` becomes the latest.
    fn rank_at(&mut self, at: SimTime) -> u32 {
        let rank = if self.ranks > 0 && at == self.latest {
            self.ranks - 1
        } else {
            self.ranks
        };
        self.latest = at;
        self.ranks = rank + 1;
        rank
    }

    /// The heap bytes the entry's wide row and incremental state hold and
    /// need.
    fn heap_bytes(&self) -> HeapBytes {
        let wide = self.wide.as_ref().map_or(HeapBytes::default(), |w| {
            HeapBytes::exact(std::mem::size_of_val(&**w))
        });
        let incremental = self.incremental.as_ref().map_or(HeapBytes::default(), |i| {
            HeapBytes::exact(std::mem::size_of::<Incremental>())
                + HeapBytes::of(&i.offers)
                + HeapBytes::of(&i.forwarded)
        });
        wide + incremental
    }
}

/// The per-node exploratory cache: one [`ExplEntry`] per exploratory id
/// heard, until [`expire_before`](Self::expire_before) drops it. Each
/// entry has a 2-byte exploratory offer per offer slot (degree + 1) and,
/// once incremental cost messages arrive, a short list of incremental
/// offers and the origins already forwarded. The entries, their ids and
/// their rows of narrow offers are three exact-size lists.
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
    /// The cached ids, oldest first.
    ids: Vec<MsgId>,
    /// `entries[i]` is the entry of `ids[i]`.
    entries: Vec<ExplEntry>,
    /// The entries' narrow rows, one after another: `entries[i]`'s is the
    /// `i`-th run of degree + 1 offers. A buffer of its own per row, tens
    /// of bytes each, fragmented the heap over long runs (`DESIGN.md`
    /// §17.1).
    narrow: Vec<NarrowOffer>,
    /// Offer rows converted to the wide form, kept across
    /// [`clear`](Self::clear).
    wide_rows: u64,
}

impl ExplCache {
    /// An empty cache for node `me`, which has `degree` neighbors.
    pub fn new(me: NodeId, degree: usize) -> Self {
        ExplCache {
            me,
            degree: u32::try_from(degree).expect("degree fits u32"),
            ids: Vec::new(),
            entries: Vec::new(),
            narrow: Vec::new(),
            wide_rows: 0,
        }
    }

    /// The position of `id`'s entry, scanning from the newest.
    fn find(&self, id: MsgId) -> Option<usize> {
        self.ids.iter().rposition(|&i| i == id)
    }

    /// The offer slot of the node's own offer: one past the last neighbor.
    pub fn own_slot(&self) -> usize {
        self.degree as usize
    }

    /// The number of offer slots: one per neighbor, then the node's own.
    fn slots(&self) -> usize {
        self.own_slot() + 1
    }

    /// Entry `i`'s exploratory offers.
    fn row(&self, i: usize) -> Row<'_> {
        match &self.entries[i].wide {
            Some(wide) => Row::Wide(wide),
            None => Row::Narrow(&self.narrow[i * self.slots()..][..self.slots()]),
        }
    }

    /// The node an offer slot belongs to.
    fn node_at(&self, neighbors: &[NodeId], slot: usize) -> NodeId {
        neighbors.get(slot).copied().unwrap_or(self.me)
    }

    /// The position of `id`'s entry, created at `now` for a first message
    /// from offer slot `from` if absent; `true` when it was created.
    fn find_or_new(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: usize,
        now: SimTime,
    ) -> (usize, bool) {
        if let Some(i) = self.find(id) {
            return (i, false);
        }
        exact::push(&mut self.ids, id);
        exact::push(&mut self.entries, ExplEntry::new(item, from, now));
        let slots = self.slots();
        exact::extend(&mut self.narrow, slots, EMPTY);
        (self.entries.len() - 1, true)
    }

    /// Makes `(cost, at)` slot `k`'s offer in entry `i`'s row, `at` no
    /// earlier than the row's latest offer. A narrow row that cannot hold
    /// `cost` or the offer's rank in 8 bits first converts, once, to a wide
    /// one; returns `true` when it did.
    fn set(&mut self, i: usize, k: usize, cost: u32, at: SimTime) -> bool {
        let slots = self.slots();
        let entry = &mut self.entries[i];
        let rank = entry.rank_at(at);
        if let Some(wide) = &mut entry.wide {
            wide[k] = WideOffer { cost, rank };
            return false;
        }
        let narrow = &mut self.narrow[i * slots..][..slots];
        if let (Some(cost), Some(rank)) = (narrow_cost(cost), narrow_rank(rank)) {
            narrow[k] = NarrowOffer { cost, rank };
            return false;
        }
        let mut wide: Box<[WideOffer]> = narrow.iter().map(|&o| widen(o)).collect();
        wide[k] = WideOffer { cost, rank };
        entry.wide = Some(wide);
        true
    }

    /// Panics unless `from` is an offer slot.
    fn check_slot(&self, from: usize) {
        assert!(
            from <= self.own_slot(),
            "offer slot {from} past the own slot"
        );
    }

    /// Records a received exploratory event from offer slot `from` (a
    /// neighbor's slot, or [`own_slot`](Self::own_slot) for the node's own
    /// event). Returns `true` when this is the first copy of `id` (the
    /// caller then re-floods it).
    ///
    /// Offers for one id must be recorded in time order: `now` may not be
    /// earlier than the latest exploratory offer recorded for `id`, nor
    /// than the message that created its entry. The cache keeps each
    /// arrival as its rank among the distinct instants recorded for `id`,
    /// which orders arrivals exactly only under that contract. Passing the
    /// engine's clock (`Ctx::now`) keeps it.
    ///
    /// # Panics
    ///
    /// Panics, before changing anything, if `from` is past the own slot or
    /// if `now` breaks the time order.
    pub fn record_exploratory(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: usize,
        energy: u32,
        now: SimTime,
    ) -> bool {
        self.check_slot(from);
        let (i, first) = self.find_or_new(id, item, from, now);
        self.entries[i].check_order(now);
        let cost = self.row(i).get(from).map_or(NONE, |(cost, _)| cost);
        if energy < cost && self.set(i, from, energy, now) {
            self.wide_rows += 1;
        }
        first
    }

    /// Records a received incremental cost offer from offer slot `from`.
    /// Incremental offers keep their exact arrivals.
    ///
    /// Unknown ids are accepted: a node can hear an incremental cost message
    /// for an exploratory event it never saw (it is on the tree but off the
    /// flood path — rare, but the reinforcement walk must still work there).
    ///
    /// The time-order contract of
    /// [`record_exploratory`](Self::record_exploratory) holds here too: `now`
    /// may not be earlier than the latest exploratory offer recorded for
    /// `id`, nor than the message that created its entry.
    ///
    /// # Panics
    ///
    /// Panics, before changing anything, if `from` is past the own slot or
    /// if `now` breaks the time order.
    pub fn record_incremental(
        &mut self,
        id: MsgId,
        item: EventItem,
        from: usize,
        cost: u32,
        now: SimTime,
    ) {
        self.check_slot(from);
        let (i, _) = self.find_or_new(id, item, from, now);
        let entry = &mut self.entries[i];
        entry.check_order(now);
        let offers = &mut entry.incremental.get_or_insert_default().offers;
        let slot = from as u32;
        match offers.iter_mut().find(|o| o.slot == slot) {
            Some(o) if cost < o.cost => {
                o.cost = cost;
                o.at = now;
            }
            Some(_) => {}
            None => exact::push(
                offers,
                IncrOffer {
                    slot,
                    cost,
                    at: now,
                },
            ),
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
        let Some(entry) = self.entry_mut(id) else {
            return true;
        };
        let forwarded = &mut entry.incremental.get_or_insert_default().forwarded;
        if forwarded.contains(&origin) {
            return false;
        }
        exact::push(forwarded, origin);
        true
    }

    /// The cached entry for `id`.
    pub fn entry(&self, id: MsgId) -> Option<&ExplEntry> {
        self.find(id).map(|i| &self.entries[i])
    }

    /// Mutable access to the cached entry for `id`.
    pub fn entry_mut(&mut self, id: MsgId) -> Option<&mut ExplEntry> {
        self.find(id).map(|i| &mut self.entries[i])
    }

    /// This node's own energy cost `E` for `id`, if it saw the exploratory
    /// event itself (used when forwarding incremental cost messages:
    /// `C' = min(C, E)`).
    ///
    /// Each slot keeps the lowest cost it offered, so this is the lowest
    /// over the row; `None` when only incremental offers arrived.
    pub fn own_energy(&self, id: MsgId) -> Option<u32> {
        let i = self.find(id)?;
        self.row(i).offers().map(|(_, cost, _)| cost).min()
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
    /// offer competes like any other, under its own id. Arrivals are
    /// compared only between offers of one kind: exploratory ones by rank,
    /// incremental ones by instant.
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
        let i = self.find(id)?;
        let entry = &self.entries[i];
        let node_at = |slot: usize| self.node_at(neighbors, slot);
        // Every exploratory offer made, as (slot, cost, arrival rank).
        let mut explored = self.row(i).offers().peekable();
        match scheme {
            Scheme::Opportunistic => {
                let first = node_at(entry.first_from as usize);
                if explored.peek().is_none() {
                    None // never actually saw the exploratory event
                } else if !excluded.contains(&first) {
                    Some((first, UpstreamKind::Exploratory))
                } else {
                    explored
                        .map(|(k, _, rank)| (rank, node_at(k)))
                        .filter(|(_, n)| !excluded.contains(n))
                        .min()
                        .map(|(_, n)| (n, UpstreamKind::Exploratory))
                }
            }
            Scheme::Greedy => {
                // The minimum over (cost, kind, arrival, node id). An
                // exploratory arrival is its rank and an incremental one
                // its instant in nanoseconds; the kind differs first, so
                // the two are never compared.
                let incremental = entry.incremental.iter().flat_map(|i| &i.offers).map(|o| {
                    let n = node_at(o.slot as usize);
                    (o.cost, UpstreamKind::Incremental, o.at.as_nanos(), n)
                });
                explored
                    .map(|(k, c, rank)| (c, UpstreamKind::Exploratory, u64::from(rank), node_at(k)))
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
        let incremental: usize = self
            .entries
            .iter()
            .map(|e| e.incremental.as_ref().map_or(0, |i| i.offers.len()))
            .sum();
        self.entries.len() * self.slots() + incremental
    }

    /// Drops entries for events generated before `horizon`, and with them
    /// their incremental-cost dedup (bounds memory on long runs; two
    /// exploratory intervals of history are plenty).
    pub fn expire_before(&mut self, horizon: SimTime) {
        let live = |e: &ExplEntry| e.generated >= horizon;
        // Every truncation tick asks, and an entry expires only once per
        // round: leave the rows unvisited unless one does.
        if self.entries.iter().all(live) {
            return;
        }
        // Every list is visited in order, once each, so `ids` keeps
        // exactly the ids of the entries kept, and `narrow` their rows.
        let mut kept = self.entries.iter().map(live);
        exact::retain(&mut self.ids, |_| kept.next() == Some(true));
        let (slots, mut kept) = (self.slots(), self.entries.iter().map(live));
        let (mut offer, mut keep) = (0, false);
        exact::retain(&mut self.narrow, |_| {
            if offer % slots == 0 {
                keep = kept.next() == Some(true);
            }
            offer += 1;
            keep
        });
        exact::retain(&mut self.entries, live);
    }

    /// Offer rows converted to the wide form since the cache was created:
    /// rows that received a cost of 255 or more, or offers at more than 255
    /// distinct instants. Kept across [`clear`](Self::clear).
    pub fn wide_rows(&self) -> u64 {
        self.wide_rows
    }

    /// Removes all state (node failure); the count of wide rows stays.
    pub fn clear(&mut self) {
        exact::clear(&mut self.ids);
        exact::clear(&mut self.entries);
        exact::clear(&mut self.narrow);
    }

    /// The heap bytes the cache holds and needs: the three lists, and each
    /// entry's wide row and incremental state.
    pub(crate) fn heap_bytes(&self) -> HeapBytes {
        let own: HeapBytes = self.entries.iter().map(ExplEntry::heap_bytes).sum();
        HeapBytes::of(&self.ids) + HeapBytes::of(&self.entries) + HeapBytes::of(&self.narrow) + own
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
    fn narrow_offer_is_2_bytes() {
        assert_eq!(std::mem::size_of::<NarrowOffer>(), 2);
    }

    /// The wide row's slot.
    #[test]
    fn wide_offer_is_8_bytes() {
        assert_eq!(std::mem::size_of::<WideOffer>(), 8);
    }

    /// The entry keeps its row's latest instant and count of instants; the
    /// narrow row itself sits in the cache's list, and the lowest cost the
    /// node saw is read off the row, not stored. The entry's 8-byte id
    /// sits in the list beside it.
    #[test]
    fn expl_entry_is_56_bytes() {
        assert_eq!(std::mem::size_of::<ExplEntry>(), 56);
    }

    fn is_wide(c: &ExplCache, id: MsgId) -> bool {
        c.entry(id).expect("recorded").wide.is_some()
    }

    /// Offers at a cost of 255 or more, or at a 256th distinct instant,
    /// turn a row wide, and every upstream choice stays exact: it is the
    /// answer worked out by hand from the arrivals. Offers 2³² ns apart stay
    /// narrow, since only their order is kept. Equal costs make the
    /// arrivals decide, 1 ns apart, so a rank that advances on an equal
    /// instant, stands still on a later one, or wraps changes an answer.
    #[test]
    fn offers_beyond_a_narrow_rows_reach_stay_exact() {
        const SPAN: u64 = 1 << 32;
        let created = t(10_000);
        // Offers as (neighbor, cost, arrival in ns after the entry's
        // creation instant), in time order: the first creates the entry.
        // `apart` spreads equal costs over more than 2³² ns.
        let apart = [
            (1, 7, 0),
            (2, 3, 5),
            (3, 3, SPAN - 1),
            (9, 3, SPAN),
            (4, 3, SPAN + 1),
        ];
        // `narrowest` records the largest cost a narrow row holds; `costly`
        // records the two smallest it cannot hold, each tied with another
        // offer, and a cheaper offer last.
        let narrowest = [(3, 254, 0), (7, 254, 1), (9, 254, 2)];
        let costly = [
            (4, 255, 0),
            (2, 255, 1),
            (9, 256, 2),
            (1, 256, 3),
            (3, 254, 4),
        ];
        let record = |c: &mut ExplCache, round: u32, offers: &[(u32, u32, u64)]| {
            for &(n, cost, dt) in offers {
                let now = SimTime::from_nanos(created.as_nanos() + dt);
                c.record_exploratory(id(0, round), item(0, round), slot(n), cost, now);
            }
        };
        let mut c = cache();
        for (round, offers) in (0..).zip([&apart[..], &narrowest, &costly]) {
            record(&mut c, round, offers);
        }
        assert!(!is_wide(&c, id(0, 0)), "2³² ns apart stays narrow");
        assert!(!is_wide(&c, id(0, 1)), "254 fits");
        assert!(is_wide(&c, id(0, 2)), "255 does not");
        assert_eq!(c.wide_rows(), 1);
        let mut only_256 = cache();
        record(&mut only_256, 0, &[(1, 256, 0)]);
        assert!(is_wide(&only_256, id(0, 0)), "256 does not");
        assert_eq!(only_256.own_energy(id(0, 0)), Some(256));

        // (round, scheme, excluded, expected choice).
        let (g, o) = (Scheme::Greedy, Scheme::Opportunistic);
        let cases: [(u32, Scheme, &[u32], u32); 23] = [
            (0, g, &[], 2),
            (0, g, &[2], 3),
            (0, g, &[2, 3], 9),
            (0, g, &[2, 3, 9], 4),
            (0, g, &[2, 3, 9, 4], 1),
            (0, o, &[], 1),
            (0, o, &[1], 2),
            (0, o, &[1, 2], 3),
            (0, o, &[1, 2, 3], 9),
            (1, g, &[], 3),
            (1, g, &[3], 7),
            (1, g, &[3, 7], 9),
            (1, o, &[], 3),
            (1, o, &[3], 7),
            (1, o, &[3, 7], 9),
            (2, g, &[], 3),
            (2, g, &[3], 4),
            (2, g, &[3, 4], 2),
            (2, g, &[3, 4, 2], 9),
            (2, g, &[3, 4, 2, 9], 1),
            (2, o, &[], 4),
            (2, o, &[4], 2),
            (2, o, &[4, 2], 9),
        ];
        for (round, scheme, excluded, expected) in cases {
            let excluded: Vec<NodeId> = excluded.iter().map(|&n| NodeId(n)).collect();
            let chosen = c
                .choose_upstream_excluding(&NEIGHBORS, id(0, round), scheme, &excluded)
                .map(|(n, _)| n);
            assert_eq!(
                chosen,
                Some(NodeId(expected)),
                "{:?}",
                (round, scheme, &excluded)
            );
            if excluded.is_empty() {
                assert_eq!(
                    c.choose_upstream(&NEIGHBORS, id(0, round), scheme),
                    c.choose_upstream_excluding(&NEIGHBORS, id(0, round), scheme, &[])
                );
            }
        }
        assert_eq!(c.own_energy(id(0, 0)), Some(3));
        assert_eq!(c.own_energy(id(0, 1)), Some(254));
        assert_eq!(c.own_energy(id(0, 2)), Some(254));
    }

    /// A row ranks 255 distinct instants narrow, ties taking the latest
    /// rank, and converts at the 256th with every rank kept.
    #[test]
    fn a_256th_distinct_instant_converts_the_row() {
        // Node 1,000 with neighbors 0..300, all offering cost 7: ranks
        // alone decide, then node ids.
        let neighbors: Vec<NodeId> = (0..300).map(NodeId).collect();
        let mut c = ExplCache::new(NodeId(1_000), neighbors.len());
        let key = id(0, 0);
        let at = |ns: u64| SimTime::from_nanos(1_000 + ns);
        // Neighbors 0..=254 at 255 distinct instants, then 255 tied with
        // the latest.
        for n in 0..=254u32 {
            c.record_exploratory(key, item(0, 0), n as usize, 7, at(u64::from(n)));
        }
        c.record_exploratory(key, item(0, 0), 255, 7, at(254));
        assert!(!is_wide(&c, key), "255 distinct instants fit");
        let below = |n: u32| -> Vec<NodeId> { (0..n).map(NodeId).collect() };
        let choose = |c: &ExplCache, excluded: &[NodeId], scheme| {
            c.choose_upstream_excluding(&neighbors, key, scheme, excluded)
                .map(|(n, _)| n.0)
        };
        assert_eq!(choose(&c, &below(254), Scheme::Greedy), Some(254));
        assert_eq!(choose(&c, &below(255), Scheme::Greedy), Some(255));
        // The 256th distinct instant, an offer tied with it, and a cheaper
        // one much later.
        c.record_exploratory(key, item(0, 0), 256, 7, at(255));
        assert!(is_wide(&c, key), "the 256th converts");
        c.record_exploratory(key, item(0, 0), 257, 7, at(255));
        c.record_exploratory(key, item(0, 0), 258, 6, at(1 << 40));
        assert_eq!(c.wide_rows(), 1);
        assert_eq!(choose(&c, &[], Scheme::Greedy), Some(258));
        for expected in [0, 1, 2, 253, 254, 255, 256, 257] {
            let mut excluded = below(expected);
            assert_eq!(choose(&c, &excluded, Scheme::Opportunistic), Some(expected));
            excluded.push(NodeId(258));
            assert_eq!(choose(&c, &excluded, Scheme::Greedy), Some(expected));
        }
        assert_eq!(choose(&c, &below(258), Scheme::Opportunistic), Some(258));
        assert_eq!(c.own_energy(key), Some(6));
    }

    #[test]
    #[should_panic(expected = "recorded after one at")]
    fn an_offer_before_the_rows_latest_panics() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(1), 5, t(10));
        let early = SimTime::from_nanos(t(10).as_nanos() - 1);
        c.record_exploratory(id(0, 0), item(0, 0), slot(7), 5, early);
    }

    #[test]
    #[should_panic(expected = "recorded after one at")]
    fn an_incremental_offer_before_the_rows_latest_panics() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), slot(1), 5, t(10));
        c.record_incremental(id(0, 0), item(0, 0), slot(7), 5, t(9));
    }

    #[test]
    #[should_panic(expected = "offer slot 7 past the own slot")]
    fn an_exploratory_offer_past_the_own_slot_panics() {
        let mut c = cache();
        c.record_exploratory(id(0, 0), item(0, 0), NEIGHBORS.len() + 1, 5, t(10));
    }

    #[test]
    #[should_panic(expected = "offer slot 7 past the own slot")]
    fn an_incremental_offer_past_the_own_slot_panics() {
        let mut c = cache();
        c.record_incremental(id(0, 0), item(0, 0), NEIGHBORS.len() + 1, 5, t(10));
    }

    /// A rejected offer changes nothing: no entry is created for it.
    #[test]
    fn a_rejected_offer_leaves_the_cache_as_it_was() {
        let mut c = cache();
        let past = NEIGHBORS.len() + 1;
        let tries: [&dyn Fn(&mut ExplCache); 2] = [
            &|c| {
                c.record_exploratory(id(0, 0), item(0, 0), past, 5, t(10));
            },
            &|c| c.record_incremental(id(0, 0), item(0, 0), past, 5, t(10)),
        ];
        for attempt in tries {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt(&mut c)));
            assert!(outcome.is_err());
            assert!(c.is_empty());
        }
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

    #[test]
    fn the_lists_stay_at_exact_size() {
        let mut c = cache();
        let slots = NEIGHBORS.len() + 1;
        let at = |ms| EventItem {
            generated: t(ms),
            ..item(0, 0)
        };
        // Round `r`'s offer comes from the neighbor in slot `r`.
        for round in 0..4 {
            let ms = u64::from(round) * 1_000;
            c.record_exploratory(id(0, round), at(ms), round as usize, 2, t(ms));
        }
        c.record_incremental(id(0, 3), at(3_000), slot(7), 1, t(3_100));
        c.first_incremental(id(0, 3), NodeId(8));
        let row = slots * 2;
        let incremental = std::mem::size_of::<Incremental>() + 16 + 4;
        let entry = 8 + std::mem::size_of::<ExplEntry>();
        assert_eq!(
            c.heap_bytes(),
            HeapBytes::exact(4 * (entry + row) + incremental)
        );
        // Expiry keeps the newer entries, each under its own id and with
        // its own row.
        c.expire_before(t(2_000));
        assert_eq!(
            c.heap_bytes(),
            HeapBytes::exact(2 * (entry + row) + incremental)
        );
        assert!(c.entry(id(0, 1)).is_none());
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 3), Scheme::Greedy),
            Some((NodeId(7), UpstreamKind::Incremental))
        );
        assert_eq!(c.entry(id(0, 2)).map(|e| e.generated), Some(t(2_000)));
        assert_eq!(
            c.choose_upstream(&NEIGHBORS, id(0, 2), Scheme::Greedy),
            Some((NEIGHBORS[2], UpstreamKind::Exploratory))
        );
        c.clear();
        assert_eq!(c.heap_bytes(), HeapBytes::default());
    }
}
