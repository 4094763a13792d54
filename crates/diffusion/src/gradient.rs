//! The gradient table.
//!
//! A gradient is per-neighbor state describing the direction data flows and
//! its status. Interests set up *exploratory* gradients (low-rate exploratory
//! events flow along them); positive reinforcement upgrades a neighbor to a
//! *data* gradient (high-rate data flows along it); negative reinforcement
//! degrades it back.
//!
//! Exploratory gradients are dense over the node's neighbor list: slot `k`
//! holds the exploratory expiry toward `neighbors[k]`, the position a
//! delivery reports as [`Ctx::sender_index`](wsn_net::Ctx::sender_index),
//! and an interest reception refreshes its slot with one indexed store.
//! Data gradients exist only on the aggregation tree's edges, so they are
//! sparse: a short exact-size list sorted by slot, which
//! [`on_tree`](GradientTable::on_tree) scans without touching the dense
//! slots. The table keeps no copy of the neighbor list: queries by
//! [`NodeId`] take the topology's list
//! ([`Ctx::neighbors`](wsn_net::Ctx::neighbors)) to map ids to slots, and
//! neighbor lists come out in ascending id order, the list's own order.
//! See `DESIGN.md` §17.3.

use wsn_net::NodeId;
use wsn_sim::SimTime;

use crate::exact::{self, HeapBytes};

/// The "no gradient" sentinel. Real expiries are a finite time plus a
/// timeout and never reach it.
const NONE: SimTime = SimTime::MAX;

/// Whether a gradient valid until `until` is live at `now`.
fn live(until: SimTime, now: SimTime) -> bool {
    until != NONE && until >= now
}

/// Extends `until` to at least `to`; an absent gradient becomes `to`.
fn extend(until: &mut SimTime, to: SimTime) {
    if *until == NONE || *until < to {
        *until = to;
    }
}

/// A data gradient toward the neighbor in `slot`, valid until `until`.
#[derive(Debug, Clone, Copy)]
struct DataGradient {
    slot: u32,
    until: SimTime,
}

/// The gradients a node maintains toward its neighbors. A neighbor can hold
/// an exploratory gradient and a data gradient simultaneously; each expires
/// independently.
///
/// Methods that take `neighbors` map slots to [`NodeId`]s through it: the
/// node's neighbor list in ascending id order, as
/// [`Ctx::neighbors`](wsn_net::Ctx::neighbors) and
/// [`Topology::neighbors`](wsn_net::Topology::neighbors) give it, one id
/// per slot.
///
/// # Examples
///
/// ```
/// use wsn_diffusion::GradientTable;
/// use wsn_net::NodeId;
/// use wsn_sim::SimTime;
///
/// let neighbors = [NodeId(1), NodeId(4)];
/// let mut g = GradientTable::new(neighbors.len());
/// let t0 = SimTime::ZERO;
/// let slot = g.slot(&neighbors, NodeId(1)).unwrap();
/// g.refresh_exploratory(slot, SimTime::from_secs(15));
/// g.reinforce(slot, SimTime::from_secs(110));
/// assert!(g.has_data(&neighbors, NodeId(1), t0));
/// g.degrade(slot);
/// assert!(!g.has_data(&neighbors, NodeId(1), t0));
/// assert!(g.has_exploratory(&neighbors, NodeId(1), t0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GradientTable {
    /// Slot `k` holds the exploratory expiry toward the `k`-th neighbor,
    /// [`NONE`] without a gradient.
    expl: Box<[SimTime]>,
    /// The data gradients, sorted by slot, one per slot at most.
    data: Vec<DataGradient>,
}

impl GradientTable {
    /// An empty table with one slot per neighbor of a node with `degree`
    /// neighbors.
    pub fn new(degree: usize) -> Self {
        GradientTable {
            expl: vec![NONE; degree].into(),
            data: Vec::new(),
        }
    }

    /// The slot of `neighbor` in `neighbors`, if it is one.
    pub fn slot(&self, neighbors: &[NodeId], neighbor: NodeId) -> Option<usize> {
        debug_assert_eq!(neighbors.len(), self.expl.len(), "not this node's list");
        debug_assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "neighbor list not ascending"
        );
        neighbors.binary_search(&neighbor).ok()
    }

    /// The position of `slot`'s data gradient in the list, or where it
    /// would go.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a neighbor slot.
    fn find_data(&self, slot: usize) -> Result<usize, usize> {
        assert!(slot < self.expl.len(), "slot {slot} is not a neighbor slot");
        self.data.binary_search_by_key(&(slot as u32), |d| d.slot)
    }

    /// The expiry of `slot`'s data gradient, [`NONE`] without one.
    fn data_until(&self, slot: usize) -> SimTime {
        self.find_data(slot).map_or(NONE, |i| self.data[i].until)
    }

    /// Whether `slot` holds a live gradient of either kind at `now`.
    fn any_live_at(&self, slot: usize, now: SimTime) -> bool {
        live(self.expl[slot], now) || live(self.data_until(slot), now)
    }

    /// Sets or refreshes the exploratory gradient toward the neighbor in
    /// `slot`, valid until `until`. Never shortens an existing validity.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a neighbor slot.
    pub fn refresh_exploratory(&mut self, slot: usize, until: SimTime) {
        extend(&mut self.expl[slot], until);
    }

    /// Upgrades the neighbor in `slot` to a data gradient valid until
    /// `until` (positive reinforcement). Never shortens an existing
    /// validity.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a neighbor slot.
    pub fn reinforce(&mut self, slot: usize, until: SimTime) {
        if until == NONE {
            // An expiry equal to the sentinel stores "no gradient", the
            // same answer the exploratory side gives for it.
            self.degrade(slot);
            return;
        }
        match self.find_data(slot) {
            Ok(i) => extend(&mut self.data[i].until, until),
            Err(i) => {
                let slot = slot as u32;
                exact::insert(&mut self.data, i, DataGradient { slot, until });
            }
        }
    }

    /// Degrades the neighbor in `slot`'s data gradient to exploratory only
    /// (negative reinforcement). Returns `true` if a data gradient was
    /// removed, expired or not.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a neighbor slot.
    pub fn degrade(&mut self, slot: usize) -> bool {
        let Ok(i) = self.find_data(slot) else {
            return false;
        };
        exact::remove(&mut self.data, i);
        true
    }

    /// Whether a live exploratory *or* data gradient toward `neighbor`
    /// exists at `now` (data implies the direction is still valid for
    /// exploratory traffic).
    pub fn has_any(&self, neighbors: &[NodeId], neighbor: NodeId, now: SimTime) -> bool {
        self.slot(neighbors, neighbor)
            .is_some_and(|k| self.any_live_at(k, now))
    }

    /// Whether a live exploratory gradient toward `neighbor` exists at `now`.
    pub fn has_exploratory(&self, neighbors: &[NodeId], neighbor: NodeId, now: SimTime) -> bool {
        self.slot(neighbors, neighbor)
            .is_some_and(|k| live(self.expl[k], now))
    }

    /// Whether a live data gradient toward `neighbor` exists at `now`.
    pub fn has_data(&self, neighbors: &[NodeId], neighbor: NodeId, now: SimTime) -> bool {
        self.slot(neighbors, neighbor)
            .is_some_and(|k| live(self.data_until(k), now))
    }

    /// The neighbors with a live data gradient at `now`, in ascending id
    /// order.
    pub fn data_neighbors(&self, neighbors: &[NodeId], now: SimTime) -> Vec<NodeId> {
        debug_assert_eq!(neighbors.len(), self.expl.len(), "not this node's list");
        self.data
            .iter()
            .filter(|d| live(d.until, now))
            .map(|d| neighbors[d.slot as usize])
            .collect()
    }

    /// The neighbors with any live gradient at `now`, in ascending id order.
    pub fn all_neighbors(&self, neighbors: &[NodeId], now: SimTime) -> Vec<NodeId> {
        debug_assert_eq!(neighbors.len(), self.expl.len(), "not this node's list");
        (0..self.expl.len())
            .filter(|&k| self.any_live_at(k, now))
            .map(|k| neighbors[k])
            .collect()
    }

    /// Whether any live gradient exists at `now` — the same answer as
    /// `!all_neighbors(now).is_empty()` without building the list.
    pub fn any_live(&self, now: SimTime) -> bool {
        self.on_tree(now) || self.expl.iter().any(|&u| live(u, now))
    }

    /// Whether the node is "on the existing tree": it has at least one live
    /// data gradient (someone downstream wants its data).
    pub fn on_tree(&self, now: SimTime) -> bool {
        self.data.iter().any(|d| live(d.until, now))
    }

    /// Drops gradients that have expired by `now`.
    pub fn sweep(&mut self, now: SimTime) {
        for until in self.expl.iter_mut() {
            if *until < now {
                *until = NONE;
            }
        }
        exact::retain(&mut self.data, |d| d.until >= now);
    }

    /// Removes all gradients (node failure wipes protocol state).
    pub fn clear(&mut self) {
        self.expl.fill(NONE);
        exact::clear(&mut self.data);
    }

    /// Number of neighbors holding any (possibly expired, not yet swept)
    /// gradient.
    pub fn len(&self) -> usize {
        let explored = self.expl.iter().filter(|&&u| u != NONE).count();
        let data_only = self
            .data
            .iter()
            .filter(|d| self.expl[d.slot as usize] == NONE)
            .count();
        explored + data_only
    }

    /// Whether no neighbor holds a gradient.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.expl.iter().all(|&u| u == NONE)
    }

    /// The heap bytes the table holds and needs: 8 per neighbor slot, 16
    /// per data gradient.
    pub(crate) fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::exact(std::mem::size_of_val(&*self.expl)) + HeapBytes::of(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The neighbors of the table under test.
    const NB: &[NodeId] = &[NodeId(1), NodeId(2), NodeId(3), NodeId(5), NodeId(9)];

    /// A table over neighbors 1, 2, 3, 5 and 9, and the slot of each.
    fn table() -> GradientTable {
        GradientTable::new(NB.len())
    }

    fn slot(g: &GradientTable, n: u32) -> usize {
        g.slot(NB, NodeId(n)).expect("a neighbor")
    }

    #[test]
    fn slots_follow_the_neighbor_list() {
        let g = table();
        assert_eq!(slot(&g, 1), 0);
        assert_eq!(slot(&g, 9), 4);
        assert_eq!(slot(&g, 5), 3);
        assert_eq!(g.slot(NB, NodeId(4)), None);
    }

    #[test]
    fn exploratory_gradients_expire() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(15));
        assert!(g.has_exploratory(NB, NodeId(1), t(15)));
        assert!(!g.has_exploratory(NB, NodeId(1), t(16)));
    }

    #[test]
    fn refresh_extends_not_shortens() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(20));
        g.refresh_exploratory(slot(&g, 1), t(10));
        assert!(g.has_exploratory(NB, NodeId(1), t(20)));
    }

    #[test]
    fn reinforce_creates_data_gradient() {
        let mut g = table();
        g.reinforce(slot(&g, 2), t(100));
        assert!(g.has_data(NB, NodeId(2), t(0)));
        assert!(g.on_tree(t(0)));
        assert!(!g.on_tree(t(101)));
    }

    #[test]
    fn degrade_removes_only_data() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(15));
        g.reinforce(slot(&g, 1), t(100));
        assert!(g.degrade(slot(&g, 1)));
        assert!(!g.has_data(NB, NodeId(1), t(0)));
        assert!(g.has_exploratory(NB, NodeId(1), t(0)));
        // Degrading again reports nothing removed.
        assert!(!g.degrade(slot(&g, 1)));
        assert!(!g.degrade(slot(&g, 9)));
    }

    #[test]
    fn neighbor_lists_are_sorted_and_filtered() {
        let mut g = table();
        g.reinforce(slot(&g, 5), t(100));
        g.reinforce(slot(&g, 2), t(100));
        g.refresh_exploratory(slot(&g, 9), t(15));
        assert_eq!(g.data_neighbors(NB, t(0)), vec![NodeId(2), NodeId(5)]);
        assert_eq!(
            g.all_neighbors(NB, t(0)),
            vec![NodeId(2), NodeId(5), NodeId(9)]
        );
        // After exploratory expiry only the data gradients remain.
        assert_eq!(g.all_neighbors(NB, t(50)), vec![NodeId(2), NodeId(5)]);
    }

    #[test]
    fn any_live_tracks_both_kinds_of_expiry() {
        let mut g = table();
        assert!(!g.any_live(t(0)));
        g.refresh_exploratory(slot(&g, 1), t(15));
        g.reinforce(slot(&g, 2), t(30));
        assert!(g.any_live(t(15)));
        assert!(g.any_live(t(30)), "the data gradient alone keeps it live");
        assert!(!g.any_live(t(31)));
        g.degrade(slot(&g, 2));
        assert!(!g.any_live(t(20)));
    }

    #[test]
    fn has_any_covers_both_kinds() {
        let mut g = table();
        g.reinforce(slot(&g, 1), t(100));
        assert!(g.has_any(NB, NodeId(1), t(0)));
        assert!(!g.has_any(NB, NodeId(2), t(0)));
        assert!(!g.has_any(NB, NodeId(4), t(0)), "not a neighbor");
    }

    #[test]
    fn gradients_valid_until_time_zero_are_live_at_zero() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 3), SimTime::ZERO);
        assert!(g.has_exploratory(NB, NodeId(3), SimTime::ZERO));
        assert!(!g.has_exploratory(NB, NodeId(3), SimTime::from_nanos(1)));
    }

    #[test]
    fn sweep_drops_expired_entries() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(10));
        g.reinforce(slot(&g, 2), t(5));
        g.refresh_exploratory(slot(&g, 3), t(50));
        g.sweep(t(20));
        assert_eq!(g.len(), 1);
        assert!(g.has_exploratory(NB, NodeId(3), t(20)));
    }

    #[test]
    fn sweep_keeps_live_data_but_drops_expired_expl_side() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(10));
        g.reinforce(slot(&g, 1), t(100));
        g.sweep(t(20));
        assert_eq!(g.len(), 1);
        assert!(!g.has_exploratory(NB, NodeId(1), t(20)));
        assert!(g.has_data(NB, NodeId(1), t(20)));
    }

    #[test]
    fn clear_empties_table() {
        let mut g = table();
        g.reinforce(slot(&g, 1), t(100));
        g.clear();
        assert!(g.is_empty());
        assert!(!g.on_tree(t(0)));
        assert_eq!(g.slot(NB, NodeId(9)), Some(4), "clearing keeps every slot");
    }
}
