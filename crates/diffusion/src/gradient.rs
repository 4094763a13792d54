//! The gradient table.
//!
//! A gradient is per-neighbor state describing the direction data flows and
//! its status. Interests set up *exploratory* gradients (low-rate exploratory
//! events flow along them); positive reinforcement upgrades a neighbor to a
//! *data* gradient (high-rate data flows along it); negative reinforcement
//! degrades it back.
//!
//! The table is dense over the node's neighbor list: slot `k` holds the
//! gradients toward `neighbors[k]`, the position a delivery reports as
//! [`Ctx::sender_index`](wsn_net::Ctx::sender_index). A reception updates
//! its slot with one indexed store; queries by [`NodeId`] and neighbor
//! lists come out in ascending id order, the neighbor list's own order.

use wsn_net::NodeId;
use wsn_sim::SimTime;

/// The "no gradient" sentinel. Real expiries are a finite time plus a
/// timeout and never reach it.
const NONE: SimTime = SimTime::MAX;

/// Per-neighbor gradient state. A neighbor can hold an exploratory gradient
/// and a data gradient simultaneously; each expires independently.
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

    fn is_empty(&self) -> bool {
        *self == Entry::EMPTY
    }
}

/// Extends `until` to at least `to`; an absent gradient becomes `to`.
fn extend(until: &mut SimTime, to: SimTime) {
    if *until == NONE || *until < to {
        *until = to;
    }
}

/// The gradients a node maintains, one slot per neighbor.
///
/// # Examples
///
/// ```
/// use wsn_diffusion::GradientTable;
/// use wsn_net::NodeId;
/// use wsn_sim::SimTime;
///
/// let mut g = GradientTable::new(&[NodeId(1), NodeId(4)]);
/// let t0 = SimTime::ZERO;
/// let slot = g.slot(NodeId(1)).unwrap();
/// g.refresh_exploratory(slot, SimTime::from_secs(15));
/// g.reinforce(slot, SimTime::from_secs(110));
/// assert!(g.has_data(NodeId(1), t0));
/// g.degrade(slot);
/// assert!(!g.has_data(NodeId(1), t0));
/// assert!(g.has_exploratory(NodeId(1), t0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GradientTable {
    /// The node's neighbors, ascending: slot `k` belongs to `neighbors[k]`.
    neighbors: Box<[NodeId]>,
    entries: Box<[Entry]>,
}

impl GradientTable {
    /// An empty table over `neighbors`, which must be in ascending id
    /// order (as [`Ctx::neighbors`](wsn_net::Ctx::neighbors) lists them).
    pub fn new(neighbors: &[NodeId]) -> Self {
        debug_assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "neighbor list not ascending"
        );
        GradientTable {
            neighbors: neighbors.into(),
            entries: vec![Entry::EMPTY; neighbors.len()].into(),
        }
    }

    /// The slot of `neighbor`, if it is one.
    pub fn slot(&self, neighbor: NodeId) -> Option<usize> {
        self.neighbors.binary_search(&neighbor).ok()
    }

    /// The entry of `neighbor`, if it is one.
    fn entry(&self, neighbor: NodeId) -> Option<&Entry> {
        self.slot(neighbor).map(|k| &self.entries[k])
    }

    /// Sets or refreshes the exploratory gradient toward the neighbor in
    /// `slot`, valid until `until`. Never shortens an existing validity.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a neighbor slot.
    pub fn refresh_exploratory(&mut self, slot: usize, until: SimTime) {
        extend(&mut self.entries[slot].expl_until, until);
    }

    /// Upgrades the neighbor in `slot` to a data gradient valid until
    /// `until` (positive reinforcement). Never shortens an existing
    /// validity.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a neighbor slot.
    pub fn reinforce(&mut self, slot: usize, until: SimTime) {
        extend(&mut self.entries[slot].data_until, until);
    }

    /// Degrades the neighbor in `slot`'s data gradient to exploratory only
    /// (negative reinforcement). Returns `true` if a data gradient was
    /// removed.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a neighbor slot.
    pub fn degrade(&mut self, slot: usize) -> bool {
        std::mem::replace(&mut self.entries[slot].data_until, NONE) != NONE
    }

    /// Whether a live exploratory *or* data gradient toward `neighbor`
    /// exists at `now` (data implies the direction is still valid for
    /// exploratory traffic).
    pub fn has_any(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.entry(neighbor).is_some_and(|e| e.live(now))
    }

    /// Whether a live exploratory gradient toward `neighbor` exists at `now`.
    pub fn has_exploratory(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.entry(neighbor).is_some_and(|e| e.expl_live(now))
    }

    /// Whether a live data gradient toward `neighbor` exists at `now`.
    pub fn has_data(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.entry(neighbor).is_some_and(|e| e.data_live(now))
    }

    /// The neighbors with a live data gradient at `now`, in ascending id
    /// order.
    pub fn data_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        self.neighbors_where(|e| e.data_live(now))
    }

    /// The neighbors with any live gradient at `now`, in ascending id order.
    pub fn all_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        self.neighbors_where(|e| e.live(now))
    }

    /// Whether any live gradient exists at `now` — the same answer as
    /// `!all_neighbors(now).is_empty()` without building the list.
    pub fn any_live(&self, now: SimTime) -> bool {
        self.entries.iter().any(|e| e.live(now))
    }

    /// Whether the node is "on the existing tree": it has at least one live
    /// data gradient (someone downstream wants its data).
    pub fn on_tree(&self, now: SimTime) -> bool {
        self.entries.iter().any(|e| e.data_live(now))
    }

    fn neighbors_where(&self, keep: impl Fn(&Entry) -> bool) -> Vec<NodeId> {
        self.neighbors
            .iter()
            .zip(self.entries.iter())
            .filter(|(_, e)| keep(e))
            .map(|(&n, _)| n)
            .collect()
    }

    /// Drops gradients that have expired by `now`.
    pub fn sweep(&mut self, now: SimTime) {
        for e in self.entries.iter_mut() {
            if e.expl_until < now {
                e.expl_until = NONE;
            }
            if e.data_until < now {
                e.data_until = NONE;
            }
        }
    }

    /// Removes all gradients (node failure wipes protocol state).
    pub fn clear(&mut self) {
        self.entries.fill(Entry::EMPTY);
    }

    /// Number of neighbors holding any (possibly expired, not yet swept)
    /// gradient.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_empty()).count()
    }

    /// Whether no neighbor holds a gradient.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Entry::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A table over neighbors 1, 2, 3, 5 and 9, and the slot of each.
    fn table() -> GradientTable {
        GradientTable::new(&[NodeId(1), NodeId(2), NodeId(3), NodeId(5), NodeId(9)])
    }

    fn slot(g: &GradientTable, n: u32) -> usize {
        g.slot(NodeId(n)).expect("a neighbor")
    }

    #[test]
    fn slots_follow_the_neighbor_list() {
        let g = table();
        assert_eq!(slot(&g, 1), 0);
        assert_eq!(slot(&g, 9), 4);
        assert_eq!(slot(&g, 5), 3);
        assert_eq!(g.slot(NodeId(4)), None);
    }

    #[test]
    fn exploratory_gradients_expire() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(15));
        assert!(g.has_exploratory(NodeId(1), t(15)));
        assert!(!g.has_exploratory(NodeId(1), t(16)));
    }

    #[test]
    fn refresh_extends_not_shortens() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(20));
        g.refresh_exploratory(slot(&g, 1), t(10));
        assert!(g.has_exploratory(NodeId(1), t(20)));
    }

    #[test]
    fn reinforce_creates_data_gradient() {
        let mut g = table();
        g.reinforce(slot(&g, 2), t(100));
        assert!(g.has_data(NodeId(2), t(0)));
        assert!(g.on_tree(t(0)));
        assert!(!g.on_tree(t(101)));
    }

    #[test]
    fn degrade_removes_only_data() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(15));
        g.reinforce(slot(&g, 1), t(100));
        assert!(g.degrade(slot(&g, 1)));
        assert!(!g.has_data(NodeId(1), t(0)));
        assert!(g.has_exploratory(NodeId(1), t(0)));
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
        assert_eq!(g.data_neighbors(t(0)), vec![NodeId(2), NodeId(5)]);
        assert_eq!(g.all_neighbors(t(0)), vec![NodeId(2), NodeId(5), NodeId(9)]);
        // After exploratory expiry only the data gradients remain.
        assert_eq!(g.all_neighbors(t(50)), vec![NodeId(2), NodeId(5)]);
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
        assert!(g.has_any(NodeId(1), t(0)));
        assert!(!g.has_any(NodeId(2), t(0)));
        assert!(!g.has_any(NodeId(4), t(0)), "not a neighbor");
    }

    #[test]
    fn gradients_valid_until_time_zero_are_live_at_zero() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 3), SimTime::ZERO);
        assert!(g.has_exploratory(NodeId(3), SimTime::ZERO));
        assert!(!g.has_exploratory(NodeId(3), SimTime::from_nanos(1)));
    }

    #[test]
    fn sweep_drops_expired_entries() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(10));
        g.reinforce(slot(&g, 2), t(5));
        g.refresh_exploratory(slot(&g, 3), t(50));
        g.sweep(t(20));
        assert_eq!(g.len(), 1);
        assert!(g.has_exploratory(NodeId(3), t(20)));
    }

    #[test]
    fn sweep_keeps_live_data_but_drops_expired_expl_side() {
        let mut g = table();
        g.refresh_exploratory(slot(&g, 1), t(10));
        g.reinforce(slot(&g, 1), t(100));
        g.sweep(t(20));
        assert_eq!(g.len(), 1);
        assert!(!g.has_exploratory(NodeId(1), t(20)));
        assert!(g.has_data(NodeId(1), t(20)));
    }

    #[test]
    fn clear_empties_table() {
        let mut g = table();
        g.reinforce(slot(&g, 1), t(100));
        g.clear();
        assert!(g.is_empty());
        assert!(!g.on_tree(t(0)));
        assert_eq!(g.slot(NodeId(9)), Some(4), "the neighbor list survives");
    }
}
