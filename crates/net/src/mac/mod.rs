//! The medium-access layer: who may put a frame on the air, and when.
//!
//! The engine talks to exactly one MAC per run through the [`Mac`] trait: a
//! frame queued by a protocol goes in via [`Mac::enqueue`], the MAC drives
//! the [`Phy`](crate::phy::Phy) with `start_frame`, and the PHY reports each
//! completed transmission back as a
//! [`TxOutcome`](crate::phy::TxOutcome) via [`Mac::on_tx_end`]. Everything
//! between — carrier sensing, backoff, acknowledgements, retransmission —
//! is the MAC's private policy. Two implementations ship:
//!
//! * [`CsmaCa`] — the 802.11-style contention MAC the paper's ns-2 setup
//!   uses: DIFS sensing, slotted exponential backoff, link-layer ACKs with
//!   a retry limit, and an optional RTS/CTS handshake.
//! * [`IdealMac`] — a contention-free, collision-free genie with zero
//!   control overhead: frames transmit immediately (FIFO per node), every
//!   powered hearer decodes them, and no ACK/RTS/CTS ever hits the air.
//!   Transmit and receive energy are still debited, so the ideal MAC is the
//!   lower bound that separates protocol-level cost from MAC-level
//!   amplification in the `mac_overhead` ablation.
//!
//! The MAC is selected as data — [`MacKind`] in
//! [`NetConfig`](crate::NetConfig), plumbed from scenario specs down to the
//! bench binaries' `--mac` flag — so sweeps can compare MACs without code
//! changes.

mod csma;
mod ideal;

pub(crate) use csma::CsmaCa;
pub(crate) use ideal::IdealMac;

use std::rc::Rc;

use wsn_sim::Simulator;

use crate::engine::Ev;
use crate::node::NodeId;
use crate::packet::{Packet, TxId};
use crate::phy::{Phy, TxOutcome};

/// Which MAC a run uses. Selected in [`NetConfig`](crate::NetConfig) and
/// plumbed through scenario specs as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MacKind {
    /// CSMA/CA with link-layer ACKs (the default, matching the paper's
    /// 802.11 MAC with RTS/CTS disabled for broadcasts).
    #[default]
    Csma,
    /// CSMA/CA with the RTS/CTS handshake before every unicast data frame
    /// (ns-2's 802.11 default).
    RtsCts,
    /// The contention-free, collision-free, zero-control-overhead genie
    /// MAC — the lower bound on MAC cost.
    Ideal,
}

impl MacKind {
    /// The flag/table name of this MAC.
    pub fn name(self) -> &'static str {
        match self {
            MacKind::Csma => "csma",
            MacKind::RtsCts => "rtscts",
            MacKind::Ideal => "ideal",
        }
    }

    /// Parses a `--mac` flag value (`csma`, `rtscts`, `ideal`, plus common
    /// spellings like `csma+ack` and `rts/cts`).
    pub fn parse(s: &str) -> Option<MacKind> {
        match s {
            "csma" | "csma+ack" | "csma-ca" | "csmaca" => Some(MacKind::Csma),
            "rtscts" | "rts_cts" | "rts-cts" | "rts/cts" => Some(MacKind::RtsCts),
            "ideal" => Some(MacKind::Ideal),
            _ => None,
        }
    }
}

impl std::str::FromStr for MacKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MacKind::parse(s).ok_or_else(|| format!("unknown MAC {s:?} (csma, rtscts, or ideal)"))
    }
}

impl std::fmt::Display for MacKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The MAC's window into the layers it may drive: the simulator (to schedule
/// its own events) and the PHY (to start frames and read radio/carrier
/// state). Built by the engine as a split borrow of its disjoint fields, so
/// the MAC itself can stay `&mut self` alongside.
pub(crate) struct MacCtx<'a, M, T> {
    pub(crate) sim: &'a mut Simulator<Ev<T>>,
    pub(crate) phy: &'a mut Phy<M>,
}

/// One medium-access policy.
///
/// The engine guarantees: `enqueue` is only called for powered nodes;
/// `on_tx_end` is called exactly once per `start_frame`, with the PHY's
/// finalized [`TxOutcome`]; `on_node_down` is called when a node fails, and
/// the MAC must drop that node's queue and cancel every simulator event it
/// owns for it. The remaining callbacks are MAC-scheduled events
/// (backoff expiry, ACK/CTS due, turnaround, response timeout) that a MAC
/// not scheduling them will simply never see.
pub(crate) trait Mac<M, T> {
    /// Accepts a protocol frame for transmission from node `i`.
    fn enqueue(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, packet: Packet<M>);

    /// Node `i`'s backoff expired: sense the medium and maybe transmit.
    fn on_backoff_done(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize);

    /// Transmission `tx` from node `i` left the air; `outcome` is what the
    /// PHY finalized at every hearer.
    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, tx: TxId, outcome: &TxOutcome<M>);

    /// Node `i` owes an ACK for `acked` to `to` (SIFS elapsed).
    fn on_ack_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, acked: TxId, to: NodeId);

    /// Node `i` owes a CTS to `to` (SIFS elapsed).
    fn on_cts_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, to: NodeId);

    /// Node `i`'s post-CTS turnaround elapsed: transmit the data frame.
    /// Returns the abandoned packet if the attempt instead exhausted the
    /// retry limit.
    fn on_data_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) -> Option<Rc<Packet<M>>>;

    /// Node `i`'s response wait for `tx` expired: retry or give up.
    /// Returns the abandoned packet when the retry limit is exhausted.
    fn on_ack_timeout(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        tx: TxId,
    ) -> Option<Rc<Packet<M>>>;

    /// Node `i` failed: drop its queue and cancel the MAC's pending
    /// simulator events for it.
    fn on_node_down(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize);
}

/// The concrete MAC installed in an engine, dispatched statically.
///
/// An enum rather than a `Box<dyn Mac>` so protocol message types need no
/// `'static` bound (trait objects would impose one through the default
/// object lifetime).
#[derive(Debug)]
pub(crate) enum MacImpl<M> {
    /// CSMA/CA (+ACK, optionally +RTS/CTS).
    Csma(CsmaCa<M>),
    /// The contention-free genie.
    Ideal(IdealMac<M>),
}

impl<M: Clone + std::fmt::Debug> MacImpl<M> {
    /// Builds the MAC selected by `kind` for an `n`-node network.
    pub(crate) fn new(kind: MacKind, n: usize, seed: u64) -> Self {
        match kind {
            MacKind::Csma => MacImpl::Csma(CsmaCa::new(n, seed, false)),
            MacKind::RtsCts => MacImpl::Csma(CsmaCa::new(n, seed, true)),
            MacKind::Ideal => MacImpl::Ideal(IdealMac::new(n)),
        }
    }

    /// Node `i`'s MAC queue depth (for telemetry snapshots).
    pub(crate) fn queue_len(&self, i: usize) -> usize {
        match self {
            MacImpl::Csma(m) => m.queue_len(i),
            MacImpl::Ideal(m) => m.queue_len(i),
        }
    }
}

impl<M: Clone + std::fmt::Debug, T: Clone + std::fmt::Debug> Mac<M, T> for MacImpl<M> {
    fn enqueue(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, packet: Packet<M>) {
        match self {
            MacImpl::Csma(m) => m.enqueue(ctx, i, packet),
            MacImpl::Ideal(m) => m.enqueue(ctx, i, packet),
        }
    }

    fn on_backoff_done(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) {
        match self {
            MacImpl::Csma(m) => m.on_backoff_done(ctx, i),
            MacImpl::Ideal(m) => m.on_backoff_done(ctx, i),
        }
    }

    fn on_tx_end(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        tx: TxId,
        outcome: &TxOutcome<M>,
    ) {
        match self {
            MacImpl::Csma(m) => m.on_tx_end(ctx, i, tx, outcome),
            MacImpl::Ideal(m) => m.on_tx_end(ctx, i, tx, outcome),
        }
    }

    fn on_ack_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, acked: TxId, to: NodeId) {
        match self {
            MacImpl::Csma(m) => m.on_ack_due(ctx, i, acked, to),
            MacImpl::Ideal(m) => m.on_ack_due(ctx, i, acked, to),
        }
    }

    fn on_cts_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, to: NodeId) {
        match self {
            MacImpl::Csma(m) => m.on_cts_due(ctx, i, to),
            MacImpl::Ideal(m) => m.on_cts_due(ctx, i, to),
        }
    }

    fn on_data_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) -> Option<Rc<Packet<M>>> {
        match self {
            MacImpl::Csma(m) => m.on_data_due(ctx, i),
            MacImpl::Ideal(m) => m.on_data_due(ctx, i),
        }
    }

    fn on_ack_timeout(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        tx: TxId,
    ) -> Option<Rc<Packet<M>>> {
        match self {
            MacImpl::Csma(m) => m.on_ack_timeout(ctx, i, tx),
            MacImpl::Ideal(m) => m.on_ack_timeout(ctx, i, tx),
        }
    }

    fn on_node_down(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) {
        match self {
            MacImpl::Csma(m) => m.on_node_down(ctx, i),
            MacImpl::Ideal(m) => m.on_node_down(ctx, i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_kind_parses_flag_spellings() {
        assert_eq!(MacKind::parse("csma"), Some(MacKind::Csma));
        assert_eq!(MacKind::parse("csma+ack"), Some(MacKind::Csma));
        assert_eq!(MacKind::parse("rtscts"), Some(MacKind::RtsCts));
        assert_eq!(MacKind::parse("rts/cts"), Some(MacKind::RtsCts));
        assert_eq!(MacKind::parse("ideal"), Some(MacKind::Ideal));
        assert_eq!(MacKind::parse("tdma"), None);
    }

    #[test]
    fn mac_kind_round_trips_through_its_name() {
        for kind in [MacKind::Csma, MacKind::RtsCts, MacKind::Ideal] {
            assert_eq!(MacKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<MacKind>(), Ok(kind));
        }
    }

    #[test]
    fn default_is_plain_csma() {
        assert_eq!(MacKind::default(), MacKind::Csma);
    }
}
