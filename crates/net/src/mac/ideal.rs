//! The ideal MAC: contention-free, collision-free, zero control overhead.
//!
//! A genie scheduler for lower-bound ablations: a queued frame transmits
//! immediately if the node's radio is free (FIFO otherwise), the PHY runs in
//! perfect-capture mode so every powered hearer decodes every frame, and no
//! ACK, RTS, CTS, backoff, or retransmission ever happens. What remains is
//! the irreducible cost of the traffic itself — frames still occupy the air
//! for their real duration, and transmit/receive energy is still debited —
//! so the gap between this MAC and CSMA/CA is pure contention-and-control
//! amplification.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::mac::{Mac, MacCtx};
use crate::node::NodeId;
use crate::packet::{Packet, TxId};
use crate::phy::{Frame, TxOutcome};

/// The contention-free genie MAC. Per-node state is just a FIFO of frames
/// waiting for the (busy) radio — no RNG, no timers, no handshake state.
/// Packets are `Rc`-wrapped once at enqueue, so the transmit path is a
/// pointer clone.
#[derive(Debug)]
pub(crate) struct IdealMac<M> {
    queues: Vec<VecDeque<Rc<Packet<M>>>>,
}

impl<M: Clone + std::fmt::Debug> IdealMac<M> {
    pub(crate) fn new(n: usize) -> Self {
        IdealMac {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    pub(crate) fn queue_len(&self, i: usize) -> usize {
        self.queues[i].len()
    }

    /// Puts `packet` on the air immediately (the caller has checked the
    /// radio is free).
    fn transmit<T: Clone + std::fmt::Debug>(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        packet: Rc<Packet<M>>,
    ) {
        let bytes = packet.bytes;
        let frame = Frame::Payload(packet);
        ctx.phy.start_frame(ctx.sim, i, frame, bytes);
    }
}

impl<M: Clone + std::fmt::Debug, T: Clone + std::fmt::Debug> Mac<M, T> for IdealMac<M> {
    fn enqueue(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, packet: Packet<M>) {
        let packet = Rc::new(packet);
        if ctx.phy.is_transmitting(i) {
            self.queues[i].push_back(packet);
            return;
        }
        self.transmit(ctx, i, packet);
    }

    fn on_backoff_done(&mut self, _ctx: &mut MacCtx<'_, M, T>, _i: usize) {
        // Never scheduled: the ideal MAC has no contention.
    }

    fn on_tx_end(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        _tx: TxId,
        _outcome: &TxOutcome<M>,
    ) {
        // No ACKs to await, no handshake to advance — just drain the FIFO.
        if !ctx.phy.is_up(i) {
            return;
        }
        if let Some(packet) = self.queues[i].pop_front() {
            self.transmit(ctx, i, packet);
        }
    }

    fn on_ack_due(&mut self, _ctx: &mut MacCtx<'_, M, T>, _i: usize, _acked: TxId, _to: NodeId) {
        // Never scheduled: no acknowledgements.
    }

    fn on_cts_due(&mut self, _ctx: &mut MacCtx<'_, M, T>, _i: usize, _to: NodeId) {
        // Never scheduled: no handshake.
    }

    fn on_data_due(&mut self, _ctx: &mut MacCtx<'_, M, T>, _i: usize) -> Option<Rc<Packet<M>>> {
        None // never scheduled
    }

    fn on_ack_timeout(
        &mut self,
        _ctx: &mut MacCtx<'_, M, T>,
        _i: usize,
        _tx: TxId,
    ) -> Option<Rc<Packet<M>>> {
        None // never scheduled: nothing is awaited, nothing ever fails
    }

    fn on_node_down(&mut self, _ctx: &mut MacCtx<'_, M, T>, i: usize) {
        self.queues[i].clear();
    }
}
