//! CSMA/CA with link-layer ACKs and optional RTS/CTS — the 802.11-style
//! contention MAC of the paper's ns-2 setup.
//!
//! A node with a queued frame waits DIFS plus a uniform backoff of
//! `[0, cw)` slots, senses the medium, and transmits if idle (re-drawing the
//! backoff otherwise). Logically unicast frames are acknowledged by the
//! addressed receiver after SIFS and retransmitted (fresh contention, with
//! the window doubling per retry) up to the retry limit; broadcast frames
//! get neither ACKs nor retries. With RTS/CTS on, every unicast data frame
//! is preceded by the RTS → CTS → SIFS-turnaround handshake.

use std::collections::VecDeque;
use std::rc::Rc;

use wsn_sim::{EventId, SimRng};
use wsn_trace::{DropReason, TraceRecord};

use crate::config::NetConfig;
use crate::engine::Ev;
use crate::mac::{Mac, MacCtx};
use crate::metrics::drop_reason_index;
use crate::node::NodeId;
use crate::packet::{Packet, TxId};
use crate::phy::{Control, Frame, TxOutcome};

/// RNG stream label (see [`SimRng::from_seed_stream`]).
const STREAM_MAC: u64 = 0x004D_4143;

/// The 802.11 exponential-backoff contention window for the head frame's
/// `retries`-th retransmission: the window doubles per retry, capped at
/// CWmax — this is what decorrelates hidden terminals whose attempts keep
/// colliding.
pub(crate) fn contention_window(cfg: &NetConfig, retries: u32) -> u64 {
    (cfg.cw_slots << retries.min(16))
        .min(cfg.cw_max_slots)
        .max(1)
}

/// A queued payload frame with its retransmission count. The packet is
/// `Rc`-wrapped once at enqueue, so every transmit attempt (and retry)
/// hands the PHY a pointer clone instead of a deep copy.
#[derive(Debug)]
struct QueuedFrame<M> {
    packet: Rc<Packet<M>>,
    retries: u32,
}

/// Which response the unicast sender is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AwaitPhase {
    /// Sent an RTS, waiting for the CTS.
    Cts,
    /// CTS received; the data frame fires after SIFS.
    DataTurnaround,
    /// Sent the data frame, waiting for the ACK.
    Ack,
}

/// A unicast handshake in progress at the sender.
#[derive(Debug)]
struct Awaiting<M> {
    tx: TxId,
    queued: QueuedFrame<M>,
    timer: EventId,
    phase: AwaitPhase,
}

/// Per-node CSMA/CA state.
#[derive(Debug)]
struct CsmaNode<M> {
    queue: VecDeque<QueuedFrame<M>>,
    backoff_ev: Option<EventId>,
    /// The unicast handshake in progress, if any.
    awaiting: Option<Awaiting<M>>,
    rng: SimRng,
}

/// The CSMA/CA MAC. See the module docs for the protocol; the RTS/CTS
/// handshake is enabled per-run (a [`MacKind`](crate::MacKind) choice), not
/// per-frame.
#[derive(Debug)]
pub(crate) struct CsmaCa<M> {
    nodes: Vec<CsmaNode<M>>,
    rts_cts: bool,
}

impl<M: Clone + std::fmt::Debug> CsmaCa<M> {
    pub(crate) fn new(n: usize, seed: u64, rts_cts: bool) -> Self {
        CsmaCa {
            nodes: (0..n)
                .map(|i| CsmaNode {
                    queue: VecDeque::new(),
                    backoff_ev: None,
                    awaiting: None,
                    rng: SimRng::derive(seed, STREAM_MAC, i as u64),
                })
                .collect(),
            rts_cts,
        }
    }

    pub(crate) fn queue_len(&self, i: usize) -> usize {
        self.nodes[i].queue.len()
    }

    /// Schedules a fresh DIFS + backoff if the MAC is idle with work queued.
    fn try_start<T: Clone + std::fmt::Debug>(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) {
        let node = &mut self.nodes[i];
        if !ctx.phy.is_up(i)
            || ctx.phy.is_transmitting(i)
            || node.backoff_ev.is_some()
            || node.awaiting.is_some()
            || node.queue.is_empty()
        {
            return;
        }
        let retries = node.queue.front().map_or(0, |q| q.retries);
        let cw = contention_window(ctx.cfg, retries);
        let slots = node.rng.below(cw);
        if let Some(m) = ctx.phy.metrics.as_deref_mut() {
            m.reg.inc(m.ids.backoff_draws);
        }
        let delay = ctx.cfg.difs + ctx.cfg.slot.saturating_mul(slots);
        let id = ctx.sim.schedule_after(
            delay,
            Ev::BackoffDone {
                node: NodeId::from_index(i),
            },
        );
        node.backoff_ev = Some(id);
    }

    /// Retry bookkeeping shared by CTS/ACK timeouts and turnaround aborts.
    /// Returns the abandoned packet when the retry limit is exhausted.
    /// `last_tx` is the transmission whose response never came, so the
    /// trace's drop record can name the attempt it gave up on.
    fn requeue_or_fail<T: Clone + std::fmt::Debug>(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        mut queued: QueuedFrame<M>,
        last_tx: Option<TxId>,
    ) -> Option<Rc<Packet<M>>> {
        let mut failed = None;
        if queued.retries < ctx.cfg.retry_limit {
            queued.retries += 1;
            ctx.phy.stats.retries += 1;
            self.nodes[i].queue.push_front(queued);
        } else {
            ctx.phy.stats.drops[drop_reason_index(DropReason::RetryLimit)] += 1;
            if let Some(m) = ctx.phy.metrics.as_deref_mut() {
                m.reg.observe(m.ids.retry_hist, u64::from(queued.retries));
            }
            ctx.phy.emit(TraceRecord::PacketDrop {
                t_ns: ctx.sim.now().as_nanos(),
                node: i as u32,
                reason: DropReason::RetryLimit,
                tx: last_tx.map(|t| t.0),
            });
            failed = Some(queued.packet);
        }
        self.try_start(ctx, i);
        failed
    }
}

impl<M: Clone + std::fmt::Debug, T: Clone + std::fmt::Debug> Mac<M, T> for CsmaCa<M> {
    fn enqueue(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, packet: Packet<M>) {
        self.nodes[i].queue.push_back(QueuedFrame {
            packet: Rc::new(packet),
            retries: 0,
        });
        self.try_start(ctx, i);
    }

    fn on_backoff_done(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) {
        self.nodes[i].backoff_ev = None;
        if !ctx.phy.is_up(i) {
            return;
        }
        if ctx.phy.is_transmitting(i) {
            // An ACK may have seized the radio meanwhile; the queued frame
            // is retried when that transmission ends.
            if let Some(m) = ctx.phy.metrics.as_deref_mut() {
                m.reg.inc(m.ids.contention_stalls);
            }
            return;
        }
        if ctx.phy.is_busy(i) {
            // Medium busy: persistent CSMA, re-draw the backoff.
            if let Some(m) = ctx.phy.metrics.as_deref_mut() {
                m.reg.inc(m.ids.busy_samples);
                m.reg.inc(m.ids.contention_stalls);
            }
            self.try_start(ctx, i);
            return;
        }
        let Some(queued) = self.nodes[i].queue.pop_front() else {
            return;
        };
        let me = NodeId::from_index(i);
        match queued.packet.dst {
            Some(dst) if self.rts_cts => {
                // Unicast with handshake: RTS first, data after the CTS.
                let tx = ctx.phy.start_frame(
                    ctx.sim,
                    ctx.cfg,
                    i,
                    Frame::Rts { to: dst },
                    ctx.cfg.rts_bytes,
                );
                let timer = ctx.sim.schedule_after(
                    ctx.cfg.tx_duration(ctx.cfg.rts_bytes) + ctx.cfg.cts_timeout(),
                    Ev::AckTimeout { node: me, tx },
                );
                self.nodes[i].awaiting = Some(Awaiting {
                    tx,
                    queued,
                    timer,
                    phase: AwaitPhase::Cts,
                });
            }
            Some(_) => {
                let bytes = queued.packet.bytes;
                let frame = Frame::Payload(Rc::clone(&queued.packet));
                let tx = ctx.phy.start_frame(ctx.sim, ctx.cfg, i, frame, bytes);
                let timer = ctx.sim.schedule_after(
                    ctx.cfg.tx_duration(bytes) + ctx.cfg.ack_timeout(),
                    Ev::AckTimeout { node: me, tx },
                );
                self.nodes[i].awaiting = Some(Awaiting {
                    tx,
                    queued,
                    timer,
                    phase: AwaitPhase::Ack,
                });
            }
            None => {
                let bytes = queued.packet.bytes;
                let frame = Frame::Payload(Rc::clone(&queued.packet));
                ctx.phy.start_frame(ctx.sim, ctx.cfg, i, frame, bytes);
            }
        }
    }

    fn on_tx_end(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        tx: TxId,
        outcome: &TxOutcome<M>,
    ) {
        let me = NodeId::from_index(i);
        // The addressed receiver of a clean unicast payload owes an ACK.
        if let Some(v) = outcome.unicast_decoded {
            ctx.sim.schedule_after(
                ctx.cfg.sifs,
                Ev::AckDue {
                    node: v,
                    acked: tx,
                    to: me,
                },
            );
        }
        // A frame has exactly one addressee, so at most one control entry
        // matches — an `Option` per kind, no match vectors.
        let mut acked_sender: Option<usize> = None;
        let mut cts_receiver: Option<usize> = None;
        for (v, control) in &outcome.control {
            let vi = v.index();
            match control {
                Control::Ack { acked } => {
                    if self.nodes[vi]
                        .awaiting
                        .as_ref()
                        .is_some_and(|a| a.tx == *acked && a.phase == AwaitPhase::Ack)
                    {
                        acked_sender = Some(vi);
                    }
                }
                Control::Rts => {
                    ctx.sim
                        .schedule_after(ctx.cfg.sifs, Ev::CtsDue { node: *v, to: me });
                }
                Control::Cts => {
                    if self.nodes[vi]
                        .awaiting
                        .as_ref()
                        .is_some_and(|a| a.phase == AwaitPhase::Cts)
                    {
                        cts_receiver = Some(vi);
                    }
                }
            }
        }
        if let Some(vi) = acked_sender {
            let a = self.nodes[vi].awaiting.take().expect("just matched");
            if let Some(m) = ctx.phy.metrics.as_deref_mut() {
                m.reg.observe(m.ids.retry_hist, u64::from(a.queued.retries));
            }
            ctx.sim.cancel(a.timer);
            self.try_start(ctx, vi);
        }
        if let Some(vi) = cts_receiver {
            // Transition to the data turnaround; the data frame fires after
            // SIFS via DataDue.
            let a = self.nodes[vi].awaiting.as_mut().expect("just matched");
            ctx.sim.cancel(a.timer);
            a.phase = AwaitPhase::DataTurnaround;
            ctx.sim.schedule_after(
                ctx.cfg.sifs,
                Ev::DataDue {
                    node: NodeId::from_index(vi),
                },
            );
        }
        // The sender moves on unless it is waiting for an ACK (the wait was
        // armed when the frame started).
        self.try_start(ctx, i);
    }

    fn on_ack_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, acked: TxId, to: NodeId) {
        if !ctx.phy.is_up(i) || ctx.phy.is_transmitting(i) {
            return; // cannot ACK right now; the sender will retry
        }
        ctx.phy.start_frame(
            ctx.sim,
            ctx.cfg,
            i,
            Frame::Ack { acked, to },
            ctx.cfg.ack_bytes,
        );
    }

    fn on_cts_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize, to: NodeId) {
        if !ctx.phy.is_up(i) || ctx.phy.is_transmitting(i) {
            return; // cannot answer; the RTS sender times out and retries
        }
        ctx.phy
            .start_frame(ctx.sim, ctx.cfg, i, Frame::Cts { to }, ctx.cfg.cts_bytes);
    }

    /// The CTS arrived: transmit the queued data frame (SIFS turnaround has
    /// elapsed) and arm the ACK wait. Returns the abandoned packet if the
    /// turnaround had to fall back to a retry that exhausted the limit.
    fn on_data_due(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) -> Option<Rc<Packet<M>>> {
        if !ctx.phy.is_up(i) {
            return None;
        }
        let ready = self.nodes[i]
            .awaiting
            .as_ref()
            .is_some_and(|a| a.phase == AwaitPhase::DataTurnaround);
        if !ready {
            return None;
        }
        if ctx.phy.is_transmitting(i) {
            // Radio seized (we owed someone an ACK): fall back to a retry.
            let a = self.nodes[i].awaiting.take().expect("checked above");
            let last_tx = a.tx;
            return self.requeue_or_fail(ctx, i, a.queued, Some(last_tx));
        }
        let mut a = self.nodes[i].awaiting.take().expect("checked above");
        let bytes = a.queued.packet.bytes;
        let frame = Frame::Payload(Rc::clone(&a.queued.packet));
        let tx = ctx.phy.start_frame(ctx.sim, ctx.cfg, i, frame, bytes);
        a.tx = tx;
        a.phase = AwaitPhase::Ack;
        a.timer = ctx.sim.schedule_after(
            ctx.cfg.tx_duration(bytes) + ctx.cfg.ack_timeout(),
            Ev::AckTimeout {
                node: NodeId::from_index(i),
                tx,
            },
        );
        self.nodes[i].awaiting = Some(a);
        None
    }

    /// Returns the abandoned packet when the retry limit is exhausted, so
    /// the caller can notify the protocol of the dead link. Handles both
    /// CTS and ACK waits (the timer always carries the tx it guards).
    fn on_ack_timeout(
        &mut self,
        ctx: &mut MacCtx<'_, M, T>,
        i: usize,
        tx: TxId,
    ) -> Option<Rc<Packet<M>>> {
        let matches = self.nodes[i]
            .awaiting
            .as_ref()
            .is_some_and(|a| a.tx == tx && a.phase != AwaitPhase::DataTurnaround);
        if !matches {
            return None; // already answered (or state cleared by a failure)
        }
        let a = self.nodes[i].awaiting.take().expect("just matched");
        let last_tx = a.tx;
        self.requeue_or_fail(ctx, i, a.queued, Some(last_tx))
    }

    fn on_node_down(&mut self, ctx: &mut MacCtx<'_, M, T>, i: usize) {
        let node = &mut self.nodes[i];
        node.queue.clear();
        if let Some(ev) = node.backoff_ev.take() {
            ctx.sim.cancel(ev);
        }
        if let Some(a) = node.awaiting.take() {
            ctx.sim.cancel(a.timer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_window_doubles_per_retry_and_caps() {
        let cfg = NetConfig::default();
        assert_eq!(contention_window(&cfg, 0), 32);
        assert_eq!(contention_window(&cfg, 1), 64);
        assert_eq!(contention_window(&cfg, 2), 128);
        assert_eq!(contention_window(&cfg, 3), 256);
        assert_eq!(contention_window(&cfg, 4), 512);
        // Doubling stops at CWmax …
        assert_eq!(contention_window(&cfg, 5), cfg.cw_max_slots);
        assert_eq!(contention_window(&cfg, 12), cfg.cw_max_slots);
        // … and huge retry counts don't overflow the shift.
        assert_eq!(contention_window(&cfg, u32::MAX), cfg.cw_max_slots);
    }

    #[test]
    fn backoff_window_never_collapses_to_zero() {
        let cfg = NetConfig {
            cw_slots: 0,
            ..NetConfig::default()
        };
        assert_eq!(contention_window(&cfg, 0), 1, "below(0) would panic");
    }
}
