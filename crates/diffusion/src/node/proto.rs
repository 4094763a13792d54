//! The [`Protocol`] impl: dispatches packets, timers, and node-lifecycle
//! callbacks into the control, data, and reinforcement submodules.

use wsn_net::{Ctx, NodeId, Packet, Protocol};
use wsn_trace::{DropReason, TraceRecord};

use crate::cache::ExplCache;
use crate::gradient::GradientTable;
use crate::msg::DiffMsg;

use super::{DiffTimer, DiffusionNode};

impl Protocol for DiffusionNode {
    type Msg = DiffMsg;
    type Timer = DiffTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        debug_assert_eq!(self.me, ctx.node(), "protocol bound to the wrong node");
        self.gradients = GradientTable::new(ctx.neighbors().len());
        self.expl = ExplCache::new(self.me, ctx.neighbors().len());
        if self.role.is_sink {
            self.originate_interest(ctx);
        }
        if self.role.is_source {
            ctx.set_timer(self.next_generate_delay(ctx.now()), DiffTimer::Generate);
        }
        // Stagger truncation ticks across nodes.
        let stagger = ctx.jitter(self.cfg.truncation_window);
        ctx.set_timer(self.cfg.truncation_window + stagger, DiffTimer::Truncate);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>, packet: &Packet<DiffMsg>) {
        let from = packet.from;
        let slot = ctx
            .sender_index()
            .expect("packets are delivered from a neighbor");
        // Hearing anything from a neighbor clears link-failure suspicion.
        // Both maps are almost always empty: skip the probe then.
        if !self.link_failures.is_empty() {
            self.link_failures.remove(&from);
        }
        if !self.suspects.is_empty() {
            self.suspects.remove(&from);
        }
        match packet.payload {
            DiffMsg::Interest { sink, seq } => {
                let now = ctx.now();
                self.gradients
                    .refresh_exploratory(slot, now + self.cfg.gradient_timeout);
                if self.seen_interests.insert((sink, seq)) {
                    let jitter = self.cfg.interest_jitter;
                    self.send_jittered(ctx, jitter, None, DiffMsg::Interest { sink, seq });
                }
            }
            DiffMsg::Exploratory { id, item, energy } => {
                self.on_exploratory(ctx, from, slot, id, item, energy);
            }
            DiffMsg::Data { ref items, cost } => {
                self.on_data(ctx, from, items, cost);
            }
            DiffMsg::IncrementalCost { id, origin, cost } => {
                self.on_incremental(ctx, from, slot, id, origin, cost);
            }
            DiffMsg::Reinforce { id, kind } => {
                self.on_reinforce(ctx, from, slot, id, kind);
            }
            DiffMsg::NegativeReinforce => {
                self.on_negative_reinforce(ctx, slot);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>, timer: DiffTimer) {
        match timer {
            DiffTimer::Interest => self.originate_interest(ctx),
            DiffTimer::Generate => self.generate_event(ctx),
            DiffTimer::SendJittered { msg, dst } => self.send_now(ctx, dst, msg),
            DiffTimer::Flush => {
                self.flush_timer = None;
                self.flush(ctx);
            }
            DiffTimer::Truncate => self.on_truncate_tick(ctx),
            DiffTimer::ReinforceTimeout { id } => self.on_reinforce_timeout(ctx, id),
        }
    }

    fn on_down(&mut self, _ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        // A failed node loses all protocol state (measurements survive —
        // they model the experimenter, not the node).
        self.seen_interests.clear();
        self.gradients.clear();
        self.expl.clear();
        self.seen_items.clear();
        self.buffer.clear();
        self.window.clear();
        self.flush_timer = None;
        self.last_seen_source.clear();
        self.source_tracks.clear();
        self.suspects.clear();
        self.last_repair.clear();
        self.link_failures.clear();
        self.last_expl = None;
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        if self.role.is_sink {
            self.originate_interest(ctx);
        }
        if self.role.is_source {
            ctx.set_timer(self.next_generate_delay(ctx.now()), DiffTimer::Generate);
        }
        let stagger = ctx.jitter(self.cfg.truncation_window);
        ctx.set_timer(self.cfg.truncation_window + stagger, DiffTimer::Truncate);
    }

    fn on_unicast_failed(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        to: NodeId,
        msg: &DiffMsg,
    ) {
        // An abandoned data frame loses its items on this path (neighbors
        // that got them via another branch still forward their copies).
        if let DiffMsg::Data { items, .. } = msg {
            let n = items.len() as u64;
            self.metric(ctx, |ids, reg| {
                reg.add(
                    ids.item_drops[wsn_net::drop_reason_index(DropReason::RetryLimit)],
                    n,
                );
            });
        }
        if ctx.trace_enabled() {
            if let DiffMsg::Data { items, .. } = msg {
                let t_ns = ctx.now().as_nanos();
                for item in items {
                    ctx.trace(TraceRecord::ItemDrop {
                        t_ns,
                        node: self.me.0,
                        src: item.source.0,
                        seq: item.round,
                        reason: DropReason::RetryLimit,
                    });
                }
            }
        }
        // The MAC exhausted its retries. One exhausted ARQ can be collision
        // bad luck under a flood burst; a *second* consecutive failure with
        // nothing heard from the neighbor in between means the link is dead.
        let failures = self.link_failures.entry(to).or_insert(0);
        *failures += 1;
        if *failures < 2 {
            return;
        }
        let now = ctx.now();
        self.suspects
            .insert(to, now + self.cfg.truncation_window.saturating_mul(4));
        // A failed *data* transmission breaks the tree below us — degrade
        // the gradient so we stop burning retries into the void; the next
        // refresh, reinforcement, repair, or exploratory round rebuilds it.
        if matches!(msg, DiffMsg::Data { .. })
            && self
                .gradients
                .slot(ctx.neighbors(), to)
                .is_some_and(|k| self.gradients.degrade(k))
        {
            self.metric(ctx, |ids, reg| reg.inc(ids.tree_edges_dropped));
        }
    }

    fn cache_size(&self) -> usize {
        // The exploratory cache dominates diffusion's per-node memory and is
        // the interesting size to watch in snapshots.
        self.expl.len()
    }
}
