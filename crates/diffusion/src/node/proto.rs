//! The [`Protocol`] impl: dispatches packets, timers, and node-lifecycle
//! callbacks into the control, data, and reinforcement submodules.

use wsn_net::{Ctx, NodeId, Packet, Protocol};
use wsn_trace::{join_lineage, DropReason, TraceRecord};

use crate::cache::ExplCache;
use crate::config::{next_generate_delay, FLOOD_JITTER, GRADIENT_TIMEOUT};
use crate::exact;
use crate::gradient::GradientTable;
use crate::msg::DiffMsg;

use super::{DiffTimer, DiffusionNode, FailingLink};

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
            ctx.set_timer(next_generate_delay(ctx.now()), DiffTimer::Generate);
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
        // Hearing anything from a neighbor clears its failures and any
        // suspicion. The list is almost always empty: skip the scan then.
        if !self.failing_links.is_empty() {
            exact::retain(&mut self.failing_links, |l| l.neighbor != from);
        }
        match packet.payload {
            DiffMsg::Interest { sink, seq } => {
                let now = ctx.now();
                self.gradients
                    .refresh_exploratory(slot, now + GRADIENT_TIMEOUT);
                if self.seen_interests.insert((sink, seq)) {
                    self.send_jittered(ctx, FLOOD_JITTER, None, DiffMsg::Interest { sink, seq });
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
        exact::clear(&mut self.last_seen_source);
        exact::clear(&mut self.source_tracks);
        exact::clear(&mut self.last_repair);
        exact::clear(&mut self.failing_links);
        self.last_expl = None;
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        if self.role.is_sink {
            self.originate_interest(ctx);
        }
        if self.role.is_source {
            ctx.set_timer(next_generate_delay(ctx.now()), DiffTimer::Generate);
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
                reg.add(ids.item_drops[DropReason::RetryLimit.index()], n);
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
        let now = ctx.now();
        let link = match self.failing_links.iter().position(|l| l.neighbor == to) {
            Some(i) => &mut self.failing_links[i],
            None => {
                let link = FailingLink {
                    neighbor: to,
                    failures: 0,
                    suspect_until: now,
                };
                exact::push(&mut self.failing_links, link);
                self.failing_links.last_mut().expect("just pushed")
            }
        };
        link.failures += 1;
        if link.failures < 2 {
            return;
        }
        link.suspect_until = now + self.cfg.truncation_window.saturating_mul(4);
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

    fn lineage(msg: &DiffMsg) -> Option<String> {
        // Only payload-bearing messages (exploratory events and data
        // aggregates) carry event lineage; control traffic has none.
        match msg {
            DiffMsg::Exploratory { item, .. } => Some(join_lineage([Self::item_lineage(item)])),
            DiffMsg::Data { items, .. } => Some(join_lineage(items.iter().map(Self::item_lineage))),
            _ => None,
        }
    }
}
