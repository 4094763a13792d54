//! Control plane: interests, exploratory events, and incremental costs.
//!
//! Sinks originate periodic interests (§2); every node floods them and
//! refreshes exploratory gradients. Sources flood exploratory events with
//! the energy attribute `E`, and on-tree sources advertise tree proximity
//! with incremental cost messages `C` (§4.1, greedy scheme).

use wsn_net::{Ctx, NodeId};
use wsn_trace::{DropReason, TraceRecord};

use crate::config::Scheme;
use crate::msg::{DiffMsg, EventItem, MsgId, ReinforceKind};

use super::{DiffTimer, DiffusionNode, SourceTrack};

impl DiffusionNode {
    pub(super) fn originate_interest(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        let seq = self.interest_seq;
        self.interest_seq += 1;
        self.seen_interests.insert((self.me, seq));
        let msg = DiffMsg::Interest { sink: self.me, seq };
        let jitter = self.cfg.send_jitter;
        self.send_jittered(ctx, jitter, None, msg);
        ctx.set_timer(self.cfg.interest_period, DiffTimer::Interest);
    }

    fn sink_consider_reinforce(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        id: MsgId,
        from: NodeId,
    ) {
        match self.cfg.scheme {
            Scheme::Opportunistic => {
                // Reinforce the neighbor that delivered the first copy,
                // immediately.
                let entry = self.expl.entry_mut(id).expect("entry just recorded");
                if !entry.reinforce_sent {
                    entry.reinforce_sent = true;
                    self.send_now(
                        ctx,
                        Some(from),
                        DiffMsg::Reinforce {
                            id,
                            kind: ReinforceKind::Establish,
                        },
                    );
                }
            }
            Scheme::Greedy => {
                // Wait T_p, collecting exploratory and incremental offers.
                let entry = self.expl.entry_mut(id).expect("entry just recorded");
                if !entry.timer_armed && !entry.reinforce_sent {
                    entry.timer_armed = true;
                    ctx.set_timer(self.cfg.reinforce_delay, DiffTimer::ReinforceTimeout { id });
                }
            }
        }
    }

    pub(super) fn on_reinforce_timeout(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        id: MsgId,
    ) {
        let Some(entry) = self.expl.entry_mut(id) else {
            return; // state wiped by a failure in between
        };
        if entry.reinforce_sent {
            return;
        }
        entry.reinforce_sent = true;
        if let Some((up, _kind)) = self
            .expl
            .choose_upstream(ctx.neighbors(), id, self.cfg.scheme)
        {
            self.send_now(
                ctx,
                Some(up),
                DiffMsg::Reinforce {
                    id,
                    kind: ReinforceKind::Establish,
                },
            );
        }
    }

    pub(super) fn on_exploratory(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        from: NodeId,
        slot: usize,
        id: MsgId,
        item: EventItem,
        energy: u32,
    ) {
        let now = ctx.now();
        let first = self.expl.record_exploratory(id, item, slot, energy, now);
        if !first {
            // Duplicate exploratory copy: the cache suppresses the re-flood.
            self.metric(ctx, |ids, reg| {
                reg.inc(ids.item_drops[wsn_net::drop_reason_index(DropReason::CacheSuppressed)]);
            });
            if ctx.trace_enabled() {
                ctx.trace(TraceRecord::ItemDrop {
                    t_ns: now.as_nanos(),
                    node: self.me.0,
                    src: item.source.0,
                    seq: item.round,
                    reason: DropReason::CacheSuppressed,
                });
            }
            return;
        }
        self.last_expl = Some(id);
        let track = self.source_tracks.entry(id.source).or_insert(SourceTrack {
            last_item: now,
            last_id: id,
        });
        if id.round >= track.last_id.round {
            track.last_id = id;
        }
        // Sinks consume the event (exploratory events are real events).
        if self.role.is_sink {
            if self.seen_items.insert(item.key()) {
                self.sink.record_distinct(&item, now);
                if ctx.trace_enabled() {
                    ctx.trace(TraceRecord::EventDeliver {
                        t_ns: now.as_nanos(),
                        node: self.me.0,
                        src: item.source.0,
                        seq: item.round,
                        gen_ns: item.generated.as_nanos(),
                    });
                }
            } else {
                self.sink.record_duplicate();
            }
            self.sink_consider_reinforce(ctx, id, from);
        }
        // Re-flood along gradients with E increased by this transmission.
        if self.gradients.any_live(now) {
            let msg = DiffMsg::Exploratory {
                id,
                item,
                energy: energy + 1,
            };
            let jitter = self.cfg.exploratory_jitter;
            self.send_jittered(ctx, jitter, None, msg);
        }
        // An on-tree *source* hearing another source's exploratory event
        // advertises the tree's proximity with an incremental cost message
        // (greedy scheme only).
        if self.cfg.scheme == Scheme::Greedy
            && self.role.is_source
            && id.source != self.me
            && self.gradients.on_tree(now)
            && self.expl.first_incremental(id, self.me)
        {
            for n in self.gradients.data_neighbors(ctx.neighbors(), now) {
                let msg = DiffMsg::IncrementalCost {
                    id,
                    origin: self.me,
                    cost: energy,
                };
                let jitter = self.cfg.send_jitter;
                self.send_jittered(ctx, jitter, Some(n), msg);
            }
        }
    }

    pub(super) fn on_incremental(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        from: NodeId,
        slot: usize,
        id: MsgId,
        origin: NodeId,
        cost: u32,
    ) {
        let now = ctx.now();
        let placeholder = EventItem {
            source: id.source,
            round: id.round,
            generated: now,
        };
        self.expl
            .record_incremental(id, placeholder, slot, cost, now);
        if self.role.is_sink {
            // Offers recorded; make sure a reinforcement decision happens
            // even if the exploratory flood misses us.
            if self.cfg.scheme == Scheme::Greedy {
                let entry = self.expl.entry_mut(id).expect("entry just recorded");
                if !entry.timer_armed && !entry.reinforce_sent {
                    entry.timer_armed = true;
                    ctx.set_timer(self.cfg.reinforce_delay, DiffTimer::ReinforceTimeout { id });
                }
            }
            return;
        }
        if self.expl.first_incremental(id, origin) {
            // C only ever decreases: clamp to our own exploratory cost E.
            let new_cost = match self.expl.own_energy(id) {
                Some(e) => cost.min(e),
                None => cost,
            };
            for n in self.gradients.data_neighbors(ctx.neighbors(), now) {
                if n == from {
                    continue; // never bounce it straight back
                }
                let msg = DiffMsg::IncrementalCost {
                    id,
                    origin,
                    cost: new_cost,
                };
                let jitter = self.cfg.send_jitter;
                self.send_jittered(ctx, jitter, Some(n), msg);
            }
        }
    }
}
