//! Data plane: sending helpers, event generation, the aggregation buffer
//! with delay `T_a` (§4.2), and data forwarding.

use wsn_net::{Ctx, NodeId};
use wsn_sim::{SimDuration, SimTime};
use wsn_trace::{join_lineage, DropReason, LineageId, TraceRecord};

use crate::aggregate::IncomingAgg;
use crate::config::{next_generate_delay, round_at, SEND_JITTER};
use crate::exact;
use crate::msg::{DiffMsg, EventItem, MsgId};
use crate::truncate::WindowEntry;

use super::{DiffTimer, DiffusionNode};

impl DiffusionNode {
    /// The lineage id of one event item (`source#round` on the wire).
    pub(super) fn item_lineage(item: &EventItem) -> LineageId {
        LineageId {
            src: item.source.0,
            seq: item.round,
        }
    }

    pub(super) fn send_now(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        dst: Option<NodeId>,
        msg: DiffMsg,
    ) {
        let bytes = msg.wire_bytes(self.cfg.aggregation);
        self.counters.count_sent(msg.kind());
        if matches!(msg, DiffMsg::Interest { .. }) {
            self.metric(ctx, |ids, reg| reg.inc(ids.interests_sent));
        }
        match dst {
            None => ctx.broadcast(bytes, msg),
            Some(n) => ctx.unicast(n, bytes, msg),
        }
    }

    pub(super) fn send_jittered(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        max_jitter: SimDuration,
        dst: Option<NodeId>,
        msg: DiffMsg,
    ) {
        let delay = ctx.jitter(max_jitter);
        ctx.set_timer(delay, DiffTimer::SendJittered { msg, dst });
    }

    pub(super) fn generate_event(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        let now = ctx.now();
        let round = round_at(now);
        let item = EventItem {
            source: self.me,
            round,
            generated: now,
        };
        exact::set(&mut self.last_seen_source, self.me, now);
        self.events_generated += 1;
        if ctx.trace_enabled() {
            ctx.trace(TraceRecord::EventGen {
                t_ns: now.as_nanos(),
                node: self.me.0,
                seq: round,
            });
        }
        let exploratory = round.is_multiple_of(self.cfg.rounds_per_exploratory());
        if exploratory {
            let id = MsgId {
                source: self.me,
                round,
            };
            // Record in our own cache: cost to ourselves is 0 and the
            // reinforcement walk must stop here.
            let own = self.expl.own_slot();
            self.expl.record_exploratory(id, item, own, 0, now);
            self.last_expl = Some(id);
            if let Some(e) = self.expl.entry_mut(id) {
                e.reinforce_sent = true;
            }
            self.seen_items.insert(item.key());
            if self.gradients.any_live(now) {
                let msg = DiffMsg::Exploratory {
                    id,
                    item,
                    energy: 1,
                };
                self.send_jittered(ctx, SEND_JITTER, None, msg);
            }
        } else {
            self.seen_items.insert(item.key());
            self.buffer.offer(
                IncomingAgg {
                    from: None,
                    items: vec![item],
                    cost: 0.0,
                    arrived: now,
                },
                &[item],
            );
            self.maybe_flush(ctx);
        }
        ctx.set_timer(next_generate_delay(now), DiffTimer::Generate);
    }

    /// The sources whose data passed through here within the truncation
    /// window — the node's current notion of "expected" upstream sources.
    fn expected_sources(&self, now: SimTime) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .last_seen_source
            .iter()
            .filter(|&&(_, t)| now.saturating_duration_since(t) <= self.cfg.truncation_window)
            .map(|&(s, _)| s)
            .collect();
        v.sort_unstable();
        v
    }

    fn maybe_flush(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        if !self.buffer.has_pending() {
            return;
        }
        let now = ctx.now();
        let expected = self.expected_sources(now);
        let not_aggregation_point = expected.len() <= 1;
        let sufficient = !not_aggregation_point && {
            let pending = self.buffer.pending_sources();
            expected.iter().all(|s| pending.binary_search(s).is_ok())
        };
        if not_aggregation_point || sufficient {
            self.flush(ctx);
        } else if self.flush_timer.is_none() {
            self.flush_timer = Some(ctx.set_timer(self.cfg.aggregation_delay, DiffTimer::Flush));
        }
    }

    pub(super) fn flush(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        if let Some(h) = self.flush_timer.take() {
            ctx.cancel_timer(h);
        }
        let inputs = self.buffer.cycle_len();
        let Some(out) = self.buffer.flush() else {
            return;
        };
        self.metric(ctx, |ids, reg| reg.observe(ids.agg_fanin, inputs as u64));
        if ctx.trace_enabled() {
            ctx.trace(TraceRecord::AggMerge {
                t_ns: ctx.now().as_nanos(),
                node: self.me.0,
                inputs: inputs as u32,
                items: out.items.len() as u32,
                cost: out.cost,
                lineage: join_lineage(out.items.iter().map(Self::item_lineage)),
            });
        }
        let now = ctx.now();
        let downstream = self.gradients.data_neighbors(ctx.neighbors(), now);
        if downstream.is_empty() {
            self.metric(ctx, |ids, reg| {
                reg.add(
                    ids.item_drops[DropReason::NoRoute.index()],
                    out.items.len() as u64,
                );
            });
            if ctx.trace_enabled() {
                for item in &out.items {
                    ctx.trace(TraceRecord::ItemDrop {
                        t_ns: now.as_nanos(),
                        node: self.me.0,
                        src: item.source.0,
                        seq: item.round,
                        reason: DropReason::NoRoute,
                    });
                }
            }
            return;
        }
        for n in downstream {
            let msg = DiffMsg::Data {
                items: out.items.clone(),
                cost: out.cost,
            };
            self.send_jittered(ctx, SEND_JITTER, Some(n), msg);
        }
    }

    pub(super) fn on_data(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        from: NodeId,
        items: &[EventItem],
        cost: f64,
    ) {
        let now = ctx.now();
        let mut new_items = Vec::new();
        for item in items {
            exact::set(&mut self.last_seen_source, item.source, now);
            if let Some(track) = self
                .source_tracks
                .iter_mut()
                .find(|t| t.source == item.source)
            {
                track.last_item = now;
            }
            if self.seen_items.insert(item.key()) {
                new_items.push(*item);
                if self.role.is_sink {
                    self.sink.record_distinct(item, now);
                    if ctx.trace_enabled() {
                        ctx.trace(TraceRecord::EventDeliver {
                            t_ns: now.as_nanos(),
                            node: self.me.0,
                            src: item.source.0,
                            seq: item.round,
                            gen_ns: item.generated.as_nanos(),
                        });
                    }
                }
            } else {
                if self.role.is_sink {
                    self.sink.record_duplicate();
                }
                // The copy goes no further here: the dedup cache absorbed it.
                self.metric(ctx, |ids, reg| {
                    reg.inc(ids.item_drops[DropReason::CacheSuppressed.index()]);
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
            }
        }
        self.window.record(WindowEntry {
            from,
            items: items.to_vec(),
            cost,
            arrived: now,
            had_new: !new_items.is_empty(),
        });
        // Sinks consume; they only buffer-and-forward when they are also a
        // relay on another sink's tree (they hold data gradients).
        if !self.role.is_sink || self.gradients.on_tree(now) {
            self.buffer.offer(
                IncomingAgg {
                    from: Some(from),
                    items: items.to_vec(),
                    cost,
                    arrived: now,
                },
                &new_items,
            );
            self.maybe_flush(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiffusionConfig;
    use crate::node::Role;

    #[test]
    fn round_is_derived_from_time() {
        // source_start = 5 s, period = 0.5 s.
        assert_eq!(round_at(SimTime::from_secs(5)), 0);
        assert_eq!(round_at(SimTime::from_secs_f64(5.5)), 1);
        assert_eq!(round_at(SimTime::from_secs(55)), 100);
        // Before the start: round 0.
        assert_eq!(round_at(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn next_generate_delay_aligns_to_round_boundaries() {
        // At t = 0 the first event is at source_start.
        assert_eq!(
            next_generate_delay(SimTime::ZERO),
            SimDuration::from_secs(5)
        );
        // Exactly on a boundary: next boundary is one full period later.
        assert_eq!(
            next_generate_delay(SimTime::from_secs(5)),
            SimDuration::from_millis(500)
        );
        // Mid-period: the remainder.
        assert_eq!(
            next_generate_delay(SimTime::from_secs_f64(5.2)),
            SimDuration::from_millis(300)
        );
    }

    #[test]
    fn expected_sources_respects_window() {
        let mut node = DiffusionNode::new(DiffusionConfig::default(), NodeId(0), Role::RELAY);
        exact::set(
            &mut node.last_seen_source,
            NodeId(1),
            SimTime::from_secs(10),
        );
        exact::set(&mut node.last_seen_source, NodeId(2), SimTime::from_secs(5));
        // Window T_n = 2 s: at t = 11 only source 1 is fresh.
        assert_eq!(
            node.expected_sources(SimTime::from_secs(11)),
            vec![NodeId(1)]
        );
        assert_eq!(
            node.expected_sources(SimTime::from_secs(10)),
            vec![NodeId(1)]
        );
    }
}
