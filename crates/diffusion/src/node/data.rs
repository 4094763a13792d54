//! Data plane: sending helpers, event generation, the aggregation buffer
//! with delay `T_a` (§4.2), and data forwarding.

use wsn_net::{Ctx, NodeId};
use wsn_sim::{SimDuration, SimTime};
use wsn_trace::{join_lineage, DropReason, LineageId, TraceRecord};

use crate::aggregate::IncomingAgg;
use crate::msg::{DiffMsg, EventItem, MsgId};
use crate::truncate::WindowEntry;

use super::{DiffTimer, DiffusionNode};

impl DiffusionNode {
    /// The lineage id of one event item (`source#round` on the wire).
    fn item_lineage(item: &EventItem) -> LineageId {
        LineageId {
            src: item.source.0,
            seq: item.round,
        }
    }

    /// The lineage wire string of an outgoing message. Only payload-bearing
    /// messages (data aggregates and exploratory events) carry event
    /// lineage; control traffic has none. Called only on traced runs —
    /// untraced sends must not pay for the encoding. The caller interns the
    /// string (see [`Ctx::intern_lineage`]) so the packet carries a `Copy`
    /// handle and repeats of the same set allocate once.
    fn msg_lineage(msg: &DiffMsg) -> Option<String> {
        match msg {
            DiffMsg::Exploratory { item, .. } => Some(join_lineage([Self::item_lineage(item)])),
            DiffMsg::Data { items, .. } => Some(join_lineage(items.iter().map(Self::item_lineage))),
            _ => None,
        }
    }

    pub(super) fn send_now(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        dst: Option<NodeId>,
        msg: DiffMsg,
    ) {
        let bytes = msg.wire_bytes(&self.cfg);
        self.counters.count_sent(msg.kind());
        if matches!(msg, DiffMsg::Interest { .. }) {
            self.metric(ctx, |ids, reg| reg.inc(ids.interests_sent));
        }
        let lineage = if ctx.trace_enabled() {
            Self::msg_lineage(&msg).map(|wire| ctx.intern_lineage(&wire))
        } else {
            None
        };
        match dst {
            None => ctx.broadcast_with_lineage(bytes, msg, lineage),
            Some(n) => ctx.unicast_with_lineage(n, bytes, msg, lineage),
        }
    }

    pub(super) fn send_jittered(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        max_jitter: SimDuration,
        dst: Option<NodeId>,
        msg: DiffMsg,
    ) {
        if max_jitter.is_zero() {
            self.send_now(ctx, dst, msg);
        } else {
            let delay = ctx.jitter(max_jitter);
            ctx.set_timer(delay, DiffTimer::SendJittered { msg, dst });
        }
    }

    /// The event round at time `now` — derived from time, not a counter, so
    /// that sources stay synchronized across failures ("sources can be
    /// synchronized if they are triggered by the same phenomena").
    fn round_at(&self, now: SimTime) -> u32 {
        let elapsed = now.saturating_duration_since(SimTime::ZERO + self.cfg.source_start);
        u32::try_from(elapsed.as_nanos() / self.cfg.event_period.as_nanos().max(1))
            .expect("round exceeds u32")
    }

    pub(super) fn generate_event(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        let now = ctx.now();
        let round = self.round_at(now);
        let item = EventItem {
            source: self.me,
            round,
            generated: now,
        };
        self.last_seen_source.insert(self.me, now);
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
                let jitter = self.cfg.send_jitter;
                self.send_jittered(ctx, jitter, None, msg);
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
        ctx.set_timer(self.next_generate_delay(now), DiffTimer::Generate);
    }

    /// Delay until the next round boundary (exact, so rounds stay aligned).
    pub(super) fn next_generate_delay(&self, now: SimTime) -> SimDuration {
        let period = self.cfg.event_period.as_nanos().max(1);
        let start = self.cfg.source_start.as_nanos();
        let now_ns = now.as_nanos();
        let next = if now_ns < start {
            start
        } else {
            start + ((now_ns - start) / period + 1) * period
        };
        SimDuration::from_nanos(next - now_ns)
    }

    /// The sources whose data passed through here within the truncation
    /// window — the node's current notion of "expected" upstream sources.
    fn expected_sources(&self, now: SimTime) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .last_seen_source
            .iter()
            .filter(|(_, &t)| now.saturating_duration_since(t) <= self.cfg.truncation_window)
            .map(|(&s, _)| s)
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
                    ids.item_drops[wsn_net::drop_reason_index(DropReason::NoRoute)],
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
            let jitter = self.cfg.send_jitter;
            self.send_jittered(ctx, jitter, Some(n), msg);
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
            self.last_seen_source.insert(item.source, now);
            if let Some(track) = self.source_tracks.get_mut(&item.source) {
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
                    reg.inc(
                        ids.item_drops[wsn_net::drop_reason_index(DropReason::CacheSuppressed)],
                    );
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
        let node = DiffusionNode::new(DiffusionConfig::default(), NodeId(0), Role::SOURCE);
        // source_start = 5 s, period = 0.5 s.
        assert_eq!(node.round_at(SimTime::from_secs(5)), 0);
        assert_eq!(node.round_at(SimTime::from_secs_f64(5.5)), 1);
        assert_eq!(node.round_at(SimTime::from_secs(55)), 100);
        // Before the start: round 0.
        assert_eq!(node.round_at(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn next_generate_delay_aligns_to_round_boundaries() {
        let node = DiffusionNode::new(DiffusionConfig::default(), NodeId(0), Role::SOURCE);
        // At t = 0 the first event is at source_start.
        assert_eq!(
            node.next_generate_delay(SimTime::ZERO),
            SimDuration::from_secs(5)
        );
        // Exactly on a boundary: next boundary is one full period later.
        assert_eq!(
            node.next_generate_delay(SimTime::from_secs(5)),
            SimDuration::from_millis(500)
        );
        // Mid-period: the remainder.
        assert_eq!(
            node.next_generate_delay(SimTime::from_secs_f64(5.2)),
            SimDuration::from_millis(300)
        );
    }

    #[test]
    fn expected_sources_respects_window() {
        let mut node = DiffusionNode::new(DiffusionConfig::default(), NodeId(0), Role::RELAY);
        node.last_seen_source
            .insert(NodeId(1), SimTime::from_secs(10));
        node.last_seen_source
            .insert(NodeId(2), SimTime::from_secs(5));
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
