//! Reinforcement handling: positive reinforcement propagation, negative
//! reinforcement / path truncation (§4.3), and local path repair.

use wsn_net::{Ctx, NodeId};
use wsn_sim::SimDuration;

use crate::msg::{DiffMsg, MsgId, ReinforceKind};

use super::{DiffTimer, DiffusionNode};

impl DiffusionNode {
    pub(super) fn on_reinforce(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        from: NodeId,
        id: MsgId,
        kind: ReinforceKind,
    ) {
        let now = ctx.now();
        // A reinforcement from a neighbor without a live data gradient grows
        // the aggregation tree by one edge (us → them, toward the sink).
        let new_edge = !self.gradients.has_data(from, now);
        self.gradients
            .reinforce(from, now + self.cfg.data_gradient_timeout);
        self.metric(ctx, |ids, reg| {
            reg.inc(ids.reinforcements);
            if new_edge {
                reg.inc(ids.tree_edges_added);
            }
        });
        if ctx.trace_enabled() {
            let t_ns = now.as_nanos();
            ctx.trace(wsn_trace::TraceRecord::GradientReinforce {
                t_ns,
                node: self.me.0,
                from: from.0,
                kind: kind.name(),
            });
            if new_edge {
                ctx.trace(wsn_trace::TraceRecord::TreeEdge {
                    t_ns,
                    node: self.me.0,
                    parent: from.0,
                });
            }
        }
        if id.source == self.me {
            return; // the tree reached the source
        }
        match kind {
            ReinforceKind::Refresh => {} // gradient extended; nothing to propagate
            ReinforceKind::Establish => {
                let Some(entry) = self.expl.entry_mut(id) else {
                    return; // nothing known about this event; gradient is set anyway
                };
                if entry.reinforce_sent {
                    return;
                }
                entry.reinforce_sent = true;
                if let Some((up, _kind)) = self.expl.choose_upstream(id, self.cfg.scheme) {
                    if up != from && up != self.me {
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
            }
            ReinforceKind::Repair => {
                // Continue the repair walk only while we are ourselves
                // starved for this source — a node with fresh data is the
                // working part of the tree and data will now flow down.
                let starved = self.source_tracks.get(&id.source).is_none_or(|t| {
                    now.saturating_duration_since(t.last_item) > self.repair_silence()
                });
                if starved {
                    self.attempt_repair(ctx, id.source, Some(from));
                }
            }
        }
    }

    /// How long a source may be silent before repair kicks in (2·T_n).
    pub(super) fn repair_silence(&self) -> SimDuration {
        self.cfg.truncation_window.saturating_mul(2)
    }

    /// Sends a repair reinforcement toward the best non-suspect upstream
    /// offer for `source`'s latest exploratory id, rate-limited to one per
    /// truncation window per source. `exclude` additionally skips the
    /// neighbor the repair request came from (never bounce it back).
    fn attempt_repair(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        source: NodeId,
        exclude: Option<NodeId>,
    ) {
        let now = ctx.now();
        let Some(track) = self.source_tracks.get(&source).copied() else {
            return;
        };
        // Stale knowledge: past one exploratory interval the cached offers
        // no longer describe the network; wait for the next round instead.
        if now.saturating_duration_since(track.last_id.round_time(&self.cfg))
            > self.cfg.exploratory_interval
        {
            return;
        }
        if self
            .last_repair
            .get(&source)
            .is_some_and(|&t| now.saturating_duration_since(t) < self.cfg.truncation_window)
        {
            return;
        }
        let mut excluded: Vec<NodeId> = self
            .suspects
            .iter()
            .filter(|(_, &u)| u >= now)
            .map(|(&n, _)| n)
            .collect();
        excluded.push(self.me);
        excluded.extend(exclude);
        if let Some((up, _)) =
            self.expl
                .choose_upstream_excluding(track.last_id, self.cfg.scheme, &excluded)
        {
            self.last_repair.insert(source, now);
            self.send_now(
                ctx,
                Some(up),
                DiffMsg::Reinforce {
                    id: track.last_id,
                    kind: ReinforceKind::Repair,
                },
            );
        }
    }

    pub(super) fn on_negative_reinforce(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        from: NodeId,
    ) {
        let now = ctx.now();
        let had_data = self.gradients.degrade(from);
        if had_data {
            self.metric(ctx, |ids, reg| reg.inc(ids.tree_edges_dropped));
        }
        if had_data && !self.gradients.on_tree(now) {
            // All gradients are exploratory now: truncate our own upstream
            // data senders (the cascade of §4.3).
            self.window.evict(now);
            for u in self.window.senders() {
                self.send_jittered(
                    ctx,
                    self.cfg.send_jitter,
                    Some(u),
                    DiffMsg::NegativeReinforce,
                );
            }
        }
    }

    pub(super) fn on_truncate_tick(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        let now = ctx.now();
        // Truncation applies to nodes pulling data from several neighbors.
        let truncated = self.window.decide(self.cfg.scheme, now);
        for &n in &truncated {
            self.send_jittered(
                ctx,
                self.cfg.send_jitter,
                Some(n),
                DiffMsg::NegativeReinforce,
            );
        }
        // Data-driven re-reinforcement: diffusion's reinforcement is a
        // repeated interest, so neighbors actively delivering new data have
        // their data gradients refreshed — otherwise the surviving path of a
        // truncated pair would silently expire between exploratory rounds.
        // Only consumers refresh: a node that is neither a sink nor on the
        // tree has no business drawing down data, and instead truncates
        // whoever keeps feeding it (the cascade of §4.3, re-asserted
        // periodically in case the one-shot cascade message was lost).
        let wants_data = self.role.is_sink || self.gradients.on_tree(now);
        if wants_data {
            if let Some(id) = self.last_expl {
                for u in self.window.senders_with_new() {
                    if !truncated.contains(&u) {
                        self.send_jittered(
                            ctx,
                            self.cfg.send_jitter,
                            Some(u),
                            DiffMsg::Reinforce {
                                id,
                                kind: ReinforceKind::Refresh,
                            },
                        );
                    }
                }
            }
        } else {
            for u in self.window.senders() {
                if !truncated.contains(&u) {
                    self.send_jittered(
                        ctx,
                        self.cfg.send_jitter,
                        Some(u),
                        DiffMsg::NegativeReinforce,
                    );
                }
            }
        }
        // Local path repair: a *sink* that stopped hearing from a source it
        // recently tracked re-reinforces an alternative upstream. Relays
        // never initiate repair (they cannot know which sources they are
        // supposed to relay); they only continue walks while starved.
        if self.role.is_sink {
            let silence = self.repair_silence();
            let mut starved: Vec<NodeId> = self
                .source_tracks
                .iter()
                .filter(|(_, t)| now.saturating_duration_since(t.last_item) > silence)
                .map(|(&s, _)| s)
                .collect();
            starved.sort_unstable();
            for source in starved {
                self.attempt_repair(ctx, source, None);
            }
        }
        self.suspects.retain(|_, &mut until| until >= now);
        // Housekeeping rides the same periodic timer.
        self.gradients.sweep(now);
        let history = self.cfg.exploratory_interval.saturating_mul(2);
        let horizon =
            wsn_sim::SimTime::from_nanos(now.as_nanos().saturating_sub(history.as_nanos()));
        self.expl.expire_before(horizon);
        self.last_seen_source
            .retain(|_, &mut t| now.saturating_duration_since(t) <= self.cfg.truncation_window);
        ctx.set_timer(self.cfg.truncation_window, DiffTimer::Truncate);
    }
}
