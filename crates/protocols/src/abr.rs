//! ABR (associativity-based routing), as characterised by the paper:
//! beacon-counted link stability, stability-first route selection with load
//! awareness, and localized-query (LQ) repair at the break point while data
//! waits in the repairing terminal.

use rica_net::{ControlPacket, DataPacket, IdMap, NodeCtx, NodeId, RoutingProtocol, RxInfo, Timer};
use rica_sim::SimTime;

use crate::common::FlowRouter;

/// Route score under ABR's selection rules: prefer more stable links, then
/// lighter load, then fewer hops.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    stable_links: u8,
    load: u32,
    topo: u8,
}

impl Score {
    fn better_than(&self, other: &Score) -> bool {
        (self.stable_links, std::cmp::Reverse(self.load), std::cmp::Reverse(self.topo))
            > (other.stable_links, std::cmp::Reverse(other.load), std::cmp::Reverse(other.topo))
    }
}

/// ABR's discovery flood: a broadcast query that accumulates route
/// stability and load on its way to the destination.
fn bq_flood(src: NodeId, dst: NodeId, bcast_id: u64) -> ControlPacket {
    ControlPacket::Bq { src, dst, bcast_id, topo_hops: 0, stable_links: 0, load: 0 }
}

/// The ABR baseline. Flow routing and LQ repair are the shared
/// `FlowRouter` (`common.rs`); ABR adds associativity and its route score.
#[derive(Debug)]
pub struct Abr {
    /// Associativity ticks per neighbour: (consecutive beacons, last heard).
    ticks: IdMap<(u32, SimTime)>,
    /// Destination-side BQ collection window per source.
    windows: IdMap<(u64, Score, NodeId)>,
    router: FlowRouter,
}

impl Default for Abr {
    fn default() -> Self {
        Abr { ticks: IdMap::new(), windows: IdMap::new(), router: FlowRouter::new(bq_flood) }
    }
}

impl Abr {
    /// Creates a protocol instance.
    pub fn new() -> Self {
        Abr::default()
    }

    /// Associativity ticks currently credited to `neighbor`.
    pub fn ticks_for(&self, neighbor: NodeId) -> u32 {
        self.ticks.get(neighbor).map_or(0, |&(t, _)| t)
    }

    /// The downstream of the flow `(src, dst)` at this terminal, if routed.
    pub fn downstream_of(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.router.downstream(src, dst)
    }

    fn is_stable(&self, neighbor: NodeId, ctx: &dyn NodeCtx) -> bool {
        self.ticks_for(neighbor) >= ctx.config().abr_stability_ticks
    }
}

impl RoutingProtocol for Abr {
    fn name(&self) -> &'static str {
        "ABR"
    }

    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        let period = ctx.config().beacon_period;
        let jitter_ns = ctx.rng().u64_below(period.as_nanos().max(1));
        ctx.set_timer(rica_sim::SimDuration::from_nanos(jitter_ns), Timer::Beacon);
    }

    fn on_reboot(&mut self, ctx: &mut dyn NodeCtx) {
        // Cold restart: associativity ticks and routes died with the
        // node; re-arm the beacon and rebuild stability from scratch.
        *self = Abr::new();
        self.on_start(ctx);
    }

    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        let me = ctx.id();
        let now = ctx.now();
        match *pkt {
            ControlPacket::Beacon => {
                let period = ctx.config().beacon_period;
                let loss = ctx.config().beacon_loss_limit;
                let entry = self.ticks.get_or_insert_with(rx.from, || (0, now));
                let gap = now.saturating_since(entry.1);
                if gap > period.mul_f64(loss as f64 + 0.5) {
                    entry.0 = 1; // association broke; start over
                } else {
                    entry.0 = entry.0.saturating_add(1);
                }
                entry.1 = now;
            }
            ControlPacket::Bq { src, dst, bcast_id, topo_hops, stable_links, load } => {
                if src == me {
                    return;
                }
                let stable_inc = u8::from(self.is_stable(rx.from, ctx));
                let new_stable = stable_links.saturating_add(stable_inc);
                let new_topo = topo_hops.saturating_add(1);
                if dst == me {
                    if self.router.answered(src, bcast_id) {
                        return;
                    }
                    let score = Score { stable_links: new_stable, load, topo: new_topo };
                    match self.windows.get_mut(src) {
                        Some((wid, best, via)) if *wid == bcast_id => {
                            if score.better_than(best) {
                                *best = score;
                                *via = rx.from;
                            }
                        }
                        Some(_) => {}
                        None => {
                            self.windows.insert(src, (bcast_id, score, rx.from));
                            ctx.set_timer(
                                ctx.config().reply_window,
                                Timer::ReplyWindow { src, dst },
                            );
                        }
                    }
                    return;
                }
                if !self.router.floods.first_copy((src, dst), bcast_id, rx.from) {
                    return;
                }
                let new_load = load.saturating_add(ctx.data_queue_total() as u32);
                ctx.broadcast(ControlPacket::Bq {
                    src,
                    dst,
                    bcast_id,
                    topo_hops: new_topo,
                    stable_links: new_stable,
                    load: new_load,
                });
            }
            _ => self.router.on_control(ctx, pkt, rx),
        }
    }

    fn on_data(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, rx: Option<RxInfo>) {
        self.router.on_data(ctx, pkt, rx);
    }

    fn on_timer(&mut self, ctx: &mut dyn NodeCtx, timer: Timer) {
        match timer {
            Timer::Beacon => {
                ctx.broadcast(ControlPacket::Beacon);
                let period = ctx.config().beacon_period;
                ctx.set_timer(period, Timer::Beacon);
            }
            Timer::ReplyWindow { src, .. } => {
                let Some((bcast_id, score, via)) = self.windows.remove(src) else { return };
                self.router.answer(ctx, src, bcast_id, via, 0.0, score.topo);
            }
            _ => self.router.on_timer(ctx, timer),
        }
    }

    fn current_downstream(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.router.downstream(src, dst)
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut dyn NodeCtx,
        neighbor: NodeId,
        undelivered: Vec<DataPacket>,
    ) {
        self.ticks.remove(neighbor);
        self.router.on_link_failure(ctx, neighbor, undelivered, |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_channel::ChannelClass;
    use rica_net::testing::ScriptedCtx;
    use rica_net::{DropReason, FlowId};
    use rica_sim::SimDuration;

    fn rx(from: u32) -> RxInfo {
        RxInfo { from: NodeId(from), class: ChannelClass::A }
    }

    fn data(src: u32, dst: u32, seq: u64) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(src), NodeId(dst), 512, SimTime::ZERO)
    }

    fn beacon_n_times(p: &mut Abr, ctx: &mut ScriptedCtx, from: u32, n: u32) {
        for _ in 0..n {
            ctx.advance(SimDuration::from_secs(1));
            p.on_control(ctx, &ControlPacket::Beacon, rx(from));
        }
    }

    #[test]
    fn associativity_ticks_accumulate_and_reset() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        beacon_n_times(&mut p, &mut ctx, 3, 4);
        assert_eq!(p.ticks_for(NodeId(3)), 4);
        assert!(p.is_stable(NodeId(3), &ctx), "threshold is 4 ticks");
        // A long silence breaks the association: ticks restart at 1.
        ctx.advance(SimDuration::from_secs(10));
        p.on_control(&mut ctx, &ControlPacket::Beacon, rx(3));
        assert_eq!(p.ticks_for(NodeId(3)), 1);
        assert!(!p.is_stable(NodeId(3), &ctx));
    }

    #[test]
    fn bq_relay_accumulates_stability_and_load() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        beacon_n_times(&mut p, &mut ctx, 1, 5); // n1 is a stable neighbour
        ctx.set_queue_len(NodeId(7), 4); // we are loaded
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                topo_hops: 1,
                stable_links: 1,
                load: 2,
            },
            rx(1),
        );
        match &ctx.broadcasts[0] {
            ControlPacket::Bq { topo_hops, stable_links, load, .. } => {
                assert_eq!(*topo_hops, 2);
                assert_eq!(*stable_links, 2, "the stable incoming link counted");
                assert_eq!(*load, 6, "our queue occupancy added");
            }
            other => panic!("expected BQ, got {other:?}"),
        }
    }

    #[test]
    fn destination_prefers_stability_over_hops() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Abr::new();
        let bq = |stable: u8, topo: u8, load: u32| ControlPacket::Bq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            topo_hops: topo,
            stable_links: stable,
            load,
        };
        // Short but unstable route via n1.
        p.on_control(&mut ctx, &bq(0, 2, 0), rx(1));
        // Longer, fully stable route via n2 — ABR picks this one
        // ("ABR inclines to select the route with the highest stability and
        // normally such a route has a greater number of hops").
        p.on_control(&mut ctx, &bq(4, 5, 0), rx(2));
        let t = ctx.fire_next_timer();
        assert_eq!(t, Timer::ReplyWindow { src: NodeId(0), dst: NodeId(9) });
        p.on_timer(&mut ctx, t);
        assert_eq!(ctx.unicasts.len(), 1);
        assert_eq!(ctx.unicasts[0].0, NodeId(2));
    }

    #[test]
    fn destination_breaks_stability_ties_by_load_then_hops() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Abr::new();
        let bq = |stable: u8, topo: u8, load: u32| ControlPacket::Bq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            topo_hops: topo,
            stable_links: stable,
            load,
        };
        p.on_control(&mut ctx, &bq(2, 3, 9), rx(1));
        p.on_control(&mut ctx, &bq(2, 6, 2), rx(2)); // lighter load wins
        p.on_control(&mut ctx, &bq(2, 2, 9), rx(3));
        let t = ctx.fire_next_timer();
        p.on_timer(&mut ctx, t);
        assert_eq!(ctx.unicasts[0].0, NodeId(2));
    }

    #[test]
    fn link_failure_triggers_lq_and_holds_data() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        // Establish a route as relay: BQ then RREP.
        p.on_control(
            &mut ctx,
            &ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                topo_hops: 0,
                stable_links: 0,
                load: 0,
            },
            rx(1),
        );
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 3,
            },
            rx(7),
        );
        ctx.clear_actions();
        // The link to n7 breaks with a packet in flight.
        p.on_link_failure(&mut ctx, NodeId(7), vec![data(0, 9, 1)]);
        // An LQ flood goes out; the packet is NOT dropped.
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Lq { .. })));
        assert!(ctx.dropped.is_empty());
        // More data arriving during the repair is held too.
        p.on_data(&mut ctx, data(0, 9, 2), Some(rx(1)));
        assert!(ctx.sent_data.is_empty());
        // The destination answers: packets flush along the partial route.
        p.on_control(
            &mut ctx,
            &ControlPacket::LqRep {
                src: NodeId(0),
                dst: NodeId(9),
                origin: NodeId(5),
                seq: 0,
                csi_hops: 1.0,
                topo_hops: 2,
            },
            rx(8),
        );
        assert_eq!(ctx.sent_data.len(), 2, "held packets released");
        assert!(ctx.sent_data.iter().all(|(nh, _)| *nh == NodeId(8)));
        assert_eq!(p.downstream_of(NodeId(0), NodeId(9)), Some(NodeId(8)));
    }

    #[test]
    fn lq_timeout_drops_held_and_notifies_source() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                topo_hops: 0,
                stable_links: 0,
                load: 0,
            },
            rx(1),
        );
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 3,
            },
            rx(7),
        );
        ctx.clear_actions();
        p.on_link_failure(&mut ctx, NodeId(7), vec![data(0, 9, 1)]);
        // Fire the LQ deadline without any reply.
        let t = ctx
            .pending_timers()
            .iter()
            .map(|t| t.timer)
            .find(|t| matches!(t, Timer::LqTimeout { .. }))
            .expect("deadline armed");
        ctx.advance(SimDuration::from_secs(1));
        p.on_timer(&mut ctx, t);
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::LinkBreak);
        assert!(ctx
            .unicasts
            .iter()
            .any(|(to, pkt)| *to == NodeId(1) && matches!(pkt, ControlPacket::Rerr { .. })));
    }

    #[test]
    fn lq_relay_decrements_ttl_and_dst_replies() {
        let mut relay_ctx = ScriptedCtx::new(NodeId(6));
        let mut relay = Abr::new();
        relay.on_control(
            &mut relay_ctx,
            &ControlPacket::Lq {
                src: NodeId(0),
                dst: NodeId(9),
                origin: NodeId(5),
                bcast_id: 3,
                ttl: 2,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            rx(5),
        );
        assert!(matches!(relay_ctx.broadcasts[0], ControlPacket::Lq { ttl: 1, topo_hops: 1, .. }));
        // Destination replies immediately to the first copy.
        let mut dst_ctx = ScriptedCtx::new(NodeId(9));
        let mut dst = Abr::new();
        dst.on_control(
            &mut dst_ctx,
            &ControlPacket::Lq {
                src: NodeId(0),
                dst: NodeId(9),
                origin: NodeId(5),
                bcast_id: 3,
                ttl: 1,
                csi_hops: 1.0,
                topo_hops: 1,
            },
            rx(6),
        );
        assert!(matches!(
            dst_ctx.unicasts[0],
            (NodeId(6), ControlPacket::LqRep { origin: NodeId(5), seq: 3, .. })
        ));
    }

    #[test]
    fn source_restarts_discovery_on_rerr() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Abr::new();
        p.on_data(&mut ctx, data(0, 9, 0), None);
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 2,
            },
            rx(4),
        );
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(4) },
            rx(4),
        );
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Bq { .. })));
    }
}
