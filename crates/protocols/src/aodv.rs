//! AODV in the paper's variant (§III.B): destination answers only the first
//! RREQ copy; no channel awareness; break → REER to source → full re-flood.

use rica_net::{
    ControlPacket, DataPacket, Discovery, DropReason, FloodHistory, IdMap, KeyMap, NodeCtx, NodeId,
    RoutePhase, RoutingProtocol, RxInfo, Timer,
};
use rica_sim::SimTime;

use crate::common::FlowKey;

#[derive(Debug, Clone, Copy)]
struct Route {
    next_hop: NodeId,
    last_used: SimTime,
}

/// The AODV baseline.
///
/// Destination-keyed routes (classic AODV), reverse pointers per flood for
/// RREP delivery, and per-flow upstream memory so REERs can travel back to
/// the source. Channel state (CSI) is deliberately ignored — that is the
/// paper's point of comparison.
#[derive(Debug, Default)]
pub struct Aodv {
    /// Per-flow RREQ dedup + reverse pointers.
    reverse: FloodHistory<u64>,
    /// At a destination: highest flood id already answered, per source.
    replied: IdMap<u64>,
    /// Destination-keyed forwarding table.
    routes: IdMap<Route>,
    /// Per-flow upstream neighbour (learned from passing data packets).
    flow_upstream: KeyMap<FlowKey, NodeId>,
    /// Source side: packets awaiting a route, RREQ floods and retries.
    discovery: Discovery,
}

impl Aodv {
    /// Creates a protocol instance.
    pub fn new() -> Self {
        Aodv::default()
    }

    /// The current next hop towards `dst`, if a fresh route exists.
    pub fn next_hop_to(&self, dst: NodeId) -> Option<NodeId> {
        self.routes.get(dst).map(|r| r.next_hop)
    }

    /// The next hop towards `dst`, if the route has not idled past the
    /// AODV route timeout; marks the route used.
    fn use_route(&mut self, ctx: &dyn NodeCtx, dst: NodeId) -> Option<NodeId> {
        let now = ctx.now();
        let timeout = ctx.config().aodv_route_timeout;
        let route =
            self.routes.get_mut(dst).filter(|r| now.saturating_since(r.last_used) <= timeout)?;
        route.last_used = now;
        Some(route.next_hop)
    }

    fn send_as_source(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket) {
        let dst = pkt.dst;
        if let Some(nh) = self.use_route(ctx, dst) {
            ctx.send_data(nh, pkt);
            return;
        }
        self.discovery.buffer(ctx, pkt);
        self.discovery.start(ctx, dst);
    }
}

impl RoutingProtocol for Aodv {
    fn name(&self) -> &'static str {
        "AODV"
    }

    fn on_reboot(&mut self, ctx: &mut dyn NodeCtx) {
        // Cold restart: routes, reverse paths and reply history all died
        // with the node; routes re-form through fresh discovery.
        *self = Aodv::new();
        self.on_start(ctx);
    }

    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        let me = ctx.id();
        let now = ctx.now();
        match *pkt {
            ControlPacket::Rreq { src, dst, bcast_id, topo_hops, .. } => {
                if src == me {
                    return;
                }
                if !self.reverse.first_copy((src, dst), bcast_id, rx.from) {
                    return; // history table
                }
                if dst == me {
                    // Paper's AODV: reply to the FIRST copy, immediately.
                    if self.replied.get(src).is_some_and(|&b| bcast_id <= b) {
                        return;
                    }
                    self.replied.insert(src, bcast_id);
                    ctx.unicast(
                        rx.from,
                        ControlPacket::Rrep {
                            src,
                            dst,
                            seq: bcast_id,
                            csi_hops: 0.0,
                            topo_hops: topo_hops.saturating_add(1),
                        },
                    );
                    return;
                }
                ctx.broadcast(ControlPacket::Rreq {
                    src,
                    dst,
                    bcast_id,
                    csi_hops: 0.0,
                    topo_hops: topo_hops.saturating_add(1),
                });
            }
            ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops } => {
                // The node the reply came from is our next hop towards dst.
                self.routes.insert(dst, Route { next_hop: rx.from, last_used: now });
                if src == me {
                    self.discovery.conclude(ctx, dst);
                    ctx.note_route_phase(RoutePhase::RouteSelected, me, dst);
                    for pkt in self.discovery.flush(ctx, dst) {
                        self.send_as_source(ctx, pkt);
                    }
                    return;
                }
                let Some(up) = self.reverse.toward_origin((src, dst), seq) else {
                    return; // reverse pointer lost; reply dies
                };
                ctx.unicast(up, ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops });
            }
            ControlPacket::Rerr { src, dst, .. } => {
                let stale = self.routes.get(dst).is_none_or(|r| r.next_hop != rx.from);
                if stale {
                    return;
                }
                self.routes.remove(dst);
                if src == me {
                    // Full re-discovery if traffic is waiting or recent.
                    self.discovery.start(ctx, dst);
                } else if let Some(&up) = self.flow_upstream.get(&(src, dst)) {
                    ctx.unicast(up, ControlPacket::Rerr { src, dst, reporter: me });
                }
            }
            _ => {}
        }
    }

    fn on_data(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, rx: Option<RxInfo>) {
        let me = ctx.id();
        if pkt.dst == me {
            ctx.deliver_local(pkt);
            return;
        }
        if pkt.src == me && rx.is_none() {
            self.send_as_source(ctx, pkt);
            return;
        }
        let Some(rx) = rx else {
            ctx.drop_data(pkt, DropReason::NoRoute);
            return;
        };
        self.flow_upstream.insert((pkt.src, pkt.dst), rx.from);
        match self.use_route(ctx, pkt.dst) {
            Some(nh) => ctx.send_data(nh, pkt),
            None => {
                // Route gone: tell the source and drop.
                let (src, dst) = (pkt.src, pkt.dst);
                ctx.unicast(rx.from, ControlPacket::Rerr { src, dst, reporter: me });
                ctx.drop_data(pkt, DropReason::NoRoute);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NodeCtx, timer: Timer) {
        if let Timer::RreqRetry { dst } = timer {
            let routed = self.routes.contains(dst);
            self.discovery.retry(ctx, dst, routed);
        }
    }

    fn current_downstream(&self, _src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.routes.get(dst).map(|r| r.next_hop)
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut dyn NodeCtx,
        neighbor: NodeId,
        undelivered: Vec<DataPacket>,
    ) {
        let me = ctx.id();
        self.routes.retain(|dst, r| {
            let keep = r.next_hop != neighbor;
            if !keep {
                ctx.note_route_phase(RoutePhase::RouteLost, me, dst);
            }
            keep
        });
        let mut reported: Vec<FlowKey> = Vec::new();
        for pkt in undelivered {
            if pkt.src == me {
                // Salvage our own packets; a re-discovery will flush them.
                let dst = pkt.dst;
                self.discovery.buffer(ctx, pkt);
                self.discovery.start(ctx, dst);
            } else {
                // §III.B: "packets in the original broken route usually is
                // discarded".
                let key = (pkt.src, pkt.dst);
                if !reported.contains(&key) {
                    reported.push(key);
                    if let Some(&up) = self.flow_upstream.get(&key) {
                        ctx.unicast(
                            up,
                            ControlPacket::Rerr { src: key.0, dst: key.1, reporter: me },
                        );
                    }
                }
                ctx.drop_data(pkt, DropReason::LinkBreak);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_channel::ChannelClass;
    use rica_net::testing::ScriptedCtx;
    use rica_net::FlowId;
    use rica_sim::SimDuration;

    fn rx(from: u32) -> RxInfo {
        RxInfo { from: NodeId(from), class: ChannelClass::A }
    }

    fn data(src: u32, dst: u32, seq: u64) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(src), NodeId(dst), 512, SimTime::ZERO)
    }

    #[test]
    fn destination_replies_to_first_copy_only() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Aodv::new();
        let rreq = |topo| ControlPacket::Rreq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            csi_hops: 0.0,
            topo_hops: topo,
        };
        p.on_control(&mut ctx, &rreq(4), rx(1));
        assert_eq!(ctx.unicasts.len(), 1, "immediate reply, no window");
        assert_eq!(ctx.unicasts[0].0, NodeId(1));
        // A shorter copy arrives later: ignored — AODV takes the first path.
        p.on_control(&mut ctx, &rreq(1), rx(2));
        assert_eq!(ctx.unicasts.len(), 1);
    }

    #[test]
    fn csi_is_ignored_in_forwarding_decisions() {
        // Same flood over a class-D link: AODV still just counts +1 hop.
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Aodv::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            RxInfo { from: NodeId(0), class: ChannelClass::D },
        );
        match &ctx.broadcasts[0] {
            ControlPacket::Rreq { topo_hops, csi_hops, .. } => {
                assert_eq!(*topo_hops, 1);
                assert_eq!(*csi_hops, 0.0, "no CSI accumulation");
            }
            other => panic!("expected RREQ, got {other:?}"),
        }
    }

    #[test]
    fn discovery_reply_and_data_flow() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Aodv::new();
        p.on_data(&mut ctx, data(0, 9, 0), None);
        assert_eq!(ctx.broadcasts.len(), 1);
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 3,
            },
            rx(4),
        );
        assert_eq!(p.next_hop_to(NodeId(9)), Some(NodeId(4)));
        assert_eq!(ctx.sent_data.len(), 1);
        // Subsequent packets go straight out.
        p.on_data(&mut ctx, data(0, 9, 1), None);
        assert_eq!(ctx.sent_data.len(), 2);
    }

    #[test]
    fn relay_installs_route_and_forwards_reply() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Aodv::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 2,
                csi_hops: 0.0,
                topo_hops: 1,
            },
            rx(1),
        );
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 2,
                csi_hops: 0.0,
                topo_hops: 4,
            },
            rx(7),
        );
        assert_eq!(ctx.unicasts.len(), 1);
        assert_eq!(ctx.unicasts[0].0, NodeId(1));
        assert_eq!(p.next_hop_to(NodeId(9)), Some(NodeId(7)));
        // Data now forwards along the installed route.
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1)));
        assert_eq!(ctx.sent_data.len(), 1);
        assert_eq!(ctx.sent_data[0].0, NodeId(7));
    }

    #[test]
    fn broken_route_drops_and_reports() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Aodv::new();
        // No route at all: data from upstream n1 is dropped with a REER back.
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1)));
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::NoRoute);
        assert!(matches!(ctx.unicasts[0], (NodeId(1), ControlPacket::Rerr { .. })));
    }

    #[test]
    fn link_failure_drops_foreign_salvages_own() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Aodv::new();
        // Route to 9 via 7; flow upstream for (0,9) is 1.
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 2,
            },
            rx(7),
        );
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1)));
        ctx.clear_actions();
        p.on_link_failure(&mut ctx, NodeId(7), vec![data(0, 9, 1), data(5, 9, 2)]);
        // Foreign packet dropped + REER towards the source via n1.
        assert!(ctx.dropped.iter().any(|(p, r)| p.src == NodeId(0) && *r == DropReason::LinkBreak));
        assert!(ctx
            .unicasts
            .iter()
            .any(|(to, pkt)| *to == NodeId(1) && matches!(pkt, ControlPacket::Rerr { .. })));
        // Own packet (src == 5) salvaged: a new discovery flood started.
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Rreq { .. })));
        assert_eq!(p.next_hop_to(NodeId(9)), None);
    }

    #[test]
    fn stale_rerr_ignored() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Aodv::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 2,
            },
            rx(7),
        );
        ctx.clear_actions();
        // REER from n3, but our downstream is n7: stale, ignore.
        p.on_control(
            &mut ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(3) },
            rx(3),
        );
        assert!(ctx.unicasts.is_empty());
        assert_eq!(p.next_hop_to(NodeId(9)), Some(NodeId(7)));
    }

    #[test]
    fn route_expires_after_idle_timeout() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Aodv::new();
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
        ctx.advance(SimDuration::from_secs(4)); // > 3 s AODV timeout
        p.on_data(&mut ctx, data(0, 9, 0), None);
        assert!(ctx.sent_data.is_empty(), "expired route unusable");
        assert_eq!(ctx.broadcasts.len(), 1, "re-discovery flood");
    }

    #[test]
    fn retry_until_give_up() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Aodv::new();
        p.on_data(&mut ctx, data(0, 9, 0), None);
        let max = ctx.config().rreq_max_retries;
        for _ in 0..=max {
            let t = ctx.fire_next_timer();
            p.on_timer(&mut ctx, t);
        }
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::NoRoute);
        assert_eq!(ctx.broadcasts.len(), 1 + max as usize);
    }
}
