//! BGCA (bandwidth-guarded channel adaptive), implemented from this paper's
//! own characterisation (§I, §III): discovery selects the CSI-shortest route
//! exactly like RICA, but maintenance is *passive* — "only when the channel
//! quality of the link drops below the bandwidth requirement of the traffics
//! does it take actions to find a new route", via a TTL-limited guarded
//! query that splices a partial route in.

use rica_net::{
    ControlPacket, DataPacket, KeyMap, NodeCtx, NodeId, ReplyWindow, RoutingProtocol, RxInfo,
    Timer, BGCA_MONITOR_PERIOD, BGCA_REPAIR_COOLDOWN,
};
use rica_sim::SimTime;

use crate::common::{FlowKey, FlowRouter};

/// The BGCA baseline. Flow routing, local repair and RREQ discovery are
/// the shared `FlowRouter` (`common.rs`); BGCA adds CSI-shortest route
/// selection and the bandwidth guard.
#[derive(Debug, Default)]
pub struct Bgca {
    /// Destination side: the RREQ copies collected per source, scored by
    /// (CSI distance, topological hops).
    replies: ReplyWindow<(f64, u8)>,
    /// Last repair start per flow (guard cooldown).
    last_repair: KeyMap<FlowKey, SimTime>,
    router: FlowRouter,
}

impl Bgca {
    /// Creates a protocol instance.
    pub fn new() -> Self {
        Bgca::default()
    }

    /// The downstream of the flow `(src, dst)` at this terminal, if routed.
    pub fn downstream_of(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.router.downstream(src, dst)
    }

    /// Whether this terminal is currently repairing the flow.
    pub fn is_repairing(&self, src: NodeId, dst: NodeId) -> bool {
        self.router.repairs.contains_key(&(src, dst))
    }

    /// The bandwidth guard (§I): checks every on-route downstream link
    /// against the guarded requirement and repairs the violating ones.
    fn run_guard(&mut self, ctx: &mut dyn NodeCtx) {
        let now = ctx.now();
        let cfg = ctx.config();
        let needed_kbps = cfg.bgca_guard_factor * cfg.bgca_flow_offered_kbps;
        // Only links that carried traffic very recently are guarded.
        let active = rica_sim::SimDuration::from_millis(500);
        let keys: Vec<(FlowKey, NodeId)> = self
            .router
            .routes
            .iter()
            .filter(|(key, e)| {
                e.is_fresh(now, active)
                    && !self.router.repairs.contains_key(key)
                    && self
                        .last_repair
                        .get(key)
                        .is_none_or(|&t| now.saturating_since(t) >= BGCA_REPAIR_COOLDOWN)
            })
            .filter_map(|(k, e)| Some((*k, e.downstream?)))
            .collect();
        for (key, downstream) in keys {
            match ctx.link_class_to(downstream) {
                Some(class) if class.rate_kbps() < needed_kbps => {
                    // Deep fade: search a partial substitute route while the
                    // old one keeps (slowly) carrying data.
                    self.last_repair.insert(key, now);
                    self.router.start_repair(ctx, key, Vec::new(), false);
                }
                _ => {}
            }
        }
    }
}

impl RoutingProtocol for Bgca {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        ctx.set_timer(BGCA_MONITOR_PERIOD, Timer::LinkMonitor);
    }

    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        let me = ctx.id();
        match *pkt {
            ControlPacket::Rreq { src, dst, bcast_id, csi_hops, topo_hops } => {
                if src == me {
                    return;
                }
                let new_csi = csi_hops + rx.class.csi_hops();
                let new_topo = topo_hops.saturating_add(1);
                if dst == me {
                    // CSI-shortest selection with a reply window, like RICA.
                    let score = (new_csi, new_topo);
                    let shorter = |new: &(f64, u8), best: &(f64, u8)| new.0 < best.0;
                    self.replies.offer(ctx, (src, bcast_id), score, rx.from, shorter);
                    return;
                }
                if !self.router.floods.first_copy((src, dst), bcast_id, rx.from) {
                    return;
                }
                ctx.broadcast(ControlPacket::Rreq {
                    src,
                    dst,
                    bcast_id,
                    csi_hops: new_csi,
                    topo_hops: new_topo,
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
            Timer::LinkMonitor => {
                self.run_guard(ctx);
                ctx.set_timer(BGCA_MONITOR_PERIOD, Timer::LinkMonitor);
            }
            Timer::ReplyWindow { src, .. } => {
                let Some((bcast_id, (csi, topo), via)) = self.replies.close(src) else { return };
                self.router.answer(ctx, src, bcast_id, via, csi, topo);
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
        let now = ctx.now();
        let last_repair = &mut self.last_repair;
        self.router.on_link_failure(ctx, neighbor, undelivered, |key| {
            last_repair.insert(key, now);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_channel::ChannelClass;
    use rica_net::testing::ScriptedCtx;
    use rica_net::{FlowId, ProtocolConfig};
    use rica_sim::{SimDuration, SimTime};

    fn rx(from: u32, class: ChannelClass) -> RxInfo {
        RxInfo { from: NodeId(from), class }
    }

    fn data(src: u32, dst: u32, seq: u64) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(src), NodeId(dst), 512, SimTime::ZERO)
    }

    /// A relay with an installed route 0 →(1)→ 5 →(7)→ 9.
    fn relay_with_route() -> (ScriptedCtx, Bgca) {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Bgca::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            rx(1, ChannelClass::A),
        );
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 2.0,
                topo_hops: 2,
            },
            rx(7, ChannelClass::A),
        );
        ctx.clear_actions();
        (ctx, p)
    }

    #[test]
    fn discovery_selects_csi_shortest_like_rica() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Bgca::new();
        let mk = |csi: f64| ControlPacket::Rreq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            csi_hops: csi,
            topo_hops: 2,
        };
        p.on_control(&mut ctx, &mk(5.0), rx(1, ChannelClass::A));
        p.on_control(&mut ctx, &mk(2.0), rx(2, ChannelClass::A));
        let t = ctx.fire_next_timer();
        assert_eq!(t, Timer::ReplyWindow { src: NodeId(0), dst: NodeId(9) });
        p.on_timer(&mut ctx, t);
        assert_eq!(ctx.unicasts[0].0, NodeId(2), "min CSI distance wins");
    }

    #[test]
    fn guard_triggers_partial_query_on_deep_fade() {
        let (mut ctx, mut p) = relay_with_route();
        // Keep the entry in active use.
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1, ChannelClass::A)));
        ctx.clear_actions();
        // Downstream link degrades to class D (50 kbps). At 20 pkt/s the
        // guarded requirement is 1.5 × 85.8 ≈ 129 kbps → violation.
        let cfg = ProtocolConfig { bgca_flow_offered_kbps: 85.8, ..ProtocolConfig::default() };
        let mut ctx2 = std::mem::replace(&mut ctx, ScriptedCtx::new(NodeId(5))).with_config(cfg);
        ctx2.set_link_class(NodeId(7), Some(ChannelClass::D));
        p.on_timer(&mut ctx2, Timer::LinkMonitor);
        assert!(
            ctx2.broadcasts.iter().any(|b| matches!(b, ControlPacket::Lq { .. })),
            "guard fired a guarded query"
        );
        assert!(p.is_repairing(NodeId(0), NodeId(9)));
        // Data keeps flowing on the degraded route during the guard repair.
        p.on_data(&mut ctx2, data(0, 9, 1), Some(rx(1, ChannelClass::A)));
        assert_eq!(ctx2.sent_data.len(), 1, "guard repair does not hold data");
    }

    #[test]
    fn guard_quiet_when_bandwidth_sufficient() {
        let (mut ctx, mut p) = relay_with_route();
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1, ChannelClass::A)));
        ctx.clear_actions();
        // Class B = 150 kbps ≥ 1.5 × 42.88 ≈ 64 kbps: fine at 10 pkt/s.
        ctx.set_link_class(NodeId(7), Some(ChannelClass::B));
        p.on_timer(&mut ctx, Timer::LinkMonitor);
        assert!(!ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Lq { .. })));
        assert!(!p.is_repairing(NodeId(0), NodeId(9)));
    }

    #[test]
    fn successful_guard_repair_splices_partial_route() {
        let (mut ctx, mut p) = relay_with_route();
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1, ChannelClass::A)));
        ctx.set_link_class(NodeId(7), Some(ChannelClass::D));
        // 10 pkt/s default: D (50) < 1.5 × 42.88 ≈ 64.3 → guard fires.
        p.on_timer(&mut ctx, Timer::LinkMonitor);
        assert!(p.is_repairing(NodeId(0), NodeId(9)));
        ctx.clear_actions();
        // The destination's reply arrives via n8: splice.
        p.on_control(
            &mut ctx,
            &ControlPacket::LqRep {
                src: NodeId(0),
                dst: NodeId(9),
                origin: NodeId(5),
                seq: 0,
                csi_hops: 2.0,
                topo_hops: 2,
            },
            rx(8, ChannelClass::A),
        );
        assert_eq!(p.downstream_of(NodeId(0), NodeId(9)), Some(NodeId(8)));
        assert!(!p.is_repairing(NodeId(0), NodeId(9)));
        p.on_data(&mut ctx, data(0, 9, 1), Some(rx(1, ChannelClass::A)));
        assert_eq!(ctx.sent_data[0].0, NodeId(8), "data now takes the partial route");
    }

    #[test]
    fn failed_guard_repair_keeps_old_route() {
        let (mut ctx, mut p) = relay_with_route();
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1, ChannelClass::A)));
        ctx.set_link_class(NodeId(7), Some(ChannelClass::D));
        p.on_timer(&mut ctx, Timer::LinkMonitor);
        assert!(p.is_repairing(NodeId(0), NodeId(9)));
        ctx.clear_actions();
        // Deadline passes with no reply: the degraded route survives.
        ctx.advance(SimDuration::from_secs(1));
        p.on_timer(&mut ctx, Timer::LqTimeout { src: NodeId(0), dst: NodeId(9) });
        assert!(!p.is_repairing(NodeId(0), NodeId(9)));
        assert_eq!(p.downstream_of(NodeId(0), NodeId(9)), Some(NodeId(7)));
        assert!(ctx.dropped.is_empty());
        assert!(ctx.unicasts.is_empty(), "no REER for a guard repair");
    }

    #[test]
    fn break_repair_holds_data_and_drops_on_timeout() {
        let (mut ctx, mut p) = relay_with_route();
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1, ChannelClass::A)));
        ctx.clear_actions();
        p.on_link_failure(&mut ctx, NodeId(7), vec![data(0, 9, 1)]);
        assert!(p.is_repairing(NodeId(0), NodeId(9)));
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Lq { .. })));
        // Data arriving during a break repair is held.
        p.on_data(&mut ctx, data(0, 9, 2), Some(rx(1, ChannelClass::A)));
        assert!(ctx.sent_data.is_empty());
        // Timeout: held packets dropped, REER towards the source.
        ctx.advance(SimDuration::from_secs(1));
        p.on_timer(&mut ctx, Timer::LqTimeout { src: NodeId(0), dst: NodeId(9) });
        assert_eq!(ctx.dropped.len(), 2);
        assert!(ctx
            .unicasts
            .iter()
            .any(|(to, pkt)| *to == NodeId(1) && matches!(pkt, ControlPacket::Rerr { .. })));
    }

    #[test]
    fn source_rediscovers_on_rerr() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Bgca::new();
        p.on_data(&mut ctx, data(0, 9, 0), None);
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 3.0,
                topo_hops: 3,
            },
            rx(4, ChannelClass::A),
        );
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(4) },
            rx(4, ChannelClass::A),
        );
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Rreq { .. })));
    }
}
