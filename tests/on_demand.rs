//! The rules the on-demand protocols share, checked through the public
//! `RoutingProtocol` API: RICA, AODV, ABR and BGCA discover routes through
//! one source-side discovery policy, and ABR and BGCA repair broken links
//! through one local-repair core.

use rica_repro::channel::ChannelClass;
use rica_repro::harness::ProtocolKind;
use rica_repro::net::testing::ScriptedCtx;
use rica_repro::net::{
    ControlPacket, DataPacket, DropReason, FlowId, NodeCtx, NodeId, RoutingProtocol, RxInfo, Timer,
    RREQ_MAX_RETRIES,
};
use rica_repro::sim::SimTime;

const ON_DEMAND: [ProtocolKind; 4] =
    [ProtocolKind::Rica, ProtocolKind::Aodv, ProtocolKind::Abr, ProtocolKind::Bgca];

fn data(seq: u64) -> DataPacket {
    DataPacket::new(FlowId(0), seq, NodeId(0), NodeId(9), 512, SimTime::ZERO)
}

fn rx(from: u32) -> RxInfo {
    RxInfo { from: NodeId(from), class: ChannelClass::A }
}

/// Fires the earliest armed timer matching `pick`, advancing the clock to
/// it; `None` when no such timer is armed.
fn fire(
    ctx: &mut ScriptedCtx,
    p: &mut dyn RoutingProtocol,
    pick: impl Fn(&Timer) -> bool,
) -> Option<Timer> {
    let armed = ctx.timers.iter_mut().filter(|t| !t.cancelled && pick(&t.timer));
    let next = armed.min_by_key(|t| t.at)?;
    next.cancelled = true; // consumed
    let (at, timer) = (next.at, next.timer);
    ctx.set_now(at.max(ctx.now()));
    p.on_timer(ctx, timer);
    Some(timer)
}

/// A source that cannot reach its destination floods once, re-floods on
/// each of `rreq_max_retries` retry timers, then gives up: every packet
/// that waited is dropped as no-route exactly once, and no retry timer
/// stays armed.
#[test]
fn every_on_demand_protocol_gives_up_on_discovery_the_same_way() {
    for kind in ON_DEMAND {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = kind.make();
        p.on_start(&mut ctx);
        for seq in 0..3 {
            p.on_data(&mut ctx, data(seq), None);
        }
        let is_retry = |t: &Timer| matches!(t, Timer::RreqRetry { dst: NodeId(9) });
        let mut retries = 0;
        while fire(&mut ctx, p.as_mut(), is_retry).is_some() {
            retries += 1;
        }
        let max = RREQ_MAX_RETRIES as usize;
        assert_eq!(retries, max + 1, "{kind}: retry timers fired");
        let floods = ctx
            .broadcasts
            .iter()
            .filter(|b| {
                matches!(
                    b,
                    ControlPacket::Rreq { src: NodeId(0), dst: NodeId(9), .. }
                        | ControlPacket::Bq { src: NodeId(0), dst: NodeId(9), .. }
                )
            })
            .count();
        assert_eq!(floods, max + 1, "{kind}: the first flood and one per retry");
        let dropped: Vec<(u64, DropReason)> =
            ctx.dropped.iter().map(|(pkt, reason)| (pkt.seq, *reason)).collect();
        assert_eq!(
            dropped,
            (0..3).map(|seq| (seq, DropReason::NoRoute)).collect::<Vec<_>>(),
            "{kind}: each waiting packet dropped once, as no-route"
        );
        assert!(ctx.sent_data.is_empty(), "{kind}: nothing was sent");
        assert!(!ctx.pending_timers().iter().any(|t| is_retry(&t.timer)), "{kind}: retry armed");
    }
}

/// A relay repairing a flow whose route a newer reply re-pointed loses the
/// new link too. The packets stranded on it join the running repair, so at
/// the repair deadline both the first and the second stranded packet are
/// dropped — none goes unrecorded.
#[test]
fn stranded_packets_join_a_running_repair() {
    for kind in [ProtocolKind::Abr, ProtocolKind::Bgca] {
        let flood = |bcast_id| match kind {
            ProtocolKind::Abr => ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id,
                topo_hops: 0,
                stable_links: 0,
                load: 0,
            },
            _ => ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id,
                csi_hops: 0.0,
                topo_hops: 0,
            },
        };
        let reply = |seq| ControlPacket::Rrep {
            src: NodeId(0),
            dst: NodeId(9),
            seq,
            csi_hops: 2.0,
            topo_hops: 3,
        };
        // Relay 5 on the flow 0 → 9: upstream 1, downstream 7.
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = kind.make();
        p.on_control(&mut ctx, &flood(0), rx(1));
        p.on_control(&mut ctx, &reply(0), rx(7));
        assert_eq!(p.current_downstream(NodeId(0), NodeId(9)), Some(NodeId(7)), "{kind}");
        // The link to 7 breaks: a repair starts and holds packet 1.
        p.on_link_failure(&mut ctx, NodeId(7), vec![data(1)]);
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Lq { .. })), "{kind}");
        // A newer discovery's reply passes through and re-points the flow.
        p.on_control(&mut ctx, &flood(1), rx(1));
        p.on_control(&mut ctx, &reply(1), rx(8));
        assert_eq!(p.current_downstream(NodeId(0), NodeId(9)), Some(NodeId(8)), "{kind}");
        // That link breaks too, stranding packet 2.
        p.on_link_failure(&mut ctx, NodeId(8), vec![data(2)]);
        assert!(ctx.dropped.is_empty(), "{kind}: both packets wait for the repair");
        let is_deadline = |t: &Timer| matches!(t, Timer::LqTimeout { .. });
        assert!(fire(&mut ctx, p.as_mut(), is_deadline).is_some(), "{kind}: deadline armed");
        let dropped: Vec<(u64, DropReason)> =
            ctx.dropped.iter().map(|(pkt, reason)| (pkt.seq, *reason)).collect();
        assert_eq!(
            dropped,
            vec![(1, DropReason::LinkBreak), (2, DropReason::LinkBreak)],
            "{kind}: the repair failed; every stranded packet is dropped once"
        );
        assert!(ctx.sent_data.is_empty(), "{kind}");
    }
}
