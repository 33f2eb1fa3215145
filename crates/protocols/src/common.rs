//! The flow-routing core ABR and BGCA share.
//!
//! Both keep per-flow route entries (like RICA), discover routes with a
//! flood the destination answers after a reply window, and repair a broken
//! link *locally*: the terminal upstream of the break floods a TTL-limited
//! local query (LQ) and holds the flow's data until a partial route answers
//! or the query times out. [`FlowRouter`] is all of that, written once: the
//! route entries, the flood and query histories, the repairs, the reply
//! history and the source-side [`Discovery`]. It handles the RREP, LQ,
//! LQ-reply and REER packets, data forwarding, the retry and LQ timers and
//! link failures.
//!
//! What stays in each protocol is how the destination scores the flood
//! copies it collects (ABR: stability, then load, then hops; BGCA: CSI
//! distance), ABR's beacons and associativity ticks, and BGCA's bandwidth
//! guard, which starts repairs on links that are degraded but still up.

use rica_net::{
    ControlPacket, DataPacket, Discovery, DropReason, FloodBuilder, FloodHistory, IdMap, KeyMap,
    NodeCtx, NodeId, RoutePhase, RxInfo, Timer,
};
use rica_sim::{SimDuration, SimTime};

/// A flow key: (source, destination).
pub(crate) type FlowKey = (NodeId, NodeId);

/// A per-flow route entry at one terminal (ABR/BGCA keep per-flow state,
/// like RICA).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlowEntry {
    /// Next hop towards the source (REER/LQ-reply direction).
    pub upstream: Option<NodeId>,
    /// Next hop towards the destination.
    pub downstream: Option<NodeId>,
    /// Last forwarding use (idle entries expire).
    pub last_used: SimTime,
    /// Total route length (hops) learned from the reply that installed the
    /// entry.
    pub route_len: u8,
    /// Estimated remaining hops to the destination (drives local-query
    /// TTLs): `route_len − hops already travelled by passing data`.
    pub hops_to_dst: u8,
}

impl FlowEntry {
    pub fn new(now: SimTime) -> Self {
        FlowEntry { upstream: None, downstream: None, last_used: now, route_len: 2, hops_to_dst: 2 }
    }

    /// Refines the remaining-hop estimate from a data packet that has
    /// already travelled `travelled` hops from the source.
    pub fn observe_data_hops(&mut self, travelled: u32) {
        let travelled = travelled.min(u8::MAX as u32) as u8;
        self.hops_to_dst = self.route_len.saturating_sub(travelled).max(1);
    }

    pub fn is_fresh(&self, now: SimTime, idle: SimDuration) -> bool {
        now.saturating_since(self.last_used) <= idle
    }

    /// The downstream to forward data to at `now`, if the entry has one
    /// and has not idled past `idle`; marks the entry used.
    fn use_at(&mut self, now: SimTime, idle: SimDuration) -> Option<NodeId> {
        let next = self.downstream.filter(|_| self.is_fresh(now, idle))?;
        self.last_used = now;
        Some(next)
    }
}

/// State of an in-progress localized repair (ABR's LQ, BGCA's guarded
/// query): data for the flow waits here until a partial route is found or
/// the timeout expires.
#[derive(Debug, Default)]
pub(crate) struct Repair {
    /// The local query broadcast id this repair is waiting on.
    pub bcast_id: u64,
    /// Data packets held while the repair runs (the paper's "data packets
    /// have to wait in the terminal performing LQ").
    pub held: Vec<DataPacket>,
    /// Whether the repair replaces a *broken* link (true) or merely a
    /// degraded one that keeps forwarding meanwhile (BGCA guard, false).
    pub link_down: bool,
}

/// Per-flow routing with local repair: the state and handlers ABR and BGCA
/// share (see the module docs). The default router discovers routes with
/// plain RREQ floods.
#[derive(Debug, Default)]
pub(crate) struct FlowRouter {
    /// Per-flow route entries.
    pub routes: KeyMap<FlowKey, FlowEntry>,
    /// Discovery floods (BQ / RREQ) seen, with reverse pointers.
    pub floods: FloodHistory<u64>,
    /// Local queries seen, keyed `(origin, id)`, with the neighbour
    /// towards their origin.
    queries: FloodHistory<(NodeId, u64)>,
    /// In-progress local repairs per flow.
    pub repairs: KeyMap<FlowKey, Repair>,
    /// Destination side: highest discovery flood already answered, per
    /// source.
    replied: IdMap<u64>,
    /// Source side: packets awaiting a route, floods and retries.
    discovery: Discovery,
    next_lq: u64,
}

impl FlowRouter {
    /// A router whose sources discover routes with the floods `flood`
    /// builds.
    pub fn new(flood: FloodBuilder) -> Self {
        FlowRouter { discovery: Discovery::new(flood), ..FlowRouter::default() }
    }

    /// This terminal's downstream for the flow `(src, dst)`, if routed.
    pub fn downstream(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.routes.get(&(src, dst)).and_then(|e| e.downstream)
    }

    /// Whether the destination already answered flood `bcast_id` (or a
    /// later one) from `src`.
    pub fn answered(&self, src: NodeId, bcast_id: u64) -> bool {
        self.replied.get(src).is_some_and(|&b| bcast_id <= b)
    }

    /// The destination's reply window closed: answer flood `bcast_id` from
    /// `src` along `via`, the neighbour that relayed the best copy.
    pub fn answer(
        &mut self,
        ctx: &mut dyn NodeCtx,
        src: NodeId,
        bcast_id: u64,
        via: NodeId,
        csi_hops: f64,
        topo_hops: u8,
    ) {
        let dst = ctx.id();
        let now = ctx.now();
        self.replied.insert(src, bcast_id);
        let e = self.routes.or_insert_with((src, dst), || FlowEntry::new(now));
        e.upstream = Some(via);
        e.last_used = now;
        ctx.unicast(via, ControlPacket::Rrep { src, dst, seq: bcast_id, csi_hops, topo_hops });
    }

    /// Handles the shared control packets: RREP, LQ, LQ reply and REER.
    /// Every other packet is left to the protocol.
    pub fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        let me = ctx.id();
        let now = ctx.now();
        match *pkt {
            ControlPacket::Rrep { src, dst, topo_hops, .. } if src == me => {
                self.discovery.conclude(ctx, dst);
                self.install((src, dst), now, None, rx.from, topo_hops);
                ctx.note_route_phase(RoutePhase::RouteSelected, me, dst);
                for pkt in self.discovery.flush(ctx, dst) {
                    self.send_as_source(ctx, pkt);
                }
            }
            ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops } => {
                let Some(up) = self.floods.toward_origin((src, dst), seq) else { return };
                self.install((src, dst), now, Some(up), rx.from, topo_hops);
                ctx.unicast(up, ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops });
            }
            ControlPacket::Lq { src, dst, origin, bcast_id, ttl, csi_hops, topo_hops } => {
                if origin == me {
                    return;
                }
                if !self.queries.first_copy((src, dst), (origin, bcast_id), rx.from) {
                    return;
                }
                let csi_hops = csi_hops + rx.class.csi_hops();
                let topo_hops = topo_hops.saturating_add(1);
                if dst == me {
                    // First copy wins: partial routes are short, and the
                    // full route selection applies only to discovery floods.
                    let reply = ControlPacket::LqRep {
                        src,
                        dst,
                        origin,
                        seq: bcast_id,
                        csi_hops,
                        topo_hops,
                    };
                    ctx.unicast(rx.from, reply);
                    return;
                }
                let ttl = ttl.saturating_sub(1);
                if ttl > 0 {
                    ctx.broadcast(ControlPacket::Lq {
                        src,
                        dst,
                        origin,
                        bcast_id,
                        ttl,
                        csi_hops,
                        topo_hops,
                    });
                }
            }
            ControlPacket::LqRep { src, dst, origin, seq, topo_hops, .. } if origin == me => {
                // Our repair succeeded: splice the partial route in and
                // release the held packets.
                let key = (src, dst);
                let Some(repair) = self.repairs.remove(&key) else { return };
                if repair.bcast_id != seq {
                    self.repairs.insert(key, repair); // answer to an old query
                    return;
                }
                let e = self.routes.or_insert_with(key, || FlowEntry::new(now));
                e.downstream = Some(rx.from);
                e.last_used = now;
                e.hops_to_dst = topo_hops.max(1);
                e.route_len = e.route_len.max(topo_hops);
                for pkt in repair.held {
                    ctx.send_data(rx.from, pkt);
                }
            }
            ControlPacket::LqRep { src, dst, origin, seq, csi_hops, topo_hops } => {
                let key = (src, dst);
                let Some(toward_origin) = self.queries.toward_origin(key, (origin, seq)) else {
                    return;
                };
                let e = self.routes.or_insert_with(key, || FlowEntry::new(now));
                e.upstream = Some(toward_origin);
                e.downstream = Some(rx.from);
                e.last_used = now;
                let reply = ControlPacket::LqRep { src, dst, origin, seq, csi_hops, topo_hops };
                ctx.unicast(toward_origin, reply);
            }
            ControlPacket::Rerr { src, dst, .. } => {
                let key = (src, dst);
                if self.routes.get(&key).is_none_or(|e| e.downstream != Some(rx.from)) {
                    return; // not from our downstream: a stale route's error
                }
                let upstream = self.routes.remove(&key).and_then(|e| e.upstream);
                if src == me {
                    self.discovery.start(ctx, dst);
                } else if let Some(up) = upstream {
                    ctx.unicast(up, ControlPacket::Rerr { src, dst, reporter: me });
                }
            }
            _ => {}
        }
    }

    /// Installs the route a RREP travelling back to the source selected:
    /// `downstream` towards the destination, `upstream` towards the source
    /// (`None` at the source itself).
    fn install(
        &mut self,
        key: FlowKey,
        now: SimTime,
        upstream: Option<NodeId>,
        downstream: NodeId,
        topo_hops: u8,
    ) {
        let e = self.routes.or_insert_with(key, || FlowEntry::new(now));
        e.upstream = upstream;
        e.downstream = Some(downstream);
        e.last_used = now;
        e.route_len = topo_hops.max(1);
        e.hops_to_dst = topo_hops.max(1); // refined by passing data
    }

    /// Handles a data packet: delivers it here, sends it as its source, or
    /// forwards it — holding it while a break repair of its flow runs
    /// (§III.B: "the packets accumulate in the upstream terminal performing
    /// the local search until a partial route is found"). A guard repair
    /// keeps forwarding on the degraded link meanwhile.
    pub fn on_data(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, rx: Option<RxInfo>) {
        let me = ctx.id();
        let now = ctx.now();
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
        let key = (pkt.src, pkt.dst);
        if let Some(Repair { held, link_down: true, .. }) = self.repairs.get_mut(&key) {
            if held.len() < ctx.config().pending_cap {
                held.push(pkt);
            } else {
                ctx.drop_data(pkt, DropReason::BufferOverflow);
            }
            return;
        }
        let idle = ctx.config().aodv_route_timeout;
        let next = self.routes.get_mut(&key).and_then(|e| {
            let next = e.use_at(now, idle)?;
            e.upstream = Some(rx.from);
            e.observe_data_hops(pkt.hops);
            Some(next)
        });
        match next {
            Some(next) => ctx.send_data(next, pkt),
            None => {
                ctx.unicast(rx.from, ControlPacket::Rerr { src: key.0, dst: key.1, reporter: me });
                ctx.drop_data(pkt, DropReason::NoRoute);
            }
        }
    }

    /// Routes a packet this terminal originated, buffering it behind a
    /// discovery when the flow has no fresh route.
    fn send_as_source(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket) {
        let key = (ctx.id(), pkt.dst);
        let idle = ctx.config().aodv_route_timeout;
        if let Some(next) = self.routes.get_mut(&key).and_then(|e| e.use_at(ctx.now(), idle)) {
            ctx.send_data(next, pkt);
            return;
        }
        self.discovery.buffer(ctx, pkt);
        self.discovery.start(ctx, key.1);
    }

    /// Handles the shared timers: the source's discovery retry and the
    /// repair deadline. Every other timer is left to the protocol.
    pub fn on_timer(&mut self, ctx: &mut dyn NodeCtx, timer: Timer) {
        match timer {
            Timer::RreqRetry { dst } => {
                let routed = self.downstream(ctx.id(), dst).is_some();
                self.discovery.retry(ctx, dst, routed);
            }
            Timer::LqTimeout { src, dst } => self.fail_repair(ctx, (src, dst)),
            _ => {}
        }
    }

    /// Starts a local query for the flow at this (intermediate) terminal;
    /// the packets in `held` wait for the partial route. `link_down ==
    /// false` means the link is degraded but up (BGCA's guard): data keeps
    /// flowing on the old route while the search runs.
    pub fn start_repair(
        &mut self,
        ctx: &mut dyn NodeCtx,
        key: FlowKey,
        held: Vec<DataPacket>,
        link_down: bool,
    ) {
        let me = ctx.id();
        let bcast_id = self.next_lq;
        self.next_lq += 1;
        let slack = ctx.config().lq_ttl_slack;
        let ttl = self.routes.get(&key).map_or(2, |e| e.hops_to_dst).saturating_add(slack).max(1);
        self.repairs.insert(key, Repair { bcast_id, held, link_down });
        if link_down {
            if let Some(e) = self.routes.get_mut(&key) {
                e.downstream = None;
            }
        }
        ctx.note_route_phase(RoutePhase::RepairStart, key.0, key.1);
        ctx.broadcast(ControlPacket::Lq {
            src: key.0,
            dst: key.1,
            origin: me,
            bcast_id,
            ttl,
            csi_hops: 0.0,
            topo_hops: 0,
        });
        ctx.set_timer(ctx.config().lq_timeout, Timer::LqTimeout { src: key.0, dst: key.1 });
    }

    /// The repair deadline passed without a partial route. A break repair
    /// drops what it held and notifies the source (the paper's route
    /// notification); a guard repair keeps the old route.
    fn fail_repair(&mut self, ctx: &mut dyn NodeCtx, key: FlowKey) {
        let me = ctx.id();
        let Some(repair) = self.repairs.remove(&key) else { return };
        if !repair.link_down {
            debug_assert!(repair.held.is_empty());
            return;
        }
        for pkt in repair.held {
            ctx.drop_data(pkt, DropReason::LinkBreak);
        }
        let upstream = self.routes.remove(&key).and_then(|e| e.upstream);
        if let Some(up) = upstream {
            ctx.unicast(up, ControlPacket::Rerr { src: key.0, dst: key.1, reporter: me });
        }
    }

    /// The link to `neighbor` broke with `undelivered` still queued on it.
    /// A source re-discovers and buffers its own packets. A relay already
    /// repairing the flow adds the packets to that repair, which now
    /// replaces a broken link; otherwise it starts a repair holding them,
    /// and `repair_started` hears of it. Packets of flows without an entry
    /// here are lost with the link.
    pub fn on_link_failure(
        &mut self,
        ctx: &mut dyn NodeCtx,
        neighbor: NodeId,
        undelivered: Vec<DataPacket>,
        mut repair_started: impl FnMut(FlowKey),
    ) {
        let me = ctx.id();
        let mut per_flow: KeyMap<FlowKey, Vec<DataPacket>> = KeyMap::new();
        for pkt in undelivered {
            per_flow.or_insert_with((pkt.src, pkt.dst), Vec::new).push(pkt);
        }
        let affected: Vec<FlowKey> = self
            .routes
            .iter()
            .filter(|(_, e)| e.downstream == Some(neighbor))
            .map(|(k, _)| *k)
            .collect();
        for key in affected {
            let held = per_flow.remove(&key).unwrap_or_default();
            if key.0 == me {
                ctx.note_route_phase(RoutePhase::RouteLost, key.0, key.1);
                self.routes.remove(&key);
                for pkt in held {
                    self.discovery.buffer(ctx, pkt);
                }
                self.discovery.start(ctx, key.1);
            } else if let Some(repair) = self.repairs.get_mut(&key) {
                repair.link_down = true;
                repair.held.extend(held);
                if let Some(e) = self.routes.get_mut(&key) {
                    e.downstream = None;
                }
            } else {
                repair_started(key);
                self.start_repair(ctx, key, held, true);
            }
        }
        for (_, pkts) in per_flow {
            for pkt in pkts {
                ctx.drop_data(pkt, DropReason::LinkBreak);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_freshness() {
        let mut e = FlowEntry::new(SimTime::from_secs_f64(5.0));
        e.downstream = Some(NodeId(3));
        let idle = SimDuration::from_secs(1);
        assert!(e.is_fresh(SimTime::from_secs_f64(5.9), idle));
        assert!(!e.is_fresh(SimTime::from_secs_f64(6.1), idle));
    }
}
