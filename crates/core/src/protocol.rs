//! The RICA state machine.

use crate::state::{Candidate, DestState, FlowKey, SourceState, Tables};
use crate::{PossibleRoute, RouteEntry};
use rica_net::{
    ControlPacket, DataPacket, Discovery, DropReason, NodeCtx, NodeId, RoutePhase, RoutingProtocol,
    RxInfo, Timer,
};

/// The RICA protocol (§II of the paper). One instance runs on every
/// terminal; the same code acts as source, relay or destination depending on
/// the packets it sees.
#[derive(Debug, Default)]
pub struct Rica {
    t: Tables,
    /// Source side: packets awaiting a route, RREQ floods and retries.
    discovery: Discovery,
}

impl Rica {
    /// Creates a protocol instance.
    pub fn new() -> Self {
        Rica::default()
    }

    /// Read-only view of the active route entry for flow `(src, dst)` —
    /// used by tests and diagnostics.
    pub fn route_entry(&self, src: NodeId, dst: NodeId) -> Option<&RouteEntry> {
        self.t.routes.get(&(src, dst))
    }

    /// Read-only view of the possible-route entry for flow `(src, dst)`.
    pub fn possible_route(&self, src: NodeId, dst: NodeId) -> Option<&PossibleRoute> {
        self.t.possible.get(&(src, dst))
    }

    /// The current next hop this node (as a source) uses towards `dst`.
    pub fn next_hop_to(&self, dst: NodeId) -> Option<NodeId> {
        self.t.sources.get(dst).and_then(|s| s.next_hop)
    }

    // ---------------------------------------------------------------- source

    /// Feeds a route candidate into the source's 40 ms combining window,
    /// opening the window if necessary (§II.D).
    fn offer_candidate(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId, cand: Candidate) {
        let window_len = ctx.config().selection_window;
        let st = self.t.sources.get_or_insert_with(dst, SourceState::default);
        match &mut st.window {
            Some(best) => {
                if cand.metric < best.metric {
                    *best = cand;
                }
            }
            None => {
                st.window = Some(cand);
                ctx.set_timer(window_len, Timer::SelectionWindow { dst });
            }
        }
    }

    /// Commits the best candidate of a closed combining window.
    fn commit_candidate(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) {
        let me = ctx.id();
        let now = ctx.now();
        let Some(st) = self.t.sources.get_mut(dst) else { return };
        let Some(cand) = st.window.take() else { return };
        let switched = st.next_hop != Some(cand.via);
        st.next_hop = Some(cand.via);
        st.route_metric = cand.metric;
        // A fresh route supersedes any discovery in progress.
        self.discovery.conclude(ctx, dst);
        if cand.needs_rupd && switched {
            ctx.unicast(cand.via, ControlPacket::Rupd { src: me, dst });
            st.send_update_flag = true;
        }
        self.t.routes.insert(
            (me, dst),
            RouteEntry { upstream: None, downstream: Some(cand.via), last_used: now },
        );
        ctx.note_route_phase(RoutePhase::RouteSelected, me, dst);
        for pkt in self.discovery.flush(ctx, dst) {
            self.send_as_source(ctx, pkt);
        }
    }

    /// Routes a packet originated by this node (fresh or un-buffered).
    fn send_as_source(&mut self, ctx: &mut dyn NodeCtx, mut pkt: DataPacket) {
        let me = ctx.id();
        let dst = pkt.dst;
        let now = ctx.now();
        let st = self.t.sources.get_or_insert_with(dst, SourceState::default);
        if let Some(nh) = st.next_hop {
            if st.send_update_flag {
                pkt.route_update = true;
                st.send_update_flag = false;
            }
            if let Some(e) = self.t.routes.get_mut(&(me, dst)) {
                e.last_used = now;
            }
            ctx.send_data(nh, pkt);
            return;
        }
        // No route: buffer and make sure a discovery (or a CSI wave) will
        // produce one. While CSI checks for this flow are arriving, the
        // next wave is trusted to deliver a route — the same arbitration
        // as on REER (§II.D scenario 1). An open combining window will
        // commit a route too.
        let waits = st.window.is_some() || st.checks_flowing(now, ctx.config().csi_check_period);
        self.discovery.buffer(ctx, pkt);
        if !waits {
            self.discovery.start(ctx, dst);
        }
    }

    // ----------------------------------------------------------- forwarding

    /// Forwards a data packet at an intermediate terminal.
    fn forward(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, _rx: RxInfo) {
        let now = ctx.now();
        let cfg_idle = ctx.config().route_idle_timeout;
        let detect = ctx.config().rica_promotion_window;
        let key: FlowKey = (pkt.src, pkt.dst);

        // An update-flagged packet promotes the possible entry (§II.C): the
        // downstream learned from the first CSI check of the current wave
        // becomes the active downstream.
        if pkt.route_update {
            if let Some(p) = self.t.possible.get(&key) {
                if p.is_fresh(now, detect) {
                    let downstream = p.downstream;
                    let e = self.t.routes.or_insert_with(key, || RouteEntry {
                        upstream: None,
                        downstream: None,
                        last_used: now,
                    });
                    e.downstream = Some(downstream);
                    e.last_used = now;
                }
            }
        }
        match self.t.routes.get_mut(&key).filter(|e| e.is_fresh(now, cfg_idle)) {
            Some(RouteEntry { downstream: Some(nh), last_used, .. }) => {
                *last_used = now;
                ctx.send_data(*nh, pkt);
            }
            _ => {
                // No active entry, but the last CSI check wave may have left
                // a possible downstream: the PN code is being detected, so
                // the terminal can forward along it (§II.C) and the entry
                // becomes active.
                if let Some(p) = self.t.possible.get(&key) {
                    if p.is_fresh(now, detect) {
                        let downstream = p.downstream;
                        self.t.routes.insert(
                            key,
                            RouteEntry {
                                upstream: None,
                                downstream: Some(downstream),
                                last_used: now,
                            },
                        );
                        ctx.send_data(downstream, pkt);
                        return;
                    }
                }
                ctx.drop_data(pkt, DropReason::NoRoute);
            }
        }
    }

    // ---------------------------------------------------------- destination

    /// Handles a data packet that reached its destination.
    fn deliver(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket) {
        let now = ctx.now();
        let src = pkt.src;
        let hops = pkt.hops.clamp(1, u8::MAX as u32) as u8;
        let update = pkt.route_update;
        ctx.deliver_local(pkt);
        let period = ctx.config().csi_check_period;
        let ds = self.t.dests.get_or_insert_with(src, || DestState::new(now));
        ds.last_data_rx = now;
        // The TTL of future CSI checks tracks the *current* path length.
        if update || ds.known_topo_hops == 0 {
            ds.known_topo_hops = hops;
        } else {
            ds.known_topo_hops = hops.max(1);
        }
        // Receiver-initiated: the destination starts the periodic CSI
        // checking as soon as the flow is alive (§II.C).
        if !ds.csi_timer_armed {
            ds.csi_timer_armed = true;
            ctx.set_timer(period, Timer::CsiBroadcast { src });
        }
    }

    /// Emits one CSI checking packet wave (the destination's periodic
    /// broadcast, §II.C).
    fn broadcast_csi_check(&mut self, ctx: &mut dyn NodeCtx, src: NodeId) {
        let me = ctx.id();
        let now = ctx.now();
        let idle = ctx.config().flow_idle_timeout;
        let margin = ctx.config().csi_ttl_margin;
        let period = ctx.config().csi_check_period;
        let Some(ds) = self.t.dests.get_mut(src) else { return };
        if now.saturating_since(ds.last_data_rx) > idle {
            // Flow is idle: stop checking until data flows again.
            ds.csi_timer_armed = false;
            return;
        }
        let bcast_id = ds.next_bcast;
        ds.next_bcast += 1;
        let ttl = ds.known_topo_hops.saturating_add(margin).max(1);
        ctx.broadcast(ControlPacket::CsiCheck {
            src,
            dst: me,
            bcast_id,
            csi_hops: 0.0,
            ttl,
            received_from: None,
        });
        ctx.set_timer(period, Timer::CsiBroadcast { src });
    }

    // ------------------------------------------------------------- control

    fn on_rreq(
        &mut self,
        ctx: &mut dyn NodeCtx,
        rx: RxInfo,
        src: NodeId,
        dst: NodeId,
        bcast_id: u64,
        csi_hops: f64,
        topo_hops: u8,
    ) {
        let me = ctx.id();
        if src == me {
            return; // our own flood echoed back
        }
        let new_csi = csi_hops + rx.class.csi_hops();
        let new_topo = topo_hops.saturating_add(1);
        let key: FlowKey = (src, dst);
        if dst == me {
            // Destination: collect copies for the reply window and answer
            // the best (§II.B: "the destination ... chooses a route with the
            // minimal distance value").
            let now = ctx.now();
            let window = ctx.config().reply_window;
            let ds = self.t.dests.get_or_insert_with(src, || DestState::new(now));
            if ds.last_replied_bcast.is_some_and(|last| bcast_id <= last) {
                return; // stale flood already answered
            }
            match &mut ds.reply_window {
                Some((wid, best_csi, best_topo, via)) if *wid == bcast_id => {
                    if new_csi < *best_csi {
                        *best_csi = new_csi;
                        *best_topo = new_topo;
                        *via = rx.from;
                    }
                }
                Some(_) => { /* a different flood is being collected; ignore */ }
                None => {
                    ds.reply_window = Some((bcast_id, new_csi, new_topo, rx.from));
                    ctx.set_timer(window, Timer::ReplyWindow { src, dst });
                }
            }
            return;
        }
        // Intermediate: history-table dedup, remember the reverse pointer,
        // accumulate the CSI distance, re-broadcast.
        if !self.t.rreq_reverse.first_copy(key, bcast_id, rx.from) {
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

    fn on_rrep(
        &mut self,
        ctx: &mut dyn NodeCtx,
        rx: RxInfo,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        csi_hops: f64,
        topo_hops: u8,
    ) {
        let me = ctx.id();
        let now = ctx.now();
        let key: FlowKey = (src, dst);
        if src == me {
            // The reply reached the source: it becomes a route candidate.
            // If no route exists and no window is open, adopt immediately;
            // otherwise combine within the window (§II.D scenarios).
            let st = self.t.sources.get_or_insert_with(dst, SourceState::default);
            let cand = Candidate { via: rx.from, metric: csi_hops, topo_hops, needs_rupd: false };
            let adopt_now = st.next_hop.is_none() && st.window.is_none();
            if adopt_now {
                st.window = Some(cand);
                self.commit_candidate(ctx, dst);
            } else {
                self.offer_candidate(ctx, dst, cand);
            }
            return;
        }
        // Intermediate terminal on the chosen route: install the entry and
        // pass the reply towards the source (§II.B).
        let Some(upstream) = self.t.rreq_reverse.toward_origin(key, seq) else {
            return; // reverse pointer lost/expired: reply dies here
        };
        self.t.routes.insert(
            key,
            RouteEntry { upstream: Some(upstream), downstream: Some(rx.from), last_used: now },
        );
        ctx.unicast(upstream, ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops });
    }

    fn on_csi_check(
        &mut self,
        ctx: &mut dyn NodeCtx,
        rx: RxInfo,
        src: NodeId,
        dst: NodeId,
        bcast_id: u64,
        csi_hops: f64,
        ttl: u8,
    ) {
        let me = ctx.id();
        let now = ctx.now();
        if dst == me {
            return; // our own check echoed back
        }
        let new_csi = csi_hops + rx.class.csi_hops();
        let key: FlowKey = (src, dst);
        if src == me {
            // The source: this is a route candidate for the flow to `dst`.
            let st = self.t.sources.get_or_insert_with(dst, SourceState::default);
            st.last_csi_rx = Some(now);
            self.offer_candidate(
                ctx,
                dst,
                Candidate { via: rx.from, metric: new_csi, topo_hops: ttl, needs_rupd: true },
            );
            return;
        }
        // Intermediate: only the first copy of each wave is processed
        // (§II.C: "a terminal only broadcasts a checking packet once").
        match self.t.csi_seen.get(&key) {
            Some(&seen) if bcast_id <= seen => return,
            _ => {}
        }
        self.t.csi_seen.insert(key, bcast_id);
        // Remember the possible downstream (PN-code detection starts).
        self.t.possible.insert(key, PossibleRoute { downstream: rx.from, set_at: now, bcast_id });
        let new_ttl = ttl.saturating_sub(1);
        if new_ttl == 0 {
            return; // scope exhausted (§II.C)
        }
        ctx.broadcast(ControlPacket::CsiCheck {
            src,
            dst,
            bcast_id,
            csi_hops: new_csi,
            ttl: new_ttl,
            received_from: Some(rx.from),
        });
    }

    fn on_rupd(&mut self, ctx: &mut dyn NodeCtx, rx: RxInfo, src: NodeId, dst: NodeId) {
        // The source committed to us as its new next hop: promote our
        // possible entry to the active route (§II.C, Figure 1(d)).
        let now = ctx.now();
        let detect = ctx.config().rica_promotion_window;
        let key: FlowKey = (src, dst);
        let downstream = match self.t.possible.get(&key) {
            Some(p) if p.is_fresh(now, detect) => Some(p.downstream),
            _ => self.t.routes.get(&key).and_then(|e| e.downstream),
        };
        let Some(downstream) = downstream else {
            return; // nothing usable; data packets will be dropped as NoRoute
        };
        self.t.routes.insert(
            key,
            RouteEntry { upstream: Some(rx.from), downstream: Some(downstream), last_used: now },
        );
    }

    fn on_rerr(&mut self, ctx: &mut dyn NodeCtx, rx: RxInfo, src: NodeId, dst: NodeId) {
        let key: FlowKey = (src, dst);
        // §II.D: "The upstream terminal first checks whether the terminal
        // unicasting the REER is its downstream terminal ... If not, it
        // ignores this REER because this REER comes from a broken route
        // which is out of date".
        let from_downstream =
            self.t.routes.get(&key).is_some_and(|e| e.downstream == Some(rx.from));
        if from_downstream {
            self.lose_downstream(ctx, key);
        }
    }

    /// The flow's downstream is gone (it sent a REER, or the link to it
    /// broke): the source applies §II.D's arbitration; a relay invalidates
    /// its entry and reports upstream.
    fn lose_downstream(&mut self, ctx: &mut dyn NodeCtx, (src, dst): FlowKey) {
        let me = ctx.id();
        if src == me {
            self.handle_source_route_loss(ctx, dst);
            return;
        }
        let Some(e) = self.t.routes.get_mut(&(src, dst)) else { return };
        e.downstream = None;
        if let Some(up) = e.upstream {
            ctx.unicast(up, ControlPacket::Rerr { src, dst, reporter: me });
        }
    }

    /// The source lost its route (REER arrived or the first link broke):
    /// apply §II.D's arbitration.
    fn handle_source_route_loss(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) {
        let me = ctx.id();
        let now = ctx.now();
        let period = ctx.config().csi_check_period;
        ctx.note_route_phase(RoutePhase::RouteLost, me, dst);
        self.t.routes.remove(&(me, dst));
        let st = self.t.sources.get_or_insert_with(dst, SourceState::default);
        st.next_hop = None;
        // Scenario 1: CSI checks are flowing — the next wave (≤ one period
        // away) will deliver fresh candidates; do not flood.
        if !st.checks_flowing(now, period) {
            // Scenario 2: no checks — search with a RREQ. Whatever arrives
            // first (RREP or a check wave) re-establishes the route.
            self.discovery.start(ctx, dst);
        }
    }

    // --------------------------------------------------------------- timers

    fn on_reply_window(&mut self, ctx: &mut dyn NodeCtx, src: NodeId, dst: NodeId) {
        debug_assert_eq!(dst, ctx.id());
        let now = ctx.now();
        let period = ctx.config().csi_check_period;
        let Some(ds) = self.t.dests.get_mut(src) else { return };
        let Some((bcast_id, csi, topo, via)) = ds.reply_window.take() else { return };
        ds.last_replied_bcast = Some(bcast_id);
        ds.known_topo_hops = topo.max(1);
        // Answer along the reverse pointers of the best copy.
        ctx.unicast(
            via,
            ControlPacket::Rrep { src, dst, seq: bcast_id, csi_hops: csi, topo_hops: topo },
        );
        // Install our own endpoint entry.
        self.t.routes.insert(
            (src, dst),
            RouteEntry { upstream: Some(via), downstream: None, last_used: now },
        );
        // The receiver initiates CSI checking for the new flow.
        if !ds.csi_timer_armed {
            ds.csi_timer_armed = true;
            ds.last_data_rx = now;
            ctx.set_timer(period, Timer::CsiBroadcast { src });
        }
    }
}

impl RoutingProtocol for Rica {
    fn name(&self) -> &'static str {
        "RICA"
    }

    fn on_reboot(&mut self, ctx: &mut dyn NodeCtx) {
        // Cold restart: routing tables, pending discoveries and CSI
        // bookkeeping died with the node; receivers re-initiate routes
        // on the next data arrival.
        *self = Rica::new();
        self.on_start(ctx);
    }

    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        match *pkt {
            ControlPacket::Rreq { src, dst, bcast_id, csi_hops, topo_hops } => {
                self.on_rreq(ctx, rx, src, dst, bcast_id, csi_hops, topo_hops)
            }
            ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops } => {
                self.on_rrep(ctx, rx, src, dst, seq, csi_hops, topo_hops)
            }
            ControlPacket::CsiCheck { src, dst, bcast_id, csi_hops, ttl, .. } => {
                self.on_csi_check(ctx, rx, src, dst, bcast_id, csi_hops, ttl)
            }
            ControlPacket::Rupd { src, dst } => self.on_rupd(ctx, rx, src, dst),
            ControlPacket::Rerr { src, dst, .. } => self.on_rerr(ctx, rx, src, dst),
            // Not RICA vocabulary: other protocols' packets are ignored.
            ControlPacket::Beacon
            | ControlPacket::Lsu { .. }
            | ControlPacket::Bq { .. }
            | ControlPacket::Lq { .. }
            | ControlPacket::LqRep { .. } => {}
        }
    }

    fn on_data(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, rx: Option<RxInfo>) {
        let me = ctx.id();
        if pkt.dst == me {
            self.deliver(ctx, pkt);
        } else if pkt.src == me && rx.is_none() {
            self.send_as_source(ctx, pkt);
        } else if let Some(rx) = rx {
            self.forward(ctx, pkt, rx);
        } else {
            // Locally generated packet claiming a foreign source.
            ctx.drop_data(pkt, DropReason::NoRoute);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NodeCtx, timer: Timer) {
        match timer {
            Timer::RreqRetry { dst } => {
                let routed = self.next_hop_to(dst).is_some();
                self.discovery.retry(ctx, dst, routed);
            }
            Timer::ReplyWindow { src, dst } => self.on_reply_window(ctx, src, dst),
            Timer::SelectionWindow { dst } => self.commit_candidate(ctx, dst),
            Timer::CsiBroadcast { src } => self.broadcast_csi_check(ctx, src),
            _ => {}
        }
    }

    fn current_downstream(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.t.routes.get(&(src, dst)).and_then(|e| e.downstream)
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut dyn NodeCtx,
        neighbor: NodeId,
        undelivered: Vec<DataPacket>,
    ) {
        let me = ctx.id();
        let now = ctx.now();
        // Invalidate every route that used the vanished neighbour as its
        // downstream, and report upstream (§II.D).
        let affected: Vec<FlowKey> = self
            .t
            .routes
            .iter()
            .filter(|(_, e)| e.downstream == Some(neighbor))
            .map(|(k, _)| *k)
            .collect();
        for key in affected {
            self.lose_downstream(ctx, key);
        }
        // Salvage what we can: packets we originated return to the pending
        // buffer (a new route may appear within their lifetime); forwarded
        // packets can follow a fresh possible downstream learned from the
        // current CSI wave (the PN code is already being detected, §II.C);
        // anything else is lost with the link (§III.B).
        let detect = ctx.config().rica_promotion_window;
        for pkt in undelivered {
            if pkt.src == me {
                let dst = pkt.dst;
                self.discovery.buffer(ctx, pkt);
                let st = self.t.sources.get_or_insert_with(dst, SourceState::default);
                if st.next_hop == Some(neighbor) {
                    st.next_hop = None;
                }
            } else {
                let key = (pkt.src, pkt.dst);
                let alt = self
                    .t
                    .possible
                    .get(&key)
                    .filter(|p| p.is_fresh(now, detect) && p.downstream != neighbor)
                    .map(|p| p.downstream);
                match alt {
                    Some(downstream) => {
                        self.t.routes.insert(
                            key,
                            RouteEntry {
                                upstream: None,
                                downstream: Some(downstream),
                                last_used: now,
                            },
                        );
                        ctx.send_data(downstream, pkt);
                    }
                    None => ctx.drop_data(pkt, DropReason::LinkBreak),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_channel::ChannelClass;
    use rica_net::testing::ScriptedCtx;
    use rica_net::{ControlKind, FlowId};
    use rica_sim::{SimDuration, SimTime};

    fn rx(from: u32, class: ChannelClass) -> RxInfo {
        RxInfo { from: NodeId(from), class }
    }

    fn data(src: u32, dst: u32, seq: u64) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(src), NodeId(dst), 512, SimTime::ZERO)
    }

    // ---------------------------------------------------------- discovery

    #[test]
    fn source_with_no_route_floods_rreq_and_buffers() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Rica::new();
        p.on_data(&mut ctx, data(0, 9, 0), None);
        assert_eq!(ctx.sent_data.len(), 0, "no route yet: nothing sent");
        assert_eq!(ctx.broadcasts.len(), 1);
        assert!(matches!(
            ctx.broadcasts[0],
            ControlPacket::Rreq { src: NodeId(0), dst: NodeId(9), csi_hops: 0.0, topo_hops: 0, .. }
        ));
        // A retry timer is armed.
        assert!(ctx
            .pending_timers()
            .iter()
            .any(|t| t.timer == Timer::RreqRetry { dst: NodeId(9) }));
        // A second packet does not re-flood.
        p.on_data(&mut ctx, data(0, 9, 1), None);
        assert_eq!(ctx.broadcasts.len(), 1);
    }

    #[test]
    fn intermediate_accumulates_csi_hops_and_dedups() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
        let rreq = ControlPacket::Rreq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 7,
            csi_hops: 1.0,
            topo_hops: 1,
        };
        // Arrives over a class-C link: distance 1 + 3.33.
        p.on_control(&mut ctx, &rreq, rx(2, ChannelClass::C));
        assert_eq!(ctx.broadcasts.len(), 1);
        match &ctx.broadcasts[0] {
            ControlPacket::Rreq { csi_hops, topo_hops, .. } => {
                assert!((csi_hops - (1.0 + 10.0 / 3.0)).abs() < 1e-9);
                assert_eq!(*topo_hops, 2);
            }
            other => panic!("expected RREQ, got {other:?}"),
        }
        // The same flood from another neighbour is discarded.
        p.on_control(&mut ctx, &rreq, rx(3, ChannelClass::A));
        assert_eq!(ctx.broadcasts.len(), 1, "history table suppressed the copy");
    }

    #[test]
    fn destination_collects_and_replies_to_best_copy() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Rica::new();
        let mk = |csi: f64, topo: u8| ControlPacket::Rreq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            csi_hops: csi,
            topo_hops: topo,
        };
        // First copy: 6 hops via n1 (link class A adds 1.0 → 6.0 total).
        p.on_control(&mut ctx, &mk(5.0, 3), rx(1, ChannelClass::A));
        assert!(ctx.unicasts.is_empty(), "reply deferred to the window close");
        // Better copy: 4.33 via n2 (3.33 + class-A link 1.0).
        p.on_control(&mut ctx, &mk(3.33, 4), rx(2, ChannelClass::A));
        // Worse copy: ignored.
        p.on_control(&mut ctx, &mk(9.0, 2), rx(3, ChannelClass::A));
        // Close the reply window.
        let timer = ctx.fire_next_timer();
        assert_eq!(timer, Timer::ReplyWindow { src: NodeId(0), dst: NodeId(9) });
        p.on_timer(&mut ctx, timer);
        assert_eq!(ctx.unicasts.len(), 1);
        let (to, pkt) = &ctx.unicasts[0];
        assert_eq!(*to, NodeId(2), "reply goes to the relayer of the best copy");
        match pkt {
            ControlPacket::Rrep { csi_hops, topo_hops, .. } => {
                assert!((csi_hops - 4.33).abs() < 0.01);
                assert_eq!(*topo_hops, 5);
            }
            other => panic!("expected RREP, got {other:?}"),
        }
        // The destination begins CSI checking for the flow.
        assert!(ctx
            .pending_timers()
            .iter()
            .any(|t| t.timer == Timer::CsiBroadcast { src: NodeId(0) }));
    }

    #[test]
    fn rrep_installs_entries_and_reaches_source() {
        // Relay n5 saw the flood (reverse pointer to n1), then relays the
        // reply from n7 and installs up/downstream.
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 3,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            rx(1, ChannelClass::B),
        );
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 3,
                csi_hops: 4.0,
                topo_hops: 3,
            },
            rx(7, ChannelClass::A),
        );
        assert_eq!(ctx.unicasts.len(), 1);
        assert_eq!(ctx.unicasts[0].0, NodeId(1), "forwarded to the reverse pointer");
        let e = p.route_entry(NodeId(0), NodeId(9)).unwrap();
        assert_eq!(e.upstream, Some(NodeId(1)));
        assert_eq!(e.downstream, Some(NodeId(7)));

        // Now the source: adopting the route flushes pending data.
        let mut src_ctx = ScriptedCtx::new(NodeId(0));
        let mut src = Rica::new();
        src.on_data(&mut src_ctx, data(0, 9, 0), None);
        src_ctx.clear_actions();
        src.on_control(
            &mut src_ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 3,
                csi_hops: 4.0,
                topo_hops: 3,
            },
            rx(5, ChannelClass::A),
        );
        assert_eq!(src.next_hop_to(NodeId(9)), Some(NodeId(5)));
        assert_eq!(src_ctx.sent_data.len(), 1, "pending packet flushed");
        assert_eq!(src_ctx.sent_data[0].0, NodeId(5));
    }

    #[test]
    fn rreq_retry_gives_up_and_drops_pending() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Rica::new();
        p.on_data(&mut ctx, data(0, 9, 0), None);
        let max = ctx.config().rreq_max_retries;
        for _ in 0..=max {
            let timer = ctx.fire_next_timer();
            assert_eq!(timer, Timer::RreqRetry { dst: NodeId(9) });
            p.on_timer(&mut ctx, timer);
        }
        assert_eq!(ctx.broadcasts.len(), 1 + max as usize, "initial + retries");
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::NoRoute);
    }

    // --------------------------------------------------------- CSI checking

    /// Builds a source with an established route 0 → 5 → … → 9.
    fn source_with_route() -> (ScriptedCtx, Rica) {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Rica::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 6.0,
                topo_hops: 3,
            },
            rx(5, ChannelClass::A),
        );
        assert_eq!(p.next_hop_to(NodeId(9)), Some(NodeId(5)));
        ctx.clear_actions();
        (ctx, p)
    }

    #[test]
    fn destination_broadcasts_periodic_csi_checks_with_path_ttl() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Rica::new();
        let mut pkt = data(0, 9, 0);
        pkt.hops = 3; // as recorded by the harness along the path
        p.on_data(&mut ctx, pkt, Some(rx(7, ChannelClass::A)));
        assert_eq!(ctx.delivered.len(), 1);
        let timer = ctx.fire_next_timer();
        assert_eq!(timer, Timer::CsiBroadcast { src: NodeId(0) });
        p.on_timer(&mut ctx, timer);
        assert_eq!(ctx.broadcasts.len(), 1);
        match &ctx.broadcasts[0] {
            ControlPacket::CsiCheck { src, dst, ttl, csi_hops, received_from, .. } => {
                assert_eq!((*src, *dst), (NodeId(0), NodeId(9)));
                let margin = ctx.config().csi_ttl_margin;
                assert_eq!(*ttl, 3 + margin, "TTL = known topological hop distance + margin");
                assert_eq!(*csi_hops, 0.0);
                assert_eq!(*received_from, None);
            }
            other => panic!("expected CsiCheck, got {other:?}"),
        }
        // Re-armed for the next period.
        assert!(ctx
            .pending_timers()
            .iter()
            .any(|t| t.timer == Timer::CsiBroadcast { src: NodeId(0) }));
    }

    #[test]
    fn csi_checks_stop_when_flow_idle() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Rica::new();
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(7, ChannelClass::A)));
        // Let the flow go idle past the timeout, then fire the armed timer.
        ctx.advance(SimDuration::from_secs(10));
        let timer = ctx.fire_next_timer();
        assert_eq!(timer, Timer::CsiBroadcast { src: NodeId(0) });
        p.on_timer(&mut ctx, timer);
        assert!(ctx.broadcasts.is_empty(), "idle flow: no check");
        assert!(
            !ctx.pending_timers().iter().any(|t| matches!(t.timer, Timer::CsiBroadcast { .. })),
            "timer not re-armed"
        );
        // Fresh data restarts the periodic checking.
        p.on_data(&mut ctx, data(0, 9, 1), Some(rx(7, ChannelClass::A)));
        assert!(ctx.pending_timers().iter().any(|t| matches!(t.timer, Timer::CsiBroadcast { .. })));
    }

    #[test]
    fn relay_rebroadcasts_first_check_records_possible_and_decrements_ttl() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
        let check = ControlPacket::CsiCheck {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 4,
            csi_hops: 1.67,
            ttl: 3,
            received_from: Some(NodeId(7)),
        };
        p.on_control(&mut ctx, &check, rx(7, ChannelClass::B));
        assert_eq!(ctx.broadcasts.len(), 1);
        match &ctx.broadcasts[0] {
            ControlPacket::CsiCheck { csi_hops, ttl, received_from, .. } => {
                assert!((csi_hops - (1.67 + 5.0 / 3.0)).abs() < 0.01);
                assert_eq!(*ttl, 2);
                assert_eq!(*received_from, Some(NodeId(7)));
            }
            other => panic!("expected CsiCheck, got {other:?}"),
        }
        let poss = p.possible_route(NodeId(0), NodeId(9)).unwrap();
        assert_eq!(poss.downstream, NodeId(7), "first-copy sender is the possible downstream");
        // Duplicate copy of the same wave: dropped.
        p.on_control(&mut ctx, &check, rx(3, ChannelClass::A));
        assert_eq!(ctx.broadcasts.len(), 1);
        assert_eq!(
            p.possible_route(NodeId(0), NodeId(9)).unwrap().downstream,
            NodeId(7),
            "possible downstream unchanged by duplicates"
        );
    }

    #[test]
    fn check_with_ttl_one_is_not_rebroadcast() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                csi_hops: 0.0,
                ttl: 1,
                received_from: None,
            },
            rx(9, ChannelClass::A),
        );
        assert!(ctx.broadcasts.is_empty(), "TTL exhausted");
        assert!(p.possible_route(NodeId(0), NodeId(9)).is_some(), "still learns the downstream");
    }

    #[test]
    fn source_switches_route_after_selection_window_with_rupd_and_flag() {
        let (mut ctx, mut p) = source_with_route();
        // A check arrives via a *different* neighbour with a better metric.
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 11,
                csi_hops: 2.0,
                ttl: 3,
                received_from: Some(NodeId(4)),
            },
            rx(4, ChannelClass::A),
        );
        // Another, worse candidate in the same window via the old neighbour.
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 11,
                csi_hops: 7.0,
                ttl: 3,
                received_from: Some(NodeId(5)),
            },
            rx(5, ChannelClass::A),
        );
        let timer = ctx.fire_next_timer();
        assert_eq!(timer, Timer::SelectionWindow { dst: NodeId(9) });
        p.on_timer(&mut ctx, timer);
        assert_eq!(p.next_hop_to(NodeId(9)), Some(NodeId(4)), "switched to the best");
        // RUPD committed the switch.
        assert!(ctx
            .unicasts
            .iter()
            .any(|(to, pkt)| *to == NodeId(4) && matches!(pkt, ControlPacket::Rupd { .. })));
        // First data packet after the switch carries the update flag.
        ctx.clear_actions();
        p.on_data(&mut ctx, data(0, 9, 1), None);
        assert!(ctx.sent_data[0].1.route_update);
        p.on_data(&mut ctx, data(0, 9, 2), None);
        assert!(!ctx.sent_data[1].1.route_update, "only the first packet is flagged");
    }

    #[test]
    fn source_keeps_route_when_best_candidate_is_current_next_hop() {
        let (mut ctx, mut p) = source_with_route();
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 11,
                csi_hops: 1.0,
                ttl: 3,
                received_from: Some(NodeId(5)),
            },
            rx(5, ChannelClass::A),
        );
        let timer = ctx.fire_next_timer();
        p.on_timer(&mut ctx, timer);
        assert_eq!(p.next_hop_to(NodeId(9)), Some(NodeId(5)));
        assert!(
            !ctx.unicasts.iter().any(|(_, pkt)| matches!(pkt, ControlPacket::Rupd { .. })),
            "no RUPD when the route is unchanged"
        );
    }

    #[test]
    fn update_flagged_data_promotes_possible_entry_at_relay() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
        // Relay learned a possible downstream from a check wave.
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 4,
                csi_hops: 0.0,
                ttl: 3,
                received_from: Some(NodeId(7)),
            },
            rx(7, ChannelClass::B),
        );
        ctx.clear_actions();
        // Flagged data arrives within the PN detection window.
        ctx.advance(SimDuration::from_millis(50));
        let mut pkt = data(0, 9, 0);
        pkt.route_update = true;
        p.on_data(&mut ctx, pkt, Some(rx(0, ChannelClass::A)));
        assert_eq!(ctx.sent_data.len(), 1);
        assert_eq!(ctx.sent_data[0].0, NodeId(7), "forwarded along the promoted entry");
        let e = p.route_entry(NodeId(0), NodeId(9)).unwrap();
        assert_eq!(e.downstream, Some(NodeId(7)));
    }

    #[test]
    fn stale_possible_entry_is_not_promoted() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 4,
                csi_hops: 0.0,
                ttl: 3,
                received_from: Some(NodeId(7)),
            },
            rx(7, ChannelClass::B),
        );
        ctx.clear_actions();
        // Past the promotion window (one CSI period): the possible entry
        // belongs to a stale wave and must not be promoted.
        ctx.advance(SimDuration::from_millis(1200));
        let mut pkt = data(0, 9, 0);
        pkt.route_update = true;
        p.on_data(&mut ctx, pkt, Some(rx(0, ChannelClass::A)));
        assert!(ctx.sent_data.is_empty());
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::NoRoute);
    }

    #[test]
    fn rupd_promotes_possible_entry() {
        let mut ctx = ScriptedCtx::new(NodeId(4));
        let mut p = Rica::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 4,
                csi_hops: 0.0,
                ttl: 3,
                received_from: Some(NodeId(8)),
            },
            rx(8, ChannelClass::A),
        );
        ctx.advance(SimDuration::from_millis(30));
        p.on_control(
            &mut ctx,
            &ControlPacket::Rupd { src: NodeId(0), dst: NodeId(9) },
            rx(0, ChannelClass::A),
        );
        let e = p.route_entry(NodeId(0), NodeId(9)).unwrap();
        assert_eq!(e.upstream, Some(NodeId(0)));
        assert_eq!(e.downstream, Some(NodeId(8)));
    }

    // ----------------------------------------------------------- maintenance

    #[test]
    fn rerr_from_non_downstream_is_ignored() {
        // §II.D, Figure 1(e): A ignores C's REER because C is not its
        // downstream terminal.
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
        // Active route with downstream n7.
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 1.0,
                topo_hops: 1,
            },
            rx(7, ChannelClass::A),
        );
        // (no reverse pointer: entry installed only at the source side)
        let mut src_ctx = ScriptedCtx::new(NodeId(5));
        let mut relay = Rica::new();
        relay.on_control(
            &mut src_ctx,
            &ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            rx(1, ChannelClass::A),
        );
        relay.on_control(
            &mut src_ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 1.0,
                topo_hops: 1,
            },
            rx(7, ChannelClass::A),
        );
        src_ctx.clear_actions();
        // REER from n3 (not the downstream n7): ignored.
        relay.on_control(
            &mut src_ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(3) },
            rx(3, ChannelClass::A),
        );
        assert!(src_ctx.unicasts.is_empty());
        assert_eq!(
            relay.route_entry(NodeId(0), NodeId(9)).unwrap().downstream,
            Some(NodeId(7)),
            "route untouched"
        );
        // REER from the true downstream propagates upstream and invalidates.
        relay.on_control(
            &mut src_ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(7) },
            rx(7, ChannelClass::A),
        );
        assert_eq!(src_ctx.unicasts.len(), 1);
        assert_eq!(src_ctx.unicasts[0].0, NodeId(1), "towards the source");
        assert_eq!(relay.route_entry(NodeId(0), NodeId(9)).unwrap().downstream, None);
    }

    #[test]
    fn source_with_fresh_csi_checks_waits_instead_of_flooding() {
        let (mut ctx, mut p) = source_with_route();
        // Fresh CSI activity.
        p.on_control(
            &mut ctx,
            &ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 1,
                csi_hops: 1.0,
                ttl: 3,
                received_from: Some(NodeId(5)),
            },
            rx(5, ChannelClass::A),
        );
        let t = ctx.fire_next_timer();
        p.on_timer(&mut ctx, t);
        ctx.clear_actions();
        // REER from the downstream: scenario 1 — checks are flowing, no flood.
        p.on_control(
            &mut ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(5) },
            rx(5, ChannelClass::A),
        );
        assert!(ctx.broadcasts.is_empty(), "no RREQ while CSI checks are fresh");
        assert_eq!(p.next_hop_to(NodeId(9)), None, "route invalidated");
    }

    #[test]
    fn source_without_csi_checks_refloods_on_rerr() {
        let (mut ctx, mut p) = source_with_route();
        // No CSI checks ever received: scenario 2.
        p.on_control(
            &mut ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(5) },
            rx(5, ChannelClass::A),
        );
        assert_eq!(ctx.broadcasts.len(), 1);
        assert!(matches!(ctx.broadcasts[0], ControlPacket::Rreq { .. }));
    }

    #[test]
    fn link_failure_salvages_own_packets_and_drops_forwarded() {
        let (mut ctx, mut p) = source_with_route();
        let mine = data(0, 9, 5);
        let foreign = data(3, 9, 6);
        p.on_link_failure(&mut ctx, NodeId(5), vec![mine, foreign]);
        assert_eq!(ctx.dropped.len(), 1, "foreign packet dropped");
        assert_eq!(ctx.dropped[0].0.src, NodeId(3));
        assert_eq!(ctx.dropped[0].1, DropReason::LinkBreak);
        assert_eq!(p.next_hop_to(NodeId(9)), None);
        // Our own packet went back to pending: a new route flushes it.
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 1,
                csi_hops: 2.0,
                topo_hops: 2,
            },
            rx(4, ChannelClass::A),
        );
        assert_eq!(ctx.sent_data.len(), 1);
        assert_eq!(ctx.sent_data[0].1.seq, 5);
    }

    #[test]
    fn route_entry_expires_after_idle_timeout() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Rica::new();
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
                csi_hops: 1.0,
                topo_hops: 1,
            },
            rx(7, ChannelClass::A),
        );
        ctx.clear_actions();
        // Unused for > route_idle_timeout (1 s).
        ctx.advance(SimDuration::from_millis(1500));
        p.on_data(&mut ctx, data(0, 9, 0), Some(rx(1, ChannelClass::A)));
        assert!(ctx.sent_data.is_empty());
        assert_eq!(ctx.dropped[0].1, DropReason::NoRoute, "expired entry unusable");
    }

    #[test]
    fn overhead_is_dominated_by_csi_checks_over_time() {
        // Sanity: a destination with an active flow keeps emitting checks.
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Rica::new();
        for seq in 0..5 {
            p.on_data(&mut ctx, data(0, 9, seq), Some(rx(7, ChannelClass::A)));
            // Fire all due CSI timers, simulating periodic waves.
            while let Some(t) = ctx.pending_timers().first().map(|t| t.timer) {
                let fired = ctx.fire_next_timer();
                assert_eq!(fired, t);
                p.on_timer(&mut ctx, fired);
                // Keep the flow alive.
                p.on_data(&mut ctx, data(0, 9, 100 + seq), Some(rx(7, ChannelClass::A)));
                if ctx.broadcasts.len() > 3 {
                    break;
                }
            }
            if ctx.broadcasts.len() > 3 {
                break;
            }
        }
        let checks = ctx.broadcasts.iter().filter(|b| b.kind() == ControlKind::CsiCheck).count();
        assert!(checks >= 3, "periodic checks keep flowing, got {checks}");
    }
}
