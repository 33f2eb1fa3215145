//! The link-state baseline: flooded topology, per-hop Dijkstra forwarding.
//!
//! §III.A: "at the beginning of each simulation run, an accurate view of the
//! network topology is installed in each mobile terminal. When the mobile
//! terminal finds the bandwidth with its neighbor changes (due to CSI change
//! or link break), it floods this change throughout the network."
//!
//! Nothing here prevents transient routing loops — that is the point. When
//! LSUs are lost on the congested common channel, terminals' views diverge
//! and per-hop Dijkstra forwarding loops packets until the 10-packet buffers
//! and the 3-second residency limit destroy them (§III.B/E).

use rica_channel::ChannelClass;
use rica_net::{
    ControlPacket, DataPacket, DropReason, IdMap, LsuEntry, NodeCtx, NodeId, RoutePhase,
    RoutingProtocol, RxInfo, Timer, TopologySnapshot, BEACON_LOSS_LIMIT, BEACON_PERIOD,
    LS_CLASS_HYSTERESIS, LS_MIN_FLOOD_INTERVAL, LS_SAMPLE_PERIOD,
};
use rica_sim::SimTime;

/// The link-state protocol.
#[derive(Debug, Default)]
pub struct LinkState {
    /// Everyone's advertised adjacencies, indexed by origin id; each list
    /// is sorted by neighbour id (the relaxation order Dijkstra relies
    /// on). Flat because LSU dedup + topology reads dominate this
    /// protocol's hot path.
    topo: Vec<Vec<(NodeId, f64)>>,
    /// Newest LSU sequence seen per origin id (dedup + ordering; `None` =
    /// origin never heard, so *any* sequence — including 0 — is news).
    lsu_seen: Vec<Option<u64>>,
    /// Our own LSU sequence counter.
    my_seq: u64,
    /// Neighbours heard recently: id → last beacon time. Flat: one
    /// entry is written per received beacon (n² per beacon period).
    neighbors: IdMap<SimTime>,
    /// The adjacency we last advertised (change detection).
    advertised: IdMap<ChannelClass>,
    /// Last instant we originated an LSU (rate limiting).
    last_flood: Option<SimTime>,
    /// Whether an adjacency change is waiting for the rate limiter.
    flood_pending: bool,
    /// Cached next-hop table indexed by destination id; invalidated (and
    /// recomputed on demand) when the topology changes. Under LSU churn
    /// the view changes between most data forwards, so the Dijkstra run
    /// is *resumable*: each query settles nodes only until the asked-for
    /// destination is final, and later queries in the same topology epoch
    /// continue from the paused frontier. Total work per epoch is
    /// bounded by one full run, and the settled prefix is identical to
    /// the full run's (same `(cost, id)` settle order).
    routes_valid: bool,
    next_hops: Vec<Option<NodeId>>,
    /// Tentative cost per node id of the (possibly paused) Dijkstra run.
    dijkstra_dist: Vec<f64>,
    /// Nodes whose `next_hops` entry is final in the current run.
    dijkstra_settled: Vec<bool>,
    /// The paused frontier of the current run.
    dijkstra_heap: std::collections::BinaryHeap<FrontierEntry>,
}

/// Dijkstra frontier entry ordered as a min-heap by `(cost, node id)` —
/// the node id tie-break keeps the settle order (and therefore the
/// first-hop choice among equal-cost routes) deterministic.
#[derive(Debug, PartialEq)]
struct FrontierEntry(f64, NodeId);
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the min cost.
        other.0.total_cmp(&self.0).then_with(|| other.1.cmp(&self.1))
    }
}

impl LinkState {
    /// Creates a protocol instance.
    pub fn new() -> Self {
        LinkState::default()
    }

    /// The computed next hop towards `dst` on this terminal's current view.
    pub fn next_hop_to(&mut self, me: NodeId, dst: NodeId) -> Option<NodeId> {
        self.ensure_route_to(me, dst);
        self.next_hops.get(dst.index()).copied().flatten()
    }

    fn invalidate_routes(&mut self) {
        self.routes_valid = false;
    }

    /// The (created-on-demand) adjacency list of `origin`.
    fn topo_entry(&mut self, origin: NodeId) -> &mut Vec<(NodeId, f64)> {
        let i = origin.index();
        if i >= self.topo.len() {
            self.topo.resize_with(i + 1, Vec::new);
        }
        &mut self.topo[i]
    }

    /// Inserts or updates one sorted-adjacency entry.
    fn adj_set(adj: &mut Vec<(NodeId, f64)>, n: NodeId, cost: f64) {
        match adj.binary_search_by_key(&n, |e| e.0) {
            Ok(i) => adj[i].1 = cost,
            Err(i) => adj.insert(i, (n, cost)),
        }
    }

    /// Removes one sorted-adjacency entry (no-op when absent).
    fn adj_remove(adj: &mut Vec<(NodeId, f64)>, n: NodeId) {
        if let Ok(i) = adj.binary_search_by_key(&n, |e| e.0) {
            adj.remove(i);
        }
    }

    /// Highest node id mentioned anywhere in the topology view (bounds the
    /// flat Dijkstra state).
    fn max_known_id(&self, me: NodeId) -> usize {
        let mut max = me.index();
        for (origin, adj) in self.topo.iter().enumerate() {
            if let Some(&(last, _)) = adj.last() {
                max = max.max(origin).max(last.index());
            }
        }
        max
    }

    /// Runs Dijkstra over the advertised topology (CSI hop costs) until
    /// `dst`'s first hop is final, pausing the frontier there.
    ///
    /// Settle order is `(cost, node id)` with relaxation in ascending
    /// neighbour order — the same order the original full-run version
    /// produced, so every settled node's route is identical to the full
    /// run's; the early exit only leaves *unqueried* destinations
    /// unsettled. A later query for one of those resumes the paused
    /// frontier, so the whole epoch costs at most one full Dijkstra no
    /// matter how many destinations are asked for.
    fn ensure_route_to(&mut self, me: NodeId, dst: NodeId) {
        if !self.routes_valid {
            let len = self.max_known_id(me) + 1;
            self.next_hops.clear();
            self.next_hops.resize(len, None);
            self.dijkstra_dist.clear();
            self.dijkstra_dist.resize(len, f64::INFINITY);
            self.dijkstra_settled.clear();
            self.dijkstra_settled.resize(len, false);
            self.dijkstra_heap.clear();
            self.dijkstra_dist[me.index()] = 0.0;
            self.dijkstra_heap.push(FrontierEntry(0.0, me));
            self.routes_valid = true;
        }
        if self.dijkstra_settled.get(dst.index()).copied().unwrap_or(false) {
            return; // already final (me itself is settled by the first pop)
        }
        while let Some(FrontierEntry(d, u)) = self.dijkstra_heap.pop() {
            if self.dijkstra_dist[u.index()] < d {
                continue; // stale frontier entry
            }
            self.dijkstra_settled[u.index()] = true;
            if let Some(adj) = self.topo.get(u.index()) {
                for &(v, cost) in adj {
                    let nd = d + cost;
                    if nd < self.dijkstra_dist[v.index()] {
                        self.dijkstra_dist[v.index()] = nd;
                        self.next_hops[v.index()] =
                            if u == me { Some(v) } else { self.next_hops[u.index()] };
                        self.dijkstra_heap.push(FrontierEntry(nd, v));
                    }
                }
            }
            if u == dst {
                self.next_hops[me.index()] = None;
                return; // dst is final; pause here
            }
        }
        // Frontier exhausted: every reachable node is settled, dst is not
        // reachable (or unknown). Later queries return in O(1).
        self.next_hops[me.index()] = None;
    }

    /// Whether the measured adjacency differs enough from the advertised
    /// one to warrant a flood: any neighbour appearing/disappearing, or a
    /// class moving by at least the hysteresis.
    fn is_significant_change(&self, current: &IdMap<ChannelClass>, hysteresis: u8) -> bool {
        if current.len() != self.advertised.len() {
            return true;
        }
        for (n, &c) in current.iter() {
            match self.advertised.get(n) {
                None => return true,
                Some(&adv) => {
                    if c.level().abs_diff(adv.level()) >= hysteresis.max(1) {
                        return true;
                    }
                }
            }
        }
        // current ⊆ advertised keys and same size ⇒ same key set.
        false
    }

    /// Samples our own links and floods an LSU if the advertisement changed
    /// (rate-limited).
    fn maybe_flood_own_lsu(&mut self, ctx: &mut dyn NodeCtx) {
        let me = ctx.id();
        let now = ctx.now();

        // Forget neighbours that went silent.
        let horizon = BEACON_PERIOD.mul_f64(BEACON_LOSS_LIMIT as f64 + 0.5);
        self.neighbors.retain(|_, last| now.saturating_since(*last) <= horizon);

        // Measure current adjacency (ascending id order: `link_class_to`
        // samples the channel, so the call order is part of the fixed-seed
        // behaviour).
        let mut current: IdMap<ChannelClass> = IdMap::new();
        let ids: Vec<NodeId> = self.neighbors.iter().map(|(n, _)| n).collect();
        for n in ids {
            if let Some(class) = ctx.link_class_to(n) {
                current.insert(n, class);
            }
        }
        if self.is_significant_change(&current, LS_CLASS_HYSTERESIS) {
            self.flood_pending = true;
        }
        if !self.flood_pending {
            return;
        }
        if self.last_flood.is_some_and(|t| now.saturating_since(t) < LS_MIN_FLOOD_INTERVAL) {
            return; // rate limited; will retry on the next tick
        }
        // Delta against the previous advertisement ("it floods this
        // change"): changed/new links with their class, vanished links in
        // the down list.
        let entries: Vec<LsuEntry> = current
            .iter()
            .filter(|&(n, &c)| self.advertised.get(n) != Some(&c))
            .map(|(neighbor, &class)| LsuEntry { neighbor, class })
            .collect();
        let down: Vec<NodeId> =
            self.advertised.iter().filter(|&(n, _)| !current.contains(n)).map(|(n, _)| n).collect();
        self.advertised = current;
        self.flood_pending = false;
        self.last_flood = Some(now);
        self.my_seq += 1;
        // Update our own view immediately.
        // `advertised` iterates in ascending id order: the list collects
        // already sorted.
        let own: Vec<(NodeId, f64)> =
            self.advertised.iter().map(|(n, &c)| (n, c.csi_hops())).collect();
        *self.topo_entry(me) = own;
        self.invalidate_routes();
        ctx.broadcast(ControlPacket::Lsu {
            origin: me,
            seq: self.my_seq,
            entries: entries.into(),
            down: down.into(),
        });
    }
}

impl RoutingProtocol for LinkState {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        // Stagger periodic activity across nodes to avoid synchronized
        // flooding.
        let jitter_ns = ctx.rng().u64_below(BEACON_PERIOD.as_nanos().max(1));
        ctx.set_timer(rica_sim::SimDuration::from_nanos(jitter_ns), Timer::Beacon);
        let jitter_ns = ctx.rng().u64_below(LS_SAMPLE_PERIOD.as_nanos().max(1));
        ctx.set_timer(rica_sim::SimDuration::from_nanos(jitter_ns), Timer::LinkMonitor);
    }

    fn on_topology_snapshot(&mut self, ctx: &mut dyn NodeCtx, snap: &TopologySnapshot) {
        let me = ctx.id();
        let now = ctx.now();
        for &(a, b, class) in &snap.links {
            let cost = class.csi_hops();
            Self::adj_set(self.topo_entry(a), b, cost);
            Self::adj_set(self.topo_entry(b), a, cost);
            if a == me {
                self.advertised.insert(b, class);
                self.neighbors.insert(b, now);
            } else if b == me {
                self.advertised.insert(a, class);
                self.neighbors.insert(a, now);
            }
        }
        self.invalidate_routes();
    }

    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        let me = ctx.id();
        let now = ctx.now();
        match *pkt {
            ControlPacket::Beacon => {
                self.neighbors.insert(rx.from, now);
            }
            ControlPacket::Lsu { origin, seq, ref entries, ref down } => {
                if origin == me {
                    return;
                }
                if self.lsu_seen.get(origin.index()).copied().flatten().is_some_and(|s| seq <= s) {
                    return; // old news
                }
                if origin.index() >= self.lsu_seen.len() {
                    self.lsu_seen.resize(origin.index() + 1, None);
                }
                self.lsu_seen[origin.index()] = Some(seq);
                // Apply the delta to our copy of origin's adjacency. A
                // missed LSU leaves stale links behind — intentionally, per
                // the paper's change-flooding scheme.
                let adj = self.topo_entry(origin);
                for e in entries.iter() {
                    Self::adj_set(adj, e.neighbor, e.class.csi_hops());
                }
                for d in down.iter() {
                    Self::adj_remove(adj, *d);
                }
                self.invalidate_routes();
                // Flood on: every terminal re-broadcasts a fresh LSU once.
                // Only the forwarder clones the payload — receivers that
                // drop the packet never copy it.
                ctx.broadcast(ControlPacket::Lsu {
                    origin,
                    seq,
                    entries: entries.clone(),
                    down: down.clone(),
                });
            }
            _ => {}
        }
    }

    fn on_data(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, _rx: Option<RxInfo>) {
        let me = ctx.id();
        if pkt.dst == me {
            ctx.deliver_local(pkt);
            return;
        }
        match self.next_hop_to(me, pkt.dst) {
            Some(nh) => ctx.send_data(nh, pkt),
            None => ctx.drop_data(pkt, DropReason::NoRoute),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NodeCtx, timer: Timer) {
        match timer {
            Timer::Beacon => {
                ctx.broadcast(ControlPacket::Beacon);
                ctx.set_timer(BEACON_PERIOD, Timer::Beacon);
            }
            Timer::LinkMonitor => {
                // "When the mobile terminal finds the bandwidth with its
                // neighbor changes ... it floods this change" (§III.A):
                // continuous CSI sampling of the adjacencies.
                self.maybe_flood_own_lsu(ctx);
                ctx.set_timer(LS_SAMPLE_PERIOD, Timer::LinkMonitor);
            }
            _ => {}
        }
    }

    fn current_downstream(&self, _src: NodeId, dst: NodeId) -> Option<NodeId> {
        // Best-effort: only the cached table (recomputing needs &mut), and
        // only destinations the paused Dijkstra run has already made
        // final — an unsettled entry may still hold a tentative first hop.
        if !self.routes_valid || !self.dijkstra_settled.get(dst.index()).copied().unwrap_or(false) {
            return None;
        }
        self.next_hops.get(dst.index()).copied().flatten()
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut dyn NodeCtx,
        neighbor: NodeId,
        undelivered: Vec<DataPacket>,
    ) {
        let me = ctx.id();
        // Remove the adjacency from our view and advertise the change.
        self.neighbors.remove(neighbor);
        self.advertised.remove(neighbor);
        if let Some(adj) = self.topo.get_mut(me.index()) {
            Self::adj_remove(adj, neighbor);
        }
        self.invalidate_routes();
        self.flood_pending = true;
        self.maybe_flood_own_lsu(ctx);
        // Re-route salvageable packets on the updated view. Link state has
        // no discovery/repair machinery: a salvage miss is the moment the
        // route is observably gone, so that is where the phase is reported.
        for pkt in undelivered {
            match self.next_hop_to(me, pkt.dst) {
                Some(nh) if nh != neighbor => ctx.send_data(nh, pkt),
                _ => {
                    ctx.note_route_phase(RoutePhase::RouteLost, pkt.src, pkt.dst);
                    ctx.drop_data(pkt, DropReason::LinkBreak);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_net::testing::ScriptedCtx;
    use rica_net::FlowId;
    use rica_sim::SimDuration;

    fn rx(from: u32) -> RxInfo {
        RxInfo { from: NodeId(from), class: ChannelClass::A }
    }

    fn snap(links: &[(u32, u32, ChannelClass)]) -> TopologySnapshot {
        TopologySnapshot {
            links: links.iter().map(|&(a, b, c)| (NodeId(a), NodeId(b), c)).collect(),
        }
    }

    fn data(src: u32, dst: u32) -> DataPacket {
        DataPacket::new(FlowId(0), 0, NodeId(src), NodeId(dst), 512, SimTime::ZERO)
    }

    #[test]
    fn dijkstra_prefers_high_bandwidth_path() {
        // 0 -- 1 -- 9 all class D (cost 5+5=10) vs 0 -- 2 -- 3 -- 9 all
        // class A (cost 3): Dijkstra takes the longer, faster path —
        // the paper's §III.E observation about link-state route quality.
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = LinkState::new();
        p.on_topology_snapshot(
            &mut ctx,
            &snap(&[
                (0, 1, ChannelClass::D),
                (1, 9, ChannelClass::D),
                (0, 2, ChannelClass::A),
                (2, 3, ChannelClass::A),
                (3, 9, ChannelClass::A),
            ]),
        );
        assert_eq!(p.next_hop_to(NodeId(0), NodeId(9)), Some(NodeId(2)));
        p.on_data(&mut ctx, data(0, 9), None);
        assert_eq!(ctx.sent_data[0].0, NodeId(2));
    }

    #[test]
    fn unreachable_destination_drops() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = LinkState::new();
        p.on_topology_snapshot(&mut ctx, &snap(&[(0, 1, ChannelClass::A)]));
        p.on_data(&mut ctx, data(0, 9), None);
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::NoRoute);
    }

    #[test]
    fn lsu_updates_view_and_refloods_once() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = LinkState::new();
        p.on_topology_snapshot(
            &mut ctx,
            &snap(&[(0, 1, ChannelClass::A), (1, 9, ChannelClass::A)]),
        );
        assert_eq!(p.next_hop_to(NodeId(0), NodeId(9)), Some(NodeId(1)));
        // n1 advertises it lost the link to 9.
        let lsu = ControlPacket::Lsu {
            origin: NodeId(1),
            seq: 5,
            entries: [].into(),
            down: [NodeId(9)].into(),
        };
        p.on_control(&mut ctx, &lsu, rx(1));
        assert_eq!(p.next_hop_to(NodeId(0), NodeId(9)), None, "view updated");
        assert_eq!(ctx.broadcasts.len(), 1, "flooded on");
        // The same LSU again: suppressed.
        p.on_control(&mut ctx, &lsu, rx(2));
        assert_eq!(ctx.broadcasts.len(), 1);
        // An older seq: suppressed too.
        p.on_control(
            &mut ctx,
            &ControlPacket::Lsu { origin: NodeId(1), seq: 4, entries: [].into(), down: [].into() },
            rx(2),
        );
        assert_eq!(ctx.broadcasts.len(), 1);
    }

    #[test]
    fn beacons_schedule_and_adjacency_changes_flood() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = LinkState::new();
        p.on_start(&mut ctx);
        // Hear a neighbour, then run a beacon tick and a sampling tick with
        // a measurable link.
        p.on_control(&mut ctx, &ControlPacket::Beacon, rx(3));
        ctx.set_link_class(NodeId(3), Some(ChannelClass::B));
        ctx.advance(SimDuration::from_secs(1));
        p.on_timer(&mut ctx, Timer::Beacon);
        p.on_timer(&mut ctx, Timer::LinkMonitor);
        // Our own beacon went out, plus an LSU advertising the new link.
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Beacon)));
        let lsu = ctx
            .broadcasts
            .iter()
            .find(|b| matches!(b, ControlPacket::Lsu { .. }))
            .expect("adjacency changed: LSU flooded");
        match lsu {
            ControlPacket::Lsu { origin, entries, down, .. } => {
                assert_eq!(*origin, NodeId(0));
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].neighbor, NodeId(3));
                assert_eq!(entries[0].class, ChannelClass::B);
                assert!(down.is_empty());
            }
            _ => unreachable!(),
        }
        // Next tick with the same class: no new LSU.
        let n = ctx.broadcasts.len();
        ctx.advance(SimDuration::from_secs(1));
        p.on_timer(&mut ctx, Timer::LinkMonitor);
        let lsus_after: usize =
            ctx.broadcasts[n..].iter().filter(|b| matches!(b, ControlPacket::Lsu { .. })).count();
        assert_eq!(lsus_after, 0, "no change, no flood");
    }

    #[test]
    fn rate_limiter_defers_rapid_changes() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = LinkState::new();
        p.on_start(&mut ctx);
        p.on_control(&mut ctx, &ControlPacket::Beacon, rx(3));
        ctx.set_link_class(NodeId(3), Some(ChannelClass::A));
        ctx.advance(SimDuration::from_secs(1));
        p.on_timer(&mut ctx, Timer::LinkMonitor); // flood #1
                                                  // Class flips immediately; the next sampling tick arrives within
                                                  // the minimum flood interval → deferred.
        ctx.set_link_class(NodeId(3), Some(ChannelClass::D));
        ctx.advance(SimDuration::from_millis(50));
        p.maybe_flood_own_lsu(&mut ctx);
        let lsus: usize =
            ctx.broadcasts.iter().filter(|b| matches!(b, ControlPacket::Lsu { .. })).count();
        assert_eq!(lsus, 1, "second flood rate-limited");
        // After the interval passes the pending change goes out.
        ctx.advance(SimDuration::from_millis(200));
        p.maybe_flood_own_lsu(&mut ctx);
        let lsus: usize =
            ctx.broadcasts.iter().filter(|b| matches!(b, ControlPacket::Lsu { .. })).count();
        assert_eq!(lsus, 2);
    }

    #[test]
    fn link_failure_reroutes_salvageable_packets() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = LinkState::new();
        p.on_topology_snapshot(
            &mut ctx,
            &snap(&[
                (0, 1, ChannelClass::A),
                (1, 9, ChannelClass::A),
                (0, 2, ChannelClass::B),
                (2, 9, ChannelClass::B),
            ]),
        );
        assert_eq!(p.next_hop_to(NodeId(0), NodeId(9)), Some(NodeId(1)));
        // The surviving link to n2 still measures class B.
        ctx.set_link_class(NodeId(2), Some(ChannelClass::B));
        p.on_link_failure(&mut ctx, NodeId(1), vec![data(0, 9)]);
        // Packet re-routed via n2 on the updated view.
        assert_eq!(ctx.sent_data.len(), 1);
        assert_eq!(ctx.sent_data[0].0, NodeId(2));
        assert!(ctx.dropped.is_empty());
        // And the change was advertised.
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Lsu { .. })));
    }

    #[test]
    fn inconsistent_views_can_loop() {
        // n0 believes 9 is via n1; n1 (with a *stale* view) believes 9 is
        // via n0 — a routing loop, exactly what §III.B describes. The
        // protocol must not crash or "fix" this silently; packets ping-pong
        // until the data plane kills them.
        let mut ctx0 = ScriptedCtx::new(NodeId(0));
        let mut p0 = LinkState::new();
        p0.on_topology_snapshot(
            &mut ctx0,
            &snap(&[(0, 1, ChannelClass::A), (1, 9, ChannelClass::A)]),
        );
        let mut ctx1 = ScriptedCtx::new(NodeId(1));
        let mut p1 = LinkState::new();
        p1.on_topology_snapshot(
            &mut ctx1,
            &snap(&[(1, 0, ChannelClass::A), (0, 9, ChannelClass::A)]),
        );
        p0.on_data(&mut ctx0, data(0, 9), None);
        assert_eq!(ctx0.sent_data[0].0, NodeId(1));
        let fwd = ctx0.sent_data[0].1.clone();
        p1.on_data(&mut ctx1, fwd, Some(rx(0)));
        assert_eq!(ctx1.sent_data[0].0, NodeId(0), "loop: sent straight back");
    }
}
