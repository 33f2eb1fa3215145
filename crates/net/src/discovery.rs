//! On-demand route discovery: the source-side policy every on-demand
//! protocol shares, and the relay-side flood history.
//!
//! RICA, AODV, ABR and BGCA find routes the same way. The source buffers
//! data for a destination it has no route to, floods a query, re-floods
//! when no reply came within `rreq_retry_timeout` and gives up after
//! `rreq_max_retries` retries, dropping what waited. [`Discovery`] is that
//! policy, written once. What the protocols do differently stays with
//! them: the query they flood, when a destination counts as routed, how
//! the destination picks a route and how a broken route is repaired.

use std::collections::VecDeque;

use rica_sim::SimTime;

use crate::{
    ControlPacket, DataPacket, DropReason, IdMap, KeyMap, NodeCtx, NodeId, RoutePhase, Timer,
    TimerToken,
};

/// Builds a protocol's discovery flood `(source, destination, flood id)`.
pub type FloodBuilder = fn(NodeId, NodeId, u64) -> ControlPacket;

/// A plain RREQ flood from `src` for `dst`, the query RICA, AODV and BGCA
/// send.
fn rreq_flood(src: NodeId, dst: NodeId, bcast_id: u64) -> ControlPacket {
    ControlPacket::Rreq { src, dst, bcast_id, csi_hops: 0.0, topo_hops: 0 }
}

/// Source-side discovery state of one terminal: the packets waiting for a
/// route, the discoveries in progress and the flood counter.
///
/// Waiting packets are grouped by destination, at most `pending_cap` per
/// destination, and expire after `max_queue_residency` like the link
/// queues (3 s in the paper): a discovery that takes longer cannot save
/// them anyway.
#[derive(Debug)]
pub struct Discovery {
    flood: FloodBuilder,
    /// Packets waiting per destination, with the instant each arrived.
    waiting: KeyMap<NodeId, VecDeque<(DataPacket, SimTime)>>,
    /// Discoveries in progress per destination: (retries so far, the
    /// armed `RreqRetry` timer).
    running: IdMap<(u32, TimerToken)>,
    next_flood: u64,
}

impl Default for Discovery {
    /// Discovery by plain RREQ floods, as RICA, AODV and BGCA discover.
    fn default() -> Self {
        Discovery::new(rreq_flood)
    }
}

impl Discovery {
    /// Discovery by the floods `flood` builds.
    pub fn new(flood: FloodBuilder) -> Self {
        Discovery { flood, waiting: KeyMap::new(), running: IdMap::new(), next_flood: 0 }
    }

    /// Holds `pkt` until a route to its destination appears; drops it as
    /// [`DropReason::BufferOverflow`] when the destination's buffer is full.
    pub fn buffer(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket) {
        let cap = ctx.config().pending_cap;
        let q = self.waiting.or_insert_with(pkt.dst, VecDeque::new);
        if q.len() >= cap {
            ctx.drop_data(pkt, DropReason::BufferOverflow);
        } else {
            q.push_back((pkt, ctx.now()));
        }
    }

    /// Starts a discovery for `dst`, unless one is already running.
    pub fn start(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) {
        if !self.running.contains(dst) {
            self.flood(ctx, dst, 0);
        }
    }

    /// Ends the discovery for `dst` (a route arrived) and cancels its
    /// retry timer.
    pub fn conclude(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) {
        if let Some((_, token)) = self.running.remove(dst) {
            ctx.cancel_timer(token);
        }
    }

    /// The `RreqRetry` timer for `dst` fired. A discovery that is already
    /// `routed` stops. One out of retries stops too, and every packet
    /// waiting for `dst` is dropped as [`DropReason::NoRoute`]. Otherwise
    /// the query is flooded again.
    pub fn retry(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId, routed: bool) {
        let Some(&(retries, _)) = self.running.get(dst) else {
            return; // the discovery already concluded
        };
        if routed {
            self.running.remove(dst);
            return;
        }
        if retries >= ctx.config().rreq_max_retries {
            self.running.remove(dst);
            for (pkt, _) in self.waiting.remove(&dst).unwrap_or_default() {
                ctx.drop_data(pkt, DropReason::NoRoute);
            }
            return;
        }
        self.flood(ctx, dst, retries + 1);
    }

    /// Takes the packets waiting for `dst` now that a route exists: expired
    /// ones are dropped as [`DropReason::BufferTimeout`], fresh ones are
    /// returned in arrival order for the caller to send.
    pub fn flush(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) -> Vec<DataPacket> {
        let Some(q) = self.waiting.remove(&dst) else { return Vec::new() };
        let now = ctx.now();
        let max_residency = ctx.config().max_queue_residency;
        let mut fresh = Vec::with_capacity(q.len());
        for (pkt, at) in q {
            if now.saturating_since(at) > max_residency {
                ctx.drop_data(pkt, DropReason::BufferTimeout);
            } else {
                fresh.push(pkt);
            }
        }
        fresh
    }

    /// Floods a query for `dst` under a new id and arms its retry timer.
    fn flood(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId, retries: u32) {
        let id = self.next_flood;
        self.next_flood += 1;
        let me = ctx.id();
        let phase =
            if retries == 0 { RoutePhase::DiscoveryStart } else { RoutePhase::DiscoveryRetry };
        ctx.note_route_phase(phase, me, dst);
        ctx.broadcast((self.flood)(me, dst, id));
        let token = ctx.set_timer(ctx.config().rreq_retry_timeout, Timer::RreqRetry { dst });
        self.running.insert(dst, (retries, token));
    }
}

/// A relay's flood history: per flow `(source, destination)`, the floods it
/// has already seen, each with the neighbour its first copy came from —
/// the reverse path towards the flood's origin. `I` identifies a flood
/// within its flow: the broadcast id of a RREQ or BQ, `(origin, id)` of a
/// local query.
#[derive(Debug)]
pub struct FloodHistory<I> {
    by_flow: KeyMap<(NodeId, NodeId), KeyMap<I, NodeId>>,
}

impl<I> Default for FloodHistory<I> {
    fn default() -> Self {
        FloodHistory { by_flow: KeyMap::new() }
    }
}

impl<I: Ord + Copy> FloodHistory<I> {
    /// Whether this copy of flood `id` of `flow`, heard from `from`, is the
    /// first; the first copy's sender is remembered as the reverse path.
    pub fn first_copy(&mut self, flow: (NodeId, NodeId), id: I, from: NodeId) -> bool {
        let seen = self.by_flow.or_insert_with(flow, KeyMap::new);
        if seen.contains_key(&id) {
            return false;
        }
        seen.insert(id, from);
        true
    }

    /// The neighbour the first copy of flood `id` of `flow` came from.
    pub fn toward_origin(&self, flow: (NodeId, NodeId), id: I) -> Option<NodeId> {
        self.by_flow.get(&flow).and_then(|seen| seen.get(&id)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ScriptedCtx;
    use crate::FlowId;
    use rica_sim::SimDuration;

    fn pkt(seq: u64, dst: u32) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(0), NodeId(dst), 512, SimTime::ZERO)
    }

    fn seqs(pkts: &[DataPacket]) -> Vec<u64> {
        pkts.iter().map(|p| p.seq).collect()
    }

    fn dropped(ctx: &ScriptedCtx) -> Vec<(u64, DropReason)> {
        ctx.dropped.iter().map(|(p, r)| (p.seq, *r)).collect()
    }

    #[test]
    fn flush_returns_one_destination_in_arrival_order() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut d = Discovery::default();
        for (seq, dst) in [(0, 5), (1, 6), (2, 5)] {
            d.buffer(&mut ctx, pkt(seq, dst));
        }
        ctx.advance(SimDuration::from_secs(1));
        assert_eq!(seqs(&d.flush(&mut ctx, NodeId(5))), vec![0, 2]);
        assert!(d.flush(&mut ctx, NodeId(5)).is_empty(), "flushed packets are gone");
        assert_eq!(seqs(&d.flush(&mut ctx, NodeId(6))), vec![1]);
        assert!(ctx.dropped.is_empty());
    }

    #[test]
    fn overflow_at_the_per_destination_cap() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let cap = ctx.config().pending_cap as u64;
        let mut d = Discovery::default();
        for seq in 0..=cap {
            d.buffer(&mut ctx, pkt(seq, 5));
        }
        d.buffer(&mut ctx, pkt(cap + 1, 6));
        assert_eq!(dropped(&ctx), vec![(cap, DropReason::BufferOverflow)], "one past the cap");
        assert_eq!(seqs(&d.flush(&mut ctx, NodeId(5))), (0..cap).collect::<Vec<_>>());
        assert_eq!(seqs(&d.flush(&mut ctx, NodeId(6))), vec![cap + 1], "other dst unaffected");
    }

    #[test]
    fn flush_drops_what_outlived_the_residency_limit() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut d = Discovery::default();
        d.buffer(&mut ctx, pkt(0, 5));
        ctx.advance(SimDuration::from_millis(2500));
        d.buffer(&mut ctx, pkt(1, 5));
        ctx.advance(SimDuration::from_millis(1500));
        assert_eq!(seqs(&d.flush(&mut ctx, NodeId(5))), vec![1]);
        assert_eq!(dropped(&ctx), vec![(0, DropReason::BufferTimeout)]);
    }

    #[test]
    fn start_floods_once_and_conclude_cancels_the_retry() {
        let mut ctx = ScriptedCtx::new(NodeId(3));
        let mut d = Discovery::default();
        d.start(&mut ctx, NodeId(9));
        d.start(&mut ctx, NodeId(9));
        assert_eq!(ctx.broadcasts, vec![rreq_flood(NodeId(3), NodeId(9), 0)], "one flood");
        d.start(&mut ctx, NodeId(8));
        assert_eq!(ctx.broadcasts[1], rreq_flood(NodeId(3), NodeId(8), 1), "ids count up");
        d.conclude(&mut ctx, NodeId(9));
        let armed: Vec<Timer> = ctx.pending_timers().iter().map(|t| t.timer).collect();
        assert_eq!(armed, vec![Timer::RreqRetry { dst: NodeId(8) }]);
        d.start(&mut ctx, NodeId(9));
        assert_eq!(ctx.broadcasts.len(), 3, "a concluded discovery can start again");
    }

    #[test]
    fn retry_refloods_until_the_limit_then_drops_the_waiting_packets() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut d = Discovery::default();
        d.buffer(&mut ctx, pkt(0, 9));
        d.buffer(&mut ctx, pkt(1, 9));
        d.start(&mut ctx, NodeId(9));
        let max = ctx.config().rreq_max_retries;
        for _ in 0..=max {
            let timer = ctx.fire_next_timer();
            assert_eq!(timer, Timer::RreqRetry { dst: NodeId(9) });
            d.retry(&mut ctx, NodeId(9), false);
        }
        assert_eq!(ctx.broadcasts.len(), 1 + max as usize);
        assert_eq!(dropped(&ctx), vec![(0, DropReason::NoRoute), (1, DropReason::NoRoute)]);
        assert!(ctx.pending_timers().is_empty());
        d.retry(&mut ctx, NodeId(9), false);
        assert_eq!(ctx.dropped.len(), 2, "a finished discovery ignores late timers");
    }

    #[test]
    fn retry_of_a_routed_destination_stops_quietly() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut d = Discovery::default();
        d.buffer(&mut ctx, pkt(0, 9));
        d.start(&mut ctx, NodeId(9));
        let timer = ctx.fire_next_timer();
        assert_eq!(timer, Timer::RreqRetry { dst: NodeId(9) });
        d.retry(&mut ctx, NodeId(9), true);
        assert_eq!(ctx.broadcasts.len(), 1, "no re-flood");
        assert!(ctx.dropped.is_empty() && ctx.pending_timers().is_empty());
        assert_eq!(seqs(&d.flush(&mut ctx, NodeId(9))), vec![0], "the packet still waits");
    }

    #[test]
    fn flood_history_keeps_the_first_copy_per_flow() {
        let mut h: FloodHistory<u64> = FloodHistory::default();
        let flow = (NodeId(0), NodeId(9));
        assert!(h.first_copy(flow, 4, NodeId(1)));
        assert!(!h.first_copy(flow, 4, NodeId(2)), "a later copy is a duplicate");
        assert!(h.first_copy((NodeId(1), NodeId(9)), 4, NodeId(2)), "ids are per flow");
        assert_eq!(h.toward_origin(flow, 4), Some(NodeId(1)), "the first sender is kept");
        assert_eq!(h.toward_origin(flow, 5), None);
        let mut lq: FloodHistory<(NodeId, u64)> = FloodHistory::default();
        assert!(lq.first_copy(flow, (NodeId(5), 0), NodeId(6)));
        assert!(lq.first_copy(flow, (NodeId(7), 0), NodeId(6)), "ids are per origin");
        assert_eq!(lq.toward_origin(flow, (NodeId(5), 0)), Some(NodeId(6)));
    }
}
