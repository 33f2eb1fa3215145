//! On-demand route discovery, one type per side: the source's policy, the
//! relays' flood history and the destination's reply window.
//!
//! RICA, AODV, ABR and BGCA find routes the same way. The source buffers
//! data for a destination it has no route to, floods a query, re-floods
//! when no reply came within [`RREQ_RETRY_TIMEOUT`] and gives up after
//! [`RREQ_MAX_RETRIES`] retries, dropping what waited: [`Discovery`]. Each
//! relay passes a flood on once and remembers where it came from:
//! [`FloodHistory`]. The destination answers one copy per flood:
//! [`ReplyWindow`]. What the protocols do differently stays with them: the
//! query they flood, how a copy scores, when a destination counts as
//! routed and how a broken route is repaired.

use std::collections::VecDeque;

use rica_sim::SimTime;

use crate::{
    ControlPacket, DataPacket, DropReason, IdMap, KeyMap, NodeCtx, NodeId, RoutePhase, Timer,
    TimerToken, MAX_QUEUE_RESIDENCY, PENDING_CAP, REPLY_WINDOW, RREQ_MAX_RETRIES,
    RREQ_RETRY_TIMEOUT,
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
/// Waiting packets are grouped by destination, at most [`PENDING_CAP`] per
/// destination, and expire after [`MAX_QUEUE_RESIDENCY`] like the link
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
        let q = self.waiting.or_insert_with(pkt.dst, VecDeque::new);
        if q.len() >= PENDING_CAP {
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
        if retries >= RREQ_MAX_RETRIES {
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
        let mut fresh = Vec::with_capacity(q.len());
        for (pkt, at) in q {
            if now.saturating_since(at) > MAX_QUEUE_RESIDENCY {
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
        let token = ctx.set_timer(RREQ_RETRY_TIMEOUT, Timer::RreqRetry { dst });
        self.running.insert(dst, (retries, token));
    }
}

/// A relay's flood history: per flow `(source, destination)`, the floods it
/// has already seen, each with the neighbour its first copy came from —
/// the reverse path towards the flood's origin.
///
/// A flood is identified within its flow by a `u64`: the broadcast id of a
/// RREQ or BQ, or, for a local query, [`FloodHistory::query_id`], which
/// packs the query's origin into the high half and its `u32` id into the
/// low half, so queries from different origins never share an id.
///
/// Each flow keeps one array of the floods it has seen, sorted by id. An
/// entry is 12 bytes, 4-byte aligned: the id as two `u32` halves, high
/// half first, and the first sender. A `(u64, NodeId)` pair would take 16
/// bytes and a `((NodeId, u64), NodeId)` local-query entry 24; these
/// histories are the largest state a flooding protocol keeps.
///
/// ```
/// use rica_net::{FloodHistory, NodeId};
/// let mut h = FloodHistory::default();
/// let flow = (NodeId(0), NodeId(9));
/// let query = FloodHistory::query_id(NodeId(5), 7);
/// assert_eq!(query, 5 << 32 | 7);
/// assert!(h.first_copy(flow, query, NodeId(6)));
/// assert!(!h.first_copy(flow, query, NodeId(8)), "a later copy is a duplicate");
/// assert_eq!(h.toward_origin(flow, query), Some(NodeId(6)));
/// ```
#[derive(Debug, Default)]
pub struct FloodHistory {
    by_flow: KeyMap<(NodeId, NodeId), Vec<Seen>>,
}

/// One flood a relay has seen: its id as `[high, low]` halves and the
/// neighbour its first copy came from.
#[derive(Debug, Clone, Copy)]
struct Seen {
    id: [u32; 2],
    from: NodeId,
}

const _: () = assert!(std::mem::size_of::<Seen>() == 12 && std::mem::align_of::<Seen>() == 4);

impl Seen {
    fn id(&self) -> u64 {
        (u64::from(self.id[0]) << 32) | u64::from(self.id[1])
    }
}

impl FloodHistory {
    /// The id of local query `id` from `origin`: the origin in the high
    /// half, the query id in the low half.
    pub fn query_id(origin: NodeId, id: u32) -> u64 {
        (u64::from(origin.raw()) << 32) | u64::from(id)
    }

    /// Whether this copy of flood `id` of `flow`, heard from `from`, is the
    /// first; the first copy's sender is remembered as the reverse path.
    pub fn first_copy(&mut self, flow: (NodeId, NodeId), id: u64, from: NodeId) -> bool {
        let seen = self.by_flow.or_insert_with(flow, Vec::new);
        match seen.binary_search_by_key(&id, Seen::id) {
            Ok(_) => false,
            Err(i) => {
                seen.insert(i, Seen { id: [(id >> 32) as u32, id as u32], from });
                true
            }
        }
    }

    /// The neighbour the first copy of flood `id` of `flow` came from.
    pub fn toward_origin(&self, flow: (NodeId, NodeId), id: u64) -> Option<NodeId> {
        let seen = self.by_flow.get(&flow)?;
        seen.binary_search_by_key(&id, Seen::id).ok().map(|i| seen[i].from)
    }
}

/// A destination's reply windows: per flow source, the flood whose copies
/// are being collected and the latest flood answered (§II.B).
///
/// The first copy of a flood opens a window of [`REPLY_WINDOW`]. A later
/// copy replaces the best only when it scores strictly better, so a tie
/// keeps the earlier copy. Copies of an answered or older flood are
/// ignored, and so are other floods while a window is open.
///
/// A destination hears from a handful of sources, so the windows sit in a
/// sorted vec of those; an id-indexed one would span every id up to the
/// largest source's.
#[derive(Debug)]
pub struct ReplyWindow<S> {
    by_src: KeyMap<NodeId, Window<S>>,
}

/// One source's reply state: the open flood (its id, the best copy's score
/// and the neighbour that relayed it) and the latest flood answered.
#[derive(Debug)]
struct Window<S> {
    open: Option<(u64, S, NodeId)>,
    answered: Option<u64>,
}

impl<S> Default for ReplyWindow<S> {
    fn default() -> Self {
        ReplyWindow { by_src: KeyMap::new() }
    }
}

impl<S> ReplyWindow<S> {
    fn window(&mut self, src: NodeId) -> &mut Window<S> {
        self.by_src.or_insert_with(src, || Window { open: None, answered: None })
    }

    /// Offers a copy of flood `id` from `src`, scored `score` and relayed
    /// by `via`. The first copy arms the `ReplyWindow` timer; a later one
    /// becomes the best when `better(&score, &best)`.
    pub fn offer(
        &mut self,
        ctx: &mut dyn NodeCtx,
        (src, id): (NodeId, u64),
        score: S,
        via: NodeId,
        better: impl Fn(&S, &S) -> bool,
    ) {
        let w = self.window(src);
        if w.answered.is_some_and(|last| id <= last) {
            return;
        }
        match &mut w.open {
            Some((open, best, best_via)) if *open == id && better(&score, best) => {
                (*best, *best_via) = (score, via);
            }
            Some(_) => {}
            None => {
                w.open = Some((id, score, via));
                let dst = ctx.id();
                ctx.set_timer(REPLY_WINDOW, Timer::ReplyWindow { src, dst });
            }
        }
    }

    /// Closes `src`'s window, returning the flood id, the best score and
    /// the neighbour that relayed it; the flood counts as answered.
    pub fn close(&mut self, src: NodeId) -> Option<(u64, S, NodeId)> {
        let w = self.by_src.get_mut(&src)?;
        let best = w.open.take()?;
        w.answered = Some(best.0);
        Some(best)
    }

    /// Whether flood `id` from `src` is unanswered, marking it answered:
    /// the immediate reply to a first copy.
    pub fn answer_now(&mut self, src: NodeId, id: u64) -> bool {
        let w = self.window(src);
        let unanswered = w.answered.is_none_or(|last| id > last);
        if unanswered {
            w.answered = Some(id);
        }
        unanswered
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
        let cap = PENDING_CAP as u64;
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
        let max = RREQ_MAX_RETRIES;
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
        let mut h = FloodHistory::default();
        let flow = (NodeId(0), NodeId(9));
        assert!(h.first_copy(flow, 4, NodeId(1)));
        assert!(!h.first_copy(flow, 4, NodeId(2)), "a later copy is a duplicate");
        assert!(h.first_copy((NodeId(1), NodeId(9)), 4, NodeId(2)), "ids are per flow");
        assert_eq!(h.toward_origin(flow, 4), Some(NodeId(1)), "the first sender is kept");
        assert_eq!(h.toward_origin(flow, 5), None);
        let mut lq = FloodHistory::default();
        let query = |origin, id| FloodHistory::query_id(NodeId(origin), id);
        assert!(lq.first_copy(flow, query(5, 0), NodeId(6)));
        assert!(lq.first_copy(flow, query(7, 0), NodeId(6)), "ids are per origin");
        assert_eq!(lq.toward_origin(flow, query(5, 0)), Some(NodeId(6)));
        assert_eq!(lq.toward_origin(flow, query(7, 0)), Some(NodeId(6)));
        assert_eq!(lq.toward_origin(flow, query(5, 1)), None);
    }

    fn shorter(new: &f64, best: &f64) -> bool {
        new < best
    }

    /// The reply-window timers armed so far, cancelled or not.
    fn windows_armed(ctx: &ScriptedCtx) -> Vec<(SimTime, Timer)> {
        ctx.timers.iter().map(|t| (t.at, t.timer)).collect()
    }

    #[test]
    fn a_reply_window_arms_one_timer() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut w = ReplyWindow::default();
        for via in [1, 2, 3] {
            w.offer(&mut ctx, (NodeId(0), 0), f64::from(via), NodeId(via), shorter);
        }
        w.offer(&mut ctx, (NodeId(0), 1), 0.5, NodeId(4), shorter);
        w.offer(&mut ctx, (NodeId(1), 0), 2.0, NodeId(4), shorter);
        let at = SimTime::ZERO + REPLY_WINDOW;
        let window = |src| (at, Timer::ReplyWindow { src: NodeId(src), dst: NodeId(9) });
        assert_eq!(windows_armed(&ctx), vec![window(0), window(1)], "one per source");
    }

    #[test]
    fn only_a_strictly_better_copy_replaces_the_best() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut w = ReplyWindow::default();
        let flood = (NodeId(0), 3);
        w.offer(&mut ctx, flood, 5.0, NodeId(1), shorter);
        w.offer(&mut ctx, flood, 5.0, NodeId(2), shorter);
        w.offer(&mut ctx, flood, 7.0, NodeId(3), shorter);
        assert_eq!(w.close(NodeId(0)), Some((3, 5.0, NodeId(1))), "a tie keeps the first");
        let flood = (NodeId(0), 4);
        w.offer(&mut ctx, flood, 5.0, NodeId(1), shorter);
        w.offer(&mut ctx, flood, 4.5, NodeId(2), shorter);
        w.offer(&mut ctx, flood, 4.5, NodeId(3), shorter);
        w.offer(&mut ctx, flood, 6.0, NodeId(4), shorter);
        assert_eq!(w.close(NodeId(0)), Some((4, 4.5, NodeId(2))));
    }

    #[test]
    fn another_flood_is_ignored_while_a_window_is_open() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut w = ReplyWindow::default();
        w.offer(&mut ctx, (NodeId(0), 3), 5.0, NodeId(1), shorter);
        w.offer(&mut ctx, (NodeId(0), 4), 1.0, NodeId(2), shorter);
        w.offer(&mut ctx, (NodeId(0), 2), 1.0, NodeId(3), shorter);
        assert_eq!(w.close(NodeId(0)), Some((3, 5.0, NodeId(1))));
        assert_eq!(w.close(NodeId(0)), None, "a closed window has nothing to answer");
        assert_eq!(windows_armed(&ctx).len(), 1);
    }

    #[test]
    fn after_close_only_a_newer_flood_opens_a_window() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut w = ReplyWindow::default();
        w.offer(&mut ctx, (NodeId(0), 5), 3.0, NodeId(1), shorter);
        assert_eq!(w.close(NodeId(0)), Some((5, 3.0, NodeId(1))));
        w.offer(&mut ctx, (NodeId(0), 5), 1.0, NodeId(2), shorter);
        w.offer(&mut ctx, (NodeId(0), 4), 1.0, NodeId(3), shorter);
        assert_eq!(w.close(NodeId(0)), None, "answered and older floods are ignored");
        assert_eq!(windows_armed(&ctx).len(), 1);
        w.offer(&mut ctx, (NodeId(0), 6), 2.0, NodeId(4), shorter);
        assert_eq!(windows_armed(&ctx).len(), 2, "a newer flood arms a fresh window");
        assert_eq!(w.close(NodeId(0)), Some((6, 2.0, NodeId(4))));
    }

    #[test]
    fn answer_now_answers_each_flood_once() {
        let mut w = ReplyWindow::<()>::default();
        assert!(w.answer_now(NodeId(0), 2));
        assert!(!w.answer_now(NodeId(0), 2), "a later copy of the flood");
        assert!(!w.answer_now(NodeId(0), 1), "an older flood");
        assert!(w.answer_now(NodeId(1), 2), "floods are per source");
        assert!(w.answer_now(NodeId(0), 3));
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeMap;

    use super::*;
    use proptest::prelude::*;

    /// One half of a packed id: both ends of the `u32` range and a few
    /// small values.
    fn half() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(1), Just(u32::MAX - 1), Just(u32::MAX), 0u32..4]
    }

    /// A packed local-query id whose origin and id reach 0 and `u32::MAX`.
    fn query_id() -> impl Strategy<Value = u64> {
        (half(), half()).prop_map(|(origin, id)| FloodHistory::query_id(NodeId(origin), id))
    }

    proptest! {
        /// `first_copy` and `toward_origin` answer exactly as a map from
        /// `(flow, id)` to the first sender does, for random interleavings
        /// over a few flows, small broadcast ids and packed query ids.
        #[test]
        fn flood_history_matches_a_btreemap(
            ops in proptest::collection::vec(
                (
                    any::<bool>(),
                    (0u32..3, 0u32..3),
                    prop_oneof![0u64..6, query_id(), Just(u64::MAX)],
                    0u32..8,
                ),
                1..300,
            ),
        ) {
            let mut h = FloodHistory::default();
            let mut model: BTreeMap<((NodeId, NodeId), u64), NodeId> = BTreeMap::new();
            for (insert, (src, dst), id, from) in ops {
                let flow = (NodeId(src), NodeId(dst));
                if insert {
                    let first = !model.contains_key(&(flow, id));
                    if first {
                        model.insert((flow, id), NodeId(from));
                    }
                    prop_assert_eq!(h.first_copy(flow, id, NodeId(from)), first);
                }
                prop_assert_eq!(h.toward_origin(flow, id), model.get(&(flow, id)).copied());
            }
        }

        /// `offer`, `close` and `answer_now` answer, and arm timers, exactly
        /// as a per-source model of the open flood and the latest answered
        /// one does, for random interleavings over a few sources, flood
        /// ids, scores (ties included) and relays.
        #[test]
        fn reply_window_matches_a_btreemap(
            ops in proptest::collection::vec(
                (0u8..3, 0u32..3, 0u64..5, 0u32..3, 0u32..4),
                1..300,
            ),
        ) {
            let mut ctx = crate::testing::ScriptedCtx::new(NodeId(9));
            let mut w = ReplyWindow::default();
            type Open = Option<(u64, u32, NodeId)>;
            let mut model: BTreeMap<NodeId, (Open, Option<u64>)> = BTreeMap::new();
            for (op, src, id, score, via) in ops {
                let (src, via) = (NodeId(src), NodeId(via));
                let (open, answered) = model.entry(src).or_default();
                let unanswered = answered.is_none_or(|last| id > last);
                match op {
                    0 => {
                        let armed = ctx.timers.len();
                        w.offer(&mut ctx, (src, id), score, via, |new, best| new < best);
                        let opens = unanswered && open.is_none();
                        if opens {
                            *open = Some((id, score, via));
                        } else if let Some((open_id, best, best_via)) = open {
                            if unanswered && *open_id == id && score < *best {
                                (*best, *best_via) = (score, via);
                            }
                        }
                        prop_assert_eq!(ctx.timers.len(), armed + usize::from(opens));
                        if opens {
                            let timer = ctx.timers.last().map(|t| t.timer);
                            prop_assert_eq!(timer, Some(Timer::ReplyWindow { src, dst: NodeId(9) }));
                        }
                    }
                    1 => {
                        let want = open.take();
                        if let Some((open_id, ..)) = want {
                            *answered = Some(open_id);
                        }
                        prop_assert_eq!(w.close(src), want);
                    }
                    _ => {
                        if unanswered {
                            *answered = Some(id);
                        }
                        prop_assert_eq!(w.answer_now(src, id), unanswered);
                    }
                }
            }
        }
    }
}
