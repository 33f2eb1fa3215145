//! The event queue and the clock-advancing simulator loop.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque handle to a scheduled event, used to cancel it.
///
/// Tokens are unique for the lifetime of an [`EventQueue`]; cancelling a
/// token whose event already fired (or was already cancelled) is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken(u64);

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The ordering key: earliest time first, `seq` breaking ties FIFO — two
    /// events scheduled for the same instant fire in scheduling order,
    /// which protocol logic relies on. Keys are unique (`seq` is), so the
    /// pop sequence is a total order independent of the queue's internal
    /// shape.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// `BinaryHeap` is a max-heap, so the order is `key()` reversed: the
// greatest element is the earliest event.
impl<E> Ord for Scheduled<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Scheduled<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

/// A cancellable priority queue of timestamped events.
///
/// * Events pop in `(time, insertion order)` order — earliest first, FIFO
///   among equal timestamps.
/// * [`EventQueue::cancel`] is O(1): cancelled tokens are remembered and the
///   corresponding events are skipped (and dropped) when they surface.
///
/// Internally this is one `std::collections::BinaryHeap` over the unique
/// `(time, seq)` key. Paper trials keep only tens to a few hundred events
/// pending, so the sift depth stays small; the README's event-queue
/// section records why no specialised queue is used.
///
/// ```
/// use rica_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// let tok = q.schedule(SimTime::from_nanos(10), "late");
/// q.schedule(SimTime::from_nanos(5), "early");
/// q.cancel(tok);
/// assert_eq!(q.live_len(), 1);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "early")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Cancellation flags, bit-indexed by `seq`. Sequence numbers are
    /// dense, so this is a plain bitset — the per-pop cancellation check
    /// on the hot path is one array load instead of a hash probe. Grows
    /// only on `cancel` (one bit per event ever scheduled).
    cancelled: Vec<u64>,
    /// Surfaced-event flags, bit-indexed by `seq`: set the moment an event
    /// leaves the queue (fired or skipped as cancelled). Lets `cancel`
    /// detect already-surfaced tokens exactly, so the live-event
    /// accounting ([`EventQueue::live_len`]) can never drift.
    fired: Vec<u64>,
    /// Events still stored that are marked cancelled (they surface and are
    /// dropped later; until then `len` counts them and `live_len` does
    /// not).
    cancelled_live: usize,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bit_get(bits: &[u64], seq: u64) -> bool {
    match bits.get((seq / 64) as usize) {
        Some(word) => (word >> (seq % 64)) & 1 == 1,
        None => false,
    }
}

#[inline]
fn bit_set(bits: &mut Vec<u64>, seq: u64) {
    let word = (seq / 64) as usize;
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1 << (seq % 64);
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: Vec::new(),
            fired: Vec::new(),
            cancelled_live: 0,
            next_seq: 0,
            popped: 0,
        }
    }

    #[inline]
    fn is_cancelled(&self, seq: u64) -> bool {
        bit_get(&self.cancelled, seq)
    }

    /// Clears the flag for a surfaced cancelled event (its seq can never
    /// pop again, but the live count feeds diagnostics).
    #[inline]
    fn consume_cancelled(&mut self, seq: u64) {
        self.cancelled[(seq / 64) as usize] &= !(1 << (seq % 64));
        self.cancelled_live -= 1;
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// Returns a token that can be passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
        EventToken(seq)
    }

    /// The key of the earliest stored event (cancelled or not), without
    /// removing it.
    #[inline]
    fn raw_peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(Scheduled::key)
    }

    /// Removes and returns the earliest stored event (cancelled or not),
    /// marking its seq as surfaced.
    #[inline]
    fn raw_pop(&mut self) -> Option<Scheduled<E>> {
        let item = self.heap.pop()?;
        self.popped += 1;
        bit_set(&mut self.fired, item.seq);
        Some(item)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` iff the token was newly registered for cancellation
    /// while its event was still pending; cancelling an event that already
    /// surfaced (fired or was skipped), or cancelling twice, is a
    /// detected no-op returning `false`.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if token.0 >= self.next_seq || bit_get(&self.fired, token.0) {
            return false;
        }
        if bit_get(&self.cancelled, token.0) {
            return false;
        }
        bit_set(&mut self.cancelled, token.0);
        self.cancelled_live += 1;
        true
    }

    /// Removes and returns the earliest live event, skipping cancelled ones.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Scheduled { time, seq, event }) = self.raw_pop() {
            if self.is_cancelled(seq) {
                self.consume_cancelled(seq);
                continue;
            }
            return Some((time, event));
        }
        None
    }

    /// Pops the earliest live event **iff** its timestamp is ≤ `until` —
    /// the driver-loop primitive, doing one cancellation check per event
    /// where a `peek_time` + `pop` pair does two.
    ///
    /// A cancelled event parked beyond `until` is consumed on the spot
    /// rather than left at the head, so repeated bounded pops cannot hold
    /// the live-event accounting hostage to a dead head.
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        loop {
            let (time, seq) = self.raw_peek()?;
            if time > until {
                if self.is_cancelled(seq) {
                    self.raw_pop().expect("peeked");
                    self.consume_cancelled(seq);
                    continue;
                }
                return None;
            }
            let Scheduled { time, seq, event } = self.raw_pop().expect("peeked");
            if self.is_cancelled(seq) {
                self.consume_cancelled(seq);
                continue;
            }
            return Some((time, event));
        }
    }

    /// The timestamp of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (time, seq) = self.raw_peek()?;
            if self.is_cancelled(seq) {
                self.raw_pop().expect("peeked");
                self.consume_cancelled(seq);
                continue;
            }
            return Some(time);
        }
    }

    /// Number of events still stored, *including* cancelled events that
    /// have not surfaced yet. See [`EventQueue::live_len`] for the count
    /// diagnostics usually want.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of stored events that are still live (not marked
    /// cancelled) — the amount of pending work the queue actually
    /// represents.
    pub fn live_len(&self) -> usize {
        self.len() - self.cancelled_live
    }

    /// Whether no events (live or cancelled) remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever popped (fired or skipped); a cheap
    /// progress counter for diagnostics.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

/// An event queue bound to a monotonically advancing clock.
///
/// `Simulator` is deliberately minimal: the *world* (nodes, channel, MAC) is
/// owned by the harness, which drives `step()` in a loop and dispatches each
/// event itself. See the crate-level example.
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live_len())
            .field("stored", &self.len())
            .field("cancelled", &self.cancelled_live)
            .field("popped", &self.popped)
            .finish()
    }
}

impl<E> std::fmt::Debug for Simulator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator").field("now", &self.now).field("queue", &self.queue).finish()
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulator { queue: EventQueue::new(), now: SimTime::ZERO }
    }

    /// The current simulation time (the timestamp of the last popped event,
    /// or zero before the first).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Simulator::now`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.queue.schedule(at, event)
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a scheduled event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.queue.cancel(token)
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        Some((time, event))
    }

    /// [`Simulator::step`], but only if the next event is at or before
    /// `until`; otherwise the clock holds and `None` is returned.
    pub fn step_at_or_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop_at_or_before(until)?;
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        Some((time, event))
    }

    /// Timestamp of the next live event, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending live events (cancelled events awaiting removal
    /// are not counted — diagnostics should not overstate remaining
    /// work).
    pub fn pending(&self) -> usize {
        self.queue.live_len()
    }

    /// Total events popped so far.
    pub fn popped(&self) -> u64 {
        self.queue.popped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fifo() {
        // A thousand events at one instant: a binary heap is not stable on
        // its own, so only the `seq` tie-break keeps scheduling order.
        let mut q = EventQueue::new();
        for i in 0..1000 {
            q.schedule(t(5), i);
        }
        for i in 0..1000 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let _b = q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), None, "cancelled event never fires");
    }

    #[test]
    fn cancel_unknown_token_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventToken(999)));
    }

    #[test]
    fn cancel_after_fire_is_detected_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a), "already fired: nothing to cancel");
        assert_eq!(q.live_len(), 0, "no accounting drift");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop(), Some((t(5), "b")));
    }

    #[test]
    fn live_len_excludes_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!((q.len(), q.live_len()), (2, 2));
        q.cancel(a);
        assert_eq!(q.len(), 2, "cancelled event still stored");
        assert_eq!(q.live_len(), 1, "…but no longer live");
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!((q.len(), q.live_len()), (0, 0), "skipped head consumed");
    }

    #[test]
    fn bounded_pop_consumes_cancelled_head_beyond_limit() {
        // The head is cancelled and parked *beyond* `until`: the bounded
        // pop returns None but must still consume it, or the cancelled
        // count leaks for the rest of the run.
        let mut q = EventQueue::new();
        let a = q.schedule(t(100), "late");
        q.cancel(a);
        assert_eq!(q.pop_at_or_before(t(10)), None);
        assert_eq!(q.len(), 0, "dead head consumed on peek-reject");
        assert_eq!(q.live_len(), 0);
        // And a live head beyond the limit stays put.
        q.schedule(t(100), "live");
        assert_eq!(q.pop_at_or_before(t(10)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(t(100)), Some((t(100), "live")));
    }

    #[test]
    fn simulator_advances_clock() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(5), "x");
        sim.schedule_at(t(1_000), "y");
        assert_eq!(sim.step(), Some((t(1_000), "y")));
        assert_eq!(sim.now(), t(1_000));
        assert_eq!(sim.step(), Some((SimTime::from_secs_f64(0.005), "x")));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.popped(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(t(100), 1);
        sim.step();
        sim.schedule_at(t(50), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut sim = Simulator::new();
        sim.schedule_at(t(10), 1u32);
        let (time, ev) = sim.step().unwrap();
        assert_eq!((time, ev), (t(10), 1));
        // Re-scheduling relative to the new now.
        sim.schedule_in(SimDuration::from_nanos(5), 2);
        assert_eq!(sim.step(), Some((t(15), 2)));
    }

    #[test]
    fn scheduling_before_popped_time_still_orders() {
        // Raw EventQueue (no Simulator clock): scheduling earlier than an
        // already-popped event still orders by key.
        let mut q = EventQueue::new();
        for i in 0..400u64 {
            q.schedule(t(1_000 + i), i);
        }
        for i in 0..200u64 {
            assert_eq!(q.pop(), Some((t(1_000 + i), i)));
        }
        q.schedule(t(3), 999);
        assert_eq!(q.pop(), Some((t(3), 999)), "the earlier event pops first");
        assert_eq!(q.pop(), Some((t(1_200), 200)), "then the rest resumes");
    }

    #[test]
    fn far_future_events_pop_after_a_dense_cluster() {
        let mut q = EventQueue::new();
        // A dense cluster 100 ns apart plus events seconds out.
        for i in 0..500u64 {
            q.schedule(t(i * 100), i);
        }
        q.schedule(t(10_000_000_000), 9_000); // +10 s
        q.schedule(t(20_000_000_000), 9_001); // +20 s
        for i in 0..500u64 {
            assert_eq!(q.pop(), Some((t(i * 100), i)));
        }
        assert_eq!(q.pop(), Some((t(10_000_000_000), 9_000)));
        assert_eq!(q.pop(), Some((t(20_000_000_000), 9_001)));
        assert_eq!(q.pop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in nondecreasing (time, seq) order, regardless
        /// of insertion order and cancellations.
        #[test]
        fn pop_order_is_total(
            times in proptest::collection::vec(0u64..1_000, 1..200),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut q = EventQueue::new();
            let tokens: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &ns)| (q.schedule(SimTime::from_nanos(ns), i), ns))
                .collect();
            let mut live = Vec::new();
            for (i, (tok, ns)) in tokens.into_iter().enumerate() {
                if cancel_mask.get(i).copied().unwrap_or(false) {
                    q.cancel(tok);
                } else {
                    live.push((ns, i));
                }
            }
            live.sort();
            let mut popped = Vec::new();
            while let Some((time, idx)) = q.pop() {
                popped.push((time.as_nanos(), idx));
            }
            prop_assert_eq!(popped, live);
        }

        /// The simulator clock never runs backwards.
        #[test]
        fn clock_monotone(times in proptest::collection::vec(0u64..10_000, 1..100)) {
            let mut sim = Simulator::new();
            for (i, &ns) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(ns), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((now, _)) = sim.step() {
                prop_assert!(now >= last);
                last = now;
            }
        }

        /// Model-based: interleaved schedule / cancel / pop /
        /// pop_at_or_before / peek_time agrees with a reference
        /// implementation backed by a BTreeMap, and the live-event
        /// accounting tracks the model's size exactly.
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec((0u8..5, 0u64..1_000), 1..600),
        ) {
            use std::collections::BTreeMap;
            let mut q = EventQueue::new();
            let mut model: BTreeMap<(u64, u64), usize> = BTreeMap::new();
            let mut tokens: Vec<(EventToken, u64, u64)> = Vec::new(); // token, time, seq
            let mut seq = 0u64;
            let mut payload = 0usize;
            for (op, arg) in ops {
                match op {
                    0 => {
                        // schedule at time `arg`
                        let tok = q.schedule(SimTime::from_nanos(arg), payload);
                        model.insert((arg, seq), payload);
                        tokens.push((tok, arg, seq));
                        seq += 1;
                        payload += 1;
                    }
                    1 => {
                        // cancel a pseudo-random previously issued token
                        // (may already have fired or been cancelled — the
                        // queue must detect both)
                        if !tokens.is_empty() {
                            let (tok, t, s) = tokens[arg as usize % tokens.len()];
                            let was_live = model.remove(&(t, s)).is_some();
                            prop_assert_eq!(q.cancel(tok), was_live);
                        }
                    }
                    2 => {
                        // pop once and compare with the model's minimum
                        let got = q.pop();
                        let want = model.pop_first();
                        match (got, want) {
                            (None, None) => {}
                            (Some((time, val)), Some(((mt, _), mv))) => {
                                prop_assert_eq!(time.as_nanos(), mt);
                                prop_assert_eq!(val, mv);
                            }
                            (g, w) => prop_assert!(false, "mismatch: {g:?} vs {w:?}"),
                        }
                    }
                    3 => {
                        // bounded pop: only if the model minimum is ≤ arg
                        let got = q.pop_at_or_before(SimTime::from_nanos(arg));
                        let want = match model.first_key_value() {
                            Some((&(mt, _), _)) if mt <= arg => model.pop_first(),
                            _ => None,
                        };
                        match (got, want) {
                            (None, None) => {}
                            (Some((time, val)), Some(((mt, _), mv))) => {
                                prop_assert_eq!(time.as_nanos(), mt);
                                prop_assert_eq!(val, mv);
                            }
                            (g, w) => prop_assert!(false, "bounded mismatch: {g:?} vs {w:?}"),
                        }
                    }
                    _ => {
                        // peek: the model's minimum timestamp
                        let got = q.peek_time().map(|t| t.as_nanos());
                        let want = model.first_key_value().map(|(&(mt, _), _)| mt);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(q.live_len(), model.len(), "live accounting drifted");
            }
            // Drain both; they must agree to the end.
            while let Some((time, val)) = q.pop() {
                let ((mt, _), mv) = model.pop_first().expect("model empty early");
                prop_assert_eq!(time.as_nanos(), mt);
                prop_assert_eq!(val, mv);
            }
            prop_assert!(model.is_empty(), "queue empty before model");
            prop_assert_eq!(q.live_len(), 0);
        }
    }

    /// Fixed-seed trace replay: the queue's pop sequence on a recorded
    /// MacAttempt-heavy event trace is identical to a `BTreeMap`'s. The
    /// trace mimics the driver loop under CSMA contention — bursts of
    /// short-horizon retries around a moving `now`, sprinkled far-future
    /// timers, bounded pops and cancellations.
    #[test]
    fn recorded_trace_matches_btreemap() {
        use crate::rng::Rng;
        use std::collections::BTreeMap;

        let mut rng = Rng::new(0x5eed_cafe);
        let mut q: EventQueue<u64> = EventQueue::new();
        // Reference: a BTreeMap keyed by the same unique (time, seq) key
        // pops in exactly the order any correct priority queue would.
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut tokens: Vec<(EventToken, u64, u64)> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for round in 0..3_000u64 {
            // A burst of backoff-style retries a few µs–ms out.
            for _ in 0..(1 + rng.u64_below(4)) {
                let at = now + 1_000 + rng.u64_below(2_000_000);
                let tok = q.schedule(SimTime::from_nanos(at), seq);
                model.insert((at, seq), seq);
                tokens.push((tok, at, seq));
                seq += 1;
            }
            // Occasionally a far-future timer (seconds out).
            if round % 37 == 0 {
                let at = now + 1_000_000_000 + rng.u64_below(5_000_000_000);
                let tok = q.schedule(SimTime::from_nanos(at), seq);
                model.insert((at, seq), seq);
                tokens.push((tok, at, seq));
                seq += 1;
            }
            // Occasionally cancel a random outstanding token.
            if round % 5 == 0 && !tokens.is_empty() {
                let i = (rng.u64_below(tokens.len() as u64)) as usize;
                let (tok, at, s) = tokens[i];
                q.cancel(tok);
                model.remove(&(at, s));
            }
            // Drive like the harness: bounded pops up to a sliding bound.
            let until = now + 500_000 + rng.u64_below(1_500_000);
            loop {
                let want = match model.first_key_value() {
                    Some((&(t, _), _)) if t <= until => model.pop_first(),
                    _ => None,
                };
                let got = q.pop_at_or_before(SimTime::from_nanos(until));
                match (got, want) {
                    (None, None) => break,
                    (Some((t, v)), Some(((mt, _), mv))) => {
                        now = now.max(t.as_nanos());
                        popped.push((t.as_nanos(), v));
                        expected.push((mt, mv));
                    }
                    (g, w) => panic!("trace diverged at round {round}: {g:?} vs {w:?}"),
                }
            }
            now = now.max(until);
        }
        // Drain the tail.
        while let Some((t, v)) = q.pop() {
            popped.push((t.as_nanos(), v));
        }
        while let Some(((mt, _), mv)) = model.pop_first() {
            expected.push((mt, mv));
        }
        assert!(popped.len() > 4_000, "trace too small to be meaningful");
        assert_eq!(popped, expected, "queue and model pop sequences differ");
        assert_eq!(q.live_len(), 0);
    }
}
