//! The event queue and the clock-advancing simulator loop.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// A priority queue of timestamped events.
///
/// Events pop in `(time, insertion order)` order — earliest first, FIFO
/// among equal timestamps. The queue only orders: every scheduled event
/// pops exactly once. An event that should no longer happen is retired
/// by its owner when it surfaces (the world drops a protocol timer whose
/// token is no longer live, and a MAC or data event whose node has
/// crashed since).
///
/// Internally this is one `std::collections::BinaryHeap` over the unique
/// `(time, seq)` key. Paper trials keep only tens to a few hundred events
/// pending, so the sift depth stays small; the README's event-queue
/// section records why no specialised queue is used.
///
/// ```
/// use rica_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), "late");
/// q.schedule(SimTime::from_nanos(5), "early");
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "early")));
/// assert_eq!(q.pop_at_or_before(SimTime::from_nanos(9)), None);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, popped: 0 }
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { time, event, .. } = self.heap.pop()?;
        self.popped += 1;
        Some((time, event))
    }

    /// Pops the earliest event **iff** its timestamp is ≤ `until` — the
    /// event-loop primitive.
    #[inline]
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.time > until {
            return None;
        }
        self.pop()
    }

    /// Number of events still stored.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever popped; a cheap progress counter for
    /// diagnostics.
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
            .field("stored", &self.len())
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
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.queue.schedule(at, event);
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
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

    /// Number of events still stored, including any its owner will drop
    /// when it surfaces.
    pub fn pending(&self) -> usize {
        self.queue.len()
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
    fn simulator_advances_clock() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(5), "x");
        sim.schedule_at(t(1_000), "y");
        assert_eq!(sim.pending(), 2);
        assert_eq!(sim.step(), Some((t(1_000), "y")));
        assert_eq!(sim.now(), t(1_000));
        assert_eq!(sim.step(), Some((SimTime::from_secs_f64(0.005), "x")));
        assert_eq!(sim.step(), None);
        assert_eq!((sim.pending(), sim.popped()), (0, 2));
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
        /// of insertion order.
        #[test]
        fn pop_order_is_total(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &ns) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(ns), i);
            }
            let mut want: Vec<(u64, usize)> = times.into_iter().zip(0..).collect();
            want.sort();
            let mut popped = Vec::new();
            while let Some((time, idx)) = q.pop() {
                popped.push((time.as_nanos(), idx));
            }
            prop_assert_eq!(popped, want);
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

        /// Model-based: interleaved schedule / pop / pop_at_or_before
        /// agrees with a reference implementation backed by a BTreeMap,
        /// and the stored-event count tracks the model's size exactly.
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec((0u8..3, 0u64..1_000), 1..600),
        ) {
            use std::collections::BTreeMap;
            let mut q = EventQueue::new();
            let mut model: BTreeMap<(u64, u64), usize> = BTreeMap::new();
            let mut seq = 0u64;
            for (op, arg) in ops {
                let (got, want) = match op {
                    0 => {
                        // schedule at time `arg`
                        q.schedule(SimTime::from_nanos(arg), seq as usize);
                        model.insert((arg, seq), seq as usize);
                        seq += 1;
                        continue;
                    }
                    // pop once and compare with the model's minimum
                    1 => (q.pop(), model.pop_first()),
                    // bounded pop: only if the model minimum is ≤ arg
                    _ => {
                        let want = match model.first_key_value() {
                            Some((&(mt, _), _)) if mt <= arg => model.pop_first(),
                            _ => None,
                        };
                        (q.pop_at_or_before(SimTime::from_nanos(arg)), want)
                    }
                };
                match (got, want) {
                    (None, None) => {}
                    (Some((time, val)), Some(((mt, _), mv))) => {
                        prop_assert_eq!(time.as_nanos(), mt);
                        prop_assert_eq!(val, mv);
                    }
                    (g, w) => prop_assert!(false, "mismatch: {g:?} vs {w:?}"),
                }
                prop_assert_eq!(q.len(), model.len(), "stored count drifted");
            }
            // Drain both; they must agree to the end.
            while let Some((time, val)) = q.pop() {
                let ((mt, _), mv) = model.pop_first().expect("model empty early");
                prop_assert_eq!(time.as_nanos(), mt);
                prop_assert_eq!(val, mv);
            }
            prop_assert!(model.is_empty(), "queue empty before model");
            prop_assert_eq!(q.popped(), seq);
        }
    }

    /// Fixed-seed trace replay: the queue's pop sequence on a recorded
    /// MacAttempt-heavy event trace is identical to a `BTreeMap`'s. The
    /// trace mimics the driver loop under CSMA contention — bursts of
    /// short-horizon retries around a moving `now`, sprinkled far-future
    /// timers and bounded pops.
    #[test]
    fn recorded_trace_matches_btreemap() {
        use crate::rng::Rng;
        use std::collections::BTreeMap;

        let mut rng = Rng::new(0x5eed_cafe);
        let mut q: EventQueue<u64> = EventQueue::new();
        // Reference: a BTreeMap keyed by the same unique (time, seq) key
        // pops in exactly the order any correct priority queue would.
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for round in 0..3_000u64 {
            // A burst of backoff-style retries a few µs–ms out.
            for _ in 0..(1 + rng.u64_below(4)) {
                let at = now + 1_000 + rng.u64_below(2_000_000);
                q.schedule(SimTime::from_nanos(at), seq);
                model.insert((at, seq), seq);
                seq += 1;
            }
            // Occasionally a far-future timer (seconds out).
            if round % 37 == 0 {
                let at = now + 1_000_000_000 + rng.u64_below(5_000_000_000);
                q.schedule(SimTime::from_nanos(at), seq);
                model.insert((at, seq), seq);
                seq += 1;
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
        assert_eq!(q.popped(), seq);
    }
}
