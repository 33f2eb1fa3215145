//! The per-connection FCFS data buffer.

use std::collections::VecDeque;

use rica_sim::{SimDuration, SimTime};

use crate::DataPacket;

/// The paper's per-connection data buffer (§III.A): FCFS, capacity 10
/// packets, and any packet that has waited more than 3 seconds is discarded.
///
/// ```
/// use rica_net::{DataPacket, FlowId, LinkQueue, NodeId};
/// use rica_sim::{SimDuration, SimTime};
///
/// let mut q = LinkQueue::new(2, SimDuration::from_secs(3));
/// let pkt = |seq| DataPacket::new(FlowId(0), seq, NodeId(0), NodeId(1), 512, SimTime::ZERO);
/// assert!(q.push(SimTime::ZERO, pkt(0)).is_none());
/// assert!(q.push(SimTime::ZERO, pkt(1)).is_none());
/// // Full: the rejected packet comes back to the caller.
/// assert!(q.push(SimTime::ZERO, pkt(2)).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinkQueue {
    cap: usize,
    max_residency: SimDuration,
    items: VecDeque<(DataPacket, SimTime)>,
}

impl LinkQueue {
    /// Creates a queue with the given capacity and maximum residency.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize, max_residency: SimDuration) -> Self {
        assert!(cap > 0, "queue capacity must be > 0");
        LinkQueue { cap, max_residency, items: VecDeque::with_capacity(cap) }
    }

    /// Enqueues `pkt` at time `now`. Returns the packet back if the queue is
    /// full (the caller records a congestion drop).
    pub fn push(&mut self, now: SimTime, pkt: DataPacket) -> Option<DataPacket> {
        if self.items.len() >= self.cap {
            return Some(pkt);
        }
        self.items.push_back((pkt, now));
        None
    }

    /// Dequeues the next packet that has *not* exceeded its residency limit,
    /// collecting every expired packet encountered on the way into
    /// `expired`.
    pub fn pop_fresh(&mut self, now: SimTime, expired: &mut Vec<DataPacket>) -> Option<DataPacket> {
        while let Some((pkt, enq_at)) = self.items.pop_front() {
            if now.saturating_since(enq_at) > self.max_residency {
                expired.push(pkt);
            } else {
                return Some(pkt);
            }
        }
        None
    }

    /// Removes and returns everything (e.g. on link failure, so the
    /// protocol can decide the packets' fate).
    pub fn drain_all(&mut self) -> Vec<DataPacket> {
        self.items.drain(..).map(|(p, _)| p).collect()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowId, NodeId};

    fn pkt(seq: u64) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(0), NodeId(1), 512, SimTime::ZERO)
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn q() -> LinkQueue {
        LinkQueue::new(10, SimDuration::from_secs(3))
    }

    #[test]
    fn fifo_order() {
        let mut q = q();
        for i in 0..5 {
            assert!(q.push(SimTime::ZERO, pkt(i)).is_none());
        }
        let mut expired = Vec::new();
        for i in 0..5 {
            assert_eq!(q.pop_fresh(secs(1.0), &mut expired).unwrap().seq, i);
        }
        assert!(expired.is_empty());
        assert!(q.pop_fresh(secs(1.0), &mut expired).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut q = LinkQueue::new(10, SimDuration::from_secs(3));
        for i in 0..10 {
            assert!(q.push(SimTime::ZERO, pkt(i)).is_none());
        }
        let rejected = q.push(SimTime::ZERO, pkt(10)).unwrap();
        assert_eq!(rejected.seq, 10);
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn residency_expiry() {
        let mut q = q();
        q.push(secs(0.0), pkt(0));
        q.push(secs(2.0), pkt(1));
        let mut expired = Vec::new();
        // At t=3.5 s, packet 0 has waited 3.5 s (> 3 s) and is expired;
        // packet 1 has waited 1.5 s and pops normally.
        let got = q.pop_fresh(secs(3.5), &mut expired).unwrap();
        assert_eq!(got.seq, 1);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].seq, 0);
    }

    #[test]
    fn exactly_at_limit_is_fresh() {
        let mut q = q();
        q.push(secs(0.0), pkt(0));
        let mut expired = Vec::new();
        let got = q.pop_fresh(secs(3.0), &mut expired);
        assert!(got.is_some(), "3.0 s residency is allowed (limit is exclusive)");
        assert!(expired.is_empty());
    }

    #[test]
    fn drain_all_returns_everything() {
        let mut q = q();
        for i in 0..4 {
            q.push(SimTime::ZERO, pkt(i));
        }
        let all = q.drain_all();
        assert_eq!(all.len(), 4);
        assert!(q.is_empty());
        assert_eq!(all.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_panics() {
        LinkQueue::new(0, SimDuration::from_secs(3));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{FlowId, NodeId};
    use proptest::prelude::*;

    proptest! {
        /// Occupancy never exceeds capacity, and packets pop in FIFO order
        /// among the non-expired, for arbitrary push/pop schedules.
        #[test]
        fn invariants_hold(
            ops in proptest::collection::vec((any::<bool>(), 0.0f64..10.0), 1..200),
            cap in 1usize..20,
        ) {
            let mut q = LinkQueue::new(cap, SimDuration::from_secs(3));
            let mut now = 0.0f64;
            let mut seq = 0u64;
            let mut last_popped: Option<u64> = None;
            for (is_push, dt) in ops {
                now += dt;
                let t = SimTime::from_secs_f64(now);
                if is_push {
                    let p = DataPacket::new(FlowId(0), seq, NodeId(0), NodeId(1), 512, t);
                    seq += 1;
                    q.push(t, p);
                    prop_assert!(q.len() <= cap);
                } else {
                    let mut expired = Vec::new();
                    if let Some(p) = q.pop_fresh(t, &mut expired) {
                        if let Some(last) = last_popped {
                            prop_assert!(p.seq > last, "FIFO violated: {} after {}", p.seq, last);
                        }
                        last_popped = Some(p.seq);
                    }
                }
            }
        }
    }
}
