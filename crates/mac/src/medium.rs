//! The shared common-channel medium: carrier sensing and collisions.

use rica_mobility::Vec2;
use rica_sim::SimTime;

/// Handle to one registered transmission on the common channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(u64);

#[derive(Debug, Clone)]
struct Transmission {
    id: u64,
    tx_node: u32,
    pos: Vec2,
    start: SimTime,
    end: SimTime,
}

/// The common channel as a physical medium.
///
/// Tracks every in-flight transmission with the transmitter's position, and
/// answers the two questions CSMA/CA needs:
///
/// * [`CommonMedium::is_busy_near`] — *carrier sense*: does a terminal at
///   this position hear an ongoing transmission right now?
/// * [`CommonMedium::delivered`] — *reception*: did a terminal at this
///   position successfully receive a given transmission, i.e. was it in
///   range of the transmitter and free of any overlapping transmission from
///   another terminal in its own range (hidden terminals collide), and not
///   transmitting itself (half-duplex)?
///
/// Finished transmissions are pruned with [`CommonMedium::prune_before`]
/// once the clock has passed them. They can no longer overlap a *new*
/// transmission, but pruning also hides them from a live one that started
/// before they ended (see `prune_before`).
#[derive(Debug)]
pub struct CommonMedium {
    range_sq: f64,
    next_id: u64,
    active: Vec<Transmission>,
    /// Index into `active` of the transmission staged by
    /// [`CommonMedium::begin_delivery`].
    prepared: Option<usize>,
    /// `(tx_node, position)` of every transmission overlapping the
    /// prepared one in time — copied inline so the per-receiver collision
    /// scan walks one compact array.
    prepared_overlaps: Vec<(u32, Vec2)>,
}

impl CommonMedium {
    /// Creates an idle medium whose terminals sense and receive within
    /// `range_m` metres (the channel's radio range, `rica_channel::TX_RANGE_M`).
    pub fn new(range_m: f64) -> Self {
        CommonMedium {
            range_sq: range_m * range_m,
            next_id: 0,
            active: Vec::new(),
            prepared: None,
            prepared_overlaps: Vec::new(),
        }
    }

    fn in_range(&self, a: Vec2, b: Vec2) -> bool {
        a.distance_sq(b) <= self.range_sq
    }

    /// Registers a transmission by `tx_node` located at `pos`, spanning
    /// `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn begin_tx(&mut self, tx_node: u32, pos: Vec2, start: SimTime, end: SimTime) -> TxId {
        assert!(end > start, "transmission must have positive duration");
        let id = self.next_id;
        self.next_id += 1;
        self.active.push(Transmission { id, tx_node, pos, start, end });
        self.prepared = None; // overlap set may be incomplete now
        TxId(id)
    }

    /// Carrier sense: is any transmission (from another terminal) audible
    /// at `pos` at instant `now`?
    pub fn is_busy_near(&self, sensing_node: u32, pos: Vec2, now: SimTime) -> bool {
        self.active.iter().any(|t| {
            t.tx_node != sensing_node && t.start <= now && now < t.end && self.in_range(pos, t.pos)
        })
    }

    /// Whether a terminal `rx_node` at `rx_pos` successfully received
    /// transmission `tx`:
    ///
    /// * it was within range of the transmitter, and
    /// * no *other* transmission overlapping `tx` in time was within the
    ///   receiver's range (collision — including the receiver's own
    ///   transmissions, which make it deaf).
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown (already pruned).
    pub fn delivered(&self, tx: TxId, rx_node: u32, rx_pos: Vec2) -> bool {
        let t = self
            .active
            .iter()
            .find(|t| t.id == tx.0)
            .expect("transmission pruned before delivery check");
        if rx_node == t.tx_node || !self.in_range(rx_pos, t.pos) {
            return false;
        }
        !self.active.iter().any(|o| {
            o.id != t.id
                && o.start < t.end
                && t.start < o.end
                && (o.tx_node == rx_node || self.in_range(rx_pos, o.pos))
        })
    }

    /// Stages transmission `tx` for per-receiver delivery checks: its
    /// time-overlap set is computed **once** here, so each subsequent
    /// [`CommonMedium::delivered_prepared`] is O(overlapping) instead of
    /// O(active) — the broadcast fan-out pays the scan once per
    /// transmission, not once per receiver.
    ///
    /// Staging is invalidated by [`CommonMedium::begin_tx`] and
    /// [`CommonMedium::prune_before`] (they reshape `active`).
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown (already pruned).
    pub fn begin_delivery(&mut self, tx: TxId) {
        let idx = self
            .active
            .iter()
            .position(|t| t.id == tx.0)
            .expect("transmission pruned before delivery check");
        let t = &self.active[idx];
        self.prepared_overlaps.clear();
        for (i, o) in self.active.iter().enumerate() {
            if i != idx && o.start < t.end && t.start < o.end {
                self.prepared_overlaps.push((o.tx_node, o.pos));
            }
        }
        self.prepared = Some(idx);
    }

    /// [`CommonMedium::delivered`] for the transmission staged by
    /// [`CommonMedium::begin_delivery`], against its precomputed overlap
    /// set. Produces exactly the same answer as `delivered`.
    ///
    /// # Panics
    ///
    /// Panics if no transmission is staged.
    pub fn delivered_prepared(&self, rx_node: u32, rx_pos: Vec2) -> bool {
        let t = &self.active[self.prepared.expect("begin_delivery not called")];
        if rx_node == t.tx_node || !self.in_range(rx_pos, t.pos) {
            return false;
        }
        !self
            .prepared_overlaps
            .iter()
            .any(|&(o_node, o_pos)| o_node == rx_node || self.in_range(rx_pos, o_pos))
    }

    /// Discards transmissions that ended strictly before `now`.
    ///
    /// They cannot overlap a transmission that starts at or after `now`,
    /// but they can overlap one that is still live: a transmission that
    /// started before a pruned one ended collided with it in time, and its
    /// own delivery check, made when it ends, no longer sees the pruned
    /// one. Such lost overlaps let some receptions succeed that the full
    /// overlap set would collide; keeping every transmission that ended
    /// after the earliest start among live transmissions would see them
    /// all, at the price of a new realisation of every trial.
    pub fn prune_before(&mut self, now: SimTime) {
        self.active.retain(|t| t.end >= now);
        self.prepared = None;
    }

    /// Number of tracked transmissions (live + just-finished).
    pub fn tracked(&self) -> usize {
        self.active.len()
    }

    /// Cumulative count of transmissions ever begun on the medium
    /// (diagnostics; ids are dense, so the next id *is* the count).
    pub fn txs_begun(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's 250 m radio range (§III.A).
    fn medium() -> CommonMedium {
        CommonMedium::new(250.0)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn carrier_sense_within_range_only() {
        let mut m = medium();
        m.begin_tx(0, Vec2::new(0.0, 0.0), t(0), t(10));
        // 100 m away: audible.
        assert!(m.is_busy_near(1, Vec2::new(100.0, 0.0), t(5)));
        // 300 m away: silent.
        assert!(!m.is_busy_near(2, Vec2::new(300.0, 0.0), t(5)));
        // After the transmission ends: silent.
        assert!(!m.is_busy_near(1, Vec2::new(100.0, 0.0), t(10)));
        // The transmitter itself does not sense its own signal as busy.
        assert!(!m.is_busy_near(0, Vec2::new(0.0, 0.0), t(5)));
    }

    #[test]
    fn clean_delivery() {
        let mut m = medium();
        let tx = m.begin_tx(0, Vec2::new(0.0, 0.0), t(0), t(10));
        assert!(m.delivered(tx, 1, Vec2::new(200.0, 0.0)));
        assert!(!m.delivered(tx, 2, Vec2::new(260.0, 0.0)), "out of range");
        assert!(!m.delivered(tx, 0, Vec2::new(0.0, 0.0)), "sender does not receive itself");
    }

    #[test]
    fn hidden_terminal_collision() {
        // A at x=0 and C at x=400 cannot hear each other (450 m apart > 250)
        // but both reach B at x=200. Overlapping transmissions collide at B.
        let mut m = medium();
        let a = m.begin_tx(0, Vec2::new(0.0, 0.0), t(0), t(10));
        let c = m.begin_tx(2, Vec2::new(400.0, 0.0), t(5), t(15));
        let b_pos = Vec2::new(200.0, 0.0);
        assert!(!m.delivered(a, 1, b_pos), "B loses A's frame to C's overlap");
        assert!(!m.delivered(c, 1, b_pos), "B loses C's frame to A's overlap");
        // A receiver near A only (x = -200) is out of C's range: receives fine.
        assert!(m.delivered(a, 3, Vec2::new(-200.0, 0.0)));
    }

    #[test]
    fn non_overlapping_do_not_collide() {
        let mut m = medium();
        let a = m.begin_tx(0, Vec2::new(0.0, 0.0), t(0), t(10));
        let c = m.begin_tx(2, Vec2::new(400.0, 0.0), t(10), t(20));
        let b_pos = Vec2::new(200.0, 0.0);
        // Back-to-back ([0,10) then [10,20)) is fine.
        assert!(m.delivered(a, 1, b_pos));
        assert!(m.delivered(c, 1, b_pos));
    }

    #[test]
    fn half_duplex_receiver() {
        // B transmits while A's frame arrives: B cannot receive even if the
        // interferer is out of range of... itself (B IS the interferer).
        let mut m = medium();
        let a = m.begin_tx(0, Vec2::new(0.0, 0.0), t(0), t(10));
        m.begin_tx(1, Vec2::new(200.0, 0.0), t(3), t(8));
        assert!(!m.delivered(a, 1, Vec2::new(200.0, 0.0)));
    }

    #[test]
    fn prune_keeps_overlapping_history() {
        let mut m = medium();
        let a = m.begin_tx(0, Vec2::new(0.0, 0.0), t(0), t(10));
        let _b = m.begin_tx(2, Vec2::new(400.0, 0.0), t(5), t(15));
        // Pruning at a's end keeps a; pruning past it drops a even though
        // b, live until 15, overlapped it in [5, 10): b's delivery check at
        // 15 then no longer sees a (a lost overlap, see `prune_before`).
        m.prune_before(t(10));
        assert_eq!(m.tracked(), 2, "a ends exactly at prune instant: kept");
        m.prune_before(t(11));
        assert_eq!(m.tracked(), 1, "a pruned once strictly past its end");
        let _ = a; // a's delivery was checked before pruning in real use
    }

    #[test]
    fn prepared_delivery_matches_plain_delivery() {
        // Dense overlapping mess: every (tx, receiver) pair must answer
        // identically through the staged and the plain paths.
        let mut m = medium();
        let mut rng = rica_sim::Rng::new(11);
        let mut txs = Vec::new();
        for node in 0..12u32 {
            let pos = Vec2::new(rng.range_f64(0.0, 1000.0), rng.range_f64(0.0, 1000.0));
            let s = rng.u64_below(20);
            let d = 1 + rng.u64_below(15);
            txs.push(m.begin_tx(node, pos, t(s), t(s + d)));
        }
        for &tx in &txs {
            m.begin_delivery(tx);
            for rx_node in 0..12u32 {
                let rx_pos = Vec2::new(rx_node as f64 * 80.0, 400.0);
                assert_eq!(
                    m.delivered_prepared(rx_node, rx_pos),
                    m.delivered(tx, rx_node, rx_pos),
                    "tx {tx:?} → rx {rx_node} diverges"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "begin_delivery not called")]
    fn unstaged_prepared_delivery_panics() {
        let mut m = medium();
        let tx = m.begin_tx(0, Vec2::ZERO, t(0), t(10));
        m.begin_delivery(tx);
        // A new transmission invalidates the staging.
        m.begin_tx(1, Vec2::new(600.0, 0.0), t(0), t(10));
        m.delivered_prepared(2, Vec2::new(100.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "pruned before delivery check")]
    fn delivery_after_prune_panics() {
        let mut m = medium();
        let a = m.begin_tx(0, Vec2::ZERO, t(0), t(10));
        m.prune_before(t(20));
        m.delivered(a, 1, Vec2::new(10.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_transmission_panics() {
        let mut m = medium();
        m.begin_tx(0, Vec2::ZERO, t(5), t(5));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Delivery implies in-range, and collision is symmetric: if two
        /// overlapping transmissions are both in range of a receiver,
        /// neither is delivered to it.
        #[test]
        fn collision_symmetry(
            ax in 0.0f64..1000.0, cx in 0.0f64..1000.0, rx in 0.0f64..1000.0,
            s1 in 0u64..20, d1 in 1u64..20, s2 in 0u64..20, d2 in 1u64..20,
        ) {
            let mut m = CommonMedium::new(250.0);
            let pa = Vec2::new(ax, 0.0);
            let pc = Vec2::new(cx, 0.0);
            let pr = Vec2::new(rx, 0.0);
            let t = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
            let tx1 = m.begin_tx(0, pa, t(s1), t(s1 + d1));
            let tx2 = m.begin_tx(1, pc, t(s2), t(s2 + d2));
            let overlap = s1 < s2 + d2 && s2 < s1 + d1;
            let r_hears_a = pr.distance(pa) <= 250.0;
            let r_hears_c = pr.distance(pc) <= 250.0;
            let got1 = m.delivered(tx1, 9, pr);
            let got2 = m.delivered(tx2, 9, pr);
            if got1 {
                prop_assert!(r_hears_a);
            }
            if overlap && r_hears_a && r_hears_c {
                prop_assert!(!got1 && !got2, "overlapping in-range transmissions must collide");
            }
            if !overlap && r_hears_a {
                prop_assert!(got1);
            }
        }
    }
}
