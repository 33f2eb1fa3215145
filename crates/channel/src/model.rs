//! The network-wide channel model: one composite SNR process per node pair.

use rica_mobility::Vec2;
use rica_sim::{Rng, SimTime};

use crate::{ChannelClass, ChannelConfig, ChannelFidelity, DecayCache, OuProcess};

/// Per-pair state: the two OU components and their private random stream.
#[derive(Debug)]
struct PairState {
    shadow: OuProcess,
    fade: OuProcess,
    rng: Rng,
    /// Instant of the memoized composite SNR below ([`SimTime::MAX`] =
    /// nothing memoized yet — no event ever fires there).
    snr_stamp: SimTime,
    /// Composite SNR (dB) produced at `snr_stamp`.
    snr_db: f64,
    /// The distance the memo was computed at, for the debug-only check
    /// that same-instant queries agree on the pair geometry.
    #[cfg(debug_assertions)]
    snr_dist_m: f64,
}

/// Slot sentinel: "this pair has no state yet".
const EMPTY_SLOT: u32 = u32::MAX;

/// The time-varying channel between every pair of terminals.
///
/// Channels are reciprocal (the paper's CSI measurement assumes symmetric
/// links), so state is keyed by the *unordered* node pair: querying `(a, b)`
/// and `(b, a)` at the same instant returns the same class.
///
/// Pair state is created lazily on first query, with a random stream forked
/// deterministically from the model seed and the pair id — so the channel
/// realisation of pair `(3, 7)` is identical no matter how many other pairs
/// exist or in what order they are queried.
///
/// Storage is a flat triangular `u32` indirection table over a dense state
/// vector: the unordered pair `(lo, hi)` owns slot `hi·(hi−1)/2 + lo`,
/// which holds the pair's index into a dense `Vec<PairState>` (or
/// [`EMPTY_SLOT`]). The hot per-reception CSI lookup is two bounds-checked
/// indexes into contiguous memory — no hash, no `Option<Box>` pointer
/// chase — while the O(n²) part of the footprint stays 4 bytes per
/// *potential* pair; real state is paid only by pairs that interact.
/// [`ChannelModel::with_nodes`] pre-sizes the indirection table for a known
/// terminal count; ids beyond it grow the table on demand (in one resize,
/// see [`ChannelModel::table_growths`]).
#[derive(Debug)]
pub struct ChannelModel {
    config: ChannelConfig,
    master: Rng,
    /// Triangular indirection: dense index of pair `(lo, hi)`, or
    /// [`EMPTY_SLOT`].
    slots: Vec<u32>,
    /// Instantiated pair states, dense in creation order.
    pairs: Vec<PairState>,
    /// Shared `(shadow, fade)` OU decay-coefficient caches — every pair's
    /// shadow process has the same `(σ, τ)` (likewise fade), so one cache
    /// per component kind serves the whole network.
    caches: Box<(DecayCache, DecayCache)>,
    /// Terminal count declared via [`ChannelModel::with_nodes`], if any.
    presized_nodes: Option<u32>,
    /// Times the indirection table grew past its initial sizing.
    growths: u32,
    /// Dense pair indices resolved by pass 1 of
    /// [`ChannelModel::class_batch`], reused across calls.
    scratch_dense: Vec<u32>,
}

/// The unordered pair `{a, b}` as `(lo, hi)`.
fn ordered_pair(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Flat slot of an ordered pair: `hi·(hi−1)/2 + lo`.
fn tri_index(lo: u32, hi: u32) -> usize {
    (hi as usize) * (hi as usize - 1) / 2 + lo as usize
}

/// Triangle size covering every pair with both ids below `nodes`.
fn tri_len(nodes: usize) -> usize {
    nodes * nodes.saturating_sub(1) / 2
}

impl ChannelModel {
    /// Creates a model with the given configuration and master seed stream.
    ///
    /// The pair table starts empty and grows on demand; prefer
    /// [`ChannelModel::with_nodes`] when the terminal count is known.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ChannelConfig::validate`]).
    pub fn new(config: ChannelConfig, master: Rng) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid ChannelConfig: {e}");
        }
        let caches = Box::new((
            DecayCache::new(config.shadow_sigma_db, config.shadow_tau_s),
            DecayCache::new(config.fade_sigma_db, config.fade_tau_s),
        ));
        ChannelModel {
            config,
            master,
            slots: Vec::new(),
            pairs: Vec::new(),
            caches,
            presized_nodes: None,
            growths: 0,
            scratch_dense: Vec::new(),
        }
    }

    /// [`ChannelModel::new`] with the indirection table pre-sized for
    /// `nodes` terminals (ids `0..nodes`), avoiding all growth on the hot
    /// path. Querying an id `>= nodes` afterwards still works, but counts
    /// as a [`ChannelModel::table_growths`] event (and debug-panics: the
    /// caller declared a terminal count it then exceeded).
    pub fn with_nodes(config: ChannelConfig, master: Rng, nodes: u32) -> Self {
        let mut model = Self::new(config, master);
        model.slots.resize(tri_len(nodes as usize), EMPTY_SLOT);
        model.presized_nodes = Some(nodes);
        model
    }

    /// The model configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Dense index of the pair `{a, b}`'s state, instantiating it on first
    /// query.
    fn pair_index(&mut self, a: u32, b: u32) -> usize {
        let (lo, hi) = ordered_pair(a, b);
        let idx = tri_index(lo, hi);
        if idx >= self.slots.len() {
            // Grow to the full triangle for `hi + 1` terminals in ONE
            // resize. Growing to `idx + 1` per query — the previous
            // behaviour — re-resized on almost every new pair of an
            // un-pre-sized model: O(n²) slots moved one slot at a time.
            debug_assert!(
                self.presized_nodes.is_none(),
                "node id {hi} exceeds the {} terminals the pair table was pre-sized for",
                self.presized_nodes.unwrap_or(0),
            );
            self.growths += 1;
            self.slots.resize(tri_len(hi as usize + 1), EMPTY_SLOT);
        }
        let slot = self.slots[idx];
        if slot != EMPTY_SLOT {
            return slot as usize;
        }
        // Stable stream id from the pair: works for any node count < 2^32.
        let stream = ((lo as u64) << 32) | hi as u64;
        let mut rng = self.master.fork(stream);
        let shadow =
            OuProcess::new(self.config.shadow_sigma_db, self.config.shadow_tau_s, &mut rng);
        let fade = OuProcess::new(self.config.fade_sigma_db, self.config.fade_tau_s, &mut rng);
        let dense = self.pairs.len();
        assert!(dense < EMPTY_SLOT as usize, "pair table indirection overflow");
        self.pairs.push(PairState {
            shadow,
            fade,
            rng,
            snr_stamp: SimTime::MAX,
            snr_db: 0.0,
            #[cfg(debug_assertions)]
            snr_dist_m: 0.0,
        });
        self.slots[idx] = dense as u32;
        dense
    }

    /// Composite SNR (dB) of the link between nodes `a` and `b` at instant
    /// `t`, given their positions — regardless of range.
    ///
    /// Queries for a given pair must be non-decreasing in time, and
    /// repeated queries at the *same* instant must carry the same
    /// positions (they are answered from a per-pair memo; positions are a
    /// pure function of the instant in the simulator, and the agreement is
    /// asserted in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn snr_db(&mut self, a: u32, b: u32, pos_a: Vec2, pos_b: Vec2, t: SimTime) -> f64 {
        self.snr_db_at_distance(a, b, pos_a.distance(pos_b), t)
    }

    /// [`ChannelModel::snr_db`] with the pair distance already computed —
    /// the hot path ([`ChannelModel::class_at_dist_sq`]) measures the
    /// distance once for both the range check and the SNR mean.
    fn snr_db_at_distance(&mut self, a: u32, b: u32, distance_m: f64, t: SimTime) -> f64 {
        assert_ne!(a, b, "no self-channel");
        let dense = self.pair_index(a, b);
        self.snr_memoized(dense, t, || distance_m)
    }

    /// The composite SNR of the pair at `dense` at instant `t`: from the
    /// same-instant memo when `t` repeats, computed (and memoized) via
    /// [`ChannelModel::compute_snr`] otherwise. `distance_m` is a closure
    /// so a memo hit never pays for a distance the caller derives lazily
    /// (e.g. `sqrt` of a squared distance); in debug builds a hit
    /// evaluates it anyway to assert the geometry agreement.
    #[inline]
    fn snr_memoized(&mut self, dense: usize, t: SimTime, distance_m: impl FnOnce() -> f64) -> f64 {
        if self.pairs[dense].snr_stamp == t {
            #[cfg(debug_assertions)]
            assert_eq!(
                self.pairs[dense].snr_dist_m.to_bits(),
                distance_m().to_bits(),
                "same-instant queries of one pair must agree on its geometry"
            );
            return self.pairs[dense].snr_db;
        }
        self.compute_snr(dense, distance_m(), t)
    }

    /// Computes (and memoizes) the composite SNR of the pair at `dense` —
    /// the slow path behind the same-instant memo.
    ///
    /// The memo is sound because a pair's positions are a pure function of
    /// the instant (the harness memoizes node positions per event
    /// timestamp), so a repeated `(pair, t)` query always carries the same
    /// distance — asserted in debug builds — and the OU components consume
    /// no randomness at `dt = 0`. Within one event a broadcast receiver is
    /// classified by the fan-out loop and then again by its own protocol's
    /// CSI measurement; the memo makes the second query a load instead of
    /// a path-loss `log10` + two process touches.
    fn compute_snr(&mut self, dense: usize, distance_m: f64, t: SimTime) -> f64 {
        let mean = self.config.mean_snr_db(distance_m);
        // Split borrows: the pair state and the shared caches are disjoint
        // fields; sample each process with the pair's own rng.
        let st = &mut self.pairs[dense];
        let (shadow_cache, fade_cache) = &mut *self.caches;
        let snr = match self.config.fidelity {
            ChannelFidelity::Exact => {
                mean + st.shadow.sample_cached(t, &mut st.rng, shadow_cache)
                    + st.fade.sample_cached(t, &mut st.rng, fade_cache)
            }
            ChannelFidelity::Approx => {
                mean + st.shadow.sample_approx(t, &mut st.rng, shadow_cache)
                    + st.fade.sample_approx(t, &mut st.rng, fade_cache)
            }
        };
        st.snr_stamp = t;
        st.snr_db = snr;
        #[cfg(debug_assertions)]
        {
            st.snr_dist_m = distance_m;
        }
        snr
    }

    /// The channel class between `a` and `b` at instant `t`, or `None` if
    /// the nodes are out of radio range (> `tx_range_m` apart).
    ///
    /// This is the "CSI measurement" every protocol performs on packet
    /// reception.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn class_between(
        &mut self,
        a: u32,
        b: u32,
        pos_a: Vec2,
        pos_b: Vec2,
        t: SimTime,
    ) -> Option<ChannelClass> {
        // One displacement serves both the (squared) range check and the
        // SNR mean.
        let d = pos_a - pos_b;
        self.class_at_dist_sq(a, b, d.x * d.x + d.y * d.y, t)
    }

    /// [`ChannelModel::class_between`] with the squared pair distance
    /// already measured, so a caller that has computed it for its own
    /// range prefilter (e.g. the broadcast fan-out loop in the harness)
    /// never pays the displacement — or the boundary-band `sqrt` — twice.
    ///
    /// `dist_sq` must be the *exact* componentwise squared distance of the
    /// two positions, i.e. [`Vec2::distance_sq`] of either ordering (IEEE
    /// negation is exact, so `(a−b)` and `(b−a)` square to identical bits);
    /// anything else changes the realisation.
    ///
    /// Range invariant (keep in sync with `World::on_mac_tx_end` in
    /// `rica-harness`, which prefilters by the same predicate): a link
    /// exists iff `dist_sq <= tx_range_m²` — the boundary is **inclusive**,
    /// and the comparison is on squared metres, never on a rounded `sqrt`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn class_at_dist_sq(
        &mut self,
        a: u32,
        b: u32,
        dist_sq: f64,
        t: SimTime,
    ) -> Option<ChannelClass> {
        if dist_sq > self.config.tx_range_m * self.config.tx_range_m {
            return None;
        }
        assert_ne!(a, b, "no self-channel");
        let thresholds = self.config.class_thresholds_db;
        let dense = self.pair_index(a, b);
        // The lazy `sqrt` of the squared norm keeps the distance
        // bit-identical to `Vec2::distance` (both avoid `hypot`, whose
        // overflow guards cost a libm call these bounded coordinates never
        // need) — and a same-instant memo hit skips it entirely.
        let snr = self.snr_memoized(dense, t, || dist_sq.sqrt());
        Some(ChannelClass::from_snr_db(snr, thresholds))
    }

    /// Classifies a whole broadcast receiver set in one call — the
    /// **approx-tier** fan-out path.
    ///
    /// `receivers` holds `(node id, exact squared distance to tx)` for
    /// every in-range candidate (the caller has already applied the
    /// inclusive `d² ≤ tx_range_m²` predicate — debug-asserted here); the
    /// class of `receivers[i]` lands in `out[i]` (`out` is cleared first).
    ///
    /// Semantically identical to calling
    /// [`ChannelModel::class_at_dist_sq`]`(tx, rx, d², t)` per receiver —
    /// same per-pair streams, same same-instant memo, so interleaving with
    /// single-pair queries at the same instant is sound. The point is the
    /// shape: pass 1 resolves dense pair indices (instantiating first-seen
    /// pairs), pass 2 walks the dense rows in one tight loop with the
    /// caches and thresholds already in registers — no per-receiver borrow
    /// re-derivation or table walk between innovation draws.
    ///
    /// # Panics
    ///
    /// Panics if any receiver id equals `tx`, or (debug) if the model is
    /// not [`ChannelFidelity::Approx`] — the exact tier keeps its pinned
    /// per-receiver loop.
    pub fn class_batch(
        &mut self,
        tx: u32,
        receivers: &[(u32, f64)],
        t: SimTime,
        out: &mut Vec<ChannelClass>,
    ) {
        debug_assert_eq!(
            self.config.fidelity,
            ChannelFidelity::Approx,
            "class_batch is the approx-tier fan-out path"
        );
        // Pass 1: resolve (and lazily instantiate) every pair's dense row.
        let mut dense = std::mem::take(&mut self.scratch_dense);
        dense.clear();
        dense.extend(receivers.iter().map(|&(rx, _)| self.pair_index(tx, rx) as u32));
        // Pass 2: one tight loop over the dense rows. Disjoint field
        // borrows: `pairs` (mutable, per row), `caches` (mutable, shared),
        // `config` (read-only).
        out.clear();
        out.reserve(receivers.len());
        let thresholds = self.config.class_thresholds_db;
        let range_sq = self.config.tx_range_m * self.config.tx_range_m;
        let (shadow_cache, fade_cache) = &mut *self.caches;
        for (&row, &(_rx, dist_sq)) in dense.iter().zip(receivers) {
            debug_assert!(dist_sq <= range_sq, "class_batch receiver beyond radio range");
            let st = &mut self.pairs[row as usize];
            let snr = if st.snr_stamp == t {
                #[cfg(debug_assertions)]
                assert_eq!(
                    st.snr_dist_m.to_bits(),
                    dist_sq.sqrt().to_bits(),
                    "same-instant queries of one pair must agree on its geometry"
                );
                st.snr_db
            } else {
                let distance_m = dist_sq.sqrt();
                let snr = self.config.mean_snr_db(distance_m)
                    + st.shadow.sample_approx(t, &mut st.rng, shadow_cache)
                    + st.fade.sample_approx(t, &mut st.rng, fade_cache);
                st.snr_stamp = t;
                st.snr_db = snr;
                #[cfg(debug_assertions)]
                {
                    st.snr_dist_m = distance_m;
                }
                snr
            };
            out.push(ChannelClass::from_snr_db(snr, thresholds));
        }
        self.scratch_dense = dense;
    }

    /// Whether `a` and `b` are within radio range.
    ///
    /// This is the same **inclusive squared-distance** predicate
    /// [`ChannelModel::class_at_dist_sq`] gates on — `in_range` is `true`
    /// exactly when a class query for the same positions returns `Some` —
    /// and the predicate `World::on_mac_tx_end` (rica-harness) reproduces
    /// with its banded prefilter. `tests/channel_fastpath.rs` pins the
    /// agreement at the range boundary so the call sites cannot drift.
    pub fn in_range(&self, pos_a: Vec2, pos_b: Vec2) -> bool {
        pos_a.distance_sq(pos_b) <= self.config.tx_range_m * self.config.tx_range_m
    }

    /// Number of pair processes instantiated so far (diagnostics).
    pub fn active_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Times the pair indirection table had to grow past its initial
    /// sizing (diagnostics). Always 0 when [`ChannelModel::with_nodes`]
    /// declared the true terminal count up front.
    pub fn table_growths(&self) -> u32 {
        self.growths
    }

    /// Census of the **last-observed** class of every instantiated pair,
    /// indexed by [`ChannelClass::level`] (A = 0 … D = 3).
    ///
    /// Read-only observability: it re-classifies each pair's memoized
    /// composite SNR against the configured thresholds and never advances
    /// an OU process or consumes randomness, so it is safe to call from
    /// trace/time-series code without perturbing determinism. Pairs whose
    /// SNR was never computed (instantiated but not yet queried) are not
    /// counted, and the recorded class is whatever the *last* query saw —
    /// no range re-check happens here.
    pub fn class_census(&self) -> [usize; 4] {
        let thresholds = self.config.class_thresholds_db;
        let mut census = [0usize; 4];
        for pair in &self.pairs {
            if pair.snr_stamp != SimTime::MAX {
                let class = ChannelClass::from_snr_db(pair.snr_db, thresholds);
                census[class.level() as usize] += 1;
            }
        }
        census
    }

    /// `(hits, misses)` of the shared OU decay caches, summed over the
    /// shadow and fade component kinds.
    pub fn decay_cache_stats(&self) -> (u64, u64) {
        let (sh, sm) = self.caches.0.stats();
        let (fh, fm) = self.caches.1.stats();
        (sh + fh, sm + fm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> ChannelModel {
        ChannelModel::new(ChannelConfig::default(), Rng::new(seed))
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn out_of_range_is_none() {
        let mut m = model(1);
        let class = m.class_between(0, 1, Vec2::ZERO, Vec2::new(250.1, 0.0), SimTime::ZERO);
        assert!(class.is_none());
        let class = m.class_between(0, 1, Vec2::ZERO, Vec2::new(250.0, 0.0), SimTime::ZERO);
        assert!(class.is_some(), "exactly at range boundary is still a link");
    }

    #[test]
    fn reciprocal_channel() {
        let mut m = model(2);
        let pa = Vec2::new(10.0, 10.0);
        let pb = Vec2::new(110.0, 60.0);
        for i in 0..20 {
            let t = secs(i as f64 * 0.3);
            let ab = m.class_between(3, 7, pa, pb, t);
            let ba = m.class_between(7, 3, pb, pa, t);
            assert_eq!(ab, ba);
        }
        assert_eq!(m.active_pairs(), 1);
    }

    #[test]
    fn deterministic_and_order_independent() {
        // Pair (0,1) sees the same realisation whether or not pair (2,3)
        // was queried first.
        let sample = |query_other_first: bool| {
            let mut m = model(42);
            if query_other_first {
                m.class_between(2, 3, Vec2::ZERO, Vec2::new(50.0, 0.0), SimTime::ZERO);
            }
            (0..50)
                .map(|i| m.snr_db(0, 1, Vec2::ZERO, Vec2::new(80.0, 0.0), secs(i as f64 * 0.1)))
                .collect::<Vec<f64>>()
        };
        assert_eq!(sample(false), sample(true));
    }

    #[test]
    fn close_links_mostly_class_a_far_links_mostly_cd() {
        let mut near_a = 0;
        let mut far_cd = 0;
        let n = 400;
        for seed in 0..n {
            let mut m = model(10_000 + seed);
            let near =
                m.class_between(0, 1, Vec2::ZERO, Vec2::new(30.0, 0.0), SimTime::ZERO).unwrap();
            let far =
                m.class_between(2, 3, Vec2::ZERO, Vec2::new(240.0, 0.0), SimTime::ZERO).unwrap();
            if near == ChannelClass::A {
                near_a += 1;
            }
            if far >= ChannelClass::C {
                far_cd += 1;
            }
        }
        assert!(near_a as f64 / n as f64 > 0.8, "near class-A fraction {near_a}/{n}");
        assert!(far_cd as f64 / n as f64 > 0.8, "far C/D fraction {far_cd}/{n}");
    }

    #[test]
    fn mid_distance_has_class_diversity() {
        // At ~110 m every class should appear with non-trivial probability —
        // this diversity is what gives CSI-aware routing something to exploit.
        let mut counts = [0usize; 4];
        let n = 2000;
        for seed in 0..n {
            let mut m = model(77_000 + seed as u64);
            let c =
                m.class_between(0, 1, Vec2::ZERO, Vec2::new(110.0, 0.0), SimTime::ZERO).unwrap();
            counts[match c {
                ChannelClass::A => 0,
                ChannelClass::B => 1,
                ChannelClass::C => 2,
                ChannelClass::D => 3,
            }] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c as f64 / n as f64 > 0.03, "class {i} too rare: {counts:?}");
        }
    }

    #[test]
    fn class_dwell_time_is_of_order_seconds() {
        // Average dwell time in a class at fixed mid distance should be
        // between ~0.3 s and ~10 s: long enough that a 1 s CSI check period
        // can track it, short enough that adaptation matters.
        let mut m = model(5);
        let dt = 0.05;
        let mut last = None;
        let mut switches = 0u32;
        let steps = 40_000; // 2000 s
        for i in 0..steps {
            let c = m
                .class_between(0, 1, Vec2::ZERO, Vec2::new(110.0, 0.0), secs(i as f64 * dt))
                .unwrap();
            if last.is_some() && last != Some(c) {
                switches += 1;
            }
            last = Some(c);
        }
        let total_secs = steps as f64 * dt;
        let dwell = total_secs / switches.max(1) as f64;
        assert!((0.3..10.0).contains(&dwell), "mean dwell {dwell} s ({switches} switches)");
    }

    #[test]
    fn pre_sized_table_matches_lazy_growth() {
        // The flat table must give every pair the same realisation whether
        // it was pre-sized or grown on demand — and the same as before the
        // HashMap → triangular-Vec change (stream ids are unchanged).
        let mut pre = ChannelModel::with_nodes(ChannelConfig::default(), Rng::new(9), 6);
        let mut lazy = model(9);
        let pb = Vec2::new(100.0, 0.0);
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                for i in 0..5 {
                    let t = secs(i as f64 * 0.2);
                    assert_eq!(
                        pre.class_between(a, b, Vec2::ZERO, pb, t),
                        lazy.class_between(b, a, pb, Vec2::ZERO, t),
                        "pair ({a},{b}) diverged"
                    );
                }
            }
        }
        assert_eq!(pre.active_pairs(), 15);
        assert_eq!(lazy.active_pairs(), 15);
    }

    #[test]
    #[should_panic(expected = "no self-channel")]
    fn self_channel_panics() {
        let mut m = model(1);
        m.snr_db(4, 4, Vec2::ZERO, Vec2::ZERO, SimTime::ZERO);
    }

    #[test]
    fn lazy_growth_is_one_resize_per_new_high_id() {
        let mut m = model(31);
        let far = Vec2::new(90.0, 0.0);
        // First query of a high id grows the triangle for that id once…
        m.snr_db(0, 100, Vec2::ZERO, far, SimTime::ZERO);
        assert_eq!(m.table_growths(), 1);
        // …covering every smaller pair: no further growth below it.
        for b in 1..100u32 {
            m.snr_db(0, b, Vec2::ZERO, far, SimTime::ZERO);
        }
        assert_eq!(m.table_growths(), 1);
        // A still-higher id grows exactly once more.
        m.snr_db(3, 200, Vec2::ZERO, far, SimTime::ZERO);
        assert_eq!(m.table_growths(), 2);
        assert_eq!(m.active_pairs(), 101);
        // Growth never perturbs realisations: same streams as pre-sized.
        let mut pre = ChannelModel::with_nodes(ChannelConfig::default(), Rng::new(31), 201);
        assert_eq!(
            pre.snr_db(7, 150, Vec2::ZERO, far, SimTime::ZERO),
            m.snr_db(7, 150, Vec2::ZERO, far, SimTime::ZERO),
        );
        assert_eq!(pre.table_growths(), 0);
    }

    #[test]
    fn range_boundary_is_inclusive_and_in_range_agrees() {
        // The invariant shared by `in_range`, `class_at_dist_sq` and the
        // harness's banded prefilter: a link exists iff d² ≤ range²
        // (inclusive), judged on squared metres. Pin it at and around the
        // exact boundary so the call sites cannot drift apart.
        let mut m = model(4);
        let range = m.config().tx_range_m;
        let just_outside = f64::from_bits(range.to_bits() + 1); // next float up
        for (pair, (d, expect_link)) in
            [(range, true), (just_outside, false), (range - 1e-9, true), (range + 1e-9, false)]
                .into_iter()
                .enumerate()
        {
            // One pair per geometry: same-instant queries of one pair must
            // agree on its distance (the memo contract).
            let b = pair as u32 + 1;
            let (pa, pb) = (Vec2::ZERO, Vec2::new(d, 0.0));
            assert_eq!(m.in_range(pa, pb), expect_link, "in_range at d = {d}");
            assert_eq!(
                m.class_between(0, b, pa, pb, SimTime::ZERO).is_some(),
                expect_link,
                "class_between at d = {d}"
            );
        }
    }

    #[test]
    fn class_at_dist_sq_matches_class_between() {
        // Threading the caller's squared distance must not change the
        // realisation — including when the displacement sign flips.
        let mut by_pos = model(55);
        let mut by_dist = model(55);
        let pa = Vec2::new(13.0, 977.0);
        for i in 0..200u32 {
            let pb = Vec2::new(13.0 + i as f64 * 1.5, 975.0);
            let t = secs(i as f64 * 0.1);
            let want = by_pos.class_between(2, 9, pa, pb, t);
            let got = by_dist.class_at_dist_sq(9, 2, pb.distance_sq(pa), t);
            assert_eq!(want, got, "diverged at step {i}");
        }
    }

    fn approx_model(seed: u64, nodes: u32) -> ChannelModel {
        ChannelModel::with_nodes(
            ChannelConfig { fidelity: ChannelFidelity::Approx, ..ChannelConfig::default() },
            Rng::new(seed),
            nodes,
        )
    }

    #[test]
    fn class_batch_matches_single_pair_queries() {
        // The batched fan-out path and per-receiver `class_at_dist_sq` are
        // the same realisation: same pair streams, same memo, same grid.
        let mut batched = approx_model(123, 16);
        let mut single = approx_model(123, 16);
        let mut jitter = Rng::new(5);
        let mut out = Vec::new();
        let mut t = 0.0;
        for round in 0..200u32 {
            t += 0.016 + jitter.range_f64(0.0, 0.002);
            let at = secs(t);
            let tx = round % 16;
            let receivers: Vec<(u32, f64)> = (0..16u32)
                .filter(|&rx| rx != tx)
                .map(|rx| {
                    let d = 40.0 + ((tx * 31 + rx * 17) % 200) as f64;
                    (rx, d * d)
                })
                .collect();
            batched.class_batch(tx, &receivers, at, &mut out);
            assert_eq!(out.len(), receivers.len());
            for (&(rx, d_sq), &got) in receivers.iter().zip(&out) {
                let want = single.class_at_dist_sq(tx, rx, d_sq, at).unwrap();
                assert_eq!(want, got, "pair ({tx},{rx}) diverged at round {round}");
            }
        }
        // Each pair's jittered dt spans several octaves here (pairs are
        // touched on irregular rounds), yet the quantised grid still
        // absorbs the bulk of the vocabulary. (Real reception schedules
        // are narrower and hit > 99% — pinned in `ou::tests`.)
        let (hits, misses) = batched.decay_cache_stats();
        let rate = hits as f64 / (hits + misses) as f64;
        assert!(rate > 0.9, "approx fan-out should mostly hit: {hits}/{misses}");
    }

    #[test]
    fn class_batch_interleaves_with_single_queries_at_one_instant() {
        // A broadcast classifies the receiver set, then a receiver's own
        // protocol re-measures its CSI at the same instant: the memo must
        // serve the second query, in either order.
        let mut m = approx_model(9, 8);
        let mut out = Vec::new();
        let receivers: Vec<(u32, f64)> =
            (1..8u32).map(|rx| (rx, (30.0 * rx as f64).powi(2))).collect();
        let t0 = secs(1.0);
        m.class_batch(0, &receivers, t0, &mut out);
        for (&(rx, d_sq), &batch_class) in receivers.iter().zip(&out) {
            assert_eq!(m.class_at_dist_sq(0, rx, d_sq, t0).unwrap(), batch_class);
        }
        // Reverse order at a later instant: single query first, batch after.
        let t1 = secs(2.5);
        let first = m.class_at_dist_sq(0, 3, receivers[2].1, t1).unwrap();
        m.class_batch(0, &receivers, t1, &mut out);
        assert_eq!(out[2], first);
    }

    #[test]
    fn approx_tier_is_deterministic_and_order_independent() {
        // Same seed → same realisation, regardless of which pairs were
        // instantiated first (per-pair forked streams survive batching).
        let run = |warm_other_pair: bool| {
            let mut m = approx_model(77, 8);
            let mut out = Vec::new();
            if warm_other_pair {
                m.class_between(6, 7, Vec2::ZERO, Vec2::new(50.0, 0.0), SimTime::ZERO);
            }
            let receivers: Vec<(u32, f64)> = vec![(1, 70.0 * 70.0), (2, 130.0 * 130.0)];
            let mut classes = Vec::new();
            for i in 1..60u32 {
                m.class_batch(0, &receivers, secs(i as f64 * 0.107), &mut out);
                classes.extend(out.iter().copied());
            }
            classes
        };
        assert_eq!(run(false), run(true));
    }

    /// Mean and variance-of-the-mean of per-seed statistics.
    fn mean_se_sq(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var / n)
    }

    #[test]
    fn approx_class_process_statistics_match_exact() {
        // Distributional gate at model level: class occupancy at a fixed
        // mid distance and class switch rate must agree between tiers
        // within CI half-widths (they share the law, not the bits — and
        // the slow shadow component keeps samples *within* a seed
        // correlated, so error bars come from per-seed means, which are
        // independent by construction).
        let per_seed = |fidelity: ChannelFidelity| {
            let mut occ: [Vec<f64>; 4] = Default::default();
            let mut rates = Vec::new();
            for seed in 0..120u64 {
                let mut m = ChannelModel::with_nodes(
                    ChannelConfig { fidelity, ..ChannelConfig::default() },
                    Rng::new(40_000 + seed),
                    2,
                );
                let mut counts = [0usize; 4];
                let mut switches = 0u32;
                let mut last = None;
                let steps = 2_000u32;
                for i in 0..steps {
                    let c = m
                        .class_between(
                            0,
                            1,
                            Vec2::ZERO,
                            Vec2::new(110.0, 0.0),
                            secs(i as f64 * 0.05),
                        )
                        .unwrap();
                    counts[c.level() as usize] += 1;
                    if last.is_some() && last != Some(c) {
                        switches += 1;
                    }
                    last = Some(c);
                }
                for (k, &c) in counts.iter().enumerate() {
                    occ[k].push(c as f64 / steps as f64);
                }
                rates.push(switches as f64 / steps as f64);
            }
            (occ, rates)
        };
        let (occ_e, rates_e) = per_seed(ChannelFidelity::Exact);
        let (occ_a, rates_a) = per_seed(ChannelFidelity::Approx);
        for k in 0..4 {
            let (me, se2_e) = mean_se_sq(&occ_e[k]);
            let (ma, se2_a) = mean_se_sq(&occ_a[k]);
            let half_width = 3.0 * (se2_e + se2_a).sqrt();
            assert!(
                (me - ma).abs() < half_width + 0.005,
                "class {k} occupancy diverged: exact {me} approx {ma} (3σ {half_width:.4})"
            );
        }
        let (re, se2_e) = mean_se_sq(&rates_e);
        let (ra, se2_a) = mean_se_sq(&rates_a);
        let half_width = 3.0 * (se2_e + se2_a).sqrt();
        assert!(
            (re - ra).abs() < half_width + 0.001,
            "switch rate diverged: exact {re} approx {ra} (3σ {half_width:.4})"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rica_sim::Rng;

    proptest! {
        /// For any geometry within range, a class is always produced and
        /// reciprocity holds.
        #[test]
        fn class_total_within_range(
            seed in any::<u64>(),
            ax in 0.0f64..1000.0, ay in 0.0f64..1000.0,
            dx in -176.0f64..176.0, dy in -176.0f64..176.0,
            t in 0.0f64..500.0,
        ) {
            let pa = Vec2::new(ax, ay);
            let pb = Vec2::new(ax + dx, ay + dy); // at most ~249 m away
            let mut m = ChannelModel::new(ChannelConfig::default(), Rng::new(seed));
            let c1 = m.class_between(1, 2, pa, pb, SimTime::from_secs_f64(t));
            prop_assert!(c1.is_some());
            let c2 = m.class_between(2, 1, pb, pa, SimTime::from_secs_f64(t));
            prop_assert_eq!(c1, c2);
        }
    }
}
