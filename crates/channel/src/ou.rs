//! Lazily-evaluated Ornstein–Uhlenbeck process.

use rica_sim::{Rng, SimTime};

/// A stationary, zero-mean Ornstein–Uhlenbeck process sampled lazily at
/// arbitrary (non-decreasing) instants.
///
/// The OU process is the standard model for temporally correlated dB-domain
/// channel components (shadowing, slow fading): it is Gaussian, mean
/// reverting, and has autocorrelation `exp(-Δt/τ)`.
///
/// Sampling uses the *exact* conditional law, not Euler integration:
///
/// ```text
/// x(t+Δ) | x(t)  ~  N( x(t)·ρ,  σ²(1 − ρ²) ),   ρ = exp(−Δ/τ)
/// ```
///
/// so any event-driven query pattern yields statistically identical
/// trajectories — there is no simulation time step to tune.
///
/// ```
/// use rica_channel::OuProcess;
/// use rica_sim::{Rng, SimTime};
///
/// let mut ou = OuProcess::new(6.0, 10.0, &mut Rng::new(5));
/// let x0 = ou.sample(SimTime::ZERO, &mut Rng::new(6));
/// // Queries far in the future decorrelate towards N(0, σ²).
/// let x1 = ou.sample(SimTime::from_secs_f64(1000.0), &mut Rng::new(7));
/// assert!(x0.is_finite() && x1.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct OuProcess {
    sigma: f64,
    tau: f64,
    value: f64,
    last: SimTime,
}

impl OuProcess {
    /// Creates a process with stationary standard deviation `sigma` (dB) and
    /// time constant `tau` (seconds), drawing the initial state from the
    /// stationary distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or `tau <= 0` (or either is non-finite).
    pub fn new(sigma: f64, tau: f64, rng: &mut Rng) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0, got {sigma}");
        assert!(tau.is_finite() && tau > 0.0, "tau must be > 0, got {tau}");
        OuProcess { sigma, tau, value: rng.normal_with(0.0, sigma), last: SimTime::ZERO }
    }

    /// The value at instant `t`, advancing the internal state.
    ///
    /// Queries must be non-decreasing in `t`; repeated queries at the same
    /// instant return the same value.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous query.
    pub fn sample(&mut self, t: SimTime, rng: &mut Rng) -> f64 {
        assert!(t >= self.last, "non-monotonic OU query: {t} < {}", self.last);
        let dt = (t - self.last).as_secs_f64();
        if dt > 0.0 {
            let (rho, cond_sigma) = decay_coefficients(dt, self.sigma, self.tau);
            self.value = self.value * rho + rng.normal_with(0.0, cond_sigma);
            self.last = t;
        }
        self.value
    }

    /// [`OuProcess::sample`] with the `(ρ, conditional σ)` pair served from
    /// a shared [`DecayCache`] instead of recomputed per call.
    ///
    /// Bit-identical to the uncached path for any query schedule: the cache
    /// is keyed by the exact bits of `dt` and stores exactly what
    /// `decay_coefficients` would return, and `f64::exp`/`sqrt` are
    /// deterministic functions of their input bits.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous query; debug-panics if the cache
    /// was built for a different `(sigma, tau)` than this process.
    pub fn sample_cached(&mut self, t: SimTime, rng: &mut Rng, cache: &mut DecayCache) -> f64 {
        assert!(t >= self.last, "non-monotonic OU query: {t} < {}", self.last);
        let dt = (t - self.last).as_secs_f64();
        if dt > 0.0 {
            debug_assert!(
                cache.sigma.to_bits() == self.sigma.to_bits()
                    && cache.tau.to_bits() == self.tau.to_bits(),
                "DecayCache built for (sigma={}, tau={}) used with (sigma={}, tau={})",
                cache.sigma,
                cache.tau,
                self.sigma,
                self.tau
            );
            let (rho, cond_sigma) = cache.decay(dt);
            self.value = self.value * rho + rng.normal_with(0.0, cond_sigma);
            self.last = t;
        }
        self.value
    }

    /// The approx-fidelity-tier sampling path: like
    /// [`OuProcess::sample_cached`], but the decay coefficients are looked
    /// up at the *quantised* step ([`quantise_dt`]) and the innovation
    /// comes from the ziggurat sampler instead of Box–Muller.
    ///
    /// Quantising the cache key collapses the per-packet-jittered `dt`
    /// vocabulary onto a small geometric grid, which is what takes the
    /// [`DecayCache`] from the 31–39% hit rate measured on exact reception
    /// schedules to ~100%. The state still advances to the *exact* `t`
    /// (only the coefficients see the quantised step), so the error never
    /// accumulates across samples — each step's autocorrelation is
    /// `exp(-d̂t/τ)` for a `d̂t` within 2⁻⁶ relative of the true `dt`
    /// (see [`quantise_dt`] for the bound against `tau`).
    ///
    /// This path realises a **different trajectory** than
    /// [`OuProcess::sample`] (different innovation draws, perturbed
    /// coefficients); it is gated on statistical equivalence, not bit
    /// equality. Exact-tier code must never call it.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous query; debug-panics if the
    /// cache was built for a different `(sigma, tau)` than this process.
    pub fn sample_approx(&mut self, t: SimTime, rng: &mut Rng, cache: &mut DecayCache) -> f64 {
        assert!(t >= self.last, "non-monotonic OU query: {t} < {}", self.last);
        let dt = (t - self.last).as_secs_f64();
        if dt > 0.0 {
            debug_assert!(
                cache.sigma.to_bits() == self.sigma.to_bits()
                    && cache.tau.to_bits() == self.tau.to_bits(),
                "DecayCache built for (sigma={}, tau={}) used with (sigma={}, tau={})",
                cache.sigma,
                cache.tau,
                self.sigma,
                self.tau
            );
            let (rho, cond_sigma) = cache.decay(quantise_dt(dt));
            self.value = self.value * rho + cond_sigma * rng.normal_ziggurat();
            self.last = t;
        }
        self.value
    }

    /// The last sampled value (without advancing time).
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Stationary standard deviation (dB).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Mean-reversion time constant (seconds).
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

/// The exact conditional-law coefficients for a step of `dt` seconds:
/// `ρ = exp(−dt/τ)` and the conditional standard deviation
/// `σ·sqrt(1 − ρ²)`. This is the single definition both the uncached and
/// the cached sampling paths evaluate, so they cannot drift apart.
#[inline]
fn decay_coefficients(dt: f64, sigma: f64, tau: f64) -> (f64, f64) {
    let rho = (-dt / tau).exp();
    let cond_sigma = sigma * (1.0 - rho * rho).sqrt();
    (rho, cond_sigma)
}

/// Mantissa bits *kept* by [`quantise_dt`]: 6 bits → 64 grid points per
/// octave, relative truncation error < 2⁻⁶ ≈ 1.6%.
const DT_GRID_MANTISSA_BITS: u32 = 6;

/// Snaps a positive step `dt` (seconds) down onto a geometric grid with
/// `DT_GRID_MANTISSA_BITS` mantissa bits (64 points per power of two),
/// by truncating the low mantissa bits of its IEEE representation.
///
/// Purpose: reception-time `dt` values carry per-packet jitter, so the
/// exact-bits [`DecayCache`] key vocabulary is effectively unbounded and
/// the hit rate stalls at 31–39% (measured in PR 5). On the grid, every
/// octave of `dt` maps to at most 64 keys, so a whole trial's vocabulary
/// fits the cache's 512 direct-mapped slots with room to spare — the hit
/// rate becomes ~100% and the `exp`/`sqrt` pair is effectively free.
///
/// Error bound (documented against `tau`, which sets the scale on which
/// `dt` matters): truncation returns `d̂t = dt·(1 − ε)` with
/// `0 ≤ ε < 2⁻⁶`. The decay coefficient becomes `ρ̂ = exp(−d̂t/τ) =
/// ρ·exp(ε·dt/τ)`, i.e. a relative perturbation of at most
/// `exp(ε·dt/τ) − 1 ≈ (dt/τ)·2⁻⁶` — under 0.1% for reception steps up to
/// `τ/16`, under 1.6% at `dt = τ`, and irrelevant for `dt ≫ τ` where both
/// `ρ` and `ρ̂` have decayed to ~0 (the process is then a stationary
/// redraw either way). The conditional σ moves by strictly less than ρ
/// does (it varies as `sqrt(1−ρ²)`). The statistical-equivalence suite
/// pins the class-process consequences (dwell times, transition rates).
///
/// Only the **approx** fidelity tier calls this; exact-tier decay lookups
/// key on the unmodified bits of `dt`.
pub fn quantise_dt(dt: f64) -> f64 {
    debug_assert!(dt > 0.0 && dt.is_finite(), "quantise_dt needs dt > 0, got {dt}");
    let mask = !((1u64 << (52 - DT_GRID_MANTISSA_BITS)) - 1);
    let q = f64::from_bits(dt.to_bits() & mask);
    // Subnormals can truncate to zero; a zero step would freeze the
    // process (ρ = 1, σ = 0), so keep the exact dt there. Simulation
    // steps are ≥ 1 ns — this is a pure safety net.
    if q > 0.0 {
        q
    } else {
        dt
    }
}

/// Sentinel for "no key": `dt > 0` is a positive finite float, whose bit
/// pattern can never be `u64::MAX` (that is a NaN encoding).
const EMPTY_KEY: u64 = u64::MAX;

/// Direct-mapped table size. Event-driven simulations draw `dt` from a
/// small vocabulary (CSI check periods, beacon intervals, IFS/backoff
/// quanta, per-hop tx times), so a few hundred slots capture nearly all
/// repeats; collisions just recompute.
const TABLE_SLOTS: usize = 512;

/// A memo table for the OU decay coefficients of one `(sigma, tau)`
/// component kind, keyed by the exact bits of `dt`.
///
/// `OuProcess::sample` spends its time in `exp` and `sqrt`, yet both
/// results depend only on `(dt, sigma, tau)` — and every process of a given
/// component kind (e.g. all shadowing processes of a [`crate::ChannelModel`])
/// shares the same `(sigma, tau)`, so one cache serves them all. Lookups
/// try a last-hit fast slot first, then a small direct-mapped table; a miss
/// computes and overwrites. Because `f64::exp`/`sqrt` are deterministic for
/// identical input bits, a hit returns *exactly* what recomputation would —
/// cache policy (size, eviction, even disabling it) can only change speed,
/// never a realisation.
#[derive(Debug, Clone)]
pub struct DecayCache {
    sigma: f64,
    tau: f64,
    /// Last-hit fast slot: consecutive samples frequently share one `dt`
    /// (e.g. both OU components of a pair advance by the same step).
    last_key: u64,
    last_val: (f64, f64),
    /// Direct-mapped `(key, (rho, cond_sigma))` slots.
    table: Vec<(u64, (f64, f64))>,
    hits: u64,
    misses: u64,
}

impl DecayCache {
    /// Creates an empty cache for processes with this `(sigma, tau)`.
    pub fn new(sigma: f64, tau: f64) -> Self {
        DecayCache {
            sigma,
            tau,
            last_key: EMPTY_KEY,
            last_val: (0.0, 0.0),
            table: vec![(EMPTY_KEY, (0.0, 0.0)); TABLE_SLOTS],
            hits: 0,
            misses: 0,
        }
    }

    /// `(ρ, conditional σ)` for a step of `dt > 0` seconds — from the cache
    /// when the exact bit pattern of `dt` has been seen, computed (and
    /// memoized) otherwise.
    #[inline]
    pub fn decay(&mut self, dt: f64) -> (f64, f64) {
        let key = dt.to_bits();
        if key == self.last_key {
            self.hits += 1;
            return self.last_val;
        }
        // Fibonacci-hash the bits down to a table slot (top 9 bits of the
        // product = one of the 512 slots): nearby dt values differ only in
        // low mantissa bits, which the multiply spreads across the index.
        const _: () = assert!(TABLE_SLOTS == 1 << 9);
        let idx = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55) as usize;
        let slot = &mut self.table[idx];
        let val = if slot.0 == key {
            self.hits += 1;
            slot.1
        } else {
            self.misses += 1;
            let val = decay_coefficients(dt, self.sigma, self.tau);
            *slot = (key, val);
            val
        };
        self.last_key = key;
        self.last_val = val;
        val
    }

    /// `(hits, misses)` so far — diagnostics for tuning and benches.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn constant_when_sigma_zero() {
        let mut seed = Rng::new(1);
        let mut ou = OuProcess::new(0.0, 5.0, &mut seed);
        let mut rng = Rng::new(2);
        for i in 0..100 {
            assert_eq!(ou.sample(secs(i as f64), &mut rng), 0.0);
        }
    }

    #[test]
    fn repeated_query_same_instant_is_stable() {
        let mut seed = Rng::new(3);
        let mut ou = OuProcess::new(4.0, 2.0, &mut seed);
        let mut rng = Rng::new(4);
        let a = ou.sample(secs(1.0), &mut rng);
        let b = ou.sample(secs(1.0), &mut rng);
        assert_eq!(a, b);
        assert_eq!(ou.current(), a);
    }

    #[test]
    fn stationary_moments() {
        // Ensemble statistics over many independent processes.
        let sigma = 6.0;
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let mut seed = Rng::new(1000 + i);
            let mut ou = OuProcess::new(sigma, 3.0, &mut seed);
            let mut rng = Rng::new(2000 + i);
            let x = ou.sample(secs(7.0), &mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - sigma * sigma).abs() < sigma * sigma * 0.05, "var {var}");
    }

    #[test]
    fn autocorrelation_decays_as_exp() {
        // E[x(t)x(t+dt)] = sigma^2 * exp(-dt/tau).
        let sigma = 5.0;
        let tau = 2.0;
        let dt = 1.0;
        let n = 40_000;
        let mut acc = 0.0;
        for i in 0..n {
            let mut seed = Rng::new(500 + i);
            let mut ou = OuProcess::new(sigma, tau, &mut seed);
            let mut rng = Rng::new(900 + i);
            let x0 = ou.sample(secs(0.0), &mut rng);
            let x1 = ou.sample(secs(dt), &mut rng);
            acc += x0 * x1;
        }
        let got = acc / n as f64;
        let expect = sigma * sigma * (-dt / tau).exp();
        assert!((got - expect).abs() < 1.0, "got {got} expect {expect}");
    }

    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn backwards_query_panics() {
        let mut seed = Rng::new(8);
        let mut ou = OuProcess::new(1.0, 1.0, &mut seed);
        let mut rng = Rng::new(9);
        ou.sample(secs(5.0), &mut rng);
        ou.sample(secs(4.0), &mut rng);
    }

    #[test]
    #[should_panic(expected = "tau must be > 0")]
    fn zero_tau_panics() {
        OuProcess::new(1.0, 0.0, &mut Rng::new(1));
    }

    #[test]
    fn cached_sampling_is_bit_identical_on_a_repetitive_schedule() {
        // The exact pattern the simulator produces: a handful of distinct
        // dt values (tx durations, check periods) repeated many times.
        let gaps = [0.016384, 1.0, 0.016384, 0.081920, 1.0, 0.0, 0.016384, 250.0];
        let mut reference = OuProcess::new(6.0, 15.0, &mut Rng::new(21));
        let mut cached = OuProcess::new(6.0, 15.0, &mut Rng::new(21));
        let mut cache = DecayCache::new(6.0, 15.0);
        let (mut rng_a, mut rng_b) = (Rng::new(22), Rng::new(22));
        let mut t = 0.0;
        for _ in 0..50 {
            for gap in gaps {
                t += gap;
                let want = reference.sample(secs(t), &mut rng_a);
                let got = cached.sample_cached(secs(t), &mut rng_b, &mut cache);
                assert_eq!(want.to_bits(), got.to_bits(), "diverged at t={t}");
            }
        }
        let (hits, misses) = cache.stats();
        assert!(
            hits > misses,
            "repetitive schedule should mostly hit: {hits} hits, {misses} misses"
        );
    }

    #[test]
    fn quantise_dt_error_is_bounded_and_grid_is_small() {
        let mut rng = Rng::new(99);
        let mut octave_keys = std::collections::BTreeSet::new();
        let mut reception_keys = std::collections::BTreeSet::new();
        for _ in 0..100_000 {
            // Arbitrary positive dt across ~30 octaves: error bounds hold
            // everywhere.
            let dt = rng.range_f64(1e-6, 1.0) * 10f64.powi(rng.u64_below(4) as i32);
            let q = quantise_dt(dt);
            assert!(q <= dt, "quantisation must round down: {q} > {dt}");
            assert!((dt - q) / dt < 1.0 / 64.0, "relative error too big at {dt}: {q}");
            assert_eq!(quantise_dt(q), q, "grid points must be fixed points");
            // One octave holds at most 64 grid points…
            octave_keys.insert(quantise_dt(rng.range_f64(1.0, 2.0)).to_bits());
            // …so a realistic jittered reception vocabulary (tx times and
            // gaps from ~10 ms to ~120 ms) collapses to a key set the
            // 512-slot decay cache absorbs whole.
            reception_keys.insert(quantise_dt(rng.range_f64(0.01, 0.12)).to_bits());
        }
        assert!(octave_keys.len() <= 64, "octave grid too fine: {}", octave_keys.len());
        assert!(
            reception_keys.len() <= 4 * 64,
            "reception vocabulary too big: {}",
            reception_keys.len()
        );
        // Values already on the grid (power-of-two-ish sim quanta) pass
        // through untouched.
        assert_eq!(quantise_dt(0.5), 0.5);
        assert_eq!(quantise_dt(0.016384).to_bits(), quantise_dt(0.016384).to_bits());
    }

    #[test]
    fn approx_sampling_hits_the_cache_on_jittered_schedules() {
        // The exact reception regime the quantisation exists for: every
        // step carries per-packet jitter, so exact-bits keys nearly never
        // repeat — quantised keys nearly always do.
        let mut procs: Vec<OuProcess> =
            (0..32).map(|i| OuProcess::new(6.0, 15.0, &mut Rng::new(300 + i))).collect();
        let mut cache = DecayCache::new(6.0, 15.0);
        let mut rng = Rng::new(7);
        let mut jitter = Rng::new(8);
        let mut t = vec![0.0f64; procs.len()];
        for step in 0..20_000usize {
            let p = step % procs.len();
            t[p] += 0.016 + jitter.range_f64(0.0, 0.002);
            procs[p].sample_approx(secs(t[p]), &mut rng, &mut cache);
        }
        let (hits, misses) = cache.stats();
        let rate = hits as f64 / (hits + misses) as f64;
        assert!(rate > 0.99, "quantised schedule should hit ~100%: {hits}/{misses}");
    }

    #[test]
    fn approx_sampling_preserves_stationary_moments() {
        // Ensemble moments across independent processes under the approx
        // path: same N(0, σ²) stationary law as the exact path.
        let sigma = 6.0;
        let n = 20_000;
        let mut cache = DecayCache::new(sigma, 3.0);
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for i in 0..n {
            let mut seed = Rng::new(4000 + i);
            let mut ou = OuProcess::new(sigma, 3.0, &mut seed);
            let mut rng = Rng::new(5000 + i);
            let x = ou.sample_approx(secs(7.0), &mut rng, &mut cache);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - sigma * sigma).abs() < sigma * sigma * 0.05, "var {var}");
    }

    #[test]
    fn approx_sampling_preserves_autocorrelation() {
        // E[x(t)x(t+dt)] = σ²·exp(−dt/τ) must survive both the quantised
        // coefficients and the ziggurat innovations.
        let sigma = 5.0;
        let tau = 2.0;
        let dt = 1.0 + 1e-4; // deliberately off-grid
        let n = 40_000;
        let mut cache = DecayCache::new(sigma, tau);
        let mut acc = 0.0;
        for i in 0..n {
            let mut seed = Rng::new(6000 + i);
            let mut ou = OuProcess::new(sigma, tau, &mut seed);
            let mut rng = Rng::new(7000 + i);
            let x0 = ou.sample_approx(secs(1.0), &mut rng, &mut cache);
            let x1 = ou.sample_approx(secs(1.0 + dt), &mut rng, &mut cache);
            acc += x0 * x1;
        }
        let got = acc / n as f64;
        let expect = sigma * sigma * (-dt / tau).exp();
        assert!((got - expect).abs() < 1.0, "got {got} expect {expect}");
    }

    #[test]
    fn cache_is_shared_across_processes_of_one_kind() {
        // One cache serves every process with the same (sigma, tau) — the
        // ChannelModel usage pattern — without cross-contamination.
        let mut cache = DecayCache::new(4.0, 1.5);
        let mut procs: Vec<OuProcess> =
            (0..8).map(|i| OuProcess::new(4.0, 1.5, &mut Rng::new(100 + i))).collect();
        let mut refs = procs.clone();
        for step in 1..40u64 {
            let t = secs(step as f64 * 0.25);
            for (i, (p, r)) in procs.iter_mut().zip(refs.iter_mut()).enumerate() {
                let mut rng_a = Rng::new(step * 64 + i as u64);
                let mut rng_b = rng_a.clone();
                let got = p.sample_cached(t, &mut rng_a, &mut cache);
                let want = r.sample(t, &mut rng_b);
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rica_sim::Rng;

    proptest! {
        /// The process never produces non-finite values, for arbitrary
        /// (sorted) query schedules.
        #[test]
        fn always_finite(
            seed in any::<u64>(),
            sigma in 0.0f64..20.0,
            tau in 0.01f64..100.0,
            mut ts in proptest::collection::vec(0.0f64..10_000.0, 1..100),
        ) {
            ts.sort_by(f64::total_cmp);
            let mut seeder = Rng::new(seed);
            let mut ou = OuProcess::new(sigma, tau, &mut seeder);
            let mut rng = Rng::new(seed ^ 0xABCD);
            for &t in &ts {
                let x = ou.sample(SimTime::from_secs_f64(t), &mut rng);
                prop_assert!(x.is_finite());
                // 8-sigma bound: astronomically unlikely to fail by chance.
                prop_assert!(x.abs() <= 8.0 * sigma + 1e-9);
            }
        }

        /// The cached path is bit-identical to the uncached reference for
        /// arbitrary sorted query schedules: repeated dt values, dt = 0
        /// (repeated instants), and far-future decorrelating jumps.
        #[test]
        fn cached_matches_reference_bit_for_bit(
            seed in any::<u64>(),
            sigma in 0.0f64..20.0,
            tau in 0.01f64..100.0,
            // Gap vocabulary indices + magnitudes: schedules mix exact
            // repeats (the cache-hit regime), zero gaps, tiny steps and
            // >> tau jumps (rho underflows towards 0).
            gaps in proptest::collection::vec(
                prop_oneof![
                    Just(0.0f64),
                    Just(0.016384),
                    Just(1.0),
                    0.000001f64..10.0,
                    1_000.0f64..100_000.0,
                ],
                1..200,
            ),
        ) {
            let mut seeder = Rng::new(seed);
            let mut reference = OuProcess::new(sigma, tau, &mut seeder);
            let mut cached = reference.clone();
            let mut cache = DecayCache::new(sigma, tau);
            let mut rng_a = Rng::new(seed ^ 0xF00D);
            let mut rng_b = rng_a.clone();
            let mut t = 0.0;
            for gap in gaps {
                t += gap;
                let at = SimTime::from_secs_f64(t);
                let want = reference.sample(at, &mut rng_a);
                let got = cached.sample_cached(at, &mut rng_b, &mut cache);
                prop_assert_eq!(want.to_bits(), got.to_bits(),
                    "diverged at t={} (gap {})", t, gap);
                // The generators must stay in lockstep too: a hit that
                // consumed a different number of draws would desynchronise
                // everything after it.
                prop_assert_eq!(&rng_a, &rng_b);
            }
        }
    }
}
