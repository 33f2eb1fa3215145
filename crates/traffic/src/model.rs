//! Stateful per-flow traffic generators.
//!
//! One [`FlowTraffic`] instance exists per flow; it owns the flow's
//! seed-forked [`Rng`] and yields the gap before the next packet and the
//! size of the packet being emitted now. The harness drives it from its
//! `Traffic` events, so a flow's random stream is a pure function of
//! `(seed, flow index, workload spec)` — adding flows or swapping specs
//! on one flow never perturbs another flow's stream.

use rica_sim::{Rng, SimDuration};

use crate::spec::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};

/// The gap returned instead of `inf`/NaN when a generator is (mis)driven
/// with a degenerate rate: ~136 years of simulated time, far beyond any
/// trial end, so the flow simply never fires again. It is the simulator's
/// [`SimDuration::NEVER`].
pub const SATURATED_GAP: SimDuration = SimDuration::NEVER;

/// Pareto dwell samples are truncated at this multiple of the mean so one
/// heavy-tailed draw cannot silence a flow for a whole trial.
const PARETO_DWELL_CAP_FACTOR: f64 = 100.0;

/// A per-flow packet generator: a [`WorkloadSpec`] instantiated for one
/// flow, owning the flow's RNG state and yielding `(next gap, packet
/// size)` pairs. Built by [`WorkloadSpec::build`].
///
/// The two halves are split so the harness can draw the size of the
/// packet being emitted *now* and the gap to the next packet as two calls
/// around its dispatch logic; for one emitted packet the draw order is
/// always size first, then gap.
#[derive(Debug)]
pub struct FlowTraffic {
    rng: Rng,
    arrival: ArrivalState,
    size: SizeSpec,
    /// Anchor for [`SizeSpec::Fixed`].
    fixed_bytes: u32,
}

#[derive(Debug)]
enum ArrivalState {
    /// Deterministic gaps; the start phase is consumed by the first draw.
    Cbr { gap_secs: f64, phase_secs: Option<f64> },
    /// Exponential gaps with the given mean. This is the paper's default
    /// path: one `Rng::exp` draw per gap, bit-identical to the legacy
    /// `SimDuration::from_secs_f64(rng.exp(1.0 / rate))` stream the
    /// goldens were recorded with.
    Poisson { mean_gap_secs: f64 },
    /// Interrupted Poisson process: exponential arrivals at the burst
    /// rate while *on*, silence while *off*.
    OnOff {
        burst_mean_gap_secs: f64,
        on_mean_secs: f64,
        off_mean_secs: f64,
        dwell: Dwell,
        /// Remaining time in the current *on* dwell.
        on_remaining_secs: f64,
    },
}

impl FlowTraffic {
    /// Instantiates `spec` for one flow of mean rate `rate_pps` whose
    /// fixed-size anchor is `packet_bytes`, owning `rng`.
    pub fn new(spec: &WorkloadSpec, rate_pps: f64, packet_bytes: u32, mut rng: Rng) -> FlowTraffic {
        let arrival = ArrivalState::new(&spec.arrival, rate_pps, &mut rng);
        FlowTraffic { rng, arrival, size: spec.size, fixed_bytes: packet_bytes }
    }
}

impl ArrivalState {
    fn new(spec: &ArrivalSpec, rate_pps: f64, rng: &mut Rng) -> ArrivalState {
        // `rica_sim::usable_mean_gap` owns the subtle cases: subnormal
        // rates whose reciprocal overflows to inf (which `Rng::exp`
        // would hard-assert on) and infinite rates whose mean gap
        // collapses to zero.
        let mean_gap = rica_sim::usable_mean_gap(rate_pps);
        debug_assert!(
            mean_gap.is_some(),
            "flow rate must be > 0 with a finite mean gap, got {rate_pps}"
        );
        let Some(mean_gap_secs) = mean_gap else {
            // Saturating fallback (release builds): a degenerate rate
            // becomes a CBR flow whose one gap is SATURATED_GAP.
            return ArrivalState::Cbr { gap_secs: f64::INFINITY, phase_secs: None };
        };
        match spec {
            ArrivalSpec::Cbr => {
                // Uniform start phase so CBR flows don't fire in lock-step.
                ArrivalState::Cbr {
                    gap_secs: mean_gap_secs,
                    phase_secs: Some(rng.range_f64(0.0, mean_gap_secs)),
                }
            }
            ArrivalSpec::Poisson => ArrivalState::Poisson { mean_gap_secs },
            ArrivalSpec::OnOffBurst { on_mean_secs, off_mean_secs, dwell } => {
                // Burst rate = mean rate ÷ duty cycle, preserving the
                // configured mean offered load. The duty × mean-gap
                // product is clamped away from an underflow to zero,
                // which `Rng::exp` would reject.
                let duty = on_mean_secs / (on_mean_secs + off_mean_secs);
                let on_remaining_secs = sample_dwell(rng, *on_mean_secs, *dwell);
                ArrivalState::OnOff {
                    burst_mean_gap_secs: (duty / rate_pps).max(f64::MIN_POSITIVE),
                    on_mean_secs: *on_mean_secs,
                    off_mean_secs: *off_mean_secs,
                    dwell: *dwell,
                    on_remaining_secs,
                }
            }
        }
    }

    fn next_gap_secs(&mut self, rng: &mut Rng) -> f64 {
        match self {
            ArrivalState::Cbr { gap_secs, phase_secs } => match phase_secs.take() {
                Some(phase) => phase,
                None => *gap_secs,
            },
            ArrivalState::Poisson { mean_gap_secs } => rng.exp(*mean_gap_secs),
            ArrivalState::OnOff {
                burst_mean_gap_secs,
                on_mean_secs,
                off_mean_secs,
                dwell,
                on_remaining_secs,
            } => {
                let mut total = 0.0;
                loop {
                    let g = rng.exp(*burst_mean_gap_secs);
                    if g <= *on_remaining_secs {
                        *on_remaining_secs -= g;
                        break total + g;
                    }
                    // The candidate arrival falls past the end of the on
                    // dwell: consume the rest of it, sit out an off dwell,
                    // start a fresh on dwell and redraw (memoryless, so
                    // redrawing is exact for the exponential burst process).
                    total += *on_remaining_secs;
                    total += sample_dwell(rng, *off_mean_secs, *dwell);
                    *on_remaining_secs = sample_dwell(rng, *on_mean_secs, *dwell);
                }
            }
        }
    }
}

/// Draws one on/off dwell time of the given mean.
fn sample_dwell(rng: &mut Rng, mean_secs: f64, dwell: Dwell) -> f64 {
    match dwell {
        Dwell::Exponential => rng.exp(mean_secs),
        Dwell::Pareto { shape } => {
            // Scale so the (untruncated) mean equals `mean_secs`:
            // E[X] = shape·xm/(shape−1).
            let xm = mean_secs * (shape - 1.0) / shape;
            let x = xm / (1.0 - rng.f64()).powf(1.0 / shape);
            x.min(mean_secs * PARETO_DWELL_CAP_FACTOR)
        }
    }
}

impl FlowTraffic {
    /// The gap before the next packet of this flow.
    pub fn next_gap(&mut self) -> SimDuration {
        let secs = self.arrival.next_gap_secs(&mut self.rng);
        if secs.is_finite() && secs >= 0.0 && secs < SATURATED_GAP.as_secs_f64() {
            SimDuration::from_secs_f64(secs)
        } else {
            // Documented saturating fallback: degenerate rates (or a
            // pathological dwell draw) yield "never" instead of inf/NaN.
            SATURATED_GAP
        }
    }

    /// The payload size (bytes) of the packet being emitted now.
    pub fn packet_bytes(&mut self) -> u32 {
        match self.size {
            // The default path must not touch the RNG (bit-compatibility
            // with the fixed-size legacy stream).
            SizeSpec::Fixed => self.fixed_bytes,
            SizeSpec::Uniform { lo, hi } => lo + self.rng.u64_below((hi - lo) as u64 + 1) as u32,
            SizeSpec::Bimodal { small, large, p_small } => {
                if self.rng.bool_with(p_small) {
                    small
                } else {
                    large
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(spec: WorkloadSpec, rate: f64, bytes: u32, seed: u64) -> FlowTraffic {
        spec.build(rate, bytes, Rng::new(seed))
    }

    fn arrival(a: ArrivalSpec) -> WorkloadSpec {
        WorkloadSpec { arrival: a, size: SizeSpec::Fixed }
    }

    fn size(s: SizeSpec) -> WorkloadSpec {
        WorkloadSpec { arrival: ArrivalSpec::Poisson, size: s }
    }

    /// Mean seconds per packet over `n` gaps.
    fn mean_gap(m: &mut FlowTraffic, n: usize) -> f64 {
        (0..n).map(|_| m.next_gap().as_secs_f64()).sum::<f64>() / n as f64
    }

    #[test]
    fn poisson_matches_the_legacy_stream_bit_for_bit() {
        // The default workload must reproduce the exact draws of
        // `SimDuration::from_secs_f64(rng.exp(1.0 / rate))` from the same
        // fork — this is what keeps golden fixed-seed metrics valid.
        let mut legacy_rng = Rng::new(42);
        let mut m = model(WorkloadSpec::default(), 10.0, 512, 42);
        for _ in 0..1000 {
            let legacy = SimDuration::from_secs_f64(legacy_rng.exp(1.0 / 10.0));
            assert_eq!(m.packet_bytes(), 512);
            assert_eq!(m.next_gap(), legacy);
        }
    }

    #[test]
    fn cbr_gaps_are_constant_after_the_phase() {
        let mut m = model(arrival(ArrivalSpec::Cbr), 20.0, 512, 1);
        let phase = m.next_gap().as_secs_f64();
        assert!((0.0..0.05).contains(&phase), "phase {phase} outside [0, 1/rate)");
        for _ in 0..100 {
            assert!((m.next_gap().as_secs_f64() - 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn poisson_mean_rate_matches() {
        let mut m = model(arrival(ArrivalSpec::Poisson), 20.0, 512, 7);
        let mean = mean_gap(&mut m, 100_000);
        assert!((mean - 0.05).abs() < 0.001, "mean gap {mean}");
    }

    #[test]
    fn onoff_preserves_the_mean_rate() {
        for (dwell, tol) in [(Dwell::Exponential, 0.04), (Dwell::Pareto { shape: 1.5 }, 0.10)] {
            let spec =
                arrival(ArrivalSpec::OnOffBurst { on_mean_secs: 0.5, off_mean_secs: 1.5, dwell });
            let mut m = model(spec, 10.0, 512, 11);
            let mean = mean_gap(&mut m, 200_000);
            assert!((mean - 0.1).abs() < 0.1 * tol, "{dwell:?}: mean gap {mean} should be ~0.1 s");
        }
    }

    #[test]
    fn onoff_is_burstier_than_poisson() {
        // Fano factor of 100 ms-window counts: ~1 for Poisson, well above
        // for an interrupted Poisson process with 0.5 s / 1.5 s dwells.
        let fano = |m: &mut FlowTraffic| {
            let window = 0.1;
            let mut counts = vec![0u32; 20_000];
            let mut t = 0.0;
            loop {
                t += m.next_gap().as_secs_f64();
                let w = (t / window) as usize;
                if w >= counts.len() {
                    break;
                }
                counts[w] += 1;
            }
            let n = counts.len() as f64;
            let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
            let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
            var / mean
        };
        let mut poisson = model(arrival(ArrivalSpec::Poisson), 10.0, 512, 3);
        let mut bursty = model(
            arrival(ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Exponential,
            }),
            10.0,
            512,
            3,
        );
        let f_poisson = fano(&mut poisson);
        let f_bursty = fano(&mut bursty);
        assert!((f_poisson - 1.0).abs() < 0.15, "Poisson fano {f_poisson}");
        assert!(f_bursty > 2.0, "bursty fano {f_bursty} not bursty");
    }

    #[test]
    fn dwell_sampler_means_match_spec() {
        let mut rng = Rng::new(5);
        for dwell in [Dwell::Exponential, Dwell::Pareto { shape: 1.5 }] {
            let n = 400_000;
            let mean_secs = 2.0;
            let mean =
                (0..n).map(|_| sample_dwell(&mut rng, mean_secs, dwell)).sum::<f64>() / n as f64;
            // The Pareto cap trims the configured mean by a hair
            // ((xm/c)^(α−1)·c/(α−1) ≈ 3% at 100× for α = 1.5).
            assert!(
                (mean - mean_secs).abs() < mean_secs * 0.06,
                "{dwell:?}: dwell mean {mean} vs {mean_secs}"
            );
        }
    }

    #[test]
    fn uniform_sizes_cover_the_range_with_the_right_mean() {
        let mut m = model(size(SizeSpec::Uniform { lo: 100, hi: 300 }), 10.0, 512, 9);
        let n = 100_000;
        let mut sum = 0u64;
        let (mut lo_seen, mut hi_seen) = (u32::MAX, 0);
        for _ in 0..n {
            let b = m.packet_bytes();
            assert!((100..=300).contains(&b));
            lo_seen = lo_seen.min(b);
            hi_seen = hi_seen.max(b);
            sum += b as u64;
        }
        assert_eq!((lo_seen, hi_seen), (100, 300), "inclusive bounds reached");
        let mean = sum as f64 / n as f64;
        assert!((mean - 200.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn bimodal_sizes_split_by_probability() {
        let mut m =
            model(size(SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 }), 10.0, 512, 13);
        let n = 100_000;
        let small = (0..n).filter(|_| m.packet_bytes() == 40).count();
        let frac = small as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "small fraction {frac}");
    }

    #[test]
    fn streams_are_deterministic_and_fork_independent() {
        let spec = WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Pareto { shape: 1.5 },
            },
            size: SizeSpec::Uniform { lo: 64, hi: 1500 },
        };
        let draw = |seed: u64| -> Vec<(SimDuration, u32)> {
            let mut m = spec.build(10.0, 512, Rng::new(seed));
            (0..200).map(|_| (m.next_gap(), m.packet_bytes())).collect()
        };
        assert_eq!(draw(3), draw(3), "same seed, same stream");
        assert_ne!(draw(3), draw(4), "different seeds differ");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "flow rate must be > 0")]
    fn degenerate_rate_asserts_in_debug_builds() {
        model(WorkloadSpec::default(), 0.0, 512, 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn degenerate_rate_saturates_in_release_builds() {
        // 1e-320 (subnormal: 1/rate overflows to inf) and inf (mean gap
        // collapses to zero) would both trip `Rng::exp`'s hard assert if
        // the guard checked only the rate itself.
        for rate in [0.0, -5.0, f64::NAN, f64::INFINITY, 1e-320] {
            let mut m = model(WorkloadSpec::default(), rate, 512, 1);
            assert_eq!(m.next_gap(), SATURATED_GAP, "rate {rate} must saturate");
        }
    }
}
