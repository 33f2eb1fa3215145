//! Declarative workload descriptions.
//!
//! A [`WorkloadSpec`] is pure data: an arrival process crossed with a
//! packet-size distribution. Specs travel through scenario builders,
//! sweep plans and JSON artifacts; [`WorkloadSpec::build`] turns one into
//! a stateful per-flow generator (see [`crate::model`]).

use std::fmt::Write as _;

use rica_sim::Rng;

use crate::model::FlowTraffic;

/// Dwell-time distribution for the on/off phases of a bursty flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dwell {
    /// Exponentially distributed dwell times (a classic interrupted
    /// Poisson process).
    Exponential,
    /// Pareto dwell times with the given shape `α > 1` (heavy-tailed
    /// bursts, à la self-similar traffic studies). The scale is derived
    /// from the configured mean; samples are truncated at 100× the mean
    /// so a single dwell can never stall a flow for a whole trial.
    Pareto {
        /// Tail index; must be finite and `> 1` so the mean exists.
        shape: f64,
    },
}

/// The packet arrival process of a flow.
///
/// Every variant preserves the flow's configured *mean* rate
/// (`rate_pps`), so workloads are comparable at equal mean offered load.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Constant bit rate: deterministic `1/rate` gaps after a uniformly
    /// random start phase in `[0, 1/rate)` (the phase decorrelates flows
    /// that would otherwise transmit in lock-step).
    Cbr,
    /// Poisson arrivals — exponential inter-arrival gaps (§III.A, the
    /// paper's only workload and this crate's default).
    Poisson,
    /// On/off bursts: during an *on* dwell the flow emits Poisson
    /// arrivals at `rate / duty_cycle` (duty cycle = `on / (on + off)`),
    /// during an *off* dwell it is silent. Mean rate is preserved.
    OnOffBurst {
        /// Mean *on* dwell in seconds; must be finite and `> 0`.
        on_mean_secs: f64,
        /// Mean *off* dwell in seconds; must be finite and `> 0`.
        off_mean_secs: f64,
        /// Dwell-time distribution for both phases.
        dwell: Dwell,
    },
}

/// The packet-size distribution of a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeSpec {
    /// Every packet carries the `packet_bytes` its generator was built
    /// with (the paper's 512-byte workload and this crate's default).
    Fixed,
    /// Uniform payload in `[lo, hi]` bytes (inclusive).
    Uniform {
        /// Smallest payload; must be `>= 1`.
        lo: u32,
        /// Largest payload; must be `>= lo`.
        hi: u32,
    },
    /// Small-ack / large-data bimodal mix.
    Bimodal {
        /// Payload of the small (ack-like) packets; must be `>= 1`.
        small: u32,
        /// Payload of the large (data) packets; must be `>= small`.
        large: u32,
        /// Probability of a small packet, in `[0, 1]`.
        p_small: f64,
    },
}

/// A complete workload description: arrival process × size distribution.
///
/// The default is the paper's workload (Poisson arrivals of fixed-size
/// packets); scenarios built with the default produce byte-identical
/// results to the pre-`rica-traffic` harness, which is what keeps the
/// golden fixed-seed metrics pinned in `tests/golden_metrics.rs` valid.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// When packets arrive.
    pub arrival: ArrivalSpec,
    /// How big they are.
    pub size: SizeSpec,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec { arrival: ArrivalSpec::Poisson, size: SizeSpec::Fixed }
    }
}

impl WorkloadSpec {
    /// `true` for the paper's default workload (Poisson + fixed size).
    ///
    /// Default-workload flows take the exact legacy code path: the same
    /// RNG draws in the same order, no extra metrics recording, no new
    /// artifact fields — so every pre-existing fixed-seed result stays
    /// byte-identical.
    pub fn is_paper_default(&self) -> bool {
        self.arrival == ArrivalSpec::Poisson && self.size == SizeSpec::Fixed
    }

    /// A compact deterministic label for tables, sweep axes and the
    /// `sweep_results.json` artifact (e.g. `poisson+fixed`,
    /// `onoff(exp,0.5/1.5s)+bimodal(40/1460,p=0.3)`).
    pub fn label(&self) -> String {
        let mut out = String::new();
        arrival_label(&mut out, &self.arrival);
        out.push('+');
        size_label(&mut out, &self.size);
        out
    }

    /// Validates the spec, returning a human-readable complaint if any
    /// parameter is out of range.
    pub fn validate(&self) -> Result<(), String> {
        validate_arrival(&self.arrival)?;
        validate_size(&self.size)
    }

    /// Builds the per-flow generator: a stateful [`FlowTraffic`] owning
    /// `rng`, emitting packets at mean rate `rate_pps` with mean-size
    /// anchor `packet_bytes` (used by [`SizeSpec::Fixed`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec does not [`validate`](WorkloadSpec::validate).
    pub fn build(&self, rate_pps: f64, packet_bytes: u32, rng: Rng) -> FlowTraffic {
        self.validate().expect("invalid workload spec");
        FlowTraffic::new(self, rate_pps, packet_bytes, rng)
    }
}

fn arrival_label(out: &mut String, a: &ArrivalSpec) {
    match a {
        ArrivalSpec::Cbr => out.push_str("cbr"),
        ArrivalSpec::Poisson => out.push_str("poisson"),
        ArrivalSpec::OnOffBurst { on_mean_secs, off_mean_secs, dwell } => {
            let d = match dwell {
                Dwell::Exponential => "exp".to_string(),
                Dwell::Pareto { shape } => format!("pareto{shape}"),
            };
            let _ = write!(out, "onoff({d},{on_mean_secs}/{off_mean_secs}s)");
        }
    }
}

fn size_label(out: &mut String, s: &SizeSpec) {
    match s {
        SizeSpec::Fixed => out.push_str("fixed"),
        SizeSpec::Uniform { lo, hi } => {
            let _ = write!(out, "uniform({lo}..{hi})");
        }
        SizeSpec::Bimodal { small, large, p_small } => {
            let _ = write!(out, "bimodal({small}/{large},p={p_small})");
        }
    }
}

fn validate_dwell(d: &Dwell) -> Result<(), String> {
    match d {
        Dwell::Exponential => Ok(()),
        Dwell::Pareto { shape } => {
            if shape.is_finite() && *shape > 1.0 {
                Ok(())
            } else {
                Err(format!("Pareto dwell shape must be finite and > 1, got {shape}"))
            }
        }
    }
}

fn validate_arrival(a: &ArrivalSpec) -> Result<(), String> {
    match a {
        ArrivalSpec::Cbr | ArrivalSpec::Poisson => Ok(()),
        ArrivalSpec::OnOffBurst { on_mean_secs, off_mean_secs, dwell } => {
            for (name, v) in [("on", *on_mean_secs), ("off", *off_mean_secs)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{name} dwell mean must be finite and > 0, got {v}"));
                }
            }
            validate_dwell(dwell)
        }
    }
}

fn validate_size(s: &SizeSpec) -> Result<(), String> {
    match s {
        SizeSpec::Fixed => Ok(()),
        SizeSpec::Uniform { lo, hi } => {
            if *lo >= 1 && hi >= lo {
                Ok(())
            } else {
                Err(format!("uniform size needs 1 <= lo <= hi, got {lo}..{hi}"))
            }
        }
        SizeSpec::Bimodal { small, large, p_small } => {
            if *small < 1 || large < small {
                return Err(format!("bimodal size needs 1 <= small <= large, got {small}/{large}"));
            }
            if !(p_small.is_finite() && (0.0..=1.0).contains(p_small)) {
                return Err(format!("bimodal p_small must be in [0, 1], got {p_small}"));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_workload() {
        let spec = WorkloadSpec::default();
        assert!(spec.is_paper_default());
        assert_eq!(spec.label(), "poisson+fixed");
        spec.validate().unwrap();
    }

    #[test]
    fn non_defaults_are_detected() {
        let cbr = WorkloadSpec { arrival: ArrivalSpec::Cbr, size: SizeSpec::Fixed };
        assert!(!cbr.is_paper_default());
        let sized = WorkloadSpec {
            arrival: ArrivalSpec::Poisson,
            size: SizeSpec::Uniform { lo: 64, hi: 1460 },
        };
        assert!(!sized.is_paper_default());
    }

    #[test]
    fn labels_are_compact_and_deterministic() {
        let spec = WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Pareto { shape: 1.5 },
            },
            size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
        };
        assert_eq!(spec.label(), "onoff(pareto1.5,0.5/1.5s)+bimodal(40/1460,p=0.3)");
        let cbr = WorkloadSpec {
            arrival: ArrivalSpec::Cbr,
            size: SizeSpec::Uniform { lo: 64, hi: 1500 },
        };
        assert_eq!(cbr.label(), "cbr+uniform(64..1500)");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad = [
            WorkloadSpec {
                arrival: ArrivalSpec::OnOffBurst {
                    on_mean_secs: 0.0,
                    off_mean_secs: 1.0,
                    dwell: Dwell::Exponential,
                },
                size: SizeSpec::Fixed,
            },
            WorkloadSpec {
                arrival: ArrivalSpec::OnOffBurst {
                    on_mean_secs: 1.0,
                    off_mean_secs: 1.0,
                    dwell: Dwell::Pareto { shape: 1.0 },
                },
                size: SizeSpec::Fixed,
            },
            WorkloadSpec {
                arrival: ArrivalSpec::Poisson,
                size: SizeSpec::Uniform { lo: 100, hi: 50 },
            },
            WorkloadSpec {
                arrival: ArrivalSpec::Poisson,
                size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 1.5 },
            },
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?} should not validate");
        }
    }
}
