//! Channel model parameters and their calibration.

/// How faithfully the channel realises its stochastic processes.
///
/// * [`ChannelFidelity::Exact`] (the default) is the reproduction tier:
///   Box–Muller innovations, exact-bits OU decay coefficients. Every
///   golden hash in the workspace is pinned over this tier, and any
///   change that perturbs even one bit of an Exact realisation is a
///   regression.
/// * [`ChannelFidelity::Approx`] is the throughput tier: ziggurat
///   innovations ([`rica_sim::Rng::normal_ziggurat`]), reception-`dt`
///   quantised to a geometric grid so the decay cache hits ~100%
///   (see `rica_channel::quantise_dt`). It realises a *different but
///   statistically equivalent* trajectory: the equivalence gate
///   (`tests/approx_equivalence.rs`) holds class dwell times, transition
///   rates and delivery/latency aggregates within confidence bounds of
///   Exact, and the Approx tier pins its own goldens.
///
/// Use Exact for reproduction claims and regression pinning; use Approx
/// for capacity planning, wide sweeps and scenario exploration where
/// distributional fidelity is what matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelFidelity {
    /// Bit-pinned reproduction tier (Box–Muller, exact decay bits).
    #[default]
    Exact,
    /// Statistically-equivalent fast tier (ziggurat, quantised decay).
    Approx,
}

impl ChannelFidelity {
    /// Stable lower-case label used in artifacts and bench names.
    pub fn name(self) -> &'static str {
        match self {
            ChannelFidelity::Exact => "exact",
            ChannelFidelity::Approx => "approx",
        }
    }
}

/// Radio transmission range in metres (paper: 250 m, §III.A). Beyond this
/// there is no link at all; the common channel's carrier sense and
/// reception (`rica_mac::CommonMedium`) use the same range.
pub const TX_RANGE_M: f64 = 250.0;
/// Mean SNR (dB) at the reference distance.
pub const REF_GAIN_DB: f64 = 30.0;
/// Reference distance (m) for the path-loss law.
pub const REF_DISTANCE_M: f64 = 10.0;
/// Path-loss exponent `n` (urban microcell ≈ 3–4).
pub const PATH_LOSS_EXP: f64 = 3.5;
/// Shadowing coherence time constant (s).
pub const SHADOW_TAU_S: f64 = 15.0;
/// Fading coherence time constant (s). Calibrated ≈ 1.5 s so class dwell
/// times match the paper's 1 s CSI-checking period.
pub const FADE_TAU_S: f64 = 1.5;
/// Class thresholds `[θ_A, θ_B, θ_C]` in dB: SNR ≥ θ_A → A, ≥ θ_B → B,
/// ≥ θ_C → C, else D.
pub const CLASS_THRESHOLDS_DB: [f64; 3] = [0.0, -8.0, -15.0];

/// Mean (path-loss only) SNR in dB at distance `d` metres.
///
/// Distances below [`REF_DISTANCE_M`] are clamped to it (near-field
/// saturation).
pub(crate) fn mean_snr_db(d: f64) -> f64 {
    let d = d.max(REF_DISTANCE_M);
    REF_GAIN_DB - 10.0 * PATH_LOSS_EXP * (d / REF_DISTANCE_M).log10()
}

/// The channel parameters an experiment varies: the two fading strengths
/// (zeroed for a deterministic channel) and the realisation tier.
///
/// The defaults reproduce the paper's environment (§II.A, §III.A): fading
/// and shadowing in the dB domain over the constants above ([`TX_RANGE_M`]
/// radio range, path loss, coherence times), with thresholds calibrated so
/// that short links are predominantly class A while links near the range
/// edge are predominantly C/D. See the crate-level docs for the model
/// equations and the calibration rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Standard deviation of the log-normal shadowing component (dB).
    pub shadow_sigma_db: f64,
    /// Standard deviation of the (slow) fading component the class tracking
    /// sees (dB). Sub-coherence fast fading is absorbed by the ABICM modem.
    pub fade_sigma_db: f64,
    /// Realisation fidelity tier (see [`ChannelFidelity`]). Defaults to
    /// [`ChannelFidelity::Exact`], which all pre-existing goldens pin.
    pub fidelity: ChannelFidelity,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            shadow_sigma_db: 6.0,
            fade_sigma_db: 4.0,
            fidelity: ChannelFidelity::default(),
        }
    }
}

impl ChannelConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.shadow_sigma_db >= 0.0 && self.fade_sigma_db >= 0.0) {
            return Err("sigma values must be >= 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ChannelConfig::default().validate().unwrap();
    }

    #[test]
    fn mean_snr_decreases_with_distance() {
        let mut prev = f64::INFINITY;
        for d in [10.0, 50.0, 100.0, 150.0, 200.0, 250.0] {
            let snr = mean_snr_db(d);
            assert!(snr < prev, "snr({d}) = {snr} not < {prev}");
            prev = snr;
        }
    }

    #[test]
    fn near_field_clamps() {
        assert_eq!(mean_snr_db(1.0), mean_snr_db(10.0));
        assert_eq!(mean_snr_db(10.0), REF_GAIN_DB);
    }

    #[test]
    fn calibration_matches_design_doc() {
        // Mean SNR anchors of the path-loss model at 50, 100 and 250 m
        // (the radio range of §III.A, see PAPER.md).
        assert!((mean_snr_db(50.0) - 5.53).abs() < 0.1);
        assert!((mean_snr_db(100.0) - -5.0).abs() < 0.1);
        assert!((mean_snr_db(TX_RANGE_M) - -18.94).abs() < 0.1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ChannelConfig::default();
        cfg.fade_sigma_db = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ChannelConfig::default();
        cfg.shadow_sigma_db = f64::NAN;
        assert!(cfg.validate().is_err());
    }
}
