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
///   (see `rica_channel::quantise_dt`), and batched per-pair draws in the
///   broadcast fan-out. It realises a *different but statistically
///   equivalent* trajectory: the equivalence gate
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
    /// Statistically-equivalent fast tier (ziggurat, quantised decay,
    /// batched fan-out draws).
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

/// Parameters of the composite SNR process and the class mapping.
///
/// The defaults reproduce the paper's environment (§II.A, §III.A): a 250 m
/// radio range, fading and shadowing in the dB domain, and thresholds
/// calibrated so that short links are predominantly class A while links near
/// the range edge are predominantly C/D. See the crate-level docs for the
/// model equations and the calibration rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Radio transmission range in metres (paper: 250 m). Beyond this there
    /// is no link at all.
    pub tx_range_m: f64,
    /// Mean SNR (dB) at the reference distance.
    pub ref_gain_db: f64,
    /// Reference distance (m) for the path-loss law.
    pub ref_distance_m: f64,
    /// Path-loss exponent `n` (urban microcell ≈ 3–4).
    pub path_loss_exp: f64,
    /// Standard deviation of the log-normal shadowing component (dB).
    pub shadow_sigma_db: f64,
    /// Shadowing coherence time constant (s).
    pub shadow_tau_s: f64,
    /// Standard deviation of the (slow) fading component the class tracking
    /// sees (dB). Sub-coherence fast fading is absorbed by the ABICM modem.
    pub fade_sigma_db: f64,
    /// Fading coherence time constant (s). Calibrated ≈ 1.5 s so class dwell
    /// times match the paper's 1 s CSI-checking period.
    pub fade_tau_s: f64,
    /// Class thresholds `[θ_A, θ_B, θ_C]` in dB: SNR ≥ θ_A → A, ≥ θ_B → B,
    /// ≥ θ_C → C, else D.
    pub class_thresholds_db: [f64; 3],
    /// Realisation fidelity tier (see [`ChannelFidelity`]). Defaults to
    /// [`ChannelFidelity::Exact`], which all pre-existing goldens pin.
    pub fidelity: ChannelFidelity,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            tx_range_m: 250.0,
            ref_gain_db: 30.0,
            ref_distance_m: 10.0,
            path_loss_exp: 3.5,
            shadow_sigma_db: 6.0,
            shadow_tau_s: 15.0,
            fade_sigma_db: 4.0,
            fade_tau_s: 1.5,
            class_thresholds_db: [0.0, -8.0, -15.0],
            fidelity: ChannelFidelity::default(),
        }
    }
}

impl ChannelConfig {
    /// Mean (path-loss only) SNR in dB at distance `d` metres.
    ///
    /// Distances below the reference distance are clamped to it (near-field
    /// saturation).
    pub fn mean_snr_db(&self, d: f64) -> f64 {
        let d = d.max(self.ref_distance_m);
        self.ref_gain_db - 10.0 * self.path_loss_exp * (d / self.ref_distance_m).log10()
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.tx_range_m.is_finite() && self.tx_range_m > 0.0) {
            return Err(format!("tx_range_m must be > 0, got {}", self.tx_range_m));
        }
        if !(self.ref_distance_m.is_finite() && self.ref_distance_m > 0.0) {
            return Err(format!("ref_distance_m must be > 0, got {}", self.ref_distance_m));
        }
        if !(self.path_loss_exp.is_finite() && self.path_loss_exp >= 1.0) {
            return Err(format!("path_loss_exp must be >= 1, got {}", self.path_loss_exp));
        }
        if !(self.shadow_sigma_db >= 0.0 && self.fade_sigma_db >= 0.0) {
            return Err("sigma values must be >= 0".into());
        }
        if !(self.shadow_tau_s > 0.0 && self.fade_tau_s > 0.0) {
            return Err("tau values must be > 0".into());
        }
        let [a, b, c] = self.class_thresholds_db;
        if !(a >= b && b >= c) {
            return Err(format!(
                "class thresholds must be non-increasing, got {:?}",
                self.class_thresholds_db
            ));
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
        let cfg = ChannelConfig::default();
        let mut prev = f64::INFINITY;
        for d in [10.0, 50.0, 100.0, 150.0, 200.0, 250.0] {
            let snr = cfg.mean_snr_db(d);
            assert!(snr < prev, "snr({d}) = {snr} not < {prev}");
            prev = snr;
        }
    }

    #[test]
    fn near_field_clamps() {
        let cfg = ChannelConfig::default();
        assert_eq!(cfg.mean_snr_db(1.0), cfg.mean_snr_db(10.0));
        assert_eq!(cfg.mean_snr_db(10.0), cfg.ref_gain_db);
    }

    #[test]
    fn calibration_matches_design_doc() {
        // Mean SNR anchors of the default path-loss model at 50, 100 and
        // 250 m (the radio range of §III.A, see PAPER.md).
        let cfg = ChannelConfig::default();
        assert!((cfg.mean_snr_db(50.0) - 5.53).abs() < 0.1);
        assert!((cfg.mean_snr_db(100.0) - -5.0).abs() < 0.1);
        assert!((cfg.mean_snr_db(250.0) - -18.94).abs() < 0.1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ChannelConfig::default();
        cfg.tx_range_m = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ChannelConfig::default();
        cfg.class_thresholds_db = [-15.0, -8.0, 0.0];
        assert!(cfg.validate().is_err());

        let mut cfg = ChannelConfig::default();
        cfg.fade_tau_s = 0.0;
        assert!(cfg.validate().is_err());
    }
}
