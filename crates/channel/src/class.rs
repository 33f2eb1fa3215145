//! The four ABICM channel quality classes.

use std::fmt;

/// Channel quality class after adaptive coding and modulation (§II.A).
///
/// Ordering: `A` is the best class; `A < B < C < D` in the derived `Ord`
/// (i.e. *smaller is better*, matching the CSI hop distance metric).
///
/// ```
/// use rica_channel::ChannelClass;
/// assert_eq!(ChannelClass::A.rate_kbps(), 250.0);
/// assert!((ChannelClass::B.csi_hops() - 1.67).abs() < 0.01);
/// assert!(ChannelClass::A < ChannelClass::D);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelClass {
    /// 250 kbps — CSI hop distance 1.
    A,
    /// 150 kbps — CSI hop distance 1.67.
    B,
    /// 75 kbps — CSI hop distance 3.33.
    C,
    /// 50 kbps — CSI hop distance 5.
    D,
}

impl ChannelClass {
    /// All classes, best first.
    pub const ALL: [ChannelClass; 4] =
        [ChannelClass::A, ChannelClass::B, ChannelClass::C, ChannelClass::D];

    /// Effective link throughput in kbit/s.
    #[inline]
    pub fn rate_kbps(self) -> f64 {
        match self {
            ChannelClass::A => 250.0,
            ChannelClass::B => 150.0,
            ChannelClass::C => 75.0,
            ChannelClass::D => 50.0,
        }
    }

    /// Effective link throughput in bit/s.
    #[inline]
    pub fn rate_bps(self) -> f64 {
        self.rate_kbps() * 1000.0
    }

    /// CSI-based hop distance (§II.A): the transmission delay of this class
    /// relative to class A, i.e. `250 kbps / rate`.
    ///
    /// Class A = 1 hop, B = 1.67, C = 3.33, D = 5 — exactly the paper's
    /// route metric.
    #[inline]
    pub fn csi_hops(self) -> f64 {
        250.0 / self.rate_kbps()
    }

    /// Time to transmit `bits` over a link of this class, in seconds.
    #[inline]
    pub fn tx_secs(self, bits: u64) -> f64 {
        bits as f64 / self.rate_bps()
    }

    /// Numeric quality level: A = 0 (best) … D = 3 (worst). Useful for
    /// hysteresis comparisons ("changed by ≥ k classes").
    #[inline]
    pub fn level(self) -> u8 {
        match self {
            ChannelClass::A => 0,
            ChannelClass::B => 1,
            ChannelClass::C => 2,
            ChannelClass::D => 3,
        }
    }

    /// Classifies a composite SNR (dB) against per-class thresholds
    /// `[θ_A, θ_B, θ_C]`: SNR ≥ θ_A → A, ≥ θ_B → B, ≥ θ_C → C, else D.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the thresholds are not non-increasing.
    #[inline]
    pub fn from_snr_db(snr_db: f64, thresholds: [f64; 3]) -> ChannelClass {
        debug_assert!(
            thresholds[0] >= thresholds[1] && thresholds[1] >= thresholds[2],
            "class thresholds must be non-increasing: {thresholds:?}"
        );
        if snr_db >= thresholds[0] {
            ChannelClass::A
        } else if snr_db >= thresholds[1] {
            ChannelClass::B
        } else if snr_db >= thresholds[2] {
            ChannelClass::C
        } else {
            ChannelClass::D
        }
    }
}

impl fmt::Display for ChannelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            ChannelClass::A => 'A',
            ChannelClass::B => 'B',
            ChannelClass::C => 'C',
            ChannelClass::D => 'D',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates() {
        let rates: Vec<f64> = ChannelClass::ALL.iter().map(|c| c.rate_kbps()).collect();
        assert_eq!(rates, vec![250.0, 150.0, 75.0, 50.0]);
    }

    #[test]
    fn paper_csi_hop_distances() {
        assert_eq!(ChannelClass::A.csi_hops(), 1.0);
        assert!((ChannelClass::B.csi_hops() - 5.0 / 3.0).abs() < 1e-12);
        assert!((ChannelClass::C.csi_hops() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(ChannelClass::D.csi_hops(), 5.0);
    }

    #[test]
    fn tx_time_of_paper_data_packet() {
        // 512-byte packet on a class-A link: 4096 bits / 250 kbps = 16.384 ms.
        let secs = ChannelClass::A.tx_secs(4096);
        assert!((secs - 0.016384).abs() < 1e-12);
        // Class D is exactly 5x slower.
        assert!((ChannelClass::D.tx_secs(4096) - 5.0 * secs).abs() < 1e-12);
    }

    #[test]
    fn snr_classification_boundaries() {
        let th = [0.0, -8.0, -15.0];
        assert_eq!(ChannelClass::from_snr_db(10.0, th), ChannelClass::A);
        assert_eq!(ChannelClass::from_snr_db(0.0, th), ChannelClass::A);
        assert_eq!(ChannelClass::from_snr_db(-0.001, th), ChannelClass::B);
        assert_eq!(ChannelClass::from_snr_db(-8.0, th), ChannelClass::B);
        assert_eq!(ChannelClass::from_snr_db(-8.001, th), ChannelClass::C);
        assert_eq!(ChannelClass::from_snr_db(-15.0, th), ChannelClass::C);
        assert_eq!(ChannelClass::from_snr_db(-15.001, th), ChannelClass::D);
        assert_eq!(ChannelClass::from_snr_db(f64::NEG_INFINITY, th), ChannelClass::D);
    }

    #[test]
    fn ordering_best_first() {
        let mut v = vec![ChannelClass::D, ChannelClass::A, ChannelClass::C, ChannelClass::B];
        v.sort();
        assert_eq!(v, ChannelClass::ALL.to_vec());
    }

    #[test]
    fn display() {
        let s: String = ChannelClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(s, "ABCD");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Higher SNR never yields a worse class (monotonicity).
        #[test]
        fn class_monotone_in_snr(a in -60.0f64..40.0, b in -60.0f64..40.0) {
            let th = [0.0, -8.0, -15.0];
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let c_lo = ChannelClass::from_snr_db(lo, th);
            let c_hi = ChannelClass::from_snr_db(hi, th);
            // Ord: A < D, so better SNR => class <= worse class.
            prop_assert!(c_hi <= c_lo);
        }

        /// csi_hops is exactly the delay ratio to class A.
        #[test]
        fn csi_hops_is_delay_ratio(bits in 1u64..100_000) {
            for c in ChannelClass::ALL {
                let ratio = c.tx_secs(bits) / ChannelClass::A.tx_secs(bits);
                prop_assert!((ratio - c.csi_hops()).abs() < 1e-9);
            }
        }
    }
}
