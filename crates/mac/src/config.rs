//! MAC layer parameters.

use rica_sim::SimDuration;

/// Parameters of the common channel and its CSMA/CA arbitration.
///
/// Defaults follow §III.A (250 kbps common channel, 250 m radio range);
/// the CSMA timing constants are standard engineering values, documented
/// on each field below.
#[derive(Debug, Clone, PartialEq)]
pub struct MacConfig {
    /// Common channel bit rate (paper: 250 kbps).
    pub common_rate_bps: f64,
    /// Radio range in metres, used for carrier sensing and reception
    /// (paper: 250 m).
    pub range_m: f64,
    /// Base contention slot: backoff after the k-th busy attempt is uniform
    /// in `[0, min(slot · 2^k, cw_max))`.
    pub slot: SimDuration,
    /// Upper bound of the contention window.
    pub cw_max: SimDuration,
    /// Random delay before the first attempt of a *broadcast* (flood
    /// decorrelation; without it every rebroadcast of a flood collides).
    pub broadcast_jitter: SimDuration,
    /// Random delay before the first attempt of a *unicast*.
    pub unicast_jitter: SimDuration,
    /// Inter-frame spacing between consecutive transmissions of one node.
    pub ifs: SimDuration,
    /// Retransmission limit for unicast control packets that were not
    /// received (collision); broadcasts are never retransmitted.
    pub ctrl_retry_limit: u32,
    /// Per-node outgoing control queue capacity; beyond it, new control
    /// packets are dropped (the common channel is saturated).
    pub ctrl_queue_cap: usize,
    /// Maximum CSMA attempts (carrier-sense busy) before a control packet
    /// is abandoned.
    pub max_attempts: u32,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            common_rate_bps: 250_000.0,
            range_m: 250.0,
            slot: SimDuration::from_micros(500),
            cw_max: SimDuration::from_millis(8),
            broadcast_jitter: SimDuration::from_millis(8),
            unicast_jitter: SimDuration::from_millis(1),
            ifs: SimDuration::from_micros(100),
            ctrl_retry_limit: 2,
            ctrl_queue_cap: 50,
            max_attempts: 8,
        }
    }
}

impl MacConfig {
    /// Airtime of `bits` on the common channel.
    pub fn tx_duration(&self, bits: u64) -> SimDuration {
        SimDuration::from_secs_f64(bits as f64 / self.common_rate_bps)
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.common_rate_bps.is_finite() && self.common_rate_bps > 0.0) {
            return Err(format!("common_rate_bps must be > 0, got {}", self.common_rate_bps));
        }
        if !(self.range_m.is_finite() && self.range_m > 0.0) {
            return Err(format!("range_m must be > 0, got {}", self.range_m));
        }
        if self.ctrl_queue_cap == 0 {
            return Err("ctrl_queue_cap must be > 0".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_valid_and_matches_paper() {
        let cfg = MacConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.common_rate_bps, 250_000.0);
        assert_eq!(cfg.range_m, 250.0);
    }

    #[test]
    fn tx_duration_is_bits_over_rate() {
        let cfg = MacConfig::default();
        // A 24-byte RREQ: 192 bits / 250 kbps = 768 µs.
        assert_eq!(cfg.tx_duration(192), SimDuration::from_micros(768));
    }

    #[test]
    fn invalid_rejected() {
        let mut cfg = MacConfig::default();
        cfg.common_rate_bps = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = MacConfig::default();
        cfg.ctrl_queue_cap = 0;
        assert!(cfg.validate().is_err());
    }
}
