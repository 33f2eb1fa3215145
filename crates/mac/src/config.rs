//! MAC layer parameters.

use rica_sim::SimDuration;

/// Common channel bit rate (paper: 250 kbps, §III.A).
pub const COMMON_RATE_BPS: f64 = 250_000.0;
/// Random delay before the first attempt of a *broadcast* (flood
/// decorrelation; without it every rebroadcast of a flood collides).
pub const BROADCAST_JITTER: SimDuration = SimDuration::from_millis(8);
/// Random delay before the first attempt of a *unicast*.
pub const UNICAST_JITTER: SimDuration = SimDuration::from_millis(1);
/// Inter-frame spacing between consecutive transmissions of one node.
pub const IFS: SimDuration = SimDuration::from_micros(100);
/// Retransmission limit for unicast control packets that were not
/// received (collision); broadcasts are never retransmitted.
pub const CTRL_RETRY_LIMIT: u32 = 2;
/// Per-node outgoing control queue capacity; beyond it, new control
/// packets are dropped (the common channel is saturated).
pub const CTRL_QUEUE_CAP: usize = 50;
/// Maximum CSMA attempts (carrier-sense busy) before a control packet
/// is abandoned.
pub const MAX_ATTEMPTS: u32 = 8;

/// Airtime of `bits` on the common channel.
pub fn tx_duration(bits: u64) -> SimDuration {
    SimDuration::from_secs_f64(bits as f64 / COMMON_RATE_BPS)
}

/// The CSMA/CA contention window: the backoff after the k-th busy attempt
/// is uniform in `[0, min(slot · 2^k, cw_max))` (see
/// [`backoff_delay`](crate::backoff_delay)).
///
/// Defaults are standard engineering values. The common channel's other
/// parameters (§III.A: 250 kbps, 250 m radio range) and its CSMA timing
/// are the constants of this module.
#[derive(Debug, Clone, PartialEq)]
pub struct MacConfig {
    /// Base contention slot: backoff after the k-th busy attempt is uniform
    /// in `[0, min(slot · 2^k, cw_max))`.
    pub slot: SimDuration,
    /// Upper bound of the contention window.
    pub cw_max: SimDuration,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig { slot: SimDuration::from_micros(500), cw_max: SimDuration::from_millis(8) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_duration_is_bits_over_rate() {
        // A 24-byte RREQ: 192 bits / 250 kbps = 768 µs.
        assert_eq!(tx_duration(192), SimDuration::from_micros(768));
    }
}
