//! Protocol parameters: the paper's fixed values as constants, and the
//! six values an experiment varies as [`ProtocolConfig`] fields.
//!
//! Values are the paper's where the paper states one (§II–III), and
//! engineering choices documented on each item otherwise.

use rica_sim::SimDuration;

// ---- data plane (§III.A) ----

/// Per-connection data buffer capacity, in packets (paper: 10).
pub const LINK_QUEUE_CAP: usize = 10;
/// Maximum buffer residency before a packet is discarded (paper: 3 s).
pub const MAX_QUEUE_RESIDENCY: SimDuration = SimDuration::from_secs(3);
/// Capacity of the source-side buffer of packets awaiting a route.
pub const PENDING_CAP: usize = 64;
/// Per-hop data retransmission limit before the link is declared broken.
pub const DATA_RETRY_LIMIT: u32 = 3;

// ---- shared discovery machinery ----

/// How long a destination collects RREQs/BQs before replying to the best
/// (RICA/BGCA/ABR; AODV replies to the first immediately).
pub const REPLY_WINDOW: SimDuration = SimDuration::from_millis(40);
/// RREQ retry timeout when no reply arrives.
pub const RREQ_RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(250);
/// Maximum RREQ retries per discovery episode.
pub const RREQ_MAX_RETRIES: u32 = 3;
/// Idle timeout after which a route entry expires (paper: ~1 s for
/// RICA's abandoned routes; AODV uses [`AODV_ROUTE_TIMEOUT`]).
pub const ROUTE_IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(1);

// ---- RICA (§II.C–D) ----

/// A flow with no data for this long stops its destination's CSI
/// broadcasts.
pub const FLOW_IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

// ---- AODV ----

/// Active route timeout (idle expiry) for AODV entries.
pub const AODV_ROUTE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

// ---- ABR ----

/// Beacon period for associativity ticks / link-state sensing.
pub const BEACON_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Ticks above which a link counts as stable (associativity threshold).
pub const ABR_STABILITY_TICKS: u32 = 4;
/// Missed beacons before a neighbour is considered gone.
pub const BEACON_LOSS_LIMIT: u32 = 2;

// ---- local repair (ABR LQ / BGCA guarded query) ----

/// TTL slack added to the remaining-hops estimate for local queries.
pub const LQ_TTL_SLACK: u8 = 1;
/// How long the repairing terminal waits for an LQ reply.
pub const LQ_TIMEOUT: SimDuration = SimDuration::from_millis(300);

// ---- BGCA ----

/// Period of BGCA's on-route link monitoring.
pub const BGCA_MONITOR_PERIOD: SimDuration = SimDuration::from_millis(100);
/// Minimum spacing between guarded-query repairs of one flow at one
/// terminal (prevents a persistently faded link from flooding a query
/// every monitor tick).
pub const BGCA_REPAIR_COOLDOWN: SimDuration = SimDuration::from_secs(3);

// ---- link state ----

/// How often a link-state terminal samples the CSI of its adjacencies
/// ("when the mobile terminal finds the bandwidth with its neighbor
/// changes ... it floods this change", §III.A).
pub const LS_SAMPLE_PERIOD: SimDuration = SimDuration::from_millis(250);
/// Minimum interval between LSU floods originated by one terminal
/// (change aggregation).
pub const LS_MIN_FLOOD_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Class-level hysteresis: a pure CSI change is flooded only when the
/// measured class differs from the advertised one by at least this many
/// levels (link up/down always floods). Keeps the static-network LSU
/// rate near the paper's Figure 4 baseline.
pub const LS_CLASS_HYSTERESIS: u8 = 2;

/// The protocol parameters an experiment varies: the RICA and BGCA design
/// knobs the `figures` ablation sweeps, and the offered rate the BGCA guard
/// protects. Everything else is a constant of this module.
///
/// Construct with [`ProtocolConfig::default`] and override fields:
///
/// ```
/// use rica_net::ProtocolConfig;
/// use rica_sim::SimDuration;
///
/// let cfg = ProtocolConfig {
///     csi_check_period: SimDuration::from_millis(500),
///     ..ProtocolConfig::default()
/// };
/// assert_eq!(cfg.selection_window, SimDuration::from_millis(40));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// The source's combining window after a route-candidate packet arrives
    /// (paper: 40 ms, §II.D).
    pub selection_window: SimDuration,
    /// Period of the destination's CSI checking broadcasts (paper: 1 s).
    pub csi_check_period: SimDuration,
    /// Extra TTL added to the known topological hop distance when flooding
    /// CSI checks. The paper sets TTL to exactly the known hop distance of
    /// the *current* path; one hop of margin lets the wave reach candidate
    /// routes slightly longer than the current one (and reproduces the
    /// paper's Figure 4 overhead magnitudes). Set to 0 for the strict
    /// paper behaviour; the ablation sweeps this.
    pub csi_ttl_margin: u8,
    /// How long a possible-route entry remains promotable by a RUPD or an
    /// update-flagged data packet. The paper's 100 ms PN window (how long
    /// an overhearing terminal keeps detecting an unused PN code) is too
    /// strict once source-side queueing delays exceed it (promotion at the
    /// second hop onwards would almost always fail); entries stay
    /// promotable for one CSI-check period — i.e. while they belong to the
    /// current wave. A deliberate deviation from the paper (PAPER.md).
    pub rica_promotion_window: SimDuration,
    /// Guard factor: repair triggers when a link's class rate falls below
    /// `guard_factor × offered flow rate`.
    pub bgca_guard_factor: f64,
    /// The per-flow offered rate (kbps) the guard protects. The paper's
    /// traffic model makes this known a priori ("the bandwidth requirement
    /// of the traffics"); the harness sets it from the scenario load
    /// (10 pkt/s × 536 B ≈ 42.9 kbps).
    pub bgca_flow_offered_kbps: f64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            selection_window: SimDuration::from_millis(40),
            csi_check_period: SimDuration::from_secs(1),
            csi_ttl_margin: 1,
            rica_promotion_window: SimDuration::from_secs(1),
            bgca_guard_factor: 1.5,
            bgca_flow_offered_kbps: 42.88,
        }
    }
}

impl ProtocolConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if self.csi_check_period == SimDuration::ZERO {
            return Err("csi_check_period must be > 0".into());
        }
        if !(self.bgca_guard_factor.is_finite() && self.bgca_guard_factor > 0.0) {
            return Err(format!("bgca_guard_factor must be > 0, got {}", self.bgca_guard_factor));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = ProtocolConfig::default();
        cfg.validate().unwrap();
        assert_eq!(LINK_QUEUE_CAP, 10);
        assert_eq!(MAX_QUEUE_RESIDENCY, SimDuration::from_secs(3));
        assert_eq!(cfg.csi_check_period, SimDuration::from_secs(1));
        assert_eq!(cfg.selection_window, SimDuration::from_millis(40));
        assert_eq!(cfg.csi_ttl_margin, 1);
    }

    #[test]
    fn invalid_rejected() {
        let mut cfg = ProtocolConfig::default();
        cfg.bgca_guard_factor = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::default();
        cfg.csi_check_period = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
    }
}
