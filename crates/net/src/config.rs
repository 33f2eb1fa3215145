//! Protocol constants, with the paper's values as defaults.

use rica_sim::SimDuration;

/// Every tunable constant of the five protocols and the data plane.
///
/// Defaults are the paper's values where the paper states one (§II–III),
/// and engineering choices documented on each field otherwise.
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
/// assert_eq!(cfg.link_queue_cap, 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    // ---- data plane (§III.A) ----
    /// Per-connection data buffer capacity, in packets (paper: 10).
    pub link_queue_cap: usize,
    /// Maximum buffer residency before a packet is discarded (paper: 3 s).
    pub max_queue_residency: SimDuration,
    /// Capacity of the source-side buffer of packets awaiting a route.
    pub pending_cap: usize,
    /// Per-hop data retransmission limit before the link is declared broken.
    pub data_retry_limit: u32,

    // ---- shared discovery machinery ----
    /// How long a destination collects RREQs/BQs before replying to the best
    /// (RICA/BGCA/ABR; AODV replies to the first immediately).
    pub reply_window: SimDuration,
    /// The source's combining window after a route-candidate packet arrives
    /// (paper: 40 ms, §II.D).
    pub selection_window: SimDuration,
    /// RREQ retry timeout when no reply arrives.
    pub rreq_retry_timeout: SimDuration,
    /// Maximum RREQ retries per discovery episode.
    pub rreq_max_retries: u32,
    /// Idle timeout after which a route entry expires (paper: ~1 s for
    /// RICA's abandoned routes; AODV uses [`ProtocolConfig::aodv_route_timeout`]).
    pub route_idle_timeout: SimDuration,

    // ---- RICA (§II.C–D) ----
    /// Period of the destination's CSI checking broadcasts (paper: 1 s).
    pub csi_check_period: SimDuration,
    /// Extra TTL added to the known topological hop distance when flooding
    /// CSI checks. The paper sets TTL to exactly the known hop distance of
    /// the *current* path; one hop of margin lets the wave reach candidate
    /// routes slightly longer than the current one (and reproduces the
    /// paper's Figure 4 overhead magnitudes). Set to 0 for the strict
    /// paper behaviour; the ablation bench sweeps this.
    pub csi_ttl_margin: u8,
    /// How long an overhearing terminal keeps detecting an unused PN code
    /// before invalidating the possible route entry (paper: 100 ms).
    pub pn_detect_window: SimDuration,
    /// How long a possible-route entry remains promotable by a RUPD or an
    /// update-flagged data packet. The paper's 100 ms PN window is too
    /// strict once source-side queueing delays exceed it (promotion at the
    /// second hop onwards would almost always fail); entries stay
    /// promotable for one CSI-check period — i.e. while they belong to the
    /// current wave. A deliberate deviation from the paper (PAPER.md).
    pub rica_promotion_window: SimDuration,
    /// A flow with no data for this long stops its destination's CSI
    /// broadcasts.
    pub flow_idle_timeout: SimDuration,

    // ---- AODV ----
    /// Active route timeout (idle expiry) for AODV entries.
    pub aodv_route_timeout: SimDuration,

    // ---- ABR ----
    /// Beacon period for associativity ticks / link-state sensing.
    pub beacon_period: SimDuration,
    /// Ticks above which a link counts as stable (associativity threshold).
    pub abr_stability_ticks: u32,
    /// Missed beacons before a neighbour is considered gone.
    pub beacon_loss_limit: u32,

    // ---- local repair (ABR LQ / BGCA guarded query) ----
    /// TTL slack added to the remaining-hops estimate for local queries.
    pub lq_ttl_slack: u8,
    /// How long the repairing terminal waits for an LQ reply.
    pub lq_timeout: SimDuration,

    // ---- BGCA ----
    /// Guard factor: repair triggers when a link's class rate falls below
    /// `guard_factor × offered flow rate`.
    pub bgca_guard_factor: f64,
    /// Period of BGCA's on-route link monitoring.
    pub bgca_monitor_period: SimDuration,
    /// Minimum spacing between guarded-query repairs of one flow at one
    /// terminal (prevents a persistently faded link from flooding a query
    /// every monitor tick).
    pub bgca_repair_cooldown: SimDuration,
    /// The per-flow offered rate (kbps) the guard protects. The paper's
    /// traffic model makes this known a priori ("the bandwidth requirement
    /// of the traffics"); the harness sets it from the scenario load
    /// (10 pkt/s × 536 B ≈ 42.9 kbps).
    pub bgca_flow_offered_kbps: f64,

    // ---- link state ----
    /// How often a link-state terminal samples the CSI of its adjacencies
    /// ("when the mobile terminal finds the bandwidth with its neighbor
    /// changes ... it floods this change", §III.A).
    pub ls_sample_period: SimDuration,
    /// Minimum interval between LSU floods originated by one terminal
    /// (change aggregation).
    pub ls_min_flood_interval: SimDuration,
    /// Class-level hysteresis: a pure CSI change is flooded only when the
    /// measured class differs from the advertised one by at least this many
    /// levels (link up/down always floods). Keeps the static-network LSU
    /// rate near the paper's Figure 4 baseline.
    pub ls_class_hysteresis: u8,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            link_queue_cap: 10,
            max_queue_residency: SimDuration::from_secs(3),
            pending_cap: 64,
            data_retry_limit: 3,
            reply_window: SimDuration::from_millis(40),
            selection_window: SimDuration::from_millis(40),
            rreq_retry_timeout: SimDuration::from_millis(250),
            rreq_max_retries: 3,
            route_idle_timeout: SimDuration::from_secs(1),
            csi_check_period: SimDuration::from_secs(1),
            csi_ttl_margin: 1,
            pn_detect_window: SimDuration::from_millis(100),
            rica_promotion_window: SimDuration::from_secs(1),
            flow_idle_timeout: SimDuration::from_secs(3),
            aodv_route_timeout: SimDuration::from_secs(3),
            beacon_period: SimDuration::from_secs(1),
            abr_stability_ticks: 4,
            beacon_loss_limit: 2,
            lq_ttl_slack: 1,
            lq_timeout: SimDuration::from_millis(300),
            bgca_guard_factor: 1.5,
            bgca_monitor_period: SimDuration::from_millis(100),
            bgca_repair_cooldown: SimDuration::from_secs(3),
            bgca_flow_offered_kbps: 42.88,
            ls_sample_period: SimDuration::from_millis(250),
            ls_min_flood_interval: SimDuration::from_millis(250),
            ls_class_hysteresis: 2,
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
        if self.link_queue_cap == 0 {
            return Err("link_queue_cap must be > 0".into());
        }
        if self.pending_cap == 0 {
            return Err("pending_cap must be > 0".into());
        }
        if self.csi_check_period == SimDuration::ZERO {
            return Err("csi_check_period must be > 0".into());
        }
        if self.beacon_period == SimDuration::ZERO {
            return Err("beacon_period must be > 0".into());
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
        assert_eq!(cfg.link_queue_cap, 10);
        assert_eq!(cfg.max_queue_residency, SimDuration::from_secs(3));
        assert_eq!(cfg.csi_check_period, SimDuration::from_secs(1));
        assert_eq!(cfg.selection_window, SimDuration::from_millis(40));
        assert_eq!(cfg.pn_detect_window, SimDuration::from_millis(100));
        assert_eq!(cfg.csi_ttl_margin, 1);
    }

    #[test]
    fn invalid_rejected() {
        let mut cfg = ProtocolConfig::default();
        cfg.link_queue_cap = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::default();
        cfg.bgca_guard_factor = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::default();
        cfg.csi_check_period = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
    }
}
