//! RICA's per-node routing state.

use rica_net::{FloodHistory, IdMap, KeyMap, NodeId};
use rica_sim::{SimDuration, SimTime};

/// A flow is identified by its (source, destination) pair, as in the paper
/// (route entries store "the source and destination addresses").
pub(crate) type FlowKey = (NodeId, NodeId);

/// An active route entry for one flow at one terminal (§II.B).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteEntry {
    /// Next hop towards the flow source (whence REERs are forwarded).
    /// `None` at the source itself.
    pub upstream: Option<NodeId>,
    /// Next hop towards the flow destination. `None` at the destination.
    pub downstream: Option<NodeId>,
    /// Last instant the entry forwarded (or initiated) traffic; entries
    /// idle longer than [`rica_net::ROUTE_IDLE_TIMEOUT`] expire (§II.C: "the original
    /// route at last automatically expires").
    pub last_used: SimTime,
}

impl RouteEntry {
    /// Whether the entry is still alive at `now` given the idle timeout.
    pub fn is_fresh(&self, now: SimTime, idle_timeout: SimDuration) -> bool {
        now.saturating_since(self.last_used) <= idle_timeout
    }
}

/// A *possible route* learned from the first copy of a CSI checking packet
/// (§II.C): the terminal remembers its possible downstream and starts
/// detecting the corresponding PN code for a limited window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PossibleRoute {
    /// The terminal this check was first received from — the possible next
    /// hop towards the destination.
    pub downstream: NodeId,
    /// When the entry was created (checks age out after the PN detection
    /// window unless promoted by a RUPD or an update-flagged data packet).
    pub set_at: SimTime,
    /// The CSI-check broadcast wave that created the entry.
    pub bcast_id: u64,
}

impl PossibleRoute {
    /// Whether the PN detection window is still open at `now`.
    pub fn is_fresh(&self, now: SimTime, detect_window: SimDuration) -> bool {
        now.saturating_since(self.set_at) <= detect_window
    }
}

/// A route candidate the source is currently weighing (from a CSI check or
/// a RREP) during the 40 ms combining window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    /// Neighbour to route through.
    pub via: NodeId,
    /// End-to-end CSI-based hop distance.
    pub metric: f64,
    /// Whether committing requires a RUPD (CSI-check candidates do; RREP
    /// candidates already installed entries along their path).
    pub needs_rupd: bool,
}

/// Source-side per-destination state.
#[derive(Debug, Default)]
pub(crate) struct SourceState {
    /// Current next hop, if a route is established.
    pub next_hop: Option<NodeId>,
    /// Open combining window: best candidate so far.
    pub window: Option<Candidate>,
    /// Last instant a CSI check for this flow reached us (REER arbitration,
    /// §II.D).
    pub last_csi_rx: Option<SimTime>,
    /// The next data packet sent must carry the route-update flag.
    pub send_update_flag: bool,
}

impl SourceState {
    /// Whether CSI checks for this flow are arriving: the last one came
    /// within 1.5 check periods, so the next wave (at most one period
    /// away) can be trusted to deliver a route (§II.D scenario 1).
    pub fn checks_flowing(&self, now: SimTime, period: SimDuration) -> bool {
        self.last_csi_rx.is_some_and(|t| now.saturating_since(t) <= period.mul_f64(1.5))
    }
}

/// Destination-side per-source state (the receiver initiates CSI checks).
#[derive(Debug)]
pub(crate) struct DestState {
    /// Topological hop distance of the current path, learned from delivered
    /// data packets' hop counters; used as the CSI-check TTL (§II.C: "the
    /// TTL field is set to the originally known hop distance (not based on
    /// CSI) of the path").
    pub known_topo_hops: u8,
    /// Next CSI-check broadcast id.
    pub next_bcast: u64,
    /// Whether the periodic CSI broadcast timer is armed.
    pub csi_timer_armed: bool,
    /// Last instant data for this flow arrived (idle flows stop checking).
    pub last_data_rx: SimTime,
}

impl DestState {
    pub fn new(now: SimTime) -> Self {
        DestState { known_topo_hops: 1, next_bcast: 0, csi_timer_armed: false, last_data_rx: now }
    }
}

/// All of RICA's per-node tables.
///
/// Flat (id-indexed / sorted-vec) storage: these tables are read or
/// written on every packet the node sees, and the flat containers keep
/// the exact `BTreeMap` iteration order the fixed-seed outputs depend
/// on while dropping the per-access pointer chase.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    /// Active route entries by flow.
    pub routes: KeyMap<FlowKey, RouteEntry>,
    /// Possible routes from CSI checks, by flow. An entry is replaced only
    /// by a later wave, so its `bcast_id` is the latest wave re-broadcast
    /// (the CSI-check dedup).
    pub possible: KeyMap<FlowKey, PossibleRoute>,
    /// RREQ floods already seen, per flow, with the reverse pointer
    /// towards the source.
    pub rreq_reverse: FloodHistory,
    /// Source-side state per destination.
    pub sources: IdMap<SourceState>,
    /// Destination-side state per source.
    pub dests: IdMap<DestState>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_entry_freshness() {
        let e = RouteEntry {
            upstream: None,
            downstream: Some(NodeId(1)),
            last_used: SimTime::from_secs_f64(10.0),
        };
        let timeout = SimDuration::from_secs(1);
        assert!(e.is_fresh(SimTime::from_secs_f64(10.5), timeout));
        assert!(e.is_fresh(SimTime::from_secs_f64(11.0), timeout), "exactly at limit");
        assert!(!e.is_fresh(SimTime::from_secs_f64(11.1), timeout));
    }

    #[test]
    fn possible_route_detect_window() {
        let p = PossibleRoute {
            downstream: NodeId(4),
            set_at: SimTime::from_secs_f64(1.0),
            bcast_id: 9,
        };
        let w = SimDuration::from_millis(100);
        assert!(p.is_fresh(SimTime::from_secs_f64(1.05), w));
        assert!(!p.is_fresh(SimTime::from_secs_f64(1.2), w));
    }
}
