//! Scenario description and protocol selection.

use rica_channel::ChannelConfig;
use rica_faults::FaultPlan;
use rica_net::{NodeId, ProtocolConfig, RoutingProtocol, DATA_HEADER_BYTES, DATA_PAYLOAD_BYTES};
use rica_sim::{Rng, SimDuration};
use rica_traffic::WorkloadSpec;

/// Which routing protocol a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// The paper's contribution (receiver-initiated channel adaptive).
    Rica,
    /// Bandwidth-guarded channel adaptive (the authors' earlier protocol).
    Bgca,
    /// Associativity-based routing.
    Abr,
    /// Ad hoc on-demand distance vector.
    Aodv,
    /// Proactive link-state with LSU flooding.
    LinkState,
}

impl ProtocolKind {
    /// All five protocols, in the paper's comparison order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Rica,
        ProtocolKind::Bgca,
        ProtocolKind::Abr,
        ProtocolKind::Aodv,
        ProtocolKind::LinkState,
    ];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Rica => "RICA",
            ProtocolKind::Bgca => "BGCA",
            ProtocolKind::Abr => "ABR",
            ProtocolKind::Aodv => "AODV",
            ProtocolKind::LinkState => "LinkState",
        }
    }

    /// Instantiates a fresh protocol state machine.
    pub fn make(self) -> Box<dyn RoutingProtocol> {
        match self {
            ProtocolKind::Rica => Box::new(rica_core::Rica::new()),
            ProtocolKind::Bgca => Box::new(rica_protocols::Bgca::new()),
            ProtocolKind::Abr => Box::new(rica_protocols::Abr::new()),
            ProtocolKind::Aodv => Box::new(rica_protocols::Aodv::new()),
            ProtocolKind::LinkState => Box::new(rica_protocols::LinkState::new()),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ProtocolKind {
    type Err = String;

    /// Parses a [`ProtocolKind::name`] in any case, or `ls` for
    /// [`ProtocolKind::LinkState`]; the error lists the valid names.
    fn from_str(s: &str) -> Result<ProtocolKind, String> {
        if s.eq_ignore_ascii_case("ls") {
            return Ok(ProtocolKind::LinkState);
        }
        ProtocolKind::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(s)).ok_or_else(|| {
            let names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown protocol {s:?}; expected one of {} (any case) or ls", names.join(", "))
        })
    }
}

/// One traffic flow: a source/destination pair with a mean rate, shaped by
/// [`Scenario::workload`] (a fixed size is [`DATA_PAYLOAD_BYTES`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Source terminal.
    pub src: NodeId,
    /// Destination terminal.
    pub dst: NodeId,
    /// Mean packet rate (packets/second). Every workload shape preserves
    /// this mean, so offered load is comparable across shapes.
    pub rate_pps: f64,
}

impl Flow {
    /// A flow from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId, rate_pps: f64) -> Flow {
        Flow { src, dst, rate_pps }
    }
}

/// A complete simulation configuration (§III.A defaults).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of terminals (paper: 50), moving over the paper's
    /// 1000 m × 1000 m field ([`rica_mobility::Field::PAPER`]) with a 3 s
    /// waypoint pause.
    pub nodes: usize,
    /// Mean terminal speed in km/h; each terminal draws leg speeds
    /// uniformly from `[0, 2 × mean]` (MAXSPEED = twice the mean).
    pub mean_speed_kmh: f64,
    /// Number of random distinct flows (paper: 10), each carrying
    /// [`DATA_PAYLOAD_BYTES`] payloads — ignored if `explicit_flows` is
    /// set.
    pub flows: usize,
    /// Per-flow packet rate (paper: 10 or 20 packets/s).
    pub rate_pps: f64,
    /// Workload shape applied to every flow (paper default: Poisson
    /// arrivals of fixed-size packets, which reproduces the legacy
    /// traffic stream bit for bit).
    pub workload: WorkloadSpec,
    /// Explicit flow list (overrides random flow selection).
    pub explicit_flows: Option<Vec<Flow>>,
    /// Pins every terminal to a fixed position (tests/examples needing an
    /// exact topology). Length must equal `nodes`; disables mobility.
    pub pinned_positions: Option<Vec<rica_mobility::Vec2>>,
    /// Declarative fault plan: crash–reboot events, churn, and
    /// partition-and-heal episodes. The default (empty) plan injects
    /// nothing and keeps the trial byte-identical to a fault-free run.
    pub faults: FaultPlan,
    /// Simulated duration (paper: 500 s).
    pub duration: SimDuration,
    /// Master seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Channel model parameters.
    pub channel: ChannelConfig,
    /// Protocol parameters (BGCA's offered-rate field is filled from
    /// `rate_pps` by [`ScenarioBuilder::build`]).
    pub protocol: ProtocolConfig,
}

impl Scenario {
    /// Starts building a scenario from the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Per-flow offered rate in kbps (payload + header), as the BGCA guard
    /// sees it.
    pub fn offered_kbps(&self) -> f64 {
        self.rate_pps * ((DATA_PAYLOAD_BYTES + DATA_HEADER_BYTES) as f64 * 8.0) / 1000.0
    }

    /// The flows of a trial: explicit if given, otherwise `flows` random
    /// distinct pairs drawn from the trial's seed stream.
    ///
    /// # Panics
    ///
    /// Panics without explicit flows if there are fewer than 2 nodes or
    /// more `flows` than ordered node pairs.
    pub fn trial_flows(&self, rng: &mut Rng) -> Vec<Flow> {
        if let Some(flows) = &self.explicit_flows {
            return flows.clone();
        }
        assert!(self.nodes >= 2, "need at least two nodes for a flow");
        // More flows than ordered pairs would redraw forever below.
        assert!(
            self.flows <= self.nodes.saturating_mul(self.nodes - 1),
            "{} flows exceed the distinct pairs of {} nodes",
            self.flows,
            self.nodes
        );
        let mut flows = Vec::with_capacity(self.flows);
        #[expect(
            clippy::disallowed_types,
            reason = "membership-only dedup of drawn (src,dst) pairs; never iterated — flow order comes from the rng draw sequence alone"
        )]
        let mut used = std::collections::HashSet::new();
        while flows.len() < self.flows {
            let src = rng.usize_below(self.nodes) as u32;
            let dst = rng.usize_below(self.nodes) as u32;
            if src == dst || !used.insert((src, dst)) {
                continue;
            }
            flows.push(Flow::new(NodeId(src), NodeId(dst), self.rate_pps));
        }
        flows
    }

    /// Runs a single trial with this scenario's base seed.
    pub fn run(&self, kind: ProtocolKind) -> rica_metrics::TrialSummary {
        crate::World::new(self, kind, self.seed).run()
    }

    /// Runs a single trial with an explicit seed.
    pub fn run_seeded(&self, kind: ProtocolKind, seed: u64) -> rica_metrics::TrialSummary {
        crate::World::new(self, kind, seed).run()
    }
}

/// Builder for [`Scenario`] (defaults = the paper's §III.A environment).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                nodes: 50,
                mean_speed_kmh: 36.0,
                flows: 10,
                rate_pps: 10.0,
                workload: WorkloadSpec::default(),
                explicit_flows: None,
                pinned_positions: None,
                faults: FaultPlan::default(),
                duration: SimDuration::from_secs(500),
                seed: 0,
                channel: ChannelConfig::default(),
                protocol: ProtocolConfig::default(),
            },
        }
    }
}

impl ScenarioBuilder {
    /// Sets the number of terminals.
    pub fn nodes(mut self, n: usize) -> Self {
        self.scenario.nodes = n;
        self
    }

    /// Sets the mean terminal speed (km/h); MAXSPEED is twice this.
    pub fn mean_speed_kmh(mut self, v: f64) -> Self {
        self.scenario.mean_speed_kmh = v;
        self
    }

    /// Sets the number of random flows.
    pub fn flows(mut self, n: usize) -> Self {
        self.scenario.flows = n;
        self
    }

    /// Sets the per-flow Poisson rate (packets/second).
    pub fn rate_pps(mut self, v: f64) -> Self {
        self.scenario.rate_pps = v;
        self
    }

    /// Sets the workload shape for every flow without a per-flow override
    /// (default: the paper's Poisson + fixed-size workload).
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.scenario.workload = spec;
        self
    }

    /// Uses an explicit flow list instead of random pairs.
    pub fn explicit_flows(mut self, flows: Vec<Flow>) -> Self {
        self.scenario.explicit_flows = Some(flows);
        self
    }

    /// Pins terminals to fixed positions (disables mobility).
    pub fn pinned_positions(mut self, positions: Vec<rica_mobility::Vec2>) -> Self {
        self.scenario.pinned_positions = Some(positions);
        self
    }

    /// Installs a declarative fault plan (crash–reboot, churn,
    /// partition-and-heal). See [`FaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.scenario.faults = plan;
        self
    }

    /// Sets the simulated duration in seconds.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.scenario.duration = SimDuration::from_secs_f64(secs);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Overrides the channel configuration.
    pub fn channel(mut self, cfg: ChannelConfig) -> Self {
        self.scenario.channel = cfg;
        self
    }

    /// Finalises the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (fewer than 2 nodes,
    /// zero duration, invalid sub-configs).
    pub fn build(self) -> Scenario {
        let mut s = self.scenario;
        assert!(s.nodes >= 2, "need at least 2 nodes");
        if let Some(ps) = &s.pinned_positions {
            assert_eq!(ps.len(), s.nodes, "one pinned position per node");
        }
        s.faults.validate(s.nodes).expect("invalid fault plan");
        assert!(s.duration > SimDuration::ZERO, "duration must be positive");
        // Finiteness matters — of the rate *and* its reciprocal (a
        // subnormal rate's mean gap overflows to inf): the generators'
        // release-build response to a degenerate rate is a silent
        // saturating gap (zero traffic), so the builder is where an
        // inf/NaN/subnormal rate must fail loudly.
        assert!(
            rica_sim::usable_mean_gap(s.rate_pps).is_some(),
            "rate must be positive and finite, got {}",
            s.rate_pps
        );
        s.workload.validate().expect("invalid workload spec");
        if let Some(flows) = &s.explicit_flows {
            for f in flows {
                assert!(
                    rica_sim::usable_mean_gap(f.rate_pps).is_some(),
                    "flow rate must be positive and finite, got {}",
                    f.rate_pps
                );
            }
        }
        s.channel.validate().expect("invalid channel config");
        // The BGCA guard protects the offered rate.
        s.protocol.bgca_flow_offered_kbps = s.offered_kbps();
        s.protocol.validate().expect("invalid protocol config");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let s = Scenario::builder().build();
        assert_eq!(s.nodes, 50);
        assert_eq!(s.flows, 10);
        assert_eq!(s.rate_pps, 10.0);
        assert_eq!(s.duration, SimDuration::from_secs(500));
    }

    #[test]
    fn offered_rate_feeds_bgca_guard() {
        let s = Scenario::builder().rate_pps(20.0).build();
        // 20 pps × 536 B × 8 = 85.76 kbps.
        assert!((s.offered_kbps() - 85.76).abs() < 1e-9);
        assert!((s.protocol.bgca_flow_offered_kbps - 85.76).abs() < 1e-9);
    }

    #[test]
    fn trial_flows_distinct_and_valid() {
        let s = Scenario::builder().nodes(10).flows(5).build();
        let mut rng = Rng::new(3);
        let flows = s.trial_flows(&mut rng);
        assert_eq!(flows.len(), 5);
        #[expect(
            clippy::disallowed_types,
            reason = "order-free duplicate detection in a test: only insert() return values are asserted"
        )]
        let mut seen = std::collections::HashSet::new();
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.src.index() < 10 && f.dst.index() < 10);
            assert!(seen.insert((f.src, f.dst)), "duplicate flow");
        }
    }

    #[test]
    #[should_panic(expected = "3 flows exceed the distinct pairs of 2 nodes")]
    fn more_flows_than_node_pairs_is_rejected() {
        let s = Scenario::builder().nodes(2).flows(3).build();
        s.trial_flows(&mut Rng::new(1));
    }

    #[test]
    fn explicit_flows_win() {
        let flows = vec![Flow::new(NodeId(0), NodeId(1), 5.0)];
        let s = Scenario::builder().nodes(4).explicit_flows(flows.clone()).build();
        let mut rng = Rng::new(1);
        assert_eq!(s.trial_flows(&mut rng), flows);
    }

    #[test]
    fn workload_defaults_to_the_paper_shape() {
        use rica_traffic::{ArrivalSpec, SizeSpec};
        let s = Scenario::builder().build();
        assert!(s.workload.is_paper_default());
        let bursty = WorkloadSpec { arrival: ArrivalSpec::Cbr, size: SizeSpec::Fixed };
        let s = Scenario::builder().workload(bursty.clone()).build();
        assert_eq!(s.workload, bursty);
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn bad_workload_rejected() {
        use rica_traffic::{ArrivalSpec, SizeSpec};
        Scenario::builder()
            .workload(WorkloadSpec {
                arrival: ArrivalSpec::Poisson,
                size: SizeSpec::Uniform { lo: 0, hi: 0 },
            })
            .build();
    }

    #[test]
    fn protocol_kinds_complete() {
        assert_eq!(ProtocolKind::ALL.len(), 5);
        let names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["RICA", "BGCA", "ABR", "AODV", "LinkState"]);
    }

    #[test]
    fn protocol_names_parse_in_any_case() {
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(kind.name().to_lowercase().parse(), Ok(kind));
            assert_eq!(kind.name().to_uppercase().parse(), Ok(kind));
        }
        assert_eq!("LS".parse(), Ok(ProtocolKind::LinkState));
        let err = "rcia".parse::<ProtocolKind>().unwrap_err();
        assert!(
            err.contains("\"rcia\"") && err.contains("RICA, BGCA, ABR, AODV, LinkState"),
            "{err}"
        );
        assert!("".parse::<ProtocolKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn one_node_rejected() {
        Scenario::builder().nodes(1).build();
    }

    #[test]
    fn degenerate_rates_rejected_at_build_time() {
        // Non-finite and subnormal rates must fail loudly here: the
        // generators' release-build fallback would otherwise silently
        // yield a zero-traffic trial.
        for rate in [f64::INFINITY, f64::NAN, 1e-320] {
            let result = std::panic::catch_unwind(|| Scenario::builder().rate_pps(rate).build());
            assert!(result.is_err(), "rate {rate} must be rejected");
        }
    }
}
