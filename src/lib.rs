//! # rica-repro — a reproduction of RICA (ICDCS 2002)
//!
//! This is the facade crate of the workspace reproducing
//! *"RICA: A Receiver-Initiated Approach for Channel-Adaptive On-Demand
//! Routing in Ad Hoc Mobile Computing Networks"* (Lin, Kwok, Lau, ICDCS'02).
//!
//! It re-exports every subsystem crate so downstream users can depend on a
//! single package:
//!
//! * [`sim`] — deterministic discrete-event simulation engine
//! * [`mobility`] — random-waypoint mobility model
//! * [`channel`] — 4-class (ABICM) time-varying wireless channel model
//! * [`mac`] — multi-code CDMA MAC: CSMA/CA common channel + PN data channels
//! * [`net`] — packet vocabulary, link queues, traffic, routing traits
//! * [`traffic`] — declarative workload generation (arrival processes ×
//!   packet-size distributions)
//! * [`faults`] — deterministic fault injection (crash–reboot churn,
//!   partition-and-heal episodes) with recovery metrics
//! * [`metrics`] — simulation metrics (delay, delivery, overhead, …)
//! * [`exec`] — parallel deterministic experiment-execution engine
//! * [`fleet`] — sharded, streaming, resumable sweep orchestration with
//!   adaptive stopping
//! * [`trace`] — structured event tracing, time-series sampling and
//!   per-event-kind profiling (zero overhead when disabled)
//! * [`rica`] — the RICA protocol (the paper's contribution)
//! * [`protocols`] — the AODV / ABR / BGCA / link-state baselines
//! * [`harness`] — full network simulator + the paper's experiments
//!
//! # Quickstart
//!
//! ```
//! use rica_repro::harness::{Scenario, ProtocolKind};
//!
//! // 25-node static network, 2 flows, 20 simulated seconds, RICA routing.
//! let report = Scenario::builder()
//!     .nodes(25)
//!     .flows(2)
//!     .duration_secs(20.0)
//!     .mean_speed_kmh(0.0)
//!     .seed(7)
//!     .build()
//!     .run(ProtocolKind::Rica);
//! assert!(report.generated > 0);
//! assert!(report.delivery_ratio() > 0.5);
//! ```

pub use rica_channel as channel;
pub use rica_core as rica;
pub use rica_exec as exec;
pub use rica_faults as faults;
pub use rica_fleet as fleet;
pub use rica_harness as harness;
pub use rica_mac as mac;
pub use rica_metrics as metrics;
pub use rica_mobility as mobility;
pub use rica_net as net;
pub use rica_protocols as protocols;
pub use rica_sim as sim;
pub use rica_trace as trace;
pub use rica_traffic as traffic;

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use rica_channel::{ChannelClass, ChannelConfig};
    pub use rica_exec::{ExecOptions, Progress, SweepPlan, SweepResult};
    pub use rica_faults::{FaultPlan, NodeGroup};
    pub use rica_harness::{ProtocolKind, Scenario, ScenarioBuilder, TrialReport};
    pub use rica_net::{NodeId, RoutingProtocol};
    pub use rica_sim::{Rng, SimTime};
    pub use rica_traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};
}
