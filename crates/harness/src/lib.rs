//! # rica-harness — the full network simulator and the paper's experiments
//!
//! Glues every substrate together into the §III simulation environment:
//!
//! * 50 terminals with random-waypoint mobility in a 1000 m × 1000 m field
//!   (`rica-mobility`),
//! * the 4-class fading channel (`rica-channel`),
//! * the CSMA/CA common channel with collisions + per-pair CDMA data
//!   channels with per-packet ACKs and retransmission-based break detection
//!   (`rica-mac`),
//! * 10 flows of 512-byte packets with 10-packet / 3-second
//!   per-connection buffers (`rica-net`) — Poisson by default, any
//!   `rica-traffic` workload shape via [`Scenario`]'s `workload`,
//! * one of the five routing protocols per run (`rica-core`,
//!   `rica-protocols`),
//! * and the paper's metric set (`rica-metrics`).
//!
//! [`Scenario`] describes one configuration; [`Scenario::run`] executes a
//! single deterministic trial, and [`sweep::run_plan`] runs every batch
//! of seeded trials: a declarative sweep plan (protocols × speeds × node
//! counts × workloads × trials) fanned out over the `rica-exec` worker
//! pool. [`experiments`] regenerates every figure of the paper from the
//! sweeps it runs.
//!
//! ```
//! use rica_harness::{ProtocolKind, Scenario};
//!
//! let report = Scenario::builder()
//!     .nodes(10)
//!     .flows(2)
//!     .duration_secs(15.0)
//!     .mean_speed_kmh(18.0)
//!     .seed(1)
//!     .build()
//!     .run(ProtocolKind::Rica);
//! assert!(report.generated > 0);
//! ```

#![warn(missing_docs)]

pub mod experiments;
mod scenario;
pub mod sweep;
mod world;

pub use scenario::{Flow, ProtocolKind, Scenario, ScenarioBuilder};
pub use world::World;
