//! # rica-metrics — the paper's evaluation metrics
//!
//! Implements exactly the quantities §III plots:
//!
//! * **Average end-to-end delay** (Fig. 2) — mean over delivered packets of
//!   delivery time − creation time, including all queueing.
//! * **Successful percentage of packet delivery** (Fig. 3) — delivered ÷
//!   generated, with the drop taxonomy (congestion, 3 s residency timeout,
//!   link break, no route).
//! * **Routing overhead** (Fig. 4) — total bits of routing packets *plus
//!   data acknowledgments* divided by the simulation time ("We count the
//!   total routing packets and data acknowledgment packets … average the
//!   amount of routing overheads (in bits) to the whole simulation time").
//! * **Route quality** (Fig. 5) — average link throughput (total bandwidth
//!   of links traversed by delivered packets ÷ total hops traversed) and
//!   average hop count per delivered packet.
//! * **Aggregate network throughput** (Fig. 6) — delivered bits per 4-second
//!   bin.
//!
//! [`Metrics`] is the live recorder the harness feeds; [`TrialSummary`] is
//! the frozen result of one trial; [`Aggregate`] averages 25 trials the way
//! the paper does ("repeated for 25 trials. We compute the average").

#![warn(missing_docs)]

mod aggregate;
mod csv;
mod diagnostics;
pub mod json;
mod recorder;
mod stream;
mod table;
mod welford;

pub use aggregate::Aggregate;
pub use csv::csv_document;
pub use diagnostics::{EventKindStats, EventProfile, WorldDiagnostics};
pub use json::{fmt_f64, parse_json, JsonValue};
pub use recorder::{
    FaultKind, FlowSummary, Metrics, RecoverySummary, TrialSummary, WorkloadSummary,
};
pub use stream::{TrialRecord, TRIAL_RECORD_SCHEMA};
pub use table::{format_table, Align};
pub use welford::Welford;
