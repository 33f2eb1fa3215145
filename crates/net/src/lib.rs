//! # rica-net — the network vocabulary: packets, queues, routing traits
//!
//! This crate defines everything the five routing protocols (RICA, BGCA,
//! ABR, AODV, link state) and the simulation harness share:
//!
//! * [`NodeId`] / [`FlowId`] — identifiers.
//! * [`ControlPacket`] — every routing/control packet any protocol sends on
//!   the common channel, with on-air sizes.
//! * [`DataPacket`] — the 512-byte store-and-forward data unit, carrying the
//!   bookkeeping the paper's metrics need (creation time, hops traversed,
//!   sum of traversed link rates).
//! * [`LinkQueue`] — the per-connection FCFS buffer: capacity 10 packets,
//!   3-second maximum residency (§III.A).
//! * [`Discovery`] — the source side of on-demand route discovery that
//!   RICA, AODV, ABR and BGCA share: packets waiting for a route, query
//!   floods, retries and giving up. [`FloodHistory`] is the relay side:
//!   which floods were seen, and the reverse path each came along.
//! * [`RoutingProtocol`] / [`NodeCtx`] — the protocol ↔ node boundary. A
//!   protocol is a *pure state machine* over packets and timers; the context
//!   supplies every side effect (transmission, timers, CSI measurement).
//!   This is what makes each protocol unit-testable without a simulator —
//!   see [`testing::ScriptedCtx`].
//! * [`ProtocolConfig`] — every tunable constant of every protocol, with the
//!   paper's values as defaults.
//! * [`IdMap`] / [`KeyMap`] — flat per-node / per-flow state containers
//!   with `BTreeMap` iteration order, shared by all protocol
//!   implementations (their tables sit on the per-event hot path).
//!
//! The crate deliberately contains **no event loop and no protocol logic**
//! beyond the one source-side discovery policy the on-demand protocols
//! share ([`Discovery`]).

#![warn(missing_docs)]

mod config;
mod discovery;
mod flatmap;
mod ids;
mod packet;
mod queue;
mod routing;
pub mod testing;

pub use config::ProtocolConfig;
pub use discovery::{Discovery, FloodBuilder, FloodHistory};
pub use flatmap::{IdMap, KeyMap};
pub use ids::{FlowId, NodeId};
pub use packet::{
    ControlKind, ControlPacket, DataPacket, LsuEntry, DATA_ACK_BYTES, DATA_HEADER_BYTES,
};
pub use queue::LinkQueue;
pub use routing::{
    DropReason, NodeCtx, RoutePhase, RoutingProtocol, RxInfo, Timer, TimerToken, TopologySnapshot,
};
