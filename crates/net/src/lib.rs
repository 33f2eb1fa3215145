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
//!   [`ReplyWindow`] is the destination side: which copy of a flood to
//!   answer, and which floods are answered.
//! * [`RoutingProtocol`] / [`NodeCtx`] — the protocol ↔ node boundary. A
//!   protocol is a *pure state machine* over packets and timers; the context
//!   supplies every side effect (transmission, timers, CSI measurement).
//!   This is what makes each protocol unit-testable without a simulator —
//!   see [`testing::ScriptedCtx`].
//! * [`ProtocolConfig`] — the protocol parameters an experiment varies,
//!   with the paper's values as defaults; every other protocol parameter
//!   is a constant next to it ([`LINK_QUEUE_CAP`], [`BEACON_PERIOD`], …).
//! * [`IdMap`] / [`KeyMap`] — flat per-node / per-flow state containers
//!   with `BTreeMap` iteration order, shared by all protocol
//!   implementations (their tables sit on the per-event hot path).
//!
//! The crate deliberately contains **no event loop and no protocol logic**
//! beyond the route discovery the on-demand protocols share, one type per
//! side ([`Discovery`], [`FloodHistory`], [`ReplyWindow`]).

#![warn(missing_docs)]

mod config;
mod discovery;
mod flatmap;
mod ids;
mod packet;
mod queue;
mod routing;
pub mod testing;

pub use config::{
    ProtocolConfig, ABR_STABILITY_TICKS, AODV_ROUTE_TIMEOUT, BEACON_LOSS_LIMIT, BEACON_PERIOD,
    BGCA_MONITOR_PERIOD, BGCA_REPAIR_COOLDOWN, DATA_RETRY_LIMIT, FLOW_IDLE_TIMEOUT, LINK_QUEUE_CAP,
    LQ_TIMEOUT, LQ_TTL_SLACK, LS_CLASS_HYSTERESIS, LS_MIN_FLOOD_INTERVAL, LS_SAMPLE_PERIOD,
    MAX_QUEUE_RESIDENCY, PENDING_CAP, REPLY_WINDOW, ROUTE_IDLE_TIMEOUT, RREQ_MAX_RETRIES,
    RREQ_RETRY_TIMEOUT,
};
pub use discovery::{Discovery, FloodBuilder, FloodHistory, ReplyWindow};
pub use flatmap::{IdMap, KeyMap};
pub use ids::{FlowId, NodeId};
pub use packet::{
    ControlKind, ControlPacket, DataPacket, LsuEntry, DATA_ACK_BYTES, DATA_HEADER_BYTES,
    DATA_PAYLOAD_BYTES,
};
pub use queue::LinkQueue;
pub use routing::{
    DropReason, NodeCtx, RoutePhase, RoutingProtocol, RxInfo, Timer, TimerToken, TopologySnapshot,
};
