//! # rica-mac — the multi-code CDMA MAC layer
//!
//! The paper assumes "a multi-code CDMA MAC layer is used in all the
//! protocols" (§II) with two kinds of channels:
//!
//! * **The common channel** — 250 kbps, shared by *all* routing/control
//!   traffic, arbitrated by **unslotted CSMA/CA** (§III.A). This channel is
//!   where flooding storms hurt: carrier sensing is local, so hidden
//!   terminals collide, and a congested common channel is precisely what
//!   breaks the link-state protocol in the paper's experiments.
//!   [`CommonMedium`] models it: active transmissions are tracked with their
//!   geometry, senders carrier-sense within radio range, and a receiver
//!   loses a packet if two overlapping transmissions are both in its range.
//! * **Data channels** — one per *directed* terminal pair, separated by
//!   PN (pseudo-random noise) codes: "A sends packet to B using the PN
//!   code PN(A, B), while B sends packet to A using PN code PN(B, A),
//!   these two codes are different" (§II.D). Code separation means data
//!   transmissions do not contend with each other or with the common
//!   channel, so the harness keys each data link by its `(from, to)`
//!   pair and never builds a code. A data channel's instantaneous bit
//!   rate is the link's ABICM class rate.
//!
//! The *policy* half of CSMA/CA (queues, attempt scheduling) lives in the
//! harness, which owns the event loop; this crate provides the mechanism —
//! the medium bookkeeping and backoff arithmetic — in a form that is
//! directly unit-testable.

#![warn(missing_docs)]

mod backoff;
mod config;
mod medium;

pub use backoff::backoff_delay;
pub use config::{
    tx_duration, BACKOFF_SLOT, BROADCAST_JITTER, COMMON_RATE_BPS, CTRL_QUEUE_CAP, CTRL_RETRY_LIMIT,
    CW_MAX, IFS, MAX_ATTEMPTS, UNICAST_JITTER,
};
pub use medium::{CommonMedium, TxId};
