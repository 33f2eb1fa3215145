//! # rica-protocols — the paper's four comparison protocols
//!
//! The evaluation (§III) compares RICA against four baselines, all of which
//! are implemented here against the same [`rica_net::RoutingProtocol`]
//! interface:
//!
//! * [`Aodv`] — ad hoc on-demand distance vector, in the paper's variant:
//!   the destination "responds only the first RREQ and chooses the path this
//!   RREQ has gone through"; link breaks trigger a REER to the source and a
//!   full re-flood. Channel state is ignored entirely.
//! * [`Abr`] — associativity-based routing: periodic beacons accumulate
//!   per-neighbour *associativity ticks*; the destination prefers stable
//!   (long-lived) routes, taking load into account; link breaks are repaired
//!   with a TTL-limited *localized query* (LQ) while data waits at the
//!   repairing terminal — the queue growth this causes at high mobility is
//!   one of the paper's observations.
//! * [`Bgca`] — bandwidth-guarded channel adaptive (the authors' earlier
//!   protocol): discovery selects the CSI-shortest route exactly like RICA,
//!   but maintenance is *passive*: each on-route terminal monitors its
//!   downstream link and only when the link's class rate falls below the
//!   flow's guarded bandwidth requirement does it search a partial
//!   replacement route with a guarded query.
//! * [`LinkState`] — a proactive protocol: an accurate topology snapshot is
//!   installed at t = 0, every perceived link-cost change is flooded as an
//!   LSU, and forwarding is per-hop Dijkstra on each terminal's own (soon
//!   inconsistent) view. Under mobility the flooding congests the common
//!   channel, views diverge and routing loops form — reproducing the
//!   paper's negative result.
//!
//! ## Shared cores
//!
//! The three on-demand baselines find routes through
//! [`rica_net::Discovery`], the source-side policy RICA uses too: buffer,
//! flood, retry, give up. Their relays remember floods in a
//! [`rica_net::FloodHistory`], and their destinations pick the copy to
//! answer through a [`rica_net::ReplyWindow`]. ABR and BGCA also share
//! one flow-routing core (the crate-private `FlowRouter` in `common.rs`):
//! per-flow route entries, RREP relaying, data forwarding, REERs and
//! local repair by LQ, with data held at the repairing terminal. Each
//! keeps only what makes it different: ABR its beacons, associativity
//! ticks, BQ flood and stability-first copy score; BGCA its CSI-distance
//! copy score and the bandwidth guard with its cooldown. AODV keeps
//! destination-keyed routes and answers the first copy at once.

#![warn(missing_docs)]

mod abr;
mod aodv;
mod bgca;
mod common;
mod link_state;

pub use abr::Abr;
pub use aodv::Aodv;
pub use bgca::Bgca;
pub use link_state::LinkState;
