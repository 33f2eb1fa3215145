//! Packet formats and on-air sizes.

use rica_channel::ChannelClass;
use rica_sim::SimTime;

use crate::{FlowId, NodeId};

/// One advertised adjacency inside an [`ControlPacket::Lsu`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsuEntry {
    /// The neighbour this entry describes.
    pub neighbor: NodeId,
    /// Measured channel class of the link to that neighbour.
    pub class: ChannelClass,
}

/// Every routing / control packet any of the five protocols transmits on
/// the 250 kbps common channel.
///
/// One shared enum (rather than per-protocol types) keeps the MAC and the
/// harness protocol-agnostic; each protocol simply ignores variants it never
/// receives. On-air sizes come from [`ControlPacket::size_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub enum ControlPacket {
    /// Route request flood (AODV §II of ref. 9; RICA/BGCA §II.B with CSI-based
    /// hop accumulation).
    Rreq {
        /// Flow source (the terminal searching for a route).
        src: NodeId,
        /// Flow destination being searched for.
        dst: NodeId,
        /// Source-local broadcast id; `(src, dst, bcast_id)` uniquely
        /// identifies one flood.
        bcast_id: u64,
        /// Accumulated CSI-based hop distance from the source (§II.A).
        /// AODV ignores this field.
        csi_hops: f64,
        /// Accumulated topological hop count from the source.
        topo_hops: u8,
    },
    /// Route reply, unicast hop-by-hop back along the reverse path.
    Rrep {
        /// Flow source the reply is travelling towards.
        src: NodeId,
        /// Flow destination that generated the reply.
        dst: NodeId,
        /// Echo of the RREQ `bcast_id` this reply answers.
        seq: u64,
        /// CSI-based hop distance of the selected route.
        csi_hops: f64,
        /// Topological hop count of the selected route.
        topo_hops: u8,
    },
    /// RICA's receiver-initiated CSI checking packet (§II.C), broadcast by
    /// the *destination* and re-broadcast (once) by intermediate terminals.
    CsiCheck {
        /// Flow source (the terminal that will pick the new route).
        src: NodeId,
        /// Flow destination (the originator of this check).
        dst: NodeId,
        /// Destination-local broadcast id of this check wave.
        bcast_id: u64,
        /// Accumulated CSI-based hop distance *from the destination*.
        csi_hops: f64,
        /// Remaining time-to-live in topological hops; a terminal receiving
        /// the packet with `ttl == 0` does not re-broadcast it.
        ttl: u8,
        /// The terminal the re-broadcaster received this check from — i.e.
        /// the re-broadcaster's *downstream* towards the destination. `None`
        /// on the destination's own transmission. Overhearing terminals use
        /// this to learn PN codes (§II.C).
        received_from: Option<NodeId>,
    },
    /// RICA route-update packet: the source commits to a new next hop
    /// (§II.C, Figure 1(d)).
    Rupd {
        /// Flow source.
        src: NodeId,
        /// Flow destination.
        dst: NodeId,
    },
    /// Route error, unicast upstream towards the source (the paper's
    /// "REER", §II.D).
    Rerr {
        /// Flow source the error propagates towards.
        src: NodeId,
        /// Flow destination whose route broke.
        dst: NodeId,
        /// The terminal that detected the break.
        reporter: NodeId,
    },
    /// Periodic hello beacon (ABR associativity ticks; link-state neighbour
    /// sensing).
    Beacon,
    /// Link-state update flood: the *changes* to `origin`'s adjacency since
    /// its previous LSU ("it floods this change", §III.A). Delta semantics
    /// are deliberately fragile: a terminal that misses one LSU keeps a
    /// stale view of the changed links until they change again — the root
    /// cause of the paper's link-state routing loops.
    Lsu {
        /// The terminal whose links are being advertised.
        origin: NodeId,
        /// Origin-local sequence number (newer wins).
        seq: u64,
        /// Links whose class changed (or that came up), with the new
        /// class. Shared (`Arc`) because a flood is re-broadcast once per
        /// terminal: the payload is built once by the origin and
        /// reference-counted through every re-flood instead of cloned.
        entries: std::sync::Arc<[LsuEntry]>,
        /// Links that went down since the previous LSU.
        down: std::sync::Arc<[NodeId]>,
    },
    /// ABR broadcast query: an RREQ that also accumulates route stability
    /// and load, so the destination can apply ABR's selection rules.
    Bq {
        /// Flow source.
        src: NodeId,
        /// Flow destination.
        dst: NodeId,
        /// Source-local broadcast id.
        bcast_id: u64,
        /// Accumulated topological hop count.
        topo_hops: u8,
        /// Number of traversed links whose associativity ticks exceed the
        /// stability threshold.
        stable_links: u8,
        /// Sum of queue lengths observed at relaying terminals (load).
        load: u32,
    },
    /// Localized query (ABR's LQ; BGCA's guarded partial-route query):
    /// a TTL-limited flood issued by `origin`, an intermediate terminal,
    /// searching for a partial route to `dst`.
    Lq {
        /// Flow source (for route-entry bookkeeping).
        src: NodeId,
        /// Flow destination being searched for.
        dst: NodeId,
        /// The repairing terminal that issued this query.
        origin: NodeId,
        /// Origin-local broadcast id.
        bcast_id: u64,
        /// Remaining TTL in topological hops.
        ttl: u8,
        /// Accumulated CSI-based hop distance from `origin` (BGCA metric).
        csi_hops: f64,
        /// Accumulated topological hops from `origin`.
        topo_hops: u8,
    },
    /// Reply to a localized query, unicast back to the issuing terminal.
    LqRep {
        /// Flow source.
        src: NodeId,
        /// Flow destination that replied.
        dst: NodeId,
        /// The repairing terminal this reply travels to.
        origin: NodeId,
        /// Echo of the LQ `bcast_id`.
        seq: u64,
        /// CSI-based hop distance of the found partial route.
        csi_hops: f64,
        /// Topological hop count of the found partial route.
        topo_hops: u8,
    },
}

/// Discriminant-only view of a [`ControlPacket`], for metrics breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(missing_docs, reason = "each variant is the `ControlPacket` variant of the same name")]
pub enum ControlKind {
    Rreq,
    Rrep,
    CsiCheck,
    Rupd,
    Rerr,
    Beacon,
    Lsu,
    Bq,
    Lq,
    LqRep,
}

impl ControlKind {
    /// Every kind, in declaration (= `Ord`) order; `kind as usize` indexes
    /// this table, which lets hot counters use flat arrays instead of maps.
    pub const ALL: [ControlKind; 10] = [
        ControlKind::Rreq,
        ControlKind::Rrep,
        ControlKind::CsiCheck,
        ControlKind::Rupd,
        ControlKind::Rerr,
        ControlKind::Beacon,
        ControlKind::Lsu,
        ControlKind::Bq,
        ControlKind::Lq,
        ControlKind::LqRep,
    ];
}

impl ControlPacket {
    /// On-air size in bytes (header + fields), used for transmission delay
    /// and the routing-overhead metric.
    ///
    /// Sizes follow AODV-style compact encodings: a 12-byte common header
    /// (type, addresses, flags) plus per-variant payload.
    pub fn size_bytes(&self) -> u32 {
        match self {
            ControlPacket::Rreq { .. } => 64,
            ControlPacket::Rrep { .. } => 32,
            ControlPacket::CsiCheck { .. } => 64,
            ControlPacket::Rupd { .. } => 24,
            ControlPacket::Rerr { .. } => 24,
            ControlPacket::Beacon => 16,
            ControlPacket::Lsu { entries, down, .. } => {
                24 + 4 * entries.len() as u32 + 2 * down.len() as u32
            }
            ControlPacket::Bq { .. } => 64,
            ControlPacket::Lq { .. } => 64,
            ControlPacket::LqRep { .. } => 32,
        }
    }

    /// On-air size in bits.
    pub fn size_bits(&self) -> u64 {
        self.size_bytes() as u64 * 8
    }

    /// The discriminant, for per-kind accounting.
    pub fn kind(&self) -> ControlKind {
        match self {
            ControlPacket::Rreq { .. } => ControlKind::Rreq,
            ControlPacket::Rrep { .. } => ControlKind::Rrep,
            ControlPacket::CsiCheck { .. } => ControlKind::CsiCheck,
            ControlPacket::Rupd { .. } => ControlKind::Rupd,
            ControlPacket::Rerr { .. } => ControlKind::Rerr,
            ControlPacket::Beacon => ControlKind::Beacon,
            ControlPacket::Lsu { .. } => ControlKind::Lsu,
            ControlPacket::Bq { .. } => ControlKind::Bq,
            ControlPacket::Lq { .. } => ControlKind::Lq,
            ControlPacket::LqRep { .. } => ControlKind::LqRep,
        }
    }
}

/// A store-and-forward data packet (512-byte payload in the paper).
///
/// Carries the per-packet bookkeeping the paper's metrics need: creation
/// time (end-to-end delay), hops traversed and the sum of traversed link
/// rates (Figure 5's route-quality metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Flow-local sequence number (0-based).
    pub seq: u64,
    /// Originating terminal.
    pub src: NodeId,
    /// Destination terminal.
    pub dst: NodeId,
    /// Payload size in bytes (512 in the paper).
    pub payload_bytes: u32,
    /// Creation instant at the source's application layer.
    pub created_at: SimTime,
    /// Topological hops traversed so far.
    pub hops: u32,
    /// Sum of the class rates (kbps) of the links traversed so far.
    pub rate_sum_kbps: f64,
    /// RICA's update flag: the first packet on a freshly selected route
    /// carries `true` so downstream terminals promote their *possible*
    /// route entries (§II.C).
    pub route_update: bool,
}

/// Data-plane header size (addresses, flow id, seq, flags), in bytes.
pub const DATA_HEADER_BYTES: u32 = 24;

/// Payload size of a scenario's random flows, in bytes (paper: 512 bytes,
/// §III.A): the exact size under the fixed-size workload, the anchor of
/// the other size distributions.
pub const DATA_PAYLOAD_BYTES: u32 = 512;

/// Size of the per-packet data acknowledgment on the reverse PN code, in
/// bytes. ACK bits count towards the routing-overhead metric (§III.A).
pub const DATA_ACK_BYTES: u32 = 16;

impl DataPacket {
    /// Creates a fresh packet at the source.
    pub fn new(
        flow: FlowId,
        seq: u64,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u32,
        created_at: SimTime,
    ) -> Self {
        DataPacket {
            flow,
            seq,
            src,
            dst,
            payload_bytes,
            created_at,
            hops: 0,
            rate_sum_kbps: 0.0,
            route_update: false,
        }
    }

    /// Total on-air size in bits (payload + data header).
    pub fn size_bits(&self) -> u64 {
        (self.payload_bytes + DATA_HEADER_BYTES) as u64 * 8
    }

    /// Records the traversal of one link of the given class (called by the
    /// harness when a hop completes).
    pub fn record_hop(&mut self, class: rica_channel::ChannelClass) {
        self.hops += 1;
        self.rate_sum_kbps += class.rate_kbps();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_channel::ChannelClass;

    #[test]
    fn control_sizes_positive_and_stable() {
        let pkts = [
            ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(1),
                bcast_id: 0,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(1),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            ControlPacket::CsiCheck {
                src: NodeId(0),
                dst: NodeId(1),
                bcast_id: 0,
                csi_hops: 0.0,
                ttl: 3,
                received_from: None,
            },
            ControlPacket::Rupd { src: NodeId(0), dst: NodeId(1) },
            ControlPacket::Rerr { src: NodeId(0), dst: NodeId(1), reporter: NodeId(2) },
            ControlPacket::Beacon,
            ControlPacket::Lsu { origin: NodeId(0), seq: 0, entries: [].into(), down: [].into() },
            ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(1),
                bcast_id: 0,
                topo_hops: 0,
                stable_links: 0,
                load: 0,
            },
            ControlPacket::Lq {
                src: NodeId(0),
                dst: NodeId(1),
                origin: NodeId(2),
                bcast_id: 0,
                ttl: 2,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            ControlPacket::LqRep {
                src: NodeId(0),
                dst: NodeId(1),
                origin: NodeId(2),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 0,
            },
        ];
        for p in &pkts {
            assert!(p.size_bytes() >= 8, "{:?}", p.kind());
            assert_eq!(p.size_bits(), p.size_bytes() as u64 * 8);
        }
        // All 10 kinds distinct.
        #[expect(
            clippy::disallowed_types,
            reason = "order-free distinctness count: only len() is observed, the set is never iterated"
        )]
        let kinds: std::collections::HashSet<_> = pkts.iter().map(|p| p.kind()).collect();
        assert_eq!(kinds.len(), 10);
    }

    #[test]
    fn lsu_size_grows_with_entries() {
        let empty =
            ControlPacket::Lsu { origin: NodeId(0), seq: 0, entries: [].into(), down: [].into() };
        let three = ControlPacket::Lsu {
            origin: NodeId(0),
            seq: 0,
            entries: [
                LsuEntry { neighbor: NodeId(1), class: ChannelClass::A },
                LsuEntry { neighbor: NodeId(2), class: ChannelClass::B },
                LsuEntry { neighbor: NodeId(3), class: ChannelClass::D },
            ]
            .into(),
            down: [NodeId(4)].into(),
        };
        assert_eq!(three.size_bytes(), empty.size_bytes() + 14);
    }

    #[test]
    fn data_packet_size_matches_paper() {
        let p = DataPacket::new(FlowId(0), 0, NodeId(0), NodeId(1), 512, SimTime::ZERO);
        // 512 B payload + 24 B header = 4288 bits.
        assert_eq!(p.size_bits(), (512 + 24) * 8);
    }

    #[test]
    fn hop_recording_accumulates() {
        let mut p = DataPacket::new(FlowId(0), 0, NodeId(0), NodeId(5), 512, SimTime::ZERO);
        p.record_hop(ChannelClass::A);
        p.record_hop(ChannelClass::D);
        assert_eq!(p.hops, 2);
        assert_eq!(p.rate_sum_kbps, 300.0);
    }
}
