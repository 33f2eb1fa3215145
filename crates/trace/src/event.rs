//! The structured event vocabulary and its JSONL rendering.

use rica_channel::ChannelClass;
use rica_metrics::json::push_f64_or_null;
use rica_net::{ControlKind, DropReason, FlowId, NodeId, RoutePhase};
use rica_sim::SimTime;

/// One structured observation of the simulation, stamped with the sim
/// time it was made at.
///
/// Every variant is a pure *reading* of simulator state: constructing or
/// recording one must never consume randomness or change behaviour. Data
/// packets are identified by `(flow, seq)`, which is unique per trial, so
/// a sink can reconstruct complete per-packet lifecycles.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A source generated a data packet.
    DataGenerated {
        /// Sim time of the observation.
        t: SimTime,
        /// Flow the packet belongs to.
        flow: FlowId,
        /// Flow-local sequence number.
        seq: u64,
        /// Source terminal.
        src: NodeId,
        /// Destination terminal.
        dst: NodeId,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// A data packet entered a per-link transmission queue.
    DataEnqueued {
        /// Sim time of the observation.
        t: SimTime,
        /// Queue owner.
        from: NodeId,
        /// Link peer (next hop).
        to: NodeId,
        /// Flow of the queued packet.
        flow: FlowId,
        /// Sequence number of the queued packet.
        seq: u64,
        /// Queue occupancy after the push.
        queued: usize,
    },
    /// A data transmission attempt started on a pair PN channel.
    DataTxStart {
        /// Sim time of the observation.
        t: SimTime,
        /// Transmitter.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Flow of the packet on the air.
        flow: FlowId,
        /// Sequence number of the packet on the air.
        seq: u64,
        /// Channel class the rate was chosen from, `None` when the link
        /// was already out of range at attempt time.
        class: Option<ChannelClass>,
        /// Retransmission attempts already burnt on this packet.
        tries: u32,
    },
    /// A data packet completed one hop (ACKed by the receiver).
    DataHop {
        /// Sim time of the observation.
        t: SimTime,
        /// Transmitter of the completed hop.
        from: NodeId,
        /// Receiver of the completed hop.
        to: NodeId,
        /// Flow of the packet.
        flow: FlowId,
        /// Sequence number of the packet.
        seq: u64,
        /// Class the hop was transmitted at.
        class: ChannelClass,
    },
    /// A data transmission failed and will be retried.
    DataRetry {
        /// Sim time of the observation.
        t: SimTime,
        /// Transmitter.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Flow of the packet.
        flow: FlowId,
        /// Sequence number of the packet.
        seq: u64,
        /// Attempts burnt so far (including the one that just failed).
        tries: u32,
    },
    /// A data packet reached its destination's application layer.
    DataDelivered {
        /// Sim time of the observation.
        t: SimTime,
        /// Delivering terminal (the flow destination).
        node: NodeId,
        /// Flow of the packet.
        flow: FlowId,
        /// Sequence number of the packet.
        seq: u64,
        /// End-to-end delay in milliseconds.
        delay_ms: f64,
        /// Hops traversed.
        hops: u32,
    },
    /// A data packet was dropped, with the reason recorded in `Metrics`.
    DataDropped {
        /// Sim time of the observation.
        t: SimTime,
        /// Terminal that held the packet when it died.
        node: NodeId,
        /// Flow of the packet.
        flow: FlowId,
        /// Sequence number of the packet.
        seq: u64,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A control packet started transmitting on the common channel.
    CtrlTx {
        /// Sim time of the observation.
        t: SimTime,
        /// Transmitter.
        node: NodeId,
        /// Control packet kind.
        kind: ControlKind,
        /// On-air size in bits.
        bits: u64,
        /// Unicast target; `None` for broadcasts.
        target: Option<NodeId>,
    },
    /// A control packet was rejected by a full MAC queue.
    CtrlQueueDrop {
        /// Sim time of the observation.
        t: SimTime,
        /// Terminal whose queue was full.
        node: NodeId,
        /// Kind of the rejected packet.
        kind: ControlKind,
    },
    /// A CSMA/CA attempt found the medium busy and backed off.
    MacBusy {
        /// Sim time of the observation.
        t: SimTime,
        /// Terminal that backed off.
        node: NodeId,
        /// Consecutive busy attempts for the head-of-line packet.
        attempts: u32,
    },
    /// CSMA/CA gave up on the head-of-line packet after the attempt cap.
    MacAbandon {
        /// Sim time of the observation.
        t: SimTime,
        /// Terminal that abandoned the packet.
        node: NodeId,
        /// Kind of the abandoned packet.
        kind: ControlKind,
    },
    /// A common-channel reception was lost to a collision at `rx`.
    MacCollision {
        /// Sim time of the observation.
        t: SimTime,
        /// Transmitter whose packet was lost.
        tx: NodeId,
        /// Receiver that saw the collision.
        rx: NodeId,
    },
    /// A unicast control packet exhausted its MAC retries undelivered.
    CtrlUnicastGaveUp {
        /// Sim time of the observation.
        t: SimTime,
        /// Transmitter.
        node: NodeId,
        /// Intended receiver.
        target: NodeId,
        /// Kind of the lost packet.
        kind: ControlKind,
    },
    /// The data plane declared a link broken (retries exhausted).
    LinkBreak {
        /// Sim time of the observation.
        t: SimTime,
        /// Link owner.
        from: NodeId,
        /// Vanished peer.
        to: NodeId,
        /// Data packets handed back to the protocol for salvage.
        undelivered: usize,
    },
    /// A protocol timer fired.
    TimerFired {
        /// Sim time of the observation.
        t: SimTime,
        /// Terminal whose timer fired.
        node: NodeId,
        /// Timer kind name (see `rica_net::Timer::kind_name`).
        timer: &'static str,
    },
    /// A protocol reported a route-lifecycle phase for a flow.
    RoutePhase {
        /// Sim time of the observation.
        t: SimTime,
        /// Reporting terminal.
        node: NodeId,
        /// The phase.
        phase: RoutePhase,
        /// Flow source.
        src: NodeId,
        /// Flow destination.
        dst: NodeId,
    },
    /// The observed class of a pair link changed since it was last seen.
    ClassTransition {
        /// Sim time of the observation.
        t: SimTime,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Previously observed class.
        from: ChannelClass,
        /// Class observed now.
        to: ChannelClass,
    },
    /// A terminal crashed (failure injection).
    NodeCrashed {
        /// Sim time of the observation.
        t: SimTime,
        /// The crashed terminal.
        node: NodeId,
        /// Data packets (queued + in flight) that died with it.
        dropped_data: usize,
        /// Control packets still queued at the MAC that died with it.
        dropped_ctrl: usize,
        /// Pending protocol timers cancelled at crash time (they would
        /// otherwise fire into the void at the dead terminal).
        cancelled_timers: usize,
    },
    /// A crashed terminal rebooted cold (fault injection): protocol and
    /// queue state are gone; it must re-join routing from nothing.
    NodeRebooted {
        /// Sim time of the observation.
        t: SimTime,
        /// The rebooted terminal.
        node: NodeId,
        /// Traffic flows sourced at the terminal whose generation was
        /// restarted by the reboot (every flow its crash stopped).
        resumed_flows: usize,
    },
    /// A partition episode began: links crossing the group boundary go
    /// dark (fault injection).
    PartitionStart {
        /// Sim time of the observation.
        t: SimTime,
        /// Episode index within the fault plan.
        episode: usize,
        /// Terminals on the separated side.
        group_size: usize,
    },
    /// A partition episode healed: cross-boundary links carry again.
    PartitionHealed {
        /// Sim time of the observation.
        t: SimTime,
        /// Episode index within the fault plan.
        episode: usize,
        /// Terminals on the separated side.
        group_size: usize,
    },
}

impl TraceEvent {
    /// Sim time the observation was made at.
    pub fn time(&self) -> SimTime {
        use TraceEvent::*;
        match self {
            DataGenerated { t, .. }
            | DataEnqueued { t, .. }
            | DataTxStart { t, .. }
            | DataHop { t, .. }
            | DataRetry { t, .. }
            | DataDelivered { t, .. }
            | DataDropped { t, .. }
            | CtrlTx { t, .. }
            | CtrlQueueDrop { t, .. }
            | MacBusy { t, .. }
            | MacAbandon { t, .. }
            | MacCollision { t, .. }
            | CtrlUnicastGaveUp { t, .. }
            | LinkBreak { t, .. }
            | TimerFired { t, .. }
            | RoutePhase { t, .. }
            | ClassTransition { t, .. }
            | NodeCrashed { t, .. }
            | NodeRebooted { t, .. }
            | PartitionStart { t, .. }
            | PartitionHealed { t, .. } => *t,
        }
    }

    /// Stable snake_case event name (the JSONL `ev` field).
    pub fn name(&self) -> &'static str {
        use TraceEvent::*;
        match self {
            DataGenerated { .. } => "data_generated",
            DataEnqueued { .. } => "data_enqueued",
            DataTxStart { .. } => "data_tx_start",
            DataHop { .. } => "data_hop",
            DataRetry { .. } => "data_retry",
            DataDelivered { .. } => "data_delivered",
            DataDropped { .. } => "data_dropped",
            CtrlTx { .. } => "ctrl_tx",
            CtrlQueueDrop { .. } => "ctrl_queue_drop",
            MacBusy { .. } => "mac_busy",
            MacAbandon { .. } => "mac_abandon",
            MacCollision { .. } => "mac_collision",
            CtrlUnicastGaveUp { .. } => "ctrl_unicast_gave_up",
            LinkBreak { .. } => "link_break",
            TimerFired { .. } => "timer_fired",
            RoutePhase { .. } => "route_phase",
            ClassTransition { .. } => "class_transition",
            NodeCrashed { .. } => "node_crashed",
            NodeRebooted { .. } => "node_rebooted",
            PartitionStart { .. } => "partition_start",
            PartitionHealed { .. } => "partition_healed",
        }
    }

    /// Every event name, for schema validation.
    pub const NAMES: [&'static str; 21] = [
        "data_generated",
        "data_enqueued",
        "data_tx_start",
        "data_hop",
        "data_retry",
        "data_delivered",
        "data_dropped",
        "ctrl_tx",
        "ctrl_queue_drop",
        "mac_busy",
        "mac_abandon",
        "mac_collision",
        "ctrl_unicast_gave_up",
        "link_break",
        "timer_fired",
        "route_phase",
        "class_transition",
        "node_crashed",
        "node_rebooted",
        "partition_start",
        "partition_healed",
    ];

    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Schema: every line has `"t"` (sim time, integer nanoseconds — the
    /// exact internal representation, so artifacts are bit-stable) and
    /// `"ev"` (one of [`TraceEvent::NAMES`]), followed by the
    /// variant-specific fields in a fixed order. Strings are names from
    /// closed vocabularies and need no escaping; the one float goes
    /// through `rica_metrics::json`.
    pub fn to_json(&self, out: &mut String) {
        use std::fmt::Write;
        use TraceEvent::*;
        let _ = write!(out, "{{\"t\":{},\"ev\":\"{}\"", self.time().as_nanos(), self.name());
        match self {
            DataGenerated { flow, seq, src, dst, bytes, .. } => {
                let _ = write!(
                    out,
                    ",\"flow\":{},\"seq\":{seq},\"src\":{},\"dst\":{},\"bytes\":{bytes}",
                    flow.0, src.0, dst.0
                );
            }
            DataEnqueued { from, to, flow, seq, queued, .. } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"to\":{},\"flow\":{},\"seq\":{seq},\"queued\":{queued}",
                    from.0, to.0, flow.0
                );
            }
            DataTxStart { from, to, flow, seq, class, tries, .. } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"to\":{},\"flow\":{},\"seq\":{seq}",
                    from.0, to.0, flow.0
                );
                match class {
                    Some(c) => {
                        let _ = write!(out, ",\"class\":\"{c:?}\"");
                    }
                    None => out.push_str(",\"class\":null"),
                }
                let _ = write!(out, ",\"tries\":{tries}");
            }
            DataHop { from, to, flow, seq, class, .. } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"to\":{},\"flow\":{},\"seq\":{seq},\"class\":\"{class:?}\"",
                    from.0, to.0, flow.0
                );
            }
            DataRetry { from, to, flow, seq, tries, .. } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"to\":{},\"flow\":{},\"seq\":{seq},\"tries\":{tries}",
                    from.0, to.0, flow.0
                );
            }
            DataDelivered { node, flow, seq, delay_ms, hops, .. } => {
                let _ = write!(
                    out,
                    ",\"node\":{},\"flow\":{},\"seq\":{seq},\"delay_ms\":",
                    node.0, flow.0
                );
                push_f64_or_null(out, *delay_ms);
                let _ = write!(out, ",\"hops\":{hops}");
            }
            DataDropped { node, flow, seq, reason, .. } => {
                let _ = write!(
                    out,
                    ",\"node\":{},\"flow\":{},\"seq\":{seq},\"reason\":\"{reason}\"",
                    node.0, flow.0
                );
            }
            CtrlTx { node, kind, bits, target, .. } => {
                let _ = write!(out, ",\"node\":{},\"kind\":\"{kind:?}\",\"bits\":{bits}", node.0);
                match target {
                    Some(to) => {
                        let _ = write!(out, ",\"target\":{}", to.0);
                    }
                    None => out.push_str(",\"target\":null"),
                }
            }
            CtrlQueueDrop { node, kind, .. } => {
                let _ = write!(out, ",\"node\":{},\"kind\":\"{kind:?}\"", node.0);
            }
            MacBusy { node, attempts, .. } => {
                let _ = write!(out, ",\"node\":{},\"attempts\":{attempts}", node.0);
            }
            MacAbandon { node, kind, .. } => {
                let _ = write!(out, ",\"node\":{},\"kind\":\"{kind:?}\"", node.0);
            }
            MacCollision { tx, rx, .. } => {
                let _ = write!(out, ",\"tx\":{},\"rx\":{}", tx.0, rx.0);
            }
            CtrlUnicastGaveUp { node, target, kind, .. } => {
                let _ = write!(
                    out,
                    ",\"node\":{},\"target\":{},\"kind\":\"{kind:?}\"",
                    node.0, target.0
                );
            }
            LinkBreak { from, to, undelivered, .. } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"to\":{},\"undelivered\":{undelivered}",
                    from.0, to.0
                );
            }
            TimerFired { node, timer, .. } => {
                let _ = write!(out, ",\"node\":{},\"timer\":\"{timer}\"", node.0);
            }
            RoutePhase { node, phase, src, dst, .. } => {
                let _ = write!(
                    out,
                    ",\"node\":{},\"phase\":\"{}\",\"src\":{},\"dst\":{}",
                    node.0,
                    phase.name(),
                    src.0,
                    dst.0
                );
            }
            ClassTransition { a, b, from, to, .. } => {
                let _ = write!(
                    out,
                    ",\"a\":{},\"b\":{},\"from\":\"{from:?}\",\"to\":\"{to:?}\"",
                    a.0, b.0
                );
            }
            NodeCrashed { node, dropped_data, dropped_ctrl, cancelled_timers, .. } => {
                let _ = write!(
                    out,
                    ",\"node\":{},\"dropped_data\":{dropped_data},\"dropped_ctrl\":{dropped_ctrl},\
                     \"cancelled_timers\":{cancelled_timers}",
                    node.0
                );
            }
            NodeRebooted { node, resumed_flows, .. } => {
                let _ = write!(out, ",\"node\":{},\"resumed_flows\":{resumed_flows}", node.0);
            }
            PartitionStart { episode, group_size, .. }
            | PartitionHealed { episode, group_size, .. } => {
                let _ = write!(out, ",\"episode\":{episode},\"group_size\":{group_size}");
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_table_matches_variants() {
        let t = SimTime::ZERO;
        let n = NodeId(1);
        let f = FlowId(0);
        let samples = [
            TraceEvent::DataGenerated { t, flow: f, seq: 0, src: n, dst: n, bytes: 512 },
            TraceEvent::DataEnqueued { t, from: n, to: n, flow: f, seq: 0, queued: 1 },
            TraceEvent::DataTxStart { t, from: n, to: n, flow: f, seq: 0, class: None, tries: 0 },
            TraceEvent::DataHop { t, from: n, to: n, flow: f, seq: 0, class: ChannelClass::A },
            TraceEvent::DataRetry { t, from: n, to: n, flow: f, seq: 0, tries: 1 },
            TraceEvent::DataDelivered { t, node: n, flow: f, seq: 0, delay_ms: 1.0, hops: 2 },
            TraceEvent::DataDropped { t, node: n, flow: f, seq: 0, reason: DropReason::NoRoute },
            TraceEvent::CtrlTx { t, node: n, kind: ControlKind::Rreq, bits: 10, target: None },
            TraceEvent::CtrlQueueDrop { t, node: n, kind: ControlKind::Rreq },
            TraceEvent::MacBusy { t, node: n, attempts: 3 },
            TraceEvent::MacAbandon { t, node: n, kind: ControlKind::Rrep },
            TraceEvent::MacCollision { t, tx: n, rx: n },
            TraceEvent::CtrlUnicastGaveUp { t, node: n, target: n, kind: ControlKind::Rrep },
            TraceEvent::LinkBreak { t, from: n, to: n, undelivered: 2 },
            TraceEvent::TimerFired { t, node: n, timer: "beacon" },
            TraceEvent::RoutePhase {
                t,
                node: n,
                phase: rica_net::RoutePhase::DiscoveryStart,
                src: n,
                dst: n,
            },
            TraceEvent::ClassTransition {
                t,
                a: n,
                b: n,
                from: ChannelClass::A,
                to: ChannelClass::B,
            },
            TraceEvent::NodeCrashed {
                t,
                node: n,
                dropped_data: 0,
                dropped_ctrl: 0,
                cancelled_timers: 0,
            },
            TraceEvent::NodeRebooted { t, node: n, resumed_flows: 1 },
            TraceEvent::PartitionStart { t, episode: 0, group_size: 25 },
            TraceEvent::PartitionHealed { t, episode: 0, group_size: 25 },
        ];
        assert_eq!(samples.len(), TraceEvent::NAMES.len());
        for (ev, name) in samples.iter().zip(TraceEvent::NAMES) {
            assert_eq!(ev.name(), name);
            let mut line = String::new();
            ev.to_json(&mut line);
            assert!(line.starts_with("{\"t\":0,\"ev\":\""), "{line}");
            let v = rica_metrics::parse_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(v.str_at("ev"), Ok(name), "{line}");
        }
    }

    #[test]
    fn json_encodes_options() {
        let mut line = String::new();
        TraceEvent::CtrlTx {
            t: SimTime::ZERO,
            node: NodeId(3),
            kind: ControlKind::Rrep,
            bits: 960,
            target: Some(NodeId(7)),
        }
        .to_json(&mut line);
        assert_eq!(
            line,
            "{\"t\":0,\"ev\":\"ctrl_tx\",\"node\":3,\"kind\":\"Rrep\",\"bits\":960,\"target\":7}"
        );
    }
}
