//! Packet conservation, metric sanity and the silence of crashed nodes
//! across random scenarios (property-style, over seeds, parameters, node
//! counts, workloads, channel tiers and fault plans).

use proptest::prelude::*;
use rica_repro::channel::{ChannelConfig, ChannelFidelity};
use rica_repro::faults::{FaultPlan, NodeGroup};
use rica_repro::harness::{ProtocolKind, Scenario, World};
use rica_repro::net::{NodeId, DATA_HEADER_BYTES};
use rica_repro::sim::SimTime;
use rica_repro::trace::{RingSink, TraceEvent};
use rica_repro::traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};

/// The fault plans a case draws from, for its `nodes` and 10 s.
fn fault_plan(pick: usize, nodes: usize) -> FaultPlan {
    match pick {
        0 => FaultPlan::none(),
        1 => FaultPlan::none().with_churn(4.0, 1.0, 0.0),
        _ => FaultPlan::none().with_partition(3.0, 6.0, NodeGroup::IdBelow(nodes as u32 / 2)),
    }
}

/// The workloads a case draws from: the paper default, fixed-size CBR,
/// and on/off bursts with variable sizes down to 40 B payloads.
fn workload(pick: usize) -> WorkloadSpec {
    let bursts = |dwell| ArrivalSpec::OnOffBurst { on_mean_secs: 0.5, off_mean_secs: 1.5, dwell };
    match pick {
        0 => WorkloadSpec::default(),
        1 => WorkloadSpec { arrival: ArrivalSpec::Cbr, size: SizeSpec::Fixed },
        2 => WorkloadSpec {
            arrival: bursts(Dwell::Exponential),
            size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
        },
        _ => WorkloadSpec {
            arrival: bursts(Dwell::Pareto { shape: 1.5 }),
            size: SizeSpec::Uniform { lo: 40, hi: 1460 },
        },
    }
}

/// The nodes a trace event names as sender, actor or receiver: the
/// nodes whose radio or protocol state the event shows at work. Fault
/// and channel-census events name none.
fn actors(ev: &TraceEvent) -> [Option<NodeId>; 2] {
    use TraceEvent::*;
    match *ev {
        TimerFired { node, .. }
        | CtrlTx { node, .. }
        | MacBusy { node, .. }
        | MacAbandon { node, .. }
        | CtrlQueueDrop { node, .. }
        | DataDelivered { node, .. }
        | DataDropped { node, .. }
        | CtrlUnicastGaveUp { node, .. }
        | RoutePhase { node, .. } => [Some(node), None],
        MacCollision { tx, rx, .. } => [Some(tx), Some(rx)],
        DataGenerated { src, .. } => [Some(src), None],
        DataEnqueued { from, .. }
        | DataTxStart { from, .. }
        | DataRetry { from, .. }
        | LinkBreak { from, .. } => [Some(from), None],
        DataHop { from, to, .. } => [Some(from), Some(to)],
        ClassTransition { .. }
        | NodeCrashed { .. }
        | NodeRebooted { .. }
        | PartitionStart { .. }
        | PartitionHealed { .. } => [None, None],
    }
}

/// Asserts that no event names a node between its `NodeCrashed` and its
/// next `NodeRebooted`: a dead node neither sends, receives, generates
/// nor fires a timer. Returns the number of crashes.
fn assert_dead_nodes_are_silent<'a>(
    kind: ProtocolKind,
    nodes: usize,
    events: impl Iterator<Item = &'a TraceEvent>,
) -> usize {
    let mut dead = vec![false; nodes];
    let mut crashes = 0;
    for ev in events {
        match *ev {
            TraceEvent::NodeCrashed { node, .. } => {
                dead[node.index()] = true;
                crashes += 1;
            }
            TraceEvent::NodeRebooted { node, .. } => dead[node.index()] = false,
            _ => {
                for node in actors(ev).into_iter().flatten() {
                    assert!(!dead[node.index()], "{kind}: crashed {node:?} is not silent: {ev:?}");
                }
            }
        }
    }
    crashes
}

fn check(
    kind: ProtocolKind,
    seed: u64,
    speed: f64,
    rate: f64,
    approx: bool,
    faults: usize,
    load: usize,
    nodes: usize,
) {
    let fidelity = if approx { ChannelFidelity::Approx } else { ChannelFidelity::Exact };
    let spec = workload(load);
    // The smallest data packet on air: a 40 B payload plus the header
    // for the variable-size draws, the default 536 B otherwise.
    let smallest_bytes = if spec.size == SizeSpec::Fixed { 536 } else { 40 + DATA_HEADER_BYTES };
    let default = spec.is_paper_default();
    let s = Scenario::builder()
        .nodes(nodes)
        .flows(3)
        .rate_pps(rate)
        .mean_speed_kmh(speed)
        .duration_secs(10.0)
        .seed(seed)
        .workload(spec)
        .channel(ChannelConfig { fidelity, ..ChannelConfig::default() })
        .faults(fault_plan(faults, nodes))
        .build();
    // Traced through a ring sink; tracing leaves the results unchanged.
    let mut world = World::new(&s, kind, s.seed);
    world.enable_trace(Box::new(RingSink::unbounded()));
    world.start();
    world.step_until(SimTime::MAX);
    let mut sink = world.take_trace_sink().expect("sink installed");
    let ring = sink.downcast_mut::<RingSink>().expect("ring sink");
    assert_eq!(ring.seen() as usize, ring.events().count(), "unbounded ring must keep all");
    let crashes = assert_dead_nodes_are_silent(kind, nodes, ring.events());
    if faults == 1 {
        assert!(crashes > 0, "{kind}: a churned trial crashed no node");
    }
    let r = world.finish();
    assert!(r.delivered + r.dropped() <= r.generated, "{kind}: over-accounted");
    assert!(r.delivery_ratio() <= 1.0 && r.delivery_ratio() >= 0.0);
    assert!(r.delay_mean_ms >= 0.0 && r.delay_mean_ms.is_finite());
    assert!(r.overhead_kbps >= 0.0 && r.overhead_kbps.is_finite());
    assert!(r.avg_hops >= 0.0);
    if r.delivered > 0 {
        assert!(r.avg_hops >= 1.0, "{kind}: delivered packets travel ≥ 1 hop");
        assert!(
            (50.0..=250.0).contains(&r.avg_link_throughput_kbps),
            "{kind}: link throughput {} outside class range",
            r.avg_link_throughput_kbps
        );
        // A delivered packet spends at least one class-A transmission time.
        assert!(r.delay_mean_ms >= smallest_bytes as f64 * 8.0 / 250_000.0 * 1e3 * 0.99);
    }
    // Time series totals must match delivered counts (bits conservation).
    let bits_series: f64 = r.throughput_kbps.iter().sum::<f64>() * 4.0 * 1e3;
    let bits_delivered = if default {
        r.delivered as f64 * 536.0 * 8.0
    } else {
        let w = r.workload.as_ref().expect("a non-default workload records its flows");
        w.flows.iter().map(|f| f.delivered_bits).sum::<u64>() as f64
    };
    assert!(
        (bits_series - bits_delivered).abs() < 1.0,
        "{kind}: series {} bits vs delivered {} bits",
        bits_series,
        bits_delivered
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_rica(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
        load in 0usize..4,
        nodes in 8usize..21,
    ) {
        check(ProtocolKind::Rica, seed, speed, rate, approx, faults, load, nodes);
    }

    #[test]
    fn conservation_aodv(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
        load in 0usize..4,
        nodes in 8usize..21,
    ) {
        check(ProtocolKind::Aodv, seed, speed, rate, approx, faults, load, nodes);
    }

    #[test]
    fn conservation_bgca(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
        load in 0usize..4,
        nodes in 8usize..21,
    ) {
        check(ProtocolKind::Bgca, seed, speed, rate, approx, faults, load, nodes);
    }

    #[test]
    fn conservation_abr(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
        load in 0usize..4,
        nodes in 8usize..21,
    ) {
        check(ProtocolKind::Abr, seed, speed, rate, approx, faults, load, nodes);
    }

    #[test]
    fn conservation_link_state(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
        load in 0usize..4,
        nodes in 8usize..21,
    ) {
        check(ProtocolKind::LinkState, seed, speed, rate, approx, faults, load, nodes);
    }
}
