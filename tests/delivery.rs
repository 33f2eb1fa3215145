//! End-to-end delivery across the full stack on controlled topologies.

use rica_repro::harness::{Flow, ProtocolKind, Scenario};
use rica_repro::mobility::Vec2;
use rica_repro::net::NodeId;

/// A static 5-node chain, 200 m spacing: 0—1—2—3—4.
fn chain() -> Scenario {
    Scenario::builder()
        .nodes(5)
        .mean_speed_kmh(0.0)
        .duration_secs(30.0)
        .seed(2)
        .pinned_positions(vec![
            Vec2::new(50.0, 500.0),
            Vec2::new(250.0, 500.0),
            Vec2::new(450.0, 500.0),
            Vec2::new(650.0, 500.0),
            Vec2::new(850.0, 500.0),
        ])
        .explicit_flows(vec![Flow::new(NodeId(0), NodeId(4), 5.0)])
        .build()
}

#[test]
fn all_protocols_deliver_on_a_static_chain() {
    for kind in ProtocolKind::ALL {
        let r = chain().run(kind);
        assert!(r.generated > 100, "{kind}: generated {}", r.generated);
        assert!(r.delivery_ratio() > 0.85, "{kind}: only {:.1}% delivered", r.delivery_pct());
        assert!((r.avg_hops - 4.0).abs() < 0.01, "{kind}: hops {}", r.avg_hops);
        // End-to-end delay must include at least 4 store-and-forward
        // transmissions of a 536-byte packet (≥ 4 × 17 ms on class A).
        assert!(r.delay_mean_ms > 4.0 * 17.0, "{kind}: delay {} ms", r.delay_mean_ms);
    }
}

#[test]
fn partitioned_network_delivers_nothing_but_drops_cleanly() {
    let s = Scenario::builder()
        .nodes(4)
        .mean_speed_kmh(0.0)
        .duration_secs(10.0)
        .seed(3)
        .pinned_positions(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(900.0, 900.0),
            Vec2::new(1000.0, 900.0),
        ])
        .explicit_flows(vec![Flow::new(NodeId(0), NodeId(3), 10.0)])
        .build();
    for kind in ProtocolKind::ALL {
        let r = s.run(kind);
        assert_eq!(r.delivered, 0, "{kind}: delivered across a partition");
        assert!(r.delivered + r.dropped() <= r.generated, "{kind}: accounting broken");
        // Every generated packet is eventually dropped (no silent loss):
        // allow what is still buffered at cut-off.
        assert!(
            r.dropped() + 80 >= r.generated,
            "{kind}: {} generated but only {} dropped",
            r.generated,
            r.dropped()
        );
    }
}

#[test]
fn bidirectional_flows_coexist() {
    let mut s = chain();
    s.explicit_flows =
        Some(vec![Flow::new(NodeId(0), NodeId(4), 5.0), Flow::new(NodeId(4), NodeId(0), 5.0)]);
    for kind in [ProtocolKind::Rica, ProtocolKind::Aodv] {
        let r = s.run(kind);
        assert!(
            r.delivery_ratio() > 0.8,
            "{kind}: bidirectional delivery {:.1}%",
            r.delivery_pct()
        );
    }
}

#[test]
fn route_trace_follows_the_chain() {
    use rica_repro::harness::World;
    use rica_repro::sim::SimTime;
    for kind in ProtocolKind::ALL {
        let s = chain();
        let mut world = World::new(&s, kind, s.seed);
        world.start();
        world.step_until(SimTime::from_secs_f64(10.0));
        let route = world.trace_route(NodeId(0), NodeId(4));
        assert_eq!(
            route,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
            "{kind}: chain route mis-traced"
        );
        let report = world.finish();
        assert!(report.generated > 0);
    }
}

#[test]
fn higher_load_cannot_increase_delivery_ratio_on_a_bottleneck() {
    // 20 pkt/s through the same chain stresses the per-connection buffers;
    // the ratio may only go down relative to 5 pkt/s.
    let slow = chain().run(ProtocolKind::Aodv);
    let mut s = chain();
    s.explicit_flows = Some(vec![Flow::new(NodeId(0), NodeId(4), 30.0)]);
    let fast = s.run(ProtocolKind::Aodv);
    assert!(
        fast.delivery_ratio() <= slow.delivery_ratio() + 0.02,
        "load ↑ should not improve delivery: {:.2} vs {:.2}",
        fast.delivery_ratio(),
        slow.delivery_ratio()
    );
}
