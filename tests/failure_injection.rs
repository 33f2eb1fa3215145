//! Failure injection: terminals crash mid-run; routing must degrade
//! gracefully (detect the silent neighbour, reroute if physically possible,
//! account for every packet). Every fault is a declarative `rica-faults`
//! plan: the first half pins permanent crashes, the second half
//! exercises crash–reboot recovery, partition-and-heal and churn.

use rica_repro::faults::{FaultPlan, NodeGroup};
use rica_repro::harness::{Flow, ProtocolKind, Scenario};
use rica_repro::metrics::TrialSummary;
use rica_repro::mobility::Vec2;
use rica_repro::net::NodeId;

/// `(generated, delivered, dropped)` of a trial, the values the
/// permanent-crash tests pin.
fn counts(r: &TrialSummary) -> (u64, u64, u64) {
    (r.generated, r.delivered, r.dropped())
}

/// A permanent crash of `node` at `at_secs`.
fn crash(node: u32, at_secs: f64) -> FaultPlan {
    FaultPlan::none().with_crash(NodeId(node), at_secs, None)
}

/// 0 → {1 (upper), 2 (lower)} → 3: two disjoint relays, either suffices.
fn two_relay_diamond(faults: FaultPlan) -> Scenario {
    Scenario::builder()
        .nodes(4)
        .mean_speed_kmh(0.0)
        .duration_secs(40.0)
        .seed(8)
        .pinned_positions(vec![
            Vec2::new(100.0, 500.0),
            Vec2::new(280.0, 580.0),
            Vec2::new(280.0, 420.0),
            Vec2::new(460.0, 500.0),
        ])
        .explicit_flows(vec![Flow::new(NodeId(0), NodeId(3), 8.0)])
        .faults(faults)
        .build()
}

#[test]
fn crash_of_one_relay_is_survivable() {
    // Pinned (generated, delivered, dropped) per protocol, in
    // `ProtocolKind::ALL` order.
    let pinned = [(290, 289, 0), (290, 287, 1), (290, 288, 0), (290, 288, 0), (290, 289, 0)];
    for (kind, want) in ProtocolKind::ALL.into_iter().zip(pinned) {
        let baseline = two_relay_diamond(FaultPlan::none()).run(kind);
        let with_crash = two_relay_diamond(crash(1, 15.0)).run(kind);
        assert!(
            baseline.delivery_ratio() > 0.9,
            "{kind}: baseline should be clean ({:.1}%)",
            baseline.delivery_pct()
        );
        assert!(
            with_crash.delivery_ratio() > 0.6,
            "{kind}: should reroute via the surviving relay ({:.1}%)",
            with_crash.delivery_pct()
        );
        assert!(
            with_crash.delivered + with_crash.dropped() <= with_crash.generated,
            "{kind}: accounting broken after crash"
        );
        assert_eq!(counts(&with_crash), want, "{kind}: pinned crash counts moved");
    }
}

#[test]
fn crash_of_the_only_relay_stops_delivery() {
    // Chain 0 — 1 — 2 with no alternative path.
    let s = three_node_chain(30.0, crash(1, 10.0));
    let pinned = [(223, 74, 140), (223, 74, 140), (223, 74, 140), (223, 74, 140), (223, 74, 149)];
    for (kind, want) in ProtocolKind::ALL.into_iter().zip(pinned) {
        let r = s.run(kind);
        // Roughly the first 10 s of traffic can arrive; nothing after.
        let upper_bound = (8.0 * 13.0) as u64; // 10 s + in-flight slack
        assert!(
            r.delivered <= upper_bound,
            "{kind}: {} delivered after the only relay died",
            r.delivered
        );
        assert!(r.delivered > 30, "{kind}: pre-crash traffic should arrive");
        assert_eq!(counts(&r), want, "{kind}: pinned crash counts moved");
    }
}

#[test]
fn crashed_source_stops_generating() {
    let r = two_relay_diamond(crash(0, 10.0)).run(ProtocolKind::Rica);
    // ~8 pkt/s for ~10 s, Poisson: well under 120.
    assert!(r.generated < 120, "source kept generating after its crash: {}", r.generated);
    assert_eq!(counts(&r), (75, 74, 1), "pinned crash counts moved");
}

#[test]
fn crash_is_deterministic() {
    let s = two_relay_diamond(crash(2, 12.5));
    let r = s.run(ProtocolKind::Bgca);
    assert_eq!(r, s.run(ProtocolKind::Bgca));
    assert_eq!(counts(&r), (290, 288, 0), "pinned crash counts moved");
}

// ---------------------------------------------------------------------
// Declarative fault plans (`rica-faults`): recovery, not just survival.

/// Chain 0 — 1 — 2 with no alternative path, lasting `duration_secs`,
/// under the given fault plan.
fn three_node_chain(duration_secs: f64, faults: FaultPlan) -> Scenario {
    Scenario::builder()
        .nodes(3)
        .mean_speed_kmh(0.0)
        .duration_secs(duration_secs)
        .seed(8)
        .pinned_positions(vec![
            Vec2::new(100.0, 500.0),
            Vec2::new(300.0, 500.0),
            Vec2::new(500.0, 500.0),
        ])
        .explicit_flows(vec![Flow::new(NodeId(0), NodeId(2), 8.0)])
        .faults(faults)
        .build()
}

/// A crashed-then-rebooted relay must let delivery resume: the cold
/// rejoin re-forms the route and the post-reboot window delivers far
/// more than the pre-crash window alone ever could.
#[test]
fn reboot_resumes_delivery() {
    for kind in ProtocolKind::ALL {
        let permanent = three_node_chain(40.0, crash(1, 10.0));
        let rebooted =
            three_node_chain(40.0, FaultPlan::none().with_crash(NodeId(1), 10.0, Some(5.0)));
        let dead = permanent.run(kind);
        let back = rebooted.run(kind);
        let r = back.recovery.expect("faulted trial records recovery");
        assert_eq!((r.crashes, r.reboots), (1, 1), "{kind}: schedule should fire once each");
        assert!(
            back.delivered > dead.delivered + 50,
            "{kind}: reboot should resume delivery ({} vs {} permanent)",
            back.delivered,
            dead.delivered
        );
        assert!(
            back.delivered + back.dropped() <= back.generated,
            "{kind}: accounting broken across reboot"
        );
    }
}

/// A healed partition must let the cross-partition flow recover: the
/// disruption window opened by the first post-cut drop closes on the
/// first post-heal delivery.
#[test]
fn heal_recovers_cross_partition_flow() {
    for kind in ProtocolKind::ALL {
        // The cut isolates the source (node 0) from relay and sink.
        let healed = three_node_chain(
            40.0,
            FaultPlan::none().with_partition(10.0, 22.0, NodeGroup::IdBelow(1)),
        );
        let r = healed.run(kind);
        let rec = r.recovery.expect("faulted trial records recovery");
        assert_eq!((rec.partitions, rec.heals), (1, 1), "{kind}: episode should fire once each");
        assert!(
            rec.disrupted_flows >= 1,
            "{kind}: the cut should disrupt the cross-partition flow"
        );
        assert_eq!(
            rec.unrecovered_flows, 0,
            "{kind}: every disrupted flow should recover after the heal ({rec:?})"
        );
        assert!(
            rec.delivered_intact > 0,
            "{kind}: deliveries should land outside the episode ({rec:?})"
        );
        assert!(
            rec.disruption_mean_ms > 0.0 && rec.reroute_mean_ms >= rec.disruption_mean_ms,
            "{kind}: a 12 s cut should leave a measurable disruption window ({rec:?})"
        );
        assert!(r.delivered + r.dropped() <= r.generated, "{kind}: accounting broken across heal");
    }
}

/// Churn conserves packets for every protocol: crash–reboot cycles must
/// never mint or leak packets, and the recovery counters must be
/// internally consistent.
#[test]
fn churn_conserves_packets() {
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .faults(FaultPlan::none().with_churn(10.0, 4.0, 3.0))
        .build();
    for kind in ProtocolKind::ALL {
        let r = s.run(kind);
        let rec = r.recovery.expect("churned trial records recovery");
        assert!(rec.crashes > 0, "{kind}: 30 s of churn(up10,down4) should crash someone");
        assert!(rec.reboots <= rec.crashes, "{kind}: a reboot needs a prior crash ({rec:?})");
        assert!(
            r.delivered + r.dropped() <= r.generated,
            "{kind}: churn broke packet conservation ({} + {} > {})",
            r.delivered,
            r.dropped(),
            r.generated
        );
        assert_eq!(
            rec.recovered_flows + rec.unrecovered_flows,
            rec.disrupted_flows,
            "{kind}: disruption-window bookkeeping inconsistent ({rec:?})"
        );
    }
}

/// Fault plans are part of the deterministic contract: same plan, same
/// seed, same bytes.
#[test]
fn fault_plans_are_deterministic() {
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(20.0)
        .mean_speed_kmh(36.0)
        .seed(9)
        .faults(FaultPlan::none().with_churn(8.0, 3.0, 2.0).with_partition(
            6.0,
            12.0,
            NodeGroup::IdBelow(6),
        ))
        .build();
    assert_eq!(s.run(ProtocolKind::Rica), s.run(ProtocolKind::Rica));
}
