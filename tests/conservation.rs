//! Packet conservation and metric sanity across random scenarios
//! (property-style, over seeds, parameters, channel tiers and fault
//! plans).

use proptest::prelude::*;
use rica_repro::channel::{ChannelConfig, ChannelFidelity};
use rica_repro::faults::{FaultPlan, NodeGroup};
use rica_repro::harness::{ProtocolKind, Scenario};

/// The fault plans a case draws from, for its 14 nodes and 10 s.
fn fault_plan(pick: usize) -> FaultPlan {
    match pick {
        0 => FaultPlan::none(),
        1 => FaultPlan::none().with_churn(4.0, 1.0, 0.0),
        _ => FaultPlan::none().with_partition(3.0, 6.0, NodeGroup::IdBelow(7)),
    }
}

fn check(kind: ProtocolKind, seed: u64, speed: f64, rate: f64, approx: bool, faults: usize) {
    let fidelity = if approx { ChannelFidelity::Approx } else { ChannelFidelity::Exact };
    let s = Scenario::builder()
        .nodes(14)
        .flows(3)
        .rate_pps(rate)
        .mean_speed_kmh(speed)
        .duration_secs(10.0)
        .seed(seed)
        .channel(ChannelConfig { fidelity, ..ChannelConfig::default() })
        .faults(fault_plan(faults))
        .build();
    let r = s.run(kind);
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
        assert!(r.delay_mean_ms >= 536.0 * 8.0 / 250_000.0 * 1e3 * 0.99);
    }
    // Time series totals must match delivered counts (bits conservation).
    let bits_series: f64 = r.throughput_kbps.iter().sum::<f64>() * 4.0 * 1e3;
    let bits_delivered = r.delivered as f64 * 536.0 * 8.0;
    assert!(
        (bits_series - bits_delivered).abs() < 1.0,
        "{kind}: series {} bits vs delivered {} bits",
        bits_series,
        bits_delivered
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conservation_rica(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
    ) {
        check(ProtocolKind::Rica, seed, speed, rate, approx, faults);
    }

    #[test]
    fn conservation_aodv(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
    ) {
        check(ProtocolKind::Aodv, seed, speed, rate, approx, faults);
    }

    #[test]
    fn conservation_bgca(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
    ) {
        check(ProtocolKind::Bgca, seed, speed, rate, approx, faults);
    }

    #[test]
    fn conservation_abr(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
    ) {
        check(ProtocolKind::Abr, seed, speed, rate, approx, faults);
    }

    #[test]
    fn conservation_link_state(
        seed in 0u64..1000,
        speed in 0.0f64..80.0,
        rate in 2.0f64..25.0,
        approx in any::<bool>(),
        faults in 0usize..3,
    ) {
        check(ProtocolKind::LinkState, seed, speed, rate, approx, faults);
    }
}
