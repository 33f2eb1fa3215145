//! Channel adaptation: with a noiseless (distance-only) channel, the
//! CSI-aware protocols must choose higher-bandwidth routes than the
//! channel-blind ones — the core claim of the paper.
//!
//! Topology note: RICA's wave mechanism re-broadcasts only the *first* copy
//! of each flood, and a destination's original broadcast always precedes
//! any re-broadcast within its radio range. The mechanism therefore
//! optimises the choice among short (1–3 hop) alternatives, not arbitrary
//! long chains — so the canonical adaptation scenario is the paper's own
//! Figure 1 shape: a direct (or short) low-class route vs. a slightly
//! longer high-class route.

use rica_repro::channel::ChannelConfig;
use rica_repro::harness::{Flow, ProtocolKind, Scenario};
use rica_repro::mobility::Vec2;
use rica_repro::net::NodeId;

/// Channel with no shadowing/fading: the class is a pure function of
/// distance under the default path loss: A ≤ 72 m, B ≤ 122 m, C ≤ 193 m,
/// D ≤ 250 m.
fn deterministic_channel() -> ChannelConfig {
    ChannelConfig { shadow_sigma_db: 0.0, fade_sigma_db: 0.0, ..ChannelConfig::default() }
}

/// Source and destination 240 m apart: the direct link is class D
/// (CSI distance 5), while the midpoint relay offers two class-B links
/// (CSI distance 1.67 + 1.67 = 3.34). A channel-adaptive protocol takes
/// the relay; a hop-count protocol takes the direct link.
fn relay_vs_direct() -> Scenario {
    Scenario::builder()
        .nodes(3)
        .mean_speed_kmh(0.0)
        .duration_secs(40.0)
        .seed(4)
        .channel(deterministic_channel())
        .pinned_positions(vec![
            Vec2::new(100.0, 500.0), // 0: source
            Vec2::new(340.0, 500.0), // 1: destination (240 m away, class D)
            Vec2::new(220.0, 500.0), // 2: midpoint relay (120 m links, class B)
        ])
        .explicit_flows(vec![Flow::new(NodeId(0), NodeId(1), 8.0)])
        .build()
}

#[test]
fn csi_aware_protocols_take_the_relay() {
    for kind in [ProtocolKind::Rica, ProtocolKind::Bgca, ProtocolKind::LinkState] {
        let r = relay_vs_direct().run(kind);
        assert!(r.delivery_ratio() > 0.9, "{kind}: delivery {:.1}%", r.delivery_pct());
        assert!(
            (r.avg_hops - 2.0).abs() < 0.05,
            "{kind} should route via the relay: {:.2} hops",
            r.avg_hops
        );
        assert!(
            (r.avg_link_throughput_kbps - 150.0).abs() < 10.0,
            "{kind} should ride class-B links: {:.0} kbps",
            r.avg_link_throughput_kbps
        );
    }
}

#[test]
fn aodv_takes_the_direct_low_class_link() {
    let r = relay_vs_direct().run(ProtocolKind::Aodv);
    assert!(r.delivery_ratio() > 0.7, "delivery {:.1}%", r.delivery_pct());
    assert!(
        (r.avg_hops - 1.0).abs() < 0.05,
        "AODV replies to the first (direct) RREQ: {:.2} hops",
        r.avg_hops
    );
    assert!(
        (r.avg_link_throughput_kbps - 50.0).abs() < 10.0,
        "AODV rides the class-D link: {:.0} kbps",
        r.avg_link_throughput_kbps
    );
}

#[test]
fn channel_adaptation_pays_off_in_delay() {
    // The class-D direct link serialises a 536 B packet in ~86 ms and
    // saturates at 8 pkt/s; two class-B hops cost ~57 ms total with far
    // less queueing.
    let rica = relay_vs_direct().run(ProtocolKind::Rica);
    let aodv = relay_vs_direct().run(ProtocolKind::Aodv);
    assert!(
        rica.delay_mean_ms < aodv.delay_mean_ms,
        "RICA {:.0} ms should beat AODV {:.0} ms",
        rica.delay_mean_ms,
        aodv.delay_mean_ms
    );
}

#[test]
fn rica_reroutes_when_the_channel_landscape_shifts() {
    // With fading enabled, the relay links wander across classes; RICA must
    // keep delivering by re-selecting routes every CSI period, and its
    // traversed links must on average beat AODV's static choice.
    let mut s = relay_vs_direct();
    s.channel = ChannelConfig::default(); // fading back on
    s.duration = rica_repro::sim::SimDuration::from_secs(60);
    let rica = s.run(ProtocolKind::Rica);
    let aodv = s.run(ProtocolKind::Aodv);
    assert!(rica.delivery_ratio() > 0.85, "RICA delivery {:.1}%", rica.delivery_pct());
    assert!(
        rica.avg_link_throughput_kbps >= aodv.avg_link_throughput_kbps,
        "RICA {:.0} kbps vs AODV {:.0} kbps",
        rica.avg_link_throughput_kbps,
        aodv.avg_link_throughput_kbps
    );
}
