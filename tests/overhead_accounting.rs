//! Accounting integrity of the overhead metric (Fig. 4's definition):
//! per-kind control bits, ACK bits and the kbps computation must be
//! internally consistent.

use rica_repro::harness::{ProtocolKind, Scenario};
use rica_repro::metrics::TrialSummary;
use rica_repro::net::{ControlKind, DATA_ACK_BYTES};

fn run(kind: ProtocolKind) -> TrialSummary {
    Scenario::builder()
        .nodes(20)
        .flows(4)
        .rate_pps(10.0)
        .mean_speed_kmh(36.0)
        .duration_secs(15.0)
        .seed(14)
        .build()
        .run(kind)
}

#[test]
fn overhead_equals_control_plus_acks_over_time() {
    for kind in ProtocolKind::ALL {
        let r = run(kind);
        let expect = (r.control_bits_total() + r.ack_bits) as f64 / r.duration.as_secs_f64() / 1e3;
        assert!(
            (r.overhead_kbps - expect).abs() < 1e-9,
            "{kind}: overhead {} != {}",
            r.overhead_kbps,
            expect
        );
    }
}

#[test]
fn ack_bits_cover_at_least_the_delivered_hops() {
    // Every successful data hop is acknowledged on the reverse PN code, so
    // the ACK count is at least the delivered packets' total hop count.
    for kind in ProtocolKind::ALL {
        let r = run(kind);
        let acks = r.ack_bits / (DATA_ACK_BYTES as u64 * 8);
        let delivered_hops = (r.avg_hops * r.delivered as f64).round() as u64;
        assert!(acks >= delivered_hops, "{kind}: {acks} ACKs < {delivered_hops} delivered hops");
    }
}

#[test]
fn protocols_emit_only_their_own_vocabulary() {
    let has = |r: &TrialSummary, k: ControlKind| r.control_bits.get(&k).copied().unwrap_or(0) > 0;
    let rica = run(ProtocolKind::Rica);
    assert!(has(&rica, ControlKind::CsiCheck), "RICA must emit CSI checks");
    assert!(!has(&rica, ControlKind::Lsu), "RICA never floods LSUs");
    assert!(!has(&rica, ControlKind::Beacon), "RICA does not beacon");

    let aodv = run(ProtocolKind::Aodv);
    assert!(has(&aodv, ControlKind::Rreq));
    assert!(!has(&aodv, ControlKind::CsiCheck), "AODV is channel-blind");
    assert!(!has(&aodv, ControlKind::Lq), "AODV has no local repair");

    let abr = run(ProtocolKind::Abr);
    assert!(has(&abr, ControlKind::Beacon), "ABR needs associativity beacons");
    assert!(has(&abr, ControlKind::Bq), "ABR discovers with broadcast queries");
    assert!(!has(&abr, ControlKind::Rreq), "ABR uses BQ, not RREQ");

    let bgca = run(ProtocolKind::Bgca);
    assert!(has(&bgca, ControlKind::Rreq));
    assert!(!has(&bgca, ControlKind::CsiCheck), "CSI checking is RICA-only");

    let ls = run(ProtocolKind::LinkState);
    assert!(has(&ls, ControlKind::Lsu));
    assert!(has(&ls, ControlKind::Beacon));
    assert!(!has(&ls, ControlKind::Rreq), "link state never floods RREQs");
}

#[test]
fn control_tx_count_matches_kind_totals() {
    for kind in ProtocolKind::ALL {
        let r = run(kind);
        assert!(r.control_tx_count > 0, "{kind}: no control traffic at all?");
        // Every counted transmission contributed bits to some kind.
        assert!(
            r.control_bits_total() >= r.control_tx_count * 8 * 8,
            "{kind}: {} transmissions but only {} bits",
            r.control_tx_count,
            r.control_bits_total()
        );
    }
}
