//! Golden-metrics regression: fixed-seed trials must reproduce pinned
//! summaries *exactly*.
//!
//! The hot-loop optimisations (spatial grid, flat channel table,
//! zero-allocation event path) are required to keep results byte-identical
//! for fixed seeds. These tests pin the full `TrialSummary` of a few
//! scenarios — recorded before the optimisations landed — as an FNV-1a
//! hash of the summary's `Debug` rendering, plus a couple of plain fields
//! so a mismatch is diagnosable at a glance.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -q --test golden_metrics -- --nocapture
//! ```
//!
//! and paste the printed rows over the `GOLDEN_*` tables.

use rica_exec::{sweep_json, ExecOptions, SweepPlan};
use rica_harness::{sweep::run_plan, ProtocolKind, Scenario};

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `(protocol, summary-debug hash, generated, delivered)`.
type GoldenRow = (ProtocolKind, u64, u64, u64);

fn check(scenario: &Scenario, table: &[GoldenRow], name: &str) {
    for &(kind, want_hash, want_generated, want_delivered) in table {
        let summary = scenario.run(kind);
        let debug = format!("{summary:?}");
        let hash = fnv1a(&debug);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!(
                "({name}) (ProtocolKind::{kind:?}, 0x{hash:016x}, {}, {}),",
                summary.generated, summary.delivered
            );
            continue;
        }
        assert_eq!(
            (summary.generated, summary.delivered),
            (want_generated, want_delivered),
            "{name}/{kind}: generated/delivered drifted from the golden trial"
        );
        assert_eq!(
            hash, want_hash,
            "{name}/{kind}: summary no longer byte-identical; full summary:\n{debug}"
        );
    }
}

/// 12 mobile nodes, 3 flows, 30 s — multi-hop routing under mobility.
#[test]
fn mobile_12_node_summaries_are_pinned() {
    const GOLDEN: &[GoldenRow] = &[
        (ProtocolKind::Rica, 0xf0192fe125b8ffb4, 866, 258),
        (ProtocolKind::Bgca, 0x1b1879ef37d475ac, 866, 254),
        (ProtocolKind::Abr, 0x835d109becd72120, 866, 250),
        (ProtocolKind::Aodv, 0xcfd9cd2a5a21b264, 866, 254),
        (ProtocolKind::LinkState, 0x760c0493d4ffbaf0, 866, 236),
    ];
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .build();
    check(&s, GOLDEN, "mobile12");
}

/// 25 faster nodes, 5 flows — more link breaks and repairs.
#[test]
fn mobile_25_node_summaries_are_pinned() {
    const GOLDEN: &[GoldenRow] = &[
        (ProtocolKind::Rica, 0xe693e27903cc34f6, 1007, 843),
        (ProtocolKind::Bgca, 0xeaca75ffcf62a1bb, 1007, 890),
        (ProtocolKind::Abr, 0xc0fc589aa64d8855, 1007, 729),
        (ProtocolKind::Aodv, 0x7cab4730ab2e9d2a, 1007, 775),
        (ProtocolKind::LinkState, 0x07d0d4ce3f33ad66, 1007, 962),
    ];
    let s = Scenario::builder()
        .nodes(25)
        .flows(5)
        .rate_pps(10.0)
        .duration_secs(20.0)
        .mean_speed_kmh(72.0)
        .seed(11)
        .build();
    check(&s, GOLDEN, "mobile25");
}

/// 12 mobile nodes under a bursty on/off arrival process with bimodal
/// (small-ack / large-data) packet sizes — the `rica-traffic` path. The
/// summary Debug rendering includes the workload block (offered load +
/// per-flow breakdowns), so the hash pins the new accounting too.
#[test]
fn bursty_bimodal_12_node_summaries_are_pinned() {
    use rica_repro::traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};
    const GOLDEN: &[GoldenRow] = &[
        (ProtocolKind::Rica, 0x88018d2b63c9b7d1, 999, 116),
        (ProtocolKind::Bgca, 0x0b29cd30d3ad50e3, 999, 107),
        (ProtocolKind::Abr, 0x62482850aa616c6a, 999, 91),
        (ProtocolKind::Aodv, 0xc767fa92090abe4a, 999, 95),
        (ProtocolKind::LinkState, 0x71746edd6ceb0c6d, 999, 97),
    ];
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .workload(WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Exponential,
            },
            size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
        })
        .build();
    check(&s, GOLDEN, "bursty12");
}

/// 12 mobile nodes under seed-forked crash–reboot churn — pins the
/// fault subsystem end to end: schedule resolution from the trial
/// master seed, cold reboots (a fresh protocol started at the reboot),
/// traffic resumption and the recovery block in the summary Debug
/// rendering.
#[test]
fn churn_12_node_summaries_are_pinned() {
    use rica_repro::faults::FaultPlan;
    const GOLDEN: &[GoldenRow] = &[
        (ProtocolKind::Rica, 0xbfa04f8c1a56324c, 803, 227),
        (ProtocolKind::Bgca, 0xeef9b46f10106cbb, 803, 95),
        (ProtocolKind::Abr, 0x151e218db7ff36cb, 803, 96),
        (ProtocolKind::Aodv, 0x57220fc0136f17f3, 803, 98),
        (ProtocolKind::LinkState, 0xb6bb3e176c65d7f5, 803, 189),
    ];
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .faults(FaultPlan::none().with_churn(12.0, 4.0, 5.0))
        .build();
    check(&s, GOLDEN, "churn12");
}

/// 12 mobile nodes with a timed partition-and-heal episode — pins the
/// link-level blackout (both MAC and routing see the cut), the heal,
/// and the cross-partition recovery accounting.
#[test]
fn partition_heal_12_node_summaries_are_pinned() {
    use rica_repro::faults::{FaultPlan, NodeGroup};
    const GOLDEN: &[GoldenRow] = &[
        (ProtocolKind::Rica, 0x9ef676515139c2c7, 866, 259),
        (ProtocolKind::Bgca, 0x88b7be77c63b682c, 866, 252),
        (ProtocolKind::Abr, 0x97a64b402f27c9c3, 866, 250),
        (ProtocolKind::Aodv, 0xbc057208e3c1fa52, 866, 239),
        (ProtocolKind::LinkState, 0x5570635da4da97a9, 866, 236),
    ];
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .faults(FaultPlan::none().with_partition(10.0, 20.0, NodeGroup::IdBelow(6)))
        .build();
    check(&s, GOLDEN, "partition12");
}

/// The full `sweep_results.json` artifact through `rica-exec` must stay
/// byte-identical (modulo the informational wall-clock/worker fields).
#[test]
fn sweep_results_json_is_byte_identical() {
    const WANT_HASH: u64 = 0x69450152892b2c3c;
    let base = Scenario::builder()
        .nodes(10)
        .flows(2)
        .rate_pps(10.0)
        .duration_secs(8.0)
        .mean_speed_kmh(36.0)
        .seed(5)
        .build();
    let plan = SweepPlan::new(
        vec![ProtocolKind::Rica, ProtocolKind::Aodv],
        vec![18.0, 54.0],
        vec![10],
        2,
        99,
    );
    let mut result = run_plan(&plan, &base, &ExecOptions::serial());
    // Not part of the deterministic payload.
    result.wall_secs = 0.0;
    result.workers = 0;
    let doc = sweep_json(&result, |k| k.name().to_string(), &[]);
    let hash = fnv1a(&doc);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("(sweep) WANT_HASH = 0x{hash:016x};");
        return;
    }
    assert_eq!(hash, WANT_HASH, "sweep artifact no longer byte-identical:\n{doc}");
}
