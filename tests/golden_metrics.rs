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
//! Each trial also pins its work counts from `World::diagnostics()`
//! (profiling off): events popped and still pending, channel pairs,
//! decay-cache hits and misses, and medium transmissions. They are exact
//! on any host, so a change that does more work for the same results
//! (say, twice the events per delivery) fails here even when no summary
//! field moves.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -q --test golden_metrics -- --nocapture
//! ```
//!
//! and paste the printed rows over the `GOLDEN` and `WORK` tables.

use rica_exec::{sweep_json, ExecOptions, SweepPlan};
use rica_harness::{sweep::run_plan, ProtocolKind, Scenario, World};
use rica_sim::SimTime;

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

/// One trial's work counts, read from `World::diagnostics()` at the end
/// of the trial.
#[derive(Debug, PartialEq)]
struct Work {
    /// Events popped from the queue.
    popped: u64,
    /// Events still queued that would be handled.
    pending: usize,
    /// Channel pair processes instantiated.
    pairs: usize,
    /// Decay-cache hits.
    hits: u64,
    /// Decay-cache misses.
    misses: u64,
    /// Transmissions begun on the common medium.
    txs: u64,
}

/// Runs each golden trial and checks its summary against `table` and its
/// work counts against the row of `work` at the same position.
fn check(scenario: &Scenario, table: &[GoldenRow], work: &[Work], name: &str) {
    for (i, &(kind, want_hash, want_generated, want_delivered)) in table.iter().enumerate() {
        // `Scenario::run`, with the diagnostics read before `finish`.
        let mut world = World::new(scenario, kind, scenario.seed);
        world.start();
        world.step_until(SimTime::MAX);
        let d = world.diagnostics();
        let (hits, misses) = d.decay_cache.expect("the decay caches are always on");
        let got = Work {
            popped: d.popped_events,
            pending: d.pending_events,
            pairs: d.channel_active_pairs,
            hits,
            misses,
            txs: d.medium_txs,
        };
        let summary = world.finish();
        let debug = format!("{summary:?}");
        let hash = fnv1a(&debug);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!(
                "({name}) (ProtocolKind::{kind:?}, 0x{hash:016x}, {}, {}),",
                summary.generated, summary.delivered
            );
            println!("({name}) {got:?},");
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
        assert_eq!(Some(&got), work.get(i), "{name}/{kind}: work counts drifted");
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
    const WORK: &[Work] = &[
        Work { popped: 3981, pending: 9, pairs: 22, hits: 620, misses: 4356, txs: 949 },
        Work { popped: 7593, pending: 20, pairs: 22, hits: 674, misses: 4838, txs: 912 },
        Work { popped: 4896, pending: 20, pairs: 24, hits: 800, misses: 5376, txs: 1214 },
        Work { popped: 3815, pending: 7, pairs: 22, hits: 746, misses: 3994, txs: 856 },
        Work { popped: 4809, pending: 30, pairs: 24, hits: 4130, misses: 6230, txs: 801 },
    ];
    let s = Scenario::builder()
        .nodes(12)
        .flows(3)
        .rate_pps(10.0)
        .duration_secs(30.0)
        .mean_speed_kmh(36.0)
        .seed(7)
        .build();
    check(&s, GOLDEN, WORK, "mobile12");
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
    const WORK: &[Work] = &[
        Work { popped: 11309, pending: 17, pairs: 138, hits: 6468, misses: 15800, txs: 1785 },
        Work { popped: 17647, pending: 38, pairs: 137, hits: 8116, misses: 19466, txs: 2281 },
        Work { popped: 9956, pending: 43, pairs: 138, hits: 7478, misses: 14478, txs: 1466 },
        Work { popped: 7901, pending: 12, pairs: 134, hits: 6624, misses: 8092, txs: 1005 },
        Work { popped: 38157, pending: 64, pairs: 140, hits: 27182, misses: 87668, txs: 10002 },
    ];
    let s = Scenario::builder()
        .nodes(25)
        .flows(5)
        .rate_pps(10.0)
        .duration_secs(20.0)
        .mean_speed_kmh(72.0)
        .seed(11)
        .build();
    check(&s, GOLDEN, WORK, "mobile25");
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
    const WORK: &[Work] = &[
        Work { popped: 2816, pending: 7, pairs: 22, hits: 420, misses: 2640, txs: 562 },
        Work { popped: 6235, pending: 18, pairs: 22, hits: 354, misses: 2266, txs: 502 },
        Work { popped: 3633, pending: 17, pairs: 24, hits: 466, misses: 3380, txs: 831 },
        Work { popped: 2573, pending: 5, pairs: 22, hits: 310, misses: 2092, txs: 490 },
        Work { popped: 4761, pending: 29, pairs: 24, hits: 4236, misses: 5742, txs: 803 },
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
    check(&s, GOLDEN, WORK, "bursty12");
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
    const WORK: &[Work] = &[
        Work { popped: 3126, pending: 6, pairs: 19, hits: 402, misses: 2834, txs: 742 },
        Work { popped: 5997, pending: 16, pairs: 19, hits: 242, misses: 3172, txs: 807 },
        Work { popped: 4005, pending: 16, pairs: 21, hits: 442, misses: 3674, txs: 1067 },
        Work { popped: 3067, pending: 7, pairs: 19, hits: 258, misses: 2858, txs: 778 },
        Work { popped: 3929, pending: 22, pairs: 21, hits: 2294, misses: 4048, txs: 629 },
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
    check(&s, GOLDEN, WORK, "churn12");
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
    const WORK: &[Work] = &[
        Work { popped: 3881, pending: 8, pairs: 22, hits: 542, misses: 4324, txs: 886 },
        Work { popped: 7464, pending: 20, pairs: 22, hits: 652, misses: 4668, txs: 846 },
        Work { popped: 4738, pending: 20, pairs: 24, hits: 796, misses: 5000, txs: 1147 },
        Work { popped: 3671, pending: 8, pairs: 22, hits: 630, misses: 3896, txs: 804 },
        Work { popped: 4753, pending: 35, pairs: 24, hits: 3658, misses: 5838, txs: 781 },
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
    check(&s, GOLDEN, WORK, "partition12");
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
