//! Smoke tests of the paper's headline orderings at reduced scale. These
//! use multiple trials and generous margins: they verify the *shape* of the
//! results; the full-scale magnitudes come from the figures binary (see
//! the README's "Quickstart" section). A test that compares protocols
//! runs one plan over them, so every protocol runs the same seeded trials.

use rica_repro::exec::{ExecOptions, SweepPlan, SweepResult};
use rica_repro::harness::{sweep, ProtocolKind, Scenario};
use rica_repro::metrics::Aggregate;
use rica_repro::sim::SimDuration;

/// The 40-node, 10 pkt/s template; a plan supplies the speed and the
/// seeds.
fn scenario() -> Scenario {
    Scenario::builder().nodes(40).flows(8).rate_pps(10.0).duration_secs(40.0).seed(21).build()
}

const TRIALS: usize = 3;

/// Runs `protocols` at `speed` km/h on `base` as one plan.
fn run(base: &Scenario, protocols: &[ProtocolKind], speed: f64) -> SweepResult<ProtocolKind> {
    let plan = SweepPlan::new(protocols.to_vec(), vec![speed], vec![base.nodes], TRIALS, base.seed);
    sweep::run_plan(&plan, base, &ExecOptions::default())
}

/// `kind`'s aggregate over the plan's trials.
fn cell(result: &SweepResult<ProtocolKind>, kind: ProtocolKind) -> &Aggregate {
    &result.cells_for(kind)[0].aggregate
}

#[test]
fn rica_delivers_at_least_as_well_as_aodv_when_mobile() {
    let result = run(&scenario(), &[ProtocolKind::Rica, ProtocolKind::Aodv], 54.0);
    let (rica, aodv) = (cell(&result, ProtocolKind::Rica), cell(&result, ProtocolKind::Aodv));
    assert!(
        rica.delivery_pct.mean() > aodv.delivery_pct.mean() - 1.0,
        "RICA {:.1}% should not trail AODV {:.1}%",
        rica.delivery_pct.mean(),
        aodv.delivery_pct.mean()
    );
}

#[test]
fn rica_delay_beats_channel_blind_protocols_when_mobile() {
    let protocols = [ProtocolKind::Rica, ProtocolKind::Aodv, ProtocolKind::Abr];
    let result = run(&scenario(), &protocols, 54.0);
    let [rica, aodv, abr] = protocols.map(|kind| cell(&result, kind));
    assert!(
        rica.delay_ms.mean() < aodv.delay_ms.mean() * 1.1,
        "RICA delay {:.0} vs AODV {:.0}",
        rica.delay_ms.mean(),
        aodv.delay_ms.mean()
    );
    assert!(
        rica.delay_ms.mean() < abr.delay_ms.mean() * 1.1,
        "RICA delay {:.0} vs ABR {:.0}",
        rica.delay_ms.mean(),
        abr.delay_ms.mean()
    );
}

#[test]
fn link_state_floods_dominate_overhead() {
    let protocols =
        [ProtocolKind::LinkState, ProtocolKind::Rica, ProtocolKind::Abr, ProtocolKind::Aodv];
    let result = run(&scenario(), &protocols, 36.0);
    let ls = cell(&result, ProtocolKind::LinkState);
    for &kind in &protocols[1..] {
        let other = cell(&result, kind);
        assert!(
            ls.overhead_kbps.mean() > 1.5 * other.overhead_kbps.mean(),
            "LS overhead {:.0} should dwarf {} {:.0}",
            ls.overhead_kbps.mean(),
            kind.name(),
            other.overhead_kbps.mean()
        );
    }
}

#[test]
fn rica_overhead_exceeds_aodv_overhead() {
    // The price of CSI checking (§III.D): RICA pays more overhead than the
    // protocols that do not track the channel.
    let result = run(&scenario(), &[ProtocolKind::Rica, ProtocolKind::Aodv], 36.0);
    let (rica, aodv) = (cell(&result, ProtocolKind::Rica), cell(&result, ProtocolKind::Aodv));
    assert!(
        rica.overhead_kbps.mean() > aodv.overhead_kbps.mean(),
        "RICA {:.0} kbps should exceed AODV {:.0} kbps",
        rica.overhead_kbps.mean(),
        aodv.overhead_kbps.mean()
    );
}

#[test]
fn csi_checking_trades_overhead_for_delivery() {
    // RICA's price (§I): "the amount of routing overhead is greater due to
    // the periodical broadcast CSI checking packets". Checking less often
    // saves overhead; checking at the paper's 1 s period keeps routes
    // fresher than checking every 4 s.
    // The period is a protocol parameter, not a plan axis: one plan per
    // period, each on the same seeds.
    let rica_with_period = |secs: f64| {
        let mut base = scenario();
        base.protocol.csi_check_period = SimDuration::from_secs_f64(secs);
        run(&base, &[ProtocolKind::Rica], 36.0)
    };
    let runs = [0.25, 1.0, 4.0].map(rica_with_period);
    let overhead = runs.each_ref().map(|r| cell(r, ProtocolKind::Rica).overhead_kbps.mean());
    let delivery = runs.each_ref().map(|r| cell(r, ProtocolKind::Rica).delivery_pct.mean());
    assert!(
        overhead[0] > overhead[1] && overhead[1] > overhead[2],
        "overhead (kbps) at 0.25 / 1 / 4 s should strictly fall: {overhead:?}"
    );
    assert!(delivery[1] > delivery[2], "delivery (%) at 1 s should beat 4 s: {delivery:?}");
}

#[test]
fn mobility_degrades_link_state_delivery() {
    // This effect needs the paper's full 50-node density: with sparser
    // networks, random-waypoint mobility *heals* partitions and masks the
    // LSU-staleness collapse.
    let dense = |speed: f64| {
        Scenario::builder()
            .nodes(50)
            .flows(10)
            .rate_pps(10.0)
            .mean_speed_kmh(speed)
            .duration_secs(30.0)
            .seed(21)
            .build()
    };
    let static_run = dense(0.0).run(ProtocolKind::LinkState);
    let mobile_run = dense(72.0).run(ProtocolKind::LinkState);
    assert!(
        mobile_run.delivery_pct() < static_run.delivery_pct() - 5.0,
        "LS delivery should collapse with speed: {:.1}% → {:.1}%",
        static_run.delivery_pct(),
        mobile_run.delivery_pct()
    );
    assert!(
        mobile_run.ctrl_queue_drops > 5 * static_run.ctrl_queue_drops.max(1),
        "mobile LS should congest its MAC queues: {} vs {}",
        mobile_run.ctrl_queue_drops,
        static_run.ctrl_queue_drops
    );
}

#[test]
fn link_state_routes_have_highest_link_throughput() {
    // Fig. 5(a): Dijkstra on CSI costs rides the best links.
    let result = run(&scenario(), &[ProtocolKind::LinkState, ProtocolKind::Aodv], 72.0);
    let (ls, aodv) = (cell(&result, ProtocolKind::LinkState), cell(&result, ProtocolKind::Aodv));
    assert!(
        ls.link_throughput_kbps.mean() > aodv.link_throughput_kbps.mean(),
        "LS {:.0} kbps vs AODV {:.0} kbps",
        ls.link_throughput_kbps.mean(),
        aodv.link_throughput_kbps.mean()
    );
}
