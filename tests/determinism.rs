//! Cross-crate determinism: identical seeds must give bit-identical trials
//! for every protocol, and the parallel runner must preserve that.

use rica_repro::exec::{ExecOptions, SweepPlan};
use rica_repro::harness::{sweep, ProtocolKind, Scenario};
use rica_repro::metrics::TrialSummary;

fn scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .nodes(15)
        .flows(3)
        .duration_secs(12.0)
        .mean_speed_kmh(36.0)
        .seed(seed)
        .build()
}

#[test]
fn identical_seeds_identical_summaries() {
    for kind in ProtocolKind::ALL {
        let a = scenario(5).run(kind);
        let b = scenario(5).run(kind);
        assert_eq!(a, b, "{kind} not deterministic");
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = scenario(5).run(ProtocolKind::Rica);
    let b = scenario(6).run(ProtocolKind::Rica);
    assert_ne!(a, b, "seeds should matter");
}

/// The trials of a one-protocol plan of `s` at its own speed and node
/// count: seeds `s.seed + 0..n`.
fn trials(s: &Scenario, kind: ProtocolKind, n: usize, opts: &ExecOptions) -> Vec<TrialSummary> {
    let plan = SweepPlan::new(vec![kind], vec![s.mean_speed_kmh], vec![s.nodes], n, s.seed);
    sweep::run_plan(&plan, s, opts).cells_for(kind)[0].trials.clone()
}

#[test]
fn parallel_runner_matches_direct_runs() {
    let s = scenario(9);
    let batch = trials(&s, ProtocolKind::Bgca, 3, &ExecOptions::default());
    for (i, summary) in batch.iter().enumerate() {
        let direct = s.run_seeded(ProtocolKind::Bgca, s.seed + i as u64);
        assert_eq!(*summary, direct, "trial {i} differs under threading");
    }
}

/// The exec engine's hard invariant: the same plan and seed produce
/// identical `TrialSummary` vectors and merged `Aggregate`s with 1, 2 and
/// 8 workers, no matter how completion order raced.
#[test]
fn worker_count_never_changes_results() {
    let base = Scenario::builder().nodes(10).flows(2).duration_secs(8.0).seed(21).build();
    let plan = SweepPlan::new(
        vec![ProtocolKind::Rica, ProtocolKind::Aodv],
        vec![0.0, 36.0],
        vec![10],
        3,
        21,
    );
    let reference = sweep::run_plan(&plan, &base, &ExecOptions::serial());
    for workers in [2, 8] {
        let racy = sweep::run_plan(&plan, &base, &ExecOptions::with_workers(workers));
        assert_eq!(racy.cells.len(), reference.cells.len());
        for (r, s) in reference.cells.iter().zip(&racy.cells) {
            assert_eq!(r.trials, s.trials, "{workers} workers changed a TrialSummary");
            assert_eq!(r.aggregate, s.aggregate, "{workers} workers changed an Aggregate");
        }
    }
}

/// Same invariant for the trials of a one-protocol plan.
#[test]
fn run_trials_is_worker_count_invariant() {
    let s = scenario(33);
    let reference = trials(&s, ProtocolKind::Bgca, 5, &ExecOptions::serial());
    for workers in [2, 8] {
        let racy = trials(&s, ProtocolKind::Bgca, 5, &ExecOptions::with_workers(workers));
        assert_eq!(reference, racy, "{workers} workers changed the trials");
    }
}

/// The JSON artifact is byte-identical across worker counts (it contains
/// no scheduling-dependent data besides the explicitly-excluded wall
/// clock, which we normalise here).
#[test]
fn sweep_artifact_is_worker_count_invariant() {
    let base = scenario(3);
    let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![36.0], vec![10], 2, 3);
    let render = |workers| {
        let mut result = sweep::run_plan(&plan, &base, &ExecOptions::with_workers(workers));
        result.wall_secs = 0.0;
        result.workers = 0;
        rica_repro::exec::sweep_json(&result, |k| k.name().to_string(), &[])
    };
    assert_eq!(render(1), render(4), "artifact bytes depend on worker count");
}

/// The workload axis keeps the hard invariant at overload scale: a
/// 200-node bursty 20 pkt/s sweep over three distinct workload shapes
/// renders byte-identical `sweep_results.json` artifacts with 1, 2 and
/// 8 workers.
#[test]
fn bursty_overload_sweep_is_worker_count_invariant() {
    use rica_repro::traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};
    let base = Scenario::builder()
        .nodes(200)
        .flows(10)
        .rate_pps(20.0) // the paper's overload regime
        .duration_secs(5.0)
        .seed(17)
        .build();
    let workloads = vec![
        WorkloadSpec::default(),
        WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Exponential,
            },
            size: SizeSpec::Fixed,
        },
        WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Pareto { shape: 1.5 },
            },
            size: SizeSpec::Bimodal { small: 40, large: 1460, p_small: 0.3 },
        },
    ];
    let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![36.0], vec![200], 1, 17)
        .with_workloads(workloads);
    let render = |workers| {
        let mut result = sweep::run_plan(&plan, &base, &ExecOptions::with_workers(workers));
        result.wall_secs = 0.0;
        result.workers = 0;
        rica_repro::exec::sweep_json(&result, |k| k.name().to_string(), &[])
    };
    let reference = render(1);
    assert!(reference.contains("\"workloads\":["), "axis must be named in the artifact");
    for workers in [2, 8] {
        assert_eq!(render(workers), reference, "{workers} workers changed the artifact");
    }
}

/// The fault axis keeps the hard invariant: a sweep over a fault-free
/// baseline, a churn regime and a crash+partition regime renders
/// byte-identical `sweep_results.json` artifacts with 1, 2 and 8
/// workers — fault schedules are pre-resolved from forked seed streams,
/// so worker scheduling can never reorder them.
#[test]
fn faulted_sweep_is_worker_count_invariant() {
    use rica_repro::faults::{FaultPlan, NodeGroup, NodeId};
    let base =
        Scenario::builder().nodes(15).flows(3).rate_pps(10.0).duration_secs(12.0).seed(29).build();
    let faults = vec![
        FaultPlan::none(),
        FaultPlan::none().with_churn(8.0, 3.0, 2.0),
        FaultPlan::none().with_crash(NodeId(4), 3.0, Some(2.5)).with_partition(
            5.0,
            9.0,
            NodeGroup::IdBelow(7),
        ),
    ];
    let plan =
        SweepPlan::new(vec![ProtocolKind::Rica, ProtocolKind::Aodv], vec![36.0], vec![15], 2, 29)
            .with_faults(faults);
    let render = |workers| {
        let mut result = sweep::run_plan(&plan, &base, &ExecOptions::with_workers(workers));
        result.wall_secs = 0.0;
        result.workers = 0;
        rica_repro::exec::sweep_json(&result, |k| k.name().to_string(), &[])
    };
    let reference = render(1);
    assert!(reference.contains("\"faults\":["), "axis must be named in the artifact");
    assert!(reference.contains("\"recovery\":{"), "faulted cells must report recovery");
    for workers in [2, 8] {
        assert_eq!(render(workers), reference, "{workers} workers changed the artifact");
    }
}

#[test]
fn protocol_does_not_perturb_other_seeds() {
    // The trial for seed k is independent of which other seeds ran before.
    let s = scenario(3);
    let alone = s.run_seeded(ProtocolKind::Aodv, 11);
    let _warmup = s.run_seeded(ProtocolKind::Aodv, 10);
    let after = s.run_seeded(ProtocolKind::Aodv, 11);
    assert_eq!(alone, after);
}
