//! Harness-level bindings for the `rica-exec` execution engine.
//!
//! `rica-exec` is deliberately ignorant of what a scenario is: its
//! [`SweepPlan`] carries protocol labels, speeds, node counts and trial
//! seeds, and the caller supplies the function that turns one
//! [`TrialJob`] into a [`TrialSummary`](rica_metrics::TrialSummary).
//! This module supplies that function for the paper's simulator: a base
//! [`Scenario`] acts as the template, and each job overrides the swept
//! axes (nodes, mean speed, workload, channel fidelity, fault plan)
//! before running one seeded [`World`] trial.

use std::path::Path;

use rica_exec::{ExecOptions, SweepPlan, SweepResult, TrialJob};
use rica_metrics::json::{push_object, push_string};
use rica_metrics::TrialSummary;
use rica_trace::JsonlSink;
use rica_traffic::WorkloadSpec;

use crate::{ProtocolKind, Scenario, World};

/// Runs one job of `plan` against the template scenario; the job carries
/// only indices for the workload and fault axes, so the plan itself is
/// needed to resolve them.
///
/// # Panics
///
/// Panics if the job's node count breaks a template invariant the
/// builder would normally enforce: fewer than 2 nodes, or a template
/// with pinned positions whose length differs from the job's node count
/// (pinned topologies cannot be node-count swept). Also panics if the
/// job's fault plan is invalid for the job's node count.
pub fn run_job(
    base: &Scenario,
    plan: &SweepPlan<ProtocolKind>,
    job: &TrialJob<ProtocolKind>,
) -> TrialSummary {
    let scenario = job_scenario(base, plan, job);
    World::new(&scenario, job.protocol, job.seed).run()
}

/// The job's concrete scenario: the template with the swept axes applied
/// (and the template invariants re-checked — see [`run_job`]).
fn job_scenario(
    base: &Scenario,
    plan: &SweepPlan<ProtocolKind>,
    job: &TrialJob<ProtocolKind>,
) -> Scenario {
    assert!(job.nodes >= 2, "sweep node count must be at least 2, got {}", job.nodes);
    if let Some(pinned) = &base.pinned_positions {
        assert!(
            pinned.len() == job.nodes,
            "template pins {} positions but the plan asks for {} nodes; \
             pinned topologies cannot be node-count swept",
            pinned.len(),
            job.nodes
        );
    }
    let workload: &WorkloadSpec = &plan.workloads[job.workload];
    let faults = &plan.faults[job.faults];
    faults.validate(job.nodes).expect("invalid fault plan for swept node count");
    let mut scenario = base.clone();
    scenario.nodes = job.nodes;
    scenario.mean_speed_kmh = job.speed_kmh;
    scenario.workload = workload.clone();
    scenario.channel.fidelity = job.fidelity;
    scenario.faults = faults.clone();
    scenario
}

/// Executes `plan` over the worker pool: every job runs `base` with the
/// job's node count, mean speed, workload, channel fidelity, fault plan,
/// protocol and seed.
///
/// The template's own `nodes`, `mean_speed_kmh`, `workload`,
/// `channel.fidelity`, `faults` and `seed` are ignored — the plan's axes
/// are authoritative. (Per-flow workload overrides on explicit template
/// flows still win over the plan axis, like every other per-flow field.)
pub fn run_plan(
    plan: &SweepPlan<ProtocolKind>,
    base: &Scenario,
    opts: &ExecOptions,
) -> SweepResult<ProtocolKind> {
    plan.run(opts, |job| run_job(base, plan, job))
}

/// Like [`run_plan`], but jobs of cells marked by
/// [`SweepPlan::with_traced_cells`] additionally stream a JSONL event
/// trace into `trace_dir/trace_c<cell>_t<trial>.jsonl`.
///
/// Every job writes its own file, so worker scheduling cannot interleave
/// traces, and tracing never touches the summaries: the sweep result —
/// and the sweep JSON rendered from it — is bit-identical to
/// [`run_plan`]'s (pinned by the tests here and the trace-identity
/// suite).
///
/// # Panics
///
/// Panics if `trace_dir` cannot be created.
pub fn run_plan_traced(
    plan: &SweepPlan<ProtocolKind>,
    base: &Scenario,
    opts: &ExecOptions,
    trace_dir: &Path,
) -> SweepResult<ProtocolKind> {
    std::fs::create_dir_all(trace_dir).expect("create trace directory");
    plan.run(opts, |job| {
        if !plan.cell_traced(job.cell) {
            return run_job(base, plan, job);
        }
        let scenario = job_scenario(base, plan, job);
        let mut world = World::new(&scenario, job.protocol, job.seed);
        let path = trace_dir.join(format!("trace_c{}_t{}.jsonl", job.cell, job.trial));
        match JsonlSink::create(&path) {
            Ok(sink) => world.enable_trace(Box::new(sink)),
            Err(err) => eprintln!("warning: cannot trace to {}: {err}", path.display()),
        }
        world.run()
    })
}

/// Renders a labeled set of executed sweeps as one JSON artifact
/// (`sweep_results.json`): `{"schema":1,"meta":{..},"sweeps":{label:
/// <exec sweep document>, ..}}`.
pub fn sweeps_json(
    sweeps: &[(String, SweepResult<ProtocolKind>)],
    meta: &[(&str, String)],
) -> String {
    let mut out = String::from("{\"schema\":1,\"meta\":");
    push_object(&mut out, meta.iter().map(|(k, v)| (k, v.as_str())), push_string);
    out.push_str(",\"sweeps\":");
    push_object(&mut out, sweeps.iter().map(|(label, sweep)| (label, sweep)), |out, sweep| {
        out.push_str(&rica_exec::sweep_json(sweep, |k| k.name().to_string(), &[]))
    });
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> Scenario {
        Scenario::builder()
            .nodes(8)
            .flows(2)
            .duration_secs(6.0)
            .mean_speed_kmh(18.0)
            .seed(42)
            .build()
    }

    #[test]
    fn plan_axes_override_template() {
        let base = tiny_base();
        let plan = SweepPlan::new(vec![ProtocolKind::Aodv], vec![36.0], vec![6], 1, 7);
        let result = run_plan(&plan, &base, &ExecOptions::serial());
        let direct = {
            let mut s = base.clone();
            s.nodes = 6;
            s.mean_speed_kmh = 36.0;
            s.run_seeded(ProtocolKind::Aodv, 7)
        };
        assert_eq!(result.cells.len(), 1);
        assert_eq!(result.cells[0].trials[0], direct);
    }

    #[test]
    fn json_artifact_nests_sweeps() {
        let base = tiny_base();
        let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![0.0], vec![6], 1, 1);
        let result = run_plan(&plan, &base, &ExecOptions::serial());
        let doc = sweeps_json(&[("fig2".to_string(), result)], &[("scale", "test".to_string())]);
        assert!(doc.contains("\"sweeps\":{\"fig2\":{"));
        assert!(doc.contains("\"scale\":\"test\""));
        assert!(doc.contains("\"protocol\":\"RICA\""));
    }

    #[test]
    fn json_artifact_escapes_meta_strings() {
        let base = tiny_base();
        let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![0.0], vec![6], 1, 1);
        let result = run_plan(&plan, &base, &ExecOptions::serial());
        // Control characters and quotes must come out as legal JSON
        // escapes, not Rust Debug notation (`\u{1b}` / `\0`).
        let doc = sweeps_json(
            &[("la\"bel".to_string(), result)],
            &[("note", "esc\u{1b}and\0nul".to_string())],
        );
        assert!(doc.contains("\"la\\\"bel\""));
        assert!(doc.contains("esc\\u001band\\u0000nul"));
        assert!(!doc.contains("u{1b}"), "Rust Debug escapes are not JSON: {doc}");
    }

    #[test]
    fn workload_axis_overrides_template() {
        use rica_traffic::{ArrivalSpec, Dwell, SizeSpec};
        let base = tiny_base();
        let bursty = WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Exponential,
            },
            size: SizeSpec::Fixed,
        };
        let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![18.0], vec![8], 1, 7)
            .with_workloads(vec![WorkloadSpec::default(), bursty.clone()]);
        let result = run_plan(&plan, &base, &ExecOptions::serial());
        assert_eq!(result.cells.len(), 2);
        // Cell 0 ran the default workload: no workload accounting, same
        // bytes as a direct legacy run.
        let direct = base.run_seeded(ProtocolKind::Rica, 7);
        assert_eq!(result.cells[0].trials[0], direct);
        assert_eq!(result.cells[0].trials[0].workload, None);
        // Cell 1 ran the bursty workload: accounting present, different
        // traffic under the same seed.
        let t = &result.cells[1].trials[0];
        let w = t.workload.as_ref().expect("bursty trial records workload");
        assert!(w.offered_bits > 0);
        assert_eq!(w.flows.iter().map(|f| f.generated).sum::<u64>(), t.generated);
        assert_ne!(t.generated, direct.generated, "bursty arrivals should differ");
        // The artifact names the axis and the cells.
        let doc = rica_exec::sweep_json(&result, |k| k.name().to_string(), &[]);
        assert!(doc.contains(&format!("\"workload\":\"{}\"", bursty.label())), "{doc}");
    }

    #[test]
    fn fidelity_axis_overrides_template() {
        use rica_channel::ChannelFidelity;
        // Dense enough that routes form and CSI classes shape the outcome
        // (the 8-node template never delivers, which would make the two
        // tiers' summaries vacuously equal).
        let base = Scenario::builder()
            .nodes(12)
            .flows(3)
            .rate_pps(10.0)
            .duration_secs(20.0)
            .mean_speed_kmh(36.0)
            .seed(42)
            .build();
        let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![36.0], vec![12], 1, 7)
            .with_fidelities(vec![ChannelFidelity::Exact, ChannelFidelity::Approx]);
        let result = run_plan(&plan, &base, &ExecOptions::serial());
        assert_eq!(result.cells.len(), 2);
        // Cell 0 ran the Exact tier: same bytes as a direct legacy run.
        let direct = base.run_seeded(ProtocolKind::Rica, 7);
        assert_eq!(result.cells[0].trials[0], direct);
        // Cell 1 ran the Approx tier: a different (but statistically
        // equivalent) realisation under the same seed.
        let approx = &result.cells[1].trials[0];
        assert_ne!(*approx, direct, "approx tier should realise different bits");
        assert_eq!(approx.generated, direct.generated, "traffic is channel-independent");
        // The artifact names the axis and the cells.
        let doc = rica_exec::sweep_json(&result, |k| k.name().to_string(), &[]);
        assert!(doc.contains("\"fidelities\":[\"exact\",\"approx\"]"), "{doc}");
        assert!(doc.contains("\"fidelity\":\"approx\""), "{doc}");
    }

    #[test]
    fn fault_axis_overrides_template() {
        use rica_faults::FaultPlan;
        // Dense enough that flows actually deliver, so churn has traffic
        // to disrupt.
        let base = Scenario::builder()
            .nodes(12)
            .flows(3)
            .rate_pps(10.0)
            .duration_secs(30.0)
            .mean_speed_kmh(18.0)
            .seed(42)
            .build();
        let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![18.0], vec![12], 1, 7)
            .with_faults(vec![FaultPlan::none(), FaultPlan::none().with_churn(12.0, 4.0, 2.0)]);
        let result = run_plan(&plan, &base, &ExecOptions::serial());
        assert_eq!(result.cells.len(), 2);
        // Cell 0 ran fault-free: same bytes as a direct legacy run, no
        // recovery accounting.
        let direct = base.run_seeded(ProtocolKind::Rica, 7);
        assert_eq!(result.cells[0].trials[0], direct);
        assert_eq!(result.cells[0].trials[0].recovery, None);
        // Cell 1 ran under churn: recovery accounting present, crashes
        // observed, paired seed.
        let churned = &result.cells[1].trials[0];
        let r = churned.recovery.expect("churned trial records recovery");
        assert!(r.crashes > 0, "30 s of churn(up12,down4) should crash someone: {r:?}");
        assert_ne!(*churned, direct, "churn should perturb the realisation");
        // The artifact names the axis and the cells.
        let doc = rica_exec::sweep_json(&result, |k| k.name().to_string(), &[]);
        assert!(doc.contains("\"faults\":[\"none\",\"churn(up12s,down4s,from2s)\"]"), "{doc}");
        assert!(doc.contains("\"recovery\":{\"crashes\":"), "{doc}");
    }

    #[test]
    fn traced_plan_matches_untraced_and_writes_files() {
        let base = tiny_base();
        let plan =
            SweepPlan::new(vec![ProtocolKind::Rica, ProtocolKind::Aodv], vec![18.0], vec![6], 2, 7)
                .with_traced_cells(vec![1]);
        let dir = std::env::temp_dir().join(format!("rica_sweep_trace_{}", std::process::id()));
        let traced = run_plan_traced(&plan, &base, &ExecOptions::serial(), &dir);
        let plain = run_plan(&plan, &base, &ExecOptions::serial());
        assert_eq!(traced.cells.len(), plain.cells.len());
        for (a, b) in traced.cells.iter().zip(&plain.cells) {
            assert_eq!(a.trials, b.trials, "tracing must not perturb summaries");
        }
        // Only cell 1's trials traced; one file per (cell, trial).
        assert!(!dir.join("trace_c0_t0.jsonl").exists());
        for trial in 0..2 {
            let path = dir.join(format!("trace_c1_t{trial}.jsonl"));
            let body = std::fs::read_to_string(&path).expect("trace file written");
            assert!(body.lines().count() > 0, "trace for trial {trial} is empty");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "cannot be node-count swept")]
    fn pinned_template_rejects_node_sweep() {
        let mut base = tiny_base();
        base.pinned_positions =
            Some((0..8).map(|i| rica_mobility::Vec2::new(i as f64 * 10.0, 0.0)).collect());
        let plan = SweepPlan::new(vec![ProtocolKind::Rica], vec![0.0], vec![30], 1, 1);
        run_plan(&plan, &base, &ExecOptions::serial());
    }
}
