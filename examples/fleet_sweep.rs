//! Fleet orchestration end to end: a sharded multi-axis sweep that
//! streams per-trial records to disk, survives a kill, merges back to
//! the legacy artifact bytes — then an adaptive pass that sizes each
//! cell's trial count to a confidence target instead of a fixed N.
//!
//! ```text
//! cargo run --release --example fleet_sweep [-- --workers N]
//! ```
//!
//! Three acts:
//!
//! 1. **Sharded run** — the plan is split into 4 shard manifests and all
//!    of them run in one dispatcher pass, which probes each protocol once
//!    and then favours the one with the longest measured trials
//!    (LinkState); each shard streams `TrialRecord` JSONL in plan order
//!    to its own file under `fleet_sweep_out/`, at most `64 + workers`
//!    results wait in memory, and a killed run loses only the shards
//!    without a footer.
//! 2. **Resume + merge** — a second `run_fleet` pass validates every
//!    stream against the manifest and re-runs nothing; `merge_fleet`
//!    folds the streams back into a `SweepResult` whose artifact is
//!    byte-identical to a single-shot in-process sweep.
//! 3. **Adaptive stopping** — the same grid re-run with per-cell CI
//!    half-width targets: noisy cells buy more trials, stable cells
//!    stop at the minimum, and the realised counts are printed.

use rica_repro::exec::{sweep_json, ExecOptions, Progress, SweepPlan};
use rica_repro::fleet::{hash_hex, merge_fleet, run_adaptive, run_fleet, AdaptiveConfig, CI_Z};
use rica_repro::harness::{sweep::run_job, ProtocolKind, Scenario};
use rica_repro::traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};

fn label(k: &ProtocolKind) -> String {
    k.name().to_string()
}

fn main() {
    let workers = rica_repro::exec::ExecArgs::parse(std::env::args().skip(1))
        .and_then(|args| args.resolved_workers())
        .unwrap_or_else(|e| {
            eprintln!("fleet_sweep: {e}");
            std::process::exit(2)
        });
    let opts = ExecOptions { workers, progress: Progress::Stderr };

    // Protocols × speeds × workloads, small enough to finish in seconds:
    // 3 protocols × 2 speeds × 2 workloads × 2 trials = 24 jobs. LinkState,
    // last in plan order, costs the most, so dispatch order differs from
    // plan order and the merge below checks that no byte moves.
    let bursty = WorkloadSpec {
        arrival: ArrivalSpec::OnOffBurst {
            on_mean_secs: 0.5,
            off_mean_secs: 1.5,
            dwell: Dwell::Exponential,
        },
        size: SizeSpec::Fixed,
    };
    let plan = SweepPlan::new(
        vec![ProtocolKind::Rica, ProtocolKind::Aodv, ProtocolKind::LinkState],
        vec![0.0, 36.0],
        vec![20],
        2,
        42,
    )
    .with_workloads(vec![WorkloadSpec::default(), bursty]);
    let base = Scenario::builder().nodes(20).flows(4).rate_pps(6.0).duration_secs(10.0).build();
    let runner = |job: &rica_repro::exec::TrialJob<ProtocolKind>| run_job(&base, &plan, job);

    // --- 1. sharded, streaming run --------------------------------------
    let dir = std::path::PathBuf::from("fleet_sweep_out");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "plan {}: {} jobs ({} cells × {} trials) → 4 shards, {workers} workers",
        hash_hex(plan.content_hash(label)),
        plan.job_count(),
        plan.cell_count(),
        plan.trials,
    );
    let report = run_fleet(&plan, label, &dir, 4, &opts, runner).expect("fleet run");
    println!("first pass: ran {} shard(s), reused {}", report.ran.len(), report.reused.len());

    // --- 2. resume is a no-op; merge reproduces the legacy bytes --------
    let resumed = run_fleet(&plan, label, &dir, 4, &opts, runner).expect("resume");
    println!(
        "second pass: ran {} shard(s), reused {} (resume is idempotent)",
        resumed.ran.len(),
        resumed.reused.len()
    );
    let merged = merge_fleet(&plan, label, &dir).expect("merge");
    let mut direct = plan.run(&ExecOptions::serial(), runner);
    direct.workers = 0;
    direct.wall_secs = 0.0;
    assert_eq!(
        sweep_json(&merged, label, &[]),
        sweep_json(&direct, label, &[]),
        "merged artifact must be byte-identical to a single-shot sweep"
    );
    println!("merge: byte-identical to a single-shot in-process sweep\n");

    println!(
        "{:<8} {:>6} {:<26} {:>12} {:>10}",
        "protocol", "km/h", "workload", "delivery(%)", "delay(ms)"
    );
    for cell in &merged.cells {
        println!(
            "{:<8} {:>6.0} {:<26} {:>12.1} {:>10.1}",
            cell.protocol.name(),
            cell.speed_kmh,
            cell.workload.label(),
            cell.aggregate.delivery_pct.mean(),
            cell.aggregate.delay_ms.mean(),
        );
    }

    // --- 3. adaptive stopping -------------------------------------------
    // Instead of a fixed 2 trials everywhere, ask for a ±15 pp delivery
    // CI half-width: cells with noisy delivery buy batches of 2 extra
    // trials until they meet it (or hit the 32-trial cap).
    let config = AdaptiveConfig {
        delivery_hw_pct: Some(15.0),
        batch: 2,
        max_trials: 32,
        ..AdaptiveConfig::default()
    };
    println!(
        "\nadaptive: target ±{:.0} pp delivery at z={CI_Z}, batches of {}, cap {}",
        config.delivery_hw_pct.unwrap(),
        config.batch,
        config.max_trials,
    );
    let adaptive = run_adaptive(&plan, &opts, &config, runner);
    println!(
        "{:<8} {:>6} {:<26} {:>7} {:>10} {:>9}",
        "protocol", "km/h", "workload", "trials", "±dlv(pp)", "conv"
    );
    for cell in &adaptive.cells {
        let job = plan.job(cell.cell, 0);
        println!(
            "{:<8} {:>6.0} {:<26} {:>7} {:>10.2} {:>9}",
            label(&job.protocol),
            job.speed_kmh,
            plan.workloads[job.workload].label(),
            cell.trials,
            cell.delivery_hw_pct,
            if cell.converged { "yes" } else { "at-cap" },
        );
    }
    println!(
        "realised {} trials total (fixed-N grid would be {}); {} cell(s) converged",
        adaptive.total_trials(),
        plan.cell_count() * config.max_trials,
        adaptive.cells.iter().filter(|c| c.converged).count(),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
