//! Workload shape matters: one paper-grid scenario, three traffic shapes
//! at *equal mean offered load*, all five protocols.
//!
//! ```text
//! cargo run --release --example workloads [-- --workers N]
//! ```
//!
//! The CBR, Poisson and bursty on/off workloads below all offer the same
//! mean load (`rica-traffic` generators preserve the configured mean
//! rate; only the arrival pattern differs), so every delivery/latency
//! delta against the Poisson baseline is attributable to burstiness
//! alone — the axis the paper's single-workload evaluation never varies.

use rica_repro::exec::{ExecOptions, Progress, SweepPlan};
use rica_repro::harness::{sweep, ProtocolKind, Scenario};
use rica_repro::traffic::{ArrivalSpec, Dwell, SizeSpec, WorkloadSpec};

fn main() {
    let args = rica_repro::exec::ExecArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("workloads: {e}");
        std::process::exit(2)
    });
    let workers = args.resolved_workers().unwrap_or_else(|e| {
        eprintln!("workloads: {e}");
        std::process::exit(2)
    });

    // A reduced paper grid (30 nodes instead of 50, 20 s instead of
    // 500 s) so the example runs in seconds; the axes are the point.
    let base = Scenario::builder().nodes(30).flows(5).rate_pps(10.0).duration_secs(20.0).build();
    let workloads = vec![
        WorkloadSpec { arrival: ArrivalSpec::Cbr, size: SizeSpec::Fixed },
        WorkloadSpec::default(), // Poisson + fixed: the paper's workload
        WorkloadSpec {
            arrival: ArrivalSpec::OnOffBurst {
                on_mean_secs: 0.5,
                off_mean_secs: 1.5,
                dwell: Dwell::Exponential,
            },
            size: SizeSpec::Fixed,
        },
    ];
    let plan = SweepPlan::new(ProtocolKind::ALL.to_vec(), vec![36.0], vec![30], 2, 7)
        .with_workloads(workloads);

    println!(
        "running {} trials ({} cells × {} trials) over {workers} workers…\n",
        plan.job_count(),
        plan.cell_count(),
        plan.trials,
    );
    let opts = ExecOptions { workers, progress: Progress::Stderr };
    let result = sweep::run_plan(&plan, &base, &opts);

    println!(
        "{:<10} {:<34} {:>11} {:>10} {:>12} {:>12}",
        "protocol", "workload", "delivery(%)", "delay(ms)", "Δdelivery", "Δdelay"
    );
    for kind in ProtocolKind::ALL {
        // The Poisson cell is the baseline the deltas are against.
        let baseline = result
            .cells
            .iter()
            .find(|c| c.protocol == kind && c.workload.is_paper_default())
            .expect("poisson cell");
        let (base_dlv, base_dly) =
            (baseline.aggregate.delivery_pct.mean(), baseline.aggregate.delay_ms.mean());
        for cell in result.cells.iter().filter(|c| c.protocol == kind) {
            let dlv = cell.aggregate.delivery_pct.mean();
            let dly = cell.aggregate.delay_ms.mean();
            println!(
                "{:<10} {:<34} {:>11.1} {:>10.1} {:>+11.1}pp {:>+10.1}ms",
                kind.name(),
                cell.workload.label(),
                dlv,
                dly,
                dlv - base_dlv,
                dly - base_dly,
            );
        }
        println!();
    }
    println!("completed in {:.1} s with {} workers", result.wall_secs, result.workers);
    println!("(equal mean offered load per row; deltas are vs the poisson+fixed baseline)");

    if let Some(path) = args.json_path {
        let doc = sweep::sweeps_json(
            &[("workloads".to_string(), result)],
            &[("example", "workloads".to_string())],
        );
        match std::fs::write(&path, doc) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
