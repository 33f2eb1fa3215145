//! Regenerates the paper's figures.
//!
//! ```text
//! cargo run --release -p rica-harness --bin figures -- \
//!     [--full|--quick|--smoke] [--trials N] [--workers N] [--json PATH] \
//!     [fig2a fig3b … | all]
//! ```
//!
//! `--quick` (default) runs a scaled-down environment (60 s, 3 trials);
//! `--full` runs the paper's exact §III.A environment (500 s, 25 trials,
//! 50 nodes — expect minutes per figure). All trials execute through the
//! `rica-exec` worker pool; `--workers N` (or the `RICA_WORKERS`
//! environment variable) sets the pool size, defaulting to the machine's
//! available parallelism. Results print to stdout; when every figure is
//! regenerated (`all`), the raw sweeps are also written as a
//! machine-readable artifact (`--json PATH`, default
//! `sweep_results.json`). The README's "Quickstart" section lists the
//! common invocations.

use rica_exec::{ExecOptions, Progress};
use rica_harness::experiments::{figure_with, run_all_with, Scale, FIGURE_IDS};

fn main() {
    let exec_args = rica_exec::ExecArgs::parse(std::env::args().skip(1));
    let mut scale = Scale::quick();
    let mut scale_name = "quick";
    let mut ids: Vec<String> = Vec::new();
    let mut all = false;
    let mut trials_override: Option<usize> = None;
    let json_path = exec_args.json_path.clone().unwrap_or_else(|| "sweep_results.json".into());
    let mut args_iter = exec_args.rest.iter().peekable();
    while let Some(a) = args_iter.next() {
        if a.as_str() == "--trials" {
            trials_override = args_iter
                .next()
                .and_then(|v| v.parse().ok())
                .or_else(|| panic!("--trials needs a number"));
            continue;
        }
        match a.as_str() {
            "--full" => {
                scale = Scale::full();
                scale_name = "full";
            }
            "--quick" => {
                scale = Scale::quick();
                scale_name = "quick";
            }
            "--smoke" => {
                scale = Scale::smoke();
                scale_name = "smoke";
            }
            "all" => all = true,
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        all = true;
    }
    if let Some(t) = trials_override {
        scale.trials = t;
    }
    let workers = exec_args.resolved_workers();
    let opts = ExecOptions { workers, progress: Progress::Stderr };
    eprintln!(
        "# scale: {scale_name} ({} nodes, {} flows, {} s, {} trials, speeds {:?}, {} workers)",
        scale.nodes, scale.flows, scale.duration_secs, scale.trials, scale.speeds, workers
    );
    let t0 = std::time::Instant::now();
    if all {
        // Shared sweeps: far cheaper than per-figure regeneration.
        let set = run_all_with(&scale, &opts);
        let _ = FIGURE_IDS; // ids come from run_all_with in paper order
        for (id, out) in &set.figures {
            println!("== {id} ==\n{out}");
        }
        let meta = [
            ("scale", scale_name.to_string()),
            ("trials", scale.trials.to_string()),
            ("nodes", scale.nodes.to_string()),
        ];
        match std::fs::write(&json_path, set.sweeps_json(&meta)) {
            Ok(()) => eprintln!("# wrote {}", json_path.display()),
            Err(e) => eprintln!("# could not write {}: {e}", json_path.display()),
        }
    } else {
        ids.dedup();
        for id in ids {
            let out = figure_with(&id, &scale, &opts);
            println!("== {id} ==\n{out}");
        }
    }
    eprintln!("# total {:.1} s", t0.elapsed().as_secs_f64());
}
