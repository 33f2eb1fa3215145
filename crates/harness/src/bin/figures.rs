//! Regenerates the paper's figures.
//!
//! ```text
//! cargo run --release -p rica-harness --bin figures -- \
//!     [--full|--quick|--smoke] [--trials N] [--workers N] [--json PATH] \
//!     [fig2a fig3b … ablation | all]
//! ```
//!
//! `--quick` (default) runs a scaled-down environment (60 s, 3 trials);
//! `--full` runs the paper's exact §III.A environment (500 s, 25 trials,
//! 50 nodes — expect minutes per figure). All trials execute through the
//! `rica-exec` worker pool; `--workers N` (or the `RICA_WORKERS`
//! environment variable) sets the pool size, defaulting to the machine's
//! available parallelism. The requested figures (default `all`, the
//! paper's ten; `ablation` is the design-parameter ablation) print to
//! stdout, and the raw sweeps behind them are written as a
//! machine-readable artifact (`--json PATH`, default
//! `sweep_results.json`); if it cannot be written, the tables are still
//! printed and the exit code is 1. An unknown figure id or a malformed
//! flag (`--trials 0`, `--workers x`, a flag missing its value) exits 2
//! before anything runs. The README's "Quickstart" section lists the
//! common invocations.

#![expect(
    clippy::disallowed_types,
    reason = "host-side: the total wall time goes to stderr only, after every trial has run"
)]

use rica_exec::{ExecOptions, Progress};
use rica_harness::experiments::{run_figures, Scale};
use rica_harness::sweep::sweeps_json;

/// Reports a malformed command line and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

fn main() {
    let exec_args =
        rica_exec::ExecArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
    let mut scale = Scale::quick();
    let mut scale_name = "quick";
    let mut ids: Vec<&str> = Vec::new();
    let mut trials_override: Option<usize> = None;
    let json_path = exec_args.json_path.clone().unwrap_or_else(|| "sweep_results.json".into());
    let mut args_iter = exec_args.rest.iter();
    while let Some(a) = args_iter.next() {
        match a.as_str() {
            "--trials" => {
                let raw = args_iter.next().map_or("", String::as_str);
                match raw.parse() {
                    Ok(n) if n > 0 => trials_override = Some(n),
                    _ => usage_error(&format!("--trials needs a positive integer, got {raw:?}")),
                }
            }
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
            id => ids.push(id),
        }
    }
    if ids.is_empty() {
        ids.push("all");
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
    let set = run_figures(&ids, &scale, &opts).unwrap_or_else(|err| usage_error(&err));
    for (id, out) in &set.figures {
        println!("== {id} ==\n{out}");
    }
    let meta = [
        ("scale", scale_name.to_string()),
        ("trials", scale.trials.to_string()),
        ("nodes", scale.nodes.to_string()),
    ];
    if let Err(e) = std::fs::write(&json_path, sweeps_json(&set.sweeps, &meta)) {
        eprintln!("# could not write {}: {e}", json_path.display());
        std::process::exit(1);
    }
    eprintln!("# wrote {}", json_path.display());
    eprintln!("# total {:.1} s", t0.elapsed().as_secs_f64());
}
