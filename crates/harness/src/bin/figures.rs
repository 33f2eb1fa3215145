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
//! `sweep_results.json`). The README's "Quickstart" section lists the
//! common invocations.

use rica_exec::{ExecOptions, Progress};
use rica_harness::experiments::{run_figures, Scale};

fn main() {
    let exec_args = rica_exec::ExecArgs::parse(std::env::args().skip(1));
    let mut scale = Scale::quick();
    let mut scale_name = "quick";
    let mut ids: Vec<&str> = Vec::new();
    let mut trials_override: Option<usize> = None;
    let json_path = exec_args.json_path.clone().unwrap_or_else(|| "sweep_results.json".into());
    let mut args_iter = exec_args.rest.iter();
    while let Some(a) = args_iter.next() {
        match a.as_str() {
            "--trials" => {
                trials_override = args_iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| panic!("--trials needs a number"));
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
    let set = run_figures(&ids, &scale, &opts).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2)
    });
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
    eprintln!("# total {:.1} s", t0.elapsed().as_secs_f64());
}
