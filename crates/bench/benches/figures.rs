//! Regenerates every table and figure of the paper at bench scale.
//!
//! `cargo bench --bench figures` prints the same rows/series the paper
//! reports (Figures 2–6), from a reduced environment (50 nodes, 40 s,
//! 2 trials) so the whole set completes in minutes. All trials execute
//! through the `rica-exec` worker pool (`--workers N` or `RICA_WORKERS`
//! to size it) and the raw sweeps are written as a machine-readable
//! artifact (`--json PATH`, default `sweep_results.json`) so bench
//! trajectories are comparable across PRs. Full-scale results come from
//! the figures binary (see the README's "Quickstart" section):
//!
//! ```text
//! cargo run --release -p rica-harness --bin figures -- --full all
//! ```

use rica_bench::exec_args;
use rica_harness::experiments::{run_all_with, Scale};

fn main() {
    let (opts, json_path) = exec_args(std::env::args().skip(1));
    let scale = Scale {
        nodes: 50,
        flows: 10,
        duration_secs: 40.0,
        trials: 2,
        speeds: vec![0.0, 36.0, 72.0],
        seed: 1,
    };
    println!(
        "# bench scale: {} nodes, {} flows, {} s, {} trials, speeds {:?}, {} workers",
        scale.nodes, scale.flows, scale.duration_secs, scale.trials, scale.speeds, opts.workers
    );
    let t0 = std::time::Instant::now();
    let set = run_all_with(&scale, &opts);
    for (id, table) in &set.figures {
        println!("== {id} ==\n{table}");
    }
    let meta = [("source", "bench/figures".to_string()), ("trials", scale.trials.to_string())];
    match std::fs::write(&json_path, set.sweeps_json(&meta)) {
        Ok(()) => println!("# wrote {}", json_path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", json_path.display()),
    }
    println!("# figures bench completed in {:.1} s", t0.elapsed().as_secs_f64());
}
