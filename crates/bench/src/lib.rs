//! # rica-bench — benchmark harnesses
//!
//! Three bench families, all runnable with `cargo bench`:
//!
//! * `micro` — criterion microbenchmarks of the substrates (event queue,
//!   RNG, channel sampling, mobility evaluation, MAC collision checks,
//!   full simulation steps per protocol).
//! * `figures` — regenerates every table/figure of the paper at a reduced
//!   scale through the `rica-exec` worker pool and prints the series (the
//!   full-scale numbers come from the figures binary, see the README's
//!   "Quickstart" section). Accepts `--workers N`
//!   and `--json PATH` (and honours `RICA_WORKERS`), and writes the
//!   machine-readable `sweep_results.json` artifact so bench trajectories
//!   can be compared across PRs.
//! * `ablation` — sensitivity sweeps over the design parameters of RICA
//!   and BGCA (CSI-check period, TTL margin, BGCA guard factor, RICA
//!   promotion window).
//!
//! This library crate hosts shared helpers.

#![warn(missing_docs)]

use rica_exec::{ExecOptions, Progress};
use rica_harness::{Scenario, ScenarioBuilder};

/// A small but non-trivial scenario used by several benches: 30 nodes,
/// 5 flows, 36 km/h — large enough to exercise multi-hop routing, small
/// enough to iterate.
pub fn bench_scenario() -> ScenarioBuilder {
    Scenario::builder()
        .nodes(30)
        .flows(5)
        .rate_pps(10.0)
        .mean_speed_kmh(36.0)
        .duration_secs(20.0)
        .seed(99)
}

/// Execution options + JSON artifact path parsed from bench CLI args
/// (`cargo bench --bench figures -- --workers 8 --json out.json`),
/// via the shared [`rica_exec::ExecArgs`] parser.
///
/// Workers default to [`rica_exec::resolve_workers`] (which consults
/// `RICA_WORKERS`, then available parallelism); the artifact path
/// defaults to `sweep_results.json`.
pub fn exec_args(args: impl Iterator<Item = String>) -> (ExecOptions, std::path::PathBuf) {
    let parsed = rica_exec::ExecArgs::parse(args);
    let opts = ExecOptions { workers: parsed.resolved_workers(), progress: Progress::Stderr };
    (opts, parsed.json_path.unwrap_or_else(|| "sweep_results.json".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_harness::ProtocolKind;

    #[test]
    fn bench_scenario_is_runnable() {
        let report = bench_scenario().duration_secs(5.0).build().run(ProtocolKind::Rica);
        assert!(report.generated > 0);
    }

    #[test]
    fn exec_args_parse() {
        let (opts, path) =
            exec_args(["--workers", "3", "--json", "custom.json"].iter().map(|s| s.to_string()));
        assert_eq!(opts.workers, 3);
        assert_eq!(path, std::path::PathBuf::from("custom.json"));
        let (opts, path) = exec_args(std::iter::empty());
        assert!(opts.workers >= 1);
        assert_eq!(path, std::path::PathBuf::from("sweep_results.json"));
    }
}
