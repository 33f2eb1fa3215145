//! # rica-exec — the parallel experiment-execution engine
//!
//! The paper's evaluation (§III) is a 625-trial grid: 5 protocols ×
//! 5 mean speeds × 25 seeded trials per point. The original harness ran
//! that strictly sequentially; this crate turns a declarative
//! [`SweepPlan`] into a job grid and fans it out over a [`std::thread`]
//! worker pool whose one dispatcher ([`SweepPlan::stream`]) favours the
//! protocol with the longest measured trials, streaming completed
//! [`TrialSummary`](rica_metrics::TrialSummary)s into mergeable
//! [`Aggregate`](rica_metrics::Aggregate)s with live progress reporting.
//!
//! ## Determinism — the hard invariant
//!
//! For a fixed plan and base seed, results are **bit-identical regardless
//! of worker count or completion order**:
//!
//! * every trial's seed is derived from the plan alone
//!   ([`TrialJob::seed`]), never from scheduling;
//! * each trial is an independent simulation with its own RNG;
//! * results stream back tagged with their job index and reach the
//!   caller in job order on the calling thread, so the output order is
//!   the plan order even though the start and completion orders are
//!   racy (measured run times decide only when a job starts);
//! * per-cell aggregation folds the summaries in plan order.
//!
//! `tests/determinism.rs` (workspace root) enforces this end-to-end with
//! 1, 2 and 8 workers over the real simulator.
//!
//! ## Layering
//!
//! This crate knows *how to execute*, not *what a scenario is*: the plan
//! is generic over the protocol label `P` and the caller supplies the
//! `Fn(&TrialJob<P>) -> TrialSummary` that actually runs one simulation
//! trial. `rica-harness` layers the paper's `Scenario` vocabulary on
//! top (see `rica_harness::sweep`), which keeps the dependency graph
//! acyclic: sim → traffic/metrics → **exec** → harness → bench. (The
//! scenario-shaped concepts a plan carries are its sweep axes — see
//! [`Axis`]: workload specs, channel fidelities and fault plans are pure
//! data with no simulator dependency, so the layering holds.)
//!
//! ```
//! use rica_exec::{ExecOptions, SweepPlan};
//! use rica_metrics::{Metrics, TrialSummary};
//! use rica_sim::SimDuration;
//!
//! // A toy "simulation": metrics out of thin air, seeded by the job.
//! let plan = SweepPlan::new(vec!["fast", "slow"], vec![0.0, 36.0], vec![10], 3, 42);
//! let result = plan.run(&ExecOptions::serial(), |job| {
//!     let mut m = Metrics::new();
//!     for _ in 0..job.seed % 7 {
//!         m.on_generated();
//!     }
//!     m.finish(SimDuration::from_secs(1))
//! });
//! assert_eq!(result.cells.len(), 4);       // 2 protocols × 2 speeds × 1 node count
//! assert_eq!(result.cells[0].trials.len(), 3);
//! ```

#![warn(missing_docs)]

mod axis;
mod json;
mod plan;
mod pool;
mod progress;

pub use axis::Axis;
pub use json::sweep_json;
pub use plan::{fnv1a, SweepCell, SweepPlan, SweepResult, TrialJob};
pub use pool::{effective_workers, run_jobs, ExecOptions};
pub use progress::Progress;

/// Shared CLI vocabulary for execution entry points: `--workers N` and
/// `--json PATH`, with everything else passed through untouched.
///
/// All entry points (the figures bin, the examples) parse these two
/// flags identically — a malformed value is a hard error everywhere, not
/// silently ignored on some surfaces.
#[derive(Debug, Clone, Default)]
pub struct ExecArgs {
    /// Explicit worker count, if `--workers` was given.
    pub workers: Option<usize>,
    /// Explicit artifact path, if `--json` was given.
    pub json_path: Option<std::path::PathBuf>,
    /// The arguments that were not consumed by this parser, in order.
    pub rest: Vec<String>,
}

impl ExecArgs {
    /// Parses `--workers` / `--json` out of an argument stream.
    ///
    /// # Panics
    ///
    /// Panics with a short message if either flag is missing its value
    /// or `--workers` is not a number (the established CLI style here).
    pub fn parse(args: impl Iterator<Item = String>) -> ExecArgs {
        let mut parsed = ExecArgs::default();
        let mut args = args;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--workers" => {
                    let n = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--workers needs a number"));
                    parsed.workers = Some(n);
                }
                "--json" => {
                    let p = args.next().unwrap_or_else(|| panic!("--json needs a path"));
                    parsed.json_path = Some(std::path::PathBuf::from(p));
                }
                _ => parsed.rest.push(a),
            }
        }
        parsed
    }

    /// The resolved worker count (explicit → `RICA_WORKERS` → available
    /// parallelism).
    pub fn resolved_workers(&self) -> usize {
        resolve_workers(self.workers)
    }
}

/// Resolves a worker count: an explicit request wins, then the
/// `RICA_WORKERS` environment variable, then the machine's available
/// parallelism.
///
/// ```
/// assert_eq!(rica_exec::resolve_workers(Some(3)), 3);
/// assert!(rica_exec::resolve_workers(None) >= 1);
/// ```
pub fn resolve_workers(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("RICA_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
