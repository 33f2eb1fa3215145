//! # rica-exec — the parallel experiment-execution engine
//!
//! The paper's evaluation (§III) is a 625-trial grid: 5 protocols ×
//! 5 mean speeds × 25 seeded trials per point. The original harness ran
//! that strictly sequentially; this crate turns a declarative
//! [`SweepPlan`] into a job grid and fans it out over a [`std::thread`]
//! worker pool whose one dispatcher ([`SweepPlan::stream`]) favours the
//! protocol with the longest measured trials, streaming completed
//! [`TrialSummary`](rica_metrics::TrialSummary)s back in job order with
//! live progress reporting; [`SweepPlan::cells`] folds each cell's
//! trials into one [`Aggregate`](rica_metrics::Aggregate).
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
//! acyclic: sim → traffic/metrics → **exec** → harness. (The
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
//!         m.on_generated_flow(0, 0);
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
pub use pool::{effective_workers, ExecOptions};
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
    /// # Errors
    ///
    /// Returns a message naming the flag if either flag is missing its
    /// value or `--workers` is not a positive integer.
    ///
    /// ```
    /// let args = |a: &[&str]| rica_exec::ExecArgs::parse(a.iter().map(|s| s.to_string()));
    /// assert_eq!(args(&["--workers", "2", "fig2a"]).unwrap().workers, Some(2));
    /// let err = "--workers needs a positive integer, got";
    /// assert_eq!(args(&["--workers", "x"]).unwrap_err(), format!("{err} \"x\""));
    /// assert_eq!(args(&["--workers", "0"]).unwrap_err(), format!("{err} \"0\""));
    /// assert_eq!(args(&["--json"]).unwrap_err(), "--json needs a path");
    /// ```
    pub fn parse(args: impl Iterator<Item = String>) -> Result<ExecArgs, String> {
        let mut parsed = ExecArgs::default();
        let mut args = args;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--workers" => {
                    let v = args.next().ok_or("--workers needs a positive integer")?;
                    match v.parse() {
                        Ok(n) if n > 0 => parsed.workers = Some(n),
                        _ => return Err(format!("--workers needs a positive integer, got {v:?}")),
                    }
                }
                "--json" => {
                    let p = args.next().ok_or("--json needs a path")?;
                    parsed.json_path = Some(std::path::PathBuf::from(p));
                }
                _ => parsed.rest.push(a),
            }
        }
        Ok(parsed)
    }

    /// The resolved worker count (explicit → `RICA_WORKERS` → available
    /// parallelism).
    ///
    /// # Errors
    ///
    /// See [`resolve_workers`].
    pub fn resolved_workers(&self) -> Result<usize, String> {
        resolve_workers(self.workers)
    }
}

/// Resolves a worker count: an explicit request wins, then the
/// `RICA_WORKERS` environment variable, then the machine's available
/// parallelism.
///
/// # Errors
///
/// Without an explicit count, returns a message naming `RICA_WORKERS` if
/// it is set but is not a positive integer.
///
/// ```
/// assert_eq!(rica_exec::resolve_workers(Some(3)), Ok(3));
/// std::env::set_var("RICA_WORKERS", "2");
/// assert_eq!(rica_exec::resolve_workers(None), Ok(2));
/// std::env::set_var("RICA_WORKERS", "two");
/// let err = rica_exec::resolve_workers(None).unwrap_err();
/// assert_eq!(err, "RICA_WORKERS needs a positive integer, got \"two\"");
/// ```
pub fn resolve_workers(explicit: Option<usize>) -> Result<usize, String> {
    if let Some(n) = explicit {
        return Ok(n.max(1));
    }
    let Some(raw) = std::env::var_os("RICA_WORKERS") else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    match raw.to_str().map(|v| v.trim().parse()) {
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err(format!("RICA_WORKERS needs a positive integer, got {raw:?}")),
    }
}
