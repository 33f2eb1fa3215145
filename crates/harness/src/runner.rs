//! Multi-trial execution (the paper averages 25 seeded trials per point).
//!
//! Since the `rica-exec` engine landed, this module is a thin veneer:
//! trials become jobs on its deterministic worker pool, so results are
//! identical for any worker count (see `tests/determinism.rs`).

use rica_exec::{run_jobs, ExecOptions};
use rica_metrics::{Aggregate, TrialSummary};

use crate::{ProtocolKind, Scenario, World};

/// Runs `trials` independent trials (seeds `scenario.seed + 0..trials`)
/// over the default worker pool (available parallelism, or
/// `RICA_WORKERS`), in deterministic result order. Every trial runs one
/// protocol, so all share one cost group and start in seed order.
pub fn run_trials(scenario: &Scenario, kind: ProtocolKind, trials: usize) -> Vec<TrialSummary> {
    run_trials_with(scenario, kind, trials, &ExecOptions::default())
}

/// [`run_trials`] with explicit execution options (worker count,
/// progress reporting).
pub fn run_trials_with(
    scenario: &Scenario,
    kind: ProtocolKind,
    trials: usize,
    opts: &ExecOptions,
) -> Vec<TrialSummary> {
    assert!(trials > 0, "need at least one trial");
    let seeds: Vec<u64> = (0..trials).map(|i| scenario.seed + i as u64).collect();
    run_jobs(&seeds, opts, &|&seed: &u64| World::new(scenario, kind, seed).run())
}

/// Runs `trials` trials and aggregates them (mean ± std per metric), as the
/// paper's plotted points do.
pub fn run_aggregate(scenario: &Scenario, kind: ProtocolKind, trials: usize) -> Aggregate {
    Aggregate::from_trials(&run_trials(scenario, kind, trials))
}

/// [`run_aggregate`] with explicit execution options.
pub fn run_aggregate_with(
    scenario: &Scenario,
    kind: ProtocolKind,
    trials: usize,
    opts: &ExecOptions,
) -> Aggregate {
    Aggregate::from_trials(&run_trials_with(scenario, kind, trials, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::builder()
            .nodes(8)
            .flows(2)
            .duration_secs(8.0)
            .mean_speed_kmh(18.0)
            .seed(100)
            .build()
    }

    #[test]
    fn parallel_trials_match_sequential() {
        let s = tiny();
        let parallel = run_trials_with(&s, ProtocolKind::Aodv, 4, &ExecOptions::with_workers(4));
        let sequential: Vec<_> =
            (0..4).map(|i| World::new(&s, ProtocolKind::Aodv, s.seed + i as u64).run()).collect();
        assert_eq!(parallel, sequential, "threading must not change results");
    }

    #[test]
    fn aggregate_counts_trials() {
        let a = run_aggregate(&tiny(), ProtocolKind::Rica, 3);
        assert_eq!(a.trials, 3);
        assert!(a.delivery_pct.mean() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        run_trials(&tiny(), ProtocolKind::Rica, 0);
    }
}
