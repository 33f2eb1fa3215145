//! Adaptive stopping: run trials in rounds until each cell's confidence
//! intervals are tight enough.
//!
//! The paper fixes 25 trials per point; a fleet sweep can instead state
//! *precision* targets — CI half-widths on the delivery percentage
//! and/or the mean delay — and let each cell stop as soon as it meets
//! them (or hit a hard trial cap). Cheap, low-variance cells finish at
//! the plan's minimum; noisy cells keep going. Trial `i` of a cell
//! always runs seed `base_seed + i`, exactly like `SweepPlan::run`, so
//! a cell that stops at the plan's trial count has produced the *same
//! trials* a fixed sweep would — adaptive execution refines the grid,
//! it never forks it.

use std::fmt::Write as _;

use rica_exec::{ExecOptions, SweepPlan, TrialJob};
use rica_metrics::json::{push_array, push_f64_or_null, push_members, push_object, push_string};
use rica_metrics::{Aggregate, TrialSummary};

use crate::manifest::hash_hex;

/// Precision targets and batching for an adaptive sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Critical value for the intervals (1.96 ≈ 95% normal CI).
    pub z: f64,
    /// Target half-width on the delivery percentage (percentage points);
    /// `None` means delivery precision is not a stopping criterion.
    pub delivery_hw_pct: Option<f64>,
    /// Target half-width on the mean end-to-end delay (ms); `None`
    /// means delay precision is not a stopping criterion.
    pub delay_hw_ms: Option<f64>,
    /// Trials added to every unconverged cell per round.
    pub batch: usize,
    /// Hard per-cell trial cap (a cell that reaches it stops
    /// unconverged rather than running forever).
    pub max_trials: usize,
}

impl Default for AdaptiveConfig {
    /// 95% intervals, no targets (every cell converges at the plan's
    /// trial count), batches of 4, capped at 256 trials per cell.
    fn default() -> Self {
        AdaptiveConfig {
            z: 1.96,
            delivery_hw_pct: None,
            delay_hw_ms: None,
            batch: 4,
            max_trials: 256,
        }
    }
}

impl AdaptiveConfig {
    /// Whether a cell with this aggregate meets every stated target.
    fn met(&self, agg: &Aggregate) -> bool {
        let delivery_ok =
            self.delivery_hw_pct.is_none_or(|t| agg.delivery_ci_half_width(self.z) <= t);
        let delay_ok = self.delay_hw_ms.is_none_or(|t| agg.delay_ci_half_width(self.z) <= t);
        delivery_ok && delay_ok
    }
}

/// One cell's adaptive outcome: how many trials it actually ran and the
/// precision it reached.
#[derive(Debug, Clone)]
pub struct AdaptiveCell {
    /// Cell index in plan order (its axes: `plan.job(cell, 0)`).
    pub cell: usize,
    /// Trials actually run (realised count; ≥ the plan's minimum).
    pub trials: usize,
    /// Whether every stated target was met (false means the trial cap
    /// stopped the cell first).
    pub converged: bool,
    /// Realised CI half-width on the delivery percentage.
    pub delivery_hw_pct: f64,
    /// Realised CI half-width on the mean delay (ms).
    pub delay_hw_ms: f64,
    /// The cell's aggregate over its realised trials.
    pub aggregate: Aggregate,
}

/// The adaptive sweep outcome: per-cell realised counts and precision.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The configuration the sweep ran under.
    pub config: AdaptiveConfig,
    /// Cells in plan order.
    pub cells: Vec<AdaptiveCell>,
}

impl AdaptiveReport {
    /// Total trials run across all cells.
    pub fn total_trials(&self) -> usize {
        self.cells.iter().map(|c| c.trials).sum()
    }

    /// Whether every cell met its targets.
    pub fn all_converged(&self) -> bool {
        self.cells.iter().all(|c| c.converged)
    }
}

/// Runs `plan` adaptively: every cell starts with the plan's `trials`
/// (its minimum), then unconverged cells grow in `config.batch`-sized
/// rounds until they meet the targets or hit `config.max_trials`. All
/// cells' pending trials of a round go through one dispatcher pass
/// together, so wide grids stay parallel even as cells drop out.
///
/// Determinism: trial `i` of a cell always runs seed `base_seed + i`,
/// and the stopping rule depends only on completed aggregates — the
/// realised trial counts and every summary are a pure function of
/// `(plan, config)`, independent of worker count.
///
/// # Panics
///
/// Panics if `config.batch` is 0, `config.max_trials < plan.trials`, or
/// a target is non-positive.
pub fn run_adaptive<P, F>(
    plan: &SweepPlan<P>,
    opts: &ExecOptions,
    config: &AdaptiveConfig,
    runner: F,
) -> AdaptiveReport
where
    P: Copy + Send + Sync,
    F: Fn(&TrialJob<P>) -> TrialSummary + Sync,
{
    assert!(config.batch > 0, "adaptive batch must be positive");
    assert!(
        config.max_trials >= plan.trials,
        "max_trials {} is below the plan's minimum {}",
        config.max_trials,
        plan.trials
    );
    for t in [config.delivery_hw_pct, config.delay_hw_ms].into_iter().flatten() {
        assert!(t > 0.0, "CI half-width targets must be positive");
    }
    let cells = plan.cell_count();
    let mut trials: Vec<Vec<TrialSummary>> = (0..cells).map(|_| Vec::new()).collect();
    // Round 0 runs the plan's minimum everywhere; later rounds extend
    // only the cells that still miss a target.
    let mut pending: Vec<usize> = (0..cells).collect();
    let mut want = plan.trials;
    while !pending.is_empty() {
        let jobs: Vec<TrialJob<P>> = pending
            .iter()
            .flat_map(|&cell| {
                (trials[cell].len()..want.min(config.max_trials)).map(move |trial| TrialJob {
                    // Stream-unique index; cells outgrow the plan grid, so
                    // the plan's own flat indexing cannot be reused.
                    index: cell * config.max_trials + trial,
                    ..plan.job(cell, trial)
                })
            })
            .collect();
        let Ok(()) = plan.stream(
            jobs.len(),
            |i| jobs[i],
            opts,
            &runner,
            |job, summary| {
                debug_assert_eq!(trials[job.cell].len(), job.trial, "trials grow in order");
                trials[job.cell].push(summary);
                Ok::<(), std::convert::Infallible>(())
            },
        );
        pending.retain(|&cell| {
            trials[cell].len() < config.max_trials
                && !config.met(&Aggregate::from_trials(&trials[cell]))
        });
        want = (want + config.batch).min(config.max_trials);
    }
    let cells = (0..cells)
        .map(|cell| {
            let aggregate = Aggregate::from_trials(&trials[cell]);
            AdaptiveCell {
                cell,
                trials: trials[cell].len(),
                converged: config.met(&aggregate),
                delivery_hw_pct: aggregate.delivery_ci_half_width(config.z),
                delay_hw_ms: aggregate.delay_ci_half_width(config.z),
                aggregate,
            }
        })
        .collect();
    AdaptiveReport { config: config.clone(), cells }
}

/// Renders an adaptive report as its JSON artifact
/// (`adaptive_report.json`, schema 2): realised per-cell trial counts,
/// half-widths and headline means, plus the plan hash and the targets
/// that drove the stopping rule. Rows name a cell's sweep axes exactly
/// as `sweep_results.json` cells do — only the axes the plan widens
/// ([`SweepPlan::cell_labels`]). Non-finite half-widths (cells with one
/// trial) render as `null`.
pub fn adaptive_json<P: Copy>(
    report: &AdaptiveReport,
    plan: &SweepPlan<P>,
    label: impl Fn(&P) -> String,
) -> String {
    let mut out = String::from("{\"schema\":2,\"kind\":\"adaptive-report\",\"plan_hash\":");
    push_string(&mut out, &hash_hex(plan.content_hash(&label)));
    push_members(&mut out, [("z", report.config.z)], push_f64_or_null);
    out.push_str(",\"targets\":");
    // An unset target renders as null, like a non-finite one.
    let targets = [
        ("delivery_hw_pct", report.config.delivery_hw_pct),
        ("delay_hw_ms", report.config.delay_hw_ms),
    ];
    push_object(&mut out, targets, |out, t| push_f64_or_null(out, t.unwrap_or(f64::NAN)));
    let _ = write!(
        out,
        ",\"batch\":{},\"max_trials\":{},\"min_trials\":{},\"total_trials\":{},\"cells\":",
        report.config.batch,
        report.config.max_trials,
        plan.trials,
        report.total_trials()
    );
    push_array(&mut out, &report.cells, |out, c| {
        let job = plan.job(c.cell, 0);
        let _ = write!(out, "{{\"cell\":{},\"protocol\":", c.cell);
        push_string(out, &label(&job.protocol));
        push_members(out, [("speed_kmh", job.speed_kmh)], push_f64_or_null);
        let _ = write!(out, ",\"nodes\":{}", job.nodes);
        push_members(out, plan.cell_labels(c.cell), |out, entry| push_string(out, &entry));
        let _ = write!(out, ",\"trials\":{},\"converged\":{}", c.trials, c.converged);
        push_members(
            out,
            [
                ("delivery_pct", c.aggregate.delivery_pct.mean()),
                ("delivery_hw_pct", c.delivery_hw_pct),
                ("delay_ms", c.aggregate.delay_ms.mean()),
                ("delay_hw_ms", c.delay_hw_ms),
            ],
            push_f64_or_null,
        );
        out.push('}');
    });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_metrics::Metrics;
    use rica_net::{DataPacket, FlowId, NodeId};
    use rica_sim::{SimDuration, SimTime};

    /// A noisy toy trial: delivery ratio and delay both wobble with the
    /// trial number, with cell-dependent noise amplitude (protocol 2 is
    /// noisier than protocol 1, so it needs more trials to converge).
    fn noisy_runner(job: &TrialJob<u8>) -> TrialSummary {
        let mut m = Metrics::new();
        let noise = (job.seed.wrapping_mul(0x9e37_79b9).wrapping_add(job.trial as u64 * 97)) % 10;
        let generated = 100;
        let delivered = 80 + (noise * job.protocol as u64) % 20;
        for i in 0..generated {
            m.on_generated();
            if i < delivered {
                let pkt = DataPacket::new(FlowId(0), i, NodeId(0), NodeId(1), 512, SimTime::ZERO);
                let at = SimTime::ZERO + SimDuration::from_millis(10 + noise * job.protocol as u64);
                m.on_delivered(&pkt, at);
            }
        }
        m.finish(SimDuration::from_secs(1))
    }

    fn plan() -> SweepPlan<u8> {
        SweepPlan::new(vec![1u8, 2], vec![0.0], vec![10], 3, 42)
    }

    #[test]
    fn no_targets_means_fixed_trials_identical_to_plan_run() {
        let p = plan();
        let report =
            run_adaptive(&p, &ExecOptions::serial(), &AdaptiveConfig::default(), noisy_runner);
        assert!(report.all_converged());
        assert_eq!(report.total_trials(), p.job_count());
        // The realised aggregates are exactly the fixed sweep's.
        let direct = p.run(&ExecOptions::serial(), noisy_runner);
        for (a, d) in report.cells.iter().zip(&direct.cells) {
            assert_eq!(a.trials, p.trials);
            assert_eq!(a.aggregate, d.aggregate, "fixed-trial adaptive ≡ plan run");
        }
    }

    #[test]
    fn targets_grow_noisy_cells_until_convergence() {
        let p = plan();
        let config = AdaptiveConfig {
            delivery_hw_pct: Some(2.0),
            batch: 2,
            max_trials: 64,
            ..AdaptiveConfig::default()
        };
        let report = run_adaptive(&p, &ExecOptions::serial(), &config, noisy_runner);
        assert!(report.all_converged(), "targets are reachable within the cap");
        for c in &report.cells {
            assert!(c.trials >= p.trials, "plan trials are the minimum");
            assert!(c.delivery_hw_pct <= 2.0, "cell {} missed its target", c.cell);
        }
        // Protocol 2's delivery noise is amplified; it needs more trials.
        assert!(
            report.cells[1].trials > report.cells[0].trials,
            "noisier cell should run more trials ({} vs {})",
            report.cells[1].trials,
            report.cells[0].trials
        );
        // Stopping is adaptive, not maximal.
        assert!(report.total_trials() < p.cell_count() * config.max_trials);
    }

    #[test]
    fn determinism_across_worker_counts() {
        let p = plan();
        let config = AdaptiveConfig {
            delivery_hw_pct: Some(2.5),
            delay_hw_ms: Some(5.0),
            batch: 3,
            max_trials: 48,
            ..AdaptiveConfig::default()
        };
        let serial = run_adaptive(&p, &ExecOptions::serial(), &config, noisy_runner);
        let parallel = run_adaptive(&p, &ExecOptions::with_workers(4), &config, noisy_runner);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.trials, b.trials, "realised counts are scheduling-independent");
            assert_eq!(a.aggregate, b.aggregate);
        }
        let label = |x: &u8| x.to_string();
        assert_eq!(
            adaptive_json(&serial, &p, label),
            adaptive_json(&parallel, &p, label),
            "artifact bytes too"
        );
    }

    #[test]
    fn unreachable_target_stops_at_the_cap() {
        let p = plan();
        let config = AdaptiveConfig {
            delivery_hw_pct: Some(1e-12),
            batch: 5,
            max_trials: 12,
            ..AdaptiveConfig::default()
        };
        let report = run_adaptive(&p, &ExecOptions::serial(), &config, noisy_runner);
        assert!(!report.all_converged());
        for c in &report.cells {
            assert_eq!(c.trials, 12, "the cap bounds every cell");
        }
    }

    #[test]
    fn report_json_names_cells_and_counts() {
        let p = plan();
        let config = AdaptiveConfig {
            delivery_hw_pct: Some(2.0),
            max_trials: 32,
            ..AdaptiveConfig::default()
        };
        let report = run_adaptive(&p, &ExecOptions::serial(), &config, noisy_runner);
        let doc = adaptive_json(&report, &p, |x| format!("P{x}"));
        assert!(doc.contains("\"kind\":\"adaptive-report\""));
        assert!(doc.contains("\"protocol\":\"P1\""));
        assert!(doc.contains("\"targets\":{\"delivery_hw_pct\":2,\"delay_hw_ms\":null}"));
        assert!(doc.contains(&format!("\"total_trials\":{}", report.total_trials())));
        // It parses as JSON (the workspace's own parser).
        rica_metrics::parse_json(doc.trim()).expect("valid JSON");
    }

    #[test]
    fn report_rows_name_the_widened_fault_axis() {
        use rica_faults::FaultPlan;
        let p = plan()
            .with_faults(vec![FaultPlan::none(), FaultPlan::none().with_churn(40.0, 8.0, 0.0)]);
        let report =
            run_adaptive(&p, &ExecOptions::serial(), &AdaptiveConfig::default(), noisy_runner);
        let doc = adaptive_json(&report, &p, |x| format!("P{x}"));
        let v = rica_metrics::parse_json(doc.trim()).expect("valid JSON");
        let rows = v.array_at("cells").unwrap();
        let faults: Vec<&str> = rows.iter().map(|r| r.str_at("faults").unwrap()).collect();
        assert_eq!(faults, ["none", "churn(up40s,down8s)", "none", "churn(up40s,down8s)"]);
        // The axes left at their default are not named.
        assert!(!doc.contains("\"workload\"") && !doc.contains("\"fidelity\""), "{doc}");
    }

    /// FNV-1a pin of an adaptive report: one-trial cells (non-finite
    /// half-widths render as `null`), one target set and one unset, and
    /// a widened fault axis. To regenerate after an intentional change:
    ///
    /// ```text
    /// GOLDEN_PRINT=1 cargo test -q -p rica-fleet adaptive_report_bytes -- --nocapture
    /// ```
    #[test]
    fn adaptive_report_bytes_are_pinned() {
        use rica_faults::FaultPlan;
        const WANT: u64 = 0xbe70_c22c_5903_11de;
        let mut p = plan()
            .with_faults(vec![FaultPlan::none(), FaultPlan::none().with_churn(40.0, 8.0, 0.0)]);
        p.trials = 1;
        let config = AdaptiveConfig {
            delivery_hw_pct: Some(2.5),
            max_trials: 1,
            ..AdaptiveConfig::default()
        };
        let report = run_adaptive(&p, &ExecOptions::serial(), &config, noisy_runner);
        let doc = adaptive_json(&report, &p, |x| format!("P\"{x}"));
        let hash = rica_exec::fnv1a(doc.as_bytes());
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT = 0x{hash:016x};\n{doc}");
            return;
        }
        assert_eq!(hash, WANT, "adaptive report bytes drifted:\n{doc}");
    }

    #[test]
    #[should_panic(expected = "below the plan's minimum")]
    fn cap_below_minimum_panics() {
        let p = plan();
        let config = AdaptiveConfig { max_trials: 2, ..AdaptiveConfig::default() };
        run_adaptive(&p, &ExecOptions::serial(), &config, noisy_runner);
    }
}
