//! Fleet CLI: sharded, resumable sweeps over the real simulator.
//!
//! ```text
//! fleet sweep    --dir DIR [--shards N] [--workers N] [plan flags]
//! fleet merge    --dir DIR [--json PATH] [--legacy] [plan flags]
//! fleet adaptive [--json PATH] [--workers N] [--ci-delivery PCT]
//!                [--ci-delay MS] [--batch N] [--max-trials N] [plan flags]
//! ```
//!
//! Plan flags (identical across every command touching one directory —
//! the manifest's plan hash enforces this):
//!
//! ```text
//! --protocols LIST   rica,bgca,abr,aodv,linkstate   (default rica,aodv)
//! --speeds LIST      mean speeds in km/h            (default 0,36,72)
//! --nodes LIST       node counts                    (default 25)
//! --trials N         trials per cell                (default 5)
//! --seed N           base seed                      (default 42)
//! --flows N          template flow count            (default 5)
//! --duration SECS    simulated seconds per trial    (default 30)
//! --rate PPS         per-flow packet rate           (default 4)
//! ```
//!
//! A malformed value, or one no sweep can run (an empty list, fewer than
//! 2 nodes, more flows than node pairs, zero trials, shards or batch, a
//! non-positive duration, rate or CI target, a negative or non-finite
//! speed, more shards than jobs), exits 2 before anything runs or any file
//! is written. An artifact that cannot be written (`--json /dev/full`)
//! exits 1 naming its path, after `merge` has read every stream or
//! `adaptive` has run and printed every cell.
//!
//! `--shards` defaults to 4, or to one shard per job for a smaller plan.
//!
//! `sweep` runs (or **resumes**) every shard: complete streams are kept,
//! missing or truncated ones re-run, all in one pass over the worker
//! pool. `merge` re-validates every stream and writes
//! `sweep_results.json`; with `--legacy` the bytes are identical to a
//! single-shot `SweepPlan::run` artifact, otherwise the meta block
//! records the plan hash and shard count.

use std::path::PathBuf;
use std::str::FromStr;

use rica_exec::{sweep_json, ExecOptions, Progress, SweepPlan};
use rica_fleet::{
    adaptive_json, hash_hex, load_manifest, merge_manifest, run_adaptive, AdaptiveConfig,
};
use rica_harness::{sweep::run_job, ProtocolKind, Scenario};
use rica_sim::SimDuration;

struct Args {
    protocols: Vec<ProtocolKind>,
    speeds: Vec<f64>,
    nodes: Vec<usize>,
    trials: usize,
    seed: u64,
    flows: usize,
    duration_secs: f64,
    rate_pps: f64,
    dir: Option<PathBuf>,
    shards: usize,
    workers: Option<usize>,
    json: Option<PathBuf>,
    legacy: bool,
    ci_delivery: Option<f64>,
    ci_delay: Option<f64>,
    batch: usize,
    max_trials: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            protocols: vec![ProtocolKind::Rica, ProtocolKind::Aodv],
            speeds: vec![0.0, 36.0, 72.0],
            nodes: vec![25],
            trials: 5,
            seed: 42,
            flows: 5,
            duration_secs: 30.0,
            rate_pps: 4.0,
            dir: None,
            shards: 4,
            workers: None,
            json: None,
            legacy: false,
            ci_delivery: None,
            ci_delay: None,
            batch: 4,
            max_trials: 64,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("fleet: {msg}");
    std::process::exit(2);
}

/// Reports a failure after the work has run and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("fleet: {msg}");
    std::process::exit(1);
}

/// `raw` parsed as `flag`'s value, exiting 2 unless it parses and passes
/// `ok` (`need` says what a valid value is).
fn value<T: FromStr>(raw: &str, flag: &str, need: &str, ok: impl Fn(&T) -> bool) -> T {
    match raw.parse() {
        Ok(v) if ok(&v) => v,
        _ => die(&format!("{flag} needs {need}, got {raw:?}")),
    }
}

/// A comma-separated list flag of at least one `item`.
fn list<T>(raw: &str, flag: &str, item: impl Fn(&str) -> T) -> Vec<T> {
    let items: Vec<T> = raw.split(',').filter(|s| !s.is_empty()).map(item).collect();
    if items.is_empty() {
        die(&format!("{flag} needs at least one value"));
    }
    items
}

/// Parses the flags and rejects every value a sweep cannot run, before
/// anything runs or any file is written.
fn parse(args: impl Iterator<Item = String>) -> Args {
    let mut out = Args::default();
    let mut shards = None;
    let mut iter = args;
    let count = |raw: &str, flag: &str| value(raw, flag, "a positive integer", |&n: &usize| n > 0);
    let target =
        |raw: &str, flag: &str| Some(value(raw, flag, "a positive number", |&t: &f64| t > 0.0));
    while let Some(flag) = iter.next() {
        if flag == "--legacy" {
            out.legacy = true;
            continue;
        }
        let raw = iter.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let raw = raw.as_str();
        match flag.as_str() {
            "--protocols" => {
                out.protocols = list(raw, "--protocols", |s| {
                    s.parse().unwrap_or_else(|e: String| die(&format!("--protocols: {e}")))
                })
            }
            "--speeds" => {
                out.speeds = list(raw, "--speeds", |s| {
                    value(s, "--speeds", "finite speeds >= 0", |&v: &f64| {
                        (0.0..=f64::MAX / 2.0).contains(&v)
                    })
                })
            }
            "--nodes" => {
                out.nodes = list(raw, "--nodes", |s| {
                    value(s, "--nodes", "node counts of at least 2", |&n: &usize| n >= 2)
                })
            }
            "--trials" => out.trials = count(raw, "--trials"),
            "--seed" => out.seed = value(raw, "--seed", "an integer", |_| true),
            "--flows" => out.flows = value(raw, "--flows", "an integer", |_| true),
            "--duration" => {
                out.duration_secs = value(raw, "--duration", "a positive duration", |&s: &f64| {
                    SimDuration::try_from_secs_f64(s).is_some_and(|d| d > SimDuration::ZERO)
                })
            }
            "--rate" => {
                out.rate_pps = value(raw, "--rate", "a positive rate", |&r: &f64| {
                    rica_sim::usable_mean_gap(r).is_some()
                })
            }
            "--dir" => out.dir = Some(PathBuf::from(raw)),
            "--shards" => shards = Some(count(raw, "--shards")),
            "--workers" => out.workers = Some(count(raw, "--workers")),
            "--json" => out.json = Some(PathBuf::from(raw)),
            "--ci-delivery" => out.ci_delivery = target(raw, "--ci-delivery"),
            "--ci-delay" => out.ci_delay = target(raw, "--ci-delay"),
            "--batch" => out.batch = count(raw, "--batch"),
            "--max-trials" => out.max_trials = value(raw, "--max-trials", "an integer", |_| true),
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    let fewest = out.nodes.iter().min().copied().unwrap_or(2);
    if out.flows > fewest.saturating_mul(fewest - 1) {
        die(&format!("--flows {} exceeds the distinct pairs of {fewest} nodes", out.flows));
    }
    let jobs = [out.protocols.len(), out.speeds.len(), out.nodes.len(), out.trials]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
        .unwrap_or_else(|| die("the plan's job count overflows"));
    // Every shard needs a job; a small plan gets fewer than the default.
    out.shards = match shards {
        Some(n) if n > jobs => die(&format!("--shards {n} exceeds the plan's {jobs} jobs")),
        Some(n) => n,
        None => out.shards.min(jobs),
    };
    out
}

fn label(k: &ProtocolKind) -> String {
    k.name().to_string()
}

fn build(a: &Args) -> (SweepPlan<ProtocolKind>, Scenario) {
    let plan =
        SweepPlan::new(a.protocols.clone(), a.speeds.clone(), a.nodes.clone(), a.trials, a.seed);
    let base = Scenario::builder()
        .nodes(a.nodes[0])
        .flows(a.flows)
        .duration_secs(a.duration_secs)
        .rate_pps(a.rate_pps)
        .mean_speed_kmh(a.speeds[0])
        .seed(a.seed)
        .build();
    (plan, base)
}

/// The worker pool's options, exiting 2 on an unusable `RICA_WORKERS`.
fn exec_options(a: &Args) -> ExecOptions {
    let workers = rica_exec::resolve_workers(a.workers).unwrap_or_else(|e| die(&e));
    let mut opts = ExecOptions::with_workers(workers);
    opts.progress = Progress::Stderr;
    opts
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| die("usage: fleet <sweep|merge|adaptive> …"));
    let a = parse(argv);
    let (plan, base) = build(&a);
    let runner = |job: &rica_exec::TrialJob<ProtocolKind>| run_job(&base, &plan, job);
    match cmd.as_str() {
        "sweep" => {
            let dir = a.dir.clone().unwrap_or_else(|| die("sweep needs --dir"));
            let report =
                rica_fleet::run_fleet(&plan, label, &dir, a.shards, &exec_options(&a), runner)
                    .unwrap_or_else(|e| die(&e));
            eprintln!(
                "fleet: plan {} — ran {} shard(s), reused {}",
                hash_hex(report.manifest.plan_hash),
                report.ran.len(),
                report.reused.len()
            );
        }
        "merge" => {
            let dir = a.dir.clone().unwrap_or_else(|| die("merge needs --dir"));
            let manifest = match load_manifest(&dir) {
                Ok(Some(m)) => m,
                Ok(None) => die(&format!("{}: fleet directory has no manifest", dir.display())),
                Err(e) => die(&e),
            };
            let result = merge_manifest(&plan, label, &manifest, &dir).unwrap_or_else(|e| die(&e));
            let meta: Vec<(&str, String)> = if a.legacy {
                Vec::new()
            } else {
                vec![
                    ("plan_hash", hash_hex(plan.content_hash(label))),
                    ("fleet_shards", manifest.shards.len().to_string()),
                ]
            };
            let doc = sweep_json(&result, label, &meta);
            let path = a.json.clone().unwrap_or_else(|| dir.join("sweep_results.json"));
            std::fs::write(&path, doc)
                .unwrap_or_else(|e| fail(&format!("could not write {}: {e}", path.display())));
            eprintln!("fleet: merged {} cells -> {}", result.cells.len(), path.display());
        }
        "adaptive" => {
            let config = AdaptiveConfig {
                delivery_hw_pct: a.ci_delivery,
                delay_hw_ms: a.ci_delay,
                batch: a.batch,
                max_trials: a.max_trials.max(a.trials),
            };
            let report = run_adaptive(&plan, &exec_options(&a), &config, runner);
            for c in &report.cells {
                let job = plan.job(c.cell, 0);
                eprintln!(
                    "fleet: cell {:>3} {:>9} v={:>5} n={:>3} -> {:>3} trials, \
                     delivery {:6.2}% ± {:.3}, delay {:8.2} ms ± {:.3}{}",
                    c.cell,
                    job.protocol.name(),
                    job.speed_kmh,
                    job.nodes,
                    c.trials,
                    c.aggregate.delivery_pct.mean(),
                    c.delivery_hw_pct,
                    c.aggregate.delay_ms.mean(),
                    c.delay_hw_ms,
                    if c.converged { "" } else { "  [capped]" },
                );
            }
            let doc = adaptive_json(&report, &plan, label);
            let path = a.json.clone().unwrap_or_else(|| PathBuf::from("adaptive_report.json"));
            std::fs::write(&path, doc)
                .unwrap_or_else(|e| fail(&format!("could not write {}: {e}", path.display())));
            eprintln!(
                "fleet: {} trials across {} cells ({}) -> {}",
                report.total_trials(),
                report.cells.len(),
                if report.all_converged() { "all converged" } else { "some capped" },
                path.display()
            );
        }
        other => die(&format!("unknown command {other:?}")),
    }
}
