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
//! `sweep` runs (or **resumes**) every shard: complete streams are kept,
//! missing or truncated ones re-run, all in one pass over the worker
//! pool. `merge` re-validates every stream and writes
//! `sweep_results.json`; with `--legacy` the bytes are identical to a
//! single-shot `SweepPlan::run` artifact, otherwise the meta block
//! records the plan hash and shard count.

use std::path::PathBuf;

use rica_exec::{sweep_json, ExecOptions, Progress, SweepPlan};
use rica_fleet::{adaptive_json, hash_hex, merge_fleet, run_adaptive, AdaptiveConfig};
use rica_harness::{sweep::run_job, ProtocolKind, Scenario};

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

fn parse_list<T: std::str::FromStr>(raw: &str, what: &str) -> Vec<T> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap_or_else(|_| die(&format!("bad {what} value {s:?}"))))
        .collect()
}

fn parse(args: impl Iterator<Item = String>) -> Args {
    let mut out = Args::default();
    let mut iter = args;
    let next_value = |iter: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        iter.next().unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--protocols" => {
                let v = next_value(&mut iter, "--protocols");
                out.protocols = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap_or_else(|e: String| die(&e)))
                    .collect();
            }
            "--speeds" => out.speeds = parse_list(&next_value(&mut iter, "--speeds"), "speed"),
            "--nodes" => out.nodes = parse_list(&next_value(&mut iter, "--nodes"), "node count"),
            "--trials" => {
                out.trials = next_value(&mut iter, "--trials").parse().unwrap_or_else(|_| {
                    die("bad --trials");
                })
            }
            "--seed" => {
                out.seed =
                    next_value(&mut iter, "--seed").parse().unwrap_or_else(|_| die("bad --seed"))
            }
            "--flows" => {
                out.flows =
                    next_value(&mut iter, "--flows").parse().unwrap_or_else(|_| die("bad --flows"))
            }
            "--duration" => {
                out.duration_secs = next_value(&mut iter, "--duration")
                    .parse()
                    .unwrap_or_else(|_| die("bad --duration"))
            }
            "--rate" => {
                out.rate_pps =
                    next_value(&mut iter, "--rate").parse().unwrap_or_else(|_| die("bad --rate"))
            }
            "--dir" => out.dir = Some(PathBuf::from(next_value(&mut iter, "--dir"))),
            "--shards" => {
                out.shards = next_value(&mut iter, "--shards")
                    .parse()
                    .unwrap_or_else(|_| die("bad --shards"))
            }
            "--workers" => {
                out.workers = Some(
                    next_value(&mut iter, "--workers")
                        .parse()
                        .unwrap_or_else(|_| die("bad --workers")),
                )
            }
            "--json" => out.json = Some(PathBuf::from(next_value(&mut iter, "--json"))),
            "--legacy" => out.legacy = true,
            "--ci-delivery" => {
                out.ci_delivery = Some(
                    next_value(&mut iter, "--ci-delivery")
                        .parse()
                        .unwrap_or_else(|_| die("bad --ci-delivery")),
                )
            }
            "--ci-delay" => {
                out.ci_delay = Some(
                    next_value(&mut iter, "--ci-delay")
                        .parse()
                        .unwrap_or_else(|_| die("bad --ci-delay")),
                )
            }
            "--batch" => {
                out.batch =
                    next_value(&mut iter, "--batch").parse().unwrap_or_else(|_| die("bad --batch"))
            }
            "--max-trials" => {
                out.max_trials = next_value(&mut iter, "--max-trials")
                    .parse()
                    .unwrap_or_else(|_| die("bad --max-trials"))
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
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

fn exec_options(a: &Args) -> ExecOptions {
    let mut opts = ExecOptions::with_workers(rica_exec::resolve_workers(a.workers));
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
            let result = merge_fleet(&plan, label, &dir).unwrap_or_else(|e| die(&e));
            let meta: Vec<(&str, String)> = if a.legacy {
                Vec::new()
            } else {
                vec![
                    ("plan_hash", hash_hex(plan.content_hash(label))),
                    ("fleet_shards", {
                        let m = rica_fleet::load_manifest(&dir).unwrap().unwrap();
                        m.shards.len().to_string()
                    }),
                ]
            };
            let doc = sweep_json(&result, label, &meta);
            let path = a.json.clone().unwrap_or_else(|| dir.join("sweep_results.json"));
            std::fs::write(&path, doc).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
            eprintln!("fleet: merged {} cells -> {}", result.cells.len(), path.display());
        }
        "adaptive" => {
            let config = AdaptiveConfig {
                delivery_hw_pct: a.ci_delivery,
                delay_hw_ms: a.ci_delay,
                batch: a.batch,
                max_trials: a.max_trials.max(a.trials),
                ..AdaptiveConfig::default()
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
            std::fs::write(&path, doc).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
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
