//! Fleet CLI: sharded, resumable sweeps over the real simulator.
//!
//! ```text
//! fleet sweep     --dir DIR [--shards N] [--workers N] [--spawn] [plan flags]
//! fleet run-shard --dir DIR --shard I [--workers N] [plan flags]
//! fleet merge     --dir DIR [--json PATH] [--legacy] [plan flags]
//! fleet adaptive  [--json PATH] [--workers N] [--ci-delivery PCT]
//!                 [--ci-delay MS] [--batch N] [--max-trials N] [plan flags]
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
//! missing or truncated ones re-run. With `--spawn` each pending shard
//! runs in its own child process (`fleet run-shard`), the process-level
//! analogue of the in-process worker pool. `merge` re-validates every
//! stream and writes `sweep_results.json`; with `--legacy` the bytes are
//! identical to a single-shot `SweepPlan::run` artifact, otherwise the
//! meta block records the plan hash and shard count.

use std::path::PathBuf;
use std::process::Command;

use rica_exec::{sweep_json, ExecOptions, Progress, SweepPlan};
use rica_fleet::{
    adaptive_json, ensure_manifest, hash_hex, merge_fleet, run_adaptive, run_shard, shard_state,
    AdaptiveConfig, ShardState,
};
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
    shard: Option<usize>,
    workers: Option<usize>,
    spawn: bool,
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
            shard: None,
            workers: None,
            spawn: false,
            json: None,
            legacy: false,
            ci_delivery: None,
            ci_delay: None,
            batch: 4,
            max_trials: 64,
        }
    }
}

fn protocol(name: &str) -> ProtocolKind {
    match name.to_lowercase().as_str() {
        "rica" => ProtocolKind::Rica,
        "bgca" => ProtocolKind::Bgca,
        "abr" => ProtocolKind::Abr,
        "aodv" => ProtocolKind::Aodv,
        "linkstate" | "ls" => ProtocolKind::LinkState,
        other => die(&format!("unknown protocol {other:?}")),
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
                out.protocols = v.split(',').filter(|s| !s.is_empty()).map(protocol).collect();
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
            "--shard" => {
                out.shard = Some(
                    next_value(&mut iter, "--shard").parse().unwrap_or_else(|_| die("bad --shard")),
                )
            }
            "--workers" => {
                out.workers = Some(
                    next_value(&mut iter, "--workers")
                        .parse()
                        .unwrap_or_else(|_| die("bad --workers")),
                )
            }
            "--spawn" => out.spawn = true,
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

/// The canonical plan flags, re-emitted for `run-shard` children so a
/// child derives the exact parent plan.
fn plan_flags(a: &Args) -> Vec<String> {
    let mut f = vec![
        "--protocols".into(),
        a.protocols.iter().map(|p| p.name().to_lowercase()).collect::<Vec<_>>().join(","),
        "--speeds".into(),
        a.speeds.iter().map(f64::to_string).collect::<Vec<_>>().join(","),
        "--nodes".into(),
        a.nodes.iter().map(usize::to_string).collect::<Vec<_>>().join(","),
        "--trials".into(),
        a.trials.to_string(),
        "--seed".into(),
        a.seed.to_string(),
        "--flows".into(),
        a.flows.to_string(),
        "--duration".into(),
        a.duration_secs.to_string(),
        "--rate".into(),
        a.rate_pps.to_string(),
    ];
    if let Some(w) = a.workers {
        f.push("--workers".into());
        f.push(w.to_string());
    }
    f
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
    let cmd = argv.next().unwrap_or_else(|| die("usage: fleet <sweep|run-shard|merge|adaptive> …"));
    let a = parse(argv);
    let (plan, base) = build(&a);
    let runner = |job: &rica_exec::TrialJob<ProtocolKind>| run_job(&base, &plan, job);
    match cmd.as_str() {
        "sweep" => {
            let dir = a.dir.clone().unwrap_or_else(|| die("sweep needs --dir"));
            if a.spawn {
                sweep_spawned(&a, &plan, &dir);
            } else {
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
        }
        "run-shard" => {
            let dir = a.dir.clone().unwrap_or_else(|| die("run-shard needs --dir"));
            let shard = a.shard.unwrap_or_else(|| die("run-shard needs --shard"));
            let manifest =
                rica_fleet::load_manifest(&dir).unwrap_or_else(|e| die(&e)).unwrap_or_else(|| {
                    die("run-shard needs an existing manifest (run `fleet sweep` first)")
                });
            manifest.matches_plan(&plan, label).unwrap_or_else(|e| die(&e));
            if shard >= manifest.shards.len() {
                die(&format!("shard {shard} out of range ({})", manifest.shards.len()));
            }
            run_shard(&plan, &manifest, shard, &dir, &exec_options(&a), runner)
                .unwrap_or_else(|e| die(&format!("shard {shard}: {e}")));
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

/// Per-shard outcome of a spawned sweep, for the structured summary.
enum ShardOutcome {
    /// Shard file already complete; no child spawned.
    Reused,
    /// First child attempt exited successfully.
    Ok,
    /// First attempt failed; the retry succeeded.
    OkAfterRetry,
    /// Both attempts failed; carries the last exit status.
    Failed(std::process::ExitStatus),
}

/// Process-level fan-out: one `fleet run-shard` child per pending shard.
///
/// A shard whose child exits non-zero (transient spawn-level failures:
/// OOM kill, signal, disk hiccup) is retried exactly once after a
/// bounded backoff; shard files are content-checked on resume, so a
/// retry can never corrupt a sweep — at worst it fails again. Shard
/// results themselves stay deterministic: the retry re-runs the same
/// plan-derived job range.
fn sweep_spawned(a: &Args, plan: &SweepPlan<ProtocolKind>, dir: &std::path::Path) {
    let manifest = ensure_manifest(plan, label, dir, a.shards).unwrap_or_else(|e| die(&e));
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let spawn_shard = |shard: usize| {
        let mut cmd = Command::new(&exe);
        cmd.arg("run-shard")
            .arg("--dir")
            .arg(dir)
            .arg("--shard")
            .arg(shard.to_string())
            .args(plan_flags(a));
        cmd.spawn().unwrap_or_else(|e| die(&format!("spawn shard {shard}: {e}")))
    };
    let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(manifest.shards.len());
    let mut children = Vec::new();
    for shard in 0..manifest.shards.len() {
        if shard_state(&manifest, shard, dir) == ShardState::Complete {
            outcomes.push(ShardOutcome::Reused);
            continue;
        }
        outcomes.push(ShardOutcome::Ok); // provisional; demoted below on failure
        children.push((shard, spawn_shard(shard)));
    }
    let mut retry_queue = Vec::new();
    for (shard, mut child) in children {
        let status = child.wait().unwrap_or_else(|e| die(&format!("wait shard {shard}: {e}")));
        if !status.success() {
            eprintln!("fleet: shard {shard} child failed ({status}); will retry once");
            retry_queue.push(shard);
        }
    }
    // Retry pass: bounded backoff (500 ms + 250 ms per queued shard,
    // capped at 2 s) gives transient resource pressure a moment to
    // clear, then each failed shard gets exactly one more attempt.
    if !retry_queue.is_empty() {
        let backoff_ms = (500 + 250 * retry_queue.len() as u64).min(2_000);
        std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
        let retries: Vec<_> =
            retry_queue.iter().map(|&shard| (shard, spawn_shard(shard))).collect();
        for (shard, mut child) in retries {
            let status = child.wait().unwrap_or_else(|e| die(&format!("wait shard {shard}: {e}")));
            outcomes[shard] = if status.success() {
                ShardOutcome::OkAfterRetry
            } else {
                ShardOutcome::Failed(status)
            };
        }
    }
    // Structured per-shard summary: one line per shard, machine-grepable.
    let mut failed = 0;
    for (shard, outcome) in outcomes.iter().enumerate() {
        match outcome {
            ShardOutcome::Reused => eprintln!("fleet: shard {shard}: reused"),
            ShardOutcome::Ok => eprintln!("fleet: shard {shard}: ok"),
            ShardOutcome::OkAfterRetry => eprintln!("fleet: shard {shard}: ok (after retry)"),
            ShardOutcome::Failed(status) => {
                eprintln!("fleet: shard {shard}: FAILED ({status}) after retry");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("fleet: {failed}/{} shard(s) failed", manifest.shards.len());
        std::process::exit(1);
    }
    let reused = outcomes.iter().filter(|o| matches!(o, ShardOutcome::Reused)).count();
    eprintln!(
        "fleet: plan {} — spawned {} shard(s), reused {reused}",
        hash_hex(manifest.plan_hash),
        manifest.shards.len() - reused
    );
}
