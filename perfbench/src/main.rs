//! Fleet-sweep benchmark of the RICA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Each workload runs rounds of the path `fleet sweep` takes —
//! `SweepPlan` → `rica_fleet::run_fleet` (4 shards, 2 worker threads) →
//! `merge_fleet` → `sweep_json` written to `<target>/benchmark/<workload>/`
//! — with fresh seeds each round, until `--seconds` are used up. It
//! prints every metric with its unit, checks the outputs, and ends with
//! one JSON line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! `--trace 0` (the default) reports the end-to-end metrics. `--trace 1`
//! runs a fixed set of rounds with profiling and a counting trace sink
//! attached and reports the per-layer metrics instead. Without
//! `--workload` every workload runs, each in its own child process.
//! Times are reported in reference seconds (see [`calibration`]).
//! `README.md` next to this crate documents the workloads, metrics and
//! bounds.

mod calibration;
mod layers;
mod memory;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use rica_exec::{fnv1a, sweep_json, ExecOptions, SweepPlan, TrialJob};
use rica_fleet::{ensure_manifest, hash_hex, merge_fleet, read_shard, run_fleet};
use rica_harness::{sweep::run_job, ProtocolKind, Scenario, World};
use rica_metrics::{Metrics, TrialRecord, TrialSummary};
use rica_sim::SimTime;

use layers::{json_num, CountingSink, LayerTotals, RoundLayers, SpanLog, TrialLayers, TrialTimes};
use workloads::{Workload, NAMES};

#[global_allocator]
static ALLOCATOR: memory::Counting = memory::Counting;

/// Shards per round, as `fleet sweep` cuts a plan by default.
const SHARDS: usize = 4;
/// Worker threads: at most this many trials simulate at once.
const WORKERS: usize = 2;
/// `World`'s event-storm safety valve; a trial that reaches it failed.
const VALVE_EVENTS: u64 = 500_000_000;
/// Rounds every run completes whatever `--seconds` says. The output
/// digest and the per-layer metrics cover exactly these rounds, so they
/// repeat at a given seed.
const REFERENCE_ROUNDS: usize = 3;
/// Seconds of calibration work on every worker before anything is timed.
const WARM_UP_S: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 1, seconds: 25.0, trace: false, smoke: false };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; expected one of {NAMES:?}"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_each_in_child(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of this executable, one at a
/// time, so no workload inherits another's heap or process memory.
fn run_each_in_child(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = Vec::new();
    for name in NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {failed:?}"))
    }
}

fn label(k: &ProtocolKind) -> String {
    k.name().to_string()
}

/// Where artifacts go: `$CARGO_TARGET_DIR/benchmark`, else
/// `target/benchmark`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// The job's concrete scenario: the template with the job's swept axes
/// applied, as `rica_harness::sweep::run_job` builds it.
fn job_scenario(
    base: &Scenario,
    plan: &SweepPlan<ProtocolKind>,
    job: &TrialJob<ProtocolKind>,
) -> Scenario {
    let mut s = base.clone();
    s.nodes = job.nodes;
    s.mean_speed_kmh = job.speed_kmh;
    s.workload = plan.workloads[job.workload].clone();
    s.channel.fidelity = job.fidelity;
    s.faults = plan.faults[job.faults].clone();
    s
}

/// Everything kept of one trial.
struct TrialStat {
    times: TrialTimes,
    events: u64,
    /// Panicked, hit the event valve, or failed an output check.
    failed: bool,
    summary: TrialSummary,
    layers: Option<TrialLayers>,
    /// Calibration slices just before and just after the trial.
    slices: [f64; 2],
    /// The most heap the trial held at once.
    heap_mib: f64,
}

impl TrialStat {
    /// Host seconds to reference seconds, for this trial's times.
    fn speed(&self) -> f64 {
        calibration::speed(&self.slices)
    }

    /// `World::new` to `finish`, in reference seconds.
    fn wall_s(&self) -> f64 {
        let t = &self.times;
        (t.new_s + t.start_s + t.step_s + t.finish_s) * self.speed()
    }
}

/// Packet conservation and finite statistics.
fn summary_ok(s: &TrialSummary) -> bool {
    s.delivered + s.dropped() <= s.generated
        && s.delay_mean_ms.is_finite()
        && s.overhead_kbps.is_finite()
}

/// `World::run`, one timed call at a time: `new → start → step_until(end)
/// → finish`.
fn timed_trial(
    scenario: &Scenario,
    job: &TrialJob<ProtocolKind>,
    traced: bool,
    spans: Option<(&SpanLog, u64)>,
) -> TrialStat {
    let held = memory::start();
    let t0 = Instant::now();
    let mut world = World::new(scenario, job.protocol, job.seed);
    let t1 = Instant::now();
    if traced {
        world.enable_profiling();
        world.enable_trace(Box::new(CountingSink::default()));
    }
    let t2 = Instant::now();
    world.start();
    let t3 = Instant::now();
    let events = world.step_until(SimTime::ZERO + scenario.duration);
    let t4 = Instant::now();
    let counts = world
        .take_trace_sink()
        .and_then(|mut sink| sink.downcast_mut::<CountingSink>().map(|c| std::mem::take(&mut c.0)))
        .unwrap_or_default();
    let t5 = Instant::now();
    let mut summary = world.finish();
    let t6 = Instant::now();
    let heap_mib = memory::peak_mib_since(held);
    // Profiling attaches diagnostics to the summary; trial records carry
    // none, so they are moved out before the summary reaches the fleet.
    let diag = summary.diagnostics.take();
    if let Some((log, parent)) = spans {
        let trial = Some(job.index);
        log.record(log.id(), parent, "harness.world_new", trial, t0, t1);
        log.record(log.id(), parent, "harness.start", trial, t2, t3);
        log.record(log.id(), parent, "harness.step", trial, t3, t4);
        log.record(log.id(), parent, "harness.finish", trial, t5, t6);
    }
    let d = |a: Instant, b: Instant| (b - a).as_secs_f64();
    TrialStat {
        times: TrialTimes {
            new_s: d(t0, t1),
            start_s: d(t2, t3),
            step_s: d(t3, t4),
            finish_s: d(t5, t6),
        },
        events,
        failed: events >= VALVE_EVENTS || !summary_ok(&summary),
        layers: traced.then(|| TrialLayers {
            diag: diag.unwrap_or_default(),
            counts,
            generated: summary.generated,
            delivered: summary.delivered,
            control_bits: summary.control_bits_total(),
        }),
        summary,
        slices: [0.0; 2],
        heap_mib,
    }
}

/// One round's trial runner, handed to `run_fleet`.
struct Runner<'a> {
    base: &'a Scenario,
    plan: &'a SweepPlan<ProtocolKind>,
    traced: bool,
    spans: Option<&'a SpanLog>,
    fleet_span: u64,
    stats: Mutex<Vec<Option<TrialStat>>>,
}

impl Runner<'_> {
    fn run(&self, job: &TrialJob<ProtocolKind>) -> TrialSummary {
        let scenario = job_scenario(self.base, self.plan, job);
        let span = self.spans.map(|log| (log, log.id()));
        let before = calibration::slice();
        let begin = Instant::now();
        let outcome =
            catch_unwind(AssertUnwindSafe(|| timed_trial(&scenario, job, self.traced, span)));
        let end = Instant::now();
        let mut stat = outcome.unwrap_or_else(|_| TrialStat {
            times: TrialTimes::default(),
            events: 0,
            failed: true,
            summary: Metrics::new().finish(scenario.duration),
            layers: None,
            slices: [0.0; 2],
            heap_mib: 0.0,
        });
        stat.slices = [before, calibration::slice()];
        if let Some((log, id)) = span {
            log.record(id, self.fleet_span, "harness.trial", Some(job.index), begin, end);
        }
        let summary = stat.summary.clone();
        self.stats.lock().expect("stats lock poisoned")[job.index] = Some(stat);
        summary
    }
}

/// One finished round.
struct Round {
    plan: SweepPlan<ProtocolKind>,
    /// Plan build to artifact written, in host seconds.
    wall_s: f64,
    /// Host seconds to reference seconds, for the round as a whole.
    speed: f64,
    /// Plan build, content hash and manifest write, plus every trial's
    /// `World::new` and `start`, in reference seconds.
    setup_s: f64,
    /// In job order.
    trials: Vec<TrialStat>,
    /// FNV-1a of the merged `sweep_json` bytes.
    digest: u64,
    layers: RoundLayers,
}

fn secs(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64()
}

fn run_round(
    w: &Workload,
    seed: u64,
    round: usize,
    dir: &Path,
    traced: bool,
    spans: Option<&SpanLog>,
) -> Result<Round, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let opts = ExecOptions::with_workers(WORKERS);
    let (root, fleet_span) = spans.map_or((0, 0), |log| (log.id(), log.id()));
    let t0 = Instant::now();
    let plan = w.plan(seed, round);
    let t_plan = Instant::now();
    let manifest = ensure_manifest(&plan, label, dir, SHARDS)?;
    let t_manifest = Instant::now();
    let runner = Runner {
        base: &w.base,
        plan: &plan,
        traced,
        spans,
        fleet_span,
        stats: Mutex::new((0..plan.job_count()).map(|_| None).collect()),
    };
    let report = run_fleet(&plan, label, dir, SHARDS, &opts, |job| runner.run(job))?;
    let t_fleet = Instant::now();
    let merged = merge_fleet(&plan, label, dir)?;
    let t_merge = Instant::now();
    let meta = [("plan_hash", hash_hex(manifest.plan_hash)), ("fleet_shards", SHARDS.to_string())];
    let doc = sweep_json(&merged, label, &meta);
    let t_render = Instant::now();
    let artifact = dir.join("sweep_results.json");
    std::fs::write(&artifact, &doc).map_err(|e| format!("{}: {e}", artifact.display()))?;
    let t_end = Instant::now();
    if report.ran.len() != SHARDS {
        return Err(format!("a fresh fleet directory ran {} of {SHARDS} shards", report.ran.len()));
    }

    let mut trials: Vec<TrialStat> = runner
        .stats
        .into_inner()
        .expect("stats lock poisoned")
        .into_iter()
        .enumerate()
        .map(|(job, s)| s.ok_or(format!("job {job} never ran")))
        .collect::<Result<_, _>>()?;
    // Check: the merged summaries are the runner's, bit for bit.
    for (c, cell) in merged.cells.iter().enumerate() {
        for (t, merged_summary) in cell.trials.iter().enumerate() {
            let stat = &mut trials[c * plan.trials + t];
            if format!("{merged_summary:?}") != format!("{:?}", stat.summary) {
                stat.failed = true;
            }
        }
    }
    // Check: resuming the finished directory runs no shard.
    let t_resume = Instant::now();
    let resume = run_fleet(&plan, label, dir, SHARDS, &opts, |job| {
        Metrics::new().finish(job_scenario(&w.base, &plan, job).duration)
    })?;
    let t_resumed = Instant::now();
    for &shard in &resume.ran {
        let spec = &manifest.shards[shard];
        trials[spec.start..spec.end].iter_mut().for_each(|t| t.failed = true);
    }

    let mut layers = RoundLayers {
        run_fleet_s: secs(t_manifest, t_fleet),
        merge_s: secs(t_fleet, t_merge),
        resume_scan_s: secs(t_resume, t_resumed),
        render_s: secs(t_merge, t_render),
        artifact_bytes: doc.len() as u64,
        ..RoundLayers::default()
    };
    if let Some(log) = spans {
        for (name, a, b) in [
            ("exec.plan", t0, t_plan),
            ("fleet.manifest", t_plan, t_manifest),
            ("fleet.merge", t_fleet, t_merge),
            ("exec.render", t_merge, t_render),
            ("exec.write", t_render, t_end),
        ] {
            log.record(log.id(), root, name, None, a, b);
        }
        log.record(fleet_span, root, "fleet.run_fleet", None, t_manifest, t_fleet);
        log.record(root, 0, "round", None, t0, t_end);
        log.record(log.id(), 0, "fleet.resume_scan", None, t_resume, t_resumed);
        measure_codec(&manifest, dir, &mut layers, log)?;
    }
    let slices: Vec<f64> = trials.iter().flat_map(|t| t.slices).collect();
    let speed = calibration::speed(&slices);
    let setup_s = secs(t0, t_manifest) * speed
        + trials.iter().map(|t| (t.times.new_s + t.times.start_s) * t.speed()).sum::<f64>();
    Ok(Round {
        plan,
        wall_s: secs(t0, t_end),
        speed,
        setup_s,
        trials,
        digest: fnv1a(doc.as_bytes()),
        layers,
    })
}

/// Traced pass only: times `read_shard` over the round's streams and the
/// round's records through `TrialRecord::to_line` and `parse`.
fn measure_codec(
    manifest: &rica_fleet::FleetManifest,
    dir: &Path,
    layers: &mut RoundLayers,
    log: &SpanLog,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut records = Vec::new();
    for shard in 0..manifest.shards.len() {
        records.extend(read_shard(manifest, shard, dir)?);
    }
    let t1 = Instant::now();
    let lines: Vec<String> = records.iter().map(TrialRecord::to_line).collect();
    let t2 = Instant::now();
    for line in &lines {
        std::hint::black_box(TrialRecord::parse(line)?);
    }
    let t3 = Instant::now();
    layers.read_shard_s = secs(t0, t1);
    layers.encode_s = secs(t1, t2);
    layers.decode_s = secs(t2, t3);
    layers.record_bytes = lines.iter().map(|l| l.len() as u64).sum();
    for (name, a, b) in
        [("fleet.read_shard", t0, t1), ("metrics.encode", t1, t2), ("metrics.decode", t2, t3)]
    {
        log.record(log.id(), 0, name, None, a, b);
    }
    Ok(())
}

/// The `q` quantile (`q` in `[0, 1]`), estimated as the mean of the
/// order statistics ranked within 5 percentage points of it. A trial mix
/// falls into clusters (LinkState beside the on-demand protocols, AODV
/// beside RICA), and a single order statistic between two clusters jumps
/// from seed to seed; the window smooths that. Below 20 values it is the
/// usual median or linear interpolation.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let lo = ((q - 0.05) * n).floor().max(0.0) as usize;
    let hi = (((q + 0.05) * n).ceil() as usize).min(v.len());
    if hi >= lo + 2 && n >= 20.0 {
        return v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
    }
    let pos = q * (n - 1.0);
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Peak resident memory of this process (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    let w = Workload::by_name(name, args.smoke).expect("workload names are checked when parsed");
    let out = out_dir();
    let dir = out.join(name);
    let reference = if args.smoke { 1 } else { REFERENCE_ROUNDS };
    let spans = args.trace.then(SpanLog::new);
    calibration::warm_up(WORKERS, WARM_UP_S);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round = run_round(&w, args.seed, rounds.len(), &dir, args.trace, spans.as_ref())?;
        let last_wall = round.wall_s;
        rounds.push(round);
        if rounds.len() < reference {
            continue;
        }
        // The traced pass covers the reference rounds only; a timed run
        // starts another round only if it fits in `--seconds`.
        if args.trace || args.smoke || started.elapsed().as_secs_f64() + last_wall > args.seconds {
            break;
        }
    }

    // Check: one seed-chosen job of round 0 gives the summary
    // `rica_harness::sweep::run_job` gives.
    let plan0 = &rounds[0].plan;
    let chosen = (fnv1a(&args.seed.to_le_bytes()) % plan0.job_count() as u64) as usize;
    let direct = run_job(&w.base, plan0, &plan0.job_at(chosen));
    if format!("{direct:?}") != format!("{:?}", rounds[0].trials[chosen].summary) {
        rounds[0].trials[chosen].failed = true;
    }

    let trials = || rounds.iter().flat_map(|r| &r.trials);
    let attempted = trials().count();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slices: Vec<f64> = trials().flat_map(|t| t.slices).collect();
    println!(
        "workload {name}: seed {}, {} round(s), {attempted} trials, {WORKERS} workers, \
         {SHARDS} shards, nproc {nproc}; times in reference seconds (host speed factor {})",
        args.seed,
        rounds.len(),
        json_num(calibration::speed(&slices)),
    );

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        traced_metrics(&w, args.seed, &dir, &mut rounds, spans.expect("traced"), &out, name)?
    } else {
        let rates: Vec<f64> =
            rounds.iter().map(|r| r.trials.len() as f64 / (r.wall_s * r.speed)).collect();
        let walls: Vec<f64> = trials().map(TrialStat::wall_s).collect();
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let heaps: Vec<f64> = trials().map(|t| t.heap_mib).collect();
        vec![
            ("trials_per_s".into(), quantile(&rates, 0.5), "trials/s"),
            ("trial_s_p50".into(), quantile(&walls, 0.5), "s"),
            ("trial_s_p90".into(), quantile(&walls, 0.9), "s"),
            ("setup_s".into(), quantile(&setups, 0.5), "s"),
            ("trial_heap_mib".into(), quantile(&heaps, 0.9), "MiB"),
        ]
    };
    let failed = rounds.iter().flat_map(|r| &r.trials).filter(|t| t.failed).count();
    for (metric, value, unit) in &metrics {
        println!("  {metric:<34} {:>14} {unit}", json_num(*value));
    }
    println!(
        "  {:<34} {:>14} fraction",
        "failed_share",
        json_num(failed as f64 / attempted as f64)
    );
    println!("  {:<34} {:>14} MiB (unjudged)", "peak_rss_mib", json_num(peak_rss_mib()?));

    // Unjudged outputs over the reference rounds: they repeat exactly at a
    // given seed, so a speed-only change must leave them as they are.
    let reference_rounds = &rounds[..reference];
    let mut digests = Vec::new();
    for r in reference_rounds {
        digests.extend_from_slice(&r.digest.to_le_bytes());
    }
    let summaries: Vec<&TrialSummary> =
        reference_rounds.iter().flat_map(|r| &r.trials).map(|t| &t.summary).collect();
    let mean = |f: fn(&TrialSummary) -> f64| {
        summaries.iter().map(|s| f(s)).sum::<f64>() / summaries.len() as f64
    };
    println!("outputs (unjudged; the model is not validated against the paper's figures):");
    println!("  output_digest {}", hash_hex(fnv1a(&digests)));
    println!("  delivery_pct  {}", json_num(mean(TrialSummary::delivery_pct)));
    println!("  delay_ms      {}", json_num(mean(|s| s.delay_mean_ms)));
    println!("  overhead_kbps {}", json_num(mean(|s| s.overhead_kbps)));

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
    Ok(())
}

/// The traced pass: folds the reference rounds into per-layer metrics,
/// re-runs round 0 untraced for the tracing overhead (failing any trial
/// whose event count differs), prints self time per span name and
/// writes the spans out.
fn traced_metrics(
    w: &Workload,
    seed: u64,
    dir: &Path,
    rounds: &mut [Round],
    spans: SpanLog,
    out: &Path,
    name: &str,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let plain = run_round(w, seed, 0, dir, false, None)?;
    for (traced, untraced) in rounds[0].trials.iter_mut().zip(&plain.trials) {
        if traced.events != untraced.events {
            traced.failed = true;
        }
    }
    let mut totals = LayerTotals::default();
    for r in rounds.iter() {
        totals.add_round(&r.layers, r.speed);
        for t in &r.trials {
            if let Some(l) = &t.layers {
                totals.add_trial(&t.times, l, t.speed());
            }
        }
    }
    let step_s = |r: &Round| r.trials.iter().map(|t| t.times.step_s * t.speed()).sum::<f64>();
    let (traced_step0, plain_step0) = (step_s(&rounds[0]), step_s(&plain));
    let metrics = totals.metrics(WORKERS, traced_step0 / plain_step0);

    let spans = spans.into_spans();
    println!("self time per layer (s, summed over {} span(s)):", spans.len());
    for (layer, s) in layers::self_times(&spans) {
        println!("  {layer:<34} {}", json_num(s));
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("spans_{name}.jsonl"));
    std::fs::write(&path, layers::spans_jsonl(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans -> {}", path.display());
    Ok(metrics)
}
