//! The fleet coordinator: resume-aware shard execution and the
//! deterministic merge back into a legacy sweep result.

use std::path::Path;

use rica_exec::{ExecOptions, SweepPlan, SweepResult, TrialJob};
use rica_metrics::TrialSummary;

use crate::manifest::FleetManifest;
use crate::shard::{read_shard, run_shards, shard_state, ShardState};

/// File name of the manifest inside a fleet directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// What one coordinator pass did per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// The manifest the pass ran under (fresh or adopted from disk).
    pub manifest: FleetManifest,
    /// Shards executed in this pass (missing or invalid on entry).
    pub ran: Vec<usize>,
    /// Shards whose existing streams validated and were kept as-is.
    pub reused: Vec<usize>,
}

/// Loads the manifest of a fleet directory, if one exists.
pub fn load_manifest(dir: &Path) -> Result<Option<FleetManifest>, String> {
    let path = dir.join(MANIFEST_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let body = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    FleetManifest::parse(&body).map(Some)
}

/// Resolves the manifest a pass should run under: adopt a matching
/// on-disk manifest (its shard split wins — that is what the existing
/// streams were cut against), or derive and persist a fresh
/// `shard_count`-way split. A manifest from a *different* plan is a
/// hard error: the directory holds someone else's results.
pub fn ensure_manifest<P: Copy>(
    plan: &SweepPlan<P>,
    label: impl Fn(&P) -> String,
    dir: &Path,
    shard_count: usize,
) -> Result<FleetManifest, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if let Some(existing) = load_manifest(dir)? {
        existing.matches_plan(plan, &label)?;
        return Ok(existing);
    }
    let manifest = FleetManifest::split(plan, label, shard_count);
    std::fs::write(dir.join(MANIFEST_FILE), manifest.to_json())
        .map_err(|e| format!("write manifest: {e}"))?;
    Ok(manifest)
}

/// Runs (or resumes) a sharded sweep in `dir`: scans every shard stream,
/// keeps the complete ones, and re-runs the missing or invalid ones in
/// one dispatcher pass ([`SweepPlan::stream`]), so the protocol with the
/// longest measured trials goes first whichever shard holds its jobs.
/// Idempotent — a second call over a finished directory runs nothing.
///
/// # Errors
///
/// Fails if the directory's manifest belongs to a different plan, or on
/// stream I/O errors.
pub fn run_fleet<P, F>(
    plan: &SweepPlan<P>,
    label: impl Fn(&P) -> String,
    dir: &Path,
    shard_count: usize,
    opts: &ExecOptions,
    runner: F,
) -> Result<FleetReport, String>
where
    P: Copy + Send + Sync,
    F: Fn(&TrialJob<P>) -> TrialSummary + Sync,
{
    let manifest = ensure_manifest(plan, &label, dir, shard_count)?;
    let (reused, ran): (Vec<usize>, Vec<usize>) = (0..manifest.shards.len())
        .partition(|&shard| shard_state(&manifest, shard, dir) == ShardState::Complete);
    if !ran.is_empty() {
        run_shards(plan, &manifest, &ran, dir, opts, runner).map_err(|e| e.to_string())?;
    }
    Ok(FleetReport { manifest, ran, reused })
}

/// Merges a completed fleet directory back into a [`SweepResult`]: every
/// shard stream is re-validated, records are reassembled in plan order,
/// and cells are built by [`SweepPlan::cells`] — the same code path
/// `SweepPlan::run` uses, so the merged result (and any artifact
/// rendered from it) is **byte-identical** to a single-shot in-process
/// sweep of the same plan. Execution metadata is normalised
/// (`workers = 0`, `wall_secs = 0.0`): a merged result's payload is a
/// function of the plan alone, never of how the fleet was cut.
///
/// # Errors
///
/// Fails if the manifest is absent or foreign, or any shard stream is
/// missing, truncated, or inconsistent with the plan.
pub fn merge_fleet<P>(
    plan: &SweepPlan<P>,
    label: impl Fn(&P) -> String,
    dir: &Path,
) -> Result<SweepResult<P>, String>
where
    P: Copy,
{
    let manifest = load_manifest(dir)?.ok_or("fleet directory has no manifest")?;
    manifest.matches_plan(plan, label)?;
    let mut summaries: Vec<TrialSummary> = Vec::with_capacity(manifest.jobs);
    for shard in 0..manifest.shards.len() {
        let records =
            read_shard(&manifest, shard, dir).map_err(|e| format!("shard {shard}: {e}"))?;
        for rec in records {
            let job = plan.job_at(rec.job);
            if rec.cell != job.cell || rec.trial != job.trial || rec.seed != job.seed {
                return Err(format!("record for job {} disagrees with the plan grid", rec.job));
            }
            debug_assert_eq!(summaries.len(), rec.job, "shards tile jobs in order");
            summaries.push(rec.summary);
        }
    }
    Ok(SweepResult { plan: plan.clone(), cells: plan.cells(summaries), workers: 0, wall_secs: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_metrics::Metrics;
    use rica_sim::SimDuration;

    fn toy_runner(job: &TrialJob<u8>) -> TrialSummary {
        use rica_net::{DataPacket, FlowId, NodeId};
        use rica_sim::SimTime;
        let mut m = Metrics::new();
        let n = job.seed % 7 + job.protocol as u64 + job.trial as u64 + job.nodes as u64;
        for i in 0..n {
            m.on_generated();
            if i % 2 == 0 {
                // Deliver half the packets with job-dependent delays so
                // aggregates carry real means and variances.
                let pkt = DataPacket::new(FlowId(0), i, NodeId(0), NodeId(1), 512, SimTime::ZERO);
                let at = SimTime::ZERO + SimDuration::from_millis(5 + job.trial as u64 + i);
                m.on_delivered(&pkt, at);
            }
        }
        m.finish(SimDuration::from_secs(1))
    }

    fn plan() -> SweepPlan<u8> {
        SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0], vec![10, 20], 4, 42)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rica_fleet_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_run_executes_every_shard_and_merges_to_plan_run() {
        let p = plan();
        let dir = tmp_dir("fresh");
        let report =
            run_fleet(&p, u8::to_string, &dir, 4, &ExecOptions::serial(), toy_runner).unwrap();
        assert_eq!(report.ran, vec![0, 1, 2, 3]);
        assert!(report.reused.is_empty());
        let merged = merge_fleet(&p, u8::to_string, &dir).unwrap();
        let mut direct = p.run(&ExecOptions::serial(), toy_runner);
        direct.workers = 0;
        direct.wall_secs = 0.0;
        assert_eq!(merged.cells, direct.cells, "merge must equal a single-shot run");
        let label = |x: &u8| x.to_string();
        assert_eq!(
            rica_exec::sweep_json(&merged, label, &[]),
            rica_exec::sweep_json(&direct, label, &[]),
            "…byte-for-byte in the artifact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_runs_only_the_damaged_shard() {
        let p = plan();
        let dir = tmp_dir("resume");
        let first =
            run_fleet(&p, u8::to_string, &dir, 4, &ExecOptions::serial(), toy_runner).unwrap();
        let before = merge_fleet(&p, u8::to_string, &dir).unwrap();
        // Kill one shard; truncate another mid-stream.
        std::fs::remove_file(first.manifest.shard_path(&dir, 2)).unwrap();
        let victim = first.manifest.shard_path(&dir, 0);
        let body = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &body[..body.len() / 2]).unwrap();
        let second =
            run_fleet(&p, u8::to_string, &dir, 4, &ExecOptions::serial(), toy_runner).unwrap();
        assert_eq!(second.ran, vec![0, 2], "only the damaged shards re-ran");
        assert_eq!(second.reused, vec![1, 3]);
        let after = merge_fleet(&p, u8::to_string, &dir).unwrap();
        assert_eq!(after.cells, before.cells, "resume reproduces the identical result");
        // And a third pass is a no-op.
        let third =
            run_fleet(&p, u8::to_string, &dir, 4, &ExecOptions::serial(), toy_runner).unwrap();
        assert!(third.ran.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_directory_is_refused() {
        let p = plan();
        let dir = tmp_dir("foreign");
        run_fleet(&p, u8::to_string, &dir, 2, &ExecOptions::serial(), toy_runner).unwrap();
        let mut other = p.clone();
        other.trials += 1;
        let err = run_fleet(&other, u8::to_string, &dir, 2, &ExecOptions::serial(), toy_runner)
            .unwrap_err();
        assert!(err.contains("hash"), "{err}");
        assert!(merge_fleet(&other, u8::to_string, &dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_pointing_outside_the_directory_is_refused() {
        let p = plan();
        let root = tmp_dir("escape");
        let dir = root.join("fleet");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = FleetManifest::split(&p, u8::to_string, 2).to_json();
        let foreign = manifest.replace("\"shard_0.jsonl\"", "\"../x.jsonl\"");
        std::fs::write(dir.join(MANIFEST_FILE), foreign).unwrap();
        let run = run_fleet(&p, u8::to_string, &dir, 2, &ExecOptions::serial(), toy_runner);
        assert!(run.is_err());
        let outside: Vec<_> =
            std::fs::read_dir(&root).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(outside, vec![dir], "a run wrote outside its fleet directory");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn deeply_nested_manifest_is_an_error_not_a_stack_overflow() {
        let dir = tmp_dir("deep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), "[".repeat(30_000)).unwrap();
        let err = load_manifest(&dir).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopted_manifest_split_wins_over_requested_shard_count() {
        let p = plan();
        let dir = tmp_dir("adopt");
        run_fleet(&p, u8::to_string, &dir, 4, &ExecOptions::serial(), toy_runner).unwrap();
        // Resuming with a different shard count keeps the on-disk split —
        // that is what the existing streams were cut against.
        let report =
            run_fleet(&p, u8::to_string, &dir, 9, &ExecOptions::serial(), toy_runner).unwrap();
        assert_eq!(report.manifest.shards.len(), 4);
        assert!(report.ran.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The merged artifact of `dir`, rendered as `sweep_results.json`.
    fn merged_doc(p: &SweepPlan<u8>, dir: &Path) -> String {
        rica_exec::sweep_json(&merge_fleet(p, u8::to_string, dir).unwrap(), |x| x.to_string(), &[])
    }

    /// A single-shot `SweepPlan::run` of `p`, rendered like a merge.
    fn direct_doc(p: &SweepPlan<u8>, opts: &ExecOptions) -> String {
        let mut direct = p.run(opts, toy_runner);
        direct.workers = 0;
        direct.wall_secs = 0.0;
        rica_exec::sweep_json(&direct, |x| x.to_string(), &[])
    }

    #[test]
    fn dispatch_order_never_changes_stream_or_artifact_bytes() {
        // Later protocols sleep longer, so the dispatcher starts them
        // ahead of plan order.
        let p = SweepPlan::new(vec![1u8, 2, 3], vec![0.0, 36.0], vec![10], 3, 42);
        let want = direct_doc(&p, &ExecOptions::serial());
        assert_eq!(direct_doc(&p, &ExecOptions::with_workers(8)), want);
        for shards in [1, 3, 4] {
            let mut serial_streams = None;
            for workers in [1, 2, 8] {
                let dir = tmp_dir(&format!("order_s{shards}_w{workers}"));
                let starts = std::sync::Mutex::new(Vec::new());
                let sleepy = |job: &TrialJob<u8>| {
                    starts.lock().unwrap().push(job.index);
                    std::thread::sleep(std::time::Duration::from_millis(job.protocol as u64));
                    toy_runner(job)
                };
                let opts = ExecOptions::with_workers(workers);
                let report = run_fleet(&p, u8::to_string, &dir, shards, &opts, sleepy).unwrap();
                let starts = starts.into_inner().unwrap();
                let in_plan_order = starts == (0..p.job_count()).collect::<Vec<_>>();
                assert_eq!(in_plan_order, workers == 1, "{workers} workers started {starts:?}");
                let streams: Vec<Vec<u8>> = (0..report.manifest.shards.len())
                    .map(|shard| std::fs::read(report.manifest.shard_path(&dir, shard)).unwrap())
                    .collect();
                let serial = serial_streams.get_or_insert_with(|| streams.clone());
                assert!(
                    streams == *serial,
                    "{shards} shards, {workers} workers: stream bytes moved"
                );
                assert_eq!(merged_doc(&p, &dir), want, "{shards} shards, {workers} workers");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// Whether shard `shard`'s stream under `dir` ends in its footer.
    fn has_footer(manifest: &FleetManifest, shard: usize, dir: &Path) -> bool {
        let body = std::fs::read_to_string(manifest.shard_path(dir, shard)).unwrap();
        body.lines().last().is_some_and(|line| line.contains("\"kind\":\"footer\""))
    }

    #[test]
    fn a_job_panicking_mid_pass_leaves_its_shard_unfinished_for_resume() {
        let p = plan();
        let want = direct_doc(&p, &ExecOptions::serial());
        for workers in [1, 2] {
            let dir = tmp_dir(&format!("panic_w{workers}"));
            let opts = ExecOptions::with_workers(workers);
            // Job 13 sits in shard 1 of 4 (jobs 8..16).
            let panicky = |job: &TrialJob<u8>| {
                assert_ne!(job.index, 13, "trial crashed");
                toy_runner(job)
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_fleet(&p, u8::to_string, &dir, 4, &opts, panicky)
            }));
            assert!(run.is_err(), "the panic must reach the caller");
            let manifest = load_manifest(&dir).unwrap().unwrap();
            let footers: Vec<bool> = (0..4).map(|s| has_footer(&manifest, s, &dir)).collect();
            assert!(!footers[1], "{workers} workers: the panicked job's shard has a footer");
            if workers == 1 {
                assert_eq!(footers, [true, false, false, false], "serial passes finish shard 0");
            }
            for shard in (0..4).filter(|&s| footers[s]) {
                assert_eq!(shard_state(&manifest, shard, &dir), ShardState::Complete);
            }
            let resumed = run_fleet(&p, u8::to_string, &dir, 4, &opts, toy_runner).unwrap();
            let unfinished: Vec<usize> = (0..4).filter(|&s| !footers[s]).collect();
            assert_eq!(resumed.ran, unfinished, "resume re-runs exactly the footerless shards");
            assert_eq!(merged_doc(&p, &dir), want, "{workers} workers");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_broken_or_reordered_record_reruns_exactly_its_shard() {
        let p = plan();
        let dir = tmp_dir("records");
        let opts = ExecOptions::with_workers(2);
        let first = run_fleet(&p, u8::to_string, &dir, 4, &opts, toy_runner).unwrap();
        let want = merged_doc(&p, &dir);
        let edit = |shard: usize, f: &dyn Fn(&mut Vec<String>)| {
            let path = first.manifest.shard_path(&dir, shard);
            let mut lines: Vec<String> =
                std::fs::read_to_string(&path).unwrap().lines().map(str::to_string).collect();
            f(&mut lines);
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        };
        // One byte of a record replaced, so its JSON no longer parses.
        edit(2, &|lines| lines[3] = lines[3].replacen(':', ";", 1));
        assert!(matches!(shard_state(&first.manifest, 2, &dir), ShardState::Invalid(_)));
        let resumed = run_fleet(&p, u8::to_string, &dir, 4, &opts, toy_runner).unwrap();
        assert_eq!(resumed.ran, [2]);
        // Two valid records swapped.
        edit(3, &|lines| lines.swap(2, 5));
        match shard_state(&first.manifest, 3, &dir) {
            ShardState::Invalid(reason) => assert!(reason.contains("out of order"), "{reason}"),
            other => panic!("a reordered stream read as {other:?}"),
        }
        let resumed = run_fleet(&p, u8::to_string, &dir, 4, &opts, toy_runner).unwrap();
        assert_eq!(resumed.ran, [3]);
        assert_eq!(merged_doc(&p, &dir), want, "resume reproduces the clean bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_path_that_cannot_be_created_is_an_error() {
        let p = plan();
        let dir = tmp_dir("blocked");
        std::fs::create_dir_all(dir.join("shard_1.jsonl")).unwrap();
        for workers in [1, 2] {
            let opts = ExecOptions::with_workers(workers);
            let err = run_fleet(&p, u8::to_string, &dir, 4, &opts, toy_runner).unwrap_err();
            assert!(err.contains("shard_1.jsonl"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
