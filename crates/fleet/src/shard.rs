//! Shard streams: run shards in one dispatcher pass, streaming
//! per-trial JSONL.
//!
//! A shard file is self-describing and self-checking:
//!
//! ```json
//! {"schema":1,"kind":"header","plan_hash":"0x…","shard":2,"start":14,"end":21}
//! {"schema":1,"job":14,"cell":2,"trial":4,"seed":46,"summary":{…}}
//! …one record per job, in plan order…
//! {"kind":"footer","records":7}
//! ```
//!
//! The header binds the file to a manifest (plan hash + range). A pass
//! sends the jobs of all its shards through the `rica-exec` dispatcher
//! at once, which favours the protocol with the longest measured
//! trials, and writes every shard's header before any job runs. Summaries come back in plan
//! order, so each shard's records follow as its prefix completes, and
//! its footer only after its last record. A file without a footer is an
//! unfinished shard, so a kill loses only the shards without one. The
//! dispatcher holds at most `64 + workers` summaries back for ordering,
//! and scheduling never changes a byte of any stream.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use rica_exec::{ExecOptions, SweepPlan, TrialJob};
use rica_metrics::json::{parse_json, push_string, JsonValue};
use rica_metrics::{TrialRecord, TrialSummary};

use crate::manifest::{hash_hex, parse_hash_hex, FleetManifest, ShardSpec};

/// Shard-stream schema version (header lines; records carry
/// [`rica_metrics::TRIAL_RECORD_SCHEMA`]).
pub const SHARD_SCHEMA: u32 = 1;

/// What the resume scan concluded about one shard's stream file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ShardState {
    /// Header, every record, and footer all present and consistent.
    Complete,
    /// No file on disk.
    Missing,
    /// Present but unusable (truncated, foreign, or corrupt) — the
    /// reason states why. Resume re-runs the shard from scratch.
    Invalid(String),
}

/// The header line binding a stream file to its manifest slot.
pub fn header_line(manifest: &FleetManifest, shard: usize) -> String {
    let s = &manifest.shards[shard];
    let mut out = format!("{{\"schema\":{SHARD_SCHEMA},\"kind\":\"header\",\"plan_hash\":");
    push_string(&mut out, &hash_hex(manifest.plan_hash));
    let _ = write!(out, ",\"shard\":{},\"start\":{},\"end\":{}}}", s.shard, s.start, s.end);
    out
}

/// The footer line that certifies a complete stream.
pub fn footer_line(records: usize) -> String {
    format!("{{\"kind\":\"footer\",\"records\":{records}}}")
}

/// Executes shards `shards` (ascending) of `plan` as `manifest` cut
/// them in one dispatcher pass, streaming each into its file under
/// `dir`. Every file first restarts as a bare header, so until its
/// footer lands the resume scan reads it as unfinished.
pub(crate) fn run_shards<P, F>(
    plan: &SweepPlan<P>,
    manifest: &FleetManifest,
    shards: &[usize],
    dir: &Path,
    opts: &ExecOptions,
    runner: F,
) -> std::io::Result<()>
where
    P: Copy + Send + Sync,
    F: Fn(&TrialJob<P>) -> TrialSummary + Sync,
{
    let specs: Vec<&ShardSpec> = shards.iter().map(|&s| &manifest.shards[s]).collect();
    for spec in &specs {
        let path = dir.join(&spec.file);
        let header = format!("{}\n", header_line(manifest, spec.shard));
        std::fs::write(&path, header).map_err(|e| at(&path, e))?;
    }
    // Pass position of each shard's first job.
    let firsts: Vec<usize> = specs
        .iter()
        .scan(0, |next, spec| {
            let first = *next;
            *next += spec.jobs();
            Some(first)
        })
        .collect();
    let job = |i: usize| {
        let k = firsts.partition_point(|&first| first <= i) - 1;
        plan.job_at(specs[k].start + i - firsts[k])
    };
    let total = specs.iter().map(|spec| spec.jobs()).sum();
    // The shard being written, its records so far and its open file.
    let (mut k, mut written, mut open) = (0, 0, None);
    let pass = plan.stream(total, job, opts, &runner, |job, summary| {
        let spec = specs[k];
        let mut out = match open.take() {
            Some(out) => out,
            None => {
                BufWriter::new(std::fs::OpenOptions::new().append(true).open(dir.join(&spec.file))?)
            }
        };
        let rec = TrialRecord {
            job: job.index,
            cell: job.cell,
            trial: job.trial,
            seed: job.seed,
            summary,
        };
        writeln!(out, "{}", rec.to_line())?;
        written += 1;
        if written < spec.jobs() {
            open = Some(out);
        } else {
            writeln!(out, "{}", footer_line(written))?;
            out.flush()?;
            (k, written) = (k + 1, 0);
        }
        Ok(())
    });
    pass.map_err(|e| at(&dir.join(&specs[k].file), e))
}

/// Names the file an I/O error hit.
fn at(path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

fn check_header(v: &JsonValue, manifest: &FleetManifest, shard: usize) -> Result<(), String> {
    let spec = &manifest.shards[shard];
    if v.str_at("kind") != Ok("header") {
        return Err("first line is not a shard header".into());
    }
    let schema = v.u64_at("schema")?;
    if schema != SHARD_SCHEMA as u64 {
        return Err(format!("unsupported shard schema {schema}"));
    }
    let hash = parse_hash_hex(v.str_at("plan_hash")?)?;
    if hash != manifest.plan_hash {
        return Err(format!(
            "shard stream is from plan {}, manifest expects {}",
            hash_hex(hash),
            hash_hex(manifest.plan_hash)
        ));
    }
    if (v.usize_at("shard")?, v.usize_at("start")?, v.usize_at("end")?)
        != (spec.shard, spec.start, spec.end)
    {
        return Err("header range does not match the manifest slot".into());
    }
    Ok(())
}

/// Fully validates shard `shard`'s stream under `dir` against the
/// manifest and returns its records in job order: header binds to the
/// manifest slot, every job index of the range appears exactly once in
/// order, and the footer count matches. Any shortfall is an `Err`
/// describing the first problem.
pub fn read_shard(
    manifest: &FleetManifest,
    shard: usize,
    dir: &Path,
) -> Result<Vec<TrialRecord>, String> {
    let path = manifest.shard_path(dir, shard);
    let body = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_stream(&body, manifest, shard)
}

/// [`read_shard`] on a stream already in memory: each line is parsed
/// once, then read as the header, a record or the footer.
fn parse_stream(
    body: &str,
    manifest: &FleetManifest,
    shard: usize,
) -> Result<Vec<TrialRecord>, String> {
    let spec = &manifest.shards[shard];
    let mut lines = body.lines();
    parse_json(lines.next().ok_or("empty shard file")?)
        .and_then(|v| check_header(&v, manifest, shard))
        .map_err(|e| format!("bad header: {e}"))?;
    // Not `with_capacity(spec.jobs())`: the range comes from a manifest
    // on disk, and a hostile one could ask for any allocation.
    let mut records = Vec::new();
    let mut footer = None;
    for line in lines {
        if footer.is_some() {
            return Err("content after footer".into());
        }
        let v = parse_json(line).map_err(|e| format!("record {}: {e}", records.len()))?;
        if v.get("kind").and_then(JsonValue::as_str) == Some("footer") {
            footer = Some(v.usize_at("records").map_err(|e| format!("bad footer: {e}"))?);
            continue;
        }
        let rec =
            TrialRecord::from_json(&v).map_err(|e| format!("record {}: {e}", records.len()))?;
        let want = spec.start + records.len();
        if rec.job != want {
            return Err(format!("record out of order: job {} where {want} expected", rec.job));
        }
        records.push(rec);
    }
    let footer = footer.ok_or("missing footer (stream truncated)")?;
    if footer != records.len() || records.len() != spec.jobs() {
        return Err(format!(
            "record count mismatch: footer {footer}, read {}, range needs {}",
            records.len(),
            spec.jobs()
        ));
    }
    Ok(records)
}

/// Classifies shard `shard`'s stream file for the resume scan.
pub(crate) fn shard_state(manifest: &FleetManifest, shard: usize, dir: &Path) -> ShardState {
    if !manifest.shard_path(dir, shard).exists() {
        return ShardState::Missing;
    }
    match read_shard(manifest, shard, dir) {
        Ok(_) => ShardState::Complete,
        Err(reason) => ShardState::Invalid(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_metrics::Metrics;
    use rica_sim::SimDuration;

    fn toy_runner(job: &TrialJob<u8>) -> TrialSummary {
        let mut m = Metrics::new();
        for _ in 0..(job.seed % 7 + job.protocol as u64 + job.trial as u64) {
            m.on_generated_flow(0, 0);
        }
        m.finish(SimDuration::from_secs(1))
    }

    fn setup() -> (SweepPlan<u8>, FleetManifest, std::path::PathBuf) {
        let plan = SweepPlan::new(vec![1u8, 2], vec![0.0, 36.0], vec![10], 5, 42);
        let manifest = FleetManifest::split(&plan, u8::to_string, 3);
        let dir = std::env::temp_dir().join(format!(
            "rica_shard_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        (plan, manifest, dir)
    }

    #[test]
    fn shard_streams_validate_and_read_back() {
        let (plan, manifest, dir) = setup();
        for shard in 0..manifest.shards.len() {
            assert_eq!(shard_state(&manifest, shard, &dir), ShardState::Missing);
            run_shards(&plan, &manifest, &[shard], &dir, &ExecOptions::serial(), toy_runner)
                .unwrap();
            assert_eq!(shard_state(&manifest, shard, &dir), ShardState::Complete);
            let records = read_shard(&manifest, shard, &dir).unwrap();
            let spec = &manifest.shards[shard];
            assert_eq!(records.len(), spec.jobs());
            for (i, rec) in records.iter().enumerate() {
                let job = plan.job_at(spec.start + i);
                assert_eq!(rec.job, job.index);
                assert_eq!(rec.cell, job.cell);
                assert_eq!(rec.trial, job.trial);
                assert_eq!(rec.seed, job.seed);
                assert_eq!(rec.summary, toy_runner(&job), "stream must carry the exact summary");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// FNV-1a pin of a shard header and footer. To regenerate after an
    /// intentional change:
    ///
    /// ```text
    /// GOLDEN_PRINT=1 cargo test -q -p rica-fleet header_and_footer_bytes -- --nocapture
    /// ```
    #[test]
    fn header_and_footer_bytes_are_pinned() {
        const WANT: u64 = 0x60e9_eb50_f701_004e;
        let (_, manifest, dir) = setup();
        let _ = std::fs::remove_dir_all(&dir);
        let lines = format!("{}\n{}\n", header_line(&manifest, 1), footer_line(7));
        let hash = rica_exec::fnv1a(lines.as_bytes());
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("WANT = 0x{hash:016x};\n{lines}");
            return;
        }
        assert_eq!(hash, WANT, "header/footer bytes drifted:\n{lines}");
    }

    #[test]
    fn truncated_stream_is_invalid() {
        let (plan, manifest, dir) = setup();
        run_shards(&plan, &manifest, &[1], &dir, &ExecOptions::serial(), toy_runner).unwrap();
        let path = manifest.shard_path(&dir, 1);
        let body = std::fs::read_to_string(&path).unwrap();
        // Drop the footer — simulates a kill mid-write.
        let cut: String =
            body.lines().take(body.lines().count() - 1).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, cut).unwrap();
        match shard_state(&manifest, 1, &dir) {
            ShardState::Invalid(reason) => assert!(reason.contains("truncated"), "{reason}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hostile input: every strict prefix of a shard stream is an error;
    /// single-byte replacements give an error or records, never a panic;
    /// deep nesting on a record line is an error through `read_shard`.
    #[test]
    fn hostile_streams_never_panic() {
        let (plan, _, dir) = setup();
        let manifest = FleetManifest::split(&plan, u8::to_string, 10);
        run_shards(&plan, &manifest, &[3], &dir, &ExecOptions::serial(), toy_runner).unwrap();
        let path = manifest.shard_path(&dir, 3);
        let body = std::fs::read_to_string(&path).unwrap();
        let body = body.trim_end();
        assert_eq!(parse_stream(body, &manifest, 3).unwrap().len(), 2);
        for cut in 0..body.len() {
            assert!(parse_stream(&body[..cut], &manifest, 3).is_err(), "{cut}-byte prefix read");
        }
        for at in 0..body.len() {
            for &b in b"{}[]\",:19-e \n" {
                let mut bytes = body.as_bytes().to_vec();
                bytes[at] = b;
                let _ = parse_stream(std::str::from_utf8(&bytes).unwrap(), &manifest, 3);
            }
        }
        let deep =
            body.replacen("\"throughput_kbps\":", &format!("\"k\":{}", "[".repeat(30_000)), 1);
        std::fs::write(&path, deep).unwrap();
        let err = read_shard(&manifest, 3, &dir).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_huge_manifest_range_is_not_preallocated() {
        let jobs = 1 << 40;
        let file = "shard_0.jsonl".to_string();
        let manifest = FleetManifest {
            plan_hash: 7,
            jobs,
            cells: 1 << 20,
            trials: 1 << 20,
            shards: vec![crate::manifest::ShardSpec { shard: 0, start: 0, end: jobs, file }],
        };
        manifest.validate().unwrap();
        let body = format!("{}\n{}", header_line(&manifest, 0), footer_line(0));
        let err = parse_stream(&body, &manifest, 0).unwrap_err();
        assert!(err.contains("record count mismatch"), "{err}");
    }

    #[test]
    fn foreign_stream_is_invalid() {
        let (plan, manifest, dir) = setup();
        // A stream written under a different plan hash must be rejected
        // even though its shape is right.
        let mut other_plan = plan.clone();
        other_plan.base_seed += 1;
        let other = FleetManifest::split(&other_plan, u8::to_string, 3);
        run_shards(&other_plan, &other, &[0], &dir, &ExecOptions::serial(), toy_runner).unwrap();
        match shard_state(&manifest, 0, &dir) {
            ShardState::Invalid(reason) => assert!(reason.contains("plan"), "{reason}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_and_serial_streams_are_byte_identical() {
        let (plan, manifest, dir) = setup();
        let path = manifest.shard_path(&dir, 0);
        run_shards(&plan, &manifest, &[0], &dir, &ExecOptions::serial(), toy_runner).unwrap();
        let serial = std::fs::read_to_string(&path).unwrap();
        run_shards(&plan, &manifest, &[0], &dir, &ExecOptions::with_workers(4), toy_runner)
            .unwrap();
        let parallel = std::fs::read_to_string(&path).unwrap();
        assert_eq!(serial, parallel, "worker count must not change stream bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
