//! The `fleet` binary end to end: a sharded sweep whose manifest and
//! streams read back through the library readers, a kill (one stream
//! deleted, one truncated) that resume repairs by re-running exactly the
//! damaged shards, merged `--legacy` bytes that do not depend on the
//! kill, the shard cut or the worker count, and one progress count per
//! pass.

use std::path::{Path, PathBuf};
use std::process::Command;

use rica_exec::SweepPlan;
use rica_fleet::{load_manifest, read_shard};
use rica_harness::ProtocolKind;

const PLAN: &[&str] = &[
    "--protocols",
    "rica,aodv",
    "--speeds",
    "0,36",
    "--nodes",
    "8",
    "--trials",
    "2",
    "--flows",
    "2",
    "--duration",
    "4",
];

/// Runs `fleet <args> <PLAN>`, asserts success and returns its stderr.
fn fleet(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_fleet")).args(args).args(PLAN).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "fleet {args:?} failed: {stderr}");
    stderr
}

fn sweep(dir: &Path, shards: &str, workers: &str) -> String {
    fleet(&["sweep", "--dir", dir.to_str().unwrap(), "--shards", shards, "--workers", workers])
}

/// Merges `dir` with `--legacy` and returns the artifact bytes.
fn merge(dir: &Path, name: &str) -> Vec<u8> {
    let json = dir.join(name);
    fleet(&["merge", "--dir", dir.to_str().unwrap(), "--legacy", "--json", json.to_str().unwrap()]);
    std::fs::read(json).unwrap()
}

#[test]
fn deeply_nested_manifest_exits_2_with_an_error() {
    let dir = std::env::temp_dir().join(format!("rica_fleet_cli_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("manifest.json"), "[".repeat(30_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["sweep", "--dir", dir.to_str().unwrap()])
        .args(PLAN)
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nesting"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_kill_resume_and_merge_through_the_cli() {
    let root: PathBuf = std::env::temp_dir().join(format!("rica_fleet_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let a = root.join("a");
    sweep(&a, "4", "2");
    let merged = merge(&a, "results.json");

    // The manifest names this plan and four shards; every stream holds
    // a valid header, its records in job order and a matching footer.
    let manifest = load_manifest(&a).unwrap().expect("sweep writes a manifest");
    let plan = SweepPlan::new(
        vec![ProtocolKind::Rica, ProtocolKind::Aodv],
        vec![0.0, 36.0],
        vec![8],
        2,
        42,
    );
    manifest.matches_plan(&plan, |k| k.name().to_string()).unwrap();
    assert_eq!(manifest.shards.len(), 4);
    let records: usize = (0..4).map(|shard| read_shard(&manifest, shard, &a).unwrap().len()).sum();
    assert_eq!(records, manifest.jobs);

    // Kill: delete one stream and cut another in half.
    std::fs::remove_file(a.join("shard_3.jsonl")).unwrap();
    let cut = a.join("shard_1.jsonl");
    let body = std::fs::read(&cut).unwrap();
    std::fs::write(&cut, &body[..body.len() / 2]).unwrap();
    let log = sweep(&a, "4", "2");
    assert!(log.contains("ran 2 shard(s), reused 2"), "resume re-ran the wrong shards: {log}");
    assert!(merge(&a, "results_resumed.json") == merged, "resume changed the merged bytes");

    // Another shard cut and worker count: the same bytes.
    let b = root.join("b");
    sweep(&b, "2", "4");
    assert!(merge(&b, "results.json") == merged, "shard cut or workers changed the bytes");
    let _ = std::fs::remove_dir_all(&root);
}

/// The `# exec: N jobs over W workers` headers in a stderr log.
fn progress_headers(log: &str) -> Vec<&str> {
    log.split(['\n', '\r'])
        .filter(|l| l.starts_with("# exec:") && l.contains("jobs over"))
        .collect()
}

#[test]
fn a_pass_counts_all_its_jobs_under_one_progress_header() {
    let dir = std::env::temp_dir().join(format!("rica_fleet_cli_progress_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = || {
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["sweep", "--dir", dir.to_str().unwrap(), "--shards", "2", "--workers", "2"])
            .args(["--protocols", "rica,aodv", "--speeds", "0,36", "--nodes", "12"])
            .args(["--trials", "10", "--duration", "2"])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "fleet sweep failed: {stderr}");
        stderr
    };
    let log = sweep();
    assert_eq!(progress_headers(&log), ["# exec: 40 jobs over 2 workers"], "{log}");
    assert!(log.contains("# exec: 40/40 trials (100%)"), "{log}");

    // Resume after losing one 20-job shard: the pass counts only its jobs.
    std::fs::remove_file(dir.join("shard_1.jsonl")).unwrap();
    let log = sweep();
    assert_eq!(progress_headers(&log), ["# exec: 20 jobs over 2 workers"], "{log}");
    assert!(log.contains("# exec: 20/20 trials (100%)"), "{log}");
    assert!(log.contains("ran 1 shard(s), reused 1"), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}
