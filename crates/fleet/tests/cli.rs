//! The `fleet` binary end to end: a sharded sweep whose manifest and
//! streams read back through the library readers, a kill (one stream
//! deleted, one truncated) that resume repairs by re-running exactly the
//! damaged shards, merged `--legacy` bytes that do not depend on the
//! kill, the shard cut or the worker count, one progress count per
//! pass, an adaptive run whose report does not depend on the worker
//! count, and every unusable flag value rejected with exit code 2 before
//! anything runs.

#![expect(
    clippy::disallowed_types,
    reason = "host-side: a wall-clock deadline kills a hung `fleet` child process"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rica_exec::SweepPlan;
use rica_fleet::{load_manifest, read_shard};
use rica_harness::ProtocolKind;
use rica_metrics::json::{parse_json, JsonValue};

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

/// Runs `fleet args` with `RICA_WORKERS` set to `workers_env` (unset for
/// `None`), killing it after two minutes: a hang fails the caller's
/// exit-code check instead of blocking the suite.
fn fleet_with_deadline(args: &[&str], workers_env: Option<&str>) -> (Option<i32>, String, String) {
    let mut fleet = Command::new(env!("CARGO_BIN_EXE_fleet"));
    match workers_env {
        Some(v) => fleet.env("RICA_WORKERS", v),
        None => fleet.env_remove("RICA_WORKERS"),
    };
    let mut child =
        fleet.args(args).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("run");
    let deadline = Instant::now() + Duration::from_secs(120);
    while child.try_wait().expect("wait").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = child.kill();
    let out = child.wait_with_output().expect("wait");
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[cfg(target_os = "linux")]
#[test]
fn an_unwritable_artifact_exits_1_naming_it_after_the_work() {
    let dir = std::env::temp_dir().join(format!("rica_fleet_cli_full_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sweep(&dir, "2", "1");
    let merge = ["merge", "--dir", dir.to_str().unwrap()];
    let adaptive = ["adaptive", "--ci-delivery", "50", "--max-trials", "2"];
    // `adaptive` prints each of the plan's four cells before it writes.
    for (args, cells) in [(&merge[..], 0), (&adaptive[..], 4)] {
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(args)
            .args(["--json", "/dev/full"])
            .args(PLAN)
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "fleet {args:?}: {stderr}");
        assert!(stderr.contains("fleet: could not write /dev/full"), "{stderr}");
        assert_eq!(stderr.matches("fleet: cell").count(), cells, "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_flag_values_exit_2_naming_the_flag_before_anything_runs() {
    let dir = std::env::temp_dir().join(format!("rica_fleet_cli_bad_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    // A four-job plan of 1 s trials; each case then overrides one flag.
    let base = ["--protocols", "rica,aodv", "--speeds", "0,36", "--nodes", "4"];
    let base = [&base[..], &["--trials", "1", "--flows", "1", "--duration", "1"]].concat();
    // (command, `RICA_WORKERS` (unset for `None`), overriding flags, what
    // the message names)
    let cases: [(&str, Option<&str>, &[&str], &str); 17] = [
        ("sweep", None, &["--protocols", ""], "--protocols"),
        ("sweep", None, &["--speeds", ","], "--speeds"),
        ("sweep", None, &["--speeds", "nan"], "--speeds"),
        ("sweep", None, &["--nodes", "1"], "--nodes"),
        ("sweep", None, &["--nodes", "2", "--flows", "3"], "--flows"),
        ("sweep", None, &["--rate", "0"], "--rate"),
        ("sweep", None, &["--duration", "-1"], "--duration"),
        ("sweep", None, &["--shards", "0"], "--shards"),
        ("sweep", None, &["--shards", "5"], "--shards"),
        ("sweep", None, &["--workers", "0"], "--workers"),
        ("sweep", Some("abc"), &[], "RICA_WORKERS"),
        ("adaptive", None, &["--trials", "0"], "--trials"),
        ("adaptive", None, &["--batch", "0"], "--batch"),
        ("adaptive", None, &["--ci-delivery", "-1"], "--ci-delivery"),
        ("adaptive", None, &["--ci-delay", "nan"], "--ci-delay"),
        ("adaptive", None, &["--workers", "0"], "--workers"),
        ("adaptive", Some("0"), &[], "RICA_WORKERS"),
    ];
    for (cmd, workers_env, bad, flag) in cases {
        let json = dir.join("adaptive.json");
        let args = [&[cmd, "--dir", d, "--json", json.to_str().unwrap()], &base[..], bad].concat();
        let (code, stdout, stderr) = fleet_with_deadline(&args, workers_env);
        assert_eq!(code, Some(2), "fleet {cmd} {bad:?}: {stderr}");
        assert!(stderr.starts_with("fleet: ") && stderr.contains(flag), "{bad:?}: {stderr}");
        assert!(stdout.is_empty() && !dir.exists(), "fleet {cmd} {bad:?} ran");
    }
}

#[test]
fn a_plan_with_fewer_jobs_than_the_default_shard_count_gets_a_shard_per_job() {
    let dir = std::env::temp_dir().join(format!("rica_fleet_cli_small_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "sweep",
        "--dir",
        dir.to_str().unwrap(),
        "--protocols",
        "rica",
        "--speeds",
        "0",
        "--nodes",
        "4",
        "--trials",
        "2",
        "--flows",
        "1",
        "--duration",
        "1",
    ];
    let (code, _, stderr) = fleet_with_deadline(&args, None);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("ran 2 shard(s), reused 0"), "{stderr}");
    assert_eq!(load_manifest(&dir).unwrap().expect("a manifest").shards.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_largest_base_seed_wraps_to_zero() {
    let dir = std::env::temp_dir().join(format!("rica_fleet_cli_seed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let args = [
        &["sweep", "--dir", d, "--seed", "18446744073709551615", "--trials", "2"][..],
        &["--protocols", "aodv", "--speeds", "0", "--nodes", "4"],
        &["--flows", "1", "--duration", "1"],
    ]
    .concat();
    let (code, _, stderr) = fleet_with_deadline(&args, None);
    assert_eq!(code, Some(0), "{stderr}");
    let manifest = load_manifest(&dir).unwrap().expect("a manifest");
    let seeds: Vec<u64> = (0..manifest.shards.len())
        .flat_map(|shard| read_shard(&manifest, shard, &dir).unwrap())
        .map(|record| record.seed)
        .collect();
    assert_eq!(seeds, [u64::MAX, 0]);
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

#[test]
fn adaptive_reports_realised_trials_independent_of_workers() {
    let dir = std::env::temp_dir().join(format!("rica_fleet_cli_adaptive_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = |workers: &str| {
        let json = dir.join(format!("adaptive_{workers}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["adaptive", "--protocols", "rica", "--speeds", "0,36", "--nodes", "6"])
            .args(["--flows", "1", "--duration", "2", "--trials", "2", "--ci-delivery", "50"])
            .args(["--max-trials", "6", "--workers", workers, "--json", json.to_str().unwrap()])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "fleet adaptive --workers {workers} failed: {stderr}");
        std::fs::read(json).unwrap()
    };
    let serial = report("1");
    assert!(report("2") == serial, "the worker count changed the adaptive report");

    let doc = parse_json(std::str::from_utf8(&serial).unwrap()).unwrap();
    assert_eq!(doc.u64_at("schema"), Ok(2));
    assert_eq!(doc.str_at("kind"), Ok("adaptive-report"));
    assert_eq!((doc.u64_at("min_trials"), doc.u64_at("max_trials")), (Ok(2), Ok(6)));
    let targets = doc.get("targets").expect("targets");
    assert_eq!(targets.get("delay_hw_ms"), Some(&JsonValue::Null));
    let cells = doc.array_at("cells").unwrap();
    assert_eq!(cells.len(), 2);
    let trials: Vec<u64> = cells.iter().map(|c| c.u64_at("trials").unwrap()).collect();
    assert!(trials.iter().all(|t| (2..=6).contains(t)), "{trials:?}");
    assert_eq!(doc.u64_at("total_trials"), Ok(trials.iter().sum()));
    let _ = std::fs::remove_dir_all(&dir);
}
