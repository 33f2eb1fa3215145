//! The `inspect` binary's artifact flags, end to end: a faulted trial's
//! `--trace` and `--timeseries` files read back through the one JSON
//! reader, and a write failure turns into exit code 1.

use std::path::PathBuf;
use std::process::{Command, Output};

use rica_metrics::parse_json;
use rica_trace::TraceEvent;

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inspect")).args(args).output().expect("run inspect")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rica_inspect_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn faulted_trial_artifacts_read_back_through_the_one_reader() {
    let dir = scratch_dir("ok");
    let (trace, timeseries) = (dir.join("trace.jsonl"), dir.join("timeseries.json"));
    let out = inspect(&[
        "rica",
        "36",
        "10",
        "5",
        "--faults",
        &format!("--trace={}", trace.display()),
        &format!("--timeseries={}", timeseries.display()),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "inspect failed: {stderr}");
    assert!(stderr.contains("trace: ") && stderr.contains("timeseries: 6 samples"), "{stderr}");

    let body = std::fs::read_to_string(&trace).unwrap();
    let mut last_t = 0;
    let mut seen = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let v = parse_json(line).unwrap_or_else(|e| panic!("line {i}: {e}: {line}"));
        let t = v.u64_at("t").unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert!(t >= last_t, "line {i}: time went backwards");
        last_t = t;
        let ev = v.str_at("ev").unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert!(TraceEvent::NAMES.contains(&ev), "line {i}: unknown event {ev:?}");
        if !seen.iter().any(|s| s == ev) {
            seen.push(ev.to_string());
        }
    }
    assert!(body.lines().count() >= 100, "a 5 s trial should trace more than that");
    for ev in ["node_crashed", "node_rebooted", "partition_start", "partition_healed"] {
        assert!(seen.iter().any(|s| s == ev), "the faulted trial traced no {ev}");
    }

    let doc = parse_json(&std::fs::read_to_string(&timeseries).unwrap()).unwrap();
    assert_eq!(doc.str_at("schema"), Ok("rica-timeseries-v1"));
    assert_eq!(doc.u64_at("interval_ns"), Ok(1_000_000_000));
    assert_eq!(doc.array_at("samples").unwrap().len(), 6, "one sample per second plus t = 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(target_os = "linux")]
#[test]
fn unwritable_artifacts_exit_1() {
    let dir = scratch_dir("full");
    let ok = dir.join("timeseries.json");
    for (trace, timeseries) in [("/dev/full", ok.to_str().unwrap()), ("/dev/null", "/dev/full")] {
        let out = inspect(&[
            "rica",
            "36",
            "10",
            "5",
            &format!("--trace={trace}"),
            &format!("--timeseries={timeseries}"),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "trace {trace}, timeseries {timeseries}: {stderr}");
        assert!(stderr.contains("cannot write /dev/full"), "{stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("delivered"),
            "summary still printed"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
