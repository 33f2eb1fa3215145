//! The `hotloop` binary's exit codes: a malformed command line exits 2
//! naming the flag before any workload runs, a snapshot file it cannot
//! read exits 1, and a regression past `--max-regress` exits 3.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hotloop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hotloop")).args(args).output().expect("run hotloop")
}

/// A temporary file path unique to this test process and `tag`.
fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rica_hotloop_cli_{tag}_{}.json", std::process::id()))
}

#[test]
fn malformed_flags_exit_2_naming_the_flag_before_anything_runs() {
    let cases: [(&[&str], &str); 11] = [
        (&["--quick", "--reps", "x"], "--reps"),
        (&["--quick", "--reps", "0"], "--reps"),
        (&["--quick", "--reps"], "--reps"),
        (&["--quick", "--label"], "--label"),
        (&["--quick", "--json"], "--json"),
        (&["--compare", "--max-regress"], "--max-regress"),
        (&["--compare", "--max-regress", "ten"], "--max-regress"),
        (&["--compare", "--max-regress", "NaN"], "--max-regress"),
        (&["--compare", "--max-regress", "-5"], "--max-regress"),
        (&["--frobnicate"], "--frobnicate"),
        (&["--quick", "--markdown", "extra"], "extra"),
    ];
    for (args, flag) in cases {
        let out = hotloop(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "hotloop {args:?}: {stderr}");
        assert!(stderr.starts_with("hotloop: ") && stderr.contains(flag), "{stderr}");
        assert!(!stderr.contains("timed"), "hotloop {args:?} ran a workload: {stderr}");
        assert!(out.stdout.is_empty(), "hotloop {args:?} printed a table");
    }
}

#[test]
fn compare_exits_3_on_a_regression_and_1_on_an_unreadable_file() {
    let snapshot = |label: &str, secs: &str| {
        format!("    {{\"label\":\"{label}\",\"entries\":{{\n      \"micro/x\":{secs}\n    }}}}")
    };
    let doc = |next: &str| {
        format!(
            "{{\n  \"schema\": 1,\n  \"snapshots\": [\n{},\n{}\n  ]\n}}\n",
            snapshot("base", "1.000000"),
            snapshot("next", next)
        )
    };
    let path = temp_file("compare");
    let json = path.to_str().unwrap();
    let gate = ["--compare", "--json", json, "--max-regress", "10"];
    // (second snapshot's wall time, exit code): +50% fails the 10% gate,
    // +5% passes it, and a file the gate cannot read is an error.
    for (next, code) in [("1.500000", 3), ("1.050000", 0), ("\"slow\"", 1)] {
        std::fs::write(&path, doc(next)).unwrap();
        let out = hotloop(&gate);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "second snapshot {next}: {stderr}");
        if code == 3 {
            assert!(stderr.contains("REGRESSION micro/x"), "{stderr}");
        }
    }
    let _ = std::fs::remove_file(&path);
    let out = hotloop(&gate);
    assert_eq!(out.status.code(), Some(1), "a missing file");
}
