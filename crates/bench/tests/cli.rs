//! The `hotloop` binary's exit codes: a malformed command line exits 2
//! naming the flag before any workload runs, a snapshot file it cannot
//! read exits 1, and a regression past `--max-regress` exits 3. Its
//! `--compare` tables print every row of the last snapshot.

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

/// A snapshot document with one `(label, [(row, secs)])` per snapshot.
fn snapshot_doc(snaps: &[(&str, &[(&str, &str)])]) -> String {
    let snaps: Vec<String> = snaps
        .iter()
        .map(|(label, rows)| {
            let rows: Vec<String> =
                rows.iter().map(|(row, secs)| format!("      \"{row}\":{secs}")).collect();
            format!("    {{\"label\":\"{label}\",\"entries\":{{\n{}\n    }}}}", rows.join(",\n"))
        })
        .collect();
    format!("{{\n  \"schema\": 1,\n  \"snapshots\": [\n{}\n  ]\n}}\n", snaps.join(",\n"))
}

/// A row the first snapshot lacks still prints, with `—` for the missing
/// time and ratio, in the text and the markdown table.
#[test]
fn compare_prints_rows_the_first_snapshot_lacks() {
    let doc = snapshot_doc(&[
        ("first", &[("micro/old", "1.000000")]),
        ("prev", &[("micro/old", "1.000000"), ("micro/new", "2.000000")]),
        ("last", &[("micro/old", "0.500000"), ("micro/new", "1.000000")]),
    ]);
    let path = temp_file("new_row");
    std::fs::write(&path, doc).unwrap();
    let json = path.to_str().unwrap();
    let text = hotloop(&["--compare", "--json", json]);
    let markdown = hotloop(&["--compare", "--json", json, "--markdown"]);
    let _ = std::fs::remove_file(&path);
    let text = String::from_utf8(text.stdout).unwrap();
    let markdown = String::from_utf8(markdown.stdout).unwrap();
    let line = |table: &str, row: &str| {
        table.lines().find(|l| l.contains(row)).map(str::to_string).unwrap_or_default()
    };
    assert!(line(&text, "micro/old").ends_with("2.00x"), "{text}");
    assert_eq!(
        line(&text, "micro/new").split_whitespace().collect::<Vec<_>>(),
        ["micro/new", "—", "1.0000s", "—"],
        "{text}"
    );
    assert_eq!(
        line(&markdown, "micro/new"),
        "| `micro/new` | — | 2.0000s | 1.0000s | 2.00× | — |",
        "{markdown}"
    );
    assert_eq!(
        line(&markdown, "micro/old"),
        "| `micro/old` | 1.0000s | 1.0000s | 0.5000s | 2.00× | 2.00× |",
        "{markdown}"
    );
}

#[test]
fn compare_exits_3_on_a_regression_and_1_on_an_unreadable_file() {
    let doc = |next: &str| {
        snapshot_doc(&[("base", &[("micro/x", "1.000000")]), ("next", &[("micro/x", next)])])
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
