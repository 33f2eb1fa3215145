//! The `figures` binary end to end: an artifact that cannot be written
//! still prints the tables, then exits 1; a malformed flag exits 2
//! before anything runs.

#[cfg(target_os = "linux")]
#[test]
fn an_unwritable_artifact_exits_1_after_the_tables() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--smoke", "--workers", "1", "--json", "/dev/full", "fig5a"])
        .output()
        .expect("run figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("could not write /dev/full"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("== fig5a =="), "tables not printed");
}

#[test]
fn malformed_flags_exit_2_naming_the_flag_before_anything_runs() {
    let json = std::env::temp_dir().join(format!("rica_figures_bad_{}.json", std::process::id()));
    let json = json.to_str().unwrap();
    let cases: [(&[&str], &str); 6] = [
        (&["--json", json, "--trials", "0", "fig5a"], "--trials"),
        (&["--json", json, "--trials", "x", "fig5a"], "--trials"),
        (&["--json", json, "fig5a", "--trials"], "--trials"),
        (&["--json", json, "--workers", "x", "fig5a"], "--workers"),
        (&["--json", json, "fig5a", "--workers"], "--workers"),
        (&["fig5a", "--json"], "--json"),
    ];
    for (args, flag) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg("--smoke")
            .args(args)
            .output()
            .expect("run figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}: {stderr}");
        assert!(stderr.starts_with("figures: ") && stderr.contains(flag), "{stderr}");
        assert!(!stderr.contains("# scale"), "figures {args:?} started: {stderr}");
        assert!(out.stdout.is_empty() && !std::path::Path::new(json).exists(), "{args:?} ran");
    }
}
