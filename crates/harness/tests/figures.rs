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
    // (`RICA_WORKERS`, unset for `None`; arguments; what the message names)
    let cases: [(Option<&str>, &[&str], &str); 10] = [
        (None, &["--json", json, "--trials", "0", "fig5a"], "--trials"),
        (None, &["--json", json, "--trials", "x", "fig5a"], "--trials"),
        (None, &["--json", json, "fig5a", "--trials"], "--trials"),
        (None, &["--json", json, "--workers", "x", "fig5a"], "--workers"),
        (None, &["--json", json, "--workers", "0", "fig5a"], "--workers"),
        (None, &["--json", json, "fig5a", "--workers"], "--workers"),
        (None, &["fig5a", "--json"], "--json"),
        (Some("abc"), &["--json", json, "fig5a"], "RICA_WORKERS"),
        (Some("0"), &["--json", json, "fig5a"], "RICA_WORKERS"),
        (Some(""), &["--json", json, "fig5a"], "RICA_WORKERS"),
    ];
    for (workers_env, args, flag) in cases {
        let mut figures = std::process::Command::new(env!("CARGO_BIN_EXE_figures"));
        figures.arg("--smoke").args(args);
        match workers_env {
            Some(v) => figures.env("RICA_WORKERS", v),
            None => figures.env_remove("RICA_WORKERS"),
        };
        let out = figures.output().expect("run figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}: {stderr}");
        assert!(stderr.starts_with("figures: ") && stderr.contains(flag), "{stderr}");
        assert!(!stderr.contains("# scale"), "figures {args:?} started: {stderr}");
        assert!(out.stdout.is_empty() && !std::path::Path::new(json).exists(), "{args:?} ran");
    }
}
