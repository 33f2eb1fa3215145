//! The `figures` binary end to end: an artifact that cannot be written
//! still prints the tables, then exits 1.

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
