//! Runs every workload at `--smoke` size and checks the output contract
//! against `BENCHMARK.json`: every metric printed with its unit, no
//! failed trial, and an output digest that repeats for a seed and moves
//! with it.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use rica_metrics::{parse_json, JsonValue};

struct Run {
    stdout: String,
    result: JsonValue,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_rica-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "{workload} seed {seed} failed:\n{stdout}");
    let last = stdout.lines().last().expect("some output");
    let result = parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    Run { stdout, result }
}

fn digest(run: &Run) -> String {
    run.stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("output_digest "))
        .expect("output_digest line")
        .to_string()
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field =
                |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_metrics(run: &Run, want: &[(String, String)], what: &str) {
    let r = &run.result;
    assert_eq!(r.get("correct"), Some(&JsonValue::Bool(true)), "{what}: not correct");
    assert_eq!(r.get("failed").and_then(JsonValue::as_u64), Some(0), "{what}: failed trials");
    assert!(r.get("attempted").and_then(JsonValue::as_u64) >= Some(1), "{what}: nothing attempted");
    let metrics = r.get("metrics").and_then(JsonValue::as_object).expect("metrics object");
    assert_eq!(metrics.len(), want.len(), "{what}: metric count");
    for (name, unit) in want {
        let m = r.get("metrics").and_then(|ms| ms.get(name));
        let m = m.unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        assert!(m.get("value").and_then(JsonValue::as_f64).is_some_and(f64::is_finite), "{name}");
        assert!(run.stdout.lines().any(|l| l.trim_start().starts_with(name.as_str())), "{name}");
    }
}

#[test]
fn every_workload_meets_the_output_contract() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let spec = parse_json(&spec).expect("BENCHMARK.json parses");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads = spec.get("workloads").and_then(JsonValue::as_array).expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w.get("name").and_then(JsonValue::as_str).expect("workload name");
        let first = run(name, 1, false);
        check_metrics(&first, &end_to_end, name);
        assert_eq!(digest(&run(name, 1, false)), digest(&first), "{name}: seed 1 twice");
        assert_ne!(digest(&run(name, 2, false)), digest(&first), "{name}: seed 2 vs seed 1");
        let traced = run(name, 1, true);
        check_metrics(&traced, &per_layer, name);
        assert_eq!(digest(&traced), digest(&first), "{name}: tracing changed the outputs");
    }
}
