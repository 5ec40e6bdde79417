//! The benchmark at a tiny scale: every workload in `workloads.json` prints
//! every metric named in `BENCHMARK.json`, with its unit, in both modes; and
//! the output check fails a run that drops an answer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

fn benchmark() -> Value {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    serde_json::from_str(&text).expect("BENCHMARK.json is valid JSON")
}

fn fields(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(fields) => fields,
        other => panic!("expected an object, got {other}"),
    }
}

/// Runs one workload for one second; returns whether it exited 0 and its
/// last output line, parsed.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (bool, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| panic!("{workload}: no output"));
    let result = serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    (output.status.success(), result)
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark();
    let config: Value =
        serde_json::from_str(include_str!("../workloads.json")).expect("workloads.json is valid");
    let workloads: Vec<&str> =
        fields(&config).iter().map(|(k, _)| k.as_str()).filter(|k| *k != "held_out_seed").collect();
    let listed: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(listed, workloads, "BENCHMARK.json and workloads.json name the same workloads");
    for workload in workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, result) = run(workload, trace, &[]);
            assert!(ok, "{workload} --trace {trace} failed: {result}");
            let keys: Vec<&str> = fields(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}");
            assert_eq!(result["correct"], true, "{workload}");
            assert!(result["attempted"].as_u64().is_some_and(|n| n >= 1), "{workload}: {result}");
            let metrics = &result["metrics"];
            let expected = names(&bench[list]);
            assert_eq!(
                fields(metrics).len(),
                expected.len(),
                "{workload} --trace {trace}: {metrics}"
            );
            for (name, unit) in expected {
                let metric = &metrics[name.as_str()];
                assert!(
                    metric["value"].as_f64().is_some(),
                    "{workload}: {name} missing or not a number"
                );
                assert_eq!(
                    metric["unit"].as_str(),
                    Some(unit.as_str()),
                    "{workload}: unit of {name}"
                );
            }
        }
    }
}

#[test]
fn a_dropped_answer_fails_the_output_check() {
    for workload in ["serve-keyed", "learn-hyperplane"] {
        let (ok, result) = run(workload, "0", &["--drop-answer"]);
        assert!(!ok, "{workload}: a run that dropped an answer exited 0");
        assert_eq!(result["correct"], false, "{workload}: {result}");
    }
}
