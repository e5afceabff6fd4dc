//! Tiny-size invocations of every workload: each completes with no
//! failed attempt and emits exactly the metrics `BENCHMARK.json`
//! declares, with their units.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{section} entry without {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| match w.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("workload without a name: {other:?}"),
        })
        .collect()
}

/// Run one tiny invocation; returns the parsed result line.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_mtm-perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse(last).expect("the last line is JSON")
}

fn check(workload: &str, trace: u8, section: &str) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed"), Some(&Value::Int(0)), "{workload}");
    match result.get("attempted") {
        Some(Value::Int(n)) => assert!(*n >= 1, "{workload}: nothing attempted"),
        other => panic!("{workload}: attempted is {other:?}"),
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| match m.get("unit") {
            Some(Value::Str(u)) => (name.clone(), u.clone()),
            other => panic!("{name} without a unit: {other:?}"),
        })
        .collect();
    assert_eq!(emitted, declared(section), "{workload} --trace {trace}");
    if trace == 0 {
        let ok = metrics
            .iter()
            .find(|(n, _)| n == "ok_frac")
            .and_then(|(_, m)| match m.get("value") {
                Some(Value::Int(v)) => Some(*v as f64),
                Some(Value::Float(v)) => Some(*v),
                _ => None,
            });
        assert_eq!(ok, Some(1.0), "{workload}: failed_frac must be 0");
    }
}

#[test]
fn every_workload_is_declared_and_runs_untraced() {
    let names = workloads();
    assert_eq!(names, ["paper-bo", "restart-readback"]);
    for w in &names {
        check(w, 0, "end_to_end");
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in workloads() {
        check(&w, 1, "per_layer");
    }
}
