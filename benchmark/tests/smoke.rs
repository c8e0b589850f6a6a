//! `--quick` smoke of the built binary: every workload, traced and not,
//! must emit exactly the metric names `BENCHMARK.json` declares, check
//! every job, and (traced) leave a well-formed span file.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(format!("{ROOT}/BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> BTreeSet<String> {
    let Value::Seq(items) = list else {
        panic!("expected a list, got {list:?}")
    };
    items
        .iter()
        .map(|m| match &m["name"] {
            Value::Str(s) => s.clone(),
            other => panic!("name is {other:?}"),
        })
        .collect()
}

/// Run the binary from the repo root; the parsed last line of stdout.
fn run(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_engine-benchmark"))
        .args(args)
        .current_dir(ROOT)
        .output()
        .expect("spawn engine-benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{args:?} exited {}: {stderr}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line parses")
}

#[test]
fn every_workload_emits_exactly_the_declared_names() {
    let spec = benchmark_json();
    for workload in names(&spec["workloads"]) {
        for (trace, declared) in [("0", &spec["end_to_end"]), ("1", &spec["per_layer"])] {
            let args = [
                "--workload",
                &workload,
                "--seed",
                "11",
                "--trace",
                trace,
                "--quick",
            ];
            let result = run(&args);
            let Value::Map(metrics) = &result["metrics"] else {
                panic!("{workload}: metrics is {:?}", result["metrics"])
            };
            let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, names(declared), "{workload} --trace {trace}");
            for (name, metric) in metrics {
                let value = metric["value"].as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {metric:?}"
                );
            }
            assert_eq!(result["correct"], true, "{workload} --trace {trace}");
            assert_eq!(result["failed"], 0u64, "{workload} --trace {trace}");
            assert!(result["attempted"].as_u64().is_some_and(|n| n >= 1));
        }
        check_span_file(&workload);
    }
}

/// Every span has a parent before it or is a root, and child intervals
/// lie inside their parent's.
fn check_span_file(workload: &str) {
    let path = format!("{ROOT}/benchmark/out/trace-{workload}.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let file: Value = serde_json::from_str(&text).expect("span file parses");
    let Value::Seq(spans) = &file["spans"] else {
        panic!("{path}: no spans")
    };
    assert!(
        spans.iter().any(|s| s["name"] == "job"),
        "{path}: no job span"
    );
    let interval = |s: &Value| (s["start"].as_f64().unwrap(), s["end"].as_f64().unwrap());
    for (i, span) in spans.iter().enumerate() {
        let (start, end) = interval(span);
        assert!(start <= end, "{path}: span {i}");
        assert_eq!(span["workload"], workload);
        if let Some(parent) = span["parent"].as_u64() {
            assert!((parent as usize) < i, "{path}: span {i} has a later parent");
            let (p_start, p_end) = interval(&spans[parent as usize]);
            assert!(
                p_start <= start && end <= p_end,
                "{path}: span {i} leaves its parent"
            );
        } else {
            assert_eq!(span["parent"], Value::Null, "{path}: span {i}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_engine-benchmark"))
        .args(["--workload", "scan_1m"])
        .current_dir(ROOT)
        .output()
        .expect("spawn engine-benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
