//! Running workloads as child processes: the all-workloads report and the
//! self-check. One child per run, so peak memory and allocator state
//! never leak from one workload into the next.

use crate::spec::{MetricDecl, Spec};
use crate::stats::Summary;
use serde_json::{json, Value};
use std::process::{Command, Stdio};

/// One run of one workload in a child of this executable; the child's
/// result object, or why there is none. The call returns only after the
/// child has exited.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let line = last.ok_or(format!("{workload}: no result ({})", out.status))?;
    let result: Value = serde_json::from_str(line).map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() || result["correct"] != true {
        return Err(format!(
            "{workload} seed {seed}: jobs failed ({}): {line}",
            out.status
        ));
    }
    Ok(result)
}

fn value_of(result: &Value, metric: &str) -> Result<f64, String> {
    result["metrics"][metric]["value"]
        .as_f64()
        .ok_or(format!("result has no metric {metric}"))
}

/// Every workload once, each in its own child: prints a table of every
/// metric by name with its unit and writes `benchmark/out/results.json`.
pub fn all_workloads(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<bool, String> {
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in &spec.workloads {
        match child(workload, seed, seconds, trace, quick) {
            Ok(result) => results.push((workload.clone(), result)),
            Err(e) => {
                eprintln!("engine-benchmark: {e}");
                all_correct = false;
            }
        }
    }

    print!("{:<44} {:<12}", "metric", "unit");
    for (workload, _) in &results {
        print!(" {workload:>16}");
    }
    println!();
    for decl in declared {
        print!("{:<44} {:<12}", decl.name, decl.unit);
        for (_, result) in &results {
            print!(" {:>16}", crate::show(value_of(result, &decl.name)?));
        }
        println!();
    }
    print!("{:<44} {:<12}", "failed / attempted", "jobs");
    for (_, result) in &results {
        let jobs = format!(
            "{} / {}",
            result["failed"].as_u64().unwrap_or(0),
            result["attempted"].as_u64().unwrap_or(0)
        );
        print!(" {jobs:>16}");
    }
    println!();

    let file = json!({
        "environment": crate::environment(seed),
        "trace": trace,
        "seconds": seconds,
        "results": Value::Map(results),
    });
    let pretty = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    crate::write_out("results.json", &pretty)?;
    Ok(all_correct)
}

/// Runs per set and sets per self-check, as the contract's acceptance
/// check does it.
const RUNS_PER_SET: u64 = 10;

/// By what share of `first` the median `second` is worse.
fn worse_by(decl: &MetricDecl, first: f64, second: f64) -> f64 {
    match decl.better.as_str() {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

/// Two sets of ten untraced runs per workload, each run on another seed,
/// the same ten seeds in both sets. A metric passes when its spread (the
/// inter-quartile distance of the ten values as a share of their median)
/// stays within its bound in both sets — `setup_s` exempt — and the
/// second set's median is not worse than the first's by more than the
/// bound. Prints the table as Markdown and writes it to
/// `benchmark/out/selfcheck.md`.
pub fn selfcheck(spec: &Spec, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut table = String::from(
        "| workload | metric | unit | bound | median A | spread A | median B | spread B | B worse by | |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut pass = true;
    for workload in &spec.workloads {
        let mut sets: [Vec<Value>; 2] = Default::default();
        for (set, results) in sets.iter_mut().enumerate() {
            for run in 0..RUNS_PER_SET {
                eprintln!(
                    "selfcheck: {workload} set {} run {}/{RUNS_PER_SET}",
                    ["A", "B"][set],
                    run + 1
                );
                results.push(child(workload, seed + run, seconds, false, false)?);
            }
        }
        for decl in &spec.end_to_end {
            let bound = decl.bound.ok_or(format!("{} has no bound", decl.name))?;
            let summary = |results: &[Value]| -> Result<Summary, String> {
                let values: Result<Vec<f64>, String> =
                    results.iter().map(|r| value_of(r, &decl.name)).collect();
                Ok(Summary::of(&values?))
            };
            let (a, b) = (summary(&sets[0])?, summary(&sets[1])?);
            let drift = worse_by(decl, a.median, b.median);
            let steady = decl.name == "setup_s" || (a.spread() <= bound && b.spread() <= bound);
            let ok = steady && drift <= bound;
            pass &= ok;
            table.push_str(&format!(
                "| {workload} | {} | {} | {:.0}% | {:.6} | {:.2}% | {:.6} | {:.2}% | {:+.2}% | {} |\n",
                decl.name,
                decl.unit,
                bound * 100.0,
                a.median,
                a.spread() * 100.0,
                b.median,
                b.spread() * 100.0,
                drift * 100.0,
                if ok { "ok" } else { "FAIL" },
            ));
        }
    }
    print!("{table}");
    println!("\nselfcheck: {}", if pass { "PASS" } else { "FAIL" });
    crate::write_out("selfcheck.md", &table)?;
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(better: &str) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(0.1),
        }
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(&decl("lower"), 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(&decl("lower"), 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(&decl("higher"), 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(&decl("higher"), 10.0, 12.0) + 0.2).abs() < 1e-12);
    }
}
