//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! engine-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! engine-benchmark [--seed N] [--seconds S] [--trace 0|1]             every workload, one child each
//! engine-benchmark --selfcheck [--seed N] [--seconds S]               two sets of ten seeds, compared
//! ```
//!
//! Run it from the repo root (`benchmark/run.sh` does): it reads
//! `BENCHMARK.json` there and writes under `benchmark/out/`.

mod driver;
mod ledger;
mod plane;
mod procfs;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{Outcome, RunArgs};
use serde_json::{json, Value};
use spec::{MetricDecl, Spec};
use stats::Summary;
use std::collections::BTreeMap;
use workloads::{Workload, THREADS};

/// The command line, parsed.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(Workload::parse(name).ok_or(format!("no workload {name:?}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds: {s} is not a duration"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// What the run ran on; recorded beside every result.
fn environment(seed: u64) -> Value {
    let tool = |program: &str, args: &[&str]| {
        let out = std::process::Command::new(program).args(args).output().ok();
        out.filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    json!({
        "seed": seed,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "RENREN_THREADS": std::env::var(osn_graph::par::THREADS_ENV).unwrap_or_default(),
        "rustc": tool("rustc", &["--version"]),
        "git_commit": tool("git", &["rev-parse", "HEAD"]),
    })
}

/// The contract's result object: `metrics` holds exactly `declared`.
fn result_line(outcome: &Outcome, declared: &[MetricDecl]) -> Result<Value, String> {
    let mut metrics = Vec::new();
    for decl in declared {
        let value = outcome
            .metrics
            .get(&decl.name)
            .ok_or(format!("declared metric {} was not measured", decl.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", decl.name));
        }
        metrics.push((
            decl.name.clone(),
            json!({"value": *value, "unit": decl.unit.as_str()}),
        ));
    }
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|d| &d.name == *k))
    {
        return Err(format!(
            "measured metric {stray} is not declared in BENCHMARK.json"
        ));
    }
    Ok(json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Map(metrics),
    }))
}

/// Write `text` to `benchmark/out/<file>`.
pub fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
    std::fs::write(format!("benchmark/out/{file}"), text).map_err(|e| format!("{file}: {e}"))
}

/// A value for a table: six decimals, or scientific when that would
/// print a small non-zero value as zero.
pub fn show(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.3e}")
    } else {
        format!("{value:.6}")
    }
}

/// One workload in this process. Prints every metric by name with its
/// unit on stderr and the result object as the last line of stdout.
fn run_one(args: &RunArgs, trace: bool, spec: &Spec) -> Result<bool, String> {
    let (outcome, declared) = match trace {
        false => (run::end_to_end(args), &spec.end_to_end),
        true => (ledger::traced(args, spec), &spec.per_layer),
    };
    let line = result_line(&outcome, declared)?;

    let mode = if trace { "traced" } else { "untraced" };
    eprintln!(
        "{} seed {} ({mode}, {} s)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let summaries: BTreeMap<&String, Summary> = outcome
        .samples
        .iter()
        .map(|(name, samples)| (name, Summary::of(samples)))
        .collect();
    for decl in declared {
        let summary = summaries.get(&decl.name).map_or(String::new(), |s| {
            format!("  n={} q1={:.6} q3={:.6}", s.n, s.q1, s.q3)
        });
        let value = show(outcome.metrics[&decl.name]);
        eprintln!("  {:<44} {value:>16} {}{summary}", decl.name, decl.unit);
    }
    for (name, s) in summaries
        .iter()
        .filter(|(n, _)| !outcome.metrics.contains_key(**n))
    {
        eprintln!(
            "  ({name}: median {:.6} n={} q1={:.6} q3={:.6})",
            s.median, s.n, s.q1, s.q3
        );
    }
    eprintln!(
        "  jobs: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    if let Some(why) = &outcome.first_failure {
        eprintln!("  first failure: {why}");
    }

    let summaries: Vec<(String, Value)> = outcome
        .samples
        .iter()
        .map(|(name, samples)| {
            let mut summary = summaries[name].to_json();
            if let Value::Map(fields) = &mut summary {
                fields.push(("samples".to_string(), json!(samples.clone())));
            }
            (name.clone(), summary)
        })
        .collect();
    let detail = json!({
        "workload": args.workload.name(),
        "trace": trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "result": line.clone(),
        "summaries": Value::Map(summaries),
    });
    let suffix = if trace { "-trace" } else { "" };
    let pretty = serde_json::to_string_pretty(&detail).map_err(|e| e.to_string())?;
    write_out(
        &format!("result-{}{suffix}.json", args.workload.name()),
        &pretty,
    )?;

    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(outcome.failed == 0)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let spec = Spec::load()?;
    let declared: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    if declared != known {
        return Err(format!(
            "BENCHMARK.json declares {declared:?}, the harness runs {known:?}"
        ));
    }
    let seconds = match cli.quick {
        true => 0.0,
        false => cli.seconds.unwrap_or(spec.run_seconds as f64),
    };
    if cli.selfcheck {
        return driver::selfcheck(&spec, cli.seed, seconds);
    }
    let Some(workload) = cli.workload else {
        return driver::all_workloads(&spec, cli.seed, seconds, cli.trace, cli.quick);
    };
    // The crates read their thread count from the environment on every
    // parallel map; pin it before the first one. Nothing else is running.
    std::env::set_var(osn_graph::par::THREADS_ENV, THREADS.to_string());
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        quick: cli.quick,
    };
    run_one(&args, cli.trace, &spec)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("engine-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
