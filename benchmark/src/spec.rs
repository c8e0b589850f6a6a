//! `BENCHMARK.json` as the program reads it. The file at the repo root is
//! the one declaration of workloads, metric names, units and bounds; the
//! harness emits exactly the names it declares and refuses to emit one it
//! does not.

use serde_json::Value;

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed beside every value.
    pub unit: String,
    /// Whether `higher` or `lower` is better.
    pub better: String,
    /// Regression bound as a share of the median; end-to-end only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness uses.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Default measuring time of one run, in seconds.
    pub run_seconds: u64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricDecl>,
}

/// The contract's rule for a name: starts with a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: missing string {key:?}")),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match v.get(key) {
        Some(Value::Seq(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: missing list {key:?}")),
    }
}

fn metrics(v: &Value, key: &str) -> Result<Vec<MetricDecl>, String> {
    list(v, key)?
        .iter()
        .map(|m| {
            let decl = MetricDecl {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound: m.get("bound").and_then(Value::as_f64),
            };
            if !valid_name(&decl.name) {
                return Err(format!("BENCHMARK.json: bad metric name {:?}", decl.name));
            }
            if decl.better != "higher" && decl.better != "lower" {
                return Err(format!(
                    "BENCHMARK.json: {}: better is {:?}",
                    decl.name, decl.better
                ));
            }
            Ok(decl)
        })
        .collect()
}

impl Spec {
    /// Parse the text of `BENCHMARK.json`.
    pub fn parse(json: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let workloads = list(&v, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<Vec<_>, _>>()?;
        let spec = Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        };
        if let Some(bad) = spec.workloads.iter().find(|n| !valid_name(n)) {
            return Err(format!("BENCHMARK.json: bad workload name {bad:?}"));
        }
        let metric_names = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| &m.name);
        let mut names: Vec<&String> = spec.workloads.iter().chain(metric_names).collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("BENCHMARK.json: name {:?} used twice", dup[0]));
        }
        Ok(spec)
    }

    /// Read `BENCHMARK.json` from the working directory (the repo root;
    /// `run.sh` changes into it).
    pub fn load() -> Result<Spec, String> {
        let json = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
        Spec::parse(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for good in ["setup_s", "sybil-serve.run_s_shards8", "9lives", "a"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "slash/es",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn the_committed_file_parses_and_is_consistent() {
        let spec = Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec.per_layer.len() <= 128);
        assert!((1..=60).contains(&spec.run_seconds));
    }

    #[test]
    fn duplicates_and_bad_names_are_refused() {
        let file = |metric: &str| {
            format!(
                r#"{{"run_seconds": 1, "workloads": [{{"name": "w", "why": "x"}}],
                    "end_to_end": [{{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}}],
                    "per_layer": [{{"name": "{metric}", "unit": "s", "better": "lower"}}]}}"#
            )
        };
        assert!(Spec::parse(&file("layer.x_s")).is_ok());
        assert!(Spec::parse(&file("setup_s"))
            .unwrap_err()
            .contains("used twice"));
        assert!(Spec::parse(&file("bad name"))
            .unwrap_err()
            .contains("bad metric name"));
    }
}
