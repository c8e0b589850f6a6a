//! Typed run configuration for the `repro` binary.
//!
//! The binary used to parse `std::env::args` with a hand-rolled loop and
//! bail with `process::exit` mid-parse; experiments then took loose
//! `per_class`/`suspects`/shard parameters re-derived at every call
//! site. [`RunSpec`] replaces both: one typed spec built either by
//! [`parse_args`] (CLI) or by [`RunSpec::builder`] (tests, benches),
//! carrying every knob a run needs — scale, seed, output directory,
//! experiment set, shard count, thread override, metrics directory — plus
//! the scale-derived parameters (`per_class`, `suspects`,
//! `reach_trials`) that used to live as match blocks in `main`.
//!
//! Parsing is total: every failure is a [`CliError`] value (no exits, no
//! panics), and the `--help` text is rendered from the same flag table
//! the parser consumes, so the two cannot drift apart.

use crate::scenario::Scale;
use std::path::PathBuf;

/// Every experiment name the binary accepts, in default execution order.
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "zoo",
    "mixing",
    "deployment",
    "serve",
    "chaos",
    "restart",
    "reach",
    "defenses",
];

/// One CLI flag: spelling, value placeholder (`None` for bare flags),
/// and help text. [`help`] renders this table; [`parse_args`] consumes
/// it, so the documentation is the implementation.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

const FLAGS: [Flag; 9] = [
    Flag {
        name: "--scale",
        value: Some("tiny|small|paper|xl"),
        help: "simulation scale (default small; xl = 1M synthetic accounts, serve only)",
    },
    Flag {
        name: "--seed",
        value: Some("N"),
        help: "simulation seed (default 1)",
    },
    Flag {
        name: "--out",
        value: Some("DIR"),
        help: "output directory (default results/)",
    },
    Flag {
        name: "--shards",
        value: Some("N"),
        help: "serving-engine shard count; 0 = RENREN_THREADS (default 0)",
    },
    Flag {
        name: "--threads",
        value: Some("N"),
        help: "worker thread count (sets RENREN_THREADS for this run)",
    },
    Flag {
        name: "--faults",
        value: Some("FILE"),
        help: "chaos experiment: load the fault schedule from FILE (JSON) instead of deriving it from --seed",
    },
    Flag {
        name: "--metrics",
        value: Some("DIR"),
        help: "write a deterministic metrics.json under DIR",
    },
    Flag {
        name: "--store",
        value: Some("DIR"),
        help: "persist serving state under DIR (versioned checkpoints + epoch journal; reruns warm-restart from it)",
    },
    Flag {
        name: "--help",
        value: None,
        help: "print this help",
    },
];

/// A fully-resolved run configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Simulation scale.
    pub scale: Scale,
    /// Simulation seed.
    pub seed: u64,
    /// Directory results are written under (a `{scale}-seed{seed}`
    /// subdirectory is appended per run).
    pub out_dir: PathBuf,
    /// Experiments to run, validated against [`ALL_EXPERIMENTS`], in
    /// execution order.
    pub experiments: Vec<String>,
    /// Serving-engine shard count; 0 means "ambient" (`RENREN_THREADS`).
    pub shards: usize,
    /// Worker-thread override; `Some(n)` sets `RENREN_THREADS=n` before
    /// the run.
    pub threads: Option<usize>,
    /// When set, a deterministic `metrics.json` is written under this
    /// directory.
    pub metrics_dir: Option<PathBuf>,
    /// Fault-schedule file for the `chaos` experiment; `None` derives a
    /// schedule from the seed.
    pub faults_file: Option<PathBuf>,
    /// When set, the `serve` experiment persists its state under this
    /// directory (checkpoints + journal) and warm-restarts from whatever
    /// a previous run left there; the `restart` drill stores under it
    /// too (in its own subdirectory, which it clears).
    pub store_dir: Option<PathBuf>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            scale: Scale::Small,
            seed: 1,
            out_dir: PathBuf::from("results"),
            experiments: ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect(),
            shards: 0,
            threads: None,
            metrics_dir: None,
            faults_file: None,
            store_dir: None,
        }
    }
}

impl RunSpec {
    /// Start building a spec from the defaults.
    pub fn builder() -> RunSpecBuilder {
        RunSpecBuilder {
            spec: RunSpec::default(),
        }
    }

    /// Ground-truth sample size per class for feature/classifier
    /// experiments, scaled so every tier finishes in its time budget.
    pub fn per_class(&self) -> usize {
        match self.scale {
            Scale::Tiny => 50,
            Scale::Small => 250,
            Scale::Paper | Scale::Xl => 1000,
        }
    }

    /// Suspects per class for the graph-defense evaluation.
    pub fn suspects(&self) -> usize {
        match self.scale {
            Scale::Tiny => 15,
            Scale::Small => 30,
            Scale::Paper | Scale::Xl => 40,
        }
    }

    /// Percolation trials for the spam-reach experiment (fewer at paper
    /// scale and above).
    pub fn reach_trials(&self) -> usize {
        if matches!(self.scale, Scale::Paper | Scale::Xl) {
            20
        } else {
            50
        }
    }

    /// The per-run output directory: `{out_dir}/{scale}-seed{seed}`.
    pub fn run_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}-seed{}", self.scale, self.seed))
    }
}

/// Infallible setters over a [`RunSpec`]; experiment names are the one
/// thing validated here (the only builder input with an invalid space).
pub struct RunSpecBuilder {
    spec: RunSpec,
}

impl RunSpecBuilder {
    /// Set the simulation scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.spec.scale = scale;
        self
    }

    /// Set the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Set the output directory.
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.out_dir = dir.into();
        self
    }

    /// Replace the experiment set. Unknown names are rejected.
    pub fn experiments<I, S>(mut self, names: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spec.experiments = validate_experiments(names.into_iter().map(Into::into))?;
        Ok(self)
    }

    /// Set the serving-engine shard count (0 = ambient).
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Override the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = Some(threads);
        self
    }

    /// Enable metrics export under `dir`.
    pub fn metrics_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.metrics_dir = Some(dir.into());
        self
    }

    /// Load the chaos fault schedule from `file`.
    pub fn faults_file(mut self, file: impl Into<PathBuf>) -> Self {
        self.spec.faults_file = Some(file.into());
        self
    }

    /// Persist serving state under `dir`.
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spec.store_dir = Some(dir.into());
        self
    }

    /// Finish building.
    pub fn build(self) -> RunSpec {
        self.spec
    }
}

/// Why the command line could not be turned into a [`RunSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given; callers print [`help`] and exit 0.
    HelpRequested,
    /// A flag the table doesn't know.
    UnknownFlag(String),
    /// A flag that needs a value was last on the line.
    MissingValue(&'static str),
    /// A flag's value didn't parse.
    InvalidValue {
        /// The flag.
        flag: &'static str,
        /// What was given.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// A positional argument that names no known experiment.
    UnknownExperiment(String),
    /// `--scale xl` was combined with an experiment other than `serve`.
    /// The xl dataset comes from the synthetic scale generator, and the
    /// figure/table experiments assume simulator-shaped ground truth.
    XlServeOnly(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::HelpRequested => write!(f, "help requested"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag}: invalid value {value:?} (expected {expected})"),
            CliError::UnknownExperiment(name) => {
                write!(f, "unknown experiment {name:?}; see --help for the list")
            }
            CliError::XlServeOnly(name) => {
                write!(
                    f,
                    "--scale xl runs the serving engine only; {name:?} needs the \
                     simulated dataset (pass `serve`, or drop the experiment list)"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

fn validate_experiments(names: impl Iterator<Item = String>) -> Result<Vec<String>, CliError> {
    let mut picked: Vec<String> = Vec::new();
    for name in names {
        if name == "all" {
            return Ok(ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect());
        }
        if !ALL_EXPERIMENTS.contains(&name.as_str()) {
            return Err(CliError::UnknownExperiment(name));
        }
        picked.push(name);
    }
    if picked.is_empty() {
        picked = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok(picked)
}

/// Parse CLI arguments (without the program name) into a [`RunSpec`].
pub fn parse_args<I>(args: I) -> Result<RunSpec, CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut spec = RunSpec::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(CliError::HelpRequested),
            "--scale" => {
                let v = args.next().ok_or(CliError::MissingValue("--scale"))?;
                spec.scale = Scale::parse(&v).ok_or(CliError::InvalidValue {
                    flag: "--scale",
                    value: v,
                    expected: "tiny|small|paper|xl",
                })?;
            }
            "--seed" => {
                let v = args.next().ok_or(CliError::MissingValue("--seed"))?;
                spec.seed = v.parse().map_err(|_| CliError::InvalidValue {
                    flag: "--seed",
                    value: v,
                    expected: "an unsigned integer",
                })?;
            }
            "--out" => {
                let v = args.next().ok_or(CliError::MissingValue("--out"))?;
                spec.out_dir = PathBuf::from(v);
            }
            "--shards" => {
                let v = args.next().ok_or(CliError::MissingValue("--shards"))?;
                spec.shards = v.parse().map_err(|_| CliError::InvalidValue {
                    flag: "--shards",
                    value: v,
                    expected: "an unsigned integer (0 = ambient)",
                })?;
            }
            "--threads" => {
                let v = args.next().ok_or(CliError::MissingValue("--threads"))?;
                let n: usize = v.parse().map_err(|_| CliError::InvalidValue {
                    flag: "--threads",
                    value: v.clone(),
                    expected: "a positive integer",
                })?;
                if n == 0 {
                    return Err(CliError::InvalidValue {
                        flag: "--threads",
                        value: v,
                        expected: "a positive integer",
                    });
                }
                spec.threads = Some(n);
            }
            "--metrics" => {
                let v = args.next().ok_or(CliError::MissingValue("--metrics"))?;
                spec.metrics_dir = Some(PathBuf::from(v));
            }
            "--faults" => {
                let v = args.next().ok_or(CliError::MissingValue("--faults"))?;
                spec.faults_file = Some(PathBuf::from(v));
            }
            "--store" => {
                let v = args.next().ok_or(CliError::MissingValue("--store"))?;
                spec.store_dir = Some(PathBuf::from(v));
            }
            other if other.starts_with('-') => {
                return Err(CliError::UnknownFlag(other.to_string()));
            }
            other => positionals.push(other.to_string()),
        }
    }
    let defaulted = positionals.is_empty();
    spec.experiments = validate_experiments(positionals.into_iter())?;
    if spec.scale == Scale::Xl {
        // The xl workload exists to exercise the serving engine at a
        // million accounts; nothing else runs there. An explicit
        // non-serve request is an error, while the default "all" set
        // narrows to `serve` silently.
        if defaulted {
            spec.experiments = vec!["serve".to_string()];
        } else if let Some(bad) = spec.experiments.iter().find(|e| e.as_str() != "serve") {
            return Err(CliError::XlServeOnly(bad.clone()));
        }
    }
    Ok(spec)
}

/// The `--help` text, rendered from the flag table and experiment list.
pub fn help() -> String {
    let mut s = String::from(
        "usage: repro [FLAGS] [EXPERIMENTS...]\n\
         \n\
         Regenerate the paper's tables and figures from one simulated run.\n\
         \n\
         flags:\n",
    );
    let spellings: Vec<String> = FLAGS
        .iter()
        .map(|f| match f.value {
            Some(v) => format!("{} {}", f.name, v),
            None => f.name.to_string(),
        })
        .collect();
    let width = spellings.iter().map(|s| s.len()).max().unwrap_or(0);
    for (f, spelled) in FLAGS.iter().zip(&spellings) {
        s.push_str(&format!("  {spelled:width$}  {}\n", f.help));
    }
    s.push_str("\nexperiments (default: all):\n  ");
    s.push_str(&ALL_EXPERIMENTS.join(" "));
    s.push_str("\n  all\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunSpec, CliError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let spec = parse(&[]).unwrap();
        assert_eq!(spec, RunSpec::default());
        assert_eq!(spec.experiments.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    fn every_flag_round_trips() {
        let spec = parse(&[
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out",
            "tmp/x",
            "--shards",
            "4",
            "--threads",
            "8",
            "--metrics",
            "tmp/m",
            "--faults",
            "tmp/f.json",
            "--store",
            "tmp/s",
            "serve",
            "deployment",
        ])
        .unwrap();
        assert_eq!(
            spec,
            RunSpec::builder()
                .scale(Scale::Tiny)
                .seed(7)
                .out_dir("tmp/x")
                .shards(4)
                .threads(8)
                .metrics_dir("tmp/m")
                .faults_file("tmp/f.json")
                .store_dir("tmp/s")
                .experiments(["serve", "deployment"])
                .unwrap()
                .build()
        );
        assert_eq!(spec.run_dir(), PathBuf::from("tmp/x/tiny-seed7"));
    }

    #[test]
    fn all_expands_to_every_experiment() {
        let spec = parse(&["fig1", "all"]).unwrap();
        assert_eq!(spec.experiments, RunSpec::default().experiments);
    }

    #[test]
    fn unknown_flag_and_experiment_are_rejected() {
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(CliError::UnknownFlag("--frobnicate".into()))
        );
        assert_eq!(
            parse(&["fig42"]),
            Err(CliError::UnknownExperiment("fig42".into()))
        );
    }

    #[test]
    fn missing_and_invalid_values_are_diagnosed() {
        assert_eq!(parse(&["--seed"]), Err(CliError::MissingValue("--seed")));
        assert!(matches!(
            parse(&["--scale", "huge"]),
            Err(CliError::InvalidValue {
                flag: "--scale",
                ..
            })
        ));
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(CliError::InvalidValue {
                flag: "--threads",
                ..
            })
        ));
        assert!(matches!(
            parse(&["--seed", "x"]),
            Err(CliError::InvalidValue { flag: "--seed", .. })
        ));
    }

    #[test]
    fn help_flag_short_circuits() {
        assert_eq!(parse(&["-h"]), Err(CliError::HelpRequested));
        assert_eq!(
            parse(&["--help", "--frobnicate"]),
            Err(CliError::HelpRequested)
        );
    }

    /// The help text is rendered from the flag table, so every flag and
    /// every experiment must appear in it (the golden shape, without
    /// pinning exact column widths).
    #[test]
    fn help_covers_every_flag_and_experiment() {
        let h = help();
        assert!(h.starts_with("usage: repro"));
        for f in &FLAGS {
            assert!(h.contains(f.name), "help text lost {}", f.name);
        }
        for e in ALL_EXPERIMENTS {
            assert!(h.contains(e), "help text lost experiment {e}");
        }
        assert!(h.contains("all"));
    }

    #[test]
    fn derived_parameters_follow_scale() {
        let tiny = RunSpec::builder().scale(Scale::Tiny).build();
        let paper = RunSpec::builder().scale(Scale::Paper).build();
        let xl = RunSpec::builder().scale(Scale::Xl).build();
        assert_eq!(
            (tiny.per_class(), tiny.suspects(), tiny.reach_trials()),
            (50, 15, 50)
        );
        assert_eq!(
            (paper.per_class(), paper.suspects(), paper.reach_trials()),
            (1000, 40, 20)
        );
        assert_eq!(
            (xl.per_class(), xl.suspects(), xl.reach_trials()),
            (1000, 40, 20)
        );
    }

    /// `--scale xl` narrows the default experiment set to `serve` and
    /// rejects explicit requests for anything else.
    #[test]
    fn xl_is_serve_only() {
        let spec = parse(&["--scale", "xl"]).unwrap();
        assert_eq!(spec.scale, Scale::Xl);
        assert_eq!(spec.experiments, vec!["serve".to_string()]);
        let spec = parse(&["--scale", "xl", "serve"]).unwrap();
        assert_eq!(spec.experiments, vec!["serve".to_string()]);
        assert_eq!(
            parse(&["--scale", "xl", "fig1"]),
            Err(CliError::XlServeOnly("fig1".into()))
        );
        // `all` expands to the full list, which includes non-serve names.
        assert!(matches!(
            parse(&["--scale", "xl", "all"]),
            Err(CliError::XlServeOnly(_))
        ));
    }

    #[test]
    fn builder_rejects_unknown_experiments() {
        assert_eq!(
            RunSpec::builder().experiments(["nope"]).err(),
            Some(CliError::UnknownExperiment("nope".into()))
        );
    }
}
