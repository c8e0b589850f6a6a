//! Chaos drill — the serving engine run under a seeded fault schedule,
//! with crash-replay recovery verified against the fault-free run.
//!
//! `repro chaos --seed N` derives a [`FaultSchedule`] from the run seed
//! (same SplitMix64 stream as the scale generator — "same seed, same
//! faults" on every machine); `--faults FILE` loads a hand-written or
//! previously dumped JSON schedule instead. The drill then:
//!
//! 1. runs the fault-free `serve()` oracle;
//! 2. re-runs under a [`ChaosPlane`](sybil_chaos::ChaosPlane) that
//!    injects the schedule and write-ahead journals every epoch;
//! 3. byte-compares the two reports (identical, or a typed fault —
//!    never silent divergence);
//! 4. reopens the journal *bytes* cold and replays every shard,
//!    checking digests against the live run's commits.
//!
//! The emitted [`ChaosResult`] — faults injected by kind, epochs
//! replayed, digest checks, journal size — is a pure function of
//! `(scale, seed, schedule)`, so the dashboard is byte-reproducible.

use crate::fig1::ground_truth_sample;
use crate::runspec::RunSpec;
use crate::scenario::Ctx;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use sybil_chaos::{run_chaos, verify_journal, ChaosOutcome, FaultSchedule, RecoveryReport};
use sybil_core::realtime::RealtimeConfig;
use sybil_core::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeError, ServeSession};

/// Epochs the seed-derived schedule targets (faults beyond the stream's
/// actual epoch count simply never fire).
const SCHEDULE_EPOCHS: u64 = 16;
/// Faults the seed-derived schedule draws.
const SCHEDULE_FAULTS: usize = 8;

/// Why the chaos drill could not run.
#[derive(Debug)]
pub enum ChaosExpError {
    /// The `--faults` file could not be read.
    FaultsIo {
        /// The file.
        path: PathBuf,
        /// The IO error kind.
        kind: std::io::ErrorKind,
    },
    /// The `--faults` file is not a valid schedule.
    FaultsParse {
        /// The file.
        path: PathBuf,
    },
    /// A `--faults` spec names a shard the run does not have: the fault
    /// would be tallied and never fire.
    FaultShardOutOfRange {
        /// The epoch the spec targets.
        epoch: u64,
        /// The shard it names.
        shard: usize,
        /// The shard count the run resolved.
        shards: usize,
    },
    /// The engine failed for a reason no injected fault explains.
    Engine(ServeError),
}

impl std::fmt::Display for ChaosExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosExpError::FaultsIo { path, kind } => {
                write!(f, "could not read {} ({kind:?})", path.display())
            }
            ChaosExpError::FaultsParse { path } => {
                write!(f, "{} is not a valid fault schedule", path.display())
            }
            ChaosExpError::FaultShardOutOfRange {
                epoch,
                shard,
                shards,
            } => write!(
                f,
                "fault at epoch {epoch} names shard {shard}, but the run has {shards} shards"
            ),
            ChaosExpError::Engine(e) => write!(f, "serving engine failed: {e}"),
        }
    }
}

impl std::error::Error for ChaosExpError {}

/// Result of the chaos drill.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosResult {
    /// The calibrated rule the detector ran (same calibration as
    /// `serve`/`deployment`).
    pub rule: ThresholdClassifier,
    /// Shard count the engine used.
    pub shards: usize,
    /// Whether the schedule came from `--faults` (vs. seed-derived).
    pub faults_from_file: bool,
    /// The schedule that ran (dump this to JSON to replay the drill).
    pub schedule: FaultSchedule,
    /// The deterministic recovery report.
    pub report: RecoveryReport,
    /// Whether the journal bytes, reopened cold, replayed every shard to
    /// its committed digest (skipped — `false` — when the run surfaced
    /// a fault before finishing).
    pub journal_replay_verified: bool,
}

/// Load the schedule: from `--faults FILE` when given, else derived
/// from the run seed. A file is outside input: every shard-scoped spec
/// must name one of the run's `shards`.
fn load_schedule(spec: &RunSpec, shards: usize) -> Result<(FaultSchedule, bool), ChaosExpError> {
    match &spec.faults_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| ChaosExpError::FaultsIo {
                path: path.clone(),
                kind: e.kind(),
            })?;
            let mut schedule: FaultSchedule = serde_json::from_str(&text)
                .map_err(|_| ChaosExpError::FaultsParse { path: path.clone() })?;
            let outside = schedule
                .faults
                .iter()
                .find(|f| f.kind.shard_scoped() && f.shard >= shards);
            if let Some(f) = outside {
                return Err(ChaosExpError::FaultShardOutOfRange {
                    epoch: f.epoch,
                    shard: f.shard,
                    shards,
                });
            }
            schedule.normalize();
            Ok((schedule, true))
        }
        None => Ok((
            FaultSchedule::generate(spec.seed, SCHEDULE_EPOCHS, shards, SCHEDULE_FAULTS),
            false,
        )),
    }
}

/// Run the chaos drill.
pub fn run(ctx: &Ctx, spec: &RunSpec) -> Result<ChaosResult, ChaosExpError> {
    run_inner(ctx, spec, None)
}

/// [`run`] with metrics: the recovery report's counters land in `reg`
/// under `chaos.*` keys — all logical quantities, deterministic at
/// every thread and shard count.
pub fn run_observed(
    ctx: &Ctx,
    spec: &RunSpec,
    reg: &mut sybil_obs::Registry,
) -> Result<ChaosResult, ChaosExpError> {
    run_inner(ctx, spec, Some(reg))
}

fn run_inner(
    ctx: &Ctx,
    spec: &RunSpec,
    obs: Option<&mut sybil_obs::Registry>,
) -> Result<ChaosResult, ChaosExpError> {
    let ds = ground_truth_sample(ctx, spec.per_class());
    let rule = ThresholdClassifier::calibrate(&ds);
    let detect = RealtimeConfig {
        rule,
        adaptive: true,
        ..RealtimeConfig::default()
    };
    let mut cfg = ServeConfig {
        shards: spec.shards,
        epoch_hours: 48,
        detect,
        rotate_floor: 0,
    };
    // Resolve `--shards 0` the way the engine does, so the schedule's
    // shard targets line up with the shards that actually run.
    cfg.shards = cfg.resolved_shards();
    let shards = cfg.shards;
    let (schedule, faults_from_file) = load_schedule(spec, shards)?;
    let baseline = ServeSession::new(cfg)
        .run(&ctx.out)
        .map_err(ChaosExpError::Engine)?
        .report;
    let chaos = run_chaos(
        &ctx.out,
        &cfg,
        &baseline,
        schedule.clone(),
        std::io::Cursor::new(Vec::new()),
        obs,
    )
    .map_err(ChaosExpError::Engine)?;

    // Recovery double-check: the journal *bytes*, reopened cold, must
    // replay every shard to the digest the live run committed. Only a
    // finished run has the run-end record this needs.
    let journal_replay_verified = if chaos.report.outcome == ChaosOutcome::Identical {
        let bytes = chaos.journal.into_store();
        verify_journal(bytes, &ctx.out, &cfg)
            .map(|v| v.all_match())
            .unwrap_or(false)
    } else {
        false
    };

    Ok(ChaosResult {
        rule,
        shards,
        faults_from_file,
        schedule,
        report: chaos.report,
        journal_replay_verified,
    })
}

impl ChaosResult {
    /// Render the recovery dashboard.
    pub fn render(&self) -> String {
        let r = &self.report;
        let mut t = Table::new(["Quantity", "Value"]);
        let outcome = match &r.outcome {
            ChaosOutcome::Identical => "byte-identical to fault-free run".to_string(),
            ChaosOutcome::Fault { epoch, shard, kind } => match shard {
                Some(s) => format!("typed fault: {kind} at epoch {epoch}, shard {s}"),
                None => format!("typed fault: {kind} at epoch {epoch}"),
            },
            ChaosOutcome::Diverged => "SILENT DIVERGENCE (invariant broken)".to_string(),
        };
        let rows: Vec<(&str, String)> = vec![
            ("Epochs processed", r.epochs.to_string()),
            ("Faults scheduled", r.faults_scheduled.to_string()),
            (
                "Faults injected",
                format!(
                    "{} (clamp {}, reorder {}, crash {})",
                    r.injected.total(),
                    r.injected.queue_clamps,
                    r.injected.barrier_reorders,
                    r.injected.crashes
                ),
            ),
            (
                "Epochs replayed (crash recovery)",
                r.epochs_replayed.to_string(),
            ),
            ("Replay digest checks", r.replay_digest_checks.to_string()),
            ("Journal size", format!("{} bytes", r.journal_bytes)),
            ("Outcome", outcome),
            (
                "Journal cold replay",
                if self.journal_replay_verified {
                    "verified (all shards byte-identical)".into()
                } else if r.outcome == ChaosOutcome::Identical {
                    "FAILED".into()
                } else {
                    "skipped (run surfaced a fault)".into()
                },
            ),
        ];
        for (k, v) in rows {
            t.add_row([k.to_string(), v]);
        }
        format!(
            "Chaos drill — seed {}, {} shards, schedule {} ({} faults)\n\n{}",
            self.schedule.seed,
            self.shards,
            if self.faults_from_file {
                "from --faults file"
            } else {
                "seed-derived"
            },
            self.schedule.faults.len(),
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn seed_derived_drill_recovers_or_types() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = RunSpec::builder()
            .scale(Scale::Tiny)
            .seed(11)
            .shards(2)
            .build();
        let r = run(ctx, &spec).expect("drill failed");
        assert!(!r.faults_from_file);
        assert!(r.report.outcome.invariant_holds(), "{:?}", r.report);
        if r.report.outcome == ChaosOutcome::Identical {
            assert!(r.journal_replay_verified);
        }
        assert!(r.render().contains("Chaos drill"));
    }

    #[test]
    fn drill_is_deterministic() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = RunSpec::builder()
            .scale(Scale::Tiny)
            .seed(11)
            .shards(2)
            .build();
        let a = serde_json::to_string(&run(ctx, &spec).expect("drill failed")).unwrap();
        let b = serde_json::to_string(&run(ctx, &spec).expect("drill failed")).unwrap();
        assert_eq!(a, b, "chaos drill must be byte-reproducible");
    }

    /// Write `json` as a `--faults` file under a per-test name and run
    /// the drill at tiny scale over 2 shards.
    fn drill_with_faults(test: &str, json: &str) -> Result<ChaosResult, ChaosExpError> {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let path =
            std::env::temp_dir().join(format!("sybil-chaos-{}-{test}.json", std::process::id()));
        std::fs::write(&path, json).unwrap();
        let spec = RunSpec::builder()
            .scale(Scale::Tiny)
            .seed(11)
            .shards(2)
            .faults_file(path.clone())
            .build();
        let r = run(ctx, &spec);
        let _ = std::fs::remove_file(&path);
        r
    }

    #[test]
    fn faults_file_round_trips_through_the_drill() {
        let schedule = FaultSchedule::generate(99, 8, 2, 4);
        let json = serde_json::to_string(&schedule).unwrap();
        let r = drill_with_faults("round-trip", &json).expect("drill failed");
        assert!(r.faults_from_file);
        assert_eq!(r.schedule, schedule);
        assert!(r.report.outcome.invariant_holds());
    }

    #[test]
    fn a_fault_on_a_shard_the_run_lacks_is_a_typed_error() {
        let json = r#"{"seed":0,"faults":[{"epoch":1,"shard":7,"kind":"Crash"}]}"#;
        assert!(matches!(
            drill_with_faults("shard7", json),
            Err(ChaosExpError::FaultShardOutOfRange {
                epoch: 1,
                shard: 7,
                shards: 2
            })
        ));
    }

    #[test]
    fn a_retired_fault_kind_is_a_typed_parse_error() {
        let json = r#"{"seed":0,"faults":[{"epoch":1,"shard":0,"kind":{"Stall":{"epochs":2}}}]}"#;
        assert!(matches!(
            drill_with_faults("stall", json),
            Err(ChaosExpError::FaultsParse { .. })
        ));
    }

    #[test]
    fn missing_faults_file_is_a_typed_error() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = RunSpec::builder()
            .scale(Scale::Tiny)
            .faults_file("/nonexistent/faults.json")
            .build();
        assert!(matches!(
            run(ctx, &spec),
            Err(ChaosExpError::FaultsIo { .. })
        ));
    }
}
