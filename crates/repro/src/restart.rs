//! Warm-restart drill — kill the persistent serving engine mid-stream,
//! restart from disk alone, and byte-compare against the uninterrupted
//! run.
//!
//! This is the persistence layer's headline invariant exercised on a
//! real simulated stream: `repro restart --seed N` calibrates the same
//! rule as [`crate::serve`], runs the fault-free oracle, then
//!
//! 1. runs again with a [`StorePlane`] armed to crash at a seed-derived
//!    epoch — the write-ahead journal record lands, then the process
//!    "dies" with a typed crash error;
//! 2. reopens a *fresh* plane over the same directory (nothing survives
//!    in memory), warm-restarts — newest checkpoint, committed journal
//!    tail, live stream — and runs to completion;
//! 3. byte-compares the restarted report against the oracle's.
//!
//! The emitted [`RestartRun`] — kill epoch, resume epoch, journal tail
//! length, checkpoint inventory, journal size — is a pure function of
//! `(scale, seed)`, so the dashboard is byte-reproducible.

use crate::fig1::ground_truth_sample;
use crate::runspec::RunSpec;
use crate::scenario::Ctx;
use serde::{Deserialize, Serialize};
use sybil_core::realtime::{DeploymentReport, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_serve::fault::FaultKind;
use sybil_serve::{ServeConfig, ServeError, ServeSession};
use sybil_store::{IoOp, StoreError, StorePlane};

/// Epoch length for the drill. Shorter than the `serve` experiment's so
/// even the tiny stream spans enough epochs to kill mid-run.
const DRILL_EPOCH_HOURS: u64 = 12;

/// Why the restart drill could not run.
#[derive(Debug)]
pub enum RestartError {
    /// The snapshot store or journal failed.
    Store(StoreError),
    /// The engine failed for a reason that is not the armed kill.
    Engine(ServeError),
    /// The armed kill never fired — the stream ended before the kill
    /// epoch, so the drill proved nothing.
    KillNeverFired {
        /// The epoch the kill was armed at.
        kill_epoch: u64,
    },
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Spell out the IO operation for the common case; every
            // other store failure renders through its own Display.
            RestartError::Store(StoreError::Io { op, kind }) => {
                let verb = match op {
                    IoOp::Read => "reading",
                    IoOp::Write => "writing",
                    IoOp::Rename => "renaming",
                    IoOp::CreateDir => "creating",
                    IoOp::List => "listing",
                    IoOp::Truncate => "truncating",
                };
                write!(f, "store IO failed while {verb} ({kind:?})")
            }
            RestartError::Store(e) => write!(f, "snapshot store failed: {e}"),
            RestartError::Engine(e) => write!(f, "serving engine failed: {e}"),
            RestartError::KillNeverFired { kill_epoch } => write!(
                f,
                "the stream ended before epoch {kill_epoch}; nothing was killed"
            ),
        }
    }
}

impl std::error::Error for RestartError {}

impl From<StoreError> for RestartError {
    fn from(e: StoreError) -> Self {
        RestartError::Store(e)
    }
}

/// Result of the warm-restart drill.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RestartRun {
    /// The calibrated rule the detector ran (same calibration as
    /// `serve`/`deployment`).
    pub rule: ThresholdClassifier,
    /// Shard count the engine used.
    pub shards: usize,
    /// Epoch the kill fired at (seed-derived).
    pub kill_epoch: u64,
    /// Epoch count of the checkpoint the restart resumed from; `None`
    /// means the kill predated the first checkpoint and the restart
    /// replayed the stream cold.
    pub resumed_from: Option<u64>,
    /// Committed journal epochs replayed after the checkpoint.
    pub tail_replayed: u64,
    /// Checkpoint inventory left in the store after the finished run.
    pub checkpoints: Vec<u64>,
    /// Journal size in bytes after the finished run.
    pub journal_bytes: u64,
    /// Where the journal lives (under the store directory).
    pub journal_path: String,
    /// Whether the restarted report serialized byte-identically to the
    /// uninterrupted oracle's — the invariant this drill exists for.
    pub matches_oracle: bool,
    /// The restarted run's report.
    pub report: DeploymentReport,
}

/// Run the drill. With `--store DIR` the drill keeps its state under
/// `DIR/restart-drill` (cleared at the start so the kill is always
/// exercised from cold); otherwise it stores under the run directory.
pub fn run(ctx: &Ctx, spec: &RunSpec) -> Result<RestartRun, RestartError> {
    let ds = ground_truth_sample(ctx, spec.per_class());
    let rule = ThresholdClassifier::calibrate(&ds);
    let detect = RealtimeConfig {
        rule,
        adaptive: true,
        ..RealtimeConfig::default()
    };
    let mut cfg = ServeConfig {
        shards: spec.shards,
        epoch_hours: DRILL_EPOCH_HOURS,
        detect,
        rotate_floor: 0,
    };
    cfg.shards = cfg.resolved_shards();
    let shards = cfg.shards;
    // Same seed, same kill point, on every machine.
    let kill_epoch = 1 + spec.seed % 4;

    let oracle = ServeSession::new(cfg)
        .run(&ctx.out)
        .map_err(RestartError::Engine)?;
    let oracle_json = serde_json::to_string(&oracle.report).unwrap_or_default();

    let base = spec.store_dir.clone().unwrap_or_else(|| spec.run_dir());
    let dir = base.join("restart-drill");
    let _ = std::fs::remove_dir_all(&dir);

    // Act 1: the doomed run. The kill lands after the write-ahead
    // journal record for `kill_epoch`, exactly where a SIGKILL between
    // the journal append and the epoch barrier would. This leg
    // checkpoints every epoch (not the sparser production default) so a
    // seed-derived kill in the first few epochs still has a checkpoint
    // to resume from.
    let mut doomed = StorePlane::with_cadence(&dir, 1)?.kill_at_epoch(kill_epoch);
    match ServeSession::new(cfg).store(&mut doomed).run(&ctx.out) {
        Ok(_) => return Err(RestartError::KillNeverFired { kill_epoch }),
        Err(ServeError::Chaos(c)) if c.fault_kind == FaultKind::Crash => {}
        Err(e) => return Err(RestartError::Engine(e)),
    }
    drop(doomed);

    // Act 2: the warm restart, from the directory's bytes alone, at the
    // production cadence: a checkpoint every epoch to the end of the run
    // would only fill the disk.
    let mut revived = StorePlane::open(&dir)?;
    let outcome = ServeSession::new(cfg)
        .store(&mut revived)
        .run(&ctx.out)
        .map_err(RestartError::Engine)?;
    let matches_oracle = serde_json::to_string(&outcome.report).unwrap_or_default() == oracle_json;

    Ok(RestartRun {
        rule,
        shards,
        kill_epoch,
        resumed_from: revived.resumed_from(),
        tail_replayed: revived.tail_replayed(),
        checkpoints: revived.store().checkpoints()?,
        journal_bytes: revived.journal().len_bytes(),
        journal_path: revived.store().journal_path().display().to_string(),
        matches_oracle,
        report: outcome.report,
    })
}

impl RestartRun {
    /// Render the warm-restart dashboard.
    pub fn render(&self) -> String {
        use crate::table::Table;
        let mut t = Table::new(["Quantity", "Value"]);
        let rows: Vec<(&str, String)> = vec![
            ("Kill epoch", self.kill_epoch.to_string()),
            (
                "Resumed from checkpoint",
                match self.resumed_from {
                    Some(e) => format!("epoch {e}"),
                    None => "none (cold replay)".into(),
                },
            ),
            (
                "Journal tail replayed",
                format!("{} committed epochs", self.tail_replayed),
            ),
            (
                "Checkpoints on disk",
                format!(
                    "{} (latest epoch {:?})",
                    self.checkpoints.len(),
                    self.checkpoints.last()
                ),
            ),
            (
                "Journal",
                format!("{} bytes at {}", self.journal_bytes, self.journal_path),
            ),
            (
                "Report vs uninterrupted run",
                if self.matches_oracle {
                    "byte-identical".into()
                } else {
                    "DIVERGED (invariant broken)".into()
                },
            ),
            ("Detections", self.report.detections.len().to_string()),
        ];
        for (k, v) in rows {
            t.add_row([k.to_string(), v]);
        }
        format!(
            "Warm-restart drill — {} shards, {}h epochs, killed at epoch {} and \
             restarted from disk\n\n{}",
            self.shards,
            DRILL_EPOCH_HOURS,
            self.kill_epoch,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    /// Tests run on parallel threads and the drill wipes its directory,
    /// so each test gets a store of its own.
    fn drill_spec(test: &str, seed: u64) -> RunSpec {
        let dir = std::env::temp_dir().join(format!(
            "sybil-repro-restart-{}-{test}-{seed}",
            std::process::id()
        ));
        RunSpec::builder()
            .scale(Scale::Tiny)
            .seed(seed)
            .shards(2)
            .store_dir(dir)
            .build()
    }

    #[test]
    fn drill_restarts_byte_identically() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = drill_spec("byte_identically", 11);
        let r = run(ctx, &spec).expect("drill failed");
        assert!(r.matches_oracle, "{r:?}");
        assert_eq!(r.kill_epoch, 1 + 11 % 4);
        // The kill fired past epoch 0, so a checkpoint existed to resume
        // from and the store kept checkpointing through the restart.
        assert!(r.resumed_from.is_some());
        assert!(!r.checkpoints.is_empty());
        assert!(r.journal_bytes > 0);
        assert!(r.journal_path.ends_with("journal.sybj"));
        assert!(r.render().contains("Warm-restart drill"));
        let _ = std::fs::remove_dir_all(spec.store_dir.unwrap());
    }

    #[test]
    fn drill_is_deterministic() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = drill_spec("deterministic", 11);
        let a = serde_json::to_string(&run(ctx, &spec).expect("drill failed")).unwrap();
        let b = serde_json::to_string(&run(ctx, &spec).expect("drill failed")).unwrap();
        assert_eq!(a, b, "restart drill must be byte-reproducible");
        let _ = std::fs::remove_dir_all(spec.store_dir.unwrap());
    }

    /// The error surface stays typed end to end: a store IO failure
    /// renders with its operation spelled out, not as a bare kind.
    #[test]
    fn store_errors_render_their_operation() {
        let e = RestartError::Store(StoreError::Io {
            op: IoOp::Rename,
            kind: std::io::ErrorKind::PermissionDenied,
        });
        assert!(e.to_string().contains("renaming"));
        let e = RestartError::KillNeverFired { kill_epoch: 9 };
        assert!(e.to_string().contains("epoch 9"));
    }
}
