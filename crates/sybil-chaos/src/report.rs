//! The deterministic recovery report a chaos run emits.
//!
//! Everything in a [`RecoveryReport`] is a pure function of
//! `(simulation, serve config, fault schedule)` — counts of faults
//! injected, epochs replayed (*logical* recovery work, never wall time),
//! journal bytes, and the run's outcome. Two runs
//! of `repro chaos --seed N` therefore serialize to identical JSON,
//! which is what lets verify.sh diff a recovery report in CI.

use crate::plane::FaultTally;
use serde::{Deserialize, Serialize};
use sybil_serve::fault::ChaosError;

/// How a chaos run ended.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosOutcome {
    /// The run completed and its report was byte-identical to the
    /// fault-free run's — every injected fault was absorbed or
    /// recovered.
    Identical,
    /// The run surfaced a typed, attributed fault.
    Fault {
        /// Epoch the fault surfaced in.
        epoch: u64,
        /// Affected shard, when shard-scoped.
        shard: Option<u64>,
        /// The fault kind's stable name (`FaultKind`'s display form).
        kind: String,
    },
    /// The run completed but its bytes differ from the fault-free
    /// run's. This outcome existing in the enum is what the headline
    /// invariant forbids ever constructing — the proptest asserts it.
    Diverged,
}

impl ChaosOutcome {
    /// Build the fault outcome from an engine error.
    pub fn from_error(e: ChaosError) -> Self {
        ChaosOutcome::Fault {
            epoch: e.epoch,
            shard: e.shard.map(|s| s as u64),
            kind: e.fault_kind.to_string(),
        }
    }

    /// Whether the invariant held: identical bytes or a typed fault.
    pub fn invariant_holds(&self) -> bool {
        !matches!(self, ChaosOutcome::Diverged)
    }
}

/// The deterministic summary of one chaos run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Schedule seed.
    pub seed: u64,
    /// Shard count the run used.
    pub shards: u64,
    /// Epochs the run processed (journaled begin records).
    pub epochs: u64,
    /// Faults in the schedule (some may target epochs past the end of
    /// the stream and never fire).
    pub faults_scheduled: u64,
    /// Faults actually injected, by kind.
    pub injected: FaultTally,
    /// Epochs re-run out of the write-ahead journal — epochs, not
    /// shard-epochs: the shards lost in one epoch are rebuilt by one
    /// shared pass. Crash recovery's, plus, when the schedule runs over a
    /// warm-restarted store, the committed tail the restart re-ran.
    pub epochs_replayed: u64,
    /// Replayed states verified against committed digests.
    pub replay_digest_checks: u64,
    /// Write-ahead journal size in bytes (header included).
    pub journal_bytes: u64,
    /// How the run ended.
    pub outcome: ChaosOutcome,
}

impl RecoveryReport {
    /// Export the report's counters into a metrics registry under
    /// `chaos.*` keys.
    pub fn export(&self, reg: &mut sybil_obs::Registry) {
        let pairs: [(&str, u64); 8] = [
            ("chaos.epochs", self.epochs),
            ("chaos.faults_scheduled", self.faults_scheduled),
            ("chaos.injected.queue_clamps", self.injected.queue_clamps),
            (
                "chaos.injected.barrier_reorders",
                self.injected.barrier_reorders,
            ),
            ("chaos.injected.crashes", self.injected.crashes),
            ("chaos.epochs_replayed", self.epochs_replayed),
            ("chaos.replay_digest_checks", self.replay_digest_checks),
            ("chaos.journal_bytes", self.journal_bytes),
        ];
        for (name, v) in pairs {
            let id = reg.counter(name);
            reg.add(id, v);
        }
        let id = reg.counter("chaos.recovered_identical");
        reg.add(id, u64::from(self.outcome == ChaosOutcome::Identical));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_serve::fault::FaultKind;

    #[test]
    fn outcome_from_error_keeps_attribution() {
        let o = ChaosOutcome::from_error(ChaosError {
            epoch: 6,
            shard: Some(3),
            fault_kind: FaultKind::QueueOverflow,
        });
        assert_eq!(
            o,
            ChaosOutcome::Fault {
                epoch: 6,
                shard: Some(3),
                kind: "queue-overflow".into(),
            }
        );
        assert!(o.invariant_holds());
        assert!(!ChaosOutcome::Diverged.invariant_holds());
    }

    #[test]
    fn report_serializes_and_exports() {
        let rep = RecoveryReport {
            seed: 9,
            shards: 4,
            epochs: 12,
            faults_scheduled: 3,
            injected: FaultTally {
                crashes: 1,
                queue_clamps: 2,
                ..FaultTally::default()
            },
            epochs_replayed: 5,
            replay_digest_checks: 4,
            journal_bytes: 4096,
            outcome: ChaosOutcome::Identical,
        };
        let json = serde_json::to_string(&rep).unwrap();
        let back: RecoveryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(rep, back);

        let mut reg = sybil_obs::Registry::new();
        rep.export(&mut reg);
        let snap = reg.snapshot();
        let as_u64 = |k: &str| match snap.logical.get(k) {
            Some(sybil_obs::MetricValue::Count(v)) => *v,
            other => panic!("missing counter {k}: {other:?}"),
        };
        assert_eq!(as_u64("chaos.epochs_replayed"), 5);
        assert_eq!(as_u64("chaos.injected.crashes"), 1);
        assert_eq!(as_u64("chaos.recovered_identical"), 1);
    }
}
