//! [`ChaosPlane`]: the fault-injecting implementation of
//! `sybil-serve`'s [`FaultPlane`] trait, layered over a durable plane.
//!
//! The plane is where the declarative [`FaultSchedule`] meets the
//! coordinator's hook points: schedule entries are indexed by
//! `(epoch, shard)` at construction and the schedule hooks
//! (`queue_clamp`, `shard_fault`, `deliver_order`) answer from that
//! index in O(log n). It owns no journal. Every durability hook —
//! write-ahead append, commit, replay reads, run end, checkpoint, resume
//! — is forwarded to the plane it wraps: `sybil-store`'s `JournalPlane`
//! over memory for a plain chaos run, its `StorePlane` for faults
//! injected into a persisted, killable, restartable session. Production
//! code runs unmodified either way; faults enter at the same boundaries
//! as the real side effects.
//!
//! The plane also keeps the ledger the recovery report is built from:
//! how many faults of each kind were injected (tallied at `epoch_begin`,
//! so faults in an epoch that later errors are still counted), how many
//! journaled epochs were read back for replay, and the total absorbed
//! latency in logical epochs.

use crate::schedule::{FaultSchedule, FaultSpecKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use sybil_serve::fault::{
    ChaosError, EpochRecord, EpochRecordRef, FaultPlane, ResumeState, SessionCheckpoint,
    ShardFault,
};

/// How many faults of each kind a run injected. Serialized into the
/// recovery report and exported as `chaos.injected.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTally {
    /// Shard-result stalls.
    pub stalls: u64,
    /// Staging-queue capacity clamps.
    pub queue_clamps: u64,
    /// Delayed epoch barriers.
    pub barrier_delays: u64,
    /// Reordered barrier arrivals.
    pub barrier_reorders: u64,
    /// Shard crashes.
    pub crashes: u64,
}

impl FaultTally {
    /// Total faults across all kinds.
    pub fn total(&self) -> u64 {
        self.stalls + self.queue_clamps + self.barrier_delays + self.barrier_reorders + self.crashes
    }
}

/// The chaos implementation of [`FaultPlane`], generic over the durable
/// plane `P` it injects faults in front of.
pub struct ChaosPlane<P> {
    schedule: FaultSchedule,
    /// `(epoch, shard) → stall epochs`.
    stalls: BTreeMap<(u64, usize), u32>,
    /// `(epoch, shard) → clamped queue capacity`.
    clamps: BTreeMap<(u64, usize), usize>,
    /// Crashed `(epoch, shard)` pairs.
    crashes: BTreeSet<(u64, usize)>,
    /// `epoch → barrier delay in epochs`.
    delays: BTreeMap<u64, u32>,
    /// Epochs with shuffled barrier arrival.
    reorders: BTreeSet<u64>,
    /// The plane every durability hook is forwarded to.
    inner: P,
    injected: FaultTally,
    /// Journaled epochs read back for replay: crash recovery's (one pass
    /// per faulted epoch, however many shards it lost) and a warm
    /// restart's committed tail.
    epochs_replayed: u64,
    /// Digest verifications performed during replay.
    replay_digest_checks: u64,
    /// Absorbed latency: stall + barrier-delay epochs (crash replay adds
    /// `epochs_replayed` on top; see [`ChaosPlane::recovery_latency_epochs`]).
    absorbed_latency_epochs: u64,
}

impl<P: FaultPlane> ChaosPlane<P> {
    /// Inject `schedule` in front of `inner`.
    pub fn new(schedule: FaultSchedule, inner: P) -> Self {
        let mut p = ChaosPlane {
            schedule,
            stalls: BTreeMap::new(),
            clamps: BTreeMap::new(),
            crashes: BTreeSet::new(),
            delays: BTreeMap::new(),
            reorders: BTreeSet::new(),
            inner,
            injected: FaultTally::default(),
            epochs_replayed: 0,
            replay_digest_checks: 0,
            absorbed_latency_epochs: 0,
        };
        for f in &p.schedule.faults {
            match f.kind {
                FaultSpecKind::Stall { epochs } => {
                    p.stalls.insert((f.epoch, f.shard), epochs);
                }
                FaultSpecKind::QueueClamp { capacity } => {
                    p.clamps.insert((f.epoch, f.shard), capacity);
                }
                FaultSpecKind::Crash => {
                    p.crashes.insert((f.epoch, f.shard));
                }
                FaultSpecKind::DelayBarrier { epochs } => {
                    p.delays.insert(f.epoch, epochs);
                }
                FaultSpecKind::ReorderBarrier => {
                    p.reorders.insert(f.epoch);
                }
            }
        }
        p
    }

    /// The schedule this plane runs.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// The wrapped durable plane (journal byte counts, resume facts).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consume the plane, returning the wrapped one.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Faults injected so far.
    pub fn injected(&self) -> FaultTally {
        self.injected
    }

    /// Epochs re-run out of the journal (crash recovery and restart tail).
    pub fn epochs_replayed(&self) -> u64 {
        self.epochs_replayed
    }

    /// Digest verifications performed during replay.
    pub fn replay_digest_checks(&self) -> u64 {
        self.replay_digest_checks
    }

    /// Total recovery latency in logical epochs: absorbed stall and
    /// barrier-delay epochs, plus one epoch per journal replay.
    pub fn recovery_latency_epochs(&self) -> u64 {
        self.absorbed_latency_epochs + self.epochs_replayed
    }

    /// Whether `(epoch, shard)` has a scheduled queue clamp — used by
    /// the runner to attribute a surfaced overflow to its injected
    /// fault.
    pub fn clamp_scheduled(&self, epoch: u64, shard: usize) -> bool {
        self.clamps.contains_key(&(epoch, shard))
    }
}

impl<P: FaultPlane> FaultPlane for ChaosPlane<P> {
    fn enabled(&self) -> bool {
        true
    }

    fn epoch_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
        // Tally this epoch's scheduled faults up front, so an epoch that
        // errors mid-flight still reports what was injected into it.
        for f in &self.schedule.faults {
            if f.epoch != rec.epoch {
                continue;
            }
            match f.kind {
                FaultSpecKind::Stall { epochs } => {
                    self.injected.stalls += 1;
                    self.absorbed_latency_epochs += u64::from(epochs);
                }
                FaultSpecKind::QueueClamp { .. } => self.injected.queue_clamps += 1,
                FaultSpecKind::DelayBarrier { epochs } => {
                    self.injected.barrier_delays += 1;
                    self.absorbed_latency_epochs += u64::from(epochs);
                }
                FaultSpecKind::ReorderBarrier => self.injected.barrier_reorders += 1,
                FaultSpecKind::Crash => self.injected.crashes += 1,
            }
        }
        self.inner.epoch_begin(rec)
    }

    fn queue_clamp(&self, epoch: u64, shard: usize) -> Option<usize> {
        self.clamps.get(&(epoch, shard)).copied()
    }

    fn shard_fault(&self, epoch: u64, shard: usize) -> ShardFault {
        if self.crashes.contains(&(epoch, shard)) {
            ShardFault::Crash
        } else if let Some(&n) = self.stalls.get(&(epoch, shard)) {
            ShardFault::Stall(n)
        } else {
            ShardFault::Healthy
        }
    }

    fn deliver_order(&self, epoch: u64, shards: usize) -> Option<Vec<usize>> {
        self.reorders
            .contains(&epoch)
            .then(|| self.schedule.reorder_permutation(epoch, shards))
    }

    fn wants_digests(&self, epoch: u64) -> bool {
        self.inner.wants_digests(epoch)
    }

    fn epoch_commit(&mut self, epoch: u64, digests: Option<&[u64]>) -> Result<(), ChaosError> {
        self.inner.epoch_commit(epoch, digests)
    }

    fn replay_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
        let rec = self.inner.replay_epoch(epoch)?;
        if rec.is_some() {
            self.epochs_replayed += 1;
        }
        Ok(rec)
    }

    fn committed_digest(&mut self, epoch: u64, shard: usize) -> Option<u64> {
        let d = self.inner.committed_digest(epoch, shard);
        if d.is_some() {
            self.replay_digest_checks += 1;
        }
        d
    }

    fn run_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), ChaosError> {
        self.inner.run_end(epochs, digests)
    }

    fn wants_checkpoint(&self, epoch: u64) -> bool {
        self.inner.wants_checkpoint(epoch)
    }

    fn checkpoint(&mut self, cp: &SessionCheckpoint) -> Result<(), ChaosError> {
        self.inner.checkpoint(cp)
    }

    fn load_resume(&mut self) -> Result<Option<ResumeState>, ChaosError> {
        self.inner.load_resume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultSpec;
    use sybil_serve::fault::NoFaults;

    fn plane(faults: Vec<FaultSpec>) -> ChaosPlane<NoFaults> {
        let mut schedule = FaultSchedule { seed: 1, faults };
        schedule.normalize();
        ChaosPlane::new(schedule, NoFaults)
    }

    #[test]
    fn schedule_entries_answer_the_matching_hooks() {
        let p = plane(vec![
            FaultSpec {
                epoch: 2,
                shard: 1,
                kind: FaultSpecKind::Crash,
            },
            FaultSpec {
                epoch: 3,
                shard: 0,
                kind: FaultSpecKind::Stall { epochs: 2 },
            },
            FaultSpec {
                epoch: 4,
                shard: 2,
                kind: FaultSpecKind::QueueClamp { capacity: 1 },
            },
            FaultSpec {
                epoch: 5,
                shard: 0,
                kind: FaultSpecKind::ReorderBarrier,
            },
        ]);
        assert!(p.enabled());
        assert_eq!(p.shard_fault(2, 1), ShardFault::Crash);
        assert_eq!(p.shard_fault(2, 0), ShardFault::Healthy);
        assert_eq!(p.shard_fault(3, 0), ShardFault::Stall(2));
        assert_eq!(p.queue_clamp(4, 2), Some(1));
        assert_eq!(p.queue_clamp(4, 1), None);
        assert!(p.clamp_scheduled(4, 2));
        assert!(!p.clamp_scheduled(4, 0));
        let ord = p.deliver_order(5, 4).unwrap();
        let mut sorted = ord.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(p.deliver_order(4, 4), None);
    }

    #[test]
    fn tallies_count_at_epoch_begin() {
        let mut p = plane(vec![
            FaultSpec {
                epoch: 0,
                shard: 0,
                kind: FaultSpecKind::Stall { epochs: 3 },
            },
            FaultSpec {
                epoch: 0,
                shard: 1,
                kind: FaultSpecKind::Crash,
            },
            FaultSpec {
                epoch: 9,
                shard: 0,
                kind: FaultSpecKind::Crash,
            },
        ]);
        p.epoch_begin(EpochRecordRef {
            epoch: 0,
            events: &[],
            details: &[],
            feedback: &[],
        })
        .unwrap();
        let t = p.injected();
        assert_eq!((t.stalls, t.crashes, t.total()), (1, 1, 2));
        assert_eq!(p.recovery_latency_epochs(), 3, "stall epochs absorbed");
    }
}
