//! The fault plane: every chaos decision point the epoch-barrier
//! coordinator consults, as one trait with no-op defaults.
//!
//! Production serving runs with [`NoFaults`] — every hook is an inlined
//! empty default, the coordinator gates all per-epoch chaos bookkeeping
//! behind [`FaultPlane::enabled`], and the monomorphized `serve()` path
//! is the same code it was before the plane existed. The other
//! implementations live above this crate: `sybil-store`'s `JournalPlane`
//! keeps the write-ahead epoch journal behind
//! [`epoch_begin`](FaultPlane::epoch_begin) /
//! [`epoch_commit`](FaultPlane::epoch_commit) (`StorePlane` adds
//! checkpoints and warm restart to it), and `sybil-chaos`'s
//! `ChaosPlane<P>` wraps either durable plane and answers the fault
//! hooks from a seeded `FaultSchedule`.
//!
//! The hooks sit at the coordinator's *existing* decision points, in
//! epoch order:
//!
//! 1. [`epoch_begin`](FaultPlane::epoch_begin) — before any shard runs,
//!    with the epoch's full input (events, details, carried feedback):
//!    the write-ahead journal point.
//! 2. [`queue_clamp`](FaultPlane::queue_clamp) — per shard, a capacity
//!    override for the staging [`DeltaQueue`](crate::queue::DeltaQueue)s
//!    (overflow injection).
//! 3. [`shard_fault`](FaultPlane::shard_fault) — per shard, whether this
//!    epoch's result arrives late ([`ShardFault::Stall`], absorbed by the
//!    barrier) or not at all ([`ShardFault::Crash`], triggering journal
//!    replay).
//! 4. [`deliver_order`](FaultPlane::deliver_order) — a permutation of
//!    barrier arrival order (the merge is keyed by shard id, so any
//!    permutation must be output-neutral).
//! 5. [`epoch_commit`](FaultPlane::epoch_commit) — after the merge, with
//!    per-shard state digests when requested: the journal's commit point.
//!
//! Journal replay — crash recovery, and the committed tail after a warm
//! restart ([`load_resume`](FaultPlane::load_resume)) — reads journaled
//! epochs back one at a time through
//! [`replay_epoch`](FaultPlane::replay_epoch) and verifies each replayed
//! epoch against [`committed_digest`](FaultPlane::committed_digest); any
//! mismatch is a typed [`ChaosError`], never silent divergence.
//!
//! Workspace lint rule S118 pins the production side of this contract:
//! no IO effect may be reachable from the no-op hook implementations
//! below — journal writes are legal only behind the chaos plane's
//! barrier hooks.

use osn_graph::{NodeId, Timestamp};
use osn_sim::stream::{EventDetail, StreamEvent};
use sybil_core::realtime::state::AccountState;
use sybil_core::realtime::{Detection, ReplayCounters};
use sybil_features::FeatureVector;

pub use crate::shard::TaggedFeedback as FeedbackRecord;

/// What kind of fault (or recovery failure) an error is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A shard's epoch result was delayed; absorbed at the barrier.
    Stall,
    /// A staging-queue capacity clamp forced an overflow.
    QueueOverflow,
    /// An epoch barrier fired late (logical delay, absorbed).
    BarrierDelay,
    /// Shard results arrived at the barrier out of order.
    BarrierReorder,
    /// A shard lost its in-memory state mid-epoch.
    Crash,
    /// Journal replay reconstructed state whose digest disagrees with
    /// the digest committed at the original barrier.
    ReplayDivergence,
    /// The journal itself failed (unwritable, unreadable, or missing the
    /// record recovery needed).
    Journal,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::Stall => "stall",
            FaultKind::QueueOverflow => "queue-overflow",
            FaultKind::BarrierDelay => "barrier-delay",
            FaultKind::BarrierReorder => "barrier-reorder",
            FaultKind::Crash => "crash",
            FaultKind::ReplayDivergence => "replay-divergence",
            FaultKind::Journal => "journal",
        };
        f.write_str(s)
    }
}

/// A typed, attributable chaos failure: which epoch, which shard (when
/// the fault is shard-scoped), and what kind. The engine's headline
/// chaos invariant is that every fault schedule yields either output
/// byte-identical to the fault-free run or exactly this error — never
/// silent divergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosError {
    /// Epoch (0-based barrier count) the fault surfaced in.
    pub epoch: u64,
    /// Affected shard; `None` for coordinator-level faults (barrier and
    /// journal failures).
    pub shard: Option<usize>,
    /// What the failure is attributed to.
    pub fault_kind: FaultKind,
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.shard {
            Some(s) => write!(
                f,
                "chaos fault at epoch {}, shard {}: {}",
                self.epoch, s, self.fault_kind
            ),
            None => write!(f, "chaos fault at epoch {}: {}", self.epoch, self.fault_kind),
        }
    }
}

impl std::error::Error for ChaosError {}

/// Per-shard fault decision for one epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFault {
    /// No fault: the shard's result merges normally.
    Healthy,
    /// The result arrives this many logical epochs late. The barrier
    /// waits (the merge is all-or-nothing), so a stall is absorbed —
    /// it costs recovery latency, never output bytes.
    Stall(u32),
    /// The shard's in-memory state is lost mid-epoch; the coordinator
    /// rebuilds it by replaying the write-ahead journal.
    Crash,
}

/// Borrowed view of one epoch's full input, handed to the write-ahead
/// hook before any shard runs. Everything a crashed shard needs to
/// re-run the epoch is here: the event slice, its parallel detail
/// slice, and the barrier-merged feedback carried in from earlier
/// epochs.
#[derive(Clone, Copy)]
pub struct EpochRecordRef<'a> {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// The epoch's event slice, in global stream order.
    pub events: &'a [StreamEvent],
    /// Parallel per-event details (endpoints, outcomes).
    pub details: &'a [EventDetail],
    /// Feedback merged at the previous barrier, in `(seq, intra)` order.
    pub feedback: &'a [FeedbackRecord],
}

/// Owned epoch input decoded back out of the journal for replay.
#[derive(Clone, Default)]
pub struct EpochRecord {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// The epoch's events.
    pub events: Vec<StreamEvent>,
    /// Parallel per-event details.
    pub details: Vec<EventDetail>,
    /// Feedback delivered at this epoch's start.
    pub feedback: Vec<FeedbackRecord>,
}

/// Byte-exact snapshot of one shard's full logical state at an epoch
/// barrier — everything [`digest`](crate::engine)-relevant: owned account
/// states, the replicated adaptive thresholds (as raw IEEE-754 bit
/// words, so persistence round-trips exactly), the pending feedback
/// replica, and the audit bookkeeping. Derived fields (ownership masks,
/// kernel scratch) are rebuilt on restore, not persisted.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSnapshot {
    /// Owned accounts' states as exchange records, in local-slot order
    /// (materialised from, and restored into, the shard's flat table).
    pub states: Vec<AccountState>,
    /// `AdaptiveThresholds::to_raw` words (six trackers + `use_cc`).
    pub adaptive: [u64; 31],
    /// Pending feedback replica: `(due, features, truth)` in global order.
    pub feedback_queue: Vec<(Timestamp, FeatureVector, bool)>,
    /// Sends until the next audit sample.
    pub sends_until_audit: u64,
    /// Deterministic audit pointer.
    pub audit_cursor: u64,
}

/// Everything a warm restart needs to resume the coordinator loop from
/// an epoch barrier: per-shard state, the edge mirror (folded and staged
/// halves separately, so rotation timing resumes exactly), the merged
/// detections so far, the feedback awaiting redistribution, and the
/// logical totals. Taken at the *end* of an epoch, so `epochs` is the
/// number of completed epochs and the next live epoch is `epochs`.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCheckpoint {
    /// Completed epochs at checkpoint time.
    pub epochs: u64,
    /// One snapshot per shard, in shard-id order.
    pub shards: Vec<ShardSnapshot>,
    /// Edges folded into the mirror's CSR snapshot, ordered by
    /// `(time, low id, high id)` so one merge re-fold restores it.
    pub folded_edges: Vec<(NodeId, NodeId, Timestamp)>,
    /// Edges still staged in the mirror's delta, in stream order.
    pub staged_edges: Vec<(NodeId, NodeId, Timestamp)>,
    /// Merged detections so far as `(seq, detection)`, in global order.
    pub tagged: Vec<(u64, Detection)>,
    /// Feedback staged at the last barrier, awaiting redistribution.
    pub carry_feedback: Vec<FeedbackRecord>,
    /// Logical totals folded so far.
    pub totals: ReplayCounters,
}

/// What [`FaultPlane::load_resume`] hands the coordinator on a warm
/// restart: the latest checkpoint, and where the committed journal tail
/// after it ends. The tail itself stays in the journal: the coordinator
/// pulls epochs `checkpoint.epochs..tail_end` one at a time through
/// [`FaultPlane::replay_epoch`] — the hook crash replay reads by — so at
/// most one journaled epoch is in memory, and goes live at `tail_end`.
pub struct ResumeState {
    /// The checkpoint to restore.
    pub checkpoint: SessionCheckpoint,
    /// First epoch past the committed tail (`checkpoint.epochs` when no
    /// epoch committed after the checkpoint).
    pub tail_end: u64,
}

/// The coordinator's chaos decision points. Every method has a no-op
/// default, so the production implementation is [`NoFaults`] — an empty
/// `impl` block — and a conforming chaos plane overrides exactly the
/// hooks it needs.
pub trait FaultPlane {
    /// Whether any hook may ever answer non-trivially. The coordinator
    /// skips all chaos bookkeeping (write-ahead records, clamp vectors,
    /// digests) when this is `false`, keeping the production path
    /// zero-cost.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Write-ahead hook: the epoch's full input, before any shard runs.
    fn epoch_begin(&mut self, _rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
        Ok(())
    }

    /// Staging-queue capacity override for `(epoch, shard)`; `None`
    /// leaves the engine's invariant-derived capacity in place.
    #[inline]
    fn queue_clamp(&self, _epoch: u64, _shard: usize) -> Option<usize> {
        None
    }

    /// The fault injected into `(epoch, shard)`, if any.
    #[inline]
    fn shard_fault(&self, _epoch: u64, _shard: usize) -> ShardFault {
        ShardFault::Healthy
    }

    /// A permutation of `0..shards` giving the order shard results reach
    /// the barrier this epoch; `None` keeps natural (shard-id) order.
    fn deliver_order(&self, _epoch: u64, _shards: usize) -> Option<Vec<usize>> {
        None
    }

    /// Whether [`epoch_commit`](Self::epoch_commit) wants per-shard
    /// state digests this epoch (digesting is O(state), so the plane
    /// opts in per epoch).
    #[inline]
    fn wants_digests(&self, _epoch: u64) -> bool {
        false
    }

    /// Barrier-commit hook, after the epoch's merge. `digests[s]` is
    /// shard `s`'s post-epoch state digest when requested.
    fn epoch_commit(&mut self, _epoch: u64, _digests: Option<&[u64]>) -> Result<(), ChaosError> {
        Ok(())
    }

    /// Read one journaled epoch back for replay (crash recovery, and the
    /// tail after a warm restart). `Ok(None)` means the journal has no
    /// record for `epoch` (past its end).
    fn replay_epoch(&mut self, _epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
        Ok(None)
    }

    /// The state digest committed for `(epoch, shard)`, when one was
    /// journaled — replay verification compares against it.
    fn committed_digest(&mut self, _epoch: u64, _shard: usize) -> Option<u64> {
        None
    }

    /// End-of-run hook with the final per-shard state digests.
    fn run_end(&mut self, _epochs: u64, _digests: &[u64]) -> Result<(), ChaosError> {
        Ok(())
    }

    /// Whether [`checkpoint`](Self::checkpoint) wants the full session
    /// state after epoch `epoch`'s barrier (snapshotting is O(state), so
    /// the plane opts in per epoch).
    #[inline]
    fn wants_checkpoint(&self, _epoch: u64) -> bool {
        false
    }

    /// Persist a full session checkpoint (taken at an epoch barrier,
    /// after the merge and mirror fold). Only called when
    /// [`wants_checkpoint`](Self::wants_checkpoint) answered `true`.
    fn checkpoint(&mut self, _cp: &SessionCheckpoint) -> Result<(), ChaosError> {
        Ok(())
    }

    /// Warm-restart hook, consulted once before the coordinator loop
    /// starts: `Some` restores the checkpoint, re-runs the journal tail
    /// (pulled through [`replay_epoch`](Self::replay_epoch)), and resumes
    /// mid-stream; `None` (the default) starts cold.
    fn load_resume(&mut self) -> Result<Option<ResumeState>, ChaosError> {
        Ok(None)
    }
}

/// The production fault plane: no faults, no journal, nothing. Lint rule
/// S118 enforces that no IO is reachable from these (default) hook
/// bodies.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultPlane for NoFaults {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_answers_every_hook_trivially() {
        let mut p = NoFaults;
        assert!(!p.enabled());
        assert_eq!(p.queue_clamp(0, 0), None);
        assert_eq!(p.shard_fault(3, 1), ShardFault::Healthy);
        assert_eq!(p.deliver_order(0, 8), None);
        assert!(!p.wants_digests(0));
        assert_eq!(p.epoch_commit(0, None), Ok(()));
        assert!(p.replay_epoch(0).unwrap().is_none());
        assert_eq!(p.committed_digest(0, 0), None);
        assert_eq!(p.run_end(0, &[]), Ok(()));
        assert!(!p.wants_checkpoint(0));
        let cp = SessionCheckpoint {
            epochs: 0,
            shards: Vec::new(),
            folded_edges: Vec::new(),
            staged_edges: Vec::new(),
            tagged: Vec::new(),
            carry_feedback: Vec::new(),
            totals: ReplayCounters::default(),
        };
        assert_eq!(p.checkpoint(&cp), Ok(()));
        assert!(p.load_resume().unwrap().is_none());
    }

    #[test]
    fn chaos_error_displays_attribution() {
        let e = ChaosError {
            epoch: 4,
            shard: Some(2),
            fault_kind: FaultKind::Crash,
        };
        assert_eq!(e.to_string(), "chaos fault at epoch 4, shard 2: crash");
        let e = ChaosError {
            epoch: 1,
            shard: None,
            fault_kind: FaultKind::Journal,
        };
        assert_eq!(e.to_string(), "chaos fault at epoch 1: journal");
    }
}
