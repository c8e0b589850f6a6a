//! [`SnapshotStore`]: versioned checkpoints on disk; [`JournalPlane`]:
//! the one `FaultPlane` implementation that writes and reads a
//! [`Journal`]; and [`StorePlane`]: a `JournalPlane` over a file plus
//! checkpoints — what makes a `ServeSession` durable.
//!
//! A store directory holds numbered checkpoint files plus the write-ahead
//! epoch journal:
//!
//! ```text
//! store/
//!   checkpoint-00000004.sybs   # session state after 4 completed epochs
//!   checkpoint-00000008.sybs
//!   journal.sybj               # write-ahead epoch journal (SYBJ frames)
//! ```
//!
//! [`SnapshotStore::latest`] walks checkpoints newest-first and skips any
//! that fail to decode (torn by a crash predating atomic-rename, bit rot,
//! a half-migrated version), so recovery degrades to an older checkpoint
//! plus a longer journal tail rather than refusing to start.
//!
//! Both planes ride the serving coordinator's fault-plane hooks.
//! [`JournalPlane`] answers the five journal hooks over any byte store:
//! `epoch_begin`/`epoch_commit` append (write-ahead, then commit after
//! the barrier merge), `replay_epoch`/`committed_digest` read back for
//! replay, `run_end` seals the run. [`StorePlane`] hands those
//! five to a file-backed `JournalPlane` and adds the rest:
//! `wants_checkpoint`/`checkpoint` persist a full
//! [`SessionCheckpoint`] every `checkpoint_every` epochs,
//! and `load_resume` hands back a [`ResumeState`]: the newest readable
//! checkpoint and the epoch the *committed* journal tail after it ends
//! at. The tail itself is not read here — the engine pulls it one epoch
//! at a time through `replay_epoch`, the route crash replay reads by. An
//! epoch with a begin record but no commit was in flight when the
//! process died; it is not replayed — the engine re-runs it live from
//! the stream, which produces the identical bytes (the begin record
//! exists precisely so crash replay inside an epoch stays possible for
//! shard faults).
//!
//! The `kill_at_epoch` knob simulates the process dying at an epoch
//! boundary: the write-ahead record lands, then the hook returns a typed
//! crash error, leaving the on-disk state exactly as a real `SIGKILL`
//! between the journal append and the barrier would. The restart
//! proptests drive this at arbitrary epochs and require byte-identity
//! with the uninterrupted run.
//!
//! A fault injector (`sybil-chaos`'s `ChaosPlane`) wraps either plane
//! and forwards every hook here, so faults compose with persistence.

use crate::error::StoreError;
use crate::format;
use crate::journal::Journal;
use std::fs::File;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use sybil_serve::fault::{
    ChaosError, EpochRecord, EpochRecordRef, FaultKind, FaultPlane, ResumeState, SessionCheckpoint,
};

/// Default checkpoint cadence: persist the full session state every
/// 32nd epoch barrier. A checkpoint is O(entire session state) — encode
/// and write; the shard tables are lent to it, not copied — while an
/// epoch of journal tail replay
/// costs roughly one epoch of live serving, so sparse checkpoints buy a
/// large write-amortization win for a small bounded restart-latency
/// cost (at most `checkpoint_every - 1` epochs of tail to replay).
/// What a persisted run costs at this default is the benchmark's
/// `sybil-store.durability_overhead_pct` on `durable_250k` (open;
/// `scripts/verify.sh` prints it, DESIGN.md §Persistence keeps the
/// dated readings), of which `sybil-store.checkpoint_s` is the
/// checkpoint writes. Lower the cadence (`with_cadence`) when restart
/// latency matters more than throughput — the `repro restart` drill's
/// killed leg runs at cadence 1.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 32;

/// A directory of versioned `SYBS` checkpoints plus the epoch journal.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        format::ensure_dir(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal file's path inside this store.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.sybj")
    }

    /// Persist `cp` atomically as `checkpoint-{epochs:08}.sybs`,
    /// returning the final path. The file is streamed from `cp` through
    /// one small chunk; no copy of the whole file is built.
    pub fn save(&self, cp: &SessionCheckpoint) -> Result<PathBuf, StoreError> {
        let path = self.dir.join(format::checkpoint_name(cp.epochs));
        format::save_checkpoint(&path, cp)?;
        Ok(path)
    }

    /// Epoch counts of every checkpoint file present, ascending.
    pub fn checkpoints(&self) -> Result<Vec<u64>, StoreError> {
        Ok(format::list_checkpoints(&self.dir)?
            .into_iter()
            .map(|(e, _)| e)
            .collect())
    }

    /// Load the checkpoint taken after exactly `epochs` epochs.
    pub fn load(&self, epochs: u64) -> Result<SessionCheckpoint, StoreError> {
        let path = self.dir.join(format::checkpoint_name(epochs));
        format::decode_checkpoint(&format::read_file(&path)?)
    }

    /// The newest checkpoint that decodes cleanly, or `None` when the
    /// store holds no readable checkpoint. Corrupt files are skipped
    /// (recovery falls back to an older checkpoint and replays a longer
    /// journal tail), not fatal.
    pub fn latest(&self) -> Result<Option<SessionCheckpoint>, StoreError> {
        let mut files = format::list_checkpoints(&self.dir)?;
        while let Some((_, path)) = files.pop() {
            let Ok(bytes) = format::read_file(&path) else {
                continue;
            };
            if let Ok(cp) = format::decode_checkpoint(&bytes) {
                return Ok(Some(cp));
            }
        }
        Ok(None)
    }
}

/// Every journal failure surfaces as a typed [`ChaosError`] with
/// `FaultKind::Journal` — the engine's headline invariant forbids a
/// broken journal from producing a silently different answer.
fn journal_err(epoch: u64) -> ChaosError {
    ChaosError {
        epoch,
        shard: None,
        fault_kind: FaultKind::Journal,
    }
}

/// The write-ahead plane: the coordinator's journal hooks over a
/// [`Journal`] on any byte store — a `Cursor<Vec<u8>>` for in-memory
/// chaos runs, a file inside a [`StorePlane`].
///
/// Every epoch commits per-shard state digests, so every replayed epoch
/// — crash rebuild and a warm restart's tail — is checked at the epoch
/// it diverges in. A session's first digest hashes every account; after
/// it a shard re-hashes only the accounts its epoch touched, inside its
/// own busy window, whether or not the epoch is digested, so a sparser
/// cadence would save little.
pub struct JournalPlane<S> {
    journal: Journal<S>,
    /// `Some(epochs)` when the journal already carried a run-end record
    /// when the plane was built — a restart of a finished run must not
    /// append a second.
    finished_at_open: Option<u64>,
}

impl<S: Read + Write + Seek> JournalPlane<S> {
    /// Journal through `journal`.
    pub fn new(journal: Journal<S>) -> Self {
        let finished_at_open = journal.finished().map(|(epochs, _)| epochs);
        JournalPlane {
            journal,
            finished_at_open,
        }
    }

    /// The journal (byte counts, committed digests, post-run reads).
    pub fn journal(&self) -> &Journal<S> {
        &self.journal
    }

    /// Consume the plane, returning the journal.
    pub fn into_journal(self) -> Journal<S> {
        self.journal
    }
}

impl<S: Read + Write + Seek> FaultPlane for JournalPlane<S> {
    fn enabled(&self) -> bool {
        true
    }

    fn epoch_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
        self.journal
            .append_begin(rec)
            .map_err(|_| journal_err(rec.epoch))
    }

    fn wants_digests(&self, _epoch: u64) -> bool {
        true
    }

    fn epoch_commit(&mut self, epoch: u64, digests: Option<&[u64]>) -> Result<(), ChaosError> {
        self.journal
            .append_commit(epoch, digests)
            .map_err(|_| journal_err(epoch))
    }

    fn replay_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
        self.journal
            .read_epoch(epoch)
            .map_err(|_| journal_err(epoch))
    }

    fn committed_digest(&mut self, epoch: u64, shard: usize) -> Option<u64> {
        self.journal.committed_digest(epoch, shard)
    }

    fn run_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), ChaosError> {
        // A warm restart of an already-finished run replays to the same
        // end; the journal already carries this exact record.
        if self.finished_at_open == Some(epochs) {
            return Ok(());
        }
        self.journal
            .append_end(epochs, digests)
            .map_err(|_| journal_err(epochs))
    }
}

/// The durable fault plane: write-ahead journal + periodic checkpoints +
/// warm restart, all through the hooks the coordinator already consults.
pub struct StorePlane {
    store: SnapshotStore,
    wal: JournalPlane<File>,
    checkpoint_every: u64,
    kill_at: Option<u64>,
    resumed_from: Option<u64>,
    tail_replayed: u64,
}

impl StorePlane {
    /// Open a durable plane over `dir` at the default checkpoint cadence.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::with_cadence(dir, DEFAULT_CHECKPOINT_EVERY)
    }

    /// [`open`](Self::open) with a checkpoint every `checkpoint_every`
    /// epochs (0 = never).
    pub fn with_cadence(
        dir: impl Into<PathBuf>,
        checkpoint_every: u64,
    ) -> Result<Self, StoreError> {
        let store = SnapshotStore::open(dir)?;
        let journal = format::open_or_create_journal(&store.journal_path())?;
        Ok(StorePlane {
            store,
            wal: JournalPlane::new(journal),
            checkpoint_every,
            kill_at: None,
            resumed_from: None,
            tail_replayed: 0,
        })
    }

    /// Simulate the process dying at epoch `epoch`: the write-ahead
    /// record is journaled, then the run aborts with a typed crash error
    /// — on-disk state is exactly what a kill between the journal append
    /// and the barrier leaves behind.
    pub fn kill_at_epoch(mut self, epoch: u64) -> Self {
        self.kill_at = Some(epoch);
        self
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The journal (byte counts, committed digests).
    pub fn journal(&self) -> &Journal<File> {
        self.wal.journal()
    }

    /// Epoch count of the checkpoint this run resumed from, when it
    /// warm-restarted.
    pub fn resumed_from(&self) -> Option<u64> {
        self.resumed_from
    }

    /// Committed journal epochs after the checkpoint on resume — the tail
    /// the engine re-runs before going live.
    pub fn tail_replayed(&self) -> u64 {
        self.tail_replayed
    }
}

impl FaultPlane for StorePlane {
    fn enabled(&self) -> bool {
        true
    }

    fn epoch_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
        self.wal.epoch_begin(rec)?;
        if self.kill_at == Some(rec.epoch) {
            return Err(ChaosError {
                epoch: rec.epoch,
                shard: None,
                fault_kind: FaultKind::Crash,
            });
        }
        Ok(())
    }

    fn wants_digests(&self, epoch: u64) -> bool {
        self.wal.wants_digests(epoch)
    }

    fn epoch_commit(&mut self, epoch: u64, digests: Option<&[u64]>) -> Result<(), ChaosError> {
        self.wal.epoch_commit(epoch, digests)
    }

    fn replay_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
        self.wal.replay_epoch(epoch)
    }

    fn committed_digest(&mut self, epoch: u64, shard: usize) -> Option<u64> {
        self.wal.committed_digest(epoch, shard)
    }

    fn run_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), ChaosError> {
        self.wal.run_end(epochs, digests)
    }

    fn wants_checkpoint(&self, epoch: u64) -> bool {
        self.checkpoint_every != 0 && (epoch + 1).is_multiple_of(self.checkpoint_every)
    }

    fn checkpoint(&mut self, cp: &SessionCheckpoint) -> Result<(), ChaosError> {
        self.store
            .save(cp)
            .map(|_| ())
            .map_err(|_| journal_err(cp.epochs))
    }

    fn load_resume(&mut self) -> Result<Option<ResumeState>, ChaosError> {
        let latest = self.store.latest().map_err(|_| journal_err(0))?;
        let Some(checkpoint) = latest else {
            return Ok(None);
        };
        let mut tail_end = checkpoint.epochs;
        while self.journal().committed(tail_end) {
            tail_end += 1;
        }
        self.resumed_from = Some(checkpoint.epochs);
        self.tail_replayed = tail_end - checkpoint.epochs;
        Ok(Some(ResumeState {
            checkpoint,
            tail_end,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::{NodeId, Timestamp};
    use sybil_core::realtime::{Detection, ReplayCounters};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sybil-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_checkpoint(epochs: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            epochs,
            shards: Vec::new(),
            folded_edges: vec![(NodeId(1), NodeId(2))],
            staged_edges: Vec::new(),
            tagged: vec![(
                3,
                Detection {
                    account: NodeId(5),
                    at: Timestamp(120),
                    correct: false,
                },
            )],
            carry_feedback: Vec::new(),
            totals: ReplayCounters {
                events_processed: epochs * 10,
                ..ReplayCounters::default()
            },
        }
    }

    #[test]
    fn save_load_latest_round_trip() {
        let dir = tmpdir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.latest().unwrap(), None);
        store.save(&tiny_checkpoint(2)).unwrap();
        store.save(&tiny_checkpoint(5)).unwrap();
        assert_eq!(store.checkpoints().unwrap(), vec![2, 5]);
        assert_eq!(store.load(2).unwrap(), tiny_checkpoint(2));
        assert_eq!(store.latest().unwrap(), Some(tiny_checkpoint(5)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_skips_corrupt_checkpoints() {
        let dir = tmpdir("corrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&tiny_checkpoint(1)).unwrap();
        let newest = store.save(&tiny_checkpoint(9)).unwrap();
        // Flip a byte in the newest file: recovery must fall back to the
        // older checkpoint instead of failing or trusting bad bytes.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(store.latest().unwrap(), Some(tiny_checkpoint(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_cadences_are_sparse_checkpoints_and_periodic_digests() {
        let dir = tmpdir("cadence");
        let plane = StorePlane::open(&dir).unwrap();
        assert!(!plane.wants_checkpoint(0));
        assert!(plane.wants_checkpoint(DEFAULT_CHECKPOINT_EVERY - 1));
        assert!((0..DEFAULT_CHECKPOINT_EVERY).all(|e| plane.wants_digests(e)));
        drop(plane);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plane_journals_and_checkpoints_through_the_hooks() {
        let dir = tmpdir("plane");
        {
            let mut plane = StorePlane::with_cadence(&dir, 1).unwrap();
            assert!(plane.enabled());
            assert!(
                plane.wants_checkpoint(0),
                "cadence 1 checkpoints every epoch"
            );
            assert!(
                plane.load_resume().unwrap().is_none(),
                "fresh store is cold"
            );
            plane
                .epoch_begin(EpochRecordRef {
                    epoch: 0,
                    events: &[],
                    details: &[],
                    feedback: &[],
                })
                .unwrap();
            plane.epoch_commit(0, None).unwrap();
            plane.checkpoint(&tiny_checkpoint(1)).unwrap();
        }
        // A fresh plane over the same directory resumes from disk alone.
        let mut plane = StorePlane::open(&dir).unwrap();
        let resume = plane.load_resume().unwrap().unwrap();
        assert_eq!(resume.checkpoint, tiny_checkpoint(1));
        assert_eq!(
            resume.tail_end, 1,
            "no committed epochs past the checkpoint"
        );
        assert_eq!(plane.tail_replayed(), 0);
        assert_eq!(plane.resumed_from(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_collects_only_committed_epochs() {
        let dir = tmpdir("tail");
        {
            let mut plane = StorePlane::open(&dir).unwrap();
            let empty = |epoch| EpochRecordRef {
                epoch,
                events: &[],
                details: &[],
                feedback: &[],
            };
            plane.epoch_begin(empty(0)).unwrap();
            plane.epoch_commit(0, None).unwrap();
            plane.checkpoint(&tiny_checkpoint(1)).unwrap();
            plane.epoch_begin(empty(1)).unwrap();
            plane.epoch_commit(1, None).unwrap();
            // Epoch 2 begins but never commits: the in-flight epoch.
            plane.epoch_begin(empty(2)).unwrap();
        }
        let mut plane = StorePlane::open(&dir).unwrap();
        let resume = plane.load_resume().unwrap().unwrap();
        assert_eq!(resume.checkpoint.epochs, 1);
        assert_eq!(resume.tail_end, 2, "only epoch 1 is committed");
        assert_eq!(plane.tail_replayed(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_at_epoch_is_a_typed_crash_after_the_journal_write() {
        let dir = tmpdir("kill");
        let mut plane = StorePlane::open(&dir).unwrap().kill_at_epoch(0);
        let err = plane
            .epoch_begin(EpochRecordRef {
                epoch: 0,
                events: &[],
                details: &[],
                feedback: &[],
            })
            .unwrap_err();
        assert_eq!(
            err,
            ChaosError {
                epoch: 0,
                shard: None,
                fault_kind: FaultKind::Crash
            }
        );
        assert_eq!(
            plane.journal().epochs_journaled(),
            1,
            "write-ahead record landed before the kill"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
