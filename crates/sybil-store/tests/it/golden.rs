//! Format-drift guard: the `SYBS` v3 encoding of a fixed checkpoint and
//! the `SYBJ` v2 encoding of a fixed journal are pinned against
//! committed golden bytes, the `SYBS` v1 and v2 goldens are pinned as
//! still read (and resumed from), a real v2 store as still restarting,
//! and the `SYBJ` v1 golden as refused by its version. The digest values
//! the journal carries are pinned as literals beside them.
//!
//! If a test here fails, the on-disk format changed. That is only legal
//! together with a `VERSION` bump and a new golden file for
//! the new version (keep the old one — old files must keep decoding or
//! keep being *rejected by version*, never misread). Regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p sybil-store --test it golden::
//! ```

use osn_graph::{NodeId, Timestamp};
use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
use osn_sim::SimOutput;
use std::collections::BTreeSet;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use sybil_core::realtime::state::{AccountState, AccountTable};
use sybil_core::realtime::{Detection, ReplayCounters};
use sybil_features::FeatureVector;
use sybil_serve::fault::FaultPlane;
use sybil_serve::fault::{EpochRecord, EpochRecordRef, FeedbackRecord};
use sybil_serve::{ServeConfig, ServeSession, SessionCheckpoint, ShardSnapshot};
use sybil_store::format;
use sybil_store::journal::{self, Journal};
use sybil_store::{JournalPlane, StoreError, StorePlane};

use crate::support::{shared_sim, tmpdir};

/// A fixed checkpoint exercising every section and field kind, its
/// staged list repeating a pair (`SYBS` v2 and v3 content; the v2 golden
/// was written with times on its edges, which decoding drops). Frozen:
/// changing it invalidates the golden files.
fn golden_checkpoint() -> SessionCheckpoint {
    let mut cp = golden_checkpoint_v1();
    cp.staged_edges.push((NodeId(4), NodeId(3)));
    cp
}

/// The checkpoint the `SYBS` v1 golden was encoded from, its edge times
/// dropped: the same, with the repeat-free staged list a v1 file could
/// hold. Frozen with it.
fn golden_checkpoint_v1() -> SessionCheckpoint {
    let mut recent = std::collections::VecDeque::new();
    recent.push_back(3600);
    recent.push_back(4000);
    let state = AccountState {
        sent: 9,
        accepted: 4,
        rejected: 2,
        recent_sends: recent,
        peak_1h: 5,
        friends: vec![NodeId(2), NodeId(7)],
        friends_dup: false,
        detected: true,
    };
    let fv = FeatureVector {
        inv_freq_1h: 5.0,
        inv_freq_400h: 9.0,
        outgoing_accept_ratio: 2.0 / 3.0,
        incoming_accept_ratio: 1.0,
        clustering_coefficient: -0.0,
    };
    let mut adaptive = [0u64; 31];
    for (i, w) in adaptive.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9e37_79b9) ^ 0xabcd;
    }
    let shard = ShardSnapshot {
        table: AccountTable::from_accounts(&[state, AccountState::default()]).unwrap(),
        adaptive,
        feedback_queue: vec![(Timestamp(9000), fv, true)],
        sends_until_audit: 3,
        audit_cursor: 17,
    };
    SessionCheckpoint {
        epochs: 4,
        shards: vec![shard.clone(), shard],
        folded_edges: vec![(NodeId(1), NodeId(2))],
        staged_edges: vec![(NodeId(3), NodeId(4))],
        tagged: vec![(
            11,
            Detection {
                account: NodeId(7),
                at: Timestamp(4000),
                correct: true,
            },
        )],
        carry_feedback: vec![FeedbackRecord {
            seq: 11,
            intra: 0,
            due: Timestamp(47200),
            features: fv,
            truth: true,
        }],
        totals: ReplayCounters {
            events_processed: 100,
            checks_run: 20,
            detections: 1,
            features_computed: 20,
            feedback_applied: 1,
            audits_sampled: 2,
        },
    }
}

/// Golden file `name`'s path.
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The committed bytes of golden file `name`, rewritten from `bytes`
/// first under `BLESS=1`.
fn committed_golden(name: &str, bytes: &[u8]) -> Vec<u8> {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `BLESS=1 cargo test -p sybil-store --test it golden::`",
            path.display()
        )
    })
}

#[test]
fn encoding_matches_committed_golden_bytes() {
    let bytes = format::encode_checkpoint(&golden_checkpoint());
    let committed = committed_golden("checkpoint_v3.sybs", &bytes);
    assert_eq!(
        bytes, committed,
        "SYBS v3 encoding drifted from the committed golden bytes — \
         a format change requires a VERSION bump and a new golden file"
    );
    // And the committed bytes still decode to the exact checkpoint.
    assert_eq!(
        format::decode_checkpoint(&committed).unwrap(),
        golden_checkpoint()
    );
}

#[test]
fn header_prefix_is_pinned() {
    let bytes = format::encode_checkpoint(&golden_checkpoint());
    assert_eq!(&bytes[..4], b"SYBS");
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 3);
    assert_eq!(format::VERSION, 3);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        7,
        "7 sections"
    );
}

/// Resume a fresh store holding only `bytes` as its epoch-4 checkpoint,
/// and return the checkpoint the plane hands the engine.
fn resume_from(tag: &str, bytes: &[u8]) -> SessionCheckpoint {
    let dir = tmpdir(module_path!(), tag);
    std::fs::write(dir.join("checkpoint-00000004.sybs"), bytes).unwrap();
    let mut plane = StorePlane::open(&dir).unwrap();
    let resume = plane
        .load_resume()
        .unwrap()
        .expect("the checkpoint resumes");
    assert_eq!(plane.resumed_from(), Some(4));
    drop(plane);
    std::fs::remove_dir_all(&dir).unwrap();
    resume.checkpoint
}

/// A v1 checkpoint is still read: its repeat-free staged list is valid
/// later content, and its edge times are dropped. The committed v1 golden
/// decodes to the checkpoint it was written from, re-encodes as v3 with
/// 8 bytes fewer per edge, and a store holding it resumes from it.
#[test]
fn v1_checkpoint_decodes_and_restores() {
    let v1 = std::fs::read(golden_path("checkpoint_v1.sybs")).expect("the v1 golden is kept");
    assert_eq!(u32::from_le_bytes(v1[4..8].try_into().unwrap()), 1);
    let cp = format::decode_checkpoint(&v1).expect("v1 decodes");
    assert_eq!(cp, golden_checkpoint_v1());
    let v3 = format::encode_checkpoint(&cp);
    assert_eq!(
        v3.len(),
        v1.len() - 8 * 2,
        "two edges, 8 bytes of time each"
    );
    assert_eq!(format::decode_checkpoint(&v3).unwrap(), cp);
    assert_eq!(resume_from("v1", &v1), golden_checkpoint_v1());
}

/// A v2 checkpoint is still read, its edge times dropped: the committed
/// v2 golden decodes to the v3 golden's checkpoint, re-encodes to the v3
/// golden's bytes, and a store holding it resumes from it.
#[test]
fn v2_checkpoint_decodes_and_restores() {
    let v2 = std::fs::read(golden_path("checkpoint_v2.sybs")).expect("the v2 golden is kept");
    assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
    let cp = format::decode_checkpoint(&v2).expect("v2 decodes");
    assert_eq!(cp, golden_checkpoint());
    let v3 = std::fs::read(golden_path("checkpoint_v3.sybs")).expect("the v3 golden");
    assert_eq!(format::encode_checkpoint(&cp), v3);
    assert_eq!(resume_from("v2", &v2), golden_checkpoint());
}

/// The engine configuration of [`digest_values_are_pinned`]'s run.
fn two_shards() -> ServeConfig {
    ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    }
}

/// [`digest_values_are_pinned`]'s run through a store that checkpoints
/// every 4 epochs, killed at epoch 12: it leaves the epoch-12
/// checkpoint and a one-epoch journal tail in `dir`.
fn killed_leg(out: &SimOutput, dir: &Path) {
    let mut doomed = StorePlane::with_cadence(dir, 4).unwrap().kill_at_epoch(12);
    let err = ServeSession::new(two_shards())
        .store(&mut doomed)
        .run(out)
        .expect_err("killed at epoch 12");
    assert!(err.to_string().contains("epoch 12"), "{err}");
}

/// A store a v2 binary wrote still warm-restarts. The fixture
/// `restart_tiny11_v2.sybs` is the `checkpoint-00000012.sybs` that
/// [`killed_leg`] left at commit f7417df, the last `SYBS` v2 writer:
///
/// ```text
/// git checkout f7417df    # then, from any test of this crate:
/// killed_leg(&osn_sim::simulate(osn_sim::SimConfig::tiny(11)), dir)
/// cp DIR/checkpoint-00000012.sybs crates/sybil-store/tests/golden/restart_tiny11_v2.sybs
/// ```
///
/// The same leg re-runs here; the `SYBJ` bytes are unchanged, so its
/// journal is the fixture run's. With the v2 file swapped in for the v3
/// checkpoint, the restart's report is the sequential replay's and its
/// run-end digests are [`digest_values_are_pinned`]'s. The v2 and v3
/// files hold the same state: only the folded edges' order differs
/// (time order then, row order now).
#[test]
fn a_real_v2_store_warm_restarts() {
    let v2 = std::fs::read(golden_path("restart_tiny11_v2.sybs")).expect("the v2 store fixture");
    assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
    let out = shared_sim();
    let dir = tmpdir(module_path!(), "store-v2");
    killed_leg(out, &dir);
    let path = dir.join("checkpoint-00000012.sybs");
    let v3 = std::fs::read(&path).unwrap();
    assert_eq!(u32::from_le_bytes(v3[4..8].try_into().unwrap()), 3);

    let old = format::decode_checkpoint(&v2).unwrap();
    let new = format::decode_checkpoint(&v3).unwrap();
    assert_eq!((old.epochs, new.epochs), (12, 12));
    assert_eq!(
        (&old.shards, &old.staged_edges),
        (&new.shards, &new.staged_edges)
    );
    assert_eq!(
        (&old.tagged, &old.carry_feedback),
        (&new.tagged, &new.carry_feedback)
    );
    assert_eq!(old.totals, new.totals);
    let set = |cp: &SessionCheckpoint| cp.folded_edges.iter().copied().collect::<BTreeSet<_>>();
    assert!(
        !new.folded_edges.is_empty(),
        "the run folded before epoch 12"
    );
    assert_eq!(set(&old), set(&new));
    assert_eq!(set(&new).len(), new.folded_edges.len());
    assert!(new
        .folded_edges
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));

    std::fs::write(&path, &v2).unwrap();
    let mut revived = StorePlane::with_cadence(&dir, 4).unwrap();
    let o = ServeSession::new(two_shards())
        .store(&mut revived)
        .run(out)
        .unwrap();
    assert_eq!(
        revived.resumed_from(),
        Some(12),
        "the v2 checkpoint was read"
    );
    let replayed = sybil_core::realtime::replay(out, &two_shards().detect);
    let json = |r| serde_json::to_string(r).unwrap();
    assert_eq!(json(&o.report), json(&replayed));
    let (epochs, digests) = revived.journal().finished().expect("a run-end record");
    assert_eq!(epochs, 25);
    assert_eq!(digests, [0xd0cc_a126_5d4d_f4a2, 0x8f74_43a4_f848_1f8e]);
    drop(revived);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Epoch `epoch` of the fixed journal: two events (one of each kind),
/// and — on odd epochs — one feedback record carrying a negative zero.
/// Frozen: changing it invalidates the golden file.
fn golden_epoch(epoch: u64) -> EpochRecord {
    let feedback = if epoch % 2 == 1 {
        vec![FeedbackRecord {
            seq: 5 + epoch,
            intra: 1,
            due: Timestamp(9000 + epoch),
            features: FeatureVector {
                inv_freq_1h: 1.5,
                inv_freq_400h: 0.25,
                outgoing_accept_ratio: 2.0 / 3.0,
                incoming_accept_ratio: 1.0,
                clustering_coefficient: -0.0,
            },
            truth: true,
        }]
    } else {
        Vec::new()
    };
    EpochRecord {
        epoch,
        events: vec![
            StreamEvent {
                seq: 7 + epoch,
                at: Timestamp(3600 * (epoch + 1)),
                kind: StreamEventKind::Sent(4),
            },
            StreamEvent {
                seq: 8 + epoch,
                at: Timestamp(3600 * (epoch + 1) + 400),
                kind: StreamEventKind::Decided(4),
            },
        ],
        details: vec![
            EventDetail {
                from: 1,
                to: 2,
                accepted: false,
            },
            EventDetail {
                from: 1,
                to: 2,
                accepted: true,
            },
        ],
        feedback,
    }
}

/// The fixed journal: three epochs, commits with digests (epochs 0, 2)
/// and without (epoch 1), and a run-end record.
fn golden_journal() -> Vec<u8> {
    let mut j = Journal::create(Cursor::new(Vec::new())).unwrap();
    for e in 0..3u64 {
        let rec = golden_epoch(e);
        j.append_begin(EpochRecordRef {
            epoch: e,
            events: &rec.events,
            details: &rec.details,
            feedback: &rec.feedback,
        })
        .unwrap();
        let digests = [0x1111_0000 + e, 0x2222_0000 + e];
        j.append_commit(e, (e != 1).then_some(&digests[..]))
            .unwrap();
    }
    j.append_end(3, &[0xaaaa, 0xbbbb]).unwrap();
    j.into_store().into_inner()
}

#[test]
fn journal_matches_committed_golden_bytes() {
    let bytes = golden_journal();
    let committed = committed_golden("journal_v2.sybj", &bytes);
    assert_eq!(
        bytes, committed,
        "SYBJ v2 encoding drifted from the committed golden bytes — \
         a format change requires a VERSION bump and a new golden file"
    );
    assert_eq!(&committed[..4], b"SYBJ");
    assert_eq!(journal::VERSION, 2);
    // And the committed bytes still open to the exact records.
    let mut j = Journal::open(Cursor::new(committed)).unwrap();
    for e in 0..3u64 {
        let rec = j.read_epoch(e).unwrap().unwrap();
        let want = golden_epoch(e);
        assert_eq!(rec.events, want.events);
        assert_eq!(rec.details, want.details);
        assert_eq!(rec.feedback, want.feedback);
        assert!(j.committed(e));
        assert_eq!(
            j.committed_digest(e, 1),
            (e != 1).then_some(0x2222_0000 + e)
        );
    }
    assert_eq!(j.finished(), Some((3, &[0xaaaa_u64, 0xbbbb][..])));
}

/// A v1 journal carries digests of the whole-table fold, which this
/// engine no longer computes: it is refused by its version, never
/// replayed against the wrong digests. Its frames are v2's, so the v1
/// golden is the v2 golden's bytes under the old version word.
#[test]
fn v1_journal_is_refused_by_version() {
    let v1 = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/journal_v1.sybj"),
    )
    .expect("the v1 golden is kept");
    assert_eq!(
        Journal::open(Cursor::new(v1.clone())).unwrap_err(),
        StoreError::VersionMismatch {
            found: 1,
            expected: 2
        }
    );
    let mut v2 = golden_journal();
    v2[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(v2, v1);
}

/// The digest function, pinned: the table digest of the golden
/// checkpoint's shard and the final shard digests of a fixed run (tiny
/// simulation, seed 11, two shards) served through a journal. Stores
/// carry these numbers — every `SYBJ` commit and run-end record — so a
/// change to either is a format change: a `VERSION` bump and a new
/// golden, like a change to the bytes above.
#[test]
fn digest_values_are_pinned() {
    let cp = golden_checkpoint();
    assert_eq!(cp.shards[0].table.digest(), 0x44a4_3348_f829_762e);

    let out = shared_sim();
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let mut plane = JournalPlane::new(Journal::create(Cursor::new(Vec::new())).unwrap());
    ServeSession::new(cfg).store(&mut plane).run(out).unwrap();
    let (epochs, digests) = plane.journal().finished().expect("a run-end record");
    assert_eq!(epochs, 25);
    assert_eq!(digests, [0xd0cc_a126_5d4d_f4a2, 0x8f74_43a4_f848_1f8e]);
}
