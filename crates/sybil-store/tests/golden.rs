//! Format-drift guard: the `SYBS` v1 encoding of a fixed checkpoint and
//! the `SYBJ` v1 encoding of a fixed journal are pinned against
//! committed golden bytes.
//!
//! If a test here fails, the on-disk format changed. That is only legal
//! together with a `VERSION` bump and a new golden file for
//! the new version (keep the old one — old files must keep decoding or
//! keep being *rejected by version*, never misread). Regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p sybil-store --test golden
//! ```

use osn_graph::{NodeId, Timestamp};
use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
use std::io::Cursor;
use std::path::PathBuf;
use sybil_store::journal::{self, Journal};
use sybil_core::realtime::state::AccountState;
use sybil_core::realtime::{Detection, ReplayCounters};
use sybil_features::FeatureVector;
use sybil_serve::fault::{EpochRecord, EpochRecordRef, FeedbackRecord};
use sybil_serve::{SessionCheckpoint, ShardSnapshot};
use sybil_store::format;

/// A fixed checkpoint exercising every section and field kind. Frozen:
/// changing it invalidates the golden file.
fn golden_checkpoint() -> SessionCheckpoint {
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
        states: vec![state, AccountState::default()],
        adaptive,
        feedback_queue: vec![(Timestamp(9000), fv, true)],
        sends_until_audit: 3,
        audit_cursor: 17,
    };
    SessionCheckpoint {
        epochs: 4,
        shards: vec![shard.clone(), shard],
        folded_edges: vec![(NodeId(1), NodeId(2), Timestamp(100))],
        staged_edges: vec![(NodeId(3), NodeId(4), Timestamp(200))],
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

/// The committed bytes of golden file `name`, rewritten from `bytes`
/// first under `BLESS=1`.
fn committed_golden(name: &str, bytes: &[u8]) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `BLESS=1 cargo test -p sybil-store --test golden`",
            path.display()
        )
    })
}

#[test]
fn encoding_matches_committed_golden_bytes() {
    let bytes = format::encode_checkpoint(&golden_checkpoint());
    let committed = committed_golden("checkpoint_v1.sybs", &bytes);
    assert_eq!(
        bytes,
        committed,
        "SYBS v1 encoding drifted from the committed golden bytes — \
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
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 1);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 7, "7 sections");
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
        j.append_commit(e, (e != 1).then_some(&digests[..])).unwrap();
    }
    j.append_end(3, &[0xaaaa, 0xbbbb]).unwrap();
    j.into_store().into_inner()
}

#[test]
fn journal_matches_committed_golden_bytes() {
    let bytes = golden_journal();
    let committed = committed_golden("journal_v1.sybj", &bytes);
    assert_eq!(
        bytes, committed,
        "SYBJ v1 encoding drifted from the committed golden bytes — \
         a format change requires a VERSION bump and a new golden file"
    );
    assert_eq!(&committed[..4], b"SYBJ");
    assert_eq!(journal::VERSION, 1);
    // And the committed bytes still open to the exact records.
    let mut j = Journal::open(Cursor::new(committed)).unwrap();
    for e in 0..3u64 {
        let rec = j.read_epoch(e).unwrap().unwrap();
        let want = golden_epoch(e);
        assert_eq!(rec.events, want.events);
        assert_eq!(rec.details, want.details);
        assert_eq!(rec.feedback, want.feedback);
        assert!(j.committed(e));
        assert_eq!(j.committed_digest(e, 1), (e != 1).then_some(0x2222_0000 + e));
    }
    assert_eq!(j.finished(), Some((3, &[0xaaaa_u64, 0xbbbb][..])));
}
