//! The `SYBS` checkpoint format and **every** filesystem touch in this
//! crate.
//!
//! ## Format
//!
//! A checkpoint file is a header, a run of tagged sections, and a digest
//! trailer, in the crate's one field encoding (little-endian,
//! width-explicit — see `codec.rs`, shared with the journal). The byte
//! stream is a pure function of the logical checkpoint, so two encodes of
//! equal state are byte-identical on every platform — the golden-bytes
//! regression test pins exactly this.
//!
//! ```text
//! file    := magic b"SYBS"  version:u32 (= 1)  n_sections:u32
//!            section[n_sections]  digest:u64
//! section := tag:u8  len:u32  payload[len]
//! ```
//!
//! Sections are held in a `BTreeMap` keyed by tag while encoding and are
//! therefore written in strictly ascending tag order; the decoder rejects
//! out-of-order or duplicate tags. Version 1 defines tags 1–7 (meta,
//! shards, folded edges, staged edges, tagged detections, carried
//! feedback, totals); an unknown tag is a typed
//! [`StoreError::UnknownSection`], never skipped — adding a section means
//! bumping [`VERSION`].
//!
//! The trailer is a [`Digest64`] fold over the version, the section
//! count, and every section's tag, length, and payload. A flipped bit
//! anywhere surfaces as [`StoreError::DigestMismatch`] before any field
//! reaches the engine. The digest is not cryptographic, so the section
//! decoders still treat every count behind it as outside input.
//!
//! ## IO policy
//!
//! Workspace lint rule S119 confines file IO that writes versioned state
//! to this module: checkpoint writes go through [`write_atomic`]
//! (temporary sibling + rename, so a crash mid-write never leaves a
//! half-checkpoint under the final name), journal files are
//! opened through [`open_or_create_journal`] (which cuts a torn tail
//! back to the last whole frame the journal's own scan found), and
//! directory scans go through [`list_checkpoints`].
//!
//! The durability contract is *process kill*, not power loss: appends
//! and renames reach the OS before a hook returns, and nothing here
//! calls `sync_data`, so state survives the serving process dying at any
//! instruction but not the machine losing power with dirty pages.

use crate::codec::{
    get_features, get_feedback, put_bool, put_features, put_feedback, put_u32, put_u64, put_u8,
    Fields, FEATURES_LEN, FEEDBACK_LEN,
};
use crate::error::{io_err, IoOp, StoreError};
use crate::journal::{self, Journal};
use osn_graph::{NodeId, Timestamp};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use sybil_core::digest::Digest64;
use sybil_core::realtime::state::AccountState;
use sybil_core::realtime::{Detection, ReplayCounters};
use sybil_serve::{SessionCheckpoint, ShardSnapshot};

/// Checkpoint magic: `b"SYBS"`.
pub const MAGIC: [u8; 4] = *b"SYBS";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// Section tags defined by version 1, in file order.
const TAG_META: u8 = 1;
const TAG_SHARDS: u8 = 2;
const TAG_FOLDED: u8 = 3;
const TAG_STAGED: u8 = 4;
const TAG_TAGGED: u8 = 5;
const TAG_CARRY: u8 = 6;
const TAG_TOTALS: u8 = 7;

// ---------------------------------------------------------------------
// Section payload codecs. The constants are each record's encoded size
// (`_LEN`) or smallest possible encoding (`_MIN`) — what `Fields::count`
// bounds counts by.
// ---------------------------------------------------------------------

const ACCOUNT_MIN: usize = 6 * 4 + 2;
const PENDING_FEEDBACK_LEN: usize = 8 + FEATURES_LEN + 1;
const SHARD_MIN: usize = 4 + 31 * 8 + 4 + 8 + 8;
const EDGE_LEN: usize = 4 + 4 + 8;
const TAGGED_LEN: usize = 8 + 4 + 8 + 1;

fn put_account(buf: &mut Vec<u8>, st: &AccountState) {
    put_u32(buf, st.sent);
    put_u32(buf, st.accepted);
    put_u32(buf, st.rejected);
    put_u32(buf, st.recent_sends.len() as u32);
    for &s in &st.recent_sends {
        put_u64(buf, s);
    }
    put_u32(buf, st.peak_1h);
    put_u32(buf, st.friends.len() as u32);
    for f in &st.friends {
        put_u32(buf, f.0);
    }
    put_bool(buf, st.friends_dup);
    put_bool(buf, st.detected);
}

fn get_account(f: &mut Fields<'_>) -> Result<AccountState, StoreError> {
    let sent = f.u32()?;
    let accepted = f.u32()?;
    let rejected = f.u32()?;
    let recent_sends = f.counted(8, Fields::u64)?.into();
    let peak_1h = f.u32()?;
    let friends = f.counted(4, |f| Ok(NodeId(f.u32()?)))?;
    let friends_dup = f.bool()?;
    let detected = f.bool()?;
    Ok(AccountState {
        sent,
        accepted,
        rejected,
        recent_sends,
        peak_1h,
        friends,
        friends_dup,
        detected,
    })
}

fn put_shard(buf: &mut Vec<u8>, s: &ShardSnapshot) {
    put_u32(buf, s.states.len() as u32);
    for st in &s.states {
        put_account(buf, st);
    }
    for &w in &s.adaptive {
        put_u64(buf, w);
    }
    put_u32(buf, s.feedback_queue.len() as u32);
    for (due, fv, truth) in &s.feedback_queue {
        put_u64(buf, due.as_secs());
        put_features(buf, fv);
        put_bool(buf, *truth);
    }
    put_u64(buf, s.sends_until_audit);
    put_u64(buf, s.audit_cursor);
}

fn get_shard(f: &mut Fields<'_>) -> Result<ShardSnapshot, StoreError> {
    let states = f.counted(ACCOUNT_MIN, get_account)?;
    let mut adaptive = [0u64; 31];
    for w in &mut adaptive {
        *w = f.u64()?;
    }
    let feedback_queue = f.counted(PENDING_FEEDBACK_LEN, |f| {
        Ok((Timestamp(f.u64()?), get_features(f)?, f.bool()?))
    })?;
    let sends_until_audit = f.u64()?;
    let audit_cursor = f.u64()?;
    Ok(ShardSnapshot {
        states,
        adaptive,
        feedback_queue,
        sends_until_audit,
        audit_cursor,
    })
}

fn put_edges(buf: &mut Vec<u8>, edges: &[(NodeId, NodeId, Timestamp)]) {
    put_u32(buf, edges.len() as u32);
    for &(u, v, t) in edges {
        put_u32(buf, u.0);
        put_u32(buf, v.0);
        put_u64(buf, t.as_secs());
    }
}

fn get_edges(f: &mut Fields<'_>) -> Result<Vec<(NodeId, NodeId, Timestamp)>, StoreError> {
    f.counted(EDGE_LEN, |f| {
        Ok((NodeId(f.u32()?), NodeId(f.u32()?), Timestamp(f.u64()?)))
    })
}

/// Build the version-1 section map for `cp`. The `BTreeMap` key order IS
/// the file order.
fn sections(cp: &SessionCheckpoint) -> BTreeMap<u8, Vec<u8>> {
    let mut map = BTreeMap::new();

    let mut meta = Vec::with_capacity(12);
    put_u64(&mut meta, cp.epochs);
    put_u32(&mut meta, cp.shards.len() as u32);
    map.insert(TAG_META, meta);

    let mut shards = Vec::new();
    for s in &cp.shards {
        put_shard(&mut shards, s);
    }
    map.insert(TAG_SHARDS, shards);

    let mut folded = Vec::with_capacity(4 + cp.folded_edges.len() * EDGE_LEN);
    put_edges(&mut folded, &cp.folded_edges);
    map.insert(TAG_FOLDED, folded);

    let mut staged = Vec::with_capacity(4 + cp.staged_edges.len() * EDGE_LEN);
    put_edges(&mut staged, &cp.staged_edges);
    map.insert(TAG_STAGED, staged);

    let mut tagged = Vec::with_capacity(4 + cp.tagged.len() * TAGGED_LEN);
    put_u32(&mut tagged, cp.tagged.len() as u32);
    for &(seq, det) in &cp.tagged {
        put_u64(&mut tagged, seq);
        put_u32(&mut tagged, det.account.0);
        put_u64(&mut tagged, det.at.as_secs());
        put_bool(&mut tagged, det.correct);
    }
    map.insert(TAG_TAGGED, tagged);

    let mut carry = Vec::with_capacity(4 + cp.carry_feedback.len() * FEEDBACK_LEN);
    put_u32(&mut carry, cp.carry_feedback.len() as u32);
    for fb in &cp.carry_feedback {
        put_feedback(&mut carry, fb);
    }
    map.insert(TAG_CARRY, carry);

    let mut totals = Vec::with_capacity(48);
    put_u64(&mut totals, cp.totals.events_processed);
    put_u64(&mut totals, cp.totals.checks_run);
    put_u64(&mut totals, cp.totals.detections);
    put_u64(&mut totals, cp.totals.features_computed);
    put_u64(&mut totals, cp.totals.feedback_applied);
    put_u64(&mut totals, cp.totals.audits_sampled);
    map.insert(TAG_TOTALS, totals);

    map
}

/// Fold the header fields and every section (ascending by tag) into the
/// trailer digest.
fn trailer_digest<'a>(sections: impl ExactSizeIterator<Item = (u8, &'a [u8])>) -> u64 {
    let mut d = Digest64::new();
    d.write_u32(VERSION);
    d.write_usize(sections.len());
    for (tag, payload) in sections {
        d.write_u32(u32::from(tag));
        d.write_usize(payload.len());
        for chunk in payload.chunks(8) {
            let mut w = [0u8; 8];
            let (dst, _) = w.split_at_mut(chunk.len());
            dst.copy_from_slice(chunk);
            d.write_u64(u64::from_le_bytes(w));
        }
    }
    d.finish()
}

/// Encode `cp` as one version-1 `SYBS` byte stream.
pub fn encode_checkpoint(cp: &SessionCheckpoint) -> Vec<u8> {
    let map = sections(cp);
    let body: usize = map.values().map(|p| 5 + p.len()).sum();
    let mut out = Vec::with_capacity(16 + body + 8);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, map.len() as u32);
    for (&tag, payload) in &map {
        put_u8(&mut out, tag);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
    }
    put_u64(
        &mut out,
        trailer_digest(map.iter().map(|(&tag, p)| (tag, p.as_slice()))),
    );
    out
}

/// Decode a version-1 `SYBS` byte stream back into a checkpoint,
/// verifying the trailer digest and rejecting unknown, duplicate, or
/// out-of-order sections.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<SessionCheckpoint, StoreError> {
    let mut f = Fields::new(bytes, 0);
    let magic = f.take(4)?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(StoreError::BadMagic { found });
    }
    let version = f.u32()?;
    if version != VERSION {
        return Err(StoreError::VersionMismatch {
            found: version,
            expected: VERSION,
        });
    }
    let n_sections = f.u32()? as usize;
    let mut map: BTreeMap<u8, (u64, &[u8])> = BTreeMap::new();
    let mut prev_tag: Option<u8> = None;
    for _ in 0..n_sections {
        let tag_off = f.offset();
        let tag = f.u8()?;
        if !(TAG_META..=TAG_TOTALS).contains(&tag) {
            return Err(StoreError::UnknownSection { tag });
        }
        if prev_tag.is_some_and(|p| p >= tag) {
            // Duplicate or descending tag: not the canonical encoding.
            return Err(StoreError::BadField { offset: tag_off });
        }
        prev_tag = Some(tag);
        let len = f.u32()? as usize;
        let base = f.offset();
        let payload = f.take(len)?;
        map.insert(tag, (base, payload));
    }
    let expected = f.u64()?;
    if !f.done() {
        return Err(StoreError::BadField { offset: f.offset() });
    }
    let found = trailer_digest(map.iter().map(|(&tag, &(_, payload))| (tag, payload)));
    if found != expected {
        return Err(StoreError::DigestMismatch { expected, found });
    }

    let section = |tag: u8| -> Result<Fields<'_>, StoreError> {
        map.get(&tag)
            .map(|&(base, payload)| Fields::new(payload, base))
            .ok_or(StoreError::MissingSection { tag })
    };

    let mut meta = section(TAG_META)?;
    let epochs = meta.u64()?;
    let mut sh = section(TAG_SHARDS)?;
    let n_shards = sh.fits(meta.u32()? as usize, SHARD_MIN)?;
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        shards.push(get_shard(&mut sh)?);
    }

    let folded_edges = get_edges(&mut section(TAG_FOLDED)?)?;
    let staged_edges = get_edges(&mut section(TAG_STAGED)?)?;

    let tagged = section(TAG_TAGGED)?.counted(TAGGED_LEN, |f| {
        let seq = f.u64()?;
        let account = NodeId(f.u32()?);
        let at = Timestamp(f.u64()?);
        let correct = f.bool()?;
        Ok((seq, Detection { account, at, correct }))
    })?;

    let carry_feedback = section(TAG_CARRY)?.counted(FEEDBACK_LEN, get_feedback)?;

    let mut tot = section(TAG_TOTALS)?;
    let totals = ReplayCounters {
        events_processed: tot.u64()?,
        checks_run: tot.u64()?,
        detections: tot.u64()?,
        features_computed: tot.u64()?,
        feedback_applied: tot.u64()?,
        audits_sampled: tot.u64()?,
    };

    Ok(SessionCheckpoint {
        epochs,
        shards,
        folded_edges,
        staged_edges,
        tagged,
        carry_feedback,
        totals,
    })
}

// ---------------------------------------------------------------------
// Filesystem operations — the only ones in the crate (lint rule S119).
// ---------------------------------------------------------------------

/// Create the store directory (and parents) if absent.
pub(crate) fn ensure_dir(dir: &Path) -> Result<(), StoreError> {
    std::fs::create_dir_all(dir).map_err(io_err(IoOp::CreateDir))
}

/// Read a whole file.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(io_err(IoOp::Read))
}

/// Write `bytes` to `path` atomically: a temporary sibling is written
/// first, then renamed over the final name, so a crash at any point
/// leaves either the old file or the complete new one under the final
/// name — never a torn checkpoint. There is no fsync here or anywhere
/// else in the crate (see the module's durability contract): a
/// checkpoint is a recovery *accelerator* over the journal, and one lost
/// or torn by power failure is caught by its trailer digest, so recovery
/// falls back to an older one plus a longer journal tail.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(io_err(IoOp::Write))?;
    file.write_all(bytes).map_err(io_err(IoOp::Write))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err(IoOp::Rename))
}

/// Checkpoint files in `dir` as `(epochs, path)`, ascending by epoch.
/// Non-checkpoint names (the journal, temporaries) are skipped.
pub(crate) fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(io_err(IoOp::List))?;
    for entry in entries {
        let entry = entry.map_err(io_err(IoOp::List))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".sybs"))
        else {
            continue;
        };
        if let Ok(epochs) = num.parse::<u64>() {
            out.push((epochs, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(e, _)| e);
    Ok(out)
}

/// The canonical file name for a checkpoint taken after `epochs` epochs.
pub(crate) fn checkpoint_name(epochs: u64) -> String {
    format!("checkpoint-{epochs:08}.sybs")
}

/// Open the write-ahead journal at `path` for appending, creating it if
/// absent. An existing journal with a torn tail (the process died inside
/// an append) is cut back to the last whole frame its scan found — the
/// repair happens here, at the only layer that owns the file. Corruption
/// *inside* a whole frame is not repaired: it is a typed error.
pub(crate) fn open_or_create_journal(path: &Path) -> Result<Journal<File>, StoreError> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(io_err(IoOp::Write))?;
    let len = file.metadata().map_err(io_err(IoOp::Read))?.len();
    // A file shorter than its own header is new, or was torn during
    // creation; start it over rather than refusing to serve.
    if len < journal::HEADER_LEN {
        return Journal::create(file);
    }
    let journal = Journal::open_to_last_whole_frame(file)?;
    if journal.len_bytes() < len {
        journal
            .store()
            .set_len(journal.len_bytes())
            .map_err(io_err(IoOp::Truncate))?;
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybil_features::FeatureVector;
    use sybil_serve::fault::FeedbackRecord;

    /// A small synthetic checkpoint exercising every section and every
    /// field kind (floats included, with a negative zero to pin bit
    /// patterns).
    pub(crate) fn sample_checkpoint() -> SessionCheckpoint {
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

    #[test]
    fn checkpoint_round_trips_exactly() {
        let cp = sample_checkpoint();
        let bytes = encode_checkpoint(&cp);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, cp);
        // Re-encoding the decoded checkpoint reproduces the same bytes:
        // the encoding is canonical.
        assert_eq!(encode_checkpoint(&back), bytes);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(
            encode_checkpoint(&sample_checkpoint()),
            encode_checkpoint(&sample_checkpoint())
        );
    }

    #[test]
    fn corruption_is_typed() {
        let bytes = encode_checkpoint(&sample_checkpoint());

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_checkpoint(&bad_magic),
            Err(StoreError::BadMagic { .. })
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert_eq!(
            decode_checkpoint(&bad_version),
            Err(StoreError::VersionMismatch {
                found: 9,
                expected: VERSION
            })
        );

        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            decode_checkpoint(cut),
            Err(StoreError::TruncatedFrame { .. })
        ));

        // Flip one payload bit: the trailer digest catches it.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        let err = decode_checkpoint(&flipped).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::DigestMismatch { .. } | StoreError::BadField { .. }
            ),
            "{err:?}"
        );

        // An unknown section tag is rejected, not skipped.
        let mut bad_tag = bytes.clone();
        bad_tag[12] = 99; // first section tag (magic 4 + version 4 + count 4)
        let err = decode_checkpoint(&bad_tag).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnknownSection { tag: 99 } | StoreError::DigestMismatch { .. }
            ),
            "{err:?}"
        );
    }
}
