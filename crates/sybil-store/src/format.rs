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
//! file    := magic b"SYBS"  version:u32 (= 3)  n_sections:u32
//!            section[n_sections]  digest:u64
//! section := tag:u8  len:u32  payload[len]
//! ```
//!
//! The file is streamed into its sink, never built whole. Sections are
//! written in strictly ascending tag order, each frame's length computed
//! from the checkpoint before its payload is written; the payload
//! writers fill one reused chunk of tens of KiB, which is folded into
//! the trailer digest and written out each time it fills. A payload of
//! any other length than its frame declared fails the write
//! ([`StoreError::SectionLength`]). The decoder rejects out-of-order or
//! duplicate tags, and a section with bytes left over after its last
//! field. Versions 1–3 define tags 1–7 (meta, shards, folded
//! edges, staged edges, tagged detections, carried feedback, totals); an
//! unknown tag is a typed [`StoreError::UnknownSection`], never skipped —
//! adding a section means bumping [`VERSION`].
//!
//! ## Versions
//!
//! Version 3 stores edges without times. Both edge sections are a
//! counted run of
//!
//! ```text
//! edge := u:u32 v:u32                    (v3, 8 B)
//! edge := u:u32 v:u32 t:u64              (v1, v2, 16 B)
//! ```
//!
//! The folded edges are written as `u < v` in row order, straight off
//! the mirror's rows; the staged edges in stream order, repeats
//! included. Nothing the mirror answers reads an edge's time, so the
//! decoder reads all three versions (`MIN_VERSION..=VERSION`) and drops
//! the times of a v1 or v2 file: its folded edges (ordered by time) then
//! re-fold to the same rows, the fold being a set union. The encoder
//! writes v3; a v2 reader refuses a v3 file by its version.
//!
//! Version 2 differed from version 1 only in what the staged-edges
//! section may contain. The mirror's delta is every accepted decision
//! since the last rotation, so a v2 staged list may repeat a pair (its
//! first occurrence is the edge); a v1 list never did, and a v1 reader
//! refuses a v2 file instead of counting a repeated pair twice.
//!
//! A shard's accounts are encoded from its `AccountTable` slot by slot
//! and decoded straight into a new table, so no per-account record is
//! built on either side. The bytes are the v1 account records they
//! always were:
//!
//! ```text
//! account := sent:u32 accepted:u32 rejected:u32
//!            n_window:u32 send_secs[n_window]:u64  peak_1h:u32
//!            n_friends:u32 friend[n_friends]:u32  friends_dup:u8 detected:u8
//! ```
//!
//! The trailer is a [`Digest64`] fold over the version, the section
//! count, and every section's tag, length, and payload. The writer folds
//! each chunk as it goes out and the decoder folds each section whole,
//! through the same fold. The decoder checks the trailer over the whole
//! file before it decodes any field, so a flipped bit anywhere surfaces
//! as [`StoreError::DigestMismatch`] before any field reaches the engine. The digest is not cryptographic, so the section
//! decoders still treat every count behind it as outside input.
//!
//! ## IO policy
//!
//! Workspace lint rule S119 confines file IO that writes versioned state
//! to this module: checkpoints are saved through [`save_checkpoint`]
//! (streamed into a temporary sibling, then renamed, so a crash
//! mid-write never leaves a half-checkpoint under the final name),
//! journal files are
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
use std::io::Write;
use std::path::{Path, PathBuf};
use sybil_core::digest::Digest64;
use sybil_core::realtime::state::{AccountTable, Counters};
use sybil_core::realtime::{Detection, ReplayCounters};
use sybil_serve::{SessionCheckpoint, ShardSnapshot};

/// Checkpoint magic: `b"SYBS"`.
pub const MAGIC: [u8; 4] = *b"SYBS";
/// Current checkpoint format version, the one every checkpoint is
/// written in.
pub const VERSION: u32 = 3;
/// Oldest version [`decode_checkpoint`] still reads (see the module
/// docs' §Versions).
const MIN_VERSION: u32 = 1;

/// Section tags, in file order (the same in every version).
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
const EDGE_LEN: usize = 4 + 4;
/// A v1 or v2 edge: the v3 pair, then its time.
const TIMED_EDGE_LEN: usize = EDGE_LEN + 8;
const TAGGED_LEN: usize = 8 + 4 + 8 + 1;

/// Every account of `t`, counted, in slot order.
fn put_accounts(w: &mut Chunked<'_>, t: &AccountTable) -> Result<(), StoreError> {
    put_u32(&mut w.chunk, t.len() as u32);
    for i in 0..t.len() {
        let buf = &mut w.chunk;
        let c = t.counters(i);
        put_u32(buf, c.sent);
        put_u32(buf, c.accepted);
        put_u32(buf, c.rejected);
        let window = t.window(i);
        put_u32(buf, window.len() as u32);
        window.for_each(|at| put_u64(buf, at));
        put_u32(buf, c.peak_1h);
        let friends = t.friends(i);
        put_u32(buf, friends.len() as u32);
        friends.iter().for_each(|f| put_u32(buf, f.0));
        put_bool(buf, c.friends_dup);
        put_bool(buf, c.detected);
        w.spill()?;
    }
    Ok(())
}

/// The encoded size of [`put_accounts`]' output for `t`.
fn accounts_len(t: &AccountTable) -> usize {
    let each = |i| ACCOUNT_MIN + 8 * t.window(i).len() + 4 * t.friends(i).len();
    4 + (0..t.len()).map(each).sum::<usize>()
}

/// A counted run of accounts, decoded into a table. An account no table
/// could hold (more than the friend cap) is a typed error at its offset.
fn get_accounts(f: &mut Fields<'_>) -> Result<AccountTable, StoreError> {
    let n = f.count(ACCOUNT_MIN)?;
    let mut t = AccountTable::with_capacity(n);
    for _ in 0..n {
        let at = f.offset();
        let (sent, accepted, rejected) = (f.u32()?, f.u32()?, f.u32()?);
        let n_window = f.count(8)?;
        let window = f.take(8 * n_window)?.chunks_exact(8);
        let window = window.map(|b| u64::from_le_bytes(le(b)));
        let peak_1h = f.u32()?;
        let n_friends = f.count(4)?;
        let friends = f.take(4 * n_friends)?.chunks_exact(4);
        let friends = friends.map(|b| NodeId(u32::from_le_bytes(le(b))));
        let c = Counters {
            sent,
            accepted,
            rejected,
            peak_1h,
            friends_dup: f.bool()?,
            detected: f.bool()?,
        };
        t.push_account(c, window, friends)
            .ok_or(StoreError::BadField { offset: at })?;
    }
    Ok(t)
}

/// The `N` bytes of a word (`b` is a `chunks_exact(N)` chunk).
fn le<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut w = [0u8; N];
    w.copy_from_slice(b);
    w
}

fn put_shard(w: &mut Chunked<'_>, s: &ShardSnapshot) -> Result<(), StoreError> {
    put_accounts(w, &s.table)?;
    let buf = &mut w.chunk;
    for &word in &s.adaptive {
        put_u64(buf, word);
    }
    put_u32(buf, s.feedback_queue.len() as u32);
    for (due, fv, truth) in &s.feedback_queue {
        let buf = &mut w.chunk;
        put_u64(buf, due.as_secs());
        put_features(buf, fv);
        put_bool(buf, *truth);
        w.spill()?;
    }
    put_u64(&mut w.chunk, s.sends_until_audit);
    put_u64(&mut w.chunk, s.audit_cursor);
    Ok(())
}

fn shard_len(s: &ShardSnapshot) -> usize {
    accounts_len(&s.table) + SHARD_MIN - 4 + s.feedback_queue.len() * PENDING_FEEDBACK_LEN
}

fn get_shard(f: &mut Fields<'_>) -> Result<ShardSnapshot, StoreError> {
    let table = get_accounts(f)?;
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
        table,
        adaptive,
        feedback_queue,
        sends_until_audit,
        audit_cursor,
    })
}

fn put_edges(w: &mut Chunked<'_>, edges: &[(NodeId, NodeId)]) -> Result<(), StoreError> {
    put_u32(&mut w.chunk, edges.len() as u32);
    for &(u, v) in edges {
        put_u32(&mut w.chunk, u.0);
        put_u32(&mut w.chunk, v.0);
        w.spill()?;
    }
    Ok(())
}

/// A counted run of edges in a `version` file, a v1 or v2 edge's time
/// read and dropped.
fn get_edges(f: &mut Fields<'_>, version: u32) -> Result<Vec<(NodeId, NodeId)>, StoreError> {
    let timed = version < 3;
    f.counted(if timed { TIMED_EDGE_LEN } else { EDGE_LEN }, |f| {
        let edge = (NodeId(f.u32()?), NodeId(f.u32()?));
        if timed {
            f.u64()?;
        }
        Ok(edge)
    })
}

/// The section tags, in file order.
const TAGS: [u8; 7] = [
    TAG_META, TAG_SHARDS, TAG_FOLDED, TAG_STAGED, TAG_TAGGED, TAG_CARRY, TAG_TOTALS,
];

/// The encoded size of section `tag`'s payload for `cp`.
fn section_len(tag: u8, cp: &SessionCheckpoint) -> usize {
    match tag {
        TAG_META => 12,
        TAG_SHARDS => cp.shards.iter().map(shard_len).sum(),
        TAG_FOLDED => 4 + cp.folded_edges.len() * EDGE_LEN,
        TAG_STAGED => 4 + cp.staged_edges.len() * EDGE_LEN,
        TAG_TAGGED => 4 + cp.tagged.len() * TAGGED_LEN,
        TAG_CARRY => 4 + cp.carry_feedback.len() * FEEDBACK_LEN,
        _ => 48,
    }
}

/// Append section `tag`'s payload for `cp`.
fn put_section(w: &mut Chunked<'_>, tag: u8, cp: &SessionCheckpoint) -> Result<(), StoreError> {
    match tag {
        TAG_META => {
            put_u64(&mut w.chunk, cp.epochs);
            put_u32(&mut w.chunk, cp.shards.len() as u32);
        }
        TAG_SHARDS => {
            for s in &cp.shards {
                put_shard(w, s)?;
            }
        }
        TAG_FOLDED => put_edges(w, &cp.folded_edges)?,
        TAG_STAGED => put_edges(w, &cp.staged_edges)?,
        TAG_TAGGED => {
            put_u32(&mut w.chunk, cp.tagged.len() as u32);
            for &(seq, det) in &cp.tagged {
                let buf = &mut w.chunk;
                put_u64(buf, seq);
                put_u32(buf, det.account.0);
                put_u64(buf, det.at.as_secs());
                put_bool(buf, det.correct);
                w.spill()?;
            }
        }
        TAG_CARRY => {
            put_u32(&mut w.chunk, cp.carry_feedback.len() as u32);
            for fb in &cp.carry_feedback {
                put_feedback(&mut w.chunk, fb);
                w.spill()?;
            }
        }
        _ => {
            let buf = &mut w.chunk;
            put_u64(buf, cp.totals.events_processed);
            put_u64(buf, cp.totals.checks_run);
            put_u64(buf, cp.totals.detections);
            put_u64(buf, cp.totals.features_computed);
            put_u64(buf, cp.totals.feedback_applied);
            put_u64(buf, cp.totals.audits_sampled);
        }
    }
    Ok(())
}

/// The trailer digest, folded as payload bytes arrive. It covers the
/// header fields (`version` as the file states it), then each section's
/// tag, length and payload, the payload read as little-endian 8-byte
/// words with the last one zero-padded. A word may straddle two chunks,
/// so the fold carries its partial word until more bytes complete it or
/// the section ends.
struct TrailerFold {
    d: Digest64,
    word: [u8; 8],
    /// Bytes of `word` the open section has filled.
    filled: usize,
    /// Payload bytes folded in the open section.
    len: usize,
}

impl TrailerFold {
    fn new(version: u32, n_sections: usize) -> Self {
        let mut d = Digest64::new();
        d.write_u32(version);
        d.write_usize(n_sections);
        TrailerFold {
            d,
            word: [0; 8],
            filled: 0,
            len: 0,
        }
    }

    /// Open section `tag`, whose header states a `len`-byte payload.
    fn begin(&mut self, tag: u8, len: usize) {
        self.d.write_u32(u32::from(tag));
        self.d.write_usize(len);
        self.len = 0;
    }

    /// Fold the open section's next payload bytes.
    fn bytes(&mut self, mut b: &[u8]) {
        self.len += b.len();
        if self.filled > 0 {
            let (head, rest) = b.split_at(b.len().min(8 - self.filled));
            self.word[self.filled..self.filled + head.len()].copy_from_slice(head);
            self.filled += head.len();
            if self.filled < 8 {
                return;
            }
            self.d.write_u64(u64::from_le_bytes(self.word));
            self.filled = 0;
            b = rest;
        }
        let words = b.chunks_exact(8);
        let tail = words.remainder();
        for w in words {
            self.d.write_u64(u64::from_le_bytes(le(w)));
        }
        self.word[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    /// Close the open section, zero-padding its last word; the payload
    /// bytes it folded.
    fn end(&mut self) -> usize {
        if self.filled > 0 {
            self.word[self.filled..].fill(0);
            self.d.write_u64(u64::from_le_bytes(self.word));
            self.filled = 0;
        }
        self.len
    }
}

/// The trailer digest of whole sections (ascending by tag).
fn trailer_digest<'a>(
    version: u32,
    sections: impl ExactSizeIterator<Item = (u8, &'a [u8])>,
) -> u64 {
    let mut fold = TrailerFold::new(version, sections.len());
    for (tag, payload) in sections {
        fold.begin(tag, payload.len());
        fold.bytes(payload);
        fold.end();
    }
    fold.d.finish()
}

/// The checkpoint writer: one reused chunk the `put_*` writers append
/// to, handed to the sink and folded into the trailer each time it
/// fills.
struct Chunked<'w> {
    chunk: Vec<u8>,
    /// Where the open section's unfolded payload starts in `chunk`; the
    /// header and frame bytes before it are not payload.
    open: usize,
    fold: TrailerFold,
    sink: &'w mut dyn Write,
}

/// Bytes the writer gathers before it writes them out. The `put_*`
/// writers check between records, and the chunk is allocated at twice
/// this so the record that crosses the mark fits without growing it.
const CHUNK: usize = 64 * 1024;

impl<'w> Chunked<'w> {
    fn new(sink: &'w mut dyn Write) -> Self {
        Chunked {
            chunk: Vec::with_capacity(2 * CHUNK),
            open: 0,
            fold: TrailerFold::new(VERSION, TAGS.len()),
            sink,
        }
    }

    /// Fold and write out the chunk once it holds [`CHUNK`] bytes.
    fn spill(&mut self) -> Result<(), StoreError> {
        if self.chunk.len() < CHUNK {
            return Ok(());
        }
        self.fold.bytes(&self.chunk[self.open..]);
        self.write_out()
    }

    /// Write the chunk to the sink and start it over.
    fn write_out(&mut self) -> Result<(), StoreError> {
        self.sink
            .write_all(&self.chunk)
            .map_err(io_err(IoOp::Write))?;
        self.chunk.clear();
        self.open = 0;
        Ok(())
    }

    /// Write section `tag`'s frame: the tag, the payload length `len`,
    /// then the payload `put` appends. A payload of any other length is
    /// a typed error, since its header has already been written.
    fn section(
        &mut self,
        tag: u8,
        len: usize,
        put: impl FnOnce(&mut Self) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        put_u8(&mut self.chunk, tag);
        put_u32(&mut self.chunk, len as u32);
        self.open = self.chunk.len();
        self.fold.begin(tag, len);
        put(self)?;
        self.fold.bytes(&self.chunk[self.open..]);
        self.open = self.chunk.len();
        let written = self.fold.end();
        if written != len {
            return Err(StoreError::SectionLength {
                tag,
                declared: len as u64,
                written: written as u64,
            });
        }
        Ok(())
    }
}

/// Stream `cp` into `w` as one version-3 `SYBS` file: the header, each
/// section's frame in tag order, the trailer, then a flush. No buffer
/// larger than a chunk is built, whatever the checkpoint's size.
pub(crate) fn write_checkpoint(
    cp: &SessionCheckpoint,
    mut w: impl Write,
) -> Result<(), StoreError> {
    let mut c = Chunked::new(&mut w);
    c.chunk.extend_from_slice(&MAGIC);
    put_u32(&mut c.chunk, VERSION);
    put_u32(&mut c.chunk, TAGS.len() as u32);
    for tag in TAGS {
        c.section(tag, section_len(tag, cp), |c| put_section(c, tag, cp))?;
    }
    put_u64(&mut c.chunk, c.fold.d.finish());
    c.write_out()?;
    w.flush().map_err(io_err(IoOp::Write))
}

/// The checkpoint as one `SYBS` byte stream: `write_checkpoint` into a
/// `Vec` of the file's exact size.
pub fn encode_checkpoint(cp: &SessionCheckpoint) -> Vec<u8> {
    let body: usize = TAGS.iter().map(|&tag| 5 + section_len(tag, cp)).sum();
    let mut out = Vec::with_capacity(12 + body + 8);
    write_checkpoint(cp, &mut out).expect("a Vec takes every write and each section_len is exact");
    out
}

/// Decode a version-1, -2 or -3 `SYBS` byte stream back into a
/// checkpoint, verifying the trailer digest and rejecting unknown,
/// duplicate, or out-of-order sections. A v1 or v2 file's edge times
/// are dropped.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<SessionCheckpoint, StoreError> {
    let mut f = Fields::new(bytes, 0);
    let magic = f.take(4)?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic);
        return Err(StoreError::BadMagic { found });
    }
    let version = f.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
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
    let sections = map.iter().map(|(&tag, &(_, payload))| (tag, payload));
    let found = trailer_digest(version, sections);
    if found != expected {
        return Err(StoreError::DigestMismatch { expected, found });
    }

    let (epochs, n_shards) = whole(&map, TAG_META, |f| Ok((f.u64()?, f.u32()? as usize)))?;
    let shards = whole(&map, TAG_SHARDS, |f| {
        let n_shards = f.fits(n_shards, SHARD_MIN)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push(get_shard(f)?);
        }
        Ok(shards)
    })?;

    let folded_edges = whole(&map, TAG_FOLDED, |f| get_edges(f, version))?;
    let staged_edges = whole(&map, TAG_STAGED, |f| get_edges(f, version))?;

    let tagged = whole(&map, TAG_TAGGED, |f| {
        f.counted(TAGGED_LEN, |f| {
            let seq = f.u64()?;
            let account = NodeId(f.u32()?);
            let at = Timestamp(f.u64()?);
            let correct = f.bool()?;
            Ok((
                seq,
                Detection {
                    account,
                    at,
                    correct,
                },
            ))
        })
    })?;

    let carry_feedback = whole(&map, TAG_CARRY, |f| f.counted(FEEDBACK_LEN, get_feedback))?;

    let totals = whole(&map, TAG_TOTALS, |f| {
        Ok(ReplayCounters {
            events_processed: f.u64()?,
            checks_run: f.u64()?,
            detections: f.u64()?,
            features_computed: f.u64()?,
            feedback_applied: f.u64()?,
            audits_sampled: f.u64()?,
        })
    })?;

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

/// Decode section `tag` of a verified file with `get`, which must read
/// the payload to its last byte: anything left over is not the canonical
/// encoding, and a typed error at the first unread byte.
fn whole<'a, T>(
    map: &BTreeMap<u8, (u64, &'a [u8])>,
    tag: u8,
    get: impl FnOnce(&mut Fields<'a>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let &(base, payload) = map.get(&tag).ok_or(StoreError::MissingSection { tag })?;
    let mut f = Fields::new(payload, base);
    let value = get(&mut f)?;
    if !f.done() {
        return Err(StoreError::BadField { offset: f.offset() });
    }
    Ok(value)
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

/// Save `cp` to `path` atomically: the checkpoint is streamed into a
/// temporary sibling, which is then renamed over the final name, so a
/// crash at any point leaves either the old file or the complete new one
/// under the final name — never a torn checkpoint. The writer's own
/// chunk is the write buffer. There is no fsync here or anywhere else
/// in the crate (see the module's durability contract): a checkpoint is
/// a recovery *accelerator* over the journal, and one lost or torn by
/// power failure is caught by its trailer digest, so recovery falls back
/// to an older one plus a longer journal tail.
pub(crate) fn save_checkpoint(path: &Path, cp: &SessionCheckpoint) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let file = File::create(&tmp).map_err(io_err(IoOp::Write))?;
    write_checkpoint(cp, file)?;
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
    use proptest::prelude::*;
    use sybil_core::realtime::state::{AccountState, MAX_TRACKED_FRIENDS};
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

    /// What `put` writes through a checkpoint writer over a `Vec`.
    fn written(put: impl FnOnce(&mut Chunked<'_>) -> Result<(), StoreError>) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Chunked::new(&mut out);
        put(&mut w).expect("a Vec takes every write");
        w.write_out().expect("a Vec takes every write");
        out
    }

    /// A section whose payload is longer or shorter than the length its
    /// frame declared fails the write with both lengths, in any build.
    #[test]
    fn a_section_of_the_wrong_length_is_typed() {
        let mut out = Vec::new();
        let mut w = Chunked::new(&mut out);
        let short = w.section(TAG_META, 12, |w| {
            put_u64(&mut w.chunk, 4);
            Ok(())
        });
        let (tag, declared, written) = (TAG_META, 12, 8);
        let want = StoreError::SectionLength {
            tag,
            declared,
            written,
        };
        assert_eq!(short, Err(want));
        let long = w.section(TAG_TOTALS, 48, |w| {
            (0..7).for_each(|v| put_u64(&mut w.chunk, v));
            Ok(())
        });
        let (tag, declared, written) = (TAG_TOTALS, 48, 56);
        let want = StoreError::SectionLength {
            tag,
            declared,
            written,
        };
        assert_eq!(long, Err(want));
    }

    /// `body` (a header and its frames, no trailer) with the trailer its
    /// sections fold to appended.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut f = Fields::new(body, 0);
        f.take(4).unwrap();
        let version = f.u32().unwrap();
        let sections: Vec<(u8, &[u8])> = (0..f.u32().unwrap())
            .map(|_| {
                let tag = f.u8().unwrap();
                let len = f.u32().unwrap() as usize;
                (tag, f.take(len).unwrap())
            })
            .collect();
        let mut out = body.to_vec();
        put_u64(&mut out, trailer_digest(version, sections.into_iter()));
        out
    }

    /// Eight bytes past the totals section's last field, under a
    /// recomputed trailer, are not the canonical encoding: a typed error
    /// at the first unread byte, not the original checkpoint.
    #[test]
    fn leftover_bytes_in_a_section_are_typed() {
        let bytes = encode_checkpoint(&sample_checkpoint());
        assert_eq!(sealed(&bytes[..bytes.len() - 8]), bytes);
        let end = bytes.len() - 8;
        let len_at = end - section_len(TAG_TOTALS, &sample_checkpoint()) - 4;
        let mut body = bytes[..end].to_vec();
        body[len_at..len_at + 4].copy_from_slice(&56u32.to_le_bytes());
        body.extend_from_slice(&[0; 8]);
        let offset = end as u64;
        assert_eq!(
            decode_checkpoint(&sealed(&body)),
            Err(StoreError::BadField { offset })
        );
    }

    /// The trailer fold as the whole-buffer encoder wrote it: every
    /// section's payload read in 8-byte words, the last zero-padded.
    fn reference_digest(version: u32, sections: &[(u8, Vec<u8>)]) -> u64 {
        let mut d = Digest64::new();
        d.write_u32(version);
        d.write_usize(sections.len());
        for (tag, payload) in sections {
            d.write_u32(u32::from(*tag));
            d.write_usize(payload.len());
            for chunk in payload.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                d.write_u64(u64::from_le_bytes(w));
            }
        }
        d.finish()
    }

    /// The v1 account encoder as it was written over records: the
    /// reference the table-side encoder is held to.
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

    /// Three accounts sharing the pools after `ops`, in the shapes of the
    /// table's own reference test: sends piling into one window and
    /// sends that evict (rings grow with wrapped heads and free blocks
    /// others reuse), accepts both ways over a small id range (friend
    /// blocks grow, ids repeat), rejects, detections.
    fn table_after(ops: &[(usize, u8, u32, u8)]) -> AccountTable {
        let (mut t, mut now) = (AccountTable::new(3), 0u64);
        for &(who, kind, id, n) in ops {
            let (sends, gap) = match kind {
                0..=2 => (n, u64::from(id % 2)),
                3..=4 => (n % 6 + 1, [7, 50, 101, 400][id as usize % 4]),
                _ => (0, 0),
            };
            for _ in 0..sends {
                now += gap;
                t.on_send(who, Timestamp(now), 100);
            }
            match kind {
                5..=8 => t.on_accept_out(who, NodeId(id)),
                9..=11 => t.on_accept_in(who, NodeId(id)),
                12 => t.on_reject_out(who),
                13 => t.mark_detected(who),
                _ => {}
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table-side encoder writes exactly the bytes the record
        /// encoder writes for the table's records, sized as
        /// `accounts_len` says; decoding them gives the table back
        /// (equal accounts, packed blocks).
        #[test]
        fn table_encoder_writes_the_record_encoders_bytes(
            ops in proptest::collection::vec((0usize..3, 0u8..14, 0u32..70, 1u8..=40), 1..120),
        ) {
            let table = table_after(&ops);
            let records = table.accounts();
            let mut want = Vec::new();
            put_u32(&mut want, records.len() as u32);
            records.iter().for_each(|r| put_account(&mut want, r));
            let got = written(|w| put_accounts(w, &table));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(accounts_len(&table), got.len());
            let mut f = Fields::new(&got, 0);
            let back = get_accounts(&mut f).expect("a table's own bytes");
            prop_assert!(f.done());
            prop_assert_eq!(back.accounts(), records);
            prop_assert!(back == table);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sections fed to the fold in arbitrary pieces — empty ones,
        /// ones shorter than a pending partial word, ones spanning many
        /// words — fold to the trailer of the same sections fed whole,
        /// which is the whole-buffer encoder's trailer.
        #[test]
        fn a_fold_over_any_chunking_equals_the_fold_over_whole_sections(
            sections in proptest::collection::vec(
                (1u8..8, proptest::collection::vec(any::<u8>(), 0..80)),
                0..8,
            ),
            cuts in proptest::collection::vec(0usize..24, 1..16),
        ) {
            let mut cut = cuts.iter().cycle();
            let mut fold = TrailerFold::new(VERSION, sections.len());
            for (tag, payload) in &sections {
                fold.begin(*tag, payload.len());
                let mut rest = &payload[..];
                while !rest.is_empty() {
                    let (piece, tail) = rest.split_at(rest.len().min(*cut.next().unwrap()));
                    fold.bytes(piece);
                    rest = tail;
                }
                prop_assert_eq!(fold.end(), payload.len());
            }
            let whole = sections.iter().map(|(tag, p)| (*tag, &p[..]));
            let whole = trailer_digest(VERSION, whole);
            prop_assert_eq!(fold.d.finish(), whole);
            prop_assert_eq!(whole, reference_digest(VERSION, &sections));
        }
    }

    /// An account past the friend cap is well-formed bytes but no table
    /// could hold it: a typed error at the account's offset.
    #[test]
    fn an_account_past_the_friend_cap_is_typed() {
        let crowded = AccountState {
            friends: (0..=MAX_TRACKED_FRIENDS as u32).map(NodeId).collect(),
            ..AccountState::default()
        };
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 2);
        put_account(&mut bytes, &AccountState::default());
        put_account(&mut bytes, &crowded);
        let err = get_accounts(&mut Fields::new(&bytes, 100)).unwrap_err();
        let offset = 100 + 4 + ACCOUNT_MIN as u64;
        assert_eq!(err, StoreError::BadField { offset });
    }
}
