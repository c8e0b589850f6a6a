//! The write-ahead epoch journal: a length-prefixed, byte-stable on-disk
//! log of everything a crashed shard needs to reconstruct its
//! `realtime::state` byte-for-byte.
//!
//! ## Format
//!
//! The journal is a header followed by frames. All integers are
//! little-endian; floats are IEEE-754 bit patterns written as `u64`.
//! There is no compression, no varints, and no platform-dependent field
//! (`usize` never appears on disk), so the byte stream is identical
//! across machines — "byte-stable" is load-bearing for the round-trip
//! proptest, which compares replayed state digests against digests
//! committed through these exact bytes.
//!
//! ```text
//! header :=  magic b"SYBJ"  version:u32 (= 2)
//! frame  :=  len:u32  tag:u8  payload[len-1]
//!
//! tag 1 (epoch begin, the write-ahead record):
//!   epoch:u64  n_events:u32  n_feedback:u32
//!   event[n_events]    := seq:u64 at_secs:u64 kind:u8 record:u32
//!                         from:u32 to:u32 accepted:u8
//!   feedback[n_feedback] := seq:u64 intra:u8 due_secs:u64
//!                           f64bits[5]:u64 truth:u8
//! tag 2 (epoch commit): epoch:u64 has_digests:u8 [n:u32 digest[n]:u64]
//! tag 3 (run end):      epochs:u64 n:u32 digest[n]:u64
//! ```
//!
//! A begin record is appended *before* the epoch's shards run; the
//! matching commit follows the barrier merge. Recovery therefore always
//! finds the in-flight epoch's inputs, and every fully-committed epoch
//! carries the per-shard state digests replay is verified against.
//!
//! The version names the digest kind as well as the frames. Version 2's
//! frames are version 1's; its digests digest the account table as a sum
//! of per-account terms (`AccountTable::digest`), where version 1's
//! folded it whole in slot order. A version 1 journal's digests cannot be
//! checked by this engine, so it is refused by version
//! ([`StoreError::VersionMismatch`]), never replayed against the wrong
//! digests.
//!
//! [`Journal`] is generic over any `Read + Write + Seek` store: a real
//! file under a [`StorePlane`](crate::StorePlane), an in-memory
//! `Cursor<Vec<u8>>` for chaos runs and tests. Appending maintains an
//! in-memory offset index so mid-run crash replay seeks straight to a
//! begin record; [`Journal::open`] rebuilds the same index by scanning an
//! existing byte stream, which is what proves the bytes alone suffice.
//! The scan treats those bytes as outside input: a frame length is
//! checked against the stream's length and every count against the
//! frame's, before anything is allocated for either.

use crate::codec::{
    get_event, get_feedback, put_event, put_feedback, put_u32, put_u64, put_u64s, put_u8, Fields,
    EVENT_LEN, FEEDBACK_LEN,
};
use crate::error::{io_err, IoOp, StoreError};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use sybil_serve::fault::{EpochRecord, EpochRecordRef};

/// Journal magic: `b"SYBJ"`.
pub const MAGIC: [u8; 4] = *b"SYBJ";
/// Current format version: 2, the sum-digest journal.
pub const VERSION: u32 = 2;
/// Bytes before the first frame: magic + version.
pub(crate) const HEADER_LEN: u64 = 8;

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_END: u8 = 3;

/// The write-ahead epoch journal over any seekable byte store.
#[derive(Debug)]
pub struct Journal<S> {
    store: S,
    /// Next append offset (== stream length for a well-formed journal).
    end: u64,
    /// Total frame bytes appended by *this* handle (excludes the header
    /// and anything already present at `open`).
    appended: u64,
    /// Offset and length of each epoch's begin frame payload, by epoch.
    begins: BTreeMap<u64, (u64, usize)>,
    /// Committed per-shard digests, by epoch (`None` when the commit
    /// carried no digests).
    commits: BTreeMap<u64, Option<Vec<u64>>>,
    /// Run-end record: (epochs, final per-shard digests).
    finished: Option<(u64, Vec<u64>)>,
    /// The begin-frame buffer, reused from epoch to epoch.
    frame: Vec<u8>,
}

impl<S: Read + Write + Seek> Journal<S> {
    fn empty(store: S) -> Self {
        Journal {
            store,
            end: HEADER_LEN,
            appended: 0,
            begins: BTreeMap::new(),
            commits: BTreeMap::new(),
            finished: None,
            frame: Vec::new(),
        }
    }

    /// Start a fresh journal on `store`, writing the header.
    pub fn create(mut store: S) -> Result<Self, StoreError> {
        store
            .seek(SeekFrom::Start(0))
            .and_then(|_| store.write_all(&MAGIC))
            .and_then(|_| store.write_all(&VERSION.to_le_bytes()))
            .map_err(io_err(IoOp::Write))?;
        Ok(Self::empty(store))
    }

    /// Open an existing journal, validating the header and scanning every
    /// frame to rebuild the offset index. This is the path that proves
    /// the byte stream alone carries recovery: nothing from the writing
    /// process survives except the bytes. A stream that ends inside a
    /// frame is a typed [`StoreError::TruncatedFrame`].
    pub fn open(store: S) -> Result<Self, StoreError> {
        Self::scan(store, false)
    }

    /// [`open`](Self::open), except that a torn tail — the stream ending
    /// inside a frame, as a process killed mid-append leaves it — ends
    /// the scan at the last whole frame instead of failing. The caller
    /// owns cutting the store back to [`len_bytes`](Self::len_bytes).
    pub(crate) fn open_to_last_whole_frame(store: S) -> Result<Self, StoreError> {
        Self::scan(store, true)
    }

    /// Validate the header, then index frames until the stream ends.
    fn scan(mut store: S, torn_tail_ok: bool) -> Result<Self, StoreError> {
        let stream_len = store.seek(SeekFrom::End(0)).map_err(io_err(IoOp::Read))?;
        let mut header = [0u8; HEADER_LEN as usize];
        read_exact_at(&mut store, &mut header, 0)?;
        let mut h = Fields::new(&header, 0);
        let magic = h.take(4)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(StoreError::BadMagic { found });
        }
        let version = h.u32()?;
        if version != VERSION {
            return Err(StoreError::VersionMismatch {
                found: version,
                expected: VERSION,
            });
        }
        let mut j = Self::empty(store);
        while j.end < stream_len {
            let off = j.end;
            let room = stream_len - off;
            let mut lenb = [0u8; 4];
            if room >= 4 {
                read_exact_at(&mut j.store, &mut lenb, off)?;
            }
            // A whole frame has a length that is not zero (one is never
            // written) and that the stream holds; anything else is a
            // torn append. Checked before the frame buffer is sized.
            let len = u64::from(u32::from_le_bytes(lenb));
            if len == 0 || 4 + len > room {
                if torn_tail_ok {
                    break;
                }
                return Err(StoreError::TruncatedFrame { offset: off });
            }
            let mut frame = vec![0u8; len as usize];
            read_exact_at(&mut j.store, &mut frame, off + 4)?;
            j.index_frame(&frame, off + 4)?;
            j.end = off + 4 + len;
        }
        Ok(j)
    }

    /// Absorb one frame (tag + payload) into the index.
    fn index_frame(&mut self, frame: &[u8], base: u64) -> Result<(), StoreError> {
        let mut f = Fields::new(frame, base);
        match f.u8()? {
            TAG_BEGIN => {
                let epoch = f.u64()?;
                // The payload body is decoded lazily by `read_epoch`;
                // only its position is kept here.
                self.begins.insert(epoch, (base, frame.len()));
            }
            TAG_COMMIT => {
                let epoch = f.u64()?;
                let digests = match f.u8()? {
                    0 => None,
                    _ => Some(f.counted(8, Fields::u64)?),
                };
                self.commits.insert(epoch, digests);
            }
            TAG_END => {
                let epochs = f.u64()?;
                self.finished = Some((epochs, f.counted(8, Fields::u64)?));
            }
            _ => return Err(StoreError::BadField { offset: base }),
        }
        Ok(())
    }

    /// Append one frame (tag already in `payload[0]`).
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let off = self.end;
        let len = payload.len() as u32;
        self.store
            .seek(SeekFrom::Start(off))
            .and_then(|_| self.store.write_all(&len.to_le_bytes()))
            .and_then(|_| self.store.write_all(payload))
            .map_err(io_err(IoOp::Write))?;
        let frame_len = 4 + payload.len() as u64;
        self.end += frame_len;
        self.appended += frame_len;
        Ok(off + 4)
    }

    /// Write the epoch-begin (write-ahead) record.
    pub fn append_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), StoreError> {
        // An epoch's frame is 0.7–1.5 MB on the scan stream: one buffer,
        // grown to the largest epoch and kept, instead of a fresh
        // allocation (mapped, first-touched, unmapped) per epoch.
        let mut buf = std::mem::take(&mut self.frame);
        buf.clear();
        buf.reserve(32 + rec.events.len() * EVENT_LEN + rec.feedback.len() * FEEDBACK_LEN);
        put_u8(&mut buf, TAG_BEGIN);
        put_u64(&mut buf, rec.epoch);
        put_u32(&mut buf, rec.events.len() as u32);
        put_u32(&mut buf, rec.feedback.len() as u32);
        for (ev, det) in rec.events.iter().zip(rec.details.iter()) {
            put_event(&mut buf, ev, det);
        }
        for fb in rec.feedback {
            put_feedback(&mut buf, fb);
        }
        let base = self.append(&buf);
        let len = buf.len();
        self.frame = buf;
        self.begins.insert(rec.epoch, (base?, len));
        Ok(())
    }

    /// Write the epoch-commit record, with per-shard digests when taken.
    pub fn append_commit(&mut self, epoch: u64, digests: Option<&[u64]>) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(16 + digests.map_or(0, |d| 4 + d.len() * 8));
        put_u8(&mut buf, TAG_COMMIT);
        put_u64(&mut buf, epoch);
        match digests {
            None => put_u8(&mut buf, 0),
            Some(d) => {
                put_u8(&mut buf, 1);
                put_u64s(&mut buf, d);
            }
        }
        self.append(&buf)?;
        self.commits.insert(epoch, digests.map(<[u64]>::to_vec));
        Ok(())
    }

    /// Write the run-end record with the final per-shard state digests.
    pub fn append_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(16 + digests.len() * 8);
        put_u8(&mut buf, TAG_END);
        put_u64(&mut buf, epochs);
        put_u64s(&mut buf, digests);
        self.append(&buf)?;
        self.finished = Some((epochs, digests.to_vec()));
        Ok(())
    }

    /// Decode epoch `epoch`'s begin record, or `None` if the journal has
    /// no record for it.
    pub fn read_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, StoreError> {
        let Some(&(base, len)) = self.begins.get(&epoch) else {
            return Ok(None);
        };
        let mut frame = vec![0u8; len];
        read_exact_at(&mut self.store, &mut frame, base)?;
        let mut f = Fields::new(&frame, base);
        if f.u8()? != TAG_BEGIN || f.u64()? != epoch {
            return Err(StoreError::BadField { offset: base });
        }
        let n_events = f.count(EVENT_LEN)?;
        let n_feedback = f.count(FEEDBACK_LEN)?;
        let mut events = Vec::with_capacity(n_events);
        let mut details = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let (ev, det) = get_event(&mut f)?;
            events.push(ev);
            details.push(det);
        }
        let mut feedback = Vec::with_capacity(n_feedback);
        for _ in 0..n_feedback {
            feedback.push(get_feedback(&mut f)?);
        }
        Ok(Some(EpochRecord {
            epoch,
            events,
            details,
            feedback,
        }))
    }

    /// Whether `epoch` has both its begin and commit records — i.e. the
    /// barrier fully landed before any crash. Warm restart replays
    /// exactly the committed tail epochs after a checkpoint; an epoch
    /// with a begin but no commit was in flight when the process died
    /// and is re-run live from the stream instead.
    pub fn committed(&self, epoch: u64) -> bool {
        self.begins.contains_key(&epoch) && self.commits.contains_key(&epoch)
    }

    /// The digest committed for `(epoch, shard)`, when one was journaled.
    pub fn committed_digest(&self, epoch: u64, shard: usize) -> Option<u64> {
        self.commits
            .get(&epoch)
            .and_then(|d| d.as_ref())
            .and_then(|d| d.get(shard).copied())
    }

    /// The run-end record, when the run completed: `(epochs, digests)`.
    pub fn finished(&self) -> Option<(u64, &[u64])> {
        self.finished.as_ref().map(|(e, d)| (*e, d.as_slice()))
    }

    /// Epochs with a begin record.
    pub fn epochs_journaled(&self) -> u64 {
        self.begins.len() as u64
    }

    /// Frame bytes appended through this handle (header excluded).
    pub fn bytes_appended(&self) -> u64 {
        self.appended
    }

    /// Total journal length in bytes, header included.
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// The underlying store (the file layer truncates a torn tail
    /// through it).
    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    /// Consume the journal, returning the underlying store.
    pub fn into_store(self) -> S {
        self.store
    }
}

/// `read_exact` at an absolute offset, mapping errors to typed variants.
fn read_exact_at<S: Read + Seek>(
    store: &mut S,
    buf: &mut [u8],
    offset: u64,
) -> Result<(), StoreError> {
    store
        .seek(SeekFrom::Start(offset))
        .map_err(io_err(IoOp::Read))?;
    store.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => StoreError::TruncatedFrame { offset },
        kind => StoreError::Io {
            op: IoOp::Read,
            kind,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::Timestamp;
    use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
    use std::io::Cursor;
    use sybil_features::FeatureVector;
    use sybil_serve::fault::FeedbackRecord;

    fn sample_epoch(epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            events: vec![
                StreamEvent {
                    seq: 7 + epoch,
                    at: Timestamp(3600),
                    kind: StreamEventKind::Sent(4),
                },
                StreamEvent {
                    seq: 8 + epoch,
                    at: Timestamp(4000),
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
            feedback: vec![FeedbackRecord {
                seq: 5,
                intra: 1,
                due: Timestamp(9000),
                features: FeatureVector {
                    inv_freq_1h: 1.5,
                    inv_freq_400h: 0.25,
                    outgoing_accept_ratio: 0.5,
                    incoming_accept_ratio: 1.0,
                    clustering_coefficient: -0.0,
                },
                truth: true,
            }],
        }
    }

    fn write_sample() -> Vec<u8> {
        let mut j = Journal::create(Cursor::new(Vec::new())).unwrap();
        for e in 0..3u64 {
            let rec = sample_epoch(e);
            j.append_begin(EpochRecordRef {
                epoch: e,
                events: &rec.events,
                details: &rec.details,
                feedback: &rec.feedback,
            })
            .unwrap();
            j.append_commit(e, Some(&[10 + e, 20 + e])).unwrap();
        }
        j.append_end(3, &[111, 222]).unwrap();
        j.into_store().into_inner()
    }

    #[test]
    fn round_trips_epoch_records_through_bytes() {
        let bytes = write_sample();
        let mut j = Journal::open(Cursor::new(bytes)).unwrap();
        assert_eq!(j.epochs_journaled(), 3);
        for e in 0..3u64 {
            let rec = j.read_epoch(e).unwrap().unwrap();
            let want = sample_epoch(e);
            assert_eq!(rec.events, want.events);
            assert_eq!(rec.details, want.details);
            assert_eq!(rec.feedback, want.feedback);
            assert_eq!(j.committed_digest(e, 0), Some(10 + e));
            assert_eq!(j.committed_digest(e, 1), Some(20 + e));
            assert_eq!(j.committed_digest(e, 2), None);
        }
        assert!(j.read_epoch(3).unwrap().is_none());
        assert_eq!(j.finished(), Some((3, &[111u64, 222][..])));
    }

    #[test]
    fn byte_stream_is_stable() {
        // Two identical writes produce identical bytes — the format has
        // no timestamps, no platform-dependent widths, no map ordering.
        assert_eq!(write_sample(), write_sample());
    }

    #[test]
    fn truncation_is_typed_not_silent() {
        let bytes = write_sample();
        let cut = bytes.len() - 3;
        let err = Journal::open(Cursor::new(bytes[..cut].to_vec())).unwrap_err();
        assert!(matches!(err, StoreError::TruncatedFrame { .. }), "{err:?}");
    }

    #[test]
    fn torn_tail_scan_stops_at_the_last_whole_frame() {
        let whole = write_sample();
        // A frame cut short, a length cut short, and a zero length are
        // all torn appends; the lenient scan keeps every frame before.
        for tail in [&[100u8, 0, 0, 0, 9, 9][..], &[7, 0], &[0, 0, 0, 0, 1]] {
            let mut torn = whole.clone();
            torn.extend_from_slice(tail);
            let j = Journal::open_to_last_whole_frame(Cursor::new(torn)).unwrap();
            assert_eq!(j.len_bytes(), whole.len() as u64);
            assert_eq!(j.epochs_journaled(), 3);
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert_eq!(
            Journal::open(Cursor::new(b"NOPE\x01\x00\x00\x00".to_vec())).unwrap_err(),
            StoreError::BadMagic { found: *b"NOPE" }
        );
        let mut bytes = write_sample();
        bytes[4] = 9;
        assert_eq!(
            Journal::open(Cursor::new(bytes)).unwrap_err(),
            StoreError::VersionMismatch {
                found: 9,
                expected: VERSION
            }
        );
    }
}
