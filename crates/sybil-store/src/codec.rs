//! The one field/record codec under both on-disk formats (`SYBS`
//! checkpoints in [`format`](crate::format), `SYBJ` journal frames in
//! [`journal`](crate::journal)).
//!
//! All integers are little-endian and width-explicit; floats are
//! IEEE-754 bit patterns written as `u64`; `usize` never appears on
//! disk. Writers append to a `Vec<u8>`; the one reader, [`Fields`],
//! tracks its absolute offset in the stream so every failure names a
//! byte position. Records shared by both formats (feature vectors,
//! feedback records, journaled events) are defined here once.
//!
//! Bytes read back from disk are outside input: every element count goes
//! through [`Fields::count`], which refuses a count the remaining bytes
//! cannot possibly hold *before* anything is allocated for it.

use crate::error::StoreError;
use osn_graph::Timestamp;
use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
use sybil_features::FeatureVector;
use sybil_serve::fault::FeedbackRecord;

/// Encoded size of one [`FeatureVector`].
pub(crate) const FEATURES_LEN: usize = 5 * 8;
/// Encoded size of one [`FeedbackRecord`].
pub(crate) const FEEDBACK_LEN: usize = 8 + 1 + 8 + FEATURES_LEN + 1;
/// Encoded size of one journaled event (event + its parallel detail).
pub(crate) const EVENT_LEN: usize = 8 + 8 + 1 + 4 + 4 + 4 + 1;

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}
pub(crate) fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

/// Little-endian field decoder over a byte slice. Positions are tracked
/// relative to `base` (the slice's offset in the stream) so errors
/// report absolute byte offsets.
pub(crate) struct Fields<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(buf: &'a [u8], base: u64) -> Self {
        Fields { buf, pos: 0, base }
    }

    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(StoreError::TruncatedFrame {
                offset: self.offset(),
            }),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, StoreError> {
        let off = self.offset();
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StoreError::BadField { offset: off }),
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Refuse `n` elements of at least `min_len` encoded bytes each
    /// unless that many bytes remain: a count from disk never sizes an
    /// allocation the input could not fill.
    pub(crate) fn fits(&self, n: usize, min_len: usize) -> Result<usize, StoreError> {
        let remaining = self.buf.len() - self.pos;
        match n.checked_mul(min_len) {
            Some(need) if need <= remaining => Ok(n),
            _ => Err(StoreError::TruncatedFrame {
                offset: self.offset(),
            }),
        }
    }

    /// Read a `u32` element count, bounded by [`fits`](Self::fits).
    pub(crate) fn count(&mut self, min_len: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        self.fits(n, min_len)
    }

    /// Read a counted run: a [`count`](Self::count) of elements at
    /// least `min_len` encoded bytes each, then that many `get`s.
    pub(crate) fn counted<T>(
        &mut self,
        min_len: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        let n = self.count(min_len)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }
}

/// Write a counted run of `u64` words.
pub(crate) fn put_u64s(buf: &mut Vec<u8>, words: &[u64]) {
    put_u32(buf, words.len() as u32);
    for &w in words {
        put_u64(buf, w);
    }
}

pub(crate) fn put_features(buf: &mut Vec<u8>, fv: &FeatureVector) {
    for v in fv.as_array() {
        put_f64(buf, v);
    }
}

pub(crate) fn get_features(f: &mut Fields<'_>) -> Result<FeatureVector, StoreError> {
    Ok(FeatureVector {
        inv_freq_1h: f.f64()?,
        inv_freq_400h: f.f64()?,
        outgoing_accept_ratio: f.f64()?,
        incoming_accept_ratio: f.f64()?,
        clustering_coefficient: f.f64()?,
    })
}

pub(crate) fn put_feedback(buf: &mut Vec<u8>, fb: &FeedbackRecord) {
    put_u64(buf, fb.seq);
    put_u8(buf, fb.intra);
    put_u64(buf, fb.due.as_secs());
    put_features(buf, &fb.features);
    put_bool(buf, fb.truth);
}

pub(crate) fn get_feedback(f: &mut Fields<'_>) -> Result<FeedbackRecord, StoreError> {
    Ok(FeedbackRecord {
        seq: f.u64()?,
        intra: f.u8()?,
        due: Timestamp(f.u64()?),
        features: get_features(f)?,
        truth: f.bool()?,
    })
}

/// Encode one event + its parallel detail: the [`EVENT_LEN`] bytes laid
/// out on the stack and appended as one chunk (one capacity check per
/// event, not one per field — an epoch writes tens of thousands).
pub(crate) fn put_event(buf: &mut Vec<u8>, ev: &StreamEvent, det: &EventDetail) {
    let (kind, record) = match ev.kind {
        StreamEventKind::Sent(r) => (0u8, r),
        StreamEventKind::Decided(r) => (1u8, r),
    };
    let mut b = [0u8; EVENT_LEN];
    b[0..8].copy_from_slice(&ev.seq.to_le_bytes());
    b[8..16].copy_from_slice(&ev.at.as_secs().to_le_bytes());
    b[16] = kind;
    b[17..21].copy_from_slice(&record.to_le_bytes());
    b[21..25].copy_from_slice(&det.from.to_le_bytes());
    b[25..29].copy_from_slice(&det.to.to_le_bytes());
    b[29] = u8::from(det.accepted);
    buf.extend_from_slice(&b);
}

pub(crate) fn get_event(f: &mut Fields<'_>) -> Result<(StreamEvent, EventDetail), StoreError> {
    let seq = f.u64()?;
    let at = Timestamp(f.u64()?);
    let kind_off = f.offset();
    let kind_tag = f.u8()?;
    let record = f.u32()?;
    let kind = match kind_tag {
        0 => StreamEventKind::Sent(record),
        1 => StreamEventKind::Decided(record),
        _ => return Err(StoreError::BadField { offset: kind_off }),
    };
    let from = f.u32()?;
    let to = f.u32()?;
    let accepted = f.bool()?;
    Ok((
        StreamEvent { seq, at, kind },
        EventDetail { from, to, accepted },
    ))
}
