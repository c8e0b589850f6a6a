//! Pull-based merged event stream over a [`RequestLog`].
//!
//! The streaming detector (and the sharded serving engine built on it)
//! consumes the simulation's friend-request history as one chronological
//! stream of *send* and *decision* events. The seed implementation
//! materialized that merge as a `Vec` twice the log's length before the
//! first event could be processed; [`EventStream`] instead merges lazily,
//! so a consumer that batches by epoch only ever buffers one epoch of
//! events.
//!
//! Ordering contract (load-bearing for detector determinism):
//!
//! 1. events are ordered by timestamp;
//! 2. at equal timestamps, sends come before decisions (a request cannot
//!    be answered before it exists);
//! 3. ties within a kind break by log-record index.
//!
//! This is exactly the order the seed's stable `sort_by_key((t, kind))`
//! produced, so replaying through the stream is bit-identical.
//!
//! Two mergers live here. [`EventStream`] (the sequential replay's path,
//! and the tests' oracle) sorts a `(decided_at, index)` key per resolved
//! request up front, with the radix sort the calendar uses, keeps a `u32`
//! index per resolved request, and honors even pathological logs whose
//! decisions precede their sends. [`EpochBatches`] (the serving engine's
//! path) materializes nothing proportional to the log: it hands out one
//! absolute-grid epoch at a time, merging that cell's contiguous run of
//! sends with the decisions an *epoch calendar* filed under the cell as
//! their sends went by — so the only state is the decisions in flight.
//! Both yield the identical event sequence on well-formed logs (see
//! [`EpochBatches`] for the argument and the contract), so replay and
//! serve stay bit-identical.

use crate::log::RequestLog;
use osn_graph::Timestamp;
use std::mem::take;

/// What happened at one point of the merged stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEventKind {
    /// Request `record` (index into the log) was sent.
    Sent(u32),
    /// Request `record` was decided (accepted or rejected).
    Decided(u32),
}

/// One event of the merged send/decision stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamEvent {
    /// Global position in the merged stream (0-based, gap-free). Two
    /// engines iterating the same log agree on every event's `seq`, which
    /// is what makes cross-shard merges deterministic.
    pub seq: u64,
    /// When the event happened.
    pub at: Timestamp,
    /// What happened.
    pub kind: StreamEventKind,
}

/// Lazy merge iterator over a log's sends and decisions.
///
/// Construction sorts one key per resolved request and keeps its `u32`
/// record index; the event structs themselves are produced on demand.
pub struct EventStream<'a> {
    log: &'a RequestLog,
    /// Next unsent record (records are already in `sent_at` order).
    send_cursor: usize,
    /// Resolved record indices ordered by `(decided_at, index)`.
    decided: Vec<u32>,
    decide_cursor: usize,
    next_seq: u64,
}

impl<'a> EventStream<'a> {
    /// Build the stream for `log`: sort `(decided_at, index)` keys once,
    /// then keep only the indices.
    pub fn new(log: &'a RequestLog) -> Self {
        let records = log.records().iter().enumerate();
        let mut keys: Vec<(Timestamp, u32)> = records
            .filter_map(|(i, r)| Some((r.outcome.decided_at()?, i as u32)))
            .collect();
        // Collected in index order, so a stable sort by time breaks ties
        // by index.
        sort_by_time(&mut keys, &mut Vec::new(), |k| k.0);
        let decided = keys.iter().map(|k| k.1).collect();
        EventStream {
            log,
            send_cursor: 0,
            decided,
            decide_cursor: 0,
            next_seq: 0,
        }
    }
}

/// Decision time of resolved record `i` (caller guarantees resolution).
fn decide_time(log: &RequestLog, i: u32) -> Timestamp {
    log.get(i as usize)
        .outcome
        .decided_at()
        .unwrap_or(Timestamp::ZERO)
}

impl Iterator for EventStream<'_> {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        let send_at =
            (self.send_cursor < self.log.len()).then(|| self.log.get(self.send_cursor).sent_at);
        let decide_at = self
            .decided
            .get(self.decide_cursor)
            .map(|&i| decide_time(self.log, i));
        let take_send = match (send_at, decide_at) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            // Sends win ties: a request exists before it is answered.
            (Some(s), Some(d)) => s <= d,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(if take_send {
            let i = self.send_cursor;
            self.send_cursor += 1;
            StreamEvent {
                seq,
                at: self.log.get(i).sent_at,
                kind: StreamEventKind::Sent(i as u32),
            }
        } else {
            let i = self.decided[self.decide_cursor];
            self.decide_cursor += 1;
            StreamEvent {
                seq,
                at: decide_time(self.log, i),
                kind: StreamEventKind::Decided(i),
            }
        })
    }
}

/// Endpoints and outcome of the record behind a [`StreamEvent`], emitted
/// alongside it by [`EpochBatches::next_epoch`]. Engines that process
/// tens of millions of events per second read these three fields from a
/// hot sequential array instead of chasing the record in the log (a
/// guaranteed cache miss for decisions, whose records were appended at
/// send time, long out of cache).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventDetail {
    /// Sender of the underlying request.
    pub from: u32,
    /// Recipient of the underlying request.
    pub to: u32,
    /// For `Decided` events: whether the request was accepted. Always
    /// `false` for `Sent` events.
    pub accepted: bool,
}

/// A decision in flight: when it falls due, its record, and the detail
/// it will be emitted with (so the cache-cold record is never re-read).
type Due = (Timestamp, u32, EventDetail);

/// Sort `bucket` by `time`, stably: a bucket filled in record order comes
/// out in `(time, record)` order. A least-significant-digit radix sort,
/// whose digits cover the bucket's own time span — two counting passes
/// for a span of one cell, never more than six — with `scratch` as the
/// other half of its ping-pong.
fn sort_by_time<T: Copy>(
    bucket: &mut Vec<T>,
    scratch: &mut Vec<T>,
    time: impl Fn(&T) -> Timestamp,
) {
    const BITS: u32 = 11;
    let times = || bucket.iter().map(|d| time(d).as_secs());
    let (Some(lo), Some(hi)) = (times().min(), times().max()) else {
        return;
    };
    let mut shift = 0;
    while shift < u64::BITS && (hi - lo) >> shift > 0 {
        let digit = |d: &T| ((time(d).as_secs() - lo) >> shift) as usize & ((1 << BITS) - 1);
        // Count each digit, turn the counts into first slots, scatter.
        let mut slots = [0usize; 1 << BITS];
        for d in bucket.iter() {
            slots[digit(d)] += 1;
        }
        let mut sum = 0;
        for slot in slots.iter_mut() {
            sum += std::mem::replace(slot, sum);
        }
        scratch.clear();
        scratch.resize(bucket.len(), bucket[0]);
        for d in bucket.iter() {
            let slot = &mut slots[digit(d)];
            scratch[*slot] = *d;
            *slot += 1;
        }
        std::mem::swap(bucket, scratch);
        shift += BITS;
    }
}

/// The merged stream in epoch-sized batches on an absolute time grid
/// (`epoch_s`-second cells anchored at 0, so boundaries are independent
/// of where previous epochs happened to end), for **well-formed** logs:
/// records in nondecreasing `sent_at` order, every decision at or after
/// its send. That is the discrete-event engine's invariant, and
/// `io::import_dataset` rejects files that break it.
///
/// A cell's sends are one contiguous run of the send-ordered log. As a
/// run is walked, each resolved send files its decision in the *epoch
/// calendar* under the cell it falls due in; [`next_epoch`] takes the
/// earlier of the next send's cell and the first calendar entry, sorts
/// that one bucket by `(time, record)` (a stable radix sort by time: it
/// filled in record order) and two-way merges it with the run, sends
/// winning ties, numbering events as it goes. The calendar
/// holds only non-empty cells and recycles drained buckets, so the
/// working set is the decisions in flight (bounded by the decision-delay
/// window, not the log length) plus one epoch of events. Each event comes
/// with its [`EventDetail`] in a parallel slice, so per-event consumers
/// read endpoints and outcomes from hot sequential memory, not the log.
/// [`next_epoch`] lends buffers the stream owns; [`next_epoch_into`]
/// fills the caller's, so a caller can keep one epoch while it pulls the
/// next (the serving engine does, beside its index pass).
///
/// Why this is exactly [`EventStream`]'s sequence: that order is `(time,
/// sends before decisions, record)`, so it visits grid cells in order and
/// within a cell is the merge of the cell's sends (already in `(time,
/// record)` order) with the cell's decisions sorted by `(time, record)`.
/// By well-formedness every decision due in a cell was sent in that cell
/// or an earlier one, so it has been filed by the time the cell's run has
/// been walked — the bucket *is* the cell's decision set.
///
/// Outside the contract nothing panics or over-allocates, but the order
/// is unspecified: a decision "due" before the cell its send sits in is
/// filed under that cell (it cannot join a batch already handed out).
/// Only [`EventStream`] reproduces a pure time-sort for such logs.
///
/// [`next_epoch`]: EpochBatches::next_epoch
/// [`next_epoch_into`]: EpochBatches::next_epoch_into
pub struct EpochBatches<'a> {
    log: &'a RequestLog,
    epoch_s: u64,
    /// Next unsent record (records are already in `sent_at` order).
    send_cursor: usize,
    /// The epoch calendar: in-flight decisions by the grid cell they fall
    /// due in, as `(cell, bucket)` ascending by cell, no bucket empty.
    calendar: Vec<(u64, Vec<Due>)>,
    /// Drained buckets, kept for their capacity.
    spare: Vec<Vec<Due>>,
    /// The other half of [`sort_by_time`]'s ping-pong.
    sort_scratch: Vec<Due>,
    next_seq: u64,
    /// [`Self::next_epoch`]'s buffers.
    buf: Vec<StreamEvent>,
    details: Vec<EventDetail>,
}

impl<'a> EpochBatches<'a> {
    /// Batch `log`'s merged events into `epoch_s`-second epochs.
    pub fn new(log: &'a RequestLog, epoch_s: u64) -> Self {
        debug_assert!(epoch_s > 0);
        EpochBatches {
            log,
            epoch_s,
            send_cursor: 0,
            calendar: Vec::new(),
            spare: Vec::new(),
            sort_scratch: Vec::new(),
            next_seq: 0,
            buf: Vec::new(),
            details: Vec::new(),
        }
    }

    /// The next non-empty epoch's events and their parallel details, or
    /// `None` at end of stream. The returned slices are valid until the
    /// next call (the buffers are reused). A thin wrapper over
    /// [`Self::next_epoch_into`] with buffers this stream owns.
    #[allow(clippy::should_implement_trait)]
    pub fn next_epoch(&mut self) -> Option<(&[StreamEvent], &[EventDetail])> {
        let (mut events, mut details) = (take(&mut self.buf), take(&mut self.details));
        let more = self.next_epoch_into(&mut events, &mut details);
        (self.buf, self.details) = (events, details);
        more.then_some((&self.buf, &self.details))
    }

    /// Fill caller-owned `events` and `details` (cleared first) with the
    /// next non-empty epoch; `false` at end of stream, buffers left
    /// empty. A caller holding two pairs of buffers can fill one while
    /// it works through the other.
    pub fn next_epoch_into(
        &mut self,
        events: &mut Vec<StreamEvent>,
        details: &mut Vec<EventDetail>,
    ) -> bool {
        events.clear();
        details.clear();
        let records = self.log.records();
        let send_cell = records
            .get(self.send_cursor)
            .map(|r| r.sent_at.as_secs() / self.epoch_s);
        let first_due = self.calendar.first().map(|b| b.0);
        let Some(cell) = send_cell.into_iter().chain(first_due).min() else {
            return false;
        };
        // Inclusive, so a cell that reaches past `u64::MAX` still ends.
        let cell_last = (cell * self.epoch_s).saturating_add(self.epoch_s - 1);

        // Walk the cell's run of sends, filing each decision under the
        // cell it falls due in (this one included).
        let run_start = self.send_cursor;
        let mut run_end = run_start;
        while let Some(r) = records
            .get(run_end)
            .filter(|r| r.sent_at.as_secs() <= cell_last)
        {
            if let Some(d) = r.outcome.decided_at() {
                // At or before this cell's end means this cell: it is
                // the earliest batch the decision can still join.
                let due_cell = if d.as_secs() <= cell_last {
                    cell
                } else {
                    d.as_secs() / self.epoch_s
                };
                let at = self.calendar.partition_point(|b| b.0 < due_cell);
                if self.calendar.get(at).is_none_or(|b| b.0 != due_cell) {
                    let recycled = self.spare.pop().unwrap_or_default();
                    self.calendar.insert(at, (due_cell, recycled));
                }
                let detail = EventDetail {
                    from: r.from.0,
                    to: r.to.0,
                    accepted: r.outcome.is_accepted(),
                };
                let bucket = &mut self.calendar[at].1;
                // Record ids are u32 by the log's id contract.
                bucket.push((d, run_end as u32, detail));
            }
            run_end += 1;
        }
        self.send_cursor = run_end;

        let mut bucket = match self.calendar.first() {
            Some(b) if b.0 == cell => self.calendar.remove(0).1,
            _ => Vec::new(),
        };
        sort_by_time(&mut bucket, &mut self.sort_scratch, |d| d.0);
        let next_seq = &mut self.next_seq;
        let mut emit = |at, kind, detail| {
            let seq = *next_seq;
            events.push(StreamEvent { seq, at, kind });
            details.push(detail);
            *next_seq += 1;
        };
        let mut due = bucket.iter().peekable();
        for (i, r) in (run_start..run_end).zip(&records[run_start..run_end]) {
            // Sends win ties: a request exists before it is answered.
            while let Some(&(t, j, detail)) = due.next_if(|d| d.0 < r.sent_at) {
                emit(t, StreamEventKind::Decided(j), detail);
            }
            let detail = EventDetail {
                from: r.from.0,
                to: r.to.0,
                accepted: false,
            };
            emit(r.sent_at, StreamEventKind::Sent(i as u32), detail);
        }
        for &(t, j, detail) in due {
            emit(t, StreamEventKind::Decided(j), detail);
        }
        // A cell without decisions took no bucket: nothing to recycle.
        if bucket.capacity() > 0 {
            bucket.clear();
            self.spare.push(bucket);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestOutcome, RequestRecord};
    use osn_graph::NodeId;

    /// `(from, to, sent_h, Some((decided_h, accepted)))` rows.
    type Row = (u32, u32, u64, Option<(u64, bool)>);

    fn log_with(rows: &[Row]) -> RequestLog {
        let mut log = RequestLog::new();
        for &(from, to, sent_h, decision) in rows {
            let idx = log.push(RequestRecord {
                from: NodeId(from),
                to: NodeId(to),
                sent_at: Timestamp::from_hours(sent_h),
                outcome: RequestOutcome::Pending,
            });
            if let Some((at_h, accepted)) = decision {
                let t = Timestamp::from_hours(at_h);
                log.resolve(
                    idx,
                    if accepted {
                        RequestOutcome::Accepted(t)
                    } else {
                        RequestOutcome::Rejected(t)
                    },
                );
            }
        }
        log
    }

    /// The stream must equal the seed's eager merge: push (t, 0, send) and
    /// (t, 1, decide) tuples, stable-sort by (t, kind).
    fn eager_merge(log: &RequestLog) -> Vec<(Timestamp, u8, u32)> {
        let mut events: Vec<(Timestamp, u8, u32)> = Vec::new();
        for (i, r) in log.records().iter().enumerate() {
            events.push((r.sent_at, 0, i as u32));
            if let Some(t) = r.outcome.decided_at() {
                events.push((t, 1, i as u32));
            }
        }
        events.sort_by_key(|&(t, k, _)| (t, k));
        events
    }

    #[test]
    fn matches_eager_merge_order() {
        let log = log_with(&[
            (0, 1, 1, Some((5, true))),
            (0, 2, 2, Some((2, false))), // decided at same hour as a send
            (1, 3, 2, None),             // pending forever
            (2, 4, 3, Some((3, true))),  // decided the hour it was sent
            (3, 5, 9, Some((4, true))),  // decided "before" sent_at cannot
                                         // happen in real logs; skip
        ]);
        let got: Vec<(Timestamp, u8, u32)> = EventStream::new(&log)
            .map(|e| match e.kind {
                StreamEventKind::Sent(i) => (e.at, 0, i),
                StreamEventKind::Decided(i) => (e.at, 1, i),
            })
            .collect();
        // Record 4's decision time (hour 4) precedes its send (hour 9); the
        // eager merge sorts purely by time, so both agree on that order too.
        assert_eq!(got, eager_merge(&log));
    }

    #[test]
    fn seq_is_dense_and_total_matches() {
        let log = log_with(&[
            (0, 1, 1, Some((2, true))),
            (1, 2, 3, None),
            (2, 3, 4, Some((8, false))),
        ]);
        // Three sends and the two resolved records' decisions.
        let events: Vec<StreamEvent> = EventStream::new(&log).collect();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    /// Drain `EpochBatches`, checking what every batch must satisfy —
    /// non-empty, one grid cell, details that match the records, dense
    /// `seq` — and return the concatenation.
    fn batched(log: &RequestLog, epoch_s: u64) -> Vec<StreamEvent> {
        let mut batches = EpochBatches::new(log, epoch_s);
        let mut cat: Vec<StreamEvent> = Vec::new();
        while let Some((events, details)) = batches.next_epoch() {
            assert!(!events.is_empty());
            assert_eq!(events.len(), details.len());
            let cell = events[0].at.as_secs() / epoch_s;
            assert!(
                events.iter().all(|e| e.at.as_secs() / epoch_s == cell),
                "one grid cell per batch"
            );
            for (ev, d) in events.iter().zip(details) {
                let (i, decided) = match ev.kind {
                    StreamEventKind::Sent(i) => (i, false),
                    StreamEventKind::Decided(i) => (i, true),
                };
                let r = log.get(i as usize);
                assert_eq!((d.from, d.to), (r.from.0, r.to.0));
                assert_eq!(d.accepted, decided && r.outcome.is_accepted());
            }
            cat.extend_from_slice(events);
        }
        for (i, e) in cat.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        cat
    }

    /// Filling two caller-owned buffer pairs in turn — the serving
    /// engine's pattern — yields `next_epoch`'s batches, details
    /// included; end of stream leaves the buffers empty.
    #[test]
    fn next_epoch_into_alternating_buffers_equals_next_epoch() {
        let log = log_with(&[
            (0, 1, 1, Some((5, true))),
            (1, 2, 2, Some((90, false))),
            (2, 3, 40, None),
            (3, 4, 41, Some((41, true))),
            (4, 5, 41, Some((60, true))),
        ]);
        let mut lent = EpochBatches::new(&log, 24 * 3600);
        let mut want = Vec::new();
        while let Some((events, details)) = lent.next_epoch() {
            want.push((events.to_vec(), details.to_vec()));
        }
        let mut filled = EpochBatches::new(&log, 24 * 3600);
        let mut bufs: [(Vec<StreamEvent>, Vec<EventDetail>); 2] = Default::default();
        let mut got = Vec::new();
        for k in 0.. {
            let (events, details) = &mut bufs[k % 2];
            if !filled.next_epoch_into(events, details) {
                assert!(events.is_empty() && details.is_empty());
                break;
            }
            got.push((events.clone(), details.clone()));
        }
        assert_eq!(got, want);
        assert!(want.len() >= 3, "both buffers are reused");
    }

    #[test]
    fn empty_log_yields_nothing() {
        let log = RequestLog::new();
        assert_eq!(EventStream::new(&log).count(), 0);
        assert!(EpochBatches::new(&log, 3600).next_epoch().is_none());
    }

    /// On well-formed logs (decisions at or after sends) the calendar
    /// merge must reproduce `EventStream` event for event, at any epoch
    /// length.
    #[test]
    fn pull_stream_matches_event_stream_on_well_formed_logs() {
        let log = log_with(&[
            (0, 1, 1, Some((5, true))),
            (0, 2, 2, Some((2, false))), // decided the hour it was sent
            (1, 3, 2, None),             // pending forever
            (2, 4, 3, Some((3, true))),
            (3, 5, 3, Some((4, true))), // same send hour, later decision
            (4, 6, 9, Some((9, false))),
        ]);
        let eager: Vec<StreamEvent> = EventStream::new(&log).collect();
        for epoch_s in [1, 3600, 2 * 3600, 24 * 3600] {
            assert_eq!(batched(&log, epoch_s), eager, "epoch_s {epoch_s}");
        }
    }

    /// Randomized well-formed logs: same equivalence, denser tie pressure.
    #[test]
    fn pull_stream_matches_event_stream_randomized() {
        // Tiny deterministic LCG; no external entropy.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..50 {
            let mut rows: Vec<Row> = Vec::new();
            let mut h = 0u64;
            for _ in 0..next(40) {
                h += next(3); // nondecreasing send hours with heavy ties
                let decision = match next(4) {
                    0 => None,
                    _ => Some((h + next(6), next(2) == 0)),
                };
                rows.push((next(8) as u32, next(8) as u32, h, decision));
            }
            let log = log_with(&rows);
            let eager: Vec<StreamEvent> = EventStream::new(&log).collect();
            assert_eq!(batched(&log, (1 + next(5)) * 3600), eager);
        }
    }

    /// Epoch batches concatenate to the full stream, cells lie on the
    /// absolute grid, and no batch is empty.
    #[test]
    fn epoch_batches_tile_the_stream() {
        let log = log_with(&[
            (0, 1, 1, Some((5, true))),
            (1, 2, 2, Some((90, false))), // decision far in the future
            (2, 3, 40, None),
            (3, 4, 41, Some((41, true))),
        ]);
        let all: Vec<StreamEvent> = EventStream::new(&log).collect();
        assert_eq!(batched(&log, 24 * 3600), all);
    }

    /// A log outside the contract — decisions "due" long before the cell
    /// their send sits in, and one due at the end of time — must neither
    /// index the calendar below its first cell nor size it by the time
    /// span: every event still comes out exactly once, and the calendar
    /// never holds more buckets than decisions in flight. (No
    /// `debug_assert` guards this path, so debug and release agree.)
    #[test]
    fn ill_formed_log_neither_panics_nor_sizes_the_calendar_by_time() {
        let far = u64::MAX / 3600;
        let log = log_with(&[
            (0, 1, 1_000_000, Some((0, true))),    // due a million cells early
            (1, 2, 1_000_000, Some((far, false))), // due at the end of time
            (2, 3, 1_000_001, Some((999_999, true))), // one cell early
            (3, 4, 2_000_000, Some((5, false))),
        ]);
        let mut batches = EpochBatches::new(&log, 3600);
        let (mut sends, mut decisions, mut seq) = (0, 0, 0u64);
        while let Some((events, _)) = batches.next_epoch() {
            for ev in events {
                assert_eq!(ev.seq, seq);
                seq += 1;
                match ev.kind {
                    StreamEventKind::Sent(_) => sends += 1,
                    StreamEventKind::Decided(_) => decisions += 1,
                }
            }
            assert!(batches.calendar.len() <= 4);
        }
        assert_eq!((sends, decisions), (4, 4));
    }

    proptest::proptest! {
        /// `EpochBatches` ≡ `EventStream` over arbitrary well-formed logs
        /// × epoch lengths: the concatenated batches are the stream, every
        /// batch sits on one grid cell, `seq` is dense (`batched` checks
        /// the last two). Each step is `(gap shape, gap, delay shape,
        /// delay, outcome)`; the shapes skew the draw toward what the
        /// calendar adds — send gaps of 0 pile up timestamp ties, rare
        /// long gaps leave runs of empty cells, cells holding decisions
        /// but no sends, and a calendar that drains to empty and is
        /// refilled from recycled buckets; long delays reach many cells
        /// ahead.
        #[test]
        fn epoch_batches_equal_event_stream(
            steps in proptest::collection::vec(
                (0u8..8, 0u64..400, 0u8..8, 0u64..1000, 0u8..5),
                0..80
            ),
            epoch_ix in 0usize..6,
        ) {
            let mut rows: Vec<Row> = Vec::new();
            let mut h = 0u64;
            for (k, &(gap_shape, gap, delay_shape, delay, outcome)) in steps.iter().enumerate() {
                h += match gap_shape {
                    0..=3 => 0,
                    4..=6 => gap % 3,
                    _ => gap,
                };
                let delay = match delay_shape {
                    0..=2 => 0,
                    3..=5 => delay % 4,
                    _ => delay,
                };
                // One in five stays pending; the rest split accept/reject.
                let decision = (outcome > 0).then_some((h + delay, outcome % 2 == 0));
                rows.push((k as u32 % 7, k as u32 % 5 + 7, h, decision));
            }
            let log = log_with(&rows);
            let eager: Vec<StreamEvent> = EventStream::new(&log).collect();
            // 5000 h: a bucket's time span then needs a third radix digit.
            let epoch_h = [1u64, 2, 7, 48, 1000, 5000][epoch_ix];
            proptest::prop_assert_eq!(batched(&log, epoch_h * 3600), eager);
        }
    }
}
