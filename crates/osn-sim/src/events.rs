//! The discrete-event queue.
//!
//! Events pop in `(time, sequence)` order; the monotonically increasing
//! sequence number makes simultaneous events pop in scheduling order, so
//! runs are fully deterministic.
//!
//! The queue is an hourly calendar. Only the current hour's events sit in
//! a binary heap; each later hour's events are appended, unordered, to
//! that hour's bucket, and a bucket is heapified (in linear time) when the
//! clock reaches its hour. A paper-scale run keeps ≈160k events pending
//! but only a few thousand per hour, so each push and pop sifts through a
//! heap of one hour's events instead of all of them. Events more than
//! `MAX_BUCKETS` hours ahead of the clock wait in a second heap, whose
//! head competes with the current heap's at every pop, so a far-future
//! time costs no run of empty buckets.

use osn_graph::Timestamp;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Width of one calendar bucket, in seconds.
const BUCKET_SECS: u64 = 3600;

/// Buckets kept ahead of the current hour: 16,384 hours, four times the
/// longest configured run.
const MAX_BUCKETS: u64 = 1 << 14;

/// Everything that can happen in the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A normal user wakes up and (maybe) sends friend requests.
    NormalActivity {
        /// Account index.
        user: u32,
    },
    /// A Sybil's tool runs one burst of friend requests.
    SybilBurst {
        /// Account index.
        sybil: u32,
    },
    /// A recipient answers request `request` in the log.
    Response {
        /// Index into the request log.
        request: u32,
    },
    /// An attacker's shared target queue is refilled by snowball crawling.
    AttackerRefill {
        /// Attacker index.
        attacker: u32,
    },
    /// Renren bans a Sybil.
    Ban {
        /// Account index.
        sybil: u32,
    },
}

/// Priority queue of `(time, event)` with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Events of hour `hour` (and any scheduled earlier), as a heap.
    current: BinaryHeap<Entry>,
    /// `buckets[i]` holds the events of hour `hour + 1 + i`, unordered.
    buckets: VecDeque<Vec<Entry>>,
    /// Events scheduled more than `MAX_BUCKETS` hours past `hour`.
    far: BinaryHeap<Entry>,
    /// The calendar's clock: the hour `current` holds.
    hour: u64,
    len: usize,
    seq: u64,
}

type Entry = Reverse<(Timestamp, u64, EventSlot)>;

// Event wrapped to give it Ord without imposing semantic ordering: events at
// equal (time, seq) never occur because seq is unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EventSlot(Event);

impl PartialOrd for EventSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventSlot {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

#[inline]
fn hour_of(e: &Entry) -> u64 {
    e.0 .0.as_secs() / BUCKET_SECS
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `event` at `time`.
    pub fn schedule(&mut self, time: Timestamp, event: Event) {
        let e = Reverse((time, self.seq, EventSlot(event)));
        self.seq += 1;
        self.len += 1;
        let h = hour_of(&e);
        if h <= self.hour {
            self.current.push(e);
            return;
        }
        let ahead = h - self.hour - 1;
        if ahead >= MAX_BUCKETS {
            self.far.push(e);
            return;
        }
        let i = ahead as usize;
        if self.buckets.len() <= i {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        self.buckets[i].push(e);
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Timestamp, Event)> {
        if self.current.is_empty() {
            self.advance();
        }
        // Every bucketed event is later than every current one, so the
        // earliest event heads `current` or `far` (`Reverse`: the greater
        // entry is the earlier event).
        let from_far = match (self.current.peek(), self.far.peek()) {
            (Some(c), Some(f)) => f > c,
            (None, far) => far.is_some(),
            (Some(_), None) => false,
        };
        let heap = if from_far {
            &mut self.far
        } else {
            &mut self.current
        };
        let Reverse((t, _, e)) = heap.pop()?;
        self.len -= 1;
        Some((t, e.0))
    }

    /// With `current` empty: move the clock to the earliest hour that
    /// holds a bucketed or far event and heapify that hour's bucket into
    /// `current`. A far event of an hour the clock has reached stays in
    /// `far`, for `pop` to take from there.
    fn advance(&mut self) {
        let in_far = self.far.peek().map(hour_of);
        if in_far.is_some_and(|h| h <= self.hour) {
            return;
        }
        let in_buckets = self
            .buckets
            .iter()
            .position(|b| !b.is_empty())
            .map(|i| self.hour + 1 + i as u64);
        let Some(h) = in_buckets.into_iter().chain(in_far).min() else {
            return;
        };
        // The buckets before hour `h` are empty.
        let skip = ((h - self.hour - 1) as usize).min(self.buckets.len());
        self.buckets.drain(..skip);
        self.current = BinaryHeap::from(self.buckets.pop_front().unwrap_or_default());
        self.hour = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Timestamp::from_hours(5), Event::NormalActivity { user: 5 });
        q.schedule(Timestamp::from_hours(1), Event::NormalActivity { user: 1 });
        q.schedule(Timestamp::from_hours(3), Event::NormalActivity { user: 3 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs() / 3600)
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_hours(2);
        for user in 0..5 {
            q.schedule(t, Event::NormalActivity { user });
        }
        let users: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::NormalActivity { user } => user,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(users, vec![0, 1, 2, 3, 4]);
    }

    /// The single binary heap this queue replaced: the reference pop
    /// order, ties included.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(Timestamp, u64, EventSlot)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn schedule(&mut self, time: Timestamp, event: Event) {
            self.heap.push(Reverse((time, self.seq, EventSlot(event))));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(Timestamp, Event)> {
            self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
        }
    }

    /// The time an op schedules at, relative to the last popped time
    /// `now`: at `now` itself, a few seconds on (same-second ties), a few
    /// hours on (the buckets), hundreds of hours on (runs of empty
    /// hours), past the calendar's horizon, or before `now`.
    fn time_for(kind: u8, x: u64, now: u64) -> Timestamp {
        Timestamp(match kind {
            0 => now,
            1 => now.saturating_add(x % 4),
            2 => now.saturating_add(x % (4 * BUCKET_SECS)),
            3 => now.saturating_add(x % (600 * BUCKET_SECS)),
            4 => now.saturating_add(MAX_BUCKETS * BUCKET_SECS + x % (3 * BUCKET_SECS)),
            5 => u64::MAX - x % 8,
            _ => now.saturating_sub(x % (2 * BUCKET_SECS)),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `schedule` and `pop` pop the same
        /// `(time, event)` sequence from the calendar as from the heap,
        /// and both agree on the length throughout.
        #[test]
        fn calendar_pops_as_the_heap_does(
            ops in prop::collection::vec((0u8..10, 0u64..1_000_000_000), 0..400)
        ) {
            let (mut cal, mut heap) = (EventQueue::new(), HeapQueue::default());
            let mut now = 0u64;
            for (i, &(op, x)) in ops.iter().enumerate() {
                if op >= 7 {
                    let got = cal.pop();
                    prop_assert_eq!(got, heap.pop());
                    if let Some((t, _)) = got {
                        now = t.as_secs();
                    }
                } else {
                    let t = time_for(op, x, now);
                    let ev = Event::Response { request: i as u32 };
                    cal.schedule(t, ev);
                    heap.schedule(t, ev);
                }
                prop_assert_eq!(cal.len(), heap.heap.len());
            }
            while let Some(got) = heap.pop() {
                prop_assert_eq!(cal.pop(), Some(got));
            }
            prop_assert!(cal.is_empty());
            prop_assert_eq!(cal.pop(), None);
        }
    }
}
