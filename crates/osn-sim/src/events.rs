//! The discrete-event queue.
//!
//! A binary heap keyed on `(time, sequence)`; the monotonically increasing
//! sequence number makes simultaneous events pop in scheduling order, so
//! runs are fully deterministic.

use osn_graph::Timestamp;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    heap: BinaryHeap<Reverse<(Timestamp, u64, EventSlot)>>,
    seq: u64,
}

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

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at `time`.
    pub fn schedule(&mut self, time: Timestamp, event: Event) {
        self.heap.push(Reverse((time, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Timestamp, Event)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
