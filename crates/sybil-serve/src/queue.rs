//! Bounded SPSC delta queues for cross-shard effects.
//!
//! During an epoch every shard stages its outward-visible effects —
//! detections and verification feedback — in these queues; the coordinator
//! drains them after the epoch barrier. Each queue has exactly one
//! producer (the shard, inside the parallel region) and one consumer (the
//! coordinator, after the join), and the two *never run concurrently*:
//! the barrier is the synchronization point, so no locks or atomics are
//! needed and the parallel substrate's D003 policy holds.
//!
//! What the queue does enforce is **boundedness**. The coordinator sizes
//! each queue from epoch invariants (a shard can detect at most its owned
//! account count; audits are capped by the epoch's event count over the
//! audit cadence), so an overflow means an engine invariant is broken —
//! the producer reports it as an error rather than growing silently or
//! blocking (blocking inside a barrier-synchronized region would
//! deadlock). Workspace lint rule D003 keeps channels (`mpsc`) out of
//! every other module.

/// The exact stream position at which a queue overflowed: which epoch,
/// which shard, and the global event `seq` whose staged effect did not
/// fit. Chaos attribution matches injected overflow faults against this
/// site, so a fault-induced overflow is never confused with a genuine
/// engine-invariant break elsewhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverflowSite {
    /// Epoch number (0-based barrier count) of the failing push.
    pub epoch: u64,
    /// Shard whose staging queue overflowed.
    pub shard: usize,
    /// Global stream `seq` of the event that produced the effect.
    pub seq: u64,
}

/// Error returned when a push would exceed the queue's fixed capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// The capacity that would have been exceeded.
    pub capacity: usize,
    /// Where the overflow happened. The queue itself knows only its
    /// capacity; the producing shard stamps the site on the way out (it
    /// alone knows the epoch/shard/seq coordinates), so `None` survives
    /// only in code that pushes outside an epoch scan (tests, mostly).
    pub site: Option<OverflowSite>,
}

impl QueueFull {
    /// Bare overflow error, site unknown.
    pub fn at_capacity(capacity: usize) -> Self {
        QueueFull {
            capacity,
            site: None,
        }
    }

    /// The same error stamped with the offending `(epoch, shard, seq)`.
    #[inline]
    pub fn at(self, epoch: u64, shard: usize, seq: u64) -> Self {
        QueueFull {
            capacity: self.capacity,
            site: Some(OverflowSite { epoch, shard, seq }),
        }
    }
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.site {
            Some(s) => write!(
                f,
                "delta queue overflow (capacity {}) at epoch {}, shard {}, seq {}",
                self.capacity, s.epoch, s.shard, s.seq
            ),
            None => write!(f, "delta queue overflow (capacity {})", self.capacity),
        }
    }
}

impl std::error::Error for QueueFull {}

/// A bounded single-producer/single-consumer FIFO drained at epoch
/// barriers. Capacity is fixed at construction; [`push`](DeltaQueue::push)
/// fails instead of reallocating past it.
#[derive(Debug)]
pub struct DeltaQueue<T> {
    items: Vec<T>,
    capacity: usize,
}

impl<T> DeltaQueue<T> {
    /// Queue holding at most `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        DeltaQueue {
            items: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Append an item, failing when the queue is at capacity.
    pub fn push(&mut self, item: T) -> Result<(), QueueFull> {
        if self.items.len() >= self.capacity {
            return Err(QueueFull::at_capacity(self.capacity));
        }
        self.items.push(item);
        Ok(())
    }

    /// Items staged so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Consume the queue, yielding the staged items in push order — the
    /// coordinator's drain at the epoch barrier.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_respects_capacity_and_preserves_order() {
        let mut q = DeltaQueue::with_capacity(2);
        assert!(q.is_empty());
        q.push(10).unwrap();
        q.push(20).unwrap();
        assert_eq!(q.push(30), Err(QueueFull::at_capacity(2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.into_items(), vec![10, 20]);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut q = DeltaQueue::with_capacity(0);
        assert_eq!(q.push(1u8), Err(QueueFull::at_capacity(0)));
    }

    /// The enriched error path: a bare overflow carries no site; the
    /// producer's `.at(...)` stamp attaches the exact `(epoch, shard,
    /// seq)` and both spellings render distinctly.
    #[test]
    fn overflow_site_enrichment_round_trips() {
        let mut q = DeltaQueue::with_capacity(1);
        q.push(1u8).unwrap();
        let bare = q.push(2u8).unwrap_err();
        assert_eq!(bare.site, None);
        assert_eq!(bare.to_string(), "delta queue overflow (capacity 1)");
        let stamped = bare.at(7, 3, 4242);
        assert_eq!(stamped.capacity, 1);
        assert_eq!(
            stamped.site,
            Some(OverflowSite {
                epoch: 7,
                shard: 3,
                seq: 4242
            })
        );
        assert_eq!(
            stamped.to_string(),
            "delta queue overflow (capacity 1) at epoch 7, shard 3, seq 4242"
        );
    }
}
