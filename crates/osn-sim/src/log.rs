//! The append-only friend-request log and its per-account indices.

use crate::request::{RequestOutcome, RequestRecord};
use serde::{Deserialize, Serialize};

/// Append-only log of every friend request in a simulation, in send order.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RequestLog {
    records: Vec<RequestRecord>,
}

impl RequestLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of requests logged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no requests were logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a record, returning its index. Records must be appended in
    /// nondecreasing `sent_at` order (the discrete-event engine guarantees
    /// this); violations are caught in debug builds.
    pub fn push(&mut self, r: RequestRecord) -> usize {
        debug_assert!(
            self.records.last().is_none_or(|p| p.sent_at <= r.sent_at),
            "log must be appended in send order"
        );
        self.records.push(r);
        self.records.len() - 1
    }

    /// Record the outcome of request `idx`.
    pub fn resolve(&mut self, idx: usize, outcome: RequestOutcome) {
        debug_assert!(matches!(self.records[idx].outcome, RequestOutcome::Pending));
        self.records[idx].outcome = outcome;
    }

    /// All records, in send order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// One record.
    pub fn get(&self, idx: usize) -> &RequestRecord {
        &self.records[idx]
    }

    /// Per-account index of *sent* requests: `index.of(a)` lists record
    /// positions sent by account `a`, in time order. `n` is the number of
    /// accounts. Two flat arrays total, not one `Vec` per account.
    pub fn sender_index(&self, n: usize) -> LogIndex {
        LogIndex::build(n, self.records.iter().map(|r| r.from.index()))
    }

    /// Per-account index of *received* requests, in time order.
    pub fn receiver_index(&self, n: usize) -> LogIndex {
        LogIndex::build(n, self.records.iter().map(|r| r.to.index()))
    }
}

/// Flat CSR-style per-account index over log record positions: one
/// offsets array plus one ids array, replacing the seed's `Vec<Vec<u32>>`
/// (which cost ~2·V small allocations per build and scattered rows across
/// the heap). Built by counting sort, so per-account rows stay in record
/// (time) order.
#[derive(Clone, Debug)]
pub struct LogIndex {
    /// Row boundaries: account `a`'s records occupy
    /// `ids[offsets[a]..offsets[a + 1]]`. Length `n + 1`.
    offsets: Vec<u32>,
    /// Record positions, grouped by account.
    ids: Vec<u32>,
}

impl LogIndex {
    fn build(n: usize, keys: impl Iterator<Item = usize> + Clone) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for k in keys.clone() {
            offsets[k + 1] += 1;
        }
        for a in 0..n {
            offsets[a + 1] += offsets[a];
        }
        let mut ids = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for (i, k) in keys.enumerate() {
            ids[cursor[k] as usize] = i as u32;
            cursor[k] += 1;
        }
        LogIndex { offsets, ids }
    }

    /// Record positions attributed to account `a`, in time order.
    #[inline]
    pub fn of(&self, a: usize) -> &[u32] {
        &self.ids[self.offsets[a] as usize..self.offsets[a + 1] as usize]
    }

    /// Number of accounts indexed.
    pub fn num_accounts(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::{NodeId, Timestamp};

    fn rec(from: u32, to: u32, h: u64) -> RequestRecord {
        RequestRecord {
            from: NodeId(from),
            to: NodeId(to),
            sent_at: Timestamp::from_hours(h),
            outcome: RequestOutcome::Pending,
        }
    }

    #[test]
    fn push_and_resolve() {
        let mut log = RequestLog::new();
        assert!(log.is_empty());
        let i = log.push(rec(0, 1, 1));
        let j = log.push(rec(1, 2, 2));
        assert_eq!(log.len(), 2);
        log.resolve(i, RequestOutcome::Accepted(Timestamp::from_hours(3)));
        log.resolve(j, RequestOutcome::Rejected(Timestamp::from_hours(4)));
        assert!(log.get(i).outcome.is_accepted());
        assert!(!log.get(j).outcome.is_accepted());
        assert!(log.get(j).outcome.is_resolved());
    }

    #[test]
    fn indices_group_by_account() {
        let mut log = RequestLog::new();
        log.push(rec(0, 1, 1));
        log.push(rec(0, 2, 2));
        log.push(rec(2, 0, 3));
        let send = log.sender_index(3);
        assert_eq!(send.num_accounts(), 3);
        assert_eq!(send.of(0), &[0, 1]);
        assert_eq!(send.of(1), &[] as &[u32]);
        assert_eq!(send.of(2), &[2]);
        let recv = log.receiver_index(3);
        assert_eq!(recv.of(0), &[2]);
        assert_eq!(recv.of(1), &[0]);
        assert_eq!(recv.of(2), &[1]);
    }
}
