//! The per-account streaming state machine, shared by the sequential
//! [`replay`](super::replay) and the sharded `sybil-serve` engine.
//!
//! Both engines must apply *identical* transitions for their reports to be
//! byte-identical, so every transition and every gating predicate lives
//! here exactly once, on [`AccountTable`]. The engines differ only in who
//! applies them (one loop over every account vs. the shard owning the
//! account) and in how clustering links are counted (hash-set pair probes
//! vs. CSR snapshot kernels) — which is why the rule check,
//! [`check_with`](AccountTable::check_with), and the full vector,
//! [`features_with`](AccountTable::features_with), take the link counter
//! as a closure. A check calls it last: the rule is a conjunction, two of
//! its conjuncts are slot reads, and most checks are decided by those.
//!
//! The table is flat: one fixed-size slot per account (counters, the
//! window peak, flags and two block handles) and two size-classed block
//! pools, each one `Vec` — send times as a power-of-two ring, friends as a
//! contiguous run in acquisition order. A block that fills moves to the
//! next class and its old block goes to that class's free list, so the
//! per-event path touches the allocator only when a pool's `Vec` doubles:
//! a few dozen calls per run instead of two heap containers per account.
//! Occupancy is bounded per account — a friend block is at most twice the
//! [`MAX_TRACKED_FRIENDS`] cap, a send ring at most twice the window's
//! peak (never below [`MIN_BLOCK`]) — and freed blocks are reused by class
//! before a pool grows.
//!
//! [`AccountState`] is the exchange record of one account: what a shard
//! snapshot, the `SYBS` checkpoint codec and the tests read and write.
//! [`AccountTable::accounts`] materialises it in slot order and
//! [`AccountTable::from_accounts`] is the inverse.

use crate::ids::saturating_u32;
use crate::realtime::RealtimeConfig;
use crate::threshold::ThresholdClassifier;
use osn_graph::{NodeId, Timestamp};
use std::collections::{HashSet, VecDeque};
use sybil_features::FeatureVector;

/// The detector tracks at most this many friends per account (the paper's
/// deployed system capped per-account neighbor state the same way).
pub const MAX_TRACKED_FRIENDS: usize = 50;

/// One account's running state as a plain record — the exchange form of
/// an [`AccountTable`] slot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccountState {
    /// Requests sent (frozen once the account is detected).
    pub sent: u32,
    /// Outgoing requests accepted.
    pub accepted: u32,
    /// Outgoing requests rejected.
    pub rejected: u32,
    /// Send times (seconds) inside the trailing window.
    pub recent_sends: VecDeque<u64>,
    /// Historical max sends in any trailing window.
    pub peak_1h: u32,
    /// First ≤ [`MAX_TRACKED_FRIENDS`] friends, in acquisition order.
    pub friends: Vec<NodeId>,
    /// True once `friends` holds a repeated id (two accepted requests
    /// between the same pair). Link counting must then fall back to exact
    /// pair probes: the marked-set kernel assumes distinct ids.
    pub friends_dup: bool,
    /// The rule fired; the account is out of the stream.
    pub detected: bool,
}

/// What one rule check of an account came to
/// ([`AccountTable::check_with`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Below the feature gate: too few decided requests or friends.
    NoData,
    /// Past the feature gate and not flagged.
    Pass,
    /// The rule fired, on these features.
    Sybil(FeatureVector),
}

/// Smallest pool block, in elements. Class `c` blocks hold
/// `MIN_BLOCK << c`.
const MIN_BLOCK: usize = 4;
/// Size classes per pool: the largest block holds `MIN_BLOCK << 27` =
/// 2²⁹ elements, so a block length always fits the slot's `u32`.
const CLASSES: usize = 28;

/// The block size holding `len` elements: the next power of two, at least
/// [`MIN_BLOCK`]; 0 for no block. Friend runs never shrink, so a friend
/// block's size is this function of its length and the slot stores none.
#[inline]
fn block_for(len: usize) -> usize {
    match len {
        0 => 0,
        n => n.next_power_of_two().max(MIN_BLOCK),
    }
}

/// The size class of a block of `size` elements.
#[inline]
fn class_of(size: usize) -> usize {
    (size / MIN_BLOCK).trailing_zeros() as usize
}

/// Size-classed blocks over one flat `Vec`. A handle is the block's
/// offset; its size is the holder's to remember.
#[derive(Debug)]
struct BlockPool<T> {
    data: Vec<T>,
    /// Per class, the offsets of returned blocks: reused before `data`
    /// grows, so churn between classes does not leak.
    free: [Vec<u32>; CLASSES],
    /// What fresh blocks are filled with (never read back).
    fill: T,
}

impl<T: Copy> BlockPool<T> {
    fn new(fill: T) -> Self {
        BlockPool {
            data: Vec::new(),
            free: std::array::from_fn(|_| Vec::new()),
            fill,
        }
    }

    /// A block of `size` elements (a class size): a freed one of its
    /// class if there is one, else fresh at the end of `data`. `None`
    /// past the largest class or the `u32` offset space (a block must
    /// end below 2³² elements, so offset arithmetic stays in `u32`) —
    /// the holder then keeps what it has.
    fn alloc(&mut self, size: usize) -> Option<u32> {
        if let Some(off) = self.free.get_mut(class_of(size))?.pop() {
            return Some(off);
        }
        let (off, end) = (self.data.len(), self.data.len() + size);
        u32::try_from(end).ok()?;
        self.data.resize(end, self.fill);
        u32::try_from(off).ok()
    }

    /// Move the full block of `size` elements at `off` into a block of
    /// the next class, rotated so element `head` comes first (0 for a
    /// run; the oldest entry for a ring), and free the old block. With
    /// `size` 0 this is the first allocation.
    fn grow(&mut self, off: u32, size: usize, head: usize) -> Option<u32> {
        let new = self.alloc(block_for(size + 1))?;
        let (o, n) = (off as usize, new as usize);
        self.data.copy_within(o + head..o + size, n);
        self.data.copy_within(o..o + head, n + size - head);
        if size > 0 {
            self.free.get_mut(class_of(size))?.push(off);
        }
        Some(new)
    }
}

/// One account's slot: 40 bytes, no pointers.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    sent: u32,
    accepted: u32,
    rejected: u32,
    peak_1h: u32,
    /// Send ring: block offset in the send pool, block size (a power of
    /// two, or 0 before the first send), index of the oldest entry, and
    /// entry count.
    ring_off: u32,
    ring_size: u32,
    ring_head: u32,
    ring_len: u32,
    /// Friend run: block offset in the friend pool and length; the block
    /// size is [`block_for`] the length.
    friends_off: u32,
    friends_len: u8,
    friends_dup: bool,
    detected: bool,
}

impl Slot {
    /// The ring's invariant: a block inside the pool, not over-full,
    /// its head inside the block.
    fn ring_in(&self, sends: &BlockPool<u64>) -> bool {
        (self.ring_off + self.ring_size) as usize <= sends.data.len()
            && self.ring_len <= self.ring_size
            && self.ring_head <= self.ring_size.saturating_sub(1)
    }
}

/// Running state of a dense range of accounts, derived from the event
/// stream so far; slot `i` is whatever account the owner maps to `i`
/// (the account id for [`replay`](super::replay), the local index on a
/// shard). See the module docs for the layout.
#[derive(Debug)]
pub struct AccountTable {
    slots: Vec<Slot>,
    sends: BlockPool<u64>,
    friends: BlockPool<NodeId>,
}

impl AccountTable {
    /// `n` accounts that have done nothing yet.
    pub fn new(n: usize) -> Self {
        AccountTable {
            slots: vec![Slot::default(); n],
            sends: BlockPool::new(0),
            friends: BlockPool::new(NodeId(0)),
        }
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table holds no accounts.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Requests account `i` has sent (frozen once it is detected).
    #[inline]
    pub fn sent(&self, i: usize) -> u32 {
        self.slots[i].sent
    }

    /// Whether the rule has fired on account `i`.
    #[inline]
    pub fn detected(&self, i: usize) -> bool {
        self.slots[i].detected
    }

    /// The rule fired: account `i` is out of the stream.
    pub fn mark_detected(&mut self, i: usize) {
        self.slots[i].detected = true;
    }

    /// Account `i`'s first ≤ [`MAX_TRACKED_FRIENDS`] friends, in
    /// acquisition order.
    #[inline]
    pub fn friends(&self, i: usize) -> &[NodeId] {
        let s = &self.slots[i];
        let (off, len) = (s.friends_off as usize, s.friends_len as usize);
        debug_assert!(off + block_for(len) <= self.friends.data.len());
        &self.friends.data[off..off + len]
    }

    /// True once [`friends`](Self::friends) holds a repeated id (two
    /// accepted requests between the same pair). Link counting must then
    /// fall back to exact pair probes: the marked-set kernel assumes
    /// distinct ids.
    #[inline]
    pub fn friends_dup(&self, i: usize) -> bool {
        self.slots[i].friends_dup
    }

    /// Send times inside account `i`'s trailing window, oldest first.
    fn window(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        let s = self.slots[i];
        debug_assert!(s.ring_in(&self.sends));
        let mask = s.ring_size.wrapping_sub(1);
        (0..s.ring_len)
            .map(move |k| self.sends.data[(s.ring_off + ((s.ring_head + k) & mask)) as usize])
    }

    /// Apply a send by account `i` at `at`, maintaining the
    /// trailing-window peak. The window is "push the time, then drop
    /// from the front while the front is at or before `at − window_s`";
    /// done here as evict-then-push so a slot freed by the eviction is
    /// reused instead of growing the ring. The new time would itself be
    /// dropped only once every older one is gone, and then exactly when
    /// `at ≤ at − window_s` (a zero window, or the saturated time 0).
    pub fn on_send(&mut self, i: usize, at: Timestamp, window_s: u64) {
        let s = &mut self.slots[i];
        debug_assert!(s.ring_in(&self.sends));
        s.sent += 1;
        let now = at.as_secs();
        let cutoff = now.saturating_sub(window_s);
        let mask = s.ring_size.wrapping_sub(1);
        while s.ring_len > 0 && self.sends.data[(s.ring_off + s.ring_head) as usize] <= cutoff {
            s.ring_head = (s.ring_head + 1) & mask;
            s.ring_len -= 1;
        }
        if now > cutoff {
            if s.ring_len == s.ring_size {
                let (size, head) = (s.ring_size as usize, s.ring_head as usize);
                // A pool at its addressing limit keeps the window it has.
                let Some(off) = self.sends.grow(s.ring_off, size, head) else {
                    return;
                };
                s.ring_off = off;
                s.ring_size = saturating_u32(block_for(size + 1));
                s.ring_head = 0;
            }
            let back = (s.ring_head + s.ring_len) & (s.ring_size - 1);
            self.sends.data[(s.ring_off + back) as usize] = now;
            s.ring_len += 1;
        }
        s.peak_1h = s.peak_1h.max(s.ring_len);
    }

    /// An outgoing request of account `i` was accepted: `to` becomes a
    /// friend.
    pub fn on_accept_out(&mut self, i: usize, to: NodeId) {
        self.slots[i].accepted += 1;
        self.push_friend(i, to);
    }

    /// An outgoing request of account `i` was rejected.
    pub fn on_reject_out(&mut self, i: usize) {
        self.slots[i].rejected += 1;
    }

    /// An incoming request from `from` was accepted by account `i`.
    pub fn on_accept_in(&mut self, i: usize, from: NodeId) {
        self.push_friend(i, from);
    }

    fn push_friend(&mut self, i: usize, id: NodeId) {
        let len = self.slots[i].friends_len as usize;
        if len >= MAX_TRACKED_FRIENDS {
            return;
        }
        let dup = self.friends(i).contains(&id);
        let s = &mut self.slots[i];
        if len == block_for(len) {
            let Some(off) = self.friends.grow(s.friends_off, len, 0) else {
                return;
            };
            s.friends_off = off;
        }
        self.friends.data[s.friends_off as usize + len] = id;
        s.friends_len += 1;
        s.friends_dup |= dup;
    }

    /// Should the detector evaluate account `i` after this send? (Caller
    /// has already applied [`on_send`](Self::on_send).)
    #[inline]
    pub fn should_check_on_send(&self, i: usize, cfg: &RealtimeConfig) -> bool {
        let s = &self.slots[i];
        s.sent as usize >= cfg.warmup_requests && (s.sent as usize).is_multiple_of(cfg.check_every)
    }

    /// Should the detector re-evaluate account `i` after a decision on
    /// one of its outgoing requests?
    #[inline]
    pub fn should_check_on_decide(&self, i: usize, cfg: &RealtimeConfig) -> bool {
        let s = &self.slots[i];
        s.sent as usize >= cfg.warmup_requests
            && ((s.accepted + s.rejected) as usize).is_multiple_of(cfg.check_every)
    }

    /// The feature gate and everything past it that the slot answers on
    /// its own: account `i`'s vector with the clustering coefficient
    /// still 0, and the friends a link count would run over. `None` when
    /// the ratio condition lacks data (the detector stays conservative
    /// rather than flagging accounts it barely knows).
    #[inline]
    fn counter_features(
        &self,
        i: usize,
        cfg: &RealtimeConfig,
    ) -> Option<(FeatureVector, &[NodeId])> {
        let s = &self.slots[i];
        let decided = s.accepted + s.rejected;
        let friends = self.friends(i);
        if (decided as usize) < cfg.min_decided || friends.len() < cfg.min_friends {
            return None;
        }
        let f = FeatureVector {
            inv_freq_1h: s.peak_1h as f64,
            inv_freq_400h: s.sent as f64, // long-scale proxy: total so far
            outgoing_accept_ratio: s.accepted as f64 / decided as f64,
            incoming_accept_ratio: 1.0, // not used by the outgoing-side rule
            clustering_coefficient: 0.0,
        };
        Some((f, friends))
    }

    /// Account `i`'s features computable from the stream so far; `None`
    /// below the feature gate. `links` counts friend-to-friend edges and
    /// must agree with [`links_via_edges`] — engines may substitute a
    /// snapshot kernel only where the counts are provably equal. Always
    /// the full vector: what the audit sample and offline callers need.
    pub fn features_with(
        &self,
        i: usize,
        cfg: &RealtimeConfig,
        links: impl FnOnce(&[NodeId]) -> usize,
    ) -> Option<FeatureVector> {
        let (mut f, friends) = self.counter_features(i, cfg)?;
        f.clustering_coefficient = clustering(friends, links);
        Some(f)
    }

    /// One rule check of account `i` — the routine both engines call, and
    /// the only place the rule's evaluation order is written down: the
    /// feature gate, then `rule`'s two counter conjuncts (slot reads),
    /// and only if those hold the caller's `links` count and the
    /// clustering conjunct. The verdict equals
    /// `rule.is_sybil(&features_with(..))` for every input — `&&` over
    /// the same three comparisons, NaN and infinite thresholds included —
    /// and `links` has no effect to skip, so staging changes what a check
    /// costs and nothing it decides.
    pub fn check_with(
        &self,
        i: usize,
        cfg: &RealtimeConfig,
        rule: &ThresholdClassifier,
        links: impl FnOnce(&[NodeId]) -> usize,
    ) -> Verdict {
        let Some((mut f, friends)) = self.counter_features(i, cfg) else {
            return Verdict::NoData;
        };
        if !rule.counter_conjuncts(f.outgoing_accept_ratio, f.inv_freq_1h) {
            return Verdict::Pass;
        }
        f.clustering_coefficient = clustering(friends, links);
        if rule.clustering_conjunct(f.clustering_coefficient) {
            Verdict::Sybil(f)
        } else {
            Verdict::Pass
        }
    }

    /// Fold every account in slot order, and of each every field —
    /// counters, trailing-window contents, friend list in acquisition
    /// order, flags — into `d`. Two tables with equal digests behave
    /// identically on every future event, which is the property
    /// crash-replay recovery verifies at epoch barriers. Block placement
    /// is not state and is not folded.
    pub fn digest_into(&self, d: &mut crate::digest::Digest64) {
        for (i, s) in self.slots.iter().enumerate() {
            d.write_u32(s.sent);
            d.write_u32(s.accepted);
            d.write_u32(s.rejected);
            d.write_usize(s.ring_len as usize);
            for t in self.window(i) {
                d.write_u64(t);
            }
            d.write_u32(s.peak_1h);
            let friends = self.friends(i);
            d.write_usize(friends.len());
            for f in friends {
                d.write_u32(f.0);
            }
            d.write_bool(s.friends_dup);
            d.write_bool(s.detected);
        }
    }

    /// Account `i` as an exchange record.
    pub fn account(&self, i: usize) -> AccountState {
        let s = &self.slots[i];
        AccountState {
            sent: s.sent,
            accepted: s.accepted,
            rejected: s.rejected,
            recent_sends: self.window(i).collect(),
            peak_1h: s.peak_1h,
            friends: self.friends(i).to_vec(),
            friends_dup: s.friends_dup,
            detected: s.detected,
        }
    }

    /// Every account as an exchange record, in slot order.
    pub fn accounts(&self) -> Vec<AccountState> {
        (0..self.len()).map(|i| self.account(i)).collect()
    }

    /// The table holding exactly `accounts`, in slot order: the inverse
    /// of [`accounts`](Self::accounts). Blocks are written straight from
    /// the records, not by re-applying sends (which would evict). `None`
    /// when a record cannot have come from a table — more than
    /// [`MAX_TRACKED_FRIENDS`] friends, or a window no block can hold;
    /// records may be outside input (a checkpoint file).
    pub fn from_accounts(accounts: &[AccountState]) -> Option<Self> {
        let mut t = AccountTable::new(accounts.len());
        for (s, a) in t.slots.iter_mut().zip(accounts) {
            if a.friends.len() > MAX_TRACKED_FRIENDS {
                return None;
            }
            (s.sent, s.accepted, s.rejected) = (a.sent, a.accepted, a.rejected);
            (s.peak_1h, s.friends_dup, s.detected) = (a.peak_1h, a.friends_dup, a.detected);
            if !a.recent_sends.is_empty() {
                let size = block_for(a.recent_sends.len());
                s.ring_off = t.sends.alloc(size)?;
                s.ring_size = saturating_u32(size);
                s.ring_len = saturating_u32(a.recent_sends.len());
                let block = t.sends.data[s.ring_off as usize..].iter_mut();
                block
                    .zip(&a.recent_sends)
                    .for_each(|(slot, &at)| *slot = at);
            }
            if !a.friends.is_empty() {
                s.friends_off = t.friends.alloc(block_for(a.friends.len()))?;
                s.friends_len = u8::try_from(a.friends.len()).ok()?;
                let off = s.friends_off as usize;
                t.friends.data[off..off + a.friends.len()].copy_from_slice(&a.friends);
            }
        }
        Some(t)
    }
}

/// First-friends clustering coefficient: `links` among `friends` over the
/// pairs there are; 0 below two friends, without calling `links`.
#[inline]
fn clustering(friends: &[NodeId], links: impl FnOnce(&[NodeId]) -> usize) -> f64 {
    let k = friends.len();
    if k < 2 {
        0.0
    } else {
        links(friends) as f64 / (k * (k - 1) / 2) as f64
    }
}

/// Canonical packed key for the undirected edge `a — b`.
#[inline]
pub fn pack_edge(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    ((lo as u64) << 32) | hi as u64
}

/// Links among `friends` by exact pair probes against the accepted-edge
/// set — the reference counter (quadratic in the friend cap, but the cap
/// is [`MAX_TRACKED_FRIENDS`]).
pub fn links_via_edges(friends: &[NodeId], edges: &HashSet<u64>) -> usize {
    let mut links = 0usize;
    for i in 0..friends.len() {
        for j in (i + 1)..friends.len() {
            if edges.contains(&pack_edge(friends[i], friends[j])) {
                links += 1;
            }
        }
    }
    links
}

/// Advance the deterministic audit cursor (an LCG over log positions).
/// Every engine replica steps this at the same global send cadence, so all
/// agree on which account the verification team samples next.
#[inline]
pub fn advance_audit_cursor(cursor: usize, log_len: usize) -> usize {
    cursor
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        % log_len.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest64;
    use crate::Classifier;
    use proptest::prelude::*;

    #[test]
    fn trailing_window_tracks_peak() {
        let mut t = AccountTable::new(1);
        let w = 3600;
        for h in [2u64, 2, 2] {
            t.on_send(0, Timestamp::from_hours(h), w);
        }
        assert_eq!(t.account(0).peak_1h, 3);
        // Two hours later the window is empty again; peak is historical.
        t.on_send(0, Timestamp::from_hours(4), w);
        let st = t.account(0);
        assert_eq!(st.recent_sends.len(), 1);
        assert_eq!(st.peak_1h, 3);
        assert_eq!(st.sent, 4);
    }

    #[test]
    fn friend_cap_and_dup_flag() {
        let mut t = AccountTable::new(2);
        for i in 0..60u32 {
            t.on_accept_out(0, NodeId(i));
        }
        assert_eq!(t.friends(0).len(), MAX_TRACKED_FRIENDS);
        assert!(!t.friends_dup(0));
        assert_eq!(t.account(0).accepted, 60);
        t.on_accept_out(1, NodeId(7));
        t.on_accept_in(1, NodeId(7));
        assert!(t.friends_dup(1));
    }

    #[test]
    fn links_via_edges_counts_pairs() {
        let mut edges = HashSet::new();
        edges.insert(pack_edge(NodeId(1), NodeId(2)));
        edges.insert(pack_edge(NodeId(2), NodeId(3)));
        let friends = [NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(links_via_edges(&friends, &edges), 2);
    }

    #[test]
    fn audit_cursor_is_deterministic_and_in_range() {
        let mut c = 1usize;
        for _ in 0..100 {
            c = advance_audit_cursor(c, 37);
            assert!(c < 37);
        }
        assert_eq!(advance_audit_cursor(1, 37), advance_audit_cursor(1, 37));
        // Degenerate empty log must not divide by zero.
        assert_eq!(advance_audit_cursor(1, 0), 0);
    }

    #[test]
    fn slot_stays_within_forty_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 40);
    }

    /// Account 0 after `sends` requests inside one window, `accepted` of
    /// them accepted and `rejected` rejected.
    fn account_with(sends: u64, accepted: u32, rejected: u32) -> AccountTable {
        let mut t = AccountTable::new(1);
        (0..sends).for_each(|k| t.on_send(0, Timestamp(100 + k), 3600));
        (0..accepted).for_each(|k| t.on_accept_out(0, NodeId(k + 1)));
        (0..rejected).for_each(|_| t.on_reject_out(0));
        t
    }

    /// The paper's rule behind a gate of ten decided requests and four
    /// friends.
    fn gate() -> RealtimeConfig {
        RealtimeConfig {
            min_decided: 10,
            min_friends: 4,
            ..RealtimeConfig::default()
        }
    }

    /// One check of account 0 with a link counter that counts its calls
    /// and finds no links.
    fn check_counting(t: &AccountTable, rule: &ThresholdClassifier) -> (Verdict, u32) {
        let mut calls = 0;
        let verdict = t.check_with(0, &gate(), rule, |friends| {
            assert_eq!(friends, t.friends(0));
            calls += 1;
            0
        });
        (verdict, calls)
    }

    #[test]
    fn links_are_counted_only_when_both_counter_conjuncts_hold() {
        let rule = gate().rule;
        // Below the feature gate (3 friends): no verdict, no count.
        let (short, slow, welcome) = (
            account_with(30, 3, 9),
            account_with(12, 4, 8),
            account_with(30, 8, 4),
        );
        assert_eq!(check_counting(&short, &rule), (Verdict::NoData, 0));
        // Frequency conjunct fails (12 sends in the window): not asked.
        assert_eq!(check_counting(&slow, &rule), (Verdict::Pass, 0));
        // Ratio conjunct fails (8 of 12 accepted): not asked.
        assert_eq!(check_counting(&welcome, &rule), (Verdict::Pass, 0));
        // Both hold: asked exactly once, and the vector is the full one.
        let bursty = account_with(30, 4, 8);
        let (verdict, calls) = check_counting(&bursty, &rule);
        let full = bursty.features_with(0, &gate(), |_| 0);
        assert_eq!(calls, 1);
        assert_eq!(Some(verdict), full.map(Verdict::Sybil));
        // Both hold and the clustering conjunct decides against: still once.
        let clustered = ThresholdClassifier {
            max_cc: 0.0,
            ..rule
        };
        assert_eq!(check_counting(&bursty, &clustered), (Verdict::Pass, 1));
    }

    /// The transitions as they were written on the two-container record:
    /// the reference the table is compared against.
    impl AccountState {
        fn ref_send(&mut self, at: u64, window_s: u64) {
            self.sent += 1;
            self.recent_sends.push_back(at);
            let cutoff = at.saturating_sub(window_s);
            while self.recent_sends.front().is_some_and(|&s| s <= cutoff) {
                self.recent_sends.pop_front();
            }
            self.peak_1h = self.peak_1h.max(self.recent_sends.len() as u32);
        }

        fn ref_friend(&mut self, id: NodeId) {
            if self.friends.len() < MAX_TRACKED_FRIENDS {
                self.friends_dup |= self.friends.contains(&id);
                self.friends.push(id);
            }
        }

        fn ref_digest(&self, d: &mut Digest64) {
            d.write_u32(self.sent);
            d.write_u32(self.accepted);
            d.write_u32(self.rejected);
            d.write_usize(self.recent_sends.len());
            self.recent_sends.iter().for_each(|&s| d.write_u64(s));
            d.write_u32(self.peak_1h);
            d.write_usize(self.friends.len());
            self.friends.iter().for_each(|f| d.write_u32(f.0));
            d.write_bool(self.friends_dup);
            d.write_bool(self.detected);
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// `n` sends, the clock advancing `gap` seconds before each.
        Sends {
            n: u8,
            gap: u64,
        },
        AcceptOut(u32),
        AcceptIn(u32),
        Reject,
        Detect,
    }

    /// Gaps of 0 and 1 s pile a burst into one window (the ring grows
    /// through its classes, and with the evictions in between its head
    /// is wrapped when it does); gaps of half a window and more evict.
    /// Friend ids come from a small range so repeats are common.
    fn op() -> impl Strategy<Value = (usize, Op)> {
        (0usize..3, 0u8..14, 0u32..70, 1u8..=40).prop_map(|(who, kind, id, n)| {
            let op = match kind {
                0..=2 => Op::Sends {
                    n,
                    gap: u64::from(id % 2),
                },
                3..=4 => Op::Sends {
                    n: n % 6 + 1,
                    gap: [7, 50, 101, 400][id as usize % 4],
                },
                5..=8 => Op::AcceptOut(id),
                9..=11 => Op::AcceptIn(id),
                12 => Op::Reject,
                _ => Op::Detect,
            };
            (who, op)
        })
    }

    /// A threshold in units of its feature's scale: ordinary cuts on
    /// both sides of zero, the two infinities, NaN.
    fn threshold() -> impl Strategy<Value = f64> {
        (0u8..7, -50i32..150).prop_map(|(kind, cut)| match kind {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            _ => f64::from(cut) / 100.0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any op sequence over three accounts sharing the pools leaves
        /// the table equal — materialised record, friends slice, digest —
        /// to the container reference, after every op; and a table
        /// restored from the records is equal again.
        #[test]
        fn table_matches_the_container_reference(
            window_s in (0u64..8).prop_map(|w| w.min(1) * 100),
            start in 0u64..2,
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut table = AccountTable::new(3);
            let mut reference = vec![AccountState::default(); 3];
            let mut now = start;
            let mut largest_window = 0;
            for (who, op) in ops {
                let r = &mut reference[who];
                match op {
                    Op::Sends { n, gap } => {
                        for _ in 0..n {
                            now += gap;
                            table.on_send(who, Timestamp(now), window_s);
                            r.ref_send(now, window_s);
                        }
                    }
                    Op::AcceptOut(id) => {
                        table.on_accept_out(who, NodeId(id));
                        r.accepted += 1;
                        r.ref_friend(NodeId(id));
                    }
                    Op::AcceptIn(id) => {
                        table.on_accept_in(who, NodeId(id));
                        r.ref_friend(NodeId(id));
                    }
                    Op::Reject => {
                        table.on_reject_out(who);
                        r.rejected += 1;
                    }
                    Op::Detect => {
                        table.mark_detected(who);
                        r.detected = true;
                    }
                }
                largest_window = largest_window.max(reference[who].recent_sends.len());
                prop_assert_eq!(&table.accounts(), &reference);
                prop_assert_eq!(table.friends(who), &reference[who].friends[..]);
                prop_assert_eq!(table.friends_dup(who), reference[who].friends_dup);
                let (mut got, mut want) = (Digest64::new(), Digest64::new());
                table.digest_into(&mut got);
                reference.iter().for_each(|r| r.ref_digest(&mut want));
                prop_assert_eq!(got.finish(), want.finish());
            }
            let restored = AccountTable::from_accounts(&reference).expect("records of a table");
            prop_assert_eq!(restored.accounts(), reference);
            // Occupancy: blocks are reused by class, so the send pool holds
            // at most the classes one ring climbed through, per account.
            prop_assert!(table.sends.data.len() <= 3 * 4 * largest_window.max(MIN_BLOCK));
            prop_assert!(table.friends.data.len() <= 3 * 2 * 64);
        }

        /// After any op sequence, under any rule — thresholds that are
        /// infinite (`max_cc = ∞` is the benchmark's detector), NaN or
        /// negative included — the staged check decides what the rule
        /// decides over the full vector, returns that vector when it
        /// fires, and counts links at most once.
        #[test]
        fn staged_check_equals_the_rule_over_the_full_vector(
            ops in proptest::collection::vec(op(), 1..80),
            rule in (threshold(), threshold(), threshold()),
            gate in (0usize..4, 0usize..4),
        ) {
            let rule = ThresholdClassifier {
                max_out_ratio: rule.0,
                min_freq: rule.1 * 20.0,
                max_cc: rule.2,
            };
            let cfg = RealtimeConfig {
                min_decided: gate.0,
                min_friends: gate.1,
                ..RealtimeConfig::default()
            };
            // Any pure function of the friends serves as the counter.
            let links = |friends: &[NodeId]| {
                let pairs = friends.len() * (friends.len() - 1) / 2;
                friends.iter().map(|f| f.0 as usize).sum::<usize>() % (pairs + 1)
            };
            let mut table = AccountTable::new(3);
            let mut now = 0;
            for (who, op) in ops {
                match op {
                    Op::Sends { n, gap } => {
                        for _ in 0..n {
                            now += gap;
                            table.on_send(who, Timestamp(now), 100);
                        }
                    }
                    Op::AcceptOut(id) => table.on_accept_out(who, NodeId(id)),
                    Op::AcceptIn(id) => table.on_accept_in(who, NodeId(id)),
                    Op::Reject => table.on_reject_out(who),
                    Op::Detect => table.mark_detected(who),
                }
                let want = match table.features_with(who, &cfg, links) {
                    None => Verdict::NoData,
                    Some(f) if rule.is_sybil(&f) => Verdict::Sybil(f),
                    Some(_) => Verdict::Pass,
                };
                let mut calls = 0;
                let got = table.check_with(who, &cfg, &rule, |friends| {
                    calls += 1;
                    links(friends)
                });
                prop_assert_eq!(got, want);
                prop_assert!(calls <= 1);
            }
        }
    }

    /// What the proptest reaches only by chance, pinned: a window that
    /// slides while it widens, so the ring grows through three classes
    /// with its head wrapped each time, and whose freed blocks the next
    /// account's ring picks up.
    #[test]
    fn ring_grows_with_a_wrapped_head_and_blocks_are_reused() {
        let (mut table, mut reference) = (AccountTable::new(2), AccountState::default());
        let (mut now, mut wrapped_growths) = (1000, 0);
        // Tick `j` sends `j + 1` times; a 100 s window holds two 60 s ticks.
        for tick in 0..16 {
            now += 60;
            for _ in 0..=tick {
                let before = table.slots[0];
                table.on_send(0, Timestamp(now), 100);
                reference.ref_send(now, 100);
                assert_eq!(table.account(0), reference);
                let grew = table.slots[0].ring_size > before.ring_size;
                wrapped_growths += usize::from(grew && before.ring_head != 0);
            }
        }
        assert!(
            wrapped_growths >= 3,
            "{wrapped_growths} growths with a wrapped head"
        );
        let grown = table.sends.data.len();
        for _ in 0..16 {
            table.on_send(1, Timestamp(now), 100);
        }
        assert_eq!(
            table.sends.data.len(),
            grown,
            "account 1 reuses 0's freed blocks"
        );
        assert_eq!(table.account(0), reference);
    }

    #[test]
    fn from_accounts_rejects_records_no_table_wrote() {
        let crowded = AccountState {
            friends: (0..=MAX_TRACKED_FRIENDS as u32).map(NodeId).collect(),
            ..AccountState::default()
        };
        assert!(AccountTable::from_accounts(&[crowded]).is_none());
    }
}
