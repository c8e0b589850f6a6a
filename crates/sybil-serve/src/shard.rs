//! One worker shard: owns a partition of the account space and scores its
//! accounts against the full event stream.
//!
//! Ownership is `account_id % shard_count`. Every shard scans *every*
//! event of an epoch, but the per-event cost for a non-owned account is a
//! counter and a branch: a send by anyone advances the global audit
//! cadence, while per-account state transitions, rule checks, and feature
//! computation run only on the shard that owns the account. The owned
//! accounts' state is one flat [`AccountTable`] — fixed-size slots, send
//! windows and friend runs in two block pools — so the scan loop does
//! not call the allocator, which is what lets two shards scan side by
//! side at close to their back-to-back speed. All edge state lives in
//! the coordinator's read-only [`GraphMirror`], which already holds the
//! running epoch's edges; the [`EpochIndex`] turns a stream position
//! into the watermark that hides the ones created after it (see
//! `mirror`), so shards write nothing shared. That
//! full-scan/shared-read design is what makes the engine byte-identical
//! to the sequential replay: a check in the middle of an epoch sees
//! exactly the same friend lists, edge set, audit cursor, and
//! adaptive-threshold state as the sequential loop at the same stream
//! position, with no cross-shard wait.
//!
//! A feature check marks the account's ≤ 50 tracked friends and counts
//! links with the mirror's folded-row kernel plus
//! the distinct marked pairs of the mirror's delta below the checking
//! event's watermark (one `partition_point` per check). The delta stores
//! each edge at one end only, so the count walks every marked friend's
//! delta chain, all of them in lockstep, and keeps the links whose other
//! end is marked; the delta may repeat a pair, at either end, so its
//! pairs are deduplicated in a buffer the shard reuses. That is
//! integer-equal to the sequential count — exact pair probes of the
//! accepted pairs, `links_via_edges` — whenever the friend
//! list is duplicate-free (the shard falls back to exact pair probes,
//! which look at both ends, for the rare duplicate case, flagged by
//! [`AccountTable::friends_dup`]).
//!
//! Once a shard has been digested, each of the table's five transitions
//! in the scan (a send, an accepted or rejected outgoing request, an
//! accepted incoming one, a detection) marks its slot in the shard's
//! [`RunningDigest`], and [`ShardState::digest`] re-hashes the marked
//! slots before it reads the sum: the epoch's events are not walked a
//! second time.

use crate::fault::EpochRecordRef;
use crate::mirror::{EpochIndex, GraphMirror};
use crate::queue::{DeltaQueue, QueueFull};
use osn_graph::{NeighborScratch, NodeId, Timestamp};
use osn_sim::stream::StreamEventKind;
use osn_sim::SimOutput;
use std::collections::VecDeque;
use sybil_core::adaptive::AdaptiveThresholds;
use sybil_core::realtime::state::{self, AccountTable, RunningDigest, Verdict};
use sybil_core::realtime::{Detection, RealtimeConfig};
use sybil_core::threshold::ThresholdClassifier;
use sybil_features::FeatureVector;

/// A detection tagged with its global stream position. Tags let the
/// coordinator merge per-shard outputs back into exactly the order the
/// sequential loop would have emitted them.
pub(crate) struct TaggedDetection {
    pub seq: u64,
    pub detection: Detection,
}

/// Verification feedback staged for the barrier merge, ordered by
/// `(seq, intra)`: detection feedback (`intra` 0) precedes audit feedback
/// (`intra` 1) generated by the same event, matching the sequential push
/// order. Public (re-exported as `fault::FeedbackRecord`) because the
/// write-ahead epoch journal persists exactly these records: they are
/// part of the epoch input a crash-replayed shard must see again.
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedFeedback {
    /// Global stream position of the generating event.
    pub seq: u64,
    /// Intra-event order: detection feedback (0) before audit (1).
    pub intra: u8,
    /// When the verification team's answer arrives.
    pub due: Timestamp,
    /// The features the account showed at check time.
    pub features: FeatureVector,
    /// Ground truth: was the account a Sybil?
    pub truth: bool,
}

/// Effects one shard produced during one epoch.
pub(crate) struct EpochOutput {
    pub detections: DeltaQueue<TaggedDetection>,
    pub feedback: DeltaQueue<TaggedFeedback>,
}

/// Always-on logical tallies of one shard's work, drained by the
/// coordinator at each epoch barrier (in shard-id order, keeping the
/// merged totals deterministic). Plain integer adds — cheap enough to
/// leave on even when nobody collects them. `feedback_applied` counts on
/// every replica; the coordinator takes shard 0's value only, since the
/// adaptive state is replicated (summing would over-count by the shard
/// count).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardObs {
    pub checks_run: u64,
    pub detections: u64,
    pub features_computed: u64,
    pub feedback_applied: u64,
    pub audits_sampled: u64,
}

pub(crate) struct ShardState {
    shard: usize,
    shards: usize,
    /// `Some(shards - 1)` when the shard count is a power of two.
    /// Ownership is tested per event on every shard, so the common
    /// power-of-two deployments get a mask instead of a division.
    owner_mask: Option<usize>,
    cfg: RealtimeConfig,
    /// Owned accounts' states, one flat table per shard; local slot `i`
    /// holds account `i * shards + shard`.
    pub states: AccountTable,
    /// The table's digest, kept from the first [`digest`](Self::digest)
    /// on: every transition of `states` happens in `run_epoch` and marks
    /// its slot ([`touched`](Self::touched)), and the next digest
    /// re-hashes the marked slots. `None` until then, so a run that
    /// never digests pays nothing.
    table_digest: Option<RunningDigest>,
    scratch: NeighborScratch,
    /// Friend-id staging buffer for kernel calls.
    friend_ids: Vec<u32>,
    /// Marked delta pairs staged by the link count, reused across checks.
    pairs: Vec<(u32, u32)>,
    /// Replicated adaptive thresholds — every shard applies the same
    /// merged feedback sequence, so replicas stay bit-identical.
    adaptive: AdaptiveThresholds,
    /// Pending feedback replica: (due, features, truth) in global order.
    feedback_queue: VecDeque<(Timestamp, FeatureVector, bool)>,
    /// Sends until the next audit sample — a countdown instead of a
    /// global counter + modulo, keeping the every-event send path
    /// division-free (all shards agree: all scan all events).
    sends_until_audit: usize,
    /// Deterministic audit pointer, same LCG walk on every shard.
    pub audit_cursor: usize,
    /// Number of accounts this shard owns.
    owned: usize,
    /// Logical work tallies, drained at each barrier.
    pub(crate) obs: ShardObs,
}

impl ShardState {
    pub fn new(shard: usize, shards: usize, num_accounts: usize, cfg: &RealtimeConfig) -> Self {
        let owned = Self::owned_by(shard, shards, num_accounts);
        Self::with_table(shard, shards, num_accounts, cfg, AccountTable::new(owned))
    }

    /// How many of `num_accounts` shard `shard` of `shards` owns.
    fn owned_by(shard: usize, shards: usize, num_accounts: usize) -> usize {
        num_accounts / shards + usize::from(num_accounts % shards > shard)
    }

    /// A shard at the start of the stream but for its accounts, which
    /// are `states` (one per owned account).
    fn with_table(
        shard: usize,
        shards: usize,
        num_accounts: usize,
        cfg: &RealtimeConfig,
        states: AccountTable,
    ) -> Self {
        let owned = states.len();
        ShardState {
            shard,
            shards,
            owner_mask: shards.is_power_of_two().then(|| shards - 1),
            cfg: *cfg,
            states,
            table_digest: None,
            scratch: NeighborScratch::new(num_accounts),
            friend_ids: Vec::with_capacity(state::MAX_TRACKED_FRIENDS),
            pairs: Vec::new(),
            adaptive: AdaptiveThresholds::from_rule(&cfg.rule, 0.02),
            feedback_queue: VecDeque::new(),
            sends_until_audit: cfg.audit_every,
            audit_cursor: 1,
            owned,
            obs: ShardObs::default(),
        }
    }

    #[inline]
    fn owns(&self, n: NodeId) -> bool {
        match self.owner_mask {
            Some(mask) => n.index() & mask == self.shard,
            None => n.index() % self.shards == self.shard,
        }
    }

    /// Local state slot of an owned account.
    #[inline]
    pub(crate) fn local(&self, n: NodeId) -> usize {
        debug_assert!(self.owns(n));
        n.index() / self.shards
    }

    /// The adaptive rule currently in force on this replica.
    pub fn current_rule(&self) -> ThresholdClassifier {
        self.adaptive.current_rule()
    }

    /// This shard's id (its index in the coordinator's shard vector).
    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.shard
    }

    /// Digest of everything that affects this shard's future behavior:
    /// owned account states (the table's sum digest, kept running), the
    /// replicated adaptive thresholds and feedback queue, and the audit
    /// bookkeeping (folded whole: they are small). The transient `obs`
    /// tallies are excluded — they are drained at every barrier, which
    /// is exactly when digests are taken. Equal digests ⇒ byte-identical
    /// `realtime::state` and identical behavior on every future event,
    /// up to the collision bound. The first call hashes every account;
    /// later ones refresh the running digest — re-hash the slots marked
    /// since the last call — and read it.
    pub(crate) fn digest(&mut self) -> u64 {
        let (states, running) = (&self.states, &mut self.table_digest);
        let table = running.get_or_insert_with(|| RunningDigest::of(states));
        table.refresh(states);
        let mut d = sybil_core::digest::Digest64::new();
        d.write_usize(self.shard);
        d.write_usize(self.shards);
        d.write_usize(self.owned);
        d.write_u64(table.value());
        self.adaptive.digest_into(&mut d);
        d.write_usize(self.feedback_queue.len());
        for (due, f, truth) in &self.feedback_queue {
            d.write_u64(due.as_secs());
            for v in f.as_array() {
                d.write_f64(v);
            }
            d.write_bool(*truth);
        }
        d.write_usize(self.sends_until_audit);
        d.write_usize(self.audit_cursor);
        d.finish()
    }

    /// Note, in the running table digest, that owned slot `li` changed.
    /// Called at each of the table's transitions; a no-op until the
    /// first digest.
    #[inline]
    fn touched(&mut self, li: usize) {
        if let Some(running) = &mut self.table_digest {
            running.mark(li);
        }
    }

    /// Everything [`digest`](Self::digest) covers that is not derivable
    /// from `(shard, shards, num_accounts, cfg)` — the persisted half of
    /// the shard — with the account table *moved* into it: the shard
    /// holds an empty table until [`put_back`](Self::put_back) returns
    /// this snapshot's, so a checkpoint copies no account state. Pairs
    /// with [`from_snapshot`](Self::from_snapshot):
    /// `from_snapshot(.., s.lend_snapshot()).digest()` is the lender's
    /// digest.
    pub(crate) fn lend_snapshot(&mut self) -> crate::fault::ShardSnapshot {
        crate::fault::ShardSnapshot {
            table: std::mem::take(&mut self.states),
            adaptive: self.adaptive.to_raw(),
            feedback_queue: self.feedback_queue.iter().cloned().collect(),
            sends_until_audit: self.sends_until_audit as u64,
            audit_cursor: self.audit_cursor as u64,
        }
    }

    /// Take back the table [`lend_snapshot`](Self::lend_snapshot) lent.
    pub(crate) fn put_back(&mut self, snap: crate::fault::ShardSnapshot) {
        self.states = snap.table;
    }

    /// Rebuild a shard from a persisted [`ShardSnapshot`], taken by value
    /// so the account table moves in instead of being copied: derived
    /// fields (ownership mask, scratch, capacities) come from the
    /// constructor path; persisted fields overwrite the cold-start
    /// values. `obs` starts empty — tallies are drained at every
    /// barrier, and checkpoints are taken at barriers. `None` when the
    /// snapshot cannot be this shard's: a table of other than its owned
    /// count (slots are indexed by account id), or an audit countdown
    /// outside `1..=audit_every` (0 would underflow it).
    pub(crate) fn from_snapshot(
        shard: usize,
        shards: usize,
        num_accounts: usize,
        cfg: &RealtimeConfig,
        snap: crate::fault::ShardSnapshot,
    ) -> Option<Self> {
        let countdown = usize::try_from(snap.sends_until_audit).ok()?;
        let owned = Self::owned_by(shard, shards, num_accounts);
        if snap.table.len() != owned || !(1..=cfg.audit_every).contains(&countdown) {
            return None;
        }
        let mut s = ShardState::with_table(shard, shards, num_accounts, cfg, snap.table);
        s.adaptive = AdaptiveThresholds::from_raw(snap.adaptive);
        s.feedback_queue = snap.feedback_queue.into();
        s.sends_until_audit = countdown;
        s.audit_cursor = snap.audit_cursor as usize;
        Some(s)
    }

    /// Scan one epoch: apply owned-account transitions, advance shared
    /// bookkeeping, stage outward effects. `rec` is the epoch's input —
    /// its event slice with the parallel `EventDetail` array (the scan
    /// loop reads endpoints and outcomes from it sequentially and only
    /// touches the log for the rare audit sample), the barrier-merged
    /// feedback generated in earlier epochs, in global `(seq, intra)`
    /// order, and the 0-based barrier count (overflow errors carry it as
    /// part of their exact `(epoch, shard, seq)` site). `mirror` is the
    /// coordinator's edge state with the epoch's own new edges already in
    /// it, `eidx` the index that bounds a probe to a stream position.
    /// `queue_clamp` is the fault plane's optional staging-capacity
    /// override — `None` in production, where capacities come from the
    /// epoch invariants alone.
    pub(crate) fn run_epoch(
        &mut self,
        rec: EpochRecordRef<'_>,
        out: &SimOutput,
        mirror: &GraphMirror,
        eidx: &EpochIndex,
        queue_clamp: Option<usize>,
    ) -> Result<EpochOutput, QueueFull> {
        debug_assert_eq!(rec.events.len(), rec.details.len());
        for f in rec.feedback {
            self.feedback_queue.push_back((f.due, f.features, f.truth));
        }
        // Epoch invariants bound the queues: at most one detection per
        // owned account ever and per event of the epoch, at most one
        // audit per audit_every events (plus one per detection when
        // adaptive). A fault-plane clamp can only shrink the bound
        // (overflow injection), never grow it.
        let audits = rec.events.len() / self.cfg.audit_every + 1;
        let det_cap = self.owned.min(rec.events.len());
        let fb_cap = det_cap + audits;
        let (det_cap, fb_cap) =
            queue_clamp.map_or((det_cap, fb_cap), |c| (c.min(det_cap), c.min(fb_cap)));
        let mut eout = EpochOutput {
            detections: DeltaQueue::with_capacity(det_cap),
            feedback: DeltaQueue::with_capacity(fb_cap),
        };
        let window_s = self.cfg.trailing_window_h * 3600;
        let delay_s = self.cfg.feedback_delay_h * 3600;

        for (ev, d) in rec.events.iter().zip(rec.details) {
            let t = ev.at;
            // Deliver due verification feedback (replicated on every
            // shard, same order, same positions as the sequential loop).
            while let Some(&(due, f, truth)) = self.feedback_queue.front() {
                if due <= t {
                    self.adaptive.feedback(&f, truth);
                    self.obs.feedback_applied += 1;
                    self.feedback_queue.pop_front();
                } else {
                    break;
                }
            }
            let from = NodeId(d.from);
            match ev.kind {
                StreamEventKind::Sent(_) => {
                    if self.owns(from) {
                        let li = self.local(from);
                        if !self.states.detected(li) {
                            self.states.on_send(li, t, window_s);
                            self.touched(li);
                            if self.states.should_check_on_send(li, &self.cfg) {
                                self.check(
                                    from, rec.epoch, ev.seq, t, delay_s, out, mirror, eidx,
                                    &mut eout,
                                )?;
                            }
                        }
                    }
                    // Global audit cadence: every shard steps the cursor;
                    // only the sample's owner can compute its features.
                    self.sends_until_audit -= 1;
                    if self.sends_until_audit == 0 {
                        self.sends_until_audit = self.cfg.audit_every;
                        if self.cfg.adaptive {
                            self.audit_cursor =
                                state::advance_audit_cursor(self.audit_cursor, out.log.len());
                            let sample = out.log.get(self.audit_cursor);
                            if self.owns(sample.from) {
                                if let Some(f) = self.features_of(sample.from, ev.seq, mirror, eidx)
                                {
                                    self.obs.audits_sampled += 1;
                                    eout.feedback
                                        .push(TaggedFeedback {
                                            seq: ev.seq,
                                            intra: 1,
                                            due: t.plus_secs(delay_s),
                                            features: f,
                                            truth: out.is_sybil(sample.from),
                                        })
                                        .map_err(|q| q.at(rec.epoch, self.shard, ev.seq))?;
                                }
                            }
                        }
                    }
                }
                StreamEventKind::Decided(_) => {
                    let owns_from = self.owns(from);
                    let to = NodeId(d.to);
                    if d.accepted {
                        if owns_from {
                            let li = self.local(from);
                            self.states.on_accept_out(li, to);
                            self.touched(li);
                        }
                        if self.owns(to) {
                            let li = self.local(to);
                            self.states.on_accept_in(li, from);
                            self.touched(li);
                        }
                    } else if owns_from {
                        let li = self.local(from);
                        self.states.on_reject_out(li);
                        self.touched(li);
                    }
                    if owns_from {
                        let li = self.local(from);
                        if !self.states.detected(li)
                            && self.states.should_check_on_decide(li, &self.cfg)
                        {
                            self.check(
                                from, rec.epoch, ev.seq, t, delay_s, out, mirror, eidx, &mut eout,
                            )?;
                        }
                    }
                }
            }
        }
        Ok(eout)
    }

    /// The full vector of an owned account at stream position `seq`, for
    /// the audit sample; links counted by [`links_at`].
    pub fn features_of(
        &mut self,
        who: NodeId,
        seq: u64,
        mirror: &GraphMirror,
        eidx: &EpochIndex,
    ) -> Option<FeatureVector> {
        let li = self.local(who);
        let dup = self.states.friends_dup(li);
        let (scratch, ids, pairs) = (&mut self.scratch, &mut self.friend_ids, &mut self.pairs);
        let f = self.states.features_with(li, &self.cfg, |friends| {
            links_at(
                friends,
                dup,
                eidx.watermark(seq),
                mirror,
                scratch,
                ids,
                pairs,
            )
        });
        if f.is_some() {
            self.obs.features_computed += 1;
        }
        f
    }

    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        who: NodeId,
        epoch: u64,
        seq: u64,
        t: Timestamp,
        delay_s: u64,
        out: &SimOutput,
        mirror: &GraphMirror,
        eidx: &EpochIndex,
        eout: &mut EpochOutput,
    ) -> Result<(), QueueFull> {
        self.obs.checks_run += 1;
        let rule = if self.cfg.adaptive {
            self.adaptive.current_rule()
        } else {
            self.cfg.rule
        };
        let li = self.local(who);
        let dup = self.states.friends_dup(li);
        let (scratch, ids, pairs) = (&mut self.scratch, &mut self.friend_ids, &mut self.pairs);
        let verdict = self.states.check_with(li, &self.cfg, &rule, |friends| {
            links_at(
                friends,
                dup,
                eidx.watermark(seq),
                mirror,
                scratch,
                ids,
                pairs,
            )
        });
        if verdict != Verdict::NoData {
            self.obs.features_computed += 1;
        }
        if let Verdict::Sybil(f) = verdict {
            let truth = out.is_sybil(who);
            self.states.mark_detected(li);
            self.touched(li);
            self.obs.detections += 1;
            eout.detections
                .push(TaggedDetection {
                    seq,
                    detection: Detection {
                        account: who,
                        at: t,
                        correct: truth,
                    },
                })
                .map_err(|q| q.at(epoch, self.shard, seq))?;
            if self.cfg.adaptive {
                eout.feedback
                    .push(TaggedFeedback {
                        seq,
                        intra: 0,
                        due: t.plus_secs(delay_s),
                        features: f,
                        truth,
                    })
                    .map_err(|q| q.at(epoch, self.shard, seq))?;
            }
        }
        Ok(())
    }
}

/// Links among an owned account's `friends` as of `watermark`: the
/// folded rows' kernel over the marked friends plus the distinct marked pairs
/// the mirror delta adds below the watermark — or exact pair probes when
/// the list holds duplicates (`dup`), which break the marked-set kernel's
/// one-count-per-edge property. `ids` stages the friend ids for the
/// kernels, `pairs` the delta's marked pairs.
pub(crate) fn links_at(
    friends: &[NodeId],
    dup: bool,
    watermark: u32,
    mirror: &GraphMirror,
    scratch: &mut NeighborScratch,
    ids: &mut Vec<u32>,
    pairs: &mut Vec<(u32, u32)>,
) -> usize {
    if dup {
        let mut links = 0usize;
        for (i, &a) in friends.iter().enumerate() {
            for &b in friends.iter().skip(i + 1) {
                if mirror.pair_linked(a, b, watermark) {
                    links += 1;
                }
            }
        }
        return links;
    }
    ids.clear();
    ids.extend(friends.iter().map(|f| f.0));
    scratch.begin(mirror.snapshot.num_nodes());
    for &u in ids.iter() {
        scratch.mark(u);
    }
    let folded = mirror.snapshot.links_among_marked(ids, scratch);
    folded + mirror.delta_links_among_marked(ids, watermark, scratch, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ShardSnapshot;
    use sybil_core::realtime::state::{AccountState, MAX_TRACKED_FRIENDS};

    const ACCOUNTS: usize = 8;

    fn restored(shard: usize, snap: ShardSnapshot) -> Option<ShardState> {
        ShardState::from_snapshot(shard, 2, ACCOUNTS, &RealtimeConfig::default(), snap)
    }

    /// Checkpoint bytes are a pure function of the snapshot (the `SYBS`
    /// codec reads nothing else, and the table's equality is its
    /// accounts'), so snapshot equality is byte equality.
    #[test]
    fn snapshot_round_trips_after_blocks_were_freed_and_reused() {
        let mut s = ShardState::new(1, 2, ACCOUNTS, &RealtimeConfig::default());
        // Slot 0 bursts through three ring classes and four friend
        // classes, freeing a block at each step; slots 1–3 then pick the
        // freed blocks up, one of them with its window slid (head ≠ 0).
        for k in 0..20u64 {
            s.states.on_send(0, Timestamp(1000 + k), 3600);
            s.states.on_accept_out(0, NodeId(k as u32 * 2));
        }
        for slot in 1..4 {
            for k in 0..6u64 {
                s.states.on_send(slot, Timestamp(2000 + 900 * k), 3600);
                s.states.on_accept_in(slot, NodeId(7));
            }
        }
        s.states.mark_detected(2);
        s.sends_until_audit = 3;
        s.audit_cursor = 17;
        let digest = s.digest();
        let snap = s.lend_snapshot();
        assert!(s.states.is_empty(), "the table is lent, not copied");
        let records = snap.table.accounts();
        assert_eq!(records[0].recent_sends.len(), 20);
        assert_eq!(records[1].recent_sends, [3800, 4700, 5600, 6500]);
        assert!(records[1].friends_dup && records[2].detected);
        let mut back = restored(1, snap.clone()).expect("this shard's own snapshot");
        s.put_back(snap.clone());
        assert_eq!(s.digest(), digest, "the lender's digest survives the loan");
        assert_eq!(back.digest(), digest);
        assert_eq!(back.lend_snapshot(), snap);
    }

    /// Restoring writes the records as they are: a send at time 0 (which
    /// `on_send` would evict on arrival) and a full friend list survive.
    #[test]
    fn snapshot_with_a_time_zero_send_and_full_friend_list_round_trips() {
        let mut snap = ShardState::new(0, 2, ACCOUNTS, &RealtimeConfig::default()).lend_snapshot();
        let mut records = snap.table.accounts();
        records[2] = AccountState {
            sent: 60,
            accepted: 55,
            recent_sends: [0, 0, 5].into(),
            peak_1h: 9,
            friends: (0..MAX_TRACKED_FRIENDS as u32).map(NodeId).collect(),
            ..AccountState::default()
        };
        snap.table = AccountTable::from_accounts(&records).expect("a well-formed table");
        let mut back = restored(0, snap.clone()).expect("a well-formed snapshot");
        assert_eq!(back.states.friends(2).len(), MAX_TRACKED_FRIENDS);
        assert_eq!(back.lend_snapshot(), snap);

        // What no table wrote cannot be built, and a wrong owned count
        // is refused.
        records[2].friends.push(NodeId(99));
        assert!(AccountTable::from_accounts(&records).is_none());
        records.truncate(records.len() - 1);
        records[2].friends.pop();
        snap.table = AccountTable::from_accounts(&records).expect("a well-formed table");
        assert!(restored(0, snap).is_none());
    }

    /// A running digest refreshed over the slots its transitions marked
    /// equals a fresh one.
    #[test]
    fn refreshed_digest_equals_a_fresh_one() {
        let mut s = ShardState::new(0, 2, ACCOUNTS, &RealtimeConfig::default());
        let fresh = s.digest();
        // Account 2 (slot 1) sends to 5, is accepted, and befriends 4
        // (slot 2) by accepting 4's request; each transition marks its slot.
        s.states.on_send(1, Timestamp(100), 3600);
        s.touched(1);
        s.states.on_accept_out(1, NodeId(5));
        s.touched(1);
        s.states.on_accept_in(2, NodeId(2));
        s.touched(2);
        s.states.on_accept_out(1, NodeId(4));
        s.touched(1);
        let running = s.digest();
        s.table_digest = None;
        assert_eq!(running, s.digest());
        assert_ne!(running, fresh);
    }

    /// A plane that asks for digests every `every`-th epoch and for a
    /// checkpoint at every barrier, and sets each committed digest beside
    /// the one a shard rebuilt from that barrier's checkpoint computes
    /// from scratch.
    struct FreshDigests {
        every: u64,
        shards: usize,
        accounts: usize,
        detect: RealtimeConfig,
        committed: Option<Vec<u64>>,
        barriers: u64,
        /// `(epoch, shard, running, fresh)` per digested barrier.
        pairs: Vec<(u64, usize, u64, u64)>,
    }

    impl crate::fault::FaultPlane for FreshDigests {
        fn enabled(&self) -> bool {
            true
        }

        fn wants_digests(&self, epoch: u64) -> bool {
            epoch.is_multiple_of(self.every)
        }

        fn epoch_commit(
            &mut self,
            _epoch: u64,
            digests: Option<&[u64]>,
        ) -> Result<(), crate::fault::ChaosError> {
            self.committed = digests.map(<[u64]>::to_vec);
            Ok(())
        }

        fn wants_checkpoint(&self, _epoch: u64) -> bool {
            true
        }

        fn checkpoint(
            &mut self,
            cp: &crate::fault::SessionCheckpoint,
        ) -> Result<(), crate::fault::ChaosError> {
            self.barriers += 1;
            let Some(committed) = self.committed.take() else {
                return Ok(());
            };
            for (sid, snap) in cp.shards.iter().enumerate() {
                let (n, detect, snap) = (self.accounts, &self.detect, snap.clone());
                let mut fresh = ShardState::from_snapshot(sid, self.shards, n, detect, snap)
                    .expect("the barrier's own snapshot");
                let pair = (cp.epochs - 1, sid, committed[sid], fresh.digest());
                self.pairs.push(pair);
            }
            Ok(())
        }
    }

    /// Served through the engine — every transition of `run_epoch`,
    /// detections included, marking its slot — the running shard digest
    /// committed at a barrier equals the digest of a shard rebuilt from
    /// that barrier's checkpoint, whether digests are taken every epoch
    /// or marks pile up over three.
    #[test]
    fn running_shard_digests_equal_fresh_ones_at_every_barrier() {
        let out = osn_sim::scale::generate(&osn_sim::scale::ScaleConfig {
            requests_per_account: 12.0,
            hours: 1_000,
            ..osn_sim::scale::ScaleConfig::at(600, 9)
        });
        let detect = RealtimeConfig {
            rule: ThresholdClassifier {
                max_out_ratio: 0.4,
                min_freq: 2.0,
                max_cc: 0.1,
            },
            adaptive: true,
            ..RealtimeConfig::default()
        };
        for every in [1, 3] {
            let cfg = crate::ServeConfig {
                shards: 2,
                epoch_hours: 24,
                detect,
                rotate_floor: 0,
            };
            let mut plane = FreshDigests {
                every,
                shards: 2,
                accounts: out.accounts.len(),
                detect,
                committed: None,
                barriers: 0,
                pairs: Vec::new(),
            };
            let served = crate::ServeSession::new(cfg).plane(&mut plane).run(&out);
            assert!(!served.expect("serve").report.detections.is_empty());
            assert!(plane.barriers > 3 * every);
            assert_eq!(plane.pairs.len() as u64, 2 * plane.barriers.div_ceil(every));
            for (epoch, sid, running, fresh) in plane.pairs {
                assert_eq!(running, fresh, "every {every}, epoch {epoch}, shard {sid}");
            }
        }
    }
}
