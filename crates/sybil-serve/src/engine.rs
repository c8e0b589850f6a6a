//! The epoch-barrier coordinator: slice the event stream into epochs, run
//! every shard over each slice in parallel, merge staged effects
//! deterministically at the barrier.
//!
//! The determinism argument, end to end:
//!
//! 1. [`EpochBatches`] gives every event a global `seq` in exactly the
//!    sequential replay's processing order (it is `EventStream`'s
//!    sequence, merged one epoch at a time).
//! 2. Within an epoch, each shard applies owned-account transitions in
//!    event order and stages detections/feedback tagged with `seq`. All
//!    shared inputs a check reads are either owned by that shard,
//!    replicated identically on every shard (the audit cursor and
//!    adaptive replica — all shards scan all events), or read-only for
//!    the epoch (the coordinator's edge mirror, probed below the
//!    link-arena watermark of the checking event so only edges created
//!    at or before it count), so no value depends on cross-shard timing.
//! 3. At the barrier the coordinator sorts detections by `(timestamp,
//!    seq)` (account ownership makes `seq` already unique) and feedback by
//!    `(seq, intra)`, recovering the sequential emission order; feedback
//!    is redistributed to every replica before the next epoch begins.
//! 4. Feedback staged in epoch *k* is never due before epoch *k+1*
//!    because the epoch length is clamped to the verification delay — so
//!    deferring its delivery to the barrier loses nothing.
//!
//! Latency sums are accumulated in merged detection order and the final
//! rule is read off shard 0's replica, so the assembled
//! [`DeploymentReport`] is byte-identical to [`replay`]'s at every shard
//! and thread count.
//!
//! There is one epoch step — index → scan → fold tallies → merge →
//! absorb, on the `Coordinator` below — and whatever processes an epoch
//! runs it: live serving (shards under `par::map_owned`, faults absorbed
//! between its halves) and journal replay, which is both the committed
//! tail after a warm restart and crash rebuild (shards in order, digests
//! compared). Recovery cannot drift from serving.

use crate::fault::{
    ChaosError, EpochRecord, EpochRecordRef, FaultKind, FaultPlane, SessionCheckpoint, ShardFault,
};
use crate::meter::{Meter, Stage};
use crate::mirror::{EpochIndex, GraphMirror};
use crate::queue::QueueFull;
use crate::shard::{EpochOutput, ShardState, TaggedDetection, TaggedFeedback};
use osn_graph::par;
use osn_sim::stream::EpochBatches;
use osn_sim::SimOutput;
use sybil_core::realtime::{DeploymentReport, RealtimeConfig, ReplayCounters};

/// Configuration of the sharded serving engine.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker shard count; 0 means "use [`par::num_threads`]" (the
    /// `RENREN_THREADS` environment override).
    pub shards: usize,
    /// Barrier cadence in simulated hours. Bounds the per-epoch event
    /// buffer; clamped to `[1, feedback_delay_h]` when adaptive feedback
    /// is on (see the module docs for why).
    pub epoch_hours: u64,
    /// The detector configuration, shared with the sequential
    /// [`replay`].
    pub detect: RealtimeConfig,
    /// Snapshot-rotation floor in edges; 0 selects the engine default
    /// (1024). Rotation timing is value-neutral, so this only trades
    /// rotation frequency against delta-probe length — tests force tiny
    /// floors to exercise many incremental rotations.
    pub rotate_floor: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            epoch_hours: 48,
            detect: RealtimeConfig::default(),
            rotate_floor: 0,
        }
    }
}

impl ServeConfig {
    /// Engine defaults (ambient shard count, 48 h epochs) around a given
    /// detector configuration.
    pub fn for_detect(detect: RealtimeConfig) -> Self {
        ServeConfig {
            detect,
            ..ServeConfig::default()
        }
    }

    /// The shard count a run of this configuration uses: `shards`, or the
    /// ambient thread count when it is 0. The one place that rule lives:
    /// the engine, journal replay and the drills all resolve through it.
    pub fn resolved_shards(&self) -> usize {
        match self.shards {
            0 => par::num_threads().max(1),
            n => n,
        }
    }

    /// What a run actually uses: the shard count resolved, the detector
    /// sanitized. Sessions are built from this, never from the raw input.
    fn resolved(&self) -> Self {
        ServeConfig {
            shards: self.resolved_shards(),
            detect: self.detect.sanitized(),
            ..*self
        }
    }
}

/// Why the serving engine could not produce a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A shard staged more effects than its epoch-invariant bound — an
    /// engine bug, surfaced instead of silently growing the queue. The
    /// carried [`QueueFull`] names the exact `(epoch, shard, seq)` site.
    QueueOverflow(QueueFull),
    /// `adaptive` with `feedback_delay_h == 0` cannot be sharded: feedback
    /// would be due within the epoch that generated it, and the sequential
    /// engine would apply it between adjacent events.
    ZeroFeedbackDelay,
    /// A fault-plane failure: an injected fault that could not be
    /// absorbed, a journal failure (a store another run wrote included),
    /// or a replay that diverged. Always attributed — never a silent
    /// wrong answer.
    Chaos(ChaosError),
}

impl ServeError {
    /// The fault-plane failure at `epoch` (and `shard`, if shard-scoped).
    pub fn fault(epoch: u64, shard: Option<usize>, fault_kind: FaultKind) -> Self {
        ServeError::Chaos(ChaosError {
            epoch,
            shard,
            fault_kind,
        })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueOverflow(q) => write!(f, "shard effect {q}"),
            ServeError::ZeroFeedbackDelay => {
                write!(f, "adaptive serving requires feedback_delay_h ≥ 1")
            }
            ServeError::Chaos(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueueFull> for ServeError {
    fn from(q: QueueFull) -> Self {
        ServeError::QueueOverflow(q)
    }
}

impl From<ChaosError> for ServeError {
    fn from(c: ChaosError) -> Self {
        ServeError::Chaos(c)
    }
}

/// A monotonic-seconds source injected by callers that want timing
/// ([`ServeSession::clock`](crate::ServeSession::clock)). The engine
/// never reads a clock itself, so timing stays a benchmark concern.
pub type Clock<'a> = &'a (dyn Fn() -> f64 + Sync);

/// Timing breakdown of a serve run (zero when no clock was injected).
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// End-to-end seconds, by the injected clock.
    pub wall_s: f64,
    /// Modeled parallel critical path: per epoch, the sequential
    /// coordinator work plus the *slowest* shard's busy time. Equals
    /// wall-clock when every shard has its own core; on fewer cores
    /// (where shards run serially) it reports what wall-clock would be
    /// with enough cores, exactly.
    pub critical_path_s: f64,
    /// Total busy seconds per shard across all epochs.
    pub shard_busy_s: Vec<f64>,
}

/// One shard's epoch reaching the barrier: its state, what it staged,
/// its busy seconds, and its post-epoch digest when one was taken.
type Arrival = (ShardState, EpochOutput, f64, Option<u64>);

/// How a step drives its shard vector: `par::map_owned` for live
/// epochs, a plain in-order map for journaled ones. With the scan
/// scaling, replaying them in parallel no longer loses, but over six
/// alternating pairs it did not win either (DESIGN.md §Persistence &
/// warm restart has the pairs), so the tail stays in order.
#[derive(Clone, Copy)]
enum Drive {
    Parallel,
    InOrder,
}

/// The coordinator's barrier-time state — exactly what a
/// [`SessionCheckpoint`] snapshots — and the one epoch step over it, in
/// two halves: [`scan`](Self::scan) (index → shard scan) and
/// [`merge`](Self::merge) (fold tallies → sort → absorb). Between them
/// sits all that differs between the two drivers: live serving absorbs
/// faults there, journal replay ([`rerun`](Self::rerun)) compares
/// digests. A session *carries* all the run's shards or, for crash
/// replay, the crashed ones.
struct Coordinator<'a> {
    out: &'a SimOutput,
    shards: Vec<ShardState>,
    mirror: GraphMirror,
    /// All detections so far, in global stream order.
    tagged: Vec<TaggedDetection>,
    /// Feedback staged last epoch, merged, awaiting redistribution.
    carry_feedback: Vec<TaggedFeedback>,
    /// Logical totals, folded from per-shard tallies at each barrier.
    totals: ReplayCounters,
    /// Completed epochs.
    epochs: u64,
}

impl<'a> Coordinator<'a> {
    /// A session at epoch 0 carrying the shards `carried` names; `cfg`
    /// is the run's [`resolved`](ServeConfig::resolved) configuration.
    fn new(out: &'a SimOutput, cfg: ServeConfig, carried: impl Iterator<Item = usize>) -> Self {
        let n = out.accounts.len();
        let shard = |s| ShardState::new(s, cfg.shards, n, &cfg.detect);
        Coordinator {
            out,
            shards: carried.map(shard).collect(),
            mirror: GraphMirror::new(n, cfg.rotate_floor),
            tagged: Vec::new(),
            carry_feedback: Vec::new(),
            totals: ReplayCounters::default(),
            epochs: 0,
        }
    }

    /// The session `cp` was taken from, resumed at its barrier. A
    /// checkpoint is outside input: its shard count, each shard's owned
    /// count and audit countdown, and every edge endpoint are checked
    /// against *this* run before anything is indexed by them, so another
    /// run's store is a typed journal fault, never a panic.
    fn restore(
        out: &'a SimOutput,
        cfg: ServeConfig,
        cp: SessionCheckpoint,
    ) -> Result<Self, ServeError> {
        let (n, mut co) = (out.accounts.len(), Coordinator::new(out, cfg, 0..0));
        let foreign = ServeError::fault(cp.epochs, None, FaultKind::Journal);
        if cp.shards.len() != cfg.shards {
            return Err(foreign);
        }
        let shard = |(s, snap)| ShardState::from_snapshot(s, cfg.shards, n, &cfg.detect, snap);
        let shards = cp.shards.into_iter().enumerate().map(shard);
        co.shards = shards.collect::<Option<_>>().ok_or(foreign)?;
        let (folded, staged) = (&cp.folded_edges, &cp.staged_edges);
        co.mirror = GraphMirror::restore(n, cfg.rotate_floor, folded, staged).ok_or(foreign)?;
        let tagged = |(seq, detection)| TaggedDetection { seq, detection };
        co.tagged = cp.tagged.into_iter().map(tagged).collect();
        (co.carry_feedback, co.totals, co.epochs) = (cp.carry_feedback, cp.totals, cp.epochs);
        Ok(co)
    }

    /// What [`restore`](Self::restore) takes. Called post-commit,
    /// post-fold: exactly the state the next epoch starts from.
    fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            epochs: self.epochs,
            shards: self.shards.iter().map(ShardState::snapshot).collect(),
            folded_edges: self.mirror.folded_edges(),
            staged_edges: self.mirror.staged_edges().to_vec(),
            tagged: self.tagged.iter().map(|t| (t.seq, t.detection)).collect(),
            carry_feedback: self.carry_feedback.clone(),
            totals: self.totals,
        }
    }

    /// First half of the step. A sequential stream-order pass puts the
    /// epoch's new edges into the mirror — the index lets a shard's check
    /// hide the ones created after it; shards keep no mirrors of their
    /// own — then every carried shard scans the epoch (under the fault
    /// plane's `clamps`, if any) and, with `want_dig`, digests its own
    /// state there, in its busy window, not serially on the coordinator.
    fn scan(
        &mut self,
        rec: EpochRecordRef<'_>,
        clamps: &[Option<usize>],
        want_dig: bool,
        drive: Drive,
        meter: &mut Meter<'_>,
    ) -> (EpochIndex, Vec<Result<Arrival, QueueFull>>) {
        let eidx = self.mirror.index_epoch(rec.events, rec.details);
        meter.lap(Stage::Index);
        self.totals.events_processed += rec.events.len() as u64;
        let (out, mirror, clock) = (self.out, &self.mirror, meter.clock);
        let scan_one = |mut shard: ShardState| {
            let clamp = clamps.get(shard.id()).copied().flatten();
            let t0 = clock();
            let staged = shard.run_epoch(rec, out, mirror, &eidx, clamp);
            let digest = (want_dig && staged.is_ok()).then(|| shard.digest());
            let busy = clock() - t0;
            staged.map(|staged| (shard, staged, busy, digest))
        };
        let shards = std::mem::take(&mut self.shards);
        let results = match drive {
            Drive::Parallel => par::map_owned(shards, scan_one),
            Drive::InOrder => shards.into_iter().map(scan_one).collect(),
        };
        meter.lap(Stage::Scan);
        (eidx, results)
    }

    /// Second half of the step: fold the arrivals (the shard vector with
    /// them) back into the session, close the epoch, return the digests
    /// in shard order. Arrival-order-insensitive by construction: totals
    /// are commutative integer adds, detections and feedback are sorted,
    /// everything keyed (busy time, sharded metrics, digests, the shard-0
    /// feedback rule) goes by shard id.
    fn merge(&mut self, idx: EpochIndex, arrived: Vec<Arrival>, meter: &mut Meter<'_>) -> Vec<u64> {
        self.epochs += 1;
        let (mut epoch_dets, mut epoch_fb, mut epoch_digs) = (Vec::new(), Vec::new(), Vec::new());
        let (mut busy_sum, mut busy_max) = (0.0f64, 0.0f64);
        for (mut shard, staged, busy, digest) in arrived {
            let sid = shard.id();
            epoch_digs.extend(digest.map(|d| (sid, d)));
            meter.stats.shard_busy_s[sid] += busy;
            busy_sum += busy;
            busy_max = busy_max.max(busy);
            let sobs = std::mem::take(&mut shard.obs);
            self.totals.checks_run += sobs.checks_run;
            self.totals.detections += sobs.detections;
            self.totals.features_computed += sobs.features_computed;
            self.totals.audits_sampled += sobs.audits_sampled;
            // The adaptive replica applies the same feedback on every
            // shard; shard 0's count is the sequential engine's count.
            if sid == 0 {
                self.totals.feedback_applied += sobs.feedback_applied;
            }
            if let Some(reg) = meter.obs.as_deref_mut() {
                reg.add_sharded(sid, "checks_run", sobs.checks_run);
                reg.max_sharded(sid, "det_queue_hwm", staged.detections.len() as u64);
                reg.max_sharded(sid, "fb_queue_hwm", staged.feedback.len() as u64);
            }
            self.shards.push(shard);
            epoch_dets.extend(staged.detections.into_items());
            epoch_fb.extend(staged.feedback.into_items());
        }
        self.shards.sort_by_key(ShardState::id);
        meter.epoch_end(busy_sum, busy_max);
        // Deterministic merge: (timestamp, seq) recovers the sequential
        // emission order (seq is unique; account ownership partitions the
        // stream, so no two shards stage the same seq+kind).
        epoch_dets.sort_by_key(|d: &TaggedDetection| (d.detection.at, d.seq));
        self.tagged.extend(epoch_dets);
        epoch_fb.sort_by_key(|f: &TaggedFeedback| (f.seq, f.intra));
        self.carry_feedback = epoch_fb;
        meter.lap(Stage::Merge);
        self.mirror.absorb(idx);
        meter.lap(Stage::Fold);
        epoch_digs.sort_by_key(|&(sid, _)| sid);
        epoch_digs.into_iter().map(|(_, d)| d).collect()
    }

    /// Re-run journaled epoch `rec` — the next one this session is due —
    /// through the step live serving runs, writing nothing to the plane.
    /// `run_epoch` is a pure function of (state, epoch input) and the
    /// journal captured exactly that input, so the carried shards reach
    /// byte-identical `realtime::state`; each is compared with the digest
    /// the original barrier committed, when one was. An `in_flight` epoch
    /// never reached its barrier: its arrivals are handed back unmerged,
    /// digests taken. A record that is not this run's next epoch, or
    /// names an account it does not have, is [`FaultKind::Journal`]; a
    /// digest mismatch, or an overflow of bounds the original ran inside,
    /// is [`FaultKind::ReplayDivergence`].
    fn rerun<P: FaultPlane>(
        &mut self,
        plane: &mut P,
        rec: &EpochRecord,
        in_flight: bool,
        meter: &mut Meter<'_>,
    ) -> Result<Option<Vec<Arrival>>, ServeError> {
        let (e, n) = (rec.epoch, self.out.accounts.len());
        let known = |id: u32| (id as usize) < n;
        if e != self.epochs || !rec.details.iter().all(|d| known(d.from) && known(d.to)) {
            return Err(ServeError::fault(e, None, FaultKind::Journal));
        }
        let input = EpochRecordRef {
            epoch: e,
            events: &rec.events,
            details: &rec.details,
            feedback: &rec.feedback,
        };
        let (eidx, results) = self.scan(input, &[], in_flight, Drive::InOrder, meter);
        let diverged = |sid| ServeError::fault(e, sid, FaultKind::ReplayDivergence);
        let arrived: Vec<Arrival> = results
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|q: QueueFull| diverged(q.site.map(|s| s.shard)))?;
        if in_flight {
            return Ok(Some(arrived));
        }
        for (shard, ..) in &arrived {
            let want = plane.committed_digest(e, shard.id());
            if want.is_some_and(|want| shard.digest() != want) {
                return Err(diverged(Some(shard.id())));
            }
        }
        meter.lap(Stage::Plane);
        self.merge(eidx, arrived, meter);
        Ok(None)
    }
}

/// The one journal-replay routine: a fresh one-mirror session carrying
/// the shards `carried` names re-runs the plane's journal from epoch 0.
/// With `in_flight = Some(k)` (crash recovery) what epochs `0..k`
/// re-stage is dropped with the session — the original barriers merged
/// it already — and epoch `k`'s arrivals are returned to the barrier
/// waiting on them; however many shards crashed, they share the pass.
/// With `None` the whole journal is replayed (the round-trip check).
fn rebuild<'a, P: FaultPlane>(
    plane: &mut P,
    out: &'a SimOutput,
    cfg: ServeConfig,
    carried: impl Iterator<Item = usize>,
    in_flight: Option<u64>,
) -> Result<(Coordinator<'a>, Vec<Arrival>), ServeError> {
    let mut co = Coordinator::new(out, cfg, carried);
    let zero = || 0.0;
    let mut unmetered = Meter::start(&zero, None, cfg.shards);
    while let Some(rec) = plane.replay_epoch(co.epochs)? {
        let last = in_flight == Some(rec.epoch);
        if let Some(arrived) = co.rerun(plane, &rec, last, &mut unmetered)? {
            return Ok((co, arrived));
        }
    }
    match in_flight {
        // Write-ahead contract broken: the crashed epoch's begin record
        // must exist before the epoch ran.
        Some(k) => Err(ServeError::fault(k, None, FaultKind::Journal)),
        None => Ok((co, Vec::new())),
    }
}

/// The journal round-trip check: replay every shard's entire history
/// out of `plane`'s journal, in one pass, and return the digests of the
/// reconstructed `realtime::state` in shard order. That they equal what
/// the live run committed at its final barrier proves the on-disk
/// journal alone reaches byte-identical state.
pub fn replay_journal<P: FaultPlane>(
    plane: &mut P,
    out: &SimOutput,
    cfg: &ServeConfig,
) -> Result<Vec<u64>, ServeError> {
    let cfg = cfg.resolved();
    let (co, _) = rebuild(plane, out, cfg, 0..cfg.shards, None)?;
    Ok(co.shards.iter().map(ShardState::digest).collect())
}

/// The one coordinator loop behind
/// [`ServeSession`](crate::ServeSession) — run it through the builder,
/// which owns the optional-capability wiring (clock, metrics, fault
/// plane / store). Generic over the fault plane so the production
/// instantiation (with [`NoFaults`](crate::NoFaults)) monomorphizes
/// every hook to an inlined no-op.
pub(crate) fn serve_inner<P: FaultPlane>(
    out: &SimOutput,
    cfg: &ServeConfig,
    clock: Clock<'_>,
    obs: Option<&mut sybil_obs::Registry>,
    plane: &mut P,
) -> Result<(DeploymentReport, ServeStats), ServeError> {
    let cfg = cfg.resolved();
    let (rt, shards_n) = (cfg.detect, cfg.shards);
    if rt.adaptive && rt.feedback_delay_h == 0 {
        return Err(ServeError::ZeroFeedbackDelay);
    }
    let epoch_h = if rt.adaptive {
        cfg.epoch_hours.clamp(1, rt.feedback_delay_h)
    } else {
        cfg.epoch_hours.max(1)
    };
    let t_start = clock();

    // One branch per run, not per epoch: a disabled plane (production)
    // skips every chaos block below.
    let chaos = plane.enabled();

    // Warm restart: the plane may hand back its latest checkpoint and
    // the epoch its committed journal tail ends at. The loop then drops
    // the batches the checkpoint covers, re-runs the tail epochs out of
    // the journal, and goes live where the tail ends.
    let resume = if chaos { plane.load_resume()? } else { None };
    let tail_end = resume.as_ref().map_or(0, |r| r.tail_end);
    let mut co = match resume {
        Some(r) => Coordinator::restore(out, cfg, r.checkpoint)?,
        None => Coordinator::new(out, cfg, 0..shards_n),
    };
    let mut skip = co.epochs;

    // Epoch slicing off the calendar merge: at most one epoch of events
    // plus the decisions in flight is buffered, and nothing proportional
    // to the log is built (see `osn_sim::stream::EpochBatches`).
    let mut batches = EpochBatches::new(&out.log, epoch_h * 3600);
    let mut meter = Meter::start(clock, obs, shards_n);
    loop {
        let batch = batches.next_epoch();
        meter.lap(Stage::Pull);
        let Some((events, details)) = batch else {
            break;
        };
        if skip > 0 {
            // The checkpoint already holds this epoch: drop its batch.
            skip -= 1;
            continue;
        }
        meter.t_epoch = clock();
        let epoch_no = co.epochs;
        if chaos && epoch_no < tail_end {
            // A committed tail epoch: one journaled epoch in memory at a
            // time, and only if it is the epoch the stream says it is — a
            // same-shape store from another run stops here, digests or no.
            let rec = plane.replay_epoch(epoch_no)?;
            let rec = rec
                .filter(|rec| rec.events == events && rec.details == details)
                .ok_or(ServeError::fault(epoch_no, None, FaultKind::Journal))?;
            meter.lap(Stage::Plane);
            co.rerun(plane, &rec, false, &mut meter)?;
            meter.flush();
            continue;
        }
        let feed = std::mem::take(&mut co.carry_feedback);
        let rec = EpochRecordRef {
            epoch: epoch_no,
            events,
            details,
            feedback: &feed,
        };
        // The plane's per-shard decisions for this epoch, asked once.
        let (mut clamps, mut faults, mut want_dig) = (Vec::new(), Vec::new(), false);
        if chaos {
            // Write-ahead: the journal records the epoch's full input
            // *before* any shard touches it, so a mid-epoch crash can
            // always replay the in-flight epoch.
            plane.epoch_begin(rec)?;
            for s in 0..shards_n {
                clamps.push(plane.queue_clamp(epoch_no, s));
                faults.push(plane.shard_fault(epoch_no, s));
            }
            want_dig = plane.wants_digests(epoch_no);
            meter.lap(Stage::Plane);
        }
        let crashed = |sid: usize| faults.get(sid) == Some(&ShardFault::Crash);
        let (eidx, mut results) = co.scan(rec, &clamps, want_dig, Drive::Parallel, &mut meter);
        if chaos {
            // Delivery-order fault: results may reach the barrier in any
            // order. The merge is keyed by shard id, so a permutation
            // must be output-neutral.
            if let Some(ord) = plane.deliver_order(epoch_no, shards_n) {
                results = permute(results, &ord);
            }
            meter.lap(Stage::Plane);
        }
        // Collect arrivals; a crashed shard's result (or its overflow
        // error) dies with the crash and is replaced by journal replay.
        let mut arrived: Vec<Arrival> = Vec::with_capacity(shards_n);
        for r in results {
            let sid = match &r {
                Ok((shard, ..)) => Some(shard.id()),
                Err(q) => q.site.map(|site| site.shard),
            };
            if !sid.is_some_and(&crashed) {
                arrived.push(r?);
            }
        }
        if arrived.len() < shards_n {
            meter.lap(Stage::Merge);
            let lost = (0..shards_n).filter(|&s| crashed(s));
            arrived.append(&mut rebuild(plane, out, cfg, lost, Some(epoch_no))?.1);
            meter.lap(Stage::Plane);
        }
        let digests = co.merge(eidx, arrived, &mut meter);
        if chaos {
            plane.epoch_commit(epoch_no, want_dig.then_some(&digests[..]))?;
            if plane.wants_checkpoint(epoch_no) {
                plane.checkpoint(&co.checkpoint())?;
            }
            meter.lap(Stage::Plane);
        }
        meter.flush();
    }

    if chaos {
        if skip > 0 || co.epochs < tail_end {
            // The store holds more epochs than this run's stream has.
            return Err(ServeError::fault(co.epochs, None, FaultKind::Journal));
        }
        let final_digests: Vec<u64> = co.shards.iter().map(ShardState::digest).collect();
        plane.run_end(co.epochs, &final_digests)?;
    }
    let report = assemble(out, &rt, &co.shards, &co.tagged);
    let (stats, obs) = meter.finish(t_start);
    if let Some(reg) = obs {
        co.totals.export(reg);
        let id = reg.counter("epochs");
        reg.add(id, co.epochs);
    }
    Ok((report, stats))
}

/// Reorder `items` according to `ord` (a permutation of `0..len`).
/// Malformed orders degrade gracefully: out-of-range or repeated indices
/// are skipped and unpicked items keep their relative order at the end,
/// so a buggy plane can at worst deliver the identity ordering late,
/// never lose a shard result.
fn permute<T>(items: Vec<T>, ord: &[usize]) -> Vec<T> {
    if ord.len() != items.len() {
        return items;
    }
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let pick = |&i: &usize| slots.get_mut(i).and_then(Option::take);
    let mut picked: Vec<T> = ord.iter().filter_map(pick).collect();
    picked.extend(slots.into_iter().flatten());
    picked
}

/// Fold merged detections and final shard states into the report, in the
/// exact arithmetic order the sequential engine used.
fn assemble(
    out: &SimOutput,
    rt: &RealtimeConfig,
    shards: &[ShardState],
    tagged: &[TaggedDetection],
) -> DeploymentReport {
    let mut report = DeploymentReport::default();
    for td in tagged {
        let d = td.detection;
        report.detections.push(d);
        if d.correct {
            report.true_positives += 1;
            // Same accumulation order as the sequential loop: global
            // detection order, one running f64 sum.
            report.mean_latency_h +=
                d.at.as_hours() - out.accounts[d.account.index()].created_at.as_hours();
        } else {
            report.false_positives += 1;
        }
    }
    let shards_n = shards.len();
    for (i, a) in out.accounts.iter().enumerate() {
        if a.is_sybil() {
            let (states, li) = (&shards[i % shards_n].states, i / shards_n);
            if states.sent(li) as usize >= rt.warmup_requests && !states.detected(li) {
                report.missed += 1;
            }
        }
    }
    if report.true_positives > 0 {
        report.mean_latency_h /= report.true_positives as f64;
    }
    report.final_rule = if rt.adaptive {
        // Every replica applied the identical feedback sequence; in debug
        // builds, spot-check the invariant on the audit cursor.
        debug_assert!(shards
            .windows(2)
            .all(|w| w[0].audit_cursor == w[1].audit_cursor));
        shards[0].current_rule()
    } else {
        rt.rule
    };
    report.detections.sort_by_key(|d| d.at);
    report
}
