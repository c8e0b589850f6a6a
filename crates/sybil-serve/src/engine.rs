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

use crate::fault::{
    ChaosError, EpochRecord, EpochRecordRef, FaultKind, FaultPlane, SessionCheckpoint, ShardFault,
};
use crate::mirror::GraphMirror;
use crate::queue::QueueFull;
use crate::shard::{EpochOutput, ShardObs, ShardState, TaggedDetection, TaggedFeedback};
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
    /// absorbed, a journal failure, or a crash replay that diverged.
    /// Always attributed — never a silent wrong answer.
    Chaos(ChaosError),
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

/// The coordinator's own stages, recorded per epoch as `stage.*` wall
/// spans beside `epoch` when a registry is attached: pulling the batch
/// off the stream, the mirror's index pass, the parallel shard scan, the
/// barrier merge, the mirror fold (rotation included), and every
/// fault-plane hook call (with the crash recovery they drive).
#[derive(Clone, Copy)]
enum Stage {
    Pull,
    Index,
    Scan,
    Merge,
    Fold,
    Plane,
}

/// Span names, in [`Stage`] order.
const STAGE_SPANS: [&str; 6] = [
    "stage.pull",
    "stage.index",
    "stage.scan",
    "stage.merge",
    "stage.fold",
    "stage.plane",
];

/// Splits the epoch loop's time among the [`Stage`]s by the injected clock:
/// each [`lap`](Self::lap) charges everything since the previous one to
/// one stage, so the stages partition the loop and never overlap.
struct StageClock<'a> {
    clock: Clock<'a>,
    last: f64,
    spent: [f64; STAGE_SPANS.len()],
}

impl<'a> StageClock<'a> {
    fn start(clock: Clock<'a>) -> Self {
        StageClock {
            clock,
            last: clock(),
            spent: [0.0; STAGE_SPANS.len()],
        }
    }

    fn lap(&mut self, stage: Stage) {
        let now = (self.clock)();
        self.spent[stage as usize] += now - self.last;
        self.last = now;
    }

    /// Record the epoch's stage times and start the next epoch's at zero.
    fn flush(&mut self, reg: &mut sybil_obs::Registry) {
        for (name, spent) in STAGE_SPANS.iter().zip(&mut self.spent) {
            let id = reg.span(name);
            reg.record_span(id, std::mem::take(spent));
        }
    }
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
    mut obs: Option<&mut sybil_obs::Registry>,
    plane: &mut P,
) -> Result<(DeploymentReport, ServeStats), ServeError> {
    let rt = cfg.detect.sanitized();
    if rt.adaptive && rt.feedback_delay_h == 0 {
        return Err(ServeError::ZeroFeedbackDelay);
    }
    let shards_n = if cfg.shards == 0 {
        par::num_threads()
    } else {
        cfg.shards
    }
    .max(1);
    let epoch_h = if rt.adaptive {
        cfg.epoch_hours.clamp(1, rt.feedback_delay_h)
    } else {
        cfg.epoch_hours.max(1)
    };
    let epoch_s = epoch_h * 3600;

    let n = out.accounts.len();
    let mut shards: Vec<ShardState> = (0..shards_n)
        .map(|s| ShardState::new(s, shards_n, n, &rt))
        .collect();
    let mut mirror = GraphMirror::new(n, cfg.rotate_floor);

    // Epoch slicing off the calendar merge: at most one epoch of events
    // plus the decisions in flight is buffered, and nothing proportional
    // to the log is built (see `osn_sim::stream::EpochBatches`).
    let mut batches = EpochBatches::new(&out.log, epoch_s);
    // Feedback staged last epoch, merged, awaiting redistribution.
    let mut carry_feedback: Vec<TaggedFeedback> = Vec::new();
    // All detections so far, in global stream order.
    let mut tagged: Vec<TaggedDetection> = Vec::new();
    let mut stats = ServeStats {
        shard_busy_s: vec![0.0; shards_n],
        ..ServeStats::default()
    };
    let mut epochs_wall_s = 0.0f64;
    // Logical totals, folded from per-shard tallies at each barrier.
    let mut totals = ReplayCounters::default();
    let mut epochs: u64 = 0;
    let t_start = clock();

    // One branch per run, not per epoch: a disabled plane (production)
    // skips every chaos block below.
    let chaos = plane.enabled();

    // Warm restart: the plane may hand back the latest checkpoint plus
    // the journal tail written after it. Restore the barrier-time state,
    // replay the tail sequentially (same inputs, same merge keys, same
    // fold order as the live barrier), then skip the already-completed
    // epochs in the live loop below and continue mid-stream.
    let mut resume_skip = 0u64;
    if chaos {
        if let Some(resume) = plane.load_resume().map_err(ServeError::Chaos)? {
            let cp = resume.checkpoint;
            if cp.shards.len() != shards_n {
                // A checkpoint from a different shard topology cannot
                // resume this run.
                return Err(ServeError::Chaos(ChaosError {
                    epoch: cp.epochs,
                    shard: None,
                    fault_kind: FaultKind::Journal,
                }));
            }
            shards = cp
                .shards
                .into_iter()
                .enumerate()
                .map(|(s, snap)| ShardState::from_snapshot(s, shards_n, n, &rt, snap))
                .collect();
            mirror =
                GraphMirror::restore(n, cfg.rotate_floor, &cp.folded_edges, &cp.staged_edges);
            tagged = cp
                .tagged
                .into_iter()
                .map(|(seq, detection)| TaggedDetection { seq, detection })
                .collect();
            carry_feedback = cp.carry_feedback;
            totals = cp.totals;
            epochs = cp.epochs;
            for rec in &resume.tail {
                if rec.epoch != epochs {
                    // The tail must continue exactly where the
                    // checkpoint stopped, gap- and overlap-free.
                    return Err(ServeError::Chaos(ChaosError {
                        epoch: rec.epoch,
                        shard: None,
                        fault_kind: FaultKind::Journal,
                    }));
                }
                replay_tail_epoch(
                    plane,
                    rec,
                    out,
                    &mut shards,
                    &mut mirror,
                    &mut tagged,
                    &mut carry_feedback,
                    &mut totals,
                )?;
                epochs += 1;
            }
            resume_skip = epochs;
        }
    }

    let mut stages = StageClock::start(clock);
    loop {
        let batch = batches.next_epoch();
        stages.lap(Stage::Pull);
        let Some((events, details)) = batch else {
            break;
        };
        if resume_skip > 0 {
            // This epoch finished before the restart (restored from the
            // checkpoint or replayed from the journal tail): consume its
            // batch and move on.
            resume_skip -= 1;
            continue;
        }
        let feed = std::mem::take(&mut carry_feedback);
        let t_epoch = clock();
        let epoch_no = epochs;
        if chaos {
            // Write-ahead: the journal records the epoch's full input
            // *before* any shard touches it, so a mid-epoch crash can
            // always replay the in-flight epoch.
            plane
                .epoch_begin(EpochRecordRef {
                    epoch: epoch_no,
                    events,
                    details,
                    feedback: &feed,
                })
                .map_err(ServeError::Chaos)?;
            stages.lap(Stage::Plane);
        }
        // Sequential stream-order pass: the epoch's new edges enter the
        // mirror now, and the index lets a shard's check hide the ones
        // created after it — shards maintain no mirrors of their own.
        let eidx = mirror.index_epoch(events, details);
        stages.lap(Stage::Index);
        // The plane's per-shard decisions for this epoch, asked once.
        // Barrier digests are per-shard work: each worker digests its own
        // state inside the parallel section (and inside its busy window)
        // instead of the coordinator folding all shards serially.
        let (mut clamps, mut faults, mut want_dig) = (Vec::new(), Vec::new(), false);
        if chaos {
            clamps = (0..shards_n).map(|s| plane.queue_clamp(epoch_no, s)).collect();
            faults = (0..shards_n).map(|s| plane.shard_fault(epoch_no, s)).collect();
            want_dig = plane.wants_digests(epoch_no);
            stages.lap(Stage::Plane);
        }
        let crashed = |sid: usize| faults.get(sid) == Some(&ShardFault::Crash);
        let mut results = par::map_owned(std::mem::take(&mut shards), |mut s| {
            let sid = s.id();
            let clamp = clamps.get(sid).copied().flatten();
            let t0 = clock();
            let staged =
                s.run_epoch(events, details, out, &feed, &mirror, &eidx, epoch_no, clamp);
            let dig = (want_dig && staged.is_ok()).then(|| s.digest());
            let busy = clock() - t0;
            staged.map(|e| (sid, s, e, busy, dig))
        });
        stages.lap(Stage::Scan);

        epochs += 1;
        totals.events_processed += events.len() as u64;
        if chaos {
            // Delivery-order fault: results may reach the barrier in any
            // order. The fold below is keyed by the shard-id tag, so a
            // permutation must be output-neutral.
            if let Some(ord) = plane.deliver_order(epoch_no, shards_n) {
                results = permute(results, &ord);
            }
            stages.lap(Stage::Plane);
        }
        // Collect arrivals; a crashed shard's result (or its overflow
        // error) dies with the crash and is replaced by journal replay.
        let mut arrived: Vec<(usize, ShardState, EpochOutput, f64, Option<u64>)> =
            Vec::with_capacity(shards_n);
        for r in results {
            match r {
                Ok((sid, s, eout, busy, dig)) => {
                    if !crashed(sid) {
                        arrived.push((sid, s, eout, busy, dig));
                    }
                }
                Err(q) => {
                    if !q.site.is_some_and(|site| crashed(site.shard)) {
                        return Err(ServeError::QueueOverflow(q));
                    }
                }
            }
        }
        if arrived.len() < shards_n {
            stages.lap(Stage::Merge);
            for sid in 0..shards_n {
                if crashed(sid) {
                    let (s, eout, _) = rebuild_shard(
                        plane,
                        sid,
                        shards_n,
                        out,
                        &rt,
                        cfg.rotate_floor,
                        Some(epoch_no),
                    )?;
                    let Some(eout) = eout else {
                        return Err(ServeError::Chaos(ChaosError {
                            epoch: epoch_no,
                            shard: Some(sid),
                            fault_kind: FaultKind::Journal,
                        }));
                    };
                    let dig = want_dig.then(|| s.digest());
                    arrived.push((sid, s, eout, 0.0, dig));
                }
            }
            stages.lap(Stage::Plane);
        }
        let mut epoch_dets: Vec<TaggedDetection> = Vec::new();
        let mut epoch_fb: Vec<TaggedFeedback> = Vec::new();
        let mut epoch_digs: Vec<(usize, u64)> = Vec::new();
        let (mut busy_sum, mut busy_max) = (0.0f64, 0.0f64);
        // The fold is arrival-order-insensitive by construction: totals
        // are commutative integer adds, detections and feedback are
        // sorted below, and everything keyed (busy time, sharded
        // metrics, the shard-0 feedback rule) uses the shard-id tag.
        let mut merged: Vec<(usize, ShardState)> = Vec::with_capacity(shards_n);
        for (sid, mut s, eout, busy, dig) in arrived {
            if let Some(d) = dig {
                epoch_digs.push((sid, d));
            }
            stats.shard_busy_s[sid] += busy;
            busy_sum += busy;
            busy_max = busy_max.max(busy);
            let sobs = std::mem::take(&mut s.obs);
            totals.checks_run += sobs.checks_run;
            totals.detections += sobs.detections;
            totals.features_computed += sobs.features_computed;
            totals.audits_sampled += sobs.audits_sampled;
            // The adaptive replica applies the same feedback on every
            // shard; shard 0's count is the sequential engine's count.
            if sid == 0 {
                totals.feedback_applied += sobs.feedback_applied;
            }
            if let Some(reg) = obs.as_deref_mut() {
                reg.add_sharded(sid, "checks_run", sobs.checks_run);
                reg.max_sharded(sid, "det_queue_hwm", eout.detections.len() as u64);
                reg.max_sharded(sid, "fb_queue_hwm", eout.feedback.len() as u64);
            }
            merged.push((sid, s));
            epoch_dets.extend(eout.detections.into_items());
            epoch_fb.extend(eout.feedback.into_items());
        }
        merged.sort_by_key(|(sid, _)| *sid);
        shards.extend(merged.into_iter().map(|(_, s)| s));
        // Coordinator work is everything in the epoch that is not shard
        // busy time; the critical path pays it plus the slowest shard.
        let epoch_wall = clock() - t_epoch;
        let coord = (epoch_wall - busy_sum).max(0.0);
        stats.critical_path_s += coord + busy_max;
        epochs_wall_s += epoch_wall;
        if let Some(reg) = obs.as_deref_mut() {
            let sid = reg.span("epoch");
            reg.record_span(sid, epoch_wall);
        }
        // Deterministic merge: (timestamp, seq) recovers the sequential
        // emission order (seq is unique; account ownership partitions the
        // stream, so no two shards stage the same seq+kind).
        epoch_dets.sort_by_key(|d| (d.detection.at, d.seq));
        tagged.extend(epoch_dets);
        epoch_fb.sort_by_key(|f| (f.seq, f.intra));
        carry_feedback = epoch_fb;
        stages.lap(Stage::Merge);
        mirror.absorb(eidx);
        stages.lap(Stage::Fold);
        if chaos {
            epoch_digs.sort_by_key(|&(sid, _)| sid);
            let digests: Option<Vec<u64>> =
                want_dig.then(|| epoch_digs.iter().map(|&(_, d)| d).collect());
            plane
                .epoch_commit(epoch_no, digests.as_deref())
                .map_err(ServeError::Chaos)?;
            if plane.wants_checkpoint(epoch_no) {
                // Post-commit, post-fold: the checkpoint captures
                // exactly the state the next epoch starts from, so a
                // restart resumes at this barrier.
                let cp = SessionCheckpoint {
                    epochs,
                    shards: shards.iter().map(ShardState::snapshot).collect(),
                    folded_edges: mirror.folded_edges(),
                    staged_edges: mirror.staged_edges().to_vec(),
                    tagged: tagged.iter().map(|t| (t.seq, t.detection)).collect(),
                    carry_feedback: carry_feedback.clone(),
                    totals,
                };
                plane.checkpoint(&cp).map_err(ServeError::Chaos)?;
            }
            stages.lap(Stage::Plane);
        }
        if let Some(reg) = obs.as_deref_mut() {
            stages.flush(reg);
        }
    }

    if chaos {
        let final_digests: Vec<u64> = shards.iter().map(|s| s.digest()).collect();
        plane
            .run_end(epochs, &final_digests)
            .map_err(ServeError::Chaos)?;
    }
    let report = assemble(out, &rt, &shards, &tagged);
    stats.wall_s = clock() - t_start;
    // Stream buffering and final assembly are sequential coordinator
    // work: everything outside the per-epoch windows joins the path.
    stats.critical_path_s += (stats.wall_s - epochs_wall_s).max(0.0);
    if let Some(reg) = obs {
        totals.export(reg);
        let id = reg.counter("epochs");
        reg.add(id, epochs);
    }
    Ok((report, stats))
}

/// Re-run one journaled epoch on every shard during a warm restart: the
/// same inputs, merge keys, and fold order as the live barrier, so the
/// restored session reaches state byte-identical to the run that wrote
/// the journal. Obs tallies fold into `totals` exactly as live (shard
/// 0's feedback count only); per-shard registry metrics are *not*
/// replayed — a restarted process reports its own work, and the
/// byte-identity contract is on the [`DeploymentReport`]. Each shard's
/// reconstructed state is verified against the journal's committed
/// digest when one was recorded.
#[allow(clippy::too_many_arguments)]
fn replay_tail_epoch<P: FaultPlane>(
    plane: &mut P,
    rec: &EpochRecord,
    out: &SimOutput,
    shards: &mut [ShardState],
    mirror: &mut GraphMirror,
    tagged: &mut Vec<TaggedDetection>,
    carry_feedback: &mut Vec<TaggedFeedback>,
    totals: &mut ReplayCounters,
) -> Result<(), ServeError> {
    let feed = std::mem::take(carry_feedback);
    let eidx = mirror.index_epoch(&rec.events, &rec.details);
    totals.events_processed += rec.events.len() as u64;
    let mut epoch_dets: Vec<TaggedDetection> = Vec::new();
    let mut epoch_fb: Vec<TaggedFeedback> = Vec::new();
    for s in shards.iter_mut() {
        let sid = s.id();
        let eout = s
            .run_epoch(
                &rec.events,
                &rec.details,
                out,
                &feed,
                mirror,
                &eidx,
                rec.epoch,
                None,
            )
            .map_err(|_| {
                // The original epoch ran inside its invariant bounds; a
                // replay that overflows them has diverged.
                ServeError::Chaos(ChaosError {
                    epoch: rec.epoch,
                    shard: Some(sid),
                    fault_kind: FaultKind::ReplayDivergence,
                })
            })?;
        let sobs = std::mem::take(&mut s.obs);
        totals.checks_run += sobs.checks_run;
        totals.detections += sobs.detections;
        totals.features_computed += sobs.features_computed;
        totals.audits_sampled += sobs.audits_sampled;
        if sid == 0 {
            totals.feedback_applied += sobs.feedback_applied;
        }
        if let Some(want) = plane.committed_digest(rec.epoch, sid) {
            if s.digest() != want {
                return Err(ServeError::Chaos(ChaosError {
                    epoch: rec.epoch,
                    shard: Some(sid),
                    fault_kind: FaultKind::ReplayDivergence,
                }));
            }
        }
        epoch_dets.extend(eout.detections.into_items());
        epoch_fb.extend(eout.feedback.into_items());
    }
    epoch_dets.sort_by_key(|d| (d.detection.at, d.seq));
    tagged.extend(epoch_dets);
    epoch_fb.sort_by_key(|f| (f.seq, f.intra));
    *carry_feedback = epoch_fb;
    mirror.absorb(eidx);
    Ok(())
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
    let mut picked = Vec::with_capacity(slots.len());
    for &i in ord {
        if let Some(slot) = slots.get_mut(i) {
            if let Some(v) = slot.take() {
                picked.push(v);
            }
        }
    }
    for slot in &mut slots {
        if let Some(v) = slot.take() {
            picked.push(v);
        }
    }
    picked
}

/// Rebuild shard `sid` from the plane's write-ahead journal: a fresh
/// [`ShardState`] and a fresh recovery mirror replay journaled epochs in
/// order, which reconstructs byte-identical `realtime::state` because
/// `run_epoch` is a pure function of (state, epoch inputs) and the
/// journal captured exactly those inputs.
///
/// With `crash_epoch = Some(k)`: epochs `0..k` are replayed with their
/// re-staged outputs discarded (the original barriers already merged
/// them) and their post-epoch digests verified against the journal's
/// commits; epoch `k` is then re-run for real and its output returned as
/// the crashed shard's contribution. With `None`, the whole journal is
/// replayed (the journal round-trip check).
///
/// Every failure is typed: a missing record is
/// [`FaultKind::Journal`], a digest mismatch or replay overflow is
/// [`FaultKind::ReplayDivergence`].
fn rebuild_shard<P: FaultPlane>(
    plane: &mut P,
    sid: usize,
    shards_n: usize,
    out: &SimOutput,
    rt: &RealtimeConfig,
    rotate_floor: usize,
    crash_epoch: Option<u64>,
) -> Result<(ShardState, Option<EpochOutput>, u64), ServeError> {
    let n = out.accounts.len();
    let mut s = ShardState::new(sid, shards_n, n, rt);
    let mut rmirror = GraphMirror::new(n, rotate_floor);
    let mut replayed = 0u64;
    let mut e = 0u64;
    loop {
        let Some(rec) = plane.replay_epoch(e).map_err(ServeError::Chaos)? else {
            if let Some(k) = crash_epoch {
                // Write-ahead contract broken: the crashed epoch's begin
                // record must exist before the epoch ran.
                return Err(ServeError::Chaos(ChaosError {
                    epoch: k,
                    shard: Some(sid),
                    fault_kind: FaultKind::Journal,
                }));
            }
            break;
        };
        let eidx = rmirror.index_epoch(&rec.events, &rec.details);
        let eout = s
            .run_epoch(
                &rec.events,
                &rec.details,
                out,
                &rec.feedback,
                &rmirror,
                &eidx,
                e,
                None,
            )
            .map_err(|_| {
                // The original epoch ran inside its invariant bounds; a
                // replay that overflows them has diverged.
                ServeError::Chaos(ChaosError {
                    epoch: e,
                    shard: Some(sid),
                    fault_kind: FaultKind::ReplayDivergence,
                })
            })?;
        replayed += 1;
        if crash_epoch == Some(e) {
            // The in-flight epoch: keep the re-run output and tallies as
            // the crashed shard's contribution to the current barrier.
            return Ok((s, Some(eout), replayed));
        }
        // A completed epoch: its effects were already merged at the
        // original barrier — discard the re-staged copies, then verify
        // the reconstructed state against the committed digest.
        drop(eout);
        s.obs = ShardObs::default();
        rmirror.absorb(eidx);
        if let Some(want) = plane.committed_digest(e, sid) {
            if s.digest() != want {
                return Err(ServeError::Chaos(ChaosError {
                    epoch: e,
                    shard: Some(sid),
                    fault_kind: FaultKind::ReplayDivergence,
                }));
            }
        }
        e += 1;
    }
    Ok((s, None, replayed))
}

/// Replay shard `sid`'s entire history out of `plane`'s journal and
/// return the digest of the reconstructed `realtime::state` — the
/// journal round-trip check. Comparing the result against the digest the
/// live run committed at its final barrier proves the on-disk journal
/// alone reaches byte-identical state. Shard resolution follows the
/// engine's: `cfg.shards == 0` means the ambient thread count.
pub fn replay_shard<P: FaultPlane>(
    plane: &mut P,
    sid: usize,
    out: &SimOutput,
    cfg: &ServeConfig,
) -> Result<u64, ServeError> {
    let rt = cfg.detect.sanitized();
    let shards_n = if cfg.shards == 0 {
        par::num_threads()
    } else {
        cfg.shards
    }
    .max(1);
    let (s, _, _) = rebuild_shard(plane, sid, shards_n, out, &rt, cfg.rotate_floor, None)?;
    Ok(s.digest())
}

/// Fold merged detections and final shard states into the report, in the
/// exact arithmetic order the sequential engine used.
fn assemble(
    out: &SimOutput,
    rt: &RealtimeConfig,
    shards: &[ShardState],
    tagged: &[TaggedDetection],
) -> DeploymentReport {
    let mut report = DeploymentReport {
        final_rule: rt.rule,
        ..Default::default()
    };
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
            let st = &shards[i % shards_n].states[i / shards_n];
            if st.sent as usize >= rt.warmup_requests && !st.detected {
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
