//! # sybil-chaos — deterministic fault injection and crash recovery
//!
//! The serving engine's headline claim is byte-identity with the
//! sequential replay; this crate is the apparatus that *attacks* that
//! claim on purpose. A seeded, serializable [`FaultSchedule`] injects
//! shard stalls, staging-queue overflow, delayed and reordered epoch
//! barriers, and mid-stream shard crashes into an unmodified
//! `sybil_serve` coordinator, through the `FaultPlane` hooks it
//! already consults. The [`ChaosPlane`] answers the schedule and hands
//! every durability hook to the plane it wraps — `sybil-store`'s
//! write-ahead [`Journal`], which records every epoch's full input at
//! barrier time so the shards an epoch lost are rebuilt to byte-identical
//! `realtime::state` by one shared replay, through the same epoch step
//! live serving runs; in memory for a plain chaos run, or a whole
//! `StorePlane`, so the same schedule runs through a persisted, killed
//! and warm-restarted session. [`verify_journal`] is that replay over
//! every shard and the whole journal, from its bytes alone.
//!
//! The contract, enforced by [`run_chaos`] and the headline proptest:
//! **any** fault schedule yields either a report byte-identical to the
//! fault-free run ([`ServeSession`](sybil_serve::ServeSession) with no
//! plane) or a typed [`ChaosError`](sybil_serve::fault::ChaosError)
//! naming the epoch, shard, and fault kind — never silent divergence. The
//! [`RecoveryReport`] a run emits (faults injected, epochs replayed,
//! recovery latency in logical epochs, journal bytes) is itself a pure
//! function of `(simulation, config, schedule)`, so `repro chaos --seed
//! N` prints the same bytes every run.
//!
//! Everything is deterministic by construction: schedules derive from
//! `osn_sim::splitmix64`, the journal format is little-endian and
//! platform-width-free, and no wall clock is read anywhere.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod plane;
pub mod report;
pub mod schedule;

pub use plane::{ChaosPlane, FaultTally};
pub use report::{ChaosOutcome, RecoveryReport};
pub use schedule::{FaultSchedule, FaultSpec, FaultSpecKind};

use osn_sim::SimOutput;
use std::io::{Cursor, Read, Seek, Write};
use sybil_serve::fault::{ChaosError, FaultKind};
use sybil_serve::{replay_journal, ServeConfig, ServeError, ServeSession};
use sybil_store::{Journal, JournalPlane};

/// Outputs of one chaos run: the deterministic report plus the journal
/// (handed back so callers can persist or re-verify it).
pub struct ChaosRun<S> {
    /// The deterministic recovery report.
    pub report: RecoveryReport,
    /// Serialized fault-free baseline (`serve` with no plane).
    pub baseline_json: String,
    /// Serialized chaos-run report when the run completed (`None` when
    /// it surfaced a typed fault).
    pub chaos_json: Option<String>,
    /// The write-ahead journal, positioned at end-of-log.
    pub journal: Journal<S>,
}

fn journal_chaos_err() -> ServeError {
    ServeError::fault(0, None, FaultKind::Journal)
}

/// Run `schedule` against `out` and compare byte-for-byte with the
/// fault-free run.
///
/// The fault-free oracle runs first (a bare session, no plane, no
/// journal); the chaos run follows with a [`ChaosPlane`] over a
/// [`JournalPlane`] journaling into `store`. A surfaced
/// [`ServeError::QueueOverflow`] whose `(epoch, shard)` site matches a scheduled
/// [`QueueClamp`](FaultSpecKind::QueueClamp) is *attributed* — rewritten
/// to a typed [`ChaosOutcome::Fault`] — while an overflow at an
/// un-clamped site is a genuine engine bug and propagates as the error
/// it is. Errors unrelated to injected faults (e.g. a bad config)
/// propagate unchanged from either run.
pub fn run_chaos<S: Read + Write + Seek>(
    out: &SimOutput,
    cfg: &ServeConfig,
    schedule: FaultSchedule,
    store: S,
    mut obs: Option<&mut sybil_obs::Registry>,
) -> Result<ChaosRun<S>, ServeError> {
    let baseline = ServeSession::new(*cfg).run(out)?.report;
    // The vendored serde_json never fails on derived Serialize values;
    // degrade to an empty string rather than panic if it ever does.
    let baseline_json = serde_json::to_string(&baseline).unwrap_or_default();

    let journal = Journal::create(store).map_err(|_| journal_chaos_err())?;
    let faults_scheduled = schedule.faults.len() as u64;
    let seed = schedule.seed;
    let mut plane = ChaosPlane::new(schedule, JournalPlane::new(journal));
    // With a registry, the chaos run's shard tallies land under the
    // same keys as `serve_observed` — comparable against fault-free.
    let result = match obs {
        Some(ref mut reg) => ServeSession::new(*cfg)
            .metrics(reg)
            .plane(&mut plane)
            .run(out),
        None => ServeSession::new(*cfg).plane(&mut plane).run(out),
    }
    .map(|o| o.report);

    let (outcome, chaos_json) = match result {
        Ok(report) => {
            let json = serde_json::to_string(&report).unwrap_or_default();
            if json == baseline_json {
                (ChaosOutcome::Identical, Some(json))
            } else {
                (ChaosOutcome::Diverged, Some(json))
            }
        }
        Err(ServeError::Chaos(c)) => (ChaosOutcome::from_error(c), None),
        Err(ServeError::QueueOverflow(q)) => {
            let attributed = q.site.filter(|s| plane.clamp_scheduled(s.epoch, s.shard));
            match attributed {
                Some(site) => (
                    ChaosOutcome::from_error(ChaosError {
                        epoch: site.epoch,
                        shard: Some(site.shard),
                        fault_kind: FaultKind::QueueOverflow,
                    }),
                    None,
                ),
                None => return Err(ServeError::QueueOverflow(q)),
            }
        }
        Err(e) => return Err(e),
    };

    let journal = plane.inner().journal();
    let shards = journal
        .finished()
        .map(|(_, d)| d.len() as u64)
        .unwrap_or_else(|| cfg.resolved_shards() as u64);
    let report = RecoveryReport {
        seed,
        shards,
        epochs: journal.epochs_journaled(),
        faults_scheduled,
        injected: plane.injected(),
        epochs_replayed: plane.epochs_replayed(),
        replay_digest_checks: plane.replay_digest_checks(),
        recovery_latency_epochs: plane.recovery_latency_epochs(),
        journal_bytes: journal.len_bytes(),
        outcome,
    };
    if let Some(reg) = obs {
        report.export(reg);
    }
    Ok(ChaosRun {
        report,
        baseline_json,
        chaos_json,
        journal: plane.into_inner().into_journal(),
    })
}

/// [`run_chaos`] with an in-memory journal — the default for tests and
/// for `repro chaos` without `--journal`.
pub fn run_chaos_in_memory(
    out: &SimOutput,
    cfg: &ServeConfig,
    schedule: FaultSchedule,
    obs: Option<&mut sybil_obs::Registry>,
) -> Result<ChaosRun<Cursor<Vec<u8>>>, ServeError> {
    run_chaos(out, cfg, schedule, Cursor::new(Vec::new()), obs)
}

/// Per-shard result of re-deriving state from journal bytes alone.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct JournalVerification {
    /// Epochs the journal records.
    pub epochs: u64,
    /// Digest of each shard's replayed state.
    pub replayed: Vec<u64>,
    /// Digest each shard committed at the live run's end.
    pub committed: Vec<u64>,
}

impl JournalVerification {
    /// Whether every shard replayed to its committed digest.
    pub fn all_match(&self) -> bool {
        self.replayed == self.committed
    }
}

/// Open a journal byte store and prove it alone reconstructs the live
/// run's final state: replay all shards in one pass through a fresh
/// [`JournalPlane`] (no faults) and compare digests against the run-end
/// record. A journal without a run-end record (the run died before
/// finishing) is a typed [`FaultKind::Journal`] error.
pub fn verify_journal<S: Read + Write + Seek>(
    store: S,
    out: &SimOutput,
    cfg: &ServeConfig,
) -> Result<JournalVerification, ServeError> {
    let journal = Journal::open(store).map_err(|_| journal_chaos_err())?;
    let Some((epochs, committed)) = journal.finished().map(|(e, d)| (e, d.to_vec())) else {
        return Err(journal_chaos_err());
    };
    let replay_cfg = ServeConfig {
        shards: committed.len(),
        ..*cfg
    };
    let replayed = replay_journal(&mut JournalPlane::new(journal), out, &replay_cfg)?;
    Ok(JournalVerification {
        epochs,
        replayed,
        committed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_sim::SimConfig;
    use sybil_core::realtime::RealtimeConfig;
    use sybil_core::threshold::ThresholdClassifier;

    fn small_sim() -> SimOutput {
        osn_sim::simulate(SimConfig::tiny(11))
    }

    /// Permissive adaptive detector so detections, audits, and feedback
    /// all fire on a tiny log — faults then have real state to threaten.
    fn serve_cfg(shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            epoch_hours: 12,
            detect: RealtimeConfig {
                warmup_requests: 4,
                check_every: 1,
                trailing_window_h: 1,
                min_decided: 2,
                min_friends: 2,
                rule: ThresholdClassifier {
                    max_out_ratio: 0.8,
                    min_freq: 3.0,
                    max_cc: f64::INFINITY,
                },
                adaptive: true,
                feedback_delay_h: 12,
                audit_every: 5,
            },
            rotate_floor: 64,
        }
    }

    #[test]
    fn journal_only_run_is_identical_and_verifiable() {
        let out = small_sim();
        let cfg = serve_cfg(2);
        let run =
            run_chaos_in_memory(&out, &cfg, FaultSchedule::journal_only(3), None).unwrap();
        assert_eq!(run.report.outcome, ChaosOutcome::Identical);
        assert_eq!(run.report.injected.total(), 0);
        assert!(run.report.epochs > 0);
        assert!(run.report.journal_bytes > 8);

        // The journal bytes alone rebuild every shard's final state.
        let bytes = run.journal.into_store();
        let v = verify_journal(bytes, &out, &cfg).unwrap();
        assert_eq!(v.epochs, run.report.epochs);
        assert!(v.all_match(), "{v:?}");
    }

    #[test]
    fn crash_mid_stream_recovers_byte_identical() {
        let out = small_sim();
        let cfg = serve_cfg(2);
        let schedule = FaultSchedule {
            seed: 5,
            faults: vec![FaultSpec {
                epoch: 2,
                shard: 1,
                kind: FaultSpecKind::Crash,
            }],
        };
        let run = run_chaos_in_memory(&out, &cfg, schedule, None).unwrap();
        assert_eq!(run.report.outcome, ChaosOutcome::Identical, "{:?}", run.report);
        assert_eq!(run.report.injected.crashes, 1);
        assert_eq!(run.report.epochs_replayed, 3, "epochs 0..=2 replayed");
        // Of the replayed epochs only epoch 0 falls on the default
        // digest cadence, so exactly that commit is digest-checked.
        assert!(run.report.replay_digest_checks >= 1);
        assert!(run.report.recovery_latency_epochs >= 3);
    }

    #[test]
    fn tight_clamp_surfaces_attributed_overflow() {
        let out = small_sim();
        let cfg = serve_cfg(2);
        let schedule = FaultSchedule {
            seed: 7,
            faults: vec![FaultSpec {
                epoch: 0,
                shard: 0,
                kind: FaultSpecKind::QueueClamp { capacity: 1 },
            }],
        };
        let run = run_chaos_in_memory(&out, &cfg, schedule, None).unwrap();
        match &run.report.outcome {
            ChaosOutcome::Fault { epoch, shard, kind } => {
                assert_eq!((*epoch, *shard), (0, Some(0)));
                assert_eq!(kind, "queue-overflow");
            }
            // A 1-slot queue could in principle suffice for a quiet
            // shard; identical output is the other legal outcome.
            ChaosOutcome::Identical => {}
            other => panic!("invariant violated: {other:?}"),
        }
    }

    #[test]
    fn reorder_and_stall_are_output_neutral() {
        let out = small_sim();
        let cfg = serve_cfg(4);
        let schedule = FaultSchedule {
            seed: 13,
            faults: vec![
                FaultSpec {
                    epoch: 0,
                    shard: 0,
                    kind: FaultSpecKind::ReorderBarrier,
                },
                FaultSpec {
                    epoch: 1,
                    shard: 2,
                    kind: FaultSpecKind::Stall { epochs: 2 },
                },
                FaultSpec {
                    epoch: 1,
                    shard: 0,
                    kind: FaultSpecKind::DelayBarrier { epochs: 1 },
                },
            ],
        };
        let run = run_chaos_in_memory(&out, &cfg, schedule, None).unwrap();
        assert_eq!(run.report.outcome, ChaosOutcome::Identical, "{:?}", run.report);
        assert_eq!(run.report.injected.barrier_reorders, 1);
        assert_eq!(run.report.injected.stalls, 1);
        assert_eq!(run.report.recovery_latency_epochs, 3, "2 stall + 1 delay");
    }
}
