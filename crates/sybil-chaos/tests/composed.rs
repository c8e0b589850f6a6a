//! The composed invariant: faults *during a persisted run*, restarts
//! *under faults*.
//!
//! An arbitrary seeded [`FaultSchedule`] (stalls, queue clamps, delayed
//! and reordered barriers, shard crashes) is injected by a
//! [`ChaosPlane`] wrapped around a real [`StorePlane`] — journal file
//! and checkpoints on disk — through the serving session's one plane
//! slot. The process is killed at an arbitrary epoch, then a fresh
//! `ChaosPlane` over a fresh `StorePlane` on the same directory
//! warm-restarts it under the same schedule. Nothing in the engine or
//! the store knows a schedule is running: faults enter at the hooks the
//! production side effects already use.
//!
//! Either the final report is byte-identical to the fault-free,
//! uninterrupted run, or the run stopped on a typed error attributed to
//! a scheduled fault — at shard counts 1, 2 and 8.

use osn_sim::{simulate, SimConfig, SimOutput};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use sybil_chaos::{ChaosPlane, FaultSchedule};
use sybil_core::realtime::RealtimeConfig;
use sybil_core::threshold::ThresholdClassifier;
use sybil_serve::fault::{FaultKind, FaultPlane};
use sybil_serve::{ServeConfig, ServeError, ServeSession};
use sybil_store::StorePlane;

const SHARDS: [usize; 3] = [1, 2, 8];

/// Permissive adaptive detector (as in `chaos_props`): detections,
/// audits and feedback all fire on a tiny log, so checkpoints and
/// journal frames carry every kind of state.
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

fn shared_sim() -> &'static SimOutput {
    static SIM: OnceLock<SimOutput> = OnceLock::new();
    SIM.get_or_init(|| simulate(SimConfig::tiny(11)))
}

/// The fault-free, uninterrupted report at each of [`SHARDS`].
fn oracle(shards_ix: usize) -> &'static str {
    static ORACLES: OnceLock<Vec<String>> = OnceLock::new();
    &ORACLES.get_or_init(|| {
        SHARDS
            .iter()
            .map(|&shards| {
                let o = ServeSession::new(serve_cfg(shards)).run(shared_sim());
                serde_json::to_string(&o.expect("fault-free serve").report).expect("serializes")
            })
            .collect()
    })[shards_ix]
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sybil-composed-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Whether `err` is a typed failure the schedule explains: an overflow
/// at a site it clamped, or a chaos error at an epoch (and shard, when
/// the error names one) it put a fault in.
fn attributed<P: FaultPlane>(err: &ServeError, plane: &ChaosPlane<P>) -> bool {
    match err {
        ServeError::QueueOverflow(q) => q
            .site
            .is_some_and(|s| plane.clamp_scheduled(s.epoch, s.shard)),
        ServeError::Chaos(c) => plane
            .schedule()
            .faults
            .iter()
            .any(|f| f.epoch == c.epoch && c.shard.is_none_or(|s| s == f.shard)),
        ServeError::ZeroFeedbackDelay => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_schedule_through_a_killed_and_restarted_store_is_identical_or_typed(
        seed in any::<u64>(),
        count in 1usize..8,
        kill_epoch in 0u64..12,
        every_ix in 0usize..3,
    ) {
        let out = shared_sim();
        let every = [1u64, 4, 8][every_ix];
        for (shards_ix, &shards) in SHARDS.iter().enumerate() {
            let cfg = serve_cfg(shards);
            let schedule = FaultSchedule::generate(seed, 20, shards, count);
            let dir = tmpdir(&format!("{seed:x}-{count}-{kill_epoch}-{every}-{shards}"));
            let open = || {
                StorePlane::with_cadence(&dir, every, 4)
                    .map_err(|e| TestCaseError::fail(format!("store: {e}")))
            };

            // Act 1: the doomed run, faults and all, until the kill.
            let mut doomed = ChaosPlane::new(schedule.clone(), open()?.kill_at_epoch(kill_epoch));
            let first = ServeSession::new(cfg).plane(&mut doomed).run(out);
            let killed = matches!(
                &first,
                Err(ServeError::Chaos(c))
                    if c.fault_kind == FaultKind::Crash && c.shard.is_none() && c.epoch == kill_epoch
            );
            if let Err(e) = &first {
                prop_assert!(
                    killed || attributed(e, &doomed),
                    "unattributed error before the kill at {} shards: {} under {:?}",
                    shards,
                    e,
                    doomed.schedule()
                );
            }
            drop(doomed);

            // Act 2: warm restart from the directory alone, same schedule.
            // (When a scheduled fault stopped act 1 before the kill, this
            // is a restart after *that* failure — same contract.)
            let mut revived = ChaosPlane::new(schedule, open()?);
            match ServeSession::new(cfg).plane(&mut revived).run(out) {
                Ok(o) => prop_assert_eq!(
                    serde_json::to_string(&o.report).expect("serializes"),
                    oracle(shards_ix),
                    "restart under faults diverged at {} shards: {:?}",
                    shards,
                    revived.schedule()
                ),
                Err(e) => prop_assert!(
                    attributed(&e, &revived),
                    "unattributed error at {} shards: {} under {:?}",
                    shards,
                    e,
                    revived.schedule()
                ),
            }
            if killed {
                // The checkpoint and resume hooks reached the store
                // through the chaos plane: a checkpoint exists iff
                // `every` epochs completed before the kill.
                prop_assert_eq!(
                    revived.inner().resumed_from().is_some(),
                    kill_epoch >= every
                );
            }
            std::fs::remove_dir_all(&dir).expect("store directory removable");
        }
    }
}
