//! The composed invariant: faults *during a persisted run*, restarts
//! *under faults*.
//!
//! An arbitrary seeded [`FaultSchedule`] (queue clamps, reordered
//! barriers, shard crashes) is injected by a
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

use proptest::prelude::*;
use std::path::PathBuf;
use sybil_chaos::{ChaosPlane, FaultSchedule};
use sybil_serve::fault::{FaultKind, FaultPlane};
use sybil_serve::{ServeError, ServeSession};
use sybil_store::StorePlane;

use crate::support::{serve_cfg, shared_baseline, shared_sim, SHARDS};

/// The fault-free, uninterrupted report at each of [`SHARDS`].
fn oracle(shards_ix: usize) -> String {
    serde_json::to_string(shared_baseline(SHARDS[shards_ix])).expect("serializes")
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

/// One case at `SHARDS[shards_ix]`: the doomed run under `schedule`
/// killed at `kill_epoch`, then a warm restart from its directory under
/// the same schedule, on a store of checkpoint cadence `every`.
fn kill_and_restart(
    seed: u64,
    count: usize,
    kill_epoch: u64,
    every: u64,
    shards_ix: usize,
) -> Result<(), TestCaseError> {
    let out = shared_sim();
    let shards = SHARDS[shards_ix];
    let cfg = serve_cfg(shards);
    let schedule = FaultSchedule::generate(seed, 20, shards, count);
    let dir = tmpdir(&format!("{seed:x}-{count}-{kill_epoch}-{every}-{shards}"));
    let open = || {
        StorePlane::with_cadence(&dir, every)
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
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The shard counts of a case are independent runs, each on its own
    /// store directory, so they run side by side; the first failure in
    /// `SHARDS` order is the one reported.
    #[test]
    fn any_schedule_through_a_killed_and_restarted_store_is_identical_or_typed(
        seed in any::<u64>(),
        count in 1usize..8,
        kill_epoch in 0u64..12,
        every_ix in 0usize..3,
    ) {
        let every = [1u64, 4, 8][every_ix];
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..SHARDS.len())
                .map(|i| s.spawn(move || kill_and_restart(seed, count, kill_epoch, every, i)))
                .collect();
            runs.into_iter().map(|run| run.join()).collect()
        });
        for outcome in outcomes {
            outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        }
    }
}
