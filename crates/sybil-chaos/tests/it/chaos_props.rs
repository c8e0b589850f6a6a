//! Property tests for the chaos engine's two headline contracts.
//!
//! 1. **Invariant**: *any* seeded fault schedule yields a report
//!    byte-identical to the fault-free `serve()` or a typed
//!    `ChaosError { epoch, shard, fault_kind }` — never silent
//!    divergence ([`ChaosOutcome::Diverged`] is never constructed).
//! 2. **Journal round-trip**: the write-ahead journal's bytes alone
//!    rebuild every shard's `realtime::state` to the digest the live
//!    run committed, at shard counts 1, 2, and 8.
//!
//! Beside them, the recovery report is checked against what the engine
//! did: a tallied fault is one a hook acted on.

use osn_sim::{simulate, SimConfig};
use proptest::prelude::*;
use std::io::Cursor;
use sybil_chaos::{
    run_chaos, verify_journal, ChaosOutcome, FaultSchedule, FaultSpec, FaultSpecKind,
};
use sybil_serve::ServeSession;

use crate::support::{serve_cfg, shared_baseline, shared_sim, SHARDS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline invariant, over random seeds, shard counts, and
    /// fault densities: byte-identical or typed — never diverged, and
    /// never an unattributed error.
    #[test]
    fn any_fault_schedule_is_identical_or_typed(
        seed in any::<u64>(),
        shards_i in 0usize..3,
        count in 1usize..8,
    ) {
        let shards = SHARDS[shards_i];
        let out = shared_sim();
        let cfg = serve_cfg(shards);
        // Target the first 20 epochs so crash replay stays cheap; the
        // schedule generator covers all three fault kinds.
        let schedule = FaultSchedule::generate(seed, 20, shards, count);
        let baseline = shared_baseline(shards);
        let run = run_chaos(out, &cfg, baseline, schedule, Cursor::new(Vec::new()), None);
        match run {
            Ok(r) => prop_assert!(
                r.report.outcome.invariant_holds(),
                "silent divergence: {:?}",
                r.report
            ),
            // run_chaos attributes every fault-induced error into the
            // outcome; an Err here is a genuine engine failure.
            Err(e) => prop_assert!(false, "unattributed engine error: {e}"),
        }
    }

    /// Crash faults specifically: recovery must land byte-identical
    /// (crashes are always recoverable — the write-ahead journal has the
    /// in-flight epoch by construction). With more than one shard, the
    /// same crash is then repeated with a second shard lost in the same
    /// epoch: both are rebuilt in one shared pass over the journal, so
    /// the replay count is epochs, not shard-epochs.
    #[test]
    fn crashes_always_recover_identical(
        epoch in 0u64..12,
        shard in 0usize..8,
        shards_i in 0usize..3,
        also in 0usize..7,
    ) {
        let shards = SHARDS[shards_i];
        let out = shared_sim();
        let cfg = serve_cfg(shards);
        let baseline = shared_baseline(shards);
        let first = shard % shards;
        let mut lost = vec![first];
        for _ in 0..shards.min(2) {
            let schedule = FaultSchedule {
                seed: 0,
                faults: lost
                    .iter()
                    .map(|&shard| FaultSpec {
                        epoch,
                        shard,
                        kind: FaultSpecKind::Crash,
                    })
                    .collect(),
            };
            let run = run_chaos(out, &cfg, baseline, schedule, Cursor::new(Vec::new()), None)
                .map_err(|e| TestCaseError::fail(format!("engine error: {e}")))?;
            prop_assert_eq!(&run.report.outcome, &ChaosOutcome::Identical);
            prop_assert_eq!(run.report.injected.crashes, lost.len() as u64);
            prop_assert_eq!(run.report.epochs_replayed, epoch + 1);
            lost.push((first + 1 + also % (shards - 1).max(1)) % shards);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite 2: journal round-trip over varying simulations. The
    /// journal is written by a live run, the store's raw bytes are
    /// reopened cold, and every shard's state is rebuilt by replay —
    /// digests must match the live run's run-end commits at shard
    /// counts 1, 2, and 8. The digest folds all of `realtime::state`
    /// (account states, adaptive trackers, feedback queue, audit
    /// cursor), so digest equality is byte-equality of the state that
    /// matters.
    #[test]
    fn journal_round_trip_rebuilds_state(sim_seed in 0u64..1000) {
        let out = simulate(SimConfig::tiny(sim_seed));
        for shards in SHARDS {
            let cfg = serve_cfg(shards);
            let baseline = ServeSession::new(cfg)
                .run(&out)
                .map_err(|e| TestCaseError::fail(format!("engine error: {e}")))?
                .report;
            let run = run_chaos(
                &out,
                &cfg,
                &baseline,
                FaultSchedule { seed: sim_seed, ..FaultSchedule::default() },
                Cursor::new(Vec::new()),
                None,
            )
            .map_err(|e| TestCaseError::fail(format!("engine error: {e}")))?;
            prop_assert_eq!(&run.report.outcome, &ChaosOutcome::Identical);
            // The reported journal size is the handle's own accounting,
            // and it is every byte the store holds.
            prop_assert_eq!(run.report.journal_bytes, run.journal.len_bytes());
            let len_bytes = run.journal.len_bytes();
            let bytes = run.journal.into_store();
            prop_assert_eq!(len_bytes, bytes.get_ref().len() as u64);
            let v = verify_journal(bytes, &out, &cfg)
                .map_err(|e| TestCaseError::fail(format!("verify error: {e}")))?;
            prop_assert!(
                v.all_match(),
                "journal replay diverged at {} shards: {:?}",
                shards,
                v
            );
            prop_assert_eq!(v.epochs, run.report.epochs);
        }
    }
}

/// Under `FaultSchedule::generate(seed, 20, shards, count)`, a run whose
/// report is byte-identical to the fault-free one tallies only what the
/// engine acted on: a tallied crash was rebuilt out of the journal, and
/// the reorder tally is the number of reached epochs whose barrier
/// `deliver_order` permuted — once per epoch, however many specs name it.
fn report_agrees_with_the_engine(
    seed: u64,
    shards: usize,
    count: usize,
) -> Result<(), TestCaseError> {
    let schedule = FaultSchedule::generate(seed, 20, shards, count);
    let run = run_chaos(
        shared_sim(),
        &serve_cfg(shards),
        shared_baseline(shards),
        schedule.clone(),
        Cursor::new(Vec::new()),
        None,
    )
    .map_err(|e| TestCaseError::fail(format!("engine error: {e}")))?;
    let r = &run.report;
    if r.outcome != ChaosOutcome::Identical {
        return Ok(());
    }
    prop_assert!(r.injected.crashes == 0 || r.epochs_replayed > 0, "{:?}", r);
    let mut reordered: Vec<u64> = schedule
        .faults
        .iter()
        .filter(|f| f.kind == FaultSpecKind::ReorderBarrier && f.epoch < r.epochs)
        .map(|f| f.epoch)
        .collect();
    reordered.dedup();
    prop_assert_eq!(
        r.injected.barrier_reorders,
        reordered.len() as u64,
        "{:?}",
        schedule
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn recovery_report_agrees_with_the_engine(
        seed in any::<u64>(),
        shards_i in 0usize..3,
        count in 1usize..8,
    ) {
        report_agrees_with_the_engine(seed, SHARDS[shards_i], count)?;
    }
}

/// A schedule that names one epoch's barrier twice (seed 67 draws a
/// crash at epoch 1 and reorders at epochs 4, 4 and 14 on two shards):
/// the epoch is permuted, and tallied, once.
#[test]
fn a_barrier_named_twice_is_tallied_once() {
    report_agrees_with_the_engine(67, 2, 4).unwrap();
}
