//! Property tests for the chaos engine's two headline contracts.
//!
//! 1. **Invariant**: *any* seeded fault schedule yields a report
//!    byte-identical to the fault-free `serve()` or a typed
//!    `ChaosError { epoch, shard, fault_kind }` — never silent
//!    divergence ([`ChaosOutcome::Diverged`] is never constructed).
//! 2. **Journal round-trip**: the write-ahead journal's bytes alone
//!    rebuild every shard's `realtime::state` to the digest the live
//!    run committed, at shard counts 1, 2, and 8.

use proptest::prelude::*;
use std::sync::OnceLock;
use sybil_chaos::{
    run_chaos_in_memory, verify_journal, ChaosOutcome, FaultSchedule, FaultSpec, FaultSpecKind,
};
use sybil_core::realtime::RealtimeConfig;
use sybil_core::threshold::ThresholdClassifier;
use osn_sim::{simulate, SimConfig, SimOutput};
use sybil_serve::ServeConfig;

/// Permissive adaptive detector: detections, audits, and feedback all
/// fire on tiny logs, so the journal carries every record kind and
/// crashed shards have non-trivial state to rebuild.
fn eager_detect() -> RealtimeConfig {
    RealtimeConfig {
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
    }
}

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        epoch_hours: 12,
        detect: eager_detect(),
        rotate_floor: 64,
    }
}

/// One shared simulation for the invariant sweep (the schedule, not the
/// log, is the random input there).
fn shared_sim() -> &'static SimOutput {
    static SIM: OnceLock<SimOutput> = OnceLock::new();
    SIM.get_or_init(|| simulate(SimConfig::tiny(11)))
}

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
        let shards = [1usize, 2, 8][shards_i];
        let out = shared_sim();
        let cfg = serve_cfg(shards);
        // Target the first 20 epochs so crash replay stays cheap; the
        // schedule generator covers all five fault kinds.
        let schedule = FaultSchedule::generate(seed, 20, shards, count);
        let run = run_chaos_in_memory(out, &cfg, schedule, None);
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
        let shards = [1usize, 2, 8][shards_i];
        let out = shared_sim();
        let cfg = serve_cfg(shards);
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
            let run = run_chaos_in_memory(out, &cfg, schedule, None)
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
        for shards in [1usize, 2, 8] {
            let cfg = serve_cfg(shards);
            let run = run_chaos_in_memory(
                &out,
                &cfg,
                FaultSchedule::journal_only(sim_seed),
                None,
            )
            .map_err(|e| TestCaseError::fail(format!("engine error: {e}")))?;
            prop_assert_eq!(&run.report.outcome, &ChaosOutcome::Identical);
            // The reported journal size is the handle's own accounting:
            // total length = 8-byte header + frames appended through it.
            prop_assert_eq!(run.report.journal_bytes, run.journal.len_bytes());
            prop_assert_eq!(
                run.journal.len_bytes(),
                run.journal.bytes_appended() + 8
            );
            let bytes = run.journal.into_store();
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
