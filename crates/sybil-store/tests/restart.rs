//! The headline persistence invariant: kill the process at an arbitrary
//! epoch, warm-restart from the store directory alone, and the final
//! `DeploymentReport` is byte-identical to the uninterrupted run.
//!
//! The kill is [`StorePlane::kill_at_epoch`]: the write-ahead journal
//! record lands, then the run aborts with a typed crash error — on-disk
//! state is exactly what a `SIGKILL` between the journal append and the
//! epoch barrier leaves. The restart opens a *fresh* plane over the same
//! directory (nothing survives in memory), so recovery is proven from
//! the bytes.

use osn_sim::{simulate, SimConfig, SimOutput};
use proptest::prelude::*;
use std::path::PathBuf;
use sybil_core::realtime::RealtimeConfig;
use sybil_core::ThresholdClassifier;
use sybil_serve::fault::FaultKind;
use sybil_serve::{ServeConfig, ServeError, ServeSession};
use sybil_store::StorePlane;

fn small_sim() -> SimOutput {
    simulate(SimConfig::tiny(11))
}

/// Permissive detector so detections, audits, and feedback all fire on a
/// tiny log — a checkpoint then carries every kind of state.
fn serve_cfg(shards: usize, adaptive: bool) -> ServeConfig {
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
            adaptive,
            feedback_delay_h: 12,
            audit_every: 5,
        },
        rotate_floor: 64,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sybil-restart-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run to completion with no plane: the oracle bytes.
fn uninterrupted(out: &SimOutput, cfg: &ServeConfig) -> String {
    let report = ServeSession::new(*cfg).run(out).expect("serve").report;
    serde_json::to_string(&report).expect("report serializes")
}

/// Kill at `kill_epoch` under a checkpoint-every-`every`-epochs plane,
/// then warm-restart from the directory with a fresh plane and return
/// the restarted run's report bytes.
fn kill_then_restart(
    out: &SimOutput,
    cfg: &ServeConfig,
    dir: &PathBuf,
    kill_epoch: u64,
    every: u64,
) -> String {
    let mut doomed = StorePlane::with_cadence(dir, every, 4)
        .expect("store opens")
        .kill_at_epoch(kill_epoch);
    let err = ServeSession::new(*cfg)
        .store(&mut doomed)
        .run(out)
        .expect_err("the kill must surface as a typed error");
    match err {
        ServeError::Chaos(c) => {
            assert_eq!(c.fault_kind, FaultKind::Crash);
            assert_eq!(c.epoch, kill_epoch);
        }
        other => panic!("expected a chaos crash, got {other:?}"),
    }
    drop(doomed);

    let mut revived = StorePlane::with_cadence(dir, every, 4).expect("store reopens");
    let outcome = ServeSession::new(*cfg)
        .store(&mut revived)
        .run(out)
        .expect("warm restart completes");
    // Checkpoints land at the end of epochs e with (e+1) % every == 0,
    // so one exists iff at least `every` epochs completed before the
    // kill; otherwise the restart replays the stream cold.
    assert_eq!(
        revived.resumed_from().is_some(),
        kill_epoch >= every,
        "kill at {kill_epoch} with checkpoints every {every}"
    );
    serde_json::to_string(&outcome.report).expect("report serializes")
}

#[test]
fn kill_restart_is_byte_identical_mid_stream() {
    let out = small_sim();
    let cfg = serve_cfg(2, true);
    let oracle = uninterrupted(&out, &cfg);
    for kill_epoch in [0u64, 1, 3, 7] {
        let dir = tmpdir(&format!("mid-{kill_epoch}"));
        let restarted = kill_then_restart(&out, &cfg, &dir, kill_epoch, 1);
        assert_eq!(restarted, oracle, "kill at epoch {kill_epoch} diverged");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn restart_of_a_finished_run_replays_to_the_same_bytes() {
    let out = small_sim();
    let cfg = serve_cfg(2, true);
    let dir = tmpdir("finished");
    let oracle = {
        let mut plane = StorePlane::open(&dir).unwrap();
        let o = ServeSession::new(cfg).store(&mut plane).run(&out).unwrap();
        serde_json::to_string(&o.report).unwrap()
    };
    // Run again over the same directory: everything comes back from the
    // checkpoint + journal tail, and the journal gains no duplicate end
    // record.
    let len_before = std::fs::metadata(dir.join("journal.sybj")).unwrap().len();
    let mut plane = StorePlane::open(&dir).unwrap();
    let o = ServeSession::new(cfg).store(&mut plane).run(&out).unwrap();
    assert_eq!(serde_json::to_string(&o.report).unwrap(), oracle);
    drop(plane);
    let len_after = std::fs::metadata(dir.join("journal.sybj")).unwrap().len();
    assert_eq!(len_before, len_after, "restart must not re-append the end record");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sparse_checkpoints_recover_through_the_journal_tail() {
    let out = small_sim();
    let cfg = serve_cfg(2, true);
    let oracle = uninterrupted(&out, &cfg);
    let dir = tmpdir("sparse");
    // Checkpoint every 4th epoch only: a kill at epoch 6 resumes from
    // the epoch-4 checkpoint and replays committed epochs 4..6 from the
    // journal before going live.
    let mut doomed = StorePlane::with_cadence(&dir, 4, 1)
        .unwrap()
        .kill_at_epoch(6);
    ServeSession::new(cfg)
        .store(&mut doomed)
        .run(&out)
        .expect_err("killed");
    drop(doomed);
    let mut revived = StorePlane::with_cadence(&dir, 4, 1).unwrap();
    let o = ServeSession::new(cfg).store(&mut revived).run(&out).unwrap();
    assert_eq!(revived.resumed_from(), Some(4));
    assert_eq!(revived.tail_replayed(), 2, "epochs 4 and 5 replay from the journal");
    assert_eq!(serde_json::to_string(&o.report).unwrap(), oracle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store directory is outside input. Reopened by a run it does not
/// belong to, the restart stops on a typed journal fault: no panic, and
/// no report assembled out of another run's state.
#[test]
fn a_store_from_another_run_is_a_typed_journal_fault() {
    let cfg = serve_cfg(2, true);
    let writer = small_sim();
    let tiny = SimConfig::tiny(11);
    // Who reopens the store, the digest cadence, where the writer is
    // killed (checkpoints every 4 epochs, so a checkpoint and a two-epoch
    // committed tail are on disk each time), and the epoch the fault names.
    let cases = [
        // A smaller account table: the checkpoint's ids are out of range,
        // and the checkpoint (4 epochs) is refused.
        ("smaller", SimConfig { n_normal: 400, ..tiny.clone() }, 4, 6, 4),
        // The same table from another seed, digests off: only comparing
        // the journaled tail with the stream can tell, at its first epoch.
        ("other-seed", SimConfig::tiny(12), 0, 6, 4),
        // The same table over a shorter horizon: the checkpoint (68
        // epochs) covers more epochs than the stream has.
        ("shorter", SimConfig { hours: 600, ..tiny.clone() }, 4, 70, 68),
    ];
    for (tag, reopener, digest_every, kill_epoch, fault_epoch) in cases {
        let dir = tmpdir(&format!("foreign-{tag}"));
        let mut doomed = StorePlane::with_cadence(&dir, 4, digest_every)
            .unwrap()
            .kill_at_epoch(kill_epoch);
        ServeSession::new(cfg)
            .store(&mut doomed)
            .run(&writer)
            .expect_err("killed");
        drop(doomed);
        let mut reopened = StorePlane::with_cadence(&dir, 4, digest_every).unwrap();
        let err = ServeSession::new(cfg)
            .store(&mut reopened)
            .run(&simulate(reopener))
            .expect_err("another run's store must not resume");
        match err {
            ServeError::Chaos(c) => {
                assert_eq!((c.fault_kind, c.epoch), (FaultKind::Journal, fault_epoch), "{tag}: {c}")
            }
            other => panic!("{tag}: expected a journal fault, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance proptest: kill epoch × shard count {1,2,8} ×
    /// static/adaptive × checkpoint cadence {1,4,8}, byte-identity
    /// after warm restart every time.
    #[test]
    fn warm_restart_is_byte_identical(
        kill_epoch in 0u64..12,
        shards_ix in 0usize..3,
        adaptive in any::<bool>(),
        every_ix in 0usize..3,
    ) {
        let shards = [1usize, 2, 8][shards_ix];
        let every = [1u64, 4, 8][every_ix];
        let out = small_sim();
        let cfg = serve_cfg(shards, adaptive);
        let oracle = uninterrupted(&out, &cfg);
        let dir = tmpdir(&format!("prop-{kill_epoch}-{shards}-{adaptive}-{every}"));
        let restarted = kill_then_restart(&out, &cfg, &dir, kill_epoch, every);
        prop_assert_eq!(restarted, oracle);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
