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

use osn_graph::NodeId;
use osn_sim::{simulate, SimConfig, SimOutput};
use proptest::prelude::*;
use std::path::PathBuf;
use sybil_core::digest::Digest64;
use sybil_core::realtime::RealtimeConfig;
use sybil_core::ThresholdClassifier;
use sybil_serve::fault::FaultKind;
use sybil_serve::{ServeConfig, ServeError, ServeSession};
use sybil_store::{format, StorePlane};

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
    let mut doomed = StorePlane::with_cadence(dir, every)
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

    let mut revived = StorePlane::with_cadence(dir, every).expect("store reopens");
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
    let mut doomed = StorePlane::with_cadence(&dir, 4).unwrap().kill_at_epoch(6);
    ServeSession::new(cfg)
        .store(&mut doomed)
        .run(&out)
        .expect_err("killed");
    drop(doomed);
    let mut revived = StorePlane::with_cadence(&dir, 4).unwrap();
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
    // Who reopens the store, where the writer is killed (checkpoints
    // every 4 epochs, so a checkpoint and a two-epoch committed tail are
    // on disk each time), and the epoch the fault names.
    let cases = [
        // A smaller account table: the checkpoint's ids are out of range,
        // and the checkpoint (4 epochs) is refused.
        ("smaller", SimConfig { n_normal: 400, ..tiny.clone() }, 6, 4),
        // The same table from another seed: comparing the journaled tail
        // with the stream tells, at its first epoch, before any digest is
        // compared.
        ("other-seed", SimConfig::tiny(12), 6, 4),
        // The same table over a shorter horizon: the checkpoint (68
        // epochs) covers more epochs than the stream has.
        ("shorter", SimConfig { hours: 600, ..tiny.clone() }, 70, 68),
    ];
    for (tag, reopener, kill_epoch, fault_epoch) in cases {
        let dir = tmpdir(&format!("foreign-{tag}"));
        let mut doomed = StorePlane::with_cadence(&dir, 4)
            .unwrap()
            .kill_at_epoch(kill_epoch);
        ServeSession::new(cfg)
            .store(&mut doomed)
            .run(&writer)
            .expect_err("killed");
        drop(doomed);
        let mut reopened = StorePlane::with_cadence(&dir, 4).unwrap();
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

/// Flip the ground truth of the first feedback record epoch `epoch`'s
/// begin frame carries in the journal at `path` (frames: `len:u32`, then
/// `tag:u8 epoch:u64 n_events:u32 n_feedback:u32`, 30-byte events and
/// 58-byte feedback records, `truth` their last byte). The journal has
/// no frame checksum, so the record still decodes — to another input.
fn flip_first_feedback_truth(path: &std::path::Path, epoch: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let mut pos = 8;
    loop {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let frame = pos + 4;
        if bytes[frame] == 1 && word(&bytes[frame + 1..frame + 9]) == epoch {
            let count = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let (n_events, n_feedback) = (count(frame + 9) as usize, count(frame + 13));
            assert!(n_feedback > 0, "epoch {epoch} delivers feedback");
            bytes[frame + 17 + 30 * n_events + 57] ^= 1;
            std::fs::write(path, &bytes).unwrap();
            return;
        }
        pos = frame + len;
    }
}

/// A replayed epoch that diverges is caught at that epoch, not at the
/// next digest a sparser cadence would have taken: a warm restart whose
/// journal tail (epochs 4–6, after the epoch-4 checkpoint) hands epoch 6
/// — the first to carry feedback — a feedback record with its truth
/// flipped stops with `ReplayDivergence` at epoch 6.
#[test]
fn a_tail_epoch_that_diverges_is_caught_at_that_epoch() {
    let out = small_sim();
    let cfg = serve_cfg(2, true);
    let dir = tmpdir("diverge");
    let mut doomed = StorePlane::with_cadence(&dir, 4).unwrap().kill_at_epoch(7);
    ServeSession::new(cfg)
        .store(&mut doomed)
        .run(&out)
        .expect_err("killed");
    drop(doomed);
    flip_first_feedback_truth(&dir.join("journal.sybj"), 6);
    let mut revived = StorePlane::with_cadence(&dir, 4).unwrap();
    let err = ServeSession::new(cfg)
        .store(&mut revived)
        .run(&out)
        .expect_err("a tampered tail must not resume");
    assert_eq!(revived.resumed_from(), Some(4));
    match err {
        ServeError::Chaos(c) => {
            assert_eq!(
                (c.fault_kind, c.epoch),
                (FaultKind::ReplayDivergence, 6),
                "{c}"
            )
        }
        other => panic!("expected a replay divergence, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill a cadence-4 run at epoch 6, leaving the epoch-4 checkpoint and a
/// two-epoch committed tail, and return the checkpoint's path.
fn killed_store(out: &SimOutput, cfg: &ServeConfig, dir: &PathBuf) -> PathBuf {
    let mut doomed = StorePlane::with_cadence(dir, 4).unwrap().kill_at_epoch(6);
    ServeSession::new(*cfg)
        .store(&mut doomed)
        .run(out)
        .expect_err("killed");
    dir.join("checkpoint-00000004.sybs")
}

/// A self-loop is well-formed `SYBS` bytes but no accept makes one, and
/// the link kernels would count it: planted in a committed checkpoint's
/// folded or staged edges, it is the typed journal fault an out-of-range
/// endpoint gets, at the checkpoint's epoch — never a report.
#[test]
fn a_checkpoint_with_a_self_loop_is_a_typed_journal_fault() {
    let out = small_sim();
    let cfg = serve_cfg(2, true);
    for staged in [false, true] {
        let dir = tmpdir(&format!("self-loop-{staged}"));
        let path = killed_store(&out, &cfg, &dir);
        let mut cp = format::decode_checkpoint(&std::fs::read(&path).unwrap()).unwrap();
        let edges = if staged {
            &mut cp.staged_edges
        } else {
            &mut cp.folded_edges
        };
        edges.push((NodeId(1), NodeId(1)));
        std::fs::write(&path, format::encode_checkpoint(&cp)).unwrap();
        let mut revived = StorePlane::with_cadence(&dir, 4).unwrap();
        let err = ServeSession::new(cfg)
            .store(&mut revived)
            .run(&out)
            .expect_err("a self-loop must not resume");
        match err {
            ServeError::Chaos(c) => {
                assert_eq!((c.fault_kind, c.epoch), (FaultKind::Journal, 4), "{c}")
            }
            other => panic!("expected a journal fault, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A store whose checkpoint a v1 binary wrote warm-restarts to the
/// uninterrupted bytes: this stream repeats no pair, so its v1 file is
/// the v3 sections with a time after each edge (times are never read
/// back), under version word 1 and that version's trailer.
#[test]
fn a_v1_checkpoint_warm_restarts() {
    let out = small_sim();
    let cfg = serve_cfg(2, true);
    let oracle = uninterrupted(&out, &cfg);
    let dir = tmpdir("v1");
    let path = killed_store(&out, &cfg, &dir);
    let v3 = std::fs::read(&path).unwrap();
    let mut bytes = v3[..12].to_vec();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let mut d = Digest64::new();
    d.write_u32(1);
    d.write_usize(u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize);
    let mut pos = 12;
    while pos < v3.len() - 8 {
        let (tag, len) = (v3[pos], u32::from_le_bytes(v3[pos + 1..pos + 5].try_into().unwrap()));
        let mut payload = v3[pos + 5..pos + 5 + len as usize].to_vec();
        if tag == 3 || tag == 4 {
            // The folded and staged edges: each pair gains a time.
            let (count, edges) = payload.split_at(4);
            let timed = edges.chunks(8).flat_map(|e| e.iter().copied().chain([0; 8]));
            payload = count.iter().copied().chain(timed).collect();
        }
        bytes.push(tag);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        d.write_u32(u32::from(tag));
        d.write_usize(payload.len());
        for chunk in payload.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            d.write_u64(u64::from_le_bytes(w));
        }
        pos += 5 + len as usize;
    }
    bytes.extend_from_slice(&Digest64::finish(&d).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let mut revived = StorePlane::with_cadence(&dir, 4).unwrap();
    let o = ServeSession::new(cfg).store(&mut revived).run(&out).unwrap();
    assert_eq!(revived.resumed_from(), Some(4), "the v1 checkpoint was read");
    assert_eq!(serde_json::to_string(&o.report).unwrap(), oracle);
    std::fs::remove_dir_all(&dir).unwrap();
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
