//! The one copy of each helper the modules of this binary share.

use osn_sim::{simulate, SimConfig, SimOutput};
use std::sync::OnceLock;
use sybil_core::realtime::{DeploymentReport, RealtimeConfig};
use sybil_core::threshold::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeSession};

/// The shard counts every chaos test runs at.
pub const SHARDS: [usize; 3] = [1, 2, 8];

/// A `shards`-shard engine with a permissive adaptive detector:
/// detections, audits and feedback all fire on tiny logs, so the journal
/// and checkpoints carry every record kind and crashed shards have
/// non-trivial state to rebuild.
pub fn serve_cfg(shards: usize) -> ServeConfig {
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

/// The tiny/seed-11 simulation, built once per binary: where the fault
/// schedule, not the log, is the random input.
pub fn shared_sim() -> &'static SimOutput {
    static SIM: OnceLock<SimOutput> = OnceLock::new();
    SIM.get_or_init(|| simulate(SimConfig::tiny(11)))
}

/// The fault-free report of `serve_cfg(shards)` over [`shared_sim`],
/// served once per binary per shard count of [`SHARDS`]: the baseline
/// every chaos run over the shared simulation compares against.
pub fn shared_baseline(shards: usize) -> &'static DeploymentReport {
    static REPORTS: [OnceLock<DeploymentReport>; SHARDS.len()] =
        [const { OnceLock::new() }; SHARDS.len()];
    let i = SHARDS
        .iter()
        .position(|&s| s == shards)
        .expect("a shard count of SHARDS");
    REPORTS[i].get_or_init(|| {
        ServeSession::new(serve_cfg(shards))
            .run(shared_sim())
            .expect("fault-free serve")
            .report
    })
}
