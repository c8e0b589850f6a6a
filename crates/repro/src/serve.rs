//! Sharded serving replay — the §2.3 production detector run through the
//! `sybil-serve` engine instead of the sequential loop.
//!
//! The experiment calibrates the same initial rule as [`crate::deployment`],
//! then runs both detector variants through the sharded engine at the
//! ambient `RENREN_THREADS` shard count and byte-compares each report
//! against the sequential [`replay`] — the engine's headline invariant,
//! checked on real simulated streams at every scale.

use crate::fig1::ground_truth_sample;
use crate::runspec::RunSpec;
use crate::scenario::Ctx;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use sybil_core::realtime::{replay, replay_observed, DeploymentReport, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_obs::{Registry, Snapshot};
use sybil_serve::{ServeConfig, ServeError, ServeOutcome, ServeSession};
use sybil_store::{StoreError, StorePlane};

/// Why the serving experiment could not run.
#[derive(Debug)]
pub enum ServeExpError {
    /// The `--store` directory could not be opened.
    Store(StoreError),
    /// The engine failed — with `--store`, typically because the
    /// directory holds another run's state.
    Engine(ServeError),
}

impl std::fmt::Display for ServeExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeExpError::Store(e) => write!(f, "snapshot store failed: {e}"),
            ServeExpError::Engine(e) => write!(f, "serving engine failed: {e}"),
        }
    }
}

impl std::error::Error for ServeExpError {}

/// Result of the sharded serving experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeRun {
    /// The calibrated initial rule (same calibration as `deployment`).
    pub rule: ThresholdClassifier,
    /// Shard count the engine actually used.
    pub shards: usize,
    /// Epoch barrier cadence in simulated hours (pre-clamp).
    pub epoch_hours: u64,
    /// Static-rule sharded run.
    pub static_report: DeploymentReport,
    /// Adaptive-rule sharded run.
    pub adaptive_report: DeploymentReport,
    /// Whether the static sharded report serialized byte-identically to
    /// the sequential replay's.
    pub matches_replay_static: bool,
    /// Same check for the adaptive variant.
    pub matches_replay_adaptive: bool,
    /// Whether both variants ran with a persistence plane attached
    /// (`--store DIR`): checkpoints + journal under `DIR/{variant}`,
    /// warm-restarting from whatever a previous invocation left there.
    pub persisted: bool,
}

/// Run the experiment. The sharded engine is the product; the sequential
/// replay is kept only as the equivalence oracle.
pub fn run(ctx: &Ctx, spec: &RunSpec) -> Result<ServeRun, ServeExpError> {
    Ok(run_inner(ctx, spec, None)?.0)
}

/// [`run`] with metrics: both engines run through their observed entry
/// points, and the returned [`Snapshot`] carries four namespaces —
/// `serve.static`, `serve.adaptive`, `replay.static`, `replay.adaptive`.
/// The `clock` feeds only wall spans; every logical metric stays
/// byte-identical across thread and shard counts. The clock is injected
/// because this is library code (lint D002 forbids reading one here);
/// the `repro` binary constructs the real clock.
pub fn run_observed(
    ctx: &Ctx,
    spec: &RunSpec,
    clock: sybil_obs::Clock<'_>,
) -> Result<(ServeRun, Snapshot), ServeExpError> {
    let (run, snap) = run_inner(ctx, spec, Some(clock))?;
    Ok((run, snap.unwrap_or_default()))
}

/// Run one engine pass with whatever optional capabilities the caller
/// holds. The plane changes the session's type parameter, so the
/// combinations are enumerated here once instead of at every call site.
fn run_engine(
    cfg: ServeConfig,
    out: &osn_sim::SimOutput,
    observed: Option<(sybil_obs::Clock<'_>, &mut Registry)>,
    plane: Option<&mut StorePlane>,
) -> Result<ServeOutcome, ServeError> {
    let s = ServeSession::new(cfg);
    match (observed, plane) {
        (Some((c, r)), Some(p)) => s.clock(c).metrics(r).store(p).run(out),
        (Some((c, r)), None) => s.clock(c).metrics(r).run(out),
        (None, Some(p)) => s.store(p).run(out),
        (None, None) => s.run(out),
    }
}

fn run_inner(
    ctx: &Ctx,
    spec: &RunSpec,
    observe: Option<sybil_obs::Clock<'_>>,
) -> Result<(ServeRun, Option<Snapshot>), ServeExpError> {
    let ds = ground_truth_sample(ctx, spec.per_class());
    let rule = ThresholdClassifier::calibrate(&ds);
    let base = ServeConfig {
        shards: spec.shards,
        ..ServeConfig::default()
    };
    let shards = base.resolved_shards();
    let mut reports = Vec::new();
    let mut matches = Vec::new();
    let mut master = observe.map(|_| Snapshot::default());
    for adaptive in [false, true] {
        let variant = if adaptive { "adaptive" } else { "static" };
        let detect = RealtimeConfig {
            rule,
            adaptive,
            ..RealtimeConfig::default()
        };
        let cfg = ServeConfig {
            shards,
            detect,
            ..base
        };
        // With `--store DIR`, each variant persists under its own
        // subdirectory; a rerun over the same directory warm-restarts
        // (and, over a finished journal, replays without recomputing).
        let mut plane = match &spec.store_dir {
            Some(dir) => Some(StorePlane::open(dir.join(variant)).map_err(ServeExpError::Store)?),
            None => None,
        };
        let mut sreg = Registry::new();
        let observed = observe.map(|clock| (clock, &mut sreg));
        let report = match run_engine(cfg, &ctx.out, observed, plane.as_mut()) {
            Ok(o) => o.report,
            // The one serving constraint the sequential engine stands in
            // for; any other failure is the experiment's failure, not a
            // reason to report a run the engine did not make.
            Err(ServeError::ZeroFeedbackDelay) => replay(&ctx.out, &detect),
            Err(e) => return Err(ServeExpError::Engine(e)),
        };
        let sequential = match (observe, master.as_mut()) {
            (Some(clock), Some(m)) => {
                let mut rreg = Registry::new();
                let sequential = replay_observed(&ctx.out, &detect, &mut rreg, Some(clock));
                m.absorb(&sreg.snapshot().prefixed(&format!("serve.{variant}")));
                m.absorb(&rreg.snapshot().prefixed(&format!("replay.{variant}")));
                sequential
            }
            _ => replay(&ctx.out, &detect),
        };
        matches
            .push(serde_json::to_string(&report).ok() == serde_json::to_string(&sequential).ok());
        reports.push(report);
    }
    let adaptive_report = reports.pop().unwrap_or_default();
    let static_report = reports.pop().unwrap_or_default();
    Ok((
        ServeRun {
            rule,
            shards,
            epoch_hours: base.epoch_hours,
            static_report,
            adaptive_report,
            matches_replay_static: matches[0],
            matches_replay_adaptive: matches[1],
            persisted: spec.store_dir.is_some(),
        },
        master,
    ))
}

/// Format a catch rate, which is NaN when no Sybil was eligible.
pub(crate) fn fmt_catch_rate(rate: f64) -> String {
    if rate.is_nan() {
        "n/a".into()
    } else {
        format!("{:.0}%", 100.0 * rate)
    }
}

impl ServeRun {
    /// Render the serving dashboard.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Variant",
            "Detections",
            "Catch rate",
            "False pos.",
            "Mean latency",
            "≡ replay",
        ]);
        for (name, r, ok) in [
            ("static", &self.static_report, self.matches_replay_static),
            (
                "adaptive",
                &self.adaptive_report,
                self.matches_replay_adaptive,
            ),
        ] {
            t.add_row([
                name.to_string(),
                r.detections.len().to_string(),
                fmt_catch_rate(r.catch_rate()),
                r.false_positives.to_string(),
                format!("{:.0}h", r.mean_latency_h),
                if ok { "yes".into() } else { "NO".into() },
            ]);
        }
        format!(
            "Sharded serving replay — {} shards, {}h epochs{}, byte-compared to the \
             sequential engine\n\n{}",
            self.shards,
            self.epoch_hours,
            if self.persisted {
                ", persisted (survives a process kill, not power loss: nothing is fsynced)"
            } else {
                ""
            },
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn sharded_run_matches_sequential_replay() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = RunSpec::builder().scale(Scale::Tiny).build();
        let r = run(ctx, &spec).expect("serve failed");
        assert!(r.matches_replay_static);
        assert!(r.matches_replay_adaptive);
        assert!(r.shards >= 1);
        assert!(r.render().contains("Sharded serving replay"));
    }

    /// The observed run must produce the identical report, and its
    /// logical metrics must agree between the sharded engine and the
    /// sequential oracle on the shared keys.
    #[test]
    fn observed_run_matches_and_aligns_engines() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let spec = RunSpec::builder().scale(Scale::Tiny).shards(2).build();
        let (r, snap) = run_observed(ctx, &spec, &|| 0.0).expect("serve failed");
        assert!(r.matches_replay_static && r.matches_replay_adaptive);
        for variant in ["static", "adaptive"] {
            for key in [
                "events_processed",
                "checks_run",
                "detections",
                "features_computed",
                "feedback_applied",
                "audits_sampled",
            ] {
                let serve_v = snap.logical.get(&format!("serve.{variant}.{key}"));
                let replay_v = snap.logical.get(&format!("replay.{variant}.{key}"));
                assert!(serve_v.is_some(), "missing serve.{variant}.{key}");
                assert_eq!(serve_v, replay_v, "engines disagree on {variant}.{key}");
            }
        }
    }

    /// `--store DIR` must be report-transparent: a cold persisted run
    /// matches the sequential replay, and a second run over the same
    /// directory (pure warm restart) produces the identical bytes.
    #[test]
    fn persisted_run_is_transparent_and_warm_restarts() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let dir =
            std::env::temp_dir().join(format!("sybil-repro-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = RunSpec::builder()
            .scale(Scale::Tiny)
            .shards(2)
            .store_dir(&dir)
            .build();
        let cold = run(ctx, &spec).expect("cold run failed");
        assert!(cold.persisted);
        assert!(cold.matches_replay_static && cold.matches_replay_adaptive);
        assert!(cold.render().contains("persisted"));
        let warm = run(ctx, &spec).expect("warm restart failed");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "warm restart over the finished store diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catch_rate_formatter_handles_nan() {
        assert_eq!(fmt_catch_rate(f64::NAN), "n/a");
        assert_eq!(fmt_catch_rate(0.5), "50%");
    }
}
