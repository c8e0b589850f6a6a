//! The one serving entry point: [`ServeSession`].
//!
//! The engine used to expose a cartesian product of free functions —
//! `serve`, `serve_timed`, `serve_observed`, and the three
//! `serve_with_plane*` variants — one per combination of optional
//! capabilities. Each new capability doubled the surface. `ServeSession`
//! replaces all of them with a builder: construct with the config, chain
//! on exactly the capabilities this run wants, call
//! [`run`](ServeSession::run).
//!
//! ```
//! use sybil_serve::{ServeConfig, ServeSession};
//! # let out = osn_sim::simulate(osn_sim::SimConfig::tiny(7));
//! let outcome = ServeSession::new(ServeConfig::default())
//!     .run(&out)
//!     .expect("serve failed");
//! # let _ = outcome.report;
//! ```
//!
//! Capabilities:
//!
//! * [`clock`](ServeSession::clock) — a monotonic-seconds source; the
//!   returned [`ServeStats`] carry real timings instead of zeros.
//! * [`metrics`](ServeSession::metrics) — an observability registry;
//!   logical tallies land under the same keys (and with equal values) as
//!   the sequential `replay_observed`, per-shard quantities under
//!   `shard{N}.*`, and (by the injected clock) the wall spans `epoch` and
//!   `stage.{pull,index,scan,merge,fold,plane}` — where each epoch went.
//!   After a warm restart the logical tallies equal the uninterrupted
//!   run's; spans and `shard{N}.*` cover what this process ran — the
//!   journal tail it re-ran and the live remainder.
//! * [`plane`](ServeSession::plane) — a [`FaultPlane`]: chaos injection
//!   and the write-ahead epoch journal.
//! * [`store`](ServeSession::store) — a persistence plane (checkpoint
//!   writer + warm-restart source, e.g. `sybil-store`'s `StorePlane`).
//!   Same slot as `plane`: both are `FaultPlane` implementations, the
//!   session holds exactly one, and the last call wins.
//!
//! Every combination routes into the same monomorphized coordinator
//! loop, so the no-capability session compiles to exactly the code the
//! old bare `serve` did.

use crate::engine::{serve_inner, Clock, ServeConfig, ServeError, ServeStats};
use crate::fault::{FaultPlane, NoFaults};
use osn_sim::SimOutput;
use sybil_core::realtime::DeploymentReport;

/// What a serve run produced: the deployment report (byte-identical to
/// the sequential replay's for every shard count) plus the timing
/// breakdown (all zeros unless a [`clock`](ServeSession::clock) was
/// injected).
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The detector's deployment report.
    pub report: DeploymentReport,
    /// Timing breakdown by the injected clock.
    pub stats: ServeStats,
}

/// The session's one capability slot for a fault/persistence plane:
/// either the zero-cost production default or a caller-borrowed plane.
enum PlaneSlot<'a, P: FaultPlane> {
    /// No plane injected: run with [`NoFaults`] (every hook a no-op).
    Default,
    /// A caller-owned plane, borrowed for the run.
    Borrowed(&'a mut P),
}

/// Builder for one run of the sharded serving engine. See the
/// [module docs](self) for the capability list and an example.
pub struct ServeSession<'a, P: FaultPlane = NoFaults> {
    cfg: ServeConfig,
    clock: Option<Clock<'a>>,
    metrics: Option<&'a mut sybil_obs::Registry>,
    plane: PlaneSlot<'a, P>,
}

impl<'a> ServeSession<'a, NoFaults> {
    /// A session with no optional capabilities: no clock (stats report
    /// zeros), no metrics, the [`NoFaults`] plane.
    pub fn new(cfg: ServeConfig) -> Self {
        ServeSession {
            cfg,
            clock: None,
            metrics: None,
            plane: PlaneSlot::Default,
        }
    }
}

impl<'a, P: FaultPlane> ServeSession<'a, P> {
    /// Inject a monotonic-seconds source; [`ServeStats`] then carry real
    /// wall/critical-path/per-shard timings.
    pub fn clock(mut self, clock: Clock<'a>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attach an observability registry for logical and per-shard
    /// metrics (drained at each epoch barrier in shard-id order).
    pub fn metrics(mut self, reg: &'a mut sybil_obs::Registry) -> Self {
        self.metrics = Some(reg);
        self
    }

    /// Attach a fault plane: chaos injection, write-ahead journaling,
    /// checkpointing, warm restart. Replaces whatever plane the session
    /// held (there is exactly one plane slot).
    pub fn plane<Q: FaultPlane>(self, plane: &'a mut Q) -> ServeSession<'a, Q> {
        ServeSession {
            cfg: self.cfg,
            clock: self.clock,
            metrics: self.metrics,
            plane: PlaneSlot::Borrowed(plane),
        }
    }

    /// Attach a persistence plane (checkpoint store + warm-restart
    /// source). An intent-named alias for [`plane`](Self::plane): a
    /// store *is* a `FaultPlane`, and the session holds one plane — the
    /// last `plane`/`store` call wins.
    pub fn store<Q: FaultPlane>(self, store: &'a mut Q) -> ServeSession<'a, Q> {
        self.plane(store)
    }

    /// Run the sharded streaming detector over a simulation's request
    /// log. The report is byte-identical to `replay(out, &cfg.detect)`
    /// for every shard count ≥ 1 (and, with a persistence plane, for
    /// any kill/warm-restart split of the run).
    pub fn run(self, out: &SimOutput) -> Result<ServeOutcome, ServeError> {
        let zero = || 0.0;
        let clock: Clock<'_> = match self.clock {
            Some(c) => c,
            None => &zero,
        };
        let (report, stats) = match self.plane {
            PlaneSlot::Default => {
                serve_inner(out, &self.cfg, clock, self.metrics, &mut NoFaults)?
            }
            PlaneSlot::Borrowed(plane) => {
                serve_inner(out, &self.cfg, clock, self.metrics, plane)?
            }
        };
        Ok(ServeOutcome { report, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{
        ChaosError, EpochRecord, EpochRecordRef, FaultKind, ResumeState, SessionCheckpoint,
    };
    use osn_sim::{simulate, SimConfig};

    #[test]
    fn bare_session_matches_sequential_replay() {
        let out = simulate(SimConfig::tiny(3));
        let cfg = two_shards();
        let outcome = ServeSession::new(cfg).run(&out).expect("serve failed");
        let seq = sybil_core::realtime::replay(&out, &cfg.detect);
        assert_eq!(
            serde_json::to_string(&outcome.report).unwrap(),
            serde_json::to_string(&seq).unwrap()
        );
        assert_eq!(outcome.stats.wall_s, 0.0);
    }

    #[test]
    fn capabilities_chain_without_changing_the_report() {
        let out = simulate(SimConfig::tiny(3));
        let cfg = two_shards();
        let bare = ServeSession::new(cfg).run(&out).expect("serve failed");
        let t = std::time::Instant::now();
        let clock = move || t.elapsed().as_secs_f64();
        let mut reg = sybil_obs::Registry::new();
        let mut plane = NoFaults;
        let full = ServeSession::new(cfg)
            .clock(&clock)
            .metrics(&mut reg)
            .plane(&mut plane)
            .run(&out)
            .expect("serve failed");
        assert_eq!(
            serde_json::to_string(&bare.report).unwrap(),
            serde_json::to_string(&full.report).unwrap()
        );
        assert!(full.stats.wall_s > 0.0);
    }

    /// Run `plane` under a registry and a fake clock that advances one
    /// second per reading (so the arithmetic is exact), and check the
    /// in-engine ledger: every epoch the process ran records the six
    /// `stage.*` spans beside `epoch`, none negative, and — the stages
    /// partition the epoch loop — summing to no more than the run's wall.
    fn metered_run<P: FaultPlane>(out: &SimOutput, plane: &mut P) -> sybil_obs::Snapshot {
        use std::sync::atomic::{AtomicU32, Ordering};
        let ticks = AtomicU32::new(0);
        let clock = || f64::from(ticks.fetch_add(1, Ordering::Relaxed));
        let mut reg = sybil_obs::Registry::new();
        let outcome = ServeSession::new(two_shards())
            .clock(&clock)
            .metrics(&mut reg)
            .plane(plane)
            .run(out)
            .expect("serve failed");
        let snap = reg.snapshot();
        let epochs = snap.wall["epoch"].count;
        assert!(epochs > 0);
        let mut sum = 0.0;
        for stage in ["pull", "index", "scan", "merge", "fold", "plane"] {
            let span = &snap.wall[&format!("stage.{stage}")];
            assert_eq!(span.count, epochs, "stage.{stage}: once per epoch");
            assert!(span.total_s > 0.0, "stage.{stage}");
            assert!(span.max_s <= span.total_s, "stage.{stage}");
            sum += span.total_s;
        }
        let wall_s = outcome.stats.wall_s;
        assert!(sum <= wall_s, "{sum} > {wall_s}");
        snap
    }

    fn two_shards() -> ServeConfig {
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn stage_spans_are_present_and_sum_to_at_most_the_wall() {
        /// Every hook still a no-op, but consulted: `stage.plane` gets laps.
        struct Consulted;
        impl FaultPlane for Consulted {
            fn enabled(&self) -> bool {
                true
            }
        }
        metered_run(&simulate(SimConfig::tiny(3)), &mut Consulted);
    }

    /// What `sybil-store`'s `StorePlane` keeps on disk (this crate cannot
    /// depend on it), in memory: every epoch's input, the commit count,
    /// the latest of a checkpoint every 4th epoch, and an optional kill
    /// after a write-ahead record.
    #[derive(Default)]
    struct MemStore {
        begun: Vec<EpochRecord>,
        committed: u64,
        checkpoint: Option<SessionCheckpoint>,
        kill_at: Option<u64>,
    }

    impl FaultPlane for MemStore {
        fn enabled(&self) -> bool {
            true
        }
        fn epoch_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
            // The epoch in flight at the kill is journaled again live.
            self.begun.truncate(rec.epoch as usize);
            self.begun.push(EpochRecord {
                epoch: rec.epoch,
                events: rec.events.to_vec(),
                details: rec.details.to_vec(),
                feedback: rec.feedback.to_vec(),
            });
            if self.kill_at == Some(rec.epoch) {
                return Err(ChaosError {
                    epoch: rec.epoch,
                    shard: None,
                    fault_kind: FaultKind::Crash,
                });
            }
            Ok(())
        }
        fn epoch_commit(&mut self, epoch: u64, _: Option<&[u64]>) -> Result<(), ChaosError> {
            self.committed = epoch + 1;
            Ok(())
        }
        fn replay_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
            Ok(self.begun.get(epoch as usize).cloned())
        }
        fn wants_checkpoint(&self, epoch: u64) -> bool {
            (epoch + 1).is_multiple_of(4)
        }
        fn checkpoint(&mut self, cp: &SessionCheckpoint) -> Result<(), ChaosError> {
            self.checkpoint = Some(cp.clone());
            Ok(())
        }
        fn load_resume(&mut self) -> Result<Option<ResumeState>, ChaosError> {
            let tail_end = self.committed;
            let resume = |checkpoint| ResumeState {
                checkpoint,
                tail_end,
            };
            Ok(self.checkpoint.clone().map(resume))
        }
    }

    /// Tail epochs re-run after a warm restart go through the step live
    /// epochs go through, instrumentation included: a killed and
    /// restarted run's logical counters equal the uninterrupted run's,
    /// and its spans cover exactly the epochs the process ran — the
    /// committed tail and the live remainder, not what the checkpoint
    /// restored.
    #[test]
    fn a_restarted_run_meters_the_tail_it_re_ran() {
        let out = simulate(SimConfig::tiny(3));
        let mut whole = sybil_obs::Registry::new();
        ServeSession::new(two_shards())
            .metrics(&mut whole)
            .run(&out)
            .expect("serve failed");
        // Killed in epoch 6: the checkpoint holds epochs 0..4, the
        // committed tail is epochs 4 and 5.
        let mut store = MemStore {
            kill_at: Some(6),
            ..MemStore::default()
        };
        let killed = ServeSession::new(two_shards()).plane(&mut store).run(&out);
        assert!(matches!(killed, Err(ServeError::Chaos(c)) if c.fault_kind == FaultKind::Crash));
        assert_eq!((store.committed, store.begun.len()), (6, 7));
        store.kill_at = None;
        let restarted = metered_run(&out, &mut store);
        let whole = whole.snapshot();
        assert_eq!(restarted.logical, whole.logical);
        let Some(sybil_obs::MetricValue::Count(epochs)) = whole.logical.get("epochs") else {
            panic!("no epochs counter: {:?}", whole.logical);
        };
        assert_eq!(restarted.wall["epoch"].count, epochs - 4);
    }
}
