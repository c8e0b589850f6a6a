//! A delegating [`FaultPlane`] that timestamps the coordinator's hooks.
//!
//! The serving engine is one public call from outside; the only places
//! the benchmark can observe *inside* a run without touching the crates
//! are the plane's hooks. `TimedPlane` forwards all thirteen to the plane
//! it wraps and records an interval around each `&mut` hook, which gives
//! the per-hook cost of a real `StorePlane` and, over [`NoopPlane`], the
//! epoch boundaries of a plain run.

use std::time::Instant;
use sybil_serve::fault::{
    ChaosError, EpochRecord, EpochRecordRef, FaultPlane, ResumeState, SessionCheckpoint, ShardFault,
};

/// A plane that is enabled and does nothing: the coordinator calls every
/// hook, each answers with the trait's no-op default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopPlane;

impl FaultPlane for NoopPlane {
    fn enabled(&self) -> bool {
        true
    }
}

/// One timed hook call: `(hook, start, end)` in seconds since the origin.
pub type HookSpan = (&'static str, f64, f64);

// Hook names as they appear in the span file.
pub const EPOCH_BEGIN: &str = "plane.epoch_begin";
pub const EPOCH_COMMIT: &str = "plane.epoch_commit";
pub const CHECKPOINT: &str = "plane.checkpoint";
pub const LOAD_RESUME: &str = "plane.load_resume";
pub const RUN_END: &str = "plane.run_end";
pub const REPLAY_EPOCH: &str = "plane.replay_epoch";
pub const COMMITTED_DIGEST: &str = "plane.committed_digest";

/// Forwards every hook to `inner`; records a [`HookSpan`] around each
/// `&mut` hook.
pub struct TimedPlane<'p, P: FaultPlane> {
    inner: &'p mut P,
    origin: Instant,
    /// The recorded intervals, in call order.
    pub hooks: Vec<HookSpan>,
}

impl<'p, P: FaultPlane> TimedPlane<'p, P> {
    /// Wrap `inner`, timing against `origin` (the tracer's).
    pub fn new(inner: &'p mut P, origin: Instant) -> Self {
        TimedPlane {
            inner,
            origin,
            hooks: Vec::new(),
        }
    }

    fn timed<T>(&mut self, hook: &'static str, f: impl FnOnce(&mut P) -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64();
        let r = f(self.inner);
        self.hooks
            .push((hook, start, self.origin.elapsed().as_secs_f64()));
        r
    }
}

/// Total seconds inside `hook`; `None` when it was never called.
pub fn total(hooks: &[HookSpan], hook: &str) -> Option<f64> {
    let calls = hooks.iter().filter(|h| h.0 == hook);
    calls.map(|h| h.2 - h.1).reduce(|a, b| a + b)
}

/// Seconds from each `epoch_begin`'s start to the matching
/// `epoch_commit`'s end: how long each live epoch held its verdicts.
pub fn epoch_latencies(hooks: &[HookSpan]) -> Vec<f64> {
    let begins = hooks.iter().filter(|h| h.0 == EPOCH_BEGIN);
    let commits = hooks.iter().filter(|h| h.0 == EPOCH_COMMIT);
    begins.zip(commits).map(|(b, c)| c.2 - b.1).collect()
}

impl<P: FaultPlane> FaultPlane for TimedPlane<'_, P> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn epoch_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
        self.timed(EPOCH_BEGIN, |p| p.epoch_begin(rec))
    }

    fn queue_clamp(&self, epoch: u64, shard: usize) -> Option<usize> {
        self.inner.queue_clamp(epoch, shard)
    }

    fn shard_fault(&self, epoch: u64, shard: usize) -> ShardFault {
        self.inner.shard_fault(epoch, shard)
    }

    fn deliver_order(&self, epoch: u64, shards: usize) -> Option<Vec<usize>> {
        self.inner.deliver_order(epoch, shards)
    }

    fn wants_digests(&self, epoch: u64) -> bool {
        self.inner.wants_digests(epoch)
    }

    fn epoch_commit(&mut self, epoch: u64, digests: Option<&[u64]>) -> Result<(), ChaosError> {
        self.timed(EPOCH_COMMIT, |p| p.epoch_commit(epoch, digests))
    }

    fn replay_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
        self.timed(REPLAY_EPOCH, |p| p.replay_epoch(epoch))
    }

    fn committed_digest(&mut self, epoch: u64, shard: usize) -> Option<u64> {
        self.timed(COMMITTED_DIGEST, |p| p.committed_digest(epoch, shard))
    }

    fn run_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), ChaosError> {
        self.timed(RUN_END, |p| p.run_end(epochs, digests))
    }

    fn wants_checkpoint(&self, epoch: u64) -> bool {
        self.inner.wants_checkpoint(epoch)
    }

    fn checkpoint(&mut self, cp: &SessionCheckpoint) -> Result<(), ChaosError> {
        self.timed(CHECKPOINT, |p| p.checkpoint(cp))
    }

    fn load_resume(&mut self) -> Result<Option<ResumeState>, ChaosError> {
        self.timed(LOAD_RESUME, |p| p.load_resume())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts calls so the test can see every hook reach the inner plane.
    #[derive(Default)]
    struct Counting {
        calls: u32,
    }

    impl FaultPlane for Counting {
        fn enabled(&self) -> bool {
            true
        }
        fn epoch_begin(&mut self, _rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
            self.calls += 1;
            Ok(())
        }
        fn queue_clamp(&self, epoch: u64, shard: usize) -> Option<usize> {
            Some(epoch as usize + shard)
        }
        fn wants_digests(&self, epoch: u64) -> bool {
            epoch == 2
        }
        fn wants_checkpoint(&self, epoch: u64) -> bool {
            epoch == 3
        }
        fn epoch_commit(&mut self, _e: u64, _d: Option<&[u64]>) -> Result<(), ChaosError> {
            self.calls += 1;
            Ok(())
        }
        fn committed_digest(&mut self, epoch: u64, _shard: usize) -> Option<u64> {
            Some(epoch)
        }
        fn run_end(&mut self, _e: u64, _d: &[u64]) -> Result<(), ChaosError> {
            self.calls += 1;
            Ok(())
        }
    }

    fn begin(epoch: u64) -> EpochRecordRef<'static> {
        EpochRecordRef {
            epoch,
            events: &[],
            details: &[],
            feedback: &[],
        }
    }

    #[test]
    fn every_hook_is_forwarded_and_mut_hooks_are_timed() {
        let mut inner = Counting::default();
        let mut p = TimedPlane::new(&mut inner, Instant::now());
        assert!(p.enabled());
        assert_eq!(p.queue_clamp(4, 1), Some(5));
        assert_eq!(p.shard_fault(0, 0), ShardFault::Healthy);
        assert_eq!(p.deliver_order(0, 2), None);
        assert!(p.wants_digests(2) && !p.wants_digests(1));
        assert!(p.wants_checkpoint(3) && !p.wants_checkpoint(1));
        for e in 0..2 {
            p.epoch_begin(begin(e)).unwrap();
            p.epoch_commit(e, None).unwrap();
        }
        assert!(p.replay_epoch(0).unwrap().is_none());
        assert_eq!(p.committed_digest(9, 0), Some(9));
        p.run_end(2, &[]).unwrap();
        assert!(p.load_resume().unwrap().is_none());
        let names: Vec<&str> = p.hooks.iter().map(|h| h.0).collect();
        assert_eq!(
            names,
            [
                EPOCH_BEGIN,
                EPOCH_COMMIT,
                EPOCH_BEGIN,
                EPOCH_COMMIT,
                REPLAY_EPOCH,
                COMMITTED_DIGEST,
                RUN_END,
                LOAD_RESUME
            ]
        );
        assert!(p.hooks.iter().all(|h| h.2 >= h.1));
        assert_eq!(epoch_latencies(&p.hooks).len(), 2);
        assert!(total(&p.hooks, EPOCH_BEGIN).is_some_and(|s| s >= 0.0));
        assert_eq!(total(&p.hooks, CHECKPOINT), None);
        assert_eq!(inner.calls, 5);
    }

    #[test]
    fn noop_plane_is_enabled_and_inert() {
        let mut p = NoopPlane;
        assert!(p.enabled());
        assert!(!p.wants_digests(0) && !p.wants_checkpoint(0));
        assert!(p.load_resume().unwrap().is_none());
    }
}
