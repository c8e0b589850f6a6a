//! What a serve run cost, by the injected clock. The engine never reads
//! a clock itself (lint D002): callers that want timing inject one, and
//! everything the coordinator then records — the [`ServeStats`] it hands
//! back and, with a registry attached, the `epoch` and `stage.*` wall
//! spans and `shard{N}.*` metrics — goes through the one `Meter` here.

use crate::engine::{Clock, ServeStats};
use sybil_obs::Registry;

/// The coordinator's own stages, recorded per epoch as `stage.*` wall
/// spans beside `epoch` when a registry is attached: pulling the batch
/// off the stream, the mirror's index pass, the shard scan, the barrier
/// merge, the mirror fold (rotation included), and every fault-plane
/// hook call (with the journal reads and crash recovery they drive).
#[derive(Clone, Copy)]
pub(crate) enum Stage {
    Pull,
    Index,
    Scan,
    Merge,
    Fold,
    Plane,
}

/// Span names, in [`Stage`] order.
const STAGE_SPANS: [&str; 6] = [
    "stage.pull",
    "stage.index",
    "stage.scan",
    "stage.merge",
    "stage.fold",
    "stage.plane",
];

/// Where a session reports what it cost. Each [`lap`](Self::lap) charges
/// everything since the previous one to one [`Stage`], so the stages
/// partition the epoch loop and never overlap. A tail epoch re-run after
/// a warm restart is metered like a live one — a restarted process
/// reports the tail it re-ran; crash replay gets a throwaway meter and
/// lands, whole, in the live epoch's `stage.plane`.
pub(crate) struct Meter<'a> {
    pub(crate) clock: Clock<'a>,
    pub(crate) obs: Option<&'a mut Registry>,
    pub(crate) stats: ServeStats,
    /// Σ of the per-epoch windows, each opened at `t_epoch`.
    epochs_wall_s: f64,
    pub(crate) t_epoch: f64,
    last: f64,
    spent: [f64; STAGE_SPANS.len()],
}

impl<'a> Meter<'a> {
    pub(crate) fn start(clock: Clock<'a>, obs: Option<&'a mut Registry>, shards_n: usize) -> Self {
        let mut stats = ServeStats::default();
        stats.shard_busy_s.resize(shards_n, 0.0);
        Meter {
            clock,
            obs,
            stats,
            epochs_wall_s: 0.0,
            t_epoch: 0.0,
            last: clock(),
            spent: [0.0; STAGE_SPANS.len()],
        }
    }

    pub(crate) fn lap(&mut self, stage: Stage) {
        let now = (self.clock)();
        self.spent[stage as usize] += now - self.last;
        self.last = now;
    }

    /// Close the epoch's window. Coordinator work is everything in it
    /// that is not shard busy time; the critical path pays it plus the
    /// slowest shard.
    pub(crate) fn epoch_end(&mut self, busy_sum: f64, busy_max: f64) {
        let epoch_wall = (self.clock)() - self.t_epoch;
        self.stats.critical_path_s += (epoch_wall - busy_sum).max(0.0) + busy_max;
        self.epochs_wall_s += epoch_wall;
        if let Some(reg) = self.obs.as_deref_mut() {
            let id = reg.span("epoch");
            reg.record_span(id, epoch_wall);
        }
    }

    /// Record the epoch's stage times and start the next epoch's at zero.
    pub(crate) fn flush(&mut self) {
        if let Some(reg) = self.obs.as_deref_mut() {
            for (name, spent) in STAGE_SPANS.iter().zip(&mut self.spent) {
                let id = reg.span(name);
                reg.record_span(id, std::mem::take(spent));
            }
        }
    }

    /// The stats of the run that began at `t_start`, and the registry
    /// back. Stream buffering and final assembly are sequential
    /// coordinator work: everything outside the per-epoch windows joins
    /// the critical path.
    pub(crate) fn finish(self, t_start: f64) -> (ServeStats, Option<&'a mut Registry>) {
        let mut stats = self.stats;
        stats.wall_s = (self.clock)() - t_start;
        stats.critical_path_s += (stats.wall_s - self.epochs_wall_s).max(0.0);
        (stats, self.obs)
    }
}
