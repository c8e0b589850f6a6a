//! Seeded, serializable fault schedules.
//!
//! A [`FaultSchedule`] is the declarative input to the chaos engine: a
//! seed plus a list of [`FaultSpec`]s, each naming an epoch, a shard
//! (for shard-scoped faults), and a [`FaultSpecKind`]. Schedules are
//! plain serde values, so they round-trip through JSON — `repro chaos
//! --faults FILE` loads one, and every generated schedule can be dumped
//! for replay in a bug report.
//!
//! [`FaultSchedule::generate`] derives a schedule from a seed alone,
//! through the same SplitMix64 finalizer (`osn_sim::splitmix64`) the
//! scale generator uses — same seed, same faults, on every machine. The
//! draw for fault *i* never depends on earlier draws, so schedules with
//! different fault counts share a prefix.

use osn_sim::splitmix64;
use serde::{Deserialize, Serialize};

/// One kind of injected fault, each answered by a coordinator hook:
/// [`QueueClamp`](Self::QueueClamp) by `queue_clamp`,
/// [`ReorderBarrier`](Self::ReorderBarrier) by `deliver_order`,
/// [`Crash`](Self::Crash) by `shard_fault`. Shard-scoped kinds apply to
/// the `(epoch, shard)` named by the spec; the barrier kind applies to
/// the epoch as a whole and ignores the shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSpecKind {
    /// Clamp the shard's staging-queue capacities to this many slots,
    /// forcing an overflow when the epoch stages more effects.
    QueueClamp {
        /// Clamped capacity in queue slots.
        capacity: usize,
    },
    /// Shard results reach the barrier in a seed-derived shuffled order.
    /// Must be output-neutral: the merge is keyed by shard id.
    ReorderBarrier,
    /// The shard loses its in-memory state mid-epoch; recovery replays
    /// the write-ahead journal.
    Crash,
}

impl FaultSpecKind {
    /// Whether the kind targets a single shard (vs. the whole barrier).
    pub fn shard_scoped(self) -> bool {
        self != FaultSpecKind::ReorderBarrier
    }

    /// Short stable name for reports and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            FaultSpecKind::QueueClamp { .. } => "queue_clamp",
            FaultSpecKind::ReorderBarrier => "reorder_barrier",
            FaultSpecKind::Crash => "crash",
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Epoch (0-based barrier count) the fault fires in.
    pub epoch: u64,
    /// Target shard for shard-scoped kinds; ignored by the barrier kind.
    pub shard: usize,
    /// What happens.
    pub kind: FaultSpecKind,
}

impl FaultSpec {
    /// What [`FaultSchedule::normalize`] keeps one fault per: the
    /// `(epoch, shard)` of a shard-scoped fault, the epoch alone of a
    /// barrier fault.
    fn site(&self) -> (u64, Option<usize>) {
        (self.epoch, self.kind.shard_scoped().then_some(self.shard))
    }
}

/// A seeded fault schedule: the complete chaos input for one run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The seed the schedule was derived from (0 for hand-written
    /// schedules). Also seeds the reorder permutations at run time, so
    /// a loaded schedule replays the exact shuffles it was generated
    /// with.
    pub seed: u64,
    /// The faults, sorted by `(epoch, shard, kind name)`.
    pub faults: Vec<FaultSpec>,
}

/// Domain tag separating schedule draws from every other consumer of
/// the shared SplitMix64 stream.
const DOMAIN: u64 = 0xFA17_5EED_0000_0000;

/// The `i`-th draw of the schedule stream for `seed`, uniform in
/// `[0, m)`.
fn draw(seed: u64, i: u64, m: u64) -> u64 {
    splitmix64(seed ^ DOMAIN ^ splitmix64(i)) % m.max(1)
}

impl FaultSchedule {
    /// Derive up to `count` faults over `epochs × shards` from `seed`.
    ///
    /// Deterministic and machine-independent: fault *i* is a pure
    /// function of `(seed, i)`. Draw *i* picks one of five slots; two of
    /// them name no fault, so each kind keeps the same odds as every
    /// other and a seed's schedule does not depend on how many kinds
    /// exist. Empty slots and collisions (see [`normalize`]) leave fewer
    /// than `count` faults — the report states the realized number.
    ///
    /// [`normalize`]: FaultSchedule::normalize
    pub fn generate(seed: u64, epochs: u64, shards: usize, count: usize) -> Self {
        let mut faults: Vec<FaultSpec> = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let epoch = draw(seed, i * 4, epochs.max(1));
            let shard = draw(seed, i * 4 + 1, shards.max(1) as u64) as usize;
            let kind = match draw(seed, i * 4 + 2, 5) {
                1 => FaultSpecKind::QueueClamp {
                    // Tiny clamps nearly always overflow; generous ones
                    // nearly never — both arms of the invariant get
                    // exercised.
                    capacity: 1 << draw(seed, i * 4 + 3, 12),
                },
                3 => FaultSpecKind::ReorderBarrier,
                4 => FaultSpecKind::Crash,
                _ => continue,
            };
            faults.push(FaultSpec { epoch, shard, kind });
        }
        let mut sched = FaultSchedule { seed, faults };
        sched.normalize();
        sched
    }

    /// Sort by `(epoch, shard, kind-name)` and keep one fault per site —
    /// per `(epoch, shard)` for shard-scoped kinds, per epoch for the
    /// barrier kind (first kept) — so a barrier fault never shadows a
    /// shard fault, and an epoch's barrier is reordered once however
    /// many specs name it. Called by [`generate`] and after loading a
    /// file, so the plane's index build and tally are unambiguous.
    ///
    /// [`generate`]: FaultSchedule::generate
    pub fn normalize(&mut self) {
        self.faults.sort_by(|a, b| {
            (a.epoch, a.shard, a.kind.name()).cmp(&(b.epoch, b.shard, b.kind.name()))
        });
        let mut seen: Vec<(u64, Option<usize>)> = Vec::with_capacity(self.faults.len());
        self.faults.retain(|f| {
            let key = f.site();
            if seen.contains(&key) {
                false
            } else {
                seen.push(key);
                true
            }
        });
    }

    /// The seed-derived barrier arrival permutation for `epoch` over
    /// `shards` results: a Fisher–Yates shuffle driven by the schedule
    /// stream, so the same `(seed, epoch)` always reorders identically.
    pub fn reorder_permutation(&self, epoch: u64, shards: usize) -> Vec<usize> {
        let mut ord: Vec<usize> = (0..shards).collect();
        for i in (1..shards).rev() {
            let j = draw(self.seed, DOMAIN ^ (epoch << 16) ^ i as u64, i as u64 + 1) as usize;
            ord.swap(i, j);
        }
        ord
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_normalized() {
        let a = FaultSchedule::generate(42, 10, 8, 12);
        let b = FaultSchedule::generate(42, 10, 8, 12);
        assert_eq!(a, b);
        let key = |f: &FaultSpec| (f.epoch, f.shard, f.kind.name());
        for w in a.faults.windows(2) {
            assert!(key(&w[0]) < key(&w[1]));
        }
        let c = FaultSchedule::generate(43, 10, 8, 12);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn json_round_trip() {
        let a = FaultSchedule::generate(7, 6, 4, 8);
        let json = serde_json::to_string(&a).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn reorder_permutation_is_a_permutation() {
        let s = FaultSchedule {
            seed: 99,
            ..FaultSchedule::default()
        };
        for shards in [1usize, 2, 8] {
            for epoch in 0..4u64 {
                let mut p = s.reorder_permutation(epoch, shards);
                p.sort_unstable();
                assert_eq!(p, (0..shards).collect::<Vec<_>>());
            }
        }
        assert_ne!(
            s.reorder_permutation(0, 8),
            s.reorder_permutation(1, 8),
            "epochs should shuffle differently almost surely"
        );
    }

    #[test]
    fn shard_scoped_classification() {
        assert!(FaultSpecKind::Crash.shard_scoped());
        assert!(FaultSpecKind::QueueClamp { capacity: 1 }.shard_scoped());
        assert!(!FaultSpecKind::ReorderBarrier.shard_scoped());
    }

    fn spec(epoch: u64, shard: usize, kind: FaultSpecKind) -> FaultSpec {
        FaultSpec { epoch, shard, kind }
    }

    #[test]
    fn normalize_keeps_one_reorder_per_epoch() {
        let reorder = FaultSpecKind::ReorderBarrier;
        let mut s = FaultSchedule {
            seed: 1,
            faults: vec![
                spec(3, 1, reorder),
                spec(3, 0, reorder),
                spec(4, 0, reorder),
            ],
        };
        s.normalize();
        assert_eq!(s.faults, vec![spec(3, 0, reorder), spec(4, 0, reorder)]);
    }

    #[test]
    fn a_reorder_and_a_shard_fault_at_one_site_both_survive() {
        let clamp = FaultSpecKind::QueueClamp { capacity: 2 };
        let (reorder, crash) = (FaultSpecKind::ReorderBarrier, FaultSpecKind::Crash);
        let mut s = FaultSchedule {
            seed: 1,
            faults: vec![
                spec(2, 1, reorder),
                spec(2, 1, clamp),
                spec(5, 0, reorder),
                spec(5, 0, crash),
            ],
        };
        s.normalize();
        let want = [
            spec(2, 1, clamp),
            spec(2, 1, reorder),
            spec(5, 0, crash),
            spec(5, 0, reorder),
        ];
        assert_eq!(s.faults, want);
    }
}
