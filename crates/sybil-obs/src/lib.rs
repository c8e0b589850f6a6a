//! Deterministic observability for the renren-sybils workspace.
//!
//! The workspace's north star is bit-identical output at every thread and
//! shard count, and that contract extends to metrics: a counter of
//! "detections made" must not depend on how many workers made them. This
//! crate therefore splits every quantity into one of three sections of a
//! [`Snapshot`]:
//!
//! * **logical** — counts, high-water marks, and histograms of *events
//!   that happen*, independent of scheduling. These are covered by the
//!   same determinism guarantee as the reports themselves: byte-identical
//!   JSON across `RENREN_THREADS` and shard counts (enforced by
//!   `scripts/verify.sh`).
//! * **sharded** — per-shard quantities (queue high-water marks, busy
//!   counters) keyed `shard{N}.{name}`. Deterministic for a *fixed* shard
//!   count but intentionally excluded from the cross-shard-count identity
//!   check, since the partition itself changes.
//! * **wall** — span timings fed from an *injected* clock
//!   ([`Clock`]). Library code never reads a wall clock (lint rule D002);
//!   callers that may (the `repro` binary, the benchmark) pass one in. Wall
//!   quantities are explicitly nondeterministic and live in their own
//!   section so the logical sections stay comparable.
//!
//! The registry is handle-based: instruments are created (or looked up)
//! by name once, then updated through copy-able ids on the hot path —
//! an array index and an integer add, cheap enough to leave on
//! permanently (the benchmark's `sybil-serve.obs_overhead_pct` on
//! `checks_sim` measures a serve job with metrics on against one with
//! them off, paired: a median of 0.41%, q1 −5.5, q3 +10.8).
//!
//! Merging follows the serve engine's barrier design: each worker
//! accumulates privately, and the coordinator absorbs per-worker
//! snapshots *in shard-id order* at the epoch barrier, so the merged
//! totals are a deterministic fold regardless of which worker finished
//! first.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use serde::Serialize;
use std::collections::BTreeMap;

/// An injected monotonic-seconds source. Library code takes `Clock` where
/// it wants wall timings; only clock-exempt binaries construct the real
/// one (e.g. `let epoch = Instant::now(); let clock = move ||
/// epoch.elapsed().as_secs_f64();`).
pub type Clock<'a> = &'a (dyn Fn() -> f64 + Sync);

/// Handle to a monotonically increasing counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a high-water-mark gauge (`observe` keeps the max).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a fixed-bucket histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// Handle to a wall-clock span accumulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Which section of the snapshot a logical instrument lands in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Section {
    Logical,
    Sharded,
}

/// One logical metric's exported value.
///
/// `Count` is an additive total, `Max` a high-water mark, `Hist` a
/// `(total_observations, bucket_counts)` pair. The merge rules in
/// [`Snapshot::absorb`] follow directly from the variant.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum MetricValue {
    /// Additive event count.
    Count(u64),
    /// High-water mark; merges by `max`.
    Max(u64),
    /// Fixed-bucket histogram: total observations + per-bucket counts.
    Hist(u64, Vec<u64>),
}

/// One wall-clock span's exported value (seconds from the injected
/// clock). Nondeterministic by nature; never part of identity checks.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SpanValue {
    /// How many times the span was recorded.
    pub count: u64,
    /// Sum of recorded durations, in seconds.
    pub total_s: f64,
    /// Longest single recording, in seconds.
    pub max_s: f64,
}

impl SpanValue {
    fn zero() -> Self {
        SpanValue {
            count: 0,
            total_s: 0.0,
            max_s: 0.0,
        }
    }

    fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.total_s += seconds;
        if seconds > self.max_s {
            self.max_s = seconds;
        }
    }
}

struct Counter {
    name: String,
    section: Section,
    value: u64,
}

struct Gauge {
    name: String,
    section: Section,
    value: u64,
}

struct Histogram {
    name: String,
    /// Width of each bucket; observation `v` lands in bucket
    /// `min(v / width, buckets - 1)` (the last bucket is open-ended).
    width: u64,
    total: u64,
    buckets: Vec<u64>,
}

struct Span {
    name: String,
    value: SpanValue,
}

/// The metric registry: create instruments by name, update them through
/// handles, export a [`Snapshot`].
///
/// Names are unique per registry across *all* instrument kinds — asking
/// for a counter named like an existing gauge is a caller bug and
/// panics, because silently exporting two metrics under one key would
/// corrupt the snapshot.
#[derive(Default)]
pub struct Registry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    hists: Vec<Histogram>,
    spans: Vec<Span>,
    /// name -> (kind tag, index). Kind tags: 0 counter, 1 gauge, 2 hist,
    /// 3 span.
    index: BTreeMap<String, (u8, usize)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn claim(&mut self, name: &str, kind: u8) -> Option<usize> {
        match self.index.get(name) {
            Some(&(k, i)) => {
                assert!(
                    k == kind,
                    "metric name {name:?} already registered as a different kind"
                );
                Some(i)
            }
            None => None,
        }
    }

    /// Get or create the counter `name` in the logical section.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.counter_in(name, Section::Logical)
    }

    fn counter_in(&mut self, name: &str, section: Section) -> CounterId {
        if let Some(i) = self.claim(name, 0) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push(Counter {
            name: name.to_string(),
            section,
            value: 0,
        });
        self.index.insert(name.to_string(), (0, i));
        CounterId(i)
    }

    /// Get or create the high-water gauge `name` in the logical section.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.gauge_in(name, Section::Logical)
    }

    fn gauge_in(&mut self, name: &str, section: Section) -> GaugeId {
        if let Some(i) = self.claim(name, 1) {
            return GaugeId(i);
        }
        let i = self.gauges.len();
        self.gauges.push(Gauge {
            name: name.to_string(),
            section,
            value: 0,
        });
        self.index.insert(name.to_string(), (1, i));
        GaugeId(i)
    }

    /// Get or create a logical histogram with `buckets` buckets of
    /// `width` each (last bucket open-ended). `width` and `buckets` must
    /// be nonzero.
    pub fn histogram(&mut self, name: &str, width: u64, buckets: usize) -> HistId {
        assert!(width > 0 && buckets > 0, "histogram shape must be nonzero");
        if let Some(i) = self.claim(name, 2) {
            assert!(
                self.hists[i].width == width && self.hists[i].buckets.len() == buckets,
                "histogram {name:?} re-registered with a different shape"
            );
            return HistId(i);
        }
        let i = self.hists.len();
        self.hists.push(Histogram {
            name: name.to_string(),
            width,
            total: 0,
            buckets: vec![0; buckets],
        });
        self.index.insert(name.to_string(), (2, i));
        HistId(i)
    }

    /// Get or create the wall span `name`.
    pub fn span(&mut self, name: &str) -> SpanId {
        if let Some(i) = self.claim(name, 3) {
            return SpanId(i);
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            value: SpanValue::zero(),
        });
        self.index.insert(name.to_string(), (3, i));
        SpanId(i)
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Raise a gauge's high-water mark to at least `v`.
    #[inline]
    pub fn observe_max(&mut self, id: GaugeId, v: u64) {
        let g = &mut self.gauges[id.0];
        if v > g.value {
            g.value = v;
        }
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        let h = &mut self.hists[id.0];
        let idx = ((v / h.width) as usize).min(h.buckets.len() - 1);
        h.total += 1;
        h.buckets[idx] += 1;
    }

    /// Record a span duration in seconds (caller computes it from an
    /// injected [`Clock`]).
    #[inline]
    pub fn record_span(&mut self, id: SpanId, seconds: f64) {
        self.spans[id.0].value.record(seconds);
    }

    /// Fold an already-aggregated set of recordings into a span. Hot
    /// loops that accumulate privately (plain fields, no registry lookup)
    /// import their totals through this at the end.
    pub fn record_span_agg(&mut self, id: SpanId, count: u64, total_s: f64, max_s: f64) {
        let v = &mut self.spans[id.0].value;
        v.count += count;
        v.total_s += total_s;
        if max_s > v.max_s {
            v.max_s = max_s;
        }
    }

    /// Add `n` to the *sharded-section* counter `shard{shard}.{name}`.
    /// Sharded metrics are deterministic for a fixed shard count but are
    /// excluded from cross-shard-count identity checks.
    pub fn add_sharded(&mut self, shard: usize, name: &str, n: u64) {
        let id = self.counter_in(&format!("shard{shard}.{name}"), Section::Sharded);
        self.add(id, n);
    }

    /// Raise the *sharded-section* gauge `shard{shard}.{name}` to at
    /// least `v`.
    pub fn max_sharded(&mut self, shard: usize, name: &str, v: u64) {
        let id = self.gauge_in(&format!("shard{shard}.{name}"), Section::Sharded);
        self.observe_max(id, v);
    }

    /// Export the registry's current state as an ordered snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for c in &self.counters {
            let dst = match c.section {
                Section::Logical => &mut snap.logical,
                Section::Sharded => &mut snap.sharded,
            };
            dst.insert(c.name.clone(), MetricValue::Count(c.value));
        }
        for g in &self.gauges {
            let dst = match g.section {
                Section::Logical => &mut snap.logical,
                Section::Sharded => &mut snap.sharded,
            };
            dst.insert(g.name.clone(), MetricValue::Max(g.value));
        }
        for h in &self.hists {
            snap.logical
                .insert(h.name.clone(), MetricValue::Hist(h.total, h.buckets.clone()));
        }
        for s in &self.spans {
            snap.wall.insert(s.name.clone(), s.value.clone());
        }
        snap
    }
}

/// A point-in-time export of a [`Registry`]: three `BTreeMap`s so the
/// serialized JSON is key-ordered and byte-stable.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Snapshot {
    /// Scheduling-independent quantities; the determinism contract covers
    /// this section byte-for-byte.
    pub logical: BTreeMap<String, MetricValue>,
    /// Per-shard quantities (`shard{N}.{name}`); deterministic only for a
    /// fixed shard count.
    pub sharded: BTreeMap<String, MetricValue>,
    /// Injected-clock timings; explicitly nondeterministic.
    pub wall: BTreeMap<String, SpanValue>,
}

impl Snapshot {
    /// A copy with every key rewritten to `{prefix}.{key}`, so snapshots
    /// from different subsystems compose into one namespace.
    pub fn prefixed(&self, prefix: &str) -> Snapshot {
        fn rekey<V: Clone>(src: &BTreeMap<String, V>, prefix: &str) -> BTreeMap<String, V> {
            src.iter()
                .map(|(k, v)| (format!("{prefix}.{k}"), v.clone()))
                .collect()
        }
        Snapshot {
            logical: rekey(&self.logical, prefix),
            sharded: rekey(&self.sharded, prefix),
            wall: rekey(&self.wall, prefix),
        }
    }

    /// Merge `other` into `self`: `Count`s add, `Max`es max, `Hist`s add
    /// bucketwise, spans combine. Mixing kinds (or histogram shapes)
    /// under one key is a caller bug and panics. Because every merge rule
    /// is commutative and associative *and* callers absorb in a fixed
    /// order (shard-id order at epoch barriers), the merged snapshot is
    /// deterministic.
    pub fn absorb(&mut self, other: &Snapshot) {
        fn merge_metrics(dst: &mut BTreeMap<String, MetricValue>, src: &BTreeMap<String, MetricValue>) {
            for (k, v) in src {
                match dst.entry(k.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(v.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        match (e.get_mut(), v) {
                            (MetricValue::Count(a), MetricValue::Count(b)) => *a += b,
                            (MetricValue::Max(a), MetricValue::Max(b)) => *a = (*a).max(*b),
                            (MetricValue::Hist(at, ab), MetricValue::Hist(bt, bb)) => {
                                assert!(
                                    ab.len() == bb.len(),
                                    "histogram {k:?} merged across different shapes"
                                );
                                *at += bt;
                                for (x, y) in ab.iter_mut().zip(bb) {
                                    *x += y;
                                }
                            }
                            _ => panic!("metric {k:?} merged across different kinds"),
                        }
                    }
                }
            }
        }
        merge_metrics(&mut self.logical, &other.logical);
        merge_metrics(&mut self.sharded, &other.sharded);
        for (k, v) in &other.wall {
            let slot = self.wall.entry(k.clone()).or_insert_with(SpanValue::zero);
            slot.count += v.count;
            slot.total_s += v.total_s;
            if v.max_s > slot.max_s {
                slot.max_s = v.max_s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut reg = Registry::new();
        let c = reg.counter("events");
        let g = reg.gauge("queue_hwm");
        reg.add(c, 3);
        reg.incr(c);
        reg.observe_max(g, 7);
        reg.observe_max(g, 5);
        let snap = reg.snapshot();
        assert_eq!(snap.logical["events"], MetricValue::Count(4));
        assert_eq!(snap.logical["queue_hwm"], MetricValue::Max(7));
        assert!(snap.sharded.is_empty());
        assert!(snap.wall.is_empty());
    }

    #[test]
    fn handles_are_stable_across_reregistration() {
        let mut reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        reg.incr(a);
        reg.incr(b);
        assert_eq!(reg.snapshot().logical["x"], MetricValue::Count(2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn name_reuse_across_kinds_panics() {
        let mut reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_including_open_tail() {
        let mut reg = Registry::new();
        let h = reg.histogram("lat", 10, 3); // [0,10) [10,20) [20,∞)
        for v in [0, 9, 10, 19, 20, 500] {
            reg.observe(h, v);
        }
        assert_eq!(
            reg.snapshot().logical["lat"],
            MetricValue::Hist(6, vec![2, 2, 2])
        );
    }

    #[test]
    fn sharded_metrics_land_in_their_own_section() {
        let mut reg = Registry::new();
        reg.add_sharded(0, "dets", 2);
        reg.add_sharded(1, "dets", 5);
        reg.max_sharded(1, "hwm", 9);
        let snap = reg.snapshot();
        assert!(snap.logical.is_empty());
        assert_eq!(snap.sharded["shard0.dets"], MetricValue::Count(2));
        assert_eq!(snap.sharded["shard1.dets"], MetricValue::Count(5));
        assert_eq!(snap.sharded["shard1.hwm"], MetricValue::Max(9));
    }

    #[test]
    fn spans_record_injected_seconds() {
        let mut reg = Registry::new();
        let s = reg.span("epoch");
        reg.record_span(s, 0.5);
        reg.record_span(s, 1.5);
        let snap = reg.snapshot();
        let v = &snap.wall["epoch"];
        assert_eq!(v.count, 2);
        assert!((v.total_s - 2.0).abs() < 1e-12);
        assert!((v.max_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn prefixed_rewrites_every_section() {
        let mut reg = Registry::new();
        let c = reg.counter("a");
        reg.incr(c);
        reg.add_sharded(0, "b", 1);
        let s = reg.span("c");
        reg.record_span(s, 0.1);
        let snap = reg.snapshot().prefixed("sim");
        assert!(snap.logical.contains_key("sim.a"));
        assert!(snap.sharded.contains_key("sim.shard0.b"));
        assert!(snap.wall.contains_key("sim.c"));
    }

    #[test]
    fn absorb_merges_by_kind() {
        let mut a = Registry::new();
        let c = a.counter("n");
        a.add(c, 2);
        let g = a.gauge("m");
        a.observe_max(g, 3);
        let h = a.histogram("h", 1, 2);
        a.observe(h, 0);

        let mut b = Registry::new();
        let c = b.counter("n");
        b.add(c, 5);
        let g = b.gauge("m");
        b.observe_max(g, 1);
        let h = b.histogram("h", 1, 2);
        b.observe(h, 9);

        let mut snap = a.snapshot();
        snap.absorb(&b.snapshot());
        assert_eq!(snap.logical["n"], MetricValue::Count(7));
        assert_eq!(snap.logical["m"], MetricValue::Max(3));
        assert_eq!(snap.logical["h"], MetricValue::Hist(2, vec![1, 1]));
    }

    #[test]
    fn serialized_snapshot_is_key_ordered_and_stable() {
        let build = || {
            let mut reg = Registry::new();
            // Register in an order that differs from lexicographic.
            let z = reg.counter("zeta");
            let a = reg.counter("alpha");
            reg.add(z, 1);
            reg.add(a, 2);
            serde_json::to_string(&reg.snapshot()).unwrap()
        };
        let one = build();
        assert_eq!(one, build());
        let alpha = one.find("alpha").unwrap();
        let zeta = one.find("zeta").unwrap();
        assert!(alpha < zeta, "BTreeMap export must be key-ordered");
    }
}
