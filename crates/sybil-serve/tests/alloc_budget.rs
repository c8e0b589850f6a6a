//! The per-event path stays off the allocator: a 2-shard, 2-thread run
//! makes at most one `alloc`/`realloc` call per ten stream events, and
//! the sequential `replay` oracle stays within its own budget on the
//! same input.
//!
//! Per-account state lives in `AccountTable`'s flat pools, so what is
//! left is per run (shard and mirror construction), per epoch (staging
//! queues, worker threads, the batch buffers) and per pool doubling. Two
//! heap containers per account — what the table replaced — cost 0.37
//! calls per event on this stream shape, and lint rule S113 cannot see
//! that regression coming: it does not know `VecDeque::push_back`
//! allocates. This binary installs a counting allocator to check it for
//! real.

use osn_graph::par;
use osn_sim::scale::{generate, ScaleConfig};
use osn_sim::stream::EventStream;
use osn_sim::SimOutput;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use sybil_core::realtime::{replay, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeSession};

/// `alloc` + `alloc_zeroed` + `realloc` calls, all threads.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting requests. `Relaxed`: the count is a
/// statistic read after the run's threads are joined.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; bumping a static atomic
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held for the whole of each test: the counter is process-wide, so a
/// test counts only while no other one runs.
static ALONE: Mutex<()> = Mutex::new(());

/// The input both budgets are measured on: a 20k-account scale stream,
/// its event count, and the benchmark's scan detector with its frequency
/// cut lowered from 4 to 2 so that a stream this small still flags
/// accounts (29 of them).
fn input() -> (SimOutput, u64, RealtimeConfig) {
    let out = generate(&ScaleConfig::at(20_000, 9));
    let events = EventStream::new(&out.log).count() as u64;
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.4,
            min_freq: 2.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    (out, events, detect)
}

#[test]
fn a_two_shard_run_allocates_under_a_tenth_of_a_call_per_event() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(par::THREADS_ENV, "2");
    let (out, events, detect) = input();
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::for_detect(detect)
    };
    let before = CALLS.load(Ordering::Relaxed);
    let served = ServeSession::new(cfg).run(&out).expect("plain run").report;
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(
        calls <= events / 10,
        "{calls} allocator calls for {events} events ({:.3} per event; budget 0.1)",
        calls as f64 / events as f64
    );
    // The run it counted was the real one.
    assert!(!served.detections.is_empty());
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&replay(&out, &detect)).unwrap()
    );
}

/// The sequential oracle on the same input: at most one call per 2,500
/// events. It makes 43 calls for 149,363 events — the merged stream's
/// sort, the table, its pools doubling, the link counter, the report —
/// so the budget of 59 leaves a third in hand; a container per account,
/// or a call per event, would cost thousands.
#[test]
fn the_replay_oracle_allocates_under_one_call_per_2500_events() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (out, events, detect) = input();
    let before = CALLS.load(Ordering::Relaxed);
    let report = replay(&out, &detect);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(
        calls <= events / 2500,
        "{calls} allocator calls for {events} events (budget {})",
        events / 2500
    );
    assert!(!report.detections.is_empty());
}
