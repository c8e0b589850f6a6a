//! The durable path stays off the allocator too: a 2-shard, 2-thread run
//! served through a `StorePlane` — journal appends, digest commits at
//! every epoch, a checkpoint, a kill at three quarters of the stream and
//! a warm restart that loads the checkpoint and replays the journal tail
//! — makes at most one `alloc`/`realloc` call per ten stream events.
//!
//! A checkpoint is the shard tables themselves, lent to the encoder and
//! decoded straight back into tables, and a digest epoch re-hashes the
//! accounts it touched in place. Materialising one record per account
//! (two heap containers each) on the way out and again on the way back
//! in — what the tables replaced — cost 0.75 calls per event on this
//! stream. This binary installs a counting allocator to check it.

use osn_graph::par;
use osn_sim::scale::{generate, ScaleConfig};
use osn_sim::stream::{EpochBatches, EventStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use sybil_core::realtime::{replay, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_serve::fault::FaultKind;
use sybil_serve::{ServeConfig, ServeError, ServeSession};
use sybil_store::StorePlane;

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

/// The only test in this binary, so nothing else allocates while it
/// counts or reads the thread-count variable it sets.
#[test]
fn a_killed_and_restarted_durable_run_allocates_under_a_tenth_of_a_call_per_event() {
    std::env::set_var(par::THREADS_ENV, "2");
    let out = generate(&ScaleConfig::at(20_000, 9));
    let events = EventStream::new(&out.log).count() as u64;
    // The benchmark's scan detector, its frequency cut lowered from 4 to
    // 2 so that a stream this small still flags accounts.
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.4,
            min_freq: 2.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::for_detect(detect)
    };
    let mut batches = EpochBatches::new(&out.log, cfg.epoch_hours * 3600);
    let epochs = std::iter::from_fn(|| batches.next_epoch().map(|_| ())).count() as u64;
    let dir = std::env::temp_dir().join(format!("sybil-store-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = CALLS.load(Ordering::Relaxed);
    let mut doomed = StorePlane::open(&dir)
        .expect("store opens")
        .kill_at_epoch(epochs * 3 / 4);
    let killed = ServeSession::new(cfg).store(&mut doomed).run(&out);
    drop(doomed);
    let mut revived = StorePlane::open(&dir).expect("store reopens");
    let served = ServeSession::new(cfg).store(&mut revived).run(&out);
    let calls = CALLS.load(Ordering::Relaxed) - before;

    assert!(
        matches!(killed, Err(ServeError::Chaos(c)) if c.fault_kind == FaultKind::Crash),
        "the first leg dies at its kill epoch"
    );
    let served = served.expect("warm restart completes").report;
    // The run it counted was the real one: a checkpoint was loaded, a
    // journal tail replayed, and the report is the sequential replay's.
    assert!(revived.resumed_from().is_some() && revived.tail_replayed() > 0);
    assert!(!served.detections.is_empty());
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&replay(&out, &detect)).unwrap()
    );
    assert!(
        calls <= events / 10,
        "{calls} allocator calls for {events} events ({:.3} per event; budget 0.1)",
        calls as f64 / events as f64
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
