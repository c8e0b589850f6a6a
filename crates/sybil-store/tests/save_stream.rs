//! A checkpoint is streamed into its file: `SnapshotStore::save` builds
//! no buffer proportional to the checkpoint, only the writer's one
//! chunk.
//!
//! This binary installs a recording allocator and saves the epoch-64
//! checkpoint of an uninterrupted 20k-account run (the stream
//! `alloc_budget.rs` serves; the file is ≈1.4 MB). The largest single
//! allocation during the save must stay under [`SAVE_ALLOC_BOUND`], where
//! encoding the whole file first would allocate the whole file. The
//! saved bytes must be exactly what `encode_checkpoint` returns and must
//! decode back to the checkpoint, so chunk boundaries fall across
//! records, words and sections of a real file here, and the trailer
//! folded chunk by chunk is checked against the decoder's fold over
//! whole sections.

use osn_sim::scale::{generate, ScaleConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sybil_core::realtime::RealtimeConfig;
use sybil_core::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeSession};
use sybil_store::format::{decode_checkpoint, encode_checkpoint};
use sybil_store::{SnapshotStore, StorePlane};

/// The largest single allocation a save may make.
const SAVE_ALLOC_BOUND: usize = 256 * 1024;

thread_local! {
    /// Largest single allocation this thread requested since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each request's size per thread.
struct Recording;

fn record(size: usize) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; recording a size touches
// only a `const`-initialised, destructor-free thread-local `Cell`, so it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

#[test]
fn saving_a_checkpoint_allocates_no_buffer_the_size_of_the_file() {
    let out = generate(&ScaleConfig::at(20_000, 9));
    // `alloc_budget.rs`'s detector: the benchmark's scan detector with
    // its frequency cut lowered so a stream this small flags accounts.
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
    let dir = std::env::temp_dir().join(format!("sybil-store-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut plane = StorePlane::open(dir.join("run")).expect("store opens");
    ServeSession::new(cfg)
        .store(&mut plane)
        .run(&out)
        .expect("the run completes");
    let store = plane.store();
    assert!(store.checkpoints().unwrap().contains(&64));
    let cp = store.load(64).expect("the epoch-64 checkpoint loads");
    let encoded = encode_checkpoint(&cp);
    assert!(
        encoded.len() > 4 * SAVE_ALLOC_BOUND,
        "a {}-byte checkpoint is too small to tell a streamed save from a buffered one",
        encoded.len()
    );

    let target = SnapshotStore::open(dir.join("copy")).expect("store opens");
    LARGEST.with(|l| l.set(0));
    let path = target.save(&cp).expect("save succeeds");
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest < SAVE_ALLOC_BOUND,
        "saving a {}-byte checkpoint allocated {largest} bytes at once (bound {SAVE_ALLOC_BOUND})",
        encoded.len()
    );

    let saved = std::fs::read(&path).unwrap();
    assert!(saved == encoded, "the saved file is the encoder's bytes");
    let decoded = decode_checkpoint(&saved).expect("the saved file decodes");
    assert_eq!(decoded, cp);
    std::fs::remove_dir_all(&dir).unwrap();
}
