//! The one copy of each helper the modules of this binary share,
//! including its global allocator: the system allocator, recording the
//! largest single request each thread makes ([`largest_alloc_during`]).
//! `garbage` bounds every decode's largest allocation by its input and
//! `save_stream` a checkpoint save's by one writer chunk. The record is
//! per thread, so the other modules' tests, running beside them on
//! other threads, do not disturb it.

use osn_sim::{simulate, SimConfig, SimOutput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::OnceLock;

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

/// Run `f`, returning its value and the largest single allocation it
/// requested on this thread.
pub fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let v = f();
    (v, LARGEST.with(Cell::get))
}

/// An empty scratch directory for test `tag` of module `module` (pass
/// `module_path!()`), unique to this process.
pub fn tmpdir(module: &str, tag: &str) -> PathBuf {
    let module = module.replace("::", "-");
    let dir =
        std::env::temp_dir().join(format!("sybil-store-{module}-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tiny/seed-11 simulation, built once per binary.
pub fn shared_sim() -> &'static SimOutput {
    static SIM: OnceLock<SimOutput> = OnceLock::new();
    SIM.get_or_init(|| simulate(SimConfig::tiny(11)))
}
