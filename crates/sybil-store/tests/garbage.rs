//! Garbage in, typed error out: both on-disk decoders (`SYBS`
//! checkpoints, the `SYBJ` journal) treat bytes from disk as outside
//! input. Whatever a crash, bit rot, or a hostile file puts there, the
//! answer is `Ok` or a typed [`StoreError`] — never a panic, never an
//! abort, and never an allocation sized by a count the input could not
//! back.
//!
//! The allocation half is checked for real: this test binary installs a
//! recording allocator, and every decode below runs inside
//! [`largest_alloc_during`]. A count from disk may size an allocation
//! only as far as the bytes present could fill it, so the largest single
//! request is bounded by a small multiple of the input length
//! ([`ALLOC_FACTOR`]: a decoded table's slot is 40 bytes for an account's
//! 26 smallest, and a pool block holds up to twice the entries written,
//! in a `Vec` grown by doubling) plus fixed-size index nodes
//! ([`ALLOC_SLACK`]). Checkpoints decode straight into account tables,
//! so the strategies below run against that decoder. They start from the
//! current (`SYBS` v3) golden and from the v2 golden, whose timed edges
//! the decoder still reads.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::path::PathBuf;
use sybil_core::digest::Digest64;
use sybil_store::format::decode_checkpoint;
use sybil_store::{journal, Journal, StoreError, StorePlane};

const CHECKPOINT: &[u8] = include_bytes!("golden/checkpoint_v3.sybs");
const CHECKPOINT_V2: &[u8] = include_bytes!("golden/checkpoint_v2.sybs");
const JOURNAL: &[u8] = include_bytes!("golden/journal_v2.sybj");

const ALLOC_FACTOR: usize = 4;
const ALLOC_SLACK: usize = 4096;

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
fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let v = f();
    (v, LARGEST.with(Cell::get))
}

fn alloc_budget(input_len: usize) -> usize {
    ALLOC_FACTOR * input_len + ALLOC_SLACK
}

/// Decode `bytes` as a checkpoint: `Ok` or typed, inside the budget.
fn check_checkpoint(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (res, largest) = largest_alloc_during(|| decode_checkpoint(bytes).map(|_| ()));
    prop_assert!(
        largest <= alloc_budget(bytes.len()),
        "checkpoint decode of {} bytes allocated {largest} at once ({res:?})",
        bytes.len()
    );
    Ok(())
}

/// Open `bytes` as a journal and read back every epoch the golden
/// journal holds: `Ok` or typed at each step, inside the budget.
fn check_journal(bytes: &[u8]) -> Result<(), TestCaseError> {
    let store = Cursor::new(bytes.to_vec());
    let (res, largest) = largest_alloc_during(|| -> Result<(), StoreError> {
        let mut j = Journal::open(store)?;
        for epoch in 0..4 {
            j.read_epoch(epoch)?;
        }
        Ok(())
    });
    prop_assert!(
        largest <= alloc_budget(bytes.len()),
        "journal open of {} bytes allocated {largest} at once ({res:?})",
        bytes.len()
    );
    Ok(())
}

/// Recompute a checkpoint's trailer digest over whatever its sections
/// now hold, so a mutation gets past the digest check and reaches the
/// section decoders. The trailer is not cryptographic — anyone who can
/// write the file can do this. Returns `false`, leaving `bytes` alone,
/// when the mutation broke the section framing itself (the outer
/// decoder's problem, which the unsealed bytes still exercise).
fn reseal(bytes: &mut [u8]) -> bool {
    fn word(b: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    }
    fn trailer(bytes: &[u8]) -> Option<(usize, u64)> {
        let n_sections = word(bytes.get(8..12)?) as usize;
        let mut d = Digest64::new();
        d.write_u32(word(bytes.get(4..8)?) as u32);
        d.write_usize(n_sections);
        let mut pos = 12usize;
        for _ in 0..n_sections {
            let len = word(bytes.get(pos + 1..pos + 5)?) as usize;
            d.write_u32(u32::from(bytes[pos]));
            d.write_usize(len);
            for chunk in bytes.get(pos + 5..pos + 5 + len)?.chunks(8) {
                d.write_u64(word(chunk));
            }
            pos += 5 + len;
        }
        bytes.get(pos..pos + 8).map(|_| (pos, d.finish()))
    }
    let Some((pos, digest)) = trailer(bytes) else {
        return false;
    };
    bytes[pos..pos + 8].copy_from_slice(&digest.to_le_bytes());
    true
}

/// Offsets just past each whole frame of the golden journal (the header
/// counts as the first).
fn journal_frame_ends() -> Vec<u64> {
    let mut ends = vec![8u64];
    let mut pos = 8usize;
    while pos < JOURNAL.len() {
        let len = u32::from_le_bytes(JOURNAL[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
        ends.push(pos as u64);
    }
    ends
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sybil-garbage-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The regression: header + one commit frame claiming `u32::MAX`
/// digests (8 + 14 bytes, 26 with the frame's length prefix). The parent sized a `Vec` by that count and aborted the
/// process (a 32 GiB request) inside `Journal::open` — i.e. inside every
/// `StorePlane::open`, i.e. every warm restart.
#[test]
fn commit_frame_claiming_four_billion_digests_is_a_typed_error() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SYBJ");
    bytes.extend_from_slice(&journal::VERSION.to_le_bytes());
    bytes.extend_from_slice(&14u32.to_le_bytes()); // frame length
    bytes.push(2); // commit
    bytes.extend_from_slice(&0u64.to_le_bytes()); // epoch
    bytes.push(1); // has digests
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // n

    let dir = tmpdir("hostile-commit");
    std::fs::write(dir.join("journal.sybj"), &bytes).unwrap();
    let (res, largest) = largest_alloc_during(|| StorePlane::open(&dir).map(|_| ()));
    assert!(
        matches!(res, Err(StoreError::TruncatedFrame { .. })),
        "{res:?}"
    );
    assert!(largest <= alloc_budget(bytes.len()), "allocated {largest}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same trust, everywhere else it sat: every count and length the
/// two formats carry, set to `u32::MAX` in an otherwise valid file.
#[test]
fn every_count_set_to_u32_max_is_a_typed_error() {
    // Journal: a frame length, a begin frame's event and feedback
    // counts (frame 1 starts at byte 8: len, tag, epoch, n_events,
    // n_feedback), and the run-end digest count (the last frame's n
    // sits before its two digests).
    let end_count = JOURNAL.len() - 2 * 8 - 4;
    for at in [8, 8 + 4 + 1 + 8, 8 + 4 + 1 + 8 + 4, end_count] {
        let mut bytes = JOURNAL.to_vec();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let store = Cursor::new(bytes.clone());
        let (res, largest) =
            largest_alloc_during(|| Journal::open(store).and_then(|mut j| j.read_epoch(0)));
        assert!(res.is_err(), "count at byte {at} was trusted");
        assert!(
            largest <= alloc_budget(bytes.len()),
            "count at byte {at}: allocated {largest}"
        );
    }
    // Checkpoint: the counts are not at fixed offsets, so patch every
    // u32-sized window of the body in turn, resealed so the digest check
    // passes and the section decoders see it.
    for golden in [CHECKPOINT, CHECKPOINT_V2] {
        let mut reached_sections = 0;
        for at in 12..golden.len() - 8 - 4 {
            let mut bytes = golden.to_vec();
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            reached_sections += usize::from(reseal(&mut bytes));
            check_checkpoint(&bytes).unwrap();
        }
        assert!(reached_sections > golden.len() / 2);
    }
}

/// Truncation at every prefix of both files.
#[test]
fn every_prefix_is_ok_or_typed() {
    for golden in [CHECKPOINT, CHECKPOINT_V2] {
        for cut in 0..=golden.len() {
            check_checkpoint(&golden[..cut]).unwrap();
        }
        assert!(decode_checkpoint(golden).is_ok());
    }
    for cut in 0..=JOURNAL.len() {
        check_journal(&JOURNAL[..cut]).unwrap();
    }
    assert!(Journal::open(Cursor::new(JOURNAL.to_vec())).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte flips (raw, and resealed past the trailer digest) and random
    /// tails on a valid checkpoint, v3 or v2 (flips land in the body's
    /// first v3-file-length bytes either way).
    #[test]
    fn mutated_checkpoints_are_ok_or_typed(
        flips in prop::collection::vec((12usize..CHECKPOINT.len() - 8, any::<u8>()), 1..4),
        tail in prop::collection::vec(any::<u8>(), 0..24),
        sealed in any::<bool>(),
        v2 in any::<bool>(),
    ) {
        let mut bytes = if v2 { CHECKPOINT_V2 } else { CHECKPOINT }.to_vec();
        for &(at, b) in &flips {
            bytes[at] = b;
        }
        if sealed {
            reseal(&mut bytes);
        }
        bytes.extend_from_slice(&tail);
        check_checkpoint(&bytes)?;
    }

    /// Byte flips and random tails on a valid journal.
    #[test]
    fn mutated_journals_are_ok_or_typed(
        flips in prop::collection::vec((0usize..JOURNAL.len(), any::<u8>()), 1..4),
        tail in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut bytes = JOURNAL.to_vec();
        for &(at, b) in &flips {
            bytes[at] = b;
        }
        bytes.extend_from_slice(&tail);
        check_journal(&bytes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A journal file torn at any byte reopens — through the store's own
    /// open path — to its last whole frame, and the file is cut to match.
    #[test]
    fn torn_journal_files_reopen_to_the_last_whole_frame(cut in 0usize..JOURNAL.len()) {
        let dir = tmpdir(&format!("torn-{cut}"));
        let path = dir.join("journal.sybj");
        std::fs::write(&path, &JOURNAL[..cut]).unwrap();
        let plane = StorePlane::open(&dir);
        let plane = plane.map_err(|e| TestCaseError::fail(format!("torn at {cut}: {e}")))?;
        let want = journal_frame_ends()
            .into_iter()
            .filter(|&end| end <= cut as u64)
            .max()
            .unwrap_or(8);
        prop_assert_eq!(plane.journal().len_bytes(), want);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
