//! Deterministic parallel map over index ranges.
//!
//! The analytics sweeps (clustering over every node, feature extraction for
//! every account, per-suspect defense verdicts, CV folds) are all shaped
//! like `(0..len).map(f).collect()` with a pure `f`. This module runs that
//! shape across threads while keeping the output **bit-identical** to the
//! serial loop: the index range is split into contiguous chunks, each
//! worker computes its chunk in index order, and the workers are joined in
//! spawn order. The last chunk runs on the calling thread, which would
//! otherwise sleep in `join`: one spawn fewer per call, and a caller that
//! maps every few milliseconds (the serving engine's epoch scan) stays on
//! a warm core. No reduction reassociation, no work stealing — so
//! floating-point results cannot differ from the serial path.
//!
//! A handful of tasks of very uneven cost (the §3.1 defense evaluations)
//! fits contiguous chunks badly: one long task holds back the short ones
//! chunked behind it. [`map_tasks`] lets each worker claim the next
//! unclaimed index instead, and places every result by its index, so its
//! output is the serial loop's too.
//!
//! Two unrelated pieces of work that could overlap run under [`join`]: one
//! on a scoped worker, one on the caller, results returned as the pair.
//! The serving engine pulls the next epoch beside its index pass;
//! [`percolation_reach`](crate::cascade::percolation_reach) tallies one
//! sample while the caller draws the next from its RNG; the mixing
//! experiment computes the wild graph's spectral gap beside the rest.
//!
//! Thread count comes from the `RENREN_THREADS` environment variable when
//! set (any value ≥ 1), otherwise from `std::thread::available_parallelism`.
//! With one thread (or one-element inputs) everything runs inline on the
//! calling thread with zero spawn overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "RENREN_THREADS";

/// The number of worker threads parallel maps will use: the
/// `RENREN_THREADS` override when set and ≥ 1, else available parallelism.
pub fn num_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(0..len).map(f).collect()`, computed on [`num_threads`] threads with
/// output order (and every output bit) identical to the serial loop.
pub fn map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with(len, || (), move |(), i| f(i))
}

/// Like [`map_indexed`], with a per-worker scratch state built by `init`
/// (e.g. a [`NeighborScratch`](crate::snapshot::NeighborScratch) or an
/// RNG-free reusable buffer). `init` runs once per worker chunk; `f` must
/// produce output independent of the scratch's history for determinism to
/// hold — scratch is for *allocations*, not for values.
pub fn map_indexed_with<S, T, I, F>(len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = num_threads().min(len);
    if threads <= 1 {
        let mut scratch = init();
        return (0..len).map(|i| f(&mut scratch, i)).collect();
    }

    let chunk = len.div_ceil(threads);
    let run = |start: usize| -> Vec<T> {
        let mut scratch = init();
        (start..(start + chunk).min(len))
            .map(|i| f(&mut scratch, i))
            .collect()
    };
    let last = (len - 1) / chunk * chunk;
    thread::scope(|scope| {
        let run = &run;
        let workers: Vec<_> = (0..last)
            .step_by(chunk)
            .map(|start| scope.spawn(move || run(start)))
            .collect();
        let tail = run(last);
        join_in_order(workers, tail, len)
    })
}

/// Join `workers` in spawn order and concatenate their chunks, then
/// `tail` — the last chunk, which the calling thread computed itself —
/// so output position is fixed by construction. A worker's panic is
/// re-raised here with its own payload.
fn join_in_order<T>(
    workers: Vec<thread::ScopedJoinHandle<'_, Vec<T>>>,
    tail: Vec<T>,
    len: usize,
) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    for worker in workers {
        match worker.join() {
            Ok(vals) => out.extend(vals),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out.extend(tail);
    out
}

/// `(0..len).map(f).collect()` for tasks of uneven cost. Every
/// worker (the calling thread among them) claims the next unclaimed index
/// from a shared counter until none is left, so list the longest tasks
/// first. Each result is placed by its index, so the output equals the
/// serial map whatever the schedule. With one thread (or one task)
/// everything runs inline; a worker's panic is re-raised with its payload.
pub fn map_tasks<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads().min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }

    // `Relaxed` suffices: the counter publishes nothing but the index
    // itself, and the results travel back through `join`.
    let next = AtomicUsize::new(0);
    let claim = || -> Vec<(usize, T)> {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = thread::scope(|scope| {
        let claim = &claim;
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mine = claim();
        join_in_order(workers, mine, len)
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// `(a(), b())`, with `a` on a scoped worker and `b` on the calling
/// thread. The two share nothing the borrow checker lets them race on,
/// so the pair is the serial pair whatever the schedule. Keep an RNG the
/// caller owns on the `b` side: it stays on the calling thread, and needs
/// no `Send`. With one thread both run inline, `a` first; a panic on
/// either side is re-raised with its payload.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    if num_threads() <= 1 {
        return (a(), b());
    }
    // A panic in `b` unwinds out of `scope`, which joins the worker
    // first and then resumes `b`'s own payload.
    thread::scope(|scope| {
        let worker = scope.spawn(a);
        let rb = b();
        match worker.join() {
            Ok(ra) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// `items.into_iter().map(f).collect()` across threads: each item is
/// *moved* into exactly one worker and mapped there, with the output
/// reassembled in input order. This is the primitive for stateful shard
/// workers — each shard's (large, owned) state travels to a worker thread
/// for the duration of one epoch and comes back transformed, with no
/// sharing and no locks. Output position `i` always holds `f(items[i])`,
/// so results are bit-identical at every thread count.
pub fn map_owned<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let threads = num_threads().min(len);
    if threads <= 1 {
        return items.into_iter().map(&f).collect();
    }

    let chunk = len.div_ceil(threads);
    // Split into contiguous per-worker chunks up front; ownership of each
    // chunk but the last moves into its worker thread.
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let part: Vec<T> = it.by_ref().take(chunk).collect();
        if part.is_empty() {
            break;
        }
        chunks.push(part);
    }

    let tail = chunks.pop().unwrap_or_default();
    thread::scope(|scope| {
        let workers: Vec<_> = chunks
            .into_iter()
            .map(|part| {
                let f = &f;
                scope.spawn(move || part.into_iter().map(f).collect())
            })
            .collect();
        let tail = tail.into_iter().map(&f).collect();
        join_in_order(workers, tail, len)
    })
}

/// `items.iter().map(f).collect()` across threads, order-preserving.
pub fn map_slice<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `body` with `RENREN_THREADS` pinned, restoring the prior value.
    /// Env vars are process-global, so tests touching them share one lock.
    fn with_threads_env(value: Option<&str>, body: impl FnOnce()) {
        use std::sync::{Mutex, OnceLock};
        static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let _guard = ENV_LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
        let prior = std::env::var(THREADS_ENV).ok();
        match value {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        body();
        match prior {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn matches_serial_map_exactly() {
        for &threads in &["1", "2", "3", "8"] {
            with_threads_env(Some(threads), || {
                let expected: Vec<f64> = (0..103).map(|i| (i as f64).sqrt().sin()).collect();
                let got = map_indexed(103, |i| (i as f64).sqrt().sin());
                assert_eq!(got, expected, "threads={threads}");
            });
        }
    }

    #[test]
    fn handles_short_and_empty_inputs() {
        with_threads_env(Some("4"), || {
            assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
            assert_eq!(map_indexed(1, |i| i * 7), vec![0]);
            assert_eq!(map_indexed(3, |i| i), vec![0, 1, 2]);
        });
    }

    #[test]
    fn scratch_is_per_worker() {
        with_threads_env(Some("4"), || {
            // Each worker's scratch counts its own calls; outputs stay
            // index-determined regardless of which worker computed them.
            let got = map_indexed_with(
                20,
                || 0usize,
                |calls, i| {
                    *calls += 1;
                    i * 2
                },
            );
            assert_eq!(got, (0..20).map(|i| i * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn env_override_controls_thread_count() {
        with_threads_env(Some("3"), || assert_eq!(num_threads(), 3));
        with_threads_env(Some("not-a-number"), || {
            assert!(num_threads() >= 1);
        });
        with_threads_env(Some("0"), || assert!(num_threads() >= 1));
    }

    #[test]
    fn map_owned_moves_items_and_preserves_order() {
        for &threads in &["1", "2", "8"] {
            with_threads_env(Some(threads), || {
                // Non-Clone, non-Copy items prove real moves.
                let items: Vec<Box<usize>> = (0..23).map(Box::new).collect();
                let got = map_owned(items, |b| *b * 3);
                assert_eq!(
                    got,
                    (0..23).map(|i| i * 3).collect::<Vec<_>>(),
                    "threads={threads}"
                );
            });
        }
        with_threads_env(Some("4"), || {
            assert_eq!(map_owned(Vec::<u8>::new(), |b| b), Vec::<u8>::new());
        });
    }

    #[test]
    fn worker_panic_is_reraised_with_its_payload() {
        with_threads_env(Some("4"), || {
            // Caught here so the env lock is released unpoisoned.
            let payload =
                std::panic::catch_unwind(|| map_indexed(16, |i| assert_ne!(i, 7, "boom at {i}")))
                    .expect_err("worker 7 panics");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("boom at 7"), "{msg}");
        });
    }

    #[test]
    fn last_chunk_runs_on_the_calling_thread() {
        with_threads_env(Some("2"), || {
            let me = thread::current().id();
            let owned = map_owned(vec![(), ()], |()| thread::current().id());
            assert!(owned[0] != me && owned[1] == me, "{owned:?}, {me:?}");
            let indexed = map_indexed(2, |_| thread::current().id());
            assert!(indexed[0] != me && indexed[1] == me, "{indexed:?}, {me:?}");
        });
    }

    /// Deliberately uneven work: task `i` spins for a time that falls
    /// steeply with `i`, so early tasks are long and late ones short.
    fn uneven(i: usize) -> u64 {
        (0..(20_000u64 >> i.min(14))).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
    }

    #[test]
    fn map_tasks_matches_serial_map_exactly() {
        let expected: Vec<u64> = (0..23).map(uneven).collect();
        for &threads in &["1", "2", "3", "8"] {
            with_threads_env(Some(threads), || {
                assert_eq!(map_tasks(23, uneven), expected, "threads={threads}");
            });
        }
    }

    #[test]
    fn map_tasks_runs_every_index_exactly_once() {
        for &threads in &["1", "2", "3", "8"] {
            with_threads_env(Some(threads), || {
                let runs: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
                let got = map_tasks(17, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    uneven(i) ^ i as u64
                });
                assert_eq!(got.len(), 17);
                let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
                assert_eq!(counts, vec![1; 17], "threads={threads}");
            });
        }
    }

    #[test]
    fn map_tasks_handles_zero_and_one_task() {
        for &threads in &["1", "4"] {
            with_threads_env(Some(threads), || {
                assert_eq!(map_tasks(0, |i| i), Vec::<usize>::new());
                let me = thread::current().id();
                let one = map_tasks(1, |i| (i + 5, thread::current().id()));
                assert_eq!(one, vec![(5, me)]);
            });
        }
    }

    #[test]
    fn map_tasks_reraises_a_worker_panic_with_its_payload() {
        for &threads in &["2", "3"] {
            with_threads_env(Some(threads), || {
                let payload = std::panic::catch_unwind(|| {
                    map_tasks(9, |i| {
                        assert_ne!(i, 4, "task {i} failed");
                        uneven(i)
                    })
                })
                .expect_err("task 4 panics");
                let msg = payload.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains("task 4 failed"), "threads={threads}: {msg}");
            });
        }
    }

    #[test]
    fn join_runs_a_on_a_worker_and_b_on_the_caller() {
        with_threads_env(Some("2"), || {
            let me = thread::current().id();
            let (a, b) = join(|| thread::current().id(), || thread::current().id());
            assert!(a != me && b == me, "{a:?}, {b:?}, {me:?}");
            // Borrowed state on both sides: `a` fills one buffer, `b` the other.
            let (mut left, mut right) = (Vec::new(), Vec::new());
            let (na, nb) = join(
                || {
                    left.extend(0..5);
                    left.len()
                },
                || {
                    right.extend(5..8);
                    right.len()
                },
            );
            assert_eq!(
                (na, nb, left, right),
                (5, 3, vec![0, 1, 2, 3, 4], vec![5, 6, 7])
            );
        });
    }

    #[test]
    fn join_runs_both_inline_at_one_thread() {
        with_threads_env(Some("1"), || {
            let me = thread::current().id();
            let order = std::sync::Mutex::new(Vec::new());
            let (a, b) = join(
                || {
                    order.lock().unwrap().push('a');
                    thread::current().id()
                },
                || {
                    order.lock().unwrap().push('b');
                    thread::current().id()
                },
            );
            assert_eq!((a, b), (me, me));
            assert_eq!(order.into_inner().unwrap(), ['a', 'b']);
        });
    }

    #[test]
    fn join_reraises_a_panic_on_either_side_with_its_payload() {
        for &threads in &["1", "2"] {
            with_threads_env(Some(threads), || {
                let worker = std::panic::catch_unwind(|| {
                    join(
                        || assert_ne!(uneven(3), uneven(3), "worker side"),
                        || uneven(4),
                    )
                })
                .expect_err("the worker side panics");
                let msg = worker.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains("worker side"), "threads={threads}: {msg}");
                let caller = std::panic::catch_unwind(|| {
                    join(
                        || uneven(4),
                        || assert_ne!(uneven(3), uneven(3), "caller side"),
                    )
                })
                .expect_err("the caller side panics");
                let msg = caller.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains("caller side"), "threads={threads}: {msg}");
            });
        }
    }

    #[test]
    fn map_slice_preserves_order() {
        with_threads_env(Some("2"), || {
            let items: Vec<String> = (0..9).map(|i| format!("s{i}")).collect();
            let got = map_slice(&items, |s| s.len());
            assert_eq!(got, vec![2; 9]);
        });
    }
}
