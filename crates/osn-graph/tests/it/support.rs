//! The one copy of each helper the modules of this binary share.

use osn_graph::par::THREADS_ENV;
use osn_graph::{NodeId, TemporalGraph, Timestamp};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Random graph with edges inserted in nondecreasing time order — the
/// simulator's guarantee, which the temporal analyses assume.
pub fn graph_from(n: usize, edges: &[(usize, usize)]) -> TemporalGraph {
    let mut g = TemporalGraph::with_nodes(n);
    for (i, &(a, b)) in edges.iter().enumerate() {
        let _ = g.add_edge(
            NodeId((a % n) as u32),
            NodeId((b % n) as u32),
            Timestamp(i as u64),
        );
    }
    g
}

/// The lock every test in a binary holds while it sets an env var:
/// env vars are process-global. A panicking test poisons it; the guard
/// protects no data, so it is taken anyway.
pub fn env_lock() -> MutexGuard<'static, ()> {
    static ENV_LOCK: Mutex<()> = Mutex::new(());
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `body` with `RENREN_THREADS` pinned, restoring the prior value
/// even if `body` panics.
pub fn with_threads_env<T>(value: &str, body: impl FnOnce() -> T) -> T {
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(v) => std::env::set_var(THREADS_ENV, v),
                None => std::env::remove_var(THREADS_ENV),
            }
        }
    }
    let _guard = env_lock();
    let _restore = Restore(std::env::var(THREADS_ENV).ok());
    std::env::set_var(THREADS_ENV, value);
    body()
}
