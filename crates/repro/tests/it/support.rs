//! The one copy of each helper the modules of this binary share.

use std::sync::{Mutex, OnceLock, PoisonError};
use sybil_repro::{Ctx, Scale};

/// The context of `scale`/`seed`, built once per binary and shared by
/// every test that asks for it. Sharing is sound only because a shared
/// `Ctx` is read-only to its callers: the one state it gains after it is
/// built is its ground-truth sample memo, which no caller can observe
/// (`reach_shape::ground_truth_sample_memo_is_invisible` pins that).
/// Different keys build in parallel; callers of one key wait for its
/// single build.
pub fn shared_ctx(scale: Scale, seed: u64) -> &'static Ctx {
    type Cells = Vec<((Scale, u64), &'static OnceLock<Ctx>)>;
    static CELLS: Mutex<Cells> = Mutex::new(Vec::new());
    let cell = {
        let mut cells = CELLS.lock().unwrap_or_else(PoisonError::into_inner);
        match cells.iter().find(|(key, _)| *key == (scale, seed)) {
            Some(&(_, cell)) => cell,
            None => {
                let cell: &'static OnceLock<Ctx> = Box::leak(Box::default());
                cells.push(((scale, seed), cell));
                cell
            }
        }
    };
    cell.get_or_init(|| Ctx::build(scale, seed))
}
