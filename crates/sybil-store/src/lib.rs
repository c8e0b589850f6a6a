//! # sybil-store — versioned persistence and warm restart for serving
//!
//! The paper's detector ran as a continuously operating service; this
//! crate is what lets our engine stop and start without losing state. It
//! persists a [`ServeSession`](sybil_serve::ServeSession)'s full logical
//! state — per-shard `realtime::state`, adaptive thresholds, the
//! `GraphMirror`'s folded and staged edges, merged detections, pending
//! feedback, logical totals — as versioned, byte-stable `SYBS`
//! checkpoint files, and wires them together with the `SYBJ`
//! write-ahead epoch journal into **warm restart**:
//!
//! 1. [`StorePlane::load_resume`] loads the newest readable checkpoint
//!    and finds where the *committed* journal tail after it ends;
//! 2. the engine checks the checkpoint against the run it is resuming
//!    (shard count, owned counts, edge endpoints), then pulls the tail
//!    one epoch at a time — each must equal the stream's own batch — and
//!    re-runs it through the step live epochs run, verifying committed
//!    per-shard digests along the way;
//! 3. live processing resumes at the next epoch, and the final
//!    `DeploymentReport` is **byte-identical** to an uninterrupted run —
//!    the restart proptests kill at arbitrary epochs across shard counts
//!    and assert exactly this.
//!
//! Attach persistence to a session with one builder call:
//!
//! ```
//! use sybil_serve::{ServeConfig, ServeSession};
//! use sybil_store::StorePlane;
//!
//! let out = osn_sim::simulate(osn_sim::SimConfig::tiny(7));
//! let dir = std::env::temp_dir().join(format!("sybs-doc-{}", std::process::id()));
//! let mut plane = StorePlane::open(&dir).expect("store opens");
//! let outcome = ServeSession::new(ServeConfig::default())
//!     .store(&mut plane)
//!     .run(&out)
//!     .expect("serve succeeds");
//! assert!(outcome.report.detections.is_empty() || !outcome.report.detections.is_empty());
//! std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! Module layout mirrors the trust boundaries: both byte layouts — the
//! [`journal`]'s `SYBJ` frames and [`format`]'s `SYBS` checkpoints —
//! sit on one private field/record codec (`codec.rs`), the only place
//! that turns bytes from disk into counts and values; [`format`] also
//! owns **every filesystem touch** (workspace lint rule S119 keeps
//! versioned-state IO inside it); [`store`] is the checkpoint-directory
//! and fault-plane layer above them; and [`error`] is the one typed
//! failure surface — no strings, no leaked `io::Error`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod codec;
pub mod error;
pub mod format;
pub mod journal;
pub mod store;

pub use error::{IoOp, StoreError};
pub use journal::Journal;
pub use store::{
    JournalPlane, SnapshotStore, StorePlane, DEFAULT_CHECKPOINT_EVERY, DEFAULT_DIGEST_EVERY,
};
