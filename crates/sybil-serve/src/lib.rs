//! # sybil-serve — sharded streaming Sybil detection engine
//!
//! The paper's deployed detector (§2.3, §5) was an *online* system
//! consuming Renren's live friend-request stream. This crate is the
//! serving-scale counterpart of the sequential
//! [`replay`](sybil_core::realtime::replay): the merged send/decision
//! stream is processed by `N` worker shards partitioned by account id,
//! each owning its accounts' running state (one flat `AccountTable` from
//! `sybil_core::realtime::state` per shard). Clustering features are
//! served from
//! the coordinator's single accepted-edge mirror — a rotating
//! [`CsrSnapshot`](osn_graph::CsrSnapshot) plus an unfolded delta that
//! already holds the running epoch's edges, each check bounded to its
//! stream position by a watermark — lent to shards read-only, so
//! per-shard cost is owned-account work, not edge bookkeeping.
//!
//! Cross-shard effects — detections and verification feedback — are
//! staged in bounded SPSC [`queue::DeltaQueue`]s and merged
//! deterministically at epoch barriers. The headline invariant: the
//! [`DeploymentReport`](sybil_core::realtime::DeploymentReport) this
//! engine produces is **byte-identical** to the sequential replay's at
//! every shard count and every `RENREN_THREADS` value. See `engine` for
//! the argument and DESIGN.md §"Serving architecture" for the prose
//! version.
//!
//! The one entry point is the [`ServeSession`] builder: construct with a
//! [`ServeConfig`], chain on the optional capabilities (clock, metrics,
//! fault/persistence plane), and [`run`](ServeSession::run). With a
//! persistence plane (`sybil-store`'s `StorePlane`) the session also
//! checkpoints at epoch barriers and warm-restarts mid-stream — see
//! `session` and DESIGN.md §"Persistence & warm restart".

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod fault;
mod meter;
mod mirror;
pub mod queue;
mod session;
mod shard;

pub use engine::{replay_journal, Clock, ServeConfig, ServeError, ServeStats};
pub use fault::{
    ChaosError, FaultKind, FaultPlane, NoFaults, ResumeState, SessionCheckpoint, ShardSnapshot,
};
pub use session::{ServeOutcome, ServeSession};
