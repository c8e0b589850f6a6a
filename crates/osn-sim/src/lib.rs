//! # osn-sim — discrete-event Renren-like OSN simulator
//!
//! The paper's raw material — Renren's full social graph, friend-request
//! logs, and ground-truth Sybil labels — is proprietary. This crate
//! substitutes a mechanistic simulation of the *processes* the paper
//! identifies, so that the emergent data has the same shape:
//!
//! * **Normal users** join over time, invite acquaintances and
//!   friends-of-friends (triadic closure → clustering), respond to requests
//!   with per-user tendencies (→ the spread of Fig. 3), and accept
//!   strangers more readily the more popular/careless they are (§2.2).
//! * **Sybil accounts** are created in batches by attackers running one of
//!   the three commercial tools of Table 3. Tools snowball-sample the live
//!   graph for *popular* targets (popularity-biased, §3.4), drive bursty
//!   high-rate friend requests (Fig. 1), and accept every incoming request
//!   (Fig. 3). A small fraction of attackers intentionally interlink their
//!   own Sybils first (the vertical lines of Fig. 8).
//! * **Renren's abuse team** bans Sybils over time, truncating their
//!   pending responses (the <100% incoming-accept tail of Fig. 3).
//!
//! Because successful Sybils become popular, snowball-sampling tools
//! occasionally select *other attackers'* Sybils as targets; the target
//! always accepts, creating an **accidental Sybil edge** — the mechanism
//! behind the paper's headline finding that Sybils do not form tight-knit
//! communities.
//!
//! The simulator is a single-threaded discrete-event loop (CPU-bound, so no
//! async runtime — see the workspace design notes), fully deterministic
//! given a seed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod account;
pub mod config;
pub mod distr;
pub mod engine;
pub mod events;
pub mod io;
pub mod log;
pub mod output;
pub mod profile;
pub mod request;
pub mod scale;
pub mod stream;
pub mod tools;

pub use account::{Account, AccountKind};
pub use config::{AttackerParams, NormalParams, SimConfig, SybilParams};
pub use engine::Simulator;
pub use log::RequestLog;
pub use output::SimOutput;
pub use profile::{Gender, Profile};
pub use request::{RequestOutcome, RequestRecord};
pub use scale::{generate as generate_scale, splitmix64, ScaleConfig};
pub use stream::{EpochBatches, EventDetail, EventStream, StreamEvent, StreamEventKind};
pub use tools::{ToolKind, ToolSpec};

/// Run a full simulation from a configuration. Convenience for
/// `Simulator::new(config).run()`.
pub fn simulate(config: SimConfig) -> SimOutput {
    Simulator::new(config).run()
}

/// Run a full simulation and also return the engine's metric snapshot
/// (see [`Simulator::run_observed`]). The snapshot holds only logical
/// quantities, so it is as deterministic as the output itself.
pub fn simulate_observed(config: SimConfig) -> (SimOutput, sybil_obs::Snapshot) {
    Simulator::new(config).run_observed()
}
