//! # renren-sybils — umbrella crate
//!
//! Reproduction of *“Uncovering Social Network Sybils in the Wild”*
//! (Yang et al., IMC 2011). This crate re-exports the whole workspace so
//! examples and downstream users can depend on a single package:
//!
//! * [`graph`] — temporal social-graph substrate (`osn-graph`)
//! * [`sim`] — discrete-event Renren-like OSN simulator (`osn-sim`)
//! * [`features`] — behavioral feature extraction (`sybil-features`)
//! * [`detect`] — the paper's detectors: threshold, adaptive, SVM
//!   (`sybil-core`)
//! * [`serve`] — sharded streaming detection engine with epoch snapshots
//!   and deterministic merge (`sybil-serve`)
//! * [`defense`] — graph-based baselines: SybilGuard, SybilLimit,
//!   SybilInfer, SumUp (`sybil-defense`)
//! * [`repro`] — the per-figure/table experiment harness, with the CDFs,
//!   summaries, ASCII plots, tables and exports it renders through
//!   (`sybil-repro`)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the experiment
//! index mapping every paper figure and table to a module.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use osn_graph as graph;
pub use osn_sim as sim;
pub use sybil_core as detect;
pub use sybil_defense as defense;
pub use sybil_features as features;
pub use sybil_repro as repro;
pub use sybil_serve as serve;
