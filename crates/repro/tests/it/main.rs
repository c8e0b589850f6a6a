//! The integration tests of `sybil-repro`, one module per group of
//! EXPERIMENTS.md rows, built as one binary; `support` holds the helpers
//! they share.

mod ablations;
mod reach_shape;
mod support;
mod table1_shape;
