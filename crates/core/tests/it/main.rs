//! The integration tests of `sybil-core`, one module per topic, built as
//! one binary.

mod dataset_garbage;
mod oracle_pins;
mod properties;
