//! The integration tests of `sybil-defense`, one module per topic,
//! built as one binary.

mod integration;
mod prepared;
mod routes;
