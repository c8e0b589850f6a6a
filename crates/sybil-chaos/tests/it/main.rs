//! The integration tests of `sybil-chaos`, one module per contract,
//! built as one binary; `support` holds the helpers they share.

mod chaos_props;
mod composed;
mod support;
