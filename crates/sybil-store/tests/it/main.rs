//! The integration tests of `sybil-store`, one module per contract,
//! built as one binary; `support` holds the helpers they share and the
//! binary's recording allocator. `alloc_budget.rs` stays a binary of
//! its own: its process-wide call counter needs the process to itself.

mod garbage;
mod golden;
mod restart;
mod save_stream;
mod support;
