//! The integration tests of `osn-graph`, one module per group of
//! properties, built as one binary; `support` holds the helpers they
//! share.

mod properties;
mod snapshot_merge_props;
mod snapshot_par_props;
mod support;
