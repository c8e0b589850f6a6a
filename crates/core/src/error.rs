//! The workspace error type.
//!
//! Fallible public APIs across the workspace return [`Error`] (or a
//! crate-local error that converts into it) instead of `String`: callers
//! can match on the failure class, the message formatting lives in one
//! `Display` impl, and lint rule S107 keeps stringly-typed `Result<_,
//! String>` signatures from creeping back in. Hand-rolled (no `thiserror`
//! dependency) but shaped the same way: one variant per failure class
//! that something in the workspace produces — [`crate::realtime`]'s config
//! validation and [`crate::ids::count_u32`].

use std::fmt;

/// What went wrong, by failure class.
#[derive(Debug)]
pub enum Error {
    /// A configuration field failed validation.
    InvalidConfig {
        /// The offending field, e.g. `"check_every"`.
        field: &'static str,
        /// Why the value is rejected.
        message: String,
    },
    /// A count or id exceeded the u32 range the serving substrate's
    /// id-packing contract requires (node ids, per-window counts, and
    /// queue depths all travel as `u32` end to end; see
    /// [`crate::ids`]).
    IdOverflow {
        /// What was being converted, e.g. `"request log index"`.
        what: &'static str,
        /// The out-of-range value.
        value: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig { field, message } => {
                write!(f, "invalid config: {field}: {message}")
            }
            Error::IdOverflow { what, value } => {
                write!(f, "id overflow: {what} = {value} does not fit in u32")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = Error::InvalidConfig {
            field: "check_every",
            message: "must be ≥ 1".into(),
        };
        let s = e.to_string();
        assert!(s.contains("check_every"));
        assert!(s.contains("must be ≥ 1"));
    }
}
