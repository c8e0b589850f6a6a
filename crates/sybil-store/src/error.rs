//! Typed persistence errors.
//!
//! Every way a checkpoint or journal file can fail to round-trip has its
//! own variant carrying the evidence (expected vs. found version, the
//! byte offset of a truncation, both digests of a mismatch). Underlying
//! filesystem failures are carried as the operation attempted plus the
//! [`std::io::ErrorKind`] — a plain enum, so [`StoreError`] stays `Copy`,
//! `Eq`, and free of `io::Error`'s boxed payloads. No variant is a
//! string.

/// Which filesystem operation an [`StoreError::Io`] was performing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// Reading a file.
    Read,
    /// Writing a file (including its temporary sibling).
    Write,
    /// Renaming the temporary file over the final path.
    Rename,
    /// Creating the store directory.
    CreateDir,
    /// Listing the store directory.
    List,
    /// Truncating a journal to its last whole frame.
    Truncate,
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Rename => "rename",
            IoOp::CreateDir => "create-dir",
            IoOp::List => "list",
            IoOp::Truncate => "truncate",
        };
        f.write_str(s)
    }
}

/// Why a store operation failed. Every variant is typed; corruption is
/// always attributable to a position or a pair of conflicting values,
/// never reported as a bare string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The four bytes found where the magic belongs.
        found: [u8; 4],
    },
    /// The header version is not one this reader understands.
    VersionMismatch {
        /// The version the file carries.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// A frame, section, or field ended before its declared length.
    TruncatedFrame {
        /// Byte offset where the stream ran out.
        offset: u64,
    },
    /// The trailer digest disagrees with the digest of the decoded bytes.
    DigestMismatch {
        /// The digest the trailer committed.
        expected: u64,
        /// The digest recomputed over the sections actually read.
        found: u64,
    },
    /// A checkpoint section carried a tag this version does not define.
    UnknownSection {
        /// The offending tag.
        tag: u8,
    },
    /// A required section is absent.
    MissingSection {
        /// The tag of the missing section.
        tag: u8,
    },
    /// A field held a value outside its domain (e.g. a boolean byte
    /// that is neither 0 nor 1, or an unknown journal frame tag).
    BadField {
        /// Byte offset of the offending field.
        offset: u64,
    },
    /// The filesystem failed underneath the store.
    Io {
        /// The operation attempted.
        op: IoOp,
        /// The error kind the filesystem reported.
        kind: std::io::ErrorKind,
    },
}

/// Carry an `io::Error` from operation `op` as a [`StoreError::Io`].
pub(crate) fn io_err(op: IoOp) -> impl Fn(std::io::Error) -> StoreError {
    move |e| StoreError::Io { op, kind: e.kind() }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic { found } => {
                write!(f, "store file has neither SYBS nor SYBJ magic (found {found:02x?})")
            }
            StoreError::VersionMismatch { found, expected } => {
                write!(f, "store format version {found} unsupported (this build reads {expected})")
            }
            StoreError::TruncatedFrame { offset } => {
                write!(f, "store file truncated at byte {offset}")
            }
            StoreError::DigestMismatch { expected, found } => write!(
                f,
                "checkpoint digest mismatch: trailer {expected:#018x}, decoded {found:#018x}"
            ),
            StoreError::UnknownSection { tag } => {
                write!(f, "checkpoint carries unknown section tag {tag}")
            }
            StoreError::MissingSection { tag } => {
                write!(f, "checkpoint missing required section tag {tag}")
            }
            StoreError::BadField { offset } => {
                write!(f, "store field out of domain at byte {offset}")
            }
            StoreError::Io { op, kind } => write!(f, "store {op} failed ({kind:?})"),
        }
    }
}

impl std::error::Error for StoreError {}
