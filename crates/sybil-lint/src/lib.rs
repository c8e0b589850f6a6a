//! # sybil-lint — workspace determinism & invariant auditor
//!
//! PR 1 made every analytics path bit-identical across thread counts;
//! this crate *enforces* the invariants that guarantee rests on. It
//! audits the whole workspace ([`workspace`]) and exits nonzero on
//! violations not covered by the reviewed `lint.toml` allowlist
//! ([`allowlist`]); output comes in human and `--format json` flavors
//! ([`report`]).
//!
//! Each file is lexed once ([`lexer`]); an item-level parser ([`parser`])
//! recovers its functions, calls and test spans, and one scan
//! ([`sites`]) finds every leaf pattern a rule cares about — a clock
//! read, a file write, an `unwrap`, an allocation. The files join a
//! workspace symbol table ([`symbols`]) and a name-resolved call graph
//! ([`callgraph`]). The rules are the rows of [`rules::RULES`]
//! (`sybil-lint --list-rules`): most say *these site kinds are forbidden
//! in this scope* — anywhere outside one file, where a `pub` fn reaches
//! them, where a root designated in `lint.toml` reaches them
//! ([`effects`]), inside a per-event hot loop under such a root
//! ([`costs`], [`loops`]) — and one reporter judges them all, searching
//! the graph backwards from the site and attaching the call chain that
//! explains the finding. The rest ([`rules_sem`]) keep their own logic.
//!
//! No external parser dependencies: the lexer is ~300 lines, the item
//! parser ~600, and the TOML allowlist reader handles exactly the subset
//! `lint.toml` uses.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allowlist;
pub mod callgraph;
pub mod costs;
pub mod effects;
pub mod lexer;
pub mod loops;
pub mod parser;
pub mod report;
pub mod rules;
pub mod rules_sem;
pub mod sites;
pub mod symbols;
pub mod workspace;

pub use allowlist::{AllowEntry, Allowlist};
pub use report::{Finding, Report};
pub use rules::{check_file, FileCtx, FileKind};
pub use symbols::WorkspaceModel;
