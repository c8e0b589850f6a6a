//! # sybil-lint — workspace determinism & invariant auditor
//!
//! PR 1 made every analytics path bit-identical across thread counts;
//! this crate *enforces* the invariants that guarantee rests on. A
//! lightweight Rust lexer ([`lexer`]) feeds a per-file rule engine
//! ([`rules`]) that audits the whole workspace ([`workspace`]) and exits
//! nonzero on violations not covered by the reviewed `lint.toml`
//! allowlist ([`allowlist`]). Output comes in human, `--format json`
//! ([`report`]), and `--format sarif` ([`sarif`]) flavors.
//!
//! On top of the token layer sits a semantic layer: an item-level parser
//! ([`parser`]) feeds a workspace symbol table ([`symbols`]) and a
//! name-resolved call graph ([`callgraph`]), over which the S-series
//! rules ([`rules_sem`]) reason about *reachability* — every S-finding
//! carries a call-chain trace explaining why it fired. The effect layer
//! ([`effects`]) generalizes those per-rule searches into one
//! interprocedural analysis: per-function effect sets inferred from leaf
//! intrinsics and propagated to a fixpoint, with roots and sinks
//! designated in `lint.toml`'s `[effects.*]` tables. The cost layer
//! ([`costs`]) reuses the same fixpoint machinery over a cost lattice
//! (allocation, growth, scans, blocking, recursion) and adds loop
//! context ([`loops`]): sites are judged against the per-event hot
//! loops under the `[hotpaths.roots]` cores, so a once-per-epoch
//! allocation is amortized noise while the same allocation inside the
//! event scan is an S113 error.
//!
//! The rules:
//!
//! | code | invariant |
//! |------|-----------|
//! | D001 | no unordered `HashMap`/`HashSet` iteration in library code |
//! | D002 | no wall-clock reads outside the repro CLI |
//! | D003 | no raw threading primitives outside `osn_graph::par` |
//! | D004 | no panics (`unwrap`/`expect`/`panic!`) in non-test library code |
//! | D005 | every library crate carries `#![forbid(unsafe_code)]` |
//! | D006 | only explicitly seeded RNGs — no entropy sources |
//! | S101 | no panic site reachable from a `pub` library fn (call graph) |
//! | S102 | no float reduction reachable from a `par::` map closure |
//! | S103 | no `&mut`/RNG capture across the `par` boundary |
//! | S104 | no dead exports (pub items nothing outside the crate names) |
//! | S105 | no stale `lint.toml` entries (`--fix-allowlist` prunes them) |
//! | S106 | no unbounded channels outside sybil-serve's DeltaQueue |
//! | S107 | no stringly-typed error APIs (`Result<_, String>`, lib exits) |
//! | S108 | no id-keyed hash containers in the scale-critical modules |
//! | S109 | no clock/env/thread-id effects reachable from clockless roots |
//! | S110 | no IO effects reachable from the epoch-barrier critical path |
//! | S111 | no unordered hash iteration reachable from byte-stable sinks |
//! | S112 | no thread spawns outside the sanctioned scheduler files |
//! | S113 | no allocation inside a per-event hot loop (recycle scratch) |
//! | S114 | no monotonic collection growth across the epoch loop |
//! | S115 | no truncating `as` casts reachable from hot paths |
//! | S116 | no blocking acquisition reachable from a hot loop |
//! | S117 | no recursion reachable from a hot path |
//!
//! No external parser dependencies: the lexer is ~300 lines, the item
//! parser ~700, and the TOML allowlist reader handles exactly the subset
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
pub mod sarif;
pub mod symbols;
pub mod workspace;

pub use allowlist::{Allowlist, AllowEntry};
pub use report::{Finding, Report};
pub use rules::{check_file, FileCtx, FileKind};
pub use symbols::WorkspaceModel;
