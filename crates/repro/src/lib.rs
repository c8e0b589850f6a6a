//! # sybil-repro — the experiment harness
//!
//! One module per table/figure of the paper. Each experiment consumes a
//! shared simulation context ([`scenario::Ctx`]), produces a typed result
//! (serializable for `results/*.json`) and renders itself as text (ASCII
//! CDF plots, aligned tables).
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | invitation frequency CDFs | Fig. 1 | [`fig1`] |
//! | outgoing accept ratio CDFs | Fig. 2 | [`fig2`] |
//! | incoming accept ratio CDFs | Fig. 3 | [`fig3`] |
//! | clustering coefficient CDFs | Fig. 4 | [`fig4`] |
//! | SVM vs threshold confusion | Table 1 | [`table1`] |
//! | Sybil degree distributions | Fig. 5 | [`fig5`] |
//! | Sybil component sizes | Fig. 6 | [`fig6`] |
//! | five largest components | Table 2 | [`table2`] |
//! | Sybil vs attack edge scatter | Fig. 7 | [`fig7`] |
//! | edge-creation order matrix | Fig. 8 | [`fig8`] |
//! | giant-component degrees | Fig. 9 | [`fig9`] |
//! | tool catalog + behavior | Table 3 | [`table3`] |
//! | graph-defense evaluation | §3.1 claim | [`defenses`] |
//! | classifier zoo (+NB, LR) | extension of Table 1 | [`zoo`] |
//! | mixing-time analysis | extension of §3.1 | [`mixing`] |
//! | deployment replay | §2.3 production story | [`deployment`] |
//! | sharded serving replay | §2.3 at serving scale | [`serve`] |
//! | kill + warm-restart drill | §2.3 persistence story | [`restart`] |
//! | spam-reach cascades | §2.1 motivation | [`reach`] |
//!
//! Every figure in the paper is a CDF, a scatter, or a dot matrix; every
//! table is rows of counts. The presentation primitives they share live
//! here too: empirical CDFs ([`cdf`]), summary statistics ([`summary`]),
//! terminal rendering ([`ascii`]), aligned tables ([`table`]), and
//! JSON/text export ([`export`]).
//!
//! Run everything with the `repro` binary:
//! `cargo run --release -p sybil-repro --bin repro -- all`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ascii;
pub mod cdf;
pub mod chaos;
pub mod defenses;
pub mod deployment;
pub mod export;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod mixing;
pub mod reach;
pub mod restart;
pub mod runspec;
pub mod scenario;
pub mod serve;
pub mod summary;
pub mod table;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod zoo;

pub use runspec::{help, parse_args, CliError, RunSpec};
pub use scenario::{Ctx, Scale};
