//! # osn-graph — temporal social-graph substrate
//!
//! This crate implements the graph machinery that the IMC 2011 paper
//! *“Uncovering Social Network Sybils in the Wild”* (Yang et al.) relies on:
//! a timestamped, undirected friendship graph plus the algorithms used both
//! by the paper's measurement pipeline (degree distributions, connected
//! components, clustering coefficients, temporal edge ordering) and by the
//! graph-based Sybil defenses it evaluates against (random walks, random
//! routes, max-flow, conductance).
//!
//! Everything is deterministic given a seeded RNG, CPU-bound, and
//! synchronous; the workloads here are measurement-style batch analytics,
//! not I/O (see the design notes in `DESIGN.md` at the workspace root).
//!
//! ## Layout
//!
//! * [`graph`] — the [`TemporalGraph`] store: nodes, undirected edges with
//!   creation [`Timestamp`]s, constant-time membership tests.
//! * [`unionfind`] — disjoint-set forest used by component analyses.
//! * [`components`] — connected components of the whole graph or of induced
//!   subsets (e.g. the Sybil-only subgraph of the paper's §3.3).
//! * [`clustering`] — local clustering coefficients, including the paper's
//!   “first 50 friends by time” variant (Fig. 4).
//! * [`degree`] — degree sequences and distribution helpers (Figs. 5, 9).
//! * [`bfs`] — breadth-first traversal and shortest-path helpers.
//! * [`cascade`] — independent-cascade reach by coupled bond percolation
//!   (the spam-reach model behind the paper's motivation).
//! * [`walks`] — random walks and SybilGuard/SybilLimit random *routes*.
//! * [`maxflow`] — Dinic max-flow used by the SumUp baseline.
//! * [`subgraph`] — induced subgraphs with node re-indexing.
//! * [`sampling`] — snowball sampling (the mechanism behind accidental
//!   Sybil edges, §3.4) and uniform sampling utilities.
//! * [`generators`] — synthetic graph generators (ER, BA, WS,
//!   configuration model) used for null models and defense calibration.
//! * [`kcore`] — k-core decomposition (how deeply Sybils embed).
//! * [`spectral`] — mixing-time diagnostics: spectral gap of the lazy
//!   walk and empirical escape probabilities (the fast-mixing assumption
//!   behind every §3.1 defense).
//! * [`metrics`] — conductance, edge cuts, mutual-friend counts,
//!   rich-club coefficients, degree assortativity.
//! * [`snapshot`] — immutable CSR snapshot ([`CsrSnapshot`]) with sorted
//!   adjacency for O(log d) membership, merge-based mutual friends, and
//!   scratch-marked clustering kernels.
//! * [`par`] — deterministic order-preserving parallel map used by the
//!   full-population sweeps (`RENREN_THREADS` overrides the width).
//! * [`paths`] — sampled shortest-path statistics.
//! * [`profile`] — one-call structural census ([`profile::GraphProfile`]).
//! * [`io`] — CSV edge-list import/export.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bfs;
pub mod cascade;
pub mod clustering;
pub mod components;
pub mod degree;
pub mod generators;
pub mod graph;
pub mod io;
pub mod kcore;
pub mod maxflow;
pub mod metrics;
pub mod par;
pub mod paths;
pub mod profile;
pub mod sampling;
pub mod snapshot;
pub mod spectral;
pub mod subgraph;
pub mod unionfind;
pub mod walks;

pub use graph::{EdgeId, EdgeRecord, GraphError, Neighbor, NodeId, TemporalGraph, Timestamp};
pub use snapshot::{CsrSnapshot, MergeScratch, NeighborScratch};
pub use unionfind::UnionFind;
