#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! `k`-path separators — the core contribution of Abraham & Gavoille,
//! *“Object Location Using Path Separators”* (PODC 2006).
//!
//! **Definition 1.** A weighted graph `G` with `n` vertices is *k-path
//! separable* if there is a subgraph `S` (the *k-path separator*) with:
//!
//! * (P1) `S = P₀ ∪ P₁ ∪ ⋯`, where each `P_i` is the union of `k_i`
//!   minimum-cost paths of `G \ ⋃_{j<i} P_j`;
//! * (P2) `Σ k_i ≤ k`;
//! * (P3) `G \ S` is empty, or every component of `G \ S` is `k`-path
//!   separable with at most `n/2` vertices.
//!
//! This crate provides:
//!
//! * the separator data model ([`SepPath`], [`PathGroup`],
//!   [`PathSeparator`]) and a [`check`]er that verifies P1–P3 against the
//!   graph (P1 by re-running Dijkstra in each residual graph);
//! * [`strategy`] — concrete separator strategies with per-family
//!   guarantees (tree centers, treewidth center bags, fundamental-cycle
//!   root paths, and the general iterative engine with apex removal);
//! * [`decomposition`] — the recursive [`DecompositionTree`] of
//!   Section 4 that the oracle, routing, and small-world layers consume,
//!   built by one builder for every [`Separator`] kind and halving
//!   measure;
//! * [`strong`] — *strong* separators (`S = P₀`, a single group) for the
//!   Theorem 6/7 experiments;
//! * [`doubling`] — `(k, α)`-doubling separators (§5.3): isometric
//!   low-doubling pieces instead of paths, with the 3D-mesh plane
//!   strategy of Theorem 8's motivating example;
//! * [`weighted`] — the vertex-weighted strengthening noted after
//!   Theorem 1 and its weight-halving strategy;
//! * [`csr`] — the keyed CSR arena both the labels and the routing
//!   tables are stored in: its invariants, borrowed-or-owned columns and
//!   section codecs, and the counting sort that assembles it from the
//!   builders' group-major emission;
//! * [`exec`] — the shared [`ShardedRunner`] worker pattern every
//!   parallel surface (batch queries, label/table construction,
//!   small-world builds) runs on, with input-order bit-identity.

pub mod check;
pub mod csr;
pub mod decomposition;
pub mod dissection;
pub mod doubling;
pub mod exec;
pub mod separator;
pub mod strategy;
pub mod strong;
pub mod weighted;
pub mod wire;

pub use check::{check_separator, check_tree, SeparatorError};
pub use decomposition::{
    available_threads, DecompNode, DecompositionError, DecompositionParams, DecompositionTree,
};
pub use exec::{ShardObs, ShardedRunner};
pub use separator::{PathGroup, PathSeparator, SepPath, Separator};
pub use strategy::{
    AutoStrategy, FundamentalCycleStrategy, IterativeStrategy, SeparatorStrategy,
    TreeCenterStrategy, TreewidthStrategy,
};
