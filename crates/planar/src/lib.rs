#![warn(missing_docs)]
//! Shortest-path-tree separator machinery in the style of Lipton–Tarjan
//! and Thorup.
//!
//! Thorup (JACM 2004) showed that every weighted planar graph can be
//! halved by removing the union of **three** root paths of a single
//! shortest-path tree — i.e. planar graphs are *strongly 3-path
//! separable* (Theorem 6.1 in Abraham–Gavoille). The classical proof
//! finds a *fundamental cycle* (one nontree edge plus the two root paths
//! to its endpoints) that balances the graph.
//!
//! This crate implements that search directly on the graph, without a
//! combinatorial embedding: it evaluates candidate nontree edges by the
//! size of the largest component left after removing the two root paths,
//! and can greedily add further root paths. On planar inputs the
//! guarantee is Thorup's; on arbitrary inputs the machinery still returns
//! *valid* shortest-path separators (possibly needing more paths), which
//! is exactly what the general `k`-path framework of `psep-core`
//! consumes.

pub mod cycle;
pub mod sptree;

pub use cycle::{
    best_fundamental_cycle, deepest_vertex, root_path_separator, sampled_nontree_edges,
    CycleSearch, RemovalScratch,
};
pub use sptree::SpTree;
