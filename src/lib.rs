#![warn(missing_docs)]
//! # path-separators
//!
//! A from-scratch Rust implementation of *“Object Location Using Path
//! Separators”* (Ittai Abraham, Cyril Gavoille, PODC 2006): `k`-path
//! separators for weighted minor-free graphs and the object-location
//! machinery built on them — `(1+ε)`-approximate distance labels and
//! oracles, stretch-`(1+ε)` compact routing, and small-worldization with
//! poly-logarithmic greedy routing.
//!
//! This crate is a facade: it re-exports the workspace sub-crates under
//! stable module names.
//!
//! ```
//! use path_separators::graph::{Graph, NodeId};
//!
//! let mut g = Graph::new(2);
//! g.add_edge(NodeId(0), NodeId(1), 3);
//! assert_eq!(g.num_edges(), 1);
//! ```

/// Graph substrate: representation, shortest paths, generators, metrics.
pub use psep_graph as graph;

/// Tree/path decompositions, center bags, torsos, vortices, clique-weights.
pub use psep_treedec as treedec;

/// Fundamental-cycle (shortest-path-tree) separator machinery.
pub use psep_planar as planar;

/// The paper's core: `k`-path separators and decomposition trees.
pub use psep_core as core;

/// Distance labels and `(1+ε)`-approximate distance oracles.
pub use psep_oracle as oracle;

/// Stretch-`(1+ε)` labeled compact routing.
pub use psep_routing as routing;

/// Small-worldization and greedy-routing simulation.
pub use psep_smallworld as smallworld;

// Compiles and runs the README's Rust blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub mod api;
pub mod error;
pub mod rpc;
pub mod service;

// The most common types, re-exported at the crate root.
pub use api::{ApiError, ApiErrorKind, Request, Response, ServiceStats};
pub use error::ServiceError;
pub use psep_core::{AutoStrategy, DecompositionTree, PathSeparator, SepPath, SeparatorStrategy};
pub use psep_graph::{Graph, NodeId, Weight};
pub use psep_oracle::{
    build_oracle, BatchQueryEngine, DistanceEstimator, DistanceOracle, ObjectDirectory,
    OracleParams, WitnessPath,
};
pub use psep_routing::{RouteOutcome, Router, RoutingTables};
pub use service::{LocationService, ServiceParams};
