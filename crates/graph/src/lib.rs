#![warn(missing_docs)]
//! Weighted undirected graph substrate for the `path-separators` workspace.
//!
//! This crate provides everything the higher layers (separators, oracles,
//! routing, small-worlds) need from a graph library, built from scratch:
//!
//! * [`Graph`] — a weighted undirected graph with integer edge costs,
//!   together with [`SubgraphView`]s for the residual graphs
//!   `G \ (P_0 ∪ … ∪ P_{i-1})` that appear throughout the paper;
//! * shortest paths ([`dijkstra()`], [`bidirectional_distance`]),
//!   shortest-path trees and path extraction;
//! * connectivity ([`components()`], [`UnionFind`]);
//! * metric utilities (aspect ratio `Δ`, eccentricities, diameter,
//!   [`doubling`] dimension estimation and `r`-nets);
//! * seeded [`generators`] for every graph family the paper discusses
//!   (trees, series-parallel, outerplanar, `k`-trees, grids, planar
//!   triangulations, meshes with a universal apex, `K_{r,s}`, 3D meshes,
//!   …);
//! * elementary minor operations ([`minors`]).
//!
//! Edge weights are `u64` (the paper normalizes `min d(u,v) = 1`); all
//! distance computations are exact integer arithmetic, so tests can assert
//! equality rather than approximate closeness.
//!
//! # Example
//!
//! ```
//! use psep_graph::{Graph, NodeId, dijkstra::dijkstra};
//!
//! let mut g = Graph::new(3);
//! g.add_edge(NodeId(0), NodeId(1), 2);
//! g.add_edge(NodeId(1), NodeId(2), 3);
//! let sp = dijkstra(&g, &[NodeId(0)]);
//! assert_eq!(sp.dist(NodeId(2)), Some(5));
//! ```

pub mod bidijkstra;
pub mod components;
pub mod csr;
pub mod dijkstra;
pub mod doubling;
pub mod generators;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod minors;
pub mod unionfind;
pub mod view;

pub use bidijkstra::bidirectional_distance;
pub use components::{components, largest_component};
pub use csr::CsrGraph;
pub use dijkstra::{dijkstra, ShortestPaths};
pub use graph::{Edge, Graph, NodeId, Weight, INFINITY};
pub use unionfind::UnionFind;
pub use view::{GraphRef, NodeMask, SubgraphView};
