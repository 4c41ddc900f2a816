#![warn(missing_docs)]
//! Tree and path decompositions for the `path-separators` workspace.
//!
//! This crate implements the structural machinery of Sections 2–3 of
//! Abraham & Gavoille (PODC 2006):
//!
//! * [`TreeDecomposition`] with full axiom checking and width
//!   computation; construction from elimination orders
//!   ([`elimination`]) or from generator-provided bags;
//! * the **center bag** of Lemma 1 ([`center::center_bag`]): a bag whose
//!   removal leaves components of at most `n/2` vertices;
//! * **torsos** ([`torso::torso`]): bags with joint sets filled in as
//!   cliques — the operation `G̃[X]` that makes Lemma 5 work;
//! * [`PathDecomposition`]s and [`Vortex`]es (bounded-pathwidth graphs
//!   glued onto a face perimeter) with [`vortexpath::VortexPath`]
//!   (Definition 2) and its projection;
//! * **clique-weights** ([`cliqueweight::CliqueWeight`], Lemma 5): the
//!   generalized weighting under which half-size separators of a center
//!   torso are global `n/2`-separators.

pub mod center;
pub mod cliqueweight;
pub mod decomposition;
pub mod elimination;
pub mod exact;
pub mod pathdec;
pub mod torso;
pub mod vortexpath;

pub use center::center_bag;
pub use cliqueweight::CliqueWeight;
pub use decomposition::TreeDecomposition;
pub use elimination::{
    min_degree_decomposition, min_degree_decomposition_within, min_fill_decomposition,
};
pub use exact::{exact_decomposition, exact_treewidth, treewidth_lower_bound};
pub use pathdec::{PathDecomposition, Vortex};
pub use vortexpath::VortexPath;
