#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! `(1+ε)`-approximate distance labels and oracles over `k`-path
//! separable graphs — Theorem 2 of Abraham & Gavoille (PODC 2006) — and
//! the `(k, α)`-doubling variant of Theorem 8.
//!
//! # How it works
//!
//! Let `𝒯` be the decomposition tree (Section 4). A shortest `u→v` path
//! `R` inside a component `H` either stays inside one child (handled one
//! level down) or meets `S(H)`. Take the smallest group index `i` with
//! `R ∩ P_i ≠ ∅`: then `R` lies wholly in the residual graph
//! `J = H \ ⋃_{j<i} P_j`, is a shortest path of `J`, and crosses some
//! path `Q ∈ P_i` at a vertex `x`. Since `Q` is a shortest path of `J`,
//! storing a few *portals* of `Q` per vertex recovers
//! `d_J(u,x) + d_J(x,v) = d(u,v)` up to `1+ε`:
//!
//! * each vertex `v` stores, per `(level, group, path)`, portal pairs
//!   `(pos(p), d_J(v,p))` chosen greedily so that
//!   `min_p d_J(v,p) + d_Q(p,x) ≤ (1+ε)·d_J(v,x)` for **every** `x ∈ Q`
//!   ([`portals::select_portals`]);
//! * a query takes the minimum over matching label entries of
//!   `d_J(u,p) + |pos(p) − pos(q)| + d_J(v,q)` — never below `d(u,v)`,
//!   and at the crossing entry at most `(1+ε)·d(u,v)`.
//!
//! The labels form the oracle; both the per-label space `O(k/ε · log n)`
//! and the query time `O(k/ε · log n)` shapes are measured by
//! experiment E3.

pub mod batch;
pub mod directory;
pub mod doubling;
pub mod error;
pub mod estimator;
pub mod exact;
pub mod flat;
pub mod label;
pub mod oracle;
pub mod path;
pub mod portals;
pub mod thorup_zwick;
pub mod wire;

pub use batch::BatchQueryEngine;
pub use directory::{ObjectDirectory, ObjectId};
pub use doubling::{build_doubling_oracle, DoublingOracle, DoublingOracleParams};
pub use error::Error;
pub use estimator::DistanceEstimator;
pub use exact::ExactOracle;
pub use flat::{FlatLabels, LabelRef};
pub use label::PortalEntry;
pub use oracle::{build_oracle, DistanceOracle, JoinStats, OracleParams};
pub use path::WitnessPath;
pub use thorup_zwick::ThorupZwickOracle;
