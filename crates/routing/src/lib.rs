#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! Labeled compact routing over `k`-path separable graphs.
//!
//! The paper's third application is a stretch-`(1+ε)` labeled routing
//! scheme with poly-logarithmic tables, obtained by transforming the
//! Theorem 2 distance labels à la Thorup. Thorup's construction is
//! specified at the bit-packing level; this crate implements a
//! message-level scheme with the same information architecture:
//!
//! * for every `(level, group, path)` of the decomposition, a
//!   multi-source shortest-path tree `T_Q` rooted at the whole path `Q`
//!   is built in the residual graph `J`;
//! * each vertex's **routing table** stores, per path: its distance to
//!   `Q`, the position of its nearest entry point, its parent toward `Q`,
//!   and a DFS interval of `T_Q` (plus on-path neighbour links) —
//!   `O(k log n)` entries;
//! * each vertex's **routing label** (its address) stores, per path: its
//!   entry position, distance, and DFS index — `O(k log n)` words;
//! * a message from `u` to `t` picks the plan minimizing the *exact*
//!   route cost `d_J(u,Q) + d_Q(x_u, x_t) + d_J(t,Q)` over all shared
//!   paths, then executes: climb to `Q`, walk along `Q`, descend `T_Q`
//!   to `t` by interval routing. Delivery is guaranteed and the executed
//!   cost equals the plan cost.
//!
//! The worst-case stretch of this variant is 3 (each plan term is within
//! a factor of the crossing distances); the measured stretch — what
//! experiment E6 reports against the paper's `1+ε` — is far closer to 1
//! on the evaluation families. The oracle-greedy forwarding baseline
//! ([`greedy::OracleGreedyRouter`]) is included for comparison.
//!
//! The crate has the same serving shape as `psep-oracle`: tables live
//! in a CSR-style [`FlatTables`] arena, encode as a bundle's tables
//! section ([`wire`]: raw columns or a varint/delta body), build
//! in parallel bit-identically at every thread count, answer batch
//! requests via [`Router::route_many_with`], and reject bad input through
//! typed [`Error`]s ([`Router::try_route`]) instead of panicking.

pub mod error;
pub mod flat;
pub mod greedy;
pub mod router;
pub mod tables;
pub mod wire;

pub use error::Error;
pub use flat::{EntryRef, FlatTables, TableRef};
pub use greedy::OracleGreedyRouter;
pub use router::{RouteOutcome, Router};
pub use tables::{RouteKey, RoutingLabel, RoutingTables};
