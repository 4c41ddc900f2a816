//! The typed service API: one [`Request`]/[`Response`] vocabulary shared
//! by in-process callers, the `psep-rpc/v1` wire codec
//! ([`crate::rpc`]), and the load generator.
//!
//! [`LocationService::handle`] is the single dispatch point: every
//! operation the service offers is a `Request` variant, every answer a
//! `Response` variant, and invalid inputs come back as
//! [`Response::Error`] carrying a typed [`ApiError`] — never a panic.
//! The network daemon (`psep-serve`) is a thin loop around this
//! function; an in-process caller invoking `handle` gets bit-identical
//! answers to the same requests over TCP.

use psep_graph::{NodeId, Weight};
use psep_oracle::WitnessPath;
use psep_routing::RouteOutcome;

use crate::error::ServiceError;
use crate::service::LocationService;

/// One request against a [`LocationService`].
///
/// Batch variants (`QueryMany`/`RouteMany`) fan through the parallel
/// batch engines and answer in input order, so a batch is always
/// bit-identical to issuing its elements one by one.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Artifact statistics; answered with [`Response::Stats`].
    Stats,
    /// `(1+ε)`-approximate distance between two vertices.
    Query {
        /// Source vertex.
        u: NodeId,
        /// Target vertex.
        v: NodeId,
    },
    /// A batch of distance queries, answered in input order.
    QueryMany {
        /// `(source, target)` pairs.
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// A witness path realizing the `(1+ε)` estimate between two
    /// vertices.
    QueryPath {
        /// Source vertex.
        u: NodeId,
        /// Target vertex.
        v: NodeId,
    },
    /// A batch of witness-path queries, answered in input order.
    QueryPathMany {
        /// `(source, target)` pairs.
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// A compact route between two vertices.
    Route {
        /// Source vertex.
        u: NodeId,
        /// Target vertex.
        t: NodeId,
    },
    /// A batch of routes, answered in input order.
    RouteMany {
        /// `(source, target)` pairs.
        pairs: Vec<(NodeId, NodeId)>,
    },
}

impl Request {
    /// Stable lowercase operation name, used as a metric-name segment
    /// (`serve.query.latency_ns`, …).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Query { .. } => "query",
            Request::QueryMany { .. } => "query_many",
            Request::QueryPath { .. } => "query_path",
            Request::QueryPathMany { .. } => "query_path_many",
            Request::Route { .. } => "route",
            Request::RouteMany { .. } => "route_many",
        }
    }

    /// Number of `(source, target)` pairs this request carries.
    pub fn pair_count(&self) -> usize {
        match self {
            Request::Ping | Request::Stats => 0,
            Request::Query { .. } | Request::QueryPath { .. } | Request::Route { .. } => 1,
            Request::QueryMany { pairs }
            | Request::QueryPathMany { pairs }
            | Request::RouteMany { pairs } => pairs.len(),
        }
    }
}

/// One answer from a [`LocationService`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(ServiceStats),
    /// Answer to [`Request::Query`]; `None` for disconnected pairs.
    Distance(Option<Weight>),
    /// Answer to [`Request::QueryMany`], in input order.
    Distances(Vec<Option<Weight>>),
    /// Answer to [`Request::QueryPath`]; `None` for disconnected pairs.
    Path(Option<WitnessPath>),
    /// Answer to [`Request::QueryPathMany`], in input order.
    Paths(Vec<Option<WitnessPath>>),
    /// Answer to [`Request::Route`]; `None` for disconnected pairs.
    Route(Option<RouteOutcome>),
    /// Answer to [`Request::RouteMany`], in input order.
    Routes(Vec<Option<RouteOutcome>>),
    /// The request was invalid; the service state is unchanged.
    Error(ApiError),
}

impl Response {
    /// True for [`Response::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}

/// Static facts about the served artifact, answered to
/// [`Request::Stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceStats {
    /// Vertices served.
    pub num_nodes: u64,
    /// Edges in the served graph.
    pub num_edges: u64,
    /// The oracle's approximation parameter `ε`.
    pub epsilon: f64,
    /// Total label entries across the oracle's CSR arena.
    pub label_entries: u64,
    /// Total routing-table entries across the tables' CSR arena.
    pub table_entries: u64,
}

/// Machine-readable category of an [`ApiError`] — the part a remote
/// client can dispatch on without parsing prose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApiErrorKind {
    /// A vertex id at or beyond the number of served vertices.
    NodeOutOfRange,
    /// The request payload was malformed (undecodable or structurally
    /// invalid).
    InvalidRequest,
    /// The service failed internally; the request may have been valid.
    Internal,
}

impl ApiErrorKind {
    /// Stable display name (also the wire spelling in diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            ApiErrorKind::NodeOutOfRange => "node-out-of-range",
            ApiErrorKind::InvalidRequest => "invalid-request",
            ApiErrorKind::Internal => "internal",
        }
    }
}

/// A typed request failure, transportable over `psep-rpc/v1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Dispatchable category.
    pub kind: ApiErrorKind,
    /// Human-readable detail (the originating error's display string).
    pub detail: String,
}

impl ApiError {
    /// An [`ApiErrorKind::InvalidRequest`] error with `detail`.
    pub fn invalid(detail: impl Into<String>) -> Self {
        ApiError {
            kind: ApiErrorKind::InvalidRequest,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

impl std::error::Error for ApiError {}

impl From<&ServiceError> for ApiError {
    fn from(e: &ServiceError) -> Self {
        let kind = match e {
            ServiceError::Oracle(psep_oracle::Error::NodeOutOfRange { .. })
            | ServiceError::Routing(psep_routing::Error::NodeOutOfRange { .. }) => {
                ApiErrorKind::NodeOutOfRange
            }
            ServiceError::Wire(_) => ApiErrorKind::InvalidRequest,
            _ => ApiErrorKind::Internal,
        };
        ApiError {
            kind,
            detail: e.to_string(),
        }
    }
}

impl From<ServiceError> for ApiError {
    fn from(e: ServiceError) -> Self {
        ApiError::from(&e)
    }
}

impl LocationService<'_> {
    /// Serves one typed request. This is the dispatch point shared by
    /// in-process callers and the network daemon: every operation goes
    /// through the canonical fallible forms, and failures come back as
    /// [`Response::Error`] — `handle` never panics on any input.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(self.stats()),
            Request::Query { u, v } => match self.try_query(*u, *v) {
                Ok(d) => Response::Distance(d),
                Err(e) => Response::Error(e.into()),
            },
            Request::QueryMany { pairs } => match self.try_query_many(pairs) {
                Ok(ds) => Response::Distances(ds),
                Err(e) => Response::Error(e.into()),
            },
            Request::QueryPath { u, v } => match self.try_query_path(*u, *v) {
                Ok(p) => Response::Path(p),
                Err(e) => Response::Error(e.into()),
            },
            Request::QueryPathMany { pairs } => match self.try_query_path_many(pairs) {
                Ok(ps) => Response::Paths(ps),
                Err(e) => Response::Error(e.into()),
            },
            Request::Route { u, t } => match self.try_route(*u, *t) {
                Ok(r) => Response::Route(r),
                Err(e) => Response::Error(e.into()),
            },
            Request::RouteMany { pairs } => match self.try_route_many(pairs) {
                Ok(rs) => Response::Routes(rs),
                Err(e) => Response::Error(e.into()),
            },
        }
    }

    /// Static facts about the served artifact.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            num_nodes: self.num_nodes() as u64,
            num_edges: self.graph().num_edges() as u64,
            epsilon: self.epsilon(),
            label_entries: self.oracle().space_entries() as u64,
            table_entries: self.router().tables().flat().num_entries() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceParams;
    use psep_graph::generators::grids;

    fn service() -> LocationService<'static> {
        LocationService::build(&grids::grid2d(5, 5, 1), ServiceParams::default())
    }

    #[test]
    fn handle_matches_direct_calls() {
        let svc = service();
        let pairs: Vec<_> = (0..svc.num_nodes() as u32)
            .map(|v| (NodeId(0), NodeId(v)))
            .collect();
        assert_eq!(svc.handle(&Request::Ping), Response::Pong);
        assert_eq!(
            svc.handle(&Request::Query {
                u: NodeId(0),
                v: NodeId(24)
            }),
            Response::Distance(svc.query(NodeId(0), NodeId(24)))
        );
        assert_eq!(
            svc.handle(&Request::QueryMany {
                pairs: pairs.clone()
            }),
            Response::Distances(svc.try_query_many(&pairs).unwrap())
        );
        assert_eq!(
            svc.handle(&Request::QueryPath {
                u: NodeId(0),
                v: NodeId(24)
            }),
            Response::Path(svc.query_path(NodeId(0), NodeId(24)))
        );
        assert_eq!(
            svc.handle(&Request::QueryPathMany {
                pairs: pairs.clone()
            }),
            Response::Paths(svc.try_query_path_many(&pairs).unwrap())
        );
        assert_eq!(
            svc.handle(&Request::Route {
                u: NodeId(0),
                t: NodeId(24)
            }),
            Response::Route(svc.route(NodeId(0), NodeId(24)))
        );
        assert_eq!(
            svc.handle(&Request::RouteMany {
                pairs: pairs.clone()
            }),
            Response::Routes(svc.try_route_many(&pairs).unwrap())
        );
        let Response::Stats(stats) = svc.handle(&Request::Stats) else {
            panic!("stats request must answer with stats");
        };
        assert_eq!(stats.num_nodes, 25);
        assert_eq!(stats.num_edges, svc.graph().num_edges() as u64);
        assert_eq!(stats.epsilon, svc.epsilon());
        assert!(stats.label_entries > 0);
        assert!(stats.table_entries > 0);
    }

    #[test]
    fn handle_never_panics_on_out_of_range() {
        let svc = service();
        let bad = NodeId(1_000_000);
        for req in [
            Request::Query {
                u: NodeId(0),
                v: bad,
            },
            Request::Route {
                u: bad,
                t: NodeId(0),
            },
            Request::QueryMany {
                pairs: vec![(NodeId(0), NodeId(1)), (bad, NodeId(0))],
            },
            Request::QueryPath {
                u: bad,
                v: NodeId(0),
            },
            Request::QueryPathMany {
                pairs: vec![(NodeId(0), NodeId(1)), (NodeId(0), bad)],
            },
            Request::RouteMany {
                pairs: vec![(NodeId(0), bad)],
            },
        ] {
            let Response::Error(e) = svc.handle(&req) else {
                panic!("{req:?} must be rejected");
            };
            assert_eq!(e.kind, ApiErrorKind::NodeOutOfRange, "{req:?}: {e}");
        }
    }

    #[test]
    fn op_names_and_pair_counts() {
        assert_eq!(Request::Ping.op(), "ping");
        assert_eq!(Request::Stats.pair_count(), 0);
        let q = Request::QueryMany {
            pairs: vec![(NodeId(0), NodeId(1)); 3],
        };
        assert_eq!(q.op(), "query_many");
        assert_eq!(q.pair_count(), 3);
        let p = Request::QueryPath {
            u: NodeId(0),
            v: NodeId(1),
        };
        assert_eq!(p.op(), "query_path");
        assert_eq!(p.pair_count(), 1);
        let pm = Request::QueryPathMany {
            pairs: vec![(NodeId(0), NodeId(1)); 2],
        };
        assert_eq!(pm.op(), "query_path_many");
        assert_eq!(pm.pair_count(), 2);
    }

    #[test]
    fn served_paths_realize_served_distances() {
        let svc = service();
        for v in 0..svc.num_nodes() as u32 {
            let (u, v) = (NodeId(3), NodeId(v));
            let est = svc.query(u, v);
            let path = svc.query_path(u, v).expect("grid is connected");
            assert_eq!(Some(path.weight), est);
            assert_eq!(path.nodes.first(), Some(&u));
            assert_eq!(path.nodes.last(), Some(&v));
        }
    }
}
