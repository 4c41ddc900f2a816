//! The three workloads and the seeded pair streams that drive them.

use std::time::Duration;

use path_separators::api::Request;
use path_separators::NodeId;
use psep_testkit::families::Family;

/// Oracle approximation parameter of every workload.
pub const EPSILON: f64 = 0.25;
/// Pairs per `QueryMany`/`RouteMany` request.
pub const BATCH: usize = 256;

/// How a workload ships its bundle and opens it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// Raw `psep-bundle/v2`, opened with `map_bytes` over an aligned
    /// buffer: borrowed arenas, O(checksum) open.
    RawMapped,
    /// Delta-compressed `psep-bundle/v2`, opened with `from_bytes`:
    /// decoded into owned arenas.
    DeltaOwned,
}

impl Storage {
    pub fn name(self) -> &'static str {
        match self {
            Storage::RawMapped => "raw-v2/map_bytes/borrowed",
            Storage::DeltaOwned => "delta-v2/from_bytes/owned",
        }
    }
}

/// One benchmark workload: a graph family and size, a traffic shape and
/// a storage path.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub n: usize,
    /// Zipf exponent of the sources (`0` = uniform); targets are
    /// always uniform.
    pub skew: f64,
    pub storage: Storage,
}

/// Why each workload exists is documented in `perfbench/README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "grid-uniform",
        family: Family::Grid,
        n: 10_000,
        skew: 0.0,
        storage: Storage::RawMapped,
    },
    Workload {
        name: "ktree-skew",
        family: Family::KTree3,
        n: 10_000,
        skew: 1.1,
        storage: Storage::RawMapped,
    },
    Workload {
        name: "trigrid-delta",
        family: Family::TriangulatedGrid,
        n: 10_000,
        skew: 0.0,
        storage: Storage::DeltaOwned,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// An endless, seeded stream of `(source, target)` pairs over all `n`
/// vertices, so a run touches the whole label arena instead of cycling
/// a small pool that stays in cache.
pub struct PairStream {
    state: u64,
    n: usize,
    /// Cumulative Zipf weights of ranks `1..=n` (rank 1 = vertex 0), as
    /// loadgen's `--skew` samples sources.
    zipf_cdf: Option<Vec<f64>>,
}

impl PairStream {
    /// Stream number `stream` of the workload seed `seed`; distinct
    /// streams are independent.
    pub fn new(n: usize, skew: f64, seed: u64, stream: u64) -> Self {
        assert!(n > 0, "pair stream over an empty graph");
        let zipf_cdf = (skew > 0.0).then(|| {
            let mut total = 0.0f64;
            (1..=n)
                .map(|rank| {
                    total += (rank as f64).powf(-skew);
                    total
                })
                .collect()
        });
        PairStream {
            state: seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03),
            n,
            zipf_cdf,
        }
    }

    /// splitmix64.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> NodeId {
        let r = self.next_u64();
        NodeId::from_index(((r as u128 * self.n as u128) >> 64) as usize)
    }

    pub fn next_pair(&mut self) -> (NodeId, NodeId) {
        let src = if self.zipf_cdf.is_some() {
            let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let cdf = self.zipf_cdf.as_deref().expect("skewed stream");
            let idx = cdf.partition_point(|&c| c < unit * cdf[cdf.len() - 1]);
            NodeId::from_index(idx.min(self.n - 1))
        } else {
            self.uniform()
        };
        (src, self.uniform())
    }

    pub fn pairs(&mut self, count: usize) -> Vec<(NodeId, NodeId)> {
        (0..count).map(|_| self.next_pair()).collect()
    }
}

/// The five operations the benchmark serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Query,
    Route,
    QueryPath,
    QueryMany,
    RouteMany,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::Query,
        Op::Route,
        Op::QueryPath,
        Op::QueryMany,
        Op::RouteMany,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Route => "route",
            Op::QueryPath => "query_path",
            Op::QueryMany => "query_many",
            Op::RouteMany => "route_many",
        }
    }

    /// This op's share of each 100 ms round of the closed loop. A path
    /// round trip costs about a hundred single queries, and the mean of
    /// its multimodal cost needs the samples; the single ops keep tens
    /// of thousands of samples at their share.
    pub fn slice(self) -> Duration {
        Duration::from_millis(match self {
            Op::Query | Op::Route => 10,
            Op::QueryPath => 40,
            Op::QueryMany | Op::RouteMany => 20,
        })
    }

    /// The next request of this op, drawn from `stream`.
    pub fn request(self, stream: &mut PairStream) -> Request {
        match self {
            Op::Query => {
                let (u, v) = stream.next_pair();
                Request::Query { u, v }
            }
            Op::Route => {
                let (u, t) = stream.next_pair();
                Request::Route { u, t }
            }
            Op::QueryPath => {
                let (u, v) = stream.next_pair();
                Request::QueryPath { u, v }
            }
            Op::QueryMany => Request::QueryMany {
                pairs: stream.pairs(BATCH),
            },
            Op::RouteMany => Request::RouteMany {
                pairs: stream.pairs(BATCH),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_cover_the_vertex_range() {
        let a = PairStream::new(1000, 0.0, 7, 1).pairs(5000);
        assert_eq!(a, PairStream::new(1000, 0.0, 7, 1).pairs(5000));
        assert_ne!(a, PairStream::new(1000, 0.0, 8, 1).pairs(5000));
        assert_ne!(a, PairStream::new(1000, 0.0, 7, 2).pairs(5000));
        let max = a.iter().map(|p| p.0.index().max(p.1.index())).max();
        assert!(max.unwrap() > 990 && max.unwrap() < 1000);
    }

    #[test]
    fn skewed_sources_concentrate_and_targets_stay_uniform() {
        let pairs = PairStream::new(1000, 1.1, 3, 0).pairs(20_000);
        let hot = pairs.iter().filter(|p| p.0.index() < 10).count();
        let hot_targets = pairs.iter().filter(|p| p.1.index() < 10).count();
        assert!(
            hot > 20_000 / 4,
            "only {hot} of 20000 sources in the top 10"
        );
        assert!(
            hot_targets < 20_000 / 50,
            "{hot_targets} targets in the top 10"
        );
    }
}
