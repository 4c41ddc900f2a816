//! Oracle-greedy forwarding baseline.
//!
//! Each vertex knows its own distance label and its neighbours' labels
//! (exchanged at link establishment, as in link-state protocols). A
//! message to `t` (whose distance label travels as the address) is
//! forwarded to the neighbour minimizing
//! `w(u, nbr) + est(nbr, t)` where `est` is the label-only `(1+ε)`
//! estimate of Theorem 2.
//!
//! With approximate estimates greedy forwarding can cycle, so the
//! simulator keeps a hop budget and reports failures — experiment E6
//! compares its delivery rate and stretch against the plan router.

use psep_graph::graph::{Graph, NodeId, Weight, INFINITY};
use psep_oracle::oracle::{query_label_refs, DistanceOracle};

use crate::router::RouteOutcome;

/// The oracle-greedy router baseline.
#[derive(Clone, Debug)]
pub struct OracleGreedyRouter<'a> {
    graph: Graph,
    oracle: DistanceOracle<'a>,
}

impl<'a> OracleGreedyRouter<'a> {
    /// Builds the baseline from a graph and the oracle holding its
    /// Theorem 2 labels.
    ///
    /// # Panics
    ///
    /// Panics unless the oracle has one label per vertex of `g`.
    pub fn new(g: &Graph, oracle: DistanceOracle<'a>) -> Self {
        assert_eq!(g.num_nodes(), oracle.num_nodes(), "one label per vertex");
        OracleGreedyRouter {
            graph: g.clone(),
            oracle,
        }
    }

    /// Greedy-forwards from `u` to `t` with a hop budget of
    /// `4 · n + 16`. Returns `None` on failure (cycle or disconnection).
    pub fn route(&self, u: NodeId, t: NodeId) -> Option<RouteOutcome> {
        if u == t {
            return Some(RouteOutcome {
                route: vec![u],
                cost: 0,
                hops: 0,
            });
        }
        let budget = 4 * self.graph.num_nodes() + 16;
        let label_t = self.oracle.label(t);
        let mut route = vec![u];
        let mut cost: Weight = 0;
        let mut cur = u;
        for _ in 0..budget {
            if cur == t {
                psep_obs::counter!("routing.greedy.delivered").incr();
                psep_obs::counter!("routing.greedy.hops").add((route.len() - 1) as u64);
                return Some(RouteOutcome {
                    hops: route.len() - 1,
                    route,
                    cost,
                });
            }
            let mut best: Option<(NodeId, Weight, Weight)> = None;
            for e in self.graph.edges(cur) {
                if e.to == t {
                    best = Some((e.to, e.weight, 0));
                    break;
                }
                let est = query_label_refs(self.oracle.label(e.to), label_t);
                if est == INFINITY {
                    continue;
                }
                let score = e.weight.saturating_add(est);
                if best.is_none_or(|(_, bw, be)| score < bw.saturating_add(be)) {
                    best = Some((e.to, e.weight, est));
                }
            }
            let Some((next, w, _)) = best else {
                psep_obs::counter!("routing.greedy.failed").incr();
                return None;
            };
            cost += w;
            cur = next;
            route.push(cur);
        }
        psep_obs::counter!("routing.greedy.failed").incr();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::dijkstra::dijkstra;
    use psep_graph::generators::{grids, trees};
    use psep_oracle::oracle::{build_oracle, OracleParams};

    fn build(g: &Graph, eps: f64) -> OracleGreedyRouter<'static> {
        let tree = DecompositionTree::build(g, &AutoStrategy::default());
        let params = OracleParams {
            epsilon: eps,
            threads: 1,
        };
        OracleGreedyRouter::new(g, build_oracle(g, &tree, params))
    }

    #[test]
    fn greedy_delivers_on_grid() {
        let g = grids::grid2d(6, 6, 1);
        let r = build(&g, 0.1);
        let mut delivered = 0;
        let mut total = 0;
        for u in g.nodes() {
            let sp = dijkstra(&g, &[u]);
            for t in g.nodes() {
                if u == t {
                    continue;
                }
                total += 1;
                if let Some(out) = r.route(u, t) {
                    delivered += 1;
                    assert_eq!(*out.route.last().unwrap(), t);
                    assert!(out.cost >= sp.dist(t).unwrap());
                }
            }
        }
        // with tight epsilon the greedy should deliver essentially always
        assert!(
            delivered as f64 >= 0.99 * total as f64,
            "delivered {delivered}/{total}"
        );
    }

    #[test]
    fn greedy_on_tree_is_exact() {
        let g = trees::random_tree(30, 3);
        let r = build(&g, 0.1);
        for u in g.nodes() {
            let sp = dijkstra(&g, &[u]);
            for t in g.nodes() {
                let out = r.route(u, t).expect("tree routes");
                assert_eq!(out.cost, sp.dist(t).unwrap());
            }
        }
    }
}
