//! Greedy-routing simulation over augmented graphs.

use std::collections::HashMap;

use psep_graph::dijkstra::{dijkstra, ShortestPaths};
use psep_graph::graph::{Graph, NodeId};

/// A source of long-range contacts: the paper's distribution, the
/// Kleinberg baseline, uniform augmentation, etc.
pub trait ContactRule {
    /// Samples the long-range contact of `v` (one directed edge per
    /// vertex, per Definition 4). `None` = no usable contact this trial.
    fn sample_contact(&self, v: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId>;
}

impl ContactRule for crate::augment::Augmentation {
    fn sample_contact(&self, v: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        // &mut dyn RngCore itself implements Rng, satisfying the generic
        crate::augment::Augmentation::sample_contact(self, v, &mut &mut *rng)
    }
}

/// Routes greedily from `s` to `t` over `g` augmented by `rule`:
/// each step moves to the (graph or long-range) neighbour closest to `t`
/// in `G`. Contacts are sampled on first visit (deferred decisions —
/// equivalent because greedy strictly decreases `d(·, t)` and never
/// revisits). `dist_t` must be the Dijkstra result from `t`.
///
/// Returns the hop count, or `None` if `s` cannot reach `t`.
pub fn greedy_route(
    g: &Graph,
    rule: &dyn ContactRule,
    s: NodeId,
    t: NodeId,
    dist_t: &ShortestPaths,
    rng: &mut dyn rand::RngCore,
) -> Option<usize> {
    dist_t.dist(s)?;
    let mut contacts: HashMap<NodeId, Option<NodeId>> = HashMap::new();
    let mut cur = s;
    let mut hops = 0usize;
    while cur != t {
        let d_cur = dist_t.dist(cur)?;
        let mut best: Option<(NodeId, u64)> = None;
        for e in g.edges(cur) {
            if let Some(d) = dist_t.dist(e.to) {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((e.to, d));
                }
            }
        }
        let contact = *contacts.entry(cur).or_insert_with(|| {
            psep_obs::counter!("smallworld.augment.samples").incr();
            rule.sample_contact(cur, rng)
        });
        if let Some(c) = contact {
            if let Some(d) = dist_t.dist(c) {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((c, d));
                }
            }
        }
        let (next, d_next) = best?;
        // greedy progress is guaranteed by a graph neighbour on a
        // shortest path toward t
        debug_assert!(d_next < d_cur, "greedy step failed to progress");
        cur = next;
        hops += 1;
    }
    psep_obs::counter!("smallworld.greedy.routes").incr();
    psep_obs::counter!("smallworld.greedy.hops").add(hops as u64);
    Some(hops)
}

/// Statistics from a batch of greedy-routing trials.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Number of (s, t) trials run.
    pub trials: usize,
    /// Mean hops over successful trials.
    pub mean_hops: f64,
    /// Maximum hops observed.
    pub max_hops: usize,
    /// 95th-percentile hops.
    pub p95_hops: usize,
}

/// Batch greedy-routing simulator.
pub struct GreedySim<'a> {
    graph: &'a Graph,
    rule: &'a dyn ContactRule,
}

impl<'a> GreedySim<'a> {
    /// Creates a simulator for `graph` with contact `rule`.
    pub fn new(graph: &'a Graph, rule: &'a dyn ContactRule) -> Self {
        GreedySim { graph, rule }
    }

    /// Runs `trials` random (s, t) trials (fresh contacts per trial,
    /// matching the expectation in Theorem 3) and aggregates hop counts.
    pub fn run<R: rand::Rng>(&self, trials: usize, rng: &mut R) -> SimStats {
        let n = self.graph.num_nodes();
        let mut hops_all: Vec<usize> = Vec::with_capacity(trials);
        // group trials by target to reuse the Dijkstra from t
        let mut by_target: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for _ in 0..trials {
            let s = NodeId::from_index(rng.gen_range(0..n));
            let t = NodeId::from_index(rng.gen_range(0..n));
            by_target.entry(t).or_default().push(s);
        }
        let mut targets: Vec<_> = by_target.into_iter().collect();
        targets.sort_by_key(|(t, _)| *t);
        for (t, sources) in targets {
            let dist_t = dijkstra(self.graph, &[t]);
            for s in sources {
                if let Some(h) = greedy_route(self.graph, self.rule, s, t, &dist_t, rng) {
                    hops_all.push(h);
                }
            }
        }
        summarize(&hops_all)
    }
}

fn summarize(hops: &[usize]) -> SimStats {
    if hops.is_empty() {
        return SimStats::default();
    }
    let mut sorted = hops.to_vec();
    sorted.sort_unstable();
    SimStats {
        trials: hops.len(),
        mean_hops: hops.iter().sum::<usize>() as f64 / hops.len() as f64,
        max_hops: *sorted.last().unwrap(),
        p95_hops: sorted[(sorted.len() * 95 / 100).min(sorted.len() - 1)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::build_augmentation;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use rand::SeedableRng;

    struct NoContacts;
    impl ContactRule for NoContacts {
        fn sample_contact(&self, _: NodeId, _: &mut dyn rand::RngCore) -> Option<NodeId> {
            None
        }
    }

    #[test]
    fn without_contacts_greedy_walks_shortest_path_hops() {
        let g = grids::grid2d(6, 6, 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let t = NodeId(35);
        let dist_t = dijkstra(&g, &[t]);
        let hops = greedy_route(&g, &NoContacts, NodeId(0), t, &dist_t, &mut rng).unwrap();
        assert_eq!(hops, 10); // Manhattan distance on the grid
    }

    #[test]
    fn augmented_routing_never_slower_than_plain_greedy() {
        let g = grids::grid2d(10, 10, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let aug = build_augmentation(&g, &tree, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let sim = GreedySim::new(&g, &aug);
        let stats = sim.run(200, &mut rng);
        assert!(stats.trials > 0);
        // grid diameter is 18; greedy with shortcuts must average below it
        assert!(stats.mean_hops <= 18.0, "mean {}", stats.mean_hops);
        assert!(stats.max_hops <= 18);
    }

    #[test]
    fn self_trials_have_zero_hops() {
        let g = grids::grid2d(3, 3, 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let dist_t = dijkstra(&g, &[NodeId(4)]);
        let hops = greedy_route(&g, &NoContacts, NodeId(4), NodeId(4), &dist_t, &mut rng).unwrap();
        assert_eq!(hops, 0);
    }
}
