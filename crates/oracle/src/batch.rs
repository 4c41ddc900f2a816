//! Parallel batch queries: serve a pair list across worker threads.
//!
//! A production oracle answers streams of queries, not single pairs.
//! [`BatchQueryEngine`] fans a pair list out across a
//! [`psep_core::exec::ShardedRunner`] — `std::thread` workers over the
//! shared [`FlatLabels`] arena (reads only — no locks) — and the runner
//! stitches the answers back in input order, so a batch is
//! observationally identical to a sequential `query` loop. Workers skip
//! per-query instrumentation and publish aggregated per-thread counters
//! (`oracle.batch.workerNN.pairs`) once per run — experiment E3t
//! measures the resulting `oracle.batch.pairs_per_sec` — plus
//! per-worker candidates/latency histograms that snapshots roll up into
//! `oracle.batch.candidates` / `oracle.batch.latency_ns`
//! thread-count-independently.
//!
//! [`FlatLabels`]: crate::flat::FlatLabels

use psep_core::decomposition::DecompositionTree;
use psep_core::exec::{ShardObs, ShardedRunner, WorkerHists};
use psep_graph::dijkstra::DijkstraScratch;
use psep_graph::graph::{Graph, NodeId, Weight};

use crate::error::Error;
use crate::oracle::{DistanceOracle, JoinStats};
use crate::path::WitnessPath;

/// Counter names for batch-query workers.
const BATCH_OBS: ShardObs = ShardObs {
    prefix: "oracle.batch",
    items: "pairs",
    units: "candidates",
};

/// Counter names for batch path-reporting workers.
const PATH_OBS: ShardObs = ShardObs {
    prefix: "oracle.path.batch",
    items: "pairs",
    units: "nodes",
};

/// Claim granularity for path batches: one reconstruction runs two
/// bounded Dijkstras, so items are orders of magnitude heavier than
/// scalar queries and much smaller batches are worth fanning out.
const PATH_MIN_CHUNK: usize = 8;

/// One path-reporting worker's reusable state: its obs histogram
/// handles and a Dijkstra arena shared across the pairs it claims.
struct PathWorker {
    hists: WorkerHists,
    scratch: DijkstraScratch,
}

/// One query worker's reusable state: its obs histogram handles plus
/// the merge-join statistics it accumulates across the pairs it claims
/// (published once per run, never per pair).
struct BatchWorker {
    hists: WorkerHists,
    stats: JoinStats,
}

/// A reusable parallel query engine with a fixed thread budget.
#[derive(Clone, Copy, Debug)]
pub struct BatchQueryEngine {
    runner: ShardedRunner,
}

impl Default for BatchQueryEngine {
    fn default() -> Self {
        BatchQueryEngine::new(0)
    }
}

impl BatchQueryEngine {
    /// An engine with `threads` workers (`0` means the machine's
    /// available parallelism, honoring `PSEP_THREADS`).
    pub fn new(threads: usize) -> Self {
        BatchQueryEngine {
            runner: ShardedRunner::new(threads).min_chunk(512),
        }
    }

    /// Sets the minimum pairs per worker — below it, extra threads cost
    /// more to start than they save (default 512).
    pub fn min_chunk(mut self, min_chunk: usize) -> Self {
        self.runner = self.runner.min_chunk(min_chunk);
        self
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.runner.threads()
    }

    /// Answers every pair, in input order.
    ///
    /// # Panics
    ///
    /// Panics if any vertex id is out of range; [`Self::try_run`]
    /// validates up front and returns an error instead.
    pub fn run(&self, oracle: &DistanceOracle, pairs: &[(NodeId, NodeId)]) -> Vec<Option<Weight>> {
        psep_obs::counter!("oracle.batch.runs").incr();
        let mut scratches: Vec<BatchWorker> = (0..self.runner.worker_count(pairs.len()))
            .map(|w| BatchWorker {
                hists: BATCH_OBS.worker_hists(w),
                stats: JoinStats::default(),
            })
            .collect();
        // keyed by source vertex: each worker serves one source's queries
        // back-to-back so the source label slice stays hot in cache;
        // results land at input offsets, so answers are bit-identical to
        // the unsorted schedule.
        let (answers, scanned) = self.runner.run_keyed(
            pairs,
            Some(&BATCH_OBS),
            &mut scratches,
            |&(u, _)| u,
            |worker, &(u, v)| {
                let t0 = psep_obs::now_if_enabled();
                let (answer, stats) = oracle.query_with_stats(u, v);
                worker.stats.merge(stats);
                worker.hists.record(stats.scanned, t0);
                (answer, stats.scanned)
            },
        );
        let mut total = JoinStats::default();
        for w in &scratches {
            total.merge(w.stats);
        }
        psep_obs::counter!("oracle.batch.pairs").add(pairs.len() as u64);
        psep_obs::counter!("oracle.batch.candidates_scanned").add(scanned);
        psep_obs::counter!("oracle.batch.pruned_keys").add(total.pruned_keys);
        psep_obs::counter!("oracle.batch.pruned_portals").add(total.pruned_portals);
        answers
    }

    /// [`Self::run`] with every vertex id validated first; a bad request
    /// is an [`Error::NodeOutOfRange`], not a worker panic.
    pub fn try_run(
        &self,
        oracle: &DistanceOracle,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Option<Weight>>, Error> {
        let n = oracle.num_nodes();
        for &(u, v) in pairs {
            for node in [u, v] {
                if node.index() >= n {
                    return Err(Error::NodeOutOfRange { node, num_nodes: n });
                }
            }
        }
        Ok(self.run(oracle, pairs))
    }

    /// Reconstructs a witness path for every pair, in input order —
    /// bit-identical to a sequential
    /// [`DistanceOracle::try_query_path`] loop at every thread count
    /// (reconstruction is per-pair independent and deterministic). Every
    /// vertex id is validated first, and oracle/tree disagreements come
    /// back as typed errors.
    pub fn try_run_paths(
        &self,
        oracle: &DistanceOracle,
        g: &Graph,
        tree: &DecompositionTree,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Option<WitnessPath>>, Error> {
        let n = oracle.num_nodes();
        for &(u, v) in pairs {
            for node in [u, v] {
                if node.index() >= n {
                    return Err(Error::NodeOutOfRange { node, num_nodes: n });
                }
            }
        }
        psep_obs::counter!("oracle.path.batch.runs").incr();
        let runner = self.runner.min_chunk(PATH_MIN_CHUNK);
        let mut scratches: Vec<PathWorker> = (0..runner.worker_count(pairs.len()))
            .map(|w| PathWorker {
                hists: PATH_OBS.worker_hists(w),
                scratch: DijkstraScratch::new(g.num_nodes()),
            })
            .collect();
        let (results, _nodes) = runner.run_keyed(
            pairs,
            Some(&PATH_OBS),
            &mut scratches,
            |&(u, _)| u,
            |worker, &(u, v)| {
                let t0 = psep_obs::now_if_enabled();
                let out = oracle.query_path_with(g, tree, &mut worker.scratch, u, v);
                let nodes = match &out {
                    Ok(Some(p)) => p.nodes.len() as u64,
                    _ => 0,
                };
                worker.hists.record(nodes, t0);
                (out, nodes)
            },
        );
        psep_obs::counter!("oracle.path.batch.pairs").add(pairs.len() as u64);
        results.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use psep_graph::Graph;

    fn grid_oracle(side: usize) -> (Graph, DistanceOracle<'static>) {
        let g = grids::grid2d(side, side, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let o = crate::oracle::build_oracle(&g, &tree, crate::oracle::OracleParams::default());
        (g, o)
    }

    fn all_pairs(n: u32) -> Vec<(NodeId, NodeId)> {
        (0..n)
            .flat_map(|u| (0..n).map(move |v| (NodeId(u), NodeId(v))))
            .collect()
    }

    #[test]
    fn query_many_matches_sequential_queries() {
        let (_, o) = grid_oracle(7);
        let pairs = all_pairs(49);
        let sequential: Vec<_> = pairs.iter().map(|&(u, v)| o.query(u, v)).collect();
        assert_eq!(BatchQueryEngine::default().run(&o, &pairs), sequential);
        for threads in [1, 2, 3, 4, 8] {
            let engine = BatchQueryEngine::new(threads).min_chunk(16);
            assert_eq!(engine.run(&o, &pairs), sequential, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_batches() {
        let (_, o) = grid_oracle(3);
        assert_eq!(
            BatchQueryEngine::default().run(&o, &[]),
            Vec::<Option<Weight>>::new()
        );
        let one = [(NodeId(0), NodeId(8))];
        assert_eq!(
            BatchQueryEngine::new(8).run(&o, &one),
            vec![o.query(NodeId(0), NodeId(8))]
        );
    }

    #[test]
    fn try_run_rejects_out_of_range_without_spawning() {
        let (_, o) = grid_oracle(4);
        let engine = BatchQueryEngine::new(2);
        let bad = [(NodeId(0), NodeId(1)), (NodeId(3), NodeId(99))];
        assert!(matches!(
            engine.try_run(&o, &bad),
            Err(Error::NodeOutOfRange { num_nodes: 16, .. })
        ));
        let good = [(NodeId(0), NodeId(1))];
        assert_eq!(
            engine.try_run(&o, &good).unwrap(),
            vec![o.query(NodeId(0), NodeId(1))]
        );
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(BatchQueryEngine::new(0).threads() >= 1);
    }

    fn grid_stack(side: usize) -> (Graph, DecompositionTree, DistanceOracle<'static>) {
        let g = grids::grid2d(side, side, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let o = crate::oracle::build_oracle(&g, &tree, crate::oracle::OracleParams::default());
        (g, tree, o)
    }

    #[test]
    fn path_batches_match_sequential_reconstruction() {
        let (g, tree, o) = grid_stack(6);
        let pairs = all_pairs(36);
        let sequential: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| o.query_path(&g, &tree, u, v))
            .collect();
        for threads in [1, 2, 3, 4, 8] {
            let engine = BatchQueryEngine::new(threads);
            assert_eq!(
                engine.try_run_paths(&o, &g, &tree, &pairs).unwrap(),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn try_run_paths_rejects_out_of_range_without_spawning() {
        let (g, tree, o) = grid_stack(4);
        let engine = BatchQueryEngine::new(2);
        let bad = [(NodeId(0), NodeId(1)), (NodeId(3), NodeId(99))];
        assert!(matches!(
            engine.try_run_paths(&o, &g, &tree, &bad),
            Err(Error::NodeOutOfRange { num_nodes: 16, .. })
        ));
        let good = [(NodeId(0), NodeId(15)), (NodeId(7), NodeId(7))];
        assert_eq!(
            engine.try_run_paths(&o, &g, &tree, &good).unwrap(),
            vec![
                o.query_path(&g, &tree, NodeId(0), NodeId(15)),
                o.query_path(&g, &tree, NodeId(7), NodeId(7)),
            ]
        );
        assert_eq!(
            engine.try_run_paths(&o, &g, &tree, &[]).unwrap(),
            Vec::<Option<WitnessPath>>::new()
        );
    }
}
