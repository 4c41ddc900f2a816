//! Sharded parallel execution — the workspace's one worker pattern.
//!
//! Every parallel surface in the workspace has the same shape: a list of
//! independent work items fans out across `std::thread::scope` workers,
//! each worker owns a reusable scratch arena, per-worker progress is
//! published as `<prefix>.workerNN.*` obs counters, and the results are
//! stitched back **in input order** so the parallel run is bit-identical
//! to a sequential loop. [`ShardedRunner`] is that pattern extracted
//! once: oracle batch queries, oracle label construction, routing-table
//! construction, batch routing, and the small-world builds all run on
//! it instead of hand-rolling the scope/claim/merge dance.
//!
//! Work is claimed from an atomic cursor in blocks of
//! [`ShardedRunner::min_chunk`] items, so stragglers cannot serialize a
//! run the way fixed pre-chunking can; because results are placed by
//! input index, the claim schedule can never leak into the output.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::decomposition::available_threads;

/// Obs counter naming for a sharded run: workers publish
/// `<prefix>.workerNN.<items>` (items processed) and
/// `<prefix>.workerNN.<units>` (domain-specific work units, e.g.
/// candidates scanned or vertices reached).
#[derive(Clone, Copy, Debug)]
pub struct ShardObs {
    /// Counter prefix, e.g. `"oracle.batch"`.
    pub prefix: &'static str,
    /// Per-worker item counter suffix, e.g. `"pairs"`.
    pub items: &'static str,
    /// Per-worker unit counter suffix, e.g. `"candidates"`.
    pub units: &'static str,
}

impl ShardObs {
    /// Publishes one worker's aggregated counters (no-op unless obs is
    /// enabled at runtime).
    pub fn record(&self, worker: usize, items: u64, units: u64) {
        if !psep_obs::enabled() {
            return;
        }
        psep_obs::counter(&format!("{}.worker{worker:02}.{}", self.prefix, self.items)).add(items);
        psep_obs::counter(&format!("{}.worker{worker:02}.{}", self.prefix, self.units)).add(units);
    }

    /// Per-worker distribution handles for one sharded run:
    /// `<prefix>.workerNN.<units>` (work units per item) and
    /// `<prefix>.workerNN.latency_ns` (wall time per item). Snapshots
    /// roll these up into `<prefix>.<units>` / `<prefix>.latency_ns`
    /// ([`psep_obs::Snapshot::rollup_workers`]); because histogram merge
    /// is order-independent, the rolled-up distributions are identical
    /// at every thread count.
    pub fn worker_hists(&self, worker: usize) -> WorkerHists {
        if !psep_obs::enabled() {
            return WorkerHists {
                units: None,
                latency: None,
            };
        }
        WorkerHists {
            units: Some(psep_obs::histogram(&format!(
                "{}.worker{worker:02}.{}",
                self.prefix, self.units
            ))),
            latency: Some(psep_obs::histogram(&format!(
                "{}.worker{worker:02}.latency_ns",
                self.prefix
            ))),
        }
    }
}

/// Histogram handles held by one sharded worker (see
/// [`ShardObs::worker_hists`]); `None` inside when recording is
/// disabled, making construction and recording free.
#[derive(Clone, Copy, Debug)]
pub struct WorkerHists {
    units: Option<&'static psep_obs::Histogram>,
    latency: Option<&'static psep_obs::Histogram>,
}

impl WorkerHists {
    /// Records one item's work units and, when `start` came from
    /// [`psep_obs::now_if_enabled`], its wall time.
    #[inline]
    pub fn record(&self, units: u64, start: Option<std::time::Instant>) {
        if let Some(h) = self.units {
            h.record(units);
        }
        if let (Some(h), Some(t0)) = (self.latency, start) {
            h.record_elapsed(t0);
        }
    }
}

/// A reusable sharded executor with a fixed thread budget.
///
/// The work function maps one item to `(result, units)`; [`run`] returns
/// all results in input order plus the summed units, identically at
/// every thread count. `threads == 1` (or a single-item list) is the
/// pure sequential path — no threads are spawned.
///
/// [`run`]: ShardedRunner::run
#[derive(Clone, Copy, Debug)]
pub struct ShardedRunner {
    threads: usize,
    min_chunk: usize,
}

impl Default for ShardedRunner {
    fn default() -> Self {
        ShardedRunner::new(0)
    }
}

impl ShardedRunner {
    /// A runner with `threads` workers (`0` means
    /// [`available_threads()`], which honors `PSEP_THREADS`).
    pub fn new(threads: usize) -> Self {
        ShardedRunner {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
            min_chunk: 1,
        }
    }

    /// Sets the claim granularity: the minimum items per worker, and the
    /// block size workers claim from the shared cursor (default 1).
    /// Below it, extra threads cost more to start than they save.
    pub fn min_chunk(mut self, min_chunk: usize) -> Self {
        self.min_chunk = min_chunk.max(1);
        self
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers a run over `items` items would use:
    /// `threads.min(items.div_ceil(min_chunk)).max(1)`.
    pub fn worker_count(&self, items: usize) -> usize {
        self.threads.min(items.div_ceil(self.min_chunk)).max(1)
    }

    /// Maps every item through `work`, fanning out across at most
    /// `scratches.len()` workers (one scratch per worker, reusable
    /// across calls), and returns `(results in input order, summed
    /// units)`. With one worker the items are processed in order on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `scratches` is empty, or if a worker panics.
    pub fn run<I, S, T>(
        &self,
        items: &[I],
        obs: Option<&ShardObs>,
        scratches: &mut [S],
        work: impl Fn(&mut S, &I) -> (T, u64) + Sync,
    ) -> (Vec<T>, u64)
    where
        I: Sync,
        S: Send,
        T: Send,
    {
        assert!(!scratches.is_empty(), "ShardedRunner needs >= 1 scratch");
        let workers = self.worker_count(items.len()).min(scratches.len());
        if workers <= 1 {
            let scratch = &mut scratches[0];
            let mut units = 0u64;
            let out: Vec<T> = items
                .iter()
                .map(|item| {
                    let (t, u) = work(scratch, item);
                    units += u;
                    t
                })
                .collect();
            if let Some(o) = obs {
                o.record(0, items.len() as u64, units);
            }
            return (out, units);
        }
        let block = self.min_chunk;
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        let mut total_units = 0u64;
        std::thread::scope(|s| {
            let (cursor_ref, work_ref) = (&cursor, &work);
            let handles: Vec<_> = scratches
                .iter_mut()
                .take(workers)
                .map(|scratch| {
                    s.spawn(move || {
                        let mut claimed: Vec<(usize, Vec<T>)> = Vec::new();
                        let (mut count, mut units) = (0u64, 0u64);
                        loop {
                            let start = cursor_ref.fetch_add(block, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = items.len().min(start + block);
                            let out: Vec<T> = items[start..end]
                                .iter()
                                .map(|item| {
                                    let (t, u) = work_ref(scratch, item);
                                    units += u;
                                    t
                                })
                                .collect();
                            count += (end - start) as u64;
                            claimed.push((start, out));
                        }
                        (claimed, count, units)
                    })
                })
                .collect();
            for (wi, handle) in handles.into_iter().enumerate() {
                let (claimed, count, units) = handle.join().expect("sharded worker panicked");
                if let Some(o) = obs {
                    o.record(wi, count, units);
                }
                total_units += units;
                for (start, out) in claimed {
                    for (offset, t) in out.into_iter().enumerate() {
                        slots[start + offset] = Some(t);
                    }
                }
            }
        });
        let results = slots
            .into_iter()
            .map(|t| t.expect("unclaimed work item"))
            .collect();
        (results, total_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stay_in_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let runner = ShardedRunner::new(threads).min_chunk(7);
            let mut scratches = vec![(); runner.worker_count(items.len())];
            let (out, units) = runner.run(&items, None, &mut scratches, |_, &x| (x * x, 1));
            assert_eq!(out, expected, "threads = {threads}");
            assert_eq!(units, 1000, "threads = {threads}");
        }
    }

    #[test]
    fn scratches_are_reused_and_bound_worker_count() {
        let items: Vec<usize> = (0..100).collect();
        let runner = ShardedRunner::new(8);
        // two scratches => at most two workers, every item touches one
        let mut scratches = vec![0usize; 2];
        let (out, _) = runner.run(&items, None, &mut scratches, |s, &x| {
            *s += 1;
            (x, 0)
        });
        assert_eq!(out, items);
        assert_eq!(scratches.iter().sum::<usize>(), 100);
    }

    #[test]
    fn worker_count_respects_min_chunk() {
        let runner = ShardedRunner::new(8).min_chunk(512);
        assert_eq!(runner.worker_count(0), 1);
        assert_eq!(runner.worker_count(511), 1);
        assert_eq!(runner.worker_count(513), 2);
        assert_eq!(runner.worker_count(1 << 20), 8);
        assert_eq!(ShardedRunner::new(1).worker_count(1 << 20), 1);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(ShardedRunner::new(0).threads() >= 1);
        assert!(ShardedRunner::default().threads() >= 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let runner = ShardedRunner::new(4);
        let mut scratches = vec![()];
        let (out, units) = runner.run(&[] as &[u32], None, &mut scratches, |_, &x| (x, 1));
        assert!(out.is_empty());
        assert_eq!(units, 0);
    }
}
