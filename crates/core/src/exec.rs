//! Sharded parallel execution — the workspace's one worker pattern.
//!
//! Every parallel stage in the workspace has the same shape: a list of
//! independent work items fans out across `std::thread::scope` workers,
//! each worker owns a reusable scratch arena, and the results are
//! stitched back **in input order** so the parallel run is bit-identical
//! to a sequential loop. [`ShardedRunner`] is that pattern extracted
//! once: the decomposition waves, the residual pass behind the label,
//! routing-table, doubling-label and augmentation builds (with the
//! source ranges of its largest residual graphs), batch queries and
//! batch paths, and batch routing all run on it, at every thread count.
//!
//! Work is claimed from an atomic cursor in blocks of
//! [`ShardedRunner::min_chunk`] items, so stragglers cannot serialize a
//! run the way fixed pre-chunking can; because results are placed by
//! input index, the claim schedule can never leak into the output. A
//! one-worker run is the same claim loop on the calling thread, taking
//! every item in one block.
//!
//! A run given a [`ShardObs`] publishes fixed metric names once per
//! run: each worker tallies its items, units and per-item distributions
//! privately, and the runner folds the tallies into the one
//! `<prefix>.<name>` aggregate after the workers join. Counter totals
//! and the units distribution are therefore identical at every thread
//! count, and no shared atomic is touched per item.

use std::sync::atomic::{AtomicUsize, Ordering};

use psep_obs::HistogramStat;

use crate::decomposition::available_threads;

/// Metric naming for a sharded run: the runner adds the run's item
/// count to the `<prefix>.<items>` counter and its summed work units
/// (e.g. candidates scanned or vertices reached) to `<prefix>.<units>`,
/// and raises the `<prefix>.workers` gauge to the run's worker count.
#[derive(Clone, Copy, Debug)]
pub struct ShardObs {
    /// Metric prefix, e.g. `"oracle.batch"`.
    pub prefix: &'static str,
    /// Item counter suffix, e.g. `"pairs"`.
    pub items: &'static str,
    /// Work-unit counter suffix, e.g. `"candidates_scanned"`.
    pub units: &'static str,
    /// Per-item distributions: `Some(name)` also records each item's
    /// work units into the `<prefix>.<name>` histogram and its wall time
    /// into `<prefix>.latency_ns`. Histogram merge is order-independent,
    /// so the units distribution is identical at every thread count.
    pub hist: Option<&'static str>,
}

impl ShardObs {
    /// Folds one run's totals and the workers' private distributions
    /// into the shared metrics (no-op unless obs is enabled at runtime).
    fn publish(&self, items: usize, units: u64, tallies: &[Tally]) {
        if !psep_obs::enabled() {
            return;
        }
        let name = |suffix: &str| format!("{}.{suffix}", self.prefix);
        psep_obs::counter(&name(self.items)).add(items as u64);
        psep_obs::counter(&name(self.units)).add(units);
        // one tally per worker that ran
        psep_obs::gauge(&name("workers")).set_max(tallies.len() as f64);
        if let Some(hist) = self.hist {
            let (units_h, latency_h) = (
                psep_obs::histogram(&name(hist)),
                psep_obs::histogram(&name("latency_ns")),
            );
            for tally in tallies {
                units_h.merge(&tally.units);
                latency_h.merge(&tally.latency);
            }
        }
    }
}

/// One worker's private per-item distributions for a run whose
/// [`ShardObs::hist`] is set (empty otherwise).
#[derive(Default)]
struct Tally {
    units: HistogramStat,
    latency: HistogramStat,
}

/// What one worker hands back: its claimed blocks as
/// `(first item index, results)`, its summed units, and its tally.
struct Shard<T> {
    blocks: Vec<(usize, Vec<T>)>,
    units: u64,
    tally: Tally,
}

/// A reusable sharded executor with a fixed thread budget.
///
/// The work function maps one item to `(result, units)`; [`run`] returns
/// all results in input order plus the summed units, identically at
/// every thread count. A run that gets one worker (`threads == 1`, a
/// single scratch, or fewer than two blocks of items) spawns no thread.
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
    /// Panics if `scratches` is empty. A panic in `work` reaches the
    /// caller with its own payload, from whichever worker raised it.
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
        let block = if workers == 1 {
            items.len().max(1)
        } else {
            self.min_chunk
        };
        let timed = obs.is_some_and(|o| o.hist.is_some()) && psep_obs::enabled();
        let cursor = AtomicUsize::new(0);
        let drain = |scratch: &mut S| {
            let mut shard = Shard {
                blocks: Vec::new(),
                units: 0,
                tally: Tally::default(),
            };
            loop {
                let start = cursor.fetch_add(block, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                let end = items.len().min(start + block);
                let out: Vec<T> = items[start..end]
                    .iter()
                    .map(|item| {
                        let t0 = timed.then(std::time::Instant::now);
                        let (t, u) = work(scratch, item);
                        shard.units += u;
                        if let Some(t0) = t0 {
                            shard.tally.units.record(u);
                            let ns = t0.elapsed().as_nanos();
                            shard.tally.latency.record(ns.min(u64::MAX as u128) as u64);
                        }
                        t
                    })
                    .collect();
                shard.blocks.push((start, out));
            }
            shard
        };
        let shards: Vec<Shard<T>> = if workers == 1 {
            vec![drain(&mut scratches[0])]
        } else {
            let drain = &drain;
            std::thread::scope(|s| {
                let handles: Vec<_> = scratches
                    .iter_mut()
                    .take(workers)
                    .map(|scratch| s.spawn(move || drain(scratch)))
                    .collect();
                handles
                    .into_iter()
                    // re-raise a worker's panic with its own payload,
                    // so the caller sees the message `work` panicked with
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        let mut blocks = Vec::new();
        let mut tallies = Vec::with_capacity(shards.len());
        let mut units = 0u64;
        for shard in shards {
            units += shard.units;
            blocks.extend(shard.blocks);
            tallies.push(shard.tally);
        }
        if let Some(o) = obs {
            o.publish(items.len(), units, &tallies);
        }
        // blocks are disjoint and cover every item: ordering them by
        // their first index restores input order
        blocks.sort_unstable_by_key(|&(start, _)| start);
        let mut results = Vec::with_capacity(items.len());
        for (_, out) in blocks {
            results.extend(out);
        }
        (results, units)
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
    fn a_worker_panic_surfaces_with_its_message() {
        let items: Vec<u32> = (0..64).collect();
        let runner = ShardedRunner::new(4).min_chunk(1);
        let mut scratches = vec![(); runner.worker_count(items.len())];
        assert_eq!(scratches.len(), 4);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run(&items, None, &mut scratches, |_, &x| {
                assert!(x != 37, "item {x} is poisoned");
                (x, 1)
            })
        }))
        .unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 37 is poisoned")
        );
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
