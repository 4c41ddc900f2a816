//! Every sharded stage publishes the same metrics at every thread
//! count: building the service and serving the same batch workload
//! under 1, 2, and 4 threads has to produce equal run totals (items and
//! work units per stage) and bit-identical merged histograms for every
//! value-deterministic metric (candidate scans per query, nodes per
//! path, hops per route). Latency histograms are excluded — their
//! recorded values are wall-clock. Metric names are fixed: no snapshot
//! carries a per-worker series.
//!
//! Sole test in this binary: it toggles the process-wide `psep-obs`
//! enable flag, resets the registry and sets `PSEP_THREADS`, which
//! would race with any other obs-reading test in the same process.

use path_separators::service::ServiceParams;
use path_separators::{BatchQueryEngine, LocationService, NodeId};
use psep_graph::generators::grids;

/// Run totals of every sharded stage the workload drives.
const TOTALS: [&str; 12] = [
    "core.build.components",
    "core.build.vertices",
    "oracle.label.sources",
    "oracle.label.reached",
    "routing.build.groups",
    "routing.build.entries",
    "oracle.batch.pairs",
    "oracle.batch.candidates_scanned",
    "routing.batch.routes",
    "routing.batch.hops",
    "oracle.path.batch.pairs",
    "oracle.path.batch.nodes",
];

/// Per-item distributions whose recorded values are deterministic.
const HISTOGRAMS: [&str; 4] = [
    "oracle.batch.candidates",
    "oracle.path.batch.nodes",
    "routing.batch.hops",
    "routing.route.hops",
];

#[test]
fn histogram_rollups_are_thread_count_independent() {
    psep_obs::set_enabled(true);
    assert!(psep_obs::enabled(), "tests link the live obs backend");

    let g = grids::grid2d(12, 12, 1);
    let n = g.num_nodes() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..400u32)
        .map(|i| (NodeId(i * 7 % n), NodeId((i * 13 + 5) % n)))
        .collect();

    let mut snaps = Vec::new();
    let mut paths = Vec::new();
    for &threads in &[1usize, 2, 4] {
        psep_obs::reset();
        let svc = LocationService::build(
            &g,
            ServiceParams {
                threads,
                ..ServiceParams::default()
            },
        );
        let engine = BatchQueryEngine::new(threads).min_chunk(16);
        let answers = engine.run(svc.oracle(), &pairs);
        assert_eq!(answers.len(), pairs.len());
        let outcomes = svc.router().route_many_with(&pairs, threads);
        assert_eq!(outcomes.len(), pairs.len());
        // the service's batch calls size their runner from PSEP_THREADS
        std::env::set_var("PSEP_THREADS", threads.to_string());
        paths.push(svc.try_query_path_many(&pairs).expect("in-range pairs"));
        snaps.push((threads, psep_obs::snapshot()));
    }
    std::env::remove_var("PSEP_THREADS");
    assert!(paths.iter().all(|p| *p == paths[0]));

    let (_, base) = &snaps[0];
    for name in TOTALS {
        let c0 = base.counter(name).unwrap_or_else(|| {
            panic!(
                "counter `{name}` missing; present: {:?}",
                base.counters.iter().map(|(n, _)| n).collect::<Vec<_>>()
            )
        });
        assert!(c0 > 0, "`{name}` counted nothing");
        for (threads, snap) in &snaps[1..] {
            assert_eq!(
                snap.counter(name),
                Some(c0),
                "`{name}` differs between 1 and {threads} threads"
            );
        }
    }
    for name in HISTOGRAMS {
        let h0 = base.histogram(name).unwrap_or_else(|| {
            panic!(
                "histogram `{name}` missing; present: {:?}",
                base.histograms.iter().map(|h| &h.name).collect::<Vec<_>>()
            )
        });
        assert!(h0.count > 0, "`{name}` recorded nothing");
        for (threads, snap) in &snaps[1..] {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("`{name}` missing at {threads} threads"));
            assert_eq!(h0, h, "`{name}` differs between 1 and {threads} threads");
        }
    }

    for (threads, snap) in &snaps {
        let names = snap
            .counters
            .iter()
            .map(|(n, _)| n)
            .chain(snap.gauges.iter().map(|(n, _)| n))
            .chain(snap.histograms.iter().map(|h| &h.name))
            .chain(snap.spans.iter().map(|s| &s.path));
        for name in names {
            // `<stage>.workers` is a run's worker count; a per-worker
            // series would be `<stage>.workerNN.<name>`
            let per_worker = name.split('.').any(|part| {
                part.strip_prefix("worker")
                    .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
            });
            assert!(
                !per_worker,
                "per-worker series `{name}` at {threads} threads"
            );
        }
    }
}
