//! Live (feature-on) histogram behavior: concurrent lock-free
//! recording, registry snapshots, folding private tallies, and reset.
//!
//! Kept as a single test function in its own binary so no other test
//! can pollute the process-global obs registry.

#![cfg(feature = "obs")]

use psep_obs::HistogramStat;

#[test]
fn live_histograms_record_snapshot_and_reset() {
    psep_obs::set_enabled(true);
    psep_obs::reset();

    // concurrent recording into one histogram is lossless
    let h = psep_obs::histogram("live.concurrent");
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..1000u64 {
                    h.record(t * 1000 + i);
                }
            });
        }
    });
    assert_eq!(h.count(), 4000);
    let stat = h.stat("live.concurrent");
    assert_eq!(stat.count, 4000);
    assert_eq!(stat.min, 0);
    assert_eq!(stat.max, 3999);
    assert_eq!(stat.sum, (0..4000u64).sum::<u64>());
    assert_eq!(stat.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4000);

    // recording while disabled is a no-op
    psep_obs::set_enabled(false);
    h.record(1);
    psep_obs::set_enabled(true);
    assert_eq!(h.count(), 4000);

    // a privately tallied stat folds in as if recorded directly
    let mut tally = HistogramStat::default();
    for v in [10u64, 20, 30, 40] {
        tally.record(v);
    }
    let pool = psep_obs::histogram("live.pool.lat");
    pool.merge(&tally);
    pool.merge(&HistogramStat::default());
    tally.name = "live.pool.lat".into();
    let snap = psep_obs::snapshot();
    assert_eq!(snap.histogram("live.pool.lat"), Some(&tally));
    assert!(snap.histogram("live.concurrent").is_some());

    // the histogram! macro caches a handle onto the same registry entry
    let m = psep_obs::histogram!("live.macro");
    m.record(5);
    assert_eq!(psep_obs::histogram("live.macro").count(), 1);

    // timing helper records only when enabled
    if let Some(t0) = psep_obs::now_if_enabled() {
        psep_obs::histogram!("live.timer").record_elapsed(t0);
    }
    assert_eq!(psep_obs::histogram("live.timer").count(), 1);

    // reset zeroes everything but keeps handles valid
    psep_obs::reset();
    assert_eq!(h.count(), 0);
    assert!(psep_obs::snapshot().histograms.is_empty());
    h.record(2);
    assert_eq!(h.stat("x").min, 2);

    psep_obs::set_enabled(false);
}
