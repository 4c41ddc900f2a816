//! Compile-time cost contract of the obs-off build: every
//! instrumentation type is a ZST and every operation compiles (to
//! nothing). Runs under `cargo test -p psep-obs` (the feature is off by
//! default); workspace-wide runs unify the `obs` feature on, which
//! compiles this file out.

#![cfg(not(feature = "obs"))]

use std::mem::size_of;

#[test]
fn obs_off_types_are_zero_sized() {
    assert_eq!(size_of::<psep_obs::Counter>(), 0);
    assert_eq!(size_of::<psep_obs::Gauge>(), 0);
    assert_eq!(size_of::<psep_obs::Histogram>(), 0);
    assert_eq!(size_of::<psep_obs::SpanGuard>(), 0);
}

#[test]
fn obs_off_operations_are_inert() {
    // `enabled` must be a const false so guarded blocks fold away.
    const OFF: bool = psep_obs::enabled();
    assert!(!OFF);

    psep_obs::set_enabled(true);
    assert!(!psep_obs::enabled());

    let c = psep_obs::counter!("zst.counter");
    c.add(7);
    c.incr();
    assert_eq!(c.get(), 0);

    let g = psep_obs::gauge!("zst.gauge");
    g.set(1.5);
    g.set_max(9.0);
    assert_eq!(g.get(), 0.0);

    let h = psep_obs::histogram!("zst.hist");
    h.record(123);
    h.merge(&psep_obs::HistogramStat::new("zst.tally"));
    assert_eq!(h.count(), 0);
    assert!(h.stat("zst.hist").is_empty());
    assert!(psep_obs::now_if_enabled().is_none());

    {
        let _s = psep_obs::span!("zst.span");
    }

    let snap = psep_obs::snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.spans.is_empty());
}
