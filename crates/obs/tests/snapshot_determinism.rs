//! Byte-stability of snapshot rendering. These operate on [`Snapshot`]
//! values directly (shared between live and no-op builds), so they run
//! with or without the `obs` feature.

use psep_obs::{HistogramStat, Snapshot, SpanStat};

fn hist(name: &str, values: &[u64]) -> HistogramStat {
    let mut h = HistogramStat::new(name);
    for &v in values {
        h.record(v);
    }
    h
}

/// The same logical snapshot assembled in two different orders.
fn scrambled_pair() -> (Snapshot, Snapshot) {
    let mk = |reversed: bool| {
        let mut s = Snapshot {
            counters: vec![("b.count".into(), 2), ("a.count".into(), 1)],
            gauges: vec![("z.gauge".into(), 0.5), ("m.gauge".into(), 3.0)],
            histograms: vec![hist("y.lat", &[5, 900, 17]), hist("x.lat", &[1, 2, 3])],
            spans: vec![
                SpanStat {
                    path: "b/inner".into(),
                    count: 1,
                    total_s: 0.25,
                    max_s: 0.25,
                },
                SpanStat {
                    path: "a/outer".into(),
                    count: 2,
                    total_s: 1.0,
                    max_s: 0.75,
                },
            ],
        };
        if reversed {
            s.counters.reverse();
            s.gauges.reverse();
            s.histograms.reverse();
            s.spans.reverse();
        }
        s.normalize();
        s
    };
    (mk(false), mk(true))
}

#[test]
fn to_json_is_byte_stable_across_construction_order() {
    let (a, b) = scrambled_pair();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
    // stable across repeated rendering too
    assert_eq!(a.to_json(), a.to_json());
}

#[test]
fn ndjson_is_byte_stable_and_one_line_per_metric() {
    let (a, b) = scrambled_pair();
    let render = |s: &Snapshot| {
        let mut buf = Vec::new();
        s.write_ndjson(&mut buf, Some("scope")).unwrap();
        String::from_utf8(buf).unwrap()
    };
    let (ta, tb) = (render(&a), render(&b));
    assert_eq!(ta, tb);
    assert_eq!(
        ta.lines().count(),
        a.counters.len() + a.gauges.len() + a.histograms.len() + a.spans.len()
    );
    assert!(ta.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
}

#[test]
fn json_shape_includes_histograms_section() {
    let (a, _) = scrambled_pair();
    let json = a.to_json();
    assert!(json.contains(r#""histograms":[{"name":"x.lat""#), "{json}");
    assert!(json.contains(r#""p50":"#));
    assert!(json.contains(r#""buckets":[["#));
}
