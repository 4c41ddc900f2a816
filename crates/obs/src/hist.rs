//! Log-linear histogram bucketing and the snapshot-side histogram value.
//!
//! Values are bucketed HDR-style: each power-of-two segment is split
//! into `2^SUB_BITS = 16` equal sub-buckets, so the relative error of a
//! bucket's lower bound is at most `1/16 ≈ 6.25%`. Values `0..16` get
//! exact unit buckets. The full `u64` range fits in [`NUM_BUCKETS`]
//! buckets, so a live histogram is one flat array of atomic counters.
//!
//! Bucket counts are plain sums, which makes [`HistogramStat::merge`]
//! commutative and associative — the private per-worker tallies of a
//! sharded run fold into the same histogram regardless of thread count
//! or interleaving, as long as the multiset of recorded values is the
//! same.

/// log2 of the number of sub-buckets per power-of-two segment.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two segment.
pub const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total number of buckets needed to cover all of `u64`.
/// Segment 0 covers `0..16` exactly; segments `1..=60` cover
/// `[2^(s+3), 2^(s+4))` with 16 sub-buckets each.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) << SUB_BITS;

/// Maps a recorded value to its bucket index (`0..NUM_BUCKETS`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let seg = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB_COUNT - 1)) as usize;
    (seg << SUB_BITS) + sub
}

/// The smallest value that maps to bucket `i` — the bucket's
/// representative when estimating quantiles.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    let seg = (i >> SUB_BITS) as u32;
    let sub = (i as u64) & (SUB_COUNT - 1);
    if seg == 0 {
        return sub;
    }
    let msb = seg + SUB_BITS - 1;
    (1u64 << msb) + (sub << (msb - SUB_BITS))
}

/// A point-in-time copy of one histogram: exact `count/sum/min/max`
/// plus sparse non-empty buckets, sorted by bucket index.
///
/// Quantiles are estimated from bucket lower bounds clamped to
/// `[min, max]`, which keeps the estimate within one bucket (≤ 1/16
/// relative error) of the exact order statistic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramStat {
    /// Metric name, e.g. `"oracle.query.latency_ns"`.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping add on overflow).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// `(bucket_index, count)` for every non-empty bucket, sorted by
    /// bucket index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramStat {
    /// An empty histogram named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        HistogramStat {
            name: name.into(),
            ..HistogramStat::default()
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one value (snapshot-side / single-threaded form; the
    /// live atomic histogram records lock-free and is snapshotted into
    /// this type).
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v) as u32;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Mean of recorded values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the lower bound of
    /// the bucket holding the rank-`⌈q·count⌉` value, clamped to
    /// `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_lower(idx as usize).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges `other` into `self`: bucket-wise count sums plus
    /// min/max/count/sum folds. Commutative and associative, so a
    /// reduction over per-worker histograms is order-independent.
    pub fn merge(&mut self, other: &HistogramStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ai, an)), Some(&&(bi, bn))) => {
                    if ai < bi {
                        merged.push((ai, an));
                        a.next();
                    } else if bi < ai {
                        merged.push((bi, bn));
                        b.next();
                    } else {
                        merged.push((ai, an + bn));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// Writes this histogram as one JSON object value (name, exact
    /// stats, derived quantiles, sparse buckets).
    pub fn write_json(&self, w: &mut crate::JsonWriter) {
        w.begin_object();
        w.key("name");
        w.string(&self.name);
        w.key("count");
        w.uint(self.count);
        w.key("sum");
        w.uint(self.sum);
        w.key("min");
        w.uint(self.min);
        w.key("max");
        w.uint(self.max);
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
            w.key(label);
            w.uint(self.quantile(q).unwrap_or(0));
        }
        w.key("buckets");
        w.begin_array();
        for &(idx, n) in &self.buckets {
            w.begin_array();
            w.uint(idx as u64);
            w.uint(n);
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // exhaustive over the small range, spot checks across segments
        let mut prev = bucket_index(0);
        for v in 1u64..4096 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket_index not monotone at {v}");
            assert!(
                bucket_lower(idx) <= v,
                "lower bound {} above value {v}",
                bucket_lower(idx)
            );
            prev = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_lower_inverts_index() {
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(
                bucket_index(lo),
                i,
                "bucket_lower({i}) = {lo} not a fixpoint"
            );
        }
    }

    #[test]
    fn relative_error_bounded() {
        for v in [17u64, 100, 999, 123_456, 7_000_000_000] {
            let lo = bucket_lower(bucket_index(v));
            assert!(lo <= v);
            assert!(
                (v - lo) as f64 <= v as f64 / SUB_COUNT as f64,
                "error too large at {v}: lower {lo}"
            );
        }
    }

    #[test]
    fn record_and_quantile() {
        let mut h = HistogramStat::new("t");
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 5050);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!((44..=50).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = HistogramStat::new("t");
        let mut b = HistogramStat::new("t");
        let mut both = HistogramStat::new("t");
        for v in [3u64, 900, 17, 0, 65_536] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 900, 2_000_000] {
            b.record(v);
            both.record(v);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m, both);
        // commutativity
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m2, both);
    }
}
