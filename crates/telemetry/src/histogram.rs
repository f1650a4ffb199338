//! Fixed-bucket latency histograms.
//!
//! The paper reports latency and block-period *averages*; distributions say
//! much more (tail views that hit the τ timeout, the bimodal block period of
//! Simple Moonshot). A [`Histogram`] buckets `u64` samples — microseconds,
//! by convention — at fixed width, tracks exact min/max/sum, and answers
//! percentile queries to bucket resolution.

use crate::json::JsonObject;

/// A fixed-width-bucket histogram over `u64` samples.
///
/// Samples at or above `bucket_width × buckets` land in an overflow bucket;
/// percentile queries then answer with the exact maximum, so an undersized
/// histogram degrades precision, never correctness of the extremes.
#[derive(Clone, Debug)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram of `buckets` buckets, each `bucket_width` wide, covering
    /// `[0, bucket_width × buckets)` plus overflow.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(buckets > 0, "bucket count must be positive");
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Sized for simulated latencies: 1 ms buckets up to 60 s.
    pub fn for_latency_us() -> Self {
        Histogram::new(1_000, 60_000)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        match self.counts.get_mut(idx) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at quantile `q ∈ [0, 1]`, to bucket resolution: the upper
    /// edge of the bucket holding the `⌈q·count⌉`-th smallest sample,
    /// clamped to the exact max. `None` when empty.
    ///
    /// `q = 0` answers the exact min, `q = 1` the exact max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = (i as u64 + 1) * self.bucket_width;
                return Some(upper.min(self.max).max(self.min));
            }
        }
        // The rank falls in the overflow bucket: all we know is "≤ max".
        Some(self.max)
    }

    /// Condensed `Copy` summary of the distribution.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(f64::NAN),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// The percentiles a [`Histogram`] boils down to in reports.
///
/// Units are whatever the histogram recorded — microseconds throughout this
/// workspace. `count == 0` means no samples; the other fields are then 0/NaN.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact mean (NaN when empty).
    pub mean: f64,
    /// Median, to bucket resolution.
    pub p50: u64,
    /// 90th percentile, to bucket resolution.
    pub p90: u64,
    /// 99th percentile, to bucket resolution.
    pub p99: u64,
}

impl HistogramSummary {
    /// A summary with no samples.
    pub fn empty() -> Self {
        HistogramSummary { count: 0, min: 0, max: 0, mean: f64::NAN, p50: 0, p90: 0, p99: 0 }
    }

    /// Serialises the summary (interpreting values as microseconds) with
    /// millisecond floats, the unit the paper's figures use.
    pub fn to_json_ms(&self) -> String {
        let ms = |us: u64| us as f64 / 1_000.0;
        let mut o = JsonObject::new();
        o.field_u64("count", self.count);
        o.field_f64("min_ms", if self.count > 0 { ms(self.min) } else { f64::NAN });
        o.field_f64("p50_ms", if self.count > 0 { ms(self.p50) } else { f64::NAN });
        o.field_f64("p90_ms", if self.count > 0 { ms(self.p90) } else { f64::NAN });
        o.field_f64("p99_ms", if self.count > 0 { ms(self.p99) } else { f64::NAN });
        o.field_f64("max_ms", if self.count > 0 { ms(self.max) } else { f64::NAN });
        o.field_f64("mean_ms", self.mean / 1_000.0);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_answers_none() {
        let h = Histogram::new(10, 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert!(s.mean.is_nan());
    }

    #[test]
    fn bucket_boundaries() {
        let mut h = Histogram::new(10, 4); // [0,10) [10,20) [20,30) [30,40) + overflow
        h.record(0);
        h.record(9);
        h.record(10); // first value of second bucket
        h.record(39);
        h.record(40); // overflow
        h.record(1_000); // overflow
        assert_eq!(h.count(), 6);
        assert_eq!(h.counts, vec![2, 1, 0, 1]);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000));
    }

    #[test]
    fn percentiles_to_bucket_resolution() {
        let mut h = Histogram::new(1, 1_000);
        for v in 1..=100u64 {
            h.record(v);
        }
        // Width-1 buckets: the quantile answer is the bucket upper edge,
        // i.e. value + 1, clamped to max.
        assert_eq!(h.quantile(0.50), Some(51));
        assert_eq!(h.quantile(0.90), Some(91));
        assert_eq!(h.quantile(0.99), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn single_sample_collapses_everything() {
        let mut h = Histogram::new(100, 10);
        h.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(42), "q={q}");
        }
        let s = h.summary();
        assert_eq!((s.min, s.p50, s.p99, s.max), (42, 42, 42, 42));
    }

    #[test]
    fn quantiles_at_exact_bucket_edges() {
        // Samples sitting exactly on bucket edges: value v lands in bucket
        // [v, v+w), so the quantile answer (the bucket's upper edge) is
        // v + w, clamped to the exact max/min.
        let mut h = Histogram::new(10, 100);
        for v in [0u64, 10, 20, 30] {
            h.record(v);
        }
        // rank(0.25) = ⌈0.25·4⌉ = 1 → bucket [0,10) → upper edge 10.
        assert_eq!(h.quantile(0.25), Some(10));
        // rank(0.5) = 2 → bucket [10,20) → upper edge 20.
        assert_eq!(h.quantile(0.50), Some(20));
        // rank(0.75) = 3 → bucket [20,30) → upper edge 30.
        assert_eq!(h.quantile(0.75), Some(30));
        // rank(0.76) = ⌈3.04⌉ = 4 → bucket [30,40) → edge 40, clamped to
        // the exact max 30.
        assert_eq!(h.quantile(0.76), Some(30));
        // The extremes stay exact regardless of bucketing.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(30));
    }

    #[test]
    fn quantile_rank_boundary_between_buckets() {
        // 10 samples in bucket 0, 10 in bucket 1: q = 0.5 has rank 10,
        // which is the *last* sample of bucket 0 — the answer must be
        // bucket 0's upper edge, not bucket 1's.
        let mut h = Histogram::new(100, 10);
        for _ in 0..10 {
            h.record(50); // bucket [0, 100)
        }
        for _ in 0..10 {
            h.record(150); // bucket [100, 200)
        }
        assert_eq!(h.quantile(0.50), Some(100));
        // One sample more and the rank tips into bucket 1, whose upper
        // edge (200) clamps to the exact max.
        h.record(150);
        assert_eq!(h.quantile(0.50), Some(150));
    }

    #[test]
    fn quantile_clamps_to_min_when_first_bucket_is_sparse() {
        // A single sample deep inside the first bucket: the bucket's upper
        // edge exceeds the sample, so answers clamp to the exact min/max.
        let mut h = Histogram::new(1_000, 10);
        h.record(1);
        h.record(2);
        assert_eq!(h.quantile(0.5), Some(2)); // edge 1000 clamped to max 2
        assert_eq!(h.quantile(0.01), Some(2)); // rank 1, same bucket
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn overflow_quantiles_fall_back_to_max() {
        let mut h = Histogram::new(10, 2); // covers [0, 20)
        h.record(5);
        h.record(500);
        h.record(700);
        assert_eq!(h.quantile(0.99), Some(700));
        assert_eq!(h.max(), Some(700));
    }

    #[test]
    fn summary_is_ordered() {
        let mut h = Histogram::for_latency_us();
        let mut x = 424_242u64;
        for _ in 0..10_000 {
            // Cheap LCG spread over ~0–4 s.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record(x % 4_000_000);
        }
        let s = h.summary();
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn json_summary_has_ms_fields() {
        let mut h = Histogram::new(1_000, 100);
        h.record(31_000);
        let json = h.summary().to_json_ms();
        assert!(json.contains("\"p50_ms\":"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"mean_ms\":31"));
    }
}
