//! A deterministic log-bucketed latency histogram.
//!
//! The request-serving scenarios record one latency sample per completed
//! request and report percentiles (p50/p95/p99/p999) in the sweep results.
//! Because those results are committed as goldens, the histogram is built for
//! bit-reproducibility:
//!
//! * integer-only recording and percentile extraction (no floating point in
//!   any committed value);
//! * HDR-style buckets — exact below 64, then 32 linear sub-buckets per
//!   power of two (≈3% relative resolution) — stored sparsely in a
//!   [`BTreeMap`] so iteration order is defined;
//! * a commutative, associative [`Histogram::merge`], so folding partial
//!   histograms in any order produces identical results (the property the
//!   parallel sweep harness and its proptest rely on).

use std::collections::BTreeMap;

/// Number of linear sub-buckets per power of two above the exact range.
const SUB_BUCKETS: u64 = 32;
/// Sub-bucket resolution bits (`2^SUB_BITS == SUB_BUCKETS`).
const SUB_BITS: u32 = 5;
/// Values below `2 * SUB_BUCKETS` are stored exactly (one bucket per value).
const EXACT_LIMIT: u64 = 2 * SUB_BUCKETS;

/// A sparse log-bucketed histogram of `u64` samples (latencies in cycles).
///
/// # Examples
///
/// ```
/// use misp_types::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v * 1000);
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.value_at_quantile(50, 100);
/// assert!((48_000..=55_000).contains(&p50), "{p50}");
/// assert_eq!(h.value_at_quantile(100, 100), h.max());
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Sample count per bucket index; absent buckets are empty.
    buckets: BTreeMap<u32, u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact sum of all samples (saturating).
    sum: u64,
    /// Exact minimum sample; meaningful only when `count > 0`.
    min: u64,
    /// Exact maximum sample; meaningful only when `count > 0`.
    max: u64,
}

/// The bucket index a value lands in.
fn bucket_of(value: u64) -> u32 {
    if value < EXACT_LIMIT {
        return value as u32;
    }
    // value >= 64 ⇒ floor(log2) >= 6.
    let h = 63 - value.leading_zeros();
    let sub = ((value >> (h - SUB_BITS)) & (SUB_BUCKETS - 1)) as u32;
    EXACT_LIMIT as u32 + (h - SUB_BITS - 1) * SUB_BUCKETS as u32 + sub
}

/// The largest value that maps into `bucket` (the reported percentile value).
fn bucket_upper_bound(bucket: u32) -> u64 {
    if u64::from(bucket) < EXACT_LIMIT {
        return u64::from(bucket);
    }
    let rel = u64::from(bucket) - EXACT_LIMIT;
    let h = (rel / SUB_BUCKETS) as u32 + SUB_BITS + 1;
    let sub = rel % SUB_BUCKETS;
    (1u64 << h) + (sub + 1) * (1u64 << (h - SUB_BITS)) - 1
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.buckets.entry(bucket_of(value)).or_insert(0) += n;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Folds `other` into `self`.  Merging is commutative and associative:
    /// any merge order over any partition of the same samples yields an
    /// identical histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (&bucket, &n) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The exact largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean of the samples (0.0 when empty).  The one floating
    /// point convenience; percentiles stay integral.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `numer / denom` (e.g. `(999, 1000)` for p999),
    /// computed entirely in integers: the upper bound of the bucket holding
    /// the sample of rank `ceil(count * numer / denom)`, clamped to the exact
    /// observed maximum.  Returns 0 for an empty histogram or a zero `denom`
    /// (an undefined quantile is reported as "no latency", never a panic or
    /// a divide-by-zero).
    ///
    /// Boundary convention: when the rank lands exactly on a cumulative-count
    /// boundary (the rank-th sample is the *last* sample of its bucket), the
    /// reported value is that bucket's upper bound — never the next bucket's.
    /// In the exact range (< 64) this means e.g. p50 over the 50 uniform
    /// values `1..=50` is exactly 25, not 26.
    ///
    /// # Panics
    ///
    /// Panics if `numer > denom` (a quantile above 1 is a caller bug, unlike
    /// an empty denominator which legitimately arises from "percentile of
    /// zero completed requests").
    #[must_use]
    pub fn value_at_quantile(&self, numer: u64, denom: u64) -> u64 {
        if denom == 0 {
            return 0;
        }
        assert!(numer <= denom, "quantile {numer}/{denom}");
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * numer).div_ceil(denom).max(1);
        let mut seen = 0u64;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            // `>=` keeps the exact-boundary case (`seen == rank`) in the
            // current bucket; `>` would skate past it to the next one.
            if seen >= rank {
                return bucket_upper_bound(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand for the percentile set the service metrics report:
    /// `(p50, p95, p99, p999)` in sample units.
    #[must_use]
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.value_at_quantile(50, 100),
            self.value_at_quantile(95, 100),
            self.value_at_quantile(99, 100),
            self.value_at_quantile(999, 1000),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps into a bucket whose bounds contain it, and bucket
        // indices never decrease as values grow.
        let mut last_bucket = 0;
        for v in 0..10_000u64 {
            let b = bucket_of(v);
            assert!(b >= last_bucket, "bucket regressed at {v}");
            assert!(v <= bucket_upper_bound(b), "{v} above its bucket bound");
            last_bucket = b;
        }
        for shift in 6..40 {
            let v = 1u64 << shift;
            for probe in [v - 1, v, v + 1, v + (v >> 3)] {
                let b = bucket_of(probe);
                assert!(probe <= bucket_upper_bound(b));
                // ~3% relative resolution above the exact range.
                assert!(bucket_upper_bound(b) - probe <= probe / 16 + 1);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..EXACT_LIMIT {
            h.record(v);
        }
        for v in 0..EXACT_LIMIT {
            assert_eq!(bucket_upper_bound(bucket_of(v)), v);
        }
        assert_eq!(h.count(), EXACT_LIMIT);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), EXACT_LIMIT - 1);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let (p50, p95, p99, p999) = h.percentiles();
        assert!((50_000..=52_000).contains(&p50), "p50 = {p50}");
        assert!((95_000..=99_000).contains(&p95), "p95 = {p95}");
        assert!((99_000..=103_000).contains(&p99), "p99 = {p99}");
        assert!((99_900..=100_000).contains(&p999), "p999 = {p999}");
        assert_eq!(h.value_at_quantile(100, 100), 100_000, "p100 is the max");
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100_000).collect();
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        let mut merged_lr = left.clone();
        merged_lr.merge(&right);
        let mut merged_rl = right.clone();
        merged_rl.merge(&left);
        assert_eq!(merged_lr, whole);
        assert_eq!(merged_rl, whole, "merge is commutative");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(123);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(99, 100), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(777_777);
        let (p50, p95, p99, p999) = h.percentiles();
        // One sample: every percentile clamps to the exact max.
        assert_eq!(p50, 777_777);
        assert_eq!(p95, 777_777);
        assert_eq!(p99, 777_777);
        assert_eq!(p999, 777_777);
    }

    #[test]
    fn zero_denominator_is_reported_as_zero() {
        // "p50 of zero completed requests" must not panic or divide by zero.
        let mut h = Histogram::new();
        assert_eq!(h.value_at_quantile(50, 0), 0);
        h.record(42);
        assert_eq!(h.value_at_quantile(50, 0), 0);
        assert_eq!(h.value_at_quantile(0, 0), 0);
    }

    #[test]
    fn exact_value_quantiles_respect_cumulative_boundaries() {
        // 50 uniform values in the exact (< 64) range: every sample has its
        // own bucket, so quantile ranks land exactly on cumulative-count
        // boundaries.  The rank-th sample's own bucket must be reported, not
        // the next bucket up.
        let mut h = Histogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        // rank(p50) = ceil(50 * 50 / 100) = 25 → the 25th smallest value.
        assert_eq!(h.value_at_quantile(50, 100), 25);
        // rank(p999) = ceil(50 * 999 / 1000) = 50 → the maximum.
        assert_eq!(h.value_at_quantile(999, 1000), 50);
        // Odd count: rank(p50) = ceil(49 * 50 / 100) = 25 as well.
        let mut odd = Histogram::new();
        for v in 1..=49u64 {
            odd.record(v);
        }
        assert_eq!(odd.value_at_quantile(50, 100), 25);
        assert_eq!(odd.value_at_quantile(999, 1000), 49);
        // Duplicated exact values: boundary lands mid-run of equal samples.
        let mut dup = Histogram::new();
        dup.record_n(10, 5);
        dup.record_n(20, 5);
        assert_eq!(dup.value_at_quantile(50, 100), 10, "rank 5 is still a 10");
        assert_eq!(dup.value_at_quantile(51, 100), 20, "rank 6 is the first 20");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        a.record_n(5_000, 10);
        let mut b = Histogram::new();
        for _ in 0..10 {
            b.record(5_000);
        }
        assert_eq!(a, b);
    }
}
