//! Measurement primitives used to produce the paper's tables and figures.
//!
//! The paper's bottom-line metric is *"the number of packets delivered within
//! a fixed number of cycles"* (Figures 2 and 3), plus latency statistics and
//! per-phase cycle counts (Figures 6–9). [`Counter`], [`Stats`] and
//! [`LogHistogram`] cover those needs; sampled series live in `nifdy-trace`'s
//! metrics registry.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use nifdy_sim::metrics::Counter;
///
/// let mut delivered = Counter::new();
/// delivered.add(3);
/// delivered.incr();
/// assert_eq!(delivered.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Returns the current count.
    #[inline]
    pub const fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Running summary statistics (count / mean / min / max / variance) over a
/// stream of samples, computed online with Welford's algorithm.
///
/// # Examples
///
/// ```
/// use nifdy_sim::metrics::Stats;
///
/// let mut latency = Stats::new();
/// for v in [10.0, 20.0, 30.0] {
///     latency.record(v);
/// }
/// assert_eq!(latency.count(), 3);
/// assert_eq!(latency.mean(), 20.0);
/// assert_eq!(latency.min(), 10.0);
/// assert_eq!(latency.max(), 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Stats {
    /// Creates an empty statistics accumulator.
    pub fn new() -> Self {
        Stats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples, or `0.0` if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the samples, or `0.0` for fewer than two.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation of the samples.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `0.0` if none were recorded.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or `0.0` if none were recorded.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.0} max={:.0}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// A latency histogram with logarithmic buckets and sub-bucket resolution,
/// supporting quantile estimation (p50/p90/p99/p999) over cycle counts.
///
/// Values below 16 are counted exactly; larger values land in one of 16
/// sub-buckets per power of two, bounding the relative quantile error to
/// about 1/16 (6%) while keeping the memory footprint a few kilobytes
/// regardless of the value range. This is the measurement substrate for the
/// tail-latency columns of the experiment tables: recording is O(1) with no
/// allocation on the hot path once the bucket vector has grown.
///
/// # Examples
///
/// ```
/// use nifdy_sim::metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.p50();
/// assert!((450..=550).contains(&p50), "p50 {p50}");
/// let p99 = h.p99();
/// assert!((930..=1000).contains(&p99), "p99 {p99}");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket counts, grown on demand (index via [`LogHistogram::index_of`]).
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// Linear region: values `0..LINEAR` are counted exactly.
const LINEAR: u64 = 16;
/// log2(sub-buckets per octave).
const SUB_BITS: u32 = 4;

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Bucket index of `value`.
    fn index_of(value: u64) -> usize {
        if value < LINEAR {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let sub = ((value >> (msb - SUB_BITS)) & (LINEAR - 1)) as usize;
        ((msb - SUB_BITS + 1) as usize) * LINEAR as usize + sub
    }

    /// Lower bound of the value range covered by bucket `idx`.
    fn lower_bound(idx: usize) -> u64 {
        if idx < LINEAR as usize {
            return idx as u64;
        }
        let msb = (idx / LINEAR as usize) as u32 + SUB_BITS - 1;
        let sub = (idx % LINEAR as usize) as u64;
        (1u64 << msb) | (sub << (msb - SUB_BITS))
    }

    /// Midpoint of the value range covered by bucket `idx` (the quantile
    /// estimate returned for ranks landing in that bucket).
    fn midpoint(idx: usize) -> u64 {
        if idx < LINEAR as usize {
            return idx as u64;
        }
        let msb = (idx / LINEAR as usize) as u32 + SUB_BITS - 1;
        Self::lower_bound(idx) + (1u64 << (msb - SUB_BITS)) / 2
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.total == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.total += 1;
        self.sum += u128::from(value);
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub const fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest sample, or 0 if empty.
    pub const fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub const fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of the samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket counts,
    /// clamped to the exact observed `[min, max]` range. Returns 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={} p90={} p99={} p999={} max={}",
            self.total,
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn stats_welford_matches_naive() {
        let data = [3.0, 7.0, 7.0, 19.0];
        let mut s = Stats::new();
        for &v in &data {
            s.record(v);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn stats_default_tracks_min_and_max_like_new() {
        // A zeroed `min` would report 0 for any all-positive sample set.
        let mut s = Stats::default();
        s.record(5.0);
        s.record(7.0);
        assert_eq!((s.min(), s.max()), (5.0, 7.0));
        assert_eq!(Stats::default(), Stats::new());
    }

    #[test]
    fn stats_empty_is_zeroes() {
        let s = Stats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn log_histogram_quantiles_bound_relative_error() {
        let mut h = LogHistogram::new();
        for v in 0..10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900), (0.999, 9_990)] {
            let est = h.quantile(q);
            let err = est.abs_diff(exact) as f64 / exact as f64;
            assert!(err < 0.07, "q={q}: est {est} vs {exact} (err {err:.3})");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 9_999);
        assert!((h.mean() - 4_999.5).abs() < 1e-6);
    }

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.p50(), 2);
    }

    #[test]
    fn log_histogram_empty_is_zeroes() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn log_histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            all.record(v * 3);
        }
        for v in 0..700u64 {
            b.record(v * 7 + 1);
            all.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn log_histogram_quantiles_clamp_to_observed_range() {
        let mut h = LogHistogram::new();
        h.record(1_000);
        assert_eq!(h.p50(), 1_000);
        assert_eq!(h.p999(), 1_000);
    }
}
