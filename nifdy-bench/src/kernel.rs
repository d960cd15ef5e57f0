//! The measurement kernel every cell uses: one monotonic clock, order
//! statistics over recorded samples, bound arithmetic for `compare`, and
//! the process-level readings (CPU time, context switches, peak RSS) the
//! kernel exposes under `/proc`.

use std::time::Instant;

/// Monotonic nanosecond clock anchored at construction. All timestamps in
/// the benchmark are `u64` nanoseconds since this anchor, so spans, due
/// times and latency stamps share one time base.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            base: Instant::now(),
        }
    }

    #[inline]
    pub fn ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// Mean cost of one clock read, measured over `reads` back-to-back reads.
pub fn clock_read_ns(clock: &Clock, reads: u32) -> f64 {
    let t0 = clock.ns();
    let mut last = t0;
    for _ in 0..reads {
        last = std::hint::black_box(clock.ns());
    }
    (last - t0) as f64 / f64::from(reads)
}

/// The exact `q`-th percentile (0 < q <= 1) of `samples` by the
/// nearest-rank rule: the smallest sample with at least `q·n` samples at or
/// below it. Sorts in place; 0 for an empty set.
pub fn percentile<T: Copy + Ord + Into<u64>>(samples: &mut [T], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1].into()
}

/// The exact `q`-th quantile (0 < q <= 1) of real-valued `samples`, by the
/// same nearest-rank rule as [`percentile`]. Sorts in place; 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median and quartiles of a handful of repetition values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the exclusive method (Python's
    /// `statistics.quantiles(values, n=4)`, which the driver uses), so the
    /// spread printed here is the spread the driver computes. A single
    /// value is its own median and quartiles.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        assert!(n > 0, "summary of no values");
        let at = |p: f64| -> f64 {
            if n == 1 {
                return v[0];
            }
            // Position p·(n+1) on a 1-based scale, clamped to the data.
            let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(n);
            v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
        };
        Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n,
        }
    }
}

/// A run's estimate of one metric: the reported `value`, and the same
/// statistic taken over each repetition alone, whose quartiles gauge how
/// far the value can be trusted.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub reps: Vec<f64>,
}

impl Estimate {
    /// The median of `samples`, which are also the per-repetition values.
    pub fn median_of(samples: Vec<f64>) -> Estimate {
        Estimate {
            value: Summary::of(&samples).median,
            reps: samples,
        }
    }

    /// Inter-quartile distance of the per-repetition values.
    pub fn iqr(&self) -> f64 {
        if self.reps.is_empty() {
            return 0.0;
        }
        let s = Summary::of(&self.reps);
        s.q3 - s.q1
    }

    /// [`iqr`](Self::iqr) as a share of the reported value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        self.iqr() / self.value.abs()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The outcome of holding B's median against A's under a relative bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// Either side's inter-quartile distance exceeds the difference that
    /// would count, so the values cannot resolve it.
    Unresolved,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// The compare rule. The difference that counts is `bound` as a share of
/// A's value or `slack` in the metric's own unit, whichever is larger (a
/// 10 µs set-up that takes 14 µs is 40% and nothing). Unresolved when either
/// side's inter-quartile distance exceeds that difference, otherwise worse
/// iff B's value is worse than A's by more than it.
pub fn verdict(a: &Estimate, b: &Estimate, better: Better, bound: f64, slack: f64) -> Verdict {
    let counts = (bound * a.value.abs()).max(slack);
    if a.iqr() > counts || b.iqr() > counts {
        Verdict::Unresolved
    } else if worsening(a.value, b.value, better) * a.value.abs() > counts {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Process-level readings taken from `/proc/self` (Linux only; every field
/// reads 0 where the file or key is missing, and the metrics that depend
/// on them say so).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcReading {
    /// Nanoseconds this (single) thread has spent on a CPU.
    pub cpu_ns: u64,
    pub involuntary_switches: u64,
    /// Peak resident set (`VmHWM`) in kB.
    pub peak_rss_kb: u64,
}

pub fn proc_reading() -> ProcReading {
    let mut r = ProcReading::default();
    if let Ok(s) = std::fs::read_to_string("/proc/self/schedstat") {
        r.cpu_ns = s
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
    }
    if let Ok(s) = std::fs::read_to_string("/proc/self/status") {
        let field = |key: &str| -> u64 {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|f| f.parse().ok())
                .unwrap_or(0)
        };
        r.involuntary_switches = field("nonvoluntary_ctxt_switches:");
        r.peak_rss_kb = field("VmHWM:");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        let mut one = vec![7u32];
        assert_eq!(percentile(&mut one, 0.99), 7);
        let mut none: Vec<u32> = Vec::new();
        assert_eq!(percentile(&mut none, 0.5), 0);
        // 10 samples: p99 is the largest (rank ceil(9.9) = 10).
        let mut ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&mut ten, 0.99), 10);
        assert_eq!(percentile(&mut ten, 0.5), 5);
        let mut rates: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut rates, 0.98), 98.0);
        assert_eq!(quantile(&mut rates, 0.10), 10.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        let e = Estimate::median_of(vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(e.value, 3.0);
        assert!((e.spread() - 1.0).abs() < 1e-12);
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn bound_arithmetic_respects_direction_and_spread() {
        let tight = |m: f64| Estimate {
            value: m,
            reps: vec![m * 0.995, m, m * 1.005],
        };
        // Throughput: 100 -> 92 is 8% worse, beyond a 7% bound.
        assert_eq!(
            verdict(&tight(100.0), &tight(92.0), Better::Higher, 0.07, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(100.0), &tight(94.0), Better::Higher, 0.07, 0.0),
            Verdict::Within
        );
        // An improvement is never "worse".
        assert_eq!(
            verdict(&tight(100.0), &tight(150.0), Better::Higher, 0.07, 0.0),
            Verdict::Within
        );
        // Latency: 10 -> 11.5 is 15% worse, beyond 10%.
        assert_eq!(
            verdict(&tight(10.0), &tight(11.5), Better::Lower, 0.10, 0.0),
            Verdict::Worse
        );
        assert!((worsening(10.0, 9.0, Better::Lower) + 0.1).abs() < 1e-12);
        // A spread wider than the bound cannot resolve the difference.
        let noisy = Estimate {
            value: 100.0,
            reps: vec![90.0, 100.0, 110.0],
        };
        assert_eq!(
            verdict(&noisy, &tight(50.0), Better::Higher, 0.07, 0.0),
            Verdict::Unresolved
        );
        // Absolute slack: 70 µs -> 100 µs is +43% and +0.00003 s, which a
        // 0.02 s slack forgives however the samples spread; 0.10 s ->
        // 0.13 s is beyond both.
        let wide = |m: f64| Estimate {
            value: m,
            reps: vec![m * 0.5, m, m * 1.5],
        };
        assert_eq!(
            verdict(&wide(70e-6), &wide(100e-6), Better::Lower, 0.25, 0.02),
            Verdict::Within
        );
        assert_eq!(
            verdict(&tight(0.10), &tight(0.13), Better::Lower, 0.25, 0.02),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(0.10), &tight(0.115), Better::Lower, 0.25, 0.02),
            Verdict::Within
        );
    }
}
