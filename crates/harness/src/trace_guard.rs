//! Tracing-overhead guard: proves the flight recorder is cheap enough to
//! leave compiled in.
//!
//! [`run`] times the same lossy-sweep cell twice — once with tracing
//! disconnected ([`TraceHandle::off`]) and once with a recorder attached
//! but sampled down to almost nothing (`sample_every = u64::MAX`, the
//! "enabled but unsampled" configuration) — and reports the relative
//! overhead. CI fails the build when the overhead exceeds its budget,
//! so instrumentation creep in the protocol hot paths gets caught at the
//! pull request that introduces it.
//!
//! Methodology: the two variants run interleaved (disabled, traced,
//! disabled, traced, …) so frequency scaling and cache warmth bias both
//! sides equally, and each side scores its *minimum* wall-clock time
//! across repetitions — the standard low-noise estimator for "how fast
//! can this code go".

#![expect(
    clippy::disallowed_types,
    reason = "the guard measures the tracer's real elapsed wall time; it reports timings \
              and never feeds simulated state"
)]

use std::time::Instant;

use nifdy_trace::{TraceConfig, TraceHandle};

use crate::ext_lossy;
use crate::report::Table;
use crate::scale::Scale;

/// Outcome of one guard run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardReport {
    /// Best wall-clock time with tracing disconnected, seconds.
    pub baseline_s: f64,
    /// Best wall-clock time with a recorder attached but unsampled, seconds.
    pub traced_s: f64,
    /// `(traced - baseline) / baseline`, in percent (negative when the
    /// traced runs happened to be faster — measurement noise).
    pub overhead_pct: f64,
    /// The failure threshold the run was judged against, in percent.
    pub budget_pct: f64,
}

impl GuardReport {
    /// True when the measured overhead is within budget.
    pub fn passed(&self) -> bool {
        self.overhead_pct <= self.budget_pct
    }

    /// Renders the report as a one-row table for CI logs.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "trace-guard: recorder overhead, enabled-but-unsampled vs disabled",
            vec![
                "baseline s".into(),
                "traced s".into(),
                "overhead %".into(),
                "budget %".into(),
                "verdict".into(),
            ],
        );
        t.row(vec![
            format!("{:.4}", self.baseline_s),
            format!("{:.4}", self.traced_s),
            format!("{:+.2}", self.overhead_pct),
            format!("{:.2}", self.budget_pct),
            if self.passed() { "pass" } else { "FAIL" }.into(),
        ]);
        t
    }
}

/// Times the guard workload `reps` times per variant (interleaved) and
/// judges the overhead against `budget_pct`.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn run(scale: Scale, seed: u64, reps: u32, budget_pct: f64) -> GuardReport {
    assert!(reps > 0, "need at least one repetition");
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    // Warm-up pass (untimed): fault tables, allocator state, branch
    // predictors — everything that would otherwise bias the first rep.
    ext_lossy::run_guard_workload(scale, seed, TraceHandle::off());
    for _ in 0..reps {
        // Every rep runs the *same* seed so both variants simulate the
        // identical packet history; min-of-N then measures code cost, not
        // workload variation.
        let t0 = Instant::now();
        ext_lossy::run_guard_workload(scale, seed, TraceHandle::off());
        best_off = best_off.min(t0.elapsed().as_secs_f64());

        let unsampled = TraceConfig::default().with_sample_every(u64::MAX);
        let t1 = Instant::now();
        ext_lossy::run_guard_workload(scale, seed, TraceHandle::recording(unsampled));
        best_on = best_on.min(t1.elapsed().as_secs_f64());
    }
    GuardReport {
        baseline_s: best_off,
        traced_s: best_on,
        overhead_pct: (best_on - best_off) / best_off * 100.0,
        budget_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_runs_and_reports() {
        // One smoke-scale repetition with an uncrossable budget: checks the
        // plumbing (both variants run, the report renders) without making a
        // timing assertion that could flake on a loaded CI machine. The
        // real 2% budget is enforced by the dedicated CI job.
        let report = run(Scale::Smoke, 11, 1, 1e9);
        assert!(report.passed());
        assert!(report.baseline_s > 0.0 && report.traced_s > 0.0);
        let rendered = report.table().to_string();
        assert!(rendered.contains("overhead"), "{rendered}");
    }
}
