//! Per-flow aggregation: percentile tables over the journey latency
//! decomposition.
//!
//! All aggregates are integer-exact where possible (nearest-rank
//! percentiles over cycle counts); means are the only floating-point
//! values, computed as `sum / count` so the decomposition means still sum
//! exactly to the end-to-end mean.

use std::collections::BTreeMap;

use crate::journey::JourneyStatus;
use crate::stitch::JourneySet;

/// Nearest-rank percentile summary of one latency component (cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PercentileSummary {
    /// 50th percentile (nearest rank).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl PercentileSummary {
    /// Summarizes a set of samples (empty input gives all zeros).
    pub fn of(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return PercentileSummary::default();
        }
        samples.sort_unstable();
        let total: u64 = samples.iter().sum();
        PercentileSummary {
            p50: nearest_rank(samples, 50),
            p90: nearest_rank(samples, 90),
            p99: nearest_rank(samples, 99),
            max: *samples.last().expect("non-empty"),
            mean: total as f64 / samples.len() as f64,
        }
    }
}

/// Nearest-rank percentile of a sorted, non-empty slice.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Aggregated journey statistics for one `(src, dst)` flow.
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// `(src, dst)` node indices.
    pub flow: (usize, usize),
    /// All journeys attributed to the flow.
    pub journeys: u64,
    /// Completed journeys (the latency population).
    pub completed: u64,
    /// Failed journeys.
    pub failed: u64,
    /// Journeys still in flight at trace end.
    pub in_flight: u64,
    /// Journeys flagged incomplete (partial reconstruction).
    pub incomplete: u64,
    /// Retransmissions attributed to the flow.
    pub retransmits: u64,
    /// End-to-end latency (completed journeys with observed delivery).
    pub e2e: PercentileSummary,
    /// Pre-launch queueing behind the flow (reported separately; not part
    /// of the end-to-end sum).
    pub admission: PercentileSummary,
    /// Time lost to undelivered copies.
    pub retx_penalty: PercentileSummary,
    /// Flight time of the delivered copy.
    pub transit: PercentileSummary,
    /// Delivery-to-ack-visibility time.
    pub ack: PercentileSummary,
}

/// Groups journeys by flow and summarizes each; flows sort by `(src, dst)`.
///
/// Only journeys with a full decomposition (completed, delivery observed)
/// enter the latency populations; counts cover everything. For each flow
/// the mean decomposition sums exactly to the mean end-to-end latency
/// (same denominators, integer sums), which [`crate::invariants`] checks.
pub fn per_flow(set: &JourneySet) -> Vec<FlowStats> {
    #[derive(Default)]
    struct Acc {
        journeys: u64,
        completed: u64,
        failed: u64,
        in_flight: u64,
        incomplete: u64,
        retransmits: u64,
        e2e: Vec<u64>,
        admission: Vec<u64>,
        retx_penalty: Vec<u64>,
        transit: Vec<u64>,
        ack: Vec<u64>,
    }
    let mut flows: BTreeMap<(usize, usize), Acc> = BTreeMap::new();
    for j in &set.journeys {
        let acc = flows.entry(j.flow()).or_default();
        acc.journeys += 1;
        acc.retransmits += u64::from(j.retransmits);
        if j.incomplete {
            acc.incomplete += 1;
        }
        match j.status {
            JourneyStatus::Completed => acc.completed += 1,
            JourneyStatus::Failed => acc.failed += 1,
            JourneyStatus::InFlight => acc.in_flight += 1,
        }
        if let Some(d) = j.decomposition() {
            acc.e2e.push(d.end_to_end());
            acc.retx_penalty.push(d.retx_penalty);
            acc.transit.push(d.fabric_transit);
            acc.ack.push(d.ack_turnaround);
            acc.admission.push(j.admission_wait);
        }
    }
    flows
        .into_iter()
        .map(|(flow, mut acc)| FlowStats {
            flow,
            journeys: acc.journeys,
            completed: acc.completed,
            failed: acc.failed,
            in_flight: acc.in_flight,
            incomplete: acc.incomplete,
            retransmits: acc.retransmits,
            e2e: PercentileSummary::of(&mut acc.e2e),
            admission: PercentileSummary::of(&mut acc.admission),
            retx_penalty: PercentileSummary::of(&mut acc.retx_penalty),
            transit: PercentileSummary::of(&mut acc.transit),
            ack: PercentileSummary::of(&mut acc.ack),
        })
        .collect()
}

/// True when, for every flow, the mean decomposition components sum to the
/// mean end-to-end latency within floating-point rounding.
pub fn means_are_additive(flows: &[FlowStats]) -> bool {
    flows.iter().all(|f| {
        let sum = f.retx_penalty.mean + f.transit.mean + f.ack.mean;
        (sum - f.e2e.mean).abs() <= 1e-6 * f.e2e.mean.max(1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::{Journey, JourneyKind};

    #[test]
    fn nearest_rank_matches_definition() {
        let s = vec![10, 20, 30, 40];
        assert_eq!(nearest_rank(&s, 50), 20);
        assert_eq!(nearest_rank(&s, 99), 40);
        assert_eq!(nearest_rank(&s, 1), 10);
    }

    #[test]
    fn flow_means_sum_exactly() {
        let mut set = JourneySet::default();
        for (first, last, accept, end) in [(0u64, 0u64, 10u64, 14u64), (20, 84, 100, 108)] {
            let mut j = Journey::new(0, 1, JourneyKind::Scalar, first);
            j.has_opt = true;
            j.last_send = last;
            j.accept = Some(accept);
            j.end = Some(end);
            j.status = JourneyStatus::Completed;
            set.journeys.push(j);
        }
        let flows = per_flow(&set);
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert_eq!(f.completed, 2);
        // e2e: 14 and 88 → mean 51; parts: (0,10,4) and (64,16,8).
        assert_eq!(f.e2e.mean, 51.0);
        assert_eq!(f.retx_penalty.mean + f.transit.mean + f.ack.mean, 51.0);
        assert!(means_are_additive(&flows));
    }

    #[test]
    fn empty_population_is_all_zero() {
        let s = PercentileSummary::of(&mut Vec::new());
        assert_eq!(s, PercentileSummary::default());
    }
}
