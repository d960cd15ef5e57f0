//! Conservation invariants: cross-checks between the reconstructed
//! journeys, the raw event stream, and externally supplied ground-truth
//! counters (NIC statistics, fabric statistics, wire fault counters).
//!
//! Every check is three-valued: **pass**, **fail**, or **skipped**. A
//! check is skipped — never silently passed — when trace loss makes it
//! unanswerable: sampling sheds frequent events (sends, accepts), so
//! delivery conservation needs a lossless stream, while rare events
//! (retransmits, failures, drops) survive sampling and their checks only
//! skip under ring eviction.

use crate::decompose::{self, FlowStats};
use crate::journey::JourneyStatus;
use crate::stitch::JourneySet;

/// Ground truth gathered outside the trace stream. Every field is
/// optional; an absent counter simply skips its comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExternalCounts {
    /// Packets the receivers' NICs delivered (sum of `NicStats.delivered`).
    pub delivered: Option<u64>,
    /// Retransmissions the senders performed (sum of
    /// `NicStats.retransmitted`).
    pub retransmitted: Option<u64>,
    /// Typed delivery failures surfaced (sum of
    /// `NicStats.delivery_failures`).
    pub delivery_failures: Option<u64>,
    /// Packets the simulated fabric dropped (`Fabric::fault_counts` total).
    pub fabric_drops: Option<u64>,
    /// Faults the wire fault-injector applied (its plane's `FaultCounts`
    /// total).
    pub wire_faults: Option<u64>,
}

/// Outcome of one invariant check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantStatus {
    /// The books balance.
    Pass,
    /// A real discrepancy: the trace contradicts itself or the counters.
    Fail,
    /// Unanswerable under the observed trace loss.
    Skipped,
}

impl InvariantStatus {
    /// Stable lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            InvariantStatus::Pass => "pass",
            InvariantStatus::Fail => "fail",
            InvariantStatus::Skipped => "skipped",
        }
    }
}

/// One named conservation check and its outcome.
#[derive(Debug, Clone)]
pub struct Invariant {
    /// Stable identifier (snake_case).
    pub name: &'static str,
    /// Pass / fail / skipped.
    pub status: InvariantStatus,
    /// Human-readable account of the numbers compared.
    pub detail: String,
}

impl Invariant {
    fn eq_check(name: &'static str, lhs: u64, rhs: u64, lossy: bool, what: &str) -> Invariant {
        let status = if lossy {
            InvariantStatus::Skipped
        } else if lhs == rhs {
            InvariantStatus::Pass
        } else {
            InvariantStatus::Fail
        };
        Invariant {
            name,
            status,
            detail: format!("{what}: {lhs} vs {rhs}"),
        }
    }
}

/// Runs every conservation check. `flows` must come from
/// [`decompose::per_flow`] over the same set.
pub fn check(set: &JourneySet, flows: &[FlowStats], ext: &ExternalCounts) -> Vec<Invariant> {
    let mut out = Vec::new();
    // Frequent events (sends/accepts) are shed by sampling *and*
    // eviction; rare events survive sampling but not eviction.
    let frequent_lossy = !set.loss.is_lossless();
    let rare_lossy = set.loss.evicted_total() > 0;

    // 1. Internal bookkeeping: every journey is in exactly one state.
    let (c, f, i) = (
        set.with_status(JourneyStatus::Completed),
        set.with_status(JourneyStatus::Failed),
        set.with_status(JourneyStatus::InFlight),
    );
    out.push(Invariant::eq_check(
        "journey_accounting",
        c + f + i,
        set.journeys.len() as u64,
        false,
        &format!("completed {c} + failed {f} + in_flight {i} vs total"),
    ));

    // 2. Delivery conservation: every delivered packet has a journey with
    //    an observed delivery point, and no delivery matched nothing.
    out.push(Invariant::eq_check(
        "accepts_have_journeys",
        set.orphan_accepts,
        0,
        frequent_lossy,
        "orphan accepts vs zero",
    ));
    if let Some(delivered) = ext.delivered {
        out.push(Invariant::eq_check(
            "delivered_equals_journeys",
            set.accepted(),
            delivered,
            frequent_lossy,
            "journeys with observed delivery vs NIC delivered count",
        ));
    }

    // 3. Retransmission conservation: per-journey attributions, raw
    //    events, and the senders' counters all agree.
    out.push(Invariant::eq_check(
        "retransmits_attributed",
        set.journey_retransmits(),
        set.retx_events,
        rare_lossy,
        "journey-attributed retransmits vs Retransmit events",
    ));
    if let Some(retx) = ext.retransmitted {
        out.push(Invariant::eq_check(
            "retransmits_counted",
            set.retx_events,
            retx,
            rare_lossy,
            "Retransmit events vs NIC retransmitted count",
        ));
    }

    // 4. Failure conservation: every surfaced failure terminated a
    //    journey (or rode a dialog teardown that did).
    out.push(Invariant::eq_check(
        "failures_terminate_journeys",
        set.matched_failures,
        set.delivery_fail_events,
        rare_lossy,
        "matched failures vs DeliveryFail events",
    ));
    if let Some(fails) = ext.delivery_failures {
        out.push(Invariant::eq_check(
            "failures_counted",
            set.delivery_fail_events,
            fails,
            rare_lossy,
            "DeliveryFail events vs NIC delivery_failures count",
        ));
    }

    // 5. Acks never outrun deliveries on a lossless stream.
    out.push(Invariant::eq_check(
        "acked_implies_accepted",
        set.acked_without_accept,
        0,
        frequent_lossy,
        "acked-but-unobserved deliveries vs zero",
    ));

    // 6. Carrier loss accounting (whichever carrier supplied a counter).
    if let Some(drops) = ext.fabric_drops {
        out.push(Invariant::eq_check(
            "fabric_drops_traced",
            set.drop_events,
            drops,
            rare_lossy,
            "Drop events vs FabricStats.dropped",
        ));
    }
    if let Some(faults) = ext.wire_faults {
        out.push(Invariant::eq_check(
            "wire_faults_traced",
            set.wire_fault_events,
            faults,
            rare_lossy,
            "WireFault events vs injector count",
        ));
    }

    // 7. Decomposition additivity: per flow, mean components sum to the
    //    mean end-to-end latency (exact by construction; this guards the
    //    aggregation code itself).
    out.push(Invariant {
        name: "decomposition_additive",
        status: if decompose::means_are_additive(flows) {
            InvariantStatus::Pass
        } else {
            InvariantStatus::Fail
        },
        detail: format!("checked {} flows", flows.len()),
    });

    // 8. Stray protocol events that matched no journey.
    out.push(Invariant::eq_check(
        "no_unmatched_events",
        set.unmatched_events,
        0,
        frequent_lossy,
        "unmatched protocol events vs zero",
    ));

    out
}

/// True when no check failed (skips are acceptable — they are reported).
pub fn all_green(invariants: &[Invariant]) -> bool {
    invariants.iter().all(|i| i.status != InvariantStatus::Fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::{Journey, JourneyKind};
    use nifdy_trace::TraceLoss;

    fn completed_set(n: usize) -> JourneySet {
        let mut set = JourneySet::default();
        for k in 0..n {
            let mut j = Journey::new(0, 1, JourneyKind::Scalar, k as u64 * 10);
            j.has_opt = true;
            j.accept = Some(k as u64 * 10 + 5);
            j.end = Some(k as u64 * 10 + 8);
            j.status = JourneyStatus::Completed;
            set.journeys.push(j);
        }
        set
    }

    #[test]
    fn clean_books_pass() {
        let set = completed_set(3);
        let flows = decompose::per_flow(&set);
        let ext = ExternalCounts {
            delivered: Some(3),
            retransmitted: Some(0),
            delivery_failures: Some(0),
            ..ExternalCounts::default()
        };
        let invs = check(&set, &flows, &ext);
        assert!(all_green(&invs), "{invs:?}");
        assert!(invs.iter().all(|i| i.status == InvariantStatus::Pass));
    }

    #[test]
    fn delivered_mismatch_fails() {
        let set = completed_set(3);
        let flows = decompose::per_flow(&set);
        let ext = ExternalCounts {
            delivered: Some(4), // one delivery has no journey
            ..ExternalCounts::default()
        };
        let invs = check(&set, &flows, &ext);
        assert!(!all_green(&invs));
        let bad = invs
            .iter()
            .find(|i| i.name == "delivered_equals_journeys")
            .unwrap();
        assert_eq!(bad.status, InvariantStatus::Fail);
    }

    #[test]
    fn loss_downgrades_to_skipped_not_failed() {
        let mut set = completed_set(2);
        set.orphan_accepts = 1; // would fail on a lossless stream
        set.loss = TraceLoss {
            evicted: vec![4],
            sampled_out: vec![0],
        };
        let flows = decompose::per_flow(&set);
        let invs = check(&set, &flows, &ExternalCounts::default());
        assert!(all_green(&invs), "loss must skip, not fail: {invs:?}");
        let orphans = invs
            .iter()
            .find(|i| i.name == "accepts_have_journeys")
            .unwrap();
        assert_eq!(orphans.status, InvariantStatus::Skipped);
    }
}
