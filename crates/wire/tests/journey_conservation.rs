//! Journey-conservation property: across seeded rotation workloads under
//! randomized recoverable chaos, the offline analyzer reconstructs
//! exactly one accepted journey per delivered packet on both carriers,
//! and its retransmit/drop/fault accounting reconciles with the ground
//! truth the NICs and fault planes counted ([`FaultCounts`]) — the
//! conservation invariants the report encodes all hold, for *any* seed, not
//! just the conformance suite's.
//!
//! [`FaultCounts`]: nifdy_net::FaultCounts

use nifdy_analyze::{analyze, AnalysisReport, AnomalyConfig, ExternalCounts};
use nifdy_net::{FaultConfig, GilbertElliott};
use nifdy_trace::{TraceConfig, TraceHandle};
use nifdy_wire::conformance::{
    chaos_config, run, FabricSet, LoopbackSet, RunReport, SwarmPlan, CHAOS_QUIESCE_GRACE,
};
use nifdy_wire::WireFaultConfig;
use proptest::prelude::*;

const BUDGET: u32 = 30;

const MAX_TICKS: u64 = 600_000;

fn recorder() -> TraceHandle {
    // Unsampled and amply sized: the invariants need the whole story.
    TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16))
}

/// The invariant bundle both carriers must satisfy against their own
/// ground truth.
fn assert_conserved(label: &str, report: &AnalysisReport, chaos: &RunReport, retransmitted: u64) {
    assert!(
        report.ok(),
        "{label}: conservation invariants violated:\n{}",
        report.table()
    );
    assert_eq!(
        report.set.accepted(),
        chaos.delivered(),
        "{label}: every delivered packet must map to exactly one accepted journey"
    );
    assert_eq!(
        report.set.retx_events, retransmitted,
        "{label}: traced retransmits must reconcile with NicStats"
    );
    assert_eq!(
        report.set.delivery_fail_events,
        chaos.failure_total(),
        "{label}: traced failures must reconcile with the typed failure log"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    #[test]
    fn every_delivered_packet_is_one_accepted_journey(
        seed in 0u64..1_000,
        nodes in prop_oneof![Just(4usize), Just(6usize)],
        messages in 1u64..3,
        loss_pct in prop_oneof![Just(0u32), Just(1), Just(2), Just(4)],
    ) {
        let plan = SwarmPlan::rotation(nodes, messages, 5, 6, true, seed);
        let cfg = chaos_config(BUDGET);
        let mean_loss = f64::from(loss_pct) / 100.0;

        let fab_faults = if loss_pct == 0 {
            FaultConfig::default()
        } else {
            FaultConfig::default().with_burst(GilbertElliott::with_mean_loss(mean_loss))
        };
        let fab_trace = recorder();
        let mut set = FabricSet::new(&plan, cfg.clone(), fab_faults, &fab_trace);
        let fab = run(&mut set, &plan, CHAOS_QUIESCE_GRACE, MAX_TICKS);
        let fab_report = analyze(
            &fab_trace.snapshot(),
            &fab_trace.loss(),
            &ExternalCounts {
                delivered: Some(fab.delivered()),
                retransmitted: Some(set.retransmitted()),
                delivery_failures: Some(fab.failure_total()),
                fabric_drops: Some(set.fabric_dropped()),
                wire_faults: None,
            },
            &AnomalyConfig::default(),
        );
        assert_conserved("fabric", &fab_report, &fab, set.retransmitted());
        // Fabric drops reconcile: every FabricStats drop left a Drop event.
        prop_assert_eq!(fab_report.set.drop_events, set.fabric_dropped());

        let wire_faults = if loss_pct == 0 {
            WireFaultConfig::default()
        } else {
            WireFaultConfig::default()
                .with_burst(GilbertElliott::with_mean_loss(mean_loss))
                .with_corrupt_prob(mean_loss)
                .with_duplicate_prob(mean_loss)
                .with_reorder_prob(mean_loss)
        };
        let wire_trace = recorder();
        let mut set = LoopbackSet::new(&plan, (2, 1), cfg, &wire_faults, &wire_trace);
        let wire = run(&mut set, &plan, CHAOS_QUIESCE_GRACE, MAX_TICKS);
        let wire_report = analyze(
            &wire_trace.snapshot(),
            &wire_trace.loss(),
            &ExternalCounts {
                delivered: Some(wire.delivered()),
                retransmitted: Some(set.retransmitted()),
                delivery_failures: Some(wire.failure_total()),
                fabric_drops: None,
                wire_faults: Some(set.fault_counts().total()),
            },
            &AnomalyConfig::default(),
        );
        assert_conserved("wire", &wire_report, &wire, set.retransmitted());
        // Wire faults reconcile: every injector count left a WireFault event.
        prop_assert_eq!(wire_report.set.wire_fault_events, set.fault_counts().total());
    }
}
