//! Differential chaos conformance: every fault-preset row of the scenario
//! table driven through the simulated fabric's flit-level fault plane and
//! through the byte stack's [`FaultyTransport`] chaos plane must uphold
//! the same protocol guarantees — identical per-destination delivery
//! orders, zero misordered or corrupted deliveries ever, and matching
//! typed [`DeliveryFailure`] accounting when retry budgets exhaust.
//!
//! The two planes draw from independent RNG streams, so *which* frame each
//! one drops differs; the point of the suite is that this difference is
//! invisible above the retransmission layer.
//!
//! [`FaultyTransport`]: nifdy_wire::FaultyTransport
//! [`DeliveryFailure`]: nifdy::DeliveryFailure

use nifdy_trace::{TraceHandle, WireFaultCause};
use nifdy_wire::scenarios::{Faults, Scenario, ROWS};

fn recoverable() -> &'static Scenario {
    let row = ROWS.iter().find(|r| r.faults == Faults::Recoverable);
    row.expect("the table has a recoverable-chaos row")
}

/// The row's expectation (the exact clean log under recoverable chaos;
/// typed scalar failures toward a permanent partition) and the codec
/// audit (`decode_errors >= corruptions`) hold on each plane, and the two
/// reports agree exactly: same surviving log, same per-pair failure kinds
/// and counts.
#[test]
fn chaos_rows_hold_on_both_fault_planes() {
    let off = TraceHandle::off();
    for row in ROWS.iter().filter(|r| r.faults != Faults::Clean) {
        for &seed in row.seeds {
            let plan = (row.plan)(seed);
            let fabric = row.run(&plan, &mut row.fabric(&plan, &off), "fabric");
            let mut set = row.loopback(&plan, &off);
            let wire = row.run(&plan, &mut set, "loopback");
            fabric.assert_matches(&wire, &format!("{}, seed {seed}", row.name));
            assert!(
                row.faults != Faults::Recoverable || set.fault_count(WireFaultCause::Corrupt) > 0,
                "{}, seed {seed}: the corruption model never fired — weak test",
                row.name
            );
        }
    }
}

/// The same chaos run twice is bit-identical: the whole plane — drops,
/// corruption positions, delays, reorders — is a pure function of the seed.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let row = recoverable();
    let plan = (row.plan)(7);
    let run = || {
        let mut set = row.loopback(&plan, &TraceHandle::off());
        let report = row.run(&plan, &mut set, "loopback");
        let faults = WireFaultCause::ALL.map(|c| set.fault_count(c));
        let counters = (set.decode_errors(), faults, set.retransmitted());
        (report, counters)
    };
    let (a, a_counters) = run();
    let (b, b_counters) = run();
    assert_eq!(a.log, b.log);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a_counters, b_counters);
}

/// Journey-level sim/wire equivalence: the offline analyzer reconstructs
/// a journey for every delivered packet on *both* carriers, the
/// conservation invariants hold on both, and the per-flow journey
/// populations agree — same packet counts completed on the same flows,
/// whatever each carrier's chaos plane did along the way.
#[test]
fn journey_reconstruction_is_carrier_equivalent() {
    use nifdy_analyze::{analyze, AnomalyConfig, ExternalCounts};
    use nifdy_trace::TraceConfig;

    // Unsampled, amply sized: journey stitching wants the whole story.
    let recorder = || TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));
    let row = recoverable();

    for &seed in row.seeds {
        let plan = (row.plan)(seed);

        let fab_trace = recorder();
        let mut set = row.fabric(&plan, &fab_trace);
        let fabric = row.run(&plan, &mut set, "fabric");
        let fab_report = analyze(
            &fab_trace.snapshot(),
            &fab_trace.loss(),
            &ExternalCounts {
                delivered: Some(fabric.delivered()),
                retransmitted: Some(set.retransmitted()),
                delivery_failures: Some(fabric.failure_total()),
                fabric_drops: Some(set.fabric_dropped()),
                wire_faults: None,
            },
            &AnomalyConfig::default(),
        );
        assert!(
            fab_report.ok(),
            "seed {seed}: fabric invariants violated:\n{}",
            fab_report.table()
        );

        let wire_trace = recorder();
        let mut set = row.loopback(&plan, &wire_trace);
        let wire = row.run(&plan, &mut set, "loopback");
        let wire_report = analyze(
            &wire_trace.snapshot(),
            &wire_trace.loss(),
            &ExternalCounts {
                delivered: Some(wire.delivered()),
                retransmitted: Some(set.retransmitted()),
                delivery_failures: Some(wire.failure_total()),
                fabric_drops: None,
                wire_faults: Some(set.fault_total()),
            },
            &AnomalyConfig::default(),
        );
        assert!(
            wire_report.ok(),
            "seed {seed}: wire invariants violated:\n{}",
            wire_report.table()
        );

        // 100% reconstruction on both carriers…
        assert_eq!(
            fab_report.set.accepted(),
            fabric.delivered(),
            "seed {seed}: fabric journeys must cover every delivery"
        );
        assert_eq!(
            wire_report.set.accepted(),
            wire.delivered(),
            "seed {seed}: wire journeys must cover every delivery"
        );

        // …and the same per-flow completed-journey populations: the
        // carriers retransmit differently, but what *arrives* (and on
        // which flow) is protocol-determined.
        let flow_counts = |report: &nifdy_analyze::AnalysisReport| -> Vec<((usize, usize), u64)> {
            report.flows.iter().map(|f| (f.flow, f.completed)).collect()
        };
        assert_eq!(
            flow_counts(&fab_report),
            flow_counts(&wire_report),
            "seed {seed}: per-flow completed-journey populations diverge"
        );
    }
}
