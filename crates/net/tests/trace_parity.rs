//! Property test: the flight recorder's `Drop` events are an *exact*,
//! per-cause mirror of the fabric's drop counters.
//!
//! Drops are classified as rare events, so the recorder never samples them
//! out; as long as the per-node rings are sized above the drop volume, every
//! counted drop must appear in the trace with the matching cause, lane, and
//! receiving node. Any divergence means either an instrumentation gap (a
//! drop path that forgot its event) or double counting — exactly the bugs a
//! parity check exists to catch.

#![expect(
    clippy::disallowed_types,
    reason = "test tally keyed by cause, only looked up"
)]

use std::collections::HashMap;

use proptest::prelude::*;

use nifdy_net::topology::Mesh;
use nifdy_net::{Fabric, FabricConfig, FaultConfig, GilbertElliott, Lane, LinkWindow, Packet};
use nifdy_sim::{NodeId, PacketId};
use nifdy_trace::{DropReason, EventKind, TraceConfig, TraceHandle};

/// Drives random all-to-next traffic (both lanes) through a 4×4 mesh with
/// the given faults, returning the fabric and its attached recorder.
fn run_fabric(faults: FaultConfig, seed: u64, packets: u32) -> (Fabric, TraceHandle) {
    let cfg = FabricConfig::default().with_seed(seed).with_fault(faults);
    let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), cfg);
    let trace = TraceHandle::recording(
        // Rings far above the worst-case drop volume so eviction can never
        // break parity.
        TraceConfig::default().with_capacity_per_node(1 << 16),
    );
    fab.attach_trace(trace.clone());

    let n = fab.num_nodes();
    let mut sent = vec![0u32; n];
    let mut replies = vec![0u32; n];
    let mut id = 0u64;
    // Run until every node has injected its quota (both lanes) and the
    // fabric drained, with a hard bound to keep pathological fault configs
    // finite.
    while fab.now().as_u64() < 200_000 {
        for i in 0..n {
            let src = NodeId::new(i);
            let dst = NodeId::new((i + 5) % n);
            if sent[i] < packets && fab.can_inject(src, Lane::Request) {
                id += 1;
                fab.inject(src, Packet::data(PacketId::new(id), src, dst, 8));
                sent[i] += 1;
            }
            // Reply-lane traffic so ack-lane loss has something to hit.
            if replies[i] < packets && fab.can_inject(src, Lane::Reply) {
                id += 1;
                let mut p = Packet::data(PacketId::new(id), src, dst, 2);
                p.lane = Lane::Reply;
                fab.inject(src, p);
                replies[i] += 1;
            }
        }
        fab.step();
        for i in 0..n {
            let node = NodeId::new(i);
            while fab.eject(node, Lane::Request).is_some() {}
            while fab.eject(node, Lane::Reply).is_some() {}
        }
        if sent.iter().all(|&s| s >= packets)
            && replies.iter().all(|&r| r >= packets)
            && fab.in_network() == 0
        {
            break;
        }
    }
    (fab, trace)
}

/// Asserts per-cause equality between counters and trace events.
fn assert_parity(fab: &Fabric, trace: &TraceHandle) {
    let mut by_cause: HashMap<&'static str, u64> = HashMap::new();
    let mut total_events = 0u64;
    for ev in trace.snapshot() {
        if let EventKind::Drop { cause, dst, .. } = ev.kind {
            assert_eq!(
                ev.node, dst,
                "drop events must land on the receiving node's track"
            );
            *by_cause.entry(cause.label()).or_default() += 1;
            total_events += 1;
        }
    }
    let stats = fab.stats();
    for cause in DropReason::ALL {
        let counted = stats.dropped_by_reason(cause);
        let traced = by_cause.get(cause.label()).copied().unwrap_or(0);
        assert_eq!(
            counted,
            traced,
            "cause {}: counter says {counted}, trace says {traced}",
            cause.label()
        );
    }
    let counted_total: u64 = DropReason::ALL
        .iter()
        .map(|&c| stats.dropped_by_reason(c))
        .sum();
    assert_eq!(counted_total, total_events, "total drop parity");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn drop_counters_equal_drop_events(
        seed in 0u64..10_000,
        data_pct in 0u32..30,
        ack_pct in 0u32..30,
        burst_pct in 0u32..25,
        down_node in 0usize..16,
        outage_from in 0u64..5_000,
        outage_span in 0u64..8_000,
    ) {
        let mut faults = FaultConfig::default()
            .with_data_drop_prob(f64::from(data_pct) / 100.0)
            .with_ack_drop_prob(f64::from(ack_pct) / 100.0);
        if burst_pct > 0 {
            faults = faults
                .with_burst(GilbertElliott::with_mean_loss(f64::from(burst_pct) / 100.0));
        }
        if outage_span > 0 {
            faults = faults.with_link_window(LinkWindow::edge(
                NodeId::new(down_node),
                outage_from + 1,
                outage_from + 1 + outage_span,
            ));
        }
        prop_assert!(faults.validate().is_ok());
        let (fab, trace) = run_fabric(faults, seed, 40);
        assert_parity(&fab, &trace);
    }
}

#[test]
fn clean_fabric_has_zero_drops_and_zero_drop_events() {
    let (fab, trace) = run_fabric(FaultConfig::default(), 3, 60);
    assert_eq!(fab.stats().dropped.get(), 0);
    assert!(trace
        .snapshot()
        .iter()
        .all(|e| !matches!(e.kind, EventKind::Drop { .. })));
    assert_parity(&fab, &trace);
}
