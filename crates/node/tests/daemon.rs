//! Daemon-level integration: the whole scenario table (the rotation rows
//! plus the EM3D rows added here) on every carrier that can express each
//! row — flit-level fabric, byte stack over loopback, one sharded daemon,
//! two daemons over a shared hub — and supervised crash recovery inside a
//! running daemon.

use std::collections::BTreeSet;

use nifdy::NifdyConfig;
use nifdy_node::workload::{em3d_plan, DaemonSet, PlanFeeder, PlannedPacket, SwarmPlan};
use nifdy_node::{NifdyNode, NodeConfig};
use nifdy_sim::NodeId;
use nifdy_trace::TraceHandle;
use nifdy_traffic::Em3dParams;
use nifdy_wire::conformance::{chaos_config, run, RunReport};
use nifdy_wire::scenarios::{delivers_the_plan, Faults, Scenario, ROWS};
use nifdy_wire::{LoopbackTransport, PeerEvent, SupervisorConfig};

/// The paper's EM3D kernel (§4.4): many-to-many bulk traffic, where the
/// rotation rows are all pairwise.
const EM3D: Scenario = Scenario {
    name: "em3d",
    plan: |seed| {
        let params = Em3dParams {
            iters: 2,
            ..Em3dParams::more_communication(seed)
        };
        em3d_plan(8, params, 6, true)
    },
    seeds: &[5],
    hub: (2, 1),
    faults: Faults::Clean,
    expect: delivers_the_plan,
};

const EM3D_UNDER_CHAOS: Scenario = Scenario {
    name: "em3d under recoverable chaos",
    faults: Faults::Recoverable,
    ..EM3D
};

#[test]
fn every_row_holds_on_every_carrier() {
    let off = TraceHandle::off();
    for row in ROWS.iter().chain(&[EM3D, EM3D_UNDER_CHAOS]) {
        for &seed in row.seeds {
            let plan = (row.plan)(seed);
            let sim = row.run(&plan, &mut row.fabric(&plan, &off), "fabric");
            let wire = row.run(&plan, &mut row.loopback(&plan, &off), "loopback");
            sim.assert_matches(&wire, &format!("{}, seed {seed}, loopback", row.name));
            // The daemons have no fault plane to express a fault preset with.
            if row.faults != Faults::Clean {
                continue;
            }
            let mut one = DaemonSet::new(plan.nodes, 1, &NodeConfig::default().with_shards(3));
            let local = row.run(&plan, &mut one, "3-shard daemon");
            sim.assert_matches(&local, &format!("{}, seed {seed}, daemon", row.name));

            let mut pair = DaemonSet::new(plan.nodes, 2, &NodeConfig::default().with_shards(2));
            let split = row.run(&plan, &mut pair, "two daemons over a hub");
            sim.assert_matches(&split, &format!("{}, seed {seed}, two daemons", row.name));
            for d in &pair.daemons {
                assert!(d.stats().frames_out > 0, "{}: carrier unused", row.name);
                // The batched paths actually ran.
                assert!(d.metrics().histogram("node.send_batch").is_some());
                assert!(d.metrics().histogram("node.recv_batch").is_some());
            }
        }
    }
}

#[test]
fn many_endpoint_daemon_spreads_a_wide_rotation_over_its_shards() {
    let row = ROWS.iter().find(|r| r.name == "wide rotation").unwrap();
    let plan = (row.plan)(row.seeds[0]);
    let mut set = DaemonSet::new(plan.nodes, 1, &NodeConfig::default().with_shards(8));
    row.run(&plan, &mut set, "8-shard daemon");
    let shards = &set.daemons[0].stats().shards;
    let busy = shards.iter().filter(|s| s.delivered > 0).count();
    assert!(busy >= 4, "only {busy}/8 shards saw deliveries");
}

/// A typed failure must end the run quiet with the failure in the report —
/// not spin the loop to its tick limit waiting for a delivery that cannot
/// happen.
#[test]
fn packets_to_a_node_hosted_nowhere_end_in_typed_failures_not_a_wedge() {
    let mut plan = SwarmPlan::rotation(2, 1, 3, 6, false, 0);
    let nowhere = NodeId::new(5);
    for pkt in &mut plan.sends[0] {
        *pkt = PlannedPacket {
            dst: nowhere,
            ..*pkt
        };
    }
    let cfg = NodeConfig::default().with_protocol(chaos_config(3));
    let mut set = DaemonSet::new(2, 1, &cfg);
    let report = run(&mut set, &plan, 0, 100_000);
    assert_eq!(report.failure_total(), 3, "{:?}", report.failures);
    assert_eq!(report.failures[&(0, 5)]["scalar"], 3);
    assert_eq!(report.log.len(), 1, "only 1 -> 0 can deliver");
    assert_eq!(report.log[&(1, 0)], plan.expected_log()[&(1, 0)]);
    assert!(set.daemons[0].stats().unroutable > 0);
}

#[test]
fn killed_endpoint_restarts_and_the_workload_completes() {
    // Scalar traffic with a generous retry budget: the sender's §6.2
    // machinery must carry the flow across the receiver's crash window.
    let plan = SwarmPlan::rotation(2, 2, 4, 6, false, 1);
    let cfg = NodeConfig::default()
        .with_shards(2)
        .with_protocol(
            NifdyConfig::mesh()
                .with_retx_timeout(64)
                .with_adaptive_rto(true)
                .with_retx_budget(1_000),
        )
        .with_supervisor(
            SupervisorConfig::default()
                .with_heartbeat_every(8)
                .with_peer_timeout(40),
        );
    let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(cfg);
    for i in 0..2 {
        node.add_endpoint(NodeId::new(i), vec![NodeId::new(1 - i)]);
    }
    let mut feeders: Vec<PlanFeeder> = (0..2).map(|i| PlanFeeder::new(&plan, i)).collect();
    // Duplicate deliveries are legitimate across the crash (the restarted
    // incarnation lost its duplicate bits), so completeness is the gate.
    let mut report = RunReport::default();
    let unique = |r: &RunReport| -> usize {
        let distinct = |order: &Vec<(u64, u32)>| order.iter().collect::<BTreeSet<_>>().len();
        r.log.values().map(distinct).sum()
    };
    let total = plan.total_packets() as usize;
    let mut killed = false;
    let mut refed = false;
    let mut events = Vec::new();
    for _round in 0..50_000u64 {
        for (i, feeder) in feeders.iter_mut().enumerate() {
            feeder.pump(|pkt| node.try_send(NodeId::new(i), pkt));
        }
        node.poll_round();
        while let Some((dst, d)) = node.next_delivery() {
            report.deliver(dst.index(), &d);
        }
        events.extend(node.take_peer_events());
        if !killed && unique(&report) >= 2 {
            node.kill(NodeId::new(1));
            killed = true;
        }
        // Packets the dead incarnation had accepted died with it: once the
        // supervisor brings node 1 back, the application re-offers its
        // whole plan (receivers deduplicate) — the same re-offer protocol
        // a respawned swarm process runs.
        if killed && !refed && node.restarts(NodeId::new(1)) == 1 && node.is_up(NodeId::new(1)) {
            feeders[1] = PlanFeeder::new(&plan, 1);
            refed = true;
        }
        let offered = feeders.iter().all(PlanFeeder::done);
        if killed && refed && unique(&report) == total && offered && node.is_idle() {
            break;
        }
    }
    assert_eq!(
        unique(&report),
        total,
        "workload incomplete after crash recovery"
    );
    assert_eq!(
        node.restarts(NodeId::new(1)),
        1,
        "supervisor restarted node 1"
    );
    assert_eq!(node.epoch(NodeId::new(1)), 1, "restart bumped the epoch");
    assert!(
        events
            .iter()
            .any(|(observer, ev)| *observer == NodeId::new(0)
                && matches!(ev, PeerEvent::Restarted { peer, .. } if *peer == NodeId::new(1))),
        "node 0 never detected the restart: {events:?}"
    );
    assert!(node.stats().dropped_down > 0, "crash window dropped frames");
    assert!(node.take_failures().is_empty(), "budget covered the outage");
}
