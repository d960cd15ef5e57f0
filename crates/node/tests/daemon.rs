//! Daemon-level integration: the whole scenario table (the rotation rows
//! plus the EM3D rows added here) on every carrier that can express each
//! row — flit-level fabric, byte stack over loopback, one sharded daemon,
//! two daemons over a shared hub — and a daemon restarted at the next
//! epoch while its old incarnation's frames are still in flight.

use std::collections::BTreeSet;

use nifdy::NifdyConfig;
use nifdy_node::workload::{em3d_plan, DaemonSet, PlanFeeder, PlannedPacket, SwarmPlan};
use nifdy_node::{NifdyNode, NodeConfig};
use nifdy_sim::NodeId;
use nifdy_trace::TraceHandle;
use nifdy_traffic::Em3dParams;
use nifdy_wire::conformance::{chaos_config, run, RunReport};
use nifdy_wire::scenarios::{delivers_the_plan, Faults, Scenario, ROWS};
use nifdy_wire::{LoopbackHub, LoopbackTransport, PeerEvent, SupervisorConfig};

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

/// Epoch restart racing in-flight frames: node 1's daemon is dropped
/// mid-run and a new daemon at epoch 1 takes over its hub address while
/// frames to and from the dead incarnation are still queued in the hub.
#[test]
fn a_daemon_restarted_at_the_next_epoch_completes_the_workload() {
    // Scalar traffic with a generous retry budget: the sender's §6.2
    // machinery must carry the flow across the receiver's restart.
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
    // Latency 4 keeps several rounds of frames in flight at any moment.
    let hub = LoopbackHub::new(2, 4);
    // Daemon `me` hosts node `me` on hub address `me` and routes the other.
    let daemon = |me: usize, epoch: u32| {
        let mut d: NifdyNode<LoopbackTransport> =
            NifdyNode::new(cfg.clone().with_initial_epoch(epoch));
        let carrier = d.add_carrier(hub.endpoint(NodeId::new(me)));
        d.add_endpoint(NodeId::new(me), vec![NodeId::new(1 - me)]);
        d.set_route(NodeId::new(1 - me), carrier, NodeId::new(1 - me));
        d
    };
    let mut daemons = [daemon(0, 0), daemon(1, 0)];
    let mut feeders: Vec<PlanFeeder> = (0..2).map(|i| PlanFeeder::new(&plan, i)).collect();
    // Duplicate deliveries are legitimate across the restart (the new
    // incarnation lost its duplicate bits), so completeness is the gate.
    let mut report = RunReport::default();
    let unique = |r: &RunReport| -> usize {
        let distinct = |order: &Vec<(u64, u32)>| order.iter().collect::<BTreeSet<_>>().len();
        r.log.values().map(distinct).sum()
    };
    let total = plan.total_packets() as usize;
    let mut restarted = false;
    let mut events = Vec::new();
    let mut failures = Vec::new();
    for _round in 0..50_000u64 {
        for (i, d) in daemons.iter_mut().enumerate() {
            feeders[i].pump(|pkt| d.try_send(NodeId::new(i), pkt));
            d.poll_round();
            while let Some((dst, delivery)) = d.next_delivery() {
                report.deliver(dst.index(), &delivery);
            }
            failures.extend(d.take_failures());
        }
        events.extend(daemons[0].take_peer_events());
        // Packets the dead incarnation had accepted died with it, so the
        // new one re-offers its whole plan (receivers deduplicate) — the
        // same re-offer protocol a respawned swarm process runs. The new
        // daemon starts while frames are in flight, so it races them.
        if !restarted && unique(&report) >= 2 && hub.in_flight() > 0 {
            daemons[1] = daemon(1, 1);
            feeders[1] = PlanFeeder::new(&plan, 1);
            restarted = true;
        }
        hub.tick();
        let offered = feeders.iter().all(PlanFeeder::done);
        let idle = daemons.iter().all(NifdyNode::is_idle) && hub.in_flight() == 0;
        if restarted && unique(&report) == total && offered && idle {
            break;
        }
    }
    assert!(restarted, "the restart was never triggered");
    assert_eq!(
        unique(&report),
        total,
        "workload incomplete after the restart"
    );
    assert!(
        events
            .iter()
            .any(|(observer, ev)| *observer == NodeId::new(0)
                && matches!(ev, PeerEvent::Restarted { peer, epoch: 1 } if *peer == NodeId::new(1))),
        "node 0 never detected the restart: {events:?}"
    );
    assert!(
        failures.is_empty(),
        "budget covered the restart: {failures:?}"
    );
}
