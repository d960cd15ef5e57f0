//! Daemon-level integration: the whole scenario table (the rotation rows
//! plus the EM3D rows added here) on every carrier that can express each
//! row — flit-level fabric, byte stack over loopback, one sharded daemon,
//! two daemons over a shared hub — a daemon restarted at the next epoch
//! while its old incarnation's frames are still in flight, and the
//! per-daemon liveness protocol: beacons, silence, epochs, and resets.

use std::collections::{BTreeMap, BTreeSet};

use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::{Lane, UserData};
use nifdy_node::workload::{em3d_plan, DaemonSet, PlanFeeder, PlannedPacket, SwarmPlan};
use nifdy_node::{NifdyNode, NodeConfig};
use nifdy_sim::{NodeId, Wakeup};
use nifdy_trace::{EventKind, TraceConfig, TraceHandle};
use nifdy_traffic::Em3dParams;
use nifdy_wire::conformance::{chaos_config, run, RunReport};
use nifdy_wire::scenarios::{delivers_the_plan, Faults, Scenario, ROWS};
use nifdy_wire::{
    encode_heartbeat, Heartbeat, LoopbackHub, LoopbackTransport, PeerEvent, SupervisorConfig,
    Transport,
};

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
        events.iter().any(
            |ev| matches!(ev, PeerEvent::Restarted { peer, epoch: 1 } if *peer == NodeId::new(1))
        ),
        "node 0 never detected the restart: {events:?}"
    );
    assert!(
        failures.is_empty(),
        "budget covered the restart: {failures:?}"
    );
}

/// Beacons every 8 rounds; a peer is down after 40 silent ones.
fn fast_liveness() -> NodeConfig {
    NodeConfig::default().with_supervisor(
        SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40),
    )
}

/// Incarnation `epoch` of the daemon on hub address `me`: it hosts every
/// node of `0..nodes` that `host` maps to `me`, each watching all of
/// `watched`, and routes every other node to its host's address.
fn daemon_at(
    hub: &LoopbackHub,
    cfg: &NodeConfig,
    me: usize,
    epoch: u32,
    nodes: usize,
    host: fn(usize) -> usize,
    watched: &[usize],
) -> NifdyNode<LoopbackTransport> {
    let mut d = NifdyNode::new(cfg.clone().with_initial_epoch(epoch));
    let c = d.add_carrier(hub.endpoint(NodeId::new(me)));
    for n in 0..nodes {
        if host(n) == me {
            d.add_endpoint(
                NodeId::new(n),
                watched.iter().map(|&w| NodeId::new(w)).collect(),
            );
        } else {
            d.set_route(NodeId::new(n), c, NodeId::new(host(n)));
        }
    }
    d
}

/// Two daemons, node `i` on address `i`, each watching the other node.
fn pair(hub: &LoopbackHub, cfg: &NodeConfig) -> [NifdyNode<LoopbackTransport>; 2] {
    [0, 1].map(|me| daemon_at(hub, cfg, me, 0, 2, |n| n, &[1 - me]))
}

fn rounds(daemons: &mut [NifdyNode<LoopbackTransport>], hub: &LoopbackHub, n: usize) {
    for _ in 0..n {
        for d in daemons.iter_mut() {
            d.poll_round();
        }
        hub.tick();
    }
}

/// A beacon from carrier address `src` to `dst`, sent past any daemon.
fn inject_beacon(hub: &LoopbackHub, src: usize, dst: usize, epoch: u32) {
    let hb = Heartbeat {
        src: NodeId::new(src),
        dst: NodeId::new(dst),
        epoch,
    };
    hub.endpoint(hb.src)
        .send(hb.dst, Lane::Reply, encode_heartbeat(&hb));
}

#[test]
fn beacons_alone_establish_liveness() {
    let hub = LoopbackHub::new(2, 1);
    let mut ds = pair(&hub, &fast_liveness());
    rounds(&mut ds, &hub, 64);
    for d in &mut ds {
        assert_eq!(d.take_peer_events(), [], "both peers beacon");
        let s = d.stats();
        assert_eq!(s.heartbeats_out, 8, "one beacon per 8 rounds");
        assert_eq!(s.heartbeats_in, 8);
        assert_eq!(
            (s.frames_in, s.frames_out),
            (0, 0),
            "beacons are not frames"
        );
    }
    // The record those beacons made is what silence is measured against.
    let [zero, _] = &mut ds;
    rounds(std::slice::from_mut(zero), &hub, 64);
    assert!(matches!(
        zero.take_peer_events()[..],
        [PeerEvent::Down { peer, .. }] if peer == NodeId::new(1)
    ));
}

#[test]
fn silence_flags_a_peer_daemon_down_once() {
    let hub = LoopbackHub::new(2, 1);
    let mut ds = pair(&hub, &fast_liveness());
    rounds(&mut ds, &hub, 16);
    let [zero, _] = &mut ds;
    let mut downs = Vec::new();
    for _ in 0..200 {
        rounds(std::slice::from_mut(zero), &hub, 1);
        downs.extend(zero.take_peer_events());
    }
    assert_eq!(
        downs,
        [PeerEvent::Down {
            peer: NodeId::new(1),
            silent_for: 40
        }],
        "the down transition is edge-triggered"
    );
}

#[test]
fn an_epoch_increase_resets_the_peers_nodes_and_raises_one_restart() {
    // Two nodes per daemon: address 0 hosts 0 and 1, address 1 hosts 2 and 3.
    let host = |n: usize| n / 2;
    let hub = LoopbackHub::new(2, 1);
    let trace = TraceHandle::recording(TraceConfig::new());
    let cfg = fast_liveness();
    let mut ds = [0, 1].map(|me| daemon_at(&hub, &cfg, me, 0, 4, host, &[0, 1, 2, 3]));
    ds[0].attach_trace(trace.clone());
    rounds(&mut ds, &hub, 16);
    ds[1] = daemon_at(&hub, &cfg, 1, 1, 4, host, &[0, 1, 2, 3]);
    rounds(&mut ds, &hub, 32);
    assert_eq!(
        ds[0].take_peer_events(),
        [PeerEvent::Restarted {
            peer: NodeId::new(1),
            epoch: 1
        }]
    );
    let resets: BTreeSet<(usize, usize)> = trace
        .snapshot()
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::PeerRestart { peer, epoch: 1 } => Some((ev.node.index(), peer.index())),
            _ => None,
        })
        .collect();
    let want = BTreeSet::from([(0, 2), (0, 3), (1, 2), (1, 3)]);
    assert_eq!(
        resets, want,
        "every hosted endpoint resets every node behind the peer"
    );
}

#[test]
fn a_beacon_from_an_earlier_epoch_is_ignored() {
    let hub = LoopbackHub::new(2, 1);
    let cfg = fast_liveness();
    let mut ds = pair(&hub, &cfg);
    rounds(&mut ds, &hub, 16);
    ds[1] = daemon_at(&hub, &cfg, 1, 1, 2, |n| n, &[0]);
    rounds(&mut ds, &hub, 16);
    assert_eq!(ds[0].take_peer_events().len(), 1, "the restart");
    // A delayed beacon of the dead incarnation must not rewind the
    // recorded epoch, or the live one's next beacon reads as a restart.
    inject_beacon(&hub, 1, 0, 0);
    rounds(&mut ds, &hub, 32);
    assert_eq!(ds[0].take_peer_events(), []);
}

#[test]
fn a_beacon_from_a_daemon_routing_no_watched_node_leaves_no_state() {
    // Address 0 watches node 1 (behind address 1); node 2 (behind
    // address 2) is routed but watched by nobody.
    let hub = LoopbackHub::new(3, 1);
    let mut zero = daemon_at(&hub, &fast_liveness(), 0, 0, 3, |n| n, &[1]);
    inject_beacon(&hub, 2, 0, 0);
    inject_beacon(&hub, 2, 0, 5);
    for _ in 0..200 {
        zero.poll_round();
        hub.tick();
    }
    // No record: no restart on the epoch jump, and no silence to flag.
    assert_eq!(zero.take_peer_events(), []);
    assert_eq!(zero.stats().heartbeats_in, 2);
    assert_eq!(
        zero.stats().heartbeats_out,
        25,
        "beacons go to address 1 only"
    );
}

#[test]
fn an_idle_hosted_endpoint_that_watches_peers_is_quiescent() {
    let hub = LoopbackHub::new(2, 1);
    let mut ds = pair(&hub, &fast_liveness());
    rounds(&mut ds, &hub, 20);
    let ep = ds[0].supervised(NodeId::new(0)).expect("hosted").endpoint();
    assert!(ds[0].stats().heartbeats_in > 0, "liveness is running");
    assert_eq!(ep.next_event(), Wakeup::Quiescent);
}

/// The bulk packets of flow `src -> dst`, last first (sent by `pop`).
fn bulk_flow(src: usize, dst: usize, n: u32) -> Vec<OutboundPacket> {
    (0..n)
        .rev()
        .map(|i| {
            OutboundPacket::new(NodeId::new(dst), 6)
                .with_bulk(true)
                .with_user(UserData {
                    msg_id: src as u64,
                    pkt_index: i,
                    msg_packets: n,
                    user_words: 4,
                })
        })
        .collect()
}

/// Three daemons, the middle one killed during bulk dialogs and restarted
/// at the next epoch. Each survivor resets
/// exactly the dead daemon's nodes, and its dialog with the other survivor
/// carries on untouched.
#[test]
fn a_killed_daemon_of_three_resets_exactly_its_nodes() {
    const N: u32 = 64;
    // Address a hosts nodes 2a and 2a + 1; every node watches every other.
    let host = |n: usize| n / 2;
    let all = [0, 1, 2, 3, 4, 5];
    let hub = LoopbackHub::new(3, 1);
    let trace = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));
    let cfg = fast_liveness().with_protocol(
        NifdyConfig::mesh()
            .with_retx_timeout(64)
            .with_adaptive_rto(true)
            .with_retx_budget(1_000),
    );
    let mut ds = [0, 1, 2].map(|me| daemon_at(&hub, &cfg, me, 0, 6, host, &all));
    for d in &mut ds {
        d.attach_trace(trace.clone());
    }
    // Survivor to survivor: 0 -> 4 and 5 -> 1. Into the victim: 1 -> 2 and
    // 4 -> 3. Out of it: 3 -> 0.
    let flows = [(0, 4), (5, 1), (1, 2), (4, 3), (3, 0)];
    let mut queues: Vec<Vec<OutboundPacket>> = flows
        .iter()
        .map(|&(src, dst)| bulk_flow(src, dst, N))
        .collect();
    let mut got: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut events: [Vec<PeerEvent>; 3] = Default::default();
    let (mut killed_at, mut restarted) = (None, false);
    let survivors_done = |got: &BTreeMap<(usize, usize), Vec<u32>>| {
        [(0, 4), (5, 1)]
            .iter()
            .all(|k| got.get(k).map_or(0, Vec::len) == N as usize)
    };
    for round in 0..100_000u64 {
        for (f, &(src, _)) in flows.iter().enumerate() {
            // The victim's queue dies with its first incarnation.
            if host(src) == 1 && killed_at.is_some() {
                continue;
            }
            if let Some(pkt) = queues[f].last().copied() {
                if ds[host(src)].try_send(NodeId::new(src), pkt) {
                    queues[f].pop();
                }
            }
        }
        for (i, d) in ds.iter_mut().enumerate() {
            if i == 1 && killed_at.is_some() && !restarted {
                continue;
            }
            d.poll_round();
            while let Some((dst, pkt)) = d.next_delivery() {
                got.entry((pkt.src.index(), dst.index()))
                    .or_default()
                    .push(pkt.user.pkt_index);
            }
            failures.extend(d.take_failures());
            events[i].extend(d.take_peer_events());
        }
        hub.tick();
        let in_dialog =
            got.get(&(1, 2)).map_or(0, Vec::len) >= 8 && got.get(&(0, 4)).map_or(0, Vec::len) >= 8;
        if killed_at.is_none() && in_dialog {
            killed_at = Some(round);
            assert!(!survivors_done(&got), "killed after the survivors finished");
        }
        if !restarted && killed_at.is_some_and(|at| round >= at + 20) {
            ds[1] = daemon_at(&hub, &cfg, 1, 1, 6, host, &all);
            ds[1].attach_trace(trace.clone());
            restarted = true;
        }
        if restarted && survivors_done(&got) && ds.iter().all(NifdyNode::is_idle) {
            break;
        }
    }
    assert!(restarted, "the victim was never killed");
    // The survivors' dialog never noticed.
    let in_order: Vec<u32> = (0..N).collect();
    assert_eq!(got[&(0, 4)], in_order, "0 -> 4 lost or reordered packets");
    assert_eq!(got[&(5, 1)], in_order, "5 -> 1 lost or reordered packets");
    assert!(
        !failures.is_empty(),
        "the dialogs into the victim were torn down"
    );
    for f in &failures {
        assert!(
            [2, 3].contains(&f.dst.index()),
            "only state toward the dead daemon fails: {f:?}"
        );
    }
    for i in [0, 2] {
        assert_eq!(
            events[i],
            [PeerEvent::Restarted {
                peer: NodeId::new(1),
                epoch: 1
            }],
            "daemon {i}"
        );
    }
    let resets: BTreeSet<(usize, usize)> = trace
        .snapshot()
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::PeerRestart { peer, .. } => Some((ev.node.index(), peer.index())),
            _ => None,
        })
        .collect();
    let want: BTreeSet<(usize, usize)> = [0, 1, 4, 5]
        .into_iter()
        .flat_map(|survivor| [(survivor, 2), (survivor, 3)])
        .collect();
    assert_eq!(resets, want, "each survivor resets exactly nodes 2 and 3");
}

/// The restarted daemon's first beacon and first data frame leave in one
/// carrier batch. The survivor applies the beacon before it steps any
/// endpoint, so the reset clears the duplicate bit the dead incarnation
/// left, and the new incarnation's first packet is delivered instead of
/// being swallowed as a retransmission (§6.2).
#[test]
fn a_restarts_first_packet_is_not_taken_for_a_duplicate() {
    let hub = LoopbackHub::new(2, 1);
    // Duplicate bits exist only where retransmission does.
    let cfg = NodeConfig::default().with_protocol(NifdyConfig::mesh().with_retx_timeout(1_000));
    let mut ds = pair(&hub, &cfg);
    let packet = |msg_id: u64| {
        OutboundPacket::new(NodeId::new(0), 6).with_user(UserData {
            msg_id,
            pkt_index: 0,
            msg_packets: 1,
            user_words: 4,
        })
    };
    let mut delivered = Vec::new();
    let drive = |ds: &mut [NifdyNode<LoopbackTransport>; 2], delivered: &mut Vec<u64>| {
        for _ in 0..64 {
            rounds(ds, &hub, 1);
            while let Some((_, d)) = ds[0].next_delivery() {
                delivered.push(d.user.msg_id);
            }
        }
    };
    // The first incarnation's one scalar packet: node 0 records its dup bit.
    assert!(ds[1].try_send(NodeId::new(1), packet(1)));
    drive(&mut ds, &mut delivered);
    assert!(ds[1].is_idle() && hub.in_flight() == 0, "acknowledged");

    // The restart sends the same first dup bit, in its very first round.
    ds[1] = daemon_at(&hub, &cfg, 1, 1, 2, |n| n, &[0]);
    assert!(ds[1].try_send(NodeId::new(1), packet(2)));
    ds[1].poll_round();
    assert_eq!(hub.in_flight(), 2, "beacon and data share one flush");
    hub.tick();
    drive(&mut ds, &mut delivered);
    assert_eq!(delivered, [1, 2], "the restart's first packet was dropped");
}
