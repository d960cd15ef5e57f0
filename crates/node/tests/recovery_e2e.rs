//! End-to-end crash recovery: a daemon is dropped mid-run — losing every
//! byte of protocol state — and after a down window a new incarnation at
//! the next epoch takes over its hub address; the two-node rotation
//! workload still completes. Recovery must be *visible*: the flight
//! recorder has to show the survivor flagging the silence, its epoch-based
//! detection of the restart, and the typed teardown of state entangled with
//! the dead incarnation.

use std::collections::BTreeSet;

use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::UserData;
use nifdy_node::{NifdyNode, NodeConfig};
use nifdy_sim::NodeId;
use nifdy_trace::{TraceConfig, TraceHandle};
use nifdy_wire::{LoopbackHub, LoopbackTransport, SupervisorConfig};

const MESSAGES: u64 = 3;
const PACKETS_PER_MESSAGE: u32 = 4;
const SIZE_WORDS: u16 = 6;
/// Rounds node 1's daemon stays dead: longer than the 40-round
/// `peer_timeout`, so the survivor visibly flags the peer down before the
/// new incarnation announces itself.
const DOWN_WINDOW: u64 = 80;

fn node(i: usize) -> NodeId {
    NodeId::new(i)
}

fn workload(src: usize) -> Vec<UserData> {
    let mut users = Vec::new();
    for m in 0..MESSAGES {
        for p in 0..PACKETS_PER_MESSAGE {
            users.push(UserData {
                msg_id: ((src as u64) << 32) | m,
                pkt_index: p,
                msg_packets: PACKETS_PER_MESSAGE,
                user_words: SIZE_WORDS.saturating_sub(2),
            });
        }
    }
    users
}

/// Incarnation `epoch` of the daemon hosting node `me` on hub address
/// `me`, watching the other node: a fresh process that knows nothing of
/// any earlier incarnation.
fn incarnation(
    hub: &LoopbackHub,
    me: usize,
    epoch: u32,
    trace: &TraceHandle,
) -> NifdyNode<LoopbackTransport> {
    let cfg = NodeConfig::default()
        .with_protocol(
            NifdyConfig::mesh()
                .with_retx_timeout(64)
                .with_adaptive_rto(true)
                .with_retx_budget(6),
        )
        .with_supervisor(
            SupervisorConfig::default()
                .with_heartbeat_every(16)
                .with_peer_timeout(40),
        )
        .with_initial_epoch(epoch);
    let mut d = NifdyNode::new(cfg);
    let carrier = d.add_carrier(hub.endpoint(node(me)));
    d.add_endpoint(node(me), vec![node(1 - me)]);
    d.set_route(node(1 - me), carrier, node(1 - me));
    d.attach_trace(trace.clone());
    d
}

/// The application-level reliability shim a real system would run above
/// the interface: anything not confirmed delivered gets re-offered after a
/// failure. The test's "omniscient" confirmation (reading the receiver's
/// delivered set directly) stands in for an app-level acknowledgment.
fn refill(remaining: &mut Vec<UserData>, all: &[UserData], delivered: &BTreeSet<(u64, u32)>) {
    remaining.clear();
    remaining.extend(
        all.iter()
            .filter(|u| !delivered.contains(&(u.msg_id, u.pkt_index)))
            .copied(),
    );
    remaining.reverse(); // feed via pop() in send order
}

/// One round of daemon `me`: feed its next packet, poll, and record what
/// arrived. Returns how many typed failures it surfaced.
fn round(
    d: &mut NifdyNode<LoopbackTransport>,
    me: usize,
    remaining: &mut Vec<UserData>,
    delivered: &mut BTreeSet<(u64, u32)>,
) -> usize {
    if let Some(user) = remaining.last().copied() {
        let pkt = OutboundPacket::new(node(1 - me), SIZE_WORDS)
            .with_bulk(true)
            .with_user(user);
        if d.try_send(node(me), pkt) {
            remaining.pop();
        }
    }
    d.poll_round();
    while let Some((_, got)) = d.next_delivery() {
        delivered.insert((got.user.msg_id, got.user.pkt_index));
    }
    d.take_failures().len()
}

#[test]
fn killed_daemon_recovers_and_the_rotation_completes() {
    let hub = LoopbackHub::new(2, 1);
    let trace = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));

    // Node 0's daemon survives the whole run; node 1's is dropped mid-run.
    let mut d0 = incarnation(&hub, 0, 0, &trace);
    let mut d1 = Some(incarnation(&hub, 1, 0, &trace));

    let all0 = workload(0); // node 0 -> node 1
    let all1 = workload(1); // node 1 -> node 0
    let mut remaining0: Vec<UserData> = all0.iter().rev().copied().collect();
    let mut remaining1: Vec<UserData> = all1.iter().rev().copied().collect();
    let mut delivered_at_1 = BTreeSet::new();
    let mut delivered_at_0 = BTreeSet::new();
    let mut d0_failures = 0usize;
    let mut restart_at = None;
    let mut restarts = 0;

    let total = all0.len();
    for _ in 0..120_000u64 {
        // Crash node 1's daemon once real traffic flows in both directions.
        if restart_at.is_none() && delivered_at_1.len() >= 4 && delivered_at_0.len() >= 4 {
            d1 = None;
            restart_at = Some(hub.now().as_u64() + DOWN_WINDOW);
        }

        let failed = round(&mut d0, 0, &mut remaining0, &mut delivered_at_0);
        if failed > 0 {
            d0_failures += failed;
            refill(&mut remaining0, &all0, &delivered_at_1);
        }

        // Once the down window is over, a new incarnation at the next
        // epoch knows nothing, so its send queue is rebuilt from what
        // provably arrived.
        if d1.is_none() && restart_at.is_some_and(|at| hub.now().as_u64() >= at) {
            d1 = Some(incarnation(&hub, 1, 1, &trace));
            restarts += 1;
            refill(&mut remaining1, &all1, &delivered_at_0);
            // The survivor's outbound state may already be poisoned against
            // the dead incarnation; re-offer its remainder too.
            refill(&mut remaining0, &all0, &delivered_at_1);
        }
        if let Some(d) = d1.as_mut() {
            round(d, 1, &mut remaining1, &mut delivered_at_1);
        }

        hub.tick();

        if delivered_at_1.len() == total && delivered_at_0.len() == total && restarts > 0 {
            break;
        }
    }

    assert!(
        restart_at.is_some(),
        "the crash was never triggered — workload too small"
    );
    assert_eq!(restarts, 1, "exactly one restart");
    assert_eq!(
        delivered_at_1.len(),
        total,
        "rotation leg 0->1 did not complete after the crash"
    );
    assert_eq!(
        delivered_at_0.len(),
        total,
        "rotation leg 1->0 did not complete after the crash"
    );
    assert!(
        d0_failures > 0,
        "the survivor must surface typed failures for state lost with the peer"
    );

    // Recovery must be visible in the flight recorder as typed events.
    let names: BTreeSet<&'static str> = trace.snapshot().iter().map(|ev| ev.kind.name()).collect();
    for required in ["heartbeat", "peer_down", "peer_restart", "dialog_close"] {
        assert!(
            names.contains(required),
            "recovery left no {required:?} event in the trace; saw {names:?}"
        );
    }
}
