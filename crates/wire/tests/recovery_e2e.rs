//! End-to-end crash recovery: a supervised endpoint is dropped mid-run —
//! losing every byte of protocol state — and after a down window a new
//! incarnation at the next epoch takes over its hub address; the two-node
//! rotation workload still completes. Recovery must be *visible*: the
//! flight recorder has to show the survivor flagging the silence, its
//! epoch-based detection of the restart, and the typed teardown of state
//! entangled with the dead incarnation.

use std::collections::BTreeSet;

use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::UserData;
use nifdy_sim::{Cycle, NodeId, Wakeup};
use nifdy_trace::{TraceConfig, TraceHandle};
use nifdy_wire::{
    LoopbackHub, LoopbackTransport, SupervisedEndpoint, SupervisorConfig, WireEndpoint,
};

const MESSAGES: u64 = 3;
const PACKETS_PER_MESSAGE: u32 = 4;
const SIZE_WORDS: u16 = 6;
/// Cycles node 1 stays dead: longer than the 40-cycle `peer_timeout`, so
/// the survivor visibly flags the peer down before the new incarnation
/// announces itself.
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

fn protocol_config() -> NifdyConfig {
    NifdyConfig::mesh()
        .with_retx_timeout(64)
        .with_adaptive_rto(true)
        .with_retx_budget(6)
}

/// Incarnation `epoch` of node `me` on its hub address, watching the other
/// node: a fresh endpoint that knows nothing of any earlier incarnation.
fn incarnation(
    hub: &LoopbackHub,
    me: usize,
    epoch: u32,
    trace: &TraceHandle,
) -> SupervisedEndpoint<LoopbackTransport> {
    let cfg = SupervisorConfig::default()
        .with_heartbeat_every(16)
        .with_peer_timeout(40);
    let ep = WireEndpoint::new(node(me), protocol_config(), hub.endpoint(node(me)));
    let mut sup = SupervisedEndpoint::new(ep, cfg, epoch);
    sup.watch(node(1 - me));
    sup.attach_trace(trace.clone());
    sup
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

#[test]
fn killed_endpoint_recovers_and_the_rotation_completes() {
    let hub = LoopbackHub::new(2, 1);
    let trace = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));

    // Node 0 survives the whole run; node 1 is dropped mid-run.
    let mut n0 = incarnation(&hub, 0, 0, &trace);
    let mut n1 = Some(incarnation(&hub, 1, 0, &trace));

    let all0 = workload(0); // node 0 -> node 1
    let all1 = workload(1); // node 1 -> node 0
    let mut remaining0: Vec<UserData> = all0.iter().rev().copied().collect();
    let mut remaining1: Vec<UserData> = all1.iter().rev().copied().collect();
    let mut delivered_at_1 = BTreeSet::new();
    let mut delivered_at_0 = BTreeSet::new();
    let mut n0_failures = 0usize;
    let mut restart_at = None;
    let mut restarts = 0;

    let total = all0.len();
    for cycle in 0..120_000u64 {
        // Crash node 1 once real traffic is flowing in both directions.
        if restart_at.is_none() && delivered_at_1.len() >= 4 && delivered_at_0.len() >= 4 {
            n1 = None;
            restart_at = Some(hub.now().as_u64() + DOWN_WINDOW);
        }

        // Node 0: feed, step, poll, and re-offer anything that failed.
        if let Some(user) = remaining0.last().copied() {
            let pkt = OutboundPacket::new(node(1), SIZE_WORDS)
                .with_bulk(true)
                .with_user(user);
            if n0.endpoint_mut().try_send(pkt) {
                remaining0.pop();
            }
        }
        n0.step();
        while let Some(d) = n0.endpoint_mut().poll() {
            delivered_at_0.insert((d.user.msg_id, d.user.pkt_index));
        }
        let failures = n0.endpoint_mut().take_failures();
        if !failures.is_empty() {
            n0_failures += failures.len();
            refill(&mut remaining0, &all0, &delivered_at_1);
        }

        // Node 1: once the down window is over, a new incarnation at the
        // next epoch knows nothing, so its send queue is rebuilt from what
        // provably arrived.
        if n1.is_none() && restart_at.is_some_and(|at| hub.now().as_u64() >= at) {
            n1 = Some(incarnation(&hub, 1, 1, &trace));
            restarts += 1;
            refill(&mut remaining1, &all1, &delivered_at_0);
            // The survivor's outbound state may already be poisoned against
            // the dead incarnation; re-offer its remainder too.
            refill(&mut remaining0, &all0, &delivered_at_1);
        }
        if let Some(ep) = n1.as_mut() {
            ep.step();
            if let Some(user) = remaining1.last().copied() {
                let pkt = OutboundPacket::new(node(0), SIZE_WORDS)
                    .with_bulk(true)
                    .with_user(user);
                if ep.endpoint_mut().try_send(pkt) {
                    remaining1.pop();
                }
            }
            while let Some(d) = ep.endpoint_mut().poll() {
                delivered_at_1.insert((d.user.msg_id, d.user.pkt_index));
            }
            let _ = ep.endpoint_mut().take_failures();
        }

        hub.tick();

        if delivered_at_1.len() == total && delivered_at_0.len() == total && restarts > 0 {
            assert!(cycle > 0);
            break;
        }
    }

    assert!(
        restart_at.is_some(),
        "the crash was never triggered — workload too small"
    );
    assert_eq!(restarts, 1, "exactly one restart");
    assert_eq!(n1.as_ref().map(SupervisedEndpoint::epoch), Some(1));
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
        n0_failures > 0,
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

/// The same crash-and-recover rotation, driven event-style: instead of
/// stepping every hub cycle, the driver asks each component when it next
/// needs work ([`SupervisedEndpoint::next_event`],
/// [`LoopbackHub::next_delivery`], and its own restart deadline) and jumps
/// the clock to the earliest. Under the [`Wakeup`] contract the skipped
/// cycles are no-ops, so the run must still complete — through a crash, a
/// down window, and a restart — while stepping far fewer rounds than the
/// down window spans.
#[test]
fn event_driven_driver_recovers_with_fewer_stepped_rounds() {
    let hub = LoopbackHub::new(2, 1);
    let trace = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));

    let mut n0 = incarnation(&hub, 0, 0, &trace);
    let mut n1 = Some(incarnation(&hub, 1, 0, &trace));

    let all0 = workload(0);
    let all1 = workload(1);
    let mut remaining0: Vec<UserData> = all0.iter().rev().copied().collect();
    let mut remaining1: Vec<UserData> = all1.iter().rev().copied().collect();
    let mut delivered_at_1 = BTreeSet::new();
    let mut delivered_at_0 = BTreeSet::new();
    let mut stepped = 0u64;
    // Rounds stepped from the crash through the restart, and the cycle of
    // each end of that window.
    let mut down_rounds = 0u64;
    let (mut killed_at, mut restarted_at) = (None, None);

    let total = all0.len();
    let bound = Cycle::new(120_000);
    let mut done = false;
    while hub.now() < bound {
        stepped += 1;
        // `active` records whether this round performed external input the
        // components cannot predict (a fed packet, a consumed delivery, a
        // failure-driven re-offer, a crash or restart); only then must the
        // very next cycle be stepped too. Otherwise the components' own
        // wakeups are trusted.
        let mut active = false;
        if killed_at.is_none() && delivered_at_1.len() >= 4 && delivered_at_0.len() >= 4 {
            n1 = None;
            killed_at = Some(hub.now().as_u64());
            active = true;
        }
        if n1.is_none() {
            down_rounds += 1;
        }

        if let Some(user) = remaining0.last().copied() {
            let pkt = OutboundPacket::new(node(1), SIZE_WORDS)
                .with_bulk(true)
                .with_user(user);
            if n0.endpoint_mut().try_send(pkt) {
                remaining0.pop();
                active = true;
            }
        }
        n0.step();
        while let Some(d) = n0.endpoint_mut().poll() {
            delivered_at_0.insert((d.user.msg_id, d.user.pkt_index));
            active = true;
        }
        if !n0.endpoint_mut().take_failures().is_empty() {
            refill(&mut remaining0, &all0, &delivered_at_1);
            active = true;
        }

        let restart_due = killed_at.map(|at| at + DOWN_WINDOW);
        if n1.is_none() && restart_due.is_some_and(|at| hub.now().as_u64() >= at) {
            n1 = Some(incarnation(&hub, 1, 1, &trace));
            restarted_at = Some(hub.now().as_u64());
            refill(&mut remaining1, &all1, &delivered_at_0);
            refill(&mut remaining0, &all0, &delivered_at_1);
            active = true;
        }
        if let Some(ep) = n1.as_mut() {
            ep.step();
            if let Some(user) = remaining1.last().copied() {
                let pkt = OutboundPacket::new(node(0), SIZE_WORDS)
                    .with_bulk(true)
                    .with_user(user);
                if ep.endpoint_mut().try_send(pkt) {
                    remaining1.pop();
                    active = true;
                }
            }
            while let Some(d) = ep.endpoint_mut().poll() {
                delivered_at_1.insert((d.user.msg_id, d.user.pkt_index));
                active = true;
            }
            let _ = ep.endpoint_mut().take_failures();
        }

        hub.tick();
        if delivered_at_1.len() == total && delivered_at_0.len() == total && restarted_at.is_some()
        {
            done = true;
            break;
        }

        // Skip ahead: the earliest of the live components' wakeups, the
        // restart deadline while node 1 is down, and the hub's next frame
        // delivery. `WireEndpoint::next_event` cannot see frames still
        // inside the transport, so the hub's clock is folded in explicitly,
        // exactly as its docs demand.
        let now = hub.now();
        let mut wake = n0.next_event();
        match (&n1, restart_due) {
            (Some(ep), _) => wake = wake.earliest(ep.next_event()),
            (None, Some(at)) => wake = wake.earliest(Wakeup::at_or_now(Cycle::new(at), now)),
            (None, None) => {}
        }
        // A deadline already in the past is a frame addressed to the down
        // node: every live endpoint is stepped at each deliverable cycle,
        // so only a dead destination can leave one behind. It stays
        // undeliverable until the restart, whose deadline is folded in
        // above.
        if let Some(at) = hub.next_delivery() {
            if at >= now.as_u64() {
                wake = wake.earliest(Wakeup::at_or_now(Cycle::new(at), now));
            }
        }
        if active {
            wake = Wakeup::Now;
        }
        let target = wake.deadline_or(now, bound);
        while hub.now() < target {
            hub.tick();
        }
    }

    let elapsed = hub.now().as_u64();
    assert!(done, "rotation did not complete by cycle {elapsed}");
    let (Some(killed_at), Some(restarted_at)) = (killed_at, restarted_at) else {
        panic!("the crash or the restart never happened");
    };
    assert_eq!(n1.as_ref().map(SupervisedEndpoint::epoch), Some(1));
    let window = restarted_at - killed_at;
    assert!(
        down_rounds * 2 < window,
        "skip-ahead stepped {down_rounds} rounds over the {window}-cycle down window \
         ({stepped} over {elapsed} in all) — the down and retransmission \
         windows were not skipped"
    );

    let names: BTreeSet<&'static str> = trace.snapshot().iter().map(|ev| ev.kind.name()).collect();
    for required in ["peer_down", "peer_restart"] {
        assert!(
            names.contains(required),
            "recovery left no {required:?} event in the trace; saw {names:?}"
        );
    }
}
