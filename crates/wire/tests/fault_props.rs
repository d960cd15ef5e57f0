//! Chaos-plane properties: wrapping a transport in an *inactive*
//! [`FaultyTransport`] is observationally free — byte-identical delivery to
//! the bare transport for any seed, any payload, any lane mix — because an
//! inactive plane never draws from its generator at all; an active one
//! leaves exactly one `WireFault` event per fault its plane tallies, cause
//! by cause; and a held frame leaves exactly when its draw says.

use nifdy_net::{FaultConfig, GilbertElliott, Lane, LinkWindow};
use nifdy_sim::{NodeId, SimRng};
use nifdy_trace::{EventKind, FaultCause, TraceConfig, TraceHandle};
use nifdy_wire::{FaultyTransport, LoopbackHub, Transport, WireFaultConfig};
use proptest::prelude::*;

/// A replay of the wire plane's stream for the endpoint at `src`: stream
/// `0xFA27_0000 | node` of the seed, as DESIGN.md §11.1 specifies.
fn replay(seed: u64, src: NodeId) -> SimRng {
    SimRng::from_seed_stream(seed, 0xFA27_0000 | src.index() as u64)
}

/// Ticks `hub` and `tx` `ticks` times and returns what `rx` received,
/// stamped with the hub cycle it arrived at.
fn drain(
    hub: &LoopbackHub,
    tx: &mut impl Transport,
    rx: &mut impl Transport,
    ticks: u64,
) -> Vec<(u64, Vec<u8>)> {
    let mut got = Vec::new();
    for _ in 0..ticks {
        hub.tick();
        tx.tick();
        while let Some(f) = rx.recv(Lane::Request) {
            got.push((hub.now().as_u64(), f));
        }
    }
    got
}

#[test]
fn delay_holds_each_frame_its_drawn_extra() {
    const LATENCY: u64 = 2;
    const DELAY_MAX: u64 = 4;
    let (seed, src, dst) = (1, NodeId::new(0), NodeId::new(1));
    let hub = LoopbackHub::new(2, LATENCY);
    let cfg = WireFaultConfig::default().with_delay(1.0, DELAY_MAX);
    let mut tx = FaultyTransport::new(hub.endpoint(src), cfg, seed);
    let mut rx = hub.endpoint(dst);
    let mut rng = replay(seed, src);
    let (mut due, mut got) = (Vec::new(), Vec::new());
    // Frame `i` is sent at cycle `i`.
    for i in 0..64u8 {
        tx.send(dst, Lane::Request, vec![i]);
        // The plane's draws: the delay coin (p = 1 draws nothing), then the
        // extra.
        assert!(rng.gen_bool(1.0));
        let extra = 1 + rng.next_u64() % DELAY_MAX;
        due.push((u64::from(i) + extra + LATENCY, vec![i]));
        got.extend(drain(&hub, &mut tx, &mut rx, 1));
    }
    got.extend(drain(&hub, &mut tx, &mut rx, DELAY_MAX + LATENCY));
    assert_eq!((tx.held(), tx.stats().count(FaultCause::Delay)), (0, 64));
    // Each frame arrives exactly once, at send + drawn extra + latency.
    got.sort_by_key(|(_, f)| f[0]);
    assert_eq!(got, due);
    let extras: Vec<u64> = got
        .iter()
        .map(|(at, f)| at - u64::from(f[0]) - LATENCY)
        .collect();
    assert!(extras.iter().all(|e| (1..=DELAY_MAX).contains(e)));
    assert!(extras.iter().any(|&e| e > 1), "extras {extras:?}");
}

#[test]
fn a_reordered_frame_is_overtaken_by_a_later_send() {
    const LATENCY: u64 = 2;
    let (src, dst) = (NodeId::new(0), NodeId::new(1));
    // A seed whose first reorder coin lands and whose second does not.
    let seed = (0..)
        .find(|&s| {
            let mut rng = replay(s, src);
            rng.gen_bool(0.5) && !rng.gen_bool(0.5)
        })
        .expect("some seed splits the two coins");
    let hub = LoopbackHub::new(2, LATENCY);
    let cfg = WireFaultConfig::default().with_reorder_prob(0.5);
    let mut tx = FaultyTransport::new(hub.endpoint(src), cfg, seed);
    let mut rx = hub.endpoint(dst);
    tx.send(dst, Lane::Request, vec![1]);
    tx.send(dst, Lane::Request, vec![2]);
    assert_eq!(tx.stats().count(FaultCause::Reorder), 1);
    let got = drain(&hub, &mut tx, &mut rx, LATENCY + 2);
    assert_eq!(got, [(LATENCY, vec![2]), (LATENCY + 1, vec![1])]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn rate_zero_is_byte_identical_to_clean_for_any_seed(
        seed in any::<u64>(),
        jitter_seed in any::<u64>(),
        frames in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..40), any::<bool>()),
            1..40,
        ),
    ) {
        let drive = |fault_seed: Option<u64>| -> Vec<(usize, Vec<u8>)> {
            let hub = LoopbackHub::new(2, 1).with_jitter(jitter_seed, 3);
            let tx = hub.endpoint(NodeId::new(0));
            let mut tx: Box<dyn Transport> = match fault_seed {
                Some(s) => Box::new(FaultyTransport::new(tx, WireFaultConfig::default(), s)),
                None => Box::new(tx),
            };
            let mut rx = hub.endpoint(NodeId::new(1));
            let mut got = Vec::new();
            for (frame, reply_lane) in &frames {
                let lane = if *reply_lane { Lane::Reply } else { Lane::Request };
                tx.send(NodeId::new(1), lane, frame.clone());
                hub.tick();
                tx.tick();
                rx.tick();
                for lane in Lane::ALL {
                    while let Some(f) = rx.recv(lane) {
                        got.push((lane.index(), f));
                    }
                }
            }
            for _ in 0..8 {
                hub.tick();
                for lane in Lane::ALL {
                    while let Some(f) = rx.recv(lane) {
                        got.push((lane.index(), f));
                    }
                }
            }
            got
        };
        let clean = drive(None);
        let wrapped = drive(Some(seed));
        prop_assert_eq!(clean, wrapped, "inactive chaos plane perturbed delivery");
    }

    #[test]
    fn wire_fault_events_equal_the_plane_tally_per_cause(
        seed in any::<u64>(),
        pcts in proptest::collection::vec(1u32..30, 7..8),
        frames in proptest::collection::vec((1usize..4, any::<bool>(), 1usize..24), 1..200),
    ) {
        let p = |model: usize| f64::from(pcts[model]) / 100.0;
        let cfg = WireFaultConfig {
            loss: FaultConfig::default()
                .with_data_drop_prob(p(0))
                .with_ack_drop_prob(p(1))
                .with_burst(GilbertElliott::with_mean_loss(p(2)))
                .with_link_window(LinkWindow::edge(NodeId::new(2), 20, 60)),
            corrupt_prob: p(3),
            duplicate_prob: p(4),
            delay_prob: p(5),
            delay_max: 6,
            reorder_prob: p(6),
        };
        let hub = LoopbackHub::new(4, 1);
        let mut tx = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, seed);
        // A ring far above the frame count: no event can be evicted.
        let trace = TraceHandle::recording(TraceConfig::default().with_capacity_per_node(1 << 12));
        tx.attach_trace(trace.clone());
        for (dst, reply_lane, len) in frames {
            let lane = if reply_lane { Lane::Reply } else { Lane::Request };
            tx.send(NodeId::new(dst), lane, vec![0xA5; len]);
            hub.tick();
            tx.tick();
        }
        let events = trace.snapshot();
        for cause in FaultCause::ALL {
            let traced = events
                .iter()
                .filter(|ev| matches!(ev.kind, EventKind::WireFault { cause: c, .. } if c == cause))
                .count() as u64;
            prop_assert_eq!(traced, tx.stats().count(cause), "cause {}", cause.label());
        }
        prop_assert_eq!(events.len() as u64, tx.stats().total());
    }
}
