#![allow(clippy::needless_range_loop, reason = "index loops mirror node ids")]

//! Protocol-level integration tests for the NIFDY unit over real fabrics.

use nifdy::{BufferedNic, Nic, NifdyConfig, NifdyUnit, OutboundPacket, PlainNic};
use nifdy_net::topology::{Butterfly, FatTree, Mesh};
use nifdy_net::{Fabric, FabricConfig, SwitchingPolicy, UserData};
use nifdy_sim::NodeId;

/// A minimal test rig: one NIC per node, all stepped together with the
/// fabric, polling every node every cycle.
struct Bed<N: Nic> {
    fab: Fabric,
    nics: Vec<N>,
}

impl<N: Nic> Bed<N> {
    fn new(fab: Fabric, mk: impl Fn(NodeId) -> N) -> Self {
        let nics = (0..fab.num_nodes()).map(|i| mk(NodeId::new(i))).collect();
        Bed { fab, nics }
    }

    /// One cycle: NICs step, fabric steps, every node polls once; received
    /// packets are appended to `sink[node]`.
    fn step(&mut self, sink: &mut [Vec<(NodeId, UserData)>]) {
        for nic in &mut self.nics {
            nic.step(&mut self.fab);
        }
        self.fab.step();
        for (i, nic) in self.nics.iter_mut().enumerate() {
            if let Some(d) = nic.poll(self.fab.now()) {
                sink[i].push((d.src, d.user));
            }
        }
    }

    fn run_until<F: Fn(&[Vec<(NodeId, UserData)>]) -> bool>(
        &mut self,
        sink: &mut [Vec<(NodeId, UserData)>],
        limit: u64,
        done: F,
    ) {
        while !done(sink) {
            self.step(sink);
            assert!(
                self.fab.now().as_u64() < limit,
                "timed out at {} (delivered so far: {:?})",
                self.fab.now(),
                sink.iter().map(Vec::len).collect::<Vec<_>>()
            );
        }
    }
}

fn msg(dst: usize, idx: u32, total: u32, bulk: bool) -> OutboundPacket {
    OutboundPacket::new(NodeId::new(dst), 8)
        .with_bulk(bulk)
        .with_user(UserData {
            msg_id: 1,
            pkt_index: idx,
            msg_packets: total,
            user_words: 6,
        })
}

fn sink(n: usize) -> Vec<Vec<(NodeId, UserData)>> {
    vec![Vec::new(); n]
}

#[test]
fn scalar_traffic_arrives_in_order_and_opt_stays_bounded() {
    let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let cfg = NifdyConfig::mesh();
    let o = cfg.opt_entries as usize;
    let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, NifdyConfig::mesh()));
    let mut got = sink(16);

    // Node 0 streams 20 scalar packets to node 15, interleaved with 10 to
    // node 12 — the pool must interleave without breaking per-pair order.
    for i in 0..20 {
        while !bed.nics[0].try_send(msg(15, i, 20, false), bed.fab.now()) {
            bed.step(&mut got);
        }
        if i < 10 {
            while !bed.nics[0].try_send(msg(12, i, 10, false), bed.fab.now()) {
                bed.step(&mut got);
            }
        }
        assert!(bed.nics[0].opt_occupancy() <= o, "OPT overflow");
    }
    bed.run_until(&mut got, 2_000_000, |s| {
        s[15].len() == 20 && s[12].len() == 10
    });
    for (k, (src, u)) in got[15].iter().enumerate() {
        assert_eq!(*src, NodeId::new(0));
        assert_eq!(u.pkt_index, k as u32, "out-of-order delivery at {k}");
    }
    for (k, (_, u)) in got[12].iter().enumerate() {
        assert_eq!(u.pkt_index, k as u32);
    }
}

#[test]
fn bulk_dialog_keeps_order_over_a_reordering_multibutterfly() {
    let fab = Fabric::new(
        Box::new(Butterfly::new(16, 2, 11)),
        FabricConfig::default().with_seed(3),
    );
    let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, NifdyConfig::fat_tree()));
    let mut got = sink(16);

    let total = 60u32;
    let mut queued = 0u32;
    while got[9].len() < total as usize {
        while queued < total && bed.nics[0].try_send(msg(9, queued, total, true), bed.fab.now()) {
            queued += 1;
        }
        if let Some((unacked, window)) = bed.nics[0].bulk_outstanding() {
            assert!(unacked <= u64::from(window), "window violated");
        }
        bed.step(&mut got);
        assert!(bed.fab.now().as_u64() < 1_000_000, "timed out");
    }
    for (k, (src, u)) in got[9].iter().enumerate() {
        assert_eq!(*src, NodeId::new(0));
        assert_eq!(u.pkt_index, k as u32, "bulk reordering leaked through");
    }
    let s = bed.nics[0].stats();
    assert!(s.sent_bulk.get() > 0, "bulk mode never engaged");
    assert_eq!(bed.nics[9].stats().dialogs_granted.get(), 1);
    // Combined acks: far fewer acks than packets once bulk mode engages.
    assert!(
        bed.nics[9].stats().acks_sent.get() < u64::from(total),
        "bulk acks were not combined"
    );
}

#[test]
fn dialog_slots_are_limited_and_rejections_fall_back_to_scalar() {
    // D = 1 at the receiver; two senders both request bulk.
    let fab = Fabric::new(
        Box::new(FatTree::new(16)),
        FabricConfig::default()
            .with_policy(SwitchingPolicy::CutThrough)
            .with_vc_buf_flits(8),
    );
    let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, NifdyConfig::fat_tree()));
    let mut got = sink(16);

    let total = 30u32;
    let mut queued = [0u32; 2];
    while got[5].len() < 2 * total as usize {
        for (s, node) in [(0usize, 1usize), (1, 2)] {
            while queued[s] < total
                && bed.nics[node].try_send(msg(5, queued[s], total, true), bed.fab.now())
            {
                queued[s] += 1;
            }
        }
        bed.step(&mut got);
        assert!(bed.fab.now().as_u64() < 2_000_000, "timed out");
    }
    // Per-sender order must hold even for the rejected (scalar) sender.
    for src_node in [1usize, 2] {
        let seq: Vec<u32> = got[5]
            .iter()
            .filter(|(s, _)| *s == NodeId::new(src_node))
            .map(|(_, u)| u.pkt_index)
            .collect();
        assert_eq!(seq.len(), total as usize);
        assert!(
            seq.windows(2).all(|w| w[0] < w[1]),
            "order broken for {src_node}"
        );
    }
    let rejections: u64 = [1, 2]
        .iter()
        .map(|&n| bed.nics[n].stats().dialogs_rejected.get())
        .sum();
    let granted = bed.nics[5].stats().dialogs_granted.get();
    assert!(granted >= 1, "nobody got the dialog");
    assert!(
        rejections >= 1 || granted >= 2,
        "with D=1 and concurrent requests, someone is rejected (or the slot \
         was reused sequentially: granted={granted} rejections={rejections})"
    );
}

#[test]
fn dialogs_are_regranted_after_exit() {
    let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, NifdyConfig::mesh()));
    let mut got = sink(16);

    for round in 0..3u32 {
        for i in 0..12 {
            while !bed.nics[0].try_send(msg(15, round * 12 + i, 12, true), bed.fab.now()) {
                bed.step(&mut got);
            }
        }
        let want = ((round + 1) * 12) as usize;
        bed.run_until(&mut got, 3_000_000, |s| s[15].len() >= want);
        // Dialog must fully close between rounds.
        while bed.nics[0].in_bulk_dialog() {
            bed.step(&mut got);
            assert!(bed.fab.now().as_u64() < 3_000_000, "dialog never closed");
        }
    }
    assert!(
        bed.nics[15].stats().dialogs_granted.get() >= 2,
        "dialog was not re-granted: {}",
        bed.nics[15].stats().dialogs_granted.get()
    );
    let seq: Vec<u32> = got[15].iter().map(|(_, u)| u.pkt_index).collect();
    assert!(
        seq.windows(2).all(|w| w[0] < w[1]),
        "order broken across dialogs"
    );
}

#[test]
fn retransmission_delivers_exactly_once_in_order_over_a_lossy_fabric() {
    let fab = Fabric::new(
        Box::new(Mesh::d2(4, 4)),
        FabricConfig::default().with_drop_prob(0.15).with_seed(7),
    );
    let cfg = NifdyConfig::mesh().with_retx_timeout(3_000);
    let mut bed = Bed::new(fab, move |n| NifdyUnit::new(n, cfg.clone()));
    let mut got = sink(16);

    let total = 25u32;
    let mut queued = 0u32;
    while got[10].len() < total as usize {
        while queued < total && bed.nics[3].try_send(msg(10, queued, total, false), bed.fab.now()) {
            queued += 1;
        }
        bed.step(&mut got);
        assert!(bed.fab.now().as_u64() < 5_000_000, "lossy run timed out");
    }
    // Run on a while to let late duplicates arrive — none may be delivered.
    for _ in 0..50_000 {
        bed.step(&mut got);
    }
    assert_eq!(got[10].len(), total as usize, "duplicate delivered");
    for (k, (_, u)) in got[10].iter().enumerate() {
        assert_eq!(u.pkt_index, k as u32, "order broken under loss");
    }
    assert!(
        bed.nics[3].stats().retransmitted.get() > 0,
        "loss at 15% must trigger retransmissions"
    );
}

#[test]
fn bulk_retransmission_survives_loss() {
    let fab = Fabric::new(
        Box::new(Mesh::d2(4, 4)),
        FabricConfig::default().with_drop_prob(0.10).with_seed(13),
    );
    let cfg = NifdyConfig::mesh().with_retx_timeout(4_000);
    let mut bed = Bed::new(fab, move |n| NifdyUnit::new(n, cfg.clone()));
    let mut got = sink(16);

    let total = 40u32;
    let mut queued = 0u32;
    while got[12].len() < total as usize {
        while queued < total && bed.nics[1].try_send(msg(12, queued, total, true), bed.fab.now()) {
            queued += 1;
        }
        bed.step(&mut got);
        assert!(
            bed.fab.now().as_u64() < 10_000_000,
            "bulk lossy run timed out"
        );
    }
    for _ in 0..80_000 {
        bed.step(&mut got);
    }
    assert_eq!(got[12].len(), total as usize, "duplicate bulk delivery");
    for (k, (_, u)) in got[12].iter().enumerate() {
        assert_eq!(u.pkt_index, k as u32);
    }
}

#[test]
fn no_ack_bypass_sends_without_protocol_state() {
    let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, NifdyConfig::mesh()));
    let mut got = sink(16);

    for i in 0..10 {
        let mut p = msg(15, i, 10, false);
        p.needs_ack = false;
        while !bed.nics[0].try_send(p, bed.fab.now()) {
            bed.step(&mut got);
        }
        assert_eq!(
            bed.nics[0].opt_occupancy(),
            0,
            "no-ack packets must skip the OPT"
        );
    }
    bed.run_until(&mut got, 1_000_000, |s| s[15].len() == 10);
    assert_eq!(bed.nics[15].stats().acks_sent.get(), 0, "no acks expected");
    assert_eq!(bed.nics[0].stats().acks_received.get(), 0);
}

#[test]
fn ack_on_insert_variant_still_preserves_order() {
    let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let cfg = NifdyConfig::mesh().with_ack_on_insert(true);
    let mut bed = Bed::new(fab, move |n| NifdyUnit::new(n, cfg.clone()));
    let mut got = sink(16);

    let mut queued = 0u32;
    while got[15].len() < 15 {
        while queued < 15 && bed.nics[0].try_send(msg(15, queued, 15, false), bed.fab.now()) {
            queued += 1;
        }
        bed.step(&mut got);
        assert!(bed.fab.now().as_u64() < 1_000_000);
    }
    for (k, (_, u)) in got[15].iter().enumerate() {
        assert_eq!(u.pkt_index, k as u32);
    }
}

#[test]
fn nifdy_keeps_sending_to_ready_destinations_past_a_slow_receiver() {
    // The paper (§2): "if backpressure is the only way of telling when to
    // slow down, a sender will continue injecting packets to a slow receiver
    // until its entrance to the network is blocked, at which point it is
    // usually blocked from sending to any other destination."
    //
    // Six senders each queue a 4-packet message to a slow receiver (node 5,
    // polls every 400 cycles) followed by a long message to a fast receiver
    // in their own column (disjoint first hop under XY routing). Without the
    // protocol, 24 packets converge on node 5, wedge the senders' injection
    // channels, and the fast traffic stalls behind them. With NIFDY, each
    // sender keeps at most one packet outstanding to node 5 and its fast
    // stream flows.
    const SENDERS: [usize; 6] = [0, 2, 3, 8, 10, 11];
    const SLOW: usize = 5;
    const CYCLES: u64 = 8_000;

    fn run(use_nifdy: bool) -> usize {
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let mut nics: Vec<Box<dyn Nic>> = (0..16)
            .map(|i| -> Box<dyn Nic> {
                if use_nifdy {
                    Box::new(NifdyUnit::new(NodeId::new(i), NifdyConfig::mesh()))
                } else {
                    Box::new(BufferedNic::new(
                        NodeId::new(i),
                        NifdyConfig::mesh().total_buffers(),
                    ))
                }
            })
            .collect();
        // Per-sender script: 4 packets to SLOW, then 30 to the fast column
        // target, offered strictly in order.
        let mut scripts: Vec<Vec<usize>> = Vec::new();
        for &s in &SENDERS {
            let fast = 12 + s % 4; // (x_s, 3): same column, disjoint first hop
            let mut script = vec![SLOW; 4];
            script.extend(std::iter::repeat_n(fast, 30));
            scripts.push(script);
        }
        let mut cursor = vec![0usize; SENDERS.len()];
        let mut fast_received = 0usize;
        for cycle in 0..CYCLES {
            for (k, &s) in SENDERS.iter().enumerate() {
                if cursor[k] < scripts[k].len() {
                    let dst = scripts[k][cursor[k]];
                    if nics[s].try_send(msg(dst, cursor[k] as u32, 34, false), fab.now()) {
                        cursor[k] += 1;
                    }
                }
            }
            for nic in &mut nics {
                nic.step(&mut fab);
            }
            fab.step();
            for i in 0..16 {
                if i == SLOW {
                    // Unresponsive receiver: polls rarely.
                    if cycle % 2_000 == 0 {
                        let _ = nics[i].poll(fab.now());
                    }
                    continue;
                }
                if nics[i].poll(fab.now()).is_some() && i >= 12 {
                    fast_received += 1;
                }
            }
        }
        fast_received
    }

    let with_nifdy = run(true);
    let with_fifo = run(false);
    assert!(
        with_nifdy >= 2 * with_fifo.max(1),
        "NIFDY ({with_nifdy}) should far outpace the buffered FIFO ({with_fifo}) \
         to the ready receivers"
    );
}

#[test]
fn plain_nic_delivers_everything_eventually() {
    let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let mut bed = Bed::new(fab, PlainNic::new);
    let mut got = sink(16);
    let mut queued = 0u32;
    while got[15].len() < 20 {
        while queued < 20 && bed.nics[0].try_send(msg(15, queued, 20, false), bed.fab.now()) {
            queued += 1;
        }
        bed.step(&mut got);
        assert!(bed.fab.now().as_u64() < 1_000_000);
    }
}

#[test]
fn nifdy_units_go_idle_after_a_burst() {
    let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, NifdyConfig::mesh()));
    let mut got = sink(16);
    for i in 0..8 {
        while !bed.nics[2].try_send(msg(13, i, 8, true), bed.fab.now()) {
            bed.step(&mut got);
        }
    }
    bed.run_until(&mut got, 1_000_000, |s| s[13].len() == 8);
    for _ in 0..20_000 {
        bed.step(&mut got);
    }
    for (i, nic) in bed.nics.iter().enumerate() {
        assert!(nic.is_idle(), "nic {i} not idle after drain");
    }
}

#[test]
fn piggybacked_acks_ride_replies_in_request_reply_traffic() {
    // §6.1: "if the sender is waiting for a reply it probably won't have any
    // other packets for the destination until the reply is received" — so
    // the ack can ride the reply. Ping-pong between two nodes: each receive
    // immediately queues a response, which is exactly when the ack for the
    // received packet is pending.
    fn run(piggyback: bool) -> (u64, u64) {
        let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let cfg = NifdyConfig::mesh().with_piggyback_acks(piggyback);
        let mut bed = Bed::new(fab, move |n| NifdyUnit::new(n, cfg.clone()));
        let mut got = sink(16);
        let rounds = 60usize;
        bed.nics[15].try_send(msg(0, 0, 1, false), bed.fab.now());
        let mut owed = [0usize; 16]; // responses each node still owes
        let mut exchanged = 0usize;
        let mut seen = [0usize; 16];
        while exchanged < rounds {
            bed.step(&mut got);
            for node in [0usize, 15] {
                if got[node].len() > seen[node] {
                    owed[node] += got[node].len() - seen[node];
                    seen[node] = got[node].len();
                }
                while owed[node] > 0 {
                    let peer = if node == 0 { 15 } else { 0 };
                    if bed.nics[node].try_send(msg(peer, exchanged as u32, 1, false), bed.fab.now())
                    {
                        owed[node] -= 1;
                        exchanged += 1;
                    } else {
                        break;
                    }
                }
            }
            assert!(bed.fab.now().as_u64() < 3_000_000, "ping-pong timed out");
        }
        let standalone: u64 = [0, 15]
            .iter()
            .map(|&n| bed.nics[n].stats().acks_sent.get())
            .sum();
        let piggybacked: u64 = [0, 15]
            .iter()
            .map(|&n| bed.nics[n].stats().acks_piggybacked.get())
            .sum();
        (standalone, piggybacked)
    }

    let (plain_acks, plain_piggy) = run(false);
    let (piggy_acks, piggy_piggy) = run(true);
    assert_eq!(plain_piggy, 0);
    assert!(piggy_piggy > 0, "piggybacking never engaged");
    assert!(
        piggy_acks < plain_acks,
        "standalone acks should drop: {piggy_acks} vs {plain_acks}"
    );
}

#[test]
fn piggybacked_acks_preserve_order_and_exactly_once_under_loss() {
    let fab = Fabric::new(
        Box::new(Mesh::d2(4, 4)),
        FabricConfig::default().with_drop_prob(0.1).with_seed(21),
    );
    let cfg = NifdyConfig::mesh()
        .with_piggyback_acks(true)
        .with_retx_timeout(3_000);
    let mut bed = Bed::new(fab, move |n| NifdyUnit::new(n, cfg.clone()));
    let mut got = sink(16);
    let total = 30u32;
    let mut q = [0u32; 2];
    while got[2].len() < total as usize || got[13].len() < total as usize {
        for (k, (src, dst)) in [(13usize, 2usize), (2, 13)].iter().enumerate() {
            while q[k] < total
                && bed.nics[*src].try_send(msg(*dst, q[k], total, true), bed.fab.now())
            {
                q[k] += 1;
            }
        }
        bed.step(&mut got);
        assert!(bed.fab.now().as_u64() < 10_000_000, "timed out");
    }
    for _ in 0..50_000 {
        bed.step(&mut got);
    }
    for node in [2usize, 13] {
        assert_eq!(got[node].len(), total as usize, "node {node}");
        for (k, (_, u)) in got[node].iter().enumerate() {
            assert_eq!(u.pkt_index, k as u32, "order broken at node {node}");
        }
    }
}

#[test]
fn bulk_dialog_longer_than_the_wire_sequence_space_stays_correct() {
    // 600 packets through one dialog: absolute sequence numbers exceed the
    // 256-value wire space several times over, exercising the modulo
    // reconstruction at both ends. A lossy fat tree makes the reorder
    // buffers hold packets across every wrap, and windows of 6 and 12 do
    // not divide 256, so a buffer's index and the wire residue drift apart.
    for window in [4u8, 6, 12] {
        let fab = Fabric::new(
            Box::new(FatTree::new(16)),
            FabricConfig::default().with_drop_prob(0.05).with_seed(5),
        );
        let cfg = NifdyConfig::builder()
            .opt_entries(8)
            .pool_entries(8)
            .max_dialogs(1)
            .window(window)
            .build()
            .expect("valid test config")
            .with_retx_timeout(600);
        let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, cfg.clone()));
        let mut got = sink(16);
        let total = 600u32;
        let mut queued = 0u32;
        while got[15].len() < total as usize {
            while queued < total
                && bed.nics[0].try_send(msg(15, queued, total, true), bed.fab.now())
            {
                queued += 1;
            }
            bed.step(&mut got);
            assert!(
                bed.fab.now().as_u64() < 3_000_000,
                "W = {window}: timed out"
            );
        }
        // Let late retransmissions land: none may be delivered twice.
        for _ in 0..5_000 {
            bed.step(&mut got);
        }
        assert_eq!(got[15].len(), total as usize, "W = {window}: duplicates");
        for (k, (_, u)) in got[15].iter().enumerate() {
            assert_eq!(u.pkt_index, k as u32, "W = {window}: order corrupted");
        }
        let (tx, rx) = (bed.nics[0].stats(), bed.nics[15].stats());
        assert_eq!(rx.dialogs_granted.get(), 1, "W = {window}");
        assert!(
            rx.bulk_out_of_order.get() > 0,
            "W = {window}: never reordered"
        );
        assert!(
            tx.retransmitted.get() > 0,
            "W = {window}: never retransmitted"
        );
    }
}

#[test]
fn opt_full_blocks_new_destinations_until_acks_return() {
    // O = 1: a second destination may not launch while the first is
    // unacknowledged, but must launch afterwards.
    let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let cfg = NifdyConfig::builder()
        .opt_entries(1)
        .pool_entries(4)
        .max_dialogs(0)
        .window(2)
        .build()
        .expect("valid test config");
    let mut bed = Bed::new(fab, move |n| NifdyUnit::new(n, cfg.clone()));
    let mut got = sink(16);
    assert!(bed.nics[0].try_send(msg(15, 0, 1, false), bed.fab.now()));
    assert!(bed.nics[0].try_send(msg(12, 0, 1, false), bed.fab.now()));
    // Step until the first packet is in flight.
    while bed.nics[0].opt_occupancy() == 0 {
        bed.step(&mut got);
    }
    assert_eq!(bed.nics[0].opt_occupancy(), 1, "O=1 exceeded");
    bed.run_until(&mut got, 500_000, |s| s[15].len() == 1 && s[12].len() == 1);
}

#[test]
fn bulk_mode_is_never_entered_without_backlog() {
    // A lone want_bulk packet (no queued follow-up) must not put a request
    // on the wire, so no dialog slot is wasted at the receiver.
    let fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
    let mut bed = Bed::new(fab, |n| NifdyUnit::new(n, NifdyConfig::mesh()));
    let mut got = sink(4);
    assert!(bed.nics[0].try_send(msg(3, 0, 1, true), bed.fab.now()));
    bed.run_until(&mut got, 100_000, |s| s[3].len() == 1);
    for _ in 0..5_000 {
        bed.step(&mut got);
    }
    assert_eq!(bed.nics[3].stats().dialogs_granted.get(), 0);
    assert!(!bed.nics[0].in_bulk_dialog());
}

#[test]
fn reorder_window_is_genuinely_exercised_on_the_fat_tree() {
    // Cross traffic into the same quadrant makes the adaptive fat tree
    // deliver a bulk stream out of order; NIFDY's window must both absorb
    // the reordering (counter > 0) and still present packets in order.
    let fab = Fabric::new(
        Box::new(FatTree::new(64)),
        FabricConfig::default()
            .with_policy(SwitchingPolicy::CutThrough)
            .with_vc_buf_flits(8)
            .with_seed(3),
    );
    let mut bed = Bed::new(fab, |n| {
        NifdyUnit::new(
            n,
            NifdyConfig::builder()
                .opt_entries(8)
                .pool_entries(8)
                .max_dialogs(1)
                .window(8)
                .build()
                .expect("valid test config"),
        )
    });
    let mut got = sink(64);
    let total = 150u32;
    let mut queued = 0u32;
    let mut bg = vec![0u32; 64];
    while got[63].iter().filter(|(s, _)| *s == NodeId::new(0)).count() < total as usize {
        while queued < total && bed.nics[0].try_send(msg(63, queued, total, true), bed.fab.now()) {
            queued += 1;
        }
        for s in 1..32 {
            if bg[s] < 60 {
                let dst = 60 + (s % 4);
                if bed.nics[s].try_send(msg(dst, bg[s], 60, false), bed.fab.now()) {
                    bg[s] += 1;
                }
            }
        }
        bed.step(&mut got);
        assert!(bed.fab.now().as_u64() < 2_000_000, "timed out");
    }
    let stream: Vec<u32> = got[63]
        .iter()
        .filter(|(s, _)| *s == NodeId::new(0))
        .map(|(_, u)| u.pkt_index)
        .collect();
    assert!(stream.windows(2).all(|w| w[0] < w[1]), "order leaked");
    assert!(
        bed.nics[63].stats().bulk_out_of_order.get() > 0,
        "the network never reordered — this test exercises nothing"
    );
}
