//! Behavioral integration tests of the fabric: bandwidth isolation of the
//! two logical networks, adaptive load spreading, conservation under
//! stress, and switching-policy semantics.

use nifdy_net::topology::{Butterfly, Cm5FatTree, FatTree, Mesh, Torus};
use nifdy_net::{Fabric, FabricConfig, Lane, Packet, SwitchingPolicy};
use nifdy_sim::{NodeId, PacketId, SimRng};

fn data(id: u64, src: usize, dst: usize, words: u16) -> Packet {
    Packet::data(PacketId::new(id), NodeId::new(src), NodeId::new(dst), words)
}

/// Streams `count` packets from 0 to `dst` on `lane`, draining the sink
/// every cycle; returns completion time.
fn stream_time(mut fab: Fabric, dst: usize, lane: Lane, count: u64) -> u64 {
    let src = NodeId::new(0);
    let d = NodeId::new(dst);
    let mut sent = 0u64;
    let mut got = 0u64;
    while got < count {
        if sent < count && fab.can_inject(src, lane) {
            sent += 1;
            let mut p = data(sent, 0, dst, 8);
            p.lane = lane;
            fab.inject(src, p);
        }
        fab.step();
        if fab.eject(d, lane).is_some() {
            got += 1;
        }
        assert!(fab.now().as_u64() < 1_000_000, "stream stuck");
    }
    fab.now().as_u64()
}

#[test]
fn time_multiplexed_lanes_have_hard_bandwidth_isolation() {
    // On the CM-5 fabric, request-lane throughput must be identical whether
    // or not the reply lane is saturated: the slots are dedicated.
    let mk = || {
        Fabric::new(
            Box::new(Cm5FatTree::new(32)),
            FabricConfig::default().with_time_mux(true),
        )
    };

    // Baseline: request stream alone.
    let t_alone = stream_time(mk(), 31, Lane::Request, 50);

    // With competing reply traffic on the same path.
    let mut fab = mk();
    let (src, dst) = (NodeId::new(0), NodeId::new(31));
    let mut sent = 0u64;
    let mut got = 0u64;
    let mut reply_id = 100_000u64;
    while got < 50 {
        if sent < 50 && fab.can_inject(src, Lane::Request) {
            sent += 1;
            fab.inject(src, data(sent, 0, 31, 8));
        }
        if fab.can_inject(src, Lane::Reply) {
            reply_id += 1;
            let mut p = data(reply_id, 0, 31, 8);
            p.lane = Lane::Reply;
            fab.inject(src, p);
        }
        fab.step();
        if fab.eject(dst, Lane::Request).is_some() {
            got += 1;
        }
        let _ = fab.eject(dst, Lane::Reply);
        assert!(fab.now().as_u64() < 1_000_000);
    }
    let t_contended = fab.now().as_u64();
    assert_eq!(
        t_alone, t_contended,
        "strict time multiplexing must isolate the request lane"
    );
}

#[test]
fn demand_multiplexed_lanes_share_bandwidth() {
    // Without time multiplexing, saturating the reply lane must slow the
    // request stream (they share physical links).
    let mk = || Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    let t_alone = stream_time(mk(), 15, Lane::Request, 50);

    let mut fab = mk();
    let (src, dst) = (NodeId::new(0), NodeId::new(15));
    let mut sent = 0u64;
    let mut got = 0u64;
    let mut reply_id = 100_000u64;
    while got < 50 {
        if sent < 50 && fab.can_inject(src, Lane::Request) {
            sent += 1;
            fab.inject(src, data(sent, 0, 15, 8));
        }
        if fab.can_inject(src, Lane::Reply) {
            reply_id += 1;
            let mut p = data(reply_id, 0, 15, 8);
            p.lane = Lane::Reply;
            fab.inject(src, p);
        }
        fab.step();
        if fab.eject(dst, Lane::Request).is_some() {
            got += 1;
        }
        let _ = fab.eject(dst, Lane::Reply);
        assert!(fab.now().as_u64() < 1_000_000);
    }
    assert!(
        fab.now().as_u64() > t_alone * 3 / 2,
        "demand multiplexing should slow the shared stream: {} vs {}",
        fab.now().as_u64(),
        t_alone
    );
}

#[test]
fn fat_tree_spreads_concurrent_streams_across_up_links() {
    // Many concurrent pair streams on the fat tree must not serialize: with
    // four up-links per router, aggregate completion should be far faster
    // than a single shared-path bottleneck would allow.
    let mut fab = Fabric::new(
        Box::new(FatTree::new(64)),
        FabricConfig::default()
            .with_policy(SwitchingPolicy::CutThrough)
            .with_vc_buf_flits(8),
    );
    // 16 cross-machine pairs.
    let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i, 48 + i)).collect();
    let per_pair = 20u64;
    let mut sent = vec![0u64; pairs.len()];
    let mut got = vec![0u64; pairs.len()];
    let mut id = 0u64;
    while got.iter().sum::<u64>() < per_pair * pairs.len() as u64 {
        for (k, &(s, d)) in pairs.iter().enumerate() {
            let src = NodeId::new(s);
            if sent[k] < per_pair && fab.can_inject(src, Lane::Request) {
                id += 1;
                sent[k] += 1;
                fab.inject(src, data(id, s, d, 8));
            }
            if fab.eject(NodeId::new(d), Lane::Request).is_some() {
                got[k] += 1;
            }
        }
        fab.step();
        assert!(fab.now().as_u64() < 200_000, "streams starved: {got:?}");
    }
    // One packet of 8 flits takes 32+ cycles on a link; 320 packets over a
    // serialized single path would need > 10k cycles. Adaptive spreading
    // should come well under that.
    assert!(
        fab.now().as_u64() < 10_000,
        "no adaptive spreading: {} cycles",
        fab.now()
    );
}

#[test]
fn packets_are_conserved_under_random_stress() {
    // Random traffic on a torus: everything injected is eventually ejected,
    // exactly once, with no residue.
    let mut fab = Fabric::new(
        Box::new(Torus::d2(4, 4)),
        FabricConfig::default().with_vcs_per_lane(2).with_seed(5),
    );
    let mut rng = SimRng::from_seed_stream(77, 0);
    let mut injected = 0u64;
    let mut ejected = 0u64;
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only set in a test, never iterated"
    )]
    let mut ids = std::collections::HashSet::new();
    for _ in 0..30_000 {
        for n in 0..16 {
            let src = NodeId::new(n);
            if injected < 500 && rng.gen_bool(0.05) && fab.can_inject(src, Lane::Request) {
                injected += 1;
                let mut dst = rng.gen_range_usize(0..15);
                if dst >= n {
                    dst += 1;
                }
                fab.inject(src, data(injected, n, dst, 6));
            }
            while let Some(p) = fab.eject(src, Lane::Request) {
                ejected += 1;
                assert!(ids.insert(p.id), "duplicate ejection of {:?}", p.id);
            }
        }
        fab.step();
        if injected == 500 && ejected == 500 {
            break;
        }
    }
    assert_eq!(injected, 500, "did not inject the full load");
    assert_eq!(ejected, 500, "packets lost in the torus");
    assert_eq!(fab.in_network(), 0, "residue left in the fabric");
}

#[test]
fn cut_through_beats_wormhole_with_tiny_buffers_under_contention() {
    // With per-VC buffers smaller than a packet, a blocked wormhole worm
    // stretches across routers and holds links; virtual cut-through (with
    // packet-sized buffers) collapses it into one router. Under contention
    // toward one receiver plus a bystander stream, the bystander should
    // do no worse under cut-through.
    fn bystander_time(policy: SwitchingPolicy, buf: u16) -> u64 {
        let cfg = FabricConfig::default()
            .with_policy(policy)
            .with_vc_buf_flits(buf);
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), cfg);
        // Hot traffic: 1,2,3 -> 0 (never drained). Bystander: 7 -> 4.
        for (i, s) in [1usize, 2, 3].iter().enumerate() {
            fab.inject(NodeId::new(*s), data(i as u64, *s, 0, 8));
        }
        let mut sent = 0u64;
        let mut got = 0u64;
        while got < 20 {
            let src = NodeId::new(7);
            if sent < 20 && fab.can_inject(src, Lane::Request) {
                sent += 1;
                fab.inject(src, data(100 + sent, 7, 4, 8));
            }
            fab.step();
            if fab.eject(NodeId::new(4), Lane::Request).is_some() {
                got += 1;
            }
            assert!(fab.now().as_u64() < 200_000, "bystander starved");
        }
        fab.now().as_u64()
    }
    let wh = bystander_time(SwitchingPolicy::Wormhole, 2);
    let ct = bystander_time(SwitchingPolicy::CutThrough, 8);
    assert!(
        ct <= wh * 3 / 2,
        "cut-through bystander ({ct}) should not trail wormhole ({wh}) badly"
    );
}

#[test]
fn butterfly_single_path_delivers_in_order_even_at_full_load() {
    // Dilation-1 butterflies have one path per pair: even a saturating
    // stream arrives in injection order.
    let mut fab = Fabric::new(Box::new(Butterfly::new(16, 1, 0)), FabricConfig::default());
    let (src, dst) = (NodeId::new(0), NodeId::new(13));
    let mut sent = 0u64;
    let mut last = 0u64;
    while last < 50 {
        if sent < 50 && fab.can_inject(src, Lane::Request) {
            sent += 1;
            fab.inject(src, data(sent, 0, 13, 8));
        }
        fab.step();
        if let Some(p) = fab.eject(dst, Lane::Request) {
            assert_eq!(p.id.as_u64(), last + 1, "butterfly reordered");
            last = p.id.as_u64();
        }
        assert!(fab.now().as_u64() < 100_000);
    }
}

#[test]
fn fat_tree_reorders_under_adaptive_routing_with_cross_traffic() {
    // The in-order machinery upstream only matters if fabrics really do
    // reorder. A 0 -> 63 stream (several packets in flight at once) with
    // cross traffic into the same quadrant must produce at least one
    // overtake on the adaptive fat tree.
    let mut fab = Fabric::new(
        Box::new(FatTree::new(64)),
        FabricConfig::default()
            .with_policy(SwitchingPolicy::CutThrough)
            .with_vc_buf_flits(8)
            .with_seed(3),
    );
    let mut id = 0u64;
    let mut bg_id = 1_000_000u64;
    let mut sent = 0u64;
    let mut last = 0u64;
    let mut reordered = false;
    while sent < 200 || fab.in_network() > 0 {
        let src = NodeId::new(0);
        if sent < 200 && fab.can_inject(src, Lane::Request) {
            sent += 1;
            id += 1;
            fab.inject(src, data(id, 0, 63, 8));
        }
        for s in 1..32 {
            let bsrc = NodeId::new(s);
            if fab.can_inject(bsrc, Lane::Request) {
                bg_id += 1;
                fab.inject(bsrc, data(bg_id, s, 60 + (s % 4), 8));
            }
            let _ = fab.eject(NodeId::new(60 + (s % 4)), Lane::Request);
        }
        fab.step();
        while let Some(p) = fab.eject(NodeId::new(63), Lane::Request) {
            if p.id.as_u64() < 1_000_000 {
                if p.id.as_u64() != last + 1 {
                    reordered = true;
                }
                last = last.max(p.id.as_u64());
            }
        }
        if fab.now().as_u64() > 500_000 {
            break;
        }
    }
    assert!(reordered, "adaptive fat tree never reordered the stream");
}
