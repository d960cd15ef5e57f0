//! The fabric's arbitration order, pinned — and its routing work, counted.
//!
//! `results/check.sh` compares every archived table byte for byte, but a
//! fabric that grants two flits in the other order shows up there a minute
//! in and as a table diff. Here the same fault fails in milliseconds and
//! names the shape: for five networks a fixed seeded injection script runs
//! against one receiver that stops ejecting for a long stretch, and the
//! `(cycle, node, lane, packet id)` sequence of everything the receivers
//! eject must hash to a literal. The literals were recorded with the
//! exhaustive-sweep `Fabric` of the commit before the wake sets
//! (`866f9f9`), so they are the sweep's order, not this allocator's own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nifdy_net::topology::{
    Butterfly, Candidate, Cm5FatTree, FabricSpec, FatTree, Mesh, RouteState, Topology, Torus,
};
use nifdy_net::{Fabric, FabricConfig, Lane, Packet, SwitchingPolicy};
use nifdy_sim::{NodeId, PacketId, SimRng};

const CYCLES: u64 = 2_000;
/// The stalled receiver ejects nothing during these cycles.
const STALL: std::ops::Range<u64> = 200..1_400;

fn fold(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs the script on `fab` and returns the FNV-1a digest of the ejection
/// sequence and its length. Every draw is made whether or not the packet
/// can be injected, so the script does not bend to the fabric's answers.
fn ejection_digest(fab: &mut Fabric, seed: u64) -> (u64, u64) {
    let nodes = fab.num_nodes();
    let stalled = nodes / 3;
    let mut rng = SimRng::from_seed_stream(seed, 0xA2B1);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut ejected = 0u64;
    let mut next_id = 0u64;
    for cycle in 0..CYCLES {
        for src in 0..nodes {
            for lane in Lane::ALL {
                let wanted = rng.gen_bool(if lane == Lane::Request { 0.05 } else { 0.03 });
                let hot = rng.gen_bool(0.1);
                let uniform = rng.gen_range_usize(0..nodes);
                let words = rng.gen_range_u64(1..9) as u16;
                let node = NodeId::new(src);
                if !wanted || !fab.can_inject(node, lane) {
                    continue;
                }
                next_id += 1;
                let dst = NodeId::new(if hot { stalled } else { uniform });
                let words = if lane == Lane::Request { words } else { 2 };
                let mut packet = Packet::data(PacketId::new(next_id), node, dst, words);
                packet.lane = lane;
                fab.inject(node, packet);
            }
        }
        fab.step();
        for node in 0..nodes {
            if node == stalled && STALL.contains(&cycle) {
                continue;
            }
            for lane in Lane::ALL {
                if let Some(packet) = fab.eject(NodeId::new(node), lane) {
                    ejected += 1;
                    for value in [cycle, node as u64, lane.index() as u64, packet.id.as_u64()] {
                        fold(&mut digest, value);
                    }
                }
            }
        }
    }
    (digest, ejected)
}

#[test]
fn mesh_order_is_pinned() {
    let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
    assert_eq!(
        ejection_digest(&mut fab, 11),
        (18_252_597_382_032_969_656, 489)
    );
}

#[test]
fn torus_with_two_vcs_order_is_pinned() {
    let cfg = FabricConfig::default().with_vcs_per_lane(2);
    let mut fab = Fabric::new(Box::new(Torus::d2(4, 4)), cfg);
    assert_eq!(
        ejection_digest(&mut fab, 12),
        (5_060_031_304_016_555_891, 567)
    );
}

#[test]
fn cut_through_fat_tree_order_is_pinned() {
    let cfg = FabricConfig::default()
        .with_policy(SwitchingPolicy::CutThrough)
        .with_vc_buf_flits(8);
    let mut fab = Fabric::new(Box::new(FatTree::new(64)), cfg);
    assert_eq!(
        ejection_digest(&mut fab, 13),
        (4_196_113_907_521_775_963, 1_435)
    );
}

#[test]
fn cm5_time_mux_order_is_pinned() {
    let cfg = FabricConfig::default()
        .with_vc_buf_flits(4)
        .with_time_mux(true);
    let mut fab = Fabric::new(Box::new(Cm5FatTree::new(64)), cfg);
    assert_eq!(
        ejection_digest(&mut fab, 14),
        (5_805_963_202_398_274_906, 777)
    );
}

#[test]
fn multibutterfly_order_is_pinned() {
    let mut fab = Fabric::new(Box::new(Butterfly::new(64, 2, 15)), FabricConfig::default());
    assert_eq!(
        ejection_digest(&mut fab, 15),
        (5_332_528_285_827_672_065, 1_121)
    );
}

/// A fat tree that counts what the fabric asks of it.
#[derive(Debug)]
struct Counted {
    inner: FatTree,
    routes: Arc<AtomicU64>,
    hops: Arc<AtomicU64>,
}

impl Topology for Counted {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn spec(&self) -> FabricSpec {
        self.inner.spec()
    }
    fn init_route(&self, src: NodeId, dst: NodeId) -> RouteState {
        self.inner.init_route(src, dst)
    }
    fn route(&self, router: u32, dst: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        self.routes.fetch_add(1, Ordering::Relaxed);
        self.inner.route(router, dst, state, out);
    }
    fn on_hop(&self, router: u32, port: u8, state: &mut RouteState) {
        self.hops.fetch_add(1, Ordering::Relaxed);
        self.inner.on_hop(router, port, state);
    }
    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.inner.hops(a, b)
    }
    fn reorders(&self) -> bool {
        self.inner.reorders()
    }
}

/// The topology is asked for a route once per head per router: never while
/// the fabric is built, and over a saturated run exactly as often as a head
/// left a router (`on_hop` is called once for each), however long each
/// head waited and however many ports tried to claim it meanwhile.
#[test]
fn each_head_is_routed_once_per_router() {
    let (routes, hops) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let topo = Counted {
        inner: FatTree::new(64),
        routes: Arc::clone(&routes),
        hops: Arc::clone(&hops),
    };
    let cfg = FabricConfig::default()
        .with_policy(SwitchingPolicy::CutThrough)
        .with_vc_buf_flits(8);
    let mut fab = Fabric::new(Box::new(topo), cfg);
    assert_eq!(routes.load(Ordering::Relaxed), 0, "routes during new");

    // The pinned script saturates the tree behind the stalled receiver;
    // then drain, so that every head that was routed has also hopped.
    let (_, ejected) = ejection_digest(&mut fab, 13);
    assert!(ejected > 500, "only {ejected} packets got through");
    while fab.in_network() > 0 {
        fab.step();
        for node in 0..fab.num_nodes() {
            for lane in Lane::ALL {
                let _ = fab.eject(NodeId::new(node), lane);
            }
        }
        assert!(fab.now().as_u64() < 100_000, "fabric never drained");
    }
    assert_eq!(
        routes.load(Ordering::Relaxed),
        hops.load(Ordering::Relaxed),
        "route calls against head hops"
    );
}
