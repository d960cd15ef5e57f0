//! Measures the steady-state allocation rate of the stepped datapath: a
//! counting global allocator around a window of `Driver::run_cycles` on a
//! warmed-up, saturated 64-node fat tree. The bounds are the measured truth
//! with slack (DESIGN.md §13.4): the fabric and `PlainNic` allocate nothing
//! per packet, and `NifdyUnit` constructs nothing per dialog or per packet,
//! bulk mode included. What is left (a few dozen allocations in the window) is
//! growth on first contact: a B-tree node when a unit's per-peer table
//! meets a new peer (`launch`, `decide_grant`), and the fabric's worm slab
//! reaching a new high-water mark.
//!
//! The daemon cases do the same for the byte stack: a `NifdyNode` (alone,
//! and two joined by a `LoopbackHub`) under a bulk rotation recycles every
//! frame buffer (DESIGN.md §14.1), so allocations per frame demultiplexed
//! stay near zero.
//!
//! The counter is per thread, so the tests of this binary can run side by
//! side without counting each other's allocations.

#![allow(unsafe_code, reason = "GlobalAlloc impl that forwards to System")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nifdy::NifdyConfig;
use nifdy_harness::NetworkKind;
use nifdy_net::Fabric;
use nifdy_node::workload::{DaemonSet, PlanFeeder, SwarmPlan};
use nifdy_node::NodeConfig;
use nifdy_traffic::{Driver, NicChoice, SoftwareModel, SyntheticConfig};
use nifdy_wire::conformance::NodeSet;

thread_local! {
    /// `alloc` + `realloc` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

impl Counting {
    fn count() {
        // A thread past its TLS teardown is not one under measurement.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: as for `dealloc`; the size obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 64;
const WARMUP: u64 = 50_000;
const WINDOW: u64 = 50_000;

/// Allocations (`alloc` + `realloc`) per packet delivered in the window.
fn allocs_per_delivered(label: &str, choice: &NicChoice) -> f64 {
    let kind = NetworkKind::FatTree;
    let fab = Fabric::new(kind.topology(NODES, 1), kind.fabric_config(1));
    let wls = SyntheticConfig::heavy(1).build(NODES);
    let mut d = Driver::new(fab, choice, SoftwareModel::synthetic(), wls).expect("driver builds");
    d.run_cycles(WARMUP);
    let (allocs0, delivered0) = (allocs(), d.packets_received());
    d.run_cycles(WINDOW);
    let allocs = allocs() - allocs0;
    let delivered = d.packets_received() - delivered0;
    assert!(
        delivered > 10_000,
        "{label}: window delivered only {delivered}"
    );
    let ratio = allocs as f64 / delivered as f64;
    println!("{label:<22} {allocs:>5} allocs / {delivered:>5} delivered = {ratio:.5}");
    ratio
}

#[test]
fn steady_state_allocations_per_delivered_packet_stay_bounded() {
    let preset = NetworkKind::FatTree.nifdy_preset();
    let scalar_only = NifdyConfig {
        max_dialogs: 0,
        ..preset.clone()
    };
    let plain = allocs_per_delivered("fabric + PlainNic", &NicChoice::Plain);
    let scalar = allocs_per_delivered("NIFDY, max_dialogs = 0", &NicChoice::Nifdy(scalar_only));
    let bulk = allocs_per_delivered("NIFDY preset", &NicChoice::Nifdy(preset));
    assert!(plain < 0.001, "{plain} allocs/packet");
    assert!(scalar < 0.01, "{scalar} allocs/packet");
    assert!(bulk < 0.01, "{bulk} allocs/packet");
}

const ENDPOINTS: usize = 64;
const DAEMON_WARMUP: u64 = 2_000;
const DAEMON_WINDOW: u64 = 2_000;

/// Allocations per frame demultiplexed (`stats().frames_in`) over a window
/// of poll rounds: 64 endpoints split over `daemons` daemons, each
/// streaming 8-packet bulk messages to its rotation partner.
fn allocs_per_frame(daemons: usize) -> f64 {
    let rounds = DAEMON_WARMUP + DAEMON_WINDOW;
    // At most one six-word packet per six rounds per source: never dry.
    // Seed 31 rotates by 32: with two daemons every flow crosses the hub.
    let plan = SwarmPlan::rotation(ENDPOINTS, rounds / 8 / 4, 8, 6, true, 31);
    let mut feeders: Vec<PlanFeeder> = (0..ENDPOINTS).map(|n| PlanFeeder::new(&plan, n)).collect();
    let mut set = DaemonSet::new(ENDPOINTS, daemons, &NodeConfig::default());
    let frames_in = |set: &DaemonSet| set.daemons.iter().map(|d| d.stats().frames_in).sum::<u64>();
    let mut delivered = 0u64;
    let (mut allocs0, mut frames0) = (0, 0);
    for round in 0..rounds {
        if round == DAEMON_WARMUP {
            (allocs0, frames0) = (allocs(), frames_in(&set));
        }
        for (src, feeder) in feeders.iter_mut().enumerate() {
            feeder.pump(|pkt| set.offer(src, pkt));
        }
        for daemon in &mut set.daemons {
            daemon.poll_round();
            while daemon.next_delivery().is_some() {
                delivered += 1;
            }
            assert!(daemon.take_failures().is_empty());
        }
        set.tick_carrier();
    }
    let (allocs, frames) = (allocs() - allocs0, frames_in(&set) - frames0);
    assert!(delivered < plan.total_packets(), "a source ran dry");
    assert!(frames > 20_000, "{daemons} daemon(s): only {frames} frames");
    let ratio = allocs as f64 / frames as f64;
    println!("{daemons} daemon(s): {allocs:>5} allocs / {frames:>6} frames in = {ratio:.5}");
    ratio
}

#[test]
fn a_daemon_recycles_its_frame_buffers() {
    let ratio = allocs_per_frame(1);
    assert!(ratio < 0.05, "{ratio} allocs/frame");
}

#[test]
fn two_daemons_recycle_frame_buffers_across_a_carrier() {
    let ratio = allocs_per_frame(2);
    assert!(ratio < 0.05, "{ratio} allocs/frame");
}
