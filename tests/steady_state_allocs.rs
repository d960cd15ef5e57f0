//! Measures the steady-state allocation rate of the stepped datapath: a
//! counting global allocator around a window of `Driver::run_cycles` on a
//! warmed-up, saturated 64-node fat tree. The bounds are the measured truth
//! with slack (DESIGN.md §13.4): the fabric and `PlainNic` allocate nothing
//! per packet; `NifdyUnit` allocates per *dialog* (the `InDialog` reorder
//! map and the `OutDialog` copy deque), which the preset's bulk mode turns
//! into a fraction of an allocation per delivered packet.
//!
//! This is the only `#[test]` in the binary so nothing else allocates
//! while the counter is being read.

#![allow(unsafe_code, reason = "GlobalAlloc impl that forwards to System")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nifdy::NifdyConfig;
use nifdy_harness::NetworkKind;
use nifdy_net::Fabric;
use nifdy_traffic::{Driver, NicChoice, SoftwareModel, SyntheticConfig};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
    let (allocs0, delivered0) = (ALLOCS.load(Ordering::Relaxed), d.packets_received());
    d.run_cycles(WINDOW);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
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
    assert!(bulk < 0.25, "{bulk} allocs/packet");
}
