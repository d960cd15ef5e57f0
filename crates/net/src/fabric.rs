//! The flit-level network fabric.
//!
//! A [`Fabric`] instantiates a [`Topology`](crate::topology::Topology) as a
//! set of routers with per-input-port virtual-channel buffers, credit-based
//! link-level flow control, and per-link flit serialization, stepped one
//! cycle at a time. Network interfaces interact with the fabric only at the
//! edges: [`Fabric::can_inject`]/[`Fabric::inject`] on the way in and
//! [`Fabric::eject`] on the way out. If a node does not drain its ejection
//! queue, flits back up into the routers — exactly the *secondary blocking*
//! the NIFDY protocol is designed to avoid.

use std::collections::VecDeque;

use nifdy_sim::metrics::{Counter, LogHistogram, Stats};

use nifdy_sim::{Cycle, NodeId, Slab, SlabKey, WakeSet, Wakeup};
use nifdy_trace::{trace_event, EventKind, TraceHandle};

use crate::config::{FabricConfig, SwitchingPolicy};
use crate::fault::{FaultCounts, FaultPlane, FABRIC_FAULT_STREAM};
use crate::packet::{Lane, Packet};
use crate::topology::{Candidate, Endpoint, RouteState, Topology, VcSel};

/// Most output ports a router may have: the wake and busy words of a
/// [`Router`] hold one bit per `(out_port, lane)` pair in a `u64`.
const MAX_OUT_PORTS: usize = 32;

/// Largest packet the fabric carries, in flits; sizes the ejection assembly
/// buffers and bounds the cut-through reservation check.
pub const MAX_PACKET_FLITS: u16 = 8;

/// Cycles to serialize one flit across a link: the paper's one-byte links
/// carry 32-bit flits (with `time_mux_lanes` this reproduces the CM-5's
/// 4 bits per cycle per network).
const FLIT_CYCLES: u16 = 4;

/// Capacity of each node's ejection-ready queue, in packets per lane: when
/// it is full, completed packets hold their assembly buffers and flits back
/// up into the fabric (end-point congestion becomes secondary blocking).
const EJECT_READY_PKTS: usize = 1;

/// Bit of `(out_port, lane)` in [`Router::wake`] and [`Router::busy`]: ports
/// ascending, the request lane below the reply lane — the order the
/// allocator visits them in.
#[inline]
fn pair_bit(port: usize, lane: usize) -> u64 {
    1 << (2 * port + lane)
}

/// Worms live in a generational [`Slab`]: flits carry the key, stale keys
/// are detected instead of aliasing a recycled slot, and the steady state
/// recycles freed slots without allocating.
type WormId = SlabKey;

/// A packet in flight, with its routing state.
#[derive(Debug)]
struct Worm {
    packet: Packet,
    route: RouteState,
    flits: u16,
}

/// One flit of a worm. `idx == 0` is the head; `idx == flits - 1` the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flit {
    worm: WormId,
    idx: u16,
}

/// State of one virtual channel at a router input port.
#[derive(Debug, Default)]
struct VcState {
    /// Buffered flits with their arrival cycles (a flit may be forwarded
    /// only on a later cycle, giving each router a one-cycle pipeline).
    buf: VecDeque<(Flit, Cycle)>,
    /// Output (port, vc) held by the worm currently traversing this VC.
    alloc: Option<(u8, u8)>,
    /// The worm whose unrouted head `route` was computed for. Routing
    /// depends only on the worm's static route state, so the candidates
    /// are stable while the head waits: the topology is asked once, when
    /// the head reaches the front of `buf`, and every arbitration attempt,
    /// and the commit that retracts the head from exactly the port bitsets
    /// it was distributed into, read the answer from here.
    routed: Option<WormId>,
    /// The topology's candidates for `routed`'s head, in the order
    /// [`Topology::route`] gave them; one buffer, reused from head to head.
    route: Vec<Candidate>,
}

/// Who refills credit when this input VC pops a flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feeder {
    Router { router: u32, port: u8 },
    Node(u32),
    None,
}

#[derive(Debug)]
struct InPort {
    vcs: Vec<VcState>,
    feeder: Feeder,
}

#[derive(Debug)]
struct OutPort {
    dest: Endpoint,
    /// Free flit slots per downstream VC.
    credits: Vec<u16>,
    /// Worm currently owning each downstream VC (wormhole allocation).
    owner: Vec<Option<WormId>>,
    /// Flit on the wire per lane: (flit, downstream vc, cycles remaining).
    /// The two logical networks interleave on the physical link: strictly
    /// by cycle parity when time-multiplexed (CM-5), on demand otherwise.
    in_flight: [Option<(Flit, u8, u16)>; 2],
    /// Round-robin cursor over (in_port, vc) pairs.
    rr: u32,
    /// Demand-multiplex fairness cursor between the lanes.
    mux_rr: u8,
}

/// One cycle of a physical channel the two logical networks share: the
/// lane whose turn it is serializes one cycle further. On a strictly
/// time-multiplexed link `mux_slot` names that lane (cycle parity, whether
/// or not it has a flit); a demand-multiplexed link (`None`) gives a lone
/// flit the full bandwidth and alternates by `rr` when both lanes are busy.
/// Returns the lane, flit and downstream VC of a transfer that completes.
fn tick_link(
    mux_slot: Option<usize>,
    wires: &mut [Option<(Flit, u8, u16)>; 2],
    rr: &mut u8,
) -> Option<(Lane, Flit, u8)> {
    let both = wires[0].is_some() && wires[1].is_some();
    let index = match mux_slot {
        Some(slot) => slot,
        None if both => *rr as usize,
        None => wires[1].is_some() as usize,
    };
    if both {
        *rr ^= 1;
    }
    let (flit, dvc, rem) = wires[index]?;
    wires[index] = (rem > 1).then(|| (flit, dvc, rem - 1));
    (rem <= 1).then_some((Lane::ALL[index], flit, dvc))
}

#[derive(Debug)]
struct Router {
    ins: Vec<InPort>,
    outs: Vec<OutPort>,
    /// Per-output-port candidate bitsets over `(in_port, vc)` slots (bit
    /// `ip * total_vcs + vc`), so each port's arbitration scans only the
    /// slots it could actually serve. A non-empty VC buffer whose worm
    /// holds an output allocation to port `p` sits in `cands[p]` alone;
    /// an unrouted head is routed once (when it reaches the buffer front)
    /// and its slot bit distributed to exactly the ports on its route.
    cands: Vec<Vec<u64>>,
    /// Slots whose front is an unrouted head that has not been routed and
    /// distributed into `cands` yet; drained by `resolve_heads` at the
    /// start of each allocation phase.
    unresolved: Vec<u64>,
    /// Constant mask per lane: bit set iff the slot's VC belongs to that
    /// lane, folding the `lane_vc_range` filter into the word scan.
    lane_mask: [Vec<u64>; 2],
    /// `(out_port, lane)` pairs whose next arbitration attempt might start
    /// a flit, one [`pair_bit`] each. A failed attempt is pure — the
    /// round-robin cursor moves only on a commit — so a pair that found no
    /// startable flit, and passed over none for having arrived this cycle,
    /// is put to sleep (bit cleared) and would fail the same way until one
    /// of the events that set the bit again: a slot entering `cands[port]`,
    /// a credit returning to `outs[port]`, or the node behind an ejection
    /// port popping its ready queue. A commit leaves the bit set: `busy`
    /// hides the pair while its flit serializes, and the completion — also
    /// the moment a tail frees the downstream VC's owner and an ejection
    /// port gets its assembly credits back — shows it again.
    wake: u64,
    /// `(out_port, lane)` pairs with a flit on the wire (`in_flight` is
    /// `Some`), in the layout of `wake`: the wire phase visits these ports
    /// only, the allocator skips them.
    busy: u64,
}

impl Router {
    /// Marks a newly non-empty VC buffer in the bitset matching its
    /// current allocation state (idempotent when already marked): routed
    /// worms go straight to their allocated port's candidate set, and wake
    /// it; fresh heads queue for route resolution, which wakes every port
    /// on the route. The re-set a further flit behind a waiting head causes
    /// is what tells a store-and-forward port the packet is now complete.
    #[inline]
    fn mark_occupied(&mut self, ip: usize, vc: usize, total_vcs: usize) {
        let slot = ip * total_vcs + vc;
        match self.ins[ip].vcs[vc].alloc {
            Some((ap, _)) => {
                WakeSet::set_bit(&mut self.cands[ap as usize], slot);
                self.wake |= pair_bit(ap as usize, vc / (total_vcs / 2));
            }
            None => WakeSet::set_bit(&mut self.unresolved, slot),
        }
    }
}

/// The flit one arbitration attempt chose: the front of input slot `slot`,
/// bound for downstream VC `dvc`.
#[derive(Debug, Clone, Copy)]
struct Grant {
    slot: usize,
    flit: Flit,
    dvc: u8,
    is_head: bool,
}

/// Per-lane injection slot at a node.
#[derive(Debug)]
struct InjSlot {
    worm: WormId,
    next_flit: u16,
    vc: Option<u8>,
}

/// Node-side interface state: injection serializer and ejection assembly.
#[derive(Debug)]
struct NodeIface {
    inj_router: u32,
    inj_port: u8,
    /// Credit mirror for the attached input port's VCs.
    inj_credits: Vec<u16>,
    inj_owner: Vec<Option<WormId>>,
    slots: [Option<InjSlot>; 2],
    /// Flit being serialized onto the injection channel, per lane.
    in_flight: [Option<(Flit, u8, u16)>; 2],
    /// Demand-multiplex fairness cursor between the lanes.
    lane_rr: u8,
    /// Fully assembled packets awaiting [`Fabric::eject`], per lane.
    ready: [VecDeque<Packet>; 2],
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Packets injected, per lane.
    pub injected: [Counter; 2],
    /// Packets fully delivered to ejection queues, per lane.
    pub delivered: [Counter; 2],
    /// Mean injection-to-delivery latency of request-lane packets, in
    /// cycles (extremes and quantiles: `latency_hist`).
    pub latency: Stats,
    /// Log-bucketed latency histogram of request-lane packets (quantile
    /// estimation: p50/p90/p99/p999).
    pub latency_hist: LogHistogram,
}

/// A simulated interconnection network.
///
/// # Examples
///
/// Injecting a packet and stepping until it pops out the other side:
///
/// ```
/// use nifdy_net::topology::Mesh;
/// use nifdy_net::{Fabric, FabricConfig, Lane, Packet};
/// use nifdy_sim::{NodeId, PacketId};
///
/// let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
/// let (src, dst) = (NodeId::new(0), NodeId::new(15));
/// assert!(fab.can_inject(src, Lane::Request));
/// fab.inject(src, Packet::data(PacketId::new(1), src, dst, 8));
/// let pkt = loop {
///     fab.step();
///     if let Some(p) = fab.eject(dst, Lane::Request) {
///         break p;
///     }
///     assert!(fab.now().as_u64() < 10_000, "packet lost");
/// };
/// assert_eq!(pkt.src, src);
/// ```
#[derive(Debug)]
pub struct Fabric {
    /// The scalars of the configuration; `fault` has moved into `faults`.
    cfg: FabricConfig,
    topo: Box<dyn Topology>,
    routers: Vec<Router>,
    nodes: Vec<NodeIface>,
    /// The router output port that ejects to each node: whom
    /// [`Fabric::eject`] wakes when it makes room in the ready queue.
    ejects: Vec<(u32, u8)>,
    arena: Slab<Worm>,
    /// Packets sitting in ejection queues, summed over nodes and lanes —
    /// kept incrementally so [`Fabric::in_network`] is O(1).
    ready_total: usize,
    /// The routers the wire and allocation phases visit: all with a
    /// [`Router::wake`] bit or an unresolved head.
    live: WakeSet,
    /// The nodes with an occupied injection slot.
    injecting: WakeSet,
    /// The nodes with a packet in an ejection queue.
    ready: WakeSet,
    now: Cycle,
    faults: FaultPlane,
    trace: TraceHandle,
    stats: FabricStats,
    pending_per_dst: Vec<u32>,
}

impl Fabric {
    /// Builds a fabric over `topo` with configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FabricConfig::validate`] or provides fewer
    /// virtual channels than the topology requires for deadlock freedom, or
    /// if a router of the topology has more than 32 output ports.
    pub fn new(topo: Box<dyn Topology>, mut cfg: FabricConfig) -> Self {
        #[expect(clippy::panic, reason = "documented panic on an invalid config")]
        if let Err(e) = cfg.validate() {
            panic!("invalid fabric config: {e}");
        }
        assert!(
            cfg.vcs_per_lane >= topo.min_vcs_per_lane(),
            "{} requires at least {} VCs per lane",
            topo.name(),
            topo.min_vcs_per_lane()
        );
        let spec = topo.spec();
        let total_vcs = cfg.total_vcs();

        // Build routers with empty ports, then wire feeders from links.
        let mut routers: Vec<Router> = spec
            .routers
            .iter()
            .map(|r| {
                let slots = r.in_ports as usize * total_vcs;
                let words = WakeSet::words_for(slots);
                let lane_mask = [0usize, 1].map(|lane| {
                    let per = cfg.vcs_per_lane as usize;
                    let range = lane * per..(lane + 1) * per;
                    let mut mask = vec![0u64; words];
                    for s in (0..slots).filter(|s| range.contains(&(s % total_vcs))) {
                        WakeSet::set_bit(&mut mask, s);
                    }
                    mask
                });
                assert!(
                    r.links.len() <= MAX_OUT_PORTS,
                    "a router with {} output ports exceeds the {MAX_OUT_PORTS} \
                     the (port, lane) wake word holds",
                    r.links.len()
                );
                Router {
                    cands: vec![vec![0; words]; r.links.len()],
                    unresolved: vec![0; words],
                    lane_mask,
                    wake: 0,
                    busy: 0,
                    ins: (0..r.in_ports)
                        .map(|_| InPort {
                            vcs: (0..total_vcs).map(|_| VcState::default()).collect(),
                            feeder: Feeder::None,
                        })
                        .collect(),
                    outs: r
                        .links
                        .iter()
                        .map(|&dest| {
                            let cap = match dest {
                                Endpoint::Router { .. } => cfg.vc_buf_flits,
                                Endpoint::Node(_) => MAX_PACKET_FLITS,
                            };
                            OutPort {
                                dest,
                                credits: vec![cap; total_vcs],
                                owner: vec![None; total_vcs],
                                in_flight: [None, None],
                                rr: 0,
                                mux_rr: 0,
                            }
                        })
                        .collect(),
                }
            })
            .collect();

        let nodes: Vec<NodeIface> = spec
            .attaches
            .iter()
            .enumerate()
            .map(|(n, at)| {
                routers[at.inj_router as usize].ins[at.inj_port as usize].feeder =
                    Feeder::Node(n as u32);
                NodeIface {
                    inj_router: at.inj_router,
                    inj_port: at.inj_port,
                    inj_credits: vec![cfg.vc_buf_flits; total_vcs],
                    inj_owner: vec![None; total_vcs],
                    slots: [None, None],
                    in_flight: [None, None],
                    lane_rr: 0,
                    ready: [VecDeque::new(), VecDeque::new()],
                }
            })
            .collect();
        // The links are what flits follow: they say who feeds each input
        // port and which output port ejects to each node.
        let num_nodes = topo.num_nodes();
        let mut ejects = vec![(0, 0); num_nodes];
        for (r, rspec) in spec.routers.iter().enumerate() {
            for (p, &link) in rspec.links.iter().enumerate() {
                match link {
                    Endpoint::Router { router, in_port } => {
                        routers[router as usize].ins[in_port as usize].feeder = Feeder::Router {
                            router: r as u32,
                            port: p as u8,
                        };
                    }
                    Endpoint::Node(node) => ejects[node as usize] = (r as u32, p as u8),
                }
            }
        }

        let fault = std::mem::take(&mut cfg.fault);
        let faults = FaultPlane::new(fault, cfg.seed, FABRIC_FAULT_STREAM);
        Fabric {
            cfg,
            topo,
            routers,
            nodes,
            ejects,
            arena: Slab::with_capacity(num_nodes * 2),
            ready_total: 0,
            live: WakeSet::new(spec.routers.len()),
            injecting: WakeSet::new(num_nodes),
            ready: WakeSet::new(num_nodes),
            now: Cycle::ZERO,
            faults,
            trace: TraceHandle::off(),
            stats: FabricStats::default(),
            pending_per_dst: vec![0; num_nodes],
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of attached nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Aggregate statistics so far.
    #[inline]
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Packets the fault plane dropped at the receiving edge, per cause.
    #[inline]
    pub fn fault_counts(&self) -> &FaultCounts {
        self.faults.counts()
    }

    /// Connects the fabric to a flight recorder: edge drops (with their
    /// cause) and completed deliveries (with their latency) are logged as
    /// [`EventKind::Drop`] / [`EventKind::Deliver`] events on the receiving
    /// node's track.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Number of packets currently inside the fabric (including ejection
    /// queues not yet drained).
    #[inline]
    pub fn in_network(&self) -> usize {
        self.arena.len() + self.ready_total
    }

    /// Packets waiting in `node`'s ejection queues, both lanes.
    #[inline]
    pub fn ready_len(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.index()];
        n.ready[0].len() + n.ready[1].len()
    }

    /// The nodes with a packet waiting in an ejection queue, one member per
    /// node — the "new input pending" signal a driver needs before it may
    /// skip stepping that node's interface. A delivery adds the node; the
    /// [`eject`](Self::eject) that empties its queues removes it.
    #[inline]
    pub fn ready_nodes(&self) -> &WakeSet {
        &self.ready
    }

    /// When the fabric next needs stepping. Router arbitration rotates with
    /// the cycle number and time-multiplexed links advance by cycle parity,
    /// so an active fabric (any worm in flight or packet awaiting ejection)
    /// must be stepped every cycle: `Now` whenever [`Self::in_network`] is
    /// non-zero, `Quiescent` otherwise. An empty fabric's step is a pure
    /// clock tick, which [`Self::advance_to`] performs in one jump.
    #[inline]
    pub fn next_event(&self) -> Wakeup {
        if self.in_network() > 0 {
            Wakeup::Now
        } else {
            Wakeup::Quiescent
        }
    }

    /// Jumps the clock to `t` without stepping the cycles in between.
    ///
    /// Only valid while the fabric is quiescent ([`Self::in_network`] is
    /// zero): each skipped step would have been exactly `now += 1`, so the
    /// jump is observationally identical to stepping — same RNG stream
    /// (the fault plane only draws at deliveries), same arbitration state.
    /// Calls with `t <= now` or on an active fabric are ignored (debug
    /// builds assert).
    pub fn advance_to(&mut self, t: Cycle) {
        debug_assert_eq!(self.in_network(), 0, "cannot skip over an active fabric");
        debug_assert!(t >= self.now, "clock may only move forward");
        if self.in_network() == 0 && t > self.now {
            self.now = t;
        }
    }

    /// Packets currently bound for (or queued at) `dst` — the Figure 5
    /// "pending packets per receiver" gauge.
    #[inline]
    pub fn pending_for(&self, dst: NodeId) -> u32 {
        self.pending_per_dst[dst.index()]
    }

    /// Whether node `node` can hand the fabric a new packet on `lane` this
    /// cycle (its injection slot for that lane is free).
    #[inline]
    pub fn can_inject(&self, node: NodeId, lane: Lane) -> bool {
        self.nodes[node.index()].slots[lane.index()].is_none()
    }

    /// Starts injecting `packet` from `node`.
    ///
    /// The packet's `stamp.injected` is set to the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if the lane's injection slot is busy (check
    /// [`Fabric::can_inject`] first), if the packet is larger than the
    /// [`MAX_PACKET_FLITS`], or if `node` is not the packet's source.
    pub fn inject(&mut self, node: NodeId, mut packet: Packet) {
        assert_eq!(packet.src, node, "packet injected at a foreign node");
        assert!(
            packet.flits() <= MAX_PACKET_FLITS,
            "packet of {} flits exceeds the max {MAX_PACKET_FLITS}",
            packet.flits(),
        );
        let lane = packet.lane;
        assert!(
            self.can_inject(node, lane),
            "injection slot busy at {node} lane {lane:?}"
        );
        packet.stamp.injected = self.now;
        self.stats.injected[lane.index()].incr();
        self.pending_per_dst[packet.dst.index()] += 1;
        let route = self.topo.init_route(packet.src, packet.dst);
        let flits = packet.flits();
        let worm = self.arena.insert(Worm {
            packet,
            route,
            flits,
        });
        self.nodes[node.index()].slots[lane.index()] = Some(InjSlot {
            worm,
            next_flit: 0,
            vc: None,
        });
        self.injecting.insert(node.index());
    }

    /// Removes and returns the oldest fully delivered packet at `node` on
    /// `lane`, if any.
    pub fn eject(&mut self, node: NodeId, lane: Lane) -> Option<Packet> {
        let iface = &mut self.nodes[node.index()];
        let pkt = iface.ready[lane.index()].pop_front();
        if pkt.is_some() {
            if iface.ready.iter().all(VecDeque::is_empty) {
                self.ready.remove(node.index());
            }
            self.ready_total -= 1;
            // Room for one more packet: a head the full queue was holding
            // back at the ejection port may now be granted it.
            let (r, p) = self.ejects[node.index()];
            self.routers[r as usize].wake |= pair_bit(p as usize, lane.index());
            self.live.insert(r as usize);
        }
        pkt
    }

    /// Peeks at the oldest delivered packet without removing it.
    pub fn peek_eject(&self, node: NodeId, lane: Lane) -> Option<&Packet> {
        self.nodes[node.index()].ready[lane.index()].front()
    }

    #[inline]
    fn lane_vc_range(&self, lane: Lane) -> std::ops::Range<usize> {
        let per = self.cfg.vcs_per_lane as usize;
        let base = lane.index() * per;
        base..base + per
    }

    /// First slot in `from..limit` holding a flit that output port `p` of
    /// router `r` may consider on `lane`: worms routed to `p` plus resolved
    /// heads whose route includes `p`, intersected with the lane's constant
    /// slot mask.
    #[inline]
    fn next_candidate(
        &self,
        r: usize,
        p: usize,
        lane: Lane,
        from: usize,
        limit: usize,
    ) -> Option<usize> {
        let rt = &self.routers[r];
        let cands = &rt.cands[p];
        let mask = &rt.lane_mask[lane.index()];
        let word =
            |w: usize| cands.get(w).copied().unwrap_or(0) & mask.get(w).copied().unwrap_or(0);
        let mut w = from / 64;
        let mut bits = word(w) & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                return (s < limit).then_some(s);
            }
            w += 1;
            if w * 64 >= limit {
                return None;
            }
            bits = word(w);
        }
    }

    /// Total flits of the worm behind `id`. Defensive zero for a stale key
    /// (a live datapath never produces one).
    #[inline]
    fn worm_flits(&self, id: WormId) -> u16 {
        debug_assert!(self.arena.get(id).is_some(), "stale worm key");
        self.arena.get(id).map_or(0, |w| w.flits)
    }

    /// Flit slots a head must see downstream before advancing, per policy.
    #[inline]
    fn head_credit_need(&self, worm_flits: u16) -> u16 {
        match self.cfg.policy {
            SwitchingPolicy::Wormhole => 1,
            SwitchingPolicy::CutThrough | SwitchingPolicy::StoreAndForward => worm_flits,
        }
    }

    /// Advances the fabric by one cycle.
    pub fn step(&mut self) {
        // With no worm in flight every phase below is a no-op: no flit is
        // buffered, serializing, or awaiting arbitration (ejection queues
        // are drained by the NICs, not by stepping). Skip straight to the
        // clock tick.
        if self.arena.is_empty() {
            self.now += 1;
            return;
        }
        self.progress_wires();
        self.start_router_transmissions();
        self.progress_injection();
        self.now += 1;
        #[cfg(debug_assertions)]
        self.audit_sleepers();
    }

    /// Phase A: decrement serialization counters; deliver flits whose
    /// transfer completes. Live routers, then injecting nodes, each from a
    /// snapshot of its set: a busy pair is awake, so its router is live,
    /// and a router this phase adds has no flit on a wire.
    fn progress_wires(&mut self) {
        let mux_slot = (self.cfg.time_mux_lanes).then_some((self.now.as_u64() % 2) as usize);
        for w in 0..self.live.word_count() {
            let mut rs = self.live.word(w);
            while rs != 0 {
                let r = 64 * w + rs.trailing_zeros() as usize;
                rs &= rs - 1;
                self.router_wires(r, mux_slot);
            }
        }
        // Injection channels. A flit can only be in flight on a node's
        // link while that lane's slot holds its worm.
        for w in 0..self.injecting.word_count() {
            let mut ns = self.injecting.word(w);
            while ns != 0 {
                let n = 64 * w + ns.trailing_zeros() as usize;
                ns &= ns - 1;
                let iface = &mut self.nodes[n];
                let Some((lane, flit, dvc)) =
                    tick_link(mux_slot, &mut iface.in_flight, &mut iface.lane_rr)
                else {
                    continue;
                };
                let (r, p) = (iface.inj_router, iface.inj_port);
                if flit.idx + 1 == self.worm_flits(flit.worm) {
                    let iface = &mut self.nodes[n];
                    iface.inj_owner[dvc as usize] = None;
                    iface.slots[lane.index()] = None;
                    if iface.slots.iter().all(Option::is_none) {
                        self.injecting.remove(n);
                    }
                }
                self.accept_flit(r as usize, p as usize, dvc as usize, flit);
            }
        }
    }

    /// Router `r`'s part of phase A: only ports with a flit on a wire, in
    /// ascending order. A completion clears its own pair's bit and nothing
    /// in this phase sets one, so the snapshot misses no port.
    fn router_wires(&mut self, r: usize, mux_slot: Option<usize>) {
        let mut pairs = self.routers[r].busy;
        while pairs != 0 {
            let p = pairs.trailing_zeros() as usize / 2;
            pairs &= !(0b11 << (2 * p));
            let rt = &mut self.routers[r];
            let out = &mut rt.outs[p];
            let Some((lane, flit, dvc)) = tick_link(mux_slot, &mut out.in_flight, &mut out.mux_rr)
            else {
                continue;
            };
            let dest = out.dest;
            // The pair is awake (a commit never puts it to sleep), so what
            // completes with the flit — the idle wire, the owner a tail
            // frees, an ejection port's assembly credits — is seen by this
            // cycle's allocation without a wake of its own.
            rt.busy &= !pair_bit(p, lane.index());
            let is_tail = flit.idx + 1 == self.worm_flits(flit.worm);
            if is_tail {
                self.routers[r].outs[p].owner[dvc as usize] = None;
            }
            match dest {
                Endpoint::Router { router, in_port } => {
                    self.accept_flit(router as usize, in_port as usize, dvc as usize, flit);
                }
                Endpoint::Node(node) => {
                    self.deliver_to_node(node as usize, r, p, flit, dvc, is_tail);
                }
            }
        }
    }

    /// A flit arrives in input VC `vc` of port `ip` at router `r`.
    fn accept_flit(&mut self, r: usize, ip: usize, vc: usize, flit: Flit) {
        let target = &mut self.routers[r];
        target.mark_occupied(ip, vc, self.cfg.total_vcs());
        target.ins[ip].vcs[vc].buf.push_back((flit, self.now));
        self.live.insert(r);
    }

    /// A flit arrives at a node's ejection assembly; on the tail, the packet
    /// is complete and moves to the ready queue (or is dropped by the lossy
    /// lottery).
    fn deliver_to_node(
        &mut self,
        node: usize,
        router: usize,
        port: usize,
        flit: Flit,
        dvc: u8,
        is_tail: bool,
    ) {
        if !is_tail {
            return;
        }
        let Some(worm) = self.arena.remove(flit.worm) else {
            debug_assert!(false, "tail flit of a dead worm");
            return;
        };
        let flits = worm.flits;
        let packet = worm.packet;
        let lane = packet.lane;
        // Return the assembly space to the ejection port's credits.
        self.routers[router].outs[port].credits[dvc as usize] += flits;
        self.pending_per_dst[packet.dst.index()] -= 1;
        if let Some(cause) = self.faults.judge(self.now.as_u64(), packet.dst, lane) {
            trace_event!(
                self.trace,
                self.now,
                packet.dst,
                EventKind::Drop {
                    src: packet.src,
                    dst: packet.dst,
                    ack: lane == Lane::Reply,
                    cause,
                }
            );
            return;
        }
        self.stats.delivered[lane.index()].incr();
        let latency = self.now.saturating_since(packet.stamp.injected);
        if lane == Lane::Request {
            self.stats.latency.record(latency as f64);
            self.stats.latency_hist.record(latency);
        }
        trace_event!(
            self.trace,
            self.now,
            packet.dst,
            EventKind::Deliver {
                src: packet.src,
                dst: packet.dst,
                ack: lane == Lane::Reply,
                latency,
            }
        );
        // Ready-queue capacity was reserved when the head flit was granted
        // the ejection port (`eject_has_room`), so this never overflows.
        self.nodes[node].ready[lane.index()].push_back(packet);
        self.ready.insert(node);
        self.ready_total += 1;
    }

    /// Whether the node can accept the start of a new packet on this lane:
    /// the ready queue plus packets already mid-assembly (VCs of this lane
    /// owned by a worm at the ejection port `(r, p)`) must stay within
    /// capacity.
    fn eject_has_room(&self, r: usize, p: usize, node: usize, lane: Lane) -> bool {
        let owned = self
            .lane_vc_range(lane)
            .filter(|&vc| self.routers[r].outs[p].owner[vc].is_some())
            .count();
        self.nodes[node].ready[lane.index()].len() + owned < EJECT_READY_PKTS
    }

    /// Phase B: each woken output port whose wire is idle picks one
    /// eligible flit and starts serializing it. Live routers only, the set
    /// read again after each: a credit return that wakes a router later in
    /// the sweep is served this cycle, one earlier on the next.
    fn start_router_transmissions(&mut self) {
        for w in 0..self.live.word_count() {
            let mut above = !0u64;
            while self.live.word(w) & above != 0 {
                let bit = (self.live.word(w) & above).trailing_zeros();
                above = !1 << bit;
                let r = 64 * w + bit as usize;
                self.resolve_heads(r);
                let rt = &self.routers[r];
                if rt.wake & !rt.busy == 0 {
                    // A router whose pairs all sleep leaves the set.
                    if rt.wake == 0 {
                        self.live.remove(r);
                    }
                    continue;
                }
                // Ports from a start that rotates with the cycle, so adaptive
                // choices spread over links; lanes inner; sleeping and busy
                // pairs passed over. The set is read again after every attempt:
                // a tail commit that fronts a new head wakes the ports on its
                // route, and those later in the rotation must still see it this
                // cycle, those earlier not before the next.
                let end = 2 * rt.outs.len() as u32;
                let first = 2 * ((self.now.as_u64() as usize + r) % rt.outs.len()) as u32;
                let (mut from, mut to) = (first, end);
                loop {
                    let rt = &self.routers[r];
                    let ahead = rt.wake & !rt.busy & u64::MAX.checked_shl(from).unwrap_or(0);
                    let b = ahead.trailing_zeros();
                    if b < to {
                        from = b + 1;
                        self.arbitrate(r, b as usize / 2, Lane::ALL[b as usize % 2]);
                    } else if to == end && first > 0 {
                        (from, to) = (0, first);
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// One arbitration attempt of output port `p` of router `r` on logical
    /// network `lane`: starts the flit [`Self::pick`] chose, or puts the pair
    /// to sleep if there was none and waiting a cycle would not produce one.
    fn arbitrate(&mut self, r: usize, p: usize, lane: Lane) {
        match self.pick(r, p, lane) {
            (Some(grant), _) => self.commit_transmission(r, p, grant),
            (None, false) => self.routers[r].wake &= !pair_bit(p, lane.index()),
            (None, true) => {}
        }
    }

    /// The flit output port `p` of router `r` would start on `lane` now, if
    /// any, and whether a candidate was passed over only because it arrived
    /// this cycle (it may be startable on the next with no event in
    /// between). Reads only: the pair's answer changes when one of the wake
    /// events of [`Router::wake`] happens, or, if gated, with the clock.
    fn pick(&self, r: usize, p: usize, lane: Lane) -> (Option<Grant>, bool) {
        let total_vcs = self.cfg.total_vcs();
        let slots = self.routers[r].ins.len() * total_vcs;
        let rr = self.routers[r].outs[p].rr as usize;
        // Round-robin over this port's *candidate* slots only — buffered
        // worms already routed to `p` plus resolved heads whose route
        // includes `p`, lane-masked. This visits the same eligible slots
        // in the same order as a full `(rr + k) % slots` sweep (slots it
        // skips would fail that loop's empty-buffer, lane-range,
        // allocated-elsewhere, or off-route checks), so arbitration
        // outcomes are bit-for-bit unchanged.
        let mut gated = false;
        let mut pos = rr;
        let mut limit = slots;
        let mut wrapped = false;
        loop {
            let Some(s) = self.next_candidate(r, p, lane, pos, limit) else {
                if wrapped || rr == 0 {
                    return (None, gated);
                }
                wrapped = true;
                pos = 0;
                limit = rr;
                continue;
            };
            pos = s + 1;
            let (ip, vc) = (s / total_vcs, s % total_vcs);
            let Some(&(flit, arrived)) = self.routers[r].ins[ip].vcs[vc].buf.front() else {
                debug_assert!(false, "occupancy bit set on an empty VC buffer");
                continue;
            };
            if arrived >= self.now {
                gated = true; // one-cycle router pipeline
                continue;
            }
            let (dvc, is_head) = if let Some((ap, avc)) = self.routers[r].ins[ip].vcs[vc].alloc {
                // Body/tail flit: must continue on its allocated path.
                if ap as usize != p || self.routers[r].outs[p].credits[avc as usize] == 0 {
                    continue;
                }
                (avc, false)
            } else {
                debug_assert_eq!(flit.idx, 0, "unrouted non-head flit");
                let Some(dvc) = self.head_allocation(r, p, ip, vc, flit) else {
                    continue;
                };
                (dvc, true)
            };
            let grant = Grant {
                slot: s,
                flit,
                dvc,
                is_head,
            };
            return (Some(grant), gated);
        }
    }

    /// Drains router `r`'s unresolved-head queue: each newly fronted
    /// unrouted head is routed once and its slot bit distributed to
    /// exactly the output ports on its route.
    fn resolve_heads(&mut self, r: usize) {
        let total_vcs = self.cfg.total_vcs();
        for w in 0..self.routers[r].unresolved.len() {
            while self.routers[r].unresolved[w] != 0 {
                let b = self.routers[r].unresolved[w].trailing_zeros() as usize;
                let s = w * 64 + b;
                self.resolve_slot(r, s / total_vcs, s % total_vcs);
            }
        }
    }

    /// Enters the slot of the unrouted head at the front of `(ip, vc)` into
    /// the candidate set of every port on its route, and wakes those
    /// ports. The topology is asked the first time only: the candidates
    /// are a pure function of the worm's static route state, so they stay
    /// in the VC, keyed by worm, for every attempt on the head, for a
    /// repeat of this call when a further flit arrives behind it, and for
    /// the commit that retracts exactly the bits entered here.
    fn resolve_slot(&mut self, r: usize, ip: usize, vc: usize) {
        let slot = ip * self.cfg.total_vcs() + vc;
        let lane = vc / self.cfg.vcs_per_lane as usize;
        let Router {
            ins,
            cands,
            unresolved,
            wake,
            ..
        } = &mut self.routers[r];
        WakeSet::clear_bit(unresolved, slot);
        let head = &mut ins[ip].vcs[vc];
        let Some(&(flit, _)) = head.buf.front() else {
            return; // buffer drained since the bit was queued
        };
        if head.alloc.is_some() {
            return; // mid-worm; `cands` already tracks the allocated port
        }
        if head.routed != Some(flit.worm) {
            let Some(worm) = self.arena.get(flit.worm) else {
                debug_assert!(false, "routing a dead worm");
                return;
            };
            head.route.clear();
            self.topo
                .route(r as u32, worm.packet.dst, &worm.route, &mut head.route);
            head.routed = Some(flit.worm);
        }
        for cand in &head.route {
            WakeSet::set_bit(&mut cands[cand.port as usize], slot);
            *wake |= pair_bit(cand.port as usize, lane);
        }
    }

    /// VC allocation for the routed head flit waiting at `(ip, vc)`;
    /// returns the downstream VC to use on port `p`, if any.
    fn head_allocation(&self, r: usize, p: usize, ip: usize, vc: usize, flit: Flit) -> Option<u8> {
        let worm = self.arena.get(flit.worm)?;
        let lane = worm.packet.lane;
        let flits = worm.flits;
        let head = &self.routers[r].ins[ip].vcs[vc];
        debug_assert_eq!(head.routed, Some(flit.worm), "candidate head never routed");

        // Store-and-forward: the whole packet must sit here first.
        if self.cfg.policy == SwitchingPolicy::StoreAndForward {
            let present = head
                .buf
                .iter()
                .take_while(|(f, _)| f.worm == flit.worm)
                .count() as u16;
            if present < flits {
                return None;
            }
        }

        let need = self.head_credit_need(flits);
        let out = &self.routers[r].outs[p];
        for cand in head.route.iter().filter(|c| c.port as usize == p) {
            // Node-bound heads additionally need a free ready-queue slot.
            if let Endpoint::Node(node) = out.dest {
                if !self.eject_has_room(r, p, node as usize, lane) {
                    continue;
                }
            }
            let range = self.lane_vc_range(lane);
            // Candidate VC sub-range, computed without a scratch Vec: this
            // function is on the per-cycle hot path, which
            // `tests/steady_state_allocs.rs` holds allocation-free.
            let (lo, hi) = match cand.vc {
                VcSel::Any => (range.start, range.end),
                VcSel::Class(k) => {
                    let idx = range.start + k as usize;
                    debug_assert!(idx < range.end, "VC class beyond lane");
                    (idx, (idx + 1).min(range.end))
                }
            };
            if let Some(dvc) = (lo..hi).find(|&v| out.owner[v].is_none() && out.credits[v] >= need)
            {
                return Some(dvc as u8);
            }
        }
        None
    }

    /// Pops the granted flit, updates allocation/ownership/credits, and
    /// places it on the wire of output port `p`.
    fn commit_transmission(&mut self, r: usize, p: usize, grant: Grant) {
        let Grant {
            slot,
            flit,
            dvc,
            is_head,
        } = grant;
        let total_vcs = self.cfg.total_vcs();
        let (ip, vc) = (slot / total_vcs, slot % total_vcs);
        let lane = dvc as usize / self.cfg.vcs_per_lane as usize;
        debug_assert_eq!(
            lane,
            vc / self.cfg.vcs_per_lane as usize,
            "worm changed lanes"
        );
        let Some((popped, _)) = self.routers[r].ins[ip].vcs[vc].buf.pop_front() else {
            debug_assert!(false, "committed transmission from an empty VC buffer");
            return;
        };
        debug_assert_eq!(popped, flit);
        let is_tail = flit.idx + 1 == self.worm_flits(flit.worm);

        if is_head {
            self.routers[r].ins[ip].vcs[vc].alloc = Some((p as u8, dvc));
            self.routers[r].outs[p].owner[dvc as usize] = Some(flit.worm);
            let topo = &self.topo;
            if let Some(worm) = self.arena.get_mut(flit.worm) {
                topo.on_hop(r as u32, p as u8, &mut worm.route);
            }
        }
        if is_tail {
            self.routers[r].ins[ip].vcs[vc].alloc = None;
        }

        // Re-home the slot in the arbitration bitsets: it leaves its old
        // set(s) and, if flits remain buffered, re-enters under the updated
        // allocation state. A committed head was distributed to every port
        // on its cached route, so retract exactly those bits; a body or
        // tail was visible to port `p` alone.
        let Router { ins, cands, .. } = &mut self.routers[r];
        if is_head {
            debug_assert_eq!(ins[ip].vcs[vc].routed, Some(flit.worm));
            for cand in &ins[ip].vcs[vc].route {
                WakeSet::clear_bit(&mut cands[cand.port as usize], slot);
            }
        } else {
            WakeSet::clear_bit(&mut cands[p], slot);
        }
        if !ins[ip].vcs[vc].buf.is_empty() {
            self.routers[r].mark_occupied(ip, vc, total_vcs);
            // A tail commit fronts the next worm's unrouted head; resolve
            // it now so output ports later in this cycle's rotation can
            // still claim it (matching the exhaustive-scan behavior).
            if self.routers[r].ins[ip].vcs[vc].alloc.is_none() {
                self.resolve_slot(r, ip, vc);
            }
        }

        // Credit return to whoever feeds this input port; upstream, a flit
        // or a head held for want of it may now start.
        match self.routers[r].ins[ip].feeder {
            Feeder::Router { router, port } => {
                let up = &mut self.routers[router as usize];
                up.outs[port as usize].credits[vc] += 1;
                up.wake |= pair_bit(port as usize, lane);
                self.live.insert(router as usize);
            }
            Feeder::Node(node) => {
                self.nodes[node as usize].inj_credits[vc] += 1;
            }
            Feeder::None => {}
        }

        let rt = &mut self.routers[r];
        rt.busy |= pair_bit(p, lane);
        let out = &mut rt.outs[p];
        out.rr = ((slot + 1) % (rt.ins.len() * total_vcs)) as u32;
        out.credits[dvc as usize] -= 1;
        debug_assert!(out.in_flight[lane].is_none());
        out.in_flight[lane] = Some((flit, dvc, FLIT_CYCLES));
    }

    /// Phase C: nodes serialize queued packets onto their injection links.
    /// [`Fabric::try_inject_flit`] is a no-op without a populated slot, so
    /// only injecting nodes are visited.
    fn progress_injection(&mut self) {
        for w in 0..self.injecting.word_count() {
            let mut ns = self.injecting.word(w);
            while ns != 0 {
                let n = 64 * w + ns.trailing_zeros() as usize;
                ns &= ns - 1;
                for lane in Lane::ALL {
                    if self.nodes[n].in_flight[lane.index()].is_none() {
                        let _ = self.try_inject_flit(n, lane);
                    }
                }
            }
        }
    }

    /// Attempts to put the next flit of node `n`'s `lane` slot on the wire.
    fn try_inject_flit(&mut self, n: usize, lane: Lane) -> bool {
        let Some(slot) = &self.nodes[n].slots[lane.index()] else {
            return false;
        };
        let worm_id = slot.worm;
        let next = slot.next_flit;
        let Some(worm) = self.arena.get(worm_id) else {
            debug_assert!(false, "injection slot holds a dead worm");
            return false;
        };
        let flits = worm.flits;

        let dvc = match slot.vc {
            Some(v) => v,
            None => {
                // Allocate an input VC at the attached router.
                let need = self.head_credit_need(flits);
                let range = self.lane_vc_range(lane);
                let iface = &self.nodes[n];
                let Some(v) = range
                    .clone()
                    .find(|&v| iface.inj_owner[v].is_none() && iface.inj_credits[v] >= need)
                else {
                    return false;
                };
                v as u8
            }
        };
        if self.nodes[n].inj_credits[dvc as usize] == 0 {
            return false;
        }
        let iface = &mut self.nodes[n];
        let Some(slot) = iface.slots[lane.index()].as_mut() else {
            debug_assert!(false, "slot checked non-empty above");
            return false;
        };
        if slot.vc.is_none() {
            slot.vc = Some(dvc);
            iface.inj_owner[dvc as usize] = Some(worm_id);
        }
        slot.next_flit += 1;
        iface.inj_credits[dvc as usize] -= 1;
        iface.in_flight[lane.index()] = Some((
            Flit {
                worm: worm_id,
                idx: next,
            },
            dvc,
            FLIT_CYCLES,
        ));
        true
    }

    /// Debug check of the wake discipline: no sleeping `(port, lane)` pair
    /// with an idle wire has a flit it could start. The exhaustive sweep
    /// the wake set replaced survives only as this predicate over the same
    /// [`Self::pick`] the allocator uses — never as a second arbiter. Run
    /// after every step of a debug build, i.e. with the clock already on
    /// the next cycle, so a pair that went to sleep on a flit the
    /// one-cycle pipeline rule was holding back is caught too. It also
    /// checks that the phases' worklists cover every router with a wake
    /// bit and every node with an occupied injection slot, and that the
    /// ready set names exactly the nodes with a packet to eject.
    #[cfg(any(test, debug_assertions))]
    fn audit_sleepers(&self) {
        for (n, iface) in self.nodes.iter().enumerate() {
            let listed = iface.slots.iter().all(Option::is_none) || self.injecting.contains(n);
            assert!(listed, "node {n} is not in the injecting set");
            assert_eq!(
                self.ready.contains(n),
                iface.ready.iter().any(|q| !q.is_empty()),
                "node {n}: ready bit disagrees with its ejection queues"
            );
        }
        for (r, rt) in self.routers.iter().enumerate() {
            assert!(
                rt.unresolved.iter().all(|&w| w == 0),
                "router {r} ends the cycle with an unrouted head"
            );
            let listed = rt.wake == 0 || self.live.contains(r);
            assert!(listed, "router {r} is not in the live set");
            assert_eq!(rt.busy & !rt.wake, 0, "router {r}: a busy pair sleeps");
            for p in 0..rt.outs.len() {
                for lane in Lane::ALL {
                    let bit = pair_bit(p, lane.index());
                    assert_eq!(
                        rt.busy & bit != 0,
                        rt.outs[p].in_flight[lane.index()].is_some(),
                        "router {r} port {p} {lane:?}: busy bit disagrees with the wire"
                    );
                    if (rt.wake | rt.busy) & bit == 0 {
                        let (grant, _) = self.pick(r, p, lane);
                        assert!(
                            grant.is_none(),
                            "lost wake-up at {}: router {r} port {p} {lane:?} \
                             sleeps on {grant:?}",
                            self.now
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{
        AdaptiveMesh, Butterfly, Cm5FatTree, FabricSpec, FatTree, Mesh, NodeAttach, RouterSpec,
        Torus,
    };
    use nifdy_sim::{PacketId, SimRng};

    fn drive_one(
        topo: Box<dyn Topology>,
        cfg: FabricConfig,
        src: usize,
        dst: usize,
    ) -> (Packet, u64) {
        let mut fab = Fabric::new(topo, cfg);
        let (s, d) = (NodeId::new(src), NodeId::new(dst));
        fab.inject(s, Packet::data(PacketId::new(1), s, d, 8));
        loop {
            fab.step();
            if let Some(p) = fab.eject(d, Lane::Request) {
                return (p, fab.now().as_u64());
            }
            assert!(fab.now().as_u64() < 100_000, "packet lost in fabric");
        }
    }

    #[test]
    fn mesh_delivers_single_packet() {
        let (p, t) = drive_one(Box::new(Mesh::d2(8, 8)), FabricConfig::default(), 0, 63);
        assert_eq!(p.dst, NodeId::new(63));
        // 14 hops, 4 cycles/flit, 8 flits: latency must be in a sane window.
        assert!(t > 14 && t < 400, "latency {t}");
    }

    #[test]
    fn torus_delivers_across_the_dateline() {
        let cfg = FabricConfig::default().with_vcs_per_lane(2);
        let (p, _) = drive_one(Box::new(Torus::d2(8, 8)), cfg, 7, 0);
        assert_eq!(p.dst, NodeId::new(0));
    }

    #[test]
    fn fat_tree_delivers_with_cut_through() {
        let cfg = FabricConfig::default()
            .with_policy(SwitchingPolicy::CutThrough)
            .with_vc_buf_flits(8);
        let (p, _) = drive_one(Box::new(FatTree::new(64)), cfg, 3, 60);
        assert_eq!(p.src, NodeId::new(3));
    }

    #[test]
    fn butterfly_delivers() {
        let (p, _) = drive_one(
            Box::new(Butterfly::new(64, 1, 0)),
            FabricConfig::default(),
            5,
            5,
        );
        assert_eq!(p.dst, NodeId::new(5));
        let (p, _) = drive_one(
            Box::new(Butterfly::new(64, 2, 3)),
            FabricConfig::default(),
            0,
            63,
        );
        assert_eq!(p.dst, NodeId::new(63));
    }

    #[test]
    fn cm5_time_mux_still_delivers() {
        let cfg = FabricConfig::default().with_time_mux(true);
        let (p, t_mux) = drive_one(Box::new(Cm5FatTree::new(64)), cfg, 0, 63);
        assert_eq!(p.dst, NodeId::new(63));
        let (_, t_plain) = drive_one(
            Box::new(Cm5FatTree::new(64)),
            FabricConfig::default(),
            0,
            63,
        );
        // Strict multiplexing halves effective link bandwidth.
        assert!(t_mux > t_plain, "mux {t_mux} <= plain {t_plain}");
    }

    #[test]
    fn store_and_forward_is_slower_than_wormhole() {
        let wh = FabricConfig::default().with_vc_buf_flits(8);
        let sf = FabricConfig::default()
            .with_policy(SwitchingPolicy::StoreAndForward)
            .with_vc_buf_flits(8);
        let (_, t_wh) = drive_one(Box::new(FatTree::new(64)), wh, 0, 63);
        let (_, t_sf) = drive_one(Box::new(FatTree::new(64)), sf, 0, 63);
        assert!(t_sf > t_wh, "S&F {t_sf} should exceed wormhole {t_wh}");
    }

    #[test]
    fn all_to_one_backpressure_does_not_lose_packets() {
        // Everyone sends to node 0; node 0 never ejects. Backpressure must
        // eventually stall injection (the network fills up), and every
        // injected packet must still be accounted for — blocked, not lost.
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let dst = NodeId::new(0);
        let mut sent = 0u32;
        for _ in 0..20_000 {
            for s in 1..16 {
                let src = NodeId::new(s);
                if fab.can_inject(src, Lane::Request) && sent < 200 {
                    sent += 1;
                    fab.inject(
                        src,
                        Packet::data(PacketId::new(u64::from(sent)), src, dst, 8),
                    );
                }
            }
            fab.step();
        }
        // With one VC per lane and a single blocked receiver, tree
        // saturation gridlocks the mesh almost immediately: each sender gets
        // roughly one worm in before its injection slot never frees. This is
        // exactly the secondary blocking the paper describes.
        assert!(sent >= 15, "every sender should land at least one packet");
        assert!(sent < 200, "backpressure never reached the injection ports");
        // Only the single ready-queue slot may complete; nothing is dropped.
        let completed = fab.stats().delivered[0].get() as u32;
        assert!(completed <= 1, "only the ready-queue head may complete");
        assert_eq!(fab.fault_counts().total(), 0);
        assert_eq!(fab.pending_for(dst), sent - completed);
        assert_eq!(fab.in_network(), sent as usize);
    }

    #[test]
    fn draining_unblocks_the_backlog() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let dst = NodeId::new(0);
        let mut sent = 0u64;
        let mut got = 0u64;
        for _ in 0..200_000 {
            for s in 1..16 {
                let src = NodeId::new(s);
                if sent < 100 && fab.can_inject(src, Lane::Request) {
                    sent += 1;
                    fab.inject(src, Packet::data(PacketId::new(sent), src, dst, 8));
                }
            }
            fab.step();
            if fab.eject(dst, Lane::Request).is_some() {
                got += 1;
            }
            if got == 100 {
                break;
            }
        }
        assert_eq!(got, 100, "all packets must eventually drain");
        assert_eq!(fab.in_network(), 0);
    }

    #[test]
    fn reply_lane_flows_while_request_lane_is_blocked() {
        // Fill node 0's request-lane ejection, then verify a reply-lane
        // packet still gets through (fetch-deadlock avoidance).
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let dst = NodeId::new(0);
        let src = NodeId::new(5);
        for i in 0..4 {
            let s = NodeId::new(1 + i);
            fab.inject(s, Packet::data(PacketId::new(i as u64), s, dst, 8));
            for _ in 0..500 {
                fab.step();
            }
        }
        let mut ack = Packet::data(PacketId::new(99), src, dst, 2);
        ack.lane = Lane::Reply;
        fab.inject(src, ack);
        for _ in 0..5_000 {
            fab.step();
            if let Some(p) = fab.eject(dst, Lane::Reply) {
                assert_eq!(p.id, PacketId::new(99));
                return;
            }
        }
        panic!("reply-lane packet blocked behind request backlog");
    }

    #[test]
    fn lossy_fabric_drops_some_packets() {
        let cfg = FabricConfig::default().with_drop_prob(0.5).with_seed(1);
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), cfg);
        let (src, dst) = (NodeId::new(0), NodeId::new(15));
        let mut sent = 0u64;
        for _ in 0..100_000 {
            if sent < 100 && fab.can_inject(src, Lane::Request) {
                sent += 1;
                fab.inject(src, Packet::data(PacketId::new(sent), src, dst, 8));
            }
            fab.step();
            let _ = fab.eject(dst, Lane::Request);
            if sent == 100 && fab.in_network() == 0 {
                break;
            }
        }
        let dropped = fab.fault_counts().total();
        let delivered = fab.stats().delivered[0].get();
        assert_eq!(dropped + delivered, 100);
        assert!(
            dropped > 10 && delivered > 10,
            "drop lottery looks broken: {dropped} dropped"
        );
    }

    #[test]
    fn stats_latency_counts_request_lane_only() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let (src, dst) = (NodeId::new(0), NodeId::new(3));
        fab.inject(src, Packet::data(PacketId::new(1), src, dst, 8));
        for _ in 0..2_000 {
            fab.step();
        }
        let (latency, hist) = (fab.stats().latency, &fab.stats().latency_hist);
        assert_eq!(latency.count(), 1);
        assert_eq!(hist.count(), 1);
        assert!(latency.mean() > 0.0);
        assert_eq!(
            hist.min() as f64,
            latency.mean(),
            "one sample is its own min"
        );
        assert_eq!(hist.min(), hist.max());
    }

    #[test]
    #[should_panic(expected = "foreign node")]
    fn inject_checks_source() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let p = Packet::data(PacketId::new(1), NodeId::new(2), NodeId::new(3), 8);
        fab.inject(NodeId::new(0), p);
    }

    /// The nine network shapes the experiments run (`NetworkKind`, at 64
    /// nodes) and the VCs per lane each needs.
    fn experiment_shapes() -> [(&'static str, Box<dyn Topology>, u8); 9] {
        [
            ("mesh-2d", Box::new(Mesh::d2(8, 8)), 1),
            ("mesh-3d", Box::new(Mesh::d3(4, 4, 4)), 1),
            ("torus-2d", Box::new(Torus::d2(8, 8)), 2),
            ("fat-tree", Box::new(FatTree::new(64)), 1),
            ("sf-fat-tree", Box::new(FatTree::new(64)), 1),
            ("cm5-fat-tree", Box::new(Cm5FatTree::new(64)), 1),
            ("butterfly", Box::new(Butterfly::new(64, 1, 7)), 1),
            ("multibfly", Box::new(Butterfly::new(64, 2, 7)), 1),
            ("adaptive-mesh-2d", Box::new(AdaptiveMesh::d2(8, 8)), 1),
        ]
    }

    /// Seeded random traffic on both lanes into receivers that stop
    /// ejecting for random stretches, then a full drain; the wake audit
    /// runs after every step. Returns packets delivered.
    fn audit_under_stalling_receivers(mut fab: Fabric, seed: u64, what: &str) -> u64 {
        let nodes = fab.num_nodes();
        let mut rng = SimRng::from_seed_stream(seed, 0x5EE9);
        let mut stalled_until = vec![0u64; nodes];
        let (mut sent, mut got) = (0u64, 0u64);
        for cycle in 0..20_000u64 {
            let feeding = cycle < 1_200;
            for (n, until) in stalled_until.iter_mut().enumerate() {
                let node = NodeId::new(n);
                for lane in Lane::ALL {
                    if feeding && rng.gen_bool(0.06) && fab.can_inject(node, lane) {
                        sent += 1;
                        // A fifth of the traffic converges on node 1.
                        let dst = if rng.gen_bool(0.2) {
                            1
                        } else {
                            rng.gen_range_usize(0..nodes)
                        };
                        let words = rng.gen_range_u64(1..9) as u16;
                        let mut p =
                            Packet::data(PacketId::new(sent), node, NodeId::new(dst), words);
                        p.lane = lane;
                        fab.inject(node, p);
                    }
                }
                if feeding && rng.gen_bool(0.004) {
                    *until = cycle + rng.gen_range_u64(20..400);
                }
            }
            fab.step();
            fab.audit_sleepers();
            for (n, &until) in stalled_until.iter().enumerate() {
                for lane in Lane::ALL {
                    if cycle >= until && fab.eject(NodeId::new(n), lane).is_some() {
                        got += 1;
                    }
                }
            }
            if !feeding && fab.in_network() == 0 {
                assert_eq!(got, sent, "{what}: packets lost or duplicated");
                return got;
            }
        }
        panic!("{what}: {} of {sent} packets never drained", sent - got);
    }

    #[test]
    fn no_sleeping_port_could_have_started_a_flit() {
        let policies = [
            SwitchingPolicy::Wormhole,
            SwitchingPolicy::CutThrough,
            SwitchingPolicy::StoreAndForward,
        ];
        let mut seed = 0;
        for policy in policies {
            for time_mux in [false, true] {
                for (name, topo, vcs) in experiment_shapes() {
                    seed += 1;
                    let cfg = FabricConfig::default()
                        .with_policy(policy)
                        .with_vc_buf_flits(if policy == SwitchingPolicy::Wormhole {
                            2
                        } else {
                            8
                        })
                        .with_vcs_per_lane(vcs)
                        .with_time_mux(time_mux);
                    let what = format!("{name} {policy:?} time_mux={time_mux} seed {seed}");
                    let got = audit_under_stalling_receivers(Fabric::new(topo, cfg), seed, &what);
                    assert!(got > 300, "{what}: only {got} packets");
                }
            }
        }
    }

    /// One router, `n` nodes: a crossbar with `n` output ports.
    #[derive(Debug)]
    struct Crossbar(usize);

    impl Topology for Crossbar {
        fn name(&self) -> String {
            format!("{}-port crossbar", self.0)
        }
        fn num_nodes(&self) -> usize {
            self.0
        }
        fn spec(&self) -> FabricSpec {
            let router = RouterSpec {
                in_ports: self.0 as u8,
                links: (0..self.0 as u32).map(Endpoint::Node).collect(),
            };
            let attach = |n| NodeAttach {
                inj_router: 0,
                inj_port: n,
                ej_router: 0,
                ej_port: n,
            };
            FabricSpec {
                routers: vec![router],
                attaches: (0..self.0 as u8).map(attach).collect(),
            }
        }
        fn route(&self, _: u32, dst: NodeId, _: &RouteState, out: &mut Vec<Candidate>) {
            out.push(Candidate::any(dst.index() as u8));
        }
        fn hops(&self, _: NodeId, _: NodeId) -> u32 {
            2
        }
        fn reorders(&self) -> bool {
            false
        }
    }

    #[test]
    fn a_router_may_have_32_output_ports() {
        // Port 31's reply lane is the top bit of the wake word.
        let mut fab = Fabric::new(Box::new(Crossbar(32)), FabricConfig::default());
        let (src, dst) = (NodeId::new(30), NodeId::new(31));
        let mut ack = Packet::data(PacketId::new(1), src, dst, 2);
        ack.lane = Lane::Reply;
        fab.inject(src, ack);
        fab.inject(src, Packet::data(PacketId::new(2), src, dst, 8));
        for _ in 0..200 {
            fab.step();
        }
        assert_eq!(
            fab.eject(dst, Lane::Reply).map(|p| p.id),
            Some(PacketId::new(1))
        );
        assert_eq!(
            fab.eject(dst, Lane::Request).map(|p| p.id),
            Some(PacketId::new(2))
        );
    }

    #[test]
    #[should_panic(expected = "a router with 33 output ports exceeds the 32")]
    fn a_33rd_output_port_is_refused() {
        let _ = Fabric::new(Box::new(Crossbar(33)), FabricConfig::default());
    }
}
