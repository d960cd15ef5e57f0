//! Carrier-independent conformance: one seeded [`SwarmPlan`], one [`run`]
//! loop, any [`NodeSet`].
//!
//! The protocol state machine ([`NifdyUnit`]) is shared verbatim between
//! every stack — only the [`NetPort`](nifdy_net::NetPort) under it
//! differs — and NIFDY guarantees sender order per source, so every
//! `(src, dst)` pair's delivery log must equal the plan's send order
//! whatever carried the bytes. A divergence is a codec, transport or
//! daemon bug, not a protocol variation.
//!
//! A carrier takes part by implementing [`NodeSet`]: [`FabricSet`] (units
//! on the cycle-accurate fabric) and [`LoopbackSet`] (byte endpoints on a
//! hub) live here, the daemon set in `nifdy-node`. Faults, protocol config
//! and the flight recorder are constructor arguments: a clean run is a
//! chaos run whose fault config is the inactive default, which both fault
//! planes guarantee draws nothing and is byte-identical to having no plane
//! (`tests/fault_props.rs`). The scenarios every carrier's test harness
//! runs are the rows of [`crate::scenarios::ROWS`].

use std::collections::BTreeMap;

use nifdy::{Delivered, DeliveryFailure, FailureKind, Nic, NifdyConfig, NifdyUnit, OutboundPacket};
use nifdy_net::topology::Mesh;
use nifdy_net::{Fabric, FabricConfig, FaultConfig, FaultCounts, UserData};
use nifdy_sim::NodeId;
use nifdy_trace::{FaultCause, TraceHandle};

use crate::endpoint::WireEndpoint;
use crate::fault::{FaultyTransport, WireFaultConfig};
use crate::transport::{LoopbackHub, LoopbackTransport};

/// Per-pair delivery record: `(src, dst) -> [(msg_id, pkt_index), ...]` in
/// the order the receiving processor polled the packets.
pub type DeliveryLog = BTreeMap<(usize, usize), Vec<(u64, u32)>>;

/// Per-pair typed delivery-failure counts:
/// `(src, dst) -> {failure kind name -> count}`. Compared as totals per
/// kind, not as timed sequences, because *when* a retry budget exhausts
/// depends on the carrier's latency — only *what* failed and *how* is
/// protocol-determined.
pub type FailureLog = BTreeMap<(usize, usize), BTreeMap<&'static str, u64>>;

/// One node's dialog lifecycle — the protocol-visible fingerprint two
/// carriers must agree on — split by role. A node is simultaneously a
/// bulk *sender* (bulk_request, dialog_open, teardown closes) and a bulk
/// *receiver* (dialog_grant, dialog_reject, exit/reclaim closes); the two
/// state machines are independent, and their relative interleaving on one
/// node legitimately depends on carrier latency — so each role is compared
/// as its own event stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeLifecycle {
    /// Outgoing-dialog events, in record order.
    pub sender: Vec<&'static str>,
    /// Incoming-dialog events, in record order.
    pub receiver: Vec<&'static str>,
}

/// Per-node, per-role dialog-lifecycle event names recorded by `trace`, in
/// record order (empty when `trace` is detached). Two clean runs of
/// a pairwise plan must agree on it; under faults they need not, because
/// the fault planes draw from independent RNG streams.
pub fn lifecycle_projection(trace: &TraceHandle, nodes: usize) -> Vec<NodeLifecycle> {
    use nifdy_trace::{DialogEnd, EventKind};
    let mut per_node = vec![NodeLifecycle::default(); nodes];
    for ev in trace.snapshot() {
        let name = ev.kind.name();
        let slot = &mut per_node[ev.node.index()];
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "the projection samples only dialog-lifecycle events; every other variant \
                      is out of scope for this report by design"
        )]
        match ev.kind {
            EventKind::BulkRequest { .. }
            | EventKind::DialogOpen { .. }
            | EventKind::DialogClose {
                end: DialogEnd::TornDown,
                ..
            } => slot.sender.push(name),
            EventKind::DialogGrant { .. }
            | EventKind::DialogReject { .. }
            | EventKind::DialogClose { .. } => slot.receiver.push(name),
            _ => {}
        }
    }
    per_node
}

/// One pre-planned packet: where it goes and how it is labelled.
#[derive(Debug, Clone, Copy)]
pub struct PlannedPacket {
    /// Destination node.
    pub dst: NodeId,
    /// Workload annotation (message id, packet index, message size).
    pub user: UserData,
}

/// A fully pre-planned workload over `nodes` logical nodes: every packet
/// each node sends, fixed ahead of time.
#[derive(Debug, Clone)]
pub struct SwarmPlan {
    /// Logical node count.
    pub nodes: usize,
    /// Packet length in words, including the header word.
    pub size_words: u16,
    /// Request bulk dialogs for every message (scalar otherwise).
    pub want_bulk: bool,
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Per-source send queues, in send order.
    pub sends: Vec<Vec<PlannedPacket>>,
}

impl SwarmPlan {
    /// The conformance rotation: node `i` streams `messages` messages of
    /// `packets_per_message` packets to partner `(i + 1 + seed mod (n-1))
    /// mod n` — a fixed-point-free permutation for any seed.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn rotation(
        nodes: usize,
        messages: u64,
        packets_per_message: u32,
        size_words: u16,
        want_bulk: bool,
        seed: u64,
    ) -> Self {
        assert!(nodes >= 2, "the permutation needs at least 2 nodes");
        let shift = 1 + (seed as usize) % (nodes - 1);
        let sends = (0..nodes)
            .map(|src| {
                let dst = NodeId::new((src + shift) % nodes);
                let mut queue = Vec::new();
                for m in 0..messages {
                    for p in 0..packets_per_message {
                        queue.push(PlannedPacket {
                            dst,
                            user: UserData {
                                msg_id: ((src as u64) << 32) | m,
                                pkt_index: p,
                                msg_packets: packets_per_message,
                                // One header word plus bookkeeping, rest is payload.
                                user_words: size_words.saturating_sub(2),
                            },
                        });
                    }
                }
                queue
            })
            .collect();
        SwarmPlan {
            nodes,
            size_words,
            want_bulk,
            seed,
            sends,
        }
    }

    /// Total packets the plan delivers.
    pub fn total_packets(&self) -> u64 {
        self.sends.iter().map(|q| q.len() as u64).sum()
    }

    /// The delivery log every conforming run must produce: each `(src, dst)`
    /// pair sees exactly its send-order subsequence.
    pub fn expected_log(&self) -> DeliveryLog {
        let mut log = DeliveryLog::new();
        for (src, queue) in self.sends.iter().enumerate() {
            for pkt in queue {
                log.entry((src, pkt.dst.index()))
                    .or_default()
                    .push((pkt.user.msg_id, pkt.user.pkt_index));
            }
        }
        log
    }

    /// The peers `node` exchanges frames with: everyone it sends to, plus
    /// everyone that sends to it — the natural heartbeat watch list.
    pub fn peers_of(&self, node: usize) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = Vec::new();
        let mut push = |n: NodeId| {
            if !peers.contains(&n) {
                peers.push(n);
            }
        };
        for pkt in &self.sends[node] {
            push(pkt.dst);
        }
        for (src, queue) in self.sends.iter().enumerate() {
            if queue.iter().any(|p| p.dst.index() == node) {
                push(NodeId::new(src));
            }
        }
        peers
    }
}

/// Send-side pacing for one source: offers the plan one packet at a time,
/// retrying rejected sends at the head, so every carrier sees the same
/// offered load.
#[derive(Debug)]
pub struct PlanFeeder {
    queue: std::vec::IntoIter<PlannedPacket>,
    head: Option<PlannedPacket>,
    size_words: u16,
    want_bulk: bool,
}

impl PlanFeeder {
    /// Builds the feeder for `src`'s queue of `plan`.
    pub fn new(plan: &SwarmPlan, src: usize) -> Self {
        PlanFeeder {
            queue: plan.sends[src].clone().into_iter(),
            head: None,
            size_words: plan.size_words,
            want_bulk: plan.want_bulk,
        }
    }

    /// Offers the next packet to `try_send`; a rejected packet is re-offered
    /// on the next pump.
    pub fn pump(&mut self, mut try_send: impl FnMut(OutboundPacket) -> bool) {
        let Some(planned) = self.head.take().or_else(|| self.queue.next()) else {
            return;
        };
        let pkt = OutboundPacket::new(planned.dst, self.size_words)
            .with_bulk(self.want_bulk)
            .with_user(planned.user);
        if !try_send(pkt) {
            self.head = Some(planned);
        }
    }

    /// Every planned packet has been accepted by the interface.
    pub fn done(&self) -> bool {
        self.head.is_none() && self.queue.len() == 0
    }
}

/// What [`run`] observed. Carrier-specific counters (decode errors, wire
/// faults, retransmissions, fabric drops) are read off the set afterwards.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Per-pair delivery order observed at the receivers.
    pub log: DeliveryLog,
    /// Per-pair typed failures drained from the nodes.
    pub failures: FailureLog,
    /// Carrier ticks (fabric cycles, hub cycles, daemon rounds) until the
    /// run ended.
    pub ticks: u64,
}

impl RunReport {
    /// Records a packet polled at node `dst`.
    pub fn deliver(&mut self, dst: usize, d: &Delivered) {
        self.log
            .entry((d.src.index(), dst))
            .or_default()
            .push((d.user.msg_id, d.user.pkt_index));
    }

    /// Records a typed failure under its kind's stable name (the per-dialog
    /// details — which slot, how many unacked — legitimately differ
    /// between carriers).
    pub fn fail(&mut self, f: &DeliveryFailure) {
        let kind = match f.kind {
            FailureKind::Scalar => "scalar",
            FailureKind::BulkDialog { .. } => "bulk_dialog",
        };
        let pair = (f.src.index(), f.dst.index());
        *self
            .failures
            .entry(pair)
            .or_default()
            .entry(kind)
            .or_default() += 1;
    }

    /// Packets delivered across all receivers (delivery-log volume).
    pub fn delivered(&self) -> u64 {
        self.log.values().map(|v| v.len() as u64).sum()
    }

    /// Typed delivery failures across all pairs.
    pub fn failure_total(&self) -> u64 {
        self.failures.values().flat_map(|m| m.values()).sum()
    }

    /// Panics with a readable diff if two runs disagree on delivery order
    /// or typed-failure accounting.
    pub fn assert_matches(&self, other: &RunReport, label: &str) {
        assert_eq!(
            self.log, other.log,
            "{label}: per-destination delivery orders diverge"
        );
        assert_eq!(
            self.failures, other.failures,
            "{label}: typed delivery-failure accounting diverges"
        );
    }
}

/// The operations [`run`] needs from a set of NIFDY nodes on some carrier.
pub trait NodeSet {
    /// Offers `pkt` at node `node`; `false` means the interface refused it
    /// this tick.
    fn offer(&mut self, node: usize, pkt: OutboundPacket) -> bool;

    /// Steps node `node` once and drains the deliveries and typed failures
    /// it produced into `out`.
    fn step_node(&mut self, node: usize, out: &mut RunReport);

    /// Advances the carrier one tick, after every node has stepped.
    fn tick_carrier(&mut self);

    /// Nothing is buffered in a node, in flight on the carrier, or held by
    /// a fault plane.
    fn quiet(&self) -> bool;

    /// Panics if a carrier-side counter shows the run broke an invariant
    /// the delivery log cannot see (a corrupted frame that decoded, a
    /// misrouted frame).
    fn audit(&self, _label: &str) {}
}

/// Drives `plan` through `set`: per tick, each node in index order has its
/// feeder pumped and is stepped and drained, then the carrier ticks. That
/// per-node order is what makes a run (and its trace) a pure function of
/// the plan and the set's seed.
///
/// The run ends once every packet has been offered and the set has been
/// [`quiet`](NodeSet::quiet) for `grace` consecutive ticks (`0`: the first
/// quiet tick). On a lossless carrier a unit is not idle while anything it
/// sent is unacknowledged, so `grace = 0` already implies everything was
/// delivered; under faults a held or duplicated frame can still land and
/// provoke more work, so chaos callers pass [`CHAOS_QUIESCE_GRACE`] and
/// read typed failures from the report instead of expecting every packet.
///
/// # Panics
///
/// Panics if the run has not ended after `max_ticks` ticks.
pub fn run(set: &mut impl NodeSet, plan: &SwarmPlan, grace: u64, max_ticks: u64) -> RunReport {
    let mut feeders: Vec<PlanFeeder> = (0..plan.nodes).map(|i| PlanFeeder::new(plan, i)).collect();
    let mut report = RunReport::default();
    let mut quiet_for = 0u64;
    while quiet_for < grace.max(1) {
        assert!(
            report.ticks < max_ticks,
            "run wedged: {}/{} packets after {} ticks",
            report.delivered(),
            plan.total_packets(),
            report.ticks
        );
        for (i, feeder) in feeders.iter_mut().enumerate() {
            feeder.pump(|pkt| set.offer(i, pkt));
            set.step_node(i, &mut report);
        }
        set.tick_carrier();
        report.ticks += 1;
        if feeders.iter().all(PlanFeeder::done) && set.quiet() {
            quiet_for += 1;
        } else {
            quiet_for = 0;
        }
    }
    report
}

/// Ticks of sustained quiet that end a run under faults: long enough for
/// any held, delayed, or in-flight frame to land and provoke more work if
/// it is going to.
pub const CHAOS_QUIESCE_GRACE: u64 = 512;

/// The protocol config chaos runs use: the clean mesh preset plus the §6.2
/// retransmission machinery (adaptive RTO, the given retry budget),
/// without which any loss would wedge the run instead of either recovering
/// or surfacing a typed failure.
pub fn chaos_config(budget: u32) -> NifdyConfig {
    NifdyConfig::mesh()
        .with_retx_timeout(64)
        .with_adaptive_rto(true)
        .with_retx_budget(budget)
}

/// Mesh dimensions for `nodes`: the most square factorization. Every
/// [`FabricSet`] lays its nodes out on this mesh.
pub fn mesh_dims(nodes: usize) -> (usize, usize) {
    let mut w = (nodes as f64).sqrt() as usize;
    while w > 1 && !nodes.is_multiple_of(w) {
        w -= 1;
    }
    (w.max(1), nodes / w.max(1))
}

/// [`NifdyUnit`]s on the cycle-accurate simulated fabric (a 2-D mesh),
/// with its flit-level fault plane configured by `faults`.
#[derive(Debug)]
pub struct FabricSet {
    fab: Fabric,
    units: Vec<NifdyUnit>,
}

impl FabricSet {
    /// One unit running `cfg` per node of `plan`, on a fabric seeded with
    /// the plan's seed; `trace` is attached to the fabric and every unit.
    pub fn new(
        plan: &SwarmPlan,
        cfg: NifdyConfig,
        faults: FaultConfig,
        trace: &TraceHandle,
    ) -> Self {
        let (w, h) = mesh_dims(plan.nodes);
        let fab_cfg = FabricConfig::default().with_seed(plan.seed);
        let mut fab = Fabric::new(Box::new(Mesh::d2(w, h)), fab_cfg.with_fault(faults));
        fab.attach_trace(trace.clone());
        let units = (0..plan.nodes)
            .map(|i| {
                let mut u = NifdyUnit::new(NodeId::new(i), cfg.clone());
                u.attach_trace(trace.clone());
                u
            })
            .collect();
        FabricSet { fab, units }
    }

    /// Summed sender retransmissions (`NicStats.retransmitted`) — ground
    /// truth for the journey analyzer's conservation checks.
    pub fn retransmitted(&self) -> u64 {
        let units = self.units.iter();
        units.map(|u| u.stats().retransmitted.get()).sum()
    }

    /// Packets the fabric's fault plane dropped.
    pub fn fabric_dropped(&self) -> u64 {
        self.fab.fault_counts().total()
    }
}

impl NodeSet for FabricSet {
    fn offer(&mut self, node: usize, pkt: OutboundPacket) -> bool {
        self.units[node].try_send(pkt, self.fab.now())
    }

    fn step_node(&mut self, node: usize, out: &mut RunReport) {
        let unit = &mut self.units[node];
        unit.step(&mut self.fab);
        while let Some(d) = unit.poll(self.fab.now()) {
            out.deliver(node, &d);
        }
        for f in unit.take_failures() {
            out.fail(&f);
        }
    }

    fn tick_carrier(&mut self) {
        self.fab.step();
    }

    fn quiet(&self) -> bool {
        self.units.iter().all(Nic::is_idle) && self.fab.in_network() == 0
    }
}

/// [`WireEndpoint`]s on a [`LoopbackHub`]: encode → carry → decode on every
/// hop, every endpoint's frames passing through its own [`FaultyTransport`]
/// chaos plane.
#[derive(Debug)]
pub struct LoopbackSet {
    hub: LoopbackHub,
    eps: Vec<WireEndpoint<FaultyTransport<LoopbackTransport>>>,
}

impl LoopbackSet {
    /// One endpoint running `cfg` per node of `plan`, on a hub with fixed
    /// delivery delay `hub.0` plus a seeded uniform `0..=hub.1` extra delay
    /// per frame (which deliberately reorders frames to exercise the window
    /// machinery). Hub and fault planes (independent per node) are seeded
    /// from the plan's seed; `trace` is attached to every endpoint and
    /// fault plane.
    pub fn new(
        plan: &SwarmPlan,
        hub: (u64, u64),
        cfg: NifdyConfig,
        faults: &WireFaultConfig,
        trace: &TraceHandle,
    ) -> Self {
        let seed = plan.seed;
        let hub = LoopbackHub::new(plan.nodes, hub.0).with_jitter(seed, hub.1);
        let eps = (0..plan.nodes)
            .map(|i| {
                let node = NodeId::new(i);
                let mut faulty = FaultyTransport::new(hub.endpoint(node), faults.clone(), seed);
                // The endpoint propagates the recorder to its unit and port,
                // but the fault plane sits *below* the port and needs its own
                // hookup for WireFault events.
                faulty.attach_trace(trace.clone());
                let mut ep = WireEndpoint::new(node, cfg.clone(), faulty);
                ep.attach_trace(trace.clone());
                ep
            })
            .collect();
        LoopbackSet { hub, eps }
    }

    /// Frames rejected by the codec (the checksum trailer catching
    /// corruption), summed over the endpoints.
    pub fn decode_errors(&self) -> u64 {
        self.eps.iter().map(|ep| ep.port().decode_errors()).sum()
    }

    /// Faults the chaos planes injected, per cause, summed over the
    /// endpoints.
    pub fn fault_counts(&self) -> FaultCounts {
        let mut sum = FaultCounts::default();
        self.eps
            .iter()
            .for_each(|ep| sum += *ep.port().transport().stats());
        sum
    }

    /// Summed sender retransmissions, as [`FabricSet::retransmitted`].
    pub fn retransmitted(&self) -> u64 {
        let eps = self.eps.iter();
        eps.map(|ep| ep.stats().retransmitted.get()).sum()
    }
}

impl NodeSet for LoopbackSet {
    fn offer(&mut self, node: usize, pkt: OutboundPacket) -> bool {
        self.eps[node].try_send(pkt)
    }

    fn step_node(&mut self, node: usize, out: &mut RunReport) {
        let ep = &mut self.eps[node];
        ep.step();
        while let Some(d) = ep.poll() {
            out.deliver(node, &d);
        }
        for f in ep.take_failures() {
            out.fail(&f);
        }
    }

    fn tick_carrier(&mut self) {
        self.hub.tick();
    }

    fn quiet(&self) -> bool {
        self.eps
            .iter()
            .all(|ep| ep.is_idle() && ep.port().transport().held() == 0)
            && self.hub.in_flight() == 0
    }

    fn audit(&self, label: &str) {
        // The checksum trailer is what keeps corrupted frames out of the
        // log: every corruption must have been rejected, never decoded
        // into a plausible frame — and nothing else may be rejected.
        let corrupted = self.fault_counts().count(FaultCause::Corrupt);
        let rejected = self.decode_errors();
        assert!(
            if corrupted == 0 {
                rejected == 0
            } else {
                rejected >= corrupted
            },
            "{label}: {corrupted} corruptions but {rejected} codec rejects"
        );
        let foreign: u64 = self.eps.iter().map(|ep| ep.port().foreign()).sum();
        assert_eq!(foreign, 0, "{label}: misrouted frame");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_plan_matches_its_expected_log() {
        let plan = SwarmPlan::rotation(6, 2, 3, 6, true, 4);
        assert_eq!(plan.total_packets(), 6 * 2 * 3);
        let log = plan.expected_log();
        assert_eq!(log.len(), 6, "one pair per source");
        for ((src, dst), order) in &log {
            assert_ne!(src, dst, "fixed-point-free");
            assert_eq!(order.len(), 6);
            assert_eq!(order[0], (((*src as u64) << 32), 0));
            assert_eq!(order[5], (((*src as u64) << 32) | 1, 2));
        }
    }

    #[test]
    fn partner_permutation_has_no_fixed_points() {
        for seed in 0..8 {
            let plan = SwarmPlan::rotation(6, 1, 1, 6, true, seed);
            let mut seen = [false; 6];
            for (src, queue) in plan.sends.iter().enumerate() {
                let p = queue[0].dst.index();
                assert_ne!(p, src, "no node talks to itself");
                assert!(!seen[p], "partner map is a permutation");
                seen[p] = true;
            }
        }
    }

    #[test]
    #[should_panic(expected = "the permutation needs at least 2 nodes")]
    fn a_one_node_rotation_is_rejected_by_name() {
        let _ = SwarmPlan::rotation(1, 1, 1, 6, true, 0);
    }

    #[test]
    fn peers_of_is_symmetric_for_the_rotation() {
        let plan = SwarmPlan::rotation(5, 1, 2, 6, false, 2);
        for node in 0..5 {
            let peers = plan.peers_of(node);
            assert_eq!(peers.len(), 2, "one send partner, one recv partner");
            for p in peers {
                assert!(plan.peers_of(p.index()).contains(&NodeId::new(node)));
            }
        }
    }

    #[test]
    fn feeder_retries_rejected_head() {
        let plan = SwarmPlan::rotation(2, 1, 2, 6, false, 1);
        let mut feeder = PlanFeeder::new(&plan, 0);
        feeder.pump(|_| false);
        assert!(!feeder.done(), "rejected packet stays at the head");
        let mut seen = Vec::new();
        for _ in 0..4 {
            feeder.pump(|pkt| {
                seen.push(pkt.user.pkt_index);
                true
            });
        }
        assert!(feeder.done());
        assert_eq!(seen, vec![0, 1], "order preserved across the retry");
    }

    #[test]
    fn mesh_dims_cover_counts() {
        assert_eq!(mesh_dims(4), (2, 2));
        assert_eq!(mesh_dims(6), (2, 3));
        assert_eq!(mesh_dims(16), (4, 4));
        assert_eq!(mesh_dims(2), (1, 2));
    }
}
