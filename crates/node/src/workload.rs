//! Seeded swarm workloads with simulator-reference parity.
//!
//! A [`SwarmPlan`] fixes, ahead of time, every packet each logical node
//! sends: destination, message id, packet index. Because NIFDY guarantees
//! sender order per source, the per-`(src, dst)` delivery order of *any*
//! conforming run — the flit-level simulated fabric, a single daemon, or a
//! multi-process UDP swarm — must equal the plan's send order exactly. The
//! plan therefore yields both an [`expected_log`](SwarmPlan::expected_log)
//! and a [`run_sim_reference`] that executes it on the cycle-accurate
//! fabric (the PR 4 conformance machinery), giving swarm harnesses a
//! byte-identical parity gate.
//!
//! Two generators are provided: the conformance suite's fixed-point-free
//! **rotation** permutation, and the paper's **EM3D** kernel (§4.4), whose
//! per-processor communication plan is reused verbatim from
//! [`nifdy_traffic::Em3dPlan`].

use nifdy::{Nic, NifdyUnit, OutboundPacket};
use nifdy_net::topology::Mesh;
use nifdy_net::{Fabric, FabricConfig, UserData};
use nifdy_sim::NodeId;
use nifdy_traffic::{Em3dParams, Em3dPlan};
use nifdy_wire::conformance::{mesh_dims, DeliveryLog};
use nifdy_wire::LoopbackTransport;

use crate::config::NodeConfig;
use crate::daemon::NifdyNode;
use crate::stats::NodeStats;

/// One pre-planned packet: where it goes and how it is labelled.
#[derive(Debug, Clone, Copy)]
pub struct PlannedPacket {
    /// Destination node.
    pub dst: NodeId,
    /// Workload annotation (message id, packet index, message size).
    pub user: UserData,
}

/// A fully pre-planned workload over `nodes` logical nodes.
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

    /// The paper's EM3D kernel: per iteration, each processor sends its
    /// cross-processor arc updates — one multi-packet message per neighbor,
    /// sized by [`Em3dPlan::generate`]'s word counts — batched exactly as
    /// the library would batch them under in-order delivery.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `size_words < 3` (no payload room).
    pub fn em3d(nodes: usize, params: Em3dParams, size_words: u16, want_bulk: bool) -> Self {
        assert!(nodes >= 2, "EM3D needs at least 2 processors");
        assert!(size_words >= 3, "size_words must leave payload room");
        let plan = Em3dPlan::generate(params, nodes);
        let payload = u32::from(size_words - 2);
        let sends = (0..nodes)
            .map(|src| {
                let mut queue = Vec::new();
                let mut seq = 0u64;
                for _iter in 0..params.iters {
                    for &(dst, words) in &plan.sends[src] {
                        if words == 0 {
                            continue;
                        }
                        let packets = words.div_ceil(payload);
                        let msg_id = ((src as u64) << 32) | seq;
                        seq += 1;
                        for p in 0..packets {
                            queue.push(PlannedPacket {
                                dst: NodeId::new(dst),
                                user: UserData {
                                    msg_id,
                                    pkt_index: p,
                                    msg_packets: packets,
                                    user_words: size_words - 2,
                                },
                            });
                        }
                    }
                }
                queue
            })
            .collect();
        SwarmPlan {
            nodes,
            size_words,
            want_bulk,
            seed: params.seed,
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
/// retrying rejected sends at the head (same pacing as the conformance
/// suite's feeder, so daemon and fabric runs see identical offered load).
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

/// Runs the plan through the cycle-accurate simulated fabric (the same
/// machinery as the conformance suite's fabric leg) and returns the
/// per-destination delivery log — the reference a daemon or swarm run must
/// match byte for byte.
///
/// # Panics
///
/// Panics if the run does not drain within `max_cycles`.
pub fn run_sim_reference(plan: &SwarmPlan, max_cycles: u64) -> DeliveryLog {
    let (w, h) = mesh_dims(plan.nodes);
    let mut fab = Fabric::new(
        Box::new(Mesh::d2(w, h)),
        FabricConfig::default().with_seed(plan.seed),
    );
    let cfg = NodeConfig::default().protocol;
    let mut units: Vec<NifdyUnit> = (0..plan.nodes)
        .map(|i| NifdyUnit::new(NodeId::new(i), cfg.clone()))
        .collect();
    let mut feeders: Vec<PlanFeeder> = (0..plan.nodes).map(|i| PlanFeeder::new(plan, i)).collect();
    let mut log = DeliveryLog::new();
    let mut delivered = 0u64;
    let mut cycles = 0u64;
    while delivered < plan.total_packets() {
        assert!(
            cycles < max_cycles,
            "sim reference wedged: {delivered}/{} packets after {cycles} cycles",
            plan.total_packets()
        );
        for (i, unit) in units.iter_mut().enumerate() {
            let now = fab.now();
            feeders[i].pump(|pkt| unit.try_send(pkt, now));
            unit.step(&mut fab);
            while let Some(d) = unit.poll(fab.now()) {
                log.entry((d.src.index(), i))
                    .or_default()
                    .push((d.user.msg_id, d.user.pkt_index));
                delivered += 1;
            }
        }
        fab.step();
        cycles += 1;
    }
    while !units.iter().all(Nic::is_idle) {
        assert!(cycles < max_cycles, "sim reference never quiesced");
        for unit in units.iter_mut() {
            unit.step(&mut fab);
            assert!(unit.poll(fab.now()).is_none(), "delivery after drain");
        }
        fab.step();
        cycles += 1;
    }
    log
}

/// What a [`run_local`] daemon run produced.
#[derive(Debug)]
pub struct LocalRunReport {
    /// Per-destination delivery order observed at the receivers.
    pub log: DeliveryLog,
    /// Poll rounds until the daemon drained.
    pub rounds: u64,
    /// The daemon's counters at the end of the run.
    pub stats: NodeStats,
}

/// Runs the whole plan inside one carrier-less daemon: every logical node
/// is hosted, so all routing stays daemon-internal. This is the daemon-side
/// leg of the parity check (and the throughput kernel `node:serve` and the
/// daemon benchmarks measure).
///
/// # Panics
///
/// Panics if the run does not drain within `max_rounds`.
pub fn run_local(plan: &SwarmPlan, cfg: NodeConfig, max_rounds: u64) -> LocalRunReport {
    let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(cfg);
    for i in 0..plan.nodes {
        node.add_endpoint(NodeId::new(i), Vec::new());
    }
    let mut feeders: Vec<PlanFeeder> = (0..plan.nodes).map(|i| PlanFeeder::new(plan, i)).collect();
    let mut log = DeliveryLog::new();
    let total = plan.total_packets();
    let mut delivered = 0u64;
    let mut rounds = 0u64;
    loop {
        assert!(
            rounds < max_rounds,
            "daemon run wedged: {delivered}/{total} packets after {rounds} rounds"
        );
        for (i, feeder) in feeders.iter_mut().enumerate() {
            feeder.pump(|pkt| node.try_send(NodeId::new(i), pkt));
        }
        node.poll_round();
        while let Some((dst, d)) = node.next_delivery() {
            log.entry((d.src.index(), dst.index()))
                .or_default()
                .push((d.user.msg_id, d.user.pkt_index));
            delivered += 1;
        }
        rounds += 1;
        if delivered >= total && feeders.iter().all(PlanFeeder::done) && node.is_idle() {
            break;
        }
    }
    LocalRunReport {
        log,
        rounds,
        stats: node.stats().clone(),
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
        }
    }

    #[test]
    fn em3d_plan_covers_cross_processor_arcs() {
        let params = Em3dParams::more_communication(3);
        let plan = SwarmPlan::em3d(8, params, 6, true);
        assert!(plan.total_packets() > 0, "figure-8 config communicates");
        let log = plan.expected_log();
        for ((src, dst), order) in &log {
            assert_ne!(src, dst, "only cross-processor arcs send");
            assert!(!order.is_empty());
        }
        // Deterministic for a fixed seed.
        let again = SwarmPlan::em3d(8, params, 6, true);
        assert_eq!(plan.expected_log(), again.expected_log());
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
    fn sim_reference_reproduces_the_expected_log() {
        let plan = SwarmPlan::rotation(4, 1, 4, 6, true, 1);
        let log = run_sim_reference(&plan, 200_000);
        assert_eq!(log, plan.expected_log());
    }
}
