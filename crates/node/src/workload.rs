//! Seeded swarm workloads and the daemon-side conformance set.
//!
//! A [`SwarmPlan`] fixes, ahead of time, every packet each logical node
//! sends. Because NIFDY guarantees sender order per source, the
//! per-`(src, dst)` delivery order of *any* conforming run — the flit-level
//! simulated fabric, a single daemon, or a multi-process UDP swarm — must
//! equal the plan's [`expected_log`](SwarmPlan::expected_log) exactly. The
//! plan, its feeder and the one loop that drives them
//! ([`nifdy_wire::conformance::run`]) live in `nifdy-wire` and are
//! re-exported here; this module adds what needs this crate: the paper's
//! **EM3D** kernel as a plan ([`em3d_plan`], §4.4, reusing
//! [`nifdy_traffic::Em3dPlan`] verbatim) and [`DaemonSet`], which lets the
//! same loop and scenario table drive [`NifdyNode`]s.

use nifdy::OutboundPacket;
use nifdy_net::UserData;
use nifdy_sim::NodeId;
use nifdy_traffic::{Em3dParams, Em3dPlan};
use nifdy_wire::conformance::{NodeSet, RunReport};
pub use nifdy_wire::conformance::{PlanFeeder, PlannedPacket, SwarmPlan};
use nifdy_wire::{LoopbackHub, LoopbackTransport};

use crate::config::NodeConfig;
use crate::daemon::NifdyNode;

/// The paper's EM3D kernel as a [`SwarmPlan`]: per iteration, each
/// processor sends its cross-processor arc updates — one multi-packet
/// message per neighbor, sized by [`Em3dPlan::generate`]'s word counts —
/// batched exactly as the library would batch them under in-order
/// delivery.
///
/// # Panics
///
/// Panics if `nodes < 2` or `size_words < 3` (no payload room).
pub fn em3d_plan(nodes: usize, params: Em3dParams, size_words: u16, want_bulk: bool) -> SwarmPlan {
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

/// Logical nodes `0..n` hosted by one or more [`NifdyNode`]s, as a
/// [`NodeSet`]. A daemon steps all its endpoints in one
/// [`poll_round`](NifdyNode::poll_round), so the set runs a daemon's round
/// when the loop reaches the last node it hosts — after every hosted
/// feeder has pumped — and a tick is one round of every daemon.
#[derive(Debug)]
pub struct DaemonSet {
    /// The daemons, for reading [`NodeStats`](crate::NodeStats) and metrics
    /// after a run.
    pub daemons: Vec<NifdyNode<LoopbackTransport>>,
    /// Logical node → index of the daemon hosting it; contiguous ranges.
    owner: Vec<usize>,
    hub: LoopbackHub,
}

impl DaemonSet {
    /// Splits `nodes` logical nodes contiguously over `daemons` daemons
    /// running `cfg`. A single daemon is carrier-less (all routing stays
    /// daemon-internal — the kernel `node:serve` measures); several share a
    /// latency-1 [`LoopbackHub`] and route every node they do not host via
    /// its owner.
    pub fn new(nodes: usize, daemons: usize, cfg: &NodeConfig) -> Self {
        let owner: Vec<usize> = (0..nodes).map(|n| n * daemons / nodes).collect();
        let hub = LoopbackHub::new(daemons, 1);
        let build = |d: usize| {
            let mut daemon = NifdyNode::new(cfg.clone());
            let carrier = (daemons > 1).then(|| daemon.add_carrier(hub.endpoint(NodeId::new(d))));
            for (n, &host) in owner.iter().enumerate() {
                if host == d {
                    daemon.add_endpoint(NodeId::new(n), Vec::new());
                } else if let Some(c) = carrier {
                    daemon.set_route(NodeId::new(n), c, NodeId::new(host));
                }
            }
            daemon
        };
        DaemonSet {
            daemons: (0..daemons).map(build).collect(),
            owner,
            hub,
        }
    }
}

impl NodeSet for DaemonSet {
    fn offer(&mut self, node: usize, pkt: OutboundPacket) -> bool {
        self.daemons[self.owner[node]].try_send(NodeId::new(node), pkt)
    }

    fn step_node(&mut self, node: usize, out: &mut RunReport) {
        let host = self.owner[node];
        if self.owner.get(node + 1) == Some(&host) {
            return;
        }
        let daemon = &mut self.daemons[host];
        daemon.poll_round();
        while let Some((dst, d)) = daemon.next_delivery() {
            out.deliver(dst.index(), &d);
        }
        for f in daemon.take_failures() {
            out.fail(&f);
        }
    }

    fn tick_carrier(&mut self) {
        self.hub.tick();
    }

    fn quiet(&self) -> bool {
        self.daemons.iter().all(NifdyNode::is_idle) && self.hub.in_flight() == 0
    }

    fn audit(&self, label: &str) {
        for d in &self.daemons {
            assert_eq!(d.stats().unroutable, 0, "{label}: unroutable frame");
            assert_eq!(d.stats().foreign, 0, "{label}: misrouted frame");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn em3d_plan_covers_cross_processor_arcs() {
        let params = Em3dParams::more_communication(3);
        let plan = em3d_plan(8, params, 6, true);
        assert!(plan.total_packets() > 0, "figure-8 config communicates");
        let log = plan.expected_log();
        for ((src, dst), order) in &log {
            assert_ne!(src, dst, "only cross-processor arcs send");
            assert!(!order.is_empty());
        }
        // Deterministic for a fixed seed.
        let again = em3d_plan(8, params, 6, true);
        assert_eq!(plan.expected_log(), again.expected_log());
    }

    #[test]
    fn daemon_set_partitions_nodes_contiguously() {
        let set = DaemonSet::new(6, 2, &NodeConfig::default());
        assert_eq!(set.owner, [0, 0, 0, 1, 1, 1]);
        let hosted: Vec<usize> = set.daemons.iter().map(NifdyNode::num_endpoints).collect();
        assert_eq!(hosted, [3, 3]);
    }
}
