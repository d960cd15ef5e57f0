//! EM3D (§4.4): the irregular electromagnetics kernel of Culler et al.
//! [CDG+93], a standard Split-C benchmark.
//!
//! EM3D propagates electromagnetic waves on a bipartite graph of E and H
//! nodes. Per iteration, every graph node recomputes its value from its
//! dependencies; dependencies that live on another processor require a
//! message. The paper drives its simulator with two parameter sets:
//!
//! * Figure 7 (less communication): `n_nodes = 200, d_nodes = 10,
//!   local_p = 80, dist_span = 5` — most arcs are processor-local.
//! * Figure 8 (more communication): `n_nodes = 100, d_nodes = 20,
//!   local_p = 3, dist_span = 20` — most arcs cross processors.
//!
//! We reproduce the communication structure: a seeded random bipartite
//! graph determines, for each processor and iteration, how many value
//! updates go to each neighbor processor. With NIFDY's in-order delivery
//! the library batches the per-destination updates into dense multi-packet
//! transfers; without it, every update carries its own bookkeeping.

use std::collections::BTreeMap;

use nifdy::{Delivered, OutboundPacket};
use nifdy_net::UserData;
use nifdy_sim::{Cycle, NodeId, SimRng};

use crate::processor::{Action, NodeWorkload};
use crate::SoftwareModel;

/// EM3D graph/communication parameters (the paper's figure captions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Em3dParams {
    /// Graph nodes per processor.
    pub n_nodes: u32,
    /// Dependencies per graph node.
    pub d_nodes: u32,
    /// Percentage of arcs that stay processor-local.
    pub local_p: u8,
    /// Remote arcs reach up to this many processors away (either side).
    pub dist_span: u32,
    /// Iterations to run.
    pub iters: u32,
    /// Graph seed.
    pub seed: u64,
    /// Cycles of local compute charged per iteration (value updates).
    pub compute_per_iter: u64,
}

impl Em3dParams {
    /// The Figure 7 configuration (mostly local arcs).
    pub fn less_communication(seed: u64) -> Self {
        Em3dParams {
            n_nodes: 200,
            d_nodes: 10,
            local_p: 80,
            dist_span: 5,
            iters: 4,
            seed,
            compute_per_iter: 2_000,
        }
    }

    /// The Figure 8 configuration (mostly remote arcs).
    pub fn more_communication(seed: u64) -> Self {
        Em3dParams {
            n_nodes: 100,
            d_nodes: 20,
            local_p: 3,
            dist_span: 20,
            iters: 4,
            seed,
            compute_per_iter: 1_000,
        }
    }

    /// Builds the per-node workloads: the graph is generated once (seeded)
    /// and its cross-processor arc counts shared by all nodes.
    pub fn build(&self, num_nodes: usize, sw: SoftwareModel) -> Vec<Box<dyn NodeWorkload>> {
        let plan = Em3dPlan::generate(*self, num_nodes);
        (0..num_nodes)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(Em3d::new(
                    *self,
                    sw,
                    NodeId::new(i),
                    plan.sends[i].clone(),
                    plan.expected[i],
                ))
            })
            .collect()
    }
}

/// The communication plan derived from the random bipartite graph: per
/// processor, how many value words go to each neighbor per iteration, and
/// how many updates it expects to receive.
#[derive(Debug, Clone)]
pub struct Em3dPlan {
    /// `sends[p]` = sorted (destination, words) pairs.
    pub sends: Vec<Vec<(usize, u32)>>,
    /// Words each processor receives per iteration.
    pub expected: Vec<u32>,
}

impl Em3dPlan {
    /// Generates the seeded graph for `num_nodes` processors.
    pub fn generate(params: Em3dParams, num_nodes: usize) -> Self {
        let mut rng = SimRng::from_seed_stream(params.seed, 0xE3D);
        let mut words: Vec<BTreeMap<usize, u32>> = vec![BTreeMap::new(); num_nodes];
        for (p, w) in words.iter_mut().enumerate() {
            for _ in 0..params.n_nodes * params.d_nodes {
                if rng.gen_range_u64(0..100) < u64::from(params.local_p) {
                    continue; // local arc, no traffic
                }
                // Remote dependency: owner within ±dist_span, never self.
                let span = params.dist_span.max(1) as i64;
                let mut off = rng.gen_range_u64(0..(2 * span as u64)) as i64 - span;
                if off >= 0 {
                    off += 1;
                }
                let dst = (p as i64 + off).rem_euclid(num_nodes as i64) as usize;
                if dst != p {
                    *w.entry(dst).or_insert(0) += 1;
                }
            }
        }
        let mut expected = vec![0u32; num_nodes];
        for (p, m) in words.iter().enumerate() {
            let _ = p;
            for (&dst, &w) in m {
                expected[dst] += w;
            }
        }
        Em3dPlan {
            sends: words.into_iter().map(|m| m.into_iter().collect()).collect(),
            expected,
        }
    }
}

/// Per-node EM3D driver: each iteration sends every cross-arc update,
/// computes, then barriers.
#[derive(Debug)]
pub struct Em3d {
    params: Em3dParams,
    sw: SoftwareModel,
    #[expect(dead_code, reason = "kept for the derived Debug output")]
    node: NodeId,
    /// (dst, per-packet payload words) per neighbor.
    plan: Vec<(usize, Vec<u16>)>,
    iter: u32,
    cursor: usize,
    pkt_in_msg: u32,
    computed: bool,
    need_barrier: bool,
    msg_id: u64,
    words_received: u64,
}

impl Em3d {
    fn new(
        params: Em3dParams,
        sw: SoftwareModel,
        node: NodeId,
        sends: Vec<(usize, u32)>,
        _expected: u32,
    ) -> Self {
        let plan = sends
            .into_iter()
            .map(|(dst, words)| (dst, sw.packet_payloads(words)))
            .collect();
        Em3d {
            params,
            sw,
            node,
            plan,
            iter: 0,
            cursor: 0,
            pkt_in_msg: 0,
            computed: false,
            need_barrier: false,
            msg_id: 0,
            words_received: 0,
        }
    }

    /// Total payload words received so far (for verification).
    pub fn words_received(&self) -> u64 {
        self.words_received
    }
}

impl NodeWorkload for Em3d {
    fn next_action(&mut self, _now: Cycle) -> Action {
        if self.need_barrier {
            self.need_barrier = false;
            return Action::Barrier;
        }
        if self.iter >= self.params.iters {
            return Action::Done;
        }
        if !self.computed {
            // Local value updates before communicating.
            self.computed = true;
            return Action::Compute(self.params.compute_per_iter);
        }
        if self.cursor >= self.plan.len() {
            // Iteration's sends complete: barrier, then next iteration.
            self.iter += 1;
            self.cursor = 0;
            self.pkt_in_msg = 0;
            self.computed = false;
            self.need_barrier = false;
            return Action::Barrier;
        }
        let (dst, payloads) = &self.plan[self.cursor];
        let dst = *dst;
        let pkts = payloads.len() as u32;
        let idx = self.pkt_in_msg;
        let words = payloads[idx as usize];
        self.pkt_in_msg += 1;
        if self.pkt_in_msg == pkts {
            self.cursor += 1;
            self.pkt_in_msg = 0;
            self.msg_id += 1;
        }
        Action::Send(
            OutboundPacket::new(NodeId::new(dst), self.sw.packet_words)
                .with_bulk(pkts > 2)
                .with_user(UserData {
                    msg_id: self.msg_id,
                    pkt_index: idx,
                    msg_packets: pkts,
                    user_words: words,
                }),
        )
    }

    fn on_receive(&mut self, pkt: &Delivered, _now: Cycle) {
        self.words_received += u64::from(pkt.user.user_words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_balanced() {
        let p = Em3dParams::more_communication(5);
        let a = Em3dPlan::generate(p, 16);
        let b = Em3dPlan::generate(p, 16);
        assert_eq!(a.sends, b.sends);
        let sent: u64 = a
            .sends
            .iter()
            .flat_map(|v| v.iter().map(|(_, w)| u64::from(*w)))
            .sum();
        let expected: u64 = a.expected.iter().map(|&w| u64::from(w)).sum();
        assert_eq!(sent, expected);
        assert!(sent > 0);
    }

    #[test]
    fn local_p_controls_communication_volume() {
        let heavy = Em3dPlan::generate(Em3dParams::more_communication(1), 16);
        let light = Em3dPlan::generate(Em3dParams::less_communication(1), 16);
        let vol = |p: &Em3dPlan| -> u64 {
            p.sends
                .iter()
                .flat_map(|v| v.iter().map(|(_, w)| u64::from(*w)))
                .sum()
        };
        assert!(
            vol(&heavy) > 2 * vol(&light),
            "heavy {} vs light {}",
            vol(&heavy),
            vol(&light)
        );
    }

    #[test]
    fn dist_span_bounds_partner_distance() {
        let p = Em3dParams::less_communication(3);
        let plan = Em3dPlan::generate(p, 64);
        for (src, sends) in plan.sends.iter().enumerate() {
            for &(dst, _) in sends {
                let d = (src as i64 - dst as i64)
                    .rem_euclid(64)
                    .min((dst as i64 - src as i64).rem_euclid(64));
                assert!(d <= i64::from(p.dist_span), "{src}->{dst} too far");
            }
        }
    }

    #[test]
    fn workload_emits_compute_sends_and_barriers_per_iteration() {
        let p = Em3dParams {
            iters: 2,
            ..Em3dParams::more_communication(7)
        };
        let sw = SoftwareModel::cm5_library(false);
        let plan = Em3dPlan::generate(p, 4);
        let mut w = Em3d::new(
            p,
            sw,
            NodeId::new(0),
            plan.sends[0].clone(),
            plan.expected[0],
        );
        let mut computes = 0;
        let mut barriers = 0;
        let mut sends = 0;
        loop {
            match w.next_action(Cycle::ZERO) {
                Action::Compute(_) => computes += 1,
                Action::Barrier => barriers += 1,
                Action::Send(_) => sends += 1,
                Action::Done => break,
                Action::Idle => {}
            }
        }
        assert_eq!(computes, 2);
        assert_eq!(barriers, 2);
        assert!(sends > 0);
    }
}
