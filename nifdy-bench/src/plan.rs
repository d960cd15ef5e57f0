//! Seeded packet plans, the feeders that offer them, and the streaming
//! correctness gate.
//!
//! A [`Plan`] fixes ahead of time every message each source sends. NIFDY
//! promises exactly-once delivery in sender order per `(src, dst)` pair, so
//! the per-pair delivery log of any correct run equals the plan's
//! [`expected_log`](Plan::expected_log). [`DeliveryCheck`] holds that log
//! as per-pair cursors and checks each delivery against it in O(1) while
//! the run is being timed; a run passes when every accepted packet was a
//! hit and nothing mismatched — which is log equality, without building
//! the second log.
//!
//! Plans are generated here, from `--seed`, with `nifdy_sim::SimRng`; the
//! system under test only ever sees the packets.
//!
//! `nifdy_node::workload` has a plan and a feeder of the same semantics
//! (`SwarmPlan`, `PlanFeeder`: same `msg_id` encoding, same retry of a
//! refused packet at the head), and the benchmark does not use them, for
//! three reasons. A `SwarmPlan` stores every packet (32 bytes each) and a
//! `PlanFeeder` clones its source's queue, so `daemon-dense` would carry
//! 64 MB and `wire-chaos` 128 MB of plan against the 13–21 MB the systems
//! under test peak at, and `peak_rss_mb` would measure the generator; a
//! [`Plan`] stores one 8-byte [`Msg`] per message. `SwarmPlan::want_bulk` is
//! one flag for the whole plan, where the simulator workloads request bulk
//! per message, by length. And `PlanFeeder::pump` does not say which packet
//! it offered, which the latency stamps and the paced loop's due times
//! need. The tests below pin this module to that one instead: same packets
//! in the same order, same expected log, same peer lists.

use std::collections::BTreeMap;

use nifdy::{Delivered, OutboundPacket};
use nifdy_net::UserData;
use nifdy_sim::{NodeId, SimRng};

/// One planned message: `len` packets to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    pub dst: u32,
    pub len: u8,
}

/// Every message every source sends, in send order.
#[derive(Debug, Clone)]
pub struct Plan {
    pub nodes: usize,
    /// Packet length in words, header included.
    pub size_words: u16,
    /// Messages of at least this many packets request a bulk dialog.
    pub bulk_min: u8,
    /// `msgs[src]`; sources with no messages are idle.
    pub msgs: Vec<Vec<Msg>>,
    /// `msg_start[src][m]`: index, within `src`'s packet stream, of message
    /// `m`'s first packet.
    msg_start: Vec<Vec<u32>>,
    pub total: u64,
}

fn msg_id(src: usize, seq: usize) -> u64 {
    ((src as u64) << 32) | seq as u64
}

impl Plan {
    pub fn new(nodes: usize, size_words: u16, bulk_min: u8, msgs: Vec<Vec<Msg>>) -> Self {
        assert_eq!(msgs.len(), nodes, "one message list per node");
        let msg_start = msgs
            .iter()
            .map(|list| {
                list.iter()
                    .scan(0u32, |at, m| {
                        let start = *at;
                        *at += u32::from(m.len);
                        Some(start)
                    })
                    .collect()
            })
            .collect();
        let total = msgs.iter().flatten().map(|m| u64::from(m.len)).sum();
        Plan {
            nodes,
            size_words,
            bulk_min,
            msgs,
            msg_start,
            total,
        }
    }

    /// Each `(src, dst)` in `pairs` streams `packets` packets to its
    /// partner in `msg_len`-packet messages (the last one shorter if
    /// `msg_len` does not divide `packets`).
    pub fn streams(
        nodes: usize,
        pairs: &[(usize, usize)],
        packets: u32,
        msg_len: u8,
        size_words: u16,
        bulk: bool,
    ) -> Self {
        let mut msgs = vec![Vec::new(); nodes];
        for &(src, dst) in pairs {
            assert_ne!(src, dst, "a node does not send to itself");
            let mut left = packets;
            while left > 0 {
                let len = left.min(u32::from(msg_len)) as u8;
                msgs[src].push(Msg {
                    dst: dst as u32,
                    len,
                });
                left -= u32::from(len);
            }
        }
        Plan::new(nodes, size_words, if bulk { 1 } else { u8::MAX }, msgs)
    }

    /// Every node sends `packets` packets to uniform-random other nodes in
    /// messages of uniform-random length `1..=max_len` (one `SimRng` stream
    /// per node).
    pub fn uniform_random(
        nodes: usize,
        packets: u32,
        max_len: u8,
        bulk_min: u8,
        size_words: u16,
        seed: u64,
    ) -> Self {
        let msgs = (0..nodes)
            .map(|src| {
                let mut rng = SimRng::from_seed_stream(seed, 0xB0_0000 | src as u64);
                let mut list = Vec::new();
                let mut left = packets;
                while left > 0 {
                    let len = rng.gen_range_u64(1..u64::from(max_len) + 1) as u32;
                    let len = len.min(left) as u8;
                    let mut dst = rng.gen_range_usize(0..nodes - 1);
                    if dst >= src {
                        dst += 1;
                    }
                    list.push(Msg {
                        dst: dst as u32,
                        len,
                    });
                    left -= u32::from(len);
                }
                list
            })
            .collect();
        Plan::new(nodes, size_words, bulk_min, msgs)
    }

    pub fn packets_of(&self, src: usize) -> u32 {
        self.msgs[src].iter().map(|m| u32::from(m.len)).sum()
    }

    /// Sources that send anything, in node order.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.nodes)
            .filter(|&s| !self.msgs[s].is_empty())
            .collect()
    }

    /// Everyone `node` sends to or receives from (the supervisor watch
    /// list a swarm child would configure).
    pub fn peers_of(&self, node: usize) -> Vec<NodeId> {
        let mut peers: Vec<usize> = self.msgs[node].iter().map(|m| m.dst as usize).collect();
        for (src, list) in self.msgs.iter().enumerate() {
            if list.iter().any(|m| m.dst as usize == node) {
                peers.push(src);
            }
        }
        peers.sort_unstable();
        peers.dedup();
        peers.into_iter().map(NodeId::new).collect()
    }

    fn packet(&self, src: usize, seq: usize, idx: u8) -> OutboundPacket {
        let m = self.msgs[src][seq];
        OutboundPacket::new(NodeId::new(m.dst as usize), self.size_words)
            .with_bulk(m.len >= self.bulk_min)
            .with_user(UserData {
                msg_id: msg_id(src, seq),
                pkt_index: u32::from(idx),
                msg_packets: u32::from(m.len),
                user_words: self.size_words - 1,
            })
    }

    /// The same plan as the library's type, packet by packet. Its
    /// `expected_log()` is the delivery log every correct run produces; the
    /// gate never builds it — [`DeliveryCheck`] streams against the same
    /// order — so only the tests that pin the two together need it.
    #[cfg(test)]
    fn as_swarm_plan(&self) -> nifdy_node::workload::SwarmPlan {
        let sends = (0..self.nodes)
            .map(|src| {
                let packets = self.msgs[src].iter().enumerate().flat_map(|(seq, m)| {
                    (0..m.len).map(move |idx| {
                        let p = self.packet(src, seq, idx);
                        nifdy_node::workload::PlannedPacket {
                            dst: p.dst,
                            user: p.user,
                        }
                    })
                });
                packets.collect()
            })
            .collect();
        nifdy_node::workload::SwarmPlan {
            nodes: self.nodes,
            size_words: self.size_words,
            want_bulk: self.bulk_min <= 1,
            seed: 0,
            sends,
        }
    }
}

/// A seeded cyclic permutation of `0..n` (Sattolo's algorithm): one cycle
/// through every element, hence no fixed point.
pub fn cyclic_permutation(n: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range_usize(0..i);
        p.swap(i, j);
    }
    p
}

/// A seeded uniform shuffle of `0..n`.
pub fn shuffled(n: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range_usize(0..i + 1);
        p.swap(i, j);
    }
    p
}

/// Offers one source's packets in plan order; a rejected packet stays at
/// the head and is offered again next time.
#[derive(Debug, Clone)]
pub struct Feeder {
    pub src: usize,
    seq: usize,
    idx: u8,
    /// Index of the head packet within this source's stream.
    k: u32,
}

/// What one [`Feeder::offer`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The head packet (stream index given) was accepted.
    Accepted(u32),
    Rejected,
    Done,
}

impl Feeder {
    pub fn new(src: usize) -> Self {
        Feeder {
            src,
            seq: 0,
            idx: 0,
            k: 0,
        }
    }

    pub fn done(&self, plan: &Plan) -> bool {
        self.seq >= plan.msgs[self.src].len()
    }

    /// Stream index of the head packet.
    pub fn head(&self) -> u32 {
        self.k
    }

    pub fn offer(&mut self, plan: &Plan, try_send: impl FnOnce(OutboundPacket) -> bool) -> Offer {
        let Some(m) = plan.msgs[self.src].get(self.seq) else {
            return Offer::Done;
        };
        if !try_send(plan.packet(self.src, self.seq, self.idx)) {
            return Offer::Rejected;
        }
        let k = self.k;
        self.k += 1;
        self.idx += 1;
        if self.idx == m.len {
            self.idx = 0;
            self.seq += 1;
        }
        Offer::Accepted(k)
    }
}

#[derive(Debug, Clone)]
struct PairCursor {
    dst: u32,
    /// Sequence numbers (within the source) of the messages of this pair.
    seqs: Vec<u32>,
    pos: usize,
    idx: u8,
}

/// The streaming exactly-once, in-order gate.
#[derive(Debug, Clone)]
pub struct DeliveryCheck {
    /// `pairs[src]`, sorted by `dst`.
    pairs: Vec<Vec<PairCursor>>,
    /// Deliveries that matched their pair's next expected packet.
    pub in_order: u64,
    /// Deliveries that did not (duplicate, reordered, foreign, corrupted
    /// annotation).
    pub mismatched: u64,
}

impl DeliveryCheck {
    pub fn new(plan: &Plan) -> Self {
        let pairs = plan
            .msgs
            .iter()
            .map(|list| {
                let mut by_dst: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
                for (seq, m) in list.iter().enumerate() {
                    by_dst.entry(m.dst).or_default().push(seq as u32);
                }
                by_dst
                    .into_iter()
                    .map(|(dst, seqs)| PairCursor {
                        dst,
                        seqs,
                        pos: 0,
                        idx: 0,
                    })
                    .collect()
            })
            .collect();
        DeliveryCheck {
            pairs,
            in_order: 0,
            mismatched: 0,
        }
    }

    /// Checks one delivery at `dst`. Returns the packet's index within its
    /// source's stream when it is exactly the pair's next expected packet.
    pub fn delivered(&mut self, plan: &Plan, dst: usize, d: &Delivered) -> Option<u32> {
        let src = d.src.index();
        let hit = self.pairs.get_mut(src).and_then(|cursors| {
            let at = cursors
                .binary_search_by_key(&(dst as u32), |c| c.dst)
                .ok()?;
            let c = &mut cursors[at];
            let seq = *c.seqs.get(c.pos)? as usize;
            let m = plan.msgs[src][seq];
            let want = UserData {
                msg_id: msg_id(src, seq),
                pkt_index: u32::from(c.idx),
                msg_packets: u32::from(m.len),
                user_words: plan.size_words - 1,
            };
            if d.user != want || d.size_words != plan.size_words {
                return None;
            }
            let k = plan.msg_start[src][seq] + u32::from(c.idx);
            c.idx += 1;
            if c.idx == m.len {
                c.idx = 0;
                c.pos += 1;
            }
            Some(k)
        });
        match hit {
            Some(_) => self.in_order += 1,
            None => self.mismatched += 1,
        }
        hit
    }
}

/// Offer-to-delivery latency samples. A packet is sampled when its stream
/// index is a multiple of `every`; the loop stamps it (at acceptance on
/// the closed loops, with its due time on the paced loop) and the sample
/// is taken when the gate sees it delivered.
#[derive(Debug, Clone)]
pub struct LatencyLog {
    every: u32,
    stamps: Vec<Vec<u64>>,
    pub samples_ns: Vec<u32>,
}

impl LatencyLog {
    pub fn new(plan: &Plan, every: u32) -> Self {
        let stamps = (0..plan.nodes)
            .map(|s| vec![0u64; plan.packets_of(s).div_ceil(every) as usize])
            .collect();
        LatencyLog {
            every,
            stamps,
            samples_ns: Vec::new(),
        }
    }

    #[inline]
    pub fn samples(&self, k: u32) -> bool {
        k.is_multiple_of(self.every)
    }

    #[inline]
    pub fn stamp(&mut self, src: usize, k: u32, at_ns: u64) {
        self.stamps[src][(k / self.every) as usize] = at_ns;
    }

    #[inline]
    pub fn observe(&mut self, src: usize, k: u32, now_ns: u64) {
        let at = self.stamps[src][(k / self.every) as usize];
        let ns = now_ns.saturating_sub(at);
        self.samples_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(src: usize, plan: &Plan, seq: usize, idx: u8) -> Delivered {
        let p = plan.packet(src, seq, idx);
        Delivered {
            src: NodeId::new(src),
            size_words: p.size_words,
            user: p.user,
        }
    }

    #[test]
    fn feeder_walks_the_plan_and_retries_the_head() {
        let plan = Plan::streams(3, &[(0, 2)], 5, 2, 6, true);
        assert_eq!(plan.total, 5);
        assert_eq!(plan.msgs[0].len(), 3, "2 + 2 + 1");
        let mut f = Feeder::new(0);
        assert_eq!(f.offer(&plan, |_| false), Offer::Rejected);
        let mut seen = Vec::new();
        while !f.done(&plan) {
            let got = f.offer(&plan, |p| {
                seen.push((p.user.msg_id, p.user.pkt_index, p.user.msg_packets));
                true
            });
            assert!(matches!(got, Offer::Accepted(_)));
        }
        assert_eq!(
            seen,
            vec![(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2), (2, 0, 1)]
        );
        assert_eq!(f.offer(&plan, |_| true), Offer::Done);
        assert_eq!(Feeder::new(1).offer(&plan, |_| true), Offer::Done);
    }

    #[test]
    fn plan_and_feeder_agree_with_the_librarys() {
        use nifdy_node::workload::PlanFeeder;
        let plan = Plan::streams(6, &[(0, 2), (2, 5), (4, 2)], 21, 8, 6, true);
        let swarm = plan.as_swarm_plan();
        assert_eq!(swarm.total_packets(), plan.total);
        for src in 0..plan.nodes {
            // Same packets in the same order under the same refusals
            // (every third offer, so heads are retried on both sides).
            fn every_third() -> impl FnMut() -> bool {
                let mut n = 0;
                move || {
                    n += 1;
                    n % 3 == 0
                }
            }
            let (mut ours, mut theirs) = (Vec::new(), Vec::new());
            let (mut f, mut refuse) = (Feeder::new(src), every_third());
            while !f.done(&plan) {
                f.offer(&plan, |p| {
                    ours.push(p);
                    !refuse()
                });
            }
            let (mut f, mut refuse) = (PlanFeeder::new(&swarm, src), every_third());
            while !f.done() {
                f.pump(|p| {
                    theirs.push(p);
                    !refuse()
                });
            }
            assert_eq!(ours, theirs, "source {src}");
            let sorted = |mut peers: Vec<NodeId>| {
                peers.sort_unstable();
                peers
            };
            assert_eq!(plan.peers_of(src), sorted(swarm.peers_of(src)));
        }
    }

    #[test]
    fn gate_accepts_exactly_the_expected_log() {
        let plan = Plan::uniform_random(6, 40, 8, 4, 8, 3);
        let mut check = DeliveryCheck::new(&plan);
        // Replay the expected log pair by pair: per-pair order is all the
        // protocol promises, so any interleaving of pairs must pass.
        let mut ks = vec![Vec::new(); 6];
        for (&(src, dst), order) in &plan.as_swarm_plan().expected_log() {
            for &(id, idx) in order {
                let seq = (id & 0xffff_ffff) as usize;
                let d = delivered(src, &plan, seq, idx as u8);
                ks[src].push(check.delivered(&plan, dst, &d).expect("in order"));
            }
        }
        assert_eq!((check.in_order, check.mismatched), (plan.total, 0));
        for k in &mut ks {
            k.sort_unstable();
            assert_eq!(*k, (0..40).collect::<Vec<u32>>(), "every stream index once");
        }
    }

    #[test]
    fn gate_rejects_duplicates_reordering_and_loss() {
        let plan = Plan::streams(2, &[(0, 1)], 4, 4, 6, true);
        let mut check = DeliveryCheck::new(&plan);
        assert_eq!(
            check.delivered(&plan, 1, &delivered(0, &plan, 0, 0)),
            Some(0)
        );
        // Duplicate of packet 0.
        assert_eq!(check.delivered(&plan, 1, &delivered(0, &plan, 0, 0)), None);
        // Packet 2 overtaking packet 1.
        assert_eq!(check.delivered(&plan, 1, &delivered(0, &plan, 0, 2)), None);
        // Right packet, wrong receiver.
        assert_eq!(check.delivered(&plan, 0, &delivered(0, &plan, 0, 1)), None);
        assert_eq!((check.in_order, check.mismatched), (1, 3));
        // The cursor did not move on any of them: packet 1 is still next,
        // and nothing is accepted past the end of the pair's log.
        for idx in 1..4 {
            assert_eq!(
                check.delivered(&plan, 1, &delivered(0, &plan, 0, idx)),
                Some(u32::from(idx))
            );
        }
        assert_eq!(check.delivered(&plan, 1, &delivered(0, &plan, 0, 3)), None);
        assert_eq!((check.in_order, check.mismatched), (4, 4));
    }

    #[test]
    fn permutations_are_seeded_and_fixed_point_free() {
        for seed in 1..20 {
            let mut rng = SimRng::from_seed_stream(seed, 9);
            let p = cyclic_permutation(33, &mut rng);
            assert!(p.iter().enumerate().all(|(i, &j)| i != j));
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..33).collect::<Vec<_>>());
            let mut again = SimRng::from_seed_stream(seed, 9);
            assert_eq!(p, cyclic_permutation(33, &mut again));
        }
    }

    #[test]
    fn latency_log_samples_every_nth_stream_index() {
        let plan = Plan::streams(2, &[(0, 1)], 40, 8, 6, true);
        let mut lat = LatencyLog::new(&plan, 16);
        assert!(lat.samples(0) && lat.samples(32) && !lat.samples(8));
        lat.stamp(0, 32, 1_000);
        lat.observe(0, 32, 4_500);
        assert_eq!(lat.samples_ns, vec![3_500]);
    }
}
