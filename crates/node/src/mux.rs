//! Endpoint multiplexing: the in-memory per-endpoint transport the daemon
//! demultiplexes into, and the flow-affine shard hash.

use std::collections::VecDeque;

use nifdy_net::Lane;
use nifdy_sim::{Cycle, NodeId};
use nifdy_wire::Transport;

/// The shard that owns `dst`'s endpoint — and therefore every flow whose
/// frames terminate at `dst`.
///
/// The hash is FNV-1a over the destination id alone. Keying on the
/// destination (rather than the full `(src, dst)` pair) is what makes the
/// sharding *flow-affine*: a bulk dialog's state — the OPT entry, the
/// window, the duplicate bits — lives in the receiving endpoint, so every
/// frame of the dialog must reach the shard holding that endpoint. Hashing
/// the source into the key would scatter one endpoint's inbound flows
/// across shards and force cross-shard access to a single dialog table.
pub fn shard_of(dst: NodeId, shards: usize) -> usize {
    assert!(shards > 0, "at least one shard");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (dst.index() as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Most spent frame buffers a [`MuxPort`] holds (a burst beyond it is
/// freed as it is decoded).
pub const FREE_CAP: usize = 16;
/// What the daemon levels every port it steps back to: enough for the few
/// frames an endpoint encodes per round (one per lane, plus heartbeats).
const FREE_KEEP: usize = 4;

/// One hosted endpoint's in-memory transport attachment.
///
/// The daemon owns the real sockets; each logical endpoint sees only this
/// port. Inbound frames are pushed by the daemon's demultiplexer
/// ([`push_inbound`](MuxPort::push_inbound)); outbound frames accumulate
/// locally and are drained by the daemon's flush pass
/// ([`take_outbound_into`](MuxPort::take_outbound_into)) into a per-carrier
/// batch. The buffers of decoded frames wait on a free list (at most
/// [`FREE_CAP`]) for the endpoint's next encode. The clock free-runs one
/// cycle per daemon poll round, mirroring
/// [`UdpTransport`](nifdy_wire::UdpTransport)'s per-node clock domain.
#[derive(Debug)]
pub struct MuxPort {
    node: NodeId,
    now: Cycle,
    inbound: [VecDeque<Vec<u8>>; 2],
    outbound: Vec<(NodeId, Lane, Vec<u8>)>,
    free: Vec<Vec<u8>>,
}

impl MuxPort {
    /// Creates the port for `node` at cycle zero.
    pub fn new(node: NodeId) -> Self {
        MuxPort {
            node,
            now: Cycle::ZERO,
            inbound: [VecDeque::new(), VecDeque::new()],
            outbound: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Queues a demultiplexed inbound frame for the endpoint's next tick.
    pub fn push_inbound(&mut self, lane: Lane, frame: Vec<u8>) {
        self.inbound[lane.index()].push_back(frame);
    }

    /// Moves every queued outbound frame into `out`, preserving order and
    /// reusing this port's allocation for the next round.
    pub fn take_outbound_into(&mut self, out: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        out.append(&mut self.outbound);
    }

    /// Frames queued inbound and not yet consumed by the endpoint.
    pub fn inbound_len(&self) -> usize {
        self.inbound[0].len() + self.inbound[1].len()
    }

    /// Spent buffers waiting for this endpoint's next encode.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Levels the free list against the daemon's `pool`: the surplus of a
    /// port that receives more than it sends moves out (and is freed once
    /// the pool holds `pool_cap`), and a port that `refill`s — it sent this
    /// round — draws back up while the pool lasts.
    pub fn level(&mut self, pool: &mut Vec<Vec<u8>>, pool_cap: usize, refill: bool) {
        if self.free.len() > FREE_KEEP {
            let surplus = self.free.drain(FREE_KEEP..);
            pool.extend(surplus.take(pool_cap.saturating_sub(pool.len())));
        } else if refill {
            let want = (FREE_KEEP - self.free.len()).min(pool.len());
            self.free.extend(pool.drain(pool.len() - want..));
        }
    }
}

impl Transport for MuxPort {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn tick(&mut self) {
        self.now += 1;
    }

    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        self.outbound.push((dst, lane, frame));
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        self.inbound[lane.index()].pop_front()
    }

    fn take_buffer(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        if self.free.len() < FREE_CAP {
            self.free.push(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_spreads_contiguous_ids() {
        for shards in [1usize, 2, 4, 7, 16] {
            for dst in 0..256 {
                assert!(shard_of(NodeId::new(dst), shards) < shards);
            }
        }
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for dst in 0..1024 {
            counts[shard_of(NodeId::new(dst), shards)] += 1;
        }
        for (s, &n) in counts.iter().enumerate() {
            assert!(n > 0, "shard {s} owns no endpoints out of 1024");
        }
    }

    #[test]
    fn mux_port_round_trips_frames_per_lane() {
        let mut port = MuxPort::new(NodeId::new(3));
        port.push_inbound(Lane::Request, vec![1]);
        port.push_inbound(Lane::Reply, vec![2]);
        assert_eq!(port.inbound_len(), 2);
        assert_eq!(port.recv(Lane::Request), Some(vec![1]));
        assert_eq!(port.recv(Lane::Request), None);
        assert_eq!(port.recv(Lane::Reply), Some(vec![2]));

        port.send(NodeId::new(9), Lane::Request, vec![7]);
        port.send(NodeId::new(8), Lane::Reply, vec![8]);
        let mut out = Vec::new();
        port.take_outbound_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, NodeId::new(9));
        assert_eq!(out[1].2, vec![8]);
        let mut again = Vec::new();
        port.take_outbound_into(&mut again);
        assert!(again.is_empty(), "drain empties the queue");

        assert_eq!(port.now(), Cycle::ZERO);
        port.tick();
        assert_eq!(port.now().as_u64(), 1);
    }

    #[test]
    fn free_list_is_capped_and_levels_through_the_pool() {
        let mut port = MuxPort::new(NodeId::new(3));
        for _ in 0..4 * FREE_CAP {
            port.recycle(vec![0; 32]);
        }
        assert_eq!(port.free_len(), FREE_CAP, "a burst is freed past the cap");
        let mut pool = Vec::new();
        port.level(&mut pool, 5, false);
        assert_eq!(port.free_len(), FREE_KEEP);
        assert_eq!(pool.len(), 5, "surplus beyond the pool's cap is freed");
        assert!(port.take_buffer().capacity() >= 32, "a recycled buffer");

        // A port that ran dry and is sending draws from the pool; an idle
        // one does not.
        let mut dry = MuxPort::new(NodeId::new(4));
        dry.level(&mut pool, 5, false);
        assert_eq!((dry.free_len(), pool.len()), (0, 5));
        dry.level(&mut pool, 5, true);
        assert_eq!((dry.free_len(), pool.len()), (FREE_KEEP, 5 - FREE_KEEP));
        assert_eq!(MuxPort::new(NodeId::new(5)).take_buffer().capacity(), 0);
    }
}
