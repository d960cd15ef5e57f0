//! Baseline network interfaces the paper compares NIFDY against.
//!
//! * [`PlainNic`] — "no NIFDY": a minimal interface with one outgoing slot
//!   and a small arrivals queue. No protocol, no acks; packets are injected
//!   as soon as the fabric accepts them and delivered in whatever order the
//!   network produces.
//! * [`BufferedNic`] — "buffering only": the NIFDY units are "included but
//!   disabled", so their buffering is still available. For a fair
//!   comparison the same *total* amount of buffering is used, redistributed
//!   to be most effective: "without the protocol, best performance results
//!   from allocating at least half of the total buffering resources to the
//!   arrivals queue" (§3).

use std::collections::VecDeque;

use nifdy_net::{Lane, NetPort, Packet, Wire};
use nifdy_sim::{Cycle, NodeId, PacketId, Wakeup};

use crate::nic::{Delivered, Nic, NicStats, OutboundPacket};

/// Shared machinery for the two protocol-free interfaces.
#[derive(Debug)]
struct FifoNic {
    node: NodeId,
    out_cap: usize,
    arr_cap: usize,
    outgoing: VecDeque<OutboundPacket>,
    arrivals: VecDeque<Packet>,
    pkt_counter: u64,
    stats: NicStats,
}

impl FifoNic {
    fn new(node: NodeId, out_cap: usize, arr_cap: usize) -> Self {
        assert!(out_cap > 0, "need at least one outgoing slot");
        assert!(arr_cap > 0, "need at least one arrivals slot");
        FifoNic {
            node,
            out_cap,
            arr_cap,
            outgoing: VecDeque::new(),
            arrivals: VecDeque::new(),
            pkt_counter: 0,
            stats: NicStats::default(),
        }
    }

    fn try_send(&mut self, pkt: OutboundPacket) -> bool {
        if self.outgoing.len() >= self.out_cap {
            self.stats.send_rejected.incr();
            return false;
        }
        self.outgoing.push_back(pkt);
        true
    }

    fn poll(&mut self) -> Option<Delivered> {
        let pkt = self.arrivals.pop_front()?;
        self.stats.delivered.incr();
        Some(Delivered {
            src: pkt.src,
            size_words: pkt.size_words,
            user: pkt.user,
        })
    }

    fn step(&mut self, fab: &mut dyn NetPort) {
        // Drain arrivals while there is room; otherwise backpressure holds
        // packets in the fabric.
        while self.arrivals.len() < self.arr_cap {
            let Some(pkt) = fab.eject(self.node, Lane::Request) else {
                break;
            };
            debug_assert!(matches!(pkt.wire, Wire::Data { .. }));
            self.arrivals.push_back(pkt);
        }
        // Head-of-line injection: strict FIFO, no per-destination logic.
        if fab.can_inject(self.node, Lane::Request) {
            if let Some(out) = self.outgoing.pop_front() {
                self.pkt_counter += 1;
                let id = PacketId::new(((self.node.index() as u64) << 40) | self.pkt_counter);
                let mut pkt = Packet::data(id, self.node, out.dst, out.size_words);
                pkt.user = out.user;
                pkt.wire = Wire::Data {
                    bulk_request: false,
                    bulk_exit: false,
                    bulk: None,
                    needs_ack: false,
                    dup_bit: false,
                    piggy_ack: None,
                };
                fab.inject(self.node, pkt);
                self.stats.sent.incr();
            }
        }
    }
}

/// The "no NIFDY" baseline: one outgoing slot, two arrival slots, no
/// protocol.
///
/// # Examples
///
/// ```
/// use nifdy::{Nic, OutboundPacket, PlainNic};
/// use nifdy_sim::{Cycle, NodeId};
///
/// let mut nic = PlainNic::new(NodeId::new(0));
/// assert!(nic.try_send(OutboundPacket::new(NodeId::new(1), 8), Cycle::ZERO));
/// // The single outgoing slot is now full.
/// assert!(!nic.try_send(OutboundPacket::new(NodeId::new(2), 8), Cycle::ZERO));
/// ```
#[derive(Debug)]
pub struct PlainNic(FifoNic);

impl PlainNic {
    /// Creates the minimal interface for `node`.
    pub fn new(node: NodeId) -> Self {
        PlainNic(FifoNic::new(node, 1, 2))
    }
}

/// The "buffering only" baseline: NIFDY's buffer budget without its
/// protocol, split evenly between the outgoing queue and the arrivals queue.
///
/// # Examples
///
/// ```
/// use nifdy::{BufferedNic, NifdyConfig};
/// use nifdy_sim::NodeId;
///
/// let budget = NifdyConfig::mesh().total_buffers();
/// let nic = BufferedNic::new(NodeId::new(0), budget);
/// assert_eq!(nic.outgoing_capacity() + nic.arrivals_capacity(), budget as usize);
/// ```
#[derive(Debug)]
pub struct BufferedNic(FifoNic);

impl BufferedNic {
    /// Creates a buffered interface with `total_buffers` packet buffers,
    /// split half outgoing / half arrivals (arrivals keep the odd buffer).
    ///
    /// # Panics
    ///
    /// Panics if `total_buffers < 2`.
    pub fn new(node: NodeId, total_buffers: u16) -> Self {
        assert!(total_buffers >= 2, "need at least two buffers to split");
        let out = usize::from(total_buffers) / 2;
        let arr = usize::from(total_buffers) - out;
        BufferedNic(FifoNic::new(node, out, arr))
    }

    /// Outgoing queue capacity in packets.
    pub fn outgoing_capacity(&self) -> usize {
        self.0.out_cap
    }

    /// Arrivals queue capacity in packets.
    pub fn arrivals_capacity(&self) -> usize {
        self.0.arr_cap
    }
}

macro_rules! delegate_nic {
    ($ty:ty) => {
        impl Nic for $ty {
            fn node(&self) -> NodeId {
                self.0.node
            }
            fn try_send(&mut self, pkt: OutboundPacket, _now: Cycle) -> bool {
                self.0.try_send(pkt)
            }
            fn has_deliverable(&self) -> bool {
                !self.0.arrivals.is_empty()
            }
            fn poll(&mut self, _now: Cycle) -> Option<Delivered> {
                self.0.poll()
            }
            fn step(&mut self, fab: &mut dyn NetPort) {
                self.0.step(fab)
            }
            fn is_idle(&self) -> bool {
                self.0.outgoing.is_empty() && self.0.arrivals.is_empty()
            }
            fn next_event(&self, _now: Cycle) -> Wakeup {
                // Stateless FIFO: stepping only does work when there is
                // something to inject. Arrivals are drained by the
                // processor's poll, and ejection-ready fabric packets keep
                // the *fabric* reporting `Now`, which forces a step anyway.
                if self.0.outgoing.is_empty() {
                    Wakeup::Quiescent
                } else {
                    Wakeup::Now
                }
            }
            fn stats(&self) -> &NicStats {
                &self.0.stats
            }
        }
    };
}

delegate_nic!(PlainNic);
delegate_nic!(BufferedNic);

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_net::topology::Mesh;
    use nifdy_net::{Fabric, FabricConfig};

    #[test]
    fn plain_nic_round_trip() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
        let mut a = PlainNic::new(NodeId::new(0));
        let mut b = PlainNic::new(NodeId::new(3));
        assert!(a.try_send(OutboundPacket::new(NodeId::new(3), 8), Cycle::ZERO));
        for _ in 0..5_000 {
            a.step(&mut fab);
            b.step(&mut fab);
            fab.step();
            if let Some(d) = b.poll(fab.now()) {
                assert_eq!(d.src, NodeId::new(0));
                assert!(a.is_idle());
                return;
            }
        }
        panic!("packet never delivered");
    }

    #[test]
    fn buffered_nic_splits_budget() {
        let nic = BufferedNic::new(NodeId::new(0), 9);
        assert_eq!(nic.outgoing_capacity(), 4);
        assert_eq!(nic.arrivals_capacity(), 5);
    }

    #[test]
    fn buffered_nic_accepts_up_to_capacity() {
        let mut nic = BufferedNic::new(NodeId::new(0), 8);
        for i in 0..4 {
            assert!(nic.try_send(OutboundPacket::new(NodeId::new(1 + i), 8), Cycle::ZERO));
        }
        assert!(!nic.try_send(OutboundPacket::new(NodeId::new(9), 8), Cycle::ZERO));
        assert_eq!(nic.stats().send_rejected.get(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn buffered_nic_rejects_tiny_budget() {
        let _ = BufferedNic::new(NodeId::new(0), 1);
    }
}
