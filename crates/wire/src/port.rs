//! The adapter that lets a [`NifdyUnit`](nifdy::NifdyUnit) drive a byte
//! transport: [`TransportPort`] implements [`NetPort`] by encoding injected
//! packets into frames and decoding received frames back into packets.
//!
//! The port also charges a *serialization budget*: injecting a packet of
//! `size_words` words occupies the lane's transmitter for `size_words`
//! cycles (one word per cycle, the fabric's link model), so
//! [`NetPort::can_inject`] models the `T_link` term of the §2.4 analytic
//! model and loopback bandwidth measurements are comparable to Equation 1.

use std::collections::VecDeque;

use nifdy_net::{Lane, NetPort, Packet};
use nifdy_sim::{Cycle, NodeId, PacketId};
use nifdy_trace::{trace_event, EventKind, TraceHandle};

use crate::codec::{self, Heartbeat, WireFrame, WirePacket, WireSource};
use crate::transport::Transport;

/// One node's [`NetPort`] view of a byte [`Transport`].
#[derive(Debug)]
pub struct TransportPort<T: Transport> {
    transport: T,
    /// Decoded packets awaiting ejection, per lane.
    pending: [VecDeque<Packet>; 2],
    /// Liveness beacons received and not yet [`pop_heartbeat`]ed.
    ///
    /// [`pop_heartbeat`]: TransportPort::pop_heartbeat
    heartbeats: VecDeque<Heartbeat>,
    /// The cycle at which each lane's transmitter frees up.
    tx_busy_until: [Cycle; 2],
    pkt_counter: u64,
    decode_errors: u64,
    foreign: u64,
    trace: TraceHandle,
}

impl<T: Transport> TransportPort<T> {
    /// Wraps a transport endpoint.
    pub fn new(transport: T) -> Self {
        TransportPort {
            transport,
            pending: [VecDeque::new(), VecDeque::new()],
            heartbeats: VecDeque::new(),
            tx_busy_until: [Cycle::ZERO; 2],
            pkt_counter: 0,
            decode_errors: 0,
            foreign: 0,
            trace: TraceHandle::off(),
        }
    }

    /// The node this port serves.
    pub fn node(&self) -> NodeId {
        self.transport.node()
    }

    /// Connects the port to a flight recorder: frame sends, receives, and
    /// rejects are logged on this node's track.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Frames that failed to decode and were discarded.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Well-formed frames addressed to a different node (stray datagrams),
    /// discarded.
    pub fn foreign(&self) -> u64 {
        self.foreign
    }

    /// Decoded packets awaiting ejection (drain/termination checks).
    pub fn pending(&self) -> usize {
        self.pending[0].len() + self.pending[1].len()
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The underlying transport, mutably. A multiplexing host (the
    /// `nifdy-node` daemon) uses this to push demultiplexed frames into,
    /// and drain sends out of, an in-memory transport it owns on the
    /// endpoint's behalf.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Removes the oldest liveness beacon decoded and not yet consumed.
    /// The supervisor layer drains these to track peer epochs and silence.
    pub fn pop_heartbeat(&mut self) -> Option<Heartbeat> {
        self.heartbeats.pop_front()
    }

    /// Sends a liveness beacon on the reply lane.
    ///
    /// Heartbeats are port-level control traffic, not protocol packets: they
    /// bypass the serialization budget (an 11-byte beacon every few hundred
    /// cycles is negligible next to a data word per cycle, and charging it
    /// would perturb the §2.4 bandwidth comparison for every chaos run).
    pub fn send_heartbeat(&mut self, dst: NodeId, epoch: u32) {
        let me = self.transport.node();
        let now = self.transport.now();
        let hb = Heartbeat {
            src: me,
            dst,
            epoch,
        };
        let mut frame = self.transport.take_buffer();
        codec::encode_heartbeat_into(&hb, &mut frame);
        trace_event!(
            self.trace,
            now,
            me,
            EventKind::FrameSend {
                dst,
                ack: true,
                bytes: frame.len() as u32,
            }
        );
        self.transport.send(dst, Lane::Reply, frame);
    }

    /// One cycle of port work: tick the transport's clock view and decode
    /// every frame it delivered, handing each consumed buffer back to the
    /// transport. Call once per cycle, before the unit's
    /// [`Nic::step`](nifdy::Nic::step).
    pub fn tick(&mut self) {
        self.transport.tick();
        let now = self.transport.now();
        let me = self.transport.node();
        for lane in Lane::ALL {
            while let Some(frame) = self.transport.recv(lane) {
                self.accept(now, me, lane, &frame);
                self.transport.recycle(frame);
            }
        }
    }

    /// Decodes one received frame: a packet for this node joins `pending`,
    /// a heartbeat joins `heartbeats`, anything else is counted and traced
    /// as a reject.
    fn accept(&mut self, now: Cycle, me: NodeId, lane: Lane, frame: &[u8]) {
        let bytes = frame.len() as u32;
        match codec::decode_frame(frame) {
            Ok(WireFrame::Packet(wp)) if wp.dst == me && wp.lane == lane => {
                self.pkt_counter += 1;
                let id = PacketId::new(((me.index() as u64) << 40) | self.pkt_counter);
                let src = match wp.src {
                    WireSource::Node(n) => n,
                    WireSource::Dialog => me,
                };
                let ack = wp.wire.is_ack();
                trace_event!(
                    self.trace,
                    now,
                    me,
                    EventKind::FrameRecv { src, ack, bytes }
                );
                // Bulk frames carry no source bits; the unit re-substitutes
                // the dialog peer in `receive_bulk`, so the placeholder is
                // only ever visible to bookkeeping.
                self.pending[lane.index()].push_back(wp.into_packet(id, me, now));
            }
            Ok(WireFrame::Heartbeat(hb)) if hb.dst == me => {
                let (src, ack) = (hb.src, true);
                trace_event!(
                    self.trace,
                    now,
                    me,
                    EventKind::FrameRecv { src, ack, bytes }
                );
                self.heartbeats.push_back(hb);
            }
            Ok(WireFrame::Packet(_) | WireFrame::Heartbeat(_)) => {
                self.foreign += 1;
                trace_event!(self.trace, now, me, EventKind::FrameReject { bytes });
            }
            Err(_) => {
                self.decode_errors += 1;
                trace_event!(self.trace, now, me, EventKind::FrameReject { bytes });
            }
        }
    }
}

impl<T: Transport> NetPort for TransportPort<T> {
    fn now(&self) -> Cycle {
        self.transport.now()
    }

    fn can_inject(&self, node: NodeId, lane: Lane) -> bool {
        debug_assert_eq!(node, self.transport.node(), "port serves one node");
        self.transport.now() >= self.tx_busy_until[lane.index()]
    }

    fn inject(&mut self, node: NodeId, packet: Packet) {
        assert_eq!(packet.src, node, "packet injected at a foreign node");
        let lane = packet.lane;
        assert!(
            self.can_inject(node, lane),
            "injection slot busy at {node} lane {lane:?}"
        );
        let now = self.transport.now();
        let mut frame = self.transport.take_buffer();
        codec::encode_into(&WirePacket::from_packet(&packet), &mut frame);
        trace_event!(
            self.trace,
            now,
            node,
            EventKind::FrameSend {
                dst: packet.dst,
                ack: packet.wire.is_ack(),
                bytes: frame.len() as u32,
            }
        );
        // One word per cycle on the wire: the lane's transmitter is busy for
        // the packet's whole serialization time.
        self.tx_busy_until[lane.index()] = now + u64::from(packet.size_words);
        self.transport.send(packet.dst, lane, frame);
    }

    fn eject(&mut self, node: NodeId, lane: Lane) -> Option<Packet> {
        debug_assert_eq!(node, self.transport.node(), "port serves one node");
        self.pending[lane.index()].pop_front()
    }

    fn peek_eject(&self, node: NodeId, lane: Lane) -> Option<&Packet> {
        debug_assert_eq!(node, self.transport.node(), "port serves one node");
        self.pending[lane.index()].front()
    }
}

#[cfg(test)]
mod tests {
    use nifdy_net::Wire;

    use super::*;
    use crate::transport::LoopbackHub;

    #[test]
    fn port_round_trips_a_scalar_packet() {
        let hub = LoopbackHub::new(2, 1);
        let mut a = TransportPort::new(hub.endpoint(NodeId::new(0)));
        let mut b = TransportPort::new(hub.endpoint(NodeId::new(1)));
        let pkt = Packet::data(PacketId::new(1), NodeId::new(0), NodeId::new(1), 6);
        assert!(a.can_inject(NodeId::new(0), Lane::Request));
        a.inject(NodeId::new(0), pkt.clone());
        assert!(
            !a.can_inject(NodeId::new(0), Lane::Request),
            "serialization budget holds the lane"
        );
        hub.tick();
        b.tick();
        let got = b.eject(NodeId::new(1), Lane::Request).expect("delivered");
        assert_eq!(got.src, pkt.src);
        assert_eq!(got.dst, pkt.dst);
        assert_eq!(got.wire, pkt.wire);
        assert_eq!(got.user, pkt.user);
    }

    #[test]
    fn garbage_frames_are_counted_not_fatal() {
        let hub = LoopbackHub::new(2, 0);
        let mut tx = hub.endpoint(NodeId::new(0));
        let mut b = TransportPort::new(hub.endpoint(NodeId::new(1)));
        tx.send(NodeId::new(1), Lane::Request, vec![0xFF; 7]);
        hub.tick();
        b.tick();
        assert_eq!(b.decode_errors(), 1);
        assert!(b.peek_eject(NodeId::new(1), Lane::Request).is_none());
    }

    #[test]
    fn misaddressed_frames_are_foreign() {
        let hub = LoopbackHub::new(3, 0);
        let mut a = TransportPort::new(hub.endpoint(NodeId::new(0)));
        let mut b = TransportPort::new(hub.endpoint(NodeId::new(1)));
        // Encode a packet for node 2, then deliver it to node 1's queue by
        // sending through the raw transport.
        let pkt = Packet::data(PacketId::new(1), NodeId::new(0), NodeId::new(2), 6);
        let frame = codec::encode(&WirePacket::from_packet(&pkt));
        a.transport.send(NodeId::new(1), Lane::Request, frame);
        hub.tick();
        b.tick();
        assert_eq!(b.foreign(), 1);
        assert!(b.peek_eject(NodeId::new(1), Lane::Request).is_none());
    }

    #[test]
    fn serialization_budget_frees_after_size_words() {
        let hub = LoopbackHub::new(2, 0);
        let mut a = TransportPort::new(hub.endpoint(NodeId::new(0)));
        let mut pkt = Packet::data(PacketId::new(1), NodeId::new(0), NodeId::new(1), 4);
        pkt.wire = Wire::PLAIN_DATA;
        a.inject(NodeId::new(0), pkt);
        for _ in 0..4 {
            assert!(!a.can_inject(NodeId::new(0), Lane::Request));
            hub.tick();
        }
        assert!(a.can_inject(NodeId::new(0), Lane::Request));
    }
}
