//! A complete wire node: a [`NifdyUnit`] driving a [`TransportPort`].
//!
//! [`WireEndpoint`] is the "one NIFDY chip plus its cable" bundle — the unit
//! implements the paper's protocol unchanged (the whole point of the
//! sim/wire split), and the port carries its packets as encoded frames over
//! whatever [`Transport`] the endpoint was built on.

use nifdy::{Delivered, DeliveryFailure, Nic, NicStats, NifdyConfig, NifdyUnit, OutboundPacket};
use nifdy_sim::{Cycle, NodeId, Wakeup};
use nifdy_trace::TraceHandle;

use crate::port::TransportPort;
use crate::transport::Transport;

/// One node of a wire-backed NIFDY network.
///
/// # Examples
///
/// Two endpoints on a zero-latency loopback hub:
///
/// ```
/// use nifdy::{NifdyConfig, OutboundPacket};
/// use nifdy_sim::NodeId;
/// use nifdy_wire::{LoopbackHub, WireEndpoint};
///
/// let hub = LoopbackHub::new(2, 1);
/// let mut a = WireEndpoint::new(NodeId::new(0), NifdyConfig::mesh(), hub.endpoint(NodeId::new(0)));
/// let mut b = WireEndpoint::new(NodeId::new(1), NifdyConfig::mesh(), hub.endpoint(NodeId::new(1)));
/// assert!(a.try_send(OutboundPacket::new(NodeId::new(1), 6)));
/// let mut got = None;
/// for _ in 0..64 {
///     a.step();
///     b.step();
///     hub.tick();
///     if let Some(d) = b.poll() {
///         got = Some(d);
///         break;
///     }
/// }
/// assert_eq!(got.expect("delivered").src, NodeId::new(0));
/// ```
#[derive(Debug)]
pub struct WireEndpoint<T: Transport> {
    unit: NifdyUnit,
    port: TransportPort<T>,
}

impl<T: Transport> WireEndpoint<T> {
    /// Builds the endpoint for `node` from a protocol config and a transport
    /// attachment.
    ///
    /// # Panics
    ///
    /// Panics if `transport` serves a different node than `node`, or if the
    /// config is invalid (see [`NifdyUnit::new`]).
    pub fn new(node: NodeId, cfg: NifdyConfig, transport: T) -> Self {
        assert_eq!(node, transport.node(), "transport serves a different node");
        WireEndpoint {
            unit: NifdyUnit::new(node, cfg),
            port: TransportPort::new(transport),
        }
    }

    /// The node this endpoint serves.
    pub fn node(&self) -> NodeId {
        self.port.node()
    }

    /// The endpoint's current cycle (the transport's clock).
    pub fn now(&self) -> Cycle {
        use nifdy_net::NetPort;
        self.port.now()
    }

    /// Connects both the protocol unit and the frame port to a flight
    /// recorder.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.unit.attach_trace(trace.clone());
        self.port.attach_trace(trace);
    }

    /// One cycle: pump the transport, decode arrivals, then run the
    /// protocol step against the port.
    pub fn step(&mut self) {
        self.port.tick();
        self.unit.step(&mut self.port);
    }

    /// Hands an outbound packet to the interface; `false` means the buffer
    /// pool is full and the caller retries later.
    pub fn try_send(&mut self, pkt: OutboundPacket) -> bool {
        let now = self.now();
        self.unit.try_send(pkt, now)
    }

    /// Removes the next delivered packet, in the order NIFDY guarantees
    /// (sender order per source).
    pub fn poll(&mut self) -> Option<Delivered> {
        let now = self.now();
        self.unit.poll(now)
    }

    /// True when the protocol unit holds no work and no decoded frames
    /// await ejection. Frames still inside the transport are *not* counted —
    /// ask the transport (e.g. [`LoopbackHub::in_flight`]) for those.
    ///
    /// [`LoopbackHub::in_flight`]: crate::LoopbackHub::in_flight
    pub fn is_idle(&self) -> bool {
        self.unit.is_idle() && self.port.pending() == 0
    }

    /// When this endpoint next needs a [`step`](Self::step), under the
    /// [`Wakeup`] contract: the protocol unit's own wakeup (retransmission
    /// timers, ack delays), collapsed to `Now` while decoded frames await
    /// ejection. Frames still inside the transport are invisible here — a
    /// skip-ahead supervisor must also consult the transport's clock.
    pub fn next_event(&self) -> Wakeup {
        if self.port.pending() > 0 {
            return Wakeup::Now;
        }
        self.unit.next_event(self.now())
    }

    /// Interface counters.
    pub fn stats(&self) -> &NicStats {
        self.unit.stats()
    }

    /// Drains delivery failures surfaced since the last call.
    pub fn take_failures(&mut self) -> Vec<DeliveryFailure> {
        self.unit.take_failures()
    }

    /// The protocol unit (telemetry, config inspection).
    pub fn unit(&self) -> &NifdyUnit {
        &self.unit
    }

    /// The frame port (decode/foreign counters).
    pub fn port(&self) -> &TransportPort<T> {
        &self.port
    }

    /// The underlying transport, mutably (multiplexing hosts feed and
    /// drain it; UDP callers drain [`take_error`](crate::UdpTransport::take_error)).
    pub fn transport_mut(&mut self) -> &mut T {
        self.port.transport_mut()
    }

    /// Mutable unit access for the supervision layer (peer resets).
    pub(crate) fn unit_mut(&mut self) -> &mut NifdyUnit {
        &mut self.unit
    }

    /// Mutable port access for the supervision layer (heartbeats).
    pub(crate) fn port_mut(&mut self) -> &mut TransportPort<T> {
        &mut self.port
    }
}

#[cfg(test)]
mod tests {
    use nifdy_net::UserData;

    use super::*;
    use crate::transport::LoopbackHub;

    fn drive<T: Transport>(eps: &mut [WireEndpoint<T>], hub: &LoopbackHub, cycles: u64) {
        for _ in 0..cycles {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
        }
    }

    #[test]
    fn scalar_message_round_trips_with_ack() {
        let hub = LoopbackHub::new(2, 2);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let mut eps = [
            WireEndpoint::new(n0, NifdyConfig::mesh(), hub.endpoint(n0)),
            WireEndpoint::new(n1, NifdyConfig::mesh(), hub.endpoint(n1)),
        ];
        let user = UserData {
            msg_id: 7,
            pkt_index: 0,
            msg_packets: 1,
            user_words: 4,
        };
        assert!(eps[0].try_send(OutboundPacket::new(n1, 6).with_user(user)));
        let mut got = None;
        for _ in 0..128 {
            drive(&mut eps, &hub, 1);
            if let Some(d) = eps[1].poll() {
                got = Some(d);
            }
            if got.is_some() && eps[0].is_idle() {
                break;
            }
        }
        let d = got.expect("delivered");
        assert_eq!(d.src, n0);
        assert_eq!(d.user, user);
        assert!(eps[0].is_idle(), "ack returned and OPT cleared");
        assert_eq!(eps[0].stats().acks_received.get(), 1);
    }

    #[test]
    fn bulk_message_streams_in_order() {
        let hub = LoopbackHub::new(2, 1);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let mut eps = [
            WireEndpoint::new(n0, NifdyConfig::mesh(), hub.endpoint(n0)),
            WireEndpoint::new(n1, NifdyConfig::mesh(), hub.endpoint(n1)),
        ];
        let total = 12u32;
        let mut sent = 0u32;
        let mut seen = Vec::new();
        for _ in 0..4096 {
            if sent < total {
                let user = UserData {
                    msg_id: 1,
                    pkt_index: sent,
                    msg_packets: total,
                    user_words: 4,
                };
                if eps[0].try_send(OutboundPacket::new(n1, 6).with_bulk(true).with_user(user)) {
                    sent += 1;
                }
            }
            drive(&mut eps, &hub, 1);
            while let Some(d) = eps[1].poll() {
                seen.push(d.user.pkt_index);
                assert_eq!(d.src, n0, "dialog re-substitutes the true source");
            }
            if seen.len() == total as usize && eps[0].is_idle() && eps[1].is_idle() {
                break;
            }
        }
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert!(eps[0].stats().sent_bulk.get() > 0, "dialog actually opened");
    }

    #[test]
    fn a_packet_to_a_node_off_the_hub_surfaces_a_typed_failure() {
        let hub = LoopbackHub::new(2, 1);
        let n0 = NodeId::new(0);
        let missing = NodeId::new(7);
        let cfg = NifdyConfig::mesh()
            .with_retx_timeout(10)
            .with_retx_budget(2);
        let mut eps = [WireEndpoint::new(n0, cfg, hub.endpoint(n0))];
        assert!(eps[0].try_send(OutboundPacket::new(missing, 6)));
        drive(&mut eps, &hub, 200);
        let failures = eps[0].take_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!((failures[0].src, failures[0].dst), (n0, missing));
        assert_eq!(failures[0].kind, nifdy::FailureKind::Scalar);
        assert_eq!(hub.unknown_peer(), 3, "first send plus two retries");
        assert_eq!(hub.in_flight(), 0);
        assert!(eps[0].is_idle());
    }
}
