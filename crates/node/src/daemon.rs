//! The daemon: N endpoints behind flow-affine shards, driven by a batched
//! poll loop over a handful of carriers, with liveness kept once per peer
//! process.
//!
//! Every endpoint is built once, in [`add_endpoint`](NifdyNode::add_endpoint);
//! an endpoint restarts only with its whole daemon, as a new process at the
//! next [`NodeConfig::initial_epoch`].
//!
//! One [`poll_round`](NifdyNode::poll_round) is the daemon's unit of work:
//!
//! 1. deliver frames routed daemon-internally in the previous round;
//! 2. tick each carrier and drain it with **bounded** batch reads (at most
//!    [`NodeConfig::batch`] frames per lane per round, so one busy socket
//!    cannot starve the rest). A peer daemon's beacon is applied here, so
//!    a restart resets the hosted endpoints before any of them steps; every
//!    other frame is demultiplexed to its endpoint by the destination
//!    peeked from the frame header ([`peek_route`](nifdy_wire::peek_route)).
//!    Due beacons and silence checks follow;
//! 3. tick shards in deterministic order (shard 0 first, slots in insertion
//!    order), collecting deliveries, failures, and outbound frames;
//! 4. flush each carrier's accumulated sends with one coalesced
//!    [`send_batch`](nifdy_wire::BatchTransport::send_batch).
//!
//! Routing is static: a destination is either *hosted* (a local endpoint,
//! reached without touching a socket) or *routed* (a `(carrier, via)` pair
//! set by [`set_route`](NifdyNode::set_route), where `via` is the
//! carrier-level address of the process hosting it — the frame bytes still
//! carry the logical destination, which is what the far daemon demuxes on).
//!
//! Liveness is per daemon, not per endpoint. A *monitored peer* is a
//! `(carrier, via)` pair that routes a node some hosted endpoint watches.
//! The daemon sends it one beacon (a [`Heartbeat`] between carrier
//! addresses, stamped with [`NodeConfig::initial_epoch`]) every
//! [`heartbeat_every`](nifdy_wire::SupervisorConfig::heartbeat_every)
//! rounds, and keeps one last-heard/epoch/down record for it. When the
//! peer's epoch rises, every hosted endpoint resets every node routed
//! through it ([`WireEndpoint::reset_peer`]).

use std::collections::VecDeque;

use nifdy::{Delivered, DeliveryFailure, OutboundPacket};
use nifdy_net::Lane;
use nifdy_sim::{Cycle, NodeId};
use nifdy_trace::{trace_event, EventKind, MetricsRegistry, TraceHandle};
use nifdy_wire::codec::HEARTBEAT_FRAME_LEN;
use nifdy_wire::{
    decode_frame, encode_heartbeat_into, peek_route, BatchTransport, Heartbeat, PeerEvent,
    WireEndpoint, WireFrame,
};

use crate::config::NodeConfig;
use crate::mux::{shard_of, MuxPort};
use crate::stats::NodeStats;

/// One hosted logical node: the daemon's per-slot record.
#[derive(Debug)]
pub struct Slot {
    node: NodeId,
    ep: WireEndpoint<MuxPort>,
}

impl Slot {
    /// The hosted endpoint (counter inspection).
    pub fn endpoint(&self) -> &WireEndpoint<MuxPort> {
        &self.ep
    }
}

/// One monitored peer daemon and what its beacons told us.
struct Peer {
    carrier: usize,
    /// The peer's carrier-level address.
    via: NodeId,
    /// `None` until its first beacon: silence before that flags nothing.
    heard: Option<Heard>,
}

#[derive(Clone, Copy)]
struct Heard {
    at: Cycle,
    epoch: u32,
    down: bool,
}

/// One flow-affine partition of the endpoint table.
struct Shard {
    slots: Vec<Slot>,
}

/// Where frames for one logical node id go. The table is indexed by node
/// id and grown only by [`NifdyNode::add_endpoint`] and
/// [`NifdyNode::set_route`]; an id off the wire only ever reads it.
#[derive(Clone, Copy)]
enum Dest {
    Unknown,
    /// A local endpoint, reached without touching a socket.
    Hosted {
        shard: usize,
        slot: usize,
    },
    /// `via` is the carrier-level address of the process hosting it.
    Routed {
        carrier: usize,
        via: NodeId,
    },
}

/// Most spent frame buffers the daemon keeps between its ports.
const POOL_CAP: usize = 1024;

/// A many-endpoint NIFDY daemon: hosts logical nodes behind flow-affine
/// shards and carries their frames over [`BatchTransport`] carriers.
///
/// # Examples
///
/// Two endpoints in one daemon, exchanging a packet without any carrier:
///
/// ```
/// use nifdy::OutboundPacket;
/// use nifdy_node::{NifdyNode, NodeConfig};
/// use nifdy_sim::NodeId;
/// use nifdy_wire::LoopbackTransport;
///
/// let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(NodeConfig::default());
/// node.add_endpoint(NodeId::new(0), vec![]);
/// node.add_endpoint(NodeId::new(1), vec![]);
/// assert!(node.try_send(NodeId::new(0), OutboundPacket::new(NodeId::new(1), 6)));
/// let mut got = None;
/// for _ in 0..64 {
///     node.poll_round();
///     if let Some((dst, d)) = node.next_delivery() {
///         got = Some((dst, d.src));
///         break;
///     }
/// }
/// assert_eq!(got, Some((NodeId::new(1), NodeId::new(0))));
/// ```
pub struct NifdyNode<C: BatchTransport> {
    cfg: NodeConfig,
    shards: Vec<Shard>,
    /// Logical node index -> hosted slot or carrier route.
    dests: Vec<Dest>,
    carriers: Vec<C>,
    /// Per-carrier send accumulators, flushed once per round.
    outboxes: Vec<Vec<(NodeId, Lane, Vec<u8>)>>,
    /// Daemon-internal frames delivered at the start of the next round.
    pending_local: Vec<(NodeId, Lane, Vec<u8>)>,
    deliveries: VecDeque<(NodeId, Delivered)>,
    /// Node ids some hosted endpoint watches, indexed by id.
    watched: Vec<bool>,
    /// Monitored peer daemons, in the order they were first needed.
    peers: Vec<Peer>,
    /// When the last beacons went out (`None`: the next round sends them).
    last_beat: Option<Cycle>,
    peer_events: Vec<PeerEvent>,
    failures: Vec<DeliveryFailure>,
    now: Cycle,
    stats: NodeStats,
    metrics: MetricsRegistry,
    /// Reused endpoint-outbound drain buffer.
    scratch: Vec<(NodeId, Lane, Vec<u8>)>,
    /// Reused carrier recv-batch buffer.
    recv_buf: Vec<Vec<u8>>,
    /// Spent frame buffers in transit between ports that receive more than
    /// they send and ports that send more; at most [`POOL_CAP`].
    pool: Vec<Vec<u8>>,
    trace: TraceHandle,
}

impl<C: BatchTransport> std::fmt::Debug for NifdyNode<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NifdyNode")
            .field("endpoints", &self.num_endpoints())
            .field("shards", &self.shards.len())
            .field("carriers", &self.carriers.len())
            .field("rounds", &self.stats.rounds)
            .finish_non_exhaustive()
    }
}

impl<C: BatchTransport> NifdyNode<C> {
    /// Creates an empty daemon.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NodeConfig::validate`].
    pub fn new(cfg: NodeConfig) -> Self {
        #[expect(clippy::panic, reason = "documented panic on an invalid config")]
        if let Err(why) = cfg.validate() {
            panic!("invalid node config: {why}");
        }
        let shards = (0..cfg.shards)
            .map(|_| Shard { slots: Vec::new() })
            .collect();
        let stats = NodeStats::new(cfg.shards);
        NifdyNode {
            cfg,
            shards,
            dests: Vec::new(),
            carriers: Vec::new(),
            outboxes: Vec::new(),
            pending_local: Vec::new(),
            deliveries: VecDeque::new(),
            watched: Vec::new(),
            peers: Vec::new(),
            last_beat: None,
            peer_events: Vec::new(),
            failures: Vec::new(),
            now: Cycle::ZERO,
            stats,
            metrics: MetricsRegistry::new(),
            scratch: Vec::new(),
            recv_buf: Vec::new(),
            pool: Vec::new(),
            trace: TraceHandle::off(),
        }
    }

    /// Connects every hosted endpoint, current and later added, to a
    /// flight recorder.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        for shard in &mut self.shards {
            for slot in &mut shard.slots {
                slot.ep.attach_trace(trace.clone());
            }
        }
        self.trace = trace;
    }

    /// Hosts logical node `node`, placed in its flow-affine shard
    /// ([`shard_of`]). `watched` lists the nodes whose hosting daemons this
    /// one monitors for liveness. A peer daemon's restart resets `node`'s
    /// state toward it only if the daemon is monitored, so across all
    /// hosted endpoints the lists must cover every node that sends to one
    /// of them.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already hosted.
    pub fn add_endpoint(&mut self, node: NodeId, watched: Vec<NodeId>) {
        assert!(
            !matches!(self.dest(node), Dest::Hosted { .. }),
            "node {node} already hosted"
        );
        let s = shard_of(node, self.cfg.shards);
        let mut ep = WireEndpoint::new(node, self.cfg.protocol.clone(), MuxPort::new(node));
        ep.attach_trace(self.trace.clone());
        let slot = self.shards[s].slots.len();
        self.shards[s].slots.push(Slot { node, ep });
        *self.dest_mut(node) = Dest::Hosted { shard: s, slot };
        for peer in watched {
            if self.watched.len() <= peer.index() {
                self.watched.resize(peer.index() + 1, false);
            }
            self.watched[peer.index()] = true;
            if let Dest::Routed { carrier, via } = self.dest(peer) {
                self.monitor(carrier, via);
            }
        }
    }

    /// Attaches a carrier, returning its index for [`set_route`](Self::set_route).
    pub fn add_carrier(&mut self, carrier: C) -> usize {
        self.carriers.push(carrier);
        self.outboxes.push(Vec::new());
        self.carriers.len() - 1
    }

    /// Routes frames for logical destination `dst` out of carrier `carrier`
    /// to the carrier-level address `via` (the process hosting `dst`).
    ///
    /// # Panics
    ///
    /// Panics if `carrier` is out of range.
    pub fn set_route(&mut self, dst: NodeId, carrier: usize, via: NodeId) {
        assert!(
            carrier < self.carriers.len(),
            "carrier {carrier} not attached"
        );
        // A hosted destination stays hosted: local delivery wins.
        if !matches!(self.dest(dst), Dest::Hosted { .. }) {
            *self.dest_mut(dst) = Dest::Routed { carrier, via };
            if self.watched.get(dst.index()).copied().unwrap_or(false) {
                self.monitor(carrier, via);
            }
        }
    }

    /// Adds `(carrier, via)` to the monitored peer daemons.
    fn monitor(&mut self, carrier: usize, via: NodeId) {
        if !self
            .peers
            .iter()
            .any(|p| p.carrier == carrier && p.via == via)
        {
            self.peers.push(Peer {
                carrier,
                via,
                heard: None,
            });
        }
    }

    /// Hosted logical nodes, in id order.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        let hosted = self.dests.iter().enumerate();
        hosted
            .filter(|(_, d)| matches!(d, Dest::Hosted { .. }))
            .map(|(i, _)| NodeId::new(i))
    }

    /// Number of hosted logical nodes.
    pub fn num_endpoints(&self) -> usize {
        self.shards.iter().map(|shard| shard.slots.len()).sum()
    }

    /// The daemon's round counter (one per [`poll_round`](Self::poll_round)).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// `node`'s slot (its endpoint, for counter inspection), or `None` if
    /// `node` is not hosted here.
    pub fn supervised(&self, node: NodeId) -> Option<&Slot> {
        match self.dest(node) {
            Dest::Hosted { shard, slot } => Some(&self.shards[shard].slots[slot]),
            Dest::Unknown | Dest::Routed { .. } => None,
        }
    }

    /// Hands an outbound packet to `src`'s interface; `false` means the
    /// buffer pool is full and the caller retries later.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not hosted.
    pub fn try_send(&mut self, src: NodeId, pkt: OutboundPacket) -> bool {
        self.slot_mut(src).ep.try_send(pkt)
    }

    /// Removes the next delivered packet as `(receiving node, delivery)`,
    /// in the order the shard pass observed them.
    pub fn next_delivery(&mut self) -> Option<(NodeId, Delivered)> {
        self.deliveries.pop_front()
    }

    /// Drains typed delivery failures surfaced since the last call.
    pub fn take_failures(&mut self) -> Vec<DeliveryFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Drains the liveness transitions of monitored peer daemons since the
    /// last call.
    pub fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.peer_events)
    }

    /// Daemon counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Batch-size histograms (`node.recv_batch`, `node.send_batch`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Carrier `i`, mutably — the place to read transport-specific counters
    /// (e.g. [`UdpTransport::take_error`](nifdy_wire::UdpTransport::take_error)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn carrier_mut(&mut self, i: usize) -> &mut C {
        &mut self.carriers[i]
    }

    /// True when every hosted endpoint is idle and no frames wait in the
    /// daemon's own queues (pending local routes, outboxes, undrained
    /// deliveries). Frames inside a carrier are invisible here — ask the
    /// carrier, exactly as for [`WireEndpoint::is_idle`].
    pub fn is_idle(&self) -> bool {
        self.pending_local.is_empty()
            && self.deliveries.is_empty()
            && self.outboxes.iter().all(Vec::is_empty)
            && self
                .shards
                .iter()
                .all(|shard| shard.slots.iter().all(|slot| slot.ep.is_idle()))
    }

    /// One round of daemon work; see the module docs for the four phases.
    pub fn poll_round(&mut self) {
        // Phase 1: frames routed daemon-internally last round.
        let mut local = std::mem::take(&mut self.pending_local);
        for (dst, lane, frame) in local.drain(..) {
            self.deliver_frame(dst, lane, frame);
        }
        self.pending_local = local;

        // Phase 2: bounded batch drain of every carrier lane.
        for c in 0..self.carriers.len() {
            self.carriers[c].tick();
            for lane in Lane::ALL {
                let mut buf = std::mem::take(&mut self.recv_buf);
                let n = self.carriers[c].recv_batch(lane, self.cfg.batch, &mut buf);
                if n > 0 {
                    self.metrics.record("node.recv_batch", n as u64);
                }
                for frame in buf.drain(..) {
                    // A beacon's destination is a carrier address, which
                    // can equal a hosted id: it must not reach `peek_route`.
                    if frame.len() == HEARTBEAT_FRAME_LEN {
                        if let Ok(WireFrame::Heartbeat(hb)) = decode_frame(&frame) {
                            self.heard(c, hb);
                            if self.pool.len() < POOL_CAP {
                                self.pool.push(frame);
                            }
                            continue;
                        }
                    }
                    match peek_route(&frame) {
                        Some((dst, frame_lane)) => self.deliver_frame(dst, frame_lane, frame),
                        None => self.stats.foreign += 1,
                    }
                }
                self.recv_buf = buf;
            }
        }
        if !self.peers.is_empty() {
            self.beat();
            self.check_silence();
        }

        // Phase 3: tick shards in deterministic order.
        let mut scratch = std::mem::take(&mut self.scratch);
        for s in 0..self.shards.len() {
            for i in 0..self.shards[s].slots.len() {
                {
                    let slot = &mut self.shards[s].slots[i];
                    let (node, ep) = (slot.node, &mut slot.ep);
                    ep.step();
                    while let Some(d) = ep.poll() {
                        self.deliveries.push_back((node, d));
                        self.stats.delivered += 1;
                        self.stats.shards[s].delivered += 1;
                    }
                    for f in ep.take_failures() {
                        self.failures.push(f);
                        self.stats.shards[s].failures += 1;
                    }
                    let port = ep.transport_mut();
                    port.take_outbound_into(&mut scratch);
                    port.level(&mut self.pool, POOL_CAP, !scratch.is_empty());
                }
                for (dst, lane, frame) in scratch.drain(..) {
                    self.route_outbound(s, dst, lane, frame);
                }
            }
        }
        self.scratch = scratch;

        // Phase 4: one coalesced flush per carrier.
        for c in 0..self.carriers.len() {
            let batch = &mut self.outboxes[c];
            if !batch.is_empty() {
                self.metrics.record("node.send_batch", batch.len() as u64);
            }
            self.carriers[c].send_batch(batch);
        }

        self.now += 1;
        self.stats.rounds += 1;
    }

    /// Demultiplexes one frame to its hosted endpoint.
    fn deliver_frame(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        let Dest::Hosted { shard: s, slot } = self.dest(dst) else {
            self.stats.unroutable += 1;
            return;
        };
        self.shards[s].slots[slot]
            .ep
            .transport_mut()
            .push_inbound(lane, frame);
        self.stats.frames_in += 1;
        self.stats.shards[s].frames_in += 1;
    }

    /// Applies one beacon that arrived on carrier `c`. Only a monitored
    /// peer's beacon leaves state; one from an earlier incarnation than the
    /// last heard (delayed or duplicated) is ignored, and a higher epoch
    /// resets every hosted endpoint's state toward the nodes behind it.
    fn heard(&mut self, c: usize, hb: Heartbeat) {
        let now = self.now;
        let me = self.carriers[c].node();
        if hb.dst != me {
            self.stats.foreign += 1;
            return;
        }
        self.stats.heartbeats_in += 1;
        let (peer, epoch) = (hb.src, hb.epoch);
        let kind = EventKind::Heartbeat {
            peer,
            epoch,
            sent: false,
        };
        trace_event!(self.trace, now, me, kind);
        let Some(p) = self
            .peers
            .iter_mut()
            .find(|p| p.carrier == c && p.via == peer)
        else {
            return;
        };
        let restarted = match p.heard {
            Some(h) if epoch < h.epoch => return,
            Some(h) => epoch > h.epoch,
            None => false,
        };
        p.heard = Some(Heard {
            at: now,
            epoch,
            down: false,
        });
        if !restarted {
            return;
        }
        for (i, dest) in self.dests.iter().enumerate() {
            if matches!(*dest, Dest::Routed { carrier, via } if carrier == c && via == peer) {
                let node = NodeId::new(i);
                for slot in self.shards.iter_mut().flat_map(|shard| &mut shard.slots) {
                    slot.ep.reset_peer(node);
                    let kind = EventKind::PeerRestart { peer: node, epoch };
                    trace_event!(self.trace, now, slot.node, kind);
                }
            }
        }
        self.peer_events.push(PeerEvent::Restarted { peer, epoch });
    }

    /// Sends each monitored peer a beacon when the period lapses, ahead of
    /// this round's data on its carrier.
    fn beat(&mut self) {
        let every = self.cfg.supervisor.heartbeat_every;
        if self
            .last_beat
            .is_some_and(|at| self.now.saturating_since(at) < every)
        {
            return;
        }
        self.last_beat = Some(self.now);
        let epoch = self.cfg.initial_epoch;
        for p in &self.peers {
            let (me, peer) = (self.carriers[p.carrier].node(), p.via);
            let mut frame = self.pool.pop().unwrap_or_default();
            let hb = Heartbeat {
                src: me,
                dst: peer,
                epoch,
            };
            encode_heartbeat_into(&hb, &mut frame);
            let kind = EventKind::Heartbeat {
                peer,
                epoch,
                sent: true,
            };
            trace_event!(self.trace, self.now, me, kind);
            self.outboxes[p.carrier].push((peer, Lane::Reply, frame));
            self.stats.heartbeats_out += 1;
        }
    }

    /// Flags monitored peers whose silence reached the timeout, once each.
    fn check_silence(&mut self) {
        let timeout = self.cfg.supervisor.peer_timeout;
        for p in &mut self.peers {
            let Some(h) = p.heard.as_mut() else {
                continue;
            };
            let silent_for = self.now.saturating_since(h.at);
            if h.down || silent_for < timeout {
                continue;
            }
            h.down = true;
            let (me, peer) = (self.carriers[p.carrier].node(), p.via);
            trace_event!(
                self.trace,
                self.now,
                me,
                EventKind::PeerDown { peer, silent_for }
            );
            self.peer_events.push(PeerEvent::Down { peer, silent_for });
        }
    }

    /// Routes one endpoint-emitted frame: hosted destinations loop back
    /// daemon-internally, routed ones join their carrier's outbox.
    fn route_outbound(&mut self, from_shard: usize, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        match self.dest(dst) {
            Dest::Hosted { .. } => {
                self.pending_local.push((dst, lane, frame));
                self.stats.local_frames += 1;
            }
            Dest::Routed { carrier, via } => {
                self.outboxes[carrier].push((via, lane, frame));
                self.stats.frames_out += 1;
                self.stats.shards[from_shard].frames_out += 1;
            }
            Dest::Unknown => self.stats.unroutable += 1,
        }
    }

    /// Total over any id, including one peeked from wire bytes.
    fn dest(&self, node: NodeId) -> Dest {
        self.dests
            .get(node.index())
            .copied()
            .unwrap_or(Dest::Unknown)
    }

    /// The table entry for a configured id, growing the table to hold it.
    fn dest_mut(&mut self, node: NodeId) -> &mut Dest {
        if self.dests.len() <= node.index() {
            self.dests.resize(node.index() + 1, Dest::Unknown);
        }
        &mut self.dests[node.index()]
    }

    fn slot_mut(&mut self, node: NodeId) -> &mut Slot {
        #[expect(clippy::panic, reason = "hosting is `try_send`'s API precondition")]
        let Dest::Hosted { shard, slot } = self.dest(node) else {
            panic!("node {node} not hosted")
        };
        &mut self.shards[shard].slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use nifdy_net::UserData;
    use nifdy_wire::LoopbackTransport;

    use super::*;

    fn daemon(nodes: usize) -> NifdyNode<LoopbackTransport> {
        let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(NodeConfig::default());
        for i in 0..nodes {
            node.add_endpoint(NodeId::new(i), vec![]);
        }
        node
    }

    #[test]
    fn local_scalar_delivery_round_trips() {
        let mut node = daemon(2);
        let user = UserData {
            msg_id: 5,
            pkt_index: 0,
            msg_packets: 1,
            user_words: 4,
        };
        assert!(node.try_send(
            NodeId::new(0),
            OutboundPacket::new(NodeId::new(1), 6).with_user(user)
        ));
        let mut got = None;
        for _ in 0..64 {
            node.poll_round();
            if let Some((dst, d)) = node.next_delivery() {
                got = Some((dst, d));
                break;
            }
        }
        let (dst, d) = got.expect("delivered");
        assert_eq!(dst, NodeId::new(1));
        assert_eq!(d.src, NodeId::new(0));
        assert_eq!(d.user, user);
        assert!(node.stats().local_frames > 0, "routing stayed internal");
        assert_eq!(node.stats().frames_out, 0, "no carrier involved");
    }

    #[test]
    fn frames_demux_into_the_destination_shard_only() {
        let mut node = daemon(8);
        for src in 0..8usize {
            let dst = (src + 1) % 8;
            assert!(node.try_send(NodeId::new(src), OutboundPacket::new(NodeId::new(dst), 6)));
        }
        let mut delivered = 0;
        for _ in 0..256 {
            node.poll_round();
            while node.next_delivery().is_some() {
                delivered += 1;
            }
            if delivered == 8 && node.is_idle() {
                break;
            }
        }
        assert_eq!(delivered, 8);
        // Every frame landed in the shard that owns its destination: the
        // per-shard delivered counts must match the shard placement of the
        // eight destinations.
        let mut want = vec![0u64; node.cfg.shards];
        for dst in 0..8usize {
            want[shard_of(NodeId::new(dst), node.cfg.shards)] += 1;
        }
        let got: Vec<u64> = node.stats().shards.iter().map(|s| s.delivered).collect();
        assert_eq!(got, want, "delivery shard != flow-affine owner");
    }

    #[test]
    fn a_burst_then_idleness_leaves_every_buffer_list_within_its_cap() {
        use nifdy_net::Packet;
        use nifdy_sim::PacketId;
        use nifdy_wire::{encode, WirePacket};

        let mut node = daemon(4);
        let pkt = Packet::data(PacketId::new(1), NodeId::new(0), NodeId::new(1), 6);
        let frame = encode(&WirePacket::from_packet(&pkt));
        for _ in 0..10_000 {
            node.deliver_frame(NodeId::new(1), pkt.lane, frame.clone());
        }
        for _ in 0..256 {
            node.poll_round();
            while node.next_delivery().is_some() {}
        }
        for n in node.endpoints().collect::<Vec<_>>() {
            let port = node
                .supervised(n)
                .expect("hosted")
                .endpoint()
                .port()
                .transport();
            assert_eq!(port.inbound_len(), 0, "the burst was consumed");
            assert!(port.free_len() <= crate::mux::FREE_CAP, "{n} free list");
        }
        assert!(node.pool.len() <= POOL_CAP);
        assert!(!node.pool.is_empty(), "the burst's buffers were kept");
    }

    #[test]
    fn unroutable_frames_are_counted() {
        let mut node = daemon(1);
        // Node 0 sends to node 7, which is neither hosted nor routed.
        assert!(node.try_send(NodeId::new(0), OutboundPacket::new(NodeId::new(7), 6)));
        for _ in 0..8 {
            node.poll_round();
        }
        assert!(node.stats().unroutable > 0);
        assert!(node.supervised(NodeId::new(7)).is_none(), "not hosted");
    }
}
