//! Real-datagram transport: one UDP socket per node.
//!
//! Each NIFDY endpoint binds its own socket; frames travel as genuine
//! datagrams, so the operating system's loss, duplication, and reordering
//! behavior exercises the §6 retransmission and duplicate-bit machinery for
//! real. Both lanes share the node's one socket — the lane bit in the frame
//! header (byte 0) classifies received datagrams, mirroring how the paper's
//! two logical networks can share a physical link.

#![expect(
    clippy::disallowed_types,
    reason = "the peer table is a lookup-only HashMap (never iterated) on the real-socket path, \
              which is nondeterministic by nature; the unit tests bound real socket waits \
              with wall-clock deadlines"
)]

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

use nifdy_net::Lane;
use nifdy_sim::{Cycle, NodeId};

use crate::transport::{BatchTransport, Transport};

/// Largest datagram the receive path accepts. Comfortably above the largest
/// encodable frame for the packet sizes any experiment uses.
const MAX_DATAGRAM: usize = 64 * 1024;

/// Spent frame buffers kept for reuse; beyond this they are freed.
const POOL_CAP: usize = 256;

/// Linux `EMSGSIZE`: the datagram exceeds what the socket can carry. The
/// std `ErrorKind` has no stable variant for it, so classification falls
/// back to the raw errno.
const EMSGSIZE: i32 = 90;

/// A socket failure the transport could not classify as ordinary network
/// loss, surfaced via [`UdpTransport::take_error`] instead of being
/// silently swallowed.
///
/// Expected conditions never produce one: `WouldBlock` means the socket is
/// quiescent, and refused / oversize datagrams increment their typed
/// counters ([`UdpTransport::refused`], [`UdpTransport::oversize`]) because
/// the retransmission machinery handles them like loss. Anything else —
/// permission errors, a closed socket, an unreachable network — is a
/// configuration or environment problem the caller must see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// The socket operation that failed: `"send"` or `"recv"`.
    pub op: &'static str,
    /// The std io error classification.
    pub kind: ErrorKind,
    /// The OS error text.
    pub detail: String,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "udp {} failed ({:?}): {}",
            self.op, self.kind, self.detail
        )
    }
}

/// A [`Transport`] backed by one UDP socket.
///
/// Time is a free-running local cycle counter advanced by
/// [`Transport::tick`] — each node is its own clock domain, as on real
/// hardware; protocol timeouts are therefore in units of the driving loop's
/// iteration period.
///
/// # Examples
///
/// ```no_run
/// use nifdy_sim::NodeId;
/// use nifdy_wire::UdpTransport;
///
/// let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").unwrap();
/// let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").unwrap();
/// a.add_peer(NodeId::new(1), b.local_addr().unwrap());
/// b.add_peer(NodeId::new(0), a.local_addr().unwrap());
/// ```
#[derive(Debug)]
pub struct UdpTransport {
    node: NodeId,
    socket: UdpSocket,
    peers: HashMap<usize, SocketAddr>,
    now: Cycle,
    queues: [VecDeque<Vec<u8>>; 2],
    /// The one buffer `recv_from` writes into, allocated at bind and never
    /// re-zeroed: only the `len` bytes the kernel just wrote are ever read.
    rx: Box<[u8]>,
    /// Buffers of frames already put on the wire (or handed back through
    /// [`Transport::recycle`]), reused for received frames; at most
    /// [`POOL_CAP`].
    pool: Vec<Vec<u8>>,
    send_errors: u64,
    unknown_peer: u64,
    refused: u64,
    oversize: u64,
    runt: u64,
    /// Datagrams [`pump`](Self::pump) reads per tick, bounding how long one
    /// busy socket can monopolize a poll round, and the most frames either
    /// lane queue holds before pumping pauses. `usize::MAX` = unbounded.
    pump_limit: usize,
    last_error: Option<TransportError>,
    transport_errors: u64,
    dropped_errors: u64,
}

impl UdpTransport {
    /// Binds a nonblocking socket for `node` at `addr` (use port 0 for an
    /// ephemeral port, then exchange [`UdpTransport::local_addr`]s).
    pub fn bind<A: ToSocketAddrs>(node: NodeId, addr: A) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            node,
            socket,
            peers: HashMap::new(),
            now: Cycle::ZERO,
            queues: [VecDeque::new(), VecDeque::new()],
            rx: vec![0u8; MAX_DATAGRAM].into_boxed_slice(),
            pool: Vec::new(),
            send_errors: 0,
            unknown_peer: 0,
            refused: 0,
            oversize: 0,
            runt: 0,
            pump_limit: usize::MAX,
            last_error: None,
            transport_errors: 0,
            dropped_errors: 0,
        })
    }

    /// Caps how many datagrams one [`Transport::tick`] reads off the
    /// socket, and how many received frames either lane may queue unread
    /// before ticks stop reading. A daemon multiplexing many endpoints over
    /// few sockets sets this so a flooded socket can neither starve the rest
    /// of its poll round nor grow this queue without bound; undrained
    /// datagrams stay in the OS buffer (and overflow there, as ordinary
    /// loss the §6.2 retransmission recovers).
    pub fn with_pump_limit(mut self, limit: usize) -> Self {
        self.pump_limit = limit.max(1);
        self
    }

    /// The socket's bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Registers the socket address of a peer node.
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        self.peers.insert(node.index(), addr);
    }

    /// Datagrams that failed to send (treated as network loss: the §6.2
    /// retransmission machinery recovers, exactly as for in-network drops).
    pub fn send_errors(&self) -> u64 {
        self.send_errors
    }

    /// Frames addressed to nodes with no registered socket address.
    pub fn unknown_peer(&self) -> u64 {
        self.unknown_peer
    }

    /// `ECONNREFUSED` events on either direction (on Linux, an ICMP
    /// port-unreachable from a dead peer surfaces this way). Treated as
    /// loss — retransmission recovers once the peer returns.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Datagrams rejected for exceeding the socket's maximum size.
    pub fn oversize(&self) -> u64 {
        self.oversize
    }

    /// Zero-length datagrams received and discarded (no NIFDY frame is
    /// empty; each still counts toward the per-tick pump limit).
    pub fn runt(&self) -> u64 {
        self.runt
    }

    /// Takes the *first* unclassified socket failure observed since the
    /// last call, if any. Expected conditions (quiescence, refused,
    /// oversize) never appear here. Later failures arriving while one is
    /// already stashed are counted in [`dropped_errors`](Self::dropped_errors)
    /// rather than overwriting the original — the first error is almost
    /// always the root cause, and silently replacing it would hide it.
    pub fn take_error(&mut self) -> Option<TransportError> {
        self.last_error.take()
    }

    /// Total unclassified socket failures observed, whether or not they
    /// were ever drained via [`take_error`](Self::take_error).
    pub fn transport_errors(&self) -> u64 {
        self.transport_errors
    }

    /// Unclassified failures discarded because an earlier one was still
    /// waiting in the [`take_error`](Self::take_error) slot.
    pub fn dropped_errors(&self) -> u64 {
        self.dropped_errors
    }

    fn stash_error(&mut self, op: &'static str, e: &std::io::Error) {
        self.transport_errors += 1;
        if self.last_error.is_some() {
            // Keep the first error: it is the root cause, and the caller
            // has not read it yet. Count the loss instead of hiding it.
            self.dropped_errors += 1;
            return;
        }
        self.last_error = Some(TransportError {
            op,
            kind: e.kind(),
            detail: e.to_string(),
        });
    }

    /// Fires one datagram at a resolved address, classifying any failure
    /// (refused and oversize are network weather; the rest surface).
    /// The spent buffer joins the pool.
    fn send_to_addr(&mut self, addr: SocketAddr, frame: Vec<u8>) {
        match self.socket.send_to(&frame, addr) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                self.refused += 1;
            }
            Err(e) if e.raw_os_error() == Some(EMSGSIZE) => {
                self.oversize += 1;
            }
            Err(e) => {
                self.send_errors += 1;
                self.stash_error("send", &e);
            }
        }
        self.recycle(frame);
    }

    fn pump(&mut self) {
        let mut read = 0usize;
        while read < self.pump_limit && self.queues.iter().all(|q| q.len() < self.pump_limit) {
            match self.socket.recv_from(&mut self.rx) {
                Ok((len, _from)) => {
                    read += 1;
                    if len == 0 {
                        self.runt += 1;
                        continue;
                    }
                    // Classify by the lane bit; the codec re-validates the
                    // whole frame later, so a garbage byte merely picks a
                    // queue for a frame that will then fail to decode.
                    let lane = usize::from(self.rx[0] & 0b10 != 0);
                    let mut frame = self.take_buffer();
                    frame.clear();
                    frame.extend_from_slice(&self.rx[..len]);
                    self.queues[lane].push_back(frame);
                }
                // Quiescence: nothing more to read this tick.
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // A dead peer's ICMP port-unreachable bounces back through
                // recv on Linux; count it and keep draining — real
                // datagrams may sit behind it in the error queue.
                Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                    self.refused += 1;
                }
                // Anything else is not network weather: surface it.
                Err(e) => {
                    self.stash_error("recv", &e);
                    break;
                }
            }
        }
    }
}

impl Transport for UdpTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn tick(&mut self) {
        self.now += 1;
        self.pump();
    }

    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        // The lane is already encoded in the frame's flag byte; UDP needs
        // only the peer address.
        let _ = lane;
        let Some(&addr) = self.peers.get(&dst.index()) else {
            self.unknown_peer += 1;
            return;
        };
        self.send_to_addr(addr, frame);
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        self.queues[lane.index()].pop_front()
    }

    fn take_buffer(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    fn recycle(&mut self, frame: Vec<u8>) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(frame);
        }
    }
}

impl BatchTransport for UdpTransport {
    /// Coalesced flush: consecutive frames to the same destination reuse
    /// one peer-address lookup (a daemon's per-carrier outbox groups
    /// naturally by destination process).
    fn send_batch(&mut self, frames: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        let mut cached: Option<(usize, SocketAddr)> = None;
        for (dst, _lane, frame) in frames.drain(..) {
            let idx = dst.index();
            let addr = match cached {
                Some((i, a)) if i == idx => a,
                _ => match self.peers.get(&idx) {
                    Some(&a) => {
                        cached = Some((idx, a));
                        a
                    }
                    None => {
                        self.unknown_peer += 1;
                        continue;
                    }
                },
            };
            self.send_to_addr(addr, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datagrams_flow_between_two_sockets() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind b");
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        b.add_peer(NodeId::new(0), a.local_addr().expect("addr a"));

        a.send(NodeId::new(1), Lane::Request, vec![0b00, 9, 9]);
        a.send(NodeId::new(1), Lane::Reply, vec![0b11, 7, 7]);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            b.tick();
            let req = b.recv(Lane::Request);
            let rep = b.recv(Lane::Reply);
            if let (Some(req), Some(rep)) = (&req, &rep) {
                assert_eq!(req[1], 9);
                assert_eq!(rep[1], 7);
                break;
            }
            // Not yet arrived: push anything partial back and retry.
            if let Some(r) = req {
                b.queues[Lane::Request.index()].push_front(r);
            }
            if let Some(r) = rep {
                b.queues[Lane::Reply.index()].push_front(r);
            }
            assert!(
                std::time::Instant::now() < deadline,
                "datagrams never arrived"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn first_error_wins_and_later_ones_are_counted() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind");
        let first = std::io::Error::new(ErrorKind::PermissionDenied, "first failure");
        let second = std::io::Error::new(ErrorKind::NotConnected, "second failure");
        a.stash_error("send", &first);
        a.stash_error("recv", &second);
        assert_eq!(a.transport_errors(), 2);
        assert_eq!(a.dropped_errors(), 1, "the second error was shed");
        let err = a.take_error().expect("first error preserved");
        assert_eq!(err.kind, ErrorKind::PermissionDenied, "first error wins");
        assert_eq!(err.op, "send");
        assert_eq!(a.take_error(), None, "slot drained");
        // With the slot empty, the next failure is stashed again.
        a.stash_error(
            "recv",
            &std::io::Error::new(ErrorKind::NotConnected, "third"),
        );
        assert_eq!(a.take_error().expect("restashed").op, "recv");
        assert_eq!(a.dropped_errors(), 1, "no further drops");
    }

    #[test]
    fn pump_limit_bounds_one_tick_and_preserves_order() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0")
            .expect("bind b")
            .with_pump_limit(2);
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        for i in 0..6u8 {
            a.send(NodeId::new(1), Lane::Request, vec![0b00, i, i]);
        }
        // Datagram delivery is asynchronous: tick until all six arrive,
        // checking that no single tick ever exceeded the bound.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 6 {
            let before = b.queues[0].len();
            b.tick();
            assert!(b.queues[0].len() - before <= 2, "pump respects the bound");
            while let Some(f) = b.recv(Lane::Request) {
                got.push(f[1]);
            }
            assert!(std::time::Instant::now() < deadline, "datagrams lost");
            std::thread::yield_now();
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "bounded pump keeps order");
    }

    /// Ticks `b` until a frame arrives on the request lane.
    fn recv_request(b: &mut UdpTransport) -> Vec<u8> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            b.tick();
            if let Some(frame) = b.recv(Lane::Request) {
                return frame;
            }
            assert!(std::time::Instant::now() < deadline, "datagram lost");
            std::thread::yield_now();
        }
    }

    #[test]
    fn empty_datagrams_count_toward_the_pump_limit() {
        let limit = 4usize;
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0")
            .expect("bind b")
            .with_pump_limit(limit);
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        let total = limit as u64 + 8;
        for _ in 0..total {
            raw.send_to(&[], b.local_addr().expect("addr b"))
                .expect("send empty");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while b.runt() < total {
            let before = b.runt();
            b.tick();
            assert!(
                b.runt() - before <= limit as u64,
                "one tick read past the limit"
            );
            assert!(std::time::Instant::now() < deadline, "datagrams lost");
            std::thread::yield_now();
        }
        assert!(b.recv(Lane::Request).is_none() && b.recv(Lane::Reply).is_none());
    }

    #[test]
    fn an_undrained_lane_queue_stops_growing_at_the_pump_limit() {
        let limit = 8usize;
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0")
            .expect("bind b")
            .with_pump_limit(limit);
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        // Sustained overload of one lane, never drained: the excess stays
        // in (and overflows) the kernel's buffer, not this process's heap.
        for i in 0..1_000u32 {
            for _ in 0..2 {
                a.send(NodeId::new(1), Lane::Request, vec![0b00, i as u8, 7]);
            }
            b.tick();
            assert!(b.queues[0].len() <= limit, "queue grew past the bound");
        }
        assert_eq!(b.queues[0].len(), limit, "the flood did fill the queue");
        assert_eq!(a.send_errors(), 0);
    }

    #[test]
    fn reused_buffers_never_leak_stale_bytes() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind b");
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        // A long datagram, a shorter one, then an ack-sized one, each
        // received into the buffer the previous frame gave back.
        let long: Vec<u8> = (0..200u8).collect();
        for (i, sent) in [long, vec![0xE1; 50], vec![0x11; 10]]
            .into_iter()
            .enumerate()
        {
            a.send(NodeId::new(1), Lane::Request, sent.clone());
            let got = recv_request(&mut b);
            assert_eq!(got, sent, "frame differs from the bytes sent");
            assert!(
                i == 0 || got.capacity() >= 200,
                "the long frame's buffer was reused"
            );
            b.recycle(got);
        }
        assert_eq!(b.pool.len(), 1, "one buffer served all three frames");
    }

    #[test]
    fn send_batch_coalesces_and_counts_unknown_peers() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind b");
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        let mut batch = vec![
            (NodeId::new(1), Lane::Request, vec![0b00, 1, 1]),
            (NodeId::new(1), Lane::Request, vec![0b00, 2, 2]),
            (NodeId::new(9), Lane::Request, vec![0b00, 3, 3]),
            (NodeId::new(1), Lane::Reply, vec![0b10, 4, 4]),
        ];
        a.send_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(a.unknown_peer(), 1, "unroutable frame counted");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut req = Vec::new();
        let mut rep = Vec::new();
        while req.len() < 2 || rep.is_empty() {
            b.tick();
            while let Some(f) = b.recv(Lane::Request) {
                req.push(f[1]);
            }
            while let Some(f) = b.recv(Lane::Reply) {
                rep.push(f[1]);
            }
            assert!(std::time::Instant::now() < deadline, "datagrams lost");
            std::thread::yield_now();
        }
        assert_eq!(req, vec![1, 2]);
        assert_eq!(rep, vec![4]);
    }

    #[test]
    fn unknown_destination_counts_instead_of_panicking() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind");
        a.send(NodeId::new(9), Lane::Request, vec![0]);
        assert_eq!(a.unknown_peer(), 1);
    }

    #[test]
    fn oversize_datagrams_hit_the_typed_counter_not_the_error_slot() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind b");
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        // Far beyond the 65,507-byte UDP/IPv4 payload ceiling.
        a.send(NodeId::new(1), Lane::Request, vec![0u8; 70_000]);
        assert_eq!(a.oversize(), 1, "EMSGSIZE classifies as oversize");
        assert_eq!(a.send_errors(), 0);
        assert_eq!(a.take_error(), None, "classified errors are not surfaced");
    }

    #[test]
    fn refused_sends_count_as_weather_not_errors() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        // Bind-then-drop guarantees the port is dead but was recently ours.
        let dead = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind dead");
        let addr = dead.local_addr().expect("addr");
        drop(dead);
        a.add_peer(NodeId::new(1), addr);
        // A connected-refused error may only surface on a *later* call once
        // the ICMP bounce lands; hammer a few sends with pumps between.
        for _ in 0..20 {
            a.send(NodeId::new(1), Lane::Request, vec![1, 2, 3]);
            a.tick();
            std::thread::yield_now();
        }
        // Whether the ICMP error materialized is OS-dependent; the contract
        // under test is that nothing landed in the unclassified slot.
        assert_eq!(
            a.take_error(),
            None,
            "refused must not surface as TransportError"
        );
        assert_eq!(a.send_errors(), 0);
    }
}
