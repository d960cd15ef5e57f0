//! Real-datagram transport: one receive socket per node, plus one connected
//! send socket per peer.
//!
//! Each NIFDY endpoint binds its own socket; frames travel as genuine
//! datagrams, so the operating system's loss, duplication, and reordering
//! behavior exercises the §6 retransmission and duplicate-bit machinery for
//! real. Both lanes share the node's one receive socket — the lane bit in
//! the frame header (byte 0) classifies received datagrams, mirroring how
//! the paper's two logical networks can share a physical link.
//!
//! Sending goes through a separate socket per peer, connected to that
//! peer's receive address. A connected socket spares the kernel the
//! per-datagram route lookup an addressed `send_to` pays, and a socket that
//! only ever carries one peer's frames lets one `sendmmsg` carry all of a
//! batch's frames for that peer. Frames to different peers leave on
//! different sockets, so the carrier adds no reordering of its own. On
//! Linux both directions are batched — `sendmmsg` per peer per batch, a
//! `recvmmsg` ring per tick (the `sys` module, the workspace's only
//! `unsafe`); elsewhere each datagram is one `send` or `recv`.

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

#[cfg(any(not(target_os = "linux"), test))]
mod portable;
#[cfg(target_os = "linux")]
mod sys;

#[cfg(not(target_os = "linux"))]
use portable::{RecvRing, SendBatch};
#[cfg(target_os = "linux")]
use sys::{RecvRing, SendBatch};

/// Largest datagram the receive path accepts. Comfortably above the largest
/// encodable frame for the packet sizes any experiment uses, and above the
/// largest UDP payload, so no datagram is ever truncated.
const MAX_DATAGRAM: usize = 64 * 1024;

/// Datagrams one batched receive can return.
const RING_SLOTS: usize = 32;

/// Bytes of each ring slot kept beside the other slots' first bytes: every
/// frame of up to 511 words fits, and longer ones spill into the slot's own
/// tail, so a tick of short frames touches a few pages, not 32 × 64 KiB.
const RING_HEAD: usize = 2048;

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
    /// The socket operation that failed: `"send"`, `"recv"`, or
    /// `"connect"` (creating a peer's send socket in
    /// [`UdpTransport::add_peer`]).
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

/// The transport's loss and failure accounting, apart from the sockets so
/// a send loop can count while it borrows a peer's socket.
#[derive(Debug, Default)]
struct Counts {
    send_errors: u64,
    unknown_peer: u64,
    refused: u64,
    oversize: u64,
    runt: u64,
    last_error: Option<TransportError>,
    transport_errors: u64,
    dropped_errors: u64,
}

impl Counts {
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

    /// Classifies one datagram's send failure: refused and oversize are
    /// network weather; the rest surface.
    fn send_failed(&mut self, e: &std::io::Error) {
        if e.kind() == ErrorKind::ConnectionRefused {
            self.refused += 1;
        } else if e.raw_os_error() == Some(EMSGSIZE) {
            self.oversize += 1;
        } else {
            self.send_errors += 1;
            self.stash_error("send", e);
        }
    }
}

/// A [`Transport`] backed by one receive socket and one connected send
/// socket per peer.
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
    /// Receives every datagram addressed to this node; never sends.
    socket: UdpSocket,
    /// Each registered peer's connected send socket, `None` when creating
    /// or connecting it failed.
    peers: HashMap<usize, Option<UdpSocket>>,
    now: Cycle,
    queues: [VecDeque<Vec<u8>>; 2],
    /// Where received datagrams land, allocated at bind and never
    /// re-zeroed: only the bytes the kernel reports are ever read.
    ring: RecvRing,
    /// Reused send-call state.
    tx: SendBatch,
    /// `(peer, outbox position)` of each frame of one
    /// [`send_batch`](BatchTransport::send_batch), reused across calls.
    order: Vec<(usize, usize)>,
    /// Buffers of frames already put on the wire (or handed back through
    /// [`Transport::recycle`]), reused for received frames; at most
    /// [`POOL_CAP`].
    pool: Vec<Vec<u8>>,
    /// Datagrams [`pump`](Self::pump) reads per tick, bounding how long one
    /// busy socket can monopolize a poll round, and the most frames either
    /// lane queue holds before pumping pauses. `usize::MAX` = unbounded.
    pump_limit: usize,
    counts: Counts,
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
            ring: RecvRing::new(RING_SLOTS, RING_HEAD, MAX_DATAGRAM),
            tx: SendBatch::default(),
            order: Vec::new(),
            pool: Vec::new(),
            pump_limit: usize::MAX,
            counts: Counts::default(),
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

    /// The receive socket's bound address (the one peers register).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Registers the socket address of a peer node, opening a nonblocking
    /// send socket connected to it. Registering a node again moves its
    /// frames to the new address and closes the old socket. A failure to
    /// open or connect surfaces through [`take_error`](Self::take_error)
    /// as op `"connect"`, and that peer's frames then count as
    /// [`send_errors`](Self::send_errors).
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        let sender = self
            .connect(addr)
            .map_err(|e| self.counts.stash_error("connect", &e))
            .ok();
        self.peers.insert(node.index(), sender);
    }

    /// A nonblocking socket on the receive socket's address, connected to
    /// `addr`.
    fn connect(&self, addr: SocketAddr) -> std::io::Result<UdpSocket> {
        let socket = UdpSocket::bind(SocketAddr::new(self.socket.local_addr()?.ip(), 0))?;
        socket.connect(addr)?;
        socket.set_nonblocking(true)?;
        Ok(socket)
    }

    /// Datagrams that failed to send (treated as network loss: the §6.2
    /// retransmission machinery recovers, exactly as for in-network drops).
    pub fn send_errors(&self) -> u64 {
        self.counts.send_errors
    }

    /// Frames addressed to nodes with no registered socket address.
    pub fn unknown_peer(&self) -> u64 {
        self.counts.unknown_peer
    }

    /// `ECONNREFUSED` events on either direction (on Linux, an ICMP
    /// port-unreachable from a dead peer surfaces this way on the next
    /// send to it). Treated as loss — retransmission recovers once the peer
    /// returns.
    pub fn refused(&self) -> u64 {
        self.counts.refused
    }

    /// Datagrams rejected for exceeding the maximum size: sends the socket
    /// refused, and received datagrams longer than 64 KiB (counted and
    /// discarded, never queued truncated).
    pub fn oversize(&self) -> u64 {
        self.counts.oversize
    }

    /// Zero-length datagrams received and discarded (no NIFDY frame is
    /// empty; each still counts toward the per-tick pump limit).
    pub fn runt(&self) -> u64 {
        self.counts.runt
    }

    /// Takes the *first* unclassified socket failure observed since the
    /// last call, if any. Expected conditions (quiescence, refused,
    /// oversize) never appear here. Later failures arriving while one is
    /// already stashed are counted in [`dropped_errors`](Self::dropped_errors)
    /// rather than overwriting the original — the first error is almost
    /// always the root cause, and silently replacing it would hide it.
    pub fn take_error(&mut self) -> Option<TransportError> {
        self.counts.last_error.take()
    }

    /// Total unclassified socket failures observed, whether or not they
    /// were ever drained via [`take_error`](Self::take_error).
    pub fn transport_errors(&self) -> u64 {
        self.counts.transport_errors
    }

    /// Unclassified failures discarded because an earlier one was still
    /// waiting in the [`take_error`](Self::take_error) slot.
    pub fn dropped_errors(&self) -> u64 {
        self.counts.dropped_errors
    }

    /// Reads waiting datagrams into the lane queues, a ring at a time,
    /// until the socket drains or a bound is reached: at most `pump_limit`
    /// datagrams this tick (runts and truncated ones included), and never
    /// more than `pump_limit` frames in either queue.
    fn pump(&mut self) {
        let mut read = 0usize;
        loop {
            let queued = self.queues[0].len().max(self.queues[1].len());
            let want = self
                .pump_limit
                .saturating_sub(read)
                .min(self.pump_limit.saturating_sub(queued))
                .min(self.ring.slots());
            if want == 0 {
                break;
            }
            let got = match self.ring.recv(&self.socket, want) {
                Ok(got) => got,
                // Quiescence: nothing more to read this tick.
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // A dead peer's ICMP port-unreachable can bounce back through
                // recv; count it and keep draining — real datagrams may sit
                // behind it in the error queue.
                Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                    self.counts.refused += 1;
                    continue;
                }
                // Anything else is not network weather: surface it.
                Err(e) => {
                    self.counts.stash_error("recv", &e);
                    break;
                }
            };
            read += got;
            for i in 0..got {
                let Some([head, tail]) = self.ring.datagram(i) else {
                    self.counts.oversize += 1;
                    continue;
                };
                // Classify by the lane bit; the codec re-validates the
                // whole frame later, so a garbage byte merely picks a
                // queue for a frame that will then fail to decode.
                let Some(&flags) = head.first() else {
                    self.counts.runt += 1;
                    continue;
                };
                let mut frame = self.pool.pop().unwrap_or_default();
                frame.clear();
                frame.extend_from_slice(head);
                frame.extend_from_slice(tail);
                self.queues[usize::from(flags & 0b10 != 0)].push_back(frame);
            }
            if got < want {
                // The socket had fewer waiting than asked for: drained.
                break;
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
        // only the peer's socket.
        let _ = lane;
        match self.peers.get(&dst.index()) {
            None => self.counts.unknown_peer += 1,
            Some(None) => self.counts.send_errors += 1,
            Some(Some(socket)) => {
                if let Err(e) = socket.send(&frame) {
                    self.counts.send_failed(&e);
                }
            }
        }
        self.recycle(frame);
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
    /// Grouped flush: each peer's frames, in outbox order, leave in one
    /// batched send on that peer's socket. When a frame fails, the send
    /// resumes after it, so the failure is classified as
    /// [`Transport::send`] would and the frames behind it still go out.
    /// Every buffer, sent or not, joins the pool.
    fn send_batch(&mut self, frames: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        // Sorting (peer, position) pairs groups by peer and keeps each
        // group in outbox order; a daemon's outbox is usually one run.
        self.order.clear();
        self.order.extend(
            frames
                .iter()
                .enumerate()
                .map(|(i, (dst, _, _))| (dst.index(), i)),
        );
        self.order.sort_unstable();
        for group in self.order.chunk_by(|a, b| a.0 == b.0) {
            let socket = match self.peers.get(&group[0].0) {
                Some(Some(socket)) => socket,
                Some(None) => {
                    self.counts.send_errors += group.len() as u64;
                    continue;
                }
                None => {
                    self.counts.unknown_peer += group.len() as u64;
                    continue;
                }
            };
            let mut sent = 0;
            while sent < group.len() {
                let rest = group[sent..].iter().map(|&(_, i)| frames[i].2.as_slice());
                match self.tx.send(socket, rest) {
                    Ok(n) => sent += n,
                    Err(e) => {
                        self.counts.send_failed(&e);
                        sent += 1;
                    }
                }
            }
        }
        for (_, _, frame) in frames.drain(..) {
            self.recycle(frame);
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
        a.counts.stash_error("send", &first);
        a.counts.stash_error("recv", &second);
        assert_eq!(a.transport_errors(), 2);
        assert_eq!(a.dropped_errors(), 1, "the second error was shed");
        let err = a.take_error().expect("first error preserved");
        assert_eq!(err.kind, ErrorKind::PermissionDenied, "first error wins");
        assert_eq!(err.op, "send");
        assert_eq!(a.take_error(), None, "slot drained");
        // With the slot empty, the next failure is stashed again.
        a.counts.stash_error(
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
        // Each unroutable frame is counted and its buffer joins the pool.
        a.send(NodeId::new(9), Lane::Request, vec![0; 32]);
        assert_eq!((a.unknown_peer(), a.pool.len()), (1, 1));
        let mut batch = vec![
            (NodeId::new(9), Lane::Request, vec![0; 32]),
            (NodeId::new(8), Lane::Reply, vec![0; 32]),
        ];
        a.send_batch(&mut batch);
        assert_eq!((a.unknown_peer(), a.pool.len()), (3, 3));
        assert!(
            a.take_buffer().capacity() >= 32,
            "the next frame reuses one"
        );
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
        // Whether the ICMP error materialized is OS-dependent (on Linux a
        // connected socket reports it on the next send); the contract
        // under test is that nothing landed in the unclassified slot.
        #[cfg(target_os = "linux")]
        assert!(a.refused() > 0, "the bounce reached the connected sender");
        assert_eq!(
            a.take_error(),
            None,
            "refused must not surface as TransportError"
        );
        assert_eq!(a.send_errors(), 0);
    }

    #[test]
    fn a_failed_frame_mid_batch_is_classified_and_the_rest_still_go() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind b");
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        // One batched send stops at the oversize frame and loses its error;
        // resuming from it must classify it and still send the two behind.
        let mut batch = vec![
            (NodeId::new(1), Lane::Request, vec![0b00, 1, 1]),
            (NodeId::new(1), Lane::Request, vec![0u8; 70_000]),
            (NodeId::new(1), Lane::Request, vec![0b00, 2, 2]),
            (NodeId::new(1), Lane::Request, vec![0b00, 3, 3]),
        ];
        a.send_batch(&mut batch);
        assert_eq!(a.oversize(), 1, "the 70 000-byte frame is oversize");
        assert_eq!((a.send_errors(), a.take_error()), (0, None));
        let got: Vec<u8> = (0..3).map(|_| recv_request(&mut b)[1]).collect();
        assert_eq!(got, vec![1, 2, 3], "every small frame, in order");
    }

    #[test]
    fn the_largest_datagram_arrives_byte_identical() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind b");
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        // The UDP/IPv4 payload ceiling: the longest datagram the socket can
        // carry, so the longest one the old 64 KiB buffer ever accepted.
        let sent: Vec<u8> = (0..65_507u32).map(|i| (i % 251) as u8 & !0b10).collect();
        a.send_batch(&mut vec![(NodeId::new(1), Lane::Request, sent.clone())]);
        assert_eq!(recv_request(&mut b), sent);
        assert_eq!(b.oversize(), 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_truncated_datagram_is_counted_never_queued() {
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind(NodeId::new(1), "127.0.0.1:0").expect("bind b");
        // Slots of 64 bytes (16 in the head): a 65-byte datagram no longer
        // fits, while one of exactly 64 still does.
        b.ring = RecvRing::new(4, 16, 64);
        a.add_peer(NodeId::new(1), b.local_addr().expect("addr b"));
        let fits: Vec<u8> = (0..64u8).map(|i| i & !0b10).collect();
        for frame in [vec![0u8; 65], vec![0b00, 7, 7], fits.clone()] {
            a.send(NodeId::new(1), Lane::Request, frame);
        }
        assert_eq!(recv_request(&mut b), vec![0b00, 7, 7]);
        assert_eq!(recv_request(&mut b), fits);
        assert_eq!(b.oversize(), 1, "the truncated datagram was counted");
        assert!(b.recv(Lane::Request).is_none() && b.recv(Lane::Reply).is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_batched_syscalls_match_the_portable_loop() {
        let frames: Vec<Vec<u8>> = [3usize, 0, 2048, 2049, 9_000, 40]
            .iter()
            .map(|&n| (0..n).map(|b| (b * 31 + n) as u8).collect())
            .collect();
        // Send every frame on a connected socket with one path's
        // `SendBatch`, then read them back through its `RecvRing` (a
        // 16-byte head, so most datagrams cross into their slot's tail).
        macro_rules! roundtrip {
            ($path:ident) => {{
                let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
                rx.set_nonblocking(true).expect("nonblocking");
                let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
                tx.connect(rx.local_addr().expect("addr")).expect("connect");
                let mut batch = $path::SendBatch::default();
                let mut sent = 0;
                while sent < frames.len() {
                    let rest = frames[sent..].iter().map(Vec::as_slice);
                    sent += batch.send(&tx, rest).expect("send");
                }
                let mut ring = $path::RecvRing::new(4, 16, MAX_DATAGRAM);
                let mut got = Vec::new();
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while got.len() < frames.len() {
                    match ring.recv(&rx, ring.slots()) {
                        Ok(n) => got.extend(
                            (0..n).map(|i| ring.datagram(i).expect("nothing truncated").concat()),
                        ),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        Err(e) => panic!("recv failed: {e}"),
                    }
                    assert!(std::time::Instant::now() < deadline, "datagrams lost");
                }
                got
            }};
        }
        assert_eq!(roundtrip!(sys), frames, "sendmmsg + recvmmsg");
        assert_eq!(roundtrip!(portable), frames, "send + recv per datagram");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn re_registering_a_peer_moves_its_sender_and_closes_the_old_one() {
        use std::os::fd::AsRawFd;
        let n1 = NodeId::new(1);
        let mut a = UdpTransport::bind(NodeId::new(0), "127.0.0.1:0").expect("bind a");
        let mut b1 = UdpTransport::bind(n1, "127.0.0.1:0").expect("bind b1");
        let mut b2 = UdpTransport::bind(n1, "127.0.0.1:0").expect("bind b2");
        let (a1, a2) = (b1.local_addr().expect("a1"), b2.local_addr().expect("a2"));
        // The open file a peer's send socket is, e.g. `socket:[4711]`.
        let sender = |a: &UdpTransport| {
            let fd = a.peers[&1].as_ref().expect("a sender").as_raw_fd();
            std::fs::read_link(format!("/proc/self/fd/{fd}")).expect("fd link")
        };
        a.add_peer(n1, a1);
        let mut replaced = vec![sender(&a)];
        a.add_peer(n1, a2);
        let mut batch: Vec<_> = (0..4u8)
            .map(|i| (n1, Lane::Request, vec![0b00, i]))
            .collect();
        a.send_batch(&mut batch);
        let got: Vec<u8> = (0..4).map(|_| recv_request(&mut b2)[1]).collect();
        assert_eq!(got, vec![0, 1, 2, 3], "frames follow the new address");
        b1.tick();
        assert!(
            b1.recv(Lane::Request).is_none(),
            "nothing reaches the old address"
        );

        for i in 0..100 {
            replaced.push(sender(&a));
            a.add_peer(n1, if i % 2 == 0 { a1 } else { a2 });
        }
        assert_eq!(a.peers.len(), 1);
        let open: Vec<_> = std::fs::read_dir("/proc/self/fd")
            .expect("fd dir")
            .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
            .collect();
        for old in &replaced {
            assert!(!open.contains(old), "replaced sender {old:?} still open");
        }
    }
}
