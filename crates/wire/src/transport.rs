//! Frame carriers: the [`Transport`] trait and the deterministic in-process
//! loopback backend.
//!
//! A transport moves *encoded frames* (byte strings from
//! [`codec::encode`](crate::codec::encode)) between nodes on the two lanes.
//! It makes no ordering promise beyond best effort: NIFDY itself tolerates
//! reordering (that is the point of the protocol), and the loopback backend
//! can be configured with seeded delivery jitter precisely to exercise the
//! reorder machinery while staying bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use nifdy_net::Lane;
use nifdy_sim::{Cycle, NodeId, SimRng};

/// One node's attachment to a frame carrier.
///
/// The transport also owns the node's notion of time: the loopback backend
/// shares one hub clock across all endpoints (cycle-synchronous, like the
/// simulator), while the UDP backend free-runs a local cycle counter per
/// node (each node is its own clock domain, like real hardware).
pub trait Transport: Send {
    /// The local node this endpoint serves.
    fn node(&self) -> NodeId;

    /// The endpoint's current cycle.
    fn now(&self) -> Cycle;

    /// One tick of endpoint-local work: advance a free-running clock, pump
    /// sockets. The loopback backend does nothing here — its shared hub
    /// clock advances via [`LoopbackHub::tick`].
    fn tick(&mut self);

    /// Queues an encoded frame for delivery to `dst` on `lane`. Best
    /// effort: a transport may drop (UDP) or delay (loopback jitter), never
    /// corrupt.
    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>);

    /// The next frame delivered to this node on `lane`, if any.
    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>>;

    /// A buffer to encode the next outgoing frame into (contents
    /// unspecified: encoders overwrite it). Transports that keep spent
    /// buffers hand one back; the default allocates nothing until written.
    fn take_buffer(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Returns a buffer from [`recv`](Self::recv) once its frame has been
    /// consumed, so a pooling transport can reuse the allocation.
    fn recycle(&mut self, _frame: Vec<u8>) {}
}

/// Batched frame I/O for carriers that serve many logical endpoints at
/// once (the `nifdy-node` daemon's poll loop).
///
/// The default methods are plain loops over [`Transport::recv`] and
/// [`Transport::send`], so every transport gets the batched interface for
/// free; the loopback hub, which only tests put under a daemon, keeps them.
/// A backend overrides them where a real economy exists: the UDP transport
/// coalesces the peer-address lookup across consecutive frames to the same
/// destination.
pub trait BatchTransport: Transport {
    /// Drains up to `max` frames delivered to this node on `lane` into
    /// `out`, returning how many were appended. A bounded batch keeps one
    /// busy socket from starving the rest of a daemon's poll round.
    fn recv_batch(&mut self, lane: Lane, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        let mut n = 0;
        while n < max {
            match self.recv(lane) {
                Some(frame) => {
                    out.push(frame);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Sends every queued `(dst, lane, frame)` in order, draining the
    /// vector (so callers can reuse its allocation round after round).
    fn send_batch(&mut self, frames: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        for (dst, lane, frame) in frames.drain(..) {
            self.send(dst, lane, frame);
        }
    }
}

/// In-flight frames for one destination: a min-heap on (delivery cycle,
/// global send sequence) — the sequence is unique, so delivery order is
/// total and deterministic even under jitter — that keeps its storage
/// across rounds.
type DeliveryQueue = BinaryHeap<Reverse<(u64, u64, Vec<u8>)>>;

/// What a hub and its endpoints share, behind one `Arc`.
#[derive(Debug)]
struct Shared {
    /// The hub clock. Every endpoint reads it several times per step, so it
    /// sits outside the lock; only [`LoopbackHub::tick`] writes it.
    now: AtomicU64,
    inner: Mutex<HubInner>,
}

impl Shared {
    fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[derive(Debug)]
struct HubInner {
    latency: u64,
    jitter: Option<(SimRng, u64)>,
    seq: u64,
    /// `queues[node][lane]`.
    queues: Vec<[DeliveryQueue; 2]>,
    /// Frames addressed to a node outside `queues`, dropped on send.
    unknown_peer: u64,
}

impl HubInner {
    fn enqueue(&mut self, now: u64, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        let Some(queue) = self.queues.get_mut(dst.index()) else {
            self.unknown_peer += 1;
            return;
        };
        let mut deliver_at = now + self.latency;
        if let Some((rng, max_extra)) = &mut self.jitter {
            deliver_at += rng.next_u64() % (*max_extra + 1);
        }
        let seq = self.seq;
        self.seq += 1;
        queue[lane.index()].push(Reverse((deliver_at, seq, frame)));
    }

    /// The earliest frame for `node` on `lane`, once it is due.
    fn dequeue(&mut self, now: u64, node: NodeId, lane: Lane) -> Option<Vec<u8>> {
        let queue = &mut self.queues[node.index()][lane.index()];
        let Reverse((at, _, _)) = queue.peek()?;
        if *at > now {
            return None;
        }
        queue.pop().map(|Reverse((_, _, frame))| frame)
    }
}

/// A deterministic in-process frame exchange shared by N [`LoopbackTransport`]
/// endpoints.
///
/// Every frame sent at hub cycle `t` is deliverable at `t + latency`
/// (plus seeded jitter when configured). With the same seed and the same
/// sequence of sends, delivery order is bit-for-bit reproducible — the
/// property the sim-vs-wire differential conformance suite rests on.
///
/// # Examples
///
/// ```
/// use nifdy_net::Lane;
/// use nifdy_sim::NodeId;
/// use nifdy_wire::{LoopbackHub, Transport};
///
/// let hub = LoopbackHub::new(2, 3);
/// let mut a = hub.endpoint(NodeId::new(0));
/// let mut b = hub.endpoint(NodeId::new(1));
/// a.send(NodeId::new(1), Lane::Request, vec![1, 2, 3]);
/// assert!(b.recv(Lane::Request).is_none(), "still in flight");
/// for _ in 0..3 {
///     hub.tick();
/// }
/// assert_eq!(b.recv(Lane::Request), Some(vec![1, 2, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct LoopbackHub {
    shared: Arc<Shared>,
}

impl LoopbackHub {
    /// Creates a hub for `nodes` endpoints with a fixed `latency` in cycles
    /// from send to earliest delivery.
    pub fn new(nodes: usize, latency: u64) -> Self {
        LoopbackHub {
            shared: Arc::new(Shared {
                now: AtomicU64::new(0),
                inner: Mutex::new(HubInner {
                    latency,
                    jitter: None,
                    seq: 0,
                    queues: (0..nodes)
                        .map(|_| [BinaryHeap::new(), BinaryHeap::new()])
                        .collect(),
                    unknown_peer: 0,
                }),
            }),
        }
    }

    /// Adds seeded delivery jitter: each frame's latency is extended by a
    /// uniform draw from `0..=max_extra` cycles. Different frames to the
    /// same destination can overtake each other — deliberate, deterministic
    /// reordering to exercise the protocol's window machinery.
    pub fn with_jitter(self, seed: u64, max_extra: u64) -> Self {
        {
            let mut inner = self.shared.lock();
            inner.jitter =
                (max_extra > 0).then(|| (SimRng::from_seed_stream(seed, 0x17e), max_extra));
        }
        self
    }

    /// Advances the shared hub clock by one cycle.
    pub fn tick(&self) {
        self.shared.now.fetch_add(1, Ordering::SeqCst);
    }

    /// The shared hub clock.
    pub fn now(&self) -> Cycle {
        Cycle::new(self.shared.now())
    }

    /// The earliest cycle at which any in-flight frame becomes deliverable,
    /// if one exists. An event-driven driver folds this into its wakeup
    /// computation: [`WireEndpoint::next_event`](crate::WireEndpoint::next_event)
    /// cannot see frames still inside the transport, so the hub must be
    /// consulted for them.
    pub fn next_delivery(&self) -> Option<u64> {
        self.shared
            .lock()
            .queues
            .iter()
            .flat_map(|lanes| lanes.iter())
            .filter_map(|q| q.peek().map(|Reverse((at, _, _))| *at))
            .min()
    }

    /// Frames currently in flight or awaiting [`Transport::recv`], across
    /// all nodes (drain/termination checks).
    pub fn in_flight(&self) -> usize {
        self.shared
            .lock()
            .queues
            .iter()
            .map(|lanes| lanes[0].len() + lanes[1].len())
            .sum()
    }

    /// Frames addressed to a node outside the hub's range. Like
    /// [`UdpTransport::unknown_peer`](crate::UdpTransport::unknown_peer),
    /// the hub counts and drops them instead of delivering.
    pub fn unknown_peer(&self) -> u64 {
        self.shared.lock().unknown_peer
    }

    /// Creates the endpoint for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the hub's node range.
    pub fn endpoint(&self, node: NodeId) -> LoopbackTransport {
        assert!(
            node.index() < self.shared.lock().queues.len(),
            "node {node} outside the hub's range"
        );
        LoopbackTransport {
            node,
            shared: Arc::clone(&self.shared),
        }
    }
}

/// One node's endpoint on a [`LoopbackHub`].
#[derive(Debug)]
pub struct LoopbackTransport {
    node: NodeId,
    shared: Arc<Shared>,
}

impl Transport for LoopbackTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> Cycle {
        Cycle::new(self.shared.now())
    }

    fn tick(&mut self) {
        // Time is the hub's: LoopbackHub::tick advances all endpoints at once.
    }

    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        let mut inner = self.shared.lock();
        inner.enqueue(self.shared.now(), dst, lane, frame);
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        let mut inner = self.shared.lock();
        inner.dequeue(self.shared.now(), self.node, lane)
    }
}

impl BatchTransport for LoopbackTransport {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_holds_frames_until_due() {
        let hub = LoopbackHub::new(2, 5);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        a.send(NodeId::new(1), Lane::Request, vec![42]);
        for _ in 0..4 {
            hub.tick();
            assert!(b.recv(Lane::Request).is_none());
        }
        hub.tick();
        assert_eq!(b.recv(Lane::Request), Some(vec![42]));
        assert_eq!(hub.in_flight(), 0);
    }

    #[test]
    fn lanes_are_independent() {
        let hub = LoopbackHub::new(2, 0);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        a.send(NodeId::new(1), Lane::Reply, vec![1]);
        hub.tick();
        assert!(b.recv(Lane::Request).is_none());
        assert_eq!(b.recv(Lane::Reply), Some(vec![1]));
    }

    #[test]
    fn batch_recv_is_bounded_and_batch_send_delivers() {
        let hub = LoopbackHub::new(2, 1);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        let mut batch: Vec<(NodeId, Lane, Vec<u8>)> = (0..5u8)
            .map(|i| (NodeId::new(1), Lane::Request, vec![i]))
            .collect();
        a.send_batch(&mut batch);
        assert!(batch.is_empty(), "send_batch drains the queue");
        hub.tick();
        let mut out = Vec::new();
        assert_eq!(b.recv_batch(Lane::Request, 3, &mut out), 3, "bounded");
        assert_eq!(b.recv_batch(Lane::Request, 8, &mut out), 2, "remainder");
        let got: Vec<u8> = out.iter().map(|f| f[0]).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "send order preserved");
    }

    #[test]
    fn frames_to_a_node_outside_the_hub_are_counted_and_dropped() {
        let hub = LoopbackHub::new(2, 1);
        let mut a = hub.endpoint(NodeId::new(0));
        a.send(NodeId::new(7), Lane::Request, vec![1]);
        assert_eq!(hub.unknown_peer(), 1);
        assert_eq!(hub.in_flight(), 0);
        let mut batch = vec![
            (NodeId::new(9), Lane::Reply, vec![2]),
            (NodeId::new(1), Lane::Request, vec![3]),
        ];
        a.send_batch(&mut batch);
        assert_eq!(hub.unknown_peer(), 2);
        assert_eq!(hub.in_flight(), 1, "only the in-range frame is queued");
        hub.tick();
        let mut b = hub.endpoint(NodeId::new(1));
        assert_eq!(b.recv(Lane::Request), Some(vec![3]));
        assert_eq!(hub.in_flight(), 0);
    }

    #[test]
    fn next_delivery_reports_the_earliest_in_flight_frame() {
        let hub = LoopbackHub::new(2, 5);
        let mut a = hub.endpoint(NodeId::new(0));
        assert_eq!(hub.next_delivery(), None, "empty hub has no deadline");
        a.send(NodeId::new(1), Lane::Request, vec![1]);
        hub.tick();
        a.send(NodeId::new(1), Lane::Reply, vec![2]);
        assert_eq!(hub.next_delivery(), Some(5), "earliest across lanes");
        let mut b = hub.endpoint(NodeId::new(1));
        for _ in 0..5 {
            hub.tick();
        }
        assert!(b.recv(Lane::Request).is_some());
        assert_eq!(hub.next_delivery(), Some(6), "remaining frame's deadline");
    }

    #[test]
    fn jitter_is_deterministic_and_can_reorder() {
        let run = |seed: u64| {
            let hub = LoopbackHub::new(2, 2).with_jitter(seed, 16);
            let mut a = hub.endpoint(NodeId::new(0));
            let mut b = hub.endpoint(NodeId::new(1));
            for i in 0..32u8 {
                a.send(NodeId::new(1), Lane::Request, vec![i]);
            }
            let mut got = Vec::new();
            for _ in 0..64 {
                hub.tick();
                while let Some(f) = b.recv(Lane::Request) {
                    got.push(f[0]);
                }
            }
            assert_eq!(got.len(), 32, "everything eventually delivers");
            got
        };
        let first = run(7);
        assert_eq!(first, run(7), "same seed, same delivery order");
        let sorted: Vec<u8> = (0..32).collect();
        assert_ne!(first, sorted, "jitter actually reorders");
    }

    #[test]
    fn reading_the_clock_takes_no_lock() {
        let hub = LoopbackHub::new(2, 1);
        hub.tick();
        let reader_hub = hub.clone();
        let endpoint = hub.endpoint(NodeId::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let guard = hub.shared.lock();
        let reader = std::thread::spawn(move || {
            // The receiver may be gone if the reads blocked past the timeout.
            let _ = tx.send((reader_hub.now(), endpoint.now()));
        });
        let read = rx.recv_timeout(std::time::Duration::from_secs(1));
        drop(guard);
        reader.join().expect("reader thread");
        assert_eq!(
            read,
            Ok((Cycle::new(1), Cycle::new(1))),
            "clock reads must not wait for the hub's lock"
        );
    }

    #[test]
    fn every_endpoint_reads_the_hub_clock() {
        let hub = LoopbackHub::new(3, 1);
        let early = hub.endpoint(NodeId::new(0));
        for _ in 0..4 {
            hub.tick();
        }
        let late = hub.endpoint(NodeId::new(1));
        let faulty = crate::FaultyTransport::new(
            hub.endpoint(NodeId::new(2)),
            crate::WireFaultConfig::default().with_corrupt_prob(0.5),
            3,
        );
        assert_eq!(hub.now(), Cycle::new(4));
        for _ in 0..8 {
            hub.tick();
            let now = hub.now();
            assert_eq!(early.now(), now, "endpoint made before any tick");
            assert_eq!(late.now(), now, "endpoint made after four ticks");
            assert_eq!(faulty.now(), now, "faulty transport over the hub");
        }
        assert_eq!(hub.now(), Cycle::new(12));
    }

    #[test]
    fn latency_counts_from_the_send_cycle() {
        let hub = LoopbackHub::new(2, 3);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        for _ in 0..5 {
            hub.tick();
        }
        a.send(NodeId::new(1), Lane::Request, vec![9]);
        assert_eq!(hub.next_delivery(), Some(8));
        while hub.now() < Cycle::new(8) {
            assert!(b.recv(Lane::Request).is_none(), "early at {}", hub.now());
            hub.tick();
        }
        assert_eq!(b.recv(Lane::Request), Some(vec![9]), "due at tick 8");
    }
}
