//! Timing wrappers the traced run slides between a layer and its carrier.
//! Both implement the wire crate's public transport traits by delegation,
//! so the layer above cannot tell; the untraced run uses the bare carrier
//! type and pays for none of this.

use nifdy_net::Lane;
use nifdy_sim::{Cycle, NodeId};
use nifdy_wire::{BatchTransport, LoopbackTransport, Transport, UdpTransport};

use crate::spans::{self, Span};

/// Frames the timing carrier keeps a copy of, for the codec kernel cells.
pub const CAPTURED_FRAMES: usize = 4_096;

/// What a [`TimedCarrier`] counted besides its spans.
#[derive(Debug, Clone, Default)]
pub struct CarrierCounts {
    pub frames_sent: u64,
    pub send_batches: u64,
    pub frames_received: u64,
    /// Ticks after which both lanes' `recv_batch` came back empty.
    pub empty_ticks: u64,
    pub empty_tick_ns: u64,
    /// The first [`CAPTURED_FRAMES`] frames handed to `send_batch`.
    pub captured: Vec<Vec<u8>>,
}

/// A daemon carrier with spans around `tick`, `recv_batch` and
/// `send_batch` (the three calls `NifdyNode::poll_round` makes).
#[derive(Debug)]
pub struct TimedCarrier<C> {
    inner: C,
    pub counts: CarrierCounts,
    last_tick_ns: u64,
    received_since_tick: u64,
    ticked: bool,
}

impl<C> TimedCarrier<C> {
    pub fn new(inner: C) -> Self {
        TimedCarrier {
            inner,
            counts: CarrierCounts::default(),
            last_tick_ns: 0,
            received_since_tick: 0,
            ticked: false,
        }
    }

    /// Classifies the previous tick now that its `recv_batch` calls are in.
    fn settle_tick(&mut self) {
        if self.ticked && self.received_since_tick == 0 {
            self.counts.empty_ticks += 1;
            self.counts.empty_tick_ns += self.last_tick_ns;
        }
        self.ticked = false;
        self.received_since_tick = 0;
    }

    /// Restarts the counts (the traced window begins after warm-up).
    pub fn reset_counts(&mut self) {
        self.counts = CarrierCounts::default();
        self.ticked = false;
        self.received_since_tick = 0;
    }
}

impl<C: BatchTransport> Transport for TimedCarrier<C> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn now(&self) -> Cycle {
        self.inner.now()
    }

    fn tick(&mut self) {
        self.settle_tick();
        let ((), ns) = spans::timed_ns(Span::CarrierTick, || self.inner.tick());
        self.last_tick_ns = ns;
        self.ticked = true;
    }

    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        self.inner.send(dst, lane, frame);
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        self.inner.recv(lane)
    }
}

impl<C: BatchTransport> BatchTransport for TimedCarrier<C> {
    fn recv_batch(&mut self, lane: Lane, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        let n = spans::timed(Span::CarrierRecvBatch, || {
            self.inner.recv_batch(lane, max, out)
        });
        self.counts.frames_received += n as u64;
        self.received_since_tick += n as u64;
        n
    }

    fn send_batch(&mut self, frames: &mut Vec<(NodeId, Lane, Vec<u8>)>) {
        if frames.is_empty() {
            // The daemon flushes every carrier every round; an empty flush
            // is not a batch.
            return self.inner.send_batch(frames);
        }
        self.counts.frames_sent += frames.len() as u64;
        self.counts.send_batches += 1;
        let room = CAPTURED_FRAMES - self.counts.captured.len();
        self.counts
            .captured
            .extend(frames.iter().take(room).map(|(_, _, f)| f.clone()));
        spans::timed(Span::CarrierSendBatch, || self.inner.send_batch(frames));
    }
}

/// A transport with a span around `send` only — the one call on the frame
/// path. Two of these bracket `FaultyTransport` on `wire-chaos`: the outer
/// span's self time is the fault plane's judging, the inner span is the
/// hub insert. `tick` and `recv` run every cycle whether or not a frame
/// moves; timing them would cost more than they do.
#[derive(Debug)]
pub struct TimedSend<T> {
    inner: T,
    span: Span,
    pub frames_sent: u64,
}

impl<T> TimedSend<T> {
    pub fn new(inner: T, span: Span) -> Self {
        TimedSend {
            inner,
            span,
            frames_sent: 0,
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for TimedSend<T> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn now(&self) -> Cycle {
        self.inner.now()
    }

    fn tick(&mut self) {
        self.inner.tick();
    }

    fn send(&mut self, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        self.frames_sent += 1;
        spans::timed(self.span, || self.inner.send(dst, lane, frame));
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        self.inner.recv(lane)
    }
}

/// What the daemon loop needs from whichever carrier type it was built on.
pub trait Carrier: BatchTransport {
    /// The UDP socket's hygiene counters `[refused, oversize, unknown_peer,
    /// transport_errors]`, when there is a socket.
    fn udp_hygiene(&self) -> [u64; 4] {
        [0; 4]
    }

    /// The timing wrapper's counts, when this is one.
    fn counts_mut(&mut self) -> Option<&mut CarrierCounts> {
        None
    }

    fn reset_counts(&mut self) {}
}

impl Carrier for LoopbackTransport {}

impl Carrier for UdpTransport {
    fn udp_hygiene(&self) -> [u64; 4] {
        [
            self.refused(),
            self.oversize(),
            self.unknown_peer(),
            self.transport_errors(),
        ]
    }
}

impl Carrier for TimedCarrier<UdpTransport> {
    fn udp_hygiene(&self) -> [u64; 4] {
        self.inner.udp_hygiene()
    }

    fn counts_mut(&mut self) -> Option<&mut CarrierCounts> {
        self.settle_tick();
        Some(&mut self.counts)
    }

    fn reset_counts(&mut self) {
        TimedCarrier::reset_counts(self);
    }
}
