//! The processor-facing network-interface abstraction.
//!
//! All three interface models the paper compares — no-NIFDY
//! ([`PlainNic`](crate::PlainNic)), buffering-only
//! ([`BufferedNic`](crate::BufferedNic)), and the NIFDY unit itself
//! ([`NifdyUnit`](crate::NifdyUnit)) — implement [`Nic`]. The processor
//! model drives them identically: offer outbound packets with
//! [`Nic::try_send`], poll for arrivals with [`Nic::poll`], and give the
//! interface its per-cycle slice of work with [`Nic::step`].

use nifdy_net::{NetPort, UserData};
use nifdy_sim::metrics::Counter;
use nifdy_sim::{Cycle, NodeId, Wakeup};
use nifdy_trace::TraceHandle;

/// A packet the processor wants transmitted, before the NIC adds protocol
/// headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutboundPacket {
    /// Destination node.
    pub dst: NodeId,
    /// Packet length in words, including the header word.
    pub size_words: u16,
    /// Software requests a bulk dialog for this transfer (§2.2: "the
    /// processor must initiate bulk mode requests; NIFDY won't attempt bulk
    /// mode on its own").
    pub want_bulk: bool,
    /// Cleared to bypass the protocol entirely (§6.1 no-ack extension).
    pub needs_ack: bool,
    /// Workload annotation carried to the receiver.
    pub user: UserData,
}

impl OutboundPacket {
    /// A plain scalar packet of `size_words` words to `dst`.
    pub fn new(dst: NodeId, size_words: u16) -> Self {
        OutboundPacket {
            dst,
            size_words,
            want_bulk: false,
            needs_ack: true,
            user: UserData::default(),
        }
    }

    /// Sets the bulk-request preference.
    pub fn with_bulk(mut self, want: bool) -> Self {
        self.want_bulk = want;
        self
    }

    /// Attaches workload metadata.
    pub fn with_user(mut self, user: UserData) -> Self {
        self.user = user;
        self
    }
}

/// Why a [`DeliveryFailure`] was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A scalar packet exhausted its retry budget without an acknowledgment.
    Scalar,
    /// A bulk dialog exhausted its retry budget mid-window and was torn
    /// down; `unacked` packets of the dialog were never confirmed.
    BulkDialog {
        /// The wire dialog id of the torn-down dialog.
        dialog: u8,
        /// Packets sent but never acknowledged when the dialog was closed.
        unacked: u64,
    },
}

/// A typed, surfaced delivery failure: the interface abandoned a transfer
/// after exhausting its retry budget instead of retrying forever.
///
/// Collected from the unit with [`Nic::take_failures`]. Exactly the §6.2
/// robustness question the seed left open: a persistent link outage now
/// produces one of these rather than a silent livelock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryFailure {
    /// The node that gave up (the sender).
    pub src: NodeId,
    /// The unreachable destination.
    pub dst: NodeId,
    /// Cycle at which the budget was exhausted.
    pub at: Cycle,
    /// Retransmissions attempted before giving up.
    pub retries: u32,
    /// Scalar packet or bulk dialog.
    pub kind: FailureKind,
    /// Workload annotation of the failed packet (scalar failures only).
    pub user: Option<UserData>,
}

/// A packet delivered to the processor by [`Nic::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Sending node — exposed to receive handlers from the packet header, so
    /// "the source node never needs to be included in the data portion".
    pub src: NodeId,
    /// Packet length in words.
    pub size_words: u16,
    /// Workload annotation from the sender.
    pub user: UserData,
}

/// Counters every NIC model keeps.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Data packets handed to the fabric.
    pub sent: Counter,
    /// Data packets sent inside bulk dialogs.
    pub sent_bulk: Counter,
    /// Acknowledgments transmitted.
    pub acks_sent: Counter,
    /// Acknowledgments consumed.
    pub acks_received: Counter,
    /// Data packets delivered to the processor.
    pub delivered: Counter,
    /// Packets refused by [`Nic::try_send`] because buffering was full.
    pub send_rejected: Counter,
    /// Retransmissions triggered by the §6.2 timeout extension.
    pub retransmitted: Counter,
    /// Duplicate packets discarded at the receiver (§6.2).
    pub duplicates_dropped: Counter,
    /// Bulk dialogs granted to remote senders (receiver side).
    pub dialogs_granted: Counter,
    /// Acknowledgments delivered by piggybacking on data packets (§6.1).
    pub acks_piggybacked: Counter,
    /// Bulk packets that arrived out of order and waited in the reorder
    /// window (receiver side) — evidence the fabric actually reordered.
    pub bulk_out_of_order: Counter,
    /// Bulk-mode requests this node had rejected by receivers.
    pub dialogs_rejected: Counter,
    /// Transfers abandoned after exhausting the retry budget (each one
    /// surfaced as a [`DeliveryFailure`]).
    pub delivery_failures: Counter,
    /// Retransmission-timer firings deferred because the staging queue had
    /// reached its bound (64 packets; the queue grows on first use up to it).
    pub retx_queue_overflow: Counter,
    /// Outgoing bulk dialogs torn down mid-window by the retry budget.
    pub dialogs_torn_down: Counter,
    /// Granted (receiver-side) dialog slots reclaimed after their sender
    /// went silent (sender-side teardown or failure).
    pub dialogs_reclaimed: Counter,
}

impl NicStats {
    /// A progress fingerprint: changes whenever the interface does any
    /// observable work. Drivers feed this to a
    /// [`StallWatchdog`](nifdy_sim::StallWatchdog) — a busy interface whose
    /// fingerprint stops moving is livelocked.
    pub fn progress_fingerprint(&self) -> u64 {
        [
            &self.sent,
            &self.sent_bulk,
            &self.acks_sent,
            &self.acks_received,
            &self.delivered,
            &self.send_rejected,
            &self.retransmitted,
            &self.duplicates_dropped,
            &self.dialogs_granted,
            &self.acks_piggybacked,
            &self.bulk_out_of_order,
            &self.dialogs_rejected,
            &self.delivery_failures,
            &self.retx_queue_overflow,
            &self.dialogs_torn_down,
            &self.dialogs_reclaimed,
        ]
        .iter()
        .fold(0u64, |acc, c| acc.wrapping_add(c.get()))
    }
}

/// A point-in-time snapshot of an interface's queue occupancies, sampled
/// by drivers into telemetry gauges (OPT, buffer pool, retransmission
/// staging queue, bulk-window outstanding count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicOccupancy {
    /// Outbound packets waiting in the buffer pool.
    pub pool: u32,
    /// Scalar packets outstanding in the OPT.
    pub opt: u32,
    /// Retransmission copies staged for injection.
    pub retx_queue: u32,
    /// Unacknowledged packets of the outgoing bulk dialog, if any.
    pub window_outstanding: u64,
}

/// A network interface attached to one node of a packet carrier (the
/// cycle-accurate fabric or a byte transport — any [`NetPort`]).
///
/// Call order within a simulated cycle: the processor first interacts
/// ([`try_send`](Nic::try_send) / [`poll`](Nic::poll)), then the NIC runs
/// [`step`](Nic::step), then the fabric steps.
///
/// `Send` is a supertrait so a fully assembled simulation replica (driver,
/// fabric, boxed NICs) can be moved onto a worker thread by the parallel
/// experiment executor. Implementations are plain owned state, so this
/// costs nothing.
pub trait Nic: Send {
    /// The node this interface serves.
    fn node(&self) -> NodeId;

    /// Offers a packet for transmission. Returns `false` (and leaves the
    /// packet with the caller) when the interface's outgoing buffering is
    /// full; the processor retries later.
    fn try_send(&mut self, pkt: OutboundPacket, now: Cycle) -> bool;

    /// True when [`poll`](Nic::poll) would return a packet. Processors use
    /// this to charge the cheap "poll, no message" overhead instead of the
    /// full receive overhead.
    fn has_deliverable(&self) -> bool;

    /// Removes and returns the next packet for the processor, in the order
    /// the interface guarantees (NIFDY: sender order per source).
    fn poll(&mut self, now: Cycle) -> Option<Delivered>;

    /// One cycle of interface work: drain ejections, process acks, choose
    /// and inject eligible packets. The port is the node's attachment to
    /// whatever carries the packets — the simulated fabric or a real
    /// transport; the interface is transport-agnostic.
    fn step(&mut self, port: &mut dyn NetPort);

    /// True when the interface holds no queued outbound work (used by
    /// drain/termination checks; in-flight fabric packets are tracked by the
    /// fabric itself).
    fn is_idle(&self) -> bool;

    /// When this interface next needs a stepped cycle, under the
    /// [`Wakeup`] contract: `Now` when stepping this cycle may do
    /// observable work, `At(t)` when stepping is a no-op until `t`
    /// (absent new input from the processor or the fabric), `Quiescent`
    /// when the interface will never act again without such input.
    ///
    /// The default is maximally conservative — a non-idle interface
    /// always wants stepping — which is correct for any implementation.
    /// Interfaces with real timer state override this to let an
    /// event-driven driver skip their quiet stretches.
    fn next_event(&self, now: Cycle) -> Wakeup {
        let _ = now;
        if self.is_idle() {
            Wakeup::Quiescent
        } else {
            Wakeup::Now
        }
    }

    /// Interface counters.
    fn stats(&self) -> &NicStats;

    /// Drains delivery failures surfaced since the last call. Interfaces
    /// without a retry budget never fail and return an empty list (the
    /// default).
    fn take_failures(&mut self) -> Vec<DeliveryFailure> {
        Vec::new()
    }

    /// Connects this interface to a flight recorder. Interfaces without
    /// protocol state to narrate (the baselines) ignore the handle — the
    /// default.
    fn attach_trace(&mut self, trace: TraceHandle) {
        let _ = trace;
    }

    /// Current queue occupancies for telemetry gauges. Baselines report
    /// zeros (the default); the NIFDY unit reports its real state.
    fn occupancy(&self) -> NicOccupancy {
        NicOccupancy::default()
    }
}
