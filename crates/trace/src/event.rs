//! The typed protocol event vocabulary.
//!
//! Every observable protocol transition in the NIFDY stack maps to one
//! [`EventKind`] variant. Events are deliberately small `Copy` values — a
//! cycle, a node, and a handful of scalar fields — so recording one is a
//! ring-buffer push, never an allocation.

use std::fmt;

use nifdy_sim::{Cycle, NodeId};

/// Why a fault plane dropped a packet, defined here so the trace layer
/// stays dependency-free.
///
/// `nifdy-net`'s `FaultPlane::judge` returns this enum on every carrier.
/// The fabric counts and emits [`EventKind::Drop`] by it (the per-cause
/// event counts are property-tested to match `FabricStats` exactly); the
/// byte carriers convert it to a [`WireFaultCause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Uniform data-lane (request) loss.
    Data,
    /// Uniform ack-lane (reply) loss.
    Ack,
    /// Gilbert–Elliott burst loss.
    Burst,
    /// A scheduled link-down window.
    LinkDown,
}

impl DropReason {
    /// Every cause, in discriminant order (per-cause counters are arrays
    /// indexed by `cause as usize`).
    pub const ALL: [DropReason; 4] = [
        DropReason::Data,
        DropReason::Ack,
        DropReason::Burst,
        DropReason::LinkDown,
    ];

    /// Stable short label.
    pub const fn label(self) -> &'static str {
        match self {
            DropReason::Data => "data",
            DropReason::Ack => "ack",
            DropReason::Burst => "burst",
            DropReason::LinkDown => "link_down",
        }
    }
}

/// What the wire-layer chaos plane did to a frame: the four
/// [`DropReason`]s under the byte world's names, plus the four abuses only
/// a byte carrier can commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFaultCause {
    /// Uniform data-lane (request) frame drop.
    Drop,
    /// Uniform ack-lane (reply) frame drop.
    AckDrop,
    /// Gilbert–Elliott burst-loss drop.
    Burst,
    /// A scheduled partition window swallowed the frame.
    Partition,
    /// One frame byte was flipped in flight (the checksum catches it).
    Corrupt,
    /// The frame was delivered twice.
    Duplicate,
    /// The frame was held back a seeded number of cycles.
    Delay,
    /// The frame was deferred one tick so later sends overtake it.
    Reorder,
}

impl WireFaultCause {
    /// Every cause, in discriminant order (used by counters and JSON
    /// reports).
    pub const ALL: [WireFaultCause; 8] = [
        WireFaultCause::Drop,
        WireFaultCause::AckDrop,
        WireFaultCause::Burst,
        WireFaultCause::Partition,
        WireFaultCause::Corrupt,
        WireFaultCause::Duplicate,
        WireFaultCause::Delay,
        WireFaultCause::Reorder,
    ];

    /// Stable short label.
    pub const fn label(self) -> &'static str {
        match self {
            WireFaultCause::Drop => "drop",
            WireFaultCause::AckDrop => "ack_drop",
            WireFaultCause::Burst => "burst",
            WireFaultCause::Partition => "partition",
            WireFaultCause::Corrupt => "corrupt",
            WireFaultCause::Duplicate => "duplicate",
            WireFaultCause::Delay => "delay",
            WireFaultCause::Reorder => "reorder",
        }
    }
}

impl From<DropReason> for WireFaultCause {
    fn from(reason: DropReason) -> Self {
        match reason {
            DropReason::Data => WireFaultCause::Drop,
            DropReason::Ack => WireFaultCause::AckDrop,
            DropReason::Burst => WireFaultCause::Burst,
            DropReason::LinkDown => WireFaultCause::Partition,
        }
    }
}

/// How a bulk dialog ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DialogEnd {
    /// Normal exit: the sender flagged its last packet and the final ack
    /// arrived (sender side), or the exit packet streamed through
    /// (receiver side).
    Exit,
    /// The sender's retry budget tore the dialog down mid-window.
    TornDown,
    /// The receiver reclaimed a granted slot after its sender went silent.
    Reclaimed,
}

impl DialogEnd {
    /// Stable short label.
    pub const fn label(self) -> &'static str {
        match self {
            DialogEnd::Exit => "exit",
            DialogEnd::TornDown => "torn_down",
            DialogEnd::Reclaimed => "reclaimed",
        }
    }
}

/// One protocol transition. The `node` on the enclosing [`TraceEvent`] is
/// the unit that observed the transition (sender-side events carry the
/// sender, receiver-side events the receiver, fabric events the receiving
/// edge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A scalar data packet left the pool for the fabric.
    ScalarSend {
        /// Destination node.
        dst: NodeId,
        /// Packet length in words.
        size_words: u16,
    },
    /// A bulk-mode data packet left the pool for the fabric.
    BulkSend {
        /// Destination node (the dialog peer).
        dst: NodeId,
        /// Wire dialog id.
        dialog: u8,
        /// Wire sequence number.
        seq: u8,
        /// This packet carries the bulk-exit flag.
        exit: bool,
    },
    /// A standalone acknowledgment was injected on the reply lane.
    AckSend {
        /// Node being acknowledged.
        dst: NodeId,
    },
    /// A scalar packet became outstanding (OPT entry created).
    OptInsert {
        /// Destination of the outstanding packet.
        dst: NodeId,
        /// OPT occupancy after the insert.
        occupancy: u32,
    },
    /// A scalar ack cleared an OPT entry.
    OptClear {
        /// Destination whose entry cleared.
        dst: NodeId,
        /// OPT occupancy after the clear.
        occupancy: u32,
    },
    /// The unit had pool packets and a free injection slot but nothing was
    /// eligible (every destination blocked on the OPT, window, or FIFO
    /// order) — the protocol's own admission control stalling the sender.
    EligStall {
        /// Pool occupancy at the stall.
        pool: u32,
        /// OPT occupancy at the stall.
        opt: u32,
    },
    /// A scalar packet carried a bulk-dialog request bit.
    BulkRequest {
        /// Requested peer.
        dst: NodeId,
    },
    /// Sender side: a grant arrived and the outgoing dialog opened.
    DialogOpen {
        /// Granting receiver.
        peer: NodeId,
        /// Granted dialog slot.
        dialog: u8,
        /// Granted window size `W`.
        window: u8,
    },
    /// Receiver side: a dialog slot was granted to `peer`.
    DialogGrant {
        /// Requesting sender.
        peer: NodeId,
        /// Slot assigned.
        dialog: u8,
    },
    /// Receiver side: a bulk request was rejected (all `D` slots busy).
    DialogReject {
        /// Rejected sender.
        peer: NodeId,
    },
    /// Sender side: a cumulative bulk ack advanced the window.
    WindowAdvance {
        /// Dialog peer.
        peer: NodeId,
        /// Wire dialog id.
        dialog: u8,
        /// Absolute packets acknowledged after the advance.
        acked: u64,
        /// Packets still unacknowledged after the advance.
        outstanding: u64,
    },
    /// A bulk dialog closed.
    DialogClose {
        /// Dialog peer.
        peer: NodeId,
        /// Wire dialog id.
        dialog: u8,
        /// How it ended.
        end: DialogEnd,
    },
    /// A retransmission timer fired and the copy was staged.
    Retransmit {
        /// Destination being retried.
        dst: NodeId,
        /// The RTO value (cycles) armed for the *next* wait.
        rto: u64,
        /// Retransmissions of this packet so far (including this one).
        retries: u32,
        /// The copy belongs to a bulk dialog.
        bulk: bool,
        /// Wire sequence number of the retried bulk copy (`seq mod 256`);
        /// zero for scalar retransmissions, which need no sequence — the
        /// OPT admits at most one outstanding scalar per destination.
        seq: u8,
    },
    /// An RTT sample fed the per-destination estimator (adaptive RTO).
    RttSample {
        /// Destination measured.
        dst: NodeId,
        /// The raw round-trip sample, cycles.
        rtt: u64,
        /// Smoothed RTT after the sample.
        srtt: u64,
        /// Suggested RTO after the sample.
        rto: u64,
    },
    /// A transfer was abandoned after exhausting its retry budget.
    DeliveryFail {
        /// Unreachable destination.
        dst: NodeId,
        /// Retries attempted before giving up.
        retries: u32,
    },
    /// The fabric dropped a packet at the receiving edge.
    Drop {
        /// Sending node.
        src: NodeId,
        /// Destination node (the edge that dropped).
        dst: NodeId,
        /// The packet travelled on the reply (ack) lane.
        ack: bool,
        /// Which loss model fired.
        cause: DropReason,
    },
    /// The fabric completed delivery of a packet to a node's ready queue.
    Deliver {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// The packet travelled on the reply (ack) lane.
        ack: bool,
        /// Injection-to-delivery latency, cycles.
        latency: u64,
    },
    /// Receiver side: a scalar data packet was accepted into the arrivals
    /// FIFO. Emitted by the protocol unit itself — identically over the
    /// simulated fabric and the byte wire — so it is the
    /// carrier-independent delivery point journey stitching keys on.
    ScalarAccept {
        /// Sending node.
        src: NodeId,
    },
    /// Receiver side: an in-order bulk packet streamed from its dialog's
    /// reorder buffer into the arrivals FIFO (the bulk delivery point,
    /// carrier-independent like [`EventKind::ScalarAccept`]).
    BulkAccept {
        /// Sending node (the dialog peer).
        src: NodeId,
        /// Wire dialog id.
        dialog: u8,
        /// Wire sequence number of the accepted packet.
        seq: u8,
        /// The packet carried the bulk-exit flag.
        exit: bool,
    },
    /// A transport (loopback, UDP) put an encoded frame on the wire.
    FrameSend {
        /// Destination node of the frame.
        dst: NodeId,
        /// The frame travelled on the reply (ack) lane.
        ack: bool,
        /// Encoded frame length in bytes.
        bytes: u32,
    },
    /// A transport received and decoded a frame.
    FrameRecv {
        /// Source node the decoder attributed the frame to (for bulk
        /// frames this is the dialog peer, re-substituted per §3).
        src: NodeId,
        /// The frame travelled on the reply (ack) lane.
        ack: bool,
        /// Encoded frame length in bytes.
        bytes: u32,
    },
    /// A transport received bytes that failed to decode (corruption, a
    /// foreign datagram, or a truncated read) and discarded them.
    FrameReject {
        /// Length of the rejected byte string.
        bytes: u32,
    },
    /// A stall watchdog tripped for a unit.
    WatchdogFire {
        /// The wedged unit (node index).
        unit: u32,
        /// Cycle of the last observed progress.
        since: Cycle,
        /// The frozen progress fingerprint.
        fingerprint: u64,
    },
    /// The wire chaos plane injected a fault into a frame.
    WireFault {
        /// Which fault model fired.
        cause: WireFaultCause,
        /// Length of the affected frame in bytes.
        bytes: u32,
    },
    /// A liveness heartbeat was sent to (or received from) a peer.
    Heartbeat {
        /// The peer the heartbeat names.
        peer: NodeId,
        /// The announcing endpoint's incarnation epoch.
        epoch: u32,
        /// `true` when this node sent the heartbeat, `false` on receive.
        sent: bool,
    },
    /// A supervised endpoint declared a peer dead after heartbeat silence.
    PeerDown {
        /// The silent peer.
        peer: NodeId,
        /// Cycles since the peer was last heard from.
        silent_for: u64,
    },
    /// A peer's heartbeat epoch jumped: it crashed and restarted, and its
    /// dialog state toward this node is gone.
    PeerRestart {
        /// The restarted peer.
        peer: NodeId,
        /// The peer's new incarnation epoch.
        epoch: u32,
    },
    /// A supervisor restarted its endpoint after a crash, with backoff.
    EndpointRestart {
        /// The new incarnation's epoch.
        epoch: u32,
        /// Backoff waited before this restart, in cycles.
        backoff: u64,
    },
}

impl EventKind {
    /// Number of `EventKind` variants. Kept next to the enum; the
    /// exporter-coverage fixture (`tests/exporter_coverage.rs`) matches
    /// every variant exhaustively and cross-checks this count.
    pub const VARIANT_COUNT: usize = 28;

    /// Stable event name (JSONL `ev` field and Perfetto slice name).
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::ScalarSend { .. } => "scalar_send",
            EventKind::BulkSend { .. } => "bulk_send",
            EventKind::AckSend { .. } => "ack_send",
            EventKind::OptInsert { .. } => "opt_insert",
            EventKind::OptClear { .. } => "opt_clear",
            EventKind::EligStall { .. } => "elig_stall",
            EventKind::BulkRequest { .. } => "bulk_request",
            EventKind::DialogOpen { .. } => "dialog_open",
            EventKind::DialogGrant { .. } => "dialog_grant",
            EventKind::DialogReject { .. } => "dialog_reject",
            EventKind::WindowAdvance { .. } => "window_advance",
            EventKind::DialogClose { .. } => "dialog_close",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::RttSample { .. } => "rtt_sample",
            EventKind::DeliveryFail { .. } => "delivery_fail",
            EventKind::Drop { .. } => "drop",
            EventKind::Deliver { .. } => "deliver",
            EventKind::ScalarAccept { .. } => "scalar_accept",
            EventKind::BulkAccept { .. } => "bulk_accept",
            EventKind::FrameSend { .. } => "frame_send",
            EventKind::FrameRecv { .. } => "frame_recv",
            EventKind::FrameReject { .. } => "frame_reject",
            EventKind::WatchdogFire { .. } => "watchdog_fire",
            EventKind::WireFault { .. } => "wire_fault",
            EventKind::Heartbeat { .. } => "heartbeat",
            EventKind::PeerDown { .. } => "peer_down",
            EventKind::PeerRestart { .. } => "peer_restart",
            EventKind::EndpointRestart { .. } => "endpoint_restart",
        }
    }

    /// Rare events bypass sampling: they are cheap in aggregate and exactly
    /// the ones post-mortems need (drops, failures, dialog lifecycle,
    /// retransmissions, watchdog trips). Frequent per-packet events
    /// (sends, OPT churn, deliveries) honor the configured sampling stride.
    pub const fn is_rare(&self) -> bool {
        matches!(
            self,
            EventKind::BulkRequest { .. }
                | EventKind::DialogOpen { .. }
                | EventKind::DialogGrant { .. }
                | EventKind::DialogReject { .. }
                | EventKind::DialogClose { .. }
                | EventKind::Retransmit { .. }
                | EventKind::DeliveryFail { .. }
                | EventKind::Drop { .. }
                | EventKind::FrameReject { .. }
                | EventKind::WatchdogFire { .. }
                | EventKind::WireFault { .. }
                | EventKind::PeerDown { .. }
                | EventKind::PeerRestart { .. }
                | EventKind::EndpointRestart { .. }
        )
    }
}

/// One recorded event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Global record sequence number (stable tiebreak for same-cycle events).
    pub seq: u64,
    /// Simulation cycle the event occurred at.
    pub at: Cycle,
    /// Unit that observed the event.
    pub node: NodeId,
    /// The transition.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} n{:03}] {:?}", self.at, self.node.index(), self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let kinds = [
            EventKind::ScalarSend {
                dst: NodeId::new(1),
                size_words: 8,
            },
            EventKind::Drop {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                ack: false,
                cause: DropReason::Burst,
            },
            EventKind::WatchdogFire {
                unit: 3,
                since: Cycle::ZERO,
                fingerprint: 0,
            },
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["scalar_send", "drop", "watchdog_fire"]);
    }

    #[test]
    fn rarity_covers_the_postmortem_set() {
        assert!(EventKind::Drop {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            ack: true,
            cause: DropReason::Ack,
        }
        .is_rare());
        assert!(!EventKind::ScalarSend {
            dst: NodeId::new(1),
            size_words: 8
        }
        .is_rare());
    }

    #[test]
    fn drop_reason_labels_are_distinct() {
        let mut labels: Vec<_> = DropReason::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DropReason::ALL.len());
    }
}
