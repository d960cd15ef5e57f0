//! The NIFDY unit: admission control and in-order delivery at the network
//! edge.
//!
//! Protocol summary (§2 of the paper):
//!
//! * **Scalar mode.** At most one unacknowledged packet per destination.
//!   Destinations with an outstanding packet are held in the *outstanding
//!   packet table* (OPT, `O` entries). Outbound packets wait in a pool of
//!   `B` buffers; a packet is *eligible* when no earlier packet to the same
//!   destination is waiting or outstanding (the paper's rank/eligibility
//!   unit, realized here as FIFO-per-destination ordering — observably
//!   identical behaviour).
//! * **Bulk dialogs.** A sender piggybacks a bulk request on a scalar
//!   packet; the receiver grants at most `D` dialogs, each with `W` reorder
//!   buffers. Bulk packets carry `{seq, dialog}`; in-order packets stream
//!   through, out-of-order ones wait in the window. One combined ack per
//!   `W/2` delivered packets. The sender exits by flagging the last packet.
//! * **Acks** travel on the reply network and are consumed by the NIFDY
//!   unit. Scalar packets are acked when the processor *accepts* them
//!   (footnote 2's ack-on-insert variant is available for ablation).
//! * **§6.2 extension.** With a retransmission timeout configured, the unit
//!   keeps a copy and a timer per outstanding packet, retransmits on
//!   timeout, and receivers discard duplicates via an alternating header bit
//!   (scalar) or the window sequence numbers (bulk).
//! * **Adaptive RTO.** With [`NifdyConfig::adaptive_rto`] set, the fixed
//!   timeout becomes only the initial RTO: the unit keeps a per-destination
//!   [`RttEstimator`], applies Karn's rule, backs off exponentially with a
//!   jittered cap, and — when a [`retx_budget`](NifdyConfig::retx_budget) is
//!   configured — abandons undeliverable transfers with a typed
//!   [`DeliveryFailure`] instead of retrying forever.
//!
//! Storage is the paper's: every queue, the OPT and the `D × W` reorder
//! buffers are sized once in [`NifdyUnit::new`]. Only first use grows
//! anything afterwards: the per-peer table gains a record per new peer, and
//! the deque of the outgoing window's §6.2 copies reaches the granted
//! window during the first dialog and is reused by every later one.

use std::collections::{BTreeMap, VecDeque};

use nifdy_net::{AckInfo, BulkGrant, BulkTag, Lane, NetPort, Packet, Wire};
use nifdy_sim::{Cycle, NodeId, PacketId, SimRng, Wakeup};
use nifdy_trace::{trace_event, DialogEnd, EventKind, TraceHandle};

use crate::config::{NifdyConfig, ARRIVALS_CAPACITY};
use crate::nic::{
    Delivered, DeliveryFailure, FailureKind, Nic, NicOccupancy, NicStats, OutboundPacket,
};
use crate::rto::{RttEstimator, RTO_MAX, RTO_MIN};

/// Sequence numbers travel on the wire modulo this space (the paper notes
/// they "need only be as large as W"; we carry a byte and document that
/// hardware would use `log2(2W)` bits).
const SEQ_SPACE: u64 = 256;

/// Cycles of NIFDY processing charged at each end of an ack: "we will
/// assume that the NIFDY processing takes 2 cycles at each end, for a total
/// of `T_ackproc = 4`" (paper Table 1).
const ACK_PROC_CYCLES: u64 = 2;

/// How long a ready ack may wait for same-destination data to piggyback on
/// (§6.1) before it is sent standalone: about one mesh round trip, so the
/// optimization can at most double an ack's latency.
const PIGGYBACK_HOLD_CYCLES: u64 = 64;

/// Queued packets for the same destination, beyond the current one, that a
/// software `want_bulk` needs before the request bit goes on the wire: one,
/// so no dialog is granted to a sender with nothing left to send (the paper
/// leaves the request policy to software, §2.2).
const BULK_REQUEST_MIN_BACKLOG: usize = 1;

/// `SimRng` stream id of the retransmission-jitter generator (seeded by the
/// node index, so units never share a jitter sequence).
const JITTER_STREAM: u64 = 0x717;

/// Bound on the retransmission staging queue, in packets. When it is full,
/// a firing timer leaves its entry in place (it re-fires next cycle) and
/// the overflow is counted in [`NicStats::retx_queue_overflow`].
const RETX_QUEUE_CAP: usize = 64;

/// The §6.2 retransmission timer of one unacknowledged packet, scalar or
/// bulk; [`NifdyUnit::fire_timer`] is the only code that runs one.
#[derive(Debug)]
struct RetxTimer {
    /// When the original transmission was staged (RTT sampling base).
    first_sent: Cycle,
    /// When the packet — or its most recent retransmission — was staged.
    last_sent: Cycle,
    /// Retransmissions so far (Karn's rule: sample RTT only when zero).
    retries: u32,
    /// Cycles after `last_sent` at which the timer fires.
    wait: u64,
    /// Copy kept for retransmission (§6.2 only: a unit without a
    /// `retx_timeout` clones nothing, and a timer without a copy never
    /// fires).
    copy: Option<Packet>,
}

impl RetxTimer {
    /// The timer of a packet staged for the first time at `now`.
    fn start(now: Cycle, wait: u64, copy: Option<Packet>) -> Self {
        RetxTimer {
            first_sent: now,
            last_sent: now,
            retries: 0,
            wait,
            copy,
        }
    }
}

/// An entry in the outstanding packet table.
#[derive(Debug)]
struct OptEntry {
    dst: NodeId,
    /// The packet's alternating duplicate bit; an arriving scalar ack clears
    /// this entry only when its echo matches (stale re-acks for an earlier
    /// packet must not release a newer, possibly-lost one).
    dup_bit: bool,
    timer: RetxTimer,
}

/// An unacknowledged bulk packet held for retransmission.
#[derive(Debug)]
struct BulkCopy {
    /// Absolute sequence number.
    seq: u64,
    timer: RetxTimer,
}

/// Sender-side state of the single outgoing bulk dialog. Its unacked
/// copies live in [`NifdyUnit::copies`].
#[derive(Debug)]
struct OutDialog {
    peer: NodeId,
    dialog: u8,
    window: u8,
    /// Absolute count of bulk packets sent.
    next_seq: u64,
    /// Absolute count of bulk packets acknowledged.
    acked: u64,
    /// The exit packet has been sent; no further traffic to `peer` until the
    /// dialog fully drains (preserves pairwise order).
    exiting: bool,
}

/// One of the `D` receive slots.
#[derive(Debug)]
enum Slot {
    Free,
    Live(InDialog),
    /// Tombstone of a recently closed dialog (lossy-network robustness: late
    /// retransmissions of the tail still get their final ack re-sent). The
    /// slot is free for a new grant once `until` has passed.
    Closed {
        peer: NodeId,
        final_count: u64,
        until: Cycle,
    },
}

impl Slot {
    fn live(&self) -> Option<&InDialog> {
        match self {
            Slot::Live(d) => Some(d),
            Slot::Free | Slot::Closed { .. } => None,
        }
    }
}

/// Receiver-side state of one granted dialog slot. Slot `s` buffers its
/// out-of-order packets in `NifdyUnit::window[s·W .. (s+1)·W]`, absolute
/// sequence `n` at offset `n mod W`.
#[derive(Debug)]
struct InDialog {
    peer: NodeId,
    /// Absolute count of packets delivered in order (== next expected seq).
    expected: u64,
    /// `expected mod W`, advanced by compare-and-wrap so the datapath
    /// never divides.
    head: usize,
    /// Delivered count as of the last window ack sent.
    last_acked: u64,
    /// Last cycle any packet of this dialog arrived (reclaim watchdog).
    last_activity: Cycle,
}

/// Everything the unit remembers about one peer, in both roles.
#[derive(Debug, Default)]
struct Peer {
    /// Sender: the §6.2 alternating bit of the last scalar packet launched
    /// to the peer.
    alt_bit: bool,
    /// Sender: the outgoing bulk dialog to the peer was torn down by the
    /// retry budget, so traffic stays scalar (a fresh dialog against the
    /// receiver's stale slot state could not resynchronize).
    bulk_poisoned: bool,
    /// Sender: round-trip estimator (adaptive RTO only).
    rtt: RttEstimator,
    /// Receiver: the dialog slot granted to the peer.
    dialog: Option<u8>,
    /// Receiver: duplicate bit of the last scalar packet inserted from the
    /// peer, and of the last one acknowledged (§6.2 only).
    last_insert_bit: Option<bool>,
    last_acked_bit: Option<bool>,
}

/// A queued acknowledgment, charged the NIFDY processing latency.
#[derive(Debug)]
struct PendingAck {
    dst: NodeId,
    info: AckInfo,
    ready_at: Cycle,
}

/// The NIFDY network interface unit.
///
/// # Examples
///
/// Two units exchanging a packet over a small mesh:
///
/// ```
/// use nifdy::{Nic, NifdyConfig, NifdyUnit, OutboundPacket};
/// use nifdy_net::topology::Mesh;
/// use nifdy_net::{Fabric, FabricConfig};
/// use nifdy_sim::NodeId;
///
/// let mut fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
/// let mut a = NifdyUnit::new(NodeId::new(0), NifdyConfig::mesh());
/// let mut b = NifdyUnit::new(NodeId::new(3), NifdyConfig::mesh());
/// assert!(a.try_send(OutboundPacket::new(NodeId::new(3), 8), fab.now()));
/// let got = loop {
///     a.step(&mut fab);
///     b.step(&mut fab);
///     fab.step();
///     if let Some(d) = b.poll(fab.now()) {
///         break d;
///     }
///     assert!(fab.now().as_u64() < 10_000);
/// };
/// assert_eq!(got.src, NodeId::new(0));
/// ```
#[derive(Debug)]
pub struct NifdyUnit {
    node: NodeId,
    cfg: NifdyConfig,
    now: Cycle,
    pkt_counter: u64,
    peers: BTreeMap<NodeId, Peer>,

    // Sender side.
    pool: VecDeque<OutboundPacket>,
    opt: Vec<OptEntry>,
    out_dialog: Option<OutDialog>,
    /// Unacked copies of the outgoing dialog, in sequence order; empty
    /// whenever `out_dialog` is `None` (the storage is kept for the next).
    copies: VecDeque<BulkCopy>,
    bulk_request_pending: Option<NodeId>,
    retx_queue: VecDeque<Packet>,
    /// Jitter source for the retransmission backoff.
    jitter: SimRng,
    /// Typed failures awaiting [`Nic::take_failures`].
    failures: Vec<DeliveryFailure>,

    // Receiver side.
    arrivals: VecDeque<Packet>,
    dialogs: Vec<Slot>,
    /// The `D × W` reorder buffers (see [`InDialog`]).
    window: Vec<Option<Packet>>,
    ack_queue: VecDeque<PendingAck>,
    ack_delay: VecDeque<(Cycle, NodeId, AckInfo)>,

    trace: TraceHandle,
    /// True while an eligibility stall episode is in progress (the stall
    /// trace event is edge-triggered on entry to this state).
    elig_stalled: bool,
    /// Cached [`Nic::next_event`] answer, recomputed at the end of every
    /// full [`Nic::step`].
    next_wake: Wakeup,
    /// Set whenever unit state changes outside `step` (a send, a poll, a
    /// peer reset) — the cached `next_wake` may then be too late.
    wake_stale: bool,
    stats: NicStats,
}

impl NifdyUnit {
    /// Creates a NIFDY unit for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NifdyConfig::validate`].
    pub fn new(node: NodeId, cfg: NifdyConfig) -> Self {
        #[expect(clippy::panic, reason = "documented panic on an invalid config")]
        if let Err(e) = cfg.validate() {
            panic!("invalid NIFDY config: {e}");
        }
        let (d, w) = (usize::from(cfg.max_dialogs), usize::from(cfg.window));
        NifdyUnit {
            node,
            now: Cycle::ZERO,
            pkt_counter: 0,
            peers: BTreeMap::new(),
            pool: VecDeque::with_capacity(cfg.pool_entries as usize),
            opt: Vec::with_capacity(cfg.opt_entries as usize),
            out_dialog: None,
            copies: VecDeque::new(),
            bulk_request_pending: None,
            retx_queue: VecDeque::with_capacity(RETX_QUEUE_CAP),
            jitter: SimRng::from_seed_stream(node.index() as u64, JITTER_STREAM),
            failures: Vec::new(),
            arrivals: VecDeque::with_capacity(ARRIVALS_CAPACITY),
            dialogs: (0..d).map(|_| Slot::Free).collect(),
            window: (0..d * w).map(|_| None).collect(),
            ack_queue: VecDeque::with_capacity(2 * ARRIVALS_CAPACITY),
            ack_delay: VecDeque::with_capacity(2 * ARRIVALS_CAPACITY),
            trace: TraceHandle::off(),
            elig_stalled: false,
            next_wake: Wakeup::Now,
            wake_stale: true,
            stats: NicStats::default(),
            cfg,
        }
    }

    /// The configuration this unit runs with.
    pub fn config(&self) -> &NifdyConfig {
        &self.cfg
    }

    /// Number of scalar packets currently outstanding (OPT occupancy).
    pub fn opt_occupancy(&self) -> usize {
        self.opt.len()
    }

    /// Whether this unit currently holds an outgoing bulk dialog.
    pub fn in_bulk_dialog(&self) -> bool {
        self.out_dialog.is_some()
    }

    /// `(unacknowledged, window)` of the outgoing bulk dialog, if any.
    /// The protocol invariant `unacknowledged <= window` always holds.
    pub fn bulk_outstanding(&self) -> Option<(u64, u8)> {
        self.out_dialog
            .as_ref()
            .map(|d| (d.next_seq - d.acked, d.window))
    }

    /// Smoothed round-trip estimate to `dst` in cycles, once adaptive RTO
    /// has collected at least one sample.
    pub fn srtt(&self, dst: NodeId) -> Option<u64> {
        self.peers.get(&dst).and_then(|p| p.rtt.srtt())
    }

    /// True when a torn-down bulk dialog has downgraded traffic to `dst` to
    /// scalar-only mode.
    pub fn bulk_poisoned(&self, dst: NodeId) -> bool {
        self.peers.get(&dst).is_some_and(|p| p.bulk_poisoned)
    }

    /// Timeout for a *fresh* transmission to `peer`: the configured fixed
    /// value, or the per-destination RFC 6298-style estimate clamped to
    /// `[RTO_MIN, RTO_MAX]` when adaptive RTO is on. (Takes the record, not
    /// the id, so a caller that already looked the peer up does not again.)
    fn fresh_rto(cfg: &NifdyConfig, peer: Option<&Peer>) -> u64 {
        let base = cfg.retx_timeout.unwrap_or(0);
        if !cfg.adaptive_rto {
            return base;
        }
        peer.and_then(|p| p.rtt.rto())
            .map_or(base, |r| r.clamp(RTO_MIN, RTO_MAX))
    }

    /// Timeout for the retransmission after `retries` attempts: exponential
    /// backoff saturating at `RTO_MAX`, plus up to 1/8 jitter so synchronized
    /// senders de-correlate. The legacy fixed-timeout path has neither.
    fn backoff_rto(&mut self, dst: NodeId, retries: u32) -> u64 {
        let rto = Self::fresh_rto(&self.cfg, self.peers.get(&dst));
        if !self.cfg.adaptive_rto {
            return rto;
        }
        let capped = rto.saturating_mul(1u64 << retries.min(10)).min(RTO_MAX);
        capped + self.jitter.gen_range_u64(0..capped / 8 + 1)
    }

    /// Feeds the round trip of a just-acknowledged packet to `dst`'s
    /// estimator — unless the packet was ever retransmitted (Karn's rule:
    /// such an ack is ambiguous).
    fn sample_rtt(&mut self, dst: NodeId, acked: &RetxTimer) {
        if !self.cfg.adaptive_rto || acked.retries > 0 {
            return;
        }
        let rtt = self.now.saturating_since(acked.first_sent);
        let est = &mut self.peers.entry(dst).or_default().rtt;
        est.sample(rtt);
        let (srtt, rto) = (est.srtt().unwrap_or(0), est.rto().unwrap_or(0));
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::RttSample {
                dst,
                rtt,
                srtt,
                rto,
            }
        );
    }

    /// The longest a sender lets one packet go without a (re)transmission:
    /// adaptive senders back off as far as `RTO_MAX`, fixed ones never past
    /// the timeout; zero without §6.2 (which adaptive RTO requires).
    fn retx_horizon(&self) -> u64 {
        if self.cfg.adaptive_rto {
            RTO_MAX
        } else {
            self.cfg.retx_timeout.unwrap_or(0)
        }
    }

    /// Silence after which a granted dialog is reclaimed — longer than any
    /// retransmission schedule could span. `None` without both a timeout
    /// and a retry budget (an unbudgeted sender never gives up).
    fn reclaim_limit(&self) -> Option<u64> {
        let budget = self.cfg.retx_timeout.and(self.cfg.retx_budget)?;
        Some(self.retx_horizon().saturating_mul(u64::from(budget) + 4))
    }

    fn next_packet_id(&mut self) -> PacketId {
        self.pkt_counter += 1;
        PacketId::new(((self.node.index() as u64) << 40) | self.pkt_counter)
    }

    /// Queued pool packets destined to `dst`.
    fn backlog_for(&self, dst: NodeId) -> usize {
        self.pool.iter().filter(|p| p.dst == dst).count()
    }

    fn queue_ack(&mut self, dst: NodeId, info: AckInfo) {
        self.ack_queue.push_back(PendingAck {
            dst,
            info,
            ready_at: self.now + ACK_PROC_CYCLES,
        });
    }

    /// Queues the cumulative ack for `count` packets delivered in `dialog`.
    /// With nothing delivered yet there is nothing to acknowledge.
    fn queue_bulk_ack(&mut self, peer: NodeId, dialog: u8, count: u64, terminate: bool) {
        if count > 0 {
            let info = AckInfo::Bulk {
                dialog,
                cum_seq: ((count - 1) % SEQ_SPACE) as u8,
                terminate,
            };
            self.queue_ack(peer, info);
        }
    }

    /// Feeds an arriving acknowledgment into the processing delay line.
    fn delay_ack(&mut self, from: NodeId, info: AckInfo) {
        let ready = self.now + ACK_PROC_CYCLES;
        self.ack_delay.push_back((ready, from, info));
    }

    /// Receiver-side bulk-grant decision for a scalar packet from `src` with
    /// the given request bit.
    fn decide_grant(&mut self, requested: bool, src: NodeId) -> BulkGrant {
        if !requested {
            return BulkGrant::NotRequested;
        }
        // A peer that already holds a slot is re-granted it (duplicate
        // request after a lost ack); anyone else needs a free one.
        let held = self.peers.get(&src).and_then(|p| p.dialog);
        let dialog = match held {
            Some(dialog) => dialog,
            None => {
                let free = self.dialogs.iter().position(|s| match s {
                    Slot::Free => true,
                    Slot::Live(_) => false,
                    Slot::Closed { until, .. } => *until <= self.now,
                });
                let Some(slot) = free else {
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::DialogReject { peer: src }
                    );
                    return BulkGrant::Rejected;
                };
                self.dialogs[slot] = Slot::Live(InDialog {
                    peer: src,
                    expected: 0,
                    head: 0,
                    last_acked: 0,
                    last_activity: self.now,
                });
                let dialog = slot as u8;
                self.peers.entry(src).or_default().dialog = Some(dialog);
                self.stats.dialogs_granted.incr();
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::DialogGrant { peer: src, dialog }
                );
                dialog
            }
        };
        BulkGrant::Granted {
            dialog,
            window: self.cfg.window,
        }
    }

    /// Closes receive slot `slot`. `reclaimed` marks a close the sender
    /// did not ask for (counted and traced as such); `tombstone` leaves a
    /// [`Slot::Closed`] behind so late retransmissions of the tail are
    /// still re-acked. Out-of-order packets still buffered are dropped —
    /// their gap can never be filled — so the next dialog granted this slot
    /// finds its `W` buffers empty.
    fn close_slot(&mut self, slot: usize, reclaimed: bool, tombstone: bool) {
        let Some(d) = self.dialogs.get(slot).and_then(Slot::live) else {
            return;
        };
        let (peer, final_count) = (d.peer, d.expected);
        if reclaimed {
            self.stats.dialogs_reclaimed.incr();
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::DialogClose {
                    peer,
                    dialog: slot as u8,
                    end: DialogEnd::Reclaimed,
                }
            );
        }
        self.dialogs[slot] = if tombstone {
            // The tombstone outlives four times the sender's longest silence.
            Slot::Closed {
                peer,
                final_count,
                until: self.now + 4 * self.retx_horizon(),
            }
        } else {
            Slot::Free
        };
        let w = usize::from(self.cfg.window);
        self.window[slot * w..(slot + 1) * w].fill(None);
        if let Some(p) = self.peers.get_mut(&peer) {
            p.dialog = None;
        }
    }

    /// Builds and queues the scalar ack for an accepted data packet.
    fn ack_scalar(&mut self, pkt: &Packet) {
        let Wire::Data {
            bulk_request,
            needs_ack,
            dup_bit,
            ..
        } = pkt.wire
        else {
            return;
        };
        if !needs_ack {
            return;
        }
        let grant = self.decide_grant(bulk_request, pkt.src);
        if self.cfg.retx_timeout.is_some() {
            self.peers.entry(pkt.src).or_default().last_acked_bit = Some(dup_bit);
        }
        self.queue_ack(
            pkt.src,
            AckInfo::Scalar {
                grant,
                echo: dup_bit,
            },
        );
    }

    /// Processes a delayed acknowledgment (sender side).
    fn handle_ack(&mut self, from: NodeId, info: AckInfo) {
        self.stats.acks_received.incr();
        match info {
            AckInfo::Scalar { grant, echo } => {
                if let Some(i) = self
                    .opt
                    .iter()
                    .position(|e| e.dst == from && e.dup_bit == echo)
                {
                    let e = self.opt.swap_remove(i);
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::OptClear {
                            dst: from,
                            occupancy: self.opt.len() as u32,
                        }
                    );
                    self.sample_rtt(from, &e.timer);
                }
                if grant == BulkGrant::NotRequested || self.bulk_request_pending != Some(from) {
                    return;
                }
                // The answer to the request this unit is waiting on.
                self.bulk_request_pending = None;
                match grant {
                    BulkGrant::Granted { dialog, window } if self.out_dialog.is_none() => {
                        self.out_dialog = Some(OutDialog {
                            peer: from,
                            dialog,
                            window,
                            next_seq: 0,
                            acked: 0,
                            exiting: false,
                        });
                        trace_event!(
                            self.trace,
                            self.now,
                            self.node,
                            EventKind::DialogOpen {
                                peer: from,
                                dialog,
                                window,
                            }
                        );
                    }
                    BulkGrant::Granted { .. } | BulkGrant::NotRequested => {}
                    BulkGrant::Rejected => self.stats.dialogs_rejected.incr(),
                }
            }
            AckInfo::Bulk {
                dialog,
                cum_seq,
                terminate,
            } => {
                let Some(d) = self
                    .out_dialog
                    .as_mut()
                    .filter(|d| d.peer == from && d.dialog == dialog)
                else {
                    return; // stale ack after the dialog closed
                };
                // Reconstruct the absolute delivered count from the wire
                // residue: the smallest count > acked congruent to cum+1.
                let target = (u64::from(cum_seq) + 1) % SEQ_SPACE;
                let delta = (target + SEQ_SPACE - (d.acked % SEQ_SPACE)) % SEQ_SPACE;
                let count = d.acked + delta;
                if count > d.next_seq {
                    return; // acknowledges packets never sent: ignore
                }
                let advanced = count > d.acked;
                d.acked = count;
                let outstanding = d.next_seq - count;
                let closed = terminate || (d.exiting && outstanding == 0);
                if advanced {
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::WindowAdvance {
                            peer: from,
                            dialog,
                            acked: count,
                            outstanding,
                        }
                    );
                }
                if closed {
                    self.out_dialog = None;
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::DialogClose {
                            peer: from,
                            dialog,
                            end: DialogEnd::Exit,
                        }
                    );
                }
                while self.copies.front().is_some_and(|c| c.seq < count) {
                    let Some(c) = self.copies.pop_front() else {
                        break;
                    };
                    self.sample_rtt(from, &c.timer);
                }
                if closed {
                    self.copies.clear();
                }
            }
        }
    }

    /// The peer a dialog slot belongs to: the live dialog's sender, or the
    /// tombstoned one for a slot that recently closed. Bulk-mode packets
    /// carry `{seq, dialog}` *in place of* the source-identifier bits (§3),
    /// so on a real wire this lookup — not the header — names the sender.
    fn dialog_peer(&self, slot: usize) -> Option<NodeId> {
        match self.dialogs.get(slot)? {
            Slot::Free => None,
            Slot::Live(InDialog { peer, .. }) | Slot::Closed { peer, .. } => Some(*peer),
        }
    }

    /// Handles an arriving bulk-mode data packet (receiver side).
    fn receive_bulk(&mut self, mut pkt: Packet, tag: BulkTag) {
        let slot = tag.dialog as usize;
        let Some(Slot::Live(d)) = self.dialogs.get_mut(slot) else {
            // Late retransmission for a closed dialog: re-send the final ack.
            if let Some(&Slot::Closed {
                peer, final_count, ..
            }) = self.dialogs.get(slot)
            {
                self.queue_bulk_ack(peer, tag.dialog, final_count, true);
            }
            self.stats.duplicates_dropped.incr();
            return;
        };
        d.last_activity = self.now;
        // Re-substitute the source identifier from the dialog slot. Over the
        // simulated fabric this is a no-op (the struct still carries `src`);
        // over a byte transport the bulk header genuinely lacks the source
        // bits and the decoder fills in a placeholder.
        pkt.src = d.peer;
        let w = usize::from(self.cfg.window);
        let delta =
            ((u64::from(tag.seq) + SEQ_SPACE - (d.expected % SEQ_SPACE)) % SEQ_SPACE) as usize;
        if delta >= w {
            // Duplicate or out-of-window: discard, refresh the cumulative ack.
            self.stats.duplicates_dropped.incr();
            let (peer, expected) = (d.peer, d.expected);
            self.queue_bulk_ack(peer, tag.dialog, expected, false);
            return;
        }
        if delta > 0 {
            self.stats.bulk_out_of_order.incr();
        }
        let at = d.head + delta;
        let buf = &mut self.window[slot * w + if at < w { at } else { at - w }];
        if buf.is_none() {
            *buf = Some(pkt); // a retransmission keeps the first copy
        }
    }

    /// Streams in-order bulk packets to the arrivals FIFO and emits window
    /// acks at half-window boundaries and on dialog exit.
    fn drain_dialogs(&mut self) {
        let w = usize::from(self.cfg.window);
        for slot in 0..self.dialogs.len() {
            loop {
                if self.arrivals.len() >= ARRIVALS_CAPACITY {
                    return;
                }
                let Slot::Live(d) = &mut self.dialogs[slot] else {
                    break;
                };
                let Some(pkt) = self.window[slot * w + d.head].take() else {
                    break;
                };
                d.head = if d.head + 1 < w { d.head + 1 } else { 0 };
                d.expected += 1;
                let exit = matches!(
                    pkt.wire,
                    Wire::Data {
                        bulk_exit: true,
                        ..
                    }
                );
                let peer = d.peer;
                let delivered = d.expected;
                let half = if self.cfg.bulk_ack_every_packet {
                    1
                } else {
                    u64::from(self.cfg.window) / 2
                };
                let boundary = delivered - d.last_acked >= half;
                if boundary {
                    d.last_acked = delivered;
                }
                self.arrivals.push_back(pkt);
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::BulkAccept {
                        src: peer,
                        dialog: slot as u8,
                        seq: ((delivered - 1) % SEQ_SPACE) as u8,
                        exit,
                    }
                );
                if exit || boundary {
                    self.queue_bulk_ack(peer, slot as u8, delivered, false);
                }
                if exit {
                    // The ack above was the final one: free the slot.
                    self.close_slot(slot, false, true);
                    break;
                }
            }
        }
    }

    /// Handles an arriving scalar data packet; returns `false` if the
    /// arrivals FIFO was full and the packet must stay in the fabric.
    fn receive_scalar(&mut self, pkt: Packet) -> bool {
        if self.arrivals.len() >= ARRIVALS_CAPACITY {
            return false;
        }
        let Wire::Data {
            dup_bit,
            needs_ack,
            bulk_request,
            ..
        } = pkt.wire
        else {
            // Acks are consumed on the reply lane; a non-data packet here is
            // a dispatch bug. Swallow it rather than poison the datapath.
            debug_assert!(false, "receive_scalar called with a non-data packet");
            return true;
        };
        let src = pkt.src;
        if self.cfg.retx_timeout.is_some() && needs_ack {
            let peer = self.peers.entry(src).or_default();
            if peer.last_insert_bit == Some(dup_bit) {
                // Duplicate of a packet already inserted; re-ack only if the
                // original was already accepted, otherwise stay silent (the
                // original's ack is still coming).
                self.stats.duplicates_dropped.incr();
                if peer.last_acked_bit == Some(dup_bit) {
                    let grant = self.decide_grant(bulk_request, src);
                    self.queue_ack(
                        src,
                        AckInfo::Scalar {
                            grant,
                            echo: dup_bit,
                        },
                    );
                }
                return true;
            }
            peer.last_insert_bit = Some(dup_bit);
        }
        if self.cfg.ack_on_insert {
            self.ack_scalar(&pkt);
        }
        self.arrivals.push_back(pkt);
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::ScalarAccept { src }
        );
        true
    }

    /// Index of the first eligible pool packet, if any.
    fn pick_eligible(&self) -> Option<usize> {
        'outer: for (i, p) in self.pool.iter().enumerate() {
            // FIFO per destination: an earlier queued packet to the same
            // destination blocks this one (the rank unit's job).
            for q in self.pool.iter().take(i) {
                if q.dst == p.dst {
                    continue 'outer;
                }
            }
            if let Some(d) = &self.out_dialog {
                if d.peer == p.dst {
                    if d.exiting {
                        continue; // preserve order across the dialog close
                    }
                    if d.next_seq - d.acked < u64::from(d.window) {
                        return Some(i);
                    }
                    continue;
                }
            }
            // Scalar path.
            if !p.needs_ack {
                return Some(i); // §6.1 bypass: no OPT interaction
            }
            let outstanding = self.opt.iter().any(|e| e.dst == p.dst);
            if outstanding || self.opt.len() >= self.cfg.opt_entries as usize {
                continue;
            }
            return Some(i);
        }
        None
    }

    /// Builds the wire packet for pool entry `i` and records protocol
    /// state. Returns `None` when `i` is out of range (callers pass indices
    /// from [`Self::pick_eligible`], so this is a defensive no-op).
    fn launch(&mut self, i: usize) -> Option<Packet> {
        let out = self.pool.remove(i)?;
        let id = self.next_packet_id();
        let mut pkt = Packet::data(id, self.node, out.dst, out.size_words);
        pkt.user = out.user;
        pkt.stamp.created = self.now;
        let retx = self.cfg.retx_timeout.is_some();

        // §6.1: carry a pending ack for this destination instead of sending
        // a standalone ack packet. No readiness check: the ack fields are
        // computed while the data packet serializes, which takes longer than
        // the NIFDY processing delay.
        let piggy = if self.cfg.piggyback_acks {
            self.ack_queue
                .iter()
                .position(|a| a.dst == out.dst)
                .and_then(|idx| self.ack_queue.remove(idx))
                .map(|a| {
                    self.stats.acks_piggybacked.incr();
                    a.info
                })
        } else {
            None
        };

        // Claim the bulk slot in one borrow: the dialog id and the next
        // sequence number are all the rest of the branch needs.
        let bulk_fields = match self.out_dialog.as_mut() {
            Some(d) if d.peer == out.dst && !d.exiting => {
                d.next_seq += 1;
                d.exiting = self.pool.iter().all(|q| q.dst != out.dst);
                Some((d.dialog, d.next_seq - 1, d.exiting))
            }
            _ => None,
        };
        if let Some((dialog, abs, exit)) = bulk_fields {
            let seq = (abs % SEQ_SPACE) as u8;
            pkt.wire = Wire::Data {
                bulk_request: false,
                bulk_exit: exit,
                bulk: Some(BulkTag { dialog, seq }),
                needs_ack: true,
                dup_bit: false,
                piggy_ack: piggy,
            };
            if retx {
                // The window admitted this send, and acked copies are
                // pruned on ack receipt, so the copies fit the window.
                let wait = Self::fresh_rto(&self.cfg, self.peers.get(&out.dst));
                self.copies.push_back(BulkCopy {
                    seq: abs,
                    timer: RetxTimer::start(self.now, wait, Some(pkt.clone())),
                });
            }
            self.stats.sent_bulk.incr();
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::BulkSend {
                    dst: out.dst,
                    dialog,
                    seq,
                    exit,
                }
            );
        } else {
            let peer = self.peers.entry(out.dst).or_default();
            let wait = Self::fresh_rto(&self.cfg, Some(&*peer));
            let poisoned = peer.bulk_poisoned;
            if retx {
                peer.alt_bit = !peer.alt_bit;
            }
            let dup_bit = retx && peer.alt_bit;
            let request = out.want_bulk
                && self.out_dialog.is_none()
                && self.bulk_request_pending.is_none()
                && !poisoned
                && self.backlog_for(out.dst) >= BULK_REQUEST_MIN_BACKLOG;
            pkt.wire = Wire::Data {
                bulk_request: request,
                bulk_exit: false,
                bulk: None,
                needs_ack: out.needs_ack,
                dup_bit,
                piggy_ack: piggy,
            };
            if out.needs_ack {
                self.opt.push(OptEntry {
                    dst: out.dst,
                    dup_bit,
                    timer: RetxTimer::start(self.now, wait, retx.then(|| pkt.clone())),
                });
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::OptInsert {
                        dst: out.dst,
                        occupancy: self.opt.len() as u32,
                    }
                );
            }
            if request {
                self.bulk_request_pending = Some(out.dst);
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::BulkRequest { dst: out.dst }
                );
            }
            trace_event!(
                self.trace,
                self.now,
                self.node,
                EventKind::ScalarSend {
                    dst: out.dst,
                    size_words: out.size_words,
                }
            );
        }
        self.stats.sent.incr();
        Some(pkt)
    }

    /// Runs one §6.2 timer for a packet to `dst` (`bulk_seq` names a bulk
    /// copy's absolute sequence). Returns `true` when the timer is due with
    /// its retry budget spent: the caller abandons the transfer. Otherwise
    /// a due timer stages its copy, backs off and is traced — unless the
    /// staging queue is full, which leaves the timer untouched: the firing
    /// is deferred, not lost, and re-fires as soon as the queue drains.
    fn fire_timer(&mut self, t: &mut RetxTimer, dst: NodeId, bulk_seq: Option<u64>) -> bool {
        let Some(copy) = &t.copy else {
            return false;
        };
        if self.now.saturating_since(t.last_sent) < t.wait {
            return false;
        }
        if self.cfg.retx_budget.is_some_and(|b| t.retries >= b) {
            return true;
        }
        if self.retx_queue.len() >= RETX_QUEUE_CAP {
            self.stats.retx_queue_overflow.incr();
            return false;
        }
        self.retx_queue.push_back(copy.clone());
        self.stats.retransmitted.incr();
        t.retries += 1;
        t.last_sent = self.now;
        t.wait = self.backoff_rto(dst, t.retries);
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::Retransmit {
                dst,
                rto: t.wait,
                retries: t.retries,
                bulk: bulk_seq.is_some(),
                seq: bulk_seq.map_or(0, |s| (s % SEQ_SPACE) as u8),
            }
        );
        false
    }

    /// Fires retransmission timers (§6.2): a scalar entry whose budget is
    /// spent is failed on its own, a spent bulk copy tears the whole dialog
    /// down. Each timer set is detached while it runs so `fire_timer` can
    /// borrow the rest of the unit.
    fn check_retx(&mut self) {
        if self.cfg.retx_timeout.is_none() {
            return;
        }
        let mut opt = std::mem::take(&mut self.opt);
        let mut i = 0;
        while i < opt.len() {
            let dst = opt[i].dst;
            if self.fire_timer(&mut opt[i].timer, dst, None) {
                self.fail_scalar(opt.swap_remove(i)); // moves a new entry into `i`
            } else {
                i += 1;
            }
        }
        self.opt = opt;

        if let Some(peer) = self.out_dialog.as_ref().map(|d| d.peer) {
            let mut copies = std::mem::take(&mut self.copies);
            let spent = copies
                .iter_mut()
                .any(|c| self.fire_timer(&mut c.timer, peer, Some(c.seq)));
            self.copies = copies;
            if spent {
                self.teardown_dialog();
            }
        }
    }

    /// Abandons a scalar packet whose retry budget is exhausted.
    fn fail_scalar(&mut self, e: OptEntry) {
        self.stats.delivery_failures.incr();
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::DeliveryFail {
                dst: e.dst,
                retries: e.timer.retries,
            }
        );
        if self.bulk_request_pending == Some(e.dst) {
            // The abandoned packet carried the bulk request; release the
            // latch so later traffic isn't stuck awaiting a grant that will
            // never come.
            self.bulk_request_pending = None;
        }
        self.failures.push(DeliveryFailure {
            src: self.node,
            dst: e.dst,
            at: self.now,
            retries: e.timer.retries,
            kind: FailureKind::Scalar,
            user: e.timer.copy.as_ref().map(|p| p.user),
        });
    }

    /// Tears down the outgoing bulk dialog (budget exhaustion, or the peer
    /// restarted): surfaces a typed failure, downgrades the peer to
    /// scalar-only, and discards the dead dialog's copies, staged or not.
    fn teardown_dialog(&mut self) {
        let Some(d) = self.out_dialog.take() else {
            return;
        };
        self.stats.dialogs_torn_down.incr();
        self.stats.delivery_failures.incr();
        self.peers.entry(d.peer).or_default().bulk_poisoned = true;
        let retries = self
            .copies
            .iter()
            .map(|c| c.timer.retries)
            .max()
            .unwrap_or(0);
        self.copies.clear();
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::DialogClose {
                peer: d.peer,
                dialog: d.dialog,
                end: DialogEnd::TornDown,
            }
        );
        trace_event!(
            self.trace,
            self.now,
            self.node,
            EventKind::DeliveryFail {
                dst: d.peer,
                retries,
            }
        );
        self.failures.push(DeliveryFailure {
            src: self.node,
            dst: d.peer,
            at: self.now,
            retries,
            kind: FailureKind::BulkDialog {
                dialog: d.dialog,
                unacked: d.next_seq - d.acked,
            },
            user: None,
        });
        self.retx_queue
            .retain(|p| !(p.dst == d.peer && matches!(p.wire, Wire::Data { bulk: Some(_), .. })));
    }

    /// Receiver-side garbage collection: a granted dialog whose sender has
    /// been silent past [`Self::reclaim_limit`] is reclaimed (the sender
    /// tore it down or failed), freeing the slot and letting the unit reach
    /// idle.
    fn reclaim_dialogs(&mut self) {
        let Some(limit) = self.reclaim_limit() else {
            return;
        };
        for slot in 0..self.dialogs.len() {
            let silent = self.dialogs[slot]
                .live()
                .is_some_and(|d| self.now.saturating_since(d.last_activity) >= limit);
            if silent {
                self.close_slot(slot, true, true);
            }
        }
    }

    /// Discards all protocol state entangled with `peer` after learning the
    /// peer's interface restarted (a supervision layer detects the new
    /// incarnation, e.g. via heartbeat epochs, and calls this).
    ///
    /// A restarted peer forgot every grant, sequence number, and duplicate
    /// bit it ever exchanged with us, so state on our side referring to the
    /// old incarnation is not just stale but *hazardous*:
    ///
    /// * an outgoing bulk dialog's sequence numbers are meaningless to the
    ///   new incarnation — the dialog is torn down (unacked packets surface
    ///   as a typed [`DeliveryFailure`](crate::DeliveryFailure)), but the
    ///   peer is *not* left bulk-poisoned: unlike a budget teardown, the
    ///   receiver's slot state is gone too, so a fresh handshake can
    ///   resynchronize;
    /// * a granted incoming dialog will never see its remaining packets —
    ///   the slot is freed immediately, without the usual tombstone (no old
    ///   incarnation survives to retransmit the tail);
    /// * remembered receive-side duplicate bits would silently swallow the
    ///   new incarnation's first packet as a "retransmission" — cleared;
    /// * queued acks toward the dead incarnation are dropped.
    ///
    /// Scalar packets in flight to `peer` are left in the OPT on purpose:
    /// the §6.2 retransmission machinery re-sends them and the fresh
    /// incarnation accepts them as new inserts, so they self-heal.
    pub fn reset_peer(&mut self, peer: NodeId) {
        // Sender side: tear down the outgoing dialog, then lift the
        // poison — the peer's slate is clean, a new dialog can work.
        if self.out_dialog.as_ref().is_some_and(|d| d.peer == peer) {
            self.teardown_dialog();
        }
        if self.bulk_request_pending == Some(peer) {
            // The grant this latch awaits died with the old incarnation.
            self.bulk_request_pending = None;
        }
        let granted = self.peers.get_mut(&peer).and_then(|p| {
            p.bulk_poisoned = false;
            p.last_insert_bit = None;
            p.last_acked_bit = None;
            p.dialog
        });

        // Receiver side: free the granted slot without a tombstone.
        if let Some(slot) = granted {
            self.close_slot(usize::from(slot), true, false);
        }
        for s in self.dialogs.iter_mut() {
            if matches!(s, Slot::Closed { peer: p, .. } if *p == peer) {
                *s = Slot::Free;
            }
        }
        self.ack_queue.retain(|a| a.dst != peer);
        self.ack_delay.retain(|(_, dst, _)| *dst != peer);
        self.wake_stale = true;
    }

    /// Derives the unit's [`Wakeup`] from its real protocol deadlines.
    ///
    /// `Now` conditions are states in which a step performs observable
    /// work with no timer involved: staged retransmissions awaiting a free
    /// lane, launchable (or newly stalled) pool packets, and in-order bulk
    /// packets ready to stream to the arrivals FIFO. Everything else is a
    /// stored deadline: the ack processing delay line, standalone-ack
    /// readiness (including the §6.1 piggyback hold), §6.2 retransmission
    /// timers, and the receiver-side dialog reclaim horizon.
    ///
    /// States with *no* wakeup are the reactive ones: packets outstanding
    /// in the OPT without timers, a pending bulk request, arrivals awaiting
    /// the processor's poll, and closed-dialog tombstones (checked lazily
    /// on the next grant decision) — each advances only when new input
    /// arrives through the driver, which re-queries `next_event` after
    /// delivering it.
    fn compute_wakeup(&self, now: Cycle) -> Wakeup {
        if !self.retx_queue.is_empty() {
            return Wakeup::Now;
        }
        // Pool work: something launchable — or a stall episode still to be
        // latched (the edge-triggered EligStall trace event is observable).
        if !self.pool.is_empty() && (!self.elig_stalled || self.pick_eligible().is_some()) {
            return Wakeup::Now;
        }
        let w = usize::from(self.cfg.window);
        for (slot, s) in self.dialogs.iter().enumerate() {
            if s.live()
                .is_some_and(|d| self.window[slot * w + d.head].is_some())
            {
                return Wakeup::Now;
            }
        }
        let mut wake = Wakeup::Quiescent;
        // The delay line is pushed in ready order (arrival cycle plus a
        // constant), so the front is the earliest entry.
        if let Some((ready, _, _)) = self.ack_delay.front() {
            wake = wake.earliest(Wakeup::at_or_now(*ready, now));
        }
        for a in &self.ack_queue {
            let held = self.cfg.piggyback_acks && self.pool.iter().any(|p| p.dst == a.dst);
            let at = a.ready_at + if held { PIGGYBACK_HOLD_CYCLES } else { 0 };
            wake = wake.earliest(Wakeup::at_or_now(at, now));
        }
        // §6.2 timers run only with a timeout configured (`check_retx`
        // returns early otherwise, so zero `wait` fields never mean "due").
        if self.cfg.retx_timeout.is_some() {
            let timers = self.opt.iter().map(|e| &e.timer);
            for t in timers.chain(self.copies.iter().map(|c| &c.timer)) {
                wake = wake.earliest(Wakeup::at_or_now(t.last_sent + t.wait, now));
            }
        }
        if let Some(limit) = self.reclaim_limit() {
            for d in self.dialogs.iter().filter_map(Slot::live) {
                wake = wake.earliest(Wakeup::at_or_now(d.last_activity + limit, now));
            }
        }
        wake
    }
}

impl Nic for NifdyUnit {
    fn node(&self) -> NodeId {
        self.node
    }

    fn try_send(&mut self, pkt: OutboundPacket, now: Cycle) -> bool {
        let _ = now;
        if self.pool.len() >= self.cfg.pool_entries as usize {
            self.stats.send_rejected.incr();
            return false;
        }
        self.pool.push_back(pkt);
        self.wake_stale = true;
        true
    }

    fn has_deliverable(&self) -> bool {
        !self.arrivals.is_empty()
    }

    fn poll(&mut self, now: Cycle) -> Option<Delivered> {
        self.now = now;
        let pkt = self.arrivals.pop_front()?;
        // Freed arrivals space (and a possibly queued ack below) can move
        // the next wakeup earlier.
        self.wake_stale = true;
        let is_scalar = matches!(pkt.wire, Wire::Data { bulk: None, .. });
        if is_scalar && !self.cfg.ack_on_insert {
            self.ack_scalar(&pkt);
        }
        self.stats.delivered.incr();
        Some(Delivered {
            src: pkt.src,
            size_words: pkt.size_words,
            user: pkt.user,
        })
    }

    fn step(&mut self, fab: &mut dyn NetPort) {
        self.now = fab.now();

        // 0. Sparse stepping: when the cached wakeup says this cycle is a
        //    no-op and the fabric has nothing to eject for this node, skip
        //    the whole body. The cache is recomputed at the end of every
        //    full step and marked stale by every out-of-step mutation
        //    (`try_send`, `poll`, `reset_peer`), so the early-out is
        //    behaviour-preserving — verified differentially in the tests.
        if !self.wake_stale
            && !self.next_wake.is_due(self.now)
            && fab.peek_eject(self.node, Lane::Reply).is_none()
            && fab.peek_eject(self.node, Lane::Request).is_none()
        {
            return;
        }

        // 1. Consume acknowledgments (reply lane) through the processing
        //    delay line.
        while let Some(ack) = fab.eject(self.node, Lane::Reply) {
            if let Wire::Ack(info) = ack.wire {
                self.delay_ack(ack.src, info);
            }
        }
        while self
            .ack_delay
            .front()
            .is_some_and(|(r, _, _)| *r <= self.now)
        {
            let Some((_, from, info)) = self.ack_delay.pop_front() else {
                break;
            };
            self.handle_ack(from, info);
        }

        // 2. Pull data packets from the fabric.
        while let Some(peek) = fab.peek_eject(self.node, Lane::Request) {
            let Wire::Data { bulk, .. } = peek.wire else {
                // Acks never travel on the request lane.
                let _ = fab.eject(self.node, Lane::Request);
                debug_assert!(false, "ack on request lane");
                continue;
            };
            if bulk.is_none() && self.arrivals.len() >= ARRIVALS_CAPACITY {
                break; // scalar backpressure into the fabric
            }
            let Some(pkt) = fab.eject(self.node, Lane::Request) else {
                debug_assert!(false, "peeked packet vanished");
                break;
            };
            if let Wire::Data {
                piggy_ack: Some(info),
                ..
            } = pkt.wire
            {
                // Bulk headers have no source bits (§3): name the sender
                // from the dialog slot, falling back to the carried field
                // for unknown slots (the ack is then ignored by
                // `handle_ack` anyway).
                let from = bulk.and_then(|tag| self.dialog_peer(tag.dialog as usize));
                self.delay_ack(from.unwrap_or(pkt.src), info);
            }
            match bulk {
                Some(tag) => self.receive_bulk(pkt, tag),
                None => {
                    let accepted = self.receive_scalar(pkt);
                    debug_assert!(accepted, "space was checked");
                }
            }
        }

        // 3. Stream reorder buffers to the processor FIFO, emitting window
        //    acks.
        self.drain_dialogs();

        // 4. Retransmission timers and the receiver-side reclaim watchdog.
        self.check_retx();
        self.reclaim_dialogs();

        // 5. Inject one standalone ack if the reply lane is free. With §6.1
        //    piggybacking, an ack whose destination has reverse data queued
        //    is held (briefly) so `launch` can carry it for free.
        if fab.can_inject(self.node, Lane::Reply) {
            let idx = self.ack_queue.iter().position(|a| {
                if a.ready_at > self.now {
                    return false;
                }
                if !self.cfg.piggyback_acks {
                    return true;
                }
                let reverse_data = self.pool.iter().any(|p| p.dst == a.dst);
                !reverse_data || self.now.saturating_since(a.ready_at) >= PIGGYBACK_HOLD_CYCLES
            });
            if let Some(a) = idx.and_then(|idx| self.ack_queue.remove(idx)) {
                let id = self.next_packet_id();
                let ack = Packet::ack(id, self.node, a.dst, a.info);
                fab.inject(self.node, ack);
                self.stats.acks_sent.incr();
                trace_event!(
                    self.trace,
                    self.now,
                    self.node,
                    EventKind::AckSend { dst: a.dst }
                );
            }
        }

        // 6. Inject one data packet if the request lane is free:
        //    retransmissions first, then the first eligible pool packet.
        if fab.can_inject(self.node, Lane::Request) {
            if let Some(copy) = self.retx_queue.pop_front() {
                fab.inject(self.node, copy);
                self.elig_stalled = false;
            } else if let Some(pkt) = self.pick_eligible().and_then(|i| self.launch(i)) {
                fab.inject(self.node, pkt);
                self.elig_stalled = false;
            } else if !self.pool.is_empty() {
                // Buffered work exists but nothing may launch: every queued
                // destination is blocked by the OPT or an exhausted window.
                // Edge-triggered (one event per stall episode) so a long
                // stall cannot flood the flight recorder and evict the
                // history that explains it.
                if !self.elig_stalled {
                    self.elig_stalled = true;
                    trace_event!(
                        self.trace,
                        self.now,
                        self.node,
                        EventKind::EligStall {
                            pool: self.pool.len() as u32,
                            opt: self.opt.len() as u32,
                        }
                    );
                }
            } else {
                self.elig_stalled = false;
            }
        }

        // 7. Refresh the wakeup cache from the post-step protocol state.
        self.next_wake = self.compute_wakeup(self.now);
        self.wake_stale = false;
    }

    fn is_idle(&self) -> bool {
        self.pool.is_empty()
            && self.retx_queue.is_empty()
            && self.ack_queue.is_empty()
            && self.ack_delay.is_empty()
            && self.opt.is_empty()
            && self.out_dialog.is_none()
            && self.arrivals.is_empty()
            && self.dialogs.iter().all(|s| s.live().is_none())
    }

    fn next_event(&self, now: Cycle) -> Wakeup {
        if self.wake_stale {
            self.compute_wakeup(now)
        } else {
            self.next_wake
        }
    }

    fn stats(&self) -> &NicStats {
        &self.stats
    }

    fn take_failures(&mut self) -> Vec<DeliveryFailure> {
        std::mem::take(&mut self.failures)
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn occupancy(&self) -> NicOccupancy {
        NicOccupancy {
            pool: self.pool.len() as u32,
            opt: self.opt.len() as u32,
            retx_queue: self.retx_queue.len() as u32,
            window_outstanding: self
                .out_dialog
                .as_ref()
                .map(|d| d.next_seq - d.acked)
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_net::topology::Mesh;
    use nifdy_net::{Fabric, FabricConfig, UserData};

    fn unit(cfg: NifdyConfig) -> NifdyUnit {
        NifdyUnit::new(NodeId::new(0), cfg)
    }

    /// Test shorthand for the four headline parameters; panics on invalid
    /// combinations, which is what a test wants.
    fn params(o: u8, b: u8, d: u8, w: u8) -> NifdyConfig {
        NifdyConfig::builder()
            .opt_entries(o)
            .pool_entries(b)
            .max_dialogs(d)
            .window(w)
            .build()
            .expect("test parameters must be valid")
    }

    fn fabric() -> Fabric {
        Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default())
    }

    #[test]
    fn grant_is_idempotent_for_the_same_peer() {
        let mut u = unit(params(4, 4, 2, 4));
        let peer = NodeId::new(3);
        let g1 = u.decide_grant(true, peer);
        let g2 = u.decide_grant(true, peer);
        assert_eq!(g1, g2, "duplicate requests must re-grant the same slot");
        match g1 {
            BulkGrant::Granted { window, .. } => assert_eq!(window, 4),
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(u.stats.dialogs_granted.get(), 1, "only one real grant");
    }

    #[test]
    fn grants_stop_at_the_dialog_limit() {
        let mut u = unit(params(4, 4, 2, 4));
        assert!(matches!(
            u.decide_grant(true, NodeId::new(1)),
            BulkGrant::Granted { .. }
        ));
        assert!(matches!(
            u.decide_grant(true, NodeId::new(2)),
            BulkGrant::Granted { .. }
        ));
        assert_eq!(u.decide_grant(true, NodeId::new(3)), BulkGrant::Rejected);
        assert_eq!(
            u.decide_grant(false, NodeId::new(4)),
            BulkGrant::NotRequested
        );
    }

    #[test]
    fn bulk_ack_reconstruction_handles_wraparound() {
        let mut u = unit(params(4, 4, 1, 8));
        let peer = NodeId::new(2);
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 8,
            next_seq: 300, // past the 256-value wire space
            acked: 252,
            exiting: false,
        });
        // Receiver acks through absolute 259: wire residue (259 - 1) % 256 = 2.
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 2,
                terminate: false,
            },
        );
        assert_eq!(u.out_dialog.as_ref().expect("open").acked, 259);
        // A stale ack (older residue) must be ignored, not regress.
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 250,
                terminate: false,
            },
        );
        assert_eq!(u.out_dialog.as_ref().expect("open").acked, 259);
    }

    #[test]
    fn bulk_ack_never_acknowledges_unsent_packets() {
        let mut u = unit(params(4, 4, 1, 8));
        let peer = NodeId::new(2);
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 8,
            next_seq: 4,
            acked: 0,
            exiting: false,
        });
        // cum 9 would mean 10 delivered > 4 sent: bogus, ignored.
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 9,
                terminate: false,
            },
        );
        assert_eq!(u.out_dialog.as_ref().expect("open").acked, 0);
    }

    #[test]
    fn exiting_dialog_closes_on_final_ack() {
        let mut u = unit(params(4, 4, 1, 4));
        let peer = NodeId::new(1);
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 4,
            next_seq: 10,
            acked: 8,
            exiting: true,
        });
        u.handle_ack(
            peer,
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 9,
                terminate: false,
            },
        );
        assert!(
            u.out_dialog.is_none(),
            "dialog must close after the exit ack"
        );
    }

    #[test]
    fn scalar_ack_clears_exactly_one_opt_entry() {
        let mut u = unit(NifdyConfig::mesh());
        for dst in [1, 2] {
            u.opt.push(OptEntry {
                dst: NodeId::new(dst),
                dup_bit: false,
                timer: RetxTimer::start(Cycle::ZERO, 0, None),
            });
        }
        u.handle_ack(
            NodeId::new(1),
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: false,
            },
        );
        assert_eq!(u.opt_occupancy(), 1);
        assert_eq!(u.opt[0].dst, NodeId::new(2));
        // A stale duplicate ack is harmless.
        u.handle_ack(
            NodeId::new(1),
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: false,
            },
        );
        assert_eq!(u.opt_occupancy(), 1);
    }

    #[test]
    fn out_of_window_bulk_arrivals_are_dropped_and_reacked() {
        let mut u = unit(params(4, 4, 1, 4));
        let peer = NodeId::new(3);
        let grant = u.decide_grant(true, peer);
        let BulkGrant::Granted { dialog, .. } = grant else {
            panic!("grant expected");
        };
        // Deliver packet 0 in order.
        let mk = |seq: u8| {
            let mut p = Packet::data(PacketId::new(1), peer, NodeId::new(0), 8);
            p.wire = Wire::Data {
                bulk_request: false,
                bulk_exit: false,
                bulk: Some(BulkTag { dialog, seq }),
                needs_ack: true,
                dup_bit: false,
                piggy_ack: None,
            };
            p.user = UserData::default();
            p
        };
        u.receive_bulk(mk(0), BulkTag { dialog, seq: 0 });
        u.drain_dialogs();
        assert_eq!(u.arrivals.len(), 1);
        // A duplicate of seq 0 (now below the window) is discarded and the
        // cumulative ack refreshed.
        let acks_before = u.ack_queue.len();
        u.receive_bulk(mk(0), BulkTag { dialog, seq: 0 });
        assert_eq!(u.arrivals.len(), 1, "duplicate delivered");
        assert_eq!(u.stats.duplicates_dropped.get(), 1);
        assert!(u.ack_queue.len() > acks_before, "no re-ack queued");
    }

    /// A bulk packet from `peer`, marked in its user data.
    fn bulk_pkt(peer: NodeId, tag: BulkTag, mark: u32) -> Packet {
        let mut p = Packet::data(PacketId::new(1), peer, NodeId::new(0), 8);
        p.wire = Wire::Data {
            bulk_request: false,
            bulk_exit: false,
            bulk: Some(tag),
            needs_ack: true,
            dup_bit: false,
            piggy_ack: None,
        };
        p.user.pkt_index = mark;
        p
    }

    fn arrival_marks(u: &NifdyUnit) -> Vec<u32> {
        u.arrivals.iter().map(|p| p.user.pkt_index).collect()
    }

    #[test]
    fn a_retransmission_of_a_buffered_packet_keeps_the_first_copy() {
        let mut u = unit(params(4, 4, 1, 4));
        let peer = NodeId::new(3);
        assert!(matches!(
            u.decide_grant(true, peer),
            BulkGrant::Granted { dialog: 0, .. }
        ));
        // Seq 1 overtakes seq 0 and is then retransmitted while it waits.
        let (first, second) = (BulkTag { dialog: 0, seq: 0 }, BulkTag { dialog: 0, seq: 1 });
        u.receive_bulk(bulk_pkt(peer, second, 11), second);
        u.receive_bulk(bulk_pkt(peer, second, 99), second);
        u.drain_dialogs();
        assert!(u.arrivals.is_empty(), "seq 1 must wait for seq 0");
        u.receive_bulk(bulk_pkt(peer, first, 10), first);
        u.drain_dialogs();
        assert_eq!(arrival_marks(&u), [10, 11]);
        assert_eq!(u.stats.bulk_out_of_order.get(), 2);
    }

    #[test]
    fn a_freed_slot_hands_no_stale_packet_to_its_next_dialog() {
        let tag = |seq| BulkTag { dialog: 0, seq };
        let (old, new) = (NodeId::new(3), NodeId::new(2));
        for by_restart in [false, true] {
            let mut u = unit(params(4, 4, 1, 4).with_retx_timeout(10).with_retx_budget(2));
            assert!(matches!(
                u.decide_grant(true, old),
                BulkGrant::Granted { dialog: 0, .. }
            ));
            // Seqs 1 and 3 wait behind gaps that will never fill.
            u.receive_bulk(bulk_pkt(old, tag(1), 91), tag(1));
            u.receive_bulk(bulk_pkt(old, tag(3), 93), tag(3));
            if by_restart {
                u.reset_peer(old);
            } else {
                u.now = Cycle::new(10 * (2 + 4));
                u.reclaim_dialogs();
                let Slot::Closed { until, .. } = u.dialogs[0] else {
                    panic!("tombstone expected");
                };
                u.now = until;
            }
            assert!(u.window.iter().all(Option::is_none), "slot not emptied");
            assert!(matches!(
                u.decide_grant(true, new),
                BulkGrant::Granted { dialog: 0, .. }
            ));
            u.receive_bulk(bulk_pkt(new, tag(0), 1), tag(0));
            u.drain_dialogs();
            assert_eq!(arrival_marks(&u), [1], "restart = {by_restart}");
        }
    }

    #[test]
    fn copies_never_outlive_the_outgoing_dialog() {
        type Close = fn(&mut NifdyUnit, NodeId);
        let closers: [(&str, Close); 3] = [
            ("terminating ack", |u, peer| {
                let info = AckInfo::Bulk {
                    dialog: 0,
                    cum_seq: 0,
                    terminate: true,
                };
                u.handle_ack(peer, info);
            }),
            ("spent retry budget", |u, _| u.check_retx()),
            ("peer restart", |u, peer| u.reset_peer(peer)),
        ];
        let peer = NodeId::new(3);
        for (what, close) in closers {
            let mut u = unit(params(4, 4, 1, 4).with_retx_timeout(10).with_retx_budget(1));
            u.out_dialog = Some(OutDialog {
                peer,
                dialog: 0,
                window: 4,
                next_seq: 3,
                acked: 0,
                exiting: false,
            });
            for seq in 0..3 {
                let pkt = bulk_pkt(NodeId::new(0), BulkTag { dialog: 0, seq }, 0);
                u.copies.push_back(BulkCopy {
                    seq: u64::from(seq),
                    timer: RetxTimer {
                        retries: 1,
                        ..RetxTimer::start(Cycle::ZERO, 10, Some(pkt))
                    },
                });
            }
            u.now = Cycle::new(50);
            close(&mut u, peer);
            assert!(u.out_dialog.is_none(), "{what}: dialog still open");
            assert!(u.copies.is_empty(), "{what}: copies left behind");
            assert_eq!(
                u.next_event(u.now),
                Wakeup::Quiescent,
                "{what}: a dead dialog's timer still schedules a wakeup"
            );
        }
    }

    #[test]
    fn pool_rejects_when_full_and_counts_it() {
        let mut u = unit(params(2, 2, 0, 2));
        let now = Cycle::ZERO;
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), now));
        assert!(!u.try_send(OutboundPacket::new(NodeId::new(3), 8), now));
        assert_eq!(u.stats().send_rejected.get(), 1);
    }

    #[test]
    fn eligibility_respects_fifo_per_destination() {
        let mut u = unit(params(4, 4, 0, 2));
        let now = Cycle::ZERO;
        // Two packets to node 1, one to node 2.
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), now));
        // First eligible is pool[0] (first to node 1).
        assert_eq!(u.pick_eligible(), Some(0));
        // Simulate launching it: node 1 now outstanding.
        let pkt = u.launch(0).expect("index in range");
        assert_eq!(pkt.dst, NodeId::new(1));
        // The second node-1 packet is blocked; node 2 is next eligible.
        let idx = u.pick_eligible().expect("node 2 eligible");
        assert_eq!(u.pool[idx].dst, NodeId::new(2));
    }

    #[test]
    fn no_ack_packets_are_always_eligible() {
        let mut u = unit(params(1, 4, 0, 2));
        let now = Cycle::ZERO;
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), now));
        let _ = u.launch(u.pick_eligible().expect("first"));
        // OPT (size 1) is now full; an acked packet to node 2 is blocked...
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), now));
        assert_eq!(u.pick_eligible(), None);
        // ...but a no-ack packet bypasses the OPT entirely.
        let mut p = OutboundPacket::new(NodeId::new(3), 8);
        p.needs_ack = false;
        assert!(u.try_send(p, now));
        let idx = u.pick_eligible().expect("bypass eligible");
        assert_eq!(u.pool[idx].dst, NodeId::new(3));
    }

    #[test]
    fn adaptive_rto_tracks_acked_round_trips() {
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(2_500)
                .with_adaptive_rto(true),
        );
        let dst = NodeId::new(1);
        assert_eq!(
            NifdyUnit::fresh_rto(&u.cfg, u.peers.get(&dst)),
            2_500,
            "no samples yet: initial RTO"
        );
        assert!(u.try_send(OutboundPacket::new(dst, 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        u.now = Cycle::new(80);
        u.handle_ack(
            dst,
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: true,
            },
        );
        assert_eq!(u.srtt(dst), Some(80));
        // rto = srtt + 4·rttvar = 80 + 4·40, within [RTO_MIN, RTO_MAX].
        assert_eq!(NifdyUnit::fresh_rto(&u.cfg, u.peers.get(&dst)), 240);
    }

    #[test]
    fn retransmitted_packets_do_not_feed_the_estimator() {
        // Karn's rule: an ack for a retransmitted packet is ambiguous.
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(10)
                .with_adaptive_rto(true),
        );
        let dst = NodeId::new(1);
        assert!(u.try_send(OutboundPacket::new(dst, 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        u.now = Cycle::new(10);
        u.check_retx();
        assert_eq!(u.stats.retransmitted.get(), 1);
        u.now = Cycle::new(5_000);
        u.handle_ack(
            dst,
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: true,
            },
        );
        assert_eq!(u.srtt(dst), None, "ambiguous sample must be discarded");
    }

    #[test]
    fn adaptive_backoff_grows_exponentially_to_the_cap() {
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(100)
                .with_adaptive_rto(true),
        );
        let dst = NodeId::new(1);
        let w1 = u.backoff_rto(dst, 1);
        assert!((200..=225).contains(&w1), "doubled plus jitter, got {w1}");
        let w7 = u.backoff_rto(dst, 7);
        assert!(
            (12_800..=14_400).contains(&w7),
            "100 · 2^7 is still under the cap, got {w7}"
        );
        for retries in [8, 9, 30] {
            let w = u.backoff_rto(dst, retries);
            assert!(
                (RTO_MAX..=RTO_MAX + RTO_MAX / 8).contains(&w),
                "capped at RTO_MAX plus jitter, got {w} after {retries}"
            );
        }
    }

    #[test]
    fn scalar_retry_budget_surfaces_a_typed_failure() {
        let mut u = unit(
            NifdyConfig::mesh()
                .with_retx_timeout(10)
                .with_retx_budget(2),
        );
        let dst = NodeId::new(2);
        assert!(u.try_send(OutboundPacket::new(dst, 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        for t in 1..=100u64 {
            u.now = Cycle::new(t * 10);
            u.check_retx();
        }
        assert_eq!(u.opt_occupancy(), 0, "entry abandoned, not retried forever");
        assert_eq!(u.stats.retransmitted.get(), 2, "budget bounds the retries");
        assert_eq!(u.stats.delivery_failures.get(), 1);
        let failures = u.take_failures();
        assert_eq!(failures.len(), 1);
        let f = failures[0];
        assert_eq!((f.dst, f.retries, f.kind), (dst, 2, FailureKind::Scalar));
        assert!(
            f.user.is_some(),
            "payload annotation travels with the failure"
        );
        assert!(u.take_failures().is_empty(), "failures drain exactly once");
    }

    #[test]
    fn bulk_budget_exhaustion_tears_down_and_poisons() {
        let mut u = unit(params(4, 4, 1, 4).with_retx_timeout(10).with_retx_budget(1));
        let peer = NodeId::new(3);
        let mut pkt = Packet::data(PacketId::new(9), NodeId::new(0), peer, 8);
        pkt.wire = Wire::Data {
            bulk_request: false,
            bulk_exit: false,
            bulk: Some(BulkTag { dialog: 0, seq: 1 }),
            needs_ack: true,
            dup_bit: false,
            piggy_ack: None,
        };
        u.out_dialog = Some(OutDialog {
            peer,
            dialog: 0,
            window: 4,
            next_seq: 3,
            acked: 1,
            exiting: false,
        });
        u.copies.push_back(BulkCopy {
            seq: 1,
            timer: RetxTimer {
                retries: 1,
                ..RetxTimer::start(Cycle::ZERO, 10, Some(pkt))
            },
        });
        u.now = Cycle::new(50);
        u.check_retx();
        assert!(u.out_dialog.is_none(), "dialog torn down");
        assert!(u.bulk_poisoned(peer), "peer downgraded to scalar-only");
        assert_eq!(u.stats.dialogs_torn_down.get(), 1);
        let failures = u.take_failures();
        assert_eq!(
            failures[0].kind,
            FailureKind::BulkDialog {
                dialog: 0,
                unacked: 2
            }
        );
    }

    #[test]
    fn poisoned_peers_fall_back_to_scalar() {
        let mut u = unit(params(8, 8, 1, 4).with_retx_timeout(10).with_retx_budget(1));
        let dst = NodeId::new(2);
        u.peers.entry(dst).or_default().bulk_poisoned = true;
        for _ in 0..4 {
            assert!(u.try_send(OutboundPacket::new(dst, 8).with_bulk(true), Cycle::ZERO));
        }
        let pkt = u
            .launch(u.pick_eligible().expect("eligible"))
            .expect("index in range");
        assert!(
            matches!(
                pkt.wire,
                Wire::Data {
                    bulk_request: false,
                    ..
                }
            ),
            "poisoned peer must not be asked for a new dialog"
        );
        assert!(u.bulk_request_pending.is_none());
    }

    #[test]
    fn staging_queue_bound_defers_timer_firings() {
        let mut u = unit(NifdyConfig::mesh().with_retx_timeout(10));
        let mk = |n: usize| OptEntry {
            dst: NodeId::new(n),
            dup_bit: false,
            timer: RetxTimer::start(
                Cycle::ZERO,
                10,
                Some(Packet::data(
                    PacketId::new(n as u64),
                    NodeId::new(0),
                    NodeId::new(n),
                    8,
                )),
            ),
        };
        // One more expired timer than the staging queue holds.
        for n in 1..=RETX_QUEUE_CAP + 1 {
            u.opt.push(mk(n));
        }
        u.now = Cycle::new(20);
        u.check_retx();
        assert_eq!(u.retx_queue.len(), RETX_QUEUE_CAP, "cap enforced");
        assert_eq!(u.stats.retx_queue_overflow.get(), 1);
        let deferred = &u
            .opt
            .iter()
            .find(|e| e.timer.retries == 0)
            .expect("deferred")
            .timer;
        assert_eq!(
            deferred.last_sent,
            Cycle::ZERO,
            "deferred firing keeps state"
        );
        // Once the queue drains, the deferred entry fires immediately.
        u.retx_queue.clear();
        u.check_retx();
        assert_eq!(u.stats.retransmitted.get(), RETX_QUEUE_CAP as u64 + 1);
    }

    #[test]
    fn silent_granted_dialog_is_reclaimed() {
        let mut u = unit(params(4, 4, 1, 4).with_retx_timeout(10).with_retx_budget(2));
        let peer = NodeId::new(3);
        assert!(matches!(
            u.decide_grant(true, peer),
            BulkGrant::Granted { .. }
        ));
        assert!(!u.is_idle(), "granted slot keeps the unit busy");
        u.now = Cycle::new(10 * (2 + 4)); // span · (budget + 4)
        u.reclaim_dialogs();
        assert_eq!(u.stats.dialogs_reclaimed.get(), 1);
        assert!(
            matches!(u.dialogs[0], Slot::Closed { .. }),
            "slot reclaimed, tombstone left for late duplicates"
        );
        assert!(u.is_idle());
    }

    #[test]
    fn is_idle_reflects_every_queue() {
        let mut fab = fabric();
        let mut u = unit(NifdyConfig::mesh());
        assert!(u.is_idle());
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), fab.now()));
        assert!(!u.is_idle(), "pool occupancy must show");
        u.step(&mut fab);
        assert!(!u.is_idle(), "outstanding OPT entry must show");
    }

    #[test]
    fn next_event_is_quiescent_only_when_nothing_can_happen() {
        let u = unit(NifdyConfig::mesh());
        assert_eq!(u.next_event(Cycle::ZERO), Wakeup::Quiescent);
        // Pool work is immediate.
        let mut u = unit(NifdyConfig::mesh());
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), Cycle::ZERO));
        assert_eq!(u.next_event(Cycle::ZERO), Wakeup::Now);
        // A packet outstanding in the OPT without timers is purely
        // reactive: the unit waits on the fabric, not on a clock.
        let mut u = unit(NifdyConfig::mesh());
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), Cycle::ZERO));
        let mut fab = fabric();
        u.step(&mut fab);
        assert_eq!(u.opt_occupancy(), 1);
        assert_eq!(u.next_event(fab.now()), Wakeup::Quiescent);
    }

    #[test]
    fn next_event_exposes_retransmission_deadlines() {
        let mut u = unit(NifdyConfig::mesh().with_retx_timeout(500));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), Cycle::ZERO));
        let _ = u.launch(u.pick_eligible().expect("eligible"));
        assert_eq!(
            u.next_event(Cycle::ZERO),
            Wakeup::At(Cycle::new(500)),
            "the OPT timer is the only pending deadline"
        );
        assert_eq!(
            u.next_event(Cycle::new(500)),
            Wakeup::Now,
            "a due deadline collapses to Now"
        );
    }

    #[test]
    fn next_event_exposes_ack_processing_deadlines() {
        let mut u = unit(NifdyConfig::mesh());
        u.now = Cycle::new(100);
        u.queue_ack(
            NodeId::new(2),
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: false,
            },
        );
        u.wake_stale = true;
        let ready = Cycle::new(100 + ACK_PROC_CYCLES);
        assert_eq!(u.next_event(Cycle::new(100)), Wakeup::At(ready));
    }

    #[test]
    fn next_event_latched_stall_waits_for_an_ack() {
        // OPT of one, two destinations queued: after the first launch the
        // second pool packet is blocked, and once the stall episode is
        // latched the unit has no self-driven work left.
        let mut u = unit(params(1, 4, 0, 2));
        let mut fab = fabric();
        assert!(u.try_send(OutboundPacket::new(NodeId::new(1), 8), fab.now()));
        assert!(u.try_send(OutboundPacket::new(NodeId::new(2), 8), fab.now()));
        u.step(&mut fab); // launches the first packet
        assert_eq!(
            u.next_event(fab.now()),
            Wakeup::Now,
            "stall episode not latched yet: the trace event is still owed"
        );
        for _ in 0..100 {
            fab.step();
            u.step(&mut fab);
            if u.elig_stalled {
                break;
            }
        }
        assert!(u.elig_stalled, "stall episode latches once the lane frees");
        assert_eq!(u.next_event(fab.now()), Wakeup::Quiescent);
    }

    #[test]
    fn wakeup_cache_early_out_is_behaviour_preserving() {
        // Two identical 4-node replicas under a scripted random workload,
        // one forced through the full step body every cycle by marking its
        // cache stale first. Every delivery (and its cycle) plus the final
        // counters must match exactly.
        let run = |cache: bool| {
            let cfg = NifdyConfig::mesh()
                .with_retx_timeout(400)
                .with_adaptive_rto(true)
                .with_retx_budget(6);
            let mut fab = fabric();
            let mut units: Vec<NifdyUnit> = (0..4usize)
                .map(|n| NifdyUnit::new(NodeId::new(n), cfg.clone()))
                .collect();
            let mut rng = SimRng::from_seed_stream(7, 0);
            let mut deliveries: Vec<(u64, usize, usize)> = Vec::new();
            for t in 0..8_000u64 {
                if t % 61 == 0 {
                    let src = rng.gen_range_u64(0..4) as usize;
                    let dst = (src + 1 + rng.gen_range_u64(0..3) as usize) % 4;
                    let _ = units[src].try_send(
                        OutboundPacket::new(NodeId::new(dst), 8).with_bulk(t % 183 == 0),
                        fab.now(),
                    );
                }
                for u in units.iter_mut() {
                    u.wake_stale |= !cache;
                    u.step(&mut fab);
                }
                fab.step();
                for (n, u) in units.iter_mut().enumerate() {
                    if let Some(d) = u.poll(fab.now()) {
                        deliveries.push((fab.now().as_u64(), n, d.src.index()));
                    }
                }
            }
            let fps: Vec<u64> = units
                .iter()
                .map(|u| u.stats().progress_fingerprint())
                .collect();
            (deliveries, fps)
        };
        assert_eq!(run(true), run(false));
    }
}
