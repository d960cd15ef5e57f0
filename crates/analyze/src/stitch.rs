//! Journey stitching: folds a merged trace stream into one [`Journey`]
//! per launched data packet.
//!
//! The stitcher exploits two protocol guarantees to correlate sender and
//! receiver events without any packet identifier on the wire:
//!
//! * **Scalar**: the OPT admits at most one unacked scalar per
//!   destination, so scalar journeys on a `(src, dst)` flow are strictly
//!   serialized — the receiver's next `ScalarAccept { src }` always
//!   belongs to the oldest unaccepted journey of that flow.
//! * **Bulk**: a sender holds at most one live dialog per peer, dialog
//!   *generations* on a flow are time-ordered, and the receiver streams a
//!   generation's packets strictly in order — the nth `BulkAccept` of a
//!   generation is absolute sequence n. The wire residue
//!   (`seq mod 256`) cross-checks every match; a mismatch flags the
//!   journey [`incomplete`](Journey::incomplete) instead of silently
//!   mis-pairing.
//!
//! Both `ScalarAccept` and `BulkAccept` are emitted by the protocol unit
//! itself, so the same stitcher serves the simulated fabric and the byte
//! wire unchanged.

use std::collections::BTreeMap;

use nifdy_trace::{DialogEnd, EventKind, TraceEvent, TraceLoss};

use crate::journey::{Journey, JourneyKind, JourneyStatus};

/// Wire sequence space (`seq mod 256` is what frames carry).
const SEQ_SPACE: u64 = 256;

/// Everything the stitcher reconstructed from one trace stream.
#[derive(Debug, Default)]
pub struct JourneySet {
    /// All journeys, in launch order.
    pub journeys: Vec<Journey>,
    /// Accept events that matched no launched journey. Zero on a lossless
    /// trace; under eviction/sampling these are expected and downgrade the
    /// conservation checks to *skipped*.
    pub orphan_accepts: u64,
    /// Retransmit / clear / close events that matched no journey.
    pub unmatched_events: u64,
    /// Journeys retired by a sender-visible ack whose delivery event was
    /// never observed (ack proves delivery; the accept record is missing).
    pub acked_without_accept: u64,
    /// Total `Retransmit` events in the stream.
    pub retx_events: u64,
    /// Total `DeliveryFail` events in the stream.
    pub delivery_fail_events: u64,
    /// `DeliveryFail` events that terminated a reconstructed journey (or
    /// accompanied a dialog teardown that did).
    pub matched_failures: u64,
    /// Total fabric `Drop` events (simulated carrier).
    pub drop_events: u64,
    /// Total `WireFault` events (byte-wire carrier).
    pub wire_fault_events: u64,
    /// Sender dialog generations still open when the trace ended:
    /// `(src, dst, dialog)`.
    pub wedged_dialogs: Vec<(usize, usize, u8)>,
    /// Per-node loss accounting carried through from the recorder.
    pub loss: TraceLoss,
}

impl JourneySet {
    /// Journeys whose delivery point was observed (`accept` set). This —
    /// not `completed` — is what must equal the receivers' delivered
    /// count: a packet can be delivered yet *fail* on the sender side
    /// (its acks were swallowed, the retry budget ran out).
    pub fn accepted(&self) -> u64 {
        self.journeys.iter().filter(|j| j.accept.is_some()).count() as u64
    }

    /// Count of journeys in the given terminal state.
    pub fn with_status(&self, status: JourneyStatus) -> u64 {
        self.journeys.iter().filter(|j| j.status == status).count() as u64
    }

    /// Sum of per-journey retransmission attributions.
    pub fn journey_retransmits(&self) -> u64 {
        self.journeys.iter().map(|j| u64::from(j.retransmits)).sum()
    }

    /// Journeys flagged incomplete (see [`Journey::incomplete`]).
    pub fn incomplete(&self) -> u64 {
        self.journeys.iter().filter(|j| j.incomplete).count() as u64
    }
}

/// A sender-side dialog generation: one `DialogOpen`..`DialogClose` span.
#[derive(Debug)]
struct SenderGen {
    dialog: u8,
    /// Journey indices by absolute sequence.
    journeys: Vec<usize>,
    /// Next absolute sequence to assign (count of observed sends).
    send_count: u64,
    /// Next absolute sequence the receiver will accept.
    accept_count: u64,
    /// No further accepts can belong to this generation.
    accepts_done: bool,
    /// Sender closed the dialog (exit or teardown).
    closed: bool,
    /// The generation was inferred from a `BulkSend` with no observed
    /// `DialogOpen` (evicted) — its journeys are suspect.
    implicit: bool,
}

#[derive(Debug, Default)]
struct State {
    /// Open scalar journey indices per `(src, dst)`, oldest first.
    scalar_open: BTreeMap<(usize, usize), Vec<usize>>,
    /// Bulk generations per `(src, dst)`, oldest first.
    bulk: BTreeMap<(usize, usize), Vec<SenderGen>>,
    /// `DialogClose(TornDown)` events awaiting their paired
    /// `DeliveryFail` on the same flow (teardown emits both).
    pending_teardown_fail: BTreeMap<(usize, usize), u64>,
    /// `OptInsert` events awaiting their `ScalarSend` (the unit emits the
    /// insert first, within the same launch).
    pending_opt: BTreeMap<(usize, usize), u64>,
}

/// Reconstructs journeys from a time-ordered event stream (as produced by
/// the recorder) plus the recorder's loss accounting.
pub fn stitch(events: &[TraceEvent], loss: &TraceLoss) -> JourneySet {
    let mut set = JourneySet {
        loss: loss.clone(),
        ..JourneySet::default()
    };
    let mut st = State::default();

    for ev in events {
        let node = ev.node.index();
        let at = ev.at.as_u64();
        match ev.kind {
            EventKind::ScalarSend { dst, .. } => {
                let flow = (node, dst.index());
                let idx = set.journeys.len();
                let mut j = Journey::new(node, dst.index(), JourneyKind::Scalar, at);
                // The launch emits `OptInsert` just before `ScalarSend`,
                // so the flag is waiting when the send arrives.
                let pending = st.pending_opt.entry(flow).or_default();
                if *pending > 0 {
                    *pending -= 1;
                    j.has_opt = true;
                }
                set.journeys.push(j);
                st.scalar_open.entry(flow).or_default().push(idx);
            }
            EventKind::OptInsert { dst, .. } => {
                *st.pending_opt.entry((node, dst.index())).or_default() += 1;
            }
            EventKind::ScalarAccept { src } => {
                let flow = (src.index(), node);
                let open = st.scalar_open.entry(flow).or_default();
                match open.iter().position(|&i| set.journeys[i].accept.is_none()) {
                    Some(pos) => {
                        let idx = open[pos];
                        let j = &mut set.journeys[idx];
                        j.accept = Some(at);
                        if !j.has_opt {
                            // Fire-and-forget: delivery is the whole story.
                            j.status = JourneyStatus::Completed;
                            open.remove(pos);
                        }
                    }
                    None => set.orphan_accepts += 1,
                }
            }
            EventKind::OptClear { dst, .. } => {
                let open = st.scalar_open.entry((node, dst.index())).or_default();
                // Prefer the oldest OPT-tracked journey that was seen
                // delivered; fall back to an undelivered one (its accept
                // record is missing, but the ack proves delivery).
                let pos = open
                    .iter()
                    .position(|&i| set.journeys[i].has_opt && set.journeys[i].accept.is_some())
                    .or_else(|| open.iter().position(|&i| set.journeys[i].has_opt));
                match pos {
                    Some(pos) => {
                        let idx = open.remove(pos);
                        let j = &mut set.journeys[idx];
                        j.end = Some(at);
                        j.status = JourneyStatus::Completed;
                        if j.accept.is_none() {
                            j.incomplete = true;
                            set.acked_without_accept += 1;
                        }
                    }
                    None => set.unmatched_events += 1,
                }
            }
            EventKind::Retransmit {
                dst, bulk: false, ..
            } => {
                set.retx_events += 1;
                let open = st.scalar_open.entry((node, dst.index())).or_default();
                let pos = open
                    .iter()
                    .position(|&i| set.journeys[i].has_opt && set.journeys[i].accept.is_none())
                    .or_else(|| open.iter().position(|&i| set.journeys[i].has_opt));
                match pos {
                    Some(pos) => {
                        let j = &mut set.journeys[open[pos]];
                        j.retransmits += 1;
                        if j.accept.is_none() {
                            j.last_send = at;
                        }
                    }
                    None => set.unmatched_events += 1,
                }
            }
            EventKind::DeliveryFail { dst, .. } => {
                set.delivery_fail_events += 1;
                let flow = (node, dst.index());
                let open = st.scalar_open.entry(flow).or_default();
                if let Some(pos) = open.iter().position(|&i| set.journeys[i].has_opt) {
                    let idx = open.remove(pos);
                    let j = &mut set.journeys[idx];
                    j.status = JourneyStatus::Failed;
                    j.end = Some(at);
                    set.matched_failures += 1;
                } else if st.pending_teardown_fail.get(&flow).copied().unwrap_or(0) > 0 {
                    // The companion of a dialog teardown already handled
                    // under `DialogClose(TornDown)`.
                    *st.pending_teardown_fail.entry(flow).or_default() -= 1;
                    set.matched_failures += 1;
                } else {
                    set.unmatched_events += 1;
                }
            }
            EventKind::DialogOpen { peer, dialog, .. } => {
                st.bulk
                    .entry((node, peer.index()))
                    .or_default()
                    .push(SenderGen {
                        dialog,
                        journeys: Vec::new(),
                        send_count: 0,
                        accept_count: 0,
                        accepts_done: false,
                        closed: false,
                        implicit: false,
                    });
            }
            EventKind::BulkSend {
                dst,
                dialog,
                seq,
                exit: _,
            } => {
                let gens = st.bulk.entry((node, dst.index())).or_default();
                if !gens.last().is_some_and(|g| g.dialog == dialog && !g.closed) {
                    // The open was evicted: infer a generation, flag it.
                    gens.push(SenderGen {
                        dialog,
                        journeys: Vec::new(),
                        send_count: 0,
                        accept_count: 0,
                        accepts_done: false,
                        closed: false,
                        implicit: true,
                    });
                }
                let gen = gens.last_mut().expect("just ensured non-empty");
                let abs = gen.send_count;
                gen.send_count += 1;
                let idx = set.journeys.len();
                let mut j = Journey::new(
                    node,
                    dst.index(),
                    JourneyKind::Bulk {
                        dialog,
                        abs_seq: abs,
                    },
                    at,
                );
                if gen.implicit || abs % SEQ_SPACE != u64::from(seq) {
                    j.incomplete = true;
                }
                set.journeys.push(j);
                gen.journeys.push(idx);
            }
            EventKind::Retransmit {
                dst,
                bulk: true,
                seq,
                ..
            } => {
                set.retx_events += 1;
                let gens = st.bulk.entry((node, dst.index())).or_default();
                let mut target = None;
                'gens: for gen in gens.iter() {
                    for &idx in &gen.journeys {
                        let j = &set.journeys[idx];
                        if j.end.is_none()
                            && j.accept.is_none()
                            && bulk_abs(j) % SEQ_SPACE == u64::from(seq)
                        {
                            target = Some(idx);
                            break 'gens;
                        }
                    }
                }
                if target.is_none() {
                    // Ack lost after delivery: the copy retried anyway.
                    'gens2: for gen in gens.iter() {
                        for &idx in &gen.journeys {
                            let j = &set.journeys[idx];
                            if j.end.is_none() && bulk_abs(j) % SEQ_SPACE == u64::from(seq) {
                                target = Some(idx);
                                break 'gens2;
                            }
                        }
                    }
                }
                match target {
                    Some(idx) => {
                        let j = &mut set.journeys[idx];
                        j.retransmits += 1;
                        if j.accept.is_none() {
                            j.last_send = at;
                        }
                    }
                    None => set.unmatched_events += 1,
                }
            }
            EventKind::BulkAccept {
                src,
                dialog,
                seq,
                exit,
            } => {
                let gens = st.bulk.entry((src.index(), node)).or_default();
                match gens
                    .iter_mut()
                    .find(|g| g.dialog == dialog && !g.accepts_done)
                {
                    Some(gen) => {
                        let abs = gen.accept_count;
                        gen.accept_count += 1;
                        if exit {
                            gen.accepts_done = true;
                        }
                        match gen.journeys.get(abs as usize) {
                            Some(&idx) => {
                                let j = &mut set.journeys[idx];
                                j.accept = Some(at);
                                if abs % SEQ_SPACE != u64::from(seq) {
                                    j.incomplete = true;
                                }
                            }
                            // The send record was shed; the delivery has
                            // no journey to land on.
                            None => set.orphan_accepts += 1,
                        }
                    }
                    None => set.orphan_accepts += 1,
                }
            }
            EventKind::WindowAdvance {
                peer,
                dialog,
                acked,
                ..
            } => {
                let gens = st.bulk.entry((node, peer.index())).or_default();
                if let Some(gen) = gens
                    .iter_mut()
                    .rev()
                    .find(|g| g.dialog == dialog && !g.closed)
                {
                    let upto = (acked as usize).min(gen.journeys.len());
                    for &idx in &gen.journeys[..upto] {
                        let j = &mut set.journeys[idx];
                        if j.end.is_none() {
                            j.end = Some(at);
                            j.status = JourneyStatus::Completed;
                            if j.accept.is_none() {
                                j.incomplete = true;
                                set.acked_without_accept += 1;
                            }
                        }
                    }
                } else {
                    set.unmatched_events += 1;
                }
            }
            EventKind::DialogClose { peer, dialog, end } => match end {
                // Sender-side closes.
                DialogEnd::Exit | DialogEnd::TornDown => {
                    let flow = (node, peer.index());
                    let gens = st.bulk.entry(flow).or_default();
                    match gens
                        .iter_mut()
                        .rev()
                        .find(|g| g.dialog == dialog && !g.closed)
                    {
                        Some(gen) => {
                            gen.closed = true;
                            gen.accepts_done = true;
                            if end == DialogEnd::TornDown {
                                for &idx in &gen.journeys {
                                    let j = &mut set.journeys[idx];
                                    if j.end.is_none() {
                                        j.status = JourneyStatus::Failed;
                                        j.end = Some(at);
                                    }
                                }
                                // The paired DeliveryFail follows.
                                *st.pending_teardown_fail.entry(flow).or_default() += 1;
                            }
                        }
                        None => set.unmatched_events += 1,
                    }
                }
                // Receiver-side reclaim: `peer` is the (vanished) sender.
                DialogEnd::Reclaimed => {
                    let gens = st.bulk.entry((peer.index(), node)).or_default();
                    if let Some(gen) = gens
                        .iter_mut()
                        .rev()
                        .find(|g| g.dialog == dialog && !g.accepts_done)
                    {
                        gen.accepts_done = true;
                    }
                }
            },
            EventKind::Drop { .. } => set.drop_events += 1,
            EventKind::WireFault { .. } => set.wire_fault_events += 1,
            // Remaining vocabulary carries no journey state: acks and
            // frames (sub-packet granularity), RTT/eligibility/heartbeat/
            // watchdog telemetry, grant/reject handshakes, restarts.
            _ => {}
        }
    }

    finish(&mut set, st);
    set
}

/// Absolute sequence of a bulk journey (scalar journeys never reach here).
fn bulk_abs(j: &Journey) -> u64 {
    match j.kind {
        JourneyKind::Bulk { abs_seq, .. } => abs_seq,
        JourneyKind::Scalar => 0,
    }
}

/// Terminal bookkeeping: in-flight marking, wedged-dialog collection,
/// loss flagging, and admission-wait computation.
fn finish(set: &mut JourneySet, st: State) {
    for open in st.scalar_open.values() {
        for &idx in open {
            let j = &mut set.journeys[idx];
            j.status = JourneyStatus::InFlight;
            j.incomplete = true;
        }
    }
    for (&(src, dst), gens) in &st.bulk {
        for gen in gens {
            if !gen.closed {
                set.wedged_dialogs.push((src, dst, gen.dialog));
            }
            for &idx in &gen.journeys {
                let j = &mut set.journeys[idx];
                if j.end.is_none() && j.status == JourneyStatus::InFlight {
                    j.incomplete = true;
                }
            }
        }
    }

    // A node that evicted ring entries may have shed any event; every
    // journey touching it is suspect.
    let lossy: Vec<usize> = set.loss.lossy_nodes();
    if !lossy.is_empty() {
        for j in &mut set.journeys {
            if lossy.contains(&j.src) || lossy.contains(&j.dst) {
                j.incomplete = true;
            }
        }
    }

    // Admission wait: per-flow gap behind the predecessor journey.
    // Scalars on a flow are serialized behind the predecessor's
    // retirement; bulk packets pipeline, so the reference point is the
    // predecessor's launch.
    let mut prev_scalar: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut prev_bulk: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for j in &mut set.journeys {
        let flow = (j.src, j.dst);
        match j.kind {
            JourneyKind::Scalar => {
                if let Some(&prev_end) = prev_scalar.get(&flow) {
                    j.admission_wait = j.first_send.saturating_sub(prev_end);
                }
                let retired = j.end.or(j.accept).unwrap_or(j.first_send);
                prev_scalar.insert(flow, retired);
            }
            JourneyKind::Bulk { .. } => {
                if let Some(&prev_send) = prev_bulk.get(&flow) {
                    j.admission_wait = j.first_send.saturating_sub(prev_send);
                }
                prev_bulk.insert(flow, j.first_send);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_sim::{Cycle, NodeId};

    fn ev(seq: u64, at: u64, node: usize, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at: Cycle::new(at),
            node: NodeId::new(node),
            kind,
        }
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn scalar_journey_full_lifecycle() {
        let events = vec![
            ev(
                0,
                10,
                0,
                EventKind::OptInsert {
                    dst: n(1),
                    occupancy: 1,
                },
            ),
            ev(
                1,
                10,
                0,
                EventKind::ScalarSend {
                    dst: n(1),
                    size_words: 8,
                },
            ),
            ev(
                2,
                74,
                0,
                EventKind::Retransmit {
                    dst: n(1),
                    rto: 64,
                    retries: 1,
                    bulk: false,
                    seq: 0,
                },
            ),
            ev(3, 90, 1, EventKind::ScalarAccept { src: n(0) }),
            ev(
                4,
                103,
                0,
                EventKind::OptClear {
                    dst: n(1),
                    occupancy: 0,
                },
            ),
        ];
        let set = stitch(&events, &TraceLoss::default());
        assert_eq!(set.journeys.len(), 1);
        let j = &set.journeys[0];
        assert_eq!(j.status, JourneyStatus::Completed);
        assert!(!j.incomplete);
        assert_eq!(j.retransmits, 1);
        assert_eq!(j.end_to_end(), Some(93));
        let d = j.decomposition().unwrap();
        assert_eq!(
            (d.retx_penalty, d.fabric_transit, d.ack_turnaround),
            (64, 16, 13)
        );
        assert_eq!(set.retx_events, 1);
        assert_eq!(set.orphan_accepts, 0);
    }

    #[test]
    fn serialized_scalars_match_in_order() {
        // Two back-to-back acked scalars on the same flow: accepts and
        // clears must pair oldest-first, and the second journey's
        // admission wait is the gap behind the first's clear.
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::OptInsert {
                    dst: n(1),
                    occupancy: 1,
                },
            ),
            ev(
                1,
                0,
                0,
                EventKind::ScalarSend {
                    dst: n(1),
                    size_words: 1,
                },
            ),
            ev(2, 8, 1, EventKind::ScalarAccept { src: n(0) }),
            ev(
                3,
                16,
                0,
                EventKind::OptClear {
                    dst: n(1),
                    occupancy: 0,
                },
            ),
            ev(
                4,
                20,
                0,
                EventKind::OptInsert {
                    dst: n(1),
                    occupancy: 1,
                },
            ),
            ev(
                5,
                20,
                0,
                EventKind::ScalarSend {
                    dst: n(1),
                    size_words: 1,
                },
            ),
            ev(6, 28, 1, EventKind::ScalarAccept { src: n(0) }),
            ev(
                7,
                36,
                0,
                EventKind::OptClear {
                    dst: n(1),
                    occupancy: 0,
                },
            ),
        ];
        let set = stitch(&events, &TraceLoss::default());
        assert_eq!(set.journeys.len(), 2);
        assert!(set
            .journeys
            .iter()
            .all(|j| j.status == JourneyStatus::Completed));
        assert_eq!(set.journeys[0].admission_wait, 0);
        assert_eq!(set.journeys[1].admission_wait, 4); // launched 20, prior cleared 16
    }

    #[test]
    fn bulk_generation_stitches_by_order_and_residue() {
        let mk_send = |seq: u8, exit: bool| EventKind::BulkSend {
            dst: n(1),
            dialog: 0,
            seq,
            exit,
        };
        let mk_accept = |seq: u8, exit: bool| EventKind::BulkAccept {
            src: n(0),
            dialog: 0,
            seq,
            exit,
        };
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::DialogOpen {
                    peer: n(1),
                    dialog: 0,
                    window: 8,
                },
            ),
            ev(1, 1, 0, mk_send(0, false)),
            ev(2, 2, 0, mk_send(1, false)),
            ev(3, 3, 0, mk_send(2, true)),
            ev(4, 9, 1, mk_accept(0, false)),
            ev(5, 10, 1, mk_accept(1, false)),
            ev(6, 11, 1, mk_accept(2, true)),
            ev(
                7,
                18,
                0,
                EventKind::WindowAdvance {
                    peer: n(1),
                    dialog: 0,
                    acked: 3,
                    outstanding: 0,
                },
            ),
            ev(
                8,
                18,
                0,
                EventKind::DialogClose {
                    peer: n(1),
                    dialog: 0,
                    end: DialogEnd::Exit,
                },
            ),
        ];
        let set = stitch(&events, &TraceLoss::default());
        assert_eq!(set.journeys.len(), 3);
        assert!(set
            .journeys
            .iter()
            .all(|j| j.status == JourneyStatus::Completed));
        assert!(set.journeys.iter().all(|j| !j.incomplete));
        assert_eq!(set.wedged_dialogs.len(), 0);
        assert_eq!(set.journeys[2].end, Some(18));
        assert_eq!(set.journeys[1].accept, Some(10));
    }

    #[test]
    fn teardown_fails_remaining_and_absorbs_delivery_fail() {
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::DialogOpen {
                    peer: n(1),
                    dialog: 0,
                    window: 8,
                },
            ),
            ev(
                1,
                1,
                0,
                EventKind::BulkSend {
                    dst: n(1),
                    dialog: 0,
                    seq: 0,
                    exit: false,
                },
            ),
            ev(
                2,
                500,
                0,
                EventKind::DialogClose {
                    peer: n(1),
                    dialog: 0,
                    end: DialogEnd::TornDown,
                },
            ),
            ev(
                3,
                500,
                0,
                EventKind::DeliveryFail {
                    dst: n(1),
                    retries: 7,
                },
            ),
        ];
        let set = stitch(&events, &TraceLoss::default());
        assert_eq!(set.journeys.len(), 1);
        assert_eq!(set.journeys[0].status, JourneyStatus::Failed);
        assert_eq!(set.delivery_fail_events, 1);
        assert_eq!(set.matched_failures, 1);
        assert_eq!(set.unmatched_events, 0);
    }

    #[test]
    fn orphan_accept_is_counted_not_invented() {
        let events = vec![ev(0, 5, 1, EventKind::ScalarAccept { src: n(0) })];
        let set = stitch(&events, &TraceLoss::default());
        assert_eq!(set.journeys.len(), 0);
        assert_eq!(set.orphan_accepts, 1);
    }

    #[test]
    fn evicting_node_taints_its_journeys() {
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::ScalarSend {
                    dst: n(1),
                    size_words: 1,
                },
            ),
            ev(1, 8, 1, EventKind::ScalarAccept { src: n(0) }),
            ev(
                2,
                10,
                2,
                EventKind::ScalarSend {
                    dst: n(3),
                    size_words: 1,
                },
            ),
            ev(3, 18, 3, EventKind::ScalarAccept { src: n(2) }),
        ];
        let loss = TraceLoss {
            evicted: vec![0, 0, 0, 5],
            sampled_out: vec![0, 0, 0, 0],
        };
        let set = stitch(&events, &loss);
        assert_eq!(set.journeys.len(), 2);
        assert!(!set.journeys[0].incomplete, "untouched flow stays clean");
        assert!(
            set.journeys[1].incomplete,
            "flow touching lossy node 3 flagged"
        );
    }

    #[test]
    fn unclosed_generation_is_wedged() {
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::DialogOpen {
                    peer: n(1),
                    dialog: 3,
                    window: 8,
                },
            ),
            ev(
                1,
                1,
                0,
                EventKind::BulkSend {
                    dst: n(1),
                    dialog: 3,
                    seq: 0,
                    exit: false,
                },
            ),
        ];
        let set = stitch(&events, &TraceLoss::default());
        assert_eq!(set.wedged_dialogs, vec![(0, 1, 3)]);
        assert_eq!(set.journeys[0].status, JourneyStatus::InFlight);
        assert!(set.journeys[0].incomplete);
    }
}
