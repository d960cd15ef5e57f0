//! Trace-parity fixture: constructs every [`EventKind`] variant once, runs
//! both exporters over the set, and asserts each variant's stable wire name
//! appears in both outputs. The compiler does the enumeration: `name()`
//! and the JSONL `kind_args` match without a wildcard (clippy denies one),
//! and [`fixture_index`] below matches exhaustively, so a new variant does
//! not build until it has a name, an argument list and a slot in
//! [`one_of_each`] — which `fixture_covers_every_variant` then checks it
//! really occupies.

use nifdy_sim::{Cycle, NodeId};
use nifdy_trace::export::{
    to_chrome_trace, to_chrome_trace_with_loss, to_jsonl, to_jsonl_with_loss,
};
use nifdy_trace::{DialogEnd, DropReason, EventKind, TraceEvent, TraceLoss, WireFaultCause};

/// One event of every variant, in declaration order.
fn one_of_each() -> Vec<EventKind> {
    let a = NodeId::new(0);
    let b = NodeId::new(1);
    vec![
        EventKind::ScalarSend {
            dst: b,
            size_words: 8,
        },
        EventKind::BulkSend {
            dst: b,
            dialog: 2,
            seq: 5,
            exit: false,
        },
        EventKind::AckSend { dst: a },
        EventKind::OptInsert {
            dst: b,
            occupancy: 1,
        },
        EventKind::OptClear {
            dst: b,
            occupancy: 0,
        },
        EventKind::EligStall { pool: 4, opt: 4 },
        EventKind::BulkRequest { dst: b },
        EventKind::DialogOpen {
            peer: b,
            dialog: 2,
            window: 8,
        },
        EventKind::DialogGrant { peer: a, dialog: 2 },
        EventKind::DialogReject { peer: a },
        EventKind::WindowAdvance {
            peer: b,
            dialog: 2,
            acked: 3,
            outstanding: 5,
        },
        EventKind::DialogClose {
            peer: b,
            dialog: 2,
            end: DialogEnd::Exit,
        },
        EventKind::Retransmit {
            dst: b,
            rto: 64,
            retries: 1,
            bulk: false,
            seq: 0,
        },
        EventKind::RttSample {
            dst: b,
            rtt: 40,
            srtt: 42,
            rto: 80,
        },
        EventKind::DeliveryFail { dst: b, retries: 7 },
        EventKind::Drop {
            src: a,
            dst: b,
            ack: false,
            cause: DropReason::Burst,
        },
        EventKind::Deliver {
            src: a,
            dst: b,
            ack: false,
            latency: 12,
        },
        EventKind::ScalarAccept { src: a },
        EventKind::BulkAccept {
            src: a,
            dialog: 2,
            seq: 5,
            exit: false,
        },
        EventKind::FrameSend {
            dst: b,
            ack: false,
            bytes: 32,
        },
        EventKind::FrameRecv {
            src: a,
            ack: true,
            bytes: 8,
        },
        EventKind::FrameReject { bytes: 3 },
        EventKind::WatchdogFire {
            unit: 1,
            since: Cycle::ZERO,
            fingerprint: 0xdead,
        },
        EventKind::WireFault {
            cause: WireFaultCause::Corrupt,
            bytes: 26,
        },
        EventKind::Heartbeat {
            peer: b,
            epoch: 2,
            sent: true,
        },
        EventKind::PeerDown {
            peer: b,
            silent_for: 4_000,
        },
        EventKind::PeerRestart { peer: b, epoch: 3 },
        EventKind::EndpointRestart {
            epoch: 3,
            backoff: 128,
        },
    ]
}

/// Where each variant sits in [`one_of_each`]. No wildcard arm: adding a
/// variant is a compile error here until it is given its fixture slot.
fn fixture_index(kind: &EventKind) -> usize {
    match kind {
        EventKind::ScalarSend { .. } => 0,
        EventKind::BulkSend { .. } => 1,
        EventKind::AckSend { .. } => 2,
        EventKind::OptInsert { .. } => 3,
        EventKind::OptClear { .. } => 4,
        EventKind::EligStall { .. } => 5,
        EventKind::BulkRequest { .. } => 6,
        EventKind::DialogOpen { .. } => 7,
        EventKind::DialogGrant { .. } => 8,
        EventKind::DialogReject { .. } => 9,
        EventKind::WindowAdvance { .. } => 10,
        EventKind::DialogClose { .. } => 11,
        EventKind::Retransmit { .. } => 12,
        EventKind::RttSample { .. } => 13,
        EventKind::DeliveryFail { .. } => 14,
        EventKind::Drop { .. } => 15,
        EventKind::Deliver { .. } => 16,
        EventKind::ScalarAccept { .. } => 17,
        EventKind::BulkAccept { .. } => 18,
        EventKind::FrameSend { .. } => 19,
        EventKind::FrameRecv { .. } => 20,
        EventKind::FrameReject { .. } => 21,
        EventKind::WatchdogFire { .. } => 22,
        EventKind::WireFault { .. } => 23,
        EventKind::Heartbeat { .. } => 24,
        EventKind::PeerDown { .. } => 25,
        EventKind::PeerRestart { .. } => 26,
        EventKind::EndpointRestart { .. } => 27,
    }
}

fn events() -> Vec<TraceEvent> {
    one_of_each()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            seq: i as u64,
            at: Cycle::new(i as u64),
            node: NodeId::new(0),
            kind,
        })
        .collect()
}

/// The string that proves a variant survived the Chrome export: the wire
/// name for instants, the span/counter track name for the variants the
/// exporter maps onto richer trace-event phases.
fn chrome_marker(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::DialogOpen { .. }
        | EventKind::DialogGrant { .. }
        | EventKind::DialogClose { .. } => "bulk_dialog",
        EventKind::OptInsert { .. } | EventKind::OptClear { .. } => "opt_occupancy",
        EventKind::WindowAdvance { .. } => "window_outstanding",
        other => other.name(),
    }
}

#[test]
fn fixture_covers_every_variant() {
    let kinds = one_of_each();
    assert_eq!(
        kinds.len(),
        EventKind::VARIANT_COUNT,
        "one_of_each() must construct every EventKind variant exactly once \
         (update it and VARIANT_COUNT together)"
    );
    for (i, kind) in kinds.iter().enumerate() {
        assert_eq!(fixture_index(kind), i, "{} is out of place", kind.name());
    }
    // Names are the wire identity; a duplicate means a variant is missing.
    let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EventKind::VARIANT_COUNT, "duplicate wire name");
}

#[test]
fn jsonl_exports_every_variant() {
    let events = events();
    let jsonl = to_jsonl(&events);
    assert_eq!(jsonl.lines().count(), EventKind::VARIANT_COUNT);
    for kind in one_of_each() {
        let quoted = format!("\"{}\"", kind.name());
        assert!(
            jsonl.contains(&quoted),
            "JSONL export lost variant {quoted}"
        );
    }
}

#[test]
fn chrome_trace_exports_every_variant() {
    let events = events();
    let chrome = to_chrome_trace(&events);
    for kind in one_of_each() {
        let quoted = format!("\"{}\"", chrome_marker(&kind));
        assert!(
            chrome.contains(&quoted),
            "Chrome export lost variant {} (marker {quoted})",
            kind.name()
        );
    }
}

/// Both exporters surface the per-node loss accounting: the JSONL trailer
/// line and the Chrome `traceLoss` object plus per-node instants.
#[test]
fn loss_accounting_reaches_both_exporters() {
    let events = events();
    let loss = TraceLoss {
        evicted: vec![3, 0, 7],
        sampled_out: vec![0, 2, 0],
    };

    let jsonl = to_jsonl_with_loss(&events, &loss);
    assert_eq!(jsonl.lines().count(), EventKind::VARIANT_COUNT + 1);
    let trailer = jsonl.lines().last().unwrap();
    assert!(trailer.contains("\"trace_loss\""), "{trailer}");
    assert!(trailer.contains("\"evicted_total\":10"), "{trailer}");
    assert!(trailer.contains("\"sampled_out_total\":2"), "{trailer}");
    assert!(trailer.contains("[3,0,7]"), "{trailer}");

    let chrome = to_chrome_trace_with_loss(&events, &loss);
    assert!(chrome.contains("\"traceLoss\""), "missing totals object");
    // Nodes 0, 1, and 2 each shed history, so each gets an instant.
    assert_eq!(chrome.matches("\"trace_loss\"").count(), 1 + 3);

    // A lossless session still gets the zero trailer (completeness proof).
    let clean = to_jsonl_with_loss(&events, &TraceLoss::default());
    assert!(clean
        .lines()
        .last()
        .unwrap()
        .contains("\"evicted_total\":0"));
}
