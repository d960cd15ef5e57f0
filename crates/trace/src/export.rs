//! Exporters: one event per line (JSONL) for ad-hoc tooling, and Chrome
//! trace-event JSON loadable in Perfetto / `chrome://tracing`.
//!
//! The Chrome export maps the protocol onto the trace-event model:
//!
//! * one **track per NIC** (`ph:"M"` `thread_name` metadata, `pid` 1,
//!   `tid` = node index),
//! * **instant events** (`ph:"i"`) for sends, drops (with cause),
//!   retransmits, stalls and watchdog fires,
//! * **async spans** (`ph:"b"`/`ph:"e"`, category `bulk`) spanning each
//!   bulk dialog from open/grant to close, so dialog lifetimes render as
//!   bars on Perfetto's async tracks,
//! * **counter events** (`ph:"C"`) for OPT occupancy and window
//!   outstanding counts.
//!
//! Timestamps are microseconds in the trace-event model; the export uses
//! the 1-cycle = 1 µs convention so cycle arithmetic survives unchanged.

use std::collections::BTreeMap;

use crate::event::{EventKind, TraceEvent};
use crate::json::Json;
use crate::recorder::TraceLoss;

/// Renders events as JSON Lines: one compact object per event, in the
/// order given. Schema per line:
/// `{"seq":…,"cycle":…,"node":…,"ev":"<name>", …kind-specific fields…}`.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev).render());
        out.push('\n');
    }
    out
}

/// Renders events as JSON Lines followed by one **loss-accounting
/// trailer** line, schema
/// `{"ev":"trace_loss","evicted":[…],"evicted_total":…,"sampled_out":[…],"sampled_out_total":…}`
/// (per-node arrays indexed by node). The trailer is always present — a
/// zero record is the proof the stream is complete, absence would be
/// ambiguous — and uses an `ev` name no [`EventKind`] variant can collide
/// with.
pub fn to_jsonl_with_loss(events: &[TraceEvent], loss: &TraceLoss) -> String {
    let mut out = to_jsonl(events);
    out.push_str(&loss_json(loss).render());
    out.push('\n');
    out
}

/// The loss-accounting record shared by both exporters.
fn loss_json(loss: &TraceLoss) -> Json {
    Json::obj([
        ("ev", Json::str("trace_loss")),
        (
            "evicted",
            Json::Arr(loss.evicted.iter().map(|&n| Json::u64(n)).collect()),
        ),
        ("evicted_total", Json::u64(loss.evicted_total())),
        (
            "sampled_out",
            Json::Arr(loss.sampled_out.iter().map(|&n| Json::u64(n)).collect()),
        ),
        ("sampled_out_total", Json::u64(loss.sampled_out_total())),
    ])
}

/// One JSONL record.
fn event_json(ev: &TraceEvent) -> Json {
    let mut map = BTreeMap::new();
    map.insert("seq".to_string(), Json::u64(ev.seq));
    map.insert("cycle".to_string(), Json::u64(ev.at.as_u64()));
    map.insert("node".to_string(), Json::u64(ev.node.index() as u64));
    map.insert("ev".to_string(), Json::str(ev.kind.name()));
    if let Json::Obj(fields) = kind_args(&ev.kind) {
        map.extend(fields);
    }
    Json::Obj(map)
}

/// Kind-specific fields, shared between the JSONL schema and the Chrome
/// export's `args` object.
fn kind_args(kind: &EventKind) -> Json {
    match *kind {
        EventKind::ScalarSend { dst, size_words } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("size_words", Json::u64(size_words as u64)),
        ]),
        EventKind::BulkSend {
            dst,
            dialog,
            seq,
            exit,
        } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("dialog", Json::u64(dialog as u64)),
            ("wire_seq", Json::u64(seq as u64)),
            ("exit", Json::Bool(exit)),
        ]),
        EventKind::AckSend { dst } => Json::obj([("dst", Json::u64(dst.index() as u64))]),
        EventKind::OptInsert { dst, occupancy } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("occupancy", Json::u64(occupancy as u64)),
        ]),
        EventKind::OptClear { dst, occupancy } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("occupancy", Json::u64(occupancy as u64)),
        ]),
        EventKind::EligStall { pool, opt } => Json::obj([
            ("pool", Json::u64(pool as u64)),
            ("opt", Json::u64(opt as u64)),
        ]),
        EventKind::BulkRequest { dst } => Json::obj([("dst", Json::u64(dst.index() as u64))]),
        EventKind::DialogOpen {
            peer,
            dialog,
            window,
        } => Json::obj([
            ("peer", Json::u64(peer.index() as u64)),
            ("dialog", Json::u64(dialog as u64)),
            ("window", Json::u64(window as u64)),
        ]),
        EventKind::DialogGrant { peer, dialog } => Json::obj([
            ("peer", Json::u64(peer.index() as u64)),
            ("dialog", Json::u64(dialog as u64)),
        ]),
        EventKind::DialogReject { peer } => Json::obj([("peer", Json::u64(peer.index() as u64))]),
        EventKind::WindowAdvance {
            peer,
            dialog,
            acked,
            outstanding,
        } => Json::obj([
            ("peer", Json::u64(peer.index() as u64)),
            ("dialog", Json::u64(dialog as u64)),
            ("acked", Json::u64(acked)),
            ("outstanding", Json::u64(outstanding)),
        ]),
        EventKind::DialogClose { peer, dialog, end } => Json::obj([
            ("peer", Json::u64(peer.index() as u64)),
            ("dialog", Json::u64(dialog as u64)),
            ("end", Json::str(end.label())),
        ]),
        EventKind::Retransmit {
            dst,
            rto,
            retries,
            bulk,
            seq,
        } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("rto", Json::u64(rto)),
            ("retries", Json::u64(retries as u64)),
            ("bulk", Json::Bool(bulk)),
            ("wire_seq", Json::u64(seq as u64)),
        ]),
        EventKind::RttSample {
            dst,
            rtt,
            srtt,
            rto,
        } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("rtt", Json::u64(rtt)),
            ("srtt", Json::u64(srtt)),
            ("rto", Json::u64(rto)),
        ]),
        EventKind::DeliveryFail { dst, retries } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("retries", Json::u64(retries as u64)),
        ]),
        EventKind::Drop {
            src,
            dst,
            ack,
            cause,
        } => Json::obj([
            ("src", Json::u64(src.index() as u64)),
            ("dst", Json::u64(dst.index() as u64)),
            ("ack", Json::Bool(ack)),
            ("cause", Json::str(cause.label())),
        ]),
        EventKind::Deliver {
            src,
            dst,
            ack,
            latency,
        } => Json::obj([
            ("src", Json::u64(src.index() as u64)),
            ("dst", Json::u64(dst.index() as u64)),
            ("ack", Json::Bool(ack)),
            ("latency", Json::u64(latency)),
        ]),
        EventKind::ScalarAccept { src } => Json::obj([("src", Json::u64(src.index() as u64))]),
        EventKind::BulkAccept {
            src,
            dialog,
            seq,
            exit,
        } => Json::obj([
            ("src", Json::u64(src.index() as u64)),
            ("dialog", Json::u64(dialog as u64)),
            ("wire_seq", Json::u64(seq as u64)),
            ("exit", Json::Bool(exit)),
        ]),
        EventKind::FrameSend { dst, ack, bytes } => Json::obj([
            ("dst", Json::u64(dst.index() as u64)),
            ("ack", Json::Bool(ack)),
            ("bytes", Json::u64(bytes as u64)),
        ]),
        EventKind::FrameRecv { src, ack, bytes } => Json::obj([
            ("src", Json::u64(src.index() as u64)),
            ("ack", Json::Bool(ack)),
            ("bytes", Json::u64(bytes as u64)),
        ]),
        EventKind::FrameReject { bytes } => Json::obj([("bytes", Json::u64(bytes as u64))]),
        EventKind::WatchdogFire {
            unit,
            since,
            fingerprint,
        } => Json::obj([
            ("unit", Json::u64(unit as u64)),
            ("since", Json::u64(since.as_u64())),
            ("fingerprint", Json::u64(fingerprint)),
        ]),
        EventKind::WireFault { cause, bytes } => Json::obj([
            ("cause", Json::str(cause.label())),
            ("bytes", Json::u64(bytes as u64)),
        ]),
        EventKind::Heartbeat { peer, epoch, sent } => Json::obj([
            ("peer", Json::u64(peer.index() as u64)),
            ("epoch", Json::u64(epoch as u64)),
            ("sent", Json::Bool(sent)),
        ]),
        EventKind::PeerDown { peer, silent_for } => Json::obj([
            ("peer", Json::u64(peer.index() as u64)),
            ("silent_for", Json::u64(silent_for)),
        ]),
        EventKind::PeerRestart { peer, epoch } => Json::obj([
            ("peer", Json::u64(peer.index() as u64)),
            ("epoch", Json::u64(epoch as u64)),
        ]),
    }
}

/// One Chrome trace event: the five fields every event carries (`name`,
/// `ph`, `ts`, `pid` 1, `tid`) plus `extra`.
pub fn chrome_event(
    name: &str,
    ph: &str,
    ts: u64,
    tid: u64,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut map = BTreeMap::new();
    map.insert("name".to_string(), Json::str(name));
    map.insert("ph".to_string(), Json::str(ph));
    map.insert("ts".to_string(), Json::u64(ts));
    map.insert("pid".to_string(), Json::u64(1));
    map.insert("tid".to_string(), Json::u64(tid));
    for (k, v) in extra {
        map.insert(k.to_string(), v);
    }
    Json::Obj(map)
}

/// A stable async-span id for a bulk dialog: receiver node and wire dialog
/// slot identify one live dialog at any instant; an open counter
/// disambiguates reuse of the same slot over time.
fn dialog_span_id(receiver: usize, dialog: u8, generation: u64) -> String {
    format!("d{receiver}.{dialog}.g{generation}")
}

/// Renders [`chrome_trace_doc`] without loss accounting.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    chrome_trace_doc(events, None).render()
}

/// Converts a time-ordered event snapshot into a Chrome trace-event
/// document (the `{"traceEvents": […]}` object form), for callers that
/// append events of their own before rendering.
///
/// With `loss`, per-node `trace_loss` instant events (phase `"i"`, placed
/// at the last traced cycle on each lossy node's track) show a Perfetto
/// view *where* ring eviction or sampling shed history, and a top-level
/// `"traceLoss"` object carries the totals even when no node was lossy.
pub fn chrome_trace_doc(events: &[TraceEvent], loss: Option<&TraceLoss>) -> Json {
    let mut out: Vec<Json> = Vec::new();

    // One named track per NIC that appears in the trace.
    let mut nodes: Vec<usize> = events.iter().map(|e| e.node.index()).collect();
    for e in events {
        // Dialog spans are emitted on the *receiver's* track; make sure
        // peers referenced only as dialog endpoints get a track too.
        if let EventKind::DialogOpen { peer, .. } = e.kind {
            nodes.push(peer.index());
        }
    }
    nodes.sort_unstable();
    nodes.dedup();
    for &n in &nodes {
        out.push(chrome_event(
            "thread_name",
            "M",
            0,
            n as u64,
            [("args", Json::obj([("name", Json::str(format!("nic {n}")))]))],
        ));
    }

    // Async bulk-dialog spans: keyed by (receiver, slot); a generation
    // counter keeps reused slots distinct. Sender-side DialogOpen and
    // receiver-side DialogGrant both map to the same span begin; whichever
    // arrives first in the merged order opens it.
    let mut generations: BTreeMap<(usize, u8), u64> = BTreeMap::new();
    let mut open: BTreeMap<(usize, u8), String> = BTreeMap::new();

    for ev in events {
        let ts = ev.at.as_u64();
        let tid = ev.node.index() as u64;
        let name = ev.kind.name();
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "a variant without a bespoke track renders as a generic instant event, \
                      the intended default for future variants; `kind_args` and `name()` \
                      match exhaustively, so none is dropped"
        )]
        match ev.kind {
            EventKind::DialogOpen { peer, dialog, .. }
            | EventKind::DialogGrant { peer, dialog } => {
                // Normalize to the receiver's identity: for DialogOpen the
                // observer is the sender and `peer` the receiver; for
                // DialogGrant the observer is the receiver.
                let receiver = if matches!(ev.kind, EventKind::DialogOpen { .. }) {
                    peer.index()
                } else {
                    ev.node.index()
                };
                let key = (receiver, dialog);
                if let std::collections::btree_map::Entry::Vacant(slot) = open.entry(key) {
                    let generation = generations.entry(key).or_insert(0);
                    *generation += 1;
                    let id = dialog_span_id(receiver, dialog, *generation);
                    out.push(chrome_event(
                        "bulk_dialog",
                        "b",
                        ts,
                        receiver as u64,
                        [
                            ("cat", Json::str("bulk")),
                            ("id", Json::str(id.clone())),
                            ("args", kind_args(&ev.kind)),
                        ],
                    ));
                    slot.insert(id);
                }
            }
            EventKind::DialogClose { peer, dialog, .. } => {
                // Close events come from both ends; the receiver is
                // whichever endpoint owns the granted slot. Try the
                // observer first (receiver-side reclaim), then the peer
                // (sender-side exit/teardown).
                let key = [(ev.node.index(), dialog), (peer.index(), dialog)]
                    .into_iter()
                    .find(|k| open.contains_key(k));
                if let Some(key) = key {
                    #[expect(clippy::expect_used, reason = "`find` just saw this key in `open`")]
                    let id = open.remove(&key).expect("checked above");
                    out.push(chrome_event(
                        "bulk_dialog",
                        "e",
                        ts,
                        key.0 as u64,
                        [
                            ("cat", Json::str("bulk")),
                            ("id", Json::str(id)),
                            ("args", kind_args(&ev.kind)),
                        ],
                    ));
                }
            }
            EventKind::OptInsert { occupancy, .. } | EventKind::OptClear { occupancy, .. } => {
                out.push(chrome_event(
                    "opt_occupancy",
                    "C",
                    ts,
                    tid,
                    [(
                        "args",
                        Json::obj([("entries", Json::u64(occupancy as u64))]),
                    )],
                ));
            }
            EventKind::WindowAdvance { outstanding, .. } => {
                out.push(chrome_event(
                    "window_outstanding",
                    "C",
                    ts,
                    tid,
                    [("args", Json::obj([("packets", Json::u64(outstanding))]))],
                ));
            }
            _ => {
                out.push(chrome_event(
                    name,
                    "i",
                    ts,
                    tid,
                    [("s", Json::str("t")), ("args", kind_args(&ev.kind))],
                ));
            }
        }
    }

    // Close any span still open at the end of the trace so Perfetto does
    // not render dangling async begins.
    if let Some(last) = events.last() {
        let ts = last.at.as_u64();
        for ((receiver, _), id) in open {
            out.push(chrome_event(
                "bulk_dialog",
                "e",
                ts,
                receiver as u64,
                [
                    ("cat", Json::str("bulk")),
                    ("id", Json::str(id)),
                    ("args", Json::obj([("end", Json::str("trace_truncated"))])),
                ],
            ));
        }
    }

    let mut doc = vec![("displayTimeUnit", Json::str("ns"))];
    if let Some(loss) = loss {
        let last_ts = events.last().map_or(0, |e| e.at.as_u64());
        for (node, (&ev, &sk)) in loss.evicted.iter().zip(loss.sampled_out.iter()).enumerate() {
            if ev == 0 && sk == 0 {
                continue;
            }
            out.push(chrome_event(
                "trace_loss",
                "i",
                last_ts,
                node as u64,
                [
                    ("s", Json::str("t")),
                    (
                        "args",
                        Json::obj([("evicted", Json::u64(ev)), ("sampled_out", Json::u64(sk))]),
                    ),
                ],
            ));
        }
        doc.push(("traceLoss", loss_json(loss)));
    }
    doc.push(("traceEvents", Json::Arr(out)));
    Json::obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DialogEnd, FaultCause};
    use crate::json::parse;
    use nifdy_sim::{Cycle, NodeId};

    fn ev(seq: u64, at: u64, node: usize, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at: Cycle::new(at),
            node: NodeId::new(node),
            kind,
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                10,
                0,
                EventKind::ScalarSend {
                    dst: NodeId::new(1),
                    size_words: 8,
                },
            ),
            ev(
                1,
                12,
                1,
                EventKind::DialogGrant {
                    peer: NodeId::new(0),
                    dialog: 2,
                },
            ),
            ev(
                2,
                14,
                0,
                EventKind::DialogOpen {
                    peer: NodeId::new(1),
                    dialog: 2,
                    window: 16,
                },
            ),
            ev(
                3,
                20,
                1,
                EventKind::Drop {
                    src: NodeId::new(0),
                    dst: NodeId::new(1),
                    ack: false,
                    cause: FaultCause::Burst,
                },
            ),
            ev(
                4,
                40,
                0,
                EventKind::DialogClose {
                    peer: NodeId::new(1),
                    dialog: 2,
                    end: DialogEnd::Exit,
                },
            ),
        ]
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let text = to_jsonl(&sample_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let first = parse(lines[0]).expect("line 0");
        assert_eq!(first.get("ev").unwrap().as_str(), Some("scalar_send"));
        assert_eq!(first.get("cycle").unwrap().as_u64(), Some(10));
        let drop = parse(lines[3]).expect("line 3");
        assert_eq!(drop.get("cause").unwrap().as_str(), Some("burst"));
    }

    #[test]
    fn chrome_trace_round_trips_and_has_tracks_spans_and_drops() {
        let text = to_chrome_trace(&sample_events());
        let doc = parse(&text).expect("well-formed chrome trace");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let phase = |e: &Json| e.get("ph").unwrap().as_str().unwrap().to_string();
        let tracks: Vec<&Json> = events.iter().filter(|e| phase(e) == "M").collect();
        assert_eq!(tracks.len(), 2, "one metadata track per NIC");

        let begins: Vec<&Json> = events.iter().filter(|e| phase(e) == "b").collect();
        let ends: Vec<&Json> = events.iter().filter(|e| phase(e) == "e").collect();
        assert_eq!(begins.len(), 1, "one dialog span");
        assert_eq!(ends.len(), 1);
        assert_eq!(
            begins[0].get("id").unwrap().as_str(),
            ends[0].get("id").unwrap().as_str(),
            "begin/end share the async id"
        );
        assert_eq!(begins[0].get("cat").unwrap().as_str(), Some("bulk"));

        let drops: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("drop"))
            .collect();
        assert_eq!(drops.len(), 1);
        assert_eq!(
            drops[0].get("args").unwrap().get("cause").unwrap().as_str(),
            Some("burst")
        );
    }

    #[test]
    fn grant_then_open_yields_a_single_span() {
        // Both endpoints log the dialog start; only one span must open.
        let events = sample_events();
        let text = to_chrome_trace(&events);
        let doc = parse(&text).expect("parse");
        let begins = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("b"))
            .count();
        assert_eq!(begins, 1);
    }

    #[test]
    fn dangling_spans_are_closed_at_trace_end() {
        let events = vec![ev(
            0,
            5,
            1,
            EventKind::DialogGrant {
                peer: NodeId::new(0),
                dialog: 0,
            },
        )];
        let text = to_chrome_trace(&events);
        let doc = parse(&text).expect("parse");
        let phases: Vec<String> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(phases.contains(&"b".to_string()));
        assert!(phases.contains(&"e".to_string()));
    }

    #[test]
    fn counter_events_for_occupancy() {
        let events = vec![ev(
            0,
            7,
            2,
            EventKind::OptInsert {
                dst: NodeId::new(3),
                occupancy: 5,
            },
        )];
        let text = to_chrome_trace(&events);
        let doc = parse(&text).expect("parse");
        let counters: Vec<&Json> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0]
                .get("args")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64(),
            Some(5)
        );
    }
}
