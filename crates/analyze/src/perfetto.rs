//! Journey-enriched Perfetto export: layers reconstructed journey spans
//! on top of the standard Chrome trace so Perfetto renders each packet's
//! life as an async bar (launch → sender-visible retirement) on its
//! sender's track, with the latency decomposition in the span arguments.

use std::collections::BTreeMap;

use nifdy_trace::export::{chrome_event, chrome_trace_doc};
use nifdy_trace::json::Json;
use nifdy_trace::{TraceEvent, TraceLoss};

use crate::stitch::JourneySet;

/// Renders the Chrome/Perfetto document with one async `journey` span per
/// reconstructed journey appended to the standard export. Span ids are
/// `j<src>.<dst>.<n>` (n = per-flow launch ordinal) so concurrent
/// journeys on different flows never collide.
pub fn enrich_chrome_trace(events: &[TraceEvent], loss: &TraceLoss, set: &JourneySet) -> String {
    let mut doc = chrome_trace_doc(events, Some(loss));
    let span = |id: &str| [("cat", Json::str("journey")), ("id", Json::str(id))];
    let mut spans = Vec::new();
    let mut ordinals: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for j in &set.journeys {
        let n = ordinals.entry(j.flow()).or_default();
        let id = format!("j{}.{}.{n}", j.src, j.dst);
        *n += 1;
        // Spans need both endpoints; an in-flight journey has none yet.
        let Some(finish) = j.end.or(j.accept) else {
            continue;
        };
        let name = format!("{}_journey", j.kind.name());
        let mut args = vec![
            ("dst", Json::u64(j.dst as u64)),
            ("status", Json::str(j.status.name())),
            ("retransmits", Json::u64(u64::from(j.retransmits))),
            ("admission_wait", Json::u64(j.admission_wait)),
        ];
        if let Some(d) = j.decomposition() {
            args.push(("retx_penalty", Json::u64(d.retx_penalty)));
            args.push(("fabric_transit", Json::u64(d.fabric_transit)));
            args.push(("ack_turnaround", Json::u64(d.ack_turnaround)));
        }
        if j.incomplete {
            args.push(("incomplete", Json::Bool(true)));
        }
        spans.push(chrome_event(
            &name,
            "b",
            j.first_send,
            j.src as u64,
            span(&id).into_iter().chain([("args", Json::obj(args))]),
        ));
        spans.push(chrome_event(&name, "e", finish, j.src as u64, span(&id)));
    }

    if let Json::Obj(map) = &mut doc {
        if let Some(Json::Arr(out)) = map.get_mut("traceEvents") {
            out.extend(spans);
        }
    }
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stitch::stitch;
    use nifdy_sim::{Cycle, NodeId};
    use nifdy_trace::json::parse;
    use nifdy_trace::EventKind;

    fn ev(seq: u64, at: u64, node: usize, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at: Cycle::new(at),
            node: NodeId::new(node),
            kind,
        }
    }

    #[test]
    fn journey_spans_are_appended() {
        let n = NodeId::new;
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
            ev(2, 26, 1, EventKind::ScalarAccept { src: n(0) }),
            ev(
                3,
                40,
                0,
                EventKind::OptClear {
                    dst: n(1),
                    occupancy: 0,
                },
            ),
        ];
        let loss = TraceLoss::default();
        let set = stitch(&events, &loss);
        let doc = enrich_chrome_trace(&events, &loss, &set);
        assert!(doc.contains("\"scalar_journey\""));
        assert!(doc.contains("\"j0.1.0\""));
        assert!(doc.contains("\"cat\":\"journey\""));
        // Both endpoints of the async span are present.
        let parsed = parse(&doc).unwrap();
        let trace_events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let span_phases: Vec<&str> = trace_events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("journey"))
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(span_phases, ["b", "e"]);
        // Decomposition rides in the begin-span args.
        assert!(doc.contains("\"fabric_transit\":16"));
        assert!(doc.contains("\"ack_turnaround\":14"));
    }

    #[test]
    fn enrichment_is_deterministic() {
        let n = NodeId::new;
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
            ev(1, 6, 1, EventKind::ScalarAccept { src: n(0) }),
        ];
        let loss = TraceLoss::default();
        let set = stitch(&events, &loss);
        let a = enrich_chrome_trace(&events, &loss, &set);
        let b = enrich_chrome_trace(&events, &loss, &stitch(&events, &loss));
        assert_eq!(a, b);
    }
}
