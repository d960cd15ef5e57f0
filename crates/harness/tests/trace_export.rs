//! End-to-end acceptance of the flight recorder: run the lossy sweep's
//! traced cell (8×8 mesh, 10% bursty loss, bulk mode, adaptive RTO) and
//! validate the exported artifacts — the Chrome trace must round-trip
//! through the strict JSON parser with per-NIC tracks, balanced bulk-dialog
//! async spans, and cause-tagged drop instants; the metrics registry must
//! carry latency percentiles and occupancy gauges.

#![expect(
    clippy::disallowed_types,
    reason = "test tally keyed by span id; order never observed"
)]

use std::collections::HashMap;

use nifdy_harness::{ext_lossy, percentile_table, Scale};
use nifdy_trace::export::{to_chrome_trace, to_jsonl};
use nifdy_trace::json::{parse, Json};

#[test]
fn traced_lossy_cell_exports_a_valid_chrome_trace() {
    let (events, registry, point) = ext_lossy::run_traced_cell(Scale::Smoke, 7);
    assert!(point.delivered > 0, "cell delivered nothing");
    assert!(!events.is_empty(), "recorder saw nothing");

    // The snapshot is time-ordered with a global tiebreak sequence.
    assert!(
        events
            .windows(2)
            .all(|w| (w[0].at.as_u64(), w[0].seq) <= (w[1].at.as_u64(), w[1].seq)),
        "snapshot must be time-ordered"
    );

    let text = to_chrome_trace(&events);
    let doc = parse(&text).expect("chrome trace must be well-formed JSON");
    let trace_events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents array");
    assert_eq!(
        doc.get("displayTimeUnit").unwrap().as_str(),
        Some("ns"),
        "display unit pinned"
    );

    let ph = |e: &Json| e.get("ph").unwrap().as_str().unwrap().to_string();

    // Per-NIC tracks: a thread_name metadata record for every node that
    // appears in the event stream.
    let tracks: Vec<&Json> = trace_events.iter().filter(|e| ph(e) == "M").collect();
    assert!(!tracks.is_empty(), "no metadata tracks");
    for t in &tracks {
        assert_eq!(t.get("name").unwrap().as_str(), Some("thread_name"));
        let label = t
            .get("args")
            .unwrap()
            .get("name")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(label.starts_with("nic "), "track label {label}");
    }

    // Bulk-dialog async spans: every begin has a matching end with the same
    // id, and the cell (bulk mode) produced at least one dialog.
    let mut span_balance: HashMap<String, i64> = HashMap::new();
    let mut begins = 0u64;
    for e in trace_events {
        let p = ph(e);
        if p == "b" || p == "e" {
            assert_eq!(e.get("cat").unwrap().as_str(), Some("bulk"));
            let id = e.get("id").unwrap().as_str().unwrap().to_string();
            *span_balance.entry(id).or_default() += if p == "b" { 1 } else { -1 };
            if p == "b" {
                begins += 1;
            }
        }
    }
    assert!(begins > 0, "bulk cell must open at least one dialog span");
    for (id, balance) in &span_balance {
        assert_eq!(*balance, 0, "span {id} unbalanced");
    }

    // Drop instants carry their cause; at 10% bursty loss drops are certain.
    let drops: Vec<&Json> = trace_events
        .iter()
        .filter(|e| e.get("name").unwrap().as_str() == Some("drop"))
        .collect();
    assert!(!drops.is_empty(), "10% loss produced no drop events");
    for d in &drops {
        let cause = d.get("args").unwrap().get("cause").unwrap().as_str();
        assert!(cause.is_some(), "drop without a cause");
        assert_eq!(d.get("ph").unwrap().as_str(), Some("i"));
    }

    // JSONL export: every line parses, one line per event.
    let jsonl = to_jsonl(&events);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (i, line) in lines.iter().enumerate() {
        let rec = parse(line).unwrap_or_else(|e| panic!("line {i} unparseable: {e:?}"));
        assert!(rec.get("ev").is_some(), "line {i} missing ev");
    }

    // The registry carries delivery-latency percentiles and gauges.
    let rows = registry.percentile_rows();
    assert!(
        rows.iter().any(|r| r.name == "delivery_latency.cycles"),
        "missing delivery-latency histogram: {rows:?}"
    );
    let table = percentile_table("traced cell", &registry).to_string();
    assert!(table.contains("p99.9"), "{table}");
    let metrics = registry.to_json().render();
    let parsed = parse(&metrics).expect("metrics JSON well-formed");
    assert!(parsed
        .get("gauges")
        .unwrap()
        .get("occupancy.opt.max")
        .is_some());
}
