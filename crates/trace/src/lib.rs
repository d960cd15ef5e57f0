//! Protocol flight recorder for the NIFDY reproduction: structured event
//! tracing, percentile telemetry, and Perfetto export.
//!
//! The paper's evaluation hinges on visibility into protocol state — OPT
//! occupancy, buffer-pool eligibility, bulk-window progress, per-receiver
//! congestion — that end-of-run counters cannot reconstruct. This crate is
//! the stack's measurement substrate:
//!
//! * [`TraceEvent`] / [`EventKind`] — a typed vocabulary for every protocol
//!   transition (scalar send/ack, OPT insert/clear, eligibility stall, bulk
//!   dialog request/grant/reject/close, window advance, retransmit with its
//!   RTO, drop with its cause, watchdog fire),
//! * [`TraceHandle`] / [`Recorder`] — a ring-buffered, per-node,
//!   sampled-and-bounded event log shared by every instrumented component;
//!   the rings double as the **flight recorder** the stall watchdog dumps
//!   when a node wedges,
//! * [`MetricsRegistry`] — named log-bucketed latency histograms
//!   (p50/p90/p99/p999) and cycle-sampled occupancy gauges,
//! * [`export`] — JSONL and Chrome trace-event JSON (open in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`), with one
//!   track per NIC and an async span per bulk dialog,
//! * [`json`] — the dependency-free JSON writer/parser backing the
//!   exporters and their round-trip tests.
//!
//! # One build, a detached handle when not recording
//!
//! Instrumented code records through the [`trace_event!`] macro:
//!
//! ```
//! use nifdy_sim::{Cycle, NodeId};
//! use nifdy_trace::{trace_event, EventKind, TraceConfig, TraceHandle};
//!
//! let trace = TraceHandle::recording(TraceConfig::new());
//! trace_event!(trace, Cycle::new(5), NodeId::new(0), EventKind::ScalarSend {
//!     dst: NodeId::new(1),
//!     size_words: 8,
//! });
//! assert_eq!(trace.snapshot().len(), 1);
//! ```
//!
//! The macro guards the record call behind [`TraceHandle::is_enabled`]. On a
//! detached handle ([`TraceHandle::off`], the default everywhere) that is
//! one pointer-null check per call site, and the event payload expression
//! is never evaluated. There is no build without the event layer: compiling
//! it out measured within run-to-run noise (`fig6 --full` 1.61 → 1.56 s,
//! `fig9 --full` 2.78 → 2.82 s, medians of 4–5 interleaved runs, ±10%
//! spread), so it bought nothing a host can resolve.
//!
//! # Bounded when enabled
//!
//! The recorder keeps one bounded ring per node
//! ([`TraceConfig::capacity_per_node`]) and samples frequent events by
//! stride ([`TraceConfig::sample_every`]); rare events — drops,
//! retransmits, dialog lifecycle, delivery failures, watchdog fires —
//! always record, so loss accounting stays exact under sampling and is
//! property-tested against `FabricStats`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Whole-crate panic-freedom and exhaustive matches (DESIGN.md §10): a deliberate
// contract panic or open match carries `#[expect(<lint>, reason = "…")]` at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

mod event;
pub mod export;
pub mod json;
mod recorder;
mod registry;

pub use event::{DialogEnd, DropReason, EventKind, TraceEvent, WireFaultCause};
pub use recorder::{Recorder, TraceConfig, TraceHandle, TraceLoss};
pub use registry::{GaugeSeries, MetricsRegistry, PercentileRow};

/// Records one protocol event if the handle is live.
///
/// Expands to `if handle.is_enabled() { handle.record(at, node, kind) }`,
/// so the `kind` expression (which may compute occupancies or RTTs) is
/// never evaluated when the handle is detached.
#[macro_export]
macro_rules! trace_event {
    ($handle:expr, $at:expr, $node:expr, $kind:expr) => {
        if $handle.is_enabled() {
            $handle.record($at, $node, $kind);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_sim::{Cycle, NodeId};

    #[test]
    fn macro_skips_payload_evaluation_when_off() {
        let trace = TraceHandle::off();
        let mut evaluated = false;
        trace_event!(trace, Cycle::ZERO, NodeId::new(0), {
            evaluated = true;
            EventKind::AckSend {
                dst: NodeId::new(1),
            }
        });
        assert!(!evaluated, "payload must not run when tracing is off");
        assert_eq!(trace.recorded(), 0);
    }

    #[test]
    fn macro_records_through_a_live_handle() {
        let trace = TraceHandle::recording(TraceConfig::new());
        trace_event!(
            trace,
            Cycle::new(3),
            NodeId::new(2),
            EventKind::AckSend {
                dst: NodeId::new(1),
            }
        );
        let events = trace.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, Cycle::new(3));
        assert_eq!(events[0].node, NodeId::new(2));
    }
}
