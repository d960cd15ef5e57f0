//! `trace:analyze` — offline journey analysis of a seeded chaos run on
//! *both* carriers.
//!
//! The command replays the chaos-conformance workload (pair-rotation
//! traffic under recoverable bursty loss) twice — once through the
//! simulated fabric's flit-level fault plane, once through the byte
//! stack's [`FaultyTransport`] chaos plane — with the flight recorder on,
//! then feeds each trace to [`nifdy_analyze::analyze`]: journey
//! stitching, per-flow latency decomposition, conservation invariants,
//! and anomaly detection (DESIGN.md §12).
//!
//! Beyond the per-carrier verdicts, the run asserts journey-level
//! sim/wire equivalence: both carriers must reconstruct a journey for
//! every delivered packet, and the per-flow completed-journey populations
//! must agree — the carriers retransmit differently, but what arrives is
//! protocol-determined.
//!
//! Everything here is a pure function of `(scale, seed)`: repeated runs
//! produce byte-identical tables and JSON reports.
//!
//! [`FaultyTransport`]: nifdy_wire::FaultyTransport

use nifdy_analyze::{analyze, enrich_chrome_trace, AnalysisReport, AnomalyConfig, ExternalCounts};
use nifdy_net::GilbertElliott;
use nifdy_trace::json::Json;
use nifdy_trace::{TraceConfig, TraceEvent, TraceHandle, TraceLoss};
use nifdy_wire::conformance::{
    self, chaos_config, FabricSet, LoopbackSet, SwarmPlan, CHAOS_QUIESCE_GRACE,
};
use nifdy_wire::WireFaultConfig;

use crate::Scale;

/// Mean Gilbert–Elliott loss both chaos planes run at — recoverable, so
/// every journey is expected to complete.
pub const MEAN_LOSS: f64 = 0.02;

/// §6.2 retry budget; generous so recoverable loss never turns into a
/// typed failure.
pub const RETX_BUDGET: u32 = 30;

/// One-way loopback-hub latency for the wire carrier, in cycles.
pub const HUB_LATENCY: u64 = 2;

/// Loopback-hub jitter bound for the wire carrier, in cycles.
pub const HUB_JITTER: u64 = 1;

/// Nodes in the rotation both carriers run.
pub const NODES: usize = 4;

/// Packets per message.
pub const PACKETS_PER_MESSAGE: u32 = 6;

/// Messages each node sends at `scale`.
pub fn messages(scale: Scale) -> u64 {
    scale.count(10)
}

/// The chaos both carriers run under — all recoverable. The fabric's plane
/// takes the `loss` half (bursty loss); the wire plane adds corruption,
/// duplication, delay, and reordering.
fn faults() -> WireFaultConfig {
    WireFaultConfig::default()
        .with_burst(GilbertElliott::with_mean_loss(MEAN_LOSS))
        .with_corrupt_prob(0.05)
        .with_duplicate_prob(0.05)
        .with_delay(0.05, 8)
        .with_reorder_prob(0.05)
}

/// One carrier's recorded trace and its analysis.
pub struct CarrierAnalysis {
    /// Carrier label ("fabric" or "wire").
    pub carrier: &'static str,
    /// The recorded event stream (kept for artifact export).
    pub events: Vec<TraceEvent>,
    /// Ring-buffer loss accounting for the run.
    pub loss: TraceLoss,
    /// Ground-truth delivery count from the chaos report.
    pub delivered: u64,
    /// The full analysis: journeys, flows, invariants, anomalies.
    pub report: AnalysisReport,
}

impl CarrierAnalysis {
    /// True when a journey was reconstructed for every delivered packet.
    pub fn coverage_ok(&self) -> bool {
        self.report.set.accepted() == self.delivered
    }

    /// Per-flow completed-journey populations, for cross-carrier
    /// comparison.
    fn flow_counts(&self) -> Vec<((usize, usize), u64)> {
        self.report
            .flows
            .iter()
            .map(|f| (f.flow, f.completed))
            .collect()
    }

    /// The journey-enriched Perfetto document for this carrier's run.
    pub fn enriched_trace(&self) -> String {
        enrich_chrome_trace(&self.events, &self.loss, &self.report.set)
    }
}

/// Both carriers analyzed, plus the cross-carrier equivalence verdict.
pub struct AnalyzeRun {
    /// The seed both carriers ran at.
    pub seed: u64,
    /// Messages each node sent.
    pub messages: u64,
    /// The simulated-fabric carrier.
    pub fabric: CarrierAnalysis,
    /// The byte-stack loopback carrier.
    pub wire: CarrierAnalysis,
}

impl AnalyzeRun {
    /// True when the per-flow completed-journey populations agree across
    /// carriers.
    pub fn flows_equivalent(&self) -> bool {
        self.fabric.flow_counts() == self.wire.flow_counts()
    }

    /// The overall verdict: both carriers' invariants green, full journey
    /// coverage on both, and per-flow equivalence across them.
    pub fn ok(&self) -> bool {
        self.fabric.report.ok()
            && self.wire.report.ok()
            && self.fabric.coverage_ok()
            && self.wire.coverage_ok()
            && self.flows_equivalent()
    }

    /// The human-readable report: both carriers' tables followed by the
    /// cross-carrier verdict lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in [&self.fabric, &self.wire] {
            out.push_str(&format!(
                "=== trace:analyze [{}] seed {} ({} nodes, {} messages x {} packets, \
                 mean loss {MEAN_LOSS}) ===\n",
                c.carrier, self.seed, NODES, self.messages, PACKETS_PER_MESSAGE,
            ));
            out.push_str(&format!(
                "delivered (ground truth): {}, journeys accepted: {}\n",
                c.delivered,
                c.report.set.accepted(),
            ));
            out.push_str(&c.report.table());
            out.push('\n');
        }
        let verdict = |ok: bool| if ok { "pass" } else { "FAIL" };
        out.push_str(&format!(
            "journey coverage: fabric {} wire {}\n",
            verdict(self.fabric.coverage_ok()),
            verdict(self.wire.coverage_ok()),
        ));
        out.push_str(&format!(
            "sim/wire per-flow equivalence: {}\n",
            verdict(self.flows_equivalent()),
        ));
        out.push_str(&format!("overall: {}\n", verdict(self.ok())));
        out
    }

    /// The machine-readable report CI archives: both carriers' full
    /// analysis JSON plus the equivalence verdicts. Deterministic for a
    /// given `(scale, seed)`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("experiment", Json::str("trace:analyze")),
            (
                "workload",
                Json::obj([
                    ("nodes", Json::u64(NODES as u64)),
                    ("messages", Json::u64(self.messages)),
                    (
                        "packets_per_message",
                        Json::u64(u64::from(PACKETS_PER_MESSAGE)),
                    ),
                    ("seed", Json::u64(self.seed)),
                    ("mean_loss", Json::Num(MEAN_LOSS)),
                    ("retx_budget", Json::u64(u64::from(RETX_BUDGET))),
                ]),
            ),
            ("fabric", carrier_json(&self.fabric)),
            ("wire", carrier_json(&self.wire)),
            (
                "equivalence",
                Json::obj([
                    ("fabric_coverage", Json::Bool(self.fabric.coverage_ok())),
                    ("wire_coverage", Json::Bool(self.wire.coverage_ok())),
                    ("flows_match", Json::Bool(self.flows_equivalent())),
                    ("ok", Json::Bool(self.ok())),
                ]),
            ),
        ])
    }
}

fn carrier_json(c: &CarrierAnalysis) -> Json {
    Json::obj([
        ("carrier", Json::str(c.carrier)),
        ("delivered", Json::u64(c.delivered)),
        ("report", c.report.to_json()),
    ])
}

/// Runs the seeded chaos workload on both carriers with the flight
/// recorder on and analyzes each trace.
pub fn run(scale: Scale, seed: u64) -> AnalyzeRun {
    let messages = messages(scale);
    let plan = SwarmPlan::rotation(NODES, messages, PACKETS_PER_MESSAGE, 6, true, seed);
    let max_ticks = 400_000 + 200_000 * messages;
    let cfg = chaos_config(RETX_BUDGET);
    // Unsampled, amply sized: journey stitching wants the whole story.
    let recorder = || TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));
    let analysis = |carrier, trace: TraceHandle, delivered, counts: ExternalCounts| {
        let (events, loss) = (trace.snapshot(), trace.loss());
        let report = analyze(&events, &loss, &counts, &AnomalyConfig::default());
        CarrierAnalysis {
            carrier,
            events,
            loss,
            delivered,
            report,
        }
    };

    let faults = faults();
    let trace = recorder();
    let mut set = FabricSet::new(&plan, cfg.clone(), faults.loss.clone(), &trace);
    let fab = conformance::run(&mut set, &plan, CHAOS_QUIESCE_GRACE, max_ticks);
    let fab_counts = ExternalCounts {
        delivered: Some(fab.delivered()),
        retransmitted: Some(set.retransmitted()),
        delivery_failures: Some(fab.failure_total()),
        fabric_drops: Some(set.fabric_dropped()),
        wire_faults: None,
    };
    let fabric = analysis("fabric", trace, fab.delivered(), fab_counts);

    let trace = recorder();
    let hub = (HUB_LATENCY, HUB_JITTER);
    let mut set = LoopbackSet::new(&plan, hub, cfg, &faults, &trace);
    let wire = conformance::run(&mut set, &plan, CHAOS_QUIESCE_GRACE, max_ticks);
    let wire_counts = ExternalCounts {
        delivered: Some(wire.delivered()),
        retransmitted: Some(set.retransmitted()),
        delivery_failures: Some(wire.failure_total()),
        fabric_drops: None,
        wire_faults: Some(set.fault_counts().total()),
    };
    AnalyzeRun {
        seed,
        messages,
        fabric,
        wire: analysis("wire", trace, wire.delivered(), wire_counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_green_and_deterministic() {
        let a = run(Scale::Smoke, 5);
        assert!(a.ok(), "trace:analyze smoke run not green:\n{}", a.render());
        assert!(a.fabric.delivered > 0);
        let b = run(Scale::Smoke, 5);
        assert_eq!(
            a.to_json().render(),
            b.to_json().render(),
            "trace:analyze JSON must be byte-deterministic"
        );
        assert_eq!(a.render(), b.render());
        assert_eq!(a.fabric.enriched_trace(), b.fabric.enriched_trace());
    }

    #[test]
    fn json_has_both_carriers_and_verdicts() {
        let a = run(Scale::Smoke, 3);
        let json = a.to_json();
        for key in ["workload", "fabric", "wire", "equivalence"] {
            assert!(json.get(key).is_some(), "missing section {key}");
        }
        assert!(
            matches!(
                json.get("equivalence").and_then(|e| e.get("ok")),
                Some(Json::Bool(true))
            ),
            "equivalence verdict must be green"
        );
        let enriched = a.wire.enriched_trace();
        assert!(enriched.contains("\"cat\":\"journey\""));
    }
}
