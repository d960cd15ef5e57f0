//! Metric tables, the per-workload result record, its printing and JSON
//! forms, and `compare`.

use std::collections::BTreeMap;

use nifdy_trace::json::Json;

use crate::kernel::Better::{Higher, Lower};
use crate::kernel::{verdict, worsening, Better, Estimate, Summary, Verdict};

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// `compare` also forgives a worsening of up to this much in the
    /// metric's own unit (`BENCHMARK.json` has no place for it, so the
    /// driver applies `bound` alone).
    pub slack: f64,
}

/// The end-to-end metrics, reported on every workload. `BENCHMARK.json`
/// carries the same table.
///
/// * `setup_s` — constructing the system under test (`Scenario::build`,
///   `NifdyNode::new` + `add_endpoint`, socket binds); plan generation is
///   excluded. Work moved out of the timed window shows here.
/// * `delivered_per_s` — user packets delivered exactly once, in order,
///   per wall second, **in the fastest fiftieth of the timed windows'
///   equal-work slices**: the speed when the host leaves the program
///   alone, not the typical speed (see `RATE_QUANTILE` in `main.rs`). On
///   the paced open loop it is the plain whole-window rate. The typical
///   speed is the ledger's `bench.window_delivered_per_s`.
/// * `latency_p50_us` — host time from a packet's offer (its due time on
///   the open loop `udp-paced`) to its observed delivery: the median
///   latency **in the calmest twentieth of the windows' slice groups**
///   (`LATENCY_QUANTILE`); the whole-window median is the ledger's
///   `bench.window_latency_p50_us`. On the closed loops this is pool
///   depth ÷ throughput and on `sim-*` it is simulated latency × host time
///   per cycle; only `udp-paced` carries independent information.
/// * `peak_rss_mb` — `VmHWM` of the one process that ran the workload.
///
/// The bounds are set from the noise floor measured on the sandbox this
/// was written in (see the README): ten runs of identical code spread up
/// to 13% on the rates and 20% on the latency even with the estimators
/// below, and a bound under three times the spread resolves nothing.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        // ISSUE 11: "+25% and +0.02 s". Constructions take 10 µs to 3 ms.
        slack: 0.02,
    },
    EndToEnd {
        name: "delivered_per_s",
        unit: "packets/s",
        better: Better::Higher,
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        slack: 0.0,
    },
];

/// One per-layer metric of the traced run's ledger.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The `(end-to-end metric, workload)` pairs this line should move when
    /// its layer gets faster; empty for counts, behaviour ratios and the
    /// benchmark's own health lines. Written down before measuring, so a
    /// later claim can be held to it. `BENCHMARK.json` cannot carry it (the
    /// driver fixes the keys of a `per_layer` entry); the ledger printout
    /// does.
    pub moves: Moves,
}

type Moves = &'static [(&'static str, &'static str)];
const NOTHING: Moves = &[];
const SIM: Moves = &[
    ("delivered_per_s", "sim-saturated"),
    ("delivered_per_s", "sim-sparse"),
];
const SIM_SATURATED: Moves = &[("delivered_per_s", "sim-saturated")];
const SIM_SPARSE: Moves = &[("delivered_per_s", "sim-sparse")];
const DENSE: Moves = &[("delivered_per_s", "daemon-dense")];
/// The cost of a poll round, which an idle sweep dominates on one workload
/// and which sets how long a frame waits on the other.
const ROUND: Moves = &[
    ("delivered_per_s", "daemon-sparse"),
    ("latency_p50_us", "udp-paced"),
];
const UDP_SATURATED: Moves = &[("delivered_per_s", "udp-saturated")];
const PACED_LATENCY: Moves = &[("latency_p50_us", "udp-paced")];
const CHAOS: Moves = &[("delivered_per_s", "wire-chaos")];

const fn layer(name: &'static str, unit: &'static str, better: Better, moves: Moves) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics. A metric that does not apply to a workload (a
/// fabric step on a daemon workload) reads 0 there.
pub const PER_LAYER: [PerLayer; 61] = [
    layer("traffic.sim_cycles_per_s", "cycles/s", Higher, SIM),
    layer("traffic.proc_phase_ns_per_cycle", "ns", Lower, SIM_SPARSE),
    layer("traffic.driver_residue_share", "ratio", Lower, SIM_SPARSE),
    layer("traffic.stepped_share", "ratio", Lower, SIM_SPARSE),
    layer("core.unit_step_ns", "ns", Lower, SIM_SATURATED),
    layer("core.retransmits", "count", Lower, CHAOS),
    layer("core.dup_dropped", "count", Lower, CHAOS),
    layer("core.send_rejected_share", "ratio", Lower, NOTHING),
    layer("core.acks_per_delivered", "ratio", Lower, NOTHING),
    layer("core.bulk_share", "ratio", Higher, NOTHING),
    layer("net.fabric_step_ns", "ns", Lower, SIM_SATURATED),
    layer("net.injected", "count", Lower, NOTHING),
    layer("net.delivered", "count", Lower, NOTHING),
    layer("net.sim_latency_mean_cycles", "cycles", Lower, NOTHING),
    layer("node.poll_round_ns", "ns", Lower, ROUND),
    layer("node.poll_round_p99_ns", "ns", Lower, ROUND),
    layer("node.poll_round_self_ns_per_frame", "ns", Lower, DENSE),
    layer("node.rounds_per_delivered", "ratio", Lower, NOTHING),
    layer("node.frames_per_delivered", "ratio", Lower, NOTHING),
    layer("node.try_send_ns", "ns", Lower, DENSE),
    layer("node.try_send_reject_share", "ratio", Lower, DENSE),
    layer("node.drain_ns_per_delivered", "ns", Lower, DENSE),
    layer("node.allocs_per_frame", "count", Lower, DENSE),
    layer("node.alloc_bytes_per_frame", "bytes", Lower, DENSE),
    layer("node.delivery_latency_p50_us", "us", Lower, NOTHING),
    layer("node.delivery_latency_p99_us", "us", Lower, NOTHING),
    layer("wire.carrier_send_ns_per_frame", "ns", Lower, UDP_SATURATED),
    layer("wire.carrier_recv_ns_per_frame", "ns", Lower, UDP_SATURATED),
    layer(
        "wire.carrier_frames_per_send_batch",
        "count",
        Higher,
        UDP_SATURATED,
    ),
    layer("wire.carrier_share", "ratio", Lower, UDP_SATURATED),
    layer("wire.carrier_empty_tick_ns", "ns", Lower, PACED_LATENCY),
    layer("wire.codec_encode_ns", "ns", Lower, DENSE),
    layer("wire.codec_decode_ns", "ns", Lower, DENSE),
    layer("wire.codec_peek_route_ns", "ns", Lower, DENSE),
    layer("wire.codec_share_est", "ratio", Lower, DENSE),
    layer("wire.endpoint_step_ns", "ns", Lower, CHAOS),
    layer("wire.fault_self_ns_per_frame", "ns", Lower, CHAOS),
    layer("wire.loopback_ns_per_frame", "ns", Lower, CHAOS),
    layer("wire.chaos_cycles_per_delivered", "cycles", Lower, CHAOS),
    layer("wire.retx_per_delivered", "ratio", Lower, CHAOS),
    layer("wire.fault_injected_share", "ratio", Lower, CHAOS),
    layer("wire.decode_errors", "count", Lower, CHAOS),
    layer("wire.udp_refused", "count", Lower, NOTHING),
    layer("wire.udp_oversize", "count", Lower, NOTHING),
    layer("wire.udp_unknown_peer", "count", Lower, NOTHING),
    layer("wire.udp_transport_errors", "count", Lower, NOTHING),
    layer("wire.allocs_per_frame", "count", Lower, CHAOS),
    layer("bench.trace_overhead_share", "ratio", Lower, NOTHING),
    layer("bench.untraced_residue_share", "ratio", Lower, NOTHING),
    layer("bench.generator_late_p99_us", "us", Lower, NOTHING),
    layer("bench.window_delivered_per_s", "packets/s", Higher, NOTHING),
    layer("bench.window_latency_p50_us", "us", Lower, NOTHING),
    layer("bench.latency_p99_us", "us", Lower, NOTHING),
    layer("bench.clock_read_ns", "ns", Lower, NOTHING),
    layer("bench.cpu_busy_share", "ratio", Higher, NOTHING),
    layer("bench.ctx_switches_involuntary", "count", Lower, NOTHING),
    layer("bench.failed_share", "ratio", Lower, NOTHING),
    layer("bench.repetitions", "count", Higher, NOTHING),
    layer("bench.traced_repetitions", "count", Higher, NOTHING),
    layer("bench.window_s", "s", Lower, NOTHING),
    layer("bench.traced_window_s", "s", Lower, NOTHING),
];

/// How long one contract run measures, in seconds (`run_seconds` of
/// `BENCHMARK.json`, and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, generated from the tables above so the manifest the
/// driver reads cannot drift from what the runner reports.
pub fn manifest() -> Json {
    let better = |b: Better| {
        Json::str(match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        })
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "nifdy-bench/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("nifdy-bench")])),
        ("run_seconds", Json::u64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                crate::workloads::TABLE
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj([("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Gate violations, for the human reader.
    pub gate: Vec<String>,
    /// Every end-to-end metric's estimate.
    pub end_to_end: BTreeMap<&'static str, Estimate>,
    /// Counts that repeated exactly across the repetitions.
    pub exact: Vec<(&'static str, f64)>,
    /// Present on a traced run.
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
}

impl WorkloadResult {
    /// The last line of the contract run: `correct`, `attempted`,
    /// `failed`, and the metrics of the requested kind.
    pub fn contract_line(&self) -> String {
        let metrics: BTreeMap<String, Json> = match &self.per_layer {
            Some(layer) => PER_LAYER
                .iter()
                .map(|m| {
                    let v = layer.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), metric_json(v, m.unit))
                })
                .collect(),
            None => END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        metric_json(self.end_to_end[m.name].value, m.unit),
                    )
                })
                .collect(),
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    pub fn print(&self) {
        println!(
            "== {} (seed {}): {} packets attempted, {} failed, gates {}",
            self.name,
            self.seed,
            self.attempted,
            self.failed,
            if self.correct { "pass" } else { "FAIL" }
        );
        for why in &self.gate {
            println!("   gate: {why}");
        }
        for m in &END_TO_END {
            let e = &self.end_to_end[m.name];
            let s = Summary::of(&e.reps);
            println!(
                "   {:<18} {:>16.6} {:<9} per repetition: median {:.6} q1 {:.6} q3 {:.6} n {}",
                m.name, e.value, m.unit, s.median, s.q1, s.q3, s.n
            );
        }
        if !self.exact.is_empty() {
            let counts: Vec<String> = self.exact.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("   exact: {}", counts.join(" "));
        }
        if let Some(layer) = &self.per_layer {
            for m in &PER_LAYER {
                let v = layer.get(m.name).copied().unwrap_or(0.0);
                if v != 0.0 {
                    let moves: Vec<String> = m
                        .moves
                        .iter()
                        .map(|(metric, workload)| format!("{metric} on {workload}"))
                        .collect();
                    println!(
                        "   {:<36} {v:>14.4} {:<9} {}",
                        m.name,
                        m.unit,
                        if moves.is_empty() {
                            String::new()
                        } else {
                            format!("-> {}", moves.join(", "))
                        }
                    );
                }
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let e = &self.end_to_end[m.name];
                let s = Summary::of(&e.reps);
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("value", Json::Num(e.value)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::u64(s.n as u64)),
                        (
                            "reps",
                            Json::Arr(e.reps.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let mut fields = vec![
            ("name", Json::str(self.name.clone())),
            ("seed", Json::u64(self.seed)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            (
                "gate",
                Json::Arr(self.gate.iter().cloned().map(Json::Str).collect()),
            ),
            ("end_to_end", Json::obj(e2e)),
            (
                "exact",
                Json::obj(self.exact.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
        ];
        if let Some(layer) = &self.per_layer {
            fields.push((
                "per_layer",
                Json::obj(
                    PER_LAYER
                        .iter()
                        .map(|m| (m.name, Json::Num(layer.get(m.name).copied().unwrap_or(0.0)))),
                ),
            ));
        }
        Json::obj(fields)
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// A result set: what `run` writes and `compare` reads.
pub fn set_json(seed: u64, seconds: u64, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("bench", Json::str("nifdy-bench")),
        ("seed", Json::u64(seed)),
        ("seconds", Json::u64(seconds)),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn workloads_of(set: &Json) -> Result<BTreeMap<String, &Json>, String> {
    let list = set
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("not a nifdy-bench result set: no \"workloads\" array")?;
    Ok(list
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?.to_string(), w)))
        .collect())
}

fn estimate_of(workload: &Json, metric: &str) -> Option<Estimate> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Estimate {
        value: m.get("value")?.as_f64()?,
        reps: m
            .get("reps")?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?,
    })
}

/// Holds set B against set A: per workload × end-to-end metric, both
/// values and their per-repetition spreads, B's worsening relative to A,
/// and the verdict under that metric's bound and slack; then whether the
/// exact counts match.
/// Returns the rendered table and whether anything was worse, failed a
/// gate, or (for sets of one seed) disagreed on an exact count.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let (wa, wb) = (workloads_of(a)?, workloads_of(b)?);
    let same_seed = a.get("seed").and_then(Json::as_u64) == b.get("seed").and_then(Json::as_u64);
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<14} {:<17} {:>13} {:>7} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A value", "A iqr%", "B value", "B iqr%", "worse%", "bound%"
    );
    for (name, a_w) in &wa {
        let Some(b_w) = wb.get(name) else {
            let _ = writeln!(out, "{name:<14} missing from B");
            bad = true;
            continue;
        };
        for m in &END_TO_END {
            let (Some(ea), Some(eb)) = (estimate_of(a_w, m.name), estimate_of(b_w, m.name)) else {
                let _ = writeln!(out, "{name:<14} {:<17} missing", m.name);
                bad = true;
                continue;
            };
            let v = verdict(&ea, &eb, m.better, m.bound, m.slack);
            bad |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<17} {:>13.4} {:>7.2} {:>13.4} {:>7.2} {:>8.2} {:>6.0}  {}",
                name,
                m.name,
                ea.value,
                ea.spread() * 100.0,
                eb.value,
                eb.spread() * 100.0,
                worsening(ea.value, eb.value, m.better) * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Within => "within",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (side, w) in [("A", a_w), ("B", b_w)] {
            if w.get("correct") != Some(&Json::Bool(true)) {
                let _ = writeln!(out, "{name:<14} correctness gates FAILED in {side}");
                bad = true;
            }
        }
        if same_seed {
            let same = a_w.get("exact") == b_w.get("exact");
            let _ = writeln!(
                out,
                "{name:<14} exact counts {}",
                if same { "match" } else { "DIFFER" }
            );
            bad |= !same;
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(delivered: &[f64]) -> WorkloadResult {
        let mut end_to_end = BTreeMap::new();
        for m in &END_TO_END {
            end_to_end.insert(m.name, Estimate::median_of(vec![1.0, 1.0, 1.0]));
        }
        end_to_end.insert("delivered_per_s", Estimate::median_of(delivered.to_vec()));
        WorkloadResult {
            name: "daemon-dense".into(),
            seed: 1,
            correct: true,
            attempted: 10,
            failed: 0,
            gate: Vec::new(),
            end_to_end,
            exact: vec![("node.rounds", 42.0)],
            per_layer: None,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = result(&[100.0, 101.0, 99.0]).contract_line();
        let doc = nifdy_trace::json::parse(&line).expect("valid json");
        let Json::Obj(top) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let d = &metrics["delivered_per_s"];
        assert_eq!(d.get("value").and_then(Json::as_f64), Some(100.0));
        assert_eq!(d.get("unit").and_then(Json::as_str), Some("packets/s"));

        let mut traced = result(&[100.0]);
        traced.per_layer = Some(BTreeMap::from([("core.retransmits", 3.0)]));
        let doc = nifdy_trace::json::parse(&traced.contract_line()).expect("valid json");
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(
            metrics.len(),
            PER_LAYER.len(),
            "every per-layer metric, applicable or not"
        );
        assert_eq!(
            metrics["core.retransmits"]
                .get("value")
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            metrics["net.fabric_step_ns"]
                .get("value")
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn compare_flags_a_regression_beyond_the_bound_only() {
        let base = set_json(1, 10, vec![result(&[100.0, 100.5, 99.5]).to_json()]);
        let same = set_json(1, 10, vec![result(&[80.0, 80.5, 79.5]).to_json()]);
        let slow = set_json(1, 10, vec![result(&[70.0, 70.5, 69.5]).to_json()]);
        let (table, bad) = compare(&base, &same).expect("well-formed sets");
        assert!(!bad, "20% is within the 25% bound:\n{table}");
        assert!(table.contains("exact counts match"));
        let (table, bad) = compare(&base, &slow).expect("well-formed sets");
        assert!(bad && table.contains("WORSE"), "30% is beyond it:\n{table}");
        // The result set survives a render/parse round trip.
        let reparsed = nifdy_trace::json::parse(&base.render()).expect("valid json");
        assert!(!compare(&reparsed, &base).expect("well-formed sets").1);
        assert!(compare(&Json::Null, &base).is_err());
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = nifdy_trace::json::parse(&text).expect("BENCHMARK.json is JSON");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `nifdy-bench manifest > BENCHMARK.json`"
        );
        for &(name, why) in &crate::workloads::TABLE {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is one line of at most 200"
            );
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        // What a ledger line is predicted to move exists.
        for (metric, workload) in PER_LAYER.iter().flat_map(|m| m.moves) {
            assert!(END_TO_END.iter().any(|m| m.name == *metric), "{metric}");
            assert!(
                crate::workloads::TABLE.iter().any(|(w, _)| w == workload),
                "{workload}"
            );
        }
    }
}
