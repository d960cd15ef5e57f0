//! Differential tests of [`Driver`] against ungated per-cycle stepping.
//!
//! Skip-ahead and the per-node gate must be *observationally identical*
//! to stepping every node every cycle: same delivery orders and
//! timestamps, same processor / interface / fabric statistics, same typed
//! failures, same gauge samples, same trace streams, same final clock —
//! across workloads, topologies, interface choices, seeds, and fault
//! configurations. Every test here builds the same simulation twice, runs
//! one copy through `Driver`'s public entry points and one through
//! [`Driver::reference_step`], and compares full observation records.

use std::sync::{Arc, Mutex};

use nifdy::{Delivered, OutboundPacket};
use nifdy_net::topology::Mesh;
use nifdy_net::{FabricConfig, FaultConfig, GilbertElliott, LinkWindow, UserData};
use nifdy_trace::DropReason;

use super::*;
use crate::{Action, CoalesceConfig, NetworkKind, ScanConfig, Scenario, SyntheticConfig};

impl Driver {
    /// The reference semantics: every processor, the barrier release,
    /// every interface, the fabric — each cycle, for every node. No
    /// `node_due` gate, no skip.
    fn reference_step(&mut self) {
        let now = self.fab.now();
        if self.metrics.is_some() && now.as_u64().is_multiple_of(self.gauge_period) {
            self.emit_gauges(now);
        }
        for i in 0..self.procs.len() {
            self.procs[i].step(self.nics[i].as_mut(), self.wls[i].as_mut(), now);
        }
        if self.barrier_ready() {
            for p in self.procs.iter_mut().filter(|p| p.in_barrier()) {
                p.release_barrier(now, BARRIER_COST);
            }
        }
        for i in 0..self.nics.len() {
            self.step_nic(i, now);
        }
        self.fab.step();
    }
}

/// How a case drives its simulation, on either leg.
#[derive(Clone, Copy)]
enum Run {
    Cycles(u64),
    UntilQuiet(u64),
}

impl Run {
    /// Through `Driver`'s public entry points.
    fn driver(self, d: &mut Driver) -> Option<bool> {
        match self {
            Run::Cycles(n) => {
                d.run_cycles(n);
                None
            }
            Run::UntilQuiet(limit) => Some(d.run_until_quiet(limit)),
        }
    }

    /// One [`Driver::reference_step`] per cycle, quiescence observed after
    /// each.
    fn reference(self, d: &mut Driver) -> Option<bool> {
        match self {
            Run::Cycles(n) => {
                for _ in 0..n {
                    d.reference_step();
                }
                None
            }
            Run::UntilQuiet(limit) => {
                while d.fab.now().as_u64() < limit {
                    d.reference_step();
                    if d.is_quiet() {
                        return Some(true);
                    }
                }
                Some(false)
            }
        }
    }
}

/// One received packet: (cycle, receiver, sender, msg_id, pkt_index).
type Delivery = (u64, usize, usize, u64, u32);

/// Wraps a workload so every reception is appended to a shared log,
/// preserving the inner workload's wakeup contract.
struct Recording {
    inner: Box<dyn NodeWorkload>,
    node: usize,
    log: Arc<Mutex<Vec<Delivery>>>,
}

impl NodeWorkload for Recording {
    fn next_action(&mut self, now: Cycle) -> Action {
        self.inner.next_action(now)
    }
    fn on_receive(&mut self, pkt: &Delivered, now: Cycle) {
        self.log.lock().unwrap().push((
            now.as_u64(),
            self.node,
            pkt.src.index(),
            pkt.user.msg_id,
            pkt.user.pkt_index,
        ));
        self.inner.on_receive(pkt, now);
    }
    fn next_event(&self, now: Cycle) -> Wakeup {
        self.inner.next_event(now)
    }
}

fn record_all(
    wls: Vec<Box<dyn NodeWorkload>>,
    log: &Arc<Mutex<Vec<Delivery>>>,
) -> Vec<Box<dyn NodeWorkload>> {
    wls.into_iter()
        .enumerate()
        .map(|(node, inner)| -> Box<dyn NodeWorkload> {
            Box::new(Recording {
                inner,
                node,
                log: Arc::clone(log),
            })
        })
        .collect()
}

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct RunRecord {
    final_now: u64,
    completed: Option<bool>,
    deliveries: Vec<Delivery>,
    proc_stats: Vec<[u64; 5]>,
    nic_stats: Vec<[u64; 16]>,
    fabric_stats: Vec<u64>,
    failures: Vec<DeliveryFailure>,
    gauges: Vec<(String, Vec<(u64, f64)>)>,
}

fn nic_counters(nic: &dyn Nic) -> [u64; 16] {
    let s = nic.stats();
    [
        s.sent.get(),
        s.sent_bulk.get(),
        s.acks_sent.get(),
        s.acks_received.get(),
        s.delivered.get(),
        s.send_rejected.get(),
        s.retransmitted.get(),
        s.duplicates_dropped.get(),
        s.dialogs_granted.get(),
        s.acks_piggybacked.get(),
        s.bulk_out_of_order.get(),
        s.dialogs_rejected.get(),
        s.delivery_failures.get(),
        s.retx_queue_overflow.get(),
        s.dialogs_torn_down.get(),
        s.dialogs_reclaimed.get(),
    ]
}

fn observe(d: &Driver, completed: Option<bool>, log: &Arc<Mutex<Vec<Delivery>>>) -> RunRecord {
    let fs = d.fabric().stats();
    let mut fabric_stats = vec![
        fs.injected[0].get(),
        fs.injected[1].get(),
        fs.delivered[0].get(),
        fs.delivered[1].get(),
        fs.dropped.get(),
        d.fabric().in_network() as u64,
    ];
    fabric_stats.extend(DropReason::ALL.map(|cause| fs.dropped_by_reason(cause)));
    let gauges = d
        .metrics()
        .map(|reg| {
            [
                "occupancy.pool.max",
                "occupancy.opt.max",
                "occupancy.retx_queue.max",
                "occupancy.window.max",
                "fabric.in_flight",
            ]
            .iter()
            .filter_map(|name| {
                reg.gauge_series(name)
                    .map(|s| (name.to_string(), s.points().to_vec()))
            })
            .collect()
        })
        .unwrap_or_default();
    RunRecord {
        final_now: d.fabric().now().as_u64(),
        completed,
        deliveries: log.lock().unwrap().clone(),
        proc_stats: d
            .processors()
            .iter()
            .map(|p| {
                let s = p.stats();
                [
                    s.sent.get(),
                    s.received.get(),
                    s.empty_polls.get(),
                    s.user_words.get(),
                    s.barriers.get(),
                ]
            })
            .collect(),
        nic_stats: (0..d.processors().len())
            .map(|i| nic_counters(d.nic(i)))
            .collect(),
        fabric_stats,
        failures: d.delivery_failures().to_vec(),
        gauges,
    }
}

/// Runs the simulation described by `build` through [`Driver`] and
/// through the reference and asserts the full observation records match.
/// Returns the driver leg's `(elapsed, stepped)` cycles.
fn assert_matches_reference<B>(label: &str, build: B, run: Run) -> (u64, u64)
where
    B: Fn(&Arc<Mutex<Vec<Delivery>>>) -> Driver,
{
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut reference = build(&log);
    let completed = run.reference(&mut reference);
    let expected = observe(&reference, completed, &log);

    let log = Arc::new(Mutex::new(Vec::new()));
    let mut d = build(&log);
    let completed = run.driver(&mut d);
    assert_eq!(
        observe(&d, completed, &log),
        expected,
        "driver diverged from the reference on {label}"
    );
    assert_eq!(
        reference.cycles_stepped(),
        0,
        "the reference leg went through step_cycle"
    );
    let (elapsed, stepped) = (d.fabric().now().as_u64(), d.cycles_stepped());
    assert!(
        stepped <= elapsed,
        "{label}: stepped {stepped} of {elapsed} cycles"
    );
    (elapsed, stepped)
}

#[test]
fn synthetic_patterns_match_the_reference() {
    // RNG-driven workloads: their `next_action` draws randomness, so they
    // keep the conservative `Now` wakeup — the driver may only skip
    // compute/barrier gaps, and must stay byte-identical doing so.
    for (kind, nodes, heavy) in [
        (NetworkKind::Mesh2D, 16, true),
        (NetworkKind::Cm5, 32, false),
        (NetworkKind::Torus2D, 16, false),
    ] {
        let label = format!("synthetic on {kind:?}");
        assert_matches_reference(
            &label,
            |log| {
                Scenario::new(kind)
                    .nodes(nodes)
                    .seed(41)
                    .nic(NicChoice::Nifdy(kind.nifdy_preset()))
                    .metrics(500)
                    .build_with(|sc| {
                        let cfg = if heavy {
                            SyntheticConfig::heavy(sc.seed())
                        } else {
                            SyntheticConfig::light(sc.seed())
                        };
                        record_all(cfg.build(sc.nodes()), log)
                    })
                    .expect("valid scenario")
            },
            Run::Cycles(25_000),
        );
    }
}

#[test]
fn scan_pipeline_matches_and_actually_skips() {
    // The serialized scan pipeline is the skip-friendly workload: most
    // nodes idle reactively (Quiescent) while the token crawls the ring.
    // The driver must produce identical results *and* step far fewer
    // cycles than elapse.
    for choice in [
        NicChoice::Plain,
        NicChoice::BuffersOnly(NifdyConfig::mesh()),
        NicChoice::Nifdy(NifdyConfig::mesh()),
    ] {
        let label = format!("scan with {}", choice.label());
        let (elapsed, stepped) = assert_matches_reference(
            &label,
            |log| {
                Scenario::new(NetworkKind::Mesh2D)
                    .nodes(4)
                    .seed(5)
                    .nic(choice.clone())
                    .metrics(1_000)
                    .build_with(|sc| {
                        record_all(
                            ScanConfig::radix8(sc.sw())
                                .with_delay(400)
                                .build(sc.nodes()),
                            log,
                        )
                    })
                    .expect("valid scenario")
            },
            Run::UntilQuiet(5_000_000),
        );
        assert!(elapsed < 5_000_000, "{label}: scan never finished");
        assert!(
            stepped * 2 < elapsed,
            "{label}: expected a real skip win, got {stepped} stepped of \
             {elapsed} cycles"
        );
    }
}

#[test]
fn coalesce_and_random_sweep_match() {
    // Breadth: random destinations over several seeds, topologies, and
    // interfaces, run to completion.
    for seed in [3u64, 17, 92] {
        for kind in [NetworkKind::Mesh2D, NetworkKind::FatTree] {
            for nifdy in [false, true] {
                let choice = if nifdy {
                    NicChoice::Nifdy(kind.nifdy_preset())
                } else {
                    NicChoice::Plain
                };
                let label = format!("coalesce seed {seed} on {kind:?} with {}", choice.label());
                assert_matches_reference(
                    &label,
                    |log| {
                        Scenario::new(kind)
                            .nodes(16)
                            .seed(seed)
                            .nic(choice.clone())
                            .build_with(|sc| {
                                let cfg = CoalesceConfig {
                                    keys_per_node: 24,
                                    seed: sc.seed(),
                                    sw: sc.sw(),
                                };
                                record_all(cfg.build(sc.nodes()), log)
                            })
                            .expect("valid scenario")
                    },
                    Run::UntilQuiet(5_000_000),
                );
            }
        }
    }
}

#[test]
fn chaos_faults_and_typed_failures_match() {
    // The §6.2 chaos path: lane drops, bursty loss, a permanently dead
    // link, a retry budget. Retransmission timers, failure surfacing, and
    // the fault plane's RNG stream must all line up with the reference.
    let dead = NodeId::new(3);
    let build_fabric = || {
        Fabric::new(
            Box::new(Mesh::d2(2, 2)),
            FabricConfig::default().with_fault(
                FaultConfig::default()
                    .with_data_drop_prob(0.02)
                    .with_ack_drop_prob(0.03)
                    .with_burst(GilbertElliott::with_mean_loss(0.03))
                    .with_link_window(LinkWindow::edge(dead, 0, u64::MAX)),
            ),
        )
    };
    let send = |dst: usize, idx: u32| {
        Action::Send(
            OutboundPacket::new(NodeId::new(dst), 8).with_user(UserData {
                msg_id: 0,
                pkt_index: idx,
                msg_packets: 1,
                user_words: 6,
            }),
        )
    };
    assert_matches_reference(
        "chaos faults",
        |log| {
            let wls: Vec<Box<dyn NodeWorkload>> = (0..4usize)
                .map(|i| -> Box<dyn NodeWorkload> {
                    if i == 0 {
                        Box::new(Script::new(vec![
                            send(3, 0),
                            send(1, 0),
                            send(2, 0),
                            send(1, 1),
                        ]))
                    } else {
                        Box::new(Script::new(vec![]))
                    }
                })
                .collect();
            let cfg = NifdyConfig::mesh()
                .with_retx_timeout(500)
                .with_retx_budget(3);
            Driver::new(
                build_fabric(),
                &NicChoice::Nifdy(cfg),
                SoftwareModel::synthetic(),
                record_all(wls, log),
            )
            .expect("driver builds")
            .with_stall_watchdog(200_000)
        },
        Run::UntilQuiet(2_000_000),
    );
}

#[test]
fn run_sampled_observes_identical_intermediate_states() {
    let sample_one = |reference: bool| {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut d = Scenario::new(NetworkKind::Mesh2D)
            .nodes(16)
            .seed(9)
            .nic(NicChoice::Nifdy(NetworkKind::Mesh2D.nifdy_preset()))
            .build_with(|sc| {
                record_all(
                    ScanConfig::radix8(sc.sw()).with_delay(40).build(sc.nodes()),
                    &log,
                )
            })
            .expect("valid scenario");
        let mut samples = Vec::new();
        let mut sample = |d: &Driver| {
            samples.push((
                d.fabric().now().as_u64(),
                d.packets_received(),
                d.user_words_received(),
            ));
        };
        if reference {
            for c in 0..120_000u64 {
                if c % 10_000 == 0 {
                    sample(&d);
                }
                d.reference_step();
            }
        } else {
            d.run_sampled(120_000, 10_000, sample);
        }
        (samples, observe(&d, None, &log))
    };
    assert_eq!(
        sample_one(false),
        sample_one(true),
        "sampled states diverged"
    );
}

#[test]
fn watchdog_trips_at_the_reference_cycle() {
    // Total loss with no retransmission wedges the sender; the stall
    // watchdog must catch it at the same cycle even when the driver is
    // skipping — its deadline is an explicit wakeup.
    let trip_message = |run: fn(Run, &mut Driver) -> Option<bool>| -> String {
        let result = std::panic::catch_unwind(move || {
            let fab = Fabric::new(
                Box::new(Mesh::d2(2, 2)),
                FabricConfig::default().with_drop_prob(1.0),
            );
            let wls: Vec<Box<dyn NodeWorkload>> = (0..4usize)
                .map(|i| -> Box<dyn NodeWorkload> {
                    if i == 0 {
                        Box::new(Script::new(vec![Action::Send(OutboundPacket::new(
                            NodeId::new(1),
                            8,
                        ))]))
                    } else {
                        Box::new(Script::new(vec![]))
                    }
                })
                .collect();
            let mut d = Driver::new(
                fab,
                &NicChoice::Nifdy(NifdyConfig::mesh()),
                SoftwareModel::synthetic(),
                wls,
            )
            .expect("driver builds")
            .with_stall_watchdog(5_000);
            let _ = run(Run::UntilQuiet(1_000_000), &mut d);
        });
        let err = result.expect_err("watchdog must trip");
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string())
    };
    let expected = trip_message(Run::reference);
    assert!(expected.contains("stall watchdog tripped"), "{expected}");
    assert_eq!(
        trip_message(Run::driver),
        expected,
        "watchdog report differs from the reference"
    );
}

/// A scripted workload driven from a vector of actions.
struct Script {
    actions: std::vec::IntoIter<Action>,
}

impl Script {
    fn new(actions: Vec<Action>) -> Self {
        Script {
            actions: actions.into_iter(),
        }
    }
}

impl NodeWorkload for Script {
    fn next_action(&mut self, _now: Cycle) -> Action {
        self.actions.next().unwrap_or(Action::Done)
    }
    fn on_receive(&mut self, _pkt: &Delivered, _now: Cycle) {}
}

mod trace_parity {
    use super::*;
    use nifdy_trace::TraceConfig;

    /// Trace streams and journey-analysis reports must be byte-identical.
    #[test]
    fn trace_streams_and_journey_reports_match() {
        let run_one = |run: fn(Run, &mut Driver) -> Option<bool>| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let trace = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 14));
            let mut d = Scenario::new(NetworkKind::Mesh2D)
                .nodes(16)
                .seed(13)
                .nic(NicChoice::Nifdy(
                    NifdyConfig::mesh()
                        .with_retx_timeout(500)
                        .with_retx_budget(4),
                ))
                .trace(trace.clone())
                .build_with(|sc| {
                    record_all(
                        ScanConfig::radix8(sc.sw()).with_delay(30).build(sc.nodes()),
                        &log,
                    )
                })
                .expect("valid scenario");
            let done = run(Run::UntilQuiet(5_000_000), &mut d);
            assert_eq!(done, Some(true), "scan never finished");
            let events = trace.snapshot();
            let report = nifdy_analyze::analyze(
                &events,
                &trace.loss(),
                &nifdy_analyze::ExternalCounts::default(),
                &nifdy_analyze::AnomalyConfig::default(),
            );
            (events, report.to_json().render(), observe(&d, done, &log))
        };
        let (ref_events, ref_json, ref_rec) = run_one(Run::reference);
        let (events, json, rec) = run_one(Run::driver);
        assert_eq!(
            events.len(),
            ref_events.len(),
            "trace stream lengths differ"
        );
        assert_eq!(events, ref_events, "trace streams differ");
        assert_eq!(json, ref_json, "journey analysis JSON differs");
        assert_eq!(rec, ref_rec, "observation records differ");
    }
}
