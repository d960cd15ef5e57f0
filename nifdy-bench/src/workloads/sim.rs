//! The two simulator workloads: a 64-node 4-ary fat tree with the paper's
//! NIFDY preset, driven by a benchmark-owned open-loop generator, once
//! past the saturation knee and once far below it.
//!
//! The untraced run goes through `Scenario`/`Driver` with the default
//! engine. `Driver` builds its own NICs and steps them behind per-node
//! gates, so its phases cannot be timed from outside; the traced run is
//! instead a mirror of the ungated cycle kernel built from the same public
//! parts (`Processor::step` for every node, `Nic::step` + `take_failures`
//! for every node, `Fabric::step`) with one span per phase per cycle. The
//! generator is barrier-free because releasing a barrier is the one thing
//! the kernel does that has no public entry point. Both runs report the
//! same exact counts, which validates the ledger and re-checks the
//! driver's gating contract on every traced run.

use std::sync::{Arc, Mutex};

use nifdy::{Delivered, DeliveryFailure, Nic, NicStats};
use nifdy_net::{Fabric, Lane};
use nifdy_sim::{Cycle, NodeId, Wakeup};
use nifdy_traffic::{
    Action, Driver, NetworkKind, NicChoice, NodeWorkload, Processor, Scenario, SoftwareModel,
};

use super::{delivery_gate, ratio, NicSums, Rep, UsageMark, Window, Workload};
use crate::kernel::Clock;
use crate::plan::{DeliveryCheck, Feeder, LatencyLog, Offer, Plan};
use crate::spans::{self, Span};

const NODES: usize = 64;
const KIND: NetworkKind = NetworkKind::FatTree;
/// The synthetic software model's packet size (§4.1 of the paper).
const SIZE_WORDS: u16 = 8;
/// Messages are 1..=8 packets; those of at least 4 request a bulk dialog.
const MAX_MSG: u8 = 8;
const BULK_MIN: u8 = 4;
/// Warm-up is checked, and so ends, on a multiple of this many cycles in
/// both the driver run and the mirror, so their windows cover the same
/// simulated cycles.
const CHUNK: u64 = 256;

/// What the generators and the run loop share: the gate and the latency
/// stamps. `NodeWorkload: Send` makes this an `Arc<Mutex>`; there is one
/// thread, so the lock is never contended.
struct Sink {
    plan: Arc<Plan>,
    check: DeliveryCheck,
    lat: LatencyLog,
    clock: Clock,
}

/// One node's open-loop generator: offers the node's planned packets one
/// per `interval` simulated cycles, never waits for anything, never enters
/// a barrier.
struct Generator {
    node: usize,
    plan: Arc<Plan>,
    feeder: Feeder,
    interval: u64,
    next_due: u64,
    sink: Arc<Mutex<Sink>>,
}

impl NodeWorkload for Generator {
    fn next_action(&mut self, now: Cycle) -> Action {
        if self.feeder.done(&self.plan) {
            return Action::Done;
        }
        if now.as_u64() < self.next_due {
            return Action::Idle;
        }
        self.next_due += self.interval;
        // The processor owns the retry of a refused packet, so from the
        // feeder's side every offer is accepted.
        let mut pkt = None;
        let offer = self.feeder.offer(&self.plan, |p| {
            pkt = Some(p);
            true
        });
        if let Offer::Accepted(k) = offer {
            let mut sink = self.sink.lock().expect("single-threaded sink");
            if sink.lat.samples(k) {
                let at = sink.clock.ns();
                sink.lat.stamp(self.node, k, at);
            }
        }
        Action::Send(pkt.expect("an undone feeder offers a packet"))
    }

    fn on_receive(&mut self, pkt: &Delivered, _now: Cycle) {
        let mut sink = self.sink.lock().expect("single-threaded sink");
        let sink = &mut *sink;
        if let Some(k) = sink.check.delivered(&sink.plan, self.node, pkt) {
            if sink.lat.samples(k) {
                sink.lat.observe(pkt.src.index(), k, sink.clock.ns());
            }
        }
    }

    fn next_event(&self, now: Cycle) -> Wakeup {
        // Before the due cycle `next_action` returns `Idle` and touches
        // nothing, which is what `At` promises.
        if !self.feeder.done(&self.plan) && now.as_u64() < self.next_due {
            Wakeup::At(Cycle::new(self.next_due))
        } else {
            Wakeup::Now
        }
    }
}

/// The simulated statistics that must be identical between the driver run
/// and the mirror, and across repetitions and commits.
struct SimCounts {
    cycles: u64,
    injected: u64,
    delivered: u64,
    latency_mean: f64,
    received: u64,
    nic: NicSums,
}

fn counts<'a>(
    fab: &Fabric,
    nics: impl Iterator<Item = &'a NicStats>,
    procs: &[Processor],
) -> SimCounts {
    let lanes = |c: &[nifdy_sim::metrics::Counter; 2]| {
        c[Lane::Request.index()].get() + c[Lane::Reply.index()].get()
    };
    let mut nic = NicSums::default();
    nics.for_each(|s| nic.add(s));
    SimCounts {
        cycles: fab.now().as_u64(),
        injected: lanes(&fab.stats().injected),
        delivered: lanes(&fab.stats().delivered),
        latency_mean: fab.stats().latency.mean(),
        received: procs.iter().map(|p| p.stats().received.get()).sum(),
        nic,
    }
}

pub struct Sim {
    plan: Arc<Plan>,
    interval: u64,
    seed: u64,
}

impl Sim {
    /// One packet per 40 cycles per node — the processor's own `t_send` —
    /// so every source is always backlogged.
    pub fn saturated(seed: u64) -> Self {
        Sim {
            plan: Arc::new(Plan::uniform_random(
                NODES, 1_200, MAX_MSG, BULK_MIN, SIZE_WORDS, seed,
            )),
            interval: 40,
            seed,
        }
    }

    /// One packet per 2 000 cycles per node.
    pub fn sparse(seed: u64) -> Self {
        Sim {
            plan: Arc::new(Plan::uniform_random(
                NODES, 1_000, MAX_MSG, BULK_MIN, SIZE_WORDS, seed,
            )),
            interval: 2_000,
            seed,
        }
    }

    /// Simulated-cycle cap: far beyond what either workload needs.
    fn cycle_limit(&self) -> u64 {
        u64::from(self.plan.packets_of(0)) * self.interval * 20 + 1_000_000
    }

    fn sink(&self, clock: Clock) -> Arc<Mutex<Sink>> {
        Arc::new(Mutex::new(Sink {
            plan: Arc::clone(&self.plan),
            check: DeliveryCheck::new(&self.plan),
            lat: LatencyLog::new(&self.plan, 1),
            clock,
        }))
    }

    fn generators(&self, sink: &Arc<Mutex<Sink>>) -> Vec<Box<dyn NodeWorkload>> {
        (0..NODES)
            .map(|node| -> Box<dyn NodeWorkload> {
                Box::new(Generator {
                    node,
                    plan: Arc::clone(&self.plan),
                    feeder: Feeder::new(node),
                    interval: self.interval,
                    // Desynchronise the sources.
                    next_due: (node as u64 * 7) % self.interval,
                    sink: Arc::clone(sink),
                })
            })
            .collect()
    }

    fn build_driver(
        &self,
        sink: &Arc<Mutex<Sink>>,
        clock: Clock,
    ) -> (Result<Driver, nifdy_traffic::BuildError>, u64) {
        let t0 = clock.ns();
        let built = Scenario::new(KIND)
            .nodes(NODES)
            .seed(self.seed)
            .nic(NicChoice::Nifdy(KIND.nifdy_preset()))
            .build(self.generators(sink));
        (built, clock.ns() - t0)
    }

    /// Warm-up, the sliced window, then the untimed rest of the plan, on
    /// either kernel. Both advance in [`CHUNK`]-cycle steps so their window
    /// edges fall on the same simulated cycles.
    fn timed_run<K: Kernel>(
        &self,
        kernel: &mut K,
        sink: &Arc<Mutex<Sink>>,
        clock: Clock,
        traced: bool,
    ) -> TimedRun {
        let limit = self.cycle_limit();
        let mut window = Window::new(self.plan.total);
        let progress = || {
            let sink = sink.lock().expect("single-threaded sink");
            (sink.check.in_order, sink.lat.samples_ns.len())
        };
        while !window.should_open(progress().0) && kernel.now() < limit {
            kernel.advance(CHUNK);
        }
        sink.lock()
            .expect("single-threaded sink")
            .lat
            .samples_ns
            .clear();
        if traced {
            spans::install(clock);
        }
        let usage0 = UsageMark::take();
        let t0 = clock.ns();
        window.open(progress().0, kernel.now(), t0);
        let mut t1 = t0;
        while window.is_open() && kernel.now() < limit {
            kernel.advance(CHUNK);
            let (in_order, latency_end) = progress();
            if window.due(in_order) {
                t1 = clock.ns();
                window.slice(in_order, kernel.now(), t1, latency_end);
            }
        }
        let usage = usage0.until(&UsageMark::take(), t1 - t0);
        let recorder = traced.then(spans::take);
        let quiet = !window.is_open() && kernel.run_until_quiet(limit);
        TimedRun {
            window,
            usage,
            recorder,
            quiet,
        }
    }

    /// The untraced run: `Scenario` → `Driver`, default engine.
    fn driver_rep(&self, clock: Clock) -> Rep {
        let sink = self.sink(clock);
        let (built, setup_ns) = self.build_driver(&sink, clock);
        let mut driver: Driver = match built {
            Ok(d) => d,
            Err(e) => {
                return Rep {
                    gate: vec![format!("Scenario::build failed: {e}")],
                    attempted: self.plan.total,
                    failed: self.plan.total,
                    ..Rep::default()
                }
            }
        };
        let run = self.timed_run(&mut driver, &sink, clock, false);
        let c = counts(
            driver.fabric(),
            (0..NODES).map(|i| driver.nic(i).stats()),
            driver.processors(),
        );
        let failures = driver.delivery_failures().len() as u64;
        let mut rep = self.finish(&sink, setup_ns, run, &c, failures);
        rep.layer.insert(
            "traffic.stepped_share",
            ratio(driver.cycles_stepped(), c.cycles),
        );
        rep
    }

    /// The traced run: the mirror of the ungated cycle kernel.
    fn mirror_rep(&self, clock: Clock) -> Rep {
        let sink = self.sink(clock);
        let t0 = clock.ns();
        let mut mirror = Mirror {
            fab: KIND.fabric(NODES, self.seed),
            nics: NicChoice::Nifdy(KIND.nifdy_preset()).build(NODES),
            procs: (0..NODES)
                .map(|i| Processor::new(NodeId::new(i), SoftwareModel::synthetic()))
                .collect(),
            wls: self.generators(&sink),
            failures: Vec::new(),
        };
        let setup_ns = clock.ns() - t0;
        let mut run = self.timed_run(&mut mirror, &sink, clock, true);
        let mut rec = run.recorder.take().expect("a traced run records");
        let c = counts(
            &mirror.fab,
            mirror.nics.iter().map(|n| n.stats()),
            &mirror.procs,
        );
        let mut rep = self.finish(&sink, setup_ns, run, &c, mirror.failures.len() as u64);
        let l = &mut rep.layer;
        l.insert(
            "traffic.proc_phase_ns_per_cycle",
            rec.agg(Span::ProcPhase).mean_ns(),
        );
        l.insert(
            "core.unit_step_ns",
            rec.agg(Span::NicPhase).mean_ns() / NODES as f64,
        );
        l.insert("net.fabric_step_ns", rec.agg(Span::FabricStep).mean_ns());
        rep.recorder = Some(rec);
        rep
    }

    fn finish(
        &self,
        sink: &Arc<Mutex<Sink>>,
        setup_ns: u64,
        run: TimedRun,
        c: &SimCounts,
        typed_failures: u64,
    ) -> Rep {
        let mut sink = sink.lock().expect("single-threaded sink");
        let mut rep = Rep {
            setup_ns,
            usage: run.usage,
            ..Rep::default()
        };
        rep.set_window(run.window, std::mem::take(&mut sink.lat.samples_ns));
        delivery_gate(&sink.check, self.plan.total, typed_failures, &mut rep);
        if !run.quiet {
            rep.gate
                .push("simulation did not go quiet within the cycle limit".into());
        }
        rep.exact = vec![
            ("sim.cycles", c.cycles as f64),
            ("sim.window_cycles", rep.cycles() as f64),
            ("net.injected", c.injected as f64),
            ("net.delivered", c.delivered as f64),
            ("net.sim_latency_mean_cycles", c.latency_mean),
            ("traffic.received", c.received as f64),
            ("core.sent", c.nic.sent as f64),
            ("core.sent_bulk", c.nic.sent_bulk as f64),
            ("core.acks_sent", c.nic.acks_sent as f64),
            ("core.delivered", c.nic.delivered as f64),
            ("core.send_rejected", c.nic.send_rejected as f64),
            ("core.retransmits", c.nic.retransmitted as f64),
        ];
        let l = &mut rep.layer;
        c.nic.ledger(self.plan.total, l);
        l.insert("net.injected", c.injected as f64);
        l.insert("net.delivered", c.delivered as f64);
        l.insert("net.sim_latency_mean_cycles", c.latency_mean);
        rep
    }
}

/// What [`Sim::timed_run`] hands back.
struct TimedRun {
    window: Window,
    usage: super::Usage,
    recorder: Option<spans::Recorder>,
    quiet: bool,
}

/// The two ways to run the simulation: `Driver`, or the mirror below.
trait Kernel {
    fn now(&self) -> u64;
    fn advance(&mut self, cycles: u64);
    fn run_until_quiet(&mut self, limit: u64) -> bool;
}

impl Kernel for Driver {
    fn now(&self) -> u64 {
        self.fabric().now().as_u64()
    }

    fn advance(&mut self, cycles: u64) {
        self.run_cycles(cycles);
    }

    fn run_until_quiet(&mut self, limit: u64) -> bool {
        Driver::run_until_quiet(self, limit)
    }
}

/// The ungated cycle kernel, rebuilt from the public parts `Driver` is made
/// of, with a span around each of its three phases.
struct Mirror {
    fab: Fabric,
    nics: Vec<Box<dyn Nic>>,
    procs: Vec<Processor>,
    wls: Vec<Box<dyn NodeWorkload>>,
    failures: Vec<DeliveryFailure>,
}

impl Mirror {
    fn cycle(&mut self) {
        let now = self.fab.now();
        spans::set_tick(now.as_u64());
        spans::open(Span::ProcPhase);
        for i in 0..NODES {
            self.procs[i].step(self.nics[i].as_mut(), self.wls[i].as_mut(), now);
        }
        spans::lap(Span::NicPhase);
        for nic in &mut self.nics {
            nic.step(&mut self.fab);
            self.failures.extend(nic.take_failures());
        }
        spans::lap(Span::FabricStep);
        self.fab.step();
        spans::close();
    }

    /// `Driver::is_quiet`.
    fn is_quiet(&self) -> bool {
        self.procs.iter().all(Processor::is_done)
            && self.nics.iter().all(|n| n.is_idle())
            && self.fab.in_network() == 0
    }
}

impl Kernel for Mirror {
    fn now(&self) -> u64 {
        self.fab.now().as_u64()
    }

    fn advance(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.cycle();
        }
    }

    fn run_until_quiet(&mut self, limit: u64) -> bool {
        while self.now() < limit {
            self.cycle();
            if self.is_quiet() {
                return true;
            }
        }
        false
    }
}

impl Workload for Sim {
    fn rep(&self, traced: bool, clock: Clock) -> Rep {
        if traced {
            self.mirror_rep(clock)
        } else {
            self.driver_rep(clock)
        }
    }

    fn setup_once(&self, clock: Clock) -> u64 {
        self.build_driver(&self.sink(clock), clock).1
    }
}
