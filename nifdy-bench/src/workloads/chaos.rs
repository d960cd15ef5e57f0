//! `wire-chaos`: 16 sender→receiver pairs of `WireEndpoint`s on one
//! `LoopbackHub`, every endpoint behind a `FaultyTransport` running the
//! recoverable mix of `crates/bench/benches/wire.rs` (Gilbert–Elliott
//! bursts at 5% mean loss, 2% corruption, 2% duplication). Everything is
//! deterministic in hub cycles, so retransmit and fault counts are exact.
//!
//! Under this loss a flow's progress is heavy-tailed (a burst that eats a
//! retransmission too backs the timer off exponentially), so "until every
//! stream finishes" would time the unluckiest of 16 flows. The plan is
//! therefore longer than any flow gets: the window covers a fixed number
//! of deliveries while all 16 flows are still active, and when it closes
//! the sources stop offering and the run drains. The gate then holds every
//! packet the endpoints *accepted* to exactly-once in-order delivery.

use nifdy::NifdyConfig;
use nifdy_net::GilbertElliott;
use nifdy_sim::{NodeId, SimRng};
use nifdy_wire::{
    FaultyTransport, LoopbackHub, LoopbackTransport, Transport, WireEndpoint, WireFaultConfig,
    WireFaultStats,
};

use super::{delivery_gate, ratio, NicSums, Rep, UsageMark, Window, Workload};
use crate::carrier::TimedSend;
use crate::kernel::Clock;
use crate::plan::{shuffled, DeliveryCheck, Feeder, LatencyLog, Offer, Plan};
use crate::spans::{self, Span};

const PAIRS: usize = 16;
const NODES: usize = 2 * PAIRS;
const SIZE_WORDS: u16 = 6;
const HUB_LATENCY: u64 = 8;
/// Planned per flow; the window closes (and offering stops) when the flows
/// together have delivered [`WINDOW_CLOSE`] packets, about 0.3 of this
/// each, so even a flow running three times faster than the mean still has
/// packets left.
const PLANNED_PER_PAIR: u32 = 131_072;
const WINDOW_OPEN: u64 = PAIRS as u64 * PLANNED_PER_PAIR as u64 / 20;
const WINDOW_CLOSE: u64 = PAIRS as u64 * PLANNED_PER_PAIR as u64 * 3 / 10;
/// Hub-cycle cap; the run needs a few hundred thousand.
const CYCLE_LIMIT: u64 = 50_000_000;

/// What the loop reads from whichever transport stack the endpoints sit on.
trait ChaosPort: Transport {
    fn fault_stats(&self) -> &WireFaultStats;
    /// Frames handed to the fault plane, when a timing wrapper counted them.
    fn frames_offered(&self) -> u64 {
        0
    }
}

type Bare = FaultyTransport<LoopbackTransport>;
type Timed = TimedSend<FaultyTransport<TimedSend<LoopbackTransport>>>;

impl ChaosPort for Bare {
    fn fault_stats(&self) -> &WireFaultStats {
        self.stats()
    }
}

impl ChaosPort for Timed {
    fn fault_stats(&self) -> &WireFaultStats {
        self.inner().stats()
    }

    fn frames_offered(&self) -> u64 {
        self.frames_sent
    }
}

pub struct Chaos {
    plan: Plan,
    seed: u64,
}

/// Sums read at the window's two edges.
#[derive(Clone, Copy)]
struct Counts {
    nic: NicSums,
    decode_errors: u64,
    faults: u64,
    frames_offered: u64,
}

impl Chaos {
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::from_seed_stream(seed, 0xC4_0001);
        let order = shuffled(NODES, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..PAIRS)
            .map(|i| (order[2 * i], order[2 * i + 1]))
            .collect();
        Chaos {
            plan: Plan::streams(NODES, &pairs, PLANNED_PER_PAIR, 8, SIZE_WORDS, true),
            seed,
        }
    }

    fn protocol() -> NifdyConfig {
        NifdyConfig::builder()
            .opt_entries(4)
            .pool_entries(8)
            .max_dialogs(1)
            .window(8)
            .build()
            .expect("the wire bench's protocol config is valid")
            .with_retx_timeout(64)
            .with_adaptive_rto(true)
            .with_retx_budget(30)
    }

    fn faults() -> WireFaultConfig {
        WireFaultConfig::default()
            .with_burst(GilbertElliott::with_mean_loss(0.05))
            .with_corrupt_prob(0.02)
            .with_duplicate_prob(0.02)
    }

    fn counts<T: ChaosPort>(eps: &[WireEndpoint<T>]) -> Counts {
        let mut c = Counts {
            nic: NicSums::default(),
            decode_errors: 0,
            faults: 0,
            frames_offered: 0,
        };
        for ep in eps {
            c.nic.add(ep.stats());
            c.decode_errors += ep.port().decode_errors();
            c.faults += ep.port().transport().fault_stats().total();
            c.frames_offered += ep.port().transport().frames_offered();
        }
        c
    }

    fn build<T: ChaosPort>(
        &self,
        clock: Clock,
        wrap: impl Fn(LoopbackTransport, u64) -> T,
    ) -> (LoopbackHub, Vec<WireEndpoint<T>>, u64) {
        let t0 = clock.ns();
        let hub = LoopbackHub::new(NODES, HUB_LATENCY);
        let eps = (0..NODES)
            .map(|i| {
                let node = NodeId::new(i);
                WireEndpoint::new(node, Self::protocol(), wrap(hub.endpoint(node), self.seed))
            })
            .collect();
        (hub, eps, clock.ns() - t0)
    }

    fn run<T: ChaosPort, const TRACED: bool>(
        &self,
        clock: Clock,
        wrap: impl Fn(LoopbackTransport, u64) -> T,
    ) -> Rep {
        let plan = &self.plan;
        let (hub, mut eps, setup_ns) = self.build(clock, wrap);

        let mut check = DeliveryCheck::new(plan);
        let mut lat = LatencyLog::new(plan, 4);
        let mut feeders: Vec<Feeder> = plan.sources().into_iter().map(Feeder::new).collect();
        let receivers: Vec<usize> = feeders
            .iter()
            .map(|f| plan.msgs[f.src][0].dst as usize)
            .collect();
        let mut window = Window::between(WINDOW_OPEN, WINDOW_CLOSE);
        let mut typed_failures = 0u64;
        let (mut offers, mut rejects) = (0u64, 0u64);
        // What is read at the window's two edges.
        struct Edge {
            counts: Counts,
            offers: u64,
            rejects: u64,
            usage: UsageMark,
            t_ns: u64,
        }
        let (mut start, mut end): (Option<Edge>, Option<Edge>) = (None, None);
        let mut recorder = None;

        let mut offering = true;
        // Runs until the window has closed and everything accepted by then
        // has been delivered.
        while (offering || check.in_order < offers - rejects) && hub.now().as_u64() < CYCLE_LIMIT {
            if window.should_open(check.in_order) {
                lat.samples_ns.clear();
                if TRACED {
                    spans::install(clock);
                }
                let counts = Self::counts(&eps);
                let usage = UsageMark::take();
                let t_ns = clock.ns();
                window.open(check.in_order, hub.now().as_u64(), t_ns);
                start = Some(Edge {
                    counts,
                    offers,
                    rejects,
                    usage,
                    t_ns,
                });
            }
            if TRACED {
                spans::set_tick(hub.now().as_u64());
            }
            spans::maybe::<TRACED, _>(Span::EndpointTrySend, || {
                for f in feeders.iter_mut().filter(|_| offering) {
                    let src = f.src;
                    match f.offer(plan, |p| eps[src].try_send(p)) {
                        Offer::Accepted(k) => {
                            offers += 1;
                            if lat.samples(k) {
                                lat.stamp(src, k, clock.ns());
                            }
                        }
                        Offer::Rejected => {
                            offers += 1;
                            rejects += 1;
                        }
                        Offer::Done => {}
                    }
                }
            });
            spans::maybe::<TRACED, _>(Span::EndpointStep, || {
                for ep in &mut eps {
                    ep.step();
                    typed_failures += ep.take_failures().len() as u64;
                }
            });
            spans::maybe::<TRACED, _>(Span::EndpointPoll, || {
                for &dst in &receivers {
                    while let Some(d) = eps[dst].poll() {
                        if let Some(k) = check.delivered(plan, dst, &d) {
                            if lat.samples(k) {
                                lat.observe(d.src.index(), k, clock.ns());
                            }
                        }
                    }
                }
            });
            spans::maybe::<TRACED, _>(Span::HubTick, || hub.tick());

            if window.due(check.in_order) {
                let t_ns = clock.ns();
                if window.slice(
                    check.in_order,
                    hub.now().as_u64(),
                    t_ns,
                    lat.samples_ns.len(),
                ) {
                    offering = false;
                    recorder = TRACED.then(spans::take);
                    end = Some(Edge {
                        counts: Self::counts(&eps),
                        offers,
                        rejects,
                        usage: UsageMark::take(),
                        t_ns,
                    });
                }
            }
        }
        if window.is_open() {
            window.abandon(
                check.in_order,
                hub.now().as_u64(),
                clock.ns(),
                lat.samples_ns.len(),
            );
            recorder = TRACED.then(spans::take);
        }
        let done = Self::counts(&eps);
        let done_cycle = hub.now().as_u64();

        // Untimed: drain acknowledgments and retransmit timers, and make
        // sure nothing more is delivered.
        let mut quiesced = false;
        for _ in 0..1_000_000u32 {
            if eps.iter().all(WireEndpoint::is_idle) && hub.in_flight() == 0 {
                quiesced = true;
                break;
            }
            for (i, ep) in eps.iter_mut().enumerate() {
                ep.step();
                typed_failures += ep.take_failures().len() as u64;
                while let Some(d) = ep.poll() {
                    check.delivered(plan, i, &d);
                }
            }
            hub.tick();
        }

        let mut rep = Rep {
            setup_ns,
            ..Rep::default()
        };
        delivery_gate(&check, offers - rejects, typed_failures, &mut rep);
        if !quiesced {
            rep.gate
                .push("endpoints never went idle after the last delivery".into());
        }
        rep.set_window(window, lat.samples_ns);
        rep.exact = vec![
            ("wire.hub_cycles", done_cycle as f64),
            ("core.retransmits", done.nic.retransmitted as f64),
            ("core.dup_dropped", done.nic.duplicates_dropped as f64),
            ("wire.faults_injected", done.faults as f64),
            ("wire.decode_errors", done.decode_errors as f64),
            ("core.acks_sent", done.nic.acks_sent as f64),
        ];
        let (Some(start), Some(end)) = (start, end) else {
            rep.gate
                .push("the run ended before its timed window closed".into());
            return rep;
        };
        rep.usage = start.usage.until(&end.usage, end.t_ns - start.t_ns);
        let (delivered, cycles) = (rep.delivered(), rep.cycles());

        let nic = end.counts.nic.since(&start.counts.nic);
        let frames = end.counts.frames_offered - start.counts.frames_offered;
        let l = &mut rep.layer;
        nic.ledger(
            (end.offers - start.offers) - (end.rejects - start.rejects),
            l,
        );
        l.insert("wire.chaos_cycles_per_delivered", ratio(cycles, delivered));
        l.insert(
            "wire.retx_per_delivered",
            ratio(nic.retransmitted, delivered),
        );
        l.insert(
            "wire.decode_errors",
            (end.counts.decode_errors - start.counts.decode_errors) as f64,
        );
        l.insert(
            "wire.fault_injected_share",
            ratio(end.counts.faults - start.counts.faults, frames),
        );
        l.insert("wire.allocs_per_frame", ratio(rep.usage.allocs, frames));
        if let Some(rec) = recorder.as_mut() {
            l.insert(
                "wire.endpoint_step_ns",
                rec.agg(Span::EndpointStep).mean_ns() / NODES as f64,
            );
            l.insert(
                "wire.fault_self_ns_per_frame",
                ratio(rec.agg(Span::FaultSend).self_ns, frames),
            );
            l.insert(
                "wire.loopback_ns_per_frame",
                ratio(rec.agg(Span::LoopbackSend).busy_ns, frames),
            );
        }
        rep.recorder = recorder;
        rep
    }
}

fn bare(loopback: LoopbackTransport, seed: u64) -> Bare {
    FaultyTransport::new(loopback, Chaos::faults(), seed)
}

fn timed(loopback: LoopbackTransport, seed: u64) -> Timed {
    let inner = TimedSend::new(loopback, Span::LoopbackSend);
    TimedSend::new(
        FaultyTransport::new(inner, Chaos::faults(), seed),
        Span::FaultSend,
    )
}

impl Workload for Chaos {
    fn rep(&self, traced: bool, clock: Clock) -> Rep {
        if traced {
            self.run::<Timed, true>(clock, timed)
        } else {
            self.run::<Bare, false>(clock, bare)
        }
    }

    fn setup_once(&self, clock: Clock) -> u64 {
        self.build(clock, bare).2
    }
}
