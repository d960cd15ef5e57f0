//! The four daemon workloads: one carrier-less `NifdyNode` (`daemon-*`) or
//! two joined by real UDP sockets on 127.0.0.1 (`udp-*`), driven by one
//! busy-polling loop on one thread.
//!
//! `udp-*` traffic crosses the host's loopback interface, not a link: it
//! measures syscall and kernel-stack cost, never wire rate.

use nifdy_node::{NifdyNode, NodeConfig};
use nifdy_sim::{NodeId, SimRng};
use nifdy_wire::{LoopbackTransport, SupervisorConfig, UdpTransport};

use super::{delivery_gate, ratio, NicSums, Rep, UsageMark, Window, Workload};
use crate::carrier::{Carrier, CarrierCounts, TimedCarrier};
use crate::kernel::{percentile, Clock};
use crate::plan::{cyclic_permutation, shuffled, DeliveryCheck, Feeder, LatencyLog, Offer, Plan};
use crate::spans::{self, Span};

/// Six-word packets, as the daemon benches and the swarm use.
const SIZE_WORDS: u16 = 6;
/// Wall-clock cap on one repetition's loop; what is undelivered by then
/// counts as failed.
const DEADLINE_NS: u64 = 60_000_000_000;

/// How the loop offers packets.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// One offer per active source per round; the interface's buffer pool
    /// is the back-pressure. One packet in `sample_every` is timed from
    /// acceptance to delivery (two clock reads per sample).
    Closed { sample_every: u32 },
    /// The `g`-th packet overall is due `g · interval_ns` after the loop
    /// starts, sources taking turns; every packet's latency counts from its
    /// due time.
    Fixed { interval_ns: u64 },
}

/// One or two daemons and who hosts which node.
struct Stack<C: Carrier> {
    daemons: Vec<NifdyNode<C>>,
    /// `host[node]`: index of the daemon hosting it.
    host: Vec<usize>,
    /// Whether each daemon has its one carrier (`udp-*`) or none
    /// (`daemon-*`); `NifdyNode` does not expose its carrier count.
    has_carrier: bool,
}

impl<C: Carrier> Stack<C> {
    fn nic_sums(&self) -> (NicSums, u64) {
        let mut sums = NicSums::default();
        let mut decode_errors = 0;
        for d in &self.daemons {
            for n in d.endpoints() {
                if let Some(sup) = d.supervised(n) {
                    sums.add(sup.endpoint().stats());
                    decode_errors += sup.endpoint().port().decode_errors();
                }
            }
        }
        (sums, decode_errors)
    }

    fn node_counts(&self) -> NodeCounts {
        let mut c = NodeCounts::default();
        for d in &self.daemons {
            let s = d.stats();
            c.rounds += s.rounds;
            c.frames_in += s.frames_in;
            c.local_frames += s.local_frames;
            c.unroutable += s.unroutable + s.foreign + s.dropped_down;
        }
        c
    }

    fn carriers(&mut self) -> impl Iterator<Item = &mut C> {
        let has = self.has_carrier;
        self.daemons
            .iter_mut()
            .filter(move |_| has)
            .map(|d| d.carrier_mut(0))
    }

    /// What the timing carriers counted since `reset_counts`, summed. Read
    /// at the window's closing edge, where the recorder is taken: the
    /// carriers go on counting through the rest of the plan and the
    /// quiesce rounds, and their span time does not.
    fn carrier_counts(&mut self) -> CarrierCounts {
        let mut sum = CarrierCounts::default();
        for c in self.carriers() {
            if let Some(c) = c.counts_mut() {
                sum.frames_sent += c.frames_sent;
                sum.send_batches += c.send_batches;
                sum.frames_received += c.frames_received;
                sum.empty_ticks += c.empty_ticks;
                sum.empty_tick_ns += c.empty_tick_ns;
                if sum.captured.is_empty() {
                    sum.captured = std::mem::take(&mut c.captured);
                }
            }
        }
        sum
    }

    fn udp_hygiene(&mut self) -> [u64; 4] {
        let mut sum = [0u64; 4];
        for c in self.carriers() {
            for (s, v) in sum.iter_mut().zip(c.udp_hygiene()) {
                *s += v;
            }
        }
        sum
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeCounts {
    rounds: u64,
    frames_in: u64,
    local_frames: u64,
    unroutable: u64,
}

/// Everything read at the window's two edges.
struct Mark {
    t_ns: u64,
    usage: UsageMark,
    node: NodeCounts,
    nic: NicSums,
    decode_errors: u64,
    offers: u64,
    rejects: u64,
}

struct LoopResult {
    check: DeliveryCheck,
    typed_failures: u64,
    latency_ns: Vec<u32>,
    late_ns: Vec<u32>,
    window: Window,
    start: Mark,
    end: Mark,
    recorder: Option<spans::Recorder>,
    /// The timing carriers' counts over the same window as `recorder`.
    carrier: CarrierCounts,
    deadline_hit: bool,
    quiesced: bool,
}

fn run_loop<C: Carrier, const TRACED: bool>(
    stack: &mut Stack<C>,
    plan: &Plan,
    pace: Pace,
    clock: Clock,
) -> LoopResult {
    let sample_every = match pace {
        Pace::Closed { sample_every } => sample_every,
        Pace::Fixed { .. } => 1,
    };
    let mut check = DeliveryCheck::new(plan);
    let mut lat = LatencyLog::new(plan, sample_every);
    let mut late_ns: Vec<u32> = Vec::new();
    let mut feeders: Vec<Feeder> = plan.sources().into_iter().map(Feeder::new).collect();
    let sources = feeders.len() as u64;
    // Stream index of each feeder's head when its lateness was recorded.
    let mut late_noted: Vec<u32> = vec![u32::MAX; feeders.len()];
    let mut window = Window::new(plan.total);
    let mut typed_failures = 0u64;
    let (mut offers, mut rejects) = (0u64, 0u64);
    let mut round = 0u64;
    let mut start: Option<Mark> = None;
    let mut end: Option<Mark> = None;
    let mut recorder = None;
    let mut carrier = CarrierCounts::default();
    let mut deadline_hit = false;
    let t0 = clock.ns();

    let mark = |stack: &Stack<C>, offers, rejects, opening| {
        let (nic, decode_errors) = stack.nic_sums();
        let node = stack.node_counts();
        // /proc is read outside the window on both edges.
        let (usage, t_ns) = if opening {
            let u = UsageMark::take();
            (u, clock.ns())
        } else {
            let t = clock.ns();
            (UsageMark::take(), t)
        };
        Mark {
            t_ns,
            usage,
            node,
            nic,
            decode_errors,
            offers,
            rejects,
        }
    };

    loop {
        if window.should_open(check.in_order) {
            lat.samples_ns.clear();
            late_ns.clear();
            stack.carriers().for_each(Carrier::reset_counts);
            if TRACED {
                spans::install(clock);
            }
            let m = mark(stack, offers, rejects, true);
            window.open(check.in_order, round, m.t_ns);
            start = Some(m);
        }
        if TRACED {
            spans::set_tick(round);
        }

        spans::maybe::<TRACED, _>(Span::NodeTrySend, || match pace {
            Pace::Closed { .. } => {
                for f in &mut feeders {
                    let src = f.src;
                    let node = &mut stack.daemons[stack.host[src]];
                    match f.offer(plan, |p| node.try_send(NodeId::new(src), p)) {
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
            }
            Pace::Fixed { interval_ns } => {
                let now = clock.ns();
                for (pos, f) in feeders.iter_mut().enumerate() {
                    let src = f.src;
                    let node = &mut stack.daemons[stack.host[src]];
                    loop {
                        let k = f.head();
                        let due = t0 + (u64::from(k) * sources + pos as u64) * interval_ns;
                        if f.done(plan) || due > now {
                            break;
                        }
                        if late_noted[pos] != k {
                            late_noted[pos] = k;
                            late_ns.push(u32::try_from(now - due).unwrap_or(u32::MAX));
                        }
                        offers += 1;
                        match f.offer(plan, |p| node.try_send(NodeId::new(src), p)) {
                            Offer::Accepted(k) => lat.stamp(src, k, due),
                            _ => {
                                rejects += 1;
                                break;
                            }
                        }
                    }
                }
            }
        });

        for d in &mut stack.daemons {
            spans::maybe::<TRACED, _>(Span::NodePollRound, || d.poll_round());
        }

        spans::maybe::<TRACED, _>(Span::NodeDrain, || {
            for d in &mut stack.daemons {
                while let Some((dst, del)) = d.next_delivery() {
                    if let Some(k) = check.delivered(plan, dst.index(), &del) {
                        if lat.samples(k) {
                            lat.observe(del.src.index(), k, clock.ns());
                        }
                    }
                }
                typed_failures += d.take_failures().len() as u64;
            }
        });
        round += 1;

        if window.due(check.in_order) {
            let now = clock.ns();
            if window.slice(check.in_order, round, now, lat.samples_ns.len()) {
                recorder = TRACED.then(spans::take);
                carrier = stack.carrier_counts();
                let mut m = mark(stack, offers, rejects, false);
                m.t_ns = now;
                end = Some(m);
            }
        }
        if check.in_order >= plan.total {
            break;
        }
        if round.is_multiple_of(1024) && clock.ns() - t0 > DEADLINE_NS {
            deadline_hit = true;
            break;
        }
    }
    if window.is_open() {
        window.abandon(check.in_order, round, clock.ns(), lat.samples_ns.len());
        recorder = TRACED.then(spans::take);
        carrier = stack.carrier_counts();
    }
    // A run that never reached an edge gets an empty window at its end.
    let start = start.unwrap_or_else(|| mark(stack, offers, rejects, false));
    let end = end.unwrap_or_else(|| mark(stack, offers, rejects, false));

    // Untimed: let the acknowledgments drain, then require silence. Frames
    // inside a socket are invisible to `is_idle`, so keep polling a while
    // after the daemons first report idle.
    let mut quiet_rounds = 0;
    let mut quiesced = deadline_hit;
    for _ in 0..2_000_000u32 {
        if quiesced {
            break;
        }
        for d in &mut stack.daemons {
            d.poll_round();
            while let Some((dst, del)) = d.next_delivery() {
                check.delivered(plan, dst.index(), &del);
            }
            typed_failures += d.take_failures().len() as u64;
        }
        if stack.daemons.iter().all(NifdyNode::is_idle) {
            quiet_rounds += 1;
            quiesced = quiet_rounds >= 256;
        } else {
            quiet_rounds = 0;
        }
    }

    LoopResult {
        check,
        typed_failures,
        latency_ns: lat.samples_ns,
        late_ns,
        window,
        start,
        end,
        recorder,
        carrier,
        deadline_hit,
        quiesced,
    }
}

/// Turns a finished loop into the repetition record and, when traced, the
/// `node.*` / `wire.carrier*` / `core.*` ledger lines.
fn finish<C: Carrier>(stack: &mut Stack<C>, plan: &Plan, setup_ns: u64, mut r: LoopResult) -> Rep {
    let mut rep = Rep {
        setup_ns,
        ..Rep::default()
    };
    delivery_gate(&r.check, plan.total, r.typed_failures, &mut rep);
    if r.deadline_hit {
        rep.gate
            .push("deadline reached before every packet was delivered".into());
    }
    if !r.quiesced {
        rep.gate
            .push("daemons never went idle after the last delivery".into());
    }
    let wall = r.end.t_ns.saturating_sub(r.start.t_ns);
    rep.usage = r.start.usage.until(&r.end.usage, wall);
    rep.set_window(r.window, r.latency_ns);
    let delivered = rep.delivered();

    let hygiene = stack.udp_hygiene();
    if hygiene.iter().any(|&v| v > 0) {
        rep.gate.push(format!(
            "udp hygiene counters not zero: refused {} oversize {} unknown_peer {} transport_errors {}",
            hygiene[0], hygiene[1], hygiene[2], hygiene[3]
        ));
    }
    let end_counts = stack.node_counts();
    if end_counts.unroutable > 0 {
        rep.gate.push(format!(
            "{} frames were unroutable, foreign or dropped at a down endpoint",
            end_counts.unroutable
        ));
    }

    let node = NodeCounts {
        rounds: r.end.node.rounds - r.start.node.rounds,
        frames_in: r.end.node.frames_in - r.start.node.frames_in,
        ..NodeCounts::default()
    };
    let nic = r.end.nic.since(&r.start.nic);
    if !stack.has_carrier {
        // The loop is round-synchronous with no carrier: nothing here
        // depends on time.
        rep.exact = vec![
            ("node.rounds", r.end.node.rounds as f64),
            ("node.frames_in", r.end.node.frames_in as f64),
            ("node.local_frames", r.end.node.local_frames as f64),
            ("core.acks_sent", r.end.nic.acks_sent as f64),
            ("core.retransmits", r.end.nic.retransmitted as f64),
        ];
    }

    let offers = r.end.offers - r.start.offers;
    let rejects = r.end.rejects - r.start.rejects;
    let l = &mut rep.layer;
    nic.ledger(offers - rejects, l);
    l.insert(
        "wire.decode_errors",
        (r.end.decode_errors - r.start.decode_errors) as f64,
    );
    l.insert("wire.udp_refused", hygiene[0] as f64);
    l.insert("wire.udp_oversize", hygiene[1] as f64);
    l.insert("wire.udp_unknown_peer", hygiene[2] as f64);
    l.insert("wire.udp_transport_errors", hygiene[3] as f64);
    l.insert("node.rounds_per_delivered", ratio(node.rounds, delivered));
    l.insert(
        "node.frames_per_delivered",
        ratio(node.frames_in, delivered),
    );
    l.insert("node.try_send_reject_share", ratio(rejects, offers));
    l.insert(
        "node.allocs_per_frame",
        ratio(rep.usage.allocs, node.frames_in),
    );
    l.insert(
        "node.alloc_bytes_per_frame",
        ratio(rep.usage.alloc_bytes, node.frames_in),
    );
    let mut lat = rep.latency_ns.clone();
    l.insert(
        "node.delivery_latency_p50_us",
        percentile(&mut lat, 0.5) as f64 / 1e3,
    );
    l.insert(
        "node.delivery_latency_p99_us",
        percentile(&mut lat, 0.99) as f64 / 1e3,
    );
    l.insert(
        "bench.generator_late_p99_us",
        percentile(&mut r.late_ns, 0.99) as f64 / 1e3,
    );

    if let Some(mut rec) = r.recorder.take() {
        let round = rec.agg(Span::NodePollRound).clone();
        l.insert("node.poll_round_ns", round.mean_ns());
        l.insert(
            "node.poll_round_p99_ns",
            rec.agg(Span::NodePollRound).percentile_ns(0.99) as f64,
        );
        l.insert(
            "node.poll_round_self_ns_per_frame",
            ratio(round.self_ns, node.frames_in),
        );
        l.insert(
            "node.try_send_ns",
            ratio(rec.agg(Span::NodeTrySend).busy_ns, offers),
        );
        l.insert(
            "node.drain_ns_per_delivered",
            ratio(rec.agg(Span::NodeDrain).busy_ns, delivered),
        );
        let carrier = r.carrier;
        let send = rec.agg(Span::CarrierSendBatch).busy_ns;
        let recv = rec.agg(Span::CarrierTick).busy_ns + rec.agg(Span::CarrierRecvBatch).busy_ns;
        l.insert(
            "wire.carrier_send_ns_per_frame",
            ratio(send, carrier.frames_sent),
        );
        l.insert(
            "wire.carrier_recv_ns_per_frame",
            ratio(recv, carrier.frames_received),
        );
        l.insert(
            "wire.carrier_frames_per_send_batch",
            ratio(carrier.frames_sent, carrier.send_batches),
        );
        l.insert("wire.carrier_share", ratio(send + recv, round.busy_ns));
        l.insert(
            "wire.carrier_empty_tick_ns",
            ratio(carrier.empty_tick_ns, carrier.empty_ticks),
        );
        rep.captured_frames = carrier.captured;
        rep.recorder = Some(rec);
    }
    rep
}

// ---------------------------------------------------------------------------
// daemon-dense / daemon-sparse
// ---------------------------------------------------------------------------

/// One carrier-less daemon hosting [`Daemon::HOSTED`] endpoints.
pub struct Daemon {
    plan: Plan,
    pace: Pace,
    seed: u64,
}

impl Daemon {
    const HOSTED: usize = 1024;

    /// All 1 024 endpoints stream to a partner under a seeded
    /// fixed-point-free permutation.
    pub fn dense(seed: u64) -> Self {
        let mut rng = SimRng::from_seed_stream(seed, 0xDE_0001);
        let perm = cyclic_permutation(Self::HOSTED, &mut rng);
        let pairs: Vec<(usize, usize)> = perm.into_iter().enumerate().collect();
        Daemon {
            plan: Plan::streams(Self::HOSTED, &pairs, 1_024, 8, SIZE_WORDS, true),
            pace: Pace::Closed { sample_every: 4 },
            seed,
        }
    }

    /// 16 seeded sources stream to 16 distinct, otherwise idle receivers;
    /// the other 992 hosted endpoints do nothing but get swept.
    pub fn sparse(seed: u64) -> Self {
        let mut rng = SimRng::from_seed_stream(seed, 0xDE_0002);
        let picks = shuffled(Self::HOSTED, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..16).map(|i| (picks[i], picks[16 + i])).collect();
        Daemon {
            plan: Plan::streams(Self::HOSTED, &pairs, 10_240, 8, SIZE_WORDS, true),
            pace: Pace::Closed { sample_every: 1 },
            seed,
        }
    }

    fn build(&self) -> Stack<LoopbackTransport> {
        let cfg = NodeConfig::default()
            .with_shards(8)
            .with_batch(64)
            .with_seed(self.seed);
        let mut node: NifdyNode<LoopbackTransport> = NifdyNode::new(cfg);
        for i in 0..Self::HOSTED {
            node.add_endpoint(NodeId::new(i), Vec::new());
        }
        Stack {
            daemons: vec![node],
            host: vec![0; Self::HOSTED],
            has_carrier: false,
        }
    }
}

impl Workload for Daemon {
    fn rep(&self, traced: bool, clock: Clock) -> Rep {
        let t0 = clock.ns();
        let mut stack = self.build();
        let setup_ns = clock.ns() - t0;
        let result = if traced {
            run_loop::<_, true>(&mut stack, &self.plan, self.pace, clock)
        } else {
            run_loop::<_, false>(&mut stack, &self.plan, self.pace, clock)
        };
        finish(&mut stack, &self.plan, setup_ns, result)
    }

    fn setup_once(&self, clock: Clock) -> u64 {
        let t0 = clock.ns();
        let stack = self.build();
        let ns = clock.ns() - t0;
        drop(stack);
        ns
    }
}

// ---------------------------------------------------------------------------
// udp-saturated / udp-paced
// ---------------------------------------------------------------------------

/// Two daemons, 16 endpoints each, every flow crossing 127.0.0.1.
pub struct Udp {
    plan: Plan,
    pace: Pace,
    seed: u64,
}

impl Udp {
    const PER_DAEMON: usize = 16;
    const NODES: usize = 2 * Self::PER_DAEMON;
    /// Aggregate offered rate of the paced workload, fixed, never tuned.
    const PACED_PER_S: u64 = 60_000;

    /// Every source's partner lives on the other daemon.
    fn pairs(seed: u64) -> Vec<(usize, usize)> {
        let mut rng = SimRng::from_seed_stream(seed, 0x0D_0001);
        let a_to_b = shuffled(Self::PER_DAEMON, &mut rng);
        let b_to_a = shuffled(Self::PER_DAEMON, &mut rng);
        (0..Self::PER_DAEMON)
            .map(|i| (i, Self::PER_DAEMON + a_to_b[i]))
            .chain((0..Self::PER_DAEMON).map(|j| (Self::PER_DAEMON + j, b_to_a[j])))
            .collect()
    }

    pub fn saturated(seed: u64) -> Self {
        Udp {
            plan: Plan::streams(Self::NODES, &Self::pairs(seed), 10_240, 8, SIZE_WORDS, true),
            pace: Pace::Closed { sample_every: 4 },
            seed,
        }
    }

    /// Scalar single-packet messages: the one-ack-per-packet path the bulk
    /// workloads skip.
    pub fn paced(seed: u64) -> Self {
        Udp {
            plan: Plan::streams(Self::NODES, &Self::pairs(seed), 4_096, 1, SIZE_WORDS, false),
            pace: Pace::Fixed {
                interval_ns: 1_000_000_000 / Self::PACED_PER_S,
            },
            seed,
        }
    }

    /// The swarm's settings (`crates/harness/src/node_cmd.rs`): adaptive
    /// RTO from a 5 000-round base, heartbeats every 256 rounds, liveness
    /// timeout far beyond any scheduling hiccup, 8 shards, batch 64.
    fn config(&self, me: usize) -> NodeConfig {
        NodeConfig::default()
            .with_shards(8)
            .with_batch(64)
            .with_protocol(
                NodeConfig::default()
                    .protocol
                    .with_retx_timeout(5_000)
                    .with_adaptive_rto(true),
            )
            .with_supervisor(
                SupervisorConfig::default()
                    .with_heartbeat_every(256)
                    .with_peer_timeout(1_000_000),
            )
            .with_seed(self.seed.wrapping_add(me as u64))
    }

    fn build<C: Carrier>(&self, wrap: impl Fn(UdpTransport) -> C) -> Result<Stack<C>, String> {
        let mut sockets = Vec::new();
        for me in 0..2 {
            let s = UdpTransport::bind(NodeId::new(me), "127.0.0.1:0")
                .map_err(|e| format!("cannot bind a 127.0.0.1 UDP socket: {e}"))?
                .with_pump_limit(128);
            sockets.push(s);
        }
        let addrs: Vec<_> = sockets
            .iter()
            .map(|s| s.local_addr().map_err(|e| format!("no local addr: {e}")))
            .collect::<Result<_, _>>()?;
        let mut daemons = Vec::new();
        for (me, mut socket) in sockets.into_iter().enumerate() {
            let other = 1 - me;
            socket.add_peer(NodeId::new(other), addrs[other]);
            let mut node: NifdyNode<C> = NifdyNode::new(self.config(me));
            let c0 = node.add_carrier(wrap(socket));
            for n in 0..Self::NODES {
                if n / Self::PER_DAEMON == me {
                    node.add_endpoint(NodeId::new(n), self.plan.peers_of(n));
                } else {
                    node.set_route(NodeId::new(n), c0, NodeId::new(other));
                }
            }
            daemons.push(node);
        }
        Ok(Stack {
            daemons,
            host: (0..Self::NODES).map(|n| n / Self::PER_DAEMON).collect(),
            has_carrier: true,
        })
    }

    fn rep_on<C: Carrier, const TRACED: bool>(
        &self,
        clock: Clock,
        wrap: impl Fn(UdpTransport) -> C,
    ) -> Rep {
        let t0 = clock.ns();
        let mut stack = match self.build(wrap) {
            Ok(s) => s,
            Err(why) => {
                return Rep {
                    gate: vec![why],
                    attempted: self.plan.total,
                    failed: self.plan.total,
                    ..Rep::default()
                }
            }
        };
        let setup_ns = clock.ns() - t0;
        let result = run_loop::<_, TRACED>(&mut stack, &self.plan, self.pace, clock);
        let mut rep = finish(&mut stack, &self.plan, setup_ns, result);
        rep.paced = matches!(self.pace, Pace::Fixed { .. });
        rep
    }
}

impl Workload for Udp {
    fn rep(&self, traced: bool, clock: Clock) -> Rep {
        if traced {
            self.rep_on::<_, true>(clock, TimedCarrier::new)
        } else {
            self.rep_on::<_, false>(clock, |socket| socket)
        }
    }

    fn setup_once(&self, clock: Clock) -> u64 {
        let t0 = clock.ns();
        let stack = self.build(|socket| socket);
        let ns = clock.ns() - t0;
        drop(stack);
        ns
    }
}
