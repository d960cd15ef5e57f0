//! The simulation driver: one fabric, one NIC and one processor per node,
//! all stepped cycle-synchronously, with global barrier coordination.

use nifdy::{BufferedNic, DeliveryFailure, Nic, NicOccupancy, NifdyConfig, NifdyUnit, PlainNic};
use nifdy_net::Fabric;
use nifdy_sim::{Cycle, NodeId, StallWatchdog, WakeSet, Wakeup};
use nifdy_trace::{trace_event, EventKind, MetricsRegistry, TraceHandle};

use crate::processor::{NodeWorkload, ProcEvent, ProcWake, Processor};
use crate::SoftwareModel;

/// Cycles charged to every node when a barrier releases: the CM-5's
/// dedicated control network made barriers cheap.
const BARRIER_COST: u64 = 40;

/// Which network interface model to attach to every node — the three
/// configurations the paper compares.
#[derive(Debug, Clone, PartialEq)]
pub enum NicChoice {
    /// "No NIFDY": the minimal interface.
    Plain,
    /// "Buffering only": NIFDY's buffer budget without its protocol. The
    /// budget is taken from the given config's
    /// [`total_buffers`](NifdyConfig::total_buffers) so comparisons stay
    /// fair.
    BuffersOnly(NifdyConfig),
    /// The NIFDY unit.
    Nifdy(NifdyConfig),
}

impl NicChoice {
    /// Builds one NIC per node.
    pub fn build(&self, num_nodes: usize) -> Vec<Box<dyn Nic>> {
        (0..num_nodes)
            .map(|i| -> Box<dyn Nic> {
                let node = NodeId::new(i);
                match self {
                    NicChoice::Plain => Box::new(PlainNic::new(node)),
                    NicChoice::BuffersOnly(cfg) => {
                        Box::new(BufferedNic::new(node, cfg.total_buffers()))
                    }
                    NicChoice::Nifdy(cfg) => Box::new(NifdyUnit::new(node, cfg.clone())),
                }
            })
            .collect()
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            NicChoice::Plain => "none",
            NicChoice::BuffersOnly(_) => "buffers",
            NicChoice::Nifdy(_) => "nifdy",
        }
    }
}

/// Why a [`Driver`] could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The workload list does not line up with the fabric: every node needs
    /// exactly one workload, in node order.
    WorkloadCountMismatch {
        /// Nodes in the fabric.
        nodes: usize,
        /// Workloads supplied.
        workloads: usize,
    },
    /// [`Driver::with_metrics`] was given a zero sampling period.
    ZeroGaugePeriod,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::WorkloadCountMismatch { nodes, workloads } => write!(
                f,
                "need one workload per node: the fabric has {nodes} nodes \
                 but {workloads} workloads were supplied"
            ),
            BuildError::ZeroGaugePeriod => {
                write!(f, "the gauge sampling period must be positive")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A complete simulation: fabric, interfaces, processors, workloads.
///
/// A driver is `Send`: it owns all of its state (including its trace handle
/// and metrics registry), so whole replicas can be fanned out across worker
/// threads.
pub struct Driver {
    fab: Fabric,
    nics: Vec<Box<dyn Nic>>,
    procs: Vec<Processor>,
    wls: Vec<Box<dyn NodeWorkload>>,
    watchdog: Option<StallWatchdog>,
    failures: Vec<DeliveryFailure>,
    trace: TraceHandle,
    metrics: Option<MetricsRegistry>,
    gauge_period: u64,
    cycles_stepped: u64,
    /// Processors to step at the next stepped cycle, and when each of the
    /// others must next be judged: the end of a delay that ends in real
    /// work, or the cycle an idle poller's workload becomes ready
    /// ([`Processor::classify`]).
    proc_due: WakeSet,
    /// Interfaces to step at the next stepped cycle (their `next_event`
    /// said `Now`, their processor stepped, or the fabric holds a packet
    /// for them), and each of the others' `next_event` deadline.
    nic_due: WakeSet,
    /// Lazily idle processors: [`Processor::classify`] called them
    /// `Polling`, so they are not stepped, and the empty polls they owe
    /// from `owed_from[i]` on are replayed in batch when they next matter.
    idle: WakeSet,
    owed_from: Vec<Cycle>,
    /// Processors stepped, released or woken this cycle: classified once
    /// their interfaces have stepped.
    unsettled: WakeSet,
    /// Processors blocked in the barrier.
    in_barrier: usize,
    /// Processors blocked in the barrier or done.
    barrier_or_done: usize,
}

impl Driver {
    /// Assembles a driver. One workload per node, in node order.
    ///
    /// # Errors
    ///
    /// [`BuildError::WorkloadCountMismatch`] if the number of workloads does
    /// not match the fabric's nodes.
    pub fn new(
        fab: Fabric,
        choice: &NicChoice,
        sw: SoftwareModel,
        wls: Vec<Box<dyn NodeWorkload>>,
    ) -> Result<Self, BuildError> {
        let n = fab.num_nodes();
        if wls.len() != n {
            return Err(BuildError::WorkloadCountMismatch {
                nodes: n,
                workloads: wls.len(),
            });
        }
        let nics = choice.build(n);
        let procs = (0..n).map(|i| Processor::new(NodeId::new(i), sw)).collect();
        let mut d = Driver {
            fab,
            nics,
            procs,
            wls,
            watchdog: None,
            failures: Vec::new(),
            trace: TraceHandle::off(),
            metrics: None,
            gauge_period: 1_000,
            cycles_stepped: 0,
            proc_due: WakeSet::with_deadlines(n),
            nic_due: WakeSet::with_deadlines(n),
            idle: WakeSet::new(n),
            owed_from: vec![Cycle::ZERO; n],
            unsettled: WakeSet::new(n),
            in_barrier: 0,
            barrier_or_done: 0,
        };
        // File every processor by what it needs from the first cycle on.
        // The interfaces were just built and hold no work until their
        // processor or the fabric hands them some, which makes them due.
        let now = d.fab.now();
        for i in 0..n {
            d.settle(i, now);
        }
        d.nic_due.union_with(d.fab.ready_nodes());
        Ok(d)
    }

    /// Cycles that were stepped for real, as opposed to jumped as a quiet
    /// window; the gap to elapsed time is the skip-ahead's work saved.
    pub fn cycles_stepped(&self) -> u64 {
        self.cycles_stepped
    }

    /// Arms a per-node stall watchdog: a NIC that stays busy for `limit`
    /// cycles without its counters moving aborts the run with a panic,
    /// turning a would-be hang into a diagnosable failure. Pick a limit
    /// comfortably above the longest legitimate quiet period (with
    /// retransmission configured, several times the maximum RTO).
    pub fn with_stall_watchdog(mut self, limit: u64) -> Self {
        self.watchdog = Some(StallWatchdog::new(limit, self.nics.len()));
        self
    }

    /// Connects a flight recorder to every layer: the fabric (drop and
    /// delivery events) and each interface (protocol events). The driver
    /// keeps a handle too, so a tripped stall watchdog can dump the wedged
    /// node's recent history into its panic message.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.fab.attach_trace(trace.clone());
        for nic in &mut self.nics {
            nic.attach_trace(trace.clone());
        }
        self.trace = trace;
        self
    }

    /// Streams the [`sample_occupancy`] gauges into a registry the driver
    /// owns, every `period` cycles. Read the result with
    /// [`metrics`](Self::metrics).
    ///
    /// # Errors
    ///
    /// [`BuildError::ZeroGaugePeriod`] if `period` is zero.
    pub fn with_metrics(mut self, period: u64) -> Result<Self, BuildError> {
        if period == 0 {
            return Err(BuildError::ZeroGaugePeriod);
        }
        self.metrics = Some(MetricsRegistry::new());
        self.gauge_period = period;
        Ok(self)
    }

    /// The gauge registry filled by [`with_metrics`](Self::with_metrics),
    /// if one was requested.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// The flight-recorder handle attached with [`with_trace`](Self::with_trace)
    /// (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Typed delivery failures surfaced by the interfaces so far (retry
    /// budgets exhausted; see [`DeliveryFailure`]).
    pub fn delivery_failures(&self) -> &[DeliveryFailure] {
        &self.failures
    }

    /// The simulated fabric (topology, time, delivery statistics).
    pub fn fabric(&self) -> &Fabric {
        &self.fab
    }

    /// Per-node processor state and counters.
    pub fn processors(&self) -> &[Processor] {
        &self.procs
    }

    /// Per-node interface counters.
    pub fn nic(&self, node: usize) -> &dyn Nic {
        self.nics[node].as_ref()
    }

    /// Total packets the processors have received.
    pub fn packets_received(&self) -> u64 {
        self.procs.iter().map(|p| p.stats().received.get()).sum()
    }

    /// Total useful payload words received.
    pub fn user_words_received(&self) -> u64 {
        self.procs.iter().map(|p| p.stats().user_words.get()).sum()
    }

    /// Advances the simulation by one cycle (a thin wrapper over
    /// [`advance`](Self::advance)).
    pub fn step(&mut self) {
        let next = self.fab.now() + 1;
        self.advance(next);
    }

    /// Advances simulated time to exactly `until` (no-op when already
    /// there): cycles where anything can happen are stepped, quiet
    /// stretches are jumped.
    pub fn advance(&mut self, until: Cycle) {
        while self.fab.now() < until {
            self.burst(until);
        }
        self.flush_idle_polls();
    }

    /// Emits one sample of every occupancy gauge, timestamped `at`.
    fn emit_gauges(&mut self, at: Cycle) {
        if let Some(reg) = &mut self.metrics {
            sample_occupancy(reg, at, self.nics.iter().map(|n| n.occupancy()), &self.fab);
        }
    }

    /// Whether the barrier releases this cycle: some node waits in it and
    /// every node is blocked in it or done.
    #[inline]
    fn barrier_ready(&self) -> bool {
        self.in_barrier > 0 && self.barrier_or_done == self.procs.len()
    }

    /// Replays the empty polls lazily idle processor `i` owes before
    /// `until`.
    fn replay_polls(&mut self, i: usize, until: Cycle) {
        self.procs[i].batch_idle_polls(self.owed_from[i], until);
        self.owed_from[i] = until;
    }

    /// Ends processor `i`'s lazy idleness, if it was idle, replaying the
    /// polls it owes before `until`.
    fn wake_idle(&mut self, i: usize, until: Cycle) {
        if self.idle.contains(i) {
            self.replay_polls(i, until);
            self.idle.remove(i);
        }
    }

    /// Files processor `i` by what it needs from cycle `at` on: due, a
    /// deadline, or lazily idle (with or without one). Called once its
    /// inputs for `at` are final: its own step and its interface's are done.
    fn settle(&mut self, i: usize, at: Cycle) {
        self.wake_idle(i, at);
        let wake = match self.procs[i].classify(self.nics[i].as_ref(), self.wls[i].as_ref(), at) {
            ProcWake::Step => Wakeup::Now,
            ProcWake::Busy(t) => Wakeup::At(t),
            ProcWake::Polling(bound) => {
                self.idle.insert(i);
                self.owed_from[i] = at;
                bound.map_or(Wakeup::Quiescent, Wakeup::At)
            }
        };
        self.proc_due.schedule(i, wake);
    }

    /// Replays every lazily idle processor's polls up to the current cycle,
    /// so [`processors`](Self::processors) shows no lag. They stay idle.
    fn flush_idle_polls(&mut self) {
        let now = self.fab.now();
        for w in 0..self.idle.word_count() {
            let mut bits = self.idle.word(w);
            while bits != 0 {
                let i = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.replay_polls(i, now);
            }
        }
    }

    /// Steps processor `i`, keeps the barrier counters, and queues its
    /// interface (which the step may have handed a packet or polled) and
    /// its classification for later in the cycle.
    fn step_proc(&mut self, i: usize, now: Cycle) {
        let p = &mut self.procs[i];
        let (was_in, was_parked) = (p.in_barrier(), p.in_barrier() || p.is_done());
        let ev = p.step(self.nics[i].as_mut(), self.wls[i].as_mut(), now);
        debug_assert!(matches!(ev, ProcEvent::None | ProcEvent::EnteredBarrier));
        // A step can enter the barrier or finish, never leave either.
        self.in_barrier += usize::from(p.in_barrier() && !was_in);
        self.barrier_or_done += usize::from((p.in_barrier() || p.is_done()) && !was_parked);
        self.nic_due.insert(i);
        self.unsettled.insert(i);
    }

    /// Releases every processor blocked in the barrier. An idle waiter
    /// first replays its polls up to and including `now`: ungated stepping
    /// polls before it releases.
    fn release_barrier(&mut self, now: Cycle) {
        for i in 0..self.procs.len() {
            if self.procs[i].in_barrier() {
                self.wake_idle(i, now + 1);
                self.proc_due.cancel(i);
                self.procs[i].release_barrier(now, BARRIER_COST);
                self.unsettled.insert(i);
            }
        }
        self.barrier_or_done -= self.in_barrier;
        self.in_barrier = 0;
    }

    /// Steps node `i`'s interface, collects its typed failures, and shows
    /// its progress to the stall watchdog.
    #[inline]
    fn step_nic(&mut self, i: usize, now: Cycle) {
        let nic = self.nics[i].as_mut();
        nic.step(&mut self.fab);
        self.failures.extend(nic.take_failures());
        if let Some(dog) = &mut self.watchdog {
            let fp = nic.stats().progress_fingerprint();
            if let Some(report) = dog.observe(i, now, fp, !nic.is_idle()) {
                let node = NodeId::new(i);
                trace_event!(
                    self.trace,
                    now,
                    node,
                    EventKind::WatchdogFire {
                        unit: report.unit as u32,
                        since: report.since,
                        fingerprint: report.fingerprint,
                    }
                );
                let dump = flight_recorder_dump(&self.trace, node);
                panic!("stall watchdog tripped: {report}{dump}");
            }
        }
    }

    /// Steps every component through one cycle — the single place
    /// components are stepped. Only due processors and due interfaces
    /// step, each set visited in node order; every other step would be a
    /// no-op or an empty poll that is replayed later, so results are bit
    /// for bit those of stepping everyone.
    fn step_cycle(&mut self) {
        self.cycles_stepped += 1;
        let now = self.fab.now();
        if self.metrics.is_some() && now.as_u64().is_multiple_of(self.gauge_period) {
            self.emit_gauges(now);
        }
        // A due stall deadline steps every node: the watchdog only
        // observes stepped interfaces, so the firing cycle must observe
        // everyone, exactly like ungated stepping would.
        if self
            .watchdog
            .as_ref()
            .and_then(StallWatchdog::next_deadline)
            .is_some_and(|t| t <= now)
        {
            self.proc_due.insert_all();
            self.nic_due.insert_all();
        }
        let mut from = 0;
        while let Some(i) = self.proc_due.take_next(from) {
            from = i + 1;
            // Idle or with a deadline only on a watchdog cycle.
            self.wake_idle(i, now);
            self.proc_due.cancel(i);
            self.step_proc(i, now);
        }
        if self.barrier_ready() {
            self.release_barrier(now);
        }
        let mut from = 0;
        while let Some(i) = self.nic_due.take_next(from) {
            from = i + 1;
            self.step_nic(i, now);
            let wake = self.nics[i].next_event(now);
            self.nic_due.schedule(i, wake);
            // A packet made deliverable ends its processor's idle polling.
            if self.idle.contains(i) && self.nics[i].has_deliverable() {
                self.unsettled.insert(i);
            }
        }
        let mut from = 0;
        while let Some(i) = self.unsettled.take_next(from) {
            from = i + 1;
            self.settle(i, now + 1);
        }
        self.fab.step();
        // Packets the fabric just queued for ejection wake their interfaces.
        self.nic_due.union_with(self.fab.ready_nodes());
        #[cfg(debug_assertions)]
        self.audit_due_sets();
    }

    /// One burst of progress toward `until` (which must be in the
    /// future): steps the next cycle for real when anything could do
    /// observable work, otherwise jumps the clock to the earliest wakeup.
    /// Always moves time forward.
    ///
    /// The skip is sound because every component's [`Wakeup`] answer is a
    /// promise that stepping it before the wakeup is a no-op absent new
    /// input — and inside the window there is no new input: the fabric is
    /// empty (else it reports `Now`), no NIC acts, and the only processor
    /// activity is empty polling, which idle processors owe and replay
    /// later.
    fn burst(&mut self, until: Cycle) {
        let now = self.fab.now();
        debug_assert!(now < until);
        // Deadlines that arrived: interfaces become due, and so do
        // processors whose delay ends in real work (`classify` said so when
        // it filed them, and nothing it reads has changed since). An idle
        // processor's deadline is its workload's: it is judged afresh, as
        // a workload ready mid-delay waits for the delay's end.
        self.nic_due.promote_due(now);
        while let Some(i) = self.proc_due.pop_due(now) {
            if self.idle.contains(i) {
                self.settle(i, now);
            } else {
                self.proc_due.insert(i);
            }
        }
        // Stall-detection deadlines are explicit wakeups: a wedged node is
        // caught at the same cycle stepping every cycle would catch it.
        let dog = self
            .watchdog
            .as_ref()
            .and_then(StallWatchdog::next_deadline);
        // An active fabric (worms in flight or packets awaiting ejection)
        // can make progress every cycle; a barrier release is a
        // driver-level event that fires the first cycle every participant
        // is blocked or done.
        if self.fab.next_event().is_due(now)
            || self.barrier_ready()
            || !self.proc_due.is_empty()
            || !self.nic_due.is_empty()
            || dog.is_some_and(|t| t <= now)
        {
            self.step_cycle();
            return;
        }
        // Nothing observable happens in [now, t): emit the gauges the
        // skipped cycles would have sampled (their inputs are frozen across
        // the window) and jump.
        let t = [
            self.proc_due.next_deadline(),
            self.nic_due.next_deadline(),
            dog,
        ]
        .into_iter()
        .flatten()
        .fold(until, Cycle::min);
        debug_assert!(t > now);
        if self.metrics.is_some() {
            let period = self.gauge_period;
            let mut m = now.as_u64().next_multiple_of(period);
            while m < t.as_u64() {
                self.emit_gauges(Cycle::new(m));
                m += period;
            }
        }
        self.fab.advance_to(t);
    }

    /// Debug check of the due sets, run after every stepped cycle of a
    /// debug build with the clock already on the next cycle. A node left
    /// out of a set (not due, no deadline reached) must not have work the
    /// set would miss: its processor does not classify as `Step`, nor wake
    /// before its deadline; its interface's `next_event` is no earlier than
    /// its deadline and the fabric holds no packet for it. An idle
    /// processor's interface has nothing deliverable, so the polls it owes
    /// miss. The barrier counters must match the flags.
    #[cfg(debug_assertions)]
    fn audit_due_sets(&self) {
        let now = self.fab.now();
        let filed = |set: &WakeSet, i: usize| match set.deadline(i) {
            _ if set.contains(i) => Wakeup::Now,
            Some(t) if t <= now => Wakeup::Now,
            Some(t) => Wakeup::At(t),
            None => Wakeup::Quiescent,
        };
        let (mut waiting, mut parked) = (0, 0);
        for (i, p) in self.procs.iter().enumerate() {
            waiting += usize::from(p.in_barrier());
            parked += usize::from(p.in_barrier() || p.is_done());
            let filed_proc = filed(&self.proc_due, i);
            if filed_proc != Wakeup::Now {
                let class = p.classify(self.nics[i].as_ref(), self.wls[i].as_ref(), now);
                let wake = match class {
                    ProcWake::Step => Wakeup::Now,
                    ProcWake::Busy(t) => Wakeup::At(t),
                    ProcWake::Polling(bound) => bound.map_or(Wakeup::Quiescent, Wakeup::At),
                };
                assert_eq!(
                    filed_proc.earliest(wake),
                    filed_proc,
                    "lost processor wake-up at {now}: node {i} is filed {filed_proc:?} \
                     but classifies {class:?}"
                );
            }
            assert!(
                !self.idle.contains(i) || !self.nics[i].has_deliverable(),
                "node {i} owes polls at {now} over a deliverable packet"
            );
            let filed_nic = filed(&self.nic_due, i);
            if filed_nic != Wakeup::Now {
                assert_eq!(
                    self.fab.ready_len(NodeId::new(i)),
                    0,
                    "lost ready wake-up at {now}: node {i} has a packet to eject \
                     but its interface is filed {filed_nic:?}"
                );
                let wake = self.nics[i].next_event(now);
                assert_eq!(
                    filed_nic.earliest(wake),
                    filed_nic,
                    "lost interface wake-up at {now}: node {i} is filed {filed_nic:?} \
                     but says {wake:?}"
                );
            }
        }
        assert_eq!(
            (self.in_barrier, self.barrier_or_done),
            (waiting, parked),
            "barrier counters drifted at {now}"
        );
    }

    /// Whether every workload has finished and the network has drained.
    fn is_quiet(&self) -> bool {
        self.barrier_or_done - self.in_barrier == self.procs.len()
            && self.nics.iter().all(|n| n.is_idle())
            && self.fab.in_network() == 0
    }

    /// Runs for exactly `cycles` cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        let until = self.fab.now() + cycles;
        self.advance(until);
    }

    /// Runs, invoking `sample` every `period` cycles, for `cycles` total.
    pub fn run_sampled<F: FnMut(&Driver)>(&mut self, cycles: u64, period: u64, mut sample: F) {
        assert!(period > 0, "sampling period must be positive");
        let start = self.fab.now();
        let mut c = 0;
        while c < cycles {
            self.advance(start + c);
            sample(self);
            c += period;
        }
        self.advance(start + cycles);
    }

    /// Runs until every workload has finished and the network has drained,
    /// or `limit` cycles elapse. Returns `true` on completion.
    ///
    /// Quiescence is observed between bursts, and a burst only jumps
    /// windows in which the quiet predicate cannot change, so the final
    /// clock is the cycle after the one that made the simulation quiet.
    pub fn run_until_quiet(&mut self, limit: u64) -> bool {
        if self.fab.now().as_u64() < limit && self.is_quiet() {
            // Already quiet on entry: one cycle passes before that is
            // observed, not a jump to `limit`.
            self.step();
            return true;
        }
        let mut quiet = false;
        while !quiet && self.fab.now().as_u64() < limit {
            self.burst(Cycle::new(limit));
            quiet = self.is_quiet();
        }
        self.flush_idle_polls();
        quiet
    }
}

/// Samples the five occupancy gauges at `at`: the buffer pool, OPT,
/// retransmission queue and bulk window, each the maximum across `nics` —
/// the congestion signal the paper's admission-control argument turns on —
/// and the packets in flight in `fab`.
pub fn sample_occupancy(
    reg: &mut MetricsRegistry,
    at: Cycle,
    nics: impl IntoIterator<Item = NicOccupancy>,
    fab: &Fabric,
) {
    let mut occ = NicOccupancy::default();
    for o in nics {
        occ.pool = occ.pool.max(o.pool);
        occ.opt = occ.opt.max(o.opt);
        occ.retx_queue = occ.retx_queue.max(o.retx_queue);
        occ.window_outstanding = occ.window_outstanding.max(o.window_outstanding);
    }
    reg.gauge("occupancy.pool.max", at, f64::from(occ.pool));
    reg.gauge("occupancy.opt.max", at, f64::from(occ.opt));
    reg.gauge("occupancy.retx_queue.max", at, f64::from(occ.retx_queue));
    reg.gauge("occupancy.window.max", at, occ.window_outstanding as f64);
    reg.gauge("fabric.in_flight", at, fab.in_network() as f64);
}

/// Formats the wedged node's recent flight-recorder history (oldest first)
/// for a stall-watchdog panic message. Empty when no recorder is attached.
fn flight_recorder_dump(trace: &TraceHandle, node: NodeId) -> String {
    const DUMP_EVENTS: usize = 32;
    let events = trace.last_events(node, DUMP_EVENTS);
    if events.is_empty() {
        return String::new();
    }
    let mut s = format!("\nflight recorder, node {node} (oldest first):");
    for ev in &events {
        s.push_str("\n  ");
        s.push_str(&ev.to_string());
    }
    s
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Action;
    use nifdy::{Delivered, OutboundPacket};
    use nifdy_net::topology::Mesh;
    use nifdy_net::FabricConfig;
    use nifdy_sim::Cycle;

    /// Everyone sends `count` packets to the next node, with one barrier in
    /// the middle.
    struct RingBurst {
        node: usize,
        n: usize,
        sent: u32,
        count: u32,
        did_barrier: bool,
    }

    impl NodeWorkload for RingBurst {
        fn next_action(&mut self, _now: Cycle) -> Action {
            if self.sent == self.count / 2 && !self.did_barrier {
                self.did_barrier = true;
                return Action::Barrier;
            }
            if self.sent < self.count {
                self.sent += 1;
                let dst = NodeId::new((self.node + 1) % self.n);
                Action::Send(OutboundPacket::new(dst, 8))
            } else {
                Action::Done
            }
        }
        fn on_receive(&mut self, _pkt: &Delivered, _now: Cycle) {}
    }

    fn ring_driver(choice: NicChoice) -> Driver {
        let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let wls: Vec<Box<dyn NodeWorkload>> = (0..16)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(RingBurst {
                    node: i,
                    n: 16,
                    sent: 0,
                    count: 10,
                    did_barrier: false,
                })
            })
            .collect();
        Driver::new(fab, &choice, SoftwareModel::synthetic(), wls).expect("one workload per node")
    }

    #[test]
    fn nifdy_driver_completes_a_ring_exchange() {
        let mut d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh()));
        assert!(d.run_until_quiet(3_000_000), "did not drain");
        assert_eq!(d.packets_received(), 160);
        for p in d.processors() {
            assert_eq!(p.stats().barriers.get(), 1);
        }
    }

    #[test]
    fn all_three_nic_choices_complete() {
        for choice in [
            NicChoice::Plain,
            NicChoice::BuffersOnly(NifdyConfig::mesh()),
            NicChoice::Nifdy(NifdyConfig::mesh()),
        ] {
            let mut d = ring_driver(choice.clone());
            assert!(
                d.run_until_quiet(3_000_000),
                "{} did not drain",
                choice.label()
            );
            assert_eq!(d.packets_received(), 160, "{}", choice.label());
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_run() {
        let mut d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh())).with_stall_watchdog(50_000);
        assert!(d.run_until_quiet(3_000_000), "did not drain");
        assert_eq!(d.packets_received(), 160);
        assert!(d.delivery_failures().is_empty());
    }

    #[test]
    #[should_panic(expected = "stall watchdog tripped")]
    fn watchdog_trips_on_a_genuine_livelock() {
        // Total loss with no retransmission: the sender's OPT entry waits
        // for an ack that can never come. The watchdog converts the hang
        // into a panic.
        let fab = Fabric::new(
            Box::new(Mesh::d2(4, 4)),
            FabricConfig::default().with_drop_prob(1.0),
        );
        let wls: Vec<Box<dyn NodeWorkload>> = (0..16)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(RingBurst {
                    node: i,
                    n: 16,
                    sent: 0,
                    count: 2,
                    did_barrier: true,
                })
            })
            .collect();
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(NifdyConfig::mesh()),
            SoftwareModel::synthetic(),
            wls,
        )
        .expect("workload count matches")
        .with_stall_watchdog(5_000);
        let _ = d.run_until_quiet(1_000_000);
    }

    #[test]
    fn attached_recorder_captures_protocol_events() {
        use nifdy_trace::TraceConfig;

        let trace = TraceHandle::recording(TraceConfig::default());
        let mut d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh()))
            .with_trace(trace.clone())
            .with_metrics(100)
            .expect("nonzero period");
        assert!(d.run_until_quiet(3_000_000), "did not drain");

        let events = trace.snapshot();
        assert!(!events.is_empty(), "recorder saw nothing");
        let names: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind.name()).collect();
        for expected in [
            "scalar_send",
            "opt_insert",
            "opt_clear",
            "ack_send",
            "deliver",
        ] {
            assert!(names.contains(expected), "missing {expected} in {names:?}");
        }
        // Cycle-sampled gauges made it into the driver-owned registry.
        let json = d.metrics().expect("registry attached").to_json();
        let rendered = json.render();
        assert!(rendered.contains("occupancy.opt.max"), "{rendered}");
        assert!(rendered.contains("fabric.in_flight"), "{rendered}");
    }

    #[test]
    fn watchdog_panic_carries_a_flight_recorder_dump() {
        use nifdy_trace::TraceConfig;

        let fab = Fabric::new(
            Box::new(Mesh::d2(4, 4)),
            FabricConfig::default().with_drop_prob(1.0),
        );
        let wls: Vec<Box<dyn NodeWorkload>> = (0..16)
            .map(|i| -> Box<dyn NodeWorkload> {
                Box::new(RingBurst {
                    node: i,
                    n: 16,
                    sent: 0,
                    count: 2,
                    did_barrier: true,
                })
            })
            .collect();
        let mut d = Driver::new(
            fab,
            &NicChoice::Nifdy(NifdyConfig::mesh()),
            SoftwareModel::synthetic(),
            wls,
        )
        .expect("workload count matches")
        .with_stall_watchdog(5_000)
        .with_trace(TraceHandle::recording(TraceConfig::default()));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = d.run_until_quiet(1_000_000);
        }))
        .expect_err("watchdog must trip under total loss");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.starts_with("stall watchdog tripped"), "{msg}");
        assert!(msg.contains("flight recorder"), "{msg}");
        assert!(msg.contains("ScalarSend"), "{msg}");
        assert!(msg.contains("EligStall"), "{msg}");
    }

    #[test]
    fn build_errors_are_typed() {
        let fab = Fabric::new(Box::new(Mesh::d2(4, 4)), FabricConfig::default());
        let err = Driver::new(
            fab,
            &NicChoice::Plain,
            SoftwareModel::synthetic(),
            Vec::new(),
        )
        .map(drop)
        .expect_err("0 workloads for 16 nodes must not build");
        assert_eq!(
            err,
            BuildError::WorkloadCountMismatch {
                nodes: 16,
                workloads: 0
            }
        );
        let err = ring_driver(NicChoice::Plain)
            .with_metrics(0)
            .map(drop)
            .expect_err("period 0 must be rejected");
        assert_eq!(err, BuildError::ZeroGaugePeriod);
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn drivers_move_across_threads() {
        // The whole point of owned trace/metrics state: a replica can run on
        // a worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<Driver>();
        let d = ring_driver(NicChoice::Nifdy(NifdyConfig::mesh()));
        let received = std::thread::spawn(move || {
            let mut d = d;
            assert!(d.run_until_quiet(3_000_000), "did not drain");
            d.packets_received()
        })
        .join()
        .expect("worker panicked");
        assert_eq!(received, 160);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(NicChoice::Plain.label(), "none");
        assert_eq!(
            NicChoice::BuffersOnly(NifdyConfig::mesh()).label(),
            "buffers"
        );
        assert_eq!(NicChoice::Nifdy(NifdyConfig::mesh()).label(), "nifdy");
    }
}
