//! The simulation driver: one fabric, one NIC and one processor per node,
//! all stepped cycle-synchronously, with global barrier coordination.

use nifdy::{BufferedNic, DeliveryFailure, Nic, NifdyConfig, NifdyUnit, PlainNic};
use nifdy_net::Fabric;
use nifdy_sim::{Cycle, NodeId, StallWatchdog, Wakeup};
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
    /// Per-node gate: strictly before this cycle, stepping node `i`'s
    /// processor and NIC is a proven no-op (absent packets waiting for it
    /// in the fabric), so [`step_cycle`](Self::step_cycle) skips them.
    /// Recomputed every time the node actually steps; conservative values
    /// (too early) only cost extra no-op steps.
    node_due: Vec<Cycle>,
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
        Ok(Driver {
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
            node_due: vec![Cycle::ZERO; n],
        })
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

    /// Streams cycle-sampled occupancy gauges (buffer pool, OPT,
    /// retransmission queue, bulk window, fabric in-flight) into a registry
    /// the driver owns, every `period` cycles. Values are the maximum across
    /// nodes — the congestion signal the paper's admission-control argument
    /// turns on. Read the result with [`metrics`](Self::metrics).
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
    }

    /// Emits one sample of every occupancy gauge, timestamped `at`.
    fn emit_gauges(&mut self, at: Cycle) {
        let Some(reg) = &mut self.metrics else {
            return;
        };
        let mut occ = nifdy::NicOccupancy::default();
        for nic in &self.nics {
            let o = nic.occupancy();
            occ.pool = occ.pool.max(o.pool);
            occ.opt = occ.opt.max(o.opt);
            occ.retx_queue = occ.retx_queue.max(o.retx_queue);
            occ.window_outstanding = occ.window_outstanding.max(o.window_outstanding);
        }
        reg.gauge("occupancy.pool.max", at, f64::from(occ.pool));
        reg.gauge("occupancy.opt.max", at, f64::from(occ.opt));
        reg.gauge("occupancy.retx_queue.max", at, f64::from(occ.retx_queue));
        reg.gauge("occupancy.window.max", at, occ.window_outstanding as f64);
        reg.gauge("fabric.in_flight", at, self.fab.in_network() as f64);
    }

    /// Whether node `i` can be skipped this cycle: its processor is inside
    /// a charged delay, its NIC promised no work before a future wakeup,
    /// and the fabric holds no packets for it. The predicate is stable for
    /// the whole cycle (`node_due` and the ejection queues only change on a
    /// node's own step or the fabric step at the end), so the processor and
    /// NIC loops agree on it.
    #[inline]
    fn node_gated(&self, i: usize, now: Cycle) -> bool {
        self.node_due[i] > now && self.fab.ready_len(NodeId::new(i)) == 0
    }

    /// Whether the barrier releases this cycle: some node waits in it and
    /// every node is blocked in it or done.
    fn barrier_ready(&self) -> bool {
        self.procs.iter().any(|p| p.in_barrier())
            && self.procs.iter().all(|p| p.in_barrier() || p.is_done())
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
    /// components are stepped. Nodes provably idle this cycle
    /// ([`node_gated`](Self::node_gated)) are skipped — their step would
    /// be a no-op, so results are bit-for-bit those of stepping everyone.
    fn step_cycle(&mut self) {
        self.cycles_stepped += 1;
        let now = self.fab.now();
        if self.metrics.is_some() && now.as_u64().is_multiple_of(self.gauge_period) {
            self.emit_gauges(now);
        }
        // A due stall deadline disables gating for the cycle: the watchdog
        // only accrues observations on stepped nodes, so the firing cycle
        // must step (and thus observe) everyone, exactly like ungated
        // stepping would.
        let dog_due = self
            .watchdog
            .as_ref()
            .and_then(StallWatchdog::next_deadline)
            .is_some_and(|t| t <= now);
        for i in 0..self.procs.len() {
            if !dog_due && self.node_gated(i, now) {
                continue;
            }
            let ev = self.procs[i].step(self.nics[i].as_mut(), self.wls[i].as_mut(), now);
            debug_assert!(matches!(ev, ProcEvent::None | ProcEvent::EnteredBarrier));
        }
        if self.barrier_ready() {
            for (i, p) in self.procs.iter_mut().enumerate() {
                if p.in_barrier() {
                    p.release_barrier(now, BARRIER_COST);
                    // The release rewrote the processor's delay out from
                    // under the gate; re-arm it conservatively.
                    self.node_due[i] = now;
                }
            }
        }
        for i in 0..self.nics.len() {
            if !dog_due && self.node_gated(i, now) {
                continue;
            }
            self.step_nic(i, now);
            // Both layers just ran; their own wakeups say when the node can
            // next matter. `Now` and past deadlines mean "again next cycle".
            let nic_due = match self.nics[i].next_event(now) {
                Wakeup::Now => now + 1,
                Wakeup::At(t) => t.max(now + 1),
                Wakeup::Quiescent => Cycle::MAX,
            };
            self.node_due[i] = self.procs[i].next_due().min(nic_due);
        }
        self.fab.step();
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
    /// activity is empty polling, which is replayed in batch.
    fn burst(&mut self, until: Cycle) {
        let now = self.fab.now();
        debug_assert!(now < until);
        // An active fabric (worms in flight or packets awaiting ejection)
        // can make progress every cycle; a barrier release is a
        // driver-level event that fires the first cycle every participant
        // is blocked or done.
        if self.fab.next_event().is_due(now) || self.barrier_ready() {
            self.step_cycle();
            return;
        }
        let mut wake = Wakeup::Quiescent;
        for nic in &self.nics {
            wake = wake.earliest(nic.next_event(now));
        }
        let mut any_polling = false;
        for (i, p) in self.procs.iter().enumerate() {
            match p.classify(self.nics[i].as_ref(), self.wls[i].as_ref(), now) {
                ProcWake::Step => {
                    self.step_cycle();
                    return;
                }
                ProcWake::Busy(t) => wake = wake.earliest(Wakeup::At(t)),
                ProcWake::Polling(deadline) => {
                    any_polling = true;
                    if let Some(t) = deadline {
                        wake = wake.earliest(Wakeup::At(t));
                    }
                }
            }
        }
        // Stall-detection deadlines are explicit wakeups: a wedged node is
        // caught at the same cycle stepping every cycle would catch it.
        if let Some(dog) = &self.watchdog {
            if let Some(t) = dog.next_deadline() {
                wake = wake.earliest(Wakeup::at_or_now(t, now));
            }
        }
        if wake.is_due(now) {
            self.step_cycle();
            return;
        }
        // Nothing observable happens in [now, t): replay the empty polls,
        // emit the gauges the skipped cycles would have sampled (their
        // inputs are frozen across the window), and jump.
        let t = wake.deadline_or(now, until);
        debug_assert!(t > now);
        if any_polling {
            for p in &mut self.procs {
                p.batch_idle_polls(now, t);
            }
        }
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

    /// Whether every workload has finished and the network has drained.
    fn is_quiet(&self) -> bool {
        self.procs.iter().all(|p| p.is_done())
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
        while self.fab.now().as_u64() < limit {
            self.burst(Cycle::new(limit));
            if self.is_quiet() {
                return true;
            }
        }
        false
    }
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
