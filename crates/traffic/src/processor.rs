//! The polling processor model.
//!
//! The paper's simulator allows "only polling message reception ... thus the
//! computation always initiates interaction with the network". Each
//! processor runs a [`NodeWorkload`] script: it asks the workload what to do
//! next (send / compute / barrier / idle), pays the per-packet software
//! overheads of its [`SoftwareModel`](crate::SoftwareModel), and receives by
//! polling — preferring a pending arrival over issuing the next send, which
//! is how an Active-Message layer behaves and what produces the paper's
//! radix-sort "continually receive with no chance to send" pathology.

use nifdy::{Delivered, Nic, OutboundPacket};
use nifdy_sim::metrics::Counter;
use nifdy_sim::{Cycle, NodeId, Wakeup};

use crate::overheads::SoftwareModel;

/// What a workload wants its processor to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Hand a packet to the NIC (retries automatically until accepted).
    Send(OutboundPacket),
    /// Compute (or deliberately ignore the network) for the given cycles.
    Compute(u64),
    /// Enter the global barrier; the processor stalls until every
    /// participating node arrives.
    Barrier,
    /// Nothing to send; poll the network.
    Idle,
    /// This node's script is complete (it keeps polling so the network can
    /// drain).
    ///
    /// Contract: once a workload returns `Done`, every later
    /// [`next_action`](NodeWorkload::next_action) call must return `Done`
    /// again without observable side effects — the driver batches the
    /// post-completion polling without re-consulting the workload.
    Done,
}

/// Per-node workload logic, driven by its processor.
///
/// `Send` is a supertrait so a boxed workload (and therefore a whole
/// [`Driver`](crate::Driver)) can move into a worker thread when experiment
/// cells run in parallel.
pub trait NodeWorkload: Send {
    /// The next thing this node wants to do. Called whenever the processor
    /// is free and not retrying a send.
    fn next_action(&mut self, now: Cycle) -> Action;

    /// Called for every packet the processor receives.
    fn on_receive(&mut self, pkt: &Delivered, now: Cycle);

    /// When this workload next wants a [`next_action`] call, under the
    /// [`Wakeup`] contract.
    ///
    /// Overriding with `At(t)` / `Quiescent` promises that every
    /// `next_action` call strictly before the wakeup returns
    /// [`Action::Idle`] *and has no side effects* (no RNG draws, no state
    /// changes) — the driver replaces those calls with batched empty
    /// polls. `Quiescent` additionally promises the workload only becomes
    /// ready again through [`on_receive`]. Workloads whose
    /// `next_action` mutates internal state on idle paths (e.g. drawing
    /// randomness) must keep the default `Now`.
    ///
    /// [`next_action`]: NodeWorkload::next_action
    /// [`on_receive`]: NodeWorkload::on_receive
    fn next_event(&self, now: Cycle) -> Wakeup {
        let _ = now;
        Wakeup::Now
    }
}

/// Events a processor reports to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcEvent {
    /// Nothing notable.
    None,
    /// The node entered the barrier and is now blocked.
    EnteredBarrier,
}

/// How the driver should treat a processor for the coming cycles
/// (computed by [`Processor::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcWake {
    /// Stepping this cycle may do observable work beyond an empty poll —
    /// the driver must step the cycle.
    Step,
    /// Computing until the given cycle; does nothing before it.
    Busy(Cycle),
    /// Idle-polling the network at `t_poll` cadence. `Some(t)` bounds the
    /// batch: the workload becomes ready at `t`. `None` means the polls
    /// continue until external input (barrier release or an arrival).
    Polling(Option<Cycle>),
}

/// Processor activity counters.
#[derive(Debug, Clone, Default)]
pub struct ProcStats {
    /// Packets successfully handed to the NIC.
    pub sent: Counter,
    /// Packets received (successful polls).
    pub received: Counter,
    /// Unsuccessful polls.
    pub empty_polls: Counter,
    /// Useful payload words received.
    pub user_words: Counter,
    /// Completed barrier crossings.
    pub barriers: Counter,
}

/// A single polling processor bound to one node.
#[derive(Debug)]
pub struct Processor {
    node: NodeId,
    sw: SoftwareModel,
    busy_until: Cycle,
    pending_send: Option<OutboundPacket>,
    in_barrier: bool,
    done: bool,
    stats: ProcStats,
}

impl Processor {
    /// Creates a processor for `node` with software costs `sw`.
    pub fn new(node: NodeId, sw: SoftwareModel) -> Self {
        Processor {
            node,
            sw,
            busy_until: Cycle::ZERO,
            pending_send: None,
            in_barrier: false,
            done: false,
            stats: ProcStats::default(),
        }
    }

    /// The node this processor runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the node's script has finished.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the node is blocked in the barrier.
    pub fn in_barrier(&self) -> bool {
        self.in_barrier
    }

    /// Activity counters.
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Releases the processor from the barrier, charging `cost` cycles.
    pub(crate) fn release_barrier(&mut self, now: Cycle, cost: u64) {
        debug_assert!(self.in_barrier);
        self.in_barrier = false;
        self.busy_until = now + cost;
        self.stats.barriers.incr();
    }

    /// Polls the NIC once, paying the appropriate overhead.
    fn poll(&mut self, nic: &mut dyn Nic, wl: &mut dyn NodeWorkload, now: Cycle) {
        if let Some(d) = nic.poll(now) {
            self.busy_until = now + self.sw.t_receive;
            self.stats.received.incr();
            self.stats.user_words.add(u64::from(d.user.user_words));
            wl.on_receive(&d, now);
        } else {
            self.busy_until = now + self.sw.t_poll;
            self.stats.empty_polls.incr();
        }
    }

    /// Classifies what this processor needs from the driver at `now`.
    /// Conservative: anything that could do observable work is
    /// [`ProcWake::Step`].
    ///
    /// A processor inside a charged delay is judged by its step at
    /// `busy_until`: if that step would be an empty poll (nothing
    /// deliverable, no pending send, and the workload done, in the barrier,
    /// or not due by then), it is already [`ProcWake::Polling`] —
    /// [`batch_idle_polls`](Self::batch_idle_polls) replays the polls from
    /// `busy_until` on. Otherwise it is [`ProcWake::Busy`] until then.
    pub(crate) fn classify(&self, nic: &dyn Nic, wl: &dyn NodeWorkload, now: Cycle) -> ProcWake {
        let at = self.busy_until.max(now);
        let wake = if self.in_barrier {
            // Waiting nodes poll so the network drains; a deliverable
            // arrival makes the poll a real receive.
            if nic.has_deliverable() {
                ProcWake::Step
            } else {
                ProcWake::Polling(None)
            }
        } else if nic.has_deliverable() || self.pending_send.is_some() {
            ProcWake::Step
        } else if self.done {
            // Finished scripts keep polling; `Action::Done`'s contract
            // makes skipping the `next_action` calls safe.
            ProcWake::Polling(None)
        } else {
            match wl.next_event(now) {
                Wakeup::Now => ProcWake::Step,
                Wakeup::At(t) if t <= at => ProcWake::Step,
                Wakeup::At(t) => ProcWake::Polling(Some(t)),
                Wakeup::Quiescent => ProcWake::Polling(None),
            }
        };
        match wake {
            ProcWake::Step if self.busy_until > now => ProcWake::Busy(self.busy_until),
            wake => wake,
        }
    }

    /// Replays the empty polls this processor would have issued over
    /// `[now, until)` in one batch, without touching the NIC or workload.
    ///
    /// Only valid where every poll in the span misses: inside a skip
    /// window, where nothing is deliverable and nothing can arrive, or
    /// while the driver holds the processor *lazily idle* — classified
    /// [`ProcWake::Polling`], not stepped, and woken before its interface
    /// has anything deliverable. Each poll slot (spaced `t_poll` from the
    /// previous `busy_until`) misses, charges `t_poll`, and bumps
    /// `empty_polls` — exactly what per-cycle stepping would have done.
    /// Replays are additive: `[a, b)` then `[b, c)` is `[a, c)`, so the
    /// driver may replay a long idle stretch piecewise.
    pub(crate) fn batch_idle_polls(&mut self, now: Cycle, until: Cycle) {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        if start >= until {
            return;
        }
        let span = until.saturating_since(start);
        let t_poll = self.sw.t_poll;
        // t_poll == 0 degenerates to one poll per cycle, as cycle stepping
        // would produce: the last one, at `until - 1`, leaves `busy_until`
        // there.
        let spacing = t_poll.max(1);
        let k = span.div_ceil(spacing);
        self.stats.empty_polls.add(k);
        self.busy_until = start + (k - 1) * spacing + t_poll;
    }

    /// One scheduling slot. Call once per cycle, before the NIC steps.
    pub fn step(&mut self, nic: &mut dyn Nic, wl: &mut dyn NodeWorkload, now: Cycle) -> ProcEvent {
        if self.busy_until > now {
            return ProcEvent::None;
        }
        // Barriers are split-phase: a waiting node keeps polling so the
        // network can drain (as real bulk-synchronous layers do).
        if self.in_barrier {
            self.poll(nic, wl, now);
            return ProcEvent::None;
        }

        // An Active-Message layer services arrivals before issuing new work.
        if nic.has_deliverable() {
            self.poll(nic, wl, now);
            return ProcEvent::None;
        }

        // Retry a blocked send before asking for new work; poll while
        // waiting so a backlogged receiver still drains.
        if let Some(pkt) = self.pending_send.take() {
            if nic.try_send(pkt, now) {
                self.busy_until = now + self.sw.t_send;
                self.stats.sent.incr();
            } else {
                self.pending_send = Some(pkt);
                self.busy_until = now + self.sw.t_poll;
                self.stats.empty_polls.incr();
            }
            return ProcEvent::None;
        }

        match wl.next_action(now) {
            Action::Send(pkt) => {
                if nic.try_send(pkt, now) {
                    self.busy_until = now + self.sw.t_send;
                    self.stats.sent.incr();
                } else {
                    self.pending_send = Some(pkt);
                    self.busy_until = now + self.sw.t_poll;
                }
                ProcEvent::None
            }
            Action::Compute(c) => {
                self.busy_until = now + c.max(1);
                ProcEvent::None
            }
            Action::Barrier => {
                self.in_barrier = true;
                ProcEvent::EnteredBarrier
            }
            Action::Idle => {
                self.poll(nic, wl, now);
                ProcEvent::None
            }
            Action::Done => {
                self.done = true;
                self.poll(nic, wl, now);
                ProcEvent::None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy::{NifdyConfig, NifdyUnit, PlainNic};
    use nifdy_net::topology::Mesh;
    use nifdy_net::{Fabric, FabricConfig};
    use proptest::prelude::*;

    /// Sends `n` packets to a fixed destination, then idles.
    struct Burst {
        dst: NodeId,
        left: u32,
        received: u32,
    }

    impl NodeWorkload for Burst {
        fn next_action(&mut self, _now: Cycle) -> Action {
            if self.left > 0 {
                self.left -= 1;
                Action::Send(OutboundPacket::new(self.dst, 8))
            } else {
                Action::Done
            }
        }
        fn on_receive(&mut self, _pkt: &Delivered, _now: Cycle) {
            self.received += 1;
        }
    }

    #[test]
    fn processor_pays_send_overhead() {
        let mut fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
        let sw = SoftwareModel::synthetic();
        let mut sender = Processor::new(NodeId::new(0), sw);
        let mut receiver = Processor::new(NodeId::new(3), sw);
        let mut nic_s = NifdyUnit::new(NodeId::new(0), NifdyConfig::mesh());
        let mut nic_r = NifdyUnit::new(NodeId::new(3), NifdyConfig::mesh());
        let mut wl_s = Burst {
            dst: NodeId::new(3),
            left: 5,
            received: 0,
        };
        let mut wl_r = Burst {
            dst: NodeId::new(0),
            left: 0,
            received: 0,
        };
        for _ in 0..100_000 {
            let now = fab.now();
            sender.step(&mut nic_s, &mut wl_s, now);
            receiver.step(&mut nic_r, &mut wl_r, now);
            nic_s.step(&mut fab);
            nic_r.step(&mut fab);
            fab.step();
            if wl_r.received == 5 {
                break;
            }
        }
        assert_eq!(wl_r.received, 5);
        assert_eq!(sender.stats().sent.get(), 5);
        assert_eq!(receiver.stats().received.get(), 5);
        // Sends are spaced at least t_send apart: 5 sends cannot finish in
        // fewer than 5 * 40 cycles.
        assert!(fab.now().as_u64() >= 200);
    }

    #[test]
    fn barrier_blocks_until_release() {
        let sw = SoftwareModel::synthetic();
        let mut p = Processor::new(NodeId::new(0), sw);
        struct B;
        impl NodeWorkload for B {
            fn next_action(&mut self, _now: Cycle) -> Action {
                Action::Barrier
            }
            fn on_receive(&mut self, _p: &Delivered, _n: Cycle) {}
        }
        let mut fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
        let mut nic = NifdyUnit::new(NodeId::new(0), NifdyConfig::mesh());
        let ev = p.step(&mut nic, &mut B, fab.now());
        assert_eq!(ev, ProcEvent::EnteredBarrier);
        assert!(p.in_barrier());
        // While in the barrier, the processor does nothing.
        assert_eq!(p.step(&mut nic, &mut B, fab.now()), ProcEvent::None);
        p.release_barrier(Cycle::new(10), 40);
        assert!(!p.in_barrier());
        assert_eq!(p.stats().barriers.get(), 1);
        let _ = &mut fab;
    }

    /// Plays `first` once, then idles until cycle `due` and sends to node 3
    /// from then on; `next_event` says exactly that.
    struct Due {
        first: Option<Action>,
        due: u64,
    }

    impl Due {
        fn at(due: u64) -> Self {
            Due { first: None, due }
        }
    }

    impl NodeWorkload for Due {
        fn next_action(&mut self, now: Cycle) -> Action {
            if let Some(a) = self.first.take() {
                a
            } else if now.as_u64() < self.due {
                Action::Idle
            } else {
                Action::Send(OutboundPacket::new(NodeId::new(3), 8))
            }
        }
        fn on_receive(&mut self, _pkt: &Delivered, _now: Cycle) {}
        fn next_event(&self, now: Cycle) -> Wakeup {
            if self.first.is_none() && now.as_u64() < self.due {
                Wakeup::At(Cycle::new(self.due))
            } else {
                Wakeup::Now
            }
        }
    }

    /// A processor that has just issued one empty poll at cycle 0, so it
    /// sits in a `t_poll` delay until cycle 22.
    fn polled_once(wl: &mut Due) -> (Processor, PlainNic) {
        let mut p = Processor::new(NodeId::new(0), SoftwareModel::synthetic());
        let mut nic = PlainNic::new(NodeId::new(0));
        p.step(&mut nic, wl, Cycle::ZERO);
        assert_eq!(p.stats().empty_polls.get(), 1);
        assert_eq!(p.busy_until, Cycle::new(22));
        (p, nic)
    }

    #[test]
    fn a_poll_delay_ending_in_an_empty_poll_classifies_as_polling() {
        let mut wl = Due::at(100);
        let (p, nic) = polled_once(&mut wl);
        for now in [1, 21] {
            assert_eq!(
                p.classify(&nic, &wl, Cycle::new(now)),
                ProcWake::Polling(Some(Cycle::new(100))),
                "at cycle {now}"
            );
        }
    }

    #[test]
    fn a_workload_due_by_the_end_of_the_delay_keeps_it_busy() {
        for due in [10, 22] {
            let mut wl = Due::at(due);
            let (p, nic) = polled_once(&mut wl);
            assert_eq!(
                p.classify(&nic, &wl, Cycle::new(5)),
                ProcWake::Busy(Cycle::new(22)),
                "due at {due}"
            );
        }
    }

    #[test]
    fn a_pending_send_or_a_deliverable_packet_keeps_a_delay_busy() {
        let idle = Due::at(1_000_000);
        // A plain interface queues one outgoing packet: the second send,
        // at cycle 40 after the first send's overhead, is refused and
        // retried after a poll delay.
        let mut sender = Processor::new(NodeId::new(0), SoftwareModel::synthetic());
        let mut nic_s = PlainNic::new(NodeId::new(0));
        let mut wl = Due::at(0);
        sender.step(&mut nic_s, &mut wl, Cycle::ZERO);
        sender.step(&mut nic_s, &mut wl, Cycle::new(40));
        assert_eq!(sender.stats().sent.get(), 1);
        assert_eq!(sender.busy_until, Cycle::new(62));
        assert_eq!(
            sender.classify(&nic_s, &idle, Cycle::new(41)),
            ProcWake::Busy(Cycle::new(62))
        );

        // A receiver computing until cycle 10 000 polls nothing before then,
        // until a packet becomes deliverable.
        let mut fab = Fabric::new(Box::new(Mesh::d2(2, 2)), FabricConfig::default());
        let mut receiver = Processor::new(NodeId::new(3), SoftwareModel::synthetic());
        let mut nic_r = PlainNic::new(NodeId::new(3));
        let mut wl = Due {
            first: Some(Action::Compute(10_000)),
            due: 1_000_000,
        };
        receiver.step(&mut nic_r, &mut wl, Cycle::ZERO);
        let polling = ProcWake::Polling(Some(Cycle::new(1_000_000)));
        assert_eq!(receiver.classify(&nic_r, &idle, Cycle::new(1)), polling);
        while !nic_r.has_deliverable() {
            assert!(fab.now().as_u64() < 5_000, "packet lost");
            nic_s.step(&mut fab);
            nic_r.step(&mut fab);
            fab.step();
        }
        assert_eq!(
            receiver.classify(&nic_r, &idle, fab.now()),
            ProcWake::Busy(Cycle::new(10_000))
        );
    }

    /// An idle processor with `t_poll` and `busy_until` as given.
    fn idle_at(t_poll: u64, busy_until: u64) -> Processor {
        let sw = SoftwareModel {
            t_poll,
            ..SoftwareModel::synthetic()
        };
        let mut p = Processor::new(NodeId::new(0), sw);
        p.busy_until = Cycle::new(busy_until);
        p
    }

    proptest! {
        /// Replaying `[a, b)` then `[b, c)` is replaying `[a, c)`, and both
        /// are stepping the idle processor once per cycle: the lazy replay
        /// and the flush at every `advance` boundary split idle stretches
        /// anywhere.
        #[test]
        fn idle_poll_replay_is_additive(
            t_poll in prop_oneof![Just(0u64), Just(1u64), Just(22u64), Just(40u64)],
            busy in 0u64..120,
            a in 0u64..120,
            ab in 0u64..200,
            bc in 0u64..200,
        ) {
            let (b, c) = (a + ab, a + ab + bc);
            let mut split = idle_at(t_poll, busy);
            split.batch_idle_polls(Cycle::new(a), Cycle::new(b));
            split.batch_idle_polls(Cycle::new(b), Cycle::new(c));
            let mut whole = idle_at(t_poll, busy);
            whole.batch_idle_polls(Cycle::new(a), Cycle::new(c));
            let mut stepped = idle_at(t_poll, busy);
            let (mut nic, mut wl) = (PlainNic::new(NodeId::new(0)), Due::at(u64::MAX));
            for now in a..c {
                stepped.step(&mut nic, &mut wl, Cycle::new(now));
            }
            for p in [&split, &whole] {
                prop_assert_eq!(p.stats().empty_polls.get(), stepped.stats().empty_polls.get());
                prop_assert_eq!(p.busy_until, stepped.busy_until);
            }
        }
    }

    #[test]
    fn a_poll_delay_inside_the_barrier_classifies_as_polling() {
        // Due at cycle 1, which would keep the delay busy outside the
        // barrier: a node in the barrier only polls.
        let mut wl = Due {
            first: Some(Action::Barrier),
            due: 1,
        };
        let mut p = Processor::new(NodeId::new(0), SoftwareModel::synthetic());
        let mut nic = PlainNic::new(NodeId::new(0));
        assert_eq!(
            p.step(&mut nic, &mut wl, Cycle::ZERO),
            ProcEvent::EnteredBarrier
        );
        p.step(&mut nic, &mut wl, Cycle::ZERO);
        assert_eq!(p.busy_until, Cycle::new(22));
        assert_eq!(
            p.classify(&nic, &wl, Cycle::new(1)),
            ProcWake::Polling(None)
        );
    }
}
