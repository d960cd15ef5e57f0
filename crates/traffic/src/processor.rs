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
    pub(crate) fn classify(&self, nic: &dyn Nic, wl: &dyn NodeWorkload, now: Cycle) -> ProcWake {
        if self.busy_until > now {
            return ProcWake::Busy(self.busy_until);
        }
        if self.in_barrier {
            // Waiting nodes poll so the network drains; a deliverable
            // arrival makes the poll a real receive.
            return if nic.has_deliverable() {
                ProcWake::Step
            } else {
                ProcWake::Polling(None)
            };
        }
        if nic.has_deliverable() || self.pending_send.is_some() {
            return ProcWake::Step;
        }
        if self.done {
            // Finished scripts keep polling; `Action::Done`'s contract
            // makes skipping the `next_action` calls safe.
            return ProcWake::Polling(None);
        }
        match wl.next_event(now) {
            Wakeup::Now => ProcWake::Step,
            Wakeup::At(t) if t <= now => ProcWake::Step,
            Wakeup::At(t) => ProcWake::Polling(Some(t)),
            Wakeup::Quiescent => ProcWake::Polling(None),
        }
    }

    /// The cycle this processor next leaves its busy/delay state: its
    /// [`step`](Self::step) is a guaranteed no-op strictly before then
    /// (the very first check returns), which is what lets the driver gate
    /// per-node stepping.
    pub(crate) fn next_due(&self) -> Cycle {
        self.busy_until
    }

    /// Replays the empty polls this processor would have issued over
    /// `[now, until)` in one batch, without touching the NIC or workload.
    ///
    /// Only valid inside a skip window, where nothing is deliverable and
    /// nothing can arrive: each poll slot (spaced `t_poll` from the
    /// previous `busy_until`) misses, charges `t_poll`, and bumps
    /// `empty_polls` — exactly what per-cycle stepping would have done.
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
        // would produce.
        let k = if t_poll == 0 {
            span
        } else {
            span.div_ceil(t_poll)
        };
        self.stats.empty_polls.add(k);
        self.busy_until = start + k * t_poll;
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
    use nifdy::{NifdyConfig, NifdyUnit};
    use nifdy_net::topology::Mesh;
    use nifdy_net::{Fabric, FabricConfig};

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
}
