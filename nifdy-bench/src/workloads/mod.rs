//! The seven workloads and what one repetition of any of them reports.
//!
//! A repetition is fixed work: build the system under test (timed as
//! set-up), run the plan, time the [`Window`] in its middle slice by slice,
//! check the delivery log. Packet counts are frozen in the workloads'
//! constructors and never scaled to the machine; `--seconds` only decides
//! how many repetitions a run makes.

mod chaos;
mod sim;
mod stack;

use std::collections::BTreeMap;

use crate::kernel::{proc_reading, Clock};
use crate::spans::Recorder;

/// Name and one-line reason of each workload, in the order `--all` runs
/// them. `BENCHMARK.json` carries the same list.
pub const TABLE: [(&str, &str); 7] = [
    (
        "sim-saturated",
        "64-node fat tree past the saturation knee: NifdyUnit::step and Fabric::step do nearly all the work, so it isolates per-step cost of core and net",
    ),
    (
        "sim-sparse",
        "same fabric at one packet per 2000 cycles: per-cycle work is almost all traffic gating and empty polls, so engine/Wakeup work shows here and unit/fabric work barely does",
    ),
    (
        "daemon-dense",
        "1024 hosted endpoints all streaming bulk through one carrier-less daemon: per-frame cost (codec, Vec<u8> moves, slot_of lookups, unit step) dominates",
    ),
    (
        "daemon-sparse",
        "1024 hosted endpoints, 16 active: poll_round sweeps 1008 idle slots every round, the activity-proportional target; per-frame savings barely move it",
    ),
    (
        "udp-saturated",
        "two daemons over real 127.0.0.1 UDP sockets, closed loop: send_to/recv_from syscalls dominate, so batching and sendmmsg show here and nowhere else",
    ),
    (
        "udp-paced",
        "same sockets, scalar packets at a fixed 60000/s open loop, latency from each due time: batching that buys throughput by holding frames shows up here as latency",
    ),
    (
        "wire-chaos",
        "16 endpoint pairs over a lossy, corrupting, duplicating loopback hub: the retransmit/dup-bit/CRC-reject recovery path every clean workload skips",
    ),
];

/// Resource use of the process between two points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub involuntary_switches: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// A point to measure [`Usage`] from. Taking one reads `/proc`, so the
/// loops take it just outside the timed window (before the opening clock
/// read, after the closing one).
#[derive(Debug, Clone, Copy)]
pub struct UsageMark {
    cpu_ns: u64,
    involuntary_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl UsageMark {
    pub fn take() -> Self {
        let p = proc_reading();
        let (allocs, alloc_bytes) = crate::alloc_counts();
        UsageMark {
            cpu_ns: p.cpu_ns,
            involuntary_switches: p.involuntary_switches,
            allocs,
            alloc_bytes,
        }
    }

    pub fn until(&self, end: &UsageMark, wall_ns: u64) -> Usage {
        Usage {
            wall_ns,
            cpu_ns: end.cpu_ns - self.cpu_ns,
            involuntary_switches: end.involuntary_switches - self.involuntary_switches,
            allocs: end.allocs - self.allocs,
            alloc_bytes: end.alloc_bytes - self.alloc_bytes,
        }
    }
}

/// One slice of a timed window: equal shares of the window's deliveries,
/// each timed on its own, so a repetition yields many rate samples instead
/// of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    pub delivered: u64,
    pub cycles: u64,
    pub ns: u64,
    /// One past this slice's last sample in the repetition's latency log.
    pub latency_end: usize,
}

/// The timed window of a repetition, defined by work: it opens once a
/// tenth of the plan has been delivered (warm-up: caches, dialogs, RTT
/// estimates) and closes at nine tenths (so the ramp-down, where sources
/// finish one by one and the slowest flow sets the time, stays outside).
/// The rest of the plan still runs, untimed, and is checked like the rest.
#[derive(Debug)]
pub struct Window {
    open_at: u64,
    close_at: u64,
    step: u64,
    next: u64,
    last: (u64, u64, u64),
    open: bool,
    pub slices: Vec<Slice>,
}

impl Window {
    pub const SLICES: u64 = 100;

    /// The middle eight tenths of a plan of `planned` packets.
    pub fn new(planned: u64) -> Self {
        Self::between(planned / 10, planned - planned / 10)
    }

    /// A window from the `open_at`-th to the `close_at`-th delivery.
    pub fn between(open_at: u64, close_at: u64) -> Self {
        let step = ((close_at - open_at) / Self::SLICES).max(1);
        Window {
            open_at,
            close_at,
            step,
            next: open_at + step,
            last: (0, 0, 0),
            open: false,
            slices: Vec::with_capacity(Self::SLICES as usize + 1),
        }
    }

    /// Whether `delivered` has reached the opening mark and the window was
    /// never opened.
    #[inline]
    pub fn should_open(&self, delivered: u64) -> bool {
        !self.open && self.slices.is_empty() && delivered >= self.open_at
    }

    pub fn open(&mut self, delivered: u64, cycles: u64, now_ns: u64) {
        self.open = true;
        self.last = (delivered, cycles, now_ns);
        self.next = delivered + self.step;
    }

    /// Whether the open window has a slice boundary to record at
    /// `delivered`.
    #[inline]
    pub fn due(&self, delivered: u64) -> bool {
        self.open && delivered >= self.next
    }

    /// Records the slice ending now; returns true when that closed the
    /// window.
    pub fn slice(&mut self, delivered: u64, cycles: u64, now_ns: u64, latency_end: usize) -> bool {
        let (d0, c0, t0) = self.last;
        self.slices.push(Slice {
            delivered: delivered - d0,
            cycles: cycles - c0,
            ns: now_ns - t0,
            latency_end,
        });
        self.last = (delivered, cycles, now_ns);
        self.next = (delivered + self.step).min(self.close_at.max(delivered + 1));
        if delivered >= self.close_at {
            self.open = false;
        }
        !self.open
    }

    /// Closes a window the run could not finish (deadline, cycle limit).
    pub fn abandon(&mut self, delivered: u64, cycles: u64, now_ns: u64, latency_end: usize) {
        if self.open && delivered > self.last.0 {
            self.slice(delivered, cycles, now_ns, latency_end);
        }
        self.open = false;
    }

    pub fn is_open(&self) -> bool {
        self.open
    }
}

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_ns: u64,
    /// Packets the system under test accepted (the whole plan, except on
    /// `wire-chaos`, which stops offering when its window closes).
    pub attempted: u64,
    /// Resource use over the timed window.
    pub usage: Usage,
    /// The timed window, slice by slice: packets delivered exactly once in
    /// order, logical clock cycles (simulated cycles, daemon poll rounds,
    /// hub ticks) and wall time of each.
    pub slices: Vec<Slice>,
    /// Offer-to-delivery samples observed inside the window, in order of
    /// observation (each slice records where its samples end).
    pub latency_ns: Vec<u32>,
    /// Accepted packets not delivered exactly once in order by the
    /// deadline, plus mismatched deliveries, plus typed failures.
    pub failed: u64,
    /// Correctness-gate violations; empty when the repetition passed.
    pub gate: Vec<String>,
    /// Counts that must repeat exactly across repetitions (and across
    /// commits, for a change that claims to alter no behaviour).
    pub exact: Vec<(&'static str, f64)>,
    /// The generator, not the system under test, set the delivery rate
    /// (`udp-paced`).
    pub paced: bool,
    /// Per-layer values this repetition can compute on its own.
    pub layer: Layer,
    /// The span recorder, on a traced repetition.
    pub recorder: Option<Recorder>,
    /// The first frames a timing carrier saw (traced `udp-*` repetitions):
    /// the input of the codec kernel cells.
    pub captured_frames: Vec<Vec<u8>>,
}

impl Rep {
    /// Takes over a finished window's slices and the latency samples that
    /// fall inside it (`latency` may run on past the window's close).
    pub fn set_window(&mut self, window: Window, mut latency: Vec<u32>) {
        latency.truncate(window.slices.last().map_or(0, |s| s.latency_end));
        self.slices = window.slices;
        self.latency_ns = latency;
    }

    /// Packets delivered exactly once, in order, inside the window.
    pub fn delivered(&self) -> u64 {
        self.slices.iter().map(|s| s.delivered).sum()
    }

    /// Logical clock cycles inside the window.
    pub fn cycles(&self) -> u64 {
        self.slices.iter().map(|s| s.cycles).sum()
    }
}

pub trait Workload {
    /// One repetition. The traced variant wraps the calls into each layer
    /// in spans (and, on the simulator workloads, replaces `Driver` by the
    /// benchmark's mirror of its cycle kernel).
    fn rep(&self, traced: bool, clock: Clock) -> Rep;

    /// Builds the system under test once more and drops it, returning the
    /// construction time: extra `setup_s` samples at no window's cost.
    fn setup_once(&self, clock: Clock) -> u64;
}

/// Generates `name`'s inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim-saturated" => Box::new(sim::Sim::saturated(seed)),
        "sim-sparse" => Box::new(sim::Sim::sparse(seed)),
        "daemon-dense" => Box::new(stack::Daemon::dense(seed)),
        "daemon-sparse" => Box::new(stack::Daemon::sparse(seed)),
        "udp-saturated" => Box::new(stack::Udp::saturated(seed)),
        "udp-paced" => Box::new(stack::Udp::paced(seed)),
        "wire-chaos" => Box::new(chaos::Chaos::new(seed)),
        _ => return None,
    })
}

/// Sums of the `NicStats` counters the ledger reports, over every
/// interface of the system under test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicSums {
    pub sent: u64,
    pub sent_bulk: u64,
    pub acks_sent: u64,
    pub delivered: u64,
    pub send_rejected: u64,
    pub retransmitted: u64,
    pub duplicates_dropped: u64,
    pub failures: u64,
}

impl NicSums {
    pub fn add(&mut self, s: &nifdy::NicStats) {
        self.sent += s.sent.get();
        self.sent_bulk += s.sent_bulk.get();
        self.acks_sent += s.acks_sent.get();
        self.delivered += s.delivered.get();
        self.send_rejected += s.send_rejected.get();
        self.retransmitted += s.retransmitted.get();
        self.duplicates_dropped += s.duplicates_dropped.get();
        self.failures += s.delivery_failures.get();
    }

    pub fn since(&self, start: &NicSums) -> NicSums {
        NicSums {
            sent: self.sent - start.sent,
            sent_bulk: self.sent_bulk - start.sent_bulk,
            acks_sent: self.acks_sent - start.acks_sent,
            delivered: self.delivered - start.delivered,
            send_rejected: self.send_rejected - start.send_rejected,
            retransmitted: self.retransmitted - start.retransmitted,
            duplicates_dropped: self.duplicates_dropped - start.duplicates_dropped,
            failures: self.failures - start.failures,
        }
    }

    /// The `core.*` ledger lines. `offered` counts `try_send` calls that
    /// were accepted; rejected ones are `send_rejected`.
    pub fn ledger(&self, accepted: u64, layer: &mut Layer) {
        layer.insert("core.retransmits", self.retransmitted as f64);
        layer.insert("core.dup_dropped", self.duplicates_dropped as f64);
        layer.insert(
            "core.send_rejected_share",
            ratio(self.send_rejected, self.send_rejected + accepted),
        );
        layer.insert(
            "core.acks_per_delivered",
            ratio(self.acks_sent, self.delivered),
        );
        layer.insert("core.bulk_share", ratio(self.sent_bulk, self.sent));
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The gate every loop applies to its finished [`DeliveryCheck`]: every
/// one of the `attempted` packets the system accepted was delivered exactly
/// once and in order — the observed per-pair logs equal the plan's (its
/// accepted prefix) — and no typed failure surfaced. A hit only ever
/// advances its own pair's cursor, so `in_order == attempted` with nothing
/// mismatched pins every pair's log, not just the total.
pub fn delivery_gate(
    check: &crate::plan::DeliveryCheck,
    attempted: u64,
    typed_failures: u64,
    rep: &mut Rep,
) {
    rep.attempted = attempted;
    rep.failed = (attempted - check.in_order) + check.mismatched + typed_failures;
    if check.in_order != attempted || check.mismatched > 0 {
        rep.gate.push(format!(
            "delivery log differs from the plan: {} of {} in order, {} mismatched",
            check.in_order, attempted, check.mismatched
        ));
    }
    if typed_failures > 0 {
        rep.gate.push(format!(
            "{typed_failures} typed DeliveryFailure(s) on a recoverable workload"
        ));
    }
}
