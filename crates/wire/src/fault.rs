//! The wire-layer chaos plane: a [`FaultyTransport`] wrapper that subjects
//! any [`Transport`] to seeded, deterministic frame faults.
//!
//! This mirrors the flit-level fault plane in `nifdy-net`
//! ([`FaultConfig`](nifdy_net::FaultConfig) / `FaultPlane`): the same
//! two-state Gilbert–Elliott burst model, the same scheduled outage windows
//! (reused verbatim via [`LinkWindow`]), the same judge-once-per-frame
//! discipline, and per-cause counters for every fault injected. On top of
//! the fabric plane's *drop* repertoire the wire plane adds the abuses only
//! a byte carrier can commit: single-byte **corruption** (caught by the
//! codec's CRC trailer, never mis-decoded), frame **duplication**, seeded
//! **delay**, and one-tick **reorder** deferral.
//!
//! Determinism contract: all randomness comes from a dedicated
//! [`SimRng`] stream keyed by the wrapped node, and an *inactive* config
//! (every probability zero, no burst chain, no partitions) never draws from
//! the generator at all — `FaultyTransport` over a clean config is
//! byte-identical to the bare transport for any seed, which the property
//! suite asserts.

// Bytes off the wire never choose an index: byte access here is `get`-based.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::collections::BTreeMap;

use nifdy_net::{GilbertElliott, Lane, LinkWindow};
use nifdy_sim::{NodeId, SimRng};
use nifdy_trace::{trace_event, EventKind, TraceHandle, WireFaultCause};

use crate::transport::Transport;

/// Stream id for the wire chaos plane's private generator, decorrelated
/// from the loopback jitter stream (`0x17e`) and the fabric fault stream
/// (`0xFA17`). The wrapped node's index is mixed in so every endpoint's
/// fault lottery is independent under one seed.
const WIRE_FAULT_STREAM: u64 = 0xFA27_0000;

/// Configuration of the wire chaos plane, mirroring
/// [`FaultConfig`](nifdy_net::FaultConfig)'s shape and builder style.
///
/// The default disables every model; the plane is then a pure passthrough
/// that never draws randomness.
///
/// # Examples
///
/// ```
/// use nifdy_net::GilbertElliott;
/// use nifdy_wire::WireFaultConfig;
///
/// let faults = WireFaultConfig::default()
///     .with_burst(GilbertElliott::with_mean_loss(0.05))
///     .with_corrupt_prob(0.01);
/// assert!(faults.validate().is_ok());
/// assert!(faults.is_active());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireFaultConfig {
    /// Uniform drop probability for data (request-lane) frames.
    pub drop_prob: f64,
    /// Uniform drop probability for ack/reply (reply-lane) frames.
    pub ack_drop_prob: f64,
    /// Probability of flipping one byte of a surviving frame.
    pub corrupt_prob: f64,
    /// Probability of delivering a surviving frame twice.
    pub duplicate_prob: f64,
    /// Probability of holding a surviving frame back `1..=delay_max` ticks.
    pub delay_prob: f64,
    /// Upper bound of the seeded delay, in ticks (minimum effective 1).
    pub delay_max: u64,
    /// Probability of deferring a surviving frame one tick so later sends
    /// overtake it.
    pub reorder_prob: f64,
    /// Optional Gilbert–Elliott burst-loss chain (applies to both lanes).
    pub burst: Option<GilbertElliott>,
    /// Scheduled partition windows: while a window covers a destination
    /// node, every frame sent to it is swallowed.
    pub partitions: Vec<LinkWindow>,
}

impl WireFaultConfig {
    /// Sets the uniform data-lane drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the uniform ack-lane drop probability.
    pub fn with_ack_drop_prob(mut self, p: f64) -> Self {
        self.ack_drop_prob = p;
        self
    }

    /// Sets the single-byte corruption probability.
    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Sets the frame-duplication probability.
    pub fn with_duplicate_prob(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Sets the delay probability and its bound in ticks.
    pub fn with_delay(mut self, p: f64, delay_max: u64) -> Self {
        self.delay_prob = p;
        self.delay_max = delay_max;
        self
    }

    /// Sets the one-tick reorder probability.
    pub fn with_reorder_prob(mut self, p: f64) -> Self {
        self.reorder_prob = p;
        self
    }

    /// Enables Gilbert–Elliott bursty loss.
    pub fn with_burst(mut self, ge: GilbertElliott) -> Self {
        self.burst = Some(ge);
        self
    }

    /// Adds a scheduled partition window for one destination node.
    pub fn with_partition(mut self, window: LinkWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// Whether any fault model is enabled.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.ack_drop_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.delay_prob > 0.0
            || self.reorder_prob > 0.0
            || self.burst.is_some()
            || !self.partitions.is_empty()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (probability
    /// outside `[0, 1]`, a delay model with no bound, an invalid burst
    /// chain, or an empty partition window).
    pub fn validate(&self) -> Result<(), String> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            drop_prob,
            ack_drop_prob,
            corrupt_prob,
            duplicate_prob,
            delay_prob,
            delay_max,
            reorder_prob,
            ref burst,
            ref partitions,
        } = *self;
        for (name, p) in [
            ("drop_prob", drop_prob),
            ("ack_drop_prob", ack_drop_prob),
            ("corrupt_prob", corrupt_prob),
            ("duplicate_prob", duplicate_prob),
            ("delay_prob", delay_prob),
            ("reorder_prob", reorder_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be within [0, 1]"));
            }
        }
        if delay_prob > 0.0 && delay_max == 0 {
            return Err("delay_prob > 0 needs delay_max >= 1".into());
        }
        if let Some(ge) = burst {
            ge.validate()?;
        }
        for w in partitions {
            w.validate("partition")?;
        }
        Ok(())
    }
}

/// Per-cause counters for every fault the plane injected, in
/// [`WireFaultCause::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultStats {
    drops: u64,
    ack_drops: u64,
    bursts: u64,
    partitions: u64,
    corrupts: u64,
    duplicates: u64,
    delays: u64,
    reorders: u64,
}

impl WireFaultStats {
    /// The number of faults injected for one cause.
    pub fn count(&self, cause: WireFaultCause) -> u64 {
        match cause {
            WireFaultCause::Drop => self.drops,
            WireFaultCause::AckDrop => self.ack_drops,
            WireFaultCause::Burst => self.bursts,
            WireFaultCause::Partition => self.partitions,
            WireFaultCause::Corrupt => self.corrupts,
            WireFaultCause::Duplicate => self.duplicates,
            WireFaultCause::Delay => self.delays,
            WireFaultCause::Reorder => self.reorders,
        }
    }

    /// Total faults injected across all causes.
    pub fn total(&self) -> u64 {
        WireFaultCause::ALL.iter().map(|&c| self.count(c)).sum()
    }

    /// Frames the plane swallowed outright (drop-class causes only).
    pub fn dropped(&self) -> u64 {
        self.drops + self.ack_drops + self.bursts + self.partitions
    }

    /// `(label, count)` pairs in stable order, for reports and JSON.
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        WireFaultCause::ALL
            .iter()
            .map(|&c| (c.label(), self.count(c)))
            .collect()
    }

    fn incr(&mut self, cause: WireFaultCause) {
        match cause {
            WireFaultCause::Drop => self.drops += 1,
            WireFaultCause::AckDrop => self.ack_drops += 1,
            WireFaultCause::Burst => self.bursts += 1,
            WireFaultCause::Partition => self.partitions += 1,
            WireFaultCause::Corrupt => self.corrupts += 1,
            WireFaultCause::Duplicate => self.duplicates += 1,
            WireFaultCause::Delay => self.delays += 1,
            WireFaultCause::Reorder => self.reorders += 1,
        }
    }
}

/// Frames the plane is holding back, ordered by (release tick, send
/// sequence) so flush order is deterministic.
type HeldFrames = BTreeMap<(u64, u64), (NodeId, Lane, Vec<u8>)>;

/// A [`Transport`] wrapper that injects seeded faults into outbound frames.
///
/// Faults are judged once per [`send`](Transport::send), in a fixed order
/// mirroring the fabric plane's: the Gilbert–Elliott chain advances exactly
/// once per judged frame (so the burst trajectory is a pure function of the
/// send sequence), then partition windows, burst loss, and per-lane uniform
/// loss decide survival; survivors may then be corrupted, duplicated,
/// delayed, or reordered. Held frames release on [`tick`](Transport::tick).
///
/// # Examples
///
/// ```
/// use nifdy_net::Lane;
/// use nifdy_sim::NodeId;
/// use nifdy_wire::{FaultyTransport, LoopbackHub, Transport, WireFaultConfig};
///
/// let hub = LoopbackHub::new(2, 0);
/// let cfg = WireFaultConfig::default().with_drop_prob(1.0);
/// let mut a = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, 7);
/// a.send(NodeId::new(1), Lane::Request, vec![1, 2, 3]);
/// assert_eq!(a.stats().dropped(), 1, "everything drops at p = 1");
/// assert_eq!(hub.in_flight(), 0);
/// ```
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    cfg: WireFaultConfig,
    active: bool,
    rng: SimRng,
    /// Gilbert–Elliott chain state: `true` while in the bad (burst) state.
    in_burst: bool,
    held: HeldFrames,
    seq: u64,
    stats: WireFaultStats,
    trace: TraceHandle,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the chaos plane described by `cfg`, drawing
    /// randomness from a dedicated stream of `seed` keyed by the wrapped
    /// node (so every endpoint's lottery is independent, and wrapping never
    /// perturbs the inner transport's own seeded behavior).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`WireFaultConfig::validate`].
    pub fn new(inner: T, cfg: WireFaultConfig, seed: u64) -> Self {
        #[expect(clippy::panic, reason = "documented panic on an invalid config")]
        if let Err(why) = cfg.validate() {
            panic!("invalid wire fault config: {why}");
        }
        let active = cfg.is_active();
        let stream = WIRE_FAULT_STREAM | inner.node().index() as u64;
        FaultyTransport {
            inner,
            cfg,
            active,
            rng: SimRng::from_seed_stream(seed, stream),
            in_burst: false,
            held: HeldFrames::new(),
            seq: 0,
            stats: WireFaultStats::default(),
            trace: TraceHandle::off(),
        }
    }

    /// Connects the plane to a flight recorder: every injected fault is
    /// logged as a [`EventKind::WireFault`] on the wrapped node's track.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Per-cause fault counters.
    pub fn stats(&self) -> &WireFaultStats {
        &self.stats
    }

    /// Whether any fault model is enabled.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Frames currently held back by the delay/reorder models.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn record(&mut self, cause: WireFaultCause, bytes: usize) {
        self.stats.incr(cause);
        let now = self.inner.now();
        let node = self.inner.node();
        trace_event!(
            self.trace,
            now,
            node,
            EventKind::WireFault {
                cause,
                bytes: bytes as u32,
            }
        );
    }

    /// Releases every held frame whose release tick has arrived.
    fn flush_held(&mut self) {
        let now = self.inner.now().as_u64();
        while let Some((&key, _)) = self.held.first_key_value() {
            if key.0 > now {
                break;
            }
            let Some((dst, lane, frame)) = self.held.remove(&key) else {
                break;
            };
            self.inner.send(dst, lane, frame);
        }
    }

    /// Stashes a frame for release at `at` (deterministic flush order).
    fn hold_until(&mut self, at: u64, dst: NodeId, lane: Lane, frame: Vec<u8>) {
        let seq = self.seq;
        self.seq += 1;
        self.held.insert((at, seq), (dst, lane, frame));
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn now(&self) -> nifdy_sim::Cycle {
        self.inner.now()
    }

    fn tick(&mut self) {
        self.inner.tick();
        if self.active {
            self.flush_held();
        }
    }

    fn send(&mut self, dst: NodeId, lane: Lane, mut frame: Vec<u8>) {
        if !self.active {
            // Inactive plane: pure passthrough, zero RNG draws, so a clean
            // config is byte-identical to the bare transport at any seed.
            self.inner.send(dst, lane, frame);
            return;
        }
        let now = self.inner.now().as_u64();
        // Advance the burst chain first so its trajectory is independent of
        // the deterministic rules firing (same discipline as the fabric's
        // FaultPlane::judge).
        let burst_says_drop = self
            .cfg
            .burst
            .is_some_and(|ge| ge.advance(&mut self.in_burst, &mut self.rng));
        if self
            .cfg
            .partitions
            .iter()
            .any(|w| w.node == dst && w.is_down_at(now))
        {
            self.record(WireFaultCause::Partition, frame.len());
            return;
        }
        if burst_says_drop {
            self.record(WireFaultCause::Burst, frame.len());
            return;
        }
        let (cause, p) = match lane {
            Lane::Request => (WireFaultCause::Drop, self.cfg.drop_prob),
            Lane::Reply => (WireFaultCause::AckDrop, self.cfg.ack_drop_prob),
        };
        if p > 0.0 && self.rng.gen_bool(p) {
            self.record(cause, frame.len());
            return;
        }
        // The frame survives; non-fatal faults may still mangle its trip.
        if self.cfg.corrupt_prob > 0.0 && self.rng.gen_bool(self.cfg.corrupt_prob) {
            let at = (self.rng.next_u64() % frame.len().max(1) as u64) as usize;
            // Mask 1..=255: a zero mask would be a no-op, not a fault.
            let mask = (self.rng.next_u64() % 255 + 1) as u8;
            if let Some(byte) = frame.get_mut(at) {
                *byte ^= mask;
                self.record(WireFaultCause::Corrupt, frame.len());
            }
        }
        let duplicate = self.cfg.duplicate_prob > 0.0 && self.rng.gen_bool(self.cfg.duplicate_prob);
        if duplicate {
            self.record(WireFaultCause::Duplicate, frame.len());
            self.inner.send(dst, lane, frame.clone());
        }
        if self.cfg.delay_prob > 0.0 && self.rng.gen_bool(self.cfg.delay_prob) {
            let extra = 1 + self.rng.next_u64() % self.cfg.delay_max.max(1);
            self.record(WireFaultCause::Delay, frame.len());
            self.hold_until(now + extra, dst, lane, frame);
            return;
        }
        if self.cfg.reorder_prob > 0.0 && self.rng.gen_bool(self.cfg.reorder_prob) {
            // Deferred to the next tick: frames sent later this tick (and
            // next tick, before the flush) overtake it.
            self.record(WireFaultCause::Reorder, frame.len());
            self.hold_until(now + 1, dst, lane, frame);
            return;
        }
        self.inner.send(dst, lane, frame);
    }

    fn recv(&mut self, lane: Lane) -> Option<Vec<u8>> {
        self.inner.recv(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackHub;
    use nifdy_sim::Cycle;

    fn drain(hub: &LoopbackHub, ep: &mut impl Transport, ticks: u64) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        for _ in 0..ticks {
            hub.tick();
            ep.tick();
            for lane in Lane::ALL {
                while let Some(f) = ep.recv(lane) {
                    got.push(f);
                }
            }
        }
        got
    }

    #[test]
    fn inactive_plane_is_byte_identical_to_clean() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let clean_hub = LoopbackHub::new(2, 1);
            let mut clean_tx = clean_hub.endpoint(NodeId::new(0));
            let mut clean_rx = clean_hub.endpoint(NodeId::new(1));
            let fault_hub = LoopbackHub::new(2, 1);
            let mut fault_tx = FaultyTransport::new(
                fault_hub.endpoint(NodeId::new(0)),
                WireFaultConfig::default(),
                seed,
            );
            let mut fault_rx = fault_hub.endpoint(NodeId::new(1));
            for i in 0..64u8 {
                let frame = vec![i, i ^ 0x5A];
                clean_tx.send(NodeId::new(1), Lane::Request, frame.clone());
                fault_tx.send(NodeId::new(1), Lane::Request, frame);
            }
            let a = drain(&clean_hub, &mut clean_rx, 8);
            let b = drain(&fault_hub, &mut fault_rx, 8);
            assert_eq!(a, b, "seed {seed}: inactive plane diverged");
            assert_eq!(fault_tx.stats().total(), 0);
        }
    }

    #[test]
    fn drop_probability_one_swallows_everything() {
        let hub = LoopbackHub::new(2, 0);
        let cfg = WireFaultConfig::default()
            .with_drop_prob(1.0)
            .with_ack_drop_prob(1.0);
        let mut tx = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, 3);
        for _ in 0..10 {
            tx.send(NodeId::new(1), Lane::Request, vec![1]);
            tx.send(NodeId::new(1), Lane::Reply, vec![2]);
        }
        assert_eq!(hub.in_flight(), 0);
        assert_eq!(tx.stats().count(WireFaultCause::Drop), 10);
        assert_eq!(tx.stats().count(WireFaultCause::AckDrop), 10);
    }

    #[test]
    fn partition_window_swallows_only_its_destination() {
        let hub = LoopbackHub::new(3, 0);
        let cfg = WireFaultConfig::default().with_partition(LinkWindow::edge(
            NodeId::new(1),
            0,
            u64::MAX,
        ));
        let mut tx = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, 0);
        tx.send(NodeId::new(1), Lane::Request, vec![1]);
        tx.send(NodeId::new(2), Lane::Request, vec![2]);
        assert_eq!(hub.in_flight(), 1, "only the partitioned peer loses");
        assert_eq!(tx.stats().count(WireFaultCause::Partition), 1);
    }

    #[test]
    fn corruption_changes_bytes_and_counts() {
        let hub = LoopbackHub::new(2, 0);
        let cfg = WireFaultConfig::default().with_corrupt_prob(1.0);
        let mut tx = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, 9);
        let mut rx = hub.endpoint(NodeId::new(1));
        let original = vec![0u8; 16];
        tx.send(NodeId::new(1), Lane::Request, original.clone());
        hub.tick();
        let got = rx.recv(Lane::Request).expect("delivered");
        assert_ne!(got, original, "corruption must actually flip a byte");
        assert_eq!(
            got.iter().zip(&original).filter(|(a, b)| a != b).count(),
            1,
            "exactly one byte flips"
        );
        assert_eq!(tx.stats().count(WireFaultCause::Corrupt), 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let hub = LoopbackHub::new(2, 0);
        let cfg = WireFaultConfig::default().with_duplicate_prob(1.0);
        let mut tx = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, 5);
        let mut rx = hub.endpoint(NodeId::new(1));
        tx.send(NodeId::new(1), Lane::Request, vec![7]);
        hub.tick();
        assert_eq!(rx.recv(Lane::Request), Some(vec![7]));
        assert_eq!(rx.recv(Lane::Request), Some(vec![7]));
        assert_eq!(rx.recv(Lane::Request), None);
        assert_eq!(tx.stats().count(WireFaultCause::Duplicate), 1);
    }

    #[test]
    fn delay_holds_frames_then_releases() {
        let hub = LoopbackHub::new(2, 0);
        let cfg = WireFaultConfig::default().with_delay(1.0, 4);
        let mut tx = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, 1);
        let mut rx = hub.endpoint(NodeId::new(1));
        tx.send(NodeId::new(1), Lane::Request, vec![9]);
        assert_eq!(hub.in_flight(), 0, "held, not yet on the wire");
        assert_eq!(tx.held(), 1);
        let got = drain(&hub, &mut rx, 8);
        // `drain` only ticks rx; tick tx alongside to flush the hold.
        assert!(got.is_empty() || got == vec![vec![9]]);
        for _ in 0..8 {
            tx.tick();
            hub.tick();
        }
        assert_eq!(tx.held(), 0, "hold released within delay_max ticks");
        assert_eq!(tx.stats().count(WireFaultCause::Delay), 1);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| {
            let hub = LoopbackHub::new(2, 1);
            let cfg = WireFaultConfig::default()
                .with_burst(GilbertElliott::with_mean_loss(0.2))
                .with_corrupt_prob(0.1)
                .with_duplicate_prob(0.1)
                .with_reorder_prob(0.1);
            let mut tx = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, seed);
            let mut rx = hub.endpoint(NodeId::new(1));
            let mut got = Vec::new();
            for i in 0..200u8 {
                tx.send(NodeId::new(1), Lane::Request, vec![i, i ^ 0xFF]);
                tx.tick();
                hub.tick();
                while let Some(f) = rx.recv(Lane::Request) {
                    got.push(f);
                }
            }
            (got, *tx.stats())
        };
        let (frames_a, stats_a) = run(11);
        let (frames_b, stats_b) = run(11);
        assert_eq!(frames_a, frames_b, "same seed, same delivered bytes");
        assert_eq!(stats_a, stats_b, "same seed, same fault counters");
        assert!(stats_a.total() > 0, "the chaos plane actually fired");
        let (frames_c, _) = run(12);
        assert_ne!(frames_a, frames_c, "different seed, different lottery");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(WireFaultConfig::default()
            .with_corrupt_prob(1.5)
            .validate()
            .is_err());
        assert!(WireFaultConfig::default()
            .with_delay(0.5, 0)
            .validate()
            .is_err());
        assert!(WireFaultConfig::default()
            .with_partition(LinkWindow::edge(NodeId::new(0), 5, 5))
            .validate()
            .is_err());
        assert!(WireFaultConfig::default().validate().is_ok());
    }

    #[test]
    fn clock_and_node_pass_through() {
        let hub = LoopbackHub::new(2, 0);
        let tx = FaultyTransport::new(hub.endpoint(NodeId::new(1)), WireFaultConfig::default(), 0);
        assert_eq!(tx.node(), NodeId::new(1));
        assert_eq!(tx.now(), Cycle::ZERO);
        hub.tick();
        assert_eq!(tx.now(), Cycle::new(1));
    }
}
