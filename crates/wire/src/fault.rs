//! The wire-layer chaos plane: a [`FaultyTransport`] wrapper that subjects
//! any [`Transport`] to seeded, deterministic frame faults.
//!
//! Whether a frame is *lost* is decided by the [`FaultPlane`] the flit
//! fabric also uses: one Gilbert–Elliott burst chain, scheduled outage
//! windows and per-lane uniform loss, judged once per frame. On top of that
//! drop repertoire the wire plane adds the abuses only a byte carrier can
//! commit: single-byte **corruption** (caught by the codec's CRC trailer,
//! never mis-decoded), frame **duplication**, seeded **delay**, and
//! one-tick **reorder** deferral, drawn from the same generator.
//!
//! Determinism contract: all randomness comes from the plane's stream,
//! keyed by the wrapped node, and an *inactive* config (every probability
//! zero, no burst chain, no partitions) never draws from it at all —
//! `FaultyTransport` over a clean config is byte-identical to the bare
//! transport for any seed, which the property suite asserts.

// Bytes off the wire never choose an index: byte access here is `get`-based.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::collections::BTreeMap;
use std::mem;

use nifdy_net::{FaultConfig, FaultPlane, GilbertElliott, Lane, LinkWindow};
use nifdy_sim::NodeId;
use nifdy_trace::{trace_event, EventKind, TraceHandle, WireFaultCause};

use crate::transport::Transport;

/// Stream id for the wire chaos plane's private generator, decorrelated
/// from the loopback jitter stream (`0x17e`) and the fabric fault stream
/// (`0xFA17`). The wrapped node's index is mixed in so every endpoint's
/// fault lottery is independent under one seed.
const WIRE_FAULT_STREAM: u64 = 0xFA27_0000;

/// Configuration of the wire chaos plane: the carrier-independent
/// [`FaultConfig`] plus the byte-carrier faults, in one builder style.
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
    /// What decides whether a frame is lost: per-lane uniform loss, the
    /// burst chain, and partition windows (while one covers a destination
    /// node, every frame sent to it is swallowed).
    pub loss: FaultConfig,
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
}

impl WireFaultConfig {
    /// Sets the uniform data-lane drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.loss.data_drop_prob = p;
        self
    }

    /// Sets the uniform ack-lane drop probability.
    pub fn with_ack_drop_prob(mut self, p: f64) -> Self {
        self.loss.ack_drop_prob = p;
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
        self.loss.burst = Some(ge);
        self
    }

    /// Adds a scheduled partition window for one destination node.
    pub fn with_partition(mut self, window: LinkWindow) -> Self {
        self.loss.link_windows.push(window);
        self
    }

    /// Whether any fault model is enabled.
    pub fn is_active(&self) -> bool {
        self.loss.is_active()
            || self.corrupt_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.delay_prob > 0.0
            || self.reorder_prob > 0.0
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (probability
    /// outside `[0, 1]`, a delay model with no bound, or an invalid
    /// [`loss`](Self::loss)).
    pub fn validate(&self) -> Result<(), String> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            ref loss,
            corrupt_prob,
            duplicate_prob,
            delay_prob,
            delay_max,
            reorder_prob,
        } = *self;
        for (name, p) in [
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
        loss.validate()
    }
}

/// Per-cause counters for every fault the plane injected, indexed by the
/// [`WireFaultCause`]'s discriminant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultStats([u64; WireFaultCause::ALL.len()]);

#[expect(
    clippy::indexing_slicing,
    reason = "a cause's discriminant is below ALL.len() by construction"
)]
impl WireFaultStats {
    /// The number of faults injected for one cause.
    pub fn count(&self, cause: WireFaultCause) -> u64 {
        self.0[cause as usize]
    }

    /// Total faults injected across all causes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    fn incr(&mut self, cause: WireFaultCause) {
        self.0[cause as usize] += 1;
    }
}

/// Frames the plane is holding back, ordered by (release tick, send
/// sequence) so flush order is deterministic.
type HeldFrames = BTreeMap<(u64, u64), (NodeId, Lane, Vec<u8>)>;

/// A [`Transport`] wrapper that injects seeded faults into outbound frames.
///
/// Faults are judged once per [`send`](Transport::send): the [`FaultPlane`]
/// decides survival (burst chain, partition windows, per-lane uniform loss,
/// in the fabric's draw order because it is the fabric's judge); survivors
/// may then be corrupted, duplicated, delayed, or reordered, in that order,
/// from the same generator. Held frames release on [`tick`](Transport::tick).
///
/// # Examples
///
/// ```
/// use nifdy_net::Lane;
/// use nifdy_sim::NodeId;
/// use nifdy_trace::WireFaultCause;
/// use nifdy_wire::{FaultyTransport, LoopbackHub, Transport, WireFaultConfig};
///
/// let hub = LoopbackHub::new(2, 0);
/// let cfg = WireFaultConfig::default().with_drop_prob(1.0);
/// let mut a = FaultyTransport::new(hub.endpoint(NodeId::new(0)), cfg, 7);
/// a.send(NodeId::new(1), Lane::Request, vec![1, 2, 3]);
/// assert_eq!(a.stats().count(WireFaultCause::Drop), 1, "p = 1 drops it");
/// assert_eq!(hub.in_flight(), 0);
/// ```
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    /// The loss judge; owns the config's `loss` half and the generator.
    plane: FaultPlane,
    /// The byte-carrier half: `loss` was moved into `plane`.
    cfg: WireFaultConfig,
    active: bool,
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
    pub fn new(inner: T, mut cfg: WireFaultConfig, seed: u64) -> Self {
        #[expect(clippy::panic, reason = "documented panic on an invalid config")]
        if let Err(why) = cfg.validate() {
            panic!("invalid wire fault config: {why}");
        }
        let active = cfg.is_active();
        let stream = WIRE_FAULT_STREAM | inner.node().index() as u64;
        FaultyTransport {
            inner,
            plane: FaultPlane::new(mem::take(&mut cfg.loss), seed, stream),
            cfg,
            active,
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

    /// One byte-carrier lottery on the plane's generator; `p == 0` draws
    /// nothing.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.plane.rng().gen_bool(p)
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
        if let Some(reason) = self.plane.judge(now, dst, lane) {
            self.record(reason.into(), frame.len());
            return;
        }
        // The frame survives; non-fatal faults may still mangle its trip.
        if self.chance(self.cfg.corrupt_prob) {
            let at = (self.plane.rng().next_u64() % frame.len().max(1) as u64) as usize;
            // Mask 1..=255: a zero mask would be a no-op, not a fault.
            let mask = (self.plane.rng().next_u64() % 255 + 1) as u8;
            if let Some(byte) = frame.get_mut(at) {
                *byte ^= mask;
                self.record(WireFaultCause::Corrupt, frame.len());
            }
        }
        if self.chance(self.cfg.duplicate_prob) {
            self.record(WireFaultCause::Duplicate, frame.len());
            self.inner.send(dst, lane, frame.clone());
        }
        if self.chance(self.cfg.delay_prob) {
            let extra = 1 + self.plane.rng().next_u64() % self.cfg.delay_max.max(1);
            self.record(WireFaultCause::Delay, frame.len());
            self.hold_until(now + extra, dst, lane, frame);
            return;
        }
        if self.chance(self.cfg.reorder_prob) {
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
        // Pinned: `wire_chaos_quick.*` and the benchmark's exact counts
        // depend on the per-endpoint draw sequence.
        let counts = WireFaultCause::ALL.map(|c| stats_a.count(c));
        assert_eq!(counts, [0, 0, 46, 0, 11, 10, 0, 10]);
        let (frames_c, _) = run(12);
        assert_ne!(frames_a, frames_c, "different seed, different lottery");
    }

    /// `wire_chaos_quick.json` prints the wire labels, the trace exports
    /// both.
    #[test]
    fn cause_labels_are_pinned() {
        use nifdy_trace::DropReason;
        let wire = DropReason::ALL.map(|r| WireFaultCause::from(r).label());
        assert_eq!(wire, ["drop", "ack_drop", "burst", "partition"]);
        let fabric = DropReason::ALL.map(DropReason::label);
        assert_eq!(fabric, ["data", "ack", "burst", "link_down"]);
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
