//! The fault-injection plane: deterministic, seeded packet-loss models.
//!
//! The base fabric offers a single uniform edge drop probability
//! ([`FabricConfig::drop_prob`](crate::FabricConfig::drop_prob)), which is
//! enough to demonstrate the paper's §6.2 retransmission extension but far
//! from the loss behavior of real deployments. The [`FaultPlane`] adds the
//! scenarios production networks actually exhibit:
//!
//! * **Bursty loss** via a two-state Gilbert–Elliott chain
//!   ([`GilbertElliott`]): long stretches of near-lossless operation
//!   punctuated by bursts in which most packets die.
//! * **Asymmetric lane loss**: independent drop probabilities for
//!   data (request-lane) and ack (reply-lane) packets, because ack-path
//!   loss stresses retransmission logic very differently from data loss.
//! * **Scheduled link outages** ([`LinkWindow`]): a named edge link goes
//!   down at one cycle and comes back at another (or never), turning loss
//!   from a lottery into a hard fault the protocol must survive.
//! * **Targeted destinations** ([`TargetedDrop`]): elevated loss towards
//!   specific nodes, modeling a flaky cable or a failing switch port.
//!
//! Every cause is counted separately in
//! [`FabricStats`](crate::FabricStats), and all randomness comes from a
//! dedicated [`SimRng`] stream, so enabling the fault plane never perturbs
//! the fabric's routing or legacy drop lottery for a given seed.

use nifdy_sim::{Cycle, NodeId, SimRng};
use nifdy_trace::DropReason;

use crate::packet::{Lane, Packet};

/// Stream id for the fault plane's private generator (decorrelated from the
/// fabric's routing/drop stream `0xFAB`).
const FAULT_STREAM: u64 = 0xFA17;

/// Two-state Gilbert–Elliott burst-loss model.
///
/// The chain sits in a *good* state with loss probability
/// [`loss_good`](GilbertElliott::loss_good) and occasionally enters a *bad*
/// (burst) state with loss probability
/// [`loss_bad`](GilbertElliott::loss_bad); transitions are sampled once per
/// delivered packet. Steady-state loss is
/// `(p_enter * loss_bad + p_exit * loss_good) / (p_enter + p_exit)`.
///
/// # Examples
///
/// ```
/// use nifdy_net::GilbertElliott;
///
/// let ge = GilbertElliott::with_mean_loss(0.10);
/// assert!((ge.steady_state_loss() - 0.10).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad, per judged packet.
    pub p_enter: f64,
    /// Probability of moving bad → good, per judged packet.
    pub p_exit: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad (burst) state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A bursty channel whose long-run loss rate equals `mean` (clamped to
    /// `[0, 0.45]`): bursts of ~20 packets losing 90% of traffic, separated
    /// by clean stretches sized to hit the requested average.
    pub fn with_mean_loss(mean: f64) -> Self {
        let mean = mean.clamp(0.0, 0.45);
        let loss_bad = 0.9;
        let loss_good = 0.0;
        let p_exit = 0.05; // mean burst length = 20 packets
                           // Solve steady-state loss = mean for p_enter:
                           //   mean = p_enter * loss_bad / (p_enter + p_exit)
        let p_enter = if mean <= 0.0 {
            0.0
        } else {
            mean * p_exit / (loss_bad - mean)
        };
        GilbertElliott {
            p_enter,
            p_exit,
            loss_good,
            loss_bad,
        }
    }

    /// Advances the chain by one judged packet and returns whether the
    /// chain drops it. `in_burst` is the caller's chain state (`true` in
    /// the bad state). The loss draw for the current state comes first,
    /// then the transition draw; a zero probability draws nothing, so the
    /// stream consumed from `rng` is a pure function of the parameters and
    /// the judged-packet sequence.
    pub fn advance(&self, in_burst: &mut bool, rng: &mut SimRng) -> bool {
        let (loss, flip) = if *in_burst {
            (self.loss_bad, self.p_exit)
        } else {
            (self.loss_good, self.p_enter)
        };
        let drop = loss > 0.0 && rng.gen_bool(loss);
        if flip > 0.0 && rng.gen_bool(flip) {
            *in_burst = !*in_burst;
        }
        drop
    }

    /// The long-run fraction of judged packets this chain drops.
    pub fn steady_state_loss(&self) -> f64 {
        let denom = self.p_enter + self.p_exit;
        if denom <= 0.0 {
            return self.loss_good;
        }
        (self.p_enter * self.loss_bad + self.p_exit * self.loss_good) / denom
    }

    /// Validates that all four probabilities are within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("p_enter", self.p_enter),
            ("p_exit", self.p_exit),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("gilbert-elliott {name} must be within [0, 1]"));
            }
        }
        Ok(())
    }
}

/// A scheduled outage of one node's edge (ejection) link.
///
/// While `down_from <= now < up_at`, every packet completing delivery over
/// the named link — i.e. every packet destined to `node` — is dropped.
/// `up_at == u64::MAX` models a link that never comes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkWindow {
    /// Human-readable link name, used in diagnostics (e.g. `"edge-12"`).
    pub name: String,
    /// The node whose edge link this window disables.
    pub node: NodeId,
    /// First cycle of the outage.
    pub down_from: u64,
    /// First cycle after the outage (exclusive); `u64::MAX` = permanent.
    pub up_at: u64,
}

impl LinkWindow {
    /// An outage of `node`'s edge link over `[down_from, up_at)`, named
    /// `edge-<node>`.
    pub fn edge(node: NodeId, down_from: u64, up_at: u64) -> Self {
        LinkWindow {
            name: format!("edge-{}", node.index()),
            node,
            down_from,
            up_at,
        }
    }

    /// Whether the link is down at `now`.
    #[inline]
    pub fn is_down_at(&self, now: u64) -> bool {
        self.down_from <= now && now < self.up_at
    }

    /// Validates that the window is non-empty; `kind` names the plane's
    /// word for it (`"link"`, `"partition"`) in the message.
    ///
    /// # Errors
    ///
    /// Returns a description of the empty window.
    pub fn validate(&self, kind: &str) -> Result<(), String> {
        if self.down_from >= self.up_at {
            return Err(format!(
                "{kind} window {:?} is empty: down_from {} >= up_at {}",
                self.name, self.down_from, self.up_at
            ));
        }
        Ok(())
    }
}

/// Elevated loss toward one destination node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetedDrop {
    /// Destination whose inbound packets are additionally at risk.
    pub dst: NodeId,
    /// Extra drop probability applied to packets bound for `dst`.
    pub prob: f64,
}

/// Configuration of the [`FaultPlane`], carried inside
/// [`FabricConfig`](crate::FabricConfig).
///
/// The default has every model disabled; the plane then never draws from
/// its generator, keeping legacy seeded runs bit-identical.
///
/// # Examples
///
/// ```
/// use nifdy_net::{FaultConfig, GilbertElliott};
///
/// let faults = FaultConfig::default()
///     .with_burst(GilbertElliott::with_mean_loss(0.1))
///     .with_ack_drop_prob(0.02);
/// assert!(faults.validate().is_ok());
/// assert!(faults.is_active());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Uniform drop probability for data (request-lane) packets.
    pub data_drop_prob: f64,
    /// Uniform drop probability for ack/reply (reply-lane) packets.
    pub ack_drop_prob: f64,
    /// Optional Gilbert–Elliott burst-loss chain (applies to both lanes).
    pub burst: Option<GilbertElliott>,
    /// Scheduled link outages.
    pub link_windows: Vec<LinkWindow>,
    /// Per-destination targeted drops.
    pub targets: Vec<TargetedDrop>,
}

impl FaultConfig {
    /// Sets the uniform data-lane drop probability.
    pub fn with_data_drop_prob(mut self, p: f64) -> Self {
        self.data_drop_prob = p;
        self
    }

    /// Sets the uniform ack-lane drop probability.
    pub fn with_ack_drop_prob(mut self, p: f64) -> Self {
        self.ack_drop_prob = p;
        self
    }

    /// Enables Gilbert–Elliott bursty loss.
    pub fn with_burst(mut self, ge: GilbertElliott) -> Self {
        self.burst = Some(ge);
        self
    }

    /// Adds a scheduled link outage.
    pub fn with_link_window(mut self, window: LinkWindow) -> Self {
        self.link_windows.push(window);
        self
    }

    /// Adds a per-destination targeted drop.
    pub fn with_target(mut self, dst: NodeId, prob: f64) -> Self {
        self.targets.push(TargetedDrop { dst, prob });
        self
    }

    /// Whether any fault model is enabled.
    pub fn is_active(&self) -> bool {
        self.data_drop_prob > 0.0
            || self.ack_drop_prob > 0.0
            || self.burst.is_some()
            || !self.link_windows.is_empty()
            || !self.targets.is_empty()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (probability
    /// out of `[0, 1]`, or an empty link window).
    pub fn validate(&self) -> Result<(), String> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            data_drop_prob,
            ack_drop_prob,
            burst,
            link_windows,
            targets,
        } = self;
        if !(0.0..=1.0).contains(data_drop_prob) {
            return Err("data_drop_prob must be within [0, 1]".into());
        }
        if !(0.0..=1.0).contains(ack_drop_prob) {
            return Err("ack_drop_prob must be within [0, 1]".into());
        }
        if let Some(ge) = burst {
            ge.validate()?;
        }
        for w in link_windows {
            w.validate("link")?;
        }
        for t in targets {
            if !(0.0..=1.0).contains(&t.prob) {
                return Err(format!("targeted drop for {} must be within [0, 1]", t.dst));
            }
        }
        Ok(())
    }
}

/// Runtime state of the fault-injection plane.
///
/// Owned by the [`Fabric`](crate::Fabric); judged once per fully delivered
/// packet at the receiving edge. Deterministic for a given
/// `(seed, FaultConfig)` pair.
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    rng: SimRng,
    /// Gilbert–Elliott chain state: `true` while in the bad (burst) state.
    in_burst: bool,
    active: bool,
}

impl FaultPlane {
    /// Builds the plane for `cfg`, drawing randomness from the plane's own
    /// dedicated stream of `seed` (so enabling faults never perturbs the
    /// fabric's legacy drop lottery).
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        let active = cfg.is_active();
        FaultPlane {
            cfg,
            rng: SimRng::from_seed_stream(seed, FAULT_STREAM),
            in_burst: false,
            active,
        }
    }

    /// Whether any fault model is enabled.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the Gilbert–Elliott chain is currently in its burst state.
    #[inline]
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Whether any configured link window covers `dst` at `now`.
    pub fn link_is_down(&self, dst: NodeId, now: Cycle) -> bool {
        self.cfg
            .link_windows
            .iter()
            .any(|w| w.node == dst && w.is_down_at(now.as_u64()))
    }

    /// Judges one packet completing delivery at `now`; returns the cause if
    /// it must be dropped (never [`DropReason::Uniform`]: that lottery is
    /// the fabric's own).
    ///
    /// Deterministic rules (link windows) are checked before probabilistic
    /// ones, and the Gilbert–Elliott chain advances exactly once per judged
    /// packet regardless of the other models' outcomes, so the burst
    /// pattern is a pure function of the judged-packet sequence.
    pub fn judge(&mut self, now: Cycle, packet: &Packet) -> Option<DropReason> {
        if !self.active {
            return None;
        }
        // Advance the burst chain first so its trajectory is independent of
        // the deterministic rules firing.
        let burst_says_drop = self
            .cfg
            .burst
            .is_some_and(|ge| ge.advance(&mut self.in_burst, &mut self.rng));

        if self.link_is_down(packet.dst, now) {
            return Some(DropReason::LinkDown);
        }
        if let Some(t) = self.cfg.targets.iter().find(|t| t.dst == packet.dst) {
            if t.prob > 0.0 && self.rng.gen_bool(t.prob) {
                return Some(DropReason::Targeted);
            }
        }
        if burst_says_drop {
            return Some(DropReason::Burst);
        }
        let (cause, p) = match packet.lane {
            Lane::Request => (DropReason::Data, self.cfg.data_drop_prob),
            Lane::Reply => (DropReason::Ack, self.cfg.ack_drop_prob),
        };
        if p > 0.0 && self.rng.gen_bool(p) {
            return Some(cause);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nifdy_sim::PacketId;

    fn pkt(dst: usize, lane: Lane) -> Packet {
        let mut p = Packet::data(PacketId::new(1), NodeId::new(0), NodeId::new(dst), 8);
        p.lane = lane;
        p
    }

    #[test]
    fn inactive_plane_never_drops_or_draws() {
        let mut plane = FaultPlane::new(FaultConfig::default(), 7);
        assert!(!plane.is_active());
        for i in 0..1_000 {
            assert_eq!(plane.judge(Cycle::new(i), &pkt(3, Lane::Request)), None);
        }
    }

    #[test]
    fn ge_mean_loss_solves_steady_state() {
        for mean in [0.01, 0.05, 0.1, 0.25, 0.4] {
            let ge = GilbertElliott::with_mean_loss(mean);
            assert!((ge.steady_state_loss() - mean).abs() < 1e-9, "mean {mean}");
            assert!(ge.validate().is_ok());
        }
    }

    #[test]
    fn burst_loss_is_bursty_and_near_the_mean() {
        let cfg = FaultConfig::default().with_burst(GilbertElliott::with_mean_loss(0.1));
        let mut plane = FaultPlane::new(cfg, 42);
        let n = 200_000u64;
        let mut drops = 0u64;
        let mut runs = 0u64; // consecutive-drop pairs; bursty => many
        let mut prev = false;
        for i in 0..n {
            let dropped = plane.judge(Cycle::new(i), &pkt(5, Lane::Request)).is_some();
            drops += u64::from(dropped);
            runs += u64::from(dropped && prev);
            prev = dropped;
        }
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "loss rate {rate}");
        // Under independent 10% loss, P(drop|drop) = 0.1; bursts push the
        // conditional far higher.
        let cond = runs as f64 / drops as f64;
        assert!(cond > 0.5, "loss not bursty: P(drop|drop) = {cond}");
    }

    #[test]
    fn lanes_have_independent_probabilities() {
        let cfg = FaultConfig::default().with_ack_drop_prob(0.5);
        let mut plane = FaultPlane::new(cfg, 3);
        let mut ack_drops = 0;
        for i in 0..2_000 {
            assert_eq!(plane.judge(Cycle::new(i), &pkt(2, Lane::Request)), None);
            if plane.judge(Cycle::new(i), &pkt(2, Lane::Reply)).is_some() {
                ack_drops += 1;
            }
        }
        assert!(
            (800..1_200).contains(&ack_drops),
            "ack drops {ack_drops}/2000"
        );
    }

    #[test]
    fn link_window_is_deterministic_and_scheduled() {
        let cfg =
            FaultConfig::default().with_link_window(LinkWindow::edge(NodeId::new(4), 100, 200));
        let mut plane = FaultPlane::new(cfg, 0);
        assert_eq!(plane.judge(Cycle::new(99), &pkt(4, Lane::Request)), None);
        assert_eq!(
            plane.judge(Cycle::new(100), &pkt(4, Lane::Request)),
            Some(DropReason::LinkDown)
        );
        assert_eq!(
            plane.judge(Cycle::new(199), &pkt(4, Lane::Reply)),
            Some(DropReason::LinkDown)
        );
        assert_eq!(plane.judge(Cycle::new(200), &pkt(4, Lane::Request)), None);
        // Other destinations are unaffected.
        assert_eq!(plane.judge(Cycle::new(150), &pkt(5, Lane::Request)), None);
    }

    #[test]
    fn targeted_drops_hit_only_their_destination() {
        let cfg = FaultConfig::default().with_target(NodeId::new(9), 1.0);
        let mut plane = FaultPlane::new(cfg, 1);
        assert_eq!(
            plane.judge(Cycle::new(0), &pkt(9, Lane::Request)),
            Some(DropReason::Targeted)
        );
        assert_eq!(plane.judge(Cycle::new(0), &pkt(8, Lane::Request)), None);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(FaultConfig::default()
            .with_data_drop_prob(1.5)
            .validate()
            .is_err());
        assert!(FaultConfig::default()
            .with_ack_drop_prob(-0.1)
            .validate()
            .is_err());
        let mut bad_ge = GilbertElliott::with_mean_loss(0.1);
        bad_ge.loss_bad = 2.0;
        assert!(FaultConfig::default()
            .with_burst(bad_ge)
            .validate()
            .is_err());
        let empty = LinkWindow::edge(NodeId::new(0), 50, 50);
        assert!(FaultConfig::default()
            .with_link_window(empty)
            .validate()
            .is_err());
        assert!(FaultConfig::default()
            .with_target(NodeId::new(0), 7.0)
            .validate()
            .is_err());
    }

    #[test]
    fn same_seed_same_verdicts() {
        let cfg = FaultConfig::default()
            .with_burst(GilbertElliott::with_mean_loss(0.2))
            .with_data_drop_prob(0.05);
        let mut a = FaultPlane::new(cfg.clone(), 11);
        let mut b = FaultPlane::new(cfg, 11);
        for i in 0..5_000 {
            let p = pkt((i % 16) as usize, Lane::Request);
            assert_eq!(a.judge(Cycle::new(i), &p), b.judge(Cycle::new(i), &p));
        }
    }
}
