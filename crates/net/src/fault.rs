//! The fault-injection plane: deterministic, seeded packet-loss models.
//!
//! [`FaultPlane`] is the one place in the workspace where a loss lottery is
//! drawn: the [`Fabric`](crate::Fabric) judges every packet completing
//! delivery with one, `nifdy-wire`'s `FaultyTransport` every outbound frame
//! with another on its own stream. Its models:
//!
//! * **Bursty loss** via a two-state Gilbert–Elliott chain
//!   ([`GilbertElliott`]): long stretches of near-lossless operation
//!   punctuated by bursts in which most packets die.
//! * **Asymmetric lane loss**: independent drop probabilities for
//!   data (request-lane) and ack (reply-lane) packets, because ack-path
//!   loss stresses retransmission logic very differently from data loss.
//!   Both lanes at one value is the paper's §6.2 lossy network
//!   ([`FabricConfig::with_drop_prob`](crate::FabricConfig::with_drop_prob)).
//! * **Scheduled link outages** ([`LinkWindow`]): a named edge link goes
//!   down at one cycle and comes back at another (or never), turning loss
//!   from a lottery into a hard fault the protocol must survive.
//!
//! Every cause is a [`DropReason`], counted separately by the carrier that
//! asked, and all randomness comes from the plane's own [`SimRng`] stream.
//! An inactive plane never draws, so a clean run is seed-independent.

use nifdy_sim::{NodeId, SimRng};
use nifdy_trace::DropReason;

use crate::packet::Lane;

/// Stream id of the fabric's fault plane. `ext_lossy_*` and every seeded
/// chaos artefact depend on it.
pub(crate) const FABRIC_FAULT_STREAM: u64 = 0xFA17;

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

    /// Validates that the window is non-empty.
    ///
    /// # Errors
    ///
    /// Returns a description of the empty window.
    pub fn validate(&self) -> Result<(), String> {
        if self.down_from >= self.up_at {
            return Err(format!(
                "window {:?} is empty: down_from {} >= up_at {}",
                self.name, self.down_from, self.up_at
            ));
        }
        Ok(())
    }
}

/// Configuration of a [`FaultPlane`]: carried inside
/// [`FabricConfig`](crate::FabricConfig) for the fabric, and as the `loss`
/// half of `nifdy-wire`'s `WireFaultConfig` for the byte carriers.
///
/// The default has every model disabled; the plane then never draws from
/// its generator.
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

    /// Whether any fault model is enabled.
    pub fn is_active(&self) -> bool {
        self.data_drop_prob > 0.0
            || self.ack_drop_prob > 0.0
            || self.burst.is_some()
            || !self.link_windows.is_empty()
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
        link_windows.iter().try_for_each(LinkWindow::validate)
    }
}

/// Runtime state of one fault-injection plane.
///
/// Owned by the carrier it judges for: the [`Fabric`](crate::Fabric) asks
/// once per fully delivered packet at the receiving edge, a byte transport
/// once per outbound frame. Deterministic for a given
/// `(FaultConfig, seed, stream)` and judged sequence.
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    rng: SimRng,
    /// Gilbert–Elliott chain state: `true` while in the bad (burst) state.
    in_burst: bool,
    active: bool,
}

impl FaultPlane {
    /// Builds the plane for `cfg`, drawing randomness from stream `stream`
    /// of `seed`; each owner picks a stream of its own so no two planes
    /// under one seed share a lottery.
    pub fn new(cfg: FaultConfig, seed: u64, stream: u64) -> Self {
        let active = cfg.is_active();
        FaultPlane {
            cfg,
            rng: SimRng::from_seed_stream(seed, stream),
            in_burst: false,
            active,
        }
    }

    /// The plane's generator, so the further lotteries an owner runs on a
    /// survivor (the byte carriers' corruption, duplication, delay and
    /// reorder) continue the same stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Judges one packet bound for `dst` on `lane` at time `now`; returns
    /// the cause if it must be dropped. An inactive plane never draws.
    ///
    /// The draw order is a contract (pinned by `draw_order_is_pinned`): the
    /// Gilbert–Elliott chain advances first, exactly once per judged packet
    /// whatever the other models decide, so the burst pattern is a pure
    /// function of the judged sequence; then link windows (no draw), the
    /// chain's verdict, and the lane lottery.
    pub fn judge(&mut self, now: u64, dst: NodeId, lane: Lane) -> Option<DropReason> {
        if !self.active {
            return None;
        }
        let burst_says_drop = self
            .cfg
            .burst
            .is_some_and(|ge| ge.advance(&mut self.in_burst, &mut self.rng));
        let windows = &self.cfg.link_windows;
        if windows.iter().any(|w| w.node == dst && w.is_down_at(now)) {
            return Some(DropReason::LinkDown);
        }
        if burst_says_drop {
            return Some(DropReason::Burst);
        }
        let (cause, p) = match lane {
            Lane::Request => (DropReason::Data, self.cfg.data_drop_prob),
            Lane::Reply => (DropReason::Ack, self.cfg.ack_drop_prob),
        };
        (p > 0.0 && self.rng.gen_bool(p)).then_some(cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judge(plane: &mut FaultPlane, now: u64, dst: usize, lane: Lane) -> Option<DropReason> {
        plane.judge(now, NodeId::new(dst), lane)
    }

    #[test]
    fn inactive_plane_never_drops_or_draws() {
        let (seed, stream) = (7, FABRIC_FAULT_STREAM);
        let mut plane = FaultPlane::new(FaultConfig::default(), seed, stream);
        for i in 0..1_000 {
            assert_eq!(judge(&mut plane, i, 3, Lane::Request), None);
        }
        let mut fresh = SimRng::from_seed_stream(seed, stream);
        assert_eq!(plane.rng().next_u64(), fresh.next_u64(), "the plane drew");
    }

    /// Every model on, seed 11. A change here moves every seeded lossy
    /// artefact (`results/ext_lossy_*`, `wire_chaos_quick.*`).
    #[test]
    fn draw_order_is_pinned() {
        const VERDICTS: &str = "\
            ....d.........d...bbbbb....a......d....a..........d............a\
            ..l...lbbblbbblbbblbbblb.blbbblbbblbbblbbbl...la..l...l...la..l.\
            .bbbbbbbbbbbbbbbbbbbbdbbbbbbbbbbbbbb.bbbbbbbbbbbbbbbbbbb........\
            ........d...a.....ad.........d...a.....a.............d..........\
            ..a....d.d.....d......d...a..a...............d..................";
        let cfg = FaultConfig::default()
            .with_burst(GilbertElliott::with_mean_loss(0.2))
            .with_data_drop_prob(0.1)
            .with_ack_drop_prob(0.15)
            .with_link_window(LinkWindow::edge(NodeId::new(2), 64, 128));
        let mut plane = FaultPlane::new(cfg, 11, FABRIC_FAULT_STREAM);
        let got: String = (0..320u64)
            .map(|i| {
                let lane = if i % 3 == 0 {
                    Lane::Reply
                } else {
                    Lane::Request
                };
                match judge(&mut plane, i, (i % 4) as usize, lane) {
                    None => '.',
                    Some(DropReason::Data) => 'd',
                    Some(DropReason::Ack) => 'a',
                    Some(DropReason::Burst) => 'b',
                    Some(DropReason::LinkDown) => 'l',
                }
            })
            .collect();
        assert_eq!(got, VERDICTS);
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
        let mut plane = FaultPlane::new(cfg, 42, FABRIC_FAULT_STREAM);
        let n = 200_000u64;
        let mut drops = 0u64;
        let mut runs = 0u64; // consecutive-drop pairs; bursty => many
        let mut prev = false;
        for i in 0..n {
            let dropped = judge(&mut plane, i, 5, Lane::Request).is_some();
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
        let mut plane = FaultPlane::new(cfg, 3, FABRIC_FAULT_STREAM);
        let mut ack_drops = 0;
        for i in 0..2_000 {
            assert_eq!(judge(&mut plane, i, 2, Lane::Request), None);
            if judge(&mut plane, i, 2, Lane::Reply).is_some() {
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
        let mut plane = FaultPlane::new(cfg, 0, FABRIC_FAULT_STREAM);
        let down = Some(DropReason::LinkDown);
        assert_eq!(judge(&mut plane, 99, 4, Lane::Request), None);
        assert_eq!(judge(&mut plane, 100, 4, Lane::Request), down);
        assert_eq!(judge(&mut plane, 199, 4, Lane::Reply), down);
        assert_eq!(judge(&mut plane, 200, 4, Lane::Request), None);
        // Other destinations are unaffected.
        assert_eq!(judge(&mut plane, 150, 5, Lane::Request), None);
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
    }

    #[test]
    fn same_seed_same_verdicts() {
        let cfg = FaultConfig::default()
            .with_burst(GilbertElliott::with_mean_loss(0.2))
            .with_data_drop_prob(0.05);
        let mut a = FaultPlane::new(cfg.clone(), 11, FABRIC_FAULT_STREAM);
        let mut b = FaultPlane::new(cfg, 11, FABRIC_FAULT_STREAM);
        for i in 0..5_000 {
            let dst = (i % 16) as usize;
            let verdict = judge(&mut a, i, dst, Lane::Request);
            assert_eq!(verdict, judge(&mut b, i, dst, Lane::Request));
        }
    }
}
