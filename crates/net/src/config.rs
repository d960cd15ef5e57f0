//! Fabric-wide configuration knobs.

use crate::fabric::MAX_PACKET_FLITS;
use crate::fault::FaultConfig;

/// How routers forward packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchingPolicy {
    /// Wormhole routing: a flit may advance as soon as the downstream virtual
    /// channel has space for one flit; a blocked worm stalls in place across
    /// several routers.
    #[default]
    Wormhole,
    /// Virtual cut-through: the head may advance only if the downstream
    /// virtual channel can buffer the *entire* packet, so blocked packets
    /// collapse into one router instead of stalling across links.
    CutThrough,
    /// Store-and-forward: additionally, the whole packet must be present in
    /// the local buffer before the head may advance.
    StoreAndForward,
}

/// Static configuration of a [`Fabric`](crate::Fabric).
///
/// Defaults follow the paper's common case: wormhole switching, one virtual
/// channel per logical network, two-flit channel buffers (the simulated
/// mesh's "each flit buffer holds at most two flits"). Link width is fixed:
/// every fabric has one-byte links, so a 32-bit flit serializes in 4 cycles.
///
/// # Examples
///
/// ```
/// use nifdy_net::{FabricConfig, SwitchingPolicy};
///
/// let cfg = FabricConfig::default()
///     .with_policy(SwitchingPolicy::CutThrough)
///     .with_vc_buf_flits(8);
/// assert_eq!(cfg.vc_buf_flits, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Virtual channels per logical network (lane). Tori need 2 for
    /// dateline deadlock avoidance; meshes need only 1.
    pub vcs_per_lane: u8,
    /// Capacity of each virtual-channel buffer, in flits.
    pub vc_buf_flits: u16,
    /// Forwarding policy.
    pub policy: SwitchingPolicy,
    /// If set, the two lanes are *strictly* time-multiplexed: a link advances
    /// request flits only on even cycles and reply flits only on odd cycles,
    /// as on the CM-5 ("each network is limited to eight bits every two
    /// cycles regardless of the traffic on the other network"). When unset,
    /// lanes are demand-multiplexed over the full link bandwidth.
    pub time_mux_lanes: bool,
    /// Seed of the fault plane's generator, the fabric's only randomness:
    /// routing never draws, so a fabric whose `fault` is inactive behaves
    /// the same at every seed.
    pub seed: u64,
    /// Fault-injection plane configuration (bursty loss, lane-asymmetric
    /// loss, scheduled link outages). Inactive by default, which models the
    /// reliable MPP networks of §1.1.
    pub fault: FaultConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            vcs_per_lane: 1,
            vc_buf_flits: 2,
            policy: SwitchingPolicy::Wormhole,
            time_mux_lanes: false,
            seed: 0,
            fault: FaultConfig::default(),
        }
    }
}

impl FabricConfig {
    /// Sets the switching policy.
    pub fn with_policy(mut self, policy: SwitchingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-VC buffer capacity in flits.
    pub fn with_vc_buf_flits(mut self, flits: u16) -> Self {
        self.vc_buf_flits = flits;
        self
    }

    /// Sets the number of virtual channels per lane.
    pub fn with_vcs_per_lane(mut self, vcs: u8) -> Self {
        self.vcs_per_lane = vcs;
        self
    }

    /// Enables or disables strict lane time multiplexing (CM-5 style).
    pub fn with_time_mux(mut self, on: bool) -> Self {
        self.time_mux_lanes = on;
        self
    }

    /// The §6.2 lossy network: every fully delivered packet, data or ack,
    /// is dropped at the receiving edge with probability `p`. Sets both
    /// lane probabilities of [`fault`](Self::fault); a later
    /// [`with_fault`](Self::with_fault) replaces them.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.fault = self.fault.with_data_drop_prob(p).with_ack_drop_prob(p);
        self
    }

    /// Sets the seed of the fault plane's generator.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection plane configuration.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Total virtual channels per input port (both lanes).
    #[inline]
    pub fn total_vcs(&self) -> usize {
        2 * self.vcs_per_lane as usize
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint, e.g. a
    /// cut-through configuration whose VC buffers cannot hold a whole packet.
    pub fn validate(&self) -> Result<(), String> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            vcs_per_lane,
            vc_buf_flits,
            policy,
            time_mux_lanes: _,
            seed: _,
            ref fault,
        } = *self;
        if vcs_per_lane == 0 {
            return Err("vcs_per_lane must be at least 1".into());
        }
        if vc_buf_flits == 0 {
            return Err("vc_buf_flits must be at least 1".into());
        }
        if policy != SwitchingPolicy::Wormhole && vc_buf_flits < MAX_PACKET_FLITS {
            return Err(format!(
                "{policy:?} requires vc_buf_flits ({vc_buf_flits}) >= MAX_PACKET_FLITS ({MAX_PACKET_FLITS})"
            ));
        }
        fault.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(FabricConfig::default().validate(), Ok(()));
    }

    #[test]
    fn cut_through_needs_packet_sized_buffers() {
        let cfg = FabricConfig::default().with_policy(SwitchingPolicy::CutThrough);
        assert!(cfg.validate().is_err());
        let ok = cfg.with_vc_buf_flits(8);
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn rejects_degenerate_values() {
        assert!(FabricConfig::default()
            .with_vcs_per_lane(0)
            .validate()
            .is_err());
        assert!(FabricConfig::default()
            .with_vc_buf_flits(0)
            .validate()
            .is_err());
        assert!(FabricConfig::default()
            .with_drop_prob(1.5)
            .validate()
            .is_err());
    }

    #[test]
    fn drop_prob_is_both_lanes_of_the_fault_plane() {
        let lanes = |p| {
            FaultConfig::default()
                .with_data_drop_prob(p)
                .with_ack_drop_prob(p)
        };
        let sugar = FabricConfig::default().with_drop_prob(0.2);
        assert_eq!(sugar, FabricConfig::default().with_fault(lanes(0.2)));
        let replaced = sugar.with_fault(FaultConfig::default().with_ack_drop_prob(0.1));
        assert_eq!(replaced.fault.data_drop_prob, 0.0, "with_fault replaces");
    }

    #[test]
    fn total_vcs_covers_both_lanes() {
        assert_eq!(FabricConfig::default().with_vcs_per_lane(2).total_vcs(), 4);
    }

    #[test]
    fn fault_plane_config_is_validated_too() {
        let bad =
            FabricConfig::default().with_fault(FaultConfig::default().with_data_drop_prob(3.0));
        assert!(bad.validate().is_err());
        let good =
            FabricConfig::default().with_fault(FaultConfig::default().with_ack_drop_prob(0.1));
        assert_eq!(good.validate(), Ok(()));
    }
}
