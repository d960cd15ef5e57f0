//! Liveness settings and events. The liveness protocol itself runs in the
//! `nifdy-node` daemon, once per process; a standalone [`WireEndpoint`]
//! has none.
//!
//! The protocol unit assumes its peer's interface state is durable — bulk
//! dialogs, duplicate bits, and grants all persist "forever" in the paper's
//! model. A real process crashes and takes every endpoint it hosts with it.
//! So every daemon incarnation carries an **epoch**, announced in periodic
//! [`Heartbeat`](crate::Heartbeat) frames to each peer daemon it monitors.
//! Prolonged silence flags a peer down ([`PeerEvent::Down`]); an **epoch
//! increase** proves the peer restarted ([`PeerEvent::Restarted`]), and the
//! survivor calls [`WireEndpoint::reset_peer`] on every hosted endpoint for
//! every node behind that peer, so both sides re-handshake from a clean
//! slate.
//!
//! Silence alone never resets protocol state: a partitioned peer that
//! reappears with the *same* epoch resumes exactly where it left off (its
//! retransmission machinery self-heals), which is why detection keys on the
//! epoch, not the timeout.
//!
//! [`WireEndpoint`]: crate::WireEndpoint
//! [`WireEndpoint::reset_peer`]: crate::WireEndpoint::reset_peer

use nifdy_sim::NodeId;

/// Timing knobs for heartbeats and liveness detection, in cycles.
///
/// # Examples
///
/// ```
/// use nifdy_wire::SupervisorConfig;
///
/// let cfg = SupervisorConfig::default().with_heartbeat_every(128);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Cycles between beacons to every monitored peer.
    pub heartbeat_every: u64,
    /// Cycles without a beacon after which a peer is flagged down.
    pub peer_timeout: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_every: 256,
            peer_timeout: 2_048,
        }
    }
}

impl SupervisorConfig {
    /// Sets the heartbeat broadcast period.
    pub fn with_heartbeat_every(mut self, cycles: u64) -> Self {
        self.heartbeat_every = cycles;
        self
    }

    /// Sets the peer-silence threshold.
    pub fn with_peer_timeout(mut self, cycles: u64) -> Self {
        self.peer_timeout = cycles;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: a zero
    /// heartbeat period, or a timeout that a healthy peer's own heartbeat
    /// cadence would trip.
    pub fn validate(&self) -> Result<(), String> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            heartbeat_every,
            peer_timeout,
        } = *self;
        if heartbeat_every == 0 {
            return Err("heartbeat_every must be at least 1 cycle".into());
        }
        if peer_timeout <= 2 * heartbeat_every {
            return Err(format!(
                "peer_timeout ({}) must exceed two heartbeat periods ({}): \
                 one lost beacon would otherwise flap the peer down",
                peer_timeout,
                2 * heartbeat_every
            ));
        }
        Ok(())
    }
}

/// A liveness transition a daemon observed about a peer daemon. `peer` is
/// the peer's carrier-level address, the one its beacons come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// A monitored peer has been silent past the timeout.
    Down {
        /// The silent peer daemon.
        peer: NodeId,
        /// Cycles since its last heartbeat.
        silent_for: u64,
    },
    /// A monitored peer reappeared with a higher epoch: it crashed and
    /// restarted, and the entangled protocol state has been reset.
    Restarted {
        /// The restarted peer daemon.
        peer: NodeId,
        /// Its new incarnation's epoch.
        epoch: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_supervisor_configs_are_rejected() {
        assert!(SupervisorConfig::default()
            .with_heartbeat_every(0)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default()
            .with_heartbeat_every(100)
            .with_peer_timeout(150)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default().validate().is_ok());
    }
}
