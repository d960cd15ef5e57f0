//! Daemon configuration: shard count, batch bounds, and the protocol and
//! supervision presets every hosted endpoint runs.

use nifdy::NifdyConfig;
use nifdy_wire::SupervisorConfig;

/// Configuration for a [`NifdyNode`](crate::NifdyNode) daemon.
///
/// # Examples
///
/// ```
/// use nifdy_node::NodeConfig;
///
/// let cfg = NodeConfig::default().with_shards(8).with_batch(128);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Number of flow-affine shards the endpoint/dialog tables are split
    /// into. Shards are ticked in deterministic order each poll round.
    pub shards: usize,
    /// Maximum frames drained from one carrier lane in one poll round — the
    /// bound that keeps a busy socket from starving the rest of the round.
    pub batch: usize,
    /// The NIFDY protocol config every hosted endpoint runs.
    pub protocol: NifdyConfig,
    /// Heartbeat/liveness/backoff timing for the per-endpoint supervisors.
    pub supervisor: SupervisorConfig,
    /// The epoch the first incarnation of every endpoint announces. A
    /// daemon process restarted from outside passes the next epoch here so
    /// surviving peers in other processes detect the restart
    /// (see [`Supervisor::with_starting_epoch`](nifdy_wire::Supervisor::with_starting_epoch)).
    pub initial_epoch: u32,
    /// Seed for supervisor backoff jitter (decorrelated per node inside).
    pub seed: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            shards: 4,
            batch: 64,
            protocol: NifdyConfig::mesh(),
            supervisor: SupervisorConfig::default(),
            initial_epoch: 0,
            seed: 1,
        }
    }
}

impl NodeConfig {
    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-lane batch-read bound.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the protocol config hosted endpoints run.
    pub fn with_protocol(mut self, protocol: NifdyConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the supervision timing.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Sets the epoch announced by the first incarnation of every endpoint.
    pub fn with_initial_epoch(mut self, epoch: u32) -> Self {
        self.initial_epoch = epoch;
        self
    }

    /// Sets the supervisor jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: a zero shard
    /// count, a zero batch bound, or an invalid protocol or supervisor
    /// config.
    pub fn validate(&self) -> Result<(), String> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            shards,
            batch,
            ref protocol,
            ref supervisor,
            initial_epoch: _,
            seed: _,
        } = *self;
        if shards == 0 {
            return Err("shards must be at least 1".into());
        }
        if batch == 0 {
            return Err("batch must be at least 1 frame per lane per round".into());
        }
        protocol
            .validate()
            .map_err(|why| format!("protocol: {why}"))?;
        supervisor.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(NodeConfig::default().validate().is_ok());
        assert!(NodeConfig::default().with_shards(0).validate().is_err());
        assert!(NodeConfig::default().with_batch(0).validate().is_err());
        // Caught here, not by a panic inside the first `add_endpoint`.
        let mut bad_protocol = NifdyConfig::mesh();
        bad_protocol.opt_entries = 0;
        assert!(NodeConfig::default()
            .with_protocol(bad_protocol)
            .validate()
            .is_err());
        let bad_sup = SupervisorConfig::default().with_heartbeat_every(0);
        assert!(NodeConfig::default()
            .with_supervisor(bad_sup)
            .validate()
            .is_err());
    }
}
