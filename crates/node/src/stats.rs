//! Daemon counters: per-shard and whole-node frame accounting.

/// Per-shard frame and delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames demultiplexed into this shard's endpoints.
    pub frames_in: u64,
    /// Frames this shard's endpoints emitted toward a carrier.
    pub frames_out: u64,
    /// Packets delivered to this shard's receive handlers.
    pub delivered: u64,
    /// Typed delivery failures surfaced by this shard's endpoints.
    pub failures: u64,
}

/// Whole-daemon counters, with a per-shard breakdown.
///
/// Carrier-level counters (UDP refused/oversize/transport errors) are
/// deliberately *not* mirrored here: they belong to the carrier and are
/// read through [`NifdyNode::carrier_mut`](crate::NifdyNode::carrier_mut),
/// so the daemon never has to know which transport it runs on.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Completed poll rounds.
    pub rounds: u64,
    /// Frames demultiplexed into hosted endpoints (local + carrier).
    /// Beacons are not frames here: see `heartbeats_in`.
    pub frames_in: u64,
    /// Endpoint frames flushed toward carriers (beacons aside).
    pub frames_out: u64,
    /// Beacons sent to monitored peer daemons.
    pub heartbeats_out: u64,
    /// Beacons addressed to this daemon that arrived on a carrier.
    pub heartbeats_in: u64,
    /// Frames routed daemon-internally (both endpoints hosted here).
    pub local_frames: u64,
    /// Frames whose destination is neither hosted nor routed.
    pub unroutable: u64,
    /// Carrier frames too short to carry a destination (no route peeked),
    /// and beacons addressed to another carrier address.
    pub foreign: u64,
    /// Always 0: a hosted endpoint is never down while its daemon runs.
    /// Kept only because `nifdy-bench` sums it; remove it once the
    /// benchmark does not.
    pub dropped_down: u64,
    /// Packets delivered across all shards.
    pub delivered: u64,
    /// Per-shard breakdown, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl NodeStats {
    /// Creates zeroed stats for `shards` shards.
    pub fn new(shards: usize) -> Self {
        NodeStats {
            shards: vec![ShardStats::default(); shards],
            ..NodeStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_start_zeroed_per_shard() {
        let s = NodeStats::new(3);
        assert_eq!(s.shards.len(), 3);
        assert_eq!(s.frames_in, 0);
        assert_eq!(s.shards[2], ShardStats::default());
    }
}
