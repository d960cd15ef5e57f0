//! One small rotation through all four layers the repository runs NIFDY
//! at: the flit-level fabric, the byte stack over the loopback hub, the
//! daemon's simulator reference, and a sharded daemon. Each must reproduce
//! the same per-pair delivery log, so the root test suite fails when any
//! layer breaks.

use nifdy_node::workload::{run_local, run_sim_reference, SwarmPlan};
use nifdy_node::NodeConfig;
use nifdy_wire::conformance::{self, WorkloadSpec};

#[test]
fn four_node_rotation_delivers_the_same_log_at_every_layer() {
    let spec = WorkloadSpec {
        nodes: 4,
        messages: 2,
        packets_per_message: 4,
        seed: 1,
        ..Default::default()
    };
    let plan = SwarmPlan::rotation(4, 2, 4, 6, true, 1);
    let expected = spec.expected_log();
    assert_eq!(
        plan.expected_log(),
        expected,
        "wire and node describe different rotations"
    );

    assert_eq!(conformance::run_fabric(&spec).log, expected, "flit fabric");
    assert_eq!(
        conformance::run_loopback(&spec, 2, 4).log,
        expected,
        "byte stack over loopback"
    );
    assert_eq!(
        run_sim_reference(&plan, spec.max_cycles),
        expected,
        "daemon sim reference"
    );
    let local = run_local(&plan, NodeConfig::default().with_shards(2), 200_000);
    assert_eq!(local.log, expected, "2-shard daemon");
}
