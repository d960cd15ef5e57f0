//! One small rotation — the scenario table's first row — through all four
//! carriers the repository runs NIFDY on: the flit-level fabric, the byte
//! stack over the loopback hub, a sharded daemon, and two daemons over a
//! hub. Each must reproduce the plan's per-pair delivery log (the row's
//! expectation), so the root test suite fails when any layer breaks.

use nifdy_node::workload::DaemonSet;
use nifdy_node::NodeConfig;
use nifdy_trace::TraceHandle;
use nifdy_wire::scenarios::ROWS;

#[test]
fn four_node_rotation_delivers_the_same_log_at_every_layer() {
    let (row, off) = (&ROWS[0], TraceHandle::off());
    let plan = (row.plan)(row.seeds[0]);
    assert_eq!(plan.nodes, 4);
    let cfg = NodeConfig::default().with_shards(2);
    row.run(&plan, &mut row.fabric(&plan, &off), "fabric");
    row.run(&plan, &mut row.loopback(&plan, &off), "loopback");
    row.run(&plan, &mut DaemonSet::new(4, 1, &cfg), "2-shard daemon");
    row.run(&plan, &mut DaemonSet::new(4, 2, &cfg), "two daemons");
}
