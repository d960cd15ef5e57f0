//! Differential conformance: every clean row of the scenario table
//! through the cycle-accurate fabric and through the loopback byte
//! transport must produce the plan's per-destination delivery orders and
//! identical dialog lifecycles — the headline equivalence claim of the
//! wire stack. (The rows with a fault preset run in `chaos_conformance.rs`.)

use nifdy_trace::{TraceConfig, TraceHandle};
use nifdy_wire::conformance::lifecycle_projection;
use nifdy_wire::scenarios::{Faults, ROWS};

#[test]
fn clean_rows_match_across_stacks() {
    let recorder = || TraceHandle::recording(TraceConfig::new().with_capacity_per_node(1 << 16));
    for row in ROWS.iter().filter(|r| r.faults == Faults::Clean) {
        for &seed in row.seeds {
            let label = format!("{}, seed {seed}", row.name);
            let plan = (row.plan)(seed);
            let (sim_trace, wire_trace) = (recorder(), recorder());
            let sim = row.run(&plan, &mut row.fabric(&plan, &sim_trace), "fabric");
            let wire = row.run(&plan, &mut row.loopback(&plan, &wire_trace), "loopback");
            sim.assert_matches(&wire, &label);

            // Every rotation is pairwise, so the per-role lifecycles are
            // protocol-determined and must agree across the carriers.
            let sim_life = lifecycle_projection(&sim_trace, plan.nodes);
            let wire_life = lifecycle_projection(&wire_trace, plan.nodes);
            assert_eq!(sim_life, wire_life, "{label}: dialog lifecycles diverge");
            // The projection must actually record the dialog machinery
            // (not just trivially match as empty).
            if plan.want_bulk {
                assert!(
                    sim_life.iter().any(|n| n.sender.contains(&"dialog_open")),
                    "{label}: a bulk workload must open dialogs"
                );
                assert!(
                    sim_life
                        .iter()
                        .any(|n| n.receiver.contains(&"dialog_grant")),
                    "{label}: expected at least one dialog_grant event"
                );
            }
        }
    }
}
