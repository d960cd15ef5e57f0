//! The scenario table: seeded plans, the carrier conditions they run
//! under, and what every carrier must then report.
//!
//! Each carrier's test harness iterates [`ROWS`] against its own
//! [`NodeSet`] (`tests/conformance.rs` and `tests/chaos_conformance.rs`
//! here, on fabric and loopback; `nifdy-node`'s `tests/daemon.rs` appends
//! the EM3D rows and adds the daemon sets), so a new scenario is one row
//! and every carrier inherits it.

use nifdy::NifdyConfig;
use nifdy_net::{GilbertElliott, LinkWindow};
use nifdy_trace::TraceHandle;

use crate::conformance::{
    chaos_config, run, FabricSet, LoopbackSet, NodeSet, RunReport, SwarmPlan, CHAOS_QUIESCE_GRACE,
};
use crate::fault::WireFaultConfig;

/// The fault preset of a [`Scenario`] row, translated per carrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Both fault planes inactive.
    Clean,
    /// Recoverable chaos under a generous retry budget: the same bursty loss
    /// on both planes; the wire plane also corrupts, duplicates, delays and
    /// reorders frames.
    Recoverable,
    /// The destination of node 0's first packet is blackholed for the whole
    /// run, under a tight retry budget. A window is judged against the
    /// destination without a draw, so the two carriers' reports must agree
    /// exactly.
    Partition,
}

impl Faults {
    /// The protocol config and the wire plane's faults; the fabric's plane
    /// runs the same [`loss`](WireFaultConfig::loss).
    fn configs(self, plan: &SwarmPlan) -> (NifdyConfig, WireFaultConfig) {
        let wire = WireFaultConfig::default();
        match self {
            Faults::Clean => (NifdyConfig::mesh(), wire),
            Faults::Recoverable => {
                let wire = wire
                    .with_burst(GilbertElliott::with_mean_loss(0.02))
                    .with_corrupt_prob(0.05)
                    .with_duplicate_prob(0.05)
                    .with_delay(0.05, 8)
                    .with_reorder_prob(0.05);
                (chaos_config(30), wire)
            }
            Faults::Partition => {
                let dead = LinkWindow::edge(plan.sends[0][0].dst, 0, u64::MAX);
                (chaos_config(3), wire.with_partition(dead))
            }
        }
    }
}

/// Expectation: the run delivered exactly the plan, in send order, with no
/// typed failure.
pub fn delivers_the_plan(plan: &SwarmPlan, report: &RunReport, label: &str) {
    let expected = plan.expected_log();
    assert_eq!(report.log, expected, "{label}: send order violated");
    let failures = &report.failures;
    assert!(failures.is_empty(), "{label}: typed failures {failures:?}");
}

/// Expectation under [`Faults::Partition`]: nothing crosses the partition,
/// every packet node 0 sent toward it surfaces as a typed scalar failure
/// (bulk never opens: the grant would have to cross the partition), and
/// pairs that do not end at the dead node deliver in clean order (the dead
/// node's own sends arrive; only their acks are swallowed).
pub fn fails_toward_the_partition(plan: &SwarmPlan, report: &RunReport, label: &str) {
    let dead = plan.sends[0][0].dst;
    let cut = (0, dead.index());
    let lost = plan.sends[0].iter().filter(|p| p.dst == dead).count() as u64;
    let failed = report
        .failures
        .get(&cut)
        .and_then(|kinds| kinds.get("scalar"));
    assert_eq!(failed, Some(&lost), "{label}: not every cut packet failed");
    for (pair, order) in plan.expected_log() {
        let got = report.log.get(&pair);
        if pair == cut {
            assert_eq!(got, None, "{label}: packets crossed the partition");
        } else if pair.1 != cut.1 {
            assert_eq!(got, Some(&order), "{label}: untouched pair {pair:?}");
        }
    }
}

/// One row of the scenario table.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Row name, for failure messages.
    pub name: &'static str,
    /// Builds the plan for one seed.
    pub plan: fn(u64) -> SwarmPlan,
    /// The seeds the row runs at.
    pub seeds: &'static [u64],
    /// `(latency, jitter)` for carriers that have a hub; jitter needs one.
    pub hub: (u64, u64),
    /// Fault preset, for carriers that have a fault plane (the others skip
    /// rows whose preset is not [`Faults::Clean`]).
    pub faults: Faults,
    /// Checks one run's report against the plan; panics on violation.
    pub expect: fn(&SwarmPlan, &RunReport, &str),
}

impl Scenario {
    /// The row's [`FabricSet`] for `plan`.
    pub fn fabric(&self, plan: &SwarmPlan, trace: &TraceHandle) -> FabricSet {
        let (cfg, faults) = self.faults.configs(plan);
        FabricSet::new(plan, cfg, faults.loss, trace)
    }

    /// The row's [`LoopbackSet`] for `plan`.
    pub fn loopback(&self, plan: &SwarmPlan, trace: &TraceHandle) -> LoopbackSet {
        let (cfg, faults) = self.faults.configs(plan);
        LoopbackSet::new(plan, self.hub, cfg, &faults, trace)
    }

    /// Runs `plan` on `set` (clean rows end at the first quiet tick, fault
    /// rows after [`CHAOS_QUIESCE_GRACE`]), then checks the row's
    /// expectation and the set's own [`audit`](NodeSet::audit).
    pub fn run(&self, plan: &SwarmPlan, set: &mut impl NodeSet, carrier: &str) -> RunReport {
        let grace = match self.faults {
            Faults::Clean => 0,
            Faults::Recoverable | Faults::Partition => CHAOS_QUIESCE_GRACE,
        };
        let report = run(set, plan, grace, 2_000_000);
        let label = format!("{}, seed {}, {carrier}", self.name, plan.seed);
        (self.expect)(plan, &report, &label);
        set.audit(&label);
        report
    }
}

type Plan = fn(u64) -> SwarmPlan;

const fn clean(name: &'static str, plan: Plan, seeds: &'static [u64], hub: (u64, u64)) -> Scenario {
    Scenario {
        name,
        plan,
        seeds,
        hub,
        faults: Faults::Clean,
        expect: delivers_the_plan,
    }
}

const SIX_NODES: Plan = |seed| SwarmPlan::rotation(6, 2, 12, 6, true, seed);
const FOUR_NODES: Plan = |seed| SwarmPlan::rotation(4, 2, 6, 6, true, seed);
const CHAOS: Scenario = clean("", FOUR_NODES, &[1, 7, 23], (2, 1));

/// The rotation rows. The hub's jitter deliberately reorders frames in
/// flight; the protocol's own sequencing (OPT + bulk window) must still
/// deliver every pair's packets in send order.
pub const ROWS: [Scenario; 10] = [
    clean(
        "bulk rotation",
        |s| SwarmPlan::rotation(4, 3, 10, 6, true, s),
        &[11],
        (4, 0),
    ),
    clean(
        "scalar rotation",
        |s| SwarmPlan::rotation(4, 4, 3, 6, false, s),
        &[3],
        (2, 0),
    ),
    clean("calm rotation", SIX_NODES, &[42], (3, 0)),
    clean("jittered rotation (5)", SIX_NODES, &[42], (3, 5)),
    clean("jittered rotation (35)", SIX_NODES, &[42], (3, 35)),
    clean("jittered rotation (65)", SIX_NODES, &[42], (3, 65)),
    clean("seed sweep", FOUR_NODES, &[0, 1, 2, 9, 77], (1, 2)),
    clean(
        "wide rotation",
        |s| SwarmPlan::rotation(96, 1, 2, 6, false, s),
        &[7],
        (2, 0),
    ),
    Scenario {
        name: "recoverable chaos",
        faults: Faults::Recoverable,
        ..CHAOS
    },
    Scenario {
        name: "permanent partition",
        faults: Faults::Partition,
        expect: fails_toward_the_partition,
        ..CHAOS
    },
];
