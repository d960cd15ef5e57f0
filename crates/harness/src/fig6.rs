//! Figure 6: C-shift throughput on the 32-node CM-5 network, comparing the
//! Strata-style optimized barriers against NIFDY's admission control, with
//! and without exploiting in-order delivery.
//!
//! "Using NIFDY's congestion control alone results in better performance
//! than optimized barriers. When NIFDY's in-order delivery is exploited,
//! the benefit is even greater."

use nifdy_traffic::{CShiftConfig, NetworkKind, NicChoice, Scenario, SoftwareModel};

use crate::exec::{self, Jobs};
use crate::report::Table;
use crate::scale::Scale;

/// One Figure 6 configuration's result.
#[derive(Debug, Clone, PartialEq)]
pub struct CShiftResult {
    /// Configuration label.
    pub config: &'static str,
    /// Cycles to complete all `P − 1` phases.
    pub cycles: u64,
    /// Useful payload words delivered per 1000 cycles.
    pub words_per_kcycle: f64,
}

fn run_one(
    choice: &NicChoice,
    barriers: bool,
    inorder_library: bool,
    scale: Scale,
    seed: u64,
) -> CShiftResult {
    // The CM-5 fat tree reorders packets, so without NIFDY the library must
    // reorder in software.
    let sw = SoftwareModel::cm5_library(!inorder_library);
    let words = crate::fig5::words_for(scale);
    let mut driver = Scenario::new(NetworkKind::Cm5)
        .nodes(32)
        .seed(seed)
        .nic(choice.clone())
        .software(sw)
        .build_with(|sc| {
            CShiftConfig::new(words, sc.sw())
                .with_barriers(barriers)
                .build(sc.nodes())
        })
        .expect("figure cell builds");
    let cap = scale.cycles(40_000_000);
    let finished = driver.run_until_quiet(cap);
    let cycles = driver.fabric().now().as_u64();
    let words_delivered = driver.user_words_received();
    CShiftResult {
        config: "",
        cycles: if finished { cycles } else { cap },
        words_per_kcycle: words_delivered as f64 / (cycles.max(1) as f64 / 1000.0),
    }
}

/// Runs all Figure 6 configurations, fanned across `jobs` workers. Every
/// configuration shares one derived seed: they are columns of one
/// comparison.
pub fn run(scale: Scale, seed: u64, jobs: Jobs) -> (Table, Vec<CShiftResult>) {
    let cell = exec::cell_seed("fig6", 0, seed);
    let preset = NetworkKind::Cm5.nifdy_preset();
    let cases: [(&'static str, NicChoice, bool, bool); 5] = [
        ("none", NicChoice::Plain, false, false),
        ("none+barriers", NicChoice::Plain, true, false),
        (
            "buffers",
            NicChoice::BuffersOnly(preset.clone()),
            false,
            false,
        ),
        (
            "nifdy (flow ctl only)",
            NicChoice::Nifdy(preset.clone()),
            false,
            false,
        ),
        ("nifdy + in-order", NicChoice::Nifdy(preset), false, true),
    ];
    let mut table = Table::new(
        "Figure 6: C-shift on the 32-node CM-5 network",
        vec![
            "config".into(),
            "completion cycles".into(),
            "words/kcycle".into(),
        ],
    );
    let results = exec::map(
        jobs,
        cases.to_vec(),
        |(label, choice, barriers, inorder), _| {
            let mut r = run_one(&choice, barriers, inorder, scale, cell);
            r.config = label;
            r
        },
    );
    for r in &results {
        table.row(vec![
            r.config.into(),
            r.cycles.to_string(),
            format!("{:.1}", r.words_per_kcycle),
        ]);
    }
    (table, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configurations_complete_and_nifdy_inorder_wins() {
        let (_, results) = run(Scale::Smoke, 7, Jobs::new(4));
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.cycles > 0 && r.words_per_kcycle > 0.0, "{:?}", r);
        }
        let flow_only = &results[3];
        let inorder = &results[4];
        // The in-order library sends fewer, denser packets over the same
        // protocol: it must deliver at least as many words per cycle.
        assert!(
            inorder.words_per_kcycle >= flow_only.words_per_kcycle * 0.95,
            "nifdy+in-order ({:.1}) should beat nifdy- ({:.1})",
            inorder.words_per_kcycle,
            flow_only.words_per_kcycle
        );
    }
}
