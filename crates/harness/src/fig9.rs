//! Figure 9: cycles for one scan phase of radix sort on the three fat-tree
//! variants, with and without inter-send delays, with and without NIFDY —
//! plus the §4.5 coalesce-phase observation ("results were virtually
//! identical with and without NIFDY").

use nifdy_traffic::{CoalesceConfig, NetworkKind, NicChoice, ScanConfig, Scenario, SoftwareModel};

use crate::exec::{self, Jobs};
use crate::report::Table;
use crate::scale::Scale;

/// The three networks of Figure 9.
pub const FIG9_NETWORKS: [NetworkKind; 3] = [
    NetworkKind::FatTree,
    NetworkKind::Cm5,
    NetworkKind::SfFatTree,
];

/// One scan-phase measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPoint {
    /// Network label.
    pub network: &'static str,
    /// Whether artificial inter-send delays were inserted.
    pub with_delay: bool,
    /// Interface configuration label.
    pub config: &'static str,
    /// Cycles for the whole scan phase.
    pub cycles: u64,
}

/// Runs one scan-phase cell on 64 processors with an 8-bit radix.
pub fn run_scan(kind: NetworkKind, choice: &NicChoice, delay: u64, scale: Scale, seed: u64) -> u64 {
    let sw = SoftwareModel::cm5_library(!kind.reorders());
    let mut driver = Scenario::new(kind)
        .seed(seed)
        .nic(choice.clone())
        .software(sw)
        .build_with(|sc| {
            let mut cfg = ScanConfig::radix8(sc.sw()).with_delay(delay);
            cfg.buckets = scale.count(256) as u32;
            cfg.build(sc.nodes())
        })
        .expect("figure cell builds");
    let finished = driver.run_until_quiet(scale.cycles(1_000_000_000));
    debug_assert!(finished, "scan never finished");
    driver.fabric().now().as_u64()
}

/// Runs the coalesce phase (random single-packet key sends).
pub fn run_coalesce(kind: NetworkKind, choice: &NicChoice, scale: Scale, seed: u64) -> u64 {
    let sw = SoftwareModel::cm5_library(!kind.reorders());
    let mut driver = Scenario::new(kind)
        .seed(seed)
        .nic(choice.clone())
        .software(sw)
        .build_with(|sc| {
            CoalesceConfig {
                keys_per_node: scale.count(256) as u32,
                seed: sc.seed(),
                sw: sc.sw(),
            }
            .build(sc.nodes())
        })
        .expect("figure cell builds");
    let finished = driver.run_until_quiet(scale.cycles(1_000_000_000));
    debug_assert!(finished, "coalesce never finished");
    driver.fabric().now().as_u64()
}

/// Runs the full figure plus the coalesce side table, fanned across `jobs`
/// workers. The four scan cells of one network row share a derived seed, as
/// do the two coalesce cells.
pub fn run(scale: Scale, seed: u64, jobs: Jobs) -> (Table, Table, Vec<ScanPoint>) {
    let delay = 60;
    let mut scan_table = Table::new(
        "Figure 9: cycles for one radix-sort scan phase (8-bit radix, 64 procs)",
        vec![
            "network".into(),
            "no delay / none".into(),
            "no delay / nifdy".into(),
            "delay / none".into(),
            "delay / nifdy".into(),
        ],
    );
    enum Cell {
        Scan {
            kind: NetworkKind,
            label: &'static str,
            choice: NicChoice,
            delay: u64,
            seed: u64,
        },
        Coalesce {
            choice: NicChoice,
            seed: u64,
        },
    }
    let mut cells = Vec::new();
    for (row, kind) in FIG9_NETWORKS.into_iter().enumerate() {
        let preset = kind.nifdy_preset();
        let row_seed = exec::cell_seed("fig9", row as u64, seed);
        for &d in &[0u64, delay] {
            for (label, choice) in [
                ("none", NicChoice::Plain),
                ("nifdy", NicChoice::Nifdy(preset.clone())),
            ] {
                cells.push(Cell::Scan {
                    kind,
                    label,
                    choice,
                    delay: d,
                    seed: row_seed,
                });
            }
        }
    }
    let coalesce_kind = NetworkKind::FatTree;
    let coalesce_seed = exec::cell_seed("fig9.coalesce", 0, seed);
    for choice in [
        NicChoice::Plain,
        NicChoice::Nifdy(coalesce_kind.nifdy_preset()),
    ] {
        cells.push(Cell::Coalesce {
            choice,
            seed: coalesce_seed,
        });
    }
    let results = exec::map(jobs, cells, |cell, _| match cell {
        Cell::Scan {
            kind,
            label,
            choice,
            delay,
            seed,
        } => {
            let cycles = run_scan(kind, &choice, delay, scale, seed);
            ScanPoint {
                network: kind.label(),
                with_delay: delay > 0,
                config: label,
                cycles,
            }
        }
        Cell::Coalesce { choice, seed } => {
            let cycles = run_coalesce(coalesce_kind, &choice, scale, seed);
            ScanPoint {
                network: coalesce_kind.label(),
                with_delay: false,
                config: "coalesce",
                cycles,
            }
        }
    });
    let scan_count = FIG9_NETWORKS.len() * 4;
    let mut points = Vec::new();
    for (row, kind) in FIG9_NETWORKS.into_iter().enumerate() {
        let mut cells = vec![kind.label().to_string()];
        for p in &results[row * 4..row * 4 + 4] {
            cells.push(p.cycles.to_string());
            points.push(p.clone());
        }
        scan_table.row(cells);
    }

    let mut coalesce_table = Table::new(
        "§4.5 coalesce phase: cycles (NIFDY ≈ none expected)",
        vec!["network".into(), "none".into(), "nifdy".into()],
    );
    let coalesce: Vec<u64> = results[scan_count..].iter().map(|p| p.cycles).collect();
    coalesce_table.row(vec![
        coalesce_kind.label().into(),
        coalesce[0].to_string(),
        coalesce[1].to_string(),
    ]);
    (scan_table, coalesce_table, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_help_the_plain_interface() {
        let kind = NetworkKind::FatTree;
        let no_delay = run_scan(kind, &NicChoice::Plain, 0, Scale::Smoke, 11);
        let with_delay = run_scan(kind, &NicChoice::Plain, 60, Scale::Smoke, 11);
        assert!(no_delay > 0 && with_delay > 0);
        // The paper: "adding delays between successive sends helped in all
        // cases" — at minimum it must not be catastrophically worse.
        assert!(
            with_delay as f64 <= 1.6 * no_delay as f64,
            "delay {with_delay} vs none {no_delay}"
        );
    }

    #[test]
    fn coalesce_is_insensitive_to_nifdy() {
        let kind = NetworkKind::FatTree;
        let none = run_coalesce(kind, &NicChoice::Plain, Scale::Smoke, 12);
        let with = run_coalesce(
            kind,
            &NicChoice::Nifdy(kind.nifdy_preset()),
            Scale::Smoke,
            12,
        );
        let ratio = with as f64 / none as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "coalesce should be roughly unchanged: ratio {ratio}"
        );
    }
}
