//! Figures 2 and 3: packets delivered in 1,000,000 cycles, per network,
//! for {no NIFDY, buffering only, NIFDY} under the heavy and light synthetic
//! patterns of §4.1.

use nifdy_traffic::{NetworkKind, NicChoice, Scenario, SyntheticConfig};

use crate::exec::{self, Jobs};
use crate::report::Table;
use crate::scale::Scale;

/// One bar of Figure 2/3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputPoint {
    /// Network label.
    pub network: &'static str,
    /// Interface configuration label (`none` / `buffers` / `nifdy`).
    pub config: &'static str,
    /// Packets delivered to processors within the measurement window.
    pub packets: u64,
}

/// Runs one synthetic-traffic cell.
pub fn run_cell(
    kind: NetworkKind,
    choice: &NicChoice,
    heavy: bool,
    scale: Scale,
    seed: u64,
) -> u64 {
    let mut driver = Scenario::new(kind)
        .seed(seed)
        .nic(choice.clone())
        .build_with(|sc| {
            let cfg = if heavy {
                SyntheticConfig::heavy(sc.seed())
            } else {
                SyntheticConfig::light(sc.seed())
            };
            cfg.build(sc.nodes())
        })
        .expect("figure cell builds");
    driver.run_cycles(scale.cycles(1_000_000));
    driver.packets_received()
}

/// Runs the full figure: every network × the three interface models, fanned
/// across `jobs` workers. The three cells of one row share a derived seed so
/// the interface comparison stays paper-fair.
pub fn run(heavy: bool, scale: Scale, seed: u64, jobs: Jobs) -> (Table, Vec<ThroughputPoint>) {
    let experiment = if heavy { "fig2" } else { "fig3" };
    let title = if heavy {
        format!(
            "Figure 2: packets delivered in {} cycles, HEAVY synthetic traffic",
            scale.cycles(1_000_000)
        )
    } else {
        format!(
            "Figure 3: packets delivered in {} cycles, LIGHT synthetic traffic",
            scale.cycles(1_000_000)
        )
    };
    let mut table = Table::new(
        title,
        vec![
            "network".into(),
            "none".into(),
            "buffers".into(),
            "nifdy".into(),
            "nifdy/none".into(),
        ],
    );
    let mut cells = Vec::new();
    for (row, kind) in NetworkKind::ALL.into_iter().enumerate() {
        let preset = kind.nifdy_preset();
        let row_seed = exec::cell_seed(experiment, row as u64, seed);
        for choice in [
            NicChoice::Plain,
            NicChoice::BuffersOnly(preset.clone()),
            NicChoice::Nifdy(preset.clone()),
        ] {
            cells.push((kind, choice, row_seed));
        }
    }
    let results = exec::map(jobs, cells, |(kind, choice, s), _| {
        let pkts = run_cell(kind, &choice, heavy, scale, s);
        ThroughputPoint {
            network: kind.label(),
            config: choice.label(),
            packets: pkts,
        }
    });
    let mut points = Vec::new();
    for (row, kind) in NetworkKind::ALL.into_iter().enumerate() {
        let cells = &results[row * 3..row * 3 + 3];
        table.row(vec![
            kind.label().into(),
            cells[0].packets.to_string(),
            cells[1].packets.to_string(),
            cells[2].packets.to_string(),
            format!(
                "{:.2}",
                cells[2].packets as f64 / cells[0].packets.max(1) as f64
            ),
        ]);
        points.extend(cells.iter().cloned());
    }
    (table, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_mesh_nifdy_beats_plain() {
        let preset = NetworkKind::Mesh2D.nifdy_preset();
        let plain = run_cell(
            NetworkKind::Mesh2D,
            &NicChoice::Plain,
            true,
            Scale::Smoke,
            1,
        );
        let nifdy = run_cell(
            NetworkKind::Mesh2D,
            &NicChoice::Nifdy(preset),
            true,
            Scale::Smoke,
            1,
        );
        assert!(plain > 0 && nifdy > 0);
        assert!(
            nifdy as f64 >= 0.9 * plain as f64,
            "NIFDY must not collapse under heavy mesh traffic: {nifdy} vs {plain}"
        );
    }

    #[test]
    fn light_fat_tree_all_configs_deliver() {
        for choice in [
            NicChoice::Plain,
            NicChoice::Nifdy(NetworkKind::FatTree.nifdy_preset()),
        ] {
            let pkts = run_cell(NetworkKind::FatTree, &choice, false, Scale::Smoke, 2);
            assert!(pkts > 0, "{:?} delivered nothing", choice.label());
        }
    }
}
