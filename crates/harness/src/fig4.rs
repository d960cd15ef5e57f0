//! Figure 4: scalability of the NIFDY parameters. Throughput on full fat
//! trees of growing size, normalized to the same network without NIFDY,
//! while sweeping the buffer pool size `B` (left panel) and the OPT size
//! `O` (right panel). "Using only short messages and no bulk dialogs in
//! order to concentrate on the effects of O and B."

use nifdy::NifdyConfig;
use nifdy_traffic::{NetworkKind, NicChoice, Scenario, SyntheticConfig};

use crate::exec::{self, Jobs};
use crate::report::Table;
use crate::scale::Scale;

/// Machine sizes swept (the paper goes to 256 nodes).
pub const SIZES: [usize; 3] = [16, 64, 256];
/// Parameter values swept for both `B` and `O`.
pub const SWEEP: [u8; 4] = [2, 4, 8, 16];

/// One measured point of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Machine size in nodes.
    pub nodes: usize,
    /// Swept parameter name (`"B"` or `"O"`).
    pub param: &'static str,
    /// Swept parameter value.
    pub value: u8,
    /// Throughput relative to the plain interface on the same network.
    pub normalized: f64,
}

fn throughput(nodes: usize, choice: &NicChoice, scale: Scale, seed: u64) -> u64 {
    let mut driver = Scenario::new(NetworkKind::FatTree)
        .nodes(nodes)
        .seed(seed)
        .nic(choice.clone())
        .build_with(|sc| SyntheticConfig::short_messages(sc.seed()).build(sc.nodes()))
        .expect("figure cell builds");
    driver.run_cycles(scale.cycles(400_000));
    driver.packets_received()
}

/// The no-dialog configuration under sweep: `B` or `O` varies, the other
/// headline parameter is pinned at 8.
fn sweep_config(param: &'static str, value: u8) -> NifdyConfig {
    let (o, b) = if param == "B" { (8, value) } else { (value, 8) };
    NifdyConfig::builder()
        .opt_entries(o)
        .pool_entries(b)
        .max_dialogs(0)
        .window(2)
        .build()
        .expect("swept parameters are valid")
}

/// Runs both panels of Figure 4, fanned across `jobs` workers. All cells at
/// one machine size share a derived seed (including the plain-interface
/// baseline they are normalized to).
pub fn run(scale: Scale, seed: u64, jobs: Jobs) -> (Table, Table, Vec<ScalePoint>) {
    let row_seed = |ni: usize| exec::cell_seed("fig4", ni as u64, seed);
    // Cell list: one plain baseline per machine size, then every
    // (panel, size, value) combination.
    enum Cell {
        Base {
            ni: usize,
        },
        Param {
            param: &'static str,
            ni: usize,
            value: u8,
        },
    }
    let mut cells = Vec::new();
    for ni in 0..SIZES.len() {
        cells.push(Cell::Base { ni });
    }
    for param in ["B", "O"] {
        for ni in 0..SIZES.len() {
            for &value in &SWEEP {
                cells.push(Cell::Param { param, ni, value });
            }
        }
    }
    let results = exec::map(jobs, cells, |cell, _| match cell {
        Cell::Base { ni } => throughput(SIZES[ni], &NicChoice::Plain, scale, row_seed(ni)),
        Cell::Param { param, ni, value } => throughput(
            SIZES[ni],
            &NicChoice::Nifdy(sweep_config(param, value)),
            scale,
            row_seed(ni),
        ),
    });
    let (bases, swept) = results.split_at(SIZES.len());

    let mut points = Vec::new();
    let mut tables = Vec::new();
    for (pi, param) in ["B", "O"].into_iter().enumerate() {
        let mut t = Table::new(
            format!("Figure 4 ({param} sweep): fat-tree throughput normalized to no-NIFDY"),
            std::iter::once("nodes".to_string())
                .chain(SWEEP.iter().map(|v| format!("{param}={v}")))
                .collect(),
        );
        for (ni, &nodes) in SIZES.iter().enumerate() {
            let base = bases[ni].max(1);
            let mut row = vec![nodes.to_string()];
            for (vi, &value) in SWEEP.iter().enumerate() {
                let cell = swept[(pi * SIZES.len() + ni) * SWEEP.len() + vi];
                let norm = cell as f64 / base as f64;
                points.push(ScalePoint {
                    nodes,
                    param,
                    value,
                    normalized: norm,
                });
                row.push(format!("{norm:.2}"));
            }
            t.row(row);
        }
        tables.push(t);
    }
    let o_panel = tables.pop().expect("two panels");
    let b_panel = tables.pop().expect("two panels");
    (b_panel, o_panel, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_throughput_is_sane_at_16_nodes() {
        let base = throughput(16, &NicChoice::Plain, Scale::Smoke, 3).max(1);
        let nifdy = throughput(16, &NicChoice::Nifdy(sweep_config("B", 8)), Scale::Smoke, 3);
        let norm = nifdy as f64 / base as f64;
        assert!(norm > 0.5 && norm < 4.0, "normalized throughput {norm}");
    }

    #[test]
    fn bigger_pools_do_not_hurt() {
        let small = throughput(16, &NicChoice::Nifdy(sweep_config("B", 2)), Scale::Smoke, 4);
        let large = throughput(
            16,
            &NicChoice::Nifdy(sweep_config("B", 16)),
            Scale::Smoke,
            4,
        );
        assert!(
            large as f64 >= 0.8 * small as f64,
            "B=16 ({large}) collapsed vs B=2 ({small})"
        );
    }

    #[test]
    fn panels_line_up_with_points() {
        let (b, o, points) = run(Scale::Smoke, 1, Jobs::new(4));
        assert_eq!(points.len(), 2 * SIZES.len() * SWEEP.len());
        // Row counts match the swept sizes.
        assert!(b.to_string().contains("16"));
        assert!(o.to_string().contains("256"));
    }
}
