//! Extension experiments beyond the paper's numbered figures:
//!
//! * [`run_adaptive`] — the §6.3 future-work study: NIFDY × adaptive
//!   routing on the mesh ("adding the admission control and in-order
//!   delivery of NIFDY may help adaptive routing reach its potential").
//! * [`run_loadsweep`] — the §1 *operating range* curve: delivered
//!   throughput and latency as offered load rises, with and without NIFDY.

use nifdy_traffic::{NetworkKind, NicChoice, OpenLoopConfig, Scenario, SyntheticConfig};

use crate::exec::{self, Jobs};
use crate::report::Table;
use crate::scale::Scale;

/// One adaptive-routing cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePoint {
    /// `"deterministic"` or `"adaptive"`.
    pub routing: &'static str,
    /// Interface configuration label.
    pub config: &'static str,
    /// Packets delivered (heavy synthetic window).
    pub heavy: u64,
    /// Packets delivered (light synthetic window).
    pub light: u64,
}

fn synthetic_cell(adaptive: bool, choice: &NicChoice, heavy: bool, scale: Scale, seed: u64) -> u64 {
    let kind = if adaptive {
        NetworkKind::AdaptiveMesh2D
    } else {
        NetworkKind::Mesh2D
    };
    let mut d = Scenario::new(kind)
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
        .expect("extension cell builds");
    d.run_cycles(scale.cycles(1_000_000));
    d.packets_received()
}

/// §6.3: deterministic vs west-first adaptive mesh, with and without NIFDY.
/// The in-order column uses the reorder-free library only where it is safe:
/// the adaptive mesh reorders, so without NIFDY its library must reorder in
/// software — which is exactly why the paper expects NIFDY to unlock
/// adaptive routing.
pub fn run_adaptive(scale: Scale, seed: u64, jobs: Jobs) -> (Table, Vec<AdaptivePoint>) {
    let cell = exec::cell_seed("ext:adaptive", 0, seed);
    let preset = NetworkKind::Mesh2D.nifdy_preset();
    let mut table = Table::new(
        format!(
            "§6.3 extension: adaptive routing on the 8x8 mesh \
             (packets delivered in {} cycles)",
            scale.cycles(1_000_000)
        ),
        vec![
            "routing".into(),
            "config".into(),
            "heavy".into(),
            "light".into(),
        ],
    );
    let mut cells = Vec::new();
    for (routing, adaptive) in [("deterministic", false), ("adaptive", true)] {
        for (label, choice) in [
            ("none", NicChoice::Plain),
            ("nifdy", NicChoice::Nifdy(preset.clone())),
        ] {
            cells.push((routing, adaptive, label, choice));
        }
    }
    let points = exec::map(jobs, cells, |(routing, adaptive, label, choice), _| {
        let heavy = synthetic_cell(adaptive, &choice, true, scale, cell);
        let light = synthetic_cell(adaptive, &choice, false, scale, cell);
        AdaptivePoint {
            routing,
            config: label,
            heavy,
            light,
        }
    });
    for p in &points {
        table.row(vec![
            p.routing.into(),
            p.config.into(),
            p.heavy.to_string(),
            p.light.to_string(),
        ]);
    }
    (table, points)
}

/// One offered-load sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Interface configuration label.
    pub config: &'static str,
    /// Send interval per node, in cycles (1/offered rate).
    pub interval: u64,
    /// Delivered packets per 1000 cycles (whole machine).
    pub throughput: f64,
    /// Mean in-fabric latency, cycles.
    pub latency: f64,
}

/// §1's operating-range curve on the 8×8 mesh: offered load rises left to
/// right; without admission control, throughput saturates while latency
/// blows up.
pub fn run_loadsweep(scale: Scale, seed: u64, jobs: Jobs) -> (Table, Vec<LoadPoint>) {
    let intervals = [800u64, 400, 200, 120, 80, 60, 45];
    let preset = NetworkKind::Mesh2D.nifdy_preset();
    let window = scale.cycles(300_000);
    let mut table = Table::new(
        format!("§1 operating range: 8x8 mesh, open-loop load sweep ({window} cycles)"),
        vec![
            "interval".into(),
            "none pkts/kcyc".into(),
            "none latency".into(),
            "nifdy pkts/kcyc".into(),
            "nifdy latency".into(),
        ],
    );
    let mut cells = Vec::new();
    for (row, &interval) in intervals.iter().enumerate() {
        let row_seed = exec::cell_seed("ext:loadsweep", row as u64, seed);
        for (label, choice) in [
            ("none", NicChoice::Plain),
            ("nifdy", NicChoice::Nifdy(preset.clone())),
        ] {
            cells.push((interval, label, choice, row_seed));
        }
    }
    let points = exec::map(jobs, cells, |(interval, label, choice, s), _| {
        let mut d = Scenario::new(NetworkKind::Mesh2D)
            .seed(s)
            .nic(choice.clone())
            .build_with(|sc| OpenLoopConfig::new(interval, sc.seed()).build(sc.nodes()))
            .expect("extension cell builds");
        d.run_cycles(window);
        let throughput = d.packets_received() as f64 / (window as f64 / 1000.0);
        let latency = d.fabric().stats().latency.mean();
        LoadPoint {
            config: label,
            interval,
            throughput,
            latency,
        }
    });
    for pair in points.chunks(2) {
        let mut row = vec![pair[0].interval.to_string()];
        for p in pair {
            row.push(format!("{:.1}", p.throughput));
            row.push(format!("{:.0}", p.latency));
        }
        table.row(row);
    }
    (table, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nifdy_helps_adaptive_routing_more_than_deterministic() {
        // The historical result reproduces: minimal-adaptive routing on a
        // single-VC mesh *underperforms* dimension-order under uniform load
        // ("adaptive routing on a mesh ... in the past has not performed
        // well enough to justify its expense", §6.3). The hypothesis under
        // test is that NIFDY's admission control closes part of that gap:
        // its relative gain on the adaptive mesh exceeds its gain on the
        // deterministic one.
        let (_, points) = run_adaptive(Scale::Smoke, 2, Jobs::new(4));
        assert_eq!(points.len(), 4);
        let get = |routing: &str, config: &str| {
            points
                .iter()
                .find(|p| p.routing == routing && p.config == config)
                .expect("cell")
                .heavy as f64
        };
        let gain_adaptive = get("adaptive", "nifdy") / get("adaptive", "none");
        let gain_det = get("deterministic", "nifdy") / get("deterministic", "none");
        assert!(
            gain_adaptive + 0.02 >= gain_det,
            "NIFDY gain on adaptive ({gain_adaptive:.2}) should be at least              its deterministic gain ({gain_det:.2})"
        );
    }

    #[test]
    fn latency_blows_up_at_saturation_without_nifdy() {
        let (_, points) = run_loadsweep(Scale::Smoke, 3, Jobs::new(4));
        let plain: Vec<&LoadPoint> = points.iter().filter(|p| p.config == "none").collect();
        let lightest = plain.first().expect("points");
        let heaviest = plain.last().expect("points");
        assert!(
            heaviest.latency > 2.0 * lightest.latency,
            "no saturation knee: {} -> {}",
            lightest.latency,
            heaviest.latency
        );
    }
}
