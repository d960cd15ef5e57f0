//! Table 3: characteristics of the simulated 64-node networks together with
//! the best NIFDY parameters for each. Hop statistics come from the
//! topology, the latency model from a zero-load probe of the real fabric,
//! and the volume from the configured buffering.

use nifdy_net::topology::hop_profile;
use nifdy_net::{Fabric, Lane, Packet};
use nifdy_sim::{NodeId, PacketId};

use nifdy_traffic::NetworkKind;

use crate::exec::{self, Jobs};
use crate::report::Table;

/// One network's Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Network label.
    pub network: &'static str,
    /// Average internode distance in hops.
    pub avg_hops: f64,
    /// Maximum internode distance in hops.
    pub max_hops: u32,
    /// Zero-load latency fit `T_lat(d) ≈ slope·d + intercept` (cycles).
    pub lat_slope: f64,
    /// Zero-load latency intercept (cycles).
    pub lat_intercept: f64,
    /// Fabric buffering per node, in flits (the paper's "volume").
    pub volume_flits_per_node: f64,
    /// Best NIFDY parameters `(O, B, D, W)`.
    pub params: (u8, u8, u8, u8),
}

/// Measures the zero-load latency of an 8-word packet at every distinct hop
/// distance and fits a line.
pub fn probe_latency(kind: NetworkKind, seed: u64) -> (f64, f64) {
    let topo = kind.topology(64, seed);
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let src = NodeId::new(0);
    for d in 0..64 {
        if d == 0 {
            continue;
        }
        let dst = NodeId::new(d);
        let hops = topo.hops(src, dst);
        if !seen.insert(hops) {
            continue;
        }
        let mut fab = Fabric::new(kind.topology(64, seed), kind.fabric_config(seed));
        fab.inject(src, Packet::data(PacketId::new(1), src, dst, 8));
        let start = fab.now();
        loop {
            fab.step();
            if fab.eject(dst, Lane::Request).is_some() {
                break;
            }
            assert!(fab.now().as_u64() < 100_000, "probe packet lost");
        }
        samples.push((f64::from(hops), (fab.now() - start) as f64));
    }
    linear_fit(&samples)
}

/// Least-squares fit returning `(slope, intercept)`; a single point yields
/// slope 0.
fn linear_fit(samples: &[(f64, f64)]) -> (f64, f64) {
    let n = samples.len() as f64;
    if samples.len() < 2 {
        return (0.0, samples.first().map_or(0.0, |&(_, y)| y));
    }
    let sx: f64 = samples.iter().map(|&(x, _)| x).sum();
    let sy: f64 = samples.iter().map(|&(_, y)| y).sum();
    let sxx: f64 = samples.iter().map(|&(x, _)| x * x).sum();
    let sxy: f64 = samples.iter().map(|&(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (0.0, sy / n);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

/// Computes one network's profile.
pub fn profile(kind: NetworkKind, seed: u64) -> NetworkProfile {
    let topo = kind.topology(64, seed);
    let (avg_hops, max_hops) = hop_profile(topo.as_ref());
    let (lat_slope, lat_intercept) = probe_latency(kind, seed);
    let cfg = kind.fabric_config(seed);
    let spec = topo.spec();
    // Request-lane buffering per node: internal link buffers plus the node
    // interfaces' ejection assembly, in flits.
    let internal = spec.num_internal_links() as f64
        * f64::from(cfg.vc_buf_flits)
        * f64::from(cfg.vcs_per_lane);
    let eject = 64.0 * f64::from(nifdy_net::MAX_PACKET_FLITS);
    let volume = (internal + eject) / 64.0;
    let p = kind.nifdy_preset();
    NetworkProfile {
        network: kind.label(),
        avg_hops,
        max_hops,
        lat_slope,
        lat_intercept,
        volume_flits_per_node: volume,
        params: (p.opt_entries, p.pool_entries, p.max_dialogs, p.window),
    }
}

/// Builds the full Table 3, profiling the eight networks on `jobs`
/// workers. Each network row gets its own derived seed.
pub fn run(seed: u64, jobs: Jobs) -> (Table, Vec<NetworkProfile>) {
    let mut table = Table::new(
        "Table 3: simulated 64-node networks and best NIFDY parameters",
        vec![
            "network".into(),
            "avg d".into(),
            "max d".into(),
            "T_lat fit".into(),
            "volume (flits/node)".into(),
            "O".into(),
            "B".into(),
            "D".into(),
            "W".into(),
        ],
    );
    let profiles = exec::map(jobs, NetworkKind::ALL.to_vec(), |kind, row| {
        profile(kind, exec::cell_seed("table3", row as u64, seed))
    });
    for p in &profiles {
        table.row(vec![
            p.network.into(),
            format!("{:.1}", p.avg_hops),
            p.max_hops.to_string(),
            format!("{:.1}d + {:.0}", p.lat_slope, p.lat_intercept),
            format!("{:.0}", p.volume_flits_per_node),
            p.params.0.to_string(),
            p.params.1.to_string(),
            p.params.2.to_string(),
            p.params.3.to_string(),
        ]);
    }
    (table, profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_a_line() {
        let pts: Vec<(f64, f64)> = (1..10).map(|x| (x as f64, 3.0 * x as f64 + 7.0)).collect();
        let (m, b) = linear_fit(&pts);
        assert!((m - 3.0).abs() < 1e-9);
        assert!((b - 7.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_latency_fit_resembles_the_paper() {
        // Paper: T_lat(d) = 4d + 14 for the 8x8 mesh. Our pipeline differs
        // slightly; the slope must be in the same regime (serialization-
        // dominated, ~4-6 cycles/hop) with a positive intercept from
        // injection serialization.
        let (slope, intercept) = probe_latency(NetworkKind::Mesh2D, 1);
        assert!(
            (3.0..=8.0).contains(&slope),
            "mesh slope {slope} out of regime"
        );
        assert!(intercept > 0.0, "mesh intercept {intercept}");
    }

    #[test]
    fn butterfly_has_constant_distance() {
        let p = profile(NetworkKind::Butterfly, 1);
        assert_eq!(p.max_hops, 3);
        assert!((p.avg_hops - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cm5_is_slower_than_the_full_fat_tree() {
        let (s_full, i_full) = probe_latency(NetworkKind::FatTree, 1);
        let (s_cm5, i_cm5) = probe_latency(NetworkKind::Cm5, 1);
        // 4-bit time-multiplexed links roughly double per-hop time.
        assert!(
            s_cm5 + i_cm5 / 6.0 > s_full + i_full / 6.0,
            "cm5 ({s_cm5}, {i_cm5}) should be slower than full ({s_full}, {i_full})"
        );
    }
}
