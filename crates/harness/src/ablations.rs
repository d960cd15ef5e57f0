//! Ablations of three design choices the paper argues for (EXPERIMENTS.md
//! "Ablations"), each as one two-row table:
//!
//! 1. **Ack timing** — ack on processor accept (the paper's choice) vs ack
//!    on arrivals-FIFO insert (footnote 2: "surprisingly less effective").
//! 2. **Window ack policy** — one combined ack per `W/2` packets (Equation
//!    3) vs an ack per bulk packet (§2.4.2's alternative).
//! 3. **Outgoing pool vs strict FIFO** — NIFDY's rank/eligibility pool vs
//!    the same buffering as a head-of-line FIFO (the buffers-only NIC).

use nifdy::NifdyConfig;
use nifdy_traffic::{CShiftConfig, NetworkKind, NicChoice, Scenario, SoftwareModel};

use crate::fig23;
use crate::report::Table;
use crate::scale::Scale;

/// C-shift (45-word blocks, 32-node CM-5 network) under `cfg`: completion
/// cycles and acks sent by all nodes.
fn cshift_run(cfg: NifdyConfig, seed: u64) -> (u64, u64) {
    let sw = SoftwareModel::cm5_library(false);
    let mut driver = Scenario::new(NetworkKind::Cm5)
        .nodes(32)
        .seed(seed)
        .nic(NicChoice::Nifdy(cfg))
        .software(sw)
        .build_with(|sc| CShiftConfig::new(45, sc.sw()).build(sc.nodes()))
        .expect("ablation cell builds");
    assert!(driver.run_until_quiet(10_000_000), "C-shift stuck");
    let acks = (0..32).map(|n| driver.nic(n).stats().acks_sent.get()).sum();
    (driver.fabric().now().as_u64(), acks)
}

fn two_rows(title: String, headers: &[&str], rows: [Vec<String>; 2]) -> Table {
    let mut table = Table::new(title, headers.iter().map(|h| h.to_string()).collect());
    for row in rows {
        table.row(row);
    }
    table
}

/// Runs the three ablations; the synthetic cells run for `scale`'s share of
/// the paper's 1M-cycle window.
pub fn run(scale: Scale, seed: u64) -> [Table; 3] {
    let window = scale.cycles(1_000_000);
    let packets = |kind: NetworkKind, choice: NicChoice, heavy: bool| {
        fig23::run_cell(kind, &choice, heavy, scale, seed).to_string()
    };

    let mesh = NetworkKind::Mesh2D.nifdy_preset();
    let ack_timing = two_rows(
        format!(
            "Ablation: ack timing (heavy traffic, 8x8 mesh, packets delivered in {window} cycles)"
        ),
        &["scalar ack sent on", "packets"],
        [
            vec![
                "processor accept (paper)".into(),
                packets(NetworkKind::Mesh2D, NicChoice::Nifdy(mesh.clone()), true),
            ],
            vec![
                "FIFO insert (footnote 2)".into(),
                packets(
                    NetworkKind::Mesh2D,
                    NicChoice::Nifdy(mesh.with_ack_on_insert(true)),
                    true,
                ),
            ],
        ],
    );

    // W = 8 so the combined policy acks every 4 packets; the CM-5 preset's
    // W = 2 would make the two policies identical.
    let combined = NifdyConfig::builder()
        .opt_entries(8)
        .pool_entries(8)
        .max_dialogs(1)
        .window(8)
        .build()
        .expect("ablation parameters are valid");
    let per_w2 = cshift_run(combined.clone(), seed);
    let per_packet = cshift_run(combined.with_bulk_ack_every_packet(true), seed);
    assert!(
        per_packet.1 > per_w2.1,
        "per-packet acks must generate more ack traffic"
    );
    let row = |label: &str, (cycles, acks): (u64, u64)| {
        vec![label.into(), cycles.to_string(), acks.to_string()]
    };
    let window_acks = two_rows(
        "Ablation: combined vs per-packet bulk acks (C-shift, 32-node CM-5, W = 8)".into(),
        &["bulk ack policy", "completion cycles", "acks sent"],
        [
            row("combined, one per W/2", per_w2),
            row("one per packet", per_packet),
        ],
    );

    let tree = NetworkKind::FatTree.nifdy_preset();
    let pool_vs_fifo = two_rows(
        format!("Ablation: eligibility pool vs strict FIFO (light traffic, fat tree, packets delivered in {window} cycles)"),
        &["outgoing buffers", "packets"],
        [
            vec![
                "NIFDY pool (rank/eligibility)".into(),
                packets(NetworkKind::FatTree, NicChoice::Nifdy(tree.clone()), false),
            ],
            vec![
                "same buffers, strict FIFO".into(),
                packets(NetworkKind::FatTree, NicChoice::BuffersOnly(tree), false),
            ],
        ],
    );
    [ack_timing, window_acks, pool_vs_fifo]
}
