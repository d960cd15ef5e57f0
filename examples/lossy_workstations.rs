//! The §6.2 extension: NIFDY over a network of workstations that drops
//! packets. Retransmission timers and the duplicate bit make the loss
//! invisible to the application — every packet arrives exactly once, in
//! order.
//!
//! ```text
//! cargo run --release --example lossy_workstations
//! ```

use nifdy::{Nic, NifdyConfig, NifdyUnit, OutboundPacket};
use nifdy_net::topology::Mesh;
use nifdy_net::{Fabric, FabricConfig, UserData};
use nifdy_sim::NodeId;

fn main() {
    let drop_prob = 0.2;
    let cfg = FabricConfig::default()
        .with_drop_prob(drop_prob)
        .with_seed(2026);
    let mut fab = Fabric::new(Box::new(Mesh::d2(4, 4)), cfg);

    let nic_cfg = NifdyConfig::mesh().with_retx_timeout(2_000);
    let mut nics: Vec<NifdyUnit> = (0..16)
        .map(|i| NifdyUnit::new(NodeId::new(i), nic_cfg.clone()))
        .collect();

    // Every node sends a 12-packet bulk message to its diagonal opposite.
    let total_per_node = 12u32;
    let mut queued = [0u32; 16];
    let mut received: Vec<Vec<u32>> = vec![Vec::new(); 16];

    let expected: usize = 16 * total_per_node as usize;
    let mut delivered = 0usize;
    while delivered < expected {
        for i in 0..16 {
            let dst = NodeId::new(15 - i);
            while queued[i] < total_per_node {
                let pkt = OutboundPacket::new(dst, 8)
                    .with_bulk(true)
                    .with_user(UserData {
                        msg_id: i as u64,
                        pkt_index: queued[i],
                        msg_packets: total_per_node,
                        user_words: 7,
                    });
                if !nics[i].try_send(pkt, fab.now()) {
                    break;
                }
                queued[i] += 1;
            }
        }
        for nic in &mut nics {
            nic.step(&mut fab);
        }
        fab.step();
        for (i, nic) in nics.iter_mut().enumerate() {
            if let Some(d) = nic.poll(fab.now()) {
                received[i].push(d.user.pkt_index);
                delivered += 1;
            }
        }
        assert!(fab.now().as_u64() < 20_000_000, "lossy run stuck");
    }

    let retx: u64 = nics.iter().map(|n| n.stats().retransmitted.get()).sum();
    let dups: u64 = nics
        .iter()
        .map(|n| n.stats().duplicates_dropped.get())
        .sum();
    let dropped = fab.fault_counts().total();
    println!("fabric drop probability : {drop_prob}");
    println!("packets dropped by fabric: {dropped} (data + acks)");
    println!("retransmissions          : {retx}");
    println!("duplicates discarded     : {dups}");
    println!("delivered to applications: {delivered} / {expected}");
    println!("completed at             : {}", fab.now());

    for (i, seq) in received.iter().enumerate() {
        assert_eq!(seq.len(), total_per_node as usize, "node {i} count");
        assert!(
            seq.windows(2).all(|w| w[0] < w[1]),
            "node {i} saw reordering: {seq:?}"
        );
    }
    println!("\nevery node received its message exactly once, in order —");
    println!("\"simple hardware masks an exceptional condition\" (§6.2).");
}
