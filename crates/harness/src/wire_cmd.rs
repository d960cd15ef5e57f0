//! `wire:*` experiments: the byte-transport stack measured against the
//! paper's §2.4 analytic model.
//!
//! * [`run_loopback`] streams a one-way bulk workload between two
//!   [`WireEndpoint`]s on the deterministic loopback hub and reports the
//!   achieved pairwise bandwidth at several window sizes against the
//!   Equation 1 ceiling `L / max(T_send, T_receive, T_link)`. The transport
//!   port charges one cycle per word of serialization, so `T_link =
//!   size_words` and the ceiling is exactly [`BYTES_PER_WORD`] bytes per
//!   cycle; Equation 3 predicts the window that reaches it.
//! * [`run_udp`] runs the same exchange over two real UDP sockets on
//!   localhost — a smoke-scale proof that the stack survives an operating
//!   system's delivery behavior, with the §6.2 machinery absorbing any
//!   loss.

use nifdy::analysis::{min_window_combined_acks, pairwise_bandwidth, roundtrip, Timing};
use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::{GilbertElliott, UserData};
use nifdy_sim::NodeId;
use nifdy_trace::json::Json;
use nifdy_trace::WireFaultCause;
use nifdy_wire::codec::BYTES_PER_WORD;
use nifdy_wire::{FaultyTransport, LoopbackHub, UdpTransport, WireEndpoint, WireFaultConfig};

use crate::{Scale, Table};

/// Packet length every wire measurement uses, matching the paper's
/// library-driven workloads (6 words including the header).
pub const SIZE_WORDS: u16 = 6;

/// Fixed one-way hub latency for the loopback measurements, in cycles.
pub const HUB_LATENCY: u64 = 8;

/// One measured cell of the loopback bandwidth table.
#[derive(Debug, Clone, Copy)]
pub struct WirePoint {
    /// Window size (0 = scalar mode, no dialog).
    pub window: u8,
    /// Packets streamed.
    pub packets: u32,
    /// Hub cycles from first injection to last delivery.
    pub cycles: u64,
    /// Achieved bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
}

fn config(window: u8, bulk: bool) -> NifdyConfig {
    NifdyConfig::builder()
        .opt_entries(4)
        .pool_entries(8)
        .max_dialogs(if bulk { 1 } else { 0 })
        .window(window.max(2))
        .build()
        .expect("wire measurement config is valid")
}

/// Streams `packets` 6-word packets from node 0 to node 1 over the loopback
/// hub and returns the achieved bandwidth. `window == 0` runs scalar mode.
fn measure(window: u8, packets: u32, seed: u64) -> WirePoint {
    let bulk = window > 0;
    let hub = LoopbackHub::new(2, HUB_LATENCY);
    let n0 = NodeId::new(0);
    let n1 = NodeId::new(1);
    let mut tx = WireEndpoint::new(n0, config(window, bulk), hub.endpoint(n0));
    let mut rx = WireEndpoint::new(n1, config(window, bulk), hub.endpoint(n1));
    let mut sent = 0u32;
    let mut got = 0u32;
    let mut last_delivery = 0u64;
    let deadline = 200_000 + u64::from(packets) * 200;
    while got < packets {
        let now = hub.now().as_u64();
        assert!(now < deadline, "wire measurement wedged at {got}/{packets}");
        if sent < packets {
            let pkt = OutboundPacket::new(n1, SIZE_WORDS)
                .with_bulk(bulk)
                .with_user(UserData {
                    msg_id: seed,
                    pkt_index: sent,
                    msg_packets: packets,
                    user_words: SIZE_WORDS - 2,
                });
            if tx.try_send(pkt) {
                sent += 1;
            }
        }
        tx.step();
        rx.step();
        while let Some(d) = rx.poll() {
            assert_eq!(d.user.pkt_index, got, "out-of-order delivery");
            got += 1;
            last_delivery = hub.now().as_u64();
        }
        hub.tick();
    }
    let bytes = u64::from(packets) * u64::from(SIZE_WORDS) * BYTES_PER_WORD as u64;
    WirePoint {
        window,
        packets,
        cycles: last_delivery,
        bytes_per_cycle: bytes as f64 / last_delivery as f64,
    }
}

/// The loopback pairwise-bandwidth experiment: scalar mode plus a window
/// sweep, rendered against the Equation 1 ceiling.
pub fn run_loopback(scale: Scale, seed: u64) -> (Table, Vec<WirePoint>) {
    let packets = scale.count(2_048) as u32;
    // The transport port serializes one word per cycle, so T_link is the
    // packet length; the drive loop injects and polls every cycle, so the
    // endpoint overheads are one cycle each.
    let timing = Timing {
        t_send: 1,
        t_receive: 1,
        t_link: u64::from(SIZE_WORDS),
        t_ackproc: 2,
    };
    let payload = u64::from(SIZE_WORDS) * BYTES_PER_WORD as u64;
    let ceiling = pairwise_bandwidth(payload, timing);
    // One-way frame time: hub latency plus serialization plus the
    // tick/step handoff on each side.
    let t_lat = HUB_LATENCY + u64::from(SIZE_WORDS) + 2;
    let t_roundtrip = roundtrip(t_lat, timing.t_ackproc);
    let w_min = min_window_combined_acks(t_roundtrip, timing.bottleneck());

    let mut table = Table::new(
        format!(
            "nifdy-wire: loopback pairwise bandwidth, 2 nodes, {SIZE_WORDS}-word packets, \
             hub latency {HUB_LATENCY} (Eq.1 ceiling {ceiling:.2} B/cyc; \
             Eq.3 predicts W >= {w_min} at T_roundtrip {t_roundtrip})"
        ),
        vec![
            "mode".into(),
            "window".into(),
            "packets".into(),
            "cycles".into(),
            "B/cyc".into(),
            "% of Eq.1".into(),
        ],
    );
    let mut points = Vec::new();
    for window in [0u8, 2, 4, 8, 16, 32] {
        let p = measure(window, packets, seed);
        table.row(vec![
            if window == 0 { "scalar" } else { "bulk" }.into(),
            if window == 0 {
                "-".into()
            } else {
                window.to_string()
            },
            p.packets.to_string(),
            p.cycles.to_string(),
            format!("{:.2}", p.bytes_per_cycle),
            format!("{:.1}", 100.0 * p.bytes_per_cycle / ceiling),
        ]);
        points.push(p);
    }
    (table, points)
}

/// Mean loss rates the chaos sweep visits (0.0 is the clean baseline).
pub const CHAOS_LOSS_SWEEP: [f64; 5] = [0.0, 0.01, 0.05, 0.1, 0.2];

/// One measured cell of the chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Mean Gilbert–Elliott loss rate this cell ran under.
    pub mean_loss: f64,
    /// Distinct packets the workload wanted delivered.
    pub packets: u32,
    /// Deliveries observed, counting at-least-once re-offers after a
    /// typed failure (so this can exceed `packets`).
    pub delivered: u32,
    /// Hub cycles from the first injection to the last delivery.
    pub cycles: u64,
    /// Goodput in payload bytes per cycle (distinct packets only).
    pub goodput: f64,
    /// Median first-offer-to-delivery latency in cycles.
    pub p50: u64,
    /// 99th-percentile first-offer-to-delivery latency in cycles.
    pub p99: u64,
    /// Data retransmissions the §6.2 machinery issued.
    pub retransmits: u64,
    /// Typed delivery failures the sender surfaced (budget exhausted).
    pub failures: u64,
    /// Per-cause chaos-plane counters summed over both endpoints.
    pub fault_counts: Vec<(&'static str, u64)>,
}

/// The chaos plane at a given intensity: bursty loss at `mean_loss`, with
/// corruption, duplication, delay, and reordering scaled down from it so
/// every fault cause stays exercised across the sweep.
fn chaos_faults(mean_loss: f64) -> WireFaultConfig {
    if mean_loss <= 0.0 {
        return WireFaultConfig::default();
    }
    WireFaultConfig::default()
        .with_burst(GilbertElliott::with_mean_loss(mean_loss))
        .with_corrupt_prob(mean_loss / 2.0)
        .with_duplicate_prob(mean_loss / 4.0)
        .with_delay(mean_loss / 4.0, 8)
        .with_reorder_prob(mean_loss / 4.0)
}

/// Sorted-latency percentile (nearest-rank on the cycle counts).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted.get(idx).copied().unwrap_or(0)
}

/// Streams `packets` 6-word bulk packets from node 0 to node 1 through a
/// seeded [`FaultyTransport`] on each side and measures goodput and
/// delivery latency. Typed failures are absorbed by an application-level
/// re-offer shim, so the cell always finishes; the failure count stays
/// visible in the report.
fn measure_chaos(mean_loss: f64, packets: u32, seed: u64) -> ChaosPoint {
    let hub = LoopbackHub::new(2, HUB_LATENCY);
    let n0 = NodeId::new(0);
    let n1 = NodeId::new(1);
    let faults = chaos_faults(mean_loss);
    let cfg = config(8, true)
        .with_retx_timeout(64)
        .with_adaptive_rto(true)
        .with_retx_budget(30);
    let mut tx = WireEndpoint::new(
        n0,
        cfg.clone(),
        FaultyTransport::new(hub.endpoint(n0), faults.clone(), seed),
    );
    let mut rx = WireEndpoint::new(
        n1,
        cfg,
        FaultyTransport::new(hub.endpoint(n1), faults, seed),
    );

    let mut queue: std::collections::VecDeque<u32> = (0..packets).collect();
    let mut first_offer: Vec<Option<u64>> = vec![None; packets as usize];
    let mut arrived: Vec<bool> = vec![false; packets as usize];
    let mut latencies: Vec<u64> = Vec::with_capacity(packets as usize);
    let mut unique = 0u32;
    let mut delivered = 0u32;
    let mut failures = 0u64;
    let mut last_delivery = 0u64;
    let deadline = 500_000 + u64::from(packets) * 4_000;

    while unique < packets {
        let now = hub.now().as_u64();
        assert!(
            now < deadline,
            "chaos cell (loss {mean_loss}) wedged at {unique}/{packets}"
        );
        if let Some(&idx) = queue.front() {
            let pkt = OutboundPacket::new(n1, SIZE_WORDS)
                .with_bulk(true)
                .with_user(UserData {
                    msg_id: seed,
                    pkt_index: idx,
                    msg_packets: packets,
                    user_words: SIZE_WORDS - 2,
                });
            if tx.try_send(pkt) {
                queue.pop_front();
                if let Some(slot) = first_offer.get_mut(idx as usize) {
                    slot.get_or_insert(now);
                }
            }
        }
        tx.step();
        rx.step();
        // Budget-exhausted packets come back as typed failures; re-offer
        // anything that provably never arrived (at-least-once semantics —
        // a failure whose data did land re-delivers at the app level).
        failures += tx.take_failures().len() as u64;
        if failures > 0 && queue.is_empty() && tx.is_idle() {
            for (idx, seen) in arrived.iter().enumerate() {
                if !seen {
                    queue.push_back(idx as u32);
                }
            }
        }
        while let Some(d) = rx.poll() {
            delivered += 1;
            last_delivery = hub.now().as_u64();
            let idx = d.user.pkt_index as usize;
            if let Some(seen @ false) = arrived.get_mut(idx) {
                *seen = true;
                unique += 1;
                if let Some(at) = first_offer.get(idx).copied().flatten() {
                    latencies.push(last_delivery.saturating_sub(at));
                }
            }
        }
        hub.tick();
    }

    latencies.sort_unstable();
    let bytes = u64::from(packets) * u64::from(SIZE_WORDS) * BYTES_PER_WORD as u64;
    let fault_counts = WireFaultCause::ALL
        .iter()
        .map(|&c| {
            let total =
                tx.port().transport().stats().count(c) + rx.port().transport().stats().count(c);
            (c.label(), total)
        })
        .collect();
    ChaosPoint {
        mean_loss,
        packets,
        delivered,
        cycles: last_delivery,
        goodput: bytes as f64 / last_delivery.max(1) as f64,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        retransmits: tx.stats().retransmitted.get(),
        failures,
        fault_counts,
    }
}

/// The chaos sweep: goodput and delivery-latency percentiles for the
/// two-node loopback workload as the chaos plane's intensity rises.
pub fn run_chaos(scale: Scale, seed: u64) -> (Table, Vec<ChaosPoint>) {
    let packets = scale.count(1_024) as u32;
    let mut table = Table::new(
        format!(
            "nifdy-wire: chaos sweep, 2 nodes, {SIZE_WORDS}-word packets, hub \
             latency {HUB_LATENCY}, bursty loss + corrupt/duplicate/delay/reorder \
             (seed {seed})"
        ),
        vec![
            "mean loss".into(),
            "packets".into(),
            "delivered".into(),
            "cycles".into(),
            "goodput B/cyc".into(),
            "p50 lat".into(),
            "p99 lat".into(),
            "retx".into(),
            "failures".into(),
            "faults".into(),
        ],
    );
    let mut points = Vec::new();
    for loss in CHAOS_LOSS_SWEEP {
        let p = measure_chaos(loss, packets, seed);
        table.row(vec![
            format!("{loss:.2}"),
            p.packets.to_string(),
            p.delivered.to_string(),
            p.cycles.to_string(),
            format!("{:.2}", p.goodput),
            p.p50.to_string(),
            p.p99.to_string(),
            p.retransmits.to_string(),
            p.failures.to_string(),
            p.fault_counts
                .iter()
                .map(|&(_, n)| n)
                .sum::<u64>()
                .to_string(),
        ]);
        points.push(p);
    }
    (table, points)
}

/// Machine-readable form of the chaos sweep, including the per-cause
/// fault counters CI archives.
pub fn chaos_json(seed: u64, points: &[ChaosPoint]) -> Json {
    Json::obj([
        ("experiment", Json::str("wire:chaos")),
        ("seed", Json::u64(seed)),
        ("size_words", Json::u64(u64::from(SIZE_WORDS))),
        ("hub_latency", Json::u64(HUB_LATENCY)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("mean_loss", Json::Num(p.mean_loss)),
                            ("packets", Json::u64(u64::from(p.packets))),
                            ("delivered", Json::u64(u64::from(p.delivered))),
                            ("cycles", Json::u64(p.cycles)),
                            ("goodput_bytes_per_cycle", Json::Num(p.goodput)),
                            ("latency_p50", Json::u64(p.p50)),
                            ("latency_p99", Json::u64(p.p99)),
                            ("retransmits", Json::u64(p.retransmits)),
                            ("failures", Json::u64(p.failures)),
                            (
                                "fault_counts",
                                Json::Obj(
                                    p.fault_counts
                                        .iter()
                                        .map(|&(k, n)| (k.to_string(), Json::u64(n)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Result of the two-node UDP exchange, including the carrier-level
/// counters summed over both sockets.
#[derive(Debug, Clone, Copy)]
pub struct UdpReport {
    /// Packets delivered in order at the receiver.
    pub delivered: u64,
    /// Data retransmissions the sender issued (OS drops absorbed).
    pub retransmits: u64,
    /// Wall-clock milliseconds for the exchange.
    pub millis: u128,
    /// `ECONNREFUSED` events (ICMP bounce from a dead peer; weather).
    pub refused: u64,
    /// Datagrams rejected for exceeding the socket's maximum size.
    pub oversize: u64,
    /// Frames addressed to nodes with no registered socket address.
    pub unknown_peer: u64,
    /// Unclassified socket failures (see [`nifdy_wire::TransportError`]).
    pub transport_errors: u64,
    /// Unclassified failures shed because an earlier one was unread.
    pub dropped_errors: u64,
}

/// Streams a bulk message between two localhost UDP sockets driven from one
/// thread (step the sender, step the receiver, repeat) and asserts in-order
/// exactly-once delivery.
pub fn run_udp(scale: Scale, seed: u64) -> std::io::Result<UdpReport> {
    let packets = scale.count(500) as u32;
    let n0 = NodeId::new(0);
    let n1 = NodeId::new(1);
    let mut t0 = UdpTransport::bind(n0, "127.0.0.1:0")?;
    let mut t1 = UdpTransport::bind(n1, "127.0.0.1:0")?;
    t0.add_peer(n1, t1.local_addr()?);
    t1.add_peer(n0, t0.local_addr()?);
    let cfg = config(8, true).with_retx_timeout(20_000);
    let mut tx = WireEndpoint::new(n0, cfg.clone(), t0);
    let mut rx = WireEndpoint::new(n1, cfg, t1);
    #[expect(
        clippy::disallowed_types,
        reason = "a wall-clock receive deadline bounds a real socket wait; it gates harness \
                  I/O only, never simulated time"
    )]
    let start = std::time::Instant::now();
    let mut sent = 0u32;
    let mut got = 0u32;
    while got < packets || !tx.is_idle() {
        assert!(
            start.elapsed().as_secs() < 120,
            "udp exchange wedged at {got}/{packets}"
        );
        if sent < packets {
            let pkt = OutboundPacket::new(n1, SIZE_WORDS)
                .with_bulk(true)
                .with_user(UserData {
                    msg_id: seed,
                    pkt_index: sent,
                    msg_packets: packets,
                    user_words: SIZE_WORDS - 2,
                });
            if tx.try_send(pkt) {
                sent += 1;
            }
        }
        tx.step();
        rx.step();
        assert!(
            tx.take_failures().is_empty(),
            "sender gave up on a delivery"
        );
        while let Some(d) = rx.poll() {
            assert_eq!(d.user.pkt_index, got, "out-of-order delivery over UDP");
            got += 1;
        }
    }
    let (t0, t1) = (tx.port().transport(), rx.port().transport());
    Ok(UdpReport {
        delivered: rx.stats().delivered.get(),
        retransmits: tx.stats().retransmitted.get(),
        millis: start.elapsed().as_millis(),
        refused: t0.refused() + t1.refused(),
        oversize: t0.oversize() + t1.oversize(),
        unknown_peer: t0.unknown_peer() + t1.unknown_peer(),
        transport_errors: t0.transport_errors() + t1.transport_errors(),
        dropped_errors: t0.dropped_errors() + t1.dropped_errors(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_bandwidth_scales_with_window() {
        let (_, points) = run_loopback(Scale::Smoke, 1);
        assert_eq!(points.len(), 6);
        let scalar = points[0].bytes_per_cycle;
        let widest = points.last().expect("points").bytes_per_cycle;
        assert!(
            widest > 2.0 * scalar,
            "a wide window must beat scalar mode ({widest:.2} vs {scalar:.2})"
        );
        let ceiling = BYTES_PER_WORD as f64;
        assert!(
            widest <= ceiling * 1.001,
            "nothing exceeds the Equation 1 ceiling"
        );
        assert!(
            widest >= ceiling * 0.80,
            "a wide window should approach the ceiling, got {widest:.2}"
        );
    }

    #[test]
    fn chaos_cell_recovers_and_counts_faults() {
        let clean = measure_chaos(0.0, 128, 9);
        assert_eq!(clean.failures, 0);
        assert_eq!(clean.delivered, 128);
        assert!(clean.fault_counts.iter().all(|&(_, n)| n == 0));

        let lossy = measure_chaos(0.1, 128, 9);
        assert!(lossy.delivered >= 128, "every packet eventually lands");
        assert!(
            lossy.fault_counts.iter().any(|&(_, n)| n > 0),
            "the chaos plane never fired"
        );
        assert!(lossy.retransmits > 0, "loss must cost retransmissions");
        assert!(lossy.p99 >= lossy.p50);
        assert!(
            lossy.goodput < clean.goodput,
            "chaos cannot be free: {:.2} vs clean {:.2}",
            lossy.goodput,
            clean.goodput
        );
    }

    #[test]
    fn chaos_json_is_parseable_and_complete() {
        let points = vec![measure_chaos(0.05, 64, 2)];
        let rendered = chaos_json(2, &points).render();
        let parsed = nifdy_trace::json::parse(&rendered).expect("chaos JSON parses");
        let arr = parsed
            .get("points")
            .and_then(|p| p.as_arr())
            .expect("points array");
        assert_eq!(arr.len(), 1);
        let counts = arr[0].get("fault_counts").expect("per-cause counters");
        for cause in nifdy_trace::WireFaultCause::ALL {
            assert!(
                counts.get(cause.label()).is_some(),
                "cause {:?} missing from the JSON report",
                cause
            );
        }
    }

    #[test]
    fn udp_exchange_delivers_everything() {
        let report = run_udp(Scale::Smoke, 3).expect("sockets bind on localhost");
        assert_eq!(report.delivered, Scale::Smoke.count(500));
        assert_eq!(
            report.transport_errors, 0,
            "no unclassified socket failures"
        );
        assert_eq!(report.dropped_errors, 0);
        assert_eq!(report.unknown_peer, 0, "both peers were registered");
        assert_eq!(report.oversize, 0);
    }
}
