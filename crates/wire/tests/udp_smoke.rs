//! Two-node UDP smoke test: real datagrams on localhost, one thread per
//! node, each driving a full [`WireEndpoint`]. The operating system is free
//! to reorder or drop datagrams; the protocol's sequencing plus the §6.2
//! retransmission machinery must still deliver every packet exactly once,
//! in sender order.

#![expect(
    clippy::disallowed_types,
    reason = "wall-clock deadlines bound real socket waits"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nifdy::{NifdyConfig, OutboundPacket};
use nifdy_net::UserData;
use nifdy_sim::NodeId;
use nifdy_wire::{UdpTransport, WireEndpoint};

const TOTAL: u32 = 200;
const SIZE_WORDS: u16 = 6;

fn config() -> NifdyConfig {
    // Real sockets can drop; give the unit a retransmission timeout. It is
    // measured in endpoint cycles — each loop iteration yields, so a few
    // thousand cycles is milliseconds of wall clock.
    NifdyConfig::mesh().with_retx_timeout(5_000)
}

/// The carrier counters a clean localhost exchange leaves at zero.
fn assert_clean(t: &UdpTransport) {
    assert_eq!(t.transport_errors(), 0, "unclassified socket failures");
    assert_eq!(t.unknown_peer(), 0, "both peers were registered");
    assert_eq!(t.oversize(), 0, "every frame fits a datagram");
}

#[test]
fn two_nodes_deliver_in_order_over_localhost() {
    let n0 = NodeId::new(0);
    let n1 = NodeId::new(1);
    let mut t0 = UdpTransport::bind(n0, "127.0.0.1:0").expect("bind sender");
    let mut t1 = UdpTransport::bind(n1, "127.0.0.1:0").expect("bind receiver");
    t0.add_peer(n1, t1.local_addr().expect("receiver addr"));
    t1.add_peer(n0, t0.local_addr().expect("sender addr"));

    // The sender raises `drained` once every packet is sent *and* every
    // acknowledgment has come back; the receiver keeps stepping (re-acking
    // any retransmissions) until then.
    let drained = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(60);

    let sender_flag = Arc::clone(&drained);
    let sender = std::thread::spawn(move || {
        let mut ep = WireEndpoint::new(n0, config(), t0);
        let mut sent = 0u32;
        loop {
            if sent < TOTAL {
                let pkt = OutboundPacket::new(n1, SIZE_WORDS)
                    .with_bulk(true)
                    .with_user(UserData {
                        msg_id: 1,
                        pkt_index: sent,
                        msg_packets: TOTAL,
                        user_words: SIZE_WORDS - 2,
                    });
                if ep.try_send(pkt) {
                    sent += 1;
                }
            }
            ep.step();
            assert!(
                ep.take_failures().is_empty(),
                "sender gave up on a delivery"
            );
            if sent == TOTAL && ep.is_idle() {
                sender_flag.store(true, Ordering::Release);
                assert_clean(ep.port().transport());
                return;
            }
            assert!(Instant::now() < deadline, "sender wedged at {sent}/{TOTAL}");
            std::thread::yield_now();
        }
    });

    let receiver_flag = Arc::clone(&drained);
    let receiver = std::thread::spawn(move || {
        let mut ep = WireEndpoint::new(n1, config(), t1);
        let mut next = 0u32;
        loop {
            ep.step();
            while let Some(d) = ep.poll() {
                assert_eq!(d.src, n0);
                assert_eq!(
                    d.user.pkt_index, next,
                    "out-of-order or duplicated delivery"
                );
                next += 1;
            }
            if next == TOTAL && receiver_flag.load(Ordering::Acquire) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "receiver wedged at {next}/{TOTAL} \
                 (decode_errors={}, foreign={})",
                ep.port().decode_errors(),
                ep.port().foreign()
            );
            std::thread::yield_now();
        }
        assert_eq!(ep.port().decode_errors(), 0, "corrupt frame on loopback");
        assert_eq!(ep.port().foreign(), 0, "misrouted datagram");
        assert_clean(ep.port().transport());
        ep.stats().delivered.get()
    });

    sender.join().expect("sender thread");
    let delivered = receiver.join().expect("receiver thread");
    assert_eq!(delivered, u64::from(TOTAL));
}
