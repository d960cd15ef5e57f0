//! Byte-level wire format and socket transports for the NIFDY network
//! interface (Callahan & Goldstein, ISCA '95).
//!
//! The simulator crates model NIFDY's packets as Rust structs riding a
//! cycle-accurate fabric. This crate gives those packets a *real* encoding —
//! the byte layout §3 of the paper implies, including the `{sequence mod W,
//! dialog}` substitution for source-id bits on bulk packets — and carries
//! the encoded frames over pluggable transports:
//!
//! * [`LoopbackHub`] — a deterministic in-process exchange with fixed
//!   latency and optional seeded jitter, used by the differential
//!   conformance suite (one [`conformance::run`] loop over any
//!   [`conformance::NodeSet`], fed by the [`scenarios`] table) to prove the
//!   wire stack delivers exactly what the simulated fabric delivers;
//! * [`UdpTransport`] — real UDP sockets (one to receive per node, one
//!   connected sender per peer), so OS-level loss, duplication, and
//!   reordering exercise the §6 retransmission and duplicate-bit machinery.
//!
//! The protocol state machine is [`nifdy::NifdyUnit`], unchanged: the unit
//! steps against a [`NetPort`](nifdy_net::NetPort), and [`TransportPort`]
//! implements that port by encoding on inject and decoding on eject.
//! [`codec::decode`] is total — arbitrary bytes produce a
//! [`WireError`], never a panic (property-tested).
//!
//! A standalone [`WireEndpoint`] has no liveness. Crash recovery lives in
//! the `nifdy-node` daemon, once per process: epoch-stamped [`Heartbeat`]
//! beacons per peer daemon, peer-down detection, and a
//! [`WireEndpoint::reset_peer`] on every hosted endpoint when a peer
//! daemon's epoch rises. This crate keeps the shared pieces: the beacon
//! frame, [`SupervisorConfig`] and [`PeerEvent`].

// `deny`, not `forbid`: the one exception is the UDP carrier's syscall
// module (`udp/sys.rs`), under a reasoned `#[expect(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Whole-crate panic-freedom and exhaustive matches (DESIGN.md §10): a deliberate
// contract panic or open match carries `#[expect(<lint>, reason = "…")]` at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

pub mod codec;
pub mod conformance;
mod endpoint;
pub mod fault;
mod port;
pub mod scenarios;
mod supervisor;
mod transport;
mod udp;

pub use codec::{
    decode, decode_frame, encode, encode_heartbeat, encode_heartbeat_into, encode_into, peek_route,
    Heartbeat, WireError, WireFrame, WirePacket, WireSource,
};
pub use endpoint::WireEndpoint;
pub use fault::{FaultyTransport, WireFaultConfig};
/// [`FaultCounts`](nifdy_net::FaultCounts) under its old name, kept only
/// because the benchmark package names it.
pub use nifdy_net::FaultCounts as WireFaultStats;
pub use port::TransportPort;
pub use supervisor::{PeerEvent, SupervisorConfig};
pub use transport::{BatchTransport, LoopbackHub, LoopbackTransport, Transport};
pub use udp::{TransportError, UdpTransport};
