//! Flit-level interconnection-network fabrics for the NIFDY reproduction.
//!
//! The NIFDY paper (Callahan & Goldstein, ISCA '95) evaluates its network
//! interface over "a variety of network fabrics, including meshes, tori,
//! butterflies, and fat trees". This crate implements those fabrics at flit
//! granularity:
//!
//! * [`topology`] — the static structure and routing of each network:
//!   [`Mesh`](topology::Mesh), [`Torus`](topology::Torus),
//!   [`FatTree`](topology::FatTree), [`Cm5FatTree`](topology::Cm5FatTree),
//!   and [`Butterfly`](topology::Butterfly) (dilation 1 or 2).
//! * [`Fabric`] — the cycle-stepped router machinery: virtual channels,
//!   credit-based link flow control, wormhole / virtual cut-through /
//!   store-and-forward switching ([`SwitchingPolicy`]), and the two logical
//!   request/reply networks ([`Lane`]), demand- or time-multiplexed.
//! * [`Packet`] / [`Wire`] — the simulated wire format, including the NIFDY
//!   protocol bits (bulk request/exit, `{seq, dialog}` tags, ack payloads)
//!   that the `nifdy` crate interprets at the edges.
//!
//! # Examples
//!
//! ```
//! use nifdy_net::topology::FatTree;
//! use nifdy_net::{Fabric, FabricConfig, Lane, Packet, SwitchingPolicy};
//! use nifdy_sim::{NodeId, PacketId};
//!
//! let cfg = FabricConfig::default()
//!     .with_policy(SwitchingPolicy::CutThrough)
//!     .with_vc_buf_flits(8);
//! let mut fab = Fabric::new(Box::new(FatTree::new(64)), cfg);
//! let (a, b) = (NodeId::new(0), NodeId::new(42));
//! fab.inject(a, Packet::data(PacketId::new(0), a, b, 6));
//! while fab.peek_eject(b, Lane::Request).is_none() {
//!     fab.step();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Whole-crate panic-freedom and exhaustive matches (DESIGN.md §10): a deliberate
// contract panic or open match carries `#[expect(<lint>, reason = "…")]` at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

mod config;
mod fabric;
mod fault;
mod packet;
mod port;
pub mod topology;

pub use config::{FabricConfig, SwitchingPolicy};
pub use fabric::{Fabric, FabricStats, MAX_PACKET_FLITS};
pub use fault::{FaultConfig, FaultPlane, GilbertElliott, LinkWindow};
pub use packet::{
    AckInfo, BulkGrant, BulkTag, DialogId, InvalidLane, Lane, Packet, PacketStamp, SeqNo, UserData,
    Wire, ACK_WORDS,
};
pub use port::NetPort;
