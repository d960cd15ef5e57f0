//! NIFDY — *Network Interface with Flow-control and in-order Delivery*.
//!
//! A production-quality reproduction of the network interface proposed by
//! Callahan & Goldstein, **"NIFDY: A Low Overhead, High Throughput Network
//! Interface"**, ISCA 1995. NIFDY performs *admission control at the edges
//! of the network*: a packet is injected only if the destination is expected
//! to be able to accept it, and packets are presented to each processor in
//! the order they were sent even when the underlying fabric reorders them.
//!
//! The crate provides:
//!
//! * [`NifdyUnit`] — the full protocol engine (OPT, outgoing buffer pool
//!   with rank/eligibility, bulk dialogs with sliding-window reorder
//!   buffers, ack generation, the §6.2 retransmission extension and the
//!   §6.1 no-ack bypass),
//! * [`PlainNic`] / [`BufferedNic`] — the paper's "no NIFDY" and
//!   "buffering only" baselines,
//! * [`NifdyConfig`] — the `O`/`B`/`D`/`W` parameters with per-network
//!   presets from §2.4.3 and Table 3,
//! * [`analysis`] — the §2.4 analytic model (Equations 1–3), tested against
//!   the paper's worked examples,
//! * the [`Nic`] trait through which processor models drive any of the
//!   three interfaces interchangeably.
//!
//! # Examples
//!
//! ```
//! use nifdy::{Nic, NifdyConfig, NifdyUnit, OutboundPacket};
//! use nifdy_net::topology::FatTree;
//! use nifdy_net::{Fabric, FabricConfig, SwitchingPolicy};
//! use nifdy_sim::NodeId;
//!
//! let cfg = FabricConfig::default()
//!     .with_policy(SwitchingPolicy::CutThrough)
//!     .with_vc_buf_flits(8);
//! let mut fab = Fabric::new(Box::new(FatTree::new(16)), cfg);
//! let mut nics: Vec<NifdyUnit> = (0..16)
//!     .map(|i| NifdyUnit::new(NodeId::new(i), NifdyConfig::fat_tree()))
//!     .collect();
//!
//! // Node 0 sends three packets to node 9; NIFDY keeps them in order.
//! for _ in 0..3 {
//!     assert!(nics[0].try_send(OutboundPacket::new(NodeId::new(9), 6), fab.now()));
//! }
//! let mut got = 0;
//! while got < 3 {
//!     for nic in &mut nics {
//!         nic.step(&mut fab);
//!     }
//!     fab.step();
//!     if nics[9].poll(fab.now()).is_some() {
//!         got += 1;
//!     }
//!     assert!(fab.now().as_u64() < 50_000);
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

pub mod analysis;
mod baseline;
mod config;
mod nic;
mod rto;
mod unit;

pub use baseline::{BufferedNic, PlainNic};
pub use config::{ConfigError, NifdyConfig, NifdyConfigBuilder};
pub use nic::{
    Delivered, DeliveryFailure, FailureKind, Nic, NicOccupancy, NicStats, OutboundPacket,
};
pub use rto::RttEstimator;
pub use unit::NifdyUnit;
