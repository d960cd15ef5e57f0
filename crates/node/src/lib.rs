//! `nifdy-node`: a many-endpoint daemon for the NIFDY network interface.
//!
//! The wire crate gives one [`WireEndpoint`](nifdy_wire::WireEndpoint) one
//! transport attachment — one NIFDY chip, one cable. A deployment wants the
//! opposite shape: *one OS process* hosting hundreds or thousands of logical
//! nodes behind a handful of real sockets. This crate is that host:
//!
//! * [`NifdyNode`] — the daemon. It owns N supervised endpoints partitioned
//!   into **flow-affine shards** (every frame for a given destination lands
//!   in the shard that owns that destination's dialog/OPT state, so a
//!   dialog's frames never cross shards — see [`mux::shard_of`]), drains
//!   its carriers with bounded batch reads, ticks shards in deterministic
//!   order, and flushes sends with coalesced batched writes
//!   ([`BatchTransport`](nifdy_wire::BatchTransport));
//! * [`MuxPort`] — the in-memory per-endpoint transport the daemon
//!   demultiplexes frames into and drains sends out of;
//! * [`workload`] — seeded swarm workloads (the conformance rotation and the
//!   paper's EM3D kernel) with expected per-destination delivery logs, and
//!   the [`DaemonSet`](workload::DaemonSet) that puts daemons under the
//!   same scenario runner as the flit-level simulator, so a daemon run —
//!   even a multi-process swarm over real UDP sockets — can be checked for
//!   delivery-order parity against the cycle-accurate simulation.
//!
//! The protocol state machine is untouched: each logical node is a plain
//! [`nifdy::NifdyUnit`] under a [`Supervisor`](nifdy_wire::Supervisor), so
//! PR 6's heartbeat/epoch recovery machinery works at daemon scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Whole-crate panic-freedom and exhaustive matches (DESIGN.md §10): a deliberate
// contract panic or open match carries `#[expect(<lint>, reason = "…")]` at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

pub mod config;
mod daemon;
pub mod mux;
mod stats;
pub mod workload;

pub use config::NodeConfig;
pub use daemon::NifdyNode;
pub use mux::MuxPort;
pub use stats::{NodeStats, ShardStats};
