//! Cycle-synchronous simulation kernel for the NIFDY reproduction.
//!
//! The NIFDY paper (Callahan & Goldstein, ISCA '95) evaluates its network
//! interface with a simulator in which *"each cycle is simulated explicitly
//! and synchronously by all objects"*. This crate provides the shared
//! substrate for that style of simulation:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp,
//! * [`NodeId`] — a strongly-typed processor/node identifier,
//! * [`SimRng`] — deterministic, splittable random-number streams (the paper
//!   keeps *"dedicated state for each pseudo-random number generator"* so the
//!   same bursts are generated regardless of configuration),
//! * [`metrics`] — counters, a running mean and log-bucketed latency
//!   histograms used to produce the paper's tables and figures,
//! * [`StallWatchdog`] — cycle-driven detection of units that stay busy
//!   without making progress (livelock and lost-wakeup tripwire for lossy
//!   fabrics),
//! * [`Wakeup`] — the stepping contract that lets an event-driven driver
//!   skip quiescent cycles while staying byte-identical to explicit
//!   cycle-by-cycle stepping,
//! * [`WakeSet`] — a due set plus a per-member deadline queue: the one
//!   scheduler primitive the fabric's worklists and the driver's per-node
//!   stepping share,
//! * [`Slab`] — a generational free-list arena so steady-state packet and
//!   flit churn never allocates.
//!
//! # Examples
//!
//! ```
//! use nifdy_sim::{Cycle, NodeId, SimRng};
//!
//! let mut rng = SimRng::from_seed_stream(42, NodeId::new(3).index() as u64);
//! let mut now = Cycle::ZERO;
//! let delay = rng.gen_range_u64(1..10);
//! now += delay;
//! assert!(now.as_u64() >= 1 && now.as_u64() < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Whole-crate panic-freedom and exhaustive matches (DESIGN.md §10): a deliberate
// contract panic or open match carries `#[expect(<lint>, reason = "…")]` at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

mod cycle;
mod id;
pub mod metrics;
mod rng;
mod slab;
mod wakeset;
mod wakeup;
mod watchdog;

pub use cycle::Cycle;
pub use id::{NodeId, PacketId};
pub use rng::SimRng;
pub use slab::{Slab, SlabKey};
pub use wakeset::WakeSet;
pub use wakeup::Wakeup;
pub use watchdog::{StallReport, StallWatchdog};
