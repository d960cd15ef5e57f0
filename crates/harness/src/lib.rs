//! Experiment harness: regenerates every table and figure of the NIFDY
//! paper's evaluation (§4) over the fabrics, protocol, and workloads of the
//! sibling crates.
//!
//! Each `figN` module runs one figure and returns both a rendered
//! [`Table`] (the same rows/series the paper reports) and typed data points
//! for programmatic use. The `nifdy-experiments` binary dispatches on a
//! figure name:
//!
//! ```text
//! nifdy-experiments fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|table3|all [--full|--quick|--smoke]
//! ```
//!
//! Cells within a figure are independent simulations; every runner takes a
//! [`Jobs`] worker budget (the binary's `--jobs` flag) and fans its cells
//! across that many threads via [`exec::map`], reassembling tables in
//! canonical order so the output is byte-identical at any job count.
//!
//! # Examples
//!
//! ```
//! use nifdy_harness::{table3, Jobs, Scale};
//!
//! let (table, profiles) = table3::run(1, Jobs::serial());
//! assert_eq!(profiles.len(), 8);
//! println!("{table}");
//! # let _ = Scale::Smoke;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod analyze_cmd;
pub mod exec;
pub mod ext;
pub mod ext_lossy;
pub mod fig23;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig78;
pub mod fig9;
pub mod node_cmd;
mod report;
mod scale;
pub mod sweep;
pub mod table3;
pub mod trace_guard;
pub mod wire_cmd;

pub use exec::{cell_seed, Jobs};
pub use nifdy_traffic::NetworkKind;
pub use report::{heat_map, percentile_table, Table};
pub use scale::Scale;
