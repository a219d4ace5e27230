//! HotSpot-style lumped-RC thermal model for the `powerbalance` simulator.
//!
//! The MICRO 2005 paper uses the HotSpot model (Skadron et al., ISCA 2003) to
//! track per-block temperatures on an Alpha-EV6-like floorplan, with the key
//! refinement that aggregated resources are split into individually-modeled
//! copies: the integer issue queue into two halves, the integer register
//! file into two copies, the integer execution area into six ALUs, and the
//! FP add area into four adders. This crate rebuilds that model from
//! scratch:
//!
//! * [`Floorplan`] — rectangular block geometry with adjacency extraction
//!   (shared-edge lengths drive lateral conduction);
//! * [`ev6`] — the EV6-like floorplan at 90 nm plus the paper's three
//!   thermally-constrained variants (Figure 5);
//! * [`ThermalNetwork`] / [`ThermalModel`] — a lumped RC network with one
//!   node per block, lateral silicon conductances, a vertical path through
//!   spreader and heat sink to ambient, integrated with an unconditionally
//!   stable backward-Euler step.
//!
//! Vertical conduction (block → spreader → sink) is deliberately much
//! stronger than lateral conduction (block ↔ block), reproducing the
//! physical effect the paper's whole premise rests on: "heat conducts much
//! more vertically to the heat sink than laterally to adjacent copies", so
//! an overutilized ALU stays hotter than its idle neighbor.
//!
//! # Examples
//!
//! ```
//! use powerbalance_thermal::{ev6, PackageConfig, ThermalModel};
//!
//! let plan = ev6::baseline();
//! let mut model = ThermalModel::new(&plan, PackageConfig::default());
//! let watts = vec![0.5; plan.blocks().len()];
//! model.step(&watts, 1e-3); // 1 ms of heating
//! let hottest = model.hottest_block();
//! println!("hottest: {} at {:.1} K", plan.blocks()[hottest].name, model.temperature(hottest));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ev6;
mod floorplan;
mod linalg;
mod model;
pub mod multicore;
mod network;
mod package;

pub use floorplan::{Block, Floorplan};
pub use linalg::LuFactors;
pub use model::{BatchThermalSolver, ThermalModel};
pub use network::ThermalNetwork;
pub use package::PackageConfig;
