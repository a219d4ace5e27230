//! Power-density mitigation techniques from the MICRO 2005 paper.
//!
//! Three *spatial* techniques exploit utilization asymmetry inside back-end
//! resources, each implemented as part of the [`ThermalManager`]:
//!
//! * **Activity toggling** (§2.1.1): when one issue-queue half runs more
//!   than a threshold (0.5 K) hotter than the other, flip the head/tail
//!   configuration so compaction activity moves to the cooler half.
//! * **Fine-grain turnoff** (§2.2): mark an overheated ALU busy so its
//!   select tree grants nothing; re-enable it once it cools. The processor
//!   keeps running on the remaining units instead of stalling outright.
//! * **Register-file copy turnoff** (§2.3): disable an overheated
//!   register-file copy by busy-marking the ALUs wired to it (combined with
//!   the [`MappingPolicy`] chosen at core construction).
//!
//! The *temporal* backstop (`Pentium 4`-style, §3) freezes the whole core
//! for the package's thermal cooling time whenever a resource overheats
//! beyond what the enabled spatial techniques can absorb — which is also
//! exactly the baseline behaviour when the spatial techniques are disabled.
//!
//! The crate is layered (DESIGN.md §12):
//!
//! 1. **Sensing** — [`Sensors`] resolve floorplan blocks, [`Zones`] attach
//!    ordered [`TripTable`]s (trip + clear temperature per severity) to
//!    every monitored block.
//! 2. **Decision** — one pure rule decides what to do each sample for
//!    every [`MitigationConfig`]: release an expired freeze or DVFS
//!    transition stall, run the enabled spatial techniques, fire the
//!    freeze backstop, then step the §5 global ladder if one is
//!    configured (DVFS over a discrete [`OppLadder`], fetch gating, or
//!    global clock throttling). Configurations differ in data, not in
//!    code: a technique whose flag is off emits nothing.
//! 3. **Actuation** — typed [`Actuation`] commands are applied by the
//!    executor in [`actuators`]; the decision never touches core
//!    internals.
//!
//! [`MappingPolicy`]: powerbalance_uarch::MappingPolicy
//!
//! # Examples
//!
//! ```
//! use powerbalance_mitigation::{MitigationConfig, Sensors, ThermalManager};
//! use powerbalance_thermal::ev6;
//!
//! let plan = ev6::issue_constrained();
//! let sensors = Sensors::new(&plan).expect("ev6 block names");
//! let manager = ThermalManager::new(MitigationConfig::spatial_all(), sensors);
//! assert_eq!(manager.stats().toggles, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actuators;
mod config;
mod list;
mod manager;
mod policy;
mod sensors;
mod zones;

pub use actuators::Actuation;
pub use config::{
    DutyLadder, DvfsParams, GateParams, GlobalPolicy, MitigationConfig, OppLadder, OppLevel,
    Thresholds, MAX_GATE_LEVELS, MAX_OPPS,
};
pub use list::InlineList;
pub use manager::{ManagerState, MitigationStats, ThermalManager, RF_GUARD};
pub use policy::PolicyState;
pub use sensors::Sensors;
pub use zones::{ThermalZone, TripPoint, TripSeverity, TripTable, Zones, MAX_TRIPS};
