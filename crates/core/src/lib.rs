//! `powerbalance` — a reproduction of *Balancing Resource Utilization to
//! Mitigate Power Density in Processor Pipelines* (Powell, Schuchman,
//! Vijaykumar; MICRO 2005).
//!
//! The paper observes that three back-end resources of an out-of-order
//! superscalar — the compacting issue queue, the statically-prioritized
//! ALUs, and the register-file copies — are utilized *asymmetrically* by
//! design, which concentrates power density and triggers thermal
//! emergencies. It proposes three simple spatial techniques (activity
//! toggling, fine-grain turnoff, and priority mapping with turnoff) that
//! balance utilization and defer the performance-killing temporal stalls.
//!
//! This crate is the user-facing facade over the full simulation stack:
//!
//! | layer | crate |
//! |---|---|
//! | synthetic SPEC2000-like workloads | `powerbalance-workloads` |
//! | cycle-level 6-wide OoO core | `powerbalance-uarch` |
//! | event-energy accounting (Table 3) | `powerbalance-power` |
//! | HotSpot-style RC thermal model | `powerbalance-thermal` |
//! | the paper's techniques | `powerbalance-mitigation` |
//!
//! # Quickstart
//!
//! ```
//! use powerbalance::{experiments, Simulator};
//! use powerbalance_workloads::spec2000;
//!
//! // Issue-queue-constrained CPU with activity toggling (paper §4.1).
//! let config = experiments::issue_queue(true);
//! let mut sim = Simulator::new(config)?;
//! let profile = spec2000::by_name("mesa").expect("known benchmark");
//! let result = sim.run(&mut profile.trace(42), 200_000);
//! println!("mesa: IPC {:.2}, {} toggles", result.ipc, result.toggles);
//! # Ok::<(), powerbalance::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod engine;
mod error;
pub mod experiments;
mod multicore;
mod result;
mod sched;
mod simulator;
mod snapshot;

pub use batch::{BatchPart, BatchSimulator};
pub use config::{Fidelity, SimConfig, DEFAULT_FAST_WINDOW};
pub use error::Error;
pub use multicore::{MultiCoreResult, MultiCoreSimulator, TaskSet};
pub use result::{BlockTemperature, RunResult};
pub use simulator::{RunControl, Simulator, StopCause};
pub use snapshot::{FastEngineState, SimulatorState, Snapshot, FORMAT_VERSION};

pub use sched::{CoreView, SchedulerKind, SegmentLen, Task, DEFAULT_MIGRATION_STALL};

// Re-export the subsystem vocabulary users need to configure runs.
// `spec2000` and its `TraceGenerator` ride along so downstream crates
// (harness, bench, cli) can name benchmarks and their traces without
// depending on `powerbalance-workloads` directly.
pub use powerbalance_isa::{Detach, TraceCursor, TraceSource};
pub use powerbalance_mitigation::{
    DutyLadder, DvfsParams, GateParams, GlobalPolicy, MitigationConfig, OppLadder, OppLevel,
    Thresholds, TripPoint, TripSeverity, TripTable,
};
pub use powerbalance_power::EnergyTables;
pub use powerbalance_thermal::ev6::FloorplanKind;
pub use powerbalance_thermal::PackageConfig;
pub use powerbalance_uarch::{CoreConfig, IqMode, MappingPolicy, SelectPolicy};
pub use powerbalance_workloads::{spec2000, TraceGenerator};

// Correctness tooling: the violation vocabulary fuzz/test drivers need
// to inspect and persist findings.
pub use powerbalance_check::{RuntimeChecker, Violation, ViolationKind};
