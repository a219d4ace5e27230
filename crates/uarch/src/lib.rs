//! Cycle-level out-of-order superscalar core for the `powerbalance`
//! simulator.
//!
//! This crate is the microarchitectural substrate of the MICRO 2005
//! reproduction: a 6-wide out-of-order pipeline with the three structures
//! whose utilization asymmetry the paper targets modeled *structurally*:
//!
//! * a **compacting issue queue** ([`IssueQueue`]) with per-entry compaction
//!   movement, the clock-gating rules of the paper's §2.1, and the toggled
//!   head-at-middle mode with wrap-around long wires;
//! * **per-ALU select trees** with static-priority serialization, busy
//!   masking (the hook fine-grain turnoff uses), and an ideal round-robin
//!   mode ([`SelectPolicy`]);
//! * **register-file copies** wired to ALUs under the three Figure-4
//!   mappings ([`MappingPolicy`], [`RegFileWiring`]) with per-copy turnoff.
//!
//! Around those sit the supporting substrates a real core needs: gshare
//! branch prediction ([`BranchPredictor`]), a two-level cache hierarchy
//! ([`MemoryHierarchy`]), rename ([`RenameMap`]), an active list
//! ([`ActiveList`]), and a load/store queue, all orchestrated by [`Core`].
//!
//! The core emits fine-grained [`ActivitySample`]s (per-queue-half
//! compaction counts, per-ALU issue counts, per-register-file-copy port
//! reads) that the `powerbalance-power` crate turns into per-block power.
//!
//! # Examples
//!
//! ```
//! use powerbalance_uarch::{Core, CoreConfig};
//! use powerbalance_isa::{MicroOp, OpClass, SliceTrace};
//!
//! let mut core = Core::new(CoreConfig::default()).expect("valid config");
//! let mut trace = SliceTrace::new(vec![MicroOp::new(OpClass::IntAlu); 64]);
//! while !core.is_done() {
//!     core.cycle(&mut trace);
//! }
//! println!("IPC = {:.2}", core.stats().ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod bpred;
mod cache;
mod config;
mod exec;
mod iq;
mod pipeline;
mod rob;

pub use activity::{ActivitySample, IqActivity};
pub use bpred::{BranchPredictor, BranchPredictorState};
pub use cache::{Cache, CacheOutcome, CacheState, MemoryHierarchy, MemoryState};
pub use config::{CacheConfig, CoreConfig, DutyCycle, IqMode, MappingPolicy, SelectPolicy};
pub use exec::{
    units_in_order, FuPool, FuPoolState, ReadCharges, RegFileWiring, UnitKind, WiringState,
};
pub use iq::{EntryState, IqEntry, IqState, IssueQueue};
pub use pipeline::{Core, CoreState, CoreStats};
pub use rob::{ActiveList, ActiveListState, RenameMap, RobEntry, RobState};
