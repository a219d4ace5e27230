//! Micro-op model and trace abstractions for the `powerbalance` simulator.
//!
//! This crate defines the instruction-level vocabulary shared by the workload
//! generators (`powerbalance-workloads`) and the cycle-level core
//! (`powerbalance-uarch`): operation classes with execution latencies,
//! architectural registers, branch metadata, and the [`TraceSource`]
//! abstraction that feeds the pipeline front end.
//!
//! The model is deliberately ISA-neutral. The MICRO 2005 paper this project
//! reproduces ran Alpha binaries on SimpleScalar, but none of its results
//! depend on Alpha semantics — only on the *class* of each operation (which
//! functional unit it occupies and for how long), its register dependences,
//! and its memory/branch behaviour. Those are exactly the fields of
//! [`MicroOp`].
//!
//! # Examples
//!
//! ```
//! use powerbalance_isa::{ArchReg, MicroOp, OpClass};
//!
//! let add = MicroOp::new(OpClass::IntAlu)
//!     .with_dest(ArchReg::int(3))
//!     .with_src1(ArchReg::int(1))
//!     .with_src2(ArchReg::int(2));
//! assert_eq!(add.class().latency(), 1);
//! assert!(add.class().is_int());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod op;
mod reg;
mod ring;
mod trace;
mod uop;

pub use op::{ExecDomain, OpClass};
pub use reg::{ArchReg, RegClass, FP_ARCH_REGS, INT_ARCH_REGS, TOTAL_ARCH_REGS};
pub use ring::{DetachedTrace, SharedTraceRing, TraceCursor};
pub use trace::{Detach, SliceTrace, TraceSource};
pub use uop::{BranchInfo, MemRef, MicroOp};
