//! The architectural oracle: an in-order reference executor.
//!
//! Micro-ops in this simulator carry no data values, so "architectural
//! state" is tracked as *writer identity*: for every architectural
//! register and every touched memory address, the fetch `uid` of the last
//! micro-op that wrote it. An in-order machine and a correct out-of-order
//! machine must agree on all of it — the OoO core only reorders execution,
//! never retirement. The oracle therefore keeps two copies: a *reference*
//! state driven by the fetch stream in program order, and an *observed*
//! state driven by the `(uid, op)` pairs the core reports at retirement.
//! Any divergence in retirement order, per-op identity, retired count, or
//! final state is a correctness bug in the core.

use crate::{Sink, ViolationKind};
use powerbalance_isa::{MicroOp, OpClass, RegClass};
use powerbalance_uarch::Core;
use std::collections::{HashMap, VecDeque};

/// Last-writer identity per architectural register and memory address.
#[derive(Debug, Default, PartialEq, Eq)]
struct ArchState {
    int_writer: [Option<u64>; 32],
    fp_writer: [Option<u64>; 32],
    mem_writer: HashMap<u64, u64>,
}

impl ArchState {
    fn apply(&mut self, uid: u64, op: &MicroOp) {
        if let Some(dest) = op.dest() {
            let idx = usize::from(dest.class_index());
            match dest.class() {
                RegClass::Int => self.int_writer[idx] = Some(uid),
                RegClass::Fp => self.fp_writer[idx] = Some(uid),
            }
        }
        if op.class() == OpClass::Store {
            if let Some(mem) = op.mem() {
                self.mem_writer.insert(mem.addr, uid);
            }
        }
    }
}

/// The differential oracle fed from the core's fetch and commit logs.
#[derive(Debug)]
pub(crate) struct Oracle {
    /// Fetched ops not yet retired, in program order.
    pending: VecDeque<MicroOp>,
    /// Ops with `uid < skip_until` were fetched before checking was
    /// enabled (warmup, restore): they are absent from the fetch log, so
    /// their retirements are only checked for ordering.
    skip_until: u64,
    /// The uid the next retirement must carry: this pipeline has no
    /// squash path, so retirement consumes uids consecutively.
    next_commit_uid: u64,
    reference: ArchState,
    observed: ArchState,
    /// Retirements fully cross-checked (uid ≥ `skip_until`).
    retired: u64,
}

impl Oracle {
    pub(crate) fn new(core: &Core) -> Self {
        let stats = core.stats();
        Oracle {
            pending: VecDeque::new(),
            skip_until: stats.fetched,
            next_commit_uid: stats.committed,
            reference: ArchState::default(),
            observed: ArchState::default(),
            retired: 0,
        }
    }

    pub(crate) fn on_cycle(
        &mut self,
        cycle: u64,
        fetched: &[MicroOp],
        committed: &[(u64, MicroOp)],
        sink: &mut Sink,
    ) {
        self.pending.extend(fetched.iter().copied());
        for &(uid, op) in committed {
            if uid != self.next_commit_uid {
                sink.report(
                    ViolationKind::Oracle,
                    cycle,
                    format!(
                        "retirement out of order: retired uid {uid}, expected {}",
                        self.next_commit_uid
                    ),
                );
            }
            self.next_commit_uid = uid + 1;
            if uid < self.skip_until {
                continue; // in flight before checking was enabled
            }
            match self.pending.pop_front() {
                Some(expected) => {
                    if expected != op {
                        sink.report(
                            ViolationKind::Oracle,
                            cycle,
                            format!(
                                "retired op differs from the fetched program order at uid \
                                 {uid}: fetched {expected:?}, retired {op:?}"
                            ),
                        );
                    }
                    self.reference.apply(uid, &expected);
                }
                None => sink.report(
                    ViolationKind::Oracle,
                    cycle,
                    format!("uid {uid} retired but was never observed at fetch"),
                ),
            }
            self.observed.apply(uid, &op);
            self.retired += 1;
        }
    }

    pub(crate) fn finish(&mut self, core: &Core, sink: &mut Sink) {
        let stats = core.stats();
        let cycle = stats.cycles;
        if core.is_done() {
            if !self.pending.is_empty() {
                sink.report(
                    ViolationKind::Oracle,
                    cycle,
                    format!(
                        "core drained but {} fetched ops never retired (first pc {:#x})",
                        self.pending.len(),
                        self.pending[0].pc()
                    ),
                );
            }
            if stats.committed != stats.fetched {
                sink.report(
                    ViolationKind::Oracle,
                    cycle,
                    format!(
                        "core drained with committed {} != fetched {}",
                        stats.committed, stats.fetched
                    ),
                );
            }
        }
        let expected_retired = stats.committed.saturating_sub(self.skip_until);
        if self.retired != expected_retired {
            sink.report(
                ViolationKind::Oracle,
                cycle,
                format!(
                    "oracle cross-checked {} retirements but the core reports {} \
                     (committed {} − pre-checker {})",
                    self.retired, expected_retired, stats.committed, self.skip_until
                ),
            );
        }
        self.compare_states(cycle, sink);
    }

    /// Final architectural-state comparison, bounded to one violation per
    /// register class plus one for memory.
    fn compare_states(&self, cycle: u64, sink: &mut Sink) {
        for (class, reference, observed) in [
            ("int", &self.reference.int_writer, &self.observed.int_writer),
            ("fp", &self.reference.fp_writer, &self.observed.fp_writer),
        ] {
            let diffs: Vec<String> = reference
                .iter()
                .zip(observed.iter())
                .enumerate()
                .filter(|(_, (r, o))| r != o)
                .take(4)
                .map(|(i, (r, o))| format!("{class}[{i}]: reference {r:?} vs observed {o:?}"))
                .collect();
            if !diffs.is_empty() {
                sink.report(
                    ViolationKind::Oracle,
                    cycle,
                    format!("final {class} register writers diverge: {}", diffs.join("; ")),
                );
            }
        }
        if self.reference.mem_writer != self.observed.mem_writer {
            let diverging = self
                .reference
                .mem_writer
                .iter()
                .filter(|(addr, uid)| self.observed.mem_writer.get(*addr) != Some(uid))
                .count()
                + self
                    .observed
                    .mem_writer
                    .keys()
                    .filter(|addr| !self.reference.mem_writer.contains_key(*addr))
                    .count();
            sink.report(
                ViolationKind::Oracle,
                cycle,
                format!("final memory writers diverge at {diverging} addresses"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_isa::{ArchReg, MemRef};

    fn op(dest: u8) -> MicroOp {
        MicroOp::new(OpClass::IntAlu).with_dest(ArchReg::int(dest))
    }

    fn fresh_oracle() -> Oracle {
        let core = Core::new(powerbalance_uarch::CoreConfig::default()).expect("valid config");
        Oracle::new(&core)
    }

    #[test]
    fn in_order_retirement_is_clean() {
        let mut oracle = fresh_oracle();
        let mut sink = Sink::default();
        let ops = [op(1), op(2), op(1)];
        oracle.on_cycle(1, &ops, &[], &mut sink);
        oracle.on_cycle(2, &[], &[(0, ops[0]), (1, ops[1]), (2, ops[2])], &mut sink);
        assert!(sink.violations.is_empty());
        assert_eq!(oracle.reference, oracle.observed);
        assert_eq!(oracle.reference.int_writer[1], Some(2));
        assert_eq!(oracle.reference.int_writer[2], Some(1));
    }

    #[test]
    fn out_of_order_retirement_is_flagged() {
        let mut oracle = fresh_oracle();
        let mut sink = Sink::default();
        let ops = [op(1), op(2)];
        oracle.on_cycle(1, &ops, &[], &mut sink);
        // Retire uid 1 before uid 0: both the ordering check and the
        // program-order op comparison fire.
        oracle.on_cycle(2, &[], &[(1, ops[1]), (0, ops[0])], &mut sink);
        assert!(sink.violations.len() >= 2, "reorder must be flagged, got {:?}", sink.violations);
    }

    #[test]
    fn corrupted_retired_op_is_flagged() {
        let mut oracle = fresh_oracle();
        let mut sink = Sink::default();
        oracle.on_cycle(1, &[op(1)], &[(0, op(7))], &mut sink);
        assert_eq!(sink.violations.len(), 1);
        assert!(sink.violations[0].detail.contains("differs"));
    }

    #[test]
    fn store_addresses_are_tracked() {
        let mut oracle = fresh_oracle();
        let mut sink = Sink::default();
        let st = MicroOp::new(OpClass::Store).with_mem(MemRef::new(0x40));
        let ld = MicroOp::new(OpClass::Load).with_mem(MemRef::new(0x40)).with_dest(ArchReg::int(3));
        oracle.on_cycle(1, &[st, ld], &[(0, st), (1, ld)], &mut sink);
        assert!(sink.violations.is_empty());
        assert_eq!(oracle.reference.mem_writer.get(&0x40), Some(&0));
        assert_eq!(oracle.reference.int_writer[3], Some(1), "loads write registers, not memory");
    }

    #[test]
    fn retirements_before_enablement_only_check_ordering() {
        let mut oracle = fresh_oracle();
        oracle.skip_until = 2;
        oracle.next_commit_uid = 0;
        let mut sink = Sink::default();
        // uids 0 and 1 predate the checker: no fetch-log entry for them.
        oracle.on_cycle(1, &[op(5)], &[(0, op(9)), (1, op(9)), (2, op(5))], &mut sink);
        assert!(sink.violations.is_empty());
        assert_eq!(oracle.retired, 1);
    }
}
