//! Per-cycle pipeline invariants.
//!
//! Everything here is checked at cycle *boundaries*: the watch captures
//! the pre-cycle state in [`CoreWatch::before_cycle`], lets the core run
//! one cycle, and audits the post-cycle state against it. No hooks inside
//! the pipeline are needed because every input the checks depend on
//! (freeze flag, unit enables, register-copy wiring, FP-multiplier
//! occupancy) only changes between cycles — the mitigation manager runs
//! at sample boundaries, and the multiplier's busy counter is decremented
//! by `pool.tick()` *after* FP select has read it.
//!
//! The age-order invariant tracks only *Waiting* entries: an issued entry
//! never returns to Waiting (the replay window merely delays compaction),
//! so across one cycle the Waiting population of a queue can change in
//! exactly two ways — entries leave by issuing, and newly dispatched
//! entries append after every survivor. Compaction and mode toggles may
//! relocate positions, but the rank order of survivors must be preserved
//! and dispatch order must match fetch order.

use crate::{Sink, ViolationKind};
use powerbalance_uarch::{Core, CoreStats, DutyCycle, EntryState, IssueQueue, UnitKind};

const MAX_INT_UNITS: usize = 6;
const MAX_FP_UNITS: usize = 4;
const MAX_RF_COPIES: usize = 2;

/// State captured at the pre-cycle boundary.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    frozen: bool,
    /// Cycle counter at the boundary; the cycle about to run evaluates its
    /// duty-cycle gates at `now + 1` (the core bumps `now` first).
    now: u64,
    fetch_duty: DutyCycle,
    clock_duty: DutyCycle,
    stats: CoreStats,
    /// Integer ALU may be granted work: enabled *and* its register-file
    /// copy wiring allows reads.
    int_usable: [bool; MAX_INT_UNITS],
    fp_enabled: [bool; MAX_FP_UNITS],
    fp_mul_available: bool,
    rf_copy_enabled: [bool; MAX_RF_COPIES],
}

/// Waiting-population tracking for one issue queue.
#[derive(Debug)]
struct QueueWatch {
    label: &'static str,
    /// Waiting uids in rank (age) order at the last boundary.
    prev: Vec<u64>,
    /// Scratch for the current list.
    cur: Vec<u64>,
    /// Highest uid ever seen Waiting in this queue: anything above it is a
    /// fresh dispatch, anything at or below must be a survivor.
    max_uid: Option<u64>,
}

/// Outcome of auditing one queue transition.
struct Audit {
    survivors: u64,
    inserted: u64,
}

impl QueueWatch {
    fn new(label: &'static str) -> Self {
        QueueWatch { label, prev: Vec::new(), cur: Vec::new(), max_uid: None }
    }

    /// Records the Waiting population at a pre-cycle boundary.
    fn capture(&mut self, core: &Core, iq: &IssueQueue) {
        collect_waiting(core, iq, &mut self.prev);
        // Seed the uid horizon from pre-existing entries so a checker
        // enabled mid-run does not misread them as fresh dispatches.
        if let Some(&m) = self.prev.iter().max() {
            self.max_uid = Some(self.max_uid.map_or(m, |o| o.max(m)));
        }
    }

    /// Audits the post-cycle Waiting population against the captured one
    /// and the per-domain issue count, returning how many entries were
    /// dispatched into the queue this cycle.
    fn check(
        &mut self,
        core: &Core,
        iq: &IssueQueue,
        issued_delta: u64,
        cycle: u64,
        sink: &mut Sink,
    ) -> u64 {
        collect_waiting(core, iq, &mut self.cur);
        let audit = audit_transition(self.label, &self.prev, &self.cur, self.max_uid, cycle, sink);
        let departed = self.prev.len() as u64 - audit.survivors;
        if departed != issued_delta {
            sink.report(
                ViolationKind::IqAccounting,
                cycle,
                format!(
                    "{}: {departed} entries left Waiting this cycle but {issued_delta} \
                     issues were recorded",
                    self.label
                ),
            );
        }
        if let Some(&m) = self.cur.iter().max() {
            self.max_uid = Some(self.max_uid.map_or(m, |o| o.max(m)));
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
        audit.inserted
    }
}

/// Pure transition audit over two rank-ordered Waiting uid lists.
///
/// `max_uid` is the horizon at the *previous* boundary: uids above it are
/// fresh dispatches. Checks that survivors keep their relative order, that
/// fresh entries arrive in fetch order, and that no fresh entry is ranked
/// ahead of a survivor (dispatch appends behind the compacted region).
fn audit_transition(
    label: &str,
    prev: &[u64],
    cur: &[u64],
    max_uid: Option<u64>,
    cycle: u64,
    sink: &mut Sink,
) -> Audit {
    let mut pi = 0usize;
    let mut survivors = 0u64;
    let mut inserted = 0u64;
    let mut last_new: Option<u64> = None;
    for &uid in cur {
        let is_new = max_uid.is_none_or(|m| uid > m);
        if is_new {
            if let Some(l) = last_new {
                if uid <= l {
                    sink.report(
                        ViolationKind::IqOrder,
                        cycle,
                        format!("{label}: dispatched uids out of fetch order ({l} before {uid})"),
                    );
                }
            }
            last_new = Some(uid);
            inserted += 1;
        } else {
            if last_new.is_some() {
                sink.report(
                    ViolationKind::IqOrder,
                    cycle,
                    format!(
                        "{label}: older waiting entry uid {uid} is ranked after a newly \
                         dispatched entry"
                    ),
                );
            }
            match prev[pi..].iter().position(|&p| p == uid) {
                Some(k) => {
                    pi += k + 1;
                    survivors += 1;
                }
                None => sink.report(
                    ViolationKind::IqOrder,
                    cycle,
                    format!(
                        "{label}: waiting uid {uid} is out of age order relative to the \
                         previous cycle (compaction reordered it, or it reappeared)"
                    ),
                ),
            }
        }
    }
    Audit { survivors, inserted }
}

/// Rank-ordered uids of all Waiting entries in a queue.
fn collect_waiting(core: &Core, iq: &IssueQueue, out: &mut Vec<u64>) {
    out.clear();
    for rank in 0..iq.size() {
        let pos = iq.position_of_rank(rank);
        if let Some(entry) = iq.entry(pos) {
            if entry.state == EntryState::Waiting {
                out.push(core.active_list().entry(entry.rob_id).uid);
            }
        }
    }
}

/// The per-cycle pipeline invariant checker.
#[derive(Debug)]
pub(crate) struct CoreWatch {
    n_int: usize,
    n_fp: usize,
    n_copies: usize,
    int_q: QueueWatch,
    fp_q: QueueWatch,
    prev: Option<Boundary>,
}

impl CoreWatch {
    pub(crate) fn new(core: &Core) -> Self {
        let cfg = core.config();
        CoreWatch {
            n_int: cfg.int_alus,
            n_fp: cfg.fp_adders,
            n_copies: cfg.int_rf_copies,
            int_q: QueueWatch::new("int IQ"),
            fp_q: QueueWatch::new("fp IQ"),
            prev: None,
        }
    }

    pub(crate) fn before_cycle(&mut self, core: &Core) {
        let mut b = Boundary {
            frozen: core.is_frozen(),
            now: core.now(),
            fetch_duty: core.fetch_duty(),
            clock_duty: core.clock_duty(),
            stats: *core.stats(),
            int_usable: [false; MAX_INT_UNITS],
            fp_enabled: [false; MAX_FP_UNITS],
            fp_mul_available: core.unit_available(UnitKind::FpMul, 0),
            rf_copy_enabled: [false; MAX_RF_COPIES],
        };
        for u in 0..self.n_int {
            b.int_usable[u] = core.unit_enabled(UnitKind::IntAlu, u) && core.wiring().alu_usable(u);
        }
        for u in 0..self.n_fp {
            b.fp_enabled[u] = core.unit_enabled(UnitKind::FpAdd, u);
        }
        for c in 0..self.n_copies {
            b.rf_copy_enabled[c] = core.rf_copy_enabled(c);
        }
        self.int_q.capture(core, core.int_iq());
        self.fp_q.capture(core, core.fp_iq());
        self.prev = Some(b);
    }

    pub(crate) fn after_cycle(&mut self, core: &Core, sink: &mut Sink) {
        let Some(prev) = self.prev.take() else { return };
        let cur = *core.stats();
        let cycle = cur.cycles;

        // Slot accounting: the queue's rank masks (occupancy, issue state,
        // ages) stay consistent with each other and with its count.
        for (label, iq) in [("int IQ", core.int_iq()), ("fp IQ", core.fp_iq())] {
            if let Err(msg) = iq.audit() {
                sink.report(ViolationKind::IqAccounting, cycle, format!("{label}: {msg}"));
            }
        }

        let int_issued: u64 = (0..self.n_int)
            .map(|u| cur.int_issued_per_unit[u] - prev.stats.int_issued_per_unit[u])
            .sum();
        let fp_issued: u64 = (0..self.n_fp)
            .map(|u| cur.fp_issued_per_unit[u] - prev.stats.fp_issued_per_unit[u])
            .sum::<u64>()
            + (cur.fp_mul_issued - prev.stats.fp_mul_issued);

        let int_inserted = self.int_q.check(core, core.int_iq(), int_issued, cycle, sink);
        let fp_inserted = self.fp_q.check(core, core.fp_iq(), fp_issued, cycle, sink);

        let dispatched = cur.dispatched - prev.stats.dispatched;
        if int_inserted + fp_inserted != dispatched {
            sink.report(
                ViolationKind::IqAccounting,
                cycle,
                format!(
                    "dispatch accounting: {int_inserted} int + {fp_inserted} fp queue \
                     inserts != {dispatched} dispatched"
                ),
            );
        }
        let issued = cur.issued - prev.stats.issued;
        if issued != int_issued + fp_issued {
            sink.report(
                ViolationKind::IqAccounting,
                cycle,
                format!(
                    "issue accounting: total {issued} != per-unit sum {} + {}",
                    int_issued, fp_issued
                ),
            );
        }

        // Select trees must never grant a turned-off/unusable unit. The
        // boundary state is authoritative: enables only change between
        // cycles (mitigation runs at sample boundaries).
        for u in 0..self.n_int {
            if !prev.int_usable[u]
                && cur.int_issued_per_unit[u] != prev.stats.int_issued_per_unit[u]
            {
                sink.report(
                    ViolationKind::Select,
                    cycle,
                    format!("int select granted ALU {u}, which was turned off or unusable"),
                );
            }
        }
        for u in 0..self.n_fp {
            if !prev.fp_enabled[u] && cur.fp_issued_per_unit[u] != prev.stats.fp_issued_per_unit[u]
            {
                sink.report(
                    ViolationKind::Select,
                    cycle,
                    format!("fp select granted adder {u}, which was turned off"),
                );
            }
        }
        if !prev.fp_mul_available && cur.fp_mul_issued != prev.stats.fp_mul_issued {
            sink.report(
                ViolationKind::Select,
                cycle,
                "fp select granted the multiplier while it was busy or turned off".to_string(),
            );
        }
        for c in 0..self.n_copies {
            if !prev.rf_copy_enabled[c] && cur.int_rf_reads[c] != prev.stats.int_rf_reads[c] {
                sink.report(
                    ViolationKind::Select,
                    cycle,
                    format!("register-file copy {c} was read while turned off"),
                );
            }
        }

        // A frozen core makes no forward progress of any kind.
        if prev.frozen {
            let progress = [
                ("fetched", cur.fetched - prev.stats.fetched),
                ("dispatched", dispatched),
                ("issued", issued),
                ("committed", cur.committed - prev.stats.committed),
            ];
            for (what, delta) in progress {
                if delta != 0 {
                    sink.report(
                        ViolationKind::Frozen,
                        cycle,
                        format!("frozen core {what} {delta} ops this cycle"),
                    );
                }
            }
            if cur.frozen_cycles != prev.stats.frozen_cycles + 1 {
                sink.report(
                    ViolationKind::Frozen,
                    cycle,
                    format!(
                        "frozen cycle not accounted: frozen_cycles went {} -> {}",
                        prev.stats.frozen_cycles, cur.frozen_cycles
                    ),
                );
            }
        }

        // Duty-cycle gates evaluate at `now + 1` because the core bumps its
        // cycle counter before any stage runs.
        let throttle_gated = !prev.frozen && prev.clock_duty.gates(prev.now + 1);
        if throttle_gated {
            // A clock-gated grid cycle quiesces everything, like a
            // one-cycle freeze, and must be accounted as throttled.
            let progress = [
                ("fetched", cur.fetched - prev.stats.fetched),
                ("dispatched", dispatched),
                ("issued", issued),
                ("committed", cur.committed - prev.stats.committed),
            ];
            for (what, delta) in progress {
                if delta != 0 {
                    sink.report(
                        ViolationKind::Duty,
                        cycle,
                        format!("clock-gated core {what} {delta} ops this cycle"),
                    );
                }
            }
            if cur.throttled_cycles != prev.stats.throttled_cycles + 1 {
                sink.report(
                    ViolationKind::Duty,
                    cycle,
                    format!(
                        "throttled cycle not accounted: throttled_cycles went {} -> {}",
                        prev.stats.throttled_cycles, cur.throttled_cycles
                    ),
                );
            }
        }

        // Fetch gating only idles the front end: on a gated cycle nothing
        // may be fetched, and the gate must be accounted exactly once.
        if !prev.frozen && !throttle_gated && prev.fetch_duty.gates(prev.now + 1) {
            let fetched = cur.fetched - prev.stats.fetched;
            if fetched != 0 {
                sink.report(
                    ViolationKind::Duty,
                    cycle,
                    format!("fetch-gated core fetched {fetched} ops this cycle"),
                );
            }
            if cur.fetch_gated_cycles != prev.stats.fetch_gated_cycles + 1 {
                sink.report(
                    ViolationKind::Duty,
                    cycle,
                    format!(
                        "fetch-gated cycle not accounted: fetch_gated_cycles went {} -> {}",
                        prev.stats.fetch_gated_cycles, cur.fetch_gated_cycles
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_isa::{ArchReg, MicroOp, OpClass, SliceTrace};
    use powerbalance_uarch::CoreConfig;

    fn audit(prev: &[u64], cur: &[u64], max_uid: Option<u64>) -> (u64, u64, u64) {
        let mut sink = Sink::default();
        let out = audit_transition("test", prev, cur, max_uid, 0, &mut sink);
        (out.survivors, out.inserted, sink.violations.len() as u64)
    }

    #[test]
    fn clean_transitions_pass() {
        // Issue the head, keep the rest, append new dispatches.
        assert_eq!(audit(&[3, 5, 8], &[5, 8, 11, 12], Some(8)), (2, 2, 0));
        // Unchanged population.
        assert_eq!(audit(&[3, 5], &[3, 5], Some(5)), (2, 0, 0));
        // Fresh checker: everything in the queue counts as new.
        assert_eq!(audit(&[], &[4, 7], None), (0, 2, 0));
    }

    #[test]
    fn survivor_reorder_is_flagged() {
        let (_, _, violations) = audit(&[3, 5, 8], &[5, 3, 8], Some(8));
        assert!(violations > 0, "swapped survivors must be flagged");
    }

    #[test]
    fn new_entry_ranked_before_survivor_is_flagged() {
        let (_, _, violations) = audit(&[3, 5], &[9, 3, 5], Some(5));
        assert!(violations > 0, "dispatch must append after survivors");
    }

    #[test]
    fn reappearing_entry_is_flagged() {
        // uid 4 was seen before (≤ max) but was not Waiting last cycle.
        let (_, _, violations) = audit(&[5], &[4, 5], Some(6));
        assert!(violations > 0, "issued entries must not return to Waiting");
    }

    #[test]
    fn dispatched_out_of_fetch_order_is_flagged() {
        let (_, _, violations) = audit(&[], &[9, 7], Some(5));
        assert!(violations > 0);
    }

    fn mixed_trace(n: usize) -> SliceTrace {
        (0..n)
            .map(|i| {
                let class = match i % 5 {
                    0 => OpClass::IntAlu,
                    1 => OpClass::FpAdd,
                    2 => OpClass::IntMul,
                    3 => OpClass::FpMul,
                    _ => OpClass::IntAlu,
                };
                let dest = if class.domain() == powerbalance_isa::ExecDomain::Int {
                    ArchReg::int((i % 30) as u8)
                } else {
                    ArchReg::fp((i % 30) as u8)
                };
                MicroOp::new(class)
                    .with_pc(0x1000 + 4 * i as u64)
                    .with_dest(dest)
                    .with_src1(ArchReg::int(((i + 1) % 30) as u8))
            })
            .collect()
    }

    #[test]
    fn real_core_runs_clean() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let mut watch = CoreWatch::new(&core);
        let mut sink = Sink::default();
        let mut trace = mixed_trace(400);
        for _ in 0..50_000 {
            if core.is_done() {
                break;
            }
            watch.before_cycle(&core);
            core.cycle(&mut trace);
            watch.after_cycle(&core, &mut sink);
        }
        assert!(core.is_done(), "trace should drain in 50k cycles");
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn real_core_with_disabled_units_runs_clean() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let mut watch = CoreWatch::new(&core);
        let mut sink = Sink::default();
        let mut trace = mixed_trace(400);
        for i in 0..400 {
            // Toggle unit/copy enables between cycles, as the mitigation
            // manager would; the select invariant must hold throughout.
            if i == 40 {
                core.set_unit_enabled(UnitKind::IntAlu, 0, false);
                core.set_unit_enabled(UnitKind::FpAdd, 1, false);
            }
            if i == 80 {
                core.set_unit_enabled(UnitKind::IntAlu, 0, true);
                core.set_unit_enabled(UnitKind::FpMul, 0, false);
            }
            if i == 120 {
                core.set_unit_enabled(UnitKind::FpMul, 0, true);
                core.set_unit_enabled(UnitKind::FpAdd, 1, true);
            }
            watch.before_cycle(&core);
            core.cycle(&mut trace);
            watch.after_cycle(&core, &mut sink);
        }
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn disabled_rf_copy_gates_its_alus() {
        // Under priority mapping, turning off register-file copy 0 makes
        // the high-priority ALUs unusable: a correct select tree routes
        // everything to the surviving copy's ALUs, which the watch must
        // accept — and a select tree that ignores the wiring is flagged.
        let cfg = CoreConfig {
            mapping: powerbalance_uarch::MappingPolicy::Priority,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg).expect("valid config");
        let mut watch = CoreWatch::new(&core);
        let mut sink = Sink::default();
        let mut trace = mixed_trace(400);
        for i in 0..2_000 {
            if core.is_done() {
                break;
            }
            if i == 40 {
                core.set_rf_copy_enabled(0, false);
            }
            if i == 400 {
                core.set_rf_copy_enabled(0, true);
            }
            watch.before_cycle(&core);
            core.cycle(&mut trace);
            watch.after_cycle(&core, &mut sink);
        }
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn duty_gated_core_runs_clean() {
        // Fetch gating and clock throttling active at once: the watch must
        // accept the core's own accounting on every gated cycle.
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        core.set_fetch_duty(DutyCycle::new(1, 4));
        core.set_clock_duty(DutyCycle::new(3, 4));
        let mut watch = CoreWatch::new(&core);
        let mut sink = Sink::default();
        let mut trace = mixed_trace(400);
        for _ in 0..100_000 {
            if core.is_done() {
                break;
            }
            watch.before_cycle(&core);
            core.cycle(&mut trace);
            watch.after_cycle(&core, &mut sink);
        }
        assert!(core.is_done(), "duty-gated trace should drain in 100k cycles");
        assert!(core.stats().throttled_cycles > 0, "throttle never engaged");
        assert!(core.stats().fetch_gated_cycles > 0, "fetch gate never engaged");
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn unhonored_duty_gate_is_flagged() {
        // Claim the clock was gated at the boundary while the core actually
        // ran free: the missing throttled-cycle accounting must be flagged.
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let mut watch = CoreWatch::new(&core);
        let mut sink = Sink::default();
        let mut trace = mixed_trace(100);
        watch.before_cycle(&core);
        if let Some(b) = &mut watch.prev {
            b.clock_duty = DutyCycle::new(0, 4);
        }
        core.cycle(&mut trace);
        watch.after_cycle(&core, &mut sink);
        assert!(!sink.violations.is_empty(), "unhonored clock gate must be flagged");
    }

    #[test]
    fn frozen_core_progress_is_flagged() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let mut watch = CoreWatch::new(&core);
        let mut sink = Sink::default();
        let mut trace = mixed_trace(100);
        watch.before_cycle(&core);
        core.cycle(&mut trace);
        watch.after_cycle(&core, &mut sink);
        assert!(sink.violations.is_empty());
        // Claim the core is frozen at the boundary, then let it run: the
        // progress it makes must be reported.
        watch.before_cycle(&core);
        if let Some(b) = &mut watch.prev {
            b.frozen = true;
        }
        core.cycle(&mut trace);
        watch.after_cycle(&core, &mut sink);
        assert!(!sink.violations.is_empty(), "progress while frozen must be flagged");
    }
}
