//! The cycle-level out-of-order core.

use crate::activity::ActivitySample;
use crate::bpred::{BranchPredictor, BranchPredictorState};
use crate::cache::{MemoryHierarchy, MemoryState};
use crate::config::{CoreConfig, DutyCycle, IqMode, SelectPolicy};
use crate::exec::{units_in_order, FuPool, FuPoolState, RegFileWiring, UnitKind, WiringState};
use crate::iq::{check_tagged_ids, EntryState, IqEntry, IqState, IssueQueue};
use crate::rob::{ActiveList, ActiveListState, RenameMap, RobState};
use powerbalance_isa::{ExecDomain, MicroOp, OpClass, RegClass, TraceSource};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Cumulative statistics for a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Total cycles simulated (including frozen cycles).
    pub cycles: u64,
    /// Cycles spent frozen by the temporal (global-stall) technique.
    pub frozen_cycles: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Instructions dispatched into the back end.
    pub dispatched: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Issues per integer ALU (static-priority asymmetry shows up here).
    pub int_issued_per_unit: [u64; 6],
    /// Issues per FP adder.
    pub fp_issued_per_unit: [u64; 4],
    /// Issues to the FP multiplier.
    pub fp_mul_issued: u64,
    /// Sum of integer issue-queue occupancy over cycles (for averages).
    pub int_iq_occupancy_sum: u64,
    /// Cumulative reads per integer register-file copy.
    pub int_rf_reads: [u64; 2],
    /// Cycles skipped by global clock throttling (the whole pipeline sat
    /// out the gated portion of the clock duty cycle). Distinct from
    /// `frozen_cycles` so the two techniques stay separately attributable.
    pub throttled_cycles: u64,
    /// Cycles the front end sat out the gated portion of the fetch duty
    /// cycle while the back end kept draining.
    pub fetch_gated_cycles: u64,
}

impl CoreStats {
    /// Committed instructions per cycle (0 before the first cycle).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mean integer issue-queue occupancy.
    #[must_use]
    pub fn avg_int_iq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.int_iq_occupancy_sum as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FetchedOp {
    op: MicroOp,
    uid: u64,
    ready_at: u64,
    is_redirect: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct InFlight {
    rob_id: u32,
    remaining: u32,
}

/// Serializable state of a whole [`Core`], captured by [`Core::snapshot`]
/// and reapplied with [`Core::restore`].
///
/// The struct is deliberately opaque: its contents mirror the core's
/// internal structures 1:1 and carry no stability guarantee beyond the
/// snapshot format version maintained by the `powerbalance` facade crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreState {
    now: u64,
    frozen: bool,
    trace_done: bool,
    next_uid: u64,
    bpred: BranchPredictorState,
    mem: MemoryState,
    int_iq: IqState,
    fp_iq: IqState,
    rob: ActiveListState,
    rename: RenameMap,
    lsq_used: usize,
    pool: FuPoolState,
    wiring: WiringState,
    rf_writes_enabled: [bool; 2],
    fetch_duty: DutyCycle,
    clock_duty: DutyCycle,
    rotation: usize,
    fetch_queue: Vec<FetchedOp>,
    fetch_stall: u32,
    redirect_uid: Option<u64>,
    last_fetch_line: u64,
    in_flight: Vec<InFlight>,
    activity: ActivitySample,
    stats: CoreStats,
}

/// Checks every active-list index a snapshot carries against an active
/// list of `rob_size` entries: the pipeline indexes the list with them, and
/// the issue queues hold them in 16-bit lanes. Waiting and executing
/// instructions must also name occupied slots of the captured list.
fn check_ids(state: &CoreState, rob_size: usize) -> Result<(), String> {
    let in_range = |what: std::fmt::Arguments, id: u32| {
        if (id as usize) < rob_size {
            Ok(())
        } else {
            Err(format!("{what} {id} is outside the {rob_size}-entry active list"))
        }
    };
    let live = |id: u32| state.rob.entries.get(id as usize).is_some_and(Option::is_some);
    for (label, iq) in [("int iq", &state.int_iq), ("fp iq", &state.fp_iq)] {
        check_tagged_ids(&iq.slots).map_err(|e| format!("{label}: {e}"))?;
        for entry in iq.slots.iter().flatten() {
            in_range(format_args!("{label}: rob_id"), entry.rob_id)?;
            for tag in [entry.src1_tag, entry.src2_tag].into_iter().flatten() {
                in_range(format_args!("{label}: operand tag"), tag)?;
            }
            if entry.state == EntryState::Waiting && !live(entry.rob_id) {
                return Err(format!(
                    "{label}: waiting entry names free active-list slot {}",
                    entry.rob_id
                ));
            }
        }
    }
    for f in &state.in_flight {
        in_range(format_args!("in-flight rob_id"), f.rob_id)?;
        if !live(f.rob_id) {
            return Err(format!("in-flight op names free active-list slot {}", f.rob_id));
        }
        if f.remaining == 0 {
            return Err(format!("in-flight op {} has no cycles remaining", f.rob_id));
        }
    }
    for id in state.rename.producers() {
        in_range(format_args!("rename producer"), id)?;
    }
    Ok(())
}

/// The simulated 6-wide out-of-order core.
///
/// Drive it with [`Core::cycle`] (one clock) or [`Core::advance`] (a cycle
/// budget, quiet spans applied in one step); inspect progress with
/// [`Core::stats`]; drain per-window activity with
/// [`Core::take_activity`]. Mitigation controllers steer the core through
/// [`Core::set_iq_mode`], [`Core::set_unit_enabled`],
/// [`Core::set_rf_copy_enabled`], and [`Core::set_frozen`].
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{Core, CoreConfig};
/// use powerbalance_isa::{MicroOp, OpClass, SliceTrace};
///
/// let mut core = Core::new(CoreConfig::default()).expect("valid config");
/// let mut trace = SliceTrace::new(vec![MicroOp::new(OpClass::IntAlu); 100]);
/// while !core.is_done() {
///     core.cycle(&mut trace);
/// }
/// assert_eq!(core.stats().committed, 100);
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    now: u64,
    frozen: bool,
    trace_done: bool,
    next_uid: u64,

    bpred: BranchPredictor,
    mem: MemoryHierarchy,
    int_iq: IssueQueue,
    fp_iq: IssueQueue,
    rob: ActiveList,
    rename: RenameMap,
    lsq_used: usize,
    pool: FuPool,
    wiring: RegFileWiring,
    /// Bit `u` set iff integer ALU `u` is enabled and its register-file
    /// copies are: derived from `pool` and `wiring` by
    /// [`refresh_usable`](Core::refresh_usable) whenever either changes.
    int_usable: u8,
    /// Bit `u` set iff FP adder `u` is enabled; derived like `int_usable`.
    fp_add_usable: u8,
    /// Write-port gating per integer register-file copy (the paper's
    /// second staleness solution disables writes into a cooling copy).
    rf_writes_enabled: [bool; 2],
    /// Front-end throttle: fetch sits out the gated portion of each window
    /// (the fetch-gating global baseline). Defaults to always-on.
    fetch_duty: DutyCycle,
    /// Whole-core throttle: the pipeline skips the gated portion of each
    /// window entirely (the global clock-throttling baseline). Defaults to
    /// always-on.
    clock_duty: DutyCycle,
    rotation: usize,

    fetch_queue: VecDeque<FetchedOp>,
    fetch_stall: u32,
    redirect_uid: Option<u64>,
    last_fetch_line: u64,
    in_flight: Vec<InFlight>,

    /// Reused by [`writeback`](Core::writeback) every cycle so the hot loop
    /// never allocates. Pure scratch: always empty between cycles, never
    /// snapshotted.
    writeback_scratch: Vec<u32>,

    /// Fetched micro-ops in fetch order, recorded only once
    /// [`enable_op_log`](Core::enable_op_log) is called (differential
    /// checking). `None` costs a single untaken branch per op; never
    /// snapshotted.
    fetch_log: Option<Vec<MicroOp>>,
    /// Retired `(uid, op)` pairs in commit order; same lifecycle as
    /// [`fetch_log`](Core::enable_op_log).
    commit_log: Option<Vec<(u64, MicroOp)>>,

    activity: ActivitySample,
    stats: CoreStats,
}

impl Clone for Core {
    /// A copy that steps exactly like the original (what a batch fork
    /// needs), with the op logs off and every growable buffer given the
    /// original's capacity, so the copy's cycles never allocate either.
    fn clone(&self) -> Self {
        let mut fetch_queue = VecDeque::with_capacity(self.fetch_queue.capacity());
        fetch_queue.extend(self.fetch_queue.iter().copied());
        let mut in_flight = Vec::with_capacity(self.in_flight.capacity());
        in_flight.extend_from_slice(&self.in_flight);
        Core {
            cfg: self.cfg.clone(),
            now: self.now,
            frozen: self.frozen,
            trace_done: self.trace_done,
            next_uid: self.next_uid,
            bpred: self.bpred.clone(),
            mem: self.mem.clone(),
            int_iq: self.int_iq.clone(),
            fp_iq: self.fp_iq.clone(),
            rob: self.rob.clone(),
            rename: self.rename.clone(),
            lsq_used: self.lsq_used,
            pool: self.pool.clone(),
            wiring: self.wiring.clone(),
            int_usable: self.int_usable,
            fp_add_usable: self.fp_add_usable,
            rf_writes_enabled: self.rf_writes_enabled,
            fetch_duty: self.fetch_duty,
            clock_duty: self.clock_duty,
            rotation: self.rotation,
            fetch_queue,
            fetch_stall: self.fetch_stall,
            redirect_uid: self.redirect_uid,
            last_fetch_line: self.last_fetch_line,
            in_flight,
            writeback_scratch: Vec::with_capacity(self.writeback_scratch.capacity()),
            fetch_log: None,
            commit_log: None,
            activity: self.activity,
            stats: self.stats,
        }
    }
}

impl Core {
    /// Builds a core from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the validation error if `cfg` violates a structural
    /// invariant (see [`CoreConfig::validate`]).
    pub fn new(cfg: CoreConfig) -> Result<Self, String> {
        cfg.validate()?;
        if cfg.int_alus > 6 || cfg.fp_adders > 4 || cfg.int_rf_copies > 2 {
            return Err("activity counters support at most 6 ALUs, 4 FP adders, 2 RF copies".into());
        }
        let mut int_iq = IssueQueue::new(cfg.iq_size);
        let mut fp_iq = IssueQueue::new(cfg.iq_size);
        for iq in [&mut int_iq, &mut fp_iq] {
            iq.set_replay_window(cfg.replay_window);
        }
        let mut core = Core {
            bpred: BranchPredictor::new(cfg.bpred_history_bits, cfg.btb_entries),
            mem: MemoryHierarchy::new(cfg.l1i, cfg.l1d, cfg.l2, cfg.memory_latency),
            int_iq,
            fp_iq,
            rob: ActiveList::new(cfg.rob_size),
            rename: RenameMap::new(),
            lsq_used: 0,
            pool: FuPool::new(cfg.int_alus, cfg.fp_adders),
            wiring: RegFileWiring::new(cfg.mapping, cfg.int_alus, cfg.int_rf_copies),
            int_usable: 0,
            fp_add_usable: 0,
            rf_writes_enabled: [true; 2],
            fetch_duty: DutyCycle::full(),
            clock_duty: DutyCycle::full(),
            rotation: 0,
            // The three growable buffers are sized to their bounds up front
            // (fetch stops at `fetch_width * 8` queued ops; every in-flight
            // op holds an active-list entry), so no cycle ever grows them.
            fetch_queue: VecDeque::with_capacity(cfg.fetch_width * 8),
            fetch_stall: 0,
            redirect_uid: None,
            last_fetch_line: u64::MAX,
            in_flight: Vec::with_capacity(cfg.rob_size),
            writeback_scratch: Vec::with_capacity(cfg.rob_size),
            fetch_log: None,
            commit_log: None,
            activity: ActivitySample::default(),
            stats: CoreStats::default(),
            cfg,
            now: 0,
            frozen: false,
            trace_done: false,
            next_uid: 0,
        };
        core.refresh_usable();
        Ok(core)
    }

    /// Rederives the usable-unit masks select reads every cycle.
    fn refresh_usable(&mut self) {
        self.int_usable = self.pool.enabled_mask(UnitKind::IntAlu) & self.wiring.usable_mask();
        self.fp_add_usable = self.pool.enabled_mask(UnitKind::FpAdd);
    }

    /// The configuration the core was built with.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The branch predictor (for misprediction statistics).
    #[must_use]
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// The memory hierarchy (for miss statistics).
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Drains and resets the current activity window.
    pub fn take_activity(&mut self) -> ActivitySample {
        std::mem::take(&mut self.activity)
    }

    /// Freezes or thaws the whole core (the temporal stall technique: no
    /// fetch, issue, execution progress, or commit while frozen).
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// Whether the core is currently frozen.
    #[must_use]
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Sets the head/tail mode of one issue queue (activity toggling).
    pub fn set_iq_mode(&mut self, domain: ExecDomain, mode: IqMode) {
        match domain {
            ExecDomain::Int => self.int_iq.set_mode(mode),
            ExecDomain::Fp => self.fp_iq.set_mode(mode),
        }
    }

    /// Current head/tail mode of one issue queue.
    #[must_use]
    pub fn iq_mode(&self, domain: ExecDomain) -> IqMode {
        match domain {
            ExecDomain::Int => self.int_iq.mode(),
            ExecDomain::Fp => self.fp_iq.mode(),
        }
    }

    /// Enables or disables a functional unit (fine-grain turnoff).
    pub fn set_unit_enabled(&mut self, kind: UnitKind, index: usize, enabled: bool) {
        self.pool.set_enabled(kind, index, enabled);
        self.refresh_usable();
    }

    /// Whether a functional unit is enabled.
    #[must_use]
    pub fn unit_enabled(&self, kind: UnitKind, index: usize) -> bool {
        self.pool.is_enabled(kind, index)
    }

    /// Whether a functional unit can accept an operation this cycle:
    /// enabled and, for the (pipelined-but-blocking) FP multiplier, not
    /// occupied by a long-latency divide.
    #[must_use]
    pub fn unit_available(&self, kind: UnitKind, index: usize) -> bool {
        self.pool.is_available(kind, index)
    }

    /// Enables or disables an integer register-file copy (fine-grain
    /// turnoff via busy-marking the ALUs wired to it).
    pub fn set_rf_copy_enabled(&mut self, copy: usize, enabled: bool) {
        self.wiring.set_copy_enabled(copy, enabled);
        self.refresh_usable();
    }

    /// Whether an integer register-file copy is enabled.
    #[must_use]
    pub fn rf_copy_enabled(&self, copy: usize) -> bool {
        self.wiring.copy_enabled(copy)
    }

    /// Gates or un-gates writes into an integer register-file copy.
    ///
    /// The paper's second staleness solution (§2.3) disallows writes to an
    /// overheated copy while it cools; call
    /// [`charge_rf_copy_restore`](Core::charge_rf_copy_restore) when
    /// re-enabling to account for copying the architected values back in.
    pub fn set_rf_copy_writes_enabled(&mut self, copy: usize, enabled: bool) {
        self.rf_writes_enabled[copy] = enabled;
    }

    /// Whether writes into a register-file copy are currently enabled.
    #[must_use]
    pub fn rf_copy_writes_enabled(&self, copy: usize) -> bool {
        self.rf_writes_enabled[copy]
    }

    /// Charges the burst of writes that refreshes a formerly-stale copy
    /// (one write per architectural integer register). The paper notes
    /// this cost is negligible amortized over a cooling interval; it is
    /// still accounted for.
    pub fn charge_rf_copy_restore(&mut self, copy: usize) {
        self.activity.int_rf_writes[copy] += u64::from(powerbalance_isa::INT_ARCH_REGS);
    }

    /// Sets the front-end fetch duty cycle (fetch gating). `DutyCycle::full()`
    /// disables the throttle.
    pub fn set_fetch_duty(&mut self, duty: DutyCycle) {
        self.fetch_duty = duty;
    }

    /// The current fetch duty cycle.
    #[must_use]
    pub fn fetch_duty(&self) -> DutyCycle {
        self.fetch_duty
    }

    /// Sets the whole-core clock duty cycle (global clock throttling).
    /// `DutyCycle::full()` disables the throttle.
    pub fn set_clock_duty(&mut self, duty: DutyCycle) {
        self.clock_duty = duty;
    }

    /// The current clock duty cycle.
    #[must_use]
    pub fn clock_duty(&self) -> DutyCycle {
        self.clock_duty
    }

    /// The core's cycle counter (used by invariant checkers to evaluate
    /// duty-cycle phases at cycle boundaries).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The register-file wiring (mapping policy and turnoff state).
    #[must_use]
    pub fn wiring(&self) -> &RegFileWiring {
        &self.wiring
    }

    /// The integer issue queue (read-only; used by invariant checkers to
    /// audit occupancy accounting and compaction age order).
    #[must_use]
    pub fn int_iq(&self) -> &IssueQueue {
        &self.int_iq
    }

    /// The floating-point issue queue (read-only).
    #[must_use]
    pub fn fp_iq(&self) -> &IssueQueue {
        &self.fp_iq
    }

    /// The active list (read-only; maps in-queue `rob_id`s back to fetch
    /// `uid`s for age-order auditing).
    #[must_use]
    pub fn active_list(&self) -> &ActiveList {
        &self.rob
    }

    /// Starts recording every fetched micro-op and every retired
    /// `(uid, op)` pair for differential checking against an architectural
    /// oracle. Until enabled the logs cost one untaken branch per event;
    /// once enabled the checker must drain them each cycle via
    /// [`drain_op_log_into`](Core::drain_op_log_into) to bound memory.
    ///
    /// The logs are diagnostic state: they are not captured by
    /// [`snapshot`](Core::snapshot) and do not survive a
    /// [`restore`](Core::restore) boundary meaningfully — re-enable (and
    /// restart the consumer) after restoring.
    pub fn enable_op_log(&mut self) {
        self.fetch_log = Some(Vec::new());
        self.commit_log = Some(Vec::new());
    }

    /// Moves everything logged since the last drain into `fetched` and
    /// `committed` (appending, preserving order). No-op when
    /// [`enable_op_log`](Core::enable_op_log) was never called. The
    /// internal buffers keep their capacity, so a steady-state
    /// drain-per-cycle loop does not allocate.
    pub fn drain_op_log_into(
        &mut self,
        fetched: &mut Vec<MicroOp>,
        committed: &mut Vec<(u64, MicroOp)>,
    ) {
        if let Some(log) = &mut self.fetch_log {
            fetched.append(log);
        }
        if let Some(log) = &mut self.commit_log {
            committed.append(log);
        }
    }

    /// `true` once the trace is exhausted and the pipeline has drained.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.trace_done && self.fetch_queue.is_empty() && self.rob.is_empty()
    }

    /// Clears the drained-trace latch so a fresh [`TraceSource`] can feed
    /// the core. The multi-core engine calls this when it re-dispatches a
    /// new workload segment onto a core whose previous segment ran to
    /// completion; pipeline contents, predictor, and cache state are left
    /// untouched (the new segment sees a warm machine).
    pub fn reset_trace_done(&mut self) {
        self.trace_done = false;
    }

    /// Captures the core's complete dynamic state (pipeline contents,
    /// predictor and cache arrays, mitigation-visible enables, statistics)
    /// for snapshotting. The configuration itself is *not* captured; a
    /// snapshot can only be restored into a core built from an identical
    /// [`CoreConfig`].
    #[must_use]
    pub fn snapshot(&self) -> CoreState {
        CoreState {
            now: self.now,
            frozen: self.frozen,
            trace_done: self.trace_done,
            next_uid: self.next_uid,
            bpred: self.bpred.snapshot(),
            mem: self.mem.snapshot(),
            int_iq: self.int_iq.snapshot(),
            fp_iq: self.fp_iq.snapshot(),
            rob: self.rob.snapshot(),
            rename: self.rename.clone(),
            lsq_used: self.lsq_used,
            pool: self.pool.snapshot(),
            wiring: self.wiring.snapshot(),
            rf_writes_enabled: self.rf_writes_enabled,
            fetch_duty: self.fetch_duty,
            clock_duty: self.clock_duty,
            rotation: self.rotation,
            fetch_queue: self.fetch_queue.iter().copied().collect(),
            fetch_stall: self.fetch_stall,
            redirect_uid: self.redirect_uid,
            last_fetch_line: self.last_fetch_line,
            in_flight: self.in_flight.clone(),
            activity: self.activity,
            stats: self.stats,
        }
    }

    /// Restores state captured by [`snapshot`](Core::snapshot).
    ///
    /// The core must have been built from the same [`CoreConfig`] the
    /// snapshot was captured under; every sub-structure checks its own
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structure whose captured shape
    /// does not fit this core's configuration, or the first active-list
    /// index that could not name a live entry of this core. The indices
    /// are checked before anything is restored.
    pub fn restore(&mut self, state: &CoreState) -> Result<(), String> {
        check_ids(state, self.cfg.rob_size)?;
        if state.lsq_used > self.cfg.lsq_size {
            return Err(format!(
                "core snapshot uses {} LSQ entries, config has {}",
                state.lsq_used, self.cfg.lsq_size
            ));
        }
        self.bpred.restore(&state.bpred).map_err(|e| format!("bpred: {e}"))?;
        self.mem.restore(&state.mem).map_err(|e| format!("memory: {e}"))?;
        self.int_iq.restore(&state.int_iq).map_err(|e| format!("int iq: {e}"))?;
        self.fp_iq.restore(&state.fp_iq).map_err(|e| format!("fp iq: {e}"))?;
        self.rob.restore(&state.rob).map_err(|e| format!("active list: {e}"))?;
        self.pool.restore(&state.pool).map_err(|e| format!("functional units: {e}"))?;
        self.wiring.restore(&state.wiring).map_err(|e| format!("regfile wiring: {e}"))?;
        self.refresh_usable();
        self.rename = state.rename.clone();
        self.now = state.now;
        self.frozen = state.frozen;
        self.trace_done = state.trace_done;
        self.next_uid = state.next_uid;
        self.lsq_used = state.lsq_used;
        self.rf_writes_enabled = state.rf_writes_enabled;
        self.fetch_duty = state.fetch_duty;
        self.clock_duty = state.clock_duty;
        self.rotation = state.rotation;
        self.fetch_queue.clear();
        self.fetch_queue.extend(state.fetch_queue.iter().copied());
        self.fetch_stall = state.fetch_stall;
        self.redirect_uid = state.redirect_uid;
        self.last_fetch_line = state.last_fetch_line;
        self.in_flight.clear();
        self.in_flight.extend_from_slice(&state.in_flight);
        self.activity = state.activity;
        self.stats = state.stats;
        Ok(())
    }

    /// Advances the core by up to `budget` cycles, stopping after the first
    /// cycle that leaves it [done](Core::is_done); returns the cycles run.
    ///
    /// The result is exactly that of calling [`cycle`](Core::cycle) in such
    /// a loop, but a *quiet span* — a run of cycles in which the pipeline
    /// can change nothing but its counters, typically while a cache miss is
    /// outstanding — is applied in one step, and so is a frozen core's
    /// whole budget.
    pub fn advance<T: TraceSource>(&mut self, trace: &mut T, budget: u64) -> u64 {
        if self.frozen && !self.is_done() {
            // Nothing but the clock moves, so the core stays undone.
            self.skip_frozen(budget);
            return budget;
        }
        let mut ran = 0;
        while ran < budget {
            let quiet = self.quiet_span(budget - ran);
            if quiet > 0 {
                self.skip_quiet(quiet);
                ran += quiet;
            } else {
                self.cycle(trace);
                ran += 1;
            }
            if self.is_done() {
                break;
            }
        }
        ran
    }

    /// How many of the next cycles, up to `max`, would change nothing but
    /// counters; 0 when the next cycle may do work (or the core is done, so
    /// a stepping loop stops after one cycle).
    ///
    /// Such a cycle runs unfrozen and ungated, completes no in-flight op,
    /// finds no completed head to commit, has neither queue able to issue,
    /// age or compact, and has dispatch and fetch both blocked. None of
    /// those conditions can change within the span, except the ones that
    /// bound it: the in-flight countdowns, the I-cache stall, the front
    /// op's front-end delay and the duty-cycle gate edges.
    fn quiet_span(&self, max: u64) -> u64 {
        if self.frozen || !self.int_iq.is_idle() || !self.fp_iq.is_idle() || self.is_done() {
            return 0;
        }
        if self.rob.commit_ready().is_some() {
            return 0;
        }
        let mut span = max;
        for f in &self.in_flight {
            span = span.min(u64::from(f.remaining) - 1);
        }
        let next = self.now + 1;
        if !self.dispatch_blocked(next) {
            return 0;
        }
        if let Some(front) = self.fetch_queue.front() {
            if front.ready_at > next {
                span = span.min(front.ready_at - next);
            }
        }
        if self.redirect_uid.is_none() {
            if self.fetch_stall > 0 {
                span = span.min(u64::from(self.fetch_stall));
            } else if !self.trace_done && self.fetch_queue.len() < self.fetch_capacity() {
                return 0;
            }
        }
        span.min(self.clock_duty.ungated_run(next)).min(self.fetch_duty.ungated_run(next))
    }

    /// Applies a quiet span of `span` cycles found by
    /// [`quiet_span`](Core::quiet_span): exactly the counter updates that
    /// stepping each of its cycles would make.
    fn skip_quiet(&mut self, span: u64) {
        self.now += span;
        self.stats.cycles += span;
        self.activity.cycles += span;
        for f in &mut self.in_flight {
            // The span is shorter than every countdown, so it fits a u32.
            f.remaining -= span as u32;
        }
        self.activity.int_iq.gating_cycles += span;
        self.activity.fp_iq.gating_cycles += span;
        self.pool.tick_by(span);
        if self.redirect_uid.is_none() && self.fetch_stall > 0 {
            // The span is at most the stall, so it fits a u32.
            self.fetch_stall -= span as u32;
        }
        if self.cfg.select_policy == SelectPolicy::RoundRobin {
            self.rotation = self.rotation.wrapping_add(span as usize);
        }
        self.stats.int_iq_occupancy_sum += self.int_iq.occupancy() as u64 * span;
    }

    /// Applies `span` frozen cycles: exactly the counter updates that
    /// stepping each of them would make.
    fn skip_frozen(&mut self, span: u64) {
        self.now += span;
        self.stats.cycles += span;
        self.activity.cycles += span;
        self.activity.int_iq.gating_cycles += span;
        self.activity.fp_iq.gating_cycles += span;
        self.stats.frozen_cycles += span;
    }

    /// Advances the core by one clock cycle.
    pub fn cycle<T: TraceSource>(&mut self, trace: &mut T) {
        self.now += 1;
        self.stats.cycles += 1;
        self.activity.cycles += 1;

        if self.frozen {
            // The clock-gating control logic still burns its per-cycle
            // energy; everything else is quiesced.
            self.activity.int_iq.gating_cycles += 1;
            self.activity.fp_iq.gating_cycles += 1;
            self.stats.frozen_cycles += 1;
            return;
        }

        if self.clock_duty.gates(self.now) {
            // Global clock throttling: a gated grid cycle quiesces the whole
            // pipeline like a one-cycle freeze, but is accounted separately
            // so the two responses stay distinguishable in results.
            self.activity.int_iq.gating_cycles += 1;
            self.activity.fp_iq.gating_cycles += 1;
            self.stats.throttled_cycles += 1;
            return;
        }

        self.writeback();
        self.commit();
        self.issue_int();
        self.issue_fp();
        self.int_iq.tick(self.cfg.dispatch_width, &mut self.activity.int_iq);
        self.fp_iq.tick(self.cfg.dispatch_width, &mut self.activity.fp_iq);
        self.pool.tick();
        self.dispatch();
        self.fetch(trace);

        if self.cfg.select_policy == SelectPolicy::RoundRobin {
            self.rotation = self.rotation.wrapping_add(1);
        }
        self.stats.int_iq_occupancy_sum += self.int_iq.occupancy() as u64;
    }

    /// Completes in-flight operations whose latency has elapsed.
    fn writeback(&mut self) {
        // Moved out of `self` so the retain closure (which already borrows
        // `self.in_flight` mutably) can push into it; moved back afterwards
        // so the capacity persists and steady-state cycles never allocate.
        let mut completed = std::mem::take(&mut self.writeback_scratch);
        completed.clear();
        self.in_flight.retain_mut(|f| {
            f.remaining -= 1;
            if f.remaining == 0 {
                completed.push(f.rob_id);
                false
            } else {
                true
            }
        });

        for &rob_id in &completed {
            self.rob.set_state(rob_id, RobState::Completed);
            let entry = *self.rob.entry(rob_id);
            if let Some(dest) = entry.op.dest() {
                self.rename.release(dest, rob_id);
                match dest.class() {
                    RegClass::Int => {
                        self.int_iq.broadcast(rob_id, &mut self.activity.int_iq);
                        for copy in 0..self.wiring.copies() {
                            if self.rf_writes_enabled[copy] {
                                self.activity.int_rf_writes[copy] += 1;
                            }
                        }
                    }
                    RegClass::Fp => {
                        self.fp_iq.broadcast(rob_id, &mut self.activity.fp_iq);
                        self.activity.fp_rf_writes += 1;
                    }
                }
            }
            if entry.is_redirect && self.redirect_uid == Some(entry.uid) {
                self.redirect_uid = None;
            }
        }
        completed.clear();
        self.writeback_scratch = completed;
    }

    /// Retires completed instructions in order.
    fn commit(&mut self) {
        let mut stores_this_cycle = 0usize;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.commit_ready() else { break };
            let entry = *self.rob.entry(head);
            if entry.op.class() == OpClass::Store {
                if stores_this_cycle == self.cfg.dcache_ports {
                    break;
                }
                let mem_ref = entry.op.mem().expect("store has an address");
                let _ = self.mem.data_access(mem_ref.addr);
                self.activity.dcache_accesses += 1;
                stores_this_cycle += 1;
            }
            if entry.op.class().is_mem() {
                self.lsq_used -= 1;
                self.activity.lsq_ops += 1;
            }
            let _ = self.rob.retire();
            if let Some(log) = &mut self.commit_log {
                log.push((entry.uid, entry.op));
            }
            self.stats.committed += 1;
            self.activity.rob_ops += 1;
        }
    }

    /// Integer-side select and issue: one select tree per ALU, serialized
    /// in priority order (or rotated for ideal round-robin).
    fn issue_int(&mut self) {
        if self.int_iq.occupancy() == 0 {
            return; // nothing to select from
        }
        let rotation = match self.cfg.select_policy {
            SelectPolicy::Static => 0,
            SelectPolicy::RoundRobin => self.rotation % self.cfg.int_alus,
        };
        let (units, n_units) = units_in_order(self.int_usable, self.cfg.int_alus, rotation);
        if n_units == 0 {
            return;
        }
        let mut unit_idx = 0usize;
        let mut mem_issued = 0usize;
        // The ready set is copied once, in priority order: issuing an entry
        // never changes another entry's readiness within a cycle, so the
        // copy stays exact while the loop marks entries issued.
        for pos in self.int_iq.ready_positions() {
            if unit_idx == n_units {
                break;
            }
            let (rob_id, is_mem, _) = self.int_iq.candidate(pos);
            if is_mem && mem_issued == self.cfg.dcache_ports {
                continue; // cache ports exhausted; tree masks this request
            }
            let unit = units[unit_idx];
            unit_idx += 1;
            if is_mem {
                mem_issued += 1;
            }
            self.int_iq.mark_issued(pos, &mut self.activity.int_iq);
            self.rob.set_state(rob_id, RobState::Issued);
            let op = self.rob.entry(rob_id).op;

            // Register-file reads through this ALU's wired copy.
            for (copy, n) in self.wiring.read_charges(unit, op.src_count()) {
                self.activity.int_rf_reads[copy] += n;
                self.stats.int_rf_reads[copy] += n;
            }

            let latency = match op.class() {
                OpClass::Load => {
                    let mem_ref = op.mem().expect("load has an address");
                    self.activity.dcache_accesses += 1;
                    1 + self.mem.data_access(mem_ref.addr)
                }
                class => class.latency(),
            };
            self.in_flight.push(InFlight { rob_id, remaining: latency });
            self.activity.int_alu_ops[unit] += 1;
            self.stats.int_issued_per_unit[unit] += 1;
            self.stats.issued += 1;
        }
    }

    /// FP-side select and issue: 4 adder trees plus the multiplier tree.
    fn issue_fp(&mut self) {
        if self.fp_iq.occupancy() == 0 {
            return; // nothing to select from
        }
        let rotation = match self.cfg.select_policy {
            SelectPolicy::Static => 0,
            SelectPolicy::RoundRobin => self.rotation % self.cfg.fp_adders,
        };
        let (adders, n_adders) = units_in_order(self.fp_add_usable, self.cfg.fp_adders, rotation);
        let mut adder_idx = 0usize;
        let mut mul_used = false;
        for pos in self.fp_iq.ready_positions() {
            let (rob_id, _, needs_fp_mul) = self.fp_iq.candidate(pos);
            let unit: Option<(UnitKind, usize)> = if needs_fp_mul {
                if !mul_used && self.pool.is_available(UnitKind::FpMul, 0) {
                    mul_used = true;
                    Some((UnitKind::FpMul, 0))
                } else {
                    None
                }
            } else if adder_idx < n_adders {
                let u = adders[adder_idx];
                adder_idx += 1;
                Some((UnitKind::FpAdd, u))
            } else {
                None
            };
            let Some((kind, unit)) = unit else {
                if adder_idx >= n_adders && mul_used {
                    break;
                }
                continue;
            };

            self.fp_iq.mark_issued(pos, &mut self.activity.fp_iq);
            self.rob.set_state(rob_id, RobState::Issued);
            let op = self.rob.entry(rob_id).op;
            self.activity.fp_rf_reads += u64::from(op.src_count());

            let latency = op.class().latency();
            if op.class() == OpClass::FpDiv {
                self.pool.occupy_fp_mul(latency);
            }
            self.in_flight.push(InFlight { rob_id, remaining: latency });
            match kind {
                UnitKind::FpAdd => {
                    self.activity.fp_add_ops[unit] += 1;
                    self.stats.fp_issued_per_unit[unit] += 1;
                }
                UnitKind::FpMul => {
                    self.activity.fp_mul_ops += 1;
                    self.stats.fp_mul_issued += 1;
                }
                UnitKind::IntAlu => unreachable!("FP queue never issues to integer ALUs"),
            }
            self.stats.issued += 1;
        }
    }

    /// Whether dispatch cannot take the front fetched op in cycle `now`:
    /// none is queued or ready yet, or the active list, the LSQ or the
    /// op's issue queue is full.
    fn dispatch_blocked(&self, now: u64) -> bool {
        let Some(front) = self.fetch_queue.front() else { return true };
        let class = front.op.class();
        front.ready_at > now
            || self.rob.is_full()
            || (class.is_mem() && self.lsq_used == self.cfg.lsq_size)
            || !match class.domain() {
                ExecDomain::Int => self.int_iq.can_insert(),
                ExecDomain::Fp => self.fp_iq.can_insert(),
            }
    }

    /// Renames and dispatches fetched instructions into the back end.
    fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            if self.dispatch_blocked(self.now) {
                break;
            }
            let fetched = self.fetch_queue.pop_front().expect("checked non-empty");
            let op = fetched.op;
            let rob_id =
                self.rob.alloc(fetched.uid, op, fetched.is_redirect).expect("checked not full");

            let src1_tag = op.src1().and_then(|r| self.rename.resolve(r));
            let src2_tag = op.src2().and_then(|r| self.rename.resolve(r));
            if let Some(dest) = op.dest() {
                self.rename.claim(dest, rob_id);
            }
            if op.class().is_mem() {
                self.lsq_used += 1;
                self.activity.lsq_ops += 1;
            }

            let entry = IqEntry {
                rob_id,
                state: EntryState::Waiting,
                src1_ready: src1_tag.is_none(),
                src2_ready: src2_tag.is_none(),
                src1_tag,
                src2_tag,
                is_mem: op.class().is_mem(),
                needs_fp_mul: op.class().needs_fp_mul(),
            };
            let inserted = match op.class().domain() {
                ExecDomain::Int => self.int_iq.insert(entry, &mut self.activity.int_iq),
                ExecDomain::Fp => self.fp_iq.insert(entry, &mut self.activity.fp_iq),
            };
            debug_assert!(inserted, "can_insert was checked");
            self.activity.rename_ops += 1;
            self.activity.rob_ops += 1;
            self.stats.dispatched += 1;
        }
    }

    /// Fetch stops once this many micro-ops are queued.
    fn fetch_capacity(&self) -> usize {
        self.cfg.fetch_width * 8
    }

    /// Pulls correct-path micro-ops from the trace into the fetch queue.
    fn fetch<T: TraceSource>(&mut self, trace: &mut T) {
        if self.fetch_duty.gates(self.now) {
            // Fetch gating: the front end sits out the gated portion of the
            // duty window while the back end keeps draining.
            self.stats.fetch_gated_cycles += 1;
            return;
        }
        if self.redirect_uid.is_some() {
            return;
        }
        if self.fetch_stall > 0 {
            self.fetch_stall -= 1;
            return;
        }
        if self.trace_done {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= self.fetch_capacity() {
                break;
            }
            let Some(op) = trace.next_op() else {
                self.trace_done = true;
                break;
            };

            // Instruction cache: one access per new line.
            let line = op.pc() / self.cfg.l1i.line_bytes;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                let latency = self.mem.fetch(op.pc());
                self.activity.icache_accesses += 1;
                // Fetch runs with no stall pending, so a hit leaves it at 0.
                self.fetch_stall = latency - self.cfg.l1i.latency;
            }

            let uid = self.next_uid;
            self.next_uid += 1;
            self.stats.fetched += 1;
            if let Some(log) = &mut self.fetch_log {
                log.push(op);
            }

            let mut is_redirect = false;
            if let Some(branch) = op.branch() {
                self.activity.bpred_lookups += 1;
                if !self.bpred.predict_and_update(op.pc(), branch) {
                    is_redirect = true;
                    self.redirect_uid = Some(uid);
                }
            }

            self.fetch_queue.push_back(FetchedOp {
                op,
                uid,
                ready_at: self.now + u64::from(self.cfg.frontend_delay),
                is_redirect,
            });

            if is_redirect || self.fetch_stall > 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_isa::{ArchReg, BranchInfo, MemRef, SliceTrace};

    fn run_ops(ops: Vec<MicroOp>) -> Core {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let mut trace = SliceTrace::new(ops);
        let mut guard = 0;
        while !core.is_done() {
            core.cycle(&mut trace);
            guard += 1;
            assert!(guard < 1_000_000, "pipeline deadlocked");
        }
        core
    }

    #[test]
    fn commits_every_instruction_exactly_once() {
        let ops: Vec<MicroOp> = (0..500)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + i * 4)
                    .with_dest(ArchReg::int((i % 20) as u8))
            })
            .collect();
        let core = run_ops(ops);
        assert_eq!(core.stats().committed, 500);
        assert_eq!(core.stats().dispatched, 500);
        assert_eq!(core.stats().issued, 500);
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        // Independent single-cycle ops on a 6-wide machine should commit at
        // several IPC once the cold instruction-cache misses amortize.
        let ops: Vec<MicroOp> = (0..20_000)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 26) as u8))
            })
            .collect();
        let core = run_ops(ops);
        let ipc = core.stats().ipc();
        assert!(ipc > 3.0, "independent ops should flow wide: ipc={ipc}");
    }

    #[test]
    fn dependent_chain_limits_ipc_to_about_one() {
        // Each op reads the previous op's result: serial chain, IPC <= 1.
        let ops: Vec<MicroOp> = (0..2000)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int(1))
                    .with_src1(ArchReg::int(1))
            })
            .collect();
        let core = run_ops(ops);
        let ipc = core.stats().ipc();
        assert!(ipc < 1.05, "serial chain cannot exceed 1 IPC: {ipc}");
        assert!(ipc > 0.5, "chain should still flow once per cycle-ish: {ipc}");
    }

    #[test]
    fn static_priority_concentrates_on_low_alus() {
        // Three interleaved serial chains: ~3 instructions ready per cycle,
        // which is the paper's typical case ("in most cycles at most one or
        // two instructions are available for issue"). Static priority then
        // funnels everything to the low-numbered ALUs.
        let ops: Vec<MicroOp> = (0..5000)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 3) as u8))
                    .with_src1(ArchReg::int((i % 3) as u8))
            })
            .collect();
        let core = run_ops(ops);
        let per_unit = core.stats().int_issued_per_unit;
        assert!(
            per_unit[0] >= per_unit[1] && per_unit[1] >= per_unit[2] && per_unit[2] >= per_unit[3],
            "static priority must be monotone: {per_unit:?}"
        );
        assert!(per_unit[0] > 3 * per_unit[5].max(1), "ALU0 should dominate ALU5: {per_unit:?}");
    }

    #[test]
    fn round_robin_spreads_across_alus() {
        let cfg = CoreConfig { select_policy: SelectPolicy::RoundRobin, ..CoreConfig::default() };
        let mut core = Core::new(cfg).expect("valid config");
        let ops: Vec<MicroOp> = (0..5000)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 26) as u8))
            })
            .collect();
        let mut trace = SliceTrace::new(ops);
        while !core.is_done() {
            core.cycle(&mut trace);
        }
        let per_unit = core.stats().int_issued_per_unit;
        let max = *per_unit.iter().max().expect("nonempty");
        let min = *per_unit.iter().min().expect("nonempty");
        assert!(
            (max - min) as f64 / max as f64 <= 0.35,
            "round-robin should spread issues: {per_unit:?}"
        );
    }

    #[test]
    fn turned_off_alu_receives_no_issues() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        core.set_unit_enabled(UnitKind::IntAlu, 0, false);
        let ops: Vec<MicroOp> = (0..2000)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 26) as u8))
            })
            .collect();
        let mut trace = SliceTrace::new(ops);
        while !core.is_done() {
            core.cycle(&mut trace);
        }
        assert_eq!(core.stats().int_issued_per_unit[0], 0);
        assert_eq!(core.stats().committed, 2000, "work shifts to other ALUs");
    }

    #[test]
    fn disabled_rf_copy_masks_its_alus() {
        let cfg =
            CoreConfig { mapping: crate::config::MappingPolicy::Priority, ..CoreConfig::default() };
        let mut core = Core::new(cfg).expect("valid config");
        core.set_rf_copy_enabled(0, false);
        let ops: Vec<MicroOp> = (0..2000)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 26) as u8))
            })
            .collect();
        let mut trace = SliceTrace::new(ops);
        while !core.is_done() {
            core.cycle(&mut trace);
        }
        let per_unit = core.stats().int_issued_per_unit;
        assert_eq!(per_unit[0] + per_unit[1] + per_unit[2], 0, "copy-0 ALUs masked");
        assert_eq!(core.stats().committed, 2000);
        assert_eq!(core.stats().int_rf_reads[0], 0, "no reads from the disabled copy");
    }

    #[test]
    fn loads_hit_the_data_cache_and_misses_cost_cycles() {
        let mk_load = |i: u64, addr: u64| {
            MicroOp::new(OpClass::Load)
                .with_pc(0x400_000 + (i % 64) * 4)
                .with_dest(ArchReg::int((i % 26) as u8))
                .with_mem(MemRef::new(addr))
        };
        // Hot: all loads to one line. Cold: every load to a new L2-missing line.
        let hot: Vec<MicroOp> = (0..500).map(|i| mk_load(i, 0x1000)).collect();
        let cold: Vec<MicroOp> = (0..500).map(|i| mk_load(i, 0x4000_0000 + i * 4096)).collect();
        let hot_core = run_ops(hot);
        let cold_core = run_ops(cold);
        assert!(
            cold_core.stats().cycles > hot_core.stats().cycles,
            "misses must slow execution: {} vs {}",
            cold_core.stats().cycles,
            hot_core.stats().cycles
        );
        assert!(cold_core.memory().l1d().miss_rate() > 0.9);
        assert!(hot_core.memory().l1d().miss_rate() < 0.1);
    }

    /// Every fourth op a branch, each taken as the next `taken()` says.
    fn control_ops(mut taken: impl FnMut() -> bool) -> Vec<MicroOp> {
        (0..2000)
            .map(|i| {
                if i % 4 == 3 {
                    MicroOp::new(OpClass::Branch)
                        .with_pc(0x400_000 + (i % 64) * 4)
                        .with_src1(ArchReg::int(1))
                        .with_branch(BranchInfo::new(taken(), 0x400_100))
                } else {
                    MicroOp::new(OpClass::IntAlu)
                        .with_pc(0x400_000 + (i % 64) * 4)
                        .with_dest(ArchReg::int((i % 26) as u8))
                }
            })
            .collect()
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        // Pseudo-random outcomes against always-taken ones: the same ops,
        // but each mispredict holds fetch until its branch resolves, so
        // the run takes far longer.
        let mut x = 7u64;
        let noisy = run_ops(control_ops(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 62) & 1 == 1
        }));
        let steady = run_ops(control_ops(|| true));
        assert!(noisy.bpred().mispredict_rate() > 0.3);
        assert!(steady.bpred().mispredict_rate() < 0.1, "only the predictor's warmup misses");
        let (slow, fast) = (noisy.stats().cycles, steady.stats().cycles);
        assert!(slow > fast + 500, "mispredicts must stall fetch: {slow} vs {fast} cycles");
    }

    #[test]
    fn frozen_core_makes_no_progress() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let ops: Vec<MicroOp> = (0..100).map(|_| MicroOp::new(OpClass::IntAlu)).collect();
        let mut trace = SliceTrace::new(ops);
        core.set_frozen(true);
        for _ in 0..50 {
            core.cycle(&mut trace);
        }
        assert_eq!(core.stats().committed, 0);
        assert_eq!(core.stats().frozen_cycles, 50);
        core.set_frozen(false);
        while !core.is_done() {
            core.cycle(&mut trace);
        }
        assert_eq!(core.stats().committed, 100);
    }

    #[test]
    fn clock_throttled_core_skips_gated_cycles() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let ops: Vec<MicroOp> = (0..200).map(|_| MicroOp::new(OpClass::IntAlu)).collect();
        let mut trace = SliceTrace::new(ops);
        core.set_clock_duty(DutyCycle::new(1, 2));
        let mut guard = 0;
        while !core.is_done() {
            let before = *core.stats();
            core.cycle(&mut trace);
            if core.clock_duty().gates(core.now()) {
                // Gated grid cycle: no progress of any kind, only accounting.
                assert_eq!(core.stats().fetched, before.fetched);
                assert_eq!(core.stats().committed, before.committed);
                assert_eq!(core.stats().throttled_cycles, before.throttled_cycles + 1);
            }
            guard += 1;
            assert!(guard < 100_000, "throttled pipeline deadlocked");
        }
        assert_eq!(core.stats().committed, 200);
        assert!(core.stats().throttled_cycles >= core.stats().cycles / 2 - 1);
        // A 1/2 duty cycle roughly halves throughput relative to cycles.
        assert!(core.stats().throttled_cycles > 0);
    }

    #[test]
    fn fetch_gating_halts_fetch_but_backend_drains() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let ops: Vec<MicroOp> = (0..500)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 26) as u8))
            })
            .collect();
        let mut trace = SliceTrace::new(ops);
        core.set_fetch_duty(DutyCycle::new(1, 4));
        let mut guard = 0;
        while !core.is_done() {
            let before = core.stats().fetched;
            core.cycle(&mut trace);
            if core.fetch_duty().gates(core.now()) {
                assert_eq!(core.stats().fetched, before, "gated cycle must not fetch");
            }
            guard += 1;
            assert!(guard < 200_000, "fetch-gated pipeline deadlocked");
        }
        assert_eq!(core.stats().committed, 500, "every instruction still commits");
        assert!(core.stats().fetch_gated_cycles > 0);
        assert_eq!(core.stats().throttled_cycles, 0);
    }

    #[test]
    fn duty_cycles_survive_snapshot_restore() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        core.set_fetch_duty(DutyCycle::new(3, 4));
        core.set_clock_duty(DutyCycle::new(7, 8));
        let state = core.snapshot();
        let mut fresh = Core::new(CoreConfig::default()).expect("valid config");
        fresh.restore(&state).expect("state fits");
        assert_eq!(fresh.fetch_duty(), DutyCycle::new(3, 4));
        assert_eq!(fresh.clock_duty(), DutyCycle::new(7, 8));
    }

    #[test]
    fn fp_ops_use_fp_units_only() {
        let ops: Vec<MicroOp> = (0..1000)
            .map(|i| {
                let class = if i % 3 == 0 { OpClass::FpMul } else { OpClass::FpAdd };
                MicroOp::new(class)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::fp((i % 26) as u8))
                    .with_src2(ArchReg::fp(((i + 1) % 26) as u8))
            })
            .collect();
        let core = run_ops(ops);
        assert_eq!(core.stats().committed, 1000);
        assert_eq!(core.stats().int_issued_per_unit, [0; 6]);
        assert!(core.stats().fp_mul_issued > 0);
        assert!(core.stats().fp_issued_per_unit.iter().sum::<u64>() > 0);
    }

    #[test]
    fn gated_rf_copy_receives_no_writes_until_restored() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        core.set_rf_copy_writes_enabled(1, false);
        let ops: Vec<MicroOp> = (0..200)
            .map(|i| {
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_000 + (i % 64) * 4)
                    .with_dest(ArchReg::int((i % 26) as u8))
            })
            .collect();
        let mut trace = SliceTrace::new(ops);
        while !core.is_done() {
            core.cycle(&mut trace);
        }
        let act = core.take_activity();
        assert_eq!(act.int_rf_writes[1], 0, "gated copy must see no writes");
        assert_eq!(act.int_rf_writes[0], 200, "other copy keeps writing");

        core.set_rf_copy_writes_enabled(1, true);
        core.charge_rf_copy_restore(1);
        let act = core.take_activity();
        assert_eq!(
            act.int_rf_writes[1],
            u64::from(powerbalance_isa::INT_ARCH_REGS),
            "restore burst writes every architectural register"
        );
    }

    #[test]
    fn activity_sample_drains_and_resets() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let ops: Vec<MicroOp> = (0..200).map(|_| MicroOp::new(OpClass::IntAlu)).collect();
        let mut trace = SliceTrace::new(ops);
        while !core.is_done() {
            core.cycle(&mut trace);
        }
        // One active-list allocation and one retirement per op.
        let sample = core.take_activity();
        assert_eq!(sample.rob_ops, 400);
        assert!(sample.cycles > 0);
        let empty = core.take_activity();
        assert_eq!(empty.rob_ops, 0);
        assert_eq!(empty.cycles, 0);
    }

    /// A mixed workload with branches, loads and dependent ALU ops.
    fn mixed_ops() -> Vec<MicroOp> {
        let mut x = 3u64;
        (0..4000)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match i % 5 {
                    0 => MicroOp::new(OpClass::Load)
                        .with_pc(0x400_000 + (i % 64) * 4)
                        .with_dest(ArchReg::int((i % 20) as u8))
                        .with_mem(MemRef::new(0x1000 + (x % 4096))),
                    3 => MicroOp::new(OpClass::Branch)
                        .with_pc(0x400_000 + (i % 64) * 4)
                        .with_src1(ArchReg::int(1))
                        .with_branch(BranchInfo::new((x >> 62) & 1 == 1, 0x400_100)),
                    _ => MicroOp::new(OpClass::IntAlu)
                        .with_pc(0x400_000 + (i % 64) * 4)
                        .with_dest(ArchReg::int((i % 20) as u8))
                        .with_src1(ArchReg::int(((i + 1) % 20) as u8)),
                }
            })
            .collect()
    }

    #[test]
    fn advance_stops_after_the_cycle_that_drains_the_core() {
        // Cold-missing loads open quiet spans; the run then drains.
        let cold = (0..200u64).map(|i| {
            MicroOp::new(OpClass::Load)
                .with_pc(0x400_000 + (i % 64) * 4)
                .with_dest(ArchReg::int((i % 20) as u8))
                .with_mem(MemRef::new(0x4000_0000 + i * 4096))
        });
        let ops: Vec<MicroOp> = cold.chain(mixed_ops()).collect();
        let mut fast = Core::new(CoreConfig::default()).expect("valid config");
        let mut slow = Core::new(CoreConfig::default()).expect("valid config");
        let (mut fast_trace, mut slow_trace) = (SliceTrace::new(ops.clone()), SliceTrace::new(ops));
        while !fast.is_done() {
            let ran = fast.advance(&mut fast_trace, 777);
            let mut stepped = 0;
            for _ in 0..777 {
                slow.cycle(&mut slow_trace);
                stepped += 1;
                if slow.is_done() {
                    break;
                }
            }
            assert_eq!(ran, stepped);
            assert_eq!(fast.snapshot(), slow.snapshot());
        }
        // A drained core still runs one cycle per call, as the loop does.
        assert_eq!(fast.advance(&mut fast_trace, 1_000), 1);
        assert_eq!(fast.advance(&mut fast_trace, 0), 0);
    }

    #[test]
    fn a_cloned_core_steps_like_a_restored_one() {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let mut trace = SliceTrace::new(mixed_ops());
        core.enable_op_log();
        for _ in 0..300 {
            core.cycle(&mut trace);
        }
        let mut cloned = core.clone();
        assert!(cloned.fetch_log.is_none() && cloned.commit_log.is_none(), "logs stay off");
        let mut restored = Core::new(CoreConfig::default()).expect("valid config");
        restored.restore(&core.snapshot()).expect("same config");
        assert_eq!(cloned.snapshot(), restored.snapshot());
        let mut other = trace.clone();
        cloned.set_frozen(true);
        restored.set_frozen(true);
        assert_eq!(cloned.advance(&mut trace, 40), restored.advance(&mut other, 40));
        cloned.set_frozen(false);
        restored.set_frozen(false);
        while !restored.is_done() {
            cloned.cycle(&mut trace);
            restored.cycle(&mut other);
            assert_eq!(cloned.snapshot(), restored.snapshot(), "cycle {}", restored.now());
        }
        assert!(cloned.is_done());
    }

    #[test]
    fn snapshot_midstream_resumes_bit_identically() {
        // The mixed workload, interrupted mid-flight: the restored core
        // must finish with the exact stats of the uninterrupted one.
        let mut straight = Core::new(CoreConfig::default()).expect("valid config");
        let mut trace_a = SliceTrace::new(mixed_ops());
        while !straight.is_done() {
            straight.cycle(&mut trace_a);
        }

        let mut first = Core::new(CoreConfig::default()).expect("valid config");
        let mut trace_b = SliceTrace::new(mixed_ops());
        for _ in 0..500 {
            first.cycle(&mut trace_b);
        }
        let state = first.snapshot();

        // Serialize through the vendored serde stubs and restore into a
        // fresh core: the continuation must match the straight run exactly.
        let value = serde::Serialize::serialize(&state);
        let parsed: CoreState = serde::Deserialize::deserialize(&value).expect("round trip");
        assert_eq!(parsed, state, "serde round trip must be lossless");

        let mut resumed = Core::new(CoreConfig::default()).expect("valid config");
        resumed.restore(&parsed).expect("same config");
        // The trace must also be positioned where the snapshot was taken —
        // here we replay by consuming the same number of fetched ops.
        let mut trace_c = SliceTrace::new(mixed_ops());
        for _ in 0..first.stats().fetched {
            let _ = trace_c.next_op();
        }
        while !resumed.is_done() {
            resumed.cycle(&mut trace_c);
        }
        assert_eq!(resumed.stats(), straight.stats(), "resumed run must be bit-identical");
        assert_eq!(resumed.bpred().mispredicts(), straight.bpred().mispredicts());
        assert_eq!(resumed.memory().l1d().misses(), straight.memory().l1d().misses());
    }

    /// A real mid-run state of the mixed workload, taken once an operation
    /// is executing and a queued entry waits on a first operand.
    fn mid_run_state() -> CoreState {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let mut trace = SliceTrace::new(mixed_ops());
        let waiting = |core: &Core| core.int_iq().entries().any(|(_, e)| e.src1_tag.is_some());
        while core.now() < 200 || core.in_flight.is_empty() || !waiting(&core) {
            assert!(!core.is_done(), "the workload never reached the wanted state");
            core.cycle(&mut trace);
        }
        core.snapshot()
    }

    /// Replaces the first number that directly follows `key` in `json`.
    fn edit_first_number(json: &str, key: &str, value: u64) -> String {
        let mut from = 0;
        loop {
            let at = from + json[from..].find(key).expect("the snapshot has the key") + key.len();
            let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
            if digits > 0 {
                return format!("{}{value}{}", &json[..at], &json[at + digits..]);
            }
            from = at;
        }
    }

    /// Restores `state` into a fresh core, which must refuse it and keep
    /// its own state; returns the refusal.
    fn restore_rejected(state: &CoreState) -> String {
        let mut core = Core::new(CoreConfig::default()).expect("valid config");
        let before = core.snapshot();
        let err = core.restore(state).expect_err("the edited state must be refused");
        assert_eq!(core.snapshot(), before, "a refused restore leaves the core untouched");
        err
    }

    /// Restores snapshot text with one number edited.
    fn restore_edited(key: &str, value: u64) -> String {
        let json = edit_first_number(&serde::json::to_string(&mid_run_state()), key, value);
        let state: CoreState = serde::json::from_str(&json).expect("the edit keeps the layout");
        restore_rejected(&state)
    }

    #[test]
    fn restore_rejects_an_out_of_range_in_flight_id() {
        // Accepted, this id would index past the active list on the next
        // cycle's writeback.
        let err = restore_edited("\"in_flight\":[{\"rob_id\":", 9999);
        assert!(err.contains("in-flight rob_id 9999"), "{err}");
    }

    #[test]
    fn restore_rejects_an_out_of_range_operand_tag() {
        // Accepted, this tag would never be broadcast (the entry would
        // never wake), and it does not fit the queue's 16-bit tag lanes.
        let err = restore_edited("\"src1_tag\":", u64::from(u32::MAX));
        assert!(err.contains("operand tag 4294967295"), "{err}");
    }

    #[test]
    fn restore_rejects_ids_that_name_no_live_entry() {
        let state = mid_run_state();
        let free = state.rob.entries.iter().position(Option::is_none).expect("a free slot");
        let free = u32::try_from(free).expect("small index");

        let mut executing_freed = state.clone();
        executing_freed.in_flight[0].rob_id = free;
        let mut finished = state.clone();
        finished.in_flight[0].remaining = 0;
        let mut waiting_freed = state.clone();
        let waiting = waiting_freed.int_iq.slots.iter_mut().flatten();
        waiting.filter(|e| e.state == EntryState::Waiting).for_each(|e| e.rob_id = free);
        let mut renamed = state;
        renamed.rename.claim(ArchReg::int(3), 9999);

        for (state, expected) in [
            (executing_freed, "in-flight op names free active-list slot"),
            (finished, "has no cycles remaining"),
            (waiting_freed, "waiting entry names free active-list slot"),
            (renamed, "rename producer 9999"),
        ] {
            let err = restore_rejected(&state);
            assert!(err.contains(expected), "expected '{expected}', got '{err}'");
        }
    }

    #[test]
    fn restore_rejects_two_waiting_entries_with_one_id() {
        // Each waiting entry owns its id's wakeup position; a second one
        // would leave the first unwakeable.
        let mut state = mid_run_state();
        let slots = &mut state.int_iq.slots;
        let waiting = slots.iter().flatten().find(|e| e.src1_tag.is_some()).copied();
        let free = slots.iter().position(Option::is_none).expect("a free slot");
        slots[free] = waiting;
        let err = restore_rejected(&state);
        assert!(err.contains("int iq: two waiting entries share active-list id"), "{err}");
    }

    #[test]
    fn snapshot_restore_rejects_mismatched_config() {
        let core = Core::new(CoreConfig::default()).expect("valid config");
        let state = core.snapshot();
        let small = CoreConfig { iq_size: 16, ..CoreConfig::default() };
        let mut other = Core::new(small).expect("valid config");
        assert!(other.restore(&state).is_err(), "different geometry must be rejected");
    }

    #[test]
    fn dependent_load_consumer_waits_for_the_load() {
        // load -> dependent ALU op, repeated; consumer cannot issue before
        // the load completes (L1 hit: ~3 cycle load-to-use).
        let mut ops = Vec::new();
        for i in 0..300u64 {
            ops.push(
                MicroOp::new(OpClass::Load)
                    .with_pc(0x400_000 + (i % 64) * 8)
                    .with_dest(ArchReg::int(1))
                    .with_mem(MemRef::new(0x1000)),
            );
            ops.push(
                MicroOp::new(OpClass::IntAlu)
                    .with_pc(0x400_004 + (i % 64) * 8)
                    .with_dest(ArchReg::int(1))
                    .with_src1(ArchReg::int(1)),
            );
        }
        let core = run_ops(ops);
        // Each pair forms a serial chain of ~4 cycles; IPC well below 1.
        assert!(core.stats().ipc() < 0.8, "ipc={}", core.stats().ipc());
        assert_eq!(core.stats().committed, 600);
    }
}
