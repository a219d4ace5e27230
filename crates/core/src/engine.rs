//! The stepping engine: one sense/react loop over a grid of dies × lanes.
//!
//! A [`Lane`] is one core: its pipeline, temperature statistics,
//! interval-engine basis, optional runtime checker, and migration stall.
//! A [`Die`] is one thermal network: its RC model, the window's power
//! vector, the warm-start latch, and `cores` lanes tiled on it. The
//! [`Grid`] holds what every die shares — configuration, floorplans,
//! power model, the interval engine's macro-window clock — plus the
//! mitigation managers, one per (member, lane), where a *member* is one
//! mitigation variant riding the grid.
//!
//! The public engines are views of one grid:
//!
//! | view | dies | lanes per die | members |
//! |---|---|---|---|
//! | [`crate::Simulator`] | 1 | 1 | 1 |
//! | [`crate::MultiCoreSimulator`] | 1 | N | 1 |
//! | [`crate::BatchSimulator`] | 1 per equivalence class | 1 | K, split across classes |
//!
//! [`Grid::drive`] steps every live die through one sampling window at a
//! time, phase by phase: cycle every busy lane; account every lane's
//! power in one batched call per die; group dies by `(settled, dt)` and
//! run one batched solve per group; consult each die's managers; then
//! update statistics, retire finished work, and tick the interval clock.
//! Within each lane the floating-point sequence is the single-core one —
//! power → dt/settle → thermal → consult → statistics — which is what
//! keeps every view bit-identical to the others wherever they describe
//! the same run.
//!
//! The consult is one phase for every die shape: each member decides for
//! each sampled lane, the members are partitioned by what they decided,
//! the die forks once per extra partition, and each partition's
//! representative applies its commands while its co-members adopt the
//! result. A scalar or multi-core die is the one-member case: one
//! decision and one apply per lane, no partition to split. Every
//! [`Actuation`](powerbalance_mitigation::Actuation) of every engine thus
//! passes through one place, which is also where an armed checker
//! brackets the sample.

use crate::config::Fidelity;
use crate::simulator::{RunControl, StopCause};
use crate::snapshot::{decode_bits, encode_bits, FastEngineState, LaneState};
use crate::{BlockTemperature, Error, RunResult, SimConfig};
use powerbalance_isa::TraceSource;
use powerbalance_mitigation::{ManagerState, MitigationConfig, Sensors, ThermalManager};
use powerbalance_power::PowerModel;
use powerbalance_thermal::{
    ev6, multicore, BatchThermalSolver, Floorplan, ThermalLane, ThermalModel,
};
use powerbalance_uarch::{ActivitySample, Core, CoreState, CoreStats};

/// Where a grid's lanes get their instructions, and the hooks a work
/// queue needs around each window.
pub(crate) trait Feed {
    /// The trace type lanes consume.
    type Trace: TraceSource;

    /// Places work on idle lanes and marks each die live or not; returns
    /// whether any die is live. Runs before every window.
    fn dispatch(&mut self, grid: &mut Grid) -> bool;

    /// The trace behind `task` on die `die`.
    fn trace(&mut self, die: usize, task: usize) -> &mut Self::Trace;

    /// `cycles` of migration stall were just consumed.
    fn stalled(&mut self, _cycles: u64) {}

    /// The lane running `task` drained.
    fn retire(&mut self, _task: usize) {}

    /// Die `die` was just forked into a new die appended to the grid.
    fn fork(&mut self, _die: usize) {
        unreachable!("only a grid with several members per die forks")
    }
}

/// Splits `items` into those whose index is not in `take` (ascending) and
/// those whose index is, both in their original order.
pub(crate) fn split_indices<T>(items: Vec<T>, take: &[usize]) -> (Vec<T>, Vec<T>) {
    let (mut kept, mut given) = (Vec::new(), Vec::new());
    for (i, item) in items.into_iter().enumerate() {
        if take.binary_search(&i).is_ok() { &mut given } else { &mut kept }.push(item);
    }
    (kept, given)
}

/// Extrapolates one of a detailed window's counters over `skipped`
/// cycles, proportionally to the window's own length.
fn scaled(basis: u64, skipped: u64, window_len: u64) -> u64 {
    if window_len == 0 {
        return 0;
    }
    (u128::from(basis) * u128::from(skipped) / u128::from(window_len)) as u64
}

/// The per-lane part of a captured state, borrowed from either public
/// state type ([`crate::SimulatorState`] or [`LaneState`]).
pub(crate) struct LaneRef<'a> {
    pub(crate) core: &'a CoreState,
    pub(crate) manager: &'a ManagerState,
    pub(crate) temp_sum_bits: &'a [u64],
    pub(crate) temp_max_bits: &'a [u64],
    pub(crate) temp_samples: u64,
    pub(crate) window_watts_bits: &'a [u64],
    pub(crate) fast: &'a FastEngineState,
    pub(crate) stall_left: u64,
}

impl<'a> From<&'a LaneState> for LaneRef<'a> {
    fn from(s: &'a LaneState) -> Self {
        LaneRef {
            core: &s.core,
            manager: &s.manager,
            temp_sum_bits: &s.temp_sum_bits,
            temp_max_bits: &s.temp_max_bits,
            temp_samples: s.temp_samples,
            window_watts_bits: &s.window_watts_bits,
            fast: &s.fast,
            stall_left: s.stall_left,
        }
    }
}

/// One core of a die.
#[derive(Debug)]
pub(crate) struct Lane {
    pub(crate) core: Core,
    /// Per-block running sums for averages over non-stalled samples.
    temp_sum: Vec<f64>,
    temp_samples: u64,
    temp_max: Vec<f64>,
    /// Interval-engine basis and extrapolated totals.
    fast: FastEngineState,
    /// Per-block power held from the last detailed window.
    window_watts: Vec<f64>,
    /// Remaining migration fetch-stall cycles, consumed from the front of
    /// the next window(s) before the core cycles.
    pub(crate) stall_left: u64,
    /// The running task, if any; solo feeds use task 0.
    pub(crate) task: Option<usize>,
    /// Optional per-sample `(cycle, temperatures)` rows.
    pub(crate) history: Option<Vec<(u64, Vec<f64>)>>,
    /// Differential oracle + invariant checkers. Lane 0's also watches
    /// the die's thermal solve.
    #[cfg(feature = "check")]
    pub(crate) checker: Option<Box<powerbalance_check::RuntimeChecker>>,
    /// Core counters at the start of the current detailed window.
    before: CoreStats,
    /// `(was_frozen, virtual_now)` of a lane sampled this window, captured
    /// before its consult; `None` for a lane that sat the window out.
    ctx: Option<(bool, u64)>,
}

impl Lane {
    fn new(core: Core, blocks: usize) -> Lane {
        Lane {
            core,
            temp_sum: vec![0.0; blocks],
            temp_samples: 0,
            temp_max: vec![f64::MIN; blocks],
            fast: FastEngineState::default(),
            window_watts: vec![0.0; blocks],
            stall_left: 0,
            task: None,
            history: None,
            #[cfg(feature = "check")]
            checker: None,
            before: CoreStats::default(),
            ctx: None,
        }
    }

    /// A copy of this lane with its own core, carrying the current
    /// window's context but no checker or history.
    fn fork(&self) -> Lane {
        Lane {
            core: self.core.clone(),
            temp_sum: self.temp_sum.clone(),
            temp_samples: self.temp_samples,
            temp_max: self.temp_max.clone(),
            fast: self.fast.clone(),
            window_watts: self.window_watts.clone(),
            stall_left: self.stall_left,
            task: self.task,
            history: None,
            #[cfg(feature = "check")]
            checker: None,
            before: self.before,
            ctx: self.ctx,
        }
    }

    /// Virtual time: core cycles plus analytically skipped cycles.
    fn virtual_now(&self) -> u64 {
        self.core.stats().cycles + self.fast.extra_cycles
    }

    /// Cycles the core up to `budget` times; stops early when the trace
    /// drains. Unchecked, [`Core::advance`] applies quiet spans in one
    /// step; an armed checker instead brackets every single cycle, so it
    /// observes each one.
    fn cycle<T: TraceSource>(&mut self, trace: &mut T, budget: u64) -> u64 {
        #[cfg(feature = "check")]
        if let Some(checker) = &mut self.checker {
            let mut ran = 0u64;
            for _ in 0..budget {
                checker.before_cycle(&self.core);
                self.core.cycle(trace);
                checker.after_cycle(&mut self.core);
                ran += 1;
                if self.core.is_done() {
                    break;
                }
            }
            return ran;
        }
        self.core.advance(trace, budget)
    }

    /// Records the detailed window that just ended (core counters at its
    /// start in `before`, its measured power in `watts`) as the
    /// extrapolation basis for the skipped sub-intervals that follow.
    fn record(&mut self, watts: &[f64]) {
        let first_sample = self.fast.sample_cycles == 0;
        let (after, before) = (self.core.stats(), &self.before);
        self.fast.sample_cycles = after.cycles - before.cycles;
        self.fast.sample_committed = after.committed - before.committed;
        self.fast.sample_fetched = after.fetched - before.fetched;
        self.fast.sample_frozen = after.frozen_cycles - before.frozen_cycles;
        self.fast.sample_throttled = after.throttled_cycles - before.throttled_cycles;
        self.fast.sample_fetch_gated = after.fetch_gated_cycles - before.fetch_gated_cycles;
        if first_sample {
            self.window_watts.copy_from_slice(watts);
        } else {
            // One detailed window is a noisy estimate of the power the
            // skipped cycles will dissipate; blending recent windows
            // halves the estimator variance at the cost of one macro
            // window of lag (EWMA, α = 1/2).
            for (held, w) in self.window_watts.iter_mut().zip(watts) {
                *held = 0.5 * *held + 0.5 * w;
            }
        }
    }

    /// Extrapolates one analytically skipped sub-interval of `sub` cycles:
    /// fast-forwards the workload past the instructions those cycles would
    /// have consumed (so the next detailed window samples the phase
    /// virtual time has reached) and extends the throughput counters. A
    /// frozen core fetches nothing: the whole sub-interval is stall time.
    fn skip<T: TraceSource>(&mut self, trace: &mut T, sub: u64, frozen: bool) {
        let fast = &mut self.fast;
        fast.extra_cycles += sub;
        if frozen {
            fast.extra_frozen += sub;
            return;
        }
        let len = fast.sample_cycles;
        trace.skip_ops(scaled(fast.sample_fetched, sub, len));
        fast.extra_committed += scaled(fast.sample_committed, sub, len);
        fast.extra_frozen += scaled(fast.sample_frozen, sub, len);
        fast.extra_throttled += scaled(fast.sample_throttled, sub, len);
        fast.extra_fetch_gated += scaled(fast.sample_fetch_gated, sub, len);
    }

    /// Accumulates the window's temperature statistics: averages over
    /// execution (non-stalled) samples, the peak over all of them.
    fn account(&mut self, temps: &[f64], was_frozen: bool, now: u64) {
        if !was_frozen {
            for (sum, t) in self.temp_sum.iter_mut().zip(temps) {
                *sum += t;
            }
            self.temp_samples += 1;
        }
        for (max, t) in self.temp_max.iter_mut().zip(temps) {
            *max = max.max(*t);
        }
        if let Some(history) = &mut self.history {
            history.push((now, temps.to_vec()));
        }
    }

    /// The lane's results: `temps` is its slice of the die, `manager` the
    /// member whose counters to report.
    fn result(&self, plan: &Floorplan, temps: &[f64], manager: &ThermalManager) -> RunResult {
        let stats = self.core.stats();
        let mstats = manager.stats();
        let samples = self.temp_samples.max(1) as f64;
        let temperatures = plan
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| BlockTemperature {
                name: b.name.clone(),
                avg: if self.temp_samples == 0 { temps[i] } else { self.temp_sum[i] / samples },
                max: if self.temp_max[i] == f64::MIN { temps[i] } else { self.temp_max[i] },
                last: temps[i],
            })
            .collect();
        // Fold the interval engine's extrapolated cycles back into the
        // headline counters. Under Exact fidelity every `extra_*` is zero
        // and the arithmetic reduces bit-for-bit to the core's own
        // counters (the IPC expression mirrors `CoreStats::ipc`).
        let cycles = stats.cycles + self.fast.extra_cycles;
        let committed = stats.committed + self.fast.extra_committed;
        RunResult {
            cycles,
            committed,
            ipc: if cycles == 0 { 0.0 } else { committed as f64 / cycles as f64 },
            frozen_cycles: stats.frozen_cycles + self.fast.extra_frozen,
            toggles: mstats.toggles,
            alu_turnoffs: mstats.alu_turnoffs,
            rf_turnoffs: mstats.rf_turnoffs,
            freezes: mstats.freezes,
            opp_transitions: mstats.opp_transitions,
            duty_shifts: mstats.duty_shifts,
            throttled_cycles: stats.throttled_cycles + self.fast.extra_throttled,
            fetch_gated_cycles: stats.fetch_gated_cycles + self.fast.extra_fetch_gated,
            temperatures,
            int_issued_per_unit: stats.int_issued_per_unit,
            int_rf_reads: stats.int_rf_reads,
            mispredict_rate: self.core.bpred().mispredict_rate(),
            l1d_miss_rate: self.core.memory().l1d().miss_rate(),
        }
    }

    fn state(&self, manager: &ThermalManager) -> LaneState {
        LaneState {
            core: self.core.snapshot(),
            manager: manager.snapshot(),
            temp_sum_bits: encode_bits(&self.temp_sum),
            temp_max_bits: encode_bits(&self.temp_max),
            temp_samples: self.temp_samples,
            window_watts_bits: encode_bits(&self.window_watts),
            fast: self.fast.clone(),
            stall_left: self.stall_left,
        }
    }

    /// Adopts `state` with `core` already restored from it. Infallible:
    /// every shape was checked before the first lane changed.
    fn apply(&mut self, core: Core, state: &LaneRef<'_>) {
        self.core = core;
        self.temp_sum = decode_bits(state.temp_sum_bits);
        self.temp_max = decode_bits(state.temp_max_bits);
        self.temp_samples = state.temp_samples;
        self.window_watts = decode_bits(state.window_watts_bits);
        self.fast = state.fast.clone();
        self.stall_left = state.stall_left;
        self.task = None;
    }
}

/// One thermal network and the lanes tiled on it.
#[derive(Debug)]
pub(crate) struct Die {
    pub(crate) thermal: ThermalModel,
    /// Per-block power of the current window, lane `c` owning the slice
    /// `c * blocks..(c + 1) * blocks`; scratch, never snapshotted.
    watts: Vec<f64>,
    /// Whether the one-time warm-start settle has happened.
    pub(crate) warmed: bool,
    /// The members riding this die, ascending; the first is the
    /// representative whose managers set the power scale and actuate.
    pub(crate) members: Vec<usize>,
    pub(crate) lanes: Vec<Lane>,
    /// Whether the die steps this window (set by [`Feed::dispatch`]).
    pub(crate) live: bool,
    /// This window's thermal step, and whether the die takes part in the
    /// batched solve currently running.
    dt: f64,
    settled: bool,
    solve: bool,
}

impl ThermalLane for Die {
    fn lane(&mut self) -> Option<(&mut ThermalModel, &[f64])> {
        if self.solve {
            Some((&mut self.thermal, &self.watts))
        } else {
            None
        }
    }
}

impl Die {
    /// A copy of this die (members left empty) that continues the current
    /// window from its exact state.
    fn fork(&self) -> Die {
        Die {
            thermal: self.thermal.clone(),
            watts: self.watts.clone(),
            warmed: self.warmed,
            members: Vec::new(),
            lanes: self.lanes.iter().map(Lane::fork).collect(),
            live: self.live,
            dt: self.dt,
            settled: self.settled,
            solve: false,
        }
    }
}

/// Dies × lanes stepping on one window schedule; see the module docs.
#[derive(Debug)]
pub(crate) struct Grid {
    /// The structural configuration (member 0's).
    pub(crate) config: SimConfig,
    /// The per-core floorplan: lane power models, sensors, block names.
    pub(crate) core_plan: Floorplan,
    power: PowerModel,
    /// Per-block power of an idle (or frozen) core: pure leakage.
    idle_watts: Vec<f64>,
    pub(crate) dies: Vec<Die>,
    /// Member-major: member `m`'s manager for lane `c` is
    /// `managers[m * cores + c]`.
    pub(crate) managers: Vec<ThermalManager>,
    /// Interval-engine clock ([`Fidelity::Fast`]), shared by every die:
    /// detailed warmup-prefix cycles still to run, and sub-intervals
    /// completed in the current macro window.
    prefix_left: u64,
    window_pos: u64,
    solver: BatchThermalSolver,
    /// Scratch: this die's `(activity, scale)` rows for the power phase.
    rows: Vec<(ActivitySample, f64)>,
    /// Scratch: distinct `(settled, dt_bits)` thermal groups.
    groups: Vec<(bool, u64)>,
    /// Scratch for the consult phase: each member's partition, and each
    /// partition's first member.
    parts: Vec<usize>,
    reps: Vec<usize>,
}

impl Grid {
    /// One die of `config.cores` lanes, with one member per entry of
    /// `mitigations`.
    pub(crate) fn new(config: &SimConfig, mitigations: &[MitigationConfig]) -> Result<Grid, Error> {
        config.validate()?;
        let core_plan = ev6::build(config.floorplan);
        let die_plan = multicore::replicate(&core_plan, config.cores);
        let power = PowerModel::new(&core_plan, config.energy, config.frequency_hz)?;
        let blocks = core_plan.blocks().len();
        let mut idle_watts = vec![0.0; blocks];
        power.block_power_into(&ActivitySample::default(), &mut idle_watts);
        let mut managers = Vec::with_capacity(mitigations.len() * config.cores);
        for mitigation in mitigations {
            for _ in 0..config.cores {
                managers.push(ThermalManager::new(*mitigation, Sensors::new(&core_plan)?));
            }
        }
        let mut lanes = Vec::with_capacity(config.cores);
        for _ in 0..config.cores {
            lanes.push(Lane::new(Core::new(config.core.clone())?, blocks));
        }
        let die = Die {
            thermal: ThermalModel::new(&die_plan, config.package),
            watts: vec![0.0; blocks * config.cores],
            warmed: false,
            members: (0..mitigations.len()).collect(),
            lanes,
            live: false,
            dt: 0.0,
            settled: false,
            solve: false,
        };
        Ok(Grid {
            prefix_left: match config.fidelity {
                Fidelity::Fast => config.fast_warmup,
                Fidelity::Exact => 0,
            },
            window_pos: 0,
            config: config.clone(),
            core_plan,
            power,
            idle_watts,
            dies: vec![die],
            managers,
            solver: BatchThermalSolver::new(),
            rows: Vec::new(),
            groups: Vec::new(),
            parts: Vec::new(),
            reps: Vec::new(),
        })
    }

    fn blocks(&self) -> usize {
        self.core_plan.blocks().len()
    }

    /// Member `member`'s manager for lane `lane`.
    pub(crate) fn manager(&self, member: usize, lane: usize) -> &ThermalManager {
        &self.managers[member * self.config.cores + lane]
    }

    /// Moves dies `take` (ascending), with their members' managers, into a
    /// new grid on the same interval clock with its own solver. Both grids
    /// keep their dies in order and renumber their members densely, in
    /// ascending order. Returns the new grid and the old index of each of
    /// its members.
    pub(crate) fn split_off(&mut self, take: &[usize]) -> (Grid, Vec<usize>) {
        let (mut kept, mut given) = split_indices(std::mem::take(&mut self.dies), take);
        let mut moved: Vec<usize> = given.iter().flat_map(|die| die.members.clone()).collect();
        moved.sort_unstable();
        let cores = self.config.cores;
        let moved_managers: Vec<usize> =
            moved.iter().flat_map(|&m| m * cores..(m + 1) * cores).collect();
        let (kept_managers, given_managers) =
            split_indices(std::mem::take(&mut self.managers), &moved_managers);
        for m in given.iter_mut().flat_map(|die| &mut die.members) {
            *m = moved.binary_search(m).expect("a member of a moved die");
        }
        for m in kept.iter_mut().flat_map(|die| &mut die.members) {
            *m -= moved.partition_point(|&g| g < *m);
        }
        self.dies = kept;
        self.managers = kept_managers;
        let grid = Grid {
            config: self.config.clone(),
            core_plan: self.core_plan.clone(),
            power: self.power.clone(),
            idle_watts: self.idle_watts.clone(),
            dies: given,
            managers: given_managers,
            prefix_left: self.prefix_left,
            window_pos: self.window_pos,
            solver: BatchThermalSolver::new(),
            rows: Vec::new(),
            groups: Vec::new(),
            parts: Vec::new(),
            reps: Vec::new(),
        };
        (grid, moved)
    }

    /// The [`Feed::dispatch`] of feeds with one trace per die: a lane is
    /// busy until its core drains, a die live while any lane is busy.
    pub(crate) fn dispatch_solo(&mut self) -> bool {
        let mut any = false;
        for die in &mut self.dies {
            for lane in &mut die.lanes {
                lane.task = (!lane.core.is_done()).then_some(0);
            }
            die.live = die.lanes.iter().any(|l| l.task.is_some());
            any |= die.live;
        }
        any
    }

    /// Runs for up to `*cycles` cycles, one sampling window at a time,
    /// checking `control` between windows, and leaves the unspent budget in
    /// `*cycles`. `consult: false` is a warmup: power and thermal advance
    /// and statistics accumulate, but no manager is consulted. The idle
    /// probe pauses only a grid with more than one live die.
    ///
    /// Under [`Fidelity::Fast`] the first [`SimConfig::fast_warmup`]
    /// cycles run fully detailed so the predictor and caches train before
    /// any extrapolation. After that prefix, time is diced into
    /// sub-intervals of one `sample_interval`, `fast_window /
    /// sample_interval` per macro window: the first is detailed, the rest
    /// hold that window's power, advance the RC network in closed form,
    /// fast-forward the workload, and extrapolate the throughput counters.
    /// Skipped sub-intervals still end in a consult at virtual time, so
    /// mitigation keeps the Exact sampling cadence.
    pub(crate) fn drive<F: Feed>(
        &mut self,
        feed: &mut F,
        cycles: &mut u64,
        control: &RunControl<'_>,
        consult: bool,
    ) -> StopCause {
        let interval = self.config.sample_interval;
        let fast = self.config.fidelity == Fidelity::Fast;
        let stretch = self.config.fast_window / interval;
        loop {
            let live = feed.dispatch(self);
            if *cycles == 0 || !live {
                return StopCause::Completed;
            }
            if let Some(stop) = control.stop_cause() {
                return stop;
            }
            if control.worker_idle() && self.dies.iter().filter(|die| die.live).count() > 1 {
                return StopCause::WorkerIdle;
            }
            let sub = interval.min(*cycles);
            let in_prefix = self.prefix_left > 0;
            let detailed = !fast || in_prefix || self.window_pos == 0;
            if detailed {
                *cycles -= self.cycle_lanes(feed, sub, fast);
                self.sense(sub, fast);
            } else {
                *cycles -= sub;
                self.skip(feed, sub);
            }
            if consult {
                self.consult(feed, detailed);
            }
            self.account(feed);
            if fast {
                if in_prefix {
                    // The prefix is detailed wall-to-wall; the macro-window
                    // phase starts counting once it is spent.
                    self.prefix_left = self.prefix_left.saturating_sub(sub);
                } else {
                    self.window_pos = (self.window_pos + 1) % stretch;
                }
            }
        }
    }

    /// Phase 1: runs every busy lane for up to `window` cycles (migration
    /// stall first). Returns how far the grid clock advanced: the longest
    /// busy lane, or the full window on a live die with no busy lane
    /// (idle cooling).
    fn cycle_lanes<F: Feed>(&mut self, feed: &mut F, window: u64, fast: bool) -> u64 {
        let mut advanced = 0u64;
        for (d, die) in self.dies.iter_mut().enumerate().filter(|(_, die)| die.live) {
            let mut die_advanced = window;
            let mut any_busy = false;
            for lane in &mut die.lanes {
                let Some(task) = lane.task else {
                    continue;
                };
                if fast {
                    lane.before = *lane.core.stats();
                }
                let stall = lane.stall_left.min(window);
                if stall > 0 {
                    lane.stall_left -= stall;
                    feed.stalled(stall);
                }
                let ran = stall + lane.cycle(feed.trace(d, task), window - stall);
                die_advanced = if any_busy { die_advanced.max(ran) } else { ran };
                any_busy = true;
            }
            advanced = advanced.max(die_advanced);
        }
        advanced
    }

    /// Phases 2 and 3 of a detailed window: per-lane activity → power
    /// (idle lanes leak) → one batched solve per `(settled, dt)` group.
    /// A die steps by its longest lane activity, or by the window length
    /// when idle.
    fn sense(&mut self, window: u64, fast: bool) {
        let blocks = self.blocks();
        let cores = self.config.cores;
        self.groups.clear();
        for die in self.dies.iter_mut().filter(|die| die.live) {
            self.rows.clear();
            let mut max_cycles = 0u64;
            for (c, lane) in die.lanes.iter_mut().enumerate() {
                let activity = lane.core.take_activity();
                lane.ctx = None;
                if activity.cycles == 0 {
                    self.rows.push((activity, 1.0));
                    continue;
                }
                max_cycles = max_cycles.max(activity.cycles);
                lane.fast.window_int_iq = activity.int_iq;
                lane.fast.window_fp_iq = activity.fp_iq;
                lane.ctx = Some((lane.core.is_frozen(), lane.virtual_now()));
                // DVFS scales dynamic energy by V²f; every member of a die
                // shares the scale by the partition invariant.
                let scale = self.managers[die.members[0] * cores + c].dynamic_power_scale();
                debug_assert!(
                    die.members
                        .iter()
                        .all(|&m| self.managers[m * cores + c].dynamic_power_scale() == scale),
                    "die members disagree on dynamic power scale"
                );
                self.rows.push((activity, scale));
            }
            self.power.block_power_many_into(&self.rows, &mut die.watts);
            if fast {
                for (lane, watts) in die.lanes.iter_mut().zip(die.watts.chunks_exact(blocks)) {
                    if lane.ctx.is_some() {
                        lane.record(watts);
                    }
                }
            }
            let dt_cycles = if max_cycles == 0 { window } else { max_cycles };
            die.dt = dt_cycles as f64 / self.config.frequency_hz;
            // The first window of a warm-started run jumps to this
            // workload's own steady state instead of heating from ambient.
            die.settled = self.config.warm_start && !die.warmed;
            die.warmed |= die.settled;
            let key = (die.settled, die.dt.to_bits());
            if !self.groups.contains(&key) {
                self.groups.push(key);
            }
        }
        for &(settled, dt_bits) in &self.groups {
            for die in &mut self.dies {
                die.solve = die.live && die.settled == settled && die.dt.to_bits() == dt_bits;
            }
            if settled {
                self.solver.settle_many(&mut self.dies);
            } else {
                self.solver.step_many(&mut self.dies, f64::from_bits(dt_bits));
            }
        }
        #[cfg(feature = "check")]
        for die in self.dies.iter_mut().filter(|die| die.live) {
            let now = die.lanes[0].virtual_now();
            if let Some(checker) = &mut die.lanes[0].checker {
                checker.check_thermal(&die.thermal, &die.watts, die.dt, die.settled, now);
            }
        }
    }

    /// Phases 2 and 3 of a skipped sub-interval: each die holds its busy
    /// lanes' last detailed power (idle and frozen lanes leak) and
    /// advances in closed form; busy lanes extrapolate.
    fn skip<F: Feed>(&mut self, feed: &mut F, sub: u64) {
        let blocks = self.blocks();
        let dt = sub as f64 / self.config.frequency_hz;
        for (d, die) in self.dies.iter_mut().enumerate().filter(|(_, die)| die.live) {
            for (lane, watts) in die.lanes.iter_mut().zip(die.watts.chunks_exact_mut(blocks)) {
                let frozen = lane.core.is_frozen();
                lane.ctx = lane.task.map(|_| (frozen, 0));
                let held = if lane.task.is_some() && !frozen {
                    &lane.window_watts
                } else {
                    &self.idle_watts
                };
                watts.copy_from_slice(held);
            }
            die.thermal.advance(&die.watts, dt);
            for lane in &mut die.lanes {
                let (Some(task), Some((frozen, _))) = (lane.task, lane.ctx) else {
                    continue;
                };
                lane.skip(feed.trace(d, task), sub, frozen);
                lane.ctx = Some((frozen, lane.virtual_now()));
            }
            // The closed-form advance is outside the backward-Euler
            // residual's reach; re-base the die-level watches.
            #[cfg(feature = "check")]
            if let Some(checker) = &mut die.lanes[0].checker {
                checker.resync_thermal(&die.thermal);
            }
        }
    }

    /// Phase 4: every live die consults its managers. Forked children are
    /// appended past the dies this pass visits, so they are not consulted
    /// twice.
    fn consult<F: Feed>(&mut self, feed: &mut F, detailed: bool) {
        for d in 0..self.dies.len() {
            if self.dies[d].live {
                self.consult_die(feed, d, detailed);
            }
        }
    }

    /// The consult of one die, whatever its shape (one lane or N, one
    /// member or K): every member decides for every sampled lane against
    /// the lane's temperatures; members are partitioned by (commands,
    /// projected power scale) per lane; each extra partition forks off
    /// into a new die *before* any command is applied, so each child
    /// branches from the exact state the decisions were made against; and
    /// each partition's representative actuates its die while its
    /// co-members adopt the representative's post-apply manager state
    /// (identical pre-state + identical commands ⇒ identical post-state,
    /// without double-applying core side effects). On detailed windows an
    /// armed checker brackets the sample: only an unforked die with one
    /// member carries one.
    fn consult_die<F: Feed>(&mut self, feed: &mut F, d: usize, detailed: bool) {
        #[cfg(not(feature = "check"))]
        let _ = detailed;
        let blocks = self.blocks();
        let cores = self.config.cores;
        let Grid { dies, managers, parts, reps, .. } = self;
        parts.clear();
        reps.clear();
        #[cfg(feature = "check")]
        if detailed {
            let die = &mut dies[d];
            for (c, lane) in die.lanes.iter_mut().enumerate() {
                if let (Some(checker), Some(_)) = (&mut lane.checker, lane.ctx) {
                    checker.before_sample(&lane.core, &managers[die.members[0] * cores + c]);
                }
            }
        }
        let die = &dies[d];
        let temps = die.thermal.temperatures();
        for &m in &die.members {
            for (c, lane) in die.lanes.iter().enumerate() {
                if let Some((_, now)) = lane.ctx {
                    let (int_iq, fp_iq) = (&lane.fast.window_int_iq, &lane.fast.window_fp_iq);
                    let temps = &temps[c * blocks..(c + 1) * blocks];
                    managers[m * cores + c].decide(&lane.core, temps, now, int_iq, fp_iq);
                }
            }
            let agrees = |&rep: &usize| {
                die.lanes.iter().enumerate().filter(|(_, l)| l.ctx.is_some()).all(|(c, _)| {
                    let (a, b) = (&managers[rep * cores + c], &managers[m * cores + c]);
                    a.projected_power_scale().to_bits() == b.projected_power_scale().to_bits()
                        && a.decided_actions() == b.decided_actions()
                })
            };
            let part = match reps.iter().position(agrees) {
                Some(p) => p,
                None => {
                    reps.push(m);
                    reps.len() - 1
                }
            };
            parts.push(part);
        }
        let first_child = dies.len();
        for p in 1..reps.len() {
            let mut child = dies[d].fork();
            child.members = dies[d]
                .members
                .iter()
                .zip(&*parts)
                .filter(|(_, &q)| q == p)
                .map(|(&m, _)| m)
                .collect();
            dies.push(child);
            feed.fork(d);
        }
        if reps.len() > 1 {
            let mut part = parts.iter();
            dies[d].members.retain(|_| part.next() == Some(&0));
        }
        for p in 0..reps.len() {
            let die = &mut dies[if p == 0 { d } else { first_child + p - 1 }];
            let rep = die.members[0];
            #[cfg(feature = "check")]
            let temps = die.thermal.temperatures();
            for (c, lane) in die.lanes.iter_mut().enumerate() {
                if lane.ctx.is_none() {
                    continue;
                }
                let manager = &mut managers[rep * cores + c];
                manager.apply_decided(&mut lane.core);
                #[cfg(feature = "check")]
                if let (Some(checker), Some((_, now)), true) =
                    (&mut lane.checker, lane.ctx, detailed)
                {
                    let (int_iq, fp_iq) = (&lane.fast.window_int_iq, &lane.fast.window_fp_iq);
                    let temps = &temps[c * blocks..(c + 1) * blocks];
                    checker.after_sample(&lane.core, manager, temps, now, int_iq, fp_iq);
                }
                let snap = manager.snapshot();
                for &m in &die.members[1..] {
                    managers[m * cores + c].restore(&snap);
                }
            }
        }
    }

    /// Phase 5: statistics for every lane sampled this window (forked
    /// children included — they inherited the context), then retirement.
    fn account<F: Feed>(&mut self, feed: &mut F) {
        let blocks = self.blocks();
        for die in self.dies.iter_mut().filter(|die| die.live) {
            let temps = die.thermal.temperatures();
            for (c, lane) in die.lanes.iter_mut().enumerate() {
                if let Some((was_frozen, now)) = lane.ctx.take() {
                    lane.account(&temps[c * blocks..(c + 1) * blocks], was_frozen, now);
                }
                if let Some(task) = lane.task {
                    if lane.core.is_done() {
                        lane.task = None;
                        feed.retire(task);
                    }
                }
            }
        }
    }

    /// Lane `c` of die `d` reported with member `member`'s counters.
    pub(crate) fn result(&self, d: usize, c: usize, member: usize) -> RunResult {
        let blocks = self.blocks();
        let die = &self.dies[d];
        let temps = &die.thermal.temperatures()[c * blocks..(c + 1) * blocks];
        die.lanes[c].result(&self.core_plan, temps, self.manager(member, c))
    }

    /// Lane `c` of die 0 as a captured state.
    pub(crate) fn lane_state(&self, c: usize) -> LaneState {
        let die = &self.dies[0];
        die.lanes[c].state(self.manager(die.members[0], c))
    }

    /// The interval clock: `(prefix_left, window_pos)`.
    pub(crate) fn clock(&self) -> (u64, u64) {
        (self.prefix_left, self.window_pos)
    }

    /// Restores die 0 from captured lane states, node temperatures, the
    /// warm-start latch, and the interval clock; every member of the die
    /// adopts each lane's manager state. Lanes come back idle.
    ///
    /// Atomic: every shape is checked (and every core restored into a
    /// fresh pipeline) before anything changes, so an `Err` leaves the
    /// grid as it was.
    pub(crate) fn restore(
        &mut self,
        lanes: &[LaneRef<'_>],
        thermal_node_bits: &[u64],
        warmed: bool,
        clock: (u64, u64),
    ) -> Result<(), Error> {
        let blocks = self.blocks();
        let cores = self.config.cores;
        if lanes.len() != cores {
            return Err(Error::Config(format!(
                "state covers {} lanes, die has {cores}",
                lanes.len()
            )));
        }
        let nodes = self.dies[0].thermal.node_temperatures().len();
        if thermal_node_bits.len() != nodes {
            return Err(Error::Config(format!(
                "thermal: state has {} node temperatures, model has {nodes} nodes",
                thermal_node_bits.len()
            )));
        }
        let mut restored = Vec::with_capacity(cores);
        for (c, lane) in lanes.iter().enumerate() {
            for (what, len) in [
                ("temperature sums", lane.temp_sum_bits.len()),
                ("temperature maxima", lane.temp_max_bits.len()),
                ("fast-engine power vector", lane.window_watts_bits.len()),
            ] {
                if len != blocks {
                    return Err(Error::Config(format!(
                        "lane {c} {what} cover {len} blocks, floorplan has {blocks}"
                    )));
                }
            }
            let mut core = Core::new(self.config.core.clone())?;
            core.restore(lane.core).map_err(|e| Error::Config(format!("lane {c} core: {e}")))?;
            restored.push(core);
        }
        let die = &mut self.dies[0];
        for (c, (core, state)) in restored.into_iter().zip(lanes).enumerate() {
            die.lanes[c].apply(core, state);
            for &m in &die.members {
                self.managers[m * cores + c].restore(state.manager);
            }
        }
        die.thermal
            .restore_node_temperatures(&decode_bits(thermal_node_bits))
            .expect("node count checked above");
        die.warmed = warmed;
        (self.prefix_left, self.window_pos) = clock;
        // A restored engine is a different execution: re-arm checking
        // against the restored state so the oracle does not cross-check
        // the new run against pre-restore history.
        #[cfg(feature = "check")]
        if self.dies[0].lanes.iter().any(|l| l.checker.is_some()) {
            self.enable_checking()?;
        }
        Ok(())
    }

    /// Arms one runtime checker per lane (pipeline invariants, the
    /// in-order oracle, the mitigation mirror against the lane's slice)
    /// plus, on lane 0, the die's thermal residual watch and — with
    /// several lanes — the cross-core energy and symmetry invariants.
    #[cfg(feature = "check")]
    pub(crate) fn enable_checking(&mut self) -> Result<(), Error> {
        let blocks = self.blocks();
        for die in &mut self.dies {
            for lane in &mut die.lanes {
                lane.core.enable_op_log();
                let checker = powerbalance_check::RuntimeChecker::new(
                    &self.core_plan,
                    &self.config.mitigation,
                    &lane.core,
                    &die.thermal,
                )
                .map_err(Error::Config)?;
                lane.checker = Some(Box::new(checker));
            }
            let cores = die.lanes.len();
            if cores > 1 {
                if let Some(checker) = &mut die.lanes[0].checker {
                    checker.enable_crosscore(cores, blocks, &die.thermal);
                }
            }
        }
        Ok(())
    }

    /// Closes out every armed checker and returns all retained
    /// violations, lane by lane.
    #[cfg(feature = "check")]
    pub(crate) fn finish_checking(&mut self) -> Vec<powerbalance_check::Violation> {
        let mut all = Vec::new();
        for lane in self.dies.iter_mut().flat_map(|die| &mut die.lanes) {
            if let Some(checker) = &mut lane.checker {
                checker.finish(&lane.core);
                all.extend_from_slice(checker.violations());
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::{self, PolicyKind};
    use crate::{
        BatchSimulator, Fidelity, FloorplanKind, MultiCoreSimulator, SimConfig, Simulator, TaskSet,
        TraceCursor,
    };
    use powerbalance_workloads::{spec2000, TraceGenerator};

    fn trace(name: &str, seed: u64) -> TraceGenerator {
        spec2000::by_name(name).expect("profile").trace(seed)
    }

    fn fast(config: SimConfig) -> SimConfig {
        SimConfig { fidelity: Fidelity::Fast, fast_window: 40_000, fast_warmup: 20_000, ..config }
    }

    /// Call lengths in whole sampling intervals, uneven on purpose, that
    /// add up to `total`.
    fn chunks(total: u64, interval: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut left, mut k) = (total, 1);
        while left > 0 {
            let n = (k * interval).min(left);
            out.push(n);
            left -= n;
            k = k % 3 + 1;
        }
        out
    }

    #[test]
    fn scalar_runs_are_invariant_under_chunking() {
        for config in [SimConfig::default(), fast(SimConfig::default())] {
            let total = 160_000;
            let mut whole = Simulator::new(config.clone()).expect("valid config");
            let expect = whole.run(&mut trace("gzip", 3), total);
            let mut split = Simulator::new(config.clone()).expect("valid config");
            let mut t = trace("gzip", 3);
            for n in chunks(total, config.sample_interval) {
                split.run(&mut t, n);
            }
            assert_eq!(split.result(), expect, "{:?}", config.fidelity);
            assert_eq!(split.state(), whole.state(), "{:?}", config.fidelity);
        }
    }

    #[test]
    fn multicore_runs_are_invariant_under_chunking() {
        let two = SimConfig { cores: 2, ..SimConfig::default() };
        for config in [two.clone(), fast(two)] {
            let total = 100_000;
            let tasks = || TaskSet::one_per_job([trace("gzip", 3), trace("mesa", 11)]);
            let mut whole = MultiCoreSimulator::new(config.clone()).expect("valid config");
            let expect = whole.run(&mut tasks(), total);
            let mut split = MultiCoreSimulator::new(config.clone()).expect("valid config");
            let mut t = tasks();
            for n in chunks(total, config.sample_interval) {
                split.run(&mut t, n);
            }
            assert_eq!(split.result(), expect, "{:?}", config.fidelity);
            assert_eq!(split.state(), whole.state(), "{:?}", config.fidelity);
        }
    }

    #[test]
    fn forking_batches_are_invariant_under_chunking() {
        // Both cells fork inside the budget (the recipes of the batch
        // module's diverging-policy tests).
        let exact: Vec<SimConfig> = [PolicyKind::None, PolicyKind::FetchGate]
            .iter()
            .map(|k| experiments::policy(*k, FloorplanKind::IssueConstrained))
            .collect();
        let fast: Vec<SimConfig> = [PolicyKind::None, PolicyKind::Spatial]
            .iter()
            .map(|k| fast(experiments::policy(*k, FloorplanKind::AluConstrained)))
            .collect();
        for (configs, bench, seed) in [(exact, "eon", 42), (fast, "crafty", 5)] {
            let total = 300_000;
            let interval = configs[0].sample_interval;
            let build = || {
                let t = TraceCursor::new(trace(bench, seed));
                BatchSimulator::new(configs.clone(), t).expect("eligible")
            };
            let mut whole = build();
            let expect = whole.run(total);
            assert!(whole.class_count() > 1, "{bench}: the cell must fork");
            let mut split = build();
            for n in chunks(total, interval) {
                split.run(n);
            }
            assert_eq!(split.results(), expect, "{bench}");
            assert_eq!(split.class_count(), whole.class_count(), "{bench}");
        }
    }

    #[test]
    fn a_bad_scalar_state_leaves_the_simulator_untouched() {
        let mut sim = Simulator::new(fast(SimConfig::default())).expect("valid config");
        let mut t = trace("gzip", 3);
        sim.run(&mut t, 30_000);
        let mut bad = sim.state();
        bad.window_watts_bits.pop();
        sim.run(&mut t, 30_000);
        let before = sim.state();
        assert!(sim.restore_state(&bad).is_err(), "short power vector is rejected");
        assert_eq!(sim.state(), before, "a rejected restore changes nothing");
    }

    #[test]
    fn a_bad_lane_state_leaves_the_die_untouched() {
        let mut sim = MultiCoreSimulator::new(SimConfig { cores: 2, ..SimConfig::default() })
            .expect("valid config");
        let mut tasks = TaskSet::one_per_job([trace("gzip", 3), trace("mesa", 11)]);
        sim.run(&mut tasks, 30_000);
        let mut bad = sim.state();
        bad.lanes[1].temp_sum_bits.pop();
        sim.run(&mut tasks, 30_000);
        let before = sim.state();
        assert!(sim.restore_state(&bad).is_err(), "short lane-1 statistics are rejected");
        assert_eq!(sim.state(), before, "lane 0 was not restored either");
    }
}
