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
//! [`Grid::drive`] steps the grid one sampling window at a time, and
//! within a window takes one live die at a time through its whole sense
//! and react sequence: cycle its busy lanes, convert each lane's activity
//! to power, step the die's thermal network, consult its managers, then
//! update statistics and retire finished work for the die and every die
//! it forked. This is the single-core sequence — power → dt/settle →
//! thermal → consult → statistics — run once per die, and no step of one
//! die reads another's state, which is what keeps every view bit-identical
//! to the others wherever they describe the same run.
//!
//! The consult is one step for every die shape: each member decides for
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
use crate::snapshot::{decode_bits, encode_bits, FastEngineState};
use crate::{BlockTemperature, Error, RunResult, SimConfig, SimulatorState};
use powerbalance_isa::TraceSource;
use powerbalance_mitigation::{MitigationConfig, Sensors, ThermalManager};
use powerbalance_power::PowerModel;
use powerbalance_thermal::{ev6, multicore, Floorplan, ThermalModel};
use powerbalance_uarch::{ActivitySample, Core, CoreStats};

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
            #[cfg(feature = "check")]
            checker: None,
            before: CoreStats::default(),
            ctx: None,
        }
    }

    /// A copy of this lane with its own core, carrying the current
    /// window's context but no checker.
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
    fn account(&mut self, temps: &[f64], was_frozen: bool) {
        if !was_frozen {
            for (sum, t) in self.temp_sum.iter_mut().zip(temps) {
                *sum += t;
            }
            self.temp_samples += 1;
        }
        for (max, t) in self.temp_max.iter_mut().zip(temps) {
            *max = max.max(*t);
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

    /// Adopts `state` with `core` already restored from it. Infallible:
    /// every shape was checked first.
    fn apply(&mut self, core: Core, state: &SimulatorState) {
        self.core = core;
        self.temp_sum = decode_bits(&state.temp_sum_bits);
        self.temp_max = decode_bits(&state.temp_max_bits);
        self.temp_samples = state.temp_samples;
        self.window_watts = decode_bits(&state.window_watts_bits);
        self.fast = state.fast.clone();
        self.stall_left = 0;
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
    /// Scratch for the consult: each member's partition, and each
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
    /// new grid on the same interval clock. Both grids
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
            // The budget falls by the longest advance over all dies; a
            // skipped sub-interval advances every die by all of it.
            let mut advanced = if detailed { 0 } else { sub };
            // Dies forked during the pass are appended past this bound:
            // they continue the window from their parent's state, so they
            // are accounted with it but not stepped again.
            for d in 0..self.dies.len() {
                if !self.dies[d].live {
                    continue;
                }
                if detailed {
                    advanced = advanced.max(self.detail(feed, d, sub, fast));
                } else {
                    self.skip(feed, d, sub);
                }
                let first_child = self.dies.len();
                if consult {
                    self.consult_die(feed, d, detailed);
                }
                self.account(feed, d);
                for child in first_child..self.dies.len() {
                    self.account(feed, child);
                }
            }
            *cycles -= advanced;
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

    /// A detailed window of die `d`: runs every busy lane for up to
    /// `window` cycles (migration stall first), converts each lane's
    /// activity to power (idle lanes leak), and steps the die's thermal
    /// network by its longest lane activity, or by the window length when
    /// idle. Returns how far the die's clock advanced: its longest busy
    /// lane, or the full window with no busy lane (idle cooling).
    fn detail<F: Feed>(&mut self, feed: &mut F, d: usize, window: u64, fast: bool) -> u64 {
        let blocks = self.blocks();
        let cores = self.config.cores;
        let Grid { dies, power, managers, config, .. } = self;
        let die = &mut dies[d];
        let mut advanced = window;
        let mut any_busy = false;
        let mut max_cycles = 0u64;
        for (c, (lane, watts)) in
            die.lanes.iter_mut().zip(die.watts.chunks_exact_mut(blocks)).enumerate()
        {
            if let Some(task) = lane.task {
                if fast {
                    lane.before = *lane.core.stats();
                }
                let stall = lane.stall_left.min(window);
                if stall > 0 {
                    lane.stall_left -= stall;
                    feed.stalled(stall);
                }
                let ran = stall + lane.cycle(feed.trace(d, task), window - stall);
                advanced = if any_busy { advanced.max(ran) } else { ran };
                any_busy = true;
            }
            let activity = lane.core.take_activity();
            lane.ctx = None;
            let mut scale = 1.0;
            if activity.cycles > 0 {
                max_cycles = max_cycles.max(activity.cycles);
                lane.fast.window_int_iq = activity.int_iq;
                lane.fast.window_fp_iq = activity.fp_iq;
                lane.ctx = Some((lane.core.is_frozen(), lane.virtual_now()));
                // DVFS scales dynamic energy by V²f; every member of a die
                // shares the scale by the partition invariant.
                scale = managers[die.members[0] * cores + c].dynamic_power_scale();
                debug_assert!(
                    die.members
                        .iter()
                        .all(|&m| managers[m * cores + c].dynamic_power_scale() == scale),
                    "die members disagree on dynamic power scale"
                );
            }
            power.block_power_scaled_into(&activity, scale, watts);
            if fast && lane.ctx.is_some() {
                lane.record(watts);
            }
        }
        let dt_cycles = if max_cycles == 0 { window } else { max_cycles };
        let dt = dt_cycles as f64 / config.frequency_hz;
        // The first window of a warm-started run jumps to this workload's
        // own steady state instead of heating from ambient.
        let settle = config.warm_start && !die.warmed;
        if settle {
            die.warmed = true;
            die.thermal.settle(&die.watts);
        } else {
            die.thermal.step(&die.watts, dt);
        }
        #[cfg(feature = "check")]
        {
            let now = die.lanes[0].virtual_now();
            if let Some(checker) = &mut die.lanes[0].checker {
                checker.check_thermal(&die.thermal, &die.watts, dt, settle, now);
            }
        }
        advanced
    }

    /// A skipped sub-interval of die `d`: the die holds its busy lanes'
    /// last detailed power (idle and frozen lanes leak) and advances in
    /// closed form; busy lanes extrapolate.
    fn skip<F: Feed>(&mut self, feed: &mut F, d: usize, sub: u64) {
        let blocks = self.blocks();
        let dt = sub as f64 / self.config.frequency_hz;
        let die = &mut self.dies[d];
        for (lane, watts) in die.lanes.iter_mut().zip(die.watts.chunks_exact_mut(blocks)) {
            let frozen = lane.core.is_frozen();
            lane.ctx = lane.task.map(|_| (frozen, 0));
            let held =
                if lane.task.is_some() && !frozen { &lane.window_watts } else { &self.idle_watts };
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
        // The closed-form advance is outside the backward-Euler residual's
        // reach; re-base the die-level watches.
        #[cfg(feature = "check")]
        if let Some(checker) = &mut die.lanes[0].checker {
            checker.resync_thermal(&die.thermal);
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

    /// Statistics for every lane of die `d` sampled this window (a forked
    /// child inherited its parent's context), then retirement.
    fn account<F: Feed>(&mut self, feed: &mut F, d: usize) {
        let blocks = self.blocks();
        let die = &mut self.dies[d];
        let temps = die.thermal.temperatures();
        for (c, lane) in die.lanes.iter_mut().enumerate() {
            if let Some((was_frozen, _)) = lane.ctx.take() {
                lane.account(&temps[c * blocks..(c + 1) * blocks], was_frozen);
            }
            if let Some(task) = lane.task {
                if lane.core.is_done() {
                    lane.task = None;
                    feed.retire(task);
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

    /// Die 0's first lane, with the die's representative manager, as a
    /// captured state.
    pub(crate) fn state(&self) -> SimulatorState {
        let die = &self.dies[0];
        let lane = &die.lanes[0];
        SimulatorState {
            core: lane.core.snapshot(),
            manager: self.manager(die.members[0], 0).snapshot(),
            thermal_node_bits: encode_bits(die.thermal.node_temperatures()),
            temp_sum_bits: encode_bits(&lane.temp_sum),
            temp_max_bits: encode_bits(&lane.temp_max),
            temp_samples: lane.temp_samples,
            warmed: die.warmed,
            fast_prefix_left: self.prefix_left,
            fast_window_pos: self.window_pos,
            window_watts_bits: encode_bits(&lane.window_watts),
            fast: lane.fast.clone(),
        }
    }

    /// Restores a one-lane die 0 from `state`: the lane's core, statistics
    /// and interval-engine basis, the node temperatures, the warm-start
    /// latch and the interval clock; every member of the die adopts the
    /// state's manager. The lane comes back idle.
    ///
    /// Atomic: every shape is checked (and the core restored into a fresh
    /// pipeline) before anything changes, so an `Err` leaves the grid as
    /// it was.
    pub(crate) fn restore(&mut self, state: &SimulatorState) -> Result<(), Error> {
        debug_assert_eq!(self.config.cores, 1, "a captured state covers one lane");
        let blocks = self.blocks();
        let nodes = self.dies[0].thermal.node_temperatures().len();
        if state.thermal_node_bits.len() != nodes {
            return Err(Error::Config(format!(
                "thermal: state has {} node temperatures, model has {nodes} nodes",
                state.thermal_node_bits.len()
            )));
        }
        for (what, len) in [
            ("temperature sums", state.temp_sum_bits.len()),
            ("temperature maxima", state.temp_max_bits.len()),
            ("fast-engine power vector", state.window_watts_bits.len()),
        ] {
            if len != blocks {
                return Err(Error::Config(format!(
                    "{what} cover {len} blocks, floorplan has {blocks}"
                )));
            }
        }
        let mut core = Core::new(self.config.core.clone())?;
        core.restore(&state.core).map_err(|e| Error::Config(format!("core: {e}")))?;
        let die = &mut self.dies[0];
        die.lanes[0].apply(core, state);
        for &m in &die.members {
            self.managers[m].restore(&state.manager);
        }
        die.thermal
            .restore_node_temperatures(&decode_bits(&state.thermal_node_bits))
            .expect("node count checked above");
        die.warmed = state.warmed;
        self.prefix_left = state.fast_prefix_left;
        self.window_pos = state.fast_window_pos;
        // A restored engine is a different execution: re-arm checking
        // against the restored state so the oracle does not cross-check
        // the new run against pre-restore history.
        #[cfg(feature = "check")]
        if self.dies[0].lanes[0].checker.is_some() {
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
        BatchSimulator, Fidelity, FloorplanKind, MultiCoreSimulator, SimConfig, Simulator,
        SimulatorState, TaskSet, TraceCursor,
    };
    use powerbalance_isa::{MicroOp, SliceTrace, TraceSource};
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
            let f = config.fidelity;
            let total = 100_000;
            let tasks = || TaskSet::one_per_job([trace("gzip", 3), trace("mesa", 11)]);
            let mut whole = MultiCoreSimulator::new(config.clone()).expect("valid config");
            let mut whole_tasks = tasks();
            let expect = whole.run(&mut whole_tasks, total);
            let mut split = MultiCoreSimulator::new(config.clone()).expect("valid config");
            let mut t = tasks();
            for n in chunks(total, config.sample_interval) {
                split.run(&mut t, n);
            }
            assert_eq!(split.result(), expect, "{f:?}");
            for c in 0..config.cores {
                assert_eq!(split.core(c).snapshot(), whole.core(c).snapshot(), "{f:?} core {c}");
                let (a, b) = (split.manager(c).snapshot(), whole.manager(c).snapshot());
                assert_eq!(a, b, "{f:?} manager {c}");
            }
            let bits = |sim: &MultiCoreSimulator| -> Vec<u64> {
                sim.thermal().node_temperatures().iter().map(|t| t.to_bits()).collect()
            };
            assert_eq!(bits(&split), bits(&whole), "{f:?} node temperatures");
            // The held power, the interval clock and the scheduler word
            // show only in what comes next: one more macro window.
            let more = config.fast_window;
            assert_eq!(split.run(&mut t, more), whole.run(&mut whole_tasks, more), "{f:?} more");
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
    fn forked_dies_step_different_dt_in_one_window() {
        // A finite trace sized so that the cell forks, then both classes
        // drain mid-way through the same window at different cycle
        // counts: in that window each die steps its own `dt`.
        let configs: Vec<SimConfig> = [PolicyKind::None, PolicyKind::FetchGate]
            .iter()
            .map(|k| experiments::policy(*k, FloorplanKind::IssueConstrained))
            .collect();
        let mut generator = trace("eon", 42);
        let ops: Vec<MicroOp> =
            (0..350_000).map(|_| generator.next_op().expect("generators never drain")).collect();
        let (total, interval) = (1_000_000, configs[0].sample_interval);
        let build = || {
            BatchSimulator::new(configs.clone(), SliceTrace::new(ops.clone())).expect("eligible")
        };
        let mut whole = build();
        let results = whole.run(total);
        assert_eq!(whole.class_count(), 2, "the cell forks");
        let (a, b) = (results[0].cycles, results[1].cycles);
        assert_ne!(a, b, "the classes drain at different cycle counts");
        assert_eq!(a / interval, b / interval, "in one window: {a} vs {b}");
        assert!(a % interval != 0 && b % interval != 0, "both mid-window: {a} vs {b}");
        for (config, r) in configs.iter().zip(&results) {
            let mut sim = Simulator::new(config.clone()).expect("valid config");
            assert_eq!(*r, sim.run(&mut SliceTrace::new(ops.clone()), total), "scalar run");
        }
        let mut split = build();
        for n in chunks(total, interval) {
            split.run(n);
        }
        assert_eq!(split.results(), results, "chunked run");
    }

    /// States that `restore_state` must refuse, each derived from `good`
    /// and named for its defect.
    fn bad_states(good: &SimulatorState) -> Vec<(&'static str, SimulatorState)> {
        let [mut sums, mut maxima, mut power, mut nodes, mut core] =
            std::array::from_fn(|_| good.clone());
        sums.temp_sum_bits.pop();
        maxima.temp_max_bits.pop();
        power.window_watts_bits.pop();
        nodes.thermal_node_bits.push(0);
        // An in-flight id past the active list, which `Core::restore`
        // refuses (see the pipeline's restore tests).
        let json = serde::json::to_string(&good.core);
        let key = "\"in_flight\":[{\"rob_id\":";
        let at = json.find(key).expect("an instruction is in flight") + key.len();
        let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
        let edited = format!("{}9999{}", &json[..at], &json[at + digits..]);
        core.core = serde::json::from_str(&edited).expect("the edit keeps the layout");
        vec![
            ("short temperature sums", sums),
            ("short temperature maxima", maxima),
            ("short power vector", power),
            ("wrong node count", nodes),
            ("in-flight id past the active list", core),
        ]
    }

    #[test]
    fn a_bad_scalar_state_leaves_the_simulator_untouched() {
        let mut sim = Simulator::new(fast(SimConfig::default())).expect("valid config");
        let mut t = trace("gzip", 3);
        sim.run(&mut t, 30_000);
        let bad = bad_states(&sim.state());
        sim.run(&mut t, 30_000);
        let before = sim.state();
        for (what, state) in &bad {
            assert!(sim.restore_state(state).is_err(), "{what} is refused");
            assert_eq!(sim.state(), before, "{what}: a refused restore changes nothing");
        }
    }

    #[test]
    fn a_bad_state_leaves_the_batch_untouched() {
        let config = fast(SimConfig::default());
        let mut sim = Simulator::new(config.clone()).expect("valid config");
        sim.run(&mut trace("gzip", 3), 30_000);
        let good = sim.state();
        let mut batch =
            BatchSimulator::new(vec![config.clone(), config], trace("gzip", 5)).expect("eligible");
        let before = batch.run(30_000);
        for (what, state) in &bad_states(&good) {
            assert!(batch.restore_state(state).is_err(), "{what} is refused");
            assert_eq!(batch.results(), before, "{what}: a refused restore changes nothing");
        }

        // A forked batch refuses even a state that fits.
        let configs: Vec<SimConfig> = [PolicyKind::None, PolicyKind::FetchGate]
            .iter()
            .map(|k| experiments::policy(*k, FloorplanKind::IssueConstrained))
            .collect();
        let mut sim = Simulator::new(configs[0].clone()).expect("valid config");
        sim.run(&mut trace("eon", 42), 30_000);
        let fits = sim.state();
        let mut batch =
            BatchSimulator::new(configs, TraceCursor::new(trace("eon", 42))).expect("eligible");
        let before = batch.run(300_000);
        assert!(batch.class_count() > 1, "the cell forks");
        let err = batch.restore_state(&fits).expect_err("a forked batch is refused");
        assert!(err.to_string().contains("unforked"), "{err}");
        assert_eq!(batch.results(), before, "a refused restore changes nothing");
    }
}
