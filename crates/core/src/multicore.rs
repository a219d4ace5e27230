//! The multi-core simulator: N cores, one die, one shared thermal solve.
//!
//! [`MultiCoreSimulator`] is the one-die, N-lane view of the stepping
//! engine: N independent cores step against a single RC network built
//! from N translated copies of the per-core floorplan
//! ([`powerbalance_thermal::multicore::replicate`]), so adjacent cores
//! couple laterally and a hot neighbor genuinely heats a cool one. The
//! configured [`SchedulerKind`]'s placement rule puts workload segments (a
//! typed [`TaskSet`]) onto free cores; moving a job between cores charges
//! a fetch-stall migration penalty.
//!
//! # The N = 1 contract
//!
//! A 1-core `MultiCoreSimulator` running one unbounded segment is
//! **bit-identical** to the scalar [`crate::Simulator`] on the same trace:
//! both are the same engine over a one-lane die, the replicated floorplan
//! is a clone, and an unbounded segment is a pure passthrough of its
//! trace. The release-mode equivalence suite
//! (`tests/multicore_equivalence.rs`) enforces this across floorplans,
//! fidelities, and policy families. (The one documented exception: a
//! [`SchedulerKind::Threshold`] policy may defer work and insert
//! idle-cooling windows the scalar engine has no notion of.)
//!
//! # Sampling windows
//!
//! Each window, every busy lane runs up to `sample_interval` cycles
//! (consuming any pending migration stall first), then one die-wide
//! sense/react step runs: per-lane power into the lane's slice of the die
//! power vector (idle lanes contribute leakage only) → one thermal solve
//! → per-lane mitigation consult against the lane's temperature slice.
//! Under [`crate::Fidelity::Fast`] the macro-window clock is shared, so
//! all lanes are detailed together and skipped together and the shared
//! thermal solve always sees one coherent die.
//!
//! [`SchedulerKind`]: crate::SchedulerKind
//! [`SchedulerKind::Threshold`]: crate::SchedulerKind::Threshold

use crate::engine::{Feed, Grid};
use crate::sched::{CoreView, SchedulerKind, SegmentLen, Task, DEFAULT_MIGRATION_STALL};
use crate::simulator::{RunControl, StopCause};
use crate::{BlockTemperature, Error, RunResult, SimConfig};
use powerbalance_isa::{MicroOp, TraceSource};
use powerbalance_mitigation::ThermalManager;
use powerbalance_thermal::{multicore, ThermalModel};
use powerbalance_uarch::Core;

/// Lifecycle of one segment in a [`TaskSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    /// Waiting in FIFO order for the scheduler to place it.
    Pending,
    /// Running on a core.
    Running,
    /// Retired: its trace drained (or its op budget was spent) and the
    /// core's pipeline emptied.
    Done,
}

/// One segment plus its dispatch state and remaining op budget.
#[derive(Debug)]
struct Segment<T> {
    job: u64,
    trace: T,
    /// Micro-ops this segment may still fetch; `u64::MAX` means
    /// unbounded (and is deliberately never decremented, which keeps the
    /// wrapper a bit-exact passthrough for the N = 1 contract).
    ops_left: u64,
    state: SegState,
}

/// The typed work queue a [`MultiCoreSimulator`] dispatches from.
///
/// Built from [`Task`]s (job id + segment length + trace payload) and
/// dispatched strictly in FIFO order: a deferred head blocks the queue.
/// The set owns the traces; pass the *same* `TaskSet` to every `run`
/// call of one campaign — segment positions and op budgets persist
/// across calls.
#[derive(Debug)]
pub struct TaskSet<T> {
    segments: Vec<Segment<T>>,
}

impl<T: TraceSource> TaskSet<T> {
    /// Builds a set from segments in dispatch (FIFO) order.
    pub fn new(tasks: impl IntoIterator<Item = Task<T>>) -> Self {
        let segments = tasks
            .into_iter()
            .map(|t| Segment {
                job: t.job,
                trace: t.payload,
                ops_left: match t.len {
                    SegmentLen::Unbounded => u64::MAX,
                    SegmentLen::Ops(n) => n,
                },
                state: SegState::Pending,
            })
            .collect();
        TaskSet { segments }
    }

    /// One unbounded segment per trace, each its own job — the shape
    /// campaign runs use (one benchmark instance per core).
    pub fn one_per_job(traces: impl IntoIterator<Item = T>) -> Self {
        TaskSet::new(traces.into_iter().enumerate().map(|(j, t)| Task::unbounded(j as u64, t)))
    }

    /// Total segments in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` when the set holds no segments at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Segments retired so far.
    #[must_use]
    pub fn done(&self) -> usize {
        self.segments.iter().filter(|s| s.state == SegState::Done).count()
    }

    /// `true` once every segment has retired.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.segments.iter().all(|s| s.state == SegState::Done)
    }

    /// Index of the next segment to dispatch (FIFO: first pending).
    fn first_pending(&self) -> Option<usize> {
        self.segments.iter().position(|s| s.state == SegState::Pending)
    }
}

/// A segment is its own trace: it reports end-of-trace once its op
/// budget is spent, so the core drains and retires the segment through
/// its ordinary `is_done` path. With an unbounded budget (`u64::MAX`)
/// every call forwards untouched — a bit-exact passthrough.
impl<T: TraceSource> TraceSource for Segment<T> {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.ops_left == 0 {
            return None;
        }
        let op = self.trace.next_op();
        if op.is_some() && self.ops_left != u64::MAX {
            self.ops_left -= 1;
        }
        op
    }

    fn skip_ops(&mut self, n: u64) {
        let take = if self.ops_left == u64::MAX {
            n
        } else {
            let take = n.min(self.ops_left);
            self.ops_left -= take;
            take
        };
        self.trace.skip_ops(take);
    }
}

/// Which core last ran a job.
#[derive(Debug)]
struct JobCore {
    job: u64,
    core: usize,
}

/// Aggregate results of a multi-core run: one [`RunResult`] per core
/// plus the scheduler-level counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreResult {
    /// Per-core results, block names unprefixed (each core reports its
    /// own floorplan). `cores[0]` of a 1-core run is bit-identical to
    /// the scalar simulator's result.
    pub cores: Vec<RunResult>,
    /// Jobs moved between cores by the scheduler.
    pub migrations: u64,
    /// Fetch-stall cycles charged to those migrations.
    pub migration_stall_cycles: u64,
    /// Workload segments retired.
    pub tasks_completed: u64,
}

impl MultiCoreResult {
    /// Peak temperature reached anywhere on the die.
    #[must_use]
    pub fn die_peak(&self) -> f64 {
        self.cores
            .iter()
            .flat_map(|r| r.temperatures.iter())
            .map(|t| t.max)
            .fold(f64::MIN, f64::max)
    }

    /// Total instructions committed across all cores.
    #[must_use]
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(|r| r.committed).sum()
    }

    /// Flattens the per-core results into one [`RunResult`] for display
    /// paths built around the scalar shape: cycles are the die's
    /// (maximum over cores), throughput counters sum, temperatures
    /// concatenate under `C{c}.`-prefixed block names, and the cache /
    /// predictor rates average over cores.
    #[must_use]
    pub fn merged(&self) -> RunResult {
        let n = self.cores.len().max(1) as f64;
        let cycles = self.cores.iter().map(|r| r.cycles).max().unwrap_or(0);
        let committed = self.total_committed();
        let mut int_issued_per_unit = [0u64; 6];
        let mut int_rf_reads = [0u64; 2];
        for r in &self.cores {
            for (acc, v) in int_issued_per_unit.iter_mut().zip(&r.int_issued_per_unit) {
                *acc += v;
            }
            for (acc, v) in int_rf_reads.iter_mut().zip(&r.int_rf_reads) {
                *acc += v;
            }
        }
        RunResult {
            cycles,
            committed,
            ipc: if cycles == 0 { 0.0 } else { committed as f64 / cycles as f64 },
            frozen_cycles: self.cores.iter().map(|r| r.frozen_cycles).sum(),
            toggles: self.cores.iter().map(|r| r.toggles).sum(),
            alu_turnoffs: self.cores.iter().map(|r| r.alu_turnoffs).sum(),
            rf_turnoffs: self.cores.iter().map(|r| r.rf_turnoffs).sum(),
            freezes: self.cores.iter().map(|r| r.freezes).sum(),
            opp_transitions: self.cores.iter().map(|r| r.opp_transitions).sum(),
            duty_shifts: self.cores.iter().map(|r| r.duty_shifts).sum(),
            throttled_cycles: self.cores.iter().map(|r| r.throttled_cycles).sum(),
            fetch_gated_cycles: self.cores.iter().map(|r| r.fetch_gated_cycles).sum(),
            temperatures: self
                .cores
                .iter()
                .enumerate()
                .flat_map(|(c, r)| {
                    r.temperatures.iter().map(move |t| BlockTemperature {
                        name: multicore::core_block_name(&t.name, c, self.cores.len()),
                        avg: t.avg,
                        max: t.max,
                        last: t.last,
                    })
                })
                .collect(),
            int_issued_per_unit,
            int_rf_reads,
            mispredict_rate: self.cores.iter().map(|r| r.mispredict_rate).sum::<f64>() / n,
            l1d_miss_rate: self.cores.iter().map(|r| r.l1d_miss_rate).sum::<f64>() / n,
        }
    }
}

/// N cores stepping against one shared thermal solve, with a pluggable
/// scheduler placing workload segments. See the module docs for the
/// window structure and the N = 1 bit-identity contract.
#[derive(Debug)]
pub struct MultiCoreSimulator {
    grid: Grid,
    placement: Placement,
}

/// The scheduler and the dispatch bookkeeping around it.
#[derive(Debug)]
struct Placement {
    kind: SchedulerKind,
    /// The scheduler's state word.
    word: u64,
    /// Scheduler-view scratch.
    views: Vec<CoreView>,
    migrations: u64,
    migration_stall_cycles: u64,
    tasks_completed: u64,
    /// Which core last ran each job (small linear map; campaigns run a
    /// handful of jobs).
    job_cores: Vec<JobCore>,
}

/// The multi-core feed: segments of a [`TaskSet`] placed by the
/// scheduler.
struct Dispatch<'a, T> {
    tasks: &'a mut TaskSet<T>,
    placement: &'a mut Placement,
}

impl<T: TraceSource> Feed for Dispatch<'_, T> {
    type Trace = Segment<T>;

    /// Places pending segments onto free cores until the scheduler defers
    /// or no free core remains (FIFO: a deferred head blocks the queue).
    /// The die stays live while a lane is busy or a segment is pending —
    /// a pending head here means the scheduler refused it and the die
    /// idle-cools.
    fn dispatch(&mut self, grid: &mut Grid) -> bool {
        let blocks = grid.core_plan.blocks().len();
        let die = &mut grid.dies[0];
        let theta = grid.config.mitigation.thresholds.max_temp;
        let placement = &mut *self.placement;
        while let Some(idx) = self.tasks.first_pending() {
            let temps = die.thermal.temperatures();
            for (c, view) in placement.views.iter_mut().enumerate() {
                let slice = &temps[c * blocks..(c + 1) * blocks];
                *view = CoreView {
                    temp: slice.iter().copied().fold(f64::MIN, f64::max),
                    free: die.lanes[c].task.is_none(),
                };
            }
            let Some(c) = placement.kind.select(theta, &mut placement.word, &placement.views)
            else {
                break;
            };
            if !placement.views[c].free {
                debug_assert!(false, "scheduler placed a segment on a busy core");
                break;
            }
            let job = self.tasks.segments[idx].job;
            self.tasks.segments[idx].state = SegState::Running;
            let lane = &mut die.lanes[c];
            lane.task = Some(idx);
            // A lane whose previous segment drained its trace latched
            // `trace_done`; the new segment has its own trace.
            lane.core.reset_trace_done();
            match placement.job_cores.iter_mut().find(|jc| jc.job == job) {
                Some(jc) => {
                    if jc.core != c {
                        placement.migrations += 1;
                        lane.stall_left += DEFAULT_MIGRATION_STALL;
                        jc.core = c;
                    }
                }
                None => placement.job_cores.push(JobCore { job, core: c }),
            }
        }
        die.live =
            die.lanes.iter().any(|l| l.task.is_some()) || self.tasks.first_pending().is_some();
        die.live
    }

    fn trace(&mut self, _die: usize, task: usize) -> &mut Segment<T> {
        &mut self.tasks.segments[task]
    }

    fn stalled(&mut self, cycles: u64) {
        self.placement.migration_stall_cycles += cycles;
    }

    fn retire(&mut self, task: usize) {
        self.tasks.segments[task].state = SegState::Done;
        self.placement.tasks_completed += 1;
    }
}

impl MultiCoreSimulator {
    /// Builds an N-core die from `config` (`config.cores` lanes,
    /// `config.scheduler` placing segments; the threshold policy's θ is
    /// the mitigation layer's emergency temperature).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if any subsystem rejects its
    /// parameters.
    pub fn new(config: SimConfig) -> Result<Self, Error> {
        let grid = Grid::new(&config, &[config.mitigation])?;
        let placement = Placement {
            kind: config.scheduler,
            word: 0,
            views: vec![CoreView { temp: 0.0, free: true }; config.cores],
            migrations: 0,
            migration_stall_cycles: 0,
            tasks_completed: 0,
            job_cores: Vec::new(),
        };
        Ok(MultiCoreSimulator { grid, placement })
    }

    /// The configuration this simulator was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.grid.config
    }

    /// Number of cores on the die.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.grid.config.cores
    }

    /// Immutable access to core `c`'s pipeline.
    #[must_use]
    pub fn core(&self, c: usize) -> &Core {
        &self.grid.dies[0].lanes[c].core
    }

    /// Core `c`'s mitigation manager.
    #[must_use]
    pub fn manager(&self, c: usize) -> &ThermalManager {
        self.grid.manager(0, c)
    }

    /// The shared die thermal model.
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.grid.dies[0].thermal
    }

    /// Runs for up to `cycles` die cycles, dispatching from `tasks`,
    /// and returns the accumulated per-core results. Returns early once
    /// every segment has retired. Call repeatedly with the same
    /// `TaskSet` to extend a run.
    pub fn run<T: TraceSource>(&mut self, tasks: &mut TaskSet<T>, cycles: u64) -> MultiCoreResult {
        self.run_controlled(tasks, cycles, &RunControl::unlimited()).0
    }

    /// Like [`run`](Self::run), but checks `control` between sampling
    /// windows and stops early on cancellation or a passed deadline.
    pub fn run_controlled<T: TraceSource>(
        &mut self,
        tasks: &mut TaskSet<T>,
        cycles: u64,
        control: &RunControl<'_>,
    ) -> (MultiCoreResult, StopCause) {
        let cause = self.drive(tasks, cycles, control, true);
        (self.result(), cause)
    }

    /// Runs without ever consulting the mitigation managers (the
    /// multi-core analogue of [`Simulator::run_warmup`]): power and
    /// thermal advance normally, statistics accumulate, but no toggles,
    /// turnoffs, or freezes happen.
    ///
    /// [`Simulator::run_warmup`]: crate::Simulator::run_warmup
    pub fn run_warmup<T: TraceSource>(&mut self, tasks: &mut TaskSet<T>, cycles: u64) {
        let _ = self.run_warmup_controlled(tasks, cycles, &RunControl::unlimited());
    }

    /// Like [`run_warmup`](Self::run_warmup), but checks `control`
    /// between sampling windows.
    pub fn run_warmup_controlled<T: TraceSource>(
        &mut self,
        tasks: &mut TaskSet<T>,
        cycles: u64,
        control: &RunControl<'_>,
    ) -> StopCause {
        self.drive(tasks, cycles, control, false)
    }

    fn drive<T: TraceSource>(
        &mut self,
        tasks: &mut TaskSet<T>,
        mut cycles: u64,
        control: &RunControl<'_>,
        consult: bool,
    ) -> StopCause {
        let mut feed = Dispatch { tasks, placement: &mut self.placement };
        self.grid.drive(&mut feed, &mut cycles, control, consult)
    }

    /// Snapshot of the accumulated results.
    #[must_use]
    pub fn result(&self) -> MultiCoreResult {
        MultiCoreResult {
            cores: (0..self.cores()).map(|c| self.grid.result(0, c, 0)).collect(),
            migrations: self.placement.migrations,
            migration_stall_cycles: self.placement.migration_stall_cycles,
            tasks_completed: self.placement.tasks_completed,
        }
    }

    /// Arms one runtime checker per lane (pipeline invariants, the
    /// in-order oracle, and the mitigation mirror against each lane's
    /// temperature slice) plus, on lane 0, the die-level thermal
    /// residual watch and — on multi-core dies — the cross-core energy
    /// and lateral-symmetry invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the floorplan lacks the sensor
    /// blocks the mitigation mirror needs.
    #[cfg(feature = "check")]
    pub fn enable_checking(&mut self) -> Result<(), Error> {
        self.grid.enable_checking()
    }

    /// Closes out every lane's oracle and returns all retained
    /// violations across lanes. Empty when checking was never enabled.
    #[cfg(feature = "check")]
    pub fn finish_checking(&mut self) -> Vec<powerbalance_check::Violation> {
        self.grid.finish_checking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fidelity, Simulator};
    use powerbalance_workloads::spec2000;

    fn trace(name: &str, seed: u64) -> powerbalance_workloads::TraceGenerator {
        spec2000::by_name(name).expect("profile").trace(seed)
    }

    #[test]
    fn one_core_one_task_matches_the_scalar_simulator_bitwise() {
        let mut scalar = Simulator::new(SimConfig::default()).expect("valid config");
        let scalar_result = scalar.run(&mut trace("gzip", 7), 90_000);

        let mut multi = MultiCoreSimulator::new(SimConfig::default()).expect("valid config");
        let mut tasks = TaskSet::one_per_job([trace("gzip", 7)]);
        let result = multi.run(&mut tasks, 90_000);
        assert_eq!(result.cores.len(), 1);
        assert_eq!(result.cores[0], scalar_result, "N=1 must be bit-identical");
        assert_eq!(result.migrations, 0);
    }

    #[test]
    fn two_cores_run_independent_workloads() {
        let cfg = SimConfig { cores: 2, ..SimConfig::default() };
        let mut sim = MultiCoreSimulator::new(cfg).expect("valid config");
        let mut tasks = TaskSet::one_per_job([trace("gzip", 3), trace("mesa", 11)]);
        let r = sim.run(&mut tasks, 60_000);
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores[0].committed > 1_000);
        assert!(r.cores[1].committed > 1_000);
        assert_eq!(r.tasks_completed, 0, "unbounded segments outlive the budget");
        let merged = r.merged();
        assert_eq!(merged.committed, r.cores[0].committed + r.cores[1].committed);
        assert!(merged.temperatures.iter().any(|t| t.name.starts_with("C1.")));
    }

    #[test]
    fn hot_neighbor_heats_an_idle_core() {
        // Core 0 runs; core 1 idles. Core 1 must still warm above
        // ambient through the lateral coupling and shared package.
        let cfg = SimConfig { cores: 2, ..SimConfig::default() };
        let mut sim = MultiCoreSimulator::new(cfg).expect("valid config");
        let mut tasks = TaskSet::one_per_job([trace("crafty", 5)]);
        let r = sim.run(&mut tasks, 120_000);
        let ambient = 318.0;
        let idle_peak = r.cores[1].temperatures.iter().map(|t| t.last).fold(f64::MIN, f64::max);
        let busy_peak = r.cores[0].temperatures.iter().map(|t| t.last).fold(f64::MIN, f64::max);
        assert!(idle_peak > ambient + 0.05, "neighbor heat must arrive: {idle_peak}");
        assert!(busy_peak > idle_peak, "the busy core stays the hotter one");
    }

    #[test]
    fn bounded_segments_retire_and_round_robin_rotates() {
        let cfg = SimConfig { cores: 2, ..SimConfig::default() };
        let mut sim = MultiCoreSimulator::new(cfg).expect("valid config");
        let mut tasks = TaskSet::new([
            Task::ops(0, 4_000, trace("gzip", 1)),
            Task::ops(1, 4_000, trace("gzip", 2)),
            Task::ops(2, 4_000, trace("gzip", 3)),
            Task::ops(3, 4_000, trace("gzip", 4)),
        ]);
        let r = sim.run(&mut tasks, 400_000);
        assert_eq!(r.tasks_completed, 4, "all bounded segments retire");
        assert!(tasks.is_drained());
        assert!(
            r.cores[0].committed > 0 && r.cores[1].committed > 0,
            "round-robin spreads segments over both cores"
        );
    }

    #[test]
    fn migration_charges_the_fetch_stall_penalty() {
        // The same job runs two segments; round-robin places them on
        // different cores, so the second dispatch is a migration.
        let cfg = SimConfig { cores: 2, ..SimConfig::default() };
        let mut sim = MultiCoreSimulator::new(cfg).expect("valid config");
        let mut tasks = TaskSet::new([
            Task::ops(9, 3_000, trace("gzip", 1)),
            Task::ops(9, 3_000, trace("gzip", 2)),
        ]);
        let r = sim.run(&mut tasks, 300_000);
        assert_eq!(r.migrations, 1, "second segment of job 9 moved cores");
        assert_eq!(r.migration_stall_cycles, DEFAULT_MIGRATION_STALL);
    }

    #[test]
    fn fast_fidelity_covers_the_budget_on_two_cores() {
        let cfg = SimConfig {
            cores: 2,
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 20_000,
            ..SimConfig::default()
        };
        let mut sim = MultiCoreSimulator::new(cfg).expect("valid config");
        let mut tasks = TaskSet::one_per_job([trace("gzip", 3), trace("crafty", 5)]);
        let r = sim.run(&mut tasks, 200_000);
        for (c, core) in r.cores.iter().enumerate() {
            assert!(core.cycles >= 200_000, "core {c} covers the budget: {}", core.cycles);
            assert!(core.ipc > 0.0, "core {c} made progress");
        }
        let detailed = sim.core(0).stats().cycles;
        assert!(detailed < 120_000, "interval engine skipped most cycles: {detailed}");
    }

    #[test]
    fn one_core_fast_matches_the_scalar_simulator_bitwise() {
        let cfg = SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 20_000,
            ..SimConfig::default()
        };
        let mut scalar = Simulator::new(cfg.clone()).expect("valid config");
        let scalar_result = scalar.run(&mut trace("crafty", 5), 250_000);

        let mut multi = MultiCoreSimulator::new(cfg).expect("valid config");
        let mut tasks = TaskSet::one_per_job([trace("crafty", 5)]);
        let result = multi.run(&mut tasks, 250_000);
        assert_eq!(result.cores[0], scalar_result, "N=1 Fast must be bit-identical");
    }
}
