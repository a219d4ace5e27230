//! The top-level simulator: core + power + thermal + mitigation.

use crate::engine::{Feed, Grid};
use crate::{Error, RunResult, SimConfig, SimulatorState};
use powerbalance_isa::TraceSource;
use powerbalance_mitigation::ThermalManager;
use powerbalance_thermal::{Floorplan, ThermalModel};
use powerbalance_uarch::Core;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Why a controlled run ([`Simulator::run_controlled`]) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The cycle budget elapsed (or the trace drained) normally.
    Completed,
    /// The cancellation flag was observed set between sampling windows.
    Cancelled,
    /// The wall-clock deadline passed between sampling windows.
    TimedOut,
    /// The idle probe ([`RunControl::with_idle_probe`]) was set at a
    /// window boundary while a batch had more than one live class: the
    /// caller may [`split_off`](crate::BatchSimulator::split_off) classes
    /// for the idle worker, then resume with the budget left.
    WorkerIdle,
}

impl StopCause {
    /// Whether the run finished its full budget (neither stopped early nor
    /// paused for an idle worker).
    #[must_use]
    pub fn is_completed(self) -> bool {
        self == StopCause::Completed
    }
}

/// Cooperative controls for a long simulation: an optional cancellation
/// flag, an optional wall-clock deadline, and an optional idle probe.
///
/// All are checked *between* sampling windows, never inside one, so a
/// controlled run stops within one [`SimConfig::sample_interval`] of the
/// request and the cycles it did simulate are bit-identical to an
/// uncontrolled run of the same length. The default value checks nothing
/// and costs three branches per sampling window.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControl<'a> {
    cancel: Option<&'a AtomicBool>,
    deadline: Option<Instant>,
    idle: Option<&'a AtomicBool>,
}

impl<'a> RunControl<'a> {
    /// A control that never stops the run early.
    #[must_use]
    pub fn unlimited() -> Self {
        RunControl::default()
    }

    /// Stops the run at the next sampling-window boundary once `flag` is
    /// set. The flag is shared (e.g. with a server's DELETE handler);
    /// setting it is the caller's business.
    #[must_use]
    pub fn with_cancel(mut self, flag: &'a AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Stops the run at the first sampling-window boundary after
    /// `deadline` passes.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Pauses a batch with more than one live class at the next sampling-
    /// window boundary where `flag` is set, returning
    /// [`StopCause::WorkerIdle`]. A worker pool sets the flag while one of
    /// its workers waits for work. Runs with a single class never pause.
    #[must_use]
    pub fn with_idle_probe(mut self, flag: &'a AtomicBool) -> Self {
        self.idle = Some(flag);
        self
    }

    /// Whether the idle probe is set: one atomic load, or none without a
    /// probe.
    pub(crate) fn worker_idle(&self) -> bool {
        self.idle.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// The reason the run should stop now, if any. Cancellation wins over
    /// a passed deadline when both hold.
    #[must_use]
    pub fn stop_cause(&self) -> Option<StopCause> {
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(StopCause::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopCause::TimedOut);
            }
        }
        None
    }
}

/// A complete thermal/performance simulation of one CPU configuration.
///
/// Drives the cycle-level core, converts its activity into per-block power
/// each sampling window, steps the RC thermal model, and lets the
/// mitigation manager react to the new temperatures — the same
/// sense/react loop the paper's SimpleScalar + Wattch + HotSpot setup runs.
/// It is the one-die, one-lane view of the stepping engine (DESIGN.md §13),
/// fed by the caller's trace.
///
/// # Examples
///
/// ```
/// use powerbalance::{Simulator, SimConfig};
/// use powerbalance_workloads::spec2000;
///
/// let mut sim = Simulator::new(SimConfig::default())?;
/// let result = sim.run(&mut spec2000::by_name("gzip").unwrap().trace(7), 50_000);
/// assert!(result.ipc > 0.0);
/// # Ok::<(), powerbalance::Error>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    grid: Grid,
}

/// The scalar engine's feed: the caller's trace behind the one lane.
struct Solo<'a, T>(&'a mut T);

impl<T: TraceSource> Feed for Solo<'_, T> {
    type Trace = T;

    fn dispatch(&mut self, grid: &mut Grid) -> bool {
        grid.dispatch_solo()
    }

    fn trace(&mut self, _die: usize, _task: usize) -> &mut T {
        self.0
    }
}

impl Simulator {
    /// Builds a simulator from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if any subsystem rejects its parameters.
    pub fn new(config: SimConfig) -> Result<Self, Error> {
        if config.cores != 1 {
            config.validate()?;
            return Err(Error::Config(format!(
                "config requests {} cores; the scalar Simulator is single-core — use \
                 MultiCoreSimulator",
                config.cores
            )));
        }
        Ok(Simulator { grid: Grid::new(&config, &[config.mitigation])? })
    }

    /// The configuration this simulator was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.grid.config
    }

    /// The floorplan in use.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.grid.core_plan
    }

    /// Immutable access to the core (stats, predictor, caches).
    #[must_use]
    pub fn core(&self) -> &Core {
        &self.grid.dies[0].lanes[0].core
    }

    /// Immutable access to the thermal model (current temperatures).
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.grid.dies[0].thermal
    }

    /// The mitigation manager (toggle/turnoff/freeze counters).
    #[must_use]
    pub fn manager(&self) -> &ThermalManager {
        self.grid.manager(0, 0)
    }

    /// Runs for up to `cycles` cycles (or until the trace drains) and
    /// returns the accumulated results.
    ///
    /// Can be called repeatedly to extend a run; statistics accumulate.
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, cycles: u64) -> RunResult {
        self.run_controlled(trace, cycles, &RunControl::unlimited()).0
    }

    /// Like [`run`](Simulator::run), but checks `control` between sampling
    /// windows and stops early on cancellation or a passed deadline.
    ///
    /// Returns the results accumulated so far (a stopped run's statistics
    /// are exact for the cycles it did simulate) and why the run returned.
    /// Stopping is purely observational: the simulated cycles are
    /// bit-identical to an uncontrolled run, so a [`StopCause::Completed`]
    /// outcome is indistinguishable from [`run`](Simulator::run).
    pub fn run_controlled<T: TraceSource>(
        &mut self,
        trace: &mut T,
        mut cycles: u64,
        control: &RunControl<'_>,
    ) -> (RunResult, StopCause) {
        let cause = self.grid.drive(&mut Solo(trace), &mut cycles, control, true);
        (self.result(), cause)
    }

    /// Runs for up to `cycles` cycles like [`run`](Simulator::run), but
    /// **never consults the mitigation manager**: power is accounted and
    /// the thermal model steps normally, yet no toggles, turnoffs, or
    /// freezes happen and no mitigation counters move.
    ///
    /// This makes the resulting state independent of
    /// [`SimConfig::mitigation`], which is what lets one warmed snapshot
    /// seed measured runs of *every* technique variant
    /// ([`crate::Snapshot::resume_with_config`]). Statistics (IPC,
    /// temperature averages) keep accumulating across the warmup/measured
    /// boundary, exactly as if [`run`](Simulator::run) had been called
    /// throughout with mitigation disabled for the first `cycles` cycles.
    pub fn run_warmup<T: TraceSource>(&mut self, trace: &mut T, cycles: u64) {
        let _ = self.run_warmup_controlled(trace, cycles, &RunControl::unlimited());
    }

    /// Like [`run_warmup`](Simulator::run_warmup), but checks `control`
    /// between sampling windows — see
    /// [`run_controlled`](Simulator::run_controlled) for the semantics.
    pub fn run_warmup_controlled<T: TraceSource>(
        &mut self,
        trace: &mut T,
        mut cycles: u64,
        control: &RunControl<'_>,
    ) -> StopCause {
        self.grid.drive(&mut Solo(trace), &mut cycles, control, false)
    }

    /// Captures the simulator's dynamic state for [`crate::Snapshot`].
    #[must_use]
    pub fn state(&self) -> SimulatorState {
        self.grid.state()
    }

    /// Restores dynamic state captured by [`state`](Simulator::state).
    ///
    /// The simulator must have been built from a structurally compatible
    /// configuration (same core geometry, floorplan, package, energy
    /// tables, frequency, and sampling cadence; the mitigation technique
    /// may differ). [`crate::Snapshot::resume_with_config`] enforces that
    /// contract; calling this directly performs only the shape checks.
    /// Every shape is checked before anything changes, so an error leaves
    /// the simulator untouched.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] naming the first subsystem whose state
    /// does not fit this simulator.
    pub fn restore_state(&mut self, state: &SimulatorState) -> Result<(), Error> {
        self.grid.restore(state)
    }

    /// Arms the differential oracle and runtime invariant checkers
    /// (DESIGN.md §10): every subsequent cycle is bracketed by the
    /// pipeline invariants, every retirement is cross-checked against an
    /// in-order reference executor, every thermal solve is verified
    /// against the heat equation, and every mitigation sample is compared
    /// with an independent mirror of the manager's decision rules.
    ///
    /// May be called mid-run (e.g. after a warm-start restore): the
    /// checkers pick up from the current architectural state. Violations
    /// accumulate silently; collect them with
    /// [`finish_checking`](Simulator::finish_checking).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the floorplan lacks the sensor blocks
    /// the mitigation mirror needs.
    pub fn enable_checking(&mut self) -> Result<(), Error> {
        self.grid.enable_checking()
    }

    /// Closes out the oracle (end-of-run retirement accounting, final
    /// architectural-state comparison) and returns all retained
    /// violations. Returns an empty list when checking was never enabled.
    pub fn finish_checking(&mut self) -> Vec<powerbalance_check::Violation> {
        self.grid.finish_checking()
    }

    /// Snapshot of the accumulated results.
    #[must_use]
    pub fn result(&self) -> RunResult {
        self.grid.result(0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{experiments, Fidelity};
    use powerbalance_workloads::spec2000;

    #[test]
    fn runs_and_reports() {
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let r = sim.run(&mut trace, 60_000);
        assert!(r.cycles >= 60_000);
        assert!(r.committed > 1_000);
        assert_eq!(r.temperatures.len(), sim.floorplan().blocks().len());
        assert!(r.avg_temp("IntQ0").expect("block exists") > 318.0);
    }

    #[test]
    fn run_extends_cumulatively() {
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let first = sim.run(&mut trace, 30_000);
        let second = sim.run(&mut trace, 30_000);
        assert!(second.cycles >= first.cycles + 30_000);
        assert!(second.committed > first.committed);
    }

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            let mut sim = Simulator::new(experiments::issue_queue(true)).expect("valid config");
            let mut trace = spec2000::by_name("mesa").expect("profile").trace(11);
            sim.run(&mut trace, 80_000)
        };
        let a = build();
        let b = build();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.toggles, b.toggles);
        assert_eq!(a.freezes, b.freezes);
        for (x, y) in a.temperatures.iter().zip(&b.temperatures) {
            assert!((x.avg - y.avg).abs() < 1e-12);
        }
    }

    #[test]
    fn controlled_run_without_controls_matches_run() {
        let run_plain = || {
            let mut sim = Simulator::new(experiments::issue_queue(true)).expect("valid config");
            let mut trace = spec2000::by_name("mesa").expect("profile").trace(11);
            sim.run(&mut trace, 80_000)
        };
        let mut sim = Simulator::new(experiments::issue_queue(true)).expect("valid config");
        let mut trace = spec2000::by_name("mesa").expect("profile").trace(11);
        let (controlled, cause) = sim.run_controlled(&mut trace, 80_000, &RunControl::unlimited());
        assert_eq!(cause, StopCause::Completed);
        assert_eq!(controlled, run_plain());
    }

    #[test]
    fn pre_set_cancel_flag_stops_before_the_first_window() {
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let flag = AtomicBool::new(true);
        let control = RunControl::unlimited().with_cancel(&flag);
        let (result, cause) = sim.run_controlled(&mut trace, 100_000, &control);
        assert_eq!(cause, StopCause::Cancelled);
        assert_eq!(result.cycles, 0, "cancel is checked before the first window");
    }

    #[test]
    fn cancel_stops_at_a_window_boundary_with_exact_stats() {
        // Run 30k cycles uncontrolled, then cancel a controlled run after
        // it has started: the cancelled run's statistics must exactly
        // match an uncontrolled run of the length it reached.
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let flag = AtomicBool::new(false);
        let control = RunControl::unlimited().with_cancel(&flag);
        let (first, cause) = sim.run_controlled(&mut trace, 30_000, &control);
        assert_eq!(cause, StopCause::Completed);
        flag.store(true, Ordering::Relaxed);
        let (second, cause) = sim.run_controlled(&mut trace, 30_000, &control);
        assert_eq!(cause, StopCause::Cancelled);
        assert_eq!(second.cycles, first.cycles, "no extra window ran after the cancel");

        let mut reference = Simulator::new(SimConfig::default()).expect("valid config");
        let mut ref_trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let reference_result = reference.run(&mut ref_trace, first.cycles);
        assert_eq!(second, reference_result, "partial stats are exact");
    }

    #[test]
    fn passed_deadline_times_the_run_out() {
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let control = RunControl::unlimited().with_deadline(Instant::now());
        let (result, cause) = sim.run_controlled(&mut trace, 100_000, &control);
        assert_eq!(cause, StopCause::TimedOut);
        assert_eq!(result.cycles, 0);
        // Cancellation wins when both stop conditions hold.
        let flag = AtomicBool::new(true);
        let both = RunControl::unlimited().with_cancel(&flag).with_deadline(Instant::now());
        assert_eq!(both.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn warmup_honours_controls_too() {
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let flag = AtomicBool::new(true);
        let control = RunControl::unlimited().with_cancel(&flag);
        let cause = sim.run_warmup_controlled(&mut trace, 50_000, &control);
        assert_eq!(cause, StopCause::Cancelled);
        assert_eq!(sim.core().stats().cycles, 0);
    }

    #[test]
    fn fast_mode_covers_the_full_budget_with_a_fraction_of_detailed_cycles() {
        let cfg = SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 0,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg).expect("valid config");
        let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let r = sim.run(&mut trace, 200_000);
        assert!(r.cycles >= 200_000, "virtual cycles cover the budget: {}", r.cycles);
        assert!(r.committed > 1_000);
        assert!(r.ipc > 0.0);
        // Only 1 sub-interval in 4 is simulated in detail (stretch = 4).
        let detailed = sim.core().stats().cycles;
        assert!(detailed <= 50_000 + 10_000, "detailed cycles {detailed} exceed the duty cycle");
        // Yet every sub-interval, detailed or skipped, ends in one sample:
        // mitigation keeps the Exact sampling cadence.
        assert_eq!(r.frozen_cycles, 0, "no sample was a stall");
        let interval = sim.config().sample_interval;
        assert_eq!(sim.state().temp_samples, r.cycles / interval, "one sample per sub-interval");
        assert!(r.avg_temp("IntQ0").expect("block exists") > 318.0);
    }

    #[test]
    fn fast_warmup_prefix_is_bit_identical_to_exact() {
        // A Fast run that ends inside its detailed warmup prefix IS an
        // Exact run: every cycle was simulated, nothing extrapolated.
        let fast_cfg = SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 120_000,
            ..SimConfig::default()
        };
        let mut fast = Simulator::new(fast_cfg).expect("valid config");
        let mut trace = spec2000::by_name("crafty").expect("profile").trace(5);
        let f = fast.run(&mut trace, 120_000);

        let mut exact = Simulator::new(SimConfig::default()).expect("valid config");
        let mut trace = spec2000::by_name("crafty").expect("profile").trace(5);
        let e = exact.run(&mut trace, 120_000);
        assert_eq!(f, e, "prefix cycles are exact");
        assert_eq!(fast.core().stats().cycles, exact.core().stats().cycles);
    }

    #[test]
    fn fast_mode_is_deterministic() {
        let build = || {
            let cfg = SimConfig {
                fidelity: Fidelity::Fast,
                fast_window: 50_000,
                ..experiments::issue_queue(true)
            };
            let mut sim = Simulator::new(cfg).expect("valid config");
            let mut trace = spec2000::by_name("mesa").expect("profile").trace(11);
            sim.run(&mut trace, 300_000)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "fast runs are bit-deterministic");
    }

    #[test]
    fn fast_mode_temperatures_stay_physical() {
        let cfg = SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 100_000,
            ..experiments::alu(experiments::AluPolicy::FineGrainTurnoff)
        };
        let mut sim = Simulator::new(cfg).expect("valid config");
        let mut trace = spec2000::by_name("crafty").expect("profile").trace(5);
        let r = sim.run(&mut trace, 500_000);
        for t in &r.temperatures {
            assert!(t.avg >= 318.0 - 1e-9 && t.avg < 500.0, "{}: avg {}", t.name, t.avg);
            assert!(t.max >= t.last - 1e-9, "{}: max {} < last {}", t.name, t.max, t.last);
        }
    }

    #[test]
    fn warm_start_heats_the_die_immediately() {
        let cfg = SimConfig { warm_start: true, ..SimConfig::default() };
        let mut sim = Simulator::new(cfg).expect("valid config");
        let mut trace = spec2000::by_name("crafty").expect("profile").trace(5);
        let r = sim.run(&mut trace, 30_000);
        assert!(
            r.hottest().avg > 330.0,
            "warm start should reach operating temperature: {:?}",
            r.hottest()
        );
    }
}
