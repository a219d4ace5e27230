//! Batched lockstep execution: K mitigation variants over one trace.
//!
//! A measured campaign sweeps many mitigation techniques over the *same*
//! (benchmark, seed, floorplan, cadence) tuple. Run separately, the K
//! variants re-simulate the identical core K times and only start to
//! differ once a trip point actually fires — which, for well-mitigated
//! configurations, is rarely. [`BatchSimulator`] exploits that: siblings
//! whose observable behaviour is still identical share one
//! **equivalence-class** die of the stepping engine (one core, one thermal
//! solve, one pass over the trace), while each sibling keeps its own
//! [`ThermalManager`] so every policy still decides every window. The
//! moment two siblings' decisions diverge, the die **forks** — its state
//! is copied bit-exactly into a new die and both lineages continue
//! independently, their traces split via `Clone` (a
//! [`powerbalance_isa::TraceCursor`] fork under Exact fidelity, a private
//! generator clone under Fast).
//!
//! Each class die steps its own window on its own: its core, its power,
//! its thermal network's `step`, its siblings' consults. Every sibling
//! thus runs the scalar floating-point sequence, so batched results are
//! **bit-identical** to K sequential scalar runs — a contract pinned by
//! differential tests and the fuzzer.
//!
//! For the same reason a batch can be cut between classes: at a window
//! boundary, [`BatchSimulator::split_off`] moves whole classes into a
//! [`BatchPart`] that another thread resumes, and every sibling still
//! equals its scalar run wherever and whenever the cut falls.

use crate::engine::{split_indices, Feed, Grid};
use crate::simulator::{RunControl, StopCause};
use crate::{Error, RunResult, SimConfig, SimulatorState};
use powerbalance_isa::{Detach, TraceSource};
use powerbalance_mitigation::{MitigationConfig, ThermalManager};

/// Steps K sibling configurations in lockstep over one shared trace.
///
/// Siblings must share one [`SimConfig::structure`], so they differ at
/// most in `mitigation` (checked at construction). Results come back in
/// sibling order and are bit-identical to K sequential
/// [`crate::Simulator`] runs of the same configurations.
///
/// The trace type is cloned on fork: wrap a generator in a
/// [`powerbalance_isa::TraceCursor`] to share generated ops between
/// diverged classes (Exact fidelity), or pass the generator directly when
/// `skip_ops` must stay O(1) (Fast fidelity).
///
/// # Examples
///
/// ```
/// use powerbalance::{BatchSimulator, SimConfig, Simulator};
/// use powerbalance_isa::TraceCursor;
/// use powerbalance_workloads::spec2000;
///
/// let profile = spec2000::by_name("gzip").unwrap();
/// let configs = vec![SimConfig::default(), SimConfig::default()];
/// let mut batch = BatchSimulator::new(configs, TraceCursor::new(profile.trace(7)))?;
/// let results = batch.run(50_000);
///
/// let mut scalar = Simulator::new(SimConfig::default())?;
/// assert_eq!(results[0], scalar.run(&mut profile.trace(7), 50_000));
/// # Ok::<(), powerbalance::Error>(())
/// ```
#[derive(Debug)]
pub struct BatchSimulator<T> {
    configs: Vec<SimConfig>,
    /// The original sibling index of each sibling, in result order: `0..K`
    /// until a split.
    siblings: Vec<usize>,
    /// One die per equivalence class; sibling `i` is member `i`.
    grid: Grid,
    /// One trace per die, in die order.
    traces: Vec<T>,
}

/// Whole classes split off a running [`BatchSimulator`] by
/// [`split_off`](BatchSimulator::split_off), packed to move to another
/// thread: their dies, their siblings' managers, the interval clock, and
/// their traces in [`Detach`]ed form.
pub struct BatchPart<T: Detach> {
    configs: Vec<SimConfig>,
    siblings: Vec<usize>,
    grid: Grid,
    traces: T::Detached,
}

impl<T: Detach> BatchPart<T> {
    /// Rebuilds the part as a batch on the current thread; it continues
    /// from the window boundary where it was split.
    #[must_use]
    pub fn attach(self) -> BatchSimulator<T> {
        let BatchPart { configs, siblings, grid, traces } = self;
        BatchSimulator { configs, siblings, grid, traces: T::attach(traces) }
    }
}

impl<T: TraceSource + Clone> Feed for Vec<T> {
    type Trace = T;

    fn dispatch(&mut self, grid: &mut Grid) -> bool {
        grid.dispatch_solo()
    }

    fn trace(&mut self, die: usize, _task: usize) -> &mut T {
        &mut self[die]
    }

    fn fork(&mut self, die: usize) {
        let trace = self[die].clone();
        self.push(trace);
    }
}

impl<T: TraceSource + Clone> BatchSimulator<T> {
    /// Builds a lockstep batch over `configs`, all consuming `trace`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `configs` is empty, any configuration
    /// is invalid or multi-core, or two siblings differ in
    /// [`structure`](SimConfig::structure).
    pub fn new(configs: Vec<SimConfig>, trace: T) -> Result<Self, Error> {
        let Some(first) = configs.first() else {
            return Err(Error::Config("a batch needs at least one sibling configuration".into()));
        };
        for (i, c) in configs.iter().enumerate() {
            c.validate()?;
            if let Some(field) = first.structural_difference(c) {
                return Err(Error::Config(format!(
                    "sibling {i} differs from sibling 0 outside `mitigation`: `{field}` \
                     differs, and lockstep siblings must simulate one machine"
                )));
            }
        }
        if first.cores != 1 {
            return Err(Error::Config(format!(
                "config requests {} cores; lockstep batches are single-core",
                first.cores
            )));
        }
        let mitigations: Vec<MitigationConfig> = configs.iter().map(|c| c.mitigation).collect();
        let grid = Grid::new(first, &mitigations)?;
        let siblings = (0..configs.len()).collect();
        Ok(BatchSimulator { configs, siblings, grid, traces: vec![trace] })
    }

    /// The sibling configurations, in result order.
    #[must_use]
    pub fn configs(&self) -> &[SimConfig] {
        &self.configs
    }

    /// The original sibling index of each result: `0..len()` for a batch
    /// built by [`new`](Self::new), the siblings it still holds after a
    /// [`split_off`](Self::split_off).
    #[must_use]
    pub fn siblings(&self) -> &[usize] {
        &self.siblings
    }

    /// Number of siblings in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the batch has no siblings (never true: construction
    /// requires at least one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Number of live equivalence classes: 1 while every sibling still
    /// shares the core, up to `len()` once fully diverged.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.grid.dies.len()
    }

    /// The mitigation manager deciding for sibling `i`.
    #[must_use]
    pub fn manager(&self, i: usize) -> &ThermalManager {
        self.grid.manager(i, 0)
    }

    /// Runs every sibling for up to `cycles` cycles (or until its trace
    /// drains) and returns the accumulated results in sibling order.
    pub fn run(&mut self, cycles: u64) -> Vec<RunResult> {
        self.run_controlled(cycles, &RunControl::unlimited()).0
    }

    /// Like [`run`](Self::run), but checks `control` between sampling
    /// windows — the whole batch stops together, so every sibling's
    /// partial statistics cover the same simulated span.
    pub fn run_controlled(
        &mut self,
        mut cycles: u64,
        control: &RunControl<'_>,
    ) -> (Vec<RunResult>, StopCause) {
        let cause = self.run_budget(&mut cycles, control);
        (self.results(), cause)
    }

    /// Like [`run_controlled`](Self::run_controlled), but runs up to
    /// `*cycles` cycles, leaves the unspent budget in `*cycles`, and
    /// assembles no results. A run paused by the idle probe
    /// ([`StopCause::WorkerIdle`]) resumes exactly by calling again with
    /// the budget left.
    pub fn run_budget(&mut self, cycles: &mut u64, control: &RunControl<'_>) -> StopCause {
        self.grid.drive(&mut self.traces, cycles, control, true)
    }

    /// Runs every sibling for up to `cycles` cycles **without consulting
    /// any manager** — the batched mirror of
    /// [`crate::Simulator::run_warmup`]. With no consults there is nothing
    /// to diverge on, so the batch stays a single class throughout.
    pub fn run_warmup(&mut self, cycles: u64) {
        let _ = self.run_warmup_controlled(cycles, &RunControl::unlimited());
    }

    /// Like [`run_warmup`](Self::run_warmup), but checks `control` between
    /// sampling windows.
    pub fn run_warmup_controlled(
        &mut self,
        mut cycles: u64,
        control: &RunControl<'_>,
    ) -> StopCause {
        self.grid.drive(&mut self.traces, &mut cycles, control, false)
    }

    /// Restores a warm-start snapshot into the (unforked) batch: the
    /// shared class adopts the simulator state and **every** sibling's
    /// manager adopts the snapshot's manager state — exactly what each
    /// scalar resume would do.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the batch has already forked or the
    /// state does not fit the shared simulator's shape.
    pub fn restore_state(&mut self, state: &SimulatorState) -> Result<(), Error> {
        if self.grid.dies.len() != 1 {
            return Err(Error::Config(
                "restore_state requires an unforked batch (call it before running)".into(),
            ));
        }
        self.grid.restore(state)
    }

    /// The accumulated results, in sibling order (see
    /// [`siblings`](Self::siblings)): each sibling reports its class's
    /// shared core/thermal statistics plus its *own* manager's mitigation
    /// counters.
    #[must_use]
    pub fn results(&self) -> Vec<RunResult> {
        (0..self.configs.len())
            .map(|m| {
                let die = self.grid.dies.iter().position(|d| d.members.contains(&m));
                self.grid.result(die.expect("every sibling rides one die"), 0, m)
            })
            .collect()
    }
}

impl<T: Detach + Clone> BatchSimulator<T> {
    /// Moves half of the classes, rounded down, into a [`BatchPart`] that
    /// another thread can [`attach`](BatchPart::attach) and run on;
    /// `None` with fewer than two classes.
    ///
    /// Call it between runs, that is at a window boundary. The donor keeps
    /// the classes whose traces are furthest behind and gives away the
    /// leading ones. A shared trace ring hands over its chunks from theirs
    /// on without copying them, which the donor's laggards still need
    /// anyway; only its partly filled last chunk is copied. Both halves
    /// then run the remaining budget on their own, and every sibling's
    /// result is the one the unsplit batch would have produced.
    pub fn split_off(&mut self) -> Option<BatchPart<T>> {
        let classes = self.grid.dies.len();
        if classes < 2 {
            return None;
        }
        let mut take: Vec<usize> = (0..classes).collect();
        take.sort_by_key(|&d| std::cmp::Reverse(self.traces[d].position()));
        take.truncate(classes / 2);
        take.sort_unstable();
        let (grid, moved) = self.grid.split_off(&take);
        let (kept, traces) = split_indices(std::mem::take(&mut self.traces), &take);
        self.traces = kept;
        let (kept, configs) = split_indices(std::mem::take(&mut self.configs), &moved);
        self.configs = kept;
        let (kept, siblings) = split_indices(std::mem::take(&mut self.siblings), &moved);
        self.siblings = kept;
        Some(BatchPart { configs, siblings, grid, traces: T::detach(traces) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, PolicyKind};
    use crate::SchedulerKind;
    use crate::{Fidelity, Simulator};
    use powerbalance_isa::TraceCursor;
    use powerbalance_thermal::ev6::FloorplanKind;
    use powerbalance_workloads::spec2000;

    fn scalar(cfg: &SimConfig, bench: &str, seed: u64, cycles: u64) -> RunResult {
        let mut sim = Simulator::new(cfg.clone()).expect("valid config");
        let mut trace = spec2000::by_name(bench).expect("profile").trace(seed);
        sim.run(&mut trace, cycles)
    }

    #[test]
    fn identical_siblings_share_one_class_and_match_scalar() {
        let configs = vec![SimConfig::default(); 3];
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let mut batch = BatchSimulator::new(configs, trace).expect("eligible");
        let results = batch.run(60_000);
        assert_eq!(batch.class_count(), 1, "baseline siblings never diverge");
        let reference = scalar(&SimConfig::default(), "gzip", 3, 60_000);
        for r in &results {
            assert_eq!(*r, reference, "batched result drifted from scalar");
        }
    }

    #[test]
    fn diverging_policies_fork_and_stay_bitwise_scalar_exact() {
        // "eon" on the issue-constrained floorplan trips within 1M cycles
        // (the recipe tests/techniques.rs relies on), so the policies
        // actually diverge and the fork path is exercised.
        let configs: Vec<SimConfig> =
            [PolicyKind::None, PolicyKind::Spatial, PolicyKind::FetchGate]
                .iter()
                .map(|k| experiments::policy(*k, FloorplanKind::IssueConstrained))
                .collect();
        let trace = TraceCursor::new(spec2000::by_name("eon").expect("profile").trace(42));
        let mut batch = BatchSimulator::new(configs.clone(), trace).expect("eligible");
        let results = batch.run(1_000_000);
        assert!(batch.class_count() > 1, "constrained floorplan must split the policies");
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(*r, scalar(cfg, "eon", 42, 1_000_000), "sibling drifted from scalar");
        }
    }

    #[test]
    fn diverging_policies_stay_bitwise_scalar_fast() {
        let make = |k: &PolicyKind| SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 20_000,
            ..experiments::policy(*k, FloorplanKind::AluConstrained)
        };
        let configs: Vec<SimConfig> = PolicyKind::ALL.iter().map(make).collect();
        let profile = spec2000::by_name("crafty").expect("profile");
        let mut batch = BatchSimulator::new(configs.clone(), profile.trace(5)).expect("eligible");
        let results = batch.run(300_000);
        for (cfg, r) in configs.iter().zip(&results) {
            assert_eq!(*r, scalar(cfg, "crafty", 5, 300_000), "sibling drifted from scalar");
        }
    }

    #[test]
    fn warmup_then_run_matches_scalar_warmup_then_run() {
        let configs = vec![
            experiments::policy(PolicyKind::FetchGate, FloorplanKind::IssueConstrained),
            experiments::policy(PolicyKind::None, FloorplanKind::IssueConstrained),
        ];
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let mut batch = BatchSimulator::new(configs.clone(), trace).expect("eligible");
        batch.run_warmup(40_000);
        assert_eq!(batch.class_count(), 1, "warmup never consults, so never forks");
        let results = batch.run(80_000);
        for (cfg, r) in configs.iter().zip(&results) {
            let mut sim = Simulator::new(cfg.clone()).expect("valid config");
            let mut trace = spec2000::by_name("gzip").expect("profile").trace(3);
            sim.run_warmup(&mut trace, 40_000);
            assert_eq!(*r, sim.run(&mut trace, 80_000), "warmup+run drifted from scalar");
        }
    }

    #[test]
    fn ineligible_siblings_are_rejected() {
        let fast = SimConfig { fidelity: Fidelity::Fast, ..SimConfig::default() };
        for (other, field) in [
            (
                SimConfig { floorplan: FloorplanKind::IssueConstrained, ..SimConfig::default() },
                "floorplan",
            ),
            (SimConfig { sample_interval: 20_000, ..SimConfig::default() }, "sample_interval"),
            (fast.clone(), "fidelity"),
        ] {
            let configs = vec![SimConfig::default(), other];
            let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
            let err = BatchSimulator::new(configs, trace).expect_err("structures differ");
            let msg = err.to_string();
            assert!(msg.contains("outside `mitigation`"), "{msg}");
            assert!(msg.contains(&format!("`{field}` differs")), "names {field}: {msg}");
        }
        let configs = vec![fast.clone(), SimConfig { fast_window: 400_000, ..fast }];
        let trace = spec2000::by_name("gzip").expect("profile").trace(3);
        let err = BatchSimulator::new(configs, trace).expect_err("macro windows differ");
        assert!(err.to_string().contains("`fast_window` differs"), "{err}");
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let err = BatchSimulator::<_>::new(vec![], trace).expect_err("empty batch");
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    #[test]
    fn structure_ignores_only_fields_the_engine_does_not_read() {
        let a = experiments::policy(PolicyKind::Dvfs, FloorplanKind::IssueConstrained);
        let b = experiments::policy(PolicyKind::Combined, FloorplanKind::IssueConstrained);
        assert_eq!(a.structure(), b.structure(), "mitigation is not structure");
        let c = experiments::policy(PolicyKind::Dvfs, FloorplanKind::AluConstrained);
        assert_ne!(a.structure(), c.structure());
        assert_eq!(a.structural_difference(&c), Some("floorplan"));

        // Exact never reads the interval engine's fields, and one core
        // places nothing.
        let exact = SimConfig { fast_window: 40_000, fast_warmup: 0, ..a.clone() };
        assert_eq!(exact.structure(), a.structure());
        let one_core = SimConfig { scheduler: SchedulerKind::Threshold, ..a.clone() };
        assert_eq!(one_core.structure(), a.structure());
        assert_eq!(exact.structural_difference(&one_core), None);

        // Under Fast they are the sampling cadence, and on several cores
        // the scheduler's word is captured state.
        let fast = SimConfig { fidelity: Fidelity::Fast, ..a.clone() };
        for (other, field) in [
            (SimConfig { fast_window: 40_000, ..fast.clone() }, "fast_window"),
            (SimConfig { fast_warmup: 0, ..fast.clone() }, "fast_warmup"),
            (SimConfig { mitigation: b.mitigation, ..a.clone() }, "fidelity"),
        ] {
            assert_ne!(fast.structure(), other.structure(), "{field}");
            assert_eq!(fast.structural_difference(&other), Some(field));
        }
        let two = SimConfig { cores: 2, ..a.clone() };
        let placed = SimConfig { scheduler: SchedulerKind::CoolestFirst, ..two.clone() };
        assert_ne!(two.structure(), placed.structure());
        assert_eq!(two.structural_difference(&placed), Some("scheduler"));
        assert_eq!(two.structural_difference(&a), Some("cores"));
    }

    #[test]
    fn only_a_forked_batch_splits_and_its_part_is_send() {
        fn send<T: Send>(_: &T) {}
        let configs: Vec<SimConfig> = [PolicyKind::None, PolicyKind::FetchGate]
            .iter()
            .map(|k| experiments::policy(*k, FloorplanKind::IssueConstrained))
            .collect();
        let trace = TraceCursor::new(spec2000::by_name("eon").expect("profile").trace(42));
        let mut batch = BatchSimulator::new(configs, trace).expect("eligible");
        assert!(batch.split_off().is_none(), "one class has nothing to give");
        batch.run(300_000);
        assert_eq!(batch.class_count(), 2, "the cell forks");
        let part = batch.split_off().expect("two classes split");
        send(&part);
        let part = part.attach();
        assert_eq!((batch.class_count(), batch.siblings()), (1, &[0][..]));
        assert_eq!((part.class_count(), part.siblings()), (1, &[1][..]));
    }

    #[test]
    fn controlled_cancel_stops_the_whole_batch_together() {
        use std::sync::atomic::AtomicBool;
        let configs = vec![SimConfig::default(); 2];
        let trace = TraceCursor::new(spec2000::by_name("gzip").expect("profile").trace(3));
        let mut batch = BatchSimulator::new(configs, trace).expect("eligible");
        let flag = AtomicBool::new(true);
        let control = RunControl::unlimited().with_cancel(&flag);
        let (results, cause) = batch.run_controlled(100_000, &control);
        assert_eq!(cause, StopCause::Cancelled);
        for r in &results {
            assert_eq!(r.cycles, 0, "cancel is checked before the first window");
        }
    }
}
