//! Differential oracle and runtime invariant checkers.
//!
//! Every headline number in this reproduction rests on subtle
//! microarchitectural behaviour — compacting-queue age order, statically
//! prioritized select trees, turnoff-aware steering — that an optimization
//! bug could silently corrupt while still producing plausible-looking
//! temperatures. This crate makes those behaviours mechanically falsifiable
//! with three independent layers (DESIGN.md §10):
//!
//! * an **architectural oracle** (`oracle`): an in-order reference
//!   executor over the same fetched micro-op stream that cross-checks the
//!   out-of-order core's retired-instruction count, retirement order, and
//!   final architectural register/memory state (tracked as *last-writer
//!   identity*, since micro-ops carry no data values);
//! * **runtime invariant checkers** on the pipeline, mitigation, and
//!   thermal layers (`invariants`, `mitigation`, `thermal`): FIFO
//!   retirement, issue-queue occupancy accounting, compaction age order,
//!   select trees never granting busy or turned-off units, mitigation
//!   transitions matching an independent re-implementation of the manager's
//!   hysteresis rules, and the RC thermal network satisfying its own
//!   discretized heat equation every step;
//! * a **facade** ([`RuntimeChecker`]) that the simulator drives behind its
//!   `check` feature, collecting bounded [`Violation`] reports instead of
//!   panicking so a fuzzer can shrink and replay failures.
//!
//! The checkers deliberately depend only on the layer crates (`isa`,
//! `uarch`, `thermal`, `mitigation`) — never on `powerbalance` itself — so
//! the simulator can depend on them without a cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crosscore;
mod invariants;
mod mitigation;
mod oracle;
mod thermal;

use powerbalance_isa::MicroOp;
use powerbalance_mitigation::{MitigationConfig, ThermalManager};
use powerbalance_thermal::{Floorplan, ThermalModel};
use powerbalance_uarch::{Core, IqActivity};
use serde::{Deserialize, Serialize};

/// Which checker family produced a [`Violation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Architectural oracle: retirement order/count or final state diverged.
    Oracle,
    /// Issue-queue occupancy or insert/issue accounting inconsistency.
    IqAccounting,
    /// Compaction or insertion broke issue-queue age order.
    IqOrder,
    /// A select tree granted a busy, turned-off, or unusable unit.
    Select,
    /// A frozen core made forward progress.
    Frozen,
    /// A duty-cycle gate (fetch gating or clock throttling) was not honored.
    Duty,
    /// The mitigation manager diverged from its differential mirror.
    Mitigation,
    /// Thermal bounds or RC-network residual checks failed.
    Thermal,
    /// A multi-core die's per-core energy balance or lateral-coupling
    /// antisymmetry failed.
    CrossCoreEnergy,
}

/// One invariant failure, with enough context to diagnose it offline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Checker family.
    pub kind: ViolationKind,
    /// Core cycle at which the violation was detected.
    pub cycle: u64,
    /// Human-readable description with the observed and expected values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[cycle {}] {:?}: {}", self.cycle, self.kind, self.detail)
    }
}

/// How many violations are retained; later ones are dropped (one bad
/// invariant can otherwise flood memory on a long run).
const MAX_RETAINED: usize = 64;

/// Collects violations from the individual checkers.
#[derive(Debug, Default)]
pub(crate) struct Sink {
    violations: Vec<Violation>,
}

impl Sink {
    pub(crate) fn report(&mut self, kind: ViolationKind, cycle: u64, detail: String) {
        if self.violations.len() < MAX_RETAINED {
            self.violations.push(Violation { kind, cycle, detail });
        }
    }
}

/// The combined checker the simulator drives behind its `check` feature.
///
/// Lifecycle per simulated cycle: [`before_cycle`](Self::before_cycle),
/// the core's own `cycle()`, then [`after_cycle`](Self::after_cycle). Per
/// sampling window: [`check_thermal`](Self::check_thermal) after the
/// thermal step/settle, and [`before_sample`](Self::before_sample) /
/// [`after_sample`](Self::after_sample) bracketing the mitigation
/// consult (the manager's `decide` then `apply_decided`, which is what
/// `on_sample` runs). [`finish`](Self::finish) closes out the oracle.
///
/// Violations are collected, not panicked: a fuzz driver inspects
/// [`violations`](Self::violations) after the run and shrinks/replays.
#[derive(Debug)]
pub struct RuntimeChecker {
    sink: Sink,
    oracle: oracle::Oracle,
    core_watch: invariants::CoreWatch,
    mitigation_watch: mitigation::MitigationWatch,
    thermal_watch: thermal::ThermalWatch,
    /// Cross-core invariants; armed only on multi-core dies
    /// ([`enable_crosscore`](Self::enable_crosscore)).
    crosscore_watch: Option<crosscore::CrossCoreWatch>,
    // Scratch buffers for draining the core's op logs without allocating.
    fetched: Vec<MicroOp>,
    committed: Vec<(u64, MicroOp)>,
}

impl RuntimeChecker {
    /// Builds a checker against the given floorplan/mitigation config and
    /// the *current* state of the core and thermal model (so it can be
    /// enabled mid-run, e.g. after a warm-start restore).
    ///
    /// The caller must also call `Core::enable_op_log` so the oracle sees
    /// the fetch/retire streams.
    ///
    /// # Errors
    ///
    /// Returns an error if the floorplan lacks the sensor blocks the
    /// mitigation mirror needs.
    pub fn new(
        plan: &Floorplan,
        mitigation: &MitigationConfig,
        core: &Core,
        thermal: &ThermalModel,
    ) -> Result<Self, String> {
        Ok(RuntimeChecker {
            sink: Sink::default(),
            oracle: oracle::Oracle::new(core),
            core_watch: invariants::CoreWatch::new(core),
            mitigation_watch: mitigation::MitigationWatch::new(plan, mitigation)?,
            thermal_watch: thermal::ThermalWatch::new(thermal),
            crosscore_watch: None,
            fetched: Vec::new(),
            committed: Vec::new(),
        })
    }

    /// Arms the cross-core invariants for a multi-core die of `cores`
    /// copies of a `blocks`-block floorplan (nodes core-major). Checks
    /// the static conductance symmetry immediately and the per-core
    /// energy balance plus lateral-flow antisymmetry on every subsequent
    /// [`check_thermal`](Self::check_thermal).
    pub fn enable_crosscore(&mut self, cores: usize, blocks: usize, thermal: &ThermalModel) {
        self.crosscore_watch =
            Some(crosscore::CrossCoreWatch::new(cores, blocks, thermal, &mut self.sink));
    }

    /// Captures the pre-cycle boundary state the invariants compare against.
    pub fn before_cycle(&mut self, core: &Core) {
        self.core_watch.before_cycle(core);
    }

    /// Drains the op logs into the oracle and runs the per-cycle pipeline
    /// invariants against the boundary captured by
    /// [`before_cycle`](Self::before_cycle).
    pub fn after_cycle(&mut self, core: &mut Core) {
        self.fetched.clear();
        self.committed.clear();
        core.drain_op_log_into(&mut self.fetched, &mut self.committed);
        let cycle = core.stats().cycles;
        self.oracle.on_cycle(cycle, &self.fetched, &self.committed, &mut self.sink);
        self.core_watch.after_cycle(core, &mut self.sink);
    }

    /// Captures the pre-sample manager/core state for the mitigation mirror.
    pub fn before_sample(&mut self, core: &Core, manager: &ThermalManager) {
        self.mitigation_watch.before_sample(core, manager);
    }

    /// Replays the manager's decision rules on the captured pre-state and
    /// compares every post-sample effect (modes, enables, freeze, stats).
    pub fn after_sample(
        &mut self,
        core: &Core,
        manager: &ThermalManager,
        temps: &[f64],
        now: u64,
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
    ) {
        self.mitigation_watch.after_sample(
            core,
            manager,
            temps,
            now,
            int_iq,
            fp_iq,
            &mut self.sink,
        );
    }

    /// Verifies the thermal solve that just ran: bounds, the backward-Euler
    /// step residual (or the steady-state residual when `settled`), and
    /// the package-level energy balance.
    pub fn check_thermal(
        &mut self,
        model: &ThermalModel,
        watts: &[f64],
        dt: f64,
        settled: bool,
        now: u64,
    ) {
        self.thermal_watch.check(model, watts, dt, settled, now, &mut self.sink);
        if let Some(crosscore) = &mut self.crosscore_watch {
            crosscore.check(model, watts, dt, settled, now, &mut self.sink);
        }
    }

    /// Re-bases the thermal watch on the model's current state after a
    /// closed-form advance (the interval engine's skipped sub-intervals),
    /// which the backward-Euler residual deliberately does not cover.
    pub fn resync_thermal(&mut self, model: &ThermalModel) {
        self.thermal_watch.resync(model);
        if let Some(crosscore) = &mut self.crosscore_watch {
            crosscore.resync(model);
        }
    }

    /// Closes out the oracle: end-of-run retirement counts and the final
    /// architectural-state comparison.
    pub fn finish(&mut self, core: &Core) {
        self.oracle.finish(core, &mut self.sink);
    }

    /// The retained violations (at most 64), in detection order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.sink.violations
    }
}
