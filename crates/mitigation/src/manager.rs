//! The thermal manager: zones, the decision, and actuators wired together.
//!
//! The manager is a thin conductor over the three-layer split
//! (DESIGN.md §12): it resolves [`Zones`] from the sensors once, and on
//! every thermal sample runs the one pure decision rule
//! (`policy::decide`) to buffer [`Actuation`] commands, which the
//! executor ([`crate::actuators::apply`]) then translates into core
//! mutations and stat updates. The decision never touches the core.
//!
//! The two halves are separate calls — [`ThermalManager::decide`], then
//! [`ThermalManager::apply_decided`] — so the engine can compare the
//! commands of several managers before any of them actuates;
//! [`ThermalManager::on_sample`] runs both.

use crate::actuators::{self, Actuation};
use crate::policy::{self, CoreView, PolicyState};
use crate::zones::Zones;
use crate::{MitigationConfig, Sensors};
use powerbalance_uarch::{Core, IqActivity};
use serde::{Deserialize, Serialize};

/// The register-file shutdown threshold sits this many kelvin below the
/// critical temperature so writes can continue into a cooling copy (the
/// paper's first staleness solution, §2.3). Public so external invariant
/// checkers can mirror the manager's exact transition thresholds.
pub const RF_GUARD: f64 = 0.2;

/// Event counters for a run.
///
/// The global counters are left off the wire while zero, so spatial-only
/// runs keep the bytes they had before the global baselines existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MitigationStats {
    /// Issue-queue head/tail toggles (both domains).
    pub toggles: u64,
    /// Integer-queue toggles only.
    pub int_toggles: u64,
    /// Functional-unit turnoff events.
    pub alu_turnoffs: u64,
    /// Register-file copy turnoff events.
    pub rf_turnoffs: u64,
    /// Temporal (whole-core) stall events.
    pub freezes: u64,
    /// DVFS operating-point transitions.
    #[serde(omit_default)]
    pub opp_transitions: u64,
    /// Fetch-gate / clock-throttle duty-level changes.
    #[serde(omit_default)]
    pub duty_shifts: u64,
}

/// Serializable dynamic state of a [`ThermalManager`].
///
/// The configuration and zones are rebuilt from the simulation config at
/// construction time, so only the event counters, any in-progress
/// temporal stall, and the ladder position need to be captured for a
/// deterministic resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManagerState {
    /// Event counters accumulated so far.
    pub stats: MitigationStats,
    /// End cycle of an in-progress temporal stall, if any.
    pub frozen_until: Option<u64>,
    /// Ladder position and in-progress transition stall.
    pub policy: PolicyState,
}

/// Applies the configured techniques to a [`Core`] on every thermal sample.
///
/// Call [`on_sample`](ThermalManager::on_sample) with the current block
/// temperatures (indexed per the floorplan the [`Sensors`] were resolved
/// against) after each thermal-model step. The manager flips issue-queue
/// modes, disables/re-enables units and register-file copies, and freezes
/// the core for the cooling time when overheating exceeds what the enabled
/// spatial techniques can absorb.
///
/// # Examples
///
/// ```
/// use powerbalance_mitigation::{MitigationConfig, Sensors, ThermalManager};
/// use powerbalance_thermal::ev6;
/// use powerbalance_uarch::{Core, CoreConfig};
///
/// let plan = ev6::alu_constrained();
/// let sensors = Sensors::new(&plan).expect("ev6 names");
/// let mut manager = ThermalManager::new(MitigationConfig::alu_turnoff_only(), sensors);
/// let mut core = Core::new(CoreConfig::default()).expect("valid config");
/// let cool = vec![340.0; plan.blocks().len()];
/// let idle = powerbalance_uarch::IqActivity::default();
/// manager.on_sample(&mut core, &cool, 0, &idle, &idle);
/// assert!(!core.is_frozen());
/// ```
#[derive(Debug)]
pub struct ThermalManager {
    cfg: MitigationConfig,
    zones: Zones,
    stats: MitigationStats,
    frozen_until: Option<u64>,
    pstate: PolicyState,
    /// Persistent actuation buffer so the per-sample path stays
    /// allocation-free (DESIGN.md §9); the capacity covers the worst-case
    /// command count of one sample with headroom.
    actions: Vec<Actuation>,
}

impl ThermalManager {
    /// Creates a manager for `cfg` over the blocks `sensors` resolved.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (thresholds, ladders, trip tables).
    #[must_use]
    pub fn new(cfg: MitigationConfig, sensors: Sensors) -> Self {
        cfg.validate().expect("invalid mitigation config");
        let zones = Zones::new(&sensors, &cfg);
        ThermalManager {
            cfg,
            zones,
            stats: MitigationStats::default(),
            frozen_until: None,
            pstate: PolicyState::default(),
            actions: Vec::with_capacity(64),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MitigationConfig {
        &self.cfg
    }

    /// Event counters so far.
    #[must_use]
    pub fn stats(&self) -> &MitigationStats {
        &self.stats
    }

    /// The ladder position and in-progress transition stall.
    #[must_use]
    pub fn policy_state(&self) -> PolicyState {
        self.pstate
    }

    /// The factor by which every block's *dynamic* energy is scaled at the
    /// current operating point (`volt_scale²` under DVFS, exactly 1.0 for
    /// every other configuration — callers can use the 1.0 fast path).
    #[must_use]
    pub fn dynamic_power_scale(&self) -> f64 {
        policy::dynamic_power_scale(&self.cfg, &self.pstate)
    }

    /// Captures the manager's dynamic state.
    #[must_use]
    pub fn snapshot(&self) -> ManagerState {
        ManagerState { stats: self.stats, frozen_until: self.frozen_until, policy: self.pstate }
    }

    /// Restores dynamic state captured by [`snapshot`](Self::snapshot).
    ///
    /// The configuration and zones are untouched: a
    /// snapshot may be restored into a manager built with a *different*
    /// mitigation config (that is what lets warm-start campaigns share one
    /// warmup across technique variants). Ladder positions beyond the new
    /// config's ladder are clamped at use.
    pub fn restore(&mut self, state: &ManagerState) {
        self.stats = state.stats;
        self.frozen_until = state.frozen_until;
        self.pstate = state.policy;
    }

    /// Applies the techniques given the temperatures at cycle `now`.
    ///
    /// `temps` must be indexed like the floorplan used to build the
    /// [`Sensors`]. `int_iq`/`fp_iq` are the activity counters of the window
    /// that just ended; the toggling controller uses them to locate the
    /// compaction-active queue half (the tail region in the paper's
    /// full-queue regime).
    pub fn on_sample(
        &mut self,
        core: &mut Core,
        temps: &[f64],
        now: u64,
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
    ) {
        self.decide(core, temps, now, int_iq, fp_iq);
        self.apply_decided(core);
    }

    /// The decision half of [`on_sample`](Self::on_sample): runs the
    /// decision rule and buffers its commands, touching neither the core
    /// nor the manager's own dynamic state.
    ///
    /// The engine uses the split to evaluate every lockstep sibling's
    /// reaction against one shared core *before* committing any mutation:
    /// siblings whose decisions agree keep sharing the core, the rest
    /// fork. Calling [`apply_decided`](Self::apply_decided) next
    /// completes the sample; calling `decide` again discards the buffer.
    pub fn decide(
        &mut self,
        core: &Core,
        temps: &[f64],
        now: u64,
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
    ) {
        self.actions.clear();
        let view = CoreView { core, int_iq, fp_iq, now, frozen_until: self.frozen_until };
        policy::decide(&self.cfg, &self.zones, temps, &view, &self.pstate, &mut self.actions);
    }

    /// The commands buffered by the last [`decide`](Self::decide), in
    /// emission order.
    #[must_use]
    pub fn decided_actions(&self) -> &[Actuation] {
        &self.actions
    }

    /// The execution half of [`on_sample`](Self::on_sample): applies the
    /// buffered commands to `core` and folds their effects into the
    /// manager's stats, policy state, and freeze deadline.
    pub fn apply_decided(&mut self, core: &mut Core) {
        actuators::apply(
            core,
            &self.actions,
            &mut self.stats,
            &mut self.pstate,
            &mut self.frozen_until,
        );
    }

    /// The dynamic-power scale this manager will report *after* the
    /// buffered commands are applied ([`actuators::project`] of the
    /// decision), without applying anything.
    ///
    /// Two lockstep siblings that emit identical commands still diverge if
    /// their ladders map the commanded level to different voltage scales;
    /// the batch engine folds this value into its partition key.
    #[must_use]
    pub fn projected_power_scale(&self) -> f64 {
        let mut state = self.pstate;
        actuators::project(&self.actions, &mut state);
        policy::dynamic_power_scale(&self.cfg, &state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_isa::ExecDomain;
    use powerbalance_thermal::ev6;
    use powerbalance_uarch::{CoreConfig, IqMode, UnitKind};

    fn setup(
        cfg: MitigationConfig,
    ) -> (ThermalManager, Core, Vec<f64>, powerbalance_thermal::Floorplan) {
        let plan = ev6::baseline();
        let sensors = Sensors::new(&plan).expect("ev6 names");
        let manager = ThermalManager::new(cfg, sensors);
        let core = Core::new(CoreConfig::default()).expect("valid config");
        let temps = vec![340.0; plan.blocks().len()];
        (manager, core, temps, plan)
    }

    /// Activity with compaction concentrated in the given half, so the
    /// toggling controller sees that half as the active one.
    fn active_half(half: usize) -> IqActivity {
        let mut a = IqActivity::default();
        a.compact_moves[half] = 1000;
        a.mux_selects[half] = 1000;
        a
    }

    /// Convenience: sample with the top half active (the paper's tail-hot
    /// full-queue regime).
    fn sample(m: &mut ThermalManager, core: &mut Core, temps: &[f64], now: u64) {
        let act = active_half(1);
        m.on_sample(core, temps, now, &act, &act);
    }

    #[test]
    fn stats_wire_bytes_omit_only_zero_global_counters() {
        let spatial = MitigationStats {
            toggles: 1,
            int_toggles: 2,
            alu_turnoffs: 3,
            rf_turnoffs: 4,
            freezes: 5,
            ..MitigationStats::default()
        };
        let global = MitigationStats { opp_transitions: 6, duty_shifts: 7, ..spatial };
        let prefix =
            "{\"toggles\":1,\"int_toggles\":2,\"alu_turnoffs\":3,\"rf_turnoffs\":4,\"freezes\":5";
        for (stats, tail) in [(spatial, "}"), (global, ",\"opp_transitions\":6,\"duty_shifts\":7}")]
        {
            let json = serde::json::to_string(&stats);
            assert_eq!(json, format!("{prefix}{tail}"));
            assert_eq!(serde::json::from_str::<MitigationStats>(&json).unwrap(), stats);
        }
    }

    #[test]
    fn cool_chip_triggers_nothing() {
        let (mut m, mut core, temps, _) = setup(MitigationConfig::spatial_all());
        sample(&mut m, &mut core, &temps, 0);
        assert_eq!(*m.stats(), MitigationStats::default());
        assert!(!core.is_frozen());
    }

    #[test]
    fn toggling_flips_on_tail_head_delta() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::toggling_only());
        let q0 = plan.index_of("IntQ0").expect("block");
        let q1 = plan.index_of("IntQ1").expect("block");
        // Normal mode: tail is the top half (IntQ1). Make it hot and near
        // the thermal limit (toggles engage only within toggle_proximity).
        temps[q1] = 356.5;
        temps[q0] = 355.5;
        sample(&mut m, &mut core, &temps, 0);
        assert_eq!(core.iq_mode(ExecDomain::Int), IqMode::Toggled);
        assert_eq!(m.stats().int_toggles, 1);

        // After the toggle the compaction activity physically relocates to
        // the bottom half; once that half runs hot, toggle back.
        temps[q0] = 357.2;
        let act = active_half(0);
        m.on_sample(&mut core, &temps, 1, &act, &act);
        assert_eq!(core.iq_mode(ExecDomain::Int), IqMode::Normal);
        assert_eq!(m.stats().int_toggles, 2);
    }

    #[test]
    fn toggling_respects_threshold() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::toggling_only());
        let q1 = plan.index_of("IntQ1").expect("block");
        temps[q1] = 356.9; // near the limit, but only 0.4 K hotter
        temps[plan.index_of("IntQ0").expect("block")] = 356.5;
        sample(&mut m, &mut core, &temps, 0);
        assert_eq!(core.iq_mode(ExecDomain::Int), IqMode::Normal);
        assert_eq!(m.stats().toggles, 0);
    }

    #[test]
    fn alu_turnoff_disables_then_reenables_with_hysteresis() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::alu_turnoff_only());
        let a0 = plan.index_of("IntExec0").expect("block");
        temps[a0] = 358.0;
        sample(&mut m, &mut core, &temps, 0);
        assert!(!core.unit_enabled(UnitKind::IntAlu, 0));
        assert_eq!(m.stats().alu_turnoffs, 1);
        assert!(!core.is_frozen(), "other ALUs keep the core running");

        // Cooling to just under max is not enough (hysteresis).
        temps[a0] = 357.5;
        sample(&mut m, &mut core, &temps, 1);
        assert!(!core.unit_enabled(UnitKind::IntAlu, 0));

        temps[a0] = 356.9;
        sample(&mut m, &mut core, &temps, 2);
        assert!(core.unit_enabled(UnitKind::IntAlu, 0));
    }

    #[test]
    fn baseline_freezes_on_any_hot_alu() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::baseline());
        temps[plan.index_of("IntExec0").expect("block")] = 358.0;
        sample(&mut m, &mut core, &temps, 0);
        assert!(core.is_frozen());
        assert_eq!(m.stats().freezes, 1);
    }

    #[test]
    fn freeze_expires_after_cooling_time() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::baseline());
        temps[plan.index_of("IntExec0").expect("block")] = 358.0;
        sample(&mut m, &mut core, &temps, 0);
        assert!(core.is_frozen());
        // Still frozen mid-way.
        temps[plan.index_of("IntExec0").expect("block")] = 340.0;
        sample(&mut m, &mut core, &temps, 50_000);
        assert!(core.is_frozen());
        // Expired: thaw.
        sample(&mut m, &mut core, &temps, 105_001);
        assert!(!core.is_frozen());
        assert_eq!(m.stats().freezes, 1);
    }

    #[test]
    fn turnoff_avoids_freeze_until_all_units_hot() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::alu_turnoff_only());
        for i in 0..6 {
            temps[plan.index_of(&format!("IntExec{i}")).expect("block")] = 358.0;
        }
        sample(&mut m, &mut core, &temps, 0);
        assert_eq!(m.stats().alu_turnoffs, 6);
        assert!(core.is_frozen(), "all integer ALUs off forces the temporal stall");
    }

    #[test]
    fn rf_turnoff_switches_copies_and_freezes_only_when_both_off() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::rf_turnoff_only());
        let r0 = plan.index_of("IntReg0").expect("block");
        let r1 = plan.index_of("IntReg1").expect("block");
        temps[r0] = 357.9; // above max - RF_GUARD
        sample(&mut m, &mut core, &temps, 0);
        assert!(!core.rf_copy_enabled(0));
        assert!(core.rf_copy_enabled(1));
        assert!(!core.is_frozen());

        temps[r1] = 357.9;
        sample(&mut m, &mut core, &temps, 1);
        assert!(!core.rf_copy_enabled(1));
        assert!(core.is_frozen(), "both copies off forces the temporal stall");
        assert_eq!(m.stats().rf_turnoffs, 2);
    }

    #[test]
    fn stale_copy_solution_gates_writes_and_restores_on_reenable() {
        let mut cfg = MitigationConfig::rf_turnoff_only();
        cfg.rf_stale_copy = true;
        let (mut m, mut core, mut temps, plan) = setup(cfg);
        let r0 = plan.index_of("IntReg0").expect("block");
        temps[r0] = 358.0;
        sample(&mut m, &mut core, &temps, 0);
        assert!(!core.rf_copy_enabled(0));
        assert!(!core.rf_copy_writes_enabled(0), "writes gated while cooling");
        assert!(core.rf_copy_writes_enabled(1));

        temps[r0] = 356.5;
        sample(&mut m, &mut core, &temps, 1);
        assert!(core.rf_copy_enabled(0));
        assert!(core.rf_copy_writes_enabled(0), "writes restored after cooling");
        // The refresh burst was charged to the restored copy.
        let act = core.take_activity();
        assert!(
            act.int_rf_writes[0] >= u64::from(powerbalance_isa::INT_ARCH_REGS),
            "restore burst must be accounted: {:?}",
            act.int_rf_writes
        );
    }

    #[test]
    fn first_solution_keeps_writes_flowing() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::rf_turnoff_only());
        temps[plan.index_of("IntReg0").expect("block")] = 358.0;
        sample(&mut m, &mut core, &temps, 0);
        assert!(!core.rf_copy_enabled(0));
        assert!(core.rf_copy_writes_enabled(0), "solution 1: writes continue");
    }

    #[test]
    fn overheated_issue_queue_half_always_freezes() {
        // Even with toggling: halves cannot be turned off (§2.1.1).
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::toggling_only());
        temps[plan.index_of("IntQ1").expect("block")] = 358.2;
        sample(&mut m, &mut core, &temps, 0);
        assert!(core.is_frozen());
    }

    #[test]
    fn snapshot_restore_round_trips_mid_freeze() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::baseline());
        temps[plan.index_of("IntExec0").expect("block")] = 358.0;
        sample(&mut m, &mut core, &temps, 0);
        assert!(core.is_frozen());

        let state = m.snapshot();
        assert_eq!(state.stats.freezes, 1);
        assert!(state.frozen_until.is_some());

        // Serde round trip through the vendored JSON layer is lossless.
        let json = serde::json::to_string(&state);
        let back: ManagerState = serde::json::from_str(&json).expect("deserialize");
        assert_eq!(back, state);

        // A fresh manager restored from the snapshot keeps honouring the
        // in-progress stall and thaws at the same cycle as the original.
        let sensors = Sensors::new(&plan).expect("ev6 names");
        let mut fresh = ThermalManager::new(MitigationConfig::baseline(), sensors);
        fresh.restore(&back);
        let mut core2 = Core::new(CoreConfig::default()).expect("valid config");
        core2.set_frozen(true);
        temps[plan.index_of("IntExec0").expect("block")] = 340.0;
        sample(&mut fresh, &mut core2, &temps, 50_000);
        assert!(core2.is_frozen(), "restored stall still in effect");
        sample(&mut fresh, &mut core2, &temps, 105_001);
        assert!(!core2.is_frozen(), "restored stall expires on schedule");
        assert_eq!(fresh.stats().freezes, 1);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_opp_transition() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::dvfs());
        let a0 = plan.index_of("IntExec0").expect("block");
        temps[a0] = 356.6; // above the ladder's passive trip, below critical
        sample(&mut m, &mut core, &temps, 0);
        assert!(core.is_frozen(), "OPP transition stalls the core");

        // Captured mid-transition: the ladder position and the stall
        // deadline both survive the serde round trip bit-exactly.
        let state = m.snapshot();
        assert_eq!(state.stats.opp_transitions, 1);
        assert_eq!(state.stats.freezes, 0, "a transition stall is not a freeze");
        assert_eq!(state.policy.opp_level, 1);
        assert!(state.policy.stall_until.is_some());
        let json = serde::json::to_string(&state);
        let back: ManagerState = serde::json::from_str(&json).expect("deserialize");
        assert_eq!(back, state);

        // A fresh manager restored mid-transition finishes the stall on the
        // original schedule and keeps running at the reduced OPP.
        let sensors = Sensors::new(&plan).expect("ev6 names");
        let mut fresh = ThermalManager::new(MitigationConfig::dvfs(), sensors);
        fresh.restore(&back);
        assert!(fresh.dynamic_power_scale() < 1.0, "restored OPP scales dynamic power");
        let mut core2 = Core::new(CoreConfig::default()).expect("valid config");
        core2.set_frozen(true);
        temps[a0] = 340.0;
        sample(&mut fresh, &mut core2, &temps, 10_000);
        assert!(core2.is_frozen(), "restored transition stall still in effect");
        // Past the restored deadline the ladder relaxes — which is itself
        // a transition, with its own stall.
        sample(&mut fresh, &mut core2, &temps, 50_000);
        assert_eq!(fresh.policy_state().opp_level, 0, "cool temps relax the ladder");
        assert_eq!(fresh.stats().opp_transitions, 2);
        assert!(core2.is_frozen(), "relaxing the OPP stalls for the transition");
        sample(&mut fresh, &mut core2, &temps, 100_000);
        assert!(!core2.is_frozen(), "back at nominal, no further transitions");
        assert_eq!(fresh.dynamic_power_scale(), 1.0);
    }

    #[test]
    fn a_carried_over_transition_stall_ends_under_any_config() {
        // A DVFS transition stall restored into a manager without a ladder
        // (a warm snapshot shared across policies) still ends on schedule.
        let (mut dvfs, mut core, mut temps, plan) = setup(MitigationConfig::dvfs());
        temps[plan.index_of("IntExec0").expect("block")] = 356.6;
        sample(&mut dvfs, &mut core, &temps, 0);
        let state = dvfs.snapshot();
        let until = state.policy.stall_until.expect("a transition stall");

        let (mut spatial, _, cool, _) = setup(MitigationConfig::spatial_all());
        spatial.restore(&state);
        sample(&mut spatial, &mut core, &cool, until - 1);
        assert!(core.is_frozen(), "the stall holds until its deadline");
        sample(&mut spatial, &mut core, &cool, until);
        assert!(!core.is_frozen(), "the stall ends at its deadline");
        assert_eq!(spatial.policy_state().stall_until, None);
        assert_eq!(spatial.stats().freezes, 0, "a transition stall is not a freeze");
    }

    #[test]
    fn units_reenable_while_frozen() {
        let (mut m, mut core, mut temps, plan) = setup(MitigationConfig::alu_turnoff_only());
        for i in 0..6 {
            temps[plan.index_of(&format!("IntExec{i}")).expect("block")] = 358.0;
        }
        sample(&mut m, &mut core, &temps, 0);
        assert!(core.is_frozen());
        // Mid-freeze cooling brings units back online for the thaw.
        for i in 0..6 {
            temps[plan.index_of(&format!("IntExec{i}")).expect("block")] = 350.0;
        }
        sample(&mut m, &mut core, &temps, 10_000);
        assert!(core.unit_enabled(UnitKind::IntAlu, 0));
        assert!(core.is_frozen(), "freeze lasts the full cooling time");
    }
}
