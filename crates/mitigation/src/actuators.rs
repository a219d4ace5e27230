//! Cooling-device actuators: typed commands and the executor that applies
//! them.
//!
//! The decision rule never touches microarchitectural state directly. It
//! emits [`Actuation`] commands into a buffer and the manager's executor
//! ([`apply`]) translates each command into the corresponding [`Core`]
//! mutation, updating [`MitigationStats`] and the manager-held
//! [`PolicyState`]. This keeps the decision a pure function of (config,
//! zones, temperatures, core view, policy state) — which is what lets
//! `powerbalance-check` mirror it differentially — and concentrates every
//! side effect in one place.

use crate::{MitigationStats, PolicyState};
use powerbalance_isa::ExecDomain;
use powerbalance_uarch::{Core, DutyCycle, UnitKind};

/// One typed command from the thermal decision to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actuation {
    /// Flip the named issue queue between conventional and toggled mode.
    ToggleIq {
        /// Which issue queue to toggle.
        domain: ExecDomain,
    },
    /// Enable or disable one functional unit (busy-mark it for select).
    SetUnitEnabled {
        /// Unit class.
        kind: UnitKind,
        /// Index within the class.
        index: usize,
        /// Desired state.
        enabled: bool,
    },
    /// Shut off a register-file copy; optionally gate writes into it
    /// (staleness solution 2).
    DisableRfCopy {
        /// Which copy.
        copy: usize,
        /// Also gate writes (the stale-copy solution).
        gate_writes: bool,
    },
    /// Bring a register-file copy back; optionally charge the catch-up
    /// restore traffic (staleness solution 2).
    EnableRfCopy {
        /// Which copy.
        copy: usize,
        /// Re-enable writes and charge the restore burst.
        restore: bool,
    },
    /// Temporal backstop: freeze the whole core until the given cycle.
    Freeze {
        /// Cycle at which the freeze expires.
        until: u64,
    },
    /// DVFS operating-point transition: pick a new ladder level and apply
    /// its frequency duty to the core clock.
    SetOpp {
        /// New ladder level (0 = nominal).
        level: usize,
        /// Clock duty implementing the level's frequency scale.
        duty: DutyCycle,
    },
    /// Stall the core while a DVFS transition settles (counted separately
    /// from thermal freezes).
    Stall {
        /// Cycle at which the transition completes.
        until: u64,
    },
    /// Set the front-end fetch-gating level.
    SetFetchDuty {
        /// New ladder level (0 = ungated).
        level: usize,
        /// Fetch duty cycle for that level.
        duty: DutyCycle,
    },
    /// Set the global clock-throttle level.
    SetClockDuty {
        /// New ladder level (0 = full speed).
        level: usize,
        /// Clock duty cycle for that level.
        duty: DutyCycle,
    },
    /// Clear an expired freeze or transition stall and resume the core.
    Unfreeze,
}

/// Applies `actions` in emission order.
///
/// Returns nothing; all effects land in `core`, `stats`, `state`, and
/// `frozen_until`. Stats accounting matches the historical manager:
/// a queue toggle counts once (twice nothing — `int_toggles` sub-counts
/// integer-side toggles), only *disables* count as turnoffs, and thermal
/// freezes are counted separately from DVFS transition stalls.
pub fn apply(
    core: &mut Core,
    actions: &[Actuation],
    stats: &mut MitigationStats,
    state: &mut PolicyState,
    frozen_until: &mut Option<u64>,
) {
    for &action in actions {
        step_state(action, state);
        match action {
            Actuation::ToggleIq { domain } => {
                let mode = core.iq_mode(domain);
                core.set_iq_mode(domain, mode.flipped());
                stats.toggles += 1;
                if domain == ExecDomain::Int {
                    stats.int_toggles += 1;
                }
            }
            Actuation::SetUnitEnabled { kind, index, enabled } => {
                core.set_unit_enabled(kind, index, enabled);
                if !enabled {
                    stats.alu_turnoffs += 1;
                }
            }
            Actuation::DisableRfCopy { copy, gate_writes } => {
                core.set_rf_copy_enabled(copy, false);
                if gate_writes {
                    core.set_rf_copy_writes_enabled(copy, false);
                }
                stats.rf_turnoffs += 1;
            }
            Actuation::EnableRfCopy { copy, restore } => {
                core.set_rf_copy_enabled(copy, true);
                if restore {
                    core.set_rf_copy_writes_enabled(copy, true);
                    core.charge_rf_copy_restore(copy);
                }
            }
            Actuation::Freeze { until } => {
                core.set_frozen(true);
                *frozen_until = Some(until);
                stats.freezes += 1;
            }
            Actuation::SetOpp { duty, .. } => {
                core.set_clock_duty(duty);
                stats.opp_transitions += 1;
            }
            Actuation::Stall { .. } => core.set_frozen(true),
            Actuation::SetFetchDuty { duty, .. } => {
                core.set_fetch_duty(duty);
                stats.duty_shifts += 1;
            }
            Actuation::SetClockDuty { duty, .. } => {
                core.set_clock_duty(duty);
                stats.duty_shifts += 1;
            }
            Actuation::Unfreeze => {
                core.set_frozen(false);
                *frozen_until = None;
            }
        }
    }
}

/// Projects the [`PolicyState`] effects of `actions` without touching a
/// core, stats, or the freeze deadline — the pure subset of [`apply`].
///
/// The batched campaign engine partitions lockstep siblings by what their
/// next consult will do; two siblings that emit identical commands can
/// still diverge next window if those commands land them on *different
/// ladders* (a `SetOpp` carries a level, not a voltage — the volt scale
/// lives in each config's ladder). Projecting the post-apply state lets
/// the engine compute each sibling's next-window dynamic-power scale
/// before deciding whether to fork. [`apply`] runs the same per-action
/// step, so the two cannot drift apart.
pub fn project(actions: &[Actuation], state: &mut PolicyState) {
    for &action in actions {
        step_state(action, state);
    }
}

/// The [`PolicyState`] effect of one action, shared by [`apply`] and
/// [`project`].
fn step_state(action: Actuation, state: &mut PolicyState) {
    match action {
        Actuation::SetOpp { level, .. } => state.opp_level = level,
        Actuation::Stall { until } => state.stall_until = Some(until),
        Actuation::SetFetchDuty { level, .. } | Actuation::SetClockDuty { level, .. } => {
            state.gate_level = level;
        }
        Actuation::Unfreeze => state.stall_until = None,
        Actuation::ToggleIq { .. }
        | Actuation::SetUnitEnabled { .. }
        | Actuation::DisableRfCopy { .. }
        | Actuation::EnableRfCopy { .. }
        | Actuation::Freeze { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_uarch::{CoreConfig, IqMode};

    fn ctx() -> (Core, MitigationStats, PolicyState, Option<u64>) {
        let core = Core::new(CoreConfig::default()).expect("valid config");
        (core, MitigationStats::default(), PolicyState::default(), None)
    }

    #[test]
    fn toggle_counts_int_side_separately() {
        let (mut core, mut stats, mut state, mut frozen) = ctx();
        apply(
            &mut core,
            &[
                Actuation::ToggleIq { domain: ExecDomain::Int },
                Actuation::ToggleIq { domain: ExecDomain::Fp },
            ],
            &mut stats,
            &mut state,
            &mut frozen,
        );
        assert_eq!(core.iq_mode(ExecDomain::Int), IqMode::Toggled);
        assert_eq!(core.iq_mode(ExecDomain::Fp), IqMode::Toggled);
        assert_eq!(stats.toggles, 2);
        assert_eq!(stats.int_toggles, 1);
    }

    #[test]
    fn only_disables_count_as_turnoffs() {
        let (mut core, mut stats, mut state, mut frozen) = ctx();
        apply(
            &mut core,
            &[
                Actuation::SetUnitEnabled { kind: UnitKind::IntAlu, index: 2, enabled: false },
                Actuation::SetUnitEnabled { kind: UnitKind::IntAlu, index: 2, enabled: true },
                Actuation::DisableRfCopy { copy: 1, gate_writes: false },
                Actuation::EnableRfCopy { copy: 1, restore: false },
            ],
            &mut stats,
            &mut state,
            &mut frozen,
        );
        assert_eq!(stats.alu_turnoffs, 1);
        assert_eq!(stats.rf_turnoffs, 1);
        assert!(core.unit_enabled(UnitKind::IntAlu, 2));
        assert!(core.rf_copy_enabled(1));
    }

    #[test]
    fn freeze_and_stall_are_counted_apart() {
        let (mut core, mut stats, mut state, mut frozen) = ctx();
        apply(&mut core, &[Actuation::Freeze { until: 500 }], &mut stats, &mut state, &mut frozen);
        assert_eq!(frozen, Some(500));
        assert_eq!(stats.freezes, 1);
        apply(&mut core, &[Actuation::Unfreeze], &mut stats, &mut state, &mut frozen);
        assert_eq!(frozen, None);

        apply(
            &mut core,
            &[
                Actuation::SetOpp { level: 1, duty: DutyCycle::new(3, 4) },
                Actuation::Stall { until: 900 },
            ],
            &mut stats,
            &mut state,
            &mut frozen,
        );
        assert_eq!(state.opp_level, 1);
        assert_eq!(state.stall_until, Some(900));
        assert_eq!(core.clock_duty(), DutyCycle::new(3, 4));
        assert_eq!(stats.opp_transitions, 1);
        assert_eq!(stats.freezes, 1, "transition stalls are not thermal freezes");
    }

    #[test]
    fn project_matches_apply_on_policy_state() {
        // Every action kind at least once, in an order that exercises
        // overwrites: project must land on the exact state apply does.
        let actions = [
            Actuation::ToggleIq { domain: ExecDomain::Int },
            Actuation::SetUnitEnabled { kind: UnitKind::IntAlu, index: 1, enabled: false },
            Actuation::DisableRfCopy { copy: 0, gate_writes: true },
            Actuation::EnableRfCopy { copy: 0, restore: true },
            Actuation::Freeze { until: 77 },
            Actuation::SetOpp { level: 2, duty: DutyCycle::new(1, 2) },
            Actuation::Stall { until: 1234 },
            Actuation::SetFetchDuty { level: 3, duty: DutyCycle::new(1, 4) },
            Actuation::SetClockDuty { level: 1, duty: DutyCycle::new(3, 4) },
            Actuation::Unfreeze,
            Actuation::SetOpp { level: 1, duty: DutyCycle::new(3, 4) },
        ];
        let (mut core, mut stats, mut applied, mut frozen) = ctx();
        apply(&mut core, &actions, &mut stats, &mut applied, &mut frozen);
        let mut projected = PolicyState::default();
        project(&actions, &mut projected);
        assert_eq!(projected, applied, "project drifted from apply");
    }

    #[test]
    fn duty_actuations_update_level_and_core() {
        let (mut core, mut stats, mut state, mut frozen) = ctx();
        apply(
            &mut core,
            &[Actuation::SetFetchDuty { level: 2, duty: DutyCycle::new(1, 2) }],
            &mut stats,
            &mut state,
            &mut frozen,
        );
        assert_eq!(core.fetch_duty(), DutyCycle::new(1, 2));
        assert_eq!(state.gate_level, 2);
        assert_eq!(stats.duty_shifts, 1);
    }
}
