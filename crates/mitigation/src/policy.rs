//! The thermal decision: one pure function between the zone layer and the
//! actuator layer.
//!
//! [`decide`] looks at the [`MitigationConfig`], the [`Zones`], the
//! current temperatures, a read-only [`CoreView`], and the manager-held
//! [`PolicyState`], and emits [`Actuation`] commands. It holds **no
//! state of its own** — everything dynamic lives in [`PolicyState`]
//! (snapshotted with the manager) and is advanced by the executor. The
//! same inputs give the same commands, which is what lets the
//! differential checker in `powerbalance-check` mirror the rule decision
//! for decision.
//!
//! Every configuration runs the same four steps: the spatial techniques
//! are no-ops with their flags off, and the ladder step is a no-op
//! without a global policy. So the temporal-only baseline, the paper's
//! three spatial techniques, the §5 global ladders (DVFS, fetch gating,
//! clock throttling) and spatial-plus-ladder combinations are one rule
//! with different data.

use crate::actuators::Actuation;
use crate::zones::{ThermalZone, TripSeverity, Zones};
use crate::{DvfsParams, GateParams, GlobalPolicy, MitigationConfig};
use powerbalance_isa::ExecDomain;
use powerbalance_uarch::{Core, IqActivity, UnitKind};
use serde::{Deserialize, Serialize};

/// Upper bound on functional units per class the decision tracks on the
/// stack (the EV6-style floorplans have 6 integer ALUs and 4 FP adders).
const MAX_UNITS: usize = 8;

/// Dynamic policy state, owned by the manager and advanced by the
/// actuator executor. Snapshotting this (plus the stats and freeze state)
/// is sufficient for a bit-exact resume under any configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyState {
    /// Current DVFS ladder level (0 = nominal).
    pub opp_level: usize,
    /// End cycle of an in-progress DVFS transition stall, if any.
    pub stall_until: Option<u64>,
    /// Current duty-ladder level for fetch gating / clock throttling
    /// (0 = ungated).
    pub gate_level: usize,
}

/// Read-only view of the core the decision is made against.
pub(crate) struct CoreView<'a> {
    /// The core, pre-sample.
    pub(crate) core: &'a Core,
    /// Integer issue-queue activity of the window that just ended.
    pub(crate) int_iq: &'a IqActivity,
    /// FP issue-queue activity of the window that just ended.
    pub(crate) fp_iq: &'a IqActivity,
    /// Current cycle.
    pub(crate) now: u64,
    /// End cycle of an in-progress thermal freeze, if any.
    pub(crate) frozen_until: Option<u64>,
}

/// Emits the actuations for one thermal sample.
///
/// 1. While a freeze or a DVFS transition stall is in effect, only cooled
///    units and copies come back online; once the later deadline has
///    passed, [`Actuation::Unfreeze`] resumes the core.
/// 2. The spatial techniques: toggling, unit turnoff, register-file copy
///    turnoff.
/// 3. The temporal backstop freezes the core when the global policy's
///    own critical point trips, or when the predicted post-technique state
///    cannot absorb the heat. A pure ladder (a global policy with no
///    spatial technique) skips the second test: its baseline reacts to
///    the hottest zone only. A freeze sample takes no ladder step.
/// 4. One ladder step off the hottest zone.
pub(crate) fn decide(
    cfg: &MitigationConfig,
    zones: &Zones,
    temps: &[f64],
    view: &CoreView<'_>,
    state: &PolicyState,
    out: &mut Vec<Actuation>,
) {
    if handle_frozen(view, state, out) {
        reenable_cooled(cfg, zones, temps, view.core, out);
        return;
    }
    let pred = decide_techniques(cfg, zones, temps, view, out);
    let hottest = zones.hottest(temps);
    let spatial = cfg.activity_toggling || cfg.alu_turnoff || cfg.rf_turnoff;
    let pure_ladder = cfg.global != GlobalPolicy::None && !spatial;
    if critical_tripped(&cfg.global, hottest)
        || (!pure_ladder && needs_freeze(cfg, zones, temps, &pred))
    {
        out.push(Actuation::Freeze { until: view.now + cfg.thresholds.cooling_cycles });
        return;
    }
    match &cfg.global {
        GlobalPolicy::None => {}
        GlobalPolicy::Dvfs(p) => dvfs_step(p, hottest, view.now, state, out),
        GlobalPolicy::FetchGate(p) => gate_step(p, false, hottest, state, out),
        GlobalPolicy::ClockThrottle(p) => gate_step(p, true, hottest, state, out),
    }
}

/// The factor by which every block's *dynamic* energy is scaled at the
/// operating point `state` holds (`volt_scale²` under DVFS, 1.0 otherwise).
pub(crate) fn dynamic_power_scale(cfg: &MitigationConfig, state: &PolicyState) -> f64 {
    match &cfg.global {
        GlobalPolicy::Dvfs(p) => p.ladder.level(state.opp_level).dynamic_scale(),
        _ => 1.0,
    }
}

/// Predicted post-sample enable state, so the freeze decision sees the
/// world as it will be once this sample's turnoffs are applied.
struct Predicted {
    int_alus: [bool; MAX_UNITS],
    fp_adders: [bool; MAX_UNITS],
    rf: [bool; 2],
}

impl Predicted {
    /// Reads are gated on the technique flags: with `alu_turnoff` (or
    /// `rf_turnoff`) off the core may legitimately have fewer units (or
    /// copies) than the floorplan has sensor blocks, and the ungated
    /// freeze decision only looks at temperatures anyway.
    fn from_core(core: &Core, zones: &Zones, cfg: &MitigationConfig) -> Self {
        assert!(zones.int_alus.len() <= MAX_UNITS && zones.fp_adders.len() <= MAX_UNITS);
        let mut p =
            Predicted { int_alus: [true; MAX_UNITS], fp_adders: [true; MAX_UNITS], rf: [true; 2] };
        if cfg.alu_turnoff {
            for i in 0..zones.int_alus.len() {
                p.int_alus[i] = core.unit_enabled(UnitKind::IntAlu, i);
            }
            for i in 0..zones.fp_adders.len() {
                p.fp_adders[i] = core.unit_enabled(UnitKind::FpAdd, i);
            }
        }
        if cfg.rf_turnoff {
            for c in 0..2 {
                p.rf[c] = core.rf_copy_enabled(c);
            }
        }
        p
    }
}

/// The spatial techniques: toggling, unit turnoff, register-file copy
/// turnoff, each emitting nothing with its flag off. Returns the predicted
/// enable state for the freeze decision.
fn decide_techniques(
    cfg: &MitigationConfig,
    zones: &Zones,
    temps: &[f64],
    view: &CoreView<'_>,
    out: &mut Vec<Actuation>,
) -> Predicted {
    let th = cfg.thresholds;
    let mut pred = Predicted::from_core(view.core, zones, cfg);

    // Activity toggling: flip head/tail when the compaction-active half
    // is inside the passive band and hotter than the quiet half by more
    // than the toggle threshold.
    if cfg.activity_toggling {
        for (domain, q, act) in [
            (ExecDomain::Int, &zones.int_q, view.int_iq),
            (ExecDomain::Fp, &zones.fp_q, view.fp_iq),
        ] {
            let moves = [
                act.compact_moves[0] + act.mux_selects[0],
                act.compact_moves[1] + act.mux_selects[1],
            ];
            if moves[0] + moves[1] == 0 {
                continue; // idle queue: nothing to balance
            }
            let active = usize::from(moves[1] > moves[0]);
            let quiet = 1 - active;
            let passive = q[active].trips.as_slice()[0];
            if q[active].temp(temps) >= passive.temp
                && q[active].temp(temps) - q[quiet].temp(temps) > th.toggle_delta
            {
                out.push(Actuation::ToggleIq { domain });
            }
        }
    }

    // Fine-grain turnoff for functional units, walking integer ALUs, FP
    // adders, then the multiplier.
    if cfg.alu_turnoff {
        let n_int = zones.int_alus.len();
        let n_fp = zones.fp_adders.len();
        // The multiplier's enable state never feeds the freeze decision,
        // so a local suffices for its prediction.
        let mut mul_enabled = view.core.unit_enabled(UnitKind::FpMul, 0);
        for i in 0..n_int + n_fp + 1 {
            let (kind, idx, zone, enabled) = if i < n_int {
                (UnitKind::IntAlu, i, &zones.int_alus[i], &mut pred.int_alus[i])
            } else if i < n_int + n_fp {
                let j = i - n_int;
                (UnitKind::FpAdd, j, &zones.fp_adders[j], &mut pred.fp_adders[j])
            } else {
                (UnitKind::FpMul, 0, &zones.fp_mul, &mut mul_enabled)
            };
            let hot = zone.trips.as_slice()[0];
            let t = zone.temp(temps);
            if *enabled {
                if t >= hot.temp {
                    out.push(Actuation::SetUnitEnabled { kind, index: idx, enabled: false });
                    *enabled = false;
                }
            } else if t <= hot.clear_temp {
                out.push(Actuation::SetUnitEnabled { kind, index: idx, enabled: true });
                *enabled = true;
            }
        }
    }

    // Register-file copy turnoff per the configured staleness solution.
    if cfg.rf_turnoff {
        for (copy, zone) in zones.int_reg.iter().enumerate() {
            let hot = zone.trips.as_slice()[0];
            let t = zone.temp(temps);
            if pred.rf[copy] {
                if t >= hot.temp {
                    out.push(Actuation::DisableRfCopy { copy, gate_writes: cfg.rf_stale_copy });
                    pred.rf[copy] = false;
                }
            } else if t <= hot.clear_temp {
                out.push(Actuation::EnableRfCopy { copy, restore: cfg.rf_stale_copy });
                pred.rf[copy] = true;
            }
        }
    }

    pred
}

/// Does the predicted post-sample state force a temporal stall?
fn needs_freeze(cfg: &MitigationConfig, zones: &Zones, temps: &[f64], pred: &Predicted) -> bool {
    // Issue-queue halves cannot be turned off individually: any critical
    // half forces a stall, toggling or not.
    for z in zones.int_q.iter().chain(zones.fp_q.iter()) {
        if z.trips.tripped(TripSeverity::Critical, z.temp(temps)) {
            return true;
        }
    }

    if cfg.alu_turnoff {
        // Stall only when an entire unit class is turned off.
        let all_int_off = (0..zones.int_alus.len()).all(|i| !pred.int_alus[i]);
        let all_fp_off = (0..zones.fp_adders.len()).all(|i| !pred.fp_adders[i]);
        if all_int_off || all_fp_off {
            return true;
        }
    } else {
        for z in zones.int_alus.iter().chain(zones.fp_adders.iter()) {
            if z.trips.tripped(TripSeverity::Critical, z.temp(temps)) {
                return true;
            }
        }
        if zones.fp_mul.trips.tripped(TripSeverity::Critical, zones.fp_mul.temp(temps)) {
            return true;
        }
    }

    if cfg.rf_turnoff {
        if pred.rf.iter().all(|&on| !on) {
            return true;
        }
    } else {
        for z in &zones.int_reg {
            if z.trips.tripped(TripSeverity::Critical, z.temp(temps)) {
                return true;
            }
        }
    }

    false
}

/// While frozen, cooled units and copies come back online so the thaw
/// resumes at full width.
fn reenable_cooled(
    cfg: &MitigationConfig,
    zones: &Zones,
    temps: &[f64],
    core: &Core,
    out: &mut Vec<Actuation>,
) {
    let cooled = |z: &ThermalZone| z.temp(temps) <= z.trips.as_slice()[0].clear_temp;
    if cfg.alu_turnoff {
        for (i, z) in zones.int_alus.iter().enumerate() {
            if !core.unit_enabled(UnitKind::IntAlu, i) && cooled(z) {
                out.push(Actuation::SetUnitEnabled {
                    kind: UnitKind::IntAlu,
                    index: i,
                    enabled: true,
                });
            }
        }
        for (i, z) in zones.fp_adders.iter().enumerate() {
            if !core.unit_enabled(UnitKind::FpAdd, i) && cooled(z) {
                out.push(Actuation::SetUnitEnabled {
                    kind: UnitKind::FpAdd,
                    index: i,
                    enabled: true,
                });
            }
        }
        if !core.unit_enabled(UnitKind::FpMul, 0) && cooled(&zones.fp_mul) {
            out.push(Actuation::SetUnitEnabled { kind: UnitKind::FpMul, index: 0, enabled: true });
        }
    }
    if cfg.rf_turnoff {
        for (copy, z) in zones.int_reg.iter().enumerate() {
            if !core.rf_copy_enabled(copy) && cooled(z) {
                out.push(Actuation::EnableRfCopy { copy, restore: cfg.rf_stale_copy });
            }
        }
    }
}

/// Returns `true` when the caller should only re-enable cooled resources
/// because a freeze or transition stall is still in effect; pushes
/// [`Actuation::Unfreeze`] when the later of the two just expired.
fn handle_frozen(view: &CoreView<'_>, state: &PolicyState, out: &mut Vec<Actuation>) -> bool {
    let until = match (view.frozen_until, state.stall_until) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    if let Some(u) = until {
        if view.now < u {
            return true;
        }
        out.push(Actuation::Unfreeze);
    }
    false
}

/// One ladder step for the DVFS baseline: step down when any non-critical
/// point is tripped, step back up once every point has cleared. Each step
/// costs a full transition stall.
fn dvfs_step(
    p: &DvfsParams,
    hottest: f64,
    now: u64,
    state: &PolicyState,
    out: &mut Vec<Actuation>,
) {
    if p.trips.highest_tripped(hottest).is_some() {
        if state.opp_level + 1 < p.ladder.len() {
            let level = state.opp_level + 1;
            out.push(Actuation::SetOpp { level, duty: p.ladder.level(level).duty });
            out.push(Actuation::Stall { until: now + p.transition_cycles });
        }
    } else if p.trips.all_clear(hottest) && state.opp_level > 0 {
        let level = state.opp_level - 1;
        out.push(Actuation::SetOpp { level, duty: p.ladder.level(level).duty });
        out.push(Actuation::Stall { until: now + p.transition_cycles });
    }
}

/// One ladder step for the duty-cycle baselines. Duty changes are
/// instantaneous (no transition stall): gating is a clock-distribution
/// act, not a voltage ramp.
fn gate_step(
    p: &GateParams,
    clock: bool,
    hottest: f64,
    state: &PolicyState,
    out: &mut Vec<Actuation>,
) {
    let push = |level: usize, out: &mut Vec<Actuation>| {
        let duty = p.ladder.level(level);
        out.push(if clock {
            Actuation::SetClockDuty { level, duty }
        } else {
            Actuation::SetFetchDuty { level, duty }
        });
    };
    if p.trips.highest_tripped(hottest).is_some() {
        if state.gate_level + 1 < p.ladder.len() {
            push(state.gate_level + 1, out);
        }
    } else if p.trips.all_clear(hottest) && state.gate_level > 0 {
        push(state.gate_level - 1, out);
    }
}

/// Whether the global policy's own trip table has a tripped critical point.
fn critical_tripped(global: &GlobalPolicy, hottest: f64) -> bool {
    match global {
        GlobalPolicy::None => false,
        GlobalPolicy::Dvfs(p) => p.trips.tripped(TripSeverity::Critical, hottest),
        GlobalPolicy::FetchGate(p) | GlobalPolicy::ClockThrottle(p) => {
            p.trips.tripped(TripSeverity::Critical, hottest)
        }
    }
}
