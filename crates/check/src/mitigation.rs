//! Differential mirror of the mitigation manager.
//!
//! [`MitigationWatch`] re-implements the [`ThermalManager`]'s decision rules
//! (toggling hysteresis, turnoff/re-enable thresholds with
//! the register-file guard band, the temporal-freeze backstop, and the
//! global ladders: DVFS operating points with transition stalls, fetch
//! gating, clock throttling) independently from the same inputs, and
//! compares *every* externally visible effect of a consult —
//! issue-queue modes, unit and copy enables, write gating, the freeze
//! flag and deadline, ladder positions, fetch/clock duties, and the event
//! counters — against its own prediction. Because the manager is
//! deterministic, the comparison is bidirectional: a missed transition and
//! a spurious transition are both divergences. This is what pins the
//! paper's 0.5 K toggle hysteresis, the turnoff re-enable margins, and
//! the per-policy trip/clear hysteresis: any drift in either
//! implementation breaks the agreement. The mirror deliberately does not
//! call the policy helpers (`TripTable::tripped` and friends) — it walks
//! the trip points with its own loops so a bug in those helpers cannot
//! hide in both implementations. For the same reason it keeps its own
//! three-way split (spatial, pure ladder, combined) where the manager
//! runs one rule: two differently shaped implementations must agree.

use crate::{Sink, ViolationKind};
use powerbalance_isa::ExecDomain;
use powerbalance_mitigation::{
    DvfsParams, GateParams, GlobalPolicy, ManagerState, MitigationConfig, MitigationStats,
    PolicyState, Sensors, ThermalManager, TripSeverity, TripTable, RF_GUARD,
};
use powerbalance_thermal::Floorplan;
use powerbalance_uarch::{Core, DutyCycle, IqActivity, IqMode, UnitKind};

const N_INT: usize = 6;
const N_FP: usize = 4;
/// Unit order matches the manager's walk: 6 integer ALUs, 4 FP adders,
/// then the FP multiplier.
const N_UNITS: usize = N_INT + N_FP + 1;
const N_COPIES: usize = 2;

/// Manager-visible machine state at a sample boundary; also the shape of
/// the mirror's prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SampleState {
    frozen: bool,
    frozen_until: Option<u64>,
    stats: MitigationStats,
    int_mode: IqMode,
    fp_mode: IqMode,
    unit_enabled: [bool; N_UNITS],
    copy_enabled: [bool; N_COPIES],
    writes_enabled: [bool; N_COPIES],
    policy: PolicyState,
    fetch_duty: DutyCycle,
    clock_duty: DutyCycle,
}

/// The mitigation-layer differential checker.
#[derive(Debug)]
pub(crate) struct MitigationWatch {
    cfg: MitigationConfig,
    sensors: Sensors,
    pre: Option<SampleState>,
}

impl MitigationWatch {
    pub(crate) fn new(plan: &Floorplan, cfg: &MitigationConfig) -> Result<Self, String> {
        Ok(MitigationWatch { cfg: *cfg, sensors: Sensors::new(plan)?, pre: None })
    }

    fn capture(&self, core: &Core, manager: &ThermalManager) -> SampleState {
        let ManagerState { stats, frozen_until, policy } = manager.snapshot();
        let mut s = SampleState {
            frozen: core.is_frozen(),
            frozen_until,
            stats,
            int_mode: core.iq_mode(ExecDomain::Int),
            fp_mode: core.iq_mode(ExecDomain::Fp),
            unit_enabled: [true; N_UNITS],
            copy_enabled: [true; N_COPIES],
            writes_enabled: [true; N_COPIES],
            policy,
            fetch_duty: core.fetch_duty(),
            clock_duty: core.clock_duty(),
        };
        // Unit/copy state is only queried for configs that can change it:
        // those configs force the full 6/4/2 geometry the sensors assume,
        // so the indices are always in range.
        if self.cfg.alu_turnoff {
            for i in 0..N_UNITS {
                let (kind, idx) = unit_at(i);
                s.unit_enabled[i] = core.unit_enabled(kind, idx);
            }
        }
        if self.cfg.rf_turnoff {
            for c in 0..N_COPIES {
                s.copy_enabled[c] = core.rf_copy_enabled(c);
                s.writes_enabled[c] = core.rf_copy_writes_enabled(c);
            }
        }
        s
    }

    pub(crate) fn before_sample(&mut self, core: &Core, manager: &ThermalManager) {
        self.pre = Some(self.capture(core, manager));
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_sample(
        &mut self,
        core: &Core,
        manager: &ThermalManager,
        temps: &[f64],
        now: u64,
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
        sink: &mut Sink,
    ) {
        let Some(pre) = self.pre.take() else { return };
        let predicted = self.predict(pre, temps, now, int_iq, fp_iq);
        let observed = self.capture(core, manager);
        self.compare(&predicted, &observed, now, sink);
    }

    /// Replays the active policy's decision steps on the pre-sample state.
    fn predict(
        &self,
        pre: SampleState,
        temps: &[f64],
        now: u64,
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
    ) -> SampleState {
        let spatial = self.cfg.activity_toggling || self.cfg.alu_turnoff || self.cfg.rf_turnoff;
        match (&self.cfg.global, spatial) {
            (GlobalPolicy::None, _) => self.predict_spatial(pre, temps, now, int_iq, fp_iq),
            (_, false) => self.predict_global(pre, temps, now),
            (_, true) => self.predict_combined(pre, temps, now, int_iq, fp_iq),
        }
    }

    /// The original five-step spatial control loop.
    fn predict_spatial(
        &self,
        pre: SampleState,
        temps: &[f64],
        now: u64,
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
    ) -> SampleState {
        let th = self.cfg.thresholds;
        let mut p = pre;

        // 1. Ongoing temporal stall (or a DVFS transition stall carried
        //    over from a snapshot taken under another config): only cooled
        //    resources come back.
        if self.handle_frozen_or_stalled(&mut p, now) {
            self.reenable_cooled(&mut p, temps);
            return p;
        }

        // 2–4. The spatial techniques.
        self.predict_techniques(&mut p, temps, int_iq, fp_iq);

        // 5. Temporal backstop, evaluated on the post-turnoff state.
        if self.needs_freeze(&p, temps) {
            p.frozen = true;
            p.frozen_until = Some(now + th.cooling_cycles);
            p.stats.freezes += 1;
        }
        p
    }

    /// Steps 2–4: toggling, unit turnoff, register-file copy turnoff.
    fn predict_techniques(
        &self,
        p: &mut SampleState,
        temps: &[f64],
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
    ) {
        let th = self.cfg.thresholds;

        // 2. Activity toggling with the 0.5 K hysteresis threshold.
        if self.cfg.activity_toggling {
            for (domain, q, act) in [
                (ExecDomain::Int, self.sensors.int_q, int_iq),
                (ExecDomain::Fp, self.sensors.fp_q, fp_iq),
            ] {
                let moves = [
                    act.compact_moves[0] + act.mux_selects[0],
                    act.compact_moves[1] + act.mux_selects[1],
                ];
                if moves[0] + moves[1] == 0 {
                    continue;
                }
                let active = usize::from(moves[1] > moves[0]);
                let quiet = 1 - active;
                if temps[q[active]] >= th.max_temp - th.toggle_proximity
                    && temps[q[active]] - temps[q[quiet]] > th.toggle_delta
                {
                    match domain {
                        ExecDomain::Int => {
                            p.int_mode = p.int_mode.flipped();
                            p.stats.int_toggles += 1;
                        }
                        ExecDomain::Fp => p.fp_mode = p.fp_mode.flipped(),
                    }
                    p.stats.toggles += 1;
                }
            }
        }

        // 3. Fine-grain unit turnoff with re-enable hysteresis.
        if self.cfg.alu_turnoff {
            for i in 0..N_UNITS {
                let block = self.unit_block(i);
                if p.unit_enabled[i] {
                    if temps[block] >= th.max_temp {
                        p.unit_enabled[i] = false;
                        p.stats.alu_turnoffs += 1;
                    }
                } else if temps[block] <= th.max_temp - th.reenable_margin {
                    p.unit_enabled[i] = true;
                }
            }
        }

        // 4. Register-file copy turnoff: the shutdown threshold sits
        //    RF_GUARD below critical unless the stale-copy solution gates
        //    writes instead.
        if self.cfg.rf_turnoff {
            let guard = if self.cfg.rf_stale_copy { 0.0 } else { RF_GUARD };
            for (copy, &block) in self.sensors.int_reg.iter().enumerate() {
                if p.copy_enabled[copy] {
                    if temps[block] >= th.max_temp - guard {
                        p.copy_enabled[copy] = false;
                        if self.cfg.rf_stale_copy {
                            p.writes_enabled[copy] = false;
                        }
                        p.stats.rf_turnoffs += 1;
                    }
                } else if temps[block] <= th.max_temp - th.reenable_margin {
                    p.copy_enabled[copy] = true;
                    if self.cfg.rf_stale_copy {
                        p.writes_enabled[copy] = true;
                    }
                }
            }
        }
    }

    /// The global ladder baselines: freeze/stall handling, critical-trip
    /// freeze, then one ladder step on the hottest sensor reading.
    fn predict_global(&self, pre: SampleState, temps: &[f64], now: u64) -> SampleState {
        let mut p = pre;
        if self.handle_frozen_or_stalled(&mut p, now) {
            return p;
        }
        let hottest = self.hottest(temps);
        if self.critical_tripped(hottest) {
            p.frozen = true;
            p.frozen_until = Some(now + self.cfg.thresholds.cooling_cycles);
            p.stats.freezes += 1;
            return p;
        }
        self.predict_ladder_step(&mut p, hottest, now);
        p
    }

    /// Spatial techniques plus a global ladder with one shared backstop.
    fn predict_combined(
        &self,
        pre: SampleState,
        temps: &[f64],
        now: u64,
        int_iq: &IqActivity,
        fp_iq: &IqActivity,
    ) -> SampleState {
        let mut p = pre;
        if self.handle_frozen_or_stalled(&mut p, now) {
            self.reenable_cooled(&mut p, temps);
            return p;
        }
        self.predict_techniques(&mut p, temps, int_iq, fp_iq);
        let hottest = self.hottest(temps);
        if self.needs_freeze(&p, temps) || self.critical_tripped(hottest) {
            p.frozen = true;
            p.frozen_until = Some(now + self.cfg.thresholds.cooling_cycles);
            p.stats.freezes += 1;
            return p;
        }
        self.predict_ladder_step(&mut p, hottest, now);
        p
    }

    /// Returns `true` while a freeze or transition stall is still in
    /// effect; clears both when the later deadline has passed.
    fn handle_frozen_or_stalled(&self, p: &mut SampleState, now: u64) -> bool {
        let until = match (p.frozen_until, p.policy.stall_until) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        if let Some(u) = until {
            if now < u {
                return true;
            }
            p.frozen = false;
            p.frozen_until = None;
            p.policy.stall_until = None;
        }
        false
    }

    /// Hottest reading across the monitored blocks (the mirror's own walk,
    /// not the zones iterator).
    fn hottest(&self, temps: &[f64]) -> f64 {
        let s = &self.sensors;
        s.int_q
            .iter()
            .chain(s.fp_q.iter())
            .chain(s.int_alus.iter())
            .chain(s.fp_adders.iter())
            .chain(std::iter::once(&s.fp_mul))
            .chain(s.int_reg.iter())
            .map(|&b| temps[b])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn global_trips(&self) -> Option<&TripTable> {
        match &self.cfg.global {
            GlobalPolicy::None => None,
            GlobalPolicy::Dvfs(DvfsParams { trips, .. })
            | GlobalPolicy::FetchGate(GateParams { trips, .. })
            | GlobalPolicy::ClockThrottle(GateParams { trips, .. }) => Some(trips),
        }
    }

    fn critical_tripped(&self, hottest: f64) -> bool {
        self.global_trips().is_some_and(|trips| {
            trips
                .as_slice()
                .iter()
                .any(|pt| pt.severity == TripSeverity::Critical && hottest >= pt.temp)
        })
    }

    /// One ladder step, mirroring the policy's trip/clear hysteresis:
    /// any tripped point steps down, every non-critical point cleared
    /// steps back up.
    fn predict_ladder_step(&self, p: &mut SampleState, hottest: f64, now: u64) {
        let Some(trips) = self.global_trips() else { return };
        let tripped = trips.as_slice().iter().any(|pt| hottest >= pt.temp);
        let all_clear = trips
            .as_slice()
            .iter()
            .filter(|pt| pt.severity != TripSeverity::Critical)
            .all(|pt| hottest <= pt.clear_temp);
        match &self.cfg.global {
            GlobalPolicy::None => {}
            GlobalPolicy::Dvfs(dp) => {
                let level = if tripped && p.policy.opp_level + 1 < dp.ladder.len() {
                    p.policy.opp_level + 1
                } else if !tripped && all_clear && p.policy.opp_level > 0 {
                    p.policy.opp_level - 1
                } else {
                    return;
                };
                p.policy.opp_level = level;
                p.clock_duty = dp.ladder.level(level).duty;
                p.stats.opp_transitions += 1;
                p.policy.stall_until = Some(now + dp.transition_cycles);
                p.frozen = true;
            }
            GlobalPolicy::FetchGate(gp) | GlobalPolicy::ClockThrottle(gp) => {
                let level = if tripped && p.policy.gate_level + 1 < gp.ladder.len() {
                    p.policy.gate_level + 1
                } else if !tripped && all_clear && p.policy.gate_level > 0 {
                    p.policy.gate_level - 1
                } else {
                    return;
                };
                p.policy.gate_level = level;
                let duty = gp.ladder.level(level);
                if matches!(self.cfg.global, GlobalPolicy::FetchGate(_)) {
                    p.fetch_duty = duty;
                } else {
                    p.clock_duty = duty;
                }
                p.stats.duty_shifts += 1;
            }
        }
    }

    fn reenable_cooled(&self, p: &mut SampleState, temps: &[f64]) {
        let limit = self.cfg.thresholds.max_temp - self.cfg.thresholds.reenable_margin;
        if self.cfg.alu_turnoff {
            for i in 0..N_UNITS {
                if !p.unit_enabled[i] && temps[self.unit_block(i)] <= limit {
                    p.unit_enabled[i] = true;
                }
            }
        }
        if self.cfg.rf_turnoff {
            for (copy, &b) in self.sensors.int_reg.iter().enumerate() {
                if !p.copy_enabled[copy] && temps[b] <= limit {
                    p.copy_enabled[copy] = true;
                    if self.cfg.rf_stale_copy {
                        p.writes_enabled[copy] = true;
                    }
                }
            }
        }
    }

    fn needs_freeze(&self, p: &SampleState, temps: &[f64]) -> bool {
        let max = self.cfg.thresholds.max_temp;
        for &b in self.sensors.int_q.iter().chain(self.sensors.fp_q.iter()) {
            if temps[b] >= max {
                return true;
            }
        }
        if self.cfg.alu_turnoff {
            let all_int_off = p.unit_enabled[..N_INT].iter().all(|&e| !e);
            let all_fp_off = p.unit_enabled[N_INT..N_INT + N_FP].iter().all(|&e| !e);
            if all_int_off || all_fp_off {
                return true;
            }
        } else {
            let hot_unit = self
                .sensors
                .int_alus
                .iter()
                .chain(self.sensors.fp_adders.iter())
                .chain(std::iter::once(&self.sensors.fp_mul))
                .any(|&b| temps[b] >= max);
            if hot_unit {
                return true;
            }
        }
        if self.cfg.rf_turnoff {
            if p.copy_enabled.iter().all(|&e| !e) {
                return true;
            }
        } else if self.sensors.int_reg.iter().any(|&b| temps[b] >= max) {
            return true;
        }
        false
    }

    fn unit_block(&self, i: usize) -> usize {
        if i < N_INT {
            self.sensors.int_alus[i]
        } else if i < N_INT + N_FP {
            self.sensors.fp_adders[i - N_INT]
        } else {
            self.sensors.fp_mul
        }
    }

    fn compare(&self, predicted: &SampleState, observed: &SampleState, now: u64, sink: &mut Sink) {
        if predicted == observed {
            return;
        }
        if observed.int_mode != predicted.int_mode || observed.fp_mode != predicted.fp_mode {
            sink.report(
                ViolationKind::Mitigation,
                now,
                format!(
                    "toggle decision diverged from the hysteresis rules: modes \
                     (int {:?}, fp {:?}) vs predicted (int {:?}, fp {:?})",
                    observed.int_mode, observed.fp_mode, predicted.int_mode, predicted.fp_mode
                ),
            );
        }
        for i in 0..N_UNITS {
            if observed.unit_enabled[i] != predicted.unit_enabled[i] {
                let (kind, idx) = unit_at(i);
                sink.report(
                    ViolationKind::Mitigation,
                    now,
                    format!(
                        "{kind:?} {idx} enable is {} but the turnoff thresholds predict {}",
                        observed.unit_enabled[i], predicted.unit_enabled[i]
                    ),
                );
            }
        }
        for c in 0..N_COPIES {
            if observed.copy_enabled[c] != predicted.copy_enabled[c] {
                sink.report(
                    ViolationKind::Mitigation,
                    now,
                    format!(
                        "RF copy {c} enable is {} but the guard-band thresholds predict {}",
                        observed.copy_enabled[c], predicted.copy_enabled[c]
                    ),
                );
            }
            if observed.writes_enabled[c] != predicted.writes_enabled[c] {
                sink.report(
                    ViolationKind::Mitigation,
                    now,
                    format!(
                        "RF copy {c} write gating is {} but the stale-copy rules predict {}",
                        observed.writes_enabled[c], predicted.writes_enabled[c]
                    ),
                );
            }
        }
        if observed.frozen != predicted.frozen || observed.frozen_until != predicted.frozen_until {
            sink.report(
                ViolationKind::Mitigation,
                now,
                format!(
                    "temporal stall diverged: frozen {} until {:?}, predicted {} until {:?}",
                    observed.frozen,
                    observed.frozen_until,
                    predicted.frozen,
                    predicted.frozen_until
                ),
            );
        }
        if observed.policy != predicted.policy {
            sink.report(
                ViolationKind::Mitigation,
                now,
                format!(
                    "ladder state diverged from the trip/clear hysteresis: observed {:?}, \
                     predicted {:?}",
                    observed.policy, predicted.policy
                ),
            );
        }
        if observed.fetch_duty != predicted.fetch_duty
            || observed.clock_duty != predicted.clock_duty
        {
            sink.report(
                ViolationKind::Mitigation,
                now,
                format!(
                    "applied duty diverged: fetch {:?} / clock {:?}, predicted fetch {:?} / \
                     clock {:?}",
                    observed.fetch_duty,
                    observed.clock_duty,
                    predicted.fetch_duty,
                    predicted.clock_duty
                ),
            );
        }
        if observed.stats != predicted.stats {
            sink.report(
                ViolationKind::Mitigation,
                now,
                format!(
                    "event counters diverged: observed {:?}, predicted {:?}",
                    observed.stats, predicted.stats
                ),
            );
        }
    }
}

fn unit_at(i: usize) -> (UnitKind, usize) {
    if i < N_INT {
        (UnitKind::IntAlu, i)
    } else if i < N_INT + N_FP {
        (UnitKind::FpAdd, i - N_INT)
    } else {
        (UnitKind::FpMul, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_thermal::ev6;
    use powerbalance_uarch::CoreConfig;

    fn setup(
        cfg: MitigationConfig,
    ) -> (MitigationWatch, ThermalManager, Core, Vec<f64>, Floorplan) {
        let plan = ev6::baseline();
        let watch = MitigationWatch::new(&plan, &cfg).expect("ev6 sensor blocks");
        let manager = ThermalManager::new(cfg, Sensors::new(&plan).expect("ev6 sensor blocks"));
        let core = Core::new(CoreConfig::default()).expect("valid config");
        let temps = vec![340.0; plan.blocks().len()];
        (watch, manager, core, temps, plan)
    }

    fn active_tail() -> IqActivity {
        let mut a = IqActivity::default();
        a.compact_moves[1] = 500;
        a.mux_selects[1] = 500;
        a
    }

    /// One checked sample: capture, run the real manager, compare.
    fn checked_sample(
        watch: &mut MitigationWatch,
        manager: &mut ThermalManager,
        core: &mut Core,
        temps: &[f64],
        now: u64,
        sink: &mut Sink,
    ) {
        let act = active_tail();
        watch.before_sample(core, manager);
        manager.on_sample(core, temps, now, &act, &act);
        watch.after_sample(core, manager, temps, now, &act, &act, sink);
    }

    #[test]
    fn mirror_agrees_through_a_mitigation_storm() {
        let (mut watch, mut manager, mut core, mut temps, plan) =
            setup(MitigationConfig::spatial_all());
        let mut sink = Sink::default();
        let hot = |plan: &Floorplan, name: &str| plan.index_of(name).expect("block");

        // Cool chip → hot queue half (toggle) → hot ALUs (turnoff) → hot
        // RF copies → everything critical (freeze) → cooldown (re-enable
        // during the stall) → thaw.
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 0, &mut sink);
        temps[hot(&plan, "IntQ1")] = 356.8;
        temps[hot(&plan, "IntQ0")] = 355.9;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 10_000, &mut sink);
        temps[hot(&plan, "IntExec0")] = 358.4;
        temps[hot(&plan, "IntExec3")] = 358.1;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 20_000, &mut sink);
        temps[hot(&plan, "IntReg0")] = 357.9;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 30_000, &mut sink);
        for i in 0..6 {
            temps[hot(&plan, &format!("IntExec{i}"))] = 358.2;
        }
        temps[hot(&plan, "IntQ1")] = 358.6; // queue half over the limit: freeze
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 40_000, &mut sink);
        assert!(core.is_frozen(), "queue half over the limit must freeze");
        temps.fill(340.0);
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 60_000, &mut sink);
        assert!(core.is_frozen(), "stall lasts the full cooling time");
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 200_000, &mut sink);
        assert!(!core.is_frozen(), "stall expired");
        assert!(sink.violations.is_empty(), "mirror diverged: {:?}", sink.violations);
    }

    #[test]
    fn mirror_agrees_for_stale_copy_solution() {
        let mut cfg = MitigationConfig::rf_turnoff_only();
        cfg.rf_stale_copy = true;
        let (mut watch, mut manager, mut core, mut temps, plan) = setup(cfg);
        let mut sink = Sink::default();
        let r0 = plan.index_of("IntReg0").expect("block");
        temps[r0] = 358.0;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 0, &mut sink);
        assert!(!core.rf_copy_writes_enabled(0), "stale-copy solution gates writes");
        temps[r0] = 356.0;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 10_000, &mut sink);
        assert!(core.rf_copy_writes_enabled(0));
        assert!(sink.violations.is_empty(), "mirror diverged: {:?}", sink.violations);
    }

    #[test]
    fn tampered_unit_state_is_flagged() {
        let (mut watch, mut manager, mut core, temps, _) =
            setup(MitigationConfig::alu_turnoff_only());
        let mut sink = Sink::default();
        let act = active_tail();
        watch.before_sample(&core, &manager);
        manager.on_sample(&mut core, &temps, 0, &act, &act);
        // A cool chip justifies no turnoff; fake one behind the manager's
        // back — the mirror must notice.
        core.set_unit_enabled(UnitKind::IntAlu, 2, false);
        watch.after_sample(&core, &manager, &temps, 0, &act, &act, &mut sink);
        assert!(!sink.violations.is_empty(), "spurious turnoff must be flagged");
    }

    #[test]
    fn mirror_agrees_for_dvfs_ladder() {
        let (mut watch, mut manager, mut core, mut temps, plan) = setup(MitigationConfig::dvfs());
        let mut sink = Sink::default();
        let a0 = plan.index_of("IntExec0").expect("block");

        // Passive trip: step down one OPP and stall for the transition.
        temps[a0] = 356.5;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 0, &mut sink);
        assert_eq!(manager.policy_state().opp_level, 1);
        assert!(core.is_frozen(), "transition stalls the core");
        assert_eq!(manager.stats().opp_transitions, 1);
        assert_eq!(manager.stats().freezes, 0, "a transition stall is not a thermal freeze");
        assert!((manager.dynamic_power_scale() - 0.95 * 0.95).abs() < 1e-12);

        // Mid-transition: nothing moves.
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 10_000, &mut sink);
        assert_eq!(manager.policy_state().opp_level, 1);

        // Transition over, still tripped: step down again.
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 50_000, &mut sink);
        assert_eq!(manager.policy_state().opp_level, 2);

        // Cooled below every clear temperature: step back up (after the
        // second transition completes).
        temps[a0] = 340.0;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 120_000, &mut sink);
        assert_eq!(manager.policy_state().opp_level, 1);

        // Critical trip freezes instead of stepping.
        temps[a0] = 358.5;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 250_000, &mut sink);
        assert_eq!(manager.stats().freezes, 1);
        assert!(core.is_frozen());
        assert!(sink.violations.is_empty(), "mirror diverged: {:?}", sink.violations);
    }

    #[test]
    fn mirror_agrees_for_fetch_gating_and_clock_throttling() {
        for cfg in [MitigationConfig::fetch_gating(), MitigationConfig::clock_throttle()] {
            let (mut watch, mut manager, mut core, mut temps, plan) = setup(cfg);
            let mut sink = Sink::default();
            let q1 = plan.index_of("IntQ1").expect("block");

            temps[q1] = 356.2;
            checked_sample(&mut watch, &mut manager, &mut core, &temps, 0, &mut sink);
            assert_eq!(manager.policy_state().gate_level, 1);
            assert!(!core.is_frozen(), "duty changes are instantaneous");
            checked_sample(&mut watch, &mut manager, &mut core, &temps, 10_000, &mut sink);
            assert_eq!(manager.policy_state().gate_level, 2);

            // Hysteresis band: hold.
            temps[q1] = 355.5;
            checked_sample(&mut watch, &mut manager, &mut core, &temps, 20_000, &mut sink);
            assert_eq!(manager.policy_state().gate_level, 2);

            // Cleared: relax one level per sample.
            temps[q1] = 340.0;
            checked_sample(&mut watch, &mut manager, &mut core, &temps, 30_000, &mut sink);
            assert_eq!(manager.policy_state().gate_level, 1);
            checked_sample(&mut watch, &mut manager, &mut core, &temps, 40_000, &mut sink);
            assert_eq!(manager.policy_state().gate_level, 0);
            assert_eq!(manager.stats().duty_shifts, 4);
            assert!(sink.violations.is_empty(), "mirror diverged: {:?}", sink.violations);
        }
    }

    #[test]
    fn mirror_agrees_for_combined_policy() {
        let (mut watch, mut manager, mut core, mut temps, plan) =
            setup(MitigationConfig::combined());
        let mut sink = Sink::default();
        let r0 = plan.index_of("IntReg0").expect("block");

        // A register copy inside the guard band (but below critical): the
        // spatial layer shuts it off; the ladder also sees the passive
        // trip and steps down one OPP.
        temps[r0] = 357.9;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 0, &mut sink);
        assert!(!core.rf_copy_enabled(0));
        assert_eq!(manager.stats().rf_turnoffs, 1);
        assert_eq!(manager.policy_state().opp_level, 1);
        assert!(core.is_frozen(), "OPP transition stalls the core");

        // Cool everything: the copy re-enables and the ladder relaxes.
        temps[r0] = 340.0;
        checked_sample(&mut watch, &mut manager, &mut core, &temps, 100_000, &mut sink);
        assert!(core.rf_copy_enabled(0));
        assert_eq!(manager.policy_state().opp_level, 0);
        assert!(sink.violations.is_empty(), "mirror diverged: {:?}", sink.violations);
    }

    #[test]
    fn tampered_duty_is_flagged() {
        let (mut watch, mut manager, mut core, temps, _) = setup(MitigationConfig::fetch_gating());
        let mut sink = Sink::default();
        let act = active_tail();
        watch.before_sample(&core, &manager);
        manager.on_sample(&mut core, &temps, 0, &act, &act);
        // A cool chip justifies no gating; tighten the duty behind the
        // manager's back — the mirror must notice.
        core.set_fetch_duty(DutyCycle::new(1, 4));
        watch.after_sample(&core, &manager, &temps, 0, &act, &act, &mut sink);
        assert!(!sink.violations.is_empty(), "spurious fetch gating must be flagged");
    }

    #[test]
    fn sub_threshold_toggle_is_flagged() {
        let (mut watch, mut manager, mut core, mut temps, plan) =
            setup(MitigationConfig::toggling_only());
        let mut sink = Sink::default();
        // 0.4 K delta: under the 0.5 K hysteresis threshold, so the
        // manager must not toggle — and the mirror flags it if the mode
        // flips anyway.
        temps[plan.index_of("IntQ1").expect("block")] = 356.9;
        temps[plan.index_of("IntQ0").expect("block")] = 356.5;
        let act = active_tail();
        watch.before_sample(&core, &manager);
        manager.on_sample(&mut core, &temps, 0, &act, &act);
        core.set_iq_mode(ExecDomain::Int, IqMode::Toggled); // fake a toggle
        watch.after_sample(&core, &manager, &temps, 0, &act, &act, &mut sink);
        assert!(!sink.violations.is_empty(), "sub-threshold toggle must be flagged");
    }
}
