//! Mitigation configuration.

use crate::zones::{TripPoint, TripSeverity, TripTable};
use crate::InlineList;
use powerbalance_uarch::DutyCycle;
use serde::{Deserialize, Serialize};

/// Temperature thresholds and timing for the techniques.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Maximum junction temperature, K (paper Table 2: 358 K).
    pub max_temp: f64,
    /// Issue-queue toggle trigger: toggle when the tail half is this many
    /// kelvin hotter than the head half (paper §3: 0.5 K).
    pub toggle_delta: f64,
    /// Hysteresis for re-enabling a turned-off unit or copy: it must cool
    /// to `max_temp - reenable_margin` first.
    pub reenable_margin: f64,
    /// Activity toggling engages only when the hot half is within this many
    /// kelvin of `max_temp`. Far from the threshold a toggle buys nothing
    /// and the wrap-around long wires cost energy, so the controller saves
    /// toggles for when they extend run time ("before either half
    /// overheats", §2.1.1).
    pub toggle_proximity: f64,
    /// Cycles the core stays frozen per temporal stall. The paper stalls
    /// for the 10 ms package cooling time; under thermal time compression
    /// `k` at frequency `f` that is `10 ms * f / k` cycles (105 000 cycles
    /// for the defaults of 4.2 GHz and k = 400).
    pub cooling_cycles: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            max_temp: 358.0,
            toggle_delta: 0.5,
            reenable_margin: 1.0,
            toggle_proximity: 2.0,
            cooling_cycles: 105_000,
        }
    }
}

impl Thresholds {
    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_temp <= 0.0 || self.max_temp.is_nan() {
            return Err("max_temp must be positive".into());
        }
        if self.toggle_delta <= 0.0 || self.toggle_delta.is_nan() {
            return Err("toggle_delta must be positive".into());
        }
        if self.reenable_margin <= 0.0 || self.reenable_margin.is_nan() {
            return Err("reenable_margin must be positive".into());
        }
        if self.toggle_proximity <= 0.0 || self.toggle_proximity.is_nan() {
            return Err("toggle_proximity must be positive".into());
        }
        if self.cooling_cycles == 0 {
            return Err("cooling_cycles must be positive".into());
        }
        Ok(())
    }
}

/// Maximum operating points in a DVFS ladder (bounded inline storage keeps
/// the config `Copy`).
pub const MAX_OPPS: usize = 6;

/// Maximum duty levels in a gating ladder.
pub const MAX_GATE_LEVELS: usize = 6;

/// One DVFS operating point.
///
/// Frequency reduction is modeled as deterministic clock-duty gating
/// (`duty.fraction()` of nominal frequency); voltage reduction scales
/// every block's *dynamic* energy by `volt_scale²`, giving the classic
/// P_dyn ∝ V²f. Leakage is deliberately left unscaled (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OppLevel {
    /// Clock duty implementing the point's frequency scale.
    pub duty: DutyCycle,
    /// Supply-voltage scale relative to nominal, in (0, 1].
    pub volt_scale: f64,
}

impl Default for OppLevel {
    fn default() -> Self {
        OppLevel::nominal()
    }
}

impl OppLevel {
    /// Nominal operating point: full frequency, nominal voltage.
    #[must_use]
    pub const fn nominal() -> Self {
        OppLevel { duty: DutyCycle::full(), volt_scale: 1.0 }
    }

    /// The dynamic-energy scale factor at this point (`volt_scale²`).
    #[must_use]
    pub fn dynamic_scale(&self) -> f64 {
        self.volt_scale * self.volt_scale
    }
}

/// A discrete DVFS ladder, level 0 = nominal, deeper levels slower/cooler.
pub type OppLadder = InlineList<OppLevel, MAX_OPPS>;

impl OppLadder {
    /// The operating point at `level`, clamped to the deepest level so a
    /// snapshot restored into a shorter ladder stays well-defined.
    #[must_use]
    pub fn level(&self, level: usize) -> OppLevel {
        let levels = self.as_slice();
        levels.get(level).or(levels.last()).copied().unwrap_or_default()
    }

    /// Validates the ladder: non-empty, level 0 nominal, every duty valid,
    /// voltages in (0, 1], and frequency/voltage non-increasing with depth.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let Some(first) = self.as_slice().first() else {
            return Err("OPP ladder must contain at least one level".into());
        };
        if *first != OppLevel::nominal() {
            return Err(
                "OPP ladder level 0 must be the nominal point (full duty, volt_scale 1)".into()
            );
        }
        for (i, l) in self.as_slice().iter().enumerate() {
            l.duty.validate().map_err(|e| format!("OPP level {i}: {e}"))?;
            if !(l.volt_scale > 0.0 && l.volt_scale <= 1.0) {
                return Err(format!("OPP level {i}: volt_scale must be in (0, 1]"));
            }
        }
        for (i, w) in self.as_slice().windows(2).enumerate() {
            if w[1].duty.fraction() > w[0].duty.fraction() || w[1].volt_scale > w[0].volt_scale {
                return Err(format!(
                    "OPP ladder must slow down monotonically (level {} regresses)",
                    i + 1
                ));
            }
        }
        Ok(())
    }
}

/// A discrete duty-cycle ladder for fetch gating / clock throttling,
/// level 0 = ungated.
pub type DutyLadder = InlineList<DutyCycle, MAX_GATE_LEVELS>;

impl DutyLadder {
    /// The duty at `level`, clamped to the deepest level.
    #[must_use]
    pub fn level(&self, level: usize) -> DutyCycle {
        let levels = self.as_slice();
        levels.get(level).or(levels.last()).copied().unwrap_or_default()
    }

    /// Validates the ladder: non-empty, level 0 ungated, every duty valid,
    /// duty fraction non-increasing with depth.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let Some(first) = self.as_slice().first() else {
            return Err("duty ladder must contain at least one level".into());
        };
        if *first != DutyCycle::full() {
            return Err("duty ladder level 0 must be the ungated duty".into());
        }
        for (i, d) in self.as_slice().iter().enumerate() {
            d.validate().map_err(|e| format!("duty level {i}: {e}"))?;
        }
        for (i, w) in self.as_slice().windows(2).enumerate() {
            if w[1].fraction() > w[0].fraction() {
                return Err(format!(
                    "duty ladder must gate harder monotonically (level {} regresses)",
                    i + 1
                ));
            }
        }
        Ok(())
    }
}

/// The trip table the global ladders react to: step down when the Passive
/// point trips, freeze when the Critical point trips (same backstop
/// temperature as the spatial techniques, so peak temperature is equalized
/// across the ablation).
fn ladder_trips(th: &Thresholds) -> TripTable {
    TripTable::new(&[
        TripPoint::new(
            TripSeverity::Passive,
            th.max_temp - th.toggle_proximity,
            th.max_temp - th.toggle_proximity - th.reenable_margin,
        ),
        TripPoint::new(TripSeverity::Critical, th.max_temp, th.max_temp - th.reenable_margin),
    ])
    .expect("two points fit")
}

/// Parameters for the global DVFS baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsParams {
    /// The discrete operating-point ladder, nominal first.
    pub ladder: OppLadder,
    /// Full-stall cycles charged per operating-point transition (the
    /// voltage ramp; ~10 µs at 4.2 GHz for the default).
    pub transition_cycles: u64,
    /// Trip table driving the ladder.
    pub trips: TripTable,
}

impl DvfsParams {
    /// The default ladder and trips for the given thresholds.
    #[must_use]
    pub fn for_thresholds(th: &Thresholds) -> Self {
        let ladder = OppLadder::new(&[
            OppLevel::nominal(),
            OppLevel { duty: DutyCycle::new(7, 8), volt_scale: 0.95 },
            OppLevel { duty: DutyCycle::new(3, 4), volt_scale: 0.9 },
            OppLevel { duty: DutyCycle::new(1, 2), volt_scale: 0.8 },
        ])
        .expect("four levels fit");
        DvfsParams { ladder, transition_cycles: 42_000, trips: ladder_trips(th) }
    }

    /// Validates ladder, transition latency, and trips.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.ladder.validate()?;
        if self.transition_cycles == 0 {
            return Err("DVFS transition_cycles must be positive".into());
        }
        self.trips.validate().map_err(|e| format!("DVFS trip table: {e}"))
    }
}

/// Parameters for the duty-cycle baselines (fetch gating, clock throttling).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GateParams {
    /// The duty ladder, ungated first.
    pub ladder: DutyLadder,
    /// Trip table driving the ladder.
    pub trips: TripTable,
}

impl GateParams {
    /// The default ladder and trips for the given thresholds.
    #[must_use]
    pub fn for_thresholds(th: &Thresholds) -> Self {
        let ladder = DutyLadder::new(&[
            DutyCycle::full(),
            DutyCycle::new(3, 4),
            DutyCycle::new(1, 2),
            DutyCycle::new(1, 4),
        ])
        .expect("four levels fit");
        GateParams { ladder, trips: ladder_trips(th) }
    }

    /// Validates ladder and trips.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.ladder.validate()?;
        self.trips.validate().map_err(|e| format!("gate trip table: {e}"))
    }
}

/// The paper's global responses (§5): chip-wide mechanisms the spatial
/// techniques are compared against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GlobalPolicy {
    /// No global response; only the configured spatial techniques and the
    /// temporal freeze backstop run.
    None,
    /// Dynamic voltage/frequency scaling over a discrete OPP ladder.
    Dvfs(DvfsParams),
    /// Front-end fetch gating at a duty cycle.
    FetchGate(GateParams),
    /// Global clock throttling at a duty cycle.
    ClockThrottle(GateParams),
}

impl GlobalPolicy {
    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            GlobalPolicy::None => Ok(()),
            GlobalPolicy::Dvfs(p) => p.validate(),
            GlobalPolicy::FetchGate(p) | GlobalPolicy::ClockThrottle(p) => p.validate(),
        }
    }

    /// Short machine-readable name (used by the CLI and ablation tables).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            GlobalPolicy::None => "none",
            GlobalPolicy::Dvfs(_) => "dvfs",
            GlobalPolicy::FetchGate(_) => "fetch-gate",
            GlobalPolicy::ClockThrottle(_) => "clock-throttle",
        }
    }
}

/// Which techniques the [`crate::ThermalManager`] applies.
///
/// The temporal stall backstop is always armed; the booleans enable the
/// paper's spatial techniques individually so every configuration in the
/// evaluation (base, toggling, fine-grain turnoff, mapping × turnoff) is
/// expressible. A `global` of [`GlobalPolicy::None`] is left off the wire,
/// so configs without a global policy keep the bytes they had before the
/// field existed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MitigationConfig {
    /// Activity toggling for both issue queues (§2.1.1).
    pub activity_toggling: bool,
    /// Fine-grain turnoff for integer and FP functional units (§2.2).
    pub alu_turnoff: bool,
    /// Fine-grain turnoff for integer register-file copies (§2.3).
    pub rf_turnoff: bool,
    /// Use the paper's *second* staleness solution for cooling register-file
    /// copies: disallow writes while the copy cools and copy the architected
    /// values back in at the end of the cooling interval. When `false`
    /// (default) the first solution applies: the shutdown threshold sits
    /// slightly below critical and writes continue.
    pub rf_stale_copy: bool,
    /// Thresholds and timing.
    pub thresholds: Thresholds,
    /// Optional global response running alongside (or instead of) the
    /// spatial techniques (§5 comparison baselines).
    #[serde(omit_default)]
    pub global: GlobalPolicy,
}

impl MitigationConfig {
    /// Temporal-only baseline: every overheat stalls the whole core.
    #[must_use]
    pub fn baseline() -> Self {
        MitigationConfig {
            activity_toggling: false,
            alu_turnoff: false,
            rf_turnoff: false,
            rf_stale_copy: false,
            thresholds: Thresholds::default(),
            global: GlobalPolicy::None,
        }
    }

    /// All three spatial techniques enabled.
    #[must_use]
    pub fn spatial_all() -> Self {
        MitigationConfig {
            activity_toggling: true,
            alu_turnoff: true,
            rf_turnoff: true,
            rf_stale_copy: false,
            thresholds: Thresholds::default(),
            global: GlobalPolicy::None,
        }
    }

    /// Only activity toggling (the paper's §4.1 configuration).
    #[must_use]
    pub fn toggling_only() -> Self {
        MitigationConfig { activity_toggling: true, ..MitigationConfig::baseline() }
    }

    /// Only ALU fine-grain turnoff (the paper's §4.2 configuration).
    #[must_use]
    pub fn alu_turnoff_only() -> Self {
        MitigationConfig { alu_turnoff: true, ..MitigationConfig::baseline() }
    }

    /// Only register-file copy turnoff (the paper's §4.3 configurations,
    /// combined with a mapping policy chosen on the core).
    #[must_use]
    pub fn rf_turnoff_only() -> Self {
        MitigationConfig { rf_turnoff: true, ..MitigationConfig::baseline() }
    }

    /// Global DVFS baseline (§5): no spatial techniques, a discrete OPP
    /// ladder stepped by temperature.
    #[must_use]
    pub fn dvfs() -> Self {
        let th = Thresholds::default();
        MitigationConfig {
            global: GlobalPolicy::Dvfs(DvfsParams::for_thresholds(&th)),
            ..MitigationConfig::baseline()
        }
    }

    /// Global fetch-gating baseline (§5): duty-cycle the front end.
    #[must_use]
    pub fn fetch_gating() -> Self {
        let th = Thresholds::default();
        MitigationConfig {
            global: GlobalPolicy::FetchGate(GateParams::for_thresholds(&th)),
            ..MitigationConfig::baseline()
        }
    }

    /// Global clock-throttling baseline (§5): duty-cycle the whole core
    /// clock without a voltage change.
    #[must_use]
    pub fn clock_throttle() -> Self {
        let th = Thresholds::default();
        MitigationConfig {
            global: GlobalPolicy::ClockThrottle(GateParams::for_thresholds(&th)),
            ..MitigationConfig::baseline()
        }
    }

    /// The spatial techniques with the DVFS ladder underneath: spatial
    /// balancing absorbs local hot spots, DVFS steps in only when the whole
    /// core trends hot.
    #[must_use]
    pub fn combined() -> Self {
        let th = Thresholds::default();
        MitigationConfig {
            global: GlobalPolicy::Dvfs(DvfsParams::for_thresholds(&th)),
            ..MitigationConfig::spatial_all()
        }
    }

    /// Returns the config with its thresholds replaced by `th`, any global
    /// policy's trip tables and ladder rebuilt for them.
    #[must_use]
    pub fn with_thresholds(mut self, th: Thresholds) -> Self {
        self.thresholds = th;
        self.global = match self.global {
            GlobalPolicy::None => GlobalPolicy::None,
            GlobalPolicy::Dvfs(_) => GlobalPolicy::Dvfs(DvfsParams::for_thresholds(&th)),
            GlobalPolicy::FetchGate(_) => GlobalPolicy::FetchGate(GateParams::for_thresholds(&th)),
            GlobalPolicy::ClockThrottle(_) => {
                GlobalPolicy::ClockThrottle(GateParams::for_thresholds(&th))
            }
        };
        self
    }

    /// Returns the config with its thermal limit moved to `max_temp` (see
    /// [`with_thresholds`](Self::with_thresholds)). Experiments use this to
    /// compare policies at one (possibly non-default) thermal budget.
    #[must_use]
    pub fn with_max_temp(self, max_temp: f64) -> Self {
        self.with_thresholds(Thresholds { max_temp, ..self.thresholds })
    }

    /// Validates thresholds and, when present, the global policy's ladder
    /// and trip table.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.thresholds.validate()?;
        self.global.validate()
    }
}

impl Default for MitigationConfig {
    fn default() -> Self {
        MitigationConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let t = Thresholds::default();
        assert!((t.max_temp - 358.0).abs() < 1e-12);
        assert!((t.toggle_delta - 0.5).abs() < 1e-12);
        t.validate().expect("defaults valid");
    }

    #[test]
    fn presets_enable_the_right_techniques() {
        assert!(!MitigationConfig::baseline().activity_toggling);
        assert!(MitigationConfig::toggling_only().activity_toggling);
        assert!(!MitigationConfig::toggling_only().alu_turnoff);
        assert!(MitigationConfig::alu_turnoff_only().alu_turnoff);
        assert!(MitigationConfig::rf_turnoff_only().rf_turnoff);
        let all = MitigationConfig::spatial_all();
        assert!(all.activity_toggling && all.alu_turnoff && all.rf_turnoff);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let t = Thresholds { toggle_delta: 0.0, ..Thresholds::default() };
        assert!(t.validate().is_err());
        let t = Thresholds { cooling_cycles: 0, ..Thresholds::default() };
        assert!(t.validate().is_err());
    }

    #[test]
    fn global_presets_validate_and_name_themselves() {
        for (cfg, name) in [
            (MitigationConfig::dvfs(), "dvfs"),
            (MitigationConfig::fetch_gating(), "fetch-gate"),
            (MitigationConfig::clock_throttle(), "clock-throttle"),
            (MitigationConfig::combined(), "dvfs"),
        ] {
            cfg.validate().expect("preset valid");
            assert_eq!(cfg.global.name(), name);
        }
        assert_eq!(MitigationConfig::baseline().global.name(), "none");
    }

    #[test]
    fn ladder_validation_rejects_degenerate_ladders() {
        // Empty ladders: refused, yet a lookup into one stays defined.
        let empty = OppLadder::new(&[]).expect("fits");
        assert!(empty.validate().is_err());
        assert_eq!(empty.level(2), OppLevel::nominal());
        let empty = DutyLadder::new(&[]).expect("fits");
        assert!(empty.validate().is_err());
        assert_eq!(empty.level(2), DutyCycle::full());
        // Level 0 must be nominal / ungated.
        let l = OppLadder::new(&[OppLevel { duty: DutyCycle::new(1, 2), volt_scale: 1.0 }])
            .expect("fits");
        assert!(l.validate().is_err());
        let d = DutyLadder::new(&[DutyCycle::new(1, 2)]).expect("fits");
        assert!(d.validate().is_err());
        // Speeding back up deeper in the ladder is rejected.
        let l = OppLadder::new(&[
            OppLevel::nominal(),
            OppLevel { duty: DutyCycle::new(1, 2), volt_scale: 0.8 },
            OppLevel { duty: DutyCycle::new(3, 4), volt_scale: 0.8 },
        ])
        .expect("fits");
        assert!(l.validate().is_err());
    }

    #[test]
    fn config_validation_covers_global_trip_tables() {
        // Satellite requirement: a trip table whose clear temperature is at
        // or above its trip temperature is rejected through
        // MitigationConfig::validate.
        let mut cfg = MitigationConfig::dvfs();
        if let GlobalPolicy::Dvfs(ref mut p) = cfg.global {
            p.trips =
                TripTable::new(&[TripPoint::new(TripSeverity::Hot, 356.0, 356.0)]).expect("fits");
        }
        assert!(cfg.validate().is_err());
        let mut cfg = MitigationConfig::fetch_gating();
        if let GlobalPolicy::FetchGate(ref mut p) = cfg.global {
            p.trips = TripTable::new(&[]).expect("fits");
        }
        assert!(cfg.validate().is_err(), "empty trip table must be rejected");
        MitigationConfig::spatial_all().validate().expect("spatial presets stay valid");
    }

    #[test]
    fn global_policy_wire_bytes_are_pinned() {
        let json = serde::json::to_string(&MitigationConfig::dvfs());
        assert_eq!(
            json,
            "{\"activity_toggling\":false,\"alu_turnoff\":false,\"rf_turnoff\":false,\
             \"rf_stale_copy\":false,\"thresholds\":{\"max_temp\":358,\"toggle_delta\":0.5,\
             \"reenable_margin\":1,\"toggle_proximity\":2,\"cooling_cycles\":105000},\
             \"global\":{\"Dvfs\":{\"ladder\":[{\"duty\":{\"on\":1,\"period\":1},\"volt_scale\":1},\
             {\"duty\":{\"on\":7,\"period\":8},\"volt_scale\":0.95},\
             {\"duty\":{\"on\":3,\"period\":4},\"volt_scale\":0.9},\
             {\"duty\":{\"on\":1,\"period\":2},\"volt_scale\":0.8}],\"transition_cycles\":42000,\
             \"trips\":[{\"severity\":\"Passive\",\"temp\":356,\"clear_temp\":355},\
             {\"severity\":\"Critical\",\"temp\":358,\"clear_temp\":357}]}}}"
        );
        let back: MitigationConfig = serde::json::from_str(&json).expect("deserialize");
        assert_eq!(back, MitigationConfig::dvfs());
    }

    #[test]
    fn serde_omits_global_none_and_round_trips_policies() {
        // Wire compatibility: a config without a global policy serializes
        // exactly as it did before the field existed, and old JSON without
        // the field still deserializes.
        let json = serde::json::to_string(&MitigationConfig::spatial_all());
        assert!(!json.contains("global"), "global: None must be omitted: {json}");
        let back: MitigationConfig = serde::json::from_str(&json).expect("deserialize");
        assert_eq!(back, MitigationConfig::spatial_all());

        for cfg in [
            MitigationConfig::dvfs(),
            MitigationConfig::fetch_gating(),
            MitigationConfig::clock_throttle(),
            MitigationConfig::combined(),
        ] {
            let json = serde::json::to_string(&cfg);
            assert!(json.contains("global"));
            let back: MitigationConfig = serde::json::from_str(&json).expect("deserialize");
            assert_eq!(back, cfg);
        }
    }
}
