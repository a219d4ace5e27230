//! Top-level simulation configuration.

use powerbalance_mitigation::MitigationConfig;
use powerbalance_power::EnergyTables;
use powerbalance_sched::SchedulerKind;
use powerbalance_thermal::ev6::FloorplanKind;
use powerbalance_thermal::PackageConfig;
use powerbalance_uarch::CoreConfig;
use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// How faithfully the simulator integrates power and heat over time.
///
/// `Exact` is the cycle-by-cycle engine every golden artifact was pinned
/// on. `Fast` is a CoMeT-style interval engine: the core runs in detail
/// for one sampling window per macro-interval, and the thermal RC network
/// is advanced analytically (closed-form, reusing the LU machinery) for
/// the rest, with the measured utilization held constant and the workload
/// fast-forwarded to stay phase-aligned. A detailed warmup prefix
/// ([`SimConfig::fast_warmup`]) runs first so the predictor and caches
/// reach the same trained state Exact's would. Mitigation policies keep
/// their Exact-mode cadence — one consult per sampling interval, against the
/// analytically advanced temperatures — so all six policy families work
/// unmodified. The accuracy contract binding Fast to Exact is pinned in
/// `tests/fidelity_contract.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fidelity {
    /// Cycle-accurate simulation of every sampling window.
    #[default]
    Exact,
    /// Interval simulation: detailed samples, analytic thermal advance
    /// in between.
    Fast,
}

impl Fidelity {
    /// Both fidelities, in presentation order.
    pub const ALL: [Fidelity; 2] = [Fidelity::Exact, Fidelity::Fast];

    /// Stable lowercase name (CLI flag / query-string vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Fast => "fast",
        }
    }

    /// Parses [`name`](Self::name) back into a fidelity.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Fidelity> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Default macro-interval length for [`Fidelity::Fast`] (cycles).
///
/// With the default 10 000-cycle sampling interval this is a 1-in-20
/// detailed-window duty cycle — comfortably past the 10× speedup target
/// while keeping one mitigation consult per 200k cycles, well under the
/// compressed thermal time constants.
pub const DEFAULT_FAST_WINDOW: u64 = 200_000;

/// Default detailed warmup prefix for [`Fidelity::Fast`] (cycles).
///
/// Interval sampling only sees `1/stretch` of the cycles, so the branch
/// predictor and caches would train `stretch×` slower than under
/// [`Fidelity::Exact`] and the die would run systematically colder for
/// the whole run. Simulating the first `fast_warmup` cycles in full
/// detail lets the core reach its trained steady state (the measured
/// transient is well under 200k cycles for every bundled workload)
/// before the interval engine starts extrapolating from it. The cost is
/// a fixed prefix: a budget of `B` cycles runs in
/// `P + (B - P) / stretch` detailed cycles, so multi-million-cycle
/// campaigns still clear 10× while short runs degrade gracefully toward
/// Exact (a run shorter than the prefix *is* Exact, minus the engine's
/// bookkeeping).
pub const DEFAULT_FAST_WARMUP: u64 = 200_000;

/// Most cores a multi-core die may instantiate. The tiling is linear
/// (cores abut along x), so very wide dies stop being physically
/// meaningful long before they stop being computable; eight covers every
/// sweep in the evaluation with headroom.
pub const MAX_CORES: usize = 8;

/// Everything needed to build a [`crate::Simulator`].
///
/// Defaults reproduce the paper's Table 2 machine: a 6-wide core at
/// 4.2 GHz on the baseline EV6-like floorplan, temperatures sampled every
/// 10 000 cycles (well under every compressed thermal time constant),
/// temporal-stall-only mitigation.
///
/// # Examples
///
/// ```
/// use powerbalance::{FloorplanKind, MitigationConfig, SimConfig};
///
/// let cfg = SimConfig {
///     floorplan: FloorplanKind::AluConstrained,
///     mitigation: MitigationConfig::alu_turnoff_only(),
///     ..SimConfig::default()
/// };
/// assert_eq!(cfg.frequency_hz, 4.2e9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The core microarchitecture.
    pub core: CoreConfig,
    /// Which floorplan variant to simulate on.
    pub floorplan: FloorplanKind,
    /// Thermal package parameters (incl. time compression).
    pub package: PackageConfig,
    /// Per-event energies.
    pub energy: EnergyTables,
    /// Enabled mitigation techniques and thresholds.
    pub mitigation: MitigationConfig,
    /// Clock frequency in hertz (paper Table 2: 4.2 GHz).
    pub frequency_hz: f64,
    /// Cycles between temperature samples. The paper samples every
    /// 100 000 cycles; with time-compressed thermal constants we sample
    /// 10× more often to keep the same samples-per-time-constant ratio.
    pub sample_interval: u64,
    /// After the first sample window, jump the thermal model to the steady
    /// state of that window's power (fast warm-up to each workload's own
    /// operating point). When `false` the die starts at ambient.
    pub warm_start: bool,
    /// Integration fidelity (see [`Fidelity`]).
    pub fidelity: Fidelity,
    /// Macro-interval length in cycles for [`Fidelity::Fast`]: one
    /// detailed sampling window is simulated per `fast_window` cycles and
    /// the rest are advanced analytically. Must be a positive multiple of
    /// `sample_interval`. Ignored under [`Fidelity::Exact`].
    pub fast_window: u64,
    /// Detailed warmup prefix in cycles for [`Fidelity::Fast`]: the first
    /// `fast_warmup` cycles of the run are simulated cycle-by-cycle (so
    /// the predictor, caches, and thermal state all train exactly as
    /// under [`Fidelity::Exact`]) before interval sampling engages.
    /// Ignored under [`Fidelity::Exact`].
    pub fast_warmup: u64,
    /// Number of cores tiled on the die (1..=8). `1` is the scalar
    /// single-core machine every golden artifact was pinned on;
    /// above 1 the floorplan is replicated with lateral RC coupling
    /// between adjacent cores and runs under
    /// [`crate::MultiCoreSimulator`].
    pub cores: usize,
    /// Which scheduler places workload segments onto cores. Ignored at
    /// `cores == 1` (there is nothing to place).
    pub scheduler: SchedulerKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            core: CoreConfig::default(),
            floorplan: FloorplanKind::Baseline,
            package: PackageConfig::default(),
            energy: EnergyTables::default(),
            mitigation: MitigationConfig::baseline(),
            frequency_hz: 4.2e9,
            sample_interval: 10_000,
            warm_start: true,
            fidelity: Fidelity::Exact,
            fast_window: DEFAULT_FAST_WINDOW,
            fast_warmup: DEFAULT_FAST_WARMUP,
            cores: 1,
            scheduler: SchedulerKind::RoundRobin,
        }
    }
}

// Manual serde: the fidelity and multi-core fields are omitted at their
// defaults so configs written before those features existed (and every
// single-core Exact run) keep a byte-identical wire form — the pinned
// campaign/ablation goldens must not churn.
impl Serialize for SimConfig {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("core".to_string(), self.core.serialize()),
            ("floorplan".to_string(), self.floorplan.serialize()),
            ("package".to_string(), self.package.serialize()),
            ("energy".to_string(), self.energy.serialize()),
            ("mitigation".to_string(), self.mitigation.serialize()),
            ("frequency_hz".to_string(), self.frequency_hz.serialize()),
            ("sample_interval".to_string(), self.sample_interval.serialize()),
            ("warm_start".to_string(), self.warm_start.serialize()),
        ];
        if self.fidelity != Fidelity::Exact {
            fields.push(("fidelity".to_string(), self.fidelity.serialize()));
        }
        if self.fast_window != DEFAULT_FAST_WINDOW {
            fields.push(("fast_window".to_string(), self.fast_window.serialize()));
        }
        if self.fast_warmup != DEFAULT_FAST_WARMUP {
            fields.push(("fast_warmup".to_string(), self.fast_warmup.serialize()));
        }
        if self.cores != 1 {
            fields.push(("cores".to_string(), self.cores.serialize()));
        }
        if self.scheduler != SchedulerKind::RoundRobin {
            fields.push(("scheduler".to_string(), self.scheduler.name().serialize()));
        }
        Value::Object(fields)
    }
}

impl<'de> Deserialize<'de> for SimConfig {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(SimConfig {
            core: Deserialize::deserialize(value.field("core")?)?,
            floorplan: Deserialize::deserialize(value.field("floorplan")?)?,
            package: Deserialize::deserialize(value.field("package")?)?,
            energy: Deserialize::deserialize(value.field("energy")?)?,
            mitigation: Deserialize::deserialize(value.field("mitigation")?)?,
            frequency_hz: Deserialize::deserialize(value.field("frequency_hz")?)?,
            sample_interval: Deserialize::deserialize(value.field("sample_interval")?)?,
            warm_start: Deserialize::deserialize(value.field("warm_start")?)?,
            fidelity: match value.get("fidelity") {
                Some(v) => Deserialize::deserialize(v)?,
                None => Fidelity::Exact,
            },
            fast_window: match value.get("fast_window") {
                Some(v) => Deserialize::deserialize(v)?,
                None => DEFAULT_FAST_WINDOW,
            },
            fast_warmup: match value.get("fast_warmup") {
                Some(v) => Deserialize::deserialize(v)?,
                None => DEFAULT_FAST_WARMUP,
            },
            cores: match value.get("cores") {
                Some(v) => Deserialize::deserialize(v)?,
                None => 1,
            },
            scheduler: match value.get("scheduler") {
                Some(v) => {
                    let name: String = Deserialize::deserialize(v)?;
                    SchedulerKind::from_name(&name)
                        .ok_or_else(|| Error::custom(format!("unknown scheduler '{name}'")))?
                }
                None => SchedulerKind::RoundRobin,
            },
        })
    }
}

impl SimConfig {
    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant across all subsystems.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()?;
        self.package.validate()?;
        self.energy.validate()?;
        self.mitigation.validate()?;
        if self.frequency_hz <= 0.0 || self.frequency_hz.is_nan() {
            return Err("frequency_hz must be positive".into());
        }
        if self.sample_interval == 0 {
            return Err("sample_interval must be positive".into());
        }
        if self.fidelity == Fidelity::Fast {
            if self.fast_window < self.sample_interval {
                return Err("fast_window must be at least one sample_interval".into());
            }
            if !self.fast_window.is_multiple_of(self.sample_interval) {
                return Err("fast_window must be a multiple of sample_interval".into());
            }
        }
        if self.cores == 0 || self.cores > MAX_CORES {
            return Err(format!("cores must be in 1..={MAX_CORES}"));
        }
        Ok(())
    }

    /// The machine this configuration simulates: the whole config with
    /// every field that cannot change the engine's state reset to its
    /// default. That is `mitigation` (warmups never consult it, and
    /// lockstep siblings each keep their own manager), `fast_window` and
    /// `fast_warmup` under [`Fidelity::Exact`] (only the interval engine
    /// reads them), and `scheduler` on one core (there is nothing to
    /// place).
    ///
    /// Configs with equal structures may step in one lockstep batch, share
    /// one warm-start snapshot, and resume each other's snapshots. This is
    /// the only place that decides which fields are structure.
    #[must_use]
    pub fn structure(&self) -> SimConfig {
        let exact = self.fidelity == Fidelity::Exact;
        SimConfig {
            mitigation: MitigationConfig::baseline(),
            fast_window: if exact { DEFAULT_FAST_WINDOW } else { self.fast_window },
            fast_warmup: if exact { DEFAULT_FAST_WARMUP } else { self.fast_warmup },
            scheduler: if self.cores == 1 { SchedulerKind::default() } else { self.scheduler },
            ..self.clone()
        }
    }

    /// The first field in which the [`structure`](Self::structure)s of
    /// `self` and `other` differ, or `None` when they are the same machine.
    #[must_use]
    pub fn structural_difference(&self, other: &SimConfig) -> Option<&'static str> {
        let (a, b) = (self.structure(), other.structure());
        // Destructured so that a new field cannot be left out of the list.
        let SimConfig {
            core,
            floorplan,
            package,
            energy,
            mitigation,
            frequency_hz,
            sample_interval,
            warm_start,
            fidelity,
            fast_window,
            fast_warmup,
            cores,
            scheduler,
        } = &a;
        [
            ("core", *core == b.core),
            ("floorplan", *floorplan == b.floorplan),
            ("package", *package == b.package),
            ("energy", *energy == b.energy),
            ("mitigation", *mitigation == b.mitigation),
            ("frequency_hz", *frequency_hz == b.frequency_hz),
            ("sample_interval", *sample_interval == b.sample_interval),
            ("warm_start", *warm_start == b.warm_start),
            ("fidelity", *fidelity == b.fidelity),
            ("fast_window", *fast_window == b.fast_window),
            ("fast_warmup", *fast_warmup == b.fast_warmup),
            ("cores", *cores == b.cores),
            ("scheduler", *scheduler == b.scheduler),
        ]
        .into_iter()
        .find_map(|(field, same)| (!same).then_some(field))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        SimConfig::default().validate().expect("default config is valid");
    }

    #[test]
    fn invalid_subsystem_bubbles_up() {
        let mut cfg = SimConfig::default();
        cfg.core.iq_size = 7;
        assert!(cfg.validate().is_err());

        let cfg = SimConfig { sample_interval: 0, ..SimConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn oversized_issue_queue_is_a_config_error() {
        let mut cfg = SimConfig::default();
        cfg.core.iq_size = 128;
        let err = crate::Simulator::new(cfg).err();
        assert!(
            matches!(&err, Some(crate::Error::Config(msg)) if msg.contains("limit of 64")),
            "expected a config error naming the limit, got {err:?}"
        );
    }

    #[test]
    fn fidelity_names_round_trip() {
        for f in Fidelity::ALL {
            assert_eq!(Fidelity::from_name(f.name()), Some(f));
        }
        assert_eq!(Fidelity::from_name("detailed"), None);
    }

    #[test]
    fn fast_window_validation() {
        // Exact mode ignores fast_window entirely.
        let cfg = SimConfig { fast_window: 3, ..SimConfig::default() };
        cfg.validate().expect("exact ignores fast_window");

        let mut cfg = SimConfig { fidelity: Fidelity::Fast, ..SimConfig::default() };
        cfg.validate().expect("default fast_window is valid");
        cfg.fast_window = 5_000; // below sample_interval
        assert!(cfg.validate().is_err());
        cfg.fast_window = 15_000; // not a multiple
        assert!(cfg.validate().is_err());
        cfg.fast_window = 10_000; // stretch 1: legal degenerate case
        cfg.validate().expect("stretch-1 fast mode is valid");
    }

    #[test]
    fn exact_wire_form_omits_fidelity_fields() {
        // Pinned goldens predate the interval engine; a default-fidelity
        // config must serialize byte-identically to the old shape.
        let json = serde::json::to_string(&SimConfig::default());
        assert!(!json.contains("fidelity"), "default config leaks fidelity: {json}");
        assert!(!json.contains("fast_window"), "default config leaks fast_window: {json}");
        assert!(!json.contains("fast_warmup"), "default config leaks fast_warmup: {json}");
        let parsed: SimConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(parsed, SimConfig::default());
    }

    #[test]
    fn single_core_wire_form_omits_multicore_fields() {
        // Artifacts written before the multi-core subsystem existed must
        // stay byte-identical at the N=1 defaults.
        let json = serde::json::to_string(&SimConfig::default());
        assert!(!json.contains("cores"), "default config leaks cores: {json}");
        assert!(!json.contains("scheduler"), "default config leaks scheduler: {json}");
        let parsed: SimConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(parsed, SimConfig::default());
    }

    #[test]
    fn multicore_wire_form_round_trips() {
        let cfg =
            SimConfig { cores: 4, scheduler: SchedulerKind::CoolestFirst, ..SimConfig::default() };
        let json = serde::json::to_string(&cfg);
        assert!(json.contains("\"cores\":4"), "{json}");
        assert!(json.contains("\"scheduler\":\"coolest-first\""), "{json}");
        let parsed: SimConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(parsed, cfg);
        assert!(
            serde::json::from_str::<SimConfig>(&json.replace("coolest-first", "hottest")).is_err()
        );
    }

    #[test]
    fn cores_validation() {
        let cfg = SimConfig { cores: 0, ..SimConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig { cores: MAX_CORES + 1, ..SimConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg =
            SimConfig { cores: 4, scheduler: SchedulerKind::Threshold, ..SimConfig::default() };
        cfg.validate().expect("4-core config is valid");
    }

    #[test]
    fn fast_wire_form_round_trips() {
        let cfg = SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 50_000,
            ..SimConfig::default()
        };
        let json = serde::json::to_string(&cfg);
        assert!(json.contains("\"fidelity\":\"Fast\""), "{json}");
        assert!(json.contains("\"fast_window\":40000"), "{json}");
        assert!(json.contains("\"fast_warmup\":50000"), "{json}");
        let parsed: SimConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(parsed, cfg);
    }
}
