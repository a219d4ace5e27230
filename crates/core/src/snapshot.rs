//! Deterministic snapshot/restore of a full simulation.
//!
//! A [`Snapshot`] captures everything a [`Simulator`] plus its workload
//! trace need to resume *bit-identically*: the cycle-level core (rename
//! maps, active list, issue queues, branch predictor, caches, functional
//! units), the thermal model's full RC node-temperature vector, the
//! mitigation manager's counters and any in-progress stall, the
//! simulator's temperature statistics, and the trace generator's RNG and
//! position. The power model is stateless (see `powerbalance-power`) and
//! is rebuilt from configuration.
//!
//! # Serialization format
//!
//! Snapshots serialize through the workspace's JSON layer
//! ([`serde::json`]). The document is an object whose first field is
//! `format_version` ([`FORMAT_VERSION`]); readers reject documents whose
//! version they do not understand *before* interpreting the rest, so old
//! binaries fail cleanly on new snapshots and vice versa.
//!
//! Floating-point state that must survive the trip exactly — node
//! temperatures and the temperature accumulators, which include
//! sentinel values like `f64::MIN` that the JSON number grammar cannot
//! express — is stored as raw IEEE-754 bit patterns (`f64::to_bits`,
//! one `u64` per value). Configuration floats stay human-readable: the
//! writer emits the shortest round-tripping decimal for them.
//!
//! # Examples
//!
//! ```
//! use powerbalance::{SimConfig, Simulator, Snapshot, spec2000};
//!
//! let profile = spec2000::by_name("gzip").expect("known benchmark");
//! let mut trace = profile.trace(7);
//! let mut sim = Simulator::new(SimConfig::default())?;
//! sim.run(&mut trace, 20_000);
//!
//! // Capture, then fork two independent continuations.
//! let snap = Snapshot::capture(&sim, &profile, &trace);
//! let (mut sim_b, mut trace_b) = snap.resume()?;
//! let a = sim.run(&mut trace, 20_000);
//! let b = sim_b.run(&mut trace_b, 20_000);
//! assert_eq!(a.committed, b.committed);
//! # Ok::<(), powerbalance::Error>(())
//! ```

use crate::{Error, SimConfig, Simulator};
use powerbalance_mitigation::ManagerState;
use powerbalance_uarch::CoreState;
use powerbalance_workloads::{TraceGenerator, TraceState, WorkloadProfile};
use serde::{Deserialize, Serialize};

/// Version stamp written into every serialized snapshot.
///
/// Bump this whenever the layout of [`Snapshot`], [`SimulatorState`], or
/// any state struct they embed changes shape or meaning. Readers refuse
/// mismatched versions outright — there is no migration machinery, by
/// design: snapshots are caches of recomputable state, so invalidating
/// them on a version bump is always safe.
pub const FORMAT_VERSION: u32 = 6;

/// Serializable dynamic state of a [`Simulator`] (everything except the
/// configuration it was built from and the trace driving it).
///
/// Obtain one with [`Simulator::state`] and apply it with
/// [`Simulator::restore_state`]. Most users want the self-contained
/// [`Snapshot`] instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulatorState {
    /// Full pipeline state.
    pub core: CoreState,
    /// Mitigation counters and any in-progress temporal stall.
    pub manager: ManagerState,
    /// IEEE-754 bit patterns of every RC node temperature (blocks first,
    /// then internal package nodes), in floorplan node order.
    pub thermal_node_bits: Vec<u64>,
    /// Bit patterns of the per-block temperature running sums.
    pub temp_sum_bits: Vec<u64>,
    /// Bit patterns of the per-block temperature maxima (`f64::MIN`
    /// until a block has been sampled — exactly why bits are stored).
    pub temp_max_bits: Vec<u64>,
    /// Number of non-stalled samples behind `temp_sum_bits`.
    pub temp_samples: u64,
    /// Whether the warm-start settle has already happened.
    pub warmed: bool,
    /// Interval-engine warmup-prefix cycles still to run in detail before
    /// interval sampling engages (0 under [`crate::Fidelity::Exact`]).
    pub fast_prefix_left: u64,
    /// Sub-intervals completed in the current interval-engine macro
    /// window (`0` = the next sub-interval is detailed).
    pub fast_window_pos: u64,
    /// IEEE-754 bit patterns of the per-block power the interval engine
    /// holds over skipped sub-intervals (zeros under
    /// [`crate::Fidelity::Exact`]).
    pub window_watts_bits: Vec<u64>,
    /// The interval engine's extrapolation basis and totals.
    pub fast: FastEngineState,
}

/// Serialized per-core state of the [`crate::Fidelity::Fast`] interval
/// engine: the last detailed window's activity and statistics deltas
/// (the extrapolation basis) and the extrapolated totals. The die-wide
/// clock and the held power vector travel beside it in
/// [`SimulatorState`]. A mid-window capture resumes bit-exactly because
/// all of it round-trips.
///
/// Under [`crate::Fidelity::Exact`] every field stays zero.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FastEngineState {
    /// Integer issue-queue activity of the last detailed window (fed to
    /// skipped-interval mitigation consults).
    pub window_int_iq: powerbalance_uarch::IqActivity,
    /// FP issue-queue activity of the last detailed window.
    pub window_fp_iq: powerbalance_uarch::IqActivity,
    /// Core cycles the last detailed window ran.
    pub sample_cycles: u64,
    /// Commits in the last detailed window.
    pub sample_committed: u64,
    /// Micro-ops fetched from the trace in the last detailed window.
    pub sample_fetched: u64,
    /// Frozen cycles in the last detailed window.
    pub sample_frozen: u64,
    /// Throttled cycles in the last detailed window.
    pub sample_throttled: u64,
    /// Fetch-gated cycles in the last detailed window.
    pub sample_fetch_gated: u64,
    /// Cycles advanced analytically so far.
    pub extra_cycles: u64,
    /// Extrapolated commits over the skipped cycles.
    pub extra_committed: u64,
    /// Extrapolated frozen cycles.
    pub extra_frozen: u64,
    /// Extrapolated throttled cycles.
    pub extra_throttled: u64,
    /// Extrapolated fetch-gated cycles.
    pub extra_fetch_gated: u64,
}

/// Encodes floats as their exact IEEE-754 bit patterns.
pub(crate) fn encode_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Inverse of [`encode_bits`].
pub(crate) fn decode_bits(bits: &[u64]) -> Vec<f64> {
    bits.iter().map(|b| f64::from_bits(*b)).collect()
}

/// A self-contained, serializable checkpoint of one simulation run.
///
/// Couples a [`SimulatorState`] with the [`SimConfig`] it was captured
/// under and the workload (profile + generator position) driving it, so a
/// snapshot file alone suffices to reconstruct and continue the run.
///
/// Resuming under a configuration with the same [`SimConfig::structure`]
/// (so differing in mitigation) is explicitly supported
/// ([`resume_with_config`]): warmup phases never
/// consult the mitigation manager (see [`Simulator::run_warmup`]), so one
/// warmed snapshot can seed measured runs of every technique variant.
///
/// [`resume_with_config`]: Snapshot::resume_with_config
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Layout version; see [`FORMAT_VERSION`].
    pub format_version: u32,
    /// The configuration the state was captured under.
    pub config: SimConfig,
    /// The workload profile driving the run.
    pub profile: WorkloadProfile,
    /// The trace generator's dynamic state (RNG, position, register and
    /// branch counters).
    pub trace: TraceState,
    /// The simulator's dynamic state.
    pub state: SimulatorState,
}

impl Snapshot {
    /// Captures the current state of `sim` and its trace.
    ///
    /// For the resumed run to be bit-identical to an uninterrupted one,
    /// capture at a sample boundary — i.e. after a [`Simulator::run`] or
    /// [`Simulator::run_warmup`] call whose cycle count is a multiple of
    /// [`SimConfig::sample_interval`] — so no partially-accumulated
    /// activity window is lost (activity counters are drained into the
    /// thermal model at each boundary).
    #[must_use]
    pub fn capture(sim: &Simulator, profile: &WorkloadProfile, trace: &TraceGenerator) -> Snapshot {
        Snapshot {
            format_version: FORMAT_VERSION,
            config: sim.config().clone(),
            profile: profile.clone(),
            trace: trace.snapshot(),
            state: sim.state(),
        }
    }

    /// Rebuilds a simulator and trace generator that continue exactly
    /// where [`capture`](Snapshot::capture) left off.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the snapshot is from a different
    /// format version or its state vectors do not fit the configuration.
    pub fn resume(&self) -> Result<(Simulator, TraceGenerator), Error> {
        self.resume_with_config(self.config.clone())
    }

    /// Like [`resume`](Snapshot::resume), but builds the simulator from
    /// `config` instead of the captured configuration.
    ///
    /// `config` must be *structurally compatible* with the snapshot: its
    /// [`SimConfig::structure`] must equal the captured config's, because
    /// the captured state vectors are shaped by (and their contents depend
    /// on) the core geometry, floorplan, package, energy tables,
    /// frequency, sampling cadence, fidelity and core count. The
    /// mitigation technique is free to differ — that is what lets a
    /// warm-start campaign share one warmup across technique variants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on a version mismatch, a structurally
    /// incompatible `config`, or state vectors that fail validation.
    pub fn resume_with_config(
        &self,
        config: SimConfig,
    ) -> Result<(Simulator, TraceGenerator), Error> {
        if self.format_version != FORMAT_VERSION {
            return Err(Error::Config(format!(
                "snapshot format version {} is not supported (expected {FORMAT_VERSION})",
                self.format_version
            )));
        }
        if let Some(field) = config.structural_difference(&self.config) {
            return Err(Error::Config(format!(
                "snapshot is structurally incompatible: {field} differs from the captured config"
            )));
        }
        let mut sim = Simulator::new(config)?;
        sim.restore_state(&self.state)?;
        Ok((sim, self.resume_trace()))
    }

    /// The trace generator at the captured position, without a simulator.
    #[must_use]
    pub fn resume_trace(&self) -> TraceGenerator {
        let mut trace = TraceGenerator::new(self.profile.clone(), 0);
        trace.restore(&self.trace);
        trace
    }

    /// Serializes the snapshot as a compact JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Parses a snapshot serialized by [`to_json`](Snapshot::to_json).
    ///
    /// The `format_version` field is checked *before* the rest of the
    /// document is interpreted, so a snapshot from a different layout
    /// fails with a version message rather than an arbitrary shape error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on malformed JSON, a version mismatch,
    /// or a shape mismatch.
    pub fn from_json(input: &str) -> Result<Snapshot, Error> {
        let value = serde::json::Value::parse(input)
            .map_err(|e| Error::Config(format!("snapshot is not valid JSON: {e}")))?;
        let version = value
            .field("format_version")
            .and_then(serde::json::Value::as_u64)
            .map_err(|e| Error::Config(format!("snapshot has no readable format_version: {e}")))?;
        if version != u64::from(FORMAT_VERSION) {
            return Err(Error::Config(format!(
                "snapshot format version {version} is not supported (expected {FORMAT_VERSION})"
            )));
        }
        Deserialize::deserialize(&value).map_err(|e| {
            Error::Config(format!("snapshot does not match the v{version} layout: {e}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use powerbalance_mitigation::MitigationConfig;
    use powerbalance_workloads::spec2000;

    fn run_pair(cycles: u64) -> (Simulator, TraceGenerator, WorkloadProfile) {
        let profile = spec2000::by_name("gzip").expect("profile");
        let mut trace = profile.trace(7);
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        sim.run(&mut trace, cycles);
        (sim, trace, profile)
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let (sim, trace, profile) = run_pair(30_000);
        let snap = Snapshot::capture(&sim, &profile, &trace);
        let back = Snapshot::from_json(&snap.to_json()).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn resume_continues_bit_identically() {
        let (mut sim, mut trace, profile) = run_pair(40_000);
        let snap = Snapshot::capture(&sim, &profile, &trace);
        let (mut sim2, mut trace2) = snap.resume().expect("compatible");

        let a = sim.run(&mut trace, 40_000);
        let b = sim2.run(&mut trace2, 40_000);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.freezes, b.freezes);
        for (x, y) in a.temperatures.iter().zip(&b.temperatures) {
            assert_eq!(x.avg.to_bits(), y.avg.to_bits(), "{}", x.name);
            assert_eq!(x.max.to_bits(), y.max.to_bits(), "{}", x.name);
            assert_eq!(x.last.to_bits(), y.last.to_bits(), "{}", x.name);
        }
    }

    #[test]
    fn version_mismatch_is_rejected_before_shape_errors() {
        let (sim, trace, profile) = run_pair(10_000);
        // The previous layout is refused as firmly as a future one.
        for version in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let mut snap = Snapshot::capture(&sim, &profile, &trace);
            snap.format_version = version;
            // resume() refuses.
            let err = snap.resume().expect_err("other version");
            assert!(err.to_string().contains("format version"), "{err}");
            // And so does the parser, on a whole document and on one that
            // is garbage from this version's point of view.
            let err = Snapshot::from_json(&snap.to_json()).expect_err("other version");
            assert!(err.to_string().contains(&format!("format version {version}")), "{err}");
            let doc = format!("{{\"format_version\":{version}}}");
            let err = Snapshot::from_json(&doc).expect_err("other version");
            assert!(err.to_string().contains("format version"), "{err}");
        }
    }

    #[test]
    fn a_queued_op_naming_no_register_is_refused() {
        // A fetched op whose destination byte lies past the 64 register
        // names would index past the rename map at its dispatch.
        let profile = spec2000::by_name("gzip").expect("profile");
        let mut trace = profile.trace(1);
        let mut sim = Simulator::new(SimConfig::default()).expect("valid config");
        sim.run(&mut trace, 20_000);
        let json = Snapshot::capture(&sim, &profile, &trace).to_json();
        let queue = json.find("\"fetch_queue\":[").expect("the core has a fetch queue");
        let at = queue + json[queue..].find("\"dest\":").expect("a queued op has a dest") + 7;
        let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
        assert!(digits > 0, "the first queued op names a destination");
        let edited = format!("{}200{}", &json[..at], &json[at + digits..]);

        let err = Snapshot::from_json(&edited).expect_err("register 200 does not exist");
        assert!(matches!(&err, Error::Config(m) if m.contains("register 200")), "{err}");
        let (mut resumed, mut trace) = Snapshot::from_json(&json)
            .and_then(|snap| snap.resume())
            .expect("the unedited snapshot resumes");
        resumed.run(&mut trace, 20_000);
    }

    #[test]
    fn resume_with_different_mitigation_is_allowed() {
        let (sim, trace, profile) = run_pair(20_000);
        let snap = Snapshot::capture(&sim, &profile, &trace);
        let cfg = SimConfig { mitigation: MitigationConfig::spatial_all(), ..snap.config.clone() };
        let (sim2, _) = snap.resume_with_config(cfg).expect("mitigation may differ");
        assert!(sim2.manager().config().activity_toggling);
    }

    #[test]
    fn a_transition_stall_ends_after_a_resume_under_another_policy() {
        // A DVFS run captured mid-transition carries `stall_until`; resumed
        // under a config without a global ladder, the stall must still end
        // on schedule instead of freezing the core for good.
        use crate::experiments::PolicyKind;
        use crate::FloorplanKind;
        let config = experiments::policy(PolicyKind::Dvfs, FloorplanKind::IssueConstrained);
        let interval = config.sample_interval;
        let profile = spec2000::by_name("eon").expect("profile");
        let mut trace = profile.trace(42);
        let mut sim = Simulator::new(config).expect("valid config");
        for _ in 0..21 {
            sim.run(&mut trace, interval);
        }
        assert_eq!(sim.core().stats().cycles, 210_000);
        assert_eq!(sim.manager().policy_state().stall_until, Some(252_000));
        assert!(sim.core().is_frozen(), "the capture lands inside the transition stall");

        let snap = Snapshot::capture(&sim, &profile, &trace);
        let spatial = experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained);
        let (mut resumed, mut trace) =
            snap.resume_with_config(spatial).expect("mitigation may differ");
        let frozen_before = resumed.core().stats().frozen_cycles;
        let mut thawed_at = None;
        for _ in 0..60 {
            resumed.run(&mut trace, interval);
            let now = resumed.core().stats().cycles;
            if thawed_at.is_none() && resumed.manager().policy_state().stall_until.is_none() {
                thawed_at = Some(now);
            }
        }
        assert_eq!(thawed_at, Some(260_000), "the first consult past 252 000 ends the stall");
        let result = resumed.result();
        assert!(
            result.frozen_cycles - frozen_before < 60 * interval,
            "the core ran again after the stall: {} frozen cycles",
            result.frozen_cycles - frozen_before
        );
    }

    #[test]
    fn structurally_different_config_is_rejected() {
        let (sim, trace, profile) = run_pair(20_000);
        let snap = Snapshot::capture(&sim, &profile, &trace);
        // A different core geometry (issue-queue-constrained experiment)
        // must not accept this snapshot.
        let err = snap.resume_with_config(experiments::issue_queue(false)).expect_err("core");
        assert!(err.to_string().contains("structurally incompatible"), "{err}");
    }
}
