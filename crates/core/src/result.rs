//! Run results.

use serde::{Deserialize, Serialize};

/// Temperature statistics for one floorplan block over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockTemperature {
    /// Block name (e.g. `"IntQ1"`).
    pub name: String,
    /// Average temperature over non-stalled execution (K) — the paper's
    /// Table 4/5/6 metric.
    pub avg: f64,
    /// Peak temperature seen at any sample (K).
    pub max: f64,
    /// Temperature at the end of the run (K) — the steady state, for runs
    /// long enough to converge.
    pub last: f64,
}

/// Results of one simulation run.
///
/// # Examples
///
/// ```
/// use powerbalance::{experiments, Simulator};
/// use powerbalance_workloads::spec2000;
///
/// let mut sim = Simulator::new(experiments::issue_queue(false))?;
/// let result = sim.run(&mut spec2000::by_name("art").unwrap().trace(1), 50_000);
/// assert!(result.cycles > 0);
/// assert!(result.avg_temp("IntQ0").is_some());
/// # Ok::<(), powerbalance::Error>(())
/// ```
///
/// The global-policy counters are left off the wire while zero, so every
/// spatial-only run keeps the bytes it had before the policy layer
/// existed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Cycles simulated (including stall time).
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed IPC, the paper's primary performance metric.
    pub ipc: f64,
    /// Cycles lost to temporal (whole-core) stalls.
    pub frozen_cycles: u64,
    /// Issue-queue head/tail toggles.
    pub toggles: u64,
    /// Functional-unit turnoff events.
    pub alu_turnoffs: u64,
    /// Register-file copy turnoff events.
    pub rf_turnoffs: u64,
    /// Temporal stall events.
    pub freezes: u64,
    /// DVFS operating-point transitions (global policies only).
    #[serde(omit_default)]
    pub opp_transitions: u64,
    /// Fetch-gate / clock-throttle duty-ladder shifts (global policies
    /// only).
    #[serde(omit_default)]
    pub duty_shifts: u64,
    /// Cycles lost to global clock throttling.
    #[serde(omit_default)]
    pub throttled_cycles: u64,
    /// Front-end cycles idled by fetch gating.
    #[serde(omit_default)]
    pub fetch_gated_cycles: u64,
    /// Per-block temperature statistics.
    pub temperatures: Vec<BlockTemperature>,
    /// Issues per integer ALU (priority-order asymmetry).
    pub int_issued_per_unit: [u64; 6],
    /// Reads per integer register-file copy.
    pub int_rf_reads: [u64; 2],
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// L1 data-cache miss rate.
    pub l1d_miss_rate: f64,
}

impl RunResult {
    /// Average temperature of the named block, if present.
    #[must_use]
    pub fn avg_temp(&self, name: &str) -> Option<f64> {
        self.temperatures.iter().find(|t| t.name == name).map(|t| t.avg)
    }

    /// Peak temperature of the named block, if present.
    #[must_use]
    pub fn max_temp(&self, name: &str) -> Option<f64> {
        self.temperatures.iter().find(|t| t.name == name).map(|t| t.max)
    }

    /// End-of-run temperature of the named block, if present.
    #[must_use]
    pub fn last_temp(&self, name: &str) -> Option<f64> {
        self.temperatures.iter().find(|t| t.name == name).map(|t| t.last)
    }

    /// The hottest block by average temperature.
    ///
    /// # Panics
    ///
    /// Panics if the result has no temperature entries.
    #[must_use]
    pub fn hottest(&self) -> &BlockTemperature {
        self.temperatures
            .iter()
            .max_by(|a, b| a.avg.partial_cmp(&b.avg).expect("temps are finite"))
            .expect("runs always record temperatures")
    }

    /// Peak temperature across all blocks (K) — the thermal budget every
    /// policy must respect, used to compare them at equal temperature.
    ///
    /// # Panics
    ///
    /// Panics if the result has no temperature entries.
    #[must_use]
    pub fn peak_temp(&self) -> f64 {
        let peak = self.temperatures.iter().map(|t| t.max).fold(f64::MIN, f64::max);
        assert!(peak.is_finite(), "runs always record temperatures");
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            cycles: 1000,
            committed: 800,
            ipc: 0.8,
            frozen_cycles: 0,
            toggles: 2,
            alu_turnoffs: 0,
            rf_turnoffs: 0,
            freezes: 0,
            opp_transitions: 0,
            duty_shifts: 0,
            throttled_cycles: 0,
            fetch_gated_cycles: 0,
            temperatures: vec![
                BlockTemperature { name: "IntQ0".into(), avg: 350.0, max: 351.0, last: 350.5 },
                BlockTemperature { name: "IntQ1".into(), avg: 352.0, max: 353.5, last: 352.4 },
            ],
            int_issued_per_unit: [100, 80, 60, 40, 20, 10],
            int_rf_reads: [400, 200],
            mispredict_rate: 0.01,
            l1d_miss_rate: 0.02,
        }
    }

    #[test]
    fn lookup_by_name() {
        let r = result();
        assert_eq!(r.avg_temp("IntQ1"), Some(352.0));
        assert_eq!(r.max_temp("IntQ1"), Some(353.5));
        assert_eq!(r.last_temp("IntQ1"), Some(352.4));
        assert_eq!(r.avg_temp("nope"), None);
    }

    #[test]
    fn hottest_is_by_average() {
        assert_eq!(result().hottest().name, "IntQ1");
    }

    #[test]
    fn peak_temp_is_max_over_blocks() {
        assert_eq!(result().peak_temp(), 353.5);
    }

    #[test]
    fn nonzero_policy_counter_wire_bytes_are_pinned() {
        let r = RunResult {
            opp_transitions: 3,
            duty_shifts: 5,
            throttled_cycles: 120,
            fetch_gated_cycles: 7,
            temperatures: result().temperatures[..1].to_vec(),
            ..result()
        };
        let json = serde::json::to_string(&r);
        assert_eq!(
            json,
            "{\"cycles\":1000,\"committed\":800,\"ipc\":0.8,\"frozen_cycles\":0,\"toggles\":2,\
             \"alu_turnoffs\":0,\"rf_turnoffs\":0,\"freezes\":0,\"opp_transitions\":3,\
             \"duty_shifts\":5,\"throttled_cycles\":120,\"fetch_gated_cycles\":7,\
             \"temperatures\":[{\"name\":\"IntQ0\",\"avg\":350,\"max\":351,\"last\":350.5}],\
             \"int_issued_per_unit\":[100,80,60,40,20,10],\"int_rf_reads\":[400,200],\
             \"mispredict_rate\":0.01,\"l1d_miss_rate\":0.02}"
        );
        assert_eq!(serde::json::from_str::<RunResult>(&json).unwrap(), r);
    }

    #[test]
    fn serde_omits_zero_policy_counters_and_round_trips() {
        let round_trip = |r: &RunResult| -> (String, RunResult) {
            let json = serde::json::to_string(r);
            let value = serde::json::Value::parse(&json).expect("valid JSON");
            (json, RunResult::deserialize(&value).expect("round trips"))
        };

        let spatial = result();
        let (json, back) = round_trip(&spatial);
        assert!(
            !json.contains("opp_transitions") && !json.contains("throttled_cycles"),
            "spatial-only results must keep the pre-policy wire form: {json}"
        );
        assert_eq!(back, spatial);

        let global = RunResult { opp_transitions: 3, throttled_cycles: 120, ..result() };
        let (json, back) = round_trip(&global);
        assert!(json.contains("\"opp_transitions\":3"), "nonzero counters must serialize: {json}");
        assert_eq!(back, global);
    }
}
