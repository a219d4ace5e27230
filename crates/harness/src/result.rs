//! Structured campaign results.

use crate::spec::CampaignSpec;
use powerbalance::RunResult;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// The outcome of one (benchmark × config) job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Benchmark name.
    pub bench: String,
    /// Config name (from [`crate::NamedConfig`]).
    pub config: String,
    /// Row index of `bench` in the spec's benchmark list.
    pub bench_index: usize,
    /// Column index of `config` in the spec's config list.
    pub config_index: usize,
    /// Workload seed the job ran with.
    pub seed: u64,
    /// Cycle budget the job was given.
    pub cycles_requested: u64,
    /// Worker time spent stepping the job, in nanoseconds: a lockstep
    /// batch's time is shared equally by the siblings it held, so the sum
    /// over a campaign's jobs never exceeds threads × campaign wall.
    pub wall_nanos: u64,
    /// Simulated cycles per host second — the run-level throughput metric.
    pub sim_cycles_per_sec: f64,
    /// Full simulation results.
    pub result: RunResult,
}

impl JobResult {
    /// Whether two jobs produced the same *simulation* outcome, ignoring
    /// host-timing fields (`wall_nanos`, `sim_cycles_per_sec`), which vary
    /// run to run. This is the equality the pool-size-invariance guarantee
    /// is stated in.
    #[must_use]
    pub fn same_outcome(&self, other: &JobResult) -> bool {
        self.bench == other.bench
            && self.config == other.config
            && self.bench_index == other.bench_index
            && self.config_index == other.config_index
            && self.seed == other.seed
            && self.cycles_requested == other.cycles_requested
            && self.result == other.result
    }
}

/// All results of one campaign, in deterministic (benchmark-major, then
/// config) order regardless of how the worker pool interleaved the jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The spec this campaign ran from.
    pub spec: CampaignSpec,
    /// Worker threads the pool used.
    pub threads: usize,
    /// Wall-clock time for the whole campaign, in nanoseconds.
    pub wall_nanos: u64,
    /// One entry per (benchmark × config) job, bench-major in spec order.
    pub jobs: Vec<JobResult>,
}

impl CampaignResult {
    /// The job for `(bench, config_name)`, if both are in the spec.
    #[must_use]
    pub fn get(&self, bench: &str, config_name: &str) -> Option<&JobResult> {
        self.jobs.iter().find(|j| j.bench == bench && j.config == config_name)
    }

    /// Rows for table rendering: one `(benchmark, per-config results)` entry
    /// per benchmark, configs in spec order.
    #[must_use]
    pub fn rows(&self) -> Vec<(&str, Vec<&RunResult>)> {
        let ncfg = self.spec.configs.len();
        self.spec
            .benchmarks
            .iter()
            .enumerate()
            .map(|(bi, bench)| {
                let results =
                    self.jobs[bi * ncfg..(bi + 1) * ncfg].iter().map(|j| &j.result).collect();
                (bench.as_str(), results)
            })
            .collect()
    }

    /// The subset of rows whose config at `base_config_index` hit temporal
    /// stalls (`freezes > 0`) — the paper's "constrained" benchmark set,
    /// where mitigation actually had to act.
    #[must_use]
    pub fn constrained_subset(&self, base_config_index: usize) -> Vec<(&str, Vec<&RunResult>)> {
        self.rows()
            .into_iter()
            .filter(|(_, results)| results[base_config_index].freezes > 0)
            .collect()
    }

    /// Whether two campaigns produced identical simulation outcomes
    /// (ignoring host timing and thread count). Used to assert pool-size
    /// invariance.
    #[must_use]
    pub fn same_outcome(&self, other: &CampaignResult) -> bool {
        self.spec == other.spec
            && self.jobs.len() == other.jobs.len()
            && self.jobs.iter().zip(&other.jobs).all(|(a, b)| a.same_outcome(b))
    }

    /// Aggregate throughput: total simulated cycles per host second of
    /// campaign wall time.
    #[must_use]
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let total: u64 = self.jobs.iter().map(|j| j.result.cycles).sum();
        let secs = self.wall_nanos as f64 / 1e9;
        if secs > 0.0 {
            total as f64 / secs
        } else {
            0.0
        }
    }

    /// The campaign as a pretty-printed JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignSpec;
    use powerbalance::experiments;

    fn run(ipc: f64, freezes: u64) -> RunResult {
        RunResult {
            cycles: 1000,
            committed: (ipc * 1000.0) as u64,
            ipc,
            frozen_cycles: 0,
            toggles: 0,
            alu_turnoffs: 0,
            rf_turnoffs: 0,
            freezes,
            opp_transitions: 0,
            duty_shifts: 0,
            throttled_cycles: 0,
            fetch_gated_cycles: 0,
            temperatures: Vec::new(),
            int_issued_per_unit: [0; 6],
            int_rf_reads: [0; 2],
            mispredict_rate: 0.0,
            l1d_miss_rate: 0.0,
        }
    }

    fn campaign() -> CampaignResult {
        let spec = CampaignSpec::new("t")
            .config("base", experiments::issue_queue(false))
            .config("toggling", experiments::issue_queue(true))
            .benchmarks(["eon", "gzip"]);
        let mut jobs = Vec::new();
        for (bi, bench) in spec.benchmarks.iter().enumerate() {
            for (ci, cfg) in spec.configs.iter().enumerate() {
                jobs.push(JobResult {
                    bench: bench.clone(),
                    config: cfg.name.clone(),
                    bench_index: bi,
                    config_index: ci,
                    seed: spec.seed,
                    cycles_requested: spec.cycles,
                    wall_nanos: 1,
                    sim_cycles_per_sec: 1.0,
                    // Give "eon" a frozen baseline so constrained_subset
                    // has something to select.
                    result: run(0.5 + bi as f64 + ci as f64, u64::from(bi == 0 && ci == 0)),
                });
            }
        }
        CampaignResult { spec, threads: 1, wall_nanos: 2_000_000, jobs }
    }

    #[test]
    fn get_and_rows_follow_spec_order() {
        let c = campaign();
        assert_eq!(c.get("gzip", "toggling").expect("present").result.ipc, 2.5);
        assert!(c.get("gzip", "nope").is_none());
        let rows = c.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "eon");
        assert_eq!(rows[1].1[0].ipc, 1.5);
    }

    #[test]
    fn constrained_subset_filters_on_base_freezes() {
        let c = campaign();
        let constrained = c.constrained_subset(0);
        assert_eq!(constrained.len(), 1);
        assert_eq!(constrained[0].0, "eon");
    }

    #[test]
    fn same_outcome_ignores_host_timing() {
        let a = campaign();
        let mut b = campaign();
        b.threads = 8;
        b.wall_nanos = 999;
        for job in &mut b.jobs {
            job.wall_nanos = 77;
            job.sim_cycles_per_sec = 123.0;
        }
        assert!(a.same_outcome(&b));
        b.jobs[0].result.ipc += 0.1;
        assert!(!a.same_outcome(&b));
    }

    #[test]
    fn json_round_trips() {
        let c = campaign();
        let text = c.to_json();
        let back: CampaignResult = serde::json::from_str(&text).expect("parses");
        assert_eq!(back, c);
    }
}
