//! `powerbalance-harness` — experiment orchestration for the simulator.
//!
//! Every result in the paper (Tables 4–6, Figures 6–8, the §6 summary) is a
//! *campaign*: a cross-product of named mitigation configurations and a set
//! of benchmarks, run for a fixed cycle budget from a fixed seed. This crate
//! makes that a first-class, reusable subsystem:
//!
//! * [`CampaignSpec`] — the typed description of a campaign: named
//!   [`SimConfig`](powerbalance::SimConfig)s, a benchmark list, cycles, and the workload seed;
//! * [`run_campaign`] — a bounded work-stealing pool (`std::thread::scope`
//!   over a shared work queue) that schedules batch-eligible sibling jobs into
//!   lockstep [`powerbalance::BatchSimulator`] units (bit-identical to
//!   scalar execution, see [`RunnerOptions::max_batch`]) and everything
//!   else at per-(benchmark × config) job granularity, so mixed campaigns
//!   load-balance instead of serializing every config behind the slowest
//!   benchmark;
//! * [`CampaignResult`] — structured, serializable results: one
//!   [`JobResult`] per (benchmark, config) with the full
//!   [`RunResult`](powerbalance::RunResult), per-job wall time, and
//!   simulated-cycles/second throughput, writable as a JSON artifact via
//!   the in-repo serializer (`serde::json`);
//! * [`speedup`] — shared IPC-speedup math with explicit handling of
//!   fully-frozen (IPC 0) baselines;
//! * [`WarmStartCache`] — warm-start snapshot caching: campaigns with a
//!   [`CampaignSpec::warmup_cycles`] budget compute each distinct
//!   mitigation-free warmup once, fork every technique variant's measured
//!   run from the shared [`powerbalance::Snapshot`], and can persist the
//!   snapshots to a checkpoint directory for later processes;
//! * [`RunFlags`] — the campaign flags (`--cycles`, `--seed`, `--threads`,
//!   `--json`, `--warmup`, `--checkpoint-dir`, `--resume`) that the CLI
//!   and the bench binaries parse alike.
//!
//! Worker count resolves from, in order: an explicit request (CLI
//! `--threads`), the `POWERBALANCE_THREADS` environment variable, and
//! [`std::thread::available_parallelism`]. Results are deterministic and
//! independent of the worker count: jobs land in spec order regardless of
//! completion order, and each job's simulation is seeded end-to-end.
//!
//! # Examples
//!
//! ```
//! use powerbalance::experiments;
//! use powerbalance_harness::{run_campaign, CampaignSpec, RunnerOptions};
//!
//! let spec = CampaignSpec::new("iq-demo")
//!     .config("base", experiments::issue_queue(false))
//!     .config("toggling", experiments::issue_queue(true))
//!     .benchmark("eon")
//!     .cycles(50_000);
//! let result = run_campaign(&spec, &RunnerOptions::default())?;
//! assert_eq!(result.jobs.len(), 2);
//! let base = result.get("eon", "base").expect("job ran");
//! assert!(base.result.ipc > 0.0);
//! # Ok::<(), powerbalance::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flags;
mod result;
mod runner;
mod spec;
pub mod speedup;
mod warmstart;

pub use flags::RunFlags;
pub use result::{CampaignResult, JobResult};
pub use runner::{
    plan_units, resolve_threads, run_campaign, run_campaign_controlled, CampaignControl,
    CampaignOutcome, JobProgress, RunnerOptions, THREADS_ENV_VAR,
};
pub use spec::{CampaignSpec, NamedConfig};
pub use warmstart::WarmStartCache;

/// Default simulated cycles per run: long enough for several heat/stall
/// cycles under the compressed thermal constants.
pub const DEFAULT_CYCLES: u64 = 1_000_000;

/// Default workload seed (any fixed value works; results are deterministic
/// per seed).
pub const DEFAULT_SEED: u64 = 42;
