//! fidelity — interval-engine speedup and accuracy, measured head-to-head.
//!
//! Runs the summary campaign's mitigation-active configs (one per
//! constrained floorplan) twice — once at `Fidelity::Exact`, once at
//! `Fidelity::Fast` with the default macro window and warmup prefix —
//! and records both the wall-clock speedup and the worst-case temperature
//! and IPC deviations in a JSON artifact (`BENCH_fidelity.json`).
//!
//! The cycle budget defaults to 8M, well past the paper-budget 1M: the
//! detailed warmup prefix is a fixed cost, so the speedup asymptote
//! `budget / (prefix + (budget − prefix)/stretch)` only clears 10× once
//! the budget dwarfs the prefix. The error columns complement the pinned
//! accuracy-contract suite (`tests/fidelity_contract.rs`): the contract
//! gates merges at the 1M design point; this artifact documents how the
//! trade-off looks at production budgets.

use powerbalance::experiments::{self, AluPolicy};
use powerbalance::{Fidelity, MappingPolicy, SimConfig};
use powerbalance_bench::{DEFAULT_SEED, OPTIONS_HELP};
use powerbalance_harness::{run_campaign, CampaignResult, CampaignSpec, RunnerOptions};
use serde::{json, Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark per behaviour class:
/// integer (gzip), floating-point (mesa), and branchy/mixed (crafty).
const DEFAULT_BENCHMARKS: [&str; 3] = ["gzip", "mesa", "crafty"];

/// Past this budget the default 200k-cycle warmup prefix amortizes to a
/// >10x detailed-cycle reduction at the default stretch of 20.
const DEFAULT_FIDELITY_CYCLES: u64 = 8_000_000;

const ABOUT: &str = "\
fidelity — interval-engine speedup and accuracy vs the exact engine

Runs the same mitigation-active campaign at both fidelities and writes
speedup + worst-case error columns to a JSON artifact.

OPTIONS:
  --cycles <n>      simulated cycles per job                [8000000]
  --seed <n>        workload seed                           [42]
  --threads <n>     worker-pool size                        [all cores]
  --out <path>      write the JSON artifact here            [BENCH_fidelity.json]
  --benchmarks <a,b,c>
                    comma-separated benchmark list          [gzip,mesa,crafty]
  --quiet           suppress per-job progress lines
  --help            show this help";

/// Worst-case absolute deviations between the Exact and Fast runs of one
/// (benchmark x config) job.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JobError {
    benchmark: String,
    config: String,
    /// Max over blocks of |exact − fast| execution-averaged temperature.
    avg_temp_error_k: f64,
    /// Max over blocks of |exact − fast| peak temperature.
    peak_temp_error_k: f64,
    /// Max over blocks of |exact − fast| final temperature.
    final_temp_error_k: f64,
    /// |exact − fast| instructions per cycle.
    ipc_error: f64,
}

/// The on-disk artifact: one head-to-head measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FidelityArtifact {
    schema: String,
    cycles: u64,
    seed: u64,
    benchmarks: Vec<String>,
    configs: Vec<String>,
    threads: usize,
    exact_wall_seconds: f64,
    fast_wall_seconds: f64,
    /// Exact wall time over Fast wall time for the identical campaign.
    speedup: f64,
    /// Worst case over all jobs and blocks.
    max_avg_temp_error_k: f64,
    max_peak_temp_error_k: f64,
    max_final_temp_error_k: f64,
    max_ipc_error: f64,
    jobs: Vec<JobError>,
}

struct Args {
    cycles: u64,
    seed: u64,
    threads: Option<usize>,
    out: PathBuf,
    benchmarks: Vec<String>,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        cycles: DEFAULT_FIDELITY_CYCLES,
        seed: DEFAULT_SEED,
        threads: None,
        out: PathBuf::from("BENCH_fidelity.json"),
        benchmarks: DEFAULT_BENCHMARKS.iter().map(|s| s.to_string()).collect(),
        quiet: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let fail = |msg: &str| -> ! {
        eprintln!("error: {msg}\n\n{ABOUT}");
        std::process::exit(2);
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().unwrap_or_else(|| fail(&format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--cycles" => {
                args.cycles =
                    value("--cycles").parse().unwrap_or_else(|e| fail(&format!("--cycles: {e}")));
            }
            "--seed" => {
                args.seed =
                    value("--seed").parse().unwrap_or_else(|e| fail(&format!("--seed: {e}")));
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads").parse().unwrap_or_else(|e| fail(&format!("--threads: {e}"))),
                );
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            "--benchmarks" => {
                args.benchmarks =
                    value("--benchmarks").split(',').map(|s| s.trim().to_string()).collect();
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{ABOUT}\n\n(shared campaign flags: see below)\n{OPTIONS_HELP}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    if args.cycles == 0 {
        fail("--cycles must be positive");
    }
    for name in &args.benchmarks {
        if powerbalance_workloads::spec2000::by_name(name).is_none() {
            fail(&format!("unknown benchmark '{name}'"));
        }
    }
    args
}

/// The summary campaign's mitigation-active configs: one technique per
/// constrained floorplan, so the comparison crosses every actuator family
/// the interval engine has to keep honest.
fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("iq-toggling", experiments::issue_queue(true)),
        ("alu-fine-grain", experiments::alu(AluPolicy::FineGrainTurnoff)),
        ("rf-fg-priority", experiments::regfile(MappingPolicy::Priority, true)),
    ]
}

fn build_spec(args: &Args, name: &str, fidelity: Fidelity) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name).cycles(args.cycles).seed(args.seed);
    for (cfg_name, cfg) in configs() {
        spec = spec.config(cfg_name, SimConfig { fidelity, ..cfg });
    }
    for bench in &args.benchmarks {
        spec = spec.benchmark(bench);
    }
    spec
}

fn run_timed(spec: &CampaignSpec, args: &Args) -> (CampaignResult, f64) {
    let options =
        RunnerOptions { threads: args.threads, progress: !args.quiet, ..RunnerOptions::default() };
    let start = Instant::now();
    let result = run_campaign(spec, &options).expect("fidelity campaign specs are valid");
    (result, start.elapsed().as_secs_f64())
}

fn main() {
    let args = parse_args();
    eprintln!(
        "running {} configs x {} benchmarks x {} cycles at both fidelities...",
        configs().len(),
        args.benchmarks.len(),
        args.cycles
    );

    let (exact, exact_wall) =
        run_timed(&build_spec(&args, "fidelity-exact", Fidelity::Exact), &args);
    eprintln!("  exact: {exact_wall:.2}s");
    let (fast, fast_wall) = run_timed(&build_spec(&args, "fidelity-fast", Fidelity::Fast), &args);
    eprintln!("  fast:  {fast_wall:.2}s");

    let mut jobs = Vec::new();
    for (e, f) in exact.jobs.iter().zip(&fast.jobs) {
        assert_eq!((&e.bench, &e.config), (&f.bench, &f.config), "campaigns ran in lockstep");
        let worst = |pick: fn(&powerbalance::BlockTemperature) -> f64| {
            e.result
                .temperatures
                .iter()
                .zip(&f.result.temperatures)
                .map(|(et, ft)| (pick(et) - pick(ft)).abs())
                .fold(0.0f64, f64::max)
        };
        jobs.push(JobError {
            benchmark: e.bench.clone(),
            config: e.config.clone(),
            avg_temp_error_k: worst(|t| t.avg),
            peak_temp_error_k: worst(|t| t.max),
            final_temp_error_k: worst(|t| t.last),
            ipc_error: (e.result.ipc - f.result.ipc).abs(),
        });
    }

    let max_of = |pick: fn(&JobError) -> f64| jobs.iter().map(pick).fold(0.0f64, f64::max);
    let artifact = FidelityArtifact {
        schema: "powerbalance-fidelity/v1".to_string(),
        cycles: args.cycles,
        seed: args.seed,
        benchmarks: args.benchmarks.clone(),
        configs: configs().iter().map(|(name, _)| name.to_string()).collect(),
        threads: exact.threads,
        exact_wall_seconds: exact_wall,
        fast_wall_seconds: fast_wall,
        speedup: exact_wall / fast_wall,
        max_avg_temp_error_k: max_of(|j| j.avg_temp_error_k),
        max_peak_temp_error_k: max_of(|j| j.peak_temp_error_k),
        max_final_temp_error_k: max_of(|j| j.final_temp_error_k),
        max_ipc_error: max_of(|j| j.ipc_error),
        jobs,
    };

    eprintln!(
        "speedup {:.2}x | max errors: avg {:.2} K, peak {:.2} K, final {:.2} K, ipc {:.4}",
        artifact.speedup,
        artifact.max_avg_temp_error_k,
        artifact.max_peak_temp_error_k,
        artifact.max_final_temp_error_k,
        artifact.max_ipc_error
    );
    if let Err(e) = std::fs::write(&args.out, json::to_string_pretty(&artifact)) {
        eprintln!("error: writing {}: {e}", args.out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out.display());
}
