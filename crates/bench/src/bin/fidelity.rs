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
use powerbalance_bench::BenchArgs;
use powerbalance_harness::{run_campaign, CampaignSpec, RunFlags};
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
  --threads <n>     worker-pool size     [POWERBALANCE_THREADS or all cores]
  --warmup <n>      mitigation-free warmup cycles per job   [0]
  --checkpoint-dir <dir>
                    persist warmup snapshots under <dir>
  --resume          load matching warmup snapshots from --checkpoint-dir
  --json <path>     also write both campaigns' results as a JSON array
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct FidelityArtifact {
    schema: String,
    cycles: u64,
    seed: u64,
    #[serde(omit_default)]
    warmup_cycles: u64,
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

#[derive(Debug)]
struct Args {
    /// The shared campaign flags, with the 8M cycle default.
    bench: BenchArgs,
    out: PathBuf,
    benchmarks: Vec<String>,
}

/// Parses an argument list (no program name). `--help` is reported as the
/// error `"help"`, as [`BenchArgs::parse_from`] does.
fn parse_from(argv: &[String]) -> Result<Args, String> {
    let run = RunFlags { cycles: DEFAULT_FIDELITY_CYCLES, ..RunFlags::default() };
    let mut args = Args {
        bench: BenchArgs { run, quiet: false },
        out: PathBuf::from("BENCH_fidelity.json"),
        benchmarks: DEFAULT_BENCHMARKS.iter().map(|s| s.to_string()).collect(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if args.bench.run.take(flag, &mut it)? {
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--out" => args.out = PathBuf::from(value()?),
            "--benchmarks" => {
                args.benchmarks = value()?.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--quiet" => args.bench.quiet = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    args.bench.run.check()?;
    Ok(args)
}

fn parse_or_exit() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_from(&argv).unwrap_or_else(|msg| {
        if msg == "help" {
            println!("{ABOUT}");
            std::process::exit(0);
        }
        fail(&msg)
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{ABOUT}");
    std::process::exit(2);
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
    let mut spec = args.bench.spec(name);
    for (cfg_name, cfg) in configs() {
        spec = spec.config(cfg_name, SimConfig { fidelity, ..cfg });
    }
    spec.benchmarks(&args.benchmarks)
}

fn main() {
    let args = parse_or_exit();
    let run = &args.bench.run;
    eprintln!(
        "running {} configs x {} benchmarks x {} cycles at both fidelities...",
        configs().len(),
        args.benchmarks.len(),
        run.cycles
    );

    let timed = |name, fidelity| {
        let start = Instant::now();
        let result = run_campaign(&build_spec(&args, name, fidelity), &args.bench.runner_options())
            .unwrap_or_else(|e| fail(&e.to_string()));
        (result, start.elapsed().as_secs_f64())
    };
    let (exact, exact_wall) = timed("fidelity-exact", Fidelity::Exact);
    eprintln!("  exact: {exact_wall:.2}s");
    let (fast, fast_wall) = timed("fidelity-fast", Fidelity::Fast);
    eprintln!("  fast:  {fast_wall:.2}s");
    args.bench.finish(&[&exact, &fast]);

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
        cycles: run.cycles,
        seed: run.seed,
        warmup_cycles: run.warmup,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_flag_the_help_lists_is_accepted() {
        let flags = ABOUT.split_whitespace().filter(|w| w.starts_with("--"));
        for flag in flags.filter(|&f| f != "--help") {
            let mut argv = vec![flag];
            match flag {
                "--quiet" => {}
                "--resume" => argv.extend(["--checkpoint-dir", "ckpts"]),
                "--benchmarks" => argv.push("gzip,mesa"),
                "--json" | "--out" | "--checkpoint-dir" => argv.push("x"),
                _ => argv.push("10000"),
            }
            parse_from(&strs(&argv)).unwrap_or_else(|e| panic!("{flag}: {e}"));
        }
        assert_eq!(parse_from(&strs(&["--help"])).expect_err("help").as_str(), "help");
        assert!(parse_from(&strs(&["--frobnicate"])).is_err());
    }

    #[test]
    fn defaults_hold() {
        let args = parse_from(&[]).expect("empty is valid");
        assert!(ABOUT.contains(&format!("[{DEFAULT_FIDELITY_CYCLES}]")));
        assert_eq!(args.bench.run.cycles, DEFAULT_FIDELITY_CYCLES);
        assert_eq!(args.bench.run.seed, powerbalance_bench::DEFAULT_SEED);
        assert_eq!(args.bench.run.warmup, 0);
        assert!(args.bench.run.json.is_none() && !args.bench.quiet);
        assert_eq!(args.out, PathBuf::from("BENCH_fidelity.json"));
        assert_eq!(args.benchmarks, DEFAULT_BENCHMARKS);
    }

    #[test]
    fn shared_flags_reach_both_campaigns() {
        let args = parse_from(&strs(&[
            "--warmup", "10000", "--cycles", "40000", "--seed", "7", "--quiet",
        ]))
        .expect("valid command line");
        for fidelity in [Fidelity::Exact, Fidelity::Fast] {
            let spec = build_spec(&args, "t", fidelity);
            assert_eq!((spec.cycles, spec.seed, spec.warmup_cycles), (40_000, 7, 10_000));
        }
        assert!(!args.bench.runner_options().progress);
    }
}
