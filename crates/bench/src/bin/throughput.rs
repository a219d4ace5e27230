//! Host-throughput baseline: simulated-cycles-per-second for the two hot
//! loops every experiment pays for.
//!
//! Measures wall-clock throughput of (a) the bare core loop
//! (`Core::run` only — `core_only`) and (b) the full
//! simulate-sense-react stack (`Simulator::run`: core + power + thermal +
//! mitigation — `full_stack`) across a few representative benchmarks, and
//! writes the results to a JSON artifact (`BENCH_throughput.json` by
//! default).
//!
//! With `--batch` it additionally measures batched lockstep campaign
//! execution: K mitigation variants of the same benchmark stepped by one
//! [`BatchSimulator`] sharing one trace and one SoA thermal solve, at each
//! width in `--widths`. Every `batch_k{K}` point is labelled with its
//! `batch_width` and carries `speedup_vs_scalar` — the wall time of K
//! sequential scalar runs of the same configs over the batch's wall time.
//!
//! The artifact accumulates labelled runs: re-running with a different
//! `--label` *merges* into the existing file instead of overwriting it, so
//! a before/after pair lives in one reviewable document and the `speedup`
//! block tracks last-vs-first automatically. Simulated results are
//! deterministic; only the wall-clock fields vary between hosts.

use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{BatchSimulator, FloorplanKind, SimConfig, Simulator, TraceCursor};
use powerbalance_bench::{DEFAULT_CYCLES, DEFAULT_SEED};
use powerbalance_uarch::{Core, CoreConfig};
use powerbalance_workloads::spec2000;
use serde::{json, Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Benchmarks measured by default: an integer benchmark (gzip), an FP
/// benchmark (mesa), and a memory-bound one (mcf) — one per major
/// behaviour class, keeping the run short while exercising the integer
/// issue path, the FP issue path, and the cache hierarchy.
const DEFAULT_BENCHMARKS: [&str; 3] = ["gzip", "mesa", "mcf"];

const ABOUT: &str = "\
throughput — simulated-cycles/second baseline for the hot loops

OPTIONS:
  --cycles <n>      simulated cycles per measurement        [1000000]
  --seed <n>        workload seed                           [42]
  --label <name>    label for this run in the artifact      [current]
  --out <path>      merge results into this JSON artifact   [BENCH_throughput.json]
  --benchmarks <a,b,c>
                    comma-separated benchmark list          [gzip,mesa,mcf]
  --repeat <n>      timed repetitions per point (best kept) [3]
  --batch           also measure batched lockstep campaign execution
  --widths <a,b,c>  batch widths to measure with --batch     [1,2,4,6]
  --help            show this help";

/// One measured (benchmark, mode) point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WorkloadThroughput {
    benchmark: String,
    /// `core_only` (bare `Core::run` loop) or `full_stack`
    /// (`Simulator::run`: power + thermal + mitigation sampling too).
    mode: String,
    /// Simulated cycles executed.
    cycles: u64,
    /// Committed micro-ops.
    committed_uops: u64,
    /// Best wall time over the repetitions, seconds.
    wall_seconds: f64,
    /// Simulated cycles per wall-clock second.
    sim_cycles_per_sec: f64,
    /// Committed micro-ops per wall-clock second.
    committed_uops_per_sec: f64,
    /// Lockstep siblings sharing this measurement (1 for the scalar
    /// modes and the `batch_k1` baseline).
    batch_width: u64,
    /// Wall-time ratio of `batch_width` sequential scalar runs of the
    /// same configs over this measurement (1.0 where batching is not in
    /// play).
    speedup_vs_scalar: f64,
}

/// All points measured under one label (one binary invocation).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LabelledRun {
    label: String,
    workloads: Vec<WorkloadThroughput>,
    /// Geometric-mean simulated-cycles/sec of the `core_only` points.
    geomean_core_only_cps: f64,
    /// Geometric-mean simulated-cycles/sec of the `full_stack` points.
    geomean_full_stack_cps: f64,
    /// Geometric mean across benchmarks of `speedup_vs_scalar` at the
    /// widest measured batch (0.0 when `--batch` was not requested).
    geomean_batch_speedup: f64,
}

/// Last-run-over-first-run throughput ratios.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Speedup {
    baseline_label: String,
    current_label: String,
    core_only: f64,
    full_stack: f64,
}

/// The on-disk artifact: an append-merge log of labelled runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ThroughputArtifact {
    schema: String,
    cycles_per_run: u64,
    seed: u64,
    runs: Vec<LabelledRun>,
    speedup: Option<Speedup>,
}

struct Args {
    cycles: u64,
    seed: u64,
    label: String,
    out: PathBuf,
    benchmarks: Vec<String>,
    repeat: u32,
    batch: bool,
    widths: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cycles: DEFAULT_CYCLES,
        seed: DEFAULT_SEED,
        label: "current".to_string(),
        out: PathBuf::from("BENCH_throughput.json"),
        benchmarks: DEFAULT_BENCHMARKS.iter().map(|s| s.to_string()).collect(),
        repeat: 3,
        batch: false,
        widths: vec![1, 2, 4, 6],
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
            "--label" => args.label = value("--label"),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--benchmarks" => {
                args.benchmarks =
                    value("--benchmarks").split(',').map(|s| s.trim().to_string()).collect();
            }
            "--repeat" => {
                args.repeat =
                    value("--repeat").parse().unwrap_or_else(|e| fail(&format!("--repeat: {e}")));
            }
            "--batch" => args.batch = true,
            "--widths" => {
                args.widths = value("--widths")
                    .split(',')
                    .map(|w| w.trim().parse().unwrap_or_else(|e| fail(&format!("--widths: {e}"))))
                    .collect();
            }
            "--help" | "-h" => {
                println!("{ABOUT}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    if args.repeat == 0 {
        fail("--repeat must be at least 1");
    }
    if args.widths.is_empty() || args.widths.iter().any(|&w| w == 0 || w > PolicyKind::ALL.len()) {
        fail(&format!("--widths must be in 1..={}", PolicyKind::ALL.len()));
    }
    for name in &args.benchmarks {
        if spec2000::by_name(name).is_none() {
            fail(&format!("unknown benchmark '{name}'"));
        }
    }
    args
}

/// Runs the bare core loop for `cycles`; returns (cycles, committed, wall).
fn measure_core_only(benchmark: &str, seed: u64, cycles: u64) -> (u64, u64, f64) {
    let profile = spec2000::by_name(benchmark).expect("validated benchmark name");
    let mut core = Core::new(CoreConfig::default()).expect("default config is valid");
    let mut trace = profile.trace(seed);
    let start = Instant::now();
    let ran = core.run(&mut trace, cycles);
    let wall = start.elapsed().as_secs_f64();
    (ran, core.stats().committed, wall)
}

/// Runs the full stack for `cycles`; returns (cycles, committed, wall).
fn measure_full_stack(benchmark: &str, seed: u64, cycles: u64) -> (u64, u64, f64) {
    let profile = spec2000::by_name(benchmark).expect("validated benchmark name");
    let mut sim = Simulator::new(SimConfig::default()).expect("default config is valid");
    let mut trace = profile.trace(seed);
    let start = Instant::now();
    let result = sim.run(&mut trace, cycles);
    let wall = start.elapsed().as_secs_f64();
    (result.cycles, result.committed, wall)
}

/// Best-of-`repeat` measurement of one (benchmark, mode) point.
fn measure(
    benchmark: &str,
    mode: &str,
    args: &Args,
    run: fn(&str, u64, u64) -> (u64, u64, f64),
) -> WorkloadThroughput {
    let mut best: Option<(u64, u64, f64)> = None;
    for _ in 0..args.repeat {
        let (cycles, committed, wall) = run(benchmark, args.seed, args.cycles);
        if best.is_none_or(|(_, _, w)| wall < w) {
            best = Some((cycles, committed, wall));
        }
    }
    let (cycles, committed, wall) = best.expect("repeat >= 1");
    WorkloadThroughput {
        benchmark: benchmark.to_string(),
        mode: mode.to_string(),
        cycles,
        committed_uops: committed,
        wall_seconds: wall,
        sim_cycles_per_sec: cycles as f64 / wall,
        committed_uops_per_sec: committed as f64 / wall,
        batch_width: 1,
        speedup_vs_scalar: 1.0,
    }
}

/// The sibling configs a batched campaign steps in lockstep: every
/// mitigation family on the issue-constrained floorplan. Same benchmark,
/// seed, and floorplan — they differ only in mitigation, which is exactly
/// the batch-eligibility rule `plan_units` applies in the harness.
fn batch_configs() -> Vec<SimConfig> {
    PolicyKind::ALL
        .iter()
        .map(|kind| experiments::policy(*kind, FloorplanKind::IssueConstrained))
        .collect()
}

/// One scalar `Simulator::run` of `config`; returns (cycles, committed, wall).
fn scalar_run(benchmark: &str, seed: u64, cycles: u64, config: &SimConfig) -> (u64, u64, f64) {
    let profile = spec2000::by_name(benchmark).expect("validated benchmark name");
    let mut sim = Simulator::new(config.clone()).expect("policy configs are valid");
    let mut trace = profile.trace(seed);
    let start = Instant::now();
    let result = sim.run(&mut trace, cycles);
    let wall = start.elapsed().as_secs_f64();
    (result.cycles, result.committed, wall)
}

/// One lockstep `BatchSimulator` run over `configs`; returns the summed
/// (cycles, committed) across siblings and the wall time of the batch.
fn batch_run(benchmark: &str, seed: u64, cycles: u64, configs: &[SimConfig]) -> (u64, u64, f64) {
    let profile = spec2000::by_name(benchmark).expect("validated benchmark name");
    let trace = TraceCursor::new(profile.trace(seed));
    let mut batch =
        BatchSimulator::new(configs.to_vec(), trace).expect("policy configs are batch-compatible");
    let start = Instant::now();
    let results = batch.run(cycles);
    let wall = start.elapsed().as_secs_f64();
    let total_cycles: u64 = results.iter().map(|r| r.cycles).sum();
    let total_committed: u64 = results.iter().map(|r| r.committed).sum();
    (total_cycles, total_committed, wall)
}

/// Measures batched lockstep execution on one benchmark at every requested
/// width. The scalar reference for width K is the summed best-of-repeat
/// wall time of the first K sibling configs run sequentially — i.e. what a
/// campaign without batching pays for the same jobs.
fn measure_batch(benchmark: &str, args: &Args) -> Vec<WorkloadThroughput> {
    let configs = batch_configs();
    let max_width = args.widths.iter().copied().max().expect("widths validated non-empty");

    // Per-config scalar walls (and totals), best of `repeat` each.
    let mut scalar: Vec<(u64, u64, f64)> = Vec::new();
    for config in &configs[..max_width] {
        let mut best: Option<(u64, u64, f64)> = None;
        for _ in 0..args.repeat {
            let point = scalar_run(benchmark, args.seed, args.cycles, config);
            if best.is_none_or(|(_, _, w)| point.2 < w) {
                best = Some(point);
            }
        }
        scalar.push(best.expect("repeat >= 1"));
    }

    let mut points = Vec::new();
    for &width in &args.widths {
        let scalar_wall: f64 = scalar[..width].iter().map(|s| s.2).sum();
        let (cycles, committed, wall) = if width == 1 {
            // Width 1 is the scalar baseline itself: the harness routes
            // singleton units through the scalar path verbatim.
            scalar[0]
        } else {
            let mut best: Option<(u64, u64, f64)> = None;
            for _ in 0..args.repeat {
                let point = batch_run(benchmark, args.seed, args.cycles, &configs[..width]);
                if best.is_none_or(|(_, _, w)| point.2 < w) {
                    best = Some(point);
                }
            }
            best.expect("repeat >= 1")
        };
        let point = WorkloadThroughput {
            benchmark: benchmark.to_string(),
            mode: format!("batch_k{width}"),
            cycles,
            committed_uops: committed,
            wall_seconds: wall,
            sim_cycles_per_sec: cycles as f64 / wall,
            committed_uops_per_sec: committed as f64 / wall,
            batch_width: width as u64,
            speedup_vs_scalar: scalar_wall / wall,
        };
        eprintln!(
            "  {benchmark:>9} batch_k{width}:   {:>7.2} Mcycles/s ({:.3}s, {:.2}x vs scalar)",
            point.sim_cycles_per_sec / 1e6,
            point.wall_seconds,
            point.speedup_vs_scalar
        );
        points.push(point);
    }
    points
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

fn geomean_for(workloads: &[WorkloadThroughput], mode: &str) -> f64 {
    geomean(workloads.iter().filter(|w| w.mode == mode).map(|w| w.sim_cycles_per_sec))
}

fn main() {
    let args = parse_args();
    eprintln!(
        "measuring {} cycles x {} benchmarks x 2 modes (best of {})...",
        args.cycles,
        args.benchmarks.len(),
        args.repeat
    );

    let mut workloads = Vec::new();
    for benchmark in &args.benchmarks {
        let core = measure(benchmark, "core_only", &args, measure_core_only);
        eprintln!(
            "  {benchmark:>9} core_only:  {:>7.2} Mcycles/s ({:.3}s)",
            core.sim_cycles_per_sec / 1e6,
            core.wall_seconds
        );
        workloads.push(core);
        let full = measure(benchmark, "full_stack", &args, measure_full_stack);
        eprintln!(
            "  {benchmark:>9} full_stack: {:>7.2} Mcycles/s ({:.3}s)",
            full.sim_cycles_per_sec / 1e6,
            full.wall_seconds
        );
        workloads.push(full);
        if args.batch {
            workloads.extend(measure_batch(benchmark, &args));
        }
    }

    let widest = format!("batch_k{}", args.widths.iter().copied().max().unwrap_or(1));
    let geomean_batch_speedup = if args.batch {
        geomean(workloads.iter().filter(|w| w.mode == widest).map(|w| w.speedup_vs_scalar))
    } else {
        0.0
    };
    let run = LabelledRun {
        label: args.label.clone(),
        geomean_core_only_cps: geomean_for(&workloads, "core_only"),
        geomean_full_stack_cps: geomean_for(&workloads, "full_stack"),
        geomean_batch_speedup,
        workloads,
    };
    eprintln!(
        "geomean: core_only {:.2} Mcycles/s, full_stack {:.2} Mcycles/s",
        run.geomean_core_only_cps / 1e6,
        run.geomean_full_stack_cps / 1e6
    );
    if args.batch {
        eprintln!("geomean batch speedup at {widest}: {:.2}x vs scalar", run.geomean_batch_speedup);
    }

    // Merge into the existing artifact, replacing any run with this label.
    let mut artifact = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| json::from_str::<ThroughputArtifact>(&text).ok())
        .unwrap_or_else(|| ThroughputArtifact {
            schema: "powerbalance-throughput/v1".to_string(),
            cycles_per_run: args.cycles,
            seed: args.seed,
            runs: Vec::new(),
            speedup: None,
        });
    artifact.runs.retain(|r| r.label != run.label);
    artifact.runs.push(run);
    artifact.speedup = match (artifact.runs.first(), artifact.runs.last()) {
        (Some(first), Some(last)) if artifact.runs.len() >= 2 => Some(Speedup {
            baseline_label: first.label.clone(),
            current_label: last.label.clone(),
            core_only: last.geomean_core_only_cps / first.geomean_core_only_cps,
            full_stack: last.geomean_full_stack_cps / first.geomean_full_stack_cps,
        }),
        _ => None,
    };
    if let Some(s) = &artifact.speedup {
        eprintln!(
            "speedup {} -> {}: core_only {:.2}x, full_stack {:.2}x",
            s.baseline_label, s.current_label, s.core_only, s.full_stack
        );
    }

    if let Err(e) = std::fs::write(&args.out, json::to_string_pretty(&artifact)) {
        eprintln!("error: writing {}: {e}", args.out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out.display());
}
