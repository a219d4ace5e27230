//! fuzz — deterministic config/trace fuzzer for the checked simulator.
//!
//! Each seed derives a random-but-valid [`SimConfig`] (floorplan, queue
//! geometry, mitigation techniques, thresholds, sampling cadence) and a
//! random workload/trace seed, then runs a short simulation with the
//! differential oracle and invariant suite armed. Any violation — or a
//! panic anywhere in the stack — fails the seed. Failing cases are shrunk
//! by halving the cycle budget while the failure reproduces, then written
//! to a self-contained JSON artifact (`fuzz-seed-<seed>.json`) that
//! `--replay` re-executes exactly.
//!
//! Everything is keyed off the seed: the same seed always produces the
//! same configuration, trace, and verdict, so a failing seed from CI is
//! reproducible locally with `--start-seed <seed> --seeds 1`.
//!
//! Every seed also runs its case a second time with no checker armed and
//! compares the two `RunResult`s and final `SimulatorState`s (every core
//! counter included) bit for bit. The checker steps the core one cycle at
//! a time; unchecked, the engine applies each quiet span (a run of cycles
//! that only count stalls) in one step, so the pair exercises the
//! fast-forward across the whole random config space.
//!
//! Seeds that draw `Fidelity::Fast` additionally cross-check the interval
//! engine against a ground-truth `Exact` run of the same case: the hottest
//! block's final temperature must agree within [`FAST_FINAL_EPS`], so an
//! accuracy regression anywhere in the random config space fails the seed
//! like any other violation.
//!
//! One seed in four additionally draws *batched lockstep execution*: a
//! random width K in 2..=6 of random policy families over the seed's base
//! case, run as one [`BatchSimulator`] and cross-checked bitwise against K
//! sequential scalar runs. Any drift — a temperature bit, an event count —
//! fails the seed. The same batch then runs again, split at a seed-derived
//! window boundary with the split-off classes finishing on another thread,
//! and must match the unsplit batch bit for bit.
//!
//! A disjoint one-in-four of the seeds instead draws the *multi-core
//! engine*: a die of 1–4 cores under a random scheduler runs the seed's
//! case with the full checker armed per lane — including the cross-core
//! energy-balance and lateral-symmetry invariants on multi-core dies —
//! and 1-core draws are additionally cross-checked bitwise against the
//! scalar simulator.

use powerbalance::{
    BatchPart, BatchSimulator, Detach, Fidelity, MultiCoreSimulator, RunResult, SchedulerKind,
    SimConfig, Simulator, Task, TaskSet, TraceCursor,
};
use powerbalance_bench::fuzz::{
    derive_batch_siblings, derive_case, derive_multicore_case, derive_split_window, draws_batch,
    draws_multicore,
};
use powerbalance_workloads::spec2000;
use serde::{json, Deserialize, Serialize};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

const ABOUT: &str = "\
fuzz — differential-oracle fuzzer for random configs and traces

Runs short checked simulations over seed-derived random configurations.
Exit status: 0 all seeds clean, 1 violations found, 2 usage error.

OPTIONS:
  --seeds <n>         number of seeds to run                [200]
  --start-seed <n>    first seed (seeds are consecutive)    [0]
  --cycles <n>        cycle budget per seed                 [40000]
  --artifact-dir <p>  where failing-case JSON files go      [.]
  --replay <path>     re-run one failing-case artifact and exit
  --help              show this help";

/// Floor below which shrinking stops: shorter runs rarely reach the first
/// thermal sample, so the case would stop exercising anything.
const MIN_CYCLES: u64 = 2_000;

/// Pinned Fast-vs-Exact tolerance (kelvin) on the hottest block's final
/// temperature. Looser than the accuracy-contract suite's design-point
/// bound: fuzz cases run short budgets with aggressively biased trip
/// limits, where a single mitigation event near the end of the run moves
/// the final sample by several kelvin.
const FAST_FINAL_EPS: f64 = 20.0;

/// Self-contained reproduction recipe for one failing seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FailingCase {
    schema: String,
    /// Fuzzer seed the case was derived from.
    seed: u64,
    /// Workload profile name.
    bench: String,
    /// Seed for the workload's trace generator.
    trace_seed: u64,
    /// Shrunk cycle budget that still reproduces the failure.
    cycles: u64,
    /// The full derived configuration.
    config: SimConfig,
    /// What went wrong (violation strings or a panic message).
    failure: Vec<String>,
}

struct Args {
    seeds: u64,
    start_seed: u64,
    cycles: u64,
    artifact_dir: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 200,
        start_seed: 0,
        cycles: 40_000,
        artifact_dir: PathBuf::from("."),
        replay: None,
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
            "--seeds" => {
                args.seeds =
                    value("--seeds").parse().unwrap_or_else(|e| fail(&format!("--seeds: {e}")));
            }
            "--start-seed" => {
                args.start_seed = value("--start-seed")
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--start-seed: {e}")));
            }
            "--cycles" => {
                args.cycles =
                    value("--cycles").parse().unwrap_or_else(|e| fail(&format!("--cycles: {e}")));
            }
            "--artifact-dir" => args.artifact_dir = PathBuf::from(value("--artifact-dir")),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay"))),
            "--help" | "-h" => {
                println!("{ABOUT}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    if args.cycles == 0 {
        fail("--cycles must be positive");
    }
    args
}

/// One checked run, plus the Fast-vs-Exact cross-check when the derived
/// config uses the interval engine and the batched-vs-scalar cross-check
/// when the seed draws batched execution. `Ok` means clean; `Err` carries
/// the violation strings (capped) or the panic message.
fn run_case(
    seed: u64,
    config: &SimConfig,
    bench: &str,
    trace_seed: u64,
    cycles: u64,
) -> Result<(), Vec<String>> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| -> Result<Vec<String>, String> {
        let mut sim = Simulator::new(config.clone()).map_err(|e| e.to_string())?;
        sim.enable_checking().map_err(|e| e.to_string())?;
        let profile = spec2000::by_name(bench).ok_or_else(|| format!("unknown bench {bench}"))?;
        let result = sim.run(&mut profile.trace(trace_seed), cycles);
        let mut failures: Vec<String> =
            sim.finish_checking().iter().take(8).map(|v| v.to_string()).collect();
        if failures.is_empty() {
            let mut unchecked = Simulator::new(config.clone()).map_err(|e| e.to_string())?;
            let skipped = unchecked.run(&mut profile.trace(trace_seed), cycles);
            if json::to_string(&skipped) != json::to_string(&result) {
                failures.push(format!(
                    "unchecked run (quiet spans skipped) diverged from the checked run \
                     (committed {} vs {}, hottest {:.3} K vs {:.3} K)",
                    skipped.committed,
                    result.committed,
                    skipped.hottest().last,
                    result.hottest().last,
                ));
            } else if json::to_string(&unchecked.state()) != json::to_string(&sim.state()) {
                failures.push(
                    "unchecked run (quiet spans skipped) ended in a different simulator state \
                     than the checked run"
                        .to_string(),
                );
            }
        }
        if config.fidelity == Fidelity::Fast && failures.is_empty() {
            let exact_cfg = SimConfig { fidelity: Fidelity::Exact, ..config.clone() };
            let mut exact_sim = Simulator::new(exact_cfg).map_err(|e| e.to_string())?;
            let exact = exact_sim.run(&mut profile.trace(trace_seed), cycles);
            let (f, e) = (result.hottest().last, exact.hottest().last);
            if (f - e).abs() > FAST_FINAL_EPS {
                failures.push(format!(
                    "fast-vs-exact final temp diverged: fast {f:.3} K, exact {e:.3} K \
                     (|Δ| > {FAST_FINAL_EPS} K)"
                ));
            }
        }
        if draws_batch(seed) && failures.is_empty() {
            failures.extend(batch_cross_check(seed, config, bench, trace_seed, cycles));
        }
        if draws_multicore(seed) && failures.is_empty() {
            failures.extend(multicore_cross_check(seed, config, bench, trace_seed, cycles));
        }
        Ok(failures)
    }));
    match outcome {
        Ok(Ok(failures)) if failures.is_empty() => Ok(()),
        Ok(Ok(failures)) => Err(failures),
        Ok(Err(build)) => Err(vec![format!("setup failed: {build}")]),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(vec![format!("panic: {msg}")])
        }
    }
}

/// Runs the seed's derived lockstep siblings as one batch and bitwise
/// cross-checks every sibling against its own sequential scalar run.
/// Returns the mismatch descriptions (empty when clean).
fn batch_cross_check(
    seed: u64,
    base: &SimConfig,
    bench: &str,
    trace_seed: u64,
    cycles: u64,
) -> Vec<String> {
    let profile = match spec2000::by_name(bench) {
        Some(p) => p,
        None => return vec![format!("unknown bench {bench}")],
    };
    let configs = derive_batch_siblings(seed, base);
    let split_at = derive_split_window(seed, cycles / base.sample_interval);
    // Exact siblings ring-share generated ops through a cursor; Fast
    // siblings take the generator directly so macro-interval skips stay
    // O(1) instead of drawing ops.
    let runs = match base.fidelity {
        Fidelity::Exact => {
            batch_runs(&configs, || TraceCursor::new(profile.trace(trace_seed)), cycles, split_at)
        }
        Fidelity::Fast => batch_runs(&configs, || profile.trace(trace_seed), cycles, split_at),
    };
    let (batched, split) = match runs {
        Ok(runs) => runs,
        Err(e) => return vec![format!("batch setup failed (K={}): {e}", configs.len())],
    };
    let mut failures = Vec::new();
    for (i, (whole, split)) in batched.iter().zip(&split).enumerate() {
        if whole != split {
            failures.push(format!(
                "a batch split at window {split_at} diverged from the unsplit batch on sibling \
                 {i}/{} (split committed {} vs {})",
                configs.len(),
                split.committed,
                whole.committed,
            ));
        }
    }
    for (i, (config, batch_result)) in configs.iter().zip(&batched).enumerate() {
        let scalar = match Simulator::new(config.clone()) {
            Ok(mut sim) => sim.run(&mut profile.trace(trace_seed), cycles),
            Err(e) => {
                failures.push(format!("batch sibling {i} scalar setup failed: {e}"));
                continue;
            }
        };
        if *batch_result != scalar {
            failures.push(format!(
                "batched execution diverged from scalar on sibling {i}/{} \
                 (batch committed {} vs scalar {}, hottest {:.3} K vs {:.3} K)",
                configs.len(),
                batch_result.committed,
                scalar.committed,
                batch_result.hottest().last,
                scalar.hottest().last,
            ));
        }
    }
    failures
}

/// Runs the siblings as one batch over `trace()` for `cycles`, then again
/// split after `at` windows if the batch has forked by then: the split-off
/// classes finish on another thread while the rest finish here. Returns
/// both runs' results in sibling order.
fn batch_runs<T: Detach + Clone>(
    configs: &[SimConfig],
    trace: impl Fn() -> T,
    cycles: u64,
    at: u64,
) -> Result<(Vec<RunResult>, Vec<RunResult>), powerbalance::Error>
where
    BatchPart<T>: Send,
{
    let whole = BatchSimulator::new(configs.to_vec(), trace())?.run(cycles);
    let mut batch = BatchSimulator::new(configs.to_vec(), trace())?;
    let before = (at * configs[0].sample_interval).min(cycles);
    batch.run(before);
    let part = batch.split_off();
    let mut split: Vec<(usize, RunResult)> = std::thread::scope(|scope| {
        let moved = part.map(|part| {
            scope.spawn(move || {
                let mut batch = part.attach();
                let results = batch.run(cycles - before);
                batch.siblings().iter().copied().zip(results).collect::<Vec<_>>()
            })
        });
        let kept = batch.run(cycles - before);
        let mut all: Vec<_> = batch.siblings().iter().copied().zip(kept).collect();
        if let Some(moved) = moved {
            all.extend(moved.join().unwrap_or_else(|panic| panic::resume_unwind(panic)));
        }
        all
    });
    split.sort_by_key(|&(sibling, _)| sibling);
    Ok((whole, split.into_iter().map(|(_, result)| result).collect()))
}

/// Runs the seed's case through the multi-core engine with the checker
/// armed on every lane (cross-core energy invariants included on dies of
/// two or more cores). 1-core draws under a placing scheduler are also
/// cross-checked bitwise against the scalar simulator. Returns the
/// failure descriptions (empty when clean).
fn multicore_cross_check(
    seed: u64,
    base: &SimConfig,
    bench: &str,
    trace_seed: u64,
    cycles: u64,
) -> Vec<String> {
    let shape = derive_multicore_case(seed);
    let profile = match spec2000::by_name(bench) {
        Some(p) => p,
        None => return vec![format!("unknown bench {bench}")],
    };
    let config = SimConfig { cores: shape.cores, scheduler: shape.scheduler, ..base.clone() };
    let mut sim = match MultiCoreSimulator::new(config) {
        Ok(sim) => sim,
        Err(e) => return vec![format!("multicore setup failed ({shape:?}): {e}")],
    };
    if let Err(e) = sim.enable_checking() {
        return vec![format!("multicore checking setup failed ({shape:?}): {e}")];
    }
    // One unbounded job per core; each lane gets its own trace stream.
    let mut tasks = TaskSet::new(
        (0..shape.cores)
            .map(|c| Task::unbounded(c as u64, profile.trace(trace_seed.wrapping_add(c as u64)))),
    );
    let result = sim.run(&mut tasks, cycles);
    let mut failures: Vec<String> = sim
        .finish_checking()
        .iter()
        .take(8)
        .map(|v| format!("multicore ({shape:?}): {v}"))
        .collect();
    // A threshold scheduler may legitimately defer the only segment and
    // idle-cool, so the bitwise contract covers the placing schedulers.
    if shape.cores == 1 && shape.scheduler != SchedulerKind::Threshold && failures.is_empty() {
        let scalar = match Simulator::new(base.clone()) {
            Ok(mut sim) => sim.run(&mut profile.trace(trace_seed), cycles),
            Err(e) => return vec![format!("multicore scalar reference setup failed: {e}")],
        };
        if result.cores[0] != scalar {
            failures.push(format!(
                "1-core multicore run diverged from scalar under {:?} \
                 (multi committed {} vs scalar {}, hottest {:.3} K vs {:.3} K)",
                shape.scheduler,
                result.cores[0].committed,
                scalar.committed,
                result.cores[0].hottest().last,
                scalar.hottest().last,
            ));
        }
    }
    failures
}

/// Greedy shrink: halve the cycle budget while the failure reproduces.
fn shrink(seed: u64, config: &SimConfig, bench: &str, trace_seed: u64, mut cycles: u64) -> u64 {
    while cycles / 2 >= MIN_CYCLES {
        if run_case(seed, config, bench, trace_seed, cycles / 2).is_err() {
            cycles /= 2;
        } else {
            break;
        }
    }
    cycles
}

fn replay(path: &PathBuf) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {}: {e}", path.display());
        std::process::exit(2);
    });
    let case: FailingCase = json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("error: parsing {}: {e}", path.display());
        std::process::exit(2);
    });
    eprintln!(
        "replaying seed {} ({} on {:?}, {} cycles)...",
        case.seed, case.bench, case.config.floorplan, case.cycles
    );
    match run_case(case.seed, &case.config, &case.bench, case.trace_seed, case.cycles) {
        Ok(()) => {
            eprintln!("case no longer reproduces: run is clean");
            std::process::exit(0);
        }
        Err(failure) => {
            for line in &failure {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.replay {
        replay(path);
    }

    // A checked run that trips an invariant may panic deep in the stack
    // (e.g. an index derived from corrupt state); the default hook would
    // spray a backtrace per seed, so silence it — `run_case` reports the
    // payload itself.
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let mut failures = 0u64;
    for seed in args.start_seed..args.start_seed + args.seeds {
        let (config, bench, trace_seed) = derive_case(seed);
        debug_assert!(config.validate().is_ok(), "seed {seed} derived an invalid config");
        match run_case(seed, &config, &bench, trace_seed, args.cycles) {
            Ok(()) => {
                if (seed + 1 - args.start_seed).is_multiple_of(25) {
                    eprintln!("  {}/{} seeds clean", seed + 1 - args.start_seed, args.seeds);
                }
            }
            Err(_) => {
                failures += 1;
                let cycles = shrink(seed, &config, &bench, trace_seed, args.cycles);
                let failure = run_case(seed, &config, &bench, trace_seed, cycles)
                    .expect_err("shrunk case fails");
                eprintln!(
                    "seed {seed} FAILED ({bench} on {:?}, shrunk to {cycles} cycles):",
                    config.floorplan
                );
                for line in &failure {
                    eprintln!("  {line}");
                }
                let case = FailingCase {
                    schema: "powerbalance-fuzz-case/v1".to_string(),
                    seed,
                    bench,
                    trace_seed,
                    cycles,
                    config,
                    failure,
                };
                let path = args.artifact_dir.join(format!("fuzz-seed-{seed}.json"));
                let _ = std::fs::create_dir_all(&args.artifact_dir);
                match std::fs::write(&path, json::to_string_pretty(&case)) {
                    Ok(()) => eprintln!("  wrote {}", path.display()),
                    Err(e) => eprintln!("  error writing {}: {e}", path.display()),
                }
            }
        }
    }
    panic::set_hook(default_hook);

    if failures > 0 {
        eprintln!("{failures}/{} seeds failed", args.seeds);
        std::process::exit(1);
    }
    eprintln!("all {} seeds clean", args.seeds);
}
