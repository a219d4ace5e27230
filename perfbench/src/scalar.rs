//! `exact-scalar` and `fast-interval`: the paper's three mitigation-active
//! summary configurations (the ones `--bin fidelity` runs) on gzip, mesa
//! and mcf, nine `Simulator` jobs one after another on one thread.

use crate::calibrate;
use crate::layers::{self, Engine, ScalarJob, Service};
use crate::probes;
use crate::report::{check_digests, check_result, digest, Checks, Outcome, Round, Rounds};
use crate::stats::{peak_rss_mib, reset_peak_rss};
use powerbalance::experiments::{self, AluPolicy};
use powerbalance::{Fidelity, MappingPolicy, RunResult, SimConfig};
use powerbalance_harness::{CampaignResult, CampaignSpec, JobResult};
use std::time::Instant;

/// Integer, floating-point, and memory-bound (working set beyond the
/// modelled caches): the three behaviour classes of the suite.
const BENCHMARKS: [&str; 3] = ["gzip", "mesa", "mcf"];

/// Set-up repetitions per round: building nine engines takes a few
/// milliseconds, so one sample per round would be mostly noise.
const SETUP_REPEATS: usize = 3;

/// The paper's techniques, each on the floorplan it relieves.
fn configs() -> [(&'static str, SimConfig); 3] {
    [
        ("iq-toggling", experiments::issue_queue(true)),
        ("alu-fine-grain", experiments::alu(AluPolicy::FineGrainTurnoff)),
        ("rf-fg-priority", experiments::regfile(MappingPolicy::Priority, true)),
    ]
}

/// Cycles per job: the paper's budget under Exact; under Fast a budget
/// long enough for the detailed prefix to amortize.
fn cycles(fidelity: Fidelity) -> u64 {
    match fidelity {
        Fidelity::Exact => 1_000_000,
        Fidelity::Fast => 16_000_000,
    }
}

/// The nine jobs, benchmark-major.
fn jobs(fidelity: Fidelity, seed: u64) -> Vec<ScalarJob> {
    BENCHMARKS
        .iter()
        .flat_map(|&bench| {
            configs().into_iter().map(move |(_, config)| ScalarJob {
                config: SimConfig { fidelity, ..config },
                bench,
                seed,
                cycles: cycles(fidelity),
                warm: None,
                expect: None,
            })
        })
        .collect()
}

fn label(fidelity: Fidelity) -> &'static str {
    match fidelity {
        Fidelity::Exact => "exact-scalar",
        Fidelity::Fast => "fast-interval",
    }
}

/// The timed run: `rounds` rounds of set-up then the nine jobs.
///
/// # Errors
///
/// Returns a message if a job cannot be built.
pub fn timed(fidelity: Fidelity, seed: u64, rounds: usize) -> Result<Outcome, String> {
    let jobs = jobs(fidelity, seed);
    let mut timing = Rounds::default();
    let mut checks = Checks::default();
    let mut digests = Vec::new();
    for _ in 0..rounds {
        reset_peak_rss();
        let mut round = Round::default();
        let mut engines = Vec::new();
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            engines = jobs.iter().map(ScalarJob::start).collect::<Result<Vec<_>, _>>()?;
            round.setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut results = Vec::new();
        for (sim, trace) in &mut engines {
            round.cal_s.push(calibrate::sample(1));
            let t = Instant::now();
            results.push(sim.run(trace, cycles(fidelity)));
            round.op_s.push(t.elapsed().as_secs_f64());
        }
        // The round is its jobs back to back; the kernel runs between them.
        round.wall_s = round.op_s.iter().sum();
        round.peak_rss_mib = peak_rss_mib()?;
        timing.rounds.push(round);
        timing.cycles = results.iter().map(|r| r.cycles).sum();
        for (i, (job, result)) in jobs.iter().zip(&results).enumerate() {
            let what = format!("{} {}", job.bench, configs()[i % 3].0);
            checks.op(check_result(&what, result, job.cycles, job.config.package.ambient));
        }
        digests.push(digest(&results));
    }
    checks.run(check_digests(&digests));
    Ok(Outcome {
        header: format!("workload {}  seed {seed}  rounds {rounds}  trace off", label(fidelity)),
        metrics: timing.end_to_end(),
        checks,
        digest: digests[0],
    })
}

/// The traced run: the nine jobs through the traced layer pass.
///
/// # Errors
///
/// Returns a message if a job cannot be built or a probe fails.
pub fn traced(fidelity: Fidelity, seed: u64) -> Result<Outcome, String> {
    let jobs = jobs(fidelity, seed);
    let mut checks = Checks::default();
    let pass = layers::pass(&jobs, &mut checks)?;
    let document = campaign_document(&jobs, &pass.results, seed).to_json();
    let service = Service {
        // One thread runs the jobs back to back: it is never idle.
        pool_busy_frac: 1.0,
        result_decode_us: probes::result_decode_us(&document)?,
        result_bytes: document.len() as f64,
        ..Service::default()
    };
    let metrics = layers::metrics(&pass, &Engine::scalar(&pass), &service);
    Ok(Outcome {
        header: format!("workload {}  seed {seed}  trace on", label(fidelity)),
        metrics,
        checks,
        digest: digest(&pass.results),
    })
}

/// The nine results as the campaign document a server would return for
/// them (the jobs are a benchmark-major grid, so they form one campaign).
fn campaign_document(jobs: &[ScalarJob], results: &[RunResult], seed: u64) -> CampaignResult {
    let mut spec = CampaignSpec::new(label(jobs[0].config.fidelity))
        .benchmarks(BENCHMARKS)
        .cycles(jobs[0].cycles)
        .seed(seed);
    let fidelity = jobs[0].config.fidelity;
    for (name, config) in configs() {
        spec = spec.config(name, SimConfig { fidelity, ..config });
    }
    let ncfg = spec.configs.len();
    let jobs = results
        .iter()
        .enumerate()
        .map(|(i, result)| JobResult {
            bench: spec.benchmarks[i / ncfg].clone(),
            config: spec.configs[i % ncfg].name.clone(),
            bench_index: i / ncfg,
            config_index: i % ncfg,
            seed,
            cycles_requested: spec.cycles,
            wall_nanos: 0,
            sim_cycles_per_sec: 0.0,
            result: result.clone(),
        })
        .collect();
    CampaignResult { spec, threads: 1, wall_nanos: 0, jobs }
}
