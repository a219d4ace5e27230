//! `batch-sweep`: `harness::run_campaign_controlled` over the six policy
//! families on the issue-constrained floorplan × gzip, mesa, mcf and eon
//! (the shape of ablation 5), 1M cycles per job after a 200k-cycle shared
//! warmup, on a pool of two threads with the default batch width.
//!
//! The only workload that exercises lockstep sharing, class forks, the
//! batched thermal solve, warm-start snapshots and the pool. gzip and mcf
//! never fork; eon forks heavily.

use crate::calibrate;
use crate::layers::{self, Engine, ScalarJob, Service};
use crate::probes;
use crate::report::{check_digests, check_result, digest, Checks, Outcome, Round, Rounds};
use crate::stats::{median, peak_rss_mib, reset_peak_rss};
use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{BatchSimulator, FloorplanKind, RunResult, SimConfig, TraceCursor};
use powerbalance_harness::{
    plan_units, run_campaign_controlled, CampaignControl, CampaignOutcome, CampaignResult,
    CampaignSpec, RunnerOptions, WarmStartCache,
};
use std::time::Instant;

const BENCHMARKS: [&str; 4] = ["gzip", "mesa", "mcf", "eon"];
const CYCLES: u64 = 1_000_000;
const WARMUP: u64 = 200_000;
/// One worker per host CPU of the reference machine.
const THREADS: usize = 2;
/// Calibration samples before and after each round's timed campaign.
const CAL_SAMPLES: usize = 3;

fn spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("batch-sweep")
        .benchmarks(BENCHMARKS)
        .cycles(CYCLES)
        .warmup(WARMUP)
        .seed(seed);
    for kind in PolicyKind::ALL {
        spec = spec.config(kind.name(), experiments::policy(kind, FloorplanKind::IssueConstrained));
    }
    spec
}

fn options() -> RunnerOptions {
    RunnerOptions { threads: Some(THREADS), ..RunnerOptions::default() }
}

/// Set-up: a fresh warm-start cache holding every benchmark's warmup, so
/// the timed campaign measures the batched runs, not the warmups.
fn setup(spec: &CampaignSpec) -> Result<WarmStartCache, String> {
    let cache = WarmStartCache::in_memory();
    for bench in &spec.benchmarks {
        cache
            .get_or_compute(bench, spec.seed, spec.warmup_cycles, &spec.configs[0].config)
            .map_err(|e| e.to_string())?;
    }
    Ok(cache)
}

fn campaign(spec: &CampaignSpec, cache: &WarmStartCache) -> Result<CampaignResult, String> {
    let control = CampaignControl::new();
    match run_campaign_controlled(spec, &options(), &control, None, Some(cache)) {
        Ok(CampaignOutcome::Completed(result)) => Ok(result),
        Ok(other) => Err(format!("campaign did not complete: {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// One operation per job: the full budget ran and temperatures are sane.
fn check_jobs(spec: &CampaignSpec, result: &CampaignResult, checks: &mut Checks) {
    if result.jobs.len() != spec.job_count() {
        checks.run(Err(format!("{} of {} jobs reported", result.jobs.len(), spec.job_count())));
    }
    for job in &result.jobs {
        let what = format!("{} {}", job.bench, job.config);
        let ambient = spec.configs[job.config_index].config.package.ambient;
        checks.op(check_result(&what, &job.result, WARMUP + CYCLES, ambient));
    }
}

fn results(result: &CampaignResult) -> Vec<RunResult> {
    result.jobs.iter().map(|j| j.result.clone()).collect()
}

/// The timed run: `rounds` rounds of set-up then one campaign.
///
/// # Errors
///
/// Returns a message if a warmup or the campaign fails to run.
pub fn timed(seed: u64, rounds: usize) -> Result<Outcome, String> {
    let spec = spec(seed);
    let mut timing = Rounds::default();
    let mut checks = Checks::default();
    let mut digests = Vec::new();
    for _ in 0..rounds {
        reset_peak_rss();
        let mut round = Round::default();
        round.cal_s.extend((0..CAL_SAMPLES).map(|_| calibrate::sample(THREADS)));
        let t = Instant::now();
        let cache = setup(&spec)?;
        round.setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let result = campaign(&spec, &cache)?;
        round.wall_s = t.elapsed().as_secs_f64();
        round.op_s.push(round.wall_s);
        round.cal_s.extend((0..CAL_SAMPLES).map(|_| calibrate::sample(THREADS)));
        round.peak_rss_mib = peak_rss_mib()?;
        timing.rounds.push(round);
        timing.cycles = result.jobs.iter().map(|j| j.result.cycles - WARMUP).sum();
        check_jobs(&spec, &result, &mut checks);
        digests.push(digest(&results(&result)));
    }
    checks.run(check_digests(&digests));
    Ok(Outcome {
        header: format!("workload batch-sweep  seed {seed}  rounds {rounds}  trace off"),
        metrics: timing.end_to_end(),
        checks,
        digest: digests[0],
    })
}

/// The traced run: one campaign, then each of its lockstep units replayed
/// window by window through `BatchSimulator`, then the traced layer pass
/// over each benchmark's representative class (policy `none`).
///
/// # Errors
///
/// Returns a message if a warmup, the campaign, or a replay fails to run.
pub fn traced(seed: u64) -> Result<Outcome, String> {
    let spec = spec(seed);
    let mut checks = Checks::default();
    let cache = setup(&spec)?;
    let result = campaign(&spec, &cache)?;
    let (warmups_computed, _, cache_hits) = cache.stats();
    check_jobs(&spec, &result, &mut checks);
    let busy: u64 = result.jobs.iter().map(|j| j.wall_nanos).sum();
    let pool_busy_frac = busy as f64 / (result.threads as f64 * result.wall_nanos as f64);

    let engine = replay(&spec, &cache, &result, &mut checks)?;

    let ncfg = spec.configs.len();
    let jobs: Vec<ScalarJob> = BENCHMARKS
        .iter()
        .enumerate()
        .map(|(b, &bench)| {
            let config = spec.configs[0].config.clone();
            let warm =
                cache.get_or_compute(bench, seed, WARMUP, &config).map_err(|e| e.to_string())?;
            Ok(ScalarJob {
                config,
                bench,
                seed,
                cycles: CYCLES,
                warm: Some(warm),
                expect: Some(result.jobs[b * ncfg].result.clone()),
            })
        })
        .collect::<Result<_, String>>()?;
    let pass = layers::pass(&jobs, &mut checks)?;

    let document = result.to_json();
    let service = Service {
        pool_busy_frac,
        warmups_computed,
        cache_hits,
        result_decode_us: probes::result_decode_us(&document)?,
        result_bytes: document.len() as f64,
        ..Service::default()
    };
    Ok(Outcome {
        header: format!("workload batch-sweep  seed {seed}  trace on"),
        metrics: layers::metrics(&pass, &engine, &service),
        checks,
        digest: digest(&results(&result)),
    })
}

/// Replays every lockstep unit of the campaign directly: restore the
/// shared warm snapshot into a `BatchSimulator` and step it one sampling
/// window per call, watching the class count. The replayed results must
/// equal the campaign's.
fn replay(
    spec: &CampaignSpec,
    cache: &WarmStartCache,
    campaign: &CampaignResult,
    checks: &mut Checks,
) -> Result<Engine, String> {
    let ncfg = spec.configs.len();
    let mut window_us = Vec::new();
    let (mut engine_ns, mut cycles) = (0u64, 0u64);
    let (mut class_windows, mut sibling_windows, mut forks) = (0u64, 0u64, 0u64);
    for unit in plan_units(spec, options().max_batch) {
        let bench = &spec.benchmarks[unit[0] / ncfg];
        let configs: Vec<SimConfig> =
            unit.iter().map(|&i| spec.configs[i % ncfg].config.clone()).collect();
        let snapshot = cache
            .get_or_compute(bench, spec.seed, WARMUP, &configs[0])
            .map_err(|e| e.to_string())?;
        let (_, trace) =
            snapshot.resume_with_config(configs[0].clone()).map_err(|e| e.to_string())?;
        let interval = configs[0].sample_interval;
        let mut batch =
            BatchSimulator::new(configs, TraceCursor::new(trace)).map_err(|e| e.to_string())?;
        batch.restore_state(&snapshot.state).map_err(|e| e.to_string())?;
        let mut classes = batch.class_count();
        let mut left = CYCLES;
        while left > 0 {
            let n = interval.min(left);
            let t = Instant::now();
            batch.run(n);
            let ns = t.elapsed().as_nanos() as u64;
            engine_ns += ns;
            window_us.push(ns as f64 / 1e3);
            class_windows += batch.class_count() as u64;
            sibling_windows += batch.len() as u64;
            forks += (batch.class_count() - classes) as u64;
            classes = batch.class_count();
            left -= n;
        }
        let replayed = batch.results();
        cycles += replayed.iter().map(|r| r.cycles - WARMUP).sum::<u64>();
        let same = unit.iter().zip(&replayed).all(|(&i, r)| campaign.jobs[i].result == *r);
        checks.run(if same {
            Ok(())
        } else {
            Err(format!("{bench}: BatchSimulator replay differs from the campaign"))
        });
    }
    Ok(Engine {
        cycles_per_s: cycles as f64 / (engine_ns as f64 / 1e9),
        window_us_p50: median(&window_us),
        class_windows,
        forks,
        sharing: sibling_windows as f64 / class_windows.max(1) as f64,
    })
}
