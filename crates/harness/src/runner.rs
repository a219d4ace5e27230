//! The bounded parallel campaign runner.

use crate::result::{CampaignResult, JobResult};
use crate::spec::CampaignSpec;
use crate::warmstart::{WarmStartCache, WarmupOutcome};
use powerbalance::{
    batch_key, spec2000, BatchSimulator, Error, Fidelity, MultiCoreSimulator, RunControl,
    RunResult, SimConfig, Snapshot, StopCause, Task, TaskSet, TraceCursor, TraceSource,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable consulted for the worker-pool size when no explicit
/// thread count is given.
pub const THREADS_ENV_VAR: &str = "POWERBALANCE_THREADS";

/// Options controlling how a campaign is executed (not *what* it computes —
/// that lives in [`CampaignSpec`]).
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker-pool size; `None` falls back to [`THREADS_ENV_VAR`], then
    /// [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
    /// Emit one progress line per finished job on stderr.
    pub progress: bool,
    /// Share one warmup snapshot across jobs whose `(benchmark, seed,
    /// warmup budget, config-modulo-mitigation)` match (default `true`).
    /// With `false`, every job computes its own warmup privately — same
    /// results, no sharing; useful for timing comparisons and as the
    /// differential oracle for the cache itself. Irrelevant when
    /// [`CampaignSpec::warmup_cycles`] is 0.
    pub warm_cache: bool,
    /// Directory to persist warmup snapshots in (and, with
    /// [`resume`](RunnerOptions::resume), load them from). `None` keeps
    /// the cache purely in-memory. Only consulted when `warm_cache` is on.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load matching snapshots from `checkpoint_dir` instead of
    /// recomputing them (a mismatched or unreadable file silently falls
    /// back to computation).
    pub resume: bool,
    /// Upper bound on how many batch-eligible jobs — same benchmark, same
    /// measured cycle budget, configurations identical outside
    /// `mitigation` (see [`powerbalance::batch_key`]) — execute together
    /// in one lockstep [`BatchSimulator`] unit (default 6). `1` disables
    /// batching. Batched and scalar execution are bit-identical (pinned by
    /// the differential test layer), so this trades scheduling granularity
    /// against wall-clock throughput, never results.
    pub max_batch: usize,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            threads: None,
            progress: false,
            warm_cache: true,
            checkpoint_dir: None,
            resume: false,
            max_batch: 6,
        }
    }
}

/// Resolves the worker-pool size: `explicit` if given (clamped to at least
/// 1), else the [`THREADS_ENV_VAR`] environment variable if set to a
/// positive integer, else [`std::thread::available_parallelism`].
///
/// An env-var value that is not a positive integer (`0`, garbage, empty)
/// warns on stderr and falls back to the automatic count — the same
/// clamp-to-usable behavior the explicit-flag path has, instead of
/// silently ignoring the variable.
#[must_use]
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    resolve_threads_from(explicit, std::env::var(THREADS_ENV_VAR).ok().as_deref())
}

/// [`resolve_threads`] with the environment read factored out for
/// testability (mutating real process environment races parallel tests).
fn resolve_threads_from(explicit: Option<usize>, env: Option<&str>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Some(raw) = env {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!(
                "warning: {THREADS_ENV_VAR}='{raw}' is not a positive integer; \
                 falling back to the automatic thread count"
            ),
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one (benchmark × config) simulation outside any campaign: builds a
/// fresh simulator, seeds the workload trace, runs for `cycles`.
///
/// # Errors
///
/// Returns [`Error::Config`] if the benchmark is unknown or the config
/// fails validation.
pub fn run_one(
    config: &SimConfig,
    bench: &str,
    cycles: u64,
    seed: u64,
) -> Result<RunResult, Error> {
    run_one_warmed(config, bench, cycles, seed, 0, None)
}

/// Like [`run_one`], but preceded by `warmup_cycles` of mitigation-free
/// warmup, optionally forked from a shared [`WarmStartCache`].
///
/// With a cache, the warmup snapshot is computed (or loaded) at most once
/// per key and the measured run resumes from it under this job's own
/// mitigation config. Without one, the warmup runs inline, uninterrupted,
/// on the job's own simulator — no snapshot is ever taken. Both paths
/// produce bit-identical results (warmup never consults the mitigation
/// manager, and restore is exact); the differential test layer pins that
/// equivalence, which is what makes the cold path the oracle for the
/// cache.
///
/// # Errors
///
/// Returns [`Error::Config`] if the benchmark is unknown or the config
/// fails validation.
pub fn run_one_warmed(
    config: &SimConfig,
    bench: &str,
    cycles: u64,
    seed: u64,
    warmup_cycles: u64,
    cache: Option<&WarmStartCache>,
) -> Result<RunResult, Error> {
    run_one_warmed_controlled(
        config,
        bench,
        cycles,
        seed,
        warmup_cycles,
        cache,
        &RunControl::unlimited(),
    )
    .map(|(result, _)| result)
}

/// Like [`run_one_warmed`], but threads a [`RunControl`] (cancellation
/// flag and/or deadline) through the warmup and measured phases, both of
/// which check it between sampling windows.
///
/// The *shared* cached warmup observes the control too
/// ([`WarmStartCache::get_or_compute_controlled`]): a job stopped while
/// blocked on (or computing) a shared warmup returns promptly with the
/// stop cause and an empty result, and the half-warmed state is discarded
/// rather than cached.
///
/// Multi-core configs (`cores > 1`) run the multi-core engine: one
/// unbounded instance of the benchmark per core (seeds `seed..seed+N`),
/// warmup inline, reporting the merged die-level result (`C{c}.`-prefixed
/// block names).
///
/// # Errors
///
/// Returns [`Error::Config`] if the benchmark is unknown or the config
/// fails validation.
pub fn run_one_warmed_controlled(
    config: &SimConfig,
    bench: &str,
    cycles: u64,
    seed: u64,
    warmup_cycles: u64,
    cache: Option<&WarmStartCache>,
    control: &RunControl<'_>,
) -> Result<(RunResult, StopCause), Error> {
    let (mut results, cause) =
        run_unit(std::slice::from_ref(config), bench, cycles, seed, warmup_cycles, cache, control)?;
    Ok((results.remove(0), cause))
}

/// Runs K batch-eligible sibling jobs in one lockstep [`BatchSimulator`]:
/// the batched mirror of [`run_one_warmed_controlled`], bit-identical to
/// calling it K times with the same arguments.
///
/// All `configs` must share a [`powerbalance::batch_key`] (same benchmark
/// trace, core, floorplan, package, energy tables, cadence, fidelity —
/// only `mitigation` may differ). Results come back in `configs` order. A
/// stop (cancel/timeout) stops the whole batch at the same window
/// boundary, so every sibling's partial statistics cover the same
/// simulated span.
///
/// # Errors
///
/// Returns [`Error::Config`] if the benchmark is unknown, a config fails
/// validation, or the configs are not batch-eligible siblings.
pub fn run_batch_warmed_controlled(
    configs: &[SimConfig],
    bench: &str,
    cycles: u64,
    seed: u64,
    warmup_cycles: u64,
    cache: Option<&WarmStartCache>,
    control: &RunControl<'_>,
) -> Result<(Vec<RunResult>, StopCause), Error> {
    run_unit(configs, bench, cycles, seed, warmup_cycles, cache, control)
}

/// The one unit runner: K sibling configs (K = 1 for a lone job) over one
/// seeded benchmark trace, warmed, then measured under `control`.
///
/// Single-core units run as a lockstep [`BatchSimulator`] — a one-sibling
/// batch is the scalar engine. With a cache, one shared warmup snapshot
/// (interruptibly computed) is restored into the unforked batch; without
/// one, the batch runs the mitigation-free warmup inline. Under Exact
/// fidelity siblings that may fork share generated micro-ops through a
/// [`TraceCursor`] ring; otherwise each die keeps a private generator
/// clone, so skipped intervals stay O(1). Multi-core units (one config)
/// run the multi-core engine; the warm-start cache only holds
/// single-core snapshots, so their warmup runs inline.
fn run_unit(
    configs: &[SimConfig],
    bench: &str,
    cycles: u64,
    seed: u64,
    warmup_cycles: u64,
    cache: Option<&WarmStartCache>,
    control: &RunControl<'_>,
) -> Result<(Vec<RunResult>, StopCause), Error> {
    let profile = spec2000::by_name(bench)
        .ok_or_else(|| Error::Config(format!("unknown benchmark '{bench}'")))?;
    let Some(first) = configs.first() else {
        return Err(Error::Config("a batch needs at least one sibling configuration".into()));
    };
    if first.cores > 1 {
        if configs.len() > 1 {
            return Err(Error::Config("multi-core jobs run one per unit".into()));
        }
        let mut sim = MultiCoreSimulator::new(first.clone())?;
        let mut tasks = TaskSet::new(
            (0..first.cores)
                .map(|c| Task::unbounded(c as u64, profile.trace(seed.wrapping_add(c as u64)))),
        );
        let mut cause = sim.run_warmup_controlled(&mut tasks, warmup_cycles, control);
        if cause.is_completed() {
            cause = sim.run_controlled(&mut tasks, cycles, control).1;
        }
        return Ok((vec![sim.result().merged()], cause));
    }
    let warm = match cache {
        Some(cache) if warmup_cycles > 0 => {
            match cache.get_or_compute_controlled(bench, seed, warmup_cycles, first, control)? {
                WarmupOutcome::Ready(snapshot) => Some(snapshot),
                WarmupOutcome::Stopped(cause) => {
                    // Nothing ran; report every sibling's empty result.
                    let batch = BatchSimulator::new(configs.to_vec(), profile.trace(seed))?;
                    return Ok((batch.results(), cause));
                }
            }
        }
        _ => None,
    };
    // `resume_with_config` validates structural compatibility and rebuilds
    // the trace at its post-warmup position.
    let trace = match &warm {
        Some(snapshot) => snapshot.resume_with_config(first.clone())?.1,
        None => profile.trace(seed),
    };
    let warmup = if warm.is_some() { 0 } else { warmup_cycles };
    if first.fidelity == Fidelity::Exact && configs.len() > 1 {
        batch_over(configs, TraceCursor::new(trace), warm.as_deref(), warmup, cycles, control)
    } else {
        batch_over(configs, trace, warm.as_deref(), warmup, cycles, control)
    }
}

/// Monomorphized body of [`run_unit`]: build, optionally warm (restore or
/// inline warmup), then run under `control`.
fn batch_over<T: TraceSource + Clone>(
    configs: &[SimConfig],
    trace: T,
    warm: Option<&Snapshot>,
    warmup_cycles: u64,
    cycles: u64,
    control: &RunControl<'_>,
) -> Result<(Vec<RunResult>, StopCause), Error> {
    let mut batch = BatchSimulator::new(configs.to_vec(), trace)?;
    if let Some(snapshot) = warm {
        batch.restore_state(&snapshot.state)?;
    }
    let cause = batch.run_warmup_controlled(warmup_cycles, control);
    if !cause.is_completed() {
        return Ok((batch.results(), cause));
    }
    Ok(batch.run_controlled(cycles, control))
}

/// Summary of one finished job, exposed as live progress while a
/// controlled campaign is still running (the server's `GET
/// /v1/campaigns/<id>` endpoint reports these).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProgress {
    /// Benchmark name.
    pub bench: String,
    /// Config name.
    pub config: String,
    /// The job's IPC.
    pub ipc: f64,
    /// Host wall-clock time the job took, in nanoseconds.
    pub wall_nanos: u64,
}

/// Shared cancellation + live progress for one controlled campaign.
///
/// The submitting side keeps a handle (typically in an `Arc`): calling
/// [`cancel`](CampaignControl::cancel) stops every worker at its next
/// sampling-window boundary, and [`progress`](CampaignControl::progress) /
/// [`finished_jobs`](CampaignControl::finished_jobs) observe completion
/// without touching the runner.
#[derive(Debug, Default)]
pub struct CampaignControl {
    cancel: AtomicBool,
    total: AtomicUsize,
    completed: AtomicUsize,
    finished: Mutex<Vec<JobProgress>>,
}

impl CampaignControl {
    /// A fresh control with no progress and the cancel flag clear.
    #[must_use]
    pub fn new() -> Self {
        CampaignControl::default()
    }

    /// Requests cooperative cancellation: every in-flight job stops at its
    /// next sampling-window boundary and no new jobs start.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The raw cancellation flag, for wiring into a [`RunControl`].
    #[must_use]
    pub fn cancel_flag(&self) -> &AtomicBool {
        &self.cancel
    }

    /// Records the campaign's job count before it starts running, so
    /// observers of a still-queued campaign see a meaningful total.
    pub fn set_total(&self, total: usize) {
        self.total.store(total, Ordering::Relaxed);
    }

    /// `(completed, total)` job counts. Total is 0 until
    /// [`set_total`](CampaignControl::set_total) or the runner records it.
    #[must_use]
    pub fn progress(&self) -> (usize, usize) {
        (self.completed.load(Ordering::Relaxed), self.total.load(Ordering::Relaxed))
    }

    /// Snapshots the finished jobs so far, in completion order.
    #[must_use]
    pub fn finished_jobs(&self) -> Vec<JobProgress> {
        self.finished.lock().expect("no recorder panics holding this lock").clone()
    }

    fn record(&self, progress: JobProgress) {
        self.finished.lock().expect("no recorder panics holding this lock").push(progress);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// How a controlled campaign ended.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// Every job ran to completion.
    Completed(CampaignResult),
    /// Cancellation was requested; in-flight jobs stopped at a window
    /// boundary and their partial results were discarded.
    Cancelled,
    /// A job exceeded the per-job wall-clock timeout. The rest of the
    /// campaign was aborted.
    TimedOut {
        /// Benchmark of the job that timed out.
        bench: String,
        /// Config name of the job that timed out.
        config: String,
    },
}

/// Runs every (benchmark × config) job of `spec` on a bounded worker pool
/// and returns the results in deterministic spec order.
///
/// Jobs are first grouped into execution *units*: batch-eligible siblings
/// (same benchmark and cycle budget, configs identical outside
/// `mitigation`) run together in one lockstep [`BatchSimulator`], up to
/// [`RunnerOptions::max_batch`] per unit; everything else runs on the
/// scalar path. Workers pull units from a shared atomic cursor, so
/// scheduling stays fine-grained: a slow benchmark on one config does not
/// serialize the rest of the campaign behind it. Each finished job lands
/// in its own result slot, indexed by position in the spec, so the output
/// order — and, since every simulation is seeded and batching is
/// bit-identical to scalar execution, the output *content* — is identical
/// whether the pool has one worker or many, batching or not.
///
/// # Errors
///
/// Returns [`Error::Config`] if the spec fails validation. Individual jobs
/// cannot fail after validation: every benchmark and config has already
/// been checked.
///
/// # Panics
///
/// Panics if a worker thread panics (the simulator itself is panic-free on
/// validated configs).
pub fn run_campaign(spec: &CampaignSpec, options: &RunnerOptions) -> Result<CampaignResult, Error> {
    let control = CampaignControl::new();
    match run_campaign_controlled(spec, options, &control, None, None)? {
        CampaignOutcome::Completed(result) => Ok(result),
        // With a private, never-cancelled control and no timeout, the only
        // possible outcome is completion.
        CampaignOutcome::Cancelled | CampaignOutcome::TimedOut { .. } => {
            unreachable!("private control is never cancelled and has no timeout")
        }
    }
}

/// [`run_campaign`] with cooperative controls for long-lived callers (the
/// simulation server): a shared [`CampaignControl`] for cancellation and
/// live progress, an optional per-job wall-clock timeout, and an optional
/// externally owned [`WarmStartCache`] shared across *campaigns* (the
/// per-campaign cache from [`RunnerOptions`] is used when `shared_cache`
/// is `None`).
///
/// A timeout on any job aborts the whole campaign (the job's partial
/// results are discarded), mirroring how a stuck request must release its
/// worker; cancellation does the same but reports
/// [`CampaignOutcome::Cancelled`].
///
/// # Errors
///
/// Returns [`Error::Config`] if the spec fails validation.
///
/// # Panics
///
/// Panics if a worker thread panics (the simulator itself is panic-free on
/// validated configs).
pub fn run_campaign_controlled(
    spec: &CampaignSpec,
    options: &RunnerOptions,
    control: &CampaignControl,
    job_timeout: Option<Duration>,
    shared_cache: Option<&WarmStartCache>,
) -> Result<CampaignOutcome, Error> {
    spec.validate()?;
    let total = spec.job_count();
    control.set_total(total);
    let ncfg = spec.configs.len();
    let units = plan_units(spec, options.max_batch);
    let threads = resolve_threads(options.threads).min(units.len()).max(1);

    let private_cache = if shared_cache.is_none() && spec.warmup_cycles > 0 && options.warm_cache {
        Some(match &options.checkpoint_dir {
            Some(dir) => WarmStartCache::with_checkpoint_dir(dir, options.resume),
            None => WarmStartCache::in_memory(),
        })
    } else {
        None
    };
    let cache = match shared_cache {
        Some(shared) if spec.warmup_cycles > 0 && options.warm_cache => Some(shared),
        _ => private_cache.as_ref(),
    };

    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
    // First job to time out wins the abort; later jobs just observe the
    // raised cancel flag.
    let timed_out: Mutex<Option<(String, String)>> = Mutex::new(None);

    let campaign_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if control.is_cancelled() {
                    break;
                }
                let unit_index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(unit_index) else {
                    break;
                };
                let bench_index = unit[0] / ncfg;
                let bench = &spec.benchmarks[bench_index];
                let cycles = spec.cycles_for(unit[0] % ncfg);

                let start = Instant::now();
                let mut run_control = RunControl::unlimited().with_cancel(control.cancel_flag());
                if let Some(timeout) = job_timeout {
                    run_control = run_control.with_deadline(start + timeout);
                }
                let configs: Vec<SimConfig> =
                    unit.iter().map(|&i| spec.configs[i % ncfg].config.clone()).collect();
                let (results, cause) = run_unit(
                    &configs,
                    bench,
                    cycles,
                    spec.seed,
                    spec.warmup_cycles,
                    cache,
                    &run_control,
                )
                .expect("spec was validated and grouped by batch key before dispatch");
                match cause {
                    StopCause::Completed => {}
                    StopCause::Cancelled => break,
                    StopCause::TimedOut => {
                        let mut slot =
                            timed_out.lock().expect("no worker panicked holding this lock");
                        if slot.is_none() {
                            *slot =
                                Some((bench.clone(), spec.configs[unit[0] % ncfg].name.clone()));
                        }
                        drop(slot);
                        // Pull every other worker out of its run too: the
                        // campaign is already lost.
                        control.cancel();
                        break;
                    }
                }
                // A batched unit's wall time is shared work: attribute an
                // equal share to each job so per-job throughput reflects
                // what the lockstep sharing actually bought.
                let wall = start.elapsed() / unit.len() as u32;
                let wall_secs = wall.as_secs_f64();

                for (&index, result) in unit.iter().zip(results) {
                    let config_index = index % ncfg;
                    let named = &spec.configs[config_index];
                    let sim_cycles_per_sec =
                        if wall_secs > 0.0 { result.cycles as f64 / wall_secs } else { 0.0 };

                    if options.progress {
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        let tag = if unit.len() > 1 {
                            format!(" [batch of {}]", unit.len())
                        } else {
                            String::new()
                        };
                        eprintln!(
                            "[{} {finished}/{total}] {bench}/{}: IPC {:.3}, {:.0} ms, \
                             {:.1} Mcyc/s{tag}",
                            spec.name,
                            named.name,
                            result.ipc,
                            wall_secs * 1e3,
                            sim_cycles_per_sec / 1e6,
                        );
                    }
                    control.record(JobProgress {
                        bench: bench.clone(),
                        config: named.name.clone(),
                        ipc: result.ipc,
                        wall_nanos: wall.as_nanos() as u64,
                    });

                    *slots[index].lock().expect("no worker panicked holding this lock") =
                        Some(JobResult {
                            bench: bench.clone(),
                            config: named.name.clone(),
                            bench_index,
                            config_index,
                            seed: spec.seed,
                            cycles_requested: cycles,
                            wall_nanos: wall.as_nanos() as u64,
                            sim_cycles_per_sec,
                            result,
                        });
                }
            });
        }
    });

    if let Some((bench, config)) =
        timed_out.into_inner().expect("no worker panicked holding this lock")
    {
        return Ok(CampaignOutcome::TimedOut { bench, config });
    }
    if control.is_cancelled() {
        return Ok(CampaignOutcome::Cancelled);
    }

    if options.progress {
        if let Some(cache) = cache {
            let (computed, loaded, hits) = cache.stats();
            eprintln!(
                "[{} warm-start] {computed} warmup(s) computed, {loaded} loaded from disk, \
                 {hits} cache hit(s)",
                spec.name
            );
        }
    }

    let jobs = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding this lock")
                .expect("every slot was filled before the scope ended")
        })
        .collect();
    Ok(CampaignOutcome::Completed(CampaignResult {
        spec: spec.clone(),
        threads,
        wall_nanos: campaign_start.elapsed().as_nanos() as u64,
        jobs,
    }))
}

/// Groups the spec's flat job indices into execution units: per benchmark,
/// config slots sharing a (serialized [`batch_key`], measured cycle
/// budget) pair batch together in first-appearance order, chunked to
/// `max_batch`; singleton groups fall through to the scalar path. With
/// `max_batch <= 1` every job is its own unit — the pre-batching
/// scheduler, verbatim.
pub fn plan_units(spec: &CampaignSpec, max_batch: usize) -> Vec<Vec<usize>> {
    let ncfg = spec.configs.len();
    let max = max_batch.max(1);
    let mut units = Vec::with_capacity(spec.job_count());
    for bench_index in 0..spec.benchmarks.len() {
        if max == 1 {
            units.extend((0..ncfg).map(|ci| vec![bench_index * ncfg + ci]));
            continue;
        }
        let mut groups: Vec<(String, u64, Vec<usize>)> = Vec::new();
        for config_index in 0..ncfg {
            // Multi-core jobs run the multi-core engine, which has its own
            // die-wide lockstep internally; keep them out of batch units.
            if spec.configs[config_index].config.cores > 1 {
                units.push(vec![bench_index * ncfg + config_index]);
                continue;
            }
            let key = serde::json::to_string(&batch_key(&spec.configs[config_index].config));
            let cycles = spec.cycles_for(config_index);
            match groups.iter_mut().find(|(k, c, _)| *k == key && *c == cycles) {
                Some((_, _, members)) => members.push(config_index),
                None => groups.push((key, cycles, vec![config_index])),
            }
        }
        for (_, _, members) in groups {
            for chunk in members.chunks(max) {
                units.push(chunk.iter().map(|&ci| bench_index * ncfg + ci).collect());
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance::experiments::{self, PolicyKind};
    use powerbalance::FloorplanKind;

    #[test]
    fn plan_units_groups_by_batch_key_and_chunks() {
        let spec = CampaignSpec::new("plan")
            .config("a", experiments::policy(PolicyKind::None, FloorplanKind::IssueConstrained))
            .config("b", experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained))
            .config("c", experiments::policy(PolicyKind::Dvfs, FloorplanKind::AluConstrained))
            .config("d", experiments::policy(PolicyKind::Combined, FloorplanKind::IssueConstrained))
            .benchmarks(["gzip", "mesa"])
            .cycles(10_000);
        // Per bench: configs 0, 1, 3 share a floorplan and batch; config 2
        // (different floorplan) stays scalar. First-appearance order.
        assert_eq!(plan_units(&spec, 6), vec![vec![0, 1, 3], vec![2], vec![4, 5, 7], vec![6]]);
        // Chunking respects the cap.
        assert_eq!(
            plan_units(&spec, 2),
            vec![vec![0, 1], vec![3], vec![2], vec![4, 5], vec![7], vec![6]]
        );
        // max_batch 1 is the pre-batching scheduler: one job per unit.
        let singletons = plan_units(&spec, 1);
        assert_eq!(singletons.len(), 8);
        assert!(singletons.iter().enumerate().all(|(i, u)| *u == vec![i]));
    }

    #[test]
    fn batched_campaign_matches_unbatched() {
        let spec = CampaignSpec::new("batchdiff")
            .config("none", experiments::policy(PolicyKind::None, FloorplanKind::IssueConstrained))
            .config(
                "spatial",
                experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained),
            )
            .config(
                "fetch-gate",
                experiments::policy(PolicyKind::FetchGate, FloorplanKind::IssueConstrained),
            )
            .benchmark("gzip")
            .cycles(40_000)
            .warmup(20_000)
            .seed(7);
        let batched =
            run_campaign(&spec, &RunnerOptions { threads: Some(2), ..Default::default() })
                .expect("batched campaign");
        let scalar = run_campaign(
            &spec,
            &RunnerOptions { threads: Some(2), max_batch: 1, ..Default::default() },
        )
        .expect("scalar campaign");
        assert!(batched.same_outcome(&scalar), "batching must not change results");
    }

    #[test]
    fn resolve_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "explicit 0 clamps to 1");
        // Explicit beats the environment even when the env value is valid.
        assert_eq!(resolve_threads_from(Some(2), Some("7")), 2);
        assert_eq!(resolve_threads_from(Some(0), Some("7")), 1, "explicit 0 still clamps");
    }

    #[test]
    fn resolve_env_accepts_positive_integers() {
        assert_eq!(resolve_threads_from(None, Some("5")), 5);
        assert_eq!(resolve_threads_from(None, Some("  5  ")), 5, "whitespace is trimmed");
        assert_eq!(resolve_threads_from(None, Some("1")), 1);
    }

    #[test]
    fn resolve_env_garbage_falls_back_to_auto() {
        let auto = std::thread::available_parallelism().map_or(1, usize::from);
        // `0` and non-numeric values warn and fall back to the automatic
        // count instead of being silently ignored or clamped differently
        // from the explicit-flag path.
        assert_eq!(resolve_threads_from(None, Some("0")), auto);
        assert_eq!(resolve_threads_from(None, Some("lots")), auto);
        assert_eq!(resolve_threads_from(None, Some("")), auto);
        assert_eq!(resolve_threads_from(None, Some("-2")), auto);
        assert_eq!(resolve_threads_from(None, None), auto, "unset env is the auto path");
    }

    #[test]
    fn run_one_rejects_unknown_benchmark() {
        let err = run_one(&experiments::issue_queue(false), "doom3", 1_000, 1);
        assert!(err.is_err());
    }

    #[test]
    fn campaign_rejects_invalid_spec() {
        let spec = CampaignSpec::new("empty");
        assert!(run_campaign(&spec, &RunnerOptions::default()).is_err());
    }

    #[test]
    fn campaign_results_land_in_spec_order() {
        let spec = CampaignSpec::new("order")
            .config("base", experiments::issue_queue(false))
            .config("toggling", experiments::issue_queue(true))
            .benchmarks(["eon", "gzip", "mesa"])
            .cycles(20_000);
        let result = run_campaign(&spec, &RunnerOptions { threads: Some(4), ..Default::default() })
            .expect("campaign runs");
        assert_eq!(result.jobs.len(), 6);
        for (i, job) in result.jobs.iter().enumerate() {
            assert_eq!(job.bench_index, i / 2);
            assert_eq!(job.config_index, i % 2);
            assert_eq!(job.bench, spec.benchmarks[job.bench_index]);
            assert_eq!(job.config, spec.configs[job.config_index].name);
            assert!(job.result.cycles >= 20_000);
            assert!(job.wall_nanos > 0);
        }
    }

    #[test]
    fn warm_cache_matches_private_warmups() {
        // The same campaign with the shared warm-start cache on and off
        // must produce identical simulation outcomes: the cache is pure
        // wall-time optimization.
        let spec = CampaignSpec::new("warm")
            .config("base", experiments::issue_queue(false))
            .config("toggling", experiments::issue_queue(true))
            .benchmarks(["gzip", "mesa"])
            .cycles(30_000)
            .warmup(30_000)
            .seed(5);
        let warm = run_campaign(&spec, &RunnerOptions { threads: Some(4), ..Default::default() })
            .expect("warm campaign");
        let cold = run_campaign(
            &spec,
            &RunnerOptions { threads: Some(2), warm_cache: false, ..Default::default() },
        )
        .expect("cold campaign");
        assert!(warm.same_outcome(&cold), "cache must not change results");
        // Warmup ran: the measured window alone is `cycles`, so total
        // simulated cycles include the warmup.
        assert!(warm.jobs[0].result.cycles >= 60_000);
    }

    #[test]
    fn zero_warmup_is_the_legacy_path() {
        let spec = CampaignSpec::new("legacy")
            .config("base", experiments::issue_queue(false))
            .benchmark("gzip")
            .cycles(20_000)
            .seed(9);
        let a = run_campaign(&spec, &RunnerOptions::default()).expect("runs");
        let direct = run_one(&spec.configs[0].config, "gzip", 20_000, 9).expect("runs");
        assert_eq!(a.jobs[0].result, direct);
    }

    #[test]
    fn cancelled_campaign_reports_cancelled() {
        let spec = CampaignSpec::new("cancelled")
            .config("base", experiments::issue_queue(false))
            .benchmarks(["eon", "gzip", "mesa"])
            .cycles(50_000);
        let control = CampaignControl::new();
        control.cancel();
        let outcome = run_campaign_controlled(
            &spec,
            &RunnerOptions { threads: Some(2), ..Default::default() },
            &control,
            None,
            None,
        )
        .expect("valid spec");
        assert!(matches!(outcome, CampaignOutcome::Cancelled));
        let (completed, total) = control.progress();
        assert_eq!(total, 3);
        assert_eq!(completed, 0, "pre-cancelled campaign runs no jobs");
    }

    #[test]
    fn job_timeout_aborts_the_campaign() {
        let spec = CampaignSpec::new("timeout")
            .config("base", experiments::issue_queue(false))
            .benchmark("gzip")
            .cycles(5_000_000);
        let control = CampaignControl::new();
        let outcome = run_campaign_controlled(
            &spec,
            &RunnerOptions { threads: Some(1), ..Default::default() },
            &control,
            Some(Duration::ZERO),
            None,
        )
        .expect("valid spec");
        match outcome {
            CampaignOutcome::TimedOut { bench, config } => {
                assert_eq!(bench, "gzip");
                assert_eq!(config, "base");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn controlled_campaign_records_progress_and_matches_uncontrolled() {
        let spec = CampaignSpec::new("progress")
            .config("base", experiments::issue_queue(false))
            .benchmarks(["eon", "gzip"])
            .cycles(20_000);
        let control = CampaignControl::new();
        let outcome = run_campaign_controlled(
            &spec,
            &RunnerOptions { threads: Some(2), ..Default::default() },
            &control,
            Some(Duration::from_secs(600)),
            None,
        )
        .expect("valid spec");
        let CampaignOutcome::Completed(result) = outcome else {
            panic!("campaign should complete")
        };
        assert_eq!(control.progress(), (2, 2));
        assert_eq!(control.finished_jobs().len(), 2);
        let plain = run_campaign(&spec, &RunnerOptions { threads: Some(1), ..Default::default() })
            .expect("valid spec");
        assert!(result.same_outcome(&plain), "controls must not change results");
    }

    #[test]
    fn shared_cache_spans_campaigns() {
        let spec = |name: &str| {
            CampaignSpec::new(name)
                .config("base", experiments::issue_queue(false))
                .benchmark("gzip")
                .cycles(10_000)
                .warmup(20_000)
                .seed(3)
        };
        let cache = WarmStartCache::in_memory();
        for name in ["first", "second"] {
            let control = CampaignControl::new();
            let outcome = run_campaign_controlled(
                &spec(name),
                &RunnerOptions::default(),
                &control,
                None,
                Some(&cache),
            )
            .expect("valid spec");
            assert!(matches!(outcome, CampaignOutcome::Completed(_)));
        }
        let (computed, _, hits) = cache.stats();
        assert_eq!(computed, 1, "second campaign reuses the first warmup");
        assert_eq!(hits, 1);
    }

    #[test]
    fn multicore_jobs_run_the_multicore_engine() {
        let two_core = SimConfig { cores: 2, ..experiments::issue_queue(false) };
        let spec = CampaignSpec::new("mc")
            .config("scalar", experiments::issue_queue(false))
            .config("2core", two_core)
            .benchmark("gzip")
            .cycles(30_000)
            .warmup(10_000)
            .seed(4);
        // The multi-core job must never be grouped into a BatchSimulator
        // unit (which is scalar-only).
        for unit in plan_units(&spec, 6) {
            if unit.contains(&1) {
                assert_eq!(unit.len(), 1, "multi-core jobs stay singleton units");
            }
        }
        let result = run_campaign(&spec, &RunnerOptions::default()).expect("campaign runs");
        let die = &result.jobs[1].result;
        assert!(
            die.temperatures.iter().any(|t| t.name.starts_with("C1.")),
            "the 2-core job reports die-level prefixed blocks"
        );
        assert!(die.committed > result.jobs[0].result.committed, "two cores commit more than one");
    }

    #[test]
    fn campaign_matches_run_one() {
        let spec = CampaignSpec::new("match")
            .config("base", experiments::issue_queue(false))
            .benchmark("gzip")
            .cycles(20_000)
            .seed(9);
        let campaign = run_campaign(&spec, &RunnerOptions::default()).expect("campaign runs");
        let direct = run_one(&spec.configs[0].config, "gzip", 20_000, 9).expect("runs");
        assert_eq!(campaign.jobs[0].result, direct);
    }
}
