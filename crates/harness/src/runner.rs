//! The bounded parallel campaign runner.

use crate::result::{CampaignResult, JobResult};
use crate::spec::CampaignSpec;
use crate::warmstart::{WarmStartCache, WarmupOutcome};
use powerbalance::{
    spec2000, BatchPart, BatchSimulator, Detach, Error, Fidelity, MultiCoreSimulator, RunControl,
    RunResult, SimConfig, Snapshot, StopCause, Task, TaskSet, TraceCursor, TraceGenerator,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Directory to persist warmup snapshots in (and, with
    /// [`resume`](RunnerOptions::resume), load them from). `None` keeps
    /// the cache purely in-memory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load matching snapshots from `checkpoint_dir` instead of
    /// recomputing them (a mismatched or unreadable file silently falls
    /// back to computation).
    pub resume: bool,
    /// Upper bound on how many batch-eligible jobs — same benchmark, same
    /// measured cycle budget, one configuration structure (see
    /// [`SimConfig::structure`]) — execute together
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

/// Classes a running batch gave away, by trace type.
enum Donated {
    /// Exact siblings share generated ops through a cursor ring.
    Ring(Box<BatchPart<TraceCursor<TraceGenerator>>>),
    /// Fast siblings (and lone jobs) each keep a generator.
    Generators(Box<BatchPart<TraceGenerator>>),
}

impl Donated {
    /// Resumes the classes on this thread with `left` cycles to run; see
    /// [`run_batch`].
    fn run(
        self,
        left: u64,
        control: &RunControl<'_>,
        stint: &mut Stint<'_>,
    ) -> (Vec<(usize, RunResult)>, StopCause) {
        match self {
            Donated::Ring(part) => run_batch(part.attach(), left, control, stint),
            Donated::Generators(part) => run_batch(part.attach(), left, control, stint),
        }
    }
}

impl From<BatchPart<TraceCursor<TraceGenerator>>> for Donated {
    fn from(part: BatchPart<TraceCursor<TraceGenerator>>) -> Self {
        Donated::Ring(Box::new(part))
    }
}

impl From<BatchPart<TraceGenerator>> for Donated {
    fn from(part: BatchPart<TraceGenerator>) -> Self {
        Donated::Generators(Box::new(part))
    }
}

/// The one unit runner: K sibling configs (K = 1 for a lone job) over one
/// seeded benchmark trace, warmed, then measured under `control`.
///
/// Single-core units run as a lockstep [`BatchSimulator`] — a one-sibling
/// batch is the scalar engine. With a warmup budget, the shared warmup
/// snapshot comes from `cache` (computed interruptibly at most once per
/// key; a job stopped while blocked on it returns no results) and is
/// restored into the unforked batch, whose trace resumes at the
/// snapshot's position. Under Exact fidelity siblings that may fork share
/// generated micro-ops through a [`TraceCursor`] ring; otherwise each die
/// keeps a private generator clone, so skipped intervals stay O(1).
/// Multi-core units (one config) run the multi-core engine; the warm-start
/// cache only holds single-core snapshots, so their warmup runs inline.
///
/// A stop (cancel/timeout) stops the whole unit at the same window
/// boundary, so every sibling's partial statistics cover the same
/// simulated span. A pause for an idle worker donates classes to the pool
/// through `stint` (see [`run_batch`]). Results come back as
/// `(sibling, result)` pairs for the siblings the unit kept.
#[allow(clippy::too_many_arguments)]
fn run_unit(
    configs: &[SimConfig],
    bench: &str,
    cycles: u64,
    seed: u64,
    warmup_cycles: u64,
    cache: &WarmStartCache,
    control: &RunControl<'_>,
    stint: &mut Stint<'_>,
) -> Result<(Vec<(usize, RunResult)>, StopCause), Error> {
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
        return Ok((vec![(0, sim.result().merged())], cause));
    }
    let warm = if warmup_cycles > 0 {
        match cache.get_or_compute_controlled(bench, seed, warmup_cycles, first, control)? {
            WarmupOutcome::Ready(snapshot) => Some(snapshot),
            WarmupOutcome::Stopped(cause) => return Ok((Vec::new(), cause)),
        }
    } else {
        None
    };
    // The snapshot was keyed by `first`'s structure, which every sibling
    // shares; the batch checks the state's shape when it restores it.
    let trace = match &warm {
        Some(snapshot) => snapshot.resume_trace(),
        None => profile.trace(seed),
    };
    let warm = warm.as_deref();
    if first.fidelity == Fidelity::Exact && configs.len() > 1 {
        batch_over(configs, TraceCursor::new(trace), warm, cycles, control, stint)
    } else {
        batch_over(configs, trace, warm, cycles, control, stint)
    }
}

/// Monomorphized body of [`run_unit`]: build, restore the warm snapshot
/// if there is one, then run under `control`.
fn batch_over<T: Detach + Clone>(
    configs: &[SimConfig],
    trace: T,
    warm: Option<&Snapshot>,
    cycles: u64,
    control: &RunControl<'_>,
    stint: &mut Stint<'_>,
) -> Result<(Vec<(usize, RunResult)>, StopCause), Error>
where
    Donated: From<BatchPart<T>>,
{
    let mut batch = BatchSimulator::new(configs.to_vec(), trace)?;
    if let Some(snapshot) = warm {
        batch.restore_state(&snapshot.state)?;
    }
    Ok(run_batch(batch, cycles, control, stint))
}

/// Runs `batch` for `left` more cycles under `control`. Each time the idle
/// probe pauses it, the worker time so far is charged, the leading half of
/// the classes goes to the pool through `stint`, and the rest resumes.
/// Returns the results of the siblings the batch kept, with their original
/// sibling indices.
fn run_batch<T: Detach + Clone>(
    mut batch: BatchSimulator<T>,
    mut left: u64,
    control: &RunControl<'_>,
    stint: &mut Stint<'_>,
) -> (Vec<(usize, RunResult)>, StopCause)
where
    Donated: From<BatchPart<T>>,
{
    loop {
        let cause = batch.run_budget(&mut left, control);
        if cause != StopCause::WorkerIdle {
            return (batch.siblings().iter().copied().zip(batch.results()).collect(), cause);
        }
        stint.charge(batch.siblings());
        let part =
            batch.split_off().expect("the idle probe pauses only a batch of several classes");
        stint.donate(part.into(), left);
    }
}

/// Pool work: a planned unit, or classes split off a running one.
enum Work {
    /// Index into the campaign's units.
    Unit(usize),
    /// Classes donated by a running batch of unit `unit`, with `left`
    /// cycles to run before the unit's `deadline`.
    Part { unit: usize, left: u64, deadline: Option<Instant>, classes: Donated },
}

/// The campaign's work queue. A worker that finds it empty waits while any
/// other worker is still running: running batches donate classes to it.
struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// The idle probe running batches read between windows: set while a
    /// waiting worker has no queued work to take. A hint only (`Relaxed`):
    /// the work itself moves through the locked queue.
    hungry: AtomicBool,
}

struct Queue {
    work: VecDeque<Work>,
    waiting: usize,
    running: usize,
}

impl Pool {
    fn new(units: usize) -> Pool {
        let work = (0..units).map(Work::Unit).collect();
        Pool {
            queue: Mutex::new(Queue { work, waiting: 0, running: 0 }),
            wake: Condvar::new(),
            hungry: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("no worker panics holding the queue")
    }

    fn probe(&self, queue: &Queue) {
        self.hungry.store(queue.waiting > queue.work.len(), Ordering::Relaxed);
    }

    /// The next work item, waiting for a donation if need be; `None` once
    /// the campaign is cancelled, or nothing is queued and nothing runs.
    fn take(&self, control: &CampaignControl) -> Option<Work> {
        let mut queue = self.lock();
        loop {
            if control.is_cancelled() {
                return None;
            }
            if let Some(work) = queue.work.pop_front() {
                queue.running += 1;
                self.probe(&queue);
                return Some(work);
            }
            if queue.running == 0 {
                return None;
            }
            queue.waiting += 1;
            self.probe(&queue);
            queue = self.wake.wait(queue).expect("no worker panics holding the queue");
            queue.waiting -= 1;
        }
    }

    fn give(&self, work: Work) {
        let mut queue = self.lock();
        queue.work.push_back(work);
        self.probe(&queue);
        self.wake.notify_one();
    }
}

/// Marks a taken work item done when its worker leaves it, panicking or
/// not; the last item running releases every waiting worker.
struct Done<'a>(&'a Pool);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        // Every update leaves the counters valid, so a poisoned queue is
        // still sound; and a drop must not panic.
        let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.running -= 1;
        if queue.running == 0 {
            self.0.wake.notify_all();
        }
    }
}

/// One work item on one worker: charges its worker time to the jobs it
/// steps, and gives classes to the pool.
struct Stint<'a> {
    pool: &'a Pool,
    unit: usize,
    deadline: Option<Instant>,
    /// The unit's job indices, by sibling.
    jobs: &'a [usize],
    /// Worker time charged to each job of the campaign, in nanoseconds.
    /// `Relaxed` suffices: a donor charges before it queues the part under
    /// the lock, and the part's worker reads after taking it.
    busy: &'a [AtomicU64],
    since: Instant,
}

impl Stint<'_> {
    /// Charges the worker time since the last charge equally to
    /// `siblings`, the siblings stepped in it.
    fn charge(&mut self, siblings: &[usize]) {
        let now = Instant::now();
        let share = (now - self.since).as_nanos() as u64 / siblings.len().max(1) as u64;
        for &s in siblings {
            self.busy[self.jobs[s]].fetch_add(share, Ordering::Relaxed);
        }
        self.since = now;
    }

    /// Queues `classes`, split off for an idle worker with `left` cycles
    /// of the budget to run.
    fn donate(&mut self, classes: Donated, left: u64) {
        let (unit, deadline) = (self.unit, self.deadline);
        self.pool.give(Work::Part { unit, left, deadline, classes });
    }
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
    /// Worker time spent stepping the job, in nanoseconds (see
    /// [`JobResult::wall_nanos`]).
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
/// (same benchmark and cycle budget, one [`SimConfig::structure`]) run
/// together in one lockstep [`BatchSimulator`], up to
/// [`RunnerOptions::max_batch`] per unit; everything else runs on the
/// scalar path. Workers pull units from a shared queue, so scheduling
/// stays fine-grained: a slow benchmark on one config does not serialize
/// the rest of the campaign behind it. A worker that finds the queue empty
/// steals: a running batch with several live classes splits off half of
/// them for it at its next window boundary
/// ([`BatchSimulator::split_off`]). Each finished job lands
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
    let threads = resolve_threads(options.threads).min(total).max(1);

    let private_cache;
    let cache = match shared_cache {
        Some(shared) => shared,
        None => {
            private_cache = match &options.checkpoint_dir {
                Some(dir) => WarmStartCache::with_checkpoint_dir(dir, options.resume),
                None => WarmStartCache::in_memory(),
            };
            &private_cache
        }
    };

    let pool = Pool::new(units.len());
    let busy: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
    // First job to time out wins the abort; later jobs just observe the
    // raised cancel flag.
    let timed_out: Mutex<Option<(String, String)>> = Mutex::new(None);

    let campaign_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(work) = pool.take(control) {
                    let _done = Done(&pool);
                    let (unit, deadline) = match &work {
                        Work::Unit(unit) => (*unit, job_timeout.map(|t| Instant::now() + t)),
                        Work::Part { unit, deadline, .. } => (*unit, *deadline),
                    };
                    let jobs = &units[unit];
                    let bench_index = jobs[0] / ncfg;
                    let bench = &spec.benchmarks[bench_index];
                    let cycles = spec.cycles_for(jobs[0] % ncfg);
                    let mut run_control = RunControl::unlimited()
                        .with_cancel(control.cancel_flag())
                        .with_idle_probe(&pool.hungry);
                    if let Some(deadline) = deadline {
                        run_control = run_control.with_deadline(deadline);
                    }
                    let mut stint = Stint {
                        pool: &pool,
                        unit,
                        deadline,
                        jobs,
                        busy: &busy,
                        since: Instant::now(),
                    };
                    let (results, cause) = match work {
                        Work::Unit(_) => {
                            let configs: Vec<SimConfig> = jobs
                                .iter()
                                .map(|&i| spec.configs[i % ncfg].config.clone())
                                .collect();
                            run_unit(
                                &configs,
                                bench,
                                cycles,
                                spec.seed,
                                spec.warmup_cycles,
                                cache,
                                &run_control,
                                &mut stint,
                            )
                            .expect("spec was validated and grouped by structure before dispatch")
                        }
                        Work::Part { left, classes, .. } => {
                            classes.run(left, &run_control, &mut stint)
                        }
                    };
                    let siblings: Vec<usize> = results.iter().map(|&(s, _)| s).collect();
                    stint.charge(&siblings);
                    if cause == StopCause::TimedOut {
                        let mut slot =
                            timed_out.lock().expect("no worker panicked holding this lock");
                        if slot.is_none() {
                            *slot =
                                Some((bench.clone(), spec.configs[jobs[0] % ncfg].name.clone()));
                        }
                        drop(slot);
                        // Pull every other worker out of its run too: the
                        // campaign is already lost.
                        control.cancel();
                    }
                    // A stopped run's partial results are discarded.
                    let results = if cause.is_completed() { results } else { Vec::new() };
                    for (sibling, result) in results {
                        let index = jobs[sibling];
                        let config_index = index % ncfg;
                        let named = &spec.configs[config_index];
                        // Each job's wall is the worker time that stepped
                        // it: a batch's time is shared equally among the
                        // siblings it held at the time.
                        let wall_nanos = busy[index].load(Ordering::Relaxed);
                        let wall_secs = wall_nanos as f64 / 1e9;
                        let sim_cycles_per_sec =
                            if wall_secs > 0.0 { result.cycles as f64 / wall_secs } else { 0.0 };

                        if options.progress {
                            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                            let tag = if jobs.len() > 1 {
                                format!(" [batch of {}]", jobs.len())
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
                            wall_nanos,
                        });

                        *slots[index].lock().expect("no worker panicked holding this lock") =
                            Some(JobResult {
                                bench: bench.clone(),
                                config: named.name.clone(),
                                bench_index,
                                config_index,
                                seed: spec.seed,
                                cycles_requested: cycles,
                                wall_nanos,
                                sim_cycles_per_sec,
                                result,
                            });
                    }
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

    if options.progress && spec.warmup_cycles > 0 {
        let (computed, loaded, hits) = cache.stats();
        eprintln!(
            "[{} warm-start] {computed} warmup(s) computed, {loaded} loaded from disk, \
             {hits} cache hit(s)",
            spec.name
        );
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
/// config slots sharing a ([`SimConfig::structure`], measured cycle
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
        let mut groups: Vec<(SimConfig, u64, Vec<usize>)> = Vec::new();
        for config_index in 0..ncfg {
            // Multi-core jobs run the multi-core engine, which has its own
            // die-wide lockstep internally; keep them out of batch units.
            if spec.configs[config_index].config.cores > 1 {
                units.push(vec![bench_index * ncfg + config_index]);
                continue;
            }
            let key = spec.configs[config_index].config.structure();
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
    use powerbalance::{FloorplanKind, Simulator};

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
    fn job_walls_add_up_to_at_most_the_pool_time() {
        // eon forks all six policies in its first measured window, so the
        // idle second worker steals classes from it.
        let mut spec = CampaignSpec::new("walls").benchmark("eon").cycles(60_000).warmup(200_000);
        for kind in PolicyKind::ALL {
            spec = spec
                .config(kind.name(), experiments::policy(kind, FloorplanKind::IssueConstrained));
        }
        let result = run_campaign(&spec, &RunnerOptions { threads: Some(2), ..Default::default() })
            .expect("campaign runs");
        assert_eq!(result.threads, 2, "six jobs in one unit still get two workers");
        let busy: u64 = result.jobs.iter().map(|j| j.wall_nanos).sum();
        assert!(
            busy <= 2 * result.wall_nanos,
            "{busy} ns charged to jobs, more than 2 workers x {} ns",
            result.wall_nanos
        );
        assert!(result.jobs.iter().all(|j| j.wall_nanos > 0), "every job is charged its share");
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
    fn campaign_rejects_unknown_benchmark() {
        let spec = CampaignSpec::new("doom")
            .config("base", experiments::issue_queue(false))
            .benchmark("doom3")
            .cycles(1_000);
        let err = run_campaign(&spec, &RunnerOptions::default()).expect_err("unknown benchmark");
        assert!(err.to_string().contains("unknown benchmark 'doom3'"), "{err}");
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
        // Every job of a campaign forked from shared warm-start snapshots
        // must equal its own uninterrupted run — a private warmup, then the
        // measured cycles on the same simulator: the cache is pure
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
        for job in &warm.jobs {
            let mut sim = Simulator::new(spec.configs[job.config_index].config.clone())
                .expect("valid config");
            let mut trace = spec2000::by_name(&job.bench).expect("known benchmark").trace(5);
            sim.run_warmup(&mut trace, 30_000);
            let cold = sim.run(&mut trace, 30_000);
            assert_eq!(
                job.result, cold,
                "{}/{}: cache must not change results",
                job.bench, job.config
            );
        }
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
        let mut sim = Simulator::new(spec.configs[0].config.clone()).expect("valid config");
        let direct = sim.run(&mut spec2000::by_name("gzip").expect("known").trace(9), 20_000);
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
    fn exact_configs_differing_in_interval_fields_share_one_unit_and_one_warmup() {
        // Exact never reads `fast_window`, so these two configs are one
        // machine: they batch together and share a warmup.
        let toggling = experiments::issue_queue(true);
        let spec = CampaignSpec::new("structure")
            .config("base", experiments::issue_queue(false))
            .config("toggling", SimConfig { fast_window: 400_000, ..toggling })
            .benchmark("gzip")
            .cycles(30_000)
            .warmup(20_000)
            .seed(6);
        assert_eq!(plan_units(&spec, 6), vec![vec![0, 1]]);
        let cache = WarmStartCache::in_memory();
        let outcome = run_campaign_controlled(
            &spec,
            &RunnerOptions::default(),
            &CampaignControl::new(),
            None,
            Some(&cache),
        )
        .expect("valid spec");
        let CampaignOutcome::Completed(result) = outcome else {
            panic!("campaign should complete")
        };
        assert_eq!(cache.stats().0, 1, "one warmup serves both configs");
        for job in &result.jobs {
            let mut sim = Simulator::new(spec.configs[job.config_index].config.clone())
                .expect("valid config");
            let mut trace = spec2000::by_name("gzip").expect("known benchmark").trace(6);
            sim.run_warmup(&mut trace, 20_000);
            assert_eq!(job.result, sim.run(&mut trace, 30_000), "{}", job.config);
        }
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
}
