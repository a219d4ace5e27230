//! The transport-independent job service: a bounded queue of campaign
//! submissions drained by a fixed worker pool, with per-job status
//! tracking, cooperative cancellation, and a shared warm-start cache.
//!
//! The HTTP layer is a thin adapter over this; tests and the
//! `serve_and_query` example drive it directly, with no sockets involved.

use crate::journal::{Event, Journal, Recovery, TerminalKind};
use crate::metrics::Metrics;
use powerbalance_harness::{
    run_campaign_controlled, CampaignControl, CampaignOutcome, CampaignResult, CampaignSpec,
    JobProgress, RunnerOptions, WarmStartCache,
};
use serde::Serialize;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`JobService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the bounded submission queue; a submission arriving
    /// while the queue holds this many waiting campaigns is rejected
    /// (HTTP `429`).
    pub queue_depth: usize,
    /// Campaigns executed concurrently (each on its own worker thread).
    pub workers: usize,
    /// Worker-pool threads *within* each campaign; `None` resolves via
    /// [`powerbalance_harness::resolve_threads`].
    pub campaign_threads: Option<usize>,
    /// Wall-clock budget per (benchmark × config) job; a job exceeding it
    /// fails its whole campaign. `None` disables the timeout.
    pub job_timeout: Option<Duration>,
    /// Admission cap on `spec.job_count()` — a cheap guard against a
    /// single request occupying a worker for hours.
    pub max_jobs_per_campaign: usize,
    /// Admission cap on per-job simulated cycles (budget + warmup).
    pub max_cycles_per_job: u64,
    /// Upper bound on lockstep batching inside each campaign (see
    /// [`RunnerOptions::max_batch`]); `1` disables batching.
    pub max_batch: usize,
    /// Directory for the crash-safe campaign journal. `None` (the
    /// default) keeps the PR-5 in-memory behavior; `Some` makes every
    /// submission durable and replays unfinished campaigns on restart.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 16,
            workers: 2,
            campaign_threads: None,
            job_timeout: Some(Duration::from_secs(600)),
            max_jobs_per_campaign: 256,
            max_cycles_per_job: 100_000_000,
            max_batch: 6,
            journal_dir: None,
        }
    }
}

/// Lifecycle of one submitted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobState {
    /// Accepted, waiting in the bounded queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Every job finished; the result is available.
    Completed,
    /// The campaign failed: a per-job timeout, or a replayed spec that
    /// exceeds this server's admission limits.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// Whether the state is final.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed | JobState::Cancelled)
    }
}

/// A point-in-time status snapshot for one submission, as returned by
/// `GET /v1/campaigns/<id>`.
#[derive(Debug, Clone, Serialize)]
pub struct StatusReport {
    /// The submission id.
    pub id: u64,
    /// Campaign name from the spec.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Failure detail when `state` is `Failed`.
    pub error: Option<String>,
    /// Total (benchmark × config) jobs in the campaign.
    pub total_jobs: usize,
    /// Jobs finished so far (live while `Running`).
    pub completed_jobs: usize,
    /// Per-job summaries of the finished jobs, in completion order.
    pub finished: Vec<JobProgress>,
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The spec failed validation or an admission limit.
    Invalid(String),
    /// The bounded queue is full; retry later.
    QueueFull,
    /// The service is draining for shutdown and takes no new work.
    Draining,
}

struct JobRecord {
    spec: Arc<CampaignSpec>,
    state: JobState,
    error: Option<String>,
    result: Option<Arc<CampaignResult>>,
    control: Arc<CampaignControl>,
}

/// Builds the status snapshot for one record (shared by the instant and
/// long-poll status paths).
fn report(id: u64, record: &JobRecord) -> StatusReport {
    let (completed_jobs, total_jobs) = record.control.progress();
    StatusReport {
        id,
        name: record.spec.name.clone(),
        state: record.state,
        error: record.error.clone(),
        total_jobs,
        completed_jobs,
        finished: record.control.finished_jobs(),
    }
}

/// The job service: owns the queue, the worker pool, the job table, the
/// shared warm-start cache, and the metrics registry.
pub struct JobService {
    config: ServiceConfig,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Signalled whenever any campaign reaches a terminal state; paired
    /// with the `jobs` mutex for long-poll result delivery.
    terminal: Condvar,
    next_id: AtomicU64,
    sender: Mutex<Option<SyncSender<u64>>>,
    draining: AtomicBool,
    metrics: Arc<Metrics>,
    cache: Arc<WarmStartCache>,
    journal: Option<Journal>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobService {
    /// Starts the worker pool and returns the service.
    ///
    /// # Panics
    ///
    /// Panics if [`ServiceConfig::journal_dir`] is set and the journal
    /// cannot be opened; use [`try_start`](JobService::try_start) to
    /// handle that case.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Arc<JobService> {
        JobService::try_start(config).expect("journal directory is usable")
    }

    /// Starts the worker pool, opening and replaying the crash journal
    /// when [`ServiceConfig::journal_dir`] is set: terminal campaigns
    /// from the previous incarnation come back as tombstone records
    /// (state preserved, result gone), and submitted-but-unfinished ones
    /// are re-queued under their original ids — no client resubmission.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening the journal directory.
    pub fn try_start(config: ServiceConfig) -> std::io::Result<Arc<JobService>> {
        let (journal, recovery) = match &config.journal_dir {
            Some(dir) => {
                let (journal, recovery) = Journal::open(dir)?;
                (Some(journal), Some(recovery))
            }
            None => (None, None),
        };
        let (sender, receiver) = std::sync::mpsc::sync_channel::<u64>(config.queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let service = Arc::new(JobService {
            config,
            jobs: Mutex::new(HashMap::new()),
            terminal: Condvar::new(),
            next_id: AtomicU64::new(1),
            sender: Mutex::new(Some(sender)),
            draining: AtomicBool::new(false),
            metrics: Arc::new(Metrics::new()),
            cache: Arc::new(WarmStartCache::in_memory()),
            journal,
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::new();
        if let Some(recovery) = recovery {
            if let Some(handle) = service.recover(recovery) {
                handles.push(handle);
            }
        }
        for worker in 0..service.config.workers.max(1) {
            let service = Arc::clone(&service);
            let receiver = Arc::clone(&receiver);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("powerbalance-worker-{worker}"))
                    .spawn(move || service.worker_loop(&receiver))
                    .expect("spawning a worker thread succeeds"),
            );
        }
        *service.workers.lock().expect("no holder panics") = handles;
        Ok(service)
    }

    /// Installs the journal's recovery state: tombstones for terminal
    /// campaigns, queued records for pending ones, and a replayer thread
    /// that feeds the pending ids into the bounded queue (a blocking
    /// sender, so recovery depth can exceed the queue capacity without
    /// deadlocking startup). A pending spec goes through the same
    /// admission checks as a fresh submission, against this incarnation's
    /// limits; one that fails them is journaled `Failed` and never runs.
    fn recover(&self, recovery: Recovery) -> Option<JoinHandle<()>> {
        self.next_id.store(recovery.max_id + 1, Ordering::Relaxed);
        let mut jobs = self.jobs.lock().expect("no holder panics");
        for (id, kind, spec) in recovery.terminal {
            let spec = spec.unwrap_or_else(|| CampaignSpec::new("(recovered)"));
            let (state, error) = match kind {
                TerminalKind::Completed => (JobState::Completed, None),
                TerminalKind::Failed(error) => (JobState::Failed, Some(error)),
                TerminalKind::Cancelled => (JobState::Cancelled, None),
            };
            let record = JobRecord {
                spec: Arc::new(spec),
                state,
                error,
                result: None,
                control: Arc::new(CampaignControl::new()),
            };
            jobs.insert(id, record);
        }
        let mut pending_ids = Vec::with_capacity(recovery.pending.len());
        let mut refused = Vec::new();
        for (id, spec) in recovery.pending {
            // Replayed campaigns count as submitted so the reconciliation
            // invariant keeps holding across a restart.
            self.count_submitted(&spec);
            let admitted = self.admit(&spec);
            let mut record = JobRecord {
                spec: Arc::new(spec),
                state: JobState::Queued,
                error: None,
                result: None,
                control: Arc::new(CampaignControl::new()),
            };
            record.control.set_total(record.spec.job_count());
            match admitted {
                Ok(()) => {
                    pending_ids.push(id);
                    self.metrics.campaigns_replayed.fetch_add(1, Ordering::Relaxed);
                    self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => {
                    record.state = JobState::Failed;
                    record.error = Some(error.clone());
                    self.metrics.campaigns_failed.fetch_add(1, Ordering::Relaxed);
                    refused.push(Event::Failed { id, error });
                }
            }
            jobs.insert(id, record);
        }
        drop(jobs);
        for event in refused {
            self.journal_append(event);
        }
        if pending_ids.is_empty() {
            return None;
        }
        let sender =
            self.sender.lock().expect("no holder panics").clone().expect("sender exists at start");
        Some(
            std::thread::Builder::new()
                .name("powerbalance-replayer".into())
                .spawn(move || {
                    for id in pending_ids {
                        // Blocking send: recovered depth may exceed the
                        // queue bound. A disconnect means drain() ran
                        // before replay finished; the rest stays journaled
                        // for the next incarnation.
                        if sender.send(id).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawning the replayer thread succeeds"),
        )
    }

    /// `(journal depth, campaigns replayed at startup)`, or `None` when
    /// no journal is configured.
    #[must_use]
    pub fn journal_status(&self) -> Option<(u64, u64)> {
        self.journal.as_ref().map(|journal| {
            (journal.depth(), self.metrics.campaigns_replayed.load(Ordering::Relaxed))
        })
    }

    /// Submitted-but-not-terminal campaigns in the journal, for
    /// `/metrics`; 0 when no journal is configured.
    #[must_use]
    pub fn journal_depth(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::depth)
    }

    /// Appends `event` to the journal, if one is configured. Journal
    /// write failures must not take down a running campaign: they are
    /// reported on stderr and the in-memory state stays authoritative.
    fn journal_append(&self, event: Event) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(event) {
                eprintln!("powerbalance-serve: journal append failed: {e}");
            }
        }
    }

    /// The service's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// `(computed, loaded, hits)` from the shared warm-start cache.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.cache.stats()
    }

    /// Whether the service has started draining (no new submissions).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Validates and enqueues a campaign. On success the campaign is
    /// `Queued` and will eventually reach a terminal state.
    ///
    /// Counter semantics: every *well-formed* submission increments
    /// `campaigns_submitted`, including ones bounced by a full queue
    /// (those also increment `campaigns_rejected`); invalid specs count
    /// only under `campaigns_invalid`. That makes the reconciliation
    /// `submitted = completed + failed + cancelled + rejected` hold at
    /// quiescence. Each such submission also increments exactly one of
    /// the per-fidelity counters (`campaigns_submitted_fast` when any
    /// config uses the interval engine, `campaigns_submitted_exact`
    /// otherwise), so `submitted = exact + fast` holds too.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for validation/admission failures,
    /// [`SubmitError::QueueFull`] under backpressure, and
    /// [`SubmitError::Draining`] during shutdown.
    pub fn submit(&self, spec: CampaignSpec) -> Result<u64, SubmitError> {
        if self.is_draining() {
            return Err(SubmitError::Draining);
        }
        self.admit(&spec).map_err(SubmitError::Invalid)?;

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let spec_arc = Arc::new(spec);
        let record = JobRecord {
            spec: Arc::clone(&spec_arc),
            state: JobState::Queued,
            error: None,
            result: None,
            control: Arc::new(CampaignControl::new()),
        };
        record.control.set_total(record.spec.job_count());
        self.jobs.lock().expect("no holder panics").insert(id, record);

        let sender = self.sender.lock().expect("no holder panics").clone();
        let Some(sender) = sender else {
            self.jobs.lock().expect("no holder panics").remove(&id);
            return Err(SubmitError::Draining);
        };
        match sender.try_send(id) {
            Ok(()) => {
                self.count_submitted(&spec_arc);
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                // Journal after the id is committed to the queue: a
                // rejected submission must leave no durable trace. The
                // worker may race ahead and journal `Started` first;
                // replay is order-insensitive, so that is harmless.
                self.journal_append(Event::Submitted { id, spec: (*spec_arc).clone() });
                Ok(id)
            }
            Err(TrySendError::Full(_)) => {
                self.jobs.lock().expect("no holder panics").remove(&id);
                self.count_submitted(&spec_arc);
                self.metrics.campaigns_rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.jobs.lock().expect("no holder panics").remove(&id);
                Err(SubmitError::Draining)
            }
        }
    }

    /// The admission checks every campaign passes before it may run, at
    /// submission and again at journal replay: the spec validates, and it
    /// stays within [`ServiceConfig::max_jobs_per_campaign`] and
    /// [`ServiceConfig::max_cycles_per_job`].
    fn admit(&self, spec: &CampaignSpec) -> Result<(), String> {
        spec.validate().map_err(|e| e.to_string())?;
        if spec.job_count() > self.config.max_jobs_per_campaign {
            return Err(format!(
                "campaign has {} jobs; this server accepts at most {}",
                spec.job_count(),
                self.config.max_jobs_per_campaign
            ));
        }
        let worst_cycles = (0..spec.configs.len())
            .map(|ci| spec.cycles_for(ci))
            .max()
            .unwrap_or(0)
            .saturating_add(spec.warmup_cycles);
        if worst_cycles > self.config.max_cycles_per_job {
            return Err(format!(
                "a job would simulate {worst_cycles} cycles (budget + warmup); \
                 this server accepts at most {}",
                self.config.max_cycles_per_job
            ));
        }
        Ok(())
    }

    /// Counts one well-formed submission under `campaigns_submitted` and
    /// exactly one per-fidelity counter: `campaigns_submitted_fast` when
    /// any config uses the interval engine, `campaigns_submitted_exact`
    /// otherwise.
    fn count_submitted(&self, spec: &CampaignSpec) {
        let is_fast =
            spec.configs.iter().any(|named| named.config.fidelity == powerbalance::Fidelity::Fast);
        self.metrics.campaigns_submitted.fetch_add(1, Ordering::Relaxed);
        let per_fidelity = if is_fast {
            &self.metrics.campaigns_submitted_fast
        } else {
            &self.metrics.campaigns_submitted_exact
        };
        per_fidelity.fetch_add(1, Ordering::Relaxed);
    }

    /// The status snapshot for `id`, or `None` for an unknown id.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<StatusReport> {
        let jobs = self.jobs.lock().expect("no holder panics");
        jobs.get(&id).map(|record| report(id, record))
    }

    /// Like [`status`](JobService::status), but blocks up to `wait` for
    /// the campaign to reach a terminal state — the long-poll primitive
    /// behind `GET /v1/campaigns/<id>/result?wait=<secs>`. Returns the
    /// freshest snapshot either way; `None` only for unknown ids.
    #[must_use]
    pub fn wait_terminal(&self, id: u64, wait: Duration) -> Option<StatusReport> {
        let deadline = Instant::now() + wait;
        let mut jobs = self.jobs.lock().expect("no holder panics");
        loop {
            let snapshot = jobs.get(&id).map(|record| (record.state, report(id, record)))?;
            let (state, status) = snapshot;
            if state.is_terminal() {
                return Some(status);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Some(status);
            }
            // Re-wake at least every 100ms as insurance against a missed
            // notification; the condvar carries the fast path.
            let park = remaining.min(Duration::from_millis(100));
            let (next, _) = self.terminal.wait_timeout(jobs, park).expect("no holder panics");
            jobs = next;
        }
    }

    /// The full result for `id` once `Completed`. `None` for unknown ids
    /// *and* for campaigns not (yet) completed — callers distinguish via
    /// [`status`](JobService::status).
    #[must_use]
    pub fn result(&self, id: u64) -> Option<Arc<CampaignResult>> {
        self.jobs.lock().expect("no holder panics").get(&id).and_then(|r| r.result.clone())
    }

    /// Requests cancellation of `id`. Returns the state the campaign was
    /// in when the request landed, or `None` for an unknown id. A
    /// `Queued` campaign is cancelled immediately; a `Running` one stops
    /// cooperatively at its next sampling-window boundary; terminal
    /// states are unaffected.
    #[must_use]
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut jobs = self.jobs.lock().expect("no holder panics");
        let record = jobs.get_mut(&id)?;
        let observed = record.state;
        match observed {
            JobState::Queued => {
                // The queue still holds the id; the worker that drains it
                // skips non-Queued records.
                record.state = JobState::Cancelled;
                record.control.cancel();
                self.metrics.campaigns_cancelled.fetch_add(1, Ordering::Relaxed);
                drop(jobs);
                self.journal_append(Event::Cancelled { id });
                self.terminal.notify_all();
                return Some(observed);
            }
            JobState::Running => {
                // The owning worker observes the flag at the next window
                // boundary and finalizes state + counters itself.
                record.control.cancel();
            }
            JobState::Completed | JobState::Failed | JobState::Cancelled => {}
        }
        Some(observed)
    }

    /// Stops accepting submissions, lets every queued and running
    /// campaign finish, and joins the workers. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        // Dropping the sender disconnects the channel once the queue is
        // empty, which ends the worker loops.
        drop(self.sender.lock().expect("no holder panics").take());
        let handles = std::mem::take(&mut *self.workers.lock().expect("no holder panics"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Like [`drain`](JobService::drain), but first cancels everything
    /// still queued or running — the fast path for `Drop`/ctrl-c-twice.
    pub fn abort(&self) {
        self.draining.store(true, Ordering::Relaxed);
        {
            let jobs = self.jobs.lock().expect("no holder panics");
            for record in jobs.values() {
                if !record.state.is_terminal() {
                    record.control.cancel();
                }
            }
        }
        self.drain();
    }

    fn worker_loop(&self, receiver: &Arc<Mutex<Receiver<u64>>>) {
        loop {
            // Hold the receiver lock only for the blocking recv; workers
            // take turns pulling ids.
            let next = receiver.lock().expect("no holder panics").recv();
            let Ok(id) = next else {
                return; // channel disconnected: drain() dropped the sender
            };
            self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.run_job(id);
        }
    }

    fn run_job(&self, id: u64) {
        let (spec, control) = {
            let mut jobs = self.jobs.lock().expect("no holder panics");
            let Some(record) = jobs.get_mut(&id) else { return };
            if record.state != JobState::Queued {
                return; // cancelled while waiting in the queue
            }
            record.state = JobState::Running;
            (Arc::clone(&record.spec), Arc::clone(&record.control))
        };
        self.metrics.jobs_inflight.fetch_add(1, Ordering::Relaxed);
        self.journal_append(Event::Started { id });

        let outcome = self.execute_campaign(&spec, &control);

        self.metrics.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
        let mut jobs = self.jobs.lock().expect("no holder panics");
        let Some(record) = jobs.get_mut(&id) else { return };
        let event = match outcome {
            Ok(CampaignOutcome::Completed(result)) => {
                record.state = JobState::Completed;
                record.result = Some(Arc::new(result));
                self.metrics.campaigns_completed.fetch_add(1, Ordering::Relaxed);
                Event::Completed { id }
            }
            Ok(CampaignOutcome::Cancelled) => {
                record.state = JobState::Cancelled;
                self.metrics.campaigns_cancelled.fetch_add(1, Ordering::Relaxed);
                Event::Cancelled { id }
            }
            Ok(CampaignOutcome::TimedOut { bench, config }) => {
                let error = format!("job {bench}/{config} exceeded the per-job wall-clock timeout");
                record.state = JobState::Failed;
                record.error = Some(error.clone());
                self.metrics.campaigns_failed.fetch_add(1, Ordering::Relaxed);
                Event::Failed { id, error }
            }
            // Admission already passed; a failure here is a harness bug,
            // and must not wedge the record in `Running`.
            Err(error) => {
                record.state = JobState::Failed;
                record.error = Some(error.clone());
                self.metrics.campaigns_failed.fetch_add(1, Ordering::Relaxed);
                Event::Failed { id, error }
            }
        };
        drop(jobs);
        self.journal_append(event);
        self.terminal.notify_all();
    }

    /// Runs one campaign on the local worker pool, sharing the service's
    /// warm-start cache.
    fn execute_campaign(
        &self,
        spec: &Arc<CampaignSpec>,
        control: &Arc<CampaignControl>,
    ) -> Result<CampaignOutcome, String> {
        let options = RunnerOptions {
            threads: self.config.campaign_threads,
            progress: false,
            warm_cache: true,
            checkpoint_dir: None,
            resume: false,
            max_batch: self.config.max_batch,
        };
        run_campaign_controlled(spec, &options, control, self.config.job_timeout, Some(&self.cache))
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance::experiments;

    fn tiny_spec(name: &str) -> CampaignSpec {
        CampaignSpec::new(name)
            .config("base", experiments::issue_queue(false))
            .benchmark("gzip")
            .cycles(20_000)
    }

    fn wait_terminal(service: &JobService, id: u64) -> StatusReport {
        for _ in 0..4_000 {
            let status = service.status(id).expect("known id");
            if status.state.is_terminal() {
                return status;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("campaign {id} did not reach a terminal state");
    }

    #[test]
    fn submit_runs_to_completion_with_result() {
        let service = JobService::start(ServiceConfig::default());
        let id = service.submit(tiny_spec("svc-complete")).expect("accepted");
        let status = wait_terminal(&service, id);
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.completed_jobs, 1);
        assert_eq!(status.total_jobs, 1);
        assert_eq!(status.finished.len(), 1);
        assert_eq!(status.finished[0].bench, "gzip");
        let result = service.result(id).expect("result available");
        assert_eq!(result.jobs.len(), 1);
        assert!(result.jobs[0].result.ipc > 0.0);
        service.drain();
        assert_eq!(service.metrics().campaigns_completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn policy_campaigns_round_trip_the_wire_and_run() {
        use powerbalance::experiments::PolicyKind;
        use powerbalance::FloorplanKind;

        let mut cfg = experiments::policy(PolicyKind::Dvfs, FloorplanKind::IssueConstrained);
        // Pull the limit below eon's transient peak so the ladder engages
        // within a test-sized cycle budget.
        cfg.mitigation = cfg.mitigation.with_max_temp(340.0);
        let spec = CampaignSpec::new("svc-dvfs")
            .config("dvfs", cfg)
            .benchmark("eon")
            .cycles(60_000)
            .seed(5);
        // An HTTP submission arrives as spec JSON; force that wire path so
        // a serde gap in the policy layer can't hide behind in-process use.
        let wired: CampaignSpec =
            serde::json::from_str(&serde::json::to_string(&spec)).expect("spec round-trips");
        assert_eq!(wired, spec);

        let service = JobService::start(ServiceConfig::default());
        let id = service.submit(wired).expect("accepted");
        assert_eq!(wait_terminal(&service, id).state, JobState::Completed);
        let result = service.result(id).expect("result available");
        let r = &result.jobs[0].result;
        assert!(r.opp_transitions > 0, "the DVFS ladder must engage");
        // The result artifact keeps the policy counters through its own
        // wire trip too.
        let back: CampaignResult =
            serde::json::from_str(&result.to_json()).expect("result round-trips");
        assert_eq!(back, *result);
        service.drain();
    }

    #[test]
    fn invalid_specs_are_rejected_at_admission() {
        let service = JobService::start(ServiceConfig::default());
        assert!(matches!(
            service.submit(CampaignSpec::new("no-configs").benchmark("gzip")),
            Err(SubmitError::Invalid(_))
        ));
        let huge = tiny_spec("huge").cycles(u64::MAX);
        assert!(matches!(service.submit(huge), Err(SubmitError::Invalid(_))));
        let wide = CampaignSpec::new("wide")
            .config("base", experiments::issue_queue(false))
            .all_benchmarks()
            .cycles(1_000);
        let narrow = JobService::start(ServiceConfig {
            max_jobs_per_campaign: 4,
            ..ServiceConfig::default()
        });
        assert!(matches!(narrow.submit(wide), Err(SubmitError::Invalid(_))));
        assert!(service.status(999).is_none());
        service.drain();
        narrow.drain();
    }

    #[test]
    fn queued_campaign_cancels_immediately() {
        // One worker, and a first campaign big enough that the second is
        // still queued when we cancel it.
        let service = JobService::start(ServiceConfig {
            workers: 1,
            campaign_threads: Some(1),
            ..ServiceConfig::default()
        });
        let blocker = service.submit(tiny_spec("blocker").cycles(300_000)).expect("accepted");
        let queued = service.submit(tiny_spec("queued")).expect("accepted");
        let observed = service.cancel(queued).expect("known id");
        // Cancellation raced the worker: the campaign was either still
        // queued (cancelled instantly) or had just started (cancelled at
        // the next window). Both must end Cancelled.
        assert!(matches!(observed, JobState::Queued | JobState::Running));
        assert_eq!(wait_terminal(&service, queued).state, JobState::Cancelled);
        assert_eq!(wait_terminal(&service, blocker).state, JobState::Completed);
        assert!(service.result(queued).is_none());
        service.drain();
        let m = service.metrics();
        assert_eq!(m.campaigns_submitted.load(Ordering::Relaxed), 2);
        assert_eq!(m.campaigns_completed.load(Ordering::Relaxed), 1);
        assert_eq!(m.campaigns_cancelled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_rejects_and_draining_refuses() {
        let service = JobService::start(ServiceConfig {
            queue_depth: 1,
            workers: 1,
            campaign_threads: Some(1),
            ..ServiceConfig::default()
        });
        // Fill the single worker and the single queue slot with slow
        // campaigns, then overflow.
        let a = service.submit(tiny_spec("a").cycles(300_000)).expect("accepted");
        let mut rejected = 0;
        let mut accepted = vec![a];
        for i in 0..20 {
            match service.submit(tiny_spec(&format!("b{i}")).cycles(300_000)) {
                Ok(id) => accepted.push(id),
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
        assert!(rejected > 0, "overflow must hit the bounded queue");
        let m = service.metrics();
        assert_eq!(m.campaigns_submitted.load(Ordering::Relaxed), 1 + 20);
        assert_eq!(m.campaigns_rejected.load(Ordering::Relaxed), rejected);
        // Rejected ids leave no record behind.
        service.drain();
        for id in &accepted {
            assert!(service.status(*id).expect("known id").state.is_terminal());
        }
        assert!(matches!(service.submit(tiny_spec("late")), Err(SubmitError::Draining)));
        // Reconciliation at quiescence.
        let done = m.campaigns_completed.load(Ordering::Relaxed)
            + m.campaigns_failed.load(Ordering::Relaxed)
            + m.campaigns_cancelled.load(Ordering::Relaxed)
            + m.campaigns_rejected.load(Ordering::Relaxed);
        assert_eq!(m.campaigns_submitted.load(Ordering::Relaxed), done);
    }

    #[test]
    fn job_timeout_fails_the_campaign() {
        let service = JobService::start(ServiceConfig {
            job_timeout: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        let id = service.submit(tiny_spec("doomed")).expect("accepted");
        let status = wait_terminal(&service, id);
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.expect("has error").contains("timeout"));
        service.drain();
        assert_eq!(service.metrics().campaigns_failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn warm_cache_is_shared_across_submissions() {
        let service = JobService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let spec = |name: &str| tiny_spec(name).cycles(10_000).warmup(20_000);
        let first = service.submit(spec("warm-1")).expect("accepted");
        let second = service.submit(spec("warm-2")).expect("accepted");
        assert_eq!(wait_terminal(&service, first).state, JobState::Completed);
        assert_eq!(wait_terminal(&service, second).state, JobState::Completed);
        let (computed, _, hits) = service.cache_stats();
        assert_eq!(computed, 1, "second submission reuses the first warmup");
        assert_eq!(hits, 1);
        service.drain();
    }

    #[test]
    fn abort_cancels_queued_work() {
        let service = JobService::start(ServiceConfig {
            workers: 1,
            campaign_threads: Some(1),
            ..ServiceConfig::default()
        });
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                service.submit(tiny_spec(&format!("abort-{i}")).cycles(300_000)).expect("fits")
            })
            .collect();
        service.abort();
        for id in ids {
            let status = service.status(id).expect("known id");
            assert!(status.state.is_terminal(), "job {id} left in {:?} after abort", status.state);
            assert_ne!(status.state, JobState::Failed);
        }
    }
}
