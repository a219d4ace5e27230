//! `powerbalance-server` — simulation-as-a-service over HTTP.
//!
//! A std-only HTTP/1.1 daemon (no external dependencies, per the
//! workspace's offline vendoring policy) that accepts JSON
//! [`CampaignSpec`] submissions, runs them on a bounded worker pool with
//! a process-wide [`WarmStartCache`](powerbalance_harness::WarmStartCache),
//! and serves status, results, cancellation, health, and Prometheus
//! metrics:
//!
//! | Route                         | Meaning                                        |
//! |-------------------------------|------------------------------------------------|
//! | `POST /v1/campaigns`          | submit a campaign (`202` id, `429` queue full); `?fidelity=fast\|exact` overrides every config's fidelity |
//! | `GET /v1/campaigns/<id>`      | status + live per-job progress                 |
//! | `GET /v1/campaigns/<id>/result` | full `CampaignResult` JSON once complete     |
//! | `DELETE /v1/campaigns/<id>`   | cooperative cancellation                       |
//! | `GET /healthz`                | liveness probe (+ journal status when enabled) |
//! | `GET /metrics`                | Prometheus text exposition                     |
//! | `POST /v1/shutdown`           | request graceful shutdown                      |
//!
//! `GET /v1/campaigns/<id>/result?wait=<secs>` long-polls: the handler
//! parks on the service's terminal condvar instead of making the client
//! busy-poll `409 Retry-After` loops.
//!
//! The architecture is three layers, each independently testable:
//! [`http`] (wire parsing with hard limits and deadlines), [`service`]
//! (the transport-free job queue + worker pool, made crash-safe by the
//! optional [`journal`]), and this module's accept loop gluing them
//! together. Backpressure is end-to-end: the submission
//! queue is a bounded `sync_channel`, a full queue turns into `429` +
//! `Retry-After`, and a connection cap sheds load before a handler thread
//! is even spawned.

// `deny` rather than the workspace's usual `forbid` so the one
// audited exception — the libc-free signal shim in `signal.rs` — can
// locally `allow` it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod service;
pub mod signal;

use http::{Limits, RecvError, Request, Response};
use metrics::Endpoint;
use powerbalance_harness::CampaignSpec;
use service::{JobService, JobState, ServiceConfig, SubmitError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything needed to start a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8484` (port `0` picks a free one).
    pub addr: String,
    /// Job-service tuning (queue depth, workers, timeouts).
    pub service: ServiceConfig,
    /// Per-request size limits.
    pub limits: Limits,
    /// Wall-clock budget for reading one full request; also the idle
    /// keep-alive timeout.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Open-connection cap; connections beyond it get an inline `503`.
    pub max_connections: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8484".to_string(),
            service: ServiceConfig::default(),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_connections: 64,
        }
    }
}

/// The running server. Construct with [`Server::start`].
pub struct Server;

impl Server {
    /// Binds the listener, starts the job service and the accept loop,
    /// and returns a handle for observation and shutdown.
    ///
    /// # Errors
    ///
    /// Returns any error from binding or configuring the listener.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Nonblocking so the accept loop can poll the shutdown flag —
        // the signal shim cannot interrupt a blocking accept (SA_RESTART).
        listener.set_nonblocking(true)?;

        let service = JobService::start(config.service.clone());
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new(AtomicBool::new(false));

        let shared = Arc::new(Shared {
            service: Arc::clone(&service),
            shutdown: Arc::clone(&shutdown),
            shutdown_requested: Arc::clone(&shutdown_requested),
            limits: config.limits,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            let max_connections = config.max_connections;
            std::thread::Builder::new()
                .name("powerbalance-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, max_connections))
                .expect("spawning the acceptor thread succeeds")
        };

        Ok(ServerHandle {
            addr,
            service,
            shared,
            shutdown,
            shutdown_requested,
            acceptor: Some(acceptor),
        })
    }
}

/// State shared between the acceptor and every connection handler.
struct Shared {
    service: Arc<JobService>,
    shutdown: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    limits: Limits,
    read_timeout: Duration,
    write_timeout: Duration,
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<JobService>,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying job service, for in-process observation.
    #[must_use]
    pub fn service(&self) -> &Arc<JobService> {
        &self.service
    }

    /// Asks the server to shut down; the owner of the handle is expected
    /// to notice via [`shutdown_requested`](ServerHandle::shutdown_requested)
    /// and call [`shutdown`](ServerHandle::shutdown). `POST /v1/shutdown`
    /// lands here too.
    pub fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::Relaxed);
    }

    /// Whether anyone has requested a shutdown.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting connections, refuse new
    /// submissions, let queued and running campaigns finish, then wait
    /// (bounded) for open connections to wind down.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.service.drain();
        // Handlers notice the flag after their current exchange, or when
        // their per-request read deadline expires; wait out the longer.
        let deadline = Instant::now() + self.shared.read_timeout + Duration::from_secs(1);
        while self.service.metrics().connections_open.load(Ordering::Relaxed) > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Fast, non-graceful teardown for the early-exit paths: cancel
        // everything rather than wait for campaigns to finish.
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.service.abort();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, max_connections: u64) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let metrics = shared.service.metrics();
                metrics.connections_total.fetch_add(1, Ordering::Relaxed);
                if metrics.connections_open.load(Ordering::Relaxed) >= max_connections {
                    metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    shed(stream, shared.write_timeout);
                    continue;
                }
                metrics.connections_open.fetch_add(1, Ordering::Relaxed);
                let handler_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("powerbalance-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &handler_shared);
                        handler_shared
                            .service
                            .metrics()
                            .connections_open
                            .fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    // Thread spawn failed (resource exhaustion): undo the
                    // gauge; the stream drops and the client sees a reset.
                    shared.service.metrics().connections_open.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept errors (per-connection failures like
            // ECONNABORTED) should not kill the server.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Inline load shedding at the connection cap: one `503` and close,
/// without spawning a handler thread.
fn shed(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = Response::error(503, "connection limit reached, retry later")
        .with_header("Retry-After", "1")
        .with_close()
        .write_to(&mut stream);
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(shared.write_timeout)).is_err() {
        return;
    }
    let metrics = Arc::clone(shared.service.metrics());
    loop {
        let deadline = Instant::now() + shared.read_timeout;
        let request = http::read_request(&mut stream, &shared.limits, deadline);
        let handle_start = Instant::now();
        let (endpoint, response, done) = match request {
            Ok(request) => {
                let close = request.wants_close() || shared.shutdown.load(Ordering::Relaxed);
                let (endpoint, mut response) = route(shared, &request);
                if close {
                    response = response.with_close();
                }
                (endpoint, response, close)
            }
            // Clean end of a keep-alive session, idle timeout, or a dead
            // socket: nothing to say, just close.
            Err(RecvError::Closed | RecvError::TimedOut { partial: false } | RecvError::Io(_)) => {
                return
            }
            Err(RecvError::TimedOut { partial: true }) => (
                Endpoint::Other,
                Response::error(408, "request not received within the read deadline").with_close(),
                true,
            ),
            Err(RecvError::HeadTooLarge) => (
                Endpoint::Other,
                Response::error(400, "request head exceeds the size limit").with_close(),
                true,
            ),
            Err(RecvError::BodyTooLarge { declared }) => (
                Endpoint::Other,
                // The body was never read, so the connection is not
                // synchronized for another request: close it.
                Response::error(
                    413,
                    &format!("declared body of {declared} bytes exceeds the limit"),
                )
                .with_close(),
                true,
            ),
            Err(RecvError::Malformed(detail)) => (
                Endpoint::Other,
                Response::error(400, &format!("malformed request: {detail}")).with_close(),
                true,
            ),
        };
        let status = response.status;
        let write_ok = response.write_to(&mut stream).is_ok();
        metrics.observe(endpoint, status, handle_start.elapsed());
        if done || !write_ok {
            return;
        }
    }
}

/// Splits `/v1/campaigns/<id>[/result]`-style paths; returns the id and
/// whether the `/result` suffix was present.
fn parse_campaign_path(rest: &str) -> Option<(u64, bool)> {
    let (id_part, result) = match rest.strip_suffix("/result") {
        Some(prefix) => (prefix, true),
        None => (rest, false),
    };
    id_part.parse::<u64>().ok().map(|id| (id, result))
}

fn route(shared: &Shared, request: &Request) -> (Endpoint, Response) {
    let path = request.path.split('?').next().unwrap_or("");
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => {
            // The body stays exactly "ok\n" without a journal so existing
            // probes keep matching; with one, a second line reports it.
            let body = match shared.service.journal_status() {
                Some((depth, replayed)) => {
                    format!("ok\njournal: depth={depth} replayed={replayed}\n")
                }
                None => "ok\n".to_string(),
            };
            (Endpoint::Healthz, Response::text(200, body))
        }
        ("GET", "/metrics") => {
            let text = shared
                .service
                .metrics()
                .render(shared.service.cache_stats(), shared.service.journal_depth());
            (Endpoint::Metrics, Response::text(200, text))
        }
        ("POST", "/v1/shutdown") => {
            shared.shutdown_requested.store(true, Ordering::Relaxed);
            (Endpoint::Shutdown, Response::json(202, "{\"shutting_down\":true}"))
        }
        ("POST", "/v1/campaigns") => (Endpoint::Submit, submit(shared, request)),
        (_, "/healthz" | "/metrics" | "/v1/shutdown" | "/v1/campaigns") => {
            (Endpoint::Other, Response::error(405, &format!("method {method} not allowed here")))
        }
        (_, _) if path.starts_with("/v1/campaigns/") => {
            let rest = &path["/v1/campaigns/".len()..];
            let Some((id, wants_result)) = parse_campaign_path(rest) else {
                return (Endpoint::Other, Response::error(404, "no such route"));
            };
            match (method, wants_result) {
                ("GET", false) => (Endpoint::Status, status(shared, id)),
                ("GET", true) => (Endpoint::Result, result(shared, request, id)),
                ("DELETE", false) => (Endpoint::Cancel, cancel(shared, id)),
                _ => (
                    Endpoint::Other,
                    Response::error(405, &format!("method {method} not allowed here")),
                ),
            }
        }
        _ => (Endpoint::Other, Response::error(404, "no such route")),
    }
}

/// Parses the submit query string for a `fidelity=<name>` parameter.
/// `route` matches on the path with the query stripped, so the raw
/// `request.path` still carries it here. Unrecognized parameters are
/// ignored (consistent with every other route); an unknown fidelity
/// *value* is an error so a typo can't silently run at the wrong cost.
fn fidelity_override(path: &str) -> Result<Option<powerbalance::Fidelity>, String> {
    let Some((_, query)) = path.split_once('?') else {
        return Ok(None);
    };
    let mut fidelity = None;
    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == "fidelity" {
            fidelity = Some(powerbalance::Fidelity::from_name(value).ok_or_else(|| {
                format!("unknown fidelity '{value}' (expected 'exact' or 'fast')")
            })?);
        }
    }
    Ok(fidelity)
}

fn submit(shared: &Shared, request: &Request) -> Response {
    let metrics = shared.service.metrics();
    let fidelity = match fidelity_override(&request.path) {
        Ok(fidelity) => fidelity,
        Err(detail) => {
            metrics.campaigns_invalid.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &detail);
        }
    };
    let Ok(text) = std::str::from_utf8(&request.body) else {
        metrics.campaigns_invalid.fetch_add(1, Ordering::Relaxed);
        return Response::error(400, "request body is not valid UTF-8");
    };
    let mut spec: CampaignSpec = match serde::json::from_str(text) {
        Ok(spec) => spec,
        Err(e) => {
            metrics.campaigns_invalid.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &format!("invalid campaign JSON: {e}"));
        }
    };
    if let Some(fidelity) = fidelity {
        for named in &mut spec.configs {
            named.config.fidelity = fidelity;
        }
    }
    match shared.service.submit(spec) {
        Ok(id) => {
            Response::json(202, format!("{{\"id\":{id},\"status_url\":\"/v1/campaigns/{id}\"}}"))
        }
        Err(SubmitError::Invalid(detail)) => {
            metrics.campaigns_invalid.fetch_add(1, Ordering::Relaxed);
            Response::error(400, &detail)
        }
        Err(SubmitError::QueueFull) => {
            Response::error(429, "submission queue is full, retry later")
                .with_header("Retry-After", retry_after_jitter().to_string())
        }
        Err(SubmitError::Draining) => {
            Response::error(503, "server is shutting down").with_header("Retry-After", "5")
        }
    }
}

fn status(shared: &Shared, id: u64) -> Response {
    match shared.service.status(id) {
        Some(report) => Response::json(200, serde::json::to_string(&report)),
        None => Response::error(404, &format!("no campaign with id {id}")),
    }
}

fn result(shared: &Shared, request: &Request, id: u64) -> Response {
    let wait = match parse_wait(&request.path) {
        Ok(wait) => wait,
        Err(detail) => return Response::error(400, &detail),
    };
    let report = match wait {
        Some(secs) => shared.service.wait_terminal(id, Duration::from_secs(secs)),
        None => shared.service.status(id),
    };
    let Some(report) = report else {
        return Response::error(404, &format!("no campaign with id {id}"));
    };
    match report.state {
        JobState::Completed => match shared.service.result(id) {
            Some(result) => Response::json(200, result.to_json()),
            // A journal tombstone: the previous incarnation completed the
            // campaign, but results are not journaled. Gone, not pending.
            None => Response::error(
                410,
                "campaign completed before a server restart; its result was not retained",
            ),
        },
        JobState::Queued | JobState::Running => {
            Response::error(409, "campaign has not completed yet").with_header("Retry-After", "1")
        }
        JobState::Cancelled => Response::error(409, "campaign was cancelled"),
        JobState::Failed => {
            Response::error(500, report.error.as_deref().unwrap_or("campaign failed"))
        }
    }
}

/// Parses a `wait=<secs>` query parameter (used by the long-poll result
/// route). Capped at [`MAX_WAIT_SECS`] so a client cannot park a handler
/// thread arbitrarily long; malformed values are an error.
fn parse_wait(path: &str) -> Result<Option<u64>, String> {
    let Some((_, query)) = path.split_once('?') else {
        return Ok(None);
    };
    let mut wait = None;
    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == "wait" {
            let secs = value
                .parse::<u64>()
                .map_err(|_| format!("invalid wait '{value}' (expected whole seconds)"))?;
            wait = Some(secs.min(MAX_WAIT_SECS));
        }
    }
    Ok(wait)
}

/// Upper bound on `?wait=` result long-polls.
const MAX_WAIT_SECS: u64 = 30;

/// Bounded jitter for `Retry-After` on 429s: a Weyl-style counter hashed
/// through the golden-ratio multiplier, folded to 1–3 seconds. Statefully
/// desynchronizes retry herds without any per-connection RNG.
fn retry_after_jitter() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    1 + (n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 3
}

fn cancel(shared: &Shared, id: u64) -> Response {
    match shared.service.cancel(id) {
        Some(observed) => Response::json(
            202,
            format!("{{\"id\":{id},\"observed_state\":{}}}", serde::json::to_string(&observed)),
        ),
        None => Response::error(404, &format!("no campaign with id {id}")),
    }
}
