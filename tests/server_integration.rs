//! End-to-end integration tests for the simulation service: concurrent
//! load against a bounded queue, cancellation over the wire, metrics
//! reconciliation, graceful shutdown, and crash-journal recovery.

use powerbalance::experiments;
use powerbalance_harness::{CampaignResult, CampaignSpec};
use powerbalance_server::client::Client;
use powerbalance_server::journal::{Event, Journal, TerminalKind};
use powerbalance_server::service::{JobState, ServiceConfig};
use powerbalance_server::{Server, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn start_server(service: ServiceConfig) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_connections: 64,
        ..ServerConfig::default()
    })
    .expect("server binds on an ephemeral port")
}

fn spec_json(name: &str, cycles: u64) -> String {
    let spec = CampaignSpec::new(name)
        .config("base", experiments::issue_queue(false))
        .benchmark("gzip")
        .cycles(cycles)
        .seed(11);
    serde::json::to_string(&spec)
}

/// Extracts `"id":N` from a submit response body.
fn extract_id(body: &str) -> u64 {
    body.split("\"id\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no id in submit response: {body}"))
}

fn poll_terminal(client: &mut Client, id: u64) -> String {
    for _ in 0..4_000 {
        let response = client
            .request("GET", &format!("/v1/campaigns/{id}"), None)
            .expect("status endpoint answers");
        assert_eq!(response.status, 200, "status for a known id is always 200");
        let body = response.text();
        for state in ["\"Completed\"", "\"Failed\"", "\"Cancelled\""] {
            if body.contains(state) {
                return state.trim_matches('"').to_string();
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("campaign {id} never reached a terminal state");
}

/// A fresh scratch directory under the system temp dir.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "powerbalance-server-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

fn submit(client: &mut Client, spec: &CampaignSpec) -> u64 {
    let body = serde::json::to_string(spec);
    let response =
        client.request("POST", "/v1/campaigns", Some(&body)).expect("submission round-trips");
    assert_eq!(response.status, 202, "submit failed: {}", response.text());
    extract_id(&response.text())
}

/// Long-polls `GET /v1/campaigns/{id}/result?wait=5` until 200.
fn await_result(client: &mut Client, id: u64) -> CampaignResult {
    let path = format!("/v1/campaigns/{id}/result?wait=5");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let response = client.request("GET", &path, None).expect("result poll round-trips");
        match response.status {
            200 => {
                return serde::json::from_str(&response.text())
                    .expect("result body is a CampaignResult")
            }
            409 => assert!(Instant::now() < deadline, "campaign {id} never completed"),
            other => panic!("result poll got status {other}: {}", response.text()),
        }
    }
}

/// The acceptance-criteria scenario: 32 concurrent connections hammer a
/// server whose submission queue holds only 8 campaigns. Every request
/// must get a well-formed response — an id or a 429 — nothing may
/// deadlock, no accepted job may be lost, and afterwards the metrics
/// must reconcile exactly: submitted = completed + failed + cancelled +
/// rejected.
#[test]
fn thirty_two_connections_against_a_depth_8_queue() {
    let server = start_server(ServiceConfig {
        queue_depth: 8,
        workers: 2,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let addr = server.addr();

    const CONNECTIONS: usize = 32;
    const SUBMISSIONS_PER_CONNECTION: usize = 2;

    let results: Vec<(u64, u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, Duration::from_secs(30));
                    let mut accepted = 0u64;
                    let mut rejected = 0u64;
                    let mut states = Vec::new();
                    for i in 0..SUBMISSIONS_PER_CONNECTION {
                        let body = spec_json(&format!("load-c{conn}-i{i}"), 5_000);
                        let response = client
                            .request("POST", "/v1/campaigns", Some(&body))
                            .expect("submit gets a response");
                        match response.status {
                            202 => {
                                accepted += 1;
                                let id = extract_id(&response.text());
                                states.push(poll_terminal(&mut client, id));
                            }
                            429 => {
                                rejected += 1;
                                let hint: u64 = response
                                    .header("retry-after")
                                    .expect("429 must carry Retry-After")
                                    .parse()
                                    .expect("Retry-After is an integer second count");
                                assert!(
                                    (1..=3).contains(&hint),
                                    "Retry-After jitter stays in 1..=3, got {hint}"
                                );
                            }
                            other => panic!("submission got unexpected status {other}"),
                        }
                    }
                    (accepted, rejected, states.join(","))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no client thread panics")).collect()
    });

    let accepted: u64 = results.iter().map(|(a, _, _)| a).sum();
    let rejected: u64 = results.iter().map(|(_, r, _)| r).sum();
    assert_eq!(
        accepted + rejected,
        (CONNECTIONS * SUBMISSIONS_PER_CONNECTION) as u64,
        "every submission got a definitive answer"
    );
    assert!(accepted > 0, "some submissions must make it through");
    for (_, _, states) in &results {
        for state in states.split(',').filter(|s| !s.is_empty()) {
            assert_eq!(state, "Completed", "accepted campaigns must complete, not be lost");
        }
    }

    // Metrics reconciliation at quiescence.
    let m = server.service().metrics();
    let submitted = m.campaigns_submitted.load(Ordering::Relaxed);
    let completed = m.campaigns_completed.load(Ordering::Relaxed);
    let failed = m.campaigns_failed.load(Ordering::Relaxed);
    let cancelled = m.campaigns_cancelled.load(Ordering::Relaxed);
    let rejected_metric = m.campaigns_rejected.load(Ordering::Relaxed);
    assert_eq!(submitted, (CONNECTIONS * SUBMISSIONS_PER_CONNECTION) as u64);
    assert_eq!(rejected_metric, rejected);
    assert_eq!(completed, accepted);
    assert_eq!(
        submitted,
        completed + failed + cancelled + rejected_metric,
        "submitted must reconcile against terminal counters"
    );

    // Per-fidelity counters partition submissions; this test only ever
    // submitted Exact-fidelity specs.
    let exact = m.campaigns_submitted_exact.load(Ordering::Relaxed);
    let fast = m.campaigns_submitted_fast.load(Ordering::Relaxed);
    assert_eq!(submitted, exact + fast, "submitted must equal exact + fast");
    assert_eq!(fast, 0, "no fast-fidelity specs were submitted");

    // The same numbers must appear in the Prometheus rendering.
    let mut client = Client::new(addr, Duration::from_secs(5));
    let text = client.request("GET", "/metrics", None).expect("metrics answers").text();
    assert!(text.contains(&format!("powerbalance_campaigns_submitted_total {submitted}")));
    assert!(text.contains(&format!("powerbalance_campaigns_completed_total {completed}")));
    assert!(text.contains(&format!("powerbalance_campaigns_rejected_total {rejected_metric}")));
    assert!(text.contains("powerbalance_http_request_duration_seconds_bucket"));
}

#[test]
fn submit_status_result_round_trip() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(10));

    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("round-trip", 20_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let body = response.text();
    let id = extract_id(&body);
    assert!(body.contains(&format!("/v1/campaigns/{id}")), "submit echoes the status URL");

    assert_eq!(poll_terminal(&mut client, id), "Completed");

    let result =
        client.request("GET", &format!("/v1/campaigns/{id}/result"), None).expect("result answers");
    assert_eq!(result.status, 200);
    let text = result.text();
    // The body is the full CampaignResult document, parseable by the same
    // vendored serde the rest of the workspace uses.
    let parsed: powerbalance_harness::CampaignResult =
        serde::json::from_str(&text).expect("result body is a CampaignResult");
    assert_eq!(parsed.spec.name, "round-trip");
    assert_eq!(parsed.jobs.len(), 1);
    assert!(parsed.jobs[0].result.ipc > 0.0);
}

#[test]
fn multicore_specs_ride_the_wire_and_run_the_multicore_engine() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(30));

    let spec = CampaignSpec::new("multicore")
        .config(
            "2core",
            powerbalance::SimConfig {
                cores: 2,
                scheduler: powerbalance::SchedulerKind::CoolestFirst,
                ..powerbalance::SimConfig::default()
            },
        )
        .benchmark("gzip")
        .cycles(20_000)
        .seed(11);
    let response = client
        .request("POST", "/v1/campaigns", Some(&serde::json::to_string(&spec)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let id = extract_id(&response.text());

    assert_eq!(poll_terminal(&mut client, id), "Completed");

    let text = client
        .request("GET", &format!("/v1/campaigns/{id}/result"), None)
        .expect("result answers")
        .text();
    let parsed: powerbalance_harness::CampaignResult =
        serde::json::from_str(&text).expect("result body is a CampaignResult");
    // The archived spec keeps the multi-core shape, and the merged result
    // carries the second lane's `C1.`-prefixed block temperatures — proof
    // the multi-core engine, not a scalar fallback, served the campaign.
    assert_eq!(parsed.spec.configs[0].config.cores, 2);
    assert_eq!(parsed.spec.configs[0].config.scheduler, powerbalance::SchedulerKind::CoolestFirst);
    assert!(parsed.jobs[0].result.temperatures.iter().any(|t| t.name.starts_with("C1.")));
    assert!(parsed.jobs[0].result.ipc > 0.0);
}

#[test]
fn fidelity_query_overrides_the_spec_and_is_metered() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(30));

    // The spec itself says Exact (the default); the query flips it.
    let response = client
        .request("POST", "/v1/campaigns?fidelity=fast", Some(&spec_json("fast-run", 300_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let fast_id = extract_id(&response.text());

    // A second campaign with no query keeps the spec's own fidelity.
    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("exact-run", 20_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let exact_id = extract_id(&response.text());

    assert_eq!(poll_terminal(&mut client, fast_id), "Completed");
    assert_eq!(poll_terminal(&mut client, exact_id), "Completed");

    // The result artifact records the overridden config, so a reader of
    // the archive sees what actually ran.
    let fetch = |client: &mut Client, id: u64| {
        let text = client
            .request("GET", &format!("/v1/campaigns/{id}/result"), None)
            .expect("result answers")
            .text();
        serde::json::from_str::<powerbalance_harness::CampaignResult>(&text)
            .expect("result body is a CampaignResult")
    };
    let fast_result = fetch(&mut client, fast_id);
    assert_eq!(fast_result.spec.configs[0].config.fidelity, powerbalance::Fidelity::Fast);
    assert!(fast_result.jobs[0].result.ipc > 0.0);
    let exact_result = fetch(&mut client, exact_id);
    assert_eq!(exact_result.spec.configs[0].config.fidelity, powerbalance::Fidelity::Exact);

    // Mixed-fidelity traffic reconciles: submitted = exact + fast, and
    // both counters surface in the Prometheus rendering.
    let m = server.service().metrics();
    assert_eq!(m.campaigns_submitted.load(Ordering::Relaxed), 2);
    assert_eq!(m.campaigns_submitted_fast.load(Ordering::Relaxed), 1);
    assert_eq!(m.campaigns_submitted_exact.load(Ordering::Relaxed), 1);
    let text = client.request("GET", "/metrics", None).expect("metrics answers").text();
    assert!(text.contains("powerbalance_campaigns_submitted_exact_total 1"));
    assert!(text.contains("powerbalance_campaigns_submitted_fast_total 1"));
}

#[test]
fn cancellation_over_the_wire() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(server.addr(), Duration::from_secs(10));

    // A long campaign to cancel mid-flight, behind nothing.
    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("cancel-me", 50_000_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let id = extract_id(&response.text());

    let cancel =
        client.request("DELETE", &format!("/v1/campaigns/{id}"), None).expect("cancel answers");
    assert_eq!(cancel.status, 202);

    assert_eq!(poll_terminal(&mut client, id), "Cancelled");

    // The result of a cancelled campaign is a 409, not a hang or a 500.
    let result =
        client.request("GET", &format!("/v1/campaigns/{id}/result"), None).expect("result answers");
    assert_eq!(result.status, 409);

    // Cancelling a terminal campaign is accepted but a no-op.
    let again =
        client.request("DELETE", &format!("/v1/campaigns/{id}"), None).expect("cancel answers");
    assert_eq!(again.status, 202);
    assert_eq!(
        server.service().metrics().campaigns_cancelled.load(Ordering::Relaxed),
        1,
        "double-cancel must not double-count"
    );
}

#[test]
fn graceful_shutdown_drains_and_refuses() {
    let server = start_server(ServiceConfig {
        queue_depth: 4,
        workers: 1,
        campaign_threads: Some(1),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    let mut client = Client::new(addr, Duration::from_secs(10));

    let response = client
        .request("POST", "/v1/campaigns", Some(&spec_json("drain-me", 200_000)))
        .expect("submit answers");
    assert_eq!(response.status, 202);
    let id = extract_id(&response.text());

    // Ask for shutdown over the wire, as an operator would.
    let shutdown = client.request("POST", "/v1/shutdown", None).expect("shutdown answers");
    assert_eq!(shutdown.status, 202);
    assert!(server.shutdown_requested(), "the handle owner sees the request");

    // Graceful: the in-flight campaign still completes.
    let service = std::sync::Arc::clone(server.service());
    server.shutdown();
    let status = service.status(id).expect("the record survives shutdown");
    assert_eq!(
        status.state,
        powerbalance_server::service::JobState::Completed,
        "graceful shutdown waits for in-flight campaigns"
    );
    assert!(service.is_draining());
    // The listener is gone: new connections are refused.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "the listener must be closed after shutdown"
    );
}

/// A journal holding a submitted-and-started (but unfinished) campaign is
/// replayed on startup: the campaign re-queues under its original id and
/// completes without resubmission.
#[test]
fn journal_recovery_completes_pending() {
    let dir = tempdir("recovery");
    let spec = CampaignSpec::new("interrupted")
        .config("base", experiments::issue_queue(false))
        .benchmark("gzip")
        .cycles(2_000)
        .seed(3);
    {
        let (journal, recovery) = Journal::open(&dir).expect("journal opens in an empty dir");
        assert_eq!(recovery.pending.len(), 0);
        journal.append(Event::Submitted { id: 5, spec: spec.clone() }).expect("append works");
        journal.append(Event::Started { id: 5 }).expect("append works");
        // Dropped here without a terminal record — the "crash".
    }

    let handle = start_server(ServiceConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(handle.addr(), Duration::from_secs(30));
    let result = await_result(&mut client, 5);
    assert_eq!(result.jobs.len(), 1, "replayed campaign runs to completion");
    assert_eq!(result.spec, spec, "the journaled spec is what ran");

    // Recovery preserves id allocation: the next submission must not
    // collide with the replayed id.
    let next = submit(&mut client, &spec);
    assert!(next > 5, "fresh ids continue past the replayed maximum, got {next}");

    let healthz = client.request("GET", "/healthz", None).expect("healthz round-trips");
    assert!(
        healthz.text().contains("journal:"),
        "healthz reports journal status when journalling is on"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign that reached a terminal state before the crash comes back
/// as a tombstone: status is preserved, but the result (which is not
/// journaled) answers 410 Gone rather than 404 or a hang.
#[test]
fn journal_tombstone_survives_restart() {
    let dir = tempdir("tombstone");
    let spec = CampaignSpec::new("done-before-crash")
        .config("base", experiments::issue_queue(false))
        .benchmark("gzip")
        .cycles(2_000)
        .seed(3);
    {
        let (journal, _) = Journal::open(&dir).expect("journal opens");
        journal.append(Event::Submitted { id: 2, spec }).expect("append works");
        journal.append(Event::Started { id: 2 }).expect("append works");
        journal.append(Event::Completed { id: 2 }).expect("append works");
    }

    let handle = start_server(ServiceConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let mut client = Client::new(handle.addr(), Duration::from_secs(30));

    let status = client.request("GET", "/v1/campaigns/2", None).expect("status round-trips");
    assert_eq!(status.status, 200);
    assert!(status.text().contains("\"Completed\""), "tombstone keeps its terminal state");

    let result = client.request("GET", "/v1/campaigns/2/result", None).expect("result round-trips");
    assert_eq!(result.status, 410, "results are not retained across restarts: {}", result.text());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay re-applies admission under the restarted server's limits: a
/// journaled campaign over the new per-job cycle budget comes back
/// `Failed` with the budget message, journals that outcome, and never
/// runs.
#[test]
fn replayed_campaign_over_the_cycle_budget_fails_admission() {
    let dir = tempdir("admission");
    let spec = CampaignSpec::new("over-budget")
        .config("base", experiments::issue_queue(false))
        .benchmark("gzip")
        .cycles(200_000)
        .seed(3);
    {
        let (journal, _) = Journal::open(&dir).expect("journal opens in an empty dir");
        journal.append(Event::Submitted { id: 4, spec }).expect("append works");
    }

    let handle = start_server(ServiceConfig {
        workers: 1,
        max_cycles_per_job: 100_000,
        journal_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let status = handle.service().status(4).expect("the replayed id is known");
    assert_eq!(status.state, JobState::Failed);
    let error = status.error.expect("the failure carries the admission error");
    assert!(error.contains("200000 cycles") && error.contains("at most 100000"), "{error}");
    assert_eq!(status.completed_jobs, 0, "the over-budget campaign never ran");

    let mut client = Client::new(handle.addr(), Duration::from_secs(30));
    let result = client.request("GET", "/v1/campaigns/4/result", None).expect("result answers");
    assert_eq!(result.status, 500);
    assert!(result.text().contains("at most 100000"), "{}", result.text());

    let m = handle.service().metrics();
    assert_eq!(m.campaigns_submitted.load(Ordering::Relaxed), 1);
    assert_eq!(m.campaigns_failed.load(Ordering::Relaxed), 1);
    assert_eq!(m.campaigns_replayed.load(Ordering::Relaxed), 0);
    assert_eq!(handle.service().journal_status(), Some((0, 0)), "Failed is journaled");
    handle.shutdown();

    let (_, recovery) = Journal::open(&dir).expect("journal reopens");
    assert!(recovery.pending.is_empty(), "the refused campaign is not replayed again");
    assert_eq!(recovery.terminal.len(), 1);
    assert_eq!(recovery.terminal[0].1, TerminalKind::Failed(error));
    let _ = std::fs::remove_dir_all(&dir);
}
