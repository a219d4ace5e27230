//! `multicore-serve`: the in-process HTTP service under closed-loop load.
//!
//! `Server::start` with two workers and queue depth 4, driven over two
//! loopback keep-alive connections (one per host CPU of the reference
//! machine) by two client threads. Each connection submits single-job
//! campaigns one at a time and long-polls `GET …/result?wait=30` for
//! each; specs rotate over {gzip, mesa} × {coolest-first, threshold} on a
//! 2-core die with issue-queue toggling, 300k cycles each. It is the only
//! workload for the N×1 engine, its larger thermal network, the
//! scheduler, and the HTTP/JSON/queue path. Two cores, not four: four
//! cores on a package sized for one mostly simulate frozen cycles.

use crate::calibrate;
use crate::layers::{self, Engine, ScalarJob, Service};
use crate::report::{check_digests, check_result, digest, Checks, Outcome, Round, Rounds};
use crate::stats::{median, peak_rss_mib, reset_peak_rss};
use powerbalance::experiments;
use powerbalance::{
    spec2000, MultiCoreSimulator, RunResult, SchedulerKind, SimConfig, Task, TaskSet,
};
use powerbalance_harness::{run_campaign, CampaignResult, CampaignSpec, RunnerOptions};
use powerbalance_server::client::Client;
use powerbalance_server::service::ServiceConfig;
use powerbalance_server::{Server, ServerConfig, ServerHandle};
use serde::json::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const BENCHMARKS: [&str; 2] = ["gzip", "mesa"];
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::CoolestFirst, SchedulerKind::Threshold];
const CORES: usize = 2;
const CYCLES: u64 = 300_000;
const CONNECTIONS: usize = 2;
/// Timed campaigns per connection per round.
const PER_CONNECTION: usize = 50;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 4;
/// Calibration samples before and after each round.
const CAL_SAMPLES: usize = 3;
/// Socket timeout of the clients: far above any campaign's latency.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The four specs, benchmark-major.
fn specs(seed: u64) -> Vec<CampaignSpec> {
    BENCHMARKS
        .iter()
        .flat_map(|&bench| {
            SCHEDULERS.iter().map(move |&scheduler| {
                let config =
                    SimConfig { cores: CORES, scheduler, ..experiments::issue_queue(true) };
                CampaignSpec::new(format!("serve-{bench}-{}", scheduler.name()))
                    .config("iq-toggling-2core", config)
                    .benchmark(bench)
                    .cycles(CYCLES)
                    .seed(seed)
            })
        })
        .collect()
}

/// The spec campaign `index` of connection `conn` submits: each
/// connection walks the rotation, offset from the other.
fn spec_index(conn: usize, index: usize) -> usize {
    (index + conn) % (BENCHMARKS.len() * SCHEDULERS.len())
}

fn start_server() -> Result<ServerHandle, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            queue_depth: QUEUE_DEPTH,
            workers: WORKERS,
            campaign_threads: Some(1),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))
}

/// One served campaign, as the client saw it.
#[derive(Debug)]
struct Served {
    spec: usize,
    /// Submit to parsed result.
    latency_s: f64,
    /// Parsing the result document.
    decode_s: f64,
    bytes: usize,
    requests: u64,
    outcome: Result<CampaignResult, String>,
}

/// Submits `body` and long-polls its result over `client`.
fn serve_one(client: &mut Client, spec: usize, body: &str) -> Served {
    let start = Instant::now();
    let mut served = Served {
        spec,
        latency_s: 0.0,
        decode_s: 0.0,
        bytes: 0,
        requests: 0,
        outcome: Err(String::new()),
    };
    let outcome = exchange(client, body, &mut served);
    served.outcome = outcome;
    served.latency_s = start.elapsed().as_secs_f64();
    served
}

/// The HTTP exchanges of one campaign; counts requests and records the
/// result document's size and parse time in `served`.
fn exchange(
    client: &mut Client,
    body: &str,
    served: &mut Served,
) -> Result<CampaignResult, String> {
    served.requests += 1;
    let response =
        client.request("POST", "/v1/campaigns", Some(body)).map_err(|e| e.to_string())?;
    if response.status != 202 {
        return Err(format!("submit answered {}: {}", response.status, response.text()));
    }
    let id = Value::parse(&response.text())
        .and_then(|v| v.field("id").and_then(Value::as_u64))
        .map_err(|e| format!("submit reply: {e}"))?;
    let path = format!("/v1/campaigns/{id}/result?wait=30");
    loop {
        served.requests += 1;
        let response = client.request("GET", &path, None).map_err(|e| e.to_string())?;
        match response.status {
            200 => {
                let text = response.text();
                let t = Instant::now();
                let result: CampaignResult =
                    serde::json::from_str(&text).map_err(|e| format!("result document: {e}"))?;
                served.decode_s = t.elapsed().as_secs_f64();
                served.bytes = text.len();
                return Ok(result);
            }
            // The long-poll window lapsed before the campaign finished.
            409 if response.text().contains("not completed") => {}
            status => return Err(format!("result answered {status}: {}", response.text())),
        }
    }
}

/// Runs `per_connection` campaigns on each connection concurrently;
/// returns them connection-major, with the round's wall time.
fn drive(addr: SocketAddr, bodies: &[String], per_connection: usize) -> (Vec<Served>, f64) {
    let start = Instant::now();
    let served = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    (0..per_connection)
                        .map(|i| {
                            let spec = spec_index(conn, i);
                            serve_one(&mut client, spec, &bodies[spec])
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    (served, start.elapsed().as_secs_f64())
}

/// Reads the campaign counters from `/metrics` and checks that every
/// submission is accounted for.
fn check_metrics(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::new(addr, CLIENT_TIMEOUT);
    let text = client.request("GET", "/metrics", None).map_err(|e| e.to_string())?.text();
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse::<u64>().ok()))
            .ok_or_else(|| format!("/metrics lacks {name}"))
    };
    let submitted = counter("powerbalance_campaigns_submitted_total ")?;
    let settled = counter("powerbalance_campaigns_completed_total ")?
        + counter("powerbalance_campaigns_failed_total ")?
        + counter("powerbalance_campaigns_cancelled_total ")?
        + counter("powerbalance_campaigns_rejected_total ")?;
    if submitted == settled {
        Ok(())
    } else {
        Err(format!(
            "/metrics: {submitted} submitted but {settled} completed+failed+cancelled+rejected"
        ))
    }
}

/// What one round of the service measured.
struct ServedRound {
    round: Round,
    served: Vec<Served>,
    /// Warm-start cache statistics `(computed, loaded, hits)`.
    cache: (u64, u64, u64),
}

/// One round: start a server, warm it with one campaign per connection,
/// drive the timed campaigns, check `/metrics`, shut down; calibration
/// samples before and after.
fn round(bodies: &[String], checks: &mut Checks) -> Result<ServedRound, String> {
    reset_peak_rss();
    let mut round = Round::default();
    round.cal_s.extend((0..CAL_SAMPLES).map(|_| calibrate::sample(CONNECTIONS)));
    let t = Instant::now();
    let handle = start_server()?;
    let (warmup, _) = drive(handle.addr(), bodies, 1);
    round.setup_s.push(t.elapsed().as_secs_f64());
    for served in &warmup {
        checks.op(served
            .outcome
            .as_ref()
            .map(|_| ())
            .map_err(|e| format!("warm-up campaign: {e}")));
    }
    let (served, wall) = drive(handle.addr(), bodies, PER_CONNECTION);
    round.wall_s = wall;
    round.op_s = served.iter().map(|s| s.latency_s).collect();
    checks.run(check_metrics(handle.addr()));
    let cache = handle.service().cache_stats();
    handle.shutdown();
    round.cal_s.extend((0..CAL_SAMPLES).map(|_| calibrate::sample(CONNECTIONS)));
    round.peak_rss_mib = peak_rss_mib()?;
    Ok(ServedRound { round, served, cache })
}

/// Checks every served campaign against `expected[spec]`, the result an
/// in-process run of its spec produced.
fn check_served(served: &[Served], expected: &[RunResult], checks: &mut Checks) {
    for s in served {
        checks.op(match &s.outcome {
            Err(e) => Err(e.clone()),
            Ok(result) if result.jobs[0].result != expected[s.spec] => {
                Err(format!("{}: served result differs from the local run", result.spec.name))
            }
            Ok(result) => check_result(
                &result.spec.name,
                &result.jobs[0].result,
                CYCLES,
                result.spec.configs[0].config.package.ambient,
            ),
        });
    }
}

/// The results of the campaigns that were served, in order.
fn served_results(served: &[Served]) -> Vec<RunResult> {
    served
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .map(|r| r.jobs[0].result.clone())
        .collect()
}

/// Each spec's job run locally through the harness: what the service
/// must return for it.
fn local_results(specs: &[CampaignSpec]) -> Result<Vec<RunResult>, String> {
    let options = RunnerOptions { threads: Some(1), ..RunnerOptions::default() };
    specs
        .iter()
        .map(|spec| {
            run_campaign(spec, &options)
                .map(|r| r.jobs[0].result.clone())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The timed run: `rounds` rounds, then the local references.
///
/// # Errors
///
/// Returns a message if the server cannot start or a reference fails.
pub fn timed(seed: u64, rounds: usize) -> Result<Outcome, String> {
    let specs = specs(seed);
    let bodies: Vec<String> = specs.iter().map(serde::json::to_string).collect();
    let mut timing = Rounds::default();
    let mut checks = Checks::default();
    let mut all = Vec::new();
    for _ in 0..rounds {
        let served = round(&bodies, &mut checks)?;
        timing.rounds.push(served.round);
        all.push(served.served);
    }
    let expected = local_results(&specs)?;
    // Simulated core cycles: every core of the die runs the full budget.
    timing.cycles = all[0].iter().map(|s| expected[s.spec].cycles * CORES as u64).sum();
    let mut digests = Vec::new();
    for served in &all {
        check_served(served, &expected, &mut checks);
        digests.push(digest(&served_results(served)));
    }
    checks.run(check_digests(&digests));
    Ok(Outcome {
        header: format!("workload multicore-serve  seed {seed}  rounds {rounds}  trace off"),
        metrics: timing.end_to_end(),
        checks,
        digest: digests[0],
    })
}

/// Runs `spec`'s job on `MultiCoreSimulator` directly, the way the
/// harness does, one sampling window per call. Returns the merged result,
/// the per-window host microseconds, and the total host nanoseconds.
fn reference(spec: &CampaignSpec) -> Result<(RunResult, Vec<f64>, u64), String> {
    let config = spec.configs[0].config.clone();
    let profile = spec2000::by_name(&spec.benchmarks[0]).ok_or("unknown benchmark")?;
    let interval = config.sample_interval;
    let mut sim = MultiCoreSimulator::new(config).map_err(|e| e.to_string())?;
    let mut tasks = TaskSet::new(
        (0..CORES as u64).map(|c| Task::unbounded(c, profile.trace(spec.seed.wrapping_add(c)))),
    );
    let mut window_us = Vec::new();
    let mut total_ns = 0u64;
    let mut left = spec.cycles;
    while left > 0 {
        let n = interval.min(left);
        let t = Instant::now();
        sim.run(&mut tasks, n);
        let ns = t.elapsed().as_nanos() as u64;
        total_ns += ns;
        window_us.push(ns as f64 / 1e3);
        left -= n;
    }
    Ok((sim.result().merged(), window_us, total_ns))
}

/// The traced run: one round with client-side timestamps, each spec's
/// job driven window by window through `MultiCoreSimulator` (the served
/// results must equal these), then the traced layer pass over the
/// single-core equivalents of the served jobs.
///
/// # Errors
///
/// Returns a message if the server cannot start or a reference fails.
pub fn traced(seed: u64) -> Result<Outcome, String> {
    let specs = specs(seed);
    let bodies: Vec<String> = specs.iter().map(serde::json::to_string).collect();
    let mut checks = Checks::default();
    let ServedRound { round, served, cache: (warmups_computed, _, cache_hits) } =
        round(&bodies, &mut checks)?;

    let mut window_us = Vec::new();
    let mut ref_ns = Vec::new();
    let mut expected = Vec::new();
    for spec in &specs {
        let (merged, windows, ns) = reference(spec)?;
        window_us.extend(windows);
        ref_ns.push(ns);
        expected.push(merged);
    }
    check_served(&served, &expected, &mut checks);

    let engine_ns: u64 = ref_ns.iter().sum();
    let engine = Engine {
        cycles_per_s: (specs.len() as u64 * CYCLES * CORES as u64) as f64
            / (engine_ns as f64 / 1e9),
        window_us_p50: median(&window_us),
        class_windows: window_us.len() as u64,
        forks: 0,
        sharing: 1.0,
    };
    let latency: f64 = served.iter().map(|s| s.latency_s).sum();
    let in_engine: f64 = served.iter().map(|s| ref_ns[s.spec] as f64 / 1e9).sum();
    let busy: u64 =
        served.iter().filter_map(|s| s.outcome.as_ref().ok()).map(|r| r.wall_nanos).sum();
    let service = Service {
        pool_busy_frac: busy as f64 / 1e9 / (WORKERS as f64 * round.wall_s),
        warmups_computed,
        cache_hits,
        requests: served.iter().map(|s| s.requests).sum(),
        overhead_frac: 1.0 - in_engine / latency,
        result_decode_us: median(&served.iter().map(|s| s.decode_s * 1e6).collect::<Vec<_>>()),
        result_bytes: median(&served.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
    };

    let jobs: Vec<ScalarJob> = BENCHMARKS
        .iter()
        .map(|&bench| ScalarJob {
            config: SimConfig { cores: 1, ..specs[0].configs[0].config.clone() },
            bench,
            seed,
            cycles: CYCLES,
            warm: None,
            expect: None,
        })
        .collect();
    let pass = layers::pass(&jobs, &mut checks)?;
    Ok(Outcome {
        header: format!("workload multicore-serve  seed {seed}  trace on"),
        metrics: layers::metrics(&pass, &engine, &service),
        checks,
        digest: digest(&served_results(&served)),
    })
}
