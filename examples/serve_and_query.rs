//! Drive the simulation service in-process: submit a campaign, poll its
//! status, fetch the result, and read the metrics — all through the
//! [`JobService`] public API, with no sockets involved (the HTTP layer
//! is a thin adapter over exactly these calls).
//!
//! Run with `cargo run --release --example serve_and_query`.

use powerbalance::experiments;
use powerbalance_harness::CampaignSpec;
use powerbalance_server::service::{JobService, JobState, ServiceConfig};
use std::time::Duration;

fn main() {
    let service =
        JobService::start(ServiceConfig { queue_depth: 4, workers: 2, ..ServiceConfig::default() });

    // The same spec a client would POST to /v1/campaigns as JSON.
    let spec = CampaignSpec::new("serve-demo")
        .config("base", experiments::issue_queue(false))
        .config("toggling", experiments::issue_queue(true))
        .benchmarks(["gzip", "eon"])
        .cycles(100_000)
        .warmup(50_000);
    println!("submitting campaign '{}' ({} jobs)", spec.name, spec.job_count());

    let id = match service.submit(spec) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("submission rejected: {e:?}");
            std::process::exit(1);
        }
    };
    println!("accepted as campaign {id}");

    // Poll the way `GET /v1/campaigns/<id>` would.
    loop {
        let status = service.status(id).expect("the id we just submitted exists");
        println!(
            "  state {:?}: {}/{} jobs done",
            status.state, status.completed_jobs, status.total_jobs
        );
        if status.state.is_terminal() {
            assert_eq!(status.state, JobState::Completed, "demo campaign should complete");
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // Fetch the full result, as `GET /v1/campaigns/<id>/result` would.
    let result = service.result(id).expect("completed campaigns have results");
    println!("\n{:<8} {:>10} {:>10}", "bench", "base", "toggling");
    for (bench, runs) in result.rows() {
        println!("{bench:<8} {:>10.3} {:>10.3}", runs[0].ipc, runs[1].ipc);
    }

    // And the operational counters, as `GET /metrics` would render them.
    let (computed, _, hits) = service.cache_stats();
    println!(
        "\nwarm-start cache: {computed} warmup(s) computed, {hits} hit(s) \
         (4 jobs, 2 distinct warmups)"
    );
    let text = service.metrics().render(service.cache_stats(), service.journal_depth());
    let completed_line = text
        .lines()
        .find(|l| l.starts_with("powerbalance_campaigns_completed_total"))
        .expect("metric is rendered");
    println!("metrics excerpt: {completed_line}");

    service.drain();
    println!("service drained cleanly");
}
