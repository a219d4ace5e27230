//! Integration tests for the campaign runner: pool-size invariance, seed
//! plumbing, and JSON artifacts through the in-repo serializer.

use powerbalance::experiments::{self, AluPolicy};
use powerbalance::{spec2000, RunResult, Simulator};
use powerbalance_harness::{run_campaign, CampaignResult, CampaignSpec, RunnerOptions};

fn demo_spec() -> CampaignSpec {
    CampaignSpec::new("invariance")
        .config("base", experiments::issue_queue(false))
        .config("toggling", experiments::issue_queue(true))
        .config("alu-fg", experiments::alu(AluPolicy::FineGrainTurnoff))
        .benchmarks(["eon", "gzip", "mesa"])
        .cycles(25_000)
        .seed(5)
}

fn run_with(threads: usize) -> CampaignResult {
    run_campaign(&demo_spec(), &RunnerOptions { threads: Some(threads), ..Default::default() })
        .expect("campaign runs")
}

#[test]
fn pool_size_does_not_change_results() {
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    assert!(serial.same_outcome(&parallel), "results must not depend on the pool size");
    // Bit-identical, field by field, for the paper-facing metrics.
    for (a, b) in serial.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(a.result.committed, b.result.committed);
        assert_eq!(a.result.toggles, b.result.toggles);
        assert_eq!(a.result.freezes, b.result.freezes);
        assert_eq!(a.result.temperatures, b.result.temperatures);
        assert_eq!(a.result, b.result);
    }
}

#[test]
fn oversized_pools_clamp_to_the_job_count() {
    let spec = CampaignSpec::new("tiny")
        .config("base", experiments::issue_queue(false))
        .benchmark("eon")
        .cycles(10_000);
    let result = run_campaign(&spec, &RunnerOptions { threads: Some(64), ..Default::default() })
        .expect("campaign runs");
    assert_eq!(result.threads, 1, "one job never needs more than one worker");
}

#[test]
fn campaign_honors_its_seed() {
    let with_seed = |seed: u64| {
        let spec = CampaignSpec::new("seeded")
            .config("base", experiments::issue_queue(false))
            .benchmark("gzip")
            .cycles(25_000)
            .seed(seed);
        run_campaign(&spec, &RunnerOptions::default()).expect("campaign runs")
    };
    let a = with_seed(1);
    let b = with_seed(2);
    assert_eq!(a.jobs[0].seed, 1);
    assert_eq!(b.jobs[0].seed, 2);
    assert_ne!(
        a.jobs[0].result.committed, b.jobs[0].result.committed,
        "different seeds must drive different workload traces"
    );
    let a_again = with_seed(1);
    assert!(a.same_outcome(&a_again), "equal seeds must reproduce the run exactly");
}

#[test]
fn run_result_round_trips_through_json() {
    let mut sim = Simulator::new(experiments::issue_queue(true)).expect("valid config");
    let result: RunResult =
        sim.run(&mut spec2000::by_name("eon").expect("known benchmark").trace(3), 25_000);
    let text = serde::json::to_string_pretty(&result);
    let back: RunResult = serde::json::from_str(&text).expect("artifact parses");
    assert_eq!(back, result, "JSON round-trip must be lossless");
}

#[test]
fn campaign_json_artifact_is_parseable_and_complete() {
    let result = run_with(2);
    let text = result.to_json();
    let value = serde::json::Value::parse(&text).expect("artifact parses");
    let field = |v: &serde::json::Value, key: &str| -> serde::json::Value {
        v.field(key).expect("field present").clone()
    };
    let jobs = field(&value, "jobs").as_array().expect("jobs array").to_vec();
    assert_eq!(jobs.len(), 9);
    for job in &jobs {
        // The acceptance-level content: per-(benchmark, config) IPC,
        // temperatures, mitigation counters, and per-job wall time.
        assert!(field(job, "bench").as_str().is_ok());
        assert!(field(job, "config").as_str().is_ok());
        assert!(field(job, "wall_nanos").as_u64().expect("wall time") > 0);
        let run = field(job, "result");
        assert!(field(&run, "ipc").as_f64().expect("ipc is a number") > 0.0);
        assert!(field(&run, "toggles").as_u64().is_ok());
        assert!(field(&run, "freezes").as_u64().is_ok());
        assert!(!field(&run, "temperatures").as_array().expect("temps").is_empty());
    }
    let back: CampaignResult = serde::json::from_str(&text).expect("round-trips");
    assert!(back.same_outcome(&result));
}
