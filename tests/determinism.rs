//! Reproducibility guarantees: the whole stack is deterministic for a given
//! (configuration, benchmark, seed) triple, and seeds actually matter —
//! including through the warm-start snapshot cache, where jobs race to
//! compute shared warmups on a worker pool.

use powerbalance::{experiments, SimConfig, Simulator};
use powerbalance_harness::{run_campaign, CampaignSpec, RunnerOptions};
use powerbalance_isa::TraceSource;
use powerbalance_workloads::spec2000;

fn full_run(config: SimConfig, bench: &str, seed: u64, cycles: u64) -> powerbalance::RunResult {
    let mut sim = Simulator::new(config).expect("valid config");
    let mut trace = spec2000::by_name(bench).expect("known benchmark").trace(seed);
    sim.run(&mut trace, cycles)
}

#[test]
fn identical_runs_are_bit_identical() {
    let a = full_run(experiments::issue_queue(true), "mesa", 9, 150_000);
    let b = full_run(experiments::issue_queue(true), "mesa", 9, 150_000);
    assert_eq!(a, b, "full results (incl. temperatures) must match exactly");
}

#[test]
fn different_seeds_diverge() {
    let a = full_run(SimConfig::default(), "gzip", 1, 100_000);
    let b = full_run(SimConfig::default(), "gzip", 2, 100_000);
    assert_ne!(a.committed, b.committed, "different seeds should not collide");
}

#[test]
fn trace_generation_is_independent_of_consumption_pattern() {
    // Pulling the trace in different chunk sizes yields the same stream.
    let profile = spec2000::by_name("vpr").expect("known benchmark");
    let mut one = profile.trace(5);
    let mut chunked = profile.trace(5);
    let mut ops_a = Vec::new();
    for _ in 0..10_000 {
        ops_a.push(one.next_op().expect("infinite"));
    }
    let mut ops_b = Vec::new();
    while ops_b.len() < 10_000 {
        for _ in 0..7 {
            if ops_b.len() == 10_000 {
                break;
            }
            ops_b.push(chunked.next_op().expect("infinite"));
        }
    }
    assert_eq!(ops_a, ops_b);
}

#[test]
fn resumed_runs_match_single_runs() {
    // Running 2 x 75k cycles accumulates to the same state as 150k straight.
    let straight = full_run(experiments::issue_queue(false), "eon", 42, 150_000);
    let mut sim = Simulator::new(experiments::issue_queue(false)).expect("valid config");
    let mut trace = spec2000::by_name("eon").expect("profile").trace(42);
    let _ = sim.run(&mut trace, 75_000);
    let resumed = sim.run(&mut trace, 75_000);
    assert_eq!(straight.committed, resumed.committed);
    assert_eq!(straight.freezes, resumed.freezes);
    assert_eq!(straight.cycles, resumed.cycles);
}

/// A warmed-up campaign whose configs share warmup snapshots across
/// mitigation variants. Which worker computes each shared warmup first
/// depends on pool scheduling, so this is the path where nondeterminism
/// would sneak in if snapshots were not canonical.
fn warmed_spec() -> CampaignSpec {
    CampaignSpec::new("warmed-invariance")
        .config("base", experiments::issue_queue(false))
        .config("toggling", experiments::issue_queue(true))
        .config("alu-fg", experiments::alu(experiments::AluPolicy::FineGrainTurnoff))
        .benchmarks(["eon", "gzip"])
        .cycles(30_000)
        .warmup(30_000)
        .seed(5)
}

#[test]
fn warm_start_cache_is_pool_size_invariant() {
    let run_with = |threads: usize| {
        run_campaign(
            &warmed_spec(),
            &RunnerOptions { threads: Some(threads), ..Default::default() },
        )
        .expect("campaign runs")
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert!(
        serial.same_outcome(&parallel),
        "warm-start results must not depend on which worker computed each shared warmup"
    );
    for (a, b) in serial.jobs.iter().zip(&parallel.jobs) {
        assert_eq!(a.result, b.result, "{}/{} must be bit-identical", a.bench, a.config);
    }
}

#[test]
fn warm_start_cache_matches_cold_warmups() {
    // The shared-snapshot fast path against the private-warmup oracle: each
    // job on its own simulator, warmed up inline, then measured. The cache
    // is an optimization, never an observable behavior change.
    let spec = warmed_spec();
    let warm = run_campaign(&spec, &RunnerOptions::default()).expect("campaign runs");
    for job in &warm.jobs {
        let mut sim =
            Simulator::new(spec.configs[job.config_index].config.clone()).expect("valid config");
        let mut trace = spec2000::by_name(&job.bench).expect("known benchmark").trace(spec.seed);
        sim.run_warmup(&mut trace, spec.warmup_cycles);
        let cold = sim.run(&mut trace, spec.cycles);
        assert_eq!(
            job.result, cold,
            "{}/{}: cache must not change the result",
            job.bench, job.config
        );
    }
}
