//! Batched lockstep execution is an optimization, never a behavior change:
//! a campaign scheduled into K-wide [`powerbalance::BatchSimulator`] units
//! must be *bit-identical* — every field of every [`powerbalance::RunResult`],
//! temperatures included — to the same campaign run as K sequential scalar
//! jobs.
//!
//! The grid here is the one the paper's experiments actually sweep: all
//! mitigation families ([`PolicyKind::ALL`]) on each of the three
//! constrained floorplans, under both integration fidelities. Budgets are
//! chosen so trips fire and the policies genuinely diverge (forking the
//! lockstep classes) on at least one cell; the remaining cells pin the
//! cheaper no-divergence and warm-start paths.
//!
//! Splitting a forked batch between threads is invisible too: a part split
//! off at any window boundary, run on another thread and split again, must
//! leave every sibling equal to the unsplit batch and to its scalar run,
//! and a campaign must give the same jobs whatever its pool size.

use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{
    spec2000, BatchPart, BatchSimulator, Detach, Fidelity, FloorplanKind, RunResult, SimConfig,
    Simulator, TraceCursor, TraceGenerator,
};
use powerbalance_harness::{run_campaign, CampaignResult, CampaignSpec, RunnerOptions};

const FLOORPLANS: [FloorplanKind; 3] = [
    FloorplanKind::IssueConstrained,
    FloorplanKind::AluConstrained,
    FloorplanKind::RegfileConstrained,
];

/// One campaign over every mitigation family on `floorplan`, with each
/// config passed through `shape` (identity for Exact, fast-mode fields for
/// Fast).
fn family_spec(
    name: &str,
    floorplan: FloorplanKind,
    bench: &str,
    seed: u64,
    cycles: u64,
    warmup: u64,
    shape: impl Fn(SimConfig) -> SimConfig,
) -> CampaignSpec {
    let mut spec =
        CampaignSpec::new(name).benchmark(bench).cycles(cycles).warmup(warmup).seed(seed);
    for kind in PolicyKind::ALL {
        spec = spec.config(kind.name(), shape(experiments::policy(kind, floorplan)));
    }
    spec
}

/// Runs `spec` batched (default `max_batch`) and unbatched (`max_batch: 1`)
/// and demands bit-identical jobs.
fn assert_batched_matches_scalar(spec: &CampaignSpec, context: &str) -> CampaignResult {
    let batched = run_campaign(spec, &RunnerOptions::default()).expect("batched campaign runs");
    let scalar = run_campaign(spec, &RunnerOptions { max_batch: 1, ..Default::default() })
        .expect("scalar campaign runs");
    assert!(batched.same_outcome(&scalar), "{context}: batched campaign diverged from scalar");
    for (b, s) in batched.jobs.iter().zip(&scalar.jobs) {
        assert_eq!(b.result, s.result, "{context}: {}/{} drifted", b.bench, b.config);
    }
    batched
}

#[test]
fn batched_campaign_is_bit_identical_to_scalar_exact() {
    for floorplan in FLOORPLANS {
        // eon/42 trips the issue-constrained floorplan within 1M cycles
        // (the recipe tests/techniques.rs relies on); the other floorplans
        // get a shorter budget since they pin the same code paths.
        let cycles = if floorplan == FloorplanKind::IssueConstrained { 1_000_000 } else { 200_000 };
        let spec = family_spec("batch-diff-exact", floorplan, "eon", 42, cycles, 0, |c| c);
        let result = assert_batched_matches_scalar(&spec, &format!("exact/{floorplan:?}"));
        if floorplan == FloorplanKind::IssueConstrained {
            // The cell must actually exercise divergence: if every policy
            // produced the same result, no class ever forked and the test
            // would be vacuous.
            let first = &result.jobs[0].result;
            assert!(
                result.jobs.iter().any(|j| j.result != *first),
                "policies never diverged on the trip-firing recipe"
            );
        }
    }
}

#[test]
fn batched_campaign_is_bit_identical_to_scalar_fast() {
    for floorplan in FLOORPLANS {
        let spec = family_spec("batch-diff-fast", floorplan, "crafty", 5, 300_000, 0, |config| {
            SimConfig {
                fidelity: Fidelity::Fast,
                fast_window: 40_000,
                fast_warmup: 20_000,
                ..config
            }
        });
        assert_batched_matches_scalar(&spec, &format!("fast/{floorplan:?}"));
    }
}

#[test]
fn batched_warmed_campaign_matches_scalar() {
    // Warm-started batches resume from the shared snapshot (trace position
    // included) rather than replaying the warmup — the path where a
    // trace-offset bug would silently shift every sibling's workload.
    let spec = family_spec(
        "batch-diff-warm",
        FloorplanKind::IssueConstrained,
        "eon",
        42,
        150_000,
        100_000,
        |c| c,
    );
    assert_batched_matches_scalar(&spec, "warmed/exact");
}

/// The six policy families on `floorplan`, each passed through `shape`.
fn family(floorplan: FloorplanKind, shape: impl Fn(SimConfig) -> SimConfig) -> Vec<SimConfig> {
    PolicyKind::ALL.iter().map(|&kind| shape(experiments::policy(kind, floorplan))).collect()
}

/// A lockstep batch over `configs` after a `warmup`-cycle scalar warmup,
/// restored the way a campaign unit resumes its shared warm snapshot.
fn warmed<T: Detach + Clone>(
    configs: &[SimConfig],
    bench: &str,
    seed: u64,
    warmup: u64,
    wrap: impl Fn(TraceGenerator) -> T,
) -> BatchSimulator<T> {
    let mut sim = Simulator::new(configs[0].clone()).expect("valid config");
    let mut trace = spec2000::by_name(bench).expect("known benchmark").trace(seed);
    sim.run_warmup(&mut trace, warmup);
    let mut batch = BatchSimulator::new(configs.to_vec(), wrap(trace)).expect("eligible");
    batch.restore_state(&sim.state()).expect("an unforked batch restores");
    batch
}

/// Runs `batch` for `cycles` cycles, splitting it at each window of
/// `splits` (counted from this call, ascending): the donor keeps running
/// here while the part runs the rest on a thread of its own, where it
/// takes the later splits. Returns every sibling's result by original
/// sibling index.
fn run_split<T: Detach + Clone>(
    mut batch: BatchSimulator<T>,
    cycles: u64,
    splits: &[u64],
) -> Vec<(usize, RunResult)>
where
    BatchPart<T>: Send,
{
    let window = batch.configs()[0].sample_interval;
    let mut results = Vec::new();
    let mut ran = 0;
    std::thread::scope(|scope| {
        let mut moved = None;
        if let Some((&at, later)) = splits.split_first() {
            ran = at * window;
            batch.run(ran);
            let part = batch.split_off().expect("the cell has forked by the split window");
            let later: Vec<u64> = later.iter().map(|w| w - at).collect();
            let left = cycles - ran;
            moved = Some(scope.spawn(move || run_split(part.attach(), left, &later)));
        }
        let kept = batch.run(cycles - ran);
        results.extend(batch.siblings().iter().copied().zip(kept));
        if let Some(moved) = moved {
            results.extend(moved.join().expect("the part's thread does not panic"));
        }
    });
    results.sort_by_key(|&(sibling, _)| sibling);
    results
}

/// Splits a warmed, forking cell at each window set of `schedules`,
/// and demands every sibling equal the unsplit batch and its scalar run.
fn assert_splits_are_invisible<T: Detach + Clone>(
    configs: &[SimConfig],
    (bench, seed): (&str, u64),
    (warmup, cycles): (u64, u64),
    schedules: &[&[u64]],
    wrap: impl Fn(TraceGenerator) -> T + Copy,
) where
    BatchPart<T>: Send,
{
    let mut whole = warmed(configs, bench, seed, warmup, wrap);
    let expect = whole.run(cycles);
    assert!(whole.class_count() >= 4, "{bench}: the cell forks enough classes to split twice");
    for (config, result) in configs.iter().zip(&expect) {
        let mut sim = Simulator::new(config.clone()).expect("valid config");
        let mut trace = spec2000::by_name(bench).expect("known benchmark").trace(seed);
        sim.run_warmup(&mut trace, warmup);
        assert_eq!(*result, sim.run(&mut trace, cycles), "{bench}: batch drifted from scalar");
    }
    for &splits in schedules {
        let split = run_split(warmed(configs, bench, seed, warmup, wrap), cycles, splits);
        assert_eq!(split.len(), configs.len(), "{bench} {splits:?}: a sibling went missing");
        for (sibling, result) in &split {
            assert_eq!(*result, expect[*sibling], "{bench} {splits:?}: sibling {sibling} drifted");
        }
    }
}

/// Window 1 is just after the fork; 9 is mid-run; the second entry of a
/// schedule splits the part split off at the first.
const SCHEDULES: [&[u64]; 3] = [&[1], &[9], &[1, 5]];

#[test]
fn split_batches_are_bit_identical_exact() {
    // The batch-sweep cell: eon forks all six policies in the first window
    // after its warmup.
    let configs = family(FloorplanKind::IssueConstrained, |c| c);
    assert_splits_are_invisible(
        &configs,
        ("eon", 42),
        (200_000, 150_000),
        &SCHEDULES,
        TraceCursor::new,
    );
}

#[test]
fn split_batches_are_bit_identical_fast() {
    // The detailed prefix ends after window 25, so the first split lands
    // inside it and the second after it.
    let configs = family(FloorplanKind::AluConstrained, |config| SimConfig {
        fidelity: Fidelity::Fast,
        fast_window: 40_000,
        fast_warmup: 250_000,
        ..config
    });
    let schedules: [&[u64]; 2] = [&[23], &[23, 28]];
    assert_splits_are_invisible(&configs, ("crafty", 5), (0, 400_000), &schedules, |t| t);
}

#[test]
fn campaign_jobs_do_not_depend_on_the_pool() {
    // Idle workers steal classes from the forked eon unit, so the pools of
    // 2 and 4 split it; `threads: None` takes the pool size from the
    // environment.
    let spec =
        family_spec("steal", FloorplanKind::IssueConstrained, "eon", 42, 150_000, 200_000, |c| c)
            .benchmark("gzip");
    let scalar = run_campaign(
        &spec,
        &RunnerOptions { max_batch: 1, threads: Some(1), ..Default::default() },
    )
    .expect("scalar campaign runs");
    for threads in [Some(1), Some(2), Some(4), None] {
        let result = run_campaign(&spec, &RunnerOptions { threads, ..Default::default() })
            .expect("campaign runs");
        for (job, reference) in result.jobs.iter().zip(&scalar.jobs) {
            assert_eq!(
                job.result, reference.result,
                "{threads:?}: {}/{} drifted",
                job.bench, job.config
            );
        }
    }
}
