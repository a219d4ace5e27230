//! The multi-core engine's N = 1 contract: a 1-core
//! [`powerbalance::MultiCoreSimulator`] running one unbounded segment is
//! **bit-identical** — every field of every [`powerbalance::RunResult`],
//! temperatures included — to the scalar [`powerbalance::Simulator`] on
//! the same trace. The multi-core engine is new machinery wrapped around
//! the same per-core physics; this suite is what lets every downstream
//! consumer (harness, CLI, server) route N = 1 work through either
//! engine without an accuracy argument.
//!
//! The grid mirrors `batch_equivalence.rs`: the three constrained
//! floorplans of the paper × both integration fidelities × the spatial
//! and DVFS mitigation families, with budgets that make trips fire on at
//! least one cell so the mitigation-active paths are pinned, not just
//! the quiet ones. A final cell runs a warmup (no consults) and then the
//! measured run on one engine, against the scalar warmup + run.
//!
//! (Deliberately absent: [`SchedulerKind::Threshold`] at N = 1 — a
//! thermal threshold may *defer* the only segment and idle-cool, which
//! the scalar engine has no notion of. That exception is documented on
//! the engine itself.)

use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{
    spec2000, Fidelity, FloorplanKind, MultiCoreSimulator, SchedulerKind, SimConfig, Simulator,
    Task, TaskSet, TraceSource,
};

const FLOORPLANS: [FloorplanKind; 3] = [
    FloorplanKind::IssueConstrained,
    FloorplanKind::AluConstrained,
    FloorplanKind::RegfileConstrained,
];

/// The policy families the issue names: the paper's spatial techniques
/// and the DVFS global baseline.
const POLICIES: [PolicyKind; 2] = [PolicyKind::Spatial, PolicyKind::Dvfs];

fn trace(bench: &str, seed: u64) -> impl TraceSource {
    spec2000::by_name(bench).expect("known benchmark").trace(seed)
}

/// Runs `config` both ways on the same workload and demands the
/// multi-core lane reproduce the scalar result bit for bit.
fn assert_one_core_matches(config: SimConfig, bench: &str, seed: u64, cycles: u64, context: &str) {
    let mut scalar = Simulator::new(config.clone()).expect("scalar simulator builds");
    let expect = scalar.run(&mut trace(bench, seed), cycles);

    let mut multi = MultiCoreSimulator::new(config).expect("multi-core simulator builds");
    let mut tasks = TaskSet::new([Task::unbounded(0, trace(bench, seed))]);
    let got = multi.run(&mut tasks, cycles);

    assert_eq!(got.cores.len(), 1, "{context}: one core, one result");
    assert_eq!(got.cores[0], expect, "{context}: N=1 lane drifted from the scalar simulator");
    assert_eq!(got.migrations, 0, "{context}: a single unbounded segment never migrates");
}

#[test]
fn one_core_matches_scalar_exact() {
    for floorplan in FLOORPLANS {
        for policy in POLICIES {
            // eon/42 on the issue-constrained floorplan fires trips within
            // 1M cycles (the recipe tests/techniques.rs pins), so that cell
            // covers the mitigation-active path; the others pin the same
            // code on a shorter budget.
            let cycles =
                if floorplan == FloorplanKind::IssueConstrained { 1_000_000 } else { 200_000 };
            let config = experiments::policy(policy, floorplan);
            assert_one_core_matches(
                config,
                "eon",
                42,
                cycles,
                &format!("exact/{floorplan:?}/{}", policy.name()),
            );
        }
    }
}

#[test]
fn one_core_matches_scalar_fast() {
    for floorplan in FLOORPLANS {
        for policy in POLICIES {
            let config = SimConfig {
                fidelity: Fidelity::Fast,
                fast_window: 40_000,
                fast_warmup: 20_000,
                ..experiments::policy(policy, floorplan)
            };
            assert_one_core_matches(
                config,
                "crafty",
                5,
                300_000,
                &format!("fast/{floorplan:?}/{}", policy.name()),
            );
        }
    }
}

#[test]
fn one_core_matches_scalar_under_every_placing_scheduler() {
    // At N = 1 every placing scheduler resolves to "core 0", so the
    // scheduler choice must not perturb a single bit.
    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::CoolestFirst] {
        let config = SimConfig {
            scheduler,
            ..experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained)
        };
        assert_one_core_matches(config, "mesa", 9, 200_000, &format!("sched/{scheduler:?}"));
    }
}

#[test]
fn one_core_warm_resume_matches_uninterrupted_scalar() {
    // Warmup consults nothing; the measured run then resumes on the same
    // engine. The composite must be bit-identical to the scalar simulator
    // doing the same warmup + run.
    let config = experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained);
    let (warmup, cycles) = (100_000u64, 150_000u64);

    let mut scalar = Simulator::new(config.clone()).expect("scalar simulator builds");
    let mut scalar_trace = trace("eon", 42);
    scalar.run_warmup(&mut scalar_trace, warmup);
    let expect = scalar.run(&mut scalar_trace, cycles);

    let mut multi = MultiCoreSimulator::new(config).expect("multi-core simulator builds");
    let mut tasks = TaskSet::new([Task::unbounded(0, trace("eon", 42))]);
    multi.run_warmup(&mut tasks, warmup);
    let got = multi.run(&mut tasks, cycles);

    assert_eq!(got.cores[0], expect, "warm resume drifted from the scalar warmup + run");
}
