//! Checked end-to-end runs: every experiment preset executes with the
//! differential oracle and runtime invariant suite armed (`enable_checking`)
//! and must finish without a single violation — the spatial presets, the §5
//! global ladders, a multi-core die, a resume across policies, and the
//! interval engine. These tests are the standing proof that the
//! production pipeline, thermal solver, and mitigation manager agree with
//! their independent re-implementations in `powerbalance-check`
//! (DESIGN.md §10).

use powerbalance::experiments::{self, PolicyKind};
use powerbalance::{
    Fidelity, FloorplanKind, MappingPolicy, MultiCoreSimulator, RunResult, SimConfig, Simulator,
    Snapshot, TaskSet, Violation,
};
use powerbalance_workloads::spec2000;

/// Runs `config` on `bench` for `cycles` cycles with checking armed and
/// returns the result and the violations (empty on a clean run).
fn checked_run(config: SimConfig, bench: &str, cycles: u64) -> (RunResult, Vec<Violation>) {
    let mut sim = Simulator::new(config).expect("preset configs are valid");
    sim.enable_checking().expect("checker construction");
    let profile = spec2000::by_name(bench).expect("known benchmark");
    let result = sim.run(&mut profile.trace(42), cycles);
    (result, sim.finish_checking())
}

fn assert_no_violations(violations: &[Violation], label: &str) {
    assert!(
        violations.is_empty(),
        "{label}: {} violations, first: {}",
        violations.len(),
        violations[0]
    );
}

fn assert_clean(config: SimConfig, bench: &str, cycles: u64, label: &str) -> RunResult {
    let (result, violations) = checked_run(config, bench, cycles);
    assert_no_violations(&violations, &format!("{label}/{bench}"));
    result
}

/// A clean run proves nothing about a ladder it never reached: the run
/// must have stepped a ladder or frozen the core.
fn assert_engaged(result: &RunResult, label: &str) {
    assert!(
        result.opp_transitions + result.duty_shifts + result.freezes > 0,
        "{label}: no transition, duty shift or freeze within the budget"
    );
}

#[test]
fn baseline_machine_is_clean_across_benchmarks() {
    // eon drives the back end hard, art barely at all, gcc sits between;
    // together they cover busy, idle, and mixed pipeline regimes.
    for bench in ["eon", "art", "gcc"] {
        assert_clean(SimConfig::default(), bench, 60_000, "baseline");
    }
}

#[test]
fn issue_queue_toggling_is_clean() {
    assert_clean(experiments::issue_queue(true), "eon", 120_000, "iq-toggling");
    assert_clean(experiments::issue_queue(false), "eon", 120_000, "iq-base");
}

#[test]
fn alu_turnoff_is_clean() {
    use experiments::AluPolicy;
    assert_clean(experiments::alu(AluPolicy::FineGrainTurnoff), "eon", 120_000, "alu-turnoff");
    assert_clean(experiments::alu(AluPolicy::RoundRobin), "eon", 120_000, "alu-roundrobin");
}

#[test]
fn regfile_mapping_and_turnoff_are_clean() {
    for mapping in
        [MappingPolicy::Balanced, MappingPolicy::Priority, MappingPolicy::CompletelyBalanced]
    {
        assert_clean(
            experiments::regfile(mapping, true),
            "eon",
            120_000,
            &format!("regfile-{mapping:?}"),
        );
    }
}

#[test]
fn warm_started_runs_are_clean() {
    // The warm-start path exercises the steady-state thermal solve and the
    // settled-residual branch of the thermal checker.
    let mut cfg = experiments::issue_queue(true);
    cfg.warm_start = true;
    assert_clean(cfg, "eon", 80_000, "warm-start");
}

#[test]
fn checking_survives_snapshot_restore() {
    // Restoring a state re-arms the checker against the restored core; the
    // continued run must stay clean even though the oracle was re-seeded
    // mid-stream.
    let cfg = experiments::issue_queue(true);
    let mut sim = Simulator::new(cfg).expect("valid preset");
    sim.enable_checking().expect("checker construction");
    let profile = spec2000::by_name("eon").expect("known benchmark");
    let mut trace = profile.trace(42);
    sim.run(&mut trace, 40_000);
    let state = sim.state();
    let violations = sim.finish_checking();
    assert!(violations.is_empty(), "pre-snapshot: {violations:?}");

    let mut resumed = Simulator::new(experiments::issue_queue(true)).expect("valid preset");
    resumed.enable_checking().expect("checker construction");
    resumed.restore_state(&state).expect("round-trip restore");
    resumed.run(&mut trace, 40_000);
    let violations = resumed.finish_checking();
    assert!(violations.is_empty(), "post-restore: {violations:?}");
}

#[test]
fn global_ladders_are_clean() {
    // eon heats the issue-queue-constrained core past every ladder's
    // passive trip inside the budget at the default thermal limit.
    for kind in
        [PolicyKind::Dvfs, PolicyKind::FetchGate, PolicyKind::ClockThrottle, PolicyKind::Combined]
    {
        let config = experiments::policy(kind, FloorplanKind::IssueConstrained);
        let result = assert_clean(config, "eon", 220_000, kind.name());
        assert_engaged(&result, kind.name());
    }
}

#[test]
fn a_two_core_die_is_clean() {
    // Both lanes of one die consult through the engine's shared phase; each
    // lane's mirror watches its own slice of the die.
    let dvfs = experiments::policy(PolicyKind::Dvfs, FloorplanKind::IssueConstrained);
    let mut sim = MultiCoreSimulator::new(SimConfig { cores: 2, ..dvfs }).expect("valid config");
    sim.enable_checking().expect("checker construction");
    let profile = |name| spec2000::by_name(name).expect("known benchmark");
    let mut tasks = TaskSet::one_per_job([profile("eon").trace(42), profile("gzip").trace(43)]);
    let result = sim.run(&mut tasks, 150_000);
    assert_no_violations(&sim.finish_checking(), "2-core dvfs");
    for (c, core) in result.cores.iter().enumerate() {
        assert_engaged(core, &format!("2-core dvfs, core {c}"));
    }
}

#[test]
fn a_transition_stall_resumed_under_spatial_is_clean() {
    // A DVFS run captured inside a transition stall, resumed under the
    // spatial preset: the mirror and the manager must agree on when the
    // carried-over stall ends.
    let dvfs = experiments::policy(PolicyKind::Dvfs, FloorplanKind::IssueConstrained);
    let profile = spec2000::by_name("eon").expect("known benchmark");
    let mut trace = profile.trace(42);
    let mut sim = Simulator::new(dvfs).expect("valid preset");
    sim.run(&mut trace, 210_000);
    assert_eq!(sim.manager().policy_state().stall_until, Some(252_000));
    let snap = Snapshot::capture(&sim, &profile, &trace);
    let spatial = experiments::policy(PolicyKind::Spatial, FloorplanKind::IssueConstrained);
    let (mut resumed, mut trace) = snap.resume_with_config(spatial).expect("mitigation may differ");
    resumed.enable_checking().expect("checker construction");
    resumed.run(&mut trace, 100_000);
    assert_eq!(resumed.manager().policy_state().stall_until, None, "the stall ended");
    assert_no_violations(&resumed.finish_checking(), "dvfs->spatial resume");
}

#[test]
fn interval_engine_runs_are_clean() {
    // The interval engine reaches the checker through hooks Exact never
    // takes: the thermal re-base after each skipped sub-interval and the
    // consults on skipped windows. Each technique must engage, so the
    // mirror watches the decisions interval sampling drives.
    use experiments::AluPolicy;
    let fast = |config: SimConfig| SimConfig {
        fidelity: Fidelity::Fast,
        fast_window: 40_000,
        fast_warmup: 20_000,
        ..config
    };
    let cycles = 400_000;
    let alu = assert_clean(
        fast(experiments::alu(AluPolicy::FineGrainTurnoff)),
        "crafty",
        cycles,
        "fast alu",
    );
    assert!(alu.alu_turnoffs > 0, "fast alu: no ALU turnoff");
    let iq = assert_clean(fast(experiments::issue_queue(true)), "eon", cycles, "fast iq-toggling");
    assert!(iq.toggles > 0, "fast iq-toggling: no toggle");
    let dvfs = fast(experiments::policy(PolicyKind::Dvfs, FloorplanKind::IssueConstrained));
    let result = assert_clean(dvfs.clone(), "eon", cycles, "fast dvfs");
    assert!(result.opp_transitions > 0, "fast dvfs: no OPP transition");

    let mut sim = MultiCoreSimulator::new(SimConfig { cores: 2, ..dvfs }).expect("valid config");
    sim.enable_checking().expect("checker construction");
    let profile = |name| spec2000::by_name(name).expect("known benchmark");
    let mut tasks = TaskSet::one_per_job([profile("eon").trace(42), profile("gzip").trace(43)]);
    let result = sim.run(&mut tasks, cycles);
    assert_no_violations(&sim.finish_checking(), "fast 2-core dvfs");
    for (c, core) in result.cores.iter().enumerate() {
        assert!(core.opp_transitions > 0, "fast 2-core dvfs, core {c}: no OPP transition");
    }
}
