//! Seed-derived random-but-valid test cases for the config/trace fuzzer.
//!
//! Lives in the library (rather than the `fuzz` binary) so the coverage
//! tests can pin distribution properties of the generator — e.g. that the
//! `max_temp` bias actually makes mitigation fire within the fuzzer's
//! default cycle budget.

use powerbalance::experiments::PolicyKind;
use powerbalance::{
    DutyLadder, DvfsParams, Fidelity, FloorplanKind, GateParams, GlobalPolicy, MappingPolicy,
    OppLadder, SchedulerKind, SelectPolicy, SimConfig,
};
use powerbalance_workloads::{spec2000, Xoshiro256};

/// The fuzz binary's default per-seed cycle budget; the coverage test
/// below uses the same number so it measures what the fuzzer actually
/// exercises.
pub const DEFAULT_CYCLES: u64 = 40_000;

/// Derives the whole test case for one seed: a configuration, a workload
/// name, and a trace seed. Every choice is constrained so the result
/// always passes `SimConfig::validate`:
///
/// * `alu_turnoff` pins the full 6-ALU/4-adder geometry (the manager's
///   per-unit walk assumes it);
/// * `rf_turnoff` pins two register-file copies for the same reason;
/// * otherwise copies are drawn from the divisors of the ALU count.
// The config is deliberately built by mutating a default field-by-field:
// each draw must happen in a fixed order for seed stability, which a
// struct-literal initializer would obscure.
#[allow(clippy::field_reassign_with_default)]
#[must_use]
pub fn derive_case(seed: u64) -> (SimConfig, String, u64) {
    let mut rng = Xoshiro256::new(seed);
    let mut cfg = SimConfig::default();

    cfg.floorplan = *pick(
        &mut rng,
        &[
            FloorplanKind::Baseline,
            FloorplanKind::IssueConstrained,
            FloorplanKind::AluConstrained,
            FloorplanKind::RegfileConstrained,
        ],
    );
    cfg.core.iq_size = *pick(&mut rng, &[8, 16, 32, 64]);
    cfg.core.replay_window = *pick(&mut rng, &[1, 2, 3]);
    cfg.core.mapping = *pick(
        &mut rng,
        &[MappingPolicy::Balanced, MappingPolicy::Priority, MappingPolicy::CompletelyBalanced],
    );
    cfg.core.select_policy = *pick(&mut rng, &[SelectPolicy::Static, SelectPolicy::RoundRobin]);

    cfg.mitigation.activity_toggling = rng.chance(0.5);
    cfg.mitigation.alu_turnoff = rng.chance(0.5);
    cfg.mitigation.rf_turnoff = rng.chance(0.5);
    cfg.mitigation.rf_stale_copy = cfg.mitigation.rf_turnoff && rng.chance(0.5);

    if cfg.mitigation.alu_turnoff {
        cfg.core.int_alus = 6;
        cfg.core.fp_adders = 4;
    } else {
        cfg.core.int_alus = *pick(&mut rng, &[2, 4, 6]);
        cfg.core.fp_adders = *pick(&mut rng, &[2, 4]);
    }
    if cfg.mitigation.rf_turnoff {
        cfg.core.int_rf_copies = 2;
    } else {
        // The activity counters cap copies at 2; every drawn ALU count is
        // even, so both choices divide it.
        cfg.core.int_rf_copies = *pick(&mut rng, &[1, 2]);
    }

    // Most runs get a limit far below the paper's 358 K — down near the
    // 318 K ambient — so that short runs still provoke mitigation storms
    // (toggles, turnoffs, freezes, thaws). The rest keep the default and
    // exercise the always-cool paths.
    if rng.chance(0.75) {
        cfg.mitigation.thresholds.max_temp = 322.0 + rng.next_f64() * 26.0;
    }
    // Widen the toggle window and sometimes drop the hysteresis so that
    // 40 k-cycle runs actually reach the toggling decision, not just the
    // freeze backstop.
    cfg.mitigation.thresholds.toggle_proximity = *pick(&mut rng, &[2.0, 6.0, 15.0]);
    cfg.mitigation.thresholds.toggle_delta = *pick(&mut rng, &[0.1, 0.5]);
    cfg.sample_interval = *pick(&mut rng, &[2_000, 5_000, 10_000]);
    cfg.warm_start = rng.chance(0.8);

    let bench = pick(&mut rng, &spec2000::ALL).to_string();
    let trace_seed = rng.next_u64() >> 32;

    // Policy-layer draws sit after every pre-existing draw so old seeds
    // keep deriving the exact case they always did (plus a policy).
    cfg.mitigation.global = draw_global_policy(&mut rng, &cfg);

    // Fidelity draw sits last for the same seed-stability reason. A third
    // of the cases run the interval engine, with a macro window derived
    // from the drawn sampling cadence (so it always divides evenly) and a
    // warmup prefix short enough that the default budget leaves room for
    // extrapolated macro windows.
    if rng.chance(1.0 / 3.0) {
        cfg.fidelity = Fidelity::Fast;
        cfg.fast_window = cfg.sample_interval * *pick(&mut rng, &[4, 10, 20]);
        cfg.fast_warmup = *pick(&mut rng, &[0, 10_000, 25_000]);
    }

    (cfg, bench, trace_seed)
}

/// Draws a global thermal policy whose ladder trip tables are derived from
/// the config's (possibly biased-low) `max_temp`, so short fuzz runs reach
/// ladder decisions. Half the cases stay spatial/temporal-only; the rest
/// split across DVFS, fetch gating, and clock throttling, sometimes with
/// the ladder truncated to exercise the clamp-at-deepest-level path.
fn draw_global_policy(rng: &mut Xoshiro256, cfg: &SimConfig) -> GlobalPolicy {
    let th = &cfg.mitigation.thresholds;
    let choice = rng.below(6);
    let mut global = match choice {
        0 => GlobalPolicy::Dvfs(DvfsParams::for_thresholds(th)),
        1 => GlobalPolicy::FetchGate(GateParams::for_thresholds(th)),
        2 => GlobalPolicy::ClockThrottle(GateParams::for_thresholds(th)),
        _ => return GlobalPolicy::None,
    };
    // Occasionally shorten the ladder: a two-level ladder hits its deepest
    // state almost immediately, which stresses hold-and-relax hysteresis.
    if rng.chance(0.3) {
        match &mut global {
            GlobalPolicy::Dvfs(p) => {
                let short: Vec<_> = p.ladder.levels().iter().copied().take(2).collect();
                p.ladder = OppLadder::from_levels(&short)
                    .expect("truncated ladder keeps its nominal level 0");
            }
            GlobalPolicy::FetchGate(p) | GlobalPolicy::ClockThrottle(p) => {
                let short: Vec<_> = p.ladder.levels().iter().copied().take(2).collect();
                p.ladder = DutyLadder::from_levels(&short)
                    .expect("truncated ladder keeps its full-duty level 0");
            }
            GlobalPolicy::None => unreachable!(),
        }
    }
    global
}

fn pick<'a, T>(rng: &mut Xoshiro256, options: &'a [T]) -> &'a T {
    &options[rng.below(options.len() as u64) as usize]
}

/// Salt separating the batch-sibling RNG stream from `derive_case`'s, so
/// adding batched draws never perturbs what existing seeds derive.
const BATCH_SALT: u64 = 0xBA7C4ED0_C0FFEE42;

/// Whether this seed additionally cross-checks batched lockstep execution
/// against sequential scalar runs (one seed in four).
#[must_use]
pub fn draws_batch(seed: u64) -> bool {
    seed % 4 == 3
}

/// Derives the lockstep sibling configs for a batch-drawing seed: a random
/// width K in 2..=6, each sibling the base case with a random policy
/// family's mitigation substituted. The siblings share every non-mitigation
/// field — exactly the harness's batch-eligibility rule — with the core
/// geometry pinned to the full 6-ALU/4-adder/2-copy machine the turnoff
/// families' per-unit walks assume. The base case's (possibly biased-low)
/// thresholds are kept, and global-policy ladders are rebuilt from them, so
/// short budgets still reach trip decisions.
#[must_use]
pub fn derive_batch_siblings(seed: u64, base: &SimConfig) -> Vec<SimConfig> {
    let mut rng = Xoshiro256::new(seed ^ BATCH_SALT);
    let k = 2 + rng.below(5) as usize;
    let mut shared = base.clone();
    shared.core.int_alus = 6;
    shared.core.fp_adders = 4;
    shared.core.int_rf_copies = 2;
    (0..k)
        .map(|_| {
            let kind = *pick(&mut rng, &PolicyKind::ALL);
            let mut mitigation = kind.mitigation();
            mitigation.thresholds = base.mitigation.thresholds;
            mitigation.global = match mitigation.global {
                GlobalPolicy::Dvfs(_) => {
                    GlobalPolicy::Dvfs(DvfsParams::for_thresholds(&mitigation.thresholds))
                }
                GlobalPolicy::FetchGate(_) => {
                    GlobalPolicy::FetchGate(GateParams::for_thresholds(&mitigation.thresholds))
                }
                GlobalPolicy::ClockThrottle(_) => {
                    GlobalPolicy::ClockThrottle(GateParams::for_thresholds(&mitigation.thresholds))
                }
                GlobalPolicy::None => GlobalPolicy::None,
            };
            SimConfig { mitigation, ..shared.clone() }
        })
        .collect()
}

/// Salt separating the batch-split RNG stream from every other stream, so
/// drawing split points never perturbs what existing seeds derive.
const SPLIT_SALT: u64 = 0x5B11_7C1A_55E5_0FF5;

/// The window boundary at which a batch-drawing seed splits its batch
/// between threads: one of `1..=windows`.
#[must_use]
pub fn derive_split_window(seed: u64, windows: u64) -> u64 {
    let mut rng = Xoshiro256::new(seed ^ SPLIT_SALT);
    1 + rng.below(windows.max(1))
}

/// Salt separating the multi-core RNG stream from `derive_case`'s and the
/// batch stream's, so adding multi-core draws never perturbs what existing
/// seeds derive.
const MULTICORE_SALT: u64 = 0x0000_D1E5_A1AD_CAFE;

/// Whether this seed additionally runs the seed's case through the
/// multi-core engine (one seed in four, disjoint from the batch-drawing
/// seeds so no seed pays for both cross-checks).
#[must_use]
pub fn draws_multicore(seed: u64) -> bool {
    seed % 4 == 1
}

/// The multi-core shape a multicore-drawing seed runs: a die size and a
/// scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiCoreCase {
    /// Cores on the die (1..=4; 1-core draws bitwise cross-check against
    /// the scalar engine, larger dies run with invariants armed).
    pub cores: usize,
    /// The placement policy.
    pub scheduler: SchedulerKind,
}

/// Derives the multi-core shape for a multicore-drawing seed.
#[must_use]
pub fn derive_multicore_case(seed: u64) -> MultiCoreCase {
    let mut rng = Xoshiro256::new(seed ^ MULTICORE_SALT);
    let cores = 1 + rng.below(4) as usize;
    let scheduler = *pick(&mut rng, &SchedulerKind::ALL);
    MultiCoreCase { cores, scheduler }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance::Simulator;

    #[test]
    fn derivation_is_deterministic_and_valid() {
        for seed in 0..50 {
            let (a, bench_a, trace_a) = derive_case(seed);
            let (b, bench_b, trace_b) = derive_case(seed);
            assert_eq!(a, b, "seed {seed} must derive one config");
            assert_eq!(bench_a, bench_b);
            assert_eq!(trace_a, trace_b);
            a.validate().unwrap_or_else(|e| panic!("seed {seed} derived an invalid config: {e}"));
        }
    }

    #[test]
    fn batch_siblings_are_valid_and_batch_eligible() {
        use powerbalance::batch_key;
        use serde::json;
        let mut widths = std::collections::HashSet::new();
        for seed in (0..200u64).filter(|s| draws_batch(*s)) {
            let (base, _, _) = derive_case(seed);
            let siblings = derive_batch_siblings(seed, &base);
            assert!((2..=6).contains(&siblings.len()), "seed {seed}: width out of range");
            widths.insert(siblings.len());
            let key = json::to_string(&batch_key(&siblings[0]));
            for (i, cfg) in siblings.iter().enumerate() {
                cfg.validate().unwrap_or_else(|e| panic!("seed {seed} sibling {i} invalid: {e}"));
                assert_eq!(
                    json::to_string(&batch_key(cfg)),
                    key,
                    "seed {seed} sibling {i} is not batch-eligible with sibling 0"
                );
            }
        }
        assert!(widths.len() > 1, "batch widths must vary across the first 200 seeds");
    }

    #[test]
    fn multicore_draws_cover_every_die_size_and_scheduler() {
        // Deterministic, disjoint from batch draws, and the first 200
        // seeds must reach every die size and every scheduler kind so the
        // multi-core cross-check isn't vacuously narrow.
        let mut sizes = std::collections::HashSet::new();
        let mut kinds = std::collections::HashSet::new();
        for seed in (0..200u64).filter(|s| draws_multicore(*s)) {
            assert!(!draws_batch(seed), "a seed must never pay for both cross-checks");
            let a = derive_multicore_case(seed);
            assert_eq!(a, derive_multicore_case(seed), "seed {seed} must derive one case");
            assert!((1..=4).contains(&a.cores), "seed {seed}: die size out of range");
            sizes.insert(a.cores);
            kinds.insert(a.scheduler.name());
        }
        assert_eq!(sizes.len(), 4, "die sizes 1..=4 must all appear: {sizes:?}");
        assert_eq!(kinds.len(), SchedulerKind::ALL.len(), "all schedulers must appear: {kinds:?}");
    }

    /// The PR-4 coverage note: with `max_temp` biased into the 322–348 K
    /// band, the fuzzer's default 40 k-cycle budget must actually reach
    /// mitigation decisions — at least one of the first 200 seeds has to
    /// trigger a toggle event, not just freezes. Only seeds whose derived
    /// config can toggle at all (toggling enabled + biased limit) are
    /// simulated, and the scan stops at the first hit, so the test stays
    /// fast while pinning the distribution property.
    #[test]
    fn generator_covers_both_fidelities_with_valid_windows() {
        let mut seen = [false; 2];
        for seed in 0..200 {
            let (cfg, _, _) = derive_case(seed);
            cfg.validate().unwrap_or_else(|e| panic!("seed {seed} derived an invalid config: {e}"));
            match cfg.fidelity {
                Fidelity::Exact => seen[0] = true,
                Fidelity::Fast => {
                    seen[1] = true;
                    assert!(
                        cfg.fast_window.is_multiple_of(cfg.sample_interval),
                        "seed {seed}: the macro window must hold whole sampling intervals"
                    );
                }
            }
        }
        assert_eq!(seen, [true; 2], "[exact, fast] coverage in the first 200 seeds");
    }

    #[test]
    fn generator_covers_every_global_policy_family() {
        // The widened config space must actually reach all four policy
        // families early, and every drawn ladder/trip table must validate
        // (the fuzzer asserts this per seed; pin it for the first 200).
        let mut seen = [false; 4];
        for seed in 0..200 {
            let (cfg, _, _) = derive_case(seed);
            cfg.validate().unwrap_or_else(|e| panic!("seed {seed} derived an invalid config: {e}"));
            let idx = match cfg.mitigation.global {
                powerbalance::GlobalPolicy::None => 0,
                powerbalance::GlobalPolicy::Dvfs(_) => 1,
                powerbalance::GlobalPolicy::FetchGate(_) => 2,
                powerbalance::GlobalPolicy::ClockThrottle(_) => 3,
            };
            seen[idx] = true;
        }
        assert_eq!(seen, [true; 4], "[none, dvfs, fetch-gate, clock-throttle] coverage");
    }

    #[test]
    fn biased_max_temp_makes_early_ladders_step() {
        // Counterpart of the toggling coverage test below for the policy
        // layer: among the first 200 seeds, at least one biased-hot config
        // with a global ladder must record a ladder movement within the
        // fuzzer's default budget.
        for seed in 0..200 {
            let (cfg, bench, trace_seed) = derive_case(seed);
            if cfg.mitigation.global == powerbalance::GlobalPolicy::None
                || cfg.mitigation.thresholds.max_temp >= 350.0
            {
                continue;
            }
            let mut sim = Simulator::new(cfg).expect("derived configs are valid");
            let profile = spec2000::by_name(&bench).expect("derived benches exist");
            let result = sim.run(&mut profile.trace(trace_seed), DEFAULT_CYCLES);
            if result.opp_transitions > 0 || result.duty_shifts > 0 {
                return; // coverage confirmed
            }
        }
        panic!(
            "no early seed stepped a global ladder; the fuzzer is not reaching the policy layer"
        );
    }

    #[test]
    fn degenerate_policy_tables_are_rejected() {
        use powerbalance::{
            DutyLadder, GlobalPolicy, OppLadder, OppLevel, TripPoint, TripSeverity, TripTable,
        };
        use powerbalance_uarch::DutyCycle;

        // Empty tables and ladders never validate.
        assert!(TripTable::from_points(&[]).expect("fits").validate().is_err());
        assert!(OppLadder::from_levels(&[]).expect("fits").validate().is_err());
        assert!(DutyLadder::from_levels(&[]).expect("fits").validate().is_err());

        // Inverted hysteresis (clear at or above trip) is rejected.
        let inverted = TripPoint::new(TripSeverity::Passive, 350.0, 350.0);
        assert!(TripTable::from_points(&[inverted]).expect("fits").validate().is_err());

        // A single-trip table is fine as long as its hysteresis is sane —
        // the generator's truncation path relies on this.
        let single = TripPoint::new(TripSeverity::Critical, 358.0, 357.0);
        assert!(TripTable::from_points(&[single]).expect("fits").validate().is_ok());

        // A ladder whose level 0 is not nominal is rejected wholesale when
        // wrapped in a policy, so a bad draw could never slip into a case.
        let bad =
            OppLadder::from_levels(&[OppLevel { duty: DutyCycle::new(3, 4), volt_scale: 0.9 }])
                .expect("fits");
        let policy = GlobalPolicy::Dvfs(powerbalance::DvfsParams {
            ladder: bad,
            ..powerbalance::DvfsParams::for_thresholds(&powerbalance::Thresholds::default())
        });
        assert!(policy.validate().is_err());
    }

    #[test]
    fn biased_max_temp_makes_early_seeds_toggle() {
        let mut candidates = 0;
        for seed in 0..200 {
            let (cfg, bench, trace_seed) = derive_case(seed);
            if !cfg.mitigation.activity_toggling || cfg.mitigation.thresholds.max_temp >= 350.0 {
                continue;
            }
            candidates += 1;
            let mut sim = Simulator::new(cfg).expect("derived configs are valid");
            let profile = spec2000::by_name(&bench).expect("derived benches exist");
            let result = sim.run(&mut profile.trace(trace_seed), DEFAULT_CYCLES);
            if result.toggles > 0 {
                return; // coverage confirmed
            }
        }
        panic!(
            "none of the first 200 seeds toggled ({candidates} had toggling enabled with a \
             biased max_temp); the fuzzer is not reaching the toggling decision"
        );
    }
}
