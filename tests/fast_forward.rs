//! Differential test of the quiet-span fast-forward: `Core::advance` must
//! leave the core exactly where stepping `Core::cycle` one cycle at a time
//! leaves it.
//!
//! Two cores run the same trace side by side in 10k-cycle windows, one
//! through `advance` and one through a per-cycle loop with the same stop
//! rule. After every window their complete `CoreState`s (pipeline contents,
//! predictor and cache arrays, every statistic and activity counter) and
//! their trace generators must be equal. Between windows both receive the
//! same steering a mitigation manager would apply, so the spans are
//! crossed with toggled queues, turned-off units and register-file copies,
//! duty-cycle gating and freezes.

use powerbalance::{experiments, IqMode, MappingPolicy};
use powerbalance_isa::{ExecDomain, SliceTrace, TraceSource};
use powerbalance_uarch::{Core, CoreConfig, DutyCycle, UnitKind};
use powerbalance_workloads::{spec2000, TraceGenerator};

const WINDOW: u64 = 10_000;
const WINDOWS: u64 = 8;

/// Mitigation-style steering applied to both cores before window `w`.
type Steer = fn(&mut Core, u64);

/// The per-cycle reference for `Core::advance`: the same budget and stop
/// rule, one `Core::cycle` at a time.
fn step(core: &mut Core, trace: &mut impl TraceSource, budget: u64) -> u64 {
    let mut ran = 0;
    for _ in 0..budget {
        core.cycle(trace);
        ran += 1;
        if core.is_done() {
            break;
        }
    }
    ran
}

/// Runs `bench` on `cfg` both ways and compares after every window.
fn check(label: &str, bench: &str, cfg: &CoreConfig, steer: Steer) {
    let profile = spec2000::by_name(bench).expect("known benchmark");
    let mut fast = Core::new(cfg.clone()).expect("valid config");
    let mut slow = Core::new(cfg.clone()).expect("valid config");
    let mut fast_trace: TraceGenerator = profile.trace(7);
    let mut slow_trace: TraceGenerator = profile.trace(7);
    for w in 0..WINDOWS {
        steer(&mut fast, w);
        steer(&mut slow, w);
        let ran = fast.advance(&mut fast_trace, WINDOW);
        assert_eq!(ran, step(&mut slow, &mut slow_trace, WINDOW), "{label}/{bench}: window {w}");
        assert!(
            fast.snapshot() == slow.snapshot(),
            "{label}/{bench}: core state diverged in window {w} ({:?} vs {:?})",
            fast.stats(),
            slow.stats()
        );
        assert_eq!(fast_trace.snapshot(), slow_trace.snapshot(), "{label}/{bench}: window {w}");
    }
}

fn toggle_queues(core: &mut Core, w: u64) {
    let mode = if w % 2 == 1 { IqMode::Toggled } else { IqMode::Normal };
    core.set_iq_mode(ExecDomain::Int, mode);
    core.set_iq_mode(ExecDomain::Fp, mode);
}

fn turn_off_units(core: &mut Core, w: u64) {
    for alu in 0..6 {
        core.set_unit_enabled(UnitKind::IntAlu, alu, alu as u64 != w % 6);
    }
    core.set_unit_enabled(UnitKind::FpAdd, (w % 4) as usize, w.is_multiple_of(2));
}

fn turn_off_copies(core: &mut Core, w: u64) {
    core.set_rf_copy_enabled(0, w % 3 != 1);
    core.set_rf_copy_writes_enabled(0, w % 3 != 1);
}

#[test]
fn advance_matches_per_cycle_stepping_on_every_profile() {
    let alu = experiments::alu(experiments::AluPolicy::RoundRobin).core;
    let cases: [(&str, CoreConfig, Steer); 3] = [
        ("issue", experiments::issue_queue(true).core, toggle_queues),
        ("alu", alu, turn_off_units),
        ("regfile", experiments::regfile(MappingPolicy::Priority, true).core, turn_off_copies),
    ];
    for bench in spec2000::ALL {
        for (label, cfg, steer) in &cases {
            check(label, bench, cfg, *steer);
        }
    }
}

#[test]
fn advance_matches_per_cycle_stepping_under_duty_cycles() {
    let duty: Steer = |core, w| {
        core.set_clock_duty(if w.is_multiple_of(2) {
            DutyCycle::new(3, 4)
        } else {
            DutyCycle::full()
        });
        core.set_fetch_duty(DutyCycle::new(5, 16));
    };
    for bench in ["mcf", "gzip", "art"] {
        check("duty", bench, &CoreConfig::default(), duty);
    }
}

#[test]
fn advance_matches_per_cycle_stepping_across_freezes() {
    let freeze: Steer = |core, w| core.set_frozen(w % 2 == 1);
    for bench in ["mcf", "mesa"] {
        check("freeze", bench, &CoreConfig::default(), freeze);
    }
}

/// A frozen core's budget is applied in one step; a frozen core whose
/// trace has drained still runs exactly one cycle per call, as the
/// stepping loop does.
#[test]
fn advance_matches_per_cycle_stepping_on_frozen_cores_drained_or_not() {
    let profile = spec2000::by_name("mesa").expect("known benchmark");
    let ops: Vec<_> = {
        let mut trace = profile.trace(7);
        (0..2_000).map(|_| trace.next_op().expect("an endless generator")).collect()
    };
    let mut fast = Core::new(CoreConfig::default()).expect("valid config");
    let mut slow = Core::new(CoreConfig::default()).expect("valid config");
    let mut fast_trace = SliceTrace::new(ops.clone());
    let mut slow_trace = SliceTrace::new(ops);
    let mut w = 0;
    // Alternate frozen and running spans of odd lengths until the trace
    // drains, then keep calling on the frozen, drained core.
    while w < 40 || !slow.is_done() {
        assert!(w < 10_000, "the trace never drained");
        let frozen = w % 2 == 0 || slow.is_done();
        fast.set_frozen(frozen);
        slow.set_frozen(frozen);
        let budget = [0, 1, 7, 333, 2_500][w % 5];
        let ran = fast.advance(&mut fast_trace, budget);
        assert_eq!(ran, step(&mut slow, &mut slow_trace, budget), "call {w}");
        if frozen && slow.is_done() {
            assert_eq!(ran, budget.min(1), "a drained frozen core runs one cycle");
        }
        assert!(
            fast.snapshot() == slow.snapshot(),
            "call {w}: {:?} vs {:?}",
            fast.stats(),
            slow.stats()
        );
        w += 1;
    }
    assert!(fast.stats().frozen_cycles > 2_500, "{:?}", fast.stats());
}
