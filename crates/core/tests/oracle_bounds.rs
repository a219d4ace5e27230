//! Scheduler-oracle bound tests.
//!
//! These drive the *real* placement rule ([`SchedulerKind::select`]) with
//! the abstract cooling model of Chrobak et al. (temperature-aware
//! scheduling with provable bounds): unit-length jobs, one arrival per
//! step, and the recurrence
//!
//! ```text
//! T' = (T + h) / 2   while running a job of heat h,
//! T' = T / 2         while idle.
//! ```
//!
//! On a two-core instance with arrivals alternating heats H and C the
//! steady-state peaks have closed forms:
//!
//! * RoundRobin parks every hot job on the same core (the rotation
//!   parity locks onto the arrival parity), so that core follows
//!   `T → ((T/2) + H)/2` with fixed point `T* = H/3` and running peak
//!   `(T* + H)/2 = 2H/3`.
//! * Coolest-First alternates hot jobs between the cores; each core
//!   settles into the period-4 pattern (H, idle, idle, C) with fixed
//!   point `T* = (H + 8C)/15` and running peak `(T* + H)/2 =
//!   (8H + 4C)/15`.
//! * The threshold policy admits work only on cores strictly below θ,
//!   so *every* running peak is below `(θ + h_max)/2` by construction —
//!   the Chrobak-style guarantee — at the price of deferring jobs into
//!   a backlog.
//!
//! With H = 1, C = 0.1 the pinned bound B = 0.6 separates the policies:
//! Coolest-First peaks at 0.56 ≤ B and the θ = 0.15 threshold policy at
//! 0.575 ≤ B, while RoundRobin's 2/3 exceeds B — the adversarial case
//! proving these assertions are falsifiable.

use powerbalance::{CoreView, SchedulerKind};
use std::collections::VecDeque;

const H: f64 = 1.0;
const C: f64 = 0.1;
const BOUND: f64 = 0.6;
const THETA: f64 = 0.15;
const STEPS: usize = 400;
const EPS: f64 = 1e-6;

/// Outcome of driving a policy through the abstract model.
struct ModelRun {
    /// Highest temperature observed on any core after any step.
    peak: f64,
    /// Highest temperature observed during the last quarter of the run
    /// (the converged regime the closed forms describe).
    steady_peak: f64,
    /// Largest backlog of deferred jobs at any dispatch point.
    max_backlog: usize,
    /// Jobs completed over the whole run.
    completed: usize,
}

/// Steps the Chrobak recurrence under `kind` (admission threshold
/// [`THETA`]) for `steps` steps on `cores` cores. `arrival(step)` yields each step's job heat. Deferred
/// jobs wait in a FIFO backlog; each core runs at most one job per step.
fn run_model(
    kind: SchedulerKind,
    cores: usize,
    steps: usize,
    arrival: impl Fn(usize) -> f64,
) -> ModelRun {
    let mut word = 0;
    let mut temps = vec![0.0; cores];
    let mut backlog: VecDeque<f64> = VecDeque::new();
    let mut run = ModelRun { peak: 0.0, steady_peak: 0.0, max_backlog: 0, completed: 0 };
    for step in 0..steps {
        backlog.push_back(arrival(step));
        run.max_backlog = run.max_backlog.max(backlog.len());

        // Dispatch in FIFO order until the policy defers or cores fill.
        let mut assigned: Vec<Option<f64>> = vec![None; cores];
        while let Some(&heat) = backlog.front() {
            let views: Vec<CoreView> = temps
                .iter()
                .zip(&assigned)
                .map(|(&temp, a)| CoreView { temp, free: a.is_none() })
                .collect();
            let Some(core) = kind.select(THETA, &mut word, &views) else { break };
            assert!(assigned[core].is_none(), "policy placed two jobs on core {core}");
            assigned[core] = Some(heat);
            backlog.pop_front();
            let _ = heat;
        }

        for (temp, slot) in temps.iter_mut().zip(&assigned) {
            match slot {
                Some(h) => {
                    *temp = (*temp + h) / 2.0;
                    run.completed += 1;
                }
                None => *temp /= 2.0,
            }
            run.peak = run.peak.max(*temp);
            if step >= steps - steps / 4 {
                run.steady_peak = run.steady_peak.max(*temp);
            }
        }
    }
    run
}

/// Alternating arrivals: hot on even steps, cool on odd.
fn alternating(step: usize) -> f64 {
    if step.is_multiple_of(2) {
        H
    } else {
        C
    }
}

#[test]
fn round_robin_violates_the_bound_on_the_adversarial_instance() {
    let run = run_model(SchedulerKind::RoundRobin, 2, STEPS, alternating);
    // Rotation parity locks onto arrival parity: core 0 eats every hot
    // job and converges on the closed-form peak 2H/3 — above the bound.
    let expected = 2.0 * H / 3.0;
    assert!(
        (run.steady_peak - expected).abs() < EPS,
        "RoundRobin steady peak {} != closed form {expected}",
        run.steady_peak
    );
    assert!(
        run.steady_peak > BOUND + 0.05,
        "adversarial instance no longer violates the bound (peak {})",
        run.steady_peak
    );
    assert_eq!(run.completed, STEPS, "RoundRobin must never defer");
    assert_eq!(run.max_backlog, 1, "RoundRobin must dispatch every arrival immediately");
}

#[test]
fn coolest_first_respects_the_bound_with_closed_form_peak() {
    let run = run_model(SchedulerKind::CoolestFirst, 2, STEPS, alternating);
    // Period-4 per-core pattern (H, idle, idle, C): T* = (H + 8C)/15,
    // running peak (T* + H)/2 = (8H + 4C)/15 = 0.56 for H=1, C=0.1.
    let expected = (8.0 * H + 4.0 * C) / 15.0;
    assert!(
        (run.steady_peak - expected).abs() < EPS,
        "Coolest-First steady peak {} != closed form {expected}",
        run.steady_peak
    );
    assert!(run.peak <= BOUND, "Coolest-First peak {} exceeds bound {BOUND}", run.peak);
    assert_eq!(run.completed, STEPS, "two free cores and one arrival per step: no deferrals");
}

#[test]
fn threshold_policy_respects_the_admission_bound() {
    let run = run_model(SchedulerKind::Threshold, 2, STEPS, alternating);
    // Admission below θ caps every running peak at (θ + h_max)/2 by
    // construction; θ = 0.15 gives 0.575 ≤ B = 0.6.
    let cap = (THETA + H) / 2.0;
    assert!(run.peak <= cap + EPS, "threshold peak {} exceeds admission cap {cap}", run.peak);
    assert!(run.peak <= BOUND, "threshold peak {} exceeds bound {BOUND}", run.peak);
    // The policy must still make progress: the backlog stays bounded and
    // (almost) every job is served by the end of the run.
    assert!(run.max_backlog <= 8, "backlog diverged: {}", run.max_backlog);
    assert!(
        run.completed >= STEPS - 8,
        "threshold policy starved the queue ({}/{STEPS} served)",
        run.completed
    );
}

#[test]
fn threshold_policy_holds_the_cap_even_under_all_hot_load() {
    // Every arrival is hot. Coolest-First (which must place immediately)
    // blows through the bound — its per-core pattern (H, idle) peaks at
    // 2H/3 — while the threshold policy defers instead and never exceeds
    // its admission cap. This is the separation that makes "threshold
    // respects the bound" a property of the policy, not of the load.
    let cf_run = run_model(SchedulerKind::CoolestFirst, 2, STEPS, |_| H);
    let expected = 2.0 * H / 3.0;
    assert!(
        (cf_run.steady_peak - expected).abs() < EPS,
        "Coolest-First all-hot steady peak {} != closed form {expected}",
        cf_run.steady_peak
    );
    assert!(cf_run.steady_peak > BOUND);

    let th_run = run_model(SchedulerKind::Threshold, 2, STEPS, |_| H);
    let cap = (THETA + H) / 2.0;
    assert!(
        th_run.peak <= cap + EPS,
        "threshold peak {} exceeds admission cap {cap} under all-hot load",
        th_run.peak
    );
}
