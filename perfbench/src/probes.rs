//! Isolated timings of single layer calls, fed inputs a traced run
//! recorded. Each probe warms its caches with one untimed call, then
//! reports the mean of many timed calls.

use powerbalance::{spec2000, SimConfig, Simulator, Snapshot};
use powerbalance_harness::CampaignResult;
use powerbalance_isa::TraceSource;
use powerbalance_thermal::{ev6, multicore, BatchThermalSolver, ThermalModel};
use powerbalance_workloads::TraceGenerator;
use std::hint::black_box;
use std::time::Instant;

/// Calls per thermal probe: long enough that the clock reads vanish,
/// short enough to stay well under a second.
const THERMAL_CALLS: u32 = 2_000;

/// Calls per state or snapshot probe.
const STATE_CALLS: u32 = 20;

/// Mean microseconds per call of `f` over `calls` calls, after one
/// untimed warm-up call.
fn mean_us(calls: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Thermal-solver timings on one job's floorplan and power.
#[derive(Debug, Clone, Copy)]
pub struct ThermalProbe {
    /// `ThermalModel::step` on the one-core floorplan.
    pub step_us_n1: f64,
    /// `ThermalModel::step` on two copies of it (the 2-core die).
    pub step_us_n2: f64,
    /// `ThermalModel::advance` over one sampling interval.
    pub advance_us: f64,
    /// `BatchThermalSolver::step_many` over six lanes.
    pub solve_many_us: f64,
}

/// Times the thermal solver on `config`'s floorplan and package, fed the
/// recorded per-block power `watts`, at the configuration's sampling step.
#[must_use]
pub fn thermal(config: &SimConfig, watts: &[f64]) -> ThermalProbe {
    let plan = ev6::build(config.floorplan);
    let dt = config.sample_interval as f64 / config.frequency_hz;

    let mut model = ThermalModel::new(&plan, config.package);
    let step_us_n1 = mean_us(THERMAL_CALLS, || model.step(black_box(watts), dt));

    let die = multicore::replicate(&plan, 2);
    let die_watts: Vec<f64> = watts.iter().chain(watts).copied().collect();
    let mut die_model = ThermalModel::new(&die, config.package);
    let step_us_n2 = mean_us(THERMAL_CALLS, || die_model.step(black_box(&die_watts), dt));

    let mut model = ThermalModel::new(&plan, config.package);
    let advance_us = mean_us(THERMAL_CALLS, || model.advance(black_box(watts), dt));

    let mut models: Vec<ThermalModel> =
        (0..6).map(|_| ThermalModel::new(&plan, config.package)).collect();
    let mut solver = BatchThermalSolver::new();
    let solve_many_us = mean_us(THERMAL_CALLS, || {
        let mut lanes: Vec<(&mut ThermalModel, &[f64])> =
            models.iter_mut().map(|m| (m, black_box(watts))).collect();
        solver.step_many(&mut lanes, dt);
    });

    ThermalProbe { step_us_n1, step_us_n2, advance_us, solve_many_us }
}

/// Fork and checkpoint timings of one simulator that has run.
#[derive(Debug, Clone, Copy)]
pub struct StateProbe {
    /// `Simulator::state`.
    pub state_us: f64,
    /// `Simulator::restore_state` into a fresh simulator.
    pub restore_us: f64,
    /// `Snapshot::to_json`.
    pub encode_us: f64,
    /// `Snapshot::from_json`.
    pub decode_us: f64,
    /// Size of the encoded snapshot.
    pub bytes: usize,
}

/// Times the fork primitive and the snapshot codec on `sim`, whose
/// workload is `bench` at generator position `trace`.
///
/// # Errors
///
/// Returns a message if the snapshot does not round-trip.
pub fn state(sim: &Simulator, bench: &str, trace: &TraceGenerator) -> Result<StateProbe, String> {
    let profile = spec2000::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench}"))?;
    let state_us = mean_us(STATE_CALLS, || drop(black_box(sim.state())));
    let state = sim.state();
    let mut fresh = Simulator::new(sim.config().clone()).map_err(|e| e.to_string())?;
    let mut restore_error = None;
    let restore_us = mean_us(STATE_CALLS, || {
        if let Err(e) = fresh.restore_state(black_box(&state)) {
            restore_error = Some(e.to_string());
        }
    });
    if let Some(e) = restore_error {
        return Err(format!("restore_state: {e}"));
    }
    let snapshot = Snapshot::capture(sim, &profile, trace);
    let text = snapshot.to_json();
    let encode_us = mean_us(STATE_CALLS, || drop(black_box(snapshot.to_json())));
    let mut decoded = None;
    let decode_us = mean_us(STATE_CALLS, || decoded = Some(Snapshot::from_json(black_box(&text))));
    match decoded {
        Some(Ok(back)) if back == snapshot => {}
        Some(Err(e)) => return Err(format!("snapshot does not decode: {e}")),
        _ => return Err("snapshot does not round-trip".to_string()),
    }
    Ok(StateProbe { state_us, restore_us, encode_us, decode_us, bytes: text.len() })
}

/// Median microseconds to parse `document` as a `CampaignResult`, the
/// client side of `GET /v1/campaigns/<id>/result`.
///
/// # Errors
///
/// Returns a message if the document does not parse.
pub fn result_decode_us(document: &str) -> Result<f64, String> {
    let mut times = Vec::with_capacity(STATE_CALLS as usize);
    for _ in 0..STATE_CALLS {
        let t = Instant::now();
        serde::json::from_str::<CampaignResult>(black_box(document)).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&times))
}

/// Nanoseconds per micro-op of the trace generator: regenerates `ops`
/// ops per `(bench, seed)` pair from fresh generators.
///
/// # Errors
///
/// Returns a message for an unknown benchmark or a drained generator.
pub fn generation_ns_per_op(streams: &[(&str, u64, u64)]) -> Result<f64, String> {
    let mut total_ops = 0u64;
    let mut total_ns = 0u128;
    for &(bench, seed, ops) in streams {
        let profile =
            spec2000::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench}"))?;
        let mut generator = profile.trace(seed);
        let start = Instant::now();
        for _ in 0..ops {
            black_box(generator.next_op().ok_or("the generator drained")?);
        }
        total_ns += start.elapsed().as_nanos();
        total_ops += ops;
    }
    if total_ops == 0 {
        return Err("no ops to regenerate".to_string());
    }
    Ok(total_ns as f64 / total_ops as f64)
}
