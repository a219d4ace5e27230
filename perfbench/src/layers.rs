//! The traced pass every workload's `--trace 1` run makes, and the
//! per-layer metrics assembled from it.
//!
//! The pass drives a workload's scalar-equivalent jobs twice, job by job:
//! once through `Simulator::run` (untraced, in window-sized calls whose
//! times give the engine's per-window cost) and once through the traced
//! [`Replica`], whose result must equal the untraced one bit for bit.
//! The difference between the two walls is the tracing overhead.

use crate::probes;
use crate::replica::{Replica, Spans};
use crate::report::{check_result, metric, Checks, Metric};
use crate::stats::median;
use powerbalance::{spec2000, Fidelity, RunResult, SimConfig, Simulator, Snapshot};
use powerbalance_workloads::TraceGenerator;
use std::sync::Arc;
use std::time::Instant;

/// One scalar job of the traced pass.
#[derive(Debug, Clone)]
pub struct ScalarJob {
    /// The configuration (single-core).
    pub config: SimConfig,
    /// Benchmark name.
    pub bench: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Cycles to run after any warm state.
    pub cycles: u64,
    /// Warm state to start from, as the warm-start cache hands it out.
    pub warm: Option<Arc<Snapshot>>,
    /// The result this job must reproduce, when the workload already ran
    /// it through another engine.
    pub expect: Option<RunResult>,
}

impl ScalarJob {
    /// The simulator and trace this job starts from.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown benchmark, an invalid config, or
    /// a warm state that does not fit the config.
    pub fn start(&self) -> Result<(Simulator, TraceGenerator), String> {
        match &self.warm {
            Some(snapshot) => snapshot.resume_with_config(self.config.clone()),
            None => {
                let profile = spec2000::by_name(self.bench)
                    .ok_or_else(|| format!("unknown benchmark {}", self.bench))?;
                Simulator::new(self.config.clone()).map(|sim| (sim, profile.trace(self.seed)))
            }
        }
        .map_err(|e| e.to_string())
    }

    /// Cycles of one untraced engine call: a sampling window, or a macro
    /// window under the interval engine.
    fn chunk(&self) -> u64 {
        match self.config.fidelity {
            Fidelity::Exact => self.config.sample_interval,
            Fidelity::Fast => self.config.fast_window,
        }
    }

    fn label(&self) -> String {
        format!("{} seed {} ({:?})", self.bench, self.seed, self.config.fidelity)
    }
}

/// What the traced pass measured.
#[derive(Debug)]
pub struct LayerPass {
    /// Replica spans over every job.
    pub spans: Spans,
    /// Host nanoseconds of the untraced engine calls.
    pub engine_ns: u64,
    /// Cycles (virtual under the interval engine) the untraced engine ran.
    pub engine_cycles: u64,
    /// Microseconds per untraced engine call.
    pub window_us: Vec<f64>,
    /// Untraced results, in job order.
    pub results: Vec<RunResult>,
    /// Nanoseconds per generated micro-op.
    pub gen_ns_per_op: f64,
    /// Thermal probe on the first job.
    pub thermal: probes::ThermalProbe,
    /// State and snapshot probe on the first job.
    pub state: probes::StateProbe,
}

/// Runs the traced pass over `jobs`, counting each job as one operation.
///
/// # Errors
///
/// Returns a message if a job cannot be set up or a probe fails; result
/// mismatches are recorded in `checks` instead.
pub fn pass(jobs: &[ScalarJob], checks: &mut Checks) -> Result<LayerPass, String> {
    let mut spans = Spans::default();
    let mut engine_ns = 0u64;
    let mut engine_cycles = 0u64;
    let mut window_us = Vec::new();
    let mut results = Vec::new();
    let mut streams = Vec::new();
    let mut first: Option<(Simulator, TraceGenerator, Vec<f64>)> = None;

    for job in jobs {
        let (mut sim, mut trace) = job.start()?;
        let mut result = sim.result();
        let start_cycles = result.cycles;
        let chunk = job.chunk();
        let mut left = job.cycles;
        while left > 0 {
            let n = chunk.min(left);
            let t = Instant::now();
            result = sim.run(&mut trace, n);
            let ns = t.elapsed().as_nanos() as u64;
            engine_ns += ns;
            window_us.push(ns as f64 / 1e3);
            left -= n;
        }
        engine_cycles += result.cycles - start_cycles;

        let (_, mut replica_trace) = job.start()?;
        let mut replica = match &job.warm {
            Some(snapshot) => Replica::from_state(job.config.clone(), &snapshot.state)?,
            None => Replica::new(job.config.clone())?,
        };
        let ops_before = spans.ops;
        replica.run(&mut replica_trace, job.cycles, &mut spans);
        streams.push((job.bench, job.seed, spans.ops - ops_before));

        let what = job.label();
        let mut outcome = check_result(&what, &result, job.cycles, job.config.package.ambient);
        if outcome.is_ok() && replica.result() != result {
            outcome = Err(format!("{what}: traced replica differs from Simulator::run"));
        }
        if let Some(expect) = &job.expect {
            if outcome.is_ok() && *expect != result {
                outcome = Err(format!("{what}: Simulator::run differs from the workload's result"));
            }
        }
        checks.op(outcome);
        if first.is_none() {
            first = Some((sim, trace, replica.last_watts().to_vec()));
        }
        results.push(result);
    }

    let (sim, trace, watts) = first.ok_or("the traced pass has no jobs")?;
    Ok(LayerPass {
        spans,
        engine_ns,
        engine_cycles,
        window_us,
        results,
        gen_ns_per_op: probes::generation_ns_per_op(&streams)?,
        thermal: probes::thermal(&jobs[0].config, &watts),
        state: probes::state(&sim, jobs[0].bench, &trace)?,
    })
}

/// The engine-level figures of a workload's own engine, where it is not
/// the scalar simulator the pass already drove.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    /// Simulated cycles per host second of the engine, called directly.
    pub cycles_per_s: f64,
    /// Median host microseconds per engine window.
    pub window_us_p50: f64,
    /// Σ live equivalence classes over the engine's windows.
    pub class_windows: u64,
    /// Class forks.
    pub forks: u64,
    /// Sibling windows simulated over class windows stepped.
    pub sharing: f64,
}

impl Engine {
    /// The scalar engine of the pass itself: one class, never forked.
    #[must_use]
    pub fn scalar(pass: &LayerPass) -> Engine {
        Engine {
            cycles_per_s: pass.engine_cycles as f64 / (pass.engine_ns as f64 / 1e9),
            window_us_p50: median(&pass.window_us),
            class_windows: pass.spans.windows,
            forks: 0,
            sharing: 1.0,
        }
    }
}

/// Harness and server figures; zero where the workload bypasses them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Service {
    /// Busy share of the threads that ran the workload's operations.
    pub pool_busy_frac: f64,
    /// Warmups the warm-start cache computed.
    pub warmups_computed: u64,
    /// Warm-start cache hits.
    pub cache_hits: u64,
    /// HTTP requests sent.
    pub requests: u64,
    /// Share of campaign latency spent outside the engine.
    pub overhead_frac: f64,
    /// Median microseconds to parse one result document.
    pub result_decode_us: f64,
    /// Median size of one result document.
    pub result_bytes: f64,
}

/// Assembles every per-layer metric, in table order.
#[must_use]
pub fn metrics(pass: &LayerPass, engine: &Engine, service: &Service) -> Vec<Metric> {
    let s = &pass.spans;
    let wall = s.wall_ns as f64;
    let workloads_ns = pass.gen_ns_per_op * s.ops as f64 + s.skip_ns as f64;
    let uarch_self_ns = (s.uarch_ns as f64 - pass.gen_ns_per_op * s.ops as f64).max(0.0);
    let per = |ns: u64, count: u64| ns as f64 / 1e3 / count.max(1) as f64;
    let covered = s.covered_ns() as f64;
    let note = format!("{} windows, {} detailed cycles", s.windows, s.detailed_cycles);
    vec![
        metric("trace.coverage", covered / wall, "layer spans over traced wall"),
        metric(
            "trace.overhead_frac",
            wall / pass.engine_ns as f64 - 1.0,
            format!("traced {:.3} s vs untraced {:.3} s", wall / 1e9, pass.engine_ns as f64 / 1e9),
        ),
        metric("workloads.ops", s.ops as f64, "micro-ops drawn through next_op"),
        metric("workloads.ns_per_op", pass.gen_ns_per_op, "regenerated from fresh generators"),
        metric("workloads.self_frac", workloads_ns / wall, "generation plus skip_ops"),
        metric("uarch.cycles", s.detailed_cycles as f64, "core cycles simulated in detail"),
        metric(
            "uarch.ns_per_cycle",
            uarch_self_ns / s.detailed_cycles.max(1) as f64,
            "Core::cycle windows minus generation",
        ),
        metric("uarch.self_frac", uarch_self_ns / wall, ""),
        metric("power.us_per_window", per(s.power_ns, s.detailed_windows), note.clone()),
        metric("power.self_frac", s.power_ns as f64 / wall, ""),
        metric("thermal.us_per_window", per(s.thermal_ns, s.windows), note.clone()),
        metric("thermal.self_frac", s.thermal_ns as f64 / wall, ""),
        metric("thermal.step_us_n1", pass.thermal.step_us_n1, "isolated step, one-core die"),
        metric("thermal.step_us_n2", pass.thermal.step_us_n2, "isolated step, two-core die"),
        metric("thermal.advance_us", pass.thermal.advance_us, "isolated advance"),
        metric("thermal.solve_many_us", pass.thermal.solve_many_us, "isolated step_many, 6 lanes"),
        metric("mitigation.us_per_window", per(s.mitigation_ns, s.windows), note),
        metric("mitigation.self_frac", s.mitigation_ns as f64 / wall, ""),
        metric(
            "mitigation.actions",
            s.actions as f64,
            "toggles, turnoffs, freezes, OPP/duty moves",
        ),
        metric(
            "fast.detailed_frac",
            s.detailed_cycles as f64 / s.virtual_cycles.max(1) as f64,
            format!("of {} virtual cycles", s.virtual_cycles),
        ),
        metric("fast.skip_calls", s.skip_calls as f64, ""),
        metric("fast.skipped_ops", s.skipped_ops as f64, ""),
        metric("core.self_frac", s.core_ns as f64 / wall, "engine bookkeeping"),
        metric("core.windows", s.windows as f64, "sampling windows, detailed and skipped"),
        metric("core.engine_cycles_per_s", engine.cycles_per_s, "engine called directly"),
        metric("core.window_us_p50", engine.window_us_p50, "per engine call"),
        metric("core.batch_class_windows", engine.class_windows as f64, ""),
        metric("core.batch_forks", engine.forks as f64, ""),
        metric("core.batch_sharing", engine.sharing, "sibling windows per class window"),
        metric("core.state_us", pass.state.state_us, "Simulator::state"),
        metric("core.restore_us", pass.state.restore_us, "Simulator::restore_state"),
        metric("core.snapshot_encode_us", pass.state.encode_us, "Snapshot::to_json"),
        metric("core.snapshot_decode_us", pass.state.decode_us, "Snapshot::from_json"),
        metric("core.snapshot_bytes", pass.state.bytes as f64, ""),
        metric("harness.pool_busy_frac", service.pool_busy_frac, ""),
        metric("harness.warmups_computed", service.warmups_computed as f64, ""),
        metric("harness.cache_hits", service.cache_hits as f64, ""),
        metric("server.requests", service.requests as f64, ""),
        metric("server.overhead_frac", service.overhead_frac, "latency outside the engine"),
        metric("server.result_decode_us", service.result_decode_us, "CampaignResult parse"),
        metric("server.result_bytes", service.result_bytes, ""),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn a_traced_run_prints_every_per_layer_metric_in_table_order() {
        let pass = LayerPass {
            spans: Spans { wall_ns: 10, detailed_cycles: 5, virtual_cycles: 5, ..Spans::default() },
            engine_ns: 9,
            engine_cycles: 5,
            window_us: vec![1.0],
            results: Vec::new(),
            gen_ns_per_op: 1.0,
            thermal: probes::ThermalProbe {
                step_us_n1: 1.0,
                step_us_n2: 1.0,
                advance_us: 1.0,
                solve_many_us: 1.0,
            },
            state: probes::StateProbe {
                state_us: 1.0,
                restore_us: 1.0,
                encode_us: 1.0,
                decode_us: 1.0,
                bytes: 1,
            },
        };
        let printed: Vec<&str> = metrics(&pass, &Engine::scalar(&pass), &Service::default())
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(printed, PER_LAYER.map(|(name, _, _)| name));
    }
}
