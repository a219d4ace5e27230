//! A traced replica of the scalar engine's sampling loop.
//!
//! [`Replica`] rebuilds `Simulator`'s Exact and Fast loops from the layer
//! crates' public APIs — `Core::cycle`, `Core::take_activity`,
//! `PowerModel::block_power_into`, `ThermalModel::settle`/`step`/`advance`,
//! `ThermalManager::on_sample`, `TraceSource::skip_ops` — in the same
//! order and with the same arithmetic, and wraps each call in an
//! `Instant` span. Its [`RunResult`] must equal `Simulator::run`'s bit for
//! bit; the benchmark checks that on every traced job, so the spans are
//! known to time the code path the untraced engine runs.

use powerbalance::{BlockTemperature, Fidelity, RunResult, SimConfig, SimulatorState};
use powerbalance_isa::{MicroOp, TraceSource};
use powerbalance_mitigation::{Sensors, ThermalManager};
use powerbalance_power::PowerModel;
use powerbalance_thermal::{ev6, Floorplan, ThermalModel};
use powerbalance_uarch::{ActivitySample, Core, CoreStats, IqActivity};
use std::time::Instant;

/// Host time per layer and work counts, accumulated over replica runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `Core::cycle` loops plus `take_activity`; includes the trace
    /// generator's `next_op` calls made from inside the core.
    pub uarch_ns: u64,
    /// `PowerModel` accumulation.
    pub power_ns: u64,
    /// `ThermalModel::settle`, `step` and `advance`.
    pub thermal_ns: u64,
    /// `ThermalManager::dynamic_power_scale` and `on_sample`.
    pub mitigation_ns: u64,
    /// `TraceSource::skip_ops` calls of skipped sub-intervals.
    pub skip_ns: u64,
    /// Engine bookkeeping: temperature statistics, the interval engine's
    /// extrapolation basis and counters.
    pub core_ns: u64,
    /// Whole replica runs, spans and the gaps between them.
    pub wall_ns: u64,
    /// Sampling windows, detailed and skipped.
    pub windows: u64,
    /// Windows simulated cycle by cycle.
    pub detailed_windows: u64,
    /// Core cycles simulated in detail.
    pub detailed_cycles: u64,
    /// Cycles covered, detailed plus analytically skipped.
    pub virtual_cycles: u64,
    /// Micro-ops drawn through `next_op`.
    pub ops: u64,
    /// `skip_ops` calls.
    pub skip_calls: u64,
    /// Micro-ops skipped by those calls.
    pub skipped_ops: u64,
    /// Mitigation actions: toggles, turnoffs, freezes, OPP and duty moves.
    pub actions: u64,
}

impl Spans {
    /// Time covered by the layer spans.
    #[must_use]
    pub fn covered_ns(&self) -> u64 {
        self.uarch_ns
            + self.power_ns
            + self.thermal_ns
            + self.mitigation_ns
            + self.skip_ns
            + self.core_ns
    }
}

/// Counts the ops a trace source hands out, without changing them.
struct Counting<'a, T> {
    inner: &'a mut T,
    ops: u64,
    skip_calls: u64,
    skipped: u64,
}

impl<T: TraceSource> TraceSource for Counting<'_, T> {
    fn next_op(&mut self) -> Option<MicroOp> {
        self.ops += 1;
        self.inner.next_op()
    }

    fn skip_ops(&mut self, n: u64) {
        self.skip_calls += 1;
        self.skipped += n;
        self.inner.skip_ops(n);
    }
}

/// Nanoseconds since `from`, advancing `from` to now: one clock read per
/// span boundary.
fn lap(from: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*from).as_nanos() as u64;
    *from = now;
    ns
}

/// Extrapolates a detailed window's counter over `skipped` cycles, exactly
/// as the interval engine does.
fn scaled(basis: u64, skipped: u64, window_len: u64) -> u64 {
    if window_len == 0 {
        return 0;
    }
    (u128::from(basis) * u128::from(skipped) / u128::from(window_len)) as u64
}

/// The interval engine's extrapolation basis and running totals.
#[derive(Debug, Default)]
struct Interval {
    prefix_left: u64,
    window_pos: u64,
    window_watts: Vec<f64>,
    int_iq: IqActivity,
    fp_iq: IqActivity,
    sample_cycles: u64,
    sample_committed: u64,
    sample_fetched: u64,
    sample_frozen: u64,
    sample_throttled: u64,
    sample_fetch_gated: u64,
    extra_cycles: u64,
    extra_committed: u64,
    extra_frozen: u64,
    extra_throttled: u64,
    extra_fetch_gated: u64,
}

/// One traced scalar engine instance.
#[derive(Debug)]
pub struct Replica {
    config: SimConfig,
    plan: Floorplan,
    core: Core,
    power: PowerModel,
    thermal: ThermalModel,
    manager: ThermalManager,
    watts: Vec<f64>,
    idle_watts: Vec<f64>,
    temp_sum: Vec<f64>,
    temp_max: Vec<f64>,
    temp_samples: u64,
    warmed: bool,
    interval: Interval,
}

impl Replica {
    /// Builds the layers exactly as `Simulator::new` does.
    ///
    /// # Errors
    ///
    /// Returns the first layer's rejection of `config`.
    pub fn new(config: SimConfig) -> Result<Self, String> {
        config.validate()?;
        let plan = ev6::build(config.floorplan);
        let core = Core::new(config.core.clone())?;
        let power = PowerModel::new(&plan, config.energy, config.frequency_hz)?;
        let thermal = ThermalModel::new(&plan, config.package);
        let manager = ThermalManager::new(config.mitigation, Sensors::new(&plan)?);
        let blocks = plan.blocks().len();
        let mut idle_watts = vec![0.0; blocks];
        power.block_power_into(&ActivitySample::default(), &mut idle_watts);
        let prefix_left = match config.fidelity {
            Fidelity::Fast => config.fast_warmup,
            Fidelity::Exact => 0,
        };
        Ok(Replica {
            config,
            plan,
            core,
            power,
            thermal,
            manager,
            watts: vec![0.0; blocks],
            idle_watts,
            temp_sum: vec![0.0; blocks],
            temp_max: vec![f64::MIN; blocks],
            temp_samples: 0,
            warmed: false,
            interval: Interval {
                prefix_left,
                window_watts: vec![0.0; blocks],
                ..Interval::default()
            },
        })
    }

    /// Builds the layers for `config` and loads a captured simulator state
    /// into them, as `Simulator::restore_state` does for an Exact state.
    ///
    /// # Errors
    ///
    /// Returns a message if `config` is invalid, the state does not fit
    /// it, or the state was captured by the interval engine.
    pub fn from_state(config: SimConfig, state: &SimulatorState) -> Result<Self, String> {
        if config.fidelity != Fidelity::Exact || state.fast.extra_cycles != 0 {
            return Err("the replica restores Exact states only".to_string());
        }
        let mut replica = Replica::new(config)?;
        let decode = |bits: &[u64]| bits.iter().map(|b| f64::from_bits(*b)).collect::<Vec<_>>();
        replica.core.restore(&state.core)?;
        replica.thermal.restore_node_temperatures(&decode(&state.thermal_node_bits))?;
        replica.manager.restore(&state.manager);
        replica.temp_sum = decode(&state.temp_sum_bits);
        replica.temp_max = decode(&state.temp_max_bits);
        if replica.temp_sum.len() != replica.watts.len() {
            return Err("temperature statistics do not fit the floorplan".to_string());
        }
        replica.temp_samples = state.temp_samples;
        replica.warmed = state.warmed;
        Ok(replica)
    }

    /// The power vector of the last detailed window.
    #[must_use]
    pub fn last_watts(&self) -> &[f64] {
        &self.watts
    }

    /// Runs `cycles` cycles of the configured fidelity, adding span times
    /// and counts to `spans`.
    pub fn run<T: TraceSource>(&mut self, trace: &mut T, cycles: u64, spans: &mut Spans) {
        let start = Instant::now();
        let actions_before = self.actions();
        let mut counting = Counting { inner: trace, ops: 0, skip_calls: 0, skipped: 0 };
        let virtual_before = self.core.stats().cycles + self.interval.extra_cycles;
        match self.config.fidelity {
            Fidelity::Exact => self.run_exact(&mut counting, cycles, spans),
            Fidelity::Fast => self.run_fast(&mut counting, cycles, spans),
        }
        spans.ops += counting.ops;
        spans.skip_calls += counting.skip_calls;
        spans.skipped_ops += counting.skipped;
        spans.virtual_cycles +=
            self.core.stats().cycles + self.interval.extra_cycles - virtual_before;
        spans.actions += self.actions() - actions_before;
        spans.wall_ns += start.elapsed().as_nanos() as u64;
    }

    fn actions(&self) -> u64 {
        let s = self.manager.stats();
        s.toggles + s.alu_turnoffs + s.rf_turnoffs + s.freezes + s.opp_transitions + s.duty_shifts
    }

    fn run_exact<T: TraceSource>(&mut self, trace: &mut T, cycles: u64, spans: &mut Spans) {
        let mut elapsed = 0u64;
        while elapsed < cycles && !self.core.is_done() {
            let window = self.config.sample_interval.min(cycles - elapsed);
            elapsed += self.run_window(trace, window, spans);
            self.sample(spans);
        }
    }

    fn run_fast<T: TraceSource>(&mut self, trace: &mut T, cycles: u64, spans: &mut Spans) {
        let stretch = self.config.fast_window / self.config.sample_interval;
        let mut elapsed = 0u64;
        while elapsed < cycles && !self.core.is_done() {
            let sub = self.config.sample_interval.min(cycles - elapsed);
            let in_prefix = self.interval.prefix_left > 0;
            if in_prefix || self.interval.window_pos == 0 {
                let before = *self.core.stats();
                elapsed += self.run_window(trace, sub, spans);
                self.sample(spans);
                let mut t = Instant::now();
                self.record_window(&before);
                spans.core_ns += lap(&mut t);
            } else {
                elapsed += sub;
                self.skip_window(trace, sub, spans);
            }
            let mut t = Instant::now();
            if in_prefix {
                self.interval.prefix_left = self.interval.prefix_left.saturating_sub(sub);
            } else {
                self.interval.window_pos = (self.interval.window_pos + 1) % stretch;
            }
            spans.core_ns += lap(&mut t);
        }
    }

    /// `Simulator::run_window`: up to `window` core cycles.
    fn run_window<T: TraceSource>(&mut self, trace: &mut T, window: u64, spans: &mut Spans) -> u64 {
        let mut t = Instant::now();
        let mut ran = 0u64;
        for _ in 0..window {
            self.core.cycle(trace);
            ran += 1;
            if self.core.is_done() {
                break;
            }
        }
        spans.uarch_ns += lap(&mut t);
        spans.detailed_cycles += ran;
        ran
    }

    /// `Simulator::sample` with the manager consulted.
    fn sample(&mut self, spans: &mut Spans) {
        let mut t = Instant::now();
        let activity = self.core.take_activity();
        spans.uarch_ns += lap(&mut t);
        if activity.cycles == 0 {
            return;
        }
        spans.windows += 1;
        spans.detailed_windows += 1;
        self.interval.int_iq = activity.int_iq;
        self.interval.fp_iq = activity.fp_iq;
        let scale = self.manager.dynamic_power_scale();
        spans.mitigation_ns += lap(&mut t);
        if scale == 1.0 {
            self.power.block_power_into(&activity, &mut self.watts);
        } else {
            self.power.block_power_scaled_into(&activity, scale, &mut self.watts);
        }
        spans.power_ns += lap(&mut t);
        let dt = activity.cycles as f64 / self.config.frequency_hz;
        let settled = self.config.warm_start && !self.warmed;
        if settled {
            self.warmed = true;
            self.thermal.settle(&self.watts);
        } else {
            self.thermal.step(&self.watts, dt);
        }
        spans.thermal_ns += lap(&mut t);
        let was_frozen = self.core.is_frozen();
        let now = self.virtual_now();
        self.manager.on_sample(
            &mut self.core,
            self.thermal.temperatures(),
            now,
            &activity.int_iq,
            &activity.fp_iq,
        );
        spans.mitigation_ns += lap(&mut t);
        self.sample_stats(was_frozen);
        spans.core_ns += lap(&mut t);
    }

    /// `Simulator::fast_record_window`: the extrapolation basis.
    fn record_window(&mut self, before: &CoreStats) {
        let first_sample = self.interval.sample_cycles == 0;
        let after = self.core.stats();
        let iv = &mut self.interval;
        iv.sample_cycles = after.cycles - before.cycles;
        iv.sample_committed = after.committed - before.committed;
        iv.sample_fetched = after.fetched - before.fetched;
        iv.sample_frozen = after.frozen_cycles - before.frozen_cycles;
        iv.sample_throttled = after.throttled_cycles - before.throttled_cycles;
        iv.sample_fetch_gated = after.fetch_gated_cycles - before.fetch_gated_cycles;
        if first_sample {
            iv.window_watts.copy_from_slice(&self.watts);
        } else {
            for (held, w) in iv.window_watts.iter_mut().zip(&self.watts) {
                *held = 0.5 * *held + 0.5 * w;
            }
        }
    }

    /// One analytically skipped sub-interval: `fast_skip_advance`, the
    /// consult on held activity, and the statistics.
    fn skip_window<T: TraceSource>(&mut self, trace: &mut T, sub: u64, spans: &mut Spans) {
        spans.windows += 1;
        let mut t = Instant::now();
        let dt = sub as f64 / self.config.frequency_hz;
        let frozen = self.core.is_frozen();
        if frozen {
            self.thermal.advance(&self.idle_watts, dt);
            spans.thermal_ns += lap(&mut t);
            self.interval.extra_cycles += sub;
            self.interval.extra_frozen += sub;
        } else {
            self.thermal.advance(&self.interval.window_watts, dt);
            spans.thermal_ns += lap(&mut t);
            let iv = &mut self.interval;
            iv.extra_cycles += sub;
            let len = iv.sample_cycles;
            let skip = scaled(iv.sample_fetched, sub, len);
            spans.core_ns += lap(&mut t);
            trace.skip_ops(skip);
            spans.skip_ns += lap(&mut t);
            let iv = &mut self.interval;
            iv.extra_committed += scaled(iv.sample_committed, sub, len);
            iv.extra_frozen += scaled(iv.sample_frozen, sub, len);
            iv.extra_throttled += scaled(iv.sample_throttled, sub, len);
            iv.extra_fetch_gated += scaled(iv.sample_fetch_gated, sub, len);
        }
        spans.core_ns += lap(&mut t);
        let now = self.virtual_now();
        let (int_iq, fp_iq) = (self.interval.int_iq, self.interval.fp_iq);
        self.manager.on_sample(&mut self.core, self.thermal.temperatures(), now, &int_iq, &fp_iq);
        spans.mitigation_ns += lap(&mut t);
        self.sample_stats(frozen);
        spans.core_ns += lap(&mut t);
    }

    /// `Simulator::sample_stats` without the optional history row.
    fn sample_stats(&mut self, was_frozen: bool) {
        if !was_frozen {
            for (sum, t) in self.temp_sum.iter_mut().zip(self.thermal.temperatures()) {
                *sum += t;
            }
            self.temp_samples += 1;
        }
        for (max, t) in self.temp_max.iter_mut().zip(self.thermal.temperatures()) {
            *max = max.max(*t);
        }
    }

    fn virtual_now(&self) -> u64 {
        self.core.stats().cycles + self.interval.extra_cycles
    }

    /// The accumulated results, assembled as `Simulator::result` does.
    #[must_use]
    pub fn result(&self) -> RunResult {
        let stats = self.core.stats();
        let mstats = self.manager.stats();
        let samples = self.temp_samples.max(1) as f64;
        let temperatures = self
            .plan
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| BlockTemperature {
                name: b.name.clone(),
                avg: if self.temp_samples == 0 {
                    self.thermal.temperature(i)
                } else {
                    self.temp_sum[i] / samples
                },
                max: if self.temp_max[i] == f64::MIN {
                    self.thermal.temperature(i)
                } else {
                    self.temp_max[i]
                },
                last: self.thermal.temperature(i),
            })
            .collect();
        let iv = &self.interval;
        let cycles = stats.cycles + iv.extra_cycles;
        let committed = stats.committed + iv.extra_committed;
        RunResult {
            cycles,
            committed,
            ipc: if cycles == 0 { 0.0 } else { committed as f64 / cycles as f64 },
            frozen_cycles: stats.frozen_cycles + iv.extra_frozen,
            toggles: mstats.toggles,
            alu_turnoffs: mstats.alu_turnoffs,
            rf_turnoffs: mstats.rf_turnoffs,
            freezes: mstats.freezes,
            opp_transitions: mstats.opp_transitions,
            duty_shifts: mstats.duty_shifts,
            throttled_cycles: stats.throttled_cycles + iv.extra_throttled,
            fetch_gated_cycles: stats.fetch_gated_cycles + iv.extra_fetch_gated,
            temperatures,
            int_issued_per_unit: stats.int_issued_per_unit,
            int_rf_reads: stats.int_rf_reads,
            mispredict_rate: self.core.bpred().mispredict_rate(),
            l1d_miss_rate: self.core.memory().l1d().miss_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance::experiments::{self, AluPolicy};
    use powerbalance::{spec2000, Simulator};

    fn both(config: SimConfig, bench: &str, cycles: u64) -> (RunResult, RunResult, Spans) {
        let profile = spec2000::by_name(bench).expect("known benchmark");
        let mut sim = Simulator::new(config.clone()).expect("valid config");
        let reference = sim.run(&mut profile.trace(3), cycles);
        let mut replica = Replica::new(config).expect("valid config");
        let mut spans = Spans::default();
        replica.run(&mut profile.trace(3), cycles, &mut spans);
        (reference, replica.result(), spans)
    }

    #[test]
    fn exact_replica_is_bit_identical() {
        let (reference, replica, spans) = both(experiments::issue_queue(true), "mesa", 60_000);
        assert_eq!(reference, replica);
        assert_eq!(spans.detailed_cycles, 60_000);
        assert_eq!(spans.windows, 6);
        assert!(spans.ops > 0 && spans.skip_calls == 0);
    }

    #[test]
    fn fast_replica_is_bit_identical() {
        let config = SimConfig {
            fidelity: Fidelity::Fast,
            fast_window: 40_000,
            fast_warmup: 20_000,
            ..experiments::alu(AluPolicy::FineGrainTurnoff)
        };
        let (reference, replica, spans) = both(config, "gzip", 300_000);
        assert_eq!(reference, replica);
        assert_eq!(spans.virtual_cycles, 300_000);
        assert!(spans.detailed_cycles < 150_000 && spans.skip_calls > 0);
    }

    #[test]
    fn restored_replica_continues_bit_identically() {
        let config = experiments::issue_queue(true);
        let profile = spec2000::by_name("gzip").expect("known benchmark");
        let mut sim = Simulator::new(config.clone()).expect("valid config");
        let mut trace = profile.trace(5);
        sim.run_warmup(&mut trace, 30_000);
        let state = sim.state();
        let mut replica_trace = trace.clone();
        let reference = sim.run(&mut trace, 40_000);
        let mut replica = Replica::from_state(config, &state).expect("state fits");
        replica.run(&mut replica_trace, 40_000, &mut Spans::default());
        assert_eq!(reference, replica.result());
    }
}
