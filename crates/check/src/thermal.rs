//! Thermal-solver invariants.
//!
//! The RC network is solved implicitly (backward Euler for transient
//! steps, a direct solve for the warm-start steady state), so the checker
//! can verify each solution *independently of the LU factorization* by
//! substituting it back into the discretized heat equation:
//!
//! * transient step: `(C_i/Δt)·(T⁺_i − T_i) + Σ_j G[i,j]·T⁺_j = P_i + A_i`
//! * steady state:   `Σ_j G[i,j]·T_j = P_i + A_i`
//!
//! where `A` is the ambient injection (nonzero only at the heat-sink
//! node). Residuals are compared against a row-scaled tolerance, so the
//! check is independent of the network's conductance magnitudes. On top
//! of the residuals: temperatures stay finite and inside physically
//! plausible bounds, and at steady state the package-level energy balance
//! holds — the heat leaving through the sink's convection conductance
//! equals the total power put in.

use crate::{Sink, ViolationKind};
use powerbalance_thermal::ThermalModel;

/// Relative residual tolerance. The LU solve is accurate to ~1e-13 of the
/// row scale; 1e-8 leaves real margin while still catching any genuine
/// solver or bookkeeping bug (a single swapped index shows up at ~1e-2).
const RESIDUAL_RTOL: f64 = 1e-8;

/// No block in a 358 K-limited processor plausibly reaches 500 K; beyond
/// it the simulation has diverged even if the algebra is consistent.
const MAX_PLAUSIBLE_TEMP: f64 = 500.0;

/// The thermal-layer invariant checker.
#[derive(Debug)]
pub(crate) struct ThermalWatch {
    /// Node temperatures before the step being verified.
    prev: Vec<f64>,
    /// Scratch: block power padded with zeros for spreader/sink nodes.
    power: Vec<f64>,
}

impl ThermalWatch {
    pub(crate) fn new(model: &ThermalModel) -> Self {
        ThermalWatch { prev: model.node_temperatures().to_vec(), power: Vec::new() }
    }

    /// Re-bases the watch on the model's current temperatures without
    /// checking anything. The interval engine moves the network with the
    /// closed-form [`ThermalModel::advance`] between detailed samples;
    /// that solution is verified by the thermal crate's property tests,
    /// not the backward-Euler residual, so the next transient step must
    /// be measured from the advanced state rather than the last checked
    /// one.
    pub(crate) fn resync(&mut self, model: &ThermalModel) {
        self.prev.copy_from_slice(model.node_temperatures());
    }

    /// Verifies the solve that just ran. `settled` means the model did a
    /// steady-state solve (warm start) instead of a transient step of `dt`
    /// seconds under `watts` per block.
    pub(crate) fn check(
        &mut self,
        model: &ThermalModel,
        watts: &[f64],
        dt: f64,
        settled: bool,
        now: u64,
        sink: &mut Sink,
    ) {
        let net = model.network();
        let n = net.node_count();
        let temps = model.node_temperatures();
        let ambient = net.ambient();

        for (i, &t) in temps.iter().enumerate() {
            if !t.is_finite() || t > MAX_PLAUSIBLE_TEMP {
                sink.report(
                    ViolationKind::Thermal,
                    now,
                    format!("node {i} temperature {t} is not physically plausible"),
                );
                // Residuals on non-finite data only cascade; stop here.
                self.prev.copy_from_slice(temps);
                return;
            }
        }
        for (i, &t) in temps.iter().take(model.block_count()).enumerate() {
            if t < ambient - 1e-6 {
                sink.report(
                    ViolationKind::Thermal,
                    now,
                    format!("block {i} at {t} K fell below the {ambient} K ambient"),
                );
            }
        }

        self.power.clear();
        self.power.extend_from_slice(watts);
        self.power.resize(n, 0.0);

        let g = net.conductance();
        let c = net.capacitance();
        let amb = net.ambient_power();
        for i in 0..n {
            let row = &g[i * n..(i + 1) * n];
            let conduct: f64 = row.iter().zip(temps).map(|(&gij, &tj)| gij * tj).sum();
            let row_scale: f64 =
                row.iter().zip(temps).map(|(&gij, &tj)| (gij * tj).abs()).sum::<f64>()
                    + self.power[i].abs()
                    + amb[i].abs()
                    + 1.0;
            let (residual, scale, label) = if settled {
                (conduct - self.power[i] - amb[i], row_scale, "steady-state")
            } else {
                let storage = c[i] / dt * (temps[i] - self.prev[i]);
                (
                    storage + conduct - self.power[i] - amb[i],
                    row_scale + (c[i] / dt * temps[i]).abs(),
                    "transient-step",
                )
            };
            if residual.abs() > RESIDUAL_RTOL * scale {
                sink.report(
                    ViolationKind::Thermal,
                    now,
                    format!(
                        "{label} residual at node {i} is {residual:.3e} \
                         (tolerance {:.3e}): solution does not satisfy the heat equation",
                        RESIDUAL_RTOL * scale
                    ),
                );
            }
        }

        if settled {
            // Package energy balance: all injected power leaves through
            // the sink-to-ambient convection conductance.
            let g_amb = amb[net.sink_index()] / ambient;
            let out = (temps[net.sink_index()] - ambient) * g_amb;
            let total: f64 = watts.iter().sum();
            if (out - total).abs() > RESIDUAL_RTOL * (total.abs() + 1.0) {
                sink.report(
                    ViolationKind::Thermal,
                    now,
                    format!(
                        "steady-state energy balance broken: {out:.6} W leaves the sink \
                         but {total:.6} W was injected"
                    ),
                );
            }
        }

        self.prev.copy_from_slice(temps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_thermal::{ev6, PackageConfig};

    fn model() -> ThermalModel {
        ThermalModel::new(&ev6::baseline(), PackageConfig::default())
    }

    #[test]
    fn transient_steps_satisfy_the_heat_equation() {
        let mut m = model();
        let mut watch = ThermalWatch::new(&m);
        let mut sink = Sink::default();
        let watts = vec![1.5; m.block_count()];
        for step in 0..5 {
            m.step(&watts, 2.5e-6);
            watch.check(&m, &watts, 2.5e-6, false, step, &mut sink);
        }
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn steady_state_satisfies_residual_and_energy_balance() {
        let mut m = model();
        let mut watch = ThermalWatch::new(&m);
        let mut sink = Sink::default();
        let watts = vec![2.0; m.block_count()];
        m.settle(&watts);
        watch.check(&m, &watts, 1.0, true, 0, &mut sink);
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn wrong_power_vector_breaks_the_residual() {
        let mut m = model();
        let mut watch = ThermalWatch::new(&m);
        let mut sink = Sink::default();
        let watts = vec![2.0; m.block_count()];
        m.step(&watts, 2.5e-6);
        // Claim the step was driven by different power than it was: the
        // substituted residual cannot balance.
        let wrong = vec![4.0; m.block_count()];
        watch.check(&m, &wrong, 2.5e-6, false, 0, &mut sink);
        assert!(!sink.violations.is_empty(), "inconsistent power must be flagged");
    }

    #[test]
    fn tampered_temperature_breaks_the_residual() {
        let mut m = model();
        let mut watch = ThermalWatch::new(&m);
        let mut sink = Sink::default();
        let watts = vec![2.0; m.block_count()];
        m.settle(&watts);
        let mut temps = m.node_temperatures().to_vec();
        temps[0] += 0.5;
        m.restore_node_temperatures(&temps).expect("same node count");
        watch.check(&m, &watts, 1.0, true, 0, &mut sink);
        assert!(!sink.violations.is_empty(), "tampered solution must be flagged");
    }
}
