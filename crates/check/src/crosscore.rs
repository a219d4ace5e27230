//! Cross-core thermal invariants for multi-core dies.
//!
//! A multi-core floorplan is N translated copies of the per-core block
//! layout with lateral RC coupling between adjacent copies. Two
//! invariants make that coupling mechanically falsifiable:
//!
//! * **Per-core energy balance.** For a symmetric Laplacian `G`, summing
//!   the backward-Euler rows over the nodes of one core makes every
//!   intra-core conduction term cancel pairwise, leaving the exact
//!   identity
//!
//!   `Σ_{i∈c} (P_i + A_i)  =  Σ_{i∈c} (C_i/Δt)·(T⁺_i − T_i)  +  F_c`
//!
//!   where `F_c = Σ_{i∈c, j∉c} g_ij·(T⁺_i − T⁺_j)` is the heat flowing
//!   out of core `c` into its neighbors and the package. The same
//!   identity with the storage term dropped holds for the steady-state
//!   solve. Any bookkeeping bug that misattributes power or temperature
//!   between cores breaks it at ~1e-2 relative, far above the LU solve's
//!   ~1e-13 noise floor.
//!
//! * **Lateral-coupling antisymmetry.** The heat flow from core A into
//!   core B, computed from A's own matrix rows, must equal the negation
//!   of the B→A flow computed independently from B's rows:
//!   `F(A→B) = −F(B→A)`. With a bitwise-symmetric `G` the per-edge terms
//!   are exact IEEE negations of each other, so the check runs at a tiny
//!   relative tolerance; an asymmetric stamp (one swapped index in the
//!   replication) shows up immediately.

use crate::{Sink, ViolationKind};
use powerbalance_thermal::ThermalModel;

/// Relative tolerance for the per-core energy balance: same rationale as
/// the node-level residual check (LU noise ~1e-13 of the row scale).
const BALANCE_RTOL: f64 = 1e-8;

/// Relative tolerance for flow antisymmetry. The two directions are
/// computed as exact IEEE negations when `G` is bitwise symmetric, so
/// this only has to absorb summation-order noise.
const SYMMETRY_RTOL: f64 = 1e-12;

/// The cross-core invariant checker. Armed only on multi-core dies.
#[derive(Debug)]
pub(crate) struct CrossCoreWatch {
    cores: usize,
    /// Floorplan blocks per core; node `i` belongs to core `i / blocks`
    /// when `i < cores * blocks`, otherwise to the package.
    blocks: usize,
    /// Node temperatures before the step being verified (the watch keeps
    /// its own copy so it stays independent of [`super::thermal`]).
    prev: Vec<f64>,
}

impl CrossCoreWatch {
    /// Builds the watch and checks the static matrix properties once:
    /// every cross-core conductance entry must be symmetric
    /// (`G[i,j] == G[j,i]`) and non-positive (off-diagonal Laplacian).
    pub(crate) fn new(cores: usize, blocks: usize, model: &ThermalModel, sink: &mut Sink) -> Self {
        let net = model.network();
        let n = net.node_count();
        let g = net.conductance();
        for i in 0..cores * blocks {
            for j in (i + 1)..cores * blocks {
                if i / blocks == j / blocks {
                    continue;
                }
                let gij = g[i * n + j];
                let gji = g[j * n + i];
                if gij.to_bits() != gji.to_bits() {
                    sink.report(
                        ViolationKind::CrossCoreEnergy,
                        0,
                        format!(
                            "cross-core conductance is asymmetric: G[{i},{j}] = {gij:e} \
                             but G[{j},{i}] = {gji:e}"
                        ),
                    );
                }
                if gij > 0.0 {
                    sink.report(
                        ViolationKind::CrossCoreEnergy,
                        0,
                        format!("cross-core conductance G[{i},{j}] = {gij:e} is positive"),
                    );
                }
            }
        }
        CrossCoreWatch { cores, blocks, prev: model.node_temperatures().to_vec() }
    }

    /// Re-bases on the model's current state (closed-form advances are
    /// outside the backward-Euler identity's reach).
    pub(crate) fn resync(&mut self, model: &ThermalModel) {
        self.prev.copy_from_slice(model.node_temperatures());
    }

    /// Heat flow out of the node set `lo..hi` into every node outside it,
    /// evaluated at `temps` using the rows of the nodes inside the set.
    fn outflow(g: &[f64], n: usize, temps: &[f64], lo: usize, hi: usize) -> f64 {
        let mut flow = 0.0;
        for i in lo..hi {
            let row = &g[i * n..(i + 1) * n];
            for (j, (&gij, &tj)) in row.iter().zip(temps).enumerate() {
                if j >= lo && j < hi {
                    continue;
                }
                // Off-diagonal Laplacian entries are −g_ij.
                flow += -gij * (temps[i] - tj);
            }
        }
        flow
    }

    /// Verifies the solve that just ran against the per-core energy
    /// balance and the pairwise flow antisymmetry. Mirrors the calling
    /// convention of the node-level thermal watch.
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
        let g = net.conductance();
        let c = net.capacitance();
        let amb = net.ambient_power();

        for core in 0..self.cores {
            let lo = core * self.blocks;
            let hi = lo + self.blocks;
            let injected: f64 =
                (lo..hi).map(|i| watts.get(i).copied().unwrap_or(0.0) + amb[i]).sum();
            let stored: f64 = if settled {
                0.0
            } else {
                (lo..hi).map(|i| c[i] / dt * (temps[i] - self.prev[i])).sum()
            };
            let flow = Self::outflow(g, n, temps, lo, hi);
            let residual = injected - stored - flow;
            let scale = injected.abs() + stored.abs() + flow.abs() + 1.0;
            if residual.abs() > BALANCE_RTOL * scale {
                sink.report(
                    ViolationKind::CrossCoreEnergy,
                    now,
                    format!(
                        "core {core} energy balance broken: {injected:.6} W injected, \
                         {stored:.6} W stored, {flow:.6} W flowed out \
                         (residual {residual:.3e}, tolerance {:.3e})",
                        BALANCE_RTOL * scale
                    ),
                );
            }
        }

        // Pairwise lateral flow must be antisymmetric: the A→B flow from
        // A's rows is the exact negation of the B→A flow from B's rows.
        for a in 0..self.cores {
            for b in (a + 1)..self.cores {
                let fwd = self.pair_flow(g, n, temps, a, b);
                let rev = self.pair_flow(g, n, temps, b, a);
                let scale = fwd.abs() + rev.abs() + 1.0;
                if (fwd + rev).abs() > SYMMETRY_RTOL * scale {
                    sink.report(
                        ViolationKind::CrossCoreEnergy,
                        now,
                        format!(
                            "lateral coupling is not antisymmetric: flow {a}→{b} is \
                             {fwd:e} W but {b}→{a} is {rev:e} W"
                        ),
                    );
                }
            }
        }

        self.prev.copy_from_slice(temps);
    }

    /// Heat flow from core `a` into core `b`, using core `a`'s rows.
    fn pair_flow(&self, g: &[f64], n: usize, temps: &[f64], a: usize, b: usize) -> f64 {
        let (alo, blo) = (a * self.blocks, b * self.blocks);
        let mut flow = 0.0;
        for i in alo..alo + self.blocks {
            let row = &g[i * n..(i + 1) * n];
            for j in blo..blo + self.blocks {
                flow += -row[j] * (temps[i] - temps[j]);
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_thermal::{ev6, multicore, PackageConfig};

    fn die(cores: usize) -> (ThermalModel, usize) {
        let base = ev6::baseline();
        let blocks = base.blocks().len();
        let plan = multicore::replicate(&base, cores);
        (ThermalModel::new(&plan, PackageConfig::default()), blocks)
    }

    #[test]
    fn honest_steps_balance_per_core() {
        let (mut m, blocks) = die(3);
        let mut sink = Sink::default();
        let mut watch = CrossCoreWatch::new(3, blocks, &m, &mut sink);
        // Asymmetric load: core 0 hot, core 2 idle — real lateral flow.
        let mut watts = vec![0.1; m.block_count()];
        for w in watts.iter_mut().take(blocks) {
            *w = 3.0;
        }
        for step in 0..6 {
            m.step(&watts, 2.5e-6);
            watch.check(&m, &watts, 2.5e-6, false, step, &mut sink);
        }
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn steady_state_balances_per_core() {
        let (mut m, blocks) = die(2);
        let mut sink = Sink::default();
        let mut watch = CrossCoreWatch::new(2, blocks, &m, &mut sink);
        let mut watts = vec![0.5; m.block_count()];
        for w in watts.iter_mut().take(blocks) {
            *w = 2.5;
        }
        m.settle(&watts);
        watch.check(&m, &watts, 1.0, true, 0, &mut sink);
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }

    #[test]
    fn misattributed_power_breaks_a_core_balance() {
        let (mut m, blocks) = die(2);
        let mut sink = Sink::default();
        let mut watch = CrossCoreWatch::new(2, blocks, &m, &mut sink);
        let watts = vec![1.0; m.block_count()];
        m.step(&watts, 2.5e-6);
        // Claim core 1's power went to core 0: per-core balances must
        // break even though the *total* (package-level) balance holds.
        let mut wrong = watts.clone();
        for i in 0..blocks {
            wrong[i] += wrong[blocks + i];
            wrong[blocks + i] = 0.0;
        }
        watch.check(&m, &wrong, 2.5e-6, false, 0, &mut sink);
        assert!(
            sink.violations.iter().any(|v| v.kind == ViolationKind::CrossCoreEnergy),
            "misattributed power must break the per-core balance"
        );
    }

    #[test]
    fn tampered_cross_core_temperature_is_flagged() {
        let (mut m, blocks) = die(2);
        let mut sink = Sink::default();
        let mut watch = CrossCoreWatch::new(2, blocks, &m, &mut sink);
        let watts = vec![1.0; m.block_count()];
        m.step(&watts, 2.5e-6);
        let mut temps = m.node_temperatures().to_vec();
        temps[blocks] += 0.25; // first block of core 1
        m.restore_node_temperatures(&temps).expect("same node count");
        watch.check(&m, &watts, 2.5e-6, false, 0, &mut sink);
        assert!(!sink.violations.is_empty(), "tampered neighbor temperature must be flagged");
    }

    #[test]
    fn single_core_die_trivially_passes() {
        let (mut m, blocks) = die(1);
        let mut sink = Sink::default();
        let mut watch = CrossCoreWatch::new(1, blocks, &m, &mut sink);
        let watts = vec![1.5; m.block_count()];
        m.step(&watts, 2.5e-6);
        watch.check(&m, &watts, 2.5e-6, false, 0, &mut sink);
        assert!(sink.violations.is_empty(), "violations: {:?}", sink.violations);
    }
}
