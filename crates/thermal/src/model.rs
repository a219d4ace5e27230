//! Transient thermal integration.

use crate::linalg::LuFactors;
use crate::{Floorplan, PackageConfig, ThermalNetwork};

/// A transient thermal simulation over a floorplan.
///
/// Integration uses backward (implicit) Euler:
/// `(C/Δt + G) · T⁺ = (C/Δt) · T + P`, which is unconditionally stable, so
/// one step per sampling window suffices no matter how stiff the network.
/// The factorization of `(C/Δt + G)` is cached per Δt.
///
/// # Examples
///
/// ```
/// use powerbalance_thermal::{ev6, PackageConfig, ThermalModel};
///
/// let plan = ev6::baseline();
/// let mut model = ThermalModel::new(&plan, PackageConfig::default());
/// let mut watts = vec![0.2; plan.blocks().len()];
/// watts[plan.index_of("IntExec0").unwrap()] = 3.0; // one hot ALU
/// for _ in 0..200 {
///     model.step(&watts, 1e-4);
/// }
/// let hot = model.temperature(plan.index_of("IntExec0").unwrap());
/// let cool = model.temperature(plan.index_of("IntExec5").unwrap());
/// assert!(hot > cool + 1.0, "overdriven block must run hotter");
/// ```
#[derive(Debug, Clone)]
pub struct ThermalModel {
    network: ThermalNetwork,
    temps: Vec<f64>,
    block_count: usize,
    cached_dt: f64,
    cached_lu: Option<LuFactors>,
    /// Right-hand-side scratch for [`step`](Self::step); persistent so the
    /// per-window solve allocates nothing.
    rhs: Vec<f64>,
    /// Solution scratch for [`step`](Self::step), swapped with `temps`
    /// after each solve.
    solution: Vec<f64>,
    /// Factors of the bare conductance matrix `G`, shared by
    /// [`settle`](Self::settle) and [`advance`](Self::advance).
    steady_lu: Option<LuFactors>,
    /// Δt the cached propagator was built for.
    advance_dt: f64,
    /// Homogeneous-response propagator `Φ(Δt)` for [`advance`](Self::advance),
    /// row-major `n × n`.
    advance_phi: Option<Vec<f64>>,
    /// Steady-state scratch for [`advance`](Self::advance).
    steady: Vec<f64>,
    /// Deviation-from-steady scratch for [`advance`](Self::advance).
    deviation: Vec<f64>,
}

impl ThermalModel {
    /// Builds a model with every node at the ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics if `package` fails validation.
    #[must_use]
    pub fn new(plan: &Floorplan, package: PackageConfig) -> Self {
        let network = ThermalNetwork::new(plan, &package);
        let temps = vec![package.ambient; network.node_count()];
        ThermalModel {
            block_count: plan.blocks().len(),
            rhs: vec![0.0; network.node_count()],
            solution: vec![0.0; network.node_count()],
            steady: vec![0.0; network.node_count()],
            deviation: vec![0.0; network.node_count()],
            network,
            temps,
            cached_dt: 0.0,
            cached_lu: None,
            steady_lu: None,
            advance_dt: 0.0,
            advance_phi: None,
        }
    }

    /// Number of floorplan blocks (power vector length for [`step`]).
    ///
    /// [`step`]: ThermalModel::step
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &ThermalNetwork {
        &self.network
    }

    /// Current temperature (K) of block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn temperature(&self, index: usize) -> f64 {
        assert!(index < self.block_count, "block index out of range");
        self.temps[index]
    }

    /// Temperatures of all blocks.
    #[must_use]
    pub fn temperatures(&self) -> &[f64] {
        &self.temps[..self.block_count]
    }

    /// Index of the hottest block.
    #[must_use]
    pub fn hottest_block(&self) -> usize {
        self.temperatures()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("temps are finite"))
            .map(|(i, _)| i)
            .expect("at least one block")
    }

    /// Temperatures of **all** RC nodes, including the internal package
    /// nodes behind the floorplan blocks.
    ///
    /// [`temperatures`](Self::temperatures) exposes only the block prefix;
    /// snapshot/restore needs the full state vector so a resumed model
    /// continues the exact transient, not just the surface temperatures.
    #[must_use]
    pub fn node_temperatures(&self) -> &[f64] {
        &self.temps
    }

    /// Overwrites the full node-temperature vector (the inverse of
    /// [`node_temperatures`](Self::node_temperatures)).
    ///
    /// The cached LU factorization is left alone: it depends only on the
    /// network and Δt, not on the temperatures.
    ///
    /// # Errors
    ///
    /// Returns an error if `temps` does not have one entry per RC node.
    pub fn restore_node_temperatures(&mut self, temps: &[f64]) -> Result<(), String> {
        if temps.len() != self.temps.len() {
            return Err(format!(
                "thermal state has {} node temperatures, model has {} nodes",
                temps.len(),
                self.temps.len()
            ));
        }
        self.temps.copy_from_slice(temps);
        Ok(())
    }

    /// Advances the model by `dt` seconds with `watts[i]` dissipated in
    /// block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `watts.len() != block_count` or `dt <= 0`.
    pub fn step(&mut self, watts: &[f64], dt: f64) {
        assert_eq!(watts.len(), self.block_count, "one power entry per block");
        assert!(dt > 0.0, "dt must be positive");
        let n = self.network.node_count();
        self.ensure_step_lu(dt);

        let c = self.network.capacitance();
        let ambient_power = self.network.ambient_power();
        for i in 0..n {
            self.rhs[i] = c[i] / dt * self.temps[i] + ambient_power[i];
        }
        for (i, w) in watts.iter().enumerate() {
            self.rhs[i] += w;
        }
        let lu = self.cached_lu.as_ref().expect("factor computed above");
        lu.solve_into(&self.rhs, &mut self.solution);
        std::mem::swap(&mut self.temps, &mut self.solution);
    }

    /// Solves directly for the steady-state temperatures under constant
    /// `watts` and jumps the model there (useful for warm initialization).
    ///
    /// # Panics
    ///
    /// Panics if `watts.len() != block_count`.
    pub fn settle(&mut self, watts: &[f64]) {
        assert_eq!(watts.len(), self.block_count, "one power entry per block");
        self.ensure_steady_lu();
        let mut rhs = self.network.ambient_power().to_vec();
        for (i, w) in watts.iter().enumerate() {
            rhs[i] += w;
        }
        let lu = self.steady_lu.as_ref().expect("factored above");
        self.temps = lu.solve(&rhs);
    }

    /// Advances the model by `dt` seconds analytically, assuming `watts`
    /// is held constant over the whole interval.
    ///
    /// Where [`step`](Self::step) takes a single backward-Euler step of
    /// size `dt` (accurate only while `dt` is small against the network
    /// time constants), `advance` decomposes the response into the
    /// steady-state solution under `watts` plus a decaying deviation:
    /// `T(dt) = T_ss + Φ(dt) · (T(0) − T_ss)`. The propagator `Φ(dt)` is
    /// the backward-Euler sub-step operator `(C/h + G)⁻¹ · diag(C/h)`
    /// raised to the `2ᵏ`-th power by repeated squaring, with the sub-step
    /// `h = dt / 2ᵏ` chosen well below the fastest network time constant —
    /// so one `advance` is numerically equivalent to `2ᵏ` fine LU
    /// sub-steps at the cost of a single matrix-vector product.
    ///
    /// `Φ` is cached per `dt` (alongside the steady-state factors shared
    /// with [`settle`](Self::settle)); once the caches are warm, each call
    /// performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `watts.len() != block_count` or `dt <= 0`.
    pub fn advance(&mut self, watts: &[f64], dt: f64) {
        assert_eq!(watts.len(), self.block_count, "one power entry per block");
        assert!(dt > 0.0, "dt must be positive");
        let n = self.network.node_count();

        // Steady-state target under the held power: G · T_ss = P.
        self.ensure_steady_lu();
        self.rhs.copy_from_slice(self.network.ambient_power());
        for (i, w) in watts.iter().enumerate() {
            self.rhs[i] += w;
        }
        let lu = self.steady_lu.as_ref().expect("factored above");
        lu.solve_into(&self.rhs, &mut self.steady);

        if self.advance_phi.is_none() || (self.advance_dt - dt).abs() > 1e-18 {
            self.rebuild_propagator(dt);
        }
        let phi = self.advance_phi.as_ref().expect("built above");

        // T⁺ = T_ss + Φ · (T − T_ss).
        for i in 0..n {
            self.deviation[i] = self.temps[i] - self.steady[i];
        }
        for i in 0..n {
            let row = &phi[i * n..(i + 1) * n];
            let mut acc = 0.0;
            for (p, d) in row.iter().zip(&self.deviation) {
                acc += p * d;
            }
            self.solution[i] = self.steady[i] + acc;
        }
        std::mem::swap(&mut self.temps, &mut self.solution);
    }

    /// Ensures the backward-Euler factorization for `dt` is cached, and
    /// returns it. Shared by [`step`](Self::step) and the batched
    /// [`BatchThermalSolver::step_many`], so both paths factor the exact
    /// same matrix with the exact same code.
    fn ensure_step_lu(&mut self, dt: f64) -> &LuFactors {
        let n = self.network.node_count();
        if self.cached_lu.is_none() || (self.cached_dt - dt).abs() > 1e-18 {
            let g = self.network.conductance();
            let c = self.network.capacitance();
            let mut a = g.to_vec();
            for i in 0..n {
                a[i * n + i] += c[i] / dt;
            }
            self.cached_lu = Some(LuFactors::factor(a, n).expect("network matrix is SPD"));
            self.cached_dt = dt;
        }
        self.cached_lu.as_ref().expect("factor computed above")
    }

    fn ensure_steady_lu(&mut self) {
        if self.steady_lu.is_none() {
            let n = self.network.node_count();
            self.steady_lu = Some(
                LuFactors::factor(self.network.conductance().to_vec(), n)
                    .expect("grounded Laplacian is non-singular"),
            );
        }
    }

    /// Rebuilds the cached propagator `Φ(dt) = M^(2ᵏ)` where
    /// `M = (C/h + G)⁻¹ · diag(C/h)` and `h = dt / 2ᵏ`.
    ///
    /// `M` is entrywise nonnegative with row sums ≤ 1 (it is one implicit
    /// Euler step of a grounded RC network), so the same holds for every
    /// power of it: deviations from steady state can only shrink, never
    /// overshoot or oscillate.
    fn rebuild_propagator(&mut self, dt: f64) {
        let n = self.network.node_count();
        let g = self.network.conductance();
        let c = self.network.capacitance();

        // Pick k so the sub-step resolves the fastest node time constant
        // (h · max(Gᵢᵢ/Cᵢ) ≤ 1/64), capped to keep the squaring bounded.
        let rate = (0..n).map(|i| g[i * n + i] / c[i]).fold(0.0f64, f64::max);
        let mut h = dt;
        let mut k = 0u32;
        while k < 40 && h * rate > 1.0 / 64.0 {
            h *= 0.5;
            k += 1;
        }

        let mut a = g.to_vec();
        for i in 0..n {
            a[i * n + i] += c[i] / h;
        }
        let lu = LuFactors::factor(a, n).expect("network matrix is SPD");

        // Column j of M solves (C/h + G) x = (cⱼ/h) eⱼ.
        let mut m = vec![0.0; n * n];
        let mut basis = vec![0.0; n];
        let mut column = vec![0.0; n];
        for j in 0..n {
            basis[j] = c[j] / h;
            lu.solve_into(&basis, &mut column);
            basis[j] = 0.0;
            for i in 0..n {
                m[i * n + j] = column[i];
            }
        }

        // Φ = M^(2ᵏ) by repeated squaring.
        let mut square = vec![0.0; n * n];
        for _ in 0..k {
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0.0;
                    for l in 0..n {
                        acc += m[i * n + l] * m[l * n + j];
                    }
                    square[i * n + j] = acc;
                }
            }
            std::mem::swap(&mut m, &mut square);
        }

        self.advance_phi = Some(m);
        self.advance_dt = dt;
    }
}

/// Structure-of-arrays driver for stepping several [`ThermalModel`]s that
/// share one network (same floorplan and package) under a single LU
/// factorization.
///
/// Factoring `(C/Δt + G)` once and solving all K right-hand sides through
/// [`LuFactors::solve_many_into`] turns K dense solves into one
/// factorization plus a lane-vectorized substitution. Every lane performs
/// the scalar code's exact operation sequence, so each model's
/// temperatures are **bit-identical** to what its own
/// [`ThermalModel::step`] would have produced.
///
/// The solver owns the lane-major scratch, so repeated solves allocate
/// nothing.
#[derive(Debug, Default)]
pub struct BatchThermalSolver {
    /// Lane-major right-hand sides: entry `node * k + lane`.
    rhs: Vec<f64>,
    /// Lane-major solutions, scattered back into each model's `temps`.
    x: Vec<f64>,
}

impl BatchThermalSolver {
    /// A solver with empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchThermalSolver::default()
    }

    /// Checks the lanes share one network shape and returns
    /// `(node_count, k)`. Full matrix equality is a debug assertion: the
    /// caller's eligibility rules (same floorplan + package) guarantee it,
    /// and the O(n²k) compare is too hot for release windows.
    fn check_lanes(lanes: &[(&mut ThermalModel, &[f64])]) -> (usize, usize) {
        let Some((first, _)) = lanes.first() else {
            return (0, 0);
        };
        let n = first.network.node_count();
        for (model, watts) in lanes {
            assert_eq!(model.network.node_count(), n, "lanes must share the network shape");
            assert_eq!(watts.len(), model.block_count, "one power entry per block");
            debug_assert_eq!(
                model.network.conductance(),
                first.network.conductance(),
                "lanes must share one conductance matrix"
            );
            debug_assert_eq!(
                model.network.capacitance(),
                first.network.capacitance(),
                "lanes must share one capacitance vector"
            );
        }
        (n, lanes.len())
    }

    /// Advances every `(model, watts)` lane by `dt` seconds, exactly as
    /// `model.step(watts, dt)` would, sharing the first lane's
    /// factorization.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, a power vector is the wrong length, or the
    /// lanes disagree on the network shape.
    pub fn step_many(&mut self, lanes: &mut [(&mut ThermalModel, &[f64])], dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        let (n, k) = Self::check_lanes(lanes);
        if k <= 1 {
            // One lane is the scalar path; keep its own cache warm.
            if let Some((model, watts)) = lanes.first_mut() {
                model.step(watts, dt);
            }
            return;
        }
        self.rhs.resize(n * k, 0.0);
        self.x.resize(n * k, 0.0);
        for (lane, (model, watts)) in lanes.iter().enumerate() {
            let c = model.network.capacitance();
            let ambient_power = model.network.ambient_power();
            for i in 0..n {
                self.rhs[i * k + lane] = c[i] / dt * model.temps[i] + ambient_power[i];
            }
            for (i, w) in watts.iter().enumerate() {
                self.rhs[i * k + lane] += w;
            }
        }
        let lu = lanes[0].0.ensure_step_lu(dt);
        lu.solve_many_into(&self.rhs, &mut self.x, k);
        self.scatter(lanes, n, k);
    }

    /// Writes the lane-major solutions back into each model.
    fn scatter(&self, lanes: &mut [(&mut ThermalModel, &[f64])], n: usize, k: usize) {
        for (lane, (model, _)) in lanes.iter_mut().enumerate() {
            for i in 0..n {
                model.temps[i] = self.x[i * k + lane];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Floorplan;

    fn plan() -> Floorplan {
        Floorplan::from_rows(
            4e-3,
            &[
                (1e-3, vec![("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)]),
                (1e-3, vec![("e", 1.0)]),
            ],
        )
    }

    fn model() -> ThermalModel {
        ThermalModel::new(&plan(), PackageConfig::default())
    }

    #[test]
    fn starts_at_ambient() {
        let m = model();
        for &t in m.temperatures() {
            assert!((t - 318.0).abs() < 1e-12);
        }
    }

    #[test]
    fn no_power_stays_at_ambient() {
        let mut m = model();
        let zeros = vec![0.0; 5];
        for _ in 0..100 {
            m.step(&zeros, 1e-3);
        }
        for &t in m.temperatures() {
            assert!((t - 318.0).abs() < 1e-6, "{t}");
        }
    }

    #[test]
    fn heating_is_monotone_toward_steady_state() {
        let mut m = model();
        let watts = vec![1.0; 5];
        let mut prev = m.temperature(0);
        for _ in 0..50 {
            m.step(&watts, 1e-3);
            let t = m.temperature(0);
            assert!(t >= prev - 1e-12, "heating must be monotone");
            prev = t;
        }
        assert!(prev > 318.5, "blocks should have warmed");

        let mut settled = model();
        settled.settle(&watts);
        // Long transient approaches the direct steady solution.
        for _ in 0..100_000 {
            m.step(&watts, 1e-2);
        }
        assert!(
            (m.temperature(0) - settled.temperature(0)).abs() < 0.01,
            "transient must converge to steady state: {} vs {}",
            m.temperature(0),
            settled.temperature(0)
        );
    }

    #[test]
    fn hot_block_is_hotter_than_idle_neighbours() {
        let mut m = model();
        let mut watts = vec![0.1; 5];
        watts[1] = 2.0; // block b overdriven
        for _ in 0..500 {
            m.step(&watts, 1e-4);
        }
        let hot = m.temperature(1);
        assert_eq!(m.hottest_block(), 1);
        for i in [0usize, 2, 3] {
            assert!(hot > m.temperature(i) + 0.5, "asymmetry must persist laterally");
        }
    }

    #[test]
    fn cooling_follows_power_removal() {
        let mut m = model();
        let watts = vec![2.0; 5];
        for _ in 0..200 {
            m.step(&watts, 1e-3);
        }
        let hot = m.temperature(0);
        let zeros = vec![0.0; 5];
        for _ in 0..200 {
            m.step(&zeros, 1e-3);
        }
        assert!(m.temperature(0) < hot - 0.5, "block must cool after power drops");
    }

    #[test]
    fn big_step_is_stable() {
        // Backward Euler must not oscillate or blow up with huge dt.
        let mut m = model();
        let watts = vec![5.0; 5];
        m.step(&watts, 1e3);
        for &t in m.temperatures() {
            assert!(t.is_finite() && t > 318.0 && t < 1000.0, "stable result, got {t}");
        }
    }

    #[test]
    fn settle_matches_power_balance() {
        // In steady state, total heat leaving via convection equals total
        // injected power.
        let mut m = model();
        let watts = vec![1.5, 0.5, 0.0, 0.25, 2.0];
        m.settle(&watts);
        let total: f64 = watts.iter().sum();
        let sink_t = m.temps[m.network.sink_index()];
        let out = (sink_t - 318.0) / 0.8;
        assert!((out - total).abs() < 1e-6, "energy balance: {out} vs {total}");
    }

    #[test]
    fn restore_node_temperatures_round_trips_the_transient() {
        let mut m = model();
        let watts = vec![1.0, 0.0, 2.0, 0.5, 0.0];
        for _ in 0..50 {
            m.step(&watts, 1e-3);
        }
        let saved = m.node_temperatures().to_vec();

        // Keep stepping the original; a fresh model restored to the saved
        // state and stepped the same way must match bit for bit.
        let mut restored = model();
        restored.restore_node_temperatures(&saved).expect("same floorplan");
        for _ in 0..50 {
            m.step(&watts, 1e-3);
            restored.step(&watts, 1e-3);
        }
        assert_eq!(m.node_temperatures(), restored.node_temperatures());

        // Wrong node count is rejected.
        assert!(model().restore_node_temperatures(&saved[..3]).is_err());
    }

    #[test]
    fn changing_dt_mid_run_refactorizes() {
        // Model A steps [dt1, dt1, dt2]. Model B is restored to A's state
        // just before the dt2 step (so B's very first factorization uses
        // dt2). If the Δt change failed to invalidate A's cached LU, A
        // would integrate the dt2 step with the dt1 matrix and diverge
        // from B.
        let watts = vec![1.0, 2.0, 0.0, 0.5, 1.5];
        let (dt1, dt2) = (1e-3, 2.5e-4);

        let mut a = model();
        a.step(&watts, dt1);
        a.step(&watts, dt1);
        let pre_dt2 = a.node_temperatures().to_vec();
        a.step(&watts, dt2);

        let mut b = model();
        b.restore_node_temperatures(&pre_dt2).expect("same floorplan");
        b.step(&watts, dt2);

        assert_eq!(a.node_temperatures(), b.node_temperatures());

        // And switching back to dt1 refactorizes again.
        a.step(&watts, dt1);
        b.step(&watts, dt1);
        assert_eq!(a.node_temperatures(), b.node_temperatures());
    }

    #[test]
    fn advance_from_steady_state_is_a_fixed_point() {
        // settle() and advance() share the same steady-state factors, so a
        // model already at the steady state under `watts` must not move at
        // all — bit for bit, not just within tolerance.
        let mut m = model();
        let watts = vec![1.5, 0.5, 0.0, 0.25, 2.0];
        m.settle(&watts);
        let settled = m.node_temperatures().to_vec();
        m.advance(&watts, 1e-2);
        assert_eq!(m.node_temperatures(), settled.as_slice());
    }

    #[test]
    fn advance_tracks_fine_lu_substeps() {
        // One analytic advance over dt must agree with many fine backward-
        // Euler steps covering the same interval.
        let watts = vec![2.0, 0.0, 1.0, 0.5, 3.0];
        let mut fast = model();
        let mut fine = model();
        // Start from a non-trivial transient so the deviation term matters.
        for m in [&mut fast, &mut fine] {
            m.step(&[0.5, 3.0, 0.0, 0.0, 1.0], 1e-3);
        }
        let dt = 5e-3;
        let substeps = 4096;
        fast.advance(&watts, dt);
        for _ in 0..substeps {
            fine.step(&watts, dt / substeps as f64);
        }
        for (a, b) in fast.node_temperatures().iter().zip(fine.node_temperatures()) {
            assert!((a - b).abs() < 1e-3, "advance vs substeps: {a} vs {b}");
        }
    }

    #[test]
    fn advance_with_zero_power_decays_monotonically_to_ambient() {
        let mut m = model();
        let watts = vec![2.0; 5];
        for _ in 0..100 {
            m.step(&watts, 1e-3);
        }
        let zeros = vec![0.0; 5];
        let start: f64 =
            m.node_temperatures().iter().fold(0.0, |acc, t| acc.max((t - 318.0).abs()));
        let mut prev = start;
        for _ in 0..200 {
            m.advance(&zeros, 1e-3);
            let dev: f64 =
                m.node_temperatures().iter().fold(0.0, |acc, t| acc.max((t - 318.0).abs()));
            assert!(dev <= prev + 1e-12, "deviation must shrink: {dev} vs {prev}");
            prev = dev;
        }
        assert!(prev < start / 2.0, "decay must make real progress: {prev} of {start}");
        // And one macro-interval past every time constant finishes the job.
        m.advance(&zeros, 1e3);
        let residual: f64 =
            m.node_temperatures().iter().fold(0.0, |acc, t| acc.max((t - 318.0).abs()));
        assert!(residual < 1e-6, "long decay must land on ambient, residual {residual}");
    }

    #[test]
    fn advance_refactorizes_on_dt_change() {
        // Mirror of `changing_dt_mid_run_refactorizes` for the analytic
        // path: a fresh model restored just before the dt2 advance must
        // match the continuing model exactly, or the Φ cache went stale.
        let watts = vec![1.0, 2.0, 0.0, 0.5, 1.5];
        let (dt1, dt2) = (1e-3, 2.5e-4);

        let mut a = model();
        a.advance(&watts, dt1);
        a.advance(&watts, dt1);
        let pre_dt2 = a.node_temperatures().to_vec();
        a.advance(&watts, dt2);

        let mut b = model();
        b.restore_node_temperatures(&pre_dt2).expect("same floorplan");
        b.advance(&watts, dt2);
        assert_eq!(a.node_temperatures(), b.node_temperatures());

        a.advance(&watts, dt1);
        b.advance(&watts, dt1);
        assert_eq!(a.node_temperatures(), b.node_temperatures());
    }

    #[test]
    fn advance_is_stable_for_huge_dt() {
        // A macro-interval far beyond every time constant lands on the
        // steady state instead of blowing up or oscillating.
        let mut m = model();
        let watts = vec![1.5, 0.5, 0.0, 0.25, 2.0];
        m.advance(&watts, 1e3);
        let mut settled = model();
        settled.settle(&watts);
        for (a, b) in m.node_temperatures().iter().zip(settled.node_temperatures()) {
            assert!((a - b).abs() < 1e-6, "huge dt lands on steady state: {a} vs {b}");
        }
    }

    #[test]
    fn time_compression_speeds_transients_without_moving_steady_state() {
        let plan = plan();
        let slow_pkg = PackageConfig { time_compression: 1.0, ..PackageConfig::default() };
        let fast_pkg = PackageConfig { time_compression: 100.0, ..PackageConfig::default() };
        let mut slow = ThermalModel::new(&plan, slow_pkg);
        let mut fast = ThermalModel::new(&plan, fast_pkg);
        let watts = vec![1.0; 5];
        // Same wall-clock budget: the compressed model is much closer to
        // steady state.
        for _ in 0..20 {
            slow.step(&watts, 1e-3);
            fast.step(&watts, 1e-3);
        }
        assert!(fast.temperature(0) > slow.temperature(0) + 0.1);
        // Steady states agree.
        let mut s2 = ThermalModel::new(&plan, slow_pkg);
        let mut f2 = ThermalModel::new(&plan, fast_pkg);
        s2.settle(&watts);
        f2.settle(&watts);
        assert!((s2.temperature(0) - f2.temperature(0)).abs() < 1e-9);
    }
}
