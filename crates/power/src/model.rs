//! Activity-to-power conversion.

use crate::EnergyTables;
use powerbalance_thermal::Floorplan;
use powerbalance_uarch::{ActivitySample, IqActivity};

/// Block indices the power model needs to resolve once at construction.
#[derive(Debug, Clone, Copy)]
struct BlockIndices {
    icache: usize,
    dcache: usize,
    bpred: usize,
    itb: usize,
    dtb: usize,
    ldstq: usize,
    int_map: usize,
    int_q: [usize; 2],
    int_reg: [usize; 2],
    int_exec: [usize; 6],
    fp_map: usize,
    fp_q: [usize; 2],
    fp_reg: usize,
    fp_mul: usize,
    fp_add: [usize; 4],
}

/// Converts per-window [`ActivitySample`]s into per-block average power.
///
/// Construction binds the model to a [`Floorplan`] (it must contain the
/// EV6-like block names from [`powerbalance_thermal::ev6::BLOCK_NAMES`]);
/// the returned power vectors are indexed identically to
/// [`Floorplan::blocks`], ready to feed into
/// [`powerbalance_thermal::ThermalModel::step`].
///
/// Unified-L2 accesses are charged to no block (so the core does not
/// count them): like the EV6 the paper models, the L2 is outside the hot
/// die area.
///
/// # Statelessness
///
/// After construction the model is *pure*: [`block_power`] depends only on
/// the sample passed in, never on prior calls. The snapshot/restore layer
/// in `powerbalance` relies on this — a simulator snapshot records no power
/// state because there is none; the model is rebuilt from configuration.
/// The `purity_contract` unit test pins the property.
///
/// [`block_power`]: PowerModel::block_power
#[derive(Debug, Clone)]
pub struct PowerModel {
    tables: EnergyTables,
    frequency_hz: f64,
    idx: BlockIndices,
    /// Leakage power per block, W (precomputed from area).
    leakage: Vec<f64>,
    block_count: usize,
}

impl PowerModel {
    /// Builds a power model bound to `plan`.
    ///
    /// # Errors
    ///
    /// Returns an error if the tables are invalid, the frequency is not
    /// positive, or the plan is missing a required block name.
    pub fn new(plan: &Floorplan, tables: EnergyTables, frequency_hz: f64) -> Result<Self, String> {
        tables.validate()?;
        if frequency_hz <= 0.0 || frequency_hz.is_nan() {
            return Err(format!("frequency must be positive, got {frequency_hz}"));
        }
        let find = |name: &str| {
            plan.index_of(name).ok_or_else(|| format!("floorplan is missing block {name}"))
        };
        let arr2 = |prefix: &str| -> Result<[usize; 2], String> {
            Ok([find(&format!("{prefix}0"))?, find(&format!("{prefix}1"))?])
        };
        let idx = BlockIndices {
            icache: find("Icache")?,
            dcache: find("Dcache")?,
            bpred: find("Bpred")?,
            itb: find("ITB")?,
            dtb: find("DTB")?,
            ldstq: find("LdStQ")?,
            int_map: find("IntMap")?,
            int_q: arr2("IntQ")?,
            int_reg: arr2("IntReg")?,
            int_exec: [
                find("IntExec0")?,
                find("IntExec1")?,
                find("IntExec2")?,
                find("IntExec3")?,
                find("IntExec4")?,
                find("IntExec5")?,
            ],
            fp_map: find("FPMap")?,
            fp_q: arr2("FPQ")?,
            fp_reg: find("FPReg")?,
            fp_mul: find("FPMul")?,
            fp_add: [find("FPAdd0")?, find("FPAdd1")?, find("FPAdd2")?, find("FPAdd3")?],
        };
        let leakage = plan.blocks().iter().map(|b| b.area() * tables.leakage_per_area).collect();
        Ok(PowerModel { tables, frequency_hz, idx, leakage, block_count: plan.blocks().len() })
    }

    /// The energy tables in use.
    #[must_use]
    pub fn tables(&self) -> &EnergyTables {
        &self.tables
    }

    /// Clock frequency the energies are averaged over, Hz.
    #[must_use]
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// Issue-queue energy for one queue over a window: per-half dynamic
    /// energies `[half0, half1]` in joules.
    fn queue_energy(&self, iq: &IqActivity) -> [f64; 2] {
        let t = &self.tables;
        let mut halves = [0.0f64; 2];
        for (h, half) in halves.iter_mut().enumerate() {
            *half += iq.compact_moves[h] as f64 * t.compact_entry;
            *half += iq.mux_selects[h] as f64 * t.compact_mux;
            *half += iq.counter_entries[h] as f64 * (t.counter_stage1 + t.counter_stage2);
        }
        // Globally distributed components: the paper spreads tag broadcast,
        // match, select, payload RAM, and gating control evenly over both
        // halves (§3.1). The long wrap-around compaction wires likewise run
        // the full length of the queue, so their dissipation is spread over
        // both halves.
        let long_total = (iq.long_moves[0] + iq.long_moves[1]) as f64 * t.long_compaction;
        let global = iq.broadcasts as f64 * t.tag_broadcast
            + iq.payload_accesses as f64 * t.payload_ram
            + iq.selects as f64 * t.select_access
            + iq.gating_cycles as f64 * t.clock_gating
            + long_total;
        halves[0] += global / 2.0;
        halves[1] += global / 2.0;
        halves
    }

    /// Average per-block power (watts) over the window `sample` covers.
    ///
    /// Returns one entry per floorplan block. Windows with zero cycles
    /// yield pure leakage.
    ///
    /// Allocates the result vector; the per-window sampling loop should
    /// use [`block_power_into`](Self::block_power_into) with a persistent
    /// buffer instead.
    ///
    /// # Panics
    ///
    /// Never panics for samples produced by `powerbalance-uarch`.
    #[must_use]
    pub fn block_power(&self, sample: &ActivitySample) -> Vec<f64> {
        let mut out = vec![0.0f64; self.block_count];
        self.block_power_into(sample, &mut out);
        out
    }

    /// Allocation-free [`block_power`](Self::block_power): writes the
    /// per-block watts into `out`, overwriting its contents.
    ///
    /// The accumulation order matches `block_power` exactly (it is the same
    /// code), so the two produce bit-identical vectors.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have one entry per floorplan block.
    pub fn block_power_into(&self, sample: &ActivitySample, out: &mut [f64]) {
        assert_eq!(out.len(), self.block_count, "one output entry per block");
        // `out` doubles as the energy accumulator until the final
        // energy-to-power conversion.
        out.fill(0.0);
        self.accumulate_energy(sample, out);

        // Convert window energy to average power and add leakage.
        let seconds = sample.cycles as f64 / self.frequency_hz;
        if seconds > 0.0 {
            for (e, &leak) in out.iter_mut().zip(&self.leakage) {
                *e = leak + *e / seconds;
            }
        } else {
            out.copy_from_slice(&self.leakage);
        }
    }

    /// [`block_power_into`](Self::block_power_into) with the *dynamic*
    /// energy scaled by `dynamic_scale` before the power conversion.
    ///
    /// This is the DVFS hook: at a reduced operating point each switching
    /// event dissipates `V²`-scaled energy, so the manager passes
    /// `volt_scale²` here while the frequency reduction itself is modeled
    /// as duty-cycle gating in the core (fewer events per window). Leakage
    /// is deliberately left unscaled — the model follows the paper's
    /// dynamic-power framing (see DESIGN.md §12).
    ///
    /// The model stays stateless: the scale is an explicit argument, never
    /// stored, so the purity contract is unaffected. At `dynamic_scale ==
    /// 1.0` callers should prefer `block_power_into`, which this function
    /// matches bit-for-bit in that case.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have one entry per floorplan block.
    pub fn block_power_scaled_into(
        &self,
        sample: &ActivitySample,
        dynamic_scale: f64,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), self.block_count, "one output entry per block");
        out.fill(0.0);
        self.accumulate_energy(sample, out);

        let seconds = sample.cycles as f64 / self.frequency_hz;
        if seconds > 0.0 {
            for (e, &leak) in out.iter_mut().zip(&self.leakage) {
                *e = leak + (*e * dynamic_scale) / seconds;
            }
        } else {
            out.copy_from_slice(&self.leakage);
        }
    }

    /// Batched power accounting: converts one activity window per lane
    /// into that lane's per-block watts, writing lane `i` to
    /// `out[i * blocks..(i + 1) * blocks]`.
    ///
    /// The stepping engine collects every lane's window activity and its
    /// dynamic-power scale, then accounts them in one call. Each lane runs
    /// the scalar conversion — [`block_power_into`](Self::block_power_into)
    /// at scale 1.0, the scaled variant otherwise — so lane `i` of the
    /// output is bit-identical to the corresponding scalar call; the
    /// batching wins locality (one pass over the energy tables per window)
    /// without touching the purity contract. A lane whose window ran no
    /// cycles gets pure leakage.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one block vector per lane.
    pub fn block_power_many_into(&self, lanes: &[(ActivitySample, f64)], out: &mut [f64]) {
        assert_eq!(out.len(), lanes.len() * self.block_count, "one block vector per lane");
        for ((sample, scale), out) in lanes.iter().zip(out.chunks_exact_mut(self.block_count)) {
            if *scale == 1.0 {
                self.block_power_into(sample, out);
            } else {
                self.block_power_scaled_into(sample, *scale, out);
            }
        }
    }

    /// Accumulates the window's dynamic energy per block into `energy`
    /// (which the caller has zeroed). Shared verbatim by the scaled and
    /// unscaled power conversions so their accumulation order is identical.
    fn accumulate_energy(&self, sample: &ActivitySample, energy: &mut [f64]) {
        let t = &self.tables;

        let int_q = self.queue_energy(&sample.int_iq);
        let fp_q = self.queue_energy(&sample.fp_iq);
        for h in 0..2 {
            energy[self.idx.int_q[h]] += int_q[h];
            energy[self.idx.fp_q[h]] += fp_q[h];
        }

        for (i, &ops) in sample.int_alu_ops.iter().enumerate() {
            energy[self.idx.int_exec[i]] += ops as f64 * t.int_alu_op;
        }
        for (i, &ops) in sample.fp_add_ops.iter().enumerate() {
            energy[self.idx.fp_add[i]] += ops as f64 * t.fp_add_op;
        }
        energy[self.idx.fp_mul] += sample.fp_mul_ops as f64 * t.fp_mul_op;

        for c in 0..2 {
            energy[self.idx.int_reg[c]] += sample.int_rf_reads[c] as f64 * t.int_rf_read
                + sample.int_rf_writes[c] as f64 * t.int_rf_write;
        }
        energy[self.idx.fp_reg] +=
            sample.fp_rf_reads as f64 * t.fp_rf_read + sample.fp_rf_writes as f64 * t.fp_rf_write;

        energy[self.idx.icache] += sample.icache_accesses as f64 * t.icache_access;
        energy[self.idx.itb] += sample.icache_accesses as f64 * t.tlb_access;
        energy[self.idx.dcache] += sample.dcache_accesses as f64 * t.dcache_access;
        energy[self.idx.dtb] += sample.dcache_accesses as f64 * t.tlb_access;
        energy[self.idx.bpred] += sample.bpred_lookups as f64 * t.bpred_access;
        energy[self.idx.ldstq] += sample.lsq_ops as f64 * t.lsq_op;

        // Rename and active-list energy split across the two map blocks.
        let map_energy = sample.rename_ops as f64 * t.rename_op + sample.rob_ops as f64 * t.rob_op;
        energy[self.idx.int_map] += map_energy * 0.5;
        energy[self.idx.fp_map] += map_energy * 0.5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_thermal::ev6;

    fn model() -> (powerbalance_thermal::Floorplan, PowerModel) {
        let plan = ev6::baseline();
        let m = PowerModel::new(&plan, EnergyTables::default(), 4.2e9).expect("ev6 names");
        (plan, m)
    }

    fn sample(cycles: u64) -> ActivitySample {
        ActivitySample { cycles, ..Default::default() }
    }

    #[test]
    fn idle_sample_is_pure_leakage() {
        let (plan, m) = model();
        let watts = m.block_power(&sample(1000));
        for (b, &w) in plan.blocks().iter().zip(&watts) {
            let expected = b.area() * m.tables().leakage_per_area;
            assert!((w - expected).abs() < 1e-12, "{}: {w} vs {expected}", b.name);
        }
    }

    #[test]
    fn alu_activity_heats_the_right_unit() {
        let (plan, m) = model();
        let mut s = sample(10_000);
        s.int_alu_ops[3] = 10_000;
        let watts = m.block_power(&s);
        let i3 = plan.index_of("IntExec3").expect("block");
        let i0 = plan.index_of("IntExec0").expect("block");
        // 1 op/cycle at 0.30 nJ and 4.2 GHz = 1.26 W of dynamic power.
        assert!((watts[i3] - watts[i0] - 1.26).abs() < 0.01, "{}", watts[i3] - watts[i0]);
    }

    #[test]
    fn queue_half_attribution_is_separate() {
        let (plan, m) = model();
        let mut s = sample(10_000);
        s.int_iq.compact_moves[1] = 200_000;
        s.int_iq.mux_selects[1] = 200_000;
        let watts = m.block_power(&s);
        let q0 = watts[plan.index_of("IntQ0").expect("block")];
        let q1 = watts[plan.index_of("IntQ1").expect("block")];
        assert!(q1 > q0 + 1.0, "tail-half compaction must heat IntQ1: {q0} vs {q1}");
        // 200k moves over 10k cycles at (0.0123 + 0.0023) nJ = ~1.23 W.
        assert!((q1 - q0 - 1.226).abs() < 0.02);
    }

    #[test]
    fn distributed_queue_power_is_split_evenly() {
        let (plan, m) = model();
        let mut s = sample(10_000);
        s.int_iq.broadcasts = 30_000;
        s.int_iq.payload_accesses = 60_000;
        s.int_iq.selects = 30_000;
        let watts = m.block_power(&s);
        let q0 = watts[plan.index_of("IntQ0").expect("block")];
        let q1 = watts[plan.index_of("IntQ1").expect("block")];
        // Same leakage (equal areas) + same share of globals.
        assert!((q0 - q1).abs() < 1e-9);
        assert!(q0 > 1.0, "broadcast/payload traffic is significant power");
    }

    #[test]
    fn long_wrap_energy_is_distributed_across_both_halves() {
        // The wrap wires span the whole queue; their dissipation must not
        // land on one half (that would penalize the toggled mode's cool
        // half and invert the technique's benefit).
        let (plan, m) = model();
        let mut s = sample(10_000);
        s.int_iq.long_moves[1] = 100_000;
        let watts = m.block_power(&s);
        let q0 = watts[plan.index_of("IntQ0").expect("block")];
        let q1 = watts[plan.index_of("IntQ1").expect("block")];
        assert!((q0 - q1).abs() < 1e-9, "wrap energy must split evenly: {q0} vs {q1}");
        // 10 wraps/cycle at 0.0687 nJ and 4.2 GHz = 2.886 W total.
        let leak0 = plan.blocks()[plan.index_of("IntQ0").expect("block")].area()
            * m.tables().leakage_per_area;
        assert!(((q0 - leak0) - 2.886 / 2.0).abs() < 0.01, "{}", q0 - leak0);
    }

    #[test]
    fn regfile_reads_charge_the_right_copy() {
        let (plan, m) = model();
        let mut s = sample(10_000);
        s.int_rf_reads[0] = 20_000;
        s.int_rf_writes[0] = 10_000;
        let watts = m.block_power(&s);
        let r0 = watts[plan.index_of("IntReg0").expect("block")];
        let r1 = watts[plan.index_of("IntReg1").expect("block")];
        assert!(r0 > r1 + 1.0, "copy 0 must be hotter: {r0} vs {r1}");
    }

    #[test]
    fn longer_window_same_rate_same_power() {
        let (_, m) = model();
        let mut a = sample(10_000);
        a.int_alu_ops[0] = 5_000;
        let mut b = sample(100_000);
        b.int_alu_ops[0] = 50_000;
        let pa = m.block_power(&a);
        let pb = m.block_power(&b);
        for (x, y) in pa.iter().zip(&pb) {
            assert!((x - y).abs() < 1e-9, "power is a rate: {x} vs {y}");
        }
    }

    #[test]
    fn purity_contract() {
        // The snapshot/restore layer stores no power-model state, so the
        // model must be a pure function of the sample: identical samples
        // give bit-identical vectors regardless of what was computed in
        // between, and a clone behaves like the original.
        let (_, m) = model();
        let mut busy = sample(10_000);
        busy.int_alu_ops = [9_000, 7_000, 5_000, 3_000, 1_000, 500];
        busy.int_iq.compact_moves = [40_000, 80_000];
        busy.int_rf_reads = [15_000, 12_000];
        busy.bpred_lookups = 9_500;

        let first = m.block_power(&busy);
        // Interleave unrelated work, including a degenerate zero-cycle
        // sample, then re-evaluate.
        let _ = m.block_power(&sample(0));
        let _ = m.block_power(&sample(1_000_000));
        let again = m.block_power(&busy);
        assert_eq!(first, again, "block_power must not depend on call history");

        let cloned = m.clone();
        assert_eq!(cloned.block_power(&busy), first, "clones are indistinguishable");
    }

    #[test]
    fn unit_dynamic_scale_matches_unscaled_bitwise() {
        let (_, m) = model();
        let mut s = sample(10_000);
        s.int_alu_ops = [9_000, 7_000, 5_000, 3_000, 1_000, 500];
        s.int_iq.compact_moves = [40_000, 80_000];
        s.int_rf_reads = [15_000, 12_000];
        let mut plain = vec![0.0; m.block_count];
        let mut scaled = vec![0.0; m.block_count];
        m.block_power_into(&s, &mut plain);
        m.block_power_scaled_into(&s, 1.0, &mut scaled);
        assert_eq!(plain, scaled, "scale 1.0 must be bit-identical");
    }

    #[test]
    fn dynamic_scale_shrinks_dynamic_power_only() {
        let (plan, m) = model();
        let mut s = sample(10_000);
        s.int_alu_ops[0] = 10_000;
        let mut full = vec![0.0; m.block_count];
        let mut low = vec![0.0; m.block_count];
        m.block_power_into(&s, &mut full);
        // volt_scale 0.8 → dynamic energy scale 0.64 (V² scaling).
        m.block_power_scaled_into(&s, 0.64, &mut low);
        let b = plan.index_of("IntExec0").expect("block");
        let leak = plan.blocks()[b].area() * m.tables().leakage_per_area;
        let dyn_full = full[b] - leak;
        let dyn_low = low[b] - leak;
        assert!((dyn_low - dyn_full * 0.64).abs() < 1e-9, "{dyn_low} vs {}", dyn_full * 0.64);
        // A block with no activity stays at pure leakage either way.
        let idle = plan.index_of("FPMul").expect("block");
        assert!((full[idle] - low[idle]).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_window_is_leakage_at_any_scale() {
        let (_, m) = model();
        let mut out = vec![0.0; m.block_count];
        m.block_power_scaled_into(&sample(0), 0.5, &mut out);
        assert_eq!(out, m.block_power(&sample(0)));
    }

    #[test]
    fn missing_block_is_an_error() {
        let plan =
            powerbalance_thermal::Floorplan::from_rows(1e-3, &[(1e-3, vec![("Icache", 1.0)])]);
        assert!(PowerModel::new(&plan, EnergyTables::default(), 4.2e9).is_err());
    }

    #[test]
    fn bad_frequency_is_an_error() {
        let plan = ev6::baseline();
        assert!(PowerModel::new(&plan, EnergyTables::default(), 0.0).is_err());
    }
}
