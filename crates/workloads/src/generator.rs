//! Deterministic synthetic micro-op trace generation.

use crate::profile::WorkloadProfile;
use crate::rng::{Geometric, Xoshiro256};
use powerbalance_isa::{ArchReg, BranchInfo, MemRef, MicroOp, OpClass, TraceSource};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Number of architectural registers (per class) the generator cycles
/// destinations through. Must exceed [`MAX_DEP_DISTANCE`] so that "the
/// instruction `d` back in program order" is still the latest writer of its
/// destination register when a consumer renames.
const DEST_REG_POOL: u8 = 28;

/// Maximum register dependency distance, in same-class producer
/// instructions.
const MAX_DEP_DISTANCE: u64 = 24;

/// Sizes of the three nested data working sets (bytes). The hot set fits
/// comfortably in the 64 KB L1, the warm set in the 2 MB L2, and the cold
/// set misses everywhere.
const HOT_SET_BYTES: u64 = 16 * 1024;
const WARM_SET_BYTES: u64 = 1024 * 1024;
const COLD_SET_BYTES: u64 = 512 * 1024 * 1024;

/// Base virtual addresses of the data working sets and the code region.
const HOT_BASE: u64 = 0x1000_0000;
const WARM_BASE: u64 = 0x2000_0000;
const COLD_BASE: u64 = 0x4000_0000;
const CODE_BASE: u64 = 0x0040_0000;

/// Hashes a static branch PC with one multiply and a fold. The keys are
/// code addresses the generator itself produces, so SipHash's resistance to
/// chosen keys buys nothing; iteration order is never observed (snapshots
/// sort the counts).
#[derive(Debug, Clone, Copy, Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Behaviour class of a static branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchKind {
    /// Loop back-edge: taken `period - 1` times, then exits (falls through).
    LoopBack,
    /// Unconditional-ish forward jump: always taken.
    Jump,
    /// Error-check-style branch: rarely taken.
    RarelyTaken,
    /// Data-dependent branch with 50/50 outcomes.
    Hard,
}

/// Serializable dynamic state of a [`TraceGenerator`], captured by
/// [`TraceGenerator::snapshot`] and reapplied with
/// [`TraceGenerator::restore`].
///
/// Only the evolving state is captured; derived tables (class CDF, mean
/// block length, FP-load fraction) are rebuilt deterministically from the
/// profile when the generator is constructed. Branch trip counters are
/// stored as a PC-sorted list so the serialized form is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceState {
    /// PRNG state.
    pub rng: Xoshiro256,
    /// Micro-ops generated so far.
    pub op_index: u64,
    /// Next program counter.
    pub pc: u64,
    /// Non-branch ops remaining in the current basic block.
    pub ops_left_in_block: u64,
    /// Integer destination-ring contents.
    pub int_ring: [u8; DEST_REG_POOL as usize],
    /// Integer destination writes so far.
    pub int_writes: u64,
    /// FP destination-ring contents.
    pub fp_ring: [u8; DEST_REG_POOL as usize],
    /// FP destination writes so far.
    pub fp_writes: u64,
    /// Per-static-branch trip counters, sorted by branch PC.
    pub branch_counts: Vec<(u64, u64)>,
    /// Start address of the basic block being emitted.
    pub block_start: u64,
}

/// An infinite, deterministic stream of micro-ops realizing a
/// [`WorkloadProfile`].
///
/// The generator maintains just enough architectural state to produce
/// *consistent* traces: destination registers are allocated round-robin from
/// a pool larger than the maximum dependency distance, so a consumer that
/// names "the value produced `d` instructions ago" really does read that
/// producer after renaming; program counters walk basic blocks within the
/// profile's code footprint; data addresses fall into nested working sets
/// per the locality model.
///
/// # Examples
///
/// ```
/// use powerbalance_isa::TraceSource;
/// use powerbalance_workloads::{OpMix, WorkloadProfile};
///
/// let profile = WorkloadProfile::builder("demo").mix(OpMix::fp_heavy()).build();
/// let mut gen = profile.trace(99);
/// let ops: Vec<_> = (0..100).map(|_| gen.next_op().expect("infinite")).collect();
/// assert!(ops.iter().any(|op| op.class().is_fp()));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: Xoshiro256,
    op_index: u64,
    pc: u64,
    /// Cumulative distribution over non-branch classes derived from the mix
    /// (branches are emitted structurally at basic-block ends).
    class_cdf: [f64; 8],
    /// Mean basic-block length implied by the mix's branch weight.
    mean_block_len: u64,
    /// Non-branch micro-ops remaining before this block's terminating branch
    /// (`u64::MAX` when the mix has no branches).
    ops_left_in_block: u64,
    /// Ring of recently written integer destination registers.
    int_ring: [u8; DEST_REG_POOL as usize],
    int_writes: u64,
    /// Ring of recently written FP destination registers.
    fp_ring: [u8; DEST_REG_POOL as usize],
    fp_writes: u64,
    /// Fraction of loads that produce an FP value (derived from the mix).
    fp_load_fraction: f64,
    /// Dependency-distance distributions of the hot and cold phases.
    dep_hot: Geometric,
    dep_cold: Geometric,
    /// Per-static-branch trip counters driving loop-exit patterns.
    branch_counts: HashMap<u64, u64, BuildHasherDefault<PcHasher>>,
    /// Start address of the basic block currently being emitted.
    block_start: u64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    #[must_use]
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mix = profile.mix();
        // Branches are emitted structurally (one per basic block); the
        // remaining classes are sampled from the renormalized mix.
        let weights = [
            mix.int_alu,
            mix.int_mul,
            mix.load,
            mix.store,
            0.0, // branch slot unused in sampling
            mix.fp_add,
            mix.fp_mul,
            mix.fp_div,
        ];
        let total = mix.total();
        let nonbranch_total: f64 = weights.iter().sum();
        let mut class_cdf = [0.0; 8];
        let mut acc = 0.0;
        for (slot, w) in class_cdf.iter_mut().zip(weights) {
            acc += w / nonbranch_total;
            *slot = acc;
        }
        class_cdf[7] = 1.0 + f64::EPSILON; // guard against rounding
                                           // One branch terminates each block of `len` non-branch ops, so the
                                           // realized branch fraction is E[1/(len+1)]. Keeping len within +/-1
                                           // of its mean makes that expectation track 1/(mean+1) closely.
        let mean_block_len = if mix.branch > 0.0 {
            (total / mix.branch - 1.0).round().max(2.0) as u64
        } else {
            u64::MAX
        };

        let fp_weight = mix.fp_add + mix.fp_mul + mix.fp_div;
        let fp_load_fraction =
            if fp_weight > 0.0 { (fp_weight / total * 2.0).min(0.8) } else { 0.0 };

        let mut int_ring = [0u8; DEST_REG_POOL as usize];
        let mut fp_ring = [0u8; DEST_REG_POOL as usize];
        for i in 0..DEST_REG_POOL {
            int_ring[i as usize] = i;
            fp_ring[i as usize] = i;
        }

        TraceGenerator {
            rng: Xoshiro256::new(seed),
            op_index: 0,
            pc: CODE_BASE,
            class_cdf,
            int_ring,
            int_writes: 0,
            fp_ring,
            fp_writes: 0,
            fp_load_fraction,
            dep_hot: Geometric::new(profile.dep_mean_hot()),
            dep_cold: Geometric::new(profile.dep_mean_cold()),
            branch_counts: HashMap::default(),
            block_start: CODE_BASE,
            mean_block_len,
            ops_left_in_block: 0,
            profile,
        }
    }

    /// Deterministic length (in non-branch ops) of the basic block starting
    /// at `block_start`, drawn around the mix's mean block length.
    fn block_len(&self, block_start: u64) -> u64 {
        if self.mean_block_len == u64::MAX {
            return u64::MAX;
        }
        let mut h = block_start.wrapping_mul(0xA24B_AED4_963E_E407);
        h ^= h >> 31;
        h = h.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        h ^= h >> 30;
        (self.mean_block_len + h % 3).saturating_sub(1).max(1)
    }

    /// The profile this generator realizes.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of micro-ops generated so far.
    #[must_use]
    pub fn ops_generated(&self) -> u64 {
        self.op_index
    }

    /// Captures the generator's evolving state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> TraceState {
        let mut branch_counts: Vec<(u64, u64)> =
            self.branch_counts.iter().map(|(&pc, &n)| (pc, n)).collect();
        branch_counts.sort_unstable();
        TraceState {
            rng: self.rng.clone(),
            op_index: self.op_index,
            pc: self.pc,
            ops_left_in_block: self.ops_left_in_block,
            int_ring: self.int_ring,
            int_writes: self.int_writes,
            fp_ring: self.fp_ring,
            fp_writes: self.fp_writes,
            branch_counts,
            block_start: self.block_start,
        }
    }

    /// Restores state captured by [`snapshot`](TraceGenerator::snapshot).
    ///
    /// The generator must realize the same profile the snapshot was taken
    /// under for the continuation to match the original stream; the derived
    /// sampling tables are left as built from this generator's profile.
    pub fn restore(&mut self, state: &TraceState) {
        self.rng = state.rng.clone();
        self.op_index = state.op_index;
        self.pc = state.pc;
        self.ops_left_in_block = state.ops_left_in_block;
        self.int_ring = state.int_ring;
        self.int_writes = state.int_writes;
        self.fp_ring = state.fp_ring;
        self.fp_writes = state.fp_writes;
        self.branch_counts = state.branch_counts.iter().copied().collect();
        self.block_start = state.block_start;
    }

    fn sample_class(&mut self) -> OpClass {
        let u = self.rng.next_f64();
        for (i, &edge) in self.class_cdf.iter().enumerate() {
            if u < edge {
                return OpClass::ALL[i];
            }
        }
        OpClass::IntAlu
    }

    fn alloc_int_dest(&mut self) -> ArchReg {
        let reg = (self.int_writes % u64::from(DEST_REG_POOL)) as u8;
        self.int_ring[reg as usize] = reg;
        self.int_writes += 1;
        ArchReg::int(reg)
    }

    fn alloc_fp_dest(&mut self) -> ArchReg {
        let reg = (self.fp_writes % u64::from(DEST_REG_POOL)) as u8;
        self.fp_ring[reg as usize] = reg;
        self.fp_writes += 1;
        ArchReg::fp(reg)
    }

    fn pick_int_src(&mut self, dep: Geometric) -> ArchReg {
        let d = self.rng.sample_geometric(dep, MAX_DEP_DISTANCE);
        let idx = if self.int_writes >= d {
            (self.int_writes - d) % u64::from(DEST_REG_POOL)
        } else {
            d % u64::from(DEST_REG_POOL)
        };
        ArchReg::int(idx as u8)
    }

    fn pick_fp_src(&mut self, dep: Geometric) -> ArchReg {
        let d = self.rng.sample_geometric(dep, MAX_DEP_DISTANCE);
        let idx = if self.fp_writes >= d {
            (self.fp_writes - d) % u64::from(DEST_REG_POOL)
        } else {
            d % u64::from(DEST_REG_POOL)
        };
        ArchReg::fp(idx as u8)
    }

    fn sample_data_addr(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let locality = self.profile.locality();
        let (base, size) = if u < locality.p_hot {
            (HOT_BASE, HOT_SET_BYTES)
        } else if u < locality.p_hot + locality.p_warm {
            (WARM_BASE, WARM_SET_BYTES)
        } else {
            (COLD_BASE, COLD_SET_BYTES)
        };
        base + (self.rng.below(size / 8) * 8)
    }

    /// Deterministic per-static-branch behaviour derived from the branch
    /// PC. Real control flow is dominated by loop back-edges (taken
    /// `period - 1` times, then one not-taken exit that falls through),
    /// plus unconditional-ish jumps, rarely-taken checks, and a profile-
    /// controlled fraction of data-dependent hard branches.
    fn branch_character(&self, pc: u64) -> (BranchKind, u64) {
        // A cheap integer hash; only used to assign stable per-PC behaviour.
        let mut h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        let u = (h % 10_000) as f64 / 10_000.0;
        let hard = self.profile.hard_branch_fraction();
        let kind = if u < hard {
            BranchKind::Hard
        } else if u < hard + (1.0 - hard) * 0.55 {
            BranchKind::LoopBack
        } else if u < hard + (1.0 - hard) * 0.85 {
            BranchKind::Jump
        } else {
            BranchKind::RarelyTaken
        };
        // Half the loops have short, gshare-learnable trip counts; the rest
        // are long-running loops whose exits mispredict (rarely).
        let scale = self.profile.loop_period_scale();
        let period = if (h >> 40).is_multiple_of(2) {
            4 + (h >> 16) % 7 // 4..=10: within gshare's history window
        } else {
            // Long-running loops; exits mispredict roughly once per period.
            let base = 24 + (h >> 16) % 129;
            (base as f64 * scale) as u64
        };
        (kind, period)
    }

    /// Branch target of the static branch at `pc`: stable across dynamic
    /// executions (real code jumps to a fixed target), derived from a hash
    /// of the branch PC so the code walk forms realistic loops.
    fn branch_target(&self, pc: u64) -> u64 {
        let footprint = self.profile.code_footprint();
        let blocks = (footprint / 64).max(1);
        let mut h = pc.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        CODE_BASE + (h % blocks) * 64
    }
}

impl TraceSource for TraceGenerator {
    fn next_op(&mut self) -> Option<MicroOp> {
        let hot = self.profile.phases().is_hot(self.op_index);
        let dep = if hot { self.dep_hot } else { self.dep_cold };
        let imm = self.profile.immediate_fraction();
        if self.op_index == 0 {
            self.ops_left_in_block = self.block_len(self.pc);
        }
        let class = if self.ops_left_in_block == 0 {
            OpClass::Branch
        } else {
            self.ops_left_in_block -= 1;
            self.sample_class()
        };
        let pc = self.pc;

        let mut op = MicroOp::new(class).with_pc(pc);
        match class {
            OpClass::IntAlu | OpClass::IntMul => {
                if !self.rng.chance(imm) {
                    op = op.with_src1(self.pick_int_src(dep));
                }
                if !self.rng.chance(imm) {
                    op = op.with_src2(self.pick_int_src(dep));
                }
                op = op.with_dest(self.alloc_int_dest());
            }
            OpClass::Load => {
                op = op.with_src1(self.pick_int_src(dep));
                op = op.with_mem(MemRef::new(self.sample_data_addr()));
                op = if self.rng.chance(self.fp_load_fraction) {
                    op.with_dest(self.alloc_fp_dest())
                } else {
                    op.with_dest(self.alloc_int_dest())
                };
            }
            OpClass::Store => {
                op = op.with_src1(self.pick_int_src(dep));
                op = op.with_src2(self.pick_int_src(dep));
                op = op.with_mem(MemRef::new(self.sample_data_addr()));
            }
            OpClass::Branch => {
                op = op.with_src1(self.pick_int_src(dep));
                let (kind, period) = self.branch_character(pc);
                let (taken, target) = match kind {
                    BranchKind::LoopBack => {
                        // Back-edge to the top of this block: taken
                        // (period - 1) times, then the exit falls through.
                        let count = self.branch_counts.entry(pc).or_insert(0);
                        *count += 1;
                        (!(*count).is_multiple_of(period), self.block_start)
                    }
                    BranchKind::Jump => (true, self.branch_target(pc)),
                    BranchKind::RarelyTaken => (self.rng.chance(0.03), self.branch_target(pc)),
                    BranchKind::Hard => (self.rng.chance(0.5), self.branch_target(pc)),
                };
                op = op.with_branch(BranchInfo::new(taken, target));
                self.pc = if taken { target } else { pc + 4 };
            }
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => {
                if !self.rng.chance(imm) {
                    op = op.with_src1(self.pick_fp_src(dep));
                }
                op = op.with_src2(self.pick_fp_src(dep));
                op = op.with_dest(self.alloc_fp_dest());
            }
        }

        if class != OpClass::Branch {
            self.pc += 4;
        }
        let footprint = self.profile.code_footprint();
        let wrapped = self.pc >= CODE_BASE + footprint;
        if wrapped {
            self.pc = CODE_BASE;
        }
        if class == OpClass::Branch || wrapped {
            self.block_start = self.pc;
            self.ops_left_in_block = self.block_len(self.pc);
        }

        self.op_index += 1;
        Some(op)
    }

    /// O(1) fast-forward: jumps the dynamic-instruction position without
    /// synthesizing the skipped ops.
    ///
    /// `op_index` is the only generator state observable *across* a skip —
    /// it drives the phase square wave ([`PhaseModel::is_hot`]), so a jump
    /// keeps hot/cold bursts aligned with virtual time under interval
    /// simulation. The PRNG, register rings, and branch trip counters
    /// simply continue: the stream they produce is statistically stationary
    /// within a phase, which is all the skipped stretch is summarizing.
    ///
    /// [`PhaseModel::is_hot`]: crate::PhaseModel::is_hot
    fn skip_ops(&mut self, n: u64) {
        if self.op_index == 0 && n > 0 {
            // Match next_op's lazy first-block initialization so a skip
            // before the first op does not leave a stale zero-length block.
            self.ops_left_in_block = self.block_len(self.pc);
        }
        self.op_index += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemLocality, OpMix, PhaseModel};

    fn toy_profile() -> WorkloadProfile {
        WorkloadProfile::builder("toy").mix(OpMix::integer_heavy()).dependency_distance(5.0).build()
    }

    fn collect(profile: &WorkloadProfile, seed: u64, n: usize) -> Vec<MicroOp> {
        let mut gen = profile.trace(seed);
        (0..n).map(|_| gen.next_op().expect("infinite stream")).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let p = toy_profile();
        assert_eq!(collect(&p, 5, 5000), collect(&p, 5, 5000));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let p = toy_profile();
        assert_ne!(collect(&p, 1, 1000), collect(&p, 2, 1000));
    }

    #[test]
    fn mix_is_approximately_realized() {
        let p = toy_profile();
        let ops = collect(&p, 3, 100_000);
        let loads = ops.iter().filter(|o| o.class() == OpClass::Load).count() as f64;
        let frac = loads / ops.len() as f64;
        assert!((frac - 0.26).abs() < 0.02, "load fraction {frac} vs expected 0.26");
        assert!(ops.iter().all(|o| o.class().is_int()), "integer mix emits no FP");
    }

    #[test]
    fn fp_mix_produces_fp_ops_and_fp_loads() {
        let p = WorkloadProfile::builder("fp").mix(OpMix::fp_heavy()).build();
        let ops = collect(&p, 4, 50_000);
        assert!(ops.iter().any(|o| o.class() == OpClass::FpAdd));
        let fp_loads = ops
            .iter()
            .filter(|o| o.class() == OpClass::Load)
            .filter(|o| {
                o.dest().map(|d| d.class() == powerbalance_isa::RegClass::Fp).unwrap_or(false)
            })
            .count();
        assert!(fp_loads > 0, "some loads should feed the FP side");
    }

    #[test]
    fn mem_ops_have_addresses_and_others_do_not() {
        let p = toy_profile();
        for op in collect(&p, 6, 10_000) {
            assert_eq!(op.mem().is_some(), op.class().is_mem(), "{op}");
            assert_eq!(op.branch().is_some(), op.class().is_ctrl(), "{op}");
        }
    }

    #[test]
    fn dependency_distance_invariant_holds() {
        // The producer "d back" must still be the latest writer of its
        // destination register: pool size must exceed max distance.
        assert!(u64::from(DEST_REG_POOL) > MAX_DEP_DISTANCE);
    }

    #[test]
    fn locality_controls_address_regions() {
        let friendly =
            WorkloadProfile::builder("f").locality(MemLocality::cache_friendly()).build();
        let bound = WorkloadProfile::builder("b").locality(MemLocality::memory_bound()).build();
        let count_cold = |p: &WorkloadProfile| {
            collect(p, 9, 50_000)
                .iter()
                .filter_map(|o| o.mem())
                .filter(|m| m.addr >= COLD_BASE)
                .count()
        };
        assert!(count_cold(&bound) > 10 * count_cold(&friendly).max(1));
    }

    #[test]
    fn pcs_stay_within_code_footprint() {
        let p = WorkloadProfile::builder("pc").code_footprint(8 * 1024).build();
        for op in collect(&p, 11, 20_000) {
            assert!(op.pc() >= CODE_BASE);
            assert!(op.pc() < CODE_BASE + 8 * 1024 + 4);
        }
    }

    #[test]
    fn branch_outcomes_follow_bias() {
        let easy =
            WorkloadProfile::builder("easy").hard_branches(0.0).code_footprint(2 * 1024).build();
        let ops = collect(&easy, 13, 200_000);
        // Group outcomes by static branch PC; biased branches should be
        // strongly one-sided.
        use std::collections::HashMap;
        let mut per_pc: HashMap<u64, (u64, u64)> = HashMap::new();
        for op in ops.iter().filter(|o| o.class().is_ctrl()) {
            let e = per_pc.entry(op.pc()).or_default();
            if op.branch().expect("branch op").taken {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        let mut biased = 0;
        let mut total = 0;
        for (&_pc, &(t, n)) in per_pc.iter().filter(|(_, &(t, n))| t + n >= 50) {
            total += 1;
            let frac = t as f64 / (t + n) as f64;
            if !(0.25..=0.75).contains(&frac) {
                biased += 1;
            }
        }
        assert!(total > 0, "need some hot static branches");
        assert!(
            biased as f64 / total as f64 > 0.9,
            "easy branches should be biased: {biased}/{total}"
        );
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_stream() {
        let p = WorkloadProfile::builder("snap").mix(OpMix::fp_heavy()).build();
        let mut gen = p.trace(21);
        for _ in 0..12_345 {
            let _ = gen.next_op();
        }
        let state = gen.snapshot();

        // Serde round trip must be lossless.
        use serde::{Deserialize, Serialize};
        let round = TraceState::deserialize(&state.serialize()).expect("round trip");
        assert_eq!(round, state);

        // A fresh generator restored from the snapshot continues the stream
        // exactly; two restores from one snapshot are identical too.
        let mut resumed_a = p.trace(0);
        resumed_a.restore(&round);
        let mut resumed_b = p.trace(999);
        resumed_b.restore(&round);
        for _ in 0..5000 {
            let expect = gen.next_op();
            assert_eq!(resumed_a.next_op(), expect);
            assert_eq!(resumed_b.next_op(), expect);
        }
    }

    #[test]
    fn phases_modulate_dependency_distance() {
        let p = WorkloadProfile::builder("bursty")
            .dependency_distances(12.0, 1.5)
            .phases(PhaseModel::bursty(10_000, 0.5))
            .build();
        let mut gen = p.trace(17);
        // Just exercise the path; distances themselves are probed via the
        // pipeline-level IPC tests in the uarch crate.
        for _ in 0..20_000 {
            let _ = gen.next_op();
        }
        assert_eq!(gen.ops_generated(), 20_000);
    }
}
