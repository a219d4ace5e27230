//! Functional units and register-file copy wiring.

use crate::config::MappingPolicy;
use serde::{Deserialize, Serialize};

/// Kind of functional unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnitKind {
    /// Integer ALU (arithmetic, load/store address generation, branches).
    IntAlu,
    /// Floating-point adder.
    FpAdd,
    /// Floating-point multiplier (also executes divides, non-pipelined).
    FpMul,
}

/// Serializable state of a [`FuPool`], captured by [`FuPool::snapshot`] and
/// reapplied with [`FuPool::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuPoolState {
    /// Per-ALU enable flags.
    pub int_enabled: Vec<bool>,
    /// Per-FP-adder enable flags.
    pub fp_add_enabled: Vec<bool>,
    /// FP multiplier enable flag.
    pub fp_mul_enabled: bool,
    /// Remaining busy cycles on the FP multiplier (divides).
    pub fp_mul_busy: u32,
}

/// The pool of functional units with enable (fine-grain turnoff) and busy
/// state.
///
/// All units are pipelined (accept one operation per cycle) except the FP
/// multiplier executing a divide, which occupies the unit for the divide's
/// full latency.
///
/// Fine-grain turnoff (paper §2.2) is exactly the `enabled` flag: a
/// turned-off unit "is marked busy", so its select tree grants nothing and
/// lower-priority trees pick up its instructions.
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{FuPool, UnitKind};
///
/// let mut pool = FuPool::new(6, 4);
/// assert!(pool.is_available(UnitKind::IntAlu, 0));
/// pool.set_enabled(UnitKind::IntAlu, 0, false); // fine-grain turnoff
/// assert!(!pool.is_available(UnitKind::IntAlu, 0));
/// assert!(pool.is_available(UnitKind::IntAlu, 1));
/// ```
#[derive(Debug, Clone)]
pub struct FuPool {
    int_enabled: Vec<bool>,
    fp_add_enabled: Vec<bool>,
    fp_mul_enabled: bool,
    fp_mul_busy: u32,
}

impl FuPool {
    /// Creates a pool with `int_alus` integer ALUs, `fp_adders` FP adders,
    /// and one FP multiplier, all enabled.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn new(int_alus: usize, fp_adders: usize) -> Self {
        assert!(int_alus > 0 && fp_adders > 0, "need at least one unit of each kind");
        FuPool {
            int_enabled: vec![true; int_alus],
            fp_add_enabled: vec![true; fp_adders],
            fp_mul_enabled: true,
            fp_mul_busy: 0,
        }
    }

    /// Number of integer ALUs.
    #[must_use]
    pub fn int_alus(&self) -> usize {
        self.int_enabled.len()
    }

    /// Number of FP adders.
    #[must_use]
    pub fn fp_adders(&self) -> usize {
        self.fp_add_enabled.len()
    }

    /// Enables or disables a unit (fine-grain turnoff). For `FpMul` the
    /// index is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the unit kind.
    pub fn set_enabled(&mut self, kind: UnitKind, index: usize, enabled: bool) {
        match kind {
            UnitKind::IntAlu => self.int_enabled[index] = enabled,
            UnitKind::FpAdd => self.fp_add_enabled[index] = enabled,
            UnitKind::FpMul => self.fp_mul_enabled = enabled,
        }
    }

    /// Whether a unit is enabled (ignoring transient busy state).
    #[must_use]
    pub fn is_enabled(&self, kind: UnitKind, index: usize) -> bool {
        match kind {
            UnitKind::IntAlu => self.int_enabled[index],
            UnitKind::FpAdd => self.fp_add_enabled[index],
            UnitKind::FpMul => self.fp_mul_enabled,
        }
    }

    /// Whether a unit can accept an operation this cycle.
    #[must_use]
    pub fn is_available(&self, kind: UnitKind, index: usize) -> bool {
        match kind {
            UnitKind::IntAlu => self.int_enabled[index],
            UnitKind::FpAdd => self.fp_add_enabled[index],
            UnitKind::FpMul => self.fp_mul_enabled && self.fp_mul_busy == 0,
        }
    }

    /// Occupies the FP multiplier for `cycles` (used by divides).
    pub fn occupy_fp_mul(&mut self, cycles: u32) {
        self.fp_mul_busy = self.fp_mul_busy.max(cycles);
    }

    /// Advances busy countdowns by one cycle.
    pub fn tick(&mut self) {
        self.fp_mul_busy = self.fp_mul_busy.saturating_sub(1);
    }

    /// Advances busy countdowns by `cycles` cycles at once: the same as
    /// `cycles` calls to [`tick`](FuPool::tick).
    pub(crate) fn tick_by(&mut self, cycles: u64) {
        self.fp_mul_busy -= self.fp_mul_busy.min(u32::try_from(cycles).unwrap_or(u32::MAX));
    }

    /// Captures the pool's full state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> FuPoolState {
        FuPoolState {
            int_enabled: self.int_enabled.clone(),
            fp_add_enabled: self.fp_add_enabled.clone(),
            fp_mul_enabled: self.fp_mul_enabled,
            fp_mul_busy: self.fp_mul_busy,
        }
    }

    /// Restores state captured by [`snapshot`](FuPool::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if the captured unit counts do not match this
    /// pool's configuration.
    pub fn restore(&mut self, state: &FuPoolState) -> Result<(), String> {
        if state.int_enabled.len() != self.int_enabled.len()
            || state.fp_add_enabled.len() != self.fp_add_enabled.len()
        {
            return Err("functional-unit snapshot has a different unit count".into());
        }
        self.int_enabled.copy_from_slice(&state.int_enabled);
        self.fp_add_enabled.copy_from_slice(&state.fp_add_enabled);
        self.fp_mul_enabled = state.fp_mul_enabled;
        self.fp_mul_busy = state.fp_mul_busy;
        Ok(())
    }

    /// Bit `u` set iff unit `u` of the `kind` bank is enabled, ignoring
    /// transient busy state.
    ///
    /// # Panics
    ///
    /// Panics for [`UnitKind::FpMul`], which is a single unit, not a bank.
    #[must_use]
    pub fn enabled_mask(&self, kind: UnitKind) -> u8 {
        let units = match kind {
            UnitKind::IntAlu => &self.int_enabled,
            UnitKind::FpAdd => &self.fp_add_enabled,
            UnitKind::FpMul => unreachable!("the FP multiplier is not a bank"),
        };
        units.iter().enumerate().fold(0, |mask, (u, &on)| mask | (u8::from(on) << u))
    }
}

/// The units of a bank of `n` whose bit is set in `usable`, in
/// select-priority order `start, start + 1, …, n - 1, 0, …, start - 1`
/// (`start` is 0 for static priority), packed at the front of the array;
/// returns them with their count. A bank holds at most 8 units.
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::units_in_order;
///
/// let (units, len) = units_in_order(0b1011, 4, 1);
/// assert_eq!(&units[..len], &[1, 3, 0]);
/// ```
#[must_use]
pub fn units_in_order(usable: u8, n: usize, start: usize) -> ([usize; 8], usize) {
    let mut units = [0; 8];
    let mut len = 0;
    let mut u = start;
    for _ in 0..n {
        if usable & (1 << u) != 0 {
            units[len] = u;
            len += 1;
        }
        u += 1;
        if u == n {
            u = 0;
        }
    }
    (units, len)
}

/// Serializable state of a [`RegFileWiring`], captured by
/// [`RegFileWiring::snapshot`] and reapplied with [`RegFileWiring::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WiringState {
    /// Mapping policy at capture time (it can be switched at run time).
    pub mapping: MappingPolicy,
    /// Per-copy enable flags.
    pub enabled: Vec<bool>,
}

/// Wiring between integer ALUs and register-file copies.
///
/// Encapsulates the three Figure-4 mappings plus fine-grain turnoff of
/// copies: a disabled copy "marks busy" every ALU wired to it.
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{MappingPolicy, RegFileWiring};
///
/// let mut wiring = RegFileWiring::new(MappingPolicy::Priority, 6, 2);
/// assert!(wiring.alu_usable(0));
/// wiring.set_copy_enabled(0, false); // copy 0 overheated
/// assert!(!wiring.alu_usable(0), "high-priority ALUs lose their copy");
/// assert!(wiring.alu_usable(3), "low-priority ALUs still run on copy 1");
/// ```
#[derive(Debug, Clone)]
pub struct RegFileWiring {
    mapping: MappingPolicy,
    alus: usize,
    copies: usize,
    enabled: Vec<bool>,
}

impl RegFileWiring {
    /// Creates the wiring for `alus` ALUs over `copies` register-file
    /// copies under `mapping`.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero or does not divide `alus`.
    #[must_use]
    pub fn new(mapping: MappingPolicy, alus: usize, copies: usize) -> Self {
        assert!(copies > 0 && alus.is_multiple_of(copies), "ALUs must divide across copies");
        RegFileWiring { mapping, alus, copies, enabled: vec![true; copies] }
    }

    /// The active mapping policy.
    #[must_use]
    pub fn mapping(&self) -> MappingPolicy {
        self.mapping
    }

    /// Number of register-file copies.
    #[must_use]
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Enables or disables a copy (fine-grain turnoff of the register
    /// file, implemented by marking busy the ALUs mapped to it).
    ///
    /// # Panics
    ///
    /// Panics if `copy` is out of range.
    pub fn set_copy_enabled(&mut self, copy: usize, enabled: bool) {
        self.enabled[copy] = enabled;
    }

    /// Whether a copy is enabled.
    #[must_use]
    pub fn copy_enabled(&self, copy: usize) -> bool {
        self.enabled[copy]
    }

    /// Captures the wiring's full state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> WiringState {
        WiringState { mapping: self.mapping, enabled: self.enabled.clone() }
    }

    /// Restores state captured by [`snapshot`](RegFileWiring::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if the captured copy count does not match.
    pub fn restore(&mut self, state: &WiringState) -> Result<(), String> {
        if state.enabled.len() != self.enabled.len() {
            return Err("register-file snapshot has a different copy count".into());
        }
        self.mapping = state.mapping;
        self.enabled.copy_from_slice(&state.enabled);
        Ok(())
    }

    /// Bit `a` set iff ALU `a` can issue ([`alu_usable`]).
    ///
    /// [`alu_usable`]: RegFileWiring::alu_usable
    #[must_use]
    pub fn usable_mask(&self) -> u8 {
        (0..self.alus).fold(0, |mask, alu| mask | (u8::from(self.alu_usable(alu)) << alu))
    }

    /// Whether `alu` can issue, i.e. every copy it reads from is enabled.
    #[must_use]
    pub fn alu_usable(&self, alu: usize) -> bool {
        match self.mapping {
            MappingPolicy::Balanced | MappingPolicy::Priority => {
                self.enabled[self.mapping.copy_for_alu(alu, self.alus, self.copies)]
            }
            // Completely-balanced wiring reads one port on *every* copy, so
            // any disabled copy stalls every ALU.
            MappingPolicy::CompletelyBalanced => self.enabled.iter().all(|&e| e),
        }
    }

    /// Register-file copies charged for `reads` operand reads by `alu`.
    ///
    /// Yields `(copy, count)` pairs. Under the simple mappings both reads
    /// hit the ALU's own copy; under completely-balanced wiring reads
    /// spread one per copy. A micro-op has at most two source operands, so
    /// the charges fit an inline buffer and iterating never allocates —
    /// this runs once per issued instruction in the hottest loop.
    #[must_use]
    pub fn read_charges(&self, alu: usize, reads: u8) -> ReadCharges {
        let mut charges = ReadCharges { pairs: [(0, 0); 2], len: 0, next: 0 };
        match self.mapping {
            MappingPolicy::Balanced | MappingPolicy::Priority => {
                if reads > 0 {
                    let copy = self.mapping.copy_for_alu(alu, self.alus, self.copies);
                    charges.pairs[0] = (copy, u64::from(reads));
                    charges.len = 1;
                }
            }
            MappingPolicy::CompletelyBalanced => {
                let base = alu % self.copies;
                for i in 0..usize::from(reads).min(2) {
                    charges.pairs[i] = ((base + i) % self.copies, 1);
                    charges.len = i + 1;
                }
            }
        }
        charges
    }
}

/// Allocation-free `(copy, count)` pairs returned by
/// [`RegFileWiring::read_charges`]. At most two entries (one per source
/// operand).
#[derive(Debug, Clone, Copy)]
pub struct ReadCharges {
    pairs: [(usize, u64); 2],
    len: usize,
    next: usize,
}

impl Iterator for ReadCharges {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        if self.next < self.len {
            let pair = self.pairs[self.next];
            self.next += 1;
            Some(pair)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ReadCharges {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_turnoff_and_restore() {
        let mut p = FuPool::new(6, 4);
        p.set_enabled(UnitKind::IntAlu, 2, false);
        assert!(!p.is_available(UnitKind::IntAlu, 2));
        p.set_enabled(UnitKind::IntAlu, 2, true);
        assert!(p.is_available(UnitKind::IntAlu, 2));
    }

    #[test]
    fn static_order_skips_disabled_units() {
        let mut p = FuPool::new(4, 4);
        p.set_enabled(UnitKind::IntAlu, 0, false);
        let (units, len) = units_in_order(p.enabled_mask(UnitKind::IntAlu), 4, 0);
        assert_eq!(&units[..len], &[1, 2, 3]);
    }

    #[test]
    fn round_robin_order_rotates() {
        let mut p = FuPool::new(4, 4);
        let (units, len) = units_in_order(p.enabled_mask(UnitKind::FpAdd), 4, 2);
        assert_eq!(&units[..len], &[2, 3, 0, 1]);
        p.set_enabled(UnitKind::FpAdd, 3, false);
        let (units, len) = units_in_order(p.enabled_mask(UnitKind::FpAdd), 4, 2);
        assert_eq!(&units[..len], &[2, 0, 1], "the walk wraps past a disabled unit");
    }

    #[test]
    fn fp_mul_divide_occupies_unit() {
        let mut p = FuPool::new(1, 1);
        assert!(p.is_available(UnitKind::FpMul, 0));
        p.occupy_fp_mul(3);
        assert!(!p.is_available(UnitKind::FpMul, 0));
        p.tick();
        p.tick();
        assert!(!p.is_available(UnitKind::FpMul, 0));
        p.tick();
        assert!(p.is_available(UnitKind::FpMul, 0));
        p.occupy_fp_mul(5);
        p.tick_by(4);
        assert!(!p.is_available(UnitKind::FpMul, 0));
        p.tick_by(u64::MAX);
        assert!(p.is_available(UnitKind::FpMul, 0));
    }

    #[test]
    fn priority_wiring_turnoff_halves_the_machine() {
        let mut w = RegFileWiring::new(MappingPolicy::Priority, 6, 2);
        w.set_copy_enabled(0, false);
        let usable: Vec<bool> = (0..6).map(|a| w.alu_usable(a)).collect();
        assert_eq!(usable, vec![false, false, false, true, true, true]);
        assert_eq!(w.usable_mask(), 0b11_1000);
    }

    #[test]
    fn balanced_wiring_turnoff_interleaves() {
        let mut w = RegFileWiring::new(MappingPolicy::Balanced, 6, 2);
        w.set_copy_enabled(1, false);
        let usable: Vec<bool> = (0..6).map(|a| w.alu_usable(a)).collect();
        assert_eq!(usable, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn completely_balanced_needs_all_copies() {
        let mut w = RegFileWiring::new(MappingPolicy::CompletelyBalanced, 6, 2);
        assert!(w.alu_usable(0));
        w.set_copy_enabled(1, false);
        assert!((0..6).all(|a| !w.alu_usable(a)));
    }

    #[test]
    fn read_charges_follow_mapping() {
        let w = RegFileWiring::new(MappingPolicy::Priority, 6, 2);
        assert_eq!(w.read_charges(0, 2).collect::<Vec<_>>(), vec![(0, 2)]);
        assert_eq!(w.read_charges(5, 2).collect::<Vec<_>>(), vec![(1, 2)]);
        assert_eq!(w.read_charges(5, 0).collect::<Vec<_>>(), vec![]);

        let cb = RegFileWiring::new(MappingPolicy::CompletelyBalanced, 6, 2);
        let mut charges: Vec<_> = cb.read_charges(0, 2).collect();
        charges.sort_unstable();
        assert_eq!(charges, vec![(0, 1), (1, 1)], "one read per copy");
    }

    #[test]
    fn balanced_reads_concentrate_per_alu_but_spread_across_alus() {
        let w = RegFileWiring::new(MappingPolicy::Balanced, 6, 2);
        let mut per_copy = [0u64; 2];
        for alu in 0..6 {
            for (copy, n) in w.read_charges(alu, 2) {
                per_copy[copy] += n;
            }
        }
        assert_eq!(per_copy, [6, 6], "uniform ALU usage spreads evenly");
    }
}
