//! Core configuration.

use crate::iq::{MAX_IQ_SIZE, MAX_LANE_IDS};
use serde::{Deserialize, Serialize};

/// How integer ALUs are wired to register-file copies (paper Figure 4).
///
/// Every ALU needs two read ports. With two register-file copies the wiring
/// choice determines which copy heats when the statically-prioritized select
/// logic concentrates issue on the low-numbered ALUs:
///
/// * [`Balanced`](MappingPolicy::Balanced) interleaves priorities across
///   copies (ALUs 0,2,4 → copy 0; ALUs 1,3,5 → copy 1), so both copies heat
///   at similar, slower rates — "simplified balanced mapping".
/// * [`Priority`](MappingPolicy::Priority) groups priorities (ALUs 0,1,2 →
///   copy 0; ALUs 3,4,5 → copy 1), concentrating reads in copy 0 until it
///   overheats — the paper's counter-intuitive recommendation when combined
///   with fine-grain turnoff.
/// * [`CompletelyBalanced`](MappingPolicy::CompletelyBalanced) gives every
///   ALU one read port on *each* copy; perfectly symmetric but requires the
///   long cross-datapath wires the paper rejects (modeled for comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Interleave high- and low-priority ALUs across copies.
    Balanced,
    /// Group high-priority ALUs on copy 0, low-priority on copy 1.
    Priority,
    /// One read port per ALU on every copy (long-wire reference design).
    CompletelyBalanced,
}

impl MappingPolicy {
    /// Register-file copy serving reads for `alu` under this mapping, given
    /// `alus` total ALUs and `copies` register-file copies.
    ///
    /// For [`CompletelyBalanced`](MappingPolicy::CompletelyBalanced) reads
    /// are split across all copies; this returns the copy for the *first*
    /// read port (the second goes to the next copy, wrapping).
    #[must_use]
    pub fn copy_for_alu(self, alu: usize, alus: usize, copies: usize) -> usize {
        debug_assert!(alu < alus);
        match self {
            MappingPolicy::Balanced => alu % copies,
            MappingPolicy::Priority => (alu * copies) / alus,
            MappingPolicy::CompletelyBalanced => alu % copies,
        }
    }
}

/// Instruction-select policy across the per-ALU select trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectPolicy {
    /// Conventional static priority: tree 0 (ALU 0) selects first, then
    /// tree 1 masked by tree 0's grant, and so on. Simple, but concentrates
    /// utilization on low-numbered ALUs.
    Static,
    /// Ideal round-robin: the tree ordering rotates every cycle, spreading
    /// utilization evenly. The paper treats this as an upper bound that
    /// would require "completely redesigning the select trees".
    RoundRobin,
}

/// Head/tail configuration of a compacting issue queue (paper §2.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IqMode {
    /// Conventional: head (oldest, highest priority) at physical entry 0.
    Normal,
    /// Activity-toggled: head at the middle of the queue; compaction wraps
    /// from the bottom of the queue to the topmost entries over the long
    /// wrap wires.
    Toggled,
}

impl IqMode {
    /// The other mode.
    #[must_use]
    pub fn flipped(self) -> IqMode {
        match self {
            IqMode::Normal => IqMode::Toggled,
            IqMode::Toggled => IqMode::Normal,
        }
    }
}

/// A deterministic duty cycle for throttling a pipeline resource.
///
/// The cycle is divided into repeating windows of `period` cycles; the
/// first `on` cycles of each window run normally and the remaining
/// `period - on` cycles are gated. Gating is keyed off the core's cycle
/// counter (`now % period`), so a duty cycle carries no phase state of its
/// own and snapshots resume bit-identically. The default (`1/1`) never
/// gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DutyCycle {
    /// Cycles that run normally at the start of each window.
    pub on: u32,
    /// Window length in cycles.
    pub period: u32,
}

impl DutyCycle {
    /// A duty cycle of `on` run cycles per `period`-cycle window.
    #[must_use]
    pub const fn new(on: u32, period: u32) -> Self {
        DutyCycle { on, period }
    }

    /// The always-on duty cycle.
    #[must_use]
    pub const fn full() -> Self {
        DutyCycle { on: 1, period: 1 }
    }

    /// Whether cycle `now` falls in the gated portion of the window.
    #[must_use]
    pub fn gates(self, now: u64) -> bool {
        self.on < self.period && now % u64::from(self.period) >= u64::from(self.on)
    }

    /// Number of consecutive ungated cycles starting at cycle `now` (0 when
    /// `now` is gated; `u64::MAX` when the duty cycle never gates).
    #[must_use]
    pub fn ungated_run(self, now: u64) -> u64 {
        if self.on >= self.period {
            return u64::MAX;
        }
        u64::from(self.on).saturating_sub(now % u64::from(self.period))
    }

    /// The fraction of cycles that run.
    #[must_use]
    pub fn fraction(self) -> f64 {
        f64::from(self.on) / f64::from(self.period)
    }

    /// Validates the duty cycle.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem: a zero-length window, a window
    /// with no run cycles (the pipeline would deadlock), or more run cycles
    /// than the window holds.
    pub fn validate(self) -> Result<(), String> {
        if self.period == 0 {
            return Err("duty period must be positive".into());
        }
        if self.on == 0 {
            return Err("duty cycle must keep at least one run cycle per window".into());
        }
        if self.on > self.period {
            return Err(format!("duty on ({}) exceeds period ({})", self.on, self.period));
        }
        Ok(())
    }
}

impl Default for DutyCycle {
    fn default() -> Self {
        DutyCycle::full()
    }
}

/// Cache geometry and timing for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles (on a hit).
    pub latency: u32,
}

impl CacheConfig {
    /// 64 KB, 4-way, 2-cycle L1 (paper Table 2).
    #[must_use]
    pub const fn l1_default() -> Self {
        CacheConfig { size_bytes: 64 * 1024, ways: 4, line_bytes: 64, latency: 2 }
    }

    /// 2 MB, 8-way unified L2 (paper Table 2).
    #[must_use]
    pub const fn l2_default() -> Self {
        CacheConfig { size_bytes: 2 * 1024 * 1024, ways: 8, line_bytes: 64, latency: 12 }
    }
}

/// Full configuration of the simulated core.
///
/// Defaults follow the paper's Table 2: 6-wide out-of-order issue, 128-entry
/// active list with a 64-entry load/store queue, 32-entry integer and
/// floating-point issue queues, 6 integer ALUs, 4 FP adders, two integer
/// register-file copies, 64 KB 2-cycle L1s, 2 MB L2, 250-cycle memory.
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{CoreConfig, MappingPolicy};
///
/// let cfg = CoreConfig {
///     mapping: MappingPolicy::Priority,
///     ..CoreConfig::default()
/// };
/// assert_eq!(cfg.int_alus, 6);
/// cfg.validate().expect("default config is valid");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Active-list (reorder buffer) entries.
    pub rob_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Entries in each of the integer and FP issue queues (an even number
    /// from 4 to 64).
    pub iq_size: usize,
    /// Integer ALUs (arithmetic, load/store, and branch units).
    pub int_alus: usize,
    /// Floating-point adders.
    pub fp_adders: usize,
    /// Integer register-file copies.
    pub int_rf_copies: usize,
    /// ALU-to-register-file-copy wiring.
    pub mapping: MappingPolicy,
    /// Select-tree ordering policy.
    pub select_policy: SelectPolicy,
    /// Data-cache read ports (bounds memory issues per cycle).
    pub dcache_ports: usize,
    /// Cycles between fetch and earliest dispatch (front-end depth).
    pub frontend_delay: u32,
    /// Cycles an issued entry stays in the queue before it is marked
    /// invalid and becomes compactable (load-replay safety window).
    pub replay_window: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u32,
    /// gshare global-history bits.
    pub bpred_history_bits: u32,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 6,
            dispatch_width: 6,
            commit_width: 6,
            rob_size: 128,
            lsq_size: 64,
            iq_size: 32,
            int_alus: 6,
            fp_adders: 4,
            int_rf_copies: 2,
            mapping: MappingPolicy::Balanced,
            select_policy: SelectPolicy::Static,
            dcache_ports: 2,
            frontend_delay: 3,
            replay_window: 2,
            l1i: CacheConfig::l1_default(),
            l1d: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            memory_latency: 250,
            bpred_history_bits: 12,
            btb_entries: 2048,
        }
    }
}

impl CoreConfig {
    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: zero-sized
    /// structures, an active list whose ids do not fit the issue queues'
    /// 16-bit id lanes, an odd issue-queue size (halves must be equal),
    /// more register-file copies than ALUs, or a cache with zero ways, a
    /// zero line size or non-power-of-two geometry.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.dispatch_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be positive".into());
        }
        if self.rob_size == 0 || self.lsq_size == 0 {
            return Err("active list and LSQ must be non-empty".into());
        }
        if self.rob_size > MAX_LANE_IDS {
            return Err(format!(
                "active list size {} exceeds the limit of {MAX_LANE_IDS} entries (16-bit ids)",
                self.rob_size
            ));
        }
        if self.iq_size < 4 || !self.iq_size.is_multiple_of(2) {
            return Err("issue queue size must be an even number >= 4".into());
        }
        if self.iq_size > MAX_IQ_SIZE {
            return Err(format!(
                "issue queue size {} exceeds the limit of {MAX_IQ_SIZE} entries",
                self.iq_size
            ));
        }
        if self.int_alus == 0 || self.fp_adders == 0 {
            return Err("need at least one unit of each kind".into());
        }
        if self.int_rf_copies == 0 || self.int_rf_copies > self.int_alus {
            return Err("register-file copies must be in 1..=int_alus".into());
        }
        if !self.int_alus.is_multiple_of(self.int_rf_copies) {
            return Err("ALU count must divide evenly across register-file copies".into());
        }
        if self.dcache_ports == 0 {
            return Err("need at least one data-cache port".into());
        }
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            let Some(set_bytes) = u64::from(c.ways).checked_mul(c.line_bytes).filter(|&b| b > 0)
            else {
                return Err(format!(
                    "{name}: ways and line size must be positive, their product 64-bit"
                ));
            };
            let sets = c.size_bytes / set_bytes;
            if sets == 0 || !sets.is_power_of_two() || !c.line_bytes.is_power_of_two() {
                return Err(format!("{name}: sets and line size must be powers of two"));
            }
        }
        if self.bpred_history_bits == 0 || self.bpred_history_bits > 20 {
            return Err("bpred history bits must be in 1..=20".into());
        }
        if !self.btb_entries.is_power_of_two() {
            return Err("BTB entries must be a power of two".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_table2() {
        let c = CoreConfig::default();
        c.validate().expect("default must validate");
        assert_eq!(c.dispatch_width, 6);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.iq_size, 32);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l1d.ways, 4);
        assert_eq!(c.l1d.latency, 2);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.memory_latency, 250);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.fp_adders, 4);
    }

    #[test]
    fn issue_queue_is_capped_at_64_entries() {
        let c = CoreConfig { iq_size: 64, ..CoreConfig::default() };
        c.validate().expect("64 entries fit the queue's rank masks");
        let c = CoreConfig { iq_size: 66, ..CoreConfig::default() };
        let err = c.validate().expect_err("66 entries exceed the cap");
        assert!(err.contains("limit of 64"), "message names the limit: {err}");
    }

    #[test]
    fn active_list_is_capped_at_the_id_lanes() {
        let c = CoreConfig { rob_size: 1 << 16, ..CoreConfig::default() };
        c.validate().expect("ids 0..2^16 fit the 16-bit lanes");
        for rob_size in [(1 << 16) + 1, 1 << 40] {
            let c = CoreConfig { rob_size, ..CoreConfig::default() };
            let err = c.validate().expect_err("ids past 16 bits are refused");
            assert!(err.contains("limit of 65536"), "message names the limit: {err}");
        }
    }

    #[test]
    fn caches_without_ways_or_lines_are_refused_not_divided_by() {
        for (ways, line_bytes) in [(0, 64), (4, 0), (0, 0), (u32::MAX, u64::MAX)] {
            let mut c = CoreConfig::default();
            c.l2.ways = ways;
            c.l2.line_bytes = line_bytes;
            let err = c.validate().expect_err("degenerate cache geometry");
            assert!(err.starts_with("l2:"), "message names the cache: {err}");
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = CoreConfig { iq_size: 31, ..CoreConfig::default() };
        assert!(c.validate().is_err());

        // 6 ALUs do not divide across 4 copies.
        let c = CoreConfig { int_rf_copies: 4, ..CoreConfig::default() };
        assert!(c.validate().is_err());

        let mut c = CoreConfig::default();
        c.l1d.size_bytes = 60 * 1024;
        assert!(c.validate().is_err());

        let c = CoreConfig { btb_entries: 1000, ..CoreConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn balanced_mapping_interleaves() {
        let m = MappingPolicy::Balanced;
        let copies: Vec<usize> = (0..6).map(|a| m.copy_for_alu(a, 6, 2)).collect();
        assert_eq!(copies, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn priority_mapping_groups() {
        let m = MappingPolicy::Priority;
        let copies: Vec<usize> = (0..6).map(|a| m.copy_for_alu(a, 6, 2)).collect();
        assert_eq!(copies, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn priority_mapping_matches_figure4_with_four_alus() {
        // Figure 4 uses 4 ALUs and 2 copies: priority 0,1 -> copy 0; 2,3 -> copy 1.
        let m = MappingPolicy::Priority;
        let copies: Vec<usize> = (0..4).map(|a| m.copy_for_alu(a, 4, 2)).collect();
        assert_eq!(copies, vec![0, 0, 1, 1]);
    }

    #[test]
    fn iq_mode_flips() {
        assert_eq!(IqMode::Normal.flipped(), IqMode::Toggled);
        assert_eq!(IqMode::Toggled.flipped(), IqMode::Normal);
    }

    #[test]
    fn full_duty_never_gates() {
        let d = DutyCycle::full();
        for now in 0..100 {
            assert!(!d.gates(now));
        }
        assert!((d.fraction() - 1.0).abs() < 1e-12);
        d.validate().expect("full duty is valid");
    }

    #[test]
    fn duty_gates_the_tail_of_each_window() {
        let d = DutyCycle::new(3, 4);
        let gated: Vec<bool> = (0..8).map(|now| d.gates(now)).collect();
        assert_eq!(gated, vec![false, false, false, true, false, false, false, true]);
        assert!((d.fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn duty_validation_rejects_degenerate_windows() {
        assert!(DutyCycle::new(0, 4).validate().is_err(), "no run cycles deadlocks");
        assert!(DutyCycle::new(1, 0).validate().is_err(), "zero-length window");
        assert!(DutyCycle::new(5, 4).validate().is_err(), "on exceeds period");
        DutyCycle::new(4, 4).validate().expect("saturated duty is valid");
    }
}
