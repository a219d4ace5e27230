//! Fine-grained activity counters consumed by the power model.
//!
//! The core increments these counters as it simulates; the power model
//! drains them once per thermal sampling window ([`Core::take_activity`])
//! and converts counts to Joules using its energy tables. Keeping the
//! counters here (rather than energies) keeps the core independent of any
//! particular power model.
//!
//! [`Core::take_activity`]: crate::Core::take_activity

use serde::{Deserialize, Serialize};

/// Per-issue-queue activity, split by physical queue half where the paper's
/// asymmetry argument requires it (paper §2.1, §3.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IqActivity {
    /// Entry movements during compaction (entry-to-entry data wires),
    /// attributed to the physical half the moving entry occupied.
    pub compact_moves: [u64; 2],
    /// Mux-select wire charges (one per moved entry), by half.
    pub mux_selects: [u64; 2],
    /// Wrap-around movements over the long cross-queue wires (only occur in
    /// the toggled head-at-middle mode), by destination half.
    pub long_moves: [u64; 2],
    /// Occupied entries scanned by the invalids counter on compaction
    /// cycles, by half.
    pub counter_entries: [u64; 2],
    /// Cycles the clock-gating control logic was active (every cycle).
    pub gating_cycles: u64,
    /// Destination-tag broadcasts into the queue (global; paper distributes
    /// this power evenly over both halves).
    pub broadcasts: u64,
    /// Payload-RAM accesses: one write per insert plus one read per issue
    /// (global, evenly distributed).
    pub payload_accesses: u64,
    /// Select-tree grants (one per issued instruction; global).
    pub selects: u64,
}

impl IqActivity {
    /// Sum of both halves' compaction movements.
    #[must_use]
    pub fn total_moves(&self) -> u64 {
        self.compact_moves[0] + self.compact_moves[1]
    }
}

/// Activity counts for one sampling window.
///
/// Array sizes are fixed at the paper's configuration (6 integer ALUs,
/// 4 FP adders, 2 integer register-file copies); smaller configurations
/// simply leave trailing slots at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivitySample {
    /// Cycles covered by this sample.
    pub cycles: u64,
    /// Integer issue-queue activity.
    pub int_iq: IqActivity,
    /// Floating-point issue-queue activity.
    pub fp_iq: IqActivity,
    /// Operations executed per integer ALU.
    pub int_alu_ops: [u64; 6],
    /// Operations executed per FP adder.
    pub fp_add_ops: [u64; 4],
    /// Operations executed on the FP multiplier.
    pub fp_mul_ops: u64,
    /// Read-port accesses per integer register-file copy.
    pub int_rf_reads: [u64; 2],
    /// Write-port accesses per integer register-file copy.
    pub int_rf_writes: [u64; 2],
    /// FP register-file reads (single copy).
    pub fp_rf_reads: u64,
    /// FP register-file writes.
    pub fp_rf_writes: u64,
    /// L1 instruction-cache accesses.
    pub icache_accesses: u64,
    /// L1 data-cache accesses.
    pub dcache_accesses: u64,
    /// Branch-predictor lookups.
    pub bpred_lookups: u64,
    /// Rename/map-table operations.
    pub rename_ops: u64,
    /// Active-list (ROB) allocations + retirements.
    pub rob_ops: u64,
    /// Load/store-queue allocations + retirements.
    pub lsq_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = ActivitySample::default();
        assert_eq!(s.int_alu_ops, [0; 6]);
        assert_eq!(s.int_iq.total_moves(), 0);
    }
}
