//! Architectural register names.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of integer architectural registers (Alpha-like).
pub const INT_ARCH_REGS: u8 = 32;
/// Number of floating-point architectural registers (Alpha-like).
pub const FP_ARCH_REGS: u8 = 32;
/// Total architectural register-name space (integer followed by FP).
pub const TOTAL_ARCH_REGS: u8 = INT_ARCH_REGS + FP_ARCH_REGS;

/// The register file class an architectural register belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RegClass {
    /// Integer register (renamed onto the integer physical register file,
    /// which has replicated copies in the simulated core).
    Int,
    /// Floating-point register.
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => f.write_str("int"),
            RegClass::Fp => f.write_str("fp"),
        }
    }
}

/// An architectural register name.
///
/// Registers are a flat `0..TOTAL_ARCH_REGS` space: indices below
/// [`INT_ARCH_REGS`] are integer registers, the rest are floating-point.
/// A dense `u8` representation keeps [`crate::MicroOp`] small, which matters
/// because the workload generator produces hundreds of millions of them.
///
/// # Examples
///
/// ```
/// use powerbalance_isa::{ArchReg, RegClass};
///
/// let r3 = ArchReg::int(3);
/// let f0 = ArchReg::fp(0);
/// assert_eq!(r3.class(), RegClass::Int);
/// assert_eq!(f0.class(), RegClass::Fp);
/// assert_ne!(r3, f0);
/// assert_eq!(r3.class_index(), 3);
/// assert_eq!(f0.class_index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ArchReg(u8);

/// Refuses a byte outside `0..TOTAL_ARCH_REGS`: register tables are
/// indexed by [`ArchReg::flat_index`], so a decoded name must fit them.
impl<'de> Deserialize<'de> for ArchReg {
    fn deserialize(value: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let raw = u8::deserialize(value)?;
        if raw < TOTAL_ARCH_REGS {
            Ok(ArchReg(raw))
        } else {
            Err(serde::json::Error::custom(format!(
                "register {raw} is outside the {TOTAL_ARCH_REGS}-register name space"
            )))
        }
    }
}

impl ArchReg {
    /// Creates an integer register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= INT_ARCH_REGS`.
    #[must_use]
    pub fn int(index: u8) -> Self {
        assert!(index < INT_ARCH_REGS, "integer register index {index} out of range");
        ArchReg(index)
    }

    /// Creates a floating-point register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= FP_ARCH_REGS`.
    #[must_use]
    pub fn fp(index: u8) -> Self {
        assert!(index < FP_ARCH_REGS, "fp register index {index} out of range");
        ArchReg(INT_ARCH_REGS + index)
    }

    /// The flat index into the combined `0..TOTAL_ARCH_REGS` name space.
    #[must_use]
    pub const fn flat_index(self) -> usize {
        self.0 as usize
    }

    /// The register whose flat index is `raw`, unchecked, as the trace
    /// ring unpacks it.
    pub(crate) const fn from_raw(raw: u8) -> Self {
        ArchReg(raw)
    }

    /// The index within this register's own class (e.g. `3` for both `r3`
    /// and `f3`).
    #[must_use]
    pub const fn class_index(self) -> u8 {
        if self.0 < INT_ARCH_REGS {
            self.0
        } else {
            self.0 - INT_ARCH_REGS
        }
    }

    /// Which register file this name lives in.
    #[must_use]
    pub const fn class(self) -> RegClass {
        if self.0 < INT_ARCH_REGS {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "r{}", self.class_index()),
            RegClass::Fp => write!(f, "f{}", self.class_index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_spaces_are_disjoint() {
        for i in 0..INT_ARCH_REGS {
            for j in 0..FP_ARCH_REGS {
                assert_ne!(ArchReg::int(i), ArchReg::fp(j));
            }
        }
    }

    #[test]
    fn class_index_round_trips() {
        for i in 0..INT_ARCH_REGS {
            assert_eq!(ArchReg::int(i).class_index(), i);
            assert_eq!(ArchReg::int(i).class(), RegClass::Int);
        }
        for i in 0..FP_ARCH_REGS {
            assert_eq!(ArchReg::fp(i).class_index(), i);
            assert_eq!(ArchReg::fp(i).class(), RegClass::Fp);
        }
    }

    #[test]
    fn flat_index_is_dense() {
        assert_eq!(ArchReg::int(0).flat_index(), 0);
        assert_eq!(ArchReg::fp(0).flat_index(), INT_ARCH_REGS as usize);
        assert_eq!(ArchReg::fp(FP_ARCH_REGS - 1).flat_index(), TOTAL_ARCH_REGS as usize - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_range_checked() {
        let _ = ArchReg::int(INT_ARCH_REGS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_range_checked() {
        let _ = ArchReg::fp(FP_ARCH_REGS);
    }

    #[test]
    fn decoding_refuses_names_outside_the_register_space() {
        let last = u64::from(TOTAL_ARCH_REGS) - 1;
        let decoded = ArchReg::deserialize(&serde::json::Value::U64(last)).expect("in range");
        assert_eq!(decoded, ArchReg::fp(FP_ARCH_REGS - 1));
        for raw in [u64::from(TOTAL_ARCH_REGS), 200] {
            let err = ArchReg::deserialize(&serde::json::Value::U64(raw)).expect_err("outside");
            assert!(err.to_string().contains(&format!("register {raw}")), "{err}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ArchReg::int(7).to_string(), "r7");
        assert_eq!(ArchReg::fp(12).to_string(), "f12");
    }
}
