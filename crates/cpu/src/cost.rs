//! Instruction timing models.

use fracas_isa::effects::CostClass;
use fracas_isa::IsaKind;

/// Per-instruction-class cycle costs for one CPU model.
///
/// The two presets model the relative behaviour of the paper's cores:
/// the Cortex-A72 analogue ([`CostModel::a72`]) has roughly half the
/// effective per-instruction cost of the Cortex-A9 analogue
/// ([`CostModel::a9`]) thanks to its wider issue, on top of which the
/// SIRA-64 ISA avoids the software-FP blow-up entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of a simple ALU/move/compare instruction.
    pub base: u32,
    /// Cost of an integer multiply.
    pub mul: u32,
    /// Cost of an integer divide/remainder.
    pub div: u32,
    /// Cost of a load/store that hits L1 (miss penalties come from the
    /// cache model on top).
    pub mem: u32,
    /// Extra cost of a taken branch (pipeline redirect).
    pub branch_taken: u32,
    /// Cost of FP add/sub/compare/moves.
    pub fp_add: u32,
    /// Cost of FP multiply.
    pub fp_mul: u32,
    /// Cost of FP divide.
    pub fp_div: u32,
    /// Cost of FP square root.
    pub fp_sqrt: u32,
    /// Cost of a supervisor call (trap entry/exit overhead).
    pub svc: u32,
}

impl CostModel {
    /// Cortex-A9-like timing for SIRA-32.
    pub fn a9() -> CostModel {
        CostModel {
            base: 2,
            mul: 8,
            div: 32,
            mem: 3,
            branch_taken: 4,
            // SIRA-32 has no hardware FP; these apply only if FP
            // instructions are (illegally) executed.
            fp_add: 8,
            fp_mul: 10,
            fp_div: 40,
            fp_sqrt: 48,
            svc: 30,
        }
    }

    /// Cortex-A72-like timing for SIRA-64.
    pub fn a72() -> CostModel {
        CostModel {
            base: 1,
            mul: 3,
            div: 12,
            mem: 2,
            branch_taken: 2,
            fp_add: 3,
            fp_mul: 3,
            fp_div: 12,
            fp_sqrt: 16,
            svc: 20,
        }
    }

    /// The default model for an ISA (A9 for SIRA-32, A72 for SIRA-64).
    pub fn for_isa(isa: IsaKind) -> CostModel {
        match isa {
            IsaKind::Sira32 => CostModel::a9(),
            IsaKind::Sira64 => CostModel::a72(),
        }
    }

    /// Cycles charged for one instruction of the given static cost
    /// class — the entire per-instruction charge except the two dynamic
    /// surcharges (cache-miss penalties and the taken-branch redirect
    /// cost), which the interpreter adds separately.
    ///
    /// Specialised instructions charge the base issue cost plus the
    /// amount by which their unit cost exceeds it (so a `mul` cheaper
    /// than `base` still costs `base`); atomics and FP ops charge their
    /// unit cost fully on top of issue; a supervisor call's trap
    /// entry/exit overhead replaces the base cost entirely.
    ///
    /// The production interpreter does not call this per step: the
    /// machine prefolds `charge` over every class into a dense table
    /// when it is built or restored, and each
    /// predecoded instruction carries its class as an index into it.
    pub fn charge(&self, class: CostClass) -> u32 {
        match class {
            CostClass::Base => self.base,
            CostClass::Mul => self.base + self.mul - self.base.min(self.mul),
            CostClass::Div => self.base + self.div - self.base.min(self.div),
            CostClass::Mem => self.base + self.mem - self.base.min(self.mem),
            CostClass::Atomic => self.base + self.mem,
            CostClass::FpAdd => self.base + self.fp_add,
            CostClass::FpMul => self.base + self.fp_mul,
            CostClass::FpDiv => self.base + self.fp_div,
            CostClass::FpSqrt => self.base + self.fp_sqrt,
            CostClass::Svc => self.svc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a72_is_uniformly_cheaper() {
        let a9 = CostModel::a9();
        let a72 = CostModel::a72();
        assert!(a72.base <= a9.base);
        assert!(a72.mul < a9.mul);
        assert!(a72.div < a9.div);
        assert!(a72.mem < a9.mem);
        assert!(a72.branch_taken < a9.branch_taken);
        assert!(a72.svc < a9.svc);
    }

    #[test]
    fn isa_defaults() {
        assert_eq!(CostModel::for_isa(IsaKind::Sira32), CostModel::a9());
        assert_eq!(CostModel::for_isa(IsaKind::Sira64), CostModel::a72());
    }
}
