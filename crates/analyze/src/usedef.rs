//! Per-instruction register use/definition sets — a thin projection of
//! the declarative effects layer ([`fracas_isa::effects`]).
//!
//! The static backward liveness ([`crate::liveness`]) consumes it per
//! basic-block instruction, the dynamic prune oracle ([`crate::prune`])
//! consumes it per committed trace event. Since PR 4 the sets are no
//! longer declared here: [`use_def`] projects the uses/defs halves of
//! [`Effects`], the single `InstKind` table the interpreter itself is
//! conformance-checked against (`Machine::set_effect_check`), so "the
//! analyzer's model agrees with the machine" is a machine-checked
//! invariant rather than two matches that happen to line up.
//!
//! The soundness contract is unchanged and now documented with the
//! table it constrains (see [`fracas_isa::effects`]): **`uses` may
//! over-approximate** (a spurious use only makes the oracle abstain and
//! fall back to real execution), while **`defs` must be exact
//! full-register overwrites** (a spurious def would prune a live
//! fault). On SIRA-32, writes to r15 are branches, not GPR definitions,
//! so bit 15 never appears in `defs.gprs`.

use fracas_isa::effects::Effects;
use fracas_isa::{Inst, IsaKind};

pub use fracas_isa::effects::{cond_reads, RegSet, FLAG_ALL, FLAG_C, FLAG_N, FLAG_V, FLAG_Z};

/// Use/definition summary of one instruction (condition reads
/// included).
#[derive(Debug, Clone, Copy, Default)]
pub struct UseDef {
    /// Registers the instruction may read (over-approximation allowed).
    pub uses: RegSet,
    /// Registers the instruction fully overwrites when it executes
    /// (exact; empty for annulled instructions).
    pub defs: RegSet,
    /// `Svc`: the kernel may read every GPR (arguments, exit codes).
    pub uses_all_gprs: bool,
}

/// The use/def sets of `inst` *when it executes* (predicate holds),
/// projected from [`Effects::of`]. An annulled conditional instruction
/// reads only [`cond_reads`] of its condition and defines nothing.
pub fn use_def(isa: IsaKind, inst: &Inst) -> UseDef {
    let fx = Effects::of(isa, inst);
    UseDef {
        uses: fx.uses,
        defs: fx.defs,
        uses_all_gprs: fx.uses_all_gprs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_isa::{AluOp, Cond, InstKind, Reg, Width};

    #[test]
    fn movimm_keep_reads_its_destination() {
        let keep = Inst::new(InstKind::MovImm {
            rd: Reg(3),
            imm: 7,
            shift: 1,
            keep: true,
        });
        let ud = use_def(IsaKind::Sira64, &keep);
        assert_eq!(ud.uses.gprs, 1 << 3);
        assert_eq!(ud.defs.gprs, 1 << 3);
        let fresh = Inst::new(InstKind::MovImm {
            rd: Reg(3),
            imm: 7,
            shift: 0,
            keep: false,
        });
        assert_eq!(use_def(IsaKind::Sira64, &fresh).uses.gprs, 0);
    }

    #[test]
    fn conditional_instruction_reads_its_flags() {
        let inst = Inst::when(
            Cond::Le,
            InstKind::AluImm {
                op: AluOp::Add,
                rd: Reg(1),
                rn: Reg(2),
                imm: 1,
            },
        );
        let ud = use_def(IsaKind::Sira32, &inst);
        assert_eq!(ud.uses.flags, FLAG_Z | FLAG_N | FLAG_V);
        assert_eq!(ud.defs.gprs, 1 << 1);
    }

    #[test]
    fn sira32_pc_write_is_not_a_gpr_def() {
        let inst = Inst::new(InstKind::Mov {
            rd: Reg(15),
            rm: Reg(14),
        });
        let ud = use_def(IsaKind::Sira32, &inst);
        assert_eq!(ud.defs.gprs, 0);
        assert_eq!(ud.uses.gprs, 1 << 14);
    }

    #[test]
    fn stores_read_their_data_register_loads_define_it() {
        let st = Inst::new(InstKind::St {
            width: Width::Byte,
            rd: Reg(5),
            rn: Reg(6),
            off: 0,
        });
        let ud = use_def(IsaKind::Sira64, &st);
        assert_eq!(ud.uses.gprs, (1 << 5) | (1 << 6));
        assert_eq!(ud.defs.gprs, 0);
        let ld = Inst::new(InstKind::Ld {
            width: Width::Byte,
            rd: Reg(5),
            rn: Reg(6),
            off: 0,
        });
        let ud = use_def(IsaKind::Sira64, &ld);
        assert_eq!(ud.defs.gprs, 1 << 5);
    }

    #[test]
    fn svc_reads_every_gpr() {
        let ud = use_def(IsaKind::Sira64, &Inst::new(InstKind::Svc { imm: 0 }));
        assert!(ud.uses_all_gprs);
        assert_eq!(ud.defs, RegSet::EMPTY);
    }
}
