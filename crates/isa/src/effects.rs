//! The declarative instruction-effects layer: one derived description
//! of everything an instruction does to architectural state.
//!
//! Every consumer that needs per-instruction semantics — the
//! interpreter's cycle accounting (`fracas-cpu`), the liveness and CFG
//! analyses behind provably-masked fault pruning (`fracas-analyze`), and
//! the binary-level dead-write lint (`fracas-lang`) — projects the same
//! [`Effects`] value instead of keeping its own `InstKind` match. A
//! drifted copy of this table is not a style problem: the prune oracle
//! classifies fault outcomes *without executing them*, so a wrong def
//! set silently corrupts every pruned fault database. Centralising the
//! table turns "the matches happen to agree" into a checkable invariant:
//! the interpreter can be run under a conformance checker
//! (`Machine::set_effect_check`) that asserts every architectural write,
//! PC update and cycle charge matches the declaration here, and a
//! property test perturbs registers outside the declared use set and
//! asserts the instruction cannot tell the difference.
//!
//! ## The USE-over-approximate / DEF-exact contract
//!
//! The two directions of error have different costs for the pruning
//! oracle, so the contract is asymmetric:
//!
//! * **`uses` may over-approximate.** A spurious use only makes the
//!   oracle abstain and fall back to real execution — conservative but
//!   correct. `Svc` is the extreme case: the kernel may read any
//!   argument register, so it is modelled as reading *every* GPR
//!   ([`Effects::uses_all_gprs`]). The interpreter also genuinely reads
//!   both FP sources even for unary [`FpOp`]s, so both appear in `uses`.
//! * **`defs` must be exact full-register overwrites.** A definition
//!   kills a pending fault without executing it, so `defs` contains a
//!   register only when the instruction unconditionally rewrites all of
//!   its bits (every interpreter register write is full-width, including
//!   zero-extending sub-word loads). `MovImm { keep: true }` reads the
//!   register it writes and therefore appears in `uses` as well; flag
//!   definitions only come from `Cmp`/`CmpImm`/`FpCmp`, which write all
//!   four NZCV bits.
//!
//! On SIRA-32 register 15 is the architected PC: writes to it are
//! branches, not GPR definitions, so bit 15 is stripped from
//! `defs.gprs`, [`Effects::pc_def`] is set and the control-flow kind
//! becomes [`CtrlFlow::Indirect`] (reads of r15 stay in `uses.gprs`,
//! harmlessly — PC faults are handled by the fetch rule, not by the GPR
//! masks).

use crate::{AluOp, Cond, FReg, FpOp, Inst, InstKind, IsaKind, Reg, Width};

/// Negative-flag mask bit, aligned with the injector's `flip_flag`
/// `which` index (`1 << which`).
pub const FLAG_N: u8 = 1 << 0;
/// Zero flag.
pub const FLAG_Z: u8 = 1 << 1;
/// Carry flag.
pub const FLAG_C: u8 = 1 << 2;
/// Overflow flag.
pub const FLAG_V: u8 = 1 << 3;
/// All four NZCV flags.
pub const FLAG_ALL: u8 = FLAG_N | FLAG_Z | FLAG_C | FLAG_V;

/// The NZCV bits a condition code reads to decide whether it holds.
pub fn cond_reads(cond: Cond) -> u8 {
    match cond {
        Cond::Al => 0,
        Cond::Eq | Cond::Ne => FLAG_Z,
        Cond::Lt | Cond::Ge => FLAG_N | FLAG_V,
        Cond::Le | Cond::Gt => FLAG_Z | FLAG_N | FLAG_V,
        Cond::Lo | Cond::Hs => FLAG_C,
        Cond::Ls | Cond::Hi => FLAG_C | FLAG_Z,
        Cond::Mi | Cond::Pl => FLAG_N,
    }
}

/// A set of architectural registers: GPR and FPR index bitmasks plus an
/// NZCV mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegSet {
    /// GPR indices as a bitmask (bit `i` = register `i`).
    pub gprs: u32,
    /// FPR indices as a bitmask.
    pub fprs: u32,
    /// NZCV flags as a [`FLAG_N`]-style mask.
    pub flags: u8,
}

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet {
        gprs: 0,
        fprs: 0,
        flags: 0,
    };

    /// Set union.
    #[must_use]
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet {
            gprs: self.gprs | other.gprs,
            fprs: self.fprs | other.fprs,
            flags: self.flags | other.flags,
        }
    }

    /// True when the sets share any register or flag.
    pub fn intersects(self, other: RegSet) -> bool {
        self.gprs & other.gprs != 0 || self.fprs & other.fprs != 0 || self.flags & other.flags != 0
    }

    /// Set difference (`self` minus `other`).
    #[must_use]
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet {
            gprs: self.gprs & !other.gprs,
            fprs: self.fprs & !other.fprs,
            flags: self.flags & !other.flags,
        }
    }
}

/// How an instruction leaves the program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlFlow {
    /// Control always falls through to the next instruction.
    Fall,
    /// PC-relative branch by `off` words from the next instruction
    /// (conditional via the instruction's condition field). `link` set
    /// for `bl`: the link register receives the return address and the
    /// fall-through instruction stays reachable via the callee's `ret`.
    Relative {
        /// Word offset relative to the next instruction.
        off: i32,
        /// True when the instruction also writes the link register.
        link: bool,
    },
    /// Branch to a register value: `blr` (`link`) or `ret`, plus
    /// SIRA-32 instructions whose destination is r15/PC (see
    /// [`Effects::pc_def`]). The target is statically unknown.
    Indirect {
        /// True when the instruction also writes the link register.
        link: bool,
    },
    /// Trap into the kernel; the PC advances past the `svc`.
    Svc,
    /// Stops the core; the PC advances past the `halt`.
    Halt,
}

/// An instruction's data-memory access, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEffect {
    /// No data-memory access.
    None,
    /// One load of the given width.
    Load(Width),
    /// One store of the given width.
    Store(Width),
    /// One atomic word-wide read-modify-write (`swp`/`amoadd`): a load
    /// and a store of the same address in one step.
    Amo,
    /// One 8-byte FP-register load.
    LoadFp,
    /// One 8-byte FP-register store.
    StoreFp,
}

/// The class of synchronous trap an instruction's *execute* stage can
/// raise. Fetch-stage traps (misaligned PC, permission, illegal
/// encoding) can hit any instruction and are not part of its effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapClass {
    /// Cannot trap during execution.
    None,
    /// Division by zero (`sdiv`/`srem`).
    DivByZero,
    /// Memory fault (alignment, permission, out of range) from the
    /// instruction's data access.
    Memory,
}

/// The static cycle-cost class of an instruction — which `CostModel`
/// bucket (in `fracas-cpu`) the interpreter charges, *excluding*
/// dynamic surcharges: cache-miss penalties and the taken-branch
/// redirect cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CostClass {
    /// A simple ALU/move/compare/branch instruction: the base cost.
    Base = 0,
    /// Integer multiply (`mul`/`muh`).
    Mul,
    /// Integer divide/remainder.
    Div,
    /// One load or store.
    Mem,
    /// An atomic read-modify-write: base plus the full memory cost.
    Atomic,
    /// FP add/sub/neg/abs/mov/compare/convert.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// FP square root.
    FpSqrt,
    /// Supervisor call (trap entry/exit overhead replaces the base
    /// cost).
    Svc,
}

impl CostClass {
    /// All cost classes, in discriminant order (so
    /// `ALL[class as usize] == class` — the predecoded interpreter
    /// indexes its charge table by the raw discriminant).
    pub const ALL: [CostClass; CostClass::COUNT] = [
        CostClass::Base,
        CostClass::Mul,
        CostClass::Div,
        CostClass::Mem,
        CostClass::Atomic,
        CostClass::FpAdd,
        CostClass::FpMul,
        CostClass::FpDiv,
        CostClass::FpSqrt,
        CostClass::Svc,
    ];
    /// Number of cost classes (charge-table length).
    pub const COUNT: usize = 10;
}

/// The static cost class of an instruction kind (ISA-independent).
///
/// Split out of [`Effects::of`] so the interpreter's per-step cycle
/// accounting can key off the class without materialising the full
/// register sets on the hot path.
pub fn cost_class(kind: &InstKind) -> CostClass {
    match *kind {
        InstKind::Alu { op, .. } | InstKind::AluImm { op, .. } => match op {
            AluOp::Mul | AluOp::Muh => CostClass::Mul,
            AluOp::Sdiv | AluOp::Srem => CostClass::Div,
            _ => CostClass::Base,
        },
        InstKind::Ld { .. }
        | InstKind::St { .. }
        | InstKind::LdR { .. }
        | InstKind::StR { .. }
        | InstKind::FLd { .. }
        | InstKind::FSt { .. }
        | InstKind::FLdR { .. }
        | InstKind::FStR { .. } => CostClass::Mem,
        InstKind::Swp { .. } | InstKind::AmoAdd { .. } => CostClass::Atomic,
        InstKind::Fp { op, .. } => match op {
            FpOp::Fadd | FpOp::Fsub | FpOp::Fneg | FpOp::Fabs | FpOp::Fmov => CostClass::FpAdd,
            FpOp::Fmul => CostClass::FpMul,
            FpOp::Fdiv => CostClass::FpDiv,
            FpOp::Fsqrt => CostClass::FpSqrt,
        },
        InstKind::FpCmp { .. } | InstKind::Fcvtzs { .. } | InstKind::Scvtf { .. } => {
            CostClass::FpAdd
        }
        InstKind::Svc { .. } => CostClass::Svc,
        InstKind::Nop
        | InstKind::Halt
        | InstKind::Ret
        | InstKind::Cmp { .. }
        | InstKind::CmpImm { .. }
        | InstKind::MovImm { .. }
        | InstKind::Mov { .. }
        | InstKind::Mvn { .. }
        | InstKind::B { .. }
        | InstKind::Bl { .. }
        | InstKind::Blr { .. }
        | InstKind::FMovToFp { .. }
        | InstKind::FMovFromFp { .. } => CostClass::Base,
    }
}

/// Everything one instruction does to architectural state, derived from
/// its [`InstKind`] (and the ISA, for register-file projections): exact
/// register reads and full-register writes, control flow, data-memory
/// access, executable trap class and cycle-cost class.
///
/// The sets describe the instruction *when it executes* (its condition
/// holds). An annulled conditional instruction reads only
/// [`cond_reads`] of its condition and defines nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effects {
    /// Registers the instruction may read, condition flag reads
    /// included (over-approximation allowed — see the module docs).
    pub uses: RegSet,
    /// Registers the instruction fully overwrites when it executes
    /// (exact full-register writes only; empty for annulled
    /// instructions).
    pub defs: RegSet,
    /// `Svc`: the kernel may read every GPR (arguments, exit codes).
    pub uses_all_gprs: bool,
    /// How the instruction leaves the PC.
    pub ctrl: CtrlFlow,
    /// True when the [`CtrlFlow::Indirect`] classification comes from a
    /// SIRA-32 register-file write to r15/PC rather than from
    /// `blr`/`ret`. Such writes redirect the PC *without* the
    /// taken-branch cycle surcharge.
    pub pc_def: bool,
    /// The instruction's data-memory access.
    pub mem: MemEffect,
    /// The class of trap the execute stage can raise.
    pub trap: TrapClass,
    /// The static cycle-cost class.
    pub cost: CostClass,
}

fn gpr(r: Reg) -> RegSet {
    RegSet {
        gprs: 1 << r.index(),
        ..RegSet::EMPTY
    }
}

fn fpr(f: FReg) -> RegSet {
    RegSet {
        fprs: 1 << f.index(),
        ..RegSet::EMPTY
    }
}

fn flags(mask: u8) -> RegSet {
    RegSet {
        flags: mask,
        ..RegSet::EMPTY
    }
}

impl Effects {
    /// Derives the effects of `inst` under `isa`.
    pub fn of(isa: IsaKind, inst: &Inst) -> Effects {
        let mut fx = Effects {
            uses: flags(cond_reads(inst.cond)),
            defs: RegSet::EMPTY,
            uses_all_gprs: false,
            ctrl: CtrlFlow::Fall,
            pc_def: false,
            mem: MemEffect::None,
            trap: TrapClass::None,
            cost: cost_class(&inst.kind),
        };
        match inst.kind {
            InstKind::Nop => {}
            InstKind::Halt => fx.ctrl = CtrlFlow::Halt,
            InstKind::Svc { .. } => {
                fx.uses_all_gprs = true;
                fx.ctrl = CtrlFlow::Svc;
            }
            InstKind::Ret => {
                fx.uses = fx.uses.union(gpr(isa.lr()));
                fx.ctrl = CtrlFlow::Indirect { link: false };
            }
            InstKind::Alu { op, rd, rn, rm } => {
                fx.uses = fx.uses.union(gpr(rn)).union(gpr(rm));
                fx.defs = fx.defs.union(gpr(rd));
                if matches!(op, AluOp::Sdiv | AluOp::Srem) {
                    fx.trap = TrapClass::DivByZero;
                }
            }
            InstKind::AluImm { op, rd, rn, .. } => {
                fx.uses = fx.uses.union(gpr(rn));
                fx.defs = fx.defs.union(gpr(rd));
                if matches!(op, AluOp::Sdiv | AluOp::Srem) {
                    fx.trap = TrapClass::DivByZero;
                }
            }
            InstKind::Cmp { rn, rm } => {
                fx.uses = fx.uses.union(gpr(rn)).union(gpr(rm));
                fx.defs = fx.defs.union(flags(FLAG_ALL));
            }
            InstKind::CmpImm { rn, .. } => {
                fx.uses = fx.uses.union(gpr(rn));
                fx.defs = fx.defs.union(flags(FLAG_ALL));
            }
            InstKind::MovImm { rd, keep, .. } => {
                if keep {
                    fx.uses = fx.uses.union(gpr(rd));
                }
                fx.defs = fx.defs.union(gpr(rd));
            }
            InstKind::Mov { rd, rm } | InstKind::Mvn { rd, rm } => {
                fx.uses = fx.uses.union(gpr(rm));
                fx.defs = fx.defs.union(gpr(rd));
            }
            InstKind::Ld { width, rd, rn, .. } => {
                fx.uses = fx.uses.union(gpr(rn));
                fx.defs = fx.defs.union(gpr(rd));
                fx.mem = MemEffect::Load(width);
                fx.trap = TrapClass::Memory;
            }
            InstKind::St { width, rd, rn, .. } => {
                fx.uses = fx.uses.union(gpr(rd)).union(gpr(rn));
                fx.mem = MemEffect::Store(width);
                fx.trap = TrapClass::Memory;
            }
            InstKind::LdR { width, rd, rn, rm } => {
                fx.uses = fx.uses.union(gpr(rn)).union(gpr(rm));
                fx.defs = fx.defs.union(gpr(rd));
                fx.mem = MemEffect::Load(width);
                fx.trap = TrapClass::Memory;
            }
            InstKind::StR { width, rd, rn, rm } => {
                fx.uses = fx.uses.union(gpr(rd)).union(gpr(rn)).union(gpr(rm));
                fx.mem = MemEffect::Store(width);
                fx.trap = TrapClass::Memory;
            }
            InstKind::B { off } => fx.ctrl = CtrlFlow::Relative { off, link: false },
            InstKind::Bl { off } => {
                fx.defs = fx.defs.union(gpr(isa.lr()));
                fx.ctrl = CtrlFlow::Relative { off, link: true };
            }
            InstKind::Blr { rm } => {
                fx.uses = fx.uses.union(gpr(rm));
                fx.defs = fx.defs.union(gpr(isa.lr()));
                fx.ctrl = CtrlFlow::Indirect { link: true };
            }
            InstKind::Swp { rd, rn, rm } | InstKind::AmoAdd { rd, rn, rm } => {
                fx.uses = fx.uses.union(gpr(rn)).union(gpr(rm));
                fx.defs = fx.defs.union(gpr(rd));
                fx.mem = MemEffect::Amo;
                fx.trap = TrapClass::Memory;
            }
            InstKind::Fp { fd, fa, fb, .. } => {
                // The interpreter reads both sources even for unary ops.
                fx.uses = fx.uses.union(fpr(fa)).union(fpr(fb));
                fx.defs = fx.defs.union(fpr(fd));
            }
            InstKind::FpCmp { fa, fb } => {
                fx.uses = fx.uses.union(fpr(fa)).union(fpr(fb));
                fx.defs = fx.defs.union(flags(FLAG_ALL));
            }
            InstKind::FMovToFp { fd, rn } => {
                fx.uses = fx.uses.union(gpr(rn));
                fx.defs = fx.defs.union(fpr(fd));
            }
            InstKind::FMovFromFp { rd, fa } => {
                fx.uses = fx.uses.union(fpr(fa));
                fx.defs = fx.defs.union(gpr(rd));
            }
            InstKind::Fcvtzs { rd, fa } => {
                fx.uses = fx.uses.union(fpr(fa));
                fx.defs = fx.defs.union(gpr(rd));
            }
            InstKind::Scvtf { fd, rn } => {
                fx.uses = fx.uses.union(gpr(rn));
                fx.defs = fx.defs.union(fpr(fd));
            }
            InstKind::FLd { fd, rn, .. } => {
                fx.uses = fx.uses.union(gpr(rn));
                fx.defs = fx.defs.union(fpr(fd));
                fx.mem = MemEffect::LoadFp;
                fx.trap = TrapClass::Memory;
            }
            InstKind::FSt { fd, rn, .. } => {
                fx.uses = fx.uses.union(fpr(fd)).union(gpr(rn));
                fx.mem = MemEffect::StoreFp;
                fx.trap = TrapClass::Memory;
            }
            InstKind::FLdR { fd, rn, rm } => {
                fx.uses = fx.uses.union(gpr(rn)).union(gpr(rm));
                fx.defs = fx.defs.union(fpr(fd));
                fx.mem = MemEffect::LoadFp;
                fx.trap = TrapClass::Memory;
            }
            InstKind::FStR { fd, rn, rm } => {
                fx.uses = fx.uses.union(fpr(fd)).union(gpr(rn)).union(gpr(rm));
                fx.mem = MemEffect::StoreFp;
                fx.trap = TrapClass::Memory;
            }
        }
        if isa == IsaKind::Sira32 && fx.defs.gprs & (1 << 15) != 0 {
            // r15 is the PC: writing it is a branch, not a GPR
            // definition.
            fx.defs.gprs &= !(1 << 15);
            fx.pc_def = true;
            fx.ctrl = CtrlFlow::Indirect { link: false };
        }
        fx
    }

    /// True when a backward liveness analysis must give up at this
    /// instruction and assume everything live: kernel entry (`svc`),
    /// calls and returns (`bl`/`blr`/`ret` — callee-saved conventions
    /// are a compiler artifact the analyzer refuses to trust), indirect
    /// PC writes, and `halt`. Only plain fall-through instructions and
    /// linkless relative branches are transparent.
    pub fn is_barrier(&self) -> bool {
        !matches!(
            self.ctrl,
            CtrlFlow::Fall | CtrlFlow::Relative { link: false, .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movimm_keep_reads_its_destination() {
        let keep = Inst::new(InstKind::MovImm {
            rd: Reg(3),
            imm: 7,
            shift: 1,
            keep: true,
        });
        let fx = Effects::of(IsaKind::Sira64, &keep);
        assert_eq!(fx.uses.gprs, 1 << 3);
        assert_eq!(fx.defs.gprs, 1 << 3);
        let fresh = Inst::new(InstKind::MovImm {
            rd: Reg(3),
            imm: 7,
            shift: 0,
            keep: false,
        });
        assert_eq!(Effects::of(IsaKind::Sira64, &fresh).uses.gprs, 0);
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
        let fx = Effects::of(IsaKind::Sira32, &inst);
        assert_eq!(fx.uses.flags, FLAG_Z | FLAG_N | FLAG_V);
        assert_eq!(fx.defs.gprs, 1 << 1);
    }

    #[test]
    fn sira32_pc_write_is_an_indirect_branch_not_a_def() {
        let inst = Inst::new(InstKind::Mov {
            rd: Reg(15),
            rm: Reg(14),
        });
        let fx = Effects::of(IsaKind::Sira32, &inst);
        assert_eq!(fx.defs.gprs, 0);
        assert_eq!(fx.uses.gprs, 1 << 14);
        assert!(fx.pc_def);
        assert_eq!(fx.ctrl, CtrlFlow::Indirect { link: false });
        // The same instruction on SIRA-64 is an ordinary move.
        let fx64 = Effects::of(IsaKind::Sira64, &inst);
        assert_eq!(fx64.defs.gprs, 1 << 15);
        assert_eq!(fx64.ctrl, CtrlFlow::Fall);
        assert!(!fx64.pc_def);
    }

    #[test]
    fn svc_reads_every_gpr_and_enters_the_kernel() {
        let fx = Effects::of(IsaKind::Sira64, &Inst::new(InstKind::Svc { imm: 0 }));
        assert!(fx.uses_all_gprs);
        assert_eq!(fx.defs, RegSet::EMPTY);
        assert_eq!(fx.ctrl, CtrlFlow::Svc);
        assert_eq!(fx.cost, CostClass::Svc);
        assert!(fx.is_barrier());
    }

    #[test]
    fn control_flow_kinds() {
        let b = Effects::of(IsaKind::Sira64, &Inst::new(InstKind::B { off: -4 }));
        assert_eq!(
            b.ctrl,
            CtrlFlow::Relative {
                off: -4,
                link: false
            }
        );
        assert!(!b.is_barrier());
        let bl = Effects::of(IsaKind::Sira64, &Inst::new(InstKind::Bl { off: 10 }));
        assert_eq!(
            bl.ctrl,
            CtrlFlow::Relative {
                off: 10,
                link: true
            }
        );
        assert_eq!(bl.defs.gprs, 1 << IsaKind::Sira64.lr().index());
        assert!(bl.is_barrier());
        let ret = Effects::of(IsaKind::Sira64, &Inst::new(InstKind::Ret));
        assert_eq!(ret.ctrl, CtrlFlow::Indirect { link: false });
        assert!(!ret.pc_def);
        assert!(ret.is_barrier());
    }

    #[test]
    fn memory_and_trap_classes() {
        let ld = Inst::new(InstKind::Ld {
            width: Width::Byte,
            rd: Reg(5),
            rn: Reg(6),
            off: 0,
        });
        let fx = Effects::of(IsaKind::Sira64, &ld);
        assert_eq!(fx.mem, MemEffect::Load(Width::Byte));
        assert_eq!(fx.trap, TrapClass::Memory);
        assert_eq!(fx.cost, CostClass::Mem);
        let div = Inst::new(InstKind::AluImm {
            op: AluOp::Sdiv,
            rd: Reg(0),
            rn: Reg(1),
            imm: 2,
        });
        let fx = Effects::of(IsaKind::Sira64, &div);
        assert_eq!(fx.trap, TrapClass::DivByZero);
        assert_eq!(fx.cost, CostClass::Div);
        let amo = Inst::new(InstKind::AmoAdd {
            rd: Reg(0),
            rn: Reg(1),
            rm: Reg(2),
        });
        let fx = Effects::of(IsaKind::Sira64, &amo);
        assert_eq!(fx.mem, MemEffect::Amo);
        assert_eq!(fx.cost, CostClass::Atomic);
    }

    #[test]
    fn fp_ops_read_both_sources() {
        let fneg = Inst::new(InstKind::Fp {
            op: FpOp::Fneg,
            fd: FReg(1),
            fa: FReg(2),
            fb: FReg(3),
        });
        let fx = Effects::of(IsaKind::Sira64, &fneg);
        assert_eq!(fx.uses.fprs, (1 << 2) | (1 << 3));
        assert_eq!(fx.defs.fprs, 1 << 1);
        assert_eq!(fx.cost, CostClass::FpAdd);
    }
}
