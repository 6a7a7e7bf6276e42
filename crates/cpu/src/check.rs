//! Runtime conformance checking of the interpreter against the
//! declarative effects layer (`fracas_isa::effects`).
//!
//! The prune oracle and the static AVF analysis classify fault outcomes
//! *without executing them*, trusting that the declared [`Effects`] of
//! every instruction describe exactly what the interpreter does. This
//! module closes that loop at runtime: with
//! [`crate::Machine::set_effect_check`] on, every executed
//! instruction's observable state transition — register and flag
//! writes, PC update, trap class, cycle charge and event counters — is
//! compared against its declaration, and any divergence panics with the
//! offending instruction.
//!
//! The check is split in two by observability:
//!
//! * **Writes are checked here, dynamically**: a pre/post diff of the
//!   core exposes every register the instruction actually changed, so
//!   the DEF-exactness half of the liveness contract is verified on
//!   every step of a checked run (the `check_effects` binary runs the
//!   NPB golden executions this way).
//! * **Reads cannot be observed in a diff** — a spurious read leaves no
//!   trace. The USE side is verified by the randomized differential in
//!   `crates/isa/tests/effects_props.rs`, which perturbs registers
//!   *outside* the declared use set and asserts the instruction cannot
//!   tell the difference.
//!
//! Checking observes execution without influencing it (like profiling
//! and tracing), so a checked run retires the exact same
//! cycle-by-cycle schedule as an unchecked one — it is only slower.
//!
//! The checker needs structured [`fracas_isa::Inst`] values to look up
//! declared effects, which the predecoded production path never
//! materialises; a checked run therefore executes on the reference
//! interpreter (`step_ref`, the pre-predecode path kept verbatim).
//! That is sound because the two paths are pinned step-for-step
//! identical by the predecode differential suite (see DESIGN.md
//! §3.3b), so a conformance pass over the reference path certifies the
//! production path too.

use crate::{Core, CostModel, StepResult, Trap};
use fracas_isa::effects::{
    CtrlFlow, Effects, MemEffect, TrapClass, FLAG_C, FLAG_N, FLAG_V, FLAG_Z,
};
use fracas_isa::{Inst, IsaKind};

/// One observed execution step: the core before and after `exec`, the
/// instruction, and what the interpreter reported.
///
/// The pre-state is captured *after* fetch and condition evaluation, so
/// the fetch-cache penalty is outside the observed cycle delta, and an
/// annulled instruction (handled before `exec`) is never observed.
pub(crate) struct StepObs<'a> {
    pub isa: IsaKind,
    pub cost: CostModel,
    pub pre: &'a Core,
    pub post: &'a Core,
    pub inst: &'a Inst,
    pub pc: u32,
    pub cond_holds: bool,
    pub result: StepResult,
}

/// Asserts that the observed step conforms to the instruction's
/// declared [`Effects`]. Panics with a diagnostic on any divergence.
#[allow(clippy::too_many_lines)]
pub(crate) fn verify(o: &StepObs<'_>) {
    let fx = Effects::of(o.isa, o.inst);
    let next = o.pc.wrapping_add(4);

    macro_rules! conform {
        ($ok:expr, $($msg:tt)*) => {
            assert!(
                $ok,
                "effects violation at {:#010x} `{}` [{}]: {}",
                o.pc,
                o.inst,
                o.isa,
                format_args!($($msg)*)
            )
        };
    }

    // --- writes: every changed register/flag must be a declared def
    // (and a trapped instruction must change nothing architectural) ---
    let trapped = matches!(o.result, StepResult::Trap(_));
    for i in 0..32 {
        if o.pre.regs[i] != o.post.regs[i] {
            conform!(
                !trapped && fx.defs.gprs & (1 << i) != 0,
                "undeclared write to r{i}: {:#x} -> {:#x}",
                o.pre.regs[i],
                o.post.regs[i]
            );
        }
        if o.pre.fregs[i] != o.post.fregs[i] {
            conform!(
                !trapped && fx.defs.fprs & (1 << i) != 0,
                "undeclared write to d{i}: {:#x} -> {:#x}",
                o.pre.fregs[i],
                o.post.fregs[i]
            );
        }
    }
    let (pf, qf) = (o.pre.flags, o.post.flags);
    for (bit, name, before, after) in [
        (FLAG_N, 'N', pf.n, qf.n),
        (FLAG_Z, 'Z', pf.z, qf.z),
        (FLAG_C, 'C', pf.c, qf.c),
        (FLAG_V, 'V', pf.v, qf.v),
    ] {
        if before != after {
            conform!(
                !trapped && fx.defs.flags & bit != 0,
                "undeclared write to flag {name}"
            );
        }
    }

    let dc = o.post.cycles - o.pre.cycles;
    let dm = o.post.stats.miss_cycles - o.pre.stats.miss_cycles;
    let dl = o.post.stats.loads - o.pre.stats.loads;
    let ds = o.post.stats.stores - o.pre.stats.stores;

    // --- traps: class must be declared, nothing may retire ---
    if let StepResult::Trap(trap) = o.result {
        let class = match trap {
            Trap::DivByZero { .. } => TrapClass::DivByZero,
            Trap::Mem(_) => TrapClass::Memory,
            Trap::IllegalInst { .. } | Trap::Privileged { .. } => TrapClass::None,
        };
        conform!(
            class == fx.trap && class != TrapClass::None,
            "undeclared trap {trap} (declared class {:?})",
            fx.trap
        );
        conform!(o.post.pc == o.pc, "trapped instruction moved the PC");
        conform!(
            o.post.stats.instructions == o.pre.stats.instructions,
            "trapped instruction retired"
        );
        conform!(
            dc == dm,
            "trapped instruction charged {dc} cycles beyond its {dm} miss cycles"
        );
        // An atomic whose store faults has already performed its load.
        conform!(
            ds == 0 && (dl == 0 || (dl == 1 && fx.mem != MemEffect::None)),
            "trapped instruction counted {dl} loads / {ds} stores"
        );
        return;
    }

    // --- PC update per declared control flow ---
    match fx.ctrl {
        CtrlFlow::Fall | CtrlFlow::Svc | CtrlFlow::Halt => conform!(
            o.post.pc == next,
            "PC must fall through to {next:#010x}, got {:#010x}",
            o.post.pc
        ),
        CtrlFlow::Relative { off, link } => {
            let target = next.wrapping_add((off as u32).wrapping_mul(4));
            if link || o.cond_holds {
                conform!(
                    o.post.pc == target,
                    "taken branch must redirect to {target:#010x}, got {:#010x}",
                    o.post.pc
                );
            } else {
                conform!(
                    o.post.pc == next,
                    "untaken branch must fall through to {next:#010x}, got {:#010x}",
                    o.post.pc
                );
            }
        }
        // The target is a register value (or, for SIRA-32 PC writes, an
        // ALU result) the checker does not re-derive: unconstrained.
        CtrlFlow::Indirect { .. } => {}
    }

    // --- step result vs declared control flow ---
    match fx.ctrl {
        CtrlFlow::Svc => conform!(
            matches!(o.result, StepResult::Svc(_)),
            "svc must report StepResult::Svc, got {:?}",
            o.result
        ),
        CtrlFlow::Halt => conform!(
            o.result == StepResult::Halted && o.post.halted,
            "halt must park the core and report Halted, got {:?}",
            o.result
        ),
        _ => conform!(
            o.result == StepResult::Executed,
            "expected StepResult::Executed, got {:?}",
            o.result
        ),
    }

    // --- cycle charge: declared class + taken-branch surcharge ---
    let redirected = match fx.ctrl {
        CtrlFlow::Relative { link: true, .. } => true,
        CtrlFlow::Relative { link: false, .. } => o.cond_holds,
        // `ret`/`blr` always pay the redirect; a SIRA-32 register-file
        // write to the PC does not (it retires as a plain ALU op).
        CtrlFlow::Indirect { .. } => !fx.pc_def,
        CtrlFlow::Fall | CtrlFlow::Svc | CtrlFlow::Halt => false,
    };
    let want = u64::from(o.cost.charge(fx.cost))
        + if redirected {
            u64::from(o.cost.branch_taken)
        } else {
            0
        };
    conform!(
        dc >= dm && dc - dm == want,
        "charged {} cycles beyond misses; cost class {:?}{} implies {want}",
        dc.saturating_sub(dm),
        fx.cost,
        if redirected { " + taken branch" } else { "" }
    );

    // --- event counters per declared memory/control effects ---
    let (want_loads, want_stores) = match fx.mem {
        MemEffect::None => (0, 0),
        MemEffect::Load(_) | MemEffect::LoadFp => (1, 0),
        MemEffect::Store(_) | MemEffect::StoreFp => (0, 1),
        MemEffect::Amo => (1, 1),
    };
    conform!(
        dl == want_loads && ds == want_stores,
        "counted {dl} loads / {ds} stores, declared {:?} implies {want_loads}/{want_stores}",
        fx.mem
    );
    let is_b = matches!(fx.ctrl, CtrlFlow::Relative { link: false, .. });
    let want_branches = u64::from(is_b);
    let want_taken = u64::from(is_b && o.cond_holds);
    let want_calls = u64::from(matches!(
        fx.ctrl,
        CtrlFlow::Relative { link: true, .. } | CtrlFlow::Indirect { link: true }
    ));
    let want_svcs = u64::from(matches!(fx.ctrl, CtrlFlow::Svc));
    // FP-register involvement is exactly what the fp_ops counter
    // tracks (hardware floating-point instructions).
    let want_fp = u64::from(fx.uses.fprs | fx.defs.fprs != 0);
    let stats = [
        (
            "instructions",
            o.post.stats.instructions - o.pre.stats.instructions,
            1,
        ),
        (
            "cond_skipped",
            o.post.stats.cond_skipped - o.pre.stats.cond_skipped,
            0,
        ),
        (
            "branches",
            o.post.stats.branches - o.pre.stats.branches,
            want_branches,
        ),
        (
            "branches_taken",
            o.post.stats.branches_taken - o.pre.stats.branches_taken,
            want_taken,
        ),
        ("calls", o.post.stats.calls - o.pre.stats.calls, want_calls),
        ("svcs", o.post.stats.svcs - o.pre.stats.svcs, want_svcs),
        ("fp_ops", o.post.stats.fp_ops - o.pre.stats.fp_ops, want_fp),
    ];
    for (name, got, want) in stats {
        conform!(
            got == want,
            "counter {name} moved by {got}, declared {want}"
        );
    }
}
