//! Static AVF estimation: liveness × the golden run's committed trace.
//!
//! The classical ACE argument: a bit is *un*-ACE (cannot affect the
//! architecturally correct execution) over any cycle interval in which
//! the register holding it is dead — written before read on every path
//! from the next committed instruction. Folding the per-instruction
//! [`Liveness`] solution over the golden run's commit stream therefore
//! yields, per register:
//!
//! * **dead windows** — maximal `(start, end]` cycle intervals on one
//!   core in which a flip of that register is provably masked by the
//!   program's own dataflow, and
//! * a **static AVF estimate** — the live fraction of total committed
//!   cycles, an upper bound on the probability that a uniformly timed
//!   flip of that register derails the workload. The dynamic analogue
//!   (campaign crash rates per register,
//!   `fracas-mine::register_criticality`) is what `stats_avf`
//!   cross-validates this against.
//!
//! Interval attribution walks each core's event stream: the interval
//! between two events is governed by the *later* event — a committed
//! instruction applies its `live_in` set, a context save reads every
//! register (everything live), a dispatch overwrites every register
//! (everything dead). Kernel `CtxWrite` events touch a blocked thread's
//! saved context, not a core, and are skipped.

use crate::liveness::{all_regs, Liveness};
use crate::usedef::{RegSet, FLAG_N};
use fracas_cpu::{ExecTrace, TraceKind};
use fracas_isa::IsaKind;

/// Per-register static AVF estimates for one workload (the live
/// fraction of each register's total traced cycles, in `[0, 1]`).
#[derive(Debug, Clone)]
pub struct StaticAvf {
    /// ISA the estimate was computed for.
    pub isa: IsaKind,
    /// AVF per GPR index.
    pub gprs: Vec<f64>,
    /// AVF per FPR index (empty on SIRA-32).
    pub fprs: Vec<f64>,
    /// AVF per NZCV flag, indexed like `Machine::flip_flag` (N, Z, C,
    /// V).
    pub flags: [f64; 4],
    /// Total cycles attributed (summed over cores).
    pub total_cycles: u64,
}

/// The liveness set governing the interval that ends at `ev`, or `None`
/// when the event carries no interval (kernel context writes).
fn interval_set(
    liveness: &Liveness,
    text_base: u32,
    isa: IsaKind,
    kind: TraceKind,
) -> Option<RegSet> {
    match kind {
        TraceKind::Commit { pc, .. } => {
            let idx = (pc.wrapping_sub(text_base) / 4) as usize;
            Some(liveness.live_in(idx))
        }
        // A save reads the whole register file into the context block.
        TraceKind::Save { .. } => Some(all_regs(isa)),
        // A dispatch overwrites the whole register file.
        TraceKind::Dispatch { .. } => Some(RegSet::EMPTY),
        // A context write lands in a blocked thread's spill slot, not
        // in a register file.
        TraceKind::CtxWrite { .. } => None,
    }
}

/// Folds the liveness solution over the golden trace into per-register
/// static AVF estimates.
pub fn static_avf(
    isa: IsaKind,
    liveness: &Liveness,
    text_base: u32,
    trace: &ExecTrace,
) -> StaticAvf {
    let n_gprs = all_regs(isa).gprs.count_ones() as usize;
    let n_fprs = all_regs(isa).fprs.count_ones() as usize;
    let mut live_gpr = vec![0u64; n_gprs];
    let mut live_fpr = vec![0u64; n_fprs];
    let mut live_flag = [0u64; 4];
    let mut total = 0u64;
    let mut prev = trace.start_cycles.clone();
    for ev in &trace.events {
        let Some(live) = interval_set(liveness, text_base, isa, ev.kind) else {
            continue;
        };
        let core = ev.core as usize;
        let dt = ev.cycle.saturating_sub(prev[core]);
        prev[core] = ev.cycle;
        if dt == 0 {
            continue;
        }
        total += dt;
        for (r, acc) in live_gpr.iter_mut().enumerate() {
            if live.gprs & (1 << r) != 0 {
                *acc += dt;
            }
        }
        for (f, acc) in live_fpr.iter_mut().enumerate() {
            if live.fprs & (1 << f) != 0 {
                *acc += dt;
            }
        }
        for (i, acc) in live_flag.iter_mut().enumerate() {
            if live.flags & (FLAG_N << i) != 0 {
                *acc += dt;
            }
        }
    }
    let frac = |v: u64| {
        if total == 0 {
            0.0
        } else {
            v as f64 / total as f64
        }
    };
    StaticAvf {
        isa,
        gprs: live_gpr.into_iter().map(frac).collect(),
        fprs: live_fpr.into_iter().map(frac).collect(),
        flags: [
            frac(live_flag[0]),
            frac(live_flag[1]),
            frac(live_flag[2]),
            frac(live_flag[3]),
        ],
        total_cycles: total,
    }
}

/// Maximal `(start, end]` cycle intervals on `core` during which every
/// register of `target` is provably dead (merged over adjacent
/// intervals). A fault within such a window on that core is masked by
/// the program's own dataflow — `fracas-inject`'s prune oracle is the
/// execution-exact refinement of this map.
pub fn dead_windows(
    isa: IsaKind,
    liveness: &Liveness,
    text_base: u32,
    trace: &ExecTrace,
    core: usize,
    target: RegSet,
) -> Vec<(u64, u64)> {
    let mut windows: Vec<(u64, u64)> = Vec::new();
    let mut prev = trace.start_cycles.get(core).copied().unwrap_or(0);
    for ev in &trace.events {
        if ev.core as usize != core {
            continue;
        }
        let Some(live) = interval_set(liveness, text_base, isa, ev.kind) else {
            continue;
        };
        let (start, end) = (prev, ev.cycle);
        prev = ev.cycle;
        if end <= start || live.intersects(target) {
            continue;
        }
        match windows.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => windows.push((start, end)),
        }
    }
    windows
}
