//! Def→use interval fingerprinting: the equivalence-class layer over
//! the prune oracle's digested golden trace.
//!
//! Two faults flipping the *same bits of the same register on the same
//! core* are outcome-equivalent whenever they land in the same **def→use
//! interval** — the maximal run of trace ops during which nothing on
//! the struck core reads, overwrites or moves the target. The argument
//! is the taint walk's own invariant run backwards: while the flip sits
//! untouched in core `k`'s register file, the machine's *architectural
//! state at the first op that interacts with the target* is independent
//! of where inside the interval the flip landed (no intervening op
//! observed or modified the flipped register, and golden replay is
//! deterministic). From that op onward the two injected runs are the
//! same run, so outcome, cycle count and instruction count all
//! coincide — the representative's record is byte-identical to every
//! member's, not merely statistically interchangeable.
//!
//! Interval boundaries for a target `t` struck on core `k` are exactly
//! the ops the walk reacts to while the taint is still
//! `{cores: 1<<k}`:
//!
//! * an executed commit on `k` whose uses **or defs** intersect `t` (or
//!   any commit on `k` for a PC target, or an `svc`-style
//!   `uses_all_gprs` commit when `t` has GPR bits);
//! * an annulled commit on `k` whose condition reads a flag of `t`;
//! * a **dispatch or save on `k`** — these move or overwrite the whole
//!   register file, so the flip's itinerary (and hence everything
//!   after) depends on which side of the event it landed.
//!
//! A kernel `CtxWrite` is *not* a boundary: it touches a blocked
//! thread's saved context, never a physical core's file. Note defs are
//! boundaries here even though a def inside the walk merely clears
//! taint: two faults straddling a def of `t` have different outcomes
//! (one is overwritten, one survives into the next interval), so the
//! def ends the class.
//!
//! [`PruneOracle::fingerprint`] is the oracle's one decision entry
//! point, and its [`Fingerprint`] is the interval half of a class key:
//!
//! * faults the oracle fully decides ([`PruneVerdict`]) carry the
//!   verdict — each synthesizes its own golden-timing record, so none
//!   of them executes;
//! * live (abstained) faults carry the id of their landing interval:
//!   the index of the op that ends it. Same coordinates and same
//!   interval separate classes *exactly* (the argument above).
//!
//! `fracas-inject`'s `ClassPlan` consumes these keys: one member per
//! class executes, the rest synthesize the representative's record with
//! their own fault coordinates. The sampled `--oracle-audit` layer
//! re-executes members for real and fails the sweep on any
//! representative/member divergence, so the exactness argument above is
//! continuously machine-checked, not just proved in a doc comment.

use crate::prune::{Chunk, Landing, Op, PruneOracle, PruneTarget, PruneVerdict, CHUNK};
use crate::usedef::RegSet;

/// The interval half of an equivalence-class key. The fingerprint
/// deliberately carries **no fault coordinates**: callers key classes
/// on `(core, target, bit, width, fingerprint)` themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fingerprint {
    /// The oracle proves the outcome without execution: the fault
    /// synthesizes a golden-timing record carrying the verdict.
    Decided(PruneVerdict),
    /// The fault must run for real. Same `(core, target, bit, width)`
    /// coordinates + same landing `interval` ⇒ identical record.
    Live {
        /// Index of the interval-ending op (the first op at or after
        /// the landing that interacts with the target on the struck
        /// core), or `ops.len()` when nothing ever interacts.
        interval: u32,
    },
}

/// Where a live fault's landing interval ends on the clock: the core
/// that executes the interval-ending op and that core's clock at the end
/// of the op's tick ([`PruneOracle::horizon`]).
///
/// Clocks are monotone over ticks, so a tick boundary at which `core`'s
/// clock is still below `cycle` lies before the interval-ending op: the
/// faulty run's state there is the golden state plus the flip. That is
/// what lets a class representative start from a checkpoint inside its
/// interval instead of replaying up to its own landing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Horizon {
    /// Core the interval-ending op acts on.
    pub core: usize,
    /// `core`'s clock at the end of that op's tick.
    pub cycle: u64,
}

/// Does `op` interact with `target` while the flip sits (only) on core
/// `k`'s register file? These are exactly the interval boundaries — see
/// the module docs.
fn interacts(op: Op, oracle: &PruneOracle, core: u32, tset: RegSet, is_pc: bool) -> bool {
    match op {
        Op::Exec { core: c, pc } => {
            let fx = oracle.fx(pc);
            c == core
                && (is_pc
                    || fx.uses.union(fx.defs).intersects(tset)
                    || (fx.uses_all_gprs && tset.gprs != 0))
        }
        Op::Skip { core: c, pc } => {
            c == core && (is_pc || oracle.fx(pc).cond_flags & tset.flags != 0)
        }
        Op::Dispatch { core: c, .. } | Op::Save { core: c, .. } => c == core,
        Op::CtxWrite { .. } => false,
    }
}

/// Can any op of `chunk` interact with `target` on `core`? Over-
/// approximate (chunk summaries have no per-core masks beyond
/// `commit_cores`); a `false` skips the whole chunk.
fn chunk_interacts(chunk: &Chunk, core: u32, tset: RegSet, is_pc: bool) -> bool {
    if chunk.sched {
        return true;
    }
    if chunk.commit_cores & (1 << core.min(63)) == 0 {
        return false;
    }
    if is_pc {
        return true;
    }
    chunk.uses.union(chunk.defs).intersects(tset) || (chunk.uses_all_gprs && tset.gprs != 0)
}

impl PruneOracle {
    /// Index of the first op at or after `start` that interacts with
    /// `target` on `core`, or `ops.len()` when none does.
    fn interval_end(&self, start: usize, core: u32, target: PruneTarget) -> usize {
        let tset = target.as_set();
        let is_pc = target == PruneTarget::Pc;
        let mut i = start;
        while i < self.ops.len() {
            if i.is_multiple_of(CHUNK) {
                while i + CHUNK <= self.ops.len()
                    && !chunk_interacts(&self.chunks[i / CHUNK], core, tset, is_pc)
                {
                    i += CHUNK;
                }
                if i >= self.ops.len() {
                    break;
                }
            }
            if interacts(self.ops[i], self, core, tset, is_pc) {
                return i;
            }
            i += 1;
        }
        self.ops.len()
    }

    /// Decides striking `target` on `core` at `cycle`: the verdict when
    /// the oracle proves the outcome, else the landing interval the
    /// fault must run in. `None` only for a core the golden trace never
    /// saw (the timing core 0, for a text target); such faults are
    /// singletons. Abstaining is always sound; a verdict is exact.
    ///
    /// Combined with the fault coordinates by the caller: same
    /// `(core, target, bit, width)` + same fingerprint ⇒ identical
    /// injection record (outcome, cycles, instructions).
    pub fn fingerprint(&self, core: usize, target: PruneTarget, cycle: u64) -> Option<Fingerprint> {
        if let PruneTarget::Text { word, mask } = target {
            // Text faults key on the first fetch of the corrupted word —
            // the exact analogue of the register interval end (see
            // [`crate::textfault`]): between the landing and that fetch
            // nothing can observe the flip, so every member of the class
            // replays the representative's record byte for byte.
            return self.text_outcome(word, mask, cycle);
        }
        let start = match self.landing(core, cycle)? {
            Landing::Unapplied => return Some(Fingerprint::Decided(PruneVerdict::Vanished)),
            Landing::At(start) => start,
        };
        if let Some(v) = self.walk(start, core, target) {
            return Some(Fingerprint::Decided(v));
        }
        let end = self.interval_end(start, core as u32, target);
        Some(Fingerprint::Live {
            interval: end as u32,
        })
    }

    /// The [`Horizon`] of a live fingerprint's interval: the acting core
    /// of op `interval` and that core's end-of-tick clock, read from its
    /// landing table. `None` for a decided fingerprint and for an
    /// interval that never ends (`interval == ops.len()`).
    pub fn horizon(&self, fingerprint: Fingerprint) -> Option<Horizon> {
        let Fingerprint::Live { interval } = fingerprint else {
            return None;
        };
        let core = self.ops.get(interval as usize)?.core()?;
        let landings = &self.landings[core as usize];
        let i = landings
            .binary_search_by_key(&interval, |&(_, idx)| idx)
            .ok()?;
        Some(Horizon {
            core: core as usize,
            cycle: landings[i].0,
        })
    }
}

#[cfg(test)]
impl PruneOracle {
    /// The verdict [`PruneOracle::fingerprint`] decides, `None` where it
    /// abstains (the unit tests' shorthand).
    pub(crate) fn decided(
        &self,
        core: usize,
        target: PruneTarget,
        cycle: u64,
    ) -> Option<PruneVerdict> {
        match self.fingerprint(core, target, cycle)? {
            Fingerprint::Decided(v) => Some(v),
            Fingerprint::Live { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_cpu::{ExecTrace, TraceEvent, TraceKind};
    use fracas_isa::{AluOp, Inst, InstKind, IsaKind, Reg};

    const BASE: u32 = 0x1000;

    fn trace(start: Vec<u64>, events: Vec<TraceEvent>) -> ExecTrace {
        let mut t = ExecTrace::default();
        t.events = events;
        t.start_cycles = start;
        t
    }

    fn commit(core: u32, tick: u64, cycle: u64, idx: u32) -> TraceEvent {
        TraceEvent {
            core,
            tick,
            cycle,
            kind: TraceKind::Commit {
                pc: BASE + 4 * idx,
                skipped: false,
            },
        }
    }

    fn addi(rd: u8, rn: u8) -> Inst {
        Inst::new(InstKind::AluImm {
            op: AluOp::Add,
            rd: Reg(rd),
            rn: Reg(rn),
            imm: 1,
        })
    }

    /// r3 = r3 + 1 three times, then halt: an r3 fault is live, and the
    /// interval it lands in is delimited by the r3-reading commits.
    fn oracle() -> PruneOracle {
        let text = vec![
            addi(3, 3),
            addi(3, 3),
            addi(3, 3),
            Inst::new(InstKind::Halt),
        ];
        let tr = trace(
            vec![10],
            vec![
                commit(0, 0, 20, 0),
                commit(0, 1, 30, 1),
                commit(0, 2, 40, 2),
                commit(0, 3, 50, 3),
            ],
        );
        PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr)
    }

    const R3: PruneTarget = PruneTarget::Gpr { reg: 3 };

    #[test]
    fn same_interval_same_fingerprint() {
        let o = oracle();
        // Cycles 21..=30 both land at the tick-1 boundary... cycle 21
        // and 25 cross at the same boundary (first cycle >= c is 30's
        // predecessor tick): both start after tick 0's commit.
        let a = o.fingerprint(0, R3, 21).unwrap();
        let b = o.fingerprint(0, R3, 25).unwrap();
        assert_eq!(a, b);
        assert!(matches!(a, Fingerprint::Live { .. }));
    }

    #[test]
    fn different_interval_different_fingerprint() {
        let o = oracle();
        let a = o.fingerprint(0, R3, 11).unwrap();
        let b = o.fingerprint(0, R3, 21).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, Fingerprint::Live { interval: 1 });
        assert_eq!(b, Fingerprint::Live { interval: 2 });
    }

    #[test]
    fn decided_faults_collapse_by_verdict() {
        let o = oracle();
        // r9 is never touched: SilentResidue everywhere it lands.
        let t = PruneTarget::Gpr { reg: 9 };
        let a = o.fingerprint(0, t, 15).unwrap();
        let b = o.fingerprint(0, t, 35).unwrap();
        assert_eq!(a, Fingerprint::Decided(PruneVerdict::SilentResidue));
        assert_eq!(a, b);
        // Beyond the last cycle: never lands, Vanished.
        assert_eq!(
            o.fingerprint(0, t, 1_000_000).unwrap(),
            Fingerprint::Decided(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn horizon_is_the_interval_ending_op_on_the_clock() {
        let o = oracle();
        // Cycle 21 crosses on tick 1 (clock 30); the flip sits from
        // tick 2 on, whose add reads r3 and ends at clock 40.
        let fp = o.fingerprint(0, R3, 21).unwrap();
        assert_eq!(fp, o.fingerprint(0, R3, 25).unwrap());
        assert_eq!(o.horizon(fp), Some(Horizon { core: 0, cycle: 40 }));
        let first = o.fingerprint(0, R3, 11).unwrap();
        assert_eq!(o.horizon(first), Some(Horizon { core: 0, cycle: 30 }));
        // Decided classes and never-ending intervals have no horizon.
        let dead = o.fingerprint(0, PruneTarget::Gpr { reg: 9 }, 15).unwrap();
        assert_eq!(o.horizon(dead), None);
        let open = Fingerprint::Live {
            interval: o.ops.len() as u32,
        };
        assert_eq!(o.horizon(open), None);
    }

    #[test]
    fn invalid_core_is_none() {
        let o = oracle();
        assert_eq!(o.fingerprint(7, R3, 21), None);
    }
}
