//! The trace-exact fault-pruning oracle.
//!
//! Given the golden run's event trace, decides — **without executing
//! anything** — the outcome of an ephemeral-state fault (GPR, FPR, NZCV
//! flag, or the SIRA-32 architected PC) whenever that outcome is
//! provable, and abstains otherwise. `fracas-inject`'s `prune_classes`
//! campaign mode short-circuits provable injections and runs the rest
//! for real (one execution per interval class); a pruned campaign's
//! records are byte-identical to a full campaign's. Callers ask through
//! one entry point, [`PruneOracle::fingerprint`] ([`crate::intervals`]),
//! which runs the landing rule and the taint walk below.
//!
//! # Why a dynamic oracle and not the static dead windows?
//!
//! [`crate::avf::dead_windows`] is sound for the program's *own*
//! dataflow, but a campaign injects underneath a kernel that context
//! switches: a dead-by-liveness register may still be copied into a
//! thread's saved context by a preemption and resurface on another core
//! far outside the static window. The oracle therefore replays the
//! *exact* golden event stream — commits, context saves, dispatches and
//! kernel context writes — and tracks where the flipped bits physically
//! travel. The static analysis supplies the per-workload AVF estimates
//! (`stats_avf`); this module supplies the prune *decisions*.
//!
//! # Landing semantics
//!
//! A fault at `(core, cycle)` lands at the first tick boundary where
//! `core`'s clock reaches `cycle` — exactly where the injector's
//! `run_until_core_cycle` pauses a replay. Two edge cases make the
//! fault unapplicable, and both must prune as
//! [`PruneVerdict::Vanished`]:
//!
//! * the core never reaches `cycle` before the workload exits — the
//!   replay finishes unpaused; and
//! * the crossing tick **is the run-ending tick**. The injector's pause
//!   loop checks the kernel's `finished` flag *before* the clock
//!   predicate, so when the boundary that first satisfies the clock is
//!   also the boundary that ends the run, the replay reports completion
//!   and the flip is never applied. Every tick of a clean golden run
//!   emits at least one trace event (the acting core's commit), so "no
//!   ops remain after the crossing tick" detects exactly this case.
//!   Missing it was the historical `ep-omp-1-sira64` record-169 bug:
//!   the walk started past the end of the trace, saw the injected
//!   register "survive untouched" and reported residue for a fault
//!   real execution never even landed.
//!
//! # Taint walk
//!
//! From the tick after the landing, the flipped register's location set
//! (`Taint`: a physical-core mask plus the kernel's per-thread saved
//! contexts) is tracked through the golden event stream:
//!
//! * **commit on a tainted core** — if the instruction (or its
//!   condition, or the fetch for a PC fault) may *read* the target, the
//!   oracle abstains: the fault may propagate, only real execution can
//!   classify it. If the instruction fully *overwrites* the target, the
//!   core's taint dies. Reads may over-approximate, overwrites are
//!   exact — see [`crate::usedef`]. An `svc` with a known service
//!   number uses the kernel's precise ABI (`svc_regs`: it reads only
//!   its argument registers and r0 is overwritten by never-blocking
//!   services); an unknown number degrades to reading every GPR.
//! * **save** — the core's (possibly tainted) register file is copied
//!   into the thread's saved context: the spill slot inherits the
//!   core's taint state exactly (tainted core taints it, clean core
//!   scrubs a previously tainted slot).
//! * **dispatch** — the core's register file is fully overwritten by
//!   the thread's saved context: the core's taint becomes the thread's,
//!   and the stale saved copy dies.
//! * **kernel context write** — the kernel overwrites a blocked
//!   thread's saved `r0`; an `r0` fault parked in that context dies.
//!
//! If no taint remains, the fault provably [vanishes](PruneVerdict::Vanished);
//! if the walk reaches the end of the trace with a *core* still tainted,
//! the flipped bits sit untouched in a register at exit — never read, so
//! timing, memory and console are golden, but the exit context hash
//! differs: provably an [ONA](PruneVerdict::SilentResidue). Taint that
//! survives only in a saved thread context is invisible to the exit
//! report (the context hash covers physical cores only, never kernel
//! spill slots) and vanishes. The SIRA-32 PC is the one exception: it
//! is excluded from the context hash, so PC residue also vanishes.

use crate::usedef::RegSet;
use fracas_cpu::{ExecTrace, TraceEvent, TraceKind};
use fracas_isa::{Effects, Inst, InstKind, IsaKind};

/// The architectural location a fault flips (already folded to one
/// register: the injector's multi-bit upsets wrap within a register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneTarget {
    /// Integer register `reg` (on SIRA-32, `reg < 15`; register 15 is
    /// [`PruneTarget::Pc`]).
    Gpr {
        /// Register index.
        reg: u32,
    },
    /// Floating-point register `reg`.
    Fpr {
        /// Register index.
        reg: u32,
    },
    /// One or more NZCV flags, as a [`crate::usedef::FLAG_N`]-style
    /// mask.
    Flags {
        /// Flag mask.
        mask: u8,
    },
    /// The SIRA-32 architected PC (register 15).
    Pc,
    /// `mask` bits of encoded instruction word `word` (the injector's
    /// multi-bit text upsets wrap within the struck word, so one XOR
    /// mask captures any width). Decided by the decode-differential
    /// layer in [`crate::textfault`], not by the taint walk: a text
    /// flip's only observable channel is instruction fetch of that
    /// word.
    Text {
        /// Text-word index.
        word: u32,
        /// XOR mask applied to the encoded word.
        mask: u32,
    },
}

impl PruneTarget {
    /// The target as a use/def-comparable register set (`Pc` is empty:
    /// it is matched by the fetch rule, not by masks; `Text` never
    /// reaches the mask-driven walk at all).
    pub(crate) fn as_set(self) -> RegSet {
        match self {
            PruneTarget::Gpr { reg } => RegSet {
                gprs: 1 << reg,
                ..RegSet::EMPTY
            },
            PruneTarget::Fpr { reg } => RegSet {
                fprs: 1 << reg,
                ..RegSet::EMPTY
            },
            PruneTarget::Flags { mask } => RegSet {
                flags: mask,
                ..RegSet::EMPTY
            },
            PruneTarget::Pc | PruneTarget::Text { .. } => RegSet::EMPTY,
        }
    }
}

/// A proven outcome for a pruned fault. The pruned run's timing is the
/// golden run's (no divergence ever occurs), so the injector can
/// synthesize the full record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneVerdict {
    /// The flipped bits are overwritten (or never materialize): the
    /// run is indistinguishable from golden. Classifies as Vanished.
    Vanished,
    /// The flipped bits survive, unread, in a physical register until
    /// exit: output and timing are golden but the exit context hash
    /// differs. Classifies as ONA.
    SilentResidue,
}

/// One digested trace event. A commit carries only its core and PC: its
/// use/def summary is a function of the instruction at that PC, so it is
/// resolved once per text word ([`WordFx`]) instead of once per commit,
/// which keeps an op at 12 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Executed commit; its effects are [`PruneOracle::fx`] of `pc`.
    Exec {
        core: u32,
        pc: u32,
    },
    /// Annulled commit: reads only its condition's flags (and the
    /// fetch PC).
    Skip {
        core: u32,
        pc: u32,
    },
    Dispatch {
        core: u32,
        tid: u32,
    },
    Save {
        core: u32,
        tid: u32,
    },
    CtxWrite {
        tid: u32,
    },
}

/// What committing one text word does to the register file, resolved
/// once per word so each per-fault walk is mask arithmetic only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordFx {
    /// Registers an executed commit may read.
    pub(crate) uses: RegSet,
    /// Registers an executed commit fully overwrites.
    pub(crate) defs: RegSet,
    /// Whether an executed commit reads every GPR (an unmodelled `svc`).
    pub(crate) uses_all_gprs: bool,
    /// Flags an annulled commit reads (its condition).
    pub(crate) cond_flags: u8,
}

impl WordFx {
    fn of(isa: IsaKind, inst: &Inst) -> WordFx {
        let fx = Effects::of(isa, inst);
        let mut uses = fx.uses;
        let mut defs = fx.defs;
        let mut uses_all_gprs = fx.uses_all_gprs;
        if let InstKind::Svc { imm } = inst.kind {
            if let Some((arg_mask, rets)) = svc_regs(isa, imm) {
                // Precise kernel ABI: drop the read-every-GPR barrier
                // (flag/FPR halves — condition reads — survive).
                uses.gprs |= arg_mask;
                defs.gprs |= u32::from(rets);
                uses_all_gprs = false;
            }
        }
        WordFx {
            uses,
            defs,
            uses_all_gprs,
            cond_flags: crate::usedef::cond_reads(inst.cond),
        }
    }

    /// A commit outside the known text (impossible in a golden run)
    /// degrades to a read-everything barrier: the oracle abstains on any
    /// live taint.
    fn outside(isa: IsaKind) -> WordFx {
        WordFx {
            uses: crate::liveness::all_regs(isa),
            defs: RegSet::EMPTY,
            uses_all_gprs: true,
            cond_flags: crate::usedef::FLAG_ALL,
        }
    }
}

/// The precise register effects of one `svc`, replacing the declarative
/// layer's read-every-GPR over-approximation during oracle digestion:
/// `(gpr use mask, defines r0)`. `None` keeps the conservative model
/// (an unknown service number — a golden run would have trapped).
///
/// The table mirrors the kernel's `syscall` handler exactly — each
/// service reads only its `arg()` registers (r0..r3) and the only
/// register any service writes is r0 via `set_ret`. "Defines r0" is
/// claimed *only* for services that call `set_ret` on every non-trap
/// path without ever blocking; a service that can block (`join`,
/// `recv`, `barrier`, `lock`) parks the caller and delivers its return
/// value through a context save/kernel-context-write sequence the walk
/// already models, so its direct defs stay empty. The numbers are
/// pinned against `fracas_kernel::abi` by a unit test.
fn svc_regs(isa: IsaKind, imm: u16) -> Option<(u32, bool)> {
    Some(match imm {
        // exit, thread_exit, lock, write_int, write_ch: read r0 only.
        0 | 4 | 11 | 15 | 17 => (0b0001, false),
        // sbrk, unlock: read r0, always return into r0.
        2 | 12 => (0b0001, true),
        // write, spawn: read r0..r1, always return into r0.
        1 | 3 => (0b0011, true),
        // barrier: reads r0..r1, may block.
        10 => (0b0011, false),
        // join: reads the target tid, may block.
        5 => (0b0001, false),
        // send: reads r0..r3, always returns into r0.
        8 => (0b1111, true),
        // recv: reads r0..r3, may block.
        9 => (0b1111, false),
        // rank, size, time, nthreads, gettid: pure returns into r0.
        6 | 7 | 13 | 18 | 19 => (0, true),
        // yield: touches no registers at all (saves are traced).
        14 => (0, false),
        // write_flt: the f64 payload is r0, split across r0..r1 on
        // SIRA-32.
        16 => (
            if isa == IsaKind::Sira32 {
                0b0011
            } else {
                0b0001
            },
            false,
        ),
        _ => return None,
    })
}

impl Op {
    pub(crate) fn core(self) -> Option<u32> {
        match self {
            Op::Exec { core, .. }
            | Op::Skip { core, .. }
            | Op::Dispatch { core, .. }
            | Op::Save { core, .. } => Some(core),
            Op::CtxWrite { .. } => None,
        }
    }
}

/// Per-chunk summary for skip-ahead: a chunk of commits that cannot
/// read or write the target on any core leaves the taint state
/// untouched and is stepped over wholesale.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Chunk {
    pub(crate) uses: RegSet,
    pub(crate) defs: RegSet,
    pub(crate) uses_all_gprs: bool,
    /// Any scheduling event (dispatch/save/ctx-write) in the chunk.
    pub(crate) sched: bool,
    /// Cores with at least one commit in the chunk.
    pub(crate) commit_cores: u64,
}

pub(crate) const CHUNK: usize = 1024;

/// The live locations of the flipped bits during a walk: a mask of
/// tainted physical cores plus the kernel's per-thread saved contexts
/// (spill slots). The walk ends as soon as both are empty.
#[derive(Debug)]
struct Taint {
    /// Physical cores whose register file holds the flip.
    cores: u64,
    /// Saved thread contexts holding a copy of the flip.
    tids: Vec<bool>,
    /// Number of set entries in `tids`.
    parked: usize,
}

impl Taint {
    fn new(core: usize, tid_count: usize) -> Taint {
        Taint {
            cores: 1 << core.min(63),
            tids: vec![false; tid_count],
            parked: 0,
        }
    }

    fn core_is_tainted(&self, core: u32) -> bool {
        self.cores & (1 << core.min(63)) != 0
    }

    fn clear_core(&mut self, core: u32) {
        self.cores &= !(1 << core.min(63));
    }

    fn taint_core(&mut self, core: u32) {
        self.cores |= 1 << core.min(63);
    }

    fn tid_is_tainted(&self, tid: u32) -> bool {
        self.tids.get(tid as usize).copied().unwrap_or(false)
    }

    /// Sets thread `tid`'s spill slot to `tainted` (a context save
    /// fully overwrites the slot, so a clean save also scrubs it).
    fn set_tid(&mut self, tid: u32, tainted: bool) {
        let Some(slot) = self.tids.get_mut(tid as usize) else {
            return;
        };
        if *slot != tainted {
            *slot = tainted;
            if tainted {
                self.parked += 1;
            } else {
                self.parked -= 1;
            }
        }
    }

    fn is_clear(&self) -> bool {
        self.cores == 0 && self.parked == 0
    }
}

/// The pruning decision procedure for one workload (one golden trace).
#[derive(Debug, Clone)]
pub struct PruneOracle {
    pub(crate) ops: Vec<Op>,
    /// Per text word: its [`WordFx`].
    word_fx: Vec<WordFx>,
    /// The effects of a commit outside the text section.
    outside_fx: WordFx,
    /// Tick of each op (ops are tick-ordered).
    ticks: Vec<u64>,
    pub(crate) chunks: Vec<Chunk>,
    /// Per core: `(end-of-tick cycle, op index)` of every commit,
    /// dispatch and save on that core, cycle-sorted (clocks are
    /// monotone).
    pub(crate) landings: Vec<Vec<(u64, u32)>>,
    start_cycles: Vec<u64>,
    tid_count: usize,
    /// ISA the text was assembled for (decode-differential analysis).
    pub(crate) isa: IsaKind,
    /// The encoded text section, word for word what the machine boots
    /// with (`encode` of each decoded instruction — the machine builds
    /// its `text_words` the same way).
    pub(crate) words: Vec<u32>,
    /// Base address of the text section.
    pub(crate) text_base: u32,
    /// Lazily built fetch index: text-word index → sorted op indices of
    /// every commit (executed *or* annulled — annulled instructions
    /// fetch and predecode before their condition is evaluated) at that
    /// word's PC, on any core. Built on first text query so
    /// register-only campaigns pay nothing.
    pub(crate) fetch_index: std::sync::OnceLock<std::collections::HashMap<u32, Vec<u32>>>,
}

/// Builds a [`PruneOracle`] one trace event at a time, so a golden run
/// can be digested while it is recorded instead of after: the caller
/// drains the run's trace buffer at tick boundaries
/// ([`ExecTrace::drain_closed`]) and never holds the whole trace.
/// [`PruneOracle::new`] is this builder fed a finished trace; both yield
/// the same oracle.
#[derive(Debug)]
pub struct OracleBuilder {
    isa: IsaKind,
    text_base: u32,
    words: Vec<u32>,
    word_fx: Vec<WordFx>,
    start_cycles: Vec<u64>,
    ops: Vec<Op>,
    ticks: Vec<u64>,
    landings: Vec<Vec<(u64, u32)>>,
    tid_count: usize,
}

impl OracleBuilder {
    /// An empty digest of a run whose trace started at the per-core
    /// clocks `start_cycles` ([`ExecTrace::start_cycles`]), against the
    /// decoded text section (`text[i]` is the instruction at
    /// `text_base + 4 * i`).
    pub fn new(
        isa: IsaKind,
        text: &[Inst],
        text_base: u32,
        start_cycles: Vec<u64>,
    ) -> OracleBuilder {
        OracleBuilder {
            isa,
            text_base,
            words: text.iter().map(fracas_isa::encode).collect(),
            word_fx: text.iter().map(|inst| WordFx::of(isa, inst)).collect(),
            landings: vec![Vec::new(); start_cycles.len()],
            start_cycles,
            ops: Vec::new(),
            ticks: Vec::new(),
            tid_count: 0,
        }
    }

    /// Digests the next event of the trace (events must arrive in trace
    /// order, stamped: drain closed ticks only).
    pub fn push(&mut self, ev: &TraceEvent) {
        let idx = self.ops.len() as u32;
        let op = match ev.kind {
            TraceKind::Commit { pc, skipped: false } => Op::Exec { core: ev.core, pc },
            TraceKind::Commit { pc, skipped: true } => Op::Skip { core: ev.core, pc },
            TraceKind::Dispatch { tid } => Op::Dispatch { core: ev.core, tid },
            TraceKind::Save { tid } => Op::Save { core: ev.core, tid },
            TraceKind::CtxWrite { tid } => Op::CtxWrite { tid },
        };
        if let Op::Dispatch { tid, .. } | Op::Save { tid, .. } | Op::CtxWrite { tid } = op {
            self.tid_count = self.tid_count.max(tid as usize + 1);
        }
        if op.core().is_some() {
            self.landings[ev.core as usize].push((ev.cycle, idx));
        }
        self.ops.push(op);
        self.ticks.push(ev.tick);
    }

    /// The finished oracle.
    pub fn finish(mut self) -> PruneOracle {
        // Growth slack of a digest fed while the run was recorded.
        self.ops.shrink_to_fit();
        self.ticks.shrink_to_fit();
        for landings in &mut self.landings {
            landings.shrink_to_fit();
        }
        let mut oracle = PruneOracle {
            ops: self.ops,
            word_fx: self.word_fx,
            outside_fx: WordFx::outside(self.isa),
            ticks: self.ticks,
            chunks: Vec::new(),
            landings: self.landings,
            start_cycles: self.start_cycles,
            tid_count: self.tid_count,
            isa: self.isa,
            words: self.words,
            text_base: self.text_base,
            fetch_index: std::sync::OnceLock::new(),
        };
        oracle.chunks = oracle
            .ops
            .chunks(CHUNK)
            .map(|ops| {
                let mut c = Chunk::default();
                for op in ops {
                    match *op {
                        Op::Exec { core, pc } => {
                            let fx = oracle.fx(pc);
                            c.uses = c.uses.union(fx.uses);
                            c.defs = c.defs.union(fx.defs);
                            c.uses_all_gprs |= fx.uses_all_gprs;
                            c.commit_cores |= 1 << core.min(63);
                        }
                        Op::Skip { core, pc } => {
                            c.uses.flags |= oracle.fx(pc).cond_flags;
                            c.commit_cores |= 1 << core.min(63);
                        }
                        Op::Dispatch { .. } | Op::Save { .. } | Op::CtxWrite { .. } => {
                            c.sched = true
                        }
                    }
                }
                c
            })
            .collect();
        oracle
    }
}

/// Where a fault at `(core, cycle)` physically lands in the golden
/// trace (see the module docs' landing semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Landing {
    /// The injector's replay finishes before the flip is ever applied
    /// (core never reaches `cycle`, or the crossing tick is the
    /// run-ending tick): provably [`PruneVerdict::Vanished`].
    Unapplied,
    /// The flip is applied; taint propagation starts at op index `.0`
    /// (the first op of the tick *after* the crossing tick).
    At(usize),
}

impl PruneOracle {
    /// Digests a golden trace against its decoded text section.
    /// `text[i]` is the instruction at `text_base + 4 * i`; a traced run
    /// never changes its text (`Machine::patch_text_word` refuses while
    /// tracing is on), so this is what every traced fetch read.
    pub fn new(isa: IsaKind, text: &[Inst], text_base: u32, trace: &ExecTrace) -> PruneOracle {
        let mut builder = OracleBuilder::new(isa, text, text_base, trace.start_cycles.clone());
        builder.ops.reserve_exact(trace.events.len());
        builder.ticks.reserve_exact(trace.events.len());
        for ev in &trace.events {
            builder.push(ev);
        }
        builder.finish()
    }

    /// The effects of committing the word at `pc` (indexed the way the
    /// machine fetches: `(pc - text_base) / 4`).
    pub(crate) fn fx(&self, pc: u32) -> &WordFx {
        let word = (pc.wrapping_sub(self.text_base) / 4) as usize;
        self.word_fx.get(word).unwrap_or(&self.outside_fx)
    }

    /// Where a fault at `(core, cycle)` lands, or `None` for a core the
    /// trace never saw. The injector pauses its replay at the first
    /// tick boundary where `core`'s clock >= `cycle`; taint propagation
    /// starts with the *next* tick.
    pub(crate) fn landing(&self, core: usize, cycle: u64) -> Option<Landing> {
        if core >= self.start_cycles.len() {
            return None;
        }
        if self.start_cycles[core] >= cycle {
            // Applied before the trace's first tick; the run cannot
            // already be finished there.
            return Some(Landing::At(0));
        }
        let landings = &self.landings[core];
        let i = landings.partition_point(|&(c, _)| c < cycle);
        let Some(&(_, op_idx)) = landings.get(i) else {
            // The workload exits before `core` ever reaches `cycle`:
            // the injector's replay finishes unpaused and the fault is
            // never applied.
            return Some(Landing::Unapplied);
        };
        let tick = self.ticks[op_idx as usize];
        let start = self.ticks.partition_point(|&t| t <= tick);
        if start >= self.ops.len() {
            // The crossing tick is the run-ending tick: the injector's
            // pause loop observes the finished flag before the clock
            // predicate, so the fault is never applied (see the module
            // docs' landing semantics).
            return Some(Landing::Unapplied);
        }
        Some(Landing::At(start))
    }

    /// Whether a fault timed at `(core, cycle)` is ever applied by the
    /// injector's replay, or `None` for a core the trace never saw.
    /// `Some(false)` is the never-lands case: the run
    /// finishes before the core reaches `cycle`, so the faulted run IS
    /// the golden run and the outcome is provably Vanished — the one
    /// static decision available to fault domains the taint walk cannot
    /// model (see `fracas-inject`'s `StaticOnly` prune capability).
    pub fn applied(&self, core: usize, cycle: u64) -> Option<bool> {
        self.landing(core, cycle).map(|l| l != Landing::Unapplied)
    }

    /// The PC of the first instruction `core` commits (executed or
    /// annulled) at or after the landing of `(core, cycle)` — the
    /// dynamic instruction an instruction-skip fault timed there would
    /// drop. `None` when the fault is never applied or the core commits
    /// nothing afterwards. Advisory (stats-side severity triage via the
    /// static effects table); never used to decide outcomes.
    pub fn skipped_pc(&self, core: usize, cycle: u64) -> Option<u32> {
        match self.landing(core, cycle)? {
            Landing::Unapplied => None,
            Landing::At(start) => self.ops[start..].iter().find_map(|op| match *op {
                Op::Exec { core: c, pc, .. } | Op::Skip { core: c, pc, .. }
                    if c as usize == core =>
                {
                    Some(pc)
                }
                _ => None,
            }),
        }
    }

    /// The taint walk from op index `start` (which the caller has
    /// verified is inside the trace: the fault was really applied).
    pub(crate) fn walk(
        &self,
        start: usize,
        core: usize,
        target: PruneTarget,
    ) -> Option<PruneVerdict> {
        let tset = target.as_set();
        let is_pc = target == PruneTarget::Pc;
        let clears_saved_r0 = matches!(target, PruneTarget::Gpr { reg: 0 });
        let mut taint = Taint::new(core, self.tid_count);
        let mut i = start;
        while i < self.ops.len() {
            // Skip-ahead: a whole chunk of commits that cannot touch
            // the target (and contains no scheduling events) leaves
            // the taint state unchanged.
            if i.is_multiple_of(CHUNK) {
                while i + CHUNK <= self.ops.len() {
                    let c = &self.chunks[i / CHUNK];
                    if c.sched {
                        break;
                    }
                    let touches = if is_pc {
                        // Every fetch reads the PC: only chunks with no
                        // commits on tainted cores are transparent.
                        c.commit_cores & taint.cores != 0
                    } else {
                        c.uses.union(c.defs).intersects(tset) || (c.uses_all_gprs && tset.gprs != 0)
                    };
                    if touches {
                        break;
                    }
                    i += CHUNK;
                }
                if i >= self.ops.len() {
                    break;
                }
            }
            match self.ops[i] {
                Op::Exec { core, pc } => {
                    if taint.core_is_tainted(core) {
                        if is_pc {
                            return None; // the fetch read the flipped PC
                        }
                        let fx = self.fx(pc);
                        if fx.uses.intersects(tset) || (fx.uses_all_gprs && tset.gprs != 0) {
                            return None; // may propagate: run for real
                        }
                        if tset.minus(fx.defs) == RegSet::EMPTY {
                            taint.clear_core(core);
                        }
                    }
                }
                Op::Skip { core, pc } => {
                    if taint.core_is_tainted(core) {
                        if is_pc {
                            return None;
                        }
                        if self.fx(pc).cond_flags & tset.flags != 0 {
                            return None;
                        }
                    }
                }
                Op::Dispatch { core, tid } => {
                    // The core's file is fully overwritten by the
                    // thread's saved context: the core inherits the
                    // spill slot's taint and the stale copy dies.
                    if taint.tid_is_tainted(tid) {
                        taint.taint_core(core);
                        taint.set_tid(tid, false);
                    } else {
                        taint.clear_core(core);
                    }
                }
                Op::Save { core, tid } => {
                    // The spill slot becomes an exact copy of the
                    // core's file, tainted or scrubbed alike.
                    taint.set_tid(tid, taint.core_is_tainted(core));
                }
                Op::CtxWrite { tid } => {
                    if clears_saved_r0 {
                        taint.set_tid(tid, false);
                    }
                }
            }
            if taint.is_clear() {
                return Some(PruneVerdict::Vanished);
            }
            i += 1;
        }
        if taint.cores != 0 && !is_pc {
            // Untouched residue in a physical register at exit: the
            // context hash differs, nothing else does.
            Some(PruneVerdict::SilentResidue)
        } else {
            // Residue only in saved thread contexts (never hashed) or
            // in the SIRA-32 PC (excluded from the hash): invisible.
            Some(PruneVerdict::Vanished)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_cpu::TraceEvent;
    use fracas_isa::{AluOp, InstKind, Reg};

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

    fn sched(core: u32, tick: u64, cycle: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            core,
            tick,
            cycle,
            kind,
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

    #[test]
    fn overwritten_before_read_vanishes() {
        // r1 = r2 + 1 at the first traced commit: an r1 fault applied
        // before it is overwritten; an r2 fault is read.
        let text = vec![addi(1, 2), Inst::new(InstKind::Halt)];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 1 }, 5),
            Some(PruneVerdict::Vanished)
        );
        assert_eq!(oracle.decided(0, PruneTarget::Gpr { reg: 2 }, 5), None);
    }

    #[test]
    fn unread_residue_is_silent() {
        // Nothing ever touches r7: the flip sits in the register file
        // until exit and perturbs only the context hash.
        let text = vec![addi(1, 2), Inst::new(InstKind::Halt)];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 7 }, 5),
            Some(PruneVerdict::SilentResidue)
        );
    }

    #[test]
    fn fault_beyond_the_last_cycle_never_lands() {
        let text = vec![addi(1, 2)];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 2 }, 1_000_000),
            Some(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn fault_crossing_on_the_run_ending_tick_never_applies() {
        // The first boundary where the core's clock reaches the fault
        // cycle is the boundary that ends the run: the injector's pause
        // loop sees `finished` before the clock predicate and never
        // applies the flip, so even a never-touched register vanishes.
        // (The historical ep-omp-1-sira64 record-169 misclassification:
        // the walk used to start past the end of the trace and report
        // SilentResidue.)
        let text = vec![addi(1, 2), Inst::new(InstKind::Halt)];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 7 }, 25),
            Some(PruneVerdict::Vanished)
        );
        // One tick earlier the fault really lands and the residue is
        // visible at exit.
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 7 }, 15),
            Some(PruneVerdict::SilentResidue)
        );
    }

    #[test]
    fn taint_lands_after_the_crossing_tick() {
        // The r2-reading commit is the crossing event itself (cycle 20
        // >= fault cycle 20): the injector pauses *at* that boundary
        // and the flip lands after the tick, so the read at tick 0
        // does not see it; the def of r2 at tick 1 clears it.
        let text = vec![addi(1, 2), addi(2, 1), Inst::new(InstKind::Halt)];
        let tr = trace(
            vec![10],
            vec![
                commit(0, 0, 20, 0),
                commit(0, 1, 30, 1),
                commit(0, 2, 40, 2),
            ],
        );
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 2 }, 20),
            Some(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn taint_follows_save_and_dispatch() {
        // Core 0 is tainted, saved into tid 1, tid 1 dispatched onto
        // core 1 where the register is read: abstain.
        let text = vec![addi(1, 2), Inst::new(InstKind::Halt)];
        let tr = trace(
            vec![10, 10],
            vec![
                sched(0, 0, 20, TraceKind::Save { tid: 1 }),
                sched(1, 1, 25, TraceKind::Dispatch { tid: 1 }),
                commit(1, 2, 30, 0),
            ],
        );
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(oracle.decided(0, PruneTarget::Gpr { reg: 2 }, 5), None);
        // A dispatch of a *clean* thread onto the tainted core kills
        // the core's taint instead.
        let tr2 = trace(
            vec![10, 10],
            vec![
                sched(0, 0, 20, TraceKind::Dispatch { tid: 3 }),
                commit(0, 1, 30, 0),
            ],
        );
        let oracle2 = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr2);
        assert_eq!(
            oracle2.decided(0, PruneTarget::Gpr { reg: 2 }, 5),
            Some(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn ops_stay_compact() {
        // A commit stores its core and PC only; its effects live once
        // per text word. The oracle holds one op per golden event.
        assert_eq!(std::mem::size_of::<Op>(), 12);
    }

    #[test]
    fn taint_parked_in_a_saved_context_is_invisible_at_exit() {
        // Saved into tid 1 which is never dispatched again: the flip
        // lives only in a context block the exit hash never covers.
        let text = vec![addi(1, 2), Inst::new(InstKind::Halt)];
        let tr = trace(
            vec![10],
            vec![
                sched(0, 0, 20, TraceKind::Save { tid: 1 }),
                sched(0, 1, 25, TraceKind::Dispatch { tid: 0 }),
                commit(0, 2, 30, 1),
            ],
        );
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 2 }, 5),
            Some(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn kernel_ctx_write_clears_a_parked_r0_fault() {
        // An r0 fault saved into blocked tid 1 dies when the kernel
        // overwrites the saved r0 with a completion value, even though
        // tid 1 later runs and reads r0.
        let text = vec![addi(1, 0), Inst::new(InstKind::Halt)];
        let tr = trace(
            vec![10, 10],
            vec![
                sched(0, 0, 20, TraceKind::Save { tid: 1 }),
                sched(0, 1, 24, TraceKind::Dispatch { tid: 0 }),
                sched(0, 2, 25, TraceKind::CtxWrite { tid: 1 }),
                sched(1, 3, 28, TraceKind::Dispatch { tid: 1 }),
                commit(1, 4, 32, 0),
            ],
        );
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 0 }, 5),
            Some(PruneVerdict::Vanished)
        );
        // The same shape with r1 (not covered by ctx writes) abstains.
        let text2 = vec![addi(0, 1), Inst::new(InstKind::Halt)];
        let oracle2 = PruneOracle::new(IsaKind::Sira64, &text2, BASE, &tr);
        assert_eq!(oracle2.decided(0, PruneTarget::Gpr { reg: 1 }, 5), None);
    }

    #[test]
    fn pc_fault_aborts_on_any_commit_but_residue_vanishes() {
        let text = vec![addi(1, 2), Inst::new(InstKind::Halt)];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let oracle = PruneOracle::new(IsaKind::Sira32, &text, BASE, &tr);
        // Any later fetch reads the flipped PC: abstain.
        assert_eq!(oracle.decided(0, PruneTarget::Pc, 5), None);
        // A PC flip after the last commit is excluded from the exit
        // context hash: vanished.
        let tr2 = trace(vec![10], vec![commit(0, 0, 20, 0)]);
        let oracle2 = PruneOracle::new(IsaKind::Sira32, &text, BASE, &tr2);
        assert_eq!(
            oracle2.decided(0, PruneTarget::Pc, 20),
            Some(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn flag_faults_track_condition_reads() {
        // cmp r0, #0 defs all flags: a flag fault before it vanishes.
        let text = vec![
            Inst::new(InstKind::CmpImm { rn: Reg(0), imm: 0 }),
            Inst::new(InstKind::Halt),
        ];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(
                0,
                PruneTarget::Flags {
                    mask: FLAG_ALL_MASK
                },
                5
            ),
            Some(PruneVerdict::Vanished)
        );
    }

    use crate::usedef::FLAG_ALL as FLAG_ALL_MASK;

    /// Pins the [`svc_regs`] service numbers to the kernel's published
    /// ABI, and its register claims to the handler's shape: arguments
    /// are a prefix of r0..r3, the only writable register is r0.
    #[test]
    fn svc_regs_match_the_kernel_abi() {
        use fracas_kernel::abi;
        for isa in [IsaKind::Sira32, IsaKind::Sira64] {
            // Read r0 only, no return value.
            for n in [
                abi::SYS_EXIT,
                abi::SYS_THREAD_EXIT,
                abi::SYS_LOCK,
                abi::SYS_WRITE_INT,
                abi::SYS_WRITE_CH,
            ] {
                assert_eq!(svc_regs(isa, n), Some((0b0001, false)), "svc {n}");
            }
            // Read r0, return into r0.
            for n in [abi::SYS_SBRK, abi::SYS_UNLOCK] {
                assert_eq!(svc_regs(isa, n), Some((0b0001, true)), "svc {n}");
            }
            // Read r0..r1, return into r0.
            for n in [abi::SYS_WRITE, abi::SYS_SPAWN] {
                assert_eq!(svc_regs(isa, n), Some((0b0011, true)), "svc {n}");
            }
            assert_eq!(svc_regs(isa, abi::SYS_BARRIER), Some((0b0011, false)));
            assert_eq!(svc_regs(isa, abi::SYS_JOIN), Some((0b0001, false)));
            assert_eq!(svc_regs(isa, abi::SYS_SEND), Some((0b1111, true)));
            assert_eq!(svc_regs(isa, abi::SYS_RECV), Some((0b1111, false)));
            // Pure returns.
            for n in [
                abi::SYS_RANK,
                abi::SYS_SIZE,
                abi::SYS_TIME,
                abi::SYS_NTHREADS,
                abi::SYS_GETTID,
            ] {
                assert_eq!(svc_regs(isa, n), Some((0, true)), "svc {n}");
            }
            assert_eq!(svc_regs(isa, abi::SYS_YIELD), Some((0, false)));
            // Unknown services keep the conservative model.
            assert_eq!(svc_regs(isa, 999), None);
        }
        // The split f64 payload of write_flt.
        assert_eq!(
            svc_regs(IsaKind::Sira32, abi::SYS_WRITE_FLT),
            Some((0b0011, false))
        );
        assert_eq!(
            svc_regs(IsaKind::Sira64, abi::SYS_WRITE_FLT),
            Some((0b0001, false))
        );
    }

    #[test]
    fn svc_is_not_a_register_barrier() {
        // svc #15 (write_int) reads r0 only: a flipped r5 sails through
        // it into silent residue, a flipped r0 is read and abstains.
        let text = vec![
            Inst::new(InstKind::Svc { imm: 15 }),
            Inst::new(InstKind::Halt),
        ];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 5 }, 5),
            Some(PruneVerdict::SilentResidue)
        );
        assert_eq!(oracle.decided(0, PruneTarget::Gpr { reg: 0 }, 5), None);
    }

    #[test]
    fn never_blocking_svc_overwrites_its_return_register() {
        // svc #13 (time) reads nothing and always writes r0: a flipped
        // r0 dies at the syscall.
        let text = vec![
            Inst::new(InstKind::Svc { imm: 13 }),
            Inst::new(InstKind::Halt),
        ];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            oracle.decided(0, PruneTarget::Gpr { reg: 0 }, 5),
            Some(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn unknown_svc_stays_a_read_barrier() {
        let text = vec![
            Inst::new(InstKind::Svc { imm: 999 }),
            Inst::new(InstKind::Halt),
        ];
        let tr = trace(vec![10], vec![commit(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let oracle = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(oracle.decided(0, PruneTarget::Gpr { reg: 5 }, 5), None);
    }
}
