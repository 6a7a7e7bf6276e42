//! The multicore machine and its interpreter loop.

use crate::trace::{ExecTrace, TraceKind};
use crate::{Core, CostModel, Flags, Trap};
use fracas_isa::effects::{self, CostClass};
use fracas_isa::lower::{self, DecodedInst, Op};
use fracas_isa::{AluOp, FReg, FpOp, Image, Inst, InstKind, IsaKind, Reg, Width};
use fracas_mem::{
    Access, AccessKind, CacheParams, MemSnapshot, MemSystem, PageSet, PermissionMap, Perms, PhysMem,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Default flat-boot physical memory size (16 MiB).
const FLAT_MEM_SIZE: u32 = 16 << 20;
/// Flat-boot data segment base.
const FLAT_DATA_BASE: u32 = 0x0010_0000;
/// Cores whose lanes one [`Machine::run_burst`] remembers: the paper's
/// largest core count. A burst allocates nothing; on a larger machine
/// it asks for the lanes of the cores past this one at every switch.
const LANE_CACHE: usize = 4;

/// Outcome of executing one instruction on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The instruction retired normally (or was conditionally skipped).
    Executed,
    /// A supervisor call was executed; the PC already points past it and
    /// the kernel should service the given number.
    Svc(u16),
    /// A synchronous exception; the PC still points at the faulting
    /// instruction.
    Trap(Trap),
    /// The core executed `halt`.
    Halted,
}

/// What one [`Machine::run_burst`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// The core of the last step: the one the caller services next.
    pub core: usize,
    /// Steps taken over all cores (at least one).
    pub steps: u64,
    /// The last step's result.
    pub result: StepResult,
}

/// Errors from the bare-metal convenience runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A trap occurred with no kernel to absorb it.
    Trap(Trap),
    /// A supervisor call occurred with no kernel to service it.
    UnhandledSvc {
        /// The service number.
        num: u16,
        /// The calling PC.
        pc: u32,
    },
    /// The step budget ran out before `halt`. Carries enough context
    /// to diagnose a hang without a re-run under trace.
    StepLimit {
        /// Total instructions retired across all cores when the
        /// budget ran out.
        instructions: u64,
        /// Each core's PC at the moment the budget ran out.
        pcs: Vec<u32>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Trap(t) => write!(f, "{t}"),
            RunError::UnhandledSvc { num, pc } => {
                write!(f, "unhandled svc #{num} at {pc:#010x} (no kernel attached)")
            }
            RunError::StepLimit { instructions, pcs } => {
                write!(
                    f,
                    "step limit reached before halt ({instructions} instructions retired; core PCs:"
                )?;
                for (i, pc) in pcs.iter().enumerate() {
                    write!(f, "{}{pc:#010x}", if i == 0 { " " } else { ", " })?;
                }
                write!(f, ")")
            }
        }
    }
}

impl Error for RunError {}

#[derive(Debug, Clone)]
struct FnProfile {
    /// (start, end, name-index) ranges sorted by start.
    ranges: Vec<(u32, u32, usize)>,
    names: Vec<String>,
    cycles: Vec<u64>,
    /// Per-core memoised range index (code mostly stays in one function).
    memo: Vec<usize>,
}

impl FnProfile {
    fn attribute(&mut self, core: usize, pc: u32, cycles: u64) {
        let memo = self.memo[core];
        if memo < self.ranges.len() {
            let (s, e, idx) = self.ranges[memo];
            if pc >= s && pc < e {
                self.cycles[idx] += cycles;
                return;
            }
        }
        let pos = self.ranges.partition_point(|&(s, _, _)| s <= pc);
        if let Some(i) = pos.checked_sub(1) {
            let (s, e, idx) = self.ranges[i];
            if pc >= s && pc < e {
                self.memo[core] = i;
                self.cycles[idx] += cycles;
            }
        }
    }
}

/// Everything a step reads of the machine except physical memory: the
/// one declaration of what [`Machine::snapshot`] captures,
/// [`Machine::restore`] revives and [`Machine::state_matches`] compares.
/// A field added here is captured, restored and compared with no
/// further edit. Outside it sit physical memory (captured sparsely
/// beside it), tables derived from it (rebuilt on restore) and
/// observers (off after restore, never compared).
///
/// Fields are declared in comparison order, so the derived `==` tries
/// the scalars first and the large collections last.
#[derive(Debug, Clone, PartialEq)]
struct MachineState {
    isa: IsaKind,
    text_base: u32,
    cores: Vec<Core>,
    caches: MemSystem,
    /// Encoded instruction words (the injectable instruction memory).
    text_words: Vec<u32>,
    /// Predecoded table over `text_words` (see [`fracas_isa::lower`]):
    /// one dense 16-byte slot per word, kept coherent by
    /// [`Machine::patch_text_word`]. A word that no longer decodes or
    /// violates the ISA lowers to [`Op::Illegal`] and traps at fetch.
    /// Shared by `Arc`, so capture and restore cost one reference count
    /// and a text fault landed before a capture survives the round
    /// trip; mutation goes through copy-on-write. It is a pure function
    /// of `text_words`, so comparing it never changes a verdict, and
    /// because `DecodedInst: Eq` the `Arc` comparison short-circuits on
    /// a shared pointer.
    dtext: Arc<Vec<DecodedInst>>,
}

impl MachineState {
    fn core_cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles()
    }

    fn max_cycles(&self) -> u64 {
        self.cores.iter().map(Core::cycles).max().unwrap_or(0)
    }
}

/// The simulated multicore machine: cores, physical memory, caches and
/// the loaded text section.
///
/// The kernel model drives it through [`Machine::run_burst`], which
/// interleaves the cores itself; bare-metal programs can use
/// [`Machine::run_to_halt`].
#[derive(Debug, Clone)]
pub struct Machine {
    state: MachineState,
    /// Physical memory (public: the kernel and the injector manipulate it).
    pub mem: PhysMem,
    /// The timing model: `CostModel::for_isa` of the state's ISA, so
    /// derived data, rebuilt on restore rather than captured.
    cost: CostModel,
    /// Cycle charge per [`CostClass`] discriminant, prefolded from
    /// `cost` so the hot loop charges with one array load.
    charge: [u32; CostClass::COUNT],
    /// Per-function cycle attribution, `None` unless
    /// [`Machine::enable_profiling`] was called. This and the next two
    /// fields are observers: they never influence execution, so they
    /// stay outside the state and are off after [`Machine::restore`].
    profile: Option<FnProfile>,
    /// Golden-run event trace, `None` unless [`Machine::enable_trace`]
    /// was called.
    trace: Option<ExecTrace>,
    /// Per-step effects conformance checking (see [`crate::check`]).
    check_effects: bool,
    /// Force the structured-[`Inst`] reference interpreter instead of
    /// the predecoded fast path (see [`Machine::set_reference_exec`]).
    /// A differential-testing hook, outside the state: both paths are
    /// architecturally identical, which is exactly what the
    /// differential tests prove.
    ref_exec: bool,
}

/// A frozen copy of a [`Machine`] at one tick boundary, captured by
/// [`Machine::snapshot`] and revived by [`Machine::restore`].
///
/// Physical memory is stored sparsely (nonzero pages only), as shared
/// immutable pages; the rest of the machine state is a plain copy.
/// Observers are excluded — see [`Machine::snapshot`] for the
/// determinism argument.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    state: MachineState,
    mem: MemSnapshot,
}

impl MachineSnapshot {
    /// Local cycle clock of `core` at capture time (used by checkpoint
    /// selection: a snapshot may serve a fault on `core` at cycle `c`
    /// only when `core_cycles(core) < c`).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_cycles(&self, core: usize) -> u64 {
        self.state.core_cycles(core)
    }

    /// The machine wall-clock (max over all core clocks) at capture time.
    pub fn max_cycles(&self) -> u64 {
        self.state.max_cycles()
    }
}

impl Machine {
    /// Creates a machine loaded with `image`, with all cores halted.
    ///
    /// The data template is *not* placed anywhere — that is the loader's
    /// (kernel's) job, since each process gets its own copy.
    pub fn new(image: &Image, cores: usize, mem_size: u32, cache: CacheParams) -> Machine {
        let dtext: Vec<DecodedInst> = image
            .text
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let pc = image.text_base.wrapping_add((i as u32).wrapping_mul(4));
                lower::lower(image.isa, pc, Some(inst))
            })
            .collect();
        let state = MachineState {
            isa: image.isa,
            text_base: image.text_base,
            cores: (0..cores).map(|_| Core::new(image.isa)).collect(),
            caches: MemSystem::new(cores, cache),
            text_words: image.text.iter().map(fracas_isa::encode).collect(),
            dtext: Arc::new(dtext),
        };
        Machine::with_state(state, PhysMem::new(mem_size))
    }

    /// Wraps `state` and `mem` with the derived timing tables and every
    /// observer off: the one constructor behind [`Machine::new`] and
    /// [`Machine::restore`].
    fn with_state(state: MachineState, mem: PhysMem) -> Machine {
        let cost = CostModel::for_isa(state.isa);
        Machine {
            state,
            mem,
            cost,
            charge: charge_table(&cost),
            profile: None,
            trace: None,
            check_effects: false,
            ref_exec: false,
        }
    }

    /// Boots a single-process, bare-metal configuration: the data template
    /// is copied to a fixed base, GB/SP/PC are initialised on every core
    /// (stacks staggered), core 0 unhalted. Used by examples and tests
    /// that don't need the kernel.
    pub fn boot_flat(image: &Image, cores: usize) -> Machine {
        let mut m = Machine::new(image, cores, FLAT_MEM_SIZE, CacheParams::paper());
        m.mem
            .write_bytes(FLAT_DATA_BASE, &image.data_template)
            .expect("data template fits flat memory");
        for i in 0..cores {
            let sp = FLAT_MEM_SIZE - 64 * 1024 * (i as u32) - 64;
            let core = &mut m.state.cores[i];
            core.set_reg(image.isa.gb(), u64::from(FLAT_DATA_BASE));
            core.set_reg(image.isa.sp(), u64::from(sp));
            core.set_pc(image.entry);
            core.set_halted(i != 0);
        }
        m
    }

    /// The machine's ISA.
    pub fn isa(&self) -> IsaKind {
        self.state.isa
    }

    /// Turns per-step effects conformance checking on or off (a new or
    /// restored machine starts with it off). When on, every executed
    /// instruction is verified against its declared
    /// [`fracas_isa::Effects`] (see the `check` module); a divergence
    /// panics. Checking observes execution without influencing it.
    pub fn set_effect_check(&mut self, on: bool) {
        self.check_effects = on;
    }

    /// Forces (or releases) the structured-[`Inst`] reference
    /// interpreter: every step decodes its word on demand and runs the
    /// original wide-match execution path instead of dispatching on
    /// the predecoded table. Architecturally the two paths are
    /// identical — the differential test suite steps them in lockstep
    /// — so this is purely a verification hook (it is also the path
    /// the [`Machine::set_effect_check`] conformance checker observes,
    /// since the checker needs the structured instruction).
    pub fn set_reference_exec(&mut self, on: bool) {
        self.ref_exec = on;
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.state.cores.len()
    }

    /// Shared read access to a core.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn core(&self, index: usize) -> &Core {
        &self.state.cores[index]
    }

    /// Mutable access to a core (kernel context switching, injection).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn core_mut(&mut self, index: usize) -> &mut Core {
        &mut self.state.cores[index]
    }

    /// The cache hierarchy (statistics readout).
    pub fn caches(&self) -> &MemSystem {
        &self.state.caches
    }

    /// Base address of the text section.
    pub fn text_base(&self) -> u32 {
        self.state.text_base
    }

    /// Byte size of the text section.
    pub fn text_bytes(&self) -> u32 {
        (self.state.text_words.len() as u32) * 4
    }

    /// The runnable core with the smallest local cycle count (ties break
    /// toward lower core ids). `None` when every core is halted.
    pub fn next_core(&self) -> Option<usize> {
        self.elect().map(|(core, _)| core)
    }

    /// The interleaving rule, written once: [`Machine::next_core`]'s
    /// core, plus the clock at which it stops winning. A rival core `j`
    /// wins once the elected core's clock reaches `cycles_j`, or
    /// `cycles_j + 1` when `j` has the higher id and so loses ties; the
    /// bound is the least of these (`u64::MAX` when no rival runs).
    /// While the elected core's clock stays below it, electing again
    /// picks the same core.
    ///
    /// One pass in id order: every core seen before a new leader has a
    /// clock at or above the old leader's and a lower id than the new
    /// one, so the old leader's clock is then the exact bound.
    fn elect(&self) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        let mut until = u64::MAX;
        for (i, c) in self.state.cores.iter().enumerate() {
            if c.halted {
                continue;
            }
            match best {
                Some((_, lead)) if c.cycles >= lead => until = until.min(c.cycles + 1),
                Some((_, lead)) => {
                    until = lead;
                    best = Some((i, c.cycles));
                }
                None => best = Some((i, c.cycles)),
            }
        }
        best.map(|(core, _)| (core, until))
    }

    /// The maximum local cycle count over all cores (the machine's wall
    /// clock; used for watchdogs and Table 1's simulation-time figures).
    pub fn max_cycles(&self) -> u64 {
        self.state.max_cycles()
    }

    /// Runs the cores in the deterministic interleaving until the kernel
    /// has to look: elects a core ([`Machine::next_core`]), steps it
    /// until another core would win the election, elects again, and so
    /// on. Returns after a step that is not [`StepResult::Executed`],
    /// after `budget` steps over all cores, or once the stepped core's
    /// clock reaches its own cap; `None`, having stepped nothing, when
    /// every core is halted.
    ///
    /// `lane(core)` gives an elected core's permission map and its cap:
    /// the first clock at which the kernel could act between two of its
    /// steps (a watchdog, a preemption quantum, a pause fence). Below
    /// every cap the kernel's visit after a plain step is a no-op and
    /// its next election is the one made here, so a burst of `n` steps
    /// leaves the machine in exactly the state of `n` one-step bursts,
    /// and a traced burst records the events of `n` one-step bursts,
    /// stamps included (see [`crate::trace`]). With one runnable core the
    /// burst is a plain step loop.
    pub fn run_burst<'p>(
        &mut self,
        budget: u64,
        lane: impl Fn(usize) -> (&'p PermissionMap, u64),
    ) -> Option<Burst> {
        // With every per-step observer off (no profile, no trace, no
        // conformance checker, not in reference mode) the `step`
        // wrapper's pre/post bookkeeping is dead weight; drive the fast
        // path directly. An elected core is runnable and a plain step
        // never halts it, so the wrapper's halt check is dead too. One
        // step of either loop is state-identical to one `Machine::step`.
        let plain =
            self.profile.is_none() && self.trace.is_none() && !self.check_effects && !self.ref_exec;
        if plain {
            self.burst_with(budget, lane, |m, core, perm| {
                let pc = m.state.cores[core].pc();
                m.step_fast(core, perm, pc)
            })
        } else {
            self.burst_with(budget, lane, Machine::step)
        }
    }

    /// [`Machine::run_burst`]'s election loop over one step function.
    #[inline(always)]
    fn burst_with<'p>(
        &mut self,
        budget: u64,
        lane: impl Fn(usize) -> (&'p PermissionMap, u64),
        step: impl Fn(&mut Machine, usize, &PermissionMap) -> StepResult,
    ) -> Option<Burst> {
        let (mut core, mut until) = self.elect()?;
        let mut steps = 0u64;
        // A lane cannot change within a burst, so lockstep switches ask
        // `lane` once per core (beyond `LANE_CACHE` cores, every time).
        let mut lanes: [Option<(&PermissionMap, u64)>; LANE_CACHE] = [None; LANE_CACHE];
        loop {
            let (perm, cap) = match lanes.get_mut(core) {
                Some(slot) => *slot.get_or_insert_with(|| lane(core)),
                None => lane(core),
            };
            let stop = cap.min(until);
            loop {
                let result = step(self, core, perm);
                steps += 1;
                let cycles = self.state.cores[core].cycles();
                if !matches!(result, StepResult::Executed) || steps >= budget || cycles >= stop {
                    // Past the election bound but below its own cap, the
                    // core only hands over to the next election.
                    if matches!(result, StepResult::Executed) && steps < budget && cycles < cap {
                        break;
                    }
                    return Some(Burst {
                        core,
                        steps,
                        result,
                    });
                }
            }
            (core, until) = self.elect().expect("the stepped core is still runnable");
        }
    }

    /// Total retired instructions over all cores.
    pub fn total_instructions(&self) -> u64 {
        self.state
            .cores
            .iter()
            .map(|c| c.stats().instructions)
            .sum()
    }

    /// Enables per-function cycle attribution from the image's symbol
    /// table (vulnerability-window profiling).
    pub fn enable_profiling(&mut self, image: &Image) {
        let mut starts: Vec<(u32, String)> = image
            .symbols
            .iter()
            .filter(|s| s.section == fracas_isa::Section::Text)
            .map(|s| (s.value, s.name.clone()))
            .collect();
        starts.sort();
        let end = self.state.text_base + self.text_bytes();
        let mut names = Vec::with_capacity(starts.len());
        let mut ranges = Vec::with_capacity(starts.len());
        for (i, (start, name)) in starts.iter().enumerate() {
            let stop = starts.get(i + 1).map_or(end, |(s, _)| *s);
            ranges.push((*start, stop, i));
            names.push(name.clone());
        }
        let cycles = vec![0; names.len()];
        self.profile = Some(FnProfile {
            ranges,
            names,
            cycles,
            memo: vec![0; self.state.cores.len()],
        });
    }

    /// Per-function cycle totals (empty unless profiling was enabled).
    pub fn profile_report(&self) -> HashMap<String, u64> {
        match &self.profile {
            None => HashMap::new(),
            Some(p) => p
                .names
                .iter()
                .cloned()
                .zip(p.cycles.iter().copied())
                .collect(),
        }
    }

    // ----- golden-run tracing (fracas-analyze input) ---------------------

    /// Enables commit/schedule event tracing (see [`crate::trace`]).
    /// Like profiling, tracing observes execution without influencing
    /// it and is excluded from snapshots, so a traced golden run stays
    /// bit-identical to an untraced one.
    pub fn enable_trace(&mut self) {
        self.trace = Some(ExecTrace::new(
            self.state.cores.iter().map(Core::cycles).collect(),
        ));
    }

    /// Takes the accumulated trace with its last tick closed, disabling
    /// tracing (`None` if tracing was never enabled).
    pub fn take_trace(&mut self) -> Option<ExecTrace> {
        let mut trace = self.trace.take()?;
        trace.close_tick(&self.state.cores);
        Some(trace)
    }

    /// The trace being recorded (`None` unless tracing is enabled), for
    /// consumers that drain it as it grows ([`ExecTrace::drain_closed`]).
    pub fn trace_mut(&mut self) -> Option<&mut ExecTrace> {
        self.trace.as_mut()
    }

    /// Records a context restore onto `core` (kernel dispatch hook).
    pub fn trace_dispatch(&mut self, core: usize, tid: u32) {
        if let Some(t) = &mut self.trace {
            t.push(core as u32, TraceKind::Dispatch { tid });
        }
    }

    /// Records a context save from `core` into thread `tid` (kernel
    /// block/preempt/yield hook).
    pub fn trace_save(&mut self, core: usize, tid: u32) {
        if let Some(t) = &mut self.trace {
            t.push(core as u32, TraceKind::Save { tid });
        }
    }

    /// Records a kernel write into blocked thread `tid`'s saved `r0`.
    /// The event has no meaningful core; consumers order it by tick.
    pub fn trace_ctx_write(&mut self, tid: u32) {
        if let Some(t) = &mut self.trace {
            t.push(0, TraceKind::CtxWrite { tid });
        }
    }

    // ----- fault injection hooks (§3.2.1 fault model) --------------------

    /// Flips one bit of an integer register. On SIRA-32, register 15 is
    /// the architected PC, so the flip lands on the program counter.
    pub fn flip_gpr(&mut self, core: usize, reg: u32, bit: u32) {
        let isa = self.state.isa;
        let core = &mut self.state.cores[core];
        match isa {
            IsaKind::Sira32 => {
                let reg = reg % 16;
                let bit = bit % 32;
                if Reg(reg as u8) == fracas_isa::sira32::PC {
                    let pc = core.pc() ^ (1 << bit);
                    core.set_pc(pc);
                } else {
                    let v = core.reg(Reg(reg as u8)) ^ (1 << bit);
                    core.set_reg(Reg(reg as u8), v);
                }
            }
            IsaKind::Sira64 => {
                let reg = reg % 32;
                let bit = bit % 64;
                let v = core.reg(Reg(reg as u8)) ^ (1 << bit);
                core.set_reg(Reg(reg as u8), v);
            }
        }
    }

    /// Flips one bit of an FP register (SIRA-64).
    pub fn flip_fpr(&mut self, core: usize, reg: u32, bit: u32) {
        let core = &mut self.state.cores[core];
        let reg = FReg((reg % 32) as u8);
        let v = core.freg(reg) ^ (1 << (bit % 64));
        core.set_freg(reg, v);
    }

    /// Flips one NZCV flag (0 = N, 1 = Z, 2 = C, 3 = V).
    pub fn flip_flag(&mut self, core: usize, which: u32) {
        let core = &mut self.state.cores[core];
        let mut f = core.flags();
        match which % 4 {
            0 => f.n = !f.n,
            1 => f.z = !f.z,
            2 => f.c = !f.c,
            _ => f.v = !f.v,
        }
        core.set_flags(f);
    }

    /// Flips one bit of physical memory (bypasses permissions — it models
    /// a particle strike on an SRAM cell, not a program access).
    pub fn flip_mem(&mut self, addr: u32, bit: u32) {
        if let Ok(byte) = self.mem.read_u8(addr) {
            let _ = self.mem.write_u8(addr, byte ^ (1 << (bit % 8)));
        }
    }

    /// Flips one bit of instruction memory. The corrupted word is
    /// re-decoded and its predecode slot re-lowered; if it no longer
    /// decodes, executing it raises an illegal-instruction trap
    /// (modelling an uncorrected I-cache/IMEM upset).
    pub fn flip_text(&mut self, word_index: u32, bit: u32) {
        if let Some(word) = self.state.text_words.get(word_index as usize) {
            self.patch_text_word(word_index, word ^ (1 << (bit % 32)));
        }
    }

    /// Overwrites one instruction word, keeping the predecoded table
    /// coherent: the affected slot is re-lowered from the new word
    /// (the coherence rule of [`fracas_isa::lower`]). A word that no
    /// longer decodes or fails ISA validation lowers to
    /// [`Op::Illegal`] and traps at fetch. Out-of-range indices are
    /// ignored. The decoded table is copy-on-write, so a patch never
    /// disturbs snapshots sharing the pre-patch table.
    ///
    /// # Panics
    ///
    /// Panics while golden-run tracing is on. The static text-fault
    /// analysis in `fracas-analyze` digests a trace against the image's
    /// text, so a traced run must never change a word. Text faults are
    /// applied only to untraced kernels (booted or restored), so no
    /// campaign reaches this.
    pub fn patch_text_word(&mut self, word_index: u32, word: u32) {
        assert!(
            self.trace.is_none(),
            "text word {word_index} patched while tracing is on"
        );
        let Some(slot) = self.state.text_words.get_mut(word_index as usize) else {
            return;
        };
        *slot = word;
        let isa = self.state.isa;
        let pc = self
            .state
            .text_base
            .wrapping_add(word_index.wrapping_mul(4));
        let inst = fracas_isa::decode(word)
            .ok()
            .filter(|inst| isa.validate(inst).is_ok());
        Arc::make_mut(&mut self.state.dtext)[word_index as usize] =
            lower::lower(isa, pc, inst.as_ref());
    }

    /// Flips one bit of a cache line's tag/state/LRU payload (see
    /// `fracas_mem::MemSystem::flip_bit` for the unit codes and the
    /// 40-bit line layout). The hook is a pure involution like every
    /// other flip.
    ///
    /// # Errors
    ///
    /// [`fracas_mem::FlipError`] on out-of-range coordinates; the flip
    /// is not applied.
    pub fn flip_cache(
        &mut self,
        unit: u32,
        core: usize,
        line: usize,
        bit: u32,
    ) -> Result<(), fracas_mem::FlipError> {
        self.state.caches.flip_bit(unit, core, line, bit)
    }

    /// Flips one bit of a resident cache line's 64-byte data copy (see
    /// `fracas_mem::MemSystem::flip_data_bit`): the line then serves
    /// the corrupted bytes to loads until it is evicted or overwritten.
    /// Strikes on empty ways mask; the hook is an involution.
    ///
    /// # Errors
    ///
    /// [`fracas_mem::FlipError`] on out-of-range or non-data-unit
    /// coordinates; the flip is not applied.
    pub fn flip_cachedata(
        &mut self,
        unit: u32,
        core: usize,
        line: usize,
        bit: u32,
    ) -> Result<(), fracas_mem::FlipError> {
        self.state
            .caches
            .flip_data_bit(unit, core, line, bit, &self.mem)
    }

    /// Flips one bit of a store-buffer entry's 97-bit payload (see
    /// `fracas_mem::StoreBuffer::flip` for the address/data/valid
    /// layout): a matching load then forwards the corrupted value and
    /// the entry eventually drains it over memory. An involution.
    ///
    /// # Errors
    ///
    /// [`fracas_mem::FlipError`] on an out-of-range core or entry; the
    /// flip is not applied.
    pub fn flip_storebuf(
        &mut self,
        core: usize,
        entry: usize,
        bit: u32,
    ) -> Result<(), fracas_mem::FlipError> {
        self.state.caches.flip_storebuf(core, entry, bit)
    }

    /// Drains `core`'s store buffer to memory — the kernel's fence
    /// point at SVC entry. A no-op unless a fault tainted an entry.
    pub fn drain_store_buffer(&mut self, core: usize) {
        self.state.caches.drain_store_buffer(core, &mut self.mem);
    }

    /// Toggles the instruction-skip fault latch on `core`: the next
    /// instruction the core issues is dropped at the issue stage — it
    /// retires (or annuls, if its condition fails) with its static
    /// cost-class charge but performs no architectural work — and the
    /// latch clears. A toggle rather than a set so the hook is its own
    /// inverse, like every other flip hook (multi-bit "widths" fold
    /// onto the single latch, modulus 1).
    pub fn flip_skip(&mut self, core: usize) {
        let cr = &mut self.state.cores[core];
        cr.skip_pending = !cr.skip_pending;
    }

    /// Number of instruction words in the text section.
    pub fn text_len(&self) -> u32 {
        self.state.text_words.len() as u32
    }

    /// The encoded instruction word at `index` (`None` out of range) —
    /// inspection hook for text-fault tooling and tests.
    pub fn text_word(&self, index: u32) -> Option<u32> {
        self.state.text_words.get(index as usize).copied()
    }

    // ----- checkpoint / restore -------------------------------------------

    /// Captures every piece of state execution depends on: the machine
    /// state (cores with their registers, flags, cycle clocks and stats;
    /// the full cache hierarchy; the text section in both encodings, so
    /// a prior text fault survives the round trip) plus sparse physical
    /// memory.
    ///
    /// Observers — profiling, tracing, the effect checker and the
    /// reference-interpreter switch — are deliberately *not* captured:
    /// they observe execution without influencing it, so a machine
    /// restored without them replays the exact same cycle-by-cycle
    /// schedule.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            state: self.state.clone(),
            mem: self.mem.snapshot(),
        }
    }

    /// [`Machine::snapshot`] with physical memory captured incrementally
    /// from `base`, an earlier snapshot of this machine, and `dirty`,
    /// every page written since `base` was taken (see
    /// [`PhysMem::snapshot_since`]). The result equals what
    /// [`Machine::snapshot`] would capture, but costs no scan of memory.
    pub fn snapshot_since(&self, base: &MachineSnapshot, dirty: &PageSet) -> MachineSnapshot {
        MachineSnapshot {
            state: self.state.clone(),
            mem: self.mem.snapshot_since(&base.mem, dirty),
        }
    }

    /// Reconstructs a machine from a snapshot. The result is
    /// bit-identical to the machine the snapshot was taken from, except
    /// that every observer is off (see [`Machine::snapshot`]).
    pub fn restore(snap: &MachineSnapshot) -> Machine {
        Machine::with_state(snap.state.clone(), snap.mem.restore())
    }

    /// True when this machine's state and memory image are identical to
    /// what `snap` captured. Observers are ignored, matching what
    /// [`Machine::snapshot`] captures.
    ///
    /// Because one tick is a pure function of this state, equality here
    /// (plus kernel-level equality) guarantees the two executions are
    /// indistinguishable from this point on.
    pub fn state_matches(&self, snap: &MachineSnapshot) -> bool {
        self.state == snap.state && self.mem.matches_snapshot(&snap.mem)
    }

    /// Like [`Machine::state_matches`], but physical memory is compared
    /// only over `touched` (see [`PhysMem::matches_snapshot_within`] for
    /// the soundness condition). The rest of the state is still
    /// compared in full.
    pub fn state_matches_within(&self, snap: &MachineSnapshot, touched: &PageSet) -> bool {
        self.state == snap.state && self.mem.matches_snapshot_within(&snap.mem, touched)
    }

    // ----- interpreter ----------------------------------------------------

    /// Executes one instruction on `core` under the given process
    /// permission map. A traced step opens a new trace tick.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn step(&mut self, core: usize, perm: &PermissionMap) -> StepResult {
        if self.state.cores[core].is_halted() {
            return StepResult::Halted;
        }
        if let Some(t) = &mut self.trace {
            t.open_tick(&self.state.cores);
        }
        let c = &self.state.cores[core];
        let pc = c.pc();
        let cycles_before = c.cycles();
        // Retirement counters (executed and annulled), not the cycle
        // clock: traps roll `instructions` back, so a delta here is
        // exactly "one instruction committed".
        let instructions_before = c.stats.instructions;
        let skipped_before = c.stats.cond_skipped;

        // The predecoded fast path is the production interpreter; the
        // structured-`Inst` reference path serves the conformance
        // checker (which needs the `Inst`) and differential testing.
        let result = if self.check_effects || self.ref_exec {
            self.step_ref(core, perm, pc)
        } else {
            self.step_fast(core, perm, pc)
        };

        if self.profile.is_some() {
            let delta = self.state.cores[core].cycles() - cycles_before;
            if delta > 0 {
                if let Some(p) = &mut self.profile {
                    p.attribute(core, pc, delta);
                }
            }
        }
        if let Some(t) = &mut self.trace {
            let stats = &self.state.cores[core].stats;
            let skipped = stats.cond_skipped > skipped_before;
            if skipped || stats.instructions > instructions_before {
                t.push(core as u32, TraceKind::Commit { pc, skipped });
            }
        }
        result
    }

    /// Decodes the text slot at `idx` on demand from its raw word
    /// (`None` if the word does not decode or fails ISA validation) —
    /// the reference path's equivalent of the predecoded table, and
    /// guaranteed to agree with it because lowering is a pure function
    /// of the decoded word (proved by the encode/decode round-trip
    /// property plus the predecode differential suite).
    fn decode_slot(&self, idx: usize) -> Option<Inst> {
        let word = *self.state.text_words.get(idx)?;
        let inst = fracas_isa::decode(word).ok()?;
        self.state.isa.validate(&inst).ok()?;
        Some(inst)
    }

    /// Consumes a pending instruction-skip fault: the instruction at
    /// `pc` is dropped at the issue stage. If its condition would have
    /// failed anyway the skip coincides with the annul (same counter,
    /// same base charge — the fault is architecturally invisible);
    /// otherwise the instruction still retires with its static
    /// cost-class charge but performs no architectural work and pays no
    /// dynamic surcharge (no redirect, no data access). Counting the
    /// skipped instruction as retired keeps the per-core instruction
    /// counts aligned with the golden run, so a skipped dead
    /// instruction can genuinely reconverge and classify as Vanished.
    /// Both interpreter paths route through this helper, and it returns
    /// before the conformance checker's pre-state capture — the checker
    /// never observes a skipped step.
    fn consume_skip(cr: &mut Core, d: DecodedInst, base: u64, charge: u64, pc: u32) -> StepResult {
        cr.skip_pending = false;
        if (d.exec_mask >> cr.flags.bits()) & 1 == 0 {
            cr.stats.cond_skipped += 1;
            cr.cycles += base;
        } else {
            cr.stats.instructions += 1;
            cr.cycles += charge;
        }
        cr.set_pc(pc.wrapping_add(4));
        StepResult::Executed
    }

    /// The structured-[`Inst`] reference interpreter: the pre-predecode
    /// step path, retained verbatim for the conformance checker and as
    /// the oracle of the differential tests.
    fn step_ref(&mut self, core: usize, perm: &PermissionMap, pc: u32) -> StepResult {
        // --- fetch ---
        if !pc.is_multiple_of(4) {
            return StepResult::Trap(Trap::Mem(fracas_mem::MemError::Misaligned {
                addr: pc,
                align: 4,
            }));
        }
        if let Err(e) = perm.check(pc, 4, AccessKind::Execute) {
            return StepResult::Trap(Trap::Mem(e));
        }
        let idx = (pc.wrapping_sub(self.state.text_base) / 4) as usize;
        let Some(inst) = self.decode_slot(idx) else {
            return StepResult::Trap(Trap::IllegalInst { pc });
        };
        let fetch_penalty = self.state.caches.access(core, Access::Fetch, pc);
        self.state.cores[core].stats.miss_cycles += u64::from(fetch_penalty);
        self.state.cores[core].cycles += u64::from(fetch_penalty);

        if self.state.cores[core].skip_pending {
            // The predecoded slot agrees with `inst` (predecode
            // invariant), and its `exec_mask` already folds the
            // branch-never-annuls rule the reference path handles via
            // `is_branch` below.
            let d = self.state.dtext[idx];
            let base = u64::from(self.cost.base);
            let charge = u64::from(self.charge[usize::from(d.cost)]);
            return Self::consume_skip(&mut self.state.cores[core], d, base, charge, pc);
        }

        // --- conditional execution ---
        let flags = self.state.cores[core].flags();
        let holds = inst.cond.holds(flags.n, flags.z, flags.c, flags.v);
        let is_branch = matches!(inst.kind, InstKind::B { .. });
        if !holds && !is_branch {
            let c = &mut self.state.cores[core];
            c.stats.cond_skipped += 1;
            c.cycles += u64::from(self.cost.base);
            c.set_pc(pc.wrapping_add(4));
            return StepResult::Executed;
        }

        if self.check_effects {
            // Capture the pre-state *after* fetch and condition
            // handling so the fetch-cache penalty is excluded from the
            // checker's cycle accounting.
            let pre = self.state.cores[core].clone();
            let result = self.exec(core, perm, pc, inst, holds);
            crate::check::verify(&crate::check::StepObs {
                isa: self.state.isa,
                cost: self.cost,
                pre: &pre,
                post: &self.state.cores[core],
                inst: &inst,
                pc,
                cond_holds: holds,
                result,
            });
            return result;
        }
        self.exec(core, perm, pc, inst, holds)
    }

    /// The production interpreter step: dispatches on the predecoded
    /// [`DecodedInst`] table. Architecturally identical to
    /// [`Machine::step_ref`] — same trap ordering (alignment, then
    /// execute permission, then illegal-instruction, then the fetch
    /// cache access), same annul accounting, same cycle charges.
    fn step_fast(&mut self, core: usize, perm: &PermissionMap, pc: u32) -> StepResult {
        // --- fetch ---
        if !pc.is_multiple_of(4) {
            return StepResult::Trap(Trap::Mem(fracas_mem::MemError::Misaligned {
                addr: pc,
                align: 4,
            }));
        }
        if let Err(e) = perm.check(pc, 4, AccessKind::Execute) {
            return StepResult::Trap(Trap::Mem(e));
        }
        let idx = (pc.wrapping_sub(self.state.text_base) / 4) as usize;
        let Some(&d) = self.state.dtext.get(idx) else {
            return StepResult::Trap(Trap::IllegalInst { pc });
        };
        if d.op == Op::Illegal {
            return StepResult::Trap(Trap::IllegalInst { pc });
        }
        let fetch_penalty = self.state.caches.access(core, Access::Fetch, pc);
        let base = u64::from(self.cost.base);
        let cr = &mut self.state.cores[core];
        cr.stats.miss_cycles += u64::from(fetch_penalty);
        cr.cycles += u64::from(fetch_penalty);

        if cr.skip_pending {
            let charge = u64::from(self.charge[usize::from(d.cost)]);
            return Self::consume_skip(cr, d, base, charge, pc);
        }

        // --- conditional execution: one shift through the predecoded
        // NZCV truth table (branches carry `ALWAYS` here and gate the
        // redirect through `take_mask` instead) ---
        if (d.exec_mask >> cr.flags.bits()) & 1 == 0 {
            cr.stats.cond_skipped += 1;
            cr.cycles += base;
            cr.set_pc(pc.wrapping_add(4));
            return StepResult::Executed;
        }
        self.exec_fast(core, perm, pc, d)
    }

    /// Executes one predecoded instruction whose condition held.
    #[allow(clippy::too_many_lines)]
    fn exec_fast(
        &mut self,
        core: usize,
        perm: &PermissionMap,
        pc: u32,
        d: DecodedInst,
    ) -> StepResult {
        let bits = if self.state.isa == IsaKind::Sira32 {
            32
        } else {
            64
        };
        let next = pc.wrapping_add(4);
        let branch_taken = u64::from(self.cost.branch_taken);
        // The whole static charge comes from the prefolded cost-class
        // table; the arms below add only the dynamic surcharges
        // (taken-branch redirects; cache penalties go in via the
        // `data_load`/`data_store` helpers).
        let mut cycles = u64::from(self.charge[usize::from(d.cost)]);
        // Split borrows once, so the hot loop never re-indexes `self`
        // per operand access.
        let mem = &mut self.mem;
        let caches = &mut self.state.caches;
        let cr = &mut self.state.cores[core];

        // Default PC advance; branch arms override. Ordered before
        // operand reads so a SIRA-32 `r15` read observes the
        // architected `pc + 8`, exactly as the reference path does.
        cr.set_pc(next);
        cr.stats.instructions += 1;

        macro_rules! trap {
            ($t:expr) => {{
                // Roll back: a trapped instruction does not retire.
                cr.set_pc(pc);
                cr.stats.instructions -= 1;
                return StepResult::Trap($t);
            }};
        }

        macro_rules! alu_rr {
            ($op:expr) => {{
                let a = cr.reg(Reg(d.b));
                let b = cr.reg(Reg(d.c));
                match alu_exec($op, a, b, bits) {
                    Some(v) => cr.set_reg(Reg(d.a), v),
                    None => trap!(Trap::DivByZero { pc }),
                }
            }};
        }
        macro_rules! alu_ri {
            ($op:expr) => {{
                let a = cr.reg(Reg(d.b));
                let b = d.imm as i64 as u64;
                match alu_exec($op, a, b, bits) {
                    Some(v) => cr.set_reg(Reg(d.a), v),
                    None => trap!(Trap::DivByZero { pc }),
                }
            }};
        }
        macro_rules! ld {
            ($bytes:expr, $addr:expr) => {{
                match data_load(cr, mem, caches, core, perm, $bytes, $addr) {
                    Ok(v) => cr.set_reg(Reg(d.a), v),
                    Err(t) => trap!(t),
                }
            }};
        }
        macro_rules! st {
            ($bytes:expr, $addr:expr) => {{
                let v = cr.reg(Reg(d.a));
                if let Err(t) = data_store(cr, mem, caches, core, perm, $bytes, $addr, v) {
                    trap!(t);
                }
            }};
        }
        macro_rules! addr_imm {
            () => {
                (cr.reg(Reg(d.b)) as u32).wrapping_add(d.imm as u32)
            };
        }
        macro_rules! addr_reg {
            () => {
                (cr.reg(Reg(d.b)) as u32).wrapping_add(cr.reg(Reg(d.c)) as u32)
            };
        }
        macro_rules! fp2 {
            (|$x:ident, $y:ident| $e:expr) => {{
                let $x = cr.freg_f64(FReg(d.b));
                let $y = cr.freg_f64(FReg(d.c));
                cr.set_freg_f64(FReg(d.a), $e);
                cr.stats.fp_ops += 1;
            }};
        }
        macro_rules! fp1 {
            (|$x:ident| $e:expr) => {{
                let $x = cr.freg_f64(FReg(d.b));
                cr.set_freg_f64(FReg(d.a), $e);
                cr.stats.fp_ops += 1;
            }};
        }

        match d.op {
            // Defensive: illegal slots trap at fetch in `step_fast`.
            Op::Illegal => trap!(Trap::IllegalInst { pc }),
            Op::Nop => {}
            Op::Halt => {
                // Halting is a fence: pending (possibly struck) stores
                // retire before the core parks.
                caches.drain_store_buffer(core, mem);
                cr.cycles += cycles;
                cr.set_halted(true);
                return StepResult::Halted;
            }
            Op::Svc => {
                cr.stats.svcs += 1;
                cr.cycles += cycles;
                return StepResult::Svc(d.imm as u16);
            }
            Op::Ret => {
                let lr = cr.reg(Reg(d.a));
                cr.set_pc(lr as u32);
                cycles += branch_taken;
            }

            Op::AddR => alu_rr!(AluOp::Add),
            Op::SubR => alu_rr!(AluOp::Sub),
            Op::MulR => alu_rr!(AluOp::Mul),
            Op::SdivR => alu_rr!(AluOp::Sdiv),
            Op::SremR => alu_rr!(AluOp::Srem),
            Op::AndR => alu_rr!(AluOp::And),
            Op::OrrR => alu_rr!(AluOp::Orr),
            Op::EorR => alu_rr!(AluOp::Eor),
            Op::LslR => alu_rr!(AluOp::Lsl),
            Op::LsrR => alu_rr!(AluOp::Lsr),
            Op::AsrR => alu_rr!(AluOp::Asr),
            Op::MuhR => alu_rr!(AluOp::Muh),

            Op::AddI => alu_ri!(AluOp::Add),
            Op::SubI => alu_ri!(AluOp::Sub),
            Op::MulI => alu_ri!(AluOp::Mul),
            Op::SdivI => alu_ri!(AluOp::Sdiv),
            Op::SremI => alu_ri!(AluOp::Srem),
            Op::AndI => alu_ri!(AluOp::And),
            Op::OrrI => alu_ri!(AluOp::Orr),
            Op::EorI => alu_ri!(AluOp::Eor),
            Op::LslI => alu_ri!(AluOp::Lsl),
            Op::LsrI => alu_ri!(AluOp::Lsr),
            Op::AsrI => alu_ri!(AluOp::Asr),
            Op::MuhI => alu_ri!(AluOp::Muh),

            Op::Cmp => {
                let a = cr.reg(Reg(d.a));
                let b = cr.reg(Reg(d.b));
                cr.set_flags(sub_flags(a, b, bits));
            }
            Op::CmpI => {
                let a = cr.reg(Reg(d.a));
                cr.set_flags(sub_flags(a, d.imm as i64 as u64, bits));
            }
            Op::MovZ => {
                cr.set_reg(Reg(d.a), (d.imm as u64) << u32::from(d.c));
            }
            Op::MovK => {
                let sh = u32::from(d.c);
                let v = (cr.reg(Reg(d.a)) & !(0xffffu64 << sh)) | ((d.imm as u64) << sh);
                cr.set_reg(Reg(d.a), v);
            }
            Op::Mov => {
                let v = cr.reg(Reg(d.b));
                cr.set_reg(Reg(d.a), v);
            }
            Op::Mvn => {
                let v = !cr.reg(Reg(d.b));
                cr.set_reg(Reg(d.a), v);
            }

            Op::Ld1 => ld!(1, addr_imm!()),
            Op::Ld4 => ld!(4, addr_imm!()),
            Op::Ld8 => ld!(8, addr_imm!()),
            Op::St1 => st!(1, addr_imm!()),
            Op::St4 => st!(4, addr_imm!()),
            Op::St8 => st!(8, addr_imm!()),
            Op::LdR1 => ld!(1, addr_reg!()),
            Op::LdR4 => ld!(4, addr_reg!()),
            Op::LdR8 => ld!(8, addr_reg!()),
            Op::StR1 => st!(1, addr_reg!()),
            Op::StR4 => st!(4, addr_reg!()),
            Op::StR8 => st!(8, addr_reg!()),

            Op::B => {
                cr.stats.branches += 1;
                if (d.take_mask >> cr.flags.bits()) & 1 == 1 {
                    cr.stats.branches_taken += 1;
                    cr.set_pc(d.imm as u32);
                    cycles += branch_taken;
                }
            }
            Op::Bl => {
                cr.stats.calls += 1;
                cr.set_reg(Reg(d.a), u64::from(next));
                cr.set_pc(d.imm as u32);
                cycles += branch_taken;
            }
            Op::Blr => {
                let target = cr.reg(Reg(d.b)) as u32;
                cr.stats.calls += 1;
                cr.set_reg(Reg(d.a), u64::from(next));
                cr.set_pc(target);
                cycles += branch_taken;
            }
            Op::Swp => {
                let addr = cr.reg(Reg(d.b)) as u32;
                let new = cr.reg(Reg(d.c));
                let abytes = if bits == 32 { 4 } else { 8 };
                // Atomics are fences: the buffer drains before the RMW.
                caches.drain_store_buffer(core, mem);
                match data_load(cr, mem, caches, core, perm, abytes, addr) {
                    Ok(old) => {
                        if let Err(t) = data_store(cr, mem, caches, core, perm, abytes, addr, new) {
                            trap!(t);
                        }
                        cr.set_reg(Reg(d.a), old);
                    }
                    Err(t) => trap!(t),
                }
            }
            Op::AmoAdd => {
                let addr = cr.reg(Reg(d.b)) as u32;
                let delta = cr.reg(Reg(d.c));
                let abytes = if bits == 32 { 4 } else { 8 };
                // Atomics are fences: the buffer drains before the RMW.
                caches.drain_store_buffer(core, mem);
                match data_load(cr, mem, caches, core, perm, abytes, addr) {
                    Ok(old) => {
                        let sum = old.wrapping_add(delta);
                        if let Err(t) = data_store(cr, mem, caches, core, perm, abytes, addr, sum) {
                            trap!(t);
                        }
                        cr.set_reg(Reg(d.a), old);
                    }
                    Err(t) => trap!(t),
                }
            }

            Op::Fadd => fp2!(|x, y| x + y),
            Op::Fsub => fp2!(|x, y| x - y),
            Op::Fmul => fp2!(|x, y| x * y),
            Op::Fdiv => fp2!(|x, y| x / y),
            Op::Fneg => fp1!(|x| -x),
            Op::Fabs => fp1!(|x| x.abs()),
            Op::Fsqrt => fp1!(|x| x.sqrt()),
            Op::Fmov => fp1!(|x| x),
            Op::FpCmp => {
                let a = cr.freg_f64(FReg(d.a));
                let b = cr.freg_f64(FReg(d.b));
                let f = if a.is_nan() || b.is_nan() {
                    Flags {
                        n: false,
                        z: false,
                        c: true,
                        v: true,
                    }
                } else {
                    Flags {
                        n: a < b,
                        z: a == b,
                        c: a >= b,
                        v: false,
                    }
                };
                cr.set_flags(f);
                cr.stats.fp_ops += 1;
            }
            Op::FMovToFp => {
                let v = cr.reg(Reg(d.b));
                cr.set_freg(FReg(d.a), v);
                cr.stats.fp_ops += 1;
            }
            Op::FMovFromFp => {
                let v = cr.freg(FReg(d.b));
                cr.set_reg(Reg(d.a), v);
                cr.stats.fp_ops += 1;
            }
            Op::Fcvtzs => {
                let a = cr.freg_f64(FReg(d.b));
                // Saturating convert, NaN -> 0 (ARM semantics).
                let v = if a.is_nan() { 0 } else { a as i64 };
                cr.set_reg(Reg(d.a), v as u64);
                cr.stats.fp_ops += 1;
            }
            Op::Scvtf => {
                let v = cr.reg(Reg(d.b)) as i64;
                cr.set_freg_f64(FReg(d.a), v as f64);
                cr.stats.fp_ops += 1;
            }
            Op::FLd => {
                let addr = addr_imm!();
                match data_load(cr, mem, caches, core, perm, 8, addr) {
                    Ok(v) => cr.set_freg(FReg(d.a), v),
                    Err(t) => trap!(t),
                }
                cr.stats.fp_ops += 1;
            }
            Op::FSt => {
                let addr = addr_imm!();
                let v = cr.freg(FReg(d.a));
                if let Err(t) = data_store(cr, mem, caches, core, perm, 8, addr, v) {
                    trap!(t);
                }
                cr.stats.fp_ops += 1;
            }
            Op::FLdR => {
                let addr = addr_reg!();
                match data_load(cr, mem, caches, core, perm, 8, addr) {
                    Ok(v) => cr.set_freg(FReg(d.a), v),
                    Err(t) => trap!(t),
                }
                cr.stats.fp_ops += 1;
            }
            Op::FStR => {
                let addr = addr_reg!();
                let v = cr.freg(FReg(d.a));
                if let Err(t) = data_store(cr, mem, caches, core, perm, 8, addr, v) {
                    trap!(t);
                }
                cr.stats.fp_ops += 1;
            }
        }

        cr.cycles += cycles;
        StepResult::Executed
    }

    #[allow(clippy::too_many_lines)]
    fn exec(
        &mut self,
        core: usize,
        perm: &PermissionMap,
        pc: u32,
        inst: Inst,
        cond_holds: bool,
    ) -> StepResult {
        let isa = self.state.isa;
        let bits = if isa == IsaKind::Sira32 { 32 } else { 64 };
        let cost = self.cost;
        let next = pc.wrapping_add(4);
        // Default PC advance; branch arms override.
        self.state.cores[core].set_pc(next);
        self.state.cores[core].stats.instructions += 1;

        macro_rules! trap {
            ($t:expr) => {{
                // Roll back: a trapped instruction does not retire.
                self.state.cores[core].set_pc(pc);
                self.state.cores[core].stats.instructions -= 1;
                return StepResult::Trap($t);
            }};
        }

        // The whole static charge comes from the declared cost class;
        // the arms below add only the dynamic surcharges (taken-branch
        // redirects; cache penalties go in via the load/store helpers).
        let mut cycles = u64::from(cost.charge(effects::cost_class(&inst.kind)));

        match inst.kind {
            InstKind::Nop => {}
            InstKind::Halt => {
                // Halting is a fence: pending (possibly struck) stores
                // retire before the core parks.
                self.state.caches.drain_store_buffer(core, &mut self.mem);
                self.state.cores[core].cycles += cycles;
                self.state.cores[core].set_halted(true);
                return StepResult::Halted;
            }
            InstKind::Svc { imm } => {
                let c = &mut self.state.cores[core];
                c.stats.svcs += 1;
                c.cycles += cycles;
                return StepResult::Svc(imm);
            }
            InstKind::Ret => {
                let lr = self.state.cores[core].reg(isa.lr());
                self.state.cores[core].set_pc(lr as u32);
                cycles += u64::from(cost.branch_taken);
            }
            InstKind::Alu { op, rd, rn, rm } => {
                let a = self.state.cores[core].reg(rn);
                let b = self.state.cores[core].reg(rm);
                match alu_exec(op, a, b, bits) {
                    Some(v) => self.state.cores[core].set_reg(rd, v),
                    None => trap!(Trap::DivByZero { pc }),
                }
            }
            InstKind::AluImm { op, rd, rn, imm } => {
                let a = self.state.cores[core].reg(rn);
                let b = imm as i64 as u64;
                match alu_exec(op, a, b, bits) {
                    Some(v) => self.state.cores[core].set_reg(rd, v),
                    None => trap!(Trap::DivByZero { pc }),
                }
            }
            InstKind::Cmp { rn, rm } => {
                let a = self.state.cores[core].reg(rn);
                let b = self.state.cores[core].reg(rm);
                let f = sub_flags(a, b, bits);
                self.state.cores[core].set_flags(f);
            }
            InstKind::CmpImm { rn, imm } => {
                let a = self.state.cores[core].reg(rn);
                let f = sub_flags(a, imm as i64 as u64, bits);
                self.state.cores[core].set_flags(f);
            }
            InstKind::MovImm {
                rd,
                imm,
                shift,
                keep,
            } => {
                let sh = u32::from(shift) * 16;
                let v = if keep {
                    (self.state.cores[core].reg(rd) & !(0xffffu64 << sh)) | (u64::from(imm) << sh)
                } else {
                    u64::from(imm) << sh
                };
                self.state.cores[core].set_reg(rd, v);
            }
            InstKind::Mov { rd, rm } => {
                let v = self.state.cores[core].reg(rm);
                self.state.cores[core].set_reg(rd, v);
            }
            InstKind::Mvn { rd, rm } => {
                let v = !self.state.cores[core].reg(rm);
                self.state.cores[core].set_reg(rd, v);
            }
            InstKind::Ld { width, rd, rn, off } => {
                let addr = (self.state.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                match self.load(core, perm, width, addr) {
                    Ok(v) => self.state.cores[core].set_reg(rd, v),
                    Err(t) => trap!(t),
                }
            }
            InstKind::St { width, rd, rn, off } => {
                let addr = (self.state.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                let v = self.state.cores[core].reg(rd);
                if let Err(t) = self.store(core, perm, width, addr, v) {
                    trap!(t);
                }
            }
            InstKind::LdR { width, rd, rn, rm } => {
                let addr = (self.state.cores[core].reg(rn) as u32)
                    .wrapping_add(self.state.cores[core].reg(rm) as u32);
                match self.load(core, perm, width, addr) {
                    Ok(v) => self.state.cores[core].set_reg(rd, v),
                    Err(t) => trap!(t),
                }
            }
            InstKind::StR { width, rd, rn, rm } => {
                let addr = (self.state.cores[core].reg(rn) as u32)
                    .wrapping_add(self.state.cores[core].reg(rm) as u32);
                let v = self.state.cores[core].reg(rd);
                if let Err(t) = self.store(core, perm, width, addr, v) {
                    trap!(t);
                }
            }
            InstKind::B { off } => {
                let c = &mut self.state.cores[core];
                c.stats.branches += 1;
                if cond_holds {
                    c.stats.branches_taken += 1;
                    c.set_pc(branch_target(pc, off));
                    cycles += u64::from(cost.branch_taken);
                }
            }
            InstKind::Bl { off } => {
                let c = &mut self.state.cores[core];
                c.stats.calls += 1;
                c.set_reg(isa.lr(), u64::from(next));
                c.set_pc(branch_target(pc, off));
                cycles += u64::from(cost.branch_taken);
            }
            InstKind::Blr { rm } => {
                let target = self.state.cores[core].reg(rm) as u32;
                let c = &mut self.state.cores[core];
                c.stats.calls += 1;
                c.set_reg(isa.lr(), u64::from(next));
                c.set_pc(target);
                cycles += u64::from(cost.branch_taken);
            }
            InstKind::Swp { rd, rn, rm } => {
                let addr = self.state.cores[core].reg(rn) as u32;
                let new = self.state.cores[core].reg(rm);
                // Atomics are fences: the buffer drains before the RMW.
                self.state.caches.drain_store_buffer(core, &mut self.mem);
                match self.load(core, perm, Width::Word, addr) {
                    Ok(old) => {
                        if let Err(t) = self.store(core, perm, Width::Word, addr, new) {
                            trap!(t);
                        }
                        self.state.cores[core].set_reg(rd, old);
                    }
                    Err(t) => trap!(t),
                }
            }
            InstKind::AmoAdd { rd, rn, rm } => {
                let addr = self.state.cores[core].reg(rn) as u32;
                let delta = self.state.cores[core].reg(rm);
                // Atomics are fences: the buffer drains before the RMW.
                self.state.caches.drain_store_buffer(core, &mut self.mem);
                match self.load(core, perm, Width::Word, addr) {
                    Ok(old) => {
                        let sum = old.wrapping_add(delta);
                        if let Err(t) = self.store(core, perm, Width::Word, addr, sum) {
                            trap!(t);
                        }
                        self.state.cores[core].set_reg(rd, old);
                    }
                    Err(t) => trap!(t),
                }
            }
            InstKind::Fp { op, fd, fa, fb } => {
                let a = self.state.cores[core].freg_f64(fa);
                let b = self.state.cores[core].freg_f64(fb);
                let v = match op {
                    FpOp::Fadd => a + b,
                    FpOp::Fsub => a - b,
                    FpOp::Fmul => a * b,
                    FpOp::Fdiv => a / b,
                    FpOp::Fneg => -a,
                    FpOp::Fabs => a.abs(),
                    FpOp::Fsqrt => a.sqrt(),
                    FpOp::Fmov => a,
                };
                self.state.cores[core].set_freg_f64(fd, v);
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::FpCmp { fa, fb } => {
                let a = self.state.cores[core].freg_f64(fa);
                let b = self.state.cores[core].freg_f64(fb);
                let f = if a.is_nan() || b.is_nan() {
                    Flags {
                        n: false,
                        z: false,
                        c: true,
                        v: true,
                    }
                } else {
                    Flags {
                        n: a < b,
                        z: a == b,
                        c: a >= b,
                        v: false,
                    }
                };
                self.state.cores[core].set_flags(f);
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::FMovToFp { fd, rn } => {
                let v = self.state.cores[core].reg(rn);
                self.state.cores[core].set_freg(fd, v);
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::FMovFromFp { rd, fa } => {
                let v = self.state.cores[core].freg(fa);
                self.state.cores[core].set_reg(rd, v);
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::Fcvtzs { rd, fa } => {
                let a = self.state.cores[core].freg_f64(fa);
                // Saturating convert, NaN -> 0 (ARM semantics).
                let v = if a.is_nan() { 0 } else { a as i64 };
                self.state.cores[core].set_reg(rd, v as u64);
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::Scvtf { fd, rn } => {
                let v = self.state.cores[core].reg(rn) as i64;
                self.state.cores[core].set_freg_f64(fd, v as f64);
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::FLd { fd, rn, off } => {
                let addr = (self.state.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                match self.load_f64(core, perm, addr) {
                    Ok(v) => self.state.cores[core].set_freg(fd, v),
                    Err(t) => trap!(t),
                }
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::FSt { fd, rn, off } => {
                let addr = (self.state.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                let v = self.state.cores[core].freg(fd);
                if let Err(t) = self.store_f64(core, perm, addr, v) {
                    trap!(t);
                }
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::FLdR { fd, rn, rm } => {
                let addr = (self.state.cores[core].reg(rn) as u32)
                    .wrapping_add(self.state.cores[core].reg(rm) as u32);
                match self.load_f64(core, perm, addr) {
                    Ok(v) => self.state.cores[core].set_freg(fd, v),
                    Err(t) => trap!(t),
                }
                self.state.cores[core].stats.fp_ops += 1;
            }
            InstKind::FStR { fd, rn, rm } => {
                let addr = (self.state.cores[core].reg(rn) as u32)
                    .wrapping_add(self.state.cores[core].reg(rm) as u32);
                let v = self.state.cores[core].freg(fd);
                if let Err(t) = self.store_f64(core, perm, addr, v) {
                    trap!(t);
                }
                self.state.cores[core].stats.fp_ops += 1;
            }
        }

        self.state.cores[core].cycles += cycles;
        StepResult::Executed
    }

    fn load(
        &mut self,
        core: usize,
        perm: &PermissionMap,
        width: Width,
        addr: u32,
    ) -> Result<u64, Trap> {
        let size = self.state.isa.width_bytes(width);
        perm.check(addr, size, AccessKind::Read)?;
        let v = match (width, self.state.isa) {
            (Width::Byte, _) => u64::from(self.mem.read_u8(addr)?),
            (Width::Half, _) | (Width::Word, IsaKind::Sira32) => {
                u64::from(self.mem.read_u32(addr)?)
            }
            (Width::Word, IsaKind::Sira64) => self.mem.read_u64(addr)?,
        };
        let (penalty, over) = self.state.caches.data_read(core, addr, size);
        let c = &mut self.state.cores[core];
        c.stats.loads += 1;
        c.stats.miss_cycles += u64::from(penalty);
        c.cycles += u64::from(penalty);
        Ok(over.unwrap_or(v))
    }

    fn store(
        &mut self,
        core: usize,
        perm: &PermissionMap,
        width: Width,
        addr: u32,
        value: u64,
    ) -> Result<(), Trap> {
        let size = self.state.isa.width_bytes(width);
        perm.check(addr, size, AccessKind::Write)?;
        match (width, self.state.isa) {
            (Width::Byte, _) => self.mem.write_u8(addr, value as u8)?,
            (Width::Half, _) | (Width::Word, IsaKind::Sira32) => {
                self.mem.write_u32(addr, value as u32)?;
            }
            (Width::Word, IsaKind::Sira64) => self.mem.write_u64(addr, value)?,
        }
        let penalty = self
            .state
            .caches
            .data_write(core, addr, size, value, &mut self.mem);
        let c = &mut self.state.cores[core];
        c.stats.stores += 1;
        c.stats.miss_cycles += u64::from(penalty);
        c.cycles += u64::from(penalty);
        Ok(())
    }

    fn load_f64(&mut self, core: usize, perm: &PermissionMap, addr: u32) -> Result<u64, Trap> {
        perm.check(addr, 8, AccessKind::Read)?;
        let v = self.mem.read_u64(addr)?;
        let (penalty, over) = self.state.caches.data_read(core, addr, 8);
        let c = &mut self.state.cores[core];
        c.stats.loads += 1;
        c.stats.miss_cycles += u64::from(penalty);
        c.cycles += u64::from(penalty);
        Ok(over.unwrap_or(v))
    }

    fn store_f64(
        &mut self,
        core: usize,
        perm: &PermissionMap,
        addr: u32,
        bits: u64,
    ) -> Result<(), Trap> {
        perm.check(addr, 8, AccessKind::Write)?;
        self.mem.write_u64(addr, bits)?;
        let penalty = self
            .state
            .caches
            .data_write(core, addr, 8, bits, &mut self.mem);
        let c = &mut self.state.cores[core];
        c.stats.stores += 1;
        c.stats.miss_cycles += u64::from(penalty);
        c.cycles += u64::from(penalty);
        Ok(())
    }

    /// Runs core 0 bare-metal (all memory RWX) until `halt`.
    ///
    /// # Errors
    ///
    /// [`RunError::Trap`] on any trap, [`RunError::UnhandledSvc`] on a
    /// supervisor call and [`RunError::StepLimit`] if `max_steps` runs out.
    pub fn run_to_halt(&mut self, max_steps: u64) -> Result<(), RunError> {
        let mut perm = PermissionMap::new(self.mem.size());
        perm.map_range(
            0,
            self.mem.size(),
            Perms {
                read: true,
                write: true,
                exec: true,
            },
        );
        let mut left = max_steps;
        while left > 0 {
            let Some(burst) = self.run_burst(left, |_| (&perm, u64::MAX)) else {
                return Ok(());
            };
            left -= burst.steps;
            match burst.result {
                StepResult::Executed => {}
                StepResult::Halted => return Ok(()),
                StepResult::Trap(t) => return Err(RunError::Trap(t)),
                StepResult::Svc(num) => {
                    return Err(RunError::UnhandledSvc {
                        num,
                        pc: self.state.cores[burst.core].pc(),
                    })
                }
            }
        }
        Err(RunError::StepLimit {
            instructions: self.total_instructions(),
            pcs: self.state.cores.iter().map(Core::pc).collect(),
        })
    }
}

/// Prefolds the per-class cycle charge into a dense table indexed by
/// the [`CostClass`] discriminant (what `DecodedInst::cost` stores).
fn charge_table(cost: &CostModel) -> [u32; CostClass::COUNT] {
    let mut t = [0u32; CostClass::COUNT];
    for class in CostClass::ALL {
        t[class as usize] = cost.charge(class);
    }
    t
}

/// Fast-path data load: identical access sequence to the reference
/// path's `Machine::load` — permission check, memory read, cache
/// access, stats — but over split borrows so `exec_fast` holds its
/// per-core state across the call. `bytes` is a constant at every
/// non-atomic call site, so the width match folds away.
#[inline]
fn data_load(
    cr: &mut Core,
    mem: &PhysMem,
    caches: &mut MemSystem,
    core: usize,
    perm: &PermissionMap,
    bytes: u32,
    addr: u32,
) -> Result<u64, Trap> {
    perm.check(addr, bytes, AccessKind::Read)?;
    let v = match bytes {
        1 => u64::from(mem.read_u8(addr)?),
        4 => u64::from(mem.read_u32(addr)?),
        _ => mem.read_u64(addr)?,
    };
    let (penalty, over) = caches.data_read(core, addr, bytes);
    cr.stats.loads += 1;
    cr.stats.miss_cycles += u64::from(penalty);
    cr.cycles += u64::from(penalty);
    Ok(over.unwrap_or(v))
}

/// Fast-path data store; see [`data_load`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn data_store(
    cr: &mut Core,
    mem: &mut PhysMem,
    caches: &mut MemSystem,
    core: usize,
    perm: &PermissionMap,
    bytes: u32,
    addr: u32,
    value: u64,
) -> Result<(), Trap> {
    perm.check(addr, bytes, AccessKind::Write)?;
    match bytes {
        1 => mem.write_u8(addr, value as u8)?,
        4 => mem.write_u32(addr, value as u32)?,
        _ => mem.write_u64(addr, value)?,
    }
    let penalty = caches.data_write(core, addr, bytes, value, mem);
    cr.stats.stores += 1;
    cr.stats.miss_cycles += u64::from(penalty);
    cr.cycles += u64::from(penalty);
    Ok(())
}

fn branch_target(pc: u32, off: i32) -> u32 {
    pc.wrapping_add(4)
        .wrapping_add((off as u32).wrapping_mul(4))
}

fn mask(bits: u32) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

fn sext(v: u64, bits: u32) -> i64 {
    if bits == 64 {
        v as i64
    } else {
        ((v << (64 - bits)) as i64) >> (64 - bits)
    }
}

/// Executes an ALU op on width-masked operands; `None` signals division
/// by zero.
fn alu_exec(op: AluOp, a: u64, b: u64, bits: u32) -> Option<u64> {
    let m = mask(bits);
    let (a, b) = (a & m, b & m);
    let v = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Muh => {
            if bits == 32 {
                (a.wrapping_mul(b)) >> 32
            } else {
                ((u128::from(a) * u128::from(b)) >> 64) as u64
            }
        }
        AluOp::Sdiv => {
            let (sa, sb) = (sext(a, bits), sext(b, bits));
            if sb == 0 {
                return None;
            }
            sa.wrapping_div(sb) as u64
        }
        AluOp::Srem => {
            let (sa, sb) = (sext(a, bits), sext(b, bits));
            if sb == 0 {
                return None;
            }
            sa.wrapping_rem(sb) as u64
        }
        AluOp::And => a & b,
        AluOp::Orr => a | b,
        AluOp::Eor => a ^ b,
        AluOp::Lsl => {
            if b >= u64::from(bits) {
                0
            } else {
                a << b
            }
        }
        AluOp::Lsr => {
            if b >= u64::from(bits) {
                0
            } else {
                a >> b
            }
        }
        AluOp::Asr => {
            let sa = sext(a, bits);
            let sh = b.min(u64::from(bits) - 1);
            (sa >> sh) as u64
        }
    };
    Some(v & m)
}

/// NZCV from `a - b` at the given width.
fn sub_flags(a: u64, b: u64, bits: u32) -> Flags {
    let m = mask(bits);
    let (a, b) = (a & m, b & m);
    let r = a.wrapping_sub(b) & m;
    let sign = 1u64 << (bits - 1);
    Flags {
        n: r & sign != 0,
        z: r == 0,
        c: a >= b,
        v: ((a ^ b) & (a ^ r)) & sign != 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_isa::{link, sira32, Asm, Cond};

    fn run(isa: IsaKind, build: impl FnOnce(&mut Asm)) -> Machine {
        let mut asm = Asm::new(isa);
        asm.global_fn("_start");
        build(&mut asm);
        asm.halt();
        let image = link(isa, &[asm.into_object()]).expect("link");
        let mut m = Machine::boot_flat(&image, 1);
        m.run_to_halt(1_000_000).expect("run");
        m
    }

    #[test]
    fn arithmetic_basics_sira64() {
        let m = run(IsaKind::Sira64, |a| {
            a.load_imm(Reg(1), 100);
            a.load_imm(Reg(2), 7);
            a.alu(AluOp::Sdiv, Reg(3), Reg(1), Reg(2)); // 14
            a.alu(AluOp::Srem, Reg(4), Reg(1), Reg(2)); // 2
            a.alu(AluOp::Mul, Reg(5), Reg(3), Reg(2)); // 98
        });
        assert_eq!(m.core(0).reg(Reg(3)), 14);
        assert_eq!(m.core(0).reg(Reg(4)), 2);
        assert_eq!(m.core(0).reg(Reg(5)), 98);
    }

    #[test]
    fn wrap_semantics_sira32() {
        let m = run(IsaKind::Sira32, |a| {
            a.load_imm(Reg(1), 0xffff_ffff);
            a.addi(Reg(2), Reg(1), 1); // wraps to 0
            a.subi(Reg(3), Reg(2), 1); // wraps to 0xffff_ffff
        });
        assert_eq!(m.core(0).reg(Reg(2)), 0);
        assert_eq!(m.core(0).reg(Reg(3)), 0xffff_ffff);
    }

    #[test]
    fn negative_division_sira32() {
        let m = run(IsaKind::Sira32, |a| {
            a.load_imm(Reg(1), (-100i32) as u32 as u64);
            a.load_imm(Reg(2), 7);
            a.alu(AluOp::Sdiv, Reg(3), Reg(1), Reg(2)); // -14
            a.alu(AluOp::Srem, Reg(4), Reg(1), Reg(2)); // -2
        });
        assert_eq!(m.core(0).reg(Reg(3)), (-14i32) as u32 as u64);
        assert_eq!(m.core(0).reg(Reg(4)), (-2i32) as u32 as u64);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.movz(Reg(1), 5, 0);
        asm.movz(Reg(2), 0, 0);
        asm.alu(AluOp::Sdiv, Reg(3), Reg(1), Reg(2));
        asm.halt();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        let err = m.run_to_halt(100).unwrap_err();
        assert!(matches!(err, RunError::Trap(Trap::DivByZero { .. })));
    }

    #[test]
    fn conditional_execution_sira32() {
        let m = run(IsaKind::Sira32, |a| {
            a.movz(Reg(1), 5, 0);
            a.cmpi(Reg(1), 5);
            a.inst_if(
                Cond::Eq,
                InstKind::MovImm {
                    rd: Reg(2),
                    imm: 1,
                    shift: 0,
                    keep: false,
                },
            );
            a.inst_if(
                Cond::Ne,
                InstKind::MovImm {
                    rd: Reg(3),
                    imm: 1,
                    shift: 0,
                    keep: false,
                },
            );
        });
        assert_eq!(m.core(0).reg(Reg(2)), 1, "eq path executed");
        assert_eq!(m.core(0).reg(Reg(3)), 0, "ne path skipped");
        assert_eq!(m.core(0).stats().cond_skipped, 1);
    }

    #[test]
    fn loop_and_branch_stats() {
        let m = run(IsaKind::Sira64, |a| {
            a.movz(Reg(1), 10, 0);
            let done = a.new_label();
            let top = a.here();
            a.cmpi(Reg(1), 0);
            a.bc(Cond::Eq, done);
            a.subi(Reg(1), Reg(1), 1);
            a.b(top);
            a.bind(done);
        });
        assert_eq!(m.core(0).reg(Reg(1)), 0);
        // 11 conditional (one taken) + 10 unconditional backward branches.
        assert_eq!(m.core(0).stats().branches, 21);
        assert_eq!(m.core(0).stats().branches_taken, 11);
    }

    #[test]
    fn call_and_return() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.bl_sym("double");
        asm.halt();
        asm.global_fn("double");
        asm.movz(Reg(0), 21, 0);
        asm.alu(AluOp::Add, Reg(0), Reg(0), Reg(0));
        asm.ret();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        m.run_to_halt(100).unwrap();
        assert_eq!(m.core(0).reg(Reg(0)), 42);
        assert_eq!(m.core(0).stats().calls, 1);
    }

    #[test]
    fn memory_roundtrip_and_stats() {
        let m = run(IsaKind::Sira64, |a| {
            a.lea_data(Reg(1), "buf");
            a.load_imm(Reg(2), 0x0123_4567_89ab_cdef);
            a.st(Reg(2), Reg(1), 0);
            a.ld(Reg(3), Reg(1), 0);
            a.data_zero("buf", 16);
        });
        assert_eq!(m.core(0).reg(Reg(3)), 0x0123_4567_89ab_cdef);
        assert_eq!(m.core(0).stats().loads, 1);
        assert_eq!(m.core(0).stats().stores, 1);
    }

    #[test]
    fn fp_pipeline_sira64() {
        let m = run(IsaKind::Sira64, |a| {
            a.load_imm(Reg(1), 9);
            a.inst(InstKind::Scvtf {
                fd: FReg(0),
                rn: Reg(1),
            });
            a.fp(FpOp::Fsqrt, FReg(1), FReg(0), FReg(0)); // 3.0
            a.load_imm(Reg(2), 2);
            a.inst(InstKind::Scvtf {
                fd: FReg(2),
                rn: Reg(2),
            });
            a.fp(FpOp::Fmul, FReg(3), FReg(1), FReg(2)); // 6.0
            a.inst(InstKind::Fcvtzs {
                rd: Reg(3),
                fa: FReg(3),
            });
        });
        assert_eq!(m.core(0).reg(Reg(3)), 6);
        assert!(m.core(0).stats().fp_ops >= 5);
    }

    #[test]
    fn fp_compare_flags() {
        let m = run(IsaKind::Sira64, |a| {
            a.load_imm(Reg(1), 3);
            a.load_imm(Reg(2), 4);
            a.inst(InstKind::Scvtf {
                fd: FReg(0),
                rn: Reg(1),
            });
            a.inst(InstKind::Scvtf {
                fd: FReg(1),
                rn: Reg(2),
            });
            a.fcmp(FReg(0), FReg(1));
            // r5 = 1 if 3.0 < 4.0
            let skip = a.new_label();
            a.bc(Cond::Ge, skip);
            a.movz(Reg(5), 1, 0);
            a.bind(skip);
        });
        assert_eq!(m.core(0).reg(Reg(5)), 1);
    }

    #[test]
    fn pc_flip_causes_illegal_instruction() {
        let mut asm = Asm::new(IsaKind::Sira32);
        asm.global_fn("_start");
        for _ in 0..4 {
            asm.nop();
        }
        asm.halt();
        let image = link(IsaKind::Sira32, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        // Flip a high PC bit: lands far outside text.
        m.flip_gpr(0, 15, 20);
        let err = m.run_to_halt(100).unwrap_err();
        assert!(matches!(
            err,
            RunError::Trap(Trap::IllegalInst { .. }) | RunError::Trap(Trap::Mem(_))
        ));
    }

    #[test]
    fn gpr_flip_changes_result() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.movz(Reg(1), 100, 0);
        asm.addi(Reg(0), Reg(1), 0);
        asm.halt();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        // Execute the movz only.
        let mut perm = PermissionMap::new(m.mem.size());
        perm.map_range(
            0,
            m.mem.size(),
            Perms {
                read: true,
                write: true,
                exec: true,
            },
        );
        assert_eq!(m.step(0, &perm), StepResult::Executed);
        m.flip_gpr(0, 1, 3); // 100 ^ 8 = 108
        m.run_to_halt(10).unwrap();
        assert_eq!(m.core(0).reg(Reg(0)), 108);
    }

    #[test]
    fn skip_flip_is_an_involution() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.nop();
        asm.halt();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        assert!(!m.core(0).skip_pending());
        m.flip_skip(0);
        assert!(m.core(0).skip_pending());
        m.flip_skip(0);
        assert!(!m.core(0).skip_pending());
    }

    #[test]
    fn skip_drops_one_instruction_but_retires_it() {
        let build = || {
            let mut asm = Asm::new(IsaKind::Sira64);
            asm.global_fn("_start");
            asm.movz(Reg(1), 100, 0);
            asm.addi(Reg(0), Reg(1), 0);
            asm.halt();
            link(IsaKind::Sira64, &[asm.into_object()]).unwrap()
        };
        let mut golden = Machine::boot_flat(&build(), 1);
        golden.run_to_halt(100).unwrap();
        assert_eq!(golden.core(0).reg(Reg(0)), 100);

        let image = build();
        for reference in [false, true] {
            let mut m = Machine::boot_flat(&image, 1);
            m.set_reference_exec(reference);
            let mut perm = PermissionMap::new(m.mem.size());
            perm.map_range(
                0,
                m.mem.size(),
                Perms {
                    read: true,
                    write: true,
                    exec: true,
                },
            );
            // Execute the movz, then latch a skip: the addi is dropped.
            assert_eq!(m.step(0, &perm), StepResult::Executed);
            m.flip_skip(0);
            m.run_to_halt(100).unwrap();
            assert_eq!(m.core(0).reg(Reg(0)), 0, "addi never executed");
            assert_eq!(m.core(0).reg(Reg(1)), 100);
            assert!(!m.core(0).skip_pending(), "latch consumed");
            // The skipped instruction still retires with its static
            // charge, so the counters track the golden run exactly.
            assert_eq!(
                m.core(0).stats().instructions,
                golden.core(0).stats().instructions
            );
            assert_eq!(m.core(0).cycles(), golden.core(0).cycles());
        }
    }

    #[test]
    fn skipping_an_annulled_instruction_is_invisible() {
        let build = || {
            let mut asm = Asm::new(IsaKind::Sira32);
            asm.global_fn("_start");
            asm.movz(Reg(1), 5, 0);
            asm.cmpi(Reg(1), 5);
            // Eq holds, so the Ne-conditional move annuls in the golden
            // run — a skip fault landing on it coincides with the annul.
            asm.inst_if(
                Cond::Ne,
                InstKind::MovImm {
                    rd: Reg(3),
                    imm: 1,
                    shift: 0,
                    keep: false,
                },
            );
            asm.halt();
            link(IsaKind::Sira32, &[asm.into_object()]).unwrap()
        };
        let mut golden = Machine::boot_flat(&build(), 1);
        golden.run_to_halt(100).unwrap();

        let mut m = Machine::boot_flat(&build(), 1);
        let mut perm = PermissionMap::new(m.mem.size());
        perm.map_range(
            0,
            m.mem.size(),
            Perms {
                read: true,
                write: true,
                exec: true,
            },
        );
        assert_eq!(m.step(0, &perm), StepResult::Executed); // movz
        assert_eq!(m.step(0, &perm), StepResult::Executed); // cmpi
        m.flip_skip(0);
        m.run_to_halt(100).unwrap();
        assert_eq!(m.core(0).stats().cond_skipped, 1, "counted as annul");
        assert_eq!(m.core(0), golden.core(0), "architecturally invisible");
    }

    #[test]
    fn deterministic_interleave_prefers_lagging_core() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.nop();
        asm.halt();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::new(&image, 2, 1 << 20, CacheParams::paper());
        m.core_mut(0).set_halted(false);
        m.core_mut(1).set_halted(false);
        m.core_mut(0).advance_idle(100);
        assert_eq!(m.next_core(), Some(1), "core 1 lags, runs first");
        m.core_mut(1).advance_idle(100);
        assert_eq!(m.next_core(), Some(0), "tie broken by id");
    }

    /// Bursts interleave cores exactly as one-step bursts do, whatever
    /// the caps: same step count, same final state, the same trace, and
    /// a burst stops as soon as any core reaches its cap. The one-step
    /// trace holds one instruction per tick, and every event carries
    /// the clocks its tick ended on, the stand-in kernel's charges
    /// included.
    #[test]
    fn bursts_interleave_like_single_steps() {
        let isa = IsaKind::Sira64;
        let (n, x, y, shared, old) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
        let (delay, t) = (Reg(6), Reg(7));
        let mut asm = Asm::new(isa);
        asm.global_fn("_start");
        asm.data_u64("shared", &[0]);
        asm.lea_data(shared, "shared");
        // Per core (the stacks are 64 KiB apart) a trip count and a
        // delay loop of 3, 2 or 1 turns, so the cores drift past each
        // other; a shared fetch-add whose old values record the
        // interleaving; and a store to a fresh line per trip, whose
        // misses skew the clocks further. A `svc` per trip hands each
        // core to the kernel.
        asm.lsri(n, isa.sp(), 16);
        asm.subi(delay, n, 252);
        let done = asm.new_label();
        let top = asm.here();
        asm.cmpi(n, 0);
        asm.bc(Cond::Eq, done);
        asm.mov(t, delay);
        let spin = asm.here();
        asm.subi(t, t, 1);
        asm.cmpi(t, 0);
        asm.bc(Cond::Ne, spin);
        asm.amoadd(old, shared, n);
        asm.svc(7);
        asm.ld(x, isa.sp(), -64);
        asm.add(x, x, old);
        asm.st(x, isa.sp(), -64);
        asm.lsli(y, n, 6);
        asm.sub(y, isa.sp(), y);
        asm.st(x, y, 0);
        asm.subi(n, n, 1);
        asm.b(top);
        asm.bind(done);
        asm.halt();
        let image = link(isa, &[asm.into_object()]).unwrap();
        let boot = |traced: bool| {
            let mut m = Machine::boot_flat(&image, 3);
            for core in 1..3 {
                m.core_mut(core).set_halted(false);
            }
            if traced {
                m.enable_trace();
            }
            m
        };
        // A stand-in kernel for the steps that end every burst: it
        // charges a syscall and records an event after the commit.
        let kernel = |m: &mut Machine, burst: Burst| match burst.result {
            StepResult::Svc(_) => {
                m.core_mut(burst.core).advance_kernel(11);
                m.trace_save(burst.core, 1);
            }
            StepResult::Halted => m.trace_save(burst.core, 2),
            StepResult::Executed | StepResult::Trap(_) => {}
        };
        let mut perm = PermissionMap::new(FLAT_MEM_SIZE);
        perm.map_range(
            0,
            FLAT_MEM_SIZE,
            Perms {
                read: true,
                write: true,
                exec: true,
            },
        );
        let mut single = boot(true);
        let mut tick_ends: Vec<Vec<u64>> = Vec::new();
        while let Some(burst) = single.run_burst(1, |_| (&perm, u64::MAX)) {
            assert_eq!(burst.steps, 1);
            kernel(&mut single, burst);
            tick_ends.push((0..3).map(|c| single.core(c).cycles()).collect());
        }
        let steps = tick_ends.len() as u64;
        let trace = single.take_trace().expect("tracing is on");
        let commit_ticks: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Commit { .. }))
            .map(|e| e.tick)
            .collect();
        assert_eq!(commit_ticks, (0..steps).collect::<Vec<_>>());
        for e in &trace.events {
            assert_eq!(
                e.cycle, tick_ends[e.tick as usize][e.core as usize],
                "{e:?}"
            );
        }
        for (period, traced) in [
            (None, false),
            (Some(37), false),
            (None, true),
            (Some(37), true),
        ] {
            let mut m = boot(traced);
            let mut total = 0;
            loop {
                let clocks: Vec<u64> = (0..3).map(|c| m.core(c).cycles()).collect();
                let cap = |c: usize| period.map_or(u64::MAX, |p| (clocks[c] / p + 1) * p);
                let Some(burst) = m.run_burst(u64::MAX, |c| (&perm, cap(c))) else {
                    break;
                };
                total += burst.steps;
                for c in (0..3).filter(|&c| c != burst.core) {
                    assert!(m.core(c).cycles() < cap(c), "core {c} ran past its cap");
                }
                if burst.result == StepResult::Executed {
                    assert!(m.core(burst.core).cycles() >= cap(burst.core));
                }
                kernel(&mut m, burst);
            }
            let run = format!("period {period:?}, traced {traced}");
            assert_eq!(total, steps, "{run}");
            assert!(m.state_matches(&single.snapshot()), "{run}");
            assert_eq!(m.take_trace(), traced.then(|| trace.clone()), "{run}");
        }
    }

    #[test]
    fn sira32_pc_as_destination_branches() {
        // mov pc, lr acts as a return on SIRA-32.
        let mut asm = Asm::new(IsaKind::Sira32);
        asm.global_fn("_start");
        asm.bl_sym("f");
        asm.halt();
        asm.global_fn("f");
        asm.movz(Reg(0), 9, 0);
        asm.mov(sira32::PC, sira32::LR);
        let image = link(IsaKind::Sira32, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        m.run_to_halt(100).unwrap();
        assert_eq!(m.core(0).reg(Reg(0)), 9);
    }

    #[test]
    fn misaligned_store_traps() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.lea_data(Reg(1), "buf");
        asm.addi(Reg(1), Reg(1), 1);
        asm.st(Reg(2), Reg(1), 0);
        asm.halt();
        asm.data_zero("buf", 16);
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        let err = m.run_to_halt(100).unwrap_err();
        assert!(matches!(
            err,
            RunError::Trap(Trap::Mem(fracas_mem::MemError::Misaligned { .. }))
        ));
    }

    #[test]
    fn profiling_attributes_cycles_per_function() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.bl_sym("busy");
        asm.halt();
        asm.global_fn("busy");
        asm.movz(Reg(1), 50, 0);
        let done = asm.new_label();
        let top = asm.here();
        asm.cmpi(Reg(1), 0);
        asm.bc(Cond::Eq, done);
        asm.subi(Reg(1), Reg(1), 1);
        asm.b(top);
        asm.bind(done);
        asm.ret();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        m.enable_profiling(&image);
        m.run_to_halt(10_000).unwrap();
        let report = m.profile_report();
        let busy = report["busy"];
        let start = report["_start"];
        assert!(
            busy > start,
            "busy loop dominates: busy={busy} start={start}"
        );
    }

    #[test]
    fn halt_reports_and_parks() {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.halt();
        let image = link(IsaKind::Sira64, &[asm.into_object()]).unwrap();
        let mut m = Machine::boot_flat(&image, 1);
        let mut perm = PermissionMap::new(m.mem.size());
        perm.map_range(
            0,
            m.mem.size(),
            Perms {
                read: true,
                write: true,
                exec: true,
            },
        );
        assert_eq!(m.step(0, &perm), StepResult::Halted);
        assert!(m.core(0).is_halted());
        assert_eq!(m.next_core(), None);
    }
}

#[cfg(test)]
mod text_fault_tests {
    use super::*;
    use fracas_isa::{link, Asm};

    fn nop_image() -> fracas_isa::Image {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        asm.movz(Reg(0), 7, 0);
        asm.nop();
        asm.halt();
        link(IsaKind::Sira64, &[asm.into_object()]).expect("link")
    }

    #[test]
    fn flip_text_twice_restores_the_word() {
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        m.flip_text(1, 30);
        m.flip_text(1, 30);
        m.run_to_halt(100).expect("restored program runs");
        assert_eq!(m.core(0).reg(Reg(0)), 7);
    }

    #[test]
    fn corrupting_opcode_raises_illegal_instruction() {
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        // Nop is opcode 0; set a high opcode bit -> unused opcode 64..127
        // region or an FP opcode, both rejected (FP is invalid only on
        // sira32; opcode 64 = fadd is *valid* on sira64, so flip two bits
        // to land in the guaranteed-unused 127 slot).
        for bit in [31, 30, 29, 28, 27, 26, 25] {
            m.flip_text(1, bit);
        }
        let err = m.run_to_halt(100).unwrap_err();
        assert!(
            matches!(err, RunError::Trap(Trap::IllegalInst { .. })),
            "{err}"
        );
    }

    #[test]
    fn corrupting_operand_changes_semantics_but_still_runs() {
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        // movz r0,#7 -> flip an immediate bit -> different constant.
        m.flip_text(0, 3);
        m.run_to_halt(100).expect("still decodable");
        assert_eq!(m.core(0).reg(Reg(0)), 7 ^ 8);
    }

    #[test]
    #[should_panic(expected = "patched while tracing is on")]
    fn patching_text_while_traced_panics() {
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        m.enable_trace();
        m.patch_text_word(2, 0xdead_beef);
    }

    /// Draining between steps leaves the last step's tick open, and the
    /// next tick keeps its number; every event is stamped with the
    /// clock its tick ended on.
    #[test]
    fn draining_keeps_the_open_tick_and_the_tick_numbering() {
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        let mut perm = PermissionMap::new(m.mem.size());
        perm.map_range(0, m.mem.size(), Perms::RX);
        m.enable_trace();
        assert_eq!(m.step(0, &perm), StepResult::Executed);
        m.trace_ctx_write(1);
        m.core_mut(0).advance_kernel(5);
        let first_end = m.core(0).cycles();
        assert_eq!(m.step(0, &perm), StepResult::Executed);
        m.trace_ctx_write(2);
        let trace = m.trace_mut().expect("tracing is on");
        let closed: Vec<(u64, u64)> = trace.drain_closed().map(|e| (e.tick, e.cycle)).collect();
        assert_eq!(closed, vec![(0, first_end); 2]);
        assert_eq!(trace.events.len(), 2, "the open tick's events stay");
        let last_end = m.core(0).cycles();
        let rest = m.take_trace().expect("tracing was on");
        let stamps: Vec<(u64, u64)> = rest.events.iter().map(|e| (e.tick, e.cycle)).collect();
        assert_eq!(stamps, vec![(1, last_end); 2]);
        assert_eq!(rest.events[1].kind, TraceKind::CtxWrite { tid: 2 });
    }

    #[test]
    fn untraced_patches_record_nothing() {
        // Injection replays run untraced: applying a text fault must
        // not allocate or grow a trace.
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        m.flip_text(1, 30);
        m.patch_text_word(2, 0xdead_beef);
        assert!(m.take_trace().is_none());
    }

    #[test]
    fn flip_text_out_of_range_is_ignored() {
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        m.flip_text(10_000, 0);
        m.run_to_halt(100).expect("unaffected");
        assert_eq!(m.text_len(), 3);
    }

    #[test]
    fn muh_computes_high_words() {
        for isa in IsaKind::ALL {
            let mut asm = Asm::new(isa);
            asm.global_fn("_start");
            asm.load_imm(Reg(1), 0xffff_ffff);
            asm.mov(Reg(2), Reg(1));
            asm.alu(AluOp::Muh, Reg(3), Reg(1), Reg(2));
            asm.halt();
            let image = link(isa, &[asm.into_object()]).expect("link");
            let mut m = Machine::boot_flat(&image, 1);
            m.run_to_halt(100).expect("run");
            let want = match isa {
                // (2^32-1)^2 >> 32 = 0xFFFF_FFFE
                IsaKind::Sira32 => 0xffff_fffe,
                // 64-bit: (2^32-1)^2 >> 64 = 0
                IsaKind::Sira64 => 0,
            };
            assert_eq!(m.core(0).reg(Reg(3)), want, "{isa}");
        }
    }
}
