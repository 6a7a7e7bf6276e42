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

/// The simulated multicore machine: cores, physical memory, caches and
/// the loaded text section.
///
/// The kernel model drives it through [`Machine::next_core`] /
/// [`Machine::step`]; bare-metal programs can use
/// [`Machine::run_to_halt`].
#[derive(Debug, Clone)]
pub struct Machine {
    isa: IsaKind,
    cost: CostModel,
    /// Encoded instruction words (the injectable instruction memory).
    text_words: Vec<u32>,
    /// Predecoded table over `text_words` (see [`fracas_isa::lower`]):
    /// one dense 16-byte slot per word, kept coherent by
    /// [`Machine::patch_text_word`]. A word that no longer decodes or
    /// violates the ISA lowers to [`Op::Illegal`] and traps at fetch.
    /// Shared by `Arc` so snapshot/restore is O(1); mutation goes
    /// through copy-on-write.
    dtext: Arc<Vec<DecodedInst>>,
    text_base: u32,
    /// Cycle charge per [`CostClass`] discriminant, prefolded from
    /// `cost` so the hot loop charges with one array load.
    charge: [u32; CostClass::COUNT],
    cores: Vec<Core>,
    /// Physical memory (public: the kernel and the injector manipulate it).
    pub mem: PhysMem,
    /// Cache hierarchy (public for statistics readout).
    pub caches: MemSystem,
    profile: Option<FnProfile>,
    /// Golden-run event trace, `None` unless [`Machine::enable_trace`]
    /// was called. An observer like `profile`: it never influences
    /// execution and is excluded from snapshots.
    trace: Option<ExecTrace>,
    /// Per-step effects conformance checking (see [`crate::check`]).
    /// Initialised from `FRACAS_CHECK_EFFECTS`; an observer like
    /// `profile`/`trace`, so it is excluded from snapshots and state
    /// comparison and never influences execution.
    check_effects: bool,
    /// Force the structured-[`Inst`] reference interpreter instead of
    /// the predecoded fast path (see [`Machine::set_reference_exec`]).
    /// A differential-testing hook, excluded from snapshots and state
    /// comparison: both paths are architecturally identical, which is
    /// exactly what the differential tests prove.
    ref_exec: bool,
}

/// A frozen copy of a [`Machine`] at one tick boundary, captured by
/// [`Machine::snapshot`] and revived by [`Machine::restore`].
///
/// Physical memory is stored sparsely (nonzero pages only), as shared
/// immutable pages; everything else is a plain copy. Profiling state
/// is excluded — see [`Machine::snapshot`] for the determinism
/// argument.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    isa: IsaKind,
    cost: CostModel,
    text_words: Vec<u32>,
    /// The predecoded table travels with the snapshot by `Arc`, so
    /// capturing and restoring costs one reference count — and a text
    /// fault landed before the capture (a re-lowered slot) survives
    /// the round trip without re-deriving anything.
    dtext: Arc<Vec<DecodedInst>>,
    text_base: u32,
    cores: Vec<Core>,
    mem: MemSnapshot,
    caches: MemSystem,
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
        self.cores[core].cycles()
    }

    /// The machine wall-clock (max over all core clocks) at capture time.
    pub fn max_cycles(&self) -> u64 {
        self.cores.iter().map(Core::cycles).max().unwrap_or(0)
    }
}

impl Machine {
    /// Creates a machine loaded with `image`, with all cores halted.
    ///
    /// The data template is *not* placed anywhere — that is the loader's
    /// (kernel's) job, since each process gets its own copy.
    pub fn new(image: &Image, cores: usize, mem_size: u32, cache: CacheParams) -> Machine {
        let text_words: Vec<u32> = image.text.iter().map(fracas_isa::encode).collect();
        let cost = CostModel::for_isa(image.isa);
        let dtext: Vec<DecodedInst> = image
            .text
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let pc = image.text_base.wrapping_add((i as u32).wrapping_mul(4));
                lower::lower(image.isa, pc, Some(inst))
            })
            .collect();
        Machine {
            isa: image.isa,
            cost,
            dtext: Arc::new(dtext),
            text_words,
            text_base: image.text_base,
            charge: charge_table(&cost),
            cores: (0..cores).map(|_| Core::new(image.isa)).collect(),
            mem: PhysMem::new(mem_size),
            caches: MemSystem::new(cores, cache),
            profile: None,
            trace: None,
            check_effects: crate::check::enabled_from_env(),
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
            let core = &mut m.cores[i];
            core.set_reg(image.isa.gb(), u64::from(FLAT_DATA_BASE));
            core.set_reg(image.isa.sp(), u64::from(sp));
            core.set_pc(image.entry);
            core.set_halted(i != 0);
        }
        m
    }

    /// The machine's ISA.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// The timing model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Replaces the timing model (used by timing-sensitivity ablations).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
        self.charge = charge_table(&cost);
    }

    /// True when per-step effects conformance checking is on.
    pub fn effect_check(&self) -> bool {
        self.check_effects
    }

    /// Turns per-step effects conformance checking on or off,
    /// overriding the `FRACAS_CHECK_EFFECTS` environment default. When
    /// on, every executed instruction is verified against its declared
    /// [`fracas_isa::Effects`] (see the `check` module); a divergence
    /// panics. Checking observes execution without influencing it.
    pub fn set_effect_check(&mut self, on: bool) {
        self.check_effects = on;
    }

    /// True when the structured-[`Inst`] reference interpreter is
    /// forced instead of the predecoded fast path.
    pub fn reference_exec(&self) -> bool {
        self.ref_exec
    }

    /// Forces (or releases) the structured-[`Inst`] reference
    /// interpreter: every step decodes its word on demand and runs the
    /// original wide-match execution path instead of dispatching on
    /// the predecoded table. Architecturally the two paths are
    /// identical — the differential test suite steps them in lockstep
    /// — so this is purely a verification hook (it is also the path
    /// the `FRACAS_CHECK_EFFECTS` conformance checker observes, since
    /// the checker needs the structured instruction).
    pub fn set_reference_exec(&mut self, on: bool) {
        self.ref_exec = on;
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Shared read access to a core.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn core(&self, index: usize) -> &Core {
        &self.cores[index]
    }

    /// Mutable access to a core (kernel context switching, injection).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn core_mut(&mut self, index: usize) -> &mut Core {
        &mut self.cores[index]
    }

    /// Base address of the text section.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// Byte size of the text section.
    pub fn text_bytes(&self) -> u32 {
        (self.text_words.len() as u32) * 4
    }

    /// The runnable core with the smallest local cycle count (ties break
    /// toward lower core ids). `None` when every core is halted.
    pub fn next_core(&self) -> Option<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_halted())
            .min_by_key(|(i, c)| (c.cycles(), *i))
            .map(|(i, _)| i)
    }

    /// The maximum local cycle count over all cores (the machine's wall
    /// clock; used for watchdogs and Table 1's simulation-time figures).
    pub fn max_cycles(&self) -> u64 {
        self.cores.iter().map(Core::cycles).max().unwrap_or(0)
    }

    /// One-pass scheduling probe: [`Machine::max_cycles`] and
    /// [`Machine::next_core`] fused, plus the elected core's *election
    /// cap* — the cycle count at which [`Machine::next_core`] would
    /// stop electing it. While the elected core's clock stays strictly
    /// below the cap, re-running the election is guaranteed to pick the
    /// same core, which is what lets the kernel batch consecutive
    /// steps into one [`Machine::run_burst`] without perturbing the
    /// schedule: core `i` wins while `cy_i < cy_j` for every lower id
    /// `j` and `cy_i <= cy_j` for every higher id (ties go to the
    /// lowest id), i.e. while `cy_i < min_j(cy_j + (j > i))`.
    pub fn schedule_probe(&self) -> (u64, Option<(usize, u64)>) {
        let mut wall = 0u64;
        let mut best: Option<(u64, usize)> = None;
        // Second-lowest runnable clock, kept as a *conservative* cap:
        // the exact election boundary is `min_j(cy_j + (j > i))`, and
        // using the raw second minimum only errs one cycle low, which
        // at worst ends a burst one step early (the re-election then
        // picks the same core) — it can never extend one.
        let mut cap = u64::MAX;
        for (i, c) in self.cores.iter().enumerate() {
            let cy = c.cycles();
            wall = wall.max(cy);
            if c.is_halted() {
                continue;
            }
            // Strict `<` on ascending ids keeps the lowest-id winner
            // among ties, matching `next_core`.
            match best {
                Some((bc, _)) if cy >= bc => cap = cap.min(cy),
                _ => {
                    if let Some((bc, _)) = best {
                        cap = cap.min(bc);
                    }
                    best = Some((cy, i));
                }
            }
        }
        (wall, best.map(|(_, i)| (i, cap)))
    }

    /// Executes up to `budget` instructions on `core`, stopping early
    /// the moment a step yields anything but
    /// [`StepResult::Executed`] or the core's cycle clock reaches
    /// `cycle_cap`. Returns the number of steps taken (at least one)
    /// and the last step's result.
    ///
    /// This is purely a dispatch-overhead optimisation: every
    /// individual step is a full [`Machine::step`], so a burst of `n`
    /// steps leaves the machine in exactly the state `n` single steps
    /// would. Callers pick `cycle_cap` so that nothing *between* steps
    /// could have mattered (scheduler election, preemption quantum,
    /// watchdogs, injection fences). When tracing is enabled the
    /// budget degrades to one step so tick boundaries stay per-step.
    pub fn run_burst(
        &mut self,
        core: usize,
        perm: &PermissionMap,
        budget: u64,
        cycle_cap: u64,
    ) -> (u64, StepResult) {
        let budget = if self.trace.is_some() {
            1
        } else {
            budget.max(1)
        };
        // With every per-step observer off (no profile, no trace, no
        // conformance checker, not in reference mode) the `step`
        // wrapper's pre/post bookkeeping is dead weight; drive the
        // fast path directly. One step of either loop is
        // state-identical to one `Machine::step` call.
        let plain = self.profile.is_none() && !self.check_effects && !self.ref_exec;
        let mut n = 0u64;
        if plain && budget > 1 {
            loop {
                if self.cores[core].is_halted() {
                    return (n + 1, StepResult::Halted);
                }
                let pc = self.cores[core].pc();
                let r = self.step_fast(core, perm, pc);
                n += 1;
                if !matches!(r, StepResult::Executed)
                    || n >= budget
                    || self.cores[core].cycles() >= cycle_cap
                {
                    return (n, r);
                }
            }
        }
        loop {
            let r = self.step(core, perm);
            n += 1;
            if !matches!(r, StepResult::Executed)
                || n >= budget
                || self.cores[core].cycles() >= cycle_cap
            {
                return (n, r);
            }
        }
    }

    /// Total retired instructions over all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().instructions).sum()
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
        let end = self.text_base + self.text_bytes();
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
            memo: vec![0; self.cores.len()],
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
            self.cores.iter().map(Core::cycles).collect(),
        ));
    }

    /// Takes the accumulated trace, disabling tracing (`None` if
    /// tracing was never enabled).
    pub fn take_trace(&mut self) -> Option<ExecTrace> {
        self.trace.take()
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

    /// Closes the current kernel tick: stamps the tick's events with
    /// the per-core end-of-tick cycle clocks (see [`crate::trace`] for
    /// why stamping happens at the boundary).
    pub fn trace_tick_end(&mut self) {
        if let Some(t) = &mut self.trace {
            let cores = &self.cores;
            t.end_tick(|core| cores[core as usize].cycles());
        }
    }

    // ----- fault injection hooks (§3.2.1 fault model) --------------------

    /// Flips one bit of an integer register. On SIRA-32, register 15 is
    /// the architected PC, so the flip lands on the program counter.
    pub fn flip_gpr(&mut self, core: usize, reg: u32, bit: u32) {
        let isa = self.isa;
        let core = &mut self.cores[core];
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
        let core = &mut self.cores[core];
        let reg = FReg((reg % 32) as u8);
        let v = core.freg(reg) ^ (1 << (bit % 64));
        core.set_freg(reg, v);
    }

    /// Flips one NZCV flag (0 = N, 1 = Z, 2 = C, 3 = V).
    pub fn flip_flag(&mut self, core: usize, which: u32) {
        let core = &mut self.cores[core];
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
        if let Some(word) = self.text_words.get(word_index as usize) {
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
    /// If golden-run tracing is on, the patch is recorded as a
    /// [`TraceKind::TextPatch`] event so the static text-fault analysis
    /// in `fracas-analyze` can refuse to decide faults on self-patched
    /// words (its digested text no longer matches what execution
    /// fetched). Injection replays run untraced, so applying a text
    /// fault never records anything.
    pub fn patch_text_word(&mut self, word_index: u32, word: u32) {
        let Some(slot) = self.text_words.get_mut(word_index as usize) else {
            return;
        };
        *slot = word;
        if let Some(t) = &mut self.trace {
            t.push(0, TraceKind::TextPatch { word: word_index });
        }
        let isa = self.isa;
        let pc = self.text_base.wrapping_add(word_index.wrapping_mul(4));
        let inst = fracas_isa::decode(word)
            .ok()
            .filter(|inst| isa.validate(inst).is_ok());
        Arc::make_mut(&mut self.dtext)[word_index as usize] = lower::lower(isa, pc, inst.as_ref());
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
        self.caches.flip_bit(unit, core, line, bit)
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
        self.caches.flip_data_bit(unit, core, line, bit, &self.mem)
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
        self.caches.flip_storebuf(core, entry, bit)
    }

    /// Drains `core`'s store buffer to memory — the kernel's fence
    /// point at SVC entry. A no-op unless a fault tainted an entry.
    pub fn drain_store_buffer(&mut self, core: usize) {
        self.caches.drain_store_buffer(core, &mut self.mem);
    }

    /// Toggles the instruction-skip fault latch on `core`: the next
    /// instruction the core issues is dropped at the issue stage — it
    /// retires (or annuls, if its condition fails) with its static
    /// cost-class charge but performs no architectural work — and the
    /// latch clears. A toggle rather than a set so the hook is its own
    /// inverse, like every other flip hook (multi-bit "widths" fold
    /// onto the single latch, modulus 1).
    pub fn flip_skip(&mut self, core: usize) {
        let cr = &mut self.cores[core];
        cr.skip_pending = !cr.skip_pending;
    }

    /// Number of instruction words in the text section.
    pub fn text_len(&self) -> u32 {
        self.text_words.len() as u32
    }

    /// The encoded instruction word at `index` (`None` out of range) —
    /// inspection hook for text-fault tooling and tests.
    pub fn text_word(&self, index: u32) -> Option<u32> {
        self.text_words.get(index as usize).copied()
    }

    // ----- checkpoint / restore -------------------------------------------

    /// Captures every piece of architectural and micro-architectural
    /// state that execution depends on: cores (registers, flags, cycle
    /// clocks, stats), the text section (both encodings — a prior text
    /// fault must survive the round trip), sparse physical memory and
    /// the full cache hierarchy.
    ///
    /// Profiling state is deliberately *not* captured: attribution
    /// observes execution without influencing it, so a machine restored
    /// without a profile replays the exact same cycle-by-cycle schedule.
    pub fn snapshot(&self) -> MachineSnapshot {
        self.snapshot_with(self.mem.snapshot())
    }

    /// [`Machine::snapshot`] with physical memory captured incrementally
    /// from `base`, an earlier snapshot of this machine, and `dirty`,
    /// every page written since `base` was taken (see
    /// [`PhysMem::snapshot_since`]). The result equals what
    /// [`Machine::snapshot`] would capture, but costs no scan of memory.
    pub fn snapshot_since(&self, base: &MachineSnapshot, dirty: &PageSet) -> MachineSnapshot {
        self.snapshot_with(self.mem.snapshot_since(&base.mem, dirty))
    }

    fn snapshot_with(&self, mem: MemSnapshot) -> MachineSnapshot {
        MachineSnapshot {
            isa: self.isa,
            cost: self.cost,
            text_words: self.text_words.clone(),
            dtext: Arc::clone(&self.dtext),
            text_base: self.text_base,
            cores: self.cores.clone(),
            mem,
            caches: self.caches.clone(),
        }
    }

    /// Reconstructs a machine from a snapshot. The result is
    /// bit-identical to the machine the snapshot was taken from, except
    /// that profiling is disabled (see [`Machine::snapshot`]).
    pub fn restore(snap: &MachineSnapshot) -> Machine {
        Machine {
            isa: snap.isa,
            cost: snap.cost,
            text_words: snap.text_words.clone(),
            dtext: Arc::clone(&snap.dtext),
            text_base: snap.text_base,
            charge: charge_table(&snap.cost),
            cores: snap.cores.clone(),
            mem: snap.mem.restore(),
            caches: snap.caches.clone(),
            profile: None,
            trace: None,
            check_effects: crate::check::enabled_from_env(),
            ref_exec: false,
        }
    }

    /// True when this machine's architectural and micro-architectural
    /// state is identical to the state `snap` captured — same registers,
    /// flags, clocks, stats, text, memory image and cache hierarchy.
    /// Profiling state is ignored, matching what [`Machine::snapshot`]
    /// captures: a profile observes execution without influencing it.
    ///
    /// Because one tick is a pure function of this state, equality here
    /// (plus kernel-level equality) guarantees the two executions are
    /// indistinguishable from this point on.
    pub fn state_matches(&self, snap: &MachineSnapshot) -> bool {
        self.isa == snap.isa
            && self.cost == snap.cost
            && self.text_base == snap.text_base
            && self.cores == snap.cores
            && self.caches == snap.caches
            // The predecoded `dtext` table is a pure function of
            // `text_words` (re-lowered at construction and by
            // `patch_text_word`; the differential suite proves
            // lowering-from-`Inst` and lowering-from-word agree), so
            // comparing the raw words covers both and memcmps.
            && self.text_words == snap.text_words
            && self.mem.matches_snapshot(&snap.mem)
    }

    /// Like [`Machine::state_matches`], but physical memory is compared
    /// only over `touched` (see [`PhysMem::matches_snapshot_within`] for
    /// the soundness condition). Everything else is still compared in
    /// full — registers, flags, clocks, stats, caches, text.
    pub fn state_matches_within(&self, snap: &MachineSnapshot, touched: &PageSet) -> bool {
        self.isa == snap.isa
            && self.cost == snap.cost
            && self.text_base == snap.text_base
            && self.cores == snap.cores
            && self.caches == snap.caches
            && self.text_words == snap.text_words
            && self.mem.matches_snapshot_within(&snap.mem, touched)
    }

    // ----- interpreter ----------------------------------------------------

    /// Executes one instruction on `core` under the given process
    /// permission map.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn step(&mut self, core: usize, perm: &PermissionMap) -> StepResult {
        let c = &self.cores[core];
        if c.is_halted() {
            return StepResult::Halted;
        }
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
            let delta = self.cores[core].cycles() - cycles_before;
            if delta > 0 {
                if let Some(p) = &mut self.profile {
                    p.attribute(core, pc, delta);
                }
            }
        }
        if self.trace.is_some() {
            let stats = &self.cores[core].stats;
            let skipped = stats.cond_skipped > skipped_before;
            if skipped || stats.instructions > instructions_before {
                if let Some(t) = &mut self.trace {
                    t.push(core as u32, TraceKind::Commit { pc, skipped });
                }
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
        let word = *self.text_words.get(idx)?;
        let inst = fracas_isa::decode(word).ok()?;
        self.isa.validate(&inst).ok()?;
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
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        let Some(inst) = self.decode_slot(idx) else {
            return StepResult::Trap(Trap::IllegalInst { pc });
        };
        let fetch_penalty = self.caches.access(core, Access::Fetch, pc);
        self.cores[core].stats.miss_cycles += u64::from(fetch_penalty);
        self.cores[core].cycles += u64::from(fetch_penalty);

        if self.cores[core].skip_pending {
            // The predecoded slot agrees with `inst` (predecode
            // invariant), and its `exec_mask` already folds the
            // branch-never-annuls rule the reference path handles via
            // `is_branch` below.
            let d = self.dtext[idx];
            let base = u64::from(self.cost.base);
            let charge = u64::from(self.charge[usize::from(d.cost)]);
            return Self::consume_skip(&mut self.cores[core], d, base, charge, pc);
        }

        // --- conditional execution ---
        let flags = self.cores[core].flags();
        let holds = inst.cond.holds(flags.n, flags.z, flags.c, flags.v);
        let is_branch = matches!(inst.kind, InstKind::B { .. });
        if !holds && !is_branch {
            let c = &mut self.cores[core];
            c.stats.cond_skipped += 1;
            c.cycles += u64::from(self.cost.base);
            c.set_pc(pc.wrapping_add(4));
            return StepResult::Executed;
        }

        if self.check_effects {
            // Capture the pre-state *after* fetch and condition
            // handling so the fetch-cache penalty is excluded from the
            // checker's cycle accounting.
            let pre = self.cores[core].clone();
            let result = self.exec(core, perm, pc, inst, holds);
            crate::check::verify(&crate::check::StepObs {
                isa: self.isa,
                cost: self.cost,
                pre: &pre,
                post: &self.cores[core],
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
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        let Some(&d) = self.dtext.get(idx) else {
            return StepResult::Trap(Trap::IllegalInst { pc });
        };
        if d.op == Op::Illegal {
            return StepResult::Trap(Trap::IllegalInst { pc });
        }
        let fetch_penalty = self.caches.access(core, Access::Fetch, pc);
        let base = u64::from(self.cost.base);
        let cr = &mut self.cores[core];
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
        let bits = if self.isa == IsaKind::Sira32 { 32 } else { 64 };
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
        let caches = &mut self.caches;
        let cr = &mut self.cores[core];

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
        let isa = self.isa;
        let bits = if isa == IsaKind::Sira32 { 32 } else { 64 };
        let cost = self.cost;
        let next = pc.wrapping_add(4);
        // Default PC advance; branch arms override.
        self.cores[core].set_pc(next);
        self.cores[core].stats.instructions += 1;

        macro_rules! trap {
            ($t:expr) => {{
                // Roll back: a trapped instruction does not retire.
                self.cores[core].set_pc(pc);
                self.cores[core].stats.instructions -= 1;
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
                self.caches.drain_store_buffer(core, &mut self.mem);
                self.cores[core].cycles += cycles;
                self.cores[core].set_halted(true);
                return StepResult::Halted;
            }
            InstKind::Svc { imm } => {
                let c = &mut self.cores[core];
                c.stats.svcs += 1;
                c.cycles += cycles;
                return StepResult::Svc(imm);
            }
            InstKind::Ret => {
                let lr = self.cores[core].reg(isa.lr());
                self.cores[core].set_pc(lr as u32);
                cycles += u64::from(cost.branch_taken);
            }
            InstKind::Alu { op, rd, rn, rm } => {
                let a = self.cores[core].reg(rn);
                let b = self.cores[core].reg(rm);
                match alu_exec(op, a, b, bits) {
                    Some(v) => self.cores[core].set_reg(rd, v),
                    None => trap!(Trap::DivByZero { pc }),
                }
            }
            InstKind::AluImm { op, rd, rn, imm } => {
                let a = self.cores[core].reg(rn);
                let b = imm as i64 as u64;
                match alu_exec(op, a, b, bits) {
                    Some(v) => self.cores[core].set_reg(rd, v),
                    None => trap!(Trap::DivByZero { pc }),
                }
            }
            InstKind::Cmp { rn, rm } => {
                let a = self.cores[core].reg(rn);
                let b = self.cores[core].reg(rm);
                let f = sub_flags(a, b, bits);
                self.cores[core].set_flags(f);
            }
            InstKind::CmpImm { rn, imm } => {
                let a = self.cores[core].reg(rn);
                let f = sub_flags(a, imm as i64 as u64, bits);
                self.cores[core].set_flags(f);
            }
            InstKind::MovImm {
                rd,
                imm,
                shift,
                keep,
            } => {
                let sh = u32::from(shift) * 16;
                let v = if keep {
                    (self.cores[core].reg(rd) & !(0xffffu64 << sh)) | (u64::from(imm) << sh)
                } else {
                    u64::from(imm) << sh
                };
                self.cores[core].set_reg(rd, v);
            }
            InstKind::Mov { rd, rm } => {
                let v = self.cores[core].reg(rm);
                self.cores[core].set_reg(rd, v);
            }
            InstKind::Mvn { rd, rm } => {
                let v = !self.cores[core].reg(rm);
                self.cores[core].set_reg(rd, v);
            }
            InstKind::Ld { width, rd, rn, off } => {
                let addr = (self.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                match self.load(core, perm, width, addr) {
                    Ok(v) => self.cores[core].set_reg(rd, v),
                    Err(t) => trap!(t),
                }
            }
            InstKind::St { width, rd, rn, off } => {
                let addr = (self.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                let v = self.cores[core].reg(rd);
                if let Err(t) = self.store(core, perm, width, addr, v) {
                    trap!(t);
                }
            }
            InstKind::LdR { width, rd, rn, rm } => {
                let addr =
                    (self.cores[core].reg(rn) as u32).wrapping_add(self.cores[core].reg(rm) as u32);
                match self.load(core, perm, width, addr) {
                    Ok(v) => self.cores[core].set_reg(rd, v),
                    Err(t) => trap!(t),
                }
            }
            InstKind::StR { width, rd, rn, rm } => {
                let addr =
                    (self.cores[core].reg(rn) as u32).wrapping_add(self.cores[core].reg(rm) as u32);
                let v = self.cores[core].reg(rd);
                if let Err(t) = self.store(core, perm, width, addr, v) {
                    trap!(t);
                }
            }
            InstKind::B { off } => {
                let c = &mut self.cores[core];
                c.stats.branches += 1;
                if cond_holds {
                    c.stats.branches_taken += 1;
                    c.set_pc(branch_target(pc, off));
                    cycles += u64::from(cost.branch_taken);
                }
            }
            InstKind::Bl { off } => {
                let c = &mut self.cores[core];
                c.stats.calls += 1;
                c.set_reg(isa.lr(), u64::from(next));
                c.set_pc(branch_target(pc, off));
                cycles += u64::from(cost.branch_taken);
            }
            InstKind::Blr { rm } => {
                let target = self.cores[core].reg(rm) as u32;
                let c = &mut self.cores[core];
                c.stats.calls += 1;
                c.set_reg(isa.lr(), u64::from(next));
                c.set_pc(target);
                cycles += u64::from(cost.branch_taken);
            }
            InstKind::Swp { rd, rn, rm } => {
                let addr = self.cores[core].reg(rn) as u32;
                let new = self.cores[core].reg(rm);
                // Atomics are fences: the buffer drains before the RMW.
                self.caches.drain_store_buffer(core, &mut self.mem);
                match self.load(core, perm, Width::Word, addr) {
                    Ok(old) => {
                        if let Err(t) = self.store(core, perm, Width::Word, addr, new) {
                            trap!(t);
                        }
                        self.cores[core].set_reg(rd, old);
                    }
                    Err(t) => trap!(t),
                }
            }
            InstKind::AmoAdd { rd, rn, rm } => {
                let addr = self.cores[core].reg(rn) as u32;
                let delta = self.cores[core].reg(rm);
                // Atomics are fences: the buffer drains before the RMW.
                self.caches.drain_store_buffer(core, &mut self.mem);
                match self.load(core, perm, Width::Word, addr) {
                    Ok(old) => {
                        let sum = old.wrapping_add(delta);
                        if let Err(t) = self.store(core, perm, Width::Word, addr, sum) {
                            trap!(t);
                        }
                        self.cores[core].set_reg(rd, old);
                    }
                    Err(t) => trap!(t),
                }
            }
            InstKind::Fp { op, fd, fa, fb } => {
                let a = self.cores[core].freg_f64(fa);
                let b = self.cores[core].freg_f64(fb);
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
                self.cores[core].set_freg_f64(fd, v);
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::FpCmp { fa, fb } => {
                let a = self.cores[core].freg_f64(fa);
                let b = self.cores[core].freg_f64(fb);
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
                self.cores[core].set_flags(f);
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::FMovToFp { fd, rn } => {
                let v = self.cores[core].reg(rn);
                self.cores[core].set_freg(fd, v);
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::FMovFromFp { rd, fa } => {
                let v = self.cores[core].freg(fa);
                self.cores[core].set_reg(rd, v);
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::Fcvtzs { rd, fa } => {
                let a = self.cores[core].freg_f64(fa);
                // Saturating convert, NaN -> 0 (ARM semantics).
                let v = if a.is_nan() { 0 } else { a as i64 };
                self.cores[core].set_reg(rd, v as u64);
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::Scvtf { fd, rn } => {
                let v = self.cores[core].reg(rn) as i64;
                self.cores[core].set_freg_f64(fd, v as f64);
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::FLd { fd, rn, off } => {
                let addr = (self.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                match self.load_f64(core, perm, addr) {
                    Ok(v) => self.cores[core].set_freg(fd, v),
                    Err(t) => trap!(t),
                }
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::FSt { fd, rn, off } => {
                let addr = (self.cores[core].reg(rn) as u32).wrapping_add(off as i32 as u32);
                let v = self.cores[core].freg(fd);
                if let Err(t) = self.store_f64(core, perm, addr, v) {
                    trap!(t);
                }
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::FLdR { fd, rn, rm } => {
                let addr =
                    (self.cores[core].reg(rn) as u32).wrapping_add(self.cores[core].reg(rm) as u32);
                match self.load_f64(core, perm, addr) {
                    Ok(v) => self.cores[core].set_freg(fd, v),
                    Err(t) => trap!(t),
                }
                self.cores[core].stats.fp_ops += 1;
            }
            InstKind::FStR { fd, rn, rm } => {
                let addr =
                    (self.cores[core].reg(rn) as u32).wrapping_add(self.cores[core].reg(rm) as u32);
                let v = self.cores[core].freg(fd);
                if let Err(t) = self.store_f64(core, perm, addr, v) {
                    trap!(t);
                }
                self.cores[core].stats.fp_ops += 1;
            }
        }

        self.cores[core].cycles += cycles;
        StepResult::Executed
    }

    fn load(
        &mut self,
        core: usize,
        perm: &PermissionMap,
        width: Width,
        addr: u32,
    ) -> Result<u64, Trap> {
        let size = self.isa.width_bytes(width);
        perm.check(addr, size, AccessKind::Read)?;
        let v = match (width, self.isa) {
            (Width::Byte, _) => u64::from(self.mem.read_u8(addr)?),
            (Width::Half, _) | (Width::Word, IsaKind::Sira32) => {
                u64::from(self.mem.read_u32(addr)?)
            }
            (Width::Word, IsaKind::Sira64) => self.mem.read_u64(addr)?,
        };
        let (penalty, over) = self.caches.data_read(core, addr, size);
        let c = &mut self.cores[core];
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
        let size = self.isa.width_bytes(width);
        perm.check(addr, size, AccessKind::Write)?;
        match (width, self.isa) {
            (Width::Byte, _) => self.mem.write_u8(addr, value as u8)?,
            (Width::Half, _) | (Width::Word, IsaKind::Sira32) => {
                self.mem.write_u32(addr, value as u32)?;
            }
            (Width::Word, IsaKind::Sira64) => self.mem.write_u64(addr, value)?,
        }
        let penalty = self
            .caches
            .data_write(core, addr, size, value, &mut self.mem);
        let c = &mut self.cores[core];
        c.stats.stores += 1;
        c.stats.miss_cycles += u64::from(penalty);
        c.cycles += u64::from(penalty);
        Ok(())
    }

    fn load_f64(&mut self, core: usize, perm: &PermissionMap, addr: u32) -> Result<u64, Trap> {
        perm.check(addr, 8, AccessKind::Read)?;
        let v = self.mem.read_u64(addr)?;
        let (penalty, over) = self.caches.data_read(core, addr, 8);
        let c = &mut self.cores[core];
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
        let penalty = self.caches.data_write(core, addr, 8, bits, &mut self.mem);
        let c = &mut self.cores[core];
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
        for _ in 0..max_steps {
            let Some(core) = self.next_core() else {
                return Ok(());
            };
            match self.step(core, &perm) {
                StepResult::Executed => {}
                StepResult::Halted => return Ok(()),
                StepResult::Trap(t) => return Err(RunError::Trap(t)),
                StepResult::Svc(num) => {
                    return Err(RunError::UnhandledSvc {
                        num,
                        pc: self.cores[core].pc(),
                    })
                }
            }
        }
        Err(RunError::StepLimit {
            instructions: self.total_instructions(),
            pcs: self.cores.iter().map(Core::pc).collect(),
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
    fn patching_text_while_traced_records_the_word() {
        let image = nop_image();
        let mut m = Machine::boot_flat(&image, 1);
        m.enable_trace();
        m.flip_text(1, 30);
        m.patch_text_word(2, 0xdead_beef);
        m.trace_tick_end();
        let trace = m.take_trace().expect("tracing was on");
        let patched: Vec<u32> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::TextPatch { word } => Some(word),
                _ => None,
            })
            .collect();
        // Both the bit flip and the whole-word overwrite route through
        // `patch_text_word`, so both words are reported to the static
        // text-fault analysis.
        assert_eq!(patched, vec![1, 2]);
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
