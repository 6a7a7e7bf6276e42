//! The kernel proper: boot, scheduling, syscalls and the run loop.

use crate::abi;
use crate::layout::{MemLayout, RegionAlloc};
use crate::outcome::{RunOutcome, RunReport};
use crate::proc::{BlockReason, Message, PendingRecv, Pid, Process, Thread, ThreadState, Tid};
use fracas_cpu::{CoreContext, Machine, MachineSnapshot, StepResult, Trap};
use fracas_isa::{Image, Reg};
use fracas_mem::{CacheParams, MemError, PageSet, Perms};
use std::collections::{HashMap, VecDeque};

/// How much console output is retained verbatim (the total length and a
/// running hash always cover everything written).
const CONSOLE_CAP: usize = 256 * 1024;

/// Boot-time scenario configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootSpec {
    /// Number of processes to start (the MPI world size; 1 for serial
    /// and OpenMP scenarios).
    pub processes: u32,
    /// Value reported by the `nthreads` syscall — the OMP worker count
    /// the guest runtime should fork.
    pub omp_threads: u32,
    /// Guest memory layout.
    pub layout: MemLayout,
    /// Cache configuration.
    pub cache: CacheParams,
    /// Kernel cycles charged per thread dispatch (scheduler execution).
    pub dispatch_cost: u64,
    /// Kernel cycles charged per syscall body.
    pub syscall_cost: u64,
    /// Preemption quantum in cycles.
    pub quantum: u64,
}

impl BootSpec {
    /// One process, one thread (serial scenarios).
    pub fn serial() -> BootSpec {
        BootSpec {
            processes: 1,
            omp_threads: 1,
            layout: MemLayout::default(),
            cache: CacheParams::paper(),
            dispatch_cost: 150,
            syscall_cost: 60,
            quantum: 20_000,
        }
    }

    /// One process whose runtime forks `threads` OMP workers.
    pub fn omp(threads: u32) -> BootSpec {
        BootSpec {
            omp_threads: threads.max(1),
            ..BootSpec::serial()
        }
    }

    /// `ranks` message-passing processes.
    pub fn mpi(ranks: u32) -> BootSpec {
        BootSpec {
            processes: ranks.max(1),
            ..BootSpec::serial()
        }
    }
}

/// Host-side execution limits (the Hang watchdogs).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Machine-cycle watchdog.
    pub max_cycles: u64,
    /// Retired-instruction budget (safety net).
    pub max_steps: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_cycles: u64::MAX / 4,
            max_steps: 4_000_000_000,
        }
    }
}

/// A pacing fence for the `run_until_*` loops: caps how far a
/// dispatch burst may advance a core's clock so the outer loop
/// observes the machine at exactly the same tick boundary a
/// single-step schedule would have paused on.
#[derive(Debug, Clone, Copy)]
enum Fence {
    /// No pacing: run freely (plain [`Kernel::run`]).
    None,
    /// Pause once the given core's clock reaches the cycle
    /// ([`Kernel::run_until_core_cycle`], the injection point).
    Core(usize, u64),
    /// Pause once the machine wall clock reaches the cycle
    /// ([`Kernel::run_until_machine_cycle`], checkpoint pacing).
    Wall(u64),
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct LockState {
    held_by: Option<Tid>,
    waiters: VecDeque<Tid>,
}

/// The kernel: owns the machine and drives all processes to completion.
#[derive(Debug)]
pub struct Kernel {
    machine: Machine,
    spec: BootSpec,
    alloc: RegionAlloc,
    procs: Vec<Process>,
    threads: Vec<Thread>,
    ready: VecDeque<Tid>,
    core_thread: Vec<Option<Tid>>,
    dispatched_at: Vec<u64>,
    msgs: Vec<Vec<Message>>,
    barriers: HashMap<u32, Vec<Tid>>,
    locks: HashMap<u32, LockState>,
    console: Vec<u8>,
    console_len: u64,
    console_hash: u64,
    steps: u64,
    power_transitions: u64,
    finished: Option<RunOutcome>,
    /// Dense mirror of each core's cycle clock, the scheduler's
    /// election input. Purely a derived cache (never snapshotted or
    /// compared): rebuilt from the machine whenever `sched_dirty`,
    /// and updated incrementally after each burst — a burst ending in
    /// plain execution changes nothing but the stepped core's clock,
    /// so the other entries stay exact without re-reading the cores.
    sched_cycles: Vec<u64>,
    /// Mirror of `!core.is_halted()` (same caching discipline).
    sched_live: Vec<bool>,
    /// Set whenever anything other than a plain executed burst may
    /// have touched a core clock or halt bit: boot, restore, outside
    /// access through [`Kernel::machine_mut`], syscalls, traps,
    /// preemption, thread dispatch.
    sched_dirty: bool,
}

/// A frozen copy of a [`Kernel`] (and its machine) at one tick boundary,
/// captured by [`Kernel::snapshot`] and revived by [`Kernel::restore`].
///
/// This is the unit the fault injector checkpoints: resuming from a
/// snapshot replays the identical deterministic tick sequence the
/// original run would have executed from that point.
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    machine: MachineSnapshot,
    spec: BootSpec,
    alloc: RegionAlloc,
    procs: Vec<Process>,
    threads: Vec<Thread>,
    ready: VecDeque<Tid>,
    core_thread: Vec<Option<Tid>>,
    dispatched_at: Vec<u64>,
    msgs: Vec<Vec<Message>>,
    barriers: HashMap<u32, Vec<Tid>>,
    locks: HashMap<u32, LockState>,
    console: Vec<u8>,
    console_len: u64,
    console_hash: u64,
    steps: u64,
    power_transitions: u64,
    finished: Option<RunOutcome>,
}

impl KernelSnapshot {
    /// Local cycle clock of `core` at capture time. A snapshot may serve
    /// a fault targeting `core` at cycle `c` only when this is strictly
    /// below `c` — otherwise the injection point has already passed.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_cycles(&self, core: usize) -> u64 {
        self.machine.core_cycles(core)
    }

    /// Machine wall-clock at capture time.
    pub fn max_cycles(&self) -> u64 {
        self.machine.max_cycles()
    }
}

impl Kernel {
    /// Boots `image` on `cores` cores with the given scenario spec:
    /// creates the processes (each with a private copy of the data
    /// template), their initial threads, and fills the cores.
    ///
    /// # Panics
    ///
    /// Panics if guest memory cannot hold the requested processes (a
    /// configuration error, not a runtime condition).
    pub fn boot(image: &Image, cores: usize, spec: BootSpec) -> Kernel {
        let mut machine = Machine::new(image, cores, spec.layout.mem_size, spec.cache);
        let mut alloc = RegionAlloc::new(spec.layout);
        let mut procs = Vec::new();
        let mut threads = Vec::new();

        for pid in 0..spec.processes {
            let (data_base, heap_base) = alloc
                .alloc_process(image.data_size())
                .expect("guest memory exhausted at boot");
            machine
                .mem
                .write_bytes(data_base, &image.data_template)
                .expect("data template fits region");
            let mut perm = fracas_mem::PermissionMap::new(spec.layout.mem_size);
            perm.map_range(image.text_base, image.text_bytes().max(4), Perms::RX);
            perm.map_range(data_base, heap_base - data_base, Perms::RW);
            let mut proc = Process {
                perm,
                data_base,
                heap_base,
                brk: heap_base,
                heap_limit: heap_base + spec.layout.heap_max,
                free_stacks: Vec::new(),
                exit_code: None,
            };
            let stack = alloc.alloc_stack().expect("stack space exhausted at boot");
            proc.perm.map_range(stack.0, stack.1 - stack.0, Perms::RW);
            let mut ctx = CoreContext::at_entry(image.entry);
            ctx.regs[image.isa.gb().index()] = u64::from(data_base);
            ctx.regs[image.isa.sp().index()] = u64::from(stack.1);
            ctx.regs[0] = u64::from(pid);
            threads.push(Thread {
                pid,
                state: ThreadState::Ready,
                ctx,
                stack,
                ready_at: 0,
                pending_recv: None,
            });
            procs.push(proc);
        }

        let mut kernel = Kernel {
            core_thread: vec![None; cores],
            dispatched_at: vec![0; cores],
            msgs: (0..spec.processes).map(|_| Vec::new()).collect(),
            machine,
            spec,
            alloc,
            procs,
            ready: (0..threads.len() as Tid).collect(),
            threads,
            barriers: HashMap::new(),
            locks: HashMap::new(),
            console: Vec::new(),
            console_len: 0,
            console_hash: 0xcbf2_9ce4_8422_2325,
            steps: 0,
            power_transitions: 0,
            finished: None,
            sched_cycles: vec![0; cores],
            sched_live: vec![false; cores],
            sched_dirty: true,
        };
        kernel.fill_cores();
        // Boot is deterministic, so the image/stack writes above are
        // common to every run; dirty-page tracking starts at the first
        // executed instruction (symmetric with a snapshot restore).
        kernel.machine.mem.clear_dirty();
        kernel
    }

    /// The machine (stats readout, profiling).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (fault injection).
    pub fn machine_mut(&mut self) -> &mut Machine {
        // The caller may change clocks or halt bits arbitrarily.
        self.sched_dirty = true;
        &mut self.machine
    }

    /// Fault hook: XORs bit `bit % 32` into the run-queue entry at
    /// `slot` — the kernel-control fault model's view of one scheduler
    /// SRAM word. Slots past the queue's current occupancy are ignored
    /// (the strike lands in an empty entry), so out-of-range flips are
    /// no-ops and the hook stays a pure involution. A corrupted entry
    /// that still names a Ready thread dispatches that thread out of
    /// order; anything else is discarded by the ready-queue pop's
    /// validation and surfaces as a lost wakeup.
    pub fn flip_runq(&mut self, slot: u32, bit: u32) {
        self.sched_dirty = true;
        if let Some(entry) = self.ready.get_mut(slot as usize) {
            *entry ^= 1 << (bit % 32);
        }
    }

    /// Fault hook: toggles one permission bit (`bit % 3`: read, write,
    /// execute) of `page` in process `pid`'s page-permission map — the
    /// kernel-control fault model's view of a page-table entry.
    /// Out-of-range pids and pages are ignored (no-op, involution
    /// preserved).
    pub fn flip_page_perm(&mut self, pid: u32, page: u32, bit: u32) {
        self.sched_dirty = true;
        if let Some(p) = self.procs.get_mut(pid as usize) {
            p.perm.flip_page_bit(page, bit);
        }
    }

    /// Scheduler ticks executed so far (the quantity [`Limits::max_steps`]
    /// bounds).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The boot spec.
    pub fn spec(&self) -> &BootSpec {
        &self.spec
    }

    /// Console output so far (capped at an internal limit).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Runs until every process exits, a trap ends the run, deadlock, or
    /// a watchdog fires. Idempotent once finished.
    pub fn run(&mut self, limits: &Limits) -> RunOutcome {
        loop {
            if let Some(done) = self.finished {
                return done;
            }
            if let Some(done) = self.tick(limits, Fence::None) {
                return done;
            }
        }
    }

    /// Runs until `core`'s local clock reaches `cycle` (returns `None`,
    /// with the machine paused at the injection point) or the run ends
    /// first (returns the outcome). This is how the fault injector lands
    /// a bit flip at a precise time.
    pub fn run_until_core_cycle(
        &mut self,
        core: usize,
        cycle: u64,
        limits: &Limits,
    ) -> Option<RunOutcome> {
        loop {
            if let Some(done) = self.finished {
                return Some(done);
            }
            if self.machine.core(core).cycles() >= cycle {
                return None;
            }
            if let Some(done) = self.tick(limits, Fence::Core(core, cycle)) {
                return Some(done);
            }
        }
    }

    /// Runs until the machine wall-clock ([`Machine::max_cycles`])
    /// reaches `cycle` (returns `None`, paused at a tick boundary) or the
    /// run ends first (returns the outcome). This is the checkpoint
    /// capturer's pacing loop.
    pub fn run_until_machine_cycle(&mut self, cycle: u64, limits: &Limits) -> Option<RunOutcome> {
        loop {
            if let Some(done) = self.finished {
                return Some(done);
            }
            if self.machine.max_cycles() >= cycle {
                return None;
            }
            if let Some(done) = self.tick(limits, Fence::Wall(cycle)) {
                return Some(done);
            }
        }
    }

    // ----- checkpoint / restore -------------------------------------------

    /// Captures the complete kernel state — machine, region allocator,
    /// process table, threads, run queue, core bindings, message queues,
    /// barriers, locks, console and accounting — at the current tick
    /// boundary.
    ///
    /// Because `Kernel::tick` is the only unit of progress and is a
    /// pure function of this state, restoring the snapshot and running
    /// replays the exact tick sequence the original kernel would have
    /// executed, producing bit-identical [`RunReport`]s.
    pub fn snapshot(&self) -> KernelSnapshot {
        self.snapshot_with(self.machine.snapshot())
    }

    /// [`Kernel::snapshot`] with physical memory captured incrementally
    /// from `base`, an earlier snapshot of this kernel, and `dirty`,
    /// every page written since `base` was taken (see
    /// [`Machine::snapshot_since`]). Checkpoint capture uses it for
    /// every rung after the first.
    pub fn snapshot_since(&self, base: &KernelSnapshot, dirty: &PageSet) -> KernelSnapshot {
        self.snapshot_with(self.machine.snapshot_since(&base.machine, dirty))
    }

    fn snapshot_with(&self, machine: MachineSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            machine,
            spec: self.spec,
            alloc: self.alloc.clone(),
            procs: self.procs.clone(),
            threads: self.threads.clone(),
            ready: self.ready.clone(),
            core_thread: self.core_thread.clone(),
            dispatched_at: self.dispatched_at.clone(),
            msgs: self.msgs.clone(),
            barriers: self.barriers.clone(),
            locks: self.locks.clone(),
            console: self.console.clone(),
            console_len: self.console_len,
            console_hash: self.console_hash,
            steps: self.steps,
            power_transitions: self.power_transitions,
            finished: self.finished,
        }
    }

    /// Reconstructs a kernel from a snapshot (profiling disabled — see
    /// [`Machine::snapshot`]).
    pub fn restore(snap: &KernelSnapshot) -> Kernel {
        Kernel {
            machine: Machine::restore(&snap.machine),
            spec: snap.spec,
            alloc: snap.alloc.clone(),
            procs: snap.procs.clone(),
            threads: snap.threads.clone(),
            ready: snap.ready.clone(),
            core_thread: snap.core_thread.clone(),
            dispatched_at: snap.dispatched_at.clone(),
            msgs: snap.msgs.clone(),
            barriers: snap.barriers.clone(),
            locks: snap.locks.clone(),
            console: snap.console.clone(),
            console_len: snap.console_len,
            console_hash: snap.console_hash,
            steps: snap.steps,
            power_transitions: snap.power_transitions,
            finished: snap.finished,
            sched_cycles: vec![0; snap.core_thread.len()],
            sched_live: vec![false; snap.core_thread.len()],
            sched_dirty: true,
        }
    }

    /// True when this kernel's complete state — machine and all
    /// scheduler bookkeeping — is identical to the state `snap`
    /// captured. Since `Kernel::tick` is a pure function of this
    /// state, equality means the two executions are indistinguishable
    /// from here on: same tick sequence, same final [`RunReport`].
    ///
    /// The injection engine uses this to prune runs whose fault has
    /// provably vanished: once a faulty run's state re-equals a golden
    /// checkpoint at the same point, its remainder *is* the golden
    /// remainder and need not be executed.
    pub fn state_matches(&self, snap: &KernelSnapshot) -> bool {
        self.steps == snap.steps
            && self.console_len == snap.console_len
            && self.console_hash == snap.console_hash
            && self.power_transitions == snap.power_transitions
            && self.finished == snap.finished
            && self.spec == snap.spec
            && self.ready == snap.ready
            && self.core_thread == snap.core_thread
            && self.dispatched_at == snap.dispatched_at
            && self.alloc == snap.alloc
            && self.procs == snap.procs
            && self.threads == snap.threads
            && self.msgs == snap.msgs
            && self.barriers == snap.barriers
            && self.locks == snap.locks
            && self.console == snap.console
            && self.machine.state_matches(&snap.machine)
    }

    /// Like [`Kernel::state_matches`], but physical memory is compared
    /// only over `touched` — the union of pages either execution could
    /// have written since their last common state (tracked by
    /// checkpoint capture and by `PhysMem` dirty bits). All scheduler
    /// and machine state is still compared in full, so a match retains
    /// the same replay guarantee at a fraction of the cost.
    pub fn state_matches_within(&self, snap: &KernelSnapshot, touched: &PageSet) -> bool {
        self.steps == snap.steps
            && self.console_len == snap.console_len
            && self.console_hash == snap.console_hash
            && self.power_transitions == snap.power_transitions
            && self.finished == snap.finished
            && self.spec == snap.spec
            && self.ready == snap.ready
            && self.core_thread == snap.core_thread
            && self.dispatched_at == snap.dispatched_at
            && self.alloc == snap.alloc
            && self.procs == snap.procs
            && self.threads == snap.threads
            && self.msgs == snap.msgs
            && self.barriers == snap.barriers
            && self.locks == snap.locks
            && self.console == snap.console
            && self.machine.state_matches_within(&snap.machine, touched)
    }

    /// Executes one scheduling step; `Some` when the run ended.
    fn tick(&mut self, limits: &Limits, fence: Fence) -> Option<RunOutcome> {
        let done = self.tick_inner(limits, fence);
        // Close the trace tick *after* every kernel-side cost of this
        // step landed on the core clocks, so traced events carry the
        // same boundary values `run_until_core_cycle` pauses on.
        self.machine.trace_tick_end();
        done
    }

    fn tick_inner(&mut self, limits: &Limits, fence: Fence) -> Option<RunOutcome> {
        if self.sched_dirty {
            self.refresh_sched();
        }
        // Core election over the dense clock mirror — the same rule as
        // `Machine::next_core` (lowest clock wins, ties to the lowest
        // id) plus the conservative election cap of
        // `Machine::schedule_probe` (the raw second-lowest runnable
        // clock: at worst one cycle short of the exact boundary, which
        // only ends a burst a step early, never late).
        let mut wall = 0u64;
        let mut best: Option<(u64, usize)> = None;
        let mut elect_cap = u64::MAX;
        for (i, &cy) in self.sched_cycles.iter().enumerate() {
            wall = wall.max(cy);
            if !self.sched_live[i] {
                continue;
            }
            match best {
                Some((bc, _)) if cy >= bc => elect_cap = elect_cap.min(cy),
                _ => {
                    if let Some((bc, _)) = best {
                        elect_cap = elect_cap.min(bc);
                    }
                    best = Some((cy, i));
                }
            }
        }
        if wall >= limits.max_cycles {
            return Some(self.finish(RunOutcome::CycleLimit));
        }
        if self.steps >= limits.max_steps {
            return Some(self.finish(RunOutcome::StepLimit));
        }
        let Some((_, core)) = best else {
            let outcome = if self.live_threads() == 0 {
                RunOutcome::Exited {
                    code: self.aggregate_code(),
                }
            } else {
                RunOutcome::Deadlock
            };
            return Some(self.finish(outcome));
        };
        let tid = self.core_thread[core].expect("running core must host a thread");
        let pid = self.threads[tid as usize].pid;
        // Burst cap: the core may keep stepping, without the kernel
        // looking in between, until the first cycle count at which any
        // between-step kernel action could fire — losing the election,
        // exhausting its preemption quantum (which only matters while
        // the ready queue is non-empty, and the queue can only grow
        // via syscalls, which end the burst), tripping the cycle
        // watchdog, or crossing a pacing fence. Every skipped
        // kernel visit is provably a no-op, so an n-step burst is
        // state-identical to n single-step ticks.
        let mut cap = elect_cap.min(limits.max_cycles);
        if !self.ready.is_empty() {
            cap = cap.min(self.dispatched_at[core].saturating_add(self.spec.quantum));
        }
        match fence {
            Fence::Core(c, f) if c == core => cap = cap.min(f),
            Fence::Wall(f) => cap = cap.min(f),
            Fence::Core(..) | Fence::None => {}
        }
        let budget = limits.max_steps - self.steps;
        let (n, result) = self
            .machine
            .run_burst(core, &self.procs[pid as usize].perm, budget, cap);
        self.steps += n;
        // A burst only advances the stepped core's clock; fold that
        // back into the mirror. Anything beyond plain execution
        // (preemption, syscalls, traps) can move other clocks or halt
        // bits, so those paths mark the mirror dirty instead.
        self.sched_cycles[core] = self.machine.core(core).cycles();
        match result {
            StepResult::Executed => {
                if self.maybe_preempt(core, tid) {
                    self.sched_dirty = true;
                }
                None
            }
            StepResult::Svc(num) => {
                self.sched_dirty = true;
                self.syscall(core, tid, num)
            }
            StepResult::Trap(trap) => Some(self.finish(RunOutcome::Trapped { trap, pid })),
            StepResult::Halted => {
                let pc = self.machine.core(core).pc().wrapping_sub(4);
                Some(self.finish(RunOutcome::Trapped {
                    trap: Trap::Privileged { pc },
                    pid,
                }))
            }
        }
    }

    /// Rebuilds the scheduler's clock/halt mirror from the machine.
    fn refresh_sched(&mut self) {
        for i in 0..self.sched_cycles.len() {
            let c = self.machine.core(i);
            self.sched_cycles[i] = c.cycles();
            self.sched_live[i] = !c.is_halted();
        }
        self.sched_dirty = false;
    }

    fn finish(&mut self, outcome: RunOutcome) -> RunOutcome {
        self.finished = Some(outcome);
        outcome
    }

    fn live_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| !matches!(t.state, ThreadState::Exited { .. }))
            .count()
    }

    fn aggregate_code(&self) -> i32 {
        self.procs
            .iter()
            .filter_map(|p| p.exit_code)
            .find(|&c| c != 0)
            .unwrap_or(0)
    }

    // ----- scheduling ----------------------------------------------------

    fn dispatch(&mut self, core: usize, tid: Tid) {
        if self.machine.core(core).is_halted() {
            // Waking a parked core is a power-state transition (a
            // future-work statistic of the paper's 5).
            self.power_transitions += 1;
        }
        let thread = &mut self.threads[tid as usize];
        thread.state = ThreadState::Running { core };
        let c = self.machine.core_mut(core);
        c.restore_context(&thread.ctx);
        let now = c.cycles();
        if thread.ready_at > now {
            c.advance_idle(thread.ready_at - now);
        }
        c.advance_kernel(self.spec.dispatch_cost);
        c.set_halted(false);
        self.core_thread[core] = Some(tid);
        self.dispatched_at[core] = self.machine.core(core).cycles();
        self.machine.trace_dispatch(core, tid);
    }

    /// Pops the next dispatchable entry off the run queue, discarding
    /// entries that do not name a Ready thread. In a fault-free run
    /// every queued entry is a Ready thread and nothing is ever
    /// discarded; a run-queue strike ([`Kernel::flip_runq`]) can turn
    /// an entry into an out-of-range tid or a duplicate of a thread
    /// that is already running or blocked, and the scheduler's recovery
    /// is to drop the bogus entry rather than dispatch garbage — the
    /// lost wakeup then surfaces as a Hang or wrong-exit outcome.
    fn pop_ready(&mut self) -> Option<Tid> {
        while let Some(tid) = self.ready.pop_front() {
            if self
                .threads
                .get(tid as usize)
                .is_some_and(|t| t.state == ThreadState::Ready)
            {
                return Some(tid);
            }
        }
        None
    }

    /// Places ready threads on parked cores (lowest-clock cores first).
    fn fill_cores(&mut self) {
        loop {
            if self.ready.is_empty() {
                return;
            }
            let parked = (0..self.core_thread.len())
                .filter(|&c| self.core_thread[c].is_none())
                .min_by_key(|&c| (self.machine.core(c).cycles(), c));
            let Some(core) = parked else { return };
            let Some(tid) = self.pop_ready() else { return };
            self.dispatch(core, tid);
        }
    }

    fn make_ready(&mut self, tid: Tid, at: u64) {
        let thread = &mut self.threads[tid as usize];
        thread.state = ThreadState::Ready;
        thread.ready_at = at;
        self.ready.push_back(tid);
        self.fill_cores();
    }

    /// Saves the current thread and schedules something else on `core`.
    fn block_current(&mut self, core: usize, tid: Tid, reason: BlockReason) {
        let ctx = self.machine.core(core).save_context();
        self.machine.trace_save(core, tid);
        let thread = &mut self.threads[tid as usize];
        thread.ctx = ctx;
        thread.state = ThreadState::Blocked(reason);
        self.release_core(core);
    }

    /// Parks `core` or hands it to the next ready thread.
    fn release_core(&mut self, core: usize) {
        self.core_thread[core] = None;
        if let Some(next) = self.pop_ready() {
            self.dispatch(core, next);
        } else {
            self.power_transitions += 1;
            self.machine.core_mut(core).set_halted(true);
        }
    }

    /// Returns whether a preemption (context switch) happened.
    fn maybe_preempt(&mut self, core: usize, tid: Tid) -> bool {
        if self.ready.is_empty() {
            return false;
        }
        let now = self.machine.core(core).cycles();
        if now - self.dispatched_at[core] < self.spec.quantum {
            return false;
        }
        let ctx = self.machine.core(core).save_context();
        self.machine.trace_save(core, tid);
        let thread = &mut self.threads[tid as usize];
        thread.ctx = ctx;
        thread.state = ThreadState::Ready;
        thread.ready_at = now;
        self.ready.push_back(tid);
        // Cannot fail: the current thread was just queued as Ready, so
        // validation pops it at the latest.
        let next = self.pop_ready().expect("current thread is queued ready");
        self.core_thread[core] = None;
        self.dispatch(core, next);
        true
    }

    // ----- console --------------------------------------------------------

    fn append_console(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.console_hash ^= u64::from(b);
            self.console_hash = self.console_hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.console_len += bytes.len() as u64;
        let room = CONSOLE_CAP.saturating_sub(self.console.len());
        self.console
            .extend_from_slice(&bytes[..bytes.len().min(room)]);
    }

    // ----- syscalls -------------------------------------------------------

    fn arg(&self, core: usize, i: u8) -> u64 {
        self.machine.core(core).reg(Reg(i))
    }

    fn set_ret(&mut self, core: usize, v: u64) {
        self.machine.core_mut(core).set_reg(Reg(0), v);
    }

    #[allow(clippy::too_many_lines)]
    fn syscall(&mut self, core: usize, tid: Tid, num: u16) -> Option<RunOutcome> {
        let pid = self.threads[tid as usize].pid;
        // Kernel entry is a fence: the calling core's store buffer
        // drains before the kernel reads any user memory, so a struck
        // in-flight store is visible to (or corrupts) the syscall.
        self.machine.drain_store_buffer(core);
        self.machine
            .core_mut(core)
            .advance_kernel(self.spec.syscall_cost);
        match num {
            abi::SYS_EXIT => {
                let code = self.arg(core, 0) as u32 as i32;
                self.kill_process(pid, code);
                if self.procs.iter().all(|p| !p.is_alive()) {
                    return Some(self.finish(RunOutcome::Exited {
                        code: self.aggregate_code(),
                    }));
                }
            }
            abi::SYS_WRITE => {
                let (ptr, len) = (self.arg(core, 0) as u32, self.arg(core, 1) as u32);
                match self.copy_from_user(pid, ptr, len) {
                    Ok(bytes) => {
                        self.machine
                            .core_mut(core)
                            .advance_kernel(u64::from(len) / 8);
                        self.append_console(&bytes);
                        self.set_ret(core, u64::from(len));
                    }
                    Err(trap) => return Some(self.finish(RunOutcome::Trapped { trap, pid })),
                }
            }
            abi::SYS_SBRK => {
                let n = self.arg(core, 0) as u32;
                let proc = &mut self.procs[pid as usize];
                let old = proc.brk;
                match old.checked_add(n) {
                    Some(new) if new <= proc.heap_limit => {
                        proc.perm.map_range(old, n, Perms::RW);
                        proc.brk = new;
                        self.set_ret(core, u64::from(old));
                    }
                    _ => self.set_ret(core, u64::from(u32::MAX)),
                }
            }
            abi::SYS_SPAWN => {
                let (entry, arg) = (self.arg(core, 0) as u32, self.arg(core, 1));
                let ret = self.spawn_thread(pid, entry, arg, self.machine.core(core).cycles());
                self.set_ret(core, ret);
            }
            abi::SYS_THREAD_EXIT => {
                let ret = self.arg(core, 0);
                self.thread_exit(tid, ret as i64);
                self.release_core(core);
            }
            abi::SYS_JOIN => {
                let target = self.arg(core, 0) as u32;
                match self.threads.get(target as usize).map(|t| t.state) {
                    None => self.set_ret(core, u64::from(u32::MAX)),
                    Some(ThreadState::Exited { ret }) => self.set_ret(core, ret as u64),
                    Some(_) => self.block_current(core, tid, BlockReason::Join { target }),
                }
            }
            abi::SYS_RANK => self.set_ret(core, u64::from(pid)),
            abi::SYS_SIZE => self.set_ret(core, u64::from(self.spec.processes)),
            abi::SYS_SEND => {
                let dest = self.arg(core, 0) as u32;
                let tag = self.arg(core, 1) as u32;
                let ptr = self.arg(core, 2) as u32;
                let len = self.arg(core, 3) as u32;
                if len > abi::MAX_MSG_LEN {
                    let trap = Trap::Mem(MemError::Protection {
                        addr: ptr,
                        kind: fracas_mem::AccessKind::Read,
                    });
                    return Some(self.finish(RunOutcome::Trapped { trap, pid }));
                }
                if dest as usize >= self.procs.len() || !self.procs[dest as usize].is_alive() {
                    self.set_ret(core, u64::from(u32::MAX));
                } else {
                    let payload = match self.copy_from_user(pid, ptr, len) {
                        Ok(p) => p,
                        Err(trap) => return Some(self.finish(RunOutcome::Trapped { trap, pid })),
                    };
                    self.machine
                        .core_mut(core)
                        .advance_kernel(u64::from(len) / 8);
                    let now = self.machine.core(core).cycles();
                    if let Some(out) = self.deliver_or_queue(
                        dest,
                        Message {
                            src: pid,
                            tag,
                            payload,
                        },
                        now,
                    ) {
                        return Some(out);
                    }
                    self.set_ret(core, u64::from(len));
                }
            }
            abi::SYS_RECV => {
                let src = self.arg(core, 0) as u32;
                let tag = self.arg(core, 1) as u32;
                let ptr = self.arg(core, 2) as u32;
                let maxlen = self.arg(core, 3) as u32;
                let slot = self.msgs[pid as usize]
                    .iter()
                    .position(|m| (src == abi::ANY_SOURCE || m.src == src) && m.tag == tag);
                match slot {
                    Some(i) => {
                        let msg = self.msgs[pid as usize].remove(i);
                        let n = msg.payload.len().min(maxlen as usize);
                        if let Err(trap) = self.copy_to_user(pid, ptr, &msg.payload[..n]) {
                            return Some(self.finish(RunOutcome::Trapped { trap, pid }));
                        }
                        self.machine.core_mut(core).advance_kernel(n as u64 / 8);
                        self.set_ret(core, n as u64);
                    }
                    None => {
                        self.threads[tid as usize].pending_recv = Some(PendingRecv {
                            src,
                            tag,
                            ptr,
                            maxlen,
                        });
                        self.block_current(core, tid, BlockReason::Recv);
                    }
                }
            }
            abi::SYS_BARRIER => {
                let id = self.arg(core, 0) as u32;
                let count = self.arg(core, 1) as u32;
                let now = self.machine.core(core).cycles();
                let waiting = self.barriers.entry(id).or_default();
                waiting.push(tid);
                if waiting.len() as u32 >= count.max(1) {
                    let woken = self.barriers.remove(&id).expect("just inserted");
                    self.set_ret(core, 0);
                    for w in woken {
                        if w != tid {
                            self.threads[w as usize].ctx.regs[0] = 0;
                            self.machine.trace_ctx_write(w);
                            self.make_ready(w, now);
                        }
                    }
                } else {
                    self.block_current(core, tid, BlockReason::Barrier { id });
                }
            }
            abi::SYS_LOCK => {
                let addr = self.arg(core, 0) as u32;
                let lock = self.locks.entry(addr).or_default();
                if lock.held_by.is_none() {
                    lock.held_by = Some(tid);
                    self.set_ret(core, 0);
                } else {
                    lock.waiters.push_back(tid);
                    self.block_current(core, tid, BlockReason::Lock { addr });
                }
            }
            abi::SYS_UNLOCK => {
                let addr = self.arg(core, 0) as u32;
                let now = self.machine.core(core).cycles();
                match self.locks.get_mut(&addr) {
                    Some(lock) if lock.held_by == Some(tid) => {
                        if let Some(next) = lock.waiters.pop_front() {
                            lock.held_by = Some(next);
                            self.threads[next as usize].ctx.regs[0] = 0;
                            self.machine.trace_ctx_write(next);
                            self.make_ready(next, now);
                        } else {
                            lock.held_by = None;
                        }
                        self.set_ret(core, 0);
                    }
                    _ => self.set_ret(core, u64::from(u32::MAX)),
                }
            }
            abi::SYS_TIME => {
                let t = self.machine.core(core).cycles();
                self.set_ret(core, t);
            }
            abi::SYS_YIELD => {
                if !self.ready.is_empty() {
                    let now = self.machine.core(core).cycles();
                    let ctx = self.machine.core(core).save_context();
                    self.machine.trace_save(core, tid);
                    let thread = &mut self.threads[tid as usize];
                    thread.ctx = ctx;
                    thread.state = ThreadState::Ready;
                    thread.ready_at = now;
                    self.ready.push_back(tid);
                    // Cannot fail: the yielding thread was just queued
                    // as Ready, so validation pops it at the latest.
                    let next = self.pop_ready().expect("current thread is queued ready");
                    self.core_thread[core] = None;
                    self.dispatch(core, next);
                }
            }
            abi::SYS_WRITE_INT => {
                let raw = self.arg(core, 0);
                let v = if self.machine.isa() == fracas_isa::IsaKind::Sira32 {
                    i64::from(raw as u32 as i32)
                } else {
                    raw as i64
                };
                let s = v.to_string();
                self.append_console(s.as_bytes());
                self.machine.core_mut(core).advance_kernel(s.len() as u64);
            }
            abi::SYS_WRITE_FLT => {
                let bits = if self.machine.isa() == fracas_isa::IsaKind::Sira32 {
                    (self.arg(core, 0) & 0xffff_ffff) | (self.arg(core, 1) << 32)
                } else {
                    self.arg(core, 0)
                };
                let s = format!("{:.6e}", f64::from_bits(bits));
                self.append_console(s.as_bytes());
                self.machine.core_mut(core).advance_kernel(s.len() as u64);
            }
            abi::SYS_WRITE_CH => {
                let b = self.arg(core, 0) as u8;
                self.append_console(&[b]);
            }
            abi::SYS_NTHREADS => self.set_ret(core, u64::from(self.spec.omp_threads)),
            abi::SYS_GETTID => self.set_ret(core, u64::from(tid)),
            _ => {
                let pc = self.machine.core(core).pc().wrapping_sub(4);
                return Some(self.finish(RunOutcome::Trapped {
                    trap: Trap::IllegalInst { pc },
                    pid,
                }));
            }
        }
        None
    }

    fn spawn_thread(&mut self, pid: Pid, entry: u32, arg: u64, now: u64) -> u64 {
        let stack = self.procs[pid as usize].free_stacks.pop().or_else(|| {
            let s = self.alloc.alloc_stack()?;
            self.procs[pid as usize]
                .perm
                .map_range(s.0, s.1 - s.0, Perms::RW);
            Some(s)
        });
        let Some(stack) = stack else {
            return u64::MAX;
        };
        let isa = self.machine.isa();
        let mut ctx = CoreContext::at_entry(entry);
        ctx.regs[isa.gb().index()] = u64::from(self.procs[pid as usize].data_base);
        ctx.regs[isa.sp().index()] = u64::from(stack.1);
        ctx.regs[0] = arg;
        let tid = self.threads.len() as Tid;
        self.threads.push(Thread {
            pid,
            state: ThreadState::Ready,
            ctx,
            stack,
            ready_at: now,
            pending_recv: None,
        });
        self.ready.push_back(tid);
        self.fill_cores();
        u64::from(tid)
    }

    fn thread_exit(&mut self, tid: Tid, ret: i64) {
        let stack = self.threads[tid as usize].stack;
        let pid = self.threads[tid as usize].pid;
        self.threads[tid as usize].state = ThreadState::Exited { ret };
        self.procs[pid as usize].free_stacks.push(stack);
        self.wake_joiners(tid, ret);
    }

    fn wake_joiners(&mut self, target: Tid, ret: i64) {
        let now = self.machine.max_cycles();
        let joiners: Vec<Tid> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(t.state, ThreadState::Blocked(BlockReason::Join { target: j }) if j == target)
            })
            .map(|(i, _)| i as Tid)
            .collect();
        for j in joiners {
            self.threads[j as usize].ctx.regs[0] = ret as u64;
            self.machine.trace_ctx_write(j);
            self.make_ready(j, now);
        }
    }

    fn kill_process(&mut self, pid: Pid, code: i32) {
        self.procs[pid as usize].exit_code = Some(code);
        let victims: Vec<Tid> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.pid == pid && !matches!(t.state, ThreadState::Exited { .. }))
            .map(|(i, _)| i as Tid)
            .collect();
        for tid in victims {
            match self.threads[tid as usize].state {
                ThreadState::Running { core } => {
                    self.core_thread[core] = None;
                    self.machine.core_mut(core).set_halted(true);
                }
                ThreadState::Ready => {
                    self.ready.retain(|&t| t != tid);
                }
                ThreadState::Blocked(reason) => self.cancel_block(tid, reason),
                ThreadState::Exited { .. } => {}
            }
            self.threads[tid as usize].state = ThreadState::Exited {
                ret: i64::from(code),
            };
            self.wake_joiners(tid, i64::from(code));
        }
        self.fill_cores();
    }

    fn cancel_block(&mut self, tid: Tid, reason: BlockReason) {
        match reason {
            BlockReason::Recv | BlockReason::Join { .. } => {}
            BlockReason::Barrier { id } => {
                if let Some(w) = self.barriers.get_mut(&id) {
                    w.retain(|&t| t != tid);
                }
            }
            BlockReason::Lock { addr } => {
                let now = self.machine.max_cycles();
                let mut wake: Option<Tid> = None;
                if let Some(lock) = self.locks.get_mut(&addr) {
                    lock.waiters.retain(|&t| t != tid);
                    if lock.held_by == Some(tid) {
                        lock.held_by = lock.waiters.pop_front();
                        wake = lock.held_by;
                    }
                }
                if let Some(next) = wake {
                    self.threads[next as usize].ctx.regs[0] = 0;
                    self.machine.trace_ctx_write(next);
                    self.make_ready(next, now);
                }
            }
        }
        self.threads[tid as usize].pending_recv = None;
    }

    /// Delivers a message to a blocked matching receiver or queues it.
    /// Returns `Some(outcome)` if delivery faulted the receiver.
    fn deliver_or_queue(&mut self, dest: Pid, msg: Message, now: u64) -> Option<RunOutcome> {
        let receiver = self.threads.iter().enumerate().find_map(|(i, t)| {
            if t.pid != dest || !matches!(t.state, ThreadState::Blocked(BlockReason::Recv)) {
                return None;
            }
            let p = t.pending_recv?;
            let src_ok = p.src == abi::ANY_SOURCE || p.src == msg.src;
            (src_ok && p.tag == msg.tag).then_some((i as Tid, p))
        });
        match receiver {
            Some((rtid, pending)) => {
                let n = msg.payload.len().min(pending.maxlen as usize);
                if let Err(trap) = self.copy_to_user(dest, pending.ptr, &msg.payload[..n]) {
                    return Some(self.finish(RunOutcome::Trapped { trap, pid: dest }));
                }
                self.threads[rtid as usize].pending_recv = None;
                self.threads[rtid as usize].ctx.regs[0] = n as u64;
                self.machine.trace_ctx_write(rtid);
                self.make_ready(rtid, now);
                None
            }
            None => {
                self.msgs[dest as usize].push(msg);
                None
            }
        }
    }

    fn copy_from_user(&self, pid: Pid, ptr: u32, len: u32) -> Result<Vec<u8>, Trap> {
        self.procs[pid as usize]
            .perm
            .check(ptr, len, fracas_mem::AccessKind::Read)?;
        Ok(self.machine.mem.read_bytes(ptr, len)?.to_vec())
    }

    fn copy_to_user(&mut self, pid: Pid, ptr: u32, bytes: &[u8]) -> Result<(), Trap> {
        self.procs[pid as usize].perm.check(
            ptr,
            bytes.len() as u32,
            fracas_mem::AccessKind::Write,
        )?;
        self.machine.mem.write_bytes(ptr, bytes)?;
        Ok(())
    }

    // ----- reporting -------------------------------------------------------

    /// Builds the end-of-run report (§3.2.3's comparison set).
    ///
    /// # Panics
    ///
    /// Panics if called before the run finished.
    pub fn report(&self) -> RunReport {
        let outcome = self.finished.expect("report requires a finished run");
        let mut mem_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for proc in &self.procs {
            let len = proc.brk - proc.data_base;
            let h = self
                .machine
                .mem
                .hash_range(proc.data_base, len)
                .unwrap_or(0);
            for b in h.to_le_bytes() {
                mem_hash ^= u64::from(b);
                mem_hash = mem_hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut ctx_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..self.machine.core_count() {
            let h = self.machine.core(i).context_hash();
            for b in h.to_le_bytes() {
                ctx_hash ^= u64::from(b);
                ctx_hash = ctx_hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        RunReport {
            outcome,
            console: self.console.clone(),
            console_len: self.console_len,
            console_hash: self.console_hash,
            mem_hash,
            ctx_hash,
            cycles: self.machine.max_cycles(),
            power_transitions: self.power_transitions,
            per_core_instructions: (0..self.machine.core_count())
                .map(|i| self.machine.core(i).stats().instructions)
                .collect(),
            core_stats: (0..self.machine.core_count())
                .map(|i| *self.machine.core(i).stats())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_isa::{link, Asm, Cond, IsaKind};

    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);
    const R2: Reg = Reg(2);
    const R3: Reg = Reg(3);

    fn boot(isa: IsaKind, cores: usize, spec: BootSpec, build: impl FnOnce(&mut Asm)) -> Kernel {
        let mut asm = Asm::new(isa);
        asm.global_fn("_start");
        build(&mut asm);
        let image = link(isa, &[asm.into_object()]).expect("link");
        Kernel::boot(&image, cores, spec)
    }

    fn exit0(asm: &mut Asm) {
        asm.movz(R0, 0, 0);
        asm.svc(abi::SYS_EXIT);
    }

    #[test]
    fn exit_code_propagates() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            a.movz(R0, 7, 0);
            a.svc(abi::SYS_EXIT);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 7 });
        assert!(k.report().outcome.is_abnormal());
    }

    #[test]
    fn write_reaches_console() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            a.lea_data(R0, "msg");
            a.movz(R1, 5, 0);
            a.svc(abi::SYS_WRITE);
            exit0(a);
            a.data_bytes("msg", b"hello");
        });
        assert!(k.run(&Limits::default()).is_clean_exit());
        assert_eq!(k.console(), b"hello");
    }

    #[test]
    fn write_int_and_float_format() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            a.load_imm(R0, (-42i64) as u64);
            a.svc(abi::SYS_WRITE_INT);
            a.movz(R0, b' ' as u16, 0);
            a.svc(abi::SYS_WRITE_CH);
            a.load_imm(R0, 1.5f64.to_bits());
            a.svc(abi::SYS_WRITE_FLT);
            exit0(a);
        });
        assert!(k.run(&Limits::default()).is_clean_exit());
        let out = String::from_utf8(k.console().to_vec()).unwrap();
        assert!(out.starts_with("-42 1.5"), "console: {out}");
    }

    #[test]
    fn sbrk_grows_heap() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            a.load_imm(R0, 4096);
            a.svc(abi::SYS_SBRK); // r0 = heap base
            a.movz(R1, 99, 0);
            a.st(R1, R0, 0); // store into fresh heap page
            a.ld(R2, R0, 0);
            a.mov(R0, R2);
            a.svc(abi::SYS_EXIT); // exit code 99 proves the roundtrip
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 99 });
    }

    #[test]
    fn segfault_is_trapped() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            a.movz(R1, 0, 0);
            a.ld(R0, R1, 0); // load from unmapped page 0
            exit0(a);
        });
        let outcome = k.run(&Limits::default());
        assert!(
            matches!(outcome, RunOutcome::Trapped { pid: 0, .. }),
            "{outcome}"
        );
        assert!(outcome.is_abnormal());
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            let top = a.here();
            a.b(top);
        });
        let outcome = k.run(&Limits {
            max_cycles: 50_000,
            max_steps: u64::MAX,
        });
        assert_eq!(outcome, RunOutcome::CycleLimit);
        assert!(outcome.is_hang());
    }

    #[test]
    fn runq_flip_is_an_involution() {
        let spec = BootSpec {
            processes: 3,
            ..BootSpec::serial()
        };
        // 3 processes on 1 core: threads 1 and 2 sit in the run queue.
        let mut k = boot(IsaKind::Sira64, 1, spec, exit0);
        assert_eq!(k.ready.len(), 2);
        let before = k.ready.clone();
        k.flip_runq(0, 35); // bit 35 wraps onto bit 3
        assert_eq!(k.ready[0], before[0] ^ 8);
        k.flip_runq(0, 3);
        assert_eq!(k.ready, before);
        // Slots past the queue's occupancy are ignored.
        k.flip_runq(99, 0);
        assert_eq!(k.ready, before);
    }

    #[test]
    fn corrupted_runq_entry_surfaces_as_hang() {
        let spec = BootSpec {
            processes: 3,
            ..BootSpec::serial()
        };
        let mut k = boot(IsaKind::Sira64, 1, spec, exit0);
        // Entry 0 (tid 1) becomes an out-of-range tid; the validated
        // pop discards it, so thread 1's wakeup is lost for good.
        k.flip_runq(0, 20);
        let outcome = k.run(&Limits::default());
        assert!(outcome.is_hang(), "{outcome}");
    }

    #[test]
    fn page_perm_flip_segfaults_the_process() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), exit0);
        let page = k.machine().core(0).pc() / fracas_mem::PAGE_SIZE;
        // Drop execute on the text page: the next fetch traps.
        k.flip_page_perm(0, page, 2);
        let outcome = k.run(&Limits::default());
        assert!(matches!(outcome, RunOutcome::Trapped { .. }), "{outcome}");

        // Involution: a second flip (bit 5 wraps onto execute) restores
        // the page and the run exits cleanly.
        let mut k2 = boot(IsaKind::Sira64, 1, BootSpec::serial(), exit0);
        k2.flip_page_perm(0, page, 2);
        k2.flip_page_perm(0, page, 5);
        assert!(k2.run(&Limits::default()).is_clean_exit());
        // Out-of-range pids are ignored.
        k2.flip_page_perm(99, page, 0);
    }

    #[test]
    fn spawn_join_roundtrip() {
        let mut k = boot(IsaKind::Sira64, 2, BootSpec::serial(), |a| {
            a.lea_text(R0, "worker");
            a.movz(R1, 5, 0);
            a.svc(abi::SYS_SPAWN); // r0 = tid
            a.svc(abi::SYS_JOIN); // r0 = worker return = arg * 3
            a.svc(abi::SYS_EXIT);
            a.global_fn("worker");
            a.movz(R1, 3, 0);
            a.mul(R0, R0, R1);
            a.svc(abi::SYS_THREAD_EXIT);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 15 });
    }

    #[test]
    fn two_threads_share_one_core_via_preemption() {
        let spec = BootSpec {
            quantum: 500,
            ..BootSpec::serial()
        };
        let mut k = boot(IsaKind::Sira64, 1, spec, |a| {
            a.lea_text(R0, "worker");
            a.movz(R1, 0, 0);
            a.svc(abi::SYS_SPAWN);
            a.svc(abi::SYS_JOIN);
            a.svc(abi::SYS_EXIT); // exit code = worker result
            a.global_fn("worker");
            // Busy loop long enough to need preemption, then return 21.
            a.load_imm(R1, 2_000);
            let done = a.new_label();
            let top = a.here();
            a.cmpi(R1, 0);
            a.bc(Cond::Eq, done);
            a.subi(R1, R1, 1);
            a.b(top);
            a.bind(done);
            a.movz(R0, 21, 0);
            a.svc(abi::SYS_THREAD_EXIT);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 21 });
    }

    #[test]
    fn kernel_lock_serialises_critical_section() {
        // Two workers each add 1000 to a shared counter under the kernel
        // lock, using load/add/store (racy without the lock's mutual
        // exclusion across preemption points).
        let spec = BootSpec {
            quantum: 100,
            ..BootSpec::serial()
        };
        let mut k = boot(IsaKind::Sira64, 2, spec, |a| {
            a.lea_text(R0, "adder");
            a.movz(R1, 0, 0);
            a.svc(abi::SYS_SPAWN);
            a.mov(Reg(16), R0);
            a.lea_text(R0, "adder");
            a.svc(abi::SYS_SPAWN);
            a.mov(Reg(17), R0);
            a.mov(R0, Reg(16));
            a.svc(abi::SYS_JOIN);
            a.mov(R0, Reg(17));
            a.svc(abi::SYS_JOIN);
            a.lea_data(R1, "counter");
            a.ld(R0, R1, 0);
            a.svc(abi::SYS_EXIT); // exit code = counter
            a.global_fn("adder");
            a.load_imm(Reg(16), 1000);
            let done = a.new_label();
            let top = a.here();
            a.cmpi(Reg(16), 0);
            a.bc(Cond::Eq, done);
            a.lea_data(R0, "counter");
            a.svc(abi::SYS_LOCK);
            a.lea_data(R1, "counter");
            a.ld(R2, R1, 0);
            a.addi(R2, R2, 1);
            a.st(R2, R1, 0);
            a.lea_data(R0, "counter");
            a.svc(abi::SYS_UNLOCK);
            a.subi(Reg(16), Reg(16), 1);
            a.b(top);
            a.bind(done);
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_THREAD_EXIT);
            a.data_zero("counter", 8);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 2000 });
    }

    #[test]
    fn mpi_ranks_have_private_globals_and_message_passing() {
        // Rank 0 sends its (privately incremented) global to rank 1;
        // rank 1 checks its own global is untouched and exits with the sum.
        let mut k = boot(IsaKind::Sira64, 2, BootSpec::mpi(2), |a| {
            a.svc(abi::SYS_RANK);
            a.mov(Reg(16), R0);
            a.lea_data(R1, "g");
            a.movz(R2, 10, 0);
            a.cmpi(Reg(16), 0);
            let rank1 = a.new_label();
            a.bc(Cond::Ne, rank1);
            // rank 0: g = 10; send g to rank 1; exit 0.
            a.st(R2, R1, 0);
            a.movz(R0, 1, 0); // dest
            a.movz(R1, 77, 0); // tag
            a.lea_data(R2, "g");
            a.movz(R3, 8, 0); // len
            a.svc(abi::SYS_SEND);
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_EXIT);
            a.bind(rank1);
            // rank 1: recv into buf; exit code = buf + g (g still 0).
            a.movz(R0, 0, 0); // src
            a.movz(R1, 77, 0); // tag
            a.lea_data(R2, "buf");
            a.movz(R3, 8, 0);
            a.svc(abi::SYS_RECV);
            a.lea_data(R1, "buf");
            a.ld(R2, R1, 0);
            a.lea_data(R1, "g");
            a.ld(R3, R1, 0);
            a.add(R0, R2, R3);
            a.svc(abi::SYS_EXIT);
            a.data_zero("g", 8);
            a.data_zero("buf", 8);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 10 });
    }

    #[test]
    fn unmatched_recv_deadlocks() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            a.movz(R0, 0, 0);
            a.movz(R1, 9, 0);
            a.lea_data(R2, "buf");
            a.movz(R3, 8, 0);
            a.svc(abi::SYS_RECV); // nobody will ever send
            exit0(a);
            a.data_zero("buf", 8);
        });
        let outcome = k.run(&Limits::default());
        assert_eq!(outcome, RunOutcome::Deadlock);
        assert!(outcome.is_hang());
    }

    #[test]
    fn barrier_releases_all_parties() {
        let mut k = boot(IsaKind::Sira64, 2, BootSpec::mpi(2), |a| {
            a.movz(R0, 3, 0); // barrier id
            a.movz(R1, 2, 0); // count
            a.svc(abi::SYS_BARRIER);
            exit0(a);
        });
        assert!(k.run(&Limits::default()).is_clean_exit());
    }

    #[test]
    fn reports_are_deterministic() {
        let build = |a: &mut Asm| {
            a.lea_data(R1, "x");
            a.movz(R2, 42, 0);
            a.st(R2, R1, 0);
            a.movz(R0, b'k' as u16, 0);
            a.svc(abi::SYS_WRITE_CH);
            exit0(a);
            a.data_zero("x", 8);
        };
        let mut k1 = boot(IsaKind::Sira64, 2, BootSpec::serial(), build);
        let mut k2 = boot(IsaKind::Sira64, 2, BootSpec::serial(), build);
        k1.run(&Limits::default());
        k2.run(&Limits::default());
        assert_eq!(k1.report(), k2.report());
    }

    #[test]
    fn report_distinguishes_memory_difference() {
        let build = |val: u16| {
            move |a: &mut Asm| {
                a.lea_data(R1, "x");
                a.movz(R2, val, 0);
                a.st(R2, R1, 0);
                exit0(a);
                a.data_zero("x", 8);
            }
        };
        let mut k1 = boot(IsaKind::Sira64, 1, BootSpec::serial(), build(1));
        let mut k2 = boot(IsaKind::Sira64, 1, BootSpec::serial(), build(2));
        k1.run(&Limits::default());
        k2.run(&Limits::default());
        assert_ne!(k1.report().mem_hash, k2.report().mem_hash);
    }

    #[test]
    fn run_until_core_cycle_pauses_midway() {
        let mut k = boot(IsaKind::Sira64, 1, BootSpec::serial(), |a| {
            a.load_imm(R1, 10_000);
            let done = a.new_label();
            let top = a.here();
            a.cmpi(R1, 0);
            a.bc(Cond::Eq, done);
            a.subi(R1, R1, 1);
            a.b(top);
            a.bind(done);
            exit0(a);
        });
        let paused = k.run_until_core_cycle(0, 5_000, &Limits::default());
        assert_eq!(paused, None, "should pause mid-run");
        assert!(k.machine().core(0).cycles() >= 5_000);
        let outcome = k.run(&Limits::default());
        assert!(outcome.is_clean_exit());
    }

    #[test]
    fn idle_cycles_accrue_when_cores_outnumber_threads() {
        let mut k = boot(IsaKind::Sira64, 2, BootSpec::serial(), |a| {
            a.load_imm(R1, 500);
            let done = a.new_label();
            let top = a.here();
            a.cmpi(R1, 0);
            a.bc(Cond::Eq, done);
            a.subi(R1, R1, 1);
            a.b(top);
            a.bind(done);
            exit0(a);
        });
        assert!(k.run(&Limits::default()).is_clean_exit());
        // Core 1 never had a thread; it stayed parked with zero cycles,
        // while core 0 did all the work.
        let report = k.report();
        assert!(report.per_core_instructions[0] > 0);
        assert_eq!(report.per_core_instructions[1], 0);
    }

    #[test]
    fn sira32_kernel_roundtrip() {
        let mut k = boot(IsaKind::Sira32, 1, BootSpec::serial(), |a| {
            a.lea_data(R1, "x");
            a.movz(R2, 3, 0);
            a.st(R2, R1, 0);
            a.ld(R0, R1, 0);
            a.svc(abi::SYS_EXIT);
            a.data_zero("x", 8);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 3 });
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use fracas_isa::{link, Asm, Cond, IsaKind};

    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);
    const R2: Reg = Reg(2);
    const R3: Reg = Reg(3);

    fn boot(cores: usize, spec: BootSpec, build: impl FnOnce(&mut Asm)) -> Kernel {
        let mut asm = Asm::new(IsaKind::Sira64);
        asm.global_fn("_start");
        build(&mut asm);
        let image = link(IsaKind::Sira64, &[asm.into_object()]).expect("link");
        Kernel::boot(&image, cores, spec)
    }

    #[test]
    fn sbrk_exhaustion_returns_sentinel() {
        let mut k = boot(1, BootSpec::serial(), |a| {
            // Ask for more heap than the per-process limit in one go.
            a.load_imm(R0, 64 << 20);
            a.svc(abi::SYS_SBRK);
            // r0 == u32::MAX on failure -> add 1 -> 0 (32-bit wrap check
            // done in 64-bit space: compare against 0xffff_ffff directly).
            a.load_imm(R1, u64::from(u32::MAX));
            a.cmp(R0, R1);
            let ok = a.new_label();
            a.bc(Cond::Eq, ok);
            a.movz(R0, 1, 0);
            a.svc(abi::SYS_EXIT);
            a.bind(ok);
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_EXIT);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 0 });
    }

    #[test]
    fn barrier_ids_are_reusable() {
        // Two sequential barriers under the same id must both release.
        let mut k = boot(2, BootSpec::mpi(2), |a| {
            for _ in 0..2 {
                a.movz(R0, 9, 0);
                a.movz(R1, 2, 0);
                a.svc(abi::SYS_BARRIER);
            }
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_EXIT);
        });
        assert!(k.run(&Limits::default()).is_clean_exit());
    }

    #[test]
    fn messages_deliver_in_fifo_order() {
        let mut k = boot(2, BootSpec::mpi(2), |a| {
            a.svc(abi::SYS_RANK);
            a.cmpi(R0, 0);
            let recv = a.new_label();
            a.bc(Cond::Ne, recv);
            // Rank 0 sends 11 then 22 under the same tag.
            for v in [11u16, 22] {
                a.lea_data(R2, "buf");
                a.movz(R3, v, 0);
                a.st(R3, R2, 0);
                a.movz(R0, 1, 0);
                a.movz(R1, 5, 0);
                a.movz(R3, 8, 0);
                a.svc(abi::SYS_SEND);
            }
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_EXIT);
            a.bind(recv);
            // Rank 1 receives twice; order must be 11 then 22.
            a.movz(R0, 0, 0);
            a.movz(R1, 5, 0);
            a.lea_data(R2, "buf");
            a.movz(R3, 8, 0);
            a.svc(abi::SYS_RECV);
            a.lea_data(R2, "buf");
            a.ld(Reg(16), R2, 0);
            a.movz(R0, 0, 0);
            a.movz(R1, 5, 0);
            a.lea_data(R2, "buf");
            a.movz(R3, 8, 0);
            a.svc(abi::SYS_RECV);
            a.lea_data(R2, "buf");
            a.ld(Reg(17), R2, 0);
            // exit code = first*100 + second = 1122.
            a.movz(R1, 100, 0);
            a.mul(R0, Reg(16), R1);
            a.add(R0, R0, Reg(17));
            a.svc(abi::SYS_EXIT);
            a.data_zero("buf", 8);
        });
        assert_eq!(k.run(&Limits::default()), RunOutcome::Exited { code: 1122 });
    }

    #[test]
    fn unlock_of_foreign_lock_is_rejected() {
        let mut k = boot(1, BootSpec::serial(), |a| {
            // Unlock an address never locked -> r0 = MAX.
            a.movz(R0, 77, 0);
            a.svc(abi::SYS_UNLOCK);
            a.load_imm(R1, u64::from(u32::MAX));
            a.cmp(R0, R1);
            let ok = a.new_label();
            a.bc(Cond::Eq, ok);
            a.movz(R0, 1, 0);
            a.svc(abi::SYS_EXIT);
            a.bind(ok);
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_EXIT);
        });
        assert!(k.run(&Limits::default()).is_clean_exit());
    }

    #[test]
    fn power_transitions_are_counted() {
        // A spawn/join forces at least one park/unpark pair beyond boot.
        let mut k = boot(2, BootSpec::serial(), |a| {
            a.lea_text(R0, "w");
            a.movz(R1, 0, 0);
            a.svc(abi::SYS_SPAWN);
            a.svc(abi::SYS_JOIN);
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_EXIT);
            a.global_fn("w");
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_THREAD_EXIT);
        });
        assert!(k.run(&Limits::default()).is_clean_exit());
        let report = k.report();
        assert!(
            report.power_transitions >= 2,
            "{}",
            report.power_transitions
        );
    }

    #[test]
    fn unknown_syscall_is_fatal() {
        let mut k = boot(1, BootSpec::serial(), |a| {
            a.svc(999);
        });
        let outcome = k.run(&Limits::default());
        assert!(matches!(outcome, RunOutcome::Trapped { .. }), "{outcome}");
    }

    #[test]
    fn oversized_write_faults_like_a_segfault() {
        let mut k = boot(1, BootSpec::serial(), |a| {
            a.lea_data(R0, "buf");
            a.load_imm(R1, 1 << 24); // way past the mapped data segment
            a.svc(abi::SYS_WRITE);
            a.movz(R0, 0, 0);
            a.svc(abi::SYS_EXIT);
            a.data_zero("buf", 8);
        });
        let outcome = k.run(&Limits::default());
        assert!(matches!(outcome, RunOutcome::Trapped { .. }), "{outcome}");
    }
}
