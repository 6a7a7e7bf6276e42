//! Golden-run execution tracing: the committed-PC / scheduling event
//! stream consumed by `fracas-analyze`.
//!
//! Tracing is an *observer* in exactly the sense profiling is
//! ([`Machine::enable_profiling`](crate::Machine::enable_profiling)): it
//! records what execution did without influencing a single cycle, it is
//! excluded from snapshots, and a machine restored from a snapshot
//! replays the identical schedule with tracing off. That property is
//! what lets a campaign trace the golden run once and keep every
//! checkpoint bit-identical to an untraced campaign.
//!
//! The stream records four kinds of events:
//!
//! * a **commit** — one instruction retired (including conditionally
//!   *skipped* instructions, which retire reading only their condition
//!   flags), stamped with its PC;
//! * a **dispatch** — the kernel overwrote a core's entire register
//!   file, flags and PC with a thread's saved context;
//! * a **save** — the kernel copied a core's context into a thread's
//!   saved context;
//! * a **context write** — the kernel stored a syscall completion value
//!   into a *blocked* thread's saved `r0`.
//!
//! Text never changes under a traced run: the only writer of
//! instruction words,
//! [`Machine::patch_text_word`](crate::Machine::patch_text_word),
//! panics while tracing is on, so the text a trace was recorded against
//! is the image's text, word for word.
//!
//! A trace **tick** is one step plus the kernel's handling of it. Every
//! event carries its tick index and the acting core's local cycle clock
//! at the *end* of that tick. End-of-tick stamping matters: syscall cost
//! is added to a core's clock after the `Svc` commit of the same tick,
//! and the injector's pause predicate (`run_until_core_cycle`) observes
//! clocks only at tick boundaries. Stamping events with the boundary
//! value makes "first event on core `k` with `cycle >= c`" coincide
//! exactly with where a replayed run pauses to inject a fault at `(k, c)`.
//! A traced step closes the open tick with the clocks it starts on, and
//! [`Machine::take_trace`](crate::Machine::take_trace) closes the last
//! one. Those are the end-of-tick clocks, whatever the burst length:
//! nothing moves a clock between the kernel's handling of a step and the
//! next step, and the kernel visits a burst skips are no-ops.

use crate::Core;

/// What one traced event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// One instruction retired at `pc`. `skipped` marks a conditional
    /// instruction whose predicate evaluated false: it retires after
    /// reading only its condition flags and writes no register.
    Commit {
        /// Program counter of the retired instruction.
        pc: u32,
        /// True when the predicate failed and the instruction was
        /// annulled (reads condition flags only, writes nothing).
        skipped: bool,
    },
    /// The kernel restored thread `tid`'s saved context onto the core:
    /// the full register file, FP registers, flags and PC were
    /// overwritten.
    Dispatch {
        /// Thread whose context now runs on the core.
        tid: u32,
    },
    /// The kernel saved the core's context into thread `tid`'s context
    /// block (block, preemption or yield).
    Save {
        /// Thread whose saved context now holds the core's state.
        tid: u32,
    },
    /// The kernel wrote a syscall completion value into *blocked*
    /// thread `tid`'s saved `r0` (barrier release, lock handoff, join
    /// wake-up, message delivery).
    CtxWrite {
        /// Thread whose saved `r0` was overwritten.
        tid: u32,
    },
}

/// One event of a golden-run trace. See the module docs for the
/// stamping discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Core the event happened on. For [`TraceKind::CtxWrite`] the
    /// field is a placeholder (0): the write lands in a thread's saved
    /// context, not on any core, and consumers must key such events by
    /// tick order only.
    pub core: u32,
    /// Tick index: the number of traced steps before the tick's own.
    /// Events of one tick appear in program order.
    pub tick: u64,
    /// `core`'s local cycle clock at the end of the event's tick.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// The recorded event stream of one (golden) run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// All events, in global tick order (and program order within one
    /// tick).
    pub events: Vec<TraceEvent>,
    /// Per-core cycle clocks at the instant tracing was enabled (end of
    /// boot). A fault cycle at or below `start_cycles[k]` landed before
    /// the first traced event of core `k`.
    pub start_cycles: Vec<u64>,
    /// Traced steps so far; the open tick is number `steps - 1`.
    steps: u64,
    /// Index of the first event of the still-open tick.
    tick_start: usize,
}

impl ExecTrace {
    /// A trace primed with the given per-core start clocks.
    pub(crate) fn new(start_cycles: Vec<u64>) -> ExecTrace {
        ExecTrace {
            events: Vec::new(),
            start_cycles,
            steps: 0,
            tick_start: 0,
        }
    }

    /// Appends an event to the open tick with a provisional stamp;
    /// closing the tick overwrites it with the boundary values.
    pub(crate) fn push(&mut self, core: u32, kind: TraceKind) {
        self.events.push(TraceEvent {
            core,
            tick: 0,
            cycle: 0,
            kind,
        });
    }

    /// Removes and returns the events of every closed tick, keeping
    /// the open tick's events and the buffer's capacity. A consumer that
    /// digests the stream while the run is recorded drains it between
    /// steps, so the buffer never holds the whole run.
    pub fn drain_closed(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        let closed = std::mem::take(&mut self.tick_start);
        self.events.drain(..closed)
    }

    /// Closes the open tick, if any, and opens the next. Out of line:
    /// inlined through `Machine::step`, its loop cost the kernel's
    /// untraced burst loop a register.
    #[inline(never)]
    pub(crate) fn open_tick(&mut self, cores: &[Core]) {
        if self.steps > 0 {
            self.close_tick(cores);
        }
        self.steps += 1;
    }

    /// Closes the open tick: stamps its events with its index and the clocks of `cores`.
    pub(crate) fn close_tick(&mut self, cores: &[Core]) {
        let tick = self.steps.saturating_sub(1);
        for ev in &mut self.events[self.tick_start..] {
            ev.tick = tick;
            ev.cycle = cores[ev.core as usize].cycles();
        }
        self.tick_start = self.events.len();
    }
}
