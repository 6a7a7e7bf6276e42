//! # fracas-cpu — the deterministic multicore interpreter
//!
//! Executes linked [`fracas_isa::Image`]s on a model of one, two or four
//! SIRA cores with the cache hierarchy of [`fracas_mem`]. The interpreter
//! is the stand-in for gem5's cycle-accurate ARM CPU models in the DAC'18
//! reproduction:
//!
//! * **Deterministic interleaving** — [`Machine::next_core`] always picks
//!   the runnable core with the smallest local cycle count (ties broken by
//!   core id), so a run is a pure function of (image, inputs, injected
//!   fault). Golden-run comparison depends on this. The election runs
//!   inside the interpreter: [`Machine::run_burst`] steps the winner
//!   until another core would win, elects again, and hands control back
//!   to the kernel only when a step needs it or a core reaches the cap
//!   the kernel set for it.
//! * **Cycle timing** — each instruction advances the core's local clock
//!   by a per-ISA [`CostModel`] cost plus cache-miss penalties; the
//!   SIRA-64 model reflects the Cortex-A72's wider issue with lower
//!   effective costs.
//! * **µarch statistics** — branches, function calls, loads, stores, FP
//!   operations and per-function cycle attribution, feeding the paper's
//!   data-mining correlations (branch composition, F*B index, memory
//!   transaction shares, vulnerability windows).
//! * **Fault hooks** — [`Machine::flip_gpr`], [`Machine::flip_fpr`],
//!   [`Machine::flip_flag`] and [`Machine::flip_mem`] implement the
//!   single-bit-upset fault model of §3.2.1.
//! * **Golden-run tracing** — [`Machine::enable_trace`] records the
//!   committed-PC and context-switch event stream ([`trace`]) that
//!   `fracas-analyze` turns into dead-register windows and static AVF
//!   estimates.
//!
//! ## Example
//!
//! Run a bare-metal program to completion:
//!
//! ```
//! use fracas_isa::{Asm, IsaKind, Reg, link};
//! use fracas_cpu::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Asm::new(IsaKind::Sira64);
//! asm.global_fn("_start");
//! asm.movz(Reg(0), 21, 0);
//! asm.addi(Reg(0), Reg(0), 21);
//! asm.halt();
//! let image = link(IsaKind::Sira64, &[asm.into_object()])?;
//! let mut machine = Machine::boot_flat(&image, 1);
//! machine.run_to_halt(1_000)?;
//! assert_eq!(machine.core(0).reg(Reg(0)), 42);
//! # Ok(())
//! # }
//! ```

mod check;
mod cost;
mod machine;
mod state;
pub mod trace;
mod trap;

pub use cost::CostModel;
pub use machine::{Burst, Machine, MachineSnapshot, RunError, StepResult};
pub use state::{Core, CoreContext, CoreStats, Flags};
pub use trace::{ExecTrace, TraceEvent, TraceKind};
pub use trap::Trap;
