//! Byte pins of the multicore schedule.
//!
//! Which core runs next is decided by the interleaving rule (lowest
//! local clock first, ties to the lowest id) and by where the kernel
//! may look in between: preemption quanta, syscalls, watchdogs and the
//! pause fences of injection and checkpoint capture. A change to any of
//! them moves cycles, instruction counts and trace events of multicore
//! runs, yet need not change a campaign outcome that the sweep pins
//! would see. These digests pin the schedule itself on small OpenMP and
//! MPI scenarios of both ISAs at 2 and 4 cores:
//!
//! * the golden [`RunReport`] (cycles, per-core instructions, memory,
//!   context and console hashes), which the plain, profiled and
//!   checkpoint-paced golden runs must all reproduce;
//! * every core's clock and retired-instruction count plus
//!   [`Kernel::steps`] at a series of `run_until_machine_cycle` and
//!   `run_until_core_cycle` pause points;
//! * every event of the golden trace, one instruction per trace tick,
//!   which traced bursts must record exactly as one-step bursts would.

use fracas::cpu::TraceKind;
use fracas::inject::{golden_run_with_checkpoints, golden_trace};
use fracas::kernel::RunReport;
use fracas::prelude::*;

/// `(scenario, [report, pause points, trace])` FNV-1a digests.
const PINS: [(&str, [u64; 3]); 6] = [
    (
        "dt-mpi-4-sira64",
        [0xa5e90c016e6a3dd2, 0x6e9e4b7a7ec07c18, 0x3f7eea66e27e8368],
    ),
    (
        "cg-omp-4-sira64",
        [0x203e56d96a0f127d, 0xe2f862cfd140c149, 0xdca5955b6c7ba08d],
    ),
    (
        "ua-omp-2-sira64",
        [0xec8974016713772c, 0x2e465d4a9bd7162a, 0x0983b49f5a1a4bf7],
    ),
    (
        "is-mpi-2-sira32",
        [0x2be5f18f04765939, 0x2feaf75a3b2f243c, 0x12cb0a46fc2920dd],
    ),
    (
        "is-omp-4-sira32",
        [0xe2c549a72fc32fca, 0x14e1aaad7d33cb53, 0x0299a827400f757e],
    ),
    (
        "dc-omp-2-sira32",
        [0xdbc05e7ec6c9c533, 0x8ba0d3c985171c68, 0x1a18a9b2c92183e2],
    ),
];

/// Pause points per scenario, spread evenly over the golden run.
const PAUSES: u64 = 12;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn report_digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.cycles);
    for &n in &r.per_core_instructions {
        h.u64(n);
    }
    h.u64(r.mem_hash);
    h.u64(r.ctx_hash);
    h.u64(r.console_hash);
    h.0
}

/// Pauses a fresh run at `PAUSES` points up to the golden run's end,
/// alternating machine-cycle pauses (checkpoint pacing) with core-cycle
/// pauses (the injection point) on each core in turn.
fn pause_digest(workload: &Workload, cycles: u64) -> u64 {
    let limits = Limits::default();
    let mut kernel = Kernel::boot(&workload.image, workload.cores, workload.spec);
    let mut h = Fnv::new();
    for i in 1..=PAUSES {
        let at = cycles * i / (PAUSES + 1);
        let ended = if i % 2 == 1 {
            kernel.run_until_machine_cycle(at, &limits)
        } else {
            let core = (i / 2) as usize % workload.cores;
            kernel.run_until_core_cycle(core, at, &limits)
        };
        h.u64(u64::from(ended.is_some()));
        h.u64(kernel.steps());
        for core in 0..workload.cores {
            let c = kernel.machine().core(core);
            h.u64(c.cycles());
            h.u64(c.stats().instructions);
        }
    }
    assert!(kernel.run(&limits).is_clean_exit(), "{}", workload.id);
    h.0
}

fn trace_digest(workload: &Workload) -> u64 {
    let (_, trace) = golden_trace(workload);
    let mut h = Fnv::new();
    for ev in &trace.events {
        h.u64(u64::from(ev.core));
        h.u64(ev.tick);
        h.u64(ev.cycle);
        match ev.kind {
            TraceKind::Commit { pc, skipped } => {
                h.u64(0);
                h.u64(u64::from(pc));
                h.u64(u64::from(skipped));
            }
            TraceKind::Dispatch { tid } => {
                h.u64(1);
                h.u64(u64::from(tid));
            }
            TraceKind::Save { tid } => {
                h.u64(2);
                h.u64(u64::from(tid));
            }
            TraceKind::CtxWrite { tid } => {
                h.u64(3);
                h.u64(u64::from(tid));
            }
        }
    }
    h.0
}

#[test]
fn multicore_schedules_reproduce_their_pins() {
    let mut mismatches = Vec::new();
    for (id, pinned) in PINS {
        let scenario = Scenario::from_id(id).expect("a suite scenario");
        assert!(scenario.cores > 1, "{id}: pins cover multicore runs");
        let workload = Workload::from_scenario(&scenario).unwrap();
        let mut kernel = Kernel::boot(&workload.image, workload.cores, workload.spec);
        assert!(kernel.run(&Limits::default()).is_clean_exit(), "{id}");
        let plain = kernel.report();
        let got = [
            report_digest(&plain),
            pause_digest(&workload, plain.cycles),
            trace_digest(&workload),
        ];
        assert_eq!(
            report_digest(&golden_run_with_checkpoints(&workload, 8).0),
            got[0],
            "{id}: the profiled, checkpoint-paced golden run left the plain schedule"
        );
        if got != pinned {
            mismatches.push(format!(
                "(\"{id}\", [{:#018x}, {:#018x}, {:#018x}]),",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests changed:\n{}",
        mismatches.join("\n")
    );
}
