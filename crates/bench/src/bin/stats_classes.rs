//! Plan-side collapse report for `--prune-classes`: per-scenario
//! equivalence-class statistics over the sampled fault list — executed
//! fraction, collapse factor, decided/live/member/singleton breakdown
//! and per-domain unmodeled-target counts — without running a single
//! injection (each scenario costs one traced golden run).
//!
//! ```text
//! stats_classes [--isa ...] [--model ...] [--app NAME] [--cores N]
//!               [--faults N] [--seed N] [--text-faults] [--gate F]
//! ```
//!
//! `--gate F` turns the report into a CI check: exit 1 unless the
//! aggregate executed fraction over the selected scenarios is ≤ `F`.
//! The paper-facing acceptance bar is `--app EP --gate 0.5`: class
//! pruning must execute at most half of the sampled faults across the
//! EP programming-model × ISA matrix. With `--text-faults` the sampled
//! space is instruction-memory bits instead of registers, and the gate
//! checks the decode-differential collapse (`--app EP --gate 0.6`).

use fracas::inject::domain::{FPR, MEM};
use fracas::inject::{campaign_faults, class_plan, golden_trace, ClassStats, FaultSpace, Workload};
use fracas_bench::cli::{Parser, SweepOpts};
use std::time::Instant;

const USAGE: &str = "stats_classes [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] \
     [--cores N] [--faults N] [--seed N] [--text-faults] [--gate F]";

const HEADER: &str =
    "scenario                 flts   dec  live   mem  sing  fpr32 umem  executed  collapse";

/// One table row.
fn row(label: &str, stats: &ClassStats) {
    println!(
        "{:<22} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>4} {:>8.1}% {:>8.1}x",
        label,
        stats.faults,
        stats.decided,
        stats.live_classes,
        stats.members,
        stats.singletons,
        stats.unmodeled.count(&FPR),
        stats.unmodeled.count(&MEM),
        stats.executed_fraction() * 100.0,
        stats.collapse_factor()
    );
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut opts = SweepOpts::default();
    let mut gate: Option<f64> = None;
    let mut text_faults = false;
    let mut p = Parser::new(USAGE);
    while let Some(flag) = p.next_flag() {
        if opts.filter.accept(&mut p, &flag) {
            continue;
        }
        match flag.as_str() {
            "--faults" => opts.faults = Some(p.parsed(&flag)),
            "--seed" => opts.seed = Some(p.parsed(&flag)),
            "--gate" => gate = Some(p.parsed(&flag)),
            "--text-faults" => text_faults = true,
            other => p.unknown(other),
        }
    }
    let mut config = opts.config(USAGE).fleet.campaign;
    if text_faults {
        config.space = FaultSpace::only("text");
    }
    let scenarios = opts.filter.scenarios();
    eprintln!(
        "class-planning {} scenario(s) at {} {} faults each (seed {})...",
        scenarios.len(),
        config.faults,
        if text_faults { "text" } else { "register" },
        config.seed
    );
    let start = Instant::now();
    println!("{HEADER}");
    let mut total = ClassStats::default();
    for s in &scenarios {
        let workload = Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id()));
        let (report, trace) = golden_trace(&workload);
        let sampled = campaign_faults(&workload, &config, report.cycles);
        let stats = class_plan(&workload, &trace, &sampled).stats();
        row(&s.id(), &stats);
        total.merge(&stats);
    }
    row("TOTAL", &total);
    eprintln!("planned in {:.1}s", start.elapsed().as_secs_f64());
    if let Some(bar) = gate {
        let fraction = total.executed_fraction();
        if fraction > bar {
            eprintln!("class-collapse gate failed: executed fraction {fraction:.3} > {bar}");
            std::process::exit(1);
        }
        let unmodeled = total.unmodeled.breakdown();
        println!(
            "gate ok: executed fraction {fraction:.3} <= {bar} (decided {:.3}{})",
            total.decided_fraction(),
            if unmodeled.is_empty() {
                String::new()
            } else {
                format!(", unmodeled {unmodeled}")
            }
        );
    }
}
