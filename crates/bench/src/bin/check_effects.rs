//! Conformance gate: golden-runs scenarios with the runtime effect
//! checker enabled (`Machine::set_effect_check`) and fails on the first
//! divergence between the interpreter and the declared
//! `fracas_isa::effects` table.
//!
//! ```text
//! check_effects [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N]
//! ```
//!
//! Every committed instruction of every selected golden execution is
//! verified — register/flag writes, PC update, trap class, cycle charge
//! and event counters — so a clean exit here is the dynamic half of the
//! proof that the prune oracle and the machine share one model (the
//! static half is the read-perturbation differential in
//! `crates/isa/tests/effects_props.rs`). CI runs one NPB corpus pass
//! per ISA; locally, run it unfiltered for the full 130-scenario sweep.
//! A violation panics with the offending instruction and address.

use fracas::inject::Workload;
use fracas::kernel::{Kernel, Limits};
use fracas_bench::cli::{Parser, ScenarioFilter};
use std::time::Instant;

const USAGE: &str =
    "check_effects [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N]";

fn main() {
    let mut filter = ScenarioFilter::default();
    let mut p = Parser::new(USAGE);
    while let Some(flag) = p.next_flag() {
        if !filter.accept(&mut p, &flag) {
            p.unknown(&flag);
        }
    }
    let scenarios = filter.scenarios();
    eprintln!("effect-checking {} golden execution(s)...", scenarios.len());
    let start = Instant::now();
    let mut checked: u64 = 0;
    for (i, s) in scenarios.iter().enumerate() {
        let w = Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id()));
        let mut kernel = Kernel::boot(&w.image, w.cores, w.spec);
        kernel.machine_mut().set_effect_check(true);
        let outcome = kernel.run(&Limits::default());
        assert!(
            outcome.is_clean_exit(),
            "golden run of {} must be clean, got {outcome}",
            w.id
        );
        let n = kernel.report().total_instructions();
        checked += n;
        eprintln!(
            "  [{}/{}] {}: {} instructions conform",
            i + 1,
            scenarios.len(),
            s.id(),
            n
        );
    }
    println!(
        "effects conformance: {checked} instructions across {} scenario(s), 0 violations ({:.1}s)",
        scenarios.len(),
        start.elapsed().as_secs_f64()
    );
}
