//! Binary-level dead-write lint over linked NPB images: runs
//! `fracas_lang::check_text_warnings` (CFG + liveness projections of
//! `fracas_isa::effects`) on every selected scenario's text section and
//! prints its count of emitted-but-provably-dead register writes.
//!
//! ```text
//! lint_text [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N]
//!           [--verbose]
//! ```
//!
//! Output is one `<id> <count>` line per scenario, then `total <n>`;
//! `--verbose` lists each warning under its scenario. The corpus is not
//! warning-free: the O1 backend materialises FL's mandatory literal
//! `let` initializers even when a loop init immediately rewrites the
//! register (the same pattern the AST lint exempts by design). The
//! counts are pinned like every other report: CI diffs the full-suite
//! output against `baselines/lint_text.txt`, so an intentional backend
//! change re-records that file and shows the drift in its diff.

use fracas::inject::Workload;
use fracas::lang::check_text_warnings;
use fracas_bench::cli::{Parser, ScenarioFilter};

const USAGE: &str = "lint_text [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] \
     [--cores N] [--verbose]";

fn main() {
    let mut filter = ScenarioFilter::default();
    let mut verbose = false;
    let mut p = Parser::new(USAGE);
    while let Some(flag) = p.next_flag() {
        if filter.accept(&mut p, &flag) {
            continue;
        }
        match flag.as_str() {
            "--verbose" => verbose = true,
            other => p.unknown(other),
        }
    }
    let mut total = 0usize;
    for s in &filter.scenarios() {
        let workload = Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id()));
        let warnings = check_text_warnings(s.isa, &workload.image.text);
        println!("{} {}", s.id(), warnings.len());
        if verbose {
            for w in &warnings {
                println!("  {w}");
            }
        }
        total += warnings.len();
    }
    println!("total {total}");
}
