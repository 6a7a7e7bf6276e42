//! The sweep command: runs every (optionally filtered) scenario on both
//! ISAs end-to-end through the fleet orchestrator — one shared worker
//! pool, streaming record sink with crash-safe resume, per-workload
//! progress and optional statistical early stopping.
//!
//! ```text
//! sweep [--isa sira32|sira64] [--model ser|omp|mpi] [--app bt|cg|...]
//!       [--cores N] [--faults N] [--epsilon E] [--threads N] [--seed N]
//!       [--db PATH] [--sink PATH] [--prune-classes] [--oracle-audit R]
//!       [--text-faults]
//! ```
//!
//! Kill it at any point and re-run with the same arguments: completed
//! injections replay from the sink and the final database is
//! bit-identical to an uninterrupted sweep. `FRACAS_*` variables
//! supply defaults and flags win (see `fracas_bench::cli`); a value
//! that does not parse exits with status 2 before anything runs.

use fracas_bench::cli::SweepOpts;

const USAGE: &str = "sweep [--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N]\n\
     \u{20}            [--faults N] [--epsilon E] [--threads N] [--seed N] [--db PATH] [--sink PATH]\n\
     \u{20}            [--prune-classes] [--oracle-audit R] [--text-faults]";

fn main() {
    let opts = SweepOpts::parse(USAGE);
    let config = opts.config(USAGE);
    let scenarios = opts.filter.scenarios();
    let db = fracas_bench::run_sweep(&scenarios, &config.fleet, &config.db, &config.sink);
    println!(
        "database covers {} campaign(s) -> {}",
        fracas_bench::coverage(&db),
        config.db.display()
    );
    println!(
        "{:<22} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Scenario", "n", "Vanish", "ONA", "OMM", "UT", "Hang", "Anomaly"
    );
    for s in &scenarios {
        let Some(c) = db.get(s) else {
            continue;
        };
        use fracas::inject::Outcome;
        println!(
            "{:<22} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            c.id,
            c.tally.total(),
            c.tally.pct(Outcome::Vanished),
            c.tally.pct(Outcome::Ona),
            c.tally.pct(Outcome::Omm),
            c.tally.pct(Outcome::Ut),
            c.tally.pct(Outcome::Hang),
            c.tally.pct(Outcome::Anomaly),
        );
    }
}
