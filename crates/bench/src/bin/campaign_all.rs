//! Runs (or resumes) the full 130-scenario fault-injection campaign and
//! writes the shared database every other target reads. Tune with
//! `FRACAS_FAULTS` / `FRACAS_SEED` / `FRACAS_THREADS` / `FRACAS_DB`.

use fracas::npb::Scenario;
use fracas_bench::cli::{SweepOpts, ENV_USAGE};

fn main() {
    let config = SweepOpts::default().config(ENV_USAGE);
    let db = fracas_bench::run_sweep(&Scenario::all(), &config.fleet, &config.db, &config.sink);
    println!(
        "database covers {} campaigns -> {}",
        fracas_bench::coverage(&db),
        config.db.display()
    );
}
