//! §4.2.2's vulnerability windows, per function: for selected parallel
//! scenarios, print the hottest guest functions by attributed cycles and
//! the share spent inside the parallelization API and softfloat layers.

use fracas::npb::{App, Model, Scenario};
use fracas::prelude::*;

fn main() {
    let mut scenarios = Vec::new();
    for isa in IsaKind::ALL {
        for (app, model) in [(App::Cg, Model::Omp), (App::Cg, Model::Mpi)] {
            if let Some(s) = Scenario::new(app, model, 4, isa) {
                scenarios.push(s);
            }
        }
    }
    let db = fracas_bench::ensure_db(&scenarios);
    for s in &scenarios {
        let Some(c) = db.get(s) else {
            continue;
        };
        println!(
            "{}  (API window {:.1} %, softfloat {:.1} %, idle {:.1} % of cycles)",
            c.id,
            c.profile.api_cycle_fraction * 100.0,
            c.profile.softfloat_cycle_fraction * 100.0,
            c.profile.idle_cycles as f64 * 100.0 / (c.profile.cycles as f64).max(1.0),
        );
        let total: u64 = c.profile.top_functions.iter().map(|(_, v)| *v).sum();
        for (name, cycles) in &c.profile.top_functions {
            println!(
                "    {:<24} {:>12} cycles  {:>5.1} % of top-12",
                name,
                cycles,
                *cycles as f64 * 100.0 / (total as f64).max(1.0)
            );
        }
        println!();
    }
    println!(
        "The paper bounds the parallelization-API window at 23 % in the worst case;\n\
         with real-sized workloads the API functions are a small slice of the\n\
         application's total exposure."
    );
}
