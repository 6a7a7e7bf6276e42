//! Future-work experiment: "explore the relationship of compiler flags
//! and application behaviour regarding soft errors" (paper §5).
//!
//! Compares fault-injection outcomes of the same applications compiled
//! at `-O0` (all locals in memory) and the default register-allocating
//! level, on both ISAs. All eight workload variants run as one fleet
//! sweep on the orchestrator's shared worker pool.

use fracas::inject::{run_fleet, Workload};
use fracas::lang::OptLevel;
use fracas::npb::{App, Model, Scenario};
use fracas::prelude::*;
use fracas_bench::cli::{SweepOpts, ENV_USAGE};

fn main() {
    let config = SweepOpts::default().config(ENV_USAGE).fleet;
    println!(
        "Compiler-flag reliability sweep ({} faults/run). -O0 keeps locals in memory;\n\
         -O1 promotes them to registers (the default everywhere else).\n",
        config.campaign.faults
    );
    println!(
        "{:<22} {:>5} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Scenario", "Opt", "Instrs", "Mem%", "Vanish", "ONA", "OMM", "UT", "Hang"
    );
    let mut labels = Vec::new();
    let mut workloads = Vec::new();
    for isa in IsaKind::ALL {
        for app in [App::Is, App::Cg] {
            let scenario = Scenario::new(app, Model::Serial, 1, isa).expect("serial exists");
            for (name, opt) in [("O0", OptLevel::O0), ("O1", OptLevel::O1)] {
                labels.push((scenario.id(), name));
                workloads.push(
                    Workload::from_scenario_with(&scenario, opt)
                        .unwrap_or_else(|e| panic!("{}: {e}", scenario.id())),
                );
            }
        }
    }
    for ((id, name), result) in labels.iter().zip(run_fleet(&workloads, &config)) {
        println!(
            "{:<22} {:>5} {:>12} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            id,
            name,
            result.golden.instructions,
            result.profile.mem_ratio * 100.0,
            result.tally.pct(Outcome::Vanished),
            result.tally.pct(Outcome::Ona),
            result.tally.pct(Outcome::Omm),
            result.tally.pct(Outcome::Ut),
            result.tally.pct(Outcome::Hang),
        );
    }
    println!(
        "\n-O0 shifts live state from registers into the (uninjected) stack, so\n\
         register flips hit dead values more often — masking typically rises —\n\
         while the memory-transaction share grows, feeding the UT channel."
    );
}
