//! # FRACAS — Fault injection and Reliability Analysis for Cores And Software
//!
//! A from-scratch Rust reproduction of *"Extensive Evaluation of
//! Programming Models and ISAs Impact on Multicore Soft Error
//! Reliability"* (DAC 2018): a full-system simulation stack — two
//! ARM-like ISAs, a cycle-counted multicore interpreter with caches, a
//! miniature OS, a compiler with softfloat lowering, OpenMP/MPI-like
//! guest runtimes and the NPB-T benchmarks — plus the fault-injection
//! campaign machinery and the cross-layer data-mining engine that
//! regenerate every table and figure of the paper.
//!
//! This facade re-exports the subsystem crates under short module names
//! and offers the high-level campaign drivers used by the benchmark
//! harness.
//!
//! ## Layer map
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`isa`] | `fracas-isa` | SIRA-32/SIRA-64 instruction sets, assembler, linker |
//! | [`mem`] | `fracas-mem` | physical memory, page permissions, cache hierarchy |
//! | [`cpu`] | `fracas-cpu` | deterministic multicore interpreter + timing |
//! | [`kernel`] | `fracas-kernel` | processes, threads, scheduler, syscalls |
//! | [`lang`] | `fracas-lang` | the FL compiler (both backends) |
//! | [`rt`] | `fracas-rt` | crt0, softfloat, OMP and MPI guest runtimes |
//! | [`npb`] | `fracas-npb` | the 29 NPB-T programs / 130 scenarios |
//! | [`analyze`] | `fracas-analyze` | CFG recovery, liveness, static AVF, prune oracle |
//! | [`inject`] | `fracas-inject` | fault model, campaigns, classification |
//! | [`mine`] | `fracas-mine` | statistics and table/figure mining |
//!
//! ## Quickstart
//!
//! Run a small fault-injection campaign on one scenario:
//!
//! ```no_run
//! use fracas::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::new(App::Is, Model::Omp, 2, IsaKind::Sira64)
//!     .expect("scenario exists");
//! let result = run_scenario_campaign(
//!     &scenario,
//!     &CampaignConfig { faults: 200, ..CampaignConfig::default() },
//! )?;
//! for class in Outcome::ALL {
//!     println!("{class:>8}: {:5.1} %", result.tally.pct(class));
//! }
//! # Ok(())
//! # }
//! ```

pub use fracas_analyze as analyze;
pub use fracas_cpu as cpu;
pub use fracas_inject as inject;
pub use fracas_isa as isa;
pub use fracas_kernel as kernel;
pub use fracas_lang as lang;
pub use fracas_mem as mem;
pub use fracas_mine as mine;
pub use fracas_npb as npb;
pub use fracas_rt as rt;

use fracas_inject::{
    run_campaign, run_fleet, CampaignConfig, CampaignResult, FleetConfig, Workload,
};
use fracas_mine::Database;
use fracas_npb::Scenario;
use fracas_rt::BuildError;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::{run_scenario_campaign, sweep_scenarios};
    pub use fracas_inject::{
        golden_run, golden_run_with_checkpoints, inject_one, run_campaign, run_fleet,
        run_fleet_with_sink, CampaignConfig, CampaignResult, CheckpointSet, Fault, FaultSpace,
        FaultTarget, FleetConfig, Outcome, RecordSink, Tally, Workload,
    };
    pub use fracas_isa::IsaKind;
    pub use fracas_kernel::{BootSpec, Kernel, KernelSnapshot, Limits, RunOutcome};
    pub use fracas_mine::Database;
    pub use fracas_npb::{App, Model, Scenario};
}

/// Builds and runs a fault-injection campaign for one NPB scenario.
///
/// # Errors
///
/// Returns a [`BuildError`] if the scenario's guest program fails to
/// build (a bundled-program bug, covered by tests).
pub fn run_scenario_campaign(
    scenario: &Scenario,
    config: &CampaignConfig,
) -> Result<CampaignResult, BuildError> {
    let workload = Workload::from_scenario(scenario)?;
    Ok(run_campaign(&workload, config))
}

/// Sweeps a set of scenarios through the fleet orchestrator — one
/// shared worker pool across every workload's golden run, checkpoint
/// ladder and injection batches — and merges the results into a
/// [`Database`] (the paper's phase-four single database). With
/// `config.epsilon == 0` each campaign is byte-identical to
/// [`run_scenario_campaign`] under `config.campaign`; set
/// `config.progress` for per-workload progress lines on stderr. For
/// streaming records and crash-safe resume, build the workloads
/// yourself and call [`fracas_inject::run_fleet_with_sink`].
///
/// # Errors
///
/// Returns the first [`BuildError`] encountered while building the
/// scenario images.
pub fn sweep_scenarios(
    scenarios: &[Scenario],
    config: &FleetConfig,
) -> Result<Database, BuildError> {
    let workloads = scenarios
        .iter()
        .map(Workload::from_scenario)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Database::from_campaigns(run_fleet(&workloads, config)))
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn quickstart_campaign_runs() {
        let scenario = Scenario::new(App::Is, Model::Serial, 1, IsaKind::Sira64).unwrap();
        let result = crate::run_scenario_campaign(
            &scenario,
            &CampaignConfig {
                faults: 10,
                threads: 1,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.tally.total(), 10);
    }

    #[test]
    fn suite_merges_and_reports_progress() {
        let scenarios: Vec<Scenario> = [
            Scenario::new(App::Is, Model::Serial, 1, IsaKind::Sira64),
            Scenario::new(App::Ep, Model::Serial, 1, IsaKind::Sira64),
        ]
        .into_iter()
        .flatten()
        .collect();
        let db = crate::sweep_scenarios(
            &scenarios,
            &FleetConfig {
                campaign: CampaignConfig {
                    faults: 5,
                    threads: 1,
                    ..CampaignConfig::default()
                },
                progress: true,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(db.len(), 2);
        let ids: Vec<&str> = db.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["is-ser-1-sira64", "ep-ser-1-sira64"]);
        assert!(db.get(&scenarios[1]).is_some());
        assert!(db.iter().all(|c| c.tally.total() == 5));
    }
}
