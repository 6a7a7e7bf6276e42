//! # fracas-inject — soft-error fault injection campaigns
//!
//! Implements the paper's §3.2 fault-injection framework over the FRACAS
//! machine:
//!
//! * **Fault model** (§3.2.1): single-bit upsets sampled uniformly over
//!   (core × architected-register bit) and uniformly in time across the
//!   application lifespan — OS boot is not simulated at all, so faults by
//!   construction land only during the workload, *including* its syscalls
//!   and parallelization-API guest code.
//! * **Outcome classification** (§3.2.2, Cho et al.): [`Outcome`] —
//!   Vanished / ONA / OMM / UT / Hang, decided by comparing console
//!   output, memory state, register context and instruction counts
//!   against the golden run.
//! * **Four-phase workflow** (§3.2.3): golden execution → fault-list
//!   generation → (parallel, batched) injection jobs → a single merged
//!   [`CampaignResult`] database.
//! * **Checkpoint-and-restore**: the golden run captures evenly spaced
//!   kernel snapshots ([`CheckpointSet`]); each injection resumes from
//!   the latest one strictly before its fault cycle instead of
//!   replaying from boot, bit-identically (gem5-style checkpointing).
//!   A live class representative resumes later still, from the latest
//!   snapshot inside its landing interval ([`Horizon`]), with the flip
//!   applied on restore.
//! * **Exact pruning**: with [`CampaignConfig::prune_classes`], a
//!   trace-exact oracle (`fracas-analyze`) *decides* injections whose
//!   bit is overwritten before ever being read (or survives unread)
//!   without executing them, and collapses the remaining live faults
//!   into def→use interval classes that execute one representative
//!   each ([`class_plan`]) — byte-identically to the full campaign.
//! * **Sampled oracle auditing**: with [`CampaignConfig::oracle_audit`]
//!   a deterministic, seed-derived fraction of the synthesized records
//!   is *also* executed for real and the classified outcome diffed
//!   against the verdict or the representative's outcome
//!   ([`OracleAuditReport`]); a mismatch fails the sweep.
//! * **Distribution** (§3.2.4): the fleet orchestrator ([`run_fleet`])
//!   runs golden runs and injection batches of every workload on one
//!   shared work queue over host threads; results are index-sorted, so
//!   a campaign is deterministic for a given seed regardless of thread
//!   count. [`run_campaign`] is a one-workload sweep.
//!
//! ## Example
//!
//! ```no_run
//! use fracas_inject::{CampaignConfig, Workload, run_campaign};
//! use fracas_npb::{App, Model, Scenario};
//! use fracas_isa::IsaKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::new(App::Is, Model::Omp, 2, IsaKind::Sira64).unwrap();
//! let workload = Workload::from_scenario(&scenario)?;
//! let result = run_campaign(&workload, &CampaignConfig { faults: 100, ..Default::default() });
//! println!("{}: {:?}", result.id, result.tally);
//! # Ok(())
//! # }
//! ```

mod audit;
mod campaign;
mod checkpoint;
mod classes;
mod classify;
pub mod domain;
mod fault;
mod fleet;
mod prune;

pub use audit::{audit_selected, AuditEntry, OracleAuditReport};
pub use campaign::{
    campaign_faults, campaign_limits, golden_only, golden_run, golden_run_with_checkpoints,
    golden_trace, inject_one, run_campaign, CampaignConfig, CampaignResult, GoldenSummary,
    InjectionRecord, ProfileStats, Tally, Workload,
};
pub use checkpoint::CheckpointSet;
pub use classes::{class_plan, ClassPlan, ClassStats};
pub use classify::{classify, Outcome};
pub use domain::{domain_named, domains, Domain, Placement, SpaceDims};
pub use fault::{sample_faults, sample_space, Fault, FaultSpace, FaultTarget};
pub use fleet::{
    run_fleet, run_fleet_with, run_fleet_with_sink, FleetConfig, Injector, RecordSink,
};
pub use fracas_analyze::Horizon;
pub use prune::{prune_cap, PruneCap, UnmodeledCounts};
