//! # fracas-bench — shared harness plumbing for the table/figure binaries
//!
//! Every `src/bin/*` target regenerates one of the paper's tables or
//! figures. They share a campaign database so the expensive injection
//! work runs once, and all of them drive the fleet orchestrator
//! ([`fracas::inject::run_fleet`]): one shared worker pool over every
//! missing scenario, a streaming record sink for crash-safe mid-campaign
//! resume, per-workload progress lines and optional statistical early
//! stopping.
//!
//! Binaries take their configuration from [`cli::SweepOpts::resolve`],
//! the one reader of the `FRACAS_*` environment variables: campaign
//! knobs (faults per scenario, default 60; seed; threads; checkpoints;
//! class pruning; oracle-audit rate; early-stop ε) and the database and
//! sink paths. [`ensure_db`] loads the database, sweeps the scenarios
//! not yet covered, and saves it back; a killed sweep resumes from the
//! sink bit-identically, and the sink is deleted once the database is
//! saved.

use fracas::inject::{FleetConfig, Workload};
use fracas::mine::Database;
use fracas::npb::Scenario;
use std::path::Path;
use std::time::Instant;

pub mod cli;
pub mod reports;

/// Loads the shared database, sweeps any of `scenarios` not yet present
/// through the fleet orchestrator (one shared worker pool, crash-safe
/// record sink, progress on stderr), appends the results and saves the
/// file. The configuration and paths come from the environment alone
/// ([`cli::SweepOpts::config`]); a bad value exits with status 2.
///
/// # Panics
///
/// Panics if a bundled scenario fails to build or the database file is
/// unreadable/corrupt — both indicate a broken installation rather than
/// user input.
pub fn ensure_db(scenarios: &[Scenario]) -> Database {
    let config = cli::SweepOpts::default().config(cli::ENV_USAGE);
    run_sweep(scenarios, &config.fleet, &config.db, &config.sink)
}

/// The orchestrated sweep behind [`ensure_db`] with explicit paths and
/// configuration (the `sweep` binary's entry point): loads `db_path`,
/// fleet-runs the missing scenarios with crash-safe resume through
/// `sink`, saves the merged database and removes the consumed sink.
///
/// # Panics
///
/// Panics if a bundled scenario fails to build, the database file is
/// corrupt, or the sink file cannot be created.
pub fn run_sweep(
    scenarios: &[Scenario],
    config: &FleetConfig,
    db_path: &Path,
    sink: &Path,
) -> Database {
    let mut db = match std::fs::read_to_string(db_path) {
        Ok(text) => Database::from_json_lines(&text)
            .unwrap_or_else(|e| panic!("corrupt database {}: {e}", db_path.display())),
        Err(_) => Database::new(),
    };
    let missing: Vec<&Scenario> = scenarios.iter().filter(|s| db.get(s).is_none()).collect();
    if missing.is_empty() {
        return db;
    }
    eprintln!(
        "sweeping {} campaign(s) at {} faults each (cached: {}, ε = {}, sink: {})",
        missing.len(),
        config.campaign.faults,
        db.len(),
        config.epsilon,
        sink.display()
    );
    let start = Instant::now();
    let workloads: Vec<Workload> = missing
        .iter()
        .map(|s| Workload::from_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.id())))
        .collect();
    let results = fracas::inject::run_fleet_with_sink(&workloads, config, sink)
        .unwrap_or_else(|e| panic!("sink {}: {e}", sink.display()));
    // Class-collapse accounting: how much of each fault list actually
    // executed, and how many targets fell outside the oracle's model.
    for result in &results {
        if let Some(stats) = result.classes {
            let unmodeled = stats.unmodeled.breakdown();
            eprintln!(
                "  classes {}: {}/{} executed ({:.0}%, collapse {:.1}x; \
                 {} decided, {} live classes, {} members, {} singletons{})",
                result.id,
                stats.executed(),
                stats.faults,
                stats.executed_fraction() * 100.0,
                stats.collapse_factor(),
                stats.decided,
                stats.live_classes,
                stats.members,
                stats.singletons,
                if unmodeled.is_empty() {
                    String::new()
                } else {
                    format!("; unmodeled: {unmodeled}")
                },
            );
        }
    }
    // Oracle audits gate the save: a mismatch means the prune oracle
    // synthesized a wrong record, so persisting the database (or
    // consuming the sink) would cache corrupt results.
    let mut mismatches = 0usize;
    for report in results.iter().filter_map(|r| r.audit.as_ref()) {
        eprintln!("  oracle audit {}", report.summary());
        for entry in report.mismatches() {
            eprintln!(
                "    MISMATCH {} record {}: oracle {:?}, execution {:?}",
                report.id, entry.index, entry.oracle, entry.executed
            );
            mismatches += 1;
        }
    }
    assert!(
        mismatches == 0,
        "oracle audit found {mismatches} mismatch(es); database not saved"
    );
    let total = results.len();
    for (i, result) in results.into_iter().enumerate() {
        eprintln!(
            "  [{}/{total}] {}  (V {:.0}% O {:.0}% M {:.0}% U {:.0}% H {:.0}%{})",
            i + 1,
            result.id,
            result.tally.pct(fracas::inject::Outcome::Vanished),
            result.tally.pct(fracas::inject::Outcome::Ona),
            result.tally.pct(fracas::inject::Outcome::Omm),
            result.tally.pct(fracas::inject::Outcome::Ut),
            result.tally.pct(fracas::inject::Outcome::Hang),
            if result.tally.anomaly > 0 {
                format!(
                    " A {:.0}%",
                    result.tally.pct(fracas::inject::Outcome::Anomaly)
                )
            } else {
                String::new()
            },
        );
        db.push(result);
    }
    std::fs::write(db_path, db.to_json_lines())
        .unwrap_or_else(|e| panic!("write {}: {e}", db_path.display()));
    // The sink's records are now owned by the database.
    let _ = std::fs::remove_file(sink);
    eprintln!(
        "sweep done in {:.1}s -> {}",
        start.elapsed().as_secs_f64(),
        db_path.display()
    );
    db
}

/// All scenarios of one ISA.
pub fn scenarios_for_isa(isa: fracas::isa::IsaKind) -> Vec<Scenario> {
    Scenario::all()
        .into_iter()
        .filter(|s| s.isa == isa)
        .collect()
}

/// The campaigns in `db` whose ids name a suite scenario (all of them,
/// in a correct database).
pub fn coverage(db: &Database) -> usize {
    db.iter()
        .filter(|c| Scenario::from_id(&c.id).is_some())
        .count()
}
