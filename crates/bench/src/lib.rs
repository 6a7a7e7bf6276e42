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
//! * `FRACAS_DB` (default `fracas_campaigns.jsonl`) — the JSON-lines
//!   database file. [`ensure_db`] loads it, sweeps the scenarios not yet
//!   covered, and saves it back.
//! * `FRACAS_SINK` (default `<db>.wal`) — the in-flight record sink; a
//!   killed sweep resumes from it bit-identically and it is deleted once
//!   the database is saved.
//! * `FRACAS_FAULTS` — injections per scenario (default 60; the paper
//!   used 8,000 on a 5,000-core cluster).
//! * `FRACAS_EPSILON` — Wilson-interval early-stop half-width as a
//!   proportion (default 0 = off; see
//!   [`fracas::inject::FleetConfig::from_env`]).
//! * `FRACAS_PRUNE_CLASSES` — collapse each campaign's fault list into
//!   interval-keyed equivalence classes and execute one representative
//!   per class (default 0 = off; the database stays byte-identical, see
//!   `fracas::inject::class_plan`).
//! * `FRACAS_ORACLE_AUDIT` — with `--prune-classes`, the fraction of
//!   synthesized records (oracle-decided faults and class members) to
//!   also execute for real and diff against the
//!   synthesized outcome (default 0 = off); any mismatch aborts the
//!   sweep before the database is saved.
//! * `FRACAS_SEED`, `FRACAS_THREADS` — see
//!   [`fracas::inject::CampaignConfig::from_env`].

use fracas::inject::{CampaignConfig, CampaignResult, FleetConfig, Workload};
use fracas::mine::{parse_id, Database};
use fracas::npb::Scenario;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod cli;
pub mod reports;

/// The database path from `FRACAS_DB` (default `fracas_campaigns.jsonl`
/// in the working directory).
pub fn db_path() -> PathBuf {
    std::env::var_os("FRACAS_DB")
        .map_or_else(|| PathBuf::from("fracas_campaigns.jsonl"), PathBuf::from)
}

/// The in-flight record-sink path from `FRACAS_SINK` (default: the
/// database path with a `.wal` suffix appended).
pub fn sink_path() -> PathBuf {
    std::env::var_os("FRACAS_SINK").map_or_else(
        || {
            let mut p = db_path().into_os_string();
            p.push(".wal");
            PathBuf::from(p)
        },
        PathBuf::from,
    )
}

/// The campaign configuration from the environment, with the harness
/// default of 60 injections per scenario.
pub fn config() -> CampaignConfig {
    let mut config = CampaignConfig::from_env();
    if std::env::var_os("FRACAS_FAULTS").is_none() {
        config.faults = 60;
    }
    config
}

/// The sweep configuration from the environment: [`config`] plus the
/// ε/confidence knobs, with progress lines enabled.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        campaign: config(),
        progress: true,
        ..FleetConfig::from_env()
    }
}

/// Loads the shared database, sweeps any of `scenarios` not yet present
/// through the fleet orchestrator (one shared worker pool, record sink
/// at [`sink_path`], progress on stderr), appends the results and saves
/// the file.
///
/// # Panics
///
/// Panics if a bundled scenario fails to build or the database file is
/// unreadable/corrupt — both indicate a broken installation rather than
/// user input.
pub fn ensure_db(scenarios: &[Scenario]) -> Database {
    run_sweep(scenarios, &fleet_config(), &db_path(), &sink_path())
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
    let missing: Vec<&Scenario> = scenarios
        .iter()
        .filter(|s| {
            db.get(fracas::mine::Key {
                app: s.app,
                model: s.model,
                cores: s.cores,
                isa: s.isa,
            })
            .is_none()
        })
        .collect();
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

/// The subset of campaigns in `db` whose ids parse (all of them, in a
/// correct database).
pub fn coverage(db: &Database) -> usize {
    db.iter().filter(|c| parse_id(&c.id).is_some()).count()
}

/// Convenience: a result's five percentages in display order.
pub fn pct_row(result: &CampaignResult) -> [f64; 5] {
    use fracas::inject::Outcome;
    [
        result.tally.pct(Outcome::Vanished),
        result.tally.pct(Outcome::Ona),
        result.tally.pct(Outcome::Omm),
        result.tally.pct(Outcome::Ut),
        result.tally.pct(Outcome::Hang),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_has_harness_fault_count() {
        if std::env::var_os("FRACAS_FAULTS").is_none() {
            assert_eq!(config().faults, 60);
        }
    }

    #[test]
    fn db_path_defaults() {
        if std::env::var_os("FRACAS_DB").is_none() {
            assert_eq!(db_path(), PathBuf::from("fracas_campaigns.jsonl"));
        }
    }
}
