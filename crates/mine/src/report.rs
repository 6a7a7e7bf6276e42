//! The mining reports behind every table and figure of the paper.

use crate::db::Database;
use crate::stats::{mean, std_dev};
use fracas_inject::{CampaignResult, Outcome, Tally};
use fracas_isa::IsaKind;
use fracas_npb::{App, Model, Scenario};
use std::fmt::Write as _;

/// Renders the per-application outcome distribution panel (Figures 2a/2b
/// for SIRA-32, 3a/3b for SIRA-64): one row per scenario group
/// (`SER-1`, `MPI-1`, `MPI-2`, `MPI-4` or the OMP equivalents) with the
/// five class percentages.
pub fn outcome_table(db: &Database, isa: IsaKind, model: Model) -> String {
    let tag = model.name().to_uppercase();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:<6} {:>8} {:>8} {:>8} {:>8} {:>8}   (injected faults %)",
        "App", "Run", "Vanish", "ONA", "OMM", "UT", "Hang"
    );
    for app in App::ALL {
        if !fracas_npb::has_variant(app, model) {
            continue;
        }
        let serial = Scenario::new(app, Model::Serial, 1, isa).map(|s| ("SER-1".to_string(), s));
        let own = [1u32, 2, 4].into_iter().filter_map(|cores| {
            Scenario::new(app, model, cores, isa).map(|s| (format!("{tag}-{cores}"), s))
        });
        for (label, scenario) in serial.into_iter().chain(own) {
            match db.get(&scenario) {
                Some(c) => {
                    let t = &c.tally;
                    let _ = writeln!(
                        out,
                        "{:<4} {:<6} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                        app.name(),
                        label,
                        t.pct(Outcome::Vanished),
                        t.pct(Outcome::Ona),
                        t.pct(Outcome::Omm),
                        t.pct(Outcome::Ut),
                        t.pct(Outcome::Hang),
                    );
                }
                None => {
                    let _ = writeln!(out, "{:<4} {:<6} (no campaign data)", app.name(), label);
                }
            }
        }
    }
    out
}

/// Renders a labeled outcome-composition panel from finished tallies —
/// one row per label with the five outcome-class percentages plus the
/// masking rate. Unlike [`outcome_table`] it is not keyed by scenario:
/// callers bucket records however the comparison demands (per fault
/// domain in `stats_uncore`, per ISA, per width...) and hand over the
/// tallies. Labels with an empty tally render as `(no records)` so a
/// domain that sampled nothing stays visible instead of vanishing from
/// the panel.
pub fn labeled_outcome_table(rows: &[(String, Tally)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}   (injected faults %)",
        "space", "n", "Vanish", "ONA", "OMM", "UT", "Hang", "mask%"
    );
    for (label, tally) in rows {
        if tally.total() == 0 {
            let _ = writeln!(out, "{label:<10} {:>6} (no records)", 0);
            continue;
        }
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            label,
            tally.total(),
            tally.pct(Outcome::Vanished),
            tally.pct(Outcome::Ona),
            tally.pct(Outcome::Omm),
            tally.pct(Outcome::Ut),
            tally.pct(Outcome::Hang),
            tally.masking_rate() * 100.0,
        );
    }
    out
}

/// One MPI-vs-OMP mismatch comparison (Figures 2c/3c).
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchRow {
    /// Application.
    pub app: App,
    /// Core count.
    pub cores: u32,
    /// Per-class percentage difference, MPI − OMP, in
    /// [Vanish, ONA, OMM, UT, Hang] order.
    pub delta: [f64; 5],
    /// The paper's mismatch: sum of absolute per-class differences.
    pub mismatch: f64,
}

/// Computes every available MPI-vs-OMP mismatch for one ISA.
pub fn mismatch_rows(db: &Database, isa: IsaKind) -> Vec<MismatchRow> {
    let mut rows = Vec::new();
    for app in App::ALL {
        for cores in [1u32, 2, 4] {
            let Some((m, o)) = mpi_omp_pair(db, app, cores, isa) else {
                continue;
            };
            let mut delta = [0.0; 5];
            let mut mismatch = 0.0;
            for (i, class) in Outcome::ALL.into_iter().enumerate() {
                delta[i] = m.tally.pct(class) - o.tally.pct(class);
                mismatch += delta[i].abs();
            }
            rows.push(MismatchRow {
                app,
                cores,
                delta,
                mismatch,
            });
        }
    }
    rows
}

/// The MPI and OMP campaigns of `app` on `cores` cores of `isa`, when
/// the suite has both scenarios and the database holds both.
fn mpi_omp_pair(
    db: &Database,
    app: App,
    cores: u32,
    isa: IsaKind,
) -> Option<(&CampaignResult, &CampaignResult)> {
    let mpi = Scenario::new(app, Model::Mpi, cores, isa)?;
    let omp = Scenario::new(app, Model::Omp, cores, isa)?;
    Some((db.get(&mpi)?, db.get(&omp)?))
}

/// Renders the mismatch panel as text.
pub fn mismatch_table(db: &Database, isa: IsaKind) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}   (MPI - OMP, %)",
        "App", "Cores", "Vanish", "ONA", "OMM", "UT", "Hang", "Mismatch"
    );
    for row in mismatch_rows(db, isa) {
        let _ = writeln!(
            out,
            "{:<4} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>10.2}",
            row.app.name(),
            row.cores,
            row.delta[0],
            row.delta[1],
            row.delta[2],
            row.delta[3],
            row.delta[4],
            row.mismatch,
        );
    }
    out
}

/// One row of Table 2: Hang incidence against the normalized
/// function-calls × branches index.
#[derive(Debug, Clone, PartialEq)]
pub struct HangIndexRow {
    /// Scenario group label, e.g. `IS MPI V7`.
    pub group: String,
    /// Core count.
    pub cores: u32,
    /// Hang percentage.
    pub hang_pct: f64,
    /// Executed branch instructions.
    pub branches: u64,
    /// Executed function calls.
    pub calls: u64,
    /// F*B = (calls × branches), normalized to the group's single-core
    /// value.
    pub index_fb: f64,
}

/// Builds Table 2 for one application (the paper uses IS).
pub fn hang_index_table(db: &Database, app: App) -> Vec<HangIndexRow> {
    let mut rows = Vec::new();
    for (model, isa, label) in [
        (Model::Mpi, IsaKind::Sira32, "MPI V7"),
        (Model::Omp, IsaKind::Sira32, "OMP V7"),
        (Model::Mpi, IsaKind::Sira64, "MPI V8"),
        (Model::Omp, IsaKind::Sira64, "OMP V8"),
    ] {
        let campaign = |cores| Scenario::new(app, model, cores, isa).and_then(|s| db.get(&s));
        let single = campaign(1).map(|c| c.profile.calls as f64 * c.profile.branches as f64);
        for cores in [1u32, 2, 4] {
            let Some(c) = campaign(cores) else {
                continue;
            };
            let fb = c.profile.calls as f64 * c.profile.branches as f64;
            let norm = match single {
                Some(s) if s > 0.0 => fb / s,
                _ => 0.0,
            };
            rows.push(HangIndexRow {
                group: format!("{} {label}", app.name()),
                cores,
                hang_pct: c.tally.pct(Outcome::Hang),
                branches: c.profile.branches,
                calls: c.profile.calls,
                index_fb: norm,
            });
        }
    }
    rows
}

/// One row of Tables 3/4: memory-transaction behaviour against the
/// outcome classes.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRow {
    /// Scenario label, e.g. `MG MPIx4`.
    pub label: String,
    /// Vanished + OMM + ONA percentage (the table's first column).
    pub survived_pct: f64,
    /// UT percentage.
    pub ut_pct: f64,
    /// Memory instructions as % of executed instructions.
    pub mem_pct: f64,
    /// Load/store ratio.
    pub rd_wr: f64,
}

/// Builds a Table 3/4-style report for the given scenarios.
pub fn mem_table(db: &Database, scenarios: &[Scenario]) -> Vec<MemRow> {
    scenarios
        .iter()
        .filter_map(|s| {
            let c = db.get(s)?;
            Some(MemRow {
                label: format!(
                    "{} {}x{}",
                    s.app.name(),
                    s.model.name().to_uppercase(),
                    s.cores
                ),
                survived_pct: c.tally.pct(Outcome::Vanished)
                    + c.tally.pct(Outcome::Omm)
                    + c.tally.pct(Outcome::Ona),
                ut_pct: c.tally.pct(Outcome::Ut),
                mem_pct: c.profile.mem_ratio * 100.0,
                rd_wr: c.profile.rd_wr_ratio,
            })
        })
        .collect()
}

/// Branch-composition statistics for one macro scenario (§4.1.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionStat {
    /// Group label (`MPI V7`, `OMP V7`, `MPI V8`, `OMP V8`).
    pub group: &'static str,
    /// Mean branch share of executed instructions, in percent.
    pub mean_branch_pct: f64,
    /// Standard deviation of the branch share, in percent.
    pub sigma: f64,
    /// Scenarios in the group.
    pub scenarios: usize,
}

/// Computes the four macro-scenario branch compositions.
pub fn composition_stats(db: &Database) -> Vec<CompositionStat> {
    [
        (Model::Mpi, IsaKind::Sira32, "MPI V7"),
        (Model::Omp, IsaKind::Sira32, "OMP V7"),
        (Model::Mpi, IsaKind::Sira64, "MPI V8"),
        (Model::Omp, IsaKind::Sira64, "OMP V8"),
    ]
    .into_iter()
    .map(|(model, isa, group)| {
        let ratios: Vec<f64> = db
            .iter()
            .filter(|c| Scenario::from_id(&c.id).is_some_and(|s| s.model == model && s.isa == isa))
            .map(|c| c.profile.branch_ratio * 100.0)
            .collect();
        CompositionStat {
            group,
            mean_branch_pct: mean(&ratios),
            sigma: std_dev(&ratios),
            scenarios: ratios.len(),
        }
    })
    .collect()
}

/// The §4.2.2 masking-rate comparison over every MPI/OMP pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskingSummary {
    /// Comparable (app, cores, isa) pairs found.
    pub pairs: usize,
    /// Pairs where MPI has the higher masking rate.
    pub mpi_wins: usize,
    /// Mean per-core instruction imbalance of the MPI scenarios.
    pub mpi_imbalance: f64,
    /// Mean per-core instruction imbalance of the OMP scenarios.
    pub omp_imbalance: f64,
    /// Mean OMP/MPI execution-cycle ratio (the paper reports OMP running
    /// ~16 % shorter).
    pub omp_cycle_ratio: f64,
    /// Largest parallelization-API vulnerability window observed
    /// (fraction of cycles; the paper bounds it at 23 %).
    pub max_api_window: f64,
}

/// Computes the masking comparison across both ISAs.
pub fn masking_comparison(db: &Database) -> MaskingSummary {
    let mut pairs = 0;
    let mut mpi_wins = 0;
    let mut mpi_imb = Vec::new();
    let mut omp_imb = Vec::new();
    let mut cycle_ratio = Vec::new();
    let mut max_api: f64 = 0.0;
    for isa in IsaKind::ALL {
        for app in App::ALL {
            for cores in [1u32, 2, 4] {
                let Some((m, o)) = mpi_omp_pair(db, app, cores, isa) else {
                    continue;
                };
                pairs += 1;
                if m.tally.masking_rate() > o.tally.masking_rate() {
                    mpi_wins += 1;
                }
                if cores > 1 {
                    mpi_imb.push(m.profile.imbalance);
                    omp_imb.push(o.profile.imbalance);
                }
                if m.golden.cycles > 0 {
                    cycle_ratio.push(o.golden.cycles as f64 / m.golden.cycles as f64);
                }
                max_api = max_api
                    .max(m.profile.api_cycle_fraction)
                    .max(o.profile.api_cycle_fraction);
            }
        }
    }
    MaskingSummary {
        pairs,
        mpi_wins,
        mpi_imbalance: mean(&mpi_imb),
        omp_imbalance: mean(&omp_imb),
        omp_cycle_ratio: mean(&cycle_ratio),
        max_api_window: max_api,
    }
}

/// The Table 1 workload summary for one ISA.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// ISA.
    pub isa: IsaKind,
    /// (min, avg, max) guest-time seconds of a single faultless run
    /// (guest cycles at the 1 GHz model clock).
    pub sim_seconds: (f64, f64, f64),
    /// (min, avg, max) campaign hours (single-run time × injections).
    pub campaign_hours: (f64, f64, f64),
    /// (min, avg, max) executed instructions.
    pub instructions: (u64, u64, u64),
    /// Total campaign hours over all scenarios.
    pub total_campaign_hours: f64,
    /// Scenarios summarised.
    pub scenarios: usize,
}

/// Builds the Table 1 summary for one ISA from all its campaigns.
pub fn workload_summary(db: &Database, isa: IsaKind) -> WorkloadSummary {
    let mut secs = Vec::new();
    let mut hours = Vec::new();
    let mut instrs = Vec::new();
    for c in db.iter() {
        if Scenario::from_id(&c.id).is_none_or(|s| s.isa != isa) {
            continue;
        }
        let s = c.golden.cycles as f64 / 1.0e9;
        secs.push(s);
        hours.push(s * c.faults as f64 / 3600.0);
        instrs.push(c.golden.instructions);
    }
    let minmax = |xs: &[f64]| -> (f64, f64, f64) {
        if xs.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        (
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            mean(xs),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let imm = if instrs.is_empty() {
        (0, 0, 0)
    } else {
        (
            *instrs.iter().min().expect("non-empty"),
            (instrs.iter().sum::<u64>() / instrs.len() as u64),
            *instrs.iter().max().expect("non-empty"),
        )
    };
    WorkloadSummary {
        isa,
        sim_seconds: minmax(&secs),
        campaign_hours: minmax(&hours),
        instructions: imm,
        total_campaign_hours: hours.iter().sum(),
        scenarios: secs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_inject::{CampaignResult, GoldenSummary, ProfileStats, Tally};

    fn fake(id: &str, tally: Tally, branches: u64, calls: u64, mem_ratio: f64) -> CampaignResult {
        CampaignResult {
            id: id.to_string(),
            faults: tally.total() as usize,
            seed: 0,
            golden: GoldenSummary {
                cycles: 1_000_000,
                instructions: 500_000,
                per_core_instructions: vec![500_000],
            },
            space_bits: 0,
            profile: ProfileStats {
                instructions: 500_000,
                cycles: 1_000_000,
                branches,
                calls,
                loads: 60_000,
                stores: 30_000,
                fp_ops: 0,
                svcs: 10,
                idle_cycles: 0,
                kernel_cycles: 100,
                branch_ratio: branches as f64 / 500_000.0,
                mem_ratio,
                rd_wr_ratio: 2.0,
                imbalance: 0.05,
                api_cycle_fraction: 0.1,
                softfloat_cycle_fraction: 0.0,
                power_transitions: 3,
                top_functions: Vec::new(),
            },
            tally,
            records: Vec::new(),
            audit: None,
            classes: None,
        }
    }

    fn tally(v: u64, ona: u64, omm: u64, ut: u64, hang: u64) -> Tally {
        Tally {
            vanished: v,
            ona,
            omm,
            ut,
            hang,
            anomaly: 0,
        }
    }

    #[test]
    fn mismatch_computes_sum_of_absolute_differences() {
        let db = Database::from_campaigns(vec![
            fake("is-mpi-2-sira64", tally(50, 10, 10, 20, 10), 100, 10, 0.2),
            fake("is-omp-2-sira64", tally(60, 10, 10, 15, 5), 100, 10, 0.2),
        ]);
        let rows = mismatch_rows(&db, IsaKind::Sira64);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.app, App::Is);
        // Deltas: -10, 0, 0, +5, +5 -> mismatch 20.
        assert!((r.mismatch - 20.0).abs() < 1e-9, "{r:?}");
        assert!((r.delta[0] + 10.0).abs() < 1e-9);
        assert!((r.delta[3] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn hang_index_normalizes_to_single_core() {
        let db = Database::from_campaigns(vec![
            fake("is-mpi-1-sira64", tally(99, 0, 0, 0, 1), 1000, 100, 0.2),
            fake("is-mpi-4-sira64", tally(96, 0, 0, 0, 4), 2000, 150, 0.2),
        ]);
        let rows = hang_index_table(&db, App::Is);
        let one = rows.iter().find(|r| r.cores == 1).unwrap();
        let four = rows.iter().find(|r| r.cores == 4).unwrap();
        assert!((one.index_fb - 1.0).abs() < 1e-9);
        assert!((four.index_fb - 3.0).abs() < 1e-9); // (2000*150)/(1000*100)
        assert!(four.hang_pct > one.hang_pct);
    }

    #[test]
    fn mem_table_reports_shares() {
        let db = Database::from_campaigns(vec![fake(
            "mg-mpi-4-sira32",
            tally(60, 5, 5, 30, 0),
            100,
            10,
            0.225,
        )]);
        let rows = mem_table(
            &db,
            &[Scenario::new(App::Mg, Model::Mpi, 4, IsaKind::Sira32).unwrap()],
        );
        assert_eq!(rows.len(), 1);
        assert!((rows[0].survived_pct - 70.0).abs() < 1e-9);
        assert!((rows[0].ut_pct - 30.0).abs() < 1e-9);
        assert!((rows[0].mem_pct - 22.5).abs() < 1e-9);
        assert_eq!(rows[0].label, "MG MPIx4");
    }

    #[test]
    fn composition_groups_by_model_and_isa() {
        let db = Database::from_campaigns(vec![
            fake("is-mpi-1-sira32", tally(1, 0, 0, 0, 0), 96_200, 10, 0.2),
            fake("cg-mpi-2-sira32", tally(1, 0, 0, 0, 0), 96_200, 10, 0.2),
            fake("is-omp-1-sira32", tally(1, 0, 0, 0, 0), 70_400, 10, 0.2),
        ]);
        let stats = composition_stats(&db);
        let mpi_v7 = stats.iter().find(|s| s.group == "MPI V7").unwrap();
        assert_eq!(mpi_v7.scenarios, 2);
        assert!((mpi_v7.mean_branch_pct - 19.24).abs() < 0.01);
        assert!(mpi_v7.sigma < 1e-9);
        let omp_v7 = stats.iter().find(|s| s.group == "OMP V7").unwrap();
        assert!((omp_v7.mean_branch_pct - 14.08).abs() < 0.01);
    }

    #[test]
    fn masking_comparison_counts_wins() {
        let db = Database::from_campaigns(vec![
            fake("is-mpi-2-sira64", tally(70, 10, 5, 10, 5), 100, 10, 0.2),
            fake("is-omp-2-sira64", tally(60, 10, 10, 15, 5), 100, 10, 0.2),
        ]);
        let summary = masking_comparison(&db);
        assert_eq!(summary.pairs, 1);
        assert_eq!(summary.mpi_wins, 1);
        assert!(summary.max_api_window > 0.0);
    }

    #[test]
    fn workload_summary_aggregates() {
        let db = Database::from_campaigns(vec![
            fake("is-ser-1-sira64", tally(10, 0, 0, 0, 0), 100, 10, 0.2),
            fake("cg-ser-1-sira64", tally(10, 0, 0, 0, 0), 100, 10, 0.2),
        ]);
        let s = workload_summary(&db, IsaKind::Sira64);
        assert_eq!(s.scenarios, 2);
        assert_eq!(s.instructions.1, 500_000);
        assert!(s.total_campaign_hours > 0.0);
        let empty = workload_summary(&db, IsaKind::Sira32);
        assert_eq!(empty.scenarios, 0);
    }

    #[test]
    fn outcome_table_renders_known_rows() {
        let db = Database::from_campaigns(vec![
            fake("is-ser-1-sira64", tally(80, 5, 5, 8, 2), 100, 10, 0.2),
            fake("is-mpi-2-sira64", tally(70, 10, 5, 10, 5), 100, 10, 0.2),
        ]);
        let table = outcome_table(&db, IsaKind::Sira64, Model::Mpi);
        assert!(table.contains("SER-1"));
        assert!(table.contains("MPI-2"));
        assert!(table.contains("80.00"));
        assert!(table.contains("no campaign data"), "missing rows flagged");
    }
}
