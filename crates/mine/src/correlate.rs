//! The exploratory correlation engine: Pearson coefficients between
//! every profile metric and every outcome rate, across all campaigns —
//! the "mined to uncover variable relationships" step of §3.4.

use crate::db::Database;
use crate::stats::pearson;
use fracas_inject::{CampaignResult, Outcome};

/// The profile metrics the correlation sweep exposes.
pub const METRICS: [&str; 10] = [
    "branch_ratio",
    "mem_ratio",
    "rd_wr_ratio",
    "imbalance",
    "api_cycle_fraction",
    "softfloat_cycle_fraction",
    "calls_x_branches",
    "kernel_cycle_share",
    "idle_cycle_share",
    "power_transitions",
];

/// The outcome rates correlated against.
pub const RATES: [&str; 6] = ["Vanish", "ONA", "OMM", "UT", "Hang", "Masked"];

fn metric_value(c: &CampaignResult, metric: &str) -> f64 {
    let p = &c.profile;
    let core_cycles = (p.cycles as f64).max(1.0);
    match metric {
        "branch_ratio" => p.branch_ratio,
        "mem_ratio" => p.mem_ratio,
        "rd_wr_ratio" => p.rd_wr_ratio,
        "imbalance" => p.imbalance,
        "api_cycle_fraction" => p.api_cycle_fraction,
        "softfloat_cycle_fraction" => p.softfloat_cycle_fraction,
        "calls_x_branches" => (p.calls as f64).ln_1p() + (p.branches as f64).ln_1p(),
        "kernel_cycle_share" => p.kernel_cycles as f64 / core_cycles,
        "idle_cycle_share" => p.idle_cycles as f64 / core_cycles,
        "power_transitions" => (p.power_transitions as f64).ln_1p(),
        _ => 0.0,
    }
}

fn rate_value(c: &CampaignResult, rate: &str) -> f64 {
    match rate {
        "Vanish" => c.tally.pct(Outcome::Vanished),
        "ONA" => c.tally.pct(Outcome::Ona),
        "OMM" => c.tally.pct(Outcome::Omm),
        "UT" => c.tally.pct(Outcome::Ut),
        "Hang" => c.tally.pct(Outcome::Hang),
        "Masked" => c.tally.masking_rate() * 100.0,
        _ => 0.0,
    }
}

/// One cell of the correlation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Correlation {
    /// The profile metric (x).
    pub metric: &'static str,
    /// The outcome rate (y).
    pub rate: &'static str,
    /// Pearson coefficient over all campaigns that passed `filter`.
    pub r: f64,
    /// Sample count.
    pub n: usize,
}

/// Computes the full metric × rate correlation matrix over campaigns
/// selected by `filter` (e.g. one ISA, one model, or everything).
pub fn correlation_matrix(
    db: &Database,
    mut filter: impl FnMut(&CampaignResult) -> bool,
) -> Vec<Correlation> {
    let selected: Vec<&CampaignResult> = db.iter().filter(|c| filter(c)).collect();
    let mut out = Vec::with_capacity(METRICS.len() * RATES.len());
    for metric in METRICS {
        let xs: Vec<f64> = selected.iter().map(|c| metric_value(c, metric)).collect();
        for rate in RATES {
            let ys: Vec<f64> = selected.iter().map(|c| rate_value(c, rate)).collect();
            out.push(Correlation {
                metric,
                rate,
                r: pearson(&xs, &ys),
                n: selected.len(),
            });
        }
    }
    out
}

/// The strongest correlations (by |r|), most interesting first.
pub fn strongest(matrix: &[Correlation], top: usize) -> Vec<Correlation> {
    let mut sorted: Vec<Correlation> = matrix.to_vec();
    sorted.sort_by(|a, b| b.r.abs().partial_cmp(&a.r.abs()).expect("finite r"));
    sorted.truncate(top);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_inject::{GoldenSummary, ProfileStats, Tally};

    fn fake(id: &str, mem_ratio: f64, ut: u64) -> CampaignResult {
        CampaignResult {
            id: id.to_string(),
            faults: 100,
            seed: 0,
            golden: GoldenSummary {
                cycles: 1000,
                instructions: 500,
                per_core_instructions: vec![500],
            },
            space_bits: 0,
            profile: ProfileStats {
                instructions: 500,
                cycles: 1000,
                branches: 50,
                calls: 5,
                loads: 50,
                stores: 25,
                fp_ops: 0,
                svcs: 2,
                idle_cycles: 0,
                kernel_cycles: 10,
                branch_ratio: 0.1,
                mem_ratio,
                rd_wr_ratio: 2.0,
                imbalance: 0.0,
                api_cycle_fraction: 0.0,
                softfloat_cycle_fraction: 0.0,
                power_transitions: 1,
                top_functions: Vec::new(),
            },
            tally: Tally {
                vanished: 100 - ut,
                ut,
                ..Tally::default()
            },
            records: Vec::new(),
            audit: None,
            classes: None,
        }
    }

    #[test]
    fn mem_share_ut_correlation_is_found() {
        // Construct a clean positive relationship.
        let db = Database::from_campaigns(vec![
            fake("is-ser-1-sira64", 0.10, 10),
            fake("mg-ser-1-sira64", 0.20, 20),
            fake("cg-ser-1-sira64", 0.30, 30),
            fake("lu-ser-1-sira64", 0.40, 40),
        ]);
        let matrix = correlation_matrix(&db, |_| true);
        let cell = matrix
            .iter()
            .find(|c| c.metric == "mem_ratio" && c.rate == "UT")
            .expect("cell exists");
        assert!(cell.r > 0.99, "{cell:?}");
        assert_eq!(cell.n, 4);
        // And the Masked column goes the other way.
        let masked = matrix
            .iter()
            .find(|c| c.metric == "mem_ratio" && c.rate == "Masked")
            .expect("cell exists");
        assert!(masked.r < -0.99, "{masked:?}");
    }

    #[test]
    fn strongest_sorts_by_magnitude() {
        let matrix = vec![
            Correlation {
                metric: "a",
                rate: "x",
                r: 0.2,
                n: 4,
            },
            Correlation {
                metric: "b",
                rate: "y",
                r: -0.9,
                n: 4,
            },
            Correlation {
                metric: "c",
                rate: "z",
                r: 0.5,
                n: 4,
            },
        ];
        let top = strongest(&matrix, 2);
        assert_eq!(top[0].metric, "b");
        assert_eq!(top[1].metric, "c");
    }

    #[test]
    fn filter_subsets_samples() {
        let db = Database::from_campaigns(vec![
            fake("is-ser-1-sira64", 0.1, 5),
            fake("is-ser-1-sira32", 0.2, 10),
        ]);
        let matrix = correlation_matrix(&db, |c| c.id.ends_with("sira64"));
        assert!(matrix.iter().all(|c| c.n == 1));
    }
}
