//! # fracas-mine — the cross-layer data-mining engine
//!
//! The reproduction of the paper's §3.4 tool: a statistics engine that
//! joins fault-injection outcome databases ([`fracas_inject::CampaignResult`])
//! with the golden-run software/µarch profiles and mines the
//! relationships reported in §4:
//!
//! * per-scenario outcome-rate tables (Figures 2a/2b, 3a/3b),
//! * the MPI-vs-OpenMP per-class **mismatch** (Figures 2c/3c),
//! * branch-composition statistics per macro scenario (§4.1.3),
//! * the normalized **F*B index** (function calls × branches) against
//!   Hang incidence (Table 2),
//! * memory-transaction shares and `RD/WR` ratios against UT (Tables 3–4),
//! * masking-rate comparisons over every MPI/OMP pair, workload balance
//!   and vulnerability windows (§4.2.2),
//! * Pearson correlation over arbitrary metric pairs,
//! * the Table 1 workload summary and the Figure 1 trend data.
//!
//! A class-pruned campaign's records are byte-identical to a full
//! campaign's, so every miner reads them as they are; its collapse
//! accounting is `fracas_inject::ClassStats`.

mod correlate;
mod db;
mod registers;
mod report;
mod stats;
mod trends;

pub use correlate::{correlation_matrix, strongest, Correlation, METRICS, RATES};
pub use db::Database;
pub use registers::{register_criticality, RegisterCriticality};
pub use report::{
    composition_stats, hang_index_table, labeled_outcome_table, masking_comparison, mem_table,
    mismatch_rows, mismatch_table, outcome_table, workload_summary, CompositionStat, HangIndexRow,
    MaskingSummary, MemRow, MismatchRow, WorkloadSummary,
};
pub use stats::{mean, pearson, std_dev};
pub use trends::{trend_rows, TrendPoint};
