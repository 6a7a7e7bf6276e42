//! Sampled oracle-vs-execution auditing
//! ([`CampaignConfig::oracle_audit`](crate::CampaignConfig::oracle_audit)).
//!
//! The prune oracle's `Some` verdicts are *claims of proof*: a pruned
//! campaign synthesizes those records without executing them, so an
//! oracle bug silently corrupts the database while every differential
//! that compares pruned against pruned stays green. The audit layer
//! makes that bug class structurally unrepeatable: for a deterministic,
//! seed-derived fraction of the oracle-pruned faults, the campaign
//! *also* executes the real injection and diffs the classified outcome
//! against the verdict.
//!
//! Three properties matter:
//!
//! * **The database is untouched.** The audited execution's outcome is
//!   only compared, never recorded — with or without auditing (and at
//!   any rate) the record stream stays byte-identical, preserving the
//!   prune mode's central contract. A mismatch is surfaced through the
//!   per-workload [`OracleAuditReport`] and fails the sweep.
//! * **Selection is a pure function of `(campaign seed, fault index)`.**
//!   [`audit_selected`] derives the subset from the same per-workload
//!   seed that samples the fault list, so the audited subset — and
//!   therefore the report — is identical across thread counts, batch
//!   sizes and crash/resume boundaries.
//! * **Audit results ride the record sink.** Each audited entry is
//!   appended to the JSONL sink *before* its injection record, in the
//!   same flushed write, so a mid-campaign kill can never persist a
//!   pruned record whose audit entry was lost: on resume, a replayed
//!   record's audit entry is always replayed with it, and a torn tail
//!   re-runs both.

use crate::Outcome;
use serde::{Deserialize, Serialize};

/// One audited claim: the outcome a record carries without an
/// own-landing execution, re-checked by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Fault-list index of the audited record.
    pub index: u32,
    /// The outcome the record carries: the oracle's verdict for a
    /// decided fault, the representative's outcome for a class member,
    /// the late-landed run's outcome for a representative started
    /// inside its landing interval.
    pub oracle: Outcome,
    /// The outcome real execution from before the fault's own landing
    /// classified.
    pub executed: Outcome,
}

impl AuditEntry {
    /// Whether the oracle's claim held up.
    #[must_use]
    pub fn is_match(&self) -> bool {
        self.oracle == self.executed
    }
}

/// The per-workload audit report: every audited entry of the kept
/// prefix, index-sorted. Faults outside the oracle's model always
/// execute, so nothing about them is auditable; the class statistics
/// ([`crate::ClassStats::unmodeled`]) count them.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleAuditReport {
    /// Workload id the report covers.
    pub id: String,
    /// Audited entries in fault-index order.
    pub entries: Vec<AuditEntry>,
}

impl OracleAuditReport {
    /// The entries whose executed outcome contradicts the oracle.
    pub fn mismatches(&self) -> impl Iterator<Item = &AuditEntry> {
        self.entries.iter().filter(|e| !e.is_match())
    }

    /// Number of contradicted entries.
    #[must_use]
    pub fn mismatch_count(&self) -> usize {
        self.mismatches().count()
    }

    /// One-line human summary (`<id>: N audited, M mismatch(es)`). The
    /// `audited, M mismatch` text is load-bearing: CI greps for it.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: {} audited, {} mismatch(es)",
            self.id,
            self.entries.len(),
            self.mismatch_count(),
        )
    }
}

/// Whether fault `index` of the campaign seeded with `seed` (the
/// per-workload seed, `campaign_seed`) is in the audited subset at
/// sampling `rate`.
///
/// A splitmix64 finalizer over `seed ^ index` gives every index an
/// independent uniform draw in `[0, 1)`; the draw is compared against
/// `rate`. Pure in its inputs, so the subset is identical across thread
/// counts, batch sizes and resumes — and changes completely under a
/// different seed, like the fault list itself.
#[must_use]
pub fn audit_selected(seed: u64, index: usize, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let mut z = seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z >> 11) as f64) / ((1u64 << 53) as f64) < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_rate_shaped() {
        let seed = 0xF_ACA5;
        let picked: Vec<usize> = (0..10_000)
            .filter(|&i| audit_selected(seed, i, 0.05))
            .collect();
        let again: Vec<usize> = (0..10_000)
            .filter(|&i| audit_selected(seed, i, 0.05))
            .collect();
        assert_eq!(picked, again, "selection must be pure");
        // ~500 expected; 6 sigma ≈ 130.
        assert!(
            (350..=650).contains(&picked.len()),
            "rate 0.05 selected {} of 10k",
            picked.len()
        );
        // A different seed draws a different subset.
        let other: Vec<usize> = (0..10_000)
            .filter(|&i| audit_selected(seed + 1, i, 0.05))
            .collect();
        assert_ne!(picked, other);
    }

    #[test]
    fn rate_edges() {
        assert!(!audit_selected(1, 2, 0.0));
        assert!(!audit_selected(1, 2, -1.0));
        assert!(audit_selected(1, 2, 1.0));
        // Monotone in the rate: anything selected at r is selected at
        // every r' > r.
        for i in 0..1_000 {
            if audit_selected(7, i, 0.02) {
                assert!(audit_selected(7, i, 0.2));
            }
        }
    }

    #[test]
    fn report_counts_mismatches() {
        let report = OracleAuditReport {
            id: "x".into(),
            entries: vec![
                AuditEntry {
                    index: 0,
                    oracle: Outcome::Vanished,
                    executed: Outcome::Vanished,
                },
                AuditEntry {
                    index: 3,
                    oracle: Outcome::Ona,
                    executed: Outcome::Vanished,
                },
            ],
        };
        assert_eq!(report.mismatch_count(), 1);
        assert_eq!(report.summary(), "x: 2 audited, 1 mismatch(es)");
    }
}
