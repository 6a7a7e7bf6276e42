//! Per-register criticality mining (§4.1.2): which architectural
//! registers turn faults into crashes. The paper argues ARMv7's small
//! file concentrates faults on critical registers (PC, SP, the r0–r3
//! load/store templates), while ARMv8's 4× larger file dilutes them.

use crate::db::Database;
use fracas_inject::{FaultTarget, Outcome};
use fracas_isa::IsaKind;
use fracas_npb::Scenario;

/// Outcome counts for one architectural register, aggregated over every
/// campaign of one ISA in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegisterCriticality {
    /// Register index (integer file; SIRA-32 r15 is the PC, r13 the SP).
    pub reg: u32,
    /// Faults that landed on this register.
    pub hits: u64,
    /// ... of which ended masked (Vanished/ONA).
    pub masked: u64,
    /// ... of which ended as UT.
    pub ut: u64,
    /// ... of which ended as Hang.
    pub hang: u64,
}

impl RegisterCriticality {
    /// UT+Hang share of this register's hits — the "criticality".
    pub fn crash_rate(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            (self.ut + self.hang) as f64 / self.hits as f64
        }
    }
}

/// Aggregates integer-register fault outcomes for one ISA across the
/// whole database, returned indexed by register (length 16 or 32).
pub fn register_criticality(db: &Database, isa: IsaKind) -> Vec<RegisterCriticality> {
    let n = isa.gpr_count() as usize;
    let mut out: Vec<RegisterCriticality> = (0..n)
        .map(|reg| RegisterCriticality {
            reg: reg as u32,
            ..Default::default()
        })
        .collect();
    for c in db.iter() {
        if Scenario::from_id(&c.id).is_none_or(|s| s.isa != isa) {
            continue;
        }
        for r in &c.records {
            let FaultTarget::Gpr { reg, .. } = r.fault.target else {
                continue;
            };
            let slot = &mut out[reg as usize % n];
            slot.hits += 1;
            match r.outcome {
                Outcome::Vanished | Outcome::Ona => slot.masked += 1,
                Outcome::Ut => slot.ut += 1,
                Outcome::Hang => slot.hang += 1,
                // OMM counts as a hit but neither masked nor a crash;
                // harness anomalies are not guest behaviour at all.
                Outcome::Omm | Outcome::Anomaly => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fracas_inject::{
        CampaignResult, Fault, GoldenSummary, InjectionRecord, ProfileStats, Tally,
    };

    fn record(reg: u32, outcome: Outcome) -> InjectionRecord {
        InjectionRecord {
            index: 0,
            fault: Fault {
                target: FaultTarget::Gpr {
                    core: 0,
                    reg,
                    bit: 0,
                },
                cycle: 0,
                width: 1,
            },
            outcome,
            cycles: 1,
            instructions: 1,
            rep: None,
        }
    }

    #[test]
    fn aggregates_by_register() {
        let result = CampaignResult {
            id: "is-ser-1-sira32".into(),
            faults: 4,
            seed: 0,
            golden: GoldenSummary {
                cycles: 1,
                instructions: 1,
                per_core_instructions: vec![1],
            },
            space_bits: 0,
            profile: ProfileStats {
                instructions: 1,
                cycles: 1,
                branches: 0,
                calls: 0,
                loads: 0,
                stores: 0,
                fp_ops: 0,
                svcs: 0,
                idle_cycles: 0,
                kernel_cycles: 0,
                branch_ratio: 0.0,
                mem_ratio: 0.0,
                rd_wr_ratio: 0.0,
                imbalance: 0.0,
                api_cycle_fraction: 0.0,
                softfloat_cycle_fraction: 0.0,
                power_transitions: 0,
                top_functions: Vec::new(),
            },
            tally: Tally::default(),
            records: vec![
                record(15, Outcome::Ut),
                record(15, Outcome::Hang),
                record(4, Outcome::Vanished),
                record(4, Outcome::Ona),
            ],
            audit: None,
            classes: None,
        };
        let db = Database::from_campaigns(vec![result]);
        let crit = register_criticality(&db, IsaKind::Sira32);
        assert_eq!(crit.len(), 16);
        assert_eq!(crit[15].hits, 2);
        assert!(
            (crit[15].crash_rate() - 1.0).abs() < 1e-12,
            "PC is critical"
        );
        assert_eq!(crit[4].hits, 2);
        assert_eq!(crit[4].crash_rate(), 0.0);
        // Nothing bleeds into the other ISA.
        let crit64 = register_criticality(&db, IsaKind::Sira64);
        assert!(crit64.iter().all(|c| c.hits == 0));
    }
}
