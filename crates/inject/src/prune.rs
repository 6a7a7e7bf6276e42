//! Fault-to-oracle projection for `--prune-classes`: what the prune
//! oracle can decide about each fault target, the oracle coordinates of
//! the targets it fingerprints, and the accounting of targets outside
//! its model.
//!
//! The contract the decided tier of the class plan upholds is
//! *byte-identity*: a pruned campaign's record stream must equal the
//! unpruned campaign's, record for record. That works because a fault
//! the oracle decides provably never diverges the execution — the
//! faulty run commits the golden instruction stream on the golden
//! schedule, so its cycle and instruction counts are the golden run's
//! and its classification is exactly the verdict
//! ([`fracas_analyze::PruneVerdict::Vanished`] → `Vanished`,
//! [`fracas_analyze::PruneVerdict::SilentResidue`] → ONA: same output,
//! same memory, same counts, different exit context hash). Faults the
//! oracle abstains on (and every memory fault — memory lifetimes
//! outlive register lifetimes and the trace carries no addresses) run
//! through the ordinary checkpoint-ladder injector. Text faults are
//! decided by the oracle's decode-differential layer
//! (`fracas_analyze::textfault`).
//!
//! [`prune_cap`] is one exhaustive `match` on the fault target. Targets
//! the oracle cannot fingerprint never prune silently: the class plan
//! counts each under its registry domain ([`UnmodeledCounts`]). Targets
//! with only the static landing rule ([`PruneCap::StaticOnly`] — the
//! uncore and skip domains) prune *only* the provably-unapplied case: a
//! fault whose timing core never reaches its injection cycle is never
//! applied, so its run is the golden run and Vanished with golden
//! counts is exact. Every other fault of such a domain runs for real
//! and is counted under its domain. Both paths keep pruned databases
//! byte-identical to unpruned ones.

use crate::domain::{domains, Domain, DOMAIN_COUNT};
use crate::{Fault, FaultTarget};
use fracas_analyze::PruneTarget;
use fracas_isa::IsaKind;

/// What the prune oracle can decide about one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneCap {
    /// Fully fingerprintable at these interval-oracle coordinates: the
    /// fault's timing core and the oracle-facing location, with the
    /// injector's wrap rules applied.
    Oracle(usize, PruneTarget),
    /// Only the landing rule applies: a fault whose timing core never
    /// reaches its cycle is provably Vanished (the run is the golden
    /// run); an applied fault runs for real, counted under its domain.
    StaticOnly,
    /// The oracle has no model at all: the fault runs for real, counted
    /// under its domain.
    Unmodeled,
}

/// What the prune oracle can decide about `fault` on `isa`. A
/// fingerprintable fault's oracle core is its timing core, the core
/// whose clock its cycle counts.
pub fn prune_cap(isa: IsaKind, fault: &Fault) -> PruneCap {
    let target = match fault.target {
        FaultTarget::Gpr { reg, .. } => match isa {
            IsaKind::Sira32 if reg % 16 == 15 => PruneTarget::Pc,
            IsaKind::Sira32 => PruneTarget::Gpr { reg: reg % 16 },
            IsaKind::Sira64 => PruneTarget::Gpr { reg: reg % 32 },
        },
        FaultTarget::Fpr { reg, .. } => match isa {
            // Present in the machine (softfloat spills) but outside both
            // the ISA's architected state and the exit context hash, so
            // the oracle has no verdict path for it.
            IsaKind::Sira32 => return PruneCap::Unmodeled,
            IsaKind::Sira64 => PruneTarget::Fpr { reg: reg % 32 },
        },
        FaultTarget::Flag { which, .. } => {
            let mut mask = 0u8;
            for i in 0..fault.width.max(1) {
                mask |= 1 << ((which + i) % 4);
            }
            PruneTarget::Flags { mask }
        }
        FaultTarget::Text { word, bit } => {
            // `flip_text` wraps the bit index within the word, so any
            // width folds to one XOR mask on one word.
            let mut mask = 0u32;
            for i in 0..fault.width.max(1) {
                mask |= 1 << ((bit + i) % 32);
            }
            PruneTarget::Text { word, mask }
        }
        // Memory lifetimes outlive register lifetimes, and the trace
        // does not carry addresses.
        FaultTarget::Mem { .. } => return PruneCap::Unmodeled,
        // No flipped bit to trace: the interval oracle has no
        // fingerprint for the dropped instruction's effects.
        FaultTarget::InstrSkip { .. } => return PruneCap::StaticOnly,
        // Whether a corrupted tag/state/LRU word ever surfaces depends
        // on the access stream and coherence traffic, which the
        // register-interval trace does not carry.
        FaultTarget::CacheState { .. } => return PruneCap::StaticOnly,
        // Scheduler and protection state live outside the traced
        // architectural register file.
        FaultTarget::RunQueue { .. } | FaultTarget::PagePerm { .. } => return PruneCap::StaticOnly,
        // Whether a corrupted pending store ever surfaces depends on the
        // forwarding window and the drain point, which the trace does
        // not carry.
        FaultTarget::StoreBuf { .. } => return PruneCap::StaticOnly,
        // Whether the corrupted copy is ever served (versus silently
        // evicted) depends on the access stream, which the trace does
        // not carry.
        FaultTarget::CacheData { .. } => return PruneCap::StaticOnly,
    };
    PruneCap::Oracle(fault.timing_core(), target)
}

/// Per-campaign tallies of faults outside the oracle's model, one
/// bucket per registry [`Domain`]. Surfaced by the class statistics and
/// the stats bins so "ran for real" and "could not even be considered"
/// stay distinguishable — historically SIRA-32 FPR faults pruned as
/// `None`, indistinguishable from oracle abstentions. `record` and
/// `count` panic on a descriptor that is not a registry entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnmodeledCounts([u32; DOMAIN_COUNT]);

impl UnmodeledCounts {
    /// Bumps the bucket of `domain`.
    pub fn record(&mut self, domain: &Domain) {
        self.0[domain.index()] += 1;
    }

    /// Faults counted under `domain`.
    pub fn count(&self, domain: &Domain) -> u32 {
        self.0[domain.index()]
    }

    /// Folds another tally into this one, bucket by bucket.
    pub fn merge(&mut self, other: &UnmodeledCounts) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// Total faults outside the model.
    pub fn total(&self) -> u32 {
        self.0.iter().sum()
    }

    /// `"3 fpr + 2 mem"`-style breakdown in registry order (empty when
    /// zero).
    pub fn breakdown(&self) -> String {
        let parts: Vec<String> = domains()
            .iter()
            .zip(self.0)
            .filter(|&(_, n)| n > 0)
            .map(|(d, n)| format!("{n} {}", d.name))
            .collect();
        parts.join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{CACHE, FPR, MEM, SKIP};

    /// A single-bit fault on `target` at cycle 0.
    fn f(target: FaultTarget) -> Fault {
        Fault {
            target,
            cycle: 0,
            width: 1,
        }
    }

    #[test]
    fn register_indices_wrap_like_the_injector() {
        // SIRA-32: reg 15 (and 31, which wraps onto it) is the PC.
        let pc = FaultTarget::Gpr {
            core: 1,
            reg: 31,
            bit: 0,
        };
        assert_eq!(
            prune_cap(IsaKind::Sira32, &f(pc)),
            PruneCap::Oracle(1, PruneTarget::Pc)
        );
        let r17 = FaultTarget::Gpr {
            core: 0,
            reg: 17,
            bit: 5,
        };
        assert_eq!(
            prune_cap(IsaKind::Sira32, &f(r17)),
            PruneCap::Oracle(0, PruneTarget::Gpr { reg: 1 })
        );
        assert_eq!(
            prune_cap(IsaKind::Sira64, &f(r17)),
            PruneCap::Oracle(0, PruneTarget::Gpr { reg: 17 })
        );
    }

    #[test]
    fn flag_upsets_spread_their_width() {
        // A width-2 upset at V (3) wraps onto N (0).
        let fault = Fault {
            target: FaultTarget::Flag { core: 0, which: 3 },
            cycle: 0,
            width: 2,
        };
        assert_eq!(
            prune_cap(IsaKind::Sira64, &fault),
            PruneCap::Oracle(
                0,
                PruneTarget::Flags {
                    mask: fracas_analyze::FLAG_V | fracas_analyze::FLAG_N
                }
            )
        );
    }

    #[test]
    fn long_lived_and_unmodelled_targets_always_run() {
        let mem = FaultTarget::Mem { addr: 0, bit: 0 };
        assert_eq!(prune_cap(IsaKind::Sira64, &f(mem)), PruneCap::Unmodeled);
        // The SIRA-32 FPR regression: a machine-present but ISA-absent
        // register must be unmodeled, not fall into the abstain path.
        let fpr = FaultTarget::Fpr {
            core: 0,
            reg: 2,
            bit: 0,
        };
        assert_eq!(prune_cap(IsaKind::Sira32, &f(fpr)), PruneCap::Unmodeled);
        assert_eq!(
            prune_cap(IsaKind::Sira64, &f(fpr)),
            PruneCap::Oracle(0, PruneTarget::Fpr { reg: 2 })
        );
    }

    #[test]
    fn uncore_targets_admit_only_the_landing_rule() {
        // No silent `None` path for any uncore domain.
        for target in [
            FaultTarget::CacheState {
                core: 0,
                unit: 1,
                line: 3,
                bit: 33,
            },
            FaultTarget::RunQueue { slot: 0, bit: 5 },
            FaultTarget::PagePerm {
                pid: 1,
                page: 2,
                bit: 0,
            },
            FaultTarget::InstrSkip { core: 1 },
            FaultTarget::StoreBuf {
                core: 0,
                entry: 2,
                bit: 40,
            },
            FaultTarget::CacheData {
                core: 1,
                unit: 1,
                line: 0,
                bit: 12,
            },
        ] {
            for isa in IsaKind::ALL {
                assert_eq!(
                    prune_cap(isa, &f(target)),
                    PruneCap::StaticOnly,
                    "{target:?}"
                );
            }
        }
    }

    #[test]
    fn text_targets_fold_their_width_into_one_mask() {
        // A text fault maps onto the decode-differential oracle: one
        // word, one XOR mask, timed against core 0. Multi-bit upsets
        // wrap within the word exactly like `Machine::flip_text`.
        let single = f(FaultTarget::Text { word: 7, bit: 3 });
        assert_eq!(
            prune_cap(IsaKind::Sira64, &single),
            PruneCap::Oracle(
                0,
                PruneTarget::Text {
                    word: 7,
                    mask: 0b1000
                }
            )
        );
        let wrapping = Fault {
            target: FaultTarget::Text { word: 2, bit: 31 },
            cycle: 0,
            width: 2,
        };
        assert_eq!(
            prune_cap(IsaKind::Sira32, &wrapping),
            PruneCap::Oracle(
                0,
                PruneTarget::Text {
                    word: 2,
                    mask: (1 << 31) | 1
                }
            )
        );
    }

    #[test]
    fn unmodeled_counts_accumulate_and_describe_themselves() {
        let mut c = UnmodeledCounts::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.breakdown(), "");
        c.record(&FPR);
        c.record(&FPR);
        c.record(&MEM);
        c.record(&SKIP);
        assert_eq!(c.total(), 4);
        // Registry order: the skip latch sits in the core block, before
        // the memory tail.
        assert_eq!(c.breakdown(), "2 fpr + 1 skip + 1 mem");
        assert_eq!(c.count(&SKIP), 1);
        assert_eq!(c.count(&CACHE), 0);
    }

    #[test]
    fn merge_folds_every_bucket() {
        // Fill every bucket with a distinct count so a dropped bucket
        // cannot cancel out.
        let mut a = UnmodeledCounts::default();
        let mut b = UnmodeledCounts::default();
        for (i, &domain) in domains().iter().enumerate() {
            for _ in 0..=i {
                a.record(domain);
            }
            b.record(domain);
        }
        a.merge(&b);
        for (i, &domain) in domains().iter().enumerate() {
            assert_eq!(a.count(domain), i as u32 + 2, "{}", domain.name);
        }
        assert_eq!(a.total(), 65);
    }
}
