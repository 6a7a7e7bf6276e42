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
//! the oracle cannot fingerprint never prune silently: each names an
//! explicit [`Unmodeled`] bucket. Targets with only the static landing
//! rule ([`PruneCap::StaticOnly`] — the uncore and skip domains) prune
//! *only* the provably-unapplied case: a fault whose timing core never
//! reaches its injection cycle is never applied, so its run is the
//! golden run and Vanished with golden counts is exact. Every other
//! fault of such a domain runs for real and is tallied in its bucket.
//! Both paths keep pruned databases byte-identical to unpruned ones.

use crate::{Fault, FaultTarget};
use fracas_analyze::PruneTarget;
use fracas_isa::IsaKind;

/// Why a fault target is outside the oracle's model. Such faults always
/// run for real (and form singleton classes under `--prune-classes`);
/// the bucket exists so prune/audit accounting can *say so* instead of
/// silently falling through — historically SIRA-32 FPR faults pruned as
/// `None` indistinguishably from oracle abstentions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unmodeled {
    /// A SIRA-32 FP register: present in the machine (softfloat spills)
    /// but outside both the ISA's architected state and the exit
    /// context hash, so the oracle has no verdict path for it.
    Sira32Fpr,
    /// A data-memory bit: memory lifetimes outlive register lifetimes
    /// and the trace does not carry addresses.
    Mem,
    /// A cache metadata bit: whether a corrupted tag/state/LRU word ever
    /// surfaces depends on the access stream and coherence traffic,
    /// which the register-interval trace does not carry.
    Cache,
    /// A kernel-control word (run-queue entry or page permission):
    /// scheduler and protection state live outside the traced
    /// architectural register file.
    KernelCtl,
    /// An applied instruction-skip: there is no flipped bit to trace, so
    /// the interval oracle has no fingerprint for the dropped
    /// instruction's effects.
    Skip,
    /// A store-buffer entry bit: whether a corrupted pending store ever
    /// surfaces depends on the forwarding window and the drain point,
    /// which the register-interval trace does not carry.
    StoreBuf,
    /// A cache-line data bit: whether the corrupted copy is ever served
    /// (versus silently evicted) depends on the access stream, which
    /// the register-interval trace does not carry.
    CacheData,
}

impl Unmodeled {
    /// Every reason, in declaration order.
    pub const ALL: [Unmodeled; 7] = [
        Unmodeled::Sira32Fpr,
        Unmodeled::Mem,
        Unmodeled::Cache,
        Unmodeled::KernelCtl,
        Unmodeled::Skip,
        Unmodeled::StoreBuf,
        Unmodeled::CacheData,
    ];

    /// Stable display name (audit reports, stats bins).
    pub fn name(self) -> &'static str {
        match self {
            Unmodeled::Sira32Fpr => "sira32-fpr",
            Unmodeled::Mem => "mem",
            Unmodeled::Cache => "cache",
            Unmodeled::KernelCtl => "kernelctl",
            Unmodeled::Skip => "skip",
            Unmodeled::StoreBuf => "storebuf",
            Unmodeled::CacheData => "cachedata",
        }
    }
}

/// What the prune oracle can decide about one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneCap {
    /// Fully fingerprintable at these interval-oracle coordinates: the
    /// fault's timing core and the oracle-facing location, with the
    /// injector's wrap rules applied.
    Oracle(usize, PruneTarget),
    /// Only the landing rule applies: a fault whose timing core never
    /// reaches its cycle is provably Vanished (the run is the golden
    /// run); an applied fault runs for real, counted in the named
    /// bucket.
    StaticOnly(Unmodeled),
    /// The oracle has no model at all: the fault runs for real, counted
    /// in the named bucket.
    Unmodeled(Unmodeled),
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
            IsaKind::Sira32 => return PruneCap::Unmodeled(Unmodeled::Sira32Fpr),
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
        FaultTarget::Mem { .. } => return PruneCap::Unmodeled(Unmodeled::Mem),
        FaultTarget::InstrSkip { .. } => return PruneCap::StaticOnly(Unmodeled::Skip),
        FaultTarget::CacheState { .. } => return PruneCap::StaticOnly(Unmodeled::Cache),
        FaultTarget::RunQueue { .. } | FaultTarget::PagePerm { .. } => {
            return PruneCap::StaticOnly(Unmodeled::KernelCtl)
        }
        FaultTarget::StoreBuf { .. } => return PruneCap::StaticOnly(Unmodeled::StoreBuf),
        FaultTarget::CacheData { .. } => return PruneCap::StaticOnly(Unmodeled::CacheData),
    };
    PruneCap::Oracle(fault.timing_core(), target)
}

/// Per-campaign tallies of faults outside the oracle's model, one
/// bucket per [`Unmodeled`] reason. Surfaced by the class statistics and
/// the stats bins so "ran for real" and "could not even be considered"
/// stay distinguishable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnmodeledCounts([u32; Unmodeled::ALL.len()]);

impl UnmodeledCounts {
    /// Bumps the bucket for `reason`.
    pub fn record(&mut self, reason: Unmodeled) {
        self.0[reason as usize] += 1;
    }

    /// Occurrences of `reason`.
    pub fn count(&self, reason: Unmodeled) -> u32 {
        self.0[reason as usize]
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

    /// `"3 sira32-fpr + 2 mem"`-style breakdown (empty when zero).
    pub fn breakdown(&self) -> String {
        let mut parts = Vec::new();
        for u in Unmodeled::ALL {
            let n = self.count(u);
            if n > 0 {
                parts.push(format!("{n} {}", u.name()));
            }
        }
        parts.join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fault`'s oracle coordinates, or its bucket when it must run.
    fn mapped(isa: IsaKind, fault: &Fault) -> Result<(usize, PruneTarget), Unmodeled> {
        match prune_cap(isa, fault) {
            PruneCap::Oracle(core, target) => Ok((core, target)),
            PruneCap::StaticOnly(reason) | PruneCap::Unmodeled(reason) => Err(reason),
        }
    }

    /// The bucket of a target the interval oracle cannot model.
    fn bucket(target: &FaultTarget) -> Unmodeled {
        let fault = Fault {
            target: *target,
            cycle: 0,
            width: 1,
        };
        match prune_cap(IsaKind::Sira64, &fault) {
            PruneCap::StaticOnly(reason) | PruneCap::Unmodeled(reason) => reason,
            PruneCap::Oracle(..) => panic!("{target:?} is oracle-mapped"),
        }
    }

    #[test]
    fn register_indices_wrap_like_the_injector() {
        let f = |target| Fault {
            target,
            cycle: 0,
            width: 1,
        };
        // SIRA-32: reg 15 (and 31, which wraps onto it) is the PC.
        let pc = FaultTarget::Gpr {
            core: 1,
            reg: 31,
            bit: 0,
        };
        assert_eq!(mapped(IsaKind::Sira32, &f(pc)), Ok((1, PruneTarget::Pc)));
        let r17 = FaultTarget::Gpr {
            core: 0,
            reg: 17,
            bit: 5,
        };
        assert_eq!(
            mapped(IsaKind::Sira32, &f(r17)),
            Ok((0, PruneTarget::Gpr { reg: 1 }))
        );
        assert_eq!(
            mapped(IsaKind::Sira64, &f(r17)),
            Ok((0, PruneTarget::Gpr { reg: 17 }))
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
            mapped(IsaKind::Sira64, &fault),
            Ok((
                0,
                PruneTarget::Flags {
                    mask: fracas_analyze::FLAG_V | fracas_analyze::FLAG_N
                }
            ))
        );
    }

    #[test]
    fn long_lived_and_unmodelled_targets_report_their_reason() {
        let f = |target| Fault {
            target,
            cycle: 0,
            width: 1,
        };
        assert_eq!(
            bucket(&FaultTarget::Mem { addr: 0, bit: 0 }),
            Unmodeled::Mem
        );
        // The SIRA-32 FPR regression: a machine-present but ISA-absent
        // register must land in an explicit bucket, not vanish into the
        // abstain path.
        let fpr = FaultTarget::Fpr {
            core: 0,
            reg: 2,
            bit: 0,
        };
        assert_eq!(mapped(IsaKind::Sira32, &f(fpr)), Err(Unmodeled::Sira32Fpr));
        assert_eq!(
            mapped(IsaKind::Sira64, &f(fpr)),
            Ok((0, PruneTarget::Fpr { reg: 2 }))
        );
    }

    #[test]
    fn uncore_targets_land_in_their_own_buckets() {
        // Every new domain names its bucket: no silent `None` path.
        let cache = FaultTarget::CacheState {
            core: 0,
            unit: 1,
            line: 3,
            bit: 33,
        };
        assert_eq!(bucket(&cache), Unmodeled::Cache);
        assert_eq!(
            bucket(&FaultTarget::RunQueue { slot: 0, bit: 5 }),
            Unmodeled::KernelCtl
        );
        assert_eq!(
            bucket(&FaultTarget::PagePerm {
                pid: 1,
                page: 2,
                bit: 0
            }),
            Unmodeled::KernelCtl
        );
        assert_eq!(bucket(&FaultTarget::InstrSkip { core: 1 }), Unmodeled::Skip);
        assert_eq!(
            bucket(&FaultTarget::StoreBuf {
                core: 0,
                entry: 2,
                bit: 40
            }),
            Unmodeled::StoreBuf
        );
        assert_eq!(
            bucket(&FaultTarget::CacheData {
                core: 1,
                unit: 1,
                line: 0,
                bit: 12
            }),
            Unmodeled::CacheData
        );
    }

    #[test]
    fn text_targets_fold_their_width_into_one_mask() {
        // A text fault maps onto the decode-differential oracle: one
        // word, one XOR mask, timed against core 0. Multi-bit upsets
        // wrap within the word exactly like `Machine::flip_text`.
        let single = Fault {
            target: FaultTarget::Text { word: 7, bit: 3 },
            cycle: 0,
            width: 1,
        };
        assert_eq!(
            mapped(IsaKind::Sira64, &single),
            Ok((
                0,
                PruneTarget::Text {
                    word: 7,
                    mask: 0b1000
                }
            ))
        );
        let wrapping = Fault {
            target: FaultTarget::Text { word: 2, bit: 31 },
            cycle: 0,
            width: 2,
        };
        assert_eq!(
            mapped(IsaKind::Sira32, &wrapping),
            Ok((
                0,
                PruneTarget::Text {
                    word: 2,
                    mask: (1 << 31) | 1
                }
            ))
        );
    }

    #[test]
    fn unmodeled_counts_accumulate_and_describe_themselves() {
        let mut c = UnmodeledCounts::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.breakdown(), "");
        c.record(Unmodeled::Sira32Fpr);
        c.record(Unmodeled::Sira32Fpr);
        c.record(Unmodeled::Mem);
        c.record(Unmodeled::Skip);
        assert_eq!(c.total(), 4);
        assert_eq!(c.breakdown(), "2 sira32-fpr + 1 mem + 1 skip");
        assert_eq!(c.count(Unmodeled::Skip), 1);
        assert_eq!(c.count(Unmodeled::Cache), 0);
    }

    #[test]
    fn merge_folds_every_bucket() {
        // Fill every bucket with a distinct count so a dropped bucket
        // cannot cancel out.
        let mut a = UnmodeledCounts::default();
        let mut b = UnmodeledCounts::default();
        for (i, reason) in Unmodeled::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                a.record(reason);
            }
            b.record(reason);
        }
        a.merge(&b);
        for (i, reason) in Unmodeled::ALL.into_iter().enumerate() {
            assert_eq!(a.count(reason), i as u32 + 2, "{}", reason.name());
        }
        assert_eq!(a.total(), 35);
    }
}
