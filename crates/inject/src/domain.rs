//! The declarative fault-domain registry.
//!
//! One [`Domain`] descriptor per [`FaultTarget`] family holds the
//! family's data: its name and sweep flag, how many bits its state
//! contributes to the uniform sampling space, how a sampled offset
//! becomes a concrete target, and whether the struck state is
//! short-lived enough to probe for golden reconvergence.
//! `sample_space`, `Fault::targets_ephemeral_state` and the sweep's
//! `--*-faults` flags read this table, and an entry is the identity the
//! prune accounting counts unmodeled faults under
//! ([`crate::UnmodeledCounts`]).
//!
//! Behaviour that takes a [`FaultTarget`] is not in the table: each
//! such rule is one exhaustive `match` on the enum, so a new variant
//! fails to compile until every rule names it. The rules are
//! [`FaultTarget::domain`] (this module),
//! [`Fault::timing_core`](crate::Fault::timing_core) and the flip hook
//! behind [`Fault::apply`](crate::Fault::apply) (`fault.rs`),
//! [`crate::prune_cap`] (the prune capability and the oracle
//! coordinates) and the class key's bit coordinate (`classes.rs`).
//!
//! ## Layout contract
//!
//! The uniform space is ordered exactly as the pre-registry sampler
//! ordered it, so campaign databases are byte-identical across the
//! refactor: first the per-core block — every [`Placement::CoreBlock`]
//! domain in registry order (GPRs, FPRs, flags, then the skip latch),
//! repeated core-major — then each [`Placement::Tail`] domain in
//! registry order (memory, text, cache, kernel control, store buffer,
//! cache data). A domain disabled in the [`FaultSpace`] contributes
//! zero bits, so enabling none of the new domains reproduces the
//! historical space bit for bit — in particular the value-bearing
//! store-buffer and cache-data domains sit *after* every legacy
//! domain, so legacy sweeps draw the same faults they always did.

use crate::fault::{FaultSpace, FaultTarget};
use fracas_isa::IsaKind;
use fracas_kernel::BootSpec;

/// Bits per cache line in the [`CacheState`](FaultTarget::CacheState)
/// domain: a 32-bit tag, 2 MESI-state bits and 6 LRU-stamp bits (see
/// `fracas_mem::MemSystem::flip_bit`).
pub const CACHE_LINE_BITS: u64 = 40;

/// Bits per run-queue entry in the kernel-control domain (one `Tid`
/// word).
pub const RUNQ_ENTRY_BITS: u64 = 32;

/// Bits per page-permission entry in the kernel-control domain
/// (read/write/execute).
pub const PAGE_PERM_BITS: u64 = 3;

/// Bits per store-buffer entry in the
/// [`StoreBuf`](FaultTarget::StoreBuf) domain: a 32-bit address, a
/// 64-bit data word and the valid bit (see
/// `fracas_mem::StoreBuffer::flip`). The MBU wrap modulus: adjacent
/// upset bits never cross into the next entry.
pub const STOREBUF_ENTRY_BITS: u64 = fracas_mem::STORE_ENTRY_BITS as u64;

/// Bits per cache line's data copy in the
/// [`CacheData`](FaultTarget::CacheData) domain (64 bytes — see
/// `fracas_mem::MemSystem::flip_data_bit`).
pub const CACHE_DATA_LINE_BITS: u64 = fracas_mem::MemSystem::DATA_LINE_BITS as u64;

/// Where a domain's bits sit in the uniform space layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Replicated per core inside the core-major block ([`Domain::bits`]
    /// returns *per-core* bits).
    CoreBlock,
    /// Appended once after the core block ([`Domain::bits`] returns
    /// *total* bits).
    Tail,
}

/// The sampling-space dimensions one campaign draws from: the processor
/// model (ISA, cores), the enabled [`FaultSpace`], and the per-workload
/// sizes of the state arrays the tail domains cover. Uncore dimensions
/// are *declared capacities* (the sizes of the underlying SRAM arrays),
/// not occupancies: a strike sampled past the current occupancy — an
/// empty run-queue slot, an unmapped page — lands in a no-op flip, just
/// as a real particle strike in an idle SRAM word would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceDims {
    /// Guest ISA.
    pub isa: IsaKind,
    /// Core count.
    pub cores: u32,
    /// Enabled fault space.
    pub space: FaultSpace,
    /// Encoded text words (the text domain).
    pub text_words: u32,
    /// Declared run-queue capacity (the kernel-control domain):
    /// every thread the workload can ever create.
    pub runq_slots: u32,
    /// Process count (the page-permission half of kernel control).
    pub procs: u32,
    /// Pages per process permission map.
    pub pages_per_proc: u32,
    /// Lines per L1 cache unit (each core has an L1I and an L1D).
    pub l1_lines: u32,
    /// Lines in the shared L2.
    pub l2_lines: u32,
    /// Entries per core's store buffer.
    pub sb_entries: u32,
}

impl SpaceDims {
    /// Dimensions with every uncore array empty — the
    /// [`crate::sample_faults`] view, where only registers, memory and
    /// text exist. Uncore domains contribute zero bits even if enabled.
    pub fn bare(isa: IsaKind, cores: u32, space: FaultSpace, text_words: u32) -> SpaceDims {
        SpaceDims {
            isa,
            cores,
            space,
            text_words,
            runq_slots: 0,
            procs: 0,
            pages_per_proc: 0,
            l1_lines: 0,
            l2_lines: 0,
            sb_entries: 0,
        }
    }

    /// Dimensions of a workload's campaign: uncore capacities derived
    /// from the boot spec (scheduler capacity, memory layout, cache
    /// geometry) and the text size from the image.
    pub fn of(
        isa: IsaKind,
        cores: u32,
        text_words: u32,
        spec: &BootSpec,
        space: FaultSpace,
    ) -> SpaceDims {
        SpaceDims {
            isa,
            cores,
            space,
            text_words,
            // Main thread plus `omp_threads` forked workers per process.
            runq_slots: spec.processes * (spec.omp_threads + 1),
            procs: spec.processes,
            pages_per_proc: spec.layout.mem_size.div_ceil(fracas_mem::PAGE_SIZE),
            l1_lines: spec.cache.l1_lines(),
            l2_lines: spec.cache.l2_lines(),
            sb_entries: fracas_mem::STORE_BUFFER_ENTRIES as u32,
        }
    }

    /// Per-core bits of the core-major block.
    pub(crate) fn core_block_bits(&self) -> u64 {
        domains()
            .iter()
            .filter(|d| d.placement == Placement::CoreBlock)
            .map(|d| (d.bits)(self))
            .sum()
    }

    /// Total injectable bits of the whole space — what campaign
    /// reporting records as `space_bits` and the sampler draws from.
    pub fn total_bits(&self) -> u64 {
        let tail: u64 = domains()
            .iter()
            .filter(|d| d.placement == Placement::Tail)
            .map(|d| (d.bits)(self))
            .sum();
        self.core_block_bits() * u64::from(self.cores) + tail
    }
}

/// One fault-target family's declarative descriptor.
#[derive(Debug)]
pub struct Domain {
    /// Stable name (CLI docs, stats bins).
    pub name: &'static str,
    /// Sweep flag stem (`--{flag}-faults`), `None` for domains that
    /// need more than a boolean to enable (memory needs a range).
    pub flag: Option<&'static str>,
    /// Where the domain's bits sit in the space layout.
    pub placement: Placement,
    /// Whether the struck state is short-lived enough that probing for
    /// golden reconvergence after injection pays off.
    pub ephemeral: bool,
    /// Enables this domain in a [`FaultSpace`] (no-op for domains
    /// without a boolean switch).
    pub enable: fn(&mut FaultSpace),
    /// Bits this domain contributes (per core for
    /// [`Placement::CoreBlock`], total for [`Placement::Tail`]); zero
    /// when disabled.
    pub bits: fn(&SpaceDims) -> u64,
    /// Decodes a sampled offset (`< bits`) into a concrete target.
    /// `core` is the sampled core for core-block domains, 0 for tail
    /// domains.
    pub make: fn(&SpaceDims, u32, u64) -> FaultTarget,
}

fn gpr_bits(d: &SpaceDims) -> u64 {
    if d.space.gpr {
        d.isa.reg_file().gpr_total_bits()
    } else {
        0
    }
}

fn fpr_bits(d: &SpaceDims) -> u64 {
    if d.space.fpr {
        let layout = d.isa.reg_file();
        u64::from(layout.fpr_count) * u64::from(layout.fpr_bits)
    } else {
        0
    }
}

fn cache_bits(d: &SpaceDims) -> u64 {
    if d.space.cache {
        (2 * u64::from(d.cores) * u64::from(d.l1_lines) + u64::from(d.l2_lines)) * CACHE_LINE_BITS
    } else {
        0
    }
}

fn storebuf_bits(d: &SpaceDims) -> u64 {
    if d.space.storebuf {
        u64::from(d.cores) * u64::from(d.sb_entries) * STOREBUF_ENTRY_BITS
    } else {
        0
    }
}

fn cachedata_bits(d: &SpaceDims) -> u64 {
    // Only the L1D, the unit that actually serves load values. L1I
    // data is the text domain's territory, and the shared L2 — 16x the
    // slots, overwhelmingly instruction lines on this workload suite,
    // its data copies shadowed by L1D residency — would dilute the
    // space far below measurability at smoke sample sizes while adding
    // no value path the L1D slot strike does not already represent
    // (an L2 strike only ever surfaces through an L1D fill, which
    // `propagate_l2_overlay` still models for hand-written faults).
    if d.space.cachedata {
        u64::from(d.cores) * u64::from(d.l1_lines) * CACHE_DATA_LINE_BITS
    } else {
        0
    }
}

fn kernelctl_bits(d: &SpaceDims) -> u64 {
    if d.space.kernelctl {
        u64::from(d.runq_slots) * RUNQ_ENTRY_BITS
            + u64::from(d.procs) * u64::from(d.pages_per_proc) * PAGE_PERM_BITS
    } else {
        0
    }
}

/// The integer register file.
pub static GPR: Domain = Domain {
    name: "gpr",
    flag: Some("gpr"),
    placement: Placement::CoreBlock,
    ephemeral: true,
    enable: |s| s.gpr = true,
    bits: gpr_bits,
    make: |d, core, within| {
        let bits = u64::from(d.isa.reg_file().gpr_bits);
        FaultTarget::Gpr {
            core,
            reg: (within / bits) as u32,
            bit: (within % bits) as u32,
        }
    },
};

/// The floating-point register file (empty on SIRA-32).
pub static FPR: Domain = Domain {
    name: "fpr",
    flag: Some("fpr"),
    placement: Placement::CoreBlock,
    ephemeral: true,
    enable: |s| s.fpr = true,
    bits: fpr_bits,
    make: |d, core, within| {
        let bits = u64::from(d.isa.reg_file().fpr_bits);
        FaultTarget::Fpr {
            core,
            reg: (within / bits) as u32,
            bit: (within % bits) as u32,
        }
    },
};

/// The NZCV condition flags.
pub static FLAGS: Domain = Domain {
    name: "flags",
    flag: Some("flag"),
    placement: Placement::CoreBlock,
    ephemeral: true,
    enable: |s| s.flags = true,
    bits: |d| if d.space.flags { 4 } else { 0 },
    make: |_, core, within| FaultTarget::Flag {
        core,
        which: within as u32,
    },
};

/// The one-shot instruction-skip latch of each core.
pub static SKIP: Domain = Domain {
    name: "skip",
    flag: Some("skip"),
    placement: Placement::CoreBlock,
    // The latch is consumed by the very next issued instruction: the
    // most ephemeral state in the model.
    ephemeral: true,
    enable: |s| s.skip = true,
    bits: |d| u64::from(d.space.skip),
    make: |_, core, _| FaultTarget::InstrSkip { core },
};

/// Data-memory bytes of a configured address range.
pub static MEM: Domain = Domain {
    name: "mem",
    flag: None,
    placement: Placement::Tail,
    ephemeral: false,
    enable: |_| {},
    bits: |d| d.space.mem.map_or(0, |(_, len)| u64::from(len) * 8),
    make: |d, _, w| {
        let (base, _) = d.space.mem.expect("mem bits imply mem space");
        FaultTarget::Mem {
            addr: base + (w / 8) as u32,
            bit: (w % 8) as u32,
        }
    },
};

/// Encoded instruction words.
pub static TEXT: Domain = Domain {
    name: "text",
    flag: Some("text"),
    placement: Placement::Tail,
    ephemeral: false,
    enable: |s| s.text = true,
    bits: |d| {
        if d.space.text {
            u64::from(d.text_words) * 32
        } else {
            0
        }
    },
    make: |_, _, w| FaultTarget::Text {
        word: (w / 32) as u32,
        bit: (w % 32) as u32,
    },
};

/// Cache-line metadata: tag, MESI state and LRU stamp.
pub static CACHE: Domain = Domain {
    name: "cache",
    flag: Some("cache"),
    placement: Placement::Tail,
    ephemeral: false,
    enable: |s| s.cache = true,
    bits: cache_bits,
    make: |d, _, w| {
        // Layout: per-core [L1I lines | L1D lines] core-major, then the
        // shared L2 (core 0 by convention).
        let l1_unit = u64::from(d.l1_lines) * CACHE_LINE_BITS;
        let l1_total = 2 * u64::from(d.cores) * l1_unit;
        if w < l1_total {
            let core = (w / (2 * l1_unit)) as u32;
            let within = w % (2 * l1_unit);
            FaultTarget::CacheState {
                core,
                unit: (within / l1_unit) as u32,
                line: ((within % l1_unit) / CACHE_LINE_BITS) as u32,
                bit: (within % CACHE_LINE_BITS) as u32,
            }
        } else {
            let w = w - l1_total;
            FaultTarget::CacheState {
                core: 0,
                unit: 2,
                line: (w / CACHE_LINE_BITS) as u32,
                bit: (w % CACHE_LINE_BITS) as u32,
            }
        }
    },
};

/// Kernel control state: run-queue entries and page permissions.
pub static KERNELCTL: Domain = Domain {
    name: "kernelctl",
    flag: Some("kernelctl"),
    placement: Placement::Tail,
    ephemeral: false,
    enable: |s| s.kernelctl = true,
    bits: kernelctl_bits,
    make: |d, _, w| {
        let runq = u64::from(d.runq_slots) * RUNQ_ENTRY_BITS;
        if w < runq {
            FaultTarget::RunQueue {
                slot: (w / RUNQ_ENTRY_BITS) as u32,
                bit: (w % RUNQ_ENTRY_BITS) as u32,
            }
        } else {
            let w = w - runq;
            let per_proc = u64::from(d.pages_per_proc) * PAGE_PERM_BITS;
            FaultTarget::PagePerm {
                pid: (w / per_proc) as u32,
                page: ((w % per_proc) / PAGE_PERM_BITS) as u32,
                bit: (w % PAGE_PERM_BITS) as u32,
            }
        }
    },
};

/// Pending store-buffer entries.
pub static STOREBUF: Domain = Domain {
    name: "storebuf",
    flag: Some("storebuf"),
    placement: Placement::Tail,
    // A pending store lives at most a handful of instructions, but a
    // drained corruption persists in memory indefinitely — the long
    // tail rules reconvergence probing out.
    ephemeral: false,
    enable: |s| s.storebuf = true,
    bits: storebuf_bits,
    make: |d, _, w| {
        // Per-core entry blocks, core-major.
        let per_core = u64::from(d.sb_entries) * STOREBUF_ENTRY_BITS;
        FaultTarget::StoreBuf {
            core: (w / per_core) as u32,
            entry: ((w % per_core) / STOREBUF_ENTRY_BITS) as u32,
            bit: (w % STOREBUF_ENTRY_BITS) as u32,
        }
    },
};

/// Cache-line data bits of each L1D.
pub static CACHEDATA: Domain = Domain {
    name: "cachedata",
    flag: Some("cachedata"),
    placement: Placement::Tail,
    ephemeral: false,
    enable: |s| s.cachedata = true,
    bits: cachedata_bits,
    make: |d, _, w| {
        // Layout: per-core L1D lines, core-major (see `cachedata_bits`
        // for why neither L1I nor L2 is sampled).
        let l1_unit = u64::from(d.l1_lines) * CACHE_DATA_LINE_BITS;
        FaultTarget::CacheData {
            core: (w / l1_unit) as u32,
            unit: 1,
            line: ((w % l1_unit) / CACHE_DATA_LINE_BITS) as u32,
            bit: (w % CACHE_DATA_LINE_BITS) as u32,
        }
    },
};

/// Number of registered domains.
pub(crate) const DOMAIN_COUNT: usize = 10;

/// The registry, in space-layout order (see the module docs' layout
/// contract): core-block domains first, then tail domains.
static DOMAINS: [&Domain; DOMAIN_COUNT] = [
    &GPR, &FPR, &FLAGS, &SKIP, &MEM, &TEXT, &CACHE, &KERNELCTL, &STOREBUF, &CACHEDATA,
];

/// Every registered domain, space-layout order.
pub fn domains() -> &'static [&'static Domain] {
    &DOMAINS
}

/// The registry entry with the given [`Domain::name`], if any.
pub fn domain_named(name: &str) -> Option<&'static Domain> {
    domains().iter().copied().find(|d| d.name == name)
}

impl Domain {
    /// This domain's position in [`domains`].
    ///
    /// # Panics
    ///
    /// Panics for a descriptor that is not one of the registry's.
    pub(crate) fn index(&self) -> usize {
        DOMAINS
            .iter()
            .position(|&d| d == self)
            .expect("a registry domain")
    }
}

/// A domain is its registry entry: two descriptors are equal only when
/// they are the same static.
impl PartialEq for Domain {
    fn eq(&self, other: &Domain) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for Domain {}

impl FaultTarget {
    /// The registry entry of this target's family.
    pub fn domain(&self) -> &'static Domain {
        match self {
            FaultTarget::Gpr { .. } => &GPR,
            FaultTarget::Fpr { .. } => &FPR,
            FaultTarget::Flag { .. } => &FLAGS,
            FaultTarget::InstrSkip { .. } => &SKIP,
            FaultTarget::Mem { .. } => &MEM,
            FaultTarget::Text { .. } => &TEXT,
            FaultTarget::CacheState { .. } => &CACHE,
            FaultTarget::RunQueue { .. } | FaultTarget::PagePerm { .. } => &KERNELCTL,
            FaultTarget::StoreBuf { .. } => &STOREBUF,
            FaultTarget::CacheData { .. } => &CACHEDATA,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::class_plan_with;
    use crate::{prune_cap, Fault, PruneCap};
    use fracas_analyze::PruneOracle;
    use fracas_cpu::ExecTrace;

    /// Dimensions under which every domain contributes bits: SIRA-64
    /// (SIRA-32 has no FP registers to sample), two cores, every
    /// uncore array non-empty.
    fn every_domain_dims() -> SpaceDims {
        let space = FaultSpace {
            flags: true,
            mem: Some((0x1000, 16)),
            text: true,
            cache: true,
            kernelctl: true,
            skip: true,
            storebuf: true,
            cachedata: true,
            ..FaultSpace::default()
        };
        SpaceDims {
            runq_slots: 4,
            procs: 2,
            pages_per_proc: 8,
            l1_lines: 4,
            l2_lines: 8,
            sb_entries: 8,
            ..SpaceDims::bare(IsaKind::Sira64, 2, space, 10)
        }
    }

    /// The targets at the first, middle and last offset of every
    /// domain's sampler, each with the domain that drew it. They cover
    /// all eleven variants (kernel control's first offset is a
    /// run-queue bit, its last a page permission).
    fn drawn_targets() -> Vec<(&'static Domain, FaultTarget)> {
        let dims = every_domain_dims();
        domains()
            .iter()
            .flat_map(|&domain| {
                let bits = (domain.bits)(&dims);
                [0, bits / 2, bits - 1].map(|within| (domain, (domain.make)(&dims, 1, within)))
            })
            .collect()
    }

    #[test]
    fn every_target_maps_to_exactly_one_domain() {
        // `FaultTarget::domain` is an exhaustive match, so every target
        // has exactly one domain; it must be the domain whose sampler
        // produced the target.
        let mut variants = std::collections::HashSet::new();
        for (domain, target) in drawn_targets() {
            assert!(
                std::ptr::eq(target.domain(), domain),
                "{target:?} from {} maps to {}",
                domain.name,
                target.domain().name
            );
            variants.insert(std::mem::discriminant(&target));
        }
        assert_eq!(variants.len(), 11);
    }

    #[test]
    fn every_unfingerprinted_fault_counts_under_its_own_domain() {
        // An empty trace gives the oracle no landing, so the class plan
        // decides nothing: every fault outside the oracle's model runs
        // as a singleton and must be counted under the domain whose
        // sampler drew it.
        let drawn = drawn_targets();
        let faults: Vec<Fault> = drawn
            .iter()
            .map(|&(_, target)| Fault {
                target,
                cycle: 1,
                width: 1,
            })
            .collect();
        for isa in IsaKind::ALL {
            let oracle = PruneOracle::new(isa, &[], 0, &ExecTrace::default());
            let stats = class_plan_with(isa, &oracle, &faults).stats();
            for &domain in domains() {
                let unmodeled = drawn
                    .iter()
                    .zip(&faults)
                    .filter(|((from, _), fault)| {
                        *from == domain && !matches!(prune_cap(isa, fault), PruneCap::Oracle(..))
                    })
                    .count();
                assert_eq!(
                    stats.unmodeled.count(domain),
                    unmodeled as u32,
                    "{isa}: {}",
                    domain.name
                );
            }
            // Memory, the skip latch and the four uncore domains always
            // run unmodeled; the FP registers only on SIRA-32.
            let domains_unmodeled = if isa == IsaKind::Sira32 { 7 } else { 6 };
            assert_eq!(stats.unmodeled.total(), 3 * domains_unmodeled, "{isa}");
        }
    }

    #[test]
    fn layout_reproduces_the_legacy_space_arithmetic() {
        // The historical arithmetic, hand-written: per-core gpr+fpr+flag
        // block, then mem, then text.
        let space = FaultSpace {
            flags: true,
            mem: Some((0x1000, 256)),
            text: true,
            ..FaultSpace::default()
        };
        for (isa, cores, gpr, fpr) in [
            (IsaKind::Sira32, 4u32, 16 * 32u64, 0u64),
            (IsaKind::Sira64, 2, 32 * 64, 32 * 64),
        ] {
            let dims = SpaceDims::bare(isa, cores, space, 100);
            let per_core = gpr + fpr + 4;
            assert_eq!(dims.core_block_bits(), per_core);
            assert_eq!(
                dims.total_bits(),
                per_core * u64::from(cores) + 256 * 8 + 100 * 32
            );
        }
    }

    #[test]
    fn uncore_domains_contribute_only_when_enabled() {
        let mut space = FaultSpace::none();
        space.cache = true;
        space.kernelctl = true;
        space.skip = true;
        let dims = SpaceDims {
            isa: IsaKind::Sira64,
            cores: 2,
            space,
            text_words: 0,
            runq_slots: 4,
            procs: 2,
            pages_per_proc: 256,
            l1_lines: 512,
            l2_lines: 8192,
            sb_entries: 8,
        };
        let cache = (2 * 2 * 512 + 8192) * CACHE_LINE_BITS;
        let kctl = 4 * RUNQ_ENTRY_BITS + 2 * 256 * PAGE_PERM_BITS;
        assert_eq!(dims.total_bits(), cache + kctl + 2 /* skip per core */);
        // Same dims with the switches off: empty space.
        let mut off = dims;
        off.space = FaultSpace::none();
        assert_eq!(off.total_bits(), 0);
    }

    #[test]
    fn cache_offsets_decode_into_units_lines_and_bits() {
        let mut space = FaultSpace::none();
        space.cache = true;
        let dims = SpaceDims {
            isa: IsaKind::Sira64,
            cores: 2,
            space,
            text_words: 0,
            runq_slots: 0,
            procs: 0,
            pages_per_proc: 0,
            l1_lines: 4,
            l2_lines: 8,
            sb_entries: 0,
        };
        let d = domain_named("cache").unwrap();
        assert_eq!((d.bits)(&dims), (2 * 2 * 4 + 8) * CACHE_LINE_BITS);
        // Offset 0: core 0, L1I, line 0, bit 0.
        assert_eq!(
            (d.make)(&dims, 0, 0),
            FaultTarget::CacheState {
                core: 0,
                unit: 0,
                line: 0,
                bit: 0
            }
        );
        // One L1 unit later: core 0, L1D.
        assert_eq!(
            (d.make)(&dims, 0, 4 * CACHE_LINE_BITS),
            FaultTarget::CacheState {
                core: 0,
                unit: 1,
                line: 0,
                bit: 0
            }
        );
        // Past both cores' L1 blocks: the shared L2, core 0.
        let l2_start = 2 * 2 * 4 * CACHE_LINE_BITS;
        assert_eq!(
            (d.make)(&dims, 0, l2_start + 41),
            FaultTarget::CacheState {
                core: 0,
                unit: 2,
                line: 1,
                bit: 1
            }
        );
    }

    #[test]
    fn kernelctl_offsets_decode_into_slots_and_pages() {
        let mut space = FaultSpace::none();
        space.kernelctl = true;
        let dims = SpaceDims {
            isa: IsaKind::Sira64,
            cores: 1,
            space,
            text_words: 0,
            runq_slots: 2,
            procs: 2,
            pages_per_proc: 4,
            l1_lines: 0,
            l2_lines: 0,
            sb_entries: 0,
        };
        let d = domain_named("kernelctl").unwrap();
        assert_eq!((d.bits)(&dims), 2 * 32 + 2 * 4 * 3);
        assert_eq!(
            (d.make)(&dims, 0, 33),
            FaultTarget::RunQueue { slot: 1, bit: 1 }
        );
        // First offset past the run-queue region: pid 0, page 0, bit 0.
        assert_eq!(
            (d.make)(&dims, 0, 64),
            FaultTarget::PagePerm {
                pid: 0,
                page: 0,
                bit: 0
            }
        );
        // Second process's block starts 12 bits later.
        assert_eq!(
            (d.make)(&dims, 0, 64 + 12 + 4),
            FaultTarget::PagePerm {
                pid: 1,
                page: 1,
                bit: 1
            }
        );
    }

    #[test]
    fn storebuf_offsets_decode_into_cores_entries_and_bits() {
        let mut space = FaultSpace::none();
        space.storebuf = true;
        let dims = SpaceDims {
            sb_entries: 8,
            ..SpaceDims::bare(IsaKind::Sira64, 2, space, 0)
        };
        let d = domain_named("storebuf").unwrap();
        assert_eq!((d.bits)(&dims), 2 * 8 * STOREBUF_ENTRY_BITS);
        assert_eq!(dims.total_bits(), 2 * 8 * STOREBUF_ENTRY_BITS);
        assert_eq!(
            (d.make)(&dims, 0, 0),
            FaultTarget::StoreBuf {
                core: 0,
                entry: 0,
                bit: 0
            }
        );
        // Entry blocks are 97 bits: offset 97 is entry 1, bit 0.
        assert_eq!(
            (d.make)(&dims, 0, STOREBUF_ENTRY_BITS),
            FaultTarget::StoreBuf {
                core: 0,
                entry: 1,
                bit: 0
            }
        );
        // Past core 0's eight entries: core 1.
        assert_eq!(
            (d.make)(&dims, 0, 8 * STOREBUF_ENTRY_BITS + 96),
            FaultTarget::StoreBuf {
                core: 1,
                entry: 0,
                bit: 96
            }
        );
        // Disabled: zero bits even with entries declared.
        let mut off = dims;
        off.space = FaultSpace::none();
        assert_eq!((d.bits)(&off), 0);
    }

    #[test]
    fn cachedata_offsets_decode_into_units_lines_and_bits() {
        let mut space = FaultSpace::none();
        space.cachedata = true;
        let dims = SpaceDims {
            l1_lines: 4,
            l2_lines: 8,
            ..SpaceDims::bare(IsaKind::Sira64, 2, space, 0)
        };
        let d = domain_named("cachedata").unwrap();
        // One L1D block per core — no L1I block (text territory), no
        // L2 block (dilution; see `cachedata_bits`). The declared
        // `l2_lines` must not leak into the space.
        assert_eq!((d.bits)(&dims), 2 * 4 * CACHE_DATA_LINE_BITS);
        assert_eq!(
            (d.make)(&dims, 0, 0),
            FaultTarget::CacheData {
                core: 0,
                unit: 1,
                line: 0,
                bit: 0
            }
        );
        // One core's L1D later: core 1's block.
        assert_eq!(
            (d.make)(&dims, 0, 4 * CACHE_DATA_LINE_BITS + 513),
            FaultTarget::CacheData {
                core: 1,
                unit: 1,
                line: 1,
                bit: 1
            }
        );
        // The last offset is core 1's last line, top bit.
        assert_eq!(
            (d.make)(&dims, 0, 2 * 4 * CACHE_DATA_LINE_BITS - 1),
            FaultTarget::CacheData {
                core: 1,
                unit: 1,
                line: 3,
                bit: 511
            }
        );
    }

    #[test]
    fn value_domains_sit_after_every_legacy_domain() {
        // The md5-identity argument: storebuf and cachedata are the
        // last two tail domains, so disabling them reproduces the
        // legacy draw sequence bit for bit.
        let names: Vec<&str> = domains().iter().map(|d| d.name).collect();
        assert_eq!(&names[names.len() - 2..], &["storebuf", "cachedata"]);
    }
}
