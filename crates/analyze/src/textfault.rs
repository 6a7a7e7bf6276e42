//! Decode-differential text-fault analysis: static verdicts for
//! instruction-memory bit flips.
//!
//! A text fault XORs a mask into one encoded instruction word. Unlike a
//! register flip, its *only* observable channel is instruction fetch of
//! that word: data loads read physical memory (`fracas-mem`), never the
//! text store; the exit report's memory hash covers data and heap only;
//! the context hash covers register files only. Until the corrupted
//! word is fetched, the faulty run is architecturally indistinguishable
//! from golden — and fetch includes *annulled* commits, because the
//! predecode slot is consulted (and an illegal encoding traps) before
//! the condition is evaluated.
//!
//! The oracle digests the trace against the image's text, and that is
//! what every traced fetch read: `Machine::patch_text_word` refuses to
//! change a word while tracing is on. That observation yields a small
//! verdict lattice, evaluated in order by `PruneOracle::text_outcome`
//! (surfaced through
//! [`PruneOracle::fingerprint`](crate::PruneOracle::fingerprint)):
//!
//! 1. **Out of range** — `Machine::flip_text` ignores a word index past
//!    the text section, so the "fault" is a no-op: Vanished, exactly.
//! 2. **Decode-equivalent** — the corrupted word decodes (and
//!    ISA-validates) to the *identical* instruction: the flipped bits
//!    are immaterial encoding bits (unused operand fields, ignored
//!    register-field high bits), the re-lowered predecode slot is
//!    identical, and no hash ever covers raw text words: Vanished,
//!    exactly, at any cycle.
//! 3. **Unapplied** — the injector's replay finishes before the flip
//!    lands (same landing rule as register faults, timing core 0):
//!    Vanished.
//! 4. **Never fetched after landing** — no commit (executed or
//!    annulled, any core) at the word's PC at or after the landing op:
//!    the corrupted word sits in instruction memory, unread and
//!    unhashed, until exit: Vanished, exactly.
//! 5. **Live** — the first fetch at or after the landing is op `f`.
//!    Two faults with the same `(word, mask)` and the same `f` produce
//!    byte-identical records: between landing and `f` the faulty run
//!    equals golden except for the (unobservable) corrupted word, so at
//!    op `f` both runs have identical machine state, and replay is
//!    deterministic from there. `f` is the text fault's interval
//!    fingerprint — the exact analogue of the register def→use interval
//!    in [`crate::intervals`].
//!
//! Soundness is machine-checked the same two ways register pruning is:
//! the full-vs-pruned database differential (byte identity) and the
//! sampled `--oracle-audit` re-execution layer, both extended over text
//! campaigns in `fracas-inject`/CI.
//!
//! The static half of the module ([`flip_class`], [`analyze_text`],
//! [`cfg_reachable_words`]) is a reporting layer: it classifies every
//! possible single-word flip by what it does to the declared
//! [`Effects`] (illegal encoding, control-flow change, memory-effect
//! change, ...) and cross-checks trace fetch-reachability against the
//! recovered CFG. Verdicts never depend on it.

use crate::cfg::Cfg;
use crate::intervals::Fingerprint;
use crate::prune::{Landing, Op, PruneOracle, PruneVerdict};
use fracas_isa::{decode, Effects, Inst, IsaKind};
use std::collections::HashMap;

/// `decode` + ISA validation, exactly as `Machine::patch_text_word`
/// re-lowers a corrupted word: `None` lowers to an illegal slot that
/// traps at fetch.
fn decoded(isa: IsaKind, word: u32) -> Option<Inst> {
    decode(word).ok().filter(|inst| isa.validate(inst).is_ok())
}

impl PruneOracle {
    /// Whether the golden trace ever fetched text word `word` (executed
    /// or annulled commit at its PC, any core).
    pub fn text_fetched(&self, word: u32) -> bool {
        !self.fetches(word).is_empty()
    }

    /// Sorted op indices of every fetch of `word` (lazily built once
    /// per oracle; register-only campaigns never pay for it).
    fn fetches(&self, word: u32) -> &[u32] {
        let index = self.fetch_index.get_or_init(|| {
            let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
            let len = self.words.len() as u32;
            for (i, op) in self.ops.iter().enumerate() {
                let pc = match *op {
                    Op::Exec { pc, .. } | Op::Skip { pc, .. } => pc,
                    _ => continue,
                };
                let off = pc.wrapping_sub(self.text_base);
                if off % 4 == 0 && off / 4 < len {
                    map.entry(off / 4).or_default().push(i as u32);
                }
            }
            map
        });
        index.get(&word).map_or(&[], Vec::as_slice)
    }

    /// The decode-differential fingerprint of XORing `mask` into text
    /// word `word` at `cycle` (timing core 0, like every text fault):
    /// the verdict, or the op index of the first fetch of the corrupted
    /// word at or after the landing as the live interval. `None` when
    /// the trace never saw core 0. See the module docs for the verdict
    /// lattice and its exactness argument.
    pub(crate) fn text_outcome(&self, word: u32, mask: u32, cycle: u64) -> Option<Fingerprint> {
        let Some(&original) = self.words.get(word as usize) else {
            // `flip_text` ignores out-of-range indices: exact no-op.
            return Some(Fingerprint::Decided(PruneVerdict::Vanished));
        };
        if decoded(self.isa, original) == decoded(self.isa, original ^ mask) {
            // Immaterial encoding bits: the re-lowered predecode slot
            // is identical and raw text words are never hashed.
            return Some(Fingerprint::Decided(PruneVerdict::Vanished));
        }
        Some(match self.landing(0, cycle)? {
            Landing::Unapplied => Fingerprint::Decided(PruneVerdict::Vanished),
            Landing::At(start) => {
                let fetches = self.fetches(word);
                let i = fetches.partition_point(|&f| (f as usize) < start);
                match fetches.get(i) {
                    // Never fetched once the flip is in place: the
                    // corruption is unread and unhashed until exit.
                    None => Fingerprint::Decided(PruneVerdict::Vanished),
                    Some(&interval) => Fingerprint::Live { interval },
                }
            }
        })
    }
}

/// What a flip does to the decoded instruction, for the static
/// composition report (every class below `Equivalent`/`Illegal` is
/// *reporting* granularity — verdicts never depend on it). Ordered by
/// severity of the semantic change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipClass {
    /// Identical decoded + validated instruction: provably masked.
    Equivalent,
    /// No longer decodes or validates: guaranteed illegal-instruction
    /// trap at first fetch.
    Illegal,
    /// Control flow changed ([`fracas_isa::CtrlFlow`] or a PC-writing
    /// destination) — includes a formerly-illegal word becoming legal.
    CtrlChanged,
    /// Data-memory effect changed ([`fracas_isa::MemEffect`]).
    MemChanged,
    /// Executable trap class changed ([`fracas_isa::TrapClass`]).
    TrapChanged,
    /// Register use/def sets changed (different operands or opcode of
    /// the same shape).
    RegsChanged,
    /// Only the static cycle-cost class changed (e.g. `add` → `mul`
    /// with identical operands): timing-only divergence.
    CostChanged,
    /// Same [`Effects`] in every component; only the instruction's data
    /// payload (an immediate value, a condition with identical flag
    /// reads) differs.
    DataOnly,
}

impl FlipClass {
    /// All classes in display order.
    pub const ALL: [FlipClass; 8] = [
        FlipClass::Equivalent,
        FlipClass::Illegal,
        FlipClass::CtrlChanged,
        FlipClass::MemChanged,
        FlipClass::TrapChanged,
        FlipClass::RegsChanged,
        FlipClass::CostChanged,
        FlipClass::DataOnly,
    ];

    /// Stable short display name (report column headers).
    pub fn name(self) -> &'static str {
        match self {
            FlipClass::Equivalent => "equiv",
            FlipClass::Illegal => "illegal",
            FlipClass::CtrlChanged => "ctrl",
            FlipClass::MemChanged => "mem",
            FlipClass::TrapChanged => "trap",
            FlipClass::RegsChanged => "regs",
            FlipClass::CostChanged => "cost",
            FlipClass::DataOnly => "data",
        }
    }
}

/// Classifies XORing `mask` into encoded word `word`: decode both,
/// validate both, and compare the declared [`Effects`] component by
/// component (first difference in severity order wins).
pub fn flip_class(isa: IsaKind, word: u32, mask: u32) -> FlipClass {
    let a = decoded(isa, word);
    let b = decoded(isa, word ^ mask);
    if a == b {
        return FlipClass::Equivalent;
    }
    let (a, b) = match (a, b) {
        (_, None) => return FlipClass::Illegal,
        // A fetch trap disappearing is a control-flow change: the run
        // stops trapping and starts executing something.
        (None, Some(_)) => return FlipClass::CtrlChanged,
        (Some(a), Some(b)) => (a, b),
    };
    let fa = Effects::of(isa, &a);
    let fb = Effects::of(isa, &b);
    if fa.ctrl != fb.ctrl || fa.pc_def != fb.pc_def || a.cond != b.cond {
        FlipClass::CtrlChanged
    } else if fa.mem != fb.mem {
        FlipClass::MemChanged
    } else if fa.trap != fb.trap {
        FlipClass::TrapChanged
    } else if fa.uses != fb.uses || fa.defs != fb.defs || fa.uses_all_gprs != fb.uses_all_gprs {
        FlipClass::RegsChanged
    } else if fa.cost != fb.cost {
        FlipClass::CostChanged
    } else {
        FlipClass::DataOnly
    }
}

/// Per-class counts of the exhaustive single-bit flip space of one text
/// section (32 flips per word).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextComposition {
    counts: [u64; 8],
}

impl TextComposition {
    /// Bumps the bucket for `class`.
    pub fn record(&mut self, class: FlipClass) {
        let slot = FlipClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("ALL is total");
        self.counts[slot] += 1;
    }

    /// Count of one class.
    pub fn count(&self, class: FlipClass) -> u64 {
        let slot = FlipClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("ALL is total");
        self.counts[slot]
    }

    /// Total flips classified (32 × word count for [`analyze_text`]).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Share of one class in `[0, 1]` (0 for an empty composition).
    pub fn fraction(&self, class: FlipClass) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(class) as f64 / self.total() as f64
        }
    }
}

/// The exhaustive decode-differential composition of a text section:
/// every (word, bit) single-bit flip classified by [`flip_class`].
pub fn analyze_text(isa: IsaKind, words: &[u32]) -> TextComposition {
    let mut composition = TextComposition::default();
    for &word in words {
        for bit in 0..32 {
            composition.record(flip_class(isa, word, 1 << bit));
        }
    }
    composition
}

/// Static fetch-reachability per text word, from the recovered CFG:
/// `out[i]` is false only when instruction `i` provably cannot be
/// fetched from the entry point. Conservative: if any reachable block
/// ends in an indirect branch (unknown successors), every word is
/// considered reachable. Used to cross-check the trace-derived
/// never-fetched set (trace ⊆ cfg must hold); verdicts use the trace
/// alone, which is exact for the replayed schedule.
pub fn cfg_reachable_words(isa: IsaKind, text: &[Inst]) -> Vec<bool> {
    let cfg = Cfg::recover(isa, text);
    let mut reachable_block = vec![false; cfg.blocks.len()];
    let mut queue = Vec::new();
    if !cfg.blocks.is_empty() {
        reachable_block[0] = true;
        queue.push(0usize);
    }
    while let Some(b) = queue.pop() {
        if cfg.blocks[b].indirect {
            // Unknown successors from a reachable block: give up and
            // call everything reachable.
            return vec![true; text.len()];
        }
        for &s in &cfg.blocks[b].succs {
            if !reachable_block[s] {
                reachable_block[s] = true;
                queue.push(s);
            }
        }
    }
    let mut out = vec![false; text.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        if reachable_block[b] {
            for slot in &mut out[block.start..block.end] {
                *slot = true;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::PruneTarget;
    use fracas_cpu::{ExecTrace, TraceEvent, TraceKind};
    use fracas_isa::{AluOp, InstKind, Reg};

    const BASE: u32 = 0x1000;

    fn trace(start: Vec<u64>, events: Vec<TraceEvent>) -> ExecTrace {
        let mut t = ExecTrace::default();
        t.events = events;
        t.start_cycles = start;
        t
    }

    fn commit(core: u32, tick: u64, cycle: u64, idx: u32) -> TraceEvent {
        TraceEvent {
            core,
            tick,
            cycle,
            kind: TraceKind::Commit {
                pc: BASE + 4 * idx,
                skipped: false,
            },
        }
    }

    fn skip(core: u32, tick: u64, cycle: u64, idx: u32) -> TraceEvent {
        TraceEvent {
            core,
            tick,
            cycle,
            kind: TraceKind::Commit {
                pc: BASE + 4 * idx,
                skipped: true,
            },
        }
    }

    /// `add r1, r2, r3` — an R-form whose bits [5:0] are immaterial.
    fn add_r() -> Inst {
        Inst::new(InstKind::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rn: Reg(2),
            rm: Reg(3),
        })
    }

    fn addi(rd: u8, rn: u8) -> Inst {
        Inst::new(InstKind::AluImm {
            op: AluOp::Add,
            rd: Reg(rd),
            rn: Reg(rn),
            imm: 1,
        })
    }

    /// Word 0 fetched at ticks 0 and 2, word 1 at tick 1, word 2 never.
    fn oracle() -> PruneOracle {
        let text = vec![add_r(), addi(2, 1), addi(3, 3), Inst::new(InstKind::Halt)];
        let tr = trace(
            vec![10],
            vec![
                commit(0, 0, 20, 0),
                commit(0, 1, 30, 1),
                commit(0, 2, 40, 0),
                commit(0, 3, 50, 3),
            ],
        );
        PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr)
    }

    #[test]
    fn never_fetched_word_vanishes_at_any_cycle() {
        let o = oracle();
        for cycle in [0u64, 25, 45, 1_000_000] {
            assert_eq!(
                o.text_outcome(2, 1 << 31, cycle).unwrap(),
                Fingerprint::Decided(PruneVerdict::Vanished),
                "cycle {cycle}"
            );
        }
        assert!(!o.text_fetched(2));
        assert!(o.text_fetched(0));
    }

    #[test]
    fn out_of_range_word_is_an_exact_noop() {
        let o = oracle();
        assert_eq!(
            o.text_outcome(99, 1, 5).unwrap(),
            Fingerprint::Decided(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn immaterial_bit_flip_vanishes_even_on_a_hot_word() {
        // Bit 0 of an R-form ALU word is an unused operand bit: the
        // corrupted word decodes to the identical instruction.
        let o = oracle();
        assert_eq!(
            o.text_outcome(0, 1, 5).unwrap(),
            Fingerprint::Decided(PruneVerdict::Vanished)
        );
        // A destination-register bit is material on the same word.
        assert!(matches!(
            o.text_outcome(0, 1 << 16, 5).unwrap(),
            Fingerprint::Live { .. }
        ));
    }

    #[test]
    fn live_faults_key_on_the_first_corrupted_fetch() {
        let o = oracle();
        // Landing before the first fetch of word 0 (tick-0 commit):
        // first corrupted fetch is op 0.
        assert_eq!(
            o.text_outcome(0, 1 << 16, 5).unwrap(),
            Fingerprint::Live { interval: 0 }
        );
        // Landing between the two fetches of word 0: the tick-2 refetch
        // is the interaction point.
        assert_eq!(
            o.text_outcome(0, 1 << 16, 25).unwrap(),
            Fingerprint::Live { interval: 2 }
        );
        // Landing after the last fetch: never read again, vanishes.
        assert_eq!(
            o.text_outcome(0, 1 << 16, 45).unwrap(),
            Fingerprint::Decided(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn annulled_commits_count_as_fetches() {
        // A skipped conditional still fetches and predecodes the word
        // before evaluating its condition, so an illegal encoding traps
        // even when the predicate would have annulled it.
        let text = vec![addi(1, 2), Inst::new(InstKind::Halt)];
        let tr = trace(vec![10], vec![skip(0, 0, 20, 0), commit(0, 1, 30, 1)]);
        let o = PruneOracle::new(IsaKind::Sira64, &text, BASE, &tr);
        assert_eq!(
            o.text_outcome(0, 1 << 30, 5).unwrap(),
            Fingerprint::Live { interval: 0 }
        );
    }

    #[test]
    fn fault_landing_on_the_run_ending_tick_vanishes() {
        let o = oracle();
        // Cycle 45 crosses at the tick-3 boundary which is not the end;
        // cycle 55 is beyond the last cycle: never lands.
        assert_eq!(
            o.text_outcome(0, 1 << 16, 55).unwrap(),
            Fingerprint::Decided(PruneVerdict::Vanished)
        );
    }

    #[test]
    fn fingerprint_dispatches_text_targets() {
        let o = oracle();
        let hot = PruneTarget::Text {
            word: 0,
            mask: 1 << 16,
        };
        let cold = PruneTarget::Text {
            word: 2,
            mask: 1 << 16,
        };
        // Same first fetch ⇒ same Live key; different first fetch ⇒
        // different key; decided ⇒ Decided.
        let a = o.fingerprint(0, hot, 5).unwrap();
        let b = o.fingerprint(0, hot, 8).unwrap();
        let c = o.fingerprint(0, hot, 25).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Fingerprint::Live { interval: 0 });
        assert_eq!(c, Fingerprint::Live { interval: 2 });
        assert_eq!(
            o.fingerprint(0, cold, 5),
            Some(Fingerprint::Decided(PruneVerdict::Vanished))
        );
    }

    #[test]
    fn untraced_timing_core_is_none() {
        // No core was traced, so a text fault timed on core 0 has no
        // landing: it is a singleton, unless the flip needs no landing
        // at all.
        let text = vec![add_r(), Inst::new(InstKind::Halt)];
        let o = PruneOracle::new(IsaKind::Sira64, &text, BASE, &trace(vec![], vec![]));
        let material = PruneTarget::Text {
            word: 0,
            mask: 1 << 16,
        };
        let immaterial = PruneTarget::Text { word: 0, mask: 1 };
        assert_eq!(o.fingerprint(0, material, 5), None);
        assert_eq!(
            o.fingerprint(0, immaterial, 5),
            Some(Fingerprint::Decided(PruneVerdict::Vanished))
        );
    }

    #[test]
    fn flip_classes_cover_the_severity_order() {
        use fracas_isa::encode;
        let isa = IsaKind::Sira64;
        // `add` is opcode 8 in the [31:25] opcode field; its ALU-group
        // neighbours are reached by single opcode-bit flips.
        let add = encode(&add_r());
        // Unused R-form operand bit [5:0]: decodes identically.
        assert_eq!(flip_class(isa, add, 1), FlipClass::Equivalent);
        // A condition bit ([24:21], `al` = 0) on a non-branch fails
        // SIRA-64 validation: guaranteed fetch trap.
        assert_eq!(flip_class(isa, add, 1 << 21), FlipClass::Illegal);
        // ...but on SIRA-32 predication is legal, so the same flip
        // turns an unconditional add into `addeq`: control changed.
        assert_eq!(
            flip_class(IsaKind::Sira32, add, 1 << 21),
            FlipClass::CtrlChanged
        );
        // Destination register bit (rd field starts at bit 16).
        assert_eq!(flip_class(isa, add, 1 << 16), FlipClass::RegsChanged);
        // add (8) → sub (9): identical Effects, different semantics.
        assert_eq!(flip_class(isa, add, 1 << 25), FlipClass::DataOnly);
        // add (8) → mul (10): same registers, different cycle cost.
        assert_eq!(flip_class(isa, add, 1 << 26), FlipClass::CostChanged);
        // add (8) → srem (12): a div-by-zero trap appears.
        assert_eq!(flip_class(isa, add, 1 << 27), FlipClass::TrapChanged);
        // b (57) with opcode bit 6 set lands in the illegal gap (121).
        let b = encode(&Inst::new(InstKind::B { off: 4 }));
        assert_eq!(flip_class(isa, b, 1 << 31), FlipClass::Illegal);
        // A branch-offset bit changes the relative target.
        assert_eq!(flip_class(isa, b, 1 << 3), FlipClass::CtrlChanged);
        // ld word (45) → ld half (47): the access width changes.
        let ld = encode(&Inst::new(InstKind::Ld {
            width: fracas_isa::Width::Word,
            rd: Reg(1),
            rn: Reg(2),
            off: 0,
        }));
        assert_eq!(flip_class(isa, ld, 1 << 26), FlipClass::MemChanged);
    }

    #[test]
    fn composition_counts_are_total_and_deterministic() {
        use fracas_isa::encode;
        let words: Vec<u32> = [add_r(), addi(1, 2), Inst::new(InstKind::Halt)]
            .iter()
            .map(encode)
            .collect();
        let c = analyze_text(IsaKind::Sira64, &words);
        assert_eq!(c.total(), 32 * 3);
        assert_eq!(c, analyze_text(IsaKind::Sira64, &words));
        assert!(c.count(FlipClass::Illegal) > 0);
        assert!(c.count(FlipClass::Equivalent) > 0);
        let sum: f64 = FlipClass::ALL.iter().map(|&k| c.fraction(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cfg_reachability_bounds_the_trace() {
        // halt at 0 cuts words 1.. off; a trailing ret makes the result
        // conservative (all reachable).
        let text = vec![Inst::new(InstKind::Halt), addi(1, 2), addi(2, 1)];
        let reach = cfg_reachable_words(IsaKind::Sira64, &text);
        assert_eq!(reach, vec![true, false, false]);
        let text2 = vec![addi(1, 2), Inst::new(InstKind::Ret)];
        assert_eq!(
            cfg_reachable_words(IsaKind::Sira64, &text2),
            vec![true, true]
        );
    }
}
