//! Dynamic-vs-declared differential for the effects layer: the USE
//! side of the conformance argument.
//!
//! The runtime checker (`Machine::set_effect_check` in `fracas-cpu`)
//! verifies the *write* half of every [`Effects`] declaration by
//! diffing the core around each step — but a spurious **read** leaves
//! no trace in a diff. This test closes that gap by perturbation:
//! execute a sampled instruction twice, the second time with every
//! register *outside* `uses ∪ defs` flipped, and require the two runs
//! to be indistinguishable (same step result, PC, cycles, counters,
//! and identical values in every unperturbed register). If the
//! interpreter secretly read an undeclared register, some perturbation
//! would leak into an architectural outcome and the differential would
//! catch it.
//!
//! Perturbing *def-only* registers is deliberate: an exact
//! full-register overwrite erases the perturbation, so a divergence
//! there exposes a partial write hiding behind a declared def — the
//! exact failure mode the prune oracle cannot survive.
//!
//! Both ISAs, with the runtime checker enabled on every step so each
//! sampled instruction also passes the write-side assertions.

use fracas_cpu::{Flags, Machine};
use fracas_isa::effects::{Effects, FLAG_C, FLAG_N, FLAG_V, FLAG_Z};
use fracas_isa::{sample, FReg, Image, Inst, IsaKind, Reg, SymbolTable};
use fracas_mem::{PermissionMap, Perms};
use proptest::prelude::*;

/// SplitMix64: deterministic register-fill / perturbation entropy.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const TEXT_BASE: u32 = 0x1000;

/// A bootable single-instruction image (no data, no symbols).
fn one_inst_image(isa: IsaKind, inst: Inst) -> Image {
    Image {
        isa,
        text_base: TEXT_BASE,
        text: vec![inst],
        data_template: Vec::new(),
        entry: TEXT_BASE,
        symbols: SymbolTable::default(),
    }
}

/// A register value that keeps any memory operand in bounds: an
/// 8-byte-aligned address in the middle of flat memory, so `base ±
/// scaled-imm11` stays mapped and aligned for every access width.
fn fill_value(isa: IsaKind, entropy: u64) -> u64 {
    let addr = (0x0010_0000 + entropy % 0x00e0_0000) & !7;
    match isa {
        IsaKind::Sira32 => addr & 0xffff_ffff,
        IsaKind::Sira64 => addr,
    }
}

fn flag_bits(f: Flags) -> [(u8, bool); 4] {
    [(FLAG_N, f.n), (FLAG_Z, f.z), (FLAG_C, f.c), (FLAG_V, f.v)]
}

#[allow(clippy::too_many_lines)]
fn differential(isa: IsaKind, sel: u64, a: u64, b: u64, c: u64, seed: u64) {
    let inst = sample::inst(isa, sel, a, b, c);
    let fx = Effects::of(isa, &inst);
    let touched = fx.uses.union(fx.defs);

    let image = one_inst_image(isa, inst);
    let mut m = Machine::boot_flat(&image, 1);
    m.set_effect_check(true);
    let mut perm = PermissionMap::new(m.mem.size());
    perm.map_range(
        0,
        m.mem.size(),
        Perms {
            read: true,
            write: true,
            exec: true,
        },
    );

    // Deterministic register file: every GPR/FPR holds a valid aligned
    // address (so loads and stores succeed), flags a random nibble.
    let mut state = seed;
    let gprs = isa.gpr_count() as u8;
    let fprs = isa.fpr_count() as u8;
    for i in 0..gprs {
        if isa == IsaKind::Sira32 && i == 15 {
            continue; // r15 is the PC, not a register-file slot
        }
        m.core_mut(0)
            .set_reg(Reg(i), fill_value(isa, mix(&mut state)));
    }
    for i in 0..fprs {
        m.core_mut(0).set_freg(FReg(i), mix(&mut state));
    }
    m.core_mut(0)
        .set_flags(Flags::from_bits((mix(&mut state) & 0xf) as u8));

    // The twin: identical, then flipped everywhere the declaration
    // says the instruction cannot look.
    let mut twin = m.clone();
    let width_mask = match isa {
        IsaKind::Sira32 => 0xffff_ffffu64,
        IsaKind::Sira64 => u64::MAX,
    };
    let mut gpr_perturbed = [false; 32];
    let mut fpr_perturbed = [false; 32];
    if !fx.uses_all_gprs {
        for i in 0..gprs {
            if isa == IsaKind::Sira32 && i == 15 {
                continue;
            }
            if touched.gprs & (1 << i) == 0 {
                let old = twin.core(0).reg(Reg(i));
                let delta = (mix(&mut state) | 1) & width_mask;
                twin.core_mut(0).set_reg(Reg(i), old ^ delta);
                gpr_perturbed[i as usize] = true;
            }
        }
    }
    for i in 0..fprs {
        if touched.fprs & (1 << i) == 0 {
            let old = twin.core(0).freg(FReg(i));
            twin.core_mut(0)
                .set_freg(FReg(i), old ^ (mix(&mut state) | 1));
            fpr_perturbed[i as usize] = true;
        }
    }
    let mut want_flags = twin.core(0).flags();
    for (bit, flag) in [
        (FLAG_N, &mut want_flags.n),
        (FLAG_Z, &mut want_flags.z),
        (FLAG_C, &mut want_flags.c),
        (FLAG_V, &mut want_flags.v),
    ] {
        if touched.flags & bit == 0 {
            *flag = !*flag;
        }
    }
    twin.core_mut(0).set_flags(want_flags);
    let twin_pre_gprs: Vec<u64> = (0..gprs).map(|i| twin.core(0).reg(Reg(i))).collect();
    let twin_pre_fprs: Vec<u64> = (0..fprs).map(|i| twin.core(0).freg(FReg(i))).collect();
    let twin_pre_flags = twin.core(0).flags();

    let r1 = m.step(0, &perm);
    let r2 = twin.step(0, &perm);

    let ctx = |what: &str| format!("{what} diverged for `{inst}` [{isa}] seed {seed:#x}");
    assert_eq!(r1, r2, "{}", ctx("step result"));
    assert_eq!(m.core(0).pc(), twin.core(0).pc(), "{}", ctx("PC"));
    assert_eq!(
        m.core(0).is_halted(),
        twin.core(0).is_halted(),
        "{}",
        ctx("halt state")
    );
    assert_eq!(
        m.core(0).cycles(),
        twin.core(0).cycles(),
        "{}",
        ctx("cycles")
    );
    assert_eq!(
        m.core(0).stats(),
        twin.core(0).stats(),
        "{}",
        ctx("counters")
    );
    for i in 0..gprs {
        if isa == IsaKind::Sira32 && i == 15 {
            continue;
        }
        let (got, other) = (twin.core(0).reg(Reg(i)), m.core(0).reg(Reg(i)));
        if gpr_perturbed[i as usize] && fx.defs.gprs & (1 << i) == 0 {
            // Untouched by declaration: the perturbation must survive.
            assert_eq!(got, twin_pre_gprs[i as usize], "{}", ctx("bystander GPR"));
        } else {
            // Used, or fully overwritten (perturbed def-only slots
            // land here too: an exact def erases the perturbation).
            assert_eq!(got, other, "{}", ctx("GPR"));
        }
    }
    for i in 0..fprs {
        let (got, other) = (twin.core(0).freg(FReg(i)), m.core(0).freg(FReg(i)));
        if fpr_perturbed[i as usize] && fx.defs.fprs & (1 << i) == 0 {
            assert_eq!(got, twin_pre_fprs[i as usize], "{}", ctx("bystander FPR"));
        } else {
            assert_eq!(got, other, "{}", ctx("FPR"));
        }
    }
    for ((bit, got), ((_, other), (_, pre))) in flag_bits(twin.core(0).flags()).into_iter().zip(
        flag_bits(m.core(0).flags())
            .into_iter()
            .zip(flag_bits(twin_pre_flags)),
    ) {
        if touched.flags & bit == 0 {
            assert_eq!(got, pre, "{}", ctx("bystander flag"));
        } else {
            assert_eq!(got, other, "{}", ctx("flag"));
        }
    }
}

proptest! {
    #[test]
    fn sira64_touches_only_declared_effects(
        sel in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        seed in any::<u64>(),
    ) {
        differential(IsaKind::Sira64, sel, a, b, c, seed);
    }

    #[test]
    fn sira32_touches_only_declared_effects(
        sel in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        seed in any::<u64>(),
    ) {
        differential(IsaKind::Sira32, sel, a, b, c, seed);
    }
}
